//! cdna-check: domain-specific static analysis for the CDNA workspace.
//!
//! CDNA's safety argument rests on the hypervisor's DMA protection —
//! page-ownership validation, pins that outlive in-flight DMA, strictly
//! increasing sequence numbers. This crate checks the parts of that
//! guest→hypervisor DMA interface that no compiler lint can see:
//!
//! * **Symbol-graph pass** ([`parse`], [`graph`], [`analyses`]): an
//!   item-level parser extracts per-crate `fn` items and call sites,
//!   and `must-pair` (CDNA009) proves every pin reaches an unpin/reap
//!   on all non-panic paths, via a CFG-lite token walk.
//! * **Dataflow passes** ([`dataflow`], [`taint`], [`locks`]):
//!   `guest-taint` (CDNA011) follows guest-controlled values to pin,
//!   DMA and ring sinks; `lock-order` (CDNA012) finds lock-order cycles
//!   and locks held across calls that lock.
//!
//! The general code rules this crate once re-implemented on its own
//! lexer — no wall clock or hash maps in simulation code, no panics in
//! library code, no `unsafe`, documented public items, exhaustive fault
//! matches, hermetic and layered dependencies — are rustc and clippy
//! lints in `[workspace.lints]` plus a `Cargo.lock` test now, and the
//! determinism rules (`--jobs 1 ≡ --jobs N` byte identity) are the
//! jobs-equality tests and CI `cmp` gates of every fan-out binary;
//! [`rules::RETIRED`] and DESIGN.md §9 map each retired code to its
//! replacement. The run-time DMA mirror lives next to the protection
//! engine, in `cdna_core::shadow`.
//!
//! Violations can be suppressed in-source with
//! `// cdna-check: allow(<rule>)` annotations. An annotation is an
//! expectation: one that suppresses nothing is reported under the rule
//! it names. Everything runs under `cargo test` and as the `cdna-check`
//! binary (`cargo run -p cdna-check`), which exits non-zero on any
//! violation and can emit a machine-readable JSON report ([`report`]).

pub mod analyses;
pub mod calibrate;
pub mod dataflow;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod report;
pub mod rules;
pub mod taint;

pub use analyses::{analyze, Analysis, SourceFile};
pub use report::render_json;
pub use rules::{check_repo, rule_code, Diagnostic, FileKind, StaticReport, RULE_NAMES};

use std::path::PathBuf;

/// The workspace root this crate was built from, for self-checking:
/// `crates/check` → two levels up.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}
