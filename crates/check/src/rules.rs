//! The rule registry and the repository walker.
//!
//! Each rule has a stable kebab-case name, used both in diagnostics and
//! in `// cdna-check: allow(<rule>)` suppression annotations:
//!
//! | rule | code | meaning |
//! |------|------|---------|
//! | `must-pair` | CDNA009 | pin acquired but not released on a non-panic path |
//! | `guest-taint` | CDNA011 | guest-controlled data reaches a pin/DMA/ring sink unvalidated |
//! | `lock-order` | CDNA012 | lock-order cycle or lock held across a call that locks |
//!
//! CDNA009 is produced by [`crate::analyses`] and CDNA011–012 by the
//! dataflow passes in [`crate::taint`] and [`crate::locks`]. The other
//! codes belong to rules that rustc, clippy, a root test or the
//! jobs-equality gates now enforce ([`RETIRED`]); codes are never
//! reassigned.

use crate::analyses::SourceFile;
use std::path::{Path, PathBuf};

/// Names of every static rule, in report order.
pub const RULE_NAMES: [&str; 3] = ["must-pair", "guest-taint", "lock-order"];

/// Retired rules as `(name, code, replacement)`: each moved to a rustc
/// or clippy lint in `[workspace.lints]`, to the compiler's own checks,
/// to the `Cargo.lock` policy test in the root `tests/check.rs`, or —
/// for the determinism rules — to the `--jobs 1` vs `--jobs N`
/// equality tests and CI compares. An escape naming one of them is
/// reported as stale.
pub const RETIRED: [(&str, &str, &str); 14] = [
    ("sim-time", "CDNA001", "`clippy::disallowed_types`"),
    (
        "nondeterministic-map",
        "CDNA002",
        "`clippy::disallowed_types`",
    ),
    (
        "panic",
        "CDNA003",
        "`clippy::unwrap_used`, `clippy::expect_used` and `clippy::panic`",
    ),
    ("unsafe", "CDNA004", "`unsafe_code = \"forbid\"`"),
    ("hermetic-deps", "CDNA005", "the `Cargo.lock` policy test"),
    ("missing-docs", "CDNA006", "`missing_docs`"),
    ("unused-allow", "CDNA007", "`#[expect]`"),
    ("layering", "CDNA008", "the `Cargo.lock` policy test"),
    (
        "exhaustive-fault",
        "CDNA010",
        "`clippy::wildcard_enum_match_arm`",
    ),
    (
        "send-audit",
        "CDNA013",
        "the compiler's `Send` bound on the queue seam",
    ),
    (
        "merge-order",
        "CDNA014",
        "the jobs-equality tests (bench `parallel_vs_sequential_bench_identical`, rack, \
         fuzz, model) and `clippy::disallowed_types` on `Hash*`",
    ),
    (
        "clock-purity",
        "CDNA015",
        "`clippy::disallowed_types` on `Instant`/`SystemTime`, the CI perf-smoke \
         jobs-1 vs jobs-2 compare and the rack `cmp`",
    ),
    (
        "jobs-leak",
        "CDNA016",
        "the rack `jobs_one_and_many_are_byte_identical` test and the CI jobs-equality gates",
    ),
    (
        "float-accum",
        "CDNA017",
        "the jobs-equality tests and `clippy::disallowed_types` on `Hash*`",
    ),
];

/// Stable machine-readable code for a rule (`CDNA009`…), used by the
/// JSON report so CI diffs survive rule renames.
pub fn rule_code(rule: &str) -> &'static str {
    match rule {
        "must-pair" => "CDNA009",
        "guest-taint" => "CDNA011",
        "lock-order" => "CDNA012",
        _ => RETIRED
            .iter()
            .find(|(name, _, _)| *name == rule)
            .map_or("CDNA000", |&(_, code, _)| code),
    }
}

/// The static name of a live or retired rule, or `None` for a name
/// cdna-check never had.
pub fn known_rule(name: &str) -> Option<&'static str> {
    RULE_NAMES
        .iter()
        .copied()
        .chain(RETIRED.iter().map(|&(rule, _, _)| rule))
        .find(|rule| *rule == name)
}

/// What now enforces a retired rule, or `None` for a live one.
pub fn replacement(rule: &str) -> Option<&'static str> {
    RETIRED
        .iter()
        .find(|(name, _, _)| *name == rule)
        .map(|&(_, _, lint)| lint)
}

/// How a source file is classified. The passes analyze library code
/// only; tests, examples and binaries still feed name resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/`.
    Library,
    /// `tests/` and `examples/`.
    TestOrExample,
    /// Binary entry points (`main.rs`, `src/bin/`).
    Binary,
}

/// One rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Formats as `file:line: [rule] message` for terminal output.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Aggregate result of a repository scan.
#[derive(Debug, Default)]
pub struct StaticReport {
    /// All violations, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `Cargo.toml` manifests found (root plus crates), a
    /// guard against a truncated walk.
    pub manifests_scanned: usize,
    /// Number of `cdna-check: allow` annotations honoured.
    pub allow_count: usize,
}

impl StaticReport {
    /// True when no rule fired.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Classifies a repo-relative path, or returns `None` if the file is
/// exempt from scanning (e.g. the seeded-violation corpus).
pub fn classify(rel: &str) -> Option<FileKind> {
    if rel.contains("tests/corpus/") {
        return None; // fixtures that violate rules on purpose
    }
    if rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/")
    {
        return Some(FileKind::TestOrExample);
    }
    if rel.ends_with("/main.rs") || rel.contains("/src/bin/") {
        return Some(FileKind::Binary);
    }
    Some(FileKind::Library)
}

/// Walks the repository at `root` and applies every static rule, plus
/// the stale-escape audit.
///
/// Scans `src/`, `tests/`, `examples/` at the root and under each
/// `crates/*`, and counts the `Cargo.toml`s. Paths are sorted so output
/// is deterministic.
pub fn check_repo(root: &Path) -> std::io::Result<StaticReport> {
    let mut rs_files: Vec<PathBuf> = Vec::new();
    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml")];

    let mut roots: Vec<PathBuf> = ["src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            manifests.push(c.join("Cargo.toml"));
            for d in ["src", "tests", "examples"] {
                roots.push(c.join(d));
            }
        }
    }
    for r in roots {
        if r.is_dir() {
            collect_rs(&r, &mut rs_files)?;
        }
    }
    rs_files.sort();

    let mut sources: Vec<SourceFile> = Vec::new();
    for path in &rs_files {
        let rel = rel_path(root, path);
        let Some(kind) = classify(&rel) else { continue };
        sources.push(SourceFile {
            rel,
            kind,
            text: std::fs::read_to_string(path)?,
        });
    }

    let analysis = crate::analyses::analyze(&sources);
    Ok(StaticReport {
        diagnostics: analysis.diagnostics,
        files_scanned: sources.len(),
        manifests_scanned: manifests.iter().filter(|p| p.is_file()).count(),
        allow_count: analysis.allow_count,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // `target/` never appears under src/tests/examples, but be safe.
            if p.file_name().map(|n| n == "target").unwrap_or(false) {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/mem/src/pool.rs"), Some(FileKind::Library));
        assert_eq!(
            classify("crates/mem/tests/t.rs"),
            Some(FileKind::TestOrExample)
        );
        assert_eq!(classify("src/main.rs"), Some(FileKind::Binary));
        assert_eq!(classify("crates/check/tests/corpus/bad.rs"), None);
    }

    #[test]
    fn rule_codes_are_stable_and_unique() {
        let mut codes: Vec<&str> = RULE_NAMES.iter().map(|r| rule_code(r)).collect();
        codes.extend(RETIRED.iter().map(|&(name, _, _)| rule_code(name)));
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "duplicate code: {codes:?}");
        assert!(!codes.contains(&"CDNA000"));
        assert_eq!(rule_code("must-pair"), "CDNA009");
        assert_eq!(rule_code("guest-taint"), "CDNA011");
        assert_eq!(rule_code("lock-order"), "CDNA012");
        assert_eq!(rule_code("panic"), "CDNA003");
        for (rule, code) in [
            ("merge-order", "CDNA014"),
            ("clock-purity", "CDNA015"),
            ("jobs-leak", "CDNA016"),
            ("float-accum", "CDNA017"),
        ] {
            assert_eq!(rule_code(rule), code);
            assert_eq!(known_rule(rule), Some(rule));
            assert!(replacement(rule).is_some_and(|gate| gate.contains("jobs")));
        }
        assert_eq!(known_rule("send-audit"), Some("send-audit"));
        assert_eq!(known_rule("no-such-rule"), None);
        assert_eq!(replacement("must-pair"), None);
        assert_eq!(replacement("unsafe"), Some("`unsafe_code = \"forbid\"`"));
    }
}
