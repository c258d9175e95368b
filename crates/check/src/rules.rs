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
//! | `merge-order` | CDNA014 | fan-out results merged in arrival order or through a `Hash*` container |
//! | `clock-purity` | CDNA015 | wall-clock value serialized outside a `wall_ms*` field |
//! | `jobs-leak` | CDNA016 | worker count/index or thread identity in compared serialization |
//! | `float-accum` | CDNA017 | order-unstable data fed into an `f64` reduction |
//!
//! CDNA009 is produced by [`crate::analyses`], CDNA011–012 by the
//! dataflow passes in [`crate::taint`] and [`crate::locks`], and
//! CDNA014–017 by the determinism-soundness passes in
//! [`crate::determinism`]. The other codes belong to rules that rustc,
//! clippy or a root test now enforce ([`RETIRED`]); codes are never
//! reassigned.

use crate::analyses::SourceFile;
use std::path::{Path, PathBuf};

/// Names of every static rule, in report order.
pub const RULE_NAMES: [&str; 7] = [
    "must-pair",
    "guest-taint",
    "lock-order",
    "merge-order",
    "clock-purity",
    "jobs-leak",
    "float-accum",
];

/// Retired rules as `(name, code, replacement)`: each moved to a rustc
/// or clippy lint in `[workspace.lints]`, to the compiler's own checks,
/// or to the `Cargo.lock` policy test in the root `tests/check.rs`. An
/// escape naming one of them is reported as stale.
pub const RETIRED: [(&str, &str, &str); 10] = [
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
];

/// Stable machine-readable code for a rule (`CDNA009`…), used by the
/// JSON report so CI diffs survive rule renames.
pub fn rule_code(rule: &str) -> &'static str {
    match rule {
        "must-pair" => "CDNA009",
        "guest-taint" => "CDNA011",
        "lock-order" => "CDNA012",
        "merge-order" => "CDNA014",
        "clock-purity" => "CDNA015",
        "jobs-leak" => "CDNA016",
        "float-accum" => "CDNA017",
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
/// `crates/*`, and counts the `Cargo.toml`s. Paths are sorted so output is
/// deterministic. Per-file work runs on one worker; see
/// [`check_repo_jobs`] for the fanned-out scan.
pub fn check_repo(root: &Path) -> std::io::Result<StaticReport> {
    check_repo_jobs(root, Some(1))
}

/// [`check_repo`], with per-file lex/parse work sharded over
/// `jobs` workers of the `cdna_sim::par` pool (`None` resolves the
/// worker count like every other binary: `CDNA_JOBS`, then available
/// parallelism). The scanner self-hosts the guarantee it checks: the
/// merge is path-ordered, so the report is byte-identical at any
/// worker count.
pub fn check_repo_jobs(root: &Path, jobs: Option<usize>) -> std::io::Result<StaticReport> {
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

    let resolved = cdna_sim::par::resolve_jobs(jobs, sources.len());
    let analysis = crate::analyses::analyze_jobs(&sources, resolved);
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
        assert_eq!(rule_code("float-accum"), "CDNA017");
        assert_eq!(rule_code("panic"), "CDNA003");
        assert_eq!(known_rule("send-audit"), Some("send-audit"));
        assert_eq!(known_rule("no-such-rule"), None);
        assert_eq!(replacement("must-pair"), None);
        assert_eq!(replacement("unsafe"), Some("`unsafe_code = \"forbid\"`"));
    }
}
