//! `cdna-check` binary: runs the domain-specific static passes over the
//! workspace and exits non-zero on any violation. The general code
//! rules it used to carry (no panics, no `unsafe`, documented public
//! items, no wall clock or hash maps, …) are compiler and clippy lints
//! now; `cargo clippy --workspace --all-targets -- -D warnings` is their
//! gate. Its determinism rules (CDNA014–017) are the jobs-equality
//! tests and CI `cmp` gates of the fan-out binaries (DESIGN.md §9).
//!
//! ```text
//! cargo run -p cdna-check                 # scan, print diagnostics
//! cargo run -p cdna-check -- --json out.json   # also write JSON report
//! cargo run -p cdna-check -- --format github  # ::error annotations
//! cargo run -p cdna-check -- --root /path/to/repo
//! cargo run -p cdna-check -- --calibrate  # seeded-fixture calibration
//! ```
//!
//! **Calibration mode** (`--calibrate`): runs the seeded-violation
//! fixtures under `crates/check/tests/corpus/` and exits 1 unless every
//! seeded violation (CDNA011, CDNA012) is caught at its
//! exact file:line (and nothing else fires) — the proof that the
//! analyses actually detect what they claim to.
//!
//! **GitHub annotations** (`--format github`): diagnostics print as
//! workflow commands (`::error file=…,line=…::CDNA009 …`) that GitHub
//! renders inline on the PR diff. The summary line and JSON artifact
//! are unchanged.

use cdna_check::{calibrate, check_repo, render_json, report::render_github, workspace_root};
use std::path::PathBuf;

fn usage() -> ! {
    println!(
        "usage: cdna-check [--root DIR] [--json REPORT.json] [--format text|github] [--calibrate]"
    );
    std::process::exit(0);
}

fn main() {
    let mut root = workspace_root();
    let mut json_path: Option<PathBuf> = None;
    let mut run_calibration = false;
    let mut github = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.next().map(PathBuf::from),
            "--calibrate" => run_calibration = true,
            "--format" => match args.next().as_deref() {
                Some("github") => github = true,
                Some("text") => github = false,
                other => {
                    eprintln!(
                        "cdna-check: unknown format `{}` (expected text|github)",
                        other.unwrap_or("")
                    );
                    std::process::exit(2);
                }
            },
            "--root" => {
                if let Some(r) = args.next() {
                    root = PathBuf::from(r);
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("cdna-check: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    if run_calibration {
        let corpus = root.join("crates/check/tests/corpus");
        match calibrate::calibrate(&corpus) {
            Ok(failures) if failures.is_empty() => {
                println!("cdna-check: calibration OK — every seeded violation caught");
                return;
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("cdna-check: calibration: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("cdna-check: calibration failed: {e}");
                std::process::exit(2);
            }
        }
    }

    let report = match check_repo(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cdna-check: scan failed: {e}");
            std::process::exit(2);
        }
    };

    if github {
        // Annotation lines for the PR overlay; stdout so the workflow
        // command processor sees them.
        print!("{}", render_github(&report));
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
    }
    println!(
        "cdna-check: {} file(s), {} manifest(s), {} allow annotation(s), {} violation(s)",
        report.files_scanned,
        report.manifests_scanned,
        report.allow_count,
        report.diagnostics.len(),
    );

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_json(&report)) {
            eprintln!("cdna-check: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("cdna-check: JSON report written to {}", path.display());
    }

    if !report.clean() {
        std::process::exit(1);
    }
}
