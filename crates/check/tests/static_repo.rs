//! The static pass run against this repository itself, as a `#[test]`
//! so tier-1 `cargo test` enforces the rules on every change, plus the
//! seeded-fixture calibration that proves the passes still fire.

use cdna_check::{calibrate::calibrate, check_repo, render_json, workspace_root};

#[test]
fn repository_passes_static_checks() {
    let report = match check_repo(&workspace_root()) {
        Ok(r) => r,
        Err(e) => panic!("scan failed: {e}"),
    };
    assert!(report.files_scanned > 50, "scan looks truncated");
    assert!(report.manifests_scanned >= 11, "missing crate manifests");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.clean(),
        "static violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn repo_report_is_valid_deterministic_json() {
    let report = match check_repo(&workspace_root()) {
        Ok(r) => r,
        Err(e) => panic!("scan failed: {e}"),
    };
    let a = render_json(&report);
    let b = render_json(&report);
    assert_eq!(a, b, "report must be byte-stable");
    assert!(a.starts_with('{') && a.ends_with('}'));
    assert!(a.contains(r#""clean":true"#));
}

#[test]
fn calibration_catches_every_seeded_violation() {
    let corpus = workspace_root().join("crates/check/tests/corpus");
    let failures = match calibrate(&corpus) {
        Ok(f) => f,
        Err(e) => panic!("calibration harness error: {e}"),
    };
    assert!(
        failures.is_empty(),
        "calibration failures:\n{}",
        failures.join("\n")
    );
}
