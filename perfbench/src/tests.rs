//! The benchmark's own checks, on shortened simulated windows.

use cdna_sim::SimTime;

use crate::bench::{self, outcome_of, Summary};
use crate::workload::{Config, Workload};
use crate::{metric_lines, result_line};

/// `workload` at seed 5 over a few simulated milliseconds.
fn short(w: Workload) -> Config {
    w.config(5)
        .with_window(SimTime::from_ms(1), SimTime::from_ms(3))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run_short(w: Workload, traced: bool, reference: &str) -> Summary {
    bench::run(&short(w), 0.0, traced, reference, w.paper_mbps())
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let reference = outcome_of(&short(w));
        for (traced, want) in [(false, &end_to_end), (true, &per_layer)] {
            let s = run_short(w, traced, &reference);
            assert_eq!(s.failed, 0, "{}", w.name());
            let got: Vec<(String, String)> = s
                .metrics
                .iter()
                .map(|x| (x.name.clone(), x.unit.to_string()))
                .collect();
            assert_eq!(&got, want, "{} traced={traced}", w.name());
            let lines = metric_lines(&s);
            let result = result_line(&s);
            assert!(result.starts_with("{\"correct\":true,"), "{result}");
            for x in &s.metrics {
                assert!(x.value.is_finite(), "{}", x.name);
                assert!(
                    lines
                        .lines()
                        .any(|l| l.starts_with(&format!("{} ", x.name)) && l.ends_with(x.unit)),
                    "{} missing from the printed lines",
                    x.name
                );
                let entry = format!("\"{}\":{{\"value\":", x.name);
                assert!(
                    result.contains(&entry),
                    "{} missing from the result",
                    x.name
                );
            }
            for note in ["error_rate", "sim_idle_pct", "step_samples"] {
                assert!(lines.contains(note), "{note} not printed");
            }
            if w.paper_mbps().is_some() {
                assert!(lines.contains("paper_error_pct"));
            }
        }
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn recorded_references_match_the_full_runs() {
    // The single-host references are cheap enough to recheck here; the
    // rack's is rechecked by every benchmark run.
    for w in [Workload::CdnaTx24g, Workload::SoftvirtRx24g] {
        assert_eq!(outcome_of(&w.config(9)), w.reference(), "{}", w.name());
    }
}

#[test]
fn an_outcome_mismatch_counts_as_a_failed_run() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let s = run_short(w, traced, "not the recorded outcome\n");
            assert!(s.attempted >= 3);
            assert_eq!(s.failed, s.attempted, "{} traced={traced}", w.name());
            assert!(s.metrics.is_empty());
            assert!(result_line(&s).starts_with("{\"correct\":false,"));
            assert!(metric_lines(&s).contains("error_rate"));
        }
    }
}

#[test]
fn one_wrong_line_fails_the_run() {
    let w = Workload::CdnaTx24g;
    let reference = outcome_of(&short(w));
    let tampered = reference.replacen("protection_faults 0", "protection_faults 1", 1);
    assert_ne!(tampered, reference);
    let s = run_short(w, false, &tampered);
    assert_eq!(s.failed, s.attempted);
}
