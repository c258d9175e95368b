//! Host-speed and fidelity benchmark of the CDNA simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cdna-tx-24g --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). `--record` re-records a workload's reference outcome.
//! See `perfbench/README.md` for the workloads and metrics.

mod bench;
mod host;
mod layers;
mod probe;
mod rack;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::process::ExitCode;

use cdna_trace::json::JsonWriter;

use crate::bench::Summary;
use crate::workload::Workload;

/// Where traced runs write their spans and `--record` its references.
const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: cdna-perfbench --workload {} --seed N --seconds S --trace 0|1 [--record]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = Some(false);
    let mut record = false;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&argv.next()?),
            "--seed" => seed = argv.next()?.parse().ok(),
            "--seconds" => seconds = argv.next()?.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match argv.next()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--record" => record = true,
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace?,
        record,
    })
}

/// The human-readable lines: one per metric, `name value unit`.
fn metric_lines(s: &Summary) -> String {
    let mut out = String::new();
    for x in s.notes.iter().chain(&s.metrics) {
        out.push_str(&format!("{:<44} {:>22} {}\n", x.name, x.value, x.unit));
    }
    out
}

/// The result line the benchmark ends with.
fn result_line(s: &Summary) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.boolean(s.failed == 0 && s.attempted > 0 && !s.metrics.is_empty());
    w.key("attempted");
    w.number_u64(s.attempted);
    w.key("failed");
    w.number_u64(s.failed);
    w.key("metrics");
    w.begin_object();
    for x in &s.metrics {
        w.key(&x.name);
        w.begin_object();
        w.key("value");
        w.number_f64(x.value);
        w.key("unit");
        w.string(x.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn record(w: Workload, seed: u64) -> ExitCode {
    let outcomes: Vec<String> = [seed, workload::second_seed(seed)]
        .into_iter()
        .map(|s| bench::outcome_of(&w.config(s)))
        .collect();
    if outcomes[0] != outcomes[1] {
        eprintln!("outcome depends on the seed; not recording");
        return ExitCode::FAILURE;
    }
    let path = format!("{PACKAGE_DIR}/reference/{}.txt", w.name());
    if let Err(e) = std::fs::write(&path, &outcomes[0]) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", outcomes[0]);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let Some(args) = parse(std::env::args().skip(1)) else {
        return usage();
    };
    let w = args.workload;
    if args.record {
        return record(w, args.seed);
    }
    println!(
        "# {} seed {} seconds {} trace {} jobs {} (available parallelism {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.config(args.seed).jobs(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let summary = bench::run(
        &w.config(args.seed),
        args.seconds,
        args.trace,
        w.reference(),
        w.paper_mbps(),
    );
    if w.paper_mbps().is_none() {
        println!("# paper_error_pct: no paper reference; this workload is unvalidated");
    }
    if let Some(json) = &summary.spans_json {
        let dir = format!("{PACKAGE_DIR}/out");
        let path = format!("{dir}/spans-{}.json", w.name());
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    print!("{}", metric_lines(&summary));
    println!("{}", result_line(&summary));
    ExitCode::SUCCESS
}
