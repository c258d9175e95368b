//! The measurement loop: repeat a workload's fixed simulated run until
//! the time budget is spent, check each outcome against the reference,
//! and reduce the timings to the named metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cdna_rack::RackWorld;
use cdna_system::SystemWorld;

use crate::host;
use crate::layers::LayerCounts;
use crate::probe::{Probe, HANDLERS};
use crate::rack::{self, TracedRackRun};
use crate::stats::{median, quantile};
use crate::workload::{host_outcome, rack_outcome, second_seed, Config};

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one benchmark invocation measured.
#[derive(Debug)]
pub struct Summary {
    /// Simulated runs attempted (warm-up included).
    pub attempted: u64,
    /// Runs that panicked, reported a protection fault, or whose outcome
    /// differed from the reference.
    pub failed: u64,
    /// The metrics the result line carries: end-to-end when untraced,
    /// per-layer when traced. Empty if no run succeeded.
    pub metrics: Vec<Metric>,
    /// Further figures printed for the reader only.
    pub notes: Vec<Metric>,
    /// Recorded spans as Chrome trace JSON (traced runs only).
    pub spans_json: Option<String>,
}

/// One untraced run, reduced to what the metrics need.
#[derive(Debug)]
struct PlainRun {
    outcome: String,
    faults: u64,
    run_s: f64,
    /// Host µs of each timed slice.
    slice_us: Vec<f64>,
    /// Simulated ms per slice.
    slice_ms: f64,
    events: u64,
    packets: u64,
    mbps: f64,
    idle_pct: f64,
}

fn run_plain(cfg: &Config) -> PlainRun {
    match cfg {
        Config::Host(c) => {
            let r = host::run_untraced(c.clone());
            PlainRun {
                outcome: host_outcome(&r.report),
                faults: r.report.protection_faults,
                run_s: r.run_s,
                slice_us: r.slice_us,
                slice_ms: 1.0,
                events: r.report.events_processed,
                packets: r.report.packets,
                mbps: r.report.throughput_mbps,
                idle_pct: r.report.idle_pct(),
            }
        }
        Config::Rack { cfg, jobs } => {
            let r = rack::run_untraced(cfg.clone(), *jobs);
            let hosts = &r.report.per_host;
            PlainRun {
                outcome: rack_outcome(&r.report),
                faults: r.report.total_faults(),
                run_s: r.run_s,
                slice_us: r.slice_us,
                slice_ms: rack::SLICE_NS as f64 / 1e6,
                events: r.report.total_events(),
                packets: hosts.iter().map(|h| h.packets).sum(),
                mbps: r.report.aggregate_mbps(),
                idle_pct: hosts.iter().map(|h| h.idle_pct()).sum::<f64>() / hosts.len() as f64,
            }
        }
    }
}

/// Layer detail of one traced run.
#[derive(Debug)]
enum Detail {
    Host(Box<Probe>),
    Rack(Box<TracedRackRun>),
}

/// One traced run.
#[derive(Debug)]
struct TracedRun {
    outcome: String,
    faults: u64,
    run_s: f64,
    counts: LayerCounts,
    detail: Detail,
}

fn run_traced(cfg: &Config) -> TracedRun {
    match cfg {
        Config::Host(c) => {
            let r = host::run_traced(c.clone());
            TracedRun {
                outcome: host_outcome(&r.report),
                faults: r.report.protection_faults,
                run_s: r.run_s,
                counts: r.counts,
                detail: Detail::Host(Box::new(r.probe)),
            }
        }
        Config::Rack { cfg, jobs } => {
            let r = rack::run_traced(cfg.clone(), *jobs);
            TracedRun {
                outcome: rack_outcome(&r.report),
                faults: r.report.total_faults(),
                run_s: r.run_s,
                counts: r.counts,
                detail: Detail::Rack(Box::new(r)),
            }
        }
    }
}

/// The outcome text of one untraced run.
pub fn outcome_of(cfg: &Config) -> String {
    run_plain(cfg).outcome
}

/// Runs `f`, turning a panic, a protection fault or an outcome that
/// differs from `reference` into `None`.
fn checked<T>(reference: &str, f: impl FnOnce() -> T, outcome: fn(&T) -> (&str, u64)) -> Option<T> {
    let r = catch_unwind(AssertUnwindSafe(f)).ok()?;
    let (text, faults) = outcome(&r);
    if faults != 0 {
        eprintln!("run reported {faults} protection faults");
        return None;
    }
    if text != reference {
        let mut lines = text.lines().zip(reference.lines());
        let (got, want) = lines
            .find(|(a, b)| a != b)
            .unwrap_or(("(length)", "(length)"));
        eprintln!("outcome differs from the reference: got `{got}`, want `{want}`");
        return None;
    }
    Some(r)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups (and builds) timed on their own per benchmark run.
const SETUPS: usize = 12;

/// Timed runs per benchmark run at least, whatever the time budget.
const MIN_RUNS: usize = 2;

/// Runs `cfg` until `seconds` of wall time are spent and reduces the
/// runs to metrics. The first run is a warm-up: checked, never timed.
/// Runs alternate between the configured seed and [`second_seed`]; every
/// run is checked against `reference`. With `traced`, untraced and
/// traced runs alternate and the per-layer metrics are reported.
/// `paper_mbps` is the paper's throughput figure, if it has one.
pub fn run(
    cfg: &Config,
    seconds: f64,
    traced: bool,
    reference: &str,
    paper_mbps: Option<f64>,
) -> Summary {
    let start = Instant::now();
    let seeds = [cfg.reseeded(second_seed(cfg.seed())), cfg.clone()];
    fn plain_check(r: &PlainRun) -> (&str, u64) {
        (&r.outcome, r.faults)
    }
    fn traced_check(r: &TracedRun) -> (&str, u64) {
        (&r.outcome, r.faults)
    }
    let mut attempted = 1u64;
    let mut failed = u64::from(checked(reference, || run_plain(cfg), plain_check).is_none());
    // One workload run's memory: later runs keep results around.
    let rss_mb = peak_rss_mb();
    let setup = setup_s(cfg);

    let mut plain: Vec<PlainRun> = Vec::new();
    let mut probed: Vec<TracedRun> = Vec::new();
    let mut i = 0;
    while i < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let c = &seeds[i % 2];
        attempted += 1;
        match checked(reference, || run_plain(c), plain_check) {
            Some(r) => plain.push(r),
            None => failed += 1,
        }
        if traced {
            attempted += 1;
            match checked(reference, || run_traced(c), traced_check) {
                Some(r) => probed.push(r),
                None => failed += 1,
            }
        }
        i += 1;
    }

    let mut summary = Summary {
        attempted,
        failed,
        metrics: Vec::new(),
        notes: vec![m("error_rate", failed as f64 / attempted as f64, "ratio")],
        spans_json: None,
    };
    let Some(last) = plain.last() else {
        return summary;
    };
    let sim_s = cfg.sim_seconds();
    let quiet = quiet_slices(&plain);
    let speed = sim_s * 1e6 / quiet.iter().sum::<f64>();
    let steps: Vec<f64> = quiet.iter().map(|us| us / last.slice_ms).collect();
    summary.notes.extend([
        m("timed_runs", plain.len() as f64, "count"),
        m("step_samples", steps.len() as f64, "count"),
        m(
            "step_samples_pooled",
            (steps.len() * plain.len()) as f64,
            "count",
        ),
        m("sim_idle_pct", last.idle_pct, "%"),
    ]);
    if let Some(paper) = paper_mbps {
        summary.notes.extend([
            m("paper_mbps", paper, "Mb/s"),
            m(
                "paper_error_pct",
                (last.mbps - paper).abs() / paper * 100.0,
                "%",
            ),
        ]);
    }

    if !traced {
        summary.metrics = vec![
            m("sim_speed", speed, "sim_s/s"),
            m("step_us_p50", quantile(&steps, 0.5), "us"),
            m("step_us_p99", quantile(&steps, 0.99), "us"),
            m("setup_s", setup, "s"),
            m("peak_rss_mb", rss_mb, "MB"),
            m("sim_throughput_mbps", last.mbps, "Mb/s"),
        ];
        return summary;
    }
    let Some(last_traced) = probed.last() else {
        return summary;
    };

    let plain_run_s = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_run_s = median(&probed.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let probes: Vec<&Probe> = probed
        .iter()
        .filter_map(|r| match &r.detail {
            Detail::Host(p) => Some(p.as_ref()),
            Detail::Rack(_) => None,
        })
        .collect();
    let racks: Vec<&TracedRackRun> = probed
        .iter()
        .filter_map(|r| match &r.detail {
            Detail::Rack(x) => Some(x.as_ref()),
            Detail::Host(_) => None,
        })
        .collect();
    let events = last.events as f64;
    let c = &last_traced.counts;

    let mut metrics = queue_and_handler_metrics(&probes);
    metrics.extend([
        m("system.events_per_s", events * speed / sim_s, "1/s"),
        m(
            "system.events_per_packet",
            events / last.packets.max(1) as f64,
            "ratio",
        ),
        m("system.rx_credit_drops", c.rx_credit_drops as f64, "count"),
        m("system.build_s", build_s(cfg), "s"),
    ]);
    metrics.extend(count_metrics(c));
    let rack_build_s = match cfg {
        Config::Rack { .. } => setup,
        Config::Host(_) => 0.0,
    };
    metrics.extend(rack_metrics(&racks, rack_build_s, cfg.jobs()));
    let states = match cfg {
        Config::Rack { cfg, .. } => cfg.hosts as usize,
        Config::Host(_) => 1,
    };
    let rounds: Vec<f64> = (0..3)
        .map(|_| rack::empty_round_ns(cfg.jobs(), states))
        .collect();
    metrics.push(m("par.round_ns", median(&rounds), "ns"));

    let (uncovered, spans_json) = match &last_traced.detail {
        Detail::Host(p) => (
            p.slice_ns.saturating_sub(p.covered_ns) as f64 / p.slice_ns.max(1) as f64,
            crate::spans::host_chrome_json(&p.spans),
        ),
        Detail::Rack(r) => {
            let worker_s = r.run_s * cfg.jobs() as f64;
            (
                (worker_s - r.host_step_s).max(0.0) / worker_s,
                crate::spans::rack_chrome_json(&r.spans),
            )
        }
    };
    metrics.extend([
        m(
            "trace.overhead_pct",
            (traced_run_s / plain_run_s - 1.0) * 100.0,
            "%",
        ),
        m("trace.uncovered_pct", uncovered * 100.0, "%"),
    ]);
    summary
        .notes
        .push(m("traced_runs", probed.len() as f64, "count"));
    summary.metrics = metrics;
    summary.spans_json = Some(spans_json);
    summary
}

/// The quantile the run-time figures take over repetitions of the same
/// simulated slice. On a 2-vCPU VM shared with other tenants, more than half of the
/// repetitions in one time budget were often slowed, which moved a median
/// by up to 60 % between processes while the 10th percentile stayed
/// within 10 %.
const QUIET: f64 = 0.1;

/// Host µs of each simulated slice on a quiet host: per slice, the
/// [`QUIET`] quantile over the timed runs. The work in a slice repeats
/// exactly from run to run, so only host noise varies.
fn quiet_slices(plain: &[PlainRun]) -> Vec<f64> {
    let slices = plain.iter().map(|r| r.slice_us.len()).min().unwrap_or(0);
    (0..slices)
        .map(|k| {
            quantile(
                &plain.iter().map(|r| r.slice_us[k]).collect::<Vec<_>>(),
                QUIET,
            )
        })
        .collect()
}

/// Median wall seconds of [`SETUPS`] runs of `f`, each kept alive until
/// all are timed, so each builds into memory the process has not used
/// yet, as a simulator process's single build does. The first run is
/// left out: it may reuse the warm-up run's freed memory. Builds into
/// reused memory varied by up to 2x between processes with the
/// allocator's state.
fn cold_setup_s<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut alive = Vec::with_capacity(SETUPS);
    let mut samples = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        alive.push(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    drop(alive);
    median(&samples[1..])
}

/// Seconds of a set-up on its own: build plus prime for one host,
/// `RackWorld::build` for a rack.
fn setup_s(cfg: &Config) -> f64 {
    match cfg {
        Config::Host(c) => cold_setup_s(|| host::set_up(c.clone())),
        Config::Rack { cfg, .. } => cold_setup_s(|| RackWorld::build(cfg.clone())),
    }
}

/// `SystemWorld::build` seconds for one host of the scenario.
fn build_s(cfg: &Config) -> f64 {
    let host = cfg.first_host();
    cold_setup_s(|| SystemWorld::build(host.clone()))
}

/// The `sim.queue.*` and `system.handle.*` metrics, medians over traced
/// single-host runs. The rack builds its own queues, so a rack run
/// passes no probes and every value is 0.
fn queue_and_handler_metrics(probes: &[&Probe]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Probe) -> f64| median(&probes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let mut out = vec![
        m("sim.queue.pushes", med(&|p| p.pushes as f64), "count"),
        m("sim.queue.pops", med(&|p| p.pops as f64), "count"),
        m(
            "sim.queue.max_pending",
            med(&|p| p.max_pending as f64),
            "count",
        ),
        m("sim.queue.self_s", med(&|p| p.queue_ns as f64 / 1e9), "s"),
        m(
            "sim.queue.ns_per_op",
            med(&|p| p.queue_ns as f64 / (p.pushes + p.pops).max(1) as f64),
            "ns",
        ),
    ];
    for (k, name) in HANDLERS.iter().enumerate().take(HANDLERS.len() - 1) {
        let count = med(&|p| p.handle_count[k] as f64);
        let self_ns = med(&|p| p.handle_self_ns[k] as f64);
        out.extend([
            m(format!("{name}.count"), count, "count"),
            m(format!("{name}.self_s"), self_ns / 1e9, "s"),
            m(
                format!("{name}.ns_per_event"),
                if count > 0.0 { self_ns / count } else { 0.0 },
                "ns",
            ),
        ]);
    }
    out
}

/// The protection-engine, device, Xen and memory counts.
fn count_metrics(c: &LayerCounts) -> Vec<Metric> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let count = |name: &str, v: u64| m(name, v as f64, "count");
    vec![
        count("core.protection.hypercalls", c.hypercalls),
        count(
            "core.protection.descriptors_enqueued",
            c.descriptors_enqueued,
        ),
        count("core.protection.pages_pinned", c.pages_pinned),
        count("core.protection.rejections", c.rejections),
        m(
            "core.protection.accept_ratio",
            ratio(
                c.descriptors_enqueued,
                c.descriptors_enqueued + c.rejections,
            ),
            "ratio",
        ),
        m(
            "core.protection.descriptors_per_hypercall",
            ratio(c.descriptors_enqueued, c.hypercalls),
            "ratio",
        ),
        count("ricenic.seqnum_checks", c.seqnum_checks),
        count("ricenic.vector_ring_dmas", c.vector_ring_dmas),
        count("ricenic.interrupts", c.ricenic_interrupts),
        count("ricenic.rx_dropped", c.ricenic_rx_dropped),
        count("ricenic.faults", c.ricenic_faults),
        count("nic.interrupts", c.nic_interrupts),
        count("nic.rx_dropped", c.nic_rx_dropped),
        count("xen.sched.switches", c.sched_switches),
        count("xen.chan.page_flips", c.page_flips),
        count("xen.chan.grant_maps", c.grant_maps),
        count("xen.guest_virqs", c.guest_virqs),
        count("xen.driver_virqs", c.driver_virqs),
        count("mem.outstanding_pins", c.outstanding_pins),
    ]
}

/// The `rack.*` metrics, medians over traced rack runs (all 0 on a
/// single-host workload, which passes no runs).
fn rack_metrics(runs: &[&TracedRackRun], build_s: f64, jobs: usize) -> Vec<Metric> {
    let med =
        |f: &dyn Fn(&TracedRackRun) -> f64| median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let host_epochs = |r: &TracedRackRun| (r.report.epochs * u64::from(r.report.hosts)) as f64;
    let rounds: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.round_us.iter().copied())
        .collect();
    vec![
        m("rack.build_s", build_s, "s"),
        m("rack.epochs", med(&|r| r.report.epochs as f64), "count"),
        m(
            "rack.host_epochs_idle",
            med(&|r| r.idle_host_epochs as f64),
            "count",
        ),
        m(
            "rack.host_epochs_idle_pct",
            med(&|r| r.idle_host_epochs as f64 / host_epochs(r) * 100.0),
            "%",
        ),
        m("rack.round_us_p50", quantile(&rounds, 0.5), "us"),
        m("rack.round_us_p99", quantile(&rounds, 0.99), "us"),
        m("rack.host_step_s", med(&|r| r.host_step_s), "s"),
        m(
            "rack.sync_s",
            med(&|r| (r.run_s - r.host_step_s / jobs as f64).max(0.0)),
            "s",
        ),
        m(
            "rack.switch.forwarded",
            med(&|r| r.report.switch.forwarded as f64),
            "count",
        ),
        m(
            "rack.switch.dropped_unknown",
            med(&|r| r.report.switch.dropped_unknown as f64),
            "count",
        ),
    ]
}
