//! Rack runs through `RackWorld::run_with_host_hook`, and the empty-round
//! `par::run_rounds` probe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cdna_rack::{RackConfig, RackReport, RackWorld};
use cdna_sim::{par, SimTime};

use crate::layers::LayerCounts;

/// Epoch geometry of a rack configuration, computed the way
/// `RackWorld::run_with_host_hook` computes it.
#[derive(Debug, Clone, Copy)]
struct Epochs {
    epoch_ns: u64,
    end_ns: u64,
    count: u64,
}

impl Epochs {
    fn of(cfg: &RackConfig) -> Self {
        let end_ns = (cfg.warmup + cfg.measure).as_ns();
        let epoch_ns = cfg.switch.latency.as_ns().max(1);
        Epochs {
            epoch_ns,
            end_ns,
            count: end_ns.div_ceil(epoch_ns),
        }
    }

    /// The simulated time host stepping reaches in `round`.
    fn deadline(&self, round: u64) -> SimTime {
        SimTime::from_ns(((round + 1) * self.epoch_ns).min(self.end_ns))
    }
}

fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// One finished untraced rack run.
#[derive(Debug)]
pub struct RackRun {
    /// The rack report.
    pub report: RackReport,
    /// Wall seconds of `run_with_host_hook` (prime, epochs, reports).
    pub run_s: f64,
    /// Host µs of each [`SLICE_NS`] simulated slice, from host-0 hook
    /// timestamps at the slice boundaries.
    pub slice_us: Vec<f64>,
}

/// Simulated length of one timed rack slice. A rack run is short (150
/// simulated ms), so slices are a tenth of a millisecond to give enough
/// samples for a 99th percentile.
pub const SLICE_NS: u64 = 100_000;

/// Builds and runs the rack on `jobs` workers; the hook only stamps the
/// wall clock when host 0 starts an epoch on a slice boundary.
pub fn run_untraced(cfg: RackConfig, jobs: usize) -> RackRun {
    let ep = Epochs::of(&cfg);
    let rounds_per_slice = (SLICE_NS / ep.epoch_ns).max(1);
    let rack = RackWorld::build(cfg);
    let stamps: Vec<AtomicU64> = (0..ep.count.div_ceil(rounds_per_slice))
        .map(|_| AtomicU64::new(0))
        .collect();
    let base = Instant::now();
    let report = rack.run_with_host_hook(jobs, |host, round, _| {
        if host == 0 && round % rounds_per_slice == 0 {
            stamps[(round / rounds_per_slice) as usize].store(ns_since(base), Ordering::Relaxed);
        }
    });
    let end = ns_since(base);

    // Sample k spans boundary k to k+1; boundary 0 is the call itself,
    // so prime lands in the first sample and report assembly in the last.
    let mut bounds: Vec<u64> = stamps.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    bounds[0] = 0;
    bounds.push(end);
    let slice_us = bounds
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e3)
        .collect();
    RackRun {
        report,
        run_s: end as f64 / 1e9,
        slice_us,
    }
}

/// What the traced hook records for one host.
#[derive(Debug, Default)]
struct HostProbe {
    step_ns: u64,
    idle_epochs: u64,
    spans: Vec<RackSpan>,
    counts: LayerCounts,
}

/// One host-epoch step: host ns since the run started.
#[derive(Debug, Clone, Copy)]
pub struct RackSpan {
    /// Host index.
    pub host: usize,
    /// Epoch round (the span's parent).
    pub round: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Host-epoch spans kept per host (aggregates count every epoch).
const SPANS_PER_HOST: usize = 5_000;

/// One finished traced rack run.
#[derive(Debug)]
pub struct TracedRackRun {
    /// The rack report (must equal the untraced run's).
    pub report: RackReport,
    /// Wall seconds of `run_with_host_hook`.
    pub run_s: f64,
    /// Host-epochs in which a host processed no event.
    pub idle_host_epochs: u64,
    /// Wall seconds summed over every host-epoch step.
    pub host_step_s: f64,
    /// Host µs per epoch round, from host-0 start stamps.
    pub round_us: Vec<f64>,
    /// Host-epoch spans, host by host.
    pub spans: Vec<RackSpan>,
    /// Per-layer work counts summed over hosts.
    pub counts: LayerCounts,
}

/// Runs the rack with a hook that performs each host's epoch itself, so
/// the step can be timed: the hook calls `run_until` to the epoch's end,
/// and the rack's own `run_until` to the same deadline then finds nothing
/// due. The host sees the same calls in the same order either way.
pub fn run_traced(cfg: RackConfig, jobs: usize) -> TracedRackRun {
    let ep = Epochs::of(&cfg);
    let hosts = cfg.hosts as usize;
    let rack = RackWorld::build(cfg);
    let probes: Vec<Mutex<HostProbe>> = (0..hosts).map(|_| Mutex::default()).collect();
    let round_start: Vec<AtomicU64> = (0..ep.count).map(|_| AtomicU64::new(0)).collect();
    let base = Instant::now();
    let report = rack.run_with_host_hook(jobs, |host, round, sim| {
        let start = ns_since(base);
        if host == 0 {
            round_start[round as usize].store(start, Ordering::Relaxed);
        }
        let events = sim.run_until(ep.deadline(round));
        let end = ns_since(base);
        let mut p = probes[host].lock().expect("host probe lock poisoned");
        p.step_ns += end - start;
        p.idle_epochs += u64::from(events == 0);
        if p.spans.len() < SPANS_PER_HOST {
            p.spans.push(RackSpan {
                host,
                round,
                start,
                end,
            });
        }
        if round + 1 == ep.count {
            p.counts = LayerCounts::read(sim.world_mut());
        }
    });
    let run_ns = ns_since(base);

    let starts: Vec<u64> = round_start
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    let round_us = starts
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e3)
        .collect();
    let mut out = TracedRackRun {
        report,
        run_s: run_ns as f64 / 1e9,
        idle_host_epochs: 0,
        host_step_s: 0.0,
        round_us,
        spans: Vec::new(),
        counts: LayerCounts::default(),
    };
    for p in probes {
        let p = p.into_inner().expect("host probe lock poisoned");
        out.idle_host_epochs += p.idle_epochs;
        out.host_step_s += p.step_ns as f64 / 1e9;
        out.spans.extend(p.spans);
        out.counts.add(&p.counts);
    }
    out
}

/// Host ns of one empty `par::run_rounds` round at `jobs` workers over
/// `states` no-op states, timed by calling it directly.
pub fn empty_round_ns(jobs: usize, states: usize) -> f64 {
    let rounds: u64 = if jobs > 1 { 4_000 } else { 2_000_000 };
    let t0 = Instant::now();
    par::run_rounds(
        jobs,
        vec![0u8; states],
        |round, _| std::hint::black_box(round) < rounds,
        |_, _, s| {
            std::hint::black_box(s);
        },
    );
    t0.elapsed().as_nanos() as f64 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{rack_outcome, Config, Workload};

    fn short() -> RackConfig {
        let Config::Rack { mut cfg, .. } = Workload::RackXhost.config(3) else {
            panic!("not a rack workload");
        };
        cfg.warmup = SimTime::from_ms(1);
        cfg.measure = SimTime::from_ms(2);
        cfg
    }

    #[test]
    fn hooked_runs_reproduce_the_plain_rack_run() {
        let want = cdna_rack::run_rack(short(), 1);
        for jobs in [1, 2] {
            let plain = run_untraced(short(), jobs);
            assert_eq!(rack_outcome(&plain.report), rack_outcome(&want));
            assert_eq!(plain.report.to_json(), want.to_json());
            assert_eq!(plain.slice_us.len(), 30);
            let traced = run_traced(short(), jobs);
            assert_eq!(traced.report.to_json(), want.to_json());
            assert_eq!(traced.round_us.len() as u64, want.epochs - 1);
            assert!(traced.idle_host_epochs < want.epochs * 4);
        }
    }

    #[test]
    fn empty_round_probe_runs() {
        assert!(empty_round_ns(1, 4) > 0.0);
    }
}
