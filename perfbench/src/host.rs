//! Single-host runs: an untimed-inside run stepped in 1 ms slices, and
//! the traced run built on the `probe` wrappers.

use std::time::Instant;

use cdna_sim::{SimTime, Simulation};
use cdna_system::{report_from_world, RunReport, SystemWorld, TestbedConfig};

use crate::layers::LayerCounts;
use crate::probe::{self, Probe, TimedQueue, TimedWorld};

/// One finished untraced single-host run.
#[derive(Debug)]
pub struct HostRun {
    /// The run's report.
    pub report: RunReport,
    /// Wall seconds simulating warm-up plus the measurement window.
    pub run_s: f64,
    /// Host µs of each 1 ms simulated slice.
    pub slice_us: Vec<f64>,
}

/// The simulated slice ends: every whole millisecond, then the end.
pub fn slice_ends(end: SimTime) -> Vec<SimTime> {
    let ms = end.as_ns() / 1_000_000;
    let mut ends: Vec<SimTime> = (1..=ms).map(SimTime::from_ms).collect();
    if ends.last() != Some(&end) {
        ends.push(end);
    }
    ends
}

/// `SystemWorld::build`, then the simulation with its primed events:
/// the set-up `run_experiment` does before simulating.
pub fn set_up(cfg: TestbedConfig) -> Simulation<SystemWorld> {
    let queue = cfg.queue;
    let mut sim = Simulation::with_queue(SystemWorld::build(cfg), queue);
    for (t, e) in sim.world_mut().prime() {
        sim.schedule(t, e);
    }
    sim
}

/// Runs `cfg` exactly as `run_experiment` does, but steps `run_until` in
/// 1 ms slices and times each slice from outside.
pub fn run_untraced(cfg: TestbedConfig) -> HostRun {
    let end = cfg.warmup + cfg.measure;
    let mut sim = set_up(cfg);

    let ends = slice_ends(end);
    let mut slice_us = Vec::with_capacity(ends.len());
    let run0 = Instant::now();
    let mut last = run0;
    for at in ends {
        sim.run_until(at);
        let now = Instant::now();
        slice_us.push((now - last).as_secs_f64() * 1e6);
        last = now;
    }
    let run_s = (last - run0).as_secs_f64();

    let events = sim.events_processed();
    let mut world = sim.into_world();
    let report = report_from_world(&mut world, events, false);
    HostRun {
        report,
        run_s,
        slice_us,
    }
}

/// One finished traced single-host run.
#[derive(Debug)]
pub struct TracedHostRun {
    /// The run's report (must equal the untraced run's).
    pub report: RunReport,
    /// Wall seconds simulating, with every layer call timed.
    pub run_s: f64,
    /// Everything the wrappers recorded.
    pub probe: Probe,
    /// Per-layer work counts.
    pub counts: LayerCounts,
}

/// The same run through the timing wrappers: `SystemWorld::build`,
/// `prime`, `Simulation::with_event_queue` over [`TimedWorld`] and
/// [`TimedQueue`], 1 ms `run_until` slices, `report_from_world`.
pub fn run_traced(cfg: TestbedConfig) -> TracedHostRun {
    let end = cfg.warmup + cfg.measure;
    probe::reset();
    let (mut sim, _) = probe::span("setup", || {
        let (mut world, _) = probe::span("system.build", || SystemWorld::build(cfg));
        let (primed, _) = probe::span("system.prime", || world.prime());
        let mut sim = Simulation::with_event_queue(
            TimedWorld { inner: world },
            Box::new(TimedQueue::default()),
        );
        for (t, e) in primed {
            sim.schedule(t, e);
        }
        sim
    });
    let mut run_ns = 0;
    for at in slice_ends(end) {
        run_ns += probe::slice(|| sim.run_until(at)).1;
    }
    let events = sim.events_processed();
    let mut world = sim.into_world().inner;
    let (report, _) = probe::span("system.report", || {
        report_from_world(&mut world, events, false)
    });
    let counts = LayerCounts::read(&mut world);
    TracedHostRun {
        report,
        run_s: run_ns as f64 / 1e9,
        probe: probe::take(),
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{host_outcome, Config, Workload};
    use cdna_system::run_experiment;

    fn short(w: Workload) -> TestbedConfig {
        let Config::Host(mut cfg) = w.config(7) else {
            panic!("{} is not a single-host workload", w.name());
        };
        cfg.warmup = SimTime::from_ms(5);
        cfg.measure = SimTime::from_us(15_500);
        cfg
    }

    #[test]
    fn stepped_and_wrapped_runs_reproduce_run_experiment() {
        for w in [Workload::CdnaTx24g, Workload::SoftvirtRx24g] {
            let cfg = short(w);
            let want = format!("{:?}", run_experiment(cfg.clone()));
            let stepped = run_untraced(cfg.clone());
            assert_eq!(format!("{:?}", stepped.report), want, "{}", w.name());
            // 20.5 ms: twenty whole slices plus the remainder.
            assert_eq!(stepped.slice_us.len(), 21);
            let traced = run_traced(cfg);
            assert_eq!(format!("{:?}", traced.report), want, "{}", w.name());
            assert_eq!(host_outcome(&traced.report), host_outcome(&stepped.report));
            let p = &traced.probe;
            assert_eq!(p.pops, stepped.report.events_processed);
            assert_eq!(p.handle_count.iter().sum::<u64>(), p.pops);
            assert!(p.covered_ns <= p.slice_ns);
        }
    }
}
