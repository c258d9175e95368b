//! The three workloads and their recorded reference outcomes.

use std::fmt::Write as _;

use cdna_core::DmaPolicy;
use cdna_rack::{RackConfig, RackReport, RackWorkload};
use cdna_system::{Direction, IoModel, NicKind, RunReport, TestbedConfig};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One host, CDNA/RiceNIC, transmit, 24 guests, 2 NICs (Figure 3).
    CdnaTx24g,
    /// One host, Xen software path on Intel NICs, receive, 24 guests
    /// (Figure 4).
    SoftvirtRx24g,
    /// 4 hosts × 8 guests on the cross-host ring, 2 rack workers.
    RackXhost,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CdnaTx24g,
        Workload::SoftvirtRx24g,
        Workload::RackXhost,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CdnaTx24g => "cdna-tx-24g",
            Workload::SoftvirtRx24g => "softvirt-rx-24g",
            Workload::RackXhost => "rack-xhost-4h8g-j2",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's configuration at `seed`. Single-host workloads use
    /// the paper-table window (200 ms warm-up, 800 ms measured); the rack
    /// uses the short one (30 + 120 ms), since at 2 workers one simulated
    /// millisecond is 500 barrier rounds.
    pub fn config(self, seed: u64) -> Config {
        let host =
            |io, dir| Config::Host(TestbedConfig::new(io, 24, dir).with_nics(2).with_seed(seed));
        match self {
            Workload::CdnaTx24g => host(
                IoModel::Cdna {
                    policy: DmaPolicy::Validated,
                },
                Direction::Transmit,
            ),
            Workload::SoftvirtRx24g => host(
                IoModel::XenBridged {
                    nic: NicKind::Intel,
                },
                Direction::Receive,
            ),
            Workload::RackXhost => Config::Rack {
                cfg: RackConfig::new(4, 8, RackWorkload::XHost)
                    .quick()
                    .with_seed(seed),
                jobs: 2,
            },
        }
    }

    /// The paper's figure for this workload's throughput, when the paper
    /// has one.
    pub fn paper_mbps(self) -> Option<f64> {
        match self {
            Workload::CdnaTx24g => Some(cdna_bench::paper::FIG3_CDNA_TX),
            Workload::SoftvirtRx24g => Some(cdna_bench::paper::FIG4_XEN_RX_24),
            Workload::RackXhost => None,
        }
    }

    /// The recorded reference outcome (see `reference/`).
    pub fn reference(self) -> &'static str {
        match self {
            Workload::CdnaTx24g => include_str!("../reference/cdna-tx-24g.txt"),
            Workload::SoftvirtRx24g => include_str!("../reference/softvirt-rx-24g.txt"),
            Workload::RackXhost => include_str!("../reference/rack-xhost-4h8g-j2.txt"),
        }
    }
}

/// A workload's simulated scenario at one seed.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one per run; cloned, never stored in bulk
pub enum Config {
    /// One `SystemWorld`, stepped on the calling thread.
    Host(TestbedConfig),
    /// A `RackWorld` stepped on `jobs` workers.
    Rack {
        /// The rack scenario.
        cfg: RackConfig,
        /// Worker threads.
        jobs: usize,
    },
}

impl Config {
    /// The same scenario at another seed.
    pub fn reseeded(&self, seed: u64) -> Config {
        let mut c = self.clone();
        match &mut c {
            Config::Host(h) => h.seed = seed,
            Config::Rack { cfg, .. } => cfg.seed = seed,
        }
        c
    }

    /// The scenario's seed.
    pub fn seed(&self) -> u64 {
        match self {
            Config::Host(h) => h.seed,
            Config::Rack { cfg, .. } => cfg.seed,
        }
    }

    /// The same scenario over another simulated window.
    #[cfg(test)]
    pub fn with_window(mut self, warmup: cdna_sim::SimTime, measure: cdna_sim::SimTime) -> Config {
        match &mut self {
            Config::Host(h) => (h.warmup, h.measure) = (warmup, measure),
            Config::Rack { cfg, .. } => (cfg.warmup, cfg.measure) = (warmup, measure),
        }
        self
    }

    /// Simulated seconds one run covers (warm-up plus window).
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Config::Host(h) => (h.warmup + h.measure).as_secs_f64(),
            Config::Rack { cfg, .. } => (cfg.warmup + cfg.measure).as_secs_f64(),
        }
    }

    /// Worker threads.
    pub fn jobs(&self) -> usize {
        match self {
            Config::Host(_) => 1,
            Config::Rack { jobs, .. } => *jobs,
        }
    }

    /// The configuration of one host (host 0 of a rack).
    pub fn first_host(&self) -> TestbedConfig {
        match self {
            Config::Host(h) => h.clone(),
            Config::Rack { cfg, .. } => cfg.host_config(0),
        }
    }
}

/// The second seed every run also simulates, to show that outcomes do
/// not depend on the seed.
pub fn second_seed(seed: u64) -> u64 {
    seed ^ 0x5eed_5eed_5eed_5eed
}

/// The deterministic outcome of a single-host run as text: events,
/// throughput, the six profile fractions, faults, drops and per-guest
/// Mb/s. Floats are printed in full round-trip precision, so equal text
/// means bit-identical values.
pub fn host_outcome(r: &RunReport) -> String {
    let p = &r.profile;
    let mut s = String::new();
    let _ = writeln!(s, "label {}", r.label);
    let _ = writeln!(s, "events {}", r.events_processed);
    let _ = writeln!(s, "packets {}", r.packets);
    let _ = writeln!(s, "throughput_mbps {:?}", r.throughput_mbps);
    let _ = writeln!(
        s,
        "profile {:?} {:?} {:?} {:?} {:?} {:?}",
        p.hypervisor_frac,
        p.driver_kernel_frac,
        p.driver_user_frac,
        p.guest_kernel_frac,
        p.guest_user_frac,
        p.idle_frac
    );
    let _ = writeln!(s, "protection_faults {}", r.protection_faults);
    let _ = writeln!(s, "rx_dropped {}", r.rx_dropped);
    let _ = writeln!(s, "nic_interrupts_per_s {:?}", r.nic_interrupts_per_s);
    let guests: Vec<String> = r.per_guest_mbps.iter().map(|m| format!("{m:?}")).collect();
    let _ = writeln!(s, "per_guest_mbps {}", guests.join(" "));
    s
}

/// The deterministic outcome of a rack run: every host's outcome, then
/// the epoch count and switch counters.
pub fn rack_outcome(r: &RackReport) -> String {
    let mut s = String::new();
    for (h, host) in r.per_host.iter().enumerate() {
        let _ = writeln!(s, "[host {h}]");
        s.push_str(&host_outcome(host));
    }
    let _ = writeln!(s, "[rack]");
    let _ = writeln!(s, "epochs {}", r.epochs);
    let sw = &r.switch;
    let _ = writeln!(
        s,
        "switch forwarded {} bytes {} dropped_unknown {} learned {}",
        sw.forwarded, sw.forwarded_bytes, sw.dropped_unknown, sw.learned
    );
    s
}
