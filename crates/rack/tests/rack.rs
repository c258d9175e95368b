//! Differential tests for the rack: worker-count equivalence and the
//! 1-host degeneration to a bare `SystemWorld` run.

use cdna_rack::{run_rack, RackConfig, RackWorkload};
use cdna_sim::SimTime;
use cdna_system::{run_experiment, ConfigError};

/// A rack small enough for debug-mode CI but with real cross-host
/// traffic.
fn small_xhost(hosts: u8, guests: u16) -> RackConfig {
    let mut cfg = RackConfig::new(hosts, guests, RackWorkload::XHost)
        .with_seed(7)
        .with_shadow_check();
    cfg.warmup = SimTime::from_ms(8);
    cfg.measure = SimTime::from_ms(40);
    cfg
}

#[test]
fn jobs_one_and_many_are_byte_identical() {
    let a = run_rack(small_xhost(3, 2), 1).to_json();
    let b = run_rack(small_xhost(3, 2), 3).to_json();
    assert_eq!(a, b, "rack report depends on worker count");
}

/// Host counts that are not a multiple of the worker count give the
/// workers unequal shares, so one waits on the other every round.
#[test]
fn uneven_host_shares_are_byte_identical_to_jobs_one() {
    for (hosts, guests, jobs) in [(3, 12, 2), (4, 6, 3)] {
        let mut cfg = small_xhost(hosts, guests);
        cfg.warmup = SimTime::from_ms(3);
        cfg.measure = SimTime::from_ms(12);
        assert_eq!(
            run_rack(cfg.clone(), 1).to_json(),
            run_rack(cfg, jobs).to_json(),
            "{hosts}h x {guests}g depends on jobs {jobs}"
        );
    }
}

#[test]
fn unrunnable_racks_name_the_bad_field() {
    let ok = RackConfig::new(2, 4, RackWorkload::XHost);
    assert_eq!(ok.validate(), Ok(()));
    let zero = |field| Err(ConfigError::Zero { field });
    assert_eq!(
        RackConfig::new(0, 4, RackWorkload::XHost).validate(),
        zero("hosts")
    );
    assert_eq!(
        RackConfig::new(2, 0, RackWorkload::TxPeer).validate(),
        zero("guests")
    );
    let mut no_latency = ok.clone();
    no_latency.switch.latency = SimTime::ZERO;
    assert_eq!(no_latency.validate(), zero("switch.latency"));
    let mut no_serialization = ok;
    no_serialization.switch.ns_per_byte = 0;
    assert_eq!(no_serialization.validate(), zero("switch.ns_per_byte"));
    assert!(matches!(
        RackConfig::new(2, 32, RackWorkload::XHost).validate(),
        Err(ConfigError::TooLarge {
            field: "guests",
            ..
        })
    ));
}

/// A switch that delivers within the epoch after departure breaks the
/// one-round lag; the rack must stop rather than reorder events.
#[test]
#[should_panic(expected = "rack lookahead violated")]
fn a_switch_without_lookahead_trips_the_inbox_assertion() {
    let mut cfg = small_xhost(2, 1);
    cfg.switch.latency = SimTime::ZERO;
    cfg.switch.ns_per_byte = 0;
    let _ = run_rack(cfg, 1);
}

#[test]
fn cross_host_flows_actually_cross() {
    let r = run_rack(small_xhost(2, 2), 2);
    assert!(r.switch.forwarded > 0, "no frames crossed the switch");
    assert_eq!(r.switch.dropped_unknown, 0, "switch lost frames");
    assert_eq!(r.total_faults(), 0, "protection/shadow faults");
    for (h, host) in r.per_host.iter().enumerate() {
        assert!(
            host.throughput_mbps > 0.0,
            "host {h} moved no measured traffic"
        );
    }
}

#[test]
fn one_host_rack_matches_bare_system_world() {
    let mut rack_cfg = RackConfig::new(1, 2, RackWorkload::TxPeer).with_seed(11);
    rack_cfg.warmup = SimTime::from_ms(4);
    rack_cfg.measure = SimTime::from_ms(12);
    let host_cfg = rack_cfg.host_config(0);

    let rack = run_rack(rack_cfg, 1);
    let bare = run_experiment(host_cfg);

    // Epoch-chunked stepping with nothing injected processes the exact
    // same event sequence as one uninterrupted run: the reports must be
    // byte-identical, not merely close.
    assert_eq!(rack.per_host.len(), 1);
    assert_eq!(rack.per_host[0].to_json(), bare.to_json());
    assert_eq!(rack.switch.forwarded, 0);
}

#[test]
fn rack_scenario_is_reproducible() {
    let a = run_rack(small_xhost(2, 1), 2).to_json();
    let b = run_rack(small_xhost(2, 1), 2).to_json();
    assert_eq!(a, b);
}

/// A scaled-down version of the acceptance scenario (16 hosts x 24
/// guests, cross-host flows, shadow checker on): short window so debug
/// CI stays fast, full release window covered by the `rack` binary and
/// the `rack-smoke` CI job.
#[test]
fn sixteen_hosts_twentyfour_guests_deterministic_and_clean() {
    let mut cfg = RackConfig::new(16, 24, RackWorkload::XHost)
        .with_seed(42)
        .with_shadow_check();
    cfg.warmup = SimTime::from_ms(3);
    cfg.measure = SimTime::from_ms(16);

    let a = run_rack(cfg.clone(), 1);
    let b = run_rack(cfg, 4);
    assert_eq!(a.to_json(), b.to_json(), "16x24 rack depends on jobs");
    assert_eq!(a.total_faults(), 0, "faults on some host");
    assert!(a.switch.forwarded > 0);
    assert_eq!(a.per_host.len(), 16);
}
