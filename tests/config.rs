//! Configuration validation: inputs the command-line front ends accept
//! but the testbed cannot build are rejected with a typed error that
//! names the bad field, while the paper's configurations pass unchanged.

use cdna_core::DmaPolicy;
use cdna_rack::{RackConfig, RackWorkload};
use cdna_system::{run_experiment, ConfigError, Direction, IoModel, NicKind, TestbedConfig};

fn cdna(guests: u16) -> TestbedConfig {
    TestbedConfig::new(
        IoModel::Cdna {
            policy: DmaPolicy::Validated,
        },
        guests,
        Direction::Transmit,
    )
}

#[test]
fn unbuildable_configs_name_the_bad_field() {
    // `run cdna 32 tx`: one guest more than the assignable contexts.
    assert_eq!(
        cdna(32).validate(),
        Err(ConfigError::TooLarge {
            field: "guests",
            value: 32,
            max: 31,
            why: "each CDNA guest needs one of the NIC's assignable contexts",
        })
    );
    // `rack --hosts 2 --guests 32`: every host is a 32-guest CDNA box.
    let rack = RackConfig::new(2, 32, RackWorkload::XHost);
    assert!(matches!(
        rack.host_config(0).validate(),
        Err(ConfigError::TooLarge {
            field: "guests",
            ..
        })
    ));
    // `run cdna 1 tx --nics 0` and `--conns 0`.
    assert_eq!(
        cdna(1).with_nics(0).validate(),
        Err(ConfigError::Zero { field: "nics" })
    );
    let mut no_conns = cdna(1);
    no_conns.conns_per_guest = 0;
    let err = no_conns.validate().map_err(|e| e.to_string());
    assert_eq!(err, Err("`conns_per_guest` must be at least 1".to_string()));
}

#[test]
fn paper_configs_validate_and_build_unchanged() {
    let paper = [
        TestbedConfig::new(
            IoModel::Native {
                nic: NicKind::Intel,
            },
            1,
            Direction::Receive,
        )
        .with_nics(6),
        TestbedConfig::new(
            IoModel::XenBridged {
                nic: NicKind::RiceNic,
            },
            24,
            Direction::Receive,
        ),
        cdna(24),
        cdna(31),
    ];
    for cfg in paper {
        assert_eq!(cfg.validate(), Ok(()), "{}", cfg.io_model.label());
    }
    assert_eq!(
        RackConfig::new(16, 24, RackWorkload::XHost)
            .host_config(15)
            .validate(),
        Ok(())
    );
    // Validation only reads the config: the 24-guest Figure 3 endpoint
    // still builds and runs as before.
    let report = run_experiment(cdna(24).quick());
    assert_eq!(report.protection_faults, 0);
    assert!(
        report.throughput_mbps > 1800.0,
        "{}",
        report.throughput_mbps
    );
}
