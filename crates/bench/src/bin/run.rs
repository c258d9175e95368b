//! Parameterized experiment runner — explore any configuration from the
//! command line.
//!
//! ```sh
//! cargo run --release -p cdna-bench --bin run -- cdna 8 tx
//! cargo run --release -p cdna-bench --bin run -- xen-intel 24 rx --nics 2 --json
//! cargo run --release -p cdna-bench --bin run -- cdna-noprot 1 tx --seed 7
//! cargo run --release -p cdna-bench --bin run -- --trace /tmp/t.json --metrics
//! ```
//!
//! The three positionals default to `cdna 1 tx` when omitted.
//!
//! IO models: `native`, `xen-intel`, `xen-ricenic`, `cdna`, `cdna-iommu`,
//! `cdna-noprot`.
//!
//! `--trace <path>` writes the run as Chrome `trace_event` JSON — open
//! it at <https://ui.perfetto.dev> or `chrome://tracing`. `--metrics`
//! appends the full per-domain counter table to the report. `--shadow`
//! attaches the `cdna_core::shadow` DMA shadow checker (audit results
//! appear in the `global/check/*` counters and as a `shadow_audit`
//! trace instant). A configuration the testbed cannot build (e.g. more
//! CDNA guests than contexts, zero NICs or connections) is reported
//! with the offending field and exits 2.

use cdna_core::DmaPolicy;
use cdna_system::{run_instrumented, Direction, Instrumentation, IoModel, NicKind, TestbedConfig};

/// Ring capacity for `--trace`: large enough to hold the whole
/// measurement window of a quick run; older events fall off first.
const TRACE_CAPACITY: usize = 1 << 20;

fn usage() -> ! {
    eprintln!(
        "usage: run [native|xen-intel|xen-ricenic|cdna|cdna-iommu|cdna-noprot] \
         [guests] [tx|rx] [--nics N] [--seed S] [--conns C] [--json] \
         [--trace PATH] [--metrics] [--shadow]"
    );
    std::process::exit(2);
}

fn parse_io(name: &str) -> Option<IoModel> {
    Some(match name {
        "native" => IoModel::Native {
            nic: NicKind::Intel,
        },
        "xen-intel" => IoModel::XenBridged {
            nic: NicKind::Intel,
        },
        "xen-ricenic" => IoModel::XenBridged {
            nic: NicKind::RiceNic,
        },
        "cdna" => IoModel::Cdna {
            policy: DmaPolicy::Validated,
        },
        "cdna-iommu" => IoModel::Cdna {
            policy: DmaPolicy::Iommu,
        },
        "cdna-noprot" => IoModel::Cdna {
            policy: DmaPolicy::Unprotected,
        },
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Positionals (all optional, defaulting to `cdna 1 tx`) come before
    // the first `--flag`.
    let n_pos = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    if n_pos > 3 {
        eprintln!("too many positional arguments");
        usage();
    }
    let positional = &args[..n_pos];

    let io = match positional.first() {
        Some(name) => parse_io(name).unwrap_or_else(|| {
            eprintln!("unknown io model `{name}`");
            usage();
        }),
        None => IoModel::Cdna {
            policy: DmaPolicy::Validated,
        },
    };
    let guests: u16 = match positional.get(1) {
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
        None => 1,
    };
    let direction = match positional.get(2).map(String::as_str) {
        Some("tx") | None => Direction::Transmit,
        Some("rx") => Direction::Receive,
        Some(other) => {
            eprintln!("unknown direction `{other}`");
            usage();
        }
    };

    let mut cfg = TestbedConfig::new(io, guests, direction);
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    let mut i = n_pos;
    while i < args.len() {
        match args[i].as_str() {
            "--nics" => {
                cfg.nics = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                cfg.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--conns" => {
                cfg.conns_per_guest = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--trace" => {
                trace_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--metrics" => {
                metrics = true;
                i += 1;
            }
            "--shadow" => {
                cfg.shadow_check = true;
                i += 1;
            }
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }

    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    let instr = Instrumentation {
        trace_capacity: trace_path.as_ref().map(|_| TRACE_CAPACITY),
        collect_metrics: metrics,
    };
    let artifacts = run_instrumented(cfg, instr);
    if json {
        println!("{}", artifacts.report.to_json());
    } else {
        println!("{}", artifacts.report);
    }
    if let (Some(path), Some(trace)) = (&trace_path, &artifacts.chrome_trace) {
        std::fs::write(path, trace).unwrap_or_else(|e| {
            eprintln!("cannot write trace to `{path}`: {e}");
            std::process::exit(1);
        });
        eprintln!("trace written to {path} (open at https://ui.perfetto.dev)");
    }
}
