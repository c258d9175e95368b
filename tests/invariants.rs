//! Property-style tests of the core CDNA invariants, driven over many
//! seeded pseudo-random cases (the repo builds with zero external
//! dependencies, so no property-testing framework).

use cdna_core::{
    BitVectorRing, ContextId, DmaPolicy, InterruptBitVector, ProtectionEngine, SeqChecker,
    SeqStamper, TxRequest, VectorPort,
};
use cdna_mem::{BufferSlice, DomainId, PhysMem};
use cdna_net::{FlowId, MacAddr};
use cdna_nic::{DescFlags, FrameMeta, RingTable};
use cdna_sim::SimRng;

const CASES: u64 = 150;

/// A checker accepts any prefix of a stamper's stream and rejects any
/// single substituted value.
#[test]
fn seqnum_accepts_stream_rejects_substitution() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x5E0 ^ case);
        let modulus = 1u32 << rng.range_u64(2..12);
        let len = rng.range_u64(1..500) as usize;
        let corrupt_at = rng.range_u64(0..500) as usize % len;
        let delta = rng.range_u64(1..100) as u32;

        let mut stamper = SeqStamper::new(modulus);
        let stream: Vec<u32> = (0..len).map(|_| stamper.next()).collect();

        let mut checker = SeqChecker::new(modulus);
        for (i, &v) in stream.iter().enumerate() {
            let v = if i == corrupt_at {
                (v + (delta % (modulus - 1)) + 1) % modulus
            } else {
                v
            };
            let result = checker.check(v);
            if i < corrupt_at {
                assert!(result.is_ok());
            } else if i == corrupt_at {
                assert!(result.is_err(), "corruption accepted at {i} (case {case})");
                break;
            }
        }
    }
}

/// A one-lap-stale replay is detected iff the sequence space is at
/// least twice the ring size (the paper's aliasing rule).
#[test]
fn stale_lap_detection_follows_aliasing_rule() {
    for ring_pow in 2u32..8 {
        for extra_pow in 0u32..3 {
            let ring_size = 1u32 << ring_pow;
            let modulus = ring_size << extra_pow; // 1x, 2x, or 4x ring size
            let mut stamper = SeqStamper::new(modulus);
            let mut checker = SeqChecker::new(modulus);
            let first_lap: Vec<u32> = (0..ring_size).map(|_| stamper.next()).collect();
            for &v in &first_lap {
                checker.check(v).unwrap();
            }
            let stale = first_lap[0];
            let detected = checker.check(stale).is_err();
            let rule_satisfied = modulus >= 2 * ring_size;
            assert_eq!(
                detected, rule_satisfied,
                "ring {ring_size}, modulus {modulus}: detected={detected}"
            );
        }
    }
}

/// The vector port + ring never lose a context update, regardless of
/// the interleaving of updates, flushes, and drains.
#[test]
fn interrupt_bit_vectors_never_lose_updates() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xB17 ^ case);
        let n = rng.range_u64(1..200) as usize;
        let ops: Vec<(u8, u8)> = (0..n)
            .map(|_| (rng.range_u64(0..3) as u8, rng.range_u64(0..32) as u8))
            .collect();
        let ring_pow = rng.range_u64(1..5) as u32;

        let mut port = VectorPort::new();
        let mut ring = BitVectorRing::new(1 << ring_pow);
        let mut noted = InterruptBitVector::EMPTY;
        let mut seen = InterruptBitVector::EMPTY;
        for (op, ctx) in ops {
            match op {
                0 => {
                    port.note_update(ContextId(ctx));
                    noted.set(ContextId(ctx));
                }
                1 => {
                    let _ = port.flush(&mut ring);
                }
                _ => {
                    seen.merge(ring.drain());
                }
            }
        }
        // Final drain after flushing whatever remains.
        let _ = port.flush(&mut ring);
        seen.merge(ring.drain());
        let _ = port.flush(&mut ring);
        seen.merge(ring.drain());
        assert_eq!(seen, noted, "lost or phantom updates (case {case})");
    }
}

/// After every enqueue/reap interleaving, outstanding pins equal the
/// number of unreaped descriptors, and a full reap releases all pins.
#[test]
fn pins_track_outstanding_descriptors() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x419 ^ case);
        let n = rng.range_u64(1..10) as usize;
        let batches: Vec<usize> = (0..n).map(|_| rng.range_u64(1..8) as usize).collect();

        let mut mem = PhysMem::new(4096);
        let mut rings = RingTable::new();
        let mut engine = ProtectionEngine::new();
        let guest = DomainId::guest(0);
        let ctx = engine
            .assign_context(guest, DmaPolicy::Validated, 256, &mut rings, &mut mem)
            .unwrap();

        let mut enqueued = 0u64;
        let mut consumed = 0u64;
        for batch in batches {
            let reqs: Vec<TxRequest> = (0..batch)
                .map(|_| {
                    let page = mem.alloc(guest).unwrap();
                    TxRequest {
                        buf: BufferSlice::new(page.base_addr(), 1514),
                        flags: DescFlags::END_OF_PACKET,
                        meta: FrameMeta {
                            dst: MacAddr::for_peer(0),
                            src: MacAddr::for_context(0, ctx.0),
                            tcp_payload: 1460,
                            flow: FlowId::new(0, 0),
                            seq: 0,
                        },
                    }
                })
                .collect();
            // The NIC has consumed half of what's outstanding.
            consumed += (enqueued - consumed) / 2;
            engine
                .enqueue_tx(ctx, guest, &reqs, consumed, &mut rings, &mut mem)
                .unwrap();
            enqueued += batch as u64;
            assert_eq!(
                mem.outstanding_pins(),
                enqueued - consumed,
                "pins after enqueue (case {case})"
            );
        }
        // Everything completes.
        engine.reap(ctx, enqueued, 0, &mut mem).unwrap();
        assert_eq!(mem.outstanding_pins(), 0);
    }
}

/// Memory conservation: pages never appear or vanish across any mix
/// of allocation, free, transfer, pin and unpin.
#[test]
fn page_conservation() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xC09 ^ case);
        let n = rng.range_u64(1..300) as usize;
        let ops: Vec<(u8, u16)> = (0..n)
            .map(|_| (rng.range_u64(0..5) as u8, rng.range_u64(0..4) as u16))
            .collect();

        let total = 64u32;
        let mut mem = PhysMem::new(total);
        let mut owned: Vec<cdna_mem::PageId> = Vec::new();
        for (op, dom) in ops {
            let dom = DomainId::guest(dom);
            match op {
                0 => {
                    if let Ok(p) = mem.alloc(dom) {
                        owned.push(p);
                    }
                }
                1 => {
                    if let Some(p) = owned.pop() {
                        let owner = mem.info(p).unwrap().owner.unwrap();
                        let _ = mem.free(owner, p);
                    }
                }
                2 => {
                    if let Some(&p) = owned.last() {
                        let owner = mem.info(p).unwrap().owner.unwrap();
                        let _ = mem.transfer(p, owner, dom);
                    }
                }
                3 => {
                    if let Some(&p) = owned.last() {
                        mem.pin(p).unwrap();
                    }
                }
                _ => {
                    if let Some(&p) = owned.last() {
                        let _ = mem.unpin(p);
                    }
                }
            }
            // Invariant: free + owned-by-someone == total.
            let owned_count: u32 = (0..5u16).map(|g| mem.owned_by(DomainId::guest(g))).sum();
            let pending = total - mem.free_pages() - owned_count;
            assert!(
                pending <= owned.len() as u32,
                "unaccounted pages (case {case}): free={} owned={}",
                mem.free_pages(),
                owned_count
            );
        }
    }
}

#[test]
fn workload_balances_connections_exactly() {
    use cdna_system::GuestWorkload;
    let mut w = GuestWorkload::new(0, 7, 2);
    for _ in 0..7 * 100 {
        let u = w.next_tx();
        w.commit_tx(u, 1460);
    }
    assert_eq!(w.tx_imbalance(), 0, "paper §5.1: balanced connections");
}

/// Metamorphic: a NIC that carries none of a guest's connections is
/// idle hardware. Adding one must not change what the guest sends or
/// where its CPU time goes (it once kept the guest runnable forever,
/// driving idle time to zero).
#[test]
fn a_nic_without_flows_changes_nothing() {
    use cdna_system::{run_experiment, Direction, IoModel, NicKind, TestbedConfig};
    for io in [
        IoModel::Native {
            nic: NicKind::Intel,
        },
        IoModel::Cdna {
            policy: DmaPolicy::Validated,
        },
    ] {
        let run = |nics: u8| {
            let mut cfg = TestbedConfig::new(io, 1, Direction::Transmit)
                .quick()
                .with_nics(nics);
            cfg.conns_per_guest = 2;
            run_experiment(cfg)
        };
        let (two, three) = (run(2), run(3));
        assert_eq!(two.packets, three.packets, "{io:?}");
        assert_eq!(two.throughput_mbps, three.throughput_mbps, "{io:?}");
        let fracs = |r: &cdna_system::RunReport| {
            let p = &r.profile;
            [
                p.hypervisor_frac,
                p.driver_kernel_frac,
                p.driver_user_frac,
                p.guest_kernel_frac,
                p.guest_user_frac,
                p.idle_frac,
            ]
        };
        for (a, b) in fracs(&two).into_iter().zip(fracs(&three)) {
            assert!(
                (a - b).abs() <= 0.01,
                "{io:?}: {:?} vs {:?}",
                two.profile,
                three.profile
            );
        }
    }
}
