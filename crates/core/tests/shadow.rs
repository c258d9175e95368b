//! Seeded violations for every `DmaShadow` violation class: each test
//! drives the mirror through one illegal transition and asserts that
//! exactly that class fires.

use cdna_core::shadow::{DmaShadow, ShadowDir, ViolationKind};
use cdna_core::ContextId;
use cdna_mem::{DomainId, PageId};

fn kinds(shadow: &DmaShadow) -> Vec<&'static str> {
    shadow.violations().iter().map(|v| v.kind.name()).collect()
}

#[test]
fn shadow_double_pin_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(1);
    s.on_alloc(DomainId::guest(0), p);
    s.on_pin(p);
    s.on_dma_start(ContextId(0), p);
    s.on_pin(p);
    assert_eq!(kinds(&s), ["double-pin"]);
}

#[test]
fn shadow_unpin_underflow_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(2);
    s.on_alloc(DomainId::guest(0), p);
    s.on_unpin(p);
    assert_eq!(kinds(&s), ["unpin-underflow"]);
}

#[test]
fn shadow_free_while_in_flight_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(3);
    s.on_alloc(DomainId::guest(1), p);
    s.on_pin(p);
    s.on_dma_start(ContextId(1), p);
    s.on_free(DomainId::guest(1), p);
    assert_eq!(kinds(&s), ["free-while-in-flight"]);
}

#[test]
fn shadow_ownership_change_under_pin_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(4);
    s.on_alloc(DomainId::guest(0), p);
    s.on_pin(p);
    s.on_transfer(p, DomainId::guest(0), DomainId::DRIVER);
    assert_eq!(kinds(&s), ["ownership-change-under-pin"]);
}

#[test]
fn shadow_dma_without_pin_fires() {
    let mut s = DmaShadow::new();
    let p = PageId(5);
    s.on_alloc(DomainId::guest(0), p);
    s.on_dma_start(ContextId(2), p);
    assert_eq!(kinds(&s), ["dma-without-pin"]);
}

#[test]
fn shadow_pin_without_owner_fires() {
    let mut s = DmaShadow::new();
    s.on_pin(PageId(6));
    assert_eq!(kinds(&s), ["pin-without-owner"]);
}

#[test]
fn shadow_sequence_replay_fires() {
    let mut s = DmaShadow::new();
    let (ctx, m) = (ContextId(0), 32);
    s.observe_seq(ctx, ShadowDir::Tx, 5, m);
    s.observe_seq(ctx, ShadowDir::Tx, 6, m);
    s.observe_seq(ctx, ShadowDir::Tx, 5, m); // stale descriptor replayed
    assert_eq!(kinds(&s), ["sequence-replay"]);
    assert!(matches!(
        s.violations()[0].kind,
        ViolationKind::SequenceReplay {
            expected: 7,
            found: 5
        }
    ));
}

#[test]
fn shadow_sequence_gap_fires() {
    let mut s = DmaShadow::new();
    let (ctx, m) = (ContextId(3), 32);
    s.observe_seq(ctx, ShadowDir::Rx, 0, m);
    s.observe_seq(ctx, ShadowDir::Rx, 4, m); // 1..=3 skipped
    assert_eq!(kinds(&s), ["sequence-gap"]);
}

#[test]
fn shadow_mirror_divergence_fires() {
    let mut s = DmaShadow::new();
    // Engine claims a pinned page the mirror never saw.
    s.audit_pinned(ContextId(0), &[PageId(9)]);
    assert_eq!(kinds(&s), ["mirror-divergence"]);
}
