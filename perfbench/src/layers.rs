//! Deterministic per-layer work counts, read from a finished world's
//! `SystemWorld::collect_metrics` registry.

use cdna_system::{NicSlot, SystemWorld};
use cdna_trace::Domain;

/// Work counts of the protection engine, device models, Xen substrate
/// and memory layer. Rack runs sum them over hosts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerCounts {
    /// `cdna-core`: enqueue hypercall batches.
    pub hypercalls: u64,
    /// `cdna-core`: descriptors validated and enqueued.
    pub descriptors_enqueued: u64,
    /// `cdna-core`: pages pinned.
    pub pages_pinned: u64,
    /// `cdna-core`: enqueue calls rejected.
    pub rejections: u64,
    /// `cdna-ricenic`: per-context sequence-number checks.
    pub seqnum_checks: u64,
    /// `cdna-ricenic`: interrupt bit-vector ring DMAs.
    pub vector_ring_dmas: u64,
    /// `cdna-ricenic`: physical interrupts raised.
    pub ricenic_interrupts: u64,
    /// `cdna-ricenic`: receive frames dropped.
    pub ricenic_rx_dropped: u64,
    /// `cdna-ricenic`: protection faults detected by the device.
    pub ricenic_faults: u64,
    /// `cdna-nic` (conventional NICs): physical interrupts raised.
    pub nic_interrupts: u64,
    /// `cdna-nic`: receive frames dropped.
    pub nic_rx_dropped: u64,
    /// `cdna-xen`: scheduler domain switches.
    pub sched_switches: u64,
    /// `cdna-xen`: netback page flips.
    pub page_flips: u64,
    /// `cdna-xen`: grant maps.
    pub grant_maps: u64,
    /// `cdna-xen`: virtual interrupts posted to guests.
    pub guest_virqs: u64,
    /// `cdna-xen`: virtual interrupts posted to the driver domain.
    pub driver_virqs: u64,
    /// `cdna-mem`: pages still pinned at the end of the run.
    pub outstanding_pins: u64,
    /// `cdna-system`: receive packets netback dropped for lack of credit.
    pub rx_credit_drops: u64,
}

impl LayerCounts {
    /// Collects `world`'s counters into its registry and reads them.
    /// Collecting touches only the registry, which reports built without
    /// metrics never read, so the simulated outcome is unaffected.
    pub fn read(world: &mut SystemWorld) -> Self {
        world.collect_metrics();
        let mut c = LayerCounts::default();
        for (key, v) in world.registry.counters_sorted() {
            let rice = match key.domain {
                Domain::Nic(n) => matches!(world.nics.get(n as usize), Some(NicSlot::Rice(_))),
                _ => false,
            };
            let slot = match (key.domain, key.component, key.metric) {
                (Domain::Hypervisor, "protection", "hypercalls") => &mut c.hypercalls,
                (Domain::Hypervisor, "protection", "descriptors_enqueued") => {
                    &mut c.descriptors_enqueued
                }
                (Domain::Hypervisor, "protection", "pages_pinned") => &mut c.pages_pinned,
                (Domain::Hypervisor, "protection", "rejections") => &mut c.rejections,
                (Domain::Guest(_), "ctx", "seqnum_checks") => &mut c.seqnum_checks,
                (Domain::Nic(_), "dev", "vector_ring_dmas") => &mut c.vector_ring_dmas,
                (Domain::Nic(_), "dev", "faults") => &mut c.ricenic_faults,
                (Domain::Nic(_), "dev", "interrupts") if rice => &mut c.ricenic_interrupts,
                (Domain::Nic(_), "dev", "rx_dropped") if rice => &mut c.ricenic_rx_dropped,
                (Domain::Nic(_), "dev", "interrupts") => &mut c.nic_interrupts,
                (Domain::Nic(_), "dev", "rx_dropped") => &mut c.nic_rx_dropped,
                (Domain::Hypervisor, "sched", "switches_total") => &mut c.sched_switches,
                (Domain::Guest(_), "chan", "page_flips") => &mut c.page_flips,
                (Domain::Guest(_), "chan", "grant_maps") => &mut c.grant_maps,
                (Domain::Hypervisor, "irq", "guest_virtual") => &mut c.guest_virqs,
                (Domain::Hypervisor, "irq", "driver_virtual") => &mut c.driver_virqs,
                (Domain::Global, "mem", "outstanding_pins") => &mut c.outstanding_pins,
                (Domain::Global, "world", "rx_credit_drops") => &mut c.rx_credit_drops,
                _ => continue,
            };
            *slot += v;
        }
        c
    }

    /// Adds another host's counts.
    pub fn add(&mut self, o: &LayerCounts) {
        self.hypercalls += o.hypercalls;
        self.descriptors_enqueued += o.descriptors_enqueued;
        self.pages_pinned += o.pages_pinned;
        self.rejections += o.rejections;
        self.seqnum_checks += o.seqnum_checks;
        self.vector_ring_dmas += o.vector_ring_dmas;
        self.ricenic_interrupts += o.ricenic_interrupts;
        self.ricenic_rx_dropped += o.ricenic_rx_dropped;
        self.ricenic_faults += o.ricenic_faults;
        self.nic_interrupts += o.nic_interrupts;
        self.nic_rx_dropped += o.nic_rx_dropped;
        self.sched_switches += o.sched_switches;
        self.page_flips += o.page_flips;
        self.grant_maps += o.grant_maps;
        self.guest_virqs += o.guest_virqs;
        self.driver_virqs += o.driver_virqs;
        self.outstanding_pins += o.outstanding_pins;
        self.rx_credit_drops += o.rx_credit_drops;
    }
}
