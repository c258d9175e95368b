//! The store-and-forward top-of-rack switch.
//!
//! One port per (host, NIC) uplink. A frame handed to the switch at its
//! wire-transmit completion time propagates over the ingress link,
//! waits for the egress port to drain (store-and-forward: the whole
//! frame is buffered before it is re-serialized), serializes out at the
//! link rate, and propagates over the egress link. Forwarding decisions
//! come from a MAC table that is pre-loaded by the rack builder and
//! also learns source addresses dynamically, exactly like a real L2
//! switch; frames to unknown destinations are counted and dropped
//! rather than flooded, keeping the simulation's traffic matrix
//! explicit.

use std::collections::BTreeMap;

use cdna_net::{Frame, MacAddr};
use cdna_sim::SimTime;
use cdna_system::ConfigError;

/// Link and fabric timing for the top-of-rack switch.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// One-way link latency (propagation plus PHY/processing) between a
    /// host uplink and the switch fabric. Also the rack's conservative
    /// lookahead window: hosts advance in epochs of exactly this
    /// length, and a frame crossing the switch always arrives after the
    /// end of the epoch that follows the one it departed in.
    pub latency: SimTime,
    /// Egress serialization rate in nanoseconds per byte (8 ns/B is
    /// 1 Gb/s, matching the hosts' [`cdna_net::GigabitWire`]).
    pub ns_per_byte: u64,
}

impl SwitchConfig {
    /// Checks the timing the rack's lookahead rests on: a frame must
    /// take strictly longer than two link latencies to cross (see
    /// [`TorSwitch::forward`]), which needs a non-zero latency and a
    /// non-zero serialization rate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.latency == SimTime::ZERO {
            return Err(ConfigError::Zero {
                field: "switch.latency",
            });
        }
        if self.ns_per_byte == 0 {
            return Err(ConfigError::Zero {
                field: "switch.ns_per_byte",
            });
        }
        Ok(())
    }
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            // The same store-and-forward figure SystemWorld's hairpin
            // path models for the external switch.
            latency: SimTime::from_us(2),
            ns_per_byte: 8,
        }
    }
}

/// Aggregate switch counters for the rack report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Frames forwarded to an egress port.
    pub forwarded: u64,
    /// Bytes (wire framing included) forwarded.
    pub forwarded_bytes: u64,
    /// Frames dropped because the destination MAC was unknown.
    pub dropped_unknown: u64,
    /// Source MACs learned dynamically (pre-loaded entries excluded).
    pub learned: u64,
}

/// The switch itself: per-port egress serialization state plus the
/// forwarding table.
#[derive(Debug)]
pub struct TorSwitch {
    cfg: SwitchConfig,
    /// Per-port egress busy horizon: the time the port finishes
    /// re-serializing the last frame queued on it.
    busy_until: Vec<SimTime>,
    mac_table: BTreeMap<MacAddr, usize>,
    stats: SwitchStats,
}

impl TorSwitch {
    /// A switch with `ports` empty per-port queues and an empty MAC
    /// table.
    pub fn new(cfg: SwitchConfig, ports: usize) -> Self {
        TorSwitch {
            cfg,
            busy_until: vec![SimTime::ZERO; ports],
            mac_table: BTreeMap::new(),
            stats: SwitchStats::default(),
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> SwitchConfig {
        self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Pre-loads a forwarding entry (rack inventory; not counted as
    /// learned).
    pub fn preload(&mut self, mac: MacAddr, port: usize) {
        self.mac_table.insert(mac, port);
    }

    /// Learns `mac` as reachable through `port`, counting only new or
    /// moved entries. An unchanged entry (every frame of a preloaded
    /// station) is only looked up.
    pub fn learn(&mut self, mac: MacAddr, port: usize) {
        if self.mac_table.get(&mac) != Some(&port) {
            self.mac_table.insert(mac, port);
            self.stats.learned += 1;
        }
    }

    /// Forwards a frame that finished serializing onto `src_port`'s
    /// ingress wire at `departed`. Returns the egress port and the time
    /// the frame lands on that port's host wire, or `None` if the
    /// destination is unknown.
    ///
    /// The returned delivery time is always at least
    /// `departed + 2 * latency` plus the frame's serialization, which
    /// is what lets the rack hand a latency-sized epoch's departures
    /// off one round late (see the `cdna_rack` crate docs).
    pub fn forward(
        &mut self,
        departed: SimTime,
        src_port: usize,
        frame: &Frame,
    ) -> Option<(usize, SimTime)> {
        self.learn(frame.src, src_port);
        let Some(&dst_port) = self.mac_table.get(&frame.dst) else {
            self.stats.dropped_unknown += 1;
            return None;
        };
        let wire_bytes = frame.wire_bytes() as u64;
        // Ingress propagation, then store-and-forward buffering: the
        // egress port serializes whole frames back-to-back.
        let arrival = departed + self.cfg.latency;
        let start = arrival.max(self.busy_until[dst_port]);
        let done = start + SimTime::from_ns(wire_bytes * self.cfg.ns_per_byte);
        self.busy_until[dst_port] = done;
        self.stats.forwarded += 1;
        self.stats.forwarded_bytes += wire_bytes;
        Some((dst_port, done + self.cfg.latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_net::FlowId;

    fn frame(src: MacAddr, dst: MacAddr) -> Frame {
        Frame::tcp_data(src, dst, 1460, FlowId { guest: 0, conn: 0 }, 0)
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let mut sw = TorSwitch::new(SwitchConfig::default(), 2);
        let f = frame(
            MacAddr::for_host_context(0, 0, 1),
            MacAddr::for_host_context(1, 0, 1),
        );
        assert!(sw.forward(SimTime::ZERO, 0, &f).is_none());
        assert_eq!(sw.stats().dropped_unknown, 1);
        // The source was learned on the way through.
        assert_eq!(sw.stats().learned, 1);
    }

    #[test]
    fn forward_adds_two_latencies_and_serialization() {
        let cfg = SwitchConfig {
            latency: SimTime::from_us(2),
            ns_per_byte: 8,
        };
        let mut sw = TorSwitch::new(cfg, 4);
        let dst = MacAddr::for_host_context(1, 0, 1);
        sw.preload(dst, 2);
        let f = frame(MacAddr::for_host_context(0, 0, 1), dst);
        let (port, at) = sw.forward(SimTime::from_us(10), 0, &f).expect("known dst");
        assert_eq!(port, 2);
        let ser = SimTime::from_ns(f.wire_bytes() as u64 * 8);
        assert_eq!(at, SimTime::from_us(14) + ser);
    }

    #[test]
    fn egress_port_serializes_back_to_back() {
        let cfg = SwitchConfig {
            latency: SimTime::from_us(2),
            ns_per_byte: 8,
        };
        let mut sw = TorSwitch::new(cfg, 2);
        let dst = MacAddr::for_host_context(1, 0, 1);
        sw.preload(dst, 1);
        let f = frame(MacAddr::for_host_context(0, 0, 1), dst);
        let ser = SimTime::from_ns(f.wire_bytes() as u64 * 8);
        let (_, first) = sw.forward(SimTime::ZERO, 0, &f).expect("known dst");
        // Second frame departs at the same instant: it queues behind
        // the first on the egress port.
        let (_, second) = sw.forward(SimTime::ZERO, 0, &f).expect("known dst");
        assert_eq!(first, SimTime::from_us(4) + ser);
        assert_eq!(second, first + ser);
    }

    #[test]
    fn learning_moves_a_station() {
        let mut sw = TorSwitch::new(SwitchConfig::default(), 3);
        let mac = MacAddr::for_host_context(2, 0, 1);
        sw.learn(mac, 0);
        sw.learn(mac, 0); // unchanged: not re-counted
        sw.learn(mac, 2); // moved
        assert_eq!(sw.stats().learned, 2);
    }
}
