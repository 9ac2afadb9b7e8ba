//! Link parameters.
//!
//! A [`LinkConfig`] describes one direction of a cabled connection
//! between two adapters: its data rate, per-packet framing overhead,
//! fixed propagation delay and an optional random jitter bound. Timing
//! itself belongs to the fair-share fabric ([`crate::fabric`]): the
//! link's rate sizes the sending NIC's uplink and the receiving NIC's
//! downlink, [`LinkConfig::wire_bytes`] is what a message occupies on
//! them, and propagation plus jitter are added when its last bit
//! leaves. A lone flow gets the whole rate, so one link with one
//! sender is plain serialization.
//!
//! The emulated-WAN experiments (paper §IV-B2) are modelled by setting a
//! large `propagation` (24 ms each way for the 48 ms Anue RTT); the
//! future-work jitter study adds a `jitter` bound on top.

use crate::time::SimDuration;

/// Static description of one link direction.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Raw signalling rate in bits per second (e.g. FDR 4x = 56 Gbit/s
    /// signalled; configure the *data* rate after encoding here).
    pub bandwidth_bps: u64,
    /// One-way propagation delay (cable + switch + emulator).
    pub propagation: SimDuration,
    /// Maximum transmission unit for the payload portion of one packet.
    pub mtu: u32,
    /// Per-packet framing overhead in bytes (headers, CRCs, preambles).
    pub per_packet_overhead: u32,
    /// Upper bound for uniformly distributed extra per-message delay.
    /// `SimDuration::ZERO` disables jitter (the default in all paper
    /// reproductions; used by the jitter ablation).
    pub jitter: SimDuration,
}

impl LinkConfig {
    /// A convenience config with only bandwidth and propagation set;
    /// 4 KiB MTU, 30-byte overhead, no jitter.
    pub fn simple(bandwidth_bps: u64, propagation: SimDuration) -> Self {
        LinkConfig {
            bandwidth_bps,
            propagation,
            mtu: 4096,
            per_packet_overhead: 30,
            jitter: SimDuration::ZERO,
        }
    }

    /// Bytes actually serialized on the wire for a message payload,
    /// including per-packet framing. A zero-byte message still costs one
    /// packet (RDMA zero-length messages exist: pure IMM notifications).
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        let mtu = self.mtu.max(1) as u64;
        let packets = if payload == 0 {
            1
        } else {
            payload.div_ceil(mtu)
        };
        payload + packets * self.per_packet_overhead as u64
    }

    /// Serialization time of a message payload on this link.
    pub fn tx_time(&self, payload: u64) -> SimDuration {
        SimDuration::transmission(self.wire_bytes(payload), self.bandwidth_bps)
    }

    /// Fraction of raw bandwidth available to payload for messages of the
    /// given size (reporting helper).
    pub fn efficiency(&self, payload: u64) -> f64 {
        if payload == 0 {
            return 0.0;
        }
        payload as f64 / self.wire_bytes(payload) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbit(n: u64) -> u64 {
        n * 1_000_000_000
    }

    #[test]
    fn wire_bytes_counts_packets() {
        let c = LinkConfig::simple(gbit(10), SimDuration::ZERO);
        assert_eq!(c.wire_bytes(0), 30);
        assert_eq!(c.wire_bytes(1), 31);
        assert_eq!(c.wire_bytes(4096), 4096 + 30);
        assert_eq!(c.wire_bytes(4097), 4097 + 60);
        assert_eq!(c.wire_bytes(3 * 4096), 3 * 4096 + 90);
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let mut c = LinkConfig::simple(gbit(1), SimDuration::ZERO);
        c.per_packet_overhead = 0;
        // 125 bytes at 1 Gbit/s = 1000 ns.
        assert_eq!(c.tx_time(125).as_nanos(), 1_000);
    }

    #[test]
    fn efficiency_reflects_overhead() {
        let c = LinkConfig::simple(gbit(10), SimDuration::ZERO);
        let e_small = c.efficiency(64);
        let e_big = c.efficiency(1 << 20);
        assert!(e_small < e_big);
        assert!(e_big > 0.99);
        assert_eq!(c.efficiency(0), 0.0);
    }
}
