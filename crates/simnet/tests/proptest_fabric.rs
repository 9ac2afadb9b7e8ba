//! Property tests for the fair-share fabric allocator: whatever the
//! submission schedule, re-speeding changes *when* transfers finish,
//! never *what* arrives or in which order, and nothing arrives sooner
//! than the link could carry it.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simnet::{FairShareConfig, FairShareFabric, SimDuration, SimTime, Transfer};

const NODES: u32 = 4;
const LINK_BPS: u64 = 10_000_000_000;
const PROP: SimDuration = SimDuration::from_nanos(500);

/// The flows a generated op can target: three senders into node 0 (the
/// incast pattern) plus one cross flow so the allocator sees disjoint
/// bottlenecks.
const FLOWS: [(u32, u32); 4] = [(1, 0), (2, 0), (3, 0), (1, 2)];

/// Drains every head-completion event scheduled at or before `until`,
/// in event-time order, applying the reschedules each completion
/// triggers (exactly what the simulation driver does).
fn drain(
    fab: &mut FairShareFabric,
    heads: &mut BTreeMap<(u32, u32), SimTime>,
    until: SimTime,
    jitter: SimDuration,
    completed: &mut BTreeMap<(u32, u32), Vec<(u64, SimTime)>>,
) {
    loop {
        let next = heads
            .iter()
            .min_by_key(|&(key, at)| (*at, *key))
            .map(|(key, at)| (*key, *at));
        let Some((key, at)) = next else { break };
        if at > until {
            break;
        }
        heads.remove(&key);
        let (transfer, arrival, changes) = fab.complete(at, key.0, key.1, PROP, jitter);
        completed
            .entry(key)
            .or_default()
            .push((transfer.token, arrival));
        for (k, t) in changes {
            heads.insert(k, t);
        }
    }
}

proptest! {
    /// For any interleaving of submissions across contending flows, and
    /// any jitter bound, every transfer completes exactly once, per-flow
    /// completion order equals submission order, per-flow arrival times
    /// are monotone (no reordering on the wire), no transfer arrives
    /// before its submission plus its wire time at the full link rate
    /// plus propagation, and the allocator's byte accounting matches
    /// what was offered.
    #[test]
    fn respeeding_never_reorders_or_drops(
        ops in proptest::collection::vec((0usize..4, 0u64..40_000, 1u64..64), 1..120),
        jitter_ns in 0u64..2_000,
        seed in any::<u64>(),
    ) {
        let mut fab = FairShareFabric::new(FairShareConfig::new(seed));
        for a in 0..NODES {
            for b in 0..NODES {
                if a != b {
                    fab.register_link(a, b, LINK_BPS);
                }
            }
        }
        let jitter = SimDuration::from_nanos(jitter_ns);

        let mut heads: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
        let mut submitted: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        let mut earliest: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut offered: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut completed: BTreeMap<(u32, u32), Vec<(u64, SimTime)>> = BTreeMap::new();

        let mut now = SimTime::ZERO;
        for (token, &(flow, gap_ns, size_kb)) in ops.iter().enumerate() {
            let (src, dst) = FLOWS[flow];
            let at = now + SimDuration::from_nanos(gap_ns);
            drain(&mut fab, &mut heads, at, jitter, &mut completed);
            now = at;
            let bytes = size_kb << 10;
            let changes = fab.submit(
                now,
                src,
                dst,
                Transfer { token: token as u64, wire_bytes: bytes, payload_bytes: bytes },
            );
            submitted.entry((src, dst)).or_default().push(token as u64);
            earliest.insert(
                token as u64,
                now + SimDuration::transmission(bytes, LINK_BPS) + PROP,
            );
            *offered.entry((src, dst)).or_default() += bytes;
            for (k, t) in changes {
                heads.insert(k, t);
            }
        }
        drain(&mut fab, &mut heads, SimTime::from_nanos(u64::MAX), jitter, &mut completed);

        prop_assert_eq!(fab.active_flows(), 0, "transfers left in flight");
        let total_done: usize = completed.values().map(Vec::len).sum();
        prop_assert_eq!(total_done, ops.len(), "dropped or duplicated transfers");
        for (key, tokens) in &submitted {
            let done = completed.get(key).expect("flow never completed");
            let done_tokens: Vec<u64> = done.iter().map(|&(t, _)| t).collect();
            prop_assert_eq!(&done_tokens, tokens, "flow {:?} completion order", key);
            for &(token, arrival) in done {
                prop_assert!(
                    arrival >= earliest[&token],
                    "transfer {} arrived at {:?}, before the physical bound {:?}",
                    token, arrival, earliest[&token]
                );
            }
            for pair in done.windows(2) {
                prop_assert!(
                    pair[1].1 >= pair[0].1,
                    "flow {:?} arrivals reordered: {:?} then {:?}",
                    key, pair[0], pair[1]
                );
            }
        }
        let stats = fab.stats();
        for fs in &stats.flows {
            prop_assert_eq!(
                fs.bytes,
                offered.get(&(fs.src, fs.dst)).copied().unwrap_or(0),
                "allocator byte accounting for flow ({}, {})", fs.src, fs.dst
            );
        }
        prop_assert!(stats.jain_index >= 0.0 && stats.jain_index <= 1.0 + 1e-9);
    }
}
