//! Property tests for the simulation engine: the determinism and
//! ordering guarantees every higher layer depends on.

use proptest::prelude::*;
use simnet::{Scheduler, SimDuration, SimTime, Xoshiro256};

proptest! {
    /// Events pop in time order, and events with equal timestamps pop in
    /// scheduling order (stable FIFO tie-break).
    #[test]
    fn scheduler_is_stable_and_ordered(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = s.pop() {
            prop_assert_eq!(at.as_nanos(), t);
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "ordering violated");
            }
            last = Some((t, i));
        }
        prop_assert_eq!(s.delivered(), times.len() as u64);
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn scheduler_cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut s = Scheduler::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, s.schedule_at(SimTime::from_nanos(t), i)))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                s.cancel(*id);
            } else {
                kept.push(*i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = s.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(popped, kept);
    }

    /// The transmission-time helper is monotone in payload size and
    /// inversely monotone in bandwidth.
    #[test]
    fn transmission_monotonicity(bytes in 1u64..1_000_000, bw in 1u64..100_000_000_000) {
        let t1 = SimDuration::transmission(bytes, bw);
        let t2 = SimDuration::transmission(bytes + 1, bw);
        prop_assert!(t2 >= t1);
        let t3 = SimDuration::transmission(bytes, bw * 2);
        prop_assert!(t3 <= t1);
        prop_assert!(t1.as_nanos() > 0);
    }

    /// RNG ranges stay in bounds for arbitrary parameters.
    #[test]
    fn rng_ranges_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..100 {
            let x = rng.next_range(lo, lo + span);
            prop_assert!((lo..=lo + span).contains(&x));
        }
    }

    /// Identical seeds give identical streams, including through splits.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = Xoshiro256::new(seed);
        let mut b = Xoshiro256::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut child_a = a.split();
        let mut child_b = b.split();
        for _ in 0..20 {
            prop_assert_eq!(child_a.next_u64(), child_b.next_u64());
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
