//! Registration churn — per-transfer `ibv_reg_mr`/`ibv_dereg_mr` versus
//! the registered-memory pool ([`exs::MemPool`]).
//!
//! An application that registers each buffer as it sends and deregisters
//! it on completion pays the full pin-down cost (kernel transition +
//! per-page pinning) on every transfer. The pool amortizes that cost:
//! after a cold first pass, every acquire is a cache hit and costs only a
//! mutex-protected free-list pop. This bench sweeps working sets of
//! 1/8/64 buffers of 64 KiB on one FDR-profile node and reports the
//! virtual CPU time of each arm; the pool's pinned budget is sized to
//! exactly the working set, so hits are steady-state and nothing is
//! evicted.
//!
//! Each working set's result is written to
//! `bench-results/reg_churn_<N>buf.json`.

use exs::{MemPool, MemPoolConfig};
use exs_bench::{quick, write_snapshot};
use rdma_verbs::profiles;
use rdma_verbs::sim::SimNet;
use rdma_verbs::types::Access;

const BUF_LEN: usize = 64 << 10;

fn main() {
    let working_sets = [1usize, 8, 64];
    let iters = if quick() { 20 } else { 200 };

    println!();
    println!("=== Registration churn: per-transfer reg/dereg vs. MemPool (FDR IB) ===");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>10} {:>12}",
        "bufs", "unpooled us", "pooled us", "speedup", "hit rate", "pinned KiB"
    );

    for &n in &working_sets {
        // Each arm gets a fresh node: CPU charges serialize on the
        // node's meter, so reusing one node would start the second arm
        // at the first arm's busy-until cursor.
        let fresh = || {
            let prof = profiles::fdr_infiniband();
            let mut net = SimNet::new();
            let node = net.add_node(prof.host.clone(), prof.hca.clone());
            (net, node)
        };

        // Unpooled arm: register and deregister every buffer of the
        // working set on every iteration, as a naive zero-copy sender
        // would.
        let (mut net, node) = fresh();
        let unpooled = net.with_api(node, |api| {
            let t0 = api.now();
            for _ in 0..iters {
                let mrs: Vec<_> = (0..n)
                    .map(|_| api.register_mr_charged(BUF_LEN, Access::NONE))
                    .collect();
                for mr in &mrs {
                    api.deregister_mr_charged(mr.key).expect("dereg");
                }
            }
            api.now() - t0
        });

        // Pooled arm: same acquire/release pattern through the pool. The
        // budget admits exactly the working set, so the first iteration
        // misses (cold registrations) and every later one hits.
        let class = (BUF_LEN.max(4096)).next_power_of_two() as u64;
        let pool = MemPool::new(MemPoolConfig {
            pinned_budget: n as u64 * class,
            ..MemPoolConfig::default()
        });
        let (mut net, node) = fresh();
        let pooled = net.with_api(node, |api| {
            let t0 = api.now();
            for _ in 0..iters {
                let leases: Vec<_> = (0..n)
                    .map(|_| pool.acquire(api, BUF_LEN, Access::NONE))
                    .collect();
                drop(leases);
            }
            api.now() - t0
        });
        let stats = pool.stats();
        net.with_api(node, |api| pool.trim(api));

        let unpooled_ns = unpooled.as_nanos();
        let pooled_ns = pooled.as_nanos().max(1);
        let speedup = unpooled_ns as f64 / pooled_ns as f64;
        println!(
            "{:>8} {:>14.1} {:>14.1} {:>9.1}x {:>9.2}% {:>12}",
            n,
            unpooled_ns as f64 / 1000.0,
            pooled_ns as f64 / 1000.0,
            speedup,
            stats.hit_rate() * 100.0,
            stats.pinned_peak / 1024,
        );

        let json = format!(
            "{{\"bench\":\"reg_churn\",\"working_set\":{n},\"buf_len\":{BUF_LEN},\
             \"iters\":{iters},\"unpooled_ns\":{unpooled_ns},\"pooled_ns\":{pooled_ns},\
             \"speedup\":{speedup:.2},\"pool\":{}}}",
            stats.to_json()
        );
        write_snapshot(&format!("reg_churn_{n}buf"), &json);

        // Steady-state sanity: every post-cold acquire must hit, and the
        // large working set is where amortization pays — the issue's
        // acceptance bar.
        assert_eq!(stats.misses, n as u64, "only the cold pass registers");
        assert_eq!(stats.evictions, 0, "budget admits the working set");
        if n == 64 {
            assert!(
                speedup >= 5.0,
                "pooled must be >=5x cheaper than unpooled at 64 bufs, got {speedup:.2}x"
            );
        }
    }

    println!();
    println!("expected shape: unpooled cost grows linearly with churn; pooled cost is");
    println!("one cold pass plus near-free hits, so the gap widens with the working set.");
}
