//! Fan-in scaling — aggregate ingress throughput of one reactor-driven
//! server node as the connection count grows 1 → 8 → 64 → 512.
//!
//! This is the scalability story the paper's 1:1 blast tool cannot
//! tell: all connections complete onto two shared CQs and one
//! [`exs::Reactor`] multiplexes them, so the interesting outputs are
//! the aggregate throughput, the per-connection direct:indirect ratio,
//! and how the CQ drain batches grow with the connection count.
//!
//! Each configuration's full counter snapshot (aggregate + reactor +
//! per-connection) is written to `bench-results/fan_in_<N>conns.json`.
//! The run exits non-zero if any configuration reports more than the
//! server NIC's line rate.

use blast::{run_fan_in, FanInSpec};
use exs_bench::{check_capacity, quick, write_snapshot};
use rdma_verbs::profiles;

fn main() {
    let conn_counts = [1usize, 8, 64, 512];
    let (msgs, msg_len) = if quick() { (2, 8 << 10) } else { (6, 16 << 10) };

    println!();
    println!("=== Fan-in scaling: M streams -> one reactor node (FDR IB) ===");
    println!(
        "{:>6} {:>16} {:>14} {:>14} {:>12} {:>10}",
        "conns", "aggregate Mbit/s", "direct ratio", "mean CQ batch", "max batch", "deferrals"
    );
    for &conns in &conn_counts {
        let spec = FanInSpec {
            msgs_per_conn: msgs,
            msg_len,
            seed: 5,
            ..FanInSpec::new(profiles::fdr_infiniband(), conns)
        };
        let report = run_fan_in(&spec);
        println!(
            "{:>6} {:>16.1} {:>14.3} {:>14.2} {:>12} {:>10}",
            conns,
            report.throughput_mbps(),
            report.direct_ratio(),
            report.reactor.mean_batch(),
            report.reactor.max_cq_batch,
            report.reactor.deferrals,
        );
        let name = format!("fan_in_{conns}conns");
        write_snapshot(&name, &report.to_json());
        check_capacity(&name, report.offered_load_ratio());
    }
    println!();
    println!("expected shape: aggregate throughput holds as conns grow; mean CQ batch");
    println!("rises with fan-in (shared-CQ amortization is the reactor's win).");
}
