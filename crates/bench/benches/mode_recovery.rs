//! Mode recovery — how much of the stream travels zero-copy when the
//! receiver keeps a queue of receives pre-posted and the sender's
//! adaptive re-entry policy (`ExsConfig::direct`) is allowed to pause
//! for a resync ADVERT instead of falling back to the bounce ring.
//!
//! Sweeps message size × pre-post depth at a fixed fan-in of 8
//! connections. The interesting outputs are the direct byte ratio
//! (1.0 = full zero-copy), the resync counters (how often the policy
//! paused and how often the pause paid off), and the receiver's advert
//! queue depth. Depth 1 with small messages is the degenerate
//! reactor shape that used to pin every stream at 0% direct.
//!
//! Each cell's full counter snapshot is written to
//! `bench-results/mode_recovery_<size>_d<depth>.json`. The run exits
//! non-zero if the large-message, deep-queue cell fails to recover
//! direct mode — the CI regression gate for this subsystem — or if any
//! cell reports more than the server NIC's line rate.

use blast::{run_fan_in, FanInSpec};
use exs_bench::{check_capacity, quick, write_snapshot};
use rdma_verbs::profiles;

fn main() {
    const CONNS: usize = 8;
    let msg_lens: &[u64] = &[8 << 10, 64 << 10];
    let depths: &[usize] = &[1, 4];
    let msgs = if quick() { 3 } else { 8 };

    println!();
    println!("=== Mode recovery: direct-byte share vs pre-post depth ({CONNS} conns, FDR IB) ===");
    println!(
        "{:>9} {:>6} {:>16} {:>13} {:>9} {:>9} {:>11} {:>11}",
        "msg size",
        "depth",
        "aggregate Mbit/s",
        "direct bytes",
        "resync>",
        "resync=",
        "advert q pk",
        "advert q mu"
    );

    let mut gate_ratio = None;
    for &msg_len in msg_lens {
        for &depth in depths {
            let spec = FanInSpec {
                msgs_per_conn: msgs,
                msg_len,
                prepost_recvs: depth,
                seed: 5,
                ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
            };
            let report = run_fan_in(&spec);
            let tx = &report.aggregate_tx;
            println!(
                "{:>7}Ki {:>6} {:>16.1} {:>13.3} {:>9} {:>9} {:>11} {:>11.2}",
                msg_len >> 10,
                depth,
                report.throughput_mbps(),
                report.direct_byte_ratio(),
                tx.resyncs_attempted,
                tx.resyncs_completed,
                report.aggregate.advert_queue_peak,
                report.aggregate.advert_queue_mean(),
            );
            let name = format!("mode_recovery_{}k_d{depth}", msg_len >> 10);
            write_snapshot(&name, &report.to_json());
            check_capacity(&name, report.offered_load_ratio());
            if msg_len == 64 << 10 && depth == 4 {
                gate_ratio = Some(report.direct_byte_ratio());
            }
        }
    }

    println!();
    println!("expected shape: direct-byte share rises with message size and pre-post");
    println!("depth; 64Ki at depth 4 should be near 1.0 (full zero-copy recovery).");

    // Regression gate: large messages through a deep advert queue must
    // not fall back to 0% direct (the pre-PR reactor behaviour).
    let ratio = gate_ratio.expect("64Ki/depth-4 cell ran");
    if ratio < 0.5 {
        eprintln!("REGRESSION: 64Ki/depth-4 direct_byte_ratio {ratio:.3} < 0.5");
        std::process::exit(1);
    }
    println!("gate ok: 64Ki/depth-4 direct_byte_ratio = {ratio:.3}");
}
