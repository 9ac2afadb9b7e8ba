//! QP-multiplexing scalability sweep — 1k / 10k / 100k streams riding
//! a pooled QP set versus the QP-per-stream baseline.
//!
//! The RDMA scalability wall this measures: every private QP pays for
//! its own intermediate ring, control slots, SQ/RQ WQE rings and CQ
//! share, so per-stream context memory is flat no matter how idle the
//! stream is. Shared-transport mode amortizes all of that across a
//! ≤ 8-QP pool per peer pair and leaves each stream a single
//! cache-friendly state struct.
//!
//! CI gates (exit non-zero on violation):
//!
//! * at 10k streams, modeled memory-per-stream must be ≤ 1/8 of the
//!   QP-per-stream baseline's per-stream cost;
//! * mux delivery must be digest-identical to the QP-per-stream path
//!   at the scale where both run, and to the expected payload pattern
//!   at every scale;
//! * at 1k and 10k streams, control messages (adverts, ACKs and
//!   CREDITs, both sides) per delivered message must stay ≤ 4 — the
//!   bound that catches a control plane queueing one message per event
//!   instead of coalescing;
//! * no snapshot may report more than the server NIC's line rate.
//!
//! Snapshots land in `bench-results/qp_mux_{1k,10k,100k}.json`. Quick
//! mode (`EXS_BENCH_QUICK=1`) runs 1k and 10k; the full run adds 100k,
//! whose baseline is the model extrapolation (100k private 64 KiB
//! rings would not even allocate).

use blast::fan_in::expected_digest;
use blast::{run_fan_in, FanInReport, FanInSpec, ServerKind, VerifyLevel};
use exs_bench::{check_capacity, quick, write_snapshot};
use rdma_verbs::profiles;

fn spec_for(streams: usize, server: ServerKind) -> FanInSpec {
    FanInSpec {
        server,
        msgs_per_conn: 1,
        msg_len: 512,
        outstanding_sends: 1,
        prepost_recvs: 1,
        client_nodes: 8,
        verify: VerifyLevel::Full,
        seed: 11,
        ..FanInSpec::new(profiles::fdr_infiniband(), streams)
    }
}

/// Control messages both sides put on the wire per delivered message.
fn ctrl_per_msg(report: &FanInReport, spec: &FanInSpec) -> f64 {
    let ctrl: u64 = [&report.aggregate, &report.aggregate_tx]
        .iter()
        .map(|s| s.adverts_sent + s.acks_sent + s.credits_sent)
        .sum();
    ctrl as f64 / (spec.conns * spec.msgs_per_conn) as f64
}

fn main() {
    let counts: &[(usize, &str)] = if quick() {
        &[(1_000, "1k"), (10_000, "10k")]
    } else {
        &[(1_000, "1k"), (10_000, "10k"), (100_000, "100k")]
    };
    let mut violations = 0u32;

    println!();
    println!("=== qp_mux: N streams over a pooled QP set vs QP-per-stream (FDR IB) ===");
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>14} {:>14} {:>7} {:>9}",
        "streams", "mode", "Mbit/s", "setup ms", "B/stream", "baseline B/s", "ratio", "ctrl/msg"
    );

    // Measured QP-per-stream baseline, at the scale where 1k private
    // rings still fit: throughput/setup context and digest identity.
    let baseline_spec = spec_for(1_000, ServerKind::Callback);
    let baseline = run_fan_in(&baseline_spec);
    println!(
        "{:>8} {:>12} {:>14.1} {:>12.1} {:>14} {:>14} {:>7} {:>9.2}",
        1_000,
        "qp-per-conn",
        baseline.throughput_mbps(),
        baseline.setup_wall.as_secs_f64() * 1e3,
        "-",
        "-",
        "-",
        ctrl_per_msg(&baseline, &baseline_spec),
    );

    for &(streams, tag) in counts {
        let spec = spec_for(streams, ServerKind::Mux);
        let report = run_fan_in(&spec);
        let per_stream = report.memory_per_stream().expect("mux run models memory");
        let baseline_per_stream =
            report.mux_baseline.expect("mux run models baseline") / streams as u64;
        let ratio = baseline_per_stream as f64 / per_stream.max(1) as f64;
        let ctrl = ctrl_per_msg(&report, &spec);
        println!(
            "{:>8} {:>12} {:>14.1} {:>12.1} {:>14} {:>14} {:>6.1}x {:>9.2}",
            streams,
            "mux-pool",
            report.throughput_mbps(),
            report.setup_wall.as_secs_f64() * 1e3,
            per_stream,
            baseline_per_stream,
            ratio,
            ctrl,
        );
        let name = format!("qp_mux_{tag}");
        write_snapshot(&name, &report.to_json());
        check_capacity(&name, report.offered_load_ratio());

        let expected_len = spec.msgs_per_conn as u64 * spec.msg_len;
        for (i, &d) in report.digests.iter().enumerate() {
            if d != expected_digest(spec.seed, i, expected_len) {
                eprintln!("VIOLATION: stream {i} of {streams} delivered a wrong digest");
                violations += 1;
                break;
            }
        }
        if streams == 1_000 && report.digests != baseline.digests {
            eprintln!("VIOLATION: mux delivery diverges from the QP-per-stream path at 1k");
            violations += 1;
        }
        if streams <= 10_000 && ctrl > 4.0 {
            eprintln!(
                "VIOLATION: {ctrl:.2} control messages per delivered message at {streams} \
                 streams (bound 4)"
            );
            violations += 1;
        }
        if streams == 10_000 && per_stream * 8 > baseline_per_stream {
            eprintln!(
                "VIOLATION: 10k-stream memory-per-stream {per_stream} B exceeds 1/8 of \
                 the QP-per-stream baseline ({baseline_per_stream} B)"
            );
            violations += 1;
        }
    }

    println!();
    println!("expected shape: per-stream memory collapses from the ~72 KiB private-QP");
    println!("fixed cost to the pool share plus one small stream struct; digests are");
    println!("identical to the QP-per-stream path — multiplexing changes the transport");
    println!("economics, never the bytes.");
    if violations > 0 {
        eprintln!("{violations} qp_mux violation(s)");
        std::process::exit(1);
    }
}
