//! Fabric acceptance: the fair-share allocator every simulated byte
//! crosses must keep the simulator honest about contention (aggregate
//! ingress capped at the bottleneck link, bandwidth split fairly) while
//! changing *only* timing — the delivered bytes and their order must
//! match the closed-form stream every backend produces.

use rdma_stream::blast::fan_in::expected_digest;
use rdma_stream::blast::runner::expected_blast_digest;
use rdma_stream::blast::{
    run_blast, run_fan_in, BlastSpec, FanInSpec, VerifyLevel, MAX_OFFERED_LOAD,
};
use rdma_stream::verbs::profiles;

/// 512 connections blasting into one server NIC. The fabric must cap
/// the aggregate at the bottleneck and split it fairly (Jain ≥ 0.9).
#[test]
fn incast_512_fair_share_respects_bottleneck_and_is_fair() {
    let spec = FanInSpec {
        msgs_per_conn: 6,
        msg_len: 16 << 10,
        seed: 5,
        ..FanInSpec::new(profiles::fdr_infiniband(), 512)
    };
    let report = run_fan_in(&spec);
    let ratio = report.offered_load_ratio();
    assert!(
        ratio <= MAX_OFFERED_LOAD,
        "aggregate {:.1} Mbit/s exceeds bottleneck (ratio {:.3})",
        report.throughput_mbps(),
        ratio
    );
    let stats = report.fabric.as_ref().expect("fan-in reports fabric stats");
    assert!(
        stats.jain_index >= 0.9,
        "unfair split across flows: Jain index {:.3}",
        stats.jain_index
    );
    assert!(stats.respeeds > 0, "512-way contention must re-speed flows");
    // Every user payload byte rode a fabric flow (flow bytes also carry
    // protocol framing and reverse ADVERT traffic, so ≥, not ==).
    let delivered: u64 = stats.flows.iter().map(|f| f.bytes).sum();
    assert!(
        delivered >= report.bytes,
        "fabric carried {delivered} bytes but {} were delivered",
        report.bytes
    );
}

/// The fabric changes when bytes arrive, never which bytes or in what
/// order: a seeded fan-in delivers the closed-form stream on every
/// connection, and the same seed replays the run event for event.
#[test]
fn fan_in_digests_match_closed_form_and_replay() {
    const SEED: u64 = 77;
    const CONNS: usize = 8;
    const MSGS: usize = 3;
    const MSG_LEN: u64 = 4096;

    let spec = FanInSpec {
        client_nodes: 4,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    };
    let run = run_fan_in(&spec);
    for (idx, &d) in run.digests.iter().enumerate() {
        assert_eq!(
            d,
            expected_digest(SEED, idx, MSGS as u64 * MSG_LEN),
            "conn {idx} stream corrupt"
        );
    }
    let again = run_fan_in(&spec);
    assert_eq!(again.events, run.events, "fan-in run is not reproducible");
    assert_eq!(again.digests, run.digests);
}

/// The 1:1 blast tool: one data flow and one reverse control flow never
/// share a NIC, so neither re-speeds — a lone flow is plain
/// serialization — and the stream is the closed-form pattern.
#[test]
fn blast_single_flow_unchanged_by_fair_share() {
    let report = run_blast(&BlastSpec {
        messages: 40,
        verify: VerifyLevel::Full,
        seed: 11,
        ..BlastSpec::new(profiles::fdr_infiniband())
    });

    assert_eq!(report.digest, expected_blast_digest(report.bytes));
    assert_eq!(
        report.link_bandwidth_bps,
        profiles::fdr_infiniband().link.bandwidth_bps
    );
    let stats = report.fabric.expect("blast reports fabric stats");
    assert_eq!(stats.respeeds, 0, "a lone flow never shares its link");
    assert!(stats.flows.len() <= 2, "one flow per direction");
}
