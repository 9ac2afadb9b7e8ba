//! The benchmark's own measurement rules, checked on known inputs.

use blast::fan_in::{expected_digest, payload_byte};
use exs::ConnStats;
use perfbench::measure::{
    percentile, Failure, Ledger, MsgClock, Pattern, Percentiles, RxStream, STAMP_LEN, STAMP_PERIOD,
};
use perfbench::metrics::{SimFigures, END_TO_END, PER_LAYER};
use perfbench::trace::{self_time_by_layer, Layer, Timeline, Tracer};
use perfbench::{run, simrun};
use rdma_verbs::RunOutcome;
use simnet::{SimDuration, SimTime};

fn ramp(n: u64) -> Vec<u64> {
    (1..=n).collect()
}

#[test]
fn percentiles_take_the_nearest_rank() {
    let v = ramp(1000);
    assert_eq!(percentile(&v, 500), Some(500));
    assert_eq!(percentile(&v, 990), Some(990));
    let v = ramp(10_000);
    assert_eq!(percentile(&v, 500), Some(5000));
    assert_eq!(percentile(&v, 990), Some(9900));
    assert_eq!(percentile(&v, 999), Some(9990));
    let p = Percentiles::of(v.into_iter().rev().collect());
    assert_eq!(
        (p.count, p.p50, p.p99, p.p999),
        (10_000, Some(5000), Some(9900), Some(9990))
    );
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    // p50 of 20 samples leaves 10 beyond; of 19 only 9.
    assert_eq!(percentile(&ramp(20), 500), Some(10));
    assert_eq!(percentile(&ramp(19), 500), None);
    // p99 needs 1000 samples, p999 needs 10 000.
    assert_eq!(percentile(&ramp(999), 990), None);
    assert_eq!(percentile(&ramp(1000), 999), None);
    assert_eq!(percentile(&ramp(9999), 999), None);
    assert_eq!(percentile(&[], 500), None);
    let p = Percentiles::of(ramp(1000));
    assert_eq!((p.p50, p.p99, p.p999), (Some(500), Some(990), None));
}

#[test]
fn message_latency_follows_byte_offsets_across_receive_splits() {
    let mut clock = MsgClock::new();
    for len in [100, 50, 200] {
        clock.push(len);
    }
    // A receive ending inside message 0 completes nothing.
    assert_eq!(clock.advance(30), 0..0);
    // One straddling the 0/1 boundary completes message 0 only.
    assert_eq!(clock.advance(100), 0..1);
    assert_eq!(clock.head(), 1);
    // Exactly reaching a message's last byte completes it.
    assert_eq!(clock.advance(20), 1..2);
    assert_eq!(clock.advance(199), 2..2);
    assert_eq!(clock.advance(1), 2..3);
    assert!(!clock.overrun());
    assert_eq!(clock.delivered(), 350);
    // One receive spanning several messages completes all of them.
    let mut clock = MsgClock::new();
    for _ in 0..4 {
        clock.push(10);
    }
    assert_eq!(clock.advance(35), 0..3);
    assert_eq!(clock.advance(10), 3..4);
    assert!(clock.overrun(), "5 bytes more than were sent");
}

#[test]
fn pattern_is_payload_byte_outside_its_position_stamps() {
    let pattern = Pattern::new(77, 5);
    let mut buf = vec![0u8; 1000];
    pattern.fill(12_345, &mut buf);
    let mut stamps = Vec::new();
    for (i, &b) in buf.iter().enumerate() {
        let off = 12_345 + i as u64;
        if off % STAMP_PERIOD < STAMP_LEN {
            stamps.push(b);
        } else {
            assert_eq!(b, payload_byte(77, 5, off));
        }
    }
    // Four whole stamps fall in the range, each one different.
    assert_eq!(stamps.len(), 4 * STAMP_LEN as usize);
    let mut distinct: Vec<&[u8]> = stamps.chunks(STAMP_LEN as usize).collect();
    distinct.dedup();
    assert_eq!(distinct.len(), 4);
    // Filling piecewise gives the same bytes, stamps cut in two included.
    let mut pieces = vec![0u8; 1000];
    for (k, chunk) in pieces.chunks_mut(13).enumerate() {
        pattern.fill(12_345 + 13 * k as u64, chunk);
    }
    assert_eq!(pieces, buf);
    assert_eq!(pattern.first_mismatch(12_345, &buf), None);
    buf[700] ^= 1;
    assert_eq!(pattern.first_mismatch(12_345, &buf), Some(12_345 + 700));
}

fn stream(seed: u64, conn: usize, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    Pattern::new(seed, conn).fill(0, &mut bytes);
    bytes
}

#[test]
fn clean_stream_passes_both_checks_whatever_the_split() {
    let (seed, conn, total) = (9, 3, 5000u64);
    let bytes = stream(seed, conn, total as usize);
    let mut rx = RxStream::new(seed, conn, true);
    rx.push(total);
    let mut ledger = Ledger::default();
    ledger.attempt(1);
    for chunk in bytes.chunks(777) {
        rx.receive(chunk, 0u64, &mut ledger);
    }
    rx.finish(seed, &mut ledger);
    assert_eq!(ledger.failed(), 0);
    assert_eq!(
        rx.check.digest(),
        Some(expected_digest(seed, conn, total)),
        "stamps read back as payload_byte"
    );
}

#[test]
fn a_corrupted_receive_counts_as_a_failed_op() {
    let (seed, conn) = (4, 1);
    let mut bytes = stream(seed, conn, 4096);
    bytes[3000] = bytes[3000].wrapping_add(1);
    let mut rx = RxStream::new(seed, conn, true);
    for _ in 0..4 {
        rx.push(1024);
    }
    let mut ledger = Ledger::default();
    ledger.attempt(4);
    assert_eq!(rx.receive(&bytes[..2048], 1u64, &mut ledger), 2);
    assert_eq!(ledger.failed(), 0);
    assert_eq!(rx.receive(&bytes[2048..], 2u64, &mut ledger), 2);
    assert_eq!(rx.check.first_bad, Some(3000));
    assert_eq!(rx.delivered_at, vec![1, 1, 2, 2]);
    // The digest of the corrupted stream no longer matches either.
    rx.finish(seed, &mut ledger);
    assert_eq!(ledger.failed(), 2);
    assert_eq!(ledger.by_kind[&Failure::Corrupt], 1);
    assert_eq!(ledger.by_kind[&Failure::Digest], 1);
    assert!((ledger.fail_ratio() - 0.5).abs() < 1e-12);
}

#[test]
fn a_block_displaced_by_a_payload_period_counts_as_corrupt() {
    let (seed, conn) = (6, 2);
    let good = stream(seed, conn, 64 << 10);
    // The 4 KiB block from offset 4096 lands at 8192 too, as a
    // misplaced aligned write would put it; and two 256 B blocks swap.
    let mut moved = good.clone();
    moved.copy_within(4096..8192, 8192);
    let mut swapped = good.clone();
    let (a, b) = swapped.split_at_mut(20 * 256);
    a[19 * 256..].swap_with_slice(&mut b[..256]);
    // Each 1500 B receive holding a wrong byte is one corrupt delivery.
    for (bad, first, receives) in [(moved, 8192u64, 4), (swapped, 19 * 256, 1)] {
        // payload_byte repeats every 256 bytes: content alone passes.
        assert!(bad
            .iter()
            .enumerate()
            .all(|(off, &b)| off as u64 % STAMP_PERIOD < STAMP_LEN
                || b == payload_byte(seed, conn, off as u64)));
        let mut rx = RxStream::new(seed, conn, false);
        rx.push(bad.len() as u64);
        let mut ledger = Ledger::default();
        ledger.attempt(1);
        for chunk in bad.chunks(1500) {
            rx.receive(chunk, 0u64, &mut ledger);
        }
        assert_eq!(rx.check.first_bad, Some(first));
        assert_eq!(ledger.by_kind[&Failure::Corrupt], receives);
    }
}

#[test]
fn bytes_beyond_those_sent_count_as_corrupt() {
    let mut rx = RxStream::new(1, 0, false);
    rx.push(100);
    let mut ledger = Ledger::default();
    ledger.attempt(1);
    rx.receive(&stream(1, 0, 150), 0u64, &mut ledger);
    assert_eq!(ledger.failed(), 0);
    rx.finish(1, &mut ledger);
    assert_eq!(ledger.by_kind[&Failure::Corrupt], 1);
}

#[test]
fn an_over_capacity_report_counts_as_a_failed_op() {
    let mut ledger = Ledger::default();
    ledger.attempt(100);
    ledger.check_capacity(0.61);
    ledger.check_capacity(1.005);
    assert_eq!(
        ledger.failed(),
        0,
        "within line rate and its rounding headroom"
    );
    ledger.check_capacity(4.8);
    assert_eq!(ledger.failed(), 1);
    assert_eq!(ledger.by_kind[&Failure::OverCapacity], 1);
    ledger.check_capacity(f64::NAN);
    assert_eq!(ledger.failed(), 2, "an unmeasurable ratio is not a pass");
}

fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// Folds a made-up simulated repetition: `sent` messages of 1000 bytes,
/// one per microsecond, of which `delivered` arrive `lat_us` later, on
/// a 10 Gbit/s link.
fn fold_made_up(
    sent: usize,
    delivered: usize,
    lat_us: u64,
    tx: ConnStats,
    rx: ConnStats,
) -> perfbench::metrics::Rep {
    let profile = rdma_verbs::profiles::fdr_infiniband();
    let (net, nodes) = simrun::new_net(1, 0, &profile, 2);
    let sent_at: Vec<SimTime> = (0..sent as u64).map(at_us).collect();
    let done_at: Vec<SimTime> = sent_at[..delivered]
        .iter()
        .map(|&t| t + SimDuration::from_micros(lat_us))
        .collect();
    let end = simrun::SimEnd {
        setup_s: 0.0,
        ran: simrun::Ran {
            outcome: RunOutcome {
                end: at_us(10_000),
                completed: delivered == sent,
                events: 1,
            },
            wall_s: 1.0,
            expired: false,
        },
        attempted: sent,
        streams: vec![(&sent_at, &done_at)],
        payload_bytes: delivered as u64 * 1000,
        rx_bytes: delivered as u64 * 1000,
        tx,
        rx,
        tx_nodes: vec![nodes[0]],
        rx_node: nodes[1],
        bandwidth_bps: 10_000_000_000,
        roles: &["client", "server"],
    };
    let mut ledger = Ledger::default();
    ledger.attempt(sent as u64);
    simrun::fold(&net, end, ledger)
}

#[test]
fn the_simulated_fold_counts_stalls_and_over_capacity() {
    // 1000 B per microsecond is 8 Gbit/s: within the link.
    let rep = fold_made_up(100, 100, 5, ConnStats::default(), ConnStats::default());
    assert_eq!(rep.ledger.failed(), 0);
    let sim = rep.sim.expect("simulated figures");
    assert_eq!(sim.lat_ns.p50, Some(5_000));
    assert_eq!(sim.span_ns, 104_000);
    // Three messages never arrive.
    let rep = fold_made_up(100, 97, 5, ConnStats::default(), ConnStats::default());
    assert_eq!(rep.ledger.by_kind[&Failure::Stall], 3);
    // 1000 B every 100 ns would be 80 Gbit/s on a 10 Gbit/s link.
    let profile = rdma_verbs::profiles::fdr_infiniband();
    let (net, nodes) = simrun::new_net(1, 0, &profile, 2);
    let sent_at: Vec<SimTime> = (0..100)
        .map(|i| SimTime::ZERO + SimDuration::from_nanos(100 * i))
        .collect();
    let end = simrun::SimEnd {
        setup_s: 0.0,
        ran: simrun::Ran {
            outcome: RunOutcome {
                end: at_us(100),
                completed: true,
                events: 1,
            },
            wall_s: 1.0,
            expired: false,
        },
        attempted: 100,
        streams: vec![(&sent_at, &sent_at)],
        payload_bytes: 100_000,
        rx_bytes: 100_000,
        tx: ConnStats::default(),
        rx: ConnStats::default(),
        tx_nodes: vec![nodes[0]],
        rx_node: nodes[1],
        bandwidth_bps: 10_000_000_000,
        roles: &["client", "server"],
    };
    let rep = simrun::fold(&net, end, Ledger::default());
    assert_eq!(rep.ledger.by_kind[&Failure::OverCapacity], 1);
}

#[test]
fn the_simulated_fold_counts_protocol_errors_and_cq_overflows() {
    let tx = ConnStats {
        protocol_errors: 3,
        ..ConnStats::default()
    };
    let rx = ConnStats {
        cq_overflowed: true,
        ..ConnStats::default()
    };
    let rep = fold_made_up(50, 50, 5, tx, rx);
    assert_eq!(rep.ledger.by_kind[&Failure::ProtocolError], 3);
    assert_eq!(rep.ledger.by_kind[&Failure::CqOverflow], 1);
    assert_eq!(rep.ledger.failed(), 4);
}

#[test]
fn failed_ops_never_exceed_attempts_and_merge() {
    let mut ledger = Ledger::default();
    ledger.attempt(50);
    ledger.fail(Failure::Stall, 7, "7 messages undelivered");
    assert_eq!(ledger.failed(), 7);
    // One op can fail several checks; the count never exceeds attempts.
    ledger.fail(Failure::Stall, 100, "everything");
    assert_eq!(ledger.failed(), 50);
    let mut total = Ledger::default();
    total.merge(&ledger);
    assert_eq!((total.attempted, total.failed()), (50, 50));
}

fn sim_rep(goodput_gbps: f64, ops: u64) -> perfbench::metrics::Rep {
    perfbench::metrics::Rep {
        ops,
        sim: Some(SimFigures {
            goodput_gbps,
            lat_ns: Percentiles::of(ramp(100)),
            cpu_rx_ns_per_kib: 1.0,
            cpu_tx_ns_per_kib: 1.0,
            events: 10,
            span_ns: 1000,
        }),
        ..Default::default()
    }
}

#[test]
fn a_repetition_that_differs_from_the_first_fails_its_ops() {
    let mut ledger = Ledger::default();
    ledger.attempt(300);
    let same = vec![
        (false, sim_rep(1.5, 100)),
        (false, sim_rep(1.5, 100)),
        (true, sim_rep(1.5, 100)),
    ];
    run::check_determinism(&same, &mut ledger);
    assert_eq!(ledger.failed(), 0);
    let differs = vec![(false, sim_rep(1.5, 100)), (true, sim_rep(1.5000001, 100))];
    run::check_determinism(&differs, &mut ledger);
    assert_eq!(ledger.by_kind[&Failure::Nondeterminism], 100);
}

#[test]
fn a_panicking_repetition_counts_as_failed() {
    let mut ledger = Ledger::default();
    let ok = run::guarded(&mut ledger, || {
        let mut rep = sim_rep(1.0, 5);
        rep.ledger.attempt(5);
        rep
    });
    assert!(ok.is_some());
    assert_eq!((ledger.attempted, ledger.failed()), (5, 0));
    let gone = run::guarded(&mut ledger, || panic!("workload broke"));
    assert!(gone.is_none());
    assert_eq!((ledger.attempted, ledger.failed()), (6, 1));
    assert_eq!(ledger.by_kind[&Failure::Panic], 1);
    assert!(ledger.notes[0].contains("workload broke"));
}

#[test]
fn self_time_subtracts_nested_children() {
    let mut t = Tracer::new(std::time::Instant::now());
    // run [0,100] { wake [10,40] { send [20,30] } verify [50,90] }
    t.open_at(Layer::Simnet, "SimNet::run", None, 0);
    t.open_at(Layer::Exs, "StreamSocket::handle_wake", None, 10);
    t.open_at(Layer::Verbs, "post", Some(7), 20);
    t.close_at(30);
    t.close_at(40);
    t.open_at(Layer::Bench, "bench::verify", Some(7), 50);
    t.close_at(90);
    t.close_at(100);
    let spans = t.spans();
    let selfs: Vec<u64> = spans.iter().map(|s| s.self_ns()).collect();
    assert_eq!(selfs, vec![30, 20, 10, 40]);
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[3].parent, Some(0));
    assert_eq!(spans[0].parent, None);
    let by_layer = self_time_by_layer(spans);
    assert_eq!(by_layer[&Layer::Simnet], 30);
    assert_eq!(by_layer[&Layer::Exs], 20);
    assert_eq!(by_layer[&Layer::Verbs], 10);
    assert_eq!(by_layer[&Layer::Bench], 40);
    // Self times add up to the root's wall time.
    assert_eq!(by_layer.values().sum::<u64>(), 100);
}

#[test]
fn chrome_trace_has_a_named_track_per_thread_and_rebased_parents() {
    let epoch = std::time::Instant::now();
    let mut a = Tracer::new(epoch);
    a.open_at(Layer::Aio, "Executor::turn", None, 1_000);
    a.open_at(Layer::Bench, "bench::verify", Some(3), 1_500);
    a.close_at(2_000);
    a.close_at(3_000);
    let mut b = Tracer::new(epoch);
    b.set_track(1);
    b.open_at(Layer::Aio, "ThreadNode::wait_any", None, 0);
    b.close_at(500);
    let mut tl = Timeline::default();
    tl.absorb(a);
    tl.absorb(b);
    tl.name_track(0, "server \"thread\"");
    tl.name_track(1, "client thread");
    assert_eq!(tl.spans[1].parent, Some(0));
    assert_eq!(tl.spans[2].parent, None);
    let json = tl.to_chrome_json(usize::MAX);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    assert!(json.contains("\"name\":\"thread_name\",\"args\":{\"name\":\"server \\\"thread\\\"\"}"));
    assert!(json.contains("\"tid\":1,\"name\":\"ThreadNode::wait_any\""));
    assert!(json.contains("\"ts\":1.500,\"dur\":0.500,\"args\":{\"id\":1,\"parent\":0,\"op\":3}"));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    assert_eq!(tl.to_chrome_json(1).matches("\"ph\":\"X\"").count(), 1);
}

#[test]
fn declared_metrics_match_what_the_benchmark_reports() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let count = |s: &str| declared.matches(s).count();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(count(&entry), 1, "BENCHMARK.json must declare {entry} once");
    }
    assert_eq!(
        count("\"better\""),
        END_TO_END.len() + PER_LAYER.len(),
        "no metric is declared that the benchmark does not report"
    );
    // The simulated workloads are declared; thread_fanin's host-clock
    // figures move more between runs than any bound allows, so it is
    // run by hand.
    for w in perfbench::Workload::ALL {
        let declared = count(&format!("{{\"name\": \"{}\"", w.name()));
        assert_eq!(declared, usize::from(w.simulated()), "{}", w.name());
    }
}
