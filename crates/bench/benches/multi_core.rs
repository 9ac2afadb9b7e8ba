//! Multi-core reactor sweep — the same fan-in carried by 1 / 2 / 4 / 8
//! reactor shards, on both backends.
//!
//! The question this answers: does sharding the reactor (PR's
//! `ReactorPool` / `ThreadReactorPool`) actually buy event-loop
//! throughput on real cores, and does it buy it **without changing a
//! single delivered byte**? Per-connection EXS state is independent, so
//! the sharded server must produce digest-for-digest the same streams
//! as the single-loop server and as the deterministic simulator.
//!
//! CI gates (exit non-zero on violation):
//!
//! * at every simulated shard count, delivered digests must equal the
//!   single-shard run's digests and the closed-form expected digest
//!   (placement may never change the bytes);
//! * the simulated placement must be balanced: round-robin imbalance
//!   (max/mean conns per shard) stays 1.0;
//! * on the real-thread backend every shard-count run must be
//!   digest-exact against the same closed form;
//! * with ≥ 4 hardware threads available, 4-shard throughput on the
//!   thread backend must reach ≥ 1.6× the single-shard baseline. On
//!   smaller hosts the gate is skipped (and says so) — there is
//!   nothing to scale onto.
//!
//! Snapshots land in `bench-results/multi_core_{1,2,4,8}shards.json`
//! (simulator runs: full per-shard telemetry rides in the `shards`
//! JSON block); a snapshot above the server NIC's line rate fails the
//! run. Quick mode (`EXS_BENCH_QUICK=1`) runs 512 connections;
//! full mode 2048 simulated / 10k threaded.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use blast::fan_in::{expected_digest, payload_byte, FNV_OFFSET};
use blast::{run_fan_in, FanInSpec, VerifyLevel};
use exs::threaded::connect_sockets_shared;
use exs::{Executor, ExsConfig, ExsError, Reactor, ReactorConfig, ShardBalance};
use exs_bench::{check_capacity, quick, write_snapshot};
use rdma_verbs::{profiles, HcaConfig, ThreadNet};

const SEED: u64 = 31;
const MSGS: usize = 4;
const MSG_LEN: u64 = 16 << 10;
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

fn spec_for(conns: usize, shards: usize) -> FanInSpec {
    FanInSpec {
        shards,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN,
        outstanding_sends: 2,
        prepost_recvs: 2,
        client_nodes: 8,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), conns)
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The threaded fan-in, sharded: one executor service thread per
/// shard, each over its own CQ pair and reactor, connections placed
/// round-robin by global index. Every server task verifies and digests
/// its stream (the per-byte work that shards across cores; the HCA
/// model itself is one lock per node, so an undigested run would only
/// measure that lock). Returns (digests in global order, transfer wall
/// seconds).
fn threaded_sharded_fan_in(conns: usize, shards: usize, client_threads: usize) -> (Vec<u64>, f64) {
    let cfg = ExsConfig {
        ring_capacity: 16 << 10,
        credits: 8,
        sq_depth: 8,
        ..ExsConfig::default()
    };
    let mut net = ThreadNet::new();
    let server_node = net.add_node(HcaConfig::default());
    let client_nodes: Vec<_> = (0..client_threads)
        .map(|_| net.add_node(HcaConfig::default()))
        .collect();
    for c in &client_nodes {
        net.connect_nodes(c, &server_node, std::time::Duration::from_micros(5));
    }
    let per_conn = cfg.sq_depth * 2 + cfg.credits as usize * 2;
    // Full-size CQs per shard: placement skew must never overflow a CQ.
    let shard_cqs: Vec<_> = (0..shards)
        .map(|_| {
            server_node.with_hca(|h| (h.create_cq(per_conn * conns), h.create_cq(per_conn * conns)))
        })
        .collect();
    let client_cqs: Vec<_> = client_nodes
        .iter()
        .map(|c| {
            let depth = per_conn * conns.div_ceil(client_threads);
            c.with_hca(|h| (h.create_cq(depth), h.create_cq(depth)))
        })
        .collect();

    let mut shard_reactors: Vec<Reactor> = shard_cqs
        .iter()
        .map(|&(scq, rcq)| Reactor::new(scq, rcq, ReactorConfig::default()))
        .collect();
    // shard -> global conn indices in accept order (the reactor's conn
    // ids are shard-local; digests report globally).
    let mut shard_idxs: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
    let mut per_client: Vec<Vec<(usize, exs::StreamSocket)>> =
        (0..client_threads).map(|_| Vec::new()).collect();
    for idx in 0..conns {
        let t = idx % client_threads;
        let s = idx % shards;
        let (csock, ssock) = connect_sockets_shared(
            &client_nodes[t],
            &server_node,
            &cfg,
            Some(client_cqs[t]),
            Some(shard_cqs[s]),
        );
        shard_reactors[s].accept(ssock);
        shard_idxs[s].push(idx);
        per_client[t].push((idx, csock));
    }
    let net = Arc::new(net);
    let start = Instant::now();

    let mut servers = Vec::with_capacity(shards);
    for (reactor, idxs) in shard_reactors.into_iter().zip(shard_idxs) {
        let net = Arc::clone(&net);
        let node = Arc::clone(&server_node);
        servers.push(std::thread::spawn(move || {
            let conn_ids = reactor.conn_ids();
            assert_eq!(conn_ids.len(), idxs.len());
            let mut ex = Executor::new(reactor);
            let digests: Vec<Rc<RefCell<u64>>> = (0..conn_ids.len())
                .map(|_| Rc::new(RefCell::new(FNV_OFFSET)))
                .collect();
            for (i, &conn) in conn_ids.iter().enumerate() {
                let stream = ex.handle().stream_with(conn, MSG_LEN as u32, 2);
                let digest = Rc::clone(&digests[i]);
                let idx = idxs[i];
                ex.handle().spawn(async move {
                    let mut pos = 0u64;
                    loop {
                        match stream.recv_some(MSG_LEN as usize).await {
                            Ok(bytes) => {
                                for (i, &b) in bytes.iter().enumerate() {
                                    assert_eq!(
                                        b,
                                        payload_byte(SEED, idx, pos + i as u64),
                                        "conn {idx} corrupted at offset {}",
                                        pos + i as u64
                                    );
                                }
                                pos += bytes.len() as u64;
                                let mut d = digest.borrow_mut();
                                *d = fnv1a(*d, &bytes);
                            }
                            Err(ExsError::Eof) => break,
                            Err(e) => panic!("server task failed: {e}"),
                        }
                    }
                    stream.shutdown().await.expect("server shutdown");
                });
            }
            ex.run_threaded(&net, &node);
            assert_eq!(ex.stats().tasks_completed, conn_ids.len() as u64);
            idxs.into_iter()
                .zip(digests.into_iter().map(|d| *d.borrow()))
                .collect::<Vec<(usize, u64)>>()
        }));
    }

    let mut clients = Vec::with_capacity(client_threads);
    for (t, socks) in per_client.into_iter().enumerate() {
        let net = Arc::clone(&net);
        let node = Arc::clone(&client_nodes[t]);
        clients.push(std::thread::spawn(move || {
            let mut reactor = Reactor::new(
                socks[0].1.send_cq(),
                socks[0].1.recv_cq(),
                ReactorConfig::default(),
            );
            let streams: Vec<_> = socks
                .into_iter()
                .map(|(idx, sock)| (idx, reactor.accept(sock)))
                .collect();
            let mut ex = Executor::new(reactor);
            for (idx, conn) in streams {
                let stream = ex.handle().stream_with(conn, MSG_LEN as u32, 2);
                ex.handle().spawn(async move {
                    for m in 0..MSGS {
                        let base = m * MSG_LEN as usize;
                        let data: Vec<u8> = (0..MSG_LEN as usize)
                            .map(|i| payload_byte(SEED, idx, (base + i) as u64))
                            .collect();
                        stream.send_all(data).await.expect("client send");
                    }
                    stream.shutdown().await.expect("client shutdown");
                    match stream.recv_some(1).await {
                        Err(ExsError::Eof) => {}
                        other => panic!("client {idx} expected EOF, got {other:?}"),
                    }
                });
            }
            ex.run_threaded(&net, &node);
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    let mut digests = vec![0u64; conns];
    for s in servers {
        for (idx, d) in s.join().expect("server shard thread") {
            digests[idx] = d;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    net.quiesce();
    (digests, wall)
}

fn main() {
    let sim_conns = if quick() { 512 } else { 2048 };
    let thr_conns = if quick() { 512 } else { 10_000 };
    let mut violations = 0u32;
    let expected_len = MSGS as u64 * MSG_LEN;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!();
    println!(
        "=== multi_core: fan-in over 1/2/4/8 reactor shards (FDR IB sim + thread backend) ==="
    );
    println!("{sim_conns} simulated conns, {thr_conns} threaded conns, {cores} hardware threads");
    println!(
        "{:>7} {:>8} {:>12} {:>10} {:>10} {:>9} {:>11}",
        "shards", "backend", "Mbit/s", "imbalance", "polls", "speedup", "digests"
    );

    // --- Simulator sweep: digest identity + placement balance. ---
    let mut baseline_digests: Option<Vec<u64>> = None;
    for &shards in SHARD_COUNTS {
        let report = run_fan_in(&spec_for(sim_conns, shards));
        let shard_stats = report
            .shard_stats
            .as_ref()
            .expect("sharded-capable run reports per-shard telemetry");
        assert_eq!(shard_stats.len(), shards);
        let bal = ShardBalance::of(shard_stats);
        let identical = match &baseline_digests {
            None => {
                baseline_digests = Some(report.digests.clone());
                true
            }
            Some(base) => *base == report.digests,
        };
        println!(
            "{:>7} {:>8} {:>12.1} {:>10.3} {:>10} {:>9} {:>11}",
            shards,
            "sim",
            report.throughput_mbps(),
            bal.imbalance(),
            report.reactor.polls,
            "-",
            if identical { "identical" } else { "DIVERGED" },
        );
        let name = format!("multi_core_{shards}shards");
        write_snapshot(&name, &report.to_json());
        check_capacity(&name, report.offered_load_ratio());

        if !identical {
            eprintln!("VIOLATION: {shards}-shard delivery diverges from the single-shard run");
            violations += 1;
        }
        for (i, &d) in report.digests.iter().enumerate() {
            if d != expected_digest(SEED, i, expected_len) {
                eprintln!("VIOLATION: sim conn {i} at {shards} shards delivered a wrong digest");
                violations += 1;
                break;
            }
        }
        // conns is a multiple of every swept shard count, so
        // round-robin placement must come out perfectly even.
        if (bal.imbalance() - 1.0).abs() > 1e-9 {
            eprintln!(
                "VIOLATION: round-robin placement imbalance {:.3} at {shards} shards",
                bal.imbalance()
            );
            violations += 1;
        }
    }

    // --- Thread backend: the actual multi-core scaling measurement. ---
    let mut thr_baseline = None;
    for &shards in SHARD_COUNTS {
        let (digests, wall) = threaded_sharded_fan_in(thr_conns, shards, 4);
        let bytes = thr_conns as u64 * expected_len;
        let mbps = bytes as f64 * 8.0 / wall / 1e6;
        let speedup = match thr_baseline {
            None => {
                thr_baseline = Some(wall);
                1.0
            }
            Some(base) => base / wall,
        };
        let mut ok = true;
        for (i, &d) in digests.iter().enumerate() {
            if d != expected_digest(SEED, i, expected_len) {
                eprintln!(
                    "VIOLATION: threaded conn {i} at {shards} shards delivered a wrong digest"
                );
                violations += 1;
                ok = false;
                break;
            }
        }
        println!(
            "{:>7} {:>8} {:>12.1} {:>10} {:>10} {:>8.2}x {:>11}",
            shards,
            "thread",
            mbps,
            "-",
            "-",
            speedup,
            if ok { "identical" } else { "DIVERGED" },
        );
        if shards == 4 {
            if cores >= 4 {
                if speedup < 1.6 {
                    eprintln!(
                        "VIOLATION: 4-shard throughput is {speedup:.2}x the single-shard \
                         baseline (< 1.6x) on a {cores}-thread host"
                    );
                    violations += 1;
                }
            } else {
                println!(
                    "        scaling gate skipped: only {cores} hardware thread(s); \
                     the 1.6x gate needs >= 4"
                );
            }
        }
    }

    println!();
    println!("expected shape: digests never move with the shard count — placement is");
    println!("routing, not protocol — and on a multi-core host the per-shard service");
    println!("threads verify+digest their streams in parallel, so 4 shards clear 1.6x");
    println!("the single-loop baseline while round-robin keeps the shards level.");
    if violations > 0 {
        eprintln!("{violations} multi_core violation(s)");
        std::process::exit(1);
    }
}
