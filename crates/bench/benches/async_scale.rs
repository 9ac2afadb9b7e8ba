//! Async-executor scalability sweep — 1k / 10k concurrent tasks on one
//! service thread, against the callback-mode fan-in baseline.
//!
//! The question this answers: does writing the server as 10k `async`
//! tasks awaiting `recv_some` on one [`exs::aio`] executor cost
//! anything against the hand-rolled callback reactor loop? The async
//! layer adds a waker registry, op queue, and per-task state machine on
//! top of the same reactor — the gate pins that overhead to noise.
//!
//! CI gates (exit non-zero on violation):
//!
//! * at every scale, the async server's delivered digests must equal
//!   the callback server's digests and the closed-form expected digest
//!   (the consumption model may never change the bytes);
//! * at 10k tasks, async aggregate throughput must stay ≥ 0.9× the
//!   callback-mode baseline at the same connection count;
//! * on the real-thread backend, every task must complete on the single
//!   service thread, digest-exact;
//! * no snapshot may report more than the server NIC's line rate.
//!
//! Snapshots land in `bench-results/async_scale_{1k,10k}.json`. Quick
//! mode (`EXS_BENCH_QUICK=1`) runs both scales on the simulator but
//! shrinks the threaded demonstration to 1k tasks.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use blast::fan_in::{expected_digest, payload_byte, FNV_OFFSET};
use blast::{run_fan_in, FanInSpec, ServerKind, VerifyLevel};
use exs::threaded::connect_sockets_shared;
use exs::{Executor, ExsConfig, ExsError, Reactor, ReactorConfig};
use exs_bench::{check_capacity, quick, write_snapshot};
use rdma_verbs::{profiles, HcaConfig, ThreadNet};

const SEED: u64 = 29;
const MSGS: usize = 4;
const MSG_LEN: u64 = 4 << 10;

fn spec_for(conns: usize, server: ServerKind) -> FanInSpec {
    FanInSpec {
        server,
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

/// 10k tasks on one real service thread: N streams spread over a few
/// client-node executors, every server-side connection one async task
/// on a single shared-CQ executor thread. Returns (digests, wall
/// seconds) for the transfer phase.
fn threaded_fan_in(conns: usize, client_threads: usize) -> (Vec<u64>, f64) {
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
    let (scq, rcq) =
        server_node.with_hca(|h| (h.create_cq(per_conn * conns), h.create_cq(per_conn * conns)));
    let client_cqs: Vec<_> = client_nodes
        .iter()
        .map(|c| {
            let depth = per_conn * conns.div_ceil(client_threads);
            c.with_hca(|h| (h.create_cq(depth), h.create_cq(depth)))
        })
        .collect();

    let mut server_reactor = Reactor::new(scq, rcq, ReactorConfig::default());
    // client thread index -> that thread's (global conn idx, socket)s
    let mut per_client: Vec<Vec<(usize, exs::StreamSocket)>> =
        (0..client_threads).map(|_| Vec::new()).collect();
    for idx in 0..conns {
        let t = idx % client_threads;
        let (csock, ssock) = connect_sockets_shared(
            &client_nodes[t],
            &server_node,
            &cfg,
            Some(client_cqs[t]),
            Some((scq, rcq)),
        );
        server_reactor.accept(ssock);
        per_client[t].push((idx, csock));
    }
    let net = Arc::new(net);
    let start = Instant::now();

    let server = {
        let net = Arc::clone(&net);
        let node = Arc::clone(&server_node);
        std::thread::spawn(move || {
            let conn_ids = server_reactor.conn_ids();
            let mut ex = Executor::new(server_reactor);
            let digests: Vec<Rc<RefCell<u64>>> = (0..conn_ids.len())
                .map(|_| Rc::new(RefCell::new(FNV_OFFSET)))
                .collect();
            for (i, &conn) in conn_ids.iter().enumerate() {
                let stream = ex.handle().stream_with(conn, MSG_LEN as u32, 2);
                let digest = Rc::clone(&digests[i]);
                ex.handle().spawn(async move {
                    loop {
                        match stream.recv_some(MSG_LEN as usize).await {
                            Ok(bytes) => {
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
            digests
                .into_iter()
                .map(|d| *d.borrow())
                .collect::<Vec<u64>>()
        })
    };

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
    let digests = server.join().expect("server thread");
    let wall = start.elapsed().as_secs_f64();
    net.quiesce();
    (digests, wall)
}

fn main() {
    let scales: &[(usize, &str)] = &[(1_000, "1k"), (10_000, "10k")];
    let mut violations = 0u32;

    println!();
    println!(
        "=== async_scale: N async tasks on one service thread vs callback server (FDR IB) ==="
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>8} {:>9} {:>11}",
        "tasks", "mode", "Mbit/s", "wakeups", "polls/w", "ratio", "digests"
    );

    for &(tasks, tag) in scales {
        let callback = run_fan_in(&spec_for(tasks, ServerKind::Callback));
        let aio = run_fan_in(&spec_for(tasks, ServerKind::Aio));
        let ratio = if callback.throughput_mbps() > 0.0 {
            aio.throughput_mbps() / callback.throughput_mbps()
        } else {
            1.0
        };
        println!(
            "{:>8} {:>10} {:>12.1} {:>12} {:>8} {:>9} {:>11}",
            tasks,
            "callback",
            callback.throughput_mbps(),
            "-",
            "-",
            "-",
            "-"
        );
        let stats = aio.aio.as_ref().expect("aio run reports executor stats");
        println!(
            "{:>8} {:>10} {:>12.1} {:>12} {:>8.2} {:>8.3}x {:>11}",
            tasks,
            "aio",
            aio.throughput_mbps(),
            stats.wakeups,
            stats.polls as f64 / stats.wakeups.max(1) as f64,
            ratio,
            if aio.digests == callback.digests {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        let name = format!("async_scale_{tag}");
        write_snapshot(&name, &aio.to_json());
        check_capacity(&name, aio.offered_load_ratio());

        if aio.digests != callback.digests {
            eprintln!("VIOLATION: async delivery diverges from the callback server at {tasks}");
            violations += 1;
        }
        let expected_len = MSGS as u64 * MSG_LEN;
        for (i, &d) in aio.digests.iter().enumerate() {
            if d != expected_digest(SEED, i, expected_len) {
                eprintln!("VIOLATION: task {i} of {tasks} delivered a wrong digest");
                violations += 1;
                break;
            }
        }
        if stats.tasks_completed != tasks as u64 {
            eprintln!(
                "VIOLATION: only {} of {tasks} async tasks completed",
                stats.tasks_completed
            );
            violations += 1;
        }
        if tasks == 10_000 && ratio < 0.9 {
            eprintln!(
                "VIOLATION: 10k-task async throughput is {:.3}x the callback baseline (< 0.9x)",
                ratio
            );
            violations += 1;
        }
    }

    // Real-thread backend: the same task code on one actual service
    // thread. No callback twin exists here — the gate is completion
    // and digest identity, the throughput line is context.
    let thr_tasks = if quick() { 1_000 } else { 10_000 };
    let (digests, wall) = threaded_fan_in(thr_tasks, 4);
    let bytes = thr_tasks as u64 * MSGS as u64 * MSG_LEN;
    println!(
        "{:>8} {:>10} {:>12.1} {:>12} {:>8} {:>9} {:>11}",
        thr_tasks,
        "thread",
        bytes as f64 * 8.0 / wall / 1e6,
        "-",
        "-",
        "-",
        "checked"
    );
    let expected_len = MSGS as u64 * MSG_LEN;
    for (i, &d) in digests.iter().enumerate() {
        if d != expected_digest(SEED, i, expected_len) {
            eprintln!("VIOLATION: threaded task {i} delivered a wrong digest");
            violations += 1;
            break;
        }
    }

    println!();
    println!("expected shape: the async server tracks the callback server's throughput");
    println!("within noise at both scales — the waker registry and op queue are O(ready),");
    println!("not O(tasks) — and digests never change with the consumption model.");
    if violations > 0 {
        eprintln!("{violations} async_scale violation(s)");
        std::process::exit(1);
    }
}
