//! `thread_fanin`: 64 connections of 16 KiB messages from one client
//! thread into one `exs::aio` server thread over the real-thread
//! fabric.
//!
//! The server runs one task per connection with readahead buffers
//! leased from the executor's `MemPool`, driven by this module's own
//! loop of `Executor::turn` and `ThreadNode::wait_any`. With
//! `ThreadNet`'s two link delivery threads (the emulated NIC) that is
//! four OS threads, and the only workload whose goodput is real host
//! time: the node-wide HCA lock, the link threads, the executor and
//! the pool all sit on its path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use blast::fan_in::expected_digest;
use exs::threaded::connect_sockets_shared;
use exs::{
    AioStats, ConnStats, DirectPolicy, Executor, ExsConfig, ExsError, MemPool, MemPoolConfig,
    PoolStats, Reactor, ReactorConfig, ReactorStats, ThreadPort,
};
use rdma_verbs::{Access, HcaConfig, ThreadNet, ThreadNode};

use crate::measure::{Failure, Ledger, Pattern, StreamCheck};
use crate::metrics::{protocol_counters, ratio, Rep};
use crate::procfs;
use crate::trace::{self, Layer, Timeline, Tracer};
use crate::RepMode;

/// Connections from the client thread into the server.
pub const CONNS: usize = 64;
/// Bytes per message.
pub const MSG_LEN: usize = 16 << 10;
/// Readahead receives each server task keeps posted.
const DEPTH: usize = 2;
const SERVER_TRACK: u32 = 0;
const CLIENT_TRACK: u32 = 1;

fn config() -> ExsConfig {
    ExsConfig {
        ring_capacity: 64 << 10,
        credits: 16,
        sq_depth: 16,
        direct: DirectPolicy {
            min_direct_size: 4 << 10,
            ..DirectPolicy::default()
        },
        ..ExsConfig::default()
    }
}

/// Turns the executor until every task finished and nothing is left
/// to send, parking on the node's completion generation in between.
/// Returns false if `deadline` passed first.
fn drive(
    ex: &mut Executor,
    net: &ThreadNet,
    node: &Arc<ThreadNode>,
    epoch: Instant,
    deadline: Instant,
) -> bool {
    let mut seen = node.generation();
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        let next = trace::span(Layer::Aio, "Executor::turn", || {
            ex.turn(&mut ThreadPort::new(net, node), now)
        });
        if ex.drained() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        if ex.with_reactor(|r| r.has_backlog()) {
            continue;
        }
        let now = epoch.elapsed().as_nanos() as u64;
        let wait = next
            .map(|d| Duration::from_nanos(d.saturating_sub(now).max(1)))
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(50));
        seen = trace::span(Layer::Aio, "ThreadNode::wait_any", || {
            node.wait_any(seen, wait)
        });
    }
}

/// Every connection's counters, CQ pressure included.
fn conn_stats(r: &mut Reactor, net: &ThreadNet, node: &Arc<ThreadNode>) -> ConnStats {
    let port = ThreadPort::new(net, node);
    for id in r.conn_ids() {
        r.conn_mut(id).sync_cq_stats(&port);
    }
    r.aggregate_conn_stats()
}

/// What the client thread hands back.
struct ClientResult {
    sent_at: Vec<Vec<Instant>>,
    stats: ConnStats,
    finished: bool,
    tracer: Option<Tracer>,
}

/// One server connection's receive side.
struct ConnRx {
    check: StreamCheck,
    delivered_at: Vec<Instant>,
}

/// What the server side measured.
struct ServerResult {
    setup_s: f64,
    window_start: Instant,
    finished: bool,
    reactor: ReactorStats,
    stats: ConnStats,
    aio: AioStats,
    pool: PoolStats,
    conns: Vec<ConnRx>,
    ledger: Ledger,
}

/// The client thread: one task per connection sending whole messages
/// until the window closes, then shutting down and awaiting the
/// server's end of stream.
fn client_side(
    seed: u64,
    reactor: Reactor,
    net: &ThreadNet,
    node: &Arc<ThreadNode>,
    barrier: &Barrier,
    mode: &RepMode,
    epoch: Instant,
) -> ClientResult {
    if mode.traced {
        trace::start(epoch);
        trace::set_track(CLIENT_TRACK);
    }
    let conns = reactor.conn_ids();
    let mut ex = trace::span(Layer::Aio, "Executor::new", || Executor::new(reactor));
    let stop = Rc::new(RefCell::new(None::<Instant>));
    let sent_at: Rc<RefCell<Vec<Vec<Instant>>>> = Rc::new(RefCell::new(vec![Vec::new(); CONNS]));
    for (i, &conn) in conns.iter().enumerate() {
        let stream = ex.handle().stream_with(conn, MSG_LEN as u32, DEPTH);
        let (stop, sent_at) = (Rc::clone(&stop), Rc::clone(&sent_at));
        let pattern = Pattern::new(seed, i);
        trace::span(Layer::Aio, "AioHandle::spawn", || {
            ex.handle().spawn(async move {
                let stop = stop.borrow().expect("the window opens before tasks run");
                let mut pos = 0u64;
                while Instant::now() < stop {
                    let mut data = vec![0u8; MSG_LEN];
                    trace::span(Layer::Bench, "bench::fill", || pattern.fill(pos, &mut data));
                    sent_at.borrow_mut()[i].push(Instant::now());
                    if stream.send_all(data).await.is_err() {
                        return;
                    }
                    pos += MSG_LEN as u64;
                }
                if stream.shutdown().await.is_ok() {
                    // Wait for the server's end of stream.
                    let _ = stream.recv_some(1).await;
                }
            })
        });
    }
    barrier.wait();
    let window = if mode.setup_only {
        Duration::ZERO
    } else {
        mode.window
    };
    *stop.borrow_mut() = Some(Instant::now() + window);
    let finished = drive(&mut ex, net, node, epoch, mode.deadline);
    let stats = ex.with_reactor(|r| conn_stats(r, net, node));
    drop(ex);
    let sent_at = Rc::try_unwrap(sent_at)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| rc.borrow().clone());
    ClientResult {
        sent_at,
        stats,
        finished,
        tracer: trace::finish(),
    }
}

/// The server thread: one task per connection checking every byte.
#[allow(clippy::too_many_arguments)]
fn server_side(
    seed: u64,
    reactor: Reactor,
    net: &ThreadNet,
    node: &Arc<ThreadNode>,
    barrier: &Barrier,
    mode: &RepMode,
    epoch: Instant,
    setup_start: Instant,
) -> ServerResult {
    let conn_ids = reactor.conn_ids();
    let pool = MemPool::new(MemPoolConfig::default());
    trace::span(Layer::Mempool, "MemPool::prewarm", || {
        pool.prewarm(
            &mut ThreadPort::new(net, node),
            CONNS * DEPTH,
            MSG_LEN,
            Access::local_remote_write(),
        )
    });
    let mut ex = trace::span(Layer::Aio, "Executor::with_pool", || {
        Executor::with_pool(reactor, pool.clone())
    });
    let conns: Rc<RefCell<Vec<ConnRx>>> = Rc::new(RefCell::new(
        (0..CONNS)
            .map(|i| ConnRx {
                check: StreamCheck::new(seed, i, mode.digest),
                delivered_at: Vec::new(),
            })
            .collect(),
    ));
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    for (i, &conn) in conn_ids.iter().enumerate() {
        let stream = ex.handle().stream_with(conn, MSG_LEN as u32, DEPTH);
        let (conns, ledger) = (Rc::clone(&conns), Rc::clone(&ledger));
        trace::span(Layer::Aio, "AioHandle::spawn", || {
            ex.handle().spawn(async move {
                loop {
                    match stream.recv_some(MSG_LEN).await {
                        Ok(bytes) => {
                            let now = Instant::now();
                            let mut conns = conns.borrow_mut();
                            let c = &mut conns[i];
                            let before = c.check.offset() / MSG_LEN as u64;
                            let op = (i as u64) << 32 | before;
                            let ok =
                                trace::span_op(Layer::Bench, "bench::verify", Some(op), || {
                                    c.check.deliver(&bytes)
                                });
                            if !ok {
                                ledger.borrow_mut().fail(
                                    Failure::Corrupt,
                                    1,
                                    format!("conn {i} at {:?}", c.check.first_bad),
                                );
                            }
                            // Messages are fixed-size, so the byte offset
                            // says which ones this delivery completed.
                            let after = c.check.offset() / MSG_LEN as u64;
                            c.delivered_at.extend((before..after).map(|_| now));
                        }
                        Err(ExsError::Eof) => break,
                        Err(e) => {
                            ledger.borrow_mut().fail(
                                Failure::ProtocolError,
                                1,
                                format!("conn {i}: {e}"),
                            );
                            return;
                        }
                    }
                }
                let _ = stream.shutdown().await;
            })
        });
    }
    barrier.wait();
    let setup_s = setup_start.elapsed().as_secs_f64();
    let window_start = Instant::now();
    let finished = drive(&mut ex, net, node, epoch, mode.deadline);
    let (reactor, stats) = ex.with_reactor(|r| (r.stats().clone(), conn_stats(r, net, node)));
    let aio = ex.stats();
    drop(ex);
    fn take<T>(rc: Rc<RefCell<T>>) -> T {
        Rc::try_unwrap(rc)
            .ok()
            .expect("tasks are dropped with the executor")
            .into_inner()
    }
    ServerResult {
        setup_s,
        window_start,
        finished,
        reactor,
        stats,
        aio,
        pool: pool.stats(),
        conns: take(conns),
        ledger: take(ledger),
    }
}

/// One repetition of `thread_fanin` for `seed`.
pub fn rep(seed: u64, mode: &RepMode) -> Rep {
    let cfg = config();
    let epoch = Instant::now();
    if mode.traced {
        trace::start(epoch);
        trace::set_track(SERVER_TRACK);
    }
    let server_tid = procfs::thread_id();

    let setup_start = Instant::now();
    let (net, server, client, server_reactor, client_reactor) =
        trace::span(Layer::App, "bench::setup", || {
            let mut net = trace::span(Layer::Verbs, "ThreadNet::new", ThreadNet::new);
            let (server, client) = trace::span(Layer::Verbs, "ThreadNet::add_node", || {
                (
                    net.add_node(HcaConfig::default()),
                    net.add_node(HcaConfig::default()),
                )
            });
            trace::span(Layer::Verbs, "ThreadNet::connect_nodes", || {
                net.connect_nodes(&client, &server, Duration::ZERO)
            });
            let depth = (cfg.sq_depth * 2 + cfg.credits as usize * 2) * CONNS;
            let cqs = |node: &Arc<ThreadNode>| {
                trace::span(Layer::Verbs, "HcaCore::create_cq", || {
                    node.with_hca(|h| (h.create_cq(depth), h.create_cq(depth)))
                })
            };
            let (s_cqs, c_cqs) = (cqs(&server), cqs(&client));
            let mut s_reactor = trace::span(Layer::Reactor, "Reactor::new", || {
                Reactor::new(s_cqs.0, s_cqs.1, ReactorConfig::default())
            });
            let mut c_reactor = trace::span(Layer::Reactor, "Reactor::new", || {
                Reactor::new(c_cqs.0, c_cqs.1, ReactorConfig::default())
            });
            for _ in 0..CONNS {
                let (c_sock, s_sock) = trace::span(Layer::Exs, "connect_sockets_shared", || {
                    connect_sockets_shared(&client, &server, &cfg, Some(c_cqs), Some(s_cqs))
                });
                trace::span(Layer::Reactor, "Reactor::accept", || {
                    s_reactor.accept(s_sock);
                    c_reactor.accept(c_sock);
                });
            }
            (net, server, client, s_reactor, c_reactor)
        });

    let barrier = Barrier::new(2);
    let (client_res, srv) = std::thread::scope(|scope| {
        let client_thread =
            scope.spawn(|| client_side(seed, client_reactor, &net, &client, &barrier, mode, epoch));
        let srv = server_side(
            seed,
            server_reactor,
            &net,
            &server,
            &barrier,
            mode,
            epoch,
            setup_start,
        );
        (client_thread.join(), srv)
    });
    // Every thread left in the process besides this one is a link
    // delivery thread: their CPU is the emulated NIC's.
    let all_cpu = procfs::all_threads_cpu_ns();
    let nic_cpu_ns: u64 = all_cpu
        .iter()
        .filter(|(tid, _)| Some(*tid) != server_tid)
        .map(|(_, ns)| ns)
        .sum();
    net.quiesce();
    drop(net);

    let mut ledger = srv.ledger;
    let mut timeline = trace::finish().map(|t| {
        let mut tl = Timeline::default();
        tl.absorb(t);
        tl.name_track(SERVER_TRACK, "server thread (aio executor)");
        tl.name_track(CLIENT_TRACK, "client thread (aio executor)");
        tl
    });
    let (sent_at, tx) = match client_res {
        Ok(c) => {
            if let (Some(tl), Some(t)) = (timeline.as_mut(), c.tracer) {
                tl.absorb(t);
            }
            if !c.finished {
                ledger.fail(Failure::Stall, 1, "client did not finish by the deadline");
            }
            (c.sent_at, c.stats)
        }
        Err(_) => {
            ledger.attempt(1);
            ledger.fail(Failure::Panic, 1, "client thread panicked");
            (vec![Vec::new(); CONNS], ConnStats::default())
        }
    };

    let sent: usize = sent_at.iter().map(Vec::len).sum();
    ledger.attempt(sent as u64);
    let mut lat = Vec::with_capacity(sent);
    let mut delivered_msgs = 0usize;
    let mut last = srv.window_start;
    for (i, (c, s)) in srv.conns.iter().zip(&sent_at).enumerate() {
        delivered_msgs += c.delivered_at.len().min(s.len());
        if c.delivered_at.len() > s.len() {
            ledger.fail(
                Failure::Corrupt,
                1,
                format!("conn {i}: more messages than sent"),
            );
        }
        lat.extend(
            c.delivered_at
                .iter()
                .zip(s)
                .map(|(d, t)| d.saturating_duration_since(*t).as_nanos() as u64),
        );
        if let Some(&t) = c.delivered_at.last() {
            last = last.max(t);
        }
        let bytes = c.check.offset();
        if bytes % MSG_LEN as u64 != 0 {
            ledger.fail(
                Failure::Stall,
                1,
                format!("conn {i}: stream ends inside a message"),
            );
        }
        if let Some(got) = c.check.digest() {
            ledger.check_digest(i, got, expected_digest(seed, i, bytes));
        }
    }
    if delivered_msgs < sent {
        ledger.fail(
            Failure::Stall,
            (sent - delivered_msgs) as u64,
            format!(
                "{delivered_msgs}/{sent} messages delivered (server finished: {})",
                srv.finished
            ),
        );
    }
    ledger.check_endpoint("client", tx.protocol_errors, tx.cq_overflowed);
    ledger.check_endpoint("server", srv.stats.protocol_errors, srv.stats.cq_overflowed);

    let delivered = delivered_msgs as u64 * MSG_LEN as u64;
    let mut layer = BTreeMap::new();
    protocol_counters(
        &tx,
        &srv.stats,
        delivered_msgs as u64,
        delivered,
        &mut layer,
    );
    layer.insert("verbs.nic_thread_cpu_s", nic_cpu_ns as f64 / 1e9);
    layer.insert(
        "reactor.cqes_per_poll",
        ratio(srv.reactor.cqes_dispatched as f64, srv.reactor.polls as f64),
    );
    layer.insert("reactor.deferrals", srv.reactor.deferrals as f64);
    layer.insert("aio.polls_per_wakeup", srv.aio.polls_per_wake());
    layer.insert("aio.spurious_ratio", srv.aio.spurious_wake_ratio());
    layer.insert("mempool.hit_ratio", srv.pool.hit_rate());
    layer.insert("mempool.registrations", srv.pool.registrations as f64);
    layer.insert(
        "mempool.pinned_peak_mib",
        srv.pool.pinned_peak as f64 / (1 << 20) as f64,
    );

    Rep {
        setup_s: srv.setup_s,
        wall_s: last
            .saturating_duration_since(srv.window_start)
            .as_secs_f64(),
        ops: delivered_msgs as u64,
        payload_bytes: delivered,
        sim: None,
        wall_lat_ns: lat,
        layer,
        ledger,
        timeline,
        rx_tracks: vec![SERVER_TRACK],
    }
}
