//! `mux_fanin`: 1024 small-message streams from 8 simulated client
//! nodes into one server, multiplexed over `exs::mux` pooled QPs and
//! served by one reactor.
//!
//! Message sizes are uniform from 64 B to 8 KiB, so about half fall
//! below the 4 KiB direct threshold; each stream keeps 2 sends
//! outstanding in a closed loop. Per-message layers dominate: reactor
//! dispatch, the mux demux and its advert rule, TX doorbells, fabric
//! re-speeding and the event engine.
//!
//! The fan-in slows as it runs: the server's control messages queue
//! faster than its credits let them out (see the README), so a fan-in
//! of [`MSGS_PER_STREAM`] messages per stream measures well past its
//! fast start.

use std::collections::VecDeque;

use blast::SizeDist;
use exs::{
    connect_mux_pair, ConnId, ConnStats, ExsConfig, MuxEndpoint, MuxEvent, MuxId, Reactor,
    ReactorConfig, Readiness,
};
use rdma_verbs::{profiles, Access, MrInfo, NodeApi, NodeApp};
use simnet::{SimDuration, SimTime};

use crate::measure::{Failure, Ledger, Pattern, RxStream};
use crate::metrics::{ratio, Rep};
use crate::trace::{self, Layer};
use crate::{simrun, RepMode};

/// Streams into the server.
pub const STREAMS: usize = 1024;
/// Client nodes the streams are spread over (stream `i` on node `i % 8`).
pub const CLIENT_NODES: usize = 8;
/// Messages each stream sends: twice the 8 that fit in the fan-in's
/// fast start, so the slowed regime after it carries the figures.
pub const MSGS_PER_STREAM: usize = 16;
const OUTSTANDING: usize = 2;
const PREPOST: usize = 4;
const SIZES: SizeDist = SizeDist::Uniform {
    lo: 64,
    hi: 8 << 10,
};

/// Per-stream resources sized for a thousand-way fan-in: the defaults
/// are per-connection budgets one node cannot afford a thousand times.
fn config() -> ExsConfig {
    ExsConfig {
        ring_capacity: 64 << 10,
        credits: 16,
        sq_depth: 16,
        ..ExsConfig::default()
    }
}

fn stream_sizes(seed: u64, stream: usize) -> Vec<u64> {
    let s = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream as u64);
    SIZES.sample_many(s, MSGS_PER_STREAM)
}

fn op_id(stream: usize, msg: usize) -> u64 {
    (stream * MSGS_PER_STREAM + msg) as u64
}

struct StreamTx {
    idx: usize,
    sizes: Vec<u64>,
    slots: Vec<MrInfo>,
    free: Vec<usize>,
    slot_of: Vec<usize>,
    sent: usize,
    acked: usize,
    pos: u64,
    closed: bool,
    pattern: Pattern,
    sent_at: Vec<SimTime>,
}

struct Client {
    ep: MuxEndpoint,
    streams: Vec<StreamTx>,
    scratch: Vec<u8>,
    ledger: Ledger,
}

impl Client {
    fn kick(&mut self, api: &mut NodeApi<'_>, local: usize) {
        let s = &mut self.streams[local];
        while s.sent < s.sizes.len() {
            let Some(slot) = s.free.pop() else {
                break;
            };
            let len = s.sizes[s.sent];
            let mr = s.slots[slot];
            let scratch = &mut self.scratch;
            trace::span(Layer::Bench, "bench::fill", || {
                scratch.resize(len as usize, 0);
                s.pattern.fill(s.pos, scratch);
                api.write_mr(mr.key, mr.addr, scratch)
                    .expect("send buffer holds the message");
            });
            s.sent_at.push(api.now());
            s.slot_of[s.sent] = slot;
            let (idx, msg) = (s.idx, s.sent);
            let ep = &mut self.ep;
            let sent = trace::span_op(
                Layer::Mux,
                "MuxEndpoint::mux_send",
                Some(op_id(idx, msg)),
                || ep.mux_send(api, idx as u32, &mr, 0, len, msg as u64),
            );
            if let Err(e) = sent {
                self.ledger
                    .fail(Failure::ProtocolError, 1, format!("stream {idx} send: {e}"));
            }
            s.pos += len;
            s.sent += 1;
        }
        if s.sent == s.sizes.len() && s.acked == s.sent && !s.closed {
            let ep = &mut self.ep;
            trace::span(Layer::Mux, "MuxEndpoint::close_stream", || {
                ep.close_stream(api, s.idx as u32)
            });
            s.closed = true;
        }
    }
}

impl NodeApp for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for local in 0..self.streams.len() {
            self.kick(api, local);
        }
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        trace::span(Layer::Mux, "MuxEndpoint::handle_wake", || {
            self.ep.handle_wake(api)
        });
        let events = trace::span(Layer::Mux, "MuxEndpoint::take_events", || {
            self.ep.take_events()
        });
        let mut touched = Vec::new();
        for ev in events {
            match ev {
                MuxEvent::SendComplete { stream, id, .. } => {
                    let local = stream as usize / CLIENT_NODES;
                    let s = &mut self.streams[local];
                    s.free.push(s.slot_of[id as usize]);
                    s.acked += 1;
                    touched.push(local);
                }
                MuxEvent::TransportError { slot } => self.ledger.fail(
                    Failure::ProtocolError,
                    1,
                    format!("client transport {slot}: {:?}", self.ep.last_error()),
                ),
                MuxEvent::StreamClosed { .. } | MuxEvent::RecvComplete { .. } => {}
            }
        }
        for local in touched {
            self.kick(api, local);
        }
    }

    fn is_done(&self) -> bool {
        self.streams.iter().all(|s| s.closed)
    }
}

struct StreamRx {
    mrs: Vec<MrInfo>,
    posted: VecDeque<(u64, usize)>,
    free: Vec<usize>,
    total: u64,
    rx: RxStream<SimTime>,
    eof: bool,
}

struct Server {
    reactor: Reactor,
    mux_ids: Vec<MuxId>,
    /// Global stream indices carried by each endpoint.
    streams_of: Vec<Vec<usize>>,
    streams: Vec<StreamRx>,
    recv_len: u32,
    next_id: u64,
    ready: Vec<(ConnId, Readiness)>,
    /// Streams whose receives the last events completed (reused).
    touched: Vec<usize>,
    scratch: Vec<u8>,
    ledger: Ledger,
}

impl Server {
    /// Consumes one endpoint's events and refills the posted receives
    /// of the streams they touched. Returns true on any progress.
    fn handle_mux(&mut self, api: &mut NodeApi<'_>, mi: usize) -> bool {
        let mux = self.mux_ids[mi];
        let reactor = &mut self.reactor;
        let events = trace::span(Layer::Reactor, "Reactor::take_mux_events", || {
            reactor.take_mux_events(mux)
        });
        let mut progressed = !events.is_empty();
        let mut touched = std::mem::take(&mut self.touched);
        for ev in events {
            match ev {
                MuxEvent::RecvComplete { stream, id, len } => {
                    let idx = stream as usize;
                    touched.push(idx);
                    let s = &mut self.streams[idx];
                    let Some((pid, slot)) = s.posted.pop_front() else {
                        self.ledger.fail(
                            Failure::Corrupt,
                            1,
                            format!("stream {idx}: unposted receive"),
                        );
                        continue;
                    };
                    if pid != id {
                        self.ledger.fail(
                            Failure::Corrupt,
                            1,
                            format!("stream {idx}: receive {id} completed before {pid}"),
                        );
                    }
                    s.free.push(slot);
                    if len == 0 {
                        continue;
                    }
                    let mr = s.mrs[slot];
                    let (scratch, ledger) = (&mut self.scratch, &mut self.ledger);
                    let op = op_id(idx, s.rx.clock.head());
                    trace::span_op(Layer::Bench, "bench::verify", Some(op), || {
                        scratch.resize(len as usize, 0);
                        api.read_mr(mr.key, mr.addr, scratch)
                            .expect("receive buffer holds the delivery");
                        s.rx.receive(scratch, api.now(), ledger)
                    });
                }
                MuxEvent::StreamClosed { stream } => {
                    self.streams[stream as usize].eof = true;
                    let reactor = &mut self.reactor;
                    trace::span(Layer::Mux, "MuxEndpoint::close_stream", || {
                        reactor.mux_mut(mux).close_stream(api, stream)
                    });
                }
                MuxEvent::TransportError { slot } => self.ledger.fail(
                    Failure::ProtocolError,
                    1,
                    format!(
                        "server transport {mi}/{slot}: {:?}",
                        self.reactor.mux(mux).last_error()
                    ),
                ),
                MuxEvent::SendComplete { .. } => {}
            }
        }
        for &idx in &touched {
            progressed |= self.refill(api, mux, idx);
        }
        touched.clear();
        self.touched = touched;
        progressed
    }

    /// Keeps stream `idx`'s free buffers posted until its end of stream.
    fn refill(&mut self, api: &mut NodeApi<'_>, mux: MuxId, idx: usize) -> bool {
        let s = &mut self.streams[idx];
        let mut posted_any = false;
        while !s.eof && s.rx.clock.delivered() < s.total {
            let Some(slot) = s.free.pop() else {
                break;
            };
            let mr = s.mrs[slot];
            let id = self.next_id;
            self.next_id += 1;
            let len = self.recv_len;
            let reactor = &mut self.reactor;
            let posted = trace::span(Layer::Mux, "MuxEndpoint::mux_recv", || {
                reactor
                    .mux_mut(mux)
                    .mux_recv(api, idx as u32, &mr, 0, len, false, id)
            });
            if let Err(e) = posted {
                self.ledger
                    .fail(Failure::ProtocolError, 1, format!("stream {idx} recv: {e}"));
                s.free.push(slot);
                break;
            }
            s.posted.push_back((id, slot));
            posted_any = true;
        }
        posted_any
    }

    /// Polls the reactor (which services the hosted endpoints) until
    /// no endpoint makes progress and no backlog remains.
    fn service(&mut self, api: &mut NodeApi<'_>) {
        loop {
            let (reactor, ready) = (&mut self.reactor, &mut self.ready);
            trace::span(Layer::Reactor, "Reactor::poll_into", || {
                reactor.poll_into(api, ready)
            });
            let mut progressed = false;
            for mi in 0..self.mux_ids.len() {
                progressed |= self.handle_mux(api, mi);
            }
            if !progressed && !self.reactor.has_backlog() {
                break;
            }
        }
    }
}

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for mi in 0..self.mux_ids.len() {
            for si in 0..self.streams_of[mi].len() {
                let idx = self.streams_of[mi][si];
                self.refill(api, self.mux_ids[mi], idx);
            }
        }
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.service(api);
    }

    fn is_done(&self) -> bool {
        self.streams
            .iter()
            .all(|s| s.eof && s.rx.clock.delivered() == s.total)
    }
}

/// Simulated time the last quarter of the deliveries took ÷ the time
/// the first quarter took from the first send: 1 for a fan-in that
/// keeps its pace, more for one that slows as it runs.
fn late_slowdown(delivered: impl Iterator<Item = SimTime>, first_send: Option<SimTime>) -> f64 {
    let mut at: Vec<SimTime> = delivered.collect();
    at.sort_unstable();
    let (Some(start), n) = (first_send, at.len()) else {
        return 0.0;
    };
    if n < 4 {
        return 0.0;
    }
    let first = at[n / 4 - 1].saturating_duration_since(start);
    let last = at[n - 1].saturating_duration_since(at[n - 1 - n / 4]);
    ratio(last.as_nanos() as f64, first.as_nanos() as f64)
}

/// One repetition of `mux_fanin` for `seed`: one 1024-stream fan-in
/// from set-up to the last stream's close.
pub fn rep(seed: u64, mode: &RepMode) -> Rep {
    let profile = profiles::fdr_infiniband();
    let cfg = config();
    let sizes: Vec<Vec<u64>> = (0..STREAMS).map(|i| stream_sizes(seed, i)).collect();
    let recv_len = SIZES.max_size() as u32;
    let mut ledger = Ledger::default();
    ledger.attempt((STREAMS * MSGS_PER_STREAM) as u64);
    if mode.traced {
        trace::start(std::time::Instant::now());
    }

    let setup_start = std::time::Instant::now();
    let (mut net, server_node, client_nodes, mut server, mut clients, footprint) =
        trace::span(Layer::App, "bench::setup", || {
            let (mut net, nodes) = simrun::new_net(seed, 3, &profile, 1 + CLIENT_NODES);
            let (server_node, client_nodes) = (nodes[0], nodes[1..].to_vec());
            for (i, &c) in client_nodes.iter().enumerate() {
                trace::span(Layer::Simnet, "SimNet::connect_nodes", || {
                    net.connect_nodes(
                        c,
                        server_node,
                        profile.link.clone(),
                        seed.wrapping_add(i as u64),
                    )
                });
            }
            let cq_depth = CLIENT_NODES * MuxEndpoint::shared_cq_depth(&cfg);
            let (send_cq, recv_cq) = trace::span(Layer::Verbs, "NodeApi::create_cq", || {
                net.with_api(server_node, |api| {
                    (api.create_cq(cq_depth), api.create_cq(cq_depth))
                })
            });
            let mut reactor = trace::span(Layer::Reactor, "Reactor::new", || {
                Reactor::new(send_cq, recv_cq, ReactorConfig::default())
            });
            let mut clients: Vec<Client> = client_nodes
                .iter()
                .map(|&c| Client {
                    ep: trace::span(Layer::Mux, "MuxEndpoint::new", || MuxEndpoint::new(c, &cfg)),
                    streams: Vec::new(),
                    scratch: Vec::new(),
                    ledger: Ledger::default(),
                })
                .collect();
            let mut server_eps: Vec<MuxEndpoint> = (0..CLIENT_NODES)
                .map(|_| {
                    trace::span(Layer::Mux, "MuxEndpoint::new", || {
                        let mut ep = MuxEndpoint::new(server_node, &cfg);
                        ep.set_cqs(send_cq, recv_cq);
                        ep
                    })
                })
                .collect();
            let mut streams = Vec::with_capacity(STREAMS);
            let mut streams_of = vec![Vec::new(); CLIENT_NODES];
            for (idx, sizes) in sizes.into_iter().enumerate() {
                let ci = idx % CLIENT_NODES;
                let opened = trace::span(Layer::Mux, "MuxEndpoint::open_stream", || {
                    clients[ci]
                        .ep
                        .open_stream(idx as u32)
                        .and_then(|()| server_eps[ci].open_stream(idx as u32))
                });
                opened.expect("stream ids are distinct");
                streams_of[ci].push(idx);
                let slots = trace::span(Layer::Verbs, "NodeApi::register_mr", || {
                    net.with_api(client_nodes[ci], |api| {
                        (0..OUTSTANDING)
                            .map(|_| api.register_mr(SIZES.max_size() as usize, Access::NONE))
                            .collect::<Vec<_>>()
                    })
                });
                let mrs = trace::span(Layer::Verbs, "NodeApi::register_mr", || {
                    net.with_api(server_node, |api| {
                        (0..PREPOST)
                            .map(|_| {
                                api.register_mr(recv_len as usize, Access::local_remote_write())
                            })
                            .collect::<Vec<_>>()
                    })
                });
                let mut rx = RxStream::new(seed, idx, mode.digest);
                for &len in &sizes {
                    rx.push(len);
                }
                streams.push(StreamRx {
                    mrs,
                    posted: VecDeque::new(),
                    free: (0..PREPOST).collect(),
                    total: sizes.iter().sum(),
                    rx,
                    eof: false,
                });
                clients[ci].streams.push(StreamTx {
                    idx,
                    slot_of: vec![usize::MAX; sizes.len()],
                    sizes,
                    slots,
                    free: (0..OUTSTANDING).collect(),
                    sent: 0,
                    acked: 0,
                    pos: 0,
                    closed: false,
                    pattern: Pattern::new(seed, idx),
                    sent_at: Vec::with_capacity(MSGS_PER_STREAM),
                });
            }
            let mut mux_ids = Vec::with_capacity(CLIENT_NODES);
            let mut footprint = 0;
            for (c, mut sep) in clients.iter_mut().zip(server_eps) {
                trace::span(Layer::Mux, "connect_mux_pair", || {
                    connect_mux_pair(&mut net, &mut c.ep, &mut sep)
                });
                // The memory model at full fan-out: every stream open and
                // every pooled transport up.
                footprint += sep.memory_footprint();
                mux_ids.push(trace::span(Layer::Reactor, "Reactor::accept_mux", || {
                    reactor.accept_mux(sep)
                }));
            }
            let server = Server {
                reactor,
                mux_ids,
                streams_of,
                streams,
                recv_len,
                next_id: 0,
                ready: Vec::new(),
                touched: Vec::new(),
                scratch: Vec::new(),
                ledger: Ledger::default(),
            };
            (net, server_node, client_nodes, server, clients, footprint)
        });
    let setup_s = setup_start.elapsed().as_secs_f64();
    if mode.setup_only {
        trace::finish();
        return Rep {
            setup_s,
            ..Rep::default()
        };
    }

    let mut apps: Vec<&mut dyn NodeApp> = Vec::with_capacity(1 + CLIENT_NODES);
    apps.push(&mut server);
    for c in clients.iter_mut() {
        apps.push(c);
    }
    let ran = simrun::run(&mut net, apps, SimDuration::from_secs(60), mode.deadline);

    ledger.merge(&server.ledger);
    let mut tx = ConnStats::default();
    for c in &clients {
        ledger.merge(&c.ledger);
        tx.merge(c.ep.stats());
    }
    let mut delivered = 0;
    for s in &server.streams {
        s.rx.finish(seed, &mut ledger);
        delivered += s.rx.clock.delivered().min(s.total);
    }
    let reactor = server.reactor.stats().clone();
    let mut roles = vec!["server".to_string()];
    roles.extend((0..CLIENT_NODES).map(|i| format!("client {i}")));
    let roles: Vec<&str> = roles.iter().map(String::as_str).collect();
    let end = simrun::SimEnd {
        setup_s,
        ran,
        attempted: STREAMS * MSGS_PER_STREAM,
        streams: server
            .streams
            .iter()
            .enumerate()
            .map(|(idx, rx)| {
                let tx = &clients[idx % CLIENT_NODES].streams[idx / CLIENT_NODES];
                (&tx.sent_at[..], &rx.rx.delivered_at[..])
            })
            .collect(),
        payload_bytes: delivered,
        rx_bytes: delivered,
        rx: server.reactor.aggregate_conn_stats(),
        tx: tx.clone(),
        tx_nodes: client_nodes,
        rx_node: server_node,
        bandwidth_bps: profile.link.bandwidth_bps,
        roles: &roles,
    };
    let slowdown = late_slowdown(
        server
            .streams
            .iter()
            .flat_map(|s| s.rx.delivered_at.iter().copied()),
        clients
            .iter()
            .flat_map(|c| c.streams.iter().filter_map(|s| s.sent_at.first().copied()))
            .min(),
    );
    let mut rep = simrun::fold(&net, end, ledger);
    let layer = &mut rep.layer;
    layer.insert("mux.late_slowdown_ratio", slowdown);
    layer.insert(
        "reactor.cqes_per_poll",
        ratio(reactor.cqes_dispatched as f64, reactor.polls as f64),
    );
    layer.insert("reactor.deferrals", reactor.deferrals as f64);
    layer.insert(
        "mux.direct_byte_ratio",
        ratio(
            tx.direct_bytes as f64,
            (tx.direct_bytes + tx.indirect_bytes) as f64,
        ),
    );
    layer.insert(
        "mux.adverts_discarded_ratio",
        ratio(tx.adverts_discarded as f64, tx.adverts_received as f64),
    );
    layer.insert("mux.bytes_per_stream", footprint as f64 / STREAMS as f64);
    rep
}
