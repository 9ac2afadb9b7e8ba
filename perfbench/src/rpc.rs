//! `rpc_pingpong`: one simulated connection, one 64 B request
//! outstanding and a 64 B reply, in a closed loop.
//!
//! The same `StreamSocket` protocol as `bulk_stream`, measured for
//! latency instead of bandwidth: a batching, coalescing or
//! advert-deferral change that helps the streaming workloads but holds
//! back a lone message shows here. Per-byte layers are idle.

use exs::{ExsConfig, ExsEvent, StreamSocket};
use rdma_verbs::{profiles, Access, MrInfo, NodeApi, NodeApp};
use simnet::{SimDuration, SimTime};

use crate::measure::{Ledger, Pattern, RxStream};
use crate::metrics::Rep;
use crate::trace::{self, Layer};
use crate::{simrun, RepMode};

/// Round trips per repetition: enough for a p999 with ten samples
/// beyond.
pub const ROUND_TRIPS: usize = 10_240;
const MSG: u32 = 64;
/// Stream ids for the payload pattern of each direction.
const REQUESTS: usize = 0;
const REPLIES: usize = 1;

/// One side's receive path: a single `MSG`-byte MSG_WAITALL receive
/// kept posted, every delivery checked and clocked.
struct Inbox {
    mr: MrInfo,
    next_id: u64,
    rx: RxStream<SimTime>,
    scratch: Vec<u8>,
}

impl Inbox {
    fn new(mr: MrInfo, seed: u64, stream: usize, digest: bool) -> Inbox {
        Inbox {
            mr,
            next_id: 0,
            rx: RxStream::new(seed, stream, digest),
            scratch: Vec::new(),
        }
    }

    fn post(&mut self, sock: &mut StreamSocket, api: &mut NodeApi<'_>) {
        let (mr, id) = (self.mr, self.next_id);
        self.next_id += 1;
        self.rx.push(MSG as u64);
        trace::span(Layer::Exs, "StreamSocket::exs_recv", || {
            sock.exs_recv(api, &mr, 0, MSG, true, id)
        });
    }

    /// Checks a delivery; returns how many messages it completed.
    fn deliver(&mut self, api: &mut NodeApi<'_>, len: u32, op: u64, ledger: &mut Ledger) -> usize {
        let (mr, rx, scratch) = (self.mr, &mut self.rx, &mut self.scratch);
        trace::span_op(Layer::Bench, "bench::verify", Some(op), || {
            scratch.resize(len as usize, 0);
            api.read_mr(mr.key, mr.addr, scratch)
                .expect("receive buffer holds the delivery");
            rx.receive(scratch, api.now(), ledger)
        })
    }
}

/// One side's send path: a single `MSG`-byte buffer.
struct Outbox {
    mr: MrInfo,
    pattern: Pattern,
    pos: u64,
    scratch: Vec<u8>,
}

impl Outbox {
    fn send(&mut self, sock: &mut StreamSocket, api: &mut NodeApi<'_>, op: u64) {
        let (mr, pattern, scratch, pos) = (self.mr, &self.pattern, &mut self.scratch, self.pos);
        trace::span(Layer::Bench, "bench::fill", || {
            scratch.resize(MSG as usize, 0);
            pattern.fill(pos, scratch);
            api.write_mr(mr.key, mr.addr, scratch)
                .expect("send buffer holds the message");
        });
        trace::span_op(Layer::Exs, "StreamSocket::exs_send", Some(op), || {
            sock.exs_send(api, &mr, 0, MSG as u64, op)
        });
        self.pos += MSG as u64;
    }
}

struct Client {
    sock: StreamSocket,
    out: Outbox,
    /// The reply stream: its delivery times end the round trips.
    inbox: Inbox,
    sent_at: Vec<SimTime>,
    ledger: Ledger,
}

impl Client {
    fn fire(&mut self, api: &mut NodeApi<'_>) {
        // The reply's receive goes first so its ADVERT can race ahead.
        self.inbox.post(&mut self.sock, api);
        let op = self.sent_at.len() as u64;
        self.sent_at.push(api.now());
        self.out.send(&mut self.sock, api, op);
    }
}

impl NodeApp for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Give the server time to post its first receive.
        api.set_timer(SimDuration::from_micros(100), 0);
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        self.fire(api);
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        trace::span(Layer::Exs, "StreamSocket::handle_wake", || {
            self.sock.handle_wake(api)
        });
        let events = trace::span(Layer::Exs, "StreamSocket::take_events", || {
            self.sock.take_events()
        });
        for ev in events {
            if let ExsEvent::RecvComplete { len, .. } = ev {
                let op = self.inbox.rx.delivered_at.len() as u64;
                self.inbox.deliver(api, len, op, &mut self.ledger);
                let done = self.inbox.rx.delivered_at.len();
                if done == self.sent_at.len() && done < ROUND_TRIPS {
                    self.fire(api);
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.inbox.rx.delivered_at.len() >= ROUND_TRIPS
    }
}

struct Server {
    sock: StreamSocket,
    out: Outbox,
    inbox: Inbox,
    replied: u64,
    ledger: Ledger,
}

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.inbox.post(&mut self.sock, api);
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        trace::span(Layer::Exs, "StreamSocket::handle_wake", || {
            self.sock.handle_wake(api)
        });
        let events = trace::span(Layer::Exs, "StreamSocket::take_events", || {
            self.sock.take_events()
        });
        for ev in events {
            if let ExsEvent::RecvComplete { len, .. } = ev {
                let requests = self.inbox.deliver(api, len, self.replied, &mut self.ledger);
                for _ in 0..requests {
                    self.out.send(&mut self.sock, api, self.replied);
                    self.replied += 1;
                    self.inbox.post(&mut self.sock, api);
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// One repetition of `rpc_pingpong` for `seed`.
pub fn rep(seed: u64, mode: &RepMode) -> Rep {
    let profile = profiles::fdr_infiniband();
    let cfg = ExsConfig::default();
    let mut ledger = Ledger::default();
    ledger.attempt(ROUND_TRIPS as u64);
    if mode.traced {
        trace::start(std::time::Instant::now());
    }

    let setup_start = std::time::Instant::now();
    let (mut net, nodes, mut client, mut server) = trace::span(Layer::App, "bench::setup", || {
        let (mut net, nodes, [sock_c, sock_s]) = simrun::connection(seed, 2, &profile, &cfg);
        let [c, s] = nodes;
        let mut mrs = |node| {
            trace::span(Layer::Verbs, "NodeApi::register_mr", || {
                net.with_api(node, |api| {
                    (
                        api.register_mr(MSG as usize, Access::NONE),
                        api.register_mr(MSG as usize, Access::local_remote_write()),
                    )
                })
            })
        };
        let (c_send, c_recv) = mrs(c);
        let (s_send, s_recv) = mrs(s);
        let client = Client {
            sock: sock_c,
            out: Outbox {
                mr: c_send,
                pattern: Pattern::new(seed, REQUESTS),
                pos: 0,
                scratch: Vec::new(),
            },
            inbox: Inbox::new(c_recv, seed, REPLIES, mode.digest),
            sent_at: Vec::with_capacity(ROUND_TRIPS),
            ledger: Ledger::default(),
        };
        let server = Server {
            sock: sock_s,
            out: Outbox {
                mr: s_send,
                pattern: Pattern::new(seed, REPLIES),
                pos: 0,
                scratch: Vec::new(),
            },
            inbox: Inbox::new(s_recv, seed, REQUESTS, mode.digest),
            replied: 0,
            ledger: Ledger::default(),
        };
        (net, nodes, client, server)
    });
    let setup_s = setup_start.elapsed().as_secs_f64();
    if mode.setup_only {
        trace::finish();
        return Rep {
            setup_s,
            ..Rep::default()
        };
    }

    let ran = simrun::run(
        &mut net,
        vec![&mut client, &mut server],
        SimDuration::from_secs(60),
        mode.deadline,
    );

    ledger.merge(&client.ledger);
    ledger.merge(&server.ledger);
    client.inbox.rx.finish(seed, &mut ledger);
    server.inbox.rx.finish(seed, &mut ledger);
    net.with_api(nodes[0], |api| client.sock.sync_cq_stats(api));
    net.with_api(nodes[1], |api| server.sock.sync_cq_stats(api));
    let trips = client.inbox.rx.delivered_at.len().min(ROUND_TRIPS) as u64;
    // Both nodes send and receive; the server is the receiving side of
    // the request stream, which opens every round trip.
    let end = simrun::SimEnd {
        setup_s,
        ran,
        attempted: ROUND_TRIPS,
        streams: vec![(&client.sent_at, &client.inbox.rx.delivered_at)],
        payload_bytes: 2 * trips * MSG as u64,
        rx_bytes: trips * MSG as u64,
        tx: client.sock.stats().clone(),
        rx: server.sock.stats().clone(),
        tx_nodes: vec![nodes[0]],
        rx_node: nodes[1],
        bandwidth_bps: profile.link.bandwidth_bps,
        roles: &["client", "server"],
    };
    simrun::fold(&net, end, ledger)
}
