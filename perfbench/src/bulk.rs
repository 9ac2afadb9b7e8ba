//! `bulk_stream`: the paper's blast over one simulated connection.
//!
//! One client streams messages whose sizes follow the paper's truncated
//! exponential (mean 1 MiB, max 4 MiB) to one server in a closed loop,
//! with 4 sends and 4 maximum-size receives outstanding, in `Dynamic`
//! mode on the FDR profile. Per-byte layers do nearly all the work.

use std::collections::HashMap;

use blast::SizeDist;
use exs::{ExsConfig, ExsEvent, StreamSocket};
use rdma_verbs::{profiles, Access, MrInfo, NodeApi, NodeApp};
use simnet::{SimDuration, SimTime};

use crate::measure::{Ledger, Pattern, RxStream};
use crate::metrics::Rep;
use crate::trace::{self, Layer};
use crate::{simrun, RepMode};

/// Messages per repetition: enough for a p99 with ten samples beyond.
pub const MESSAGES: usize = 1024;
const OUTSTANDING_SENDS: usize = 4;
const OUTSTANDING_RECVS: usize = 4;

struct Client {
    sock: StreamSocket,
    slots: Vec<MrInfo>,
    free: Vec<usize>,
    slot_of: Vec<usize>,
    sizes: Vec<u64>,
    next: usize,
    completed: usize,
    pos: u64,
    started: bool,
    start_delay: SimDuration,
    pattern: Pattern,
    scratch: Vec<u8>,
    sent_at: Vec<SimTime>,
}

impl Client {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        if !self.started {
            return;
        }
        while self.next < self.sizes.len() {
            let Some(slot) = self.free.pop() else {
                return;
            };
            let len = self.sizes[self.next];
            let mr = self.slots[slot];
            trace::span(Layer::Bench, "bench::fill", || {
                self.scratch.resize(len as usize, 0);
                self.pattern.fill(self.pos, &mut self.scratch);
                api.write_mr(mr.key, mr.addr, &self.scratch)
                    .expect("send buffer holds the message");
            });
            self.sent_at.push(api.now());
            self.slot_of[self.next] = slot;
            let id = self.next as u64;
            trace::span_op(Layer::Exs, "StreamSocket::exs_send", Some(id), || {
                self.sock.exs_send(api, &mr, 0, len, id)
            });
            self.pos += len;
            self.next += 1;
        }
    }
}

impl NodeApp for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // The first send waits one connection round trip, so the
        // server's initial ADVERTs can arrive first, as after connect().
        api.set_timer(self.start_delay, 0);
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        self.started = true;
        self.kick(api);
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        trace::span(Layer::Exs, "StreamSocket::handle_wake", || {
            self.sock.handle_wake(api)
        });
        let events = trace::span(Layer::Exs, "StreamSocket::take_events", || {
            self.sock.take_events()
        });
        for ev in events {
            if let ExsEvent::SendComplete { id, .. } = ev {
                self.free.push(self.slot_of[id as usize]);
                self.completed += 1;
            }
        }
        self.kick(api);
    }

    fn is_done(&self) -> bool {
        self.completed == self.sizes.len()
    }
}

struct Server {
    sock: StreamSocket,
    slots: Vec<MrInfo>,
    free: Vec<usize>,
    slot_of: HashMap<u64, usize>,
    recv_len: u32,
    total: u64,
    next_id: u64,
    rx: RxStream<SimTime>,
    scratch: Vec<u8>,
    ledger: Ledger,
}

impl Server {
    /// Keeps every free buffer posted until the whole stream arrived;
    /// receives still posted at the end stay unused.
    fn post(&mut self, api: &mut NodeApi<'_>) {
        while self.rx.clock.delivered() < self.total {
            let Some(slot) = self.free.pop() else {
                return;
            };
            let mr = self.slots[slot];
            let id = self.next_id;
            self.next_id += 1;
            self.slot_of.insert(id, slot);
            let len = self.recv_len;
            trace::span(Layer::Exs, "StreamSocket::exs_recv", || {
                self.sock.exs_recv(api, &mr, 0, len, false, id)
            });
        }
    }

    /// Posts and consumes until no event is left: posting a receive
    /// can complete it at once from data already in the ring.
    fn drain(&mut self, api: &mut NodeApi<'_>) {
        loop {
            self.post(api);
            let events = trace::span(Layer::Exs, "StreamSocket::take_events", || {
                self.sock.take_events()
            });
            if events.is_empty() {
                break;
            }
            for ev in events {
                let ExsEvent::RecvComplete { id, len } = ev else {
                    continue;
                };
                let slot = self.slot_of.remove(&id).expect("receive was posted");
                let mr = self.slots[slot];
                self.free.push(slot);
                let first_msg = self.rx.clock.head() as u64;
                let (rx, scratch, ledger) = (&mut self.rx, &mut self.scratch, &mut self.ledger);
                trace::span_op(Layer::Bench, "bench::verify", Some(first_msg), || {
                    scratch.resize(len as usize, 0);
                    api.read_mr(mr.key, mr.addr, scratch)
                        .expect("receive buffer holds the delivery");
                    rx.receive(scratch, api.now(), ledger)
                });
            }
        }
    }
}

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.drain(api);
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        trace::span(Layer::Exs, "StreamSocket::handle_wake", || {
            self.sock.handle_wake(api)
        });
        self.drain(api);
    }

    fn is_done(&self) -> bool {
        self.rx.clock.delivered() >= self.total
    }
}

/// One repetition of `bulk_stream` for `seed`.
pub fn rep(seed: u64, mode: &RepMode) -> Rep {
    let profile = profiles::fdr_infiniband();
    let sizes = SizeDist::paper_default().sample_many(seed, MESSAGES);
    let total: u64 = sizes.iter().sum();
    let recv_len = SizeDist::paper_default().max_size() as u32;
    let cfg = ExsConfig::default();
    let mut ledger = Ledger::default();
    ledger.attempt(MESSAGES as u64);
    if mode.traced {
        trace::start(std::time::Instant::now());
    }

    let setup_start = std::time::Instant::now();
    let (mut net, nodes, mut client, mut server) = trace::span(Layer::App, "bench::setup", || {
        let (mut net, nodes, [sock_c, sock_s]) = simrun::connection(seed, 1, &profile, &cfg);
        let [c, s] = nodes;
        let max_msg = sizes.iter().copied().max().unwrap_or(1) as usize;
        let client_slots = trace::span(Layer::Verbs, "NodeApi::register_mr", || {
            net.with_api(c, |api| {
                (0..OUTSTANDING_SENDS)
                    .map(|_| api.register_mr(max_msg, Access::NONE))
                    .collect::<Vec<_>>()
            })
        });
        let server_slots = trace::span(Layer::Verbs, "NodeApi::register_mr", || {
            net.with_api(s, |api| {
                (0..OUTSTANDING_RECVS)
                    .map(|_| api.register_mr(recv_len as usize, Access::local_remote_write()))
                    .collect::<Vec<_>>()
            })
        });
        let client = Client {
            sock: sock_c,
            slots: client_slots,
            free: (0..OUTSTANDING_SENDS).collect(),
            slot_of: vec![usize::MAX; MESSAGES],
            sizes: sizes.clone(),
            next: 0,
            completed: 0,
            pos: 0,
            started: false,
            start_delay: profile.link.propagation
                + profile.link.propagation
                + SimDuration::from_micros(20),
            pattern: Pattern::new(seed, 0),
            scratch: Vec::new(),
            sent_at: Vec::with_capacity(MESSAGES),
        };
        let mut rx = RxStream::new(seed, 0, mode.digest);
        for &len in &sizes {
            rx.push(len);
        }
        let server = Server {
            sock: sock_s,
            slots: server_slots,
            free: (0..OUTSTANDING_RECVS).collect(),
            slot_of: HashMap::new(),
            recv_len,
            total,
            next_id: 0,
            rx,
            scratch: Vec::new(),
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

    ledger.merge(&server.ledger);
    server.rx.finish(seed, &mut ledger);
    net.with_api(nodes[0], |api| client.sock.sync_cq_stats(api));
    net.with_api(nodes[1], |api| server.sock.sync_cq_stats(api));
    let delivered = server.rx.clock.delivered().min(total);
    let end = simrun::SimEnd {
        setup_s,
        ran,
        attempted: MESSAGES,
        streams: vec![(&client.sent_at, &server.rx.delivered_at)],
        payload_bytes: delivered,
        rx_bytes: delivered,
        tx: client.sock.stats().clone(),
        rx: server.sock.stats().clone(),
        tx_nodes: vec![nodes[0]],
        rx_node: nodes[1],
        bandwidth_bps: profile.link.bandwidth_bps,
        roles: &["client", "server"],
    };
    simrun::fold(&net, end, ledger)
}
