//! Link-failure injection through the whole stack: a directed link goes
//! down mid-stream, RC retry exhaustion fails the QP, and the EXS socket
//! surfaces a `ConnectionError` event instead of hanging or panicking.
//! Every fault is injected between two `SimNet::run` calls, so the
//! first test here pins what they rely on: a run stopped at a time
//! limit resumes exactly where it stopped.

use rdma_stream::blast::fan_in::{expected_digest, fnv1a, payload_byte, FNV_OFFSET};
use rdma_stream::exs::{ExsConfig, ExsEvent, ProtocolMode, StreamSocket};
use rdma_stream::simnet::{SimDuration, SimTime};
use rdma_stream::verbs::{profiles, Access, MrInfo, NodeApi, NodeApp, NodeId, SimNet};

const SEED: u64 = 8;
const MSG: u64 = 64 << 10;

/// Streams `to_send` messages of the connection's closed-form payload,
/// two in flight from two send slots.
struct Sender {
    conn: usize,
    sock: Option<StreamSocket>,
    mr: Option<MrInfo>,
    to_send: usize,
    sent: usize,
    acked: usize,
    broken: bool,
}

impl Sender {
    fn new(conn: usize, sock: StreamSocket, to_send: usize) -> Sender {
        Sender {
            conn,
            sock: Some(sock),
            mr: None,
            to_send,
            sent: 0,
            acked: 0,
            broken: false,
        }
    }

    fn kick(&mut self, api: &mut NodeApi<'_>) {
        while self.sent < self.to_send && self.sent - self.acked < 2 {
            let mr = self.mr.unwrap();
            let slot = (self.sent % 2) as u64 * MSG;
            let start = self.sent as u64 * MSG;
            let data: Vec<u8> = (start..start + MSG)
                .map(|off| payload_byte(SEED, self.conn, off))
                .collect();
            api.write_mr(mr.key, mr.addr + slot, &data).unwrap();
            self.sock
                .as_mut()
                .unwrap()
                .exs_send(api, &mr, slot, MSG, self.sent as u64);
            self.sent += 1;
        }
    }
}

impl NodeApp for Sender {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.as_mut().unwrap().handle_wake(api);
        for ev in self.sock.as_mut().unwrap().take_events() {
            match ev {
                ExsEvent::SendComplete { .. } => self.acked += 1,
                ExsEvent::ConnectionError => self.broken = true,
                _ => {}
            }
        }
        if !self.broken {
            self.kick(api);
        }
    }
    fn is_done(&self) -> bool {
        self.broken || self.acked == self.to_send
    }
}

/// Keeps one receive posted and digests the stream it delivers.
struct Receiver {
    sock: Option<StreamSocket>,
    mr: Option<MrInfo>,
    received: u64,
    digest: u64,
    /// Bytes after which the receiver counts as done (0: done at once,
    /// for tests that end on the sender's state).
    expect: u64,
    finished_at: Option<SimTime>,
    next_id: u64,
    broken: bool,
}

impl Receiver {
    fn new(sock: StreamSocket, expect: u64) -> Receiver {
        Receiver {
            sock: Some(sock),
            mr: None,
            received: 0,
            digest: FNV_OFFSET,
            expect,
            finished_at: None,
            next_id: 0,
            broken: false,
        }
    }

    fn kick(&mut self, api: &mut NodeApi<'_>) {
        let sock = self.sock.as_mut().unwrap();
        if !self.broken && sock.recvs_pending() == 0 {
            let mr = self.mr.unwrap();
            sock.exs_recv(api, &mr, 0, MSG as u32, false, self.next_id);
            self.next_id += 1;
        }
    }

    /// Drains the socket's events. A receive posted while the ring
    /// holds data completes at once, so keep going until none are left.
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.as_mut().unwrap().handle_wake(api);
        loop {
            let events = self.sock.as_mut().unwrap().take_events();
            if events.is_empty() {
                break;
            }
            for ev in events {
                match ev {
                    ExsEvent::RecvComplete { len, .. } => {
                        let mr = self.mr.unwrap();
                        let mut buf = vec![0u8; len as usize];
                        api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                        self.digest = fnv1a(self.digest, &buf);
                        self.received += len as u64;
                        if self.received == self.expect {
                            self.finished_at = Some(api.now());
                        }
                    }
                    ExsEvent::ConnectionError => self.broken = true,
                    _ => {}
                }
            }
            self.kick(api);
        }
    }
}

impl NodeApp for Receiver {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        Receiver::on_wake(self, api);
    }
    fn is_done(&self) -> bool {
        self.received >= self.expect
    }
}

/// One node serving several connections, each with its own socket.
struct Server(Vec<Receiver>);

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for r in &mut self.0 {
            r.kick(api);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        for r in &mut self.0 {
            r.on_wake(api);
        }
    }
    fn is_done(&self) -> bool {
        self.0.iter().all(|r| r.is_done())
    }
}

fn register(net: &mut SimNet, node: NodeId, len: u64, access: Access) -> Option<MrInfo> {
    Some(net.with_api(node, |api| api.register_mr(len as usize, access)))
}

/// One sender into one receiver: `(net, sender node, receiver node,
/// sender, receiver)`, buffers registered.
fn one_stream(to_send: usize, expect: u64) -> (SimNet, NodeId, NodeId, Sender, Receiver) {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), SEED);
    let (sa, sb) = StreamSocket::pair(&mut net, a, b, &ExsConfig::with_mode(ProtocolMode::Dynamic));
    let mut sender = Sender::new(0, sa, to_send);
    let mut receiver = Receiver::new(sb, expect);
    sender.mr = register(&mut net, a, 2 * MSG, Access::NONE);
    receiver.mr = register(&mut net, b, MSG, Access::local_remote_write());
    (net, a, b, sender, receiver)
}

/// A stream run in one go and the same stream stopped at a time limit
/// every 25 µs and resumed end alike: same bytes, same digest, same
/// finish time and the same number of events. An event due past a
/// limit must stay queued for the next run; dropping it loses a message
/// or strands a fabric flow's head.
#[test]
fn split_run_resumes_exactly_like_one_run() {
    const MSGS: usize = 24;
    let total = MSGS as u64 * MSG;

    let (mut net, _, _, mut sender, mut receiver) = one_stream(MSGS, total);
    let whole = net.run(&mut [&mut sender, &mut receiver], SimTime::from_secs(1));
    assert!(whole.completed, "uninterrupted run stalled: {whole:?}");
    assert_eq!(receiver.digest, expected_digest(SEED, 0, total));

    let (mut net, _, _, mut s2, mut r2) = one_stream(MSGS, total);
    let step = SimDuration::from_micros(25);
    let mut limit = SimTime::ZERO + step;
    let mut splits = 0;
    let split = loop {
        let outcome = net.run(&mut [&mut s2, &mut r2], limit);
        if outcome.completed || limit > SimTime::from_secs(1) {
            break outcome;
        }
        assert_eq!(outcome.end, limit, "a stopped run ends at its limit");
        splits += 1;
        limit += step;
    };
    assert!(
        splits > 10,
        "the stream must span many limits, got {splits}"
    );
    assert!(split.completed, "split run stalled: {split:?}");
    assert_eq!(r2.received, receiver.received);
    assert_eq!(r2.digest, receiver.digest, "split run altered the stream");
    assert_eq!(r2.finished_at, receiver.finished_at);
    assert_eq!(split.events, whole.events);
}

#[test]
fn link_cut_surfaces_connection_error() {
    // 10 000 messages would run far beyond the cut. The receiver counts
    // as done at once: the test ends on the sender's error, whichever
    // direction lost traffic.
    let (mut net, a, b, mut sender, mut receiver) = one_stream(10_000, 0);
    net.enable_trace(256);

    // Run a while, then cut the forward (data) link and keep running.
    let mid = net.run(&mut [&mut sender, &mut receiver], SimTime::from_millis(2));
    assert!(!mid.completed, "stream should still be running at the cut");
    assert!(receiver.received > 0, "some data flowed before the cut");
    net.set_link_up(a, b, false);

    let outcome = net.run(
        &mut [&mut sender, &mut receiver],
        SimTime::ZERO + SimDuration::from_millis(200),
    );
    assert!(
        outcome.completed,
        "sender must observe the failure: {outcome:?}\ntrace:\n{}",
        net.dump_trace()
    );
    assert!(sender.broken, "ConnectionError event expected");
    assert!(sender.sock.as_ref().unwrap().is_broken());
    // The trace recorded the drops.
    assert!(net.dump_trace().contains("dropped"));
}

/// Two senders share one receiver NIC through the fair-share fabric and
/// one sender's link is cut mid-stream. The cut sender must see
/// `ConnectionError`; the survivor must finish byte-exact.
#[test]
fn link_cut_under_contention_spares_the_other_flow() {
    const SURVIVOR_MSGS: usize = 128;
    let survivor_total = SURVIVOR_MSGS as u64 * MSG;
    let profile = profiles::fdr_infiniband();
    let cfg = ExsConfig::with_mode(ProtocolMode::Dynamic);
    let mut net = SimNet::new();
    net.enable_trace(256);
    let srv = net.add_node(profile.host.clone(), profile.hca.clone());
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, srv, profile.link.clone(), SEED);
    net.connect_nodes(b, srv, profile.link.clone(), SEED + 1);
    let (sa, sa_srv) = StreamSocket::pair(&mut net, a, srv, &cfg);
    let (sb, sb_srv) = StreamSocket::pair(&mut net, b, srv, &cfg);

    let mut cut = Sender::new(0, sa, 10_000);
    let mut survivor = Sender::new(1, sb, SURVIVOR_MSGS);
    let mut server = Server(vec![
        Receiver::new(sa_srv, 0),
        Receiver::new(sb_srv, survivor_total),
    ]);
    cut.mr = register(&mut net, a, 2 * MSG, Access::NONE);
    survivor.mr = register(&mut net, b, 2 * MSG, Access::NONE);
    for r in &mut server.0 {
        r.mr = register(&mut net, srv, MSG, Access::local_remote_write());
    }

    let mid = net.run(
        &mut [&mut server, &mut cut, &mut survivor],
        SimTime::from_micros(1500),
    );
    assert!(
        !mid.completed,
        "both streams should still be running at the cut"
    );
    assert!(server.0[0].received > 0, "the cut flow moved data first");
    assert!(
        server.0[1].received > 0 && server.0[1].received < survivor_total,
        "the survivor must be mid-stream at the cut"
    );
    let stats = net.fabric_stats().expect("fabric telemetry");
    assert!(stats.respeeds > 0, "the two flows shared the server's NIC");
    net.set_link_up(a, srv, false);

    let outcome = net.run(
        &mut [&mut server, &mut cut, &mut survivor],
        SimTime::from_millis(200),
    );
    assert!(
        outcome.completed,
        "cut sender must fail and the survivor finish: {outcome:?}\ntrace:\n{}",
        net.dump_trace()
    );
    assert!(cut.broken, "ConnectionError event expected on the cut link");
    assert!(cut.sock.as_ref().unwrap().is_broken());
    assert!(!survivor.broken && !server.0[1].broken);
    assert_eq!(survivor.acked, SURVIVOR_MSGS);
    assert_eq!(server.0[1].received, survivor_total);
    assert_eq!(
        server.0[1].digest,
        expected_digest(SEED, 1, survivor_total),
        "survivor stream corrupt"
    );
}

#[test]
fn trace_records_protocol_events() {
    let profile = profiles::ideal();
    let mut net = SimNet::new();
    net.enable_trace(64);
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 9);
    let (sa, sb) = StreamSocket::pair(&mut net, a, b, &ExsConfig::default());

    let mut sender = Sender::new(0, sa, 3);
    let mut receiver = Receiver::new(sb, 0);
    sender.mr = register(&mut net, a, 2 * MSG, Access::NONE);
    receiver.mr = register(&mut net, b, MSG, Access::local_remote_write());
    net.run(&mut [&mut sender, &mut receiver], SimTime::from_secs(1));

    let dump = net.dump_trace();
    assert!(dump.contains("write-imm"), "data transfers traced:\n{dump}");
    assert!(dump.contains("send"), "control messages traced:\n{dump}");
    assert!(dump.contains("wake"), "wakeups traced:\n{dump}");
}
