//! Fan-in: several clients stream into one server node concurrently.
//! Exercises multi-connection multiplexing through one ES-API context,
//! per-stream integrity under CPU contention at the shared receiver,
//! and link sharing on the server's ingress.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use rdma_stream::blast::fan_in::{expected_digest, fan_in_cfg, fnv1a, payload_byte, FNV_OFFSET};
use rdma_stream::blast::{run_fan_in, FanInSpec, SizeDist, VerifyLevel};
use rdma_stream::exs::threaded::connect_mux_over;
use rdma_stream::exs::{
    connect_mux_pair, ConnStats, DirectPolicy, Event, ExsConfig, ExsContext, ExsFd, MsgFlags,
    MuxEndpoint, MuxEvent, ProtocolMode, ReactorConfig, SockType, ThreadPort, ThreadReactorPool,
    VerbsPort,
};
use rdma_stream::simnet::SimTime;
use rdma_stream::verbs::threaded::ThreadNet;
use rdma_stream::verbs::{profiles, Access, HcaConfig, MrInfo, NodeApi, NodeApp, NodeId, SimNet};

const CLIENTS: usize = 3;
const MSGS: usize = 30;
const MSG_LEN: u64 = 64 << 10;

fn pattern(stream: usize, i: u64) -> u8 {
    (i.wrapping_mul(31).wrapping_add(stream as u64 * 7)) as u8
}

struct Client {
    ctx: Option<ExsContext>,
    fd: ExsFd,
    stream_idx: usize,
    mr: Option<MrInfo>,
    sent: usize,
    acked: usize,
    pos: u64,
}

impl Client {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        // Two outstanding sends.
        while self.sent < MSGS && self.sent - self.acked < 2 {
            let mr = self.mr.unwrap();
            let data: Vec<u8> = (0..MSG_LEN)
                .map(|i| pattern(self.stream_idx, self.pos + i))
                .collect();
            let slot = (self.sent % 2) as u64 * MSG_LEN;
            api.write_mr(mr.key, mr.addr + slot, &data).unwrap();
            self.ctx
                .as_mut()
                .unwrap()
                .exs_send(api, self.fd, &mr, slot, MSG_LEN, self.sent as u64);
            self.pos += MSG_LEN;
            self.sent += 1;
        }
    }
}

impl NodeApp for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.ctx.as_mut().unwrap().handle_wake(api);
        for qe in self.ctx.as_mut().unwrap().exs_qdequeue() {
            if matches!(qe.event, Event::SendComplete { .. }) {
                self.acked += 1;
            }
        }
        self.kick(api);
    }
    fn is_done(&self) -> bool {
        self.acked == MSGS
    }
}

struct Server {
    ctx: Option<ExsContext>,
    streams: Vec<(ExsFd, MrInfo)>,
    received: Vec<u64>,
    next_id: u64,
    id_stream: std::collections::HashMap<u64, usize>,
}

impl Server {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        for (idx, &(fd, mr)) in self.streams.iter().enumerate() {
            // One outstanding receive per stream.
            if self.id_stream.values().filter(|&&s| s == idx).count() == 0
                && self.received[idx] < MSGS as u64 * MSG_LEN
            {
                let id = self.next_id;
                self.next_id += 1;
                self.id_stream.insert(id, idx);
                self.ctx
                    .as_mut()
                    .unwrap()
                    .exs_recv(api, fd, &mr, 0, 32 << 10, MsgFlags::NONE, id);
            }
        }
    }
}

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.ctx.as_mut().unwrap().handle_wake(api);
        loop {
            let events = self.ctx.as_mut().unwrap().exs_qdequeue();
            if events.is_empty() {
                break;
            }
            for qe in events {
                if let Event::RecvComplete { id, len } = qe.event {
                    let idx = self.id_stream.remove(&id).expect("stream for recv id");
                    let (_, mr) = self.streams[idx];
                    let mut buf = vec![0u8; len as usize];
                    api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                    for (i, &b) in buf.iter().enumerate() {
                        assert_eq!(
                            b,
                            pattern(idx, self.received[idx] + i as u64),
                            "stream {idx} corrupted at {}",
                            self.received[idx] + i as u64
                        );
                    }
                    self.received[idx] += len as u64;
                }
            }
            self.kick(api);
        }
    }
    fn is_done(&self) -> bool {
        self.received.iter().all(|&r| r == MSGS as u64 * MSG_LEN)
    }
}

#[test]
fn three_clients_one_server_streams_stay_isolated() {
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    net.set_host_seed(4242);
    let server_node = net.add_node(profile.host.clone(), profile.hca.clone());
    let client_nodes: Vec<NodeId> = (0..CLIENTS)
        .map(|_| net.add_node(profile.host.clone(), profile.hca.clone()))
        .collect();
    for &c in &client_nodes {
        net.connect_nodes(c, server_node, profile.link.clone(), c.0 as u64);
    }

    let mut server_ctx = ExsContext::new(server_node);
    let mut clients: Vec<Client> = Vec::new();
    let mut server_streams = Vec::new();
    let cfg = ExsConfig::with_mode(ProtocolMode::Dynamic);

    for (idx, &cnode) in client_nodes.iter().enumerate() {
        let mut cctx = ExsContext::new(cnode);
        let (cfd, sfd) =
            ExsContext::socket_pair(&mut net, &mut cctx, &mut server_ctx, SockType::Stream, &cfg);
        let mr = net.with_api(cnode, |api| {
            cctx.exs_mregister(api, (MSG_LEN * 2) as usize, Access::NONE)
        });
        let smr = net.with_api(server_node, |api| {
            server_ctx.exs_mregister(api, 32 << 10, Access::local_remote_write())
        });
        server_streams.push((sfd, smr));
        clients.push(Client {
            ctx: Some(cctx),
            fd: cfd,
            stream_idx: idx,
            mr: Some(mr),
            sent: 0,
            acked: 0,
            pos: 0,
        });
    }

    let mut server = Server {
        ctx: Some(server_ctx),
        streams: server_streams,
        received: vec![0; CLIENTS],
        next_id: 0,
        id_stream: std::collections::HashMap::new(),
    };

    let mut apps: Vec<&mut dyn NodeApp> = Vec::new();
    apps.push(&mut server);
    for c in clients.iter_mut() {
        apps.push(c);
    }
    let outcome = net.run(&mut apps, SimTime::from_secs(30));
    assert!(outcome.completed, "fan-in stalled: {outcome:?}");

    // Each stream delivered its full, uncorrupted byte sequence.
    for idx in 0..CLIENTS {
        let st = server.ctx.as_ref().unwrap().stats(server.streams[idx].0);
        assert_eq!(st.bytes_received, MSGS as u64 * MSG_LEN, "stream {idx}");
    }
    // The shared receiver worked hard: with one outstanding receive per
    // stream the clients run ahead, so the server pays copy CPU.
    assert!(
        net.cpu_usage(server_node) > 0.3,
        "server CPU {} suspiciously idle",
        net.cpu_usage(server_node)
    );
}

/// Runs the reactor fan-in workload on the real-thread fabric and
/// returns each connection's delivery digest (in connection order)
/// plus the merged client-side (sender) counters. Each server
/// connection keeps `prepost` receives posted ahead of the data, so
/// the Fig. 3 advert gate stays open across message boundaries.
fn threaded_fan_in_digests(
    seed: u64,
    conns: usize,
    msgs: usize,
    msg_len: usize,
    prepost: usize,
) -> (Vec<u64>, ConnStats) {
    let cfg = ExsConfig {
        ring_capacity: 64 << 10,
        credits: 8,
        sq_depth: 16,
        direct: DirectPolicy {
            min_direct_size: 4 << 10,
            ..DirectPolicy::default()
        },
        ..ExsConfig::default()
    };
    let peers_n = conns.min(2);
    let mut net = ThreadNet::new();
    let server = net.add_node(HcaConfig::default());
    let peers: Vec<_> = (0..peers_n)
        .map(|_| net.add_node(HcaConfig::default()))
        .collect();
    for p in &peers {
        net.connect_nodes(p, &server, Duration::ZERO);
    }
    let net = Arc::new(net);
    let reactor = Arc::new(ThreadReactorPool::new(
        net.clone(),
        server.clone(),
        ReactorConfig::default(),
        &cfg,
        conns,
    ));

    let mut clients = Vec::new();
    let mut servers = Vec::new();
    for idx in 0..conns {
        let (conn, client) = reactor.accept(&peers[idx % peers_n], &cfg);
        clients.push(std::thread::spawn(move || {
            let mr = client.register(msg_len, Access::NONE);
            let mut pos = 0u64;
            for _ in 0..msgs {
                let data: Vec<u8> = (0..msg_len as u64)
                    .map(|i| payload_byte(seed, idx, pos + i))
                    .collect();
                client
                    .node()
                    .with_hca(|h| h.mem_mut().app_write(mr.key, mr.addr, &data))
                    .unwrap();
                let id = client.send(&mr, 0, msg_len as u64);
                client.wait_send(id, Duration::from_secs(30)).expect("send");
                pos += msg_len as u64;
            }
            client.shutdown();
            client // keep alive until the server drained the FIN
        }));
        let reactor = reactor.clone();
        servers.push(std::thread::spawn(move || {
            // One registration per pre-posted slot; keep `prepost`
            // receives outstanding so an advert is always pending when
            // the sender finishes a message (direct-mode re-entry).
            let mrs: Vec<MrInfo> = (0..prepost)
                .map(|_| reactor.register(msg_len, Access::local_remote_write()))
                .collect();
            let mut posted: std::collections::VecDeque<(u64, usize)> =
                std::collections::VecDeque::new();
            for (slot, mr) in mrs.iter().enumerate() {
                let id = reactor.post_recv(conn, mr, 0, msg_len as u32, false);
                posted.push_back((id, slot));
            }
            let mut digest = FNV_OFFSET;
            let mut buf = vec![0u8; msg_len];
            loop {
                let (id, slot) = posted.pop_front().expect("a receive is always posted");
                let len = reactor
                    .wait_recv(conn, id, Duration::from_secs(30))
                    .expect("recv");
                if len == 0 {
                    break;
                }
                let mr = &mrs[slot];
                buf.resize(len as usize, 0);
                reactor
                    .node()
                    .with_hca(|h| h.mem().app_read(mr.key, mr.addr, &mut buf))
                    .unwrap();
                digest = fnv1a(digest, &buf);
                let id = reactor.post_recv(conn, mr, 0, msg_len as u32, false);
                posted.push_back((id, slot));
            }
            digest
        }));
    }
    let digests: Vec<u64> = servers
        .into_iter()
        .map(|h| h.join().expect("server thread"))
        .collect();
    let mut tx = ConnStats::default();
    for h in clients {
        let client = h.join().expect("client thread");
        tx.merge(&client.stats());
        drop(client);
    }
    (digests, tx)
}

/// The same seeded fan-in workload, run through the reactor on the
/// deterministic simulator AND on the real-thread fabric, must deliver
/// byte-for-byte identical per-connection streams (same FNV digest per
/// connection, matching the pattern-derived expectation).
#[test]
fn reactor_fan_in_is_byte_identical_across_backends() {
    const SEED: u64 = 77;
    const CONNS: usize = 8;
    const MSGS: usize = 3;
    const MSG_LEN: usize = 4096;

    let spec = FanInSpec {
        client_nodes: 2,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN as u64,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    };
    let sim = run_fan_in(&spec);
    let (threaded, _tx) = threaded_fan_in_digests(SEED, CONNS, MSGS, MSG_LEN, 4);

    assert_eq!(sim.digests.len(), CONNS);
    assert_eq!(threaded.len(), CONNS);
    for (idx, &thr) in threaded.iter().enumerate() {
        let want = expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64);
        assert_eq!(sim.digests[idx], want, "sim conn {idx} delivery");
        assert_eq!(thr, want, "threaded conn {idx} delivery");
        assert_eq!(sim.digests[idx], thr, "backends disagree on conn {idx}");
    }
    // Determinism on the simulator: the same seed reproduces the run
    // event for event.
    let again = run_fan_in(&spec);
    assert_eq!(again.events, sim.events, "sim run is not reproducible");
    assert_eq!(again.digests, sim.digests);
}

/// The fair-share fabric model changes only *when* bytes arrive, never
/// which bytes: with four client nodes contending for the server's
/// ingress, the simulator still delivers per-connection streams
/// digest-identical to the pattern-derived expectation AND to the
/// real-thread backend (which has no fabric model at all), while the
/// fabric telemetry shows the flows really shared the link.
#[test]
fn fair_share_fan_in_is_byte_identical_across_backends() {
    const SEED: u64 = 0xFA1B;
    const CLIENT_NODES: usize = 4;
    const CONNS: usize = 8;
    const MSGS: usize = 3;
    const MSG_LEN: usize = 4096;

    let fair = run_fan_in(&FanInSpec {
        client_nodes: CLIENT_NODES,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN as u64,
        verify: VerifyLevel::Full,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    });
    let (threaded, _tx) = threaded_fan_in_digests(SEED, CONNS, MSGS, MSG_LEN, 4);

    assert_eq!(fair.digests.len(), CONNS);
    for (idx, &thr) in threaded.iter().enumerate() {
        let want = expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64);
        assert_eq!(fair.digests[idx], want, "fair-share conn {idx} delivery");
        assert_eq!(thr, want, "threaded conn {idx} delivery");
        assert_eq!(fair.digests[idx], thr, "backends disagree on conn {idx}");
    }
    // The model did engage: every client node's ingress flow moved
    // bytes, and arrivals re-sped transfers already in flight.
    let stats = fair.fabric.expect("fan-in reports fabric stats");
    assert_eq!(stats.model, "fair_share");
    assert_eq!(stats.seed, SEED);
    let busy = stats.flows.iter().filter(|f| f.bytes > 0).count();
    assert!(busy >= CLIENT_NODES, "only {busy} flows moved bytes");
    assert!(stats.respeeds > 0, "no transfer was ever re-sped");
}

/// The pooled buffer path (pin-down cache leases instead of up-front
/// registrations) must be invisible in the delivered bytes: the same
/// seeded run through pools matches the PR 2 digests of the unpooled
/// simulator run and the real-thread run alike.
#[test]
fn pooled_fan_in_matches_unpooled_and_threaded_digests() {
    const SEED: u64 = 77;
    const CONNS: usize = 8;
    const MSGS: usize = 3;
    const MSG_LEN: usize = 4096;

    let pooled = run_fan_in(&FanInSpec {
        client_nodes: 2,
        msgs_per_conn: MSGS,
        msg_len: MSG_LEN as u64,
        verify: VerifyLevel::Full,
        pooled: true,
        seed: SEED,
        ..FanInSpec::new(profiles::fdr_infiniband(), CONNS)
    });
    let (threaded, _tx) = threaded_fan_in_digests(SEED, CONNS, MSGS, MSG_LEN, 4);

    for (idx, &thr) in threaded.iter().enumerate() {
        let want = expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64);
        assert_eq!(pooled.digests[idx], want, "pooled sim conn {idx} delivery");
        assert_eq!(thr, want, "threaded conn {idx} delivery");
    }
    let pool = pooled.pool.expect("pooled run reports pool counters");
    assert!(
        pool.hits > 0,
        "send leases never hit the pin-down cache: {pool:?}"
    );
    assert_eq!(pool.evictions, 0, "default budget should not evict here");
}

/// Tentpole acceptance: with pre-posted receive queues keeping the
/// Fig. 3 advert gate open and the sender resync policy enabled,
/// large-message reactor fan-in recovers zero-copy on BOTH backends —
/// at least 90% of payload bytes travel direct at 8 and at 64
/// connections, and recovering it costs no throughput versus forcing
/// every byte through the bounce ring.
#[test]
fn large_message_fan_in_recovers_direct_mode_on_both_backends() {
    const SEED: u64 = 99;
    const MSGS: usize = 8;
    const MSG_LEN: usize = 64 << 10;

    for &conns in &[8usize, 64] {
        // Deterministic simulator backend, full payload verify.
        let spec = FanInSpec {
            client_nodes: 2,
            msgs_per_conn: MSGS,
            msg_len: MSG_LEN as u64,
            verify: VerifyLevel::Full,
            seed: SEED,
            ..FanInSpec::new(profiles::fdr_infiniband(), conns)
        };
        let report = run_fan_in(&spec);
        for (idx, &d) in report.digests.iter().enumerate() {
            assert_eq!(
                d,
                expected_digest(SEED, idx, (MSGS * MSG_LEN) as u64),
                "sim conn {idx} delivery at {conns} conns"
            );
        }
        assert!(
            report.direct_byte_ratio() >= 0.9,
            "sim {conns} conns stuck indirect: direct_byte_ratio {:.4}, tx {:?}",
            report.direct_byte_ratio(),
            report.aggregate_tx
        );
        assert!(
            report.aggregate_tx.resyncs_completed > 0,
            "policy never resynced at {conns} conns: {:?}",
            report.aggregate_tx
        );
        // The counters the tentpole promises are in the JSON snapshot.
        let json = report.to_json();
        for key in [
            "\"mode_switches\":",
            "\"resyncs_attempted\":",
            "\"resyncs_completed\":",
            "\"advert_queue_peak\":",
            "\"advert_queue_mean\":",
            "\"aggregate_tx\":",
        ] {
            assert!(json.contains(key), "snapshot lost {key}");
        }

        // Recovering zero-copy must not cost throughput: compare
        // against the same run with the policy off and every byte
        // forced through the intermediate ring.
        let mut indirect_cfg = fan_in_cfg();
        indirect_cfg.mode = ProtocolMode::IndirectOnly;
        indirect_cfg.direct = DirectPolicy::default();
        let baseline = run_fan_in(&FanInSpec {
            cfg: indirect_cfg,
            ..spec.clone()
        });
        assert!(
            report.throughput_mbps() >= 0.9 * baseline.throughput_mbps(),
            "direct-mode recovery slower than indirect-only at {conns} conns: \
             {:.1} vs {:.1} Mbit/s",
            report.throughput_mbps(),
            baseline.throughput_mbps()
        );

        // Real-thread backend: same workload, same bar.
        let msgs = if conns == 8 { MSGS } else { 4 };
        let (digests, tx) = threaded_fan_in_digests(SEED, conns, msgs, MSG_LEN, 4);
        for (idx, &d) in digests.iter().enumerate() {
            assert_eq!(
                d,
                expected_digest(SEED, idx, (msgs * MSG_LEN) as u64),
                "threaded conn {idx} delivery at {conns} conns"
            );
        }
        assert!(
            tx.direct_byte_ratio() >= 0.9,
            "threaded {conns} conns stuck indirect: direct_byte_ratio {:.4}, tx {tx:?}",
            tx.direct_byte_ratio()
        );
    }
}

// --- Mux fan-in at the fan-in budget: the control-plane regression gate ---

/// Streams into the server, in one block of ids per client node, so
/// each node's streams stripe over all its pooled QPs.
const MUX_STREAMS: usize = 256;
const MUX_NODES: usize = 4;
const MUX_PER_NODE: usize = MUX_STREAMS / MUX_NODES;
/// Messages per stream: far past the fast start, so a control plane
/// whose backlog grows as the fan-in runs shows as a slowdown.
const MUX_MSGS: usize = 32;
const MUX_SIZES: SizeDist = SizeDist::Uniform {
    lo: 64,
    hi: 8 << 10,
};
const MUX_OUTSTANDING: usize = 2;
const MUX_PREPOST: usize = 4;
const MUX_SEED: u64 = 12;

/// The repository's fan-in connection budget: 64 KiB ring, 16 credits,
/// SQ depth 16.
fn mux_budget_cfg() -> ExsConfig {
    ExsConfig {
        ring_capacity: 64 << 10,
        credits: 16,
        sq_depth: 16,
        ..ExsConfig::default()
    }
}

/// The stream ids client node `node` carries.
fn mux_streams_of(node: usize) -> std::ops::Range<usize> {
    node * MUX_PER_NODE..(node + 1) * MUX_PER_NODE
}

fn mux_sizes(stream: usize) -> Vec<u64> {
    MUX_SIZES.sample_many(MUX_SEED.wrapping_mul(1_000_003) + stream as u64, MUX_MSGS)
}

/// One stream's send side: [`MUX_OUTSTANDING`] sends in flight from
/// their own registered slots, then a close.
struct MuxTx {
    idx: usize,
    sizes: Vec<u64>,
    slots: Vec<MrInfo>,
    free: Vec<usize>,
    slot_of: Vec<usize>,
    sent: usize,
    acked: usize,
    pos: u64,
    closed: bool,
}

/// One client node: every stream it carries, on one endpoint.
struct MuxSender {
    ep: MuxEndpoint,
    streams: Vec<MuxTx>,
    scratch: Vec<u8>,
}

impl MuxSender {
    fn new(api: &mut impl VerbsPort, ep: MuxEndpoint, node: usize) -> MuxSender {
        let streams = mux_streams_of(node)
            .map(|idx| MuxTx {
                idx,
                sizes: mux_sizes(idx),
                slots: (0..MUX_OUTSTANDING)
                    .map(|_| api.register_mr(MUX_SIZES.max_size() as usize, Access::NONE))
                    .collect(),
                free: (0..MUX_OUTSTANDING).collect(),
                slot_of: vec![0; MUX_MSGS],
                sent: 0,
                acked: 0,
                pos: 0,
                closed: false,
            })
            .collect();
        MuxSender {
            ep,
            streams,
            scratch: Vec::new(),
        }
    }

    fn kick(&mut self, api: &mut impl VerbsPort, local: usize) {
        let s = &mut self.streams[local];
        while s.sent < MUX_MSGS {
            let Some(slot) = s.free.pop() else { break };
            let (len, mr) = (s.sizes[s.sent], s.slots[slot]);
            self.scratch.clear();
            self.scratch
                .extend((0..len).map(|i| payload_byte(MUX_SEED, s.idx, s.pos + i)));
            api.write_mr(mr.key, mr.addr, &self.scratch).unwrap();
            s.slot_of[s.sent] = slot;
            self.ep
                .mux_send(api, s.idx as u32, &mr, 0, len, s.sent as u64)
                .expect("send on an open stream");
            s.pos += len;
            s.sent += 1;
        }
        if s.acked == MUX_MSGS && !s.closed {
            self.ep.close_stream(api, s.idx as u32);
            s.closed = true;
        }
    }

    fn start(&mut self, api: &mut impl VerbsPort) {
        for local in 0..self.streams.len() {
            self.kick(api, local);
        }
    }

    /// Drains the endpoint and refills the streams whose sends
    /// completed. Returns true on any event.
    fn service(&mut self, api: &mut impl VerbsPort) -> bool {
        self.ep.handle_wake(api);
        let events = self.ep.take_events();
        for ev in &events {
            match *ev {
                MuxEvent::SendComplete { stream, id, .. } => {
                    let local = stream as usize % MUX_PER_NODE;
                    let s = &mut self.streams[local];
                    s.free.push(s.slot_of[id as usize]);
                    s.acked += 1;
                    self.kick(api, local);
                }
                MuxEvent::TransportError { slot } => {
                    panic!("client transport {slot}: {:?}", self.ep.last_error())
                }
                MuxEvent::StreamClosed { .. } | MuxEvent::RecvComplete { .. } => {}
            }
        }
        !events.is_empty()
    }

    fn done(&self) -> bool {
        self.streams.iter().all(|s| s.closed)
    }
}

/// One stream's receive side: [`MUX_PREPOST`] receives kept posted, a
/// digest of the delivered byte stream, and the message boundaries
/// that turn delivered bytes into delivered messages.
struct MuxRx {
    idx: usize,
    mrs: Vec<MrInfo>,
    posted: VecDeque<(u64, usize)>,
    free: Vec<usize>,
    /// Stream offsets at which each message ends.
    ends: Vec<u64>,
    next_msg: usize,
    received: u64,
    digest: u64,
    eof: bool,
}

/// The server's peer endpoint for one client node.
struct MuxReceiver {
    ep: MuxEndpoint,
    streams: Vec<MuxRx>,
    next_id: u64,
    scratch: Vec<u8>,
}

impl MuxReceiver {
    fn new(api: &mut impl VerbsPort, ep: MuxEndpoint, node: usize) -> MuxReceiver {
        let streams = mux_streams_of(node)
            .map(|idx| MuxRx {
                idx,
                mrs: (0..MUX_PREPOST)
                    .map(|_| {
                        api.register_mr(MUX_SIZES.max_size() as usize, Access::local_remote_write())
                    })
                    .collect(),
                posted: VecDeque::new(),
                free: (0..MUX_PREPOST).collect(),
                ends: mux_sizes(idx)
                    .iter()
                    .scan(0, |end, &len| {
                        *end += len;
                        Some(*end)
                    })
                    .collect(),
                next_msg: 0,
                received: 0,
                digest: FNV_OFFSET,
                eof: false,
            })
            .collect();
        MuxReceiver {
            ep,
            streams,
            next_id: 0,
            scratch: Vec::new(),
        }
    }

    fn refill(&mut self, api: &mut impl VerbsPort, local: usize) {
        let s = &mut self.streams[local];
        let total = *s.ends.last().expect("every stream sends");
        while !s.eof && s.received < total {
            let Some(slot) = s.free.pop() else { break };
            let id = self.next_id;
            self.next_id += 1;
            self.ep
                .mux_recv(
                    api,
                    s.idx as u32,
                    &s.mrs[slot],
                    0,
                    MUX_SIZES.max_size() as u32,
                    false,
                    id,
                )
                .expect("receive on an open stream");
            s.posted.push_back((id, slot));
        }
    }

    fn start(&mut self, api: &mut impl VerbsPort) {
        for local in 0..self.streams.len() {
            self.refill(api, local);
        }
    }

    /// Drains the endpoint, folds delivered bytes into the digests and
    /// reposts receives. Returns the messages completed by this call
    /// and whether any event arrived.
    fn service(&mut self, api: &mut impl VerbsPort) -> (usize, bool) {
        self.ep.handle_wake(api);
        let events = self.ep.take_events();
        let mut delivered = 0;
        for ev in &events {
            match *ev {
                MuxEvent::RecvComplete { stream, id, len } => {
                    let local = stream as usize % MUX_PER_NODE;
                    let s = &mut self.streams[local];
                    let (posted_id, slot) = s.posted.pop_front().expect("a posted receive");
                    assert_eq!(posted_id, id, "receives complete in posting order");
                    let mr = s.mrs[slot];
                    self.scratch.resize(len as usize, 0);
                    api.read_mr(mr.key, mr.addr, &mut self.scratch).unwrap();
                    s.digest = fnv1a(s.digest, &self.scratch);
                    s.received += len as u64;
                    while s.next_msg < s.ends.len() && s.ends[s.next_msg] <= s.received {
                        s.next_msg += 1;
                        delivered += 1;
                    }
                    s.free.push(slot);
                    self.refill(api, local);
                }
                MuxEvent::StreamClosed { stream } => {
                    self.streams[stream as usize % MUX_PER_NODE].eof = true;
                    self.ep.close_stream(api, stream);
                }
                MuxEvent::TransportError { slot } => {
                    panic!("server transport {slot}: {:?}", self.ep.last_error())
                }
                MuxEvent::SendComplete { .. } => {}
            }
        }
        (delivered, !events.is_empty())
    }

    fn done(&self) -> bool {
        self.streams
            .iter()
            .all(|s| s.eof && s.next_msg == s.ends.len())
    }
}

struct SimMuxClient(MuxSender);

impl NodeApp for SimMuxClient {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.0.start(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.0.service(api);
    }
    fn is_done(&self) -> bool {
        self.0.done()
    }
}

struct SimMuxServer {
    rx: Vec<MuxReceiver>,
    /// Simulated time of every message delivery, in order.
    delivered_at: Vec<SimTime>,
}

impl NodeApp for SimMuxServer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for rx in &mut self.rx {
            rx.start(api);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        for rx in &mut self.rx {
            let (delivered, _) = rx.service(api);
            let now = api.now();
            self.delivered_at
                .extend(std::iter::repeat_n(now, delivered));
        }
    }
    fn is_done(&self) -> bool {
        self.rx.iter().all(MuxReceiver::done)
    }
}

/// Per-stream digests, in stream order.
fn mux_digests(rx: &[MuxReceiver]) -> Vec<u64> {
    let mut digests = vec![0; MUX_STREAMS];
    for s in rx.iter().flat_map(|r| &r.streams) {
        digests[s.idx] = s.digest;
    }
    digests
}

fn assert_mux_digests(digests: &[u64], backend: &str) {
    for (idx, &d) in digests.iter().enumerate() {
        let total: u64 = mux_sizes(idx).iter().sum();
        assert_eq!(
            d,
            expected_digest(MUX_SEED, idx, total),
            "{backend} stream {idx} delivery"
        );
    }
}

/// Regression gate for the mux control plane: a fan-in of small
/// messages at the fan-in budget must keep its pace. A control queue
/// that grows behind the one-credit reserve shows here as a queue peak
/// past the per-transport bound, as control messages outnumbering the
/// data, and as a fan-in that slows the longer it runs.
#[test]
fn mux_fan_in_control_plane_stays_bounded_and_keeps_pace() {
    use rdma_stream::verbs::{FabricModel, FairShareConfig};

    let profile = profiles::fdr_infiniband();
    let cfg = mux_budget_cfg();
    let mut net = SimNet::new();
    net.set_fabric(FabricModel::FairShare(FairShareConfig::new(MUX_SEED)));
    net.set_host_seed(MUX_SEED);
    let server = net.add_node(profile.host.clone(), profile.hca.clone());
    let nodes: Vec<NodeId> = (0..MUX_NODES)
        .map(|_| net.add_node(profile.host.clone(), profile.hca.clone()))
        .collect();
    let mut clients = Vec::new();
    let mut rx = Vec::new();
    for (i, &node) in nodes.iter().enumerate() {
        net.connect_nodes(node, server, profile.link.clone(), MUX_SEED + i as u64);
        let mut cep = MuxEndpoint::new(node, &cfg);
        let mut sep = MuxEndpoint::new(server, &cfg);
        for idx in mux_streams_of(i) {
            cep.open_stream(idx as u32).unwrap();
            sep.open_stream(idx as u32).unwrap();
        }
        connect_mux_pair(&mut net, &mut cep, &mut sep);
        clients.push(SimMuxClient(
            net.with_api(node, |api| MuxSender::new(api, cep, i)),
        ));
        rx.push(net.with_api(server, |api| MuxReceiver::new(api, sep, i)));
    }
    let mut srv = SimMuxServer {
        rx,
        delivered_at: Vec::new(),
    };
    let mut apps: Vec<&mut dyn NodeApp> = vec![&mut srv];
    for c in clients.iter_mut() {
        apps.push(c);
    }
    let outcome = net.run(&mut apps, SimTime::from_secs(60));
    assert!(outcome.completed, "mux fan-in stalled: {outcome:?}");
    assert_mux_digests(&mux_digests(&srv.rx), "sim");

    let mut stats = ConnStats::default();
    for ep in srv
        .rx
        .iter()
        .map(|r| &r.ep)
        .chain(clients.iter().map(|c| &c.0.ep))
    {
        stats.merge(ep.stats());
    }
    assert_eq!(stats.protocol_errors, 0);
    let pool = cfg.mux.qp_pool_size;
    let per_transport = (0..MUX_NODES)
        .flat_map(|node| {
            let ep = &srv.rx[node].ep;
            (0..pool).map(move |slot| {
                mux_streams_of(node)
                    .filter(|&i| ep.slot_of(i as u32) == slot)
                    .count()
            })
        })
        .max()
        .unwrap();
    assert!(
        stats.ctrl_queue_peak <= 2 * per_transport as u64 + 2,
        "control queue peaked at {} for {per_transport} streams per transport",
        stats.ctrl_queue_peak
    );
    let msgs = (MUX_STREAMS * MUX_MSGS) as f64;
    let ctrl = (stats.adverts_sent + stats.acks_sent + stats.credits_sent) as f64;
    assert!(
        ctrl / msgs <= 4.0,
        "{:.1} control messages per delivered message",
        ctrl / msgs
    );

    let at = &srv.delivered_at;
    let n = at.len();
    assert_eq!(n, MUX_STREAMS * MUX_MSGS);
    let first = at[n / 4 - 1].saturating_duration_since(SimTime::ZERO);
    let last = at[n - 1].saturating_duration_since(at[n - 1 - n / 4]);
    let slowdown = last.as_nanos() as f64 / first.as_nanos() as f64;
    assert!(
        slowdown <= 2.0,
        "the last quarter of deliveries took {slowdown:.1}x the first quarter's time"
    );
}

/// The same fan-in on the real-thread fabric delivers the same bytes.
#[test]
fn mux_fan_in_at_the_budget_matches_digests_on_threads() {
    let cfg = mux_budget_cfg();
    let mut net = ThreadNet::new();
    let server = net.add_node(HcaConfig::default());
    let nodes: Vec<_> = (0..MUX_NODES)
        .map(|_| net.add_node(HcaConfig::default()))
        .collect();
    for node in &nodes {
        net.connect_nodes(node, &server, Duration::ZERO);
    }
    let mut clients = Vec::new();
    let mut rx = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let mut cep = MuxEndpoint::new(node.id(), &cfg);
        let mut sep = MuxEndpoint::new(server.id(), &cfg);
        for idx in mux_streams_of(i) {
            cep.open_stream(idx as u32).unwrap();
            sep.open_stream(idx as u32).unwrap();
        }
        connect_mux_over(&net, (node, &mut cep), (&server, &mut sep));
        let mut sender = MuxSender::new(&mut ThreadPort::new(&net, node), cep, i);
        let mut receiver = MuxReceiver::new(&mut ThreadPort::new(&net, &server), sep, i);
        receiver.start(&mut ThreadPort::new(&net, &server));
        sender.start(&mut ThreadPort::new(&net, node));
        clients.push(sender);
        rx.push(receiver);
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while !rx.iter().all(MuxReceiver::done) || !clients.iter().all(MuxSender::done) {
        let mut busy = false;
        for (c, node) in clients.iter_mut().zip(&nodes) {
            busy |= c.service(&mut ThreadPort::new(&net, node));
        }
        for r in rx.iter_mut() {
            busy |= r.service(&mut ThreadPort::new(&net, &server)).1;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "threaded mux fan-in stalled"
        );
        if !busy {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    assert_mux_digests(&mux_digests(&rx), "threaded");
    net.quiesce();
}
