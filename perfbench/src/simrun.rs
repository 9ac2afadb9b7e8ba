//! Running node applications on the simulator under a span per
//! callback and a host-time limit.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use exs::{ConnStats, ExsConfig, StreamSocket};
use rdma_verbs::{FabricModel, HwProfile, NodeApi, NodeApp, NodeId, RunOutcome, SimNet};
use simnet::{FairShareConfig, SimDuration, SimTime};

use crate::measure::{Failure, Ledger, Percentiles};
use crate::metrics::{protocol_counters, ratio, Rep, SimFigures};
use crate::trace::{self, Layer, Timeline};

/// Track of the simulator's event loop; node `i` is track `i + 1`.
pub const ENGINE_TRACK: u32 = 0;

/// Track of simulated node `node`.
pub fn node_track(node: u32) -> u32 {
    node + 1
}

/// The fabric every simulated workload runs on, set explicitly so the
/// figures do not depend on `SimNet`'s default model: max-min fair
/// sharing with a non-blocking core, jitter seeded from the workload.
pub fn fabric(seed: u64) -> FabricModel {
    FabricModel::FairShare(FairShareConfig::new(seed))
}

/// A simulator on [`fabric`] with `nodes` nodes of `profile`. Host
/// jitter is seeded from `seed`, salted per workload.
pub fn new_net(seed: u64, salt: u64, profile: &HwProfile, nodes: usize) -> (SimNet, Vec<NodeId>) {
    let mut net = trace::span(Layer::Simnet, "SimNet::new", SimNet::new);
    trace::span(Layer::Simnet, "SimNet::set_fabric", || {
        net.set_fabric(fabric(seed))
    });
    net.set_host_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt));
    let ids = (0..nodes)
        .map(|_| {
            trace::span(Layer::Simnet, "SimNet::add_node", || {
                net.add_node(profile.host.clone(), profile.hca.clone())
            })
        })
        .collect();
    (net, ids)
}

/// Two nodes joined by one link and one `StreamSocket` connection:
/// node 0 is the client, node 1 the server.
pub fn connection(
    seed: u64,
    salt: u64,
    profile: &HwProfile,
    cfg: &ExsConfig,
) -> (SimNet, [NodeId; 2], [StreamSocket; 2]) {
    let (mut net, ids) = new_net(seed, salt, profile, 2);
    let (c, s) = (ids[0], ids[1]);
    trace::span(Layer::Simnet, "SimNet::connect_nodes", || {
        net.connect_nodes(c, s, profile.link.clone(), seed)
    });
    let (sock_c, sock_s) = trace::span(Layer::Exs, "StreamSocket::pair", || {
        StreamSocket::pair(&mut net, c, s, cfg)
    });
    (net, [c, s], [sock_c, sock_s])
}

/// What a simulated repetition leaves for [`fold`].
pub struct SimEnd<'a> {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// How the simulation ran.
    pub ran: Ran,
    /// Messages (or round trips) the repetition set out to complete.
    pub attempted: usize,
    /// Per measured stream: when each message was sent, and when its
    /// last byte was delivered.
    pub streams: Vec<(&'a [SimTime], &'a [SimTime])>,
    /// User payload bytes delivered, in both directions.
    pub payload_bytes: u64,
    /// Bytes the receiving endpoint delivered (its copy-out base).
    pub rx_bytes: u64,
    /// Statistics of the sending endpoints.
    pub tx: ConnStats,
    /// Statistics of the receiving endpoint.
    pub rx: ConnStats,
    /// The sending nodes.
    pub tx_nodes: Vec<NodeId>,
    /// The receiving node.
    pub rx_node: NodeId,
    /// Bottleneck bandwidth the goodput shares.
    pub bandwidth_bps: u64,
    /// Role of each node, in node order, naming the trace tracks.
    pub roles: &'a [&'a str],
}

/// Folds a simulated repetition into its [`Rep`], with the checks every
/// simulated workload shares: undelivered messages are stalls, protocol
/// errors and CQ overflows fail, and so does a goodput above the link.
/// Latency runs from a message's send to its last byte, goodput from
/// the first send to the last byte delivered.
pub fn fold(net: &SimNet, end: SimEnd<'_>, mut ledger: Ledger) -> Rep {
    let delivered: usize = end.streams.iter().map(|(_, d)| d.len()).sum();
    if delivered < end.attempted {
        ledger.fail(
            Failure::Stall,
            (end.attempted - delivered) as u64,
            format!(
                "{delivered}/{} messages delivered by {:?} (expired: {})",
                end.attempted, end.ran.outcome.end, end.ran.expired
            ),
        );
    }
    ledger.check_endpoint("senders", end.tx.protocol_errors, end.tx.cq_overflowed);
    ledger.check_endpoint("receiver", end.rx.protocol_errors, end.rx.cq_overflowed);

    let mut lat = Vec::with_capacity(delivered);
    let (mut first, mut last) = (None::<SimTime>, None::<SimTime>);
    for (sent, done) in &end.streams {
        if let Some(&t) = sent.first() {
            first = Some(first.map_or(t, |f| f.min(t)));
        }
        last = last.max(done.last().copied());
        lat.extend(
            done.iter()
                .zip(sent.iter())
                .map(|(d, s)| d.saturating_duration_since(*s).as_nanos()),
        );
    }
    let first = first.unwrap_or(SimTime::ZERO);
    let span_ns = last
        .unwrap_or(first)
        .saturating_duration_since(first)
        .as_nanos();
    let goodput_gbps = ratio(end.payload_bytes as f64 * 8.0, span_ns as f64);
    let offered = ratio(goodput_gbps * 1e9, end.bandwidth_bps as f64);
    ledger.check_capacity(offered);

    let ops = delivered as u64;
    let events = end.ran.outcome.events;
    let cpu_rx_ns = net.cpu_busy_total(end.rx_node).as_nanos();
    let cpu_tx_ns: u64 = end
        .tx_nodes
        .iter()
        .map(|&n| net.cpu_busy_total(n).as_nanos())
        .sum();
    let mut layer = BTreeMap::new();
    protocol_counters(&end.tx, &end.rx, ops, end.rx_bytes, &mut layer);
    layer.insert("simnet.events_per_op", ratio(events as f64, ops as f64));
    if let Some(fs) = net.fabric_stats() {
        layer.insert("simnet.fabric_respeeds", fs.respeeds as f64);
        layer.insert("simnet.fabric_jain", fs.jain_index);
    }
    layer.insert("simnet.offered_load_ratio", offered);
    layer.insert("verbs.cpu_busy_rx_s", cpu_rx_ns as f64 / 1e9);
    layer.insert("verbs.cpu_busy_tx_s", cpu_tx_ns as f64 / 1e9);

    let kib = end.payload_bytes as f64 / 1024.0;
    Rep {
        setup_s: end.setup_s,
        wall_s: end.ran.wall_s,
        ops,
        payload_bytes: end.payload_bytes,
        sim: Some(SimFigures {
            goodput_gbps,
            lat_ns: Percentiles::of(lat),
            cpu_rx_ns_per_kib: ratio(cpu_rx_ns as f64, kib),
            cpu_tx_ns_per_kib: ratio(cpu_tx_ns as f64, kib),
            events,
            span_ns,
        }),
        wall_lat_ns: Vec::new(),
        layer,
        ledger,
        timeline: finish_timeline(end.roles),
        rx_tracks: vec![node_track(end.rx_node.0)],
    }
}

/// One node's application under a span per callback. Once the host
/// deadline passes every wrapper reports done, so a stalled or
/// livelocked simulation ends and its missing operations count as
/// failed instead of running past the benchmark's time budget.
struct Traced<'a> {
    app: &'a mut dyn NodeApp,
    track: u32,
    deadline: Instant,
    checks: Cell<u32>,
    expired: &'a Cell<bool>,
}

impl NodeApp for Traced<'_> {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        trace::set_track(self.track);
        trace::span(Layer::App, "NodeApp::on_start", || self.app.on_start(api));
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        trace::set_track(self.track);
        trace::span(Layer::App, "NodeApp::on_wake", || self.app.on_wake(api));
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        trace::set_track(self.track);
        trace::span(Layer::App, "NodeApp::on_timer", || {
            self.app.on_timer(api, token)
        });
    }

    fn is_done(&self) -> bool {
        if self.app.is_done() {
            return true;
        }
        let n = self.checks.get().wrapping_add(1);
        self.checks.set(n);
        if n.is_multiple_of(1024) && Instant::now() >= self.deadline {
            self.expired.set(true);
        }
        self.expired.get()
    }
}

/// How a simulation run ended.
pub struct Ran {
    /// The simulator's outcome.
    pub outcome: RunOutcome,
    /// Host seconds inside `SimNet::run`.
    pub wall_s: f64,
    /// True when the host deadline cut the run short.
    pub expired: bool,
}

/// Runs `apps` (one per node, in node order) until done, until the
/// simulated clock passes `limit`, or until the host `deadline`.
pub fn run(
    net: &mut SimNet,
    apps: Vec<&mut dyn NodeApp>,
    limit: SimDuration,
    deadline: Instant,
) -> Ran {
    let expired = Cell::new(false);
    let mut wrapped: Vec<Traced<'_>> = apps
        .into_iter()
        .enumerate()
        .map(|(i, app)| Traced {
            app,
            track: node_track(i as u32),
            deadline,
            checks: Cell::new(0),
            expired: &expired,
        })
        .collect();
    let mut refs: Vec<&mut dyn NodeApp> =
        wrapped.iter_mut().map(|w| w as &mut dyn NodeApp).collect();
    trace::set_track(ENGINE_TRACK);
    let start = Instant::now();
    let outcome = trace::span(Layer::Simnet, "SimNet::run", || {
        net.run(&mut refs, SimTime::ZERO + limit)
    });
    let wall_s = start.elapsed().as_secs_f64();
    trace::set_track(ENGINE_TRACK);
    Ran {
        outcome,
        wall_s,
        expired: expired.get(),
    }
}

/// Stops tracing on this thread and names the engine track and one
/// track per node after its role (`None` when tracing was off).
pub fn finish_timeline<S: AsRef<str>>(roles: &[S]) -> Option<Timeline> {
    trace::finish().map(|t| {
        let mut tl = Timeline::default();
        tl.absorb(t);
        tl.name_track(ENGINE_TRACK, "simnet engine");
        for (i, role) in roles.iter().enumerate() {
            tl.name_track(
                node_track(i as u32),
                format!("node {i} ({})", role.as_ref()),
            );
        }
        tl
    })
}
