//! Fan-in workload: M client streams blast into **one** server node.
//!
//! Where [`crate::runner`] reproduces the paper's 1:1 blast tool, this
//! module measures the server-scalability question the reactor
//! subsystem exists for: how one node multiplexes hundreds or thousands
//! of EXS connections over shared completion queues, instead of polling
//! per-connection CQs. [`run_fan_in`] builds the topology, the clients
//! and the report once; [`ServerKind`] picks how the server consumes:
//! a callback loop over a [`ReactorPool`], one async task per
//! connection, or every connection as a stream on pooled-QP
//! [`MuxEndpoint`]s.
//!
//! The run reports aggregate ingress throughput, the per-connection
//! direct:indirect split, and the reactor's event-loop counters (CQ
//! drain batch sizes, fairness deferrals). Per-connection delivery is
//! digested with FNV-1a in arrival order so different server kinds and
//! backends running the same seed can be compared byte-for-byte.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use exs::{
    connect_mux_pair, AioStats, ConnStats, DirectPolicy, Executor, ExsConfig, ExsError, ExsEvent,
    MemPool, MemPoolConfig, MrLease, MuxEndpoint, MuxEvent, MuxId, Placement, PoolStats, Reactor,
    ReactorConfig, ReactorPool, ReactorStats, Readiness, ShardBalance, ShardConfig, ShardHandle,
    ShardPolicy, ShardStats, SimDriver, StreamSocket,
};
use rdma_verbs::{
    Access, FabricModel, FabricStats, HwProfile, MrInfo, NodeApi, NodeApp, NodeId, SimNet,
};
use simnet::{SimDuration, SimTime};

use crate::runner::VerifyLevel;

/// FNV-1a 64-bit offset basis (digest seed).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit digest.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The byte every backend writes at stream `offset` of connection
/// `conn` for workload seed `seed` — shared so the SimFabric and
/// ThreadFabric runs produce comparable streams.
pub fn payload_byte(seed: u64, conn: usize, offset: u64) -> u8 {
    offset
        .wrapping_mul(31)
        .wrapping_add(conn as u64 * 7)
        .wrapping_add(seed) as u8
}

/// The digest a connection's full stream must hash to.
pub fn expected_digest(seed: u64, conn: usize, total: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for off in 0..total {
        h = fnv1a(h, &[payload_byte(seed, conn, off)]);
    }
    h
}

/// An [`ExsConfig`] sized for many concurrent connections on one node:
/// the defaults (16 MiB ring, 1024 credits) are per-connection resource
/// budgets a thousand-way fan-in cannot afford. Adaptive direct-mode
/// re-entry is on — a sender with ≥ 4 KiB left pauses for the server's
/// pre-posted advert queue instead of paying the indirect memcpy.
pub fn fan_in_cfg() -> ExsConfig {
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

/// How the fan-in server consumes its connections. Delivered bytes and
/// digests are identical across kinds; only the consumption or
/// transport model changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServerKind {
    /// A callback loop over a [`ReactorPool`]: every connection keeps
    /// `prepost_recvs` receives posted and folds each completion.
    #[default]
    Callback,
    /// One async task per connection (a `recv_some` loop folding the
    /// same FNV-1a digest) on one [`exs::aio`] executor per shard.
    /// Ignores `pooled` on the server side: the executors' readahead
    /// buffers are always pool leases.
    Aio,
    /// Shared transport: instead of one private QP per connection,
    /// every connection becomes a **stream** on a pooled-QP
    /// [`MuxEndpoint`] pair per client node (`cfg.mux.qp_pool_size`
    /// QPs each, stream ids in the WWI immediate), all hosted in one
    /// reactor. Ignores `pooled`; not wired for `shards > 1`.
    Mux,
}

/// One fan-in experiment configuration.
#[derive(Clone, Debug)]
pub struct FanInSpec {
    /// Hardware model for every node and link.
    pub profile: HwProfile,
    /// Per-connection EXS configuration (see [`fan_in_cfg`]).
    pub cfg: ExsConfig,
    /// Reactor tunables (budget, drain batch).
    pub reactor: ReactorConfig,
    /// Concurrent connections into the server.
    pub conns: usize,
    /// Client nodes the connections are spread over (round-robin;
    /// clamped to `1..=conns`).
    pub client_nodes: usize,
    /// Messages each connection sends.
    pub msgs_per_conn: usize,
    /// Bytes per message.
    pub msg_len: u64,
    /// Simultaneously outstanding `exs_send`s per connection.
    pub outstanding_sends: usize,
    /// Posted receive length (0 ⇒ `msg_len`).
    pub recv_len: u32,
    /// Receive buffers each server connection keeps posted ahead of the
    /// data (clamped to ≥ 1). Depth > 1 is what keeps the Fig. 3 advert
    /// gate open: when a receive completes, the next buffers are already
    /// advertised, so the sender's next transfer decision sees a usable
    /// ADVERT instead of falling back to the intermediate ring.
    pub prepost_recvs: usize,
    /// Payload verification level.
    pub verify: VerifyLevel,
    /// Source buffers through registered-memory pools: clients lease a
    /// send buffer per message from their node's pin-down cache (first
    /// uses register, later ones hit), and the server's receive buffers
    /// are pool leases. Off: every buffer is registered up front and
    /// held for the whole run. Delivered bytes are identical either
    /// way; only registration traffic and CPU cost differ.
    pub pooled: bool,
    /// How the server consumes (see [`ServerKind`]).
    pub server: ServerKind,
    /// Reactor shards at the server (0/1 ⇒ one reactor, the classic
    /// single-loop server). With N > 1 each shard gets its own CQ pair
    /// (and, for [`ServerKind::Aio`], its own executor), connections
    /// are routed once at accept by `shard_policy`, and the sim driver
    /// interleaves the shards deterministically — delivered bytes and
    /// digests are identical to the single-shard run. Not wired for
    /// [`ServerKind::Mux`].
    pub shards: usize,
    /// Placement policy for `shards > 1`.
    pub shard_policy: ShardPolicy,
    /// Workload seed (host jitter, link seeds, payload pattern).
    pub seed: u64,
    /// Bandwidth-contention model for the simulated fabric.
    /// [`FabricModel::Fifo`] (default) gives every node pair a private
    /// serializing link — aggregate ingress can exceed the server NIC's
    /// line rate. [`FabricModel::FairShare`] makes concurrent flows
    /// split NIC/core capacity max-min fairly, capping the aggregate at
    /// the bottleneck and exposing incast contention.
    pub fabric: FabricModel,
    /// Abort threshold for the virtual clock.
    pub time_limit: SimDuration,
}

impl FanInSpec {
    /// A spec with scale-friendly defaults for `conns` connections.
    pub fn new(profile: HwProfile, conns: usize) -> FanInSpec {
        FanInSpec {
            profile,
            cfg: fan_in_cfg(),
            reactor: ReactorConfig::default(),
            conns,
            client_nodes: conns.min(8),
            msgs_per_conn: 8,
            msg_len: 16 << 10,
            outstanding_sends: 2,
            recv_len: 0,
            prepost_recvs: 4,
            verify: VerifyLevel::None,
            pooled: false,
            server: ServerKind::Callback,
            shards: 1,
            shard_policy: ShardPolicy::RoundRobin,
            seed: 1,
            fabric: FabricModel::Fifo,
            time_limit: SimDuration::from_secs(600),
        }
    }

    fn effective_recv_len(&self) -> u32 {
        if self.recv_len != 0 {
            self.recv_len
        } else {
            self.msg_len.min(u32::MAX as u64) as u32
        }
    }

    fn effective_prepost(&self) -> usize {
        self.prepost_recvs.max(1)
    }

    fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }

    fn shard_cfg(&self) -> ShardConfig {
        ShardConfig {
            shards: self.effective_shards(),
            policy: self.shard_policy,
        }
    }
}

/// The result of one fan-in run.
#[derive(Clone, Debug)]
pub struct FanInReport {
    /// Connections that ran.
    pub conns: usize,
    /// Total bytes delivered across all connections.
    pub bytes: u64,
    /// Virtual time from start to the last byte's delivery.
    pub elapsed: SimDuration,
    /// Each connection's server-side protocol counters.
    pub per_conn: Vec<ConnStats>,
    /// FNV-1a digest of each connection's delivered stream, in delivery
    /// order.
    pub digests: Vec<u64>,
    /// Sum of the per-connection counters at the server (receiver
    /// side: copies out of the ring, receives completed, ADVERTs sent).
    pub aggregate: ConnStats,
    /// Sum of the per-connection counters at the clients (sender side:
    /// direct/indirect transfer split, resync attempts, ADVERTs
    /// consumed) — the half the server-side aggregate cannot see.
    pub aggregate_tx: ConnStats,
    /// The server reactor's event-loop counters.
    pub reactor: ReactorStats,
    /// Merged memory-pool counters (server + every client node) for a
    /// pooled run; `None` when the run registered buffers directly.
    pub pool: Option<PoolStats>,
    /// The configured per-link bandwidth (bps) — the server NIC's line
    /// rate, i.e. the physical ceiling on aggregate ingress. 0 on the
    /// ideal (unlimited) profile. Capacity context for the throughput
    /// number: without it an over-capacity result looks plausible.
    pub link_bandwidth_bps: u64,
    /// Fair-share fabric telemetry (per-flow achieved rates, re-speed
    /// counts, Jain fairness index); `None` on the FIFO model.
    pub fabric: Option<FabricStats>,
    /// Wall-clock time spent on connection establishment (QP creation,
    /// MR registration, parameter exchange) before the timed transfer —
    /// the setup-latency axis of the QP-per-stream vs pooled comparison.
    pub setup_wall: std::time::Duration,
    /// Server-side modeled pinned/context memory in mux mode, captured
    /// at full stream fan-out (every stream open, every pool transport
    /// established); `None` on the QP-per-connection path.
    pub mux_footprint: Option<u64>,
    /// The same memory model applied to a QP-per-stream baseline
    /// carrying this run's stream count; `None` outside mux mode.
    pub mux_baseline: Option<u64>,
    /// Async-executor counters (tasks, wakeups, polls, timers,
    /// cancellations) for an aio-mode run; `None` on the callback
    /// paths.
    pub aio: Option<AioStats>,
    /// Per-shard service-loop telemetry (placement, steals, poll and
    /// dispatch volume, busy ratio where a wall clock exists). Present
    /// on every sharded-capable path — a single-shard run reports one
    /// entry, so snapshots across shard counts stay structurally
    /// comparable. `None` only in mux mode (not wired for shards).
    pub shard_stats: Option<Vec<ShardStats>>,
    /// Per-shard async-executor counters for a sharded aio run.
    pub aio_per_shard: Option<Vec<AioStats>>,
    /// Simulator events processed.
    pub events: u64,
}

impl FanInReport {
    /// Aggregate ingress throughput in Mbit/s.
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.bytes as f64 * 8.0 / self.elapsed.as_secs_f64() / 1e6
        }
    }

    /// Direct share of all transfers into the server. Transfer-mode
    /// counters live on the *sending* half, so this reads the
    /// client-side aggregate (the server-side block used to report a
    /// vacuous 0/0 here).
    pub fn direct_ratio(&self) -> f64 {
        self.aggregate_tx.direct_ratio()
    }

    /// Direct share of all bytes into the server (sender-side
    /// counters, like [`FanInReport::direct_ratio`]).
    pub fn direct_byte_ratio(&self) -> f64 {
        self.aggregate_tx.direct_byte_ratio()
    }

    /// Aggregate ingress throughput as a fraction of the bottleneck
    /// link's capacity. A value above ~1.0 is self-evidently bogus —
    /// more payload delivered per second than the server NIC can carry
    /// (the FIFO model produces exactly this at high fan-in). 0.0 when
    /// the profile's bandwidth is unlimited.
    pub fn offered_load_ratio(&self) -> f64 {
        if self.link_bandwidth_bps == 0 {
            0.0
        } else {
            self.throughput_mbps() * 1e6 / self.link_bandwidth_bps as f64
        }
    }

    /// Modeled pinned/context bytes per stream in mux mode (`None`
    /// elsewhere): the acceptance gate divides this against
    /// [`FanInReport::mux_baseline`]`/conns`.
    pub fn memory_per_stream(&self) -> Option<u64> {
        self.mux_footprint.map(|f| f / self.conns.max(1) as u64)
    }

    /// Serializes the whole run — aggregate counters, reactor counters,
    /// and the per-connection snapshots — as one JSON object
    /// (dependency-free, like [`ConnStats::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.per_conn.len() * 256);
        out.push_str(&format!(
            "{{\"conns\":{},\"bytes\":{},\"elapsed_ns\":{},\
             \"throughput_mbps\":{:.3},\"link_bandwidth_bps\":{},\
             \"offered_load_ratio\":{:.6},\"direct_ratio\":{:.6},\
             \"direct_byte_ratio\":{:.6},\"setup_wall_us\":{},\"events\":{},",
            self.conns,
            self.bytes,
            self.elapsed.as_nanos(),
            self.throughput_mbps(),
            self.link_bandwidth_bps,
            self.offered_load_ratio(),
            self.direct_ratio(),
            self.direct_byte_ratio(),
            self.setup_wall.as_micros(),
            self.events,
        ));
        if let (Some(fp), Some(base)) = (self.mux_footprint, self.mux_baseline) {
            out.push_str(&format!(
                "\"mux_footprint\":{},\"mux_baseline\":{},\
                 \"memory_per_stream\":{},",
                fp,
                base,
                self.memory_per_stream().unwrap_or(0),
            ));
        }
        out.push_str(&format!("\"aggregate\":{},", self.aggregate.to_json()));
        out.push_str(&format!(
            "\"aggregate_tx\":{},",
            self.aggregate_tx.to_json()
        ));
        out.push_str(&format!("\"reactor\":{},", self.reactor.to_json()));
        if let Some(fabric) = &self.fabric {
            out.push_str(&format!("\"fabric\":{},", fabric.to_json()));
        }
        if let Some(pool) = &self.pool {
            out.push_str(&format!("\"pool\":{},", pool.to_json()));
        }
        if let Some(aio) = &self.aio {
            out.push_str(&format!("\"aio\":{},", aio.to_json()));
        }
        if let Some(shards) = &self.shard_stats {
            let bal = ShardBalance::of(shards);
            out.push_str(&format!(
                "\"shards\":{{\"count\":{},\"max_conns_per_shard\":{},\
                 \"mean_conns_per_shard\":{:.3},\"imbalance\":{:.6},\"per_shard\":[",
                shards.len(),
                bal.max_conns,
                bal.mean_conns,
                bal.imbalance(),
            ));
            for (i, s) in shards.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&s.to_json());
            }
            out.push(']');
            if let Some(per_shard) = &self.aio_per_shard {
                out.push_str(",\"aio_per_shard\":[");
                for (i, s) in per_shard.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&s.to_json());
                }
                out.push(']');
            }
            out.push_str("},");
        }
        out.push_str("\"digests\":[");
        for (i, d) in self.digests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{d:016x}\""));
        }
        out.push_str("],\"per_conn\":[");
        for (i, s) in self.per_conn.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Writes the JSON snapshot to `dir/name.json` (creating `dir`),
    /// returning the path written.
    pub fn write_snapshot(&self, dir: impl AsRef<Path>, name: &str) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path)
    }
}

/// One outbound stream's send-slot cycle on a client node.
struct TxStream {
    /// Global connection index (payload pattern + digest identity; the
    /// stream id on a mux endpoint).
    idx: usize,
    /// Up-front registered send slots (empty when the node leases from
    /// its pool).
    slots: Vec<MrInfo>,
    free: Vec<usize>,
    slot_of: HashMap<u64, usize>,
    /// Live send leases by operation id (pooled mode); dropping one on
    /// completion returns the buffer to the node's pin-down cache.
    leases: HashMap<u64, MrLease>,
    sent: usize,
    acked: usize,
    pos: u64,
    closed: bool,
}

impl TxStream {
    fn complete(&mut self, id: u64) {
        if let Some(slot) = self.slot_of.remove(&id) {
            self.free.push(slot);
        }
        // Pooled mode: the lease drops here and its buffer returns to
        // the cache for the next kick.
        self.leases.remove(&id);
        self.acked += 1;
    }
}

/// How a client node's streams reach the server.
enum Link {
    /// One private socket per stream (own QP, CQs and service loop —
    /// the conventional per-connection pattern the server-side reactor
    /// is measured against), indexed like the node's streams.
    Sockets(Vec<StreamSocket>),
    /// Every stream on one pooled-QP endpoint, driven by a single
    /// `handle_wake`.
    Mux {
        ep: Box<MuxEndpoint>,
        /// Stream id → index into the node's streams.
        by_stream: HashMap<u32, usize>,
    },
}

/// One client node driving several outbound streams.
struct FanInClient {
    link: Link,
    streams: Vec<TxStream>,
    msgs: usize,
    msg_len: u64,
    /// Outstanding-send cap per stream (the slot count when unpooled).
    max_outstanding: usize,
    verify: VerifyLevel,
    /// This node's pin-down cache (pooled mode).
    pool: Option<MemPool>,
    seed: u64,
    scratch: Vec<u8>,
}

impl FanInClient {
    fn new(spec: &FanInSpec, link: Link, pooled: bool) -> FanInClient {
        FanInClient {
            link,
            streams: Vec::new(),
            msgs: spec.msgs_per_conn,
            msg_len: spec.msg_len,
            max_outstanding: spec.outstanding_sends.max(1),
            verify: spec.verify,
            pool: pooled.then(|| MemPool::new(spec.cfg.pool.clone())),
            seed: spec.seed,
            scratch: Vec::new(),
        }
    }

    /// Adds stream `idx`: its socket (or its id on the mux endpoint)
    /// and, unless the node leases from a pool, its send slots.
    fn push_stream(
        &mut self,
        net: &mut SimNet,
        node: NodeId,
        idx: usize,
        sock: Option<StreamSocket>,
    ) {
        let si = self.streams.len();
        match (&mut self.link, sock) {
            (Link::Sockets(socks), Some(sock)) => socks.push(sock),
            (Link::Mux { ep, by_stream }, None) => {
                ep.open_stream(idx as u32).expect("stream id fits");
                by_stream.insert(idx as u32, si);
            }
            _ => unreachable!("socket streams carry a socket, mux streams none"),
        }
        let slots: Vec<MrInfo> = if self.pool.is_some() {
            Vec::new()
        } else {
            net.with_api(node, |api| {
                (0..self.max_outstanding)
                    .map(|_| api.register_mr(self.msg_len as usize, Access::NONE))
                    .collect()
            })
        };
        self.streams.push(TxStream {
            idx,
            free: (0..slots.len()).collect(),
            slots,
            slot_of: HashMap::new(),
            leases: HashMap::new(),
            sent: 0,
            acked: 0,
            pos: 0,
            closed: false,
        });
    }

    fn kick(&mut self, api: &mut NodeApi<'_>, si: usize) {
        let msg_len = self.msg_len;
        let s = &mut self.streams[si];
        while s.sent < self.msgs {
            let id = s.sent as u64;
            let mr = match &self.pool {
                Some(pool) => {
                    if s.leases.len() >= self.max_outstanding {
                        break;
                    }
                    let lease = pool.acquire(api, msg_len as usize, Access::NONE);
                    let info = *lease.info();
                    s.leases.insert(id, lease);
                    info
                }
                None => {
                    let Some(slot) = s.free.pop() else {
                        break;
                    };
                    s.slot_of.insert(id, slot);
                    s.slots[slot]
                }
            };
            if self.verify == VerifyLevel::Full {
                self.scratch.clear();
                self.scratch
                    .extend((0..msg_len).map(|i| payload_byte(self.seed, s.idx, s.pos + i)));
                api.write_mr(mr.key, mr.addr, &self.scratch)
                    .expect("stage the payload in a registered send slot");
            }
            match &mut self.link {
                Link::Sockets(socks) => socks[si].exs_send(api, &mr, 0, msg_len, id),
                Link::Mux { ep, .. } => ep
                    .mux_send(api, s.idx as u32, &mr, 0, msg_len, id)
                    .expect("mux send on an open stream"),
            }
            s.pos += msg_len;
            s.sent += 1;
        }
        if s.sent == self.msgs && s.acked == self.msgs && !s.closed {
            match &mut self.link {
                Link::Sockets(socks) => socks[si].exs_shutdown(api),
                Link::Mux { ep, .. } => ep.close_stream(api, s.idx as u32),
            }
            s.closed = true;
        }
    }

    /// Folds this node's sender-side counters (CQ gauges synced first)
    /// into `total`.
    fn merge_tx_stats(&mut self, net: &mut SimNet, node: NodeId, total: &mut ConnStats) {
        match &mut self.link {
            Link::Sockets(socks) => {
                net.with_api(node, |api| {
                    for sock in socks.iter_mut() {
                        sock.sync_cq_stats(api);
                    }
                });
                for sock in socks.iter() {
                    total.merge(sock.stats());
                }
            }
            Link::Mux { ep, .. } => total.merge(ep.stats()),
        }
    }
}

impl NodeApp for FanInClient {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for si in 0..self.streams.len() {
            self.kick(api, si);
        }
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        if let Link::Mux { ep, by_stream } = &mut self.link {
            ep.handle_wake(api);
            let mut touched = Vec::new();
            for ev in ep.take_events() {
                match ev {
                    MuxEvent::SendComplete { stream, id, .. } => {
                        let si = by_stream[&stream];
                        self.streams[si].complete(id);
                        touched.push(si);
                    }
                    MuxEvent::TransportError { slot } => panic!(
                        "fan-in mux client transport slot {slot} failed: {:?}",
                        ep.last_error()
                    ),
                    // The server's FIN answering ours; nothing left to do.
                    MuxEvent::StreamClosed { .. } | MuxEvent::RecvComplete { .. } => {}
                }
            }
            for si in touched {
                self.kick(api, si);
            }
            return;
        }
        for si in 0..self.streams.len() {
            let Link::Sockets(socks) = &mut self.link else {
                unreachable!("mux clients returned above");
            };
            let sock = &mut socks[si];
            sock.handle_wake(api);
            for ev in sock.take_events() {
                match ev {
                    ExsEvent::SendComplete { id, .. } => self.streams[si].complete(id),
                    ExsEvent::ConnectionError => {
                        panic!("fan-in client conn {} failed", self.streams[si].idx)
                    }
                    _ => {}
                }
            }
            self.kick(api, si);
        }
    }
    fn is_done(&self) -> bool {
        self.streams.iter().all(|s| s.closed)
    }
}

/// One server-side stream's receive state: its pre-posted receive
/// slots (empty for an aio task, whose executor owns the readahead
/// buffers) and the verify-and-digest fold of what it delivered.
struct RxStream {
    slots: Vec<MrInfo>,
    /// Posted-but-uncompleted `(recv id, slot)` pairs, in posting order
    /// — receives complete FIFO, so the front is always the completing
    /// slot.
    posted: VecDeque<(u64, usize)>,
    /// Slot indices currently free to re-post.
    free: Vec<usize>,
    received: u64,
    digest: u64,
    eof: bool,
}

/// Every server-side stream's [`RxStream`], indexed by global
/// connection index. The callback server, the mux server and the aio
/// tasks all consume through it.
struct Receiver {
    streams: Vec<RxStream>,
    /// Expected bytes per stream.
    expected: u64,
    recv_len: u32,
    verify: VerifyLevel,
    seed: u64,
    next_id: u64,
    scratch: Vec<u8>,
}

impl Receiver {
    fn new(spec: &FanInSpec, slots: Vec<Vec<MrInfo>>) -> Receiver {
        Receiver {
            streams: slots
                .into_iter()
                .map(|slots| RxStream {
                    free: (0..slots.len()).collect(),
                    slots,
                    posted: VecDeque::new(),
                    received: 0,
                    digest: FNV_OFFSET,
                    eof: false,
                })
                .collect(),
            expected: spec.msgs_per_conn as u64 * spec.msg_len,
            recv_len: spec.effective_recv_len(),
            verify: spec.verify,
            seed: spec.seed,
            next_id: 0,
            scratch: Vec::new(),
        }
    }

    /// Verifies (with [`VerifyLevel::Full`]) and digests the next
    /// `bytes` of stream `idx`.
    fn fold(&mut self, idx: usize, bytes: &[u8]) {
        let st = &mut self.streams[idx];
        if self.verify == VerifyLevel::Full {
            for (i, &b) in bytes.iter().enumerate() {
                let off = st.received + i as u64;
                assert_eq!(
                    b,
                    payload_byte(self.seed, idx, off),
                    "stream {idx} corrupted at offset {off}"
                );
            }
        }
        st.digest = fnv1a(st.digest, bytes);
        st.received += bytes.len() as u64;
    }

    /// Retires stream `idx`'s completing receive `id`, folding its
    /// `len` bytes, and frees its slot.
    fn complete(&mut self, api: &mut NodeApi<'_>, idx: usize, id: u64, len: u32) {
        let (pid, slot) = self.streams[idx]
            .posted
            .pop_front()
            .expect("completion without a posted receive");
        assert_eq!(pid, id, "receives must complete in posting order");
        if len > 0 {
            let mr = self.streams[idx].slots[slot];
            let mut buf = std::mem::take(&mut self.scratch);
            buf.resize(len as usize, 0);
            api.read_mr(mr.key, mr.addr, &mut buf)
                .expect("read a completed receive slot");
            self.fold(idx, &buf);
            self.scratch = buf;
        }
        self.streams[idx].free.push(slot);
    }

    /// Refills stream `idx` to depth through `post(mr, len, id)`: every
    /// freed slot goes straight back out while the stream still owes
    /// bytes, so the advert queue never drains below depth at the
    /// sender's next decision point. Receives left over at
    /// end-of-stream complete with zero bytes. Returns true if anything
    /// was posted.
    fn refill(&mut self, idx: usize, mut post: impl FnMut(&MrInfo, u32, u64)) -> bool {
        let mut posted = false;
        loop {
            let st = &mut self.streams[idx];
            if st.eof || st.received >= self.expected {
                break;
            }
            let Some(slot) = st.free.pop() else {
                break;
            };
            let id = self.next_id;
            self.next_id += 1;
            post(&st.slots[slot], self.recv_len, id);
            st.posted.push_back((id, slot));
            posted = true;
        }
        posted
    }

    fn is_done(&self) -> bool {
        self.streams
            .iter()
            .all(|s| s.eof && s.received == self.expected)
    }
}

/// The callback server: every accepted connection multiplexed through
/// a [`ReactorPool`] (one shard ⇒ the classic single reactor over
/// shared CQs). The sim driver interleaves the shards in shard order,
/// so a sharded run is exactly as deterministic as a single-loop run.
struct CallbackServer {
    pool: ReactorPool,
    /// Global connection index → pool handle (shard + local id).
    handles: Vec<ShardHandle>,
    /// Pool handle → global connection index (pattern + digest
    /// identity is keyed globally, not per shard).
    idx_of: HashMap<ShardHandle, usize>,
    /// Reusable readiness buffer for the service loop.
    ready: Vec<(ShardHandle, Readiness)>,
}

impl CallbackServer {
    /// Consumes one connection's events and refills its pre-posted
    /// receive queue. Returns true on progress.
    fn handle(&mut self, api: &mut NodeApi<'_>, rx: &mut Receiver, idx: usize) -> bool {
        let h = self.handles[idx];
        let reactor = self.pool.shard_mut(h.shard);
        let events = reactor.take_events(h.conn);
        let mut progressed = !events.is_empty();
        for ev in events {
            match ev {
                ExsEvent::RecvComplete { id, len } => rx.complete(api, idx, id, len),
                ExsEvent::PeerClosed => rx.streams[idx].eof = true,
                ExsEvent::ConnectionError => panic!("fan-in server conn {idx} failed"),
                ExsEvent::SendComplete { .. } => {}
            }
        }
        let sock = reactor.conn_mut(h.conn);
        progressed |= rx.refill(idx, |mr, len, id| sock.exs_recv(api, mr, 0, len, false, id));
        progressed
    }

    /// One poll of every shard and a pass over the ready connections.
    fn step(&mut self, api: &mut NodeApi<'_>, rx: &mut Receiver) -> bool {
        let mut ready = std::mem::take(&mut self.ready);
        self.pool.poll_all_into(api, &mut ready);
        let mut progressed = false;
        for &(h, r) in ready.iter() {
            if r.readable || r.closed || r.error {
                let idx = self.idx_of[&h];
                progressed |= self.handle(api, rx, idx);
            }
        }
        self.ready = ready;
        progressed
    }
}

/// The aio server: one async task per connection folding `recv_some`
/// chunks, on one executor per shard under one [`SimDriver`].
struct AioServer {
    drv: SimDriver,
    /// Global connection index → executor shard + local id.
    handles: Vec<ShardHandle>,
    placement: Placement,
}

/// The mux server: one [`MuxEndpoint`] per client node, all hosted in
/// one [`Reactor`] over its shared CQ pair, indexed by stream id.
struct MuxServer {
    reactor: Reactor,
    mux_ids: Vec<MuxId>,
    /// Global stream indices carried by each endpoint.
    streams_of: Vec<Vec<usize>>,
    /// Modeled server memory at full stream fan-out.
    footprint: u64,
}

impl MuxServer {
    /// Consumes one endpoint's events and refills the pre-posted
    /// receive queue of every stream it carries. Returns true on
    /// progress.
    fn handle(&mut self, api: &mut NodeApi<'_>, rx: &mut Receiver, mi: usize) -> bool {
        let mux = self.mux_ids[mi];
        let events = self.reactor.take_mux_events(mux);
        let mut progressed = !events.is_empty();
        let ep = self.reactor.mux_mut(mux);
        for ev in events {
            match ev {
                MuxEvent::RecvComplete { stream, id, len } => {
                    rx.complete(api, stream as usize, id, len)
                }
                MuxEvent::StreamClosed { stream } => {
                    rx.streams[stream as usize].eof = true;
                    // Close the unused send half so the stream's state
                    // retires without disturbing its siblings.
                    ep.close_stream(api, stream);
                }
                MuxEvent::TransportError { slot } => panic!(
                    "fan-in mux server transport {mi}/{slot} failed: {:?}",
                    ep.last_error()
                ),
                MuxEvent::SendComplete { .. } => {}
            }
        }
        for &idx in &self.streams_of[mi] {
            progressed |= rx.refill(idx, |mr, len, id| {
                ep.mux_recv(api, idx as u32, mr, 0, len, false, id)
                    .expect("mux receive on an open stream")
            });
        }
        progressed
    }

    /// One reactor poll (which services the hosted endpoints) and a
    /// pass over every endpoint.
    fn step(&mut self, api: &mut NodeApi<'_>, rx: &mut Receiver) -> bool {
        let _ = self.reactor.poll(api);
        let mut progressed = false;
        for mi in 0..self.mux_ids.len() {
            progressed |= self.handle(api, rx, mi);
        }
        progressed
    }
}

/// How the server node consumes (see [`ServerKind`]).
enum Consumer {
    Callback(CallbackServer),
    Aio(AioServer),
    Mux(MuxServer),
}

/// The server node: one consumer, the shared receive state, and a
/// completion-time probe, so every kind's elapsed time is comparable.
struct FanInServer {
    consumer: Consumer,
    rx: Rc<RefCell<Receiver>>,
    /// Server-side pin-down caches, for the pooled report.
    pools: Vec<MemPool>,
    /// Receive leases held for the whole run (the server re-posts into
    /// the same buffers), released when the server drops.
    _leases: Vec<MrLease>,
    finished_at: Option<SimTime>,
}

/// The server half of a [`FanInReport`].
struct ServerTally {
    per_conn: Vec<ConnStats>,
    aggregate: ConnStats,
    reactor: ReactorStats,
    shard_stats: Option<Vec<ShardStats>>,
    aio: Option<(AioStats, Vec<AioStats>)>,
    mux_footprint: Option<u64>,
}

impl FanInServer {
    /// Polls until quiescent: no stream made progress and no CQ/budget
    /// backlog remains. Bounded because each iteration consumes queued
    /// completions and each stream posts at most its free slots.
    fn service(&mut self, api: &mut NodeApi<'_>) {
        let mut rx = self.rx.borrow_mut();
        loop {
            let (progressed, backlog) = match &mut self.consumer {
                Consumer::Callback(s) => (s.step(api, &mut rx), s.pool.has_backlog()),
                Consumer::Mux(s) => (s.step(api, &mut rx), s.reactor.has_backlog()),
                Consumer::Aio(_) => unreachable!("aio tasks consume inside the driver"),
            };
            if self.finished_at.is_none() && rx.is_done() {
                self.finished_at = Some(api.now());
            }
            if !progressed && !backlog {
                break;
            }
        }
    }

    /// Records the aio server's completion time once its executors
    /// drain.
    fn note_drained(&mut self, api: &mut NodeApi<'_>) {
        if let Consumer::Aio(s) = &self.consumer {
            if self.finished_at.is_none() && s.drv.is_done() {
                self.finished_at = Some(api.now());
            }
        }
    }

    /// Syncs the shared CQs' pressure gauges into every snapshot and
    /// collects the server-side counters, per connection in *global*
    /// index order (mux: per endpoint) whichever shard each landed on.
    fn tally(&mut self, net: &mut SimNet, node: NodeId) -> ServerTally {
        match &mut self.consumer {
            Consumer::Callback(s) => {
                net.with_api(node, |api| {
                    for &h in &s.handles {
                        s.pool
                            .shard_mut(h.shard)
                            .conn_mut(h.conn)
                            .sync_cq_stats(api);
                    }
                });
                ServerTally {
                    per_conn: s
                        .handles
                        .iter()
                        .map(|&h| s.pool.shard(h.shard).conn(h.conn).stats().clone())
                        .collect(),
                    aggregate: s.pool.aggregate_conn_stats(),
                    reactor: s.pool.reactor_stats(),
                    shard_stats: Some(s.pool.shard_stats()),
                    aio: None,
                    mux_footprint: None,
                }
            }
            Consumer::Aio(s) => {
                net.with_api(node, |api| {
                    for shard in 0..s.drv.shards() {
                        s.drv.executor(shard).with_reactor(|r| {
                            for conn in r.conn_ids() {
                                r.conn_mut(conn).sync_cq_stats(api);
                            }
                        });
                    }
                });
                let mut aggregate = ConnStats::default();
                let mut reactor = ReactorStats::default();
                let mut rows = Vec::with_capacity(s.drv.shards());
                for shard in 0..s.drv.shards() {
                    let (agg, rs) = s
                        .drv
                        .executor_ref(shard)
                        .with_reactor(|r| (r.aggregate_conn_stats(), r.stats().clone()));
                    aggregate.merge(&agg);
                    rows.push(s.placement.row(shard, &rs));
                    reactor.merge(&rs);
                }
                ServerTally {
                    per_conn: s
                        .handles
                        .iter()
                        .map(|&h| {
                            s.drv
                                .executor_ref(h.shard as usize)
                                .with_reactor(|r| r.conn(h.conn).stats().clone())
                        })
                        .collect(),
                    aggregate,
                    reactor,
                    shard_stats: Some(rows),
                    aio: Some((s.drv.merged_stats(), s.drv.per_shard_stats())),
                    mux_footprint: None,
                }
            }
            Consumer::Mux(s) => ServerTally {
                // One counter block per server-side endpoint (= per
                // client node): the pool aggregates its streams, which
                // is the point of the mode.
                per_conn: s
                    .mux_ids
                    .iter()
                    .map(|&id| s.reactor.mux(id).stats().clone())
                    .collect(),
                aggregate: s.reactor.aggregate_conn_stats(),
                reactor: s.reactor.stats().clone(),
                shard_stats: None,
                aio: None,
                mux_footprint: Some(s.footprint),
            },
        }
    }
}

impl NodeApp for FanInServer {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Post the initial receives (nothing is "readable" yet, so
        // prime directly rather than via poll).
        match &mut self.consumer {
            Consumer::Callback(s) => {
                let rx = &mut self.rx.borrow_mut();
                for idx in 0..s.handles.len() {
                    s.handle(api, rx, idx);
                }
            }
            Consumer::Mux(s) => {
                let rx = &mut self.rx.borrow_mut();
                for mi in 0..s.mux_ids.len() {
                    s.handle(api, rx, mi);
                }
            }
            Consumer::Aio(s) => s.drv.on_start(api),
        }
        self.note_drained(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        match &mut self.consumer {
            Consumer::Aio(s) => s.drv.on_wake(api),
            _ => self.service(api),
        }
        self.note_drained(api);
    }
    fn on_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        if let Consumer::Aio(s) = &mut self.consumer {
            s.drv.on_timer(api, token);
        }
        self.note_drained(api);
    }
    fn is_done(&self) -> bool {
        match &self.consumer {
            Consumer::Aio(s) => s.drv.is_done(),
            _ => self.rx.borrow().is_done(),
        }
    }
}

/// Registers (or, with a pool, leases) one stream's pre-posted
/// server-side receive buffers.
fn recv_slots(
    spec: &FanInSpec,
    net: &mut SimNet,
    node: NodeId,
    pool: Option<&MemPool>,
    leases: &mut Vec<MrLease>,
) -> Vec<MrInfo> {
    let len = spec.effective_recv_len() as usize;
    (0..spec.effective_prepost())
        .map(|_| {
            net.with_api(node, |api| match pool {
                Some(pool) => {
                    let lease = pool.acquire(api, len, Access::local_remote_write());
                    let info = *lease.info();
                    leases.push(lease);
                    info
                }
                None => api.register_mr(len, Access::local_remote_write()),
            })
        })
        .collect()
}

/// Sets up the QP-per-connection kinds ([`ServerKind::Callback`] and
/// [`ServerKind::Aio`]): one reactor per shard over its own CQ pair and
/// one private QP per connection, placed once by the shard policy.
fn accept_sockets(
    spec: &FanInSpec,
    net: &mut SimNet,
    server_node: NodeId,
    client_nodes: &[NodeId],
) -> (FanInServer, Vec<FanInClient>) {
    let callback = spec.server == ServerKind::Callback;
    let nclients = client_nodes.len();
    // Shared CQs sized for every connection's worst case — full size
    // per shard, since a skewed policy may put most connections on one
    // shard and CQ overflow is fatal.
    let cq_depth = (spec.cfg.sq_depth * 2 + spec.cfg.credits as usize * 2) * spec.conns;
    let reactors: Vec<Reactor> = (0..spec.effective_shards())
        .map(|_| {
            let (send_cq, recv_cq) = net.with_api(server_node, |api| {
                (api.create_cq(cq_depth), api.create_cq(cq_depth))
            });
            Reactor::new(send_cq, recv_cq, spec.reactor)
        })
        .collect();
    let mut pool = ReactorPool::new(reactors, spec.shard_cfg());

    // One pin-down cache per node in pooled mode: each client node's
    // connections share one, as does the callback server.
    let server_pool = (callback && spec.pooled).then(|| MemPool::new(spec.cfg.pool.clone()));
    let mut clients: Vec<FanInClient> = (0..nclients)
        .map(|_| FanInClient::new(spec, Link::Sockets(Vec::new()), spec.pooled))
        .collect();
    let mut handles = Vec::with_capacity(spec.conns);
    let mut slots = Vec::with_capacity(spec.conns);
    let mut leases = Vec::new();
    for idx in 0..spec.conns {
        let cnode = client_nodes[idx % nclients];
        // Affinity policy keys on the client node, so one client's
        // connections share a shard (and its caches).
        let shard = pool.pick_shard(Some(cnode.0 as u64));
        let (send_cq, recv_cq) = pool.shard_cqs(shard);
        let (csock, ssock) =
            StreamSocket::pair_shared(net, cnode, server_node, send_cq, recv_cq, &spec.cfg);
        handles.push(pool.accept_on(shard, ssock));
        clients[idx % nclients].push_stream(net, cnode, idx, Some(csock));
        slots.push(if callback {
            recv_slots(spec, net, server_node, server_pool.as_ref(), &mut leases)
        } else {
            Vec::new()
        });
    }
    let rx = Rc::new(RefCell::new(Receiver::new(spec, slots)));

    if callback {
        let server = FanInServer {
            consumer: Consumer::Callback(CallbackServer {
                pool,
                idx_of: handles.iter().enumerate().map(|(i, &h)| (h, i)).collect(),
                handles,
                ready: Vec::new(),
            }),
            rx,
            pools: server_pool.into_iter().collect(),
            _leases: leases,
            finished_at: None,
        };
        return (server, clients);
    }

    // Each shard's executor pool carries its connections' readahead
    // leases for the whole run; budget them up front so a 10k-way
    // fan-in never churns the pin-down cache. Pre-registering happens
    // now, during setup, through the uncharged path — the callback
    // server's up-front `register_mr` calls are setup-cost-free by the
    // same rule, and the timed window must compare consumption models.
    // Without this, conns × prepost pin-down misses (~35 µs each,
    // serialized on the server core at time zero) masquerade as an 8×
    // async slowdown.
    let (reactors, placement) = pool.into_parts();
    let recv_len = spec.effective_recv_len();
    let prepost = spec.effective_prepost();
    let class = (recv_len as u64).next_power_of_two().max(4096);
    let mut pools = Vec::with_capacity(reactors.len());
    let mut executors = Vec::with_capacity(reactors.len());
    for (reactor, &assigned) in reactors.into_iter().zip(placement.assigned()) {
        let pool = MemPool::new(MemPoolConfig {
            pinned_budget: (assigned * prepost as u64 * class).max(spec.cfg.pool.pinned_budget),
            ..spec.cfg.pool.clone()
        });
        net.with_api(server_node, |api| {
            pool.prewarm(
                api,
                assigned as usize * prepost,
                recv_len as usize,
                Access::local_remote_write(),
            );
        });
        executors.push(Executor::with_pool(reactor, pool.clone()));
        pools.push(pool);
    }
    // FNV-1a folds chunk-by-chunk into the same value however
    // `recv_some` slices the stream, so digests match the callback
    // server's.
    for (idx, h) in handles.iter().enumerate() {
        let handle = executors[h.shard as usize].handle();
        let stream = handle.stream_with(h.conn, recv_len, prepost);
        let rx = Rc::clone(&rx);
        handle.spawn(async move {
            loop {
                match stream.recv_some(recv_len as usize).await {
                    Ok(bytes) => rx.borrow_mut().fold(idx, &bytes),
                    Err(ExsError::Eof) => break,
                    Err(e) => panic!("aio fan-in conn {idx} failed: {e}"),
                }
            }
            rx.borrow_mut().streams[idx].eof = true;
        });
    }
    let server = FanInServer {
        consumer: Consumer::Aio(AioServer {
            drv: SimDriver::new(executors),
            handles,
            placement,
        }),
        rx,
        pools,
        _leases: leases,
        finished_at: None,
    };
    (server, clients)
}

/// Sets up [`ServerKind::Mux`]: connection `idx` becomes stream `idx`
/// on the endpoint pair of client node `idx % client_nodes`, every
/// server-side endpoint hosted in one reactor over one CQ pair.
fn accept_mux(
    spec: &FanInSpec,
    net: &mut SimNet,
    server_node: NodeId,
    client_nodes: &[NodeId],
) -> (FanInServer, Vec<FanInClient>) {
    let nclients = client_nodes.len();
    // The reactor's CQ pair is shared by every server-side endpoint's
    // whole pool; size it for all of them at once.
    let cq_depth = nclients * MuxEndpoint::shared_cq_depth(&spec.cfg);
    let (send_cq, recv_cq) = net.with_api(server_node, |api| {
        (api.create_cq(cq_depth), api.create_cq(cq_depth))
    });
    let mut reactor = Reactor::new(send_cq, recv_cq, spec.reactor);
    let mut clients: Vec<FanInClient> = client_nodes
        .iter()
        .map(|&cnode| {
            let link = Link::Mux {
                ep: Box::new(MuxEndpoint::new(cnode, &spec.cfg)),
                by_stream: HashMap::new(),
            };
            FanInClient::new(spec, link, false)
        })
        .collect();
    let mut server_eps: Vec<MuxEndpoint> = (0..nclients)
        .map(|_| {
            let mut ep = MuxEndpoint::new(server_node, &spec.cfg);
            ep.set_cqs(send_cq, recv_cq);
            ep
        })
        .collect();

    let mut slots = Vec::with_capacity(spec.conns);
    let mut streams_of: Vec<Vec<usize>> = vec![Vec::new(); nclients];
    for idx in 0..spec.conns {
        let ci = idx % nclients;
        server_eps[ci]
            .open_stream(idx as u32)
            .expect("stream id fits");
        streams_of[ci].push(idx);
        clients[ci].push_stream(net, client_nodes[ci], idx, None);
        slots.push(recv_slots(spec, net, server_node, None, &mut Vec::new()));
    }
    let mut mux_ids = Vec::with_capacity(nclients);
    let mut footprint = 0;
    for (c, mut sep) in clients.iter_mut().zip(server_eps) {
        let Link::Mux { ep, .. } = &mut c.link else {
            unreachable!("mux clients ride endpoints");
        };
        connect_mux_pair(net, ep, &mut sep);
        // Capture the memory model at full fan-out: every stream open,
        // every pool transport up (streams retire as they close).
        footprint += sep.memory_footprint();
        mux_ids.push(reactor.accept_mux(sep));
    }
    let server = FanInServer {
        consumer: Consumer::Mux(MuxServer {
            reactor,
            mux_ids,
            streams_of,
            footprint,
        }),
        rx: Rc::new(RefCell::new(Receiver::new(spec, slots))),
        pools: Vec::new(),
        _leases: Vec::new(),
        finished_at: None,
    };
    (server, clients)
}

/// Runs one fan-in experiment on the simulated fabric, with the server
/// kind `spec.server` selects. Any digest difference between kinds is
/// attributable to the server — and there must be none.
///
/// # Panics
/// Panics on deadlock/timeout, payload corruption (with
/// [`VerifyLevel::Full`]), any connection or transport error — all
/// protocol bugs — and on a fair-share run whose aggregate ingress
/// exceeds the bottleneck link (offered load above 1.01).
pub fn run_fan_in(spec: &FanInSpec) -> FanInReport {
    assert!(spec.conns >= 1, "need at least one connection");
    assert!(
        spec.server != ServerKind::Mux || spec.effective_shards() == 1,
        "sharded mux fan-in is not wired; use shards=1 with mux"
    );
    let expected = spec.msgs_per_conn as u64 * spec.msg_len;

    let mut net = SimNet::new();
    net.set_fabric(spec.fabric.clone());
    net.set_host_seed(
        spec.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(3),
    );
    let server_node = net.add_node(spec.profile.host.clone(), spec.profile.hca.clone());
    let nclients = spec.client_nodes.clamp(1, spec.conns);
    let client_nodes: Vec<NodeId> = (0..nclients)
        .map(|_| net.add_node(spec.profile.host.clone(), spec.profile.hca.clone()))
        .collect();
    for (i, &c) in client_nodes.iter().enumerate() {
        net.connect_nodes(
            c,
            server_node,
            spec.profile.link.clone(),
            spec.seed.wrapping_add(i as u64),
        );
    }

    let setup_start = std::time::Instant::now();
    let (mut server, mut clients) = match spec.server {
        ServerKind::Mux => accept_mux(spec, &mut net, server_node, &client_nodes),
        ServerKind::Callback | ServerKind::Aio => {
            accept_sockets(spec, &mut net, server_node, &client_nodes)
        }
    };
    let setup_wall = setup_start.elapsed();

    let mut apps: Vec<&mut dyn NodeApp> = Vec::with_capacity(1 + nclients);
    apps.push(&mut server);
    for c in clients.iter_mut() {
        apps.push(c);
    }
    let outcome = net.run(&mut apps, SimTime::ZERO + spec.time_limit);
    {
        let rx = server.rx.borrow();
        if !outcome.completed {
            let mut dump = String::new();
            if let Consumer::Mux(s) = &server.consumer {
                for (mi, &id) in s.mux_ids.iter().enumerate() {
                    dump.push_str(&format!(
                        "server ep {mi}:\n{}",
                        s.reactor.mux(id).debug_summary()
                    ));
                }
            }
            for (ci, c) in clients.iter().enumerate() {
                if let Link::Mux { ep, .. } = &c.link {
                    dump.push_str(&format!("client ep {ci}:\n{}", ep.debug_summary()));
                }
            }
            panic!(
                "{:?} fan-in deadlocked or timed out: {} of {} streams at EOF, {} bytes \
                 received, ended {:?}\n{dump}",
                spec.server,
                rx.streams.iter().filter(|s| s.eof).count(),
                spec.conns,
                rx.streams.iter().map(|s| s.received).sum::<u64>(),
                outcome.end,
            );
        }
        for (idx, s) in rx.streams.iter().enumerate() {
            assert_eq!(s.received, expected, "stream {idx} delivered short");
        }
    }

    let end = server.finished_at.unwrap_or(outcome.end);
    let tally = server.tally(&mut net, server_node);
    let fabric_stats = net.fabric_stats();
    let mut per_conn = tally.per_conn;
    let mut aggregate = tally.aggregate;
    if let Some(fs) = &fabric_stats {
        // Annotate every row with its carrying flow's telemetry (rows
        // round-robin over client nodes; the flow is the client→server
        // node pair).
        for (row, stats) in per_conn.iter_mut().enumerate() {
            let cnode = client_nodes[row % nclients];
            if let Some(flow) = fs
                .flows
                .iter()
                .find(|f| f.src == cnode.0 && f.dst == server_node.0)
            {
                stats.fabric_respeeds = flow.respeeds;
                stats.record_fabric_flow(flow.achieved_mbps());
            }
        }
        aggregate.fabric_respeeds = fs.respeeds;
        for flow in fs.flows.iter() {
            aggregate.record_fabric_flow(flow.achieved_mbps());
        }
    }
    let total = expected * spec.conns as u64;
    assert_eq!(tally.reactor.orphan_cqes, 0, "no completion went unrouted");
    assert_eq!(
        aggregate.bytes_received, total,
        "every stream fully delivered"
    );
    if let Some((aio, _)) = &tally.aio {
        assert_eq!(
            aio.tasks_completed, spec.conns as u64,
            "every connection task ran to completion"
        );
    }

    // Sender-side counters live at the clients — merge them so
    // direct/indirect accounting is auditable end to end (the
    // server-side aggregate only ever sees the receive half).
    let mut aggregate_tx = ConnStats::default();
    for (c, &cnode) in clients.iter_mut().zip(&client_nodes) {
        c.merge_tx_stats(&mut net, cnode, &mut aggregate_tx);
    }
    assert_eq!(aggregate_tx.bytes_sent, total, "every stream fully sent");

    let pool = (spec.pooled && spec.server != ServerKind::Mux).then(|| {
        let mut total = PoolStats::default();
        let client_pools = clients.iter().filter_map(|c| c.pool.as_ref());
        for p in server.pools.iter().chain(client_pools) {
            total.merge(&p.stats());
        }
        total
    });
    let (aio, aio_per_shard) = tally.aio.unzip();

    let report = FanInReport {
        conns: spec.conns,
        bytes: total,
        elapsed: end.saturating_duration_since(SimTime::ZERO),
        per_conn,
        digests: server
            .rx
            .borrow()
            .streams
            .iter()
            .map(|s| s.digest)
            .collect(),
        aggregate,
        aggregate_tx,
        reactor: tally.reactor,
        pool,
        link_bandwidth_bps: spec.profile.link.bandwidth_bps,
        fabric: fabric_stats,
        setup_wall,
        mux_footprint: tally.mux_footprint,
        mux_baseline: tally
            .mux_footprint
            .map(|_| MuxEndpoint::baseline_footprint(&spec.cfg, spec.conns as u64)),
        aio,
        shard_stats: tally.shard_stats,
        aio_per_shard,
        events: outcome.events,
    };
    // The fair-share fabric caps aggregate ingress at the bottleneck;
    // delivering more than it can carry means the model leaked
    // capacity. FIFO links are private per pair and may exceed it.
    if spec.fabric.is_fair_share() {
        assert!(
            report.offered_load_ratio() <= 1.01,
            "fair-share fan-in exceeded the bottleneck: offered load {:.4}",
            report.offered_load_ratio()
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::profiles;

    #[test]
    fn digest_matches_expected_pattern() {
        let mut h = FNV_OFFSET;
        let bytes: Vec<u8> = (0..100).map(|i| payload_byte(7, 3, i)).collect();
        h = fnv1a(h, &bytes);
        assert_eq!(h, expected_digest(7, 3, 100));
        assert_ne!(h, expected_digest(7, 4, 100), "digests separate streams");
    }

    #[test]
    fn small_fan_in_runs_and_verifies() {
        let spec = FanInSpec {
            msgs_per_conn: 4,
            msg_len: 8 << 10,
            verify: VerifyLevel::Full,
            ..FanInSpec::new(profiles::fdr_infiniband(), 4)
        };
        let report = run_fan_in(&spec);
        assert_eq!(report.bytes, 4 * 4 * (8 << 10));
        assert!(report.throughput_mbps() > 0.0);
        assert_eq!(report.reactor.conns_added, 4);
        for (i, &d) in report.digests.iter().enumerate() {
            assert_eq!(d, expected_digest(spec.seed, i, 4 * (8 << 10)));
        }
        let json = report.to_json();
        assert!(json.contains("\"per_conn\":["));
        assert!(json.contains("\"reactor\":{"));
        assert!(!json.contains("\"pool\":{"), "unpooled run reports no pool");
    }

    #[test]
    fn mux_fan_in_matches_plain_digests_on_a_fraction_of_the_qps() {
        let base = FanInSpec {
            msgs_per_conn: 4,
            msg_len: 8 << 10,
            verify: VerifyLevel::Full,
            client_nodes: 2,
            ..FanInSpec::new(profiles::fdr_infiniband(), 6)
        };
        let mux_spec = FanInSpec {
            server: ServerKind::Mux,
            ..base.clone()
        };
        let plain = run_fan_in(&base);
        let mux = run_fan_in(&mux_spec);
        // Stream identity: multiplexing changes the transport layer,
        // never the bytes a stream carries or their order.
        assert_eq!(plain.digests, mux.digests);
        assert_eq!(plain.bytes, mux.bytes);
        for (i, &d) in mux.digests.iter().enumerate() {
            assert_eq!(d, expected_digest(base.seed, i, 4 * (8 << 10)));
        }
        // One counter block per pooled endpoint, not per stream.
        assert_eq!(mux.per_conn.len(), 2);
        assert_eq!(mux.aggregate.mux_streams_peak, 3, "3 streams per pool");
        // 6 conns over 2 client nodes ride 2 pools of ≤ 4 QPs instead
        // of 6 private QPs, and the memory model must show the win.
        let footprint = mux.mux_footprint.expect("mux run models memory");
        let baseline = mux.mux_baseline.expect("mux run models baseline");
        assert!(
            footprint < baseline,
            "pooled transports must beat QP-per-conn: {footprint} vs {baseline}"
        );
        let json = mux.to_json();
        assert!(json.contains("\"mux_footprint\":"));
        assert!(json.contains("\"memory_per_stream\":"));
    }

    #[test]
    fn aio_fan_in_matches_callback_digests() {
        let base = FanInSpec {
            msgs_per_conn: 4,
            msg_len: 8 << 10,
            verify: VerifyLevel::Full,
            client_nodes: 2,
            ..FanInSpec::new(profiles::fdr_infiniband(), 4)
        };
        let aio_spec = FanInSpec {
            server: ServerKind::Aio,
            ..base.clone()
        };
        let plain = run_fan_in(&base);
        let aio = run_fan_in(&aio_spec);
        // Consumption-model identity: tasks awaiting `recv_some` must
        // deliver the same bytes in the same order as the callback
        // loop (FNV-1a folds chunk-by-chunk, so slicing can't hide).
        assert_eq!(plain.digests, aio.digests);
        assert_eq!(plain.bytes, aio.bytes);
        for (i, &d) in aio.digests.iter().enumerate() {
            assert_eq!(d, expected_digest(base.seed, i, 4 * (8 << 10)));
        }
        let stats = aio.aio.as_ref().expect("aio run reports executor stats");
        assert_eq!(stats.tasks_spawned, 4);
        assert_eq!(stats.tasks_completed, 4);
        assert!(stats.wakeups > 0, "recv completions must wake tasks");
        let json = aio.to_json();
        assert!(json.contains("\"aio\":{"));
        assert!(json.contains("\"tasks_completed\":4"));
    }

    #[test]
    fn pooled_fan_in_delivers_identical_bytes_and_hits_the_cache() {
        let base = FanInSpec {
            msgs_per_conn: 4,
            msg_len: 8 << 10,
            verify: VerifyLevel::Full,
            ..FanInSpec::new(profiles::fdr_infiniband(), 4)
        };
        let pooled_spec = FanInSpec {
            pooled: true,
            ..base.clone()
        };
        let plain = run_fan_in(&base);
        let pooled = run_fan_in(&pooled_spec);
        // Byte identity: pooling changes where buffers come from, never
        // what the streams carry.
        assert_eq!(plain.digests, pooled.digests);
        assert_eq!(plain.bytes, pooled.bytes);
        let pool = pooled
            .pool
            .clone()
            .expect("pooled run reports pool counters");
        // Each client's lease cycle: outstanding_sends buffers miss
        // once, every later message hits the pin-down cache. The server
        // holds conns × prepost_recvs receive leases for the whole run.
        assert!(pool.hits > 0, "no cache reuse: {pool:?}");
        let client_misses = 4 * base.outstanding_sends as u64;
        let server_leases = 4 * base.effective_prepost() as u64;
        assert!(
            pool.registrations <= client_misses + server_leases,
            "pool registered nearly per-message: {pool:?}"
        );
        assert!(pooled.to_json().contains("\"pool\":{"));
    }
}
