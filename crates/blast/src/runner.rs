//! The blast workload runner.
//!
//! Reproduces the paper's measurement tool: a client "sends messages as
//! quickly as possible to the server" (§IV-B), keeping a configurable
//! number of simultaneously outstanding `exs_send` operations while the
//! server keeps a configurable number of outstanding `exs_recv`
//! operations, re-posting each as it completes. The tool reports
//! throughput (Eq. 1), time per message, CPU usage on each side, and the
//! library's direct/indirect statistics.

use exs::{ExsConfig, ExsEvent, StreamSocket};
use rdma_verbs::{
    Access, FabricModel, FairShareConfig, HwProfile, MrInfo, NodeApi, NodeApp, SimNet,
};
use simnet::{SimDuration, SimTime};

use crate::distribution::SizeDist;
use crate::fan_in::{fnv1a, FNV_OFFSET};
use crate::metrics::{BlastReport, MAX_OFFERED_LOAD};

/// How much payload verification the receiver performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyLevel {
    /// No payload is generated or checked (fastest; used by benches —
    /// transfer timing is unaffected because the simulator moves payload
    /// bytes either way).
    None,
    /// The sender fills every byte with a position-dependent pattern and
    /// the receiver checks every delivered byte (used by tests).
    Full,
}

/// One blast experiment configuration.
#[derive(Clone, Debug)]
pub struct BlastSpec {
    /// Hardware model for both nodes and the link.
    pub profile: HwProfile,
    /// EXS connection configuration (protocol mode, ring size, credits).
    pub cfg: ExsConfig,
    /// Simultaneously outstanding `exs_send` operations at the client.
    pub outstanding_sends: usize,
    /// Simultaneously outstanding `exs_recv` operations at the server.
    pub outstanding_recvs: usize,
    /// Message-size law.
    pub sizes: SizeDist,
    /// Messages per run.
    pub messages: usize,
    /// Receive buffer length (0 ⇒ the size law's maximum, like the
    /// paper's blast tool posting maximum-size receives).
    pub recv_len: u32,
    /// Post receives with MSG_WAITALL.
    pub waitall: bool,
    /// Payload verification level.
    pub verify: VerifyLevel,
    /// Workload RNG seed (message sizes, host jitter, fabric jitter).
    pub seed: u64,
    /// Delay before the client's first send (`None` ⇒ one round trip
    /// plus 20 µs, modelling connection establishment — the receiver's
    /// initial ADVERTs are in flight before the client starts, exactly
    /// as with a real accept/connect exchange).
    pub start_delay: Option<SimDuration>,
    /// Abort threshold for the virtual clock.
    pub time_limit: SimDuration,
}

impl BlastSpec {
    /// A spec with the paper's defaults for the given profile.
    pub fn new(profile: HwProfile) -> BlastSpec {
        BlastSpec {
            profile,
            cfg: ExsConfig::default(),
            outstanding_sends: 4,
            outstanding_recvs: 4,
            sizes: SizeDist::paper_default(),
            messages: 400,
            recv_len: 0,
            waitall: false,
            verify: VerifyLevel::None,
            seed: 1,
            start_delay: None,
            time_limit: SimDuration::from_secs(600),
        }
    }

    fn effective_recv_len(&self) -> u32 {
        if self.recv_len != 0 {
            self.recv_len
        } else {
            self.sizes.max_size().min(u32::MAX as u64) as u32
        }
    }

    fn effective_start_delay(&self) -> SimDuration {
        self.start_delay.unwrap_or_else(|| {
            self.profile.link.propagation
                + self.profile.link.propagation
                + SimDuration::from_micros(20)
        })
    }
}

fn pattern(i: u64) -> u8 {
    (i % 251) as u8
}

/// The digest a fully verified blast run of `total` bytes must report:
/// its stream is the pattern the sender writes, whatever the timing.
pub fn expected_blast_digest(total: u64) -> u64 {
    (0..total).fold(FNV_OFFSET, |h, i| fnv1a(h, &[pattern(i)]))
}

struct Client {
    sock: Option<StreamSocket>,
    slots: Vec<MrInfo>,
    free_slots: Vec<usize>,
    slot_of: Vec<usize>,
    msgs: Vec<u64>,
    next: usize,
    completed: usize,
    stream_pos: u64,
    verify: VerifyLevel,
    start_delay: SimDuration,
    started: bool,
    first_send_at: Option<SimTime>,
    scratch: Vec<u8>,
}

impl Client {
    fn kick(&mut self, api: &mut NodeApi<'_>) {
        // Sends begin only after the start timer fires (connection
        // establishment): the server's initial ADVERT burst must be able
        // to arrive first, exactly as in the real system where connect()
        // takes a round trip.
        if !self.started {
            return;
        }
        while self.next < self.msgs.len() {
            let Some(slot) = self.free_slots.pop() else {
                return;
            };
            let len = self.msgs[self.next];
            let mr = self.slots[slot];
            if self.verify == VerifyLevel::Full {
                self.scratch.clear();
                self.scratch
                    .extend((0..len).map(|i| pattern(self.stream_pos + i)));
                api.write_mr(mr.key, mr.addr, &self.scratch).unwrap();
            }
            if self.first_send_at.is_none() {
                self.first_send_at = Some(api.now());
            }
            self.slot_of[self.next] = slot;
            self.sock
                .as_mut()
                .unwrap()
                .exs_send(api, &mr, 0, len, self.next as u64);
            self.stream_pos += len;
            self.next += 1;
        }
    }
}

impl NodeApp for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        // Model connection establishment: the first send happens one
        // round trip after the server posted its receives.
        api.set_timer(self.start_delay, 0);
    }
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
        self.started = true;
        self.kick(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let sock = self.sock.as_mut().unwrap();
        sock.handle_wake(api);
        for ev in sock.take_events() {
            if let ExsEvent::SendComplete { id, .. } = ev {
                self.free_slots.push(self.slot_of[id as usize]);
                self.completed += 1;
            }
        }
        self.kick(api);
    }
    fn is_done(&self) -> bool {
        self.completed == self.msgs.len()
    }
}

struct Server {
    sock: Option<StreamSocket>,
    slots: Vec<MrInfo>,
    free_slots: Vec<usize>,
    slot_of: std::collections::HashMap<u64, usize>,
    recv_len: u32,
    waitall: bool,
    expected_total: u64,
    received: u64,
    next_id: u64,
    verify: VerifyLevel,
    digest: u64,
    finished_at: Option<SimTime>,
}

impl Server {
    fn post_len(&self, posted_ahead: u64) -> u32 {
        if self.waitall {
            let left = self.expected_total - self.received - posted_ahead;
            (self.recv_len as u64).min(left) as u32
        } else {
            self.recv_len
        }
    }

    fn kick(&mut self, api: &mut NodeApi<'_>) {
        let mut posted_ahead = if self.waitall {
            // WAITALL receives consume exactly their posted length.
            self.slot_of.len() as u64 * self.recv_len as u64
        } else {
            // Plain receives may complete short; over-posting is fine
            // (extra receives complete later or never — the run ends on
            // byte count).
            0
        };
        while !self.free_slots.is_empty() {
            if self.received + posted_ahead >= self.expected_total {
                break;
            }
            let len = self.post_len(posted_ahead);
            if len == 0 {
                break;
            }
            let slot = self.free_slots.pop().unwrap();
            let mr = self.slots[slot];
            let id = self.next_id;
            self.next_id += 1;
            self.slot_of.insert(id, slot);
            self.sock
                .as_mut()
                .unwrap()
                .exs_recv(api, &mr, 0, len, self.waitall, id);
            posted_ahead += len as u64;
        }
    }

    fn drain(&mut self, api: &mut NodeApi<'_>) {
        self.kick(api);
        loop {
            let events = self.sock.as_mut().unwrap().take_events();
            if events.is_empty() {
                break;
            }
            for ev in events {
                if let ExsEvent::RecvComplete { id, len } = ev {
                    let slot = self.slot_of.remove(&id).expect("slot of recv");
                    if self.verify == VerifyLevel::Full {
                        let mr = self.slots[slot];
                        let mut buf = vec![0u8; len as usize];
                        api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                        for (i, &b) in buf.iter().enumerate() {
                            assert_eq!(
                                b,
                                pattern(self.received + i as u64),
                                "stream corruption at offset {}",
                                self.received + i as u64
                            );
                        }
                        self.digest = fnv1a(self.digest, &buf);
                    }
                    self.received += len as u64;
                    self.free_slots.push(slot);
                    if self.received == self.expected_total {
                        self.finished_at = Some(api.now());
                    }
                }
            }
            self.kick(api);
        }
    }
}

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.drain(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.as_mut().unwrap().handle_wake(api);
        self.drain(api);
    }
    fn is_done(&self) -> bool {
        self.received == self.expected_total
    }
}

/// Runs one blast experiment.
///
/// ```
/// use blast::{run_blast, BlastSpec, SizeDist};
/// use rdma_verbs::profiles;
///
/// let spec = BlastSpec {
///     sizes: SizeDist::Fixed(64 << 10),
///     messages: 20,
///     ..BlastSpec::new(profiles::fdr_infiniband())
/// };
/// let report = run_blast(&spec);
/// assert_eq!(report.bytes, 20 * (64 << 10));
/// assert!(report.throughput_mbps() > 0.0);
/// ```
///
/// # Panics
/// Panics if the run does not complete within the spec's time limit —
/// that always indicates a protocol deadlock, which is a bug — or if
/// its throughput exceeds the link (offered load above
/// [`MAX_OFFERED_LOAD`]).
pub fn run_blast(spec: &BlastSpec) -> BlastReport {
    let msgs = spec.sizes.sample_many(spec.seed, spec.messages);
    let total: u64 = msgs.iter().sum();
    let recv_len = spec.effective_recv_len();
    let max_msg = msgs.iter().copied().max().unwrap_or(1) as usize;

    let mut net = SimNet::new();
    net.set_fabric(FabricModel::FairShare(FairShareConfig::new(spec.seed)));
    net.set_host_seed(
        spec.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1),
    );
    let client_node = net.add_node(spec.profile.host.clone(), spec.profile.hca.clone());
    let server_node = net.add_node(spec.profile.host.clone(), spec.profile.hca.clone());
    net.connect_nodes(
        client_node,
        server_node,
        spec.profile.link.clone(),
        spec.seed,
    );

    let (sock_c, sock_s) = StreamSocket::pair(&mut net, client_node, server_node, &spec.cfg);

    let mut client = Client {
        sock: Some(sock_c),
        slots: Vec::new(),
        free_slots: (0..spec.outstanding_sends).collect(),
        slot_of: vec![usize::MAX; msgs.len()],
        msgs,
        next: 0,
        completed: 0,
        stream_pos: 0,
        verify: spec.verify,
        start_delay: spec.effective_start_delay(),
        started: false,
        first_send_at: None,
        scratch: Vec::new(),
    };
    let mut server = Server {
        sock: Some(sock_s),
        slots: Vec::new(),
        free_slots: (0..spec.outstanding_recvs).collect(),
        slot_of: std::collections::HashMap::new(),
        recv_len,
        waitall: spec.waitall,
        expected_total: total,
        received: 0,
        next_id: 0,
        verify: spec.verify,
        digest: FNV_OFFSET,
        finished_at: None,
    };
    net.with_api(client_node, |api| {
        for _ in 0..spec.outstanding_sends {
            client.slots.push(api.register_mr(max_msg, Access::NONE));
        }
    });
    net.with_api(server_node, |api| {
        for _ in 0..spec.outstanding_recvs {
            server
                .slots
                .push(api.register_mr(recv_len as usize, Access::local_remote_write()));
        }
    });

    let limit = SimTime::ZERO + spec.time_limit;
    let outcome = net.run(&mut [&mut client, &mut server], limit);
    assert!(
        outcome.completed,
        "blast run deadlocked or timed out: sent {}/{} received {}/{} at {:?}",
        client.completed,
        client.msgs.len(),
        server.received,
        total,
        outcome.end,
    );

    let start = client.first_send_at.expect("client sent something");
    let end = server.finished_at.expect("server finished");
    let elapsed = end.saturating_duration_since(start);
    net.with_api(client_node, |api| {
        client.sock.as_mut().unwrap().sync_cq_stats(api)
    });
    net.with_api(server_node, |api| {
        server.sock.as_mut().unwrap().sync_cq_stats(api)
    });
    let sender_stats = client.sock.as_ref().unwrap().stats().clone();
    let receiver_stats = server.sock.as_ref().unwrap().stats().clone();
    let stats = &sender_stats;
    let cpu = |busy: SimDuration| {
        if elapsed.is_zero() {
            0.0
        } else {
            (busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
        }
    };
    let report = BlastReport {
        bytes: total,
        messages: client.msgs.len() as u64,
        start,
        end,
        cpu_sender: cpu(net.cpu_busy_total(client_node)),
        cpu_receiver: cpu(net.cpu_busy_total(server_node)),
        direct_transfers: stats.direct_transfers,
        indirect_transfers: stats.indirect_transfers,
        mode_switches: stats.mode_switches,
        adverts_discarded: stats.adverts_discarded,
        sender: sender_stats.clone(),
        receiver: receiver_stats,
        digest: server.digest,
        events: outcome.events,
        link_bandwidth_bps: spec.profile.link.bandwidth_bps,
        fabric: net.fabric_stats(),
    };
    // A single link's fabric flow never outruns the link.
    assert!(
        report.offered_load_ratio() <= MAX_OFFERED_LOAD,
        "blast exceeded the link: offered load {:.4}",
        report.offered_load_ratio()
    );
    report
}

/// Runs the same spec over several seeds (the paper averages 10 runs).
pub fn run_blast_seeds(spec: &BlastSpec, seeds: &[u64]) -> Vec<BlastReport> {
    seeds
        .iter()
        .map(|&seed| {
            let mut s = spec.clone();
            s.seed = seed;
            run_blast(&s)
        })
        .collect()
}
