//! Deterministic discrete-event driver.
//!
//! [`SimNet`] wires [`HcaCore`] nodes together with the `simnet`
//! fair-share fabric and a virtual clock, and drives application logic written against the
//! [`NodeApp`] reactor trait. The model:
//!
//! * **Verbs timing** — a posted send occupies the QP's HCA pipeline for
//!   `wqe_process`, then crosses the fair-share fabric
//!   ([`simnet::fabric`]): its flow shares NIC and core capacity with
//!   every concurrent flow, so a lone flow serializes at line rate. It
//!   reaches the peer HCA one propagation delay (plus optional jitter)
//!   after its last bit leaves, and the send completes when the peer's
//!   acknowledgment returns.
//! * **CPU timing** — each node has one simulated core ([`CpuMeter`]).
//!   Application handlers run when the core is free; every verbs call,
//!   completion handling step and memory copy charges the core. This is
//!   what makes the receiver's copy cost visible as reduced throughput
//!   and increased CPU usage, the paper's central trade-off.
//! * **Wakeups** — completions wake the owning node's app (edge
//!   triggered, like an armed completion channel). Apps are expected to
//!   drain their CQs on each wake; the wakeup overhead is charged once
//!   per wake, modelling event notification rather than busy polling
//!   (the mode used by the paper's measurements).

use std::collections::HashMap;

use simnet::fabric::{
    FabricModel, FabricStats, FairShareConfig, FairShareFabric, FlowKey, Transfer,
};
use simnet::trace::TraceRing;
use simnet::{EventId, LinkConfig, Scheduler, SimDuration, SimTime, Xoshiro256};

use crate::hca::{Effect, HcaConfig, HcaCore, PreparedSend};
use crate::host::{CpuMeter, HostModel};
use crate::mr::MrInfo;
use crate::qp::QpCaps;
use crate::types::{Access, CqId, Cqe, MrKey, NodeId, QpNum, RecvWr, Result, SendWr};
use crate::wire::WireMessage;

/// Reactor interface for application logic running on a simulated node.
///
/// Handlers receive a [`NodeApi`] giving access to verbs calls, registered
/// memory, timers and the CPU meter. All work done in a handler should be
/// charged via the api so the CPU model stays honest.
pub trait NodeApp {
    /// Called once before the event loop starts (time zero).
    fn on_start(&mut self, api: &mut NodeApi<'_>);
    /// Called when completions arrived for this node. Edge-triggered:
    /// drain your CQs before returning.
    fn on_wake(&mut self, api: &mut NodeApi<'_>);
    /// Called when a timer set via [`NodeApi::set_timer`] fires.
    fn on_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        let _ = (api, token);
    }
    /// The run loop stops early when every app reports done.
    fn is_done(&self) -> bool {
        false
    }
}

enum Ev {
    Deliver {
        msg: WireMessage,
    },
    TxDone {
        node: NodeId,
        qpn: QpNum,
        cqe: Option<Cqe>,
    },
    Wake {
        node: NodeId,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    QpFail {
        node: NodeId,
        qpn: QpNum,
    },
    /// A message cleared its HCA pipeline and is handed to the fabric
    /// allocator.
    FabricStart {
        token: u64,
    },
    /// The head transfer of flow `src → dst` moved its last bit.
    /// Scheduled at the allocator's predicted finish time and
    /// rescheduled whenever the flow re-speeds.
    FlowHeadDone {
        src: u32,
        dst: u32,
    },
}

/// A message parked in the fabric allocator between its `FabricStart`
/// and its flow-head completion.
struct PendingTx {
    msg: WireMessage,
    cqe: Option<Cqe>,
    is_read: bool,
    owns_sq_slot: bool,
}

/// Fabric state threaded through the driver: the allocator, the
/// messages it carries, and each active flow's completion event.
struct FabricRt {
    fair: FairShareFabric,
    /// Messages owned by the allocator, by transfer token.
    pending: HashMap<u64, PendingTx>,
    next_token: u64,
    /// The scheduled head-completion event per active flow. Entries are
    /// removed when the event fires, so a cancel here always targets a
    /// still-pending event (the scheduler's lazy-cancel contract).
    head_events: HashMap<FlowKey, EventId>,
}

impl FabricRt {
    fn new(cfg: FairShareConfig) -> Self {
        FabricRt {
            fair: FairShareFabric::new(cfg),
            pending: HashMap::new(),
            next_token: 0,
            head_events: HashMap::new(),
        }
    }
}

/// Cancels and reschedules head-completion events after the allocator
/// re-sped flows. `finish` can round to the past-equal instant; clamp
/// to `now` so the scheduler's monotonic contract holds.
fn apply_flow_changes(
    sched: &mut Scheduler<Ev>,
    head_events: &mut HashMap<FlowKey, EventId>,
    now: SimTime,
    changes: Vec<(FlowKey, SimTime)>,
) {
    for (key, finish) in changes {
        if let Some(ev) = head_events.remove(&key) {
            sched.cancel(ev);
        }
        let id = sched.schedule_at(
            finish.max(now),
            Ev::FlowHeadDone {
                src: key.0,
                dst: key.1,
            },
        );
        head_events.insert(key, id);
    }
}

/// RC transport retry period before a lost message fails the QP
/// (7 retries × a few ms on real hardware; one representative value).
const RETRY_PERIOD: SimDuration = SimDuration::from_millis(20);

struct NodeRuntime {
    hca: HcaCore,
    cpu: CpuMeter,
    host: HostModel,
    wake_scheduled: bool,
    rng: Xoshiro256,
}

impl NodeRuntime {
    fn jittered(&mut self, work: SimDuration) -> SimDuration {
        if self.host.jitter_frac > 0.0 && !work.is_zero() {
            let u = self.rng.next_f64();
            let factor = 1.0 + self.host.jitter_frac * (2.0 * u - 1.0);
            SimDuration::from_nanos((work.as_nanos() as f64 * factor).round().max(0.0) as u64)
        } else {
            work
        }
    }

    /// Charges CPU work with the host model's scheduling jitter applied.
    fn charge(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let w = self.jittered(work);
        self.cpu.charge(now, w)
    }

    /// Computes when wake-event processing may begin: a process that was
    /// asleep pays the completion-channel wakeup latency, plus an
    /// occasional scheduling stall (heavy-tail OS noise). Neither is
    /// busy time.
    fn wake_start(&mut self, now: SimTime) -> SimTime {
        if self.host.busy_poll {
            // Spinning on the CQ: events are noticed immediately.
            return now;
        }
        if self.cpu.free_at() >= now {
            // Still (or just) busy: no sleep happened, processing
            // continues as soon as the core frees up.
            return now;
        }
        let mut delay = self.jittered(self.host.wakeup_latency);
        if self.host.stall_prob > 0.0 && self.rng.next_f64() < self.host.stall_prob {
            let extra = self.rng.next_below(self.host.stall_max.as_nanos() + 1);
            delay += SimDuration::from_nanos(extra);
        }
        now + delay
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Virtual time when the loop stopped: the time limit when events
    /// remain past it (they stay queued for the next run).
    pub end: SimTime,
    /// True if every app reported done; false if the event queue drained
    /// or the time limit was hit first.
    pub completed: bool,
    /// Total events delivered.
    pub events: u64,
}

/// The discrete-event fabric driver.
pub struct SimNet {
    sched: Scheduler<Ev>,
    nodes: Vec<NodeRuntime>,
    links: HashMap<(u32, u32), LinkConfig>,
    fabric: FabricRt,
    fatal: Vec<String>,
    panic_on_fatal: bool,
    host_seed: u64,
    trace: TraceRing,
    down_links: std::collections::HashSet<(u32, u32)>,
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNet {
    /// An empty fabric.
    pub fn new() -> Self {
        SimNet {
            sched: Scheduler::new(),
            nodes: Vec::new(),
            links: HashMap::new(),
            fabric: FabricRt::new(FairShareConfig::default()),
            fatal: Vec::new(),
            panic_on_fatal: true,
            host_seed: 0x5EED,
            trace: TraceRing::disabled(),
            down_links: std::collections::HashSet::new(),
        }
    }

    /// Enables event tracing, retaining the last `capacity` records.
    /// Dump with [`SimNet::dump_trace`]; invaluable when a protocol run
    /// misbehaves.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceRing::new(capacity);
    }

    /// Renders the retained trace, one event per line.
    pub fn dump_trace(&self) -> String {
        self.trace.dump()
    }

    /// Sets the seed for host-side CPU jitter streams. Must be called
    /// before nodes are added; each node derives an independent stream.
    pub fn set_host_seed(&mut self, seed: u64) {
        assert!(self.nodes.is_empty(), "set_host_seed must precede add_node");
        self.host_seed = seed;
    }

    /// Adds a node with the given host cost model and HCA parameters.
    pub fn add_node(&mut self, host: HostModel, hca: HcaConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let rng = Xoshiro256::new(self.host_seed ^ (0x9E37_79B9 * (id.0 as u64 + 1)));
        self.nodes.push(NodeRuntime {
            hca: HcaCore::new(id, hca),
            cpu: CpuMeter::new(),
            host,
            wake_scheduled: false,
            rng,
        });
        id
    }

    /// Configures the fair-share fabric every transfer crosses: its core
    /// oversubscription and its arrival-jitter seed. The default is a
    /// non-blocking core with [`FairShareConfig::default`]'s seed. Must
    /// be called before any links are connected, since links register
    /// their capacities with the fabric.
    ///
    /// Fair sharing is the only model, so the [`FabricModel`] wrapper
    /// exists only for the benchmark in `perfbench/`; at its next change
    /// this takes a [`FairShareConfig`].
    pub fn set_fabric(&mut self, model: FabricModel) {
        assert!(
            self.links.is_empty(),
            "set_fabric must precede connect_nodes"
        );
        let FabricModel::FairShare(cfg) = model;
        self.fabric = FabricRt::new(cfg);
    }

    /// Per-flow telemetry from the fabric (achieved bps, re-speed
    /// counts, Jain fairness index). Always `Some`; the `Option` is kept
    /// only for the benchmark in `perfbench/`.
    pub fn fabric_stats(&self) -> Option<FabricStats> {
        Some(self.fabric.fair.stats())
    }

    /// Connects two nodes with symmetric links built from `cfg`. The
    /// seed is unused: arrival jitter draws from the fabric's seed
    /// ([`FairShareConfig::seed`]).
    pub fn connect_nodes(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig, seed: u64) {
        self.connect_nodes_asymmetric(a, b, cfg.clone(), cfg, seed);
    }

    /// Connects two nodes with different characteristics per direction
    /// (e.g. an asymmetric WAN: fat downstream, thin upstream).
    pub fn connect_nodes_asymmetric(
        &mut self,
        a: NodeId,
        b: NodeId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
        _seed: u64,
    ) {
        let fair = &mut self.fabric.fair;
        fair.register_link(a.0, b.0, a_to_b.bandwidth_bps);
        fair.register_link(b.0, a.0, b_to_a.bandwidth_bps);
        self.links.insert((a.0, b.0), a_to_b);
        self.links.insert((b.0, a.0), b_to_a);
    }

    /// By default a [`Effect::Fatal`] (RNR, remote access error) panics,
    /// treating it as a protocol bug. Tests that *expect* violations can
    /// turn this off and inspect [`SimNet::fatal_errors`].
    pub fn set_panic_on_fatal(&mut self, panic_on_fatal: bool) {
        self.panic_on_fatal = panic_on_fatal;
    }

    /// Fatal errors collected while `panic_on_fatal` is off.
    pub fn fatal_errors(&self) -> &[String] {
        &self.fatal
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// CPU usage of `node` over its current measurement window.
    pub fn cpu_usage(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].cpu.usage(self.sched.now())
    }

    /// Resets `node`'s CPU measurement window at the current time.
    pub fn cpu_window_reset(&mut self, node: NodeId) {
        let now = self.sched.now();
        self.nodes[node.index()].cpu.window_reset(now);
    }

    /// Total busy time charged to `node`.
    pub fn cpu_busy_total(&self, node: NodeId) -> SimDuration {
        self.nodes[node.index()].cpu.busy_total()
    }

    /// Fault injection: takes the *directed* link `a → b` down or up.
    /// A message that reaches the end of the link while it is down is
    /// lost (it still took its share of the fabric on the way), and
    /// after the transport retry period the sending QP fails with
    /// `RnrRetryExceeded`-style transport errors, flushing its receives
    /// — the observable behaviour of RC retry exhaustion.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        if up {
            self.down_links.remove(&(a.0, b.0));
        } else {
            self.down_links.insert((a.0, b.0));
        }
    }

    /// Fault injection: fails a QP (error state + receive flush) at the
    /// current virtual time. Flushed completions wake the node's app
    /// like any other completion.
    pub fn inject_qp_error(&mut self, node: NodeId, qpn: QpNum) -> Result<()> {
        let now = self.sched.now();
        let effects = self.nodes[node.index()].hca.fail_qp(qpn)?;
        self.apply_effects(node, effects, now);
        Ok(())
    }

    /// Runs setup code against a node outside the event loop (time stays
    /// at the current clock; CPU is not charged). Used by harnesses to
    /// register memory and build connections before starting apps.
    pub fn with_api<R>(&mut self, node: NodeId, f: impl FnOnce(&mut NodeApi<'_>) -> R) -> R {
        let now = self.sched.now();
        let SimNet {
            sched,
            nodes,
            fabric,
            ..
        } = self;
        let rt = &mut nodes[node.index()];
        let mut api = NodeApi {
            node,
            rt,
            sched,
            fabric,
            cpu_now: now,
        };
        f(&mut api)
    }

    /// Runs the event loop until every app is done, the queue drains, or
    /// the next event lies past `limit`. A later call resumes where this
    /// one stopped (calling every app's `on_start` again).
    ///
    /// `apps[i]` is the application for `NodeId(i)`; the slice length must
    /// match the node count.
    pub fn run(&mut self, apps: &mut [&mut dyn NodeApp], limit: SimTime) -> RunOutcome {
        assert_eq!(apps.len(), self.nodes.len(), "one app per node is required");

        // Start phase.
        for (i, app) in apps.iter_mut().enumerate() {
            let node = NodeId(i as u32);
            let SimNet {
                sched,
                nodes,
                fabric,
                ..
            } = self;
            let rt = &mut nodes[node.index()];
            let cpu_now = sched.now().max(rt.cpu.free_at());
            let mut api = NodeApi {
                node,
                rt,
                sched,
                fabric,
                cpu_now,
            };
            app.on_start(&mut api);
        }

        loop {
            if apps.iter().all(|a| a.is_done()) {
                return RunOutcome {
                    end: self.sched.now(),
                    completed: true,
                    events: self.sched.delivered(),
                };
            }
            let Some((now, ev)) = self.sched.pop_due(limit) else {
                // The queue drained, or its next event lies past `limit`.
                // That event stays queued and the clock stops at the
                // limit, so a later `run` resumes exactly here.
                if self.sched.peek_time().is_some() && limit > self.sched.now() {
                    self.sched.advance_to(limit);
                }
                return RunOutcome {
                    end: self.sched.now(),
                    completed: false,
                    events: self.sched.delivered(),
                };
            };
            match ev {
                Ev::Deliver { msg } => {
                    let dst = msg.dst_node();
                    if self.down_links.contains(&(msg.src_node().0, dst.0)) {
                        // Lost on the wire. RC would retransmit and give
                        // up after the retry period: fail the sender QP.
                        if self.trace.is_enabled() {
                            self.trace.push(
                                now,
                                "dropped",
                                format!("{:?}->{:?} {}", msg.src_node(), dst, op_tag(&msg.op)),
                            );
                        }
                        let (src_node, src_qpn) = msg.src;
                        self.sched.schedule_after(
                            RETRY_PERIOD,
                            Ev::QpFail {
                                node: src_node,
                                qpn: src_qpn,
                            },
                        );
                        continue;
                    }
                    if self.trace.is_enabled() {
                        self.trace.push(
                            now,
                            "deliver",
                            format!(
                                "{:?}->{:?} {} len={}",
                                msg.src_node(),
                                dst,
                                op_tag(&msg.op),
                                msg.payload_len()
                            ),
                        );
                    }
                    let effects = self.nodes[dst.index()].hca.handle_wire(msg);
                    self.apply_effects(dst, effects, now);
                }
                Ev::TxDone { node, qpn, cqe } => {
                    let mut effects = Vec::new();
                    self.nodes[node.index()]
                        .hca
                        .tx_finished(qpn, cqe, &mut effects);
                    self.apply_effects(node, effects, now);
                }
                Ev::Wake { node } => {
                    if self.trace.is_enabled() {
                        self.trace.push(now, "wake", format!("{node:?}"));
                    }
                    let SimNet {
                        sched,
                        nodes,
                        fabric,
                        ..
                    } = self;
                    let rt = &mut nodes[node.index()];
                    rt.wake_scheduled = false;
                    // Wakeup latency (sleeping process) + the per-wake
                    // event-channel processing cost.
                    let start = rt.wake_start(now);
                    let wakeup = rt.host.event_wakeup;
                    let cpu_now = rt.charge(start, wakeup);
                    let mut api = NodeApi {
                        node,
                        rt,
                        sched,
                        fabric,
                        cpu_now,
                    };
                    apps[node.index()].on_wake(&mut api);
                }
                Ev::Timer { node, token } => {
                    let SimNet {
                        sched,
                        nodes,
                        fabric,
                        ..
                    } = self;
                    let rt = &mut nodes[node.index()];
                    let cpu_now = now.max(rt.cpu.free_at());
                    let mut api = NodeApi {
                        node,
                        rt,
                        sched,
                        fabric,
                        cpu_now,
                    };
                    apps[node.index()].on_timer(&mut api, token);
                }
                Ev::QpFail { node, qpn } => {
                    // Retry exhaustion for a message lost on a downed
                    // link. The QP may already be in the error state
                    // (several losses); that is fine.
                    if let Ok(effects) = self.nodes[node.index()].hca.fail_qp(qpn) {
                        self.apply_effects(node, effects, now);
                    }
                }
                Ev::FabricStart { token } => {
                    let pending = self
                        .fabric
                        .pending
                        .get(&token)
                        .expect("FabricStart for unknown transfer");
                    let src = pending.msg.src_node();
                    let dst = pending.msg.dst_node();
                    let payload = pending.msg.payload_len();
                    let wire_bytes = self
                        .links
                        .get(&(src.0, dst.0))
                        .unwrap_or_else(|| panic!("no link from {src:?} to {dst:?}"))
                        .wire_bytes(payload);
                    let changes = self.fabric.fair.submit(
                        now,
                        src.0,
                        dst.0,
                        Transfer {
                            token,
                            wire_bytes,
                            payload_bytes: payload,
                        },
                    );
                    apply_flow_changes(&mut self.sched, &mut self.fabric.head_events, now, changes);
                }
                Ev::FlowHeadDone { src, dst } => {
                    self.fabric.head_events.remove(&(src, dst));
                    let link = self.links.get(&(src, dst)).expect("flow on unknown link");
                    let (prop, jitter) = (link.propagation, link.jitter);
                    let (transfer, arrival, changes) =
                        self.fabric.fair.complete(now, src, dst, prop, jitter);
                    let pending = self
                        .fabric
                        .pending
                        .remove(&transfer.token)
                        .expect("completed transfer has no message");
                    let (src_node, src_qpn) = pending.msg.src;
                    // Reliable-connected semantics: the send completes
                    // (and its SQ slot retires) when the responder HCA's
                    // hardware acknowledgment returns, one propagation
                    // after arrival plus the responder's WQE turnaround.
                    // READ requests keep their slot until the response.
                    if pending.owns_sq_slot && !pending.is_read {
                        let wqe_process = self.nodes[src_node.index()].hca.config().wqe_process;
                        let acked = arrival + wqe_process + prop;
                        self.sched.schedule_at(
                            acked,
                            Ev::TxDone {
                                node: src_node,
                                qpn: src_qpn,
                                cqe: pending.cqe,
                            },
                        );
                    }
                    self.sched
                        .schedule_at(arrival, Ev::Deliver { msg: pending.msg });
                    apply_flow_changes(&mut self.sched, &mut self.fabric.head_events, now, changes);
                }
            }
        }
    }

    fn apply_effects(&mut self, node: NodeId, effects: Vec<Effect>, now: SimTime) {
        for effect in effects {
            match effect {
                Effect::Completion { .. } => {
                    let SimNet { sched, nodes, .. } = self;
                    schedule_wake(&mut nodes[node.index()], sched, node, now);
                }
                Effect::Transmit(msg) => {
                    // Responder-generated message (RDMA READ response):
                    // the HCA emits it without CPU involvement.
                    let SimNet {
                        sched,
                        nodes,
                        fabric,
                        ..
                    } = self;
                    let rt = &mut nodes[node.index()];
                    launch(
                        rt,
                        sched,
                        fabric,
                        PreparedSend {
                            msg,
                            completion_at_tx: None,
                            is_read: false,
                        },
                        now,
                        // READ responses do not occupy an SQ slot.
                        false,
                    );
                }
                Effect::Fatal {
                    qpn,
                    status,
                    detail,
                } => {
                    let text = format!("node {node:?} qp {qpn:?}: {status:?}: {detail}");
                    if self.panic_on_fatal {
                        panic!("fatal verbs error: {text}");
                    }
                    self.fatal.push(text);
                }
            }
        }
    }
}

fn schedule_wake(rt: &mut NodeRuntime, sched: &mut Scheduler<Ev>, node: NodeId, now: SimTime) {
    if rt.wake_scheduled {
        return;
    }
    let at = now.max(rt.cpu.free_at());
    sched.schedule_at(at, Ev::Wake { node });
    rt.wake_scheduled = true;
}

/// Short label for a wire operation in trace output.
fn op_tag(op: &crate::wire::WireOp) -> &'static str {
    match op {
        crate::wire::WireOp::Send { .. } => "send",
        crate::wire::WireOp::Write { .. } => "write",
        crate::wire::WireOp::WriteImm { .. } => "write-imm",
        crate::wire::WireOp::ReadReq { .. } => "read-req",
        crate::wire::WireOp::ReadResp { .. } => "read-resp",
    }
}

/// Pushes a prepared send through the HCA pipeline and onto the fabric:
/// the message is handed to the flow allocator at pipeline exit (a
/// `FabricStart` event), and its delivery and ack events are scheduled
/// when its flow's head completes. `owns_sq_slot` is false for
/// HCA-originated responses, which bypass the send queue.
fn launch(
    rt: &mut NodeRuntime,
    sched: &mut Scheduler<Ev>,
    fabric: &mut FabricRt,
    prepared: PreparedSend,
    post_time: SimTime,
    owns_sq_slot: bool,
) {
    let src_qpn = prepared.msg.src.1;
    let wqe_process = rt.hca.config().wqe_process;

    // Serialize on the QP's HCA pipeline.
    let start = if owns_sq_slot {
        let qp = rt.hca.qp_mut(src_qpn).expect("launch on unknown QP");
        let start = post_time.max(qp.hca_free_at);
        qp.hca_free_at = start + wqe_process;
        start
    } else {
        post_time
    };

    let token = fabric.next_token;
    fabric.next_token += 1;
    fabric.pending.insert(
        token,
        PendingTx {
            msg: prepared.msg,
            cqe: prepared.completion_at_tx,
            is_read: prepared.is_read,
            owns_sq_slot,
        },
    );
    sched.schedule_at(start + wqe_process, Ev::FabricStart { token });
}

/// Per-node handle passed to [`NodeApp`] callbacks and
/// [`SimNet::with_api`] closures.
pub struct NodeApi<'a> {
    node: NodeId,
    rt: &'a mut NodeRuntime,
    sched: &'a mut Scheduler<Ev>,
    fabric: &'a mut FabricRt,
    /// This handler's CPU-time cursor: verbs posts issued through the api
    /// are stamped at this instant, which advances as work is charged.
    cpu_now: SimTime,
}

impl NodeApi<'_> {
    /// The node this api controls.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The handler's current CPU-time cursor.
    pub fn now(&self) -> SimTime {
        self.cpu_now
    }

    /// The node's host cost model.
    pub fn host(&self) -> &HostModel {
        &self.rt.host
    }

    /// Charges CPU work (with host jitter), advancing the cursor.
    pub fn charge(&mut self, work: SimDuration) {
        self.cpu_now = self.rt.charge(self.cpu_now, work);
    }

    /// Registers a memory region (setup cost not modelled: registration
    /// happens outside the timed window in the paper's experiments).
    pub fn register_mr(&mut self, len: usize, access: Access) -> MrInfo {
        self.rt.hca.register_mr(len, access)
    }

    /// Deregisters a memory region.
    pub fn hca_deregister(&mut self, key: MrKey) -> Result<()> {
        self.rt.hca.deregister_mr(key)
    }

    /// Registers a memory region, charging the host's pin-down cost
    /// (`ibv_reg_mr` kernel transition + per-page pinning). The mempool
    /// acquire path uses this so registration churn shows up in virtual
    /// time; setup-phase registrations keep using
    /// [`NodeApi::register_mr`].
    pub fn register_mr_charged(&mut self, len: usize, access: Access) -> MrInfo {
        let cost = self.rt.host.mr_register_time(len as u64);
        self.charge(cost);
        self.rt.hca.register_mr(len, access)
    }

    /// Deregisters a memory region, charging the host's unpin cost.
    pub fn deregister_mr_charged(&mut self, key: MrKey) -> Result<()> {
        let len = self.rt.hca.mem().len_of(key).unwrap_or(0);
        let cost = self.rt.host.mr_deregister_time(len as u64);
        self.charge(cost);
        self.rt.hca.deregister_mr(key)
    }

    /// Number of live memory registrations on this node (leak checks).
    pub fn mr_count(&self) -> usize {
        self.rt.hca.mem().len()
    }

    /// Creates a completion queue.
    pub fn create_cq(&mut self, depth: usize) -> CqId {
        self.rt.hca.create_cq(depth)
    }

    /// Creates a queue pair.
    pub fn create_qp(&mut self, send_cq: CqId, recv_cq: CqId, caps: QpCaps) -> Result<QpNum> {
        self.rt.hca.create_qp(send_cq, recv_cq, caps)
    }

    /// Connects a queue pair to a remote peer.
    pub fn connect_qp(&mut self, qpn: QpNum, remote: (NodeId, QpNum)) -> Result<()> {
        self.rt.hca.connect_qp(qpn, remote)
    }

    /// Posts a send work request: charges the post overhead, validates,
    /// and launches the message through the HCA pipeline and fabric.
    pub fn post_send(&mut self, qpn: QpNum, wr: SendWr) -> Result<()> {
        let overhead = self.rt.host.post_overhead;
        self.charge(overhead);
        let prepared = self.rt.hca.prepare_send(qpn, wr)?;
        launch(
            self.rt,
            self.sched,
            self.fabric,
            prepared,
            self.cpu_now,
            true,
        );
        Ok(())
    }

    /// Posts a chain of send work requests as one postlist: the
    /// doorbell/WQE-build overhead is charged **once** for the whole
    /// chain — the point of doorbell batching — while each WQE still
    /// serializes through the QP's HCA pipeline individually. Stops at
    /// the first invalid WR and returns its error; WRs before it are
    /// already on the wire (the `ibv_post_send` `bad_wr` contract).
    pub fn post_send_list(&mut self, qpn: QpNum, wrs: Vec<SendWr>) -> Result<()> {
        if wrs.is_empty() {
            return Ok(());
        }
        let overhead = self.rt.host.post_overhead;
        self.charge(overhead);
        for wr in wrs {
            let prepared = self.rt.hca.prepare_send(qpn, wr)?;
            launch(
                self.rt,
                self.sched,
                self.fabric,
                prepared,
                self.cpu_now,
                true,
            );
        }
        Ok(())
    }

    /// Posts a receive work request.
    pub fn post_recv(&mut self, qpn: QpNum, wr: RecvWr) -> Result<()> {
        let overhead = self.rt.host.post_overhead;
        self.charge(overhead);
        self.rt.hca.post_recv(qpn, wr)
    }

    /// Polls completions, charging one poll overhead per call.
    pub fn poll_cq(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> Result<usize> {
        let overhead = self.rt.host.poll_overhead;
        self.charge(overhead);
        self.rt.hca.poll_cq(cq, max, out)
    }

    /// Arms a CQ for one notification.
    pub fn arm_cq(&mut self, cq: CqId) -> Result<bool> {
        self.rt.hca.arm_cq(cq)
    }

    /// Writes application data into registered memory without charging
    /// CPU (setup/fill outside the measured path).
    pub fn write_mr(&mut self, key: MrKey, addr: u64, data: &[u8]) -> Result<()> {
        self.rt.hca.mem_mut().app_write(key, addr, data)
    }

    /// Reads application data from registered memory without charging CPU.
    pub fn read_mr(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.rt.hca.mem().app_read(key, addr, buf)
    }

    /// Copies between registered regions, charging the host memcpy cost.
    /// This is the EXS intermediate-buffer → user-buffer copy.
    pub fn copy_mr(
        &mut self,
        src_key: MrKey,
        src_addr: u64,
        dst_key: MrKey,
        dst_addr: u64,
        len: u64,
    ) -> Result<u64> {
        let cost = self.rt.host.memcpy_time(len);
        self.charge(cost);
        self.rt
            .hca
            .mem_mut()
            .local_copy(src_key, src_addr, dst_key, dst_addr, len)
    }

    /// Schedules an [`NodeApp::on_timer`] callback `delay` after the
    /// current CPU cursor.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.sched.schedule_at(
            self.cpu_now + delay,
            Ev::Timer {
                node: self.node,
                token,
            },
        );
    }

    /// Direct read-only access to the HCA (stats, QP state).
    pub fn hca(&self) -> &HcaCore {
        &self.rt.hca
    }

    /// Number of posted, unconsumed receives on a QP.
    pub fn rq_len(&self, qpn: QpNum) -> usize {
        self.rt.hca.qp(qpn).map(|q| q.rq_len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Sge, WcOpcode};

    fn quiet_host() -> HostModel {
        HostModel::free()
    }

    fn fast_link() -> LinkConfig {
        LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1))
    }

    struct Idle;
    impl NodeApp for Idle {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Sends `count` messages, one per send completion.
    struct Pinger {
        qpn: Option<QpNum>,
        cq: Option<CqId>,
        mr: Option<MrInfo>,
        sent: u32,
        count: u32,
        completions: u32,
    }

    impl Pinger {
        fn new(count: u32) -> Self {
            Pinger {
                qpn: None,
                cq: None,
                mr: None,
                sent: 0,
                count,
                completions: 0,
            }
        }
    }

    impl NodeApp for Pinger {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            let sge = self.mr.unwrap().sge(0, 64);
            api.post_send(self.qpn.unwrap(), SendWr::send(0, sge))
                .unwrap();
            self.sent = 1;
        }
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            let mut cqes = Vec::new();
            api.poll_cq(self.cq.unwrap(), usize::MAX, &mut cqes)
                .unwrap();
            for cqe in cqes {
                assert_eq!(cqe.opcode, WcOpcode::Send);
                self.completions += 1;
                if self.sent < self.count {
                    let sge = self.mr.unwrap().sge(0, 64);
                    api.post_send(self.qpn.unwrap(), SendWr::send(self.sent as u64, sge))
                        .unwrap();
                    self.sent += 1;
                }
            }
        }
        fn is_done(&self) -> bool {
            self.completions == self.count
        }
    }

    /// Posts receives and counts arrivals.
    struct Ponger {
        qpn: Option<QpNum>,
        cq: Option<CqId>,
        mr: Option<MrInfo>,
        received: u32,
        expect: u32,
    }

    impl NodeApp for Ponger {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_wake(&mut self, api: &mut NodeApi<'_>) {
            let mut cqes = Vec::new();
            api.poll_cq(self.cq.unwrap(), usize::MAX, &mut cqes)
                .unwrap();
            for cqe in cqes {
                assert_eq!(cqe.opcode, WcOpcode::Recv);
                self.received += 1;
                // Replenish the receive so the sender never hits RNR.
                let sge = self.mr.unwrap().sge(0, 64);
                api.post_recv(self.qpn.unwrap(), RecvWr::new(cqe.wr_id + 1, sge))
                    .unwrap();
            }
        }
        fn is_done(&self) -> bool {
            self.received >= self.expect
        }
    }

    fn build_pair(net: &mut SimNet) -> (NodeId, NodeId) {
        let a = net.add_node(quiet_host(), HcaConfig::default());
        let b = net.add_node(quiet_host(), HcaConfig::default());
        net.connect_nodes(a, b, fast_link(), 7);
        (a, b)
    }

    #[test]
    fn ping_stream_delivers_all() {
        let mut net = SimNet::new();
        let (a, b) = build_pair(&mut net);

        let mut pinger = Pinger::new(10);
        let mut ponger = Ponger {
            qpn: None,
            cq: None,
            mr: None,
            received: 0,
            expect: 10,
        };

        // Setup outside the loop.
        let (a_qp, a_cq, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            let mr = api.register_mr(64, Access::NONE);
            (qp, scq, mr)
        });
        let (b_qp, b_cq, b_mr) = net.with_api(b, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            let mr = api.register_mr(64, Access::LOCAL_WRITE);
            (qp, rcq, mr)
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| {
            api.connect_qp(b_qp, (a, a_qp)).unwrap();
            // Pre-post plenty of receives.
            for i in 0..16 {
                let sge = Sge::new(b_mr.addr, 64, b_mr.key);
                api.post_recv(b_qp, RecvWr::new(i, sge)).unwrap();
            }
        });
        pinger.qpn = Some(a_qp);
        pinger.cq = Some(a_cq);
        pinger.mr = Some(a_mr);
        ponger.qpn = Some(b_qp);
        ponger.cq = Some(b_cq);
        ponger.mr = Some(b_mr);

        let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
        assert!(outcome.completed, "run did not finish: {outcome:?}");
        assert_eq!(pinger.completions, 10);
        assert_eq!(ponger.received, 10);
        // Time passed: 10 messages through a 1 us link.
        assert!(net.now() > SimTime::from_micros(1));
        // Every message crossed the fabric as one transfer of the a→b
        // flow, and a ping-pong never has concurrent flows.
        let stats = net.fabric_stats().expect("fabric telemetry");
        let fwd = stats
            .flows
            .iter()
            .find(|f| f.src == a.0 && f.dst == b.0)
            .expect("a→b flow tracked");
        assert_eq!(fwd.bytes, 640);
        assert_eq!(fwd.transfers, 10);
        assert_eq!(stats.respeeds, 0);
    }

    #[test]
    fn postlist_charges_one_doorbell_and_batch_retires_slots() {
        // One node pays 1 us per doorbell; 7 unsignaled WRITEs + 1
        // signaled WRITE posted as a single postlist must charge that
        // microsecond exactly once, and the signaled completion must
        // retire all eight SQ slots.
        let mut host = HostModel::free();
        host.post_overhead = SimDuration::from_micros(1);
        let mut net = SimNet::new();
        let a = net.add_node(host, HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(a, b, fast_link(), 3);

        let (a_qp, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, api.register_mr(64, Access::NONE))
        });
        let (b_qp, b_mr) = net.with_api(b, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, api.register_mr(64, Access::local_remote_write()))
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| api.connect_qp(b_qp, (a, a_qp)).unwrap());

        net.with_api(a, |api| {
            let remote = crate::types::RemoteAddr {
                addr: b_mr.addr,
                rkey: b_mr.key,
            };
            let wrs: Vec<SendWr> = (0..8)
                .map(|i| {
                    let wr = SendWr::write(i, a_mr.sge(0, 8), remote);
                    if i < 7 {
                        wr.unsignaled()
                    } else {
                        wr
                    }
                })
                .collect();
            api.post_send_list(a_qp, wrs).unwrap();
            assert_eq!(api.hca().qp(a_qp).unwrap().sq_outstanding(), 8);
        });
        assert_eq!(net.cpu_busy_total(a), SimDuration::from_micros(1));

        // Drain the event queue (never-done apps keep the loop running
        // until no events remain).
        struct Drain;
        impl NodeApp for Drain {
            fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
        }
        let mut ia = Drain;
        let mut ib = Drain;
        net.run(&mut [&mut ia, &mut ib], SimTime::from_secs(1));
        net.with_api(a, |api| {
            let qp = api.hca().qp(a_qp).unwrap();
            assert_eq!(qp.sq_outstanding(), 0, "signaled CQE retires the batch");
            assert_eq!(qp.sq_deferred(), 0);
        });
    }

    #[test]
    fn set_fabric_configures_the_allocator() {
        let mut net = SimNet::new();
        let default = net.fabric_stats().expect("fabric telemetry");
        assert_eq!(default.seed, FairShareConfig::default().seed);
        let cfg = FairShareConfig::new(9).with_oversubscription(2.0);
        net.set_fabric(FabricModel::FairShare(cfg));
        let stats = net.fabric_stats().expect("fabric telemetry");
        assert_eq!((stats.seed, stats.oversubscription), (9, 2.0));
    }

    #[test]
    fn idle_network_terminates() {
        let mut net = SimNet::new();
        let (_a, _b) = build_pair(&mut net);
        let mut ia = Idle;
        let mut ib = Idle;
        let outcome = net.run(&mut [&mut ia, &mut ib], SimTime::from_secs(1));
        assert!(outcome.completed);
        assert_eq!(outcome.end, SimTime::ZERO);
    }

    #[test]
    fn fatal_collection_mode() {
        let mut net = SimNet::new();
        let (a, b) = build_pair(&mut net);
        net.set_panic_on_fatal(false);

        struct SendNoRecv {
            qpn: Option<QpNum>,
            mr: Option<MrInfo>,
        }
        impl NodeApp for SendNoRecv {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                let sge = self.mr.unwrap().sge(0, 8);
                api.post_send(self.qpn.unwrap(), SendWr::send(1, sge))
                    .unwrap();
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn is_done(&self) -> bool {
                false
            }
        }

        let (a_qp, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(8);
            let rcq = api.create_cq(8);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, api.register_mr(8, Access::NONE))
        });
        let b_qp = net.with_api(b, |api| {
            let scq = api.create_cq(8);
            let rcq = api.create_cq(8);
            api.create_qp(scq, rcq, QpCaps::default()).unwrap()
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| api.connect_qp(b_qp, (a, a_qp)).unwrap());

        let mut sender = SendNoRecv {
            qpn: Some(a_qp),
            mr: Some(a_mr),
        };
        let mut idle = Idle;
        net.run(&mut [&mut sender, &mut idle], SimTime::from_secs(1));
        assert_eq!(net.fatal_errors().len(), 1);
        assert!(net.fatal_errors()[0].contains("no posted RECV"));
    }

    #[test]
    fn cpu_charges_shape_the_timeline() {
        // A host with a large per-post cost must stretch the run.
        let mut slow = HostModel::free();
        slow.post_overhead = SimDuration::from_micros(100);

        let mut net = SimNet::new();
        let a = net.add_node(slow, HcaConfig::default());
        let b = net.add_node(HostModel::free(), HcaConfig::default());
        net.connect_nodes(a, b, fast_link(), 1);

        let (a_qp, a_cq, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, scq, api.register_mr(64, Access::NONE))
        });
        let (b_qp, b_cq, b_mr) = net.with_api(b, |api| {
            let scq = api.create_cq(64);
            let rcq = api.create_cq(64);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, rcq, api.register_mr(64, Access::LOCAL_WRITE))
        });
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());
        net.with_api(b, |api| {
            api.connect_qp(b_qp, (a, a_qp)).unwrap();
            for i in 0..16 {
                let sge = Sge::new(b_mr.addr, 64, b_mr.key);
                api.post_recv(b_qp, RecvWr::new(i, sge)).unwrap();
            }
        });

        let mut pinger = Pinger::new(5);
        pinger.qpn = Some(a_qp);
        pinger.cq = Some(a_cq);
        pinger.mr = Some(a_mr);
        let mut ponger = Ponger {
            qpn: Some(b_qp),
            cq: Some(b_cq),
            mr: Some(b_mr),
            received: 0,
            expect: 5,
        };

        let outcome = net.run(&mut [&mut pinger, &mut ponger], SimTime::from_secs(1));
        assert!(outcome.completed);
        // 5 posts at 100 us each dominate the timeline.
        assert!(net.now() >= SimTime::from_micros(500));
        assert!(net.cpu_busy_total(a) >= SimDuration::from_micros(500));
        assert!(net.cpu_usage(a) > 0.9);
    }

    #[test]
    fn timers_fire() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl NodeApp for TimerApp {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(SimDuration::from_micros(5), 1);
                api.set_timer(SimDuration::from_micros(1), 2);
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, _api: &mut NodeApi<'_>, token: u64) {
                self.fired.push(token);
            }
            fn is_done(&self) -> bool {
                self.fired.len() == 2
            }
        }
        let mut net = SimNet::new();
        let _a = net.add_node(HostModel::free(), HcaConfig::default());
        let mut app = TimerApp { fired: Vec::new() };
        let outcome = net.run(&mut [&mut app], SimTime::from_secs(1));
        assert!(outcome.completed);
        assert_eq!(app.fired, vec![2, 1]);
        assert_eq!(net.now(), SimTime::from_micros(5));
    }

    #[test]
    fn time_limit_stops_runaway() {
        struct Loopy;
        impl NodeApp for Loopy {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer(SimDuration::from_micros(1), 0);
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, api: &mut NodeApi<'_>, _token: u64) {
                api.set_timer(SimDuration::from_micros(1), 0);
            }
        }
        let mut net = SimNet::new();
        let _ = net.add_node(HostModel::free(), HcaConfig::default());
        let mut app = Loopy;
        let outcome = net.run(&mut [&mut app], SimTime::from_millis(1));
        assert!(!outcome.completed);
        assert!(outcome.end >= SimTime::from_millis(1));
    }
}

#[cfg(test)]
mod wake_model_tests {
    use super::*;
    use crate::types::{Access, Sge, WcOpcode};

    fn latency_host() -> HostModel {
        HostModel {
            wakeup_latency: SimDuration::from_micros(10),
            ..HostModel::free()
        }
    }

    /// One message, event-notification host: the receiver's completion
    /// must be processed no earlier than arrival + wakeup latency.
    fn one_message_end(host_b: HostModel) -> SimTime {
        let mut net = SimNet::new();
        let a = net.add_node(HostModel::free(), HcaConfig::default());
        let b = net.add_node(host_b, HcaConfig::default());
        net.connect_nodes(
            a,
            b,
            LinkConfig::simple(10_000_000_000, SimDuration::from_micros(1)),
            0,
        );

        struct Shot {
            qpn: Option<QpNum>,
            mr: Option<MrInfo>,
        }
        impl NodeApp for Shot {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                let sge = self.mr.unwrap().sge(0, 64);
                api.post_send(self.qpn.unwrap(), SendWr::send(1, sge))
                    .unwrap();
            }
            fn on_wake(&mut self, _api: &mut NodeApi<'_>) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        struct Sink {
            cq: Option<CqId>,
            got_at: Option<SimTime>,
        }
        impl NodeApp for Sink {
            fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_wake(&mut self, api: &mut NodeApi<'_>) {
                let mut cqes = Vec::new();
                api.poll_cq(self.cq.unwrap(), usize::MAX, &mut cqes)
                    .unwrap();
                for c in cqes {
                    assert_eq!(c.opcode, WcOpcode::Recv);
                    // api.now() is the CPU cursor: it includes the
                    // wakeup latency, unlike the event timestamp.
                    self.got_at = Some(api.now());
                }
            }
            fn is_done(&self) -> bool {
                self.got_at.is_some()
            }
        }

        let (a_qp, a_mr) = net.with_api(a, |api| {
            let scq = api.create_cq(8);
            let rcq = api.create_cq(8);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            (qp, api.register_mr(64, Access::NONE))
        });
        let (b_qp, b_cq) = net.with_api(b, |api| {
            let scq = api.create_cq(8);
            let rcq = api.create_cq(8);
            let qp = api.create_qp(scq, rcq, QpCaps::default()).unwrap();
            let mr = api.register_mr(64, Access::LOCAL_WRITE);
            api.connect_qp(qp, (a, QpNum(1))).ok();
            api.post_recv(qp, RecvWr::new(1, Sge::new(mr.addr, 64, mr.key)))
                .unwrap();
            (qp, rcq)
        });
        // Re-connect cleanly (the b-side guess above may not match).
        net.with_api(a, |api| api.connect_qp(a_qp, (b, b_qp)).unwrap());

        let mut shot = Shot {
            qpn: Some(a_qp),
            mr: Some(a_mr),
        };
        let mut sink = Sink {
            cq: Some(b_cq),
            got_at: None,
        };
        let outcome = net.run(&mut [&mut shot, &mut sink], SimTime::from_secs(1));
        assert!(outcome.completed);
        sink.got_at.expect("completion processed")
    }

    #[test]
    fn wakeup_latency_delays_idle_receivers() {
        let with_latency = one_message_end(latency_host());
        let without = one_message_end(HostModel::free());
        let delta = with_latency.as_nanos() - without.as_nanos();
        assert!(
            (9_000..=11_000).contains(&delta),
            "expected ~10us wakeup latency, saw {delta} ns"
        );
    }

    #[test]
    fn busy_poll_skips_wakeup_latency() {
        let mut host = latency_host();
        host.busy_poll = true;
        let polled = one_message_end(host);
        let free = one_message_end(HostModel::free());
        assert_eq!(polled, free, "busy polling must see events immediately");
    }

    #[test]
    fn stalls_extend_some_wakeups() {
        let mut host = latency_host();
        host.stall_prob = 1.0; // every wake stalls
        host.stall_max = SimDuration::from_micros(100);
        let stalled = one_message_end(host);
        let base = one_message_end(latency_host());
        assert!(stalled >= base, "a certain stall cannot make things faster");
    }
}
