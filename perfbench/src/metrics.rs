//! What a repetition measures, and how a run turns repetitions into
//! the reported metrics.

use std::collections::BTreeMap;

use exs::ConnStats;

use crate::measure::{Ledger, Percentiles};
use crate::trace::{self, Layer, Timeline};

/// End-to-end metrics every workload reports (`--trace 0`), with unit.
///
/// `goodput_gbps`, `lat_p50_us` and `lat_p99_us` use the workload's
/// own network clock: simulated time on the three SimNet workloads
/// (deterministic per seed) and the host monotonic clock on
/// `thread_fanin`. The host-clock cost of the simulated workloads
/// (`wall_goodput_gbps`, `wall_ops_per_s`) is in the report line only:
/// it moves with the host's speed, which drifts too far between runs
/// to hold a bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("goodput_gbps", "Gbit/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every workload reports (`--trace 1`), with unit.
/// A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("simnet.engine_self_s", "s"),
    ("simnet.events_per_op", "1/op"),
    ("simnet.fabric_respeeds", "count"),
    ("simnet.fabric_jain", "ratio"),
    ("simnet.offered_load_ratio", "ratio"),
    ("verbs.cpu_busy_rx_s", "s"),
    ("verbs.cpu_busy_tx_s", "s"),
    ("verbs.doorbells_per_op", "1/op"),
    ("verbs.wqes_per_doorbell", "ratio"),
    ("verbs.unsignaled_ratio", "ratio"),
    ("verbs.cq_nonempty_polls", "count"),
    ("verbs.cq_max_batch", "count"),
    ("verbs.cq_overflows", "count"),
    ("verbs.nic_thread_cpu_s", "s"),
    ("exs.direct_byte_ratio", "ratio"),
    ("exs.mode_switches", "count"),
    ("exs.advert_use_ratio", "ratio"),
    ("exs.copy_out_per_byte", "ratio"),
    ("exs.ctrl_msgs_per_op", "1/op"),
    ("exs.rx_wake_s", "s"),
    ("exs.tx_wake_s", "s"),
    ("exs.post_s", "s"),
    ("exs.protocol_errors", "count"),
    ("txpipe.coalesced_ratio", "ratio"),
    ("reactor.poll_s", "s"),
    ("reactor.cqes_per_poll", "ratio"),
    ("reactor.deferrals", "count"),
    ("mux.direct_byte_ratio", "ratio"),
    ("mux.adverts_discarded_ratio", "ratio"),
    ("mux.api_s", "s"),
    ("mux.bytes_per_stream", "B"),
    ("mux.late_slowdown_ratio", "ratio"),
    ("aio.turn_s", "s"),
    ("aio.wait_s", "s"),
    ("aio.busy_ratio", "ratio"),
    ("aio.polls_per_wakeup", "ratio"),
    ("aio.spurious_ratio", "ratio"),
    ("mempool.hit_ratio", "ratio"),
    ("mempool.registrations", "count"),
    ("mempool.pinned_peak_mib", "MiB"),
    ("bench.verify_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Figures on the simulator's clock; identical for identical inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct SimFigures {
    /// User payload bits per simulated second, first send to last byte
    /// delivered (paper Eq. 1).
    pub goodput_gbps: f64,
    /// Per-operation latency, simulated nanoseconds.
    pub lat_ns: Percentiles,
    /// Modelled CPU busy time of the receiving node per KiB delivered.
    pub cpu_rx_ns_per_kib: f64,
    /// Modelled CPU busy time of the sending nodes per KiB delivered.
    pub cpu_tx_ns_per_kib: f64,
    /// Simulator events delivered.
    pub events: u64,
    /// Simulated nanoseconds from first send to last delivery.
    pub span_ns: u64,
}

impl SimFigures {
    /// Every figure as bits, for an exact comparison between runs.
    pub fn fingerprint(&self) -> Vec<u64> {
        let lat = &self.lat_ns;
        vec![
            self.goodput_gbps.to_bits(),
            lat.count as u64,
            lat.p50.unwrap_or(u64::MAX),
            lat.p99.unwrap_or(u64::MAX),
            lat.p999.unwrap_or(u64::MAX),
            self.cpu_rx_ns_per_kib.to_bits(),
            self.cpu_tx_ns_per_kib.to_bits(),
            self.events,
            self.span_ns,
        ]
    }
}

/// What one repetition of a workload measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds from the first set-up call to the first timed send.
    pub setup_s: f64,
    /// Host seconds of the timed window.
    pub wall_s: f64,
    /// Operations completed (messages delivered, or round trips).
    pub ops: u64,
    /// User payload bytes delivered.
    pub payload_bytes: u64,
    /// Simulated-clock figures (SimNet workloads only).
    pub sim: Option<SimFigures>,
    /// Host-clock per-message latency samples (thread workload only).
    pub wall_lat_ns: Vec<u64>,
    /// Per-layer counters read from the stack's own statistics.
    pub layer: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub ledger: Ledger,
    /// Spans, when the repetition was traced.
    pub timeline: Option<Timeline>,
    /// Tracks of the receiving side: its `StreamSocket::handle_wake`
    /// spans are `exs.rx_wake_s`, and on the thread fabric the first is
    /// the server thread whose executor spans are `aio.*_s`.
    pub rx_tracks: Vec<u32>,
}

impl Rep {
    /// Host payload goodput of the timed window.
    pub fn wall_goodput_gbps(&self) -> f64 {
        self.payload_bytes as f64 * 8.0 / self.wall_s.max(1e-9) / 1e9
    }

    /// Host operations per second of the timed window.
    pub fn wall_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9)
    }
}

/// `a / b`, or 0 when the base is 0 (an idle layer).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer counters of the exs protocol, the TX pipe and the verbs
/// send path, from the statistics of the endpoints that send (`tx`)
/// and receive (`rx`) the measured stream. Control messages count what
/// both emitted. `ops` is the operation count per-op figures divide by.
pub fn protocol_counters(
    tx: &ConnStats,
    rx: &ConnStats,
    ops: u64,
    delivered: u64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let ops = ops as f64;
    let data = (tx.direct_bytes + tx.indirect_bytes) as f64;
    out.insert("exs.direct_byte_ratio", ratio(tx.direct_bytes as f64, data));
    out.insert("exs.mode_switches", tx.mode_switches as f64);
    let consumed = tx.adverts_received.saturating_sub(tx.adverts_discarded);
    out.insert(
        "exs.advert_use_ratio",
        ratio(consumed as f64, rx.adverts_sent as f64),
    );
    out.insert(
        "exs.copy_out_per_byte",
        ratio(rx.bytes_copied_out as f64, delivered as f64),
    );
    let ctrl = [tx, rx]
        .iter()
        .map(|s| s.adverts_sent + s.acks_sent + s.credits_sent)
        .sum::<u64>();
    out.insert("exs.ctrl_msgs_per_op", ratio(ctrl as f64, ops));
    out.insert(
        "exs.protocol_errors",
        (tx.protocol_errors + rx.protocol_errors) as f64,
    );
    out.insert(
        "txpipe.coalesced_ratio",
        ratio(tx.coalesced_msgs as f64, tx.sends_completed as f64),
    );
    out.insert("verbs.doorbells_per_op", ratio(tx.doorbells as f64, ops));
    out.insert(
        "verbs.wqes_per_doorbell",
        ratio(tx.wqes_posted as f64, tx.doorbells as f64),
    );
    out.insert("verbs.unsignaled_ratio", tx.unsignaled_ratio());
    out.insert(
        "verbs.cq_nonempty_polls",
        (tx.cq_nonempty_polls + rx.cq_nonempty_polls) as f64,
    );
    out.insert(
        "verbs.cq_max_batch",
        tx.cq_max_batch.max(rx.cq_max_batch) as f64,
    );
    out.insert(
        "verbs.cq_overflows",
        (tx.cq_overflowed as u64 + rx.cq_overflowed as u64) as f64,
    );
}

/// Per-layer figures read off a traced repetition's spans.
pub fn span_metrics(rep: &Rep, out: &mut BTreeMap<&'static str, f64>) {
    let Some(tl) = &rep.timeline else {
        return;
    };
    let s = |ns: u64| ns as f64 / 1e9;
    let spans = &tl.spans;
    out.insert(
        "simnet.engine_self_s",
        s(trace::self_ns(spans, "SimNet::run")),
    );
    let (mut rx_wake, mut tx_wake) = (0, 0);
    for sp in spans
        .iter()
        .filter(|sp| sp.name == "StreamSocket::handle_wake")
    {
        if rep.rx_tracks.contains(&sp.track) {
            rx_wake += sp.dur_ns();
        } else {
            tx_wake += sp.dur_ns();
        }
    }
    out.insert("exs.rx_wake_s", s(rx_wake));
    out.insert("exs.tx_wake_s", s(tx_wake));
    out.insert(
        "exs.post_s",
        s(trace::total_ns(spans, "StreamSocket::exs_send")
            + trace::total_ns(spans, "StreamSocket::exs_recv")),
    );
    out.insert(
        "reactor.poll_s",
        s(trace::total_ns(spans, "Reactor::poll_into")),
    );
    let mux_ns: u64 = spans
        .iter()
        .filter(|sp| sp.layer == Layer::Mux)
        .map(|sp| sp.dur_ns())
        .sum();
    out.insert("mux.api_s", s(mux_ns));
    // Turn spans on the server thread only: the client thread's
    // executor is the load generator, not the measured server.
    let server_track = rep.rx_tracks.first().copied();
    let on_server = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|sp| sp.name == name && Some(sp.track) == server_track)
            .map(|sp| sp.dur_ns())
            .sum()
    };
    let turn = on_server("Executor::turn");
    let wait = on_server("ThreadNode::wait_any");
    out.insert("aio.turn_s", s(turn));
    out.insert("aio.wait_s", s(wait));
    out.insert("aio.busy_ratio", ratio(turn as f64, (turn + wait) as f64));
    out.insert("bench.verify_s", s(trace::total_ns(spans, "bench::verify")));
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Renders `{"name": {"value": v, "unit": u}, ...}` in `order`.
pub fn metrics_json(order: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = values.get(name).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            trace::json_str(name),
            json_num(v),
            trace::json_str(unit)
        ));
    }
    out.push('}');
    out
}

/// A finite JSON number with all its digits (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
