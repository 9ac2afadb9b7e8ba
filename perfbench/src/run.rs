//! One benchmark run: repetitions of one workload for a fixed host
//! time, folded into the reported metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::measure::{Failure, Ledger, Percentiles};
use crate::metrics::{self, json_num, median, ratio, Rep, END_TO_END, PER_LAYER};
use crate::trace::{self, json_str, Layer};
use crate::{procfs, RepMode, Workload};

/// Spans written to the Chrome trace file at most; the per-layer
/// figures use every span.
const TRACE_FILE_SPANS: usize = 300_000;

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds to keep repeating the workload.
    pub seconds: f64,
    /// Report per-layer figures from traced repetitions.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_dir: Option<PathBuf>,
}

/// What a run prints.
pub struct Outcome {
    /// No operation failed and every check held.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed over all repetitions.
    pub failed: u64,
    /// The metrics named in the benchmark's declaration, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every end-to-end figure the workload has, with its clock and
    /// sample counts, as one JSON object.
    pub report: String,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let order: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics::metrics_json(order, &self.metrics)
        )
    }
}

/// The timed window of one `thread_fanin` repetition: a twentieth of
/// the run. The protocol's direct/indirect mix settles differently from
/// window to window, so many short windows give a steadier median than
/// a few long ones.
fn window(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 20.0).clamp(0.25, 2.0))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs one repetition. A panic counts one attempted and failed
/// operation in `ledger` and yields `None`; otherwise the repetition's
/// own ledger is merged into `ledger`.
pub fn guarded(ledger: &mut Ledger, rep: impl FnOnce() -> Rep) -> Option<Rep> {
    match catch_unwind(AssertUnwindSafe(rep)) {
        Ok(rep) => {
            ledger.merge(&rep.ledger);
            Some(rep)
        }
        Err(p) => {
            trace::finish();
            ledger.attempt(1);
            ledger.fail(Failure::Panic, 1, panic_message(p.as_ref()));
            None
        }
    }
}

/// Every repetition of a simulated seed must reproduce the first bit
/// for bit, traced or not: tracing may not perturb the model. Each one
/// that differs fails all its operations.
pub fn check_determinism(reps: &[(bool, Rep)], ledger: &mut Ledger) {
    let Some(base) = reps.first().and_then(|(_, r)| r.sim.as_ref()) else {
        return;
    };
    for (i, (traced, r)) in reps.iter().enumerate().skip(1) {
        if r.sim.as_ref().map(|f| f.fingerprint()) != Some(base.fingerprint()) {
            ledger.fail(
                Failure::Nondeterminism,
                r.ops.max(1),
                format!("repetition {i} (traced: {traced}) differs from repetition 0"),
            );
        }
    }
}

/// Runs repetitions until `seconds` have passed. Repetition 0 folds
/// digests and is not timed. In a traced run the odd repetitions are
/// traced, so the first traced one comes right after repetition 0.
fn repeat(s: &Settings) -> (Vec<(bool, Rep)>, Ledger) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(s.seconds);
    // A stalled repetition gives up here; the run still ends well
    // within the harness's limit.
    let hard = start + budget + Duration::from_secs(130);
    // Reserved up front: growing this list mid-run can put it in a hole
    // a freed ring buffer left, and the next ring then extends the heap.
    // That showed as a 16 MiB jump in `peak_rss_mib` on some
    // `rpc_pingpong` runs, which repeat the most.
    let mut reps: Vec<(bool, Rep)> = Vec::with_capacity(4096);
    let mut ledger = Ledger::default();
    loop {
        let i = reps.len();
        let traced = s.trace && i % 2 == 1;
        let mode = RepMode {
            digest: i == 0,
            traced,
            deadline: hard,
            window: window(s.seconds),
            setup_only: false,
        };
        let Some(mut rep) = guarded(&mut ledger, || s.workload.rep(s.seed, &mode)) else {
            break;
        };
        eprintln!(
            "repetition {i}{}: setup {:.6} s, {} ops in {:.3} s, {:.4} Gbit/s host",
            if traced { " (traced)" } else { "" },
            rep.setup_s,
            rep.ops,
            rep.wall_s,
            rep.wall_goodput_gbps()
        );
        // Only the first traced repetition's spans are read; later ones
        // would hold memory for nothing.
        if reps.iter().any(|(_, r)| r.timeline.is_some()) {
            rep.timeline = None;
        }
        reps.push((traced, rep));
        // A traced run needs one traced repetition; its untraced
        // baseline falls back to repetition 0. An untraced run whose
        // repetition 0 outlasts the budget (`mux_fanin`) stops there.
        let enough = !s.trace || reps.iter().any(|(t, _)| *t);
        if (start.elapsed() >= budget && enough) || Instant::now() >= hard {
            break;
        }
    }
    (reps, ledger)
}

/// Set-up samples a run takes at least (full repetitions count).
const SETUP_SAMPLES: usize = 51;

/// Host seconds of repeated set-ups, topping up the full repetitions'
/// samples to [`SETUP_SAMPLES`] within about a tenth of the run. A
/// set-up that panics counts in `ledger`.
fn setup_samples(s: &Settings, reps: &[(bool, Rep)], ledger: &mut Ledger) -> Vec<f64> {
    let mut out: Vec<f64> = reps.iter().map(|(_, r)| r.setup_s).collect();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(s.seconds / 10.0);
    let mode = RepMode {
        digest: false,
        traced: false,
        deadline: start + budget + Duration::from_secs(30),
        window: Duration::ZERO,
        setup_only: true,
    };
    while out.len() < SETUP_SAMPLES && start.elapsed() < budget {
        match guarded(ledger, || s.workload.rep(s.seed, &mode)) {
            Some(rep) => out.push(rep.setup_s),
            None => break,
        }
    }
    out
}

/// Runs the workload and folds its repetitions into the outcome.
pub fn run(s: &Settings) -> Outcome {
    let (reps, mut ledger) = repeat(s);
    let mut notes: Vec<String> = Vec::new();

    check_determinism(&reps, &mut ledger);

    let untraced: Vec<&Rep> = {
        let timed: Vec<&Rep> = reps
            .iter()
            .skip(1)
            .filter(|(t, _)| !t)
            .map(|(_, r)| r)
            .collect();
        if timed.is_empty() {
            reps.iter().take(1).map(|(_, r)| r).collect()
        } else {
            timed
        }
    };
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();

    let wall_goodput = median(untraced.iter().map(|r| r.wall_goodput_gbps()).collect());
    let wall_ops = median(untraced.iter().map(|r| r.wall_ops_per_s()).collect());
    let setup_s = median(setup_samples(s, &reps, &mut ledger));
    let rss = procfs::peak_rss_mib().unwrap_or(0.0);

    // Latency and goodput on the workload's own clock.
    let mut lat_count = 0;
    let (goodput, p50, p99, p999) = match reps.first().and_then(|(_, r)| r.sim.as_ref()) {
        Some(sim) => {
            lat_count = sim.lat_ns.count;
            let us = |v: Option<u64>| v.map(|ns| ns as f64 / 1e3);
            (
                sim.goodput_gbps,
                us(sim.lat_ns.p50),
                us(sim.lat_ns.p99),
                us(sim.lat_ns.p999),
            )
        }
        None => {
            let per_rep: Vec<Percentiles> = untraced
                .iter()
                .map(|r| Percentiles::of(r.wall_lat_ns.clone()))
                .collect();
            lat_count = per_rep.iter().map(|p| p.count).min().unwrap_or(lat_count);
            let pick = |f: fn(&Percentiles) -> Option<u64>| -> Option<f64> {
                let v: Option<Vec<f64>> = per_rep
                    .iter()
                    .map(|p| f(p).map(|ns| ns as f64 / 1e3))
                    .collect();
                v.filter(|v| !v.is_empty()).map(median)
            };
            (
                wall_goodput,
                pick(|p| p.p50),
                pick(|p| p.p99),
                pick(|p| p.p999),
            )
        }
    };
    for (name, v) in [("p50", p50), ("p99", p99)] {
        if v.is_none() {
            notes.push(format!(
                "{name} refused: {lat_count} samples leave fewer than 10 beyond it"
            ));
        }
    }

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut self_times: Vec<(Layer, u64)> = Vec::new();
    if s.trace {
        out = layer_metrics(&reps, &untraced, &traced);
        if let Some(tl) = traced.first().and_then(|r| r.timeline.as_ref()) {
            let by_layer = trace::self_time_by_layer(&tl.spans);
            self_times = Layer::ALL
                .iter()
                .map(|&l| (l, by_layer.get(&l).copied().unwrap_or(0)))
                .collect();
        }
        if let (Some(dir), Some(rep)) = (&s.trace_dir, traced.first()) {
            if let Some(tl) = &rep.timeline {
                let path = dir.join(format!("{}-seed{}.trace.json", s.workload.name(), s.seed));
                match tl.write_chrome(&path, TRACE_FILE_SPANS) {
                    Ok(()) => eprintln!(
                        "trace: {} ({} spans, first {} written)",
                        path.display(),
                        tl.spans.len(),
                        tl.spans.len().min(TRACE_FILE_SPANS)
                    ),
                    Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
                }
            }
        }
    } else {
        out.insert("goodput_gbps", goodput);
        out.insert("lat_p50_us", p50.unwrap_or(0.0));
        out.insert("lat_p99_us", p99.unwrap_or(0.0));
        out.insert("setup_s", setup_s);
        out.insert("peak_rss_mib", rss);
    }

    // The report: every end-to-end figure this workload has, named by
    // its clock.
    let mut report: Vec<(&str, f64, &str)> = Vec::new();
    let w = s.workload;
    if let Some(sim) = reps.first().and_then(|(_, r)| r.sim.as_ref()) {
        if matches!(w, Workload::BulkStream | Workload::MuxFanin) {
            report.push(("sim_goodput_gbps", sim.goodput_gbps, "Gbit/s"));
        }
        if let Some(v) = p50 {
            report.push(("sim_lat_p50_us", v, "us"));
        }
        if let Some(v) = p99 {
            report.push(("sim_lat_p99_us", v, "us"));
        }
        if let (Workload::RpcPingpong, Some(v)) = (w, p999) {
            report.push(("sim_lat_p999_us", v, "us"));
        }
        if matches!(w, Workload::BulkStream | Workload::MuxFanin) {
            report.push(("sim_cpu_rx_ns_per_kib", sim.cpu_rx_ns_per_kib, "ns/KiB"));
            report.push(("sim_cpu_tx_ns_per_kib", sim.cpu_tx_ns_per_kib, "ns/KiB"));
        }
    }
    if w != Workload::RpcPingpong {
        report.push(("wall_goodput_gbps", wall_goodput, "Gbit/s"));
    }
    report.push(("wall_ops_per_s", wall_ops, "1/s"));
    if let (false, Some(v)) = (w.simulated(), p50) {
        report.push(("wall_lat_p50_us", v, "us"));
    }
    report.push(("setup_s", setup_s, "s"));
    report.push(("peak_rss_mib", rss, "MiB"));
    report.push(("fail_ratio", ledger.fail_ratio(), "ratio"));

    let correct = ledger.failed() == 0 && notes.is_empty() && ledger.attempted > 0;
    notes.extend(ledger.notes.iter().cloned());
    let mut json = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"repetitions\": {}, \
         \"ops_attempted\": {}, \"ops_failed\": {}, \"latency_samples\": {}, \"metrics\": {{",
        json_str(w.name()),
        s.seed,
        s.trace,
        reps.len(),
        ledger.attempted,
        ledger.failed(),
        lat_count
    );
    for (i, (name, v, unit)) in report.iter().enumerate() {
        let clock = if name.starts_with("sim_") {
            "sim"
        } else if matches!(*name, "fail_ratio" | "peak_rss_mib") {
            "none"
        } else {
            "wall"
        };
        json.push_str(&format!(
            "{}{}: {{\"value\": {}, \"unit\": {}, \"clock\": \"{clock}\"}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            json_num(*v),
            json_str(unit)
        ));
    }
    json.push_str("}, \"failures\": {");
    for (i, (k, v)) in ledger.by_kind.iter().enumerate() {
        json.push_str(&format!(
            "{}{}: {v}",
            if i > 0 { ", " } else { "" },
            json_str(k.name())
        ));
    }
    json.push('}');
    if !self_times.is_empty() {
        json.push_str(", \"layer_self_s\": {");
        for (i, (layer, ns)) in self_times.iter().enumerate() {
            json.push_str(&format!(
                "{}\"{}\": {}",
                if i > 0 { ", " } else { "" },
                layer.name(),
                json_num(*ns as f64 / 1e9)
            ));
        }
        json.push('}');
    }
    json.push_str(", \"notes\": [");
    json.push_str(
        &notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("]}");

    Outcome {
        correct,
        attempted: ledger.attempted,
        failed: ledger.failed(),
        metrics: out,
        report: json,
    }
}

/// Per-layer figures: counters and spans of the first traced
/// repetition, and the tracing overhead against the untraced ones.
fn layer_metrics(
    reps: &[(bool, Rep)],
    untraced: &[&Rep],
    traced: &[&Rep],
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let Some(rep) = traced
        .first()
        .copied()
        .or_else(|| reps.first().map(|(_, r)| r))
    else {
        return out;
    };
    out.extend(rep.layer.iter().map(|(k, v)| (*k, *v)));
    metrics::span_metrics(rep, &mut out);
    let per_op = |r: &&Rep| ratio(r.wall_s, r.ops as f64);
    out.insert(
        "bench.trace_overhead_ratio",
        ratio(
            median(traced.iter().map(per_op).collect()),
            median(untraced.iter().map(per_op).collect()),
        ),
    );
    out
}
