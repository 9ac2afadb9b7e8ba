//! Spans around the benchmark's calls into each layer.
//!
//! A traced repetition records one span per call: name, layer, track,
//! host start and end, parent span and the operation id shared by a
//! message's send and its delivery. Spans stay in memory; the run
//! writes them once at the end as Chrome trace-event JSON, which
//! Perfetto and `chrome://tracing` open. A layer's self time is its
//! spans' time minus the time their child spans cover.
//!
//! Each thread keeps its own tracer, so every OS thread is its own set
//! of tracks and no lock is taken on the measured path. With tracing
//! off a span costs one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The repository layer a span's time belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `simnet` event engine, links and fabric (`SimNet::run` itself).
    Simnet,
    /// `rdma-verbs`: HCA model, sim and thread backends, CQs, memory
    /// registration.
    Verbs,
    /// `exs` protocol halves behind `StreamSocket`.
    Exs,
    /// `exs::reactor`.
    Reactor,
    /// `exs::mux`.
    Mux,
    /// `exs::aio`.
    Aio,
    /// `exs::mempool`.
    Mempool,
    /// The benchmark's own payload generation and verification.
    Bench,
    /// The benchmark's own workload logic (the `NodeApp` callbacks and task
    /// bodies outside any call into the stack).
    App,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Simnet,
        Layer::Verbs,
        Layer::Exs,
        Layer::Reactor,
        Layer::Mux,
        Layer::Aio,
        Layer::Mempool,
        Layer::Bench,
        Layer::App,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Simnet => "simnet",
            Layer::Verbs => "verbs",
            Layer::Exs => "exs",
            Layer::Reactor => "reactor",
            Layer::Mux => "mux",
            Layer::Aio => "aio",
            Layer::Mempool => "mempool",
            Layer::Bench => "bench",
            Layer::App => "app",
        }
    }
}

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The call, as `Type::method`.
    pub name: &'static str,
    /// Layer the callee belongs to.
    pub layer: Layer,
    /// Track (simulated node or OS thread) the call ran on.
    pub track: u32,
    /// Host nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// Operation id shared by one message's send and its delivery.
    pub op: Option<u64>,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Wall time not covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    track: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// An empty tracer timing against `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            track: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span at host time `t_ns` under the innermost open span.
    pub fn open_at(&mut self, layer: Layer, name: &'static str, op: Option<u64>, t_ns: u64) {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            layer,
            track: self.track,
            start_ns: t_ns,
            end_ns: t_ns,
            parent: self.stack.last().copied(),
            op,
            child_ns: 0,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span at host time `t_ns`.
    pub fn close_at(&mut self, t_ns: u64) {
        let idx = self.stack.pop().expect("close without an open span") as usize;
        let span = &mut self.spans[idx];
        span.end_ns = t_ns.max(span.start_ns);
        let dur = span.dur_ns();
        if let Some(parent) = span.parent {
            self.spans[parent as usize].child_ns += dur;
        }
    }

    /// Sets the track new spans land on.
    pub fn set_track(&mut self, track: u32) {
        self.track = track;
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Sums span self time per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_default() += s.self_ns();
    }
    out
}

/// Sums the full duration of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Sums the self time of every span called `name`.
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::self_ns)
        .sum()
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on the calling thread, timing against `epoch`.
pub fn start(epoch: Instant) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(epoch)));
    ON.with(|on| on.set(true));
}

/// Stops tracing on the calling thread and returns its tracer (`None`
/// when tracing was off).
pub fn finish() -> Option<Tracer> {
    ON.with(|on| on.set(false));
    TRACER.with(|t| t.borrow_mut().take())
}

/// True while the calling thread traces.
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Moves the calling thread's new spans onto `track`.
pub fn set_track(track: u32) {
    if enabled() {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.set_track(track);
            }
        });
    }
}

fn open(layer: Layer, name: &'static str, op: Option<u64>) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let now = t.now_ns();
            t.open_at(layer, name, op, now);
        }
    });
}

fn close() {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let now = t.now_ns();
            t.close_at(now);
        }
    });
}

/// Runs `f` inside a span when the calling thread traces.
#[inline]
pub fn span<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    span_op(layer, name, None, f)
}

/// Runs `f` inside a span carrying operation id `op`.
#[inline]
pub fn span_op<R>(layer: Layer, name: &'static str, op: Option<u64>, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    open(layer, name, op);
    let r = f();
    close();
    r
}

/// Spans from several tracers, each track named, ready to export.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Every span; `parent` indices refer to this vector.
    pub spans: Vec<Span>,
    /// Display name of each track id.
    pub tracks: BTreeMap<u32, String>,
}

impl Timeline {
    /// Appends a tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, tracer: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Names track `id`.
    pub fn name_track(&mut self, id: u32, name: impl Into<String>) {
        self.tracks.insert(id, name.into());
    }

    /// Renders Chrome trace-event JSON: one complete (`"ph":"X"`) event
    /// per span, one named track per simulated node or OS thread, and
    /// at most `limit` spans (the earliest).
    pub fn to_chrome_json(&self, limit: usize) -> String {
        let mut out = String::with_capacity(64 + self.spans.len().min(limit) * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (id, name) in &self.tracks {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{id},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                json_str(name)
            );
        }
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.track,
                json_str(s.name),
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(op) = s.op {
                let _ = write!(out, ",\"op\":{op}");
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }

    /// Writes [`Timeline::to_chrome_json`] to `path`.
    pub fn write_chrome(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(self.to_chrome_json(limit).as_bytes())?;
        file.flush()
    }
}

/// Quotes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
