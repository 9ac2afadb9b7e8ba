//! End-to-end and per-layer benchmark of the EXS stream stack.
//!
//! Four workloads drive the repository's public API from the outside:
//! three on the simulated fabric (`bulk_stream`, `mux_fanin`,
//! `rpc_pingpong`) and one on the real-thread fabric (`thread_fanin`).
//! A run repeats one workload for a fixed host time. Its first
//! repetition also checks FNV digests and is not timed; every
//! repetition checks every delivered byte, and repetitions of a
//! simulated workload must agree bit for bit. A traced run alternates
//! untraced and traced repetitions and reports per-layer figures from
//! spans the workloads record around each call into the stack.

pub mod bulk;
pub mod measure;
pub mod metrics;
pub mod mux;
pub mod procfs;
pub mod rpc;
pub mod run;
pub mod simrun;
pub mod thread_fanin;
pub mod trace;

use std::time::{Duration, Instant};

/// How one repetition runs.
#[derive(Clone, Debug)]
pub struct RepMode {
    /// Fold FNV digests of every stream and compare them with
    /// `expected_digest`.
    pub digest: bool,
    /// Record spans.
    pub traced: bool,
    /// Host time after which a stalled repetition gives up; its
    /// undelivered operations count as failed.
    pub deadline: Instant,
    /// Length of the timed window (`thread_fanin`; the simulated
    /// workloads run a fixed amount of work).
    pub window: Duration,
    /// Stop after set-up: the repetition only measures `setup_s`.
    pub setup_only: bool,
}

/// The workloads, as named on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's blast over one connection (simulated).
    BulkStream,
    /// 1024 mux streams into one reactor (simulated).
    MuxFanin,
    /// 64 B request/reply latency (simulated).
    RpcPingpong,
    /// 64 connections into one aio server (real threads).
    ThreadFanin,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::BulkStream,
        Workload::MuxFanin,
        Workload::RpcPingpong,
        Workload::ThreadFanin,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkStream => "bulk_stream",
            Workload::MuxFanin => "mux_fanin",
            Workload::RpcPingpong => "rpc_pingpong",
            Workload::ThreadFanin => "thread_fanin",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads on the simulated fabric.
    pub fn simulated(self) -> bool {
        self != Workload::ThreadFanin
    }

    /// Runs one repetition.
    pub fn rep(self, seed: u64, mode: &RepMode) -> metrics::Rep {
        match self {
            Workload::BulkStream => bulk::rep(seed, mode),
            Workload::MuxFanin => mux::rep(seed, mode),
            Workload::RpcPingpong => rpc::rep(seed, mode),
            Workload::ThreadFanin => thread_fanin::rep(seed, mode),
        }
    }
}
