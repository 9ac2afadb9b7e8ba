//! # simnet — deterministic discrete-event network simulation
//!
//! This crate is the bottom substrate of the IPDPS 2014 stream-semantics
//! reproduction. It provides:
//!
//! * a virtual nanosecond clock ([`SimTime`], [`SimDuration`]),
//! * a deterministic event scheduler ([`event::Scheduler`]) with stable
//!   FIFO ordering for simultaneous events and cancellable timers,
//! * link parameters ([`link::LinkConfig`]): bandwidth, per-packet
//!   framing, propagation delay and jitter,
//! * the fabric ([`fabric`]): every transfer crosses a flow-level
//!   max-min fair-share allocator over a two-hop (NIC + oversubscribed
//!   core) topology. Concurrent flows split capacity, a lone flow is
//!   plain serialization, and each directed node pair stays strictly
//!   FIFO (the ordering guarantee of an RDMA reliable-connected
//!   channel),
//! * a small, fast, seedable RNG ([`rng::SplitMix64`] and
//!   [`rng::Xoshiro256`]) so that every simulation run is reproducible
//!   from a single `u64` seed,
//! * an optional bounded event trace ([`trace::TraceRing`]) used by tests
//!   and debugging tools.
//!
//! The engine is intentionally single-threaded: determinism is what lets
//! the benchmark harnesses regenerate the paper's figures bit-for-bit
//! across runs. Thread-level concurrency is exercised by the separate
//! `ThreadFabric` backend in the `rdma-verbs` crate, which shares the
//! protocol state machines but not this scheduler.

#![warn(missing_docs)]

pub mod event;
pub mod fabric;
pub mod link;
pub mod rng;
pub mod time;
pub mod trace;

pub use event::{EventId, Scheduler};
pub use fabric::{FabricModel, FabricStats, FairShareConfig, FairShareFabric, FlowStats, Transfer};
pub use link::LinkConfig;
pub use rng::{SplitMix64, Xoshiro256};
pub use time::{SimDuration, SimTime};
