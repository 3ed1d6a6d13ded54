//! `sint-runtime` — the workspace's zero-dependency execution substrate.
//!
//! Every other `sint` crate needs a handful of infrastructure services:
//! reproducible random streams for Monte-Carlo campaigns, machine-readable
//! report emission, fan-out of independent solves across cores, randomised
//! property checking, and wall-clock measurement. Pulling external crates
//! for these couples the build to a network-reachable registry — a
//! non-starter for hermetic CI — and brings far more surface than the
//! workspace uses. This crate implements exactly the needed slice, on
//! `std` alone:
//!
//! - [`rng`] — [`rng::Rng64`], a SplitMix64 generator with independent
//!   substreams ([`rng::Rng64::fork`]) so parallel campaigns stay
//!   bit-reproducible regardless of scheduling.
//! - [`json`] — [`json::Json`] value tree + [`json::ToJson`] trait with an
//!   escaping-correct, round-trip-faithful emitter for reports and
//!   artifacts.
//! - [`pool`] — a scoped-thread worker pool ([`pool::Pool`]) with two
//!   entries, both claiming items from one shared cursor:
//!   [`pool::Pool::map`] preserves input ordering deterministically and
//!   [`pool::Pool::try_map`] isolates per-job panics
//!   ([`pool::JobPanic`]) without losing sibling results.
//! - [`prop`] — a seeded mini property-test harness ([`prop::Runner`])
//!   with failing-seed reporting.
//! - [`bench`](mod@bench) — a warmup/iterate micro-benchmark harness
//!   ([`bench::Bench`]) reporting median and p95 with JSON output.
//! - [`cancel`] — a shared cancellation flag with optional wall-clock
//!   deadline ([`cancel::CancelToken`]) so no compute loop can wedge a
//!   campaign forever.
//! - [`backoff`] — deterministic retry pacing: a [`backoff::VirtualClock`]
//!   of event-driven ticks and a [`backoff::BackoffPolicy`] whose
//!   decorrelated-jitter delays are pure functions of
//!   `(seed, stream, attempt)`, so retry schedules stay reproducible
//!   across thread counts and kill/resume.
//! - [`durable`] — crash-consistent persistence:
//!   [`durable::AtomicFile`] replace-file writes, [`durable::GenPair`]
//!   generation-pair checkpoints that survive a torn overwrite of
//!   either slot, CRC-32 line framing ([`durable::frame`]) with a
//!   tail-recovery scanner ([`durable::scan_frames`]), and a disk-fault
//!   injector ([`durable::FaultyWriter`]) that realizes one drawn
//!   short/torn/`ENOSPC` fault on a byte stream.
//!
//! The policy this crate enforces: **no `sint` crate may declare an
//! external dependency.** `scripts/verify.sh` builds with
//! `CARGO_NET_OFFLINE=true` so a reintroduced dependency fails the build
//! immediately.

#![warn(missing_docs)]

pub mod backoff;
pub mod bench;
pub mod cancel;
pub mod durable;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;

pub use backoff::{BackoffPolicy, VirtualClock};
pub use bench::{Bench, BenchResult};
pub use cancel::CancelToken;
pub use durable::{AtomicFile, DiskFault, FaultyWriter, FuseWriter, GenPair};
pub use json::{Json, JsonParseError, ToJson};
pub use pool::{JobPanic, Pool};
pub use prop::Runner;
pub use rng::Rng64;
