//! # sint-fleet
//!
//! The test-floor orchestration layer of the `sint` workspace: where
//! `sint_core::campaign::Campaign` runs one batch of trials over one
//! SoC, this crate runs a **floor** — thousands of independent boards,
//! each its own SoC plus maximum-aggressor campaign — as a long-lived
//! service-shaped engine:
//!
//! - [`spec`] — the deterministic floor description: board count,
//!   per-board trial mixes derived from forked RNG substreams, and the
//!   client roster ([`ClientSpec`]) with optional wall-clock budgets.
//! - [`engine`] — [`FleetEngine`], which runs every board under a
//!   [`BoardSupervisor`] on `sint_runtime::pool::Pool::try_map`: workers
//!   claim boards from one shared cursor, chunk by checkpoint chunk, so
//!   a slow board holds up only its own worker. Panics crash one board,
//!   not the floor.
//! - **Admission control** — every client's boards run under a child of
//!   the fleet-wide [`sint_runtime::cancel::CancelToken`]: a client
//!   that exhausts its budget sheds its own remaining trials
//!   (checkpoint `Shed`/`Budget` records) while in-budget clients
//!   proceed byte-identically to running alone.
//! - [`record`] — the streaming result path: per-trial checkpoint
//!   records ([`sint_core::checkpoint::CheckpointEntry`]) flow through
//!   a [`RecordSink`] as they finish — to an incremental JSONL artifact
//!   ([`JsonlSink`]), a channel, or a tally — so a million-trial floor
//!   holds per-board counters only, never a `Vec` of outcomes.
//!   [`replay_summary`] folds a concatenated artifact back into the
//!   merged [`FleetSummary`] for end-to-end verification.
//! - [`stream`] — the pull-based consumer face: [`FleetEngine::stream`]
//!   returns an iterator of [`FleetEvent`]s over a bounded channel
//!   (backpressure, constant memory).
//! - [`checkpoint`] — board-granular kill/resume: each finished
//!   board's [`BoardSummary`] snapshots into a [`FleetCheckpoint`], in
//!   the envelope every checkpoint kind shares
//!   ([`sint_core::checkpoint::envelope`]); a resumed floor's merged
//!   summary is byte-identical to an uninterrupted run. Since
//!   the durability layer landed, snapshots persist through
//!   generation pairs ([`FleetCheckpoint::store_pair`] /
//!   [`FleetCheckpoint::load_pair`] on a
//!   [`sint_runtime::durable::GenPair`]): a crash mid-write can only
//!   lose the snapshot being written, never the last good one, and
//!   record streams are CRC-framed so a torn tail is recovered
//!   ([`replay_summary_recovered`]) instead of poisoning replay.
//! - [`supervisor`] — the fleet resilience layer: every board runs
//!   under a [`BoardSupervisor`] with backoff-governed retries
//!   ([`sint_runtime::backoff::BackoffPolicy`]), an EWMA health score
//!   separating *flaky* fixtures from *dead* ones, and a per-board
//!   circuit breaker (`Closed → Open → HalfOpen`) whose half-open
//!   probes run only the chain self-check — exhausting them
//!   quarantines the board and sheds its remaining trials with a typed
//!   [`BoardVerdict`] in the merged summary. Sink write failures spool
//!   in a bounded queue and flush on recovery.
//! - [`chaos`] — seeded deterministic fault schedules: a [`ChaosPlan`]
//!   decides, as a pure function of its seed, which boards are flaky
//!   or dead and which `(board, trial)` coordinates take a
//!   [`ChaosKind`] fault (chain scan fault, wedged solver, harness
//!   panic, sink write failure, byte-level disk fault) — so
//!   `verify.sh`'s `chaos_matrix` gate
//!   can byte-compare summaries produced *under active fault
//!   injection* across thread counts and kill/resume.
//!
//! **Determinism invariant** (locked by `scripts/verify.sh`'s
//! `fleet_determinism` gate): every board's behaviour is a pure
//! function of its id — its seed, trial mix and campaign are derived
//! from the floor spec, never from scheduling — and the merged summary
//! folds per-board counters in board-id order, so a parallel run at any
//! `SINT_THREADS` is byte-identical to the serial run.

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod record;
pub mod spec;
pub mod stream;
pub mod supervisor;

pub use chaos::{BoardProfile, ChaosKind, ChaosPlan};
pub use checkpoint::FleetCheckpoint;
pub use engine::{
    BoardSummary, ClientSummary, FleetEngine, FleetSummary, QuarantineRecord, ResilienceTotals,
};
pub use error::FleetError;
pub use record::{
    board_record, replay_summary, replay_summary_recovered, trial_record, JsonlSink, NullSink,
    RecordSink, RecoveredStream,
};
pub use spec::{BoardSpec, ClientSpec, FloorSpec};
pub use stream::{FleetEvent, FleetStream};
pub use supervisor::{
    BoardReport, BoardSupervisor, BoardVerdict, BreakerState, SupervisorConfig,
};
