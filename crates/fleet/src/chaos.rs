//! Seeded, deterministic fault schedules for the test floor.
//!
//! A resilience layer is only trustworthy if it can be *driven*: a
//! [`ChaosPlan`] decides — as a pure function of its seed — which
//! boards are flaky or dead, which `(board, trial)` coordinates take a
//! fault, and what kind of fault fires there ([`ScanFault`] on the
//! chain, a wedged solver, a harness panic, or a sink write failure).
//! Because every answer is derived from forked [`Rng64`] substreams
//! keyed by board and trial — never from scheduling, wall time or
//! shared mutable state — the same plan replays the same havoc under
//! any thread count and across kill/resume, which is exactly what lets
//! `verify.sh` byte-compare chaotic summaries.
//!
//! The board-level failure model:
//!
//! - **Clean** boards never take plan-derived faults (explicit
//!   injections still fire, once, as transients).
//! - **Flaky** boards take faults at attempt 0 of afflicted trials
//!   only: a retry sees a healthy fixture, so backoff-governed retry
//!   recovers them.
//! - **Dead** boards keep their fault on every attempt *and* fail
//!   every half-open re-admission probe, so the supervisor's breaker
//!   quarantines them.

use sint_jtag::fault::ScanFault;
use sint_runtime::durable::{draw_write_fault, DiskFault};
use sint_runtime::rng::Rng64;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Substream salts, so the plan's independent questions (profile,
/// per-trial fault, fault kind, scan-fault shape, disk-fault shape)
/// never alias.
const SALT_PROFILE: u64 = 0x50;
const SALT_TRIAL: u64 = 0x51;
const SALT_KIND: u64 = 0x52;
const SALT_SCAN: u64 = 0x53;
const SALT_DISK: u64 = 0x54;

/// What kind of fault a chaos coordinate injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// A [`ScanFault`] on the trial SoC's chain: the pre-session
    /// self-check must refuse the session as an infrastructure fault.
    Scan,
    /// A wedged solver: the trial runs under a zero deadline and sheds
    /// deterministically at the first cancellation poll.
    Wedge,
    /// A harness panic inside the trial job.
    Panic,
    /// The write of this trial's record into the [`crate::RecordSink`]
    /// fails once; the supervisor must spool and flush on recovery.
    /// Never counts against the board's health — the fixture is fine.
    Sink,
    /// A byte-level disk fault on the write of this trial's record: a
    /// [`DiskFault`] drawn via [`ChaosPlan::disk_fault`] (short write,
    /// torn write, or `ENOSPC`) is realised through a
    /// [`sint_runtime::durable::FaultyWriter`]. Short writes recover
    /// in-process (`write_all` retries the remainder); torn writes and
    /// `ENOSPC` surface as sink failures the supervisor spools. Like
    /// [`ChaosKind::Sink`], never counts against board health.
    Disk,
}

impl ChaosKind {
    /// Stable tag for reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ChaosKind::Scan => "scan",
            ChaosKind::Wedge => "wedge",
            ChaosKind::Panic => "panic",
            ChaosKind::Sink => "sink",
            ChaosKind::Disk => "disk",
        }
    }
}

/// A board's failure profile under the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoardProfile {
    /// Healthy fixture: no plan-derived faults.
    Clean,
    /// Transient faults — attempt 0 of afflicted trials only.
    Flaky,
    /// Persistent faults — every attempt, and every probe fails.
    Dead,
}

/// A deterministic fault schedule over a floor.
///
/// Construct with [`ChaosPlan::new`], shape with the builder methods,
/// then hand to `FleetEngine::chaos`. All queries are pure.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    seed: u64,
    flaky_rate: f64,
    dead_rate: f64,
    fault_rate: f64,
    explicit: BTreeMap<(usize, usize), ChaosKind>,
    killed: BTreeSet<usize>,
}

impl ChaosPlan {
    /// An empty plan (no faults) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            flaky_rate: 0.0,
            dead_rate: 0.0,
            fault_rate: 0.0,
            explicit: BTreeMap::new(),
            killed: BTreeSet::new(),
        }
    }

    /// Sets the board-population rates: the fraction of boards that are
    /// flaky, the fraction that are dead, and the per-trial probability
    /// that an afflicted board's trial takes a fault. All clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn rates(mut self, flaky: f64, dead: f64, per_trial: f64) -> ChaosPlan {
        self.flaky_rate = flaky.clamp(0.0, 1.0);
        self.dead_rate = dead.clamp(0.0, 1.0);
        self.fault_rate = per_trial.clamp(0.0, 1.0);
        self
    }

    /// Schedules one explicit fault at `(board, trial)` — fires exactly
    /// there regardless of the board's profile (on a non-dead board it
    /// behaves as a transient: attempt 0 only).
    #[must_use]
    pub fn inject(mut self, board: usize, trial: usize, kind: ChaosKind) -> ChaosPlan {
        self.explicit.insert((board, trial), kind);
        self
    }

    /// Marks `board` dead outright, independent of the rates — every
    /// one of its trials takes a chain scan fault, the fault persists
    /// across attempts, and its probes always fail.
    #[must_use]
    pub fn kill(mut self, board: usize) -> ChaosPlan {
        self.killed.insert(board);
        self
    }

    /// The board's failure profile — a pure function of
    /// `(plan seed, board)`.
    #[must_use]
    pub fn profile(&self, board: usize) -> BoardProfile {
        if self.killed.contains(&board) {
            return BoardProfile::Dead;
        }
        let draw = Rng64::new(self.seed).fork(SALT_PROFILE).fork(board as u64).gen_f64();
        if draw < self.dead_rate {
            BoardProfile::Dead
        } else if draw < self.dead_rate + self.flaky_rate {
            BoardProfile::Flaky
        } else {
            BoardProfile::Clean
        }
    }

    /// The fault scheduled at `(board, trial)`, if any — explicit
    /// injections first, then rate-derived faults on afflicted boards.
    #[must_use]
    pub fn fault_at(&self, board: usize, trial: usize) -> Option<ChaosKind> {
        if let Some(kind) = self.explicit.get(&(board, trial)) {
            return Some(*kind);
        }
        // An outright-killed board faults on every trial, rates or not:
        // its chain is broken for good.
        if self.killed.contains(&board) {
            return Some(ChaosKind::Scan);
        }
        if self.profile(board) == BoardProfile::Clean || self.fault_rate <= 0.0 {
            return None;
        }
        let mut lane =
            Rng64::new(self.seed).fork(SALT_TRIAL).fork(board as u64).fork(trial as u64);
        if lane.gen_f64() >= self.fault_rate {
            return None;
        }
        let mut kind =
            Rng64::new(self.seed).fork(SALT_KIND).fork(board as u64).fork(trial as u64);
        Some(match kind.gen_index(5) {
            0 => ChaosKind::Scan,
            1 => ChaosKind::Wedge,
            2 => ChaosKind::Panic,
            3 => ChaosKind::Sink,
            _ => ChaosKind::Disk,
        })
    }

    /// The concrete [`DiskFault`] a [`ChaosKind::Disk`] coordinate at
    /// `(board, trial)` injects — a pure function of
    /// `(plan seed, board, trial)`, never a rename failure (record
    /// streams are append-only; renames belong to checkpoint slots).
    #[must_use]
    pub fn disk_fault(&self, board: usize, trial: usize) -> DiskFault {
        let mut lane =
            Rng64::new(self.seed).fork(SALT_DISK).fork(board as u64).fork(trial as u64);
        draw_write_fault(&mut lane)
    }

    /// The fault injected into attempt `attempt` of `(board, trial)`.
    /// Dead boards keep their fault on every attempt; on any other
    /// board the fault is transient and clears after attempt 0 — the
    /// flaky-recovers-by-retry half of the failure model.
    #[must_use]
    pub fn fault_on_attempt(&self, board: usize, trial: usize, attempt: usize) -> Option<ChaosKind> {
        let fault = self.fault_at(board, trial)?;
        if attempt == 0 || self.profile(board) == BoardProfile::Dead {
            Some(fault)
        } else {
            None
        }
    }

    /// Whether a half-open re-admission probe of `board` comes back
    /// healthy. Dead boards never re-admit; everything else always
    /// does (their faults are transient by definition).
    #[must_use]
    pub fn probe_clears(&self, board: usize) -> bool {
        self.profile(board) != BoardProfile::Dead
    }

    /// The concrete [`ScanFault`] a [`ChaosKind::Scan`] coordinate on
    /// `board` injects — drawn deterministically from a fixed table of
    /// chain-breaking faults the self-check is proven to catch.
    #[must_use]
    pub fn scan_fault(&self, board: usize) -> ScanFault {
        let mut lane = Rng64::new(self.seed).fork(SALT_SCAN).fork(board as u64);
        match lane.gen_index(5) {
            0 => ScanFault::StuckAtZero { link: 0 },
            1 => ScanFault::StuckAtOne { link: 0 },
            2 => ScanFault::BitFlip { link: 0, period: 3 },
            3 => ScanFault::DroppedTck { period: 5 },
            _ => ScanFault::BoundaryStuck { device: 0, cell: 1, level: false },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_pure() {
        let plan = ChaosPlan::new(42).rates(0.3, 0.1, 0.5);
        for board in 0..32 {
            assert_eq!(plan.profile(board), plan.profile(board));
            for trial in 0..4 {
                assert_eq!(plan.fault_at(board, trial), plan.fault_at(board, trial));
            }
            assert_eq!(plan.scan_fault(board), plan.scan_fault(board));
        }
    }

    #[test]
    fn rates_partition_the_population() {
        let plan = ChaosPlan::new(7).rates(0.3, 0.1, 1.0);
        let mut clean = 0;
        let mut flaky = 0;
        let mut dead = 0;
        for board in 0..1000 {
            match plan.profile(board) {
                BoardProfile::Clean => clean += 1,
                BoardProfile::Flaky => flaky += 1,
                BoardProfile::Dead => dead += 1,
            }
        }
        assert!(clean > 500 && flaky > 200 && dead > 50, "{clean}/{flaky}/{dead}");
    }

    #[test]
    fn transient_faults_clear_on_retry_but_dead_faults_persist() {
        let plan = ChaosPlan::new(1)
            .inject(3, 0, ChaosKind::Scan)
            .kill(9)
            .inject(9, 0, ChaosKind::Scan);
        assert_eq!(plan.fault_on_attempt(3, 0, 0), Some(ChaosKind::Scan));
        assert_eq!(plan.fault_on_attempt(3, 0, 1), None, "transient clears");
        assert_eq!(plan.fault_on_attempt(9, 0, 2), Some(ChaosKind::Scan), "dead persists");
        assert!(plan.probe_clears(3));
        assert!(!plan.probe_clears(9));
    }

    #[test]
    fn inactive_plans_inject_nothing() {
        let plan = ChaosPlan::new(5);
        let no_per_trial_rate = ChaosPlan::new(5).rates(0.5, 0.5, 0.0);
        for board in 0..16 {
            assert_eq!(plan.profile(board), BoardProfile::Clean);
            assert_eq!(plan.fault_at(board, 0), None);
            assert_eq!(no_per_trial_rate.fault_at(board, 0), None, "no per-trial rate");
        }
    }

    #[test]
    fn chaos_kind_tags_are_stable() {
        assert_eq!(ChaosKind::Scan.kind(), "scan");
        assert_eq!(ChaosKind::Wedge.kind(), "wedge");
        assert_eq!(ChaosKind::Panic.kind(), "panic");
        assert_eq!(ChaosKind::Sink.kind(), "sink");
        assert_eq!(ChaosKind::Disk.kind(), "disk");
    }

    #[test]
    fn disk_faults_are_pure_and_never_rename_failures() {
        let plan = ChaosPlan::new(0xD15C).rates(0.5, 0.0, 1.0);
        for board in 0..64 {
            for trial in 0..4 {
                let fault = plan.disk_fault(board, trial);
                assert_eq!(fault, plan.disk_fault(board, trial));
                assert_ne!(fault, DiskFault::RenameFail);
            }
        }
    }
}
