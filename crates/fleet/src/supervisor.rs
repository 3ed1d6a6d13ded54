//! Per-board supervision: circuit breaker, health scoring, backoff and
//! sink spooling.
//!
//! A [`BoardSupervisor`] wraps one board's campaign in the fleet's
//! resilience policy. Every trial attempt runs through
//! [`Campaign::attempt`], so each attempt ends in exactly one
//! of four classes — a verdict, a schedule shed, an **infrastructure
//! failure** (chain self-check refusal, harness panic, wedged solver),
//! or a plain error. Infrastructure failures drive two deterministic
//! machines:
//!
//! - **EWMA health** (`health ← α·sample + (1−α)·health`, sample 1 for
//!   a verdict, 0 for an infrastructure failure): the score that
//!   separates *flaky* fixtures (dented health, recovered by
//!   backoff-paced retry) from *dead* ones.
//! - **The circuit breaker** (`Closed → Open → HalfOpen`): after
//!   `trip_after` consecutive infrastructure failures the breaker
//!   opens, and the board stops burning attempts on a broken fixture.
//!   Half-open **probes** run only the chain self-check
//!   ([`sint_core::probe_chain`] — no bus, no solver) after a
//!   backoff-governed wait; one healthy probe closes the breaker and
//!   re-admits the board, while exhausting the probes **quarantines**
//!   it — every remaining trial is shed with
//!   [`ShedReason::Quarantined`] and the board's [`BoardVerdict`] in
//!   the merged summary is [`BoardVerdict::Dead`].
//!
//! All pacing is virtual ([`VirtualClock`] ticks, [`BackoffPolicy`]
//! delays that are pure functions of `(board seed, trial, attempt)`),
//! and all state is strictly per-board, so a supervised floor keeps
//! the fleet's byte-identical determinism across thread counts and
//! kill/resume — even mid-chaos.
//!
//! Sink hardening rides along: a failed [`RecordSink`] write (real or
//! chaos-injected) is counted, the record is spooled in a bounded
//! in-memory queue, and the backlog flushes — in trial order — on the
//! next successful write. A result-path hiccup never aborts a board.
//! [`ChaosKind::Disk`] coordinates go further than the flat
//! [`ChaosKind::Sink`] failure: the record's framed bytes are pushed
//! through a [`FaultyWriter`] carrying a concrete
//! [`sint_runtime::durable::DiskFault`], so a short write recovers
//! in-process (`write_all` retries the remainder — no sink error at
//! all) while a torn write or `ENOSPC` surfaces as a real spoolable
//! failure.

use crate::chaos::{ChaosKind, ChaosPlan};
use crate::engine::AdaptiveTotals;
use crate::error::FleetError;
use crate::record::{trial_record, RecordSink};
use crate::spec::BoardSpec;
use sint_core::adaptive::{AdaptiveDelta, FaultPriority};
use sint_core::campaign::{
    AttemptOutcome, Campaign, CampaignStats, ShedReason, Trial, TrialSabotage,
};
use sint_core::checkpoint::CheckpointEntry;
use sint_core::mafm::CoverageLedger;
use sint_core::probe_chain;
use sint_interconnect::drive::DriveLevel;
use sint_runtime::backoff::{BackoffPolicy, VirtualClock};
use sint_runtime::cancel::CancelToken;
use sint_runtime::durable::{frame, DiskFault, FaultyWriter};
use sint_runtime::json::{Json, ToJson};
use std::collections::VecDeque;
use std::io::Write;
use std::time::Duration;

/// Backoff substream used for half-open probe waits, disjoint from the
/// per-trial retry substreams (which use the trial index).
const PROBE_STREAM: u64 = 1 << 62;

/// The supervisor's knobs. The defaults are deliberately forgiving:
/// three attempts with backoff, a breaker that only trips on three
/// *consecutive* infrastructure failures, and two re-admission probes
/// before a board is declared dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Retry pacing and the per-trial attempt bound.
    pub backoff: BackoffPolicy,
    /// Consecutive infrastructure failures that open the breaker.
    pub trip_after: usize,
    /// Half-open probes before an open breaker quarantines the board.
    pub probes: usize,
    /// EWMA weight of the newest health sample, in `(0, 1]`.
    pub alpha: f64,
    /// Verdict threshold: a board finishing with `health <
    /// flaky_below` (and not quarantined) is [`BoardVerdict::Flaky`].
    /// The default of `1.0` classifies any infrastructure blemish.
    pub flaky_below: f64,
    /// Bounded record-spool capacity per board; overflow is counted as
    /// dropped, never unbounded memory.
    pub spool_limit: usize,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            backoff: BackoffPolicy::default(),
            trip_after: 3,
            probes: 2,
            alpha: 0.25,
            flaky_below: 1.0,
            spool_limit: 64,
        }
    }
}

/// The per-board circuit breaker's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation: attempts flow, failures are counted.
    #[default]
    Closed,
    /// Tripped and never re-admitted: the board is quarantined and its
    /// remaining trials shed.
    Open,
    /// Tripped, probing for re-admission with chain-only self-checks.
    HalfOpen,
}

impl BreakerState {
    /// Stable tag for reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// The supervisor's final word on one board's fixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoardVerdict {
    /// No infrastructure blemish: health stayed at 1.0.
    #[default]
    Healthy,
    /// Infrastructure failures occurred but retry/backoff recovered
    /// the board; its results stand.
    Flaky,
    /// Quarantined by the breaker (or crashed outright): the fixture
    /// cannot be trusted and its remaining trials were shed.
    Dead,
}

impl BoardVerdict {
    /// Stable tag used in JSON summaries.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            BoardVerdict::Healthy => "healthy",
            BoardVerdict::Flaky => "flaky",
            BoardVerdict::Dead => "dead",
        }
    }
}

impl ToJson for BoardVerdict {
    fn to_json(&self) -> Json {
        self.kind().to_json()
    }
}

/// Everything the supervisor observed about one board — carried in
/// [`crate::BoardSummary`], checkpointed per board (the fleet
/// checkpoint), and folded into the merged summary's verdict counts and
/// resilience totals.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardReport {
    /// The fixture verdict.
    pub verdict: BoardVerdict,
    /// Final EWMA health in `[0, 1]` (1.0 = spotless).
    pub health: f64,
    /// Extra attempts run beyond the first, across all trials.
    pub retries: u64,
    /// Attempts classified as infrastructure failures.
    pub infra_failures: u64,
    /// Times the circuit breaker opened.
    pub breaker_trips: u64,
    /// Half-open re-admission probes run.
    pub probes: u64,
    /// Trial index at which the board was quarantined, if it was.
    pub quarantined_at: Option<usize>,
    /// Final [`VirtualClock`] reading (attempts + backoff waits).
    pub ticks: u64,
    /// Record-sink write failures observed (real or injected).
    pub sink_errors: u64,
    /// Records that travelled through the in-memory spool.
    pub spooled: u64,
    /// Spooled records lost to the bound or to an unrecovered sink.
    pub dropped_records: u64,
}

impl Default for BoardReport {
    fn default() -> BoardReport {
        BoardReport {
            verdict: BoardVerdict::Healthy,
            health: 1.0,
            retries: 0,
            infra_failures: 0,
            breaker_trips: 0,
            probes: 0,
            quarantined_at: None,
            ticks: 0,
            sink_errors: 0,
            spooled: 0,
            dropped_records: 0,
        }
    }
}

impl BoardReport {
    /// The report of a board whose harness crashed outright (the pool
    /// backstop): a dead fixture with zero health.
    #[must_use]
    pub fn crashed() -> BoardReport {
        BoardReport { verdict: BoardVerdict::Dead, health: 0.0, ..BoardReport::default() }
    }

    /// Decodes a report from its [`ToJson`] rendering.
    ///
    /// # Errors
    ///
    /// [`FleetError::Schema`] when the JSON is not a report.
    pub fn from_json(json: &Json) -> Result<BoardReport, FleetError> {
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| FleetError::schema(format!("report is missing numeric {key:?}")))
        };
        let verdict = match json.get("verdict").and_then(Json::as_str) {
            Some("healthy") => BoardVerdict::Healthy,
            Some("flaky") => BoardVerdict::Flaky,
            Some("dead") => BoardVerdict::Dead,
            Some(other) => {
                return Err(FleetError::schema(format!("unknown board verdict {other:?}")));
            }
            None => return Err(FleetError::schema("report is missing its verdict")),
        };
        let health = json
            .get("health")
            .and_then(Json::as_f64)
            .ok_or_else(|| FleetError::schema("report is missing numeric \"health\""))?;
        let quarantined_at = match json.get("quarantined_at") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| FleetError::schema("quarantined_at must be a number or null"))?
                    as usize,
            ),
        };
        Ok(BoardReport {
            verdict,
            health,
            retries: field("retries")?,
            infra_failures: field("infra_failures")?,
            breaker_trips: field("breaker_trips")?,
            probes: field("probes")?,
            quarantined_at,
            ticks: field("ticks")?,
            sink_errors: field("sink_errors")?,
            spooled: field("spooled")?,
            dropped_records: field("dropped_records")?,
        })
    }
}

impl ToJson for BoardReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("verdict", self.verdict.to_json()),
            ("health", self.health.to_json()),
            ("retries", self.retries.to_json()),
            ("infra_failures", self.infra_failures.to_json()),
            ("breaker_trips", self.breaker_trips.to_json()),
            ("probes", self.probes.to_json()),
            ("quarantined_at", match self.quarantined_at {
                Some(at) => at.to_json(),
                None => Json::Null,
            }),
            ("ticks", self.ticks.to_json()),
            ("sink_errors", self.sink_errors.to_json()),
            ("spooled", self.spooled.to_json()),
            ("dropped_records", self.dropped_records.to_json()),
        ])
    }
}

/// How a chaos coordinate disrupts the write of one trial record.
#[derive(Debug, Clone, Copy)]
enum SinkDisruption {
    /// [`ChaosKind::Sink`]: the write fails flatly, once.
    Flat,
    /// [`ChaosKind::Disk`]: the record's framed bytes are pushed
    /// through a [`FaultyWriter`] carrying this concrete fault; only
    /// faults that `write_all` cannot absorb become sink failures.
    Disk(DiskFault),
}

/// Mutable per-board state: counters, the record spool, and the stats
/// the engine folds. Strictly local to one board's job — the
/// determinism invariant forbids any cross-board mutability.
struct BoardState {
    stats: CampaignStats,
    report: BoardReport,
    spool: VecDeque<CheckpointEntry>,
}

/// Wraps one floor campaign in the resilience policy; one instance is
/// shared read-only by every board job (all mutable state lives in the
/// per-board `BoardState`).
#[derive(Debug)]
pub struct BoardSupervisor<'a> {
    config: &'a SupervisorConfig,
    chaos: Option<&'a ChaosPlan>,
    campaign: &'a Campaign,
    /// The campaign chaos-wedged attempts run under: a zero deadline
    /// fires at the solver's first cancellation poll, so the wedge
    /// escapes at a deterministic step instead of a wall-clock one.
    wedged: Campaign,
    wires: usize,
    adaptive: bool,
}

impl<'a> BoardSupervisor<'a> {
    /// Builds the supervisor for one floor.
    #[must_use]
    pub fn new(
        config: &'a SupervisorConfig,
        chaos: Option<&'a ChaosPlan>,
        campaign: &'a Campaign,
        wires: usize,
    ) -> BoardSupervisor<'a> {
        BoardSupervisor {
            config,
            chaos,
            campaign,
            wedged: campaign.clone().deadline(Duration::ZERO),
            wires,
            adaptive: false,
        }
    }

    /// Switches every supervised board to the adaptive campaign engine:
    /// attempts run [`Campaign::attempt`]'s adaptive session against a
    /// per-board [`CoverageLedger`], verdicts fold their
    /// [`AdaptiveDelta`] into it, and trial records carry the
    /// `dropped` / `escalation` counters. The ledger is strictly
    /// per-board and folds serially, so determinism is untouched.
    #[must_use]
    pub fn adaptive(mut self, adaptive: bool) -> BoardSupervisor<'a> {
        self.adaptive = adaptive;
        self
    }

    fn ewma(&self, health: f64, sample: f64) -> f64 {
        let alpha = self.config.alpha.clamp(f64::EPSILON, 1.0);
        alpha * sample + (1.0 - alpha) * health
    }

    /// Runs one attempt, chaos-transformed, through
    /// [`Campaign::attempt`]. `ledger` is the board's adaptive context
    /// (coverage ledger plus the half order the priority clock picked);
    /// `None` runs the conventional exhaustive trial.
    fn attempt(
        &self,
        board: &BoardSpec,
        trial: &Trial,
        index: usize,
        attempt: usize,
        ledger: Option<(&CoverageLedger, [DriveLevel; 2])>,
    ) -> (AttemptOutcome, Option<AdaptiveDelta>) {
        let fault = match self.chaos.and_then(|c| c.fault_on_attempt(board.id, index, attempt)) {
            // Sink and disk faults hit the result path, never the
            // trial itself.
            Some(ChaosKind::Sink | ChaosKind::Disk) | None => None,
            fault => fault,
        };
        let seed = self.campaign.retry_policy().attempt_seed(index as u64, attempt);
        let (campaign, trial) = match fault {
            None => (self.campaign, *trial),
            Some(ChaosKind::Scan) => {
                let chain_fault = self.chaos.map_or(
                    sint_jtag::fault::ScanFault::StuckAtZero { link: 0 },
                    |c| c.scan_fault(board.id),
                );
                (self.campaign, Trial::chain_faulted(trial.defect, chain_fault))
            }
            Some(ChaosKind::Panic) => {
                (self.campaign, Trial { defect: trial.defect, sabotage: TrialSabotage::Panic })
            }
            Some(ChaosKind::Wedge | ChaosKind::Sink | ChaosKind::Disk) => {
                (&self.wedged, Trial { defect: trial.defect, sabotage: TrialSabotage::Wedge })
            }
        };
        match campaign.attempt(trial, seed, ledger) {
            // A chaos wedge ends as a deadline shed mechanically, but it
            // *is* an apparatus fault — reclassify so the breaker sees it.
            (AttemptOutcome::Shed(ShedReason::Deadline { step }), _)
                if matches!(fault, Some(ChaosKind::Wedge)) =>
            {
                let error =
                    format!("solver wedged: deadline exceeded (cancelled at solver step {step})");
                (AttemptOutcome::Infrastructure { error }, None)
            }
            ended => ended,
        }
    }

    /// Runs the board's whole campaign under supervision, streaming
    /// entries into `sink` (with spool-on-failure) and returning the
    /// stats the engine folds plus the board's resilience report.
    #[must_use]
    pub fn run_board(
        &self,
        board: &BoardSpec,
        trials: &[Trial],
        budget: Option<&CancelToken>,
        sink: &dyn RecordSink,
        client: &str,
    ) -> (CampaignStats, BoardReport, AdaptiveTotals) {
        let mut st = BoardState {
            stats: CampaignStats::default(),
            report: BoardReport::default(),
            spool: VecDeque::new(),
        };
        let mut clock = VirtualClock::new();
        let mut health = 1.0f64;
        let mut consecutive = 0usize;
        let mut breaker = BreakerState::Closed;
        let max_attempts = self.config.backoff.max_attempts.max(1);
        // The board's adaptive state: the coverage ledger that lets
        // later trials drop already-detected pairs, and the recency
        // clock that reorders pattern halves. Both fold serially in
        // trial order, so they never disturb determinism.
        let mut ledger = CoverageLedger::new(self.wires);
        let mut priority = FaultPriority::default();
        let mut adaptive_totals = AdaptiveTotals::default();
        let adaptive_config = self.campaign.adaptive_config();

        for (index, trial) in trials.iter().enumerate() {
            let sink_fault = self.chaos.and_then(|c| match c.fault_at(board.id, index) {
                Some(ChaosKind::Sink) => Some(SinkDisruption::Flat),
                Some(ChaosKind::Disk) => {
                    Some(SinkDisruption::Disk(c.disk_fault(board.id, index)))
                }
                _ => None,
            });
            if breaker == BreakerState::Open {
                let entry = CheckpointEntry::shed(index, ShedReason::Quarantined);
                self.emit(&mut st, board, client, sink, entry, sink_fault);
                continue;
            }
            if let Some(token) = budget {
                if token.poll_deadline() || token.is_cancelled() {
                    let entry = CheckpointEntry::shed(index, ShedReason::Budget);
                    self.emit(&mut st, board, client, sink, entry, sink_fault);
                    continue;
                }
            }

            let mut entry = None;
            let mut attempt = 0usize;
            let mut attempts_made = 0usize;
            let mut last_error = String::new();
            while attempt < max_attempts {
                let adaptive_ctx =
                    self.adaptive.then(|| (&ledger, adaptive_config.half_order(&priority)));
                let (outcome, delta) = self.attempt(board, trial, index, attempt, adaptive_ctx);
                clock.tick();
                attempts_made = attempt + 1;
                match outcome {
                    AttemptOutcome::Verdict(outcome) => {
                        health = self.ewma(health, 1.0);
                        consecutive = 0;
                        let delta = delta.unwrap_or_default();
                        delta.fold_into(&mut ledger, &mut priority);
                        adaptive_totals.absorb_entry(delta.dropped, delta.escalations);
                        entry = Some(CheckpointEntry::verdict(index, outcome, &delta));
                        break;
                    }
                    // A genuine schedule shed (budget mid-board, or a
                    // real per-trial deadline) is never retried and
                    // says nothing about the fixture.
                    AttemptOutcome::Shed(reason) => {
                        entry = Some(CheckpointEntry::shed(index, reason));
                        break;
                    }
                    // A plain error (bad config, solver divergence…)
                    // retries but never dents fixture health.
                    AttemptOutcome::Error { error } => last_error = error,
                    AttemptOutcome::Infrastructure { error } => {
                        st.report.infra_failures += 1;
                        health = self.ewma(health, 0.0);
                        consecutive += 1;
                        last_error = error;
                        if consecutive >= self.config.trip_after.max(1) {
                            st.report.breaker_trips += 1;
                            breaker = BreakerState::HalfOpen;
                            for probe in 0..self.config.probes.max(1) {
                                clock.advance(self.config.backoff.delay(
                                    board.seed,
                                    PROBE_STREAM + st.report.breaker_trips,
                                    probe + 1,
                                ));
                                st.report.probes += 1;
                                let probe_fault = match self.chaos {
                                    Some(c) if !c.probe_clears(board.id) => {
                                        Some(c.scan_fault(board.id))
                                    }
                                    _ => None,
                                };
                                if probe_chain(self.wires, probe_fault).is_ok() {
                                    breaker = BreakerState::Closed;
                                    consecutive = 0;
                                    break;
                                }
                            }
                            if breaker != BreakerState::Closed {
                                breaker = BreakerState::Open;
                                st.report.quarantined_at = Some(index);
                                entry = Some(CheckpointEntry::shed(index, ShedReason::Quarantined));
                                break;
                            }
                        }
                    }
                }
                attempt += 1;
                if attempt < max_attempts {
                    clock.advance(self.config.backoff.delay(board.seed, index as u64, attempt));
                }
            }
            st.report.retries += attempts_made.saturating_sub(1) as u64;
            let entry = entry
                .unwrap_or_else(|| CheckpointEntry::failed(index, attempts_made, last_error));
            self.emit(&mut st, board, client, sink, entry, sink_fault);
        }

        // Final backlog flush: whatever still cannot be written is lost
        // (and counted) — the spool must not outlive its board.
        while let Some(front) = st.spool.front() {
            match sink.record(board, client, front) {
                Ok(()) => {
                    st.spool.pop_front();
                }
                Err(_) => {
                    st.report.sink_errors += 1;
                    st.report.dropped_records += st.spool.len() as u64;
                    break;
                }
            }
        }

        st.report.health = health;
        st.report.ticks = clock.now();
        st.report.verdict = if st.report.quarantined_at.is_some() {
            BoardVerdict::Dead
        } else if health < self.config.flaky_below.min(1.0) {
            BoardVerdict::Flaky
        } else {
            BoardVerdict::Healthy
        };
        (st.stats, st.report, adaptive_totals)
    }

    /// Records one finished trial: fold the stats, then write through
    /// the sink with spool-on-failure. `sink_fault` simulates one
    /// injected write failure for this record — flat, or realised at
    /// the byte level through a [`FaultyWriter`].
    fn emit(
        &self,
        st: &mut BoardState,
        board: &BoardSpec,
        client: &str,
        sink: &dyn RecordSink,
        entry: CheckpointEntry,
        sink_fault: Option<SinkDisruption>,
    ) {
        st.stats.accumulate(entry.outcome);
        match sink_fault {
            None => {}
            Some(SinkDisruption::Flat) => {
                st.report.sink_errors += 1;
                spool(st, entry, self.config.spool_limit);
                return;
            }
            Some(SinkDisruption::Disk(fault)) => {
                // Realise the fault against the record's actual framed
                // bytes. `write_all` absorbs short writes by retrying
                // the remainder — only torn writes and ENOSPC survive
                // as failures. The probe writer is deterministic, so
                // the outcome is a pure function of the chaos plan.
                let mut probe = FaultyWriter::with_fault(Vec::new(), Some(fault));
                let line = frame(&trial_record(board, client, &entry).render());
                if probe.write_all(line.as_bytes()).and_then(|()| probe.write_all(b"\n")).is_err()
                {
                    st.report.sink_errors += 1;
                    spool(st, entry, self.config.spool_limit);
                    return;
                }
            }
        }
        // Flush the backlog first so the stream keeps trial order.
        while let Some(front) = st.spool.front() {
            match sink.record(board, client, front) {
                Ok(()) => {
                    st.spool.pop_front();
                }
                Err(_) => {
                    st.report.sink_errors += 1;
                    spool(st, entry, self.config.spool_limit);
                    return;
                }
            }
        }
        if sink.record(board, client, &entry).is_err() {
            st.report.sink_errors += 1;
            spool(st, entry, self.config.spool_limit);
        }
    }
}

/// Bounded spool push: overflow is dropped (newest record lost) and
/// counted, so a dead sink can never grow memory without bound.
fn spool(st: &mut BoardState, entry: CheckpointEntry, limit: usize) {
    if st.spool.len() >= limit.max(1) {
        st.report.dropped_records += 1;
    } else {
        st.spool.push_back(entry);
        st.report.spooled += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NullSink;

    #[test]
    fn report_json_round_trips() {
        let report = BoardReport {
            verdict: BoardVerdict::Dead,
            health: 0.31640625,
            retries: 5,
            infra_failures: 4,
            breaker_trips: 1,
            probes: 2,
            quarantined_at: Some(7),
            ticks: 99,
            sink_errors: 1,
            spooled: 1,
            dropped_records: 0,
        };
        let parsed = BoardReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        let healthy = BoardReport::default();
        assert_eq!(BoardReport::from_json(&healthy.to_json()).unwrap(), healthy);
    }

    #[test]
    fn report_parse_rejects_garbage() {
        for bad in [
            r#"{}"#,
            r#"{"verdict":"weird","health":1.0}"#,
            r#"{"verdict":"healthy"}"#,
            r#"{"verdict":"healthy","health":1.0,"retries":0,"infra_failures":0,"breaker_trips":0,"probes":0,"quarantined_at":"x","ticks":0,"sink_errors":0,"spooled":0,"dropped_records":0}"#,
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(
                matches!(BoardReport::from_json(&json), Err(FleetError::Schema { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(BoardVerdict::Healthy.kind(), "healthy");
        assert_eq!(BoardVerdict::Flaky.kind(), "flaky");
        assert_eq!(BoardVerdict::Dead.kind(), "dead");
        assert_eq!(BreakerState::Closed.kind(), "closed");
        assert_eq!(BreakerState::Open.kind(), "open");
        assert_eq!(BreakerState::HalfOpen.kind(), "half_open");
        assert_eq!(BreakerState::default(), BreakerState::Closed);
    }

    #[test]
    fn a_clean_board_supervises_to_a_spotless_report() {
        let config = SupervisorConfig::default();
        let campaign = Campaign::new(3);
        let supervisor = BoardSupervisor::new(&config, None, &campaign, 3);
        let board = BoardSpec { id: 0, client: 0, seed: 11 };
        let trials = [Trial::control(), Trial::control()];
        let (stats, report, adaptive) = supervisor.run_board(&board, &trials, None, &NullSink, "c");
        assert_eq!(stats.control_trials, 2);
        assert_eq!(report.verdict, BoardVerdict::Healthy);
        assert_eq!(report.health, 1.0, "EWMA of all-1 samples stays exactly 1");
        assert_eq!(report.retries, 0);
        assert_eq!(report.ticks, 2, "one tick per attempt, no backoff waits");
        assert_eq!(adaptive, AdaptiveTotals::default(), "exhaustive boards drop nothing");
    }

    #[test]
    fn an_adaptive_board_folds_its_ledger_across_trials() {
        use sint_interconnect::defect::Defect;
        let config = SupervisorConfig::default();
        let campaign = Campaign::new(3);
        let supervisor = BoardSupervisor::new(&config, None, &campaign, 3).adaptive(true);
        let board = BoardSpec { id: 0, client: 0, seed: 11 };
        // The same strong defect three times: the first trial pays for
        // escalation, later ones drop the covered pattern halves.
        let defect = Defect::CouplingBoost { wire: 1, factor: 8.0 };
        let trials = [
            Trial::defective(defect),
            Trial::defective(defect),
            Trial::defective(defect),
        ];
        let (stats, report, adaptive) = supervisor.run_board(&board, &trials, None, &NullSink, "c");
        assert_eq!(stats.detected, 3, "dropped re-excitations keep their ledger credit");
        assert_eq!(report.verdict, BoardVerdict::Healthy);
        assert!(adaptive.dropped > 0, "repeat trials must drop covered halves");
        assert!(adaptive.escalation > 0, "the first detection pays for localization");
    }
}
