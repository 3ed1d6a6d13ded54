//! Structured defect-injection campaigns.
//!
//! Wraps the build-inject-test loop behind one call so experiments
//! (detection sweeps, corner qualification, regression gates) share a
//! single code path and report format. Deterministic by construction:
//! the caller supplies the exact defect list (randomised campaigns
//! sample defects upstream, e.g. in `sint-bench`).

use crate::adaptive::{AdaptiveConfig, AdaptiveDelta};
use crate::checkpoint::{CampaignCheckpoint, CheckpointEntry};
use crate::cost::MethodPlanner;
use crate::error::CoreError;
use crate::mafm::{CoverageLedger, IntegrityFault};
use crate::session::{IntegrityReport, ObservationMethod, SessionConfig};
use crate::soc::{Soc, SocBuilder};
use crate::timing::ChainGeometry;
use sint_interconnect::defect::Defect;
use sint_interconnect::drive::DriveLevel;
use sint_interconnect::params::BusParams;
use sint_interconnect::variation::VariationSigma;
use sint_jtag::fault::ScanFault;
use sint_runtime::cancel::CancelToken;
use sint_runtime::json::{Json, ToJson};
use sint_runtime::pool::{panic_message, JobPanic, Pool};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Deliberate in-trial sabotage, for exercising the campaign engine's
/// failure-isolation path under test. Production trials use
/// [`TrialSabotage::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrialSabotage {
    /// No sabotage: the trial runs normally.
    #[default]
    None,
    /// The trial panics mid-execution, emulating an infrastructure bug
    /// in the harness rather than a signal-integrity result.
    Panic,
    /// The trial wedges: it runs a real session whose settle time is
    /// inflated a thousandfold, so a single transient takes far longer
    /// than any sane trial deadline. Requires the campaign to carry a
    /// [`Campaign::deadline`] — without one the trial refuses with
    /// [`CoreError::BadConfig`] instead of hanging the batch — and
    /// receives it already expired, so it sheds deterministically.
    Wedge,
    /// The trial's scan chain carries an injected [`ScanFault`]: the
    /// pre-session self-check must refuse the session with
    /// [`CoreError::Infrastructure`], so the fault is attributed to the
    /// test apparatus — never to the interconnect under test.
    ChainFault(ScanFault),
}

/// One campaign trial: a defect (or `None` for a healthy control) and
/// the wire whose verdict decides the outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trial {
    /// The injected defect; `None` runs a healthy control.
    pub defect: Option<Defect>,
    /// Deliberate fault injection into the *harness* (not the bus).
    pub sabotage: TrialSabotage,
}

impl Trial {
    /// A defect trial.
    #[must_use]
    pub fn defective(defect: Defect) -> Trial {
        Trial { defect: Some(defect), sabotage: TrialSabotage::None }
    }

    /// A healthy control trial.
    #[must_use]
    pub fn control() -> Trial {
        Trial { defect: None, sabotage: TrialSabotage::None }
    }

    /// A trial that panics when run — the campaign engine must isolate
    /// it and report a [`TrialFailure`] instead of crashing the batch.
    #[must_use]
    pub fn panicking() -> Trial {
        Trial { defect: None, sabotage: TrialSabotage::Panic }
    }

    /// A trial that wedges in the solver — the campaign's per-trial
    /// deadline must cut it loose as a [`TrialShed`] instead of letting
    /// it stall the batch.
    #[must_use]
    pub fn wedged() -> Trial {
        Trial { defect: None, sabotage: TrialSabotage::Wedge }
    }

    /// A trial whose scan chain is broken by `fault` — the session must
    /// refuse with [`CoreError::Infrastructure`] instead of producing an
    /// interconnect verdict. `defect` (if any) is still installed on the
    /// bus so a misattribution would be visible.
    #[must_use]
    pub fn chain_faulted(defect: Option<Defect>, fault: ScanFault) -> Trial {
        Trial { defect, sabotage: TrialSabotage::ChainFault(fault) }
    }

    /// The wire whose verdict is judged (the defect's focus, or wire 0
    /// for controls).
    #[must_use]
    fn judged_wire(&self) -> usize {
        self.defect.as_ref().map_or(0, Defect::focus_wire)
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// Defect trial: the judged wire flagged noise and/or skew.
    Detected {
        /// ND flip-flop of the judged wire.
        noise: bool,
        /// SD flip-flop of the judged wire.
        skew: bool,
    },
    /// Defect trial: the judged wire stayed clean.
    Missed,
    /// Control trial: the whole bus stayed clean.
    CleanPass,
    /// Control trial: some wire flagged — a false positive.
    FalseAlarm,
    /// The trial never produced a verdict: it panicked or returned an
    /// error on every attempt. Details live in the run's
    /// [`TrialFailure`] list.
    Failed,
    /// The trial was shed — abandoned at its deadline or never started
    /// because the campaign budget ran out. Not a verdict and not a
    /// harness failure; details live in the run's [`TrialShed`] list.
    Shed,
}

impl ToJson for TrialOutcome {
    fn to_json(&self) -> Json {
        match self {
            TrialOutcome::Detected { noise, skew } => Json::obj([
                ("kind", "detected".to_json()),
                ("noise", noise.to_json()),
                ("skew", skew.to_json()),
            ]),
            TrialOutcome::Missed => Json::obj([("kind", "missed".to_json())]),
            TrialOutcome::CleanPass => Json::obj([("kind", "clean_pass".to_json())]),
            TrialOutcome::FalseAlarm => Json::obj([("kind", "false_alarm".to_json())]),
            TrialOutcome::Failed => Json::obj([("kind", "failed".to_json())]),
            TrialOutcome::Shed => Json::obj([("kind", "shed".to_json())]),
        }
    }
}

/// Aggregate campaign statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignStats {
    /// Defect trials run.
    pub defect_trials: usize,
    /// Defect trials detected at the judged wire.
    pub detected: usize,
    /// Control trials run.
    pub control_trials: usize,
    /// Control trials with any violation.
    pub false_alarms: usize,
    /// Trials that produced no verdict (panic or error on every
    /// attempt). Excluded from both rate denominators.
    pub failed_trials: usize,
    /// Trials shed by a deadline or the campaign budget. Excluded from
    /// both rate denominators: an abandoned trial says nothing about
    /// detection.
    pub shed_trials: usize,
}

impl CampaignStats {
    /// Detection rate over defect trials (1.0 when none ran).
    #[must_use]
    fn detection_rate(&self) -> f64 {
        if self.defect_trials == 0 {
            1.0
        } else {
            self.detected as f64 / self.defect_trials as f64
        }
    }

    /// False-alarm rate over control trials (0.0 when none ran).
    #[must_use]
    pub fn false_alarm_rate(&self) -> f64 {
        if self.control_trials == 0 {
            0.0
        } else {
            self.false_alarms as f64 / self.control_trials as f64
        }
    }

    /// Aggregates a batch of outcomes into statistics.
    #[must_use]
    pub fn tally(outcomes: &[TrialOutcome]) -> CampaignStats {
        let mut stats = CampaignStats::default();
        for outcome in outcomes {
            stats.accumulate(*outcome);
        }
        stats
    }

    /// Folds one more outcome into the statistics — the streaming
    /// counterpart of [`CampaignStats::tally`], so a million-trial run
    /// never needs the outcome vector in memory.
    pub fn accumulate(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::Detected { .. } => {
                self.defect_trials += 1;
                self.detected += 1;
            }
            TrialOutcome::Missed => self.defect_trials += 1,
            TrialOutcome::CleanPass => self.control_trials += 1,
            TrialOutcome::FalseAlarm => {
                self.control_trials += 1;
                self.false_alarms += 1;
            }
            TrialOutcome::Failed => self.failed_trials += 1,
            TrialOutcome::Shed => self.shed_trials += 1,
        }
    }

    /// Adds another batch's counters into this one. Pure counter
    /// addition, so merging per-board statistics in any fixed order
    /// (the fleet engine merges in board-id order) reproduces the
    /// serial tally exactly.
    pub fn merge(&mut self, other: &CampaignStats) {
        self.defect_trials += other.defect_trials;
        self.detected += other.detected;
        self.control_trials += other.control_trials;
        self.false_alarms += other.false_alarms;
        self.failed_trials += other.failed_trials;
        self.shed_trials += other.shed_trials;
    }
}

impl ToJson for CampaignStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("defect_trials", self.defect_trials.to_json()),
            ("detected", self.detected.to_json()),
            ("control_trials", self.control_trials.to_json()),
            ("false_alarms", self.false_alarms.to_json()),
            ("failed_trials", self.failed_trials.to_json()),
            ("shed_trials", self.shed_trials.to_json()),
            ("detection_rate", self.detection_rate().to_json()),
            ("false_alarm_rate", self.false_alarm_rate().to_json()),
        ])
    }
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} detected ({:.0}%), {}/{} false alarms ({:.0}%), {} failed, {} shed",
            self.detected,
            self.defect_trials,
            100.0 * self.detection_rate(),
            self.false_alarms,
            self.control_trials,
            100.0 * self.false_alarm_rate(),
            self.failed_trials,
            self.shed_trials
        )
    }
}

/// Bounded retry for failed trials. Attempt 0 always uses the trial's
/// base seed (its index), so retry-free runs are byte-identical to the
/// historical engine; each further attempt perturbs the variation seed
/// by `seed_stride` so a die-specific pathology is not replayed
/// verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per trial (1 = no retry).
    pub max_attempts: usize,
    /// Seed perturbation added per retry attempt.
    pub seed_stride: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, seed_stride: 0x9E37_79B9_7F4A_7C15 }
    }
}

impl RetryPolicy {
    /// The variation seed of attempt `attempt` of the trial whose base
    /// seed is `base_seed`: `base_seed + attempt * seed_stride`
    /// (wrapping), so attempt 0 is the base seed itself.
    #[must_use]
    pub fn attempt_seed(&self, base_seed: u64, attempt: usize) -> u64 {
        base_seed.wrapping_add((attempt as u64).wrapping_mul(self.seed_stride))
    }
}

/// Why one trial produced no verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// Index of the trial in the batch.
    pub index: usize,
    /// Base variation seed of the trial (its index).
    pub seed: u64,
    /// Attempts made before giving up.
    pub attempts: usize,
    /// The last panic message or error rendering.
    pub error: String,
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} (seed {}) failed after {} attempt(s): {}",
            self.index, self.seed, self.attempts, self.error
        )
    }
}

impl ToJson for TrialFailure {
    fn to_json(&self) -> Json {
        Json::obj([
            ("index", self.index.to_json()),
            ("seed", self.seed.to_json()),
            ("attempts", self.attempts.to_json()),
            ("error", self.error.to_json()),
        ])
    }
}

/// Why one trial was abandoned without a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The trial's own wall-clock deadline fired mid-solve; the solver
    /// stopped cooperatively at its next cancellation check.
    Deadline {
        /// Solver timestep at which the cancellation was observed.
        step: usize,
    },
    /// The campaign budget was exhausted before the trial started.
    Budget,
    /// The trial's board was quarantined by its supervisor: consecutive
    /// infrastructure failures opened the circuit breaker and every
    /// half-open re-admission probe failed, so the remaining trials are
    /// abandoned rather than run on a dead fixture.
    Quarantined,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::Deadline { step } => {
                write!(f, "deadline exceeded (cancelled at solver step {step})")
            }
            ShedReason::Budget => f.write_str("campaign budget exhausted before start"),
            ShedReason::Quarantined => {
                f.write_str("board quarantined after failed re-admission probes")
            }
        }
    }
}

impl ToJson for ShedReason {
    fn to_json(&self) -> Json {
        match self {
            ShedReason::Deadline { step } => Json::obj([
                ("kind", "deadline".to_json()),
                ("step", step.to_json()),
            ]),
            ShedReason::Budget => Json::obj([("kind", "budget".to_json())]),
            ShedReason::Quarantined => Json::obj([("kind", "quarantined".to_json())]),
        }
    }
}

/// One trial the campaign gave up on: deadline-cancelled mid-run or
/// never started for lack of budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialShed {
    /// Index of the trial in the batch.
    pub index: usize,
    /// Base variation seed of the trial (its index).
    pub seed: u64,
    /// Why the trial was shed.
    pub reason: ShedReason,
}

impl fmt::Display for TrialShed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trial {} (seed {}) shed: {}", self.index, self.seed, self.reason)
    }
}

impl ToJson for TrialShed {
    fn to_json(&self) -> Json {
        Json::obj([
            ("index", self.index.to_json()),
            ("seed", self.seed.to_json()),
            ("reason", self.reason.to_json()),
        ])
    }
}

/// How one **single attempt** of a trial ended, with panics isolated
/// and every failure classified — the vocabulary a supervisor needs to
/// distinguish "the interconnect answered" from "the test apparatus
/// broke" from "the schedule cut it loose".
///
/// This is what [`Campaign::attempt`] returns. Every batch entry retries
/// on the same attempt and folds its endings through one round driver;
/// the entries differ only in how they partition trials into rounds.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The session ran to completion and judged the interconnect.
    Verdict(TrialOutcome),
    /// The attempt was abandoned by the schedule: deadline overrun
    /// mid-solve or budget exhausted before start. Not a failure of
    /// either the apparatus or the interconnect.
    Shed(ShedReason),
    /// The test apparatus itself failed: the pre-session chain
    /// self-check refused the session, or the harness panicked. By
    /// construction this is **never** an interconnect verdict — a
    /// supervisor retries or quarantines on it.
    Infrastructure {
        /// The diagnosis or panic message, rendered as text.
        error: String,
    },
    /// The attempt errored in a way that is neither a schedule cut nor
    /// a diagnosed infrastructure fault (bad configuration, solver
    /// divergence…).
    Error {
        /// The error, rendered as text.
        error: String,
    },
}

/// Everything a campaign batch produced: per-trial outcomes in input
/// order (failed trials hold [`TrialOutcome::Failed`], shed trials
/// [`TrialOutcome::Shed`]), structured failure and shed records, and
/// the aggregate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// Aggregate statistics over `outcomes`.
    pub stats: CampaignStats,
    /// One outcome per input trial, in input order.
    pub outcomes: Vec<TrialOutcome>,
    /// Failure details for every [`TrialOutcome::Failed`], ordered by
    /// trial index.
    pub failures: Vec<TrialFailure>,
    /// Shed details for every [`TrialOutcome::Shed`], ordered by trial
    /// index.
    pub shed: Vec<TrialShed>,
}

impl ToJson for CampaignRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("stats", self.stats.to_json()),
            ("outcomes", Json::Array(self.outcomes.iter().map(ToJson::to_json).collect())),
            ("failures", Json::Array(self.failures.iter().map(ToJson::to_json).collect())),
            ("shed", Json::Array(self.shed.iter().map(ToJson::to_json).collect())),
        ])
    }
}

impl CampaignRun {
    /// Assembles a run summary from settled entries, in index order —
    /// the one assembly every batch entry's summary comes from.
    pub(crate) fn assemble<'a>(
        entries: impl IntoIterator<Item = &'a CheckpointEntry>,
    ) -> CampaignRun {
        let mut outcomes = Vec::new();
        let mut failures = Vec::new();
        let mut shed = Vec::new();
        for entry in entries {
            outcomes.push(entry.outcome);
            failures.extend(entry.failure.clone());
            shed.extend(entry.shed);
        }
        CampaignRun { stats: CampaignStats::tally(&outcomes), outcomes, failures, shed }
    }
}

/// A defect-injection campaign over one SoC configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    wires: usize,
    bus_params: BusParams,
    config: SessionConfig,
    variation: Option<(VariationSigma, u64)>,
    retry: RetryPolicy,
    deadline: Option<Duration>,
    budget: Option<Duration>,
    panel_width: Option<usize>,
    planner: Option<MethodPlanner>,
    adaptive: AdaptiveConfig,
}

impl Campaign {
    /// A campaign on an `wires`-wide default bus with method-1 sessions.
    #[must_use]
    pub fn new(wires: usize) -> Campaign {
        Campaign {
            wires,
            bus_params: BusParams::dsm_bus(wires),
            config: SessionConfig::method(ObservationMethod::Once),
            variation: None,
            retry: RetryPolicy::default(),
            deadline: None,
            budget: None,
            panel_width: None,
            planner: None,
            adaptive: AdaptiveConfig::default(),
        }
    }

    /// Installs a cost-model method planner: every trial's observation
    /// method is chosen by [`MethodPlanner::choose`] over this
    /// campaign's chain geometry instead of the session config's fixed
    /// method. The fleet's board specs route their `defect_prior` /
    /// `tck_budget` knobs through this.
    #[must_use]
    pub fn planner(mut self, planner: MethodPlanner) -> Campaign {
        self.planner = Some(planner);
        self
    }

    /// The installed method planner, if any.
    #[must_use]
    pub fn method_planner(&self) -> Option<&MethodPlanner> {
        self.planner.as_ref()
    }

    /// Overrides the adaptive-engine configuration (round size and
    /// pattern reordering) used by [`Campaign::run_adaptive_checkpointed`]
    /// and by the fleet supervisor's adaptive boards (which fold their
    /// ledger after every trial and read only the reordering). Ignored
    /// by the exhaustive entries.
    #[must_use]
    pub fn adaptive(mut self, config: AdaptiveConfig) -> Campaign {
        self.adaptive = config;
        self
    }

    /// The active adaptive-engine configuration.
    #[must_use]
    pub fn adaptive_config(&self) -> AdaptiveConfig {
        self.adaptive
    }

    /// Interconnect width of every trial SoC.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// Overrides every trial SoC's pattern-batching width (see
    /// [`SocBuilder::panel_width`]); width 1 never solves a plan, so
    /// every pattern takes the scalar single-RHS oracle path. Default:
    /// the SoC's own default.
    #[must_use]
    pub fn panel_width(mut self, width: usize) -> Campaign {
        self.panel_width = Some(width);
        self
    }

    /// Overrides the bus parameters (e.g. a process corner).
    #[must_use]
    pub fn bus_params(mut self, params: BusParams) -> Campaign {
        self.bus_params = params;
        self
    }

    /// Overrides the session configuration.
    #[must_use]
    pub fn session(mut self, config: SessionConfig) -> Campaign {
        self.config = config;
        self
    }

    /// Adds within-die mismatch to every trial die (seed offset by the
    /// trial index, so each die differs).
    #[must_use]
    pub fn variation(mut self, sigma: VariationSigma, base_seed: u64) -> Campaign {
        self.variation = Some((sigma, base_seed));
        self
    }

    /// Overrides the retry policy for failed trials (default: none).
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Campaign {
        self.retry = policy;
        self
    }

    /// The active retry policy.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Gives every trial a wall-clock deadline: a cancellation token
    /// with this budget is installed on the trial's SoC, the solver
    /// polls it between timesteps, and an overrun trial is recorded as
    /// [`TrialShed`] with [`ShedReason::Deadline`] — never retried, and
    /// never allowed to stall its siblings.
    #[must_use]
    pub fn deadline(mut self, per_trial: Duration) -> Campaign {
        self.deadline = Some(per_trial);
        self
    }

    /// Bounds the whole batch's wall-clock: once the budget expires,
    /// trials that have not started are shed with
    /// [`ShedReason::Budget`] instead of being dispatched. Trials
    /// already in flight run to completion (or to their own deadline).
    #[must_use]
    pub fn budget(mut self, total: Duration) -> Campaign {
        self.budget = Some(total);
        self
    }

    /// Runs exactly **one attempt** of one trial, isolating panics and
    /// classifying every way it can end. This is the attempt every
    /// batch entry's bounded retry is built on, and the building block
    /// for external supervisors (the fleet's circuit breaker) that own
    /// their own retry and quarantine policy instead of using the
    /// campaign's [`RetryPolicy`].
    ///
    /// `adaptive` picks the session: `None` runs the exhaustive one,
    /// `Some((ledger, half_order))` the adaptive one against a
    /// caller-owned coverage ledger. An adaptive verdict returns its
    /// [`AdaptiveDelta`]; the caller folds it with
    /// [`AdaptiveDelta::fold_into`] before the next trial. Every other
    /// ending yields `None`: an exhaustive, shed or failed attempt
    /// contributes nothing to a ledger.
    ///
    /// `seed` is used verbatim (no attempt striding); callers that retry
    /// derive per-attempt seeds with [`RetryPolicy::attempt_seed`], which
    /// keeps attempt 0 byte-identical to the batch entries.
    #[must_use]
    pub fn attempt(
        &self,
        trial: Trial,
        seed: u64,
        adaptive: Option<(&CoverageLedger, [DriveLevel; 2])>,
    ) -> (AttemptOutcome, Option<AdaptiveDelta>) {
        let session = match adaptive {
            Some((ledger, order)) => Session::Adaptive(ledger, order),
            None => Session::Exhaustive,
        };
        match self.isolated(trial, seed, session) {
            Ok(verdict) => {
                (AttemptOutcome::Verdict(verdict.outcome), adaptive.map(|_| verdict.delta))
            }
            Err(outcome) => (outcome, None),
        }
    }

    /// The session configuration one trial runs with: the campaign's
    /// config, the wedge sabotage's inflated settle window, and the
    /// planner's method choice (when installed) applied in that order.
    pub(crate) fn trial_session_config(&self, trial: Trial) -> Result<SessionConfig, CoreError> {
        let mut config = match trial.sabotage {
            TrialSabotage::Wedge => {
                if self.deadline.is_none() {
                    return Err(CoreError::config(
                        "a wedged trial needs a per-trial deadline to escape; \
                         set Campaign::deadline",
                    ));
                }
                SessionConfig { settle_time: self.config.settle_time * 1000.0, ..self.config }
            }
            _ => self.config,
        };
        if let Some(planner) = &self.planner {
            config.method = planner.choose(ChainGeometry::new(self.wires, 0));
        }
        Ok(config)
    }

    /// Builds one trial's SoC: bus parameters, sabotage chain fault,
    /// panel width, per-die variation, the injected defect, and the
    /// per-trial deadline token.
    fn build_trial_soc(&self, trial: Trial, seed_offset: u64) -> Result<Soc, CoreError> {
        let mut builder = SocBuilder::new(self.wires).bus_params(self.bus_params.clone());
        if let TrialSabotage::ChainFault(fault) = trial.sabotage {
            builder = builder.scan_fault(fault);
        }
        if let Some(width) = self.panel_width {
            builder = builder.panel_width(width);
        }
        if let Some((sigma, base)) = self.variation {
            builder = builder.with_variation(sigma, base.wrapping_add(seed_offset));
        }
        if let Some(defect) = trial.defect {
            builder = builder.defect(defect);
        }
        let mut soc = builder.build()?;
        if let Some(per_trial) = self.deadline {
            // A wedge cannot finish inside any deadline, so its own has
            // already expired: it sheds at the solver's first poll
            // whatever the host load, and its siblings keep theirs.
            let deadline =
                if trial.sabotage == TrialSabotage::Wedge { Duration::ZERO } else { per_trial };
            soc.set_cancel_token(Some(CancelToken::with_deadline(deadline)));
        }
        Ok(soc)
    }

    /// The one per-trial session: builds the trial's SoC, runs
    /// `session` on it and judges the report.
    ///
    /// # Panics
    ///
    /// Panics when the trial carries [`TrialSabotage::Panic`]; the
    /// isolated attempt catches it.
    fn run_session(
        &self,
        trial: Trial,
        seed: u64,
        session: Session<'_>,
    ) -> Result<Verdict, CoreError> {
        if trial.sabotage == TrialSabotage::Panic {
            panic!("injected fault: sabotaged trial (TrialSabotage::Panic)");
        }
        let config = self.trial_session_config(trial)?;
        let mut soc = self.build_trial_soc(trial, seed)?;
        let (outcome, ledger) = match session {
            Session::Exhaustive => {
                let report = soc.run_integrity_test(&config)?;
                return Ok(Verdict {
                    outcome: judge(trial, &report, None),
                    delta: AdaptiveDelta::default(),
                    tck: report.tck_used,
                });
            }
            Session::Adaptive(ledger, order) => {
                (soc.run_adaptive_session(&config, ledger, order)?, Some(ledger))
            }
            Session::Attributed => (soc.run_attributed_exhaustive(&config)?, None),
        };
        Ok(Verdict {
            outcome: judge(trial, &outcome.report, ledger),
            tck: outcome.report.tck_used,
            delta: AdaptiveDelta {
                detected: outcome.detected,
                dropped: outcome.dropped,
                escalations: outcome.escalations,
            },
        })
    }

    /// One isolated attempt: the verdict, or how else the attempt ended
    /// (never [`AttemptOutcome::Verdict`]).
    fn isolated(
        &self,
        trial: Trial,
        seed: u64,
        session: Session<'_>,
    ) -> Result<Verdict, AttemptOutcome> {
        match catch_unwind(AssertUnwindSafe(|| self.run_session(trial, seed, session))) {
            Ok(Ok(verdict)) => Ok(verdict),
            Ok(Err(CoreError::DeadlineExceeded { step })) => {
                Err(AttemptOutcome::Shed(ShedReason::Deadline { step }))
            }
            Ok(Err(error @ CoreError::Infrastructure(_))) => {
                Err(AttemptOutcome::Infrastructure { error: error.to_string() })
            }
            Ok(Err(error)) => Err(AttemptOutcome::Error { error: error.to_string() }),
            // A panic is an apparatus failure by definition: the
            // harness died, the interconnect never answered.
            Err(payload) => Err(AttemptOutcome::Infrastructure { error: panic_message(&*payload) }),
        }
    }

    /// Runs trial `index` with bounded, seed-perturbed retry per the
    /// campaign's [`RetryPolicy`] on top of the isolated attempt: its
    /// verdict, or the entry of a trial that never reached one. A fired
    /// `budget` sheds the trial before it starts.
    fn attempts(
        &self,
        trial: Trial,
        index: usize,
        budget: Option<&CancelToken>,
        session: Session<'_>,
    ) -> Result<Verdict, CheckpointEntry> {
        if let Some(token) = budget {
            if token.poll_deadline() || token.is_cancelled() {
                return Err(CheckpointEntry::shed(index, ShedReason::Budget));
            }
        }
        let max_attempts = self.retry.max_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 0..max_attempts {
            match self.isolated(trial, self.retry.attempt_seed(index as u64, attempt), session) {
                Ok(verdict) => return Ok(verdict),
                // A deadline overrun is shed, never retried: re-running
                // the same trial against the same clock only repeats.
                Err(AttemptOutcome::Shed(reason)) => {
                    return Err(CheckpointEntry::shed(index, reason));
                }
                Err(AttemptOutcome::Infrastructure { error } | AttemptOutcome::Error { error }) => {
                    last_error = error;
                }
                Err(AttemptOutcome::Verdict(_)) => {
                    unreachable!("an isolated attempt returns its verdict as Ok")
                }
            }
        }
        Err(CheckpointEntry::failed(index, max_attempts, last_error))
    }

    /// Turns one settled trial into its checkpoint entry, handing back
    /// the verdict (if it reached one) for the run's state to fold.
    fn settle(
        &self,
        index: usize,
        result: Result<Result<Verdict, CheckpointEntry>, JobPanic>,
    ) -> (CheckpointEntry, Option<Verdict>) {
        match result {
            Ok(Ok(verdict)) => {
                (CheckpointEntry::verdict(index, verdict.outcome, &verdict.delta), Some(verdict))
            }
            Ok(Err(entry)) => (entry, None),
            // The per-attempt catch_unwind is the first line of
            // defence; the pool's own isolation is the backstop.
            Err(panic) => {
                let attempts = self.retry.max_attempts.max(1);
                (CheckpointEntry::failed(index, attempts, panic.message), None)
            }
        }
    }

    /// The round driver every batch entry runs on. It resumes `state`
    /// at [`Campaign::resume_point`] and runs the rest of the batch in
    /// rounds of `round` trial indices. Each round's trials run through
    /// the pool under the `kind` session `state` holds at the round
    /// boundary; their results fold into `state` in index order, and
    /// `sink` sees the state after every round. Because a trial depends
    /// only on its index and the round-boundary state, the result is
    /// byte-identical at any thread count.
    ///
    /// The campaign's own [`Campaign::budget`] (if any) bounds the
    /// batch, measured from this call.
    ///
    /// # Panics
    ///
    /// Panics when `state` does not fit this campaign and batch.
    pub(crate) fn drive(
        &self,
        trials: &[Trial],
        round: usize,
        threads: usize,
        kind: SessionKind,
        state: &mut CampaignCheckpoint,
        mut sink: impl FnMut(&CampaignCheckpoint),
    ) {
        let resume_at = self
            .resume_point(trials, state, round)
            .unwrap_or_else(|e| panic!("checkpoint does not fit this batch: {e}"));
        let remaining: Vec<usize> = (resume_at..trials.len()).collect();
        let budget = self.budget.map(CancelToken::with_deadline);
        let budget = budget.as_ref();
        let pool = Pool::new(threads);
        for round in remaining.chunks(round.max(1)) {
            let session = state.session(kind, self.adaptive);
            let results = pool.try_map(round, |_, &index| {
                self.attempts(trials[index], index, budget, session)
            });
            state.fold_round(
                round.iter().zip(results).map(|(&index, result)| self.settle(index, result)),
            );
            sink(state);
        }
    }

    /// Runs a batch of trials across `threads` workers: every trial in
    /// one round of [`Campaign::run_checkpointed`], with a fresh
    /// checkpoint and a discarding sink.
    ///
    /// Each trial's die (its variation seed) is derived from the trial
    /// *index*, and results fold in input order, so the summary is
    /// reproducible at any thread count — the determinism contract
    /// locked in by the workspace's campaign-determinism test.
    ///
    /// A trial that panics or errors is retried per the campaign's
    /// [`RetryPolicy`] and, if every attempt fails, is reported as
    /// [`TrialOutcome::Failed`] plus a [`TrialFailure`] record — one
    /// broken trial never takes down its siblings or the batch.
    #[must_use]
    pub fn run_parallel(&self, trials: &[Trial], threads: usize) -> CampaignRun {
        let mut checkpoint = CampaignCheckpoint::new(self.wires);
        self.run_checkpointed(trials, threads, &mut checkpoint, usize::MAX, |_| {})
    }
}

/// Which session a batch's trials run: the round driver's choice,
/// resolved against the round-boundary state into a [`Session`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum SessionKind {
    /// [`Session::Exhaustive`].
    Exhaustive,
    /// [`Session::Adaptive`] against the batch's own ledger.
    Adaptive,
    /// [`Session::Attributed`].
    Attributed,
}

/// Which session one trial runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Session<'a> {
    /// The conventional exhaustive session.
    Exhaustive,
    /// The ledger-driven adaptive session, halves in the given order.
    Adaptive(&'a CoverageLedger, [DriveLevel; 2]),
    /// The attributed-exhaustive oracle: the full schedule, probed
    /// after every pattern, nothing dropped.
    Attributed,
}

/// One judged trial: its verdict plus what it contributes to campaign
/// state (an empty delta for exhaustive sessions).
#[derive(Debug)]
pub(crate) struct Verdict {
    pub(crate) outcome: TrialOutcome,
    pub(crate) delta: AdaptiveDelta,
    pub(crate) tck: u64,
}

/// Judges a finished session against its trial kind: the defect's
/// focus wire for defect trials, the whole bus for controls.
///
/// A dropped re-excitation still counts: when the judged wire's pairs
/// are already in the campaign `ledger`, the defect was *previously*
/// detected and the skipped patterns would only have confirmed it, so
/// the trial is credited from the ledger — noise from any covered
/// glitch-class pair, skew from any covered skew-class pair.
fn judge(trial: Trial, report: &IntegrityReport, ledger: Option<&CoverageLedger>) -> TrialOutcome {
    if trial.defect.is_none() {
        return if report.any_violation() {
            TrialOutcome::FalseAlarm
        } else {
            TrialOutcome::CleanPass
        };
    }
    let wire = trial.judged_wire();
    let verdict = report.wire(wire);
    let (mut noise, mut skew) = (verdict.noise, verdict.skew);
    for fault in IntegrityFault::ALL {
        if ledger.is_some_and(|ledger| ledger.is_covered(wire, fault)) {
            if fault.is_skew() {
                skew = true;
            } else {
                noise = true;
            }
        }
    }
    if noise || skew {
        TrialOutcome::Detected { noise, skew }
    } else {
        TrialOutcome::Missed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(campaign: &Campaign, trial: Trial) -> TrialOutcome {
        match campaign.attempt(trial, 0, None) {
            (AttemptOutcome::Verdict(outcome), None) => outcome,
            other => panic!("expected an exhaustive verdict, got {other:?}"),
        }
    }

    #[test]
    fn control_trials_pass_on_healthy_bus() {
        let campaign = Campaign::new(3);
        let outcome = verdict(&campaign, Trial::control());
        assert_eq!(outcome, TrialOutcome::CleanPass);
    }

    #[test]
    fn severe_defects_detected() {
        let campaign = Campaign::new(3);
        let outcome =
            verdict(&campaign, Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }));
        match outcome {
            TrialOutcome::Detected { noise, .. } => assert!(noise),
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn mild_defects_missed() {
        let campaign = Campaign::new(3);
        let outcome =
            verdict(&campaign, Trial::defective(Defect::CouplingBoost { wire: 1, factor: 1.05 }));
        assert_eq!(outcome, TrialOutcome::Missed);
    }

    #[test]
    fn batch_statistics_add_up() {
        let campaign = Campaign::new(3);
        let trials = [
            Trial::control(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
            Trial::defective(Defect::CouplingBoost { wire: 0, factor: 1.01 }),
            Trial::control(),
        ];
        let run = campaign.run_parallel(&trials, 1);
        assert_eq!(run.outcomes.len(), 4);
        assert!(run.failures.is_empty());
        let stats = run.stats;
        assert_eq!(stats.defect_trials, 2);
        assert_eq!(stats.detected, 1);
        assert_eq!(stats.control_trials, 2);
        assert_eq!(stats.false_alarms, 0);
        assert_eq!(stats.failed_trials, 0);
        assert!((stats.detection_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.false_alarm_rate(), 0.0);
        let s = stats.to_string();
        assert!(s.contains("1/2 detected"), "{s}");
    }

    #[test]
    fn judged_wire_follows_defect_focus() {
        assert_eq!(Trial::control().judged_wire(), 0);
        assert_eq!(
            Trial::defective(Defect::WeakDriver { wire: 4, factor: 3.0 }).judged_wire(),
            4
        );
    }

    #[test]
    fn empty_campaign_rates() {
        let stats = CampaignStats::default();
        assert_eq!(stats.detection_rate(), 1.0);
        assert_eq!(stats.false_alarm_rate(), 0.0);
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        use sint_interconnect::variation::VariationSigma;
        let campaign = Campaign::new(3).variation(VariationSigma::typical(), 7);
        let trials: Vec<Trial> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 })
                } else {
                    Trial::control()
                }
            })
            .collect();
        let serial = campaign.run_parallel(&trials, 1);
        for threads in [2, 4] {
            let parallel = campaign.run_parallel(&trials, threads);
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn stats_and_outcomes_serialise() {
        let stats = CampaignStats {
            defect_trials: 2,
            detected: 1,
            control_trials: 1,
            false_alarms: 0,
            failed_trials: 0,
            shed_trials: 0,
        };
        let j = stats.to_json().render();
        assert!(j.contains("\"detection_rate\":0.5"), "{j}");
        assert!(j.contains("\"failed_trials\":0"), "{j}");
        assert!(j.contains("\"shed_trials\":0"), "{j}");
        let o = TrialOutcome::Detected { noise: true, skew: false }.to_json().render();
        assert_eq!(o, r#"{"kind":"detected","noise":true,"skew":false}"#);
        assert_eq!(TrialOutcome::Failed.to_json().render(), r#"{"kind":"failed"}"#);
        assert_eq!(TrialOutcome::Shed.to_json().render(), r#"{"kind":"shed"}"#);
    }

    #[test]
    fn sabotaged_trials_fail_without_sinking_the_batch() {
        let campaign = Campaign::new(3);
        let trials = [
            Trial::control(),
            Trial::panicking(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
        ];
        for threads in [1usize, 4] {
            let run = campaign.run_parallel(&trials, threads);
            assert_eq!(run.outcomes[0], TrialOutcome::CleanPass, "{threads} threads");
            assert_eq!(run.outcomes[1], TrialOutcome::Failed, "{threads} threads");
            assert!(
                matches!(run.outcomes[2], TrialOutcome::Detected { noise: true, .. }),
                "{threads} threads: {:?}",
                run.outcomes[2]
            );
            assert_eq!(run.stats.failed_trials, 1);
            assert_eq!(run.failures.len(), 1);
            let failure = &run.failures[0];
            assert_eq!(failure.index, 1);
            assert_eq!(failure.seed, 1);
            assert_eq!(failure.attempts, 1);
            assert!(failure.error.contains("injected fault"), "{}", failure.error);
            assert!(!failure.to_string().is_empty());
        }
    }

    #[test]
    fn retry_policy_bounds_attempts_and_perturbs_seeds() {
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let campaign = Campaign::new(3).retry(policy);
        // A deterministic panic fails every attempt: the engine must
        // stop at the bound and report the attempt count.
        let run = campaign.run_parallel(&[Trial::panicking()], 1);
        assert_eq!(run.failures[0].attempts, 3);
        assert_eq!(run.stats.failed_trials, 1);
        // A healthy trial under a retry policy is untouched: attempt 0
        // uses the base seed, so the outcome matches the default engine.
        let with_retry = campaign.run_parallel(&[Trial::control()], 1);
        let without = Campaign::new(3).run_parallel(&[Trial::control()], 1);
        assert_eq!(with_retry.outcomes, without.outcomes);
    }

    #[test]
    fn failed_run_serialises_failures() {
        let run = Campaign::new(3).run_parallel(&[Trial::panicking()], 1);
        let j = run.to_json().render();
        assert!(j.contains("\"failures\":["), "{j}");
        assert!(j.contains("\"attempts\":1"), "{j}");
        assert!(j.contains("injected fault"), "{j}");
        assert!(j.contains("\"shed\":[]"), "{j}");
    }

    #[test]
    fn wedged_trial_is_shed_at_its_deadline_without_stalling_siblings() {
        // The siblings' deadline is beyond any host slowdown; the wedge
        // sheds at its own, already-expired one.
        let campaign = Campaign::new(3).deadline(Duration::from_secs(600));
        let trials = [
            Trial::control(),
            Trial::wedged(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
        ];
        let run = campaign.run_parallel(&trials, 1);
        assert_eq!(run.outcomes[0], TrialOutcome::CleanPass);
        assert_eq!(run.outcomes[1], TrialOutcome::Shed);
        assert!(matches!(run.outcomes[2], TrialOutcome::Detected { .. }));
        assert_eq!(run.shed.len(), 1);
        let shed = &run.shed[0];
        assert_eq!((shed.index, shed.seed), (1, 1));
        assert!(
            matches!(shed.reason, ShedReason::Deadline { .. }),
            "wedge must die by deadline: {:?}",
            shed.reason
        );
        assert!(shed.to_string().contains("deadline"), "{shed}");
        // Shed trials stay out of the rate denominators.
        assert_eq!(run.stats.shed_trials, 1);
        assert_eq!(run.stats.defect_trials, 1);
        assert_eq!(run.stats.control_trials, 1);
        assert_eq!(run.stats.failed_trials, 0);
        assert!(run.stats.to_string().contains("1 shed"), "{}", run.stats);
    }

    #[test]
    fn wedged_trial_without_a_deadline_refuses_instead_of_hanging() {
        let run = Campaign::new(3).run_parallel(&[Trial::wedged()], 1);
        assert_eq!(run.outcomes[0], TrialOutcome::Failed);
        assert!(run.failures[0].error.contains("deadline"), "{}", run.failures[0].error);
    }

    #[test]
    fn exhausted_budget_sheds_unstarted_trials() {
        // A zero budget is already expired when the batch starts: every
        // trial is shed before dispatch, deterministically.
        let campaign = Campaign::new(3).budget(Duration::ZERO);
        let trials = [
            Trial::control(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
        ];
        for threads in [1usize, 4] {
            let run = campaign.run_parallel(&trials, threads);
            assert!(
                run.outcomes.iter().all(|o| *o == TrialOutcome::Shed),
                "{threads} threads: {:?}",
                run.outcomes
            );
            assert_eq!(run.shed.len(), 2, "{threads} threads");
            assert!(run
                .shed
                .iter()
                .all(|s| s.reason == ShedReason::Budget));
            assert_eq!(run.stats.shed_trials, 2);
            // No verdicts, so the rates fall back to their vacuous
            // defaults instead of claiming misses or false alarms.
            assert_eq!(run.stats.detection_rate(), 1.0);
            assert_eq!(run.stats.false_alarm_rate(), 0.0);
        }
    }

    #[test]
    fn generous_deadline_leaves_summaries_untouched() {
        // The determinism contract: adding a deadline no trial hits
        // must not change a single byte of the summary.
        let trials = [
            Trial::control(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
        ];
        let plain = Campaign::new(3).run_parallel(&trials, 1);
        let bounded = Campaign::new(3).deadline(Duration::from_secs(600)).run_parallel(&trials, 1);
        assert_eq!(plain.to_json().render(), bounded.to_json().render());
    }
}
