//! The adaptive campaign engine (ROADMAP item 3): campaign-level fault
//! dropping, escalating read-out localization, and recency-driven
//! pattern ordering on top of [`Campaign`].
//!
//! A conventional campaign re-excites every `(victim, fault)` pair on
//! every trial of a severity or corner sweep. The adaptive engine keeps
//! a campaign-wide [`CoverageLedger`] of pairs already *detected*; each
//! trial's session truncates or skips pattern halves whose pairs are
//! all covered ([`crate::soc::Soc::run_adaptive_session`]), probes the
//! remainder at method-1 cost, and escalates to binary-search
//! localization only where a probe actually flags. A [`FaultPriority`]
//! recency clock additionally reorders the two initial-value halves so
//! the recently-failing fault classes are excited first.
//!
//! Determinism contract: trials run in fixed-size **rounds**. Every
//! trial in a round sees the ledger and priority state snapshotted at
//! the round boundary, and results are folded back in trial-index
//! order, so the summary is byte-identical at any thread count — the
//! same contract [`Campaign::run_parallel`] honours, extended to the
//! mutable ledger.

use crate::campaign::{
    Campaign, CampaignRun, CampaignStats, RoundState, Session, Trial, TrialFailure, TrialOutcome,
    TrialShed, Verdict,
};
use crate::checkpoint::{CheckpointEntry, CheckpointError};
use crate::mafm::{CoverageLedger, IntegrityFault};
use sint_interconnect::drive::DriveLevel;
use sint_runtime::json::{Json, ToJson};

/// Snapshot format version emitted by [`AdaptiveCheckpoint::to_json`].
const ADAPTIVE_CHECKPOINT_VERSION: u64 = 1;

/// Tuning knobs for the adaptive engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Trials per round. Within a round every trial sees the same
    /// ledger snapshot (so rounds bound how stale the drop decisions
    /// can be); across rounds the ledger is folded in index order.
    /// Also the checkpoint cadence of
    /// [`Campaign::run_adaptive_checkpointed`].
    pub round: usize,
    /// Whether [`FaultPriority`] reorders the two initial-value halves
    /// (most recently failing first). Disabled, halves always run
    /// `[Low, High]`.
    pub reorder: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig { round: 8, reorder: true }
    }
}

impl AdaptiveConfig {
    /// The half order the next trial runs: the `priority` clock's pick
    /// ([`FaultPriority::half_order`]) when reordering is on, the
    /// paper's `[Low, High]` otherwise.
    #[must_use]
    pub fn half_order(&self, priority: &FaultPriority) -> [DriveLevel; 2] {
        if self.reorder {
            priority.half_order()
        } else {
            [DriveLevel::Low, DriveLevel::High]
        }
    }
}

/// Recency clock over the six MA fault classes: which classes failed
/// most recently, campaign-wide. Drives the adaptive half ordering —
/// a defect that keeps producing, say, `Ng` failures puts the
/// high-initial half first on the next trial, so its single trailing
/// probe flags one half-generation earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPriority {
    /// Logical timestamp of the last detection per fault class, in
    /// [`IntegrityFault::ALL`] order (0 = never seen).
    last_hit: [u64; 6],
    /// Monotonic detection counter.
    clock: u64,
}

impl FaultPriority {
    /// A fresh clock: nothing has failed yet.
    #[must_use]
    pub fn new() -> FaultPriority {
        FaultPriority::default()
    }

    /// Records a detection of `fault` now.
    pub fn record(&mut self, fault: IntegrityFault) {
        self.clock += 1;
        self.last_hit[fault_index(fault)] = self.clock;
    }

    /// Most-recent detection timestamp among the three faults of the
    /// half starting from `initial` (0 when none has ever failed).
    #[must_use]
    fn half_recency(&self, initial: DriveLevel) -> u64 {
        IntegrityFault::covered_by_initial(initial)
            .iter()
            .map(|f| self.last_hit[fault_index(*f)])
            .max()
            .unwrap_or(0)
    }

    /// The half order the next trial should run: the half whose fault
    /// classes failed most recently first. Deterministic tie-break:
    /// `[Low, High]` (the paper's order) when the recencies are equal —
    /// in particular on a fresh clock.
    #[must_use]
    pub fn half_order(&self) -> [DriveLevel; 2] {
        if self.half_recency(DriveLevel::High) > self.half_recency(DriveLevel::Low) {
            [DriveLevel::High, DriveLevel::Low]
        } else {
            [DriveLevel::Low, DriveLevel::High]
        }
    }
}

impl ToJson for FaultPriority {
    fn to_json(&self) -> Json {
        Json::obj([
            ("clock", self.clock.to_json()),
            ("last_hit", Json::Array(self.last_hit.iter().map(|t| t.to_json()).collect())),
        ])
    }
}

/// Position of `fault` in [`IntegrityFault::ALL`].
fn fault_index(fault: IntegrityFault) -> usize {
    IntegrityFault::ALL.iter().position(|f| *f == fault).expect("ALL enumerates every fault")
}

/// Everything an adaptive batch produced: the standard campaign fields
/// plus the campaign-wide detected-pair set and the adaptive economy
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRun {
    /// Aggregate statistics over `outcomes`.
    pub stats: CampaignStats,
    /// One outcome per input trial, in input order.
    pub outcomes: Vec<TrialOutcome>,
    /// Failure details for every [`TrialOutcome::Failed`].
    pub failures: Vec<TrialFailure>,
    /// Shed details for every [`TrialOutcome::Shed`].
    pub shed: Vec<TrialShed>,
    /// Every `(victim, fault)` pair detected across the whole batch,
    /// victim-major then [`IntegrityFault::ALL`] order. This is the
    /// set the exhaustive-equivalence gate compares.
    pub detected: Vec<(usize, IntegrityFault)>,
    /// Pattern applications skipped because their pairs were already in
    /// the ledger, summed over all trials.
    pub dropped: u64,
    /// Escalation passes (probed half re-runs) spent localizing
    /// failures, summed over all trials.
    pub escalations: u64,
    /// TCKs spent across every session that ran.
    pub total_tck: u64,
}

impl ToJson for AdaptiveRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("stats", self.stats.to_json()),
            ("outcomes", Json::Array(self.outcomes.iter().map(ToJson::to_json).collect())),
            ("failures", Json::Array(self.failures.iter().map(ToJson::to_json).collect())),
            ("shed", Json::Array(self.shed.iter().map(ToJson::to_json).collect())),
            ("detected", detected_to_json(&self.detected)),
            ("dropped", self.dropped.to_json()),
            ("escalations", self.escalations.to_json()),
            ("total_tck", self.total_tck.to_json()),
        ])
    }
}

fn detected_to_json(pairs: &[(usize, IntegrityFault)]) -> Json {
    Json::Array(
        pairs
            .iter()
            .map(|(wire, fault)| {
                Json::obj([
                    ("wire", wire.to_json()),
                    ("fault", fault_index(*fault).to_json()),
                ])
            })
            .collect(),
    )
}

/// Crash-consistent snapshot of a partially-run adaptive batch: the
/// finished trial entries **plus the coverage ledger and priority
/// clock**, so a resumed run drops exactly the patterns the original
/// would have. Snapshots are taken at round boundaries only — rounds
/// are the engine's determinism unit, so resuming at one reproduces
/// the uninterrupted byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCheckpoint {
    rounds_done: usize,
    entries: Vec<CheckpointEntry>,
    ledger: CoverageLedger,
    priority: FaultPriority,
    total_tck: u64,
}

impl AdaptiveCheckpoint {
    /// An empty checkpoint for a `wires`-wide campaign.
    #[must_use]
    pub fn new(wires: usize) -> AdaptiveCheckpoint {
        AdaptiveCheckpoint {
            rounds_done: 0,
            entries: Vec::new(),
            ledger: CoverageLedger::new(wires),
            priority: FaultPriority::new(),
            total_tck: 0,
        }
    }

    /// Rounds fully folded into this snapshot.
    #[must_use]
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Finished trial entries, in index order.
    #[must_use]
    pub fn entries(&self) -> &[CheckpointEntry] {
        &self.entries
    }

    /// The campaign-wide coverage ledger as of the last round boundary.
    #[must_use]
    pub fn ledger(&self) -> &CoverageLedger {
        &self.ledger
    }

    /// TCKs spent by every session folded so far.
    #[must_use]
    pub fn total_tck(&self) -> u64 {
        self.total_tck
    }

    /// Decodes a snapshot produced by [`AdaptiveCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Json`] for malformed JSON,
    /// [`CheckpointError::Schema`] for anything that is not a version-1
    /// adaptive snapshot.
    pub fn parse(text: &str) -> Result<AdaptiveCheckpoint, CheckpointError> {
        let root = Json::parse(text).map_err(CheckpointError::Json)?;
        match root.get("version").and_then(Json::as_u64) {
            Some(ADAPTIVE_CHECKPOINT_VERSION) => {}
            Some(v) => {
                return Err(schema(format!("unsupported adaptive checkpoint version {v}")));
            }
            None => return Err(schema("missing version")),
        }
        let rounds_done = root
            .get("rounds_done")
            .and_then(Json::as_u64)
            .ok_or_else(|| schema("missing rounds_done"))? as usize;
        let total_tck = root
            .get("total_tck")
            .and_then(Json::as_u64)
            .ok_or_else(|| schema("missing total_tck"))?;
        let ledger = root
            .get("ledger")
            .and_then(CoverageLedger::from_json)
            .ok_or_else(|| schema("missing or malformed ledger"))?;
        let priority_json =
            root.get("priority").ok_or_else(|| schema("missing priority"))?;
        let clock = priority_json
            .get("clock")
            .and_then(Json::as_u64)
            .ok_or_else(|| schema("priority is missing clock"))?;
        let hits = priority_json
            .get("last_hit")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("priority is missing last_hit"))?;
        if hits.len() != 6 {
            return Err(schema("priority last_hit must have six entries"));
        }
        let mut last_hit = [0u64; 6];
        for (slot, hit) in last_hit.iter_mut().zip(hits) {
            *slot = hit.as_u64().ok_or_else(|| schema("last_hit entry is not a count"))?;
        }
        let entries_json = root
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("missing entries array"))?;
        let mut entries = Vec::with_capacity(entries_json.len());
        for entry in entries_json {
            entries.push(CheckpointEntry::from_json(entry)?);
        }
        // Snapshots are taken at round boundaries, so their entries are
        // always the batch prefix 0, 1, 2… keyed by their own index.
        if entries.iter().enumerate().any(|(i, e)| e.index != i || e.seed != i as u64) {
            return Err(schema("entries must be the index prefix 0, 1, 2…"));
        }
        Ok(AdaptiveCheckpoint {
            rounds_done,
            entries,
            ledger,
            priority: FaultPriority { last_hit, clock },
            total_tck,
        })
    }

    /// Persists the snapshot crash-consistently (staged, fsynced,
    /// renamed — see [`sint_runtime::durable::AtomicFile`]).
    ///
    /// # Errors
    ///
    /// Any I/O failure from staging, syncing or renaming.
    pub fn store_atomic(&self, path: &std::path::Path) -> std::io::Result<()> {
        let payload = self.to_json().render() + "\n";
        sint_runtime::durable::AtomicFile::write(path, payload.as_bytes())
    }
}

impl ToJson for AdaptiveCheckpoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", ADAPTIVE_CHECKPOINT_VERSION.to_json()),
            ("rounds_done", self.rounds_done.to_json()),
            ("total_tck", self.total_tck.to_json()),
            ("ledger", self.ledger.to_json()),
            ("priority", self.priority.to_json()),
            ("entries", Json::Array(self.entries.iter().map(ToJson::to_json).collect())),
        ])
    }
}

fn schema(reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Schema { reason: reason.into() }
}

/// What one successful adaptive attempt contributes to campaign state —
/// the fold half of [`Campaign::attempt`]'s return value, handed to
/// callers that keep their own ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptiveDelta {
    /// Freshly detected `(victim wire, fault)` pairs — record them into
    /// the campaign ledger so later trials can drop them.
    pub detected: Vec<(usize, IntegrityFault)>,
    /// Pattern halves skipped because their pairs were already covered.
    pub dropped: u64,
    /// Binary-search escalation passes the session had to run.
    pub escalations: u64,
}

impl AdaptiveDelta {
    /// Folds the freshly detected pairs into a campaign's coverage
    /// ledger, stamping the recency clock for every pair new to it.
    /// Callers fold deltas in trial-index order, so the ledger and clock
    /// are a pure function of the trials folded so far.
    pub fn fold_into(&self, ledger: &mut CoverageLedger, priority: &mut FaultPriority) {
        for &(victim, fault) in &self.detected {
            if ledger.record(victim, fault) {
                priority.record(fault);
            }
        }
    }
}

impl Campaign {
    /// The adaptive engine with round-boundary checkpointing and
    /// resume: the round driver over rounds of
    /// [`AdaptiveConfig::round`] trial indices.
    ///
    /// Rounds already recorded in `checkpoint` are skipped entirely —
    /// the ledger and priority clock resume from the snapshot, so the
    /// continuation drops exactly the patterns the uninterrupted run
    /// would have and the final summary is byte-identical. `sink` is
    /// invoked with the updated checkpoint after every round. Pass
    /// `AdaptiveCheckpoint::new(wires)` and a discarding sink for a
    /// fresh, uncheckpointed run.
    ///
    /// # Panics
    ///
    /// Panics when `checkpoint` does not fit this campaign and batch
    /// (see [`Campaign::adaptive_resume_point`]).
    #[must_use]
    pub fn run_adaptive_checkpointed(
        &self,
        trials: &[Trial],
        threads: usize,
        checkpoint: &mut AdaptiveCheckpoint,
        sink: impl FnMut(&AdaptiveCheckpoint),
    ) -> AdaptiveRun {
        let round = self.adaptive_config().round.max(1);
        let resume_at = self.adaptive_resume_point(trials, checkpoint).unwrap_or_else(|e| {
            panic!("adaptive checkpoint does not match this batch layout: {e}")
        });
        let remaining: Vec<usize> = (resume_at..trials.len()).collect();
        self.drive(trials, remaining.chunks(round), threads, checkpoint, sink);
        checkpoint.assemble()
    }

    /// The trial index [`Campaign::run_adaptive_checkpointed`] resumes
    /// `trials` from with `checkpoint`: the end of its last full round.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Schema`] when the snapshot does not fit this
    /// campaign and batch: its ledger tracks a different number of
    /// wires, or it does not hold exactly the entries its round counter
    /// claims.
    pub fn adaptive_resume_point(
        &self,
        trials: &[Trial],
        checkpoint: &AdaptiveCheckpoint,
    ) -> Result<usize, CheckpointError> {
        let round = self.adaptive_config().round.max(1);
        let done = checkpoint.rounds_done.min(trials.len().div_ceil(round));
        let resume_at = (done * round).min(trials.len());
        let (wires, entries) = (checkpoint.ledger.wires(), checkpoint.entries.len());
        if wires != self.wires() || entries != resume_at {
            return Err(schema(format!(
                "a {wires}-wire ledger with {entries} entries after {done} rounds does not \
                 resume a {}-wire campaign at trial {resume_at}",
                self.wires()
            )));
        }
        Ok(resume_at)
    }

    /// The exhaustive oracle with per-pattern attribution: the round
    /// driver over a single round in which every trial runs the full
    /// schedule (nothing dropped, nothing reordered) with a probe after
    /// every pattern, and detections are unioned exactly like the
    /// adaptive engine's. The equivalence gate compares this run's
    /// `detected` set against [`Campaign::run_adaptive_checkpointed`]'s.
    #[must_use]
    pub fn run_attributed(&self, trials: &[Trial], threads: usize) -> AdaptiveRun {
        let mut state = Attributed(AdaptiveCheckpoint::new(self.wires()));
        let all: Vec<usize> = (0..trials.len()).collect();
        self.drive(trials, [all], threads, &mut state, |_| {});
        state.0.assemble()
    }
}

impl AdaptiveCheckpoint {
    /// Assembles the public run summary from a fully-folded checkpoint.
    fn assemble(&self) -> AdaptiveRun {
        let run = CampaignRun::assemble(&self.entries);
        AdaptiveRun {
            stats: run.stats,
            outcomes: run.outcomes,
            failures: run.failures,
            shed: run.shed,
            detected: self.ledger.pairs(),
            dropped: self.entries.iter().map(|e| e.dropped).sum(),
            escalations: self.entries.iter().map(|e| e.escalation).sum(),
            total_tck: self.total_tck,
        }
    }
}

impl RoundState for AdaptiveCheckpoint {
    fn session(&self, config: AdaptiveConfig) -> Session<'_> {
        Session::Adaptive(&self.ledger, config.half_order(&self.priority))
    }

    fn fold(&mut self, entry: CheckpointEntry, verdict: Option<Verdict>) {
        if let Some(verdict) = verdict {
            self.total_tck += verdict.tck;
            verdict.delta.fold_into(&mut self.ledger, &mut self.priority);
        }
        self.entries.push(entry);
    }

    fn end_round(&mut self) {
        self.rounds_done += 1;
    }
}

/// [`Campaign::run_attributed`]'s state: an adaptive checkpoint whose
/// trials all run the attributed-exhaustive oracle.
struct Attributed(AdaptiveCheckpoint);

impl RoundState for Attributed {
    fn session(&self, _: AdaptiveConfig) -> Session<'_> {
        Session::Attributed
    }

    fn fold(&mut self, entry: CheckpointEntry, verdict: Option<Verdict>) {
        self.0.fold(entry, verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MethodPlanner;
    use crate::session::ObservationMethod;
    use sint_interconnect::defect::Defect;

    fn fresh_adaptive(campaign: &Campaign, trials: &[Trial], threads: usize) -> AdaptiveRun {
        let mut checkpoint = AdaptiveCheckpoint::new(campaign.wires());
        campaign.run_adaptive_checkpointed(trials, threads, &mut checkpoint, |_| {})
    }

    fn sweep_trials() -> Vec<Trial> {
        // A severity sweep: the same two defects re-presented at
        // several severities plus controls — exactly the shape where
        // fault dropping pays.
        let mut trials = Vec::new();
        for factor in [6.0, 7.0, 8.0] {
            trials.push(Trial::defective(Defect::CouplingBoost { wire: 1, factor }));
            trials.push(Trial::control());
            trials.push(Trial::defective(Defect::CouplingBoost { wire: 2, factor }));
        }
        trials
    }

    #[test]
    fn adaptive_detected_set_matches_the_exhaustive_oracle() {
        // Round size 1 folds the ledger after every trial — on a bus
        // this narrow the re-presented defects must be dropped
        // immediately for the savings to beat the escalation spent on
        // their first appearance.
        let campaign = Campaign::new(4).adaptive(AdaptiveConfig { round: 1, reorder: true });
        let trials = sweep_trials();
        let adaptive = fresh_adaptive(&campaign, &trials, 1);
        let oracle = campaign.run_attributed(&trials, 1);
        assert_eq!(adaptive.detected, oracle.detected);
        assert!(!adaptive.detected.is_empty(), "the sweep's defects must be detected");
        assert!(adaptive.stats.detected > 0, "dropped re-excitations keep their credit");
        assert_eq!(adaptive.stats.false_alarms, 0);
        assert!(adaptive.dropped > 0, "re-presented defects must be dropped");
        assert_eq!(oracle.dropped, 0, "the oracle never drops");
        assert!(
            adaptive.total_tck < oracle.total_tck,
            "dropping must save TCKs: {} vs {}",
            adaptive.total_tck,
            oracle.total_tck
        );
    }

    #[test]
    fn adaptive_summary_is_byte_identical_at_any_thread_count() {
        let campaign = Campaign::new(4);
        let trials = sweep_trials();
        let serial = fresh_adaptive(&campaign, &trials, 1).to_json().render();
        for threads in [2usize, 4, 8] {
            let parallel = fresh_adaptive(&campaign, &trials, threads).to_json().render();
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let campaign = Campaign::new(4).adaptive(AdaptiveConfig { round: 3, reorder: true });
        let trials = sweep_trials();

        let mut reference_ckpt = AdaptiveCheckpoint::new(4);
        let reference =
            campaign.run_adaptive_checkpointed(&trials, 1, &mut reference_ckpt, |_| {});

        // Kill after the first round; resume from the persisted bytes.
        let mut first_snapshot = None;
        let mut halted = AdaptiveCheckpoint::new(4);
        let _ = campaign.run_adaptive_checkpointed(&trials, 1, &mut halted, |cp| {
            if first_snapshot.is_none() {
                first_snapshot = Some(cp.to_json().render());
            }
        });
        let snapshot = first_snapshot.expect("at least one round ran");
        let mut resumed_ckpt = AdaptiveCheckpoint::parse(&snapshot).unwrap();
        assert_eq!(resumed_ckpt.rounds_done(), 1);
        assert_eq!(resumed_ckpt.entries().len(), 3);
        let resumed = campaign.run_adaptive_checkpointed(&trials, 4, &mut resumed_ckpt, |_| {});
        assert_eq!(resumed.to_json().render(), reference.to_json().render());
    }

    #[test]
    fn checkpoint_parse_rejects_malformed_snapshots() {
        assert!(matches!(
            AdaptiveCheckpoint::parse("not json"),
            Err(CheckpointError::Json(_))
        ));
        for bad in [
            r#"{"rounds_done":0}"#,
            r#"{"version":9,"rounds_done":0}"#,
            r#"{"version":1}"#,
            r#"{"version":1,"rounds_done":0,"total_tck":0,"ledger":{"wires":2},"priority":{"clock":0,"last_hit":[0,0,0,0,0,0]},"entries":[]}"#,
            r#"{"version":1,"rounds_done":0,"total_tck":0,"ledger":{"wires":2,"masks":[0,0]},"priority":{"clock":0,"last_hit":[0,0]},"entries":[]}"#,
            // Strictly increasing but not a prefix: a resume would
            // append 3, 4, 5… after 7 and duplicate index 5.
            r#"{"version":1,"rounds_done":1,"total_tck":0,"ledger":{"wires":2,"masks":[0,0]},"priority":{"clock":0,"last_hit":[0,0,0,0,0,0]},"entries":[{"index":0,"seed":0,"outcome":{"kind":"clean_pass"}},{"index":5,"seed":5,"outcome":{"kind":"clean_pass"}},{"index":7,"seed":7,"outcome":{"kind":"clean_pass"}}]}"#,
            // A prefix by index whose seed disagrees with it.
            r#"{"version":1,"rounds_done":1,"total_tck":0,"ledger":{"wires":2,"masks":[0,0]},"priority":{"clock":0,"last_hit":[0,0,0,0,0,0]},"entries":[{"index":0,"seed":3,"outcome":{"kind":"clean_pass"}}]}"#,
        ] {
            assert!(
                matches!(AdaptiveCheckpoint::parse(bad), Err(CheckpointError::Schema { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn priority_orders_recent_failures_first() {
        let mut priority = FaultPriority::new();
        assert_eq!(priority.half_order(), [DriveLevel::Low, DriveLevel::High]);
        priority.record(IntegrityFault::Ng);
        assert_eq!(priority.half_order(), [DriveLevel::High, DriveLevel::Low]);
        priority.record(IntegrityFault::Rs);
        assert_eq!(priority.half_order(), [DriveLevel::Low, DriveLevel::High]);
    }

    #[test]
    fn sabotage_and_shed_flow_through_the_adaptive_engine() {
        use std::time::Duration;
        // The control's deadline is beyond any host slowdown; the wedge
        // sheds at its own, already-expired one.
        let campaign = Campaign::new(3).deadline(Duration::from_secs(600));
        let trials = vec![Trial::control(), Trial::panicking(), Trial::wedged()];
        let run = fresh_adaptive(&campaign, &trials, 2);
        assert_eq!(run.outcomes[0], TrialOutcome::CleanPass);
        assert_eq!(run.outcomes[1], TrialOutcome::Failed);
        assert_eq!(run.outcomes[2], TrialOutcome::Shed);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.shed.len(), 1);
        assert!(run.failures[0].error.contains("injected fault"), "{}", run.failures[0].error);
    }

    #[test]
    fn planner_choice_applies_to_trial_configs() {
        let campaign = Campaign::new(8).planner(MethodPlanner::new(1.0).unwrap());
        let config = campaign.trial_session_config(Trial::control()).unwrap();
        assert_eq!(config.method, ObservationMethod::PerPattern);
        let sparse = Campaign::new(8).planner(MethodPlanner::new(0.001).unwrap());
        let config = sparse.trial_session_config(Trial::control()).unwrap();
        assert_eq!(config.method, ObservationMethod::Once);
    }
}
