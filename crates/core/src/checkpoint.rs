//! Trial-batch checkpointing: round-boundary snapshots, byte-identical
//! resume, and the one versioned envelope every checkpoint renders in.
//!
//! Long defect-injection campaigns are exactly the runs most likely to
//! be interrupted — a killed CI job, a power cut on the test floor.
//! Every checkpointed [`Campaign`] entry (exhaustive, adaptive and the
//! attributed oracle) folds its finished trials round by round into one
//! [`CampaignCheckpoint`] and hands it to a caller-supplied sink after
//! each round; feeding the last snapshot back in resumes the batch at
//! the next round. Because every trial's behaviour is keyed to its
//! index (its variation seed) and the round-boundary state, the resumed
//! summary is byte-identical to an uninterrupted run at any thread
//! count.
//!
//! Every checkpoint kind — this crate's `campaign` and the fleet's
//! `fleet` — renders as `{"version":3,"kind":…,…}` through [`envelope`]
//! and is opened through [`open_envelope`], which refuses any other
//! version or kind by name.

use crate::adaptive::{AdaptiveConfig, AdaptiveDelta, FaultPriority};
use crate::campaign::{
    Campaign, CampaignRun, Session, SessionKind, ShedReason, Trial, TrialFailure, TrialOutcome,
    TrialShed, Verdict,
};
use crate::mafm::CoverageLedger;
use sint_runtime::json::{Json, JsonParseError, ToJson};
use std::fmt;

/// The checkpoint envelope version. Version 3 put every checkpoint kind
/// in one envelope; the per-kind schemas before it (versions 1 and 2)
/// are refused rather than resumed.
const CHECKPOINT_VERSION: u64 = 3;

/// The envelope kind of a [`CampaignCheckpoint`].
const CAMPAIGN_KIND: &str = "campaign";

/// A checkpoint document of `kind`: the envelope's version and kind,
/// then `fields` in order.
#[must_use]
pub fn envelope(kind: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut doc = Json::obj([("version", CHECKPOINT_VERSION.to_json()), ("kind", kind.to_json())]);
    for (key, value) in fields {
        doc.push(key, value);
    }
    doc
}

/// Parses a checkpoint document and returns its root object, provided
/// it is a current-version checkpoint of `kind`.
///
/// # Errors
///
/// [`CheckpointError::Json`] for malformed JSON,
/// [`CheckpointError::Schema`] for a document of another version
/// (named in the reason) or another kind.
pub fn open_envelope(text: &str, kind: &str) -> Result<Json, CheckpointError> {
    let root = Json::parse(text)?;
    match root.get("version").and_then(Json::as_u64) {
        Some(CHECKPOINT_VERSION) => {}
        Some(v) => return Err(schema(format!("unsupported {kind} checkpoint version {v}"))),
        None => return Err(schema("missing version")),
    }
    match root.get("kind").and_then(Json::as_str) {
        Some(k) if k == kind => Ok(root),
        Some(other) => Err(schema(format!("a {other:?} checkpoint is not a {kind} checkpoint"))),
        None => Err(schema("missing kind")),
    }
}

/// Errors produced while decoding a checkpoint snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The snapshot is not valid JSON.
    Json(JsonParseError),
    /// The JSON is well-formed but not a checkpoint (wrong version,
    /// missing field, wrong type), or a checkpoint that does not fit
    /// the run asked to resume from it.
    Schema {
        /// Human-readable reason.
        reason: String,
    },
}

pub(crate) fn schema(reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Schema { reason: reason.into() }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Json(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema { reason } => {
                write!(f, "checkpoint schema violation: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonParseError> for CheckpointError {
    fn from(e: JsonParseError) -> Self {
        CheckpointError::Json(e)
    }
}

/// One finished trial in a checkpoint: its trial index, the seed that
/// index implied, and its verdict or how else it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// Index of the trial in the batch.
    pub index: usize,
    /// Base variation seed the trial ran with (its index).
    pub seed: u64,
    /// The verdict ([`TrialOutcome::Failed`] when every attempt died,
    /// [`TrialOutcome::Shed`] when a deadline or the budget cut it).
    pub outcome: TrialOutcome,
    /// Failure details when `outcome` is [`TrialOutcome::Failed`].
    pub failure: Option<TrialFailure>,
    /// Shed details when `outcome` is [`TrialOutcome::Shed`]. Recorded
    /// so a resumed summary stays byte-identical to an uninterrupted
    /// one; drop the entry from the snapshot to re-run a shed trial
    /// under a fresh budget.
    pub shed: Option<TrialShed>,
    /// Patterns the adaptive engine skipped for this trial because
    /// their `(victim, fault)` pairs were already in the campaign
    /// coverage ledger. Zero for non-adaptive runs; rendered only when
    /// nonzero so exhaustive records stay byte-identical.
    pub dropped: u64,
    /// Escalation passes (extra half re-runs with mid-half probes) the
    /// adaptive engine spent localizing this trial's failures. Zero for
    /// non-adaptive runs; rendered only when nonzero.
    pub escalation: u64,
}

impl CheckpointEntry {
    /// The entry of trial `index` that reached a verdict, carrying the
    /// attempt's adaptive counters (zero for exhaustive sessions).
    #[must_use]
    pub fn verdict(index: usize, outcome: TrialOutcome, delta: &AdaptiveDelta) -> CheckpointEntry {
        CheckpointEntry {
            index,
            seed: index as u64,
            outcome,
            failure: None,
            shed: None,
            dropped: delta.dropped,
            escalation: delta.escalations,
        }
    }

    /// The entry of trial `index` whose every attempt panicked or
    /// errored; `error` is the last one.
    #[must_use]
    pub fn failed(index: usize, attempts: usize, error: String) -> CheckpointEntry {
        let seed = index as u64;
        CheckpointEntry {
            index,
            seed,
            outcome: TrialOutcome::Failed,
            failure: Some(TrialFailure { index, seed, attempts, error }),
            shed: None,
            dropped: 0,
            escalation: 0,
        }
    }

    /// The entry of trial `index`, abandoned by the schedule.
    #[must_use]
    pub fn shed(index: usize, reason: ShedReason) -> CheckpointEntry {
        let seed = index as u64;
        CheckpointEntry {
            index,
            seed,
            outcome: TrialOutcome::Shed,
            failure: None,
            shed: Some(TrialShed { index, seed, reason }),
            dropped: 0,
            escalation: 0,
        }
    }

    /// Decodes one entry from its [`ToJson`] rendering — the public
    /// inverse used by streaming consumers (the fleet's incremental
    /// JSONL artifacts embed checkpoint entries verbatim, and replay
    /// tooling parses them back through this).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Schema`] when the JSON is not an entry.
    pub fn from_json(json: &Json) -> Result<CheckpointEntry, CheckpointError> {
        parse_entry(json)
    }
}

impl ToJson for CheckpointEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("index", self.index.to_json()),
            ("seed", self.seed.to_json()),
            ("outcome", self.outcome.to_json()),
            ("failure", match &self.failure {
                Some(f) => f.to_json(),
                None => Json::Null,
            }),
            ("shed", match &self.shed {
                Some(s) => s.to_json(),
                None => Json::Null,
            }),
        ];
        // Adaptive counters render only when nonzero so exhaustive
        // records (and their goldens) stay byte-identical.
        if self.dropped != 0 {
            fields.push(("dropped", self.dropped.to_json()));
        }
        if self.escalation != 0 {
            fields.push(("escalation", self.escalation.to_json()));
        }
        Json::obj(fields)
    }
}

/// Crash-consistent snapshot of a partially-run trial batch, taken at a
/// round boundary: the finished trial entries (always the batch's index
/// prefix) plus the campaign-wide coverage ledger, priority clock and
/// TCK total, so a resumed adaptive run drops exactly the patterns the
/// original would have. Rounds are the engine's determinism unit, so
/// resuming at one reproduces the uninterrupted byte stream.
/// Exhaustive verdicts carry an empty delta, so an exhaustive run's
/// ledger stays empty.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    rounds_done: usize,
    entries: Vec<CheckpointEntry>,
    ledger: CoverageLedger,
    priority: FaultPriority,
    total_tck: u64,
}

impl CampaignCheckpoint {
    /// An empty checkpoint for a `wires`-wide campaign (a fresh,
    /// un-resumed run).
    #[must_use]
    pub fn new(wires: usize) -> CampaignCheckpoint {
        CampaignCheckpoint {
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

    /// Decodes a snapshot produced by [`CampaignCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Json`] for malformed JSON,
    /// [`CheckpointError::Schema`] for anything that is not a campaign
    /// checkpoint of the current version, including one whose entries
    /// are not the index prefix 0, 1, 2… each seeded by its index.
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, CheckpointError> {
        let root = open_envelope(text, CAMPAIGN_KIND)?;
        let count = |key: &str| {
            root.get(key).and_then(Json::as_u64).ok_or_else(|| schema(format!("missing {key}")))
        };
        let rounds_done = count("rounds_done")? as usize;
        let total_tck = count("total_tck")?;
        let ledger = root
            .get("ledger")
            .and_then(CoverageLedger::from_json)
            .ok_or_else(|| schema("missing or malformed ledger"))?;
        let priority = root.get("priority").ok_or_else(|| schema("missing priority"))?;
        let priority = FaultPriority::from_json(priority)?;
        let entries = root
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("missing entries array"))?
            .iter()
            .map(parse_entry)
            .collect::<Result<Vec<_>, _>>()?;
        if entries.iter().enumerate().any(|(i, e)| e.index != i || e.seed != i as u64) {
            return Err(schema(
                "entries must be the index prefix 0, 1, 2…, each seeded by its index",
            ));
        }
        Ok(CampaignCheckpoint { rounds_done, entries, ledger, priority, total_tck })
    }

    /// Persists the snapshot crash-consistently: the rendering is
    /// staged to a temporary sibling, fsynced, and renamed over `path`
    /// ([`sint_runtime::durable::AtomicFile`]), so a kill at any byte
    /// offset leaves either the previous snapshot or this one — never
    /// a half-written file that [`CampaignCheckpoint::parse`] rejects.
    ///
    /// # Errors
    ///
    /// Any I/O failure from staging, syncing or renaming.
    pub fn store_atomic(&self, path: &std::path::Path) -> std::io::Result<()> {
        let payload = self.to_json().render() + "\n";
        sint_runtime::durable::AtomicFile::write(path, payload.as_bytes())
    }

    /// The session every trial of the next round runs: `kind`'s, with
    /// an adaptive round reading the ledger and half order as of this
    /// round boundary.
    pub(crate) fn session(&self, kind: SessionKind, config: AdaptiveConfig) -> Session<'_> {
        match kind {
            SessionKind::Exhaustive => Session::Exhaustive,
            SessionKind::Adaptive => {
                Session::Adaptive(&self.ledger, config.half_order(&self.priority))
            }
            SessionKind::Attributed => Session::Attributed,
        }
    }

    /// Folds one round's settled trials, in index order, and closes the
    /// round.
    pub(crate) fn fold_round(
        &mut self,
        settled: impl IntoIterator<Item = (CheckpointEntry, Option<Verdict>)>,
    ) {
        for (entry, verdict) in settled {
            if let Some(verdict) = verdict {
                self.total_tck += verdict.tck;
                verdict.delta.fold_into(&mut self.ledger, &mut self.priority);
            }
            self.entries.push(entry);
        }
        self.rounds_done += 1;
    }
}

impl ToJson for CampaignCheckpoint {
    fn to_json(&self) -> Json {
        envelope(CAMPAIGN_KIND, [
            ("rounds_done", self.rounds_done.to_json()),
            ("total_tck", self.total_tck.to_json()),
            ("ledger", self.ledger.to_json()),
            ("priority", self.priority.to_json()),
            ("entries", Json::Array(self.entries.iter().map(ToJson::to_json).collect())),
        ])
    }
}

fn field_u64(entry: &Json, key: &str) -> Result<u64, CheckpointError> {
    entry
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| schema(format!("entry is missing numeric {key:?}")))
}

fn field_bool(obj: &Json, key: &str) -> Result<bool, CheckpointError> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| schema(format!("outcome is missing boolean {key:?}")))
}

fn parse_outcome(outcome: &Json) -> Result<TrialOutcome, CheckpointError> {
    let kind = outcome
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| schema("outcome is missing its kind"))?;
    Ok(match kind {
        "detected" => TrialOutcome::Detected {
            noise: field_bool(outcome, "noise")?,
            skew: field_bool(outcome, "skew")?,
        },
        "missed" => TrialOutcome::Missed,
        "clean_pass" => TrialOutcome::CleanPass,
        "false_alarm" => TrialOutcome::FalseAlarm,
        "failed" => TrialOutcome::Failed,
        "shed" => TrialOutcome::Shed,
        other => {
            return Err(schema(format!("unknown outcome kind {other:?}")));
        }
    })
}

fn parse_shed_reason(reason: &Json) -> Result<ShedReason, CheckpointError> {
    let kind = reason
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| schema("shed reason is missing its kind"))?;
    match kind {
        "deadline" => Ok(ShedReason::Deadline { step: field_u64(reason, "step")? as usize }),
        "budget" => Ok(ShedReason::Budget),
        "quarantined" => Ok(ShedReason::Quarantined),
        other => Err(schema(format!("unknown shed reason {other:?}"))),
    }
}

fn parse_entry(entry: &Json) -> Result<CheckpointEntry, CheckpointError> {
    let index = field_u64(entry, "index")? as usize;
    let seed = field_u64(entry, "seed")?;
    let outcome = parse_outcome(
        entry.get("outcome").ok_or_else(|| schema("entry has no outcome"))?,
    )?;
    let failure = match entry.get("failure") {
        None | Some(Json::Null) => None,
        Some(f) => Some(TrialFailure {
            index: field_u64(f, "index")? as usize,
            seed: field_u64(f, "seed")?,
            attempts: field_u64(f, "attempts")? as usize,
            error: f
                .get("error")
                .and_then(Json::as_str)
                .ok_or_else(|| schema("failure is missing its error text"))?
                .to_string(),
        }),
    };
    let shed = match entry.get("shed") {
        None | Some(Json::Null) => None,
        Some(s) => Some(TrialShed {
            index: field_u64(s, "index")? as usize,
            seed: field_u64(s, "seed")?,
            reason: parse_shed_reason(
                s.get("reason")
                    .ok_or_else(|| schema("shed record has no reason"))?,
            )?,
        }),
    };
    // Absent counters decode as zero: pre-adaptive records carry none.
    let dropped = match entry.get("dropped") {
        None | Some(Json::Null) => 0,
        Some(_) => field_u64(entry, "dropped")?,
    };
    let escalation = match entry.get("escalation") {
        None | Some(Json::Null) => 0,
        Some(_) => field_u64(entry, "escalation")?,
    };
    Ok(CheckpointEntry { index, seed, outcome, failure, shed, dropped, escalation })
}

impl Campaign {
    /// Runs a batch with periodic checkpointing and resume.
    ///
    /// The batch runs through the round driver in rounds of
    /// `snapshot_every` trial indices, starting after the rounds
    /// `checkpoint` already holds, and `sink` is invoked with the
    /// updated checkpoint after each round — typically to persist its
    /// [`ToJson`] rendering. The final [`CampaignRun`] is assembled from
    /// the checkpoint in index order, so a resumed run is
    /// byte-identical to an uninterrupted one at any thread count.
    ///
    /// # Panics
    ///
    /// Panics when `checkpoint` does not fit this campaign and batch in
    /// rounds of `snapshot_every` (see [`Campaign::resume_point`]).
    pub fn run_checkpointed(
        &self,
        trials: &[Trial],
        threads: usize,
        checkpoint: &mut CampaignCheckpoint,
        snapshot_every: usize,
        sink: impl FnMut(&CampaignCheckpoint),
    ) -> CampaignRun {
        self.drive(trials, snapshot_every, threads, SessionKind::Exhaustive, checkpoint, sink);
        CampaignRun::assemble(checkpoint.entries())
    }

    /// The trial index a checkpointed run over `trials`, in rounds of
    /// `round` indices, resumes from with `checkpoint`: the end of its
    /// last full round. The one resume check of every checkpointed
    /// entry: `round` is `snapshot_every` for
    /// [`Campaign::run_checkpointed`] and [`AdaptiveConfig::round`] for
    /// [`Campaign::run_adaptive_checkpointed`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Schema`] when the snapshot does not fit this
    /// campaign and batch: its ledger tracks a different number of
    /// wires, or it does not hold exactly the entries its round counter
    /// claims.
    pub fn resume_point(
        &self,
        trials: &[Trial],
        checkpoint: &CampaignCheckpoint,
        round: usize,
    ) -> Result<usize, CheckpointError> {
        let round = round.max(1);
        let done = checkpoint.rounds_done.min(trials.len().div_ceil(round));
        let resume_at = (done * round).min(trials.len());
        let (wires, entries) = (checkpoint.ledger.wires(), checkpoint.entries.len());
        if wires != self.wires() || entries != resume_at {
            return Err(schema(format!(
                "a {wires}-wire ledger with {entries} entries after {done} rounds of {round} does \
                 not resume a {}-wire campaign at trial {resume_at}",
                self.wires()
            )));
        }
        Ok(resume_at)
    }
}

/// Runs a checkpointed batch uninterrupted through `run(checkpoint,
/// threads, sink)`, which returns the rendered summary, then resumes it
/// at four threads from the parsed snapshot of every round boundary.
/// Every resumed run must render byte-identically to the uninterrupted
/// one and re-run only the rounds after its snapshot. Returns the
/// number of rounds.
#[cfg(test)]
pub(crate) fn assert_resumes_at_every_round(
    wires: usize,
    run: impl Fn(&mut CampaignCheckpoint, usize, &mut dyn FnMut(&CampaignCheckpoint)) -> String,
) -> usize {
    let mut snapshots = Vec::new();
    let mut fresh = CampaignCheckpoint::new(wires);
    let reference = run(&mut fresh, 1, &mut |cp| snapshots.push(cp.to_json().render()));
    let rounds = snapshots.len();
    for (done, snapshot) in (1..).zip(&snapshots) {
        let mut resumed = CampaignCheckpoint::parse(snapshot).expect("a snapshot parses");
        assert_eq!(resumed.rounds_done(), done);
        let mut later = 0usize;
        let summary = run(&mut resumed, 4, &mut |_| later += 1);
        assert_eq!(summary, reference, "resumed after round {done} of {rounds}");
        assert_eq!(later, rounds - done, "resumed after round {done} of {rounds}");
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use sint_interconnect::defect::Defect;

    fn trials() -> Vec<Trial> {
        vec![
            Trial::control(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
            Trial::panicking(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 1.01 }),
            Trial::control(),
        ]
    }

    fn entry(index: usize, outcome: TrialOutcome) -> CheckpointEntry {
        CheckpointEntry {
            index,
            seed: index as u64,
            outcome,
            failure: None,
            shed: None,
            dropped: 0,
            escalation: 0,
        }
    }

    /// A two-wire checkpoint document with the given entries.
    fn document(rounds_done: usize, entries: &str) -> String {
        format!(
            r#"{{"version":3,"kind":"campaign","rounds_done":{rounds_done},"total_tck":0,"ledger":{{"wires":2,"masks":[0,0]}},"priority":{{"clock":0,"last_hit":[0,0,0,0,0,0]}},"entries":[{entries}]}}"#
        )
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut ledger = CoverageLedger::new(3);
        let mut priority = FaultPriority::new();
        AdaptiveDelta { detected: vec![(1, crate::mafm::IntegrityFault::Ng)], ..Default::default() }
            .fold_into(&mut ledger, &mut priority);
        let checkpoint = CampaignCheckpoint {
            rounds_done: 2,
            entries: vec![
                CheckpointEntry {
                    dropped: 3,
                    escalation: 1,
                    ..entry(0, TrialOutcome::Detected { noise: true, skew: false })
                },
                CheckpointEntry {
                    failure: Some(TrialFailure {
                        index: 1,
                        seed: 1,
                        attempts: 2,
                        error: "injected fault: sabotaged trial".into(),
                    }),
                    ..entry(1, TrialOutcome::Failed)
                },
                CheckpointEntry {
                    shed: Some(TrialShed {
                        index: 2,
                        seed: 2,
                        reason: ShedReason::Deadline { step: 64 },
                    }),
                    ..entry(2, TrialOutcome::Shed)
                },
                CheckpointEntry {
                    shed: Some(TrialShed { index: 3, seed: 3, reason: ShedReason::Budget }),
                    ..entry(3, TrialOutcome::Shed)
                },
            ],
            ledger,
            priority,
            total_tck: 1234,
        };
        let rendered = checkpoint.to_json().render();
        assert!(rendered.starts_with(r#"{"version":3,"kind":"campaign","#), "{rendered}");
        let parsed = CampaignCheckpoint::parse(&rendered).unwrap();
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.to_json().render(), rendered, "re-rendering is stable");
    }

    #[test]
    fn parse_rejects_malformed_snapshots() {
        assert!(matches!(
            CampaignCheckpoint::parse("not json"),
            Err(CheckpointError::Json(_))
        ));
        let clean = |index: usize| {
            format!(r#"{{"index":{index},"seed":{index},"outcome":{{"kind":"clean_pass"}}}}"#)
        };
        for bad in [
            r#"{"kind":"campaign","entries":[]}"#.to_string(),
            r#"{"version":9,"kind":"campaign","entries":[]}"#.into(),
            r#"{"version":3,"entries":[]}"#.into(),
            r#"{"version":3,"kind":"campaign"}"#.into(),
            document(0, r#"{"index":0}"#),
            document(0, r#"{"index":0,"seed":0,"outcome":{"kind":"nope"},"failure":null}"#),
            document(
                0,
                r#"{"index":0,"seed":0,"outcome":{"kind":"shed"},"failure":null,"shed":{"index":0,"seed":0,"reason":{"kind":"nope"}}}"#,
            ),
            document(0, "").replace(r#""masks":[0,0]"#, r#""masks":[0]"#),
            document(0, "").replace("[0,0,0,0,0,0]", "[0,0]"),
            document(0, "").replace(r#""total_tck":0,"#, ""),
            // Strictly increasing but not a prefix: a resume would
            // append 3, 4, 5… after 7 and duplicate index 5.
            document(1, &[clean(0), clean(5), clean(7)].join(",")),
        ] {
            assert!(
                matches!(CampaignCheckpoint::parse(&bad), Err(CheckpointError::Schema { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn version_mismatch_converts_to_a_typed_core_error() {
        // A document of an older version must be refused with a typed
        // error the caller can branch on, not replayed silently.
        let err = CampaignCheckpoint::parse(r#"{"version":1,"entries":[]}"#).unwrap_err();
        let core: CoreError = err.into();
        assert!(matches!(core, CoreError::Checkpoint(CheckpointError::Schema { .. })), "{core:?}");
        let text = core.to_string();
        assert!(text.contains("unsupported campaign checkpoint version 1"), "{text}");
    }

    #[test]
    fn older_schemas_are_refused_by_name() {
        // What the per-kind schemas before the envelope rendered: the
        // exhaustive checkpoint (version 2) and the adaptive one
        // (version 1), each well-formed and resumable in its day.
        for (old, version) in [
            (
                r#"{"version":2,"entries":[{"index":0,"seed":0,"outcome":{"kind":"clean_pass"},"failure":null,"shed":null}]}"#,
                2,
            ),
            (
                r#"{"version":1,"rounds_done":0,"total_tck":0,"ledger":{"wires":2,"masks":[0,0]},"priority":{"clock":0,"last_hit":[0,0,0,0,0,0]},"entries":[]}"#,
                1,
            ),
        ] {
            match CampaignCheckpoint::parse(old) {
                Err(CheckpointError::Schema { reason }) => assert_eq!(
                    reason,
                    format!("unsupported campaign checkpoint version {version}"),
                    "{old}"
                ),
                other => panic!("{old}: expected a typed refusal, got {other:?}"),
            }
        }
        let fleet = r#"{"version":3,"kind":"fleet","entries":[]}"#;
        assert!(
            matches!(CampaignCheckpoint::parse(fleet), Err(CheckpointError::Schema { reason })
                if reason.contains(r#"a "fleet" checkpoint is not a campaign checkpoint"#)),
            "{fleet}"
        );
    }

    #[test]
    fn seed_mismatch_invalidates_entries() {
        // An entry recorded under a seed other than its index belongs
        // to another batch layout: the checkpoint is refused as a
        // whole, never partly re-run.
        let clean = r#"{"index":0,"seed":0,"outcome":{"kind":"clean_pass"}}"#;
        assert!(CampaignCheckpoint::parse(&document(1, clean)).is_ok());
        let reseeded = document(1, &clean.replace(r#""seed":0"#, r#""seed":7"#));
        match CampaignCheckpoint::parse(&reseeded) {
            Err(CheckpointError::Schema { reason }) => {
                assert!(reason.contains("each seeded by its index"), "{reason}");
            }
            other => panic!("a reseeded entry must be refused, got {other:?}"),
        }
    }

    #[test]
    fn resumed_run_is_byte_identical_to_uninterrupted() {
        let campaign = Campaign::new(3);
        let trials = trials();
        // Five trials in rounds of two: halt after each of the three
        // rounds and resume from the persisted bytes.
        let rounds = assert_resumes_at_every_round(3, |checkpoint, threads, sink| {
            let run = campaign.run_checkpointed(&trials, threads, checkpoint, 2, |cp| sink(cp));
            assert_eq!(run.stats.failed_trials, 1);
            run.to_json().render()
        });
        assert_eq!(rounds, 3);

        // A snapshot that claims one round more than its entries cover,
        // or that was taken in rounds of another size, is refused.
        let mut halted = CampaignCheckpoint::new(3);
        let _ = campaign.run_checkpointed(&trials[..2], 1, &mut halted, 2, |_| {});
        assert_eq!(campaign.resume_point(&trials, &halted, 2), Ok(2));
        assert!(campaign.resume_point(&trials, &halted, 3).is_err());
        halted.rounds_done += 1;
        assert!(campaign.resume_point(&trials, &halted, 2).is_err());
        assert!(Campaign::new(4).resume_point(&trials, &CampaignCheckpoint::new(3), 2).is_err());

        // And the plain engine agrees with the checkpointed one.
        let reference =
            campaign.run_checkpointed(&trials, 1, &mut CampaignCheckpoint::new(3), 2, |_| {});
        let plain = campaign.run_parallel(&trials, 2);
        assert_eq!(plain.to_json().render(), reference.to_json().render());
    }

    #[test]
    fn entry_from_json_round_trips() {
        let entry = CheckpointEntry {
            index: 5,
            seed: 5,
            outcome: TrialOutcome::Shed,
            failure: None,
            shed: Some(TrialShed { index: 5, seed: 5, reason: ShedReason::Deadline { step: 9 } }),
            dropped: 0,
            escalation: 0,
        };
        let parsed = CheckpointEntry::from_json(&entry.to_json()).unwrap();
        assert_eq!(parsed, entry);
        assert!(CheckpointEntry::from_json(&sint_runtime::json::Json::Null).is_err());
    }

    #[test]
    fn fully_checkpointed_batch_runs_nothing() {
        // Exhaustive, adaptive and attributed batches alike: a
        // checkpoint holding every round resumes without running or
        // snapshotting anything, and leaves the state as it was.
        let campaign = Campaign::new(3);
        let trials = vec![Trial::control(), Trial::control(), Trial::control()];
        for kind in [SessionKind::Exhaustive, SessionKind::Adaptive, SessionKind::Attributed] {
            let mut checkpoint = CampaignCheckpoint::new(3);
            campaign.drive(&trials, 2, 1, kind, &mut checkpoint, |_| {});
            assert_eq!(checkpoint.rounds_done(), 2, "{kind:?}");
            let first = checkpoint.clone();
            let mut sink_calls = 0usize;
            campaign.drive(&trials, 2, 1, kind, &mut checkpoint, |_| sink_calls += 1);
            assert_eq!(sink_calls, 0, "{kind:?}: nothing left to run, nothing snapshotted");
            assert_eq!(checkpoint, first, "{kind:?}");
        }
        let mut checkpoint = CampaignCheckpoint::new(3);
        let first = campaign.run_checkpointed(&trials, 1, &mut checkpoint, 10, |_| {});
        let second = campaign.run_checkpointed(&trials, 1, &mut checkpoint, 10, |_| {
            panic!("a complete checkpoint snapshots nothing")
        });
        assert_eq!(first, second);
    }
}
