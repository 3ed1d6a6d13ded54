//! Board-granular fleet checkpoints.
//!
//! A fleet run snapshots one [`BoardEntry`] per finished board — its
//! id, seed, owning client, campaign counters and supervisor
//! [`BoardReport`] — into a versioned JSON document. Feeding the last
//! snapshot back into
//! [`crate::engine::FleetEngine::run_checkpointed`] re-runs only the
//! unfinished boards; because each board is a pure function of its id
//! (breaker trips, backoff waits and chaos faults included), the
//! resumed merged summary is byte-identical to an uninterrupted run.
//! Entries are keyed by id *and* seed, so a snapshot taken against a
//! different floor layout is rejected at lookup time rather than
//! replayed silently. Version-1 snapshots (which predate the
//! resilience layer and carry no reports) are rejected with a typed
//! error — resuming them would silently forget quarantine state.

use crate::engine::{AdaptiveTotals, BoardSummary};
use crate::error::FleetError;
use crate::supervisor::BoardReport;
use sint_core::campaign::CampaignStats;
use sint_runtime::durable::GenPair;
use sint_runtime::json::{Json, ToJson};

/// Fleet checkpoint format version. Version 2 added the per-board
/// supervisor report (breaker/quarantine/backoff state).
const FLEET_CHECKPOINT_VERSION: u64 = 2;

/// One finished board in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardEntry {
    /// The board's floor position.
    pub board: usize,
    /// The board's derived seed (must match on resume).
    pub seed: u64,
    /// Index of the owning client.
    pub client: usize,
    /// The board's campaign counters.
    pub stats: CampaignStats,
    /// The panic message when the board's harness crashed.
    pub crashed: Option<String>,
    /// The board's supervisor report (verdict, health, breaker and
    /// spool counters).
    pub report: BoardReport,
    /// Adaptive-engine counters summed over the board's trials
    /// (all-zero on exhaustive floors; rendered only when nonzero so
    /// pre-adaptive snapshots stay byte-identical).
    pub adaptive: AdaptiveTotals,
}

impl BoardEntry {
    /// The checkpoint form of a finished board's summary.
    #[must_use]
    pub fn from_summary(summary: &BoardSummary) -> BoardEntry {
        BoardEntry {
            board: summary.board,
            seed: summary.seed,
            client: summary.client,
            stats: summary.stats,
            crashed: summary.crashed.clone(),
            report: summary.report.clone(),
            adaptive: summary.adaptive,
        }
    }
}

impl ToJson for BoardEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("board", self.board.to_json()),
            ("seed", self.seed.to_json()),
            ("client", self.client.to_json()),
            ("stats", self.stats.to_json()),
            ("crashed", match &self.crashed {
                Some(m) => m.to_json(),
                None => Json::Null,
            }),
            ("report", self.report.to_json()),
        ];
        if self.adaptive != AdaptiveTotals::default() {
            fields.push(("adaptive", self.adaptive.to_json()));
        }
        Json::obj(fields)
    }
}

/// Accumulated finished boards of one fleet run, ordered by board id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetCheckpoint {
    entries: Vec<BoardEntry>,
}

impl FleetCheckpoint {
    /// An empty checkpoint (a fresh, un-resumed run).
    #[must_use]
    pub fn new() -> FleetCheckpoint {
        FleetCheckpoint::default()
    }

    /// Finished boards recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded entries, ordered by board id.
    #[must_use]
    pub fn entries(&self) -> &[BoardEntry] {
        &self.entries
    }

    /// The entry for `board`, provided it was recorded under the same
    /// `seed` (otherwise the snapshot belongs to a different floor and
    /// must not be reused).
    #[must_use]
    pub fn entry_for(&self, board: usize, seed: u64) -> Option<&BoardEntry> {
        self.entries
            .binary_search_by_key(&board, |e| e.board)
            .ok()
            .map(|pos| &self.entries[pos])
            .filter(|e| e.seed == seed)
    }

    /// Records a finished board, replacing any previous entry for the
    /// same id.
    pub fn record(&mut self, entry: BoardEntry) {
        match self.entries.binary_search_by_key(&entry.board, |e| e.board) {
            Ok(pos) => self.entries[pos] = entry,
            Err(pos) => self.entries.insert(pos, entry),
        }
    }

    /// Decodes a snapshot produced by [`FleetCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`FleetError::Json`] for malformed JSON, [`FleetError::Schema`]
    /// for a well-formed document that is not a version-2 fleet
    /// checkpoint — including the pre-resilience version 1, which is
    /// rejected by name rather than resumed without its reports.
    pub fn parse(text: &str) -> Result<FleetCheckpoint, FleetError> {
        let root = Json::parse(text)?;
        match root.get("version").and_then(Json::as_u64) {
            Some(FLEET_CHECKPOINT_VERSION) => {}
            Some(v) => {
                return Err(FleetError::schema(format!(
                    "unsupported fleet checkpoint version {v}"
                )));
            }
            None => return Err(FleetError::schema("missing version")),
        }
        let entries = root
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| FleetError::schema("missing entries array"))?;
        let mut checkpoint = FleetCheckpoint::new();
        for entry in entries {
            checkpoint.record(parse_board_entry(entry)?);
        }
        Ok(checkpoint)
    }

    /// Loads the newest valid generation from a [`GenPair`] — the
    /// crash-safe resume path. Returns the checkpoint and its
    /// generation number; a pair with no valid slot (fresh run, or
    /// both slots destroyed) yields an empty checkpoint at generation
    /// zero rather than an error, because "nothing to resume" is the
    /// normal first-run state.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the slots cannot be read at all;
    /// [`FleetError::Json`] / [`FleetError::Schema`] when the
    /// surviving generation's payload is not a version-2 checkpoint
    /// (its frame was intact, so this is corruption beyond a torn
    /// write).
    pub fn load_pair(pair: &GenPair) -> Result<(FleetCheckpoint, u64), FleetError> {
        match pair.load().map_err(|e| FleetError::io(e.to_string()))? {
            None => Ok((FleetCheckpoint::new(), 0)),
            Some((generation, payload)) => {
                Ok((FleetCheckpoint::parse(&payload)?, generation))
            }
        }
    }

    /// Stores this checkpoint as the next generation of a [`GenPair`],
    /// leaving the previous generation untouched in the other slot —
    /// a crash anywhere during the write can only lose the snapshot
    /// being written, never the last good one. Returns the generation
    /// written.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the slot cannot be written, or when the
    /// newest slot already carries generation `u64::MAX`.
    pub fn store_pair(&self, pair: &GenPair) -> Result<u64, FleetError> {
        let payload = self.to_json().render() + "\n";
        pair.store(&payload).map_err(|e| FleetError::io(e.to_string()))
    }
}

impl ToJson for FleetCheckpoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", FLEET_CHECKPOINT_VERSION.to_json()),
            ("entries", Json::Array(self.entries.iter().map(ToJson::to_json).collect())),
        ])
    }
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, FleetError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| FleetError::schema(format!("entry is missing numeric {key:?}")))
}

/// Decodes [`CampaignStats`] counters from their [`ToJson`] rendering.
/// The derived rate fields are ignored: they re-derive on render, so
/// the round trip stays byte-identical.
pub(crate) fn parse_stats(json: &Json) -> Result<CampaignStats, FleetError> {
    Ok(CampaignStats {
        defect_trials: field_u64(json, "defect_trials")? as usize,
        detected: field_u64(json, "detected")? as usize,
        control_trials: field_u64(json, "control_trials")? as usize,
        false_alarms: field_u64(json, "false_alarms")? as usize,
        failed_trials: field_u64(json, "failed_trials")? as usize,
        shed_trials: field_u64(json, "shed_trials")? as usize,
    })
}

fn parse_board_entry(entry: &Json) -> Result<BoardEntry, FleetError> {
    let stats = entry
        .get("stats")
        .ok_or_else(|| FleetError::schema("entry has no stats"))
        .and_then(parse_stats)?;
    let crashed = match entry.get("crashed") {
        None | Some(Json::Null) => None,
        Some(m) => Some(
            m.as_str()
                .ok_or_else(|| FleetError::schema("crashed must be a string or null"))?
                .to_string(),
        ),
    };
    let report = entry
        .get("report")
        .ok_or_else(|| FleetError::schema("entry has no supervisor report"))
        .and_then(BoardReport::from_json)?;
    let adaptive = match entry.get("adaptive") {
        None | Some(Json::Null) => AdaptiveTotals::default(),
        Some(counters) => AdaptiveTotals {
            dropped: field_u64(counters, "dropped")?,
            escalation: field_u64(counters, "escalation")?,
        },
    };
    Ok(BoardEntry {
        board: field_u64(entry, "board")? as usize,
        seed: field_u64(entry, "seed")?,
        client: field_u64(entry, "client")? as usize,
        stats,
        crashed,
        report,
        adaptive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::BoardVerdict;

    fn entry(board: usize) -> BoardEntry {
        BoardEntry {
            board,
            seed: board as u64 * 7 + 1,
            client: board % 2,
            stats: CampaignStats {
                defect_trials: 3,
                detected: 2,
                control_trials: 1,
                false_alarms: 0,
                failed_trials: 0,
                shed_trials: 1,
            },
            crashed: if board == 2 { Some("injected".into()) } else { None },
            adaptive: if board == 3 {
                AdaptiveTotals { dropped: 5, escalation: 2 }
            } else {
                AdaptiveTotals::default()
            },
            report: if board == 3 {
                BoardReport {
                    verdict: BoardVerdict::Dead,
                    health: 0.421875,
                    retries: 4,
                    infra_failures: 3,
                    breaker_trips: 1,
                    probes: 2,
                    quarantined_at: Some(1),
                    ticks: 17,
                    sink_errors: 1,
                    spooled: 1,
                    dropped_records: 0,
                }
            } else {
                BoardReport::default()
            },
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut checkpoint = FleetCheckpoint::new();
        for board in [3, 0, 2] {
            checkpoint.record(entry(board));
        }
        assert_eq!(checkpoint.entries()[0].board, 0, "entries kept sorted");
        let rendered = checkpoint.to_json().render();
        assert!(rendered.contains(r#""version":2"#), "{rendered}");
        assert!(rendered.contains(r#""verdict":"dead""#), "{rendered}");
        let parsed = FleetCheckpoint::parse(&rendered).unwrap();
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.to_json().render(), rendered, "re-rendering is stable");
    }

    #[test]
    fn resilience_state_survives_the_round_trip() {
        let mut checkpoint = FleetCheckpoint::new();
        checkpoint.record(entry(3));
        let parsed = FleetCheckpoint::parse(&checkpoint.to_json().render()).unwrap();
        let report = &parsed.entry_for(3, 22).unwrap().report;
        assert_eq!(report.verdict, BoardVerdict::Dead);
        assert_eq!(report.quarantined_at, Some(1));
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.health, 0.421875, "health survives exactly");
    }

    #[test]
    fn version_1_snapshots_are_rejected_by_name() {
        // A well-formed v1 document (no reports). It must not resume.
        let v1 = r#"{"version":1,"entries":[{"board":0,"seed":0,"client":0,"stats":{"defect_trials":0,"detected":0,"control_trials":0,"false_alarms":0,"failed_trials":0,"shed_trials":0},"crashed":null}]}"#;
        match FleetCheckpoint::parse(v1) {
            Err(FleetError::Schema { reason }) => {
                assert!(
                    reason.contains("unsupported fleet checkpoint version 1"),
                    "{reason}"
                );
            }
            other => panic!("v1 must be rejected with a typed error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed_snapshots() {
        assert!(matches!(FleetCheckpoint::parse("nope"), Err(FleetError::Json(_))));
        for bad in [
            r#"{"entries":[]}"#,
            r#"{"version":9,"entries":[]}"#,
            r#"{"version":2}"#,
            r#"{"version":2,"entries":[{"board":0}]}"#,
            r#"{"version":2,"entries":[{"board":0,"seed":0,"client":0,"stats":{},"crashed":null}]}"#,
            // Counters fine but no supervisor report.
            r#"{"version":2,"entries":[{"board":0,"seed":0,"client":0,"stats":{"defect_trials":0,"detected":0,"control_trials":0,"false_alarms":0,"failed_trials":0,"shed_trials":0},"crashed":null}]}"#,
            r#"{"version":2,"entries":[{"board":0,"seed":0,"client":0,"stats":{"defect_trials":0,"detected":0,"control_trials":0,"false_alarms":0,"failed_trials":0,"shed_trials":0},"crashed":5}]}"#,
        ] {
            assert!(
                matches!(FleetCheckpoint::parse(bad), Err(FleetError::Schema { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn generation_pair_round_trips_and_survives_slot_loss() {
        let dir = std::env::temp_dir()
            .join(format!("sint_fleet_ckpt_pair_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pair = GenPair::new(dir.join("ckpt"));

        // A fresh pair resumes as an empty checkpoint, not an error.
        let (empty, generation) = FleetCheckpoint::load_pair(&pair).unwrap();
        assert!(empty.is_empty());
        assert_eq!(generation, 0);

        let mut first = FleetCheckpoint::new();
        first.record(entry(0));
        assert_eq!(first.store_pair(&pair).unwrap(), 1);
        let mut second = first.clone();
        second.record(entry(3));
        assert_eq!(second.store_pair(&pair).unwrap(), 2);
        let (loaded, generation) = FleetCheckpoint::load_pair(&pair).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(loaded, second);

        // Destroying the newest slot falls back to the previous
        // generation; destroying both yields the empty first-run state.
        let (slot_a, slot_b) = pair.slots();
        let newest = if std::fs::read_to_string(&slot_a)
            .is_ok_and(|s| s.starts_with("sintgen 2"))
        {
            slot_a.clone()
        } else {
            slot_b.clone()
        };
        std::fs::write(&newest, "sintgen garbage").unwrap();
        let (loaded, generation) = FleetCheckpoint::load_pair(&pair).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(loaded, first);
        std::fs::remove_file(&slot_a).unwrap();
        std::fs::remove_file(&slot_b).ok();
        let (empty, generation) = FleetCheckpoint::load_pair(&pair).unwrap();
        assert!(empty.is_empty());
        assert_eq!(generation, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adaptive_counters_round_trip_and_default_to_zero() {
        let mut checkpoint = FleetCheckpoint::new();
        checkpoint.record(entry(3));
        let rendered = checkpoint.to_json().render();
        assert!(rendered.contains(r#""adaptive":{"dropped":5,"escalation":2}"#), "{rendered}");
        let parsed = FleetCheckpoint::parse(&rendered).unwrap();
        assert_eq!(parsed.entry_for(3, 22).unwrap().adaptive.dropped, 5);

        // An all-zero entry renders without the key at all, and a
        // pre-adaptive snapshot (no key) parses to zero counters.
        checkpoint.record(entry(0));
        let rendered = checkpoint.to_json().render();
        let zero_entry = &rendered[rendered.find(r#""board":0"#).unwrap()..];
        assert!(!zero_entry[..zero_entry.find(r#""board":3"#).unwrap()].contains("adaptive"));
        let parsed = FleetCheckpoint::parse(&rendered).unwrap();
        assert_eq!(parsed.entry_for(0, 1).unwrap().adaptive, AdaptiveTotals::default());
    }

    #[test]
    fn seed_mismatch_invalidates_entries() {
        let mut checkpoint = FleetCheckpoint::new();
        checkpoint.record(entry(4));
        assert!(checkpoint.entry_for(4, 29).is_some());
        assert!(checkpoint.entry_for(4, 30).is_none(), "wrong seed must not match");
        assert!(checkpoint.entry_for(5, 36).is_none());
    }
}
