//! The streaming result path.
//!
//! A fleet run never builds a `Vec` of trial outcomes: each board's
//! campaign pushes checkpoint entries through a [`RecordSink`] the
//! moment they finish. [`JsonlSink`] turns that into an **incremental
//! JSON artifact** — one self-describing record per line, written as
//! produced, so a million-trial floor costs one line of buffering.
//! Version-2 streams carry two record kinds: `"trial"` lines (one per
//! finished trial) and `"board"` lines (one per finished board, with
//! its counters, crash marker and supervisor [`BoardReport`]). Lines
//! from different boards interleave in scheduling order, but every
//! line carries its board id, so [`replay_summary`] can fold a
//! concatenated artifact back into the merged [`FleetSummary`] —
//! verdict counts, quarantine roster and resilience totals included —
//! deterministically. The golden test locks replay-equals-in-memory.
//!
//! Sink writes are **fallible by contract**: `record`/`board_done`
//! return [`FleetError::Sink`] so a board supervisor can spool the
//! failed record and keep the board running — a result-path hiccup
//! must never abort a healthy floor.
//!
//! Since the durability layer landed, every [`JsonlSink`] line is
//! **framed** ([`sint_runtime::durable::frame`]): a fixed-width
//! length+CRC-32 suffix makes a torn trailing line detectable instead
//! of poisonous. [`replay_summary`] folds only frame-valid lines,
//! tolerates a torn *final* line (counted in a typed
//! [`RecoveredStream`] note), and skips re-streamed duplicate trials —
//! so the concatenation of a recovered post-crash stream and the
//! resumed run's appended records folds to the same summary as an
//! uninterrupted run. Framing is deterministic, so all byte-identity
//! gates hold. [`JsonlSink::raw`] keeps an unframed variant as the
//! durability-overhead bench baseline.

use crate::engine::{
    AdaptiveTotals, BoardSummary, ClientSummary, FleetSummary, QuarantineRecord, ResilienceTotals,
};
use crate::error::FleetError;
use crate::spec::BoardSpec;
use crate::supervisor::{BoardReport, BoardVerdict};
use sint_core::campaign::CampaignStats;
use sint_core::checkpoint::CheckpointEntry;
use sint_runtime::durable::{frame, unframe};
use sint_runtime::json::{Json, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::Mutex;

/// Record format version emitted by [`trial_record`] and
/// [`board_record`]. Version 2 added the `kind` tag and per-board
/// report lines; version-1 streams (untagged, trial-only) are
/// rejected.
const RECORD_VERSION: u64 = 2;

/// Where streamed results go. Implementations must be callable from
/// any worker thread; calls for *different* boards may interleave, but
/// one board's records always arrive in trial order from one thread.
///
/// Both methods are fallible: a failed write surfaces as
/// [`FleetError::Sink`] to the caller (the supervisor spools and
/// retries, and counts what it drops). Implementations
/// must stay consistent under retries — a record that errored was
/// **not** written.
pub trait RecordSink: Sync {
    /// One finished trial of `board`, owned by the client named
    /// `client`, as a checkpoint entry.
    ///
    /// # Errors
    ///
    /// [`FleetError::Sink`] when the record could not be written.
    fn record(&self, board: &BoardSpec, client: &str, entry: &CheckpointEntry)
        -> Result<(), FleetError>;

    /// A board finished (or crashed — see [`BoardSummary::crashed`]).
    /// Default: ignored.
    ///
    /// # Errors
    ///
    /// [`FleetError::Sink`] when the record could not be written.
    fn board_done(&self, summary: &BoardSummary) -> Result<(), FleetError> {
        let _ = summary;
        Ok(())
    }
}

/// Discards everything — for runs where only the merged summary
/// matters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RecordSink for NullSink {
    fn record(
        &self,
        _board: &BoardSpec,
        _client: &str,
        _entry: &CheckpointEntry,
    ) -> Result<(), FleetError> {
        Ok(())
    }
}

/// The self-describing JSON form of one streamed trial record.
#[must_use]
pub fn trial_record(board: &BoardSpec, client: &str, entry: &CheckpointEntry) -> Json {
    Json::obj([
        ("v", RECORD_VERSION.to_json()),
        ("kind", "trial".to_json()),
        ("board", board.id.to_json()),
        ("client", board.client.to_json()),
        ("client_name", client.to_json()),
        ("entry", entry.to_json()),
    ])
}

/// The self-describing JSON form of one finished board's summary —
/// counters, crash marker and supervisor report.
#[must_use]
pub fn board_record(summary: &BoardSummary) -> Json {
    Json::obj([
        ("v", RECORD_VERSION.to_json()),
        ("kind", "board".to_json()),
        ("board", summary.board.to_json()),
        ("client", summary.client.to_json()),
        ("seed", summary.seed.to_json()),
        ("stats", summary.stats.to_json()),
        ("crashed", match &summary.crashed {
            Some(m) => m.to_json(),
            None => Json::Null,
        }),
        ("report", summary.report.to_json()),
    ])
}

/// Streams one compact JSON record per line into any writer — the
/// incremental artifact emitter. Thread-safe (a mutex serialises
/// lines). The first write failure is latched: it is returned as a
/// typed [`FleetError::Sink`] from the failing call and every later
/// one, and surfaces again from [`JsonlSink::finish`] — so the
/// supervisor sees the failure immediately and the caller learns of it
/// again at the end.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<SinkState<W>>,
    framed: bool,
}

#[derive(Debug)]
struct SinkState<W> {
    writer: W,
    lines: u64,
    error: Option<String>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer (a `File`, a `Vec<u8>`, a `BufWriter`…). Every
    /// line is framed with a length+CRC-32 suffix so a torn tail is
    /// detectable and recoverable.
    #[must_use]
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink { inner: Mutex::new(SinkState { writer, lines: 0, error: None }), framed: true }
    }

    /// Wraps a writer *without* framing — the durability-overhead
    /// bench baseline. Raw streams cannot be tail-recovered and
    /// [`replay_summary`] rejects them; production paths use
    /// [`JsonlSink::new`].
    #[must_use]
    pub fn raw(writer: W) -> JsonlSink<W> {
        JsonlSink { inner: Mutex::new(SinkState { writer, lines: 0, error: None }), framed: false }
    }

    fn write_line(&self, line: &str) -> Result<(), FleetError> {
        let Ok(mut state) = self.inner.lock() else {
            return Err(FleetError::sink("record stream poisoned by a panic"));
        };
        if let Some(error) = &state.error {
            return Err(FleetError::sink(error.clone()));
        }
        let wrote = if self.framed {
            writeln!(state.writer, "{}", frame(line))
        } else {
            writeln!(state.writer, "{line}")
        };
        match wrote {
            Ok(()) => {
                state.lines += 1;
                Ok(())
            }
            Err(e) => {
                let rendered = e.to_string();
                state.error = Some(rendered.clone());
                Err(FleetError::sink(rendered))
            }
        }
    }

    /// Flushes the underlying writer without consuming the sink — the
    /// write-ahead half of the checkpoint ordering: calling this
    /// *before* persisting a checkpoint guarantees every record of a
    /// checkpointed board is on disk before the checkpoint claims the
    /// board is done.
    ///
    /// # Errors
    ///
    /// [`FleetError::Sink`] on the first (possibly latched) failure.
    pub fn flush(&self) -> Result<(), FleetError> {
        let Ok(mut state) = self.inner.lock() else {
            return Err(FleetError::sink("record stream poisoned by a panic"));
        };
        if let Some(error) = &state.error {
            return Err(FleetError::sink(error.clone()));
        }
        if let Err(e) = state.writer.flush() {
            let rendered = e.to_string();
            state.error = Some(rendered.clone());
            return Err(FleetError::sink(rendered));
        }
        Ok(())
    }

    /// Finishes the stream — flushing the writer — and returns it with
    /// the line count. Without this, a `BufWriter`-backed sink can
    /// silently drop the tail of the stream on process exit.
    ///
    /// # Errors
    ///
    /// [`FleetError::Sink`] carrying the first write error encountered
    /// while streaming (records that hit it were reported to their
    /// callers at the time), or the final flush failure.
    pub fn finish(self) -> Result<(W, u64), FleetError> {
        match self.inner.into_inner() {
            Ok(mut state) => match state.error {
                None => {
                    state.writer.flush().map_err(|e| FleetError::sink(e.to_string()))?;
                    Ok((state.writer, state.lines))
                }
                Some(error) => Err(FleetError::sink(error)),
            },
            Err(_) => Err(FleetError::sink("record stream poisoned by a panic")),
        }
    }
}

impl<W: Write + Send> RecordSink for JsonlSink<W> {
    fn record(
        &self,
        board: &BoardSpec,
        client: &str,
        entry: &CheckpointEntry,
    ) -> Result<(), FleetError> {
        self.write_line(&trial_record(board, client, entry).render())
    }

    fn board_done(&self, summary: &BoardSummary) -> Result<(), FleetError> {
        self.write_line(&board_record(summary).render())
    }
}

/// Per-board state accumulated while replaying a stream.
struct ReplayBoard {
    client: usize,
    stats: CampaignStats,
    adaptive: AdaptiveTotals,
    crashed: bool,
    report: Option<BoardReport>,
}

/// What stream recovery tolerated while replaying a post-crash
/// artifact — the typed note attached to a [`replay_summary_recovered`]
/// result so tooling can report *that* recovery happened, not just
/// that the fold succeeded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveredStream {
    /// Frame-valid record lines folded into the summary.
    pub records: u64,
    /// Re-streamed trial records skipped because the same
    /// `(board, trial)` coordinate was already folded — the signature
    /// of a resumed run appending to a recovered stream.
    pub duplicate_trials: u64,
    /// Bytes of a torn (frame-invalid) final line that were tolerated
    /// instead of erroring. Zero for a cleanly terminated stream.
    pub torn_tail_bytes: u64,
}

impl RecoveredStream {
    /// True when the replay had to tolerate anything — a torn tail or
    /// duplicate trials.
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.torn_tail_bytes > 0 || self.duplicate_trials > 0
    }
}

/// Folds a concatenated JSONL record artifact back into the merged
/// [`FleetSummary`] — the verification path proving the incremental
/// artifact carries the same information as the in-memory run.
///
/// The strict form of [`replay_summary_recovered`]: the
/// [`RecoveredStream`] note is dropped, but the same tolerances apply
/// (torn final line, duplicate trials).
///
/// # Errors
///
/// [`FleetError::Json`] / [`FleetError::Schema`] / [`FleetError::Entry`]
/// when a line is not a framed version-2 record.
pub fn replay_summary(text: &str) -> Result<FleetSummary, FleetError> {
    replay_summary_recovered(text).map(|(summary, _)| summary)
}

/// [`replay_summary`] with crash tolerance made explicit.
///
/// Every line must carry a valid length+CRC-32 frame. Two departures
/// from strictness make post-crash artifacts foldable:
///
/// - A frame-**invalid** *final* line is tolerated (the stream was
///   torn mid-write by a crash) and counted in
///   [`RecoveredStream::torn_tail_bytes`] — provided at least one
///   valid record precedes it, so a wholly-unframed stream is still
///   rejected rather than silently folding to an empty summary.
/// - A trial record for a `(board, trial)` coordinate already folded
///   is skipped and counted in [`RecoveredStream::duplicate_trials`]:
///   a resumed run re-streams its checkpointed boards' trials, so the
///   concatenation of a recovered stream and the resumed appendix
///   holds each coordinate at most twice; first occurrence wins.
///
/// Frame-*valid* lines with malformed payloads always error — a frame
/// that checks out proves the bytes are exactly what the writer wrote,
/// so a schema problem there is corruption of a different kind and
/// must not be papered over. Mid-stream frame failures error too:
/// torn writes only happen at the tail.
///
/// Trial lines rebuild the counters; board lines rebuild crash
/// markers, verdict counts, the quarantine roster, client health and
/// the resilience totals (a board line re-streamed after resume simply
/// overwrites with identical content). A board that streamed trials
/// but no board line (a stream cut mid-board) replays with a default
/// spotless report. Client roster order is recovered from the trial
/// records' client indices.
///
/// # Errors
///
/// [`FleetError::Json`] / [`FleetError::Schema`] / [`FleetError::Entry`]
/// when a line is not a framed version-2 record (with the tolerances
/// above).
pub fn replay_summary_recovered(
    text: &str,
) -> Result<(FleetSummary, RecoveredStream), FleetError> {
    let mut boards: BTreeMap<usize, ReplayBoard> = BTreeMap::new();
    let mut client_names: BTreeMap<usize, String> = BTreeMap::new();
    let mut seen_trials: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut note = RecoveredStream::default();
    let lines: Vec<&str> = text.lines().collect();
    let last_content = lines.iter().rposition(|l| !l.trim().is_empty());
    for (index, raw) in lines.iter().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let line = match unframe(raw) {
            Ok(payload) => payload,
            Err(e) => {
                if Some(index) == last_content && note.records > 0 {
                    note.torn_tail_bytes = raw.len() as u64;
                    break;
                }
                return Err(FleetError::schema(format!("line {index}: invalid frame: {e}")));
            }
        };
        let record = Json::parse(line)?;
        match record.get("v").and_then(Json::as_u64) {
            Some(RECORD_VERSION) => {}
            Some(v) => {
                return Err(FleetError::schema(format!("unsupported record version {v}")));
            }
            None => return Err(FleetError::schema("record is missing its version")),
        }
        let board = record
            .get("board")
            .and_then(Json::as_u64)
            .ok_or_else(|| FleetError::schema("record is missing its board id"))?
            as usize;
        let client = record
            .get("client")
            .and_then(Json::as_u64)
            .ok_or_else(|| FleetError::schema("record is missing its client index"))?
            as usize;
        let slot = boards.entry(board).or_insert(ReplayBoard {
            client,
            stats: CampaignStats::default(),
            adaptive: AdaptiveTotals::default(),
            crashed: false,
            report: None,
        });
        if slot.client != client {
            return Err(FleetError::schema(format!(
                "board {board} appears under two clients ({} and {client})",
                slot.client
            )));
        }
        match record.get("kind").and_then(Json::as_str) {
            Some("trial") => {
                let name = record
                    .get("client_name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| FleetError::schema("trial record is missing its client name"))?;
                let entry = CheckpointEntry::from_json(
                    record
                        .get("entry")
                        .ok_or_else(|| FleetError::schema("trial record has no entry"))?,
                )?;
                client_names.entry(client).or_insert_with(|| name.to_string());
                note.records += 1;
                if seen_trials.insert((board, entry.index)) {
                    slot.stats.accumulate(entry.outcome);
                    slot.adaptive.absorb_entry(entry.dropped, entry.escalation);
                } else {
                    note.duplicate_trials += 1;
                }
            }
            Some("board") => {
                note.records += 1;
                slot.crashed = matches!(record.get("crashed"), Some(Json::Str(_)));
                slot.report = Some(BoardReport::from_json(
                    record
                        .get("report")
                        .ok_or_else(|| FleetError::schema("board record has no report"))?,
                )?);
            }
            Some(other) => {
                return Err(FleetError::schema(format!("unknown record kind {other:?}")));
            }
            None => return Err(FleetError::schema("record is missing its kind")),
        }
    }
    // Client indices must form a contiguous roster 0..n to reconstruct
    // admission order. They come from record bytes, so they are checked
    // before anything is sized by them.
    let present: BTreeSet<usize> = boards.values().map(|b| b.client).collect();
    let roster = present.len();
    if present.last().is_some_and(|&max| max != roster - 1) {
        return Err(FleetError::schema("client indices are not contiguous"));
    }
    let mut clients: Vec<ClientSummary> = (0..roster)
        .map(|index| ClientSummary {
            name: client_names.remove(&index).unwrap_or_default(),
            boards: 0,
            health: 1.0,
            stats: CampaignStats::default(),
        })
        .collect();
    let mut health_sums = vec![0.0f64; roster];
    let mut totals = CampaignStats::default();
    let mut adaptive = AdaptiveTotals::default();
    let mut resilience = ResilienceTotals::default();
    let mut crashed_boards = 0usize;
    let mut healthy_boards = 0usize;
    let mut flaky_boards = 0usize;
    let mut dead_boards = 0usize;
    let mut quarantined = Vec::new();
    for (id, replay) in &boards {
        let report = replay.report.clone().unwrap_or_default();
        let client = &mut clients[replay.client];
        client.boards += 1;
        client.stats.merge(&replay.stats);
        health_sums[replay.client] += report.health;
        totals.merge(&replay.stats);
        adaptive.merge(&replay.adaptive);
        resilience.absorb(&report);
        if replay.crashed {
            crashed_boards += 1;
        }
        match report.verdict {
            BoardVerdict::Healthy => healthy_boards += 1,
            BoardVerdict::Flaky => flaky_boards += 1,
            BoardVerdict::Dead => dead_boards += 1,
        }
        if let Some(at_trial) = report.quarantined_at {
            quarantined.push(QuarantineRecord {
                board: *id,
                client: replay.client,
                at_trial,
                probes: report.probes,
                ticks: report.ticks,
            });
        }
    }
    for (client, sum) in clients.iter_mut().zip(health_sums) {
        if client.boards > 0 {
            client.health = sum / client.boards as f64;
        }
    }
    let summary = FleetSummary {
        boards: boards.len(),
        crashed_boards,
        healthy_boards,
        flaky_boards,
        dead_boards,
        quarantined,
        clients,
        totals,
        adaptive,
        resilience,
    };
    Ok((summary, note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sint_core::campaign::TrialOutcome;

    fn sample_entry(index: usize, outcome: TrialOutcome) -> CheckpointEntry {
        CheckpointEntry { index, seed: index as u64, outcome, failure: None, shed: None, dropped: 0, escalation: 0 }
    }

    fn sample_board_summary(board: usize, client: usize) -> BoardSummary {
        BoardSummary {
            board,
            client,
            seed: board as u64 + 1,
            stats: CampaignStats::default(),
            crashed: None,
            report: BoardReport::default(),
            adaptive: AdaptiveTotals::default(),
        }
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_framed_line_per_record() {
        let sink = JsonlSink::new(Vec::new());
        let board = BoardSpec { id: 7, client: 1, seed: 42 };
        sink.record(&board, "acme", &sample_entry(0, TrialOutcome::CleanPass)).unwrap();
        sink.record(&board, "acme", &sample_entry(1, TrialOutcome::Missed)).unwrap();
        sink.board_done(&sample_board_summary(7, 1)).unwrap();
        let (bytes, lines) = sink.finish().unwrap();
        assert_eq!(lines, 3);
        let text = String::from_utf8(bytes).unwrap();
        for line in text.lines() {
            let json = Json::parse(unframe(line).expect("every sink line is framed")).unwrap();
            assert_eq!(json.get("v").and_then(Json::as_u64), Some(2));
            assert_eq!(json.get("board").and_then(Json::as_u64), Some(7));
            match json.get("kind").and_then(Json::as_str) {
                Some("trial") => {
                    assert_eq!(json.get("client_name").and_then(Json::as_str), Some("acme"));
                    CheckpointEntry::from_json(json.get("entry").unwrap()).unwrap();
                }
                Some("board") => {
                    BoardReport::from_json(json.get("report").unwrap()).unwrap();
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
    }

    #[test]
    fn failed_writes_surface_as_typed_sink_errors() {
        /// A writer that accepts `quota` full lines, then fails.
        struct Flaky {
            quota: usize,
            buffer: Vec<u8>,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.buffer.iter().filter(|&&b| b == b'\n').count() >= self.quota {
                    return Err(std::io::Error::other("injected disk failure"));
                }
                self.buffer.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Flaky { quota: 1, buffer: Vec::new() });
        let board = BoardSpec { id: 0, client: 0, seed: 1 };
        sink.record(&board, "a", &sample_entry(0, TrialOutcome::CleanPass)).unwrap();
        let err = sink.record(&board, "a", &sample_entry(1, TrialOutcome::CleanPass)).unwrap_err();
        assert!(matches!(err, FleetError::Sink { .. }), "{err:?}");
        // The latch keeps returning the same failure…
        assert!(sink.record(&board, "a", &sample_entry(2, TrialOutcome::CleanPass)).is_err());
        // …and finish() reports it too.
        assert!(matches!(sink.finish(), Err(FleetError::Sink { .. })));
    }

    #[test]
    fn replay_rejects_malformed_streams() {
        // A wholly-unframed stream is rejected outright — torn-tail
        // tolerance needs at least one valid record first.
        assert!(matches!(replay_summary("not json"), Err(FleetError::Schema { .. })));
        // A frame-valid line whose payload is not JSON proves the
        // writer wrote garbage — that is corruption, not a torn write.
        assert!(matches!(replay_summary(&frame("not json")), Err(FleetError::Json(_))));
        for bad in [
            r#"{"board":0}"#,
            r#"{"v":1,"kind":"trial","board":0,"client":0,"client_name":"x","entry":{}}"#,
            r#"{"v":2,"kind":"trial","client":0,"client_name":"x","entry":{}}"#,
            r#"{"v":2,"kind":"trial","board":0,"client":0,"client_name":"x"}"#,
            r#"{"v":2,"board":0,"client":0,"client_name":"x","entry":{}}"#,
            r#"{"v":2,"kind":"mystery","board":0,"client":0}"#,
            r#"{"v":2,"kind":"board","board":0,"client":0,"crashed":null}"#,
        ] {
            assert!(
                matches!(replay_summary(&frame(bad)), Err(FleetError::Schema { .. })),
                "{bad}"
            );
        }
        // A record whose entry is not a checkpoint entry.
        let bad =
            r#"{"v":2,"kind":"trial","board":0,"client":0,"client_name":"x","entry":{"index":0}}"#;
        assert!(matches!(replay_summary(&frame(bad)), Err(FleetError::Entry(_))));
    }

    #[test]
    fn replay_rejects_client_indices_that_skip_a_client() {
        // The roster is sized by the client indices the records carry:
        // an index no record below it vouches for must be refused before
        // anything is allocated, not overflow or size a huge roster.
        for client in [u64::MAX as usize, 20_000_000, 2] {
            let board = BoardSpec { id: 0, client, seed: 1 };
            let entry = sample_entry(0, TrialOutcome::CleanPass);
            let line = frame(&trial_record(&board, "x", &entry).render());
            assert!(
                matches!(replay_summary_recovered(&line), Err(FleetError::Schema { .. })),
                "client {client}"
            );
        }
    }

    #[test]
    fn replay_detects_board_client_conflicts() {
        let a = frame(
            &trial_record(
                &BoardSpec { id: 0, client: 0, seed: 1 },
                "a",
                &sample_entry(0, TrialOutcome::CleanPass),
            )
            .render(),
        );
        let b = frame(
            &trial_record(
                &BoardSpec { id: 0, client: 1, seed: 1 },
                "b",
                &sample_entry(1, TrialOutcome::CleanPass),
            )
            .render(),
        );
        let text = format!("{a}\n{b}\n");
        assert!(matches!(replay_summary(&text), Err(FleetError::Schema { .. })));
    }

    #[test]
    fn replay_handles_blank_lines_and_interleaving() {
        let b0 = BoardSpec { id: 0, client: 0, seed: 1 };
        let b1 = BoardSpec { id: 1, client: 1, seed: 2 };
        let lines = [
            frame(&trial_record(&b1, "b", &sample_entry(0, TrialOutcome::FalseAlarm)).render()),
            String::new(),
            frame(&trial_record(&b0, "a", &sample_entry(0, TrialOutcome::CleanPass)).render()),
            frame(
                &trial_record(
                    &b1,
                    "b",
                    &sample_entry(1, TrialOutcome::Detected { noise: true, skew: false }),
                )
                .render(),
            ),
        ];
        let (summary, note) = replay_summary_recovered(&lines.join("\n")).unwrap();
        assert_eq!(summary.boards, 2);
        assert_eq!(summary.clients.len(), 2);
        assert_eq!(summary.clients[0].name, "a");
        assert_eq!(summary.clients[1].stats.false_alarms, 1);
        assert_eq!(summary.totals.detected, 1);
        assert_eq!(summary.healthy_boards, 2, "no board lines means spotless defaults");
        assert_eq!(summary.resilience, ResilienceTotals::default());
        assert_eq!(note, RecoveredStream { records: 3, ..RecoveredStream::default() });
        assert!(!note.recovered());
    }

    #[test]
    fn replay_recovers_reports_from_board_lines() {
        let b0 = BoardSpec { id: 0, client: 0, seed: 1 };
        let mut dead = sample_board_summary(1, 0);
        dead.report = BoardReport {
            verdict: BoardVerdict::Dead,
            health: 0.25,
            quarantined_at: Some(2),
            probes: 2,
            ticks: 9,
            retries: 3,
            infra_failures: 3,
            breaker_trips: 1,
            ..BoardReport::default()
        };
        let lines = [
            frame(&trial_record(&b0, "a", &sample_entry(0, TrialOutcome::CleanPass)).render()),
            frame(&board_record(&sample_board_summary(0, 0)).render()),
            frame(
                &trial_record(
                    &BoardSpec { id: 1, client: 0, seed: 2 },
                    "a",
                    &sample_entry(0, TrialOutcome::Shed),
                )
                .render(),
            ),
            frame(&board_record(&dead).render()),
        ];
        let summary = replay_summary(&lines.join("\n")).unwrap();
        assert_eq!(summary.boards, 2);
        assert_eq!(summary.healthy_boards, 1);
        assert_eq!(summary.dead_boards, 1);
        assert_eq!(summary.quarantined.len(), 1);
        assert_eq!(summary.quarantined[0].board, 1);
        assert_eq!(summary.quarantined[0].at_trial, 2);
        assert_eq!(summary.resilience.retries, 3);
        assert_eq!(summary.resilience.breaker_trips, 1);
        assert_eq!(summary.clients[0].health, (1.0 + 0.25) / 2.0);
    }

    #[test]
    fn replay_tolerates_a_torn_final_line_with_a_typed_note() {
        let b0 = BoardSpec { id: 0, client: 0, seed: 1 };
        let whole = frame(&trial_record(&b0, "a", &sample_entry(0, TrialOutcome::CleanPass)).render());
        let torn = &frame(&trial_record(&b0, "a", &sample_entry(1, TrialOutcome::Missed)).render())
            [..40];
        let text = format!("{whole}\n{torn}");
        let (summary, note) = replay_summary_recovered(&text).unwrap();
        assert_eq!(summary.totals.control_trials, 1);
        assert_eq!(summary.totals.defect_trials, 0, "the torn trial is not folded");
        assert_eq!(note.records, 1);
        assert_eq!(note.torn_tail_bytes, 40);
        assert!(note.recovered());
        // The strict alias applies the same tolerance.
        assert_eq!(replay_summary(&text).unwrap(), summary);
    }

    #[test]
    fn replay_rejects_mid_stream_frame_garbage() {
        let b0 = BoardSpec { id: 0, client: 0, seed: 1 };
        let whole = frame(&trial_record(&b0, "a", &sample_entry(0, TrialOutcome::CleanPass)).render());
        // Torn line *followed by* a valid one: torn writes only happen
        // at the tail, so this is corruption and must error.
        let text = format!("{}\n{whole}\n", &whole[..30]);
        assert!(matches!(replay_summary(&text), Err(FleetError::Schema { .. })));
    }

    #[test]
    fn replay_skips_restreamed_duplicate_trials() {
        let b0 = BoardSpec { id: 0, client: 0, seed: 1 };
        let t0 = frame(&trial_record(&b0, "a", &sample_entry(0, TrialOutcome::CleanPass)).render());
        let t1 = frame(&trial_record(&b0, "a", &sample_entry(1, TrialOutcome::Missed)).render());
        // A resume re-streams trial 0 after the recovered prefix.
        let text = format!("{t0}\n{t0}\n{t1}\n");
        let (summary, note) = replay_summary_recovered(&text).unwrap();
        assert_eq!(summary.totals.control_trials, 1, "first occurrence wins, once");
        assert_eq!(summary.totals.defect_trials, 1);
        assert_eq!(note.records, 3);
        assert_eq!(note.duplicate_trials, 1);
        assert!(note.recovered());
    }

    #[test]
    fn replay_folds_adaptive_counters_once_per_trial() {
        let b0 = BoardSpec { id: 0, client: 0, seed: 1 };
        let mut entry = sample_entry(0, TrialOutcome::Detected { noise: true, skew: false });
        entry.dropped = 3;
        entry.escalation = 2;
        let line = frame(&trial_record(&b0, "a", &entry).render());
        // A resumed run re-streams the same trial: the duplicate is
        // skipped, so its counters fold exactly once.
        let text = format!("{line}\n{line}\n");
        let (summary, note) = replay_summary_recovered(&text).unwrap();
        assert_eq!(summary.adaptive, AdaptiveTotals { dropped: 3, escalation: 2 });
        assert_eq!(summary.totals.detected, 1);
        assert_eq!(note.duplicate_trials, 1);
    }

    #[test]
    fn raw_sink_lines_are_unframed() {
        let sink = JsonlSink::raw(Vec::new());
        let board = BoardSpec { id: 3, client: 0, seed: 9 };
        sink.record(&board, "a", &sample_entry(0, TrialOutcome::CleanPass)).unwrap();
        let (bytes, lines) = sink.finish().unwrap();
        assert_eq!(lines, 1);
        let text = String::from_utf8(bytes).unwrap();
        let line = text.lines().next().unwrap();
        assert!(unframe(line).is_err(), "raw lines carry no frame");
        Json::parse(line).expect("raw lines are the bare record payload");
    }
}
