//! The floor engine.
//!
//! Pending boards run in checkpoint chunks, each chunk through
//! `Pool::try_map`: workers claim boards from one shared cursor, so a
//! slow board holds up only the worker running it and no board is
//! pinned to a worker. Each board runs serially under a
//! [`BoardSupervisor`] (backoff-governed retries, circuit-breaker
//! quarantine, sink spooling; see [`crate::supervisor`]), optionally
//! with a deterministic [`ChaosPlan`] injecting faults — pushing
//! per-trial checkpoint records into the caller's [`RecordSink`] as
//! they finish; only the board's [`CampaignStats`] counters and its
//! [`BoardReport`] come back to the scheduler. A board whose job
//! panics comes back as `try_map`'s `JobPanic` and is recorded as
//! crashed; its siblings keep their results. The merged
//! [`FleetSummary`] folds the boards in board-id order — the order is
//! fixed and the folds commute, so the summary is byte-identical at
//! any thread count, chaos included.

use crate::chaos::ChaosPlan;
use crate::checkpoint::FleetCheckpoint;
use crate::error::FleetError;
use crate::record::RecordSink;
use crate::spec::{BoardSpec, FloorSpec};
use crate::supervisor::{BoardReport, BoardSupervisor, BoardVerdict, SupervisorConfig};
use sint_core::campaign::CampaignStats;
use sint_runtime::cancel::CancelToken;
use sint_runtime::json::{Json, ToJson};
use sint_runtime::pool::Pool;
use std::time::Duration;

/// Adaptive-engine counters folded over trial records: how many
/// pattern halves the coverage ledger dropped and how many
/// binary-search escalation passes ran. All-zero on exhaustive floors,
/// so the JSON stays byte-compatible when the adaptive engine is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveTotals {
    /// Pattern halves skipped because their pairs were already covered.
    pub dropped: u64,
    /// Binary-search escalation passes run by flagged probes.
    pub escalation: u64,
}

impl AdaptiveTotals {
    /// Folds one trial record's counters into the totals.
    pub fn absorb_entry(&mut self, dropped: u64, escalation: u64) {
        self.dropped += dropped;
        self.escalation += escalation;
    }

    /// Folds another totals value in.
    pub fn merge(&mut self, other: &AdaptiveTotals) {
        self.dropped += other.dropped;
        self.escalation += other.escalation;
    }
}

impl ToJson for AdaptiveTotals {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dropped", self.dropped.to_json()),
            ("escalation", self.escalation.to_json()),
        ])
    }
}

/// What one board's campaign produced; also the board's fleet
/// checkpoint entry (its checkpoint form is in [`crate::checkpoint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BoardSummary {
    /// The board's floor position.
    pub board: usize,
    /// Index of the owning client.
    pub client: usize,
    /// The board's derived seed (checkpoint key, with `board` and
    /// `client`).
    pub seed: u64,
    /// Aggregate trial statistics (zeroed when the board crashed).
    pub stats: CampaignStats,
    /// The panic message when the board's harness crashed outright —
    /// the scheduler's backstop; trial-level panics are already
    /// isolated inside the campaign and show up as `failed_trials`.
    pub crashed: Option<String>,
    /// The supervisor's resilience report ([`BoardReport::crashed`]
    /// when the board's harness crashed).
    pub report: BoardReport,
    /// Adaptive-engine counters summed over the board's trials
    /// (all-zero on exhaustive floors).
    pub adaptive: AdaptiveTotals,
}

/// One client's slice of the merged summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSummary {
    /// The client's display name.
    pub name: String,
    /// Boards the client owned.
    pub boards: usize,
    /// Mean final health of the client's boards (1.0 when it owns
    /// none), folded in board-id order.
    pub health: f64,
    /// Counters merged over the client's boards, in board-id order.
    pub stats: CampaignStats,
}

impl ToJson for ClientSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("boards", self.boards.to_json()),
            ("health", self.health.to_json()),
            ("stats", self.stats.to_json()),
        ])
    }
}

/// One quarantined board in the merged summary: where and after how
/// much probing its supervisor gave up on the fixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The board's floor position.
    pub board: usize,
    /// Index of the owning client.
    pub client: usize,
    /// Trial index at which the breaker opened for good.
    pub at_trial: usize,
    /// Half-open re-admission probes that all failed.
    pub probes: u64,
    /// The board's virtual-clock reading at the end of its run.
    pub ticks: u64,
}

impl ToJson for QuarantineRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("board", self.board.to_json()),
            ("client", self.client.to_json()),
            ("at_trial", self.at_trial.to_json()),
            ("probes", self.probes.to_json()),
            ("ticks", self.ticks.to_json()),
        ])
    }
}

/// Floor-wide resilience counters, folded over every board's
/// [`BoardReport`] in board-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceTotals {
    /// Extra attempts beyond the first, across all boards.
    pub retries: u64,
    /// Attempts classified as infrastructure failures.
    pub infra_failures: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Half-open re-admission probes run.
    pub probes: u64,
    /// Record-sink write failures observed.
    pub sink_errors: u64,
    /// Records that travelled through supervisor spools.
    pub spooled: u64,
    /// Records lost to spool bounds or unrecovered sinks.
    pub dropped_records: u64,
}

impl ResilienceTotals {
    /// Folds one board's report into the totals.
    pub fn absorb(&mut self, report: &BoardReport) {
        self.retries += report.retries;
        self.infra_failures += report.infra_failures;
        self.breaker_trips += report.breaker_trips;
        self.probes += report.probes;
        self.sink_errors += report.sink_errors;
        self.spooled += report.spooled;
        self.dropped_records += report.dropped_records;
    }
}

impl ToJson for ResilienceTotals {
    fn to_json(&self) -> Json {
        Json::obj([
            ("retries", self.retries.to_json()),
            ("infra_failures", self.infra_failures.to_json()),
            ("breaker_trips", self.breaker_trips.to_json()),
            ("probes", self.probes.to_json()),
            ("sink_errors", self.sink_errors.to_json()),
            ("spooled", self.spooled.to_json()),
            ("dropped_records", self.dropped_records.to_json()),
        ])
    }
}

/// The merged result of a fleet run: per-client and floor-wide
/// counters, board verdicts and resilience totals. Deliberately tiny —
/// the per-trial record stream is the full-resolution result; this is
/// the invariant-bearing digest that `verify.sh` byte-compares across
/// thread counts (and, in the `chaos_matrix` gate, under active fault
/// injection).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Boards on the floor.
    pub boards: usize,
    /// Boards whose harness crashed outright.
    pub crashed_boards: usize,
    /// Boards whose fixture stayed spotless.
    pub healthy_boards: usize,
    /// Boards that took infrastructure faults but recovered by retry.
    pub flaky_boards: usize,
    /// Boards quarantined (or crashed) as untrustworthy fixtures.
    pub dead_boards: usize,
    /// The quarantine roster, in board-id order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Per-client summaries, in roster order.
    pub clients: Vec<ClientSummary>,
    /// Counters merged over every board.
    pub totals: CampaignStats,
    /// Adaptive-engine counters merged over every board (all-zero on
    /// exhaustive floors).
    pub adaptive: AdaptiveTotals,
    /// Resilience counters merged over every board.
    pub resilience: ResilienceTotals,
}

impl ToJson for FleetSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("boards", self.boards.to_json()),
            ("crashed_boards", self.crashed_boards.to_json()),
            ("healthy_boards", self.healthy_boards.to_json()),
            ("flaky_boards", self.flaky_boards.to_json()),
            ("dead_boards", self.dead_boards.to_json()),
            ("quarantined", Json::Array(self.quarantined.iter().map(ToJson::to_json).collect())),
            ("clients", Json::Array(self.clients.iter().map(ToJson::to_json).collect())),
            ("totals", self.totals.to_json()),
            ("adaptive", self.adaptive.to_json()),
            ("resilience", self.resilience.to_json()),
        ])
    }
}

/// The long-running floor engine: a validated [`FloorSpec`] plus
/// fleet-level deadline and resilience knobs.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    spec: FloorSpec,
    deadline: Option<Duration>,
    supervision: SupervisorConfig,
    chaos: Option<ChaosPlan>,
}

impl FleetEngine {
    /// Wraps a validated spec. Every board runs supervised, under the
    /// default [`SupervisorConfig`] until [`FleetEngine::supervisor`]
    /// overrides it.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadSpec`] when the floor description is unusable.
    pub fn new(spec: FloorSpec) -> Result<FleetEngine, FleetError> {
        spec.validate()?;
        Ok(FleetEngine {
            spec,
            deadline: None,
            supervision: SupervisorConfig::default(),
            chaos: None,
        })
    }

    /// Bounds the whole fleet run: the deadline token is the parent of
    /// every client's admission token, so when it fires every client
    /// sheds its remaining trials.
    #[must_use]
    pub fn deadline(mut self, total: Duration) -> FleetEngine {
        self.deadline = Some(total);
        self
    }

    /// Overrides the supervisor configuration.
    #[must_use]
    pub fn supervisor(mut self, config: SupervisorConfig) -> FleetEngine {
        self.supervision = config;
        self
    }

    /// Installs a deterministic chaos plan: its faults are injected at
    /// the plan's `(board, trial)` coordinates and the supervisor
    /// absorbs them. Determinism is preserved — the plan is a pure
    /// function of its seed.
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> FleetEngine {
        self.chaos = Some(plan);
        self
    }

    /// The floor this engine runs.
    #[must_use]
    pub fn spec(&self) -> &FloorSpec {
        &self.spec
    }

    /// Runs the whole floor across `threads` workers, streaming every
    /// trial record into `sink`.
    #[must_use]
    pub fn run(&self, threads: usize, sink: &dyn RecordSink) -> FleetSummary {
        let mut checkpoint = FleetCheckpoint::new();
        self.run_checkpointed(threads, &mut checkpoint, usize::MAX, sink, |_| {})
    }

    /// Runs the floor with board-granular checkpointing and resume.
    ///
    /// Boards already in `checkpoint` (matched by id, seed and client) are
    /// skipped — their counters and reports are folded straight into
    /// the summary and their trial records do **not** re-stream. The
    /// rest run in chunks of `snapshot_every` boards, each chunk
    /// claimed board by board from `Pool::try_map`'s shared cursor,
    /// with `snap` invoked after each chunk (typically to persist the
    /// checkpoint's JSON). Because boards are pure functions of their
    /// id — supervisor state and chaos schedules included — the
    /// resumed merged summary is byte-identical to an uninterrupted
    /// run at any thread count.
    ///
    /// **Durability convention** (the write-ahead ordering the tools
    /// follow): inside `snap`, flush the record sink
    /// ([`crate::JsonlSink::flush`]) *before* persisting the
    /// checkpoint (e.g. [`FleetCheckpoint::store_pair`] into a
    /// [`sint_runtime::durable::GenPair`]). Then a crash at any byte
    /// offset leaves every checkpointed board's records on disk ahead
    /// of the checkpoint that claims them, and the recovered stream
    /// plus the resumed run's re-streamed records fold — duplicates
    /// deduped — to the exact uninterrupted summary
    /// ([`crate::replay_summary_recovered`]).
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint` claims a board the floor does not have
    /// under a matching seed *and* bookkeeping failed to record one —
    /// both mean a checkpoint from a different floor slipped past the
    /// seed key.
    pub fn run_checkpointed(
        &self,
        threads: usize,
        checkpoint: &mut FleetCheckpoint,
        snapshot_every: usize,
        sink: &dyn RecordSink,
        mut snap: impl FnMut(&FleetCheckpoint),
    ) -> FleetSummary {
        // Admission tokens are created once, up front: a client budget
        // spans the whole run, and every client token is a child of the
        // fleet deadline token (when one is set) so fleet-wide
        // cancellation reaches every trial poll.
        let fleet_token = self.deadline.map(CancelToken::with_deadline);
        let client_tokens: Vec<Option<CancelToken>> = self
            .spec
            .clients()
            .iter()
            .map(|client| match (&fleet_token, client.budget) {
                (None, None) => None,
                (Some(fleet), None) => Some(fleet.child()),
                (None, Some(budget)) => Some(CancelToken::with_deadline(budget)),
                (Some(fleet), Some(budget)) => Some(fleet.child_with_deadline(budget)),
            })
            .collect();

        let pending: Vec<BoardSpec> = (0..self.spec.boards())
            .map(|id| self.spec.board(id))
            .filter(|b| recorded(checkpoint, b).is_none())
            .collect();
        let pool = Pool::new(threads);
        let campaign = self.spec.campaign();
        let supervisor = BoardSupervisor::new(
            &self.supervision,
            self.chaos.as_ref(),
            &campaign,
            self.spec.wires_each(),
        )
        .adaptive(self.spec.is_adaptive());

        for chunk in pending.chunks(snapshot_every.max(1)) {
            let results = pool.try_map(chunk, |_, board| {
                let client = &self.spec.clients()[board.client];
                let trials = self.spec.trials(board);
                let budget = client_tokens[board.client].as_ref();
                let (stats, report, adaptive) =
                    supervisor.run_board(board, &trials, budget, sink, &client.name);
                let summary = BoardSummary {
                    board: board.id,
                    client: board.client,
                    seed: board.seed,
                    stats,
                    crashed: None,
                    report,
                    adaptive,
                };
                let _ = sink.board_done(&summary);
                summary
            });
            for (board, result) in chunk.iter().zip(results) {
                let summary = result.unwrap_or_else(|panic| {
                    let summary = BoardSummary {
                        board: board.id,
                        client: board.client,
                        seed: board.seed,
                        stats: CampaignStats::default(),
                        crashed: Some(panic.message),
                        report: BoardReport::crashed(),
                        adaptive: AdaptiveTotals::default(),
                    };
                    let _ = sink.board_done(&summary);
                    summary
                });
                checkpoint.record(summary);
            }
            snap(checkpoint);
        }
        self.summarize(checkpoint)
    }

    /// Folds the checkpoint's per-board counters and reports into the
    /// merged summary, in board-id order.
    fn summarize(&self, checkpoint: &FleetCheckpoint) -> FleetSummary {
        let mut clients: Vec<ClientSummary> = self
            .spec
            .clients()
            .iter()
            .map(|c| ClientSummary {
                name: c.name.clone(),
                boards: 0,
                health: 1.0,
                stats: CampaignStats::default(),
            })
            .collect();
        let mut health_sums = vec![0.0f64; clients.len()];
        let mut totals = CampaignStats::default();
        let mut adaptive = AdaptiveTotals::default();
        let mut resilience = ResilienceTotals::default();
        let mut crashed_boards = 0usize;
        let mut healthy_boards = 0usize;
        let mut flaky_boards = 0usize;
        let mut dead_boards = 0usize;
        let mut quarantined = Vec::new();
        for id in 0..self.spec.boards() {
            let board = self.spec.board(id);
            let entry =
                recorded(checkpoint, &board).expect("every pending board was just recorded");
            let client = &mut clients[entry.client];
            client.boards += 1;
            client.stats.merge(&entry.stats);
            health_sums[entry.client] += entry.report.health;
            totals.merge(&entry.stats);
            adaptive.merge(&entry.adaptive);
            resilience.absorb(&entry.report);
            if entry.crashed.is_some() {
                crashed_boards += 1;
            }
            match entry.report.verdict {
                BoardVerdict::Healthy => healthy_boards += 1,
                BoardVerdict::Flaky => flaky_boards += 1,
                BoardVerdict::Dead => dead_boards += 1,
            }
            if let Some(at_trial) = entry.report.quarantined_at {
                quarantined.push(QuarantineRecord {
                    board: entry.board,
                    client: entry.client,
                    at_trial,
                    probes: entry.report.probes,
                    ticks: entry.report.ticks,
                });
            }
        }
        for (client, sum) in clients.iter_mut().zip(health_sums) {
            if client.boards > 0 {
                client.health = sum / client.boards as f64;
            }
        }
        FleetSummary {
            boards: self.spec.boards(),
            crashed_boards,
            healthy_boards,
            flaky_boards,
            dead_boards,
            quarantined,
            clients,
            totals,
            adaptive,
            resilience,
        }
    }
}

/// The entry `checkpoint` holds for `board`: same id, seed and client.
/// Any other entry belongs to a different floor, so the board re-runs.
fn recorded<'c>(checkpoint: &'c FleetCheckpoint, board: &BoardSpec) -> Option<&'c BoardSummary> {
    checkpoint.entry_for(board.id, board.seed).filter(|e| e.client == board.client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NullSink;
    use crate::spec::ClientSpec;

    fn small_floor() -> FloorSpec {
        FloorSpec::new(12)
            .trials_per_board(2)
            .with_clients(vec![ClientSpec::new("a"), ClientSpec::new("b")])
    }

    #[test]
    fn merged_summary_is_thread_count_invariant() {
        let engine = FleetEngine::new(small_floor()).unwrap();
        let serial = engine.run(1, &NullSink);
        for threads in [2, 4, 8] {
            let parallel = engine.run(threads, &NullSink);
            assert_eq!(
                parallel.to_json().render(),
                serial.to_json().render(),
                "{threads} threads"
            );
        }
        assert_eq!(serial.boards, 12);
        assert_eq!(serial.crashed_boards, 0);
        assert_eq!(serial.healthy_boards, 12, "no chaos, every fixture spotless");
        assert_eq!(serial.clients.len(), 2);
        assert_eq!(serial.clients[0].boards, 6);
        assert_eq!(serial.clients[0].health, 1.0);
        assert_eq!(serial.resilience, ResilienceTotals::default());
        let mut refold = CampaignStats::default();
        for c in &serial.clients {
            refold.merge(&c.stats);
        }
        assert_eq!(refold, serial.totals, "client slices partition the totals");
    }

    #[test]
    fn expired_fleet_deadline_sheds_every_trial() {
        let engine =
            FleetEngine::new(small_floor()).unwrap().deadline(Duration::ZERO);
        let summary = engine.run(4, &NullSink);
        assert_eq!(summary.totals.shed_trials, 12 * 2);
        assert_eq!(summary.totals.defect_trials + summary.totals.control_trials, 0);
        assert_eq!(summary.crashed_boards, 0);
    }

    /// Panics on every record of one board, so that board's job dies
    /// outside the campaign's own per-attempt isolation.
    struct PanickingSink {
        board: usize,
    }

    impl RecordSink for PanickingSink {
        fn record(
            &self,
            board: &BoardSpec,
            _client: &str,
            _entry: &sint_core::checkpoint::CheckpointEntry,
        ) -> Result<(), FleetError> {
            if board.id == self.board {
                panic!("sink exploded on board {}", board.id);
            }
            Ok(())
        }
    }

    #[test]
    fn a_board_whose_job_panics_crashes_alone() {
        let engine = FleetEngine::new(small_floor()).unwrap();
        let mut reference = FleetCheckpoint::new();
        let _ = engine.run_checkpointed(1, &mut reference, 4, &NullSink, |_| {});
        let mut first = None;
        for threads in [1, 2, 8] {
            let mut checkpoint = FleetCheckpoint::new();
            let sink = PanickingSink { board: 5 };
            let summary = engine.run_checkpointed(threads, &mut checkpoint, 4, &sink, |_| {});
            assert_eq!(summary.crashed_boards, 1, "{threads} threads");
            for id in 0..engine.spec.boards() {
                let board = engine.spec.board(id);
                let entry = checkpoint.entry_for(id, board.seed).unwrap();
                if id == 5 {
                    assert_eq!(entry.crashed.as_deref(), Some("sink exploded on board 5"));
                    assert_eq!(entry.report, BoardReport::crashed());
                } else {
                    assert_eq!(Some(entry), reference.entry_for(id, board.seed), "board {id}");
                }
            }
            let rendered = summary.to_json().render();
            match &first {
                None => first = Some(rendered),
                Some(serial) => assert_eq!(&rendered, serial, "{threads} threads"),
            }
        }
    }

    #[test]
    fn bad_spec_is_refused_at_construction() {
        assert!(matches!(
            FleetEngine::new(FloorSpec::new(0)),
            Err(FleetError::BadSpec { .. })
        ));
    }

    #[test]
    fn adaptive_floor_is_thread_invariant_and_replays_exactly() {
        use crate::record::{replay_summary, JsonlSink};
        let floor = || {
            FloorSpec::new(6)
                .trials_per_board(4)
                .adaptive(true)
                .with_clients(vec![ClientSpec::new("a"), ClientSpec::new("b")])
        };
        let engine = FleetEngine::new(floor()).unwrap();
        let sink = JsonlSink::new(Vec::new());
        let serial = engine.run(1, &sink);
        assert!(
            serial.adaptive.dropped > 0,
            "boards with repeated defects must drop covered halves: {:?}",
            serial.adaptive
        );
        let (bytes, _) = sink.finish().unwrap();
        let replayed = replay_summary(&String::from_utf8(bytes).unwrap()).unwrap();
        assert_eq!(
            replayed.to_json().render(),
            serial.to_json().render(),
            "the streamed artifact folds to the in-memory summary, counters included"
        );
        for threads in [2, 4] {
            let parallel = engine.run(threads, &NullSink);
            assert_eq!(parallel.to_json().render(), serial.to_json().render(), "{threads} threads");
        }
    }

    #[test]
    fn an_entry_recorded_for_another_client_reruns_its_board() {
        // Board and seed match but the client does not, out of range or
        // just wrong: the entry belongs to another floor, so the board
        // re-runs and the summary is the untampered run's.
        let engine = FleetEngine::new(small_floor()).unwrap();
        let mut done = FleetCheckpoint::new();
        let reference = engine.run_checkpointed(2, &mut done, 4, &NullSink, |_| {});
        let board = engine.spec.board(0);
        for client in [7, 1 - board.client] {
            let mut tampered = done.clone();
            let mut entry = tampered.entry_for(board.id, board.seed).unwrap().clone();
            entry.client = client;
            tampered.record(entry);
            let resumed = engine.run_checkpointed(2, &mut tampered, 4, &NullSink, |_| {});
            assert_eq!(resumed.to_json().render(), reference.to_json().render(), "client {client}");
            assert_eq!(tampered, done, "client {client}: the re-run replaced the entry");
        }
    }

    #[test]
    fn kill_resume_summary_is_byte_identical() {
        let engine = FleetEngine::new(small_floor()).unwrap();
        let mut reference_ckpt = FleetCheckpoint::new();
        let reference =
            engine.run_checkpointed(2, &mut reference_ckpt, 4, &NullSink, |_| {});

        // Capture the first snapshot, abandon the rest (a kill), then
        // resume from the persisted text on a different thread count.
        let mut first = None;
        let mut halted = FleetCheckpoint::new();
        let _ = engine.run_checkpointed(1, &mut halted, 4, &NullSink, |cp| {
            if first.is_none() {
                first = Some(cp.to_json().render());
            }
        });
        let snapshot = first.expect("at least one snapshot");
        let mut resumed_ckpt = FleetCheckpoint::parse(&snapshot).unwrap();
        assert_eq!(resumed_ckpt.len(), 4, "snapshot holds the first chunk");
        let resumed =
            engine.run_checkpointed(8, &mut resumed_ckpt, 4, &NullSink, |_| {});
        assert_eq!(resumed.to_json().render(), reference.to_json().render());
    }
}
