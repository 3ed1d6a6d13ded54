//! Integration tests for the fleet resilience layer: deterministic
//! chaos injection, flaky-vs-dead classification, quarantine shedding,
//! sink spooling, and fleet checkpoint round trips — all under the same
//! determinism invariant as a fault-free floor.

use sint_core::campaign::{ShedReason, TrialOutcome};
use sint_fleet::{
    replay_summary, BoardVerdict, ChaosKind, ChaosPlan, ClientSpec, FleetCheckpoint, FleetEngine,
    FleetEvent, FloorSpec, JsonlSink, NullSink, SupervisorConfig,
};
use sint_runtime::json::{Json, ToJson};

fn floor(boards: usize) -> FloorSpec {
    FloorSpec::new(boards)
        .trials_per_board(3)
        .seed(0xC4A05)
        .with_clients(vec![ClientSpec::new("acme"), ClientSpec::new("initech")])
}

/// A plan that exercises every fault kind: population rates plus one
/// explicit injection of each kind and one outright kill.
fn stormy_plan() -> ChaosPlan {
    ChaosPlan::new(77)
        .rates(0.25, 0.1, 0.6)
        .inject(0, 0, ChaosKind::Scan)
        .inject(1, 1, ChaosKind::Wedge)
        .inject(2, 0, ChaosKind::Panic)
        .inject(3, 2, ChaosKind::Sink)
        .kill(4)
}

#[test]
fn chaotic_summary_is_thread_count_invariant() {
    let serial = FleetEngine::new(floor(16))
        .unwrap()
        .chaos(stormy_plan())
        .run(1, &NullSink);
    assert!(serial.dead_boards > 0, "the storm must actually kill boards");
    assert!(serial.resilience.infra_failures > 0, "and inject real faults");
    for threads in [2, 8] {
        let sharded = FleetEngine::new(floor(16))
            .unwrap()
            .chaos(stormy_plan())
            .run(threads, &NullSink);
        assert_eq!(
            sharded.to_json().render(),
            serial.to_json().render(),
            "{threads} threads under active chaos"
        );
    }
}

#[test]
fn kill_resume_under_chaos_is_byte_identical() {
    let engine = || FleetEngine::new(floor(12)).unwrap().chaos(stormy_plan());
    let mut reference_ckpt = FleetCheckpoint::new();
    let reference =
        engine().run_checkpointed(2, &mut reference_ckpt, 4, &NullSink, |_| {});

    // Kill after the first snapshot, then resume from its JSON at a
    // different thread count — chaos and supervisor state included.
    let mut first = None;
    let mut halted = FleetCheckpoint::new();
    let _ = engine().run_checkpointed(1, &mut halted, 4, &NullSink, |cp| {
        if first.is_none() {
            first = Some(cp.to_json().render());
        }
    });
    let mut resumed_ckpt = FleetCheckpoint::parse(&first.expect("one snapshot")).unwrap();
    let resumed = engine().run_checkpointed(8, &mut resumed_ckpt, 4, &NullSink, |_| {});
    assert_eq!(resumed.to_json().render(), reference.to_json().render());
}

#[test]
fn killed_boards_are_quarantined_and_never_blame_the_interconnect() {
    let plan = ChaosPlan::new(5).kill(3);
    let summary = FleetEngine::new(floor(8)).unwrap().chaos(plan).run(4, &NullSink);
    assert_eq!(summary.dead_boards, 1);
    assert_eq!(summary.quarantined.len(), 1);
    let q = summary.quarantined[0];
    assert_eq!(q.board, 3);
    assert!(q.probes >= 2, "both re-admission probes ran and failed");

    // The dead fixture's trials end as failed or shed — a chain fault
    // must never surface as an interconnect verdict (detected, missed,
    // false alarm or clean pass all imply a trusted session).
    let mut ckpt = FleetCheckpoint::new();
    let plan = ChaosPlan::new(5).kill(3);
    let engine = FleetEngine::new(floor(8)).unwrap().chaos(plan);
    let _ = engine.run_checkpointed(1, &mut ckpt, usize::MAX, &NullSink, |_| {});
    let dead = ckpt.entries().iter().find(|e| e.board == 3).unwrap();
    assert_eq!(dead.report.verdict, BoardVerdict::Dead);
    assert_eq!(dead.stats.defect_trials, 0, "no verdicts from a dead fixture");
    assert_eq!(dead.stats.control_trials, 0);
    assert_eq!(dead.stats.false_alarms, 0);
    assert_eq!(dead.stats.detected, 0);
    // With the default thresholds the breaker trips inside trial 0
    // (three consecutive infrastructure failures), so every trial of
    // the dead board is shed as quarantined.
    assert_eq!(dead.stats.shed_trials, 3, "all trials shed, none misjudged");
    assert_eq!(dead.stats.failed_trials, 0);
}

#[test]
fn flaky_boards_recover_by_retry_and_keep_their_verdicts() {
    // One transient scan fault at (0, 0): attempt 0 refuses the
    // session, attempt 1 sees a healthy fixture and judges normally.
    let plan = ChaosPlan::new(9).inject(0, 0, ChaosKind::Scan);
    let clean = FleetEngine::new(floor(4)).unwrap().run(2, &NullSink);
    let stormy = FleetEngine::new(floor(4)).unwrap().chaos(plan).run(2, &NullSink);
    assert_eq!(stormy.flaky_boards, 1);
    assert_eq!(stormy.dead_boards, 0);
    assert_eq!(stormy.resilience.retries, 1, "exactly the one recovery retry");
    assert_eq!(stormy.resilience.infra_failures, 1);
    assert_eq!(stormy.resilience.breaker_trips, 0, "one blip never trips the breaker");
    // Every trial still produced a verdict — nothing shed, nothing failed.
    assert_eq!(stormy.totals.failed_trials, 0);
    assert_eq!(stormy.totals.shed_trials, 0);
    assert_eq!(
        stormy.totals.defect_trials + stormy.totals.control_trials,
        clean.totals.defect_trials + clean.totals.control_trials,
    );
    assert!(stormy.clients[0].health < 1.0, "the blip dents the owner's health");
}

#[test]
fn sink_faults_spool_and_flush_without_losing_records() {
    // A sink-write fault at (1, 0): the record spools and flushes on
    // the next successful write — the artifact stays complete and the
    // fixture's health is untouched.
    let plan = ChaosPlan::new(3).inject(1, 0, ChaosKind::Sink);
    let sink = JsonlSink::new(Vec::new());
    let summary = FleetEngine::new(floor(4)).unwrap().chaos(plan).run(1, &sink);
    assert_eq!(summary.resilience.sink_errors, 1);
    assert_eq!(summary.resilience.spooled, 1);
    assert_eq!(summary.resilience.dropped_records, 0);
    assert_eq!(summary.healthy_boards, 4, "a sink fault is not a fixture fault");

    let (bytes, _) = sink.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let trial_lines = text
        .lines()
        .filter(|l| {
            let payload = sint_runtime::durable::unframe(l).expect("framed line");
            Json::parse(payload).unwrap().get("kind").and_then(Json::as_str) == Some("trial")
        })
        .count();
    assert_eq!(trial_lines, 4 * 3, "the spooled record flushed — nothing lost");
    // And the artifact still replays to the exact in-memory summary.
    let replayed = replay_summary(&text).unwrap();
    assert_eq!(replayed.to_json().render(), summary.to_json().render());
}

#[test]
fn chaotic_stream_sheds_quarantined_trials_with_a_typed_reason() {
    let plan = ChaosPlan::new(5).kill(0);
    let engine = FleetEngine::new(floor(2)).unwrap().chaos(plan);
    let mut quarantined_sheds = 0usize;
    for event in engine.stream(2, 8) {
        if let FleetEvent::Trial { board, entry, .. } = event {
            if board.id == 0 && entry.outcome == TrialOutcome::Shed {
                if let Some(shed) = entry.shed {
                    if shed.reason == ShedReason::Quarantined {
                        quarantined_sheds += 1;
                    }
                }
            }
        }
    }
    assert!(quarantined_sheds > 0, "quarantine reaches the stream as typed sheds");
}

#[test]
fn supervisor_config_is_honoured() {
    // With a breaker that trips on the first failure and zero probes
    // forced to one, a killed board quarantines at trial 0.
    let config = SupervisorConfig { trip_after: 1, probes: 1, ..SupervisorConfig::default() };
    let plan = ChaosPlan::new(2).kill(1);
    let summary = FleetEngine::new(floor(2))
        .unwrap()
        .supervisor(config)
        .chaos(plan)
        .run(1, &NullSink);
    assert_eq!(summary.quarantined.len(), 1);
    assert_eq!(summary.quarantined[0].at_trial, 0);
    assert_eq!(summary.quarantined[0].probes, 1);
}
