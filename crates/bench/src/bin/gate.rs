//! **Tool** — the determinism, kill/resume and crash-recovery gates of
//! `scripts/verify.sh`, one bin driven by one scenario table.
//!
//! ```text
//! gate <scenario> <args…>
//! ```
//!
//! Run bare `gate` for each scenario's operands and flags.
//!
//! | scenario | proves |
//! |----------|--------|
//! | `campaign` | a sabotaged checkpointed campaign resumes byte-identically, shed records included |
//! | `adaptive` | the adaptive engine detects exactly what the exhaustive oracle does, and resumes byte-identically |
//! | `fleet` | a 1000-board floor resumes byte-identically from a generation pair and a torn record stream |
//! | `chaos` | `fleet` under an active [`ChaosPlan`], never blaming an apparatus fault on the interconnect |
//! | `batch` | batched (panel) solves are bitwise-identical to unbatched ones |
//! | `degraded` | every scan-chain fault meets the degraded-mode policy contract |
//!
//! Each scenario runs a fixed workload and writes its summary JSON,
//! which must be byte-identical at any `SINT_THREADS` and across any
//! kill and resume; `verify.sh` `cmp`s the files. A scenario rejects
//! any flag it does not list.
//!
//! Exit codes:
//!
//! - 0: done.
//! - 1: `degraded` — the policy matrix violates its contract.
//! - 2: usage or IO error, or an `adaptive` equivalence failure.
//! - 3: halted or killed deliberately (`--halt-after`,
//!   `--kill-at-byte`, `--torn-ckpt`).
//! - 4: `chaos` — an injected infrastructure fault surfaced as an
//!   interconnect verdict.
//! - 5: `fleet` / `chaos` — the record-stream replay disagrees with the
//!   merged summary.

use sint_bench::threads_from_env;
use sint_core::campaign::{Campaign, RetryPolicy, Trial, TrialOutcome};
use sint_core::checkpoint::{CampaignCheckpoint, CheckpointEntry};
use sint_core::degrade::ChainPolicy;
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_core::CoreError;
use sint_fleet::{
    replay_summary_recovered, BoardProfile, BoardSpec, BoardSummary, ChaosKind, ChaosPlan,
    ClientSpec, FleetCheckpoint, FleetEngine, FleetError, FloorSpec, JsonlSink, NullSink,
    RecordSink,
};
use sint_interconnect::params::BusParams;
use sint_interconnect::variation::VariationSigma;
use sint_interconnect::Defect;
use sint_jtag::fault::ScanFault;
use sint_jtag::state::TapState;
use sint_runtime::durable::{recover_stream_file, AtomicFile, FuseWriter, GenPair};
use sint_runtime::json::{Json, ToJson};
use sint_runtime::pool::Pool;
use sint_runtime::rng::Rng64;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const DONE: u8 = 0;
const VIOLATED: u8 = 1;
const FAILURE: u8 = 2;
const HALTED: u8 = 3;
const MISATTRIBUTED: u8 = 4;
const REPLAY_DISAGREES: u8 = 5;

/// The scenario table: every scenario with its operands, the flags it
/// accepts, and the function that runs it.
const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "campaign",
        operands: &["<checkpoint.json>", "<summary.json>"],
        flags: &[Flag::HaltAfter, Flag::DeadlineMs],
        run: campaign,
    },
    Scenario {
        name: "adaptive",
        operands: &["<checkpoint.json>", "<summary.json>"],
        flags: &[Flag::HaltAfter],
        run: adaptive,
    },
    Scenario {
        name: "fleet",
        operands: &["<checkpoint>", "<summary.json>"],
        flags: &[Flag::HaltAfter, Flag::Records, Flag::KillAtByte, Flag::TornCkpt],
        run: fleet,
    },
    Scenario {
        name: "chaos",
        operands: &["<checkpoint>", "<summary.json>"],
        flags: &[Flag::HaltAfter, Flag::Records, Flag::KillAtByte],
        run: chaos,
    },
    Scenario {
        name: "batch",
        operands: &["<panel_width>", "<summary.json>"],
        flags: &[],
        run: batch,
    },
    Scenario { name: "degraded", operands: &["<summary.json>"], flags: &[], run: degraded },
];

struct Scenario {
    name: &'static str,
    operands: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args, usize) -> Result<u8, String>,
}

impl Scenario {
    fn usage(&self) -> String {
        let flags: Vec<String> =
            self.flags.iter().map(|f| format!(" [{} {}]", f.spelling(), f.operand())).collect();
        format!("gate {} {}{}", self.name, self.operands.join(" "), flags.concat())
    }
}

/// A flag; each takes exactly one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flag {
    HaltAfter,
    DeadlineMs,
    Records,
    KillAtByte,
    TornCkpt,
}

impl Flag {
    fn spelling(self) -> &'static str {
        match self {
            Flag::HaltAfter => "--halt-after",
            Flag::DeadlineMs => "--deadline-ms",
            Flag::Records => "--records",
            Flag::KillAtByte => "--kill-at-byte",
            Flag::TornCkpt => "--torn-ckpt",
        }
    }

    fn operand(self) -> &'static str {
        match self {
            Flag::HaltAfter | Flag::DeadlineMs => "N",
            Flag::Records => "<records.jsonl>",
            Flag::KillAtByte => "<N|rand:SEED>",
            Flag::TornCkpt => "K",
        }
    }
}

/// A scenario's parsed arguments: its operands in table order, plus
/// the flags it accepts.
#[derive(Debug, Default)]
struct Args {
    operands: Vec<String>,
    halt_after: Option<usize>,
    deadline_ms: Option<u64>,
    records: Option<String>,
    kill_at_byte: Option<u64>,
    torn_ckpt: Option<usize>,
}

fn usage_all() -> String {
    let lines: Vec<String> = SCENARIOS.iter().map(|s| format!("  {}", s.usage())).collect();
    format!("usage: gate <scenario> <args…>, one of:\n{}", lines.join("\n"))
}

fn parse(argv: &[String]) -> Result<(&'static Scenario, Args), String> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(usage_all());
    };
    let scenario = SCENARIOS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown scenario {name:?}\n{}", usage_all()))?;
    let usage = || format!("usage: {}", scenario.usage());
    let mut args = Args::default();
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            args.operands.push(arg.clone());
            continue;
        }
        let flag = scenario
            .flags
            .iter()
            .copied()
            .find(|f| f.spelling() == arg)
            .ok_or_else(|| format!("{} takes no {arg}\n{}", scenario.name, usage()))?;
        let value = rest.next().ok_or_else(|| format!("{arg} needs {}", flag.operand()))?;
        match flag {
            Flag::HaltAfter => args.halt_after = Some(number(arg, value)?),
            Flag::DeadlineMs => args.deadline_ms = Some(number(arg, value)?),
            Flag::Records => args.records = Some(value.clone()),
            Flag::KillAtByte => args.kill_at_byte = Some(kill_offset(value)?),
            Flag::TornCkpt => args.torn_ckpt = Some(number(arg, value)?),
        }
    }
    if args.operands.len() != scenario.operands.len() {
        return Err(usage());
    }
    if args.kill_at_byte.is_some() && args.records.is_none() {
        return Err("--kill-at-byte needs --records (it kills the record stream)".to_string());
    }
    Ok((scenario, args))
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} wants a number, got {value:?}"))
}

/// Resolves a `--kill-at-byte` operand: a literal byte offset, or
/// `rand:SEED` for a deterministic draw in `[64, 262_208)` — low
/// enough to land inside the ~1 MB fleet record stream, high enough to
/// leave at least one whole record before the tear.
fn kill_offset(value: &str) -> Result<u64, String> {
    if let Some(seed) = value.strip_prefix("rand:") {
        let seed = seed
            .parse::<u64>()
            .map_err(|_| format!("--kill-at-byte rand: wants a seed number, got {value:?}"))?;
        return Ok(64 + Rng64::new(seed).gen_range(0..262_144));
    }
    value
        .parse::<u64>()
        .map_err(|_| format!("--kill-at-byte wants a byte offset or rand:SEED, got {value:?}"))
}

/// Parses `argv` (without the program name) and runs the scenario it
/// names; returns the exit code.
fn gate(argv: &[String]) -> u8 {
    parse(argv)
        .and_then(|(scenario, args)| (scenario.run)(&args, threads_from_env()))
        .unwrap_or_else(|message| {
            eprintln!("gate: {message}");
            FAILURE
        })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(gate(&argv))
}

/// Ends the process from inside a snapshot or fuse callback, where no
/// error can be returned.
fn die(code: u8, message: &str) -> ! {
    eprintln!("gate: {message}");
    std::process::exit(code.into())
}

/// Sabotaged trials and injected faults panic by design; the engines
/// isolate and record them, so keep their reports out of the output.
fn silence_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn write_summary(path: &str, summary: &Json) -> Result<(), String> {
    AtomicFile::write(Path::new(path), format!("{}\n", summary.render_pretty()).as_bytes())
        .map_err(|e| format!("cannot write summary {path}: {e}"))
}

// ---------------------------------------------------------------------------
// Single-file checkpoints: `campaign` and `adaptive`
// ---------------------------------------------------------------------------

/// Loads the checkpoint at `path` (a fresh one when the file does not
/// exist) and checks that it resumes `batch` in rounds of `round`:
/// the checkpoint and the number of trials the run skips.
fn resume(
    path: &Path,
    campaign: &Campaign,
    batch: &[Trial],
    round: usize,
) -> Result<(CampaignCheckpoint, usize), String> {
    let bad = |e: &dyn std::fmt::Display| format!("bad checkpoint {}: {e}", path.display());
    // Only a missing file starts fresh. Any other read error, a
    // non-UTF-8 file included, is a bad checkpoint: discarding it would
    // silently restart the run and overwrite the evidence.
    let checkpoint = match std::fs::read_to_string(path) {
        Ok(text) => CampaignCheckpoint::parse(&text).map_err(|e| bad(&e))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => CampaignCheckpoint::new(campaign.wires()),
        Err(e) => return Err(bad(&e)),
    };
    // A well-formed snapshot of some other campaign or batch is as bad
    // as a corrupt one: refuse it before anything runs.
    let resumed_from = campaign.resume_point(batch, &checkpoint, round).map_err(|e| bad(&e))?;
    Ok((checkpoint, resumed_from))
}

/// The snapshot hook of `campaign` and `adaptive`: replaces the
/// checkpoint file atomically, and exits 3 once `--halt-after` of the
/// batch's `total` trials are checkpointed.
fn snapshot(args: &Args, total: usize, checkpoint: &CampaignCheckpoint) {
    // Atomic replace: a kill mid-snapshot must leave the previous
    // checkpoint intact, never a half-file that parse() rejects.
    if let Err(e) = checkpoint.store_atomic(Path::new(&args.operands[0])) {
        die(FAILURE, &format!("cannot write checkpoint: {e}"));
    }
    let done = checkpoint.entries().len();
    if args.halt_after.is_some_and(|limit| done >= limit) {
        die(HALTED, &format!("halting deliberately with {done} / {total} trials checkpointed"));
    }
}

/// `campaign`: a fixed 20-trial campaign in which 10% of trials are
/// sabotaged (one panics mid-trial, one injects a defect so extreme the
/// transient solver diverges), snapshotting every 5 finished trials.
/// A later invocation without `--halt-after` resumes from the snapshot,
/// re-running only unfinished trials; a snapshot that does not fit the
/// batch is refused (exit 2) and left as it was.
///
/// With `--deadline-ms N` every trial gets an `N`-millisecond budget and
/// one control is swapped for a wedged trial. At `N = 0` the deadline
/// has already expired when the first solver cancellation poll runs, so
/// every solver-bound trial sheds at the same deterministic step — the
/// checkpoint must round-trip `TrialShed` entries exactly.
fn campaign(args: &Args, threads: usize) -> Result<u8, String> {
    let mut campaign =
        Campaign::new(3).retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() });
    if let Some(ms) = args.deadline_ms {
        campaign = campaign.deadline(Duration::from_millis(ms));
    }
    let batch = campaign_trials(args.deadline_ms.is_some());
    let (mut checkpoint, resumed_from) =
        resume(Path::new(&args.operands[0]), &campaign, &batch, CAMPAIGN_ROUND)?;
    silence_panics();
    let run = campaign.run_checkpointed(&batch, threads, &mut checkpoint, CAMPAIGN_ROUND, |cp| {
        snapshot(args, batch.len(), cp);
    });
    write_summary(&args.operands[1], &run.to_json())?;
    eprintln!(
        "gate: {} trials ({resumed_from} resumed from checkpoint), {threads} threads: {}",
        batch.len(),
        run.stats
    );
    Ok(DONE)
}

/// Trials per `campaign` round: its snapshot cadence.
const CAMPAIGN_ROUND: usize = 5;

/// Healthy controls, detectable and borderline defects, plus two
/// deliberately broken trials (indices 3 and 17 by the `% 10` pattern —
/// one harness panic, one solver blow-up). With `wedged`, index 5
/// becomes a trial that can only end by shedding at its deadline.
fn campaign_trials(wedged: bool) -> Vec<Trial> {
    (0..20)
        .map(|i| match i % 10 {
            3 => Trial::panicking(),
            5 if wedged && i == 5 => Trial::wedged(),
            7 => Trial::defective(Defect::CouplingBoost { wire: 1, factor: 1e308 }),
            k if k % 2 == 0 => Trial::control(),
            _ => Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
        })
        .collect()
}

const ADAPTIVE_WIRES: usize = 6;

/// `adaptive`: a fixed 24-trial severity sweep on a 6-wire bus through
/// the adaptive engine, snapshotting the round-boundary checkpoint —
/// trial entries *plus* the coverage ledger and priority clock — after
/// every round, so a resumed run drops exactly the patterns the
/// uninterrupted run would have. One trial in eight panics by design,
/// proving failed attempts fold into the checkpoint stream too.
///
/// On completion the batch re-runs through the attributed-exhaustive
/// oracle, and the scenario exits 2 unless the adaptive run's
/// campaign-wide detected set equals the oracle's — the equivalence
/// gate of DESIGN.md §13.
fn adaptive(args: &Args, threads: usize) -> Result<u8, String> {
    let campaign = adaptive_campaign();
    let batch = adaptive_trials();
    let round = campaign.adaptive_config().round;
    let (mut checkpoint, resumed_from) =
        resume(Path::new(&args.operands[0]), &campaign, &batch, round)?;
    silence_panics();
    let run = campaign.run_adaptive_checkpointed(&batch, threads, &mut checkpoint, |cp| {
        snapshot(args, batch.len(), cp);
    });
    write_summary(&args.operands[1], &run.to_json())?;
    eprintln!(
        "gate: {} trials ({resumed_from} resumed from checkpoint), {threads} threads: {} \
         [dropped {} escalations {} tck {}]",
        batch.len(),
        run.stats,
        run.dropped,
        run.escalations,
        run.total_tck
    );

    // The oracle re-runs the sabotaged trials too; panics stay silenced.
    let oracle = campaign.run_attributed(&batch, threads);
    if run.detected != oracle.detected {
        eprintln!(
            "gate: EQUIVALENCE FAILURE\n  adaptive:   {:?}\n  exhaustive: {:?}",
            run.detected, oracle.detected
        );
        return Ok(FAILURE);
    }
    eprintln!(
        "gate: equivalence holds ({} detected pairs, adaptive {} vs exhaustive {} tck)",
        run.detected.len(),
        run.total_tck,
        oracle.total_tck
    );
    Ok(DONE)
}

/// The `adaptive` scenario's campaign: method-1 sessions on the coarse
/// 6-wire grid at 10 ps, two attempts per trial.
fn adaptive_campaign() -> Campaign {
    Campaign::new(ADAPTIVE_WIRES)
        .bus_params(BusParams::dsm_bus(ADAPTIVE_WIRES).segments(2))
        .session(SessionConfig { dt: 10e-12, ..SessionConfig::method(ObservationMethod::Once) })
        .retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() })
}

/// A severity sweep that keeps re-exciting the same two defective wires
/// (the shape where ledger-driven dropping pays), a panicking trial per
/// eight, borderline defects, and controls.
fn adaptive_trials() -> Vec<Trial> {
    (0..24)
        .map(|i| match i % 8 {
            1 | 4 => Trial::defective(Defect::CouplingBoost {
                wire: 1 + 3 * (i % 2),
                factor: 5.0 + i as f64 / 8.0,
            }),
            3 => Trial::panicking(),
            6 => Trial::defective(Defect::CouplingBoost { wire: 2, factor: 1.02 }),
            _ => Trial::control(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fleet floors with generation pairs and record streams: `fleet` and `chaos`
// ---------------------------------------------------------------------------

const BOARDS: usize = 1000;
const TRIALS_PER_BOARD: usize = 3;

/// `fleet`: a fixed 1000-board floor (3 trials per board, 3 clients —
/// `burst` carries a zero admission budget and sheds every one of its
/// trials deterministically), snapshotting the board-granular
/// [`FleetCheckpoint`] every 100 finished boards into a **generation
/// pair** (`<checkpoint>.a` / `.b` via [`GenPair`]): a crash
/// mid-snapshot can only lose the generation being written. A later
/// invocation resumes from the surviving generation, re-running only
/// unfinished boards.
///
/// With `--records <path>` every trial streams a CRC-framed JSONL
/// record. Records are flushed *before* every snapshot (write-ahead
/// ordering); an existing stream is tail-recovered on startup; after a
/// complete run the stream is fsynced, then replayed and compared
/// against the merged summary (exit 5 on disagreement). The crash-storm
/// knobs:
///
/// - `--kill-at-byte <N|rand:SEED>` (requires `--records`): the process
///   dies — mid-line, without flushing — once the record stream has
///   written N bytes in this invocation, leaving a torn tail for the
///   next invocation to recover. Exits 3.
/// - `--torn-ckpt K`: the second snapshot of the invocation is torn
///   after K bytes (a non-atomic partial image in the next slot) and the
///   process exits 3, so the resume must fall back a generation.
fn fleet(args: &Args, threads: usize) -> Result<u8, String> {
    floor_gate(args, threads, 0xF1EE_7F10, None)
}

/// `chaos`: the `fleet` floor (its own seed) under an **active
/// deterministic [`ChaosPlan`]**: ~15% of boards flaky and ~3% dead,
/// half of an afflicted board's trials faulted (chain scan fault, wedged
/// solver, harness panic, sink write failure or byte-level disk fault),
/// one explicit injection of every fault kind, and board 7 killed
/// outright so quarantine always exercises. Every fault coordinate and
/// supervisor decision is a pure function of seeds, so the summary —
/// verdicts, quarantine roster and resilience totals — keeps `fleet`'s
/// byte-identity contracts. A [`ValidatingSink`] exits 4 if a fixture
/// with a persistent chain fault ever yields an interconnect verdict.
fn chaos(args: &Args, threads: usize) -> Result<u8, String> {
    let plan = ChaosPlan::new(0xBAD5_EED5)
        .rates(0.15, 0.03, 0.5)
        .inject(0, 0, ChaosKind::Scan)
        .inject(1, 1, ChaosKind::Wedge)
        .inject(2, 0, ChaosKind::Panic)
        .inject(3, 2, ChaosKind::Sink)
        .inject(4, 1, ChaosKind::Disk)
        .kill(7);
    floor_gate(args, threads, 0xC4A0_5F10, Some(plan))
}

type Records = JsonlSink<BufWriter<FuseWriter<File>>>;

/// How many of `floor`'s boards `checkpoint` holds, by the engine's own
/// match rule (same id, seed and client): the boards a resume skips.
fn boards_resumed(checkpoint: &FleetCheckpoint, floor: &FloorSpec) -> usize {
    (0..floor.boards())
        .map(|id| floor.board(id))
        .filter(|b| checkpoint.entry_for(b.id, b.seed).is_some_and(|e| e.client == b.client))
        .count()
}

/// The shared `fleet` / `chaos` run: `plan` turns the floor chaotic.
fn floor_gate(
    args: &Args,
    threads: usize,
    seed: u64,
    plan: Option<ChaosPlan>,
) -> Result<u8, String> {
    let (checkpoint_path, summary_path) = (&args.operands[0], &args.operands[1]);
    // A pair with no valid slot is the normal first-run state.
    let pair = GenPair::new(checkpoint_path);
    let (mut checkpoint, generation) = FleetCheckpoint::load_pair(&pair)
        .map_err(|e| format!("bad checkpoint {checkpoint_path}: {e}"))?;

    // `burst`'s zero budget makes admission control part of the
    // determinism contract: its shed trials must survive kill/resume
    // and thread-count changes byte for byte.
    let floor =
        FloorSpec::new(BOARDS).trials_per_board(TRIALS_PER_BOARD).seed(seed).with_clients(vec![
            ClientSpec::new("assembly"),
            ClientSpec::new("qualification"),
            ClientSpec::with_budget("burst", Duration::ZERO),
        ]);
    let mut engine = FleetEngine::new(floor).map_err(|e| format!("bad floor spec: {e}"))?;
    let resumed_from = boards_resumed(&checkpoint, engine.spec());
    if let Some(plan) = &plan {
        engine = engine.chaos(plan.clone());
        silence_panics();
    }

    let records =
        args.records.as_deref().map(|p| open_records(p, args.kill_at_byte)).transpose()?;
    let inner: &dyn RecordSink = match &records {
        Some(sink) => sink,
        None => &NullSink,
    };
    let validating = plan.map(|plan| ValidatingSink { inner, plan, violations: AtomicU64::new(0) });
    let sink: &dyn RecordSink = match &validating {
        Some(sink) => sink,
        None => inner,
    };

    let mut snapshots = 0usize;
    let summary = engine.run_checkpointed(threads, &mut checkpoint, 100, sink, |cp| {
        // Write-ahead ordering: every record of a checkpointed board
        // must be on disk before the checkpoint claims the board is
        // done — otherwise a crash could leave a checkpoint whose
        // boards are missing from the stream.
        if let Some(Err(e)) = records.as_ref().map(JsonlSink::flush) {
            die(FAILURE, &format!("cannot flush records: {e}"));
        }
        snapshots += 1;
        if let Some(keep) = args.torn_ckpt.filter(|_| snapshots == 2) {
            match pair.tear(&(cp.to_json().render() + "\n"), keep) {
                Ok(g) => die(HALTED, &format!("tore checkpoint generation {g} after {keep} bytes")),
                Err(e) => die(FAILURE, &format!("cannot tear checkpoint: {e}")),
            }
        }
        if let Err(e) = cp.store_pair(&pair) {
            die(FAILURE, &format!("cannot write checkpoint: {e}"));
        }
        let done = boards_resumed(cp, engine.spec());
        if args.halt_after.is_some_and(|limit| done >= limit) {
            die(
                HALTED,
                &format!("halting deliberately with {done} / {BOARDS} boards checkpointed"),
            );
        }
    });
    let violations = validating.map_or(0, |sink| sink.violations.into_inner());

    if let Some(sink) = records {
        // finish() flushes; then unwrap the writer stack and fsync so
        // the completed artifact is durable, not just buffered.
        let (writer, lines) = sink.finish().map_err(|e| format!("record stream: {e}"))?;
        let file = writer
            .into_inner()
            .map_err(|e| format!("cannot flush records file: {}", e.into_error()))?
            .into_inner();
        file.sync_all().map_err(|e| format!("cannot sync records file: {e}"))?;
        eprintln!("gate: streamed {lines} trial records");
    }

    write_summary(summary_path, &summary.to_json())?;
    eprintln!(
        "gate: {BOARDS} boards ({resumed_from} resumed from checkpoint generation {generation}), \
         {threads} threads — {} shed of {} trials, {} healthy / {} flaky / {} dead, \
         {} quarantined, {} retries, {} infra failures, {} sink errors",
        summary.totals.shed_trials,
        BOARDS * TRIALS_PER_BOARD,
        summary.healthy_boards,
        summary.flaky_boards,
        summary.dead_boards,
        summary.quarantined.len(),
        summary.resilience.retries,
        summary.resilience.infra_failures,
        summary.resilience.sink_errors,
    );
    if violations > 0 {
        eprintln!("gate: {violations} interconnect verdicts on persistently-faulted fixtures");
        return Ok(MISATTRIBUTED);
    }

    // Self-check: the record stream must fold back to the exact merged
    // summary — even mid-chaos, spooled records arrived late but
    // arrived, and recovery + dedup lost nothing. A disagreement has its
    // own exit code so verify.sh can tell it from an IO failure.
    if let Some(path) = &args.records {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read back records {path}: {e}"))?;
        let (replayed, note) =
            replay_summary_recovered(&text).map_err(|e| format!("records replay failed: {e}"))?;
        if note.recovered() {
            eprintln!(
                "gate: replay recovered the stream: {} records, {} duplicate trials skipped, \
                 {} torn tail bytes tolerated",
                note.records, note.duplicate_trials, note.torn_tail_bytes
            );
        }
        if replayed.to_json().render() != summary.to_json().render() {
            eprintln!("gate: replayed records disagree with the merged summary");
            return Ok(REPLAY_DISAGREES);
        }
    }
    Ok(DONE)
}

/// Opens the CRC-framed record stream for appending behind the
/// `--kill-at-byte` fuse. An existing stream is tail-recovered first: a
/// torn final line from a mid-write kill is truncated.
fn open_records(path: &str, kill_at_byte: Option<u64>) -> Result<Records, String> {
    if std::fs::metadata(path).is_ok_and(|m| m.len() > 0) {
        let scan = recover_stream_file(Path::new(path))
            .map_err(|e| format!("cannot recover records {path}: {e}"))?;
        if scan.torn() {
            eprintln!(
                "gate: recovered records stream: {} valid records kept, {} torn tail bytes dropped",
                scan.records, scan.dropped_bytes
            );
        }
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open records file {path}: {e}"))?;
    let fuse = FuseWriter::new(file, kill_at_byte.unwrap_or(u64::MAX), || {
        die(HALTED, "record stream hit its byte fuse, dying mid-write");
    });
    Ok(JsonlSink::new(BufWriter::new(fuse)))
}

/// Forwards records to an inner sink while counting attribution
/// violations: an interconnect verdict streamed for a trial whose chain
/// fault persists across attempts (a dead fixture) means an apparatus
/// failure was misblamed on the bus under test.
struct ValidatingSink<'a> {
    inner: &'a dyn RecordSink,
    plan: ChaosPlan,
    violations: AtomicU64,
}

impl RecordSink for ValidatingSink<'_> {
    fn record(
        &self,
        board: &BoardSpec,
        client: &str,
        entry: &CheckpointEntry,
    ) -> Result<(), FleetError> {
        // Sink and disk faults hit the result path, not the fixture — a
        // verdict under them is legitimate.
        let persistent_fault = self.plan.profile(board.id) == BoardProfile::Dead
            && self
                .plan
                .fault_at(board.id, entry.index)
                .is_some_and(|kind| !matches!(kind, ChaosKind::Sink | ChaosKind::Disk));
        if persistent_fault && !matches!(entry.outcome, TrialOutcome::Shed | TrialOutcome::Failed) {
            self.violations.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "gate: VIOLATION board {} trial {} verdict {:?} despite a persistent chain fault",
                board.id, entry.index, entry.outcome
            );
        }
        self.inner.record(board, client, entry)
    }

    fn board_done(&self, summary: &BoardSummary) -> Result<(), FleetError> {
        self.inner.board_done(summary)
    }
}

// ---------------------------------------------------------------------------
// Summaries without checkpoints: `batch` and `degraded`
// ---------------------------------------------------------------------------

const BATCH_WIRES: usize = 8;
const BATCH_TRIALS: usize = 24;
/// Width of the per-wire report sessions.
const SESSION_WIRES: usize = 32;

/// `batch`: a fixed defect-injection campaign at the given panel width.
/// The batched panel path is contractually bitwise-identical to the
/// scalar path, so `verify.sh` byte-compares the summary across panel
/// widths (8 vs 1) and across `SINT_THREADS` (1 vs 8). The trial mix
/// includes a solver blow-up (`factor: 1e308`), pinning the divergence
/// fallbacks: the step basis must refuse the blown-up bus, a panel that
/// goes non-finite must replay scalar-sequentially, and the failed plan
/// is dropped, so the first pattern's scalar solve reports exactly the
/// unbatched error.
///
/// The summary also renders the full `IntegrityReport` of 32-wire
/// sessions — a control plus coupling, open and weak-driver devices,
/// methods 1–3, on the coarse grid (2 segments, 10 ps) — covering
/// per-wire verdicts at the width where the batched path recombines
/// every MA pattern from its n + 1 step-basis columns.
fn batch(args: &Args, threads: usize) -> Result<u8, String> {
    let width_arg = &args.operands[0];
    let panel_width = width_arg
        .parse::<usize>()
        .map_err(|_| format!("panel_width wants a number, got {width_arg:?}"))?;
    let run =
        Campaign::new(BATCH_WIRES).panel_width(panel_width).run_parallel(&batch_trials(), threads);
    let jobs: Vec<_> = (0u64..)
        .zip(batch_devices())
        .flat_map(|device| {
            [
                ObservationMethod::Once,
                ObservationMethod::PerInitialValue,
                ObservationMethod::PerPattern,
            ]
            .map(|method| (device, method))
        })
        .collect();
    let sessions = Pool::new(threads)
        .map(&jobs, |_, (device, method)| batch_session(device, *method, panel_width));

    // The summary deliberately omits the panel width and thread count:
    // verify.sh byte-compares the file across both.
    let summary = Json::obj([
        ("wires", BATCH_WIRES.to_json()),
        ("trials", BATCH_TRIALS.to_json()),
        ("run", run.to_json()),
        ("session_wires", SESSION_WIRES.to_json()),
        ("sessions", Json::Array(sessions)),
    ]);
    write_summary(&args.operands[1], &summary)?;
    eprintln!("gate: {BATCH_TRIALS} trials at panel width {panel_width}, {threads} threads");
    Ok(DONE)
}

/// Controls, four defect classes of varying severity, and one solver
/// blow-up that forces the panel divergence fallback.
fn batch_trials() -> Vec<Trial> {
    (0..BATCH_TRIALS)
        .map(|i| match i % 8 {
            0 | 4 => Trial::control(),
            1 => Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
            2 => Trial::defective(Defect::PairCouplingBoost { left: 3, factor: 8.0 }),
            3 => Trial::defective(Defect::ResistiveOpen { wire: 5, segment: 2, extra_ohms: 400.0 }),
            5 => Trial::defective(Defect::WeakDriver { wire: 6, factor: 4.0 }),
            6 => Trial::defective(Defect::CouplingBoost { wire: 2, factor: 1e308 }),
            _ => Trial::defective(Defect::CouplingBoost { wire: 4, factor: 1.05 }),
        })
        .collect()
}

/// The 32-wire devices whose reports the summary renders.
fn batch_devices() -> [(&'static str, Option<Defect>); 4] {
    [
        ("control", None),
        ("coupling", Some(Defect::CouplingBoost { wire: 13, factor: 6.0 })),
        ("open", Some(Defect::ResistiveOpen { wire: 20, segment: 1, extra_ohms: 3000.0 })),
        ("weak_driver", Some(Defect::WeakDriver { wire: 7, factor: 5.0 })),
    ]
}

/// One device under one method at `panel_width`: its report, or the
/// error that ended the session.
fn batch_session(
    (seed, (name, defect)): &(u64, (&str, Option<Defect>)),
    method: ObservationMethod,
    panel_width: usize,
) -> Json {
    let mut builder = SocBuilder::new(SESSION_WIRES)
        .bus_params(BusParams::dsm_bus(SESSION_WIRES).segments(2))
        .with_variation(VariationSigma::typical(), *seed)
        .panel_width(panel_width);
    if let Some(defect) = defect {
        builder = builder.defect(*defect);
    }
    let config = SessionConfig { dt: 10e-12, ..SessionConfig::method(method) };
    let outcome = builder.build().and_then(|mut soc| soc.run_integrity_test(&config));
    Json::obj([
        ("device", name.to_json()),
        ("method", method.to_string().to_json()),
        (
            "report",
            match outcome {
                Ok(report) => report.to_json(),
                Err(e) => Json::obj([("error", e.to_string().to_json())]),
            },
        ),
    ])
}

const DEGRADED_WIRES: usize = 8;
const MIN_COVERAGE: f64 = 0.5;

/// `degraded`: injects every [`ScanFault`] variant into an 8-wire SoC
/// and runs the integrity session under both [`ChainPolicy`] arms:
///
/// * `Strict` refuses every damaged chain with a typed error.
/// * `Degrade` accepts exactly the fault class it can localize — a
///   [`ScanFault::BoundaryStuck`] break — and attaches a
///   `CoverageReport` plus the full concession trail to the report;
///   every other fault (serial links, TAP, TCK) is refused with a typed
///   error, never a silent partial result.
///
/// The cases run on the worker pool, so the summary (including the
/// complete degraded-session report) must be byte-identical across
/// thread counts. Exits 1 when a case breaks the contract.
fn degraded(args: &Args, threads: usize) -> Result<u8, String> {
    let cases = degraded_cases();
    let results = Pool::new(threads)
        .try_map(&cases, |_, &(name, fault, degradable)| degraded_case(name, fault, degradable));
    let mut rows = Vec::new();
    for ((name, ..), result) in cases.iter().zip(results) {
        match result.map_err(|panic| format!("case {name} panicked: {panic}")).and_then(|r| r) {
            Ok(row) => rows.push(row),
            Err(violation) => {
                eprintln!("gate: FAIL — {violation}");
                return Ok(VIOLATED);
            }
        }
    }
    let summary = Json::obj([
        ("width", DEGRADED_WIRES.to_json()),
        ("min_coverage", MIN_COVERAGE.to_json()),
        ("cases", Json::arr(rows)),
    ]);
    write_summary(&args.operands[0], &summary)?;
    eprintln!("gate: {} cases, {threads} threads: contract holds", cases.len());
    Ok(DONE)
}

/// One concrete fault per `ScanFault` variant. Only the boundary break
/// is degradable; everything else corrupts the serial path itself.
fn degraded_cases() -> Vec<(&'static str, ScanFault, bool)> {
    vec![
        ("stuck_at_zero", ScanFault::StuckAtZero { link: 0 }, false),
        ("stuck_at_one", ScanFault::StuckAtOne { link: 1 }, false),
        ("bit_flip", ScanFault::BitFlip { link: 0, period: 5 }, false),
        ("stuck_tap", ScanFault::StuckTap { state: TapState::ShiftDr }, false),
        ("dropped_tck", ScanFault::DroppedTck { period: 7 }, false),
        ("boundary_stuck", ScanFault::BoundaryStuck { device: 0, cell: 6, level: false }, true),
    ]
}

fn degraded_policy(fault: ScanFault, policy: ChainPolicy) -> Result<Json, String> {
    let mut soc = SocBuilder::new(DEGRADED_WIRES)
        .scan_fault(fault)
        .chain_policy(policy)
        .build()
        .map_err(|e| format!("build failed: {e}"))?;
    Ok(match soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)) {
        Ok(report) => Json::obj([("accepted", true.to_json()), ("report", report.to_json())]),
        Err(e) => Json::obj([
            ("accepted", false.to_json()),
            (
                "error_kind",
                match e {
                    CoreError::Infrastructure(_) => "infrastructure",
                    CoreError::InsufficientCoverage { .. } => "insufficient_coverage",
                    _ => "other",
                }
                .to_json(),
            ),
            ("error", e.to_string().to_json()),
        ]),
    })
}

/// Checks one matrix row against the contract; returns the row's JSON.
fn degraded_case(name: &str, fault: ScanFault, degradable: bool) -> Result<Json, String> {
    let strict = degraded_policy(fault, ChainPolicy::Strict)?;
    let degrade = degraded_policy(fault, ChainPolicy::Degrade { min_coverage: MIN_COVERAGE })?;

    let accepted = |j: &Json| {
        matches!(j, Json::Object(p) if p.iter().any(
        |(k, v)| k == "accepted" && *v == Json::Bool(true)))
    };
    if accepted(&strict) {
        return Err(format!("{name}: Strict accepted a damaged chain"));
    }
    if accepted(&degrade) != degradable {
        return Err(format!(
            "{name}: Degrade {} but the fault is {}",
            if degradable { "refused" } else { "accepted" },
            if degradable { "localizable" } else { "not localizable" },
        ));
    }
    if degradable {
        let rendered = degrade.render();
        for key in ["\"degradation\"", "\"coverage\"", "\"covered\"", "\"events\""] {
            if !rendered.contains(key) {
                return Err(format!("{name}: degraded report lacks {key}"));
            }
        }
    }
    Ok(Json::obj([("fault", name.to_json()), ("strict", strict), ("degrade", degrade)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_string()).collect()
    }

    /// A `wires`-wide campaign checkpoint after `rounds` rounds holding
    /// the first `entries` trials.
    fn checkpoint_text(wires: usize, rounds: usize, entries: usize) -> String {
        let entries: Vec<String> = (0..entries)
            .map(|i| CheckpointEntry::failed(i, 1, "recorded".into()).to_json().render())
            .collect();
        CampaignCheckpoint::new(wires)
            .to_json()
            .render()
            .replace(r#""rounds_done":0"#, &format!(r#""rounds_done":{rounds}"#))
            .replace(r#""entries":[]"#, &format!(r#""entries":[{}]"#, entries.join(",")))
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sint_gate_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn flags_a_scenario_does_not_take_are_usage_errors() {
        for args in [
            &["campaign", "c", "s", "--records", "x"][..],
            &["degraded", "s", "--halt-after", "1"],
            &["batch", "8", "s", "--deadline-ms", "0"],
            &["adaptive", "c", "s", "--deadline-ms", "5"],
            &["chaos", "c", "s", "--torn-ckpt", "120"],
            &["campaign", "c", "s", "--kill-at-byte", "4097"],
            &["fleet", "c", "s", "--bogus", "1"],
        ] {
            let message = parse(&argv(args)).err().unwrap_or_default();
            assert!(message.contains("takes no --"), "{args:?}: {message:?}");
            assert_eq!(gate(&argv(args)), FAILURE, "{args:?}");
        }
    }

    #[test]
    fn malformed_operands_are_usage_errors() {
        for args in [
            &["fleet", "c", "s", "--kill-at-byte", "4097"][..],
            &["chaos", "c", "s", "--kill-at-byte", "rand:33"],
            &["fleet", "c", "s", "--records", "r", "--kill-at-byte", "rand:x"],
            &["campaign", "c", "s", "--halt-after", "ten"],
            &["campaign", "c", "s", "--halt-after"],
            &["batch", "8"],
            &["degraded", "a", "b"],
            &["batch", "wide", "s"],
        ] {
            assert_eq!(gate(&argv(args)), FAILURE, "{args:?}");
        }
        let message = parse(&argv(&["fleet", "c", "s", "--kill-at-byte", "7"])).err();
        assert!(message.unwrap_or_default().contains("needs --records"));
    }

    #[test]
    fn an_unknown_scenario_lists_all_six() {
        for args in [&["resume", "c", "s"][..], &[]] {
            let message = parse(&argv(args)).err().unwrap_or_default();
            for name in ["campaign", "adaptive", "fleet", "chaos", "batch", "degraded"] {
                assert!(message.contains(&format!("gate {name} ")), "{name}: {message}");
            }
            assert_eq!(gate(&argv(args)), FAILURE);
        }
    }

    #[test]
    fn every_scenario_parses_its_own_usage() {
        for scenario in &SCENARIOS {
            let args: Vec<String> = scenario
                .operands
                .iter()
                .map(|_| "1".to_string())
                .chain(scenario.flags.iter().flat_map(|f| [f.spelling().to_string(), "1".into()]))
                .collect();
            let mut line = vec![scenario.name.to_string()];
            line.extend(args);
            let parsed = parse(&line).map(|(s, a)| (s.name, a.operands.len()));
            assert_eq!(parsed, Ok((scenario.name, scenario.operands.len())), "{line:?}");
        }
    }

    #[test]
    fn random_kill_offsets_keep_their_draws() {
        // The offsets the torn-write gates have always killed at.
        for (spec, offset) in [("rand:11", 12_509), ("rand:22", 134_730), ("rand:33", 137_448)] {
            assert_eq!(kill_offset(spec), Ok(offset), "{spec}");
            assert!((64..262_208).contains(&offset));
        }
        assert_eq!(kill_offset("4097"), Ok(4097));
        assert!(kill_offset("rand:").is_err());
        assert!(kill_offset("-1").is_err());
    }

    #[test]
    fn resume_counts_only_the_entries_the_run_skips() {
        // A campaign checkpoint resumes exactly the trials of its
        // finished rounds of five (clipped to the 20-trial batch); one
        // holding entries its rounds do not cover is refused instead.
        let dir = scratch_dir("resume");
        let path = dir.join("ckpt.json");
        let campaign = Campaign::new(3);
        let batch = campaign_trials(false);
        let resumed = |path: &Path| {
            resume(path, &campaign, &batch, CAMPAIGN_ROUND).map(|(cp, n)| (cp.entries().len(), n))
        };
        assert_eq!(resumed(&path), Ok((0, 0)), "a missing file starts fresh");
        for (rounds, entries, want) in
            [(2, 10, Some(10)), (4, 20, Some(20)), (9, 20, Some(20)), (2, 11, None), (3, 10, None)]
        {
            std::fs::write(&path, checkpoint_text(3, rounds, entries)).expect("write checkpoint");
            let got = resumed(&path).ok().map(|(_, n)| n);
            assert_eq!(got, want, "{rounds} rounds, {entries} entries");
        }
        let _ = std::fs::remove_dir_all(&dir);

        // A finished floor's checkpoint plus a board past the floor and
        // a board recorded under another client: neither is resumed.
        let floor = FloorSpec::new(3)
            .trials_per_board(1)
            .with_clients(vec![ClientSpec::new("a"), ClientSpec::new("b")]);
        let engine = FleetEngine::new(floor.clone()).expect("valid floor");
        let mut checkpoint = FleetCheckpoint::new();
        let _ = engine.run_checkpointed(1, &mut checkpoint, 3, &NullSink, |_| {});
        assert_eq!(boards_resumed(&checkpoint, &floor), 3);
        let mut stray = checkpoint.entries()[0].clone();
        stray.board = 99;
        checkpoint.record(stray);
        let mut moved = checkpoint.entries()[1].clone();
        moved.client = (moved.client + 1) % 2;
        checkpoint.record(moved);
        assert_eq!(checkpoint.len(), 4);
        assert_eq!(boards_resumed(&checkpoint, &floor), 2);
    }

    #[test]
    fn a_corrupt_checkpoint_is_refused_not_discarded() {
        let dir = scratch_dir("ckpt");
        let checkpoint = dir.join("ckpt.json");
        let summary = dir.join("summary.json");
        // The adaptive run halted after two rounds, as
        // `--halt-after 12` leaves it.
        let mut halted = CampaignCheckpoint::new(ADAPTIVE_WIRES);
        let _ = adaptive_campaign().run_adaptive_checkpointed(
            &adaptive_trials()[..16],
            1,
            &mut halted,
            |_| {},
        );
        let halted = halted.to_json().render();
        let narrowed = halted.replace(
            r#""ledger":{"wires":6,"masks":[63,63,63,63,63,63]}"#,
            r#""ledger":{"wires":2,"masks":[0,0]}"#,
        );
        let behind = halted.replace(r#""rounds_done":2,"#, r#""rounds_done":1,"#);
        assert!(narrowed != halted && behind != halted, "{halted}");
        // The `campaign` run halted after two rounds of five, claiming
        // a third.
        let ahead = checkpoint_text(3, 3, 10);
        let both = &["campaign", "adaptive"][..];
        // Not UTF-8, not a checkpoint, and a checkpoint of the old
        // exhaustive schema; then well-formed snapshots that do not fit
        // the batch: a narrower ledger, fewer rounds than its entries,
        // and more. All must exit 2 and leave the file as it was,
        // without writing a summary.
        for (bytes, scenarios) in [
            (&b"{\"version\":3,\"kind\":\"campaign\",\"entries\":[\xff]}"[..], both),
            (b"{\"version\":3,\"kind\":\"campaign\",\"entries\":[x]}", both),
            (b"{\"version\":2,\"entries\":[]}", both),
            (narrowed.as_bytes(), &["adaptive"]),
            (behind.as_bytes(), &["adaptive"]),
            (ahead.as_bytes(), &["campaign"]),
        ] {
            std::fs::write(&checkpoint, bytes).expect("write checkpoint");
            for scenario in scenarios {
                let paths = [&checkpoint, &summary].map(|p| p.display().to_string());
                assert_eq!(gate(&argv(&[scenario, &paths[0], &paths[1]])), FAILURE, "{scenario}");
                assert_eq!(std::fs::read(&checkpoint).ok().as_deref(), Some(bytes));
                assert!(!summary.exists());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
