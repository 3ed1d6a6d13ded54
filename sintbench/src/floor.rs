//! `floor`: 1000-board test floors streamed to a framed record file
//! with generation-pair checkpoints, then read back and replayed.

use crate::harness::{self, Config, Measured};
use crate::layers::{self, metric, LayerSample};
use crate::stats;
use crate::trace::{self, timed, timed_under};
use sint_core::campaign::Trial;
use sint_core::checkpoint::CheckpointEntry;
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_fleet::{
    replay_summary, BoardSpec, BoardSummary, ClientSpec, FleetCheckpoint, FleetEngine, FleetError,
    FleetSummary, FloorSpec, JsonlSink, NullSink, RecordSink,
};
use sint_interconnect::params::BusParams;
use sint_runtime::durable::GenPair;
use sint_runtime::json::ToJson;
use sint_runtime::rng::Rng64;
use std::collections::HashMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "floor";
/// Percentile reported as `op_tail_ms`: p99.9 of a window's ~30k
/// boards did not repeat within a tenth across runs; p99 does.
pub const TAIL_PCT: f64 = 99.0;
const STREAM: u64 = 4;
const BOARDS: usize = 1000;
const WARM_BOARDS: usize = 100;
const TRIALS_EACH: usize = 3;
const SNAPSHOT_EVERY: usize = 100;
const DIGEST_CYCLES: usize = 1;
/// Boards per floor whose first trial is replayed for the per-layer
/// metrics.
const PROBE_BOARDS: usize = 4;
/// Three unbudgeted clients. The zero-budget client of the fleet tools
/// is left out: it sheds a third of its trials by design, which would
/// hide real failures in `failed`.
const CLIENTS: [&str; 3] = ["assembly", "qualification", "service"];

fn spec(boards: usize, seed: u64) -> FloorSpec {
    FloorSpec::new(boards)
        .trials_per_board(TRIALS_EACH)
        .seed(seed)
        .with_clients(CLIENTS.iter().map(|&name| ClientSpec::new(name)).collect())
}

/// Board service time: each `board_done` closes the board that
/// started at the later of the same thread's previous `board_done`
/// and the start of the chunk it falls in — a worker's wait at the
/// chunk barrier and the serial snapshot belong to no board. `events`
/// are `(thread, board, ns)`; `chunk_starts` ascend.
#[must_use]
pub fn service_times<T: Copy + Eq + std::hash::Hash>(
    events: &[(T, usize, u64)],
    chunk_starts: &[u64],
) -> Vec<(usize, u64)> {
    let mut ordered: Vec<_> = events.to_vec();
    ordered.sort_by_key(|&(_, _, t)| t);
    let mut last: HashMap<T, u64> = HashMap::new();
    ordered
        .into_iter()
        .map(|(thread, board, t)| {
            let chunk = chunk_starts
                .partition_point(|&s| s <= t)
                .checked_sub(1)
                .map_or(0, |i| chunk_starts[i]);
            let start = last
                .get(&thread)
                .copied()
                .filter(|&prev| prev >= chunk)
                .unwrap_or(chunk);
            last.insert(thread, t);
            (board, t.saturating_sub(start))
        })
        .collect()
}

/// The record sink the engine streams into: a framed file sink, timed
/// per call from the outside.
struct FloorSink {
    inner: JsonlSink<BufWriter<File>>,
    epoch: Instant,
    /// The engine span that sink calls on worker threads belong to.
    parent: AtomicU64,
    record_ns: AtomicU64,
    records: AtomicU64,
    board_done_ns: AtomicU64,
    done: Mutex<Vec<(ThreadId, usize, u64)>>,
}

impl FloorSink {
    fn parent(&self) -> Option<u64> {
        Some(self.parent.load(Ordering::Relaxed)).filter(|&id| id != 0)
    }
}

impl RecordSink for FloorSink {
    fn record(
        &self,
        board: &BoardSpec,
        client: &str,
        entry: &CheckpointEntry,
    ) -> Result<(), FleetError> {
        let (result, d) = timed_under(
            self.parent(),
            "RecordSink::record",
            "fleet",
            board.id as u64,
            || self.inner.record(board, client, entry),
        );
        self.record_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn board_done(&self, summary: &BoardSummary) -> Result<(), FleetError> {
        let (result, d) = timed_under(
            self.parent(),
            "RecordSink::board_done",
            "fleet",
            summary.board as u64,
            || self.inner.board_done(summary),
        );
        let at = self.epoch.elapsed().as_nanos() as u64;
        self.board_done_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.done.lock().expect("board log poisoned").push((
            std::thread::current().id(),
            summary.board,
            at,
        ));
        result
    }
}

/// What one floor measured.
struct FloorRun {
    summary: FleetSummary,
    /// `(board, service ns)` for every board.
    service: Vec<(usize, u64)>,
    engine: Duration,
    /// Σ chunk wall (start to snapshot) and each snapshot's duration.
    chunk_wall: Duration,
    snapshots: Vec<Duration>,
    record_ns: u64,
    records: u64,
    board_done_ns: u64,
    record_bytes: u64,
    checkpoint_bytes: u64,
    fsync: Duration,
    load_pair: Duration,
    replay: Duration,
}

/// Runs one floor end to end: engine with snapshots every 100 boards
/// (sink flush, then `store_pair`), a final fsync, then the read path
/// (`load_pair` resumed to a summary, `replay_summary` of the records),
/// checking both against the in-memory summary.
fn run_floor(
    engine: &FleetEngine,
    dir: &Path,
    threads: usize,
    op: u64,
    gates: &mut harness::Gates,
) -> Result<FloorRun, String> {
    let records_path = dir.join(format!("floor-{op}.jsonl"));
    let pair = GenPair::new(dir.join(format!("floor-{op}.ckpt")));
    let file = File::create(&records_path).map_err(|e| e.to_string())?;
    let sink = FloorSink {
        inner: JsonlSink::new(BufWriter::new(file)),
        epoch: Instant::now(),
        parent: AtomicU64::new(0),
        record_ns: AtomicU64::new(0),
        records: AtomicU64::new(0),
        board_done_ns: AtomicU64::new(0),
        done: Mutex::new(Vec::new()),
    };
    let mut chunk_starts = Vec::new();
    let mut chunk_wall = Duration::ZERO;
    let mut snapshots = Vec::new();
    let mut snapshot_error = None;
    let mut checkpoint = FleetCheckpoint::new();
    let (summary, engine_time) = timed("FleetEngine::run_checkpointed", "fleet", op, || {
        sink.parent
            .store(trace::current().unwrap_or(0), Ordering::Relaxed);
        let mut chunk_start = Instant::now();
        chunk_starts.push(chunk_start.duration_since(sink.epoch).as_nanos() as u64);
        engine.run_checkpointed(threads, &mut checkpoint, SNAPSHOT_EVERY, &sink, |cp| {
            let snap_start = Instant::now();
            chunk_wall += snap_start - chunk_start;
            let (flushed, flush) = timed("JsonlSink::flush", "fleet", op, || sink.inner.flush());
            let (stored, store) = timed("FleetCheckpoint::store_pair", "fleet", op, || {
                cp.store_pair(&pair)
            });
            if let Err(e) = flushed.and(stored.map(drop)) {
                snapshot_error.get_or_insert(e.to_string());
            }
            snapshots.push(flush + store);
            chunk_start = Instant::now();
            chunk_starts.push(chunk_start.duration_since(sink.epoch).as_nanos() as u64);
        })
    });
    if let Some(e) = snapshot_error {
        return Err(format!("snapshot: {e}"));
    }
    let FloorSink {
        inner,
        record_ns,
        records,
        board_done_ns,
        done,
        ..
    } = sink;
    let events = done.into_inner().expect("board log poisoned");
    let (writer, _) = timed("JsonlSink::finish", "fleet", op, || inner.finish())
        .0
        .map_err(|e| e.to_string())?;
    let file = writer.into_inner().map_err(|e| e.to_string())?;
    let (synced, fsync) = timed("File::sync_all", "fleet", op, || file.sync_all());
    synced.map_err(|e| e.to_string())?;

    let ((mut loaded, _generation), load_pair) =
        match timed("FleetCheckpoint::load_pair", "fleet", op, || {
            FleetCheckpoint::load_pair(&pair)
        }) {
            (Ok(loaded), d) => (loaded, d),
            (Err(e), _) => return Err(format!("load_pair: {e}")),
        };
    let (resumed, _) = timed("FleetEngine::run_checkpointed", "fleet", op, || {
        engine.run_checkpointed(threads, &mut loaded, SNAPSHOT_EVERY, &NullSink, |_| {})
    });
    let text = std::fs::read_to_string(&records_path).map_err(|e| e.to_string())?;
    let (replayed, replay) = timed("replay_summary", "fleet", op, || replay_summary(&text));
    let replayed = replayed.map_err(|e| e.to_string())?;
    let rendered = summary.to_json().render();
    gates.check(resumed.to_json().render() == rendered, || {
        format!("floor {op}: load_pair summary differs")
    });
    gates.check(replayed.to_json().render() == rendered, || {
        format!("floor {op}: replayed summary differs")
    });

    let checkpoint_bytes = [pair.slots().0, pair.slots().1]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok().map(|m| m.len()))
        .max()
        .unwrap_or(0);
    let run = FloorRun {
        service: service_times(&events, &chunk_starts),
        summary,
        engine: engine_time,
        chunk_wall,
        snapshots,
        record_ns: record_ns.into_inner(),
        records: records.into_inner(),
        board_done_ns: board_done_ns.into_inner(),
        record_bytes: text.len() as u64,
        checkpoint_bytes,
        fsync,
        load_pair,
        replay,
    };
    for path in [records_path, pair.slots().0, pair.slots().1] {
        let _ = std::fs::remove_file(path);
    }
    Ok(run)
}

/// Trials of a floor that produced no verdict or lost a record.
fn failures(summary: &FleetSummary) -> u64 {
    let totals = summary.totals;
    (totals.failed_trials + totals.shed_trials + summary.crashed_boards * TRIALS_EACH) as u64
        + summary.resilience.sink_errors
        + summary.resilience.dropped_records
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &Config) -> Measured {
    let mut m = Measured::default();
    let dir: PathBuf = cfg.scratch.clone();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        m.gates
            .check(false, || format!("scratch dir {}: {e}", dir.display()));
        return m;
    }
    let root = Rng64::new(cfg.seed).fork(STREAM);
    harness::setup(&mut m, || {
        let engine = FleetEngine::new(spec(WARM_BOARDS, root.fork(u64::MAX).gen_u64()))
            .expect("static floor spec");
        let mut gates = harness::Gates::default();
        std::hint::black_box(run_floor(&engine, &dir, cfg.threads, u64::MAX, &mut gates).is_ok());
    });
    let mut runs: Vec<FloorRun> = Vec::new();
    let mut samples = Vec::new();
    let mut prober = layers::Prober::default();
    harness::window(&mut m, cfg.seconds, DIGEST_CYCLES, |m, f| {
        let floor_seed = root.fork(f as u64).gen_u64();
        let engine = FleetEngine::new(spec(BOARDS, floor_seed)).expect("static floor spec");
        m.attempted += (BOARDS * TRIALS_EACH) as u64;
        let run = match run_floor(&engine, &dir, cfg.threads, f as u64, &mut m.gates) {
            Ok(run) => run,
            Err(e) => {
                m.failed += (BOARDS * TRIALS_EACH) as u64;
                m.gates.check(false, || format!("floor {f}: {e}"));
                return (0, Duration::ZERO);
            }
        };
        let lost = failures(&run.summary);
        m.failed += lost;
        m.gates.check(lost == 0, || {
            format!("floor {f}: fail ratio above zero ({lost} trials)")
        });
        let completed = (BOARDS * TRIALS_EACH) as u64 - lost;
        m.ops += run.service.len() as u64;
        m.op_ms
            .extend(run.service.iter().map(|&(_, ns)| ns as f64 / 1e6));
        if f < DIGEST_CYCLES {
            m.digest.write(run.summary.to_json().render().as_bytes());
        }
        let mut excluded = Duration::ZERO;
        if cfg.trace {
            let start = Instant::now();
            let spec = engine.spec();
            for board in 0..PROBE_BOARDS {
                let board = spec.board(board);
                let service = run
                    .service
                    .iter()
                    .find(|&&(b, _)| b == board.id)
                    .map_or(0, |&(_, ns)| ns);
                match sample(&mut prober, spec.trials(&board)[0], service, f as u64) {
                    Ok(s) => samples.push(s),
                    Err(e) => m
                        .gates
                        .check(false, || format!("floor {f} board {} probe: {e}", board.id)),
                }
            }
            excluded = start.elapsed();
        }
        runs.push(run);
        (completed, excluded)
    });
    let _ = std::fs::remove_dir(&dir);
    if cfg.trace && !samples.is_empty() {
        m.layers = layers::universal(&samples);
        m.workload_layers = fleet_metrics(&runs, cfg.threads);
    }
    m
}

/// Replays a board's first trial the way a floor campaign runs it
/// (3 wires on the 2-segment, 10 ps grid, method 1), then probes it.
fn sample(
    prober: &mut layers::Prober,
    trial: Trial,
    service_ns: u64,
    op: u64,
) -> Result<LayerSample, String> {
    let session = SessionConfig {
        dt: 10e-12,
        ..SessionConfig::method(ObservationMethod::Once)
    };
    let mut builder = SocBuilder::new(3).bus_params(BusParams::dsm_bus(3).segments(2));
    if let Some(defect) = trial.defect {
        builder = builder.defect(defect);
    }
    let (soc, build) = timed("SocBuilder::build", "core", op, || builder.build());
    let mut soc = soc.map_err(|e| e.to_string())?;
    let (report, session_time) = timed("Soc::run_integrity_test", "core", op, || {
        soc.run_integrity_test(&session)
    });
    let report = report.map_err(|e| e.to_string())?;
    let units = prober.probe(&mut soc, &session, op)?;
    Ok(LayerSample {
        trial_ns: service_ns as f64 / TRIALS_EACH as f64,
        build_ns: layers::ns(build),
        session_ns: layers::ns(session_time),
        transients: soc.transients_run() as f64,
        tck: report.tck_used as f64,
        scalar: false,
        units,
    })
}

/// The fleet and runtime metrics only a floor can observe.
fn fleet_metrics(runs: &[FloorRun], threads: usize) -> Vec<layers::Metric> {
    let sum = |f: &dyn Fn(&FloorRun) -> f64| runs.iter().map(f).sum::<f64>();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let snapshots: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.snapshots.iter().map(|&d| ms(d)))
        .collect();
    let engine = sum(&|r| r.engine.as_secs_f64());
    let snapshot = snapshots.iter().sum::<f64>() / 1e3;
    let sink = sum(&|r| (r.record_ns + r.board_done_ns) as f64 / 1e9);
    let trials = (runs.len() * BOARDS * TRIALS_EACH) as f64;
    let boards = (runs.len() * BOARDS) as f64;
    let capacity = threads as f64 * sum(&|r| r.chunk_wall.as_secs_f64());
    let busy = sum(&|r| {
        r.service
            .iter()
            .map(|&(_, ns)| ns as f64 / 1e9)
            .sum::<f64>()
    });
    let median_ms = |f: &dyn Fn(&FloorRun) -> Duration| {
        stats::median(&runs.iter().map(|r| ms(f(r))).collect::<Vec<_>>())
    };
    vec![
        metric(
            "fleet.record_us",
            "us",
            sum(&|r| r.record_ns as f64) / sum(&|r| r.records as f64) / 1e3,
        ),
        metric(
            "fleet.board_done_us",
            "us",
            sum(&|r| r.board_done_ns as f64) / boards / 1e3,
        ),
        metric(
            "fleet.record_bytes_per_trial",
            "bytes",
            sum(&|r| r.record_bytes as f64) / trials,
        ),
        metric("fleet.snapshot_ms_p50", "ms", stats::median(&snapshots)),
        metric(
            "fleet.snapshot_ms_max",
            "ms",
            snapshots.iter().copied().fold(0.0, f64::max),
        ),
        metric("fleet.snapshot_share", "fraction", snapshot / engine),
        metric(
            "fleet.checkpoint_bytes",
            "bytes",
            stats::median(
                &runs
                    .iter()
                    .map(|r| r.checkpoint_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        metric("fleet.fsync_ms", "ms", median_ms(&|r| r.fsync)),
        metric("fleet.load_pair_ms", "ms", median_ms(&|r| r.load_pair)),
        metric("fleet.replay_ms", "ms", median_ms(&|r| r.replay)),
        metric(
            "fleet.engine_self_share",
            "fraction",
            (engine - snapshot - sink / threads as f64) / engine,
        ),
        metric(
            "fleet.retries",
            "count",
            sum(&|r| r.summary.resilience.retries as f64),
        ),
        metric(
            "fleet.sink_errors",
            "count",
            sum(&|r| r.summary.resilience.sink_errors as f64),
        ),
        metric(
            "runtime.pool_idle_share",
            "fraction",
            (capacity - busy) / capacity,
        ),
        metric(
            "runtime.pool_busy_threads",
            "threads",
            busy / sum(&|r| r.chunk_wall.as_secs_f64()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_restarts_at_each_chunk_barrier() {
        // Two workers, chunks starting at 0 and 100. Worker "a" finishes
        // boards at 10 and 30, "b" at 25; after the barrier (and a
        // snapshot up to 100) "a" finishes at 140 and "b" at 120.
        let events = [
            ("a", 0, 10),
            ("b", 1, 25),
            ("a", 2, 30),
            ("b", 3, 120),
            ("a", 4, 140),
        ];
        let service = service_times(&events, &[0, 100]);
        assert_eq!(service, vec![(0, 10), (1, 25), (2, 20), (3, 20), (4, 40)]);
    }

    #[test]
    fn one_thread_across_chunks_never_bills_the_barrier() {
        // A single inline worker runs every chunk: the gap 50..100
        // (barrier plus snapshot) belongs to no board.
        let events = [(7u8, 0, 20), (7, 1, 50), (7, 2, 130)];
        let service = service_times(&events, &[0, 100]);
        assert_eq!(service, vec![(0, 20), (1, 30), (2, 30)]);
    }
}
