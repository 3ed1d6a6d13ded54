//! What every workload shares: the run configuration, the timed window,
//! repeated set-up, correctness gates, host facts and the two output
//! lines.

use crate::layers::Metric;
use crate::stats::{self, Fnv1a};
use sint_runtime::json::{Json, ToJson};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How often set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 5;

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Root seed; every input derives from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Worker threads for pooled workloads.
    pub threads: usize,
    /// Whether spans, probes and per-layer metrics are on.
    pub trace: bool,
    /// Directory for the workload's temporary files, inside the
    /// working directory.
    pub scratch: PathBuf,
}

/// Correctness gates: every check counts, the first few are kept.
#[derive(Debug, Default)]
pub struct Gates {
    failed: u64,
    messages: Vec<String>,
}

impl Gates {
    /// Records a failure described by `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up's duration.
    pub setup_s: Vec<f64>,
    /// Host latency of every op in the window.
    pub op_ms: Vec<f64>,
    /// Ops counted by the op latencies' definition (devices, rounds,
    /// boards).
    pub ops: u64,
    /// Trials completed in the window (devices count as trials).
    pub trials: u64,
    /// Timed window wall time, probes excluded.
    pub window_s: f64,
    /// Trials per second of each cycle; `trials_per_s` is their median,
    /// which a burst of host interference moves less than the mean.
    pub cycle_rates: Vec<f64>,
    /// Trials attempted.
    pub attempted: u64,
    /// Trials that errored, were shed, crashed or lost a record.
    pub failed: u64,
    /// Simulated TCKs and trials over the digest prefix, when the
    /// workload can observe TCKs.
    pub tck: Option<(u64, u64)>,
    /// Digest of the rendered reports of the digest prefix.
    pub digest: Fnv1a,
    /// Correctness gates.
    pub gates: Gates,
    /// The per-layer metrics every workload reports (traced runs).
    pub layers: Vec<Metric>,
    /// Per-layer metrics only this workload can observe (traced runs).
    pub workload_layers: Vec<Metric>,
}

/// Runs `make` [`SETUPS`] times — each a full construction plus one
/// warm-up op — and keeps the last state.
pub fn setup<S>(measured: &mut Measured, mut make: impl FnMut() -> S) -> S {
    let mut state = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        state = Some(make());
        measured.setup_s.push(start.elapsed().as_secs_f64());
    }
    state.expect("at least one set-up")
}

/// Runs whole cycles until at least `min_cycles` ran and the window,
/// minus the time each cycle reports as excluded (probes), reaches
/// `seconds`. Each cycle returns the trials it completed and its
/// excluded time; the window and every cycle's throughput land in
/// `measured`.
pub fn window(
    measured: &mut Measured,
    seconds: f64,
    min_cycles: usize,
    mut cycle: impl FnMut(&mut Measured, usize) -> (u64, Duration),
) {
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut cycles = 0;
    loop {
        let cycle_start = Instant::now();
        let (trials, skip) = cycle(measured, cycles);
        let busy = cycle_start.elapsed().saturating_sub(skip).as_secs_f64();
        measured.trials += trials;
        measured.cycle_rates.push(trials as f64 / busy);
        excluded += skip;
        cycles += 1;
        measured.window_s = start.elapsed().saturating_sub(excluded).as_secs_f64();
        if cycles >= min_cycles && measured.window_s >= seconds {
            return;
        }
    }
}

/// Host facts stamped on every result line.
#[must_use]
pub fn host(threads: usize) -> Json {
    Json::obj([
        ("nproc", nproc().to_json()),
        ("threads", threads.to_json()),
        ("commit", commit().to_json()),
    ])
}

/// Available hardware parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn value(v: f64, unit: &str) -> Json {
    Json::obj([("value", v.to_json()), ("unit", unit.to_json())])
}

/// Percentile `p` of the op latencies.
fn op_ms(m: &Measured, p: f64) -> f64 {
    if m.op_ms.is_empty() {
        f64::NAN
    } else {
        stats::percentile(&stats::sorted(&m.op_ms), p)
    }
}

/// The end-to-end metrics `BENCHMARK.json` bounds, in its order. The
/// tail latency is reported only in the result line: a shared host's
/// slow spells reach the tail in some runs and not others, so its
/// run-to-run spread exceeds any bound the benchmark may set.
#[must_use]
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        crate::layers::metric("setup_s", "s", stats::median(&m.setup_s)),
        crate::layers::metric("trials_per_s", "1/s", stats::median(&m.cycle_rates)),
        crate::layers::metric("op_p50_ms", "ms", op_ms(m, 50.0)),
        crate::layers::metric("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), value(m.value, m.unit)))
            .collect(),
    )
}

/// The full result line: every metric with its unit, host facts, op
/// counts, gates and the output digest.
#[must_use]
pub fn result_line(workload: &str, cfg: &Config, m: &Measured, tail_pct: f64) -> Json {
    let mut metrics = end_to_end(m);
    let fail_ratio = m.failed as f64 / m.attempted.max(1) as f64;
    metrics.insert(
        3,
        crate::layers::metric("op_tail_ms", "ms", op_ms(m, tail_pct)),
    );
    metrics.insert(
        4,
        crate::layers::metric("fail_ratio", "fraction", fail_ratio),
    );
    let mut metrics = metrics_json(&metrics);
    metrics.push(
        "tck_per_trial",
        match m.tck {
            Some((tck, trials)) => value(tck as f64 / trials.max(1) as f64, "TCK"),
            None => Json::obj([
                ("value", Json::Null),
                ("unit", "TCK".to_json()),
                ("note", "not observable".to_json()),
            ]),
        },
    );
    let mut line = Json::obj([
        ("workload", workload.to_json()),
        ("seed", cfg.seed.to_json()),
        ("host", host(cfg.threads)),
        ("ops", m.ops.to_json()),
        ("trials", m.trials.to_json()),
        ("attempted", m.attempted.to_json()),
        ("failed", m.failed.to_json()),
        ("window_s", m.window_s.to_json()),
        (
            "tail",
            Json::obj([
                ("pct", tail_pct.to_json()),
                ("beyond", stats::beyond(m.op_ms.len(), tail_pct).to_json()),
                (
                    "rule_pct",
                    stats::tail_rule(m.op_ms.len()).map_or(Json::Null, |p| p.to_json()),
                ),
            ]),
        ),
        ("metrics", metrics),
    ]);
    if cfg.trace {
        let mut layers = m.layers.clone();
        layers.extend(m.workload_layers.iter().cloned());
        line.push("per_layer", metrics_json(&layers));
    }
    line.push("output_digest", m.digest.hex().to_json());
    line.push("correct", m.gates.passed().to_json());
    line.push(
        "gate_failures",
        Json::arr(m.gates.messages.iter().map(String::as_str)),
    );
    line
}

/// The closing line, the one a harness running the `BENCHMARK.json`
/// command reads: `correct`, counts, and exactly the metrics
/// `BENCHMARK.json` declares for this mode.
#[must_use]
pub fn closing_line(cfg: &Config, m: &Measured) -> Json {
    let metrics = if cfg.trace {
        m.layers.clone()
    } else {
        end_to_end(m)
    };
    Json::obj([
        ("correct", (m.gates.passed() && m.failed == 0).to_json()),
        ("attempted", m.attempted.to_json()),
        ("failed", m.failed.to_json()),
        ("metrics", metrics_json(&metrics)),
    ])
}
