//! # sintbench — the seeded benchmark of the `sint` workspace
//!
//! One binary measures the reproduction end to end and layer by layer,
//! and checks every output it times against ground truth.
//!
//! ```text
//! sintbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--trace-dir DIR] [--threads T]
//! sintbench run --seed N [--seconds S] [--trace DIR] [--threads T]
//! sintbench compare [--bench BENCHMARK.json] --parent FILE... --change FILE...
//! ```
//!
//! From the repository root, `cargo run --release --manifest-path
//! sintbench/Cargo.toml -- run --seed 1` runs every workload in its own
//! child process and prints one result line per workload: the
//! end-to-end metrics with units, host facts (`nproc`, threads, commit),
//! the seed, op counts, the timed window, the gates and an
//! `output_digest` (FNV-1a over the rendered reports, identical for a
//! seed at any thread count). `--trace DIR` repeats each workload with
//! spans on, writes `DIR/<workload>.trace.json`, prints the per-layer
//! metrics and each workload's `trace_overhead_pct` (traced against
//! untraced `trials_per_s`, probe time excluded). `--workload` runs one
//! workload and ends with the one-line JSON result `BENCHMARK.json`
//! describes; `compare` turns ten or more alternating parent/change
//! result files into verdicts (see [`compare`]).
//!
//! Inputs derive from `--seed` alone through `Rng64` forks; threads are
//! `min(2, nproc)` (`SINT_THREADS` is ignored); nothing runs against a
//! wall-clock deadline or budget, so no outcome depends on scheduling.
//! Every workload is a closed loop — one tester, the next op starts
//! when the previous one ends — that runs whole cycles until the window
//! closes:
//!
//! - **`paper_session`** — one op per fresh device: `SocBuilder::build`
//!   plus one `run_integrity_test` at n = 32, m = 10 on the paper grid
//!   (8 segments, 2 ps), each die with its own variation, methods 1, 2
//!   and 3 once per triple in seeded order. The paper's headline
//!   session; its time goes to the solver (method 3 flushes one pattern
//!   per solve, methods 1–2 solve in panels), and every die has its own
//!   bus fingerprint, so a waveform memo is bypassed here.
//! - **`long_chain`** — one op per device at n = 8, m = 500 (a 516-cell
//!   chain), method 3, coarse grid (2 segments, 10 ps). JTAG shifting
//!   dominates and the solver barely runs: a packed shift register
//!   shows here and should not move `paper_session`.
//! - **`adaptive_sweep`** — campaigns of 24 trials on a 32-wire coarse
//!   bus, two seeded wires on a ×5–7 coupling ladder, the rest
//!   controls; one op per round of 8 trials, timed between
//!   `run_adaptive_checkpointed` callbacks. The ledger, escalation and
//!   any memo act here; round 1 (empty ledger) sets the tail and later
//!   rounds the median.
//! - **`floor`** — 1000-board floors × 3 trials, three unbudgeted
//!   clients, records framed to a file with a flush and `store_pair`
//!   every 100 boards and a final fsync, then read back with
//!   `load_pair` and `replay_summary`; one op per board (between
//!   `board_done` calls on one worker). Exercises fleet scheduling, the
//!   chunk barrier, sink contention, durable writes and the read path.
//!
//! Devices carry a quarter controls, then coupling ×4–8, resistive open
//! +2–5 kΩ or weak driver ×4–7 on a seeded interior wire — a mix where
//! every defect is detectable, so each miss is a regression. Gates:
//! session TCKs equal `timing::method_total_tcks`, controls flag no
//! wire and defects flag their wire; the adaptive campaign 0 detects
//! exactly what `run_attributed` detects; a floor's `load_pair` and
//! `replay_summary` render byte-identical to its in-memory summary with
//! no trial lost. A failed gate makes the run exit non-zero.
//!
//! **Rule:** a change that claims a performance gain may not edit this
//! directory or `BENCHMARK.json`; a change to the benchmark claims no
//! gain, and the baseline is measured again after it.
//!
//! The model is not validated against silicon. The only reference the
//! benchmark checks it against is the paper's closed-form TCK tables;
//! host times are of this simulator, not of test hardware.

mod adaptive;
mod compare;
mod device;
mod floor;
mod harness;
mod layers;
mod stats;
mod trace;

use harness::{Config, Measured};
use sint_runtime::json::{Json, ToJson};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Every workload, in the order `run` executes them.
const WORKLOADS: [&str; 4] = ["paper_session", "long_chain", "adaptive_sweep", "floor"];

/// Default timed window; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 25.0;

/// Runs a workload by name, returning its measurements and tail
/// percentile.
fn run_workload(name: &str, cfg: &Config) -> Option<(Measured, f64)> {
    let devices = [device::PAPER_SESSION, device::LONG_CHAIN];
    if let Some(w) = devices.iter().find(|w| w.name == name) {
        return Some((w.run(cfg), w.tail_pct));
    }
    Some(match name {
        adaptive::NAME => (adaptive::run(cfg), adaptive::TAIL_PCT),
        floor::NAME => (floor::run(cfg), floor::TAIL_PCT),
        _ => return None,
    })
}

/// `--key value` options after the subcommand.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(key) = iter.next() {
            let key = key
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {key}"))?;
            let value = iter.next().ok_or(format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Options(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("--{key}: bad value {v}"))
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds: f64 = self.number("seconds", DEFAULT_SECONDS)?;
        if seconds.is_finite() && seconds > 0.0 {
            Ok(seconds)
        } else {
            Err("--seconds must be positive".to_string())
        }
    }

    /// `min(2, nproc)` unless overridden, never above `nproc`.
    fn threads(&self) -> Result<usize, String> {
        let threads: usize = self.number("threads", 2)?;
        Ok(threads.clamp(1, harness::nproc()))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => return compare::main(&args[1..]),
        Some(_) => one_workload(&args),
        None => Err("no command".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sintbench: {e}");
            eprintln!("usage: sintbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--trace-dir DIR] [--threads T]");
            eprintln!("       sintbench run --seed N [--seconds S] [--trace DIR] [--threads T]");
            eprintln!("       sintbench compare [--bench BENCHMARK.json] --parent FILE... --change FILE...");
            eprintln!("workloads: {}", WORKLOADS.join(", "));
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result line, then
/// the closing line.
fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args)?;
    opts.check_known(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "trace-dir",
        "threads",
    ])?;
    let name = opts.get("workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&name) {
        return Err(format!("unknown workload {name}"));
    }
    let trace = match opts.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let tmp = PathBuf::from(".sintbench_tmp");
    let cfg = Config {
        seed: opts.number("seed", 1)?,
        seconds: opts.seconds()?,
        threads: opts.threads()?,
        trace,
        scratch: tmp.join(format!("{name}-{}", std::process::id())),
    };
    if trace {
        trace::enable();
    }
    let (measured, tail_pct) = run_workload(name, &cfg).expect("name checked above");
    let _ = std::fs::remove_dir(&tmp);
    if trace {
        let spans = trace::drain();
        eprintln!("{name}: self time by layer ({} spans)", spans.len());
        for (layer, count, self_ns) in trace::layer_totals(&spans) {
            eprintln!(
                "  {layer:<13} {count:>8} spans {:>12.3} ms",
                self_ns as f64 / 1e6
            );
        }
        if let Some(dir) = opts.get("trace-dir") {
            let path = PathBuf::from(dir).join(format!("{name}.trace.json"));
            std::fs::create_dir_all(dir)
                .and_then(|()| trace::write(&path, name, &spans))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!(
        "{}",
        harness::result_line(name, &cfg, &measured, tail_pct).render()
    );
    let closing = harness::closing_line(&cfg, &measured);
    let correct = closing.get("correct").and_then(Json::as_bool) == Some(true);
    println!("{}", closing.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process; returns its result line.
fn child(name: &str, opts: &Options, trace_dir: Option<&str>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        opts.get("seed").unwrap_or("1"),
    ]);
    cmd.args(["--seconds", &opts.seconds()?.to_string()]);
    cmd.args(["--threads", &opts.threads()?.to_string()]);
    match trace_dir {
        Some(dir) => cmd.args(["--trace", "1", "--trace-dir", dir]),
        None => cmd.args(["--trace", "0"]),
    };
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.contains("\"workload\""))
        .ok_or(format!("{name}: no result line (exit {})", out.status))?;
    let json = Json::parse(line).map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() {
        println!("{line}");
        return Err(format!("{name}: exit {}", out.status));
    }
    Ok(json)
}

fn trials_per_s(line: &Json) -> f64 {
    line.get("metrics")
        .and_then(|m| m.get("trials_per_s"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// `run`: every workload in its own child, untraced, and with
/// `--trace DIR` once more traced.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args)?;
    opts.check_known(&["seed", "seconds", "trace", "threads"])?;
    opts.number::<u64>("seed", 1)?;
    let mut ok = true;
    for name in WORKLOADS {
        let plain = match child(name, &opts, None) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("sintbench: {e}");
                ok = false;
                continue;
            }
        };
        println!("{}", plain.render());
        let Some(dir) = opts.get("trace") else {
            continue;
        };
        match child(name, &opts, Some(dir)) {
            Ok(mut traced) => {
                let overhead = (1.0 - trials_per_s(&traced) / trials_per_s(&plain)) * 100.0;
                traced.push("trace_overhead_pct", overhead.to_json());
                println!("{}", traced.render());
                print_layers(name, &traced);
            }
            Err(e) => {
                eprintln!("sintbench: {e}");
                ok = false;
            }
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_layers(name: &str, traced: &Json) {
    println!("per-layer metrics, {name}:");
    if let Some(Json::Object(metrics)) = traced.get("per_layer") {
        for (metric, v) in metrics {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {metric:<40} {value:>14.4} {unit}");
        }
    }
    if let Some(overhead) = traced.get("trace_overhead_pct").and_then(Json::as_f64) {
        println!("  {:<40} {overhead:>14.2} %", "trace_overhead_pct");
    }
}
