//! `sintbench compare`: verdicts from paired parent/change runs.
//!
//! Each result file is the standard output of one `sintbench run` (or
//! of single-workload runs); file `i` of `--parent` and file `i` of
//! `--change` form pair `i`, so run the two sides alternately. For each
//! workload and end-to-end metric of `BENCHMARK.json` the report gives
//! both sides' median and quartiles, the share of pairs the change won,
//! and a verdict:
//!
//! - **improved** — the change won at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ in its favour by
//!   more than the parent's interquartile range;
//! - **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! - **unresolved** — the parent's own spread is wider than the bound,
//!   unless every change run reads better than every parent run;
//! - **unchanged** — otherwise.
//!
//! Any difference in `output_digest`, `tck_per_trial` or `fail_ratio`
//! within a pair run at one seed is flagged: a speed-up must not change
//! what the simulator computes.

use crate::stats::{self, PairTally};
use sint_runtime::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the win rule.
    Improved,
    /// Worse than the bound allows.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The parent's own spread exceeds the bound.
    Unresolved,
}

/// Applies the rules of the module documentation.
///
/// # Panics
///
/// Panics on fewer than two pairs.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], higher_better: bool, bound: f64) -> Verdict {
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let spread = stats::iqr(parent);
    let gain = if higher_better { mc - mp } else { mp - mc };
    if PairTally::count(parent, change, higher_better).change_wins_nine_tenths() && gain > spread {
        return Verdict::Improved;
    }
    if -gain > bound * mp.abs() {
        return Verdict::Worse;
    }
    let fold = |f: fn(f64, f64) -> f64, v: &[f64], init: f64| v.iter().copied().fold(init, f);
    let all_better = if higher_better {
        fold(f64::min, change, f64::INFINITY) > fold(f64::max, parent, f64::NEG_INFINITY)
    } else {
        fold(f64::max, change, f64::NEG_INFINITY) < fold(f64::min, parent, f64::INFINITY)
    };
    if spread > bound * mp.abs() && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_better: bool,
    bound: f64,
}

fn declared(path: &str) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = root
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no end_to_end"))?;
    list.iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                higher_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Untraced result lines of one file, by workload (traced lines carry
/// `per_layer` and their end-to-end numbers include tracing).
fn results(path: &str) -> Result<BTreeMap<String, Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| l.contains("\"workload\"")) {
        let json = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if json.get("per_layer").is_some() {
            continue;
        }
        if let Some(name) = json.get("workload").and_then(Json::as_str) {
            out.insert(name.to_string(), json);
        }
    }
    Ok(out)
}

fn metric(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn exact(line: &Json, name: &str) -> String {
    match name {
        "output_digest" => line
            .get(name)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        _ => line
            .get("metrics")
            .and_then(|m| m.get(name))
            .map(Json::render)
            .unwrap_or_default(),
    }
}

/// Entry point: `compare [--bench BENCHMARK.json] --parent FILE… --change FILE…`.
#[must_use]
pub fn main(args: &[String]) -> ExitCode {
    let mut bench = "BENCHMARK.json".to_string();
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--bench" => match iter.next() {
                Some(path) => bench.clone_from(path),
                None => return usage("--bench needs a path"),
            },
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            file => match side.as_mut() {
                Some(list) => list.push(file.to_string()),
                None => return usage(&format!("unexpected argument {file}")),
            },
        }
    }
    if parent.len() != change.len() || parent.len() < 2 {
        return usage("need the same number (at least two) of parent and change files");
    }
    match report(&bench, &parent, &change) {
        Ok(clean) => {
            if parent.len() < 10 {
                println!("note: {} pairs; a gain needs at least ten", parent.len());
            }
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sintbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("sintbench compare: {problem}");
    eprintln!(
        "usage: sintbench compare [--bench BENCHMARK.json] --parent FILE... --change FILE..."
    );
    ExitCode::from(2)
}

/// Prints the verdict table; returns whether nothing got worse and no
/// exact output changed.
fn report(bench: &str, parent: &[String], change: &[String]) -> Result<bool, String> {
    let metrics = declared(bench)?;
    let load = |files: &[String]| {
        files
            .iter()
            .map(|f| results(f))
            .collect::<Result<Vec<_>, _>>()
    };
    let (parent, change) = (load(parent)?, load(change)?);
    let mut clean = true;
    println!(
        "{:<15} {:<13} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for workload in parent[0].keys() {
        let pairs: Vec<(&Json, &Json)> = parent
            .iter()
            .zip(&change)
            .filter_map(|(p, c)| Some((p.get(workload)?, c.get(workload)?)))
            .collect();
        if pairs.len() < 2 {
            continue;
        }
        for m in &metrics {
            let values = |side: usize| -> Option<Vec<f64>> {
                pairs
                    .iter()
                    .map(|pair| metric(if side == 0 { pair.0 } else { pair.1 }, &m.name))
                    .collect()
            };
            let (Some(p), Some(c)) = (values(0), values(1)) else {
                continue;
            };
            let v = verdict(&p, &c, m.higher_better, m.bound);
            clean &= v != Verdict::Worse;
            let side = |v: &[f64]| {
                let [q1, q2, q3] = stats::quartiles(v);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let tally = PairTally::count(&p, &c, m.higher_better);
            println!(
                "{workload:<15} {:<13} {:>30} {:>30} {:>6}  {v:?}",
                m.name,
                side(&p),
                side(&c),
                format!("{}/{}", tally.change, tally.pairs())
            );
        }
        // Exact outputs repeat only for the same inputs: compare pairs
        // that ran one seed.
        let same_seed = |p: &Json, c: &Json| p.get("seed") == c.get("seed");
        for name in ["output_digest", "tck_per_trial", "fail_ratio"] {
            for (i, (p, c)) in pairs
                .iter()
                .enumerate()
                .filter(|(_, (p, c))| same_seed(p, c))
            {
                let (a, b) = (exact(p, name), exact(c, name));
                if a != b {
                    clean = false;
                    println!("{workload:<15} FLAG pair {i}: {name} changed: {a} -> {b}");
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_win_rule_and_the_bound() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0,
        ];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&parent, &faster, false, 0.05), Verdict::Improved);
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.1).collect();
        assert_eq!(verdict(&parent, &slower, false, 0.05), Verdict::Worse);
        assert_eq!(
            verdict(&parent, &slower, true, 0.05),
            Verdict::Improved,
            "higher is better"
        );
        assert_eq!(verdict(&parent, &parent, false, 0.05), Verdict::Unchanged);
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &noisy, false, 0.05), Verdict::Unresolved);
    }
}
