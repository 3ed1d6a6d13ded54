//! `adaptive_sweep`: severity-ladder campaigns on the adaptive engine,
//! one op per round of eight trials.

use crate::harness::{self, Config, Measured};
use crate::layers::{self, metric, LayerSample};
use crate::stats;
use crate::trace::{self, timed};
use sint_core::adaptive::{AdaptiveCheckpoint, AdaptiveConfig, AdaptiveRun};
use sint_core::campaign::{Campaign, Trial};
use sint_core::mafm::CoverageLedger;
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_interconnect::drive::DriveLevel;
use sint_interconnect::params::BusParams;
use sint_interconnect::Defect;
use sint_runtime::json::ToJson;
use sint_runtime::rng::Rng64;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "adaptive_sweep";
/// Percentile reported as `op_tail_ms`: round 1 of each campaign runs
/// on an empty ledger and sets the tail.
pub const TAIL_PCT: f64 = 80.0;
const STREAM: u64 = 3;
const WIRES: usize = 32;
const TRIALS: usize = 24;
const ROUND: usize = 8;
const DIGEST_CYCLES: usize = 1;

fn campaign() -> Campaign {
    Campaign::new(WIRES)
        .bus_params(BusParams::dsm_bus(WIRES).segments(2))
        .session(session())
        .adaptive(AdaptiveConfig {
            round: ROUND,
            reorder: true,
        })
}

fn session() -> SessionConfig {
    SessionConfig {
        dt: 10e-12,
        ..SessionConfig::method(ObservationMethod::Once)
    }
}

/// Campaign `c`: two seeded interior wires re-presented at coupling
/// ×5, ×6 and ×7 (one step per round); every other trial is a control.
/// The defective trials escalate and cost several controls each, so
/// they open each round: two workers then each start on one, instead of
/// the pool's claim order deciding whether one worker gets both.
fn trials(seed: u64, c: u64) -> Vec<Trial> {
    let mut rng = Rng64::new(seed).fork(STREAM).fork(c);
    let a = 1 + rng.gen_index(WIRES - 2);
    let b = 1 + (a + rng.gen_index(WIRES - 3)) % (WIRES - 2);
    (0..TRIALS)
        .map(|i| {
            let factor = 5.0 + (i / ROUND) as f64;
            match i % ROUND {
                0 => Trial::defective(Defect::CouplingBoost { wire: a, factor }),
                1 => Trial::defective(Defect::CouplingBoost { wire: b, factor }),
                _ => Trial::control(),
            }
        })
        .collect()
}

/// One campaign's run plus what its round callbacks saw.
struct Cycle {
    run: AdaptiveRun,
    trials: Vec<Trial>,
    rounds: Vec<Duration>,
    /// The coverage ledger each round started from.
    ledgers: Vec<CoverageLedger>,
    /// Cumulative TCKs after each round.
    tcks: Vec<u64>,
}

fn run_campaign(campaign: &Campaign, trials: Vec<Trial>, threads: usize, c: u64) -> Cycle {
    let mut checkpoint = AdaptiveCheckpoint::new(WIRES);
    let mut rounds = Vec::new();
    let mut ledgers = vec![CoverageLedger::new(WIRES)];
    let mut tcks = Vec::new();
    let (run, _) = timed("Campaign::run_adaptive_checkpointed", "core", c, || {
        let mut last = Instant::now();
        campaign.run_adaptive_checkpointed(&trials, threads, &mut checkpoint, |snap| {
            let now = Instant::now();
            trace::record("adaptive round", "core", c, last, now);
            rounds.push(now - last);
            ledgers.push(snap.ledger().clone());
            tcks.push(snap.total_tck());
            last = Instant::now();
        })
    });
    Cycle {
        run,
        trials,
        rounds,
        ledgers,
        tcks,
    }
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &Config) -> Measured {
    let mut m = Measured::default();
    let campaign = harness::setup(&mut m, || {
        let campaign = campaign();
        let warm = trials(cfg.seed, u64::MAX);
        std::hint::black_box(
            run_campaign(&campaign, warm[..ROUND].to_vec(), cfg.threads, u64::MAX)
                .run
                .total_tck,
        );
        campaign
    });
    let mut first_detected = Vec::new();
    let mut samples = Vec::new();
    let mut prober = layers::Prober::default();
    let (mut first_rounds, mut later_rounds) = (Vec::new(), Vec::new());
    let (mut dropped, mut escalations, mut detected_pairs, mut campaigns) =
        (0u64, 0u64, 0usize, 0usize);
    harness::window(&mut m, cfg.seconds, DIGEST_CYCLES, |m, c| {
        let cycle = run_campaign(&campaign, trials(cfg.seed, c as u64), cfg.threads, c as u64);
        let run = &cycle.run;
        let lost = (run.failures.len() + run.shed.len()) as u64;
        m.attempted += TRIALS as u64;
        m.failed += lost;
        m.ops += cycle.rounds.len() as u64;
        m.op_ms
            .extend(cycle.rounds.iter().map(|d| d.as_secs_f64() * 1e3));
        first_rounds.push(cycle.rounds[0].as_secs_f64() * 1e3);
        later_rounds.extend(cycle.rounds[1..].iter().map(|d| d.as_secs_f64() * 1e3));
        let stats = run.stats;
        m.gates
            .check(run.failures.is_empty() && run.shed.is_empty(), || {
                format!(
                    "campaign {c}: {} failed, {} shed",
                    run.failures.len(),
                    run.shed.len()
                )
            });
        m.gates.check(
            stats.false_alarms == 0 && stats.detected == stats.defect_trials,
            || format!("campaign {c}: {stats}"),
        );
        dropped += run.dropped;
        escalations += run.escalations;
        detected_pairs += run.detected.len();
        campaigns += 1;
        if c < DIGEST_CYCLES {
            m.digest.write(run.to_json().render().as_bytes());
            let (tck, trials) = m.tck.unwrap_or((0, 0));
            m.tck = Some((tck + run.total_tck, trials + TRIALS as u64));
        }
        if c == 0 {
            first_detected = run.detected.clone();
        }
        let completed = TRIALS as u64 - lost;
        if !cfg.trace {
            return (completed, Duration::ZERO);
        }
        let start = Instant::now();
        for r in 0..cycle.rounds.len() {
            match sample(&mut prober, &cycle, r, c, cfg.threads) {
                Ok(s) => samples.push(s),
                Err(e) => m
                    .gates
                    .check(false, || format!("campaign {c} round {r} probe: {e}")),
            }
        }
        (completed, start.elapsed())
    });

    // The equivalence gate: the adaptive engine must detect exactly
    // what the attributed-exhaustive oracle detects.
    let (oracle, _) = timed("Campaign::run_attributed", "core", 0, || {
        campaign.run_attributed(&trials(cfg.seed, 0), cfg.threads)
    });
    m.gates.check(oracle.detected == first_detected, || {
        format!(
            "campaign 0: adaptive detected {first_detected:?}, oracle {:?}",
            oracle.detected
        )
    });

    if !samples.is_empty() {
        m.layers = layers::universal(&samples);
    }
    let trials_run = (campaigns * TRIALS) as f64;
    m.workload_layers = vec![
        metric(
            "core.adaptive.drop_ratio",
            "fraction",
            dropped as f64 / (trials_run * 6.0 * WIRES as f64),
        ),
        metric(
            "core.adaptive.escalations_per_trial",
            "count",
            escalations as f64 / trials_run,
        ),
        metric(
            "core.adaptive.detected_pairs",
            "count",
            detected_pairs as f64 / campaigns as f64,
        ),
        metric(
            "core.adaptive.round_first_ms",
            "ms",
            stats::median(&first_rounds),
        ),
        metric(
            "core.adaptive.round_rest_ms",
            "ms",
            stats::median(&later_rounds),
        ),
    ];
    m
}

/// Replays one trial of round `r` — rotating through the round's
/// positions across campaigns — as an adaptive session on the ledger
/// the round started from, in the paper's half order.
fn sample(
    prober: &mut layers::Prober,
    cycle: &Cycle,
    r: usize,
    c: usize,
    threads: usize,
) -> Result<LayerSample, String> {
    let index = r * ROUND + (c + r) % ROUND;
    let op = c as u64;
    let mut builder = SocBuilder::new(WIRES).bus_params(BusParams::dsm_bus(WIRES).segments(2));
    if let Some(defect) = cycle.trials[index].defect {
        builder = builder.defect(defect);
    }
    let (soc, build) = timed("SocBuilder::build", "core", op, || builder.build());
    let mut soc = soc.map_err(|e| e.to_string())?;
    let (outcome, session_time) = timed("Soc::run_adaptive_session", "core", op, || {
        soc.run_adaptive_session(
            &session(),
            &cycle.ledgers[r],
            [DriveLevel::Low, DriveLevel::High],
        )
    });
    outcome.map_err(|e| e.to_string())?;
    let units = prober.probe(&mut soc, &session(), op)?;
    let round_tck = cycle.tcks[r] - if r == 0 { 0 } else { cycle.tcks[r - 1] };
    Ok(LayerSample {
        trial_ns: layers::ns(cycle.rounds[r]) * threads.min(ROUND) as f64 / ROUND as f64,
        build_ns: layers::ns(build),
        session_ns: layers::ns(session_time),
        transients: soc.transients_run() as f64,
        tck: round_tck as f64 / ROUND as f64,
        scalar: false,
        units,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_put_two_distinct_interior_wires_on_a_ladder() {
        for c in 0..200u64 {
            let trials = trials(5, c);
            let wires: Vec<usize> = trials
                .iter()
                .filter_map(|t| t.defect.map(|d| d.focus_wire()))
                .collect();
            assert_eq!(wires.len(), 6);
            assert_ne!(wires[0], wires[1], "campaign {c}");
            assert!(
                wires.iter().all(|w| (1..WIRES - 1).contains(w)),
                "campaign {c}: {wires:?}"
            );
            assert_eq!(wires[0..2], wires[2..4]);
        }
    }
}
