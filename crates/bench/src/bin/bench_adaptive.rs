//! Bench: adaptive campaign engine vs the attributed-exhaustive oracle
//! on a 32-wire sparse-defect severity sweep (DESIGN.md §13).
//!
//! The batch is the shape the adaptive layer exists for: most trials
//! are healthy controls, and the few defective ones keep re-exciting
//! the same two wires across a severity sweep — so after the first
//! round the coverage ledger truncates every schedule past its last
//! uncovered pair, read-out escalation localizes only failing
//! sub-ranges, and the campaign's TCK budget collapses. The artifact
//! asserts the acceptance bar (≥3× TCK reduction) and the equivalence
//! gate (identical detected sets) before it is written, so a
//! regression fails the bench run rather than silently shipping a
//! worse artifact.

use sint_bench::{emit_artifact, threads_from_env};
use sint_core::adaptive::AdaptiveRun;
use sint_core::campaign::{Campaign, Trial};
use sint_core::checkpoint::CampaignCheckpoint;
use sint_core::mafm::CoverageLedger;
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_interconnect::drive::DriveLevel;
use sint_interconnect::params::BusParams;
use sint_interconnect::Defect;
use sint_runtime::bench::{black_box, Bench};
use sint_runtime::json::{Json, ToJson};

const WIRES: usize = 32;
const TRIALS: usize = 24;

/// Sparse severity sweep: 2 defective wires out of 32, re-excited at
/// ascending severity; everything else is a healthy control.
fn trials() -> Vec<Trial> {
    (0..TRIALS)
        .map(|i| match i % 8 {
            1 => Trial::defective(Defect::CouplingBoost {
                wire: 7,
                factor: 5.0 + (i / 8) as f64,
            }),
            5 => Trial::defective(Defect::CouplingBoost {
                wire: 31,
                factor: 5.0 + (i / 8) as f64,
            }),
            _ => Trial::control(),
        })
        .collect()
}

fn campaign() -> Campaign {
    Campaign::new(WIRES)
        .bus_params(BusParams::dsm_bus(WIRES).segments(2))
        .session(SessionConfig { dt: 10e-12, ..SessionConfig::method(ObservationMethod::Once) })
}

/// The adaptive engine from a fresh ledger, nothing persisted.
fn adaptive_run(campaign: &Campaign, batch: &[Trial], threads: usize) -> AdaptiveRun {
    let mut checkpoint = CampaignCheckpoint::new(campaign.wires());
    campaign.run_adaptive_checkpointed(batch, threads, &mut checkpoint, |_| {})
}

fn main() {
    let threads = threads_from_env();
    let campaign = campaign();
    let batch = trials();

    // Correctness first: the detected sets must match exactly, and the
    // adaptive path must clear the 3x TCK bar, before any timing runs.
    let exhaustive = campaign.run_attributed(&batch, threads);
    let adaptive = adaptive_run(&campaign, &batch, threads);
    assert_eq!(
        adaptive.detected, exhaustive.detected,
        "adaptive campaign must detect exactly the exhaustive attribution"
    );
    assert!(
        !adaptive.detected.is_empty(),
        "sweep must actually detect something for the comparison to mean anything"
    );
    let reduction = exhaustive.total_tck as f64 / adaptive.total_tck.max(1) as f64;
    assert!(
        reduction >= 3.0,
        "adaptive TCK reduction {reduction:.2}x below the 3x bar \
         (exhaustive {} vs adaptive {})",
        exhaustive.total_tck,
        adaptive.total_tck
    );

    // Campaign iterations cost seconds, not microseconds: a trimmed
    // sample count keeps the whole bin around two minutes of wall
    // clock while the min-iteration floor still smooths the
    // ledger-dependent jitter of the adaptive path.
    let mut b = Bench::new("adaptive").samples(10).min_iters(2);
    b.measure(&format!("exhaustive_campaign/n{WIRES}/t{TRIALS}"), || {
        black_box(campaign.run_attributed(black_box(&batch), threads));
    });
    b.measure(&format!("adaptive_campaign/n{WIRES}/t{TRIALS}"), || {
        black_box(adaptive_run(&campaign, black_box(&batch), threads));
    });

    // A single-SoC measurement for the per-session view (no campaign
    // amortisation): adaptive localization on one defective device.
    {
        let mut soc = SocBuilder::new(WIRES)
            .bus_params(BusParams::dsm_bus(WIRES).segments(2))
            .defect(Defect::CouplingBoost { wire: 7, factor: 6.0 })
            .build()
            .expect("soc builds");
        let cfg =
            SessionConfig { dt: 10e-12, ..SessionConfig::method(ObservationMethod::Once) };
        let ledger = CoverageLedger::new(WIRES);
        let order = [DriveLevel::Low, DriveLevel::High];
        b.measure(&format!("adaptive_session/n{WIRES}"), || {
            black_box(soc.run_adaptive_session(&cfg, &ledger, order).expect("session runs"));
        });
    }

    print!("{}", b.table());
    let artifact = Json::obj([
        ("suite", "adaptive".to_json()),
        ("results", b.results().to_json()),
        (
            "tck",
            Json::obj([
                ("exhaustive", exhaustive.total_tck.to_json()),
                ("adaptive", adaptive.total_tck.to_json()),
                ("reduction", reduction.to_json()),
                ("dropped", adaptive.dropped.to_json()),
                ("escalations", adaptive.escalations.to_json()),
                ("detected_pairs", adaptive.detected.len().to_json()),
                ("equivalent", true.to_json()),
            ]),
        ),
    ]);
    emit_artifact("bench_adaptive", &artifact);
}
