//! Workspace-level robustness contracts: every injectable
//! scan-infrastructure fault is caught *before* a session can misblame
//! the interconnect, and campaigns carrying broken trials complete with
//! per-trial failure records while their healthy trials stay
//! byte-identical to a fault-free run at any thread count.

use sint::core::campaign::{Campaign, Trial, TrialOutcome};
use sint::core::session::{ObservationMethod, SessionConfig};
use sint::core::soc::SocBuilder;
use sint::core::CoreError;
use sint::interconnect::{BusParams, Defect, InterconnectError};
use sint::jtag::{ScanFault, TapState};
use sint::runtime::json::ToJson;

fn session() -> SessionConfig {
    SessionConfig::method(ObservationMethod::Once)
}

/// Every `ScanFault` kind, across several fault sites.
fn fault_matrix() -> Vec<ScanFault> {
    vec![
        ScanFault::StuckAtZero { link: 0 },
        ScanFault::StuckAtZero { link: 1 },
        ScanFault::StuckAtOne { link: 0 },
        ScanFault::StuckAtOne { link: 1 },
        ScanFault::BitFlip { link: 0, period: 3 },
        ScanFault::BitFlip { link: 1, period: 7 },
        ScanFault::StuckTap { state: TapState::TestLogicReset },
        ScanFault::StuckTap { state: TapState::RunTestIdle },
        ScanFault::StuckTap { state: TapState::ShiftDr },
        ScanFault::StuckTap { state: TapState::ShiftIr },
        ScanFault::DroppedTck { period: 2 },
        ScanFault::DroppedTck { period: 5 },
    ]
}

#[test]
fn every_scan_fault_is_caught_before_the_session() {
    for fault in fault_matrix() {
        let mut soc = SocBuilder::new(3).scan_fault(fault).build().unwrap();
        match soc.run_integrity_test(&session()) {
            Err(CoreError::Infrastructure(diag)) => {
                assert!(!diag.report.healthy(), "{fault}: report must carry anomalies");
                assert!(
                    !diag.report.anomalies.is_empty(),
                    "{fault}: diagnosis must name at least one anomaly"
                );
                // The diagnosis is structured: it serialises with the
                // anomaly kind tags intact.
                let j = diag.to_json().render();
                assert!(j.contains("\"anomalies\":["), "{fault}: {j}");
            }
            Ok(report) => panic!(
                "{fault}: session ran to completion and reported {report} — \
                 an infrastructure fault leaked into SI verdicts"
            ),
            Err(other) => panic!("{fault}: wrong error class {other:?}"),
        }
    }
}

#[test]
fn healthy_infrastructure_is_never_misreported() {
    // The control arm of the matrix: no fault, same SoC, same session —
    // the self-check must pass and the session must run.
    let mut soc = SocBuilder::new(3).build().unwrap();
    let report = soc.check_infrastructure().unwrap();
    assert!(report.healthy(), "healthy chain misdiagnosed: {report}");
    assert!(soc.run_integrity_test(&session()).is_ok());
}

#[test]
fn infrastructure_faults_are_not_confused_with_si_defects() {
    // A scan fault and a real SI defect on the same SoC: the session is
    // refused on infrastructure grounds (the SI verdict would be
    // garbage). Removing the scan fault, the same defect is detected.
    let mut broken = SocBuilder::new(3)
        .coupling_defect(1, 6.0)
        .scan_fault(ScanFault::BitFlip { link: 0, period: 5 })
        .build()
        .unwrap();
    assert!(matches!(
        broken.run_integrity_test(&session()),
        Err(CoreError::Infrastructure(_))
    ));
    let mut clean = SocBuilder::new(3).coupling_defect(1, 6.0).build().unwrap();
    let report = clean.run_integrity_test(&session()).unwrap();
    assert!(report.wire(1).noise, "defect must be detected once the chain is repaired");
}

/// 20 trials, 10% broken: index 3 panics mid-trial, index 7 injects a
/// defect so extreme the transient solver diverges.
fn mixed_batch() -> Vec<Trial> {
    (0..20)
        .map(|i| match i {
            3 => Trial::panicking(),
            7 => Trial::defective(Defect::CouplingBoost { wire: 1, factor: 1e308 }),
            i if i % 2 == 0 => Trial::control(),
            _ => Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
        })
        .collect()
}

#[test]
fn faulty_trials_fail_in_place_without_hurting_the_batch() {
    let campaign = Campaign::new(3);
    let batch = mixed_batch();
    let fault_free: Vec<Trial> =
        batch.iter().enumerate().filter(|(i, _)| *i != 3 && *i != 7).map(|(_, t)| *t).collect();
    // Reference: the healthy subset run on its own. Outcomes depend
    // only on the trial (no variation is configured), so they can be
    // compared across differently indexed batches.
    let reference = campaign.run_parallel(&fault_free, 1);
    assert!(reference.failures.is_empty());
    let reference_json: Vec<String> =
        reference.outcomes.iter().map(|o| o.to_json().render()).collect();

    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        let run = campaign.run_parallel(&batch, threads);
        assert_eq!(run.outcomes.len(), 20, "{threads} threads");
        assert_eq!(run.stats.failed_trials, 2, "{threads} threads");
        assert_eq!(run.failures.len(), 2, "{threads} threads");
        assert_eq!(run.outcomes[3], TrialOutcome::Failed);
        assert_eq!(run.outcomes[7], TrialOutcome::Failed);
        assert!(run.failures[0].error.contains("injected fault"), "{}", run.failures[0].error);
        assert!(run.failures[1].error.contains("diverged"), "{}", run.failures[1].error);
        // The healthy trials' verdicts are exactly the fault-free run's.
        let healthy_json: Vec<String> = run
            .outcomes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3 && *i != 7)
            .map(|(_, o)| o.to_json().render())
            .collect();
        assert_eq!(healthy_json, reference_json, "{threads} threads");
        runs.push(run);
    }
    // And the whole run (stats, outcomes, failures) is thread-count
    // invariant, byte for byte.
    let serial = runs[0].to_json().render();
    for (run, threads) in runs.iter().zip([1usize, 2, 4]) {
        assert_eq!(run.to_json().render(), serial, "{threads} threads");
    }
}

/// Two extreme buses whose banded factorisation at the build's 2 ps is
/// singular. Neither has a sound session on any other solver set-up:
/// bus H factors at 1 ps, but every session asks for the configured
/// 2 ps; bus D factors on the dense engine, which drives a held-High
/// wire to −0.56 V. The build refuses both with a typed error.
#[test]
fn singular_buses_are_refused_at_build() {
    let bus_h = BusParams::dsm_bus(3)
        .segments(4)
        .length_mm(18.84793467585483)
        .r_per_mm(115611088244.47957)
        .cg_per_mm(1.3386967630196118e-28)
        .cc_per_mm(1.7293247385277566e-8)
        .driver_r(540.7335096585623)
        .receiver_c(0.0);
    let bus_d = BusParams::dsm_bus(2)
        .segments(3)
        .length_mm(75.53693259016308)
        .r_per_mm(17614169278.311813)
        .cg_per_mm(2.735542257123712e-29)
        .cc_per_mm(2.708561989881726e-9)
        .driver_r(109958.97384412974)
        .receiver_c(0.0);
    for (name, wires, params) in [("H", 3, bus_h), ("D", 2, bus_d)] {
        let built = SocBuilder::new(wires).bus_params(params).sd_window(100e-12).build();
        match built {
            Err(CoreError::Interconnect(InterconnectError::SingularMatrix)) => {}
            Err(other) => panic!("bus {name}: expected SingularMatrix, got {other:?}"),
            Ok(_) => panic!("bus {name} built, but no solver gives it a sound session"),
        }
    }
}
