//! Golden session bytes: pins the rendered report of every `Soc`
//! session entry on one fixed defective SoC, byte for byte.
//!
//! The methods 1–3 sessions, the attributed-exhaustive oracle and the
//! adaptive session (empty and half-covered ledger) all drive the same
//! PGBSC halves; only their read-out points differ. The snapshot pins
//! each read-out's point, order and detector bits (the adaptive probe
//! records included), the TCK and pattern counts, and the adaptive
//! attributions and counters, so a change to how sessions are planned
//! or executed that moves any of them shows up as a diff here.

use sint::core::mafm::{CoverageLedger, IntegrityFault};
use sint::core::session::{ObservationMethod, SessionConfig};
use sint::core::soc::{AdaptiveSessionOutcome, Soc, SocBuilder};
use sint::interconnect::drive::DriveLevel;
use sint::interconnect::params::BusParams;
use sint::runtime::json::{Json, ToJson};

const WIRES: usize = 8;

/// Eight wires on the coarse two-segment grid with a coupling defect on
/// wire 2: its patterns and its neighbours' fail, the rest pass, so the
/// adaptive escalation needs guard probes across the clean gaps.
fn soc() -> Soc {
    SocBuilder::new(WIRES)
        .bus_params(BusParams::dsm_bus(WIRES).segments(2))
        .coupling_defect(2, 6.0)
        .build()
        .unwrap()
}

fn config(method: ObservationMethod) -> SessionConfig {
    SessionConfig { dt: 10e-12, ..SessionConfig::method(method) }
}

fn adaptive_json(outcome: &AdaptiveSessionOutcome) -> Json {
    let detected = outcome
        .detected
        .iter()
        .map(|(victim, fault)| Json::arr([victim.to_json(), format!("{fault:?}").to_json()]));
    Json::obj([
        ("report", outcome.report.to_json()),
        ("detected", Json::Array(detected.collect())),
        ("dropped", outcome.dropped.to_json()),
        ("escalations", outcome.escalations.to_json()),
    ])
}

fn snapshot_json() -> Json {
    let mut entries = Vec::new();
    for (name, method) in [
        ("method_1", ObservationMethod::Once),
        ("method_2", ObservationMethod::PerInitialValue),
        ("method_3", ObservationMethod::PerPattern),
    ] {
        let report = soc().run_integrity_test(&config(method)).unwrap();
        entries.push((name, report.to_json()));
    }
    let once = config(ObservationMethod::Once);
    let exhaustive = soc().run_attributed_exhaustive(&once).unwrap();
    entries.push(("attributed_exhaustive", adaptive_json(&exhaustive)));
    let empty = CoverageLedger::new(WIRES);
    let fresh = soc().run_adaptive_session(&once, &empty, [DriveLevel::Low, DriveLevel::High]);
    entries.push(("adaptive_empty_ledger", adaptive_json(&fresh.unwrap())));
    // Victims 4..8 fully covered: the low half truncates after wire 3,
    // and the high half runs first.
    let mut half = CoverageLedger::new(WIRES);
    for victim in WIRES / 2..WIRES {
        for fault in IntegrityFault::ALL {
            half.record(victim, fault);
        }
    }
    let covered = soc().run_adaptive_session(&once, &half, [DriveLevel::High, DriveLevel::Low]);
    entries.push(("adaptive_half_covered_ledger", adaptive_json(&covered.unwrap())));
    Json::obj(entries)
}

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/session_reports.json");

#[test]
fn session_reports_snapshot() {
    let rendered = snapshot_json().render_pretty();
    if std::env::var_os("SINT_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, format!("{rendered}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    assert_eq!(
        rendered,
        expected.trim_end(),
        "session reports drifted from the pinned golden bytes; if the change is \
         intentional, re-run with SINT_REGEN_GOLDEN=1 and review the diff"
    );
}
