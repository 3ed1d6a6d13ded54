//! Golden waveform snapshot: pins the exact receiver-end output of the
//! transient solver's one run entry, a one-column
//! `run_pairs_cancellable` panel, on a fixed victim + aggressor
//! scenario.
//!
//! The JSON below was captured from the banded engine and is compared
//! byte-for-byte (the emitter renders f64 with exact round-trip
//! precision), so *any* numerical change to the solver — reordering,
//! refactoring, a new backend — shows up as a diff here. Decimation to
//! every 25th sample keeps the snapshot reviewable while still covering
//! the quiescent lead-in, the aggressor edge, the crosstalk glitch peak
//! and the settled tail.

use sint::interconnect::drive::VectorPair;
use sint::interconnect::params::BusParams;
use sint::interconnect::solver::{PanelScratch, TransientSim};
use sint::interconnect::variation::{apply_variation, VariationSigma};
use sint::runtime::json::{Json, ToJson};

/// Decimation stride: 501 samples -> 21 pinned points per waveform.
const STRIDE: usize = 25;

fn snapshot_json() -> Json {
    // Two wires: wire 0 is the quiet-low victim, wire 1 the rising
    // aggressor — the paper's Pg scenario. Fixed-seed variation makes
    // every matrix element irrational-ish, so the snapshot exercises
    // full-precision arithmetic, not round defaults.
    let mut bus = BusParams::dsm_bus(2).build().unwrap();
    apply_variation(&mut bus, VariationSigma::typical(), 0xD5EED).unwrap();
    let sim = TransientSim::new(&bus, 4e-12).unwrap();
    let pair = VectorPair::from_strs("00", "01").unwrap();
    let waves = sim.run_pairs_cancellable(&[pair], 2e-9, &mut PanelScratch::new(), None).unwrap();

    let decimate =
        |w: &[f64]| Json::arr(w.iter().step_by(STRIDE).copied().collect::<Vec<f64>>());
    Json::obj([
        ("dt", waves.dt().to_json()),
        ("switch_at", waves.switch_at().to_json()),
        ("vdd", waves.vdd().to_json()),
        ("samples", (waves.samples() as u64).to_json()),
        ("victim_receiver", decimate(waves.wire(0, 0))),
        ("aggressor_receiver", decimate(waves.wire(0, 1))),
    ])
}

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/waveform_victim_aggressor.json");

#[test]
fn victim_aggressor_waveform_snapshot() {
    let rendered = snapshot_json().render();
    if std::env::var_os("SINT_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, format!("{rendered}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    assert_eq!(
        rendered,
        expected.trim_end(),
        "solver output drifted from the pinned golden waveform; if the change is \
         intentional, re-run with SINT_REGEN_GOLDEN=1 and review the diff"
    );
}
