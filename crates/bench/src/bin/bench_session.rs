//! Bench: full signal-integrity sessions end to end — generation
//! architecture (conventional vs PGBSC) and observation method
//! (1 vs 2 vs 3) ablations at the system level.
//!
//! Plain `cargo run` bin on the `sint_runtime::bench` harness; prints
//! a median/p95 table and a JSON timing artifact.
//!
//! Every iteration builds a fresh SoC (build time included; a fixed SD
//! window skips the calibration transient, so the build adds little
//! beyond one factorisation): a repeat session on the same SoC replays
//! its pattern-response memo instead of solving, which the
//! `memo_replay_n8` row measures on its own.
//!
//! The `paper_n32` rows time the paper geometry (n = 32, m = 10,
//! 8 segments, 2 ps, 2 ns settle, SD window calibrated at build) per
//! method on a control die, then under method 3 on a coupling, an open
//! and a weak-driver die; the artifact's `columns_per_session` records
//! how many panel columns each solved — the n + 1 step-basis columns
//! every MA pattern recombines from — and `steps_per_column` the
//! timesteps each advanced on average (1000 for a full window, fewer
//! where a certified early stop ended it). Each die fans its victim
//! panels out over the host's cores; `nproc` records how many there
//! were.
//!
//! The `paper_n32/recombine_detect` rows time one paper die's 192 MA
//! responses recombined from its step basis by the fused
//! recombine-and-detect pass (`obsc::recombined_response`), on a
//! control and an open die. The basis is solved outside the timer, `U`
//! alone first, then every victim in one panel stopped under `U`'s
//! certified length, as every plan-solve panel is.

use sint_bench::emit_artifact;
use sint_core::mafm::fault_pair;
use sint_core::obsc::{recombined_response, Obsc, RecombineScratch};
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_core::IntegrityFault;
use sint_interconnect::basis::StepBasis;
use sint_interconnect::drive::VectorPair;
use sint_interconnect::params::BusParams;
use sint_interconnect::solver::{Horizon, PanelScratch, TransientSim};
use sint_interconnect::{Defect, InterconnectError};
use sint_runtime::bench::{black_box, Bench};
use sint_runtime::json::{Json, ToJson};
use sint_runtime::pool::Pool;

fn fast_cfg(method: ObservationMethod) -> SessionConfig {
    SessionConfig { settle_time: 1e-9, dt: 10e-12, ..SessionConfig::method(method) }
}

fn fast_soc(n: usize) -> sint_core::soc::Soc {
    SocBuilder::new(n)
        .bus_params(BusParams::dsm_bus(n).segments(2))
        .sd_window(200e-12)
        .build()
        .expect("soc builds")
}

fn main() {
    let mut b = Bench::new("session").samples(10);

    for n in [4usize, 8, 16] {
        let cfg = fast_cfg(ObservationMethod::Once);
        b.measure(&format!("method1_vs_width/{n}"), || {
            black_box(fast_soc(n).run_integrity_test(&cfg).unwrap());
        });
    }

    for (label, method) in [
        ("m1", ObservationMethod::Once),
        ("m2", ObservationMethod::PerInitialValue),
        ("m3", ObservationMethod::PerPattern),
    ] {
        let cfg = fast_cfg(method);
        b.measure(&format!("methods_n8/{label}"), || {
            black_box(fast_soc(8).run_integrity_test(&cfg).unwrap());
        });
    }

    {
        let cfg = fast_cfg(ObservationMethod::PerPattern);
        let mut soc = fast_soc(8);
        b.measure("memo_replay_n8/m3", || {
            black_box(soc.run_integrity_test(&cfg).unwrap());
        });
    }

    b.measure("generation_architecture_n8/conventional", || {
        black_box(fast_soc(8).run_conventional_generation().unwrap());
    });
    {
        let cfg = fast_cfg(ObservationMethod::Once);
        b.measure("generation_architecture_n8/pgbsc", || {
            black_box(fast_soc(8).run_integrity_test(&cfg).unwrap());
        });
    }

    let (mut columns, mut steps) = (Vec::new(), Vec::new());
    for (label, method, defect) in [
        ("m1", ObservationMethod::Once, None),
        ("m2", ObservationMethod::PerInitialValue, None),
        ("m3", ObservationMethod::PerPattern, None),
        (
            "coupling_m3",
            ObservationMethod::PerPattern,
            Some(Defect::CouplingBoost { wire: 13, factor: 6.0 }),
        ),
        (
            "open_m3",
            ObservationMethod::PerPattern,
            Some(Defect::ResistiveOpen { wire: 20, segment: 3, extra_ohms: 3000.0 }),
        ),
        (
            "weak_m3",
            ObservationMethod::PerPattern,
            Some(Defect::WeakDriver { wire: 7, factor: 5.0 }),
        ),
    ] {
        let cfg = SessionConfig::method(method);
        let (mut solved, mut lane_steps) = (0, 0);
        b.measure(&format!("paper_n32/{label}"), || {
            let mut builder =
                SocBuilder::new(32).extra_cells(10).bus_params(BusParams::dsm_bus(32).segments(8));
            if let Some(defect) = defect {
                builder = builder.defect(defect);
            }
            let mut soc = builder.build().expect("soc builds");
            black_box(soc.run_integrity_test(&cfg).unwrap());
            solved = soc.transients_run();
            lane_steps = soc.memo_stats().lane_steps;
        });
        columns.push((label, solved.to_json()));
        steps.push((label, (lane_steps as f64 / solved as f64).to_json()));
    }

    for (label, defect) in [
        ("control", None),
        ("open", Some(Defect::ResistiveOpen { wire: 20, segment: 3, extra_ohms: 3000.0 })),
    ] {
        let mut builder =
            SocBuilder::new(32).extra_cells(10).bus_params(BusParams::dsm_bus(32).segments(8));
        if let Some(defect) = defect {
            builder = builder.defect(defect);
        }
        let mut soc = builder.build().expect("soc builds");
        // Every OBSC of a die shares the thresholds and the calibrated
        // window.
        let cell = soc.driver_mut().chain().device(0).expect("one device");
        let cell = cell.boundary().cell(32).expect("the first OBSC");
        let cell = cell.as_any().downcast_ref::<Obsc>().expect("cells n..2n are OBSCs").clone();
        let bus = soc.bus().clone();
        let sim = TransientSim::new(&bus, 2e-12).expect("paper grid factorises");
        let stop = cell.stop_rule(bus.vdd(), sim.dt(), sim.switch_at(), 3.0);
        let horizon = Horizon { duration: 2e-9, stop };
        let (mut basis, mut scratch) = (StepBasis::new(), PanelScratch::new());
        let victims: Vec<usize> = (0..32).collect();
        basis.solve_all_rise(&sim, horizon, &mut scratch, None).expect("U solves");
        let panel = basis.solve_victims(&sim, &victims, &mut scratch, None).expect("u_v solve");
        let pairs: Vec<VectorPair> = victims
            .iter()
            .flat_map(|&v| IntegrityFault::ALL.map(|f| fault_pair(32, v, f).expect("in range")))
            .collect();
        let mut recombine = RecombineScratch::new();
        b.measure(&format!("paper_n32/recombine_detect/{label}"), || {
            for pair in &pairs {
                let cell = |_| Ok::<_, InterconnectError>(&cell);
                let response = recombined_response(
                    &basis,
                    &panel,
                    &sim,
                    pair,
                    bus.vdd(),
                    cell,
                    &mut recombine,
                );
                black_box(response.expect("in range"));
            }
        });
    }

    print!("{}", b.table());
    let mut artifact = b.json();
    if let Json::Object(fields) = &mut artifact {
        fields.push(("columns_per_session".to_string(), Json::obj(columns)));
        fields.push(("steps_per_column".to_string(), Json::obj(steps)));
        fields.push(("nproc".to_string(), Pool::host().threads().to_json()));
    }
    emit_artifact("bench_session", &artifact);
}
