//! **Tool** — batched-campaign determinism gate, used by `scripts/verify.sh`.
//!
//! Runs a fixed defect-injection campaign at a caller-chosen panel
//! width and writes the full summary (stats, per-trial outcomes,
//! failures, sheds) as JSON. The batched panel path is contractually
//! bitwise-identical to the scalar path, so `verify.sh` byte-compares
//! the summary across panel widths (8 vs 1 — batched vs unbatched) and
//! across `SINT_THREADS` (1 vs 8): neither batching nor parallelism
//! may perturb a single detector outcome.
//!
//! The trial mix includes a solver blow-up (`factor: 1e308`) so the
//! comparison also pins the divergence fallbacks: the step basis must
//! refuse the blown-up bus, and a panel that goes non-finite must
//! replay scalar-sequentially and report exactly the error the
//! unbatched run reports.
//!
//! The summary also renders the full `IntegrityReport` of 32-wire
//! sessions — a control plus coupling, open and weak-driver devices,
//! methods 1–3, on the coarse grid (2 segments, 10 ps) — so the
//! comparison covers per-wire verdicts at the width where the batched
//! path recombines every MA pattern from its n + 1 step-basis columns.
//!
//! ```text
//! batch_check <panel_width> <summary.json>
//! ```
//!
//! Exit codes: 0 = summary written, 2 = usage/IO error.

use sint_bench::threads_from_env;
use sint_core::campaign::{Campaign, Trial};
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_interconnect::params::BusParams;
use sint_interconnect::variation::VariationSigma;
use sint_interconnect::Defect;
use sint_runtime::json::{Json, ToJson};
use sint_runtime::pool::Pool;
use std::process::ExitCode;

const WIDTH: usize = 8;
const TRIALS: usize = 24;
/// Width of the per-wire report sessions.
const SESSION_WIRES: usize = 32;

/// The fixed batch: controls, four defect classes of varying severity,
/// and one solver blow-up that forces the panel divergence fallback.
fn trials() -> Vec<Trial> {
    (0..TRIALS)
        .map(|i| match i % 8 {
            0 | 4 => Trial::control(),
            1 => Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
            2 => Trial::defective(Defect::PairCouplingBoost { left: 3, factor: 8.0 }),
            3 => Trial::defective(Defect::ResistiveOpen {
                wire: 5,
                segment: 2,
                extra_ohms: 400.0,
            }),
            5 => Trial::defective(Defect::WeakDriver { wire: 6, factor: 4.0 }),
            6 => Trial::defective(Defect::CouplingBoost { wire: 2, factor: 1e308 }),
            _ => Trial::defective(Defect::CouplingBoost { wire: 4, factor: 1.05 }),
        })
        .collect()
}

/// The 32-wire devices whose reports the summary renders.
fn devices() -> [(&'static str, Option<Defect>); 4] {
    [
        ("control", None),
        ("coupling", Some(Defect::CouplingBoost { wire: 13, factor: 6.0 })),
        ("open", Some(Defect::ResistiveOpen { wire: 20, segment: 1, extra_ohms: 3000.0 })),
        ("weak_driver", Some(Defect::WeakDriver { wire: 7, factor: 5.0 })),
    ]
}

/// One device under one method at `panel_width`: its report, or the
/// error that ended the session.
fn session(
    (seed, (name, defect)): &(u64, (&str, Option<Defect>)),
    method: ObservationMethod,
    panel_width: usize,
) -> Json {
    let mut builder = SocBuilder::new(SESSION_WIRES)
        .bus_params(BusParams::dsm_bus(SESSION_WIRES).segments(2))
        .with_variation(VariationSigma::typical(), *seed)
        .panel_width(panel_width);
    if let Some(defect) = defect {
        builder = builder.defect(*defect);
    }
    let config = SessionConfig { dt: 10e-12, ..SessionConfig::method(method) };
    let outcome = builder.build().and_then(|mut soc| soc.run_integrity_test(&config));
    Json::obj([
        ("device", name.to_json()),
        ("method", method.to_string().to_json()),
        ("report", match outcome {
            Ok(report) => report.to_json(),
            Err(e) => Json::obj([("error", e.to_string().to_json())]),
        }),
    ])
}

fn run() -> Result<ExitCode, String> {
    let mut argv = std::env::args().skip(1);
    let (Some(width_arg), Some(out_path), None) = (argv.next(), argv.next(), argv.next()) else {
        return Err("usage: batch_check <panel_width> <summary.json>".to_string());
    };
    let panel_width = width_arg
        .parse::<usize>()
        .map_err(|_| format!("panel_width wants a number, got {width_arg:?}"))?;

    let threads = threads_from_env();
    let campaign = Campaign::new(WIDTH).panel_width(panel_width);
    let run = campaign.run_parallel(&trials(), threads);
    let jobs: Vec<_> = (0u64..)
        .zip(devices())
        .flat_map(|device| {
            [ObservationMethod::Once, ObservationMethod::PerInitialValue, ObservationMethod::PerPattern]
                .map(|method| (device, method))
        })
        .collect();
    let sessions = Pool::new(threads).map(&jobs, |_, (device, method)| {
        session(device, *method, panel_width)
    });

    // The summary deliberately omits the panel width and thread count:
    // verify.sh byte-compares the file across both, so everything in
    // it must be invariant to them.
    let summary = Json::obj([
        ("wires", WIDTH.to_json()),
        ("trials", TRIALS.to_json()),
        ("run", run.to_json()),
        ("session_wires", SESSION_WIRES.to_json()),
        ("sessions", Json::Array(sessions)),
    ]);
    std::fs::write(&out_path, format!("{}\n", summary.render_pretty()))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("batch_check: {TRIALS} trials at panel width {panel_width}, {threads} threads");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("batch_check: {message}");
            ExitCode::from(2)
        }
    }
}
