//! **Waveform datasets** — the analog traces behind every MA fault,
//! exported as plot-ready data (and optionally cell schematics as DOT).
//!
//! ```text
//! cargo run -p sint-bench --release --bin fig_waveforms [outdir]
//! ```
//!
//! For each of the six faults, simulates healthy and defective buses
//! and prints (or writes to `<outdir>/<fault>.tsv`) the victim's
//! receiver waveform — time, healthy voltage, defective voltage — the
//! dataset a plotting tool turns into the paper-style figures. With an
//! output directory it also writes `pgbsc.dot` / `obsc.dot` /
//! `standard_bsc.dot` schematics.

use sint_core::mafm::{fault_pair, IntegrityFault};
use sint_interconnect::params::BusParams;
use sint_interconnect::solver::{PanelScratch, TransientSim};
use sint_interconnect::Defect;
use sint_logic::dot::to_dot;
use std::fmt::Write as _;

const WIDTH: usize = 5;
const VICTIM: usize = 2;

fn dataset(fault: IntegrityFault) -> Result<String, Box<dyn std::error::Error>> {
    let pair = [fault_pair(WIDTH, VICTIM, fault)?];
    let healthy = BusParams::dsm_bus(WIDTH).build()?;
    let mut faulty = BusParams::dsm_bus(WIDTH).build()?;
    if fault.is_skew() {
        Defect::ResistiveOpen { wire: VICTIM, segment: 0, extra_ohms: 2000.0 }
            .apply(&mut faulty)?;
    } else {
        Defect::CouplingBoost { wire: VICTIM, factor: 5.0 }.apply(&mut faulty)?;
    }
    let sim_h = TransientSim::new(&healthy, 2e-12)?;
    let sim_f = TransientSim::new(&faulty, 2e-12)?;
    let mut scratch = PanelScratch::new();
    let wh = sim_h.run_pairs_cancellable(&pair, 2.5e-9, &mut scratch, None)?;
    let wf = sim_f.run_pairs_cancellable(&pair, 2.5e-9, &mut scratch, None)?;
    let mut out = String::new();
    let _ = writeln!(out, "# {fault}: {}  (victim = wire {VICTIM})", pair[0]);
    let _ = writeln!(out, "# time_ps\thealthy_V\tdefective_V");
    for k in (0..wh.samples()).step_by(10) {
        let _ = writeln!(
            out,
            "{:.1}\t{:.4}\t{:.4}",
            wh.time_of(k) * 1e12,
            wh.wire(0, VICTIM)[k],
            wf.wire(0, VICTIM)[k]
        );
    }
    Ok(out)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outdir = std::env::args().nth(1);
    for fault in IntegrityFault::ALL {
        let data = dataset(fault)?;
        match &outdir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let name = format!("{fault}").replace('\u{304}', "bar"); // P̄g → Pbarg
                let path = format!("{dir}/{name}.tsv");
                std::fs::write(&path, &data)?;
                println!("wrote {path} ({} samples)", data.lines().count() - 2);
            }
            None => {
                // Print a compact summary instead of the full dataset.
                let lines: Vec<&str> = data.lines().collect();
                println!("{}", lines[0]);
                let peak = |col: usize| {
                    lines[2..]
                        .iter()
                        .filter_map(|l| l.split('\t').nth(col)?.parse::<f64>().ok())
                        .fold(f64::MIN, f64::max)
                };
                println!(
                    "  victim peak: healthy {:.3} V, defective {:.3} V ({} samples)",
                    peak(1),
                    peak(2),
                    lines.len() - 2
                );
            }
        }
    }
    if let Some(dir) = &outdir {
        for (name, nl) in [
            ("standard_bsc", sint_core::cost::standard_bsc_netlist()?),
            ("pgbsc", sint_core::pgbsc::pgbsc_netlist()?),
            ("obsc", sint_core::obsc::obsc_netlist()?),
        ] {
            let path = format!("{dir}/{name}.dot");
            std::fs::write(&path, to_dot(&nl))?;
            println!("wrote {path}");
        }
    }
    Ok(())
}
