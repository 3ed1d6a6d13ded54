//! Waveform inspection: dump the analog story behind a detection.
//!
//! ```text
//! cargo run --example waveform_dump [out.vcd]
//! ```
//!
//! Simulates the worst-case positive-glitch (Pg) pattern on a healthy
//! and a defective bus, renders the victim's receiving-end waveform as
//! ASCII art and optionally writes a VCD with the digital view of the
//! PGBSC pattern generator for a waveform viewer.

use sint::core::mafm::{fault_pair, IntegrityFault};
use sint::core::pgbsc::Pgbsc;
use sint::interconnect::params::BusParams;
use sint::interconnect::solver::{PanelScratch, TransientSim};
use sint::interconnect::Defect;
use sint::jtag::bcell::{BoundaryCell, CellControl};
use sint::logic::{Logic, Trace};

fn ascii_wave(wave: &[f64], vdd: f64, cols: usize) -> String {
    // 8-level vertical resolution using block glyphs.
    const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let stride = (wave.len() / cols).max(1);
    wave.iter()
        .step_by(stride)
        .map(|v| {
            let idx = ((v / vdd) * 8.0).round().clamp(0.0, 8.0) as usize;
            LEVELS[idx]
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vcd_path = std::env::args().nth(1);

    println!("== Pg pattern on wire 2 of a 5-wire bus ==\n");
    let pair = fault_pair(5, 2, IntegrityFault::Pg)?;
    println!("stimulus: {pair}\n");

    let mut scratch = PanelScratch::new();
    for (label, factor) in [("healthy", 1.0), ("coupling x5 defect", 5.0)] {
        let mut bus = BusParams::dsm_bus(5).build()?;
        if factor > 1.0 {
            Defect::CouplingBoost { wire: 2, factor }.apply(&mut bus)?;
        }
        let sim = TransientSim::new(&bus, 2e-12)?;
        let waves =
            sim.run_pairs_cancellable(std::slice::from_ref(&pair), 2e-9, &mut scratch, None)?;
        println!("{label}:");
        println!("  aggressor w1 {}", ascii_wave(waves.wire(0, 1), bus.vdd(), 96));
        println!("  victim    w2 {}", ascii_wave(waves.wire(0, 2), bus.vdd(), 96));
        let peak = waves.wire(0, 2).iter().cloned().fold(f64::MIN, f64::max);
        println!("  victim peak: {peak:.3} V\n");
    }

    // Digital view: the PGBSC pattern stream for victim wire 2 (Fig 7).
    let ctrl = CellControl { si: true, ce: true, mode: true, ..CellControl::default() };
    let mut trace = Trace::new();
    let mut cells: Vec<Pgbsc> = (0..5)
        .map(|i| {
            let mut c = Pgbsc::new();
            c.preload(Logic::Zero);
            c.shift(if i == 2 { Logic::One } else { Logic::Zero }, &ctrl);
            c
        })
        .collect();
    for (i, c) in cells.iter().enumerate() {
        trace.record(&format!("wire{i}"), 0, c.output(&ctrl));
    }
    for tick in 1..=6 {
        for c in &mut cells {
            c.update(&ctrl);
        }
        for (i, c) in cells.iter().enumerate() {
            trace.record(&format!("wire{i}"), tick, c.output(&ctrl));
        }
    }
    println!("PGBSC pattern stream (victim = wire2, one column per Update-DR):");
    print!("{}", trace.to_ascii());

    if let Some(path) = vcd_path {
        std::fs::write(&path, trace.to_vcd("1ns"))?;
        println!("\nVCD written to {path}");
    }
    Ok(())
}
