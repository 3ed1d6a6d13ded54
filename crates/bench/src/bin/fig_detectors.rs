//! **Figures 1 and 2** — detector-cell behaviour on real solver
//! waveforms.
//!
//! Fig 1 (ND): a quiet victim's received waveform under the Pg pattern
//! at several coupling severities, with the detector's verdict.
//! Fig 2 (SD): a switching victim's arrival time under the Rs pattern
//! at several open-defect severities, against the skew-immune window.

use sint_core::mafm::{fault_pair, IntegrityFault};
use sint_core::nd::{NdThresholds, NoiseDetector};
use sint_core::sd::{SdWindow, SkewDetector};
use sint_interconnect::measure::{glitch_amplitude, propagation_delay};
use sint_interconnect::params::BusParams;
use sint_interconnect::solver::{PanelScratch, TransientSim};
use sint_interconnect::Defect;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const WIDTH: usize = 5;
    const VICTIM: usize = 2;
    let vdd = 1.8;
    // One scratch for every transient in the sweep: no per-run
    // allocations in the solver core.
    let mut scratch = PanelScratch::new();

    println!("Fig 1: ND cell on the Pg pattern (victim = wire {VICTIM})\n");
    println!(
        "{:>10} {:>12} {:>14} {:>10}",
        "coupling", "glitch (V)", "band entered?", "ND latch"
    );
    let nd_cfg = NdThresholds::for_vdd(vdd);
    for factor in [1.0, 2.0, 4.0, 6.0] {
        let mut bus = BusParams::dsm_bus(WIDTH).build()?;
        Defect::CouplingBoost { wire: VICTIM, factor }.apply(&mut bus)?;
        let sim = TransientSim::new(&bus, 2e-12)?;
        let pair = fault_pair(WIDTH, VICTIM, IntegrityFault::Pg)?;
        let waves = sim.run_pairs_cancellable(&[pair], 2e-9, &mut scratch, None)?;
        let wave = waves.wire(0, VICTIM);
        let peak = glitch_amplitude(wave, 0.0);
        let mut nd = NoiseDetector::new(nd_cfg);
        nd.set_enabled(true);
        let hit = nd.observe(wave, waves.dt(), vdd);
        println!(
            "{:>9.1}x {:>12.3} {:>14} {:>10}",
            factor,
            peak,
            if peak > nd_cfg.v_low_max { "yes" } else { "no" },
            if hit { "SET" } else { "clear" }
        );
    }

    println!("\nFig 2: SD cell on the Rs pattern (victim = wire {VICTIM})\n");
    // Calibrate the window from the healthy bus like the SoC builder.
    let healthy = BusParams::dsm_bus(WIDTH).build()?;
    let sim = TransientSim::new(&healthy, 2e-12)?;
    let pair = [fault_pair(WIDTH, VICTIM, IntegrityFault::Rs)?];
    let waves = sim.run_pairs_cancellable(&pair, 2e-9, &mut scratch, None)?;
    let healthy_delay = propagation_delay(
        waves.wire(0, VICTIM),
        waves.dt(),
        vdd,
        sim.switch_at(),
        true,
    )
    .expect("healthy bus settles");
    let window = 2.0 * healthy_delay + healthy.rise_time();
    println!("skew-immune window (2x healthy arrival + edge): {:.0} ps\n", window * 1e12);
    println!("{:>12} {:>14} {:>10}", "open defect", "arrival (ps)", "SD latch");
    for extra_ohms in [0.0, 500.0, 1500.0, 3000.0, 6000.0] {
        let mut bus = BusParams::dsm_bus(WIDTH).build()?;
        if extra_ohms > 0.0 {
            Defect::ResistiveOpen { wire: VICTIM, segment: 0, extra_ohms }.apply(&mut bus)?;
        }
        let sim = TransientSim::new(&bus, 2e-12)?;
        let waves = sim.run_pairs_cancellable(&pair, 4e-9, &mut scratch, None)?;
        let wave = waves.wire(0, VICTIM);
        let arrival = propagation_delay(wave, waves.dt(), vdd, sim.switch_at(), true);
        let mut sd = SkewDetector::new(SdWindow::for_vdd(window, vdd));
        sd.set_enabled(true);
        let hit = sd.observe(
            wave,
            waves.dt(),
            vdd,
            sint_interconnect::drive::DriveLevel::High,
            sim.switch_at(),
        );
        println!(
            "{:>10.0}Ω {:>14} {:>10}",
            extra_ohms,
            arrival.map_or("never".to_string(), |a| format!("{:.0}", a * 1e12)),
            if hit { "SET" } else { "clear" }
        );
    }

    println!("\nboth detectors reproduce the paper's split: noise -> ND, delay -> SD.");
    Ok(())
}
