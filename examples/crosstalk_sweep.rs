//! Crosstalk severity sweep: where does the detector start seeing the
//! defect?
//!
//! ```text
//! cargo run --example crosstalk_sweep
//! ```
//!
//! Sweeps the coupling-capacitance growth factor on one victim wire and
//! reports, for each severity, the peak glitch the solver produces and
//! whether the boundary-scan session flags the wire. The transition
//! from PASS to FAIL marks the architecture's detection threshold —
//! the falsifiable end-to-end claim behind the paper's proposal.

use sint::core::session::{ObservationMethod, SessionConfig};
use sint::core::soc::SocBuilder;
use sint::interconnect::drive::VectorPair;
use sint::interconnect::measure::glitch_amplitude;
use sint::interconnect::params::BusParams;
use sint::interconnect::solver::{PanelScratch, TransientSim};
use sint::interconnect::Defect;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== crosstalk sweep on wire 2 of a 5-wire bus ==\n");
    println!("{:>8} {:>12} {:>10} {:>10}", "factor", "glitch (V)", "noise?", "skew?");

    let mut first_detect = None;
    let mut scratch = PanelScratch::new();
    for factor10 in 10..=80 {
        let factor = f64::from(factor10) / 10.0;
        if factor10 % 5 != 0 {
            continue;
        }

        // Solver-level glitch measurement for context.
        let mut bus = BusParams::dsm_bus(5).build()?;
        Defect::CouplingBoost { wire: 2, factor }.apply(&mut bus)?;
        let sim = TransientSim::new(&bus, 2e-12)?;
        let pg = VectorPair::from_strs("00000", "11011").expect("static vectors");
        let waves = sim.run_pairs_cancellable(&[pg], 2e-9, &mut scratch, None)?;
        let peak = glitch_amplitude(waves.wire(0, 2), 0.0);

        // Full boundary-scan session.
        let mut soc = SocBuilder::new(5).coupling_defect(2, factor).build()?;
        let report = soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once))?;
        let v = report.wire(2);
        println!(
            "{factor:>8.1} {peak:>12.3} {:>10} {:>10}",
            if v.noise { "FAIL" } else { "pass" },
            if v.skew { "FAIL" } else { "pass" }
        );
        if v.noise && first_detect.is_none() {
            first_detect = Some(factor);
        }
    }

    match first_detect {
        Some(f) => println!("\ndetection threshold: coupling growth ≈ {f:.1}x"),
        None => println!("\nno detection in the swept range"),
    }
    Ok(())
}
