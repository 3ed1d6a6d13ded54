//! # sint-interconnect
//!
//! Coupled-interconnect transient-simulation substrate for the `sint`
//! workspace (reproduction of *"Extending JTAG for Testing Signal
//! Integrity in SoCs"*, DATE 2003).
//!
//! The paper's signal-integrity faults — crosstalk glitches and skew —
//! are *analog* phenomena on long on-chip buses. The original authors
//! relied on SPICE-class simulation and silicon sensors; this crate
//! replaces that substrate with a self-contained circuit simulator:
//!
//! * [`params`] — physical description of an `n`-wire coupled bus
//!   (per-mm R, ground C, neighbour coupling C; driver strength; receiver
//!   load) with DSM-flavoured defaults.
//! * [`linalg`] — banded LU (the solver's fast path, with interleaved
//!   multi-RHS kernels) and dense LU (the reference oracle).
//! * [`solver`] — modified nodal analysis with backward-Euler companion
//!   models; the system matrix is factored once per (topology, dt)
//!   and reused every step. Every run goes through one entry point,
//!   the batched [`TransientSim::run_pairs_cancellable`], which returns
//!   the receiver-end traces as a [`WavePanel`] — over the full window,
//!   or each ended early where a caller's [`solver::StopRule`] is proved.
//! * [`basis`] — [`StepBasis`] and [`basis::VictimPanel`]: the
//!   all-rise and single-rise step responses every MA-shaped pattern
//!   recombines from exactly, so a session solves n + 1 columns instead
//!   of 6n patterns.
//! * [`drive`] — slew-limited piecewise-linear drivers; a vector pair
//!   (the MA fault model's two consecutive test vectors) maps directly to
//!   a set of drives.
//! * [`measure`] — glitch amplitude, overshoot, 50 %-crossing delay and
//!   skew extraction from simulated waveforms.
//! * [`defect`] — process-variation injection (coupling-cap multiplier,
//!   resistive open, weakened driver) that turns a healthy bus into a
//!   signal-integrity-faulty one.
//!
//! # Example
//!
//! Simulate a positive-glitch MA pattern on wire 2 of a five-wire bus and
//! measure the crosstalk bump on the quiet victim:
//!
//! ```
//! use sint_interconnect::params::BusParams;
//! use sint_interconnect::drive::VectorPair;
//! use sint_interconnect::solver::{PanelScratch, TransientSim};
//! use sint_interconnect::measure::glitch_amplitude;
//!
//! # fn main() -> Result<(), sint_interconnect::InterconnectError> {
//! let bus = BusParams::dsm_bus(5).build()?;
//! // Victim (wire 2) stays 0; all aggressors rise: the Pg fault pattern.
//! let pair = VectorPair::from_strs("00000", "11011").unwrap();
//! let sim = TransientSim::new(&bus, 1e-12)?;
//! // A one-column panel: pattern 0 is the only pattern.
//! let waves = sim.run_pairs_cancellable(&[pair], 2e-9, &mut PanelScratch::new(), None)?;
//! let bump = glitch_amplitude(waves.wire(0, 2), 0.0);
//! assert!(bump > 0.05, "aggressors must couple into the victim");
//! # Ok(())
//! # }
//! ```

pub mod basis;
pub mod corner;
pub mod defect;
pub mod drive;
pub mod error;
pub mod linalg;
pub mod measure;
pub mod params;
pub mod solver;
pub mod variation;

pub use basis::StepBasis;
pub use defect::Defect;
pub use drive::{DriveLevel, VectorPair};
pub use error::InterconnectError;
pub use params::{Bus, BusParams};
pub use solver::{PanelScratch, TransientSim, WavePanel};
