//! # sint — Extended JTAG boundary scan for signal-integrity testing
//!
//! Facade crate for the `sint` workspace, a from-scratch Rust reproduction
//! of *"Extending JTAG for Testing Signal Integrity in SoCs"* (N. Ahmed,
//! M. Tehranipour, M. Nourani — DATE 2003).
//!
//! This crate simply re-exports the four member crates under stable
//! module names so that applications (and the bundled `examples/`) can
//! depend on a single package:
//!
//! * [`runtime`] — zero-dependency execution substrate: deterministic
//!   RNG, JSON reports, parallel campaign pool, property-test and
//!   bench harnesses ([`sint_runtime`]).
//! * [`logic`] — gate-level digital substrate ([`sint_logic`]).
//! * [`interconnect`] — coupled-line analog substrate
//!   ([`sint_interconnect`]).
//! * [`jtag`] — IEEE 1149.1 boundary scan ([`sint_jtag`]).
//! * [`core`] — the paper's signal-integrity extension ([`sint_core`]).
//! * [`fleet`] — supervised test-floor orchestration with streaming
//!   results and per-client admission control ([`sint_fleet`]).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use sint::core::soc::SocBuilder;
//! use sint::core::session::{ObservationMethod, SessionConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-core SoC with a 5-wire bus and a crosstalk defect on wire 2.
//! let mut soc = SocBuilder::new(5).coupling_defect(2, 8.0).build()?;
//! let report = soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once))?;
//! assert!(report.wire(2).noise, "injected crosstalk must be detected");
//! # Ok(())
//! # }
//! ```

pub use sint_core as core;
pub use sint_fleet as fleet;
pub use sint_interconnect as interconnect;
pub use sint_jtag as jtag;
pub use sint_logic as logic;
pub use sint_runtime as runtime;
