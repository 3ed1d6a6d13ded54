//! # sint-core
//!
//! The primary contribution of *"Extending JTAG for Testing Signal
//! Integrity in SoCs"* (N. Ahmed, M. Tehranipour, M. Nourani — DATE
//! 2003), implemented on the `sint` substrates:
//!
//! * [`mafm`] — the maximum-aggressor fault model: six integrity faults,
//!   the conventional 12-vector-per-victim schedule and the reordered
//!   on-chip sequence needing only two scanned initial values.
//! * [`nd`] / [`sd`] — behavioural noise and skew detector cells.
//! * [`pgbsc`] — the pattern-generation boundary-scan cell (Fig 6),
//!   behavioural and structural.
//! * [`obsc`] — the observation boundary-scan cell (Fig 9) with embedded
//!   detectors, behavioural and structural.
//! * [`instructions`] — the `G-SITEST` / `O-SITEST` JTAG instructions.
//! * [`session`] — session configuration, observation methods 1/2/3 and
//!   the [`session::IntegrityReport`].
//! * [`soc`] — the two-core SoC of Fig 11: a full digital + analog
//!   closed loop from TDI wiggles to detector verdicts.
//! * [`timing`] — closed-form TCK formulas behind Tables 5 and 6,
//!   cross-checked against the simulated driver.
//! * [`cost`] — the Table 7 NAND-unit area comparison.
//! * [`diagnosis`] — fault-class and victim localisation from method
//!   2/3 read-outs.
//! * [`infra`] — structured diagnosis of scan-infrastructure faults
//!   found by the pre-session chain self-check.
//! * [`degrade`] — graceful degradation: fault-localized quarantine,
//!   partial sessions over the healthy wires and the typed concession
//!   trail.
//! * [`campaign`] / [`checkpoint`] — panic-isolated defect-injection
//!   campaigns with bounded retry, and byte-identical resume: every
//!   checkpointed batch (exhaustive, adaptive, attributed) folds into one
//!   round-boundary [`CampaignCheckpoint`], and every checkpoint kind
//!   (this one and the fleet's) renders in one versioned envelope
//!   ([`checkpoint::envelope`]).
//!
//! # Example
//!
//! ```
//! use sint_core::soc::SocBuilder;
//! use sint_core::session::{ObservationMethod, SessionConfig};
//!
//! # fn main() -> Result<(), sint_core::CoreError> {
//! // A 4-wire bus with a crosstalk defect around wire 2.
//! let mut soc = SocBuilder::new(4).coupling_defect(2, 6.0).build()?;
//! let report = soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once))?;
//! assert!(report.wire(2).noise);
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod campaign;
pub mod checkpoint;
pub mod cost;
pub mod degrade;
pub mod describe;
pub mod diagnosis;
pub mod error;
pub mod infra;
pub mod instructions;
pub mod mafm;
pub mod nd;
pub mod obsc;
pub mod pgbsc;
pub mod sd;
pub mod session;
pub mod soc;
pub mod timing;

pub use campaign::{
    AttemptOutcome, Campaign, CampaignRun, CampaignStats, RetryPolicy, ShedReason,
    Trial, TrialOutcome, TrialShed,
};
pub use adaptive::{AdaptiveConfig, AdaptiveDelta, AdaptiveRun, FaultPriority};
pub use checkpoint::CampaignCheckpoint;
pub use cost::MethodPlanner;
pub use degrade::{ChainPolicy, DegradationEvent, DegradedOutcome};
pub use error::CoreError;
pub use infra::{probe_chain, InfrastructureDiagnosis};
pub use mafm::{CoverageReport, IntegrityFault};
pub use obsc::Obsc;
pub use pgbsc::Pgbsc;
pub use session::{IntegrityReport, ObservationMethod, SessionConfig};
pub use soc::{Soc, SocBuilder};
