//! Unified error type for the signal-integrity extension layer.

use crate::infra::InfrastructureDiagnosis;
use sint_interconnect::InterconnectError;
use sint_jtag::JtagError;
use sint_logic::LogicError;
use std::fmt;

/// Errors produced while configuring or running a signal-integrity test.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A bus width of zero or another meaningless session parameter.
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A victim index outside the bus.
    VictimOutOfRange {
        /// The offending wire index.
        victim: usize,
        /// Number of wires.
        width: usize,
    },
    /// Error bubbled up from the JTAG substrate.
    Jtag(JtagError),
    /// Error bubbled up from the interconnect substrate.
    Interconnect(InterconnectError),
    /// Error bubbled up from the gate-level substrate.
    Logic(LogicError),
    /// The scan infrastructure itself is faulty: the pre-session chain
    /// self-check found anomalies, so no integrity verdict can be
    /// trusted. Carries the structured diagnosis naming the faulty
    /// link, cell or TAP state.
    Infrastructure(InfrastructureDiagnosis),
    /// A `Degrade` session cannot meet its configured minimum fault
    /// coverage: after quarantining, too few MA faults stay testable.
    InsufficientCoverage {
        /// MA faults still testable after quarantine.
        covered: usize,
        /// MA faults a healthy session would test (`6·width`).
        total: usize,
        /// The configured floor, as a fraction of `total`.
        min_coverage: f64,
    },
    /// A trial's wall-clock deadline (or an explicit cancellation)
    /// fired while the solver was running; the trial was abandoned
    /// cooperatively at the next check interval.
    DeadlineExceeded {
        /// Solver timestep at which the cancellation was observed.
        step: usize,
    },
    /// A campaign checkpoint file could not be used (unsupported
    /// version, malformed JSON or schema).
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl CoreError {
    /// A [`CoreError::BadConfig`] with the given reason — the enum is
    /// `#[non_exhaustive]`, so downstream crates construct
    /// configuration errors through this instead of a struct literal.
    pub fn config(reason: impl Into<String>) -> Self {
        CoreError::BadConfig { reason: reason.into() }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CoreError::VictimOutOfRange { victim, width } => {
                write!(f, "victim wire {victim} out of range for {width}-wire bus")
            }
            CoreError::Jtag(e) => write!(f, "jtag: {e}"),
            CoreError::Interconnect(e) => write!(f, "interconnect: {e}"),
            CoreError::Logic(e) => write!(f, "logic: {e}"),
            CoreError::Infrastructure(d) => write!(f, "infrastructure: {d}"),
            CoreError::InsufficientCoverage { covered, total, min_coverage } => {
                write!(
                    f,
                    "degraded coverage {covered}/{total} below required {:.0}%",
                    min_coverage * 100.0
                )
            }
            CoreError::DeadlineExceeded { step } => {
                write!(f, "trial deadline exceeded (cancelled at solver step {step})")
            }
            CoreError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Jtag(e) => Some(e),
            CoreError::Interconnect(e) => Some(e),
            CoreError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<JtagError> for CoreError {
    fn from(e: JtagError) -> Self {
        CoreError::Jtag(e)
    }
}

#[doc(hidden)]
impl From<InterconnectError> for CoreError {
    fn from(e: InterconnectError) -> Self {
        CoreError::Interconnect(e)
    }
}

#[doc(hidden)]
impl From<LogicError> for CoreError {
    fn from(e: LogicError) -> Self {
        CoreError::Logic(e)
    }
}

#[doc(hidden)]
impl From<crate::checkpoint::CheckpointError> for CoreError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        CoreError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_substrate_errors_with_source() {
        use std::error::Error as _;
        let e: CoreError = JtagError::UnknownInstruction { name: "Q".into() }.into();
        assert!(e.to_string().starts_with("jtag: "));
        assert!(e.source().is_some());
        let e: CoreError = InterconnectError::SingularMatrix.into();
        assert!(e.to_string().starts_with("interconnect: "));
        let e: CoreError = LogicError::UnknownNet { net: 1 }.into();
        assert!(e.to_string().starts_with("logic: "));
    }

    #[test]
    fn own_variants_display() {
        let e = CoreError::VictimOutOfRange { victim: 9, width: 5 };
        assert_eq!(e.to_string(), "victim wire 9 out of range for 5-wire bus");
        assert!(CoreError::config("zero wires").to_string().contains("zero wires"));
    }

    #[test]
    fn infrastructure_variant_displays_diagnosis() {
        use sint_jtag::integrity::{ChainAnomaly, ChainCheckReport};
        let e = CoreError::Infrastructure(InfrastructureDiagnosis {
            chain_cells: 4,
            report: ChainCheckReport {
                devices: 1,
                anomalies: vec![ChainAnomaly::TdoSilent],
                tck_cost: 10,
            },
        });
        let text = e.to_string();
        assert!(text.starts_with("infrastructure: "), "{text}");
        assert!(text.contains("TDO"), "{text}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
