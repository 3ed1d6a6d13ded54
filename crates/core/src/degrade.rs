//! Graceful-degradation policy for sessions on a damaged scan chain.
//!
//! The seed behaviour — refuse the session whenever the pre-session
//! self-check finds *any* anomaly — is safe but brittle: one stuck
//! boundary segment ([`sint_jtag::ScanFault::BoundaryStuck`]) writes
//! off the whole bus even though most wires remain fully testable. This
//! module adds the alternative: localize the break with the walking-one
//! probe ([`sint_jtag::integrity::localize_boundary_fault`]), quarantine
//! the wires the break makes uncontrollable or unobservable, and run a
//! partial session over the healthy subset: only healthy wires take the
//! victim role, each behind a full victim-select scan, while every
//! quarantined driver holds [`crate::mafm::QUARANTINE_PARK`]. Every
//! concession is surfaced as a typed [`DegradationEvent`].
//!
//! The policy knob is [`ChainPolicy`]: `Strict` keeps the seed
//! behaviour; `Degrade { min_coverage }` accepts a partial session as
//! long as the surviving fault coverage (see
//! [`crate::mafm::CoverageReport`]) stays at or above the floor.

use crate::mafm::CoverageReport;
use sint_jtag::integrity::{ChainAnomaly, FaultLocalization, QuarantineSet};
use sint_runtime::json::{Json, ToJson};
use std::fmt;

/// What a session should do when the pre-session self-check finds the
/// scan chain damaged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ChainPolicy {
    /// Refuse the session on any anomaly (the seed behaviour):
    /// [`crate::CoreError::Infrastructure`] carries the diagnosis.
    #[default]
    Strict,
    /// Localize the damage, quarantine the affected wires and run a
    /// partial session over the healthy subset — provided the
    /// surviving coverage meets the floor; otherwise refuse with
    /// [`crate::CoreError::InsufficientCoverage`].
    Degrade {
        /// Minimum surviving fraction of the `6·width` MA faults, in
        /// `[0, 1]`. `0.0` accepts any non-empty plan; `1.0` only a
        /// break that costs no coverage at all.
        min_coverage: f64,
    },
}

impl fmt::Display for ChainPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainPolicy::Strict => f.write_str("strict"),
            ChainPolicy::Degrade { min_coverage } => {
                write!(f, "degrade (min coverage {:.0}%)", min_coverage * 100.0)
            }
        }
    }
}

impl ToJson for ChainPolicy {
    fn to_json(&self) -> Json {
        match self {
            ChainPolicy::Strict => Json::obj([("kind", "strict".to_json())]),
            ChainPolicy::Degrade { min_coverage } => Json::obj([
                ("kind", "degrade".to_json()),
                ("min_coverage", min_coverage.to_json()),
            ]),
        }
    }
}

/// One concession a degraded session made, in the order it was made.
/// A `Degrade` session that runs at all reports the full trail — the
/// caller can audit exactly what was given up and why.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DegradationEvent {
    /// The boundary-path self-check found this anomaly.
    AnomalyDetected {
        /// The anomaly as reported by the self-check.
        anomaly: ChainAnomaly,
    },
    /// The walking-one probe attributed the damage to one shift
    /// segment (or failed to, `segment = None`).
    BreakLocalized {
        /// Chain position of the boundary cell whose outgoing segment
        /// is broken, when the probe responses fit a single break.
        segment: Option<usize>,
        /// TCKs the probe spent (excluded from session accounting).
        probe_tcks: u64,
    },
    /// A wire was excluded as a victim: its faults are untestable.
    WireQuarantined {
        /// The quarantined wire.
        wire: usize,
    },
    /// A quarantined wire's drive is modelled parked at the quiescent
    /// level ([`crate::mafm::QUARANTINE_PARK`]) instead of toggling as
    /// an aggressor.
    AggressorParked {
        /// The parked wire.
        wire: usize,
    },
    /// A quarantined wire's detector read-outs were masked out of the
    /// report: they cross the broken segment and cannot be trusted.
    VerdictMasked {
        /// The masked wire.
        wire: usize,
    },
}

impl DegradationEvent {
    /// Stable machine-readable tag for reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DegradationEvent::AnomalyDetected { .. } => "anomaly_detected",
            DegradationEvent::BreakLocalized { .. } => "break_localized",
            DegradationEvent::WireQuarantined { .. } => "wire_quarantined",
            DegradationEvent::AggressorParked { .. } => "aggressor_parked",
            DegradationEvent::VerdictMasked { .. } => "verdict_masked",
        }
    }
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationEvent::AnomalyDetected { anomaly } => {
                write!(f, "anomaly detected: {anomaly}")
            }
            DegradationEvent::BreakLocalized { segment: Some(s), probe_tcks } => {
                write!(f, "break localized to segment after cell {s} ({probe_tcks} probe TCKs)")
            }
            DegradationEvent::BreakLocalized { segment: None, probe_tcks } => {
                write!(f, "break not attributable to one segment ({probe_tcks} probe TCKs)")
            }
            DegradationEvent::WireQuarantined { wire } => write!(f, "wire {wire} quarantined"),
            DegradationEvent::AggressorParked { wire } => {
                write!(f, "wire {wire} parked at quiescent drive")
            }
            DegradationEvent::VerdictMasked { wire } => {
                write!(f, "wire {wire} read-outs masked (untrustworthy)")
            }
        }
    }
}

impl ToJson for DegradationEvent {
    fn to_json(&self) -> Json {
        let mut j = Json::obj([("kind", self.kind().to_json())]);
        match self {
            DegradationEvent::AnomalyDetected { anomaly } => {
                j.push("anomaly", anomaly.to_json());
            }
            DegradationEvent::BreakLocalized { segment, probe_tcks } => {
                j.push("segment", segment.to_json());
                j.push("probe_tcks", probe_tcks.to_json());
            }
            DegradationEvent::WireQuarantined { wire }
            | DegradationEvent::AggressorParked { wire }
            | DegradationEvent::VerdictMasked { wire } => {
                j.push("wire", wire.to_json());
            }
        }
        j
    }
}

/// Everything a degraded session conceded, attached to the
/// [`crate::session::IntegrityReport`] it produced: the localization,
/// the surviving coverage and the full event trail.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedOutcome {
    /// The walking-one probe result, including the quarantine.
    pub localization: FaultLocalization,
    /// Which of the `6·width` MA faults stayed testable.
    pub coverage: CoverageReport,
    /// Every concession, in the order it was made.
    pub events: Vec<DegradationEvent>,
}

impl DegradedOutcome {
    /// The quarantine the session ran under.
    #[must_use]
    pub fn quarantine(&self) -> &QuarantineSet {
        &self.localization.quarantine
    }
}

impl fmt::Display for DegradedOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "degraded session: {}; {}", self.coverage, self.quarantine())
    }
}

impl ToJson for DegradedOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("localization", self.localization.to_json()),
            ("coverage", self.coverage.to_json()),
            ("events", self.events.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_to_strict() {
        assert_eq!(ChainPolicy::default(), ChainPolicy::Strict);
        assert_eq!(ChainPolicy::Strict.to_string(), "strict");
        assert_eq!(
            ChainPolicy::Degrade { min_coverage: 0.8 }.to_string(),
            "degrade (min coverage 80%)"
        );
        assert_eq!(
            ChainPolicy::Degrade { min_coverage: 0.5 }.to_json().render(),
            r#"{"kind":"degrade","min_coverage":0.5}"#
        );
    }

    #[test]
    fn events_serialise_with_kind() {
        let events = [
            (
                DegradationEvent::AnomalyDetected {
                    anomaly: ChainAnomaly::BoundaryPathStuck { level: false, bit: 0 },
                },
                "anomaly_detected",
            ),
            (
                DegradationEvent::BreakLocalized { segment: Some(6), probe_tcks: 100 },
                "break_localized",
            ),
            (DegradationEvent::WireQuarantined { wire: 7 }, "wire_quarantined"),
            (DegradationEvent::AggressorParked { wire: 7 }, "aggressor_parked"),
            (DegradationEvent::VerdictMasked { wire: 7 }, "verdict_masked"),
        ];
        for (event, kind) in events {
            assert_eq!(event.kind(), kind);
            let j = event.to_json().render();
            assert!(j.contains(&format!(r#""kind":"{kind}""#)), "{j}");
            assert!(!event.to_string().is_empty());
        }
    }

    #[test]
    fn break_localized_displays_both_arms() {
        let hit = DegradationEvent::BreakLocalized { segment: Some(3), probe_tcks: 50 };
        assert!(hit.to_string().contains("after cell 3"));
        let miss = DegradationEvent::BreakLocalized { segment: None, probe_tcks: 50 };
        assert!(miss.to_string().contains("not attributable"));
    }

    #[test]
    fn outcome_exposes_quarantine_and_serialises() {
        use crate::mafm::CoverageReport;
        let q = QuarantineSet::from_quarantined(8, [7]);
        let outcome = DegradedOutcome {
            localization: FaultLocalization {
                responding: (0..8).map(|w| w < 7).collect(),
                segment: Some(6),
                quarantine: q.clone(),
                tck_cost: 123,
            },
            coverage: CoverageReport::for_quarantine(8, &q),
            events: vec![DegradationEvent::WireQuarantined { wire: 7 }],
        };
        assert_eq!(outcome.quarantine().quarantined_wires(), vec![7]);
        let j = outcome.to_json().render();
        assert!(j.contains(r#""coverage""#), "{j}");
        assert!(j.contains(r#""events""#), "{j}");
        assert!(outcome.to_string().contains("42/48"), "{outcome}");
    }
}
