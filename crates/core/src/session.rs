//! Test-session configuration and the integrity report.
//!
//! A *session* is one execution of the paper's test algorithm (Figs 8
//! and 12): two initial values, victim rotation across every wire,
//! three on-chip patterns per victim per initial value, and one of three
//! observation (read-out) methods (§3.2):
//!
//! 1. **Once** — a single double read-out (ND then SD flip-flops) after
//!    all patterns. Cheapest; tells *which wire* failed but not which
//!    transition class caused it.
//! 2. **PerInitialValue** — a read-out after each initial-value half,
//!    narrowing the failure to one three-fault class.
//! 3. **PerPattern** — a read-out after every pattern: full fault
//!    diagnosis at a large time cost.
//!
//! The actual execution lives in [`crate::soc::Soc::run_integrity_test`].

use crate::degrade::DegradedOutcome;
use crate::mafm::IntegrityFault;
use sint_interconnect::drive::DriveLevel;
use sint_runtime::json::{Json, ToJson};
use std::fmt;

/// When the session scans out detector flip-flops (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObservationMethod {
    /// Method 1: once, after the entire campaign.
    Once,
    /// Method 2: after each initial-value half.
    PerInitialValue,
    /// Method 3: after every pattern application.
    PerPattern,
}

impl fmt::Display for ObservationMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObservationMethod::Once => "method 1 (once)",
            ObservationMethod::PerInitialValue => "method 2 (per initial value)",
            ObservationMethod::PerPattern => "method 3 (per pattern)",
        };
        f.write_str(s)
    }
}

/// Session configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Read-out cadence.
    pub method: ObservationMethod,
    /// Simulated settle window per pattern application (s).
    pub settle_time: f64,
    /// Analog solver timestep (s).
    pub dt: f64,
}

impl SessionConfig {
    /// Defaults for the given method: 2 ns settle, 2 ps timestep.
    #[must_use]
    pub fn method(method: ObservationMethod) -> SessionConfig {
        SessionConfig { method, settle_time: 2e-9, dt: 2e-12 }
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::method(ObservationMethod::Once)
    }
}

/// Final verdict for one interconnect wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireVerdict {
    /// The wire's ND flip-flop at final read-out: noise violation seen.
    pub noise: bool,
    /// The wire's SD flip-flop at final read-out: skew violation seen.
    pub skew: bool,
}

impl WireVerdict {
    /// Whether any violation was recorded.
    #[must_use]
    pub fn any(&self) -> bool {
        self.noise || self.skew
    }
}

impl ToJson for WireVerdict {
    fn to_json(&self) -> Json {
        Json::obj([("noise", self.noise.to_json()), ("skew", self.skew.to_json())])
    }
}

impl ToJson for ObservationMethod {
    fn to_json(&self) -> Json {
        let s = match self {
            ObservationMethod::Once => "once",
            ObservationMethod::PerInitialValue => "per_initial_value",
            ObservationMethod::PerPattern => "per_pattern",
        };
        s.to_json()
    }
}

impl ToJson for ReadoutPoint {
    fn to_json(&self) -> Json {
        match self {
            ReadoutPoint::Final => Json::obj([("at", "final".to_json())]),
            ReadoutPoint::AfterInitialValue(level) => Json::obj([
                ("at", "after_initial_value".to_json()),
                ("initial", format!("{level:?}").to_json()),
            ]),
            ReadoutPoint::AfterPattern { initial, victim, fault } => Json::obj([
                ("at", "after_pattern".to_json()),
                ("initial", format!("{initial:?}").to_json()),
                ("victim", victim.to_json()),
                ("fault", format!("{fault:?}").to_json()),
            ]),
            ReadoutPoint::Probe { initial, victim, pattern } => Json::obj([
                ("at", "probe".to_json()),
                ("initial", format!("{initial:?}").to_json()),
                ("victim", victim.to_json()),
                ("pattern", pattern.to_json()),
            ]),
        }
    }
}

impl ToJson for ReadoutRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("point", self.point.to_json()),
            ("nd", self.nd.to_json()),
            ("sd", self.sd.to_json()),
        ])
    }
}

/// What triggered a read-out record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadoutPoint {
    /// Method 1: end of session.
    Final,
    /// Method 2: end of the half started by this initial value.
    AfterInitialValue(DriveLevel),
    /// Method 3: right after one pattern.
    AfterPattern {
        /// Initial value of the enclosing half.
        initial: DriveLevel,
        /// Victim wire targeted by the pattern.
        victim: usize,
        /// Fault the pattern excites.
        fault: IntegrityFault,
    },
    /// Adaptive localization probe (see [`crate::adaptive`]): like
    /// `AfterPattern`, but the session executor *clears* the detectors
    /// right after scanning out a probe, so the snapshot is
    /// per-probe-window rather than cumulative. Only adaptive and
    /// attributed-exhaustive sessions emit this point.
    Probe {
        /// Initial value of the enclosing half.
        initial: DriveLevel,
        /// Victim wire the probe follows.
        victim: usize,
        /// Pattern index within the victim's three-pattern burst (0–2).
        pattern: usize,
    },
}

/// One scanned-out snapshot of all detector flip-flops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadoutRecord {
    /// Where in the session the read-out happened.
    pub point: ReadoutPoint,
    /// ND flip-flop per wire (cumulative — the flip-flops are sticky).
    pub nd: Vec<bool>,
    /// SD flip-flop per wire (cumulative).
    pub sd: Vec<bool>,
}

/// Result of a complete signal-integrity test session.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityReport {
    method: ObservationMethod,
    wires: Vec<WireVerdict>,
    /// All read-out snapshots in session order.
    pub readouts: Vec<ReadoutRecord>,
    /// Total TCKs the session consumed.
    pub tck_used: u64,
    /// Number of pattern transitions applied to the interconnect.
    pub patterns_applied: usize,
    /// Present when the session ran degraded (see
    /// [`crate::degrade::ChainPolicy::Degrade`]): the quarantine, the
    /// surviving coverage and every concession made. `None` for a
    /// session on a healthy chain.
    degradation: Option<DegradedOutcome>,
}

impl IntegrityReport {
    /// Assembles a report; the final wire verdicts come from the last
    /// read-out (the flip-flops accumulate across the session).
    ///
    /// # Panics
    ///
    /// Panics if `readouts` is empty or its width disagrees with
    /// `wires`.
    #[must_use]
    pub fn new(
        method: ObservationMethod,
        wires: usize,
        readouts: Vec<ReadoutRecord>,
        tck_used: u64,
        patterns_applied: usize,
    ) -> IntegrityReport {
        let last = readouts.last().expect("a session produces at least one read-out");
        assert_eq!(last.nd.len(), wires, "read-out width mismatch");
        assert_eq!(last.sd.len(), wires, "read-out width mismatch");
        let verdicts = (0..wires)
            .map(|w| WireVerdict { noise: last.nd[w], skew: last.sd[w] })
            .collect();
        IntegrityReport {
            method,
            wires: verdicts,
            readouts,
            tck_used,
            patterns_applied,
            degradation: None,
        }
    }

    /// Attaches a degraded-session outcome (builder-style; used by the
    /// `Soc` when a `Degrade` policy ran a partial session).
    #[must_use]
    pub fn with_degradation(mut self, outcome: DegradedOutcome) -> IntegrityReport {
        self.degradation = Some(outcome);
        self
    }

    /// The degradation record, when the session ran on a damaged chain.
    #[must_use]
    pub fn degradation(&self) -> Option<&DegradedOutcome> {
        self.degradation.as_ref()
    }

    /// The observation method used.
    #[must_use]
    pub fn method(&self) -> ObservationMethod {
        self.method
    }

    /// Number of wires tested.
    #[must_use]
    pub fn width(&self) -> usize {
        self.wires.len()
    }

    /// Verdict for one wire.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is out of range.
    #[must_use]
    pub fn wire(&self, wire: usize) -> &WireVerdict {
        &self.wires[wire]
    }

    /// All per-wire verdicts.
    #[must_use]
    pub fn verdicts(&self) -> &[WireVerdict] {
        &self.wires
    }

    /// Whether any wire shows any violation.
    #[must_use]
    pub fn any_violation(&self) -> bool {
        self.wires.iter().any(WireVerdict::any)
    }

    /// Indices of wires with violations.
    pub fn failing_wires(&self) -> impl Iterator<Item = usize> + '_ {
        self.wires.iter().enumerate().filter(|(_, v)| v.any()).map(|(w, _)| w)
    }
}

impl ToJson for IntegrityReport {
    fn to_json(&self) -> Json {
        let mut j = Json::obj([
            ("method", self.method.to_json()),
            ("wires", self.wires.to_json()),
            ("readouts", self.readouts.to_json()),
            ("tck_used", self.tck_used.to_json()),
            ("patterns_applied", self.patterns_applied.to_json()),
            ("any_violation", self.any_violation().to_json()),
        ]);
        // Healthy sessions serialise exactly as before; the key only
        // appears when there is something to disclose.
        if let Some(outcome) = &self.degradation {
            j.push("degradation", outcome.to_json());
        }
        j
    }
}

impl fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "integrity report ({}; {} patterns, {} TCK)",
            self.method, self.patterns_applied, self.tck_used
        )?;
        for (w, v) in self.wires.iter().enumerate() {
            writeln!(
                f,
                "  wire {w}: noise={} skew={}",
                u8::from(v.noise),
                u8::from(v.skew)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(point: ReadoutPoint, nd: &[bool], sd: &[bool]) -> ReadoutRecord {
        ReadoutRecord { point, nd: nd.to_vec(), sd: sd.to_vec() }
    }

    #[test]
    fn verdicts_come_from_last_readout() {
        let r1 = record(
            ReadoutPoint::AfterInitialValue(DriveLevel::Low),
            &[false, false, false],
            &[false, false, false],
        );
        let r2 = record(ReadoutPoint::Final, &[false, true, false], &[false, false, true]);
        let report =
            IntegrityReport::new(ObservationMethod::PerInitialValue, 3, vec![r1, r2], 1234, 12);
        assert!(!report.wire(0).any());
        assert!(report.wire(1).noise);
        assert!(!report.wire(1).skew);
        assert!(report.wire(2).skew);
        assert!(report.any_violation());
        assert_eq!(report.failing_wires().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(report.width(), 3);
        assert_eq!(report.tck_used, 1234);
    }

    #[test]
    #[should_panic(expected = "at least one read-out")]
    fn empty_readouts_rejected() {
        let _ = IntegrityReport::new(ObservationMethod::Once, 3, vec![], 0, 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_rejected() {
        let r = record(ReadoutPoint::Final, &[true], &[false]);
        let _ = IntegrityReport::new(ObservationMethod::Once, 3, vec![r], 0, 0);
    }

    #[test]
    fn clean_report_has_no_violations() {
        let r = record(ReadoutPoint::Final, &[false; 4], &[false; 4]);
        let report = IntegrityReport::new(ObservationMethod::Once, 4, vec![r], 10, 24);
        assert!(!report.any_violation());
        assert_eq!(report.failing_wires().count(), 0);
    }

    #[test]
    fn display_lists_wires() {
        let r = record(ReadoutPoint::Final, &[true, false], &[false, true]);
        let report = IntegrityReport::new(ObservationMethod::Once, 2, vec![r], 10, 24);
        let s = report.to_string();
        assert!(s.contains("wire 0: noise=1 skew=0"));
        assert!(s.contains("wire 1: noise=0 skew=1"));
    }

    #[test]
    fn config_defaults() {
        let c = SessionConfig::default();
        assert_eq!(c.method, ObservationMethod::Once);
        assert!(c.settle_time > 0.0 && c.dt > 0.0);
        assert_eq!(
            SessionConfig::method(ObservationMethod::PerPattern).method,
            ObservationMethod::PerPattern
        );
    }

    #[test]
    fn method_display() {
        assert_eq!(ObservationMethod::Once.to_string(), "method 1 (once)");
        assert_eq!(ObservationMethod::PerPattern.to_string(), "method 3 (per pattern)");
    }
}
