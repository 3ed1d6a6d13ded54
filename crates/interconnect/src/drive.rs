//! Driver stimulus: vector pairs and slew-limited ramps.
//!
//! The MA fault model excites a bus with *two consecutive test vectors*
//! (§2.3 of the paper): the bus sits at the first vector, then every
//! driver moves (or holds) toward the second with a finite edge rate.
//! [`VectorPair`] captures exactly that, and [`Stimulus`] lowers it to
//! per-wire piecewise-linear sources for the transient solver.

use crate::error::InterconnectError;
use crate::params::Bus;
use std::fmt;

/// A binary drive level at a bus input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriveLevel {
    /// Driven to ground.
    Low,
    /// Driven to Vdd.
    High,
}

impl DriveLevel {
    /// The source voltage for this level under supply `vdd`.
    #[must_use]
    pub fn voltage(self, vdd: f64) -> f64 {
        match self {
            DriveLevel::Low => 0.0,
            DriveLevel::High => vdd,
        }
    }

    /// Parses `'0'`/`'1'`.
    #[must_use]
    pub fn from_char(c: char) -> Option<DriveLevel> {
        match c {
            '0' => Some(DriveLevel::Low),
            '1' => Some(DriveLevel::High),
            _ => None,
        }
    }
}

impl From<bool> for DriveLevel {
    fn from(b: bool) -> Self {
        if b {
            DriveLevel::High
        } else {
            DriveLevel::Low
        }
    }
}

impl fmt::Display for DriveLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", if *self == DriveLevel::High { '1' } else { '0' })
    }
}

/// Two consecutive drive vectors: the unit of MA-model stimulus.
///
/// Index 0 is wire 0 (by convention the top wire of the paper's Fig 3).
///
/// ```
/// use sint_interconnect::drive::{VectorPair, DriveLevel};
/// let p = VectorPair::from_strs("00000", "11011").unwrap();
/// assert_eq!(p.width(), 5);
/// assert_eq!(p.before(2), DriveLevel::Low);
/// assert_eq!(p.after(2), DriveLevel::Low);   // quiet victim
/// assert_eq!(p.after(0), DriveLevel::High);  // rising aggressor
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorPair {
    before: Vec<DriveLevel>,
    after: Vec<DriveLevel>,
}

impl VectorPair {
    /// Builds a pair from two equal-length level vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    #[must_use]
    pub fn new(before: Vec<DriveLevel>, after: Vec<DriveLevel>) -> Self {
        assert_eq!(before.len(), after.len(), "vector pair width mismatch");
        VectorPair { before, after }
    }

    /// Parses a pair from `0`/`1` strings, wire 0 first.
    ///
    /// Returns `None` on a length mismatch or a bad character.
    #[must_use]
    pub fn from_strs(before: &str, after: &str) -> Option<VectorPair> {
        if before.len() != after.len() {
            return None;
        }
        let parse = |s: &str| -> Option<Vec<DriveLevel>> {
            s.chars().map(DriveLevel::from_char).collect()
        };
        Some(VectorPair { before: parse(before)?, after: parse(after)? })
    }

    /// Bus width the pair drives.
    #[must_use]
    pub fn width(&self) -> usize {
        self.before.len()
    }

    /// Level before the transition on `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is out of range.
    #[must_use]
    pub fn before(&self, wire: usize) -> DriveLevel {
        self.before[wire]
    }

    /// Level after the transition on `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is out of range.
    #[must_use]
    pub fn after(&self, wire: usize) -> DriveLevel {
        self.after[wire]
    }

    /// Whether `wire` transitions between the two vectors.
    #[must_use]
    pub fn switches(&self, wire: usize) -> bool {
        self.before[wire] != self.after[wire]
    }
}

impl fmt::Display for VectorPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.before {
            write!(f, "{l}")?;
        }
        write!(f, " -> ")?;
        for l in &self.after {
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

/// Per-wire piecewise-linear source: holds `v0`, ramps linearly to `v1`
/// between `t_switch` and `t_switch + ramp`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampSource {
    /// Initial source voltage (V).
    pub v0: f64,
    /// Final source voltage (V).
    pub v1: f64,
    /// Time the edge starts (s).
    pub t_switch: f64,
    /// Edge duration (s); must be positive.
    pub ramp: f64,
}

impl RampSource {
    /// Source voltage at time `t`.
    #[must_use]
    pub fn at(&self, t: f64) -> f64 {
        if t <= self.t_switch {
            self.v0
        } else if t >= self.t_switch + self.ramp {
            self.v1
        } else {
            let frac = (t - self.t_switch) / self.ramp;
            self.v0 + (self.v1 - self.v0) * frac
        }
    }
}

/// A complete bus stimulus: one ramp source per wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Stimulus {
    sources: Vec<RampSource>,
}

impl Stimulus {
    /// Lowers a [`VectorPair`] onto `bus` with the edge starting at
    /// `t_switch` and using the bus's driver edge time.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::WireOutOfRange`] when the pair width differs
    /// from the bus width.
    pub fn from_pair(bus: &Bus, pair: &VectorPair, t_switch: f64) -> Result<Stimulus, InterconnectError> {
        if pair.width() != bus.wires() {
            return Err(InterconnectError::WireOutOfRange {
                wire: pair.width(),
                width: bus.wires(),
            });
        }
        let sources = (0..bus.wires())
            .map(|w| RampSource {
                v0: pair.before(w).voltage(bus.vdd()),
                v1: pair.after(w).voltage(bus.vdd()),
                t_switch,
                ramp: bus.rise_time(),
            })
            .collect();
        Ok(Stimulus { sources })
    }

    /// Number of driven wires.
    #[must_use]
    pub fn width(&self) -> usize {
        self.sources.len()
    }

    /// Source voltage on `wire` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is out of range.
    #[must_use]
    pub fn voltage(&self, wire: usize, t: f64) -> f64 {
        self.sources[wire].at(t)
    }

    /// The time from which every source holds its final value `v1`.
    #[must_use]
    pub(crate) fn settles_at(&self) -> f64 {
        self.sources.iter().map(|s| s.t_switch + s.ramp).fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BusParams;

    #[test]
    fn parse_pair_and_query() {
        let p = VectorPair::from_strs("010", "110").unwrap();
        assert_eq!(p.width(), 3);
        assert!(p.switches(0));
        assert!(!p.switches(1));
        assert!(!p.switches(2));
        assert_eq!(p.to_string(), "010 -> 110");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(VectorPair::from_strs("01", "011").is_none());
        assert!(VectorPair::from_strs("0a", "01").is_none());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn new_panics_on_mismatch() {
        let _ = VectorPair::new(vec![DriveLevel::Low], vec![]);
    }

    #[test]
    fn ramp_source_shape() {
        let r = RampSource { v0: 0.0, v1: 1.8, t_switch: 1e-9, ramp: 100e-12 };
        assert_eq!(r.at(0.0), 0.0);
        assert_eq!(r.at(1e-9), 0.0);
        assert!((r.at(1.05e-9) - 0.9).abs() < 1e-12);
        assert!((r.at(1.1e-9) - 1.8).abs() < 1e-9);
        assert_eq!(r.at(5e-9), 1.8);
    }

    #[test]
    fn falling_ramp() {
        let r = RampSource { v0: 1.8, v1: 0.0, t_switch: 0.0, ramp: 100e-12 };
        assert!((r.at(50e-12) - 0.9).abs() < 1e-12);
        assert_eq!(r.at(200e-12), 0.0);
    }

    #[test]
    fn stimulus_from_pair_uses_bus_vdd_and_slew() {
        let bus = BusParams::dsm_bus(3).vdd(1.2).build().unwrap();
        let pair = VectorPair::from_strs("001", "101").unwrap();
        let s = Stimulus::from_pair(&bus, &pair, 0.2e-9).unwrap();
        assert_eq!(s.width(), 3);
        assert_eq!(s.voltage(0, 0.0), 0.0);
        assert!((s.voltage(0, 1.0) - 1.2).abs() < 1e-12);
        assert!((s.voltage(2, 0.0) - 1.2).abs() < 1e-12, "held-high wire");
        assert_eq!(s.voltage(1, 1.0), 0.0, "held-low wire");
    }

    #[test]
    fn stimulus_width_mismatch_rejected() {
        let bus = BusParams::dsm_bus(3).build().unwrap();
        let pair = VectorPair::from_strs("0000", "1111").unwrap();
        assert!(Stimulus::from_pair(&bus, &pair, 0.0).is_err());
    }

    #[test]
    fn drive_level_conversions() {
        assert_eq!(DriveLevel::from(true), DriveLevel::High);
        assert_eq!(DriveLevel::from_char('0'), Some(DriveLevel::Low));
        assert_eq!(DriveLevel::from_char('x'), None);
        assert_eq!(DriveLevel::High.voltage(1.8), 1.8);
        assert_eq!(DriveLevel::Low.voltage(1.8), 0.0);
    }
}
