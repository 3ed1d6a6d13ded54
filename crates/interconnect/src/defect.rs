//! Process-variation and manufacturing-defect injection.
//!
//! The paper motivates signal-integrity *testing* (as opposed to design
//! verification) with defects that cannot be predicted at design time:
//! "process variations and manufacturing defects may lead to an
//! unexpected increase in coupling capacitances and mutual inductances
//! between interconnects" (§1). A [`Defect`] mutates a healthy
//! [`Bus`]'s element values the same way such a physical defect would,
//! giving the end-to-end experiments a ground truth to detect.

use crate::error::InterconnectError;
use crate::params::Bus;
use std::fmt;

/// A physical defect to inject into a [`Bus`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Defect {
    /// Multiplies the coupling capacitance of every pair adjacent to
    /// `wire` by `factor` (narrowed spacing / bridging residue around
    /// one wire).
    CouplingBoost {
        /// The wire whose neighbourhood coupling grows.
        wire: usize,
        /// Multiplier (> 1 worsens crosstalk).
        factor: f64,
    },
    /// Multiplies the coupling capacitance of the single pair
    /// (`left`, `left + 1`) by `factor`.
    PairCouplingBoost {
        /// Left wire of the affected pair.
        left: usize,
        /// Multiplier (> 1 worsens crosstalk).
        factor: f64,
    },
    /// Adds series resistance to one segment of `wire` (a resistive
    /// open / via defect) — the classic source of extra delay and skew.
    ResistiveOpen {
        /// Affected wire.
        wire: usize,
        /// Affected segment index.
        segment: usize,
        /// Extra series resistance (Ω).
        extra_ohms: f64,
    },
    /// Multiplies the driver resistance of `wire` by `factor` (a weak
    /// driver from channel-length variation), slowing its edges.
    WeakDriver {
        /// Affected wire.
        wire: usize,
        /// Multiplier (> 1 weakens the driver).
        factor: f64,
    },
}

impl Defect {
    /// The wire the defect is centred on (the natural "victim").
    #[must_use]
    pub fn focus_wire(&self) -> usize {
        match *self {
            Defect::CouplingBoost { wire, .. }
            | Defect::ResistiveOpen { wire, .. }
            | Defect::WeakDriver { wire, .. } => wire,
            Defect::PairCouplingBoost { left, .. } => left,
        }
    }

    /// Applies the defect to a bus in place.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::WireOutOfRange`] for indices off the bus and
    /// [`InterconnectError::BadGeometry`] for non-physical magnitudes: a
    /// NaN, a negative or an infinite factor, a non-positive driver
    /// factor, a NaN or negative resistance. An `extra_ohms` of `+∞` (a
    /// full open) is accepted; the solver refuses the bus it leaves with
    /// a typed [`InterconnectError::SingularMatrix`].
    pub fn apply(&self, bus: &mut Bus) -> Result<(), InterconnectError> {
        match *self {
            Defect::CouplingBoost { wire, factor } => {
                bus.check_wire(wire)?;
                if !(factor.is_finite() && factor >= 0.0) {
                    return Err(InterconnectError::geometry(
                        "coupling factor must be finite and >= 0",
                    ));
                }
                let pairs = bus.wires().saturating_sub(1);
                // Pair `p` couples wires p and p+1.
                for p in [wire.wrapping_sub(1), wire] {
                    if p < pairs {
                        for cc in &mut bus.cc_node[p] {
                            *cc *= factor;
                        }
                    }
                }
                Ok(())
            }
            Defect::PairCouplingBoost { left, factor } => {
                if left + 1 >= bus.wires() {
                    return Err(InterconnectError::WireOutOfRange {
                        wire: left + 1,
                        width: bus.wires(),
                    });
                }
                if !(factor.is_finite() && factor >= 0.0) {
                    return Err(InterconnectError::geometry(
                        "coupling factor must be finite and >= 0",
                    ));
                }
                for cc in &mut bus.cc_node[left] {
                    *cc *= factor;
                }
                Ok(())
            }
            Defect::ResistiveOpen { wire, segment, extra_ohms } => {
                bus.check_wire(wire)?;
                if segment >= bus.segments() {
                    return Err(InterconnectError::geometry(format!(
                        "segment {segment} out of range for {}-segment bus",
                        bus.segments()
                    )));
                }
                if extra_ohms.is_nan() || extra_ohms < 0.0 {
                    return Err(InterconnectError::geometry("extra resistance must be >= 0"));
                }
                bus.r_seg[wire][segment] += extra_ohms;
                Ok(())
            }
            Defect::WeakDriver { wire, factor } => {
                bus.check_wire(wire)?;
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(InterconnectError::geometry(
                        "driver factor must be finite and positive",
                    ));
                }
                bus.driver_r[wire] *= factor;
                Ok(())
            }
        }
    }
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Defect::CouplingBoost { wire, factor } => {
                write!(f, "coupling x{factor} around wire {wire}")
            }
            Defect::PairCouplingBoost { left, factor } => {
                write!(f, "coupling x{factor} on pair ({left},{})", left + 1)
            }
            Defect::ResistiveOpen { wire, segment, extra_ohms } => {
                write!(f, "+{extra_ohms} ohm open on wire {wire} segment {segment}")
            }
            Defect::WeakDriver { wire, factor } => {
                write!(f, "driver x{factor} weaker on wire {wire}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::VectorPair;
    use crate::params::BusParams;
    use crate::solver::{PanelScratch, TransientSim};

    fn bus() -> Bus {
        BusParams::dsm_bus(3).segments(4).build().unwrap()
    }

    #[test]
    fn coupling_boost_scales_both_neighbour_pairs() {
        let mut b = bus();
        let before = b.pair_coupling(0).unwrap();
        Defect::CouplingBoost { wire: 1, factor: 3.0 }.apply(&mut b).unwrap();
        assert!((b.pair_coupling(0).unwrap() - 3.0 * before).abs() < 1e-24);
        assert!((b.pair_coupling(1).unwrap() - 3.0 * before).abs() < 1e-24);
    }

    #[test]
    fn edge_wire_boost_touches_single_pair() {
        let mut b = bus();
        let before = b.pair_coupling(1).unwrap();
        Defect::CouplingBoost { wire: 0, factor: 2.0 }.apply(&mut b).unwrap();
        assert!((b.pair_coupling(1).unwrap() - before).abs() < 1e-24, "far pair untouched");
        assert!(b.pair_coupling(0).unwrap() > before);
    }

    #[test]
    fn pair_boost_touches_only_that_pair() {
        let mut b = bus();
        let c1 = b.pair_coupling(1).unwrap();
        Defect::PairCouplingBoost { left: 0, factor: 5.0 }.apply(&mut b).unwrap();
        assert!((b.pair_coupling(1).unwrap() - c1).abs() < 1e-24);
    }

    #[test]
    fn resistive_open_adds_series_resistance() {
        let mut b = bus();
        let before = b.wire_resistance(2).unwrap();
        Defect::ResistiveOpen { wire: 2, segment: 1, extra_ohms: 500.0 }.apply(&mut b).unwrap();
        assert!((b.wire_resistance(2).unwrap() - before - 500.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_defects_rejected() {
        let mut b = bus();
        assert!(Defect::CouplingBoost { wire: 9, factor: 2.0 }.apply(&mut b).is_err());
        assert!(Defect::PairCouplingBoost { left: 2, factor: 2.0 }.apply(&mut b).is_err());
        assert!(Defect::ResistiveOpen { wire: 0, segment: 99, extra_ohms: 1.0 }
            .apply(&mut b)
            .is_err());
        assert!(Defect::WeakDriver { wire: 0, factor: 0.0 }.apply(&mut b).is_err());
        assert!(Defect::CouplingBoost { wire: 0, factor: -1.0 }.apply(&mut b).is_err());
    }

    #[test]
    fn non_finite_magnitudes_rejected() {
        let defects = |x: f64| {
            [
                Defect::CouplingBoost { wire: 1, factor: x },
                Defect::PairCouplingBoost { left: 0, factor: x },
                Defect::ResistiveOpen { wire: 1, segment: 2, extra_ohms: x },
                Defect::WeakDriver { wire: 1, factor: x },
            ]
        };
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            for d in defects(bad) {
                let err = d.apply(&mut bus()).unwrap_err();
                assert!(matches!(err, InterconnectError::BadGeometry { .. }), "{d}: {err:?}");
            }
        }
        // Every factor must be finite. A full open is a physical defect,
        // and the solver refuses the bus it leaves with a typed error.
        for d in defects(f64::INFINITY) {
            let mut b = bus();
            match d {
                Defect::ResistiveOpen { .. } => {
                    d.apply(&mut b).unwrap();
                    let solver = TransientSim::new(&b, 2e-12);
                    assert!(matches!(solver, Err(InterconnectError::SingularMatrix)), "{d}");
                }
                _ => assert!(d.apply(&mut b).is_err(), "{d}"),
            }
        }
    }

    #[test]
    fn coupling_defect_visibly_worsens_glitch() {
        let healthy = bus();
        let mut faulty = bus();
        Defect::CouplingBoost { wire: 1, factor: 4.0 }.apply(&mut faulty).unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let peak = |b: &Bus| {
            let sim = TransientSim::new(b, 2e-12).unwrap();
            let pair = std::slice::from_ref(&pair);
            let w = sim.run_pairs_cancellable(pair, 2e-9, &mut PanelScratch::new(), None).unwrap();
            w.wire(0, 1).iter().cloned().fold(f64::MIN, f64::max)
        };
        assert!(peak(&faulty) > 1.5 * peak(&healthy));
    }

    #[test]
    fn resistive_open_adds_measurable_delay() {
        let healthy = bus();
        let mut faulty = bus();
        Defect::ResistiveOpen { wire: 1, segment: 2, extra_ohms: 2000.0 }
            .apply(&mut faulty)
            .unwrap();
        let pair = VectorPair::from_strs("000", "010").unwrap();
        let delay = |b: &Bus| {
            let sim = TransientSim::new(b, 2e-12).unwrap();
            let pair = std::slice::from_ref(&pair);
            let w = sim.run_pairs_cancellable(pair, 4e-9, &mut PanelScratch::new(), None).unwrap();
            crate::measure::propagation_delay(w.wire(0, 1), w.dt(), b.vdd(), sim.switch_at(), true)
                .unwrap()
        };
        assert!(delay(&faulty) > delay(&healthy) + 20e-12);
    }

    #[test]
    fn display_is_descriptive() {
        let d = Defect::WeakDriver { wire: 3, factor: 2.5 };
        assert_eq!(d.to_string(), "driver x2.5 weaker on wire 3");
        assert_eq!(d.focus_wire(), 3);
    }
}
