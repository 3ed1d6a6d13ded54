//! Process corners: systematic parameter spread.
//!
//! The paper motivates signal-integrity *testing* with process
//! variation (§1, citing Natarajan et al.). Beyond the discrete
//! [`crate::defect`] injection, whole-lot variation shifts every
//! parasitic together; this module models the classic slow/typical/fast
//! corners so experiments can check that detector calibration holds
//! across the spread.

use crate::params::BusParams;
use std::fmt;

/// A named process corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Slow-slow: resistive wires, fat capacitors, weak drivers.
    Ss,
    /// Typical-typical: the nominal design point.
    Tt,
    /// Fast-fast: low-R wires, thin capacitors, strong drivers.
    Ff,
}

impl Corner {
    /// All corners, slow to fast.
    pub const ALL: [Corner; 3] = [Corner::Ss, Corner::Tt, Corner::Ff];

    /// The multiplier set for this corner.
    #[must_use]
    pub fn factors(self) -> CornerFactors {
        match self {
            Corner::Ss => CornerFactors {
                resistance: 1.20,
                capacitance: 1.15,
                coupling: 1.15,
                driver: 1.25,
                edge_time: 1.20,
            },
            Corner::Tt => CornerFactors {
                resistance: 1.0,
                capacitance: 1.0,
                coupling: 1.0,
                driver: 1.0,
                edge_time: 1.0,
            },
            Corner::Ff => CornerFactors {
                resistance: 0.85,
                capacitance: 0.90,
                coupling: 0.90,
                driver: 0.80,
                edge_time: 0.85,
            },
        }
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Corner::Ss => "SS",
            Corner::Tt => "TT",
            Corner::Ff => "FF",
        };
        f.write_str(s)
    }
}

/// Multipliers a corner applies to the bus parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerFactors {
    /// Wire-resistance multiplier.
    pub resistance: f64,
    /// Ground-capacitance multiplier.
    pub capacitance: f64,
    /// Coupling-capacitance multiplier.
    pub coupling: f64,
    /// Driver-resistance multiplier.
    pub driver: f64,
    /// Driver edge-time multiplier.
    pub edge_time: f64,
}

impl CornerFactors {
    /// Applies the multipliers to a parameter set.
    #[must_use]
    pub fn apply(self, params: BusParams) -> BusParams {
        params.scale(self.resistance, self.capacitance, self.coupling, self.driver, self.edge_time)
    }
}

impl BusParams {
    /// Shifts the parameter set to a process corner.
    ///
    /// ```
    /// use sint_interconnect::params::BusParams;
    /// use sint_interconnect::corner::Corner;
    /// let slow = BusParams::dsm_bus(4).at_corner(Corner::Ss).build()?;
    /// let fast = BusParams::dsm_bus(4).at_corner(Corner::Ff).build()?;
    /// assert!(slow.wire_resistance(0)? > fast.wire_resistance(0)?);
    /// # Ok::<(), sint_interconnect::InterconnectError>(())
    /// ```
    #[must_use]
    pub fn at_corner(self, corner: Corner) -> BusParams {
        corner.factors().apply(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::VectorPair;
    use crate::measure::propagation_delay;
    use crate::solver::{PanelScratch, TransientSim};

    #[test]
    fn tt_is_identity() {
        let nominal = BusParams::dsm_bus(3);
        assert_eq!(nominal.clone().at_corner(Corner::Tt), nominal);
    }

    #[test]
    fn ss_slower_than_ff() {
        let delay = |corner: Corner| {
            let bus = BusParams::dsm_bus(3).at_corner(corner).build().unwrap();
            let sim = TransientSim::new(&bus, 2e-12).unwrap();
            let pair = VectorPair::from_strs("000", "010").unwrap();
            let w =
                sim.run_pairs_cancellable(&[pair], 3e-9, &mut PanelScratch::new(), None).unwrap();
            propagation_delay(w.wire(0, 1), w.dt(), bus.vdd(), sim.switch_at(), true).unwrap()
        };
        let ss = delay(Corner::Ss);
        let tt = delay(Corner::Tt);
        let ff = delay(Corner::Ff);
        assert!(ss > tt, "SS must be slower than TT: {ss} vs {tt}");
        assert!(tt > ff, "TT must be slower than FF: {tt} vs {ff}");
    }

    #[test]
    fn corner_scaling_hits_every_parameter() {
        let ss = BusParams::dsm_bus(2).at_corner(Corner::Ss).build().unwrap();
        let tt = BusParams::dsm_bus(2).build().unwrap();
        assert!(ss.wire_resistance(0).unwrap() > tt.wire_resistance(0).unwrap());
        assert!(ss.pair_coupling(0).unwrap() > tt.pair_coupling(0).unwrap());
        assert!(ss.rise_time() > tt.rise_time());
    }

    #[test]
    fn display_names() {
        assert_eq!(Corner::Ss.to_string(), "SS");
        assert_eq!(Corner::Ff.to_string(), "FF");
        assert_eq!(Corner::ALL.len(), 3);
    }
}
