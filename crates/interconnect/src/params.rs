//! Physical description of a coupled on-chip bus.
//!
//! A bus is `n` parallel wires of equal length. Each wire is an RC line
//! (series resistance, capacitance to ground) and adjacent wires are
//! linked by coupling capacitance — the mechanism behind both crosstalk
//! glitches and Miller-effect skew, the two integrity faults the paper's
//! detectors target. The line is discretised into `segments` lumped π-ish
//! sections for the nodal solver.
//!
//! Values are plain SI units (`Ω`, `F`, `V`, `s`); the per-length fields
//! use millimetres because on-chip global wires are conventionally quoted
//! per mm.

use crate::error::InterconnectError;

/// Builder for a [`Bus`].
///
/// Defaults (see [`BusParams::dsm_bus`]) model a 5 mm global interconnect
/// in a late-1990s DSM process, the technology the paper targets: strong
/// neighbour coupling, ~GHz edges, 1.8 V supply.
#[derive(Debug, Clone, PartialEq)]
pub struct BusParams {
    wires: usize,
    length_mm: f64,
    segments: usize,
    r_per_mm: f64,
    cg_per_mm: f64,
    cc_per_mm: f64,
    l_per_mm: f64,
    lm_per_mm: f64,
    driver_r: f64,
    receiver_c: f64,
    vdd: f64,
    rise_time: f64,
}

impl BusParams {
    /// A DSM-flavoured global bus: 5 mm long, 30 Ω/mm, 50 fF/mm to
    /// ground, 30 fF/mm to each neighbour, 120 Ω drivers, 20 fF receiver
    /// loads, 1.8 V supply, 100 ps edges, 8 solver segments.
    ///
    /// The coupling density is chosen so that a *healthy* bus's
    /// worst-case MA glitch (~0.44 V) stays below conventional CMOS
    /// noise margins, while realistic process defects (coupling grown a
    /// few ×) push it well past them — the regime the paper's detectors
    /// target.
    #[must_use]
    pub fn dsm_bus(wires: usize) -> BusParams {
        BusParams {
            wires,
            length_mm: 5.0,
            segments: 8,
            r_per_mm: 30.0,
            cg_per_mm: 50e-15,
            cc_per_mm: 30e-15,
            l_per_mm: 0.0,
            lm_per_mm: 0.0,
            driver_r: 120.0,
            receiver_c: 20e-15,
            vdd: 1.8,
            rise_time: 100e-12,
        }
    }

    /// Sets the wire length in millimetres.
    #[must_use]
    pub fn length_mm(mut self, mm: f64) -> Self {
        self.length_mm = mm;
        self
    }

    /// Sets the number of lumped segments used by the solver.
    #[must_use]
    pub fn segments(mut self, segments: usize) -> Self {
        self.segments = segments;
        self
    }

    /// Sets the series resistance per millimetre (Ω/mm).
    #[must_use]
    pub fn r_per_mm(mut self, ohms: f64) -> Self {
        self.r_per_mm = ohms;
        self
    }

    /// Sets the ground capacitance per millimetre (F/mm).
    #[must_use]
    pub fn cg_per_mm(mut self, farads: f64) -> Self {
        self.cg_per_mm = farads;
        self
    }

    /// Sets the neighbour coupling capacitance per millimetre (F/mm).
    #[must_use]
    pub fn cc_per_mm(mut self, farads: f64) -> Self {
        self.cc_per_mm = farads;
        self
    }

    /// Sets the neighbour mutual inductance per millimetre (H/mm).
    ///
    /// Only meaningful together with [`BusParams::l_per_mm`]; physical
    /// coupling coefficients satisfy `|M| < L` (validated at build).
    /// Mutual inductance makes simultaneously-switching neighbours feed
    /// energy into each other's branches — the inductive share of
    /// crosstalk the paper lists alongside the capacitive one.
    #[must_use]
    pub fn lm_per_mm(mut self, henries: f64) -> Self {
        self.lm_per_mm = henries;
        self
    }

    /// Sets the series self-inductance per millimetre (H/mm).
    ///
    /// Zero (the default) keeps the fast pure-RC solver path; a typical
    /// on-chip global wire is around `0.3–0.5 nH/mm`. With inductance
    /// the solver switches to the augmented MNA formulation and the bus
    /// exhibits the overshoot/ringing behaviour behind the paper's
    /// P̄g/N̄g faults.
    #[must_use]
    pub fn l_per_mm(mut self, henries: f64) -> Self {
        self.l_per_mm = henries;
        self
    }

    /// Sets the driver output resistance (Ω).
    #[must_use]
    pub fn driver_r(mut self, ohms: f64) -> Self {
        self.driver_r = ohms;
        self
    }

    /// Sets the receiver input capacitance (F).
    #[must_use]
    pub fn receiver_c(mut self, farads: f64) -> Self {
        self.receiver_c = farads;
        self
    }

    /// Sets the supply voltage (V).
    #[must_use]
    pub fn vdd(mut self, volts: f64) -> Self {
        self.vdd = volts;
        self
    }

    /// Sets the driver 0→100 % edge time (s).
    #[must_use]
    pub fn rise_time(mut self, seconds: f64) -> Self {
        self.rise_time = seconds;
        self
    }

    /// Scales the electrical parameters by the given multipliers —
    /// the primitive behind [`crate::corner`] process corners.
    #[must_use]
    pub fn scale(
        mut self,
        resistance: f64,
        capacitance: f64,
        coupling: f64,
        driver: f64,
        edge_time: f64,
    ) -> BusParams {
        self.r_per_mm *= resistance;
        self.cg_per_mm *= capacitance;
        self.cc_per_mm *= coupling;
        self.driver_r *= driver;
        self.rise_time *= edge_time;
        self
    }

    /// Validates the description and derives the lumped element values.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::BadGeometry`] when any quantity is
    /// non-physical (zero wires/segments; a non-finite value; non-positive
    /// length, R, ground C, driver R, Vdd or edge time; negative coupling
    /// C, inductance or receiver C).
    pub fn build(self) -> Result<Bus, InterconnectError> {
        // Written so that NaN fails every check.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        if self.wires == 0 {
            return Err(InterconnectError::geometry("bus must have at least one wire"));
        }
        if self.segments == 0 {
            return Err(InterconnectError::geometry("bus must have at least one segment"));
        }
        if !positive(self.length_mm) {
            return Err(InterconnectError::geometry("wire length must be positive"));
        }
        if !(positive(self.r_per_mm) && positive(self.cg_per_mm) && non_negative(self.cc_per_mm)) {
            return Err(InterconnectError::geometry("R and C densities must be positive"));
        }
        if !non_negative(self.l_per_mm) {
            return Err(InterconnectError::geometry("inductance density must be >= 0"));
        }
        if !non_negative(self.lm_per_mm)
            || (self.lm_per_mm > 0.0 && self.lm_per_mm >= self.l_per_mm)
        {
            return Err(InterconnectError::geometry(
                "mutual inductance must satisfy 0 <= M < L",
            ));
        }
        if !(positive(self.driver_r) && non_negative(self.receiver_c)) {
            return Err(InterconnectError::geometry("driver R must be positive"));
        }
        if !(positive(self.vdd) && positive(self.rise_time)) {
            return Err(InterconnectError::geometry("vdd and rise time must be positive"));
        }
        let s = self.segments;
        let seg_len = self.length_mm / s as f64;
        let r_seg = self.r_per_mm * seg_len;
        let cg_seg = self.cg_per_mm * seg_len;
        let cc_seg = self.cc_per_mm * seg_len;
        let l_seg = self.l_per_mm * seg_len;
        let lm_seg = self.lm_per_mm * seg_len;
        let pairs = self.wires.saturating_sub(1);
        Ok(Bus {
            wires: self.wires,
            segments: s,
            r_seg: vec![vec![r_seg; s]; self.wires],
            cg_node: vec![vec![cg_seg; s]; self.wires],
            cc_node: vec![vec![cc_seg; s]; pairs],
            l_seg: vec![vec![l_seg; s]; self.wires],
            lm_seg: vec![vec![lm_seg; s]; pairs],
            driver_r: vec![self.driver_r; self.wires],
            receiver_c: self.receiver_c,
            vdd: self.vdd,
            rise_time: self.rise_time,
        })
    }
}

/// A validated, element-level bus model ready for simulation.
///
/// All element vectors are indexed `[wire][segment]`; the coupling vector
/// is indexed `[pair][segment]` where pair `p` couples wires `p` and
/// `p + 1`. Defect injection (see [`crate::defect`]) mutates these
/// element values directly, exactly like a layout-level parasitic shift.
#[derive(Debug, Clone, PartialEq)]
pub struct Bus {
    pub(crate) wires: usize,
    pub(crate) segments: usize,
    pub(crate) r_seg: Vec<Vec<f64>>,
    pub(crate) cg_node: Vec<Vec<f64>>,
    pub(crate) cc_node: Vec<Vec<f64>>,
    pub(crate) l_seg: Vec<Vec<f64>>,
    pub(crate) lm_seg: Vec<Vec<f64>>,
    pub(crate) driver_r: Vec<f64>,
    pub(crate) receiver_c: f64,
    pub(crate) vdd: f64,
    pub(crate) rise_time: f64,
}

impl Bus {
    /// Number of wires.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// Number of lumped segments per wire.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Supply voltage (V).
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Driver edge time (s).
    #[must_use]
    pub fn rise_time(&self) -> f64 {
        self.rise_time
    }

    /// Total series resistance of `wire` (Ω), excluding the driver.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::WireOutOfRange`] for a bad index.
    pub fn wire_resistance(&self, wire: usize) -> Result<f64, InterconnectError> {
        self.check_wire(wire)?;
        Ok(self.r_seg[wire].iter().sum())
    }

    /// Total coupling capacitance between `wire` and `wire + 1` (F).
    ///
    /// # Errors
    ///
    /// [`InterconnectError::WireOutOfRange`] when `wire + 1` is off-bus.
    pub fn pair_coupling(&self, wire: usize) -> Result<f64, InterconnectError> {
        if wire + 1 >= self.wires {
            return Err(InterconnectError::WireOutOfRange { wire: wire + 1, width: self.wires });
        }
        Ok(self.cc_node[wire].iter().sum())
    }

    /// Whether any segment carries series inductance (selects the
    /// augmented-MNA solver path).
    #[must_use]
    pub fn has_inductance(&self) -> bool {
        self.l_seg.iter().flatten().any(|l| *l > 0.0)
    }

    /// A structural fingerprint over every electrical parameter (FNV-1a
    /// over the exact bit patterns): equal buses fingerprint equal, any
    /// single element change — a defect, a variation draw — perturbs
    /// it. Used to key factored-solver caches, so it must be exact, not
    /// approximate.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fn fnv(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x100_0000_01B3)
        }
        let mut h = fnv(0xCBF2_9CE4_8422_2325, self.wires as u64);
        h = fnv(h, self.segments as u64);
        for table in [&self.r_seg, &self.cg_node, &self.cc_node, &self.l_seg, &self.lm_seg] {
            for row in table {
                for v in row {
                    h = fnv(h, v.to_bits());
                }
            }
        }
        for v in &self.driver_r {
            h = fnv(h, v.to_bits());
        }
        for v in [self.receiver_c, self.vdd, self.rise_time] {
            h = fnv(h, v.to_bits());
        }
        h
    }

    pub(crate) fn check_wire(&self, wire: usize) -> Result<(), InterconnectError> {
        if wire < self.wires {
            Ok(())
        } else {
            Err(InterconnectError::WireOutOfRange { wire, width: self.wires })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bus_builds() {
        let bus = BusParams::dsm_bus(5).build().unwrap();
        assert_eq!(bus.wires(), 5);
        assert_eq!(bus.segments(), 8);
        assert!((bus.wire_resistance(0).unwrap() - 150.0).abs() < 1e-9);
        assert!((bus.pair_coupling(0).unwrap() - 150e-15).abs() < 1e-24);
        assert!(bus.vdd() > 0.0);
    }

    #[test]
    fn builder_overrides_apply() {
        let bus = BusParams::dsm_bus(3)
            .length_mm(10.0)
            .segments(4)
            .r_per_mm(50.0)
            .cc_per_mm(80e-15)
            .vdd(1.2)
            .build()
            .unwrap();
        assert_eq!(bus.segments(), 4);
        assert!((bus.wire_resistance(1).unwrap() - 500.0).abs() < 1e-9);
        assert!((bus.pair_coupling(1).unwrap() - 800e-15).abs() < 1e-24);
        assert!((bus.vdd() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn zero_wires_rejected() {
        let err = BusParams::dsm_bus(0).build().unwrap_err();
        assert!(matches!(err, InterconnectError::BadGeometry { .. }));
    }

    #[test]
    fn nonphysical_values_rejected() {
        assert!(BusParams::dsm_bus(2).segments(0).build().is_err());
        assert!(BusParams::dsm_bus(2).length_mm(0.0).build().is_err());
        assert!(BusParams::dsm_bus(2).r_per_mm(-1.0).build().is_err());
        assert!(BusParams::dsm_bus(2).driver_r(0.0).build().is_err());
        assert!(BusParams::dsm_bus(2).vdd(0.0).build().is_err());
        assert!(BusParams::dsm_bus(2).rise_time(0.0).build().is_err());
    }

    #[test]
    fn non_finite_values_rejected() {
        type Setter = fn(BusParams, f64) -> BusParams;
        let fields: [(&str, Setter); 10] = [
            ("length_mm", BusParams::length_mm),
            ("r_per_mm", BusParams::r_per_mm),
            ("cg_per_mm", BusParams::cg_per_mm),
            ("cc_per_mm", BusParams::cc_per_mm),
            ("l_per_mm", BusParams::l_per_mm),
            ("lm_per_mm", BusParams::lm_per_mm),
            ("driver_r", BusParams::driver_r),
            ("receiver_c", BusParams::receiver_c),
            ("vdd", BusParams::vdd),
            ("rise_time", BusParams::rise_time),
        ];
        for (name, set) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let err = set(BusParams::dsm_bus(2), bad).build().unwrap_err();
                let bad_geometry = matches!(err, InterconnectError::BadGeometry { .. });
                assert!(bad_geometry, "{name} = {bad}: {err:?}");
            }
        }
    }

    #[test]
    fn wire_bounds_checked() {
        let bus = BusParams::dsm_bus(3).build().unwrap();
        assert!(bus.wire_resistance(2).is_ok());
        assert!(matches!(
            bus.wire_resistance(3),
            Err(InterconnectError::WireOutOfRange { wire: 3, width: 3 })
        ));
        assert!(bus.pair_coupling(1).is_ok());
        assert!(bus.pair_coupling(2).is_err());
    }

    #[test]
    fn single_wire_bus_has_no_pairs() {
        let bus = BusParams::dsm_bus(1).build().unwrap();
        assert!(bus.pair_coupling(0).is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_element_sensitive() {
        let a = BusParams::dsm_bus(3).build().unwrap();
        let b = BusParams::dsm_bus(3).build().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal buses fingerprint equal");
        // Any single element change must perturb the fingerprint.
        let mut mutated = a.clone();
        mutated.r_seg[1][2] *= 1.0 + 1e-12;
        assert_ne!(a.fingerprint(), mutated.fingerprint(), "tiny R change");
        let mut mutated = a.clone();
        mutated.cc_node[0][3] += 1e-18;
        assert_ne!(a.fingerprint(), mutated.fingerprint(), "tiny Cc change");
        let wider = BusParams::dsm_bus(4).build().unwrap();
        assert_ne!(a.fingerprint(), wider.fingerprint(), "different geometry");
    }
}
