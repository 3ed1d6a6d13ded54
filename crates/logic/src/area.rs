//! NAND-equivalent area model (the basis of the paper's Table 7).
//!
//! The paper reports cell cost in "Nand" units as produced by Synopsys
//! Design Analyzer. We reproduce the metric with the classic
//! transistor-count approximation used in DFT literature: a 2-input static
//! CMOS NAND is 4 transistors and defines **1.0 NAND unit**; every other
//! primitive is costed by its transistor count divided by 4.
//!
//! | primitive | transistors | NAND units |
//! |-----------|-------------|------------|
//! | NOT       | 2           | 0.5        |
//! | BUF       | 4           | 1.0        |
//! | NAND-n / NOR-n | 2n     | n/2        |
//! | AND-n / OR-n   | 2n + 2 | n/2 + 0.5  |
//! | XOR / XNOR     | 10     | 2.5        |
//! | MUX2 (TG + output buffer) | 10 | 2.5 |
//! | DFF (master–slave)        | 24 | 6.0 |
//! | level latch               | 12 | 3.0 |

use crate::netlist::{Component, Netlist, Primitive};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// An area measured in 2-input-NAND equivalents.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct NandUnits(pub f64);

impl NandUnits {
    /// Zero area.
    pub const ZERO: NandUnits = NandUnits(0.0);

    /// The raw unit count.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Ratio of this area to another (e.g. enhanced / conventional).
    ///
    /// Returns `f64::INFINITY` when `other` is zero.
    #[must_use]
    pub fn ratio_to(self, other: NandUnits) -> f64 {
        if other.0 == 0.0 {
            f64::INFINITY
        } else {
            self.0 / other.0
        }
    }
}

impl Add for NandUnits {
    type Output = NandUnits;
    fn add(self, rhs: NandUnits) -> NandUnits {
        NandUnits(self.0 + rhs.0)
    }
}

impl AddAssign for NandUnits {
    fn add_assign(&mut self, rhs: NandUnits) {
        self.0 += rhs.0;
    }
}

impl Mul<usize> for NandUnits {
    type Output = NandUnits;
    fn mul(self, rhs: usize) -> NandUnits {
        NandUnits(self.0 * rhs as f64)
    }
}

impl Sum for NandUnits {
    fn sum<I: Iterator<Item = NandUnits>>(iter: I) -> NandUnits {
        iter.fold(NandUnits::ZERO, Add::add)
    }
}

impl fmt::Display for NandUnits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}", self.0)
    }
}

/// Transistor count for a primitive with `n_inputs` inputs.
#[must_use]
fn transistor_count(prim: Primitive, n_inputs: usize) -> usize {
    match prim {
        Primitive::Not => 2,
        Primitive::Buf => 4,
        Primitive::Nand | Primitive::Nor => 2 * n_inputs,
        Primitive::And | Primitive::Or => 2 * n_inputs + 2,
        Primitive::Xor | Primitive::Xnor => 10,
        Primitive::Mux2 => 10,
    }
}

/// NAND-unit area of a primitive with `n_inputs` inputs.
#[must_use]
fn gate_area(prim: Primitive, n_inputs: usize) -> NandUnits {
    NandUnits(transistor_count(prim, n_inputs) as f64 / 4.0)
}

/// NAND-unit area of a master–slave D flip-flop.
#[must_use]
fn dff_area() -> NandUnits {
    NandUnits(6.0)
}

/// NAND-unit area of a level-sensitive latch.
#[must_use]
fn latch_area() -> NandUnits {
    NandUnits(3.0)
}

/// Area breakdown of a netlist.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AreaReport {
    /// Design name the report was computed for.
    pub design: String,
    /// Combinational gate area.
    pub combinational: NandUnits,
    /// Flip-flop area.
    pub sequential: NandUnits,
    /// Latch area.
    pub latches: NandUnits,
    /// Number of combinational gates.
    pub gate_count: usize,
    /// Number of flip-flops.
    pub ff_count: usize,
    /// Number of latches.
    pub latch_count: usize,
}

impl AreaReport {
    /// Computes the report for a netlist.
    #[must_use]
    pub fn of(netlist: &Netlist) -> AreaReport {
        let mut r = AreaReport { design: netlist.name().to_string(), ..AreaReport::default() };
        for comp in netlist.components() {
            match comp {
                Component::Gate { prim, inputs, .. } => {
                    r.combinational += gate_area(*prim, inputs.len());
                    r.gate_count += 1;
                }
                Component::Dff { .. } => {
                    r.sequential += dff_area();
                    r.ff_count += 1;
                }
                Component::Latch { .. } => {
                    r.latches += latch_area();
                    r.latch_count += 1;
                }
            }
        }
        r
    }

    /// Total area in NAND units.
    #[must_use]
    pub fn total(&self) -> NandUnits {
        self.combinational + self.sequential + self.latches
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "area report for {:?}", self.design)?;
        writeln!(f, "  gates  : {:>4}  ({} NAND)", self.gate_count, self.combinational)?;
        writeln!(f, "  dffs   : {:>4}  ({} NAND)", self.ff_count, self.sequential)?;
        writeln!(f, "  latches: {:>4}  ({} NAND)", self.latch_count, self.latches)?;
        write!(f, "  total  : {} NAND", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    #[test]
    fn nand2_is_the_unit() {
        assert_eq!(gate_area(Primitive::Nand, 2), NandUnits(1.0));
    }

    #[test]
    fn primitive_costs_match_table() {
        assert_eq!(gate_area(Primitive::Not, 1), NandUnits(0.5));
        assert_eq!(gate_area(Primitive::Buf, 1), NandUnits(1.0));
        assert_eq!(gate_area(Primitive::Nor, 3), NandUnits(1.5));
        assert_eq!(gate_area(Primitive::And, 2), NandUnits(1.5));
        assert_eq!(gate_area(Primitive::Or, 4), NandUnits(2.5));
        assert_eq!(gate_area(Primitive::Xor, 2), NandUnits(2.5));
        assert_eq!(gate_area(Primitive::Mux2, 3), NandUnits(2.5));
        assert_eq!(dff_area(), NandUnits(6.0));
        assert_eq!(latch_area(), NandUnits(3.0));
    }

    #[test]
    fn report_totals_add_up() {
        let mut nl = Netlist::new("cell");
        let a = nl.add_input("a");
        let clk = nl.add_input("clk");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_gate("g", Primitive::Nand, &[a, a], y).unwrap();
        nl.add_dff("ff", y, clk, q).unwrap();
        let r = AreaReport::of(&nl);
        assert_eq!(r.gate_count, 1);
        assert_eq!(r.ff_count, 1);
        assert_eq!(r.total(), NandUnits(7.0));
        let text = r.to_string();
        assert!(text.contains("total"), "display shows total: {text}");
    }

    #[test]
    fn arithmetic_and_ratio() {
        let a = NandUnits(3.0) + NandUnits(1.5);
        assert_eq!(a, NandUnits(4.5));
        assert_eq!(NandUnits(2.0) * 3, NandUnits(6.0));
        assert!((NandUnits(9.0).ratio_to(NandUnits(4.5)) - 2.0).abs() < 1e-12);
        assert!(NandUnits(1.0).ratio_to(NandUnits::ZERO).is_infinite());
        let total: NandUnits = [NandUnits(1.0), NandUnits(2.0)].into_iter().sum();
        assert_eq!(total, NandUnits(3.0));
    }

    #[test]
    fn display_formats_one_decimal() {
        assert_eq!(NandUnits(2.5).to_string(), "2.5");
        assert_eq!(NandUnits(7.0).to_string(), "7.0");
    }
}
