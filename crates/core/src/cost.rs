//! Area cost analysis — the machinery behind the paper's Table 7.
//!
//! The paper synthesised its cells with Synopsys and reported NAND-unit
//! areas for a 32-bit interconnect, concluding the enhanced cells are
//! "almost twice as expensive" as conventional ones. We reproduce the
//! comparison by synthesising the same cell structures (the standard
//! cell of Fig 4, the PGBSC of Fig 6 and the OBSC of Fig 9) into
//! primitive-gate netlists and costing them with the
//! [`sint_logic::area`] NAND-equivalent model.

use crate::obsc::obsc_netlist;
use crate::pgbsc::pgbsc_netlist;
use crate::session::ObservationMethod;
use crate::timing::{self, ChainGeometry};
use sint_logic::area::AreaReport;
use sint_logic::netlist::Netlist;
use sint_logic::{LogicError, NandUnits};
use sint_runtime::json::{Json, ToJson};
use std::fmt;

/// Structural netlist of the conventional boundary-scan cell (Fig 4):
/// two flip-flops and two multiplexers.
///
/// # Errors
///
/// Propagates [`LogicError`] from netlist construction.
pub fn standard_bsc_netlist() -> Result<Netlist, LogicError> {
    let mut nl = Netlist::new("standard_bsc");
    let tdi = nl.add_input("tdi");
    let pi = nl.add_input("pi");
    let shift_dr = nl.add_input("shift_dr");
    let mode = nl.add_input("mode");
    let clk = nl.add_input("tck");
    let upd = nl.add_input("update_dr");

    let ff1_d = nl.mux2("m_ff1", shift_dr, pi, tdi)?;
    let ff1_q = nl.add_net("ff1_q");
    nl.add_dff("ff1", ff1_d, clk, ff1_q)?;
    let ff2_q = nl.add_net("ff2_q");
    nl.add_dff("ff2", ff1_q, upd, ff2_q)?;
    let out = nl.mux2("m_out", mode, pi, ff2_q)?;
    nl.mark_output(out)?;
    Ok(nl)
}

/// One row of the Table 7 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Architecture label ("Conventional BSA" / "Enhanced BSA").
    pub architecture: String,
    /// Total area of the sending-side cells (NAND units).
    pub sending: NandUnits,
    /// Total area of the observing-side cells (NAND units).
    pub observing: NandUnits,
}

impl CostRow {
    /// Sending + observing.
    #[must_use]
    pub fn total(&self) -> NandUnits {
        self.sending + self.observing
    }
}

/// The full Table 7 analysis for an `n`-wire interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct CostAnalysis {
    /// Interconnect width the totals are scaled to.
    pub wires: usize,
    /// Per-cell area of the conventional cell.
    pub standard_cell: NandUnits,
    /// Per-cell area of the PGBSC.
    pub pgbsc_cell: NandUnits,
    /// Per-cell area of the OBSC (including detector stand-ins).
    pub obsc_cell: NandUnits,
    /// Conventional-architecture row (standard cells both sides).
    pub conventional: CostRow,
    /// Enhanced-architecture row (PGBSC sending, OBSC observing).
    pub enhanced: CostRow,
}

impl CostAnalysis {
    /// Synthesises all three cells and scales to an `n`-wire bus.
    ///
    /// # Errors
    ///
    /// Propagates [`LogicError`] from cell synthesis.
    pub fn for_width(wires: usize) -> Result<CostAnalysis, LogicError> {
        let std_cell = AreaReport::of(&standard_bsc_netlist()?).total();
        let pgbsc = AreaReport::of(&pgbsc_netlist()?).total();
        let obsc = AreaReport::of(&obsc_netlist()?).total();
        Ok(CostAnalysis {
            wires,
            standard_cell: std_cell,
            pgbsc_cell: pgbsc,
            obsc_cell: obsc,
            conventional: CostRow {
                architecture: "Conventional BSA".to_string(),
                sending: std_cell * wires,
                observing: std_cell * wires,
            },
            enhanced: CostRow {
                architecture: "Enhanced BSA".to_string(),
                sending: pgbsc * wires,
                observing: obsc * wires,
            },
        })
    }

    /// Enhanced / conventional total-area ratio — the paper's headline
    /// "almost twice as expensive".
    #[must_use]
    pub fn overhead_ratio(&self) -> f64 {
        self.enhanced.total().ratio_to(self.conventional.total())
    }
}

impl fmt::Display for CostAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 7: cost analysis (n = {})", self.wires)?;
        writeln!(f, "{:<18} {:>10} {:>10} {:>10}", "Architecture", "sending", "observing", "total")?;
        for row in [&self.conventional, &self.enhanced] {
            writeln!(
                f,
                "{:<18} {:>10} {:>10} {:>10}",
                row.architecture,
                row.sending.to_string(),
                row.observing.to_string(),
                row.total().to_string()
            )?;
        }
        write!(f, "overhead ratio: {:.2}x", self.overhead_ratio())
    }
}

/// Cost-model observation-method selection (ROADMAP item 3): given a
/// bus geometry, a defect prior and an optional TCK budget, pick the
/// cheapest observation method *in expectation*.
///
/// The model prices the diagnostic follow-up a coarse method risks: a
/// method-1 session that flags anything must be re-run per-pattern to
/// attribute the failure (≈ the full method-3 cost), a method-2 session
/// only re-runs the flagged half (≈ half of it, both halves with
/// probability `p²`), while method 3 pays full freight up front but
/// never re-runs:
///
/// | method | expected TCKs | worst case |
/// |--------|---------------|------------|
/// | 1 (once) | `m1 + p·m3` | `m1 + m3` |
/// | 2 (per initial value) | `m2 + p·(1+p)·m3/2` | `m2 + m3` |
/// | 3 (per pattern) | `m3` | `m3` |
///
/// so sparse-defect floors get method 1, moderate priors method 2, and
/// near-certain-defect (or tightly budgeted) buses method 3 — whose
/// *worst case* is the smallest of the three. The adaptive engine
/// ([`crate::adaptive`]) replaces the re-run with escalating read-out
/// (see [`timing::escalation_overhead_tcks`]) and only consumes the
/// planner's choice for its baseline report labelling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodPlanner {
    defect_prior: f64,
    tck_budget: Option<u64>,
}

impl MethodPlanner {
    /// A planner for buses whose trials carry a detectable defect with
    /// probability `defect_prior`.
    ///
    /// # Errors
    ///
    /// [`crate::error::CoreError::BadConfig`] unless the prior is a
    /// finite value in `[0, 1]`.
    pub fn new(defect_prior: f64) -> Result<MethodPlanner, crate::error::CoreError> {
        if !defect_prior.is_finite() || !(0.0..=1.0).contains(&defect_prior) {
            return Err(crate::error::CoreError::config(format!(
                "defect prior must be in [0, 1], got {defect_prior}"
            )));
        }
        Ok(MethodPlanner { defect_prior, tck_budget: None })
    }

    /// Caps the *worst-case* session cost: methods that could exceed
    /// the budget (diagnostic re-run included) are excluded; if none
    /// fit, the method with the smallest worst case is chosen anyway.
    #[must_use]
    pub fn tck_budget(mut self, budget: u64) -> MethodPlanner {
        self.tck_budget = Some(budget);
        self
    }

    /// The configured defect prior.
    #[must_use]
    pub fn defect_prior(&self) -> f64 {
        self.defect_prior
    }

    /// The configured worst-case budget, if any.
    #[must_use]
    pub fn budget(&self) -> Option<u64> {
        self.tck_budget
    }

    /// Expected session TCKs for `method` on geometry `g`, including
    /// the prior-weighted diagnostic re-run.
    #[must_use]
    fn expected_tcks(&self, g: ChainGeometry, method: ObservationMethod) -> f64 {
        let p = self.defect_prior;
        let base = timing::method_total_tcks(g, method) as f64;
        let rerun = timing::method_total_tcks(g, ObservationMethod::PerPattern) as f64;
        match method {
            ObservationMethod::Once => base + p * rerun,
            ObservationMethod::PerInitialValue => base + p * (1.0 + p) * rerun / 2.0,
            ObservationMethod::PerPattern => base,
        }
    }

    /// Worst-case session TCKs for `method` on geometry `g` (every
    /// coarse method may have to re-run per-pattern in full).
    #[must_use]
    fn worst_case_tcks(&self, g: ChainGeometry, method: ObservationMethod) -> u64 {
        let base = timing::method_total_tcks(g, method);
        let rerun = timing::method_total_tcks(g, ObservationMethod::PerPattern);
        match method {
            ObservationMethod::Once | ObservationMethod::PerInitialValue => base + rerun,
            ObservationMethod::PerPattern => base,
        }
    }

    /// The cheapest method in expectation whose worst case fits the
    /// budget; coarser methods win ties. With no method inside the
    /// budget, the smallest worst case wins (method 3, which never
    /// re-runs).
    #[must_use]
    pub fn choose(&self, g: ChainGeometry) -> ObservationMethod {
        const METHODS: [ObservationMethod; 3] = [
            ObservationMethod::Once,
            ObservationMethod::PerInitialValue,
            ObservationMethod::PerPattern,
        ];
        let fits = |m: ObservationMethod| match self.tck_budget {
            Some(budget) => self.worst_case_tcks(g, m) <= budget,
            None => true,
        };
        let pick = |pool: &dyn Fn(ObservationMethod) -> bool, key: &dyn Fn(ObservationMethod) -> f64| {
            let mut best: Option<(ObservationMethod, f64)> = None;
            for m in METHODS {
                if !pool(m) {
                    continue;
                }
                let k = key(m);
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((m, k));
                }
            }
            best.map(|(m, _)| m)
        };
        pick(&fits, &|m| self.expected_tcks(g, m))
            .or_else(|| pick(&|_| true, &|m| self.worst_case_tcks(g, m) as f64))
            .unwrap_or(ObservationMethod::PerPattern)
    }
}

impl ToJson for MethodPlanner {
    fn to_json(&self) -> Json {
        Json::obj([
            ("defect_prior", self.defect_prior.to_json()),
            (
                "tck_budget",
                self.tck_budget.map_or(Json::Null, |b| b.to_json()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_cell_is_two_ffs_two_muxes() {
        let nl = standard_bsc_netlist().unwrap();
        let (gates, ffs, latches) = nl.component_counts();
        assert_eq!((gates, ffs, latches), (2, 2, 0));
        let area = AreaReport::of(&nl).total();
        // 2 DFF (6.0) + 2 mux2 (2.5) = 17 NAND units.
        assert!((area.value() - 17.0).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn enhanced_cells_cost_more_than_standard() {
        let a = CostAnalysis::for_width(32).unwrap();
        assert!(a.pgbsc_cell > a.standard_cell);
        assert!(a.obsc_cell > a.standard_cell);
    }

    #[test]
    fn overhead_is_roughly_two_x() {
        // Paper §5: "the new cells are almost twice [as] expensive
        // compared to the conventional cells". Accept 1.5x–3x.
        let a = CostAnalysis::for_width(32).unwrap();
        let r = a.overhead_ratio();
        assert!(r > 1.5 && r < 3.0, "overhead ratio {r}");
    }

    #[test]
    fn totals_scale_linearly_with_width() {
        let a8 = CostAnalysis::for_width(8).unwrap();
        let a32 = CostAnalysis::for_width(32).unwrap();
        assert!(
            (a32.enhanced.total().value() - 4.0 * a8.enhanced.total().value()).abs() < 1e-9
        );
        assert!(
            (a32.conventional.total().value() - 4.0 * a8.conventional.total().value()).abs()
                < 1e-9
        );
    }

    #[test]
    fn display_renders_table() {
        let a = CostAnalysis::for_width(32).unwrap();
        let s = a.to_string();
        assert!(s.contains("Table 7"));
        assert!(s.contains("Conventional BSA"));
        assert!(s.contains("Enhanced BSA"));
        assert!(s.contains("overhead ratio"));
    }

    #[test]
    fn planner_prior_regimes_select_all_three_methods() {
        let g = ChainGeometry::new(8, 10);
        let sparse = MethodPlanner::new(0.01).unwrap();
        assert_eq!(sparse.choose(g), ObservationMethod::Once);
        let moderate = MethodPlanner::new(0.2).unwrap();
        assert_eq!(moderate.choose(g), ObservationMethod::PerInitialValue);
        let dense = MethodPlanner::new(1.0).unwrap();
        assert_eq!(dense.choose(g), ObservationMethod::PerPattern);
        // Choices are monotone in granularity as the prior climbs.
        let mut last = 0u8;
        for p in [0.0, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0] {
            let m = MethodPlanner::new(p).unwrap().choose(g);
            let rank = match m {
                ObservationMethod::Once => 0,
                ObservationMethod::PerInitialValue => 1,
                ObservationMethod::PerPattern => 2,
            };
            assert!(rank >= last, "granularity regressed at p={p}");
            last = rank;
        }
    }

    #[test]
    fn planner_budget_excludes_rerun_risk() {
        let g = ChainGeometry::new(8, 10);
        let m3 = timing::method_total_tcks(g, ObservationMethod::PerPattern);
        // A budget below every coarse method's worst case (base + full
        // re-run) forces method 3 even at a sparse prior: its worst
        // case is the smallest of the three.
        let tight = MethodPlanner::new(0.01).unwrap().tck_budget(m3);
        assert_eq!(tight.choose(g), ObservationMethod::PerPattern);
        // An impossible budget still returns the best-effort minimum
        // worst case rather than failing.
        let impossible = MethodPlanner::new(0.5).unwrap().tck_budget(1);
        assert_eq!(impossible.choose(g), ObservationMethod::PerPattern);
        // A generous budget changes nothing.
        let loose = MethodPlanner::new(0.01).unwrap().tck_budget(u64::MAX);
        assert_eq!(loose.choose(g), ObservationMethod::Once);
    }

    #[test]
    fn planner_validates_prior_and_serialises() {
        assert!(MethodPlanner::new(-0.1).is_err());
        assert!(MethodPlanner::new(1.1).is_err());
        assert!(MethodPlanner::new(f64::NAN).is_err());
        let p = MethodPlanner::new(0.25).unwrap().tck_budget(1000);
        assert_eq!(p.defect_prior(), 0.25);
        assert_eq!(p.budget(), Some(1000));
        let j = p.to_json().render();
        assert!(j.contains(r#""defect_prior":0.25"#), "{j}");
        assert!(j.contains(r#""tck_budget":1000"#), "{j}");
        let none = MethodPlanner::new(0.5).unwrap().to_json().render();
        assert!(none.contains(r#""tck_budget":null"#), "{none}");
    }
}
