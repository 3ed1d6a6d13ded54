//! Closed-form TCK accounting — the analytical side of Tables 5 and 6.
//!
//! Every formula here mirrors one concrete sequence of
//! [`sint_jtag::JtagDriver`] operations; integration tests assert that
//! the driver's *measured* TCK counter equals these expressions exactly,
//! so the tables are simultaneously computed and measured.
//!
//! Cost primitives for this driver (4-bit IR):
//!
//! | operation | TCKs |
//! |-----------|------|
//! | reset to Run-Test/Idle | 6 |
//! | IR scan (load instruction) | 4 + 6 = 10 |
//! | DR scan of `L` bits | `L` + 5 |
//! | one Update-DR pulse (no shifting) | 5 |
//!
//! The boundary chain of the paper's Fig 11 SoC has `L = 2n + m` cells:
//! `n` PGBSCs, `n` OBSCs and `m` other (standard) cells.

use crate::session::ObservationMethod;
use sint_runtime::json::{Json, ToJson};

/// TCKs for one IR scan with the 4-bit IR.
pub const IR_SCAN_TCKS: u64 = 10;
/// Fixed TCK overhead of a DR scan beyond its bit count.
pub const DR_SCAN_OVERHEAD: u64 = 5;
/// TCKs for one shift-free Update-DR pulse.
pub const UPDATE_PULSE_TCKS: u64 = 5;
/// TCKs for the initial reset into Run-Test/Idle.
pub const RESET_TCKS: u64 = 6;

/// Scan-chain geometry of the SoC under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChainGeometry {
    /// Interconnect width `n` (PGBSC and OBSC count each).
    pub wires: usize,
    /// Other boundary cells `m` sharing the chain.
    pub extra_cells: usize,
}

impl ChainGeometry {
    /// Geometry with `wires` interconnects and `extra_cells` bystanders.
    #[must_use]
    pub fn new(wires: usize, extra_cells: usize) -> Self {
        ChainGeometry { wires, extra_cells }
    }

    /// Total boundary-register length `L = 2n + m`.
    #[must_use]
    pub fn chain_len(&self) -> u64 {
        2 * self.wires as u64 + self.extra_cells as u64
    }

    /// TCKs for a full DR scan across this chain.
    #[must_use]
    fn dr_scan_tcks(&self) -> u64 {
        self.chain_len() + DR_SCAN_OVERHEAD
    }
}

impl ToJson for ChainGeometry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("wires", self.wires.to_json()),
            ("extra_cells", self.extra_cells.to_json()),
            ("chain_len", self.chain_len().to_json()),
        ])
    }
}

/// Table 5, row "Conventional": every MA vector scanned in explicitly.
///
/// One EXTEST load, then `12` full-chain scans per victim for `n`
/// victims: `10 + 12·n·(L + 5)` — quadratic in `n` because `L` itself
/// grows with `n`.
#[must_use]
pub fn conventional_generation_tcks(g: ChainGeometry) -> u64 {
    IR_SCAN_TCKS + 12 * g.wires as u64 * g.dr_scan_tcks()
}

/// Table 5, row "PGBSC": on-chip generation. Per initial value:
/// SAMPLE/PRELOAD load + initial-value scan + G-SITEST load +
/// victim-select scan (whose trailing Update-DR fires pattern 1) + two
/// pulses, then per remaining victim a 1-bit rotation scan (pattern 1)
/// plus two pulses.
///
/// `2·[ 10 + (L+5) + 10 + (L+5) + 2·5 + (n−1)·(6 + 2·5) ]` — linear in
/// `n`.
#[must_use]
pub fn pgbsc_generation_tcks(g: ChainGeometry) -> u64 {
    2 * pgbsc_half_generation_tcks(g)
}

/// Generation TCKs for **one** initial-value half of the PGBSC session
/// (half of [`pgbsc_generation_tcks`]). The adaptive engine prices
/// halves separately because fault dropping can truncate or skip a half
/// outright.
#[must_use]
fn pgbsc_half_generation_tcks(g: ChainGeometry) -> u64 {
    IR_SCAN_TCKS                            // SAMPLE/PRELOAD
        + g.dr_scan_tcks()                  // initial value
        + IR_SCAN_TCKS                      // G-SITEST
        + g.dr_scan_tcks()                  // victim select (pattern 1)
        + 2 * UPDATE_PULSE_TCKS             // patterns 2, 3
        + (g.wires as u64 - 1) * (1 + DR_SCAN_OVERHEAD + 2 * UPDATE_PULSE_TCKS)
}

/// Table 5, row "T%": relative improvement of PGBSC over conventional.
#[must_use]
pub fn improvement_percent(g: ChainGeometry) -> f64 {
    let conv = conventional_generation_tcks(g) as f64;
    let pg = pgbsc_generation_tcks(g) as f64;
    (conv - pg) / conv * 100.0
}

/// TCKs for one complete O-SITEST read-out: IR load plus two full DR
/// scans (ND flip-flops, then SD flip-flops).
#[must_use]
pub fn readout_tcks(g: ChainGeometry) -> u64 {
    IR_SCAN_TCKS + 2 * g.dr_scan_tcks()
}

/// Number of read-out events each observation method performs on an
/// `n`-wire bus (2 initial values × `n` victims × 3 patterns).
#[must_use]
pub fn readout_count(method: ObservationMethod, wires: usize) -> u64 {
    match method {
        ObservationMethod::Once => 1,
        ObservationMethod::PerInitialValue => 2,
        ObservationMethod::PerPattern => 6 * wires as u64,
    }
}

/// Number of *resumes* a method needs: after a read-out that happens in
/// the middle of an initial-value half, the victim-select word (clobbered
/// by the scan-out) must be restored with one DR scan and `G-SITEST`
/// reloaded. Read-outs at the end of a half need no resume because the
/// next half re-preloads everything.
///
/// Only method 3 reads mid-half: `3n` read-outs per half of which the
/// last needs no resume → `2·(3n − 1) = 6n − 2`.
#[must_use]
pub fn resume_count(method: ObservationMethod, wires: usize) -> u64 {
    match method {
        ObservationMethod::Once | ObservationMethod::PerInitialValue => 0,
        ObservationMethod::PerPattern => (6 * wires as u64).saturating_sub(2),
    }
}

/// TCKs for one resume: restore the victim-select word + reload
/// `G-SITEST`.
#[must_use]
pub fn resume_tcks(g: ChainGeometry) -> u64 {
    g.dr_scan_tcks() + IR_SCAN_TCKS
}

/// Table 6: total session TCKs for a method — PGBSC generation plus the
/// method's read-outs plus the resumes needed after mid-half read-outs.
#[must_use]
pub fn method_total_tcks(g: ChainGeometry, method: ObservationMethod) -> u64 {
    let readouts = readout_count(method, g.wires);
    let resumes = resume_count(method, g.wires);
    pgbsc_generation_tcks(g) + readouts * readout_tcks(g) + resumes * resume_tcks(g)
}

/// Estimated extra TCKs the escalating read-out pays to localize the
/// failures of **one** flagged half (see [`crate::adaptive`]): a binary
/// search over the half's `3n` pattern positions costs about
/// `log2(3n)` extra half re-runs, each with one probe (read-out +
/// resume). This is a *planning* estimate for [`crate::cost`], not an
/// exact count — actual cost depends on how the failures cluster.
#[must_use]
pub fn escalation_overhead_tcks(g: ChainGeometry) -> u64 {
    let positions = 3 * g.wires as u64;
    let passes = 64 - positions.max(1).leading_zeros() as u64; // ceil(log2)+1 scale
    passes * (pgbsc_half_generation_tcks(g) + readout_tcks(g) + resume_tcks(g))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_len_is_2n_plus_m() {
        let g = ChainGeometry::new(8, 10);
        assert_eq!(g.chain_len(), 26);
        assert_eq!(g.dr_scan_tcks(), 31);
    }

    #[test]
    fn conventional_is_quadratic_in_n() {
        let m = 10;
        let t8 = conventional_generation_tcks(ChainGeometry::new(8, m));
        let t16 = conventional_generation_tcks(ChainGeometry::new(16, m));
        let t32 = conventional_generation_tcks(ChainGeometry::new(32, m));
        // Doubling n should roughly quadruple the dominant 24n² term.
        assert!(t16 as f64 / t8 as f64 > 2.5);
        assert!(t32 as f64 / t16 as f64 > 3.0);
        assert_eq!(t8, 10 + 12 * 8 * (2 * 8 + 10 + 5));
    }

    #[test]
    fn pgbsc_is_linear_in_n() {
        let m = 10;
        let t8 = pgbsc_generation_tcks(ChainGeometry::new(8, m));
        let t16 = pgbsc_generation_tcks(ChainGeometry::new(16, m));
        let t32 = pgbsc_generation_tcks(ChainGeometry::new(32, m));
        // Differences of a linear function are constant.
        assert_eq!(t32 - t16, 2 * (t16 - t8));
    }

    #[test]
    fn improvement_grows_with_n_toward_100_percent() {
        // Paper §5: "compared to conventional scan our method is more
        // efficient for large number of interconnects".
        let m = 10;
        let p8 = improvement_percent(ChainGeometry::new(8, m));
        let p16 = improvement_percent(ChainGeometry::new(16, m));
        let p32 = improvement_percent(ChainGeometry::new(32, m));
        assert!(p8 < p16 && p16 < p32, "{p8} {p16} {p32}");
        assert!(p32 > 80.0, "large buses see order-of-magnitude savings: {p32}");
        assert!(p8 > 50.0);
    }

    #[test]
    fn method_ordering_matches_table6() {
        // Method 1 < Method 2 ≪ Method 3.
        for n in [8usize, 16, 32] {
            let g = ChainGeometry::new(n, 10);
            let m1 = method_total_tcks(g, ObservationMethod::Once);
            let m2 = method_total_tcks(g, ObservationMethod::PerInitialValue);
            let m3 = method_total_tcks(g, ObservationMethod::PerPattern);
            assert!(m1 < m2, "n={n}");
            assert!(m2 < m3, "n={n}");
            assert!(m3 as f64 / m1 as f64 > 3.0, "method 3 is far slower: n={n}");
        }
    }

    #[test]
    fn readout_counts() {
        assert_eq!(readout_count(ObservationMethod::Once, 8), 1);
        assert_eq!(readout_count(ObservationMethod::PerInitialValue, 8), 2);
        assert_eq!(readout_count(ObservationMethod::PerPattern, 8), 48);
    }

    #[test]
    fn readout_cost_formula() {
        let g = ChainGeometry::new(5, 0);
        assert_eq!(readout_tcks(g), 10 + 2 * (10 + 5));
    }

    #[test]
    fn half_generation_is_exactly_half() {
        for n in [2usize, 8, 16, 32] {
            let g = ChainGeometry::new(n, 7);
            assert_eq!(2 * pgbsc_half_generation_tcks(g), pgbsc_generation_tcks(g));
        }
    }

    #[test]
    fn escalation_estimate_is_logarithmic_not_linear() {
        // The whole point of escalation: localizing costs ~log2(3n)
        // half re-runs, far below method 3's 6n per-pattern read-outs.
        for n in [8usize, 16, 32, 64] {
            let g = ChainGeometry::new(n, 10);
            let esc = escalation_overhead_tcks(g);
            let m1 = method_total_tcks(g, ObservationMethod::Once);
            let m3 = method_total_tcks(g, ObservationMethod::PerPattern);
            assert!(esc > 0, "n={n}");
            assert!(m1 + 2 * esc < m3, "escalating both halves beats method 3: n={n}");
        }
    }
}
