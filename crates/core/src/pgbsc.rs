//! The pattern-generation boundary-scan cell (PGBSC) — §3.1, Fig 6.
//!
//! A PGBSC replaces the standard cell on each *output* pin of the core
//! driving the interconnect under test. It has three flip-flops:
//!
//! * **FF1** — the ordinary shift-stage, which in signal-integrity mode
//!   holds the cell's bit of the one-hot *victim-select* word (Table 2);
//! * **FF2** — the update/output stage, which in SI mode complements
//!   itself to generate test patterns;
//! * **FF3** — a divide-by-two stage so that a *victim* cell toggles at
//!   half the frequency of an *aggressor* cell (Fig 7).
//!
//! Operating modes (Table 1):
//!
//! | SI | Q1 (FF1) | mode |
//! |----|----------|------------|
//! | 1  | 1        | Victim: FF2 toggles every 2nd Update-DR |
//! | 1  | 0        | Aggressor: FF2 toggles every Update-DR |
//! | 0  | x        | Normal: standard BSC behaviour |
//!
//! Only one extra control signal (SI) reaches the cell; it is decoded
//! from the `G-SITEST` instruction (§4.1).

use sint_jtag::bcell::{BoundaryCell, CellControl};
use sint_logic::netlist::{NetId, Netlist};
use sint_logic::{LogicError, Logic};

/// Behavioural PGBSC implementing [`BoundaryCell`].
///
/// ```
/// use sint_core::pgbsc::Pgbsc;
/// use sint_jtag::bcell::{BoundaryCell, CellControl};
/// use sint_logic::Logic;
///
/// let mut cell = Pgbsc::new();
/// let si = CellControl { si: true, ce: true, mode: true, ..CellControl::default() };
/// // Preload FF2 = 0 and make this cell an aggressor (FF1 = 0).
/// cell.preload(Logic::Zero);
/// cell.shift(Logic::Zero, &si);
/// cell.update(&si);
/// assert_eq!(cell.output(&si), Logic::One, "aggressor toggles every update");
/// cell.update(&si);
/// assert_eq!(cell.output(&si), Logic::Zero);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pgbsc {
    ff1: Logic,
    ff2: Logic,
    ff3: Logic,
    pi: Logic,
}

impl Pgbsc {
    /// A fresh cell with undefined storage except the divider, which
    /// powers up cleared so a victim's first toggle lands on the second
    /// Update-DR (matching [`crate::mafm::pgbsc_vector`]).
    #[must_use]
    pub fn new() -> Self {
        Pgbsc { ff1: Logic::X, ff2: Logic::X, ff3: Logic::Zero, pi: Logic::X }
    }

    /// Test-bench backdoor: force the update stage (used by unit tests
    /// and by the session preload shortcut; hardware reaches the same
    /// state via SAMPLE/PRELOAD + Update-DR).
    pub fn preload(&mut self, value: Logic) {
        self.ff2 = value;
        self.ff3 = Logic::Zero;
    }

    /// Whether the cell is in victim mode under the given control.
    #[must_use]
    pub fn is_victim(&self, ctrl: &CellControl) -> bool {
        ctrl.si && self.ff1 == Logic::One
    }
}

impl Default for Pgbsc {
    fn default() -> Self {
        Pgbsc::new()
    }
}

impl BoundaryCell for Pgbsc {
    /// Capture-DR. In SI mode the shift stage holds victim-select data
    /// that must survive the Update-DR pulse train, so capture is
    /// suppressed; in normal mode the cell behaves like a standard BSC.
    fn capture(&mut self, ctrl: &CellControl) {
        if !ctrl.si {
            self.ff1 = self.pi;
        }
    }

    fn shift(&mut self, tdi: Logic, _ctrl: &CellControl) -> Logic {
        let out = self.ff1;
        self.ff1 = tdi;
        out
    }

    /// Update-DR: the heart of on-chip pattern generation.
    ///
    /// Two small decode decisions beyond the paper's figure, both
    /// documented in DESIGN.md:
    ///
    /// * the pattern clock is gated by **CE** so that `O-SITEST`
    ///   (SI = 1, CE = 0) scan-outs leave the generator state intact and
    ///   sessions can resume after mid-test read-outs;
    /// * the FF3 divider is synchronously cleared by every non-victim
    ///   update, so a wire that was victim earlier re-enters victim mode
    ///   phase-aligned (its first toggle again lands on the second
    ///   Update-DR).
    fn update(&mut self, ctrl: &CellControl) {
        if !ctrl.si {
            self.ff2 = self.ff1;
            self.ff3 = Logic::Zero;
            return;
        }
        if !ctrl.ce {
            // O-SITEST read-out in progress: hold the generator.
            return;
        }
        match self.ff1 {
            Logic::One => {
                // Victim: FF3 divides Update-DR by two; FF2 toggles when
                // the divider wraps (every second update).
                self.ff3 = !self.ff3;
                if self.ff3 == Logic::Zero {
                    self.ff2 = !self.ff2;
                }
            }
            _ => {
                // Aggressor (FF1 = 0, and conservatively X/Z too):
                // FF2 toggles every update; the divider stays cleared.
                self.ff2 = !self.ff2;
                self.ff3 = Logic::Zero;
            }
        }
    }

    fn set_parallel_input(&mut self, value: Logic) {
        self.pi = value;
    }

    /// In SI *or* EXTEST-style mode the pattern stage drives the
    /// interconnect; in normal operation the core output passes through
    /// (the paper: "the additional logic … is solely on the test path").
    fn output(&self, ctrl: &CellControl) -> Logic {
        if ctrl.si || ctrl.mode {
            self.ff2
        } else {
            self.pi
        }
    }

    fn scan_bit(&self) -> Logic {
        self.ff1
    }

    fn reset(&mut self) {
        self.ff1 = Logic::X;
        self.ff2 = Logic::X;
        self.ff3 = Logic::Zero;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Structural gate-level netlist of the PGBSC (Fig 6), used for the
/// Table 7 area analysis and as an independent reference implementation
/// (the `pattern_equivalence` integration test drives it against the
/// behavioural cell).
///
/// Synchronous storage: FF1 (shift, clocked by TCK), FF2 (pattern,
/// clocked by Update-DR), FF3 (divider, clocked by Update-DR). The CE
/// and SI gating that the behavioural model applies to `update` is
/// realised on the D-paths (equivalent to clock gating, but expressible
/// with plain primary-input clocks):
///
/// * `ff1.d = shift_dr ? tdi : (si ? ff1.q : core_out)` — capture
///   suppressed in SI mode so victim-select data survives Capture-DR;
/// * `ff3.d = hold ? ff3.q : (si ∧ ff1.q ∧ ¬ff3.q)` — the divider
///   toggles only for a victim and clears on any other update;
/// * `ff2.d = hold ? ff2.q : (si ? si_path : ff1.q)` with
///   `si_path = ff1.q ? (ff3.q ? ¬ff2.q : ff2.q) : ¬ff2.q` — victim
///   toggles on divider wrap, aggressor every update;
/// * `hold = si ∧ ¬ce` — O-SITEST read-outs freeze the generator.
///
/// # Errors
///
/// Propagates [`LogicError`] from netlist construction (none occur for
/// this fixed topology in practice).
pub fn pgbsc_netlist() -> Result<Netlist, LogicError> {
    let mut nl = Netlist::new("pgbsc");
    let tdi = nl.add_input("tdi");
    let pi = nl.add_input("core_out");
    let shared = PgbscSharedNets::add_to(&mut nl);
    let cell = build_pgbsc_into(&mut nl, "", tdi, pi, &shared)?;
    nl.mark_output(cell.out)?;
    Ok(nl)
}

/// The control/clock nets one PGBSC array shares across all its cells.
#[derive(Debug, Clone, Copy)]
struct PgbscSharedNets {
    /// Shift-DR control.
    shift_dr: NetId,
    /// Signal-integrity mode (SI).
    si: NetId,
    /// Detector/generator enable (CE).
    ce: NetId,
    /// EXTEST-style mode select.
    mode: NetId,
    /// TCK (shift clock).
    tck: NetId,
    /// Update-DR (pattern clock).
    update_dr: NetId,
}

impl PgbscSharedNets {
    /// Declares the shared nets as primary inputs of `nl`.
    fn add_to(nl: &mut Netlist) -> PgbscSharedNets {
        PgbscSharedNets {
            shift_dr: nl.add_input("shift_dr"),
            si: nl.add_input("si"),
            ce: nl.add_input("ce"),
            mode: nl.add_input("mode"),
            tck: nl.add_input("tck"),
            update_dr: nl.add_input("update_dr"),
        }
    }
}

/// The per-cell nets a structural PGBSC exposes.
#[derive(Debug, Clone, Copy)]
pub struct PgbscCellNets {
    /// Shift-stage output (feeds the next cell's TDI).
    pub ff1_q: NetId,
    /// Pattern-stage output.
    pub ff2_q: NetId,
    /// Divider output.
    pub ff3_q: NetId,
    /// The pin/interconnect output.
    pub out: NetId,
}

/// Instantiates one structural PGBSC into an existing netlist; `prefix`
/// disambiguates instance names so arrays can be built (see
/// [`pgbsc_array_netlist`]).
///
/// # Errors
///
/// Propagates [`LogicError`] from netlist construction.
fn build_pgbsc_into(
    nl: &mut Netlist,
    prefix: &str,
    tdi: NetId,
    pi: NetId,
    shared: &PgbscSharedNets,
) -> Result<PgbscCellNets, LogicError> {
    use sint_logic::netlist::Primitive;
    let n = |base: &str| format!("{prefix}{base}");

    // hold = si AND (NOT ce): generator frozen during O-SITEST.
    let ce_n = nl.inv(&n("i_ce"), shared.ce)?;
    let hold = nl.add_net(n("hold"));
    nl.add_gate(n("a_hold"), Primitive::And, &[shared.si, ce_n], hold)?;

    // FF1: shift stage with SI capture-suppression.
    let ff1_q = nl.add_net(n("ff1_q"));
    let cap = nl.mux2(&n("m_cap"), shared.si, pi, ff1_q)?;
    let ff1_d = nl.mux2(&n("m_ff1"), shared.shift_dr, cap, tdi)?;
    nl.add_dff(n("ff1"), ff1_d, shared.tck, ff1_q)?;

    // FF3: victim-gated divide-by-two, cleared by non-victim updates.
    let ff3_q = nl.add_net(n("ff3_q"));
    let ff3_n = nl.inv(&n("i_ff3"), ff3_q)?;
    let ff3_next = nl.add_net(n("ff3_next"));
    nl.add_gate(n("a_div"), Primitive::And, &[shared.si, ff1_q, ff3_n], ff3_next)?;
    let ff3_d = nl.mux2(&n("m_ff3hold"), hold, ff3_next, ff3_q)?;
    nl.add_dff(n("ff3"), ff3_d, shared.update_dr, ff3_q)?;

    // FF2: the pattern stage.
    let ff2_q = nl.add_net(n("ff2_q"));
    let ff2_n = nl.inv(&n("i_fb"), ff2_q)?;
    let vic_next = nl.mux2(&n("m_vic"), ff3_q, ff2_q, ff2_n)?;
    let si_path = nl.mux2(&n("m_role"), ff1_q, ff2_n, vic_next)?;
    let ff2_pre = nl.mux2(&n("m_si"), shared.si, ff1_q, si_path)?;
    let ff2_d = nl.mux2(&n("m_ff2hold"), hold, ff2_pre, ff2_q)?;
    nl.add_dff(n("ff2"), ff2_d, shared.update_dr, ff2_q)?;

    // Output mux: (si OR mode) selects FF2, else the core output.
    let test = nl.add_net(n("test_en"));
    nl.add_gate(n("or_mode"), Primitive::Or, &[shared.si, shared.mode], test)?;
    let out = nl.mux2(&n("m_out"), test, pi, ff2_q)?;
    Ok(PgbscCellNets { ff1_q, ff2_q, ff3_q, out })
}

/// A full structural PGBSC array: `wires` cells sharing the control
/// nets, serially chained TDI→TDO exactly like a boundary register.
/// Returns the netlist, the chain's TDI net and the per-cell nets
/// (cell 0 nearest TDI).
///
/// # Errors
///
/// Propagates [`LogicError`] from netlist construction.
pub fn pgbsc_array_netlist(
    wires: usize,
) -> Result<(Netlist, NetId, Vec<PgbscCellNets>), LogicError> {
    let mut nl = Netlist::new(format!("pgbsc_array_{wires}"));
    let tdi = nl.add_input("tdi");
    let shared = PgbscSharedNets::add_to(&mut nl);
    let mut cells = Vec::with_capacity(wires);
    let mut chain = tdi;
    for i in 0..wires {
        let pi = nl.add_input(format!("core_out{i}"));
        let cell = build_pgbsc_into(&mut nl, &format!("c{i}_"), chain, pi, &shared)?;
        nl.mark_output(cell.out)?;
        chain = cell.ff1_q;
        cells.push(cell);
    }
    Ok((nl, tdi, cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mafm::pgbsc_vector;
    use sint_interconnect::drive::DriveLevel;

    fn si_ctrl() -> CellControl {
        CellControl { si: true, mode: true, ce: true, ..CellControl::default() }
    }

    fn norm_ctrl() -> CellControl {
        CellControl::default()
    }

    fn level(l: Logic) -> DriveLevel {
        DriveLevel::from(l == Logic::One)
    }

    #[test]
    fn normal_mode_behaves_like_standard_bsc() {
        let mut c = Pgbsc::new();
        let ctrl = norm_ctrl();
        c.set_parallel_input(Logic::One);
        assert_eq!(c.output(&ctrl), Logic::One, "transparent in normal mode");
        c.capture(&ctrl);
        assert_eq!(c.scan_bit(), Logic::One);
        c.shift(Logic::Zero, &ctrl);
        c.update(&ctrl);
        let test = CellControl { mode: true, ..norm_ctrl() };
        assert_eq!(c.output(&test), Logic::Zero);
    }

    #[test]
    fn aggressor_toggles_every_update() {
        let mut c = Pgbsc::new();
        c.preload(Logic::Zero);
        c.shift(Logic::Zero, &si_ctrl()); // FF1 = 0 → aggressor
        let ctrl = si_ctrl();
        let mut seen = Vec::new();
        for _ in 0..4 {
            c.update(&ctrl);
            seen.push(c.output(&ctrl));
        }
        assert_eq!(seen, vec![Logic::One, Logic::Zero, Logic::One, Logic::Zero]);
    }

    #[test]
    fn victim_toggles_every_second_update() {
        let mut c = Pgbsc::new();
        c.preload(Logic::Zero);
        c.shift(Logic::One, &si_ctrl()); // FF1 = 1 → victim
        let ctrl = si_ctrl();
        let mut seen = Vec::new();
        for _ in 0..4 {
            c.update(&ctrl);
            seen.push(c.output(&ctrl));
        }
        assert_eq!(seen, vec![Logic::Zero, Logic::One, Logic::One, Logic::Zero]);
    }

    #[test]
    fn cell_array_reproduces_mafm_schedule() {
        // 5 cells, victim = 2, initial 0: outputs after each update must
        // equal mafm::pgbsc_vector exactly (the two implementations are
        // developed independently — this is the cross-check DESIGN.md
        // calls out).
        let ctrl = si_ctrl();
        for initial in [Logic::Zero, Logic::One] {
            let mut cells: Vec<Pgbsc> = (0..5)
                .map(|i| {
                    let mut c = Pgbsc::new();
                    c.preload(initial);
                    c.shift(if i == 2 { Logic::One } else { Logic::Zero }, &ctrl);
                    c
                })
                .collect();
            for updates in 1..=3 {
                for c in &mut cells {
                    c.update(&ctrl);
                }
                let got: Vec<DriveLevel> =
                    cells.iter().map(|c| level(c.output(&ctrl))).collect();
                let expect = pgbsc_vector(5, 2, level(initial), updates);
                assert_eq!(got, expect, "initial {initial} update {updates}");
            }
        }
    }

    #[test]
    fn capture_suppressed_in_si_mode() {
        let mut c = Pgbsc::new();
        c.preload(Logic::Zero);
        c.shift(Logic::One, &si_ctrl()); // victim select = 1
        c.set_parallel_input(Logic::Zero);
        c.capture(&si_ctrl());
        assert_eq!(c.scan_bit(), Logic::One, "victim select survives Capture-DR");
        c.capture(&norm_ctrl());
        assert_eq!(c.scan_bit(), Logic::Zero, "normal capture still works");
    }

    #[test]
    fn si_output_ignores_core() {
        let mut c = Pgbsc::new();
        c.preload(Logic::One);
        c.set_parallel_input(Logic::Zero);
        assert_eq!(c.output(&si_ctrl()), Logic::One);
    }

    #[test]
    fn reset_clears_to_power_on() {
        let mut c = Pgbsc::new();
        c.preload(Logic::One);
        c.shift(Logic::One, &si_ctrl());
        c.reset();
        assert_eq!(c.scan_bit(), Logic::X);
        assert_eq!(c.ff2, Logic::X);
    }

    #[test]
    fn is_victim_requires_si_and_select() {
        let mut c = Pgbsc::new();
        c.shift(Logic::One, &si_ctrl());
        assert!(c.is_victim(&si_ctrl()));
        assert!(!c.is_victim(&norm_ctrl()));
        c.shift(Logic::Zero, &si_ctrl());
        assert!(!c.is_victim(&si_ctrl()));
    }

    #[test]
    fn structural_netlist_builds_and_has_three_ffs() {
        let nl = pgbsc_netlist().unwrap();
        let (_gates, ffs, latches) = nl.component_counts();
        assert_eq!(ffs, 3, "Fig 6 has FF1, FF2, FF3");
        assert_eq!(latches, 0);
        assert!(nl.outputs().len() == 1);
    }
}
