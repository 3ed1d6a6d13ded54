//! Boundary-scan cells.
//!
//! [`BoundaryCell`] is the contract between the TAP machinery and the
//! cells sitting on each pin. The standard cell of the paper's Fig 4
//! ([`StandardBsc`]) implements it directly; the paper's enhanced PGBSC
//! and OBSC cells (in `sint-core`) implement the same trait, which is
//! what lets them drop into an unmodified scan chain — exactly the
//! paper's claim of 1149.1 compliance.

use crate::error::JtagError;
use crate::register::shift_through;
use sint_logic::Logic;
use std::collections::VecDeque;
use std::fmt;

/// Control signals broadcast to every boundary cell.
///
/// `mode` and `shift_dr` are the standard 1149.1 signals; `si`, `ce` and
/// `nd_sd` are the paper's extension signals, decoded from the
/// `G-SITEST`/`O-SITEST` instructions (§4.1). Standard cells ignore the
/// extension fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellControl {
    /// Test-mode select: when true, cell outputs come from the update
    /// stage instead of the system path (EXTEST-style).
    pub mode: bool,
    /// True while the TAP is in Shift-DR with the boundary register
    /// selected.
    pub shift_dr: bool,
    /// Signal-integrity mode (paper extension, driven by G-SITEST).
    pub si: bool,
    /// Detector cell enable (paper extension; CE=1 lets ND/SD capture).
    pub ce: bool,
    /// ND̄/SD selector for OBSC read-out (false = ND FFs, true = SD FFs).
    pub nd_sd: bool,
}

/// One cell of the boundary register.
///
/// The TAP calls the four protocol methods in Capture-DR / Shift-DR /
/// Update-DR; `set_parallel_input` and `output` connect the cell to the
/// system logic (pin or core). The `as_any` hooks let a system model
/// reach implementation-specific state (e.g. the detector flip-flops of
/// an enhanced observation cell) through the type-erased register.
pub trait BoundaryCell: fmt::Debug + std::any::Any {
    /// Capture-DR: load the shift stage from the parallel input (or a
    /// detector FF, for enhanced observation cells).
    fn capture(&mut self, ctrl: &CellControl);

    /// Shift-DR: clock the shift stage one position; `tdi` enters, the
    /// previous shift-stage content is returned toward TDO.
    fn shift(&mut self, tdi: Logic, ctrl: &CellControl) -> Logic;

    /// Update-DR: transfer the shift stage to the update stage (or run
    /// the pattern-generation step, for enhanced generation cells).
    fn update(&mut self, ctrl: &CellControl);

    /// Presents the system-side parallel input (pin value for an input
    /// cell, core output for an output cell).
    fn set_parallel_input(&mut self, value: Logic);

    /// The value the cell drives toward the system (core input or pin).
    fn output(&self, ctrl: &CellControl) -> Logic;

    /// Current shift-stage content (what the next Shift-DR would emit).
    fn scan_bit(&self) -> Logic;

    /// Resets cell state to power-on (Test-Logic-Reset).
    fn reset(&mut self);

    /// Type-erased view for downcasting to the concrete cell type.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable type-erased view for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// The conventional boundary-scan cell of the paper's Fig 4: shift FF1,
/// update FF2 and an output mux.
///
/// ```
/// use sint_jtag::bcell::{BoundaryCell, CellControl, StandardBsc};
/// use sint_logic::Logic;
///
/// let mut cell = StandardBsc::new();
/// let ctrl = CellControl { mode: true, ..CellControl::default() };
/// cell.set_parallel_input(Logic::One);
/// cell.capture(&ctrl);                      // FF1 ← parallel input
/// assert_eq!(cell.scan_bit(), Logic::One);
/// cell.shift(Logic::Zero, &ctrl);           // scan a 0 in
/// cell.update(&ctrl);                       // FF2 ← FF1
/// assert_eq!(cell.output(&ctrl), Logic::Zero); // mode=1 → FF2 drives
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandardBsc {
    /// Shift-stage flip-flop (FF1 in Fig 4).
    ff1: Logic,
    /// Update-stage flip-flop (FF2 in Fig 4).
    ff2: Logic,
    /// Last value presented on the system side.
    pi: Logic,
}

impl StandardBsc {
    /// A fresh cell with undefined (`X`) storage, like real silicon at
    /// power-up.
    #[must_use]
    pub fn new() -> Self {
        StandardBsc { ff1: Logic::X, ff2: Logic::X, pi: Logic::X }
    }
}

impl Default for StandardBsc {
    fn default() -> Self {
        StandardBsc::new()
    }
}

impl BoundaryCell for StandardBsc {
    fn capture(&mut self, _ctrl: &CellControl) {
        self.ff1 = self.pi;
    }

    fn shift(&mut self, tdi: Logic, _ctrl: &CellControl) -> Logic {
        let out = self.ff1;
        self.ff1 = tdi;
        out
    }

    fn update(&mut self, _ctrl: &CellControl) {
        self.ff2 = self.ff1;
    }

    fn set_parallel_input(&mut self, value: Logic) {
        self.pi = value;
    }

    fn output(&self, ctrl: &CellControl) -> Logic {
        if ctrl.mode {
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
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A serial chain of boundary cells (the boundary register's data path).
///
/// Cells are stored TDI-first: `cells[0]` receives TDI, the last cell
/// feeds TDO.
///
/// During a Shift-DR burst the register, not the cells, owns the shift
/// stage, so one clock costs O(1) whatever the chain length. The first
/// [`BoundaryRegister::shift`] of a burst copies every cell's FF1 into a
/// ring; each clock then pops TDO at one end and pushes TDI at the
/// other, and [`BoundaryRegister::shift_burst`] moves a whole scan's
/// bits through the ring in one call. [`BoundaryRegister::end_shift`]
/// writes the ring back into the cells. The TAP calls it on Shift-DR →
/// Exit1-DR, and every method that reaches the cells (`capture`,
/// `update`, `reset`, `cell_mut`, `push`, stuck-segment changes) calls
/// it first. Capture and update semantics stay in the cells.
#[derive(Debug, Default)]
pub struct BoundaryRegister {
    cells: Vec<Box<dyn BoundaryCell + Send>>,
    /// Injected intra-register shift-path fault: the serial segment
    /// leaving cell `.0` reads the constant level `.1` (see
    /// [`crate::fault::ScanFault::BoundaryStuck`]).
    stuck: Option<(usize, Logic)>,
    /// The shift stage of a live burst: `stage[i]` is cell `i`'s FF1.
    stage: VecDeque<Logic>,
    /// The control of the live burst's latest clock; `None` while the
    /// cells hold their own shift stages.
    burst: Option<CellControl>,
}

impl BoundaryRegister {
    /// An empty register.
    #[must_use]
    pub fn new() -> Self {
        BoundaryRegister::default()
    }

    /// Appends a cell on the TDO end and returns its index.
    pub fn push(&mut self, cell: Box<dyn BoundaryCell + Send>) -> usize {
        self.end_shift();
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the register has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Immutable access to a cell.
    ///
    /// Inside a Shift-DR burst (between a [`BoundaryRegister::shift`]
    /// and the next [`BoundaryRegister::end_shift`]) the cell's FF1
    /// still shows its value from before the burst.
    ///
    /// # Errors
    ///
    /// [`JtagError::CellOutOfRange`] for a bad index.
    pub fn cell(&self, index: usize) -> Result<&(dyn BoundaryCell + Send), JtagError> {
        self.cells
            .get(index)
            .map(AsRef::as_ref)
            .ok_or(JtagError::CellOutOfRange { index, len: self.cells.len() })
    }

    /// Mutable access to a cell.
    ///
    /// # Errors
    ///
    /// [`JtagError::CellOutOfRange`] for a bad index.
    pub fn cell_mut(
        &mut self,
        index: usize,
    ) -> Result<&mut (dyn BoundaryCell + Send), JtagError> {
        self.end_shift();
        let len = self.cells.len();
        match self.cells.get_mut(index) {
            Some(c) => Ok(c.as_mut()),
            None => Err(JtagError::CellOutOfRange { index, len }),
        }
    }

    /// Capture-DR across the whole register.
    pub fn capture(&mut self, ctrl: &CellControl) {
        self.end_shift();
        for c in &mut self.cells {
            c.capture(ctrl);
        }
    }

    /// One Shift-DR clock across the whole register; returns TDO.
    ///
    /// The first clock of a burst loads the register-owned stage from
    /// the cells' FF1s; every clock after that is O(1). An injected
    /// stuck segment at cell `k` forces the bit leaving that cell to its
    /// constant level, exactly where the broken wire sits: it lands in
    /// stage slot `k + 1`, or on TDO when `k` is the last cell.
    pub fn shift(&mut self, tdi: Logic, ctrl: &CellControl) -> Logic {
        self.open_burst(ctrl);
        let Some(mut tdo) = self.stage.pop_back() else {
            return tdi;
        };
        self.stage.push_front(tdi);
        if let Some((cell, level)) = self.stuck {
            let last = self.stage.len() - 1;
            if cell < last {
                self.stage[cell + 1] = level;
            } else if cell == last {
                tdo = level;
            }
        }
        tdo
    }

    /// Loads the stage from the cells' FF1s unless a burst is live, and
    /// keeps `ctrl` as the burst's latest control.
    fn open_burst(&mut self, ctrl: &CellControl) {
        if self.burst.is_none() {
            self.stage.clear();
            self.stage.extend(self.cells.iter().map(|c| c.scan_bit()));
        }
        self.burst = Some(*ctrl);
    }

    /// `io.len()` Shift-DR clocks at once: `io` holds the TDI bits in
    /// shift order and comes back holding TDO, exactly as that many
    /// [`BoundaryRegister::shift`] calls would leave it and the stage.
    ///
    /// A stuck segment at cell `k` splits the stage in two: cells
    /// `0..=k` take TDI and every bit they pass on is lost on the broken
    /// wire, and cells `k + 1..` take the stuck level and feed TDO.
    pub fn shift_burst(&mut self, io: &mut [Logic], ctrl: &CellControl) {
        if io.is_empty() {
            return;
        }
        self.open_burst(ctrl);
        let stage = self.stage.make_contiguous();
        match self.stuck {
            Some((cell, level)) if cell < stage.len() => {
                let (upstream, downstream) = stage.split_at_mut(cell + 1);
                shift_through(upstream, io);
                io.fill(level);
                shift_through(downstream, io);
            }
            _ => shift_through(stage, io),
        }
    }

    /// Ends a Shift-DR burst: writes the register-owned stage back into
    /// the cells, each bit through its cell's own `shift` (which loads
    /// FF1). A no-op outside a burst.
    pub fn end_shift(&mut self) {
        if let Some(ctrl) = self.burst.take() {
            for (c, &bit) in self.cells.iter_mut().zip(&self.stage) {
                c.shift(bit, &ctrl);
            }
        }
    }

    /// Injects a stuck shift segment: the serial line leaving cell
    /// `cell` reads the constant `level` on every subsequent shift
    /// (replacing any previous segment fault).
    pub fn inject_stuck_segment(&mut self, cell: usize, level: Logic) {
        self.end_shift();
        self.stuck = Some((cell, level));
    }

    /// Removes any injected stuck segment (the wire is "repaired").
    pub fn clear_stuck_segment(&mut self) {
        self.end_shift();
        self.stuck = None;
    }

    /// The injected stuck segment, if any.
    #[must_use]
    pub fn stuck_segment(&self) -> Option<(usize, Logic)> {
        self.stuck
    }

    /// Update-DR across the whole register.
    pub fn update(&mut self, ctrl: &CellControl) {
        self.end_shift();
        for c in &mut self.cells {
            c.update(ctrl);
        }
    }

    /// Resets every cell.
    pub fn reset(&mut self) {
        self.end_shift();
        for c in &mut self.cells {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_ctrl() -> CellControl {
        CellControl::default()
    }

    #[test]
    fn standard_cell_normal_mode_is_transparent() {
        let mut c = StandardBsc::new();
        let ctrl = plain_ctrl();
        c.set_parallel_input(Logic::One);
        assert_eq!(c.output(&ctrl), Logic::One);
        c.set_parallel_input(Logic::Zero);
        assert_eq!(c.output(&ctrl), Logic::Zero);
    }

    #[test]
    fn standard_cell_test_mode_drives_update_stage() {
        let mut c = StandardBsc::new();
        let ctrl = CellControl { mode: true, ..plain_ctrl() };
        c.set_parallel_input(Logic::One);
        c.shift(Logic::Zero, &ctrl);
        c.update(&ctrl);
        assert_eq!(c.output(&ctrl), Logic::Zero, "FF2 drives, not the pin");
        assert_eq!(c.ff2, Logic::Zero);
    }

    #[test]
    fn capture_snapshots_parallel_input() {
        let mut c = StandardBsc::new();
        let ctrl = plain_ctrl();
        c.set_parallel_input(Logic::One);
        c.capture(&ctrl);
        c.set_parallel_input(Logic::Zero); // later pin change
        assert_eq!(c.scan_bit(), Logic::One, "capture was a snapshot");
    }

    #[test]
    fn register_shifts_tdi_to_tdo_in_order() {
        let mut reg = BoundaryRegister::new();
        for _ in 0..3 {
            reg.push(Box::new(StandardBsc::new()));
        }
        let ctrl = plain_ctrl();
        // Pre-load 1,0,1 (cell0..cell2) via three shifts of 1,0,1:
        // after shifting a,b,c the register holds [c,b,a] read toward TDO.
        reg.shift(Logic::One, &ctrl);
        reg.shift(Logic::Zero, &ctrl);
        reg.shift(Logic::One, &ctrl);
        // Now shift zeros and observe TDO: must replay 1,0,1 (cell2 first).
        let out: Vec<Logic> =
            (0..3).map(|_| reg.shift(Logic::Zero, &ctrl)).collect();
        assert_eq!(out, vec![Logic::One, Logic::Zero, Logic::One]);
    }

    #[test]
    fn register_capture_then_scan_out() {
        let mut reg = BoundaryRegister::new();
        for _ in 0..4 {
            reg.push(Box::new(StandardBsc::new()));
        }
        let ctrl = plain_ctrl();
        let pins = [Logic::One, Logic::One, Logic::Zero, Logic::One];
        for (i, v) in pins.iter().enumerate() {
            reg.cell_mut(i).unwrap().set_parallel_input(*v);
        }
        reg.capture(&ctrl);
        // TDO-first order is cell3, cell2, cell1, cell0.
        let out: Vec<Logic> = (0..4).map(|_| reg.shift(Logic::Zero, &ctrl)).collect();
        assert_eq!(out, vec![Logic::One, Logic::Zero, Logic::One, Logic::One]);
    }

    #[test]
    fn cell_index_errors() {
        let mut reg = BoundaryRegister::new();
        reg.push(Box::new(StandardBsc::new()));
        assert!(reg.cell(0).is_ok());
        assert!(matches!(reg.cell(1), Err(JtagError::CellOutOfRange { index: 1, len: 1 })));
        assert!(reg.cell_mut(2).is_err());
    }

    #[test]
    fn stuck_segment_swallows_upstream_cells_and_fills_downstream() {
        let mut reg = BoundaryRegister::new();
        for _ in 0..4 {
            reg.push(Box::new(StandardBsc::new()));
        }
        // Break the segment leaving cell 1: cells 2 and 3 only ever
        // receive the stuck level; cells 0 and 1 still load from TDI.
        reg.inject_stuck_segment(1, Logic::Zero);
        assert_eq!(reg.stuck_segment(), Some((1, Logic::Zero)));
        let ctrl = plain_ctrl();
        for _ in 0..4 {
            reg.shift(Logic::One, &ctrl);
        }
        reg.end_shift();
        assert_eq!(reg.cell(0).unwrap().scan_bit(), Logic::One, "TDI side still controllable");
        assert_eq!(reg.cell(1).unwrap().scan_bit(), Logic::One);
        assert_eq!(reg.cell(2).unwrap().scan_bit(), Logic::Zero, "downstream fill is stuck");
        assert_eq!(reg.cell(3).unwrap().scan_bit(), Logic::Zero);
        // Scan-out: cells at or before the break never reach TDO.
        reg.clear_stuck_segment();
        assert_eq!(reg.stuck_segment(), None);
        reg.inject_stuck_segment(3, Logic::One);
        let out: Vec<Logic> = (0..4).map(|_| reg.shift(Logic::Zero, &ctrl)).collect();
        assert!(out.iter().all(|&b| b == Logic::One), "TDO reads the stuck level: {out:?}");
    }

    #[test]
    fn burst_writes_back_before_cells_are_touched() {
        let mut reg = BoundaryRegister::new();
        for _ in 0..3 {
            reg.push(Box::new(StandardBsc::new()));
        }
        let ctrl = plain_ctrl();
        reg.shift(Logic::One, &ctrl);
        reg.shift(Logic::Zero, &ctrl);
        // The cells still hold their pre-burst FF1s until the burst ends.
        assert_eq!(reg.cell(0).unwrap().scan_bit(), Logic::X);
        // Mutable access ends the burst first.
        assert_eq!(reg.cell_mut(0).unwrap().scan_bit(), Logic::Zero);
        assert_eq!(reg.cell(1).unwrap().scan_bit(), Logic::One);
        // A new burst reloads the stage from the cells, edits included.
        reg.cell_mut(2).unwrap().shift(Logic::One, &ctrl);
        assert_eq!(reg.shift(Logic::Zero, &ctrl), Logic::One);
        reg.update(&ctrl);
        let stages: Vec<Logic> = (0..3)
            .map(|i| {
                let cell = reg.cell(i).unwrap().as_any().downcast_ref::<StandardBsc>();
                cell.unwrap().ff2
            })
            .collect();
        assert_eq!(stages, vec![Logic::Zero, Logic::Zero, Logic::One]);
    }

    #[test]
    fn reset_clears_storage() {
        let mut c = StandardBsc::new();
        let ctrl = plain_ctrl();
        c.shift(Logic::One, &ctrl);
        c.update(&ctrl);
        c.reset();
        assert_eq!(c.scan_bit(), Logic::X);
        assert_eq!(c.ff2, Logic::X);
    }
}
