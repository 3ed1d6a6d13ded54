//! A JTAG-equipped device: TAP controller, instruction register, data
//! registers and the boundary register, wired the way IEEE 1149.1
//! figure 4-1 draws them.
//!
//! The simulation model is cycle-accurate at TCK granularity: one call
//! to [`Device::step`] is one TCK. The action of the *current* state
//! executes on the edge (shift in Shift-DR, capture when leaving
//! Capture-DR, update when leaving Update-DR), then the controller moves
//! per TMS — the standard simplified model that preserves exact clock
//! counts, which is all the paper's test-time tables measure.
//! [`Device::shift_burst`] applies a whole scan's Shift clocks in one
//! call, with the same result as stepping them.

use crate::bcell::{BoundaryCell, BoundaryRegister, CellControl};

use crate::instruction::{DrTarget, Instruction, InstructionRegister, InstructionSet};
use crate::register::{BypassRegister, IdcodeRegister};
use crate::state::TapState;
use sint_logic::Logic;

/// One boundary-scan-equipped chip.
#[derive(Debug)]
pub struct Device {
    name: String,
    state: TapState,
    iset: InstructionSet,
    ir: InstructionRegister,
    boundary: BoundaryRegister,
    bypass: BypassRegister,
    idcode: Option<IdcodeRegister>,
    /// Position in `iset` of the instruction decoded from the IR's
    /// current opcode. Refreshed only on Update-IR and on entry to
    /// Test-Logic-Reset, so a TCK reads it instead of searching the
    /// instruction set.
    decoded: Option<usize>,
    /// Device-level ND̄/SD selector flip-flop (paper §4.1): false = ND.
    nd_sd: bool,
    tck: u64,
}

impl Device {
    /// Creates a device with the given instruction set and an empty
    /// boundary register.
    #[must_use]
    pub fn new(name: impl Into<String>, iset: InstructionSet) -> Self {
        let ir = InstructionRegister::new(iset.ir_width());
        let decoded = iset.decode_index(ir.current());
        Device {
            name: name.into(),
            state: TapState::TestLogicReset,
            iset,
            ir,
            boundary: BoundaryRegister::new(),
            bypass: BypassRegister::new(),
            idcode: None,
            decoded,
            nd_sd: false,
            tck: 0,
        }
    }

    /// Attaches a device-identification register.
    #[must_use]
    pub fn with_idcode(mut self, idcode: IdcodeRegister) -> Self {
        self.idcode = Some(idcode);
        self
    }

    /// Device name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current TAP state.
    #[must_use]
    pub fn state(&self) -> TapState {
        self.state
    }

    /// TCK cycles consumed so far.
    #[must_use]
    pub fn tck(&self) -> u64 {
        self.tck
    }

    /// The currently decoded instruction.
    ///
    /// Unknown opcodes fall back to BYPASS per the standard; `None` only
    /// for an instruction set without BYPASS.
    #[must_use]
    pub fn current_instruction(&self) -> Option<&Instruction> {
        self.decoded.and_then(|i| self.iset.get(i))
    }

    fn decode_ir(&mut self) {
        self.decoded = self.iset.decode_index(self.ir.current());
    }

    /// The instruction set.
    #[must_use]
    pub fn instruction_set(&self) -> &InstructionSet {
        &self.iset
    }

    /// The boundary register.
    #[must_use]
    pub fn boundary(&self) -> &BoundaryRegister {
        &self.boundary
    }

    /// Mutable boundary register (to attach cells or drive pins).
    pub fn boundary_mut(&mut self) -> &mut BoundaryRegister {
        &mut self.boundary
    }

    /// Convenience: append a boundary cell; returns its index.
    pub fn push_cell(&mut self, cell: Box<dyn BoundaryCell + Send>) -> usize {
        self.boundary.push(cell)
    }

    /// The device-level ND̄/SD selector (paper extension).
    #[must_use]
    pub fn nd_sd(&self) -> bool {
        self.nd_sd
    }

    /// The control signals currently broadcast to boundary cells.
    #[must_use]
    pub fn cell_control(&self) -> CellControl {
        let (mode, si, ce) = match self.current_instruction() {
            Some(i) => (i.mode, i.si, i.ce),
            None => (false, false, false),
        };
        CellControl {
            mode,
            shift_dr: self.state == TapState::ShiftDr && self.dr_target() == DrTarget::Boundary,
            si,
            ce,
            nd_sd: self.nd_sd,
        }
    }

    fn dr_target(&self) -> DrTarget {
        match self.current_instruction() {
            Some(i) => match i.target {
                DrTarget::Idcode if self.idcode.is_none() => DrTarget::Bypass,
                t => t,
            },
            None => DrTarget::Bypass,
        }
    }

    /// Length of the currently selected data register in bits.
    #[must_use]
    pub fn selected_dr_len(&self) -> usize {
        match self.dr_target() {
            DrTarget::Boundary => self.boundary.len(),
            DrTarget::Bypass => 1,
            DrTarget::Idcode => 32,
        }
    }

    /// Advances the device by one TCK. Returns TDO, which is only
    /// driven (non-`Z`) during Shift-DR/Shift-IR as the standard
    /// requires. Leaving Shift-DR ends the boundary register's shift
    /// burst, so the cells hold the shifted data from Exit1-DR on.
    pub fn step(&mut self, tms: bool, tdi: Logic) -> Logic {
        self.tck += 1;
        let ctrl = self.cell_control();
        let mut tdo = Logic::Z;

        match self.state {
            TapState::CaptureDr => match self.dr_target() {
                DrTarget::Boundary => self.boundary.capture(&ctrl),
                DrTarget::Bypass => self.bypass.capture(),
                DrTarget::Idcode => {
                    if let Some(id) = &mut self.idcode {
                        id.capture();
                    }
                }
            },
            TapState::ShiftDr => {
                tdo = match self.dr_target() {
                    DrTarget::Boundary => self.boundary.shift(tdi, &ctrl),
                    DrTarget::Bypass => self.bypass.shift(tdi),
                    DrTarget::Idcode => match &mut self.idcode {
                        Some(id) => id.shift(tdi),
                        None => self.bypass.shift(tdi),
                    },
                };
            }
            TapState::UpdateDr => {
                if self.dr_target() == DrTarget::Boundary {
                    self.boundary.update(&ctrl);
                }
                if self.current_instruction().is_some_and(|i| i.toggles_nd_sd) {
                    self.nd_sd = !self.nd_sd;
                }
            }
            TapState::CaptureIr => self.ir.capture(),
            TapState::ShiftIr => {
                tdo = self.ir.shift(tdi);
            }
            TapState::UpdateIr => {
                self.ir.update();
                self.decode_ir();
                // O-SITEST semantics (§4.1): the ND̄/SD selector starts
                // at ND whenever an nd/sd-toggling instruction is loaded.
                if self.current_instruction().is_some_and(|i| i.toggles_nd_sd) {
                    self.nd_sd = false;
                }
            }
            _ => {}
        }

        let next = self.state.next(tms);
        if self.state == TapState::ShiftDr && next != TapState::ShiftDr {
            self.boundary.end_shift();
        }
        if next == TapState::TestLogicReset && self.state != TapState::TestLogicReset {
            self.ir.reset();
            self.decode_ir();
            self.nd_sd = false;
        }
        self.state = next;
        tdo
    }

    /// `io.len()` TCKs with TMS low on all but the last: the Shift body
    /// of a scan, whose last clock exits to Exit1. `io` holds the TDI
    /// bits and comes back holding TDO, exactly as that many
    /// [`Device::step`] calls would return it. In Shift-DR or Shift-IR
    /// the selected register takes the whole burst at once; from any
    /// other state the device steps bit by bit.
    pub fn shift_burst(&mut self, io: &mut [Logic]) {
        let Some(last) = io.len().checked_sub(1) else { return };
        match self.state {
            TapState::ShiftDr => {
                let ctrl = self.cell_control();
                match self.dr_target() {
                    DrTarget::Boundary => self.boundary.shift_burst(io, &ctrl),
                    DrTarget::Bypass => self.bypass.shift_burst(io),
                    DrTarget::Idcode => match &mut self.idcode {
                        Some(id) => io.iter_mut().for_each(|b| *b = id.shift(*b)),
                        None => self.bypass.shift_burst(io),
                    },
                }
                self.boundary.end_shift();
                self.state = TapState::Exit1Dr;
            }
            TapState::ShiftIr => {
                io.iter_mut().for_each(|b| *b = self.ir.shift(*b));
                self.state = TapState::Exit1Ir;
            }
            _ => {
                for (i, b) in io.iter_mut().enumerate() {
                    *b = self.step(i == last, *b);
                }
                return;
            }
        }
        self.tck += io.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcell::StandardBsc;
    use sint_logic::BitVector;

    fn device_with_cells(n: usize) -> Device {
        let mut d = Device::new("dut", InstructionSet::standard_1149_1());
        for _ in 0..n {
            d.push_cell(Box::new(StandardBsc::new()));
        }
        d
    }

    /// Hand-drive a full DR scan from Run-Test/Idle; returns captured
    /// bits (TDO order) and leaves the device back in Run-Test/Idle.
    fn scan_dr(d: &mut Device, data: &BitVector) -> BitVector {
        d.step(true, Logic::Zero); // RTI → Select-DR
        d.step(false, Logic::Zero); // → Capture-DR
        d.step(false, Logic::Zero); // capture happens; → Shift-DR
        let mut out = BitVector::new();
        for i in 0..data.len() {
            let last = i == data.len() - 1;
            out.push(d.step(last, data.get(i).unwrap()));
        }
        d.step(true, Logic::Zero); // Exit1 → Update-DR
        d.step(false, Logic::Zero); // update happens; → RTI
        assert_eq!(d.state(), TapState::RunTestIdle);
        out
    }

    fn scan_ir(d: &mut Device, opcode: &BitVector) {
        d.step(true, Logic::Zero); // → Select-DR
        d.step(true, Logic::Zero); // → Select-IR
        d.step(false, Logic::Zero); // → Capture-IR
        d.step(false, Logic::Zero); // capture; → Shift-IR
        for i in 0..opcode.len() {
            let last = i == opcode.len() - 1;
            d.step(last, opcode.get(i).unwrap());
        }
        d.step(true, Logic::Zero); // → Update-IR
        d.step(false, Logic::Zero); // update; → RTI
    }

    fn to_idle(d: &mut Device) {
        for _ in 0..5 {
            d.step(true, Logic::Zero);
        }
        d.step(false, Logic::Zero);
        assert_eq!(d.state(), TapState::RunTestIdle);
    }

    #[test]
    fn powers_up_in_reset_selecting_bypass() {
        let d = device_with_cells(2);
        assert_eq!(d.state(), TapState::TestLogicReset);
        assert_eq!(d.current_instruction().unwrap().name, "BYPASS");
        assert_eq!(d.selected_dr_len(), 1);
    }

    #[test]
    fn ir_scan_loads_extest() {
        let mut d = device_with_cells(2);
        to_idle(&mut d);
        scan_ir(&mut d, &BitVector::from_u64(0b0000, 4));
        assert_eq!(d.current_instruction().unwrap().name, "EXTEST");
        assert_eq!(d.selected_dr_len(), 2);
        assert!(d.cell_control().mode);
    }

    #[test]
    fn sample_preload_then_extest_drives_pins() {
        let mut d = device_with_cells(3);
        to_idle(&mut d);
        scan_ir(&mut d, &BitVector::from_u64(0b0001, 4)); // SAMPLE/PRELOAD
        let preload: BitVector = "101".parse().unwrap();
        scan_dr(&mut d, &preload);
        scan_ir(&mut d, &BitVector::from_u64(0b0000, 4)); // EXTEST
        let ctrl = d.cell_control();
        // Update stage of each cell now drives its output.
        let outs: Vec<Logic> =
            (0..3).map(|i| d.boundary().cell(i).unwrap().output(&ctrl)).collect();
        // Shift order: bit at TDI-side index lands in... the preload
        // "101" (MSB-first string) has index0=1 entering last, so cells
        // hold [cell0, cell1, cell2] = [1, 0, 1].
        assert_eq!(outs, vec![Logic::One, Logic::Zero, Logic::One]);
    }

    #[test]
    fn extest_captures_pin_values() {
        let mut d = device_with_cells(4);
        to_idle(&mut d);
        scan_ir(&mut d, &BitVector::from_u64(0b0000, 4));
        let pins = [Logic::One, Logic::Zero, Logic::Zero, Logic::One];
        for (i, v) in pins.iter().enumerate() {
            d.boundary_mut().cell_mut(i).unwrap().set_parallel_input(*v);
        }
        let out = scan_dr(&mut d, &BitVector::zeros(4));
        // TDO emits the TDO-side cell (index 3) first.
        let got: Vec<Logic> = out.iter().collect();
        assert_eq!(got, vec![Logic::One, Logic::Zero, Logic::Zero, Logic::One]);
    }

    #[test]
    fn bypass_register_is_one_bit() {
        let mut d = device_with_cells(3);
        to_idle(&mut d);
        // BYPASS selected after reset; scan 1 bit through.
        let out = scan_dr(&mut d, &"1".parse().unwrap());
        assert_eq!(out.get(0), Some(Logic::Zero), "bypass captures 0");
    }

    #[test]
    fn idcode_scans_out() {
        let mut d = Device::new("dut", InstructionSet::standard_1149_1())
            .with_idcode(IdcodeRegister::new(0x0AB, 0x1234, 0x2));
        to_idle(&mut d);
        scan_ir(&mut d, &BitVector::from_u64(0b0010, 4));
        assert_eq!(d.selected_dr_len(), 32);
        let out = scan_dr(&mut d, &BitVector::zeros(32));
        let expect = IdcodeRegister::new(0x0AB, 0x1234, 0x2).value();
        assert_eq!(out.to_u64(), Some(u64::from(expect)));
    }

    #[test]
    fn idcode_without_register_falls_back_to_bypass() {
        let mut d = device_with_cells(1);
        to_idle(&mut d);
        scan_ir(&mut d, &BitVector::from_u64(0b0010, 4));
        assert_eq!(d.selected_dr_len(), 1);
    }

    #[test]
    fn unknown_opcode_selects_bypass() {
        let mut d = device_with_cells(2);
        to_idle(&mut d);
        scan_ir(&mut d, &BitVector::from_u64(0b0101, 4));
        assert_eq!(d.current_instruction().unwrap().name, "BYPASS");
    }

    #[test]
    fn tdo_is_z_outside_shift_states() {
        let mut d = device_with_cells(2);
        let t = d.step(true, Logic::Zero);
        assert_eq!(t, Logic::Z);
    }

    #[test]
    fn tck_counts_every_step() {
        let mut d = device_with_cells(2);
        to_idle(&mut d);
        let base = d.tck();
        scan_dr(&mut d, &BitVector::zeros(2));
        // 3 (to shift) + 2 (bits) + 2 (exit+update) = 7
        assert_eq!(d.tck() - base, 7);
    }

    #[test]
    fn reset_from_anywhere_restores_bypass() {
        let mut d = device_with_cells(2);
        to_idle(&mut d);
        scan_ir(&mut d, &BitVector::from_u64(0b0000, 4));
        assert_eq!(d.current_instruction().unwrap().name, "EXTEST");
        for _ in 0..5 {
            d.step(true, Logic::Zero);
        }
        assert_eq!(d.state(), TapState::TestLogicReset);
        assert_eq!(d.current_instruction().unwrap().name, "BYPASS");
    }
}
