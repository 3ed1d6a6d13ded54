//! Board-level scan chains: several devices sharing TMS/TCK with their
//! TDO→TDI daisy-chained.

use crate::device::Device;
use crate::error::JtagError;
use crate::fault::ScanFault;
use crate::state::TapState;
use sint_logic::{BitVector, Logic};

/// A serial chain of JTAG devices. `devices[0]` is nearest TDI.
///
/// A [`ScanFault`] may be injected to model broken infrastructure; see
/// [`Chain::inject_fault`] and [`crate::integrity::check_chain`].
#[derive(Debug)]
pub struct Chain {
    devices: Vec<Device>,
    tck: u64,
    /// Injected infrastructure fault, if any.
    fault: Option<ScanFault>,
    /// Bits that crossed the faulty link so far (BitFlip phase).
    fault_bits: u64,
    /// Whether a StuckTap fault has reached its state and latched.
    fault_latched: bool,
    /// TDO value of the previous step — what a dropped TCK re-reads.
    last_tdo: Logic,
}

impl Default for Chain {
    fn default() -> Self {
        Chain {
            devices: Vec::new(),
            tck: 0,
            fault: None,
            fault_bits: 0,
            fault_latched: false,
            last_tdo: Logic::Z,
        }
    }
}

impl Chain {
    /// An empty chain.
    #[must_use]
    pub fn new() -> Self {
        Chain::default()
    }

    /// A chain of one device (the common SoC case of the paper's Fig 11).
    #[must_use]
    pub fn single(device: Device) -> Self {
        let mut c = Chain::new();
        c.push(device);
        c
    }

    /// Appends a device at the TDO end; returns its index.
    pub fn push(&mut self, device: Device) -> usize {
        self.devices.push(device);
        self.devices.len() - 1
    }

    /// Number of devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the chain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// TCK cycles applied to the chain.
    #[must_use]
    pub fn tck(&self) -> u64 {
        self.tck
    }

    /// Shared TAP state (all devices see the same TMS, so they agree);
    /// `TestLogicReset` for an empty chain.
    #[must_use]
    pub fn state(&self) -> TapState {
        self.devices.first().map_or(TapState::TestLogicReset, Device::state)
    }

    /// Access a device.
    ///
    /// # Errors
    ///
    /// [`JtagError::DeviceOutOfRange`] for a bad index.
    pub fn device(&self, index: usize) -> Result<&Device, JtagError> {
        self.devices
            .get(index)
            .ok_or(JtagError::DeviceOutOfRange { index, len: self.devices.len() })
    }

    /// Mutable access to a device.
    ///
    /// # Errors
    ///
    /// [`JtagError::DeviceOutOfRange`] for a bad index.
    pub fn device_mut(&mut self, index: usize) -> Result<&mut Device, JtagError> {
        let len = self.devices.len();
        self.devices.get_mut(index).ok_or(JtagError::DeviceOutOfRange { index, len })
    }

    /// Total bits between TDI and TDO for the currently selected data
    /// registers.
    #[must_use]
    pub fn selected_dr_len(&self) -> usize {
        self.devices.iter().map(Device::selected_dr_len).sum()
    }

    /// Total instruction-register bits across the chain.
    #[must_use]
    pub fn total_ir_width(&self) -> usize {
        self.devices.iter().map(|d| d.instruction_set().ir_width()).sum()
    }

    /// Injects an infrastructure fault (replacing any previous one) and
    /// resets the fault's internal phase, so injection is a clean
    /// starting point for a deterministic corruption trace.
    ///
    /// A [`ScanFault::BoundaryStuck`] is routed into the named device's
    /// boundary register (a nonexistent device index leaves every
    /// register intact — the fault is still recorded, and corrupts
    /// nothing, like a break on an unpopulated board site).
    pub fn inject_fault(&mut self, fault: ScanFault) {
        for dev in &mut self.devices {
            dev.boundary_mut().clear_stuck_segment();
        }
        if let ScanFault::BoundaryStuck { device, cell, level } = fault {
            if let Some(dev) = self.devices.get_mut(device) {
                let level = if level { Logic::One } else { Logic::Zero };
                dev.boundary_mut().inject_stuck_segment(cell, level);
            }
        }
        self.fault = Some(fault);
        self.fault_bits = 0;
        self.fault_latched = false;
    }

    /// Removes any injected fault (the hardware is "repaired"; TAP
    /// state is left wherever the fault put it).
    pub fn clear_fault(&mut self) {
        for dev in &mut self.devices {
            dev.boundary_mut().clear_stuck_segment();
        }
        self.fault = None;
        self.fault_bits = 0;
        self.fault_latched = false;
    }

    /// The currently injected fault, if any.
    #[must_use]
    pub fn fault(&self) -> Option<ScanFault> {
        self.fault
    }

    /// One TCK across the whole chain; TDI ripples through every device
    /// toward the board TDO. An injected [`ScanFault`] corrupts this
    /// path exactly as the broken hardware would.
    pub fn step(&mut self, tms: bool, tdi: Logic) -> Logic {
        self.tck += 1;
        let fault = self.fault;

        // Clock faults: the host counts the cycle but the devices never
        // see the edge, so TDO holds its previous value.
        if let Some(ScanFault::DroppedTck { period }) = fault {
            if self.tck.is_multiple_of(period.max(1)) {
                return self.last_tdo;
            }
        }

        // Control faults: once the TAP reaches the wedged state it
        // either re-enters it forever (self-looping states get their
        // TMS forced) or its state clock freezes entirely.
        let mut tms = tms;
        if let Some(ScanFault::StuckTap { state }) = fault {
            if self.state() == state {
                self.fault_latched = true;
            }
            if self.fault_latched {
                if state.next(false) == state {
                    tms = false;
                } else if state.next(true) == state {
                    tms = true;
                } else {
                    return self.last_tdo;
                }
            }
        }

        // Serial-path faults corrupt the bit between link endpoints.
        let mut seen = self.fault_bits;
        let mut bit = corrupt_link(fault, 0, tdi, &mut seen);
        for (k, dev) in self.devices.iter_mut().enumerate() {
            bit = dev.step(tms, bit);
            bit = corrupt_link(fault, k + 1, bit, &mut seen);
        }
        self.fault_bits = seen;
        self.last_tdo = bit;
        bit
    }

    /// `bits.len()` TCKs with TMS low on all but the last: the Shift
    /// body of a scan, whose last clock exits to Exit1. Returns the TDO
    /// bits, exactly as one [`Chain::step`] per bit would.
    ///
    /// Without a link, TAP or clock fault, each device takes the whole
    /// burst in one call ([`Device::shift_burst`]); a
    /// [`ScanFault::BoundaryStuck`] lives inside its register, so it
    /// bursts too. Any other fault clocks the chain bit by bit.
    pub fn shift_burst(&mut self, bits: &BitVector) -> BitVector {
        let len = bits.len();
        if !matches!(self.fault, None | Some(ScanFault::BoundaryStuck { .. })) {
            return bits.iter().enumerate().map(|(i, bit)| self.step(i + 1 == len, bit)).collect();
        }
        let mut stream = bits.as_slice().to_vec();
        for dev in &mut self.devices {
            dev.shift_burst(&mut stream);
        }
        self.tck += len as u64;
        if let Some(&tdo) = stream.last() {
            self.last_tdo = tdo;
        }
        BitVector::from(stream)
    }
}

/// Applies any serial-path corruption of `fault` at `link` to `bit`;
/// `seen` counts the bits that crossed the faulty link (BitFlip phase).
fn corrupt_link(fault: Option<ScanFault>, link: usize, bit: Logic, seen: &mut u64) -> Logic {
    match fault {
        Some(ScanFault::StuckAtZero { link: l }) if l == link => Logic::Zero,
        Some(ScanFault::StuckAtOne { link: l }) if l == link => Logic::One,
        Some(ScanFault::BitFlip { link: l, period }) if l == link => {
            *seen += 1;
            if seen.is_multiple_of(period.max(1)) {
                bit.not()
            } else {
                bit
            }
        }
        _ => bit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcell::StandardBsc;
    use crate::instruction::InstructionSet;

    fn dev(name: &str, cells: usize) -> Device {
        let mut d = Device::new(name, InstructionSet::standard_1149_1());
        for _ in 0..cells {
            d.push_cell(Box::new(StandardBsc::new()));
        }
        d
    }

    fn to_idle(c: &mut Chain) {
        for _ in 0..5 {
            c.step(true, Logic::Zero);
        }
        c.step(false, Logic::Zero);
        assert_eq!(c.state(), TapState::RunTestIdle);
    }

    #[test]
    fn chain_bookkeeping() {
        let mut c = Chain::new();
        assert!(c.is_empty());
        c.push(dev("a", 2));
        c.push(dev("b", 3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_ir_width(), 8);
        assert_eq!(c.device(1).unwrap().name(), "b");
        assert!(c.device(2).is_err());
        // Both in reset → both select bypass → 2 bits of DR.
        assert_eq!(c.selected_dr_len(), 2);
    }

    #[test]
    fn two_bypassed_devices_delay_by_two() {
        let mut c = Chain::new();
        c.push(dev("a", 1));
        c.push(dev("b", 1));
        to_idle(&mut c);
        // Navigate into Shift-DR.
        c.step(true, Logic::Zero);
        c.step(false, Logic::Zero);
        c.step(false, Logic::Zero); // capture, enter Shift-DR
        // Bypass registers each delay one TCK: a 1 appears after 2 shifts.
        let t0 = c.step(false, Logic::One);
        let t1 = c.step(false, Logic::One);
        let t2 = c.step(false, Logic::One);
        assert_eq!(t0, Logic::Zero);
        assert_eq!(t1, Logic::Zero);
        assert_eq!(t2, Logic::One);
    }

    #[test]
    fn chain_ir_scan_loads_different_instructions() {
        let mut c = Chain::new();
        c.push(dev("a", 2)); // TDI side
        c.push(dev("b", 3)); // TDO side
        to_idle(&mut c);
        // Enter Shift-IR.
        c.step(true, Logic::Zero);
        c.step(true, Logic::Zero);
        c.step(false, Logic::Zero);
        c.step(false, Logic::Zero);
        // TDO-side device receives the FIRST bits shifted; want:
        // device b = EXTEST (0000), device a = SAMPLE (0001).
        let stream: Vec<Logic> = BitVector::from_u64(0b0000, 4)
            .iter()
            .chain(BitVector::from_u64(0b0001, 4).iter())
            .collect();
        for (i, b) in stream.iter().enumerate() {
            let last = i == stream.len() - 1;
            c.step(last, *b);
        }
        c.step(true, Logic::Zero); // → Update-IR
        c.step(false, Logic::Zero); // update; → RTI
        assert_eq!(c.device(0).unwrap().current_instruction().unwrap().name, "SAMPLE/PRELOAD");
        assert_eq!(c.device(1).unwrap().current_instruction().unwrap().name, "EXTEST");
        assert_eq!(c.selected_dr_len(), 2 + 3);
    }

    #[test]
    fn tck_counts_chain_steps() {
        let mut c = Chain::single(dev("a", 1));
        to_idle(&mut c);
        assert_eq!(c.tck(), 6);
        assert_eq!(c.device(0).unwrap().tck(), 6);
    }

    /// Navigates into Shift-DR and shifts `bits`, returning TDO bits.
    fn shift_dr(c: &mut Chain, bits: &[Logic]) -> Vec<Logic> {
        c.step(true, Logic::Zero);
        c.step(false, Logic::Zero);
        c.step(false, Logic::Zero); // capture; → Shift-DR
        bits.iter().map(|&b| c.step(false, b)).collect()
    }

    #[test]
    fn stuck_at_faults_pin_the_serial_line() {
        for (fault, level) in [
            (ScanFault::StuckAtZero { link: 1 }, Logic::Zero),
            (ScanFault::StuckAtOne { link: 1 }, Logic::One),
        ] {
            let mut c = Chain::single(dev("a", 1));
            to_idle(&mut c);
            c.inject_fault(fault);
            assert_eq!(c.fault(), Some(fault));
            // Link 1 of a single-device chain is the board TDO: every
            // shifted bit reads the stuck level.
            let out = shift_dr(&mut c, &[Logic::One, Logic::Zero, Logic::One]);
            assert!(out.iter().all(|&b| b == level), "{fault}: {out:?}");
        }
    }

    #[test]
    fn bit_flip_inverts_every_period_th_bit() {
        let mut c = Chain::single(dev("a", 1));
        to_idle(&mut c);
        // Flip every 2nd bit through the TDI-side link, starting now.
        c.inject_fault(ScanFault::BitFlip { link: 0, period: 2 });
        // 3 navigation TCKs advance the phase (bits 1..3); the shifted
        // zeros then cross the link as bits 4.. — even ones invert.
        let out = shift_dr(&mut c, &[Logic::Zero; 6]);
        // Bypass delays by one: out[i+1] is the (possibly flipped)
        // input bit i. Bits 4 and 6 of the link stream flip.
        assert_eq!(out[1], Logic::One, "{out:?}");
        assert_eq!(out[2], Logic::Zero, "{out:?}");
        assert_eq!(out[3], Logic::One, "{out:?}");
    }

    #[test]
    fn boundary_stuck_routes_into_the_device_and_spares_bypass() {
        let mut c = Chain::single(dev("a", 3));
        to_idle(&mut c);
        c.inject_fault(ScanFault::BoundaryStuck { device: 0, cell: 0, level: true });
        assert_eq!(c.device(0).unwrap().boundary().stuck_segment(), Some((0, Logic::One)));
        // The BYPASS register never crosses the broken segment: a DR
        // scan with BYPASS selected comes back clean (delayed by one,
        // capturing 0) — which is exactly why the serial self-check
        // cannot see this fault class.
        let out = shift_dr(&mut c, &[Logic::One, Logic::Zero, Logic::One]);
        assert_eq!(out[0], Logic::Zero, "bypass captures 0");
        assert_eq!(out[1], Logic::One);
        assert_eq!(out[2], Logic::Zero);
        c.clear_fault();
        assert_eq!(c.device(0).unwrap().boundary().stuck_segment(), None);
    }

    #[test]
    fn stuck_tap_latches_in_self_looping_state() {
        let mut c = Chain::single(dev("a", 1));
        to_idle(&mut c);
        c.inject_fault(ScanFault::StuckTap { state: TapState::RunTestIdle });
        // Attempts to leave Run-Test/Idle are ignored.
        c.step(true, Logic::Zero);
        c.step(true, Logic::Zero);
        assert_eq!(c.state(), TapState::RunTestIdle);
    }

    #[test]
    fn dropped_tck_skips_the_devices() {
        let mut c = Chain::single(dev("a", 1));
        c.inject_fault(ScanFault::DroppedTck { period: 2 });
        for _ in 0..5 {
            c.step(true, Logic::Zero);
        }
        c.step(false, Logic::Zero);
        // Host counted 6 TCKs but the device only saw half of them.
        assert_eq!(c.tck(), 6);
        assert_eq!(c.device(0).unwrap().tck(), 3);
        c.clear_fault();
        assert_eq!(c.fault(), None);
    }
}
