//! Non-boundary data registers: bypass and device identification.

use sint_logic::Logic;

/// The mandatory 1-bit bypass register.
///
/// Capture-DR loads a fixed 0 (as the standard requires); each Shift-DR
/// delays TDI by exactly one TCK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BypassRegister {
    bit: Logic,
}

impl BypassRegister {
    /// A fresh bypass register.
    #[must_use]
    pub fn new() -> Self {
        BypassRegister { bit: Logic::Zero }
    }

    /// Capture-DR: loads the mandated constant 0.
    pub fn capture(&mut self) {
        self.bit = Logic::Zero;
    }

    /// Shift-DR: one-bit delay.
    pub fn shift(&mut self, tdi: Logic) -> Logic {
        std::mem::replace(&mut self.bit, tdi)
    }

    /// `io.len()` Shift-DR clocks at once: `io` holds the TDI bits in
    /// shift order and comes back holding TDO, as that many
    /// [`BypassRegister::shift`] calls would return it.
    pub fn shift_burst(&mut self, io: &mut [Logic]) {
        shift_through(std::slice::from_mut(&mut self.bit), io);
    }
}

/// Moves `io.len()` bits through a shift stage in place. `stage[0]` is
/// the TDI end and the last slot the TDO end; `io` holds the bits that
/// enter, in shift order, and comes back holding the bits that left.
///
/// For `k = io.len()` at least the stage length `L`, TDO is the old
/// stage reversed, then the first `k − L` inputs, and the new stage is
/// the last `L` inputs reversed. For `k < L`, TDO is the stage's last
/// `k` slots reversed, and the stage moves `k` slots toward TDO behind
/// the `k` inputs reversed. An empty stage is a wire.
pub(crate) fn shift_through(stage: &mut [Logic], io: &mut [Logic]) {
    let (l, k) = (stage.len(), io.len());
    if l == 0 || k == 0 {
        return;
    }
    if k >= l {
        stage.reverse();
        let tail = &mut io[k - l..];
        tail.reverse();
        stage.swap_with_slice(tail);
        io.rotate_right(l);
    } else {
        stage.rotate_right(k);
        let head = &mut stage[..k];
        head.reverse();
        io.reverse();
        head.swap_with_slice(io);
    }
}

/// The optional 32-bit device-identification register.
///
/// Layout (LSB→MSB): 1 fixed `1`, 11-bit manufacturer id, 16-bit part
/// number, 4-bit version — per IEEE 1149.1 §12.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdcodeRegister {
    idcode: u32,
    shift: u32,
}

impl IdcodeRegister {
    /// Builds the register from the three id fields.
    ///
    /// # Panics
    ///
    /// Panics if a field exceeds its width (manufacturer 11 bits, part
    /// 16 bits, version 4 bits).
    #[must_use]
    pub fn new(manufacturer: u16, part: u16, version: u8) -> Self {
        assert!(manufacturer < (1 << 11), "manufacturer id is 11 bits");
        assert!(version < (1 << 4), "version is 4 bits");
        let idcode = 1u32
            | (u32::from(manufacturer) << 1)
            | (u32::from(part) << 12)
            | (u32::from(version) << 28);
        IdcodeRegister { idcode, shift: idcode }
    }

    /// The packed 32-bit IDCODE value.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.idcode
    }

    /// Capture-DR: loads the IDCODE for scanning out.
    pub fn capture(&mut self) {
        self.shift = self.idcode;
    }

    /// Shift-DR: emits LSB-first.
    pub fn shift(&mut self, tdi: Logic) -> Logic {
        let out = Logic::from(self.shift & 1 == 1);
        self.shift >>= 1;
        if tdi == Logic::One {
            self.shift |= 1 << 31;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypass_is_single_cycle_delay() {
        let mut b = BypassRegister::new();
        b.capture();
        assert_eq!(b.shift(Logic::One), Logic::Zero, "captured 0 comes out first");
        assert_eq!(b.shift(Logic::Zero), Logic::One);
        assert_eq!(b.shift(Logic::One), Logic::Zero);
    }

    #[test]
    fn bursts_match_single_shifts_on_every_stage_length() {
        // Every burst length below, at and past the stage length, from a
        // stage of distinct values, against one shift per bit.
        let tags = [Logic::Zero, Logic::One, Logic::X, Logic::Z];
        for l in 0..6 {
            for k in 0..9 {
                let init: Vec<Logic> = (0..l).map(|i| tags[i % 4]).collect();
                let input: Vec<Logic> = (0..k).map(|i| tags[(i + 1) % 4]).collect();
                let mut ripple = init.clone();
                let want: Vec<Logic> = input
                    .iter()
                    .map(|&b| {
                        let Some(out) = ripple.pop() else { return b };
                        ripple.insert(0, b);
                        out
                    })
                    .collect();
                let (mut stage, mut io) = (init, input);
                shift_through(&mut stage, &mut io);
                assert_eq!((io, stage), (want, ripple), "L = {l}, k = {k}");
            }
        }
        let mut b = BypassRegister::new();
        let mut io = [Logic::One, Logic::X, Logic::Zero];
        b.shift_burst(&mut io);
        assert_eq!(io, [Logic::Zero, Logic::One, Logic::X]);
        assert_eq!(b.shift(Logic::One), Logic::Zero);
    }

    #[test]
    fn idcode_lsb_is_one() {
        let id = IdcodeRegister::new(0x123, 0xBEEF, 0x7);
        assert_eq!(id.value() & 1, 1, "bit 0 fixed to 1 per the standard");
    }

    #[test]
    fn idcode_field_packing() {
        let id = IdcodeRegister::new(0x7FF, 0xFFFF, 0xF);
        assert_eq!(id.value(), 0xFFFF_FFFF);
        let id = IdcodeRegister::new(0, 0, 0);
        assert_eq!(id.value(), 1);
        let id = IdcodeRegister::new(0x0AB, 0x1234, 0x2);
        assert_eq!(id.value(), (0x2 << 28) | (0x1234 << 12) | (0x0AB << 1) | 1);
    }

    #[test]
    fn idcode_scans_out_lsb_first() {
        let mut id = IdcodeRegister::new(0x0AB, 0x1234, 0x2);
        id.capture();
        let mut got = 0u32;
        for k in 0..32 {
            if id.shift(Logic::Zero) == Logic::One {
                got |= 1 << k;
            }
        }
        assert_eq!(got, id.value());
    }

    #[test]
    #[should_panic(expected = "manufacturer id is 11 bits")]
    fn oversized_manufacturer_panics() {
        let _ = IdcodeRegister::new(0x800, 0, 0);
    }
}
