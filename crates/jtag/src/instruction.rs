//! Instructions and the instruction register.
//!
//! The crate ships the mandatory/standard 1149.1 instructions and an
//! open registry so that extensions — the paper's `G-SITEST` and
//! `O-SITEST` — can be added without modifying the TAP machinery. An
//! instruction is *data*: its opcode, which data register it selects,
//! and which boundary-cell control signals it asserts.

use crate::error::JtagError;
use sint_logic::{BitVector, Logic};
use std::fmt;

/// Which data register an instruction places between TDI and TDO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DrTarget {
    /// The boundary register.
    Boundary,
    /// The 1-bit bypass register.
    Bypass,
    /// The 32-bit device-identification register.
    Idcode,
}

/// A JTAG instruction: opcode plus the behaviour it selects.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Mnemonic, e.g. `"EXTEST"` or `"G-SITEST"`.
    pub name: String,
    /// IR opcode (must match the device's IR width).
    pub opcode: BitVector,
    /// Data register selected while current.
    pub target: DrTarget,
    /// Boundary `mode` signal: outputs driven from update stages.
    pub mode: bool,
    /// Paper extension: signal-integrity mode (SI).
    pub si: bool,
    /// Paper extension: detector cell enable (CE).
    pub ce: bool,
    /// Paper extension: complement the device's ND̄/SD selector on every
    /// Update-DR while current (O-SITEST behaviour, §4.1).
    pub toggles_nd_sd: bool,
}

impl Instruction {
    /// A plain instruction with no extension signals.
    #[must_use]
    pub fn standard(name: &str, opcode: BitVector, target: DrTarget, mode: bool) -> Instruction {
        Instruction {
            name: name.to_string(),
            opcode,
            target,
            mode,
            si: false,
            ce: false,
            toggles_nd_sd: false,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.opcode)
    }
}

/// The set of instructions a device implements.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionSet {
    ir_width: usize,
    instructions: Vec<Instruction>,
}

impl InstructionSet {
    /// An empty set for a given IR width.
    #[must_use]
    pub fn new(ir_width: usize) -> Self {
        InstructionSet { ir_width, instructions: Vec::new() }
    }

    /// The standard 1149.1 set for a 4-bit IR: EXTEST (0000),
    /// SAMPLE/PRELOAD (0001), IDCODE (0010), INTEST (0011) and
    /// BYPASS (1111, all-ones as mandated).
    ///
    /// # Panics
    ///
    /// Never panics; the built-in opcodes are consistent by construction.
    #[must_use]
    pub fn standard_1149_1() -> Self {
        let mut set = InstructionSet::new(4);
        let mut add = |name: &str, code: u64, target: DrTarget, mode: bool| {
            set.register(Instruction::standard(name, BitVector::from_u64(code, 4), target, mode))
                .expect("built-in instruction set is consistent");
        };
        add("EXTEST", 0b0000, DrTarget::Boundary, true);
        add("SAMPLE/PRELOAD", 0b0001, DrTarget::Boundary, false);
        add("IDCODE", 0b0010, DrTarget::Idcode, false);
        add("INTEST", 0b0011, DrTarget::Boundary, true);
        add("BYPASS", 0b1111, DrTarget::Bypass, false);
        set
    }

    /// IR width in bits.
    #[must_use]
    pub fn ir_width(&self) -> usize {
        self.ir_width
    }

    /// Registers an instruction.
    ///
    /// # Errors
    ///
    /// [`JtagError::OpcodeWidth`] on a width mismatch and
    /// [`JtagError::DuplicateOpcode`] when the opcode is taken.
    pub fn register(&mut self, instruction: Instruction) -> Result<(), JtagError> {
        if instruction.opcode.len() != self.ir_width {
            return Err(JtagError::OpcodeWidth {
                name: instruction.name.clone(),
                ir_width: self.ir_width,
                got: instruction.opcode.len(),
            });
        }
        if self.instructions.iter().any(|i| i.opcode == instruction.opcode) {
            return Err(JtagError::DuplicateOpcode { opcode: instruction.opcode.to_string() });
        }
        self.instructions.push(instruction);
        Ok(())
    }

    /// Finds an instruction by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&Instruction> {
        self.instructions.iter().find(|i| i.name == name)
    }

    /// Decodes an opcode; unknown opcodes select BYPASS when present
    /// (the standard's required behaviour), otherwise `None`.
    #[must_use]
    pub fn decode(&self, opcode: &BitVector) -> Option<&Instruction> {
        self.decode_index(opcode).and_then(|i| self.get(i))
    }

    /// The position [`InstructionSet::decode`] selects, for callers that
    /// cache a decode without borrowing or cloning the instruction.
    pub(crate) fn decode_index(&self, opcode: &BitVector) -> Option<usize> {
        self.instructions
            .iter()
            .position(|i| &i.opcode == opcode)
            .or_else(|| self.instructions.iter().position(|i| i.name == "BYPASS"))
    }

    /// The instruction at a position returned by
    /// [`InstructionSet::decode_index`].
    pub(crate) fn get(&self, index: usize) -> Option<&Instruction> {
        self.instructions.get(index)
    }

    /// Iterates over the registered instructions.
    pub fn iter(&self) -> impl Iterator<Item = &Instruction> {
        self.instructions.iter()
    }
}

/// The instruction register: shift stage plus the *current* instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionRegister {
    shift: BitVector,
    current: BitVector,
}

impl InstructionRegister {
    /// Creates an IR of the given width holding BYPASS-style all-ones.
    #[must_use]
    pub fn new(width: usize) -> Self {
        InstructionRegister {
            shift: BitVector::ones(width),
            current: BitVector::ones(width),
        }
    }

    /// Width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.current.len()
    }

    /// Capture-IR: loads the mandated capture pattern — `01` in the two
    /// least-significant bits, zeros above (design-specific bits are all
    /// zero here).
    pub fn capture(&mut self) {
        let w = self.width();
        self.shift = BitVector::from_u64(0b01, w.max(2));
        // from_u64 may have produced a longer vector for w < 2; clamp.
        while self.shift.len() > w {
            let _ = self.shift.shift(Logic::Zero);
        }
    }

    /// Shift-IR by one bit.
    pub fn shift(&mut self, tdi: Logic) -> Logic {
        self.shift.shift(tdi)
    }

    /// Update-IR: the shifted opcode becomes current.
    pub fn update(&mut self) {
        self.current = self.shift.clone();
    }

    /// The current (decoded) opcode.
    #[must_use]
    pub fn current(&self) -> &BitVector {
        &self.current
    }

    /// Test-Logic-Reset: IDCODE/BYPASS selection is modelled by loading
    /// all-ones (BYPASS).
    pub fn reset(&mut self) {
        let w = self.width();
        self.current = BitVector::ones(w);
        self.shift = BitVector::ones(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_has_mandated_opcodes() {
        let set = InstructionSet::standard_1149_1();
        assert_eq!(set.ir_width(), 4);
        let bypass = set.by_name("BYPASS").unwrap();
        assert_eq!(bypass.opcode.to_u64(), Some(0b1111), "BYPASS is all ones");
        let extest = set.by_name("EXTEST").unwrap();
        assert_eq!(extest.opcode.to_u64(), Some(0));
        assert!(extest.mode);
        assert!(!set.by_name("SAMPLE/PRELOAD").unwrap().mode);
        assert_eq!(set.iter().count(), 5);
    }

    #[test]
    fn unknown_opcode_decodes_to_bypass() {
        let set = InstructionSet::standard_1149_1();
        let odd = BitVector::from_u64(0b1010, 4);
        let inst = set.decode(&odd).unwrap();
        assert_eq!(inst.name, "BYPASS");
    }

    #[test]
    fn register_rejects_conflicts() {
        let mut set = InstructionSet::standard_1149_1();
        let dup = Instruction::standard("EVIL", BitVector::from_u64(0, 4), DrTarget::Bypass, false);
        assert!(matches!(set.register(dup), Err(JtagError::DuplicateOpcode { .. })));
        let wide =
            Instruction::standard("WIDE", BitVector::from_u64(0, 5), DrTarget::Bypass, false);
        assert!(matches!(set.register(wide), Err(JtagError::OpcodeWidth { .. })));
    }

    #[test]
    fn extension_instruction_round_trips() {
        let mut set = InstructionSet::standard_1149_1();
        let gsitest = Instruction {
            name: "G-SITEST".into(),
            opcode: BitVector::from_u64(0b1000, 4),
            target: DrTarget::Boundary,
            mode: true,
            si: true,
            ce: true,
            toggles_nd_sd: false,
        };
        set.register(gsitest.clone()).unwrap();
        assert_eq!(set.decode(&BitVector::from_u64(0b1000, 4)), Some(&gsitest));
        assert_eq!(set.by_name("G-SITEST"), Some(&gsitest));
    }

    #[test]
    fn ir_capture_pattern_is_01() {
        let mut ir = InstructionRegister::new(4);
        ir.capture();
        // Scan out LSB-first: 1, 0, 0, 0.
        let bits: Vec<Logic> = (0..4).map(|_| ir.shift(Logic::Zero)).collect();
        assert_eq!(bits, vec![Logic::One, Logic::Zero, Logic::Zero, Logic::Zero]);
    }

    #[test]
    fn ir_shift_then_update_sets_current() {
        let mut ir = InstructionRegister::new(4);
        // Shift in 0b0010 LSB-first: bits 0,1,0,0.
        for b in [Logic::Zero, Logic::One, Logic::Zero, Logic::Zero] {
            ir.shift(b);
        }
        ir.update();
        assert_eq!(ir.current().to_u64(), Some(0b0010));
    }

    #[test]
    fn ir_reset_selects_all_ones() {
        let mut ir = InstructionRegister::new(4);
        for b in [Logic::Zero, Logic::Zero, Logic::Zero, Logic::Zero] {
            ir.shift(b);
        }
        ir.update();
        ir.reset();
        assert_eq!(ir.current().to_u64(), Some(0b1111));
    }

    #[test]
    fn display_shows_name_and_opcode() {
        let i = Instruction::standard("EXTEST", BitVector::from_u64(0, 4), DrTarget::Boundary, true);
        assert_eq!(i.to_string(), "EXTEST (0000)");
    }
}
