//! The two new JTAG instructions of §4.1: `G-SITEST` and `O-SITEST`.
//!
//! Both are ordinary entries in the device's instruction registry — the
//! paper's point is that the extension stays fully 1149.1-compliant:
//! the TAP, the pin protocol and all mandatory instructions are
//! untouched; only new opcodes and cell-control signals are added.
//!
//! * **`G-SITEST`** (generate): selects the boundary register, asserts
//!   `SI = 1` so PGBSCs enter victim/aggressor mode, asserts `CE = 1`
//!   so ND/SD detectors capture, and drives interconnects from the
//!   pattern stages (`mode = 1`). Victim-select data is shifted during
//!   Shift-DR; each Update-DR generates the next MA pattern at-speed.
//! * **`O-SITEST`** (observe): selects the boundary register with
//!   `SI = 1` (so Capture-DR reads detector flip-flops through the
//!   `sel` logic) but `CE = 0`, freezing the detectors so the evidence
//!   cannot be corrupted while scan-out patterns ripple through the
//!   chain. The device-level ND̄/SD selector starts at ND and is
//!   complemented on every Update-DR, so two consecutive DR scans read
//!   first all ND flip-flops, then all SD flip-flops.

use sint_jtag::instruction::{DrTarget, Instruction, InstructionSet};
use sint_jtag::JtagError;
use sint_logic::BitVector;

/// Opcode assigned to `G-SITEST` in the 4-bit IR space (a free private
/// code; the standard reserves only EXTEST=0…0 and BYPASS=1…1).
pub const G_SITEST_OPCODE: u64 = 0b1000;

/// Opcode assigned to `O-SITEST`.
pub const O_SITEST_OPCODE: u64 = 0b1001;

/// The `G-SITEST` instruction for a 4-bit IR.
#[must_use]
pub fn g_sitest() -> Instruction {
    Instruction {
        name: "G-SITEST".to_string(),
        opcode: BitVector::from_u64(G_SITEST_OPCODE, 4),
        target: DrTarget::Boundary,
        mode: true,
        si: true,
        ce: true,
        toggles_nd_sd: false,
    }
}

/// The `O-SITEST` instruction for a 4-bit IR.
#[must_use]
fn o_sitest() -> Instruction {
    Instruction {
        name: "O-SITEST".to_string(),
        opcode: BitVector::from_u64(O_SITEST_OPCODE, 4),
        target: DrTarget::Boundary,
        mode: true,
        si: true,
        ce: false,
        toggles_nd_sd: true,
    }
}

/// The full extended instruction set: all standard 1149.1 instructions
/// plus the two signal-integrity instructions.
///
/// # Errors
///
/// [`JtagError`] if the opcodes collide (cannot happen with the
/// constants above; kept fallible for API honesty).
pub fn extended_instruction_set() -> Result<InstructionSet, JtagError> {
    let mut set = InstructionSet::standard_1149_1();
    set.register(g_sitest())?;
    set.register(o_sitest())?;
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g_sitest_asserts_si_and_ce() {
        let i = g_sitest();
        assert!(i.si && i.ce && i.mode);
        assert!(!i.toggles_nd_sd);
        assert_eq!(i.target, DrTarget::Boundary);
    }

    #[test]
    fn o_sitest_freezes_detectors_and_toggles_ndsd() {
        let i = o_sitest();
        assert!(i.si, "SI stays asserted so Capture-DR reads detectors");
        assert!(!i.ce, "CE=0 preserves detector evidence during scan-out");
        assert!(i.toggles_nd_sd, "ND then SD across two scans");
    }

    #[test]
    fn extended_set_registers_cleanly() {
        let set = extended_instruction_set().unwrap();
        assert!(set.by_name("G-SITEST").is_some());
        assert!(set.by_name("O-SITEST").is_some());
        assert!(set.by_name("EXTEST").is_some());
        assert!(set.by_name("BYPASS").is_some());
        assert_eq!(set.iter().count(), 7);
    }

    #[test]
    fn opcodes_are_distinct_private_codes() {
        assert_ne!(G_SITEST_OPCODE, O_SITEST_OPCODE);
        assert_ne!(G_SITEST_OPCODE, 0b0000, "EXTEST reserved");
        assert_ne!(G_SITEST_OPCODE, 0b1111, "BYPASS reserved");
        assert_ne!(O_SITEST_OPCODE, 0b0000);
        assert_ne!(O_SITEST_OPCODE, 0b1111);
    }
}
