//! The 16-state IEEE 1149.1 TAP controller finite-state machine.
//!
//! State moves on every rising edge of TCK as a function of TMS only —
//! the property that lets a single two-wire broadcast control every
//! device on a board. The transition table below is verbatim from the
//! standard (IEEE Std 1149.1-2001, Figure 6-1).

use std::fmt;

/// A TAP controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapState {
    /// Test logic disabled; entered from anywhere with five TMS=1 clocks.
    TestLogicReset,
    /// Idle between scan operations.
    RunTestIdle,
    /// Temporary gateway into the DR column.
    SelectDrScan,
    /// Parallel load of the selected data register.
    CaptureDr,
    /// Serial shift of the selected data register.
    ShiftDr,
    /// First exit from shifting (DR).
    Exit1Dr,
    /// Shift paused (DR).
    PauseDr,
    /// Second exit (DR).
    Exit2Dr,
    /// Parallel update from the shift stage (DR).
    UpdateDr,
    /// Temporary gateway into the IR column.
    SelectIrScan,
    /// Parallel load of the instruction register (fixed `…01` pattern).
    CaptureIr,
    /// Serial shift of the instruction register.
    ShiftIr,
    /// First exit from shifting (IR).
    Exit1Ir,
    /// Shift paused (IR).
    PauseIr,
    /// Second exit (IR).
    Exit2Ir,
    /// New instruction becomes current.
    UpdateIr,
}

impl TapState {
    /// All sixteen states.
    pub const ALL: [TapState; 16] = [
        TapState::TestLogicReset,
        TapState::RunTestIdle,
        TapState::SelectDrScan,
        TapState::CaptureDr,
        TapState::ShiftDr,
        TapState::Exit1Dr,
        TapState::PauseDr,
        TapState::Exit2Dr,
        TapState::UpdateDr,
        TapState::SelectIrScan,
        TapState::CaptureIr,
        TapState::ShiftIr,
        TapState::Exit1Ir,
        TapState::PauseIr,
        TapState::Exit2Ir,
        TapState::UpdateIr,
    ];

    /// The state after one rising TCK edge with the given TMS level.
    #[must_use]
    pub fn next(self, tms: bool) -> TapState {
        use TapState::*;
        match (self, tms) {
            (TestLogicReset, false) => RunTestIdle,
            (TestLogicReset, true) => TestLogicReset,
            (RunTestIdle, false) => RunTestIdle,
            (RunTestIdle, true) => SelectDrScan,
            (SelectDrScan, false) => CaptureDr,
            (SelectDrScan, true) => SelectIrScan,
            (CaptureDr, false) => ShiftDr,
            (CaptureDr, true) => Exit1Dr,
            (ShiftDr, false) => ShiftDr,
            (ShiftDr, true) => Exit1Dr,
            (Exit1Dr, false) => PauseDr,
            (Exit1Dr, true) => UpdateDr,
            (PauseDr, false) => PauseDr,
            (PauseDr, true) => Exit2Dr,
            (Exit2Dr, false) => ShiftDr,
            (Exit2Dr, true) => UpdateDr,
            (UpdateDr, false) => RunTestIdle,
            (UpdateDr, true) => SelectDrScan,
            (SelectIrScan, false) => CaptureIr,
            (SelectIrScan, true) => TestLogicReset,
            (CaptureIr, false) => ShiftIr,
            (CaptureIr, true) => Exit1Ir,
            (ShiftIr, false) => ShiftIr,
            (ShiftIr, true) => Exit1Ir,
            (Exit1Ir, false) => PauseIr,
            (Exit1Ir, true) => UpdateIr,
            (PauseIr, false) => PauseIr,
            (PauseIr, true) => Exit2Ir,
            (Exit2Ir, false) => ShiftIr,
            (Exit2Ir, true) => UpdateIr,
            (UpdateIr, false) => RunTestIdle,
            (UpdateIr, true) => SelectDrScan,
        }
    }
}

impl Default for TapState {
    /// Power-up state mandated by the standard.
    fn default() -> Self {
        TapState::TestLogicReset
    }
}

impl fmt::Display for TapState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TapState::TestLogicReset => "Test-Logic-Reset",
            TapState::RunTestIdle => "Run-Test/Idle",
            TapState::SelectDrScan => "Select-DR-Scan",
            TapState::CaptureDr => "Capture-DR",
            TapState::ShiftDr => "Shift-DR",
            TapState::Exit1Dr => "Exit1-DR",
            TapState::PauseDr => "Pause-DR",
            TapState::Exit2Dr => "Exit2-DR",
            TapState::UpdateDr => "Update-DR",
            TapState::SelectIrScan => "Select-IR-Scan",
            TapState::CaptureIr => "Capture-IR",
            TapState::ShiftIr => "Shift-IR",
            TapState::Exit1Ir => "Exit1-IR",
            TapState::PauseIr => "Pause-IR",
            TapState::Exit2Ir => "Exit2-IR",
            TapState::UpdateIr => "Update-IR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TapState::*;

    #[test]
    fn five_ones_reset_from_any_state() {
        for start in TapState::ALL {
            let mut s = start;
            for _ in 0..5 {
                s = s.next(true);
            }
            assert_eq!(s, TestLogicReset, "from {start}");
        }
    }

    #[test]
    fn canonical_dr_scan_path() {
        let mut s = RunTestIdle;
        let path = [
            (true, SelectDrScan),
            (false, CaptureDr),
            (false, ShiftDr),
            (false, ShiftDr),
            (true, Exit1Dr),
            (true, UpdateDr),
            (false, RunTestIdle),
        ];
        for (tms, expect) in path {
            s = s.next(tms);
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn canonical_ir_scan_path() {
        let mut s = RunTestIdle;
        let path = [
            (true, SelectDrScan),
            (true, SelectIrScan),
            (false, CaptureIr),
            (false, ShiftIr),
            (true, Exit1Ir),
            (true, UpdateIr),
            (false, RunTestIdle),
        ];
        for (tms, expect) in path {
            s = s.next(tms);
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn pause_and_resume() {
        let mut s = ShiftDr;
        s = s.next(true); // Exit1
        s = s.next(false); // Pause
        assert_eq!(s, PauseDr);
        s = s.next(false); // stay paused
        assert_eq!(s, PauseDr);
        s = s.next(true); // Exit2
        s = s.next(false); // back to shifting
        assert_eq!(s, ShiftDr);
        s = s.next(true).next(true); // Exit1 → Update
        assert_eq!(s, UpdateDr);
    }

    #[test]
    fn update_can_chain_straight_into_next_scan() {
        assert_eq!(UpdateDr.next(true), SelectDrScan);
        assert_eq!(UpdateIr.next(true), SelectDrScan);
    }

    #[test]
    fn every_state_has_two_successors_in_table() {
        // Structural sanity: both TMS values lead somewhere legal.
        for s in TapState::ALL {
            let a = s.next(false);
            let b = s.next(true);
            assert!(TapState::ALL.contains(&a));
            assert!(TapState::ALL.contains(&b));
        }
    }

    #[test]
    fn default_is_reset() {
        assert_eq!(TapState::default(), TestLogicReset);
    }
}
