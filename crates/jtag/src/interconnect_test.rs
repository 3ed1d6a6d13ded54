//! Classic boundary-scan interconnect testing (EXTEST).
//!
//! The paper's §1 positions its contribution against what stock 1149.1
//! already covers: "the interconnects can be tested for stuck-at, open
//! and short faults … by \[the\] EXTEST instruction". This module
//! implements that baseline in full — a board-level net/wiring-fault
//! model and the two classical pattern algorithms:
//!
//! * the **counting sequence** (each net driven with the bits of its
//!   index: `⌈log₂(n+2)⌉` patterns detect any stuck-at and any
//!   pairwise short that merges two different codes), and
//! * the **walking-one** sequence (n patterns; additionally locates
//!   which net is shorted to which).
//!
//! Codes `0…0` and `1…1` are skipped in the counting sequence so a
//! stuck net can never alias a legitimate code (the classic
//! modified-counting refinement).

use crate::error::JtagError;
use sint_logic::{BitVector, Logic};
use std::collections::BTreeMap;
use std::fmt;

/// A wiring fault on a board interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WiringFault {
    /// Net shorted to ground.
    StuckAt0 {
        /// Affected net.
        net: usize,
    },
    /// Net shorted to power.
    StuckAt1 {
        /// Affected net.
        net: usize,
    },
    /// Broken trace: the receiver floats (reads as unknown → modelled
    /// as the technology's float level, here weak 1 like TTL).
    Open {
        /// Affected net.
        net: usize,
    },
    /// Two nets bridged; the winning level follows wired-AND (typical
    /// for CMOS drivers fighting: 0 wins).
    Bridge {
        /// First bridged net.
        a: usize,
        /// Second bridged net.
        b: usize,
    },
}

impl fmt::Display for WiringFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WiringFault::StuckAt0 { net } => write!(f, "net {net} stuck-at-0"),
            WiringFault::StuckAt1 { net } => write!(f, "net {net} stuck-at-1"),
            WiringFault::Open { net } => write!(f, "net {net} open"),
            WiringFault::Bridge { a, b } => write!(f, "nets {a} and {b} bridged"),
        }
    }
}

/// A board-level interconnect: `nets` point-to-point wires from driver
/// cells to receiver cells, with zero or more wiring faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoardWiring {
    nets: usize,
    faults: Vec<WiringFault>,
}

impl BoardWiring {
    /// A fault-free board with `nets` wires.
    #[must_use]
    pub fn new(nets: usize) -> Self {
        BoardWiring { nets, faults: Vec::new() }
    }

    /// Number of nets.
    #[must_use]
    pub fn nets(&self) -> usize {
        self.nets
    }

    /// Injects a fault.
    ///
    /// # Errors
    ///
    /// [`JtagError::CellOutOfRange`] if a referenced net is off-board.
    pub fn inject(&mut self, fault: WiringFault) -> Result<(), JtagError> {
        let check = |net: usize| {
            if net < self.nets {
                Ok(())
            } else {
                Err(JtagError::CellOutOfRange { index: net, len: self.nets })
            }
        };
        match fault {
            WiringFault::StuckAt0 { net }
            | WiringFault::StuckAt1 { net }
            | WiringFault::Open { net } => check(net)?,
            WiringFault::Bridge { a, b } => {
                check(a)?;
                check(b)?;
            }
        }
        self.faults.push(fault);
        Ok(())
    }

    /// The injected faults.
    #[must_use]
    pub fn faults(&self) -> &[WiringFault] {
        &self.faults
    }

    /// Propagates driven levels through the (possibly faulty) wiring to
    /// the receiver side.
    ///
    /// # Panics
    ///
    /// Panics if `driven.len() != self.nets()`.
    #[must_use]
    pub fn propagate(&self, driven: &[Logic]) -> Vec<Logic> {
        assert_eq!(driven.len(), self.nets, "drive vector width mismatch");
        let mut received: Vec<Logic> = driven.to_vec();
        for fault in &self.faults {
            match *fault {
                WiringFault::StuckAt0 { net } => received[net] = Logic::Zero,
                WiringFault::StuckAt1 { net } => received[net] = Logic::One,
                // A floating CMOS-era input with a pull-up reads 1.
                WiringFault::Open { net } => received[net] = Logic::One,
                WiringFault::Bridge { a, b } => {
                    // Wired-AND: a driven 0 overpowers a driven 1.
                    let v = received[a] & received[b];
                    received[a] = v;
                    received[b] = v;
                }
            }
        }
        received
    }
}

/// One applied pattern and the response it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternResult {
    /// The levels driven onto the nets.
    pub driven: Vec<Logic>,
    /// The levels captured at the receivers.
    pub received: Vec<Logic>,
}

/// The outcome of an interconnect test campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WiringDiagnosis {
    /// Nets whose received sequence differed from the driven one.
    pub failing_nets: Vec<usize>,
    /// Net pairs whose received sequences became identical under a
    /// detected short (walking-one localisation; empty for the counting
    /// sequence unless codes collide).
    pub shorted_groups: Vec<Vec<usize>>,
    /// Per-pattern raw results, for post-mortems.
    pub patterns: Vec<PatternResult>,
}

impl WiringDiagnosis {
    /// Whether the board passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failing_nets.is_empty() && self.shorted_groups.is_empty()
    }
}

/// Generates the modified counting sequence for `nets` wires:
/// `⌈log₂(nets + 2)⌉` patterns, net `i` driven with the bits of code
/// `i + 1` (skipping the all-0 code; the all-1 code is excluded by the
/// `+ 2` in the width computation).
#[must_use]
pub fn counting_sequence(nets: usize) -> Vec<Vec<Logic>> {
    if nets == 0 {
        return Vec::new();
    }
    let width = usize::BITS - (nets + 1).leading_zeros(); // ceil(log2(nets+2))
    (0..width)
        .map(|bit| {
            (0..nets)
                .map(|net| Logic::from((net + 1) >> bit & 1 == 1))
                .collect()
        })
        .collect()
}

/// Generates the walking-one sequence: pattern `k` drives net `k` high
/// and every other net low. Localises wired-**OR** shorts.
#[must_use]
pub fn walking_one(nets: usize) -> Vec<Vec<Logic>> {
    (0..nets)
        .map(|k| (0..nets).map(|n| Logic::from(n == k)).collect())
        .collect()
}

/// Generates the walking-zero sequence: pattern `k` drives net `k` low
/// and every other net high. Localises wired-**AND** shorts (the
/// typical CMOS case, where a driven 0 overpowers a driven 1) — under
/// walking-ones such a bridge reads all-zeros and is indistinguishable
/// from stuck-at-0.
#[must_use]
pub fn walking_zero(nets: usize) -> Vec<Vec<Logic>> {
    (0..nets)
        .map(|k| (0..nets).map(|n| Logic::from(n != k)).collect())
        .collect()
}

/// Diagnoses the responses of `nets` nets to a pattern set.
///
/// Detection logic: a net fails when any received bit differs from the
/// driven bit; failing nets are grouped as shorted when their
/// *received* response sequences are identical.
fn diagnose(nets: usize, results: Vec<PatternResult>) -> WiringDiagnosis {
    let failing: Vec<usize> = (0..nets)
        .filter(|&net| results.iter().any(|r| r.received[net] != r.driven[net]))
        .collect();
    let mut by_signature: BTreeMap<Vec<Logic>, Vec<usize>> = BTreeMap::new();
    for &net in &failing {
        let sig: Vec<Logic> = results.iter().map(|r| r.received[net]).collect();
        by_signature.entry(sig).or_default().push(net);
    }
    let shorted_groups: Vec<Vec<usize>> =
        by_signature.into_values().filter(|g| g.len() > 1).collect();
    WiringDiagnosis { failing_nets: failing, shorted_groups, patterns: results }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model-level reference: each pattern applied straight through
    /// the wiring model, no scan chain in between.
    pub(super) fn run_wiring_test(
        wiring: &BoardWiring,
        patterns: &[Vec<Logic>],
    ) -> WiringDiagnosis {
        let results = patterns
            .iter()
            .map(|p| PatternResult { driven: p.clone(), received: wiring.propagate(p) })
            .collect();
        diagnose(wiring.nets(), results)
    }

    #[test]
    fn counting_sequence_width_is_logarithmic() {
        assert_eq!(counting_sequence(0).len(), 0);
        assert_eq!(counting_sequence(1).len(), 2); // codes 1..=1 need ceil(log2(3)) = 2
        assert_eq!(counting_sequence(6).len(), 3); // codes 1..=6 in 3 bits
        assert_eq!(counting_sequence(7).len(), 4); // code 7 would be all-ones → widen
        assert_eq!(counting_sequence(30).len(), 5);
    }

    #[test]
    fn counting_codes_are_unique_and_avoid_all_same() {
        let nets = 12;
        let seq = counting_sequence(nets);
        let mut codes = std::collections::BTreeSet::new();
        for net in 0..nets {
            let code: Vec<Logic> = seq.iter().map(|p| p[net]).collect();
            assert!(code.contains(&Logic::One), "no all-zero code");
            assert!(code.contains(&Logic::Zero), "no all-one code");
            assert!(codes.insert(code), "codes must be unique");
        }
    }

    #[test]
    fn walking_one_shape() {
        let seq = walking_one(4);
        assert_eq!(seq.len(), 4);
        for (k, p) in seq.iter().enumerate() {
            assert_eq!(p.iter().filter(|b| **b == Logic::One).count(), 1);
            assert_eq!(p[k], Logic::One);
        }
    }

    #[test]
    fn clean_board_passes_both_algorithms() {
        let wiring = BoardWiring::new(8);
        for patterns in [counting_sequence(8), walking_one(8)] {
            let d = run_wiring_test(&wiring, &patterns);
            assert!(d.passed(), "{d:?}");
        }
    }

    #[test]
    fn stuck_at_detected_by_counting() {
        for (fault, net) in [
            (WiringFault::StuckAt0 { net: 3 }, 3usize),
            (WiringFault::StuckAt1 { net: 5 }, 5),
            (WiringFault::Open { net: 0 }, 0),
        ] {
            let mut wiring = BoardWiring::new(8);
            wiring.inject(fault).unwrap();
            let d = run_wiring_test(&wiring, &counting_sequence(8));
            assert_eq!(d.failing_nets, vec![net], "{fault}");
        }
    }

    #[test]
    fn bridge_detected_and_localised_by_walking_one() {
        let mut wiring = BoardWiring::new(6);
        wiring.inject(WiringFault::Bridge { a: 1, b: 4 }).unwrap();
        let d = run_wiring_test(&wiring, &walking_one(6));
        assert_eq!(d.failing_nets, vec![1, 4]);
        assert_eq!(d.shorted_groups, vec![vec![1, 4]]);
    }

    #[test]
    fn walking_zero_separates_and_bridge_from_stuck_at_0() {
        // Under walking-ones, a wired-AND bridge and a stuck-at-0 net
        // all read constant 0 and collapse into one group; walking-zeros
        // tells them apart.
        let mut wiring = BoardWiring::new(8);
        wiring.inject(WiringFault::StuckAt0 { net: 1 }).unwrap();
        wiring.inject(WiringFault::Bridge { a: 3, b: 6 }).unwrap();
        let ones = run_wiring_test(&wiring, &walking_one(8));
        assert_eq!(ones.shorted_groups, vec![vec![1, 3, 6]], "ones cannot separate");
        let zeros = run_wiring_test(&wiring, &walking_zero(8));
        assert_eq!(zeros.failing_nets, vec![1, 3, 6]);
        assert_eq!(zeros.shorted_groups, vec![vec![3, 6]], "zeros isolate the bridge");
    }

    #[test]
    fn walking_zero_shape() {
        let seq = walking_zero(4);
        assert_eq!(seq.len(), 4);
        for (k, p) in seq.iter().enumerate() {
            assert_eq!(p.iter().filter(|b| **b == Logic::Zero).count(), 1);
            assert_eq!(p[k], Logic::Zero);
        }
    }

    #[test]
    fn bridge_detected_by_counting_when_codes_differ() {
        let mut wiring = BoardWiring::new(6);
        wiring.inject(WiringFault::Bridge { a: 0, b: 5 }).unwrap();
        // Codes 1 (001) and 6 (110) differ in every bit: wired-AND gives
        // 000 on both, visibly different from both drives.
        let d = run_wiring_test(&wiring, &counting_sequence(6));
        assert_eq!(d.failing_nets, vec![0, 5]);
        assert_eq!(d.shorted_groups, vec![vec![0, 5]]);
    }

    #[test]
    fn wired_and_semantics() {
        let mut wiring = BoardWiring::new(2);
        wiring.inject(WiringFault::Bridge { a: 0, b: 1 }).unwrap();
        let out = wiring.propagate(&[Logic::One, Logic::Zero]);
        assert_eq!(out, vec![Logic::Zero, Logic::Zero], "0 overpowers 1");
        let out = wiring.propagate(&[Logic::One, Logic::One]);
        assert_eq!(out, vec![Logic::One, Logic::One]);
    }

    #[test]
    fn multiple_faults_all_flagged() {
        let mut wiring = BoardWiring::new(8);
        wiring.inject(WiringFault::StuckAt0 { net: 2 }).unwrap();
        wiring.inject(WiringFault::Bridge { a: 5, b: 6 }).unwrap();
        let d = run_wiring_test(&wiring, &walking_one(8));
        assert_eq!(d.failing_nets, vec![2, 5, 6]);
    }

    #[test]
    fn injection_bounds_checked() {
        let mut wiring = BoardWiring::new(3);
        assert!(wiring.inject(WiringFault::StuckAt0 { net: 3 }).is_err());
        assert!(wiring.inject(WiringFault::Bridge { a: 0, b: 9 }).is_err());
        assert!(wiring.inject(WiringFault::Open { net: 2 }).is_ok());
        assert_eq!(wiring.faults().len(), 1);
    }

    #[test]
    fn fault_display() {
        assert_eq!(WiringFault::Bridge { a: 1, b: 2 }.to_string(), "nets 1 and 2 bridged");
        assert_eq!(WiringFault::StuckAt1 { net: 4 }.to_string(), "net 4 stuck-at-1");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn propagate_checks_width() {
        let wiring = BoardWiring::new(3);
        let _ = wiring.propagate(&[Logic::One]);
    }
}

/// Drives a full EXTEST interconnect test over a real two-device scan
/// chain: device 0's boundary cells drive the wiring, device 1's cells
/// capture the received levels; the host scans patterns in and
/// responses out exactly as an ATE would.
///
/// The chain must contain exactly two devices whose boundary registers
/// are at least `wiring.nets()` cells long; cell `i` of device 0 drives
/// net `i`, cell `i` of device 1 receives it.
///
/// # Errors
///
/// [`JtagError`] on chain-shape mismatches or scan failures.
pub fn run_extest_over_chain(
    driver: &mut crate::driver::JtagDriver,
    wiring: &BoardWiring,
    patterns: &[Vec<Logic>],
) -> Result<WiringDiagnosis, JtagError> {
    let nets = wiring.nets();
    if driver.chain().len() != 2 {
        return Err(JtagError::DeviceOutOfRange { index: 2, len: driver.chain().len() });
    }
    for d in 0..2 {
        let len = driver.chain().device(d)?.boundary().len();
        if len < nets {
            return Err(JtagError::ScanWidth { expected: nets, got: len });
        }
    }
    driver.reset();
    driver.load_instruction("EXTEST")?;
    let d0_len = driver.chain().device(0)?.boundary().len();
    let d1_len = driver.chain().device(1)?.boundary().len();

    let mut results = Vec::with_capacity(patterns.len());
    for pattern in patterns {
        // Build the chain-wide scan word: device 0 cells carry the
        // drive pattern; device 1 cells are don't-care zeros. The last
        // bit shifted lands in device 0 cell 0, so shift in reverse
        // cell order across the whole chain (device 1 first).
        let mut word = BitVector::new();
        for _ in 0..d1_len {
            word.push(Logic::Zero);
        }
        for i in (0..d0_len).rev() {
            word.push(if i < nets { pattern[i] } else { Logic::Zero });
        }
        driver.scan_dr(&word)?;
        // Update-DR drove device 0's update stages onto the nets; let
        // the wiring settle and present levels at device 1's pins.
        let ctrl0 = driver.chain().device(0)?.cell_control();
        let driven: Vec<Logic> = (0..nets)
            .map(|i| {
                driver
                    .chain()
                    .device(0)
                    .expect("device 0 exists")
                    .boundary()
                    .cell(i)
                    .expect("cell in range")
                    .output(&ctrl0)
            })
            .collect();
        let received = wiring.propagate(&driven);
        for (i, v) in received.iter().enumerate() {
            driver
                .chain_mut()
                .device_mut(1)?
                .boundary_mut()
                .cell_mut(i)?
                .set_parallel_input(*v);
        }
        // Capture + scan out the responses.
        let out = driver.scan_dr(&BitVector::zeros(d0_len + d1_len))?;
        // Device 1 is on the TDO side... its cell i sits at chain
        // position d0_len + i; a full scan emits cell (L-1-k) at step k.
        let total = d0_len + d1_len;
        let captured: Vec<Logic> = (0..nets)
            .map(|i| out.get(total - 1 - (d0_len + i)).unwrap_or(Logic::X))
            .collect();
        results.push(PatternResult { driven, received: captured });
    }
    Ok(diagnose(nets, results))
}

#[cfg(test)]
mod chain_tests {
    use super::tests::run_wiring_test;
    use super::*;
    use crate::bcell::StandardBsc;
    use crate::chain::Chain;
    use crate::device::Device;
    use crate::driver::JtagDriver;
    use crate::instruction::InstructionSet;

    fn board(nets: usize) -> JtagDriver {
        let mut chain = Chain::new();
        for name in ["driver_chip", "receiver_chip"] {
            let mut d = Device::new(name, InstructionSet::standard_1149_1());
            for _ in 0..nets {
                d.push_cell(Box::new(StandardBsc::new()));
            }
            chain.push(d);
        }
        let mut drv = JtagDriver::new(chain);
        drv.reset();
        drv
    }

    #[test]
    fn extest_over_chain_passes_clean_board() {
        let mut drv = board(6);
        let wiring = BoardWiring::new(6);
        let d = run_extest_over_chain(&mut drv, &wiring, &counting_sequence(6)).unwrap();
        assert!(d.passed(), "{d:?}");
        assert_eq!(d, run_wiring_test(&wiring, &counting_sequence(6)));
    }

    #[test]
    fn extest_over_chain_finds_stuck_net() {
        let mut drv = board(6);
        let mut wiring = BoardWiring::new(6);
        wiring.inject(WiringFault::StuckAt1 { net: 2 }).unwrap();
        let d = run_extest_over_chain(&mut drv, &wiring, &counting_sequence(6)).unwrap();
        assert_eq!(d.failing_nets, vec![2]);
        assert_eq!(d, run_wiring_test(&wiring, &counting_sequence(6)));
    }

    #[test]
    fn extest_over_chain_localises_bridge() {
        let mut drv = board(5);
        let mut wiring = BoardWiring::new(5);
        wiring.inject(WiringFault::Bridge { a: 0, b: 3 }).unwrap();
        let d = run_extest_over_chain(&mut drv, &wiring, &walking_one(5)).unwrap();
        assert_eq!(d.shorted_groups, vec![vec![0, 3]]);
        assert_eq!(d, run_wiring_test(&wiring, &walking_one(5)));
    }

    #[test]
    fn extest_over_chain_validates_shape() {
        // One-device chain rejected.
        let mut chain = Chain::new();
        let mut d = Device::new("solo", InstructionSet::standard_1149_1());
        d.push_cell(Box::new(StandardBsc::new()));
        chain.push(d);
        let mut drv = JtagDriver::new(chain);
        drv.reset();
        let wiring = BoardWiring::new(1);
        assert!(run_extest_over_chain(&mut drv, &wiring, &walking_one(1)).is_err());
        // Too-short boundary rejected.
        let mut drv = board(2);
        let wiring = BoardWiring::new(5);
        assert!(run_extest_over_chain(&mut drv, &wiring, &walking_one(5)).is_err());
    }
}
