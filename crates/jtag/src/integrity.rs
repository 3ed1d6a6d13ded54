//! Pre-session chain-integrity self-check.
//!
//! Before an SI integrity session can be trusted, the scan
//! infrastructure itself must be qualified — a stuck serial bit or a
//! wedged TAP silently corrupts every verdict. [`check_chain`] runs the
//! classic ATE qualification sequence against a [`JtagDriver`]:
//!
//! 1. **Reset probe** — hard TAP reset, then verify the controller
//!    actually landed in Run-Test/Idle.
//! 2. **BYPASS flush** — after reset every device selects its 1-bit
//!    bypass register, so the selected DR is exactly `len` bits; a
//!    known aperiodic pattern shifted through must come back delayed by
//!    exactly `len` TCKs with the leading captured zeros intact. This
//!    exposes stuck-at lines (constant TDO), flipped bits (isolated
//!    mismatches), dropped clock edges (stream deletions) and
//!    wrong-length chains (wrong latency).
//! 3. **IR capture readback** — an IR scan of all-BYPASS opcodes must
//!    return every device's mandatory `…01` Capture-IR pattern, pinning
//!    faults to a device when the DR path alone cannot.
//!
//! After *every* operation the TAP must be back in Run-Test/Idle —
//! which is how control faults that latch mid-scan (a TAP stuck in
//! Shift-DR or Shift-IR) are caught.
//!
//! The result is a structured [`ChainCheckReport`] naming each anomaly
//! down to the bit or device, so the caller can report an
//! *infrastructure* fault instead of misblaming the interconnect.

use crate::driver::JtagDriver;
use crate::error::JtagError;
use crate::state::TapState;
use sint_logic::{BitVector, Logic};
use sint_runtime::json::{Json, ToJson};
use std::fmt;

/// One structural anomaly found by [`check_chain`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainAnomaly {
    /// The TAP was not in Run-Test/Idle after an operation that must
    /// end there — the controller is unresponsive or wedged.
    TapUnresponsive {
        /// Which check phase observed it (`"reset"`, `"bypass-flush"`,
        /// `"ir-scan"`).
        phase: &'static str,
        /// Where the TAP actually was.
        observed: TapState,
    },
    /// The BYPASS flush returned no driven bits at all: TDO is dead
    /// (or the TAP never entered Shift-DR, so TDO stayed tri-stated).
    TdoSilent,
    /// Every driven TDO bit of the flush read the same level although
    /// the expected stream has both — a stuck serial line.
    SerialStuck {
        /// The constant level observed (`true` = stuck at 1).
        level: bool,
        /// First flush bit whose expected value differs from `level`.
        bit: usize,
    },
    /// The flush pattern came back delayed by the wrong number of bits:
    /// the chain does not have the expected number of bypass stages.
    ChainLengthMismatch {
        /// Bypass stages the board expects (devices on the chain).
        expected: usize,
        /// Latency actually observed, when one fit the stream at all.
        observed: Option<usize>,
    },
    /// The flush stream had isolated corrupt bits (correct latency,
    /// wrong values): an intermittent flip or dropped-edge deletion.
    ShiftPathCorrupt {
        /// First flush bit that mismatched.
        bit: usize,
    },
    /// A device's mandatory `…01` Capture-IR pattern read back wrong —
    /// pins the fault to that device's IR segment.
    IrCaptureMismatch {
        /// Device index (0 = nearest TDI).
        device: usize,
        /// Expected capture bits, LSB-first scan order.
        expected: String,
        /// Observed capture bits, LSB-first scan order.
        observed: String,
    },
    /// The boundary-register shift path returned a constant level while
    /// the probe pattern has both — a stuck segment *inside* the
    /// boundary path. Invisible to the BYPASS flush (the bypass
    /// register bypasses the boundary cells), so only
    /// [`check_boundary`] can see it.
    BoundaryPathStuck {
        /// The constant level observed (`true` = stuck at 1).
        level: bool,
        /// First pattern bit whose expected value differs from `level`.
        bit: usize,
    },
}

impl fmt::Display for ChainAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainAnomaly::TapUnresponsive { phase, observed } => {
                write!(f, "TAP unresponsive after {phase}: landed in {observed}")
            }
            ChainAnomaly::TdoSilent => write!(f, "TDO never driven during BYPASS flush"),
            ChainAnomaly::SerialStuck { level, bit } => {
                write!(f, "serial path stuck at {} (first bad bit {bit})", u8::from(*level))
            }
            ChainAnomaly::ChainLengthMismatch { expected, observed } => match observed {
                Some(got) => write!(f, "chain length {got}, expected {expected}"),
                None => write!(f, "no bypass latency fits the flush (expected {expected})"),
            },
            ChainAnomaly::ShiftPathCorrupt { bit } => {
                write!(f, "shift path corrupt: first bad flush bit {bit}")
            }
            ChainAnomaly::IrCaptureMismatch { device, expected, observed } => {
                write!(f, "device {device} IR capture read {observed:?}, expected {expected:?}")
            }
            ChainAnomaly::BoundaryPathStuck { level, bit } => {
                write!(
                    f,
                    "boundary shift path stuck at {} (first bad pattern bit {bit})",
                    u8::from(*level)
                )
            }
        }
    }
}

impl ToJson for ChainAnomaly {
    fn to_json(&self) -> Json {
        match self {
            ChainAnomaly::TapUnresponsive { phase, observed } => Json::obj([
                ("kind", "tap_unresponsive".to_json()),
                ("phase", (*phase).to_json()),
                ("observed", observed.to_string().to_json()),
            ]),
            ChainAnomaly::TdoSilent => Json::obj([("kind", "tdo_silent".to_json())]),
            ChainAnomaly::SerialStuck { level, bit } => Json::obj([
                ("kind", "serial_stuck".to_json()),
                ("level", level.to_json()),
                ("bit", bit.to_json()),
            ]),
            ChainAnomaly::ChainLengthMismatch { expected, observed } => Json::obj([
                ("kind", "chain_length_mismatch".to_json()),
                ("expected", expected.to_json()),
                ("observed", observed.to_json()),
            ]),
            ChainAnomaly::ShiftPathCorrupt { bit } => Json::obj([
                ("kind", "shift_path_corrupt".to_json()),
                ("bit", bit.to_json()),
            ]),
            ChainAnomaly::IrCaptureMismatch { device, expected, observed } => Json::obj([
                ("kind", "ir_capture_mismatch".to_json()),
                ("device", device.to_json()),
                ("expected", expected.to_json()),
                ("observed", observed.to_json()),
            ]),
            ChainAnomaly::BoundaryPathStuck { level, bit } => Json::obj([
                ("kind", "boundary_path_stuck".to_json()),
                ("level", level.to_json()),
                ("bit", bit.to_json()),
            ]),
        }
    }
}

/// Structured result of [`check_chain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainCheckReport {
    /// Devices on the chain under check.
    pub devices: usize,
    /// Every anomaly found, in detection order (empty = healthy).
    pub anomalies: Vec<ChainAnomaly>,
    /// TCKs the check spent (excluded from session cost accounting).
    pub tck_cost: u64,
}

impl ChainCheckReport {
    /// Whether the infrastructure passed every probe.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.anomalies.is_empty()
    }
}

impl fmt::Display for ChainCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.healthy() {
            write!(f, "chain self-check: healthy ({} devices, {} TCKs)", self.devices, self.tck_cost)
        } else {
            write!(f, "chain self-check FAILED ({} devices): ", self.devices)?;
            for (i, a) in self.anomalies.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{a}")?;
            }
            Ok(())
        }
    }
}

impl ToJson for ChainCheckReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("devices", self.devices.to_json()),
            ("healthy", self.healthy().to_json()),
            ("tck_cost", self.tck_cost.to_json()),
            ("anomalies", self.anomalies.to_json()),
        ])
    }
}

/// An aperiodic probe pattern (top bit of a Weyl sequence): both levels
/// in every short window, no repetition period for latency aliasing.
fn flush_pattern(len: usize) -> Vec<Logic> {
    (0..len as u64)
        .map(|i| {
            let hi = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63;
            Logic::from(hi == 1)
        })
        .collect()
}

/// Runs the full chain-integrity check. See the module docs for the
/// sequence. Costs O(chain length) TCKs; the caller decides whether
/// those count toward session totals (the `Soc` excludes them).
///
/// # Errors
///
/// [`JtagError::EmptyChain`] when the chain has no devices; scan-layer
/// errors from the probe operations themselves. A *fault* found by the
/// check is not an `Err` — it is reported in the returned
/// [`ChainCheckReport`].
pub fn check_chain(driver: &mut JtagDriver) -> Result<ChainCheckReport, JtagError> {
    let devices = driver.chain().len();
    if devices == 0 {
        return Err(JtagError::EmptyChain);
    }
    let start_tck = driver.tck();
    let mut anomalies = Vec::new();
    let report = |anomalies: Vec<ChainAnomaly>, driver: &JtagDriver| ChainCheckReport {
        devices,
        anomalies,
        tck_cost: driver.tck() - start_tck,
    };

    // Phase 1: reset probe. A TAP that cannot reach Run-Test/Idle is
    // unusable; nothing further can be trusted.
    driver.reset();
    if driver.state() != TapState::RunTestIdle {
        anomalies.push(ChainAnomaly::TapUnresponsive {
            phase: "reset",
            observed: driver.state(),
        });
        return Ok(report(anomalies, driver));
    }

    // Phase 2: BYPASS flush. Post-reset every IR holds BYPASS, so the
    // serial path is `devices` one-bit stages capturing 0.
    let probe_len = 16usize.max(2 * devices);
    let pattern = flush_pattern(probe_len);
    let tdi: BitVector = pattern.iter().copied().chain(std::iter::repeat_n(Logic::Zero, devices)).collect();
    let out = driver.shift_dr_bits(&tdi)?;
    if driver.state() != TapState::RunTestIdle {
        anomalies.push(ChainAnomaly::TapUnresponsive {
            phase: "bypass-flush",
            observed: driver.state(),
        });
        return Ok(report(anomalies, driver));
    }
    let expected: Vec<Logic> = std::iter::repeat_n(Logic::Zero, devices)
        .chain(pattern.iter().copied())
        .take(out.len())
        .collect();
    analyse_flush(devices, &pattern, &expected, &out, &mut anomalies);

    // Phase 3: IR capture readback. Shift all-BYPASS opcodes (leaves
    // the chain in the state the reset put it in) and compare each
    // device's mandatory ...01 capture pattern.
    let mut ir_bits = BitVector::new();
    for idx in (0..devices).rev() {
        let set = driver.chain().device(idx)?.instruction_set();
        match set.by_name("BYPASS") {
            Some(inst) => ir_bits.extend(inst.opcode.iter()),
            // The standard reserves all-ones for BYPASS even when the
            // set does not name it.
            None => ir_bits.extend(std::iter::repeat_n(Logic::One, set.ir_width())),
        }
    }
    let ir_out = driver.scan_ir(&ir_bits)?;
    if driver.state() != TapState::RunTestIdle {
        anomalies.push(ChainAnomaly::TapUnresponsive {
            phase: "ir-scan",
            observed: driver.state(),
        });
        return Ok(report(anomalies, driver));
    }
    let mut cursor = 0;
    for idx in (0..devices).rev() {
        let width = driver.chain().device(idx)?.instruction_set().ir_width();
        let capture = BitVector::from_u64(0b01, width);
        let observed: Vec<Logic> = (cursor..cursor + width).filter_map(|i| ir_out.get(i)).collect();
        cursor += width;
        if observed.len() != width || capture.iter().zip(observed.iter()).any(|(e, o)| e != *o) {
            anomalies.push(ChainAnomaly::IrCaptureMismatch {
                device: idx,
                expected: capture.iter().map(Logic::to_char).collect(),
                observed: observed.iter().map(|l| l.to_char()).collect(),
            });
        }
    }

    Ok(report(anomalies, driver))
}

/// Qualifies the *boundary* shift path, which the BYPASS flush of
/// [`check_chain`] never exercises: a stuck segment between two
/// boundary cells (e.g. [`crate::fault::ScanFault::BoundaryStuck`]) is
/// invisible to bypass probing because the 1-bit bypass register sits
/// on its own serial path.
///
/// Loads `SAMPLE/PRELOAD` on every device (non-invasive: pins are not
/// driven) and shifts an aperiodic pattern through the concatenated
/// boundary registers. The leading `cells` bits out are captured pin
/// values (unknowable here) and are ignored; the pattern must then
/// reappear verbatim. A constant level instead is reported as
/// [`ChainAnomaly::BoundaryPathStuck`]; other damage as
/// [`ChainAnomaly::ShiftPathCorrupt`].
///
/// Leaves `SAMPLE/PRELOAD` loaded and the scrubbed pattern in the
/// boundary flip-flops; callers are expected to reset / preload before
/// the session proper (the `Soc` does).
///
/// # Errors
///
/// [`JtagError::EmptyChain`] when the chain has no devices;
/// [`JtagError::UnknownInstruction`] when a device lacks
/// `SAMPLE/PRELOAD`; scan-layer errors from the probe operations. A
/// *fault* found by the check is reported in the
/// [`ChainCheckReport`], not as an `Err`.
pub fn check_boundary(driver: &mut JtagDriver) -> Result<ChainCheckReport, JtagError> {
    let devices = driver.chain().len();
    if devices == 0 {
        return Err(JtagError::EmptyChain);
    }
    let start_tck = driver.tck();
    let mut anomalies = Vec::new();

    driver.load_instruction("SAMPLE/PRELOAD")?;
    if driver.state() != TapState::RunTestIdle {
        anomalies.push(ChainAnomaly::TapUnresponsive {
            phase: "boundary-select",
            observed: driver.state(),
        });
        return Ok(ChainCheckReport { devices, anomalies, tck_cost: driver.tck() - start_tck });
    }

    let cells = driver.chain().selected_dr_len();
    let probe_len = 16usize.max(2 * cells);
    let pattern = flush_pattern(probe_len);
    let tdi: BitVector = pattern
        .iter()
        .copied()
        .chain(std::iter::repeat_n(Logic::Zero, cells))
        .collect();
    let out = driver.shift_dr_bits(&tdi)?;
    if driver.state() != TapState::RunTestIdle {
        anomalies.push(ChainAnomaly::TapUnresponsive {
            phase: "boundary-flush",
            observed: driver.state(),
        });
        return Ok(ChainCheckReport { devices, anomalies, tck_cost: driver.tck() - start_tck });
    }

    // Only the delayed pattern window is predictable: the first `cells`
    // bits are whatever Capture-DR sampled off the pins.
    let window: Vec<Logic> = out.iter().skip(cells).collect();
    let mismatch = window.iter().zip(pattern.iter()).position(|(o, e)| o != e);
    if let Some(first_bad) = mismatch {
        let driven: Vec<Logic> = window.iter().copied().filter(|l| l.is_binary()).collect();
        let stuck_level = driven.first().copied().filter(|&lv| driven.iter().all(|&l| l == lv));
        match stuck_level {
            Some(level) if pattern.iter().any(|&p| p.is_binary() && p != level) => {
                anomalies.push(ChainAnomaly::BoundaryPathStuck {
                    level: level == Logic::One,
                    bit: first_bad,
                });
            }
            _ => anomalies.push(ChainAnomaly::ShiftPathCorrupt { bit: first_bad }),
        }
    }

    Ok(ChainCheckReport { devices, anomalies, tck_cost: driver.tck() - start_tck })
}

/// The wires an integrity session must treat as untestable after a
/// boundary fault was localized: quarantined wires are excluded as
/// victims and parked at a quiescent drive as aggressors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineSet {
    /// `mask[w]` = wire `w` is quarantined.
    mask: Vec<bool>,
}

impl QuarantineSet {
    /// A clear set: every one of `wires` wires is healthy.
    #[must_use]
    pub fn none(wires: usize) -> Self {
        QuarantineSet { mask: vec![false; wires] }
    }

    /// A full quarantine: no wire is testable.
    #[must_use]
    pub fn all(wires: usize) -> Self {
        QuarantineSet { mask: vec![true; wires] }
    }

    /// Builds a set quarantining exactly the listed wires (out-of-range
    /// indices are ignored).
    #[must_use]
    pub fn from_quarantined(wires: usize, quarantined: impl IntoIterator<Item = usize>) -> Self {
        let mut mask = vec![false; wires];
        for w in quarantined {
            if let Some(slot) = mask.get_mut(w) {
                *slot = true;
            }
        }
        QuarantineSet { mask }
    }

    /// Total wires the set describes.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.mask.len()
    }

    /// Whether `wire` is quarantined. Out-of-range wires are reported
    /// quarantined (conservative).
    #[must_use]
    pub fn is_quarantined(&self, wire: usize) -> bool {
        self.mask.get(wire).copied().unwrap_or(true)
    }

    /// Whether no wire is quarantined.
    #[must_use]
    fn is_clear(&self) -> bool {
        !self.mask.iter().any(|&q| q)
    }

    /// Number of healthy (non-quarantined) wires.
    #[must_use]
    pub fn healthy_count(&self) -> usize {
        self.mask.iter().filter(|&&q| !q).count()
    }

    /// Indices of healthy wires, ascending.
    #[must_use]
    pub fn healthy_wires(&self) -> Vec<usize> {
        (0..self.mask.len()).filter(|&w| !self.mask[w]).collect()
    }

    /// Indices of quarantined wires, ascending.
    #[must_use]
    pub fn quarantined_wires(&self) -> Vec<usize> {
        (0..self.mask.len()).filter(|&w| self.mask[w]).collect()
    }
}

impl fmt::Display for QuarantineSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clear() {
            write!(f, "no wires quarantined ({} healthy)", self.wires())
        } else {
            write!(
                f,
                "wires {:?} quarantined ({} of {} healthy)",
                self.quarantined_wires(),
                self.healthy_count(),
                self.wires()
            )
        }
    }
}

impl ToJson for QuarantineSet {
    fn to_json(&self) -> Json {
        Json::obj([
            ("wires", self.wires().to_json()),
            ("healthy", self.healthy_count().to_json()),
            ("quarantined", self.quarantined_wires().to_json()),
        ])
    }
}

/// Result of [`localize_boundary_fault`]: which wires the walking-one
/// probe could still drive *and* observe, the chain cell whose outgoing
/// shift segment is implicated (when the response set is consistent
/// with a single break), and the quarantine that follows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultLocalization {
    /// `responding[w]` = wire `w` passed the walking-one round trip.
    pub responding: Vec<bool>,
    /// Chain-position of the boundary cell whose *outgoing* shift
    /// segment is broken, under the SI chain layout (PGBSC cell `w` at
    /// position `w`, observation cell `w` at position `wires + w`).
    /// `None` when every wire responds (no boundary break reaches the
    /// probe) or when the responses do not fit a single break.
    pub segment: Option<usize>,
    /// Wires the degraded session must exclude.
    pub quarantine: QuarantineSet,
    /// TCKs the probe spent (excluded from session cost accounting).
    pub tck_cost: u64,
}

impl ToJson for FaultLocalization {
    fn to_json(&self) -> Json {
        let responding: Vec<usize> =
            (0..self.responding.len()).filter(|&w| self.responding[w]).collect();
        Json::obj([
            ("responding", responding.to_json()),
            ("segment", self.segment.to_json()),
            ("quarantine", self.quarantine.to_json()),
            ("tck_cost", self.tck_cost.to_json()),
        ])
    }
}

/// Localizes a boundary shift-path break by walking a one across the
/// bus and reading back which wires still complete the full
/// drive → interconnect → capture → scan-out loop.
///
/// The probe itself is supplied by the caller because it needs the
/// SoC's pattern-generation chain layout and an interconnect model:
/// `probe(driver, None)` must run a baseline pass with every wire
/// parked at 0 and return the per-wire readback; `probe(driver,
/// Some(w))` must drive a one on wire `w` alone and return the same.
/// Wire `w` *responds* when the walking-one pass reads it as 1 and the
/// baseline read it as 0 — i.e. its drive cell is still controllable
/// and its observation cell still observable through the broken chain.
///
/// The response set is then mapped to a quarantine under the
/// single-break assumption and the SI chain layout (drive cells at
/// positions `0..wires`, observation cells at `wires..2*wires`):
///
/// * every wire responds → clear quarantine (`segment = None`);
/// * a prefix `{0..=j}` responds → the segment leaving drive cell `j`
///   is broken; wires `j+1..` are uncontrollable and quarantined;
/// * a suffix `{j..}` responds → the segment leaving observation cell
///   `wires + j - 1` is broken; wires `0..j` are unobservable and
///   quarantined;
/// * no wire or a non-contiguous set responds → the break cannot be
///   attributed to one segment; every wire is quarantined
///   (conservative, `segment = None`).
///
/// # Errors
///
/// Whatever the caller's probe reports (scan-layer [`JtagError`]s).
pub fn localize_boundary_fault<F>(
    driver: &mut JtagDriver,
    wires: usize,
    mut probe: F,
) -> Result<FaultLocalization, JtagError>
where
    F: FnMut(&mut JtagDriver, Option<usize>) -> Result<Vec<bool>, JtagError>,
{
    let start_tck = driver.tck();
    let baseline = probe(driver, None)?;
    let mut responding = vec![false; wires];
    for (w, slot) in responding.iter_mut().enumerate() {
        let read = probe(driver, Some(w))?;
        *slot = read.get(w).copied().unwrap_or(false)
            && !baseline.get(w).copied().unwrap_or(true);
    }
    let (segment, quarantine) = map_responses(&responding);
    Ok(FaultLocalization { responding, segment, quarantine, tck_cost: driver.tck() - start_tck })
}

/// Maps a walking-one response set to the implicated chain segment and
/// quarantine (see [`localize_boundary_fault`] for the rules).
fn map_responses(responding: &[bool]) -> (Option<usize>, QuarantineSet) {
    let wires = responding.len();
    let count = responding.iter().filter(|&&r| r).count();
    if count == wires {
        return (None, QuarantineSet::none(wires));
    }
    if count == 0 {
        return (None, QuarantineSet::all(wires));
    }
    let first = responding.iter().position(|&r| r).unwrap_or(0);
    let last = responding.iter().rposition(|&r| r).unwrap_or(0);
    if last + 1 - first != count {
        // Non-contiguous: not a single break.
        return (None, QuarantineSet::all(wires));
    }
    if first == 0 {
        // Prefix {0..=last}: break leaves drive cell `last`; everything
        // further from TDI is uncontrollable.
        (Some(last), QuarantineSet::from_quarantined(wires, last + 1..wires))
    } else if last == wires - 1 {
        // Suffix {first..}: break leaves observation cell
        // `wires + first - 1`; wires before it are unobservable.
        (Some(wires + first - 1), QuarantineSet::from_quarantined(wires, 0..first))
    } else {
        // An interior island cannot come from one break.
        (None, QuarantineSet::all(wires))
    }
}

/// Classifies a corrupt BYPASS flush: dead TDO, stuck level, wrong
/// latency, or isolated corruption.
fn analyse_flush(
    devices: usize,
    pattern: &[Logic],
    expected: &[Logic],
    out: &BitVector,
    anomalies: &mut Vec<ChainAnomaly>,
) {
    let observed: Vec<Logic> = out.iter().collect();
    let mismatch = observed
        .iter()
        .zip(expected.iter())
        .position(|(o, e)| o != e);
    let Some(first_bad) = mismatch else {
        return; // byte-perfect flush
    };

    if !observed.iter().any(|l| l.is_binary()) {
        anomalies.push(ChainAnomaly::TdoSilent);
        return;
    }

    // Constant level across every driven bit, while the expectation has
    // both levels → a stuck serial line.
    let driven: Vec<Logic> = observed.iter().copied().filter(|l| l.is_binary()).collect();
    if let Some(&level) = driven.first() {
        if driven.iter().all(|&l| l == level) {
            let stuck = level == Logic::One;
            if let Some(bit) = expected.iter().position(|&e| e.is_binary() && e != level) {
                anomalies.push(ChainAnomaly::SerialStuck { level: stuck, bit });
                return;
            }
        }
    }

    // Latency correlation: the smallest delay at which the pattern
    // fully reappears (at least 8 overlapping bits). A healthy chain
    // yields `devices`; a different value is a length mismatch; none at
    // all means the stream itself is corrupt.
    let latency = (0..observed.len().saturating_sub(8)).find(|&d| {
        pattern
            .iter()
            .take(observed.len() - d)
            .enumerate()
            .all(|(j, &p)| observed[d + j] == p)
    });
    match latency {
        Some(d) if d == devices => {
            // Pattern is intact at the right delay; the damage is in
            // the leading capture bits.
            anomalies.push(ChainAnomaly::ShiftPathCorrupt { bit: first_bad });
        }
        Some(d) => {
            anomalies.push(ChainAnomaly::ChainLengthMismatch { expected: devices, observed: Some(d) });
        }
        None => {
            anomalies.push(ChainAnomaly::ShiftPathCorrupt { bit: first_bad });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcell::StandardBsc;
    use crate::chain::Chain;
    use crate::device::Device;
    use crate::fault::ScanFault;
    use crate::instruction::InstructionSet;

    fn driver(devices: usize, cells: usize) -> JtagDriver {
        let mut c = Chain::new();
        for i in 0..devices {
            let mut d = Device::new(format!("u{i}"), InstructionSet::standard_1149_1());
            for _ in 0..cells {
                d.push_cell(Box::new(StandardBsc::new()));
            }
            c.push(d);
        }
        JtagDriver::new(c)
    }

    #[test]
    fn healthy_chains_pass() {
        for devices in [1, 2, 3] {
            let mut drv = driver(devices, 2);
            let report = check_chain(&mut drv).unwrap();
            assert!(report.healthy(), "{devices} devices: {report}");
            assert_eq!(report.devices, devices);
            assert!(report.tck_cost > 0);
        }
    }

    #[test]
    fn empty_chain_is_an_error() {
        let mut drv = JtagDriver::new(Chain::new());
        assert!(matches!(check_chain(&mut drv), Err(JtagError::EmptyChain)));
    }

    #[test]
    fn stuck_serial_line_is_named() {
        let mut drv = driver(2, 1);
        drv.inject_fault(ScanFault::StuckAtOne { link: 2 });
        let report = check_chain(&mut drv).unwrap();
        assert!(
            report
                .anomalies
                .iter()
                .any(|a| matches!(a, ChainAnomaly::SerialStuck { level: true, .. })),
            "{report}"
        );
    }

    #[test]
    fn bit_flip_reads_as_corrupt_shift_path() {
        let mut drv = driver(1, 1);
        drv.inject_fault(ScanFault::BitFlip { link: 0, period: 5 });
        let report = check_chain(&mut drv).unwrap();
        assert!(
            report.anomalies.iter().any(|a| matches!(
                a,
                ChainAnomaly::ShiftPathCorrupt { .. } | ChainAnomaly::ChainLengthMismatch { .. }
            )),
            "{report}"
        );
    }

    #[test]
    fn stuck_tap_states_reported_as_unresponsive() {
        for state in [
            TapState::TestLogicReset,
            TapState::RunTestIdle,
            TapState::ShiftDr,
            TapState::ShiftIr,
        ] {
            let mut drv = driver(2, 1);
            drv.reset();
            drv.inject_fault(ScanFault::StuckTap { state });
            let report = check_chain(&mut drv).unwrap();
            assert!(!report.healthy(), "{state}: {report}");
        }
    }

    #[test]
    fn dropped_tck_detected() {
        let mut drv = driver(1, 1);
        drv.inject_fault(ScanFault::DroppedTck { period: 7 });
        let report = check_chain(&mut drv).unwrap();
        assert!(!report.healthy(), "{report}");
    }

    #[test]
    fn report_serialises() {
        let mut drv = driver(1, 1);
        let report = check_chain(&mut drv).unwrap();
        let j = report.to_json().render();
        assert!(j.contains("\"healthy\":true"), "{j}");
        assert!(j.contains("\"anomalies\":[]"), "{j}");
    }

    #[test]
    fn healthy_boundary_path_passes() {
        let mut drv = driver(2, 3);
        drv.reset();
        let report = check_boundary(&mut drv).unwrap();
        assert!(report.healthy(), "{report}");
        assert!(report.tck_cost > 0);
    }

    #[test]
    fn boundary_stuck_is_invisible_to_bypass_but_caught_by_boundary_check() {
        for level in [false, true] {
            let mut drv = driver(1, 4);
            drv.inject_fault(ScanFault::BoundaryStuck { device: 0, cell: 1, level });
            let bypass = check_chain(&mut drv).unwrap();
            assert!(bypass.healthy(), "BYPASS flush must not see a boundary fault: {bypass}");
            let report = check_boundary(&mut drv).unwrap();
            assert!(
                report
                    .anomalies
                    .iter()
                    .any(|a| *a == ChainAnomaly::BoundaryPathStuck { level, bit: 0 }
                        || matches!(a, ChainAnomaly::BoundaryPathStuck { .. })),
                "{report}"
            );
        }
    }

    #[test]
    fn boundary_anomaly_serialises() {
        let a = ChainAnomaly::BoundaryPathStuck { level: true, bit: 3 };
        assert_eq!(a.to_json().render(), r#"{"kind":"boundary_path_stuck","level":true,"bit":3}"#);
        assert_eq!(a.to_string(), "boundary shift path stuck at 1 (first bad pattern bit 3)");
    }

    /// Synthetic probe: simulates a break leaving chain cell `broken`
    /// under the SI layout (drive cells 0..wires, observation cells
    /// wires..2*wires). Wire w responds iff its drive cell is at or
    /// before the break AND its observation cell is after it.
    fn synthetic_probe(
        wires: usize,
        broken: usize,
    ) -> impl FnMut(&mut JtagDriver, Option<usize>) -> Result<Vec<bool>, JtagError> {
        move |_drv, target| {
            let mut read = vec![false; wires];
            if let Some(w) = target {
                let controllable = w <= broken;
                let observable = wires + w > broken;
                read[w] = controllable && observable;
            }
            Ok(read)
        }
    }

    #[test]
    fn walking_one_prefix_break_quarantines_far_wires() {
        // 8 wires, break after drive cell 6: wire 7 uncontrollable.
        let mut drv = driver(1, 1);
        let loc = localize_boundary_fault(&mut drv, 8, synthetic_probe(8, 6)).unwrap();
        assert_eq!(loc.segment, Some(6));
        assert_eq!(loc.quarantine.quarantined_wires(), vec![7]);
        assert_eq!(loc.quarantine.healthy_count(), 7);
        assert!(loc.quarantine.is_quarantined(7));
        assert!(!loc.quarantine.is_quarantined(0));
    }

    #[test]
    fn walking_one_suffix_break_quarantines_near_wires() {
        // 8 wires, break after observation cell 8+1=9: wires 0..=1
        // unobservable.
        let mut drv = driver(1, 1);
        let loc = localize_boundary_fault(&mut drv, 8, synthetic_probe(8, 9)).unwrap();
        assert_eq!(loc.segment, Some(9));
        assert_eq!(loc.quarantine.quarantined_wires(), vec![0, 1]);
        assert_eq!(loc.quarantine.healthy_wires(), vec![2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn walking_one_healthy_bus_clears_quarantine() {
        let mut drv = driver(1, 1);
        let loc = localize_boundary_fault(&mut drv, 4, |_d, target| {
            let mut read = vec![false; 4];
            if let Some(w) = target {
                read[w] = true; // every wire round-trips
            }
            Ok(read)
        })
        .unwrap();
        assert_eq!(loc.segment, None);
        assert!(loc.quarantine.is_clear());
    }

    #[test]
    fn walking_one_break_after_last_cell_swallows_all_observations() {
        // The segment leaving the last observation cell feeds TDO:
        // nothing scans out, so everything is quarantined.
        let mut drv = driver(1, 1);
        let loc = localize_boundary_fault(&mut drv, 4, synthetic_probe(4, 7)).unwrap();
        assert_eq!(loc.segment, None);
        assert_eq!(loc.quarantine.healthy_count(), 0);
    }

    #[test]
    fn walking_one_silent_bus_quarantines_everything() {
        let mut drv = driver(1, 1);
        let loc =
            localize_boundary_fault(&mut drv, 4, |_d, _t| Ok(vec![false; 4])).unwrap();
        assert_eq!(loc.segment, None);
        assert_eq!(loc.quarantine.healthy_count(), 0);
        assert_eq!(loc.quarantine.quarantined_wires(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn walking_one_scattered_responses_quarantine_everything() {
        let mut drv = driver(1, 1);
        let loc = localize_boundary_fault(&mut drv, 5, |_d, target| {
            let mut read = vec![false; 5];
            if let Some(w) = target {
                read[w] = w == 0 || w == 3; // non-contiguous island
            }
            Ok(read)
        })
        .unwrap();
        assert_eq!(loc.segment, None);
        assert_eq!(loc.quarantine.healthy_count(), 0);
    }

    #[test]
    fn walking_one_demands_baseline_zero() {
        // A wire that reads 1 even in the baseline pass (stuck bus
        // line, not a chain break) must not count as responding.
        let mut drv = driver(1, 1);
        let loc = localize_boundary_fault(&mut drv, 3, |_d, target| {
            let mut read = vec![false; 3];
            read[1] = true; // wire 1 always high
            if let Some(w) = target {
                read[w] = true;
            }
            Ok(read)
        })
        .unwrap();
        assert!(!loc.responding[1]);
        assert!(loc.responding[0] && loc.responding[2]);
    }

    #[test]
    fn quarantine_set_serialises() {
        let q = QuarantineSet::from_quarantined(8, [7]);
        assert_eq!(q.to_json().render(), r#"{"wires":8,"healthy":7,"quarantined":[7]}"#);
        assert_eq!(q.to_string(), "wires [7] quarantined (7 of 8 healthy)");
        assert_eq!(QuarantineSet::none(3).to_string(), "no wires quarantined (3 healthy)");
        let loc = FaultLocalization {
            responding: vec![true, false],
            segment: Some(0),
            quarantine: QuarantineSet::from_quarantined(2, [1]),
            tck_cost: 42,
        };
        let j = loc.to_json().render();
        assert!(j.contains(r#""responding":[0]"#), "{j}");
        assert!(j.contains(r#""segment":0"#), "{j}");
        assert!(j.contains(r#""tck_cost":42"#), "{j}");
    }

    #[test]
    fn quarantine_out_of_range_is_conservative() {
        let q = QuarantineSet::none(2);
        assert!(!q.is_quarantined(1));
        assert!(q.is_quarantined(2));
        let ignored = QuarantineSet::from_quarantined(2, [5]);
        assert!(ignored.is_clear());
    }
}
