//! The observation boundary-scan cell (OBSC) — §3.2, Fig 9.
//!
//! An OBSC replaces the standard cell on each *input* pin of the core
//! receiving the interconnect under test. Alongside the ordinary
//! FF1/FF2 pair it carries the two detector flip-flops fed by the ND and
//! SD cells. The multiplexer in front of FF1 is steered by
//!
//! ```text
//! sel = !SI + ShiftDR          (Table 4)
//! ```
//!
//! so that in Capture-DR of an SI-mode read-out (`SI=1, ShiftDR=0`,
//! `sel=0`) FF1 loads the selected detector flip-flop, while during
//! Shift-DR (`sel=1`) the scan chain is re-formed and the captured bits
//! stream out through TDO (Fig 10). Which detector is read is chosen by
//! the device-level ND̄/SD signal, complemented between the two
//! read-out passes by the `O-SITEST` instruction.
//!
//! Operating modes (Table 3):
//!
//! | mode   | ND̄/SD | SI |
//! |--------|--------|----|
//! | NDFF   | 0      | 1  |
//! | SDFF   | 1      | 1  |
//! | Normal | x      | 0  |

use crate::nd::{ChunkedTrace, NdThresholds, NoiseDetector};
use crate::sd::{SdWindow, SkewDetector};
use sint_interconnect::basis::{ChunkEnvelope, RecombinedWire, StepBasis, VictimPanel, CHUNK};
use sint_interconnect::drive::{DriveLevel, VectorPair};
use sint_interconnect::measure::{settled_value, tail_start};
use sint_interconnect::solver::{StopRule, TransientSim};
use sint_interconnect::InterconnectError;
use sint_jtag::bcell::{BoundaryCell, CellControl};
use sint_logic::netlist::Netlist;
use sint_logic::{LogicError, Logic};

/// Response flag: the noise detector fires on the waveform.
pub const ND_HIT: u8 = 1;
/// Response flag: the skew detector fires on the waveform.
pub const SD_HIT: u8 = 2;
/// Response flag: the waveform settles above `Vdd/2`.
pub const SETTLED_HIGH: u8 = 4;

/// Guard band (V) for [`Obsc::response_guarded`] on recombined
/// waveforms: a step-basis response is trusted only when no compared
/// quantity lies within this of its threshold. About 10⁴× the
/// recombination's measured rounding error (DESIGN.md §6g).
pub const GUARD_EPS: f64 = 1e-9;

/// Fraction of a pattern window the settled value averages over.
const SETTLED_TAIL: f64 = 0.1;

/// The widest deviation (V) of a receiver from its final rail that no
/// OBSC decision can see: the smallest distance from either rail (0 V,
/// `vdd`) to a level the ND walk or the settled-level comparison decides
/// on — `v_low_max`, `v_high_min`, `vdd/2`, and the two overshoot
/// limits `vdd + overshoot_margin` and `−overshoot_margin` — less
/// `2·GUARD_EPS`. A sample within it of its rail therefore sits on the
/// rail's side of every such level, more than [`GUARD_EPS`] away. Not
/// positive when a level lies on (or within the guard band of) a rail,
/// and `−∞` for non-finite thresholds: no stop is proved then.
#[must_use]
pub fn stop_tolerance(nd: &NdThresholds, vdd: f64) -> f64 {
    let levels = [
        nd.v_low_max,
        nd.v_high_min,
        vdd / 2.0,
        vdd + nd.overshoot_margin,
        -nd.overshoot_margin,
    ];
    if !levels.iter().all(|l| l.is_finite()) {
        return f64::NEG_INFINITY;
    }
    let nearest = [0.0, vdd]
        .iter()
        .flat_map(|rail| levels.iter().map(move |level| (level - rail).abs()))
        .fold(f64::INFINITY, f64::min);
    nearest - 2.0 * GUARD_EPS
}

/// Reusable buffers of [`recombined_response`]: the [`ChunkEnvelope`]s
/// of the victim columns it read last, which all six MA pairs of a
/// victim share, and the DC receivers of the pair in hand.
#[derive(Debug, Clone, Default)]
pub struct RecombineScratch {
    /// The [`Recombination::columns`](sint_interconnect::basis::Recombination::columns)
    /// `envelopes` belong to.
    columns: Option<(u64, usize)>,
    envelopes: Vec<ChunkEnvelope>,
    dc: Vec<f64>,
    /// Chunks whose samples no response computed, summed over every
    /// call.
    pub skipped_chunks: u64,
}

impl RecombineScratch {
    /// Empty buffers.
    #[must_use]
    pub fn new() -> RecombineScratch {
        RecombineScratch::default()
    }
}

/// One wire of a recombination, read chunk by chunk through its
/// victim's envelopes; a sample out of range refuses the trace, as
/// [`StepBasis::combine_into`] refuses it.
struct FusedWire<'a> {
    wire: RecombinedWire<'a>,
    envelopes: &'a [ChunkEnvelope],
}

impl ChunkedTrace for FusedWire<'_> {
    fn samples(&self) -> usize {
        self.wire.len()
    }

    fn bounds(&self, chunk: usize) -> Option<(f64, f64)> {
        self.wire.bounds(&self.envelopes[chunk])
    }

    fn fill(&self, start: usize, out: &mut [f64]) -> bool {
        self.wire.fill(start, out)
    }
}

/// The response of MA-shaped `pair` recombined from `basis`'s `U` and
/// `panel`'s victim columns: exactly what [`StepBasis::combine_into`]
/// followed by [`Obsc::response_guarded`] with [`GUARD_EPS`] on every
/// wire gives, `None` included, in one fused pass that computes a
/// sample only where a detector level is in reach (DESIGN.md §6i).
/// `cell(w)` is wire `w`'s OBSC and `vdd` the bus supply. Allocates
/// nothing but the response: the victim's envelopes and the DC
/// receivers live in `scratch`, which counts the chunks skipped.
///
/// # Errors
///
/// [`InterconnectError::WireOutOfRange`] for a pair width mismatch, and
/// whatever `cell` fails with.
pub fn recombined_response<'c, E: From<InterconnectError>>(
    basis: &StepBasis,
    panel: &VictimPanel,
    sim: &TransientSim,
    pair: &VectorPair,
    vdd: f64,
    cell: impl Fn(usize) -> Result<&'c Obsc, E>,
    scratch: &mut RecombineScratch,
) -> Result<Option<Box<[u8]>>, E> {
    let RecombineScratch { columns, envelopes, dc, skipped_chunks } = scratch;
    let Some(recombination) = basis.recombination(panel, sim, pair, dc)? else {
        return Ok(None);
    };
    if *columns != Some(recombination.columns()) {
        recombination.envelopes_into(envelopes);
        *columns = Some(recombination.columns());
    }
    let chunks = recombination.samples().div_ceil(CHUNK);
    let (dt, switch_at) = (sim.dt(), sim.switch_at());
    let mut response = Vec::with_capacity(recombination.wires());
    for w in 0..recombination.wires() {
        let trace = FusedWire {
            wire: recombination.wire(w),
            envelopes: &envelopes[w * chunks..(w + 1) * chunks],
        };
        let edge = pair.switches(w).then(|| pair.after(w));
        let (flags, skipped) =
            cell(w)?.response_chunked(&trace, dt, vdd, edge, switch_at, GUARD_EPS);
        *skipped_chunks += skipped;
        match flags {
            Some(flags) => response.push(flags),
            None => return Ok(None),
        }
    }
    Ok(Some(response.into()))
}

/// Behavioural OBSC implementing [`BoundaryCell`], with embedded ND/SD
/// detector models.
#[derive(Debug, Clone, PartialEq)]
pub struct Obsc {
    ff1: Logic,
    ff2: Logic,
    nd: NoiseDetector,
    sd: SkewDetector,
    pi: Logic,
}

impl Obsc {
    /// A fresh cell with the given detector configurations.
    #[must_use]
    pub fn new(nd: NdThresholds, sd: SdWindow) -> Self {
        Obsc {
            ff1: Logic::X,
            ff2: Logic::X,
            nd: NoiseDetector::new(nd),
            sd: SkewDetector::new(sd),
            pi: Logic::X,
        }
    }

    /// Immutable access to the noise detector.
    #[must_use]
    pub fn nd(&self) -> &NoiseDetector {
        &self.nd
    }

    /// Mutable access to the noise detector (the SoC feeds waveforms in).
    pub fn nd_mut(&mut self) -> &mut NoiseDetector {
        &mut self.nd
    }

    /// Immutable access to the skew detector.
    #[must_use]
    pub fn sd(&self) -> &SkewDetector {
        &self.sd
    }

    /// Mutable access to the skew detector.
    pub fn sd_mut(&mut self) -> &mut SkewDetector {
        &mut self.sd
    }

    /// Applies the CE signal to both detectors.
    pub fn set_detectors_enabled(&mut self, ce: bool) {
        self.nd.set_enabled(ce);
        self.sd.set_enabled(ce);
    }

    /// Clears both detector flip-flops (start of a session).
    pub fn clear_detectors(&mut self) {
        self.nd.clear();
        self.sd.clear();
    }

    /// What one pattern window's received waveform does at this cell,
    /// regardless of CE: [`ND_HIT`] | [`SD_HIT`] | [`SETTLED_HIGH`].
    /// `edge` is the level the wire switched to, `None` for a quiet
    /// wire (the skew detector only samples transitions); `switch_at`
    /// is the edge launch time.
    #[must_use]
    pub fn response(
        &self,
        wave: &[f64],
        dt: f64,
        vdd: f64,
        edge: Option<DriveLevel>,
        switch_at: f64,
    ) -> u8 {
        let mut flags = 0;
        if self.nd.evaluate(wave, dt, vdd) {
            flags |= ND_HIT;
        }
        if edge.is_some_and(|level| self.sd.evaluate(wave, dt, vdd, level, switch_at)) {
            flags |= SD_HIT;
        }
        if settled_value(wave, SETTLED_TAIL) > vdd / 2.0 {
            flags |= SETTLED_HIGH;
        }
        flags
    }

    /// [`Obsc::response`] with a guard band of `eps` volts around every
    /// threshold either detector or the settled-level comparison
    /// decides on: `Some(flags)` only when every waveform within
    /// `eps / 2` of `wave` has the same response.
    #[must_use]
    pub fn response_guarded(
        &self,
        wave: &[f64],
        dt: f64,
        vdd: f64,
        edge: Option<DriveLevel>,
        switch_at: f64,
        eps: f64,
    ) -> Option<u8> {
        let mut flags = 0;
        if self.nd.evaluate_guarded(wave, dt, vdd, eps)? {
            flags |= ND_HIT;
        }
        if let Some(level) = edge {
            if self.sd.evaluate_guarded(wave, dt, vdd, level, switch_at, eps)? {
                flags |= SD_HIT;
            }
        }
        let settled = settled_value(wave, SETTLED_TAIL) - vdd / 2.0;
        (settled.abs() > eps).then_some(if settled > 0.0 { flags | SETTLED_HIGH } else { flags })
    }

    /// [`Obsc::response_guarded`] of a trace read chunk by chunk: the
    /// ND walk computes samples only in the chunks it cannot pass
    /// unchanged ([`NoiseDetector::scan_chunked`]), while the SD sample
    /// and the settled tail are computed exactly. Every sample computed
    /// is bitwise the one `response_guarded` would read, so the two
    /// agree whenever the trace's samples are those of `wave` (`None`
    /// included). Also `None` when the trace refuses a sample. Returns
    /// the response and the chunks whose samples the walk skipped.
    #[must_use]
    pub(crate) fn response_chunked(
        &self,
        trace: &impl ChunkedTrace,
        dt: f64,
        vdd: f64,
        edge: Option<DriveLevel>,
        switch_at: f64,
        eps: f64,
    ) -> (Option<u8>, u64) {
        let (nd, skipped) = self.nd.scan_chunked(trace, vdd, Some(eps));
        let flags = || {
            let len = trace.samples();
            let last = len.checked_sub(1)?;
            let mut flags = if nd? { ND_HIT } else { 0 };
            let mut buf = [0.0; CHUNK];
            if let Some(level) = edge {
                let k = self.sd.sample_index(dt, switch_at).min(last);
                if !trace.fill(k, &mut buf[..1]) {
                    return None;
                }
                let deviation = (buf[0] - level.voltage(vdd)).abs();
                if self.sd.decide_guarded(deviation, eps)? {
                    flags |= SD_HIT;
                }
            }
            // `settled_value`'s sequential tail sum, sample for sample
            // (`Iterator::sum` starts from −0).
            let start = tail_start(len, SETTLED_TAIL).min(last);
            let mut tail = -0.0;
            for from in (start..len).step_by(CHUNK) {
                let samples = &mut buf[..CHUNK.min(len - from)];
                if !trace.fill(from, samples) {
                    return None;
                }
                tail = samples.iter().fold(tail, |sum, v| sum + v);
            }
            let settled = tail / (len - start) as f64 - vdd / 2.0;
            let high = if settled > 0.0 { SETTLED_HIGH } else { 0 };
            (settled.abs() > eps).then_some(flags | high)
        };
        (flags(), skipped)
    }

    /// The proved early stop under which [`Obsc::response`] and
    /// [`Obsc::response_guarded`] read a stopped trace exactly as they
    /// read the full window's (DESIGN.md §6h), for traces recombined with
    /// coefficient magnitudes summing to at most `gain` (1 for a direct
    /// solve, 3 for a step-basis column). Past the certified step every
    /// sample sits within [`stop_tolerance`] of its rail, so the ND walk
    /// no longer changes state and the settled level keeps its side of
    /// `vdd/2`; a stopped trace also keeps the SD sample (launch at
    /// `switch_at` on a grid of `dt`) and a settled tail wholly past the
    /// certified step. `None` when the tolerance is not positive; an SD
    /// sample past the window keeps the window full.
    #[must_use]
    pub fn stop_rule(&self, vdd: f64, dt: f64, switch_at: f64, gain: f64) -> Option<StopRule> {
        let tolerance = stop_tolerance(self.nd.thresholds(), vdd);
        (tolerance > 0.0).then(|| StopRule {
            tolerance: tolerance / gain,
            min_samples: self.sd.sample_index(dt, switch_at).saturating_add(1),
            tail_fraction: SETTLED_TAIL,
        })
    }

    /// The `sel` signal of Table 4: `!SI + ShiftDR`.
    #[must_use]
    pub fn sel(ctrl: &CellControl) -> bool {
        !ctrl.si || ctrl.shift_dr
    }
}

impl BoundaryCell for Obsc {
    /// Capture-DR: with `sel = 0` (SI mode, not shifting) FF1 loads the
    /// detector flip-flop chosen by ND̄/SD; otherwise the standard
    /// parallel-input capture.
    fn capture(&mut self, ctrl: &CellControl) {
        if Obsc::sel(ctrl) {
            self.ff1 = self.pi;
        } else {
            let bit = if ctrl.nd_sd { self.sd.violation() } else { self.nd.violation() };
            self.ff1 = Logic::from(bit);
        }
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
        // Detector flip-flops are cleared only by an explicit session
        // action; Test-Logic-Reset must not erase captured evidence.
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Structural gate-level netlist of the OBSC digital portion plus
/// NAND-equivalent stand-ins for the analog ND/SD sensors (Fig 9), used
/// for the Table 7 area analysis.
///
/// Digital parts: FF1 + FF2 + the Fig 4 muxes, the ND/SD-select mux,
/// the `sel` OR gate and the two detector flip-flops. The ND sense
/// amplifier (7 transistors, Fig 1) and the SD delay-generator/NOR
/// (Fig 2) are represented by equivalent-area gate groups.
///
/// # Errors
///
/// Propagates [`LogicError`] from netlist construction.
pub fn obsc_netlist() -> Result<Netlist, LogicError> {
    use sint_logic::netlist::Primitive;
    let mut nl = Netlist::new("obsc");
    let tdi = nl.add_input("tdi");
    let pi = nl.add_input("pin");
    let shift_dr = nl.add_input("shift_dr");
    let si = nl.add_input("si");
    let nd_sd = nl.add_input("nd_sd");
    let mode = nl.add_input("mode");
    let clk = nl.add_input("tck");
    let upd = nl.add_input("update_dr");
    let ce = nl.add_input("ce");

    // --- analog sensor stand-ins -------------------------------------
    // ND sense amplifier (Fig 1, T1–T7 + readout): modelled as a 2-input
    // NAND pair + inverter ≈ 10 transistors.
    let nd_raw = nl.add_net("nd_raw");
    nl.add_gate("nd_amp_a", Primitive::Nand, &[pi, ce], nd_raw)?;
    let nd_pulse = nl.inv("nd_amp_b", nd_raw)?;
    // SD delay generator: 3 inverters + NOR comparator (Fig 2).
    let d1 = nl.inv("sd_d1", clk)?;
    let d2 = nl.inv("sd_d2", d1)?;
    let d3 = nl.inv("sd_d3", d2)?;
    let sd_pulse = nl.add_net("sd_pulse");
    nl.add_gate("sd_nor", Primitive::Nor, &[d3, pi], sd_pulse)?;

    // Detector flip-flops, set by the sensor pulses (clocked model).
    let nd_q = nl.add_net("nd_q");
    nl.add_dff("nd_ff", nd_pulse, clk, nd_q)?;
    let sd_q = nl.add_net("sd_q");
    nl.add_dff("sd_ff", sd_pulse, clk, sd_q)?;

    // --- digital boundary cell ---------------------------------------
    // Detector select mux (ND̄/SD) and the sel = !SI + ShiftDR gating.
    let det = nl.mux2("m_det", nd_sd, nd_q, sd_q)?;
    let si_n = nl.inv("i_si", si)?;
    let sel = nl.add_net("sel");
    nl.add_gate("or_sel", Primitive::Or, &[si_n, shift_dr], sel)?;
    // FF1 D input: sel ? scan-path (capture pi / shift tdi) : detector.
    let scan_d = nl.mux2("m_scan", shift_dr, pi, tdi)?;
    let ff1_d = nl.mux2("m_ff1", sel, det, scan_d)?;
    let ff1_q = nl.add_net("ff1_q");
    nl.add_dff("ff1", ff1_d, clk, ff1_q)?;
    // FF2 + output mux (standard).
    let ff2_q = nl.add_net("ff2_q");
    nl.add_dff("ff2", ff1_q, upd, ff2_q)?;
    let out = nl.mux2("m_out", mode, pi, ff2_q)?;
    nl.mark_output(out)?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Obsc {
        Obsc::new(NdThresholds::for_vdd(1.8), SdWindow::for_vdd(400e-12, 1.8))
    }

    fn ctrl(si: bool, shift_dr: bool, nd_sd: bool) -> CellControl {
        CellControl { si, shift_dr, nd_sd, mode: false, ce: false }
    }

    #[test]
    fn sel_truth_table_matches_table4() {
        // Table 4: sel = !SI + ShiftDR.
        assert!(Obsc::sel(&ctrl(false, false, false)), "SI=0 → sel=1");
        assert!(Obsc::sel(&ctrl(false, true, false)));
        assert!(!Obsc::sel(&ctrl(true, false, false)), "SI=1, ShiftDR=0 → sel=0");
        assert!(Obsc::sel(&ctrl(true, true, false)), "SI=1, ShiftDR=1 → sel=1");
    }

    #[test]
    fn response_flags_and_their_guard_band() {
        let c = cell();
        // A late rise: still at 0.9 V when sampled, settling high.
        let mut late = vec![0.9; 500];
        late.extend(vec![1.8; 500]);
        let flags = SD_HIT | SETTLED_HIGH;
        assert_eq!(c.response(&late, 1e-12, 1.8, Some(DriveLevel::High), 0.0), flags);
        assert_eq!(c.response(&late, 1e-12, 1.8, None, 0.0), SETTLED_HIGH, "quiet: no SD");
        let guarded = c.response_guarded(&late, 1e-12, 1.8, Some(DriveLevel::High), 0.0, 1e-9);
        assert_eq!(guarded, Some(flags));
        // A tail that settles on Vdd/2 cannot be vouched for.
        let mid = vec![0.9; 1000];
        assert_eq!(c.response_guarded(&mid, 1e-12, 1.8, None, 0.0, 1e-9), None);
    }

    #[test]
    fn normal_capture_takes_pin() {
        let mut c = cell();
        c.set_parallel_input(Logic::One);
        c.capture(&ctrl(false, false, false));
        assert_eq!(c.scan_bit(), Logic::One);
    }

    #[test]
    fn si_capture_reads_nd_ff() {
        let mut c = cell();
        c.set_detectors_enabled(true);
        // Latch a noise violation: wide mid-band bump.
        let wave: Vec<f64> =
            (0..600).map(|k| if (100..500).contains(&k) { 0.9 } else { 0.0 }).collect();
        c.nd_mut().observe(&wave, 1e-12, 1.8);
        assert!(c.nd().violation());
        c.capture(&ctrl(true, false, false)); // ND̄/SD = 0 → ND
        assert_eq!(c.scan_bit(), Logic::One);
        // SD FF still clear.
        c.capture(&ctrl(true, false, true)); // ND̄/SD = 1 → SD
        assert_eq!(c.scan_bit(), Logic::Zero);
    }

    #[test]
    fn si_capture_reads_sd_ff() {
        use sint_interconnect::drive::DriveLevel;
        let mut c = cell();
        c.set_detectors_enabled(true);
        c.sd_mut().observe(&vec![0.9; 1000], 1e-12, 1.8, DriveLevel::High, 0.0);
        c.capture(&ctrl(true, false, true));
        assert_eq!(c.scan_bit(), Logic::One);
        c.capture(&ctrl(true, false, false));
        assert_eq!(c.scan_bit(), Logic::Zero);
    }

    #[test]
    fn shift_forms_scan_chain() {
        let mut c = cell();
        c.capture(&ctrl(true, false, false)); // loads ND = 0
        let out = c.shift(Logic::One, &ctrl(true, true, false));
        assert_eq!(out, Logic::Zero);
        assert_eq!(c.scan_bit(), Logic::One);
    }

    #[test]
    fn detector_ffs_survive_tap_reset() {
        let mut c = cell();
        c.set_detectors_enabled(true);
        let wave: Vec<f64> =
            (0..600).map(|k| if (100..500).contains(&k) { 0.9 } else { 0.0 }).collect();
        c.nd_mut().observe(&wave, 1e-12, 1.8);
        c.reset();
        assert!(c.nd().violation(), "evidence survives Test-Logic-Reset");
        c.clear_detectors();
        assert!(!c.nd().violation());
    }

    #[test]
    fn output_mux_standard_behaviour() {
        let mut c = cell();
        c.set_parallel_input(Logic::Zero);
        assert_eq!(c.output(&ctrl(false, false, false)), Logic::Zero);
        c.shift(Logic::One, &ctrl(false, true, false));
        c.update(&ctrl(false, false, false));
        let mode = CellControl { mode: true, ..ctrl(false, false, false) };
        assert_eq!(c.output(&mode), Logic::One);
    }

    #[test]
    fn ce_gates_both_detectors() {
        use sint_interconnect::drive::DriveLevel;
        let mut c = cell();
        c.set_detectors_enabled(false);
        let wave: Vec<f64> = vec![0.9; 1000];
        c.nd_mut().observe(&wave, 1e-12, 1.8);
        c.sd_mut().observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0);
        assert!(!c.nd().violation());
        assert!(!c.sd().violation());
    }

    #[test]
    fn structural_netlist_shape() {
        let nl = obsc_netlist().unwrap();
        let (_gates, ffs, _latches) = nl.component_counts();
        assert_eq!(ffs, 4, "FF1, FF2 + ND/SD flip-flops");
        assert_eq!(nl.outputs().len(), 1);
    }
}
