//! The noise-detector (ND) cell — behavioural model of the paper's
//! cross-coupled PMOS sense amplifier (§2.1, Fig 1).
//!
//! The silicon cell sits at the receiving end of an interconnect and
//! latches a `1` when the incoming signal suffers integrity loss: its
//! voltage enters the *vulnerable region* — the band between the highest
//! voltage still read as a clean logic 0 (`v_low_max`) and the lowest
//! voltage still read as a clean logic 1 (`v_high_min`) — without being
//! a legitimate level change, or shoots beyond the rails. The output
//! "remains unchanged until" read out, i.e. the violation is sticky.
//!
//! Behavioural substitution (documented in DESIGN.md): within one
//! pattern window (one Update-DR), a healthy signal crosses the
//! vulnerable band **at most once and all the way through**. The model
//! therefore latches when
//!
//! 1. the signal enters the band and returns out the **same side**
//!    (the signature of a glitch on a quiescent wire), or
//! 2. the signal traverses the band **more than once** (a full-swing
//!    glitch that momentarily looks like two transitions), or
//! 3. any sample exceeds the rails by more than the overshoot margin
//!    (the P̄g / N̄g overshoot faults).
//!
//! A slow-but-monotone edge passes the ND — added delay is the SD
//! cell's job — which reproduces the paper's clean noise/skew split.

use sint_interconnect::basis::CHUNK;
use std::ops::ControlFlow;

/// Voltage thresholds for a noise detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdThresholds {
    /// Highest voltage still accepted as logic 0 (V).
    pub v_low_max: f64,
    /// Lowest voltage still accepted as logic 1 (V).
    pub v_high_min: f64,
    /// Overshoot margin beyond the rails before a violation (V).
    pub overshoot_margin: f64,
}

impl NdThresholds {
    /// Conventional static-CMOS input thresholds for a supply `vdd`:
    /// `V_IL = 0.3·Vdd`, `V_IH = 0.7·Vdd`, overshoot margin `0.3·Vdd`
    /// (matching the noise margin: an excursion beyond the rail only
    /// endangers the *other* rail's receivers once it exceeds the same
    /// band).
    #[must_use]
    pub fn for_vdd(vdd: f64) -> NdThresholds {
        NdThresholds {
            v_low_max: 0.3 * vdd,
            v_high_min: 0.7 * vdd,
            overshoot_margin: 0.3 * vdd,
        }
    }
}

/// Which side of the vulnerable band a sample sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Below,
    Above,
}

/// A sticky noise detector with its output flip-flop.
///
/// ```
/// use sint_core::nd::{NdThresholds, NoiseDetector};
/// let mut nd = NoiseDetector::new(NdThresholds::for_vdd(1.8));
/// nd.set_enabled(true);
/// // A 0.9 V bump on a held-low wire enters the band and comes back
/// // out the bottom: a glitch.
/// let wave: Vec<f64> = (0..400).map(|k| if (100..300).contains(&k) { 0.9 } else { 0.0 }).collect();
/// nd.observe(&wave, 1e-12, 1.8);
/// assert!(nd.violation());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseDetector {
    thresholds: NdThresholds,
    /// Cell enable (the CE signal of Fig 1).
    enabled: bool,
    /// The sticky output flip-flop.
    latched: bool,
}

impl NoiseDetector {
    /// A disabled, cleared detector.
    #[must_use]
    pub fn new(thresholds: NdThresholds) -> Self {
        NoiseDetector { thresholds, enabled: false, latched: false }
    }

    /// The configured thresholds.
    #[must_use]
    pub fn thresholds(&self) -> &NdThresholds {
        &self.thresholds
    }

    /// Sets the CE signal. While disabled the detector ignores input but
    /// *holds* its latched state (paper: "If CE = 0 the cells are
    /// disabled but the captured data … remain unchanged").
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether CE is asserted.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sticky violation flip-flop.
    #[must_use]
    pub fn violation(&self) -> bool {
        self.latched
    }

    /// Clears the violation flip-flop (new test session).
    pub fn clear(&mut self) {
        self.latched = false;
    }

    /// Feeds one pattern window's received waveform (`dt` seconds per
    /// sample, supply `vdd`) through the detector; see the module
    /// documentation for the latching conditions.
    ///
    /// Returns whether *this* observation produced a violation (the
    /// sticky flip-flop may already have been set earlier).
    pub fn observe(&mut self, wave: &[f64], dt: f64, vdd: f64) -> bool {
        let hit = self.enabled && self.evaluate(wave, dt, vdd);
        self.latch(hit)
    }

    /// Latches a verdict [`NoiseDetector::evaluate`] produced: sets the
    /// sticky flip-flop when `hit` and CE is asserted. Returns whether
    /// this call recorded a violation.
    pub fn latch(&mut self, hit: bool) -> bool {
        let hit = hit && self.enabled;
        self.latched |= hit;
        hit
    }

    /// Whether one pattern window's waveform violates the thresholds,
    /// regardless of CE and without touching the flip-flop: a pure
    /// function of the waveform and the thresholds.
    #[must_use]
    pub fn evaluate(&self, wave: &[f64], _dt: f64, vdd: f64) -> bool {
        self.scan(wave, vdd, None).unwrap_or(false)
    }

    /// [`NoiseDetector::evaluate`] with a guard band: `Some(verdict)`
    /// when every sample up to the deciding one lies more than `eps`
    /// from each threshold it is compared against (`v_low_max`,
    /// `v_high_min`, `vdd + overshoot_margin`, `−overshoot_margin`), so
    /// every waveform within `eps / 2` of `wave` gets the same verdict;
    /// `None` otherwise (including for non-finite samples).
    #[must_use]
    pub fn evaluate_guarded(&self, wave: &[f64], _dt: f64, vdd: f64, eps: f64) -> Option<bool> {
        self.scan(wave, vdd, Some(eps))
    }

    /// The detector's state machine over one pattern window, before
    /// its first sample, with the overshoot limits of a `vdd` supply;
    /// with a guard it refuses as soon as a sample it looks at sits
    /// within `guard` of a threshold.
    #[must_use]
    pub(crate) fn walk(&self, vdd: f64, guard: Option<f64>) -> NdWalk {
        let t = &self.thresholds;
        NdWalk {
            v_low_max: t.v_low_max,
            v_high_min: t.v_high_min,
            over: vdd + t.overshoot_margin,
            under: -t.overshoot_margin,
            guard,
            outside: None,
            entered_from: None,
            traversals: 0,
        }
    }

    /// The detector's sample walk: `Some(verdict)`, or `None` when the
    /// guard refuses.
    fn scan(&self, wave: &[f64], vdd: f64, guard: Option<f64>) -> Option<bool> {
        let mut walk = self.walk(vdd, guard);
        for &v in wave {
            if let ControlFlow::Break(verdict) = walk.step(v) {
                return verdict;
            }
        }
        Some(false)
    }

    /// [`NoiseDetector::evaluate_guarded`] (or, without a guard,
    /// [`NoiseDetector::evaluate`] as `Some`) of a trace read chunk by
    /// chunk, computing samples only where they can matter: a chunk
    /// whose bounds are known is skipped when [`NdWalk::pass`] walks it
    /// from them, or the walk has already decided. Every chunk with
    /// unknown bounds is filled, decided or not, so a trace that refuses
    /// some samples is refused whenever its bounds do not vouch for
    /// them. Returns the verdict (`None` when the guard or the trace
    /// refuses) and the chunks skipped.
    pub(crate) fn scan_chunked(
        &self,
        trace: &impl ChunkedTrace,
        vdd: f64,
        guard: Option<f64>,
    ) -> (Option<bool>, u64) {
        let mut walk = self.walk(vdd, guard);
        let mut decided = None;
        let mut skipped = 0;
        let mut buf = [0.0; CHUNK];
        let len = trace.samples();
        for chunk in 0..len.div_ceil(CHUNK) {
            let known = trace.bounds(chunk);
            if known.is_some_and(|(lo, hi)| decided.is_some() || walk.pass(lo, hi)) {
                skipped += 1;
                continue;
            }
            let start = chunk * CHUNK;
            let samples = &mut buf[..CHUNK.min(len - start)];
            if !trace.fill(start, samples) {
                return (None, skipped);
            }
            if decided.is_some() {
                continue;
            }
            for &v in samples.iter() {
                match walk.step(v) {
                    ControlFlow::Continue(()) => {}
                    ControlFlow::Break(None) => return (None, skipped),
                    ControlFlow::Break(Some(hit)) => {
                        decided = Some(hit);
                        break;
                    }
                }
            }
        }
        (Some(decided.unwrap_or(false)), skipped)
    }
}

/// A receiver trace read in chunks of [`CHUNK`] samples (the last one
/// shorter), for walks that compute samples only where they must.
pub(crate) trait ChunkedTrace {
    /// Samples in the trace.
    fn samples(&self) -> usize;

    /// A finite interval holding every sample of chunk `chunk`, or
    /// `None` when none is known (a sample may be non-finite, or one
    /// [`ChunkedTrace::fill`] refuses).
    fn bounds(&self, chunk: usize) -> Option<(f64, f64)>;

    /// Writes samples `start..start + out.len()` into `out`; `false`
    /// when one of them refuses the whole trace.
    fn fill(&self, start: usize, out: &mut [f64]) -> bool;
}

/// The ND walk of one pattern window, resumable sample by sample
/// ([`NoiseDetector::walk`]): every evaluation of the detector drives
/// it, sample by sample or chunk by chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NdWalk {
    v_low_max: f64,
    v_high_min: f64,
    /// The overshoot limits, `vdd + overshoot_margin` and
    /// `−overshoot_margin`.
    over: f64,
    under: f64,
    guard: Option<f64>,
    /// The side the last sample outside the band sat on.
    outside: Option<Side>,
    /// The side a pending band entry came from.
    entered_from: Option<Side>,
    /// Completed traversals of the band.
    traversals: u32,
}

impl NdWalk {
    fn side_of(&self, v: f64) -> Option<Side> {
        if v <= self.v_low_max {
            Some(Side::Below)
        } else if v >= self.v_high_min {
            Some(Side::Above)
        } else {
            None
        }
    }

    /// Walks one sample: `Continue` while undecided, `Break(Some(true))`
    /// once the detector fires, `Break(None)` when the guard refuses
    /// the sample.
    pub(crate) fn step(&mut self, v: f64) -> ControlFlow<Option<bool>> {
        if let Some(eps) = self.guard {
            let clear = |threshold: f64| (v - threshold).abs() > eps;
            let levels = [self.v_low_max, self.v_high_min, self.over, self.under];
            if !levels.into_iter().all(clear) {
                return ControlFlow::Break(None);
            }
        }
        if v > self.over || v < self.under {
            return ControlFlow::Break(Some(true));
        }
        match self.side_of(v) {
            None => {
                if self.entered_from.is_none() {
                    self.entered_from = self.outside;
                }
            }
            Some(s) => {
                if let Some(e) = self.entered_from.take() {
                    if e == s {
                        // Same-side return: a glitch.
                        return ControlFlow::Break(Some(true));
                    }
                    self.traversals += 1;
                } else if self.outside.is_some_and(|o| o != s) {
                    // Jumped straight across between two samples.
                    self.traversals += 1;
                }
                if self.traversals >= 2 {
                    return ControlFlow::Break(Some(true));
                }
                self.outside = Some(s);
            }
        }
        ControlFlow::Continue(())
    }

    /// Walks a run of samples known only to lie in `[lo, hi]`, when
    /// that is enough: every such sample sits on one side of the band,
    /// within the overshoot limits and, under a guard, more than the
    /// guard from every threshold, and the walk is either settled on
    /// that side, with no band entry pending (the run leaves it as it
    /// is), or has seen no sample outside the band yet (the run settles
    /// it there). Returns whether it did; otherwise the walk
    /// is untouched and the samples must be stepped one by one. Each
    /// test is a [`NdWalk::step`] comparison applied to an end of the
    /// interval, and rounding is monotone, so a sample inside the
    /// interval passes it too (DESIGN.md §6i).
    pub(crate) fn pass(&mut self, lo: f64, hi: f64) -> bool {
        let side = if hi <= self.v_low_max {
            Side::Below
        } else if lo > self.v_low_max && lo >= self.v_high_min {
            Side::Above
        } else {
            return false;
        };
        let clear = |threshold: f64| {
            self.guard.is_none_or(|eps| lo - threshold > eps || hi - threshold < -eps)
        };
        let levels = [self.v_low_max, self.v_high_min, self.over, self.under];
        if !(lo >= self.under && hi <= self.over && levels.into_iter().all(clear)) {
            return false;
        }
        match (self.outside, self.entered_from) {
            (Some(outside), None) => outside == side,
            // Nothing outside the band yet, so no traversal either: the
            // run's first sample sets the side.
            (None, None) => {
                self.outside = Some(side);
                true
            }
            // The run's first sample resolves the pending entry.
            (_, Some(_)) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sint_interconnect::basis::ChunkEnvelope;
    use sint_runtime::prop::{gen, Runner};
    use sint_runtime::rng::Rng64;

    fn det() -> NoiseDetector {
        let mut nd = NoiseDetector::new(NdThresholds::for_vdd(1.8));
        nd.set_enabled(true);
        nd
    }

    fn bump(amplitude: f64, width_samples: usize, total: usize) -> Vec<f64> {
        // Triangle bump centred in the window, from and back to 0 V.
        (0..total)
            .map(|k| {
                let d = (k as i64 - total as i64 / 2).unsigned_abs() as usize;
                if d < width_samples / 2 {
                    amplitude * (1.0 - d as f64 / (width_samples as f64 / 2.0))
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn edge(v0: f64, v1: f64, n: usize) -> Vec<f64> {
        (0..n).map(|k| v0 + (v1 - v0) * k as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn thresholds_for_vdd() {
        let t = NdThresholds::for_vdd(1.8);
        assert!((t.v_low_max - 0.54).abs() < 1e-12);
        assert!((t.v_high_min - 1.26).abs() < 1e-12);
    }

    #[test]
    fn in_band_glitch_latches() {
        let mut nd = det();
        assert!(nd.observe(&bump(0.9, 200, 600), 1e-12, 1.8));
        assert!(nd.violation());
    }

    #[test]
    fn full_swing_glitch_latches_as_double_traversal() {
        let mut nd = det();
        // Bump all the way past the band (1.6 V) and back: two
        // traversals within one pattern window.
        assert!(nd.observe(&bump(1.6, 200, 600), 1e-12, 1.8));
    }

    #[test]
    fn negative_glitch_on_high_wire_latches() {
        let mut nd = det();
        // Mirrored: held-high wire dips to 0.9 V and recovers.
        let wave: Vec<f64> = bump(0.9, 200, 600).iter().map(|v| 1.8 - v).collect();
        assert!(nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn small_glitch_below_band_ignored() {
        let mut nd = det();
        assert!(!nd.observe(&bump(0.5, 400, 600), 1e-12, 1.8));
        assert!(!nd.violation());
    }

    #[test]
    fn healthy_edge_passes() {
        let mut nd = det();
        assert!(!nd.observe(&edge(0.0, 1.8, 500), 1e-12, 1.8));
        assert!(!nd.observe(&edge(1.8, 0.0, 500), 1e-12, 1.8));
        assert!(!nd.violation());
    }

    #[test]
    fn slow_monotone_edge_still_passes() {
        // Added delay is the SD cell's job; ND must stay quiet.
        let mut nd = det();
        let mut wave = edge(0.0, 1.8, 5000);
        wave.extend(std::iter::repeat_n(1.8, 500));
        assert!(!nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn edge_followed_by_glitch_latches() {
        let mut nd = det();
        // Legit rise, then a dip back into the band and out the top:
        // same-side return on the high side.
        let mut wave = edge(0.0, 1.8, 300);
        wave.extend(bump(0.9, 200, 600).iter().map(|v| 1.8 - v));
        assert!(nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn overshoot_detected_immediately() {
        let mut nd = det();
        let mut wave = vec![1.8; 100];
        wave[50] = 2.5; // 0.7 V above rail > 0.54 margin.
        assert!(nd.observe(&wave, 1e-12, 1.8));
        let mut nd = det();
        let mut wave = vec![0.0; 100];
        wave[50] = -0.7;
        assert!(nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn mild_overshoot_within_margin_ignored() {
        let mut nd = det();
        let mut wave = vec![1.8; 100];
        wave[50] = 2.0; // 0.2 V above rail < 0.54 margin.
        assert!(!nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn disabled_detector_ignores_but_holds() {
        let mut nd = det();
        nd.observe(&bump(0.9, 200, 600), 1e-12, 1.8);
        assert!(nd.violation());
        nd.set_enabled(false);
        assert!(!nd.observe(&bump(0.9, 200, 600), 1e-12, 1.8));
        assert!(nd.violation(), "CE=0 holds the captured data");
        nd.clear();
        assert!(!nd.violation());
        assert!(!nd.is_enabled());
    }

    #[test]
    fn two_windows_accumulate_stickily() {
        let mut nd = det();
        assert!(!nd.observe(&edge(0.0, 1.8, 500), 1e-12, 1.8), "clean window");
        assert!(nd.observe(&bump(0.9, 200, 600), 1e-12, 1.8), "glitchy window");
        assert!(!nd.observe(&edge(1.8, 0.0, 500), 1e-12, 1.8), "clean again");
        assert!(nd.violation(), "flip-flop stays set");
    }

    #[test]
    fn empty_wave_is_a_no_op() {
        let mut nd = det();
        assert!(!nd.observe(&[], 1e-12, 1.8));
    }

    #[test]
    fn guarded_evaluation_refuses_samples_near_a_threshold() {
        let nd = det();
        let glitch = bump(0.91, 200, 600);
        assert_eq!(nd.evaluate_guarded(&glitch, 1e-12, 1.8, 1e-9), Some(true));
        assert_eq!(nd.evaluate_guarded(&edge(0.0, 1.8, 500), 1e-12, 1.8, 1e-9), Some(false));
        // A sample on the band edge is clean to the detector, but a
        // waveform a hair above it would not be.
        let mut wave = vec![0.0; 100];
        wave[50] = nd.thresholds().v_low_max;
        assert!(!nd.evaluate(&wave, 1e-12, 1.8));
        assert_eq!(nd.evaluate_guarded(&wave, 1e-12, 1.8, 1e-9), None);
        assert_eq!(nd.evaluate_guarded(&wave, 1e-12, 1.8, -1.0), Some(false));
        wave[50] = -nd.thresholds().overshoot_margin - 5e-10;
        assert_eq!(nd.evaluate_guarded(&wave, 1e-12, 1.8, 1e-9), None);
        wave[50] = f64::NAN;
        assert_eq!(nd.evaluate_guarded(&wave, 1e-12, 1.8, 1e-9), None);
        // Samples after the deciding one are never compared.
        let mut decided = glitch.clone();
        decided.push(nd.thresholds().v_high_min);
        assert_eq!(nd.evaluate_guarded(&decided, 1e-12, 1.8, 1e-9), Some(true));
    }

    #[test]
    fn evaluate_ignores_ce_and_latch_honours_it() {
        let mut nd = NoiseDetector::new(NdThresholds::for_vdd(1.8));
        let glitch = bump(0.9, 200, 600);
        assert!(nd.evaluate(&glitch, 1e-12, 1.8), "verdict is CE-independent");
        assert!(!nd.latch(true), "CE=0 latches nothing");
        assert!(!nd.violation());
        nd.set_enabled(true);
        assert!(!nd.latch(false));
        assert!(nd.latch(nd.evaluate(&glitch, 1e-12, 1.8)));
        assert!(nd.violation());
    }

    /// A materialised trace read through the production chunk
    /// envelopes, as `0 + 1·D + 0·S` with `D` the trace and `S = 0`:
    /// exactly the trace's samples.
    struct Materialised<'a> {
        wave: &'a [f64],
        zeros: Vec<f64>,
    }

    impl ChunkedTrace for Materialised<'_> {
        fn samples(&self) -> usize {
            self.wave.len()
        }

        fn bounds(&self, chunk: usize) -> Option<(f64, f64)> {
            let range = chunk * CHUNK..self.wave.len().min((chunk + 1) * CHUNK);
            ChunkEnvelope::of(&self.wave[range.clone()], &self.zeros[range]).bounds(0.0, 1.0, 0.0)
        }

        fn fill(&self, start: usize, out: &mut [f64]) -> bool {
            out.copy_from_slice(&self.wave[start..start + out.len()]);
            true
        }
    }

    const EPS: f64 = 1e-9;

    /// A trace of constant and ramping stretches between levels on and
    /// around every threshold, with stretch ends often on chunk edges;
    /// sometimes a NaN or ±∞ dropped into it, and sometimes a threshold
    /// moved to within 2·EPS of a sample at a chunk's first or last
    /// index.
    fn arb_case(rng: &mut Rng64) -> (Vec<f64>, NdThresholds) {
        let vdd = 1.8;
        let mut nd = NdThresholds::for_vdd(vdd);
        let len = match gen::usize_in(rng, 0..4) {
            0 => 1,
            1 => gen::usize_in(rng, 2..CHUNK),
            _ => gen::usize_in(rng, CHUNK..8 * CHUNK),
        };
        let level = |rng: &mut Rng64| {
            let base = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.3, -0.3];
            let offset = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 1e6, -1e6, 5e7];
            gen::one_of(rng, &base) * vdd + gen::one_of(rng, &offset) * EPS
        };
        let mut wave = Vec::with_capacity(len);
        let mut at = level(rng);
        while wave.len() < len {
            let edge = (wave.len() / CHUNK + 1) * CHUNK;
            let stretch = if gen::bool_any(rng) {
                (edge + gen::usize_in(rng, 0..3)).saturating_sub(wave.len() + 1).max(1)
            } else {
                gen::usize_in(rng, 1..40)
            };
            let to = level(rng);
            let ramp = gen::bool_any(rng);
            for i in 0..stretch.min(len - wave.len()) {
                let noise = if gen::bool_any(rng) { gen::f64_in(rng, -1e-4..1e-4) } else { 0.0 };
                let v = if ramp { at + (to - at) * (i + 1) as f64 / stretch as f64 } else { to };
                wave.push(v + noise);
            }
            at = to;
        }
        if gen::usize_in(rng, 0..4) == 0 {
            let k = gen::usize_in(rng, 0..len);
            wave[k] = gen::one_of(rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        }
        if gen::bool_any(rng) {
            let chunk = gen::usize_in(rng, 0..len.div_ceil(CHUNK));
            let (first, last) = (chunk * CHUNK, len.min((chunk + 1) * CHUNK) - 1);
            let k = if gen::bool_any(rng) { first } else { last };
            let at = wave[k] + gen::f64_in(rng, -2.0 * EPS..2.0 * EPS);
            match gen::usize_in(rng, 0..4) {
                0 => nd.v_low_max = at,
                1 => nd.v_high_min = at,
                2 => nd.overshoot_margin = at - vdd,
                _ => nd.overshoot_margin = -at,
            }
        }
        (wave, nd)
    }

    #[test]
    fn chunked_walks_equal_sample_walks() {
        // Skipping a chunk from its envelope must never change a
        // verdict: the chunked walk gives exactly `evaluate` and
        // `evaluate_guarded` on traces built to touch each threshold
        // at chunk edges, carrying NaN or ±∞, shorter than a chunk, or
        // one sample long. Some chunks must be skipped, or the test
        // proves nothing.
        let (mut skipped, mut verdicts) = (0, [0usize; 3]);
        Runner::new("chunked_nd_walk").cases(2000).run(arb_case, |(wave, nd)| {
            let detector = NoiseDetector::new(*nd);
            let trace = Materialised { wave, zeros: vec![0.0; wave.len()] };
            let (plain, n) = detector.scan_chunked(&trace, 1.8, None);
            let (guarded, m) = detector.scan_chunked(&trace, 1.8, Some(EPS));
            skipped += n + m;
            verdicts[guarded.map_or(2, usize::from)] += 1;
            let want = (
                Some(detector.evaluate(wave, 1e-12, 1.8)),
                detector.evaluate_guarded(wave, 1e-12, 1.8, EPS),
            );
            if (plain, guarded) == want {
                Ok(())
            } else {
                Err(format!("chunked {:?} vs sample walk {want:?}", (plain, guarded)))
            }
        });
        assert!(skipped > 0, "no chunk was ever skipped");
        assert!(verdicts.iter().all(|&n| n > 0), "guarded clean/hit/refused: {verdicts:?}");
    }
}
