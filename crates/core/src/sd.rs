//! The skew-detector (SD) cell — behavioural model of the paper's
//! delay-generator comparator (§2.2, Fig 2).
//!
//! The silicon cell delays the test clock by the designer-chosen
//! *skew-immune range* (derived from the interconnect's delay budget)
//! and compares the delayed clock against the received line: if the line
//! has not settled to its final value when the delayed clock samples it,
//! the NOR comparator emits a pulse that sets the SD flip-flop.
//!
//! The behavioural model does exactly that on solver waveforms: sample
//! the line `window` seconds after the driving edge launches; a
//! violation is recorded when the sample deviates from the expected
//! final level by more than `settle_tolerance`.

use sint_interconnect::drive::DriveLevel;

/// Timing parameters for a skew detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdWindow {
    /// The skew-immune range: allowed time from edge launch to settled
    /// arrival (s). Fig 2's delay-generator value.
    pub window: f64,
    /// How close (V) to the final rail the line must be at the sample
    /// instant to count as settled.
    pub settle_tolerance: f64,
}

impl SdWindow {
    /// A window of `window` seconds with a `0.3·Vdd` settle tolerance.
    #[must_use]
    pub fn for_vdd(window: f64, vdd: f64) -> SdWindow {
        SdWindow { window, settle_tolerance: 0.3 * vdd }
    }
}

/// A sticky skew detector with its output flip-flop.
///
/// ```
/// use sint_core::sd::{SdWindow, SkewDetector};
/// use sint_interconnect::drive::DriveLevel;
/// let mut sd = SkewDetector::new(SdWindow::for_vdd(400e-12, 1.8));
/// sd.set_enabled(true);
/// // A rising line still at 0.2 V when sampled 400 ps after launch.
/// let wave = vec![0.2_f64; 1000];
/// sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0);
/// assert!(sd.violation());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SkewDetector {
    window: SdWindow,
    enabled: bool,
    latched: bool,
}

impl SkewDetector {
    /// A disabled, cleared detector.
    #[must_use]
    pub fn new(window: SdWindow) -> Self {
        SkewDetector { window, enabled: false, latched: false }
    }

    /// The configured window.
    #[must_use]
    pub fn window(&self) -> &SdWindow {
        &self.window
    }

    /// Sets the CE signal; a disabled detector ignores input but holds
    /// its flip-flop.
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

    /// Clears the flip-flop.
    pub fn clear(&mut self) {
        self.latched = false;
    }

    /// Observes one transition: the line should settle to `final_level`
    /// within the window after `t_launch` (s from waveform start).
    ///
    /// Returns whether this observation raised a violation. Lines that
    /// do not transition are not sampled (the hardware only pulses when
    /// the delayed clock disagrees with a *changing* line).
    pub fn observe(
        &mut self,
        wave: &[f64],
        dt: f64,
        vdd: f64,
        final_level: DriveLevel,
        t_launch: f64,
    ) -> bool {
        let hit = self.enabled && self.evaluate(wave, dt, vdd, final_level, t_launch);
        self.latch(hit)
    }

    /// Latches a verdict [`SkewDetector::evaluate`] produced: sets the
    /// sticky flip-flop when `hit` and CE is asserted. Returns whether
    /// this call recorded a violation.
    pub fn latch(&mut self, hit: bool) -> bool {
        let hit = hit && self.enabled;
        self.latched |= hit;
        hit
    }

    /// Whether one transition misses the window, regardless of CE and
    /// without touching the flip-flop: a pure function of the waveform,
    /// the window and the launch time.
    #[must_use]
    pub fn evaluate(
        &self,
        wave: &[f64],
        dt: f64,
        vdd: f64,
        final_level: DriveLevel,
        t_launch: f64,
    ) -> bool {
        self.deviation(wave, dt, vdd, final_level, t_launch)
            .is_some_and(|d| d > self.window.settle_tolerance)
    }

    /// [`SkewDetector::evaluate`] with a guard band: `Some(verdict)`
    /// when the sampled deviation `|wave[k] − target|` lies more than
    /// `eps` from `settle_tolerance`, so every waveform within `eps / 2`
    /// of `wave` gets the same verdict; `None` otherwise (including for
    /// a non-finite sample).
    #[must_use]
    pub fn evaluate_guarded(
        &self,
        wave: &[f64],
        dt: f64,
        vdd: f64,
        final_level: DriveLevel,
        t_launch: f64,
        eps: f64,
    ) -> Option<bool> {
        match self.deviation(wave, dt, vdd, final_level, t_launch) {
            None => Some(false),
            Some(d) => self.decide_guarded(d, eps),
        }
    }

    /// The guarded verdict on a sampled deviation `|wave[k] − target|`:
    /// `None` within `eps` of `settle_tolerance`.
    pub(crate) fn decide_guarded(&self, deviation: f64, eps: f64) -> Option<bool> {
        let tolerance = self.window.settle_tolerance;
        ((deviation - tolerance).abs() > eps).then_some(deviation > tolerance)
    }

    /// The sample index of the comparator's instant, `window` after a
    /// launch at `t_launch`, on a grid of `dt`: [`SkewDetector::evaluate`]
    /// reads it, or the last sample of a shorter waveform.
    #[must_use]
    pub(crate) fn sample_index(&self, dt: f64, t_launch: f64) -> usize {
        ((t_launch + self.window.window) / dt).round() as usize
    }

    /// `|wave[k] − target|` at the sample instant `k`, the one quantity
    /// the comparator decides on; `None` for an empty waveform.
    fn deviation(
        &self,
        wave: &[f64],
        dt: f64,
        vdd: f64,
        final_level: DriveLevel,
        t_launch: f64,
    ) -> Option<f64> {
        let last = wave.len().checked_sub(1)?;
        let k = self.sample_index(dt, t_launch).min(last);
        Some((wave[k] - final_level.voltage(vdd)).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(window: f64) -> SkewDetector {
        let mut sd = SkewDetector::new(SdWindow::for_vdd(window, 1.8));
        sd.set_enabled(true);
        sd
    }

    fn edge(t_50: f64, rise: f64, n: usize, dt: f64) -> Vec<f64> {
        // Linear edge centred at t_50, full swing over `rise`.
        (0..n)
            .map(|k| {
                let t = k as f64 * dt;
                (1.8 * ((t - t_50) / rise + 0.5)).clamp(0.0, 1.8)
            })
            .collect()
    }

    #[test]
    fn timely_edge_passes() {
        let mut sd = det(400e-12);
        // Edge settles by ~250 ps; window samples at 400 ps.
        let wave = edge(200e-12, 100e-12, 1000, 1e-12);
        assert!(!sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(!sd.violation());
    }

    #[test]
    fn late_edge_latches() {
        let mut sd = det(400e-12);
        // Edge centred at 700 ps: at the 400 ps sample the line is low.
        let wave = edge(700e-12, 100e-12, 1500, 1e-12);
        assert!(sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(sd.violation());
    }

    #[test]
    fn falling_edge_checked_against_ground() {
        let mut sd = det(400e-12);
        // A falling line stuck half-way at sample time.
        let wave = vec![0.9; 1000];
        assert!(sd.observe(&wave, 1e-12, 1.8, DriveLevel::Low, 0.0));
        // A settled-low line passes.
        let mut sd = det(400e-12);
        let wave = vec![0.05; 1000];
        assert!(!sd.observe(&wave, 1e-12, 1.8, DriveLevel::Low, 0.0));
    }

    #[test]
    fn launch_offset_shifts_the_sample() {
        let mut sd = det(300e-12);
        // Edge at 500 ps; launch at 300 ps → sample at 600 ps: settled.
        let wave = edge(500e-12, 100e-12, 1500, 1e-12);
        assert!(!sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 300e-12));
        // Same edge referenced to launch 0 → sample at 300 ps: late.
        let mut sd = det(300e-12);
        assert!(sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0));
    }

    #[test]
    fn sticky_across_observations_and_ce() {
        let mut sd = det(400e-12);
        sd.observe(&vec![0.9; 1000], 1e-12, 1.8, DriveLevel::High, 0.0);
        assert!(sd.violation());
        // Later clean edges do not clear the flip-flop.
        sd.observe(&edge(100e-12, 50e-12, 1000, 1e-12), 1e-12, 1.8, DriveLevel::High, 0.0);
        assert!(sd.violation());
        sd.set_enabled(false);
        assert!(!sd.observe(&vec![0.9; 1000], 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(sd.violation(), "CE=0 holds the flip-flop");
        sd.clear();
        assert!(!sd.violation());
    }

    #[test]
    fn sample_clamped_to_waveform_end() {
        let mut sd = det(10e-9); // window beyond the trace
        let wave = edge(200e-12, 100e-12, 500, 1e-12);
        // Clamps to last sample (settled high) → no violation.
        assert!(!sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(!sd.observe(&[], 1e-12, 1.8, DriveLevel::High, 0.0));
    }

    #[test]
    fn guarded_evaluation_refuses_deviations_near_the_tolerance() {
        let sd = SkewDetector::new(SdWindow::for_vdd(400e-12, 1.8));
        let tolerance = sd.window().settle_tolerance;
        let guarded = |v: f64| sd.evaluate_guarded(&[v; 1000], 1e-12, 1.8, DriveLevel::High, 0.0, 1e-9);
        assert_eq!(guarded(0.9), Some(true));
        assert_eq!(guarded(1.5), Some(false));
        assert_eq!(guarded(1.8 - tolerance), None);
        assert_eq!(guarded(1.8 - tolerance + 5e-10), None);
        assert_eq!(guarded(f64::NAN), None);
        assert_eq!(sd.evaluate_guarded(&[], 1e-12, 1.8, DriveLevel::High, 0.0, 1e-9), Some(false));
    }

    #[test]
    fn evaluate_ignores_ce_and_latch_honours_it() {
        let mut sd = SkewDetector::new(SdWindow::for_vdd(400e-12, 1.8));
        let late = vec![0.9; 1000];
        assert!(sd.evaluate(&late, 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(!sd.latch(true), "CE=0 latches nothing");
        sd.set_enabled(true);
        assert!(sd.latch(sd.evaluate(&late, 1e-12, 1.8, DriveLevel::High, 0.0)));
        assert!(sd.violation());
    }
}
