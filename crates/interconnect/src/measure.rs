//! Waveform measurements: the analog-to-verdict layer.
//!
//! These functions turn solver output into the quantities the paper's
//! detector cells react to: glitch amplitude on a quiet wire (ND cell,
//! §2.1) and arrival-time/skew of a switching wire (SD cell, §2.2).

/// Peak absolute deviation of `wave` from `baseline` (V).
///
/// For a quiet victim the baseline is its held level (0 or Vdd); the
/// result is the crosstalk glitch amplitude.
///
/// ```
/// use sint_interconnect::measure::glitch_amplitude;
/// let wave = [0.0, 0.1, 0.62, 0.3, 0.0];
/// assert!((glitch_amplitude(&wave, 0.0) - 0.62).abs() < 1e-12);
/// ```
#[must_use]
pub fn glitch_amplitude(wave: &[f64], baseline: f64) -> f64 {
    wave.iter().map(|v| (v - baseline).abs()).fold(0.0, f64::max)
}

/// Maximum value of the waveform (V), e.g. for overshoot checks.
#[must_use]
pub fn peak(wave: &[f64]) -> f64 {
    wave.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

/// Overshoot above `vdd` (V), zero when the wave never exceeds the rail.
#[must_use]
pub fn overshoot(wave: &[f64], vdd: f64) -> f64 {
    (peak(wave) - vdd).max(0.0)
}

/// The first time `wave` crosses `level` in the requested direction,
/// with linear interpolation between samples. Returns `None` if it never
/// crosses.
#[must_use]
pub fn crossing_time(wave: &[f64], dt: f64, level: f64, rising: bool) -> Option<f64> {
    for k in 1..wave.len() {
        let (a, b) = (wave[k - 1], wave[k]);
        let crossed = if rising { a < level && b >= level } else { a > level && b <= level };
        if crossed {
            let frac = if (b - a).abs() < f64::EPSILON { 0.0 } else { (level - a) / (b - a) };
            return Some(((k - 1) as f64 + frac) * dt);
        }
    }
    None
}

/// Propagation delay: time from the driver edge launch (`t_switch`) to
/// the 50 %-Vdd crossing at the receiver, for a wire transitioning in
/// `rising` direction. `None` when the receiver never crosses.
#[must_use]
pub fn propagation_delay(
    wave: &[f64],
    dt: f64,
    vdd: f64,
    t_switch: f64,
    rising: bool,
) -> Option<f64> {
    let t_cross = crossing_time(wave, dt, vdd / 2.0, rising)?;
    if t_cross < t_switch {
        // Crossed before the stimulus: numerical noise, treat as zero delay.
        Some(0.0)
    } else {
        Some(t_cross - t_switch)
    }
}

/// Skew between two arrival times (s): positive when `victim` arrives
/// later than `reference`.
#[must_use]
pub fn skew(victim_arrival: f64, reference_arrival: f64) -> f64 {
    victim_arrival - reference_arrival
}

/// The final settled value of a waveform, averaged over the last
/// `tail_fraction` of samples (robust against residual ringing).
///
/// # Panics
///
/// Panics if `wave` is empty or `tail_fraction` is not in `(0, 1]`.
#[must_use]
pub fn settled_value(wave: &[f64], tail_fraction: f64) -> f64 {
    assert!(!wave.is_empty(), "empty waveform");
    assert!(tail_fraction > 0.0 && tail_fraction <= 1.0, "bad tail fraction");
    let tail = &wave[tail_start(wave.len(), tail_fraction).min(wave.len() - 1)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// The first sample of the last `tail_fraction` of a `len`-sample
/// waveform, as [`settled_value`] averages it: non-decreasing in `len`.
#[must_use]
pub fn tail_start(len: usize, tail_fraction: f64) -> usize {
    ((len as f64) * (1.0 - tail_fraction)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, v0: f64, v1: f64) -> Vec<f64> {
        (0..n).map(|k| v0 + (v1 - v0) * k as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn glitch_amplitude_is_peak_deviation() {
        let wave = [1.8, 1.75, 1.2, 1.5, 1.8];
        assert!((glitch_amplitude(&wave, 1.8) - 0.6).abs() < 1e-12);
        assert_eq!(glitch_amplitude(&[], 0.0), 0.0);
    }

    #[test]
    fn peak_trough_overshoot() {
        let wave = [0.0, 2.0, 1.8, -0.1];
        assert_eq!(peak(&wave), 2.0);
        assert!((overshoot(&wave, 1.8) - 0.2).abs() < 1e-12);
        assert_eq!(overshoot(&[0.0, 1.0], 1.8), 0.0);
    }

    #[test]
    fn crossing_time_interpolates() {
        let wave = ramp(11, 0.0, 1.0); // crosses 0.55 between samples 5 and 6
        let t = crossing_time(&wave, 1.0, 0.55, true).unwrap();
        assert!((t - 5.5).abs() < 1e-9, "t = {t}");
        assert_eq!(crossing_time(&wave, 1.0, 2.0, true), None);
        // Falling crossing on a falling ramp.
        let down = ramp(11, 1.0, 0.0);
        let t = crossing_time(&down, 1.0, 0.5, false).unwrap();
        assert!((t - 5.0).abs() < 1e-9);
    }

    #[test]
    fn crossing_direction_matters() {
        let bump = [0.0, 0.4, 0.8, 0.4, 0.0];
        // Rising crossing of 0.5 at ~1.25; falling at ~2.75.
        let up = crossing_time(&bump, 1.0, 0.5, true).unwrap();
        let down = crossing_time(&bump, 1.0, 0.5, false).unwrap();
        assert!(up < down);
    }

    #[test]
    fn propagation_delay_references_switch_time() {
        let mut wave = vec![0.0; 10];
        wave.extend(ramp(11, 0.0, 1.8));
        let d = propagation_delay(&wave, 1.0, 1.8, 10.0, true).unwrap();
        assert!((d - 5.0).abs() < 1e-9, "50% at sample 15, switch at 10: {d}");
        assert!(propagation_delay(&[0.0; 5], 1.0, 1.8, 0.0, true).is_none());
    }

    #[test]
    fn skew_sign_convention() {
        assert_eq!(skew(10.0, 7.0), 3.0);
        assert_eq!(skew(5.0, 7.0), -2.0);
    }

    #[test]
    fn settled_value_averages_tail() {
        let mut wave = ramp(100, 0.0, 1.8);
        wave.extend(std::iter::repeat_n(1.8, 100));
        let v = settled_value(&wave, 0.25);
        assert!((v - 1.8).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty waveform")]
    fn settled_value_rejects_empty() {
        let _ = settled_value(&[], 0.5);
    }
}
