//! Exact superposition of MA-shaped patterns from a step basis.
//!
//! The solver is backward Euler on linear R/C/L elements, and every
//! wire's Thevenin source is `v0 + (v1 − v0)·r(t)` with one ramp shape
//! `r` that is zero at `t = 0`. Every discrete waveform of a pair is
//! therefore, up to floating-point rounding,
//!
//! ```text
//! wave[k] = DC(before) + Σ_j (Δ_j / Vdd) · u_j[k]
//! ```
//!
//! where `DC(before)` is the DC operating point the run starts from and
//! `u_j` the response to wire `j` alone rising from all-low (whose DC
//! point is exactly zero). An **MA-shaped** pair moves every wire but
//! one victim `v` by the same `Δ_a ≠ 0` — the six MA fault patterns of
//! the paper — so it collapses to
//!
//! ```text
//! wave[k] = DC(before) + (Δ_a / Vdd)·(U[k] − u_v[k]) + (Δ_v / Vdd)·u_v[k]
//! ```
//!
//! with `U` the all-rise response. A [`StepBasis`] solves `U` once and
//! `u_v` per victim through [`TransientSim::run_pairs_cancellable`],
//! and recombines any MA-shaped pair of its live victims in
//! `O(wires · samples)`: n + 1 columns stand in for the 6n pattern
//! solves of a session. Between solves it holds `U`'s receiver traces
//! only — about 256 KB at n = 32 on the paper grid, where a whole basis
//! would take 8 MB.
//!
//! The recombination differs from a direct solve by rounding only.
//! That difference grows with the conditioning of the transient matrix
//! (κ, the simulator's condition estimate): measured at about 4e-15·κ V
//! on RC and RLC buses, ~1e-13 V on paper-grid buses (κ ≈ 20). A basis
//! [accepts](StepBasis::accepts) only simulators with κ ≤ 10⁴, where the
//! difference stays below 5e-11 V; callers that need *decisions*
//! identical to the direct path compare with a guard band wider than
//! that, and solve a pair directly whenever a compared quantity lands
//! inside it (DESIGN.md §6g).
//!
//! Under a [`StopRule`] the victim columns stop early, but `U` does
//! not: a recombined pair needs exact samples of both `U` and `u_v`
//! until both are certified. The panel that carries `U` runs the full
//! window and records the length `U` could have stopped at; every
//! later victim column keeps at least that many samples, so each
//! recombined trace, as long as its victim column, ends where both of
//! its columns are certified. With `|a| + |a| + |b| ≤ 3` in the
//! recombination, a rule of `tolerance / 3` for the columns bounds the
//! recombined error by `tolerance` (DESIGN.md §6h).

use crate::drive::{DriveLevel, VectorPair};
use crate::error::InterconnectError;
use crate::solver::{Horizon, PanelScratch, StopRule, TransientSim, WavePanel};
use sint_runtime::cancel::CancelToken;

/// Largest simulator condition estimate a basis accepts. Beyond
/// it the recombination's rounding (~4e-15·κ V) is no longer three
/// orders below the 1e-9 V guard band callers compare with — and far
/// beyond it (an extreme injected defect) a direct run can overflow
/// where the basis columns do not.
const MAX_CONDITION: f64 = 1e4;

/// Combined samples beyond this many `Vdd` from ground are refused: a
/// passive bus driven between the rails never gets there, and far from
/// the rails the rounding of the recombination is no longer negligible
/// against a fixed-voltage guard band.
const RANGE_VDDS: f64 = 16.0;

/// Identity of what a basis was solved for: bus fingerprint, the bits
/// of the timestep, edge-launch time and run duration, and the stop
/// rule `U`'s stopped length was taken under.
type BasisKey = (u64, u64, u64, u64, Option<(u64, usize, u64)>);

/// Step responses of one bus: the all-rise column `U`, held until the
/// solver or duration changes, and the single-rise columns `u_v` of the
/// victims of the most recent [`StepBasis::solve`].
#[derive(Debug, Clone, Default)]
pub struct StepBasis {
    key: Option<BasisKey>,
    wires: usize,
    /// Samples of each of `U`'s traces.
    samples: usize,
    vdd: f64,
    /// `U`'s receiver traces over the full window, `[wire·samples + k]`;
    /// empty until solved.
    all_rise: Vec<f64>,
    /// The samples `U` could have stopped at under the key's stop rule
    /// (`usize::MAX` when never certified): the fewest every later
    /// victim column keeps.
    all_rise_len: usize,
    /// Victims with a live single-rise column, in column order.
    victims: Vec<usize>,
    /// The last solved panel while its victim columns are live; they
    /// start at column `first`.
    panel: Option<WavePanel>,
    first: usize,
}

impl StepBasis {
    /// An empty basis; columns are solved on demand.
    #[must_use]
    pub fn new() -> StepBasis {
        StepBasis::default()
    }

    /// Whether recombination from a basis of `sim` stays within rounding
    /// of its direct runs: its condition estimate is at most 10⁴.
    #[must_use]
    pub fn accepts(sim: &TransientSim) -> bool {
        sim.condition_estimate() <= MAX_CONDITION
    }

    /// The victim of an MA-shaped pair: every other wire moves by the
    /// same non-zero step and the victim does not move with them. The
    /// lowest such wire when two qualify (a two-wire bus whose wires
    /// move apart). `None` for every other pair.
    #[must_use]
    pub fn ma_victim(pair: &VectorPair) -> Option<usize> {
        let n = pair.width();
        if n < 2 {
            return None;
        }
        let step = |w: usize| {
            i8::from(pair.after(w) == DriveLevel::High)
                - i8::from(pair.before(w) == DriveLevel::High)
        };
        (0..n).find(|&v| {
            let aggressor = step(if v == 0 { 1 } else { 0 });
            aggressor != 0
                && step(v) != aggressor
                && (0..n).filter(|&w| w != v).all(|w| step(w) == aggressor)
        })
    }

    /// Whether the all-rise column is held.
    #[must_use]
    pub fn has_all_rise(&self) -> bool {
        !self.all_rise.is_empty()
    }

    /// Solves, as one panel, `U` (unless held for this `sim` and
    /// `horizon`) followed by `u_v` for each of `victims`, which
    /// replace the live victim columns. Returns the columns solved.
    ///
    /// A horizon's [`StopRule`] applies to every column: the caller
    /// divides its tolerance by the recombination's coefficient bound.
    /// The panel that solves `U` runs the full window, and later panels
    /// keep at least the samples `U` could have stopped at.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run_pairs_cancellable`]; on error no
    /// victim column is live.
    pub fn solve(
        &mut self,
        sim: &TransientSim,
        victims: &[usize],
        horizon: impl Into<Horizon>,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<usize, InterconnectError> {
        let Horizon { duration, stop } = horizon.into();
        let bus = sim.bus();
        let n = bus.wires();
        let key = (
            bus.fingerprint(),
            sim.dt().to_bits(),
            sim.switch_at().to_bits(),
            duration.to_bits(),
            stop.map(|r| (r.tolerance.to_bits(), r.min_samples, r.tail_fraction.to_bits())),
        );
        if self.key != Some(key) {
            self.all_rise.clear();
            self.key = Some(key);
        }
        self.release_victims();
        let low = vec![DriveLevel::Low; n];
        let mut pairs = Vec::with_capacity(victims.len() + 1);
        if self.all_rise.is_empty() {
            pairs.push(VectorPair::new(low.clone(), vec![DriveLevel::High; n]));
        }
        for &v in victims {
            bus.check_wire(v)?;
            let mut after = low.clone();
            after[v] = DriveLevel::High;
            pairs.push(VectorPair::new(low.clone(), after));
        }
        let carries_all_rise = self.all_rise.is_empty();
        // The panel carrying `U` runs the full window, certifying only.
        let floor = if carries_all_rise { usize::MAX } else { self.all_rise_len };
        let panel_stop = stop.map(|rule| StopRule {
            min_samples: rule.min_samples.max(floor),
            ..rule
        });
        let horizon = Horizon { duration, stop: panel_stop };
        let panel = sim.run_pairs_cancellable(&pairs, horizon, scratch, cancel)?;
        self.wires = n;
        self.vdd = bus.vdd();
        self.first = 0;
        if carries_all_rise {
            self.first = 1;
            self.samples = panel.samples_of(0);
            self.all_rise = (0..n)
                .flat_map(|w| panel.wire(0, w).iter().copied())
                .collect();
            self.all_rise_len = stop
                .zip(panel.certified_at(0))
                .map_or(usize::MAX, |(rule, at)| rule.stop_len(at));
        }
        self.panel = Some(panel);
        self.victims = victims.to_vec();
        Ok(pairs.len())
    }

    /// Timesteps the live panel advanced per lane, summed
    /// ([`WavePanel::lane_steps`]); 0 once its victims are released.
    #[must_use]
    pub fn lane_steps(&self) -> u64 {
        self.panel.as_ref().map_or(0, WavePanel::lane_steps)
    }

    /// Drops the victim columns, keeping `U`: what a caller holds
    /// between solves.
    pub fn release_victims(&mut self) {
        self.victims.clear();
        self.panel = None;
        self.first = 0;
    }

    /// Writes the receiver waveforms of `pair` into `out`
    /// (`[wire·samples + k]`, resized to fit) as
    /// `DC(before) + (Δ_a/Vdd)·(U − u_v) + (Δ_v/Vdd)·u_v`, with
    /// `DC(before)` from `sim`'s own DC factor — so sample 0 is bitwise
    /// the direct run's, since every `u[0]` is zero. `sim` must be the
    /// simulator the basis was solved with.
    ///
    /// The traces are as long as the victim's column: under a stop rule,
    /// where both of their columns are certified.
    ///
    /// Returns `Ok(false)`, leaving `out` unspecified, when `sim` is not
    /// [accepted](StepBasis::accepts), `pair` is not MA-shaped, its
    /// victim has no live column, `U` is shorter than that column, or a
    /// combined sample is non-finite or beyond sixteen `Vdd` of ground.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::WireOutOfRange`] for a pair width mismatch.
    pub fn combine_into(
        &self,
        sim: &TransientSim,
        pair: &VectorPair,
        out: &mut Vec<f64>,
    ) -> Result<bool, InterconnectError> {
        let Some(victim) = Self::ma_victim(pair).filter(|_| Self::accepts(sim)) else {
            return Ok(false);
        };
        let column = self.victims.iter().position(|&v| v == victim);
        let (Some(panel), Some(column)) = (&self.panel, column) else {
            return Ok(false);
        };
        if pair.width() != self.wires {
            return Err(InterconnectError::WireOutOfRange {
                wire: pair.width(),
                width: self.wires,
            });
        }
        let dc = sim.dc_receivers(pair)?;
        let unit = |w: usize| match (pair.before(w), pair.after(w)) {
            (DriveLevel::Low, DriveLevel::High) => 1.0,
            (DriveLevel::High, DriveLevel::Low) => -1.0,
            _ => 0.0,
        };
        let aggressor = unit(if victim == 0 { 1 } else { 0 });
        let own = unit(victim);
        let (wires, samples) = (self.wires, self.samples);
        let len = panel.samples_of(self.first + column);
        if len > samples {
            return Ok(false);
        }
        let limit = RANGE_VDDS * self.vdd.abs();
        out.clear();
        // Sized for `U`'s full length once, so that columns of varying
        // stopped lengths never reallocate the caller's buffer.
        out.reserve(wires * samples);
        out.resize(wires * len, 0.0);
        let mut in_range = true;
        for (w, (trace, &level)) in out.chunks_exact_mut(len).zip(&dc).enumerate() {
            let all = &self.all_rise[w * samples..w * samples + len];
            let single = panel.wire(self.first + column, w);
            for ((x, &u), &uv) in trace.iter_mut().zip(all).zip(single) {
                *x = level + aggressor * (u - uv) + own * uv;
                in_range &= x.abs() <= limit;
            }
        }
        Ok(in_range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BusParams;

    fn pair(before: &str, after: &str) -> VectorPair {
        VectorPair::from_strs(before, after).unwrap()
    }

    #[test]
    fn ma_shape_is_the_six_fault_patterns() {
        assert_eq!(StepBasis::ma_victim(&pair("0000", "1011")), Some(1), "Pg");
        assert_eq!(
            StepBasis::ma_victim(&pair("0100", "1111")),
            Some(1),
            "PgBar"
        );
        assert_eq!(StepBasis::ma_victim(&pair("1011", "0100")), Some(1), "Rs");
        assert_eq!(StepBasis::ma_victim(&pair("0100", "1011")), Some(1), "Fs");
        assert_eq!(
            StepBasis::ma_victim(&pair("0000", "1111")),
            None,
            "uniform rise"
        );
        assert_eq!(
            StepBasis::ma_victim(&pair("0000", "1001")),
            None,
            "two quiet wires"
        );
        assert_eq!(
            StepBasis::ma_victim(&pair("0110", "1111")),
            None,
            "aggressors disagree"
        );
        assert_eq!(
            StepBasis::ma_victim(&pair("01", "10")),
            Some(0),
            "two wires apart"
        );
        assert_eq!(StepBasis::ma_victim(&pair("00", "01")), Some(0));
        assert_eq!(StepBasis::ma_victim(&pair("0", "1")), None);
    }

    #[test]
    fn recombination_matches_direct_solves_of_every_fault_pattern() {
        let bus = BusParams::dsm_bus(5).segments(3).build().unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let mut basis = StepBasis::new();
        let mut scratch = PanelScratch::new();
        assert_eq!(
            basis
                .solve(&sim, &[1, 3], 0.8e-9, &mut scratch, None)
                .unwrap(),
            3
        );
        assert!(basis.has_all_rise());
        let pairs = [
            pair("00000", "10111"),
            pair("01000", "11111"),
            pair("10111", "01000"),
            pair("01000", "10111"),
            pair("11101", "00010"),
        ];
        let direct = sim
            .run_pairs_cancellable(&pairs, 0.8e-9, &mut scratch, None)
            .unwrap();
        let mut out = Vec::new();
        for (c, p) in pairs.iter().enumerate() {
            assert!(basis.combine_into(&sim, p, &mut out).unwrap(), "{p}");
            for w in 0..5 {
                let trace = &out[w * direct.samples()..(w + 1) * direct.samples()];
                assert_eq!(
                    trace[0].to_bits(),
                    direct.wire(c, w)[0].to_bits(),
                    "DC sample"
                );
                for (a, b) in trace.iter().zip(direct.wire(c, w)) {
                    assert!((a - b).abs() < 1e-11, "{p} wire {w}: {a} vs {b}");
                }
            }
        }
        // Victim 2 has no live column; U survives a re-solve.
        assert!(!basis
            .combine_into(&sim, &pair("00000", "11011"), &mut out)
            .unwrap());
        assert_eq!(
            basis.solve(&sim, &[2], 0.8e-9, &mut scratch, None).unwrap(),
            1
        );
        assert!(basis
            .combine_into(&sim, &pair("00000", "11011"), &mut out)
            .unwrap());
        assert!(!basis
            .combine_into(&sim, &pair("00000", "10111"), &mut out)
            .unwrap());
        // A different duration is a different basis.
        assert_eq!(
            basis.solve(&sim, &[2], 0.6e-9, &mut scratch, None).unwrap(),
            2
        );
    }

    #[test]
    fn stopped_columns_recombine_a_bitwise_prefix_of_the_full_basis() {
        // Under a stop rule the panel carrying `U` runs the full window;
        // later victim columns keep at least `U`'s stopped length, and
        // every recombined trace is a bitwise prefix of the full basis's.
        let bus = BusParams::dsm_bus(6).segments(3).build().unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let rule = StopRule { tolerance: 0.05, min_samples: 120, tail_fraction: 0.1 };
        let horizon = Horizon { duration: 2e-9, stop: Some(rule) };
        let (mut full, mut cut) = (StepBasis::new(), StepBasis::new());
        let mut scratch = PanelScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut shorter = 0;
        for victims in [&[0, 1][..], &[2, 3, 4, 5][..]] {
            full.solve(&sim, victims, 2e-9, &mut scratch, None).unwrap();
            cut.solve(&sim, victims, horizon, &mut scratch, None).unwrap();
            assert_eq!(cut.samples, full.samples, "U keeps the full window");
            assert!(cut.all_rise_len < cut.samples, "U certifies: {}", cut.all_rise_len);
            for &v in victims {
                let after: String = (0..6).map(|w| if w == v { '0' } else { '1' }).collect();
                let p = pair("000000", &after);
                assert!(full.combine_into(&sim, &p, &mut a).unwrap());
                assert!(cut.combine_into(&sim, &p, &mut b).unwrap());
                let (la, lb) = (a.len() / 6, b.len() / 6);
                assert!(lb >= cut.all_rise_len.min(la) && lb >= rule.min_samples, "{lb}");
                shorter += usize::from(lb < la);
                for w in 0..6 {
                    let (ta, tb) = (&a[w * la..w * la + lb], &b[w * lb..(w + 1) * lb]);
                    let prefix = ta.iter().zip(tb).all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(prefix, "{p} wire {w}");
                }
            }
        }
        assert!(shorter > 0, "no victim column stopped early");
        // A `U` shorter than the victim's column recombines nothing.
        cut.samples = 10;
        assert!(!cut.combine_into(&sim, &pair("000000", "110111"), &mut b).unwrap());
    }

    #[test]
    fn ill_conditioned_buses_are_refused() {
        let healthy = BusParams::dsm_bus(4).segments(2).build().unwrap();
        let mut boosted = healthy.clone();
        crate::Defect::CouplingBoost {
            wire: 1,
            factor: 1e6,
        }
        .apply(&mut boosted)
        .unwrap();
        let sim = TransientSim::new(&boosted, 2e-12).unwrap();
        assert!(StepBasis::accepts(
            &TransientSim::new(&healthy, 2e-12).unwrap()
        ));
        assert!(!StepBasis::accepts(&sim));
        let mut basis = StepBasis::new();
        basis
            .solve(&sim, &[1], 0.4e-9, &mut PanelScratch::new(), None)
            .unwrap();
        let mut out = Vec::new();
        assert!(!basis
            .combine_into(&sim, &pair("0000", "1011"), &mut out)
            .unwrap());
    }

    #[test]
    fn failed_solves_leave_no_victim_column() {
        let bus = BusParams::dsm_bus(3).build().unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let mut basis = StepBasis::new();
        let mut scratch = PanelScratch::new();
        basis.solve(&sim, &[0], 0.4e-9, &mut scratch, None).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = basis
            .solve(&sim, &[1], 0.4e-9, &mut scratch, Some(&token))
            .unwrap_err();
        assert!(
            matches!(err, InterconnectError::Cancelled { .. }),
            "{err:?}"
        );
        let mut out = Vec::new();
        assert!(!basis
            .combine_into(&sim, &pair("100", "011"), &mut out)
            .unwrap());
        let err = basis
            .solve(&sim, &[3], 0.4e-9, &mut scratch, None)
            .unwrap_err();
        assert!(
            matches!(err, InterconnectError::WireOutOfRange { .. }),
            "{err:?}"
        );
    }
}
