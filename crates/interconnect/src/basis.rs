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
//! with `U` the all-rise response. A [`StepBasis`] holds `U`, solved
//! once per simulator and duration through
//! [`TransientSim::run_pairs_cancellable`]; each [`VictimPanel`] holds
//! the `u_v` of a few victims, solved from the basis by
//! [`StepBasis::solve_victims`]: n + 1 columns stand in for the 6n
//! pattern solves of a session. The basis is read-only once `U` is
//! solved, so a caller may solve and read any number of victim panels
//! at once, one per thread. Between solves only `U`'s receiver traces
//! are held — about 256 KB at n = 32 on the paper grid, where a whole
//! basis would take 8 MB.
//!
//! A live victim's pairs are read through a [`Recombination`], a view
//! of `U` and the victim's column that computes any one sample on
//! demand with the expression above. All six MA pairs of a victim share
//! its [`ChunkEnvelope`]s: per wire and per [`CHUNK`] samples, the
//! extremes of `D = U − u_v` and `S = u_v`. From them
//! [`RecombinedWire::bounds`] bounds every sample of a chunk of any of
//! those pairs without computing one, so a detector can skip the chunks
//! where it cannot change state and compute samples only where a level
//! is in reach (DESIGN.md §6i). [`StepBasis::combine_into`]
//! materialises whole traces through the same view, as a reference.
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
//! until both are certified. `U` is its own one-column panel over the
//! full window, and records the length it could have stopped at; every
//! victim column keeps at least that many samples, so each recombined
//! trace, as long as its victim column, ends where both of its columns
//! are certified. With `|a| + |a| + |b| ≤ 3` in the recombination, a
//! rule of `tolerance / 3` for the columns bounds the recombined error
//! by `tolerance` (DESIGN.md §6h).

use crate::drive::{DriveLevel, VectorPair};
use crate::error::InterconnectError;
use crate::solver::{Horizon, PanelScratch, StopRule, TransientSim, WavePanel};
use sint_runtime::cancel::CancelToken;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Samples per chunk of a [`ChunkEnvelope`]: a paper-grid trace of
/// 1,001 samples has 32 chunks.
pub const CHUNK: usize = 32;

/// Victim panels solved so far: each gets a number no other panel
/// shares ([`Recombination::columns`]).
static SOLVES: AtomicU64 = AtomicU64::new(0);

/// Identity of what a basis was solved for: bus fingerprint, the bits
/// of the timestep, edge-launch time and run duration, and the stop
/// rule `U`'s stopped length was taken under.
type BasisKey = (u64, u64, u64, u64, Option<(u64, usize, u64)>);

/// The all-rise column `U` of one bus, held until the solver or the
/// horizon changes: the shared, read-only part of a step basis that
/// every [`VictimPanel`] recombines with.
#[derive(Debug, Clone, Default)]
pub struct StepBasis {
    key: Option<BasisKey>,
    /// The run duration and stop rule of the key.
    duration: f64,
    stop: Option<StopRule>,
    wires: usize,
    /// Samples of each of `U`'s traces.
    samples: usize,
    vdd: f64,
    /// `U`'s receiver traces over the full window, one per wire (the
    /// traces of its one-column panel); empty until solved.
    all_rise: Vec<Vec<f64>>,
    /// The samples `U` could have stopped at under the key's stop rule
    /// (`usize::MAX` when never certified): the fewest every victim
    /// column keeps.
    all_rise_len: usize,
}

/// The single-rise columns `u_v` of a few victims, solved from a
/// [`StepBasis`] by [`StepBasis::solve_victims`] and read together with
/// it.
#[derive(Debug, Clone)]
pub struct VictimPanel {
    /// The victims, in column order.
    victims: Vec<usize>,
    panel: WavePanel,
    /// The number of this solve.
    solve: u64,
}

impl VictimPanel {
    /// Timesteps the panel advanced per lane, summed
    /// ([`WavePanel::lane_steps`]).
    #[must_use]
    pub fn lane_steps(&self) -> u64 {
        self.panel.lane_steps()
    }

    /// The number of columns solved: one per victim.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.victims.len()
    }
}

impl StepBasis {
    /// An empty basis; `U` is solved on demand.
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

    /// Solves `U` for `sim` and `horizon` as a one-column panel, unless
    /// it is held for them already. Returns the timesteps the solve
    /// advanced, `None` when `U` was held.
    ///
    /// `U` runs the full window, certifying only: under a horizon's
    /// [`StopRule`] it records the length it could have stopped at, the
    /// floor of every victim column's length. The caller divides the
    /// rule's tolerance by the recombination's coefficient bound.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run_pairs_cancellable`]; on error `U` is
    /// not held.
    pub fn solve_all_rise(
        &mut self,
        sim: &TransientSim,
        horizon: impl Into<Horizon>,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<u64>, InterconnectError> {
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
        if self.key == Some(key) && !self.all_rise.is_empty() {
            return Ok(None);
        }
        *self = StepBasis { key: Some(key), duration, stop, ..StepBasis::default() };
        let all_rise = VectorPair::new(vec![DriveLevel::Low; n], vec![DriveLevel::High; n]);
        let full = stop.map(|rule| StopRule { min_samples: usize::MAX, ..rule });
        let horizon = Horizon { duration, stop: full };
        let panel = sim.run_pairs_cancellable(&[all_rise], horizon, scratch, cancel)?;
        let steps = panel.lane_steps();
        self.wires = n;
        self.vdd = bus.vdd();
        self.samples = panel.samples_of(0);
        self.all_rise_len = stop
            .zip(panel.certified_at(0))
            .map_or(usize::MAX, |(rule, at)| rule.stop_len(at));
        self.all_rise = panel.into_traces();
        Ok(Some(steps))
    }

    /// Solves `u_v` for each of `victims` as one panel over the horizon
    /// of [`StepBasis::solve_all_rise`], every column keeping at least
    /// the samples `U` could have stopped at. `sim` must be the
    /// simulator `U` was solved with, and `U` must be held: without it
    /// every recombination is refused. Reads the basis only, so panels
    /// may be solved concurrently.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run_pairs_cancellable`].
    pub fn solve_victims(
        &self,
        sim: &TransientSim,
        victims: &[usize],
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<VictimPanel, InterconnectError> {
        let bus = sim.bus();
        let n = bus.wires();
        let mut pairs = Vec::with_capacity(victims.len());
        for &v in victims {
            bus.check_wire(v)?;
            let mut after = vec![DriveLevel::Low; n];
            after[v] = DriveLevel::High;
            pairs.push(VectorPair::new(vec![DriveLevel::Low; n], after));
        }
        let stop = self.stop.map(|rule| StopRule {
            min_samples: rule.min_samples.max(self.all_rise_len),
            ..rule
        });
        let horizon = Horizon { duration: self.duration, stop };
        let panel = sim.run_pairs_cancellable(&pairs, horizon, scratch, cancel)?;
        Ok(VictimPanel {
            victims: victims.to_vec(),
            panel,
            solve: SOLVES.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// A read view of `pair`'s recombination from `U` and `panel`, as
    /// long as the victim's column: under a stop rule, where both of
    /// its columns are certified. `DC(before)` comes from `sim`'s own
    /// DC factor, written into `dc`, so sample 0 is bitwise the direct
    /// run's, since every `u[0]` is zero. `sim` must be the simulator
    /// the basis and the panel were solved with.
    ///
    /// `None` when `sim` is not [accepted](StepBasis::accepts), `pair`
    /// is not MA-shaped, its victim has no column in `panel`, or `U` is
    /// shorter than that column.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::WireOutOfRange`] for a pair width mismatch.
    pub fn recombination<'a>(
        &'a self,
        panel: &'a VictimPanel,
        sim: &TransientSim,
        pair: &VectorPair,
        dc: &'a mut Vec<f64>,
    ) -> Result<Option<Recombination<'a>>, InterconnectError> {
        let Some(victim) = Self::ma_victim(pair).filter(|_| Self::accepts(sim)) else {
            return Ok(None);
        };
        let Some(column) = panel.victims.iter().position(|&v| v == victim) else {
            return Ok(None);
        };
        let len = panel.panel.samples_of(column);
        if len > self.samples {
            return Ok(None);
        }
        if pair.width() != self.wires {
            return Err(InterconnectError::WireOutOfRange {
                wire: pair.width(),
                width: self.wires,
            });
        }
        sim.dc_receivers(pair, dc)?;
        let unit = |w: usize| match (pair.before(w), pair.after(w)) {
            (DriveLevel::Low, DriveLevel::High) => 1.0,
            (DriveLevel::High, DriveLevel::Low) => -1.0,
            _ => 0.0,
        };
        Ok(Some(Recombination {
            basis: self,
            panel,
            column,
            victim,
            len,
            dc,
            aggressor: unit(if victim == 0 { 1 } else { 0 }),
            own: unit(victim),
        }))
    }

    /// Writes the receiver waveforms of `pair` into `out`
    /// (`[wire·samples + k]`, resized to fit) as its
    /// [`StepBasis::recombination`] from `panel` computes them.
    ///
    /// Returns `Ok(false)`, leaving `out` unspecified, where
    /// [`StepBasis::recombination`] gives `None`, or when a combined
    /// sample is non-finite or beyond sixteen `Vdd` of ground.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::WireOutOfRange`] for a pair width mismatch.
    pub fn combine_into(
        &self,
        panel: &VictimPanel,
        sim: &TransientSim,
        pair: &VectorPair,
        out: &mut Vec<f64>,
    ) -> Result<bool, InterconnectError> {
        let mut dc = Vec::new();
        let Some(recombination) = self.recombination(panel, sim, pair, &mut dc)? else {
            return Ok(false);
        };
        let len = recombination.samples();
        out.clear();
        out.resize(self.wires * len, 0.0);
        let mut in_range = true;
        for (w, trace) in out.chunks_exact_mut(len).enumerate() {
            in_range &= recombination.wire(w).fill(0, trace);
        }
        Ok(in_range)
    }
}

/// One MA pair's recombination `DC + a·(U − u_v) + b·u_v` from a
/// basis and a victim panel ([`StepBasis::recombination`]), computed per
/// sample on demand.
#[derive(Debug, Clone, Copy)]
pub struct Recombination<'a> {
    basis: &'a StepBasis,
    panel: &'a VictimPanel,
    /// The victim's column in `panel`.
    column: usize,
    victim: usize,
    /// Samples of the victim's column.
    len: usize,
    dc: &'a [f64],
    /// `a = Δ_a/Vdd` and `b = Δ_v/Vdd`, each −1, 0 or 1.
    aggressor: f64,
    own: f64,
}

impl<'a> Recombination<'a> {
    /// Number of wires.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.basis.wires
    }

    /// Samples of each trace.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.len
    }

    /// The columns this recombination reads, `(solve, victim)`: equal
    /// for two recombinations exactly when they share their
    /// [`ChunkEnvelope`]s.
    #[must_use]
    pub fn columns(&self) -> (u64, usize) {
        (self.panel.solve, self.victim)
    }

    /// The trace of `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is out of range.
    #[must_use]
    pub fn wire(&self, wire: usize) -> RecombinedWire<'a> {
        RecombinedWire {
            all_rise: &self.basis.all_rise[wire][..self.len],
            single: self.panel.panel.wire(self.column, wire),
            dc: self.dc[wire],
            aggressor: self.aggressor,
            own: self.own,
            limit: RANGE_VDDS * self.basis.vdd.abs(),
        }
    }

    /// Writes the [`ChunkEnvelope`]s of the victim's columns into `out`,
    /// wire by wire, `len.div_ceil(CHUNK)` chunks each: the same for
    /// every pair of the same [`Recombination::columns`].
    pub fn envelopes_into(&self, out: &mut Vec<ChunkEnvelope>) {
        out.clear();
        for w in 0..self.wires() {
            let wire = self.wire(w);
            let chunks = wire.all_rise.chunks(CHUNK).zip(wire.single.chunks(CHUNK));
            out.extend(chunks.map(|(all, single)| ChunkEnvelope::of(all, single)));
        }
    }
}

/// One wire's trace of a [`Recombination`].
#[derive(Debug, Clone, Copy)]
pub struct RecombinedWire<'a> {
    all_rise: &'a [f64],
    single: &'a [f64],
    dc: f64,
    aggressor: f64,
    own: f64,
    /// Sixteen `Vdd`: the range a combined sample must stay in.
    limit: f64,
}

impl RecombinedWire<'_> {
    /// Samples in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.single.len()
    }

    /// Whether the trace has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.single.is_empty()
    }

    /// Writes samples `start..start + out.len()` into `out`, each
    /// `DC + a·(U[k] − u_v[k]) + b·u_v[k]`: the one recombination
    /// expression. Returns whether every one is finite and within
    /// sixteen `Vdd` of ground; outside that range the recombination is
    /// refused.
    ///
    /// # Panics
    ///
    /// Panics if the samples run past the trace.
    pub fn fill(&self, start: usize, out: &mut [f64]) -> bool {
        let end = start + out.len();
        let (all, single) = (&self.all_rise[start..end], &self.single[start..end]);
        let mut in_range = true;
        for ((x, &u), &uv) in out.iter_mut().zip(all).zip(single) {
            *x = self.dc + self.aggressor * (u - uv) + self.own * uv;
            in_range &= self.in_range(*x);
        }
        in_range
    }

    fn in_range(&self, x: f64) -> bool {
        x.abs() <= self.limit
    }

    /// A finite interval holding every sample of the chunk whose
    /// envelope is `envelope`, wholly within sixteen `Vdd` of ground;
    /// `None` otherwise.
    #[must_use]
    pub fn bounds(&self, envelope: &ChunkEnvelope) -> Option<(f64, f64)> {
        envelope
            .bounds(self.dc, self.aggressor, self.own)
            .filter(|&(lo, hi)| self.in_range(lo) && self.in_range(hi))
    }
}

/// The extremes of `D = U − u_v` (rounded as [`RecombinedWire::fill`]
/// rounds it) and `S = u_v` over one chunk of one wire, and whether
/// every one of those values is finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkEnvelope {
    d: (f64, f64),
    s: (f64, f64),
    finite: bool,
}

impl ChunkEnvelope {
    /// The envelope of the samples `all_rise[k] − single[k]` and
    /// `single[k]` (the slices are as long as each other).
    #[must_use]
    pub fn of(all_rise: &[f64], single: &[f64]) -> ChunkEnvelope {
        // Four independent lanes, so that the loop vectorises; a NaN
        // leaves an extreme as it was and clears `finite`, since `x·0`
        // is zero exactly when `x` is finite.
        const LANES: usize = 4;
        let mut lo = [[f64::INFINITY; LANES]; 2];
        let mut hi = [[f64::NEG_INFINITY; LANES]; 2];
        let mut zero = [0.0; LANES];
        let mut feed = |lane: usize, u: f64, uv: f64| {
            for (i, x) in [u - uv, uv].into_iter().enumerate() {
                lo[i][lane] = if x < lo[i][lane] { x } else { lo[i][lane] };
                hi[i][lane] = if x > hi[i][lane] { x } else { hi[i][lane] };
                zero[lane] += x * 0.0;
            }
        };
        let (all, single) = (all_rise.chunks_exact(LANES), single.chunks_exact(LANES));
        let tail = all.remainder().iter().zip(single.remainder());
        for (u, uv) in all.zip(single) {
            for lane in 0..LANES {
                feed(lane, u[lane], uv[lane]);
            }
        }
        for (&u, &uv) in tail {
            feed(0, u, uv);
        }
        let low = |i: usize| lo[i].into_iter().fold(f64::INFINITY, f64::min);
        let high = |i: usize| hi[i].into_iter().fold(f64::NEG_INFINITY, f64::max);
        ChunkEnvelope {
            d: (low(0), high(0)),
            s: (low(1), high(1)),
            finite: zero.iter().sum::<f64>() == 0.0,
        }
    }

    /// An interval holding `dc + a·D + b·S`, evaluated left to right,
    /// for every sample of the chunk — `None` when a value of `D` or
    /// `S` is not finite. It is that very expression evaluated at the
    /// ends of the two ranges: correctly rounded `+` and `×` are
    /// monotone in each operand, so no sample's rounding can leave it
    /// (DESIGN.md §6i).
    #[must_use]
    pub fn bounds(&self, dc: f64, a: f64, b: f64) -> Option<(f64, f64)> {
        let ends = |(lo, hi): (f64, f64), c: f64| {
            if c < 0.0 {
                (c * hi, c * lo)
            } else {
                (c * lo, c * hi)
            }
        };
        let (d, s) = (ends(self.d, a), ends(self.s, b));
        let bounds = (dc + d.0 + s.0, dc + d.1 + s.1);
        (self.finite && bounds.0.is_finite() && bounds.1.is_finite()).then_some(bounds)
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
    fn chunk_bounds_hold_every_sample_the_chunk_computes() {
        // The bounds evaluate the sample expression at the envelope's
        // extremes; rounding is monotone, so no computed sample can
        // leave them, even where ties and mixed magnitudes make the
        // grouping of the sum matter. A non-finite value of `D` or `S`
        // anywhere in the chunk leaves the bounds unknown.
        use sint_runtime::prop::{gen, Runner};
        use sint_runtime::rng::Rng64;
        let value = |rng: &mut Rng64| {
            let ulps = gen::usize_in(rng, 0..9) as f64 - 4.0;
            match gen::usize_in(rng, 0..3) {
                0 => gen::one_of(rng, &[0.0, 1.0, -1.0, 0.5, 1.8]) + ulps * f64::EPSILON / 2.0,
                1 => ulps * f64::EPSILON / 2.0,
                _ => gen::f64_in(rng, -2.0..2.0),
            }
        };
        let (mut contained, mut unknown) = (0usize, 0usize);
        Runner::new("chunk_bounds").cases(4000).run(
            |rng| {
                let len = gen::usize_in(rng, 1..CHUNK + 1);
                let all: Vec<f64> = (0..len).map(|_| value(rng)).collect();
                let mut single: Vec<f64> = (0..len).map(|_| value(rng)).collect();
                if gen::usize_in(rng, 0..8) == 0 {
                    let k = gen::usize_in(rng, 0..len);
                    single[k] = gen::one_of(rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
                }
                let dc = gen::one_of(rng, &[0.0, 1.0, -1.0, 1.8, 3.0]) + value(rng);
                let coefficient = |rng: &mut Rng64| gen::one_of(rng, &[-1.0, 0.0, 1.0]);
                (all, single, dc, coefficient(rng), coefficient(rng))
            },
            |(all, single, dc, a, b)| {
                let wire = RecombinedWire {
                    all_rise: all,
                    single,
                    dc: *dc,
                    aggressor: *a,
                    own: *b,
                    limit: f64::INFINITY,
                };
                let mut samples = vec![0.0; all.len()];
                let finite = wire.fill(0, &mut samples);
                let envelope = ChunkEnvelope::of(all, single);
                let values_finite = all.iter().chain(single.iter()).all(|v| v.is_finite());
                match envelope.bounds(*dc, *a, *b) {
                    None if !values_finite => unknown += 1,
                    None => return Err("finite values with no bounds".to_string()),
                    Some(_) if !values_finite => {
                        return Err("bounds over a non-finite value".to_string())
                    }
                    Some((lo, hi)) => {
                        if !(finite && samples.iter().all(|x| (lo..=hi).contains(x))) {
                            return Err(format!("{samples:?} outside [{lo:e}, {hi:e}]"));
                        }
                        contained += 1;
                    }
                }
                Ok(())
            },
        );
        assert!(contained > 0 && unknown > 0, "{contained} contained, {unknown} unknown");
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
        let steps = basis.solve_all_rise(&sim, 0.8e-9, &mut scratch, None).unwrap();
        assert_eq!(steps, Some(400), "U is one full-window column");
        let panel = basis.solve_victims(&sim, &[1, 3], &mut scratch, None).unwrap();
        assert_eq!((panel.columns(), panel.lane_steps()), (2, 800));
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
            assert!(basis.combine_into(&panel, &sim, p, &mut out).unwrap(), "{p}");
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
        // Victim 2 has no column in this panel; U is held for another.
        assert!(!basis
            .combine_into(&panel, &sim, &pair("00000", "11011"), &mut out)
            .unwrap());
        assert_eq!(basis.solve_all_rise(&sim, 0.8e-9, &mut scratch, None).unwrap(), None);
        let other = basis.solve_victims(&sim, &[2], &mut scratch, None).unwrap();
        assert!(basis
            .combine_into(&other, &sim, &pair("00000", "11011"), &mut out)
            .unwrap());
        assert!(!basis
            .combine_into(&other, &sim, &pair("00000", "10111"), &mut out)
            .unwrap());
        // A different duration is a different basis.
        assert!(basis.solve_all_rise(&sim, 0.6e-9, &mut scratch, None).unwrap().is_some());
    }

    #[test]
    fn stopped_columns_recombine_a_bitwise_prefix_of_the_full_basis() {
        // Under a stop rule `U` runs the full window alone; victim
        // columns keep at least `U`'s stopped length, and every
        // recombined trace is a bitwise prefix of the full basis's.
        let bus = BusParams::dsm_bus(6).segments(3).build().unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let rule = StopRule { tolerance: 0.05, min_samples: 120, tail_fraction: 0.1 };
        let horizon = Horizon { duration: 2e-9, stop: Some(rule) };
        let (mut full, mut cut) = (StepBasis::new(), StepBasis::new());
        let mut scratch = PanelScratch::new();
        full.solve_all_rise(&sim, 2e-9, &mut scratch, None).unwrap();
        cut.solve_all_rise(&sim, horizon, &mut scratch, None).unwrap();
        assert_eq!(cut.samples, full.samples, "U keeps the full window");
        assert!(cut.all_rise_len < cut.samples, "U certifies: {}", cut.all_rise_len);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut shorter = 0;
        let mut last = None;
        for victims in [&[0, 1][..], &[2, 3, 4, 5][..]] {
            let whole = full.solve_victims(&sim, victims, &mut scratch, None).unwrap();
            let stopped = cut.solve_victims(&sim, victims, &mut scratch, None).unwrap();
            for &v in victims {
                let after: String = (0..6).map(|w| if w == v { '0' } else { '1' }).collect();
                let p = pair("000000", &after);
                assert!(full.combine_into(&whole, &sim, &p, &mut a).unwrap());
                assert!(cut.combine_into(&stopped, &sim, &p, &mut b).unwrap());
                let (la, lb) = (a.len() / 6, b.len() / 6);
                assert!(lb >= cut.all_rise_len.min(la) && lb >= rule.min_samples, "{lb}");
                shorter += usize::from(lb < la);
                for w in 0..6 {
                    let (ta, tb) = (&a[w * la..w * la + lb], &b[w * lb..(w + 1) * lb]);
                    let prefix = ta.iter().zip(tb).all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(prefix, "{p} wire {w}");
                }
            }
            last = Some(stopped);
        }
        assert!(shorter > 0, "no victim column stopped early");
        // A `U` shorter than the victim's column recombines nothing.
        cut.samples = 10;
        let last = last.unwrap();
        assert!(!cut.combine_into(&last, &sim, &pair("000000", "110111"), &mut b).unwrap());
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
        let mut scratch = PanelScratch::new();
        basis.solve_all_rise(&sim, 0.4e-9, &mut scratch, None).unwrap();
        let panel = basis.solve_victims(&sim, &[1], &mut scratch, None).unwrap();
        let mut out = Vec::new();
        assert!(!basis
            .combine_into(&panel, &sim, &pair("0000", "1011"), &mut out)
            .unwrap());
    }

    #[test]
    fn failed_solves_leave_no_victim_column() {
        let bus = BusParams::dsm_bus(3).build().unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let mut basis = StepBasis::new();
        let mut scratch = PanelScratch::new();
        let token = CancelToken::new();
        token.cancel();
        // A cancelled `U` is not held: victim columns solved without it
        // recombine nothing.
        let err = basis
            .solve_all_rise(&sim, 0.4e-9, &mut scratch, Some(&token))
            .unwrap_err();
        assert!(matches!(err, InterconnectError::Cancelled { .. }), "{err:?}");
        let orphan = basis.solve_victims(&sim, &[0], &mut scratch, None).unwrap();
        let mut out = Vec::new();
        assert!(!basis.combine_into(&orphan, &sim, &pair("000", "011"), &mut out).unwrap());
        assert_eq!(basis.solve_all_rise(&sim, 0.4e-9, &mut scratch, None).unwrap(), Some(200));
        let err = basis
            .solve_victims(&sim, &[1], &mut scratch, Some(&token))
            .unwrap_err();
        assert!(matches!(err, InterconnectError::Cancelled { .. }), "{err:?}");
        let err = basis
            .solve_victims(&sim, &[3], &mut scratch, None)
            .unwrap_err();
        assert!(
            matches!(err, InterconnectError::WireOutOfRange { .. }),
            "{err:?}"
        );
    }
}
