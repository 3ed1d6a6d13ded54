//! Order statistics, the tail rule, the pair-win rule and the output
//! digest.

/// Percentiles the tail rule may pick from, ascending.
const TAIL_LADDER: [f64; 10] = [50.0, 70.0, 80.0, 90.0, 95.0, 97.0, 99.0, 99.5, 99.9, 99.99];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// `values` in ascending order (NaN-free input assumed; `total_cmp`
/// keeps the sort total anyway).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) of ascending `sorted`, interpolating
/// linearly between the closest ranks: rank `p/100 · (n − 1)`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unordered `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// How many of `n` samples lie beyond the `p`-th percentile.
#[must_use]
pub fn beyond(n: usize, p: f64) -> f64 {
    n as f64 * (100.0 - p) / 100.0
}

/// The tail rule: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even
/// the median leaves fewer.
#[must_use]
pub fn tail_rule(n: usize) -> Option<f64> {
    // The tolerance absorbs the rounding of `100 - p` for fractional p.
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND - 1e-9)
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here match the ones an external checker computes.
///
/// # Panics
///
/// Panics on fewer than two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile.
#[must_use]
pub fn iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    q3 - q1
}

/// Outcome of comparing paired runs of two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairTally {
    /// Pairs the change won.
    pub change: usize,
    /// Pairs the parent won.
    pub parent: usize,
    /// Pairs that read exactly the same.
    pub ties: usize,
}

impl PairTally {
    /// Counts wins over pairs `(parent[i], change[i])`; `higher_better`
    /// says which direction wins.
    #[must_use]
    pub fn count(parent: &[f64], change: &[f64], higher_better: bool) -> PairTally {
        let mut tally = PairTally {
            change: 0,
            parent: 0,
            ties: 0,
        };
        for (&p, &c) in parent.iter().zip(change) {
            let change_wins = if higher_better { c > p } else { c < p };
            let parent_wins = if higher_better { p > c } else { p < c };
            if change_wins {
                tally.change += 1;
            } else if parent_wins {
                tally.parent += 1;
            } else {
                tally.ties += 1;
            }
        }
        tally
    }

    /// Pairs compared.
    #[must_use]
    pub fn pairs(&self) -> usize {
        self.change + self.parent + self.ties
    }

    /// The win rule for a gain: the change won at least nine tenths of
    /// all pairs run, ties counting for neither side.
    #[must_use]
    pub fn change_wins_nine_tenths(&self) -> bool {
        self.pairs() > 0 && self.change * 10 >= self.pairs() * 9
    }
}

/// 64-bit FNV-1a over a sequence of byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as `fnv1a64:<16 hex digits>`.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("fnv1a64:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Rank 0.9 · 4 = 3.6: 40 + 0.6 · 10.
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_rule(19), None, "even the median leaves 9.5");
        assert_eq!(tail_rule(20), Some(50.0));
        assert_eq!(tail_rule(36), Some(70.0), "36 · 0.3 = 10.8 beyond p70");
        assert_eq!(tail_rule(100), Some(90.0));
        assert_eq!(tail_rule(199), Some(90.0), "p95 would leave 9.95");
        assert_eq!(tail_rule(10_000), Some(99.9));
        assert_eq!(tail_rule(100_000), Some(99.99));
        for n in [20usize, 57, 333, 4_321] {
            let p = tail_rule(n).unwrap();
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // Two samples extrapolate: quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(iqr(&v), 5.5);
    }

    #[test]
    fn nine_of_ten_wins_with_ties_counting_for_neither() {
        let parent = [10.0; 10];
        let mut change = [9.0; 10];
        let tally = PairTally::count(&parent, &change, false);
        assert_eq!(
            tally,
            PairTally {
                change: 10,
                parent: 0,
                ties: 0
            }
        );
        assert!(tally.change_wins_nine_tenths());
        change[0] = 11.0;
        assert!(PairTally::count(&parent, &change, false).change_wins_nine_tenths());
        change[1] = 10.0;
        let tally = PairTally::count(&parent, &change, false);
        assert_eq!(
            tally,
            PairTally {
                change: 8,
                parent: 1,
                ties: 1
            }
        );
        assert!(!tally.change_wins_nine_tenths(), "a tie is not a win");
        // Direction flips for higher-is-better metrics.
        assert_eq!(PairTally::count(&parent, &change, true).parent, 8);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(Fnv1a::default().hex(), "fnv1a64:cbf29ce484222325");
        let mut h = Fnv1a::default();
        h.write(b"a");
        assert_eq!(h.hex(), "fnv1a64:af63dc4c8601ec8c");
    }
}
