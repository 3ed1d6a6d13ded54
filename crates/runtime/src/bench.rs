//! Micro-benchmark harness: warmup, sampled iteration, median + p95.
//!
//! Replaces `criterion` for this workspace. Each measurement warms the
//! code path, auto-calibrates how many iterations fit a sample window,
//! then records wall-clock per-iteration cost over many samples and
//! summarises the distribution (min / median / p95 / mean). Results
//! print as an aligned table and serialise to JSON via
//! [`crate::json::ToJson`], so CI can diff timing artifacts.
//!
//! ```no_run
//! use sint_runtime::bench::Bench;
//!
//! let mut b = Bench::new("solver");
//! b.measure("transient_2ns/n4", || {
//!     // hot path under test
//! });
//! println!("{}", b.table());
//! println!("{}", b.json().render_pretty());
//! ```

use crate::json::{Json, ToJson};
use std::time::{Duration, Instant};

/// Target wall-clock per sample; iteration count is calibrated to it.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);

/// Summary statistics for one benchmarked function.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark id, e.g. `"solver/transient_2ns/n8"`.
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Fastest per-iteration time (ns).
    pub min_ns: f64,
    /// Median per-iteration time (ns).
    pub median_ns: f64,
    /// 95th-percentile per-iteration time (ns).
    pub p95_ns: f64,
    /// Mean per-iteration time (ns).
    pub mean_ns: f64,
}

impl BenchResult {
    /// Human-readable `1.23 µs`-style rendering of a nanosecond count.
    #[must_use]
    pub fn human(ns: f64) -> String {
        if ns < 1e3 {
            format!("{ns:.1} ns")
        } else if ns < 1e6 {
            format!("{:.2} µs", ns / 1e3)
        } else if ns < 1e9 {
            format!("{:.2} ms", ns / 1e6)
        } else {
            format!("{:.3} s", ns / 1e9)
        }
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("iters_per_sample", self.iters_per_sample.to_json()),
            ("samples", self.samples.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("p95_ns", self.p95_ns.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
        ])
    }
}

/// A benchmark suite: configuration plus accumulated results.
#[derive(Debug, Clone)]
pub struct Bench {
    suite: String,
    warmup: Duration,
    samples: usize,
    min_iters: u64,
    results: Vec<BenchResult>,
}

impl Bench {
    /// A suite with defaults: 100 ms warmup, 30 samples per benchmark,
    /// a single-iteration floor.
    #[must_use]
    pub fn new(suite: &str) -> Bench {
        Bench {
            suite: suite.to_string(),
            warmup: Duration::from_millis(100),
            samples: 30,
            min_iters: 1,
            results: Vec::new(),
        }
    }

    /// Overrides the per-benchmark warmup duration.
    #[must_use]
    pub fn warmup(mut self, warmup: Duration) -> Bench {
        self.warmup = warmup;
        self
    }

    /// Overrides the sample count (clamped to at least 2).
    #[must_use]
    pub fn samples(mut self, samples: usize) -> Bench {
        self.samples = samples.max(2);
        self
    }

    /// Sets an iteration floor: warmup runs at least this many
    /// iterations even after the warmup budget elapses, and every
    /// sample runs at least this many iterations regardless of what
    /// calibration picked. Slow-but-jittery workloads (adaptive
    /// sessions whose cost depends on what the ledger dropped) need a
    /// floor so a lucky fast first iteration cannot calibrate the whole
    /// sample down to noise.
    #[must_use]
    pub fn min_iters(mut self, min_iters: u64) -> Bench {
        self.min_iters = min_iters.max(1);
        self
    }

    /// Measures `f`, records the result, and returns it.
    pub fn measure(&mut self, name: &str, mut f: impl FnMut()) -> &BenchResult {
        // Warmup: run until the warmup budget elapses AND the iteration
        // floor is met (at least once regardless).
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < self.warmup || warm_iters < self.min_iters.max(1) {
            f();
            warm_iters += 1;
        }
        // Calibrate iterations per sample from the observed warm rate,
        // never dipping below the configured floor.
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters = ((TARGET_SAMPLE.as_secs_f64() / per_iter.max(1e-9)) as u64)
            .clamp(self.min_iters.max(1), 1 << 24);

        let mut per_iter_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

        let result = BenchResult {
            name: format!("{}/{}", self.suite, name),
            iters_per_sample: iters,
            samples: self.samples,
            min_ns: per_iter_ns[0],
            median_ns: percentile(&per_iter_ns, 50.0),
            p95_ns: percentile(&per_iter_ns, 95.0),
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
        };
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// All results recorded so far.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// An aligned human-readable summary table.
    #[must_use]
    pub fn table(&self) -> String {
        let name_w = self
            .results
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(4)
            .max("name".len());
        let mut out = format!(
            "{:<name_w$} {:>12} {:>12} {:>12} {:>8}\n",
            "name", "median", "p95", "min", "iters"
        );
        for r in &self.results {
            out.push_str(&format!(
                "{:<name_w$} {:>12} {:>12} {:>12} {:>8}\n",
                r.name,
                BenchResult::human(r.median_ns),
                BenchResult::human(r.p95_ns),
                BenchResult::human(r.min_ns),
                r.iters_per_sample,
            ));
        }
        out
    }

    /// The machine-readable timing artifact for this suite.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj([
            ("suite", self.suite.to_json()),
            ("results", self.results.to_json()),
        ])
    }
}

/// Linear-interpolated percentile `p` (0–100) of an ascending-sorted
/// slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// An opaque consumer of a value, preventing the optimiser from
/// deleting the benchmarked computation (re-export convenience so bench
/// bins need only this crate).
pub use std::hint::black_box;

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_bench() -> Bench {
        Bench::new("t").warmup(Duration::from_millis(1)).samples(5)
    }

    #[test]
    fn measure_produces_sane_statistics() {
        let mut b = fast_bench();
        let r = b.measure("spin", || {
            black_box((0..100u64).sum::<u64>());
        });
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns, "{r:?}");
        assert!(r.median_ns <= r.p95_ns, "{r:?}");
        assert_eq!(r.samples, 5);
        assert_eq!(r.name, "t/spin");
    }

    #[test]
    fn table_and_json_cover_all_results() {
        let mut b = fast_bench();
        b.measure("one", || {
            black_box(1u64 + 1);
        });
        b.measure("two", || {
            black_box(2u64 * 2);
        });
        let table = b.table();
        assert!(table.contains("t/one") && table.contains("t/two"), "{table}");
        let json = b.json().render();
        assert!(json.contains("\"suite\":\"t\""), "{json}");
        assert!(json.contains("\"median_ns\""), "{json}");
        assert_eq!(b.results().len(), 2);
    }

    #[test]
    fn min_iters_floors_warmup_and_calibration() {
        // A workload slow enough that calibration alone would pick
        // fewer iterations than the floor (the 5 ms sample target fits
        // at most 5 one-millisecond iterations): the floor must win.
        let mut b = Bench::new("t").warmup(Duration::ZERO).samples(2).min_iters(16);
        let mut calls = 0u64;
        let r = b.measure("slow", || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(r.iters_per_sample, 16, "calibration respects the floor");
        // 16 warmup iterations (the zero budget elapsed immediately but
        // the floor still applies) + 2 samples × 16.
        assert_eq!(calls, 16 + 2 * 16);
        // The builder refuses a zero floor.
        let zeroed = Bench::new("t").min_iters(0);
        assert_eq!(zeroed.min_iters, 1);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
    }

    #[test]
    fn human_units_scale() {
        assert_eq!(BenchResult::human(12.0), "12.0 ns");
        assert_eq!(BenchResult::human(1500.0), "1.50 µs");
        assert_eq!(BenchResult::human(2.5e6), "2.50 ms");
        assert_eq!(BenchResult::human(3.2e9), "3.200 s");
    }
}
