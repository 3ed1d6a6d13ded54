//! # sint-bench
//!
//! The experiment harness of the `sint` workspace: one binary per table
//! and figure of *"Extending JTAG for Testing Signal Integrity in
//! SoCs"* (DATE 2003), plus timing benchmarks and the `gate` bin behind
//! `scripts/verify.sh`'s byte-identity checks.
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table5` | Table 5 — pattern-generation TCKs, conventional vs PGBSC |
//! | `table6` | Table 6 — total test TCKs for observation methods 1/2/3 |
//! | `table7` | Table 7 — NAND-unit cell-area comparison |
//! | `fig_patterns` | Figs 3 & 5 — MA vector pairs and the reordered PGBSC stream |
//! | `fig_cells` | Fig 7 & Fig 10, Tables 1–4 — cell waveforms and truth tables |
//! | `fig_detectors` | Figs 1 & 2 — ND/SD behaviour on simulated waveforms |
//! | `scaling` | §5 prose — O(n) vs O(n²) sweep with the T% improvement row |
//! | `detection_sweep` | X2 — end-to-end detection rate vs defect severity |
//! | `gate` | `verify.sh`'s kill/resume, determinism and crash-recovery scenarios: `campaign`, `adaptive`, `fleet`, `chaos`, `batch`, `degraded` |
//!
//! Run any of them with `cargo run -p sint-bench --release --bin <name>`.
//!
//! The eight `bench_*` binaries are micro/macro benchmarks on the
//! `sint_runtime::bench` harness (median + p95, JSON artifacts) — plain
//! `cargo run` bins, so they execute in offline CI. Campaign-style bins
//! honour `SINT_THREADS` for the worker-pool width.

pub mod detection;

use sint_core::timing::ChainGeometry;
use sint_runtime::bench::percentile;
use sint_runtime::json::{Json, ToJson};
use std::time::Instant;

/// The paper's table geometries: `n ∈ {8, 16, 32}` with `m = 10` other
/// cells on the chain.
#[must_use]
pub fn paper_geometries() -> Vec<ChainGeometry> {
    [8usize, 16, 32].into_iter().map(|n| ChainGeometry::new(n, 10)).collect()
}

/// Builds a cheap-but-faithful SoC for pure TCK measurements: the clock
/// counts are independent of analog fidelity, so the transient solver
/// runs with a coarse grid to keep the big-`n` rows fast.
///
/// # Errors
///
/// Propagates `sint_core` build errors.
pub fn tck_measurement_soc(
    n: usize,
    m: usize,
) -> Result<sint_core::soc::Soc, sint_core::CoreError> {
    use sint_interconnect::params::BusParams;
    sint_core::soc::SocBuilder::new(n)
        .extra_cells(m)
        .bus_params(BusParams::dsm_bus(n).segments(2))
        .build()
}

/// Formats a row of right-aligned columns for the table binaries.
#[must_use]
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<22}");
    for c in cells {
        s.push_str(&format!("{c:>14}"));
    }
    s
}

/// Worker-thread count for campaign bins: `SINT_THREADS` when set (and
/// parseable), else the host's available parallelism.
#[must_use]
pub fn threads_from_env() -> usize {
    std::env::var("SINT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| sint_runtime::pool::Pool::host().threads())
}

/// An A/B cost ratio — B's time over A's — measured in interleaved
/// blocks, with the quartiles of the per-block ratios as its noise
/// band. On a shared host the speed drifts by more than the few percent
/// an overhead target allows, so a single ratio can land on either side
/// of the target with unchanged code; the band says when it did.
#[derive(Debug, Clone, Copy)]
pub struct Ratio {
    /// Median of the per-block ratios.
    pub median: f64,
    /// Lower quartile of the per-block ratios.
    pub q1: f64,
    /// Upper quartile of the per-block ratios.
    pub q3: f64,
    /// Blocks measured.
    pub blocks: usize,
}

impl Ratio {
    /// Reads the ratio against a ceiling: `"within target"` when the
    /// whole band sits at or below `target`, `"over target"` when it
    /// sits above, and `"unresolved"` when the band contains `target` —
    /// host drift, not the code, would then decide the reading.
    #[must_use]
    pub fn verdict(&self, target: f64) -> &'static str {
        if self.q3 <= target {
            "within target"
        } else if self.q1 > target {
            "over target"
        } else {
            "unresolved"
        }
    }

    /// The artifact fields shared by every overhead row: the median
    /// ratio, its band, the block count and the verdict at `target`.
    #[must_use]
    pub fn json_fields(&self, target: f64) -> Vec<(&'static str, Json)> {
        vec![
            ("ratio", self.median.to_json()),
            ("ratio_q1", self.q1.to_json()),
            ("ratio_q3", self.q3.to_json()),
            ("blocks", self.blocks.to_json()),
            ("verdict", self.verdict(target).to_json()),
        ]
    }
}

/// Times `a` against `b` in `blocks` interleaved blocks. Each block
/// runs the two `reps` times each, alternating, with the side that
/// goes first swapped from block to block; the block's ratio is B's
/// best time over A's best. Returns the ratios' median and quartiles.
///
/// # Panics
///
/// Panics if `blocks` is zero.
pub fn interleaved_ratio(
    blocks: usize,
    reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> Ratio {
    fn timed(f: &mut impl FnMut()) -> f64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    }
    let mut ratios: Vec<f64> = (0..blocks)
        .map(|block| {
            let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..reps.max(1) {
                if block % 2 == 0 {
                    best_a = best_a.min(timed(&mut a));
                    best_b = best_b.min(timed(&mut b));
                } else {
                    best_b = best_b.min(timed(&mut b));
                    best_a = best_a.min(timed(&mut a));
                }
            }
            best_b / best_a
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    Ratio {
        median: percentile(&ratios, 50.0),
        q1: percentile(&ratios, 25.0),
        q3: percentile(&ratios, 75.0),
        blocks,
    }
}

/// Prints a named machine-readable artifact as a delimited JSON block,
/// so a human scanning the log and a script scraping it both find it.
/// When `SINT_ARTIFACT_DIR` is set, the artifact is additionally
/// written to `$SINT_ARTIFACT_DIR/{name}.json` — `scripts/bench.sh`
/// uses this to accumulate the repo-root `BENCH_*.json` trajectory.
pub fn emit_artifact(name: &str, json: &Json) {
    let rendered = json.render_pretty();
    println!("\n--- artifact {name}.json ---");
    println!("{rendered}");
    println!("--- end artifact ---");
    if let Some(dir) = std::env::var_os("SINT_ARTIFACT_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.json"));
        if let Err(e) = std::fs::write(&path, format!("{rendered}\n")) {
            eprintln!("warning: could not write artifact {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometries_match_paper_axes() {
        let g = paper_geometries();
        assert_eq!(g.len(), 3);
        assert_eq!(g[0].wires, 8);
        assert_eq!(g[2].wires, 32);
        assert!(g.iter().all(|g| g.extra_cells == 10));
    }

    #[test]
    fn row_formatting_aligns() {
        let r = row("label", &["1".into(), "22".into()]);
        assert!(r.starts_with("label"));
        assert!(r.ends_with("22"));
        assert!(r.len() > 22);
    }

    #[test]
    fn ratio_verdict_reads_the_band_against_the_target() {
        let band = |q1, q3| Ratio { median: (q1 + q3) / 2.0, q1, q3, blocks: 4 };
        assert_eq!(band(0.97, 1.01).verdict(1.02), "within target");
        assert_eq!(band(1.03, 1.06).verdict(1.02), "over target");
        assert_eq!(band(0.99, 1.04).verdict(1.02), "unresolved");
    }

    #[test]
    fn interleaved_ratio_runs_every_block_on_both_sides() {
        let (mut a_runs, mut b_runs) = (0, 0);
        let ratio = interleaved_ratio(5, 3, || a_runs += 1, || b_runs += 1);
        assert_eq!((a_runs, b_runs), (15, 15));
        assert_eq!(ratio.blocks, 5);
    }

    #[test]
    fn tck_soc_builds_fast_variant() {
        let soc = tck_measurement_soc(8, 10).unwrap();
        assert_eq!(soc.chain_len(), 26);
    }
}
