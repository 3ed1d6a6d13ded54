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
use sint_runtime::json::Json;

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
    fn tck_soc_builds_fast_variant() {
        let soc = tck_measurement_soc(8, 10).unwrap();
        assert_eq!(soc.chain_len(), 26);
    }
}
