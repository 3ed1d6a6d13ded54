//! Bench: coupled-bus transient solver cost, banded vs dense.
//!
//! Measures (a) one-off LU factorisation against wire count and segment
//! count, and (b) per-transient cost of a full MA pattern window — the
//! quantity that dominates SoC-session wall time — as a one-column
//! panel on both the banded fast path (the default, numbered along the
//! bus's shorter axis) and the dense wire-major oracle. The
//! `column_2ns/banded/…` vs `column_2ns/dense/…` rows at the same
//! `wires x segments` geometry are the DESIGN.md complexity-table
//! evidence: O(N·b²) vs O(N³) factor, O(N·b) vs O(N²) step; at 16 × 8
//! the banded one-column row is `panel_2ns/k1/16`. Every run reuses one
//! [`PanelScratch`] across runs, as campaigns do. The `paper_panel`
//! rows time 1-, 4- and 8-column panels on the paper's 32-wire ×
//! 8-segment bus, per timestep, next to the half-bandwidth its
//! shorter-axis numbering chose.

use sint_bench::emit_artifact;
use sint_interconnect::drive::VectorPair;
use sint_interconnect::params::BusParams;
use sint_interconnect::solver::{PanelScratch, SolverBackend, TransientSim};
use sint_runtime::bench::{black_box, Bench};
use sint_runtime::json::{Json, ToJson};

const BACKENDS: [(&str, SolverBackend); 2] =
    [("banded", SolverBackend::Banded), ("dense", SolverBackend::Dense)];

/// The Pg pattern with `victim` held low: every other wire rises.
fn pg_pair_at(wires: usize, victim: usize) -> VectorPair {
    let before = "0".repeat(wires);
    let mut after = "1".repeat(wires);
    after.replace_range(victim..victim + 1, "0");
    VectorPair::from_strs(&before, &after).expect("static vectors")
}

fn pg_pair(wires: usize) -> VectorPair {
    pg_pair_at(wires, wires / 2)
}

fn sim(bus: &sint_interconnect::params::Bus, backend: SolverBackend) -> TransientSim {
    TransientSim::with_backend(bus, 2e-12, backend).unwrap()
}

fn main() {
    let mut b = Bench::new("solver").samples(20);

    for (tag, backend) in BACKENDS {
        for wires in [4usize, 8, 16, 32] {
            let bus = BusParams::dsm_bus(wires).build().unwrap();
            b.measure(&format!("factorise/{tag}/{wires}"), || {
                black_box(sim(black_box(&bus), backend));
            });
        }
    }

    // One 2 ns column per iteration, against wire count (dsm_bus
    // defaults to 8 segments) and, on 5 wires, against segment count.
    // The banded 16 x 8 column is the panel sweep's `k1` row below.
    let mut panel = PanelScratch::new();
    let geometries = [(4usize, 8usize), (8, 8), (16, 8), (5, 2), (5, 4), (5, 8), (5, 16)];
    for (tag, backend) in BACKENDS {
        for (wires, segments) in geometries {
            if backend == SolverBackend::Banded && (wires, segments) == (16, 8) {
                continue;
            }
            let bus = BusParams::dsm_bus(wires).segments(segments).build().unwrap();
            let s = sim(&bus, backend);
            let pair = [pg_pair(wires)];
            b.measure(&format!("column_2ns/{tag}/{wires}x{segments}"), || {
                black_box(
                    s.run_pairs_cancellable(black_box(&pair), 2e-9, &mut panel, None).unwrap(),
                );
            });
        }
    }

    // Multi-RHS panel sweep on the acceptance geometry (16 wires x
    // 8 segments): one panel run per iteration, so per-pattern cost is
    // median/k.
    let mut panel_median = [0.0f64; 4];
    {
        let bus = BusParams::dsm_bus(16).build().unwrap();
        let s = sim(&bus, SolverBackend::Banded);
        let pairs: Vec<VectorPair> = (0..16).map(|c| pg_pair_at(16, c)).collect();
        for (slot, k) in [1usize, 4, 8, 16].into_iter().enumerate() {
            let batch = &pairs[..k];
            let r = b.measure(&format!("panel_2ns/k{k}/16"), || {
                black_box(
                    s.run_pairs_cancellable(black_box(batch), 2e-9, &mut panel, None).unwrap(),
                );
            });
            panel_median[slot] = r.median_ns;
        }
    }

    // The paper geometry: 32 wires x 8 segments, RC. A 2 ns window at
    // 2 ps is 1000 timesteps, so per-step cost is median/1000.
    let paper_panel = {
        let bus = BusParams::dsm_bus(32).segments(8).build().unwrap();
        let s = sim(&bus, SolverBackend::Banded);
        let pairs: Vec<VectorPair> = (0..8).map(|c| pg_pair_at(32, c)).collect();
        let mut fields = vec![
            ("geometry", "32x8".to_json()),
            ("half_bandwidth", s.half_bandwidth().map(|b| b as u64).to_json()),
        ];
        for (k, key) in [(1usize, "k1_ns_per_step"), (4, "k4_ns_per_step"), (8, "k8_ns_per_step")] {
            let batch = &pairs[..k];
            let r = b.measure(&format!("paper_panel_2ns/k{k}/32x8"), || {
                black_box(
                    s.run_pairs_cancellable(black_box(batch), 2e-9, &mut panel, None).unwrap(),
                );
            });
            fields.push((key, (r.median_ns / 1000.0).to_json()));
        }
        Json::obj(fields)
    };

    print!("{}", b.table());

    // Per-pattern speedups for the panel sweep: k-wide panel cost is
    // median/k, so speedup over k=1 is (k1 * k) / kN — the k=8 panel
    // against 8 one-column runs of the same patterns.
    let [k1, k4, k8, k16] = panel_median;
    let panel_batching = Json::obj([
        ("geometry", "16x8".to_json()),
        ("k1_median_ns", k1.to_json()),
        ("k4_median_ns", k4.to_json()),
        ("k8_median_ns", k8.to_json()),
        ("k16_median_ns", k16.to_json()),
        ("speedup_k4_vs_k1", (k1 * 4.0 / k4).to_json()),
        ("speedup_k8_vs_k1", (k1 * 8.0 / k8).to_json()),
        ("speedup_k16_vs_k1", (k1 * 16.0 / k16).to_json()),
    ]);
    let artifact = Json::obj([
        ("suite", "solver".to_json()),
        ("results", b.results().to_json()),
        ("panel_batching", panel_batching),
        ("paper_panel", paper_panel),
    ]);
    emit_artifact("bench_solver", &artifact);
}
