//! Bench: cost of cooperative cancellation on the hot path.
//!
//! The banded transient stepper is the workspace's dominant cost, and
//! it takes an optional [`CancelToken`] so deadlines can interrupt a
//! wedged solve. The token is polled only every
//! `CANCEL_CHECK_INTERVAL` steps, so the overhead of a live (armed but
//! never firing) token against the uncancelled baseline must stay in
//! the noise — the artifact records the measured ratio with its noise
//! band so the `BENCH_robustness.json` trajectory catches any
//! regression it can resolve.

use sint_bench::{emit_artifact, interleaved_ratio};
use sint_interconnect::drive::VectorPair;
use sint_interconnect::params::BusParams;
use sint_interconnect::solver::{PanelScratch, TransientSim};
use sint_runtime::bench::{black_box, Bench};
use sint_runtime::cancel::CancelToken;
use sint_runtime::json::{Json, ToJson};
use std::time::Duration;

/// A live token may cost at most 2% over no token.
const TARGET_MAX_RATIO: f64 = 1.02;

fn pg_pair(wires: usize) -> VectorPair {
    let before = "0".repeat(wires);
    let mut after = "1".repeat(wires);
    after.replace_range(wires / 2..wires / 2 + 1, "0");
    VectorPair::from_strs(&before, &after).expect("static vectors")
}

fn main() {
    let mut b = Bench::new("robustness").samples(20);

    // The acceptance geometry: 16 wires, banded fast path, 2 ns
    // window, one column, scratch reused so the loop never allocates.
    let bus = BusParams::dsm_bus(16).build().unwrap();
    let sim = TransientSim::new(&bus, 2e-12).unwrap();
    let pair = [pg_pair(16)];
    let mut scratch = PanelScratch::new();

    b.measure("column_2ns/no_token/16", || {
        black_box(sim.run_pairs_cancellable(black_box(&pair), 2e-9, &mut scratch, None).unwrap());
    });

    // Armed deadline a long way out: every poll is a miss, which is the
    // steady-state cost a deadline-bounded campaign actually pays.
    let token = CancelToken::with_deadline(Duration::from_secs(3600));
    b.measure("column_2ns/live_token/16", || {
        black_box(
            sim.run_pairs_cancellable(black_box(&pair), 2e-9, &mut scratch, Some(&token)).unwrap(),
        );
    });

    // The overhead ratio itself comes from interleaved blocks: the host
    // drifts by several percent between back-to-back runs (as
    // `Bench::measure` does them) — far more than the ~30 deadline
    // polls a 1000-step transient actually costs — so the row reports
    // the per-block ratio's quartile band and calls the 2% target
    // unresolved whenever that band straddles it.
    // Each side keeps its own scratch, so both stay warm.
    let mut live_scratch = PanelScratch::new();
    let ratio = interleaved_ratio(
        30,
        5,
        || {
            black_box(
                sim.run_pairs_cancellable(black_box(&pair), 2e-9, &mut scratch, None).unwrap(),
            );
        },
        || {
            black_box(
                sim.run_pairs_cancellable(black_box(&pair), 2e-9, &mut live_scratch, Some(&token))
                    .unwrap(),
            );
        },
    );

    print!("{}", b.table());
    println!(
        "cancellation overhead: {:+.2}% (quartiles {:+.2}%..{:+.2}% over {} blocks) — {} \
         (target < 2%)",
        (ratio.median - 1.0) * 100.0,
        (ratio.q1 - 1.0) * 100.0,
        (ratio.q3 - 1.0) * 100.0,
        ratio.blocks,
        ratio.verdict(TARGET_MAX_RATIO),
    );

    let mut json = b.json();
    let mut fields = vec![("target_max_ratio", TARGET_MAX_RATIO.to_json())];
    fields.extend(ratio.json_fields(TARGET_MAX_RATIO));
    json.push("cancellation_overhead", Json::obj(fields));
    emit_artifact("bench_robustness", &json);
}
