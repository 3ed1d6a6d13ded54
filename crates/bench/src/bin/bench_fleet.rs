//! Bench: the test-floor engine.
//!
//! Three questions, answered with numbers in `BENCH_fleet.json`:
//!
//! 1. **Does the floor scale?** A 200-board floor is timed serial and
//!    across `SINT_THREADS` workers claiming boards from the pool's
//!    shared cursor.
//! 2. **Does the acceptance floor hold?** The 1000-board floor runs
//!    once serial and once in parallel; the artifact records the wall
//!    time, the trial throughput, and that the merged summaries were
//!    **byte-identical** — the determinism invariant measured, not just
//!    unit-tested. The run streams through `NullSink`, so the resident
//!    set stays flat no matter the trial count.
//! 3. **What does crash consistency cost?** The 200-board floor streams
//!    its records to disk two ways: raw JSONL with no fsync, and
//!    CRC-framed JSONL with a final fsync — the durable configuration
//!    every tool ships. The `durability_overhead` row times the two in
//!    interleaved blocks and reads the ratio's quartile band against a
//!    5% budget: within, over, or unresolved when the band straddles it.
//!
//! Honours `SINT_THREADS` for the parallel rows.

use sint_bench::{emit_artifact, interleaved_ratio, threads_from_env};
use sint_fleet::{ClientSpec, FleetEngine, FloorSpec, JsonlSink, NullSink};
use sint_runtime::bench::{black_box, Bench};
use sint_runtime::json::{Json, ToJson};
use std::time::Duration;
use std::time::Instant;

/// The durability budget: framed + fsync may cost at most 5% over raw.
const DURABILITY_BUDGET_PCT: f64 = 5.0;

fn floor(boards: usize) -> FloorSpec {
    FloorSpec::new(boards)
        .trials_per_board(3)
        .seed(0xF1EE_7BE4)
        .with_clients(vec![
            ClientSpec::new("assembly"),
            ClientSpec::new("qualification"),
            ClientSpec::with_budget("burst", Duration::ZERO),
        ])
}

fn main() {
    let threads = threads_from_env();
    let mut b = Bench::new("fleet").samples(3).warmup(Duration::from_millis(0));

    // 1. Scaling on a 200-board floor.
    let engine = FleetEngine::new(floor(200)).expect("static floor spec");
    b.measure("floor_200x3/serial", || {
        black_box(engine.run(1, &NullSink));
    });
    b.measure(&format!("floor_200x3/pool/{threads}t"), || {
        black_box(engine.run(threads, &NullSink));
    });

    // 2. The acceptance floor: 1000 boards, bounded memory, determinism
    // measured serial-vs-parallel.
    let engine = FleetEngine::new(floor(1000)).expect("static floor spec");
    let t0 = Instant::now();
    let serial = engine.run(1, &NullSink);
    let serial_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = engine.run(threads, &NullSink);
    let parallel_secs = t0.elapsed().as_secs_f64();
    let identical = serial.to_json().render() == parallel.to_json().render();
    assert!(identical, "parallel summary diverged from the serial run");

    // 3. Durability tax: the same 200-board floor streamed to a real
    // file raw (unframed, page-cache only) vs framed with a closing
    // fsync — the torn-write-tolerant configuration the tools use.
    let durable_dir =
        std::env::temp_dir().join(format!("sint_bench_durable_{}", std::process::id()));
    std::fs::create_dir_all(&durable_dir).expect("bench temp dir");
    let stream_engine = FleetEngine::new(floor(200)).expect("static floor spec");
    let durability = interleaved_ratio(
        12,
        2,
        || {
            let file = std::fs::File::create(durable_dir.join("records.raw.jsonl"))
                .expect("raw records file");
            let sink = JsonlSink::raw(std::io::BufWriter::new(file));
            black_box(stream_engine.run(threads, &sink));
            // The baseline flushes but trusts the page cache — a crash
            // may tear or lose the tail.
            let _ = sink.finish().expect("raw sink finish");
        },
        || {
            let file = std::fs::File::create(durable_dir.join("records.framed.jsonl"))
                .expect("framed records file");
            let sink = JsonlSink::new(std::io::BufWriter::new(file));
            black_box(stream_engine.run(threads, &sink));
            let (writer, _) = sink.finish().expect("framed sink finish");
            let file = writer.into_inner().expect("flush framed records");
            file.sync_all().expect("fsync framed records");
        },
    );
    let _ = std::fs::remove_dir_all(&durable_dir);
    let target = 1.0 + DURABILITY_BUDGET_PCT / 100.0;
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;

    let trials = 1000 * 3;
    print!("{}", b.table());
    println!(
        "floor_1000x3: serial {serial_secs:.2}s, {threads} threads {parallel_secs:.2}s \
         ({:.0} trials/s), summaries byte-identical: {identical}",
        trials as f64 / parallel_secs
    );
    println!(
        "durability_overhead: framed+fsync {:+.2}% over raw (quartiles {:+.2}%..{:+.2}% over \
         {} blocks) — {} (<{DURABILITY_BUDGET_PCT}% budget)",
        pct(durability.median),
        pct(durability.q1),
        pct(durability.q3),
        durability.blocks,
        durability.verdict(target),
    );

    let mut json = b.json();
    json.push(
        "floor_1000x3",
        Json::obj([
            ("boards", 1000u64.to_json()),
            ("trials", (trials as u64).to_json()),
            ("threads", threads.to_json()),
            ("serial_secs", serial_secs.to_json()),
            ("parallel_secs", parallel_secs.to_json()),
            ("parallel_trials_per_sec", (trials as f64 / parallel_secs).to_json()),
            ("speedup", (serial_secs / parallel_secs).to_json()),
            ("shed_trials", serial.totals.shed_trials.to_json()),
            ("summaries_byte_identical", identical.to_json()),
        ]),
    );
    let mut fields = vec![
        ("boards", 200u64.to_json()),
        ("threads", threads.to_json()),
        ("overhead_pct", pct(durability.median).to_json()),
        ("budget_pct", DURABILITY_BUDGET_PCT.to_json()),
    ];
    fields.extend(durability.json_fields(target));
    json.push("durability_overhead", Json::obj(fields));
    emit_artifact("bench_fleet", &json);
}
