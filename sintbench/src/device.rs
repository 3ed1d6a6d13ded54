//! `paper_session` and `long_chain`: one fresh device per op — build
//! the SoC, run one integrity session, check the report.

use crate::harness::{self, Config, Measured};
use crate::layers::{self, LayerSample};
use crate::trace::timed;
use sint_core::session::{IntegrityReport, ObservationMethod, SessionConfig};
use sint_core::soc::{Soc, SocBuilder};
use sint_core::timing::{method_total_tcks, ChainGeometry};
use sint_interconnect::params::BusParams;
use sint_interconnect::variation::VariationSigma;
use sint_interconnect::Defect;
use sint_runtime::json::ToJson;
use sint_runtime::rng::Rng64;
use std::time::Duration;

/// Which observation method each device runs.
#[derive(Debug, Clone, Copy)]
enum Methods {
    /// Methods 1, 2 and 3 once per consecutive triple, in seeded order,
    /// so any whole number of triples holds the same mix.
    SeededTriples,
    /// Every device runs this method.
    Always(ObservationMethod),
}

/// A device workload's fixed geometry.
#[derive(Debug, Clone, Copy)]
pub struct DeviceWorkload {
    /// Workload name.
    pub name: &'static str,
    /// RNG stream of this workload under the root seed.
    stream: u64,
    wires: usize,
    extra_cells: usize,
    segments: usize,
    dt: f64,
    methods: Methods,
    /// Percentile reported as `op_tail_ms`.
    pub tail_pct: f64,
    /// Devices per cycle, the unit of the window and of throughput; a
    /// multiple of 3 under [`Methods::SeededTriples`].
    cycle_ops: usize,
    /// Cycles in the digest prefix.
    digest_cycles: usize,
}

/// The paper's headline session: n = 32, m = 10 on the paper grid. A
/// window holds about 21 devices, so the tail rule lands on the median.
pub const PAPER_SESSION: DeviceWorkload = DeviceWorkload {
    name: "paper_session",
    stream: 1,
    wires: 32,
    extra_cells: 10,
    segments: 8,
    dt: 2e-12,
    methods: Methods::SeededTriples,
    tail_pct: 50.0,
    cycle_ops: 3,
    digest_cycles: 2,
};

/// A 516-cell chain where shifting dominates: n = 8, m = 500, method
/// 3, coarse grid.
pub const LONG_CHAIN: DeviceWorkload = DeviceWorkload {
    name: "long_chain",
    stream: 2,
    wires: 8,
    extra_cells: 500,
    segments: 2,
    dt: 10e-12,
    methods: Methods::Always(ObservationMethod::PerPattern),
    tail_pct: 90.0,
    cycle_ops: 10,
    digest_cycles: 1,
};

/// One seeded device.
#[derive(Debug, Clone, Copy)]
struct Device {
    method: ObservationMethod,
    defect: Option<Defect>,
    variation_seed: u64,
}

impl DeviceWorkload {
    /// Device `op` of the stream under `seed`: a quarter controls, the
    /// rest coupling ×4–8, resistive open +2–5 kΩ on a seeded segment,
    /// or weak driver ×4–7, on an interior wire. Edge wires have one
    /// aggressor and the coarse grid blurs mild defects; on this mix
    /// every defect is detectable, so a miss is a real regression.
    fn device(&self, seed: u64, op: u64) -> Device {
        let root = Rng64::new(seed).fork(self.stream);
        let method = match self.methods {
            Methods::Always(method) => method,
            Methods::SeededTriples => {
                let mut order = [
                    ObservationMethod::Once,
                    ObservationMethod::PerInitialValue,
                    ObservationMethod::PerPattern,
                ];
                let mut rng = root.fork((1 << 62) + op / 3);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_index(i + 1));
                }
                order[(op % 3) as usize]
            }
        };
        let mut rng = root.fork(op);
        let variation_seed = rng.gen_u64();
        let wire = 1 + rng.gen_index(self.wires - 2);
        let defect = match rng.gen_index(4) {
            0 => None,
            1 => Some(Defect::CouplingBoost {
                wire,
                factor: 4.0 + 4.0 * rng.gen_f64(),
            }),
            2 => Some(Defect::ResistiveOpen {
                wire,
                segment: rng.gen_index(self.segments),
                extra_ohms: 2000.0 + 3000.0 * rng.gen_f64(),
            }),
            _ => Some(Defect::WeakDriver {
                wire,
                factor: 4.0 + 3.0 * rng.gen_f64(),
            }),
        };
        Device {
            method,
            defect,
            variation_seed,
        }
    }

    fn session(&self, method: ObservationMethod) -> SessionConfig {
        SessionConfig {
            dt: self.dt,
            ..SessionConfig::method(method)
        }
    }

    /// Builds and tests one device; the op's span covers exactly
    /// `SocBuilder::build` plus `Soc::run_integrity_test`.
    fn run_op(&self, device: &Device, op: u64) -> Result<OpResult, String> {
        let mut builder = SocBuilder::new(self.wires)
            .extra_cells(self.extra_cells)
            .bus_params(BusParams::dsm_bus(self.wires).segments(self.segments))
            .with_variation(VariationSigma::typical(), device.variation_seed);
        if let Some(defect) = device.defect {
            builder = builder.defect(defect);
        }
        let session = self.session(device.method);
        let (result, op_time) = timed("device", "bench", op, || {
            let (soc, build) = timed("SocBuilder::build", "core", op, || builder.build());
            let mut soc = soc.map_err(|e| e.to_string())?;
            let (report, session_time) = timed("Soc::run_integrity_test", "core", op, || {
                soc.run_integrity_test(&session)
            });
            let report = report.map_err(|e| e.to_string())?;
            Ok::<_, String>((soc, report, build, session_time))
        });
        let (soc, report, build, session_time) = result?;
        Ok(OpResult {
            soc,
            report,
            op_time,
            build,
            session: session_time,
        })
    }

    /// Checks one report against ground truth.
    fn check(
        &self,
        gates: &mut harness::Gates,
        device: &Device,
        report: &IntegrityReport,
        op: u64,
    ) {
        let expected = method_total_tcks(
            ChainGeometry::new(self.wires, self.extra_cells),
            device.method,
        );
        gates.check(report.tck_used == expected, || {
            format!("op {op}: {} TCK, closed form {expected}", report.tck_used)
        });
        match device.defect {
            None => gates.check(!report.any_violation(), || {
                format!(
                    "op {op}: control flagged wires {:?}",
                    report.failing_wires().collect::<Vec<_>>()
                )
            }),
            Some(defect) => gates.check(report.wire(defect.focus_wire()).any(), || {
                format!("op {op}: {defect:?} not flagged on its wire")
            }),
        }
    }

    /// Runs the workload: repeated set-ups, the timed window, then (traced
    /// runs only) the per-layer metrics from replay probes.
    #[must_use]
    pub fn run(&self, cfg: &Config) -> Measured {
        let mut m = Measured::default();
        // The warm-up runs the workload's cheapest method.
        let warm_method = match self.methods {
            Methods::Always(method) => method,
            Methods::SeededTriples => ObservationMethod::Once,
        };
        harness::setup(&mut m, || {
            let warm = Device {
                method: warm_method,
                ..self.device(cfg.seed, u64::MAX)
            };
            let _ = std::hint::black_box(self.run_op(&warm, u64::MAX).map(|r| r.report.tck_used));
        });
        let mut samples = Vec::new();
        let mut prober = layers::Prober::default();
        let mut tck = (0u64, 0u64);
        harness::window(&mut m, cfg.seconds, self.digest_cycles, |m, cycle| {
            let mut excluded = Duration::ZERO;
            let mut done = 0;
            for k in 0..self.cycle_ops {
                let op = (cycle * self.cycle_ops + k) as u64;
                let device = self.device(cfg.seed, op);
                m.attempted += 1;
                let mut result = match self.run_op(&device, op) {
                    Ok(result) => result,
                    Err(e) => {
                        m.failed += 1;
                        m.gates.check(false, || format!("op {op}: {e}"));
                        continue;
                    }
                };
                m.op_ms.push(result.op_time.as_secs_f64() * 1e3);
                m.ops += 1;
                done += 1;
                self.check(&mut m.gates, &device, &result.report, op);
                if cycle < self.digest_cycles {
                    m.digest.write(result.report.to_json().render().as_bytes());
                    tck.0 += result.report.tck_used;
                    tck.1 += 1;
                }
                if cfg.trace {
                    let start = std::time::Instant::now();
                    match self.sample(&mut prober, &mut result, device.method, op) {
                        Ok(sample) => samples.push(sample),
                        Err(e) => m.gates.check(false, || format!("op {op} probe: {e}")),
                    }
                    excluded += start.elapsed();
                }
            }
            (done, excluded)
        });
        m.tck = Some(tck);
        if !samples.is_empty() {
            m.layers = layers::universal(&samples);
        }
        m
    }

    fn sample(
        &self,
        prober: &mut layers::Prober,
        result: &mut OpResult,
        method: ObservationMethod,
        op: u64,
    ) -> Result<LayerSample, String> {
        let units = prober.probe(&mut result.soc, &self.session(method), op)?;
        Ok(LayerSample {
            trial_ns: layers::ns(result.op_time),
            build_ns: layers::ns(result.build),
            session_ns: layers::ns(result.session),
            transients: result.soc.transients_run() as f64,
            tck: result.report.tck_used as f64,
            scalar: method == ObservationMethod::PerPattern,
            units,
        })
    }
}

/// One finished device op.
struct OpResult {
    soc: Soc,
    report: IntegrityReport,
    op_time: Duration,
    build: Duration,
    session: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_triple_holds_each_method_once() {
        for seed in [1u64, 2, 99] {
            for triple in 0..20u64 {
                let mut methods: Vec<_> = (0..3)
                    .map(|k| format!("{:?}", PAPER_SESSION.device(seed, 3 * triple + k).method))
                    .collect();
                methods.sort();
                assert_eq!(
                    methods,
                    ["Once", "PerInitialValue", "PerPattern"],
                    "seed {seed} triple {triple}"
                );
            }
        }
    }

    #[test]
    fn devices_are_pure_functions_of_seed_and_op() {
        let a = LONG_CHAIN.device(7, 42);
        let b = LONG_CHAIN.device(7, 42);
        assert_eq!(a.variation_seed, b.variation_seed);
        assert_eq!(a.defect, b.defect);
        assert_ne!(LONG_CHAIN.device(8, 42).variation_seed, a.variation_seed);
        for op in 0..200 {
            if let Some(d) = PAPER_SESSION.device(3, op).defect {
                assert!(
                    (1..31).contains(&d.focus_wire()),
                    "interior wires only: {d:?}"
                );
            }
        }
    }
}
