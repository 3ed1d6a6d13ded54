//! Replay probes and the per-layer metrics every workload reports.
//!
//! Spans cover only the benchmark's side of each call, so the time a
//! session spends inside the solver or the TAP is attributed from unit
//! costs: after an op (outside its span and outside the timed window)
//! the probes below replay a slice of that op's own schedule on its own
//! bus and chain, and each unit cost is multiplied by the op's exact
//! counts from public getters.

use crate::trace::timed;
use sint_core::mafm::pgbsc_sequence;
use sint_core::nd::{NdThresholds, NoiseDetector};
use sint_core::sd::{SdWindow, SkewDetector};
use sint_core::session::SessionConfig;
use sint_core::soc::Soc;
use sint_interconnect::drive::{DriveLevel, VectorPair};
use sint_interconnect::solver::{PanelScratch, TransientSim};
use sint_logic::BitVector;
use std::hint::black_box;

/// DR scans per JTAG probe: enough TCKs to time a short chain.
const PROBE_SCANS: usize = 8;

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Builds a [`Metric`].
#[must_use]
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Unit costs measured by replaying part of one op's work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitCosts {
    /// `TransientSim::new` on the op's bus at the session timestep.
    pub factorise_ns: f64,
    /// Per pattern, a panel of `Soc::panel_width()` patterns.
    pub panel_ns_per_pattern: f64,
    /// Per pattern, a single-pattern solve (method 3 flushes these).
    pub scalar_ns_per_pattern: f64,
    /// ND and SD observation of every wire of one replayed pattern.
    pub detector_ns_per_pattern: f64,
    /// Generating one full session schedule (`pgbsc_sequence`).
    pub schedule_ns: f64,
    /// One TCK of a chain-length DR scan.
    pub ns_per_tck: f64,
}

/// Runs the replay probes, keeping solver scratch warm across ops the
/// way a `Soc` keeps its own, so unit costs exclude first-use
/// allocation.
#[derive(Debug, Default)]
pub struct Prober {
    panel: PanelScratch,
    scalar: PanelScratch,
}

impl Prober {
    /// Replays the probes on `soc` (which the op has finished with: the
    /// JTAG probe leaves its TAP under `SAMPLE/PRELOAD`).
    ///
    /// # Errors
    ///
    /// A rendering of any substrate error.
    pub fn probe(
        &mut self,
        soc: &mut Soc,
        session: &SessionConfig,
        op: u64,
    ) -> Result<UnitCosts, String> {
        let Prober {
            panel: panel_scratch,
            scalar: scalar_scratch,
        } = self;
        let bus = soc.bus().clone();
        let (sim, factorise) = timed("TransientSim::new", "interconnect", op, || {
            TransientSim::new(&bus, session.dt)
        });
        let sim = sim.map_err(|e| e.to_string())?;
        let wires = bus.wires();
        let (pairs, schedule) = timed("mafm::pgbsc_sequence", "core", op, || {
            let mut pairs: Vec<VectorPair> = Vec::with_capacity(6 * wires);
            for initial in [DriveLevel::Low, DriveLevel::High] {
                for victim in 0..wires {
                    for pattern in pgbsc_sequence(wires, victim, initial)? {
                        pairs.push(pattern.pair);
                    }
                }
            }
            Ok::<_, sint_core::CoreError>(pairs)
        });
        let pairs = pairs.map_err(|e| e.to_string())?;
        let k = soc.panel_width().clamp(1, pairs.len());
        // Best of two solves: inside a session the solver runs back to back
        // with hot caches, which a single replay after the op does not see.
        let solve = |width: usize, scratch: &mut PanelScratch| {
            let mut best = None;
            for _ in 0..2 {
                let (waves, d) = timed(
                    "TransientSim::run_pairs_cancellable",
                    "interconnect",
                    op,
                    || {
                        sim.run_pairs_cancellable(
                            &pairs[..width],
                            session.settle_time,
                            scratch,
                            None,
                        )
                    },
                );
                let waves = waves.map_err(|e| e.to_string())?;
                if best.as_ref().is_none_or(|(_, b)| d < *b) {
                    best = Some((waves, d));
                }
            }
            Ok::<_, String>(best.expect("two solves ran"))
        };
        let (panel, panel_time) = solve(k, panel_scratch)?;
        let (_, scalar_time) = solve(1, scalar_scratch)?;

        let vdd = bus.vdd();
        let mut nd = NoiseDetector::new(NdThresholds::for_vdd(vdd));
        // The SD sample point does not change its cost; any window works.
        let mut sd = SkewDetector::new(SdWindow::for_vdd(2.0 * bus.rise_time(), vdd));
        nd.set_enabled(true);
        sd.set_enabled(true);
        let ((), detect) = timed("NoiseDetector+SkewDetector::observe", "core", op, || {
            for (c, pair) in pairs[..k].iter().enumerate() {
                for w in 0..wires {
                    let wave = panel.wire(c, w);
                    black_box(nd.observe(wave, panel.dt(), vdd));
                    if pair.switches(w) {
                        black_box(sd.observe(
                            wave,
                            panel.dt(),
                            vdd,
                            pair.after(w),
                            panel.switch_at(),
                        ));
                    }
                }
            }
        });

        let word = BitVector::zeros(soc.chain_len());
        let driver = soc.driver_mut();
        driver
            .load_instruction("SAMPLE/PRELOAD")
            .map_err(|e| e.to_string())?;
        let tck_start = driver.tck();
        let (scanned, scan) = timed("JtagDriver::scan_dr", "jtag", op, || {
            for _ in 0..PROBE_SCANS {
                black_box(driver.scan_dr(&word)?);
            }
            Ok::<_, sint_jtag::error::JtagError>(())
        });
        scanned.map_err(|e| e.to_string())?;
        let tcks = driver.tck() - tck_start;

        Ok(UnitCosts {
            factorise_ns: ns(factorise),
            panel_ns_per_pattern: ns(panel_time) / k as f64,
            scalar_ns_per_pattern: ns(scalar_time),
            detector_ns_per_pattern: ns(detect) / k as f64,
            schedule_ns: ns(schedule),
            ns_per_tck: ns(scan) / tcks.max(1) as f64,
        })
    }
}

/// Nanoseconds of a duration, as a float.
#[must_use]
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// What one trial cost and counted, for attribution: its thread time,
/// its build and session spans, its exact counts and the unit costs
/// replayed on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSample {
    /// Thread time the trial took inside its op.
    pub trial_ns: f64,
    /// `SocBuilder::build`.
    pub build_ns: f64,
    /// The session call (`run_integrity_test` or the adaptive session).
    pub session_ns: f64,
    /// `Soc::transients_run` after the session.
    pub transients: f64,
    /// TCKs the session spent.
    pub tck: f64,
    /// Whether the session flushed one pattern per solve (method 3).
    pub scalar: bool,
    /// Unit costs replayed on the trial's SoC.
    pub units: UnitCosts,
}

impl LayerSample {
    fn interconnect_ns(&self) -> f64 {
        let per_pattern = if self.scalar {
            self.units.scalar_ns_per_pattern
        } else {
            self.units.panel_ns_per_pattern
        };
        self.transients * per_pattern
    }

    fn jtag_ns(&self) -> f64 {
        self.tck * self.units.ns_per_tck
    }

    fn detector_ns(&self) -> f64 {
        self.transients * self.units.detector_ns_per_pattern
    }
}

/// The per-layer metrics every workload reports, in `BENCHMARK.json`
/// order. Shares are attributed time over trial thread time, summed
/// over all samples; `core.unattributed_share` is what no span or unit
/// cost explains.
///
/// # Panics
///
/// Panics when `samples` is empty.
#[must_use]
pub fn universal(samples: &[LayerSample]) -> Vec<Metric> {
    assert!(
        !samples.is_empty(),
        "per-layer metrics need at least one sample"
    );
    let n = samples.len() as f64;
    let med = |f: &dyn Fn(&LayerSample) -> f64| {
        crate::stats::median(&samples.iter().map(f).collect::<Vec<_>>())
    };
    let sum = |f: &dyn Fn(&LayerSample) -> f64| samples.iter().map(f).sum::<f64>();
    let trial = sum(&|s| s.trial_ns);
    let interconnect = sum(&LayerSample::interconnect_ns) / trial;
    let jtag = sum(&LayerSample::jtag_ns) / trial;
    let known = sum(&|s| s.build_ns + s.detector_ns() + s.units.schedule_ns) / trial;
    vec![
        metric(
            "interconnect.factorise_ms",
            "ms",
            med(&|s| s.units.factorise_ns) / 1e6,
        ),
        metric(
            "interconnect.panel_us_per_pattern",
            "us",
            med(&|s| s.units.panel_ns_per_pattern) / 1e3,
        ),
        metric(
            "interconnect.scalar_us_per_pattern",
            "us",
            med(&|s| s.units.scalar_ns_per_pattern) / 1e3,
        ),
        metric(
            "interconnect.transients_per_trial",
            "count",
            sum(&|s| s.transients) / n,
        ),
        metric("interconnect.attrib_share", "fraction", interconnect),
        metric("jtag.ns_per_tck", "ns", med(&|s| s.units.ns_per_tck)),
        metric("jtag.tck_per_trial", "TCK", sum(&|s| s.tck) / n),
        metric("jtag.attrib_share", "fraction", jtag),
        metric("core.build_ms", "ms", med(&|s| s.build_ns) / 1e6),
        metric("core.session_ms", "ms", med(&|s| s.session_ns) / 1e6),
        metric(
            "core.detector_us_per_trial",
            "us",
            sum(&LayerSample::detector_ns) / n / 1e3,
        ),
        metric(
            "core.schedule_us_per_trial",
            "us",
            med(&|s| s.units.schedule_ns) / 1e3,
        ),
        metric(
            "core.unattributed_share",
            "fraction",
            1.0 - interconnect - jtag - known,
        ),
    ]
}
