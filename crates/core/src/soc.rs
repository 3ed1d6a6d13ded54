//! The two-core SoC of the paper's Fig 11: Core *i* drives an `n`-wire
//! interconnect through PGBSCs; Core *j* receives it through OBSCs with
//! ND/SD detectors; a single TAP serves the whole chip; `m` further
//! standard cells share the boundary chain.
//!
//! [`Soc`] closes the loop between the digital and analog substrates:
//! every boundary Update-DR that changes the PGBSC outputs latches the
//! coupled bus's transient response to that transition into the
//! receiving detectors — so an injected physical defect propagates all
//! the way to bits scanned out of TDO, with every TCK accounted for.
//!
//! Every session is data: a list of `HalfPass` values, each one PGBSC
//! half truncated at a stop, with the read-out points listed by pattern.
//! Methods 1–3 differ only in where those points fall; the adaptive and
//! attributed-exhaustive sessions place probes (read-outs that clear
//! the detectors) and derive each escalation pass from the previous
//! pass's flags by a pure step. One executor runs every pass.
//!
//! The PGBSCs generate a half's patterns on-chip from its preload and
//! victim roster, so the transitions are known before the TAP moves.
//! A batched SoC plans first: it predicts the half's transitions on
//! clones of its cells and solves the ones it has not seen in
//! multi-RHS panels (MA patterns recombined from a step basis), fanned
//! out over the host's cores and merged in plan order, and each
//! Update-DR then latches its pattern from that memo. A pattern
//! the plan missed, and every pattern at panel width 1, is solved alone
//! at its Update-DR as a one-column panel: the oracle path, bitwise the
//! scalar solve.

use crate::degrade::{ChainPolicy, DegradationEvent, DegradedOutcome};
use crate::error::CoreError;
use crate::infra::InfrastructureDiagnosis;
use crate::instructions::{extended_instruction_set, g_sitest};
use crate::mafm::{
    fault_pair, victim_select, CoverageLedger, CoverageReport, IntegrityFault, QUARANTINE_PARK,
};
use crate::nd::NdThresholds;
use crate::obsc::{
    recombined_response, stop_tolerance, Obsc, RecombineScratch, ND_HIT, SD_HIT, SETTLED_HIGH,
};
use crate::pgbsc::Pgbsc;
use crate::sd::SdWindow;
use crate::session::{
    IntegrityReport, ObservationMethod, ReadoutPoint, ReadoutRecord, SessionConfig,
};
use sint_interconnect::defect::Defect;
use sint_interconnect::drive::{DriveLevel, VectorPair};
use sint_interconnect::error::InterconnectError;
use sint_interconnect::basis::StepBasis;
use sint_interconnect::measure::propagation_delay;
use sint_interconnect::params::{Bus, BusParams};
use sint_interconnect::solver::{Horizon, PanelScratch, StopRule, TransientSim};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use sint_interconnect::variation::{apply_variation, VariationSigma};
use sint_jtag::bcell::{BoundaryCell, CellControl, StandardBsc};
use sint_jtag::chain::Chain;
use sint_jtag::device::Device;
use sint_jtag::driver::JtagDriver;
use sint_jtag::error::JtagError;
use sint_jtag::fault::ScanFault;
use sint_jtag::integrity::{
    check_boundary, check_chain, localize_boundary_fault, ChainAnomaly, ChainCheckReport,
    FaultLocalization, QuarantineSet,
};
use sint_logic::{BitVector, Logic};
use sint_runtime::cancel::CancelToken;
use sint_runtime::pool::{JobPanic, Pool};

/// Builder for a [`Soc`].
#[derive(Debug, Clone)]
pub struct SocBuilder {
    wires: usize,
    extra_cells: usize,
    bus_params: BusParams,
    defects: Vec<Defect>,
    nd: Option<NdThresholds>,
    sd_window: Option<f64>,
    variation: Option<(VariationSigma, u64)>,
    scan_fault: Option<ScanFault>,
    chain_policy: ChainPolicy,
    panel_width: usize,
}

impl SocBuilder {
    /// An `wires`-wide SoC over the default DSM bus, no defects, no
    /// extra chain cells, detector parameters derived automatically.
    #[must_use]
    pub fn new(wires: usize) -> SocBuilder {
        SocBuilder {
            wires,
            extra_cells: 0,
            bus_params: BusParams::dsm_bus(wires),
            defects: Vec::new(),
            nd: None,
            sd_window: None,
            variation: None,
            scan_fault: None,
            chain_policy: ChainPolicy::default(),
            panel_width: DEFAULT_PANEL_WIDTH,
        }
    }

    /// Sets how many columns one batched transient of a plan solve
    /// advances together (default [`DEFAULT_PANEL_WIDTH`]). Width 1
    /// never solves a plan: every pattern is solved alone, as a
    /// one-column panel, at its own Update-DR — the correctness oracle
    /// the batched path is byte-compared against in `verify.sh`.
    #[must_use]
    pub fn panel_width(mut self, width: usize) -> Self {
        self.panel_width = width.max(1);
        self
    }

    /// Adds `m` standard boundary cells to the chain (the paper's other
    /// pins).
    #[must_use]
    pub fn extra_cells(mut self, m: usize) -> Self {
        self.extra_cells = m;
        self
    }

    /// Replaces the bus description entirely.
    ///
    /// The parameter width must match; checked at [`SocBuilder::build`].
    #[must_use]
    pub fn bus_params(mut self, params: BusParams) -> Self {
        self.bus_params = params;
        self
    }

    /// Injects an arbitrary defect.
    #[must_use]
    pub fn defect(mut self, defect: Defect) -> Self {
        self.defects.push(defect);
        self
    }

    /// Shortcut: multiply the coupling around `wire` by `factor`.
    #[must_use]
    pub fn coupling_defect(self, wire: usize, factor: f64) -> Self {
        self.defect(Defect::CouplingBoost { wire, factor })
    }

    /// Shortcut: resistive open adding `extra_ohms` on `wire`.
    #[must_use]
    pub fn open_defect(self, wire: usize, extra_ohms: f64) -> Self {
        self.defect(Defect::ResistiveOpen { wire, segment: 0, extra_ohms })
    }

    /// Shortcut: weaken `wire`'s driver by `factor`.
    #[must_use]
    pub fn weak_driver_defect(self, wire: usize, factor: f64) -> Self {
        self.defect(Defect::WeakDriver { wire, factor })
    }

    /// Applies seeded within-die parameter mismatch to the built bus
    /// (defects stack on top). Detector calibration still uses the
    /// *nominal* healthy bus — the designer budgets for the typical
    /// die, and the mismatch must fit inside the calibration margins.
    #[must_use]
    pub fn with_variation(mut self, sigma: VariationSigma, seed: u64) -> Self {
        self.variation = Some((sigma, seed));
        self
    }

    /// Overrides the ND thresholds (default: [`NdThresholds::for_vdd`]).
    #[must_use]
    pub fn nd_thresholds(mut self, nd: NdThresholds) -> Self {
        self.nd = Some(nd);
        self
    }

    /// Overrides the SD skew-immune window in seconds (default:
    /// calibrated to twice the healthiest worst-case arrival, see
    /// [`SocBuilder::build`]).
    #[must_use]
    pub fn sd_window(mut self, seconds: f64) -> Self {
        self.sd_window = Some(seconds);
        self
    }

    /// Injects a fault into the scan infrastructure itself (not the
    /// bus): a stuck serial link, a flipping bit, a wedged TAP, dropped
    /// TCK edges. The pre-session self-check
    /// ([`Soc::check_infrastructure`]) must catch it and refuse the
    /// session rather than let corrupted scans masquerade as
    /// signal-integrity verdicts.
    #[must_use]
    pub fn scan_fault(mut self, fault: ScanFault) -> Self {
        self.scan_fault = Some(fault);
        self
    }

    /// Sets what a session does when the pre-session self-check finds
    /// the chain damaged (default: [`ChainPolicy::Strict`], the refuse
    /// behaviour). Under [`ChainPolicy::Degrade`] a localizable
    /// boundary break is quarantined and a partial session runs over
    /// the healthy wires — see [`crate::degrade`].
    #[must_use]
    pub fn chain_policy(mut self, policy: ChainPolicy) -> Self {
        self.chain_policy = policy;
        self
    }

    /// Builds the SoC: injects defects, calibrates detectors against the
    /// *healthy* bus (the designer's delay budget, §2.2), constructs the
    /// boundary chain and resets the TAP.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for fewer than two wires, mismatched
    /// bus width, inverted or non-finite ND thresholds, or a
    /// non-positive SD window; substrate errors are propagated.
    pub fn build(self) -> Result<Soc, CoreError> {
        if self.wires < 2 {
            return Err(CoreError::config("a coupled-bus SoC needs at least two wires"));
        }
        if let Some(nd) = &self.nd {
            if !nd.v_low_max.is_finite()
                || !nd.v_high_min.is_finite()
                || !nd.overshoot_margin.is_finite()
            {
                return Err(CoreError::config("ND thresholds must be finite"));
            }
            if nd.v_low_max < 0.0 || nd.overshoot_margin < 0.0 {
                return Err(CoreError::config("ND thresholds must be non-negative"));
            }
            if nd.v_low_max >= nd.v_high_min {
                return Err(CoreError::config(
                    "ND thresholds inverted: v_low_max must sit below v_high_min",
                ));
            }
        }
        if let Some(w) = self.sd_window {
            if w <= 0.0 || !w.is_finite() {
                return Err(CoreError::config("SD window must be positive and finite"));
            }
        }
        let healthy = self.bus_params.clone().build()?;
        if healthy.wires() != self.wires {
            return Err(CoreError::config(format!(
                "bus parameters describe {} wires, SoC wants {}",
                healthy.wires(),
                self.wires
            )));
        }
        let mut bus = healthy.clone();
        if let Some((sigma, seed)) = self.variation {
            apply_variation(&mut bus, sigma, seed)?;
        }
        for d in &self.defects {
            d.apply(&mut bus)?;
        }

        let dt = 2e-12;
        let settle = 2e-9;
        let nd = self.nd.unwrap_or_else(|| NdThresholds::for_vdd(bus.vdd()));
        let mut panel_scratch = PanelScratch::new();
        let sd_window = match self.sd_window {
            Some(w) => w,
            None => {
                let stop = calibration_stop(&nd, healthy.vdd());
                let horizon = Horizon { duration: settle, stop };
                calibrate_sd_window(&healthy, dt, horizon, &mut panel_scratch)?.0
            }
        };
        let sd = SdWindow::for_vdd(sd_window, bus.vdd());

        let mut device = Device::new("soc", extended_instruction_set()?);
        for _ in 0..self.wires {
            device.push_cell(Box::new(Pgbsc::new()));
        }
        for _ in 0..self.wires {
            device.push_cell(Box::new(Obsc::new(nd, sd)));
        }
        for _ in 0..self.extra_cells {
            device.push_cell(Box::new(StandardBsc::new()));
        }
        // A bus whose factorisation is singular is refused with a typed
        // `SingularMatrix`: no other timestep or engine gives it a sound
        // session.
        let sim = Arc::new(TransientSim::new(&bus, dt)?);
        let sim_key = (bus.fingerprint(), dt.to_bits());
        let sim_cache = HashMap::from([(sim_key, Arc::clone(&sim))]);
        let zero_word = BitVector::zeros(device.boundary().len());
        let mut chain = Chain::single(device);
        if let Some(fault) = self.scan_fault {
            chain.inject_fault(fault);
        }
        let mut driver = JtagDriver::new(chain);
        driver.reset();

        Ok(Soc {
            driver,
            bus,
            sim,
            sim_key,
            sim_cache,
            panel_scratch,
            memo: HashMap::new(),
            memo_stats: MemoStats::default(),
            basis: StepBasis::new(),
            log: Vec::new(),
            panel_width: self.panel_width,
            wires: self.wires,
            extra_cells: self.extra_cells,
            prev: None,
            settle,
            transients_run: 0,
            patterns_applied: 0,
            policy: self.chain_policy,
            quarantine: None,
            degradation_events: Vec::new(),
            cancel: None,
            zero_word,
        })
    }
}

/// The proved stop of the SD-window calibration run: it reads only the
/// victim's first 50 % crossing, and past a certified step every sample
/// of the rising victim lies within [`stop_tolerance`] (below `Vdd/2`)
/// of `Vdd`, so that crossing lies inside any stopped trace. No sample
/// index or settled tail to keep.
fn calibration_stop(nd: &NdThresholds, vdd: f64) -> Option<StopRule> {
    let tolerance = stop_tolerance(nd, vdd);
    (tolerance > 0.0).then_some(StopRule { tolerance, min_samples: 0, tail_fraction: 0.0 })
}

/// Calibrates the skew-immune window on the healthy bus: the worst-case
/// MA skew pattern (victim rising against falling aggressors, the
/// Miller-slowed case) on a middle wire, with 2x design margin. One
/// pattern as a one-column panel over `horizon`: bitwise the scalar
/// run, on the lane kernels. Returns the window and the samples the
/// victim's trace kept.
fn calibrate_sd_window(
    healthy: &Bus,
    dt: f64,
    horizon: Horizon,
    scratch: &mut PanelScratch,
) -> Result<(f64, usize), CoreError> {
    let sim = TransientSim::new(healthy, dt)?;
    let wires = healthy.wires();
    let victim = wires / 2;
    let pair = crate::mafm::fault_pair(wires, victim, IntegrityFault::Rs)?;
    let waves = sim.run_pairs_cancellable(std::slice::from_ref(&pair), horizon, scratch, None)?;
    let delay =
        propagation_delay(waves.wire(0, victim), waves.dt(), healthy.vdd(), sim.switch_at(), true)
            .ok_or_else(|| {
                CoreError::config("healthy bus never settles; cannot calibrate SD window")
            })?;
    Ok((2.0 * delay + healthy.rise_time(), waves.samples_of(0)))
}

/// Default [`SocBuilder::panel_width`]: how many columns one batched
/// multi-RHS transient of a plan solve advances together. Eight fills
/// the widest hand-unrolled solver kernel exactly.
pub const DEFAULT_PANEL_WIDTH: usize = 8;

/// What one plan-solve job hands back to [`Soc::merge`].
#[derive(Debug, Default)]
struct Solved {
    /// Panel columns solved, counted in [`Soc::transients_run`].
    columns: usize,
    /// Of those, step-basis columns ([`MemoStats::basis_columns`]).
    basis_columns: u64,
    lane_steps: u64,
    skipped_chunks: u64,
    /// Responses to memoize, in the order the job solved them.
    responses: Vec<(VectorPair, Box<[u8]>)>,
    /// MA pairs whose recombination the guard band refused, in order.
    fallbacks: Vec<VectorPair>,
}

/// The read-only view every job of one plan solve shares
/// ([`Soc::plan_jobs`]): each job solves into its own scratch, so jobs
/// may run on any thread.
struct PlanJobs<'a> {
    sim: &'a TransientSim,
    basis: &'a StepBasis,
    /// Copies of the OBSCs, wire by wire.
    cells: &'a [Obsc],
    memo: Option<&'a HashMap<VectorPair, Box<[u8]>>>,
    vdd: f64,
    cancel: Option<&'a CancelToken>,
}

impl PlanJobs<'_> {
    /// One victim panel: the `u_v` column of each of `victims`, then all
    /// six fault pairs of each victim the memo lacks, recombined with
    /// `U` ([`recombined_response`]). A pair whose recombination is out
    /// of range, or has a compared quantity within
    /// [`GUARD_EPS`](crate::obsc::GUARD_EPS) of its threshold, is
    /// handed back as a fallback instead, so a memoized response is
    /// exactly what the direct solve's waveforms give.
    fn victims(&self, victims: &[usize]) -> Result<Solved, CoreError> {
        // The solver scratch is dropped before the recombination's
        // buffers grow: only the panel itself outlives the solve.
        let panel =
            self.basis.solve_victims(self.sim, victims, &mut PanelScratch::new(), self.cancel)?;
        let mut solved = Solved {
            columns: panel.columns(),
            basis_columns: panel.columns() as u64,
            lane_steps: panel.lane_steps(),
            ..Solved::default()
        };
        let mut recombine = RecombineScratch::new();
        let (basis, sim, vdd) = (self.basis, self.sim, self.vdd);
        let cell = |w| Ok::<_, CoreError>(&self.cells[w]);
        for &victim in victims {
            for fault in IntegrityFault::ALL {
                let pair = fault_pair(self.cells.len(), victim, fault)?;
                if self.memo.is_some_and(|m| m.contains_key(&pair)) {
                    continue;
                }
                match recombined_response(basis, &panel, sim, &pair, vdd, cell, &mut recombine)? {
                    Some(response) => solved.responses.push((pair, response)),
                    None => solved.fallbacks.push(pair),
                }
            }
        }
        solved.skipped_chunks = recombine.skipped_chunks;
        Ok(solved)
    }

    /// One direct chunk: `pairs` solved as one panel over `horizon`.
    fn direct(&self, pairs: &[VectorPair], horizon: Horizon) -> Result<Solved, CoreError> {
        let waves =
            self.sim.run_pairs_cancellable(pairs, horizon, &mut PanelScratch::new(), self.cancel)?;
        let (dt, switch_at) = (waves.dt(), waves.switch_at());
        let cell = |w| Ok(&self.cells[w]);
        let responses = pairs
            .iter()
            .enumerate()
            .map(|(c, pair)| {
                let response = response(pair, self.vdd, cell, dt, switch_at, |w| waves.wire(c, w))?;
                Ok((pair.clone(), response))
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(Solved {
            columns: pairs.len(),
            lane_steps: waves.lane_steps(),
            responses,
            ..Solved::default()
        })
    }
}

/// Reduces `pair`'s solved receiver traces (`trace(w)` for wire `w`) to
/// its per-wire response, read by each wire's OBSC `cell(w)`.
fn response<'c, 'w>(
    pair: &VectorPair,
    vdd: f64,
    cell: impl Fn(usize) -> Result<&'c Obsc, CoreError>,
    dt: f64,
    switch_at: f64,
    trace: impl Fn(usize) -> &'w [f64],
) -> Result<Box<[u8]>, CoreError> {
    (0..pair.width())
        .map(|w| {
            let edge = pair.switches(w).then(|| pair.after(w));
            Ok(cell(w)?.response(trace(w), dt, vdd, edge, switch_at))
        })
        .collect()
}

/// What each solved pattern does at the receivers, keyed by `(bus
/// fingerprint, dt bits, settle bits)` and then by the pair: everything
/// a response is a function of. A response is one byte per wire of
/// [`ND_HIT`] | [`SD_HIT`] | [`SETTLED_HIGH`]; latching needs nothing
/// more, so the waveforms are dropped once it is taken.
type PatternMemo = HashMap<(u64, u64, u64), HashMap<VectorPair, Box<[u8]>>>;

/// Work counters of the pattern-response memo, since the SoC was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Applied patterns latched from the memo: a plan solve (this
    /// session's or an earlier one's) had solved their pair.
    pub hits: u64,
    /// Applied patterns no plan had solved, each solved alone at its
    /// Update-DR as a one-column panel (the oracle path) and counted in
    /// [`Soc::transients_run`]: every pattern at panel width 1, and at
    /// wider panels only patterns a prediction missed or a dropped plan
    /// left behind.
    pub unplanned: u64,
    /// Step-basis columns (`U` and the single-rise `u_v`) solved for
    /// MA-shaped pairs, counted in [`Soc::transients_run`] too.
    pub basis_columns: u64,
    /// MA-shaped pairs whose recombined response fell inside the guard
    /// band (or out of range) and went to a direct panel instead.
    pub guard_fallbacks: u64,
    /// Timesteps the solver advanced per column, summed over every
    /// panel and every pattern solved alone: full windows count
    /// `columns · steps`, and each certified early stop
    /// (DESIGN.md §6h) counts less.
    pub lane_steps: u64,
    /// Chunks of recombined traces whose samples were never computed:
    /// the fused pass proved from the victim's envelopes that the ND
    /// walk passes them unchanged (DESIGN.md §6i).
    pub skipped_chunks: u64,
}

/// One PGBSC half as data: patterns `0..=stop` from a preload of
/// `initial`, with a read-out right after each listed pattern. Patterns
/// are numbered linearly, `3·victim position + pattern index`.
#[derive(Debug, Clone, PartialEq)]
struct HalfPass {
    initial: DriveLevel,
    /// The last pattern the half runs.
    stop: usize,
    /// `(pattern, point)` entries, ascending, each at or before `stop`.
    /// A read before `stop` is followed by a resume; a
    /// [`ReadoutPoint::Probe`] clears the detectors after it scans out.
    reads: Vec<(usize, ReadoutPoint)>,
}

/// The passes of a methods 1–3 session over `victims`: both halves in
/// full, low first. Method 1 reads at the second half's stop, method 2
/// at each stop, method 3 after every pattern.
fn method_passes(method: ObservationMethod, victims: &[usize]) -> Vec<HalfPass> {
    let stop = 3 * victims.len() - 1;
    [DriveLevel::Low, DriveLevel::High]
        .into_iter()
        .map(|initial| {
            let faults = IntegrityFault::covered_by_initial(initial);
            let reads = match method {
                ObservationMethod::Once if initial == DriveLevel::Low => Vec::new(),
                ObservationMethod::Once => vec![(stop, ReadoutPoint::Final)],
                ObservationMethod::PerInitialValue => {
                    vec![(stop, ReadoutPoint::AfterInitialValue(initial))]
                }
                ObservationMethod::PerPattern => (0..=stop)
                    .map(|k| {
                        let victim = victims[k / 3];
                        (k, ReadoutPoint::AfterPattern { initial, victim, fault: faults[k % 3] })
                    })
                    .collect(),
            };
            HalfPass { initial, stop, reads }
        })
        .collect()
}

/// The probed pass that tests each window `a..=b` of `windows`
/// (ascending, disjoint, non-empty): a probe at each window's end, and a
/// *guard* probe at `a − 1` when a gap separates the window from the
/// previous one. A re-run re-fires every earlier pattern, failing ones
/// included, so the guard clears whatever the gap latched and each end
/// probe flags exactly the window's own patterns. The pass stops at the
/// last window's end.
fn window_pass(initial: DriveLevel, victims: &[usize], windows: &[(usize, usize)]) -> HalfPass {
    let probe = |k: usize| {
        (k, ReadoutPoint::Probe { initial, victim: victims[k / 3], pattern: k % 3 })
    };
    let mut reads = Vec::with_capacity(2 * windows.len());
    let mut unprobed = 0;
    for &(a, b) in windows {
        if a > unprobed {
            reads.push(probe(a - 1));
        }
        reads.push(probe(b));
        unprobed = b + 1;
    }
    HalfPass { initial, stop: unprobed - 1, reads }
}

/// One escalation step, pure: `pass` tested `windows` and read `flags`
/// (one per read, guards included). A flagged single pattern is
/// isolated; a flagged wider window splits in two for the next pass.
/// Returns the next pass (`None` once nothing is left to split), its
/// windows, and the isolated patterns.
fn escalate(
    victims: &[usize],
    pass: &HalfPass,
    windows: &[(usize, usize)],
    flags: &[bool],
) -> (Option<HalfPass>, Vec<(usize, usize)>, Vec<usize>) {
    let mut next = Vec::new();
    let mut isolated = Vec::new();
    for &(a, b) in windows {
        // A window's flag is its end probe's; guard flags are not read.
        let read = pass.reads.binary_search_by_key(&b, |&(k, _)| k);
        if !flags[read.expect("every window ends at a probe")] {
            continue;
        }
        if a == b {
            isolated.push(b);
        } else {
            let mid = (a + b - 1) / 2;
            next.extend([(a, mid), (mid + 1, b)]);
        }
    }
    let pass = (!next.is_empty()).then(|| window_pass(pass.initial, victims, &next));
    (pass, next, isolated)
}

/// A session in progress: its roster, where its TCK count starts, the
/// quarantine findings for its report, and the records read so far.
struct SessionRun {
    victims: Vec<usize>,
    /// Whether victims after the first are selected by a 1-bit rotation.
    rotate: bool,
    tck_start: u64,
    degraded: Option<DegradedOutcome>,
    readouts: Vec<ReadoutRecord>,
}

/// Steps clones of the PGBSC cells through patterns `next..end` (linear
/// index `3·position + pattern`) of one half over `victims` and yields
/// each bus transition the session will apply: the cells' own update
/// logic, run ahead on copies.
struct HalfStream<'a> {
    cells: Vec<Pgbsc>,
    victims: &'a [usize],
    /// Whether victims after the first are selected by a 1-bit
    /// rotation instead of a full select scan.
    rotate: bool,
    next: usize,
    end: usize,
    quarantine: Option<&'a QuarantineSet>,
    ctrl: CellControl,
    prev: Option<Vec<DriveLevel>>,
}

impl Iterator for HalfStream<'_> {
    type Item = VectorPair;

    fn next(&mut self) -> Option<VectorPair> {
        let ctrl = self.ctrl;
        while self.next < self.end {
            let (pos, pattern) = (self.next / 3, self.next % 3);
            self.next += 1;
            // A victim's first pattern rides on its select scan, or on
            // a 1-bit rotation of the previous victim's select word.
            if pattern == 0 && pos > 0 && self.rotate {
                let mut carry = Logic::Zero;
                for cell in &mut self.cells {
                    carry = cell.shift(carry, &ctrl);
                }
            } else if pattern == 0 {
                let victim = self.victims[pos];
                for (i, cell) in self.cells.iter_mut().enumerate() {
                    cell.shift(Logic::from(i == victim), &ctrl);
                }
            }
            for cell in &mut self.cells {
                cell.update(&ctrl);
            }
            let new = drive_levels(self.cells.iter().map(|c| c.output(&ctrl)), self.quarantine);
            let prev = std::mem::replace(&mut self.prev, new.clone());
            if let (Some(prev), Some(new)) = (prev, new) {
                if prev != new {
                    return Some(VectorPair::new(prev, new));
                }
            }
        }
        None
    }
}

/// Appends `pair` to a pattern log as `2·⌈n/64⌉` words: the before
/// levels, then the after levels, one bit per wire (high = 1).
fn pack_pair(pair: &VectorPair, wires: usize, log: &mut Vec<u64>) {
    for level in [VectorPair::before, VectorPair::after] {
        for chunk in 0..wires.div_ceil(64) {
            let bits = (64 * chunk..wires.min(64 * chunk + 64))
                .filter(|&w| level(pair, w) == DriveLevel::High)
                .fold(0u64, |word, w| word | 1 << (w % 64));
            log.push(bits);
        }
    }
}

/// Inverse of [`pack_pair`] for one logged pattern.
fn unpack_pair(packed: &[u64], wires: usize) -> VectorPair {
    let (before, after) = packed.split_at(packed.len() / 2);
    let levels = |words: &[u64]| -> Vec<DriveLevel> {
        (0..wires).map(|w| DriveLevel::from(words[w / 64] >> (w % 64) & 1 == 1)).collect()
    };
    VectorPair::new(levels(before), levels(after))
}

/// The levels PGBSC outputs drive onto the bus, or `None` while a
/// controllable wire's drive is undefined (before the preload). A
/// quarantined wire's PGBSC sits behind the broken shift segment:
/// whatever it holds is scan fill, not a planned pattern, so its driver
/// is modelled parked at [`QUARANTINE_PARK`].
fn drive_levels(
    outputs: impl Iterator<Item = Logic>,
    quarantine: Option<&QuarantineSet>,
) -> Option<Vec<DriveLevel>> {
    outputs
        .enumerate()
        .map(|(i, out)| {
            if quarantine.is_some_and(|q| q.is_quarantined(i)) {
                Some(QUARANTINE_PARK)
            } else {
                out.to_bool().map(DriveLevel::from)
            }
        })
        .collect()
}

/// A simulated two-core SoC with the enhanced boundary-scan
/// architecture.
#[derive(Debug)]
pub struct Soc {
    driver: JtagDriver,
    bus: Bus,
    /// The active factored solver; shared with `sim_cache`.
    sim: Arc<TransientSim>,
    /// Cache key of `sim`: `(bus fingerprint, dt bits)`.
    sim_key: (u64, u64),
    /// Every solver factored so far, keyed by `(bus fingerprint, dt
    /// bits)` — a campaign that alternates session configs (or re-tests
    /// at the same dt) never refactors the same system twice.
    sim_cache: HashMap<(u64, u64), Arc<TransientSim>>,
    /// Reused solver scratch for plan solves and patterns solved alone:
    /// keeps every timestep loop allocation-free.
    panel_scratch: PanelScratch,
    /// The response of every pair a plan solve has solved so far.
    memo: PatternMemo,
    memo_stats: MemoStats,
    /// The all-rise column `U` of the active solver, which every
    /// victim panel of a plan solve recombines with.
    basis: StepBasis,
    /// The current session's applied pairs, bit-packed in order (see
    /// [`pack_pair`]).
    log: Vec<u64>,
    /// Columns per batched plan solve; 1 = never plan, solve every
    /// pattern alone (the oracle path).
    panel_width: usize,
    wires: usize,
    extra_cells: usize,
    /// Last defined vector driven onto the bus.
    prev: Option<Vec<DriveLevel>>,
    settle: f64,
    transients_run: usize,
    patterns_applied: usize,
    /// What to do when the self-check finds the chain damaged.
    policy: ChainPolicy,
    /// Active quarantine while a degraded session runs: these wires'
    /// drives are parked at [`QUARANTINE_PARK`] in the bus model.
    quarantine: Option<QuarantineSet>,
    /// Concessions the most recent degraded session made (empty after
    /// a healthy session).
    degradation_events: Vec<DegradationEvent>,
    /// Cooperative cancellation: checked inside every solver timestep
    /// loop; an expired deadline surfaces as
    /// [`CoreError::DeadlineExceeded`].
    cancel: Option<CancelToken>,
    /// The chain-length all-zero word every read-out scan shifts in.
    zero_word: BitVector,
}

impl Soc {
    /// Interconnect width.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// Extra standard cells on the chain.
    #[must_use]
    pub fn extra_cells(&self) -> usize {
        self.extra_cells
    }

    /// Total boundary chain length (`2n + m`).
    #[must_use]
    pub fn chain_len(&self) -> usize {
        2 * self.wires + self.extra_cells
    }

    /// The (possibly defect-injected) bus model.
    #[must_use]
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// TCKs spent so far.
    #[must_use]
    pub fn tck(&self) -> u64 {
        self.driver.tck()
    }

    /// Transient analyses run so far: plan-solve panel columns
    /// (step-basis and direct alike) plus the patterns solved alone.
    #[must_use]
    pub fn transients_run(&self) -> usize {
        self.transients_run
    }

    /// Pattern-response memo counters. At panel width 1 only
    /// [`MemoStats::unplanned`] moves: every pattern is solved alone.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.memo_stats
    }

    /// The bus transitions the most recent session applied, in order.
    #[must_use]
    pub fn applied_pairs(&self) -> Vec<VectorPair> {
        let words = 2 * self.wires.div_ceil(64);
        self.log.chunks(words).map(|packed| unpack_pair(packed, self.wires)).collect()
    }

    /// The bus transitions one half of a session on this SoC applies,
    /// predicted by stepping clones of its PGBSC cells from a preload
    /// of `initial` over the session roster (every wire, or the healthy
    /// wires of the active quarantine). Each half's plan solve solves
    /// the same stream ahead of the TAP.
    ///
    /// # Errors
    ///
    /// [`CoreError::Jtag`] if the boundary register cannot be read.
    pub fn predict_half(&self, initial: DriveLevel) -> Result<Vec<VectorPair>, CoreError> {
        let (victims, rotate) = self.roster();
        self.planned_half(initial, &victims, rotate, 3 * victims.len())
    }

    /// The transitions patterns `0..end` of a half over `victims` apply
    /// from a preload of `initial`: the plan [`Soc::run_pass`] solves.
    fn planned_half(
        &self,
        initial: DriveLevel,
        victims: &[usize],
        rotate: bool,
        end: usize,
    ) -> Result<Vec<VectorPair>, CoreError> {
        let mut cells = self.pgbsc_clones()?;
        for cell in &mut cells {
            cell.preload(Logic::from(initial == DriveLevel::High));
        }
        let g = g_sitest();
        let ctrl = CellControl { mode: g.mode, si: g.si, ce: g.ce, ..CellControl::default() };
        let quarantine = self.quarantine.as_ref();
        let prev = drive_levels(cells.iter().map(|c| c.output(&ctrl)), quarantine);
        let stream = HalfStream { cells, victims, rotate, next: 0, end, quarantine, ctrl, prev };
        Ok(stream.collect())
    }

    /// Copies of the PGBSC cells as they stand.
    fn pgbsc_clones(&self) -> Result<Vec<Pgbsc>, CoreError> {
        let boundary = self.driver.chain().device(0)?.boundary();
        (0..self.wires)
            .map(|i| {
                let cell = boundary.cell(i)?.as_any().downcast_ref::<Pgbsc>();
                Ok(cell.expect("cells 0..n are PGBSCs by construction").clone())
            })
            .collect()
    }

    /// The victims a session walks, and whether it may rotate the
    /// select word: every wire, or only the healthy wires of the active
    /// quarantine — possibly non-contiguous, so each gets a full select
    /// scan.
    fn roster(&self) -> (Vec<usize>, bool) {
        match &self.quarantine {
            Some(q) => (q.healthy_wires(), false),
            None => ((0..self.wires).collect(), true),
        }
    }

    /// The JTAG driver, for custom test plans.
    pub fn driver_mut(&mut self) -> &mut JtagDriver {
        &mut self.driver
    }

    /// The configured batching width (1 = never plans: every pattern is
    /// solved alone).
    #[must_use]
    pub fn panel_width(&self) -> usize {
        self.panel_width
    }

    /// The configured chain-damage policy.
    #[must_use]
    pub fn chain_policy(&self) -> ChainPolicy {
        self.policy
    }

    /// Concessions the most recent degraded session made, in order.
    /// Empty after a healthy session (and before any session). The
    /// same trail is attached to the session's report via
    /// [`IntegrityReport::degradation`].
    #[must_use]
    pub fn degradation_events(&self) -> &[DegradationEvent] {
        &self.degradation_events
    }

    /// Installs (or clears) a cancellation token. The solver polls it
    /// every few timesteps; once it fires — explicitly or via its
    /// wall-clock deadline — the in-flight transient stops and the
    /// session fails with [`CoreError::DeadlineExceeded`].
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Runs the ATE-style scan-chain self-check (reset probe, BYPASS
    /// flush, IR capture read-back) and refuses further testing when
    /// the chain is unhealthy.
    ///
    /// [`Soc::run_integrity_test`] calls this before every session, so
    /// a faulty scan infrastructure is reported as
    /// [`CoreError::Infrastructure`] — naming the stuck link, corrupted
    /// cell or wedged TAP state — instead of corrupting detector
    /// verdicts. SVF recording is suspended for the check's scans: the
    /// recorded program stays exactly the session.
    ///
    /// # Errors
    ///
    /// [`CoreError::Infrastructure`] with the structured diagnosis when
    /// the self-check finds anomalies; [`CoreError::Jtag`] if the chain
    /// cannot be probed at all.
    pub fn check_infrastructure(&mut self) -> Result<ChainCheckReport, CoreError> {
        let report = self.qualify_chain()?;
        if report.healthy() {
            Ok(report)
        } else {
            Err(CoreError::Infrastructure(InfrastructureDiagnosis {
                chain_cells: self.chain_len(),
                report,
            }))
        }
    }

    /// Runs the full qualification sequence — BYPASS-path self-check,
    /// then (only when that passes) the boundary-path probe — and
    /// returns the merged report without applying any policy. SVF
    /// recording is suspended throughout.
    fn qualify_chain(&mut self) -> Result<ChainCheckReport, CoreError> {
        let recording = self.driver.suspend_recording();
        let result = check_chain(&mut self.driver).and_then(|mut report| {
            if report.healthy() {
                let boundary = check_boundary(&mut self.driver)?;
                report.anomalies.extend(boundary.anomalies);
                report.tck_cost += boundary.tck_cost;
            }
            Ok(report)
        });
        self.driver.restore_recording(recording);
        Ok(result?)
    }

    /// Points `self.sim` at the factored solver for this session's
    /// `dt` (factoring and caching it on first sight) and adopts the
    /// session's settle time.
    fn select_sim(&mut self, config: &SessionConfig) -> Result<(), CoreError> {
        self.settle = config.settle_time;
        let key = (self.bus.fingerprint(), config.dt.to_bits());
        if self.sim_key != key {
            self.sim = match self.sim_cache.get(&key) {
                Some(sim) => Arc::clone(sim),
                None => {
                    let sim = Arc::new(TransientSim::new(&self.bus, config.dt)?);
                    self.sim_cache.insert(key, Arc::clone(&sim));
                    sim
                }
            };
            self.sim_key = key;
        }
        Ok(())
    }

    fn obsc_mut(&mut self, wire: usize) -> Result<&mut Obsc, CoreError> {
        let idx = self.wires + wire;
        let cell = self
            .driver
            .chain_mut()
            .device_mut(0)?
            .boundary_mut()
            .cell_mut(idx)?
            .as_any_mut()
            .downcast_mut::<Obsc>()
            .expect("cells n..2n are OBSCs by construction");
        Ok(cell)
    }

    fn obsc(&self, wire: usize) -> Result<&Obsc, CoreError> {
        let cell = self.driver.chain().device(0)?.boundary().cell(self.wires + wire)?;
        Ok(cell.as_any().downcast_ref::<Obsc>().expect("cells n..2n are OBSCs by construction"))
    }

    /// Builds the TDI-order scan word that deposits `values[j]` into
    /// boundary cell `j` (cell 0 nearest TDI).
    fn scan_word(&self, values: &[Logic]) -> BitVector {
        // The last bit shifted lands in cell 0, so shift in reverse
        // cell order.
        values.iter().rev().copied().collect()
    }

    /// The [`Soc::scan_word`] that deposits the victim-select data in
    /// the PGBSCs and zeros everywhere else, written straight into the
    /// word: cell `i`'s bit sits at scan position `len − 1 − i`.
    fn victim_select_word(&self, victim: usize) -> Result<BitVector, CoreError> {
        let one_hot = victim_select(self.wires, victim)?;
        let len = self.chain_len();
        let mut word = BitVector::zeros(len);
        for (i, v) in one_hot.iter().enumerate() {
            word.set(len - 1 - i, v);
        }
        Ok(word)
    }

    /// Samples the PGBSC outputs and, if they form a newly *defined*
    /// vector different from the previous one, latches the transition's
    /// response into the detectors under the pattern's own CE: from the
    /// memo when a plan solved it, otherwise solved alone on the spot.
    fn apply_bus_state(&mut self) -> Result<(), CoreError> {
        let device = self.driver.chain().device(0)?;
        let ctrl = device.cell_control();
        let outputs = (0..self.wires)
            .map(|i| Ok(device.boundary().cell(i)?.output(&ctrl)))
            .collect::<Result<Vec<Logic>, JtagError>>()?;
        let Some(new) = drive_levels(outputs.into_iter(), self.quarantine.as_ref()) else {
            // Undefined drive (pre-preload): nothing physical yet.
            self.prev = None;
            return Ok(());
        };
        let prev = match self.prev.replace(new.clone()) {
            Some(prev) if prev != new => prev,
            _ => return Ok(()),
        };
        let pair = VectorPair::new(prev, new);
        self.patterns_applied += 1;
        pack_pair(&pair, self.wires, &mut self.log);
        let planned = self.memo.get(&self.memo_key()).and_then(|m| m.get(&pair)).cloned();
        let response = match planned {
            Some(response) => {
                self.memo_stats.hits += 1;
                response
            }
            None => {
                let response = self.solve_alone(&pair)?;
                self.memo_stats.unplanned += 1;
                response
            }
        };
        for (w, flags) in response.iter().enumerate() {
            let obsc = self.obsc_mut(w)?;
            obsc.set_detectors_enabled(ctrl.ce);
            obsc.nd_mut().latch(flags & ND_HIT != 0);
            obsc.sd_mut().latch(flags & SD_HIT != 0);
            obsc.set_parallel_input(Logic::from(flags & SETTLED_HIGH != 0));
        }
        Ok(())
    }

    /// The oracle path: `pair` solved alone as a one-column panel —
    /// bitwise the scalar solve, failing with its exact error — and
    /// reduced to its response. Not memoized, so panel width 1 solves
    /// every pattern it applies.
    fn solve_alone(&mut self, pair: &VectorPair) -> Result<Box<[u8]>, CoreError> {
        let column = std::slice::from_ref(pair);
        let cancel = self.cancel.as_ref();
        let waves = self
            .sim
            .run_pairs_cancellable(column, self.settle, &mut self.panel_scratch, cancel)
            .map_err(|e| match e {
                InterconnectError::Cancelled { step } => CoreError::DeadlineExceeded { step },
                e => e.into(),
            })?;
        self.transients_run += 1;
        self.memo_stats.lane_steps += waves.lane_steps();
        let vdd = self.bus.vdd();
        response(pair, vdd, |w| self.obsc(w), waves.dt(), waves.switch_at(), |w| waves.wire(0, w))
    }

    /// The proved early stop for plan-solve columns recombined with
    /// coefficient magnitudes summing to at most `gain`: every OBSC
    /// shares the thresholds and window it derives from.
    fn stop_rule(&self, gain: f64) -> Result<Option<StopRule>, CoreError> {
        let (vdd, dt, switch_at) = (self.bus.vdd(), self.sim.dt(), self.sim.switch_at());
        Ok(self.obsc(0)?.stop_rule(vdd, dt, switch_at, gain))
    }

    /// Memo key of the active solver and settle time.
    fn memo_key(&self) -> (u64, u64, u64) {
        (self.sim_key.0, self.sim_key.1, self.settle.to_bits())
    }

    /// The plan solve: solves the distinct `planned` pairs the memo
    /// lacks and memoizes each one's response, in three phases
    /// (DESIGN.md §6j).
    ///
    /// 1. `U` alone, unless held: one full-window column.
    /// 2. The victims of the MA-shaped pairs, in panels of
    ///    `panel_width`: each a job that solves its victims' columns and
    ///    recombines all six fault pairs of each victim, both halves'.
    /// 3. The rest, and every recombination the guard band refuses, in
    ///    direct chunks of `panel_width` pairs, each a job.
    ///
    /// The jobs of a phase fan out over [`Pool::host`] and are merged in
    /// plan order ([`Soc::merge`]), so the memo, the counters and the
    /// error are exactly those of the jobs run one after another — which
    /// is what a one-core host, or a die on a pool worker, does. Panel
    /// columns are bitwise the scalar solves and a response is a pure
    /// function of its column, so a memo hit latches exactly what a
    /// scalar solve at Update-DR would have (DESIGN.md §6e).
    ///
    /// A failed plan solve is dropped by its caller: the patterns it
    /// left out miss the memo and are solved alone, so any error is the
    /// oracle path's.
    fn solve_plan(&mut self, planned: &[VectorPair]) -> Result<(), CoreError> {
        let recombinable = StepBasis::accepts(&self.sim);
        let memo = self.memo.get(&self.memo_key());
        let mut victims = Vec::new();
        let mut direct = Vec::new();
        for pair in planned {
            if memo.is_some_and(|m| m.contains_key(pair)) {
                continue;
            }
            match StepBasis::ma_victim(pair).filter(|_| recombinable) {
                Some(victim) if victims.contains(&victim) => {}
                Some(victim) => victims.push(victim),
                None if direct.contains(pair) => {}
                None => direct.push(pair.clone()),
            }
        }
        let cells: Vec<Obsc> =
            (0..self.wires).map(|w| self.obsc(w).cloned()).collect::<Result<_, _>>()?;
        let pool = Pool::host();
        if !victims.is_empty() {
            // A recombination `DC + a·(U − u_v) + b·u_v` has
            // `|a| + |a| + |b| ≤ 3`, so its columns stop under a third of
            // the direct tolerance.
            let horizon = Horizon { duration: self.settle, stop: self.stop_rule(3.0)? };
            let cancel = self.cancel.as_ref();
            let all_rise =
                self.basis.solve_all_rise(&self.sim, horizon, &mut self.panel_scratch, cancel)?;
            if let Some(steps) = all_rise {
                self.transients_run += 1;
                self.memo_stats.basis_columns += 1;
                self.memo_stats.lane_steps += steps;
            }
            let panels: Vec<&[usize]> = victims.chunks(self.panel_width).collect();
            let jobs = self.plan_jobs(&cells);
            let solved = pool.try_map(&panels, |_, panel| jobs.victims(panel));
            self.merge(solved, &mut direct)?;
        }
        let horizon = Horizon { duration: self.settle, stop: self.stop_rule(1.0)? };
        let chunks: Vec<&[VectorPair]> = direct.chunks(self.panel_width).collect();
        let jobs = self.plan_jobs(&cells);
        let solved = pool.try_map(&chunks, |_, pairs| jobs.direct(pairs, horizon));
        self.merge(solved, &mut Vec::new())
    }

    /// What every job of a phase reads: the solver, `U`, the OBSCs'
    /// copies in `cells` and the memo as the phase starts (for the
    /// victim panels, as it stood before the plan).
    fn plan_jobs<'a>(&'a self, cells: &'a [Obsc]) -> PlanJobs<'a> {
        PlanJobs {
            sim: &self.sim,
            basis: &self.basis,
            cells,
            memo: self.memo.get(&self.memo_key()),
            vdd: self.bus.vdd(),
            cancel: self.cancel.as_ref(),
        }
    }

    /// Folds the outcomes of one phase's jobs into the memo and the
    /// counters in plan order, appending guard-band refusals to
    /// `direct`, up to the first failed job, whose error it returns; a
    /// job that panicked panics here. Later jobs are dropped as if they
    /// had never run, so the result is that of the jobs run in order
    /// with the first failure ending the plan.
    ///
    /// # Panics
    ///
    /// Re-raises the first job panic in plan order.
    fn merge(
        &mut self,
        outcomes: Vec<Result<Result<Solved, CoreError>, JobPanic>>,
        direct: &mut Vec<VectorPair>,
    ) -> Result<(), CoreError> {
        let key = self.memo_key();
        for outcome in outcomes {
            let solved = outcome.unwrap_or_else(|p| panic!("{p}"))?;
            self.transients_run += solved.columns;
            self.memo_stats.basis_columns += solved.basis_columns;
            self.memo_stats.lane_steps += solved.lane_steps;
            self.memo_stats.skipped_chunks += solved.skipped_chunks;
            self.memo_stats.guard_fallbacks += solved.fallbacks.len() as u64;
            direct.extend(solved.fallbacks);
            if !solved.responses.is_empty() {
                self.memo.entry(key).or_default().extend(solved.responses);
            }
        }
        Ok(())
    }

    /// Starts an empty pattern log.
    fn reset_pattern_log(&mut self) {
        self.log.clear();
        self.patterns_applied = 0;
    }

    /// Extracts the OBSC bits from a full-chain scan-out (TDO order),
    /// forced clear on quarantined wires: their scan-outs cross (or
    /// their detectors sit behind) the broken segment, so whatever
    /// arrives cannot be trusted either way.
    fn obsc_bits(&self, out: &BitVector) -> Vec<bool> {
        let len = self.chain_len();
        let quarantined = |w| self.quarantine.as_ref().is_some_and(|q| q.is_quarantined(w));
        (0..self.wires)
            .map(|w| !quarantined(w) && out.get(len - 1 - (self.wires + w)) == Some(Logic::One))
            .collect()
    }

    /// One O-SITEST double read-out: loads the instruction, scans the ND
    /// flip-flops, then (ND̄/SD having toggled on Update-DR) the SD
    /// flip-flops.
    fn readout(&mut self, point: ReadoutPoint) -> Result<ReadoutRecord, CoreError> {
        self.driver.load_instruction("O-SITEST")?;
        let nd_out = self.driver.scan_dr(&self.zero_word)?;
        let sd_out = self.driver.scan_dr(&self.zero_word)?;
        // Update-DRs during O-SITEST hold the pattern generators (CE=0),
        // so the bus state is undisturbed; keep `prev` as is.
        Ok(ReadoutRecord {
            point,
            nd: self.obsc_bits(&nd_out),
            sd: self.obsc_bits(&sd_out),
        })
    }

    /// Runs the **conventional** pattern-application campaign (the
    /// Table 5 baseline): every MA vector is scanned into the full
    /// boundary chain under EXTEST and applied by Update-DR — no
    /// on-chip generation, `12` scans per victim, `O(n²)` TCKs overall.
    ///
    /// Returns `(tcks_used, patterns_applied)`. The conventional
    /// architecture has no detectors (CE stays low under EXTEST), so
    /// only the cost is meaningful — exactly how the paper uses it.
    ///
    /// # Errors
    ///
    /// Substrate errors are propagated.
    pub fn run_conventional_generation(&mut self) -> Result<(u64, usize), CoreError> {
        self.driver.reset();
        self.reset_pattern_log();
        self.prev = None;
        let tck_start = self.driver.tck();
        self.driver.load_instruction("EXTEST")?;
        let schedule = crate::mafm::conventional_schedule(self.wires)?;
        let vectors: Vec<Vec<Logic>> = schedule
            .iter()
            .flat_map(|sched| {
                [VectorPair::before, VectorPair::after].map(|level| {
                    let high = |w| level(&sched.pair, w) == DriveLevel::High;
                    (0..self.wires).map(|w| Logic::from(high(w))).collect()
                })
            })
            .collect();
        if self.panel_width > 1 {
            // Plan first: the transitions between consecutive scanned
            // vectors. A failed plan is dropped, as in `run_pass`.
            let quarantine = self.quarantine.as_ref();
            let levels: Vec<_> = vectors
                .iter()
                .filter_map(|v| drive_levels(v.iter().copied(), quarantine))
                .collect();
            let planned: Vec<VectorPair> = levels
                .windows(2)
                .filter(|w| w[0] != w[1])
                .map(|w| VectorPair::new(w[0].clone(), w[1].clone()))
                .collect();
            let _ = self.solve_plan(&planned);
        }
        for vector in &vectors {
            let mut values = vec![Logic::Zero; self.chain_len()];
            values[..self.wires].copy_from_slice(vector);
            let word = self.scan_word(&values);
            self.driver.scan_dr(&word)?;
            self.apply_bus_state()?;
        }
        Ok((self.driver.tck() - tck_start, self.patterns_applied))
    }

    /// Runs the integrity session while recording every host operation
    /// and returns the report together with the SVF program that would
    /// replay the session on real test equipment.
    ///
    /// # Errors
    ///
    /// As for [`Soc::run_integrity_test`].
    pub fn run_integrity_test_with_svf(
        &mut self,
        config: &SessionConfig,
        options: &sint_jtag::svf::SvfOptions,
    ) -> Result<(IntegrityReport, String), CoreError> {
        self.driver.start_recording();
        let report = self.run_integrity_test(config)?;
        let ops = self.driver.take_recording();
        Ok((report, sint_jtag::svf::to_svf(&ops, options)))
    }

    /// Clears every detector flip-flop (start of a session).
    ///
    /// # Errors
    ///
    /// Substrate errors are propagated.
    pub fn clear_detectors(&mut self) -> Result<(), CoreError> {
        for w in 0..self.wires {
            self.obsc_mut(w)?.clear_detectors();
        }
        Ok(())
    }

    /// Runs the full signal-integrity test algorithm (Figs 8 and 12)
    /// and returns the report.
    ///
    /// When the self-check finds a localizable boundary break and the
    /// [`ChainPolicy`] allows it, the affected wires are quarantined and
    /// a partial session runs over the healthy ones: only they take the
    /// victim role, and because the survivors may be non-contiguous,
    /// every round scans the full victim-select word instead of riding
    /// the 1-bit rotation. The full [`DegradedOutcome`] is attached to
    /// the report.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a non-positive or non-finite settle
    /// time or timestep; [`CoreError::Infrastructure`] when the pre-session
    /// chain self-check finds the scan infrastructure faulty; substrate
    /// errors are propagated.
    pub fn run_integrity_test(
        &mut self,
        config: &SessionConfig,
    ) -> Result<IntegrityReport, CoreError> {
        let mut run = self.begin_session(config)?;
        for pass in method_passes(config.method, &run.victims) {
            self.run_pass(&mut run, &pass)?;
        }
        Ok(self.finish_session(run, config.method, false))
    }

    /// Session preamble shared by every session: validates the config,
    /// qualifies the chain (applying [`ChainPolicy`] to a damaged one),
    /// selects the solver, resets the TAP and clears the detectors and
    /// the pattern log. The session starts counting TCKs here.
    fn begin_session(&mut self, config: &SessionConfig) -> Result<SessionRun, CoreError> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !(positive(config.settle_time) && positive(config.dt)) {
            return Err(CoreError::config("settle time and dt must be finite and positive"));
        }
        self.reset_pattern_log();
        self.quarantine = None;
        self.degradation_events.clear();
        let qualification = self.qualify_chain()?;
        let degraded = if qualification.healthy() {
            None
        } else {
            Some(self.apply_degradation_policy(qualification)?)
        };
        self.select_sim(config)?;
        self.driver.reset();
        self.clear_detectors()?;
        let (victims, rotate) = self.roster();
        let tck_start = self.driver.tck();
        Ok(SessionRun { victims, rotate, tck_start, degraded, readouts: Vec::new() })
    }

    /// The one pass executor: runs `pass` over the session roster and
    /// appends its records to `run`. Plan first: a batched SoC solves
    /// the transitions the half will apply ([`Soc::solve_plan`]), so
    /// each Update-DR only latches. Then preload, `G-SITEST`, and per
    /// victim a select scan — or, when the roster rotates, a 1-bit
    /// rotation after the first — whose trailing Update-DR fires pattern
    /// 0, and two more Update-DRs. Each read runs right after its
    /// pattern; a read before the stop restores the select word before
    /// the next pattern fires (see `timing::resume_tcks`).
    ///
    /// Returns, per read, whether any detector bit it scanned out was
    /// set.
    fn run_pass(&mut self, run: &mut SessionRun, pass: &HalfPass) -> Result<Vec<bool>, CoreError> {
        let end = pass.stop + 1;
        if self.panel_width > 1 {
            // A plan that cannot be predicted or solved is dropped: its
            // patterns then miss the memo and are solved alone at their
            // Update-DR, so any error is the oracle path's.
            let plan = self.planned_half(pass.initial, &run.victims, run.rotate, end);
            let _ = plan.and_then(|plan| self.solve_plan(&plan));
        }
        // Preload the initial value into every update stage, then enter
        // signal-integrity mode: the pattern stages now drive the bus
        // with the initial value, the state pattern 0 transitions from.
        self.driver.load_instruction("SAMPLE/PRELOAD")?;
        let preload = Logic::from(pass.initial == DriveLevel::High);
        self.driver.scan_dr(&BitVector::filled(self.chain_len(), preload))?;
        self.apply_bus_state()?;
        self.driver.load_instruction("G-SITEST")?;
        self.apply_bus_state()?;
        let mut reads = pass.reads.iter().peekable();
        let mut flags = Vec::with_capacity(pass.reads.len());
        for k in 0..end {
            let (pos, p) = (k / 3, k % 3);
            let victim = run.victims[pos];
            if p > 0 {
                self.driver.pulse_update_dr(1)?;
            } else if pos == 0 || !run.rotate {
                self.driver.scan_dr(&self.victim_select_word(victim)?)?;
            } else {
                self.driver.shift_dr_bits(&BitVector::zeros(1))?;
            }
            self.apply_bus_state()?;
            let Some(&(_, point)) = reads.next_if(|&&(at, _)| at == k) else {
                continue;
            };
            let record = self.readout(point)?;
            flags.push(record.nd.iter().chain(&record.sd).any(|&b| b));
            run.readouts.push(record);
            if matches!(point, ReadoutPoint::Probe { .. }) {
                self.clear_detectors()?;
            }
            if k < pass.stop {
                // Resume: restore the select word under O-SITEST, whose
                // Update-DR leaves the generators untouched (CE gating),
                // then reload G-SITEST.
                self.driver.scan_dr(&self.victim_select_word(victim)?)?;
                self.driver.load_instruction("G-SITEST")?;
            }
        }
        debug_assert!(reads.next().is_none(), "every read sits at or before the stop");
        Ok(flags)
    }

    /// Runs windowed passes of one half, starting from the pass that
    /// tests `windows` and escalating until every failing pattern is
    /// isolated; adds each isolated `(victim, fault)` to `detected` and
    /// returns the number of escalation passes.
    fn run_windows(
        &mut self,
        run: &mut SessionRun,
        initial: DriveLevel,
        mut windows: Vec<(usize, usize)>,
        detected: &mut BTreeSet<(usize, IntegrityFault)>,
    ) -> Result<u64, CoreError> {
        let faults = IntegrityFault::covered_by_initial(initial);
        let mut pass = Some(window_pass(initial, &run.victims, &windows));
        let mut escalations = 0;
        while let Some(current) = pass {
            let flags = self.run_pass(run, &current)?;
            let (next, next_windows, isolated) = escalate(&run.victims, &current, &windows, &flags);
            detected.extend(isolated.into_iter().map(|k| (run.victims[k / 3], faults[k % 3])));
            escalations += u64::from(next.is_some());
            (pass, windows) = (next, next_windows);
        }
        Ok(escalations)
    }

    /// Assembles the report of a finished session. With `fold`, it
    /// first appends a [`ReadoutPoint::Final`] record OR-folded over
    /// every record read: probe records are windowed, not cumulative,
    /// and ORing them recovers the sticky-detector verdicts of the
    /// standard session for the patterns that ran.
    fn finish_session(
        &self,
        run: SessionRun,
        method: ObservationMethod,
        fold: bool,
    ) -> IntegrityReport {
        let mut readouts = run.readouts;
        if fold {
            let or = |bits: fn(&ReadoutRecord) -> &[bool]| -> Vec<bool> {
                (0..self.wires).map(|w| readouts.iter().any(|r| bits(r)[w])).collect()
            };
            let (nd, sd) = (or(|r| &r.nd), or(|r| &r.sd));
            readouts.push(ReadoutRecord { point: ReadoutPoint::Final, nd, sd });
        }
        let tck_used = self.driver.tck() - run.tck_start;
        let report =
            IntegrityReport::new(method, self.wires, readouts, tck_used, self.patterns_applied);
        match run.degraded {
            Some(outcome) => report.with_degradation(outcome),
            None => report,
        }
    }

    /// The policy/localization/quarantine half of the damaged-chain
    /// path, shared by every session: checks [`ChainPolicy`], localizes
    /// the break, installs the quarantine and the concession trail on
    /// `self`, and enforces the coverage floor. Returns the pieces of
    /// the eventual [`DegradedOutcome`].
    fn apply_degradation_policy(
        &mut self,
        qualification: ChainCheckReport,
    ) -> Result<DegradedOutcome, CoreError> {
        let min_coverage = match self.policy {
            ChainPolicy::Strict => {
                return Err(CoreError::Infrastructure(InfrastructureDiagnosis {
                    chain_cells: self.chain_len(),
                    report: qualification,
                }));
            }
            ChainPolicy::Degrade { min_coverage } => min_coverage,
        };
        // Only a boundary-path break is localizable: every other fault
        // class (stuck serial link, bit flips, a wedged TAP, dropped
        // TCK edges) corrupts the BYPASS path the walking-one probe
        // itself travels, so no degraded verdict could be trusted.
        if !qualification
            .anomalies
            .iter()
            .all(|a| matches!(a, ChainAnomaly::BoundaryPathStuck { .. }))
        {
            return Err(CoreError::InsufficientCoverage {
                covered: 0,
                total: IntegrityFault::ALL.len() * self.wires,
                min_coverage,
            });
        }
        let localization = self.localize_break()?;
        let mut events: Vec<DegradationEvent> = qualification
            .anomalies
            .iter()
            .cloned()
            .map(|anomaly| DegradationEvent::AnomalyDetected { anomaly })
            .collect();
        events.push(DegradationEvent::BreakLocalized {
            segment: localization.segment,
            probe_tcks: localization.tck_cost,
        });
        for wire in localization.quarantine.quarantined_wires() {
            events.push(DegradationEvent::WireQuarantined { wire });
            events.push(DegradationEvent::AggressorParked { wire });
            events.push(DegradationEvent::VerdictMasked { wire });
        }
        let coverage = CoverageReport::for_quarantine(self.wires, &localization.quarantine);
        if localization.quarantine.healthy_count() < 2 || !coverage.meets(min_coverage) {
            // Keep the trail: the caller can see what was found and
            // how much coverage the break would have cost.
            self.degradation_events = events;
            return Err(CoreError::InsufficientCoverage {
                covered: coverage.covered_count(),
                total: coverage.total(),
                min_coverage,
            });
        }
        self.quarantine = Some(localization.quarantine.clone());
        self.degradation_events = events.clone();
        Ok(DegradedOutcome { localization, coverage, events })
    }

    /// Runs the walking-one probe (see
    /// [`sint_jtag::integrity::localize_boundary_fault`]) under EXTEST
    /// with SVF recording suspended: each pass drives a one-hot word
    /// from the PGBSCs, loops the driven levels back into the OBSCs at
    /// DC, and reads the capture back through the damaged chain.
    fn localize_break(&mut self) -> Result<FaultLocalization, CoreError> {
        let wires = self.wires;
        let chain_len = self.chain_len();
        let recording = self.driver.suspend_recording();
        let result = (|| -> Result<FaultLocalization, JtagError> {
            self.driver.reset();
            self.driver.load_instruction("EXTEST")?;
            localize_boundary_fault(&mut self.driver, wires, |driver, target| {
                probe_pass(driver, wires, chain_len, target)
            })
        })();
        self.driver.restore_recording(recording);
        Ok(result?)
    }

    /// The adaptive session (ROADMAP item 3): **fault dropping** plus
    /// **escalating read-out localization**.
    ///
    /// Per half (run in `half_order` — the adaptive engine puts the
    /// recently-failing half first), the coverage `ledger` truncates the
    /// schedule after the last still-uncovered `(victim, fault)` pair —
    /// or skips the half outright when everything is covered. The
    /// truncated half runs at method-1 cost with a single probe at its
    /// stop; only if that probe flags does the engine escalate, binary-
    /// searching the flagged pattern window with further probed re-runs
    /// (method 2 → 3 granularity, but only where failures actually
    /// live) until every failing pattern is isolated.
    ///
    /// Probing is trajectory-neutral: read-outs run under `O-SITEST`
    /// whose Update-DRs hold the pattern generators (CE=0), detector
    /// clearing is host-side, and the resume restores the exact select
    /// word — so pattern `k` of a truncated or probed half excites the
    /// bus identically to pattern `k` of the uninterrupted session.
    ///
    /// `detected` holds pattern-identity attributions: `(victim, fault)`
    /// of each isolated failing pattern. Because dropping only ever
    /// removes pairs *already recorded* in the ledger, the union of
    /// `detected` across a campaign equals the exhaustive sweep's union
    /// exactly — the equivalence `tests/props.rs` locks.
    ///
    /// # Errors
    ///
    /// As for [`Soc::run_integrity_test`].
    pub fn run_adaptive_session(
        &mut self,
        config: &SessionConfig,
        ledger: &CoverageLedger,
        half_order: [DriveLevel; 2],
    ) -> Result<AdaptiveSessionOutcome, CoreError> {
        let mut run = self.begin_session(config)?;
        let mut detected = BTreeSet::new();
        let (mut dropped, mut escalations) = (0, 0);
        for initial in half_order {
            let faults = IntegrityFault::covered_by_initial(initial);
            let last = ledger.last_uncovered(&run.victims, &faults);
            let ran = last.map_or(0, |(pos, p)| 3 * pos + p + 1);
            dropped += (3 * run.victims.len() - ran) as u64;
            if ran > 0 {
                escalations += self.run_windows(&mut run, initial, vec![(0, ran - 1)], &mut detected)?;
            }
        }
        Ok(AdaptiveSessionOutcome {
            report: self.finish_session(run, config.method, true),
            detected: detected.into_iter().collect(),
            dropped,
            escalations,
        })
    }

    /// The exhaustive counterpart of [`Soc::run_adaptive_session`]: no
    /// ledger, no truncation, a probe after **every** pattern — full
    /// pattern-identity attribution at exactly method-3 cost (the TCK
    /// equality with [`crate::timing::method_total_tcks`] is asserted
    /// in tests). This is both the adaptive path's correctness oracle
    /// and the cost baseline `BENCH_adaptive.json` measures against.
    ///
    /// # Errors
    ///
    /// As for [`Soc::run_integrity_test`].
    pub fn run_attributed_exhaustive(
        &mut self,
        config: &SessionConfig,
    ) -> Result<AdaptiveSessionOutcome, CoreError> {
        let mut run = self.begin_session(config)?;
        let mut detected = BTreeSet::new();
        for initial in [DriveLevel::Low, DriveLevel::High] {
            // One window per pattern: each probe isolates its own.
            let singletons = (0..3 * run.victims.len()).map(|k| (k, k)).collect();
            self.run_windows(&mut run, initial, singletons, &mut detected)?;
        }
        Ok(AdaptiveSessionOutcome {
            report: self.finish_session(run, config.method, true),
            detected: detected.into_iter().collect(),
            dropped: 0,
            escalations: 0,
        })
    }
}

/// Outcome of one adaptive or attributed-exhaustive session: the
/// report (verdicts OR-folded over every probe window that ran), the
/// pattern-identity detections, and the adaptivity counters the fleet
/// record format carries per trial.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSessionOutcome {
    /// Session report. Its verdicts cover only the patterns that ran:
    /// a fully-dropped pair shows clean here even if a defect persists
    /// — the campaign ledger, not the per-trial report, is the
    /// authority on cumulative coverage.
    pub report: IntegrityReport,
    /// Isolated failing patterns as `(victim, fault)` pairs, sorted
    /// victim-major then [`IntegrityFault::ALL`] order.
    pub detected: Vec<(usize, IntegrityFault)>,
    /// Patterns skipped by ledger-driven dropping (whole halves and
    /// truncated suffixes).
    pub dropped: u64,
    /// Escalation passes beyond the initial probe of each half.
    pub escalations: u64,
}

/// One walking-one probe pass over the DC loop PGBSC → pin → OBSC.
///
/// Scans a word driving only `target` high (all-low for the `None`
/// baseline); EXTEST's trailing Update-DR puts it on the pins. The
/// driven level of each wire is then copied into the receiving OBSC's
/// parallel input — the settled DC value; the analog bus is not the
/// suspect here, the serial chain is — and a zero scan captures and
/// shifts the observations out. Both the stimulus and the observation
/// scans cross the damaged chain, so a break reveals itself as wires
/// that cannot echo their one back.
fn probe_pass(
    driver: &mut JtagDriver,
    wires: usize,
    chain_len: usize,
    target: Option<usize>,
) -> Result<Vec<bool>, JtagError> {
    let mut values = vec![Logic::Zero; chain_len];
    if let Some(w) = target {
        values[w] = Logic::One;
    }
    let word: BitVector = values.iter().rev().copied().collect();
    driver.scan_dr(&word)?;
    let ctrl = driver.chain().device(0)?.cell_control();
    let mut driven = Vec::with_capacity(wires);
    for w in 0..wires {
        driven.push(driver.chain().device(0)?.boundary().cell(w)?.output(&ctrl));
    }
    for (w, level) in driven.into_iter().enumerate() {
        driver
            .chain_mut()
            .device_mut(0)?
            .boundary_mut()
            .cell_mut(wires + w)?
            .set_parallel_input(level);
    }
    let out = driver.scan_dr(&BitVector::zeros(chain_len))?;
    Ok((0..wires)
        .map(|w| out.get(chain_len - 1 - (wires + w)) == Some(Logic::One))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{method_total_tcks, pgbsc_generation_tcks, ChainGeometry};
    use sint_runtime::ToJson;

    fn healthy(n: usize) -> Soc {
        SocBuilder::new(n).build().unwrap()
    }

    #[test]
    fn calibrated_sd_window_is_bitwise_unchanged_by_the_stop() {
        use sint_runtime::prop::{gen, Runner};
        // The calibration reads only the victim's first 50 % crossing,
        // inside the certified prefix: over random RC buses and both
        // default and tighter thresholds, the stopped run calibrates
        // exactly the window the full run does — and it does stop.
        let mut stopped = 0;
        Runner::new("sd_calibration_stop").cases(16).run(
            |rng| {
                let params = BusParams::dsm_bus(gen::usize_in(rng, 2..12))
                    .segments(gen::usize_in(rng, 1..9))
                    .r_per_mm(gen::f64_in(rng, 15.0..60.0))
                    .cc_per_mm(gen::f64_in(rng, 10e-15..80e-15))
                    .driver_r(gen::f64_in(rng, 60.0..240.0));
                (params, gen::f64_in(rng, 0.05..0.3))
            },
            |(params, low)| {
                let bus = params.clone().build().map_err(|e| e.to_string())?;
                let vdd = bus.vdd();
                let nd = NdThresholds { v_low_max: low * vdd, ..NdThresholds::for_vdd(vdd) };
                let mut scratch = PanelScratch::new();
                let full = Horizon::from(2e-9);
                let cut = Horizon { stop: calibration_stop(&nd, vdd), ..full };
                let calibrate = |horizon, scratch: &mut PanelScratch| {
                    calibrate_sd_window(&bus, 2e-12, horizon, scratch).map_err(|e| e.to_string())
                };
                let (want, samples) = calibrate(full, &mut scratch)?;
                let (got, kept) = calibrate(cut, &mut scratch)?;
                stopped += usize::from(kept < samples);
                if got.to_bits() == want.to_bits() {
                    Ok(())
                } else {
                    Err(format!("window {got:e} after {kept} samples vs {want:e} after {samples}"))
                }
            },
        );
        assert!(stopped > 0, "no calibration run stopped early");
    }

    #[test]
    fn builder_validates() {
        assert!(SocBuilder::new(1).build().is_err());
        assert!(SocBuilder::new(2).build().is_ok());
        // Width mismatch between builder and explicit bus params.
        let err = SocBuilder::new(4).bus_params(BusParams::dsm_bus(3)).build();
        assert!(err.is_err());
    }

    fn bad_config_reason(result: Result<Soc, CoreError>) -> String {
        match result {
            Err(CoreError::BadConfig { reason }) => reason,
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_degenerate_widths() {
        let reason = bad_config_reason(SocBuilder::new(0).build());
        assert!(reason.contains("two wires"), "{reason}");
        let reason = bad_config_reason(SocBuilder::new(1).build());
        assert!(reason.contains("two wires"), "{reason}");
    }

    #[test]
    fn builder_rejects_inverted_or_nonfinite_nd_thresholds() {
        let inverted =
            NdThresholds { v_low_max: 1.5, v_high_min: 0.3, overshoot_margin: 0.2 };
        let reason = bad_config_reason(SocBuilder::new(3).nd_thresholds(inverted).build());
        assert!(reason.contains("inverted"), "{reason}");

        let nan = NdThresholds { v_low_max: f64::NAN, v_high_min: 1.4, overshoot_margin: 0.2 };
        let reason = bad_config_reason(SocBuilder::new(3).nd_thresholds(nan).build());
        assert!(reason.contains("finite"), "{reason}");

        let negative =
            NdThresholds { v_low_max: -0.1, v_high_min: 1.4, overshoot_margin: 0.2 };
        let reason = bad_config_reason(SocBuilder::new(3).nd_thresholds(negative).build());
        assert!(reason.contains("non-negative"), "{reason}");
    }

    #[test]
    fn builder_rejects_bad_sd_windows() {
        for bad in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            let reason = bad_config_reason(SocBuilder::new(3).sd_window(bad).build());
            assert!(reason.contains("SD window"), "{bad}: {reason}");
        }
    }

    #[test]
    fn healthy_soc_passes_infrastructure_check() {
        let mut soc = healthy(3);
        let report = soc.check_infrastructure().unwrap();
        assert!(report.healthy());
        assert_eq!(report.devices, 1);
    }

    #[test]
    fn scan_fault_refuses_the_session_with_a_diagnosis() {
        use sint_jtag::fault::ScanFault;
        let mut soc =
            SocBuilder::new(3).scan_fault(ScanFault::StuckAtZero { link: 0 }).build().unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        match err {
            CoreError::Infrastructure(diag) => {
                assert_eq!(diag.chain_cells, 6);
                assert!(!diag.report.healthy());
                assert!(!diag.report.anomalies.is_empty());
            }
            other => panic!("expected Infrastructure, got {other:?}"),
        }
    }

    #[test]
    fn infrastructure_check_does_not_pollute_svf_recordings() {
        // The self-check runs inside the recorded session; its scans
        // must be suspended so the SVF program is exactly the session:
        // its statement count stays the session's own op count, and two
        // identically built SoCs record identical programs.
        let opts = sint_jtag::svf::SvfOptions::default();
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let (report, svf) = healthy(3).run_integrity_test_with_svf(&cfg, &opts).unwrap();
        let scans = svf.lines().filter(|l| l.starts_with("SDR") || l.starts_with("SIR")).count();
        // Per half: 1 preload SIR+SDR, 1 G-SITEST SIR, 1 select SDR and
        // (n-1) rotation SDRs; plus the final O-SITEST SIR + 2 SDRs.
        // The self-check's own BYPASS scans must not appear on top.
        let n = 3;
        assert_eq!(scans, 2 * (2 + 1 + n) + 3, "self-check scans leaked into the SVF");
        assert!(report.tck_used > 0);
        let (_, svf_again) = healthy(3).run_integrity_test_with_svf(&cfg, &opts).unwrap();
        assert_eq!(svf, svf_again);
    }

    #[test]
    fn chain_layout() {
        let soc = SocBuilder::new(5).extra_cells(7).build().unwrap();
        assert_eq!(soc.chain_len(), 17);
        assert_eq!(soc.wires(), 5);
        assert_eq!(soc.extra_cells(), 7);
    }

    #[test]
    fn healthy_bus_passes_method1() {
        let mut soc = healthy(4);
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(
            !report.any_violation(),
            "healthy bus must be clean: {report}"
        );
        assert_eq!(report.patterns_applied, 2 * 4 * 3, "3 patterns per victim per half");
    }

    #[test]
    fn coupling_defect_detected_as_noise() {
        let mut soc = SocBuilder::new(4).coupling_defect(2, 6.0).build().unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(report.wire(2).noise, "boosted coupling must latch the victim's ND: {report}");
    }

    #[test]
    fn open_defect_detected_as_skew() {
        let mut soc = SocBuilder::new(4).open_defect(1, 3000.0).build().unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(report.wire(1).skew, "resistive open must latch the victim's SD: {report}");
    }

    #[test]
    fn generation_tcks_match_closed_form() {
        // Measure only the generation part by running method 1 and
        // subtracting the single final read-out.
        let n = 4;
        let m = 3;
        let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        let g = ChainGeometry::new(n, m);
        let expected = method_total_tcks(g, ObservationMethod::Once);
        assert_eq!(report.tck_used, expected, "driver TCKs must equal the Table 5/6 formulas");
        let _ = pgbsc_generation_tcks(g);
    }

    #[test]
    fn method_tcks_match_closed_form_for_all_methods() {
        for method in [
            ObservationMethod::Once,
            ObservationMethod::PerInitialValue,
            ObservationMethod::PerPattern,
        ] {
            let n = 3;
            let m = 2;
            let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
            let report = soc.run_integrity_test(&SessionConfig::method(method)).unwrap();
            let g = ChainGeometry::new(n, m);
            assert_eq!(report.tck_used, method_total_tcks(g, method), "{method}");
        }
    }

    #[test]
    fn method3_attributes_fault_class() {
        // Boosted coupling on wire 1 of 3: the per-pattern read-outs
        // must first show wire 1's ND latching during one of wire 1's
        // glitch patterns.
        let mut soc = SocBuilder::new(3).coupling_defect(1, 6.0).build().unwrap();
        let report = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::PerPattern))
            .unwrap();
        let first_hit = report
            .readouts
            .iter()
            .find(|r| r.nd[1])
            .expect("defect must be seen in some read-out");
        match first_hit.point {
            ReadoutPoint::AfterPattern { victim, fault, .. } => {
                assert_eq!(victim, 1, "first ND hit attributed to wire 1's own round");
                assert!(fault.is_glitch(), "coupling defect is a noise fault, got {fault}");
            }
            other => panic!("unexpected read-out point {other:?}"),
        }
    }

    #[test]
    fn conventional_generation_matches_closed_form_and_is_slower() {
        use crate::timing::conventional_generation_tcks;
        let n = 4;
        let m = 2;
        let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
        let (tck_conv, patterns) = soc.run_conventional_generation().unwrap();
        let g = ChainGeometry::new(n, m);
        assert_eq!(tck_conv, conventional_generation_tcks(g));
        assert!(patterns >= 6 * n, "every fault pair applies at least one transition");
        // And it must dwarf the PGBSC campaign on the same geometry.
        assert!(tck_conv > pgbsc_generation_tcks(g));
    }

    #[test]
    fn sim_cache_reuses_factored_solvers() {
        let mut soc = healthy(3);
        let built = Arc::clone(&soc.sim);
        let default_cfg = SessionConfig::method(ObservationMethod::Once);
        // Same dt as build time: the factored solver is reused as-is.
        soc.run_integrity_test(&default_cfg).unwrap();
        assert!(Arc::ptr_eq(&built, &soc.sim), "default dt must not refactor");
        // New dt: factored once, cached.
        let fine = SessionConfig { dt: 1e-12, ..default_cfg };
        soc.run_integrity_test(&fine).unwrap();
        let fine_sim = Arc::clone(&soc.sim);
        assert!(!Arc::ptr_eq(&built, &fine_sim));
        // Alternating back and forth hits the cache both ways.
        soc.run_integrity_test(&default_cfg).unwrap();
        assert!(Arc::ptr_eq(&built, &soc.sim), "original solver came from cache");
        soc.run_integrity_test(&fine).unwrap();
        assert!(Arc::ptr_eq(&fine_sim, &soc.sim), "fine-dt solver came from cache");
        assert_eq!(soc.sim_cache.len(), 2, "exactly one factorisation per distinct dt");
    }

    #[test]
    fn healthy_session_attaches_no_degradation() {
        let mut soc = healthy(3);
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(report.degradation().is_none());
        assert!(soc.degradation_events().is_empty());
        assert!(!report.to_json().render().contains("degradation"));
    }

    #[test]
    fn degraded_session_quarantines_the_broken_wire_and_reports_coverage() {
        // The acceptance scenario: an 8-wire bus whose boundary shift
        // path breaks after PGBSC cell 6 (stuck at 0). Wire 7's PGBSC
        // is uncontrollable; everything else survives. A Degrade
        // session must quarantine wire 7, cover 42 of the 48 MA faults
        // and surface every concession.
        let mut soc = SocBuilder::new(8)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 6, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.8 })
            .build()
            .unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        let outcome = report.degradation().expect("degraded session attaches its outcome");
        assert_eq!(outcome.quarantine().quarantined_wires(), vec![7]);
        assert_eq!(outcome.localization.segment, Some(6));
        assert_eq!(outcome.coverage.covered_count(), 42);
        assert_eq!(outcome.coverage.total(), 48);
        assert_eq!(outcome.coverage.lost_count(), 6);
        let kinds: Vec<&str> = outcome.events.iter().map(|e| e.kind()).collect();
        for kind in [
            "anomaly_detected",
            "break_localized",
            "wire_quarantined",
            "aggressor_parked",
            "verdict_masked",
        ] {
            assert!(kinds.contains(&kind), "{kind} missing from {kinds:?}");
        }
        assert_eq!(soc.degradation_events(), &outcome.events[..]);
        assert!(!report.any_violation(), "healthy wires on a healthy bus stay clean: {report}");
        for r in &report.readouts {
            assert!(!r.nd[7] && !r.sd[7], "quarantined wire's verdicts must be masked");
        }
        let j = report.to_json().render();
        assert!(j.contains(r#""degradation""#), "{j}");
        assert!(j.contains(r#""coverage""#), "{j}");
    }

    #[test]
    fn degraded_session_still_finds_defects_on_healthy_wires() {
        // Quarantining wire 7 must not blind the session to a real bus
        // defect among the survivors.
        let mut soc = SocBuilder::new(8)
            .coupling_defect(2, 6.0)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 6, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.8 })
            .build()
            .unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(report.degradation().is_some());
        assert!(report.wire(2).noise, "defect on a healthy wire must still latch: {report}");
    }

    #[test]
    fn strict_policy_refuses_a_boundary_break() {
        let mut soc = SocBuilder::new(4)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 2, level: true })
            .build()
            .unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        match err {
            CoreError::Infrastructure(diag) => {
                assert!(diag
                    .report
                    .anomalies
                    .iter()
                    .any(|a| matches!(a, ChainAnomaly::BoundaryPathStuck { .. })));
            }
            other => panic!("expected Infrastructure, got {other:?}"),
        }
    }

    #[test]
    fn degrade_cannot_rescue_a_serial_link_fault() {
        // A stuck serial link corrupts the very path the localization
        // probe travels: even the laxest Degrade policy must refuse.
        let mut soc = SocBuilder::new(3)
            .scan_fault(ScanFault::StuckAtZero { link: 0 })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.0 })
            .build()
            .unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        match err {
            CoreError::InsufficientCoverage { covered, total, .. } => {
                assert_eq!(covered, 0);
                assert_eq!(total, 18);
            }
            other => panic!("expected InsufficientCoverage, got {other:?}"),
        }
    }

    #[test]
    fn coverage_floor_refuses_a_deep_break() {
        // Break after PGBSC cell 0 of a 4-wire bus: only wire 0
        // survives — below the two-wire minimum regardless of policy.
        let mut soc = SocBuilder::new(4)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 0, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.0 })
            .build()
            .unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        assert!(matches!(err, CoreError::InsufficientCoverage { .. }), "{err:?}");
        // The trail still documents what the probe found.
        assert!(!soc.degradation_events().is_empty());

        // A floor above the surviving 42/48 also refuses.
        let mut soc = SocBuilder::new(8)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 6, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.9 })
            .build()
            .unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        match err {
            CoreError::InsufficientCoverage { covered, total, min_coverage } => {
                assert_eq!((covered, total), (42, 48));
                assert!((min_coverage - 0.9).abs() < 1e-12);
            }
            other => panic!("expected InsufficientCoverage, got {other:?}"),
        }
    }

    #[test]
    fn degraded_per_pattern_session_attributes_to_healthy_victims_only() {
        let mut soc = SocBuilder::new(4)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 2, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.5 })
            .build()
            .unwrap();
        let report = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::PerPattern))
            .unwrap();
        let outcome = report.degradation().unwrap();
        assert_eq!(outcome.quarantine().quarantined_wires(), vec![3]);
        // 2 halves x 3 healthy victims x 3 patterns.
        assert_eq!(report.readouts.len(), 18);
        for r in &report.readouts {
            match r.point {
                ReadoutPoint::AfterPattern { victim, .. } => {
                    assert_ne!(victim, 3, "quarantined wire must never take the victim role")
                }
                other => panic!("unexpected read-out point {other:?}"),
            }
        }
    }

    #[test]
    fn precancelled_token_aborts_with_deadline_error() {
        let mut soc = healthy(3);
        let token = CancelToken::new();
        token.cancel();
        soc.set_cancel_token(Some(token));
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "{err:?}");
        // Clearing the token restores normal operation on the same SoC.
        soc.set_cancel_token(None);
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(!report.any_violation());
    }

    #[test]
    fn batched_session_is_byte_identical_to_scalar_oracle() {
        // The same defected SoC at panel widths 1 (scalar oracle), 3
        // (ragged tails) and 8 (default) must produce identical
        // reports for every observation method — detector verdicts,
        // read-out order, TCKs and pattern counts. The scalar oracle
        // solves every pattern alone; a batched session's plans solve
        // the n + 1 step-basis columns and every pattern hits the memo.
        for method in [
            ObservationMethod::Once,
            ObservationMethod::PerInitialValue,
            ObservationMethod::PerPattern,
        ] {
            let cfg = SessionConfig::method(method);
            let run = |width: usize| {
                let mut soc = SocBuilder::new(4)
                    .coupling_defect(2, 6.0)
                    .panel_width(width)
                    .build()
                    .unwrap();
                let report = soc.run_integrity_test(&cfg).unwrap();
                let stats = soc.memo_stats();
                let (hits, unplanned) = if width == 1 { (0, 6 * 4) } else { (6 * 4, 0) };
                assert_eq!((stats.hits, stats.unplanned), (hits, unplanned), "width {width}");
                let columns = if width == 1 { 6 * 4 } else { 4 + 1 };
                assert_eq!(soc.transients_run(), columns, "width {width} ({method})");
                (report, soc.patterns_applied)
            };
            let oracle = run(1);
            for width in [3, DEFAULT_PANEL_WIDTH, 64] {
                assert_eq!(run(width), oracle, "panel width {width} diverged ({method})");
            }
        }
    }

    fn coarse(n: usize) -> SocBuilder {
        SocBuilder::new(n).bus_params(BusParams::dsm_bus(n).segments(2))
    }

    fn coarse_session(method: ObservationMethod) -> SessionConfig {
        SessionConfig { dt: 10e-12, ..SessionConfig::method(method) }
    }

    #[test]
    fn every_distinct_pattern_is_solved_once_and_no_lookahead_is_wasted() {
        for method in [
            ObservationMethod::Once,
            ObservationMethod::PerInitialValue,
            ObservationMethod::PerPattern,
        ] {
            let mut soc = coarse(6).extra_cells(3).coupling_defect(2, 6.0).build().unwrap();
            let report = soc.run_integrity_test(&coarse_session(method)).unwrap();
            let stats = soc.memo_stats();
            // One panel: U and the six single-rise columns, which fill
            // the memo for all 36 patterns of both halves, whatever the
            // read-out cadence; no column goes unused.
            assert_eq!(soc.transients_run(), 6 + 1, "{method}: n + 1 basis columns");
            assert_eq!(stats.basis_columns, 6 + 1, "{method}");
            assert_eq!(stats.guard_fallbacks, 0, "{method}");
            // The low half's plan covers both halves: every applied
            // pattern is latched from the memo, none is solved alone.
            assert_eq!((stats.hits, stats.unplanned), (36, 0), "{method}");
            assert!(report.wire(2).noise);
        }
    }

    #[test]
    fn a_threshold_on_a_sample_sends_the_pair_to_a_direct_solve() {
        // Put the ND low threshold exactly on the peak of wire 1's Pg
        // glitch: the recombined waveform cannot vouch for that
        // comparison, so the pair is solved directly, and the session
        // still matches the scalar oracle.
        let cfg = coarse_session(ObservationMethod::PerPattern);
        let bus = coarse(4).build().unwrap().bus().clone();
        let pair = fault_pair(4, 1, IntegrityFault::Pg).unwrap();
        let sim = TransientSim::new(&bus, cfg.dt).unwrap();
        let waves =
            sim.run_pairs_cancellable(&[pair], cfg.settle_time, &mut PanelScratch::new(), None);
        let peak = waves.unwrap().wire(0, 1).iter().copied().fold(0.0, f64::max);
        let nd = NdThresholds { v_low_max: peak, ..NdThresholds::for_vdd(bus.vdd()) };
        let run = |width: usize| {
            let mut soc = coarse(4).nd_thresholds(nd).panel_width(width).build().unwrap();
            let report = soc.run_integrity_test(&cfg).unwrap();
            (report, soc.memo_stats(), soc.transients_run())
        };
        let (oracle, _, _) = run(1);
        let (report, stats, columns) = run(DEFAULT_PANEL_WIDTH);
        assert_eq!(report, oracle);
        assert!(stats.guard_fallbacks >= 1, "{stats:?}");
        assert_eq!(columns as u64, stats.basis_columns + stats.guard_fallbacks);
        assert_eq!(stats.basis_columns, 4 + 1);
    }

    #[test]
    fn non_finite_session_times_are_refused_before_the_self_check() {
        let base = SessionConfig::method(ObservationMethod::Once);
        for width in [1, DEFAULT_PANEL_WIDTH] {
            for bad in [f64::NAN, f64::INFINITY] {
                for cfg in [
                    SessionConfig { settle_time: bad, ..base },
                    SessionConfig { dt: bad, ..base },
                ] {
                    let mut soc = SocBuilder::new(3).panel_width(width).build().unwrap();
                    let tck = soc.tck();
                    let reason = match soc.run_integrity_test(&cfg) {
                        Err(CoreError::BadConfig { reason }) => reason,
                        other => panic!("width {width}, {cfg:?}: expected BadConfig, got {other:?}"),
                    };
                    assert!(reason.contains("finite"), "{reason}");
                    assert_eq!(soc.tck(), tck, "width {width}, {cfg:?}: the chain was probed");
                }
            }
        }
    }

    #[test]
    fn repeat_sessions_replay_the_memo_without_solving() {
        let mut soc = coarse(4).coupling_defect(1, 6.0).build().unwrap();
        let cfg = coarse_session(ObservationMethod::PerPattern);
        let first = soc.run_integrity_test(&cfg).unwrap();
        let solved = soc.transients_run();
        let second = soc.run_integrity_test(&cfg).unwrap();
        assert_eq!(first, second);
        assert_eq!(soc.transients_run(), solved, "every pair was memoized");
        // A different settle time is a different response: solved anew.
        let longer = SessionConfig { settle_time: 2.0 * cfg.settle_time, ..cfg };
        soc.run_integrity_test(&longer).unwrap();
        assert_eq!(soc.transients_run(), 2 * solved);
    }

    #[test]
    fn lookahead_panels_fail_exactly_like_the_scalar_oracle() {
        // A pre-cancelled token fails the first half's plan solve, whose
        // panel carries columns no pattern has reached yet: the plan is
        // dropped, and the first pattern, solved alone, reports the
        // error exactly as the scalar path does.
        let cfg = coarse_session(ObservationMethod::PerPattern);
        let fail = |width: usize| {
            let mut soc = coarse(4).panel_width(width).build().unwrap();
            let token = CancelToken::new();
            token.cancel();
            soc.set_cancel_token(Some(token));
            let err = soc.run_integrity_test(&cfg).unwrap_err();
            assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "{err:?}");
            (format!("{err:?}"), soc.transients_run())
        };
        assert_eq!(fail(DEFAULT_PANEL_WIDTH), (fail(1).0, 0));
    }

    #[test]
    fn batched_conventional_generation_matches_scalar() {
        let run = |width: usize| {
            let mut soc = SocBuilder::new(4).panel_width(width).build().unwrap();
            let outcome = soc.run_conventional_generation().unwrap();
            (outcome, soc.memo_stats().unplanned)
        };
        let ((batched, unplanned), (scalar, _)) = (run(DEFAULT_PANEL_WIDTH), run(1));
        assert_eq!(batched, scalar);
        assert_eq!(unplanned, 0, "the plan covers every scanned transition");
    }

    #[test]
    fn batched_session_still_honors_cancellation() {
        let mut soc = SocBuilder::new(3).build().unwrap();
        assert_eq!(soc.panel_width(), DEFAULT_PANEL_WIDTH);
        let token = CancelToken::new();
        token.cancel();
        soc.set_cancel_token(Some(token));
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "{err:?}");
        soc.set_cancel_token(None);
        // A dropped plan leaves nothing behind: no column, no memo entry.
        assert_eq!((soc.transients_run(), soc.memo_stats()), (0, MemoStats::default()));
        assert!(soc.memo.is_empty());
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(!report.any_violation());
        assert_eq!(soc.transients_run(), 3 + 1, "the next session plans afresh");
    }

    #[test]
    fn detectors_accumulate_across_readouts() {
        let mut soc = SocBuilder::new(3).coupling_defect(1, 6.0).build().unwrap();
        let report = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::PerInitialValue))
            .unwrap();
        assert_eq!(report.readouts.len(), 2);
        let last = report.readouts.last().unwrap();
        assert!(last.nd[1], "final read-out is cumulative");
    }

    #[test]
    fn attributed_exhaustive_costs_exactly_method3() {
        // Probes after every pattern are the same read-out + resume
        // cadence as method 3, so the attributed oracle's TCK count
        // must equal the Table 6 formula to the cycle.
        for (n, m) in [(3usize, 2usize), (4, 0), (5, 7)] {
            let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
            let cfg = SessionConfig::method(ObservationMethod::PerPattern);
            let outcome = soc.run_attributed_exhaustive(&cfg).unwrap();
            let g = ChainGeometry::new(n, m);
            assert_eq!(
                outcome.report.tck_used,
                method_total_tcks(g, ObservationMethod::PerPattern),
                "n={n} m={m}"
            );
            assert!(outcome.detected.is_empty(), "healthy bus detects nothing");
            assert_eq!((outcome.dropped, outcome.escalations), (0, 0));
        }
    }

    #[test]
    fn adaptive_clean_session_costs_near_method1() {
        // An empty ledger on a healthy bus: each half runs in full with
        // one trailing probe and never escalates — generation plus two
        // read-outs, no resumes (each probe is its half's last action).
        let (n, m) = (4usize, 3usize);
        let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let ledger = CoverageLedger::new(n);
        let outcome = soc
            .run_adaptive_session(&cfg, &ledger, [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        let g = ChainGeometry::new(n, m);
        let expected =
            crate::timing::pgbsc_generation_tcks(g) + 2 * crate::timing::readout_tcks(g);
        assert_eq!(outcome.report.tck_used, expected);
        assert!(outcome.detected.is_empty());
        assert_eq!(outcome.escalations, 0);
        assert_eq!(outcome.dropped, 0);
        assert!(!outcome.report.any_violation());
    }

    #[test]
    fn adaptive_detects_what_the_oracle_detects() {
        let build = || {
            SocBuilder::new(4)
                .coupling_defect(2, 6.0)
                .open_defect(1, 3000.0)
                .build()
                .unwrap()
        };
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let oracle = build().run_attributed_exhaustive(&cfg).unwrap();
        assert!(!oracle.detected.is_empty(), "defects must be seen by the oracle");
        let ledger = CoverageLedger::new(4);
        let adaptive = build()
            .run_adaptive_session(&cfg, &ledger, [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        assert_eq!(adaptive.detected, oracle.detected);
        assert!(adaptive.escalations > 0, "failing halves must escalate");
        // With defects this dense on a 4-wire bus the escalating
        // re-runs cost more than per-pattern probing — the adaptive
        // win is on clean/sparse trials (see the clean-session test and
        // BENCH_adaptive.json), not here; this test locks *equality*.
    }

    #[test]
    fn adaptive_drops_covered_pairs_and_skips_covered_halves() {
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let oracle = SocBuilder::new(4)
            .coupling_defect(2, 6.0)
            .build()
            .unwrap()
            .run_attributed_exhaustive(&cfg)
            .unwrap();
        // Seed a ledger that already covers everything the defect can
        // show: the adaptive session then detects nothing new, drops
        // the covered suffixes, and re-excites only what's left.
        let mut ledger = CoverageLedger::new(4);
        for &(victim, fault) in &oracle.detected {
            ledger.record(victim, fault);
        }
        let mut soc = SocBuilder::new(4).coupling_defect(2, 6.0).build().unwrap();
        let adaptive = soc
            .run_adaptive_session(&cfg, &ledger, [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        assert!(adaptive.detected.is_empty(), "nothing new: {:?}", adaptive.detected);
        assert!(adaptive.dropped > 0);
        // A fully-covered ledger skips both halves outright.
        let mut full = CoverageLedger::new(4);
        for victim in 0..4 {
            for fault in IntegrityFault::ALL {
                full.record(victim, fault);
            }
        }
        let mut soc = SocBuilder::new(4).coupling_defect(2, 6.0).build().unwrap();
        let skipped = soc
            .run_adaptive_session(&cfg, &full, [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        assert_eq!(skipped.dropped, 2 * 3 * 4, "both halves dropped whole");
        assert_eq!(skipped.report.patterns_applied, 0);
        assert!(skipped.detected.is_empty());
        assert!(!skipped.report.any_violation(), "synthesized record is all-clear");
    }

    #[test]
    fn adaptive_half_order_does_not_change_detections() {
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let ledger = CoverageLedger::new(4);
        let run = |order| {
            SocBuilder::new(4)
                .coupling_defect(2, 6.0)
                .build()
                .unwrap()
                .run_adaptive_session(&cfg, &ledger, order)
                .unwrap()
        };
        let low_first = run([DriveLevel::Low, DriveLevel::High]);
        let high_first = run([DriveLevel::High, DriveLevel::Low]);
        assert_eq!(low_first.detected, high_first.detected, "halves are independent");
    }

    #[test]
    fn adaptive_session_respects_quarantine() {
        use sint_jtag::fault::ScanFault;
        let build = || {
            SocBuilder::new(4)
                .coupling_defect(2, 6.0)
                .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 2, level: false })
                .chain_policy(ChainPolicy::Degrade { min_coverage: 0.5 })
                .build()
                .unwrap()
        };
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let oracle = build().run_attributed_exhaustive(&cfg).unwrap();
        let adaptive = build()
            .run_adaptive_session(&cfg, &CoverageLedger::new(4), [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        assert_eq!(adaptive.detected, oracle.detected);
        let degraded = adaptive.report.degradation().expect("session ran degraded");
        let quarantined = degraded.quarantine();
        assert_eq!(quarantined.quarantined_wires(), vec![3]);
        for &(victim, _) in &adaptive.detected {
            assert!(!quarantined.is_quarantined(victim), "quarantined victim excited");
        }
    }

    /// The reads and the resumes (reads before their pass's stop) of
    /// `passes`.
    fn read_counts(passes: &[HalfPass]) -> (u64, u64) {
        let reads = passes.iter().map(|p| p.reads.len() as u64).sum();
        let resumes = passes
            .iter()
            .map(|p| p.reads.iter().filter(|&&(k, _)| k < p.stop).count() as u64)
            .sum();
        (reads, resumes)
    }

    #[test]
    fn pass_builders_hold_the_closed_form_read_out_counts() {
        use crate::timing::{readout_count, resume_count};
        for n in 2..=40 {
            let all: Vec<usize> = (0..n).collect();
            // A quarantined roster: every third wire lost.
            let healthy: Vec<usize> = (0..n).filter(|w| w % 3 != 2).collect();
            for victims in [&all, &healthy] {
                let m = victims.len();
                for method in [
                    ObservationMethod::Once,
                    ObservationMethod::PerInitialValue,
                    ObservationMethod::PerPattern,
                ] {
                    let passes = method_passes(method, victims);
                    let expected = (readout_count(method, m), resume_count(method, m));
                    assert_eq!(read_counts(&passes), expected, "n={n} m={m} {method}");
                }
                let singletons: Vec<(usize, usize)> = (0..3 * m).map(|k| (k, k)).collect();
                let exhaustive = [DriveLevel::Low, DriveLevel::High]
                    .map(|initial| window_pass(initial, victims, &singletons));
                let per_pattern = ObservationMethod::PerPattern;
                assert_eq!(read_counts(&exhaustive), (6 * m as u64, resume_count(per_pattern, m)));
                let mut probes = exhaustive.iter().flat_map(|p| &p.reads);
                assert!(probes.all(|(k, r)| matches!(r, ReadoutPoint::Probe { victim, .. }
                    if *victim == victims[k / 3])));
            }
        }
    }

    #[test]
    fn escalation_isolates_exactly_the_failing_patterns() {
        use sint_runtime::prop::{gen, Runner};
        // No simulator: every pass re-fires patterns 0..=stop, so a
        // probe flags when a failing pattern fired since the previous
        // probe of its pass.
        Runner::new("escalation_isolates_exactly_the_failing_patterns").cases(400).run(
            |rng| {
                let n = gen::usize_in(rng, 2..12);
                let stop = gen::usize_in(rng, 0..3 * n);
                let sparsity = gen::usize_in(rng, 1..6);
                let failing: BTreeSet<usize> =
                    (0..=stop).filter(|_| gen::usize_in(rng, 0..sparsity) == 0).collect();
                (n, stop, failing)
            },
            |(n, stop, failing)| {
                let victims: Vec<usize> = (0..*n).collect();
                let mut windows = vec![(0, *stop)];
                let mut pass = Some(window_pass(DriveLevel::Low, &victims, &windows));
                let mut isolated = BTreeSet::new();
                while let Some(current) = pass {
                    let ascending = current.reads.windows(2).all(|w| w[0].0 < w[1].0);
                    if !ascending || current.reads.last().map(|r| r.0) != Some(current.stop) {
                        return Err(format!("malformed pass {current:?}"));
                    }
                    let mut unfired = 0;
                    let flags: Vec<bool> = current
                        .reads
                        .iter()
                        .map(|&(k, _)| {
                            let fired = failing.range(unfired..=k).next().is_some();
                            unfired = k + 1;
                            fired
                        })
                        .collect();
                    let (next, next_windows, found) =
                        escalate(&victims, &current, &windows, &flags);
                    isolated.extend(found);
                    (pass, windows) = (next, next_windows);
                }
                if isolated == *failing {
                    Ok(())
                } else {
                    Err(format!("isolated {isolated:?}"))
                }
            },
        );
    }

    #[test]
    fn plan_method_uses_chain_geometry() {
        let soc = SocBuilder::new(8).extra_cells(10).build().unwrap();
        let geometry = ChainGeometry::new(soc.wires(), soc.extra_cells());
        let sparse = crate::cost::MethodPlanner::new(0.01).unwrap();
        assert_eq!(sparse.choose(geometry), ObservationMethod::Once);
        let dense = crate::cost::MethodPlanner::new(1.0).unwrap();
        assert_eq!(dense.choose(geometry), ObservationMethod::PerPattern);
    }
}
