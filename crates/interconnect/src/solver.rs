//! Transient nodal simulation of a coupled bus.
//!
//! Discretisation: each wire contributes `segments` internal nodes. The
//! driver is a Thevenin source behind the driver resistance (plus
//! segment 0's series impedance) into node 0; consecutive nodes are
//! joined by the segment impedance; every node carries its share of
//! ground capacitance plus coupling capacitance to the same-position
//! node of each adjacent wire; the last node additionally carries the
//! receiver load.
//!
//! Integration: **backward Euler**, with the system matrix factored
//! once per (topology, timestep) and reused every step — the same trick
//! production fast-SPICE engines use for fixed-step sections. BE is
//! unconditionally stable, which matters because segment RC time
//! constants are ~10³ shorter than the simulated window.
//!
//! Two formulations are selected automatically:
//!
//! * **Pure RC** (`l_per_mm == 0`, the default): classic nodal analysis
//!   with only node voltages as unknowns —
//!   `(G + C/h)·v = (C/h)·v_prev + b(t)`.
//! * **RLC** (any series inductance): *augmented MNA* with one extra
//!   unknown per inductive branch current. Branch `a→b` with series
//!   `R`, `L` contributes the row `v_a − v_b − (R + L/h)·i = −(L/h)·i_prev`
//!   and `±i` to the two KCL rows. This is what lets the bus ring and
//!   overshoot — the physics behind the paper's P̄g/N̄g faults.
//!
//! # The banded fast path
//!
//! Coupling is strictly nearest-neighbour: a node talks to the same
//! segment of the adjacent wires and to the adjacent segments of its
//! own wire. Numbering the unknowns along the bus's **shorter axis**
//! therefore makes the MNA matrix banded with half-bandwidth
//! `min(wires, segments)` (RC; about twice that for RLC, whose branch
//! current sits right after its sink node): **segment-major** (all of
//! segment 0's nodes first, then segment 1's, …) when
//! `wires ≤ segments`, **wire-major** otherwise. The default engine
//! assembles [`crate::linalg::Banded`] matrices under that numbering:
//! factorisation drops from O(N³) to O(N·b²) and each timestep's solve
//! from O(N²) to O(N·b). The history product runs over the history
//! matrix's three nonzero diagonals only ([`crate::linalg::Diagonals`]),
//! O(N) at any bandwidth. Every step is also allocation-free —
//! history multiply, source stamp and in-place solve all reuse a
//! [`PanelScratch`] that callers thread through the run entry point to
//! amortise across a campaign.
//! The dense engine stays compiled in as a runtime-selectable reference
//! ([`SolverBackend::Dense`]) for two uses only: the property suite's
//! oracle, which pins the two engines together to ≤ 1e-9 V, and the
//! `bench_solver` baseline rows. No production path selects it.
//!
//! # Entry point
//!
//! A [`TransientSim`] runs vector pairs through one method,
//! [`TransientSim::run_pairs_cancellable`]: a batch of any width
//! (one pattern is a one-column batch) advanced as multi-RHS lane
//! blocks over a [`Horizon`], with an optional [`CancelToken`],
//! returning the receiver-end traces as a [`WavePanel`] — the ends the
//! ND/SD detectors observe.
//! A private scalar timestep loop remains the dense engine, the
//! divergence replay and the unit tests' oracle; the lane blocks are
//! bitwise identical to it. The step count comes from one checked
//! time-axis helper, so a non-finite or oversized duration is a typed
//! [`InterconnectError::BadTimeAxis`].
//!
//! # Certified early stop
//!
//! A run's [`Horizon`] may carry a [`StopRule`]: then each pattern's
//! trace ends as soon as passivity proves that no later receiver sample
//! leaves a band of `tolerance` volts around its final DC level. Once
//! every driver ramp has ended, the error `e_k = v_k − DC(after)` of a
//! pure-RC bus obeys `(G + C/h)·e_k = (C/h)·e_{k−1}` with `G` and `C`
//! symmetric, so `‖e_k‖_C = sqrt(e_kᵀ·C·e_k)` never grows; and every
//! receiver obeys `|e_i| ≤ sqrt((C⁻¹)_ii)·‖e_k‖_C` (Cauchy–Schwarz). A
//! lane block checks that bound every [`STOP_CHECK_INTERVAL`] steps with
//! one extra history multiply, and ends once all its lanes are
//! certified and long enough for the rule. A stopped trace is a bitwise
//! prefix of the full one. RLC buses, buses with a node of zero ground
//! capacitance and the dense engine ignore the rule and run the full
//! window (DESIGN.md §6h).

use crate::drive::{Stimulus, VectorPair};
use crate::error::InterconnectError;
use crate::linalg::{Banded, BandedLu, Diagonals, LuFactors, Matrix};
use crate::params::Bus;
use sint_runtime::cancel::CancelToken;
use std::sync::OnceLock;

/// How many timesteps run between cancellation-token deadline polls on
/// the cancellable entry points. The poll is one `Instant::now()`
/// comparison; at this stride its cost is far below 1% of the banded
/// solve work per interval, while a wedged run is still cut off within
/// a few microseconds of wall clock.
pub const CANCEL_CHECK_INTERVAL: usize = 32;

/// How many timesteps run between the certified-stop checks of a run
/// with a [`StopRule`]. A check costs one history multiply per lane
/// block, about a tenth of a timestep's solve, so it adds below 1% at
/// this stride while a stop lands within 16 steps of its certificate.
pub const STOP_CHECK_INTERVAL: usize = 16;

/// Timesteps the waveform staging ring of a lane block holds between
/// flushes into the [`WavePanel`]: a multiple of [`STOP_CHECK_INTERVAL`],
/// so the ring is flushed only where the step loop already pauses. Each
/// flush writes 32 contiguous samples of every trace.
const STAGE_STEPS: usize = 2 * STOP_CHECK_INTERVAL;

/// When the drivers launch their edge after simulation start (s).
pub const DEFAULT_SWITCH_AT: f64 = 0.2e-9;

/// Ceiling on the samples of one run (timesteps plus the DC point):
/// four orders of magnitude above the paper's 1000-step window, and
/// low enough that a runaway duration is refused as a typed error
/// instead of aborting the process on a waveform-buffer allocation.
const MAX_STEPS: usize = 1 << 24;

/// A proved early stop for [`TransientSim::run_pairs_cancellable`],
/// derived by the caller from what it decides on the traces: a trace
/// may end once every later receiver sample provably stays within
/// `tolerance` of its final DC level, and the stopped trace is long
/// enough that the caller reads it as it would the full one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Largest deviation (V) of any receiver from its final DC level
    /// that the caller's decisions cannot see.
    pub tolerance: f64,
    /// The fewest samples a stopped trace keeps (a sample the caller
    /// reads at a fixed index must lie inside it). `usize::MAX` keeps
    /// every trace full while still certifying it.
    pub min_samples: usize,
    /// A stopped trace's last `tail_fraction` (as
    /// [`crate::measure::tail_start`] counts it) must lie wholly at or
    /// after the certified step: the tail a settled level averages.
    pub tail_fraction: f64,
}

impl StopRule {
    /// The samples a trace certified at step `certified` keeps: at
    /// least `min_samples`, one past the certified step, and enough that
    /// its tail starts at or after that step. `usize::MAX` (the full
    /// window) when no length has such a tail: a `tail_fraction` of 1
    /// or more, or NaN.
    #[must_use]
    pub(crate) fn stop_len(&self, certified: usize) -> usize {
        let fraction = self.tail_fraction;
        if fraction.is_nan() || fraction >= 1.0 {
            return usize::MAX;
        }
        let mut len = self.min_samples.max(certified + 1);
        if fraction > 0.0 {
            // `tail_start(len) ≈ len·(1 − fraction)`: start at the
            // solution, then step past its rounding.
            len = len.max((certified as f64 / (1.0 - fraction)) as usize);
        }
        while crate::measure::tail_start(len, fraction) < certified {
            let Some(next) = len.checked_add(1) else { return usize::MAX };
            len = next;
        }
        len
    }
}

/// How long a run lasts: `duration` seconds, each trace ended early
/// where `stop` proves it may. A bare duration is the full window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Horizon {
    /// The full window (s).
    pub duration: f64,
    /// The proved early stop, if any.
    pub stop: Option<StopRule>,
}

impl From<f64> for Horizon {
    fn from(duration: f64) -> Horizon {
        Horizon { duration, stop: None }
    }
}

/// Which linear-algebra engine a [`TransientSim`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Banded LU with the unknowns numbered along the bus's shorter
    /// axis: O(N·b²) factorisation, O(N·b) allocation-free timesteps.
    /// The production path.
    #[default]
    Banded,
    /// Dense LU on the wire-major ordering: the simple O(N³)/O(N²)
    /// reference used as a correctness oracle and perf baseline.
    Dense,
}

/// Reusable scratch for [`TransientSim::run_pairs_cancellable`]:
/// threading one through a campaign makes every batched timestep
/// allocation-free once the buffers have grown to the largest batch.
#[derive(Debug, Clone, Default)]
pub struct PanelScratch {
    /// Interleaved lane-block state (`lanes[i·W + c]` is unknown `i` of
    /// lane `c`); the scalar loop's state vector.
    lanes: Vec<f64>,
    /// Interleaved lane-block right-hand side, solved in place; the
    /// scalar loop's right-hand side.
    lrhs: Vec<f64>,
    /// Step-major waveform staging ring of [`STAGE_STEPS`] rows: each
    /// timestep writes one contiguous row of receiver read-outs, and a
    /// blocked transpose scatters the ring into the trace-major
    /// [`WavePanel`] whenever it fills and at the end. Writing traces
    /// directly would touch one page per (pattern, wire) trace every
    /// step — past ~64 traces that thrashes the L1 DTLB and the step
    /// loop's cost starts depending on whether the allocator handed out
    /// huge pages. A ring, not the whole run, keeps the scratch at
    /// 64 KB for an 8-lane, 32-wire block instead of 2 MB, so two
    /// panels can be live at once in about the memory one took.
    stage: Vec<f64>,
    /// Interleaved DC point each lane settles to, for the stop checks.
    finals: Vec<f64>,
    /// One lane's error `state − finals` at a stop check.
    err: Vec<f64>,
}

impl PanelScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> PanelScratch {
        PanelScratch::default()
    }
}

/// Matrix–vector history product, banded or dense.
trait History {
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]);
}

impl History for Diagonals {
    #[inline]
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.mul_interleaved_into::<1>(x, y);
    }
}

impl History for Matrix {
    #[inline]
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        Matrix::mul_vec_into(self, x, y);
    }
}

/// In-place solve against LU factors, banded or dense.
trait Factors {
    fn solve_into(&self, b: &mut [f64]);
}

impl Factors for BandedLu {
    #[inline]
    fn solve_into(&self, b: &mut [f64]) {
        BandedLu::solve_into(self, b);
    }
}

impl Factors for LuFactors {
    #[inline]
    fn solve_into(&self, b: &mut [f64]) {
        LuFactors::solve_into(self, b);
    }
}

/// How the drivers enter a right-hand side.
#[derive(Debug, Clone)]
enum Sources {
    /// Pure RC: the Norton current `g·vs(t)` into each wire's driver
    /// node, `g[wire]` the driver conductance.
    Norton { g: Vec<f64> },
    /// Augmented MNA: `−vs(t)` on each wire's driver-branch row.
    Branch { rows: Vec<usize> },
}

/// How a system numbers its unknowns: node `(wire, seg)` is
/// `k = wire·wire_stride + seg·seg_stride`, and an RLC system adds the
/// current of the branch *into* each node. One map serves every
/// builder and every consumer of unknown indices.
#[derive(Debug, Clone, Copy)]
struct Layout {
    wires: usize,
    segments: usize,
    wire_stride: usize,
    seg_stride: usize,
    branches: Branches,
}

/// Where an RLC system's branch currents sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branches {
    /// Pure RC: node voltages only.
    None,
    /// Right after the sink node's voltage: `v = 2k`, `i = 2k + 1`.
    Interleaved,
    /// After every node voltage: `v = k`, `i = wires·segments + k`.
    Appended,
}

impl Layout {
    /// The banded engine's numbering: along the bus's shorter axis —
    /// segment-major (`k = seg·wires + wire`) when `wires ≤ segments`,
    /// wire-major (`k = wire·segments + seg`) otherwise — so the series
    /// links and the couplings reach at most `min(wires, segments)`
    /// nodes away. RLC branch currents interleave with their nodes.
    fn banded(bus: &Bus) -> Layout {
        let (wires, segments) = (bus.wires(), bus.segments());
        let (wire_stride, seg_stride) =
            if wires <= segments { (1, wires) } else { (segments, 1) };
        let branches = if bus.has_inductance() { Branches::Interleaved } else { Branches::None };
        Layout { wires, segments, wire_stride, seg_stride, branches }
    }

    /// The dense engine's classic numbering: wire-major nodes, RLC
    /// branch currents appended after them.
    fn dense(bus: &Bus) -> Layout {
        let (wires, segments) = (bus.wires(), bus.segments());
        let branches = if bus.has_inductance() { Branches::Appended } else { Branches::None };
        Layout { wires, segments, wire_stride: segments, seg_stride: 1, branches }
    }

    fn dim(&self) -> usize {
        let nodes = self.wires * self.segments;
        if self.branches == Branches::None {
            nodes
        } else {
            2 * nodes
        }
    }

    fn at(&self, wire: usize, seg: usize) -> usize {
        wire * self.wire_stride + seg * self.seg_stride
    }

    /// The unknown of node `(wire, seg)`'s voltage.
    fn node(&self, wire: usize, seg: usize) -> usize {
        let k = self.at(wire, seg);
        if self.branches == Branches::Interleaved {
            2 * k
        } else {
            k
        }
    }

    /// The unknown of the current in the branch into node `(wire, seg)`
    /// (RLC only).
    fn branch(&self, wire: usize, seg: usize) -> usize {
        debug_assert_ne!(self.branches, Branches::None, "RC systems have no branch unknowns");
        let k = self.at(wire, seg);
        match self.branches {
            Branches::Interleaved => 2 * k + 1,
            _ => self.wires * self.segments + k,
        }
    }

    /// Half-bandwidth of the system matrix: the widest stamp is a series
    /// link (`seg_stride` away; from a branch row back to the previous
    /// node, `2·seg_stride + 1` when interleaved) or a same-segment
    /// coupling (`wire_stride`, or `2·wire_stride` when interleaved).
    fn half_bandwidth(&self) -> usize {
        match self.branches {
            Branches::None => self.wire_stride.max(self.seg_stride),
            Branches::Interleaved => (2 * self.wire_stride).max(2 * self.seg_stride + 1),
            Branches::Appended => self.dim() - 1,
        }
    }

    /// The voltage unknown of segment `seg` on every wire, in wire order.
    fn nodes_at(&self, seg: usize) -> Vec<usize> {
        (0..self.wires).map(|wire| self.node(wire, seg)).collect()
    }

    /// Every unknown as `(index, wire, seg, is_branch)`.
    fn unknowns(&self) -> impl Iterator<Item = (usize, usize, usize, bool)> + '_ {
        let rlc = self.branches != Branches::None;
        (0..self.wires).flat_map(move |wire| {
            (0..self.segments).flat_map(move |seg| {
                let node = (self.node(wire, seg), wire, seg, false);
                let branch = rlc.then(|| (self.branch(wire, seg), wire, seg, true));
                std::iter::once(node).chain(branch)
            })
        })
    }
}

/// One factored backward-Euler system, in either formulation and on
/// either backend: from the DC point `state = D⁻¹·s(0)`, every step is
/// `state ← A⁻¹·(H·state + s(t))`.
#[derive(Debug, Clone)]
struct System<H, F> {
    layout: Layout,
    dim: usize,
    /// The transient matrix (`G + C/h`, or the augmented MNA matrix), factored.
    a_lu: F,
    /// The DC matrix (`G`, or inductors shorted and capacitors open), factored.
    dc_lu: F,
    /// Full-state history matrix: `C/h` on node rows, `−L/h` / `−M/h`
    /// on branch rows — one mat-vec builds the whole RHS.
    hist: H,
    sources: Sources,
    /// `Σ_j |a_ij|` for each row of the transient matrix.
    a_rows: Vec<f64>,
    /// Unknown index of each wire's driver-end node.
    drv_nodes: Vec<usize>,
    /// Unknown index of each wire's receiver-end node.
    recv_nodes: Vec<usize>,
    /// `sqrt(max_i (C⁻¹)_ii)` over the receivers: what turns the
    /// energy norm into a receiver bound. `None` where no stop is
    /// proved (RLC, dense, or a node without ground capacitance).
    recv_gain: Option<f64>,
}

#[derive(Debug, Clone)]
enum Engine {
    Banded(System<Diagonals, BandedLu>),
    Dense(System<Matrix, LuFactors>),
}

/// A factored transient simulator bound to one bus and timestep.
#[derive(Debug, Clone)]
pub struct TransientSim {
    bus: Bus,
    dt: f64,
    engine: Engine,
    /// [`TransientSim::condition_estimate`], computed on first use.
    conditioning: OnceLock<f64>,
}

// ---------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------

/// Stamps the capacitance-over-h terms into `m` under an arbitrary
/// node-index mapping; shared by every engine.
fn stamp_cap_over_h(
    bus: &Bus,
    dt: f64,
    node: &impl Fn(usize, usize) -> usize,
    mut add: impl FnMut(usize, usize, f64),
) {
    let s = bus.segments();
    let w = bus.wires();
    for wire in 0..w {
        for seg in 0..s {
            add(node(wire, seg), node(wire, seg), bus.cg_node[wire][seg] / dt);
        }
        add(node(wire, s - 1), node(wire, s - 1), bus.receiver_c / dt);
    }
    for pair in 0..w.saturating_sub(1) {
        for seg in 0..s {
            let cc = bus.cc_node[pair][seg] / dt;
            let a = node(pair, seg);
            let b = node(pair + 1, seg);
            add(a, a, cc);
            add(b, b, cc);
            add(a, b, -cc);
            add(b, a, -cc);
        }
    }
}

/// Stamps the conductance matrix `G` (series segments + drivers) under
/// an arbitrary node-index mapping; returns the driver conductances.
fn stamp_conductance(
    bus: &Bus,
    node: &impl Fn(usize, usize) -> usize,
    mut add: impl FnMut(usize, usize, f64),
) -> Vec<f64> {
    let s = bus.segments();
    let w = bus.wires();
    let mut g_drv = Vec::with_capacity(w);
    for wire in 0..w {
        // Driver Thevenin conductance into node 0; segment 0's series
        // resistance lies between the driver and node 0, so it folds
        // into the same branch.
        let gd = 1.0 / (bus.driver_r[wire] + bus.r_seg[wire][0]);
        g_drv.push(gd);
        add(node(wire, 0), node(wire, 0), gd);
        for seg in 1..s {
            let gseg = 1.0 / bus.r_seg[wire][seg];
            let a = node(wire, seg - 1);
            let b = node(wire, seg);
            add(a, a, gseg);
            add(b, b, gseg);
            add(a, b, -gseg);
            add(b, a, -gseg);
        }
    }
    g_drv
}

/// Stamps the full augmented-MNA system under arbitrary index mappings.
///
/// `v_idx(wire, seg)` is the unknown slot of a node voltage and
/// `i_idx(wire, seg)` that of the branch current *into* the node —
/// branch `(wire, 0)` is the driver branch (Thevenin source behind
/// `driver_r + r_seg[0]`), branch `(wire, seg > 0)` the series branch
/// from node `seg − 1`. Stamps the transient matrix, the DC matrix
/// (inductors shorted, capacitors open) and the history matrix.
fn stamp_rlc(
    bus: &Bus,
    dt: f64,
    v_idx: &impl Fn(usize, usize) -> usize,
    i_idx: &impl Fn(usize, usize) -> usize,
    mut add_a: impl FnMut(usize, usize, f64),
    mut add_dc: impl FnMut(usize, usize, f64),
    mut add_hist: impl FnMut(usize, usize, f64),
) {
    let s = bus.segments();
    let w = bus.wires();
    stamp_cap_over_h(bus, dt, v_idx, &mut add_hist);
    stamp_cap_over_h(bus, dt, v_idx, &mut add_a);
    for wire in 0..w {
        for seg in 0..s {
            let col = i_idx(wire, seg);
            let from = (seg > 0).then(|| v_idx(wire, seg - 1));
            let to = v_idx(wire, seg);
            let r_series = if seg == 0 {
                bus.driver_r[wire] + bus.r_seg[wire][0]
            } else {
                bus.r_seg[wire][seg]
            };
            let l = bus.l_seg[wire][seg];
            // KCL: current flows from `from` to `to`.
            if let Some(from) = from {
                add_a(from, col, 1.0);
                add_dc(from, col, 1.0);
            }
            add_a(to, col, -1.0);
            add_dc(to, col, -1.0);
            // Branch voltage equation.
            if let Some(from) = from {
                add_a(col, from, 1.0);
                add_dc(col, from, 1.0);
            }
            add_a(col, to, -1.0);
            add_dc(col, to, -1.0);
            add_a(col, col, -(r_series + l / dt));
            add_dc(col, col, -r_series);
            add_hist(col, col, -(l / dt));
        }
    }
    // Mutual inductance: branch (w, seg) couples with the same-segment
    // branch of each adjacent wire — an off-diagonal −(M/h)·i_neighbor
    // term in the branch voltage equation (and the matching history
    // term). At DC inductors (self and mutual) are shorts, so the DC
    // matrix is untouched.
    for pair in 0..w.saturating_sub(1) {
        for seg in 0..s {
            let m = bus.lm_seg[pair][seg];
            if m == 0.0 {
                continue;
            }
            let ka = i_idx(pair, seg);
            let kb = i_idx(pair + 1, seg);
            add_a(ka, kb, -(m / dt));
            add_a(kb, ka, -(m / dt));
            add_hist(ka, kb, -(m / dt));
            add_hist(kb, ka, -(m / dt));
        }
    }
}

fn build_banded_rc(bus: &Bus, dt: f64) -> Result<System<Diagonals, BandedLu>, InterconnectError> {
    let layout = Layout::banded(bus);
    let (dim, band) = (layout.dim(), layout.half_bandwidth());
    let node = |wire: usize, seg: usize| layout.node(wire, seg);

    let mut g = Banded::zeros(dim, band, band);
    let g_drv = stamp_conductance(bus, &node, |i, j, v| g.add(i, j, v));
    // The capacitance stamps only couple same-segment neighbours: three
    // nonzero diagonals (0 and ±wire_stride), kept as such so the
    // per-step history mul is O(N·3) whatever the band.
    let mut c_over_h = Banded::zeros(dim, layout.wire_stride, layout.wire_stride);
    stamp_cap_over_h(bus, dt, &node, |i, j, v| c_over_h.add(i, j, v));
    let mut a = Banded::zeros(dim, band, band);
    stamp_conductance(bus, &node, |i, j, v| a.add(i, j, v));
    stamp_cap_over_h(bus, dt, &node, |i, j, v| a.add(i, j, v));

    Ok(System {
        layout,
        dim,
        a_rows: a.row_abs_sums(),
        a_lu: a.lu()?,
        dc_lu: g.lu()?,
        hist: c_over_h.diagonals(),
        sources: Sources::Norton { g: g_drv },
        drv_nodes: layout.nodes_at(0),
        recv_nodes: layout.nodes_at(bus.segments() - 1),
        recv_gain: receiver_gain(bus),
    })
}

/// `sqrt(max_i (C⁻¹)_ii)` over the receiver nodes of a pure-RC bus, or
/// `None` when a node has no ground capacitance or the value is not
/// finite. `C` couples only same-segment nodes, so it is block-diagonal
/// per segment and the receivers' entries come from the inverse of the
/// last segment's wires × wires tridiagonal block `T`, whose diagonal
/// the two-sided elimination gives in O(wires):
/// `(T⁻¹)_ii = 1 / (d_i − o_{i−1}²/D_{i−1} − o_i²/E_{i+1})`, with `D`
/// the forward and `E` the backward pivots.
fn receiver_gain(bus: &Bus) -> Option<f64> {
    if bus.cg_node.iter().flatten().any(|&c| c.is_nan() || c <= 0.0) {
        return None;
    }
    let last = bus.segments() - 1;
    let w = bus.wires();
    let off: Vec<f64> = (0..w - 1).map(|pair| bus.cc_node[pair][last]).collect();
    let left = |i: usize| if i > 0 { off[i - 1] } else { 0.0 };
    let right = |i: usize| if i + 1 < w { off[i] } else { 0.0 };
    let diag: Vec<f64> =
        (0..w).map(|i| bus.cg_node[i][last] + bus.receiver_c + left(i) + right(i)).collect();
    let mut fwd = diag.clone();
    for i in 1..w {
        fwd[i] -= off[i - 1] * off[i - 1] / fwd[i - 1];
    }
    let mut bwd = diag.clone();
    for i in (0..w - 1).rev() {
        bwd[i] -= off[i] * off[i] / bwd[i + 1];
    }
    let mut max_inv = 0.0;
    for i in 0..w {
        let from_left = if i > 0 { left(i) * left(i) / fwd[i - 1] } else { 0.0 };
        let from_right = if i + 1 < w { right(i) * right(i) / bwd[i + 1] } else { 0.0 };
        let inv = 1.0 / (diag[i] - from_left - from_right);
        if !(inv.is_finite() && inv > 0.0) {
            return None;
        }
        max_inv = inv.max(max_inv);
    }
    Some(max_inv.sqrt())
}

fn build_banded_rlc(bus: &Bus, dt: f64) -> Result<System<Diagonals, BandedLu>, InterconnectError> {
    let layout = Layout::banded(bus);
    let (dim, band) = (layout.dim(), layout.half_bandwidth());

    let mut a = Banded::zeros(dim, band, band);
    let mut dc = Banded::zeros(dim, band, band);
    // History terms (C/h on node rows, −L/h / −M/h on branch rows) only
    // link same-segment neighbours of the same kind: three nonzero
    // diagonals (0 and ±2·wire_stride), so the per-step history mul
    // stays O(N·3) at any width.
    let reach = 2 * layout.wire_stride;
    let mut hist = Banded::zeros(dim, reach, reach);
    stamp_rlc(
        bus,
        dt,
        &|wire, seg| layout.node(wire, seg),
        &|wire, seg| layout.branch(wire, seg),
        |i, j, v| a.add(i, j, v),
        |i, j, v| dc.add(i, j, v),
        |i, j, v| hist.add(i, j, v),
    );

    Ok(System {
        layout,
        dim,
        a_rows: a.row_abs_sums(),
        a_lu: a.lu()?,
        dc_lu: dc.lu()?,
        hist: hist.diagonals(),
        sources: Sources::Branch { rows: (0..bus.wires()).map(|w| layout.branch(w, 0)).collect() },
        drv_nodes: layout.nodes_at(0),
        recv_nodes: layout.nodes_at(bus.segments() - 1),
        recv_gain: None,
    })
}

fn build_dense_rc(bus: &Bus, dt: f64) -> Result<System<Matrix, LuFactors>, InterconnectError> {
    let layout = Layout::dense(bus);
    let dim = layout.dim();
    let node = |wire: usize, seg: usize| layout.node(wire, seg);

    let mut g = Matrix::zeros(dim);
    let g_drv = stamp_conductance(bus, &node, |i, j, v| g[(i, j)] += v);
    let mut c_over_h = Matrix::zeros(dim);
    stamp_cap_over_h(bus, dt, &node, |i, j, v| c_over_h[(i, j)] += v);
    let mut a = g.clone();
    stamp_cap_over_h(bus, dt, &node, |i, j, v| a[(i, j)] += v);

    Ok(System {
        layout,
        dim,
        a_rows: a.row_abs_sums(),
        a_lu: a.lu()?,
        dc_lu: g.lu()?,
        hist: c_over_h,
        sources: Sources::Norton { g: g_drv },
        drv_nodes: layout.nodes_at(0),
        recv_nodes: layout.nodes_at(bus.segments() - 1),
        recv_gain: None,
    })
}

fn build_dense_rlc(bus: &Bus, dt: f64) -> Result<System<Matrix, LuFactors>, InterconnectError> {
    // Wire-major nodes, branch currents appended after all nodes — the
    // classic layout whose bandwidth is O(wires·segments).
    let layout = Layout::dense(bus);
    let dim = layout.dim();

    let mut a = Matrix::zeros(dim);
    let mut dc = Matrix::zeros(dim);
    let mut hist = Matrix::zeros(dim);
    stamp_rlc(
        bus,
        dt,
        &|wire, seg| layout.node(wire, seg),
        &|wire, seg| layout.branch(wire, seg),
        |i, j, v| a[(i, j)] += v,
        |i, j, v| dc[(i, j)] += v,
        |i, j, v| hist[(i, j)] += v,
    );

    Ok(System {
        layout,
        dim,
        a_rows: a.row_abs_sums(),
        a_lu: a.lu()?,
        dc_lu: dc.lu()?,
        hist,
        sources: Sources::Branch { rows: (0..bus.wires()).map(|w| layout.branch(w, 0)).collect() },
        drv_nodes: layout.nodes_at(0),
        recv_nodes: layout.nodes_at(bus.segments() - 1),
        recv_gain: None,
    })
}

// ---------------------------------------------------------------------
// Timestep loops
// ---------------------------------------------------------------------

impl<H, F> System<H, F> {
    /// Adds the driver terms at time `t` to lane `c` of a `w`-interleaved
    /// right-hand side (`w = 1`, `c = 0` for a plain vector).
    #[inline]
    fn stamp(&self, stimulus: &Stimulus, t: f64, rhs: &mut [f64], w: usize, c: usize) {
        self.stamp_sources(|wire| stimulus.voltage(wire, t), rhs, w, c);
    }

    /// [`System::stamp`] of the source voltages `voltage(wire)`.
    #[inline]
    fn stamp_sources(&self, voltage: impl Fn(usize) -> f64, rhs: &mut [f64], w: usize, c: usize) {
        match &self.sources {
            Sources::Norton { g } => {
                for (wire, (&node, &gd)) in self.drv_nodes.iter().zip(g).enumerate() {
                    rhs[node * w + c] += gd * voltage(wire);
                }
            }
            Sources::Branch { rows } => {
                for (wire, &row) in rows.iter().enumerate() {
                    rhs[row * w + c] -= voltage(wire);
                }
            }
        }
    }
}

impl<H: History, F: Factors> System<H, F> {
    /// The scalar timestep loop: `steps` steps of `dt` from the DC
    /// operating point of the stimulus's initial values, handing the
    /// full state of every sample `k` to `sample(k, state)`.
    fn run_scalar(
        &self,
        stimulus: &Stimulus,
        steps: usize,
        dt: f64,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
        mut sample: impl FnMut(usize, &[f64]),
    ) -> Result<(), InterconnectError> {
        let PanelScratch { lanes: state, lrhs: rhs, .. } = scratch;
        for buf in [&mut *state, &mut *rhs] {
            buf.clear();
            buf.resize(self.dim, 0.0);
        }
        self.stamp(stimulus, 0.0, state, 1, 0);
        self.dc_lu.solve_into(state);
        check_finite(state, 0)?;
        sample(0, state);
        for k in 1..=steps {
            check_cancel(cancel, k)?;
            let t = k as f64 * dt;
            self.hist.mul_vec_into(state, rhs);
            self.stamp(stimulus, t, rhs, 1, 0);
            self.a_lu.solve_into(rhs);
            std::mem::swap(state, rhs);
            check_finite(state, k)?;
            sample(k, state);
        }
        Ok(())
    }

    /// The scalar loop of one stimulus, its receiver traces appended
    /// straight to pattern `c` of `wp`.
    fn run_column(
        &self,
        stimulus: &Stimulus,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
        wp: &mut WavePanel,
        c: usize,
    ) -> Result<(), InterconnectError> {
        let (dt, samples, wires) = (wp.dt, wp.samples, wp.wires);
        let traces = &mut wp.traces[c * wires..(c + 1) * wires];
        self.run_scalar(stimulus, samples - 1, dt, scratch, cancel, |_, state| {
            for (trace, &node) in traces.iter_mut().zip(&self.recv_nodes) {
                trace.push(state[node]);
            }
        })?;
        wp.lane_steps += (samples - 1) as u64;
        Ok(())
    }

    /// Receiver-end voltages of the DC operating point of the source
    /// voltages `before(wire)`, written into `out`, which also holds
    /// the solve: the state every run from those values starts from.
    fn dc_receivers(&self, before: impl Fn(usize) -> f64, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.dim, 0.0);
        self.stamp_sources(before, out, 1, 0);
        self.dc_lu.solve_into(out);
        for &node in &self.recv_nodes {
            out.push(out[node]);
        }
        out.drain(..self.dim);
    }

    /// A cheap lower estimate of the ∞-norm condition number of the
    /// row-equilibrated transient matrix `D·A` (`D = diag(1/Σ_j|a_ij|)`,
    /// so `‖D·A‖∞ = 1`): the largest `‖A⁻¹·(r∘s)‖∞` over a few sign
    /// probes `s`, with `r` the row sums. Exact for M-matrices (the RC
    /// formulation), where the all-ones probe attains the norm. Each
    /// probe is a sign pattern over (wire, segment, node-or-branch) —
    /// all ones, alternating across wires and unknown kinds, alternating
    /// across segments — so renumbering the unknowns permutes `A`, `r`
    /// and `s` alike and leaves the estimate unchanged up to rounding.
    fn condition_estimate(&self) -> f64 {
        let alternate = |k: usize| if k.is_multiple_of(2) { 1.0 } else { -1.0 };
        let probes: [&dyn Fn(usize, usize, bool) -> f64; 3] = [
            &|_, _, _| 1.0,
            &|wire, _, branch| alternate(wire + usize::from(branch)),
            &|_, seg, _| alternate(seg),
        ];
        probes
            .iter()
            .map(|probe| {
                let mut x = vec![0.0; self.dim];
                for (i, wire, seg, branch) in self.layout.unknowns() {
                    x[i] = self.a_rows[i] * probe(wire, seg, branch);
                }
                self.a_lu.solve_into(&mut x);
                x.iter()
                    .map(|v| if v.is_finite() { v.abs() } else { f64::INFINITY })
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max)
    }
}

impl System<Diagonals, BandedLu> {
    /// Runs `stimuli` into `wp` as interleaved lane blocks of 8, then 4
    /// patterns; a 2–3 pattern remainder runs as one more 4-lane block
    /// whose spare lanes repeat its last pattern, and a single pattern
    /// runs as a 1-lane block. Lanes never interact and the per-lane
    /// FLOP sequence does not depend on the block width, so the live
    /// lanes stay bitwise what they would be alone, and a repeat
    /// diverges or is cancelled exactly when its original is. Each
    /// lane's certified step and stopped length are its own, whatever
    /// block it runs in.
    fn run_lane_blocks(
        &self,
        stimuli: &[Stimulus],
        run: Run,
        scratch: &mut PanelScratch,
        wp: &mut WavePanel,
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let mut done = 0;
        while stimuli.len() - done >= 8 {
            self.run_lanes::<8>(&stimuli[done..done + 8], done, run, scratch, wp, cancel)?;
            done += 8;
        }
        while done < stimuli.len() {
            let live = (stimuli.len() - done).min(4);
            let block = &stimuli[done..done + live];
            if live == 1 {
                self.run_lanes::<1>(block, done, run, scratch, wp, cancel)?;
            } else {
                self.run_lanes::<4>(block, done, run, scratch, wp, cancel)?;
            }
            done += live;
        }
        Ok(())
    }

    /// One `W`-wide lane block of the timestep loop, written to patterns
    /// `c0..c0 + stimuli.len()` of `wp` (`1 ≤ stimuli.len() ≤ W`; lanes
    /// past the live ones repeat the last stimulus and are never
    /// written out): state and right-hand side stay interleaved
    /// (`buf[i·W + c]`) across the whole loop, so the multiply and both
    /// substitutions run `W`-wide contiguous fused-multiply-adds with no
    /// per-step transposes.
    ///
    /// With a stop rule (and a receiver bound: pure RC), every
    /// [`STOP_CHECK_INTERVAL`] steps after the ramps have ended each
    /// uncertified live lane's error energy is bounded; once all are
    /// certified the block runs on only to its longest stopped length.
    fn run_lanes<const W: usize>(
        &self,
        stimuli: &[Stimulus],
        c0: usize,
        run: Run,
        scratch: &mut PanelScratch,
        wp: &mut WavePanel,
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let (n, steps, dt) = (self.dim, run.steps, wp.dt);
        let wires = self.recv_nodes.len();
        let live = stimuli.len();
        debug_assert!((1..=W).contains(&live), "{live} live lanes in a {W}-lane block");
        let lane = |c: usize| &stimuli[c.min(live - 1)];
        let row = wires * live;
        let PanelScratch { lanes, lrhs, stage, finals, err } = scratch;
        lanes.clear();
        lanes.resize(n * W, 0.0);
        lrhs.clear();
        lrhs.resize(n * W, 0.0);
        stage.clear();
        stage.resize(STAGE_STEPS * row, 0.0);
        self.dc_lanes::<W>(stimuli, 0.0, lanes);
        check_finite_lanes(lanes, W, 0)?;
        // Sample 0 goes straight to the panel; sample `k ≥ 1` is staged
        // in ring row `(k − 1) % STAGE_STEPS` until the next flush.
        stage_lanes(&self.recv_nodes, lanes, W, &mut stage[..row]);
        scatter_stage(stage, 0, 1, live, wires, wp, c0);
        let mut flushed = 0;
        let stop = run.stop.zip(self.recv_gain);
        let settles_at = stimuli.iter().map(Stimulus::settles_at).fold(f64::NEG_INFINITY, f64::max);
        if stop.is_some() {
            // The DC point each lane settles to: every source at its
            // final value, as it is from `settles_at` on.
            finals.clear();
            finals.resize(n * W, 0.0);
            self.dc_lanes::<W>(stimuli, f64::INFINITY, finals);
            err.clear();
            err.resize(n, 0.0);
        }
        let mut certified = [None; W];
        let mut end = steps;
        let mut k = 0;
        while k < end {
            // Step to the next stop check, or to the end: the hot loop's
            // bound is fixed while it runs.
            let check = (k / STOP_CHECK_INTERVAL + 1) * STOP_CHECK_INTERVAL;
            for k in k + 1..=check.min(end) {
                check_cancel(cancel, k)?;
                let t = k as f64 * dt;
                self.hist.mul_interleaved_into::<W>(lanes, lrhs);
                for c in 0..W {
                    self.stamp(lane(c), t, lrhs, W, c);
                }
                self.a_lu.solve_interleaved_into::<W>(lrhs);
                std::mem::swap(lanes, lrhs);
                check_finite_lanes(lanes, W, k)?;
                let at = (k - 1) % STAGE_STEPS * row;
                stage_lanes(&self.recv_nodes, lanes, W, &mut stage[at..at + row]);
            }
            k = check.min(end);
            if k.is_multiple_of(STAGE_STEPS) {
                scatter_stage(stage, flushed + 1, k - flushed, live, wires, wp, c0);
                flushed = k;
            }
            let Some((rule, gain)) = stop else { continue };
            if k < check || (k as f64 * dt) < settles_at || !certified[..live].contains(&None) {
                continue;
            }
            for (c, at) in certified[..live].iter_mut().enumerate().filter(|(_, at)| at.is_none()) {
                // `lrhs` is dead until the next step's multiply
                // overwrites it: scratch for `(C/h)·err`.
                let energy = self.lane_energy(lanes, finals, W, c, err, &mut lrhs[..n]);
                // `e_kᵀ·C·e_k = dt·e_kᵀ·(C/h)·e_k`; a NaN never certifies.
                if gain * (dt * energy).abs().sqrt() <= rule.tolerance {
                    *at = Some(k);
                }
            }
            if certified[..live].iter().all(Option::is_some) {
                let last = certified[..live].iter().flatten().map(|&at| rule.stop_len(at));
                end = (last.fold(1, usize::max) - 1).min(steps);
            }
        }
        for (c, at) in certified[..live].iter().enumerate() {
            wp.certified[c0 + c] = *at;
            if let (Some(at), Some((rule, _))) = (at, stop) {
                wp.lens[c0 + c] = rule.stop_len(*at).min(steps + 1);
            }
        }
        wp.lane_steps += (end * live) as u64;
        scatter_stage(stage, flushed + 1, end - flushed, live, wires, wp, c0);
        // A lane that stopped before the block's end keeps no samples
        // past its own length.
        for (src, trace) in wp.traces[c0 * wires..c0 * wires + row].iter_mut().enumerate() {
            trace.truncate(wp.lens[c0 + src / wires]);
        }
        Ok(())
    }

    /// The DC operating point of each lane's sources at time `t`, into
    /// the zeroed `W`-interleaved `out` (lanes past `stimuli` repeat its
    /// last). Kept out of line: the start point and the stop checks'
    /// final point share one copy.
    #[inline(never)]
    fn dc_lanes<const W: usize>(&self, stimuli: &[Stimulus], t: f64, out: &mut [f64]) {
        for c in 0..W {
            self.stamp(&stimuli[c.min(stimuli.len() - 1)], t, out, W, c);
        }
        self.dc_lu.solve_interleaved_into::<W>(out);
    }

    /// `errᵀ·(C/h)·err` of lane `c` of a `w`-interleaved `state`, with
    /// `err = state − finals` de-interleaved into `err` and one history
    /// multiply into `c_err`. Kept out of line: one copy serves every
    /// block width, and a lane's value does not depend on it.
    #[inline(never)]
    fn lane_energy(
        &self,
        state: &[f64],
        finals: &[f64],
        w: usize,
        c: usize,
        err: &mut [f64],
        c_err: &mut [f64],
    ) -> f64 {
        for (i, e) in err.iter_mut().enumerate() {
            *e = state[i * w + c] - finals[i * w + c];
        }
        self.hist.mul_interleaved_into::<1>(err, c_err);
        err.iter().zip(c_err.iter()).map(|(e, ce)| e * ce).sum()
    }
}

/// What one run asks of its lane blocks: the full window's step count
/// and the proved stop, if any.
#[derive(Debug, Clone, Copy)]
struct Run {
    steps: usize,
    stop: Option<StopRule>,
}

impl TransientSim {
    /// Builds and factorises the solver for `bus` with timestep `dt`,
    /// selecting the RC or RLC formulation automatically and running on
    /// the banded fast path.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::BadTimeAxis`] for a non-finite or
    /// non-positive `dt`; [`InterconnectError::SingularMatrix`] if the
    /// bus graph is degenerate.
    pub fn new(bus: &Bus, dt: f64) -> Result<TransientSim, InterconnectError> {
        Self::with_backend(bus, dt, SolverBackend::default())
    }

    /// As [`TransientSim::new`] with an explicit linear-algebra backend
    /// — the dense oracle is selectable here for verification and
    /// baseline benchmarking.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::new`].
    pub fn with_backend(
        bus: &Bus,
        dt: f64,
        backend: SolverBackend,
    ) -> Result<TransientSim, InterconnectError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(InterconnectError::time("timestep must be finite and positive"));
        }
        let engine = match (backend, bus.has_inductance()) {
            (SolverBackend::Banded, false) => Engine::Banded(build_banded_rc(bus, dt)?),
            (SolverBackend::Banded, true) => Engine::Banded(build_banded_rlc(bus, dt)?),
            (SolverBackend::Dense, false) => Engine::Dense(build_dense_rc(bus, dt)?),
            (SolverBackend::Dense, true) => Engine::Dense(build_dense_rlc(bus, dt)?),
        };
        Ok(TransientSim { bus: bus.clone(), dt, engine, conditioning: OnceLock::new() })
    }

    /// The bus this simulator was factored for.
    pub(crate) fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Receiver-end voltages of the DC operating point `pair` starts
    /// from, written into `out`: one solve against the DC factor,
    /// bitwise the sample 0 of every run of `pair`, whose sources hold
    /// their *before* levels until the edge launches.
    pub(crate) fn dc_receivers(
        &self,
        pair: &VectorPair,
        out: &mut Vec<f64>,
    ) -> Result<(), InterconnectError> {
        if pair.width() != self.bus.wires() {
            return Err(InterconnectError::WireOutOfRange {
                wire: pair.width(),
                width: self.bus.wires(),
            });
        }
        let vdd = self.bus.vdd();
        let before = |wire: usize| pair.before(wire).voltage(vdd);
        match &self.engine {
            Engine::Banded(sys) => sys.dc_receivers(before, out),
            Engine::Dense(sys) => sys.dc_receivers(before, out),
        }
        Ok(())
    }

    /// A lower estimate of the condition number of the row-equilibrated
    /// transient matrix, computed once per
    /// simulator with three solves. It bounds how far rounding can make
    /// two mathematically equal runs drift apart: a paper-grid bus reads
    /// about 10², and every coupling ×10 adds a decade.
    pub(crate) fn condition_estimate(&self) -> f64 {
        *self.conditioning.get_or_init(|| match &self.engine {
            Engine::Banded(sys) => sys.condition_estimate(),
            Engine::Dense(sys) => sys.condition_estimate(),
        })
    }

    /// The timestep (s).
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The edge-launch time (s): [`DEFAULT_SWITCH_AT`].
    #[must_use]
    pub fn switch_at(&self) -> f64 {
        DEFAULT_SWITCH_AT
    }

    /// Half-bandwidth of the banded transient matrix — about
    /// `min(wires, segments)` for RC, `2·min(wires, segments)` for RLC —
    /// or `None` on the dense engine.
    #[must_use]
    pub fn half_bandwidth(&self) -> Option<usize> {
        match &self.engine {
            Engine::Banded(sys) => Some(sys.layout.half_bandwidth()),
            Engine::Dense(_) => None,
        }
    }

    /// The linear-algebra backend this simulator runs on.
    #[must_use]
    pub fn backend(&self) -> SolverBackend {
        match self.engine {
            Engine::Banded(_) => SolverBackend::Banded,
            Engine::Dense(_) => SolverBackend::Dense,
        }
    }

    /// Lowers each pair to a stimulus (edge at [`DEFAULT_SWITCH_AT`])
    /// and runs its transient over `horizon` (a duration in seconds, or
    /// a [`Horizon`]) from the DC operating point of its *before*
    /// vector, all of them as one
    /// batched **panel**: every timestep advances up to eight patterns
    /// through one interleaved history multiply and one multi-RHS
    /// solve, instead of separate matrix-vector passes. The patterns
    /// are physically independent — only the linear-algebra work is
    /// shared — so for finite systems each pattern's receiver waveforms
    /// are bitwise identical to a scalar run of it alone, a one-column
    /// panel included. `cancel` is polled every
    /// [`CANCEL_CHECK_INTERVAL`] timesteps: an explicitly cancelled
    /// token or an expired deadline stops the run cooperatively, at the
    /// same `Cancelled { step }` as a scalar run of the first pattern.
    /// `None` is exactly the uncancellable path. Reusing `scratch`
    /// keeps repeated runs allocation-free in the timestep loop.
    ///
    /// A horizon with a [`StopRule`] ends each pattern's traces where
    /// the rule proves it may (module docs, *Certified early stop*):
    /// [`WavePanel::wire`] then returns a bitwise prefix of the full
    /// trace, [`WavePanel::certified_at`] the certified step. RLC buses,
    /// buses with a node of zero ground capacitance, the dense engine and
    /// the divergence replay run the full window.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::BadTimeAxis`] for a non-finite or
    /// non-positive duration, or one needing more than 2²⁴ samples;
    /// [`InterconnectError::WireOutOfRange`] for a pair width mismatch;
    /// [`InterconnectError::Cancelled`] when the token fires;
    /// [`InterconnectError::Diverged`] when a state goes non-finite,
    /// reported exactly as a scalar run of the first failing pattern
    /// would report it.
    pub fn run_pairs_cancellable(
        &self,
        pairs: &[VectorPair],
        horizon: impl Into<Horizon>,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<WavePanel, InterconnectError> {
        let horizon = horizon.into();
        let steps = self.steps(horizon.duration)?;
        let stimuli: Vec<Stimulus> = pairs
            .iter()
            .map(|pair| Stimulus::from_pair(&self.bus, pair, DEFAULT_SWITCH_AT))
            .collect::<Result<_, _>>()?;
        if let Engine::Banded(sys) = &self.engine {
            let mut wp = WavePanel::empty(self, stimuli.len(), steps + 1);
            let run = Run { steps, stop: horizon.stop };
            match sys.run_lane_blocks(&stimuli, run, scratch, &mut wp, cancel) {
                Ok(()) => return Ok(wp),
                // A non-finite lane state cannot identify which pattern
                // a sequential run would have failed on first (and the
                // interleaved kernels' dropped zero skips are only
                // bitwise-safe for finite systems), so divergence
                // replays the batch scalar-sequentially for exact
                // per-pattern semantics.
                Err(InterconnectError::Diverged { .. }) => {}
                Err(other) => return Err(other),
            }
        }
        self.run_sequential(&stimuli, steps, scratch, cancel)
    }

    /// The number of timesteps covering `duration` — the one time-axis
    /// check every run goes through. `dt` was validated at
    /// construction; this refuses a non-finite or non-positive
    /// `duration`, and any run whose sample count (`steps + 1`) would
    /// overflow or exceed [`MAX_STEPS`].
    fn steps(&self, duration: f64) -> Result<usize, InterconnectError> {
        if !(duration.is_finite() && duration > 0.0) {
            return Err(InterconnectError::time("duration must be finite and positive"));
        }
        // Epsilon guard: 1e-9/1e-12 must give exactly 1000 steps despite
        // floating-point representation of the quotient. The cast
        // saturates, so a quotient past usize::MAX cannot wrap.
        let steps = ((duration / self.dt) - 1e-9).ceil().max(1.0) as usize;
        match steps.checked_add(1) {
            Some(samples) if samples <= MAX_STEPS => Ok(steps),
            _ => Err(InterconnectError::time(format!(
                "duration {duration:e} s at dt {:e} s needs more than {MAX_STEPS} samples",
                self.dt
            ))),
        }
    }

    /// The scalar-sequential reference: one scalar run per stimulus,
    /// packed into a [`WavePanel`]. Used by the dense engine and as the
    /// divergence fallback, so the batched entry point keeps exact
    /// scalar error semantics (the first pattern a sequential run would
    /// fail is the one reported).
    fn run_sequential(
        &self,
        stimuli: &[Stimulus],
        steps: usize,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<WavePanel, InterconnectError> {
        let mut wp = WavePanel::empty(self, stimuli.len(), steps + 1);
        for (c, stimulus) in stimuli.iter().enumerate() {
            match &self.engine {
                Engine::Banded(sys) => sys.run_column(stimulus, scratch, cancel, &mut wp, c)?,
                Engine::Dense(sys) => sys.run_column(stimulus, scratch, cancel, &mut wp, c)?,
            }
        }
        Ok(wp)
    }
}

/// Fails the run with [`InterconnectError::Cancelled`] when the token
/// has fired, polling the wall-clock deadline only every
/// [`CANCEL_CHECK_INTERVAL`] steps so the hot loop never pays an
/// `Instant::now()` per timestep.
fn check_cancel(cancel: Option<&CancelToken>, step: usize) -> Result<(), InterconnectError> {
    match cancel {
        Some(token) if step.is_multiple_of(CANCEL_CHECK_INTERVAL) && token.poll_deadline() => {
            Err(InterconnectError::Cancelled { step })
        }
        _ => Ok(()),
    }
}

/// Fails the run with [`InterconnectError::Diverged`] if any unknown
/// went non-finite at `step` (0 = the DC operating point).
fn check_finite(state: &[f64], step: usize) -> Result<(), InterconnectError> {
    match state.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(unknown) => Err(InterconnectError::Diverged { step, unknown }),
    }
}

/// Struct-of-arrays receiver waveforms for a batch of patterns run by
/// [`TransientSim::run_pairs_cancellable`]: one time-major trace per
/// `(pattern, wire)`. Only the receiver ends — what the detectors
/// observe — are kept, each pattern's as long as its run went.
///
/// Each trace is its own allocation, reserved for the full window and
/// written only as far as the run goes: no request is larger than one
/// trace (8 KB on the paper grid), so a freed panel's memory serves the
/// next panel of any width, and untouched tails of stopped traces cost
/// no resident memory.
#[derive(Debug, Clone, PartialEq)]
pub struct WavePanel {
    dt: f64,
    vdd: f64,
    wires: usize,
    patterns: usize,
    /// Samples of the full window: the longest any trace can be.
    samples: usize,
    /// Samples each pattern's traces keep (`samples` unless stopped).
    lens: Vec<usize>,
    /// The step each pattern was certified at, under a stop rule.
    certified: Vec<Option<usize>>,
    /// Timesteps advanced per live lane, summed over the run.
    lane_steps: u64,
    /// Receiver-end voltages, trace `pattern·wires + wire` indexed by
    /// step, each `lens[pattern]` long once the run ends.
    traces: Vec<Vec<f64>>,
}

impl WavePanel {
    fn empty(sim: &TransientSim, patterns: usize, samples: usize) -> Self {
        let wires = sim.bus.wires();
        WavePanel {
            dt: sim.dt,
            vdd: sim.bus.vdd(),
            wires,
            patterns,
            samples,
            lens: vec![samples; patterns],
            certified: vec![None; patterns],
            lane_steps: 0,
            traces: (0..patterns * wires).map(|_| Vec::with_capacity(samples)).collect(),
        }
    }

    /// Sample interval (s).
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// When the drivers launched their edge (s): [`DEFAULT_SWITCH_AT`].
    #[must_use]
    pub fn switch_at(&self) -> f64 {
        DEFAULT_SWITCH_AT
    }

    /// Supply voltage the run used (V).
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Number of wires per pattern.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// Number of patterns in the batch.
    #[must_use]
    pub fn patterns(&self) -> usize {
        self.patterns
    }

    /// Number of samples of the full window: the longest any trace of
    /// the panel can be.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of samples `pattern`'s traces keep: [`WavePanel::samples`]
    /// unless a stop rule ended them early.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn samples_of(&self, pattern: usize) -> usize {
        self.lens[pattern]
    }

    /// The step from which the run's stop rule proved every later
    /// receiver sample of `pattern` within tolerance of its final level;
    /// `None` without a rule, or when no check proved it.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn certified_at(&self, pattern: usize) -> Option<usize> {
        self.certified[pattern]
    }

    /// Timesteps the run advanced, summed over its patterns: a lane
    /// block counts its steps once per live lane, so a panel of full
    /// windows counts `patterns · (samples − 1)`.
    #[must_use]
    pub fn lane_steps(&self) -> u64 {
        self.lane_steps
    }

    /// The time of sample `k` (s).
    #[must_use]
    pub fn time_of(&self, k: usize) -> f64 {
        k as f64 * self.dt
    }

    /// Receiver-end waveform of `wire` under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` or `wire` is out of range.
    #[must_use]
    pub fn wire(&self, pattern: usize, wire: usize) -> &[f64] {
        assert!(
            pattern < self.patterns && wire < self.wires,
            "pattern {pattern} / wire {wire} out of range ({} patterns, {} wires)",
            self.patterns,
            self.wires
        );
        &self.traces[pattern * self.wires + wire]
    }

    /// The traces, `pattern·wires + wire`: for a one-pattern panel, one
    /// per wire.
    pub(crate) fn into_traces(self) -> Vec<Vec<f64>> {
        self.traces
    }
}

/// Lane-block analogue of [`check_finite`]: a branch-free exponent-mask
/// sweep (all-ones exponent ⇔ NaN or ±∞) that vectorises, with the
/// position recovered on the cold failure path. The reported unknown is
/// the block-local row; the batched entry points discard it and replay
/// scalar-sequentially for exact per-pattern error semantics.
fn check_finite_lanes(xs: &[f64], w: usize, step: usize) -> Result<(), InterconnectError> {
    let mut bad = 0u64;
    for &v in xs {
        let exp = (v.to_bits() >> 52) & 0x7FF;
        bad |= (exp + 1) >> 11;
    }
    if bad == 0 {
        return Ok(());
    }
    let at = xs.iter().position(|v| !v.is_finite()).unwrap_or(0);
    Err(InterconnectError::Diverged { step, unknown: at / w })
}

/// Copies one timestep's receiver read-outs of the first
/// `row.len() / wires` lanes of a `w`-interleaved lane block into a
/// contiguous staging row, `row[c·wires + wire]`. The row is one
/// sequential burst, where writing straight into the trace-major
/// [`WavePanel`] would touch `lanes·wires` pages every step.
fn stage_lanes(recv_nodes: &[usize], state: &[f64], w: usize, row: &mut [f64]) {
    for (c, out) in row.chunks_exact_mut(recv_nodes.len()).enumerate() {
        for (v, &node) in out.iter_mut().zip(recv_nodes) {
            *v = state[node * w + c];
        }
    }
}

/// Appends `rows` staged rows of [`stage_lanes`] (`live` lanes each,
/// the ring's first `rows` rows), samples `from..from + rows`, to the
/// traces of patterns `c0..c0 + live` of the [`WavePanel`]: one strided
/// read pass per trace, each writing a contiguous run of the trace, so
/// the ring stays warm in cache across traces.
fn scatter_stage(
    stage: &[f64],
    from: usize,
    rows: usize,
    live: usize,
    wires: usize,
    wp: &mut WavePanel,
    c0: usize,
) {
    let row = wires * live;
    for (src, trace) in wp.traces[c0 * wires..c0 * wires + row].iter_mut().enumerate() {
        debug_assert_eq!(trace.len(), from, "flushes append in step order");
        trace.extend((0..rows).map(|k| stage[k * row + src]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::Defect;
    use crate::params::BusParams;

    fn small_bus(wires: usize) -> Bus {
        BusParams::dsm_bus(wires).segments(4).build().unwrap()
    }

    /// The scalar oracle: `pairs` looped one by one through the private
    /// scalar timestep loop, packed into a panel like the batched
    /// entry's.
    fn looped_scalar(
        sim: &TransientSim,
        pairs: &[VectorPair],
        duration: f64,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<WavePanel, InterconnectError> {
        let steps = sim.steps(duration)?;
        let stimuli: Vec<Stimulus> = pairs
            .iter()
            .map(|pair| Stimulus::from_pair(&sim.bus, pair, DEFAULT_SWITCH_AT))
            .collect::<Result<_, _>>()?;
        sim.run_sequential(&stimuli, steps, scratch, cancel)
    }

    /// One pattern through the scalar oracle, on fresh scratch.
    fn scalar(
        sim: &TransientSim,
        pair: &VectorPair,
        duration: f64,
    ) -> Result<WavePanel, InterconnectError> {
        looped_scalar(sim, std::slice::from_ref(pair), duration, &mut PanelScratch::new(), None)
    }

    /// One pattern as a one-column panel through the run entry point.
    fn column(
        sim: &TransientSim,
        pair: &VectorPair,
        duration: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<WavePanel, InterconnectError> {
        sim.run_pairs_cancellable(
            std::slice::from_ref(pair),
            duration,
            &mut PanelScratch::new(),
            cancel,
        )
    }

    #[test]
    fn dc_point_matches_drive_levels() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("101", "101").unwrap();
        let waves = scalar(&sim, &pair, 1e-9).unwrap();
        // No switching: every wire must sit at its DC level throughout.
        for (w, expect) in [(0usize, bus.vdd()), (1, 0.0), (2, bus.vdd())] {
            for &v in waves.wire(0, w) {
                assert!((v - expect).abs() < 1e-6, "wire {w}: {v} vs {expect}");
            }
        }
    }

    #[test]
    fn single_wire_settles_to_vdd_after_rise() {
        let bus = BusParams::dsm_bus(1).segments(4).build().unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("0", "1").unwrap();
        let waves = scalar(&sim, &pair, 3e-9).unwrap();
        let wave = waves.wire(0, 0);
        assert!(wave[0].abs() < 1e-9, "starts at ground");
        let last = *wave.last().unwrap();
        assert!((last - bus.vdd()).abs() < 1e-3, "settles at vdd: {last}");
        // Monotone-ish rise: final 10% of samples near vdd.
        let tail = &wave[wave.len() * 9 / 10..];
        assert!(tail.iter().all(|v| (v - bus.vdd()).abs() < 0.01));
    }

    #[test]
    fn rise_is_slower_at_receiver_than_driver() {
        let bus = BusParams::dsm_bus(1).segments(8).build().unwrap();
        let sim = TransientSim::new(&bus, 1e-12).unwrap();
        let pair = VectorPair::from_strs("0", "1").unwrap();
        // Runs return receiver ends only, so read both ends of the
        // wire off the scalar loop's full state.
        let Engine::Banded(sys) = &sim.engine else { panic!("an RC bus runs banded") };
        let stimulus = Stimulus::from_pair(&bus, &pair, sim.switch_at()).unwrap();
        let (mut driver, mut receiver) = (Vec::new(), Vec::new());
        let steps = sim.steps(2e-9).unwrap();
        sys.run_scalar(&stimulus, steps, sim.dt(), &mut PanelScratch::new(), None, |_, state| {
            driver.push(state[sys.drv_nodes[0]]);
            receiver.push(state[sys.recv_nodes[0]]);
        })
        .unwrap();
        assert_eq!(receiver, scalar(&sim, &pair, 2e-9).unwrap().wire(0, 0));
        // Mid-rise sample: driver end must lead the receiver end.
        let k = ((sim.switch_at() + 60e-12) / sim.dt()) as usize;
        assert!(driver[k] > receiver[k] + 1e-3, "driver {} vs receiver {}", driver[k], receiver[k]);
    }

    #[test]
    fn aggressors_couple_positive_glitch_into_quiet_low_victim() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        // Victim = wire 1 held low; both neighbours rise (Pg pattern).
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let waves = scalar(&sim, &pair, 2e-9).unwrap();
        let peak = waves.wire(0, 1).iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 0.05, "expected a visible positive glitch, got {peak}");
        assert!(peak < bus.vdd(), "glitch cannot exceed the rail, got {peak}");
        // And it must die back down (it is a glitch, not a level change).
        let last = *waves.wire(0, 1).last().unwrap();
        assert!(last.abs() < 0.01, "victim returns to ground: {last}");
    }

    #[test]
    fn negative_glitch_mirrors_positive() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        // Victim held high; neighbours fall (Ng pattern).
        let up = VectorPair::from_strs("000", "101").unwrap();
        let down = VectorPair::from_strs("111", "010").unwrap();
        let wu = scalar(&sim, &up, 2e-9).unwrap();
        let wd = scalar(&sim, &down, 2e-9).unwrap();
        let peak_up = wu.wire(0, 1).iter().cloned().fold(f64::MIN, f64::max);
        let dip_down = wd.wire(0, 1).iter().cloned().fold(f64::MAX, f64::min);
        // Linear network ⇒ symmetric responses.
        assert!((peak_up - (bus.vdd() - dip_down)).abs() < 1e-3);
    }

    #[test]
    fn opposing_neighbours_slow_the_victim_edge() {
        // Miller effect: victim rising with falling neighbours is slower
        // than victim rising with rising neighbours.
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let with = VectorPair::from_strs("000", "111").unwrap(); // all rise
        let against = VectorPair::from_strs("101", "010").unwrap(); // victim rises, aggrs fall
        let ww = scalar(&sim, &with, 4e-9).unwrap();
        let wa = scalar(&sim, &against, 4e-9).unwrap();
        let half = bus.vdd() / 2.0;
        let t_with = crate::measure::crossing_time(ww.wire(0, 1), ww.dt(), half, true).unwrap();
        let t_against = crate::measure::crossing_time(wa.wire(0, 1), wa.dt(), half, true).unwrap();
        assert!(
            t_against > t_with + 5e-12,
            "opposing switching must add delay: {t_against} vs {t_with}"
        );
    }

    #[test]
    fn more_coupling_means_bigger_glitch() {
        let weak = BusParams::dsm_bus(3).segments(4).cc_per_mm(20e-15).build().unwrap();
        let strong = BusParams::dsm_bus(3).segments(4).cc_per_mm(160e-15).build().unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let peak = |bus: &Bus| {
            let sim = TransientSim::new(bus, 2e-12).unwrap();
            let w = scalar(&sim, &pair, 2e-9).unwrap();
            w.wire(0, 1).iter().cloned().fold(f64::MIN, f64::max)
        };
        assert!(peak(&strong) > 2.0 * peak(&weak));
    }

    #[test]
    fn bad_inputs_rejected() {
        let bus = small_bus(2);
        assert!(TransientSim::new(&bus, 0.0).is_err());
        let sim = TransientSim::new(&bus, 1e-12).unwrap();
        let pair3 = VectorPair::from_strs("000", "111").unwrap();
        assert!(column(&sim, &pair3, 1e-9, None).is_err());
        let pair = VectorPair::from_strs("00", "11").unwrap();
        assert!(column(&sim, &pair, -1.0, None).is_err());
    }

    #[test]
    fn waveform_metadata() {
        let bus = small_bus(2);
        let sim = TransientSim::new(&bus, 1e-12).unwrap();
        let pair = VectorPair::from_strs("00", "10").unwrap();
        let w = scalar(&sim, &pair, 1e-9).unwrap();
        assert_eq!(w.wires(), 2);
        assert_eq!(w.samples(), 1001);
        assert!((w.time_of(1000) - 1e-9).abs() < 1e-18);
        assert!((w.vdd() - bus.vdd()).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        // Reusing one scratch across runs (and across engine sizes)
        // must not leak state between runs.
        let mut scratch = PanelScratch::new();
        let big = small_bus(5);
        let pair5 = [VectorPair::from_strs("00000", "11011").unwrap()];
        let sim5 = TransientSim::new(&big, 2e-12).unwrap();
        let fresh = scalar(&sim5, &pair5[0], 1e-9).unwrap();
        let _ = looped_scalar(&sim5, &pair5, 1e-9, &mut scratch, None).unwrap();
        let small = small_bus(2);
        let sim2 = TransientSim::new(&small, 2e-12).unwrap();
        let pair2 = [VectorPair::from_strs("00", "10").unwrap()];
        let _ = looped_scalar(&sim2, &pair2, 1e-9, &mut scratch, None).unwrap();
        let reused = looped_scalar(&sim5, &pair5, 1e-9, &mut scratch, None).unwrap();
        assert_eq!(fresh, reused, "scratch reuse changed results");
    }

    #[test]
    fn banded_matches_dense_oracle_rc_and_rlc() {
        let pair = VectorPair::from_strs("000", "101").unwrap();
        for bus in [
            small_bus(3),
            BusParams::dsm_bus(3).segments(4).l_per_mm(0.4e-9).lm_per_mm(0.1e-9).build().unwrap(),
        ] {
            let banded = TransientSim::new(&bus, 2e-12).unwrap();
            assert_eq!(banded.backend(), SolverBackend::Banded);
            let dense = TransientSim::with_backend(&bus, 2e-12, SolverBackend::Dense).unwrap();
            assert_eq!(dense.backend(), SolverBackend::Dense);
            let wb = column(&banded, &pair, 2e-9, None).unwrap();
            let wd = column(&dense, &pair, 2e-9, None).unwrap();
            for w in 0..3 {
                for (a, b) in wb.wire(0, w).iter().zip(wd.wire(0, w)) {
                    assert!((a - b).abs() < 1e-9, "wire {w}: {a} vs {b}");
                }
            }
        }
    }

    // ------------------------- RLC path -------------------------

    fn rlc_bus(wires: usize, l_per_mm: f64) -> Bus {
        BusParams::dsm_bus(wires).segments(4).l_per_mm(l_per_mm).build().unwrap()
    }

    #[test]
    fn rlc_path_selected_only_with_inductance() {
        let is_rlc = |bus: &Bus| match TransientSim::new(bus, 2e-12).unwrap().engine {
            Engine::Banded(sys) => matches!(sys.sources, Sources::Branch { .. }),
            Engine::Dense(sys) => matches!(sys.sources, Sources::Branch { .. }),
        };
        assert!(!is_rlc(&small_bus(2)));
        assert!(is_rlc(&rlc_bus(2, 0.4e-9)));
    }

    #[test]
    fn tiny_inductance_matches_rc_solution() {
        // L → 0 must converge to the RC result.
        let rc = small_bus(3);
        let rlc = rlc_bus(3, 1e-15); // femto-henry per mm: negligible
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let wv_rc = scalar(&TransientSim::new(&rc, 2e-12).unwrap(), &pair, 2e-9).unwrap();
        let wv_rlc = scalar(&TransientSim::new(&rlc, 2e-12).unwrap(), &pair, 2e-9).unwrap();
        for (a, b) in wv_rc.wire(0, 0).iter().zip(wv_rlc.wire(0, 0)) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn rlc_dc_point_matches_drive_levels() {
        let bus = rlc_bus(3, 0.4e-9);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("110", "110").unwrap();
        let waves = scalar(&sim, &pair, 1e-9).unwrap();
        for (w, expect) in [(0usize, bus.vdd()), (1, bus.vdd()), (2, 0.0)] {
            for &v in waves.wire(0, w) {
                assert!((v - expect).abs() < 1e-6, "wire {w}: {v} vs {expect}");
            }
        }
    }

    #[test]
    fn rlc_settles_to_final_levels() {
        let bus = rlc_bus(2, 0.4e-9);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("00", "10").unwrap();
        let waves = scalar(&sim, &pair, 4e-9).unwrap();
        let last0 = *waves.wire(0, 0).last().unwrap();
        let last1 = *waves.wire(0, 1).last().unwrap();
        assert!((last0 - bus.vdd()).abs() < 5e-3, "{last0}");
        assert!(last1.abs() < 5e-3, "{last1}");
    }

    #[test]
    fn inductance_causes_overshoot() {
        // Strong series inductance with a fast edge must ring above the
        // rail at the receiver — impossible in the pure-RC model for a
        // single isolated wire.
        let rc = BusParams::dsm_bus(1).segments(4).rise_time(30e-12).build().unwrap();
        let lc = BusParams::dsm_bus(1)
            .segments(4)
            .rise_time(30e-12)
            .r_per_mm(5.0) // low loss to let it ring
            .l_per_mm(2e-9)
            .build()
            .unwrap();
        let pair = VectorPair::from_strs("0", "1").unwrap();
        let peak = |bus: &Bus| {
            let sim = TransientSim::new(bus, 1e-12).unwrap();
            let w = scalar(&sim, &pair, 3e-9).unwrap();
            w.wire(0, 0).iter().cloned().fold(f64::MIN, f64::max)
        };
        let rc_peak = peak(&rc);
        let lc_peak = peak(&lc);
        assert!(rc_peak <= rc.vdd() + 1e-6, "RC cannot overshoot: {rc_peak}");
        assert!(lc_peak > lc.vdd() * 1.02, "RLC must overshoot: {lc_peak}");
    }

    #[test]
    fn mutual_inductance_validated_and_adds_crosstalk() {
        // M >= L rejected.
        assert!(BusParams::dsm_bus(2).l_per_mm(0.4e-9).lm_per_mm(0.5e-9).build().is_err());
        assert!(BusParams::dsm_bus(2).lm_per_mm(-1e-12).build().is_err());
        // With no capacitive coupling at all, a quiet victim still sees
        // inductively coupled noise when M > 0.
        let quiet = |lm: f64| {
            let bus = BusParams::dsm_bus(2)
                .segments(4)
                .cc_per_mm(0.0)
                .l_per_mm(1e-9)
                .lm_per_mm(lm)
                .rise_time(30e-12)
                .build()
                .unwrap();
            let sim = TransientSim::new(&bus, 1e-12).unwrap();
            let pair = VectorPair::from_strs("00", "10").unwrap();
            let waves = scalar(&sim, &pair, 2e-9).unwrap();
            waves.wire(0, 1).iter().map(|v| v.abs()).fold(0.0, f64::max)
        };
        let without = quiet(0.0);
        let with = quiet(0.5e-9);
        assert!(with > without + 1e-3, "mutual coupling must add noise: {with} vs {without}");
    }

    #[test]
    fn rlc_crosstalk_still_present() {
        let bus = rlc_bus(3, 0.4e-9);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let waves = scalar(&sim, &pair, 2e-9).unwrap();
        let peak = waves.wire(0, 1).iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 0.05, "coupling must still glitch the victim: {peak}");
    }

    #[test]
    fn non_finite_state_is_reported_as_diverged() {
        assert_eq!(check_finite(&[0.0, 1.5, -2.0], 3), Ok(()));
        assert_eq!(
            check_finite(&[0.0, f64::NAN, f64::INFINITY], 7),
            Err(InterconnectError::Diverged { step: 7, unknown: 1 })
        );
        assert_eq!(
            check_finite(&[f64::NEG_INFINITY], 0),
            Err(InterconnectError::Diverged { step: 0, unknown: 0 })
        );
    }

    #[test]
    fn blown_up_transient_fails_fast_instead_of_collecting_nans() {
        // A pathological coupling boost combined with a degenerate
        // timestep overflows `C/h` to infinity. Partial-pivot LU only
        // rejects underflowing pivots, so the broken system factors
        // "successfully" — the per-step finiteness check is what stops
        // NaNs from reaching detector verdicts.
        let mut bus = small_bus(3);
        crate::defect::Defect::CouplingBoost { wire: 1, factor: 1e300 }.apply(&mut bus).unwrap();
        let dt = 1e-300;
        let sim = TransientSim::new(&bus, dt).unwrap();
        let pair = VectorPair::from_strs("000", "010").unwrap();
        match scalar(&sim, &pair, 4.0 * dt) {
            Err(InterconnectError::Diverged { step, .. }) => {
                assert!(step <= 4, "divergence flagged promptly, got step {step}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_token_stops_the_run_within_one_interval() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let token = CancelToken::new();
        token.cancel();
        match column(&sim, &pair, 2e-9, Some(&token)) {
            Err(InterconnectError::Cancelled { step }) => {
                assert!(
                    step <= CANCEL_CHECK_INTERVAL,
                    "cancellation must land within one check interval, got step {step}"
                );
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_cancels_mid_run() {
        let bus = small_bus(2);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("00", "11").unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = column(&sim, &pair, 2e-9, Some(&token)).unwrap_err();
        assert!(matches!(err, InterconnectError::Cancelled { .. }), "got {err:?}");
    }

    #[test]
    fn cancellable_run_with_live_token_is_bitwise_identical() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let plain = column(&sim, &pair, 2e-9, None).unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let gated = column(&sim, &pair, 2e-9, Some(&token)).unwrap();
        assert_eq!(plain, gated, "a live token must not perturb the waveforms");
    }

    /// Deterministic batch of `k` vector pairs over `wires` wires.
    fn test_pairs(wires: usize, k: usize) -> Vec<VectorPair> {
        (0..k)
            .map(|i| {
                let before: String =
                    (0..wires).map(|w| if (i >> (w % 8)) & 1 == 1 { '1' } else { '0' }).collect();
                let after: String = before
                    .chars()
                    .enumerate()
                    .map(|(w, c)| if w == i % wires { if c == '1' { '0' } else { '1' } } else { c })
                    .collect();
                VectorPair::from_strs(&before, &after).unwrap()
            })
            .collect()
    }

    /// Whether two panels hold the same traces, bit for bit.
    fn bitwise_panel(wp: &WavePanel, oracle: &WavePanel) -> Result<(), String> {
        let shape = |p: &WavePanel| (p.patterns(), p.wires(), p.samples());
        if shape(wp) != shape(oracle) {
            return Err(format!("shape {:?} vs {:?}", shape(wp), shape(oracle)));
        }
        for c in 0..wp.patterns() {
            for w in 0..wp.wires() {
                for (k, (a, b)) in wp.wire(c, w).iter().zip(oracle.wire(c, w)).enumerate() {
                    if a.to_bits() != b.to_bits() {
                        return Err(format!("pattern {c} wire {w} sample {k}: {a:e} != {b:e}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Panel widths covering every lane-block shape: a 1-lane block and
    /// each padded 2–3 remainder, alone and after full 4- and 8-lane
    /// blocks, an 8-lane block chained with a 4-lane one, and the
    /// n + 1 = 33 columns of a paper-grid step basis.
    const PANEL_WIDTHS: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 9, 12, 33];

    #[test]
    fn panel_run_bitwise_matches_looped_scalar_rc_and_rlc() {
        // Segment-major (5 wires on 8 segments, RLC 3 on 4) and
        // wire-major (5 on 4, RC and RLC 6 on 2) numberings.
        let wide = |l: f64| BusParams::dsm_bus(6).segments(2).l_per_mm(l).build().unwrap();
        let tall = BusParams::dsm_bus(5).segments(8).build().unwrap();
        for bus in [tall, small_bus(5), rlc_bus(3, 0.4e-9), wide(0.0), wide(0.4e-9)] {
            let sim = TransientSim::new(&bus, 2e-12).unwrap();
            let mut scratch = PanelScratch::new();
            for k in PANEL_WIDTHS {
                let pairs = test_pairs(bus.wires(), k);
                let wp = sim.run_pairs_cancellable(&pairs, 1e-9, &mut scratch, None).unwrap();
                let looped = looped_scalar(&sim, &pairs, 1e-9, &mut scratch, None).unwrap();
                bitwise_panel(&wp, &looped).unwrap();
            }
        }
    }

    /// Random RC or RLC bus parameters, drawn with equal odds from
    /// `wires > segments` (wire-major numbering) and `wires ≤ segments`
    /// (segment-major).
    fn arb_params(rng: &mut sint_runtime::rng::Rng64) -> BusParams {
        use sint_runtime::prop::gen;
        let (wires, segments) = if gen::bool_any(rng) {
            let wires = gen::usize_in(rng, 3..10);
            (wires, gen::usize_in(rng, 1..wires))
        } else {
            let segments = gen::usize_in(rng, 2..7);
            (gen::usize_in(rng, 2..segments + 1), segments)
        };
        let mut params = BusParams::dsm_bus(wires)
            .segments(segments)
            .r_per_mm(gen::f64_in(rng, 15.0..60.0))
            .cc_per_mm(gen::f64_in(rng, 10e-15..60e-15))
            .driver_r(gen::f64_in(rng, 60.0..240.0));
        if gen::bool_any(rng) {
            let l = gen::f64_in(rng, 0.2e-9..0.6e-9);
            params = params.l_per_mm(l).lm_per_mm(l * gen::f64_in(rng, 0.0..0.5));
        }
        params
    }

    /// Satellite acceptance property: over ≥48 random RC/RLC buses under
    /// both numberings and every lane-block shape — a 1-lane block, each
    /// padded 2–3 remainder, and the 33 columns of a paper-grid basis —
    /// the batched run is bitwise identical to looping the scalar engine.
    #[test]
    fn panel_run_bitwise_property_over_random_buses() {
        use sint_runtime::prop::{gen, Runner};
        let mut scratch = PanelScratch::new();
        Runner::new("panel_bitwise_random_buses").cases(48).run(
            |rng| {
                let params = arb_params(rng);
                let k = gen::one_of(rng, &PANEL_WIDTHS);
                (params, k)
            },
            |(params, k)| {
                let bus = params.clone().build().map_err(|e| e.to_string())?;
                let sim = TransientSim::new(&bus, 2e-12).map_err(|e| e.to_string())?;
                let pairs = test_pairs(bus.wires(), *k);
                let wp = sim
                    .run_pairs_cancellable(&pairs, 0.3e-9, &mut scratch, None)
                    .map_err(|e| e.to_string())?;
                let looped = looped_scalar(&sim, &pairs, 0.3e-9, &mut scratch, None)
                    .map_err(|e| e.to_string())?;
                bitwise_panel(&wp, &looped)
            },
        );
    }

    #[test]
    fn unknowns_are_numbered_along_the_shorter_axis() {
        let half_band = |wires: usize, segments: usize, l: f64| {
            let bus = BusParams::dsm_bus(wires).segments(segments).l_per_mm(l).build().unwrap();
            TransientSim::new(&bus, 2e-12).unwrap().half_bandwidth()
        };
        // RC: min(wires, segments) — the paper grid, the adaptive sweep
        // and the long chain's bus, then a segment-major golden-style bus.
        assert_eq!(half_band(32, 8, 0.0), Some(8));
        assert_eq!(half_band(32, 2, 0.0), Some(2));
        assert_eq!(half_band(8, 2, 0.0), Some(2));
        assert_eq!(half_band(2, 8, 0.0), Some(2));
        // RLC: 2·wires + 1 segment-major, max(2·segments, 3) wire-major.
        assert_eq!(half_band(3, 4, 0.4e-9), Some(7));
        assert_eq!(half_band(32, 8, 0.4e-9), Some(16));
        assert_eq!(half_band(6, 1, 0.4e-9), Some(3));
        let dense = TransientSim::with_backend(&small_bus(3), 2e-12, SolverBackend::Dense).unwrap();
        assert_eq!(dense.half_bandwidth(), None);
    }

    /// The layout `bus` gets under each numbering, whatever its shape.
    fn both_layouts(bus: &Bus) -> [Layout; 2] {
        let natural = Layout::banded(bus);
        let (w, s) = (bus.wires(), bus.segments());
        let (seg_major, wire_major) = ((1, w), (s, 1));
        [seg_major, wire_major].map(|(wire_stride, seg_stride)| Layout {
            wire_stride,
            seg_stride,
            ..natural
        })
    }

    /// The history matrix of `bus` under `layout`, in a band wide
    /// enough for any stamp.
    fn history_band(bus: &Bus, dt: f64, layout: &Layout) -> Banded {
        let (dim, band) = (layout.dim(), layout.half_bandwidth());
        let mut hist = Banded::zeros(dim, band, band);
        let node = |wire: usize, seg: usize| layout.node(wire, seg);
        if bus.has_inductance() {
            let branch = |wire: usize, seg: usize| layout.branch(wire, seg);
            stamp_rlc(bus, dt, &node, &branch, |_, _, _| {}, |_, _, _| {}, |i, j, v| {
                hist.add(i, j, v);
            });
        } else {
            stamp_cap_over_h(bus, dt, &node, |i, j, v| hist.add(i, j, v));
        }
        hist
    }

    #[test]
    fn history_kernel_bitwise_matches_banded_mul_over_random_buses() {
        use sint_runtime::prop::{gen, Runner};
        // On random RC and RLC history matrices under both numberings,
        // the three-diagonal kernel equals the full-band column sweep
        // bit for bit, scalar and 8 lanes wide, on states with exact
        // zeros (the sweep's skipped columns).
        Runner::new("history_kernel_matches_banded").cases(32).run(
            |rng| {
                let params = arb_params(rng);
                let seed = gen::u64_any(rng);
                (params, seed)
            },
            |(params, seed)| {
                let mut bus = params.clone().build().map_err(|e| e.to_string())?;
                crate::variation::apply_variation(
                    &mut bus,
                    crate::variation::VariationSigma::typical(),
                    *seed,
                )
                .map_err(|e| e.to_string())?;
                for layout in both_layouts(&bus) {
                    let band = history_band(&bus, 2e-12, &layout);
                    let diags = band.diagonals();
                    let kinds = if bus.has_inductance() { 2 } else { 1 };
                    let stride = (kinds * layout.wire_stride) as isize;
                    if bus.wires() > 1 && diags.offsets() != [-stride, 0, stride] {
                        return Err(format!("offsets {:?}, stride {stride}", diags.offsets()));
                    }
                    let n = layout.dim();
                    let x: Vec<f64> = (0..8 * n)
                        .map(|at| if at % 7 == 3 { 0.0 } else { ((at * 37) as f64).sin() })
                        .collect();
                    let mut lanes = vec![0.0; 8 * n];
                    diags.mul_interleaved_into::<8>(&x, &mut lanes);
                    for c in 0..8 {
                        let col: Vec<f64> = (0..n).map(|i| x[i * 8 + c]).collect();
                        let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
                        band.mul_vec_into(&col, &mut want);
                        diags.mul_interleaved_into::<1>(&col, &mut got);
                        for i in 0..n {
                            let lane = lanes[i * 8 + c];
                            if got[i].to_bits() != want[i].to_bits()
                                || lane.to_bits() != want[i].to_bits()
                            {
                                return Err(format!(
                                    "row {i} lane {c}: {} / {lane} vs {}",
                                    got[i], want[i]
                                ));
                            }
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn condition_estimate_is_independent_of_the_numbering() {
        use sint_runtime::prop::{gen, Runner};
        // The banded engine (segment- or wire-major by shape) and the
        // dense wire-major oracle number the unknowns differently; the
        // estimate is defined over (wire, segment, node-or-branch), so
        // both must read the same to rounding, in both regimes.
        Runner::new("condition_estimate_numbering").cases(48).run(
            |rng| {
                let params = arb_params(rng);
                let seed = gen::u64_any(rng);
                (params, seed)
            },
            |(params, seed)| {
                let mut bus = params.clone().build().map_err(|e| e.to_string())?;
                crate::variation::apply_variation(
                    &mut bus,
                    crate::variation::VariationSigma::typical(),
                    *seed,
                )
                .map_err(|e| e.to_string())?;
                let banded = TransientSim::new(&bus, 2e-12).map_err(|e| e.to_string())?;
                let dense = TransientSim::with_backend(&bus, 2e-12, SolverBackend::Dense)
                    .map_err(|e| e.to_string())?;
                let (b, d) = (banded.condition_estimate(), dense.condition_estimate());
                if (b - d).abs() <= 1e-9 * d.abs() {
                    Ok(())
                } else {
                    Err(format!("{}x{}: banded {b} vs dense {d}", bus.wires(), bus.segments()))
                }
            },
        );
    }

    /// A random defect on a random wire of a `wires × segments` bus:
    /// a resistive open, a weak driver or a coupling boost.
    fn arb_defect(rng: &mut sint_runtime::rng::Rng64, wires: usize, segments: usize) -> Defect {
        use sint_runtime::prop::gen;
        let wire = gen::usize_in(rng, 0..wires);
        match gen::usize_in(rng, 0..3) {
            0 => Defect::ResistiveOpen {
                wire,
                segment: gen::usize_in(rng, 0..segments),
                extra_ohms: gen::f64_in(rng, 200.0..5000.0),
            },
            1 => Defect::WeakDriver { wire, factor: gen::f64_in(rng, 1.5..8.0) },
            _ => Defect::CouplingBoost { wire, factor: gen::f64_in(rng, 1.5..8.0) },
        }
    }

    #[test]
    fn certified_stop_is_a_bitwise_prefix_within_its_bound() {
        use sint_runtime::prop::{gen, Runner};
        // Over random RC buses with a random defect, under both
        // numberings and random pairs at several panel widths: a run
        // with a stop rule keeps, for each pattern, exactly the rule's
        // length from its certified step — a bitwise prefix of the
        // full run — and every later sample of the full run lies within
        // the tolerance of the pattern's final DC level.
        let mut stopped = 0;
        Runner::new("certified_stop_prefix").cases(24).run(
            |rng| {
                let params = arb_params(rng).l_per_mm(0.0).lm_per_mm(0.0);
                let (wires, segments) = (params.clone().build().map_or(2, |b| b.wires()), 6);
                let defect = arb_defect(rng, wires, segments);
                let rule = StopRule {
                    tolerance: gen::f64_in(rng, 0.002..0.6),
                    min_samples: gen::usize_in(rng, 0..200),
                    tail_fraction: gen::one_of(rng, &[0.0, 0.1, 0.25]),
                };
                let k = gen::one_of(rng, &[1usize, 3, 5, 9]);
                let raw: Vec<bool> = (0..2 * 9 * k).map(|_| gen::bool_any(rng)).collect();
                (params, defect, rule, k, raw)
            },
            |(params, defect, rule, k, raw)| {
                let mut bus = params.clone().build().map_err(|e| e.to_string())?;
                let mut defect = *defect;
                if let Defect::ResistiveOpen { segment, .. } = &mut defect {
                    *segment %= bus.segments();
                }
                if defect.apply(&mut bus).is_err() {
                    return Ok(());
                }
                let w = bus.wires();
                let sim = TransientSim::new(&bus, 4e-12).map_err(|e| e.to_string())?;
                let level = |at: usize| crate::drive::DriveLevel::from(raw[at % raw.len()]);
                let pairs: Vec<VectorPair> = (0..*k)
                    .map(|i| {
                        let at = i * 2 * w;
                        VectorPair::new(
                            (at..at + w).map(level).collect(),
                            (at + w..at + 2 * w).map(level).collect(),
                        )
                    })
                    .collect();
                let mut scratch = PanelScratch::new();
                let duration = 1.6e-9;
                let full = sim
                    .run_pairs_cancellable(&pairs, duration, &mut scratch, None)
                    .map_err(|e| e.to_string())?;
                let horizon = Horizon { duration, stop: Some(*rule) };
                let cut = sim
                    .run_pairs_cancellable(&pairs, horizon, &mut scratch, None)
                    .map_err(|e| e.to_string())?;
                let samples = full.samples();
                for (c, pair) in pairs.iter().enumerate() {
                    let len = cut.samples_of(c);
                    let expect =
                        cut.certified_at(c).map_or(samples, |at| rule.stop_len(at).min(samples));
                    if len != expect {
                        return Err(format!("pattern {c}: {len} samples, rule gives {expect}"));
                    }
                    stopped += usize::from(len < samples);
                    let after: Vec<_> = (0..w).map(|wire| pair.after(wire)).collect();
                    let settled = VectorPair::new(after.clone(), after);
                    let mut finals = Vec::new();
                    sim.dc_receivers(&settled, &mut finals).map_err(|e| e.to_string())?;
                    for (wire, final_level) in finals.iter().enumerate() {
                        let (a, b) = (cut.wire(c, wire), full.wire(c, wire));
                        if a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
                            return Err(format!("pattern {c} wire {wire}: not a prefix"));
                        }
                        let Some(at) = cut.certified_at(c) else { continue };
                        if let Some((j, v)) = b
                            .iter()
                            .enumerate()
                            .skip(at)
                            .find(|(_, v)| (*v - final_level).abs() > rule.tolerance + 1e-12)
                        {
                            return Err(format!(
                                "pattern {c} wire {wire}: sample {j} = {v} strays past {} from \
                                 {final_level} after certification at {at}",
                                rule.tolerance
                            ));
                        }
                    }
                }
                Ok(())
            },
        );
        assert!(stopped > 0, "no pattern ever stopped early");
    }

    #[test]
    fn stop_len_keeps_the_tail_past_the_certified_step() {
        let rule =
            |min_samples, tail_fraction| StopRule { tolerance: 0.1, min_samples, tail_fraction };
        for (fraction, certified) in [(0.1, 374usize), (0.1, 0), (0.25, 1000), (0.0, 37)] {
            let len = rule(0, fraction).stop_len(certified);
            let start = crate::measure::tail_start;
            assert!(start(len, fraction) >= certified, "{fraction} {certified}: {len}");
            let least = len == certified + 1 || start(len - 1, fraction) < certified;
            assert!(least, "{fraction} {certified}: {len} is not the least length");
        }
        assert_eq!(rule(0, 0.1).stop_len(374), 416);
        assert_eq!(rule(500, 0.1).stop_len(374), 500);
        assert_eq!(rule(usize::MAX, 0.1).stop_len(374), usize::MAX);
        // No tail lies past a certified step: the full window, at once.
        for fraction in [1.0, 2.0, f64::NAN] {
            assert_eq!(rule(0, fraction).stop_len(374), usize::MAX, "{fraction}");
        }
        // A fraction just below 1 still answers without stepping there.
        let len = rule(0, 1.0 - f64::EPSILON).stop_len(374);
        assert!(crate::measure::tail_start(len, 1.0 - f64::EPSILON) >= 374, "{len}");
    }

    #[test]
    fn stop_rule_is_ignored_where_no_bound_is_proved() {
        // RLC buses, a node without ground capacitance and the dense
        // engine run the full window under any rule.
        let rule = StopRule { tolerance: 1.0, min_samples: 0, tail_fraction: 0.1 };
        let mut floating = small_bus(3);
        floating.cg_node[1][0] = 0.0;
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let horizon = Horizon { duration: 1e-9, stop: Some(rule) };
        for sim in [
            TransientSim::new(&rlc_bus(3, 0.4e-9), 2e-12).unwrap(),
            TransientSim::new(&floating, 2e-12).unwrap(),
            TransientSim::with_backend(&small_bus(3), 2e-12, SolverBackend::Dense).unwrap(),
        ] {
            let column = std::slice::from_ref(&pair);
            let wp =
                sim.run_pairs_cancellable(column, horizon, &mut PanelScratch::new(), None).unwrap();
            assert_eq!(wp.samples_of(0), wp.samples());
            assert_eq!(wp.certified_at(0), None);
            assert_eq!(wp.lane_steps(), (wp.samples() - 1) as u64);
        }
        // The healthy RC bus does stop, and counts fewer lane-steps.
        let sim = TransientSim::new(&small_bus(3), 2e-12).unwrap();
        let wp =
            sim.run_pairs_cancellable(&[pair], horizon, &mut PanelScratch::new(), None).unwrap();
        assert!(wp.samples_of(0) < wp.samples(), "{} samples", wp.samples_of(0));
        assert_eq!(wp.lane_steps(), (wp.samples_of(0) - 1) as u64);
    }

    #[test]
    fn receiver_gain_matches_the_dense_inverse() {
        // The O(wires) two-sided elimination against a dense inverse of
        // the receiver segment's capacitance block.
        let mut bus = BusParams::dsm_bus(5).segments(3).build().unwrap();
        crate::defect::Defect::CouplingBoost { wire: 2, factor: 6.0 }.apply(&mut bus).unwrap();
        let last = bus.segments() - 1;
        let mut c = Matrix::zeros(5);
        for i in 0..5 {
            c[(i, i)] += bus.cg_node[i][last] + bus.receiver_c;
        }
        for pair in 0..4 {
            let cc = bus.cc_node[pair][last];
            c[(pair, pair)] += cc;
            c[(pair + 1, pair + 1)] += cc;
            c[(pair, pair + 1)] -= cc;
            c[(pair + 1, pair)] -= cc;
        }
        let lu = c.lu().unwrap();
        let max_inv = (0..5)
            .map(|i| {
                let mut e = vec![0.0; 5];
                e[i] = 1.0;
                lu.solve_into(&mut e);
                e[i]
            })
            .fold(0.0, f64::max);
        let gain = receiver_gain(&bus).unwrap();
        assert!((gain - max_inv.sqrt()).abs() <= 1e-12 * gain, "{gain} vs {}", max_inv.sqrt());
    }

    #[test]
    fn undriven_rc_bus_never_gains_energy() {
        // Passivity: once every source ramp has ended, the error
        // e_k = v_k − DC(after) of a pure-RC bus obeys
        // (G + C/h)·e_k = (C/h)·e_{k−1} with G and C symmetric positive
        // (semi)definite, so backward Euler can only dissipate it:
        // e_kᵀ·C·e_k ≤ e_{k−1}ᵀ·C·e_{k−1}. Checked on the full state of
        // random buses in both numbering regimes (`arb_params`), with
        // the inductance stripped.
        assert_never_gains_energy("rc_passivity", false, |rng| {
            arb_params(rng).l_per_mm(0.0).lm_per_mm(0.0)
        });
    }

    #[test]
    fn undriven_rlc_bus_never_gains_energy() {
        use sint_runtime::prop::gen;
        // The same for RLC buses, mutual inductance included, with the
        // energy ½·vᵀ·C·v + ½·iᵀ·L·i of the error state: multiplying the
        // node rows of (A)·e_k = H·e_{k−1} by v_k and the branch rows by
        // −i_k leaves ‖e_k‖²_E + i_kᵀ·R·i_k = ⟨e_k, e_{k−1}⟩_E with
        // E = diag(C, L)/h, L symmetric positive definite (M < L/2).
        assert_never_gains_energy("rlc_passivity", true, |rng| {
            let l = gen::f64_in(rng, 0.2e-9..0.6e-9);
            arb_params(rng).l_per_mm(l).lm_per_mm(l * gen::f64_in(rng, 0.0..0.5))
        });
    }

    /// Over 32 random buses from `params` (with series inductance iff
    /// `inductive`) and random pairs: after the
    /// ramp has ended, the error energy of the full state never grows
    /// from one step to the next, down to a billionth of the energy the
    /// ramp left, where rounding starts to dominate. The energy is
    /// `dt·Σ ± e_i·(H·e)_i`, the history matrix `H` holding `C/h` on
    /// node rows and `−L/h`, `−M/h` on branch rows.
    fn assert_never_gains_energy(
        name: &str,
        inductive: bool,
        params: impl Fn(&mut sint_runtime::rng::Rng64) -> BusParams,
    ) {
        use sint_runtime::prop::{gen, Runner};
        Runner::new(name).cases(32).run(
            |rng| (params(rng), gen::u64_any(rng)),
            |(params, bits)| {
                let bus = params.clone().build().map_err(|e| e.to_string())?;
                if bus.has_inductance() != inductive {
                    return Err(format!("inductance {} where {inductive} was asked", !inductive));
                }
                let dt = 2e-12;
                let sim = TransientSim::new(&bus, dt).map_err(|e| e.to_string())?;
                let Engine::Banded(sys) = &sim.engine else {
                    return Err("every bus runs on the banded engine".into());
                };
                let mut sign = vec![1.0; sys.dim];
                for (i, _, _, branch) in sys.layout.unknowns() {
                    if branch {
                        sign[i] = -1.0;
                    }
                }
                let n = bus.wires();
                let level = |bit: usize| crate::drive::DriveLevel::from(bits >> bit & 1 == 1);
                let pair = VectorPair::new(
                    (0..n).map(level).collect(),
                    (0..n).map(|w| level(32 + w)).collect(),
                );
                let stimulus =
                    Stimulus::from_pair(&bus, &pair, sim.switch_at()).map_err(|e| e.to_string())?;
                let ramp_end = stimulus.settles_at();
                let mut dc_after = vec![0.0; sys.dim];
                sys.stamp(&stimulus, 2.0 * ramp_end, &mut dc_after, 1, 0);
                sys.dc_lu.solve_into(&mut dc_after);
                let mut scratch = (vec![0.0; sys.dim], vec![0.0; sys.dim]);
                let mut energy = |state: &[f64]| {
                    let (e, he) = &mut scratch;
                    for ((e, v), dc) in e.iter_mut().zip(state).zip(&dc_after) {
                        *e = v - dc;
                    }
                    sys.hist.mul_vec_into(e, he);
                    let terms = e.iter().zip(he.iter()).zip(&sign);
                    terms.map(|((e, he), s)| s * e * he * dt).sum::<f64>()
                };
                let mut state = vec![0.0; sys.dim];
                sys.stamp(&stimulus, 0.0, &mut state, 1, 0);
                sys.dc_lu.solve_into(&mut state);
                let mut rhs = vec![0.0; sys.dim];
                let (mut prev, mut floor) = (energy(&state), None);
                for k in 1..=1000 {
                    let t = k as f64 * dt;
                    sys.hist.mul_vec_into(&state, &mut rhs);
                    sys.stamp(&stimulus, t, &mut rhs, 1, 0);
                    sys.a_lu.solve_into(&mut rhs);
                    std::mem::swap(&mut state, &mut rhs);
                    let now = energy(&state);
                    if (k - 1) as f64 * dt > ramp_end {
                        let floor = *floor.get_or_insert(1e-18 * prev);
                        if prev > floor && now > prev * (1.0 + 1e-12) {
                            return Err(format!(
                                "{}x{} {pair}: step {k} energy {now:e} after {prev:e}",
                                n,
                                bus.segments()
                            ));
                        }
                    }
                    prev = now;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn empty_panel_is_a_valid_run() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let wp = sim.run_pairs_cancellable(&[], 1e-9, &mut PanelScratch::new(), None).unwrap();
        assert_eq!(wp.patterns(), 0);
        assert_eq!(wp.wires(), 3);
        assert!(wp.samples() > 1);
    }

    #[test]
    fn panel_rejects_bad_inputs_like_scalar() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        assert!(sim.run_pairs_cancellable(&[], 0.0, &mut PanelScratch::new(), None).is_err());
        let wrong = test_pairs(2, 1);
        assert!(matches!(
            sim.run_pairs_cancellable(&wrong, 1e-9, &mut PanelScratch::new(), None),
            Err(InterconnectError::WireOutOfRange { .. })
        ));
    }

    #[test]
    fn panel_cancellation_matches_scalar_step() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pairs = test_pairs(3, 5);
        let scalar_step = {
            let token = CancelToken::with_deadline(std::time::Duration::ZERO);
            match looped_scalar(&sim, &pairs[..1], 2e-9, &mut PanelScratch::new(), Some(&token)) {
                Err(InterconnectError::Cancelled { step }) => step,
                other => panic!("expected Cancelled, got {other:?}"),
            }
        };
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        match sim.run_pairs_cancellable(&pairs, 2e-9, &mut PanelScratch::new(), Some(&token)) {
            Err(InterconnectError::Cancelled { step }) => {
                assert_eq!(step, scalar_step, "panel must cancel at the scalar step");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn diverging_panel_reports_the_scalar_error() {
        let mut bus = small_bus(3);
        crate::defect::Defect::CouplingBoost { wire: 1, factor: 1e300 }.apply(&mut bus).unwrap();
        let dt = 1e-300;
        let sim = TransientSim::new(&bus, dt).unwrap();
        let pairs = test_pairs(3, 4);
        let oracle = scalar(&sim, &pairs[0], 4.0 * dt).unwrap_err();
        let panel = sim
            .run_pairs_cancellable(&pairs, 4.0 * dt, &mut PanelScratch::new(), None)
            .unwrap_err();
        // The sequential fallback replays pattern by pattern, so the
        // reported divergence is exactly the scalar one.
        assert_eq!(panel, oracle);
    }

    #[test]
    fn one_column_panel_fails_exactly_like_the_scalar_loop() {
        // A pattern solved alone is a one-column panel: a pre-cancelled
        // token and a diverging bus must fail it with exactly the scalar
        // loop's `Cancelled { step }` and `Diverged { step, unknown }`.
        let sim = TransientSim::new(&small_bus(3), 2e-12).unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let oracle = looped_scalar(
            &sim,
            std::slice::from_ref(&pair),
            2e-9,
            &mut PanelScratch::new(),
            Some(&token),
        );
        assert_eq!(oracle, Err(InterconnectError::Cancelled { step: CANCEL_CHECK_INTERVAL }));
        assert_eq!(column(&sim, &pair, 2e-9, Some(&token)), oracle);

        for mut bus in [small_bus(3), rlc_bus(3, 0.4e-9)] {
            crate::defect::Defect::CouplingBoost { wire: 1, factor: 1e300 }
                .apply(&mut bus)
                .unwrap();
            let dt = 1e-300;
            let sim = TransientSim::new(&bus, dt).unwrap();
            let pair = VectorPair::from_strs("000", "010").unwrap();
            let oracle = scalar(&sim, &pair, 4.0 * dt);
            assert!(matches!(oracle, Err(InterconnectError::Diverged { .. })), "{oracle:?}");
            assert_eq!(column(&sim, &pair, 4.0 * dt, None), oracle);
        }
    }

    #[test]
    fn panel_transients_bitwise_match_looped_scalar_runs() {
        use sint_runtime::prop::{gen, Runner};
        // The lane kernels hoist every factor load across a block's
        // columns but perform each column's FLOPs in the scalar order,
        // so on finite systems every receiver trace is *bitwise* the
        // scalar loop's — at every panel width: a 1-lane block and each
        // 2–3 remainder padded into a 4-lane block, alone and after full
        // 4- and 8-lane blocks, the 33 columns of a paper-grid basis and the
        // full 12·n MA batch of a victim — under both numberings, on
        // buses with per-element process variation.
        Runner::new("panel_matches_looped_scalar").cases(48).run(
            |rng| {
                let params = arb_params(rng);
                let seed = gen::u64_any(rng);
                // Enough random levels for 24 distinct vector pairs.
                let raw: Vec<bool> = (0..2 * 24 * 9).map(|_| gen::bool_any(rng)).collect();
                (params, seed, raw)
            },
            |(params, seed, raw)| {
                let mut bus = params.clone().build().map_err(|e| e.to_string())?;
                crate::variation::apply_variation(
                    &mut bus,
                    crate::variation::VariationSigma::typical(),
                    *seed,
                )
                .map_err(|e| e.to_string())?;
                let w = bus.wires();
                let sim = TransientSim::new(&bus, 4e-12).map_err(|e| e.to_string())?;
                let level = |at: usize| crate::drive::DriveLevel::from(raw[at]);
                let pair_at = |i: usize| {
                    let at = (i % 24) * 2 * w;
                    VectorPair::new(
                        (at..at + w).map(level).collect(),
                        (at + w..at + 2 * w).map(level).collect(),
                    )
                };
                let max_k = (12 * w).max(33);
                let pairs: Vec<VectorPair> = (0..max_k).map(pair_at).collect();
                let mut scratch = PanelScratch::new();
                for k in [1usize, 2, 3, 5, 7, 9, 33, max_k] {
                    let panel = sim
                        .run_pairs_cancellable(&pairs[..k], 0.1e-9, &mut scratch, None)
                        .map_err(|e| e.to_string())?;
                    let looped = looped_scalar(&sim, &pairs[..k], 0.1e-9, &mut scratch, None)
                        .map_err(|e| e.to_string())?;
                    bitwise_panel(&panel, &looped)
                        .map_err(|e| format!("panel width {k} ({w}x{}): {e}", bus.segments()))?;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn panel_scratch_reuse_across_widths_is_bitwise_stable() {
        let bus = small_bus(4);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let mut scratch = PanelScratch::new();
        let pairs = test_pairs(4, 8);
        let first = sim.run_pairs_cancellable(&pairs, 1e-9, &mut scratch, None).unwrap();
        // Interleave a narrower batch, then rerun the original.
        let narrow = test_pairs(4, 3);
        let _ = sim.run_pairs_cancellable(&narrow, 1e-9, &mut scratch, None).unwrap();
        let again = sim.run_pairs_cancellable(&pairs, 1e-9, &mut scratch, None).unwrap();
        assert_eq!(first, again);
    }

    fn assert_bad_time_axis<T: std::fmt::Debug>(result: Result<T, InterconnectError>, what: &str) {
        match result {
            Err(InterconnectError::BadTimeAxis { .. }) => {}
            other => panic!("{what}: expected BadTimeAxis, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_timestep_is_rejected() {
        let bus = small_bus(2);
        for dt in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1e-12] {
            assert_bad_time_axis(TransientSim::new(&bus, dt), &format!("dt {dt}"));
            assert_bad_time_axis(
                TransientSim::with_backend(&bus, dt, SolverBackend::Dense),
                &format!("dense dt {dt}"),
            );
        }
    }

    #[test]
    fn non_finite_or_oversized_durations_are_rejected_on_every_entry() {
        let bus = small_bus(2);
        let sim = TransientSim::new(&bus, 1e-12).unwrap();
        let pair = VectorPair::from_strs("00", "11").unwrap();
        // 1 s at 1 ps is 10¹² steps: far past MAX_STEPS, and finite.
        for duration in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1e-9, 1.0, f64::MAX] {
            let what = format!("duration {duration}");
            assert_bad_time_axis(scalar(&sim, &pair, duration), &what);
            assert_bad_time_axis(column(&sim, &pair, duration, None), &what);
        }
    }

    #[test]
    fn step_count_boundaries() {
        let bus = small_bus(2);
        let sim = TransientSim::new(&bus, 1e-12).unwrap();
        assert_eq!(sim.steps(1e-9), Ok(1000), "epsilon guard keeps the paper window exact");
        assert_eq!(sim.steps(1e-15), Ok(1), "a sub-step duration still takes one step");
        // A power-of-two dt makes the boundary quotients exact.
        let dt = 2f64.powi(-40);
        let pow2 = TransientSim::new(&bus, dt).unwrap();
        let top = (MAX_STEPS - 1) as f64 * dt;
        assert_eq!(pow2.steps(top), Ok(MAX_STEPS - 1), "the largest accepted run");
        assert_bad_time_axis(pow2.steps(top + dt), "one step past MAX_STEPS");
        // A tiny dt can overflow the quotient to infinity; the saturating
        // cast plus the checked sample count still refuse it.
        let tiny = TransientSim::new(&bus, 1e-300).unwrap();
        assert_bad_time_axis(tiny.steps(1e10), "overflowing quotient");
    }
}
