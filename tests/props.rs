//! Property-based tests over the workspace's core data structures and
//! invariants, running on the in-tree `sint_runtime::prop` harness.
//!
//! Each `#[test]` wraps one property; a failure panics with the harness
//! seed, case index, and generated input so it can be replayed exactly.

use sint::core::adaptive::{AdaptiveCheckpoint, AdaptiveConfig};
use sint::core::campaign::{Campaign, Trial};
use sint::core::checkpoint::CampaignCheckpoint;
use sint::core::degrade::{ChainPolicy, DegradationEvent};
use sint::core::describe::{si_cell_factory, soc_description_text};
use sint::core::error::CoreError;
use sint::core::instructions::extended_instruction_set;
use sint::core::mafm::{
    classify_pair, classify_pair_masked, fault_pair, pgbsc_vector, CoverageLedger,
    CoverageReport, IntegrityFault,
};
use sint::core::nd::{NdThresholds, NoiseDetector};
use sint::core::obsc::{recombined_response, Obsc, RecombineScratch, GUARD_EPS};
use sint::core::pgbsc::Pgbsc;
use sint::core::sd::{SdWindow, SkewDetector};
use sint::core::session::{ObservationMethod, SessionConfig};
use sint::core::soc::SocBuilder;
use sint::interconnect::defect::Defect;
use sint::interconnect::drive::{DriveLevel, VectorPair};
use sint::interconnect::linalg::Matrix;
use sint::interconnect::params::BusParams;
use sint::interconnect::solver::{Horizon, PanelScratch, SolverBackend, TransientSim};
use sint::interconnect::basis::CHUNK;
use sint::interconnect::{InterconnectError, StepBasis};
use sint::interconnect::variation::{apply_variation, SplitMix64, VariationSigma};
use sint::jtag::bcell::{BoundaryCell, BoundaryRegister, CellControl, StandardBsc};
use sint::jtag::bsdl::{DeviceDescription, MAX_CELLS};
use sint::jtag::chain::Chain;
use sint::jtag::device::Device;
use sint::jtag::driver::{JtagDriver, ScanOp};
use sint::jtag::error::JtagError;
use sint::jtag::fault::ScanFault;
use sint::jtag::integrity::QuarantineSet;
use sint::jtag::register::IdcodeRegister;
use sint::jtag::state::TapState;
use sint::jtag::svf::{mask_hex, scan_hex};
use sint::fleet::{
    replay_summary_recovered, ClientSpec, FleetCheckpoint, FleetEngine, FleetError, FloorSpec,
    JsonlSink, NullSink,
};
use sint::logic::{BitVector, Logic};
use sint::runtime::backoff::BackoffPolicy;
use sint::runtime::durable::{frame, scan_frames, GenPair};
use sint::runtime::cancel::CancelToken;
use sint::runtime::json::{Json, ToJson};
use sint::runtime::pool::Pool;
use sint::runtime::prop::{gen, Runner};
use sint::runtime::rng::Rng64;

const LOGIC_VALUES: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

fn arb_logic(rng: &mut Rng64) -> Logic {
    gen::one_of(rng, &LOGIC_VALUES)
}

fn arb_bits(rng: &mut Rng64, max_len: usize) -> Vec<Logic> {
    gen::vec_of(rng, 0..max_len, arb_logic)
}

fn check(ok: bool, msg: impl Fn() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

fn check_eq<T: PartialEq + std::fmt::Debug>(a: T, b: T) -> Result<(), String> {
    check(a == b, || format!("{a:?} != {b:?}"))
}

// ---------------- Logic algebra ----------------

#[test]
fn logic_ops_commute() {
    Runner::new("logic_ops_commute").run(
        |rng| (arb_logic(rng), arb_logic(rng)),
        |&(a, b)| {
            check_eq(a & b, b & a)?;
            check_eq(a | b, b | a)?;
            check_eq(a ^ b, b ^ a)?;
            check_eq(a.resolve(b), b.resolve(a))
        },
    );
}

#[test]
fn logic_ops_associate() {
    Runner::new("logic_ops_associate").run(
        |rng| (arb_logic(rng), arb_logic(rng), arb_logic(rng)),
        |&(a, b, c)| {
            check_eq((a & b) & c, a & (b & c))?;
            check_eq((a | b) | c, a | (b | c))
        },
    );
}

#[test]
fn double_negation_collapses_to_input_view() {
    // !!a equals a for binary values and X for X/Z.
    Runner::new("double_negation").run(arb_logic, |&a| check_eq(!!a, a.as_input()));
}

// ---------------- BitVector scan semantics ----------------

#[test]
fn shift_preserves_length() {
    Runner::new("shift_preserves_length").run(
        |rng| (arb_bits(rng, 64), arb_logic(rng)),
        |(bits, tdi)| {
            let mut v: BitVector = bits.iter().copied().collect();
            let len = v.len();
            let _ = v.shift(*tdi);
            check_eq(v.len(), len)
        },
    );
}

#[test]
fn full_shift_in_replaces_content_exactly() {
    Runner::new("full_shift_in").run(
        |rng| {
            let len = gen::usize_in(rng, 0..48);
            let old: Vec<Logic> = (0..len).map(|_| arb_logic(rng)).collect();
            let new: Vec<Logic> = (0..len).map(|_| arb_logic(rng)).collect();
            (old, new)
        },
        |(old, new)| {
            let mut chain: BitVector = old.iter().copied().collect();
            let incoming: BitVector = new.iter().copied().collect();
            let out = chain.shift_in(&incoming);
            // Everything that was in the chain left, in order.
            check_eq(out.as_slice(), &old[..])?;
            // The chain now holds exactly the new data.
            check_eq(chain.as_slice(), &new[..])
        },
    );
}

#[test]
fn display_parse_round_trip() {
    Runner::new("display_parse_round_trip").run(
        |rng| arb_bits(rng, 64),
        |bits| {
            let v: BitVector = bits.iter().copied().collect();
            let parsed: BitVector = v.to_string().parse().unwrap();
            check_eq(parsed, v)
        },
    );
}

#[test]
fn u64_round_trip() {
    Runner::new("u64_round_trip").run(
        |rng| (gen::u64_any(rng), gen::usize_in(rng, 1..65)),
        |&(value, len)| {
            let masked = if len == 64 { value } else { value & ((1u64 << len) - 1) };
            let v = BitVector::from_u64(masked, len);
            check_eq(v.to_u64(), Some(masked))
        },
    );
}

// ---------------- TAP controller ----------------

#[test]
fn five_ones_always_reset() {
    Runner::new("five_ones_always_reset").run(
        |rng| (gen::usize_in(rng, 0..16), gen::vec_of(rng, 0..32, gen::bool_any)),
        |(start, walk)| {
            let mut s = TapState::ALL[*start];
            for &tms in walk {
                s = s.next(tms);
            }
            for _ in 0..5 {
                s = s.next(true);
            }
            check_eq(s, TapState::TestLogicReset)
        },
    );
}

#[test]
fn shift_states_self_loop_on_zero() {
    Runner::new("shift_states_self_loop").cases(16).run(
        |rng| gen::usize_in(rng, 0..16),
        |&start| {
            let s = TapState::ALL[start];
            if matches!(
                s,
                TapState::ShiftDr
                    | TapState::ShiftIr
                    | TapState::RunTestIdle
                    | TapState::PauseDr
                    | TapState::PauseIr
                    | TapState::TestLogicReset
            ) {
                check_eq(s.next(false).next(false), s.next(false))?;
            }
            Ok(())
        },
    );
}

// ---------------- Boundary register shift stage ----------------

/// The per-cell ripple register that the packed shift stage replaced,
/// kept as the oracle: every clock walks every cell, and a stuck segment
/// overwrites the bit leaving its cell.
struct RippleRegister {
    cells: Vec<Box<dyn BoundaryCell + Send>>,
    stuck: Option<(usize, Logic)>,
}

impl RippleRegister {
    fn shift(&mut self, tdi: Logic, ctrl: &CellControl) -> Logic {
        let mut bit = tdi;
        for (i, c) in self.cells.iter_mut().enumerate() {
            bit = c.shift(bit, ctrl);
            if let Some((cell, level)) = self.stuck {
                if cell == i {
                    bit = level;
                }
            }
        }
        bit
    }
}

#[derive(Debug, Clone, Copy)]
enum CellKind {
    Standard,
    Pgbsc,
    Obsc,
}

fn make_cell(kind: CellKind) -> Box<dyn BoundaryCell + Send> {
    match kind {
        CellKind::Standard => Box::new(StandardBsc::new()),
        CellKind::Pgbsc => Box::new(Pgbsc::new()),
        CellKind::Obsc => {
            Box::new(Obsc::new(NdThresholds::for_vdd(1.8), SdWindow::for_vdd(500e-12, 1.8)))
        }
    }
}

/// How a shift burst ends: the TAP's explicit end, a cell access that
/// ends it implicitly, or nothing (the next operation ends it, or the
/// next burst continues it).
#[derive(Debug, Clone, Copy)]
enum BurstEnd {
    Explicit,
    CellAccess,
    Deferred,
}

/// How a run of Shift-DR clocks reaches the register: one
/// `BoundaryRegister::shift` call, or `k` clocks at once through
/// `BoundaryRegister::shift_burst`.
#[derive(Debug, Clone, Copy)]
enum Clocks {
    Single,
    Burst(usize),
}

/// Splits `bits` clocks into single shifts and bursts shorter than,
/// equal to and longer than the register's `len` cells, with an empty
/// burst now and then.
fn arb_clocks(rng: &mut Rng64, bits: usize, len: usize) -> Vec<Clocks> {
    let mut left = bits;
    let mut clocks = Vec::new();
    while left > 0 {
        let k = match gen::usize_in(rng, 0..6) {
            0 => {
                clocks.push(Clocks::Single);
                left -= 1;
                continue;
            }
            1 => gen::usize_in(rng, 0..len + 1),
            2 => len,
            3 => len + 1 + gen::usize_in(rng, 0..len + 2),
            _ => left,
        };
        let k = k.min(left);
        clocks.push(Clocks::Burst(k));
        left -= k;
    }
    clocks
}

#[derive(Debug, Clone)]
enum RegisterOp {
    Pin(usize, Logic),
    Capture(CellControl),
    Shift(Vec<Logic>, Vec<Clocks>, CellControl, BurstEnd),
    Update(CellControl),
    UpdatePulses(usize, CellControl),
    Reset,
    Stuck(Option<(usize, Logic)>),
}

fn arb_ctrl(rng: &mut Rng64) -> CellControl {
    CellControl {
        mode: gen::bool_any(rng),
        shift_dr: false,
        si: gen::bool_any(rng),
        ce: gen::bool_any(rng),
        nd_sd: gen::bool_any(rng),
    }
}

fn arb_register_op(rng: &mut Rng64, len: usize) -> RegisterOp {
    match gen::usize_in(rng, 0..10) {
        0 => RegisterOp::Pin(gen::usize_in(rng, 0..len.max(1)), arb_logic(rng)),
        1 => RegisterOp::Capture(arb_ctrl(rng)),
        2..=4 => {
            // Full scans, partial shifts and over-long shifts.
            let bits = match gen::usize_in(rng, 0..3) {
                0 => len,
                1 => gen::usize_in(rng, 0..len + 1),
                _ => gen::usize_in(rng, len..2 * len + 3),
            };
            let clocks = arb_clocks(rng, bits, len);
            let ctrl = CellControl { shift_dr: true, ..arb_ctrl(rng) };
            let end =
                gen::one_of(rng, &[BurstEnd::Explicit, BurstEnd::CellAccess, BurstEnd::Deferred]);
            RegisterOp::Shift((0..bits).map(|_| arb_logic(rng)).collect(), clocks, ctrl, end)
        }
        5 => RegisterOp::Update(arb_ctrl(rng)),
        6 => RegisterOp::UpdatePulses(gen::usize_in(rng, 1..5), arb_ctrl(rng)),
        7 => RegisterOp::Reset,
        _ => {
            // Stuck segments at the first, middle and last cell, out of
            // range, or cleared.
            let cell = match gen::usize_in(rng, 0..5) {
                0 => Some(0),
                1 => Some(len / 2),
                2 => Some(len.saturating_sub(1)),
                3 => Some(len + gen::usize_in(rng, 0..3)),
                _ => None,
            };
            let level = gen::one_of(rng, &[Logic::Zero, Logic::One]);
            RegisterOp::Stuck(cell.map(|c| (c, level)))
        }
    }
}

fn same_cells(reg: &BoundaryRegister, oracle: &RippleRegister) -> Result<(), String> {
    check_eq(reg.len(), oracle.cells.len())?;
    let probes = [CellControl::default(), CellControl { mode: true, ..CellControl::default() }];
    for (i, want) in oracle.cells.iter().enumerate() {
        let got = reg.cell(i).map_err(|e| e.to_string())?;
        check(got.scan_bit() == want.scan_bit(), || {
            format!("cell {i}: scan_bit {:?} != {:?}", got.scan_bit(), want.scan_bit())
        })?;
        for probe in &probes {
            check(got.output(probe) == want.output(probe), || {
                format!("cell {i}: output {:?} != {:?}", got.output(probe), want.output(probe))
            })?;
        }
        // Hidden state too (FF3 dividers, pins): the full Debug image.
        check_eq(format!("{got:?}"), format!("{want:?}"))?;
    }
    Ok(())
}

#[test]
fn packed_shift_stage_matches_the_ripple_oracle() {
    // The register-owned shift stage must be invisible: across random
    // chains of standard, PGBSC and OBSC cells and random interleavings
    // of capture, full and partial shift bursts, update, update pulses,
    // reset and stuck-segment changes, the TDO stream and every cell's
    // state at every burst end equal the per-cell ripple loop's. Each
    // burst's clocks arrive as single shifts interleaved with
    // `shift_burst` calls shorter than, equal to and longer than the
    // register.
    Runner::new("packed_shift_matches_ripple").run(
        |rng| {
            let kinds = gen::vec_of(rng, 0..24, |rng| {
                gen::one_of(rng, &[CellKind::Standard, CellKind::Pgbsc, CellKind::Obsc])
            });
            let len = kinds.len();
            let ops = gen::vec_of(rng, 0..40, |rng| arb_register_op(rng, len));
            (kinds, ops)
        },
        |(kinds, ops)| {
            let mut reg = BoundaryRegister::new();
            let mut oracle = RippleRegister { cells: Vec::new(), stuck: None };
            for &kind in kinds {
                reg.push(make_cell(kind));
                oracle.cells.push(make_cell(kind));
            }
            for (step, op) in ops.iter().enumerate() {
                let mut settled = true;
                match op {
                    RegisterOp::Pin(i, v) => {
                        if let Ok(c) = reg.cell_mut(*i) {
                            c.set_parallel_input(*v);
                        }
                        if let Some(c) = oracle.cells.get_mut(*i) {
                            c.set_parallel_input(*v);
                        }
                    }
                    RegisterOp::Capture(ctrl) => {
                        reg.capture(ctrl);
                        oracle.cells.iter_mut().for_each(|c| c.capture(ctrl));
                    }
                    RegisterOp::Shift(bits, clocks, ctrl, end) => {
                        let mut got = Vec::with_capacity(bits.len());
                        for &run in clocks {
                            let at = got.len();
                            match run {
                                Clocks::Single => got.push(reg.shift(bits[at], ctrl)),
                                Clocks::Burst(k) => {
                                    got.extend_from_slice(&bits[at..at + k]);
                                    reg.shift_burst(&mut got[at..], ctrl);
                                }
                            }
                        }
                        let want: Vec<Logic> =
                            bits.iter().map(|&b| oracle.shift(b, ctrl)).collect();
                        check(got == want, || format!("op {step}: TDO {got:?} != {want:?}"))?;
                        match end {
                            BurstEnd::Explicit => reg.end_shift(),
                            BurstEnd::CellAccess => {
                                let _ = reg.cell_mut(0);
                            }
                            BurstEnd::Deferred => settled = false,
                        }
                    }
                    RegisterOp::Update(ctrl) => {
                        reg.update(ctrl);
                        oracle.cells.iter_mut().for_each(|c| c.update(ctrl));
                    }
                    RegisterOp::UpdatePulses(n, ctrl) => {
                        for _ in 0..*n {
                            reg.capture(ctrl);
                            reg.update(ctrl);
                            for c in &mut oracle.cells {
                                c.capture(ctrl);
                                c.update(ctrl);
                            }
                        }
                    }
                    RegisterOp::Reset => {
                        reg.reset();
                        oracle.cells.iter_mut().for_each(|c| c.reset());
                    }
                    RegisterOp::Stuck(Some((cell, level))) => {
                        reg.inject_stuck_segment(*cell, *level);
                        oracle.stuck = Some((*cell, *level));
                    }
                    RegisterOp::Stuck(None) => {
                        reg.clear_stuck_segment();
                        oracle.stuck = None;
                    }
                }
                check_eq(reg.stuck_segment(), oracle.stuck)?;
                if settled {
                    same_cells(&reg, &oracle).map_err(|e| format!("after op {step}: {e}"))?;
                }
            }
            reg.end_shift();
            same_cells(&reg, &oracle)
        },
    );
}

// ---------------- Whole-scan bursts ----------------

/// The driver's scan sequence clocked one `Chain::step` per TCK, as it
/// ran before scans reached the chain as one burst: the oracle for
/// `scan_bursts_match_per_tck_stepping`.
struct SteppedDriver {
    chain: Chain,
    recording: Option<Vec<ScanOp>>,
}

impl SteppedDriver {
    fn record(&mut self, op: ScanOp) {
        if let Some(log) = &mut self.recording {
            log.push(op);
        }
    }

    fn reset(&mut self) {
        for _ in 0..5 {
            self.chain.step(true, Logic::Zero);
        }
        self.chain.step(false, Logic::Zero);
        self.record(ScanOp::Reset);
    }

    fn ensure_idle(&mut self) {
        if self.chain.state() != TapState::RunTestIdle {
            self.reset();
        }
    }

    fn shift_from_idle(&mut self, ir: bool, bits: &BitVector) -> BitVector {
        self.ensure_idle();
        self.chain.step(true, Logic::Zero);
        if ir {
            self.chain.step(true, Logic::Zero);
        }
        self.chain.step(false, Logic::Zero);
        self.chain.step(false, Logic::Zero);
        let len = bits.len();
        let out: BitVector =
            bits.iter().enumerate().map(|(i, bit)| self.chain.step(i + 1 == len, bit)).collect();
        self.chain.step(true, Logic::Zero);
        self.chain.step(false, Logic::Zero);
        let (tdi, tdo) = (bits.clone(), out.clone());
        self.record(if ir { ScanOp::ScanIr { tdi, tdo } } else { ScanOp::ScanDr { tdi, tdo } });
        out
    }

    fn scan(&mut self, ir: bool, bits: &BitVector) -> Result<BitVector, JtagError> {
        let expected =
            if ir { self.chain.total_ir_width() } else { self.chain.selected_dr_len() };
        if bits.len() != expected {
            return Err(JtagError::ScanWidth { expected, got: bits.len() });
        }
        Ok(self.shift_from_idle(ir, bits))
    }

    fn pulse_update_dr(&mut self, count: usize) {
        self.ensure_idle();
        for _ in 0..count {
            for tms in [true, false, true, true, false] {
                self.chain.step(tms, Logic::Zero);
            }
        }
        self.record(ScanOp::UpdatePulses { count });
    }
}

#[derive(Debug, Clone)]
struct DeviceSpec {
    cells: Vec<CellKind>,
    idcode: bool,
}

/// How long a DR shift is against the selected register's length.
#[derive(Debug, Clone, Copy)]
enum Fit {
    Exact,
    /// One bit too many: a `scan_dr` width error on both sides.
    Wrong,
    Partial,
    OverLong,
}

#[derive(Debug, Clone)]
enum ChainOp {
    Reset,
    /// One instruction per device (TDI side first); `None` is a random
    /// opcode, and `wrong_width` drops the last bit.
    ScanIr { names: Vec<Option<&'static str>>, wrong_width: bool, seed: u64 },
    ScanDr { fit: Fit, seed: u64 },
    ShiftDrBits { fit: Fit, seed: u64 },
    Pulses(usize),
    Pin { device: usize, cell: usize, value: Logic },
    Recording(bool),
    Inject(ScanFault),
    Clear,
}

const SCAN_INSTRUCTIONS: [&str; 6] =
    ["BYPASS", "IDCODE", "EXTEST", "SAMPLE/PRELOAD", "G-SITEST", "O-SITEST"];

fn arb_fault(rng: &mut Rng64, devices: &[DeviceSpec]) -> ScanFault {
    let link = gen::usize_in(rng, 0..devices.len() + 1);
    let period = gen::usize_in(rng, 1..6) as u64;
    // Half the draws are the one fault that bursts.
    match gen::usize_in(rng, 0..10) {
        0 => ScanFault::StuckAtZero { link },
        1 => ScanFault::StuckAtOne { link },
        2 => ScanFault::BitFlip { link, period },
        3 => ScanFault::StuckTap { state: gen::one_of(rng, &TapState::ALL) },
        4 => ScanFault::DroppedTck { period },
        _ => {
            // Before, at and past the last cell of a device, or a device
            // the chain does not have.
            let device = gen::usize_in(rng, 0..devices.len() + 1);
            let len = devices.get(device).map_or(0, |d| d.cells.len());
            let cell = match gen::usize_in(rng, 0..3) {
                0 => gen::usize_in(rng, 0..len.max(1)),
                1 => len.saturating_sub(1),
                _ => len + gen::usize_in(rng, 0..2),
            };
            ScanFault::BoundaryStuck { device, cell, level: gen::bool_any(rng) }
        }
    }
}

fn arb_ir_load(rng: &mut Rng64, devices: &[DeviceSpec]) -> ChainOp {
    ChainOp::ScanIr {
        names: devices
            .iter()
            .map(|_| (gen::usize_in(rng, 0..8) > 0).then(|| gen::one_of(rng, &SCAN_INSTRUCTIONS)))
            .collect(),
        wrong_width: gen::usize_in(rng, 0..12) == 0,
        seed: gen::u64_any(rng),
    }
}

fn arb_chain_op(rng: &mut Rng64, devices: &[DeviceSpec]) -> ChainOp {
    let fit = |rng: &mut Rng64| gen::one_of(rng, &[Fit::Exact, Fit::Partial, Fit::OverLong]);
    match gen::usize_in(rng, 0..16) {
        0 => ChainOp::Reset,
        1..=3 => arb_ir_load(rng, devices),
        4..=7 => {
            let fit = if gen::usize_in(rng, 0..10) == 0 { Fit::Wrong } else { Fit::Exact };
            ChainOp::ScanDr { fit, seed: gen::u64_any(rng) }
        }
        8..=10 => ChainOp::ShiftDrBits { fit: fit(rng), seed: gen::u64_any(rng) },
        11 => ChainOp::Pulses(gen::usize_in(rng, 1..4)),
        12 => {
            let device = gen::usize_in(rng, 0..devices.len());
            let cell = gen::usize_in(rng, 0..devices[device].cells.len().max(1));
            ChainOp::Pin { device, cell, value: arb_logic(rng) }
        }
        13 => ChainOp::Recording(gen::bool_any(rng)),
        14 => ChainOp::Inject(arb_fault(rng, devices)),
        _ => ChainOp::Clear,
    }
}

fn build_chain(devices: &[DeviceSpec]) -> Chain {
    let mut chain = Chain::new();
    for (k, spec) in devices.iter().enumerate() {
        let iset = extended_instruction_set().expect("the SI instruction set is consistent");
        let mut dev = Device::new(format!("dev{k}"), iset);
        if spec.idcode {
            dev = dev.with_idcode(IdcodeRegister::new(0x0AB, 0x1234 + k as u16, 0x2));
        }
        for &kind in &spec.cells {
            dev.push_cell(make_cell(kind));
        }
        chain.push(dev);
    }
    chain
}

/// `len` random bits, from `seed` alone so both sides shift the same.
fn seeded_bits(seed: u64, len: usize) -> BitVector {
    let mut rng = Rng64::new(seed);
    (0..len).map(|_| arb_logic(&mut rng)).collect()
}

/// Everything the property compares of one chain after an operation.
fn chain_image(chain: &Chain) -> Result<String, String> {
    let (tck, state, dr) = (chain.tck(), chain.state(), chain.selected_dr_len());
    let mut image = format!("tck {tck} state {state:?} dr {dr}\n");
    for k in 0..chain.len() {
        let dev = chain.device(k).map_err(|e| e.to_string())?;
        let ctrl = dev.cell_control();
        let inst = dev.current_instruction().map(|i| i.name.clone());
        image += &format!("dev {k}: tck {} nd_sd {} {inst:?}\n", dev.tck(), dev.nd_sd());
        for i in 0..dev.boundary().len() {
            let cell = dev.boundary().cell(i).map_err(|e| e.to_string())?;
            image += &format!("{:?}{:?} ", cell.scan_bit(), cell.output(&ctrl));
        }
        image.push('\n');
    }
    Ok(image)
}

#[test]
fn scan_bursts_match_per_tck_stepping() {
    // A scan handed to the chain as one burst must be invisible: over
    // random chains of 1–3 devices (standard, PGBSC and OBSC cells, up
    // to 600 per device, with or without an IDCODE register) and random
    // IR loads, full, partial, over-long and mis-sized DR scans, update
    // pulses, resets, pin changes, recording toggles and every scan
    // fault injected part-way, the driver's TDO bits, errors, TCK
    // count, TAP state, every device's ND̄/SD selector, every cell's
    // scan and output bits and the recorded operations equal those of
    // the driver clocking `Chain::step` once per TCK.
    Runner::new("scan_bursts_match_stepping").run(
        |rng| {
            let devices = gen::vec_of(rng, 1..4, |rng| {
                let max = if gen::usize_in(rng, 0..4) == 0 { 601 } else { 13 };
                DeviceSpec {
                    cells: gen::vec_of(rng, 0..max, |rng| {
                        gen::one_of(rng, &[CellKind::Standard, CellKind::Pgbsc, CellKind::Obsc])
                    }),
                    idcode: gen::bool_any(rng),
                }
            });
            // An IR load first, so most cases shift boundary registers.
            let mut ops = vec![arb_ir_load(rng, &devices)];
            ops.extend(gen::vec_of(rng, 0..24, |rng| arb_chain_op(rng, &devices)));
            (devices, ops)
        },
        |(devices, ops)| {
            let mut drv = JtagDriver::new(build_chain(devices));
            let mut oracle = SteppedDriver { chain: build_chain(devices), recording: None };
            drv.reset();
            oracle.reset();
            for (step, op) in ops.iter().enumerate() {
                let at = |e: String| format!("op {step} ({op:?}): {e}");
                match op {
                    ChainOp::Reset => {
                        drv.reset();
                        oracle.reset();
                    }
                    ChainOp::ScanIr { names, wrong_width, seed } => {
                        let mut rng = Rng64::new(*seed);
                        let mut bits = BitVector::new();
                        for (k, name) in names.iter().enumerate().rev() {
                            let set = drv.chain().device(k).map_err(|e| at(e.to_string()))?;
                            match name.and_then(|n| set.instruction_set().by_name(n)) {
                                Some(inst) => bits.extend(inst.opcode.iter()),
                                None => bits.extend((0..4).map(|_| arb_logic(&mut rng))),
                            }
                        }
                        if *wrong_width {
                            bits = bits.iter().skip(1).collect();
                        }
                        check_eq(drv.scan_ir(&bits), oracle.scan(true, &bits)).map_err(at)?;
                    }
                    ChainOp::ScanDr { fit, seed } | ChainOp::ShiftDrBits { fit, seed } => {
                        let len = drv.chain().selected_dr_len();
                        let r = (*seed >> 32) as usize;
                        let bits = seeded_bits(*seed, match fit {
                            Fit::Exact => len,
                            Fit::Wrong => len + 1,
                            Fit::Partial => r % (len + 1),
                            Fit::OverLong => len + 1 + r % (len + 3),
                        });
                        let (got, want) = if matches!(op, ChainOp::ScanDr { .. }) {
                            (drv.scan_dr(&bits), oracle.scan(false, &bits))
                        } else {
                            (drv.shift_dr_bits(&bits), Ok(oracle.shift_from_idle(false, &bits)))
                        };
                        check_eq(got, want).map_err(at)?;
                    }
                    ChainOp::Pulses(n) => {
                        drv.pulse_update_dr(*n).map_err(|e| at(e.to_string()))?;
                        oracle.pulse_update_dr(*n);
                    }
                    ChainOp::Pin { device, cell, value } => {
                        for chain in [drv.chain_mut(), &mut oracle.chain] {
                            let dev = chain.device_mut(*device).map_err(|e| at(e.to_string()))?;
                            if let Ok(c) = dev.boundary_mut().cell_mut(*cell) {
                                c.set_parallel_input(*value);
                            }
                        }
                    }
                    ChainOp::Recording(true) => {
                        drv.start_recording();
                        oracle.recording = Some(Vec::new());
                    }
                    ChainOp::Recording(false) => {
                        let want = oracle.recording.take().unwrap_or_default();
                        check_eq(drv.take_recording(), want).map_err(at)?;
                    }
                    ChainOp::Inject(fault) => {
                        drv.inject_fault(*fault);
                        oracle.chain.inject_fault(*fault);
                    }
                    ChainOp::Clear => {
                        drv.clear_fault();
                        oracle.chain.clear_fault();
                    }
                }
                check_eq(chain_image(drv.chain())?, chain_image(&oracle.chain)?).map_err(at)?;
            }
            check_eq(drv.take_recording(), oracle.recording.take().unwrap_or_default())
        },
    );
}

// ---------------- BSDL loader ----------------

/// Statements spliced into descriptions: the malformed lines that once
/// panicked or could hang, next to well-formed ones.
const BSDL_LINES: [&str; 8] = [
    ";",
    "  ;  ",
    "cells 18446744073709551615 standard;",
    "cells 70000 obsc;",
    "cell pgbsc;",
    "instruction X 1010 boundary mode si;",
    "}",
    "device y {",
];

/// One to three mutations of `base`: a truncation, a bit flip, a splice
/// of a random slice of one of the `donors`, or an inserted `snippet`.
fn mutate(rng: &mut Rng64, base: &[u8], donors: &[Vec<u8>], snippets: &[Vec<u8>]) -> String {
    let mut bytes = base.to_vec();
    for _ in 0..gen::usize_in(rng, 1..4) {
        let at = gen::usize_in(rng, 0..bytes.len() + 1);
        match gen::usize_in(rng, 0..4) {
            0 => bytes.truncate(at),
            1 if !bytes.is_empty() => {
                let i = at.min(bytes.len() - 1);
                bytes[i] ^= 1 << gen::usize_in(rng, 0..8);
            }
            2 => {
                let donor = match donors {
                    [only] => only,
                    _ => &donors[gen::usize_in(rng, 0..donors.len())],
                };
                let from = gen::usize_in(rng, 0..donor.len());
                let to = gen::usize_in(rng, from..donor.len() + 1);
                bytes.splice(at..at, donor[from..to].iter().copied());
            }
            _ => {
                bytes.splice(at..at, gen::one_of(rng, snippets));
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn bsdl_loader_never_panics_on_mutated_descriptions() {
    // Truncations, bit flips, self-splices and spliced statements of the
    // canonical SoC description: parsing must return a value or a typed
    // error, every parsed description must build (or refuse to) without
    // panicking, and its rendering must parse back to itself.
    let base = soc_description_text(3, 2).into_bytes();
    let donors = [base.clone()];
    let lines: Vec<Vec<u8>> = BSDL_LINES.iter().map(|l| format!("\n{l}\n").into_bytes()).collect();
    Runner::new("bsdl_mutation_fuzz").cases(2000).run(
        |rng| mutate(rng, &base, &donors, &lines),
        |text| {
            let Ok(desc) = DeviceDescription::parse(text) else {
                return Ok(());
            };
            check(desc.cells.len() <= MAX_CELLS, || format!("{} cells", desc.cells.len()))?;
            let factory =
                si_cell_factory(NdThresholds::for_vdd(1.8), SdWindow::for_vdd(500e-12, 1.8));
            if let Ok(device) = desc.build(&factory) {
                check_eq(device.boundary().len(), desc.cells.len())?;
            }
            let reparsed = DeviceDescription::parse(&desc.to_string())
                .map_err(|e| format!("rendering does not parse: {e}"))?;
            check_eq(reparsed, desc)
        },
    );
}

/// Fragments that steer mutated JSON toward the parsers' edge cases:
/// huge and fractional numbers, escapes, deep nesting and wrongly typed
/// checkpoint fields.
const JSON_SNIPPETS: [&str; 14] = [
    "18446744073709551616",
    "-1",
    "1e400",
    "0.5",
    r#""\ud800""#,
    r#""\u00e9\n""#,
    "[[[[[[[[[[[[[[[[",
    "}}}]]]",
    r#"{"version":3}"#,
    r#""entries":null,"#,
    r#""outcome":{"kind":"bogus"},"#,
    r#""shed":{"reason":{"kind":"deadline"}},"#,
    r#""ledger":[[true,"x"]],"#,
    "null,true,false,",
];

#[test]
fn checkpoint_loaders_never_panic_on_mutated_documents() {
    // Every loader of untrusted checkpoint bytes: truncations, bit
    // flips and splices of real snapshots must come back as a value or
    // a typed error from `Json::parse` and the campaign, adaptive and
    // fleet checkpoint parsers — never a panic.
    let trials = [
        Trial::control(),
        Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
        Trial::defective(Defect::ResistiveOpen { wire: 2, segment: 0, extra_ohms: 3000.0 }),
        Trial::panicking(),
    ];
    let campaign = Campaign::new(3).bus_params(BusParams::dsm_bus(3).segments(1)).session(
        SessionConfig { dt: 10e-12, ..SessionConfig::method(ObservationMethod::Once) },
    );
    let mut docs: Vec<Vec<u8>> = Vec::new();
    let _ = campaign.run_checkpointed(&trials, 1, &mut CampaignCheckpoint::new(), 2, |cp| {
        docs.push(cp.to_json().render().into_bytes());
    });
    let adaptive = campaign.clone().adaptive(AdaptiveConfig { round: 2, reorder: true });
    let _ = adaptive.run_adaptive_checkpointed(&trials, 1, &mut AdaptiveCheckpoint::new(3), |cp| {
        docs.push(cp.to_json().render().into_bytes());
    });
    let floor = FloorSpec::new(4).trials_per_board(2).seed(7);
    let engine = FleetEngine::new(floor).expect("fleet engine");
    let _ = engine.run_checkpointed(1, &mut FleetCheckpoint::new(), 2, &NullSink, |cp| {
        docs.push(cp.to_json().render().into_bytes());
    });
    assert!(docs.len() >= 6, "every loader needs real snapshots to mutate");
    let snippets: Vec<Vec<u8>> = JSON_SNIPPETS.iter().map(|s| s.as_bytes().to_vec()).collect();
    Runner::new("checkpoint_mutation_fuzz").cases(1500).run(
        |rng| {
            let base = &docs[gen::usize_in(rng, 0..docs.len())];
            mutate(rng, base, &docs, &snippets)
        },
        |text| {
            if let Ok(json) = Json::parse(text) {
                let _ = json.render();
            }
            let _ = CampaignCheckpoint::parse(text);
            let _ = AdaptiveCheckpoint::parse(text);
            let _ = FleetCheckpoint::parse(text);
            Ok(())
        },
    );
}

#[test]
fn record_replay_never_panics_on_mutated_payloads() {
    // Framed JSONL *content*: mutate the payloads of real record
    // streams (exhaustive and adaptive floors shaped like the
    // `gate fleet` floor, a zero-budget client shedding every trial) and
    // re-frame them, so the CRC passes and the schema paths run.
    // Replay must return a value or a typed error — never panic.
    let clients = || {
        vec![
            ClientSpec::new("assembly"),
            ClientSpec::new("qualification"),
            ClientSpec::with_budget("burst", std::time::Duration::ZERO),
        ]
    };
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for adaptive in [false, true] {
        let floor = FloorSpec::new(6)
            .trials_per_board(4)
            .seed(3)
            .adaptive(adaptive)
            .with_clients(clients());
        let sink = JsonlSink::raw(Vec::new());
        let _ = FleetEngine::new(floor).expect("fleet engine").run(1, &sink);
        let (bytes, _) = sink.finish().expect("in-memory sink");
        payloads.extend(bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()).map(<[u8]>::to_vec));
    }
    assert!(
        payloads.iter().any(|p| String::from_utf8_lossy(p).contains("\"escalation\"")),
        "the adaptive floor must stream its counters"
    );
    let snippets: Vec<Vec<u8>> = JSON_SNIPPETS
        .iter()
        .chain(&[r#""client":18446744073709551615,"#, r#""client":2,"#, r#""dropped":-1,"#])
        .map(|s| s.as_bytes().to_vec())
        .collect();
    Runner::new("record_payload_fuzz").cases(800).run(
        |rng| {
            let mut lines: Vec<String> =
                payloads.iter().map(|p| String::from_utf8_lossy(p).into_owned()).collect();
            for _ in 0..gen::usize_in(rng, 1..3) {
                let at = gen::usize_in(rng, 0..lines.len());
                lines[at] = mutate(rng, payloads[at].as_slice(), &payloads, &snippets);
            }
            lines.iter().map(|line| frame(line)).collect::<Vec<_>>().join("\n")
        },
        |stream| {
            let _ = replay_summary_recovered(stream);
            Ok(())
        },
    );
}

// ---------------- MA fault model ----------------

#[test]
fn classify_inverts_fault_pair() {
    Runner::new("classify_inverts_fault_pair").run(
        |rng| {
            let width = gen::usize_in(rng, 2..12);
            (width, gen::usize_in(rng, 0..width), gen::usize_in(rng, 0..6))
        },
        |&(width, victim, fault_idx)| {
            let fault = IntegrityFault::ALL[fault_idx];
            let pair = fault_pair(width, victim, fault).unwrap();
            check_eq(classify_pair(&pair, victim), Some(fault))
        },
    );
}

#[test]
fn pgbsc_vector_periodicity() {
    Runner::new("pgbsc_vector_periodicity").run(
        |rng| {
            let width = gen::usize_in(rng, 2..10);
            (width, gen::usize_in(rng, 0..width), gen::usize_in(rng, 0..16))
        },
        |&(width, victim, updates)| {
            // Aggressors have period 2, the victim period 4.
            let v0 = pgbsc_vector(width, victim, DriveLevel::Low, updates);
            let v4 = pgbsc_vector(width, victim, DriveLevel::Low, updates + 4);
            check_eq(v0, v4)
        },
    );
}

#[test]
fn pgbsc_aggressors_always_toggle() {
    Runner::new("pgbsc_aggressors_always_toggle").run(
        |rng| {
            let width = gen::usize_in(rng, 2..10);
            (width, gen::usize_in(rng, 0..width), gen::usize_in(rng, 0..12))
        },
        |&(width, victim, updates)| {
            let a = pgbsc_vector(width, victim, DriveLevel::High, updates);
            let b = pgbsc_vector(width, victim, DriveLevel::High, updates + 1);
            for w in (0..width).filter(|&w| w != victim) {
                check(a[w] != b[w], || format!("aggressor {w} must toggle"))?;
            }
            Ok(())
        },
    );
}

// ---------------- Degraded sessions ----------------

#[test]
fn degraded_sessions_cover_exactly_the_coverage_report() {
    // Exhaustive over the sessions that actually run, not a model of
    // them: every boundary-register cell (PGBSCs and OBSCs) stuck at
    // either level, on widths 3, 5 and 8, under `Degrade` with no
    // coverage floor. A session that degrades applies 3 transitions per
    // healthy victim per half (low half first); each must classify to
    // its victim's faults with every quarantined wire held, and the
    // union must be exactly the `6 · healthy` block its CoverageReport
    // counts. A refused session must be refused for coverage, with the
    // report's own counts.
    use std::collections::BTreeSet;
    let cfg = SessionConfig { dt: 10e-12, ..SessionConfig::method(ObservationMethod::Once) };
    let (mut degraded, mut refused) = (0, 0);
    for width in [3usize, 5, 8] {
        for cell in 0..2 * width {
            for level in [false, true] {
                let case = format!("width {width}, cell {cell} stuck at {}", u8::from(level));
                let mut soc = SocBuilder::new(width)
                    .bus_params(BusParams::dsm_bus(width).segments(1))
                    .scan_fault(ScanFault::BoundaryStuck { device: 0, cell, level })
                    .chain_policy(ChainPolicy::Degrade { min_coverage: 0.0 })
                    .build()
                    .expect("SoC builds");
                let report = match soc.run_integrity_test(&cfg) {
                    Ok(report) => report,
                    Err(CoreError::InsufficientCoverage { covered, total, min_coverage }) => {
                        let quarantined = soc.degradation_events().iter().filter_map(|e| match e {
                            DegradationEvent::WireQuarantined { wire } => Some(*wire),
                            _ => None,
                        });
                        let q = QuarantineSet::from_quarantined(width, quarantined);
                        let expect = CoverageReport::for_quarantine(width, &q);
                        assert_eq!(
                            (covered, total),
                            (expect.covered_count(), expect.total()),
                            "{case}: refusal disagrees with the coverage report"
                        );
                        assert!(q.healthy_count() < 2 || !expect.meets(min_coverage), "{case}");
                        refused += 1;
                        continue;
                    }
                    Err(e) => panic!("{case}: {e}"),
                };
                let outcome =
                    report.degradation().unwrap_or_else(|| panic!("{case}: session not degraded"));
                let q = outcome.quarantine();
                let victims = q.healthy_wires();
                let applied = soc.applied_pairs();
                assert_eq!(applied.len(), 6 * victims.len(), "{case}: transitions applied");
                let (low, high) = applied.split_at(3 * victims.len());
                let mut covered = BTreeSet::new();
                for (half, initial) in [(low, DriveLevel::Low), (high, DriveLevel::High)] {
                    for &w in &victims {
                        assert_eq!(half[0].before(w), initial, "{case}: wire {w} preload");
                    }
                    for (&victim, round) in victims.iter().zip(half.chunks(3)) {
                        let mut faults = Vec::new();
                        for pair in round {
                            for w in q.quarantined_wires() {
                                assert!(!pair.switches(w), "{case}: wire {w} switched in {pair}");
                            }
                            let fault = classify_pair_masked(pair, victim, q).unwrap_or_else(|| {
                                panic!("{case}: victim {victim}: {pair} is no MA pattern")
                            });
                            faults.push(fault);
                        }
                        // Aggressor rounds before this one shift the
                        // victim's phase: its round starts wherever the
                        // half has left it.
                        let start = round[0].before(victim);
                        assert_eq!(
                            faults,
                            IntegrityFault::covered_by_initial(start),
                            "{case}: victim {victim}"
                        );
                        covered.extend(faults.into_iter().map(|fault| (victim, fault)));
                    }
                }
                let healthy: BTreeSet<_> = victims
                    .iter()
                    .flat_map(|&v| IntegrityFault::ALL.map(|fault| (v, fault)))
                    .collect();
                assert_eq!(covered, healthy, "{case}");
                assert_eq!(covered.len(), outcome.coverage.covered_count(), "{case}");
                degraded += 1;
            }
        }
    }
    // Both arms are reached: 64 cases in all.
    assert!(degraded > 0 && refused > 0, "{degraded} degraded, {refused} refused");
    assert_eq!(degraded + refused, 2 * 2 * (3 + 5 + 8));
}

// ---------------- Adaptive campaign equivalence ----------------

#[test]
fn adaptive_sessions_detect_exactly_the_exhaustive_attribution() {
    // The adaptive engine's ledger-driven fault dropping and escalating
    // read-out localization must never change *what* a session detects,
    // only what it costs: across random widths, random defect mixes,
    // both chain policies and (under `Degrade`) scan-fault quarantine,
    // the adaptive detected set equals the attributed-exhaustive
    // oracle's exactly — and once a ledger covers the oracle's pairs, a
    // re-run detects nothing new and drops the covered patterns.
    Runner::new("adaptive_matches_exhaustive").cases(12).run(
        |rng| {
            let width = gen::usize_in(rng, 3..17);
            let defects = gen::vec_of(rng, 0..3, |rng| {
                let wire = gen::usize_in(rng, 0..width);
                match gen::usize_in(rng, 0..3) {
                    0 => Defect::CouplingBoost { wire, factor: gen::f64_in(rng, 1.5..8.0) },
                    1 => Defect::ResistiveOpen {
                        wire,
                        segment: gen::usize_in(rng, 0..2),
                        extra_ohms: gen::f64_in(rng, 500.0..4000.0),
                    },
                    _ => Defect::WeakDriver { wire, factor: gen::f64_in(rng, 2.0..12.0) },
                }
            });
            // Half the cases run degraded around a chain break chosen to
            // leave at least two healthy wires (cells 0..=cell survive)
            // and quarantine at least one.
            let broken_cell =
                if gen::bool_any(rng) { Some(1 + gen::usize_in(rng, 0..width - 2)) } else { None };
            let high_first = gen::bool_any(rng);
            (width, defects, broken_cell, high_first)
        },
        |(width, defects, broken_cell, high_first)| {
            let width = *width;
            let build = || {
                let mut b =
                    SocBuilder::new(width).bus_params(BusParams::dsm_bus(width).segments(2));
                for &d in defects {
                    b = b.defect(d);
                }
                if let Some(cell) = *broken_cell {
                    b = b
                        .scan_fault(ScanFault::BoundaryStuck { device: 0, cell, level: false })
                        .chain_policy(ChainPolicy::Degrade { min_coverage: 0.0 });
                }
                b.build().map_err(|e| e.to_string())
            };
            let cfg =
                SessionConfig { dt: 10e-12, ..SessionConfig::method(ObservationMethod::Once) };
            let oracle = build()?.run_attributed_exhaustive(&cfg).map_err(|e| e.to_string())?;
            let order = if *high_first {
                [DriveLevel::High, DriveLevel::Low]
            } else {
                [DriveLevel::Low, DriveLevel::High]
            };
            let adaptive = build()?
                .run_adaptive_session(&cfg, &CoverageLedger::new(width), order)
                .map_err(|e| e.to_string())?;
            check_eq(adaptive.detected.clone(), oracle.detected.clone())?;
            // Quarantined victims are never excited, by either path.
            if let Some(cell) = *broken_cell {
                for &(victim, _) in &adaptive.detected {
                    check(victim <= cell, || format!("quarantined victim {victim} excited"))?;
                }
            }
            // A ledger that already covers the oracle's pairs: the
            // re-run may re-isolate covered failures that sit before
            // the truncation point, but never anything the oracle
            // missed — so a campaign's union over trials equals the
            // exhaustive union exactly.
            let mut ledger = CoverageLedger::new(width);
            for &(victim, fault) in &oracle.detected {
                ledger.record(victim, fault);
            }
            let rerun = build()?
                .run_adaptive_session(&cfg, &ledger, order)
                .map_err(|e| e.to_string())?;
            for pair in &rerun.detected {
                check(oracle.detected.contains(pair), || {
                    format!("novel detection {pair:?} beyond the exhaustive union")
                })?;
            }
            // A fully-covered ledger skips both halves outright: every
            // healthy victim's six patterns drop, nothing runs.
            let mut full = CoverageLedger::new(width);
            for victim in 0..width {
                for fault in IntegrityFault::ALL {
                    full.record(victim, fault);
                }
            }
            let skipped = build()?
                .run_adaptive_session(&cfg, &full, order)
                .map_err(|e| e.to_string())?;
            let healthy = broken_cell.map_or(width, |cell| cell + 1);
            check_eq(skipped.dropped, 6 * healthy as u64)?;
            check(skipped.detected.is_empty(), || format!("{:?}", skipped.detected))?;
            check_eq(skipped.report.patterns_applied, 0)
        },
    );
}

// ---------------- Batched-path equivalence ----------------

#[test]
fn batched_sessions_render_byte_identical_to_the_scalar_oracle() {
    // Plan-first solving and the pattern-response memo must be
    // invisible: at panel width 8 every session renders exactly the
    // report the scalar width-1 oracle renders — across random buses
    // (RC or RLC, per-die variation), defect mixes and widths, for all
    // three methods, healthy or degraded around a quarantine, and for
    // adaptive sessions whose escalation passes replay the memo — and
    // every pattern a width-8 session applies was solved by its plans.
    // Conventional EXTEST generation costs the same at both widths. The
    // width-1 oracle solves every pattern over the full window, while
    // width-8 plan solves stop where passivity certifies them: at least
    // one case must advance fewer lane-steps than its full windows, so
    // a stop that never fires fails here; likewise some width-8 session
    // must skip recombined chunks from their envelopes.
    let (mut stopped_early, mut skipped_chunks) = (0usize, 0u64);
    Runner::new("batched_matches_scalar").cases(8).run(
        |rng| {
            let width = gen::usize_in(rng, 3..17);
            let segments = gen::usize_in(rng, 1..3);
            let inductive = gen::bool_any(rng);
            let seed = gen::u64_any(rng);
            let defects = gen::vec_of(rng, 0..3, |rng| {
                let wire = gen::usize_in(rng, 0..width);
                match gen::usize_in(rng, 0..3) {
                    0 => Defect::CouplingBoost { wire, factor: gen::f64_in(rng, 1.5..8.0) },
                    1 => Defect::ResistiveOpen {
                        wire,
                        segment: gen::usize_in(rng, 0..segments),
                        extra_ohms: gen::f64_in(rng, 500.0..4000.0),
                    },
                    _ => Defect::WeakDriver { wire, factor: gen::f64_in(rng, 2.0..12.0) },
                }
            });
            let broken_cell =
                if gen::bool_any(rng) { Some(1 + gen::usize_in(rng, 0..width - 2)) } else { None };
            (width, segments, inductive, seed, defects, broken_cell)
        },
        |(width, segments, inductive, seed, defects, broken_cell)| {
            let width = *width;
            let build = |panel_width: usize| {
                let mut params = BusParams::dsm_bus(width).segments(*segments);
                if *inductive {
                    params = params.l_per_mm(0.4e-9).lm_per_mm(0.1e-9).rise_time(60e-12);
                }
                let mut b = SocBuilder::new(width)
                    .bus_params(params)
                    .with_variation(VariationSigma::typical(), *seed)
                    .panel_width(panel_width);
                for &d in defects {
                    b = b.defect(d);
                }
                if let Some(cell) = *broken_cell {
                    b = b
                        .scan_fault(ScanFault::BoundaryStuck { device: 0, cell, level: false })
                        .chain_policy(ChainPolicy::Degrade { min_coverage: 0.0 });
                }
                b.build().map_err(|e| e.to_string())
            };
            for method in [
                ObservationMethod::Once,
                ObservationMethod::PerInitialValue,
                ObservationMethod::PerPattern,
            ] {
                let cfg = SessionConfig { dt: 10e-12, ..SessionConfig::method(method) };
                let steps = (cfg.settle_time / cfg.dt).round() as u64;
                let render = |panel_width: usize| {
                    let mut soc = build(panel_width)?;
                    let report = soc.run_integrity_test(&cfg).map_err(|e| e.to_string())?;
                    let full_windows = soc.transients_run() as u64 * steps;
                    Ok::<_, String>((report.to_json().render(), soc.memo_stats(), full_windows))
                };
                let (batched, stats, full_windows) = render(8)?;
                let (scalar, scalar_stats, scalar_full) = render(1)?;
                let (unplanned, lane_steps, scalar_steps) =
                    (stats.unplanned, stats.lane_steps, scalar_stats.lane_steps);
                skipped_chunks += stats.skipped_chunks;
                check_eq(scalar_stats.skipped_chunks, 0)?;
                check_eq(batched, scalar)?;
                check_eq(unplanned, 0)?;
                check_eq(scalar_steps, scalar_full)?;
                check(lane_steps <= full_windows, || format!("{lane_steps} > {full_windows}"))?;
                stopped_early += usize::from(lane_steps < full_windows);
            }
            let cfg =
                SessionConfig { dt: 10e-12, ..SessionConfig::method(ObservationMethod::Once) };
            let adaptive = |panel_width: usize| -> Result<(String, u64), String> {
                let mut soc = build(panel_width)?;
                let outcome = soc
                    .run_adaptive_session(
                        &cfg,
                        &CoverageLedger::new(width),
                        [DriveLevel::Low, DriveLevel::High],
                    )
                    .map_err(|e| e.to_string())?;
                let rendered = format!(
                    "{} {:?} {} {}",
                    outcome.report.to_json().render(),
                    outcome.detected,
                    outcome.dropped,
                    outcome.escalations
                );
                Ok((rendered, soc.memo_stats().unplanned))
            };
            let (batched, unplanned) = adaptive(8)?;
            check_eq(batched, adaptive(1)?.0)?;
            check_eq(unplanned, 0)?;
            let conventional = |panel_width: usize| {
                build(panel_width)?.run_conventional_generation().map_err(|e| e.to_string())
            };
            check_eq(conventional(8)?, conventional(1)?)
        },
    );
    assert!(stopped_early > 0, "no width-8 session stopped a column early");
    assert!(skipped_chunks > 0, "no width-8 session skipped a recombined chunk");
}

#[test]
fn die_parallel_sessions_equal_die_serial_ones() {
    // A die fans its plan solve's victim panels and direct chunks out
    // over the host's cores, and runs them inline on a pool worker. The
    // merge in plan order must make the two indistinguishable: the same
    // report bytes, memo counters and transient count for all three
    // methods and an adaptive session — over random RC and RLC buses,
    // defect mixes and panel widths that split a plan into several
    // jobs — and the same error, with the same counters, for a blown-up
    // bus and for a pre-cancelled token.
    let inside_a_worker = |run: &(dyn Fn() -> String + Sync)| -> String {
        let out = Pool::new(2).map(&[true, false], |_, &go| go.then(run));
        out.into_iter().flatten().next().unwrap_or_default()
    };
    let mut blown_up = 0;
    Runner::new("die_parallel_matches_serial").cases(12).run(
        |rng| {
            let width = gen::usize_in(rng, 3..17);
            let segments = gen::usize_in(rng, 1..3);
            let inductive = gen::bool_any(rng);
            let seed = gen::u64_any(rng);
            let panel_width = gen::one_of(rng, &[2, 3, 4, 8]);
            let defects = gen::vec_of(rng, 0..3, |rng| {
                let wire = gen::usize_in(rng, 0..width);
                match gen::usize_in(rng, 0..3) {
                    0 => Defect::CouplingBoost { wire, factor: gen::f64_in(rng, 1.5..8.0) },
                    1 => Defect::ResistiveOpen {
                        wire,
                        segment: gen::usize_in(rng, 0..segments),
                        extra_ohms: gen::f64_in(rng, 500.0..4000.0),
                    },
                    _ => Defect::WeakDriver { wire, factor: gen::f64_in(rng, 2.0..12.0) },
                }
            });
            (width, segments, inductive, seed, panel_width, defects)
        },
        |(width, segments, inductive, seed, panel_width, defects)| {
            let width = *width;
            let build = |extra: Option<Defect>| {
                let mut params = BusParams::dsm_bus(width).segments(*segments);
                if *inductive {
                    params = params.l_per_mm(0.4e-9).lm_per_mm(0.1e-9).rise_time(60e-12);
                }
                let mut b = SocBuilder::new(width)
                    .bus_params(params)
                    .with_variation(VariationSigma::typical(), *seed)
                    .panel_width(*panel_width)
                    .sd_window(150e-12);
                for &d in defects.iter().chain(&extra) {
                    b = b.defect(d);
                }
                b.build()
            };
            let session = |method: Option<ObservationMethod>, extra, cancelled: bool| {
                let mut soc = match build(extra) {
                    Ok(soc) => soc,
                    Err(e) => return format!("build: {e:?}"),
                };
                if cancelled {
                    let token = CancelToken::new();
                    token.cancel();
                    soc.set_cancel_token(Some(token));
                }
                let cfg = SessionConfig {
                    dt: 10e-12,
                    ..SessionConfig::method(method.unwrap_or(ObservationMethod::Once))
                };
                let outcome = match method {
                    Some(_) => soc.run_integrity_test(&cfg).map(|r| r.to_json().render()),
                    None => soc
                        .run_adaptive_session(
                            &cfg,
                            &CoverageLedger::new(width),
                            [DriveLevel::Low, DriveLevel::High],
                        )
                        .map(|o| {
                            let report = o.report.to_json().render();
                            format!("{report} {:?} {} {}", o.detected, o.dropped, o.escalations)
                        }),
                };
                format!("{outcome:?} {:?} {}", soc.memo_stats(), soc.transients_run())
            };
            let blow_up = Defect::CouplingBoost { wire: width / 2, factor: 1e308 };
            let runs = [
                (Some(ObservationMethod::Once), None, false),
                (Some(ObservationMethod::PerInitialValue), None, false),
                (Some(ObservationMethod::PerPattern), None, false),
                (None, None, false),
                (Some(ObservationMethod::Once), Some(blow_up), false),
                (Some(ObservationMethod::Once), None, true),
            ];
            for (method, extra, cancelled) in runs {
                let fanned_out = session(method, extra, cancelled);
                let inline = inside_a_worker(&|| session(method, extra, cancelled));
                check(fanned_out == inline, || format!("fanned out {fanned_out}\ninline {inline}"))?;
                let failed = fanned_out.starts_with("Err(");
                blown_up += usize::from(extra.is_some() && failed);
                check(failed || !cancelled, || format!("cancelled yet {fanned_out}"))?;
            }
            Ok(())
        },
    );
    assert!(blown_up > 0, "no blown-up bus failed its session");
}

// ---------------- Noise detector ----------------

#[test]
fn nd_detection_is_monotone_in_glitch_amplitude() {
    Runner::new("nd_monotone_in_amplitude").cases(64).run(
        |rng| (gen::f64_in(rng, 0.0..1.8), gen::usize_in(rng, 10..200)),
        |&(amp, width)| {
            // If a triangular bump of amplitude `amp` triggers the ND, any
            // taller bump of the same width must too.
            let bump = |a: f64| -> Vec<f64> {
                (0..600)
                    .map(|k| {
                        let d = (k as i64 - 300).unsigned_abs() as usize;
                        if d < width { a * (1.0 - d as f64 / width as f64) } else { 0.0 }
                    })
                    .collect()
            };
            let fires = |a: f64| {
                let mut nd = NoiseDetector::new(NdThresholds::for_vdd(1.8));
                nd.set_enabled(true);
                nd.observe(&bump(a), 1e-12, 1.8)
            };
            if fires(amp) {
                check(fires((amp + 0.2).min(2.2)), || "taller bump must also fire".into())?;
            }
            // And sub-threshold bumps never fire.
            if amp < 0.54 {
                check(!fires(amp), || "sub-threshold bump fired".into())?;
            }
            Ok(())
        },
    );
}

// ---------------- SVF hex packing ----------------

#[test]
fn svf_hex_round_trips_binary_vectors() {
    Runner::new("svf_hex_round_trip").run(
        |rng| (gen::u64_any(rng), gen::usize_in(rng, 1..65)),
        |&(value, len)| {
            let masked = if len == 64 { value } else { value & ((1u64 << len) - 1) };
            let bits = BitVector::from_u64(masked, len);
            let hex = scan_hex(&bits);
            let parsed = u64::from_str_radix(&hex, 16).unwrap();
            check_eq(parsed, masked)?;
            // Fully-defined vectors have an all-ones mask.
            let mask = u64::from_str_radix(&mask_hex(&bits), 16).unwrap();
            let all = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
            check_eq(mask, all)
        },
    );
}

// ---------------- SplitMix64 ----------------

#[test]
fn splitmix_streams_are_seed_deterministic() {
    Runner::new("splitmix_seed_deterministic").run(gen::u64_any, |&seed| {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..16 {
            check_eq(a.next_u64(), b.next_u64())?;
        }
        let x = a.next_f64();
        check((0.0..1.0).contains(&x), || format!("f64 out of unit range: {x}"))
    });
}

// ---------------- Banded vs dense solver engines ----------------

/// A random `(wires, segments)` below the given bounds, drawn from each
/// regime of the banded numbering with equal odds: `wires > segments`
/// (wire-major) or `wires <= segments` (segment-major).
fn arb_geometry(rng: &mut Rng64, max_wires: usize, max_segments: usize) -> (usize, usize) {
    if gen::bool_any(rng) {
        let wires = gen::usize_in(rng, 3..max_wires);
        (wires, gen::usize_in(rng, 1..wires.min(max_segments)))
    } else {
        let segments = gen::usize_in(rng, 2..max_segments);
        (gen::usize_in(rng, 2..segments + 1), segments)
    }
}

#[test]
fn banded_engine_matches_dense_oracle() {
    // The banded fast path (segment-major when wires <= segments,
    // wire-major otherwise) and the dense wire-major oracle solve the
    // same MNA system in a different order: they must agree to well
    // below any physically meaningful voltage on random buses of both
    // shapes — RC and RLC, with per-element process variation so no two
    // cases share a matrix.
    Runner::new("banded_matches_dense").cases(48).run(
        |rng| {
            let (wires, segments) = arb_geometry(rng, 17, 9);
            let inductive = gen::bool_any(rng);
            let seed = gen::u64_any(rng);
            let levels: Vec<bool> = (0..2 * wires).map(|_| gen::bool_any(rng)).collect();
            (wires, segments, inductive, seed, levels)
        },
        |(wires, segments, inductive, seed, levels)| {
            let (w, s) = (*wires, *segments);
            let mut params = BusParams::dsm_bus(w).segments(s);
            if *inductive {
                params = params.l_per_mm(0.4e-9).lm_per_mm(0.1e-9).rise_time(60e-12);
            }
            let mut bus = params.build().map_err(|e| e.to_string())?;
            apply_variation(&mut bus, VariationSigma::typical(), *seed)
                .map_err(|e| e.to_string())?;
            let before = levels[..w].iter().map(|&b| DriveLevel::from(b)).collect();
            let after = levels[w..].iter().map(|&b| DriveLevel::from(b)).collect();
            let pair = [VectorPair::new(before, after)];
            let dt = 4e-12;
            let run = |backend: SolverBackend| -> Result<_, String> {
                let sim =
                    TransientSim::with_backend(&bus, dt, backend).map_err(|e| e.to_string())?;
                sim.run_pairs_cancellable(&pair, 0.8e-9, &mut PanelScratch::new(), None)
                    .map_err(|e| e.to_string())
            };
            let banded = run(SolverBackend::Banded)?;
            let dense = run(SolverBackend::Dense)?;
            for wire in 0..w {
                for (a, b) in banded.wire(0, wire).iter().zip(dense.wire(0, wire)) {
                    check((a - b).abs() <= 1e-9, || {
                        format!("wire {wire} ({w}x{s}): banded {a} vs dense {b}")
                    })?;
                }
            }
            Ok(())
        },
    );
}

// ---------------- Metamorphic solver properties ----------------

/// Random RC or RLC bus parameters (uniform along the bus, so that
/// per-wire asymmetry comes only from explicit defects).
fn arb_bus_params(rng: &mut Rng64, wires: std::ops::Range<usize>) -> BusParams {
    let w = gen::usize_in(rng, wires);
    let mut params = BusParams::dsm_bus(w)
        .segments(gen::usize_in(rng, 1..6))
        .r_per_mm(gen::f64_in(rng, 15.0..60.0))
        .cc_per_mm(gen::f64_in(rng, 10e-15..80e-15))
        .driver_r(gen::f64_in(rng, 60.0..240.0));
    if gen::bool_any(rng) {
        let l = gen::f64_in(rng, 0.2e-9..0.6e-9);
        params = params.l_per_mm(l).lm_per_mm(l * gen::f64_in(rng, 0.0..0.5)).rise_time(60e-12);
    }
    params
}

/// Every receiver sample of `got` within `tol` of `want`, where `got`
/// pattern `c` wire `w` is compared to `want_at(c, w)`.
fn check_waves_close<'a>(
    got: &'a sint::interconnect::WavePanel,
    want_at: impl Fn(usize, usize) -> &'a [f64],
    tol: f64,
    what: &str,
) -> Result<(), String> {
    for c in 0..got.patterns() {
        for w in 0..got.wires() {
            for (k, (a, b)) in got.wire(c, w).iter().zip(want_at(c, w)).enumerate() {
                check((a - b).abs() <= tol, || {
                    format!("{what}: pattern {c} wire {w} sample {k}: {a:e} vs {b:e}")
                })?;
            }
        }
    }
    Ok(())
}

#[test]
fn mirrored_bus_gives_mirrored_waveforms() {
    // Reversing the wire order of a bus — defects included — and of the
    // driven vectors relabels the same circuit, so every receiver
    // waveform must come back mirrored. The banded numbering puts the
    // two runs' unknowns in different places, so the agreement is to
    // rounding, not bitwise.
    Runner::new("mirror_symmetry").cases(32).run(
        |rng| {
            let params = arb_bus_params(rng, 2..8);
            let (w, segments) =
                params.clone().build().map(|b| (b.wires(), b.segments())).unwrap_or((2, 1));
            let defects: Vec<Defect> = (0..gen::usize_in(rng, 1..4))
                .map(|_| match gen::usize_in(rng, 0..4) {
                    0 => Defect::WeakDriver {
                        wire: gen::usize_in(rng, 0..w),
                        factor: gen::f64_in(rng, 1.5..6.0),
                    },
                    1 => Defect::ResistiveOpen {
                        wire: gen::usize_in(rng, 0..w),
                        segment: gen::usize_in(rng, 0..segments),
                        extra_ohms: gen::f64_in(rng, 100.0..3000.0),
                    },
                    2 => Defect::PairCouplingBoost {
                        left: gen::usize_in(rng, 0..w - 1),
                        factor: gen::f64_in(rng, 1.5..8.0),
                    },
                    _ => Defect::CouplingBoost {
                        wire: gen::usize_in(rng, 0..w),
                        factor: gen::f64_in(rng, 1.5..8.0),
                    },
                })
                .collect();
            let levels: Vec<bool> = (0..2 * w * 5).map(|_| gen::bool_any(rng)).collect();
            (params, defects, levels)
        },
        |(params, defects, levels)| {
            let mut bus = params.clone().build().map_err(|e| e.to_string())?;
            let mut mirror = bus.clone();
            let w = bus.wires();
            for defect in defects {
                let flipped = match *defect {
                    Defect::WeakDriver { wire, factor } => {
                        Defect::WeakDriver { wire: w - 1 - wire, factor }
                    }
                    Defect::ResistiveOpen { wire, segment, extra_ohms } => {
                        Defect::ResistiveOpen { wire: w - 1 - wire, segment, extra_ohms }
                    }
                    Defect::PairCouplingBoost { left, factor } => {
                        Defect::PairCouplingBoost { left: w - 2 - left, factor }
                    }
                    Defect::CouplingBoost { wire, factor } => {
                        Defect::CouplingBoost { wire: w - 1 - wire, factor }
                    }
                    other => return Err(format!("no mirror for {other}")),
                };
                defect.apply(&mut bus).map_err(|e| e.to_string())?;
                flipped.apply(&mut mirror).map_err(|e| e.to_string())?;
            }
            let pair = |bits: &[bool], reversed: bool| {
                let mut v: Vec<DriveLevel> = bits.iter().map(|&b| DriveLevel::from(b)).collect();
                if reversed {
                    v.reverse();
                }
                v
            };
            let pairs_for = |reversed: bool| -> Vec<VectorPair> {
                levels
                    .chunks_exact(2 * w)
                    .map(|c| VectorPair::new(pair(&c[..w], reversed), pair(&c[w..], reversed)))
                    .collect()
            };
            let run = |bus: &sint::interconnect::Bus, pairs: &[VectorPair]| {
                TransientSim::new(bus, 2e-12)
                    .and_then(|sim| {
                        sim.run_pairs_cancellable(pairs, 0.6e-9, &mut PanelScratch::new(), None)
                    })
                    .map_err(|e| e.to_string())
            };
            let straight = run(&bus, &pairs_for(false))?;
            let mirrored = run(&mirror, &pairs_for(true))?;
            check_waves_close(
                &mirrored,
                |c, wire| straight.wire(c, w - 1 - wire),
                1e-9,
                "mirror",
            )
        },
    );
}

#[test]
fn responses_superpose_from_an_all_low_start() {
    // From an all-low start the DC state is zero and the MNA system is
    // linear in its sources, so rising the disjoint wire sets S1 and S2
    // together must produce the sum of the two separate responses.
    Runner::new("superposition").cases(32).run(
        |rng| {
            let params = arb_bus_params(rng, 2..9);
            let w = params.clone().build().map(|b| b.wires()).unwrap_or(2);
            let seed = gen::u64_any(rng);
            // 0 = quiet, 1 = in S1, 2 = in S2.
            let sets: Vec<usize> = (0..w).map(|_| gen::usize_in(rng, 0..3)).collect();
            (params, seed, sets)
        },
        |(params, seed, sets)| {
            let mut bus = params.clone().build().map_err(|e| e.to_string())?;
            apply_variation(&mut bus, VariationSigma::typical(), *seed)
                .map_err(|e| e.to_string())?;
            let w = bus.wires();
            let rising = |member: &dyn Fn(usize) -> bool| {
                let after = (0..w).map(|i| DriveLevel::from(member(sets[i]))).collect();
                VectorPair::new(vec![DriveLevel::Low; w], after)
            };
            let pairs = [
                rising(&|s| s == 1),
                rising(&|s| s == 2),
                rising(&|s| s != 0),
            ];
            let sim = TransientSim::new(&bus, 2e-12).map_err(|e| e.to_string())?;
            let waves = sim
                .run_pairs_cancellable(&pairs[..2], 0.8e-9, &mut PanelScratch::new(), None)
                .map_err(|e| e.to_string())?;
            let sum = |a: &[f64], b: &[f64]| -> Vec<f64> {
                a.iter().zip(b).map(|(x, y)| x + y).collect()
            };
            let separate: Vec<Vec<f64>> =
                (0..w).map(|wire| sum(waves.wire(0, wire), waves.wire(1, wire))).collect();
            let joint = sim
                .run_pairs_cancellable(&pairs[2..], 0.8e-9, &mut PanelScratch::new(), None)
                .map_err(|e| e.to_string())?;
            check_waves_close(
                &joint,
                |_, wire| &separate[wire],
                1e-9,
                "superposition",
            )
        },
    );
}

// ---------------- Step-basis superposition ----------------

#[test]
fn basis_responses_are_byte_identical_to_direct_solves() {
    // Every pair the step basis recombines (the six MA patterns of each
    // live victim, and whatever MA-shaped pairs turn up among random
    // vectors) must give exactly the direct solve's response byte
    // wherever the guard band lets it decide — on random RC and RLC
    // buses with per-die variation and defects, under default
    // thresholds and under thresholds placed exactly on a direct
    // sample (the ND low edge on a victim's glitch peak, the SD
    // tolerance on its sampled deviation). Non-MA pairs and victims
    // with no live column must be refused.
    Runner::new("basis_matches_direct").cases(24).run(
        |rng| {
            let width = gen::usize_in(rng, 3..17);
            let segments = gen::usize_in(rng, 1..4);
            let inductive = gen::bool_any(rng);
            let seed = gen::u64_any(rng);
            let defects = gen::vec_of(rng, 0..3, |rng| {
                let wire = gen::usize_in(rng, 0..width);
                match gen::usize_in(rng, 0..3) {
                    0 => Defect::CouplingBoost { wire, factor: gen::f64_in(rng, 1.5..8.0) },
                    1 => Defect::ResistiveOpen {
                        wire,
                        segment: gen::usize_in(rng, 0..segments),
                        extra_ohms: gen::f64_in(rng, 500.0..4000.0),
                    },
                    _ => Defect::WeakDriver { wire, factor: gen::f64_in(rng, 2.0..12.0) },
                }
            });
            let victims = gen::vec_of(rng, 1..4, |rng| gen::usize_in(rng, 0..width));
            let random_pairs = gen::vec_of(rng, 2..6, |rng| {
                let bits = |rng: &mut Rng64| -> Vec<DriveLevel> {
                    (0..width).map(|_| DriveLevel::from(gen::bool_any(rng))).collect()
                };
                VectorPair::new(bits(rng), bits(rng))
            });
            let window = gen::f64_in(rng, 80e-12..400e-12);
            (width, segments, inductive, seed, defects, victims, random_pairs, window)
        },
        |(width, segments, inductive, seed, defects, victims, random_pairs, window)| {
            let width = *width;
            let mut params = BusParams::dsm_bus(width).segments(*segments);
            if *inductive {
                params = params.l_per_mm(0.4e-9).lm_per_mm(0.1e-9).rise_time(60e-12);
            }
            let mut bus = params.build().map_err(|e| e.to_string())?;
            apply_variation(&mut bus, VariationSigma::typical(), *seed).map_err(|e| e.to_string())?;
            for d in defects {
                d.apply(&mut bus).map_err(|e| e.to_string())?;
            }
            let (dt, settle, vdd) = (10e-12, 1.2e-9, bus.vdd());
            let sim = TransientSim::new(&bus, dt).map_err(|e| e.to_string())?;
            let mut live: Vec<usize> = victims.clone();
            live.sort_unstable();
            live.dedup();
            let mut basis = StepBasis::new();
            let mut scratch = PanelScratch::new();
            basis.solve_all_rise(&sim, settle, &mut scratch, None).map_err(|e| e.to_string())?;
            let panel =
                basis.solve_victims(&sim, &live, &mut scratch, None).map_err(|e| e.to_string())?;
            let mut pairs: Vec<VectorPair> = Vec::new();
            for &v in &live {
                for f in IntegrityFault::ALL {
                    pairs.push(fault_pair(width, v, f).map_err(|e| e.to_string())?);
                }
            }
            pairs.extend(random_pairs.iter().cloned());
            let direct =
                sim.run_pairs_cancellable(&pairs, settle, &mut scratch, None).map_err(|e| e.to_string())?;
            let samples = direct.samples();
            let nominal = Obsc::new(NdThresholds::for_vdd(vdd), SdWindow::for_vdd(*window, vdd));
            let k_sample = ((sim.switch_at() + window) / dt).round() as usize;
            let mut wave = Vec::new();
            let mut decided = 0usize;
            for (c, pair) in pairs.iter().enumerate() {
                let live_victim = StepBasis::ma_victim(pair).filter(|v| live.contains(v));
                let combined =
                    basis.combine_into(&panel, &sim, pair, &mut wave).map_err(|e| e.to_string())?;
                check_eq(combined, live_victim.is_some())?;
                let Some(victim) = live_victim else { continue };
                for w in 0..width {
                    let edge = pair.switches(w).then(|| pair.after(w));
                    let reference = direct.wire(c, w);
                    let trace = &wave[w * samples..(w + 1) * samples];
                    let mut cells = vec![nominal.clone()];
                    if w == victim {
                        // Thresholds on a direct sample of the victim.
                        let peak = reference.iter().copied().fold(f64::MIN, f64::max);
                        let nd = NdThresholds::for_vdd(vdd);
                        if peak > 0.0 && peak < nd.v_high_min {
                            let tight = NdThresholds { v_low_max: peak, ..nd };
                            cells.push(Obsc::new(tight, SdWindow::for_vdd(*window, vdd)));
                        }
                        if let Some(level) = edge {
                            let k = k_sample.min(samples - 1);
                            let settle_tolerance = (reference[k] - level.voltage(vdd)).abs();
                            let sd = SdWindow { window: *window, settle_tolerance };
                            cells.push(Obsc::new(nd, sd));
                        }
                    }
                    for cell in &cells {
                        let want = cell.response(reference, dt, vdd, edge, sim.switch_at());
                        let got =
                            cell.response_guarded(trace, dt, vdd, edge, sim.switch_at(), GUARD_EPS);
                        if let Some(got) = got {
                            decided += 1;
                            check(got == want, || {
                                format!("{pair} wire {w}: basis byte {got:#04b} vs direct {want:#04b}")
                            })?;
                        }
                    }
                }
            }
            check(decided > 0, || "the guard band refused every response".to_string())
        },
    );
}

#[test]
fn fused_responses_equal_materialised_recombinations() {
    // The fused recombine-and-detect pass computes samples only where a
    // detector level is in reach; it must give exactly what
    // materialising every recombined trace and walking every sample
    // gives (`combine_into` + `response_guarded`), `None` included —
    // over random RC and RLC buses with per-die variation and defects,
    // every MA pair of the live victims, full windows and certified
    // stops, default thresholds and thresholds moved to within
    // 2·GUARD_EPS of a recombined sample at a chunk edge or of the SD
    // sample's deviation. One scratch serves every case, so envelopes
    // left from another basis must never be reused.
    let mut scratch = RecombineScratch::new();
    let (mut decided, mut refused) = (0usize, 0usize);
    Runner::new("fused_matches_materialised").cases(32).run(
        |rng| {
            let width = gen::usize_in(rng, 3..11);
            let segments = gen::usize_in(rng, 1..4);
            let inductive = gen::bool_any(rng);
            let stopped = gen::bool_any(rng);
            let seed = gen::u64_any(rng);
            let wire = gen::usize_in(rng, 0..width);
            let defect = match gen::usize_in(rng, 0..4) {
                0 => None,
                1 => Some(Defect::CouplingBoost { wire, factor: gen::f64_in(rng, 1.5..8.0) }),
                2 => Some(Defect::ResistiveOpen {
                    wire,
                    segment: gen::usize_in(rng, 0..segments),
                    extra_ohms: gen::f64_in(rng, 500.0..4000.0),
                }),
                _ => Some(Defect::WeakDriver { wire, factor: gen::f64_in(rng, 2.0..12.0) }),
            };
            let victims = gen::vec_of(rng, 1..4, |rng| gen::usize_in(rng, 0..width));
            let window = gen::f64_in(rng, 80e-12..600e-12);
            let edge = gen::usize_in(rng, 0..64);
            let offset = gen::f64_in(rng, -2.0..2.0) * GUARD_EPS;
            (width, segments, inductive, stopped, seed, defect, victims, window, edge, offset)
        },
        |(width, segments, inductive, stopped, seed, defect, victims, window, edge, offset)| {
            let width = *width;
            let mut params = BusParams::dsm_bus(width).segments(*segments);
            if *inductive {
                params = params.l_per_mm(0.4e-9).lm_per_mm(0.1e-9).rise_time(60e-12);
            }
            let mut bus = params.build().map_err(|e| e.to_string())?;
            apply_variation(&mut bus, VariationSigma::typical(), *seed).map_err(|e| e.to_string())?;
            if let Some(d) = defect {
                d.apply(&mut bus).map_err(|e| e.to_string())?;
            }
            let (dt, settle, vdd) = (4e-12, 1.6e-9, bus.vdd());
            let sim = TransientSim::new(&bus, dt).map_err(|e| e.to_string())?;
            let (nd, sd) = (NdThresholds::for_vdd(vdd), SdWindow::for_vdd(*window, vdd));
            let nominal = Obsc::new(nd, sd);
            let stop = nominal.stop_rule(vdd, dt, sim.switch_at(), 3.0).filter(|_| *stopped);
            let horizon = Horizon { duration: settle, stop };
            let mut live = victims.clone();
            live.sort_unstable();
            live.dedup();
            let mut basis = StepBasis::new();
            let mut panels = PanelScratch::new();
            basis.solve_all_rise(&sim, horizon, &mut panels, None).map_err(|e| e.to_string())?;
            let panel =
                basis.solve_victims(&sim, &live, &mut panels, None).map_err(|e| e.to_string())?;
            let mut pairs = Vec::new();
            for &v in &live {
                for f in IntegrityFault::ALL {
                    pairs.push(fault_pair(width, v, f).map_err(|e| e.to_string())?);
                }
            }
            // Thresholds on a recombined sample of the first pair: a
            // chunk edge of its victim's trace for the ND's low level,
            // the victim's SD sample for the SD tolerance.
            let mut wave = Vec::new();
            let mut cells = vec![nominal.clone()];
            if basis.combine_into(&panel, &sim, &pairs[0], &mut wave).map_err(|e| e.to_string())? {
                let len = wave.len() / width;
                let trace = &wave[live[0] * len..(live[0] + 1) * len];
                let chunk = (edge / 2) % len.div_ceil(CHUNK);
                let (first, last) = (chunk * CHUNK, len.min((chunk + 1) * CHUNK) - 1);
                let k = if edge % 2 == 0 { first } else { last };
                cells.push(Obsc::new(NdThresholds { v_low_max: trace[k] + offset, ..nd }, sd));
                let at = (((sim.switch_at() + window) / dt).round() as usize).min(len - 1);
                let level = pairs[0].after(live[0]).voltage(vdd);
                let settle_tolerance = (trace[at] - level).abs() + offset;
                cells.push(Obsc::new(nd, SdWindow { window: *window, settle_tolerance }));
            }
            for pair in &pairs {
                let combined =
                    basis.combine_into(&panel, &sim, pair, &mut wave).map_err(|e| e.to_string())?;
                let len = wave.len() / width;
                for cell in &cells {
                    let read = |w: usize| {
                        let edge = pair.switches(w).then(|| pair.after(w));
                        let trace = &wave[w * len..(w + 1) * len];
                        cell.response_guarded(trace, dt, vdd, edge, sim.switch_at(), GUARD_EPS)
                    };
                    let reference =
                        combined.then(|| (0..width).map(read).collect::<Option<Box<[u8]>>>());
                    let reference = reference.flatten();
                    let fused = recombined_response(
                        &basis,
                        &panel,
                        &sim,
                        pair,
                        vdd,
                        |_| Ok::<_, InterconnectError>(cell),
                        &mut scratch,
                    )
                    .map_err(|e| e.to_string())?;
                    decided += usize::from(fused.is_some());
                    refused += usize::from(fused.is_none());
                    check(fused == reference, || {
                        format!("{pair}: fused {fused:?} vs materialised {reference:?}")
                    })?;
                }
            }
            Ok(())
        },
    );
    assert!(decided > 0 && refused > 0, "{decided} decided, {refused} refused");
    assert!(scratch.skipped_chunks > 0, "no chunk was ever skipped");
}

#[test]
fn obsc_reads_certified_stops_exactly_as_full_windows() {
    // A certified early stop must be invisible to the OBSC: over random
    // RC buses with per-die variation and a defect, every pair's
    // `response` and `response_guarded` read the same flags from a
    // stopped trace as from the full window — directly solved (the
    // direct rule) and recombined from a step basis solved in two
    // panels (the basis rule, with `U`'s certified length as each
    // panel's floor). Thresholds are the defaults, tighter
    // custom ones, or ones with a level on a rail, whose tolerance is
    // not positive and whose runs must keep the full window.
    let (mut stopped, mut recombined_stopped) = (0usize, 0usize);
    Runner::new("obsc_certified_stop").cases(12).run(
        |rng| {
            let width = gen::usize_in(rng, 3..10);
            let segments = gen::usize_in(rng, 1..4);
            let seed = gen::u64_any(rng);
            let wire = gen::usize_in(rng, 0..width);
            let defect = match gen::usize_in(rng, 0..3) {
                0 => Defect::CouplingBoost { wire, factor: gen::f64_in(rng, 1.5..8.0) },
                1 => Defect::ResistiveOpen {
                    wire,
                    segment: gen::usize_in(rng, 0..segments),
                    extra_ohms: gen::f64_in(rng, 500.0..4000.0),
                },
                _ => Defect::WeakDriver { wire, factor: gen::f64_in(rng, 2.0..12.0) },
            };
            let thresholds = gen::usize_in(rng, 0..3);
            let window = gen::f64_in(rng, 80e-12..600e-12);
            (width, segments, seed, defect, thresholds, window)
        },
        |(width, segments, seed, defect, thresholds, window)| {
            let width = *width;
            let mut bus =
                BusParams::dsm_bus(width).segments(*segments).build().map_err(|e| e.to_string())?;
            apply_variation(&mut bus, VariationSigma::typical(), *seed).map_err(|e| e.to_string())?;
            defect.apply(&mut bus).map_err(|e| e.to_string())?;
            let (dt, settle, vdd) = (4e-12, 2e-9, bus.vdd());
            let nd = match thresholds {
                0 => NdThresholds::for_vdd(vdd),
                1 => NdThresholds {
                    v_low_max: 0.15 * vdd,
                    v_high_min: 0.9 * vdd,
                    overshoot_margin: 0.05 * vdd,
                },
                _ => NdThresholds { v_low_max: 0.0, ..NdThresholds::for_vdd(vdd) },
            };
            let obsc = Obsc::new(nd, SdWindow::for_vdd(*window, vdd));
            let sim = TransientSim::new(&bus, dt).map_err(|e| e.to_string())?;
            let switch_at = sim.switch_at();
            let (direct_rule, basis_rule) = (
                obsc.stop_rule(vdd, dt, switch_at, 1.0),
                obsc.stop_rule(vdd, dt, switch_at, 3.0),
            );
            check_eq(direct_rule.is_none(), *thresholds == 2)?;
            check_eq(basis_rule.is_none(), *thresholds == 2)?;
            let mut pairs = Vec::new();
            for v in 0..width {
                for f in IntegrityFault::ALL {
                    pairs.push(fault_pair(width, v, f).map_err(|e| e.to_string())?);
                }
            }
            let mut scratch = PanelScratch::new();
            let mut run = |horizon: Horizon| {
                sim.run_pairs_cancellable(&pairs, horizon, &mut scratch, None)
                    .map_err(|e| e.to_string())
            };
            let full = run(Horizon::from(settle))?;
            let cut = run(Horizon { duration: settle, stop: direct_rule })?;
            let read = |trace: &[f64], pair: &VectorPair, w: usize| {
                let edge = pair.switches(w).then(|| pair.after(w));
                (
                    obsc.response(trace, dt, vdd, edge, switch_at),
                    obsc.response_guarded(trace, dt, vdd, edge, switch_at, GUARD_EPS),
                )
            };
            for (c, pair) in pairs.iter().enumerate() {
                stopped += usize::from(cut.samples_of(c) < full.samples());
                if direct_rule.is_none() {
                    check_eq(cut.samples_of(c), full.samples())?;
                }
                for w in 0..width {
                    check(read(cut.wire(c, w), pair, w) == read(full.wire(c, w), pair, w), || {
                        let kept = cut.samples_of(c);
                        format!("{pair} wire {w}: direct flags differ after {kept} samples")
                    })?;
                }
            }
            // Recombined: a full basis against a stopped one, each
            // solved in two panels.
            let victims: Vec<usize> = (0..width).collect();
            let (first, second) = victims.split_at(width / 2);
            let mut whole = StepBasis::new();
            let mut stopping = StepBasis::new();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let horizon = Horizon { duration: settle, stop: basis_rule };
            whole.solve_all_rise(&sim, settle, &mut scratch, None).map_err(|e| e.to_string())?;
            stopping.solve_all_rise(&sim, horizon, &mut scratch, None).map_err(|e| e.to_string())?;
            for panel in [first, second] {
                let full_columns =
                    whole.solve_victims(&sim, panel, &mut scratch, None).map_err(|e| e.to_string())?;
                let cut_columns = stopping
                    .solve_victims(&sim, panel, &mut scratch, None)
                    .map_err(|e| e.to_string())?;
                let live = |p: &&VectorPair| {
                    StepBasis::ma_victim(p).is_some_and(|v| panel.contains(&v))
                };
                for pair in pairs.iter().filter(live) {
                    let combined = whole
                        .combine_into(&full_columns, &sim, pair, &mut a)
                        .map_err(|e| e.to_string())?;
                    let cut_combined = stopping
                        .combine_into(&cut_columns, &sim, pair, &mut b)
                        .map_err(|e| e.to_string())?;
                    check_eq(cut_combined, combined)?;
                    if !combined {
                        continue;
                    }
                    let (la, lb) = (a.len() / width, b.len() / width);
                    recombined_stopped += usize::from(lb < la);
                    for w in 0..width {
                        let (ta, tb) = (&a[w * la..(w + 1) * la], &b[w * lb..(w + 1) * lb]);
                        check(read(ta, pair, w).1 == read(tb, pair, w).1, || {
                            format!("{pair} wire {w}: recombined flags differ after {lb} samples")
                        })?;
                    }
                }
            }
            Ok(())
        },
    );
    assert!(stopped > 0, "no direct run ever stopped early");
    assert!(recombined_stopped > 0, "no recombined trace ever stopped early");
}

#[test]
fn guarded_verdicts_hold_for_every_wave_within_half_the_band() {
    // If a guarded evaluation decides, every waveform within ε/2 of the
    // input (L∞) must evaluate to the same verdict. Samples are drawn on
    // and around every threshold the detectors compare against, and the
    // perturbations push to the edge of the ε/2 ball.
    const EPS: f64 = 1e-9;
    let vdd = 1.8;
    let nd = NoiseDetector::new(NdThresholds::for_vdd(vdd));
    let sd = SkewDetector::new(SdWindow::for_vdd(6.0, vdd));
    let cell = Obsc::new(NdThresholds::for_vdd(vdd), SdWindow::for_vdd(6.0, vdd));
    let t = *nd.thresholds();
    let tol = sd.window().settle_tolerance;
    let levels = [
        t.v_low_max,
        t.v_high_min,
        vdd + t.overshoot_margin,
        -t.overshoot_margin,
        tol,
        vdd - tol,
        vdd / 2.0,
    ];
    let offsets = [0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1.0001, -1.0001, 1.5, -1.5, 3.0, -3.0];
    Runner::new("guard_band_is_sound").cases(2000).run(
        |rng| {
            let len = gen::usize_in(rng, 1..24);
            let wave: Vec<f64> = (0..len)
                .map(|_| {
                    if gen::usize_in(rng, 0..3) == 0 {
                        gen::f64_in(rng, -1.0..3.0)
                    } else {
                        gen::one_of(rng, &levels) + EPS * gen::one_of(rng, &offsets)
                    }
                })
                .collect();
            let nudges: Vec<Vec<f64>> = (0..6)
                .map(|_| {
                    (0..len)
                        .map(|_| match gen::usize_in(rng, 0..4) {
                            0 => EPS / 2.0,
                            1 => -EPS / 2.0,
                            2 => 0.0,
                            _ => gen::f64_in(rng, -EPS / 2.0..EPS / 2.0),
                        })
                        .collect()
                })
                .collect();
            let level = DriveLevel::from(gen::bool_any(rng));
            let quiet = gen::bool_any(rng);
            (wave, nudges, level, quiet)
        },
        |(wave, nudges, level, quiet)| {
            // dt = 1 s and a 6 s window sample index 6 (clamped to the end).
            let edge = (!quiet).then_some(*level);
            let nd_guarded = nd.evaluate_guarded(wave, 1.0, vdd, EPS);
            let sd_guarded = sd.evaluate_guarded(wave, 1.0, vdd, *level, 0.0, EPS);
            let cell_guarded = cell.response_guarded(wave, 1.0, vdd, edge, 0.0, EPS);
            for nudge in nudges {
                let near: Vec<f64> = wave.iter().zip(nudge).map(|(v, d)| v + d).collect();
                if let Some(b) = nd_guarded {
                    check_eq(nd.evaluate(&near, 1.0, vdd), b)?;
                }
                if let Some(b) = sd_guarded {
                    check_eq(sd.evaluate(&near, 1.0, vdd, *level, 0.0), b)?;
                }
                if let Some(flags) = cell_guarded {
                    check_eq(cell.response(&near, 1.0, vdd, edge, 0.0), flags)?;
                }
            }
            Ok(())
        },
    );
}

// ---------------- Dense linear algebra ----------------

#[test]
fn lu_solves_diagonally_dominant_systems() {
    Runner::new("lu_diag_dominant").run(
        |rng| {
            let n = gen::usize_in(rng, 1..10);
            let seed: Vec<f64> = (0..110).map(|_| gen::f64_in(rng, -1.0..1.0)).collect();
            (n, seed)
        },
        |(n, seed)| {
            let n = *n;
            let mut m = Matrix::zeros(n);
            let mut k = 0;
            for r in 0..n {
                for c in 0..n {
                    m[(r, c)] = if r == c { n as f64 + 2.0 } else { seed[k % seed.len()] };
                    k += 1;
                }
            }
            let x_true: Vec<f64> =
                (0..n).map(|i| seed[(i * 7 + 3) % seed.len()] * 5.0).collect();
            let mut b = vec![0.0; n];
            m.mul_vec_into(&x_true, &mut b);
            check_eq(b.clone(), m.mul_vec(&x_true))?;
            let lu = m.lu().unwrap();
            let x = lu.solve(&b);
            // The in-place solve must agree bit-for-bit (it IS the
            // allocating path's kernel).
            lu.solve_into(&mut b);
            check_eq(b, x.clone())?;
            for (a, e) in x.iter().zip(&x_true) {
                check((a - e).abs() < 1e-8, || format!("{a} vs {e}"))?;
            }
            Ok(())
        },
    );
}

// ---------------- Backoff schedules ----------------

#[test]
fn backoff_schedules_are_pure_functions_of_seed_and_stream() {
    Runner::new("backoff_schedule_determinism").run(
        |rng| {
            let policy = BackoffPolicy {
                base: 1 + rng.gen_range(0..8),
                ceiling: 8 + rng.gen_range(0..120),
                max_attempts: 1 + gen::usize_in(rng, 0..6),
            };
            (policy, rng.gen_u64(), rng.gen_u64())
        },
        |&(policy, seed, stream)| {
            // Same (seed, stream) → identical schedule, every time.
            check_eq(policy.schedule(seed, stream), policy.schedule(seed, stream))?;
            // Per-attempt delays agree with the schedule at every index
            // — no hidden state leaks between attempts.
            for (attempt, delay) in policy.schedule(seed, stream).iter().enumerate() {
                check_eq(*delay, policy.delay(seed, stream, attempt + 1))?;
            }
            // Distinct streams (boards) decorrelate: not every delay of
            // a multi-attempt schedule may collide unless the policy is
            // fully saturated at its ceiling.
            Ok(())
        },
    );
}

#[test]
fn backoff_delays_are_strictly_bounded_and_never_zero() {
    Runner::new("backoff_delay_bounds").run(
        |rng| {
            // Include degenerate policies: zero base, ceiling below
            // base, zero attempts.
            let policy = BackoffPolicy {
                base: rng.gen_range(0..6),
                ceiling: rng.gen_range(0..64),
                max_attempts: gen::usize_in(rng, 0..5),
            };
            (policy, rng.gen_u64(), rng.gen_u64(), gen::usize_in(rng, 0..12))
        },
        |&(policy, seed, stream, attempt)| {
            let delay = policy.delay(seed, stream, attempt);
            let ceiling = policy.ceiling.max(policy.base.max(1));
            check(delay >= 1, || format!("zero/negative delay {delay} from {policy:?}"))?;
            check(delay <= ceiling, || {
                format!("delay {delay} above ceiling {ceiling} from {policy:?}")
            })?;
            let schedule = policy.schedule(seed, stream);
            check_eq(schedule.len(), policy.max_attempts.max(1).saturating_sub(1))?;
            for d in schedule {
                check(d >= 1 && d <= ceiling, || format!("schedule delay {d} out of bounds"))?;
            }
            Ok(())
        },
    );
}

// ---------------- Durable persistence ----------------

#[test]
fn frame_scanner_recovers_exactly_the_longest_valid_prefix() {
    Runner::new("frame_scan_prefix").run(
        |rng| {
            let payloads = gen::vec_of(rng, 0..12, |rng| {
                format!("{{\"i\":{}}}", rng.gen_u64())
            });
            // A tail the crash may have left behind: nothing, a frame
            // torn mid-write (no trailing newline survives), or plain
            // garbage lines. None of it may leak into the prefix.
            let tail: Vec<u8> = match gen::usize_in(rng, 0..3) {
                0 => Vec::new(),
                1 => {
                    let torn = format!("{}\n", frame("{\"i\":99}"));
                    let keep = 1 + gen::usize_in(rng, 0..torn.len() - 1);
                    torn.into_bytes()[..keep].to_vec()
                }
                _ => format!("torn{:x}\n{:x}", rng.gen_u64(), rng.gen_u64()).into_bytes(),
            };
            (payloads, tail)
        },
        |(payloads, tail)| {
            let mut stream = Vec::new();
            for p in payloads {
                stream.extend_from_slice(frame(p).as_bytes());
                stream.push(b'\n');
            }
            let prefix_len = stream.len() as u64;
            stream.extend_from_slice(tail);

            let (recovered, scan) = scan_frames(&stream);
            check_eq(scan.records, payloads.len() as u64)?;
            check_eq(scan.valid_bytes, prefix_len)?;
            check_eq(scan.dropped_bytes, tail.len() as u64)?;
            check_eq(scan.torn(), !tail.is_empty())?;
            for (got, want) in recovered.iter().zip(payloads) {
                check_eq(*got, want.as_bytes())?;
            }
            Ok(())
        },
    );
}

/// An in-memory record stream whose bytes the snapshot callback can
/// observe mid-run — the test double for a records file on disk.
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Ok(mut bytes) = self.0.lock() {
            bytes.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn truncated_streams_resume_and_replay_to_the_reference_summary() {
    // Kill a streaming checkpointed run at an arbitrary byte past some
    // snapshot, recover the stream's longest valid prefix, resume from
    // that snapshot, and the recovered-plus-resumed artifact must fold
    // back to the uninterrupted run's exact summary.
    Runner::new("torn_stream_recovery").cases(12).run(
        |rng| {
            (
                rng.gen_u64(),
                1 + gen::usize_in(rng, 0..4),
                gen::usize_in(rng, 0..usize::MAX),
                gen::usize_in(rng, 0..usize::MAX),
            )
        },
        |&(seed, snapshot_every, pick, cut)| {
            let engine = || {
                FleetEngine::new(
                    FloorSpec::new(12)
                        .trials_per_board(3)
                        .seed(seed)
                        .with_clients(vec![ClientSpec::new("acme"), ClientSpec::new("initech")]),
                )
                .map_err(|e| format!("engine: {e}"))
            };
            let reference = engine()?.run(1, &NullSink).to_json().render();

            // The killed run: stream through a shared buffer so each
            // snapshot can note how many record bytes preceded it —
            // the write-ahead point a real resume would see on disk.
            let shared = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = JsonlSink::new(SharedBuf(std::sync::Arc::clone(&shared)));
            let mut snapshots: Vec<(String, usize)> = Vec::new();
            let mut killed_ckpt = FleetCheckpoint::new();
            let _ = engine()?.run_checkpointed(2, &mut killed_ckpt, snapshot_every, &sink, |cp| {
                let len = shared.lock().map(|b| b.len()).unwrap_or(0);
                snapshots.push((cp.to_json().render(), len));
            });
            let full = shared.lock().map_err(|_| "poisoned buffer".to_string())?.clone();
            check(!snapshots.is_empty(), || "no snapshots taken".to_string())?;

            // Crash at an arbitrary byte at or past the chosen snapshot.
            let (render, written) = &snapshots[pick % snapshots.len()];
            let cut_at = written + cut % (full.len() - written + 1);
            let (_, scan) = scan_frames(&full[..cut_at]);
            check(scan.valid_bytes as usize >= *written, || {
                format!("write-ahead violated: {} valid < {written} checkpointed", scan.valid_bytes)
            })?;
            let prefix = &full[..scan.valid_bytes as usize];

            // Resume from the snapshot at a different thread count.
            let mut resumed_ckpt =
                FleetCheckpoint::parse(render).map_err(|e| format!("parse: {e}"))?;
            let resume_sink = JsonlSink::new(Vec::new());
            let resumed = engine()?
                .run_checkpointed(4, &mut resumed_ckpt, snapshot_every, &resume_sink, |_| {})
                .to_json()
                .render();
            check_eq(resumed, reference.clone())?;

            // Recovered prefix + resumed tail replays byte-identically,
            // deduplicating any trials the tail re-streamed.
            let (tail, _) = resume_sink.finish().map_err(|e| format!("finish: {e}"))?;
            let mut combined = prefix.to_vec();
            combined.extend_from_slice(&tail);
            let text = String::from_utf8(combined).map_err(|e| format!("utf8: {e}"))?;
            let (replayed, note) =
                replay_summary_recovered(&text).map_err(|e| format!("replay: {e}"))?;
            check_eq(note.torn_tail_bytes, 0)?;
            check_eq(replayed.to_json().render(), reference)
        },
    );
}

#[test]
fn generation_pairs_survive_corruption_of_either_slot() {
    Runner::new("genpair_slot_loss").cases(24).run(
        |rng| {
            (
                rng.gen_u64(),
                format!("first-{:x}", rng.gen_u64()),
                format!("second-{:x}", rng.gen_u64()),
                format!("third-{:x}", rng.gen_u64()),
                gen::usize_in(rng, 0..2),
                gen::usize_in(rng, 0..3),
            )
        },
        |(tag, first, second, third, victim, mode)| {
            let dir = std::env::temp_dir()
                .join(format!("sint_prop_genpair_{}_{tag:016x}", std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir: {e}"))?;
            let result = (|| {
                let pair = GenPair::new(dir.join("ckpt"));
                check_eq(pair.store(first).map_err(|e| format!("store 1: {e}"))?, 1)?;
                check_eq(pair.store(second).map_err(|e| format!("store 2: {e}"))?, 2)?;

                // Identify the slots by generation, then smash one.
                let (slot_a, slot_b) = pair.slots();
                let a_is_newest = std::fs::read_to_string(&slot_a)
                    .map(|s| s.starts_with("sintgen 2 "))
                    .unwrap_or(false);
                let (newest, oldest) =
                    if a_is_newest { (slot_a, slot_b) } else { (slot_b, slot_a) };
                let target = if *victim == 0 { &newest } else { &oldest };
                match mode {
                    // Torn write: only a prefix of the image survives.
                    0 => {
                        let data =
                            std::fs::read(target).map_err(|e| format!("read slot: {e}"))?;
                        std::fs::write(target, &data[..data.len().min(11)])
                            .map_err(|e| format!("tear slot: {e}"))?;
                    }
                    // Bit rot: the header no longer parses.
                    1 => std::fs::write(target, "sintgen garbage\n")
                        .map_err(|e| format!("rot slot: {e}"))?,
                    // The slot file vanished entirely.
                    _ => std::fs::remove_file(target).map_err(|e| format!("rm slot: {e}"))?,
                }

                // Whichever slot died, the survivor still loads — and a
                // fresh store heals the pair past both generations.
                let (survivor_gen, survivor) = if *victim == 0 { (1, first) } else { (2, second) };
                let loaded = pair.load().map_err(|e| format!("load: {e}"))?;
                check_eq(loaded, Some((survivor_gen, survivor.clone())))?;
                let healed = pair.store(third).map_err(|e| format!("store 3: {e}"))?;
                check_eq(healed, survivor_gen + 1)?;
                let reloaded = pair.load().map_err(|e| format!("reload: {e}"))?;
                check_eq(reloaded, Some((healed, third.clone())))
            })();
            let _ = std::fs::remove_dir_all(&dir);
            result
        },
    );
}

/// One slot file image for the fleet-pair fuzz: intact, mutated, given a
/// rewritten header (generation and length fields, CRC kept), flipped
/// inside the header, or deleted (`None`).
fn fuzzed_slot(
    rng: &mut Rng64,
    slot: &[u8],
    donors: &[Vec<u8>],
    snippets: &[Vec<u8>],
) -> Option<Vec<u8>> {
    let nl = slot.iter().position(|&b| b == b'\n').expect("slot header line");
    match gen::usize_in(rng, 0..5) {
        0 => Some(slot.to_vec()),
        1 => Some(mutate(rng, slot, donors, snippets).into_bytes()),
        2 => {
            let header = String::from_utf8_lossy(&slot[..nl]).into_owned();
            let mut fields: Vec<String> = header.split(' ').map(str::to_string).collect();
            let generations = [
                "0",
                "1",
                "3",
                "18446744073709551614",
                "18446744073709551615",
                "18446744073709551616",
            ];
            fields[1] = gen::one_of(rng, &generations).to_string();
            let len = slot.len() - nl - 1;
            let lens = [len, len + 1, len.saturating_sub(1), 0, 0xffff_ffff];
            fields[2] = format!("{:08x}", gen::one_of(rng, &lens));
            let mut image = fields.join(" ").into_bytes();
            image.extend_from_slice(&slot[nl..]);
            Some(image)
        }
        3 => {
            let mut image = slot.to_vec();
            image[gen::usize_in(rng, 0..nl)] ^= 1 << gen::usize_in(rng, 0..8);
            Some(image)
        }
        _ => None,
    }
}

#[test]
fn fleet_checkpoint_pairs_load_or_refuse_mutated_slots() {
    // Two real generations of a fleet checkpoint, then truncations, bit
    // flips and splices of either slot file, header generation and
    // length digits included. `load_pair` must return one of the stored
    // checkpoints (or the empty one at generation 0) or a typed error;
    // a following `store_pair` must either fail with a typed error or
    // be exactly what the next load returns.
    let engine =
        FleetEngine::new(FloorSpec::new(6).trials_per_board(2).seed(7)).expect("fleet engine");
    let mut stored: Vec<FleetCheckpoint> = Vec::new();
    let _ = engine.run_checkpointed(1, &mut FleetCheckpoint::new(), 2, &NullSink, |cp| {
        stored.push(cp.clone());
    });
    assert!(stored.len() >= 3, "three distinct snapshots: two stored, one to store next");
    let template = std::env::temp_dir().join(format!("sint_prop_fleetpair_{}", std::process::id()));
    std::fs::create_dir_all(&template).expect("scratch dir");
    let pair = GenPair::new(template.join("ckpt"));
    for cp in &stored[..2] {
        cp.store_pair(&pair).expect("store a real generation");
    }
    let (a, b) = pair.slots();
    let slots = [a, b].map(|path| std::fs::read(path).expect("stored slot"));
    let _ = std::fs::remove_dir_all(&template);
    let snippets: Vec<Vec<u8>> = ["18446744073709551615", "0", "ffffffff", " ", "\n", "sintgen 2 "]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();

    Runner::new("fleet_pair_fuzz").cases(300).run(
        |rng| {
            let images = [0, 1].map(|i| fuzzed_slot(rng, &slots[i], &slots, &snippets));
            (rng.gen_u64(), images)
        },
        |(tag, images)| {
            let dir = std::env::temp_dir()
                .join(format!("sint_prop_fleetpair_{}_{tag:016x}", std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir: {e}"))?;
            let result = (|| {
                let pair = GenPair::new(dir.join("ckpt"));
                let (a, b) = pair.slots();
                for (path, image) in [(a, &images[0]), (b, &images[1])] {
                    if let Some(bytes) = image {
                        std::fs::write(path, bytes).map_err(|e| format!("write slot: {e}"))?;
                    }
                }
                if let Ok((loaded, generation)) = FleetCheckpoint::load_pair(&pair) {
                    let known =
                        stored[..2].contains(&loaded) || (loaded.is_empty() && generation == 0);
                    check(known, || format!("generation {generation} loaded {loaded:?}"))?;
                }
                let next = &stored[2];
                match next.store_pair(&pair) {
                    Ok(generation) => {
                        let reloaded = FleetCheckpoint::load_pair(&pair)
                            .map_err(|e| format!("reload: {e}"))?;
                        check_eq(reloaded, (next.clone(), generation))
                    }
                    Err(FleetError::Io { .. }) => Ok(()),
                    Err(e) => Err(format!("store_pair failed outside storage: {e}")),
                }
            })();
            let _ = std::fs::remove_dir_all(&dir);
            result
        },
    );
}
