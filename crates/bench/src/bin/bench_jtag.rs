//! Bench: JTAG substrate throughput — scan operations against chain
//! length, and TAP stepping cost.
//!
//! `dr_scan/516` is the sintbench long_chain's chain (n = 8, m = 500).
//! `dr_scan_faulted/256` carries a TAP fault that never fires (stuck in
//! Pause-DR, which no scan visits), so its scans take the per-TCK path
//! that injected faults keep: the cost the whole-scan burst avoids.

use sint_bench::emit_artifact;
use sint_jtag::bcell::StandardBsc;
use sint_jtag::chain::Chain;
use sint_jtag::device::Device;
use sint_jtag::driver::JtagDriver;
use sint_jtag::fault::ScanFault;
use sint_jtag::instruction::InstructionSet;
use sint_jtag::state::TapState;
use sint_logic::BitVector;
use sint_runtime::bench::{black_box, Bench};

fn driver_with_cells(n: usize) -> JtagDriver {
    let mut d = Device::new("dut", InstructionSet::standard_1149_1());
    for _ in 0..n {
        d.push_cell(Box::new(StandardBsc::new()));
    }
    let mut drv = JtagDriver::new(Chain::single(d));
    drv.reset();
    drv.load_instruction("SAMPLE/PRELOAD").unwrap();
    drv
}

fn main() {
    let mut b = Bench::new("jtag");

    for cells in [8usize, 64, 256, 516, 1024] {
        let mut drv = driver_with_cells(cells);
        let data = BitVector::zeros(cells);
        b.measure(&format!("dr_scan/{cells}"), || {
            black_box(drv.scan_dr(black_box(&data)).unwrap());
        });
    }

    {
        let mut drv = driver_with_cells(256);
        drv.inject_fault(ScanFault::StuckTap { state: TapState::PauseDr });
        let data = BitVector::zeros(256);
        b.measure("dr_scan_faulted/256", || {
            black_box(drv.scan_dr(black_box(&data)).unwrap());
        });
    }

    for cells in [8usize, 256] {
        let mut drv = driver_with_cells(cells);
        b.measure(&format!("update_pulse/{cells}"), || {
            drv.pulse_update_dr(black_box(3)).unwrap();
            black_box(());
        });
    }

    {
        let mut drv = driver_with_cells(64);
        b.measure("ir_scan", || {
            black_box(drv.scan_ir(black_box(&BitVector::from_u64(0b0001, 4))).unwrap());
        });
    }

    print!("{}", b.table());
    emit_artifact("bench_jtag", &b.json());
}
