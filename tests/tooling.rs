//! Tooling-path integration: mini-BSDL descriptions, SVF export and
//! DOT schematics working together over real sessions.

use sint::core::describe::{si_cell_factory, soc_description_text};
use sint::core::nd::NdThresholds;
use sint::core::sd::SdWindow;
use sint::core::session::{ObservationMethod, SessionConfig};
use sint::core::soc::SocBuilder;
use sint::interconnect::params::BusParams;
use sint::jtag::bsdl::DeviceDescription;
use sint::jtag::chain::Chain;
use sint::jtag::driver::{JtagDriver, ScanOp};
use sint::jtag::svf::SvfOptions;
use sint::logic::dot::to_dot;

#[test]
fn full_session_svf_is_replayable_shaped() {
    let n = 3;
    let mut soc = SocBuilder::new(n).build().unwrap();
    let (report, svf) = soc
        .run_integrity_test_with_svf(
            &SessionConfig::method(ObservationMethod::Once),
            &SvfOptions::default(),
        )
        .unwrap();
    assert!(!report.any_violation());
    // Structure: one reset, 5 IR scans (2x SAMPLE + 2x G-SITEST +
    // 1x O-SITEST), DR scans and pulse trains.
    assert_eq!(svf.matches("STATE RESET IDLE;").count(), 1);
    assert_eq!(svf.matches("SIR 4 TDI").count(), 5);
    // Per half: initial scan + victim-select scan + (n-1) rotation
    // scans; plus 2 read-out scans at the end → 2*(2 + n-1) + 2.
    assert_eq!(svf.matches("\nSDR ").count(), 2 * (2 + n - 1) + 2);
    // Per half: n victims x 2 pulses.
    assert_eq!(
        svf.matches("STATE DRSELECT DRCAPTURE DREXIT1 DRUPDATE IDLE;").count(),
        2 * n * 2
    );
}

/// The SVF program of one session on a 4-wire SoC with three extra
/// chain cells and a coupling defect on wire 1, so the read-outs carry
/// set detector bits.
fn golden_svf(method: ObservationMethod) -> String {
    let mut soc = SocBuilder::new(4)
        .extra_cells(3)
        .bus_params(BusParams::dsm_bus(4).segments(2))
        .coupling_defect(1, 6.0)
        .build()
        .unwrap();
    let config = SessionConfig { dt: 10e-12, ..SessionConfig::method(method) };
    soc.run_integrity_test_with_svf(&config, &SvfOptions::default()).unwrap().1
}

#[test]
fn session_svf_matches_the_pinned_golden_bytes() {
    // Every recorded scan's TDI and TDO stream, byte for byte: a change
    // to how the driver, chain or registers move bits shows up here.
    for (method, file) in [
        (ObservationMethod::Once, "svf_method_1.svf"),
        (ObservationMethod::PerPattern, "svf_method_3.svf"),
    ] {
        let svf = golden_svf(method);
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("SINT_REGEN_GOLDEN").is_some() {
            std::fs::write(&path, &svf).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).expect("golden file present");
        assert!(
            svf == expected,
            "{file}: SVF drifted from the pinned golden bytes; if the change is \
             intentional, re-run with SINT_REGEN_GOLDEN=1 and review the diff"
        );
    }
}

#[test]
fn svf_tdo_masks_mark_undefined_bits() {
    let mut soc = SocBuilder::new(2).build().unwrap();
    let (_, svf) = soc
        .run_integrity_test_with_svf(
            &SessionConfig::method(ObservationMethod::Once),
            &SvfOptions { check_tdo: true, frequency_hz: None },
        )
        .unwrap();
    // Early scans shift out X (uninitialised cells): their MASK cannot
    // be all-ones on every scan, while read-out scans carry defined
    // detector bits.
    assert!(svf.contains("MASK ("));
}

#[test]
fn described_soc_runs_an_si_flavoured_scan() {
    // Build the canonical Fig 11 device purely from its textual
    // description and drive a G-SITEST victim-select scan through it.
    let text = soc_description_text(3, 2);
    let desc = DeviceDescription::parse(&text).unwrap();
    let dev = desc
        .build(&si_cell_factory(
            NdThresholds::for_vdd(1.8),
            SdWindow::for_vdd(500e-12, 1.8),
        ))
        .unwrap();
    let mut drv = JtagDriver::new(Chain::single(dev));
    drv.reset();
    drv.start_recording();
    drv.load_instruction("SAMPLE/PRELOAD").unwrap();
    drv.scan_dr(&sint::logic::BitVector::zeros(8)).unwrap();
    drv.load_instruction("G-SITEST").unwrap();
    drv.scan_dr(&"00000001".parse().unwrap()).unwrap();
    drv.pulse_update_dr(2).unwrap();
    let ops = drv.take_recording();
    assert_eq!(
        ops.iter().filter(|o| matches!(o, ScanOp::ScanIr { .. })).count(),
        2
    );
    assert!(ops.contains(&ScanOp::UpdatePulses { count: 2 }));
    let ctrl = drv.chain().device(0).unwrap().cell_control();
    assert!(ctrl.si && ctrl.ce, "described device decodes G-SITEST correctly");
}

#[test]
fn cell_schematics_export_as_dot() {
    for nl in [
        sint::core::cost::standard_bsc_netlist().unwrap(),
        sint::core::pgbsc::pgbsc_netlist().unwrap(),
        sint::core::obsc::obsc_netlist().unwrap(),
    ] {
        let dot = to_dot(&nl);
        assert!(dot.starts_with(&format!("digraph \"{}\"", nl.name())));
        assert!(dot.contains("shape=record"), "cells contain flip-flops");
        assert!(dot.trim_end().ends_with('}'));
        // Every component appears as a node.
        for idx in 0..nl.components().len() {
            assert!(dot.contains(&format!("u{idx} [")), "{}: u{idx} missing", nl.name());
        }
    }
}
