//! Mini-BSDL integration: describe the enhanced SoC in the textual
//! device format of [`sint_jtag::bsdl`] and elaborate it with the
//! signal-integrity cells.
//!
//! The description language is extension-agnostic; this module supplies
//! the [`CellFactory`](sint_jtag::bsdl::CellFactory) entries for the
//! `pgbsc` and `obsc` cell kinds, plus a canonical description of the
//! paper's Fig 11 SoC.

use crate::nd::NdThresholds;
use crate::obsc::Obsc;
use crate::pgbsc::Pgbsc;
use crate::sd::SdWindow;
use sint_jtag::bcell::BoundaryCell;

/// Cell kind keyword for pattern-generation cells in descriptions.
pub const PGBSC_KIND: &str = "pgbsc";
/// Cell kind keyword for observation cells in descriptions.
pub const OBSC_KIND: &str = "obsc";

/// Returns a cell factory that builds `pgbsc` and `obsc` cells with the
/// given detector parameters.
pub fn si_cell_factory(
    nd: NdThresholds,
    sd: SdWindow,
) -> impl Fn(&str) -> Option<Box<dyn BoundaryCell + Send>> {
    move |kind| match kind {
        PGBSC_KIND => Some(Box::new(Pgbsc::new())),
        OBSC_KIND => Some(Box::new(Obsc::new(nd, sd))),
        _ => None,
    }
}

/// The canonical description text of the paper's Fig 11 SoC: `wires`
/// PGBSCs, `wires` OBSCs, `extra` standard cells, the full extended
/// instruction set.
#[must_use]
pub fn soc_description_text(wires: usize, extra: usize) -> String {
    let mut s = String::new();
    s.push_str("device si-soc {\n");
    s.push_str("    ir_width 4;\n");
    s.push_str("    idcode manufacturer=0x0AB part=0x51E5 version=1;\n");
    s.push_str("    instruction EXTEST 0000 boundary mode;\n");
    s.push_str("    instruction SAMPLE/PRELOAD 0001 boundary;\n");
    s.push_str("    instruction IDCODE 0010 idcode;\n");
    s.push_str("    instruction INTEST 0011 boundary mode;\n");
    s.push_str("    instruction G-SITEST 1000 boundary mode si ce;\n");
    s.push_str("    instruction O-SITEST 1001 boundary mode si toggles;\n");
    s.push_str("    instruction BYPASS 1111 bypass;\n");
    s.push_str(&format!("    cells {wires} pgbsc;\n"));
    s.push_str(&format!("    cells {wires} obsc;\n"));
    if extra > 0 {
        s.push_str(&format!("    cells {extra} standard;\n"));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sint_jtag::bsdl::DeviceDescription;
    use sint_jtag::chain::Chain;
    use sint_jtag::device::Device;
    use sint_jtag::driver::JtagDriver;

    fn nd() -> NdThresholds {
        NdThresholds::for_vdd(1.8)
    }

    fn sd() -> SdWindow {
        SdWindow::for_vdd(500e-12, 1.8)
    }

    fn device(text: &str) -> Device {
        DeviceDescription::parse(text).unwrap().build(&si_cell_factory(nd(), sd())).unwrap()
    }

    #[test]
    fn canonical_text_parses_and_builds() {
        let dev = device(&soc_description_text(5, 10));
        assert_eq!(dev.name(), "si-soc");
        assert_eq!(dev.boundary().len(), 20);
        assert!(dev.instruction_set().by_name("G-SITEST").is_some());
        assert!(dev.instruction_set().by_name("O-SITEST").unwrap().toggles_nd_sd);
    }

    #[test]
    fn description_round_trips_through_display() {
        let text = soc_description_text(3, 2);
        let d1 = DeviceDescription::parse(&text).unwrap();
        let d2 = DeviceDescription::parse(&d1.to_string()).unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn described_device_is_jtag_drivable() {
        let dev = device(&soc_description_text(2, 0));
        let mut drv = JtagDriver::new(Chain::single(dev));
        drv.reset();
        drv.load_instruction("G-SITEST").unwrap();
        let ctrl = drv.chain().device(0).unwrap().cell_control();
        assert!(ctrl.si && ctrl.ce && ctrl.mode);
        assert_eq!(drv.chain().selected_dr_len(), 4);
    }

    #[test]
    fn factory_rejects_unknown_kinds() {
        let f = si_cell_factory(nd(), sd());
        assert!(f("pgbsc").is_some());
        assert!(f("obsc").is_some());
        assert!(f("quantum").is_none());
    }
}
