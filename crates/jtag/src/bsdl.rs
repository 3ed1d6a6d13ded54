//! A miniature BSDL-like device description language.
//!
//! Real boundary-scan flows describe parts in BSDL (IEEE 1149.1b). This
//! module provides a compact textual equivalent so boards can be
//! described in files rather than code:
//!
//! ```text
//! device soc {
//!     ir_width 4;
//!     idcode manufacturer=0x0AB part=0x51E5 version=2;
//!     instruction EXTEST         0000 boundary mode;
//!     instruction SAMPLE/PRELOAD 0001 boundary;
//!     instruction BYPASS         1111 bypass;
//!     instruction G-SITEST       1000 boundary mode si ce;
//!     instruction O-SITEST       1001 boundary mode si toggles;
//!     cells 3 pgbsc;
//!     cells 3 obsc;
//!     cells 2 standard;
//! }
//! ```
//!
//! Parsing yields a [`DeviceDescription`]; [`DeviceDescription::build`]
//! instantiates a live [`Device`], using a caller-provided
//! [`CellFactory`] to construct non-standard cell kinds (the
//! signal-integrity cells live in `sint-core`, which registers itself
//! via the factory — the description language itself stays
//! extension-agnostic).

use crate::bcell::{BoundaryCell, StandardBsc};
use crate::device::Device;
use crate::instruction::{DrTarget, Instruction, InstructionSet};
use crate::register::IdcodeRegister;
use sint_logic::BitVector;
use std::fmt;

/// Instruction specification inside a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionSpec {
    /// Mnemonic.
    pub name: String,
    /// Opcode, MSB-first as written.
    pub opcode: String,
    /// Data-register target keyword (`boundary`, `bypass`, `idcode`).
    pub target: String,
    /// Flag keywords (`mode`, `si`, `ce`, `toggles`).
    pub flags: Vec<String>,
}

/// IDCODE fields of a description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdcodeSpec {
    /// 11-bit manufacturer id.
    pub manufacturer: u16,
    /// 16-bit part number.
    pub part: u16,
    /// 4-bit version.
    pub version: u8,
}

/// A parsed device description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDescription {
    /// Device name.
    pub name: String,
    /// Instruction-register width.
    pub ir_width: usize,
    /// Optional IDCODE register.
    pub idcode: Option<IdcodeSpec>,
    /// Declared instructions, in file order.
    pub instructions: Vec<InstructionSpec>,
    /// Boundary cells, TDI-first, as kind keywords.
    pub cells: Vec<String>,
}

/// Error from parsing or elaborating a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBsdlError {
    /// 1-based line the error was found on (0 for end-of-input).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseBsdlError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseBsdlError { line, message: message.into() }
    }
}

impl fmt::Display for ParseBsdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseBsdlError {}

/// The most boundary cells one description may declare. Far above any
/// real part, and low enough that a hostile `cells <huge> ...;` is
/// refused instead of allocated.
pub const MAX_CELLS: usize = 1 << 16;

/// Builds boundary cells for non-standard kind keywords.
///
/// Return `None` for unknown kinds; `"standard"` is always handled
/// internally.
pub type CellFactory<'a> = dyn Fn(&str) -> Option<Box<dyn BoundaryCell + Send>> + 'a;

impl DeviceDescription {
    /// Parses a description from text.
    ///
    /// # Errors
    ///
    /// [`ParseBsdlError`] with the offending line and reason.
    pub fn parse(text: &str) -> Result<DeviceDescription, ParseBsdlError> {
        let mut name = None;
        let mut ir_width = None;
        let mut idcode = None;
        let mut instructions = Vec::new();
        let mut cells: Vec<String> = Vec::new();
        let mut in_body = false;
        let mut closed = false;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if closed {
                return Err(ParseBsdlError::new(lineno, "content after closing brace"));
            }
            if !in_body {
                let rest = line
                    .strip_prefix("device")
                    .ok_or_else(|| ParseBsdlError::new(lineno, "expected `device <name> {`"))?
                    .trim();
                let rest = rest
                    .strip_suffix('{')
                    .ok_or_else(|| ParseBsdlError::new(lineno, "expected `{` after device name"))?
                    .trim();
                if rest.is_empty() {
                    return Err(ParseBsdlError::new(lineno, "device name missing"));
                }
                name = Some(rest.to_string());
                in_body = true;
                continue;
            }
            if line == "}" {
                closed = true;
                continue;
            }
            let stmt = line.strip_suffix(';').ok_or_else(|| {
                ParseBsdlError::new(lineno, "statement must end with `;`")
            })?;
            let mut words = stmt.split_whitespace();
            match words.next() {
                Some("ir_width") => {
                    let w: usize = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| ParseBsdlError::new(lineno, "ir_width needs a number"))?;
                    if w == 0 || w > 64 {
                        return Err(ParseBsdlError::new(lineno, "ir_width must be 1..=64"));
                    }
                    ir_width = Some(w);
                }
                Some("idcode") => {
                    let mut manufacturer = None;
                    let mut part = None;
                    let mut version = None;
                    for kv in words {
                        let (k, v) = kv.split_once('=').ok_or_else(|| {
                            ParseBsdlError::new(lineno, format!("expected key=value, got {kv:?}"))
                        })?;
                        let value = parse_int(v).ok_or_else(|| {
                            ParseBsdlError::new(lineno, format!("bad number {v:?}"))
                        })?;
                        match k {
                            "manufacturer" => manufacturer = Some(value),
                            "part" => part = Some(value),
                            "version" => version = Some(value),
                            other => {
                                return Err(ParseBsdlError::new(
                                    lineno,
                                    format!("unknown idcode field {other:?}"),
                                ))
                            }
                        }
                    }
                    let (m, p, v) = match (manufacturer, part, version) {
                        (Some(m), Some(p), Some(v)) => (m, p, v),
                        _ => {
                            return Err(ParseBsdlError::new(
                                lineno,
                                "idcode needs manufacturer, part and version",
                            ))
                        }
                    };
                    if m >= 1 << 11 || p >= 1 << 16 || v >= 1 << 4 {
                        return Err(ParseBsdlError::new(lineno, "idcode field out of range"));
                    }
                    idcode = Some(IdcodeSpec {
                        manufacturer: m as u16,
                        part: p as u16,
                        version: v as u8,
                    });
                }
                Some("instruction") => {
                    let name = words
                        .next()
                        .ok_or_else(|| ParseBsdlError::new(lineno, "instruction needs a name"))?;
                    let opcode = words.next().ok_or_else(|| {
                        ParseBsdlError::new(lineno, "instruction needs an opcode")
                    })?;
                    if !opcode.chars().all(|c| c == '0' || c == '1') {
                        return Err(ParseBsdlError::new(lineno, "opcode must be binary"));
                    }
                    let target = words.next().ok_or_else(|| {
                        ParseBsdlError::new(lineno, "instruction needs a target register")
                    })?;
                    if !matches!(target, "boundary" | "bypass" | "idcode") {
                        return Err(ParseBsdlError::new(
                            lineno,
                            format!("unknown target {target:?}"),
                        ));
                    }
                    let flags: Vec<String> = words.map(str::to_string).collect();
                    for f in &flags {
                        if !matches!(f.as_str(), "mode" | "si" | "ce" | "toggles") {
                            return Err(ParseBsdlError::new(
                                lineno,
                                format!("unknown instruction flag {f:?}"),
                            ));
                        }
                    }
                    instructions.push(InstructionSpec {
                        name: name.to_string(),
                        opcode: opcode.to_string(),
                        target: target.to_string(),
                        flags,
                    });
                }
                Some("cell") | Some("cells") => {
                    let first = words
                        .next()
                        .ok_or_else(|| ParseBsdlError::new(lineno, "cells needs a count or kind"))?;
                    let (count, kind) = match first.parse::<usize>() {
                        Ok(n) => {
                            let kind = words.next().ok_or_else(|| {
                                ParseBsdlError::new(lineno, "cells needs a kind keyword")
                            })?;
                            (n, kind)
                        }
                        Err(_) => (1, first),
                    };
                    if count > MAX_CELLS - cells.len() {
                        return Err(ParseBsdlError::new(
                            lineno,
                            format!("more than {MAX_CELLS} cells"),
                        ));
                    }
                    for _ in 0..count {
                        cells.push(kind.to_string());
                    }
                }
                Some(other) => {
                    return Err(ParseBsdlError::new(
                        lineno,
                        format!("unknown statement {other:?}"),
                    ))
                }
                None => return Err(ParseBsdlError::new(lineno, "empty statement")),
            }
        }

        if !closed {
            return Err(ParseBsdlError::new(0, "missing closing `}`"));
        }
        let name = name.ok_or_else(|| ParseBsdlError::new(0, "missing device header"))?;
        let ir_width =
            ir_width.ok_or_else(|| ParseBsdlError::new(0, "missing ir_width statement"))?;
        for inst in &instructions {
            if inst.opcode.len() != ir_width {
                return Err(ParseBsdlError::new(
                    0,
                    format!("instruction {} opcode width != ir_width", inst.name),
                ));
            }
        }
        Ok(DeviceDescription { name, ir_width, idcode, instructions, cells })
    }

    /// Elaborates the description into a live [`Device`].
    ///
    /// `factory` constructs cells for non-`standard` kind keywords.
    ///
    /// # Errors
    ///
    /// [`ParseBsdlError`] for unknown cell kinds or inconsistent
    /// instruction sets (duplicate opcodes).
    pub fn build(&self, factory: &CellFactory<'_>) -> Result<Device, ParseBsdlError> {
        let mut iset = InstructionSet::new(self.ir_width);
        for spec in &self.instructions {
            let opcode: BitVector = spec
                .opcode
                .parse()
                .map_err(|e| ParseBsdlError::new(0, format!("bad opcode: {e}")))?;
            let target = match spec.target.as_str() {
                "boundary" => DrTarget::Boundary,
                "bypass" => DrTarget::Bypass,
                "idcode" => DrTarget::Idcode,
                other => return Err(ParseBsdlError::new(0, format!("unknown target {other:?}"))),
            };
            let has = |f: &str| spec.flags.iter().any(|x| x == f);
            let inst = Instruction {
                name: spec.name.clone(),
                opcode,
                target,
                mode: has("mode"),
                si: has("si"),
                ce: has("ce"),
                toggles_nd_sd: has("toggles"),
            };
            iset.register(inst)
                .map_err(|e| ParseBsdlError::new(0, format!("instruction set: {e}")))?;
        }
        let mut device = Device::new(self.name.clone(), iset);
        if let Some(id) = self.idcode {
            device = device.with_idcode(IdcodeRegister::new(id.manufacturer, id.part, id.version));
        }
        for kind in &self.cells {
            let cell: Box<dyn BoundaryCell + Send> = if kind == "standard" {
                Box::new(StandardBsc::new())
            } else {
                factory(kind).ok_or_else(|| {
                    ParseBsdlError::new(0, format!("unknown cell kind {kind:?}"))
                })?
            };
            device.push_cell(cell);
        }
        Ok(device)
    }
}

impl fmt::Display for DeviceDescription {
    /// Renders back to the textual format ([`DeviceDescription::parse`]
    /// round-trips it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "device {} {{", self.name)?;
        writeln!(f, "    ir_width {};", self.ir_width)?;
        if let Some(id) = self.idcode {
            writeln!(
                f,
                "    idcode manufacturer=0x{:03X} part=0x{:04X} version={};",
                id.manufacturer, id.part, id.version
            )?;
        }
        for inst in &self.instructions {
            write!(f, "    instruction {} {} {}", inst.name, inst.opcode, inst.target)?;
            for flag in &inst.flags {
                write!(f, " {flag}")?;
            }
            writeln!(f, ";")?;
        }
        // Run-length encode the cell list.
        let mut i = 0;
        while i < self.cells.len() {
            let kind = &self.cells[i];
            let mut j = i;
            while j < self.cells.len() && &self.cells[j] == kind {
                j += 1;
            }
            writeln!(f, "    cells {} {};", j - i, kind)?;
            i = j;
        }
        write!(f, "}}")
    }
}

fn parse_int(s: &str) -> Option<u32> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
# a two-port test chip
device soc {
    ir_width 4;
    idcode manufacturer=0x0AB part=0x51E5 version=2;
    instruction EXTEST 0000 boundary mode;
    instruction SAMPLE/PRELOAD 0001 boundary;
    instruction BYPASS 1111 bypass;
    cells 3 standard;
    cell standard;
}
";

    #[test]
    fn parses_sample() {
        let d = DeviceDescription::parse(SAMPLE).unwrap();
        assert_eq!(d.name, "soc");
        assert_eq!(d.ir_width, 4);
        assert_eq!(d.idcode.unwrap().part, 0x51E5);
        assert_eq!(d.instructions.len(), 3);
        assert_eq!(d.instructions[0].name, "EXTEST");
        assert_eq!(d.instructions[0].flags, vec!["mode"]);
        assert_eq!(d.cells.len(), 4);
    }

    #[test]
    fn display_parse_round_trip() {
        let d = DeviceDescription::parse(SAMPLE).unwrap();
        let text = d.to_string();
        let d2 = DeviceDescription::parse(&text).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn builds_a_working_device() {
        let d = DeviceDescription::parse(SAMPLE).unwrap();
        let dev = d.build(&|_| None).unwrap();
        assert_eq!(dev.name(), "soc");
        assert_eq!(dev.boundary().len(), 4);
        assert!(dev.instruction_set().by_name("EXTEST").is_some());
        assert!(dev.instruction_set().by_name("EXTEST").unwrap().mode);
    }

    #[test]
    fn factory_handles_custom_kinds() {
        let text = r"device x {
            ir_width 2;
            instruction BYPASS 11 bypass;
            cells 2 custom;
        }";
        let d = DeviceDescription::parse(text).unwrap();
        // Without a factory entry: error.
        let err = d.build(&|_| None).unwrap_err();
        assert!(err.message.contains("unknown cell kind"));
        // With one: works.
        let dev = d
            .build(&|kind| {
                (kind == "custom").then(|| Box::new(StandardBsc::new()) as Box<_>)
            })
            .unwrap();
        assert_eq!(dev.boundary().len(), 2);
    }

    #[test]
    fn extension_flags_map_to_instruction_fields() {
        let text = r"device x {
            ir_width 4;
            instruction G-SITEST 1000 boundary mode si ce;
            instruction O-SITEST 1001 boundary mode si toggles;
            instruction BYPASS 1111 bypass;
        }";
        let d = DeviceDescription::parse(text).unwrap();
        let dev = d.build(&|_| None).unwrap();
        let g = dev.instruction_set().by_name("G-SITEST").unwrap();
        assert!(g.si && g.ce && g.mode && !g.toggles_nd_sd);
        let o = dev.instruction_set().by_name("O-SITEST").unwrap();
        assert!(o.si && !o.ce && o.toggles_nd_sd);
    }

    #[test]
    fn error_reporting_includes_line() {
        let text = "device x {\n  ir_width 4;\n  bogus 1;\n}";
        let err = DeviceDescription::parse(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("unknown statement"));
    }

    #[test]
    fn missing_semicolon_rejected() {
        let text = "device x {\n  ir_width 4\n}";
        let err = DeviceDescription::parse(text).unwrap_err();
        assert!(err.message.contains("must end with"));
    }

    #[test]
    fn opcode_width_validated() {
        let text = "device x {\n  ir_width 4;\n  instruction FOO 101 bypass;\n}";
        let err = DeviceDescription::parse(text).unwrap_err();
        assert!(err.message.contains("opcode width"));
    }

    #[test]
    fn missing_brace_rejected() {
        let err = DeviceDescription::parse("device x {\n ir_width 4;").unwrap_err();
        assert!(err.message.contains("missing closing"));
    }

    #[test]
    fn duplicate_opcodes_rejected_at_build() {
        let text = "device x {\n ir_width 2;\n instruction A 01 bypass;\n instruction B 01 bypass;\n}";
        let d = DeviceDescription::parse(text).unwrap();
        assert!(d.build(&|_| None).is_err());
    }

    #[test]
    fn idcode_validation() {
        let text = "device x {\n ir_width 2;\n idcode manufacturer=0x900 part=1 version=1;\n}";
        let err = DeviceDescription::parse(text).unwrap_err();
        assert!(err.message.contains("out of range"));
        let text = "device x {\n ir_width 2;\n idcode manufacturer=1 part=1;\n}";
        assert!(DeviceDescription::parse(text).is_err());
    }

    #[test]
    fn bare_semicolon_is_an_error() {
        let err = DeviceDescription::parse("device x {\n ir_width 2;\n ;\n}").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("empty statement"));
    }

    #[test]
    fn cell_count_is_bounded() {
        let huge = format!("device x {{\n ir_width 2;\n cells {} standard;\n}}", usize::MAX);
        let err = DeviceDescription::parse(&huge).unwrap_err();
        assert!(err.message.contains("cells"), "{err}");
        // The cap is on the total, not per statement.
        let split = format!(
            "device x {{\n ir_width 2;\n cells {MAX_CELLS} standard;\n cell standard;\n}}"
        );
        assert_eq!(DeviceDescription::parse(&split).unwrap_err().line, 4);
        let at_cap = format!("device x {{\n ir_width 2;\n cells {MAX_CELLS} standard;\n}}");
        assert_eq!(DeviceDescription::parse(&at_cap).unwrap().cells.len(), MAX_CELLS);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\ndevice x { # inline\n ir_width 1; # width\n}\n";
        let d = DeviceDescription::parse(text).unwrap();
        assert_eq!(d.ir_width, 1);
    }
}
