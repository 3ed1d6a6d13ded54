//! Waveform traces: change dumps, ASCII rendering and VCD export.
//!
//! The paper's figures (PGBSC operation in Fig 7, OBSC `sel` timing in
//! Fig 10) are cycle-level timing diagrams. [`Trace`] records named
//! signals over integer ticks and renders them either as ASCII timing
//! diagrams (used by the `fig_*` experiment binaries) or as VCD for an
//! external viewer.

use crate::logic::Logic;
use sint_runtime::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A multi-signal, tick-indexed waveform recording.
///
/// ```
/// use sint_logic::{Trace, Logic};
/// let mut t = Trace::new();
/// t.record("clk", 0, Logic::Zero);
/// t.record("clk", 1, Logic::One);
/// t.record("clk", 2, Logic::Zero);
/// assert_eq!(t.value_at("clk", 1), Some(Logic::One));
/// assert_eq!(t.value_at("clk", 5), Some(Logic::Zero)); // holds last value
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// signal name → (tick → value) change list.
    signals: BTreeMap<String, BTreeMap<u64, Logic>>,
    /// Highest tick seen in any record call.
    horizon: u64,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records `value` on `signal` at `tick`. Re-recording the same value
    /// is a no-op change-wise but still extends the horizon.
    pub fn record(&mut self, signal: &str, tick: u64, value: Logic) {
        self.horizon = self.horizon.max(tick);
        let changes = self.signals.entry(signal.to_string()).or_default();
        // Only store actual changes to keep the dump minimal.
        let prev = changes.range(..=tick).next_back().map(|(_, v)| *v);
        if prev != Some(value) {
            changes.insert(tick, value);
        }
    }

    /// Number of ticks covered (0..=horizon).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Names of all recorded signals, sorted.
    fn signal_names(&self) -> impl Iterator<Item = &str> {
        self.signals.keys().map(String::as_str)
    }

    /// The value of `signal` at `tick` (holding the last change), or
    /// `None` for an unknown signal or a tick before its first record.
    #[must_use]
    pub fn value_at(&self, signal: &str, tick: u64) -> Option<Logic> {
        let changes = self.signals.get(signal)?;
        changes.range(..=tick).next_back().map(|(_, v)| *v)
    }

    /// Renders all signals as an ASCII timing diagram, one row per signal
    /// in insertion-independent (sorted) order.
    ///
    /// `1` renders as `▔`, `0` as `▁`, `X` as `x`, `Z` as `~`.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let width = self.signals.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for name in self.signals.keys() {
            let _ = write!(out, "{name:>width$} ");
            for t in 0..=self.horizon {
                let c = match self.value_at(name, t) {
                    Some(Logic::One) => '▔',
                    Some(Logic::Zero) => '▁',
                    Some(Logic::X) | None => 'x',
                    Some(Logic::Z) => '~',
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }

    /// Serialises the trace as a minimal VCD document.
    #[must_use]
    pub fn to_vcd(&self, timescale: &str) -> String {
        VcdWriter::new(timescale).write(self)
    }
}

impl ToJson for Trace {
    fn to_json(&self) -> Json {
        // Each signal becomes an ordered change list [[tick, "0|1|X|Z"], ...].
        let signals = Json::Object(
            self.signals
                .iter()
                .map(|(name, changes)| {
                    let list = Json::Array(
                        changes
                            .iter()
                            .map(|(tick, v)| {
                                Json::Array(vec![
                                    tick.to_json(),
                                    v.to_char().to_string().to_json(),
                                ])
                            })
                            .collect(),
                    );
                    (name.clone(), list)
                })
                .collect(),
        );
        Json::obj([("horizon", self.horizon.to_json()), ("signals", signals)])
    }
}

/// Writes [`Trace`]s as Value Change Dump text.
#[derive(Debug, Clone)]
pub struct VcdWriter {
    timescale: String,
}

impl VcdWriter {
    /// Creates a writer with a VCD timescale string such as `"1ns"`.
    #[must_use]
    pub fn new(timescale: &str) -> Self {
        VcdWriter { timescale: timescale.to_string() }
    }

    /// Renders the trace to a VCD document.
    #[must_use]
    pub fn write(&self, trace: &Trace) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$timescale {} $end", self.timescale);
        let _ = writeln!(out, "$scope module sint $end");
        // Assign single-char-ish identifiers: ! " # ... per VCD custom.
        let names: Vec<&str> = trace.signal_names().collect();
        let idents: Vec<String> =
            (0..names.len()).map(|i| format!("s{i}")).collect();
        for (name, ident) in names.iter().zip(&idents) {
            let _ = writeln!(out, "$var wire 1 {ident} {name} $end");
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        // Gather all change ticks across signals.
        let mut ticks: Vec<u64> = trace
            .signals
            .values()
            .flat_map(|m| m.keys().copied())
            .collect();
        ticks.sort_unstable();
        ticks.dedup();
        for t in ticks {
            let _ = writeln!(out, "#{t}");
            for (name, ident) in names.iter().zip(&idents) {
                if let Some(changes) = trace.signals.get(*name) {
                    if let Some(v) = changes.get(&t) {
                        let _ = writeln!(out, "{}{}", v.to_char(), ident);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_trace() -> Trace {
        let mut t = Trace::new();
        for tick in 0..6 {
            t.record("clk", tick, Logic::from(tick % 2 == 1));
        }
        t.record("data", 0, Logic::Zero);
        t.record("data", 3, Logic::One);
        t
    }

    #[test]
    fn value_holds_last_change() {
        let t = clock_trace();
        assert_eq!(t.value_at("data", 0), Some(Logic::Zero));
        assert_eq!(t.value_at("data", 2), Some(Logic::Zero));
        assert_eq!(t.value_at("data", 3), Some(Logic::One));
        assert_eq!(t.value_at("data", 5), Some(Logic::One));
        assert_eq!(t.value_at("nosuch", 0), None);
    }

    #[test]
    fn horizon_tracks_max_tick() {
        let t = clock_trace();
        assert_eq!(t.horizon(), 5);
    }

    #[test]
    fn duplicate_records_do_not_create_changes() {
        let mut t = Trace::new();
        t.record("a", 0, Logic::One);
        t.record("a", 1, Logic::One);
        t.record("a", 2, Logic::Zero);
        let changes = &t.signals["a"];
        assert_eq!(changes.len(), 2, "only 0→1 at t0 and 1→0 at t2");
    }

    #[test]
    fn ascii_rendering_shape() {
        let t = clock_trace();
        let art = t.to_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("clk"));
        assert!(lines[0].contains('▔'));
        assert!(lines[0].contains('▁'));
        // data is low then high from t3.
        assert!(lines[1].ends_with("▁▁▁▔▔▔"));
    }

    #[test]
    fn vcd_contains_header_and_changes() {
        let t = clock_trace();
        let vcd = t.to_vcd("1ns");
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$var wire 1 s0 clk $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#3"));
        // tick 3: clk goes 1 and data goes 1
        let after3 = vcd.split("#3").nth(1).unwrap();
        assert!(after3.starts_with('\n'));
        assert!(after3.contains("1s1"), "data change at t3: {after3}");
    }

    #[test]
    fn unrecorded_prefix_renders_as_x() {
        let mut t = Trace::new();
        t.record("late", 3, Logic::One);
        let art = t.to_ascii();
        assert!(art.contains("xxx▔"), "ticks 0-2 unknown: {art}");
    }
}
