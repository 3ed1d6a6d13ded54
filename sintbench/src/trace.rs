//! Spans around the calls the benchmark makes into each layer.
//!
//! The benchmark measures every layer from outside: a span opens just
//! before a call into a crate's public API and closes when it returns.
//! Spans live in per-thread buffers (registered once per thread, so a
//! worker that has exited still hands its spans over) and are merged
//! when the run ends. A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover.
//!
//! With tracing off, [`timed`] still measures the call — op latencies
//! need it — but records nothing and allocates no span id.

use sint_runtime::json::{Json, ToJson};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
type Buffer = Arc<Mutex<Vec<Span>>>;
static REGISTRY: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Buffer = {
        let buffer = Buffer::default();
        REGISTRY.lock().expect("span registry poisoned").push(Arc::clone(&buffer));
        buffer
    };
    /// Open spans on this thread, innermost last: the implicit parent.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The call, e.g. `SocBuilder::build`.
    pub name: &'static str,
    /// The crate layer the call enters (`core`, `fleet`, …) or `bench`.
    pub layer: &'static str,
    /// The workload op (device, round, floor) or board the call served.
    pub op: u64,
    /// Nanoseconds since the first span of the process.
    pub start_ns: u64,
    /// Nanoseconds since the first span of the process.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("layer", self.layer.to_json()),
            ("id", self.id.to_json()),
            ("op", self.op.to_json()),
            ("parent", self.parent.map_or(Json::Null, |p| p.to_json())),
            ("start_ns", self.start_ns.to_json()),
            ("end_ns", self.end_ns.to_json()),
        ])
    }
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread.
#[must_use]
pub fn current() -> Option<u64> {
    OPEN.with(|open| open.borrow().last().copied())
}

fn since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, returning its result and duration; when tracing is on,
/// records it as a span under this thread's innermost open span.
pub fn timed<R>(
    name: &'static str,
    layer: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    timed_under(current(), name, layer, op, f)
}

/// As [`timed`] with an explicit parent — for calls on worker threads
/// whose enclosing span was opened on another thread.
pub fn timed_under<R>(
    parent: Option<u64>,
    name: &'static str,
    layer: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    if !enabled() {
        let start = Instant::now();
        let out = f();
        return (out, start.elapsed());
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|open| open.borrow_mut().push(id));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    OPEN.with(|open| open.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        name,
        layer,
        op,
        start_ns: since_epoch(start),
        end_ns: since_epoch(end),
    };
    LOCAL.with(|buffer| buffer.lock().expect("span buffer poisoned").push(span));
    (out, end - start)
}

/// Records an interval the caller timed itself — e.g. between two
/// callbacks of one library call — under this thread's innermost open
/// span.
pub fn record(name: &'static str, layer: &'static str, op: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let span = Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: current(),
        name,
        layer,
        op,
        start_ns: since_epoch(start),
        end_ns: since_epoch(end),
    };
    LOCAL.with(|buffer| buffer.lock().expect("span buffer poisoned").push(span));
}

/// Takes every recorded span from every thread, ordered by start.
#[must_use]
pub fn drain() -> Vec<Span> {
    let registry = REGISTRY.lock().expect("span registry poisoned");
    let mut spans: Vec<Span> = registry
        .iter()
        .flat_map(|buffer| std::mem::take(&mut *buffer.lock().expect("span buffer poisoned")))
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals clipped to it. Children may nest or overlap —
/// sink calls from two workers overlap inside one engine span — and the
/// union counts each covered nanosecond once.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut intervals: Vec<(u64, u64)> = children
                .get(&span.id)
                .into_iter()
                .flatten()
                .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Per-layer totals: `(layer, spans, self ns)`, largest first.
#[must_use]
pub fn layer_totals(spans: &[Span]) -> Vec<(&'static str, usize, u64)> {
    let selfs = self_times(spans);
    let mut by_layer: HashMap<&'static str, (usize, u64)> = HashMap::new();
    for span in spans {
        let slot = by_layer.entry(span.layer).or_default();
        slot.0 += 1;
        slot.1 += selfs[&span.id];
    }
    let mut rows: Vec<_> = by_layer
        .into_iter()
        .map(|(l, (n, ns))| (l, n, ns))
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    rows
}

/// Writes `spans` as one JSON document.
///
/// # Errors
///
/// Any I/O failure.
pub fn write(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let doc = Json::obj([
        ("workload", workload.to_json()),
        (
            "spans",
            Json::Array(spans.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    std::fs::write(path, doc.render() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: "l",
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); c [50,60) under root.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 20, 30),
            span(4, Some(1), 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
        assert_eq!(
            selfs[&2],
            30 - 10,
            "a grandchild counts against its own parent only"
        );
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two workers' sink calls overlap inside an engine span; one
        // child sticks out past the parent's end.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 60, 65),
            span(5, Some(1), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[&1],
            100 - 60 - 10,
            "union [10,70) plus clipped [90,100)"
        );
        let totals = layer_totals(&spans);
        assert_eq!(totals, vec![("l", 5, 30 + 40 + 40 + 5 + 30)]);
    }

    #[test]
    fn timed_measures_even_when_off() {
        let ((), d) = timed("sleep", "bench", 0, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(d >= Duration::from_millis(2));
    }
}
