//! The pluggable collector and the global recording switch.
//!
//! Exactly one collector is installed process-wide at a time. The hot-path
//! contract is *pay-for-what-you-use*: with no collector installed,
//! `tracing_enabled()` is a single relaxed atomic load, and the `span!` /
//! `event!` macros evaluate none of their field expressions. Installing a
//! collector flips the switch; every subsequent event flows through
//! [`Collector::record`].

use crate::event::{current_tid, now_us, Event, EventKind, Level, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A sink for [`Event`]s. Implementations must be cheap and non-blocking
/// enough to sit on the tuner's hot path.
pub trait Collector: Send + Sync {
    /// Record one event.
    fn record(&self, ev: Event);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Install `c` as the process-wide collector and enable tracing.
pub fn install(c: Arc<dyn Collector>) {
    let mut slot = COLLECTOR.write().unwrap_or_else(|p| p.into_inner());
    *slot = Some(c);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disable tracing and remove the collector, returning it.
pub fn uninstall() -> Option<Arc<dyn Collector>> {
    ENABLED.store(false, Ordering::SeqCst);
    COLLECTOR.write().unwrap_or_else(|p| p.into_inner()).take()
}

/// Whether a collector is installed. The one branch every disabled-path
/// macro pays.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record a fully-formed event (no-op when no collector is installed).
pub fn record(ev: Event) {
    let guard = COLLECTOR.read().unwrap_or_else(|p| p.into_inner());
    if let Some(c) = guard.as_ref() {
        c.record(ev);
    }
}

/// Record an instantaneous [`EventKind::Point`] marker. Called by the
/// `event!` macro, which has already checked [`tracing_enabled`].
pub fn record_point(name: &'static str, fields: Vec<(&'static str, Value)>) {
    record(Event {
        ts_us: now_us(),
        tid: current_tid(),
        kind: EventKind::Point { name },
        fields,
    });
}

/// Whether a `log!` at `level` would be observed anywhere: through the
/// collector when tracing, or on stderr for `Warn`/`Error` otherwise.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    tracing_enabled() || level >= Level::Warn
}

/// Route one formatted log line: to the collector when tracing, else to
/// stderr for `Warn`/`Error` (so library crates never print directly).
pub fn emit_log(level: Level, message: String) {
    if tracing_enabled() {
        record(Event {
            ts_us: now_us(),
            tid: current_tid(),
            kind: EventKind::Log { level, message },
            fields: Vec::new(),
        });
    } else if level >= Level::Warn {
        eprintln!("[{}] {message}", level.as_str());
    }
}

/// An RAII span guard: records `Begin` on construction and `End` on drop.
/// Disabled spans (no collector at entry) carry id 0 and record nothing.
#[must_use = "a span closes when dropped; binding to _ closes it immediately"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    id: u64,
}

impl Span {
    /// Open a span. Called by the `span!` macro after its enabled check;
    /// re-checks so direct callers are also safe.
    pub fn enter(name: &'static str, mut fields: Vec<(&'static str, Value)>) -> Span {
        if !tracing_enabled() {
            return Span::disabled(name);
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        fields.push(("span", Value::U64(id)));
        record(Event {
            ts_us: now_us(),
            tid: current_tid(),
            kind: EventKind::Begin { name },
            fields,
        });
        Span { name, id }
    }

    /// The no-op span the `span!` macro returns when tracing is off.
    pub fn disabled(name: &'static str) -> Span {
        Span { name, id: 0 }
    }

    /// Process-unique span id; 0 when the span is disabled. Point events
    /// reference it (e.g. `walk.step` carries `walk = span.id()`).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        record(Event {
            ts_us: now_us(),
            tid: current_tid(),
            kind: EventKind::End { name: self.name },
            fields: vec![("span", Value::U64(self.id))],
        });
    }
}

/// In-process ring buffer: keeps the newest `cap` events, dropping the
/// oldest on overflow. The `gensor trace` collector.
pub struct RingCollector {
    cap: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingCollector {
    /// A ring holding at most `cap` events.
    pub fn new(cap: usize) -> RingCollector {
        RingCollector {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Drain the buffer, returning the events, oldest first.
    pub fn take(&self) -> Vec<Event> {
        self.buf
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Collector for RingCollector {
    fn record(&self, ev: Event) {
        let mut buf = self.buf.lock().unwrap_or_else(|p| p.into_inner());
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(ev);
    }
}

/// One event as a JSONL line (the flight recorder writes these into its
/// dump files).
pub fn render_jsonl(ev: &Event) -> String {
    let mut s = String::with_capacity(128);
    s.push_str("{\"ts_us\":");
    s.push_str(&ev.ts_us.to_string());
    s.push_str(",\"tid\":");
    s.push_str(&ev.tid.to_string());
    match &ev.kind {
        EventKind::Begin { name } => {
            s.push_str(",\"ph\":\"B\",\"name\":");
            s.push_str(&crate::json::string(name));
        }
        EventKind::End { name } => {
            s.push_str(",\"ph\":\"E\",\"name\":");
            s.push_str(&crate::json::string(name));
        }
        EventKind::Point { name } => {
            s.push_str(",\"ph\":\"i\",\"name\":");
            s.push_str(&crate::json::string(name));
        }
        EventKind::Log { level, message } => {
            s.push_str(",\"ph\":\"log\",\"level\":");
            s.push_str(&crate::json::string(level.as_str()));
            s.push_str(",\"message\":");
            s.push_str(&crate::json::string(message));
        }
    }
    if !ev.fields.is_empty() {
        s.push_str(",\"fields\":{");
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&crate::json::string(k));
            s.push(':');
            s.push_str(&crate::json::value(v));
        }
        s.push('}');
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector slot is process-global; tests that install one
    // serialize on this lock so `cargo test`'s parallel runner cannot
    // interleave them.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_span_records_nothing_and_has_id_zero() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!tracing_enabled());
        let sp = Span::enter("quiet", Vec::new());
        assert_eq!(sp.id(), 0);
        drop(sp);
    }

    #[test]
    fn ring_collector_captures_nested_spans() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let ring = Arc::new(RingCollector::new(64));
        install(ring.clone());
        {
            let outer = Span::enter("outer", vec![("k", Value::U64(7))]);
            assert!(outer.id() > 0);
            let _inner = Span::enter("inner", Vec::new());
            record_point("tick", vec![("outer", Value::U64(outer.id()))]);
        }
        uninstall();
        let evs = ring.events();
        assert_eq!(evs.len(), 5, "{evs:?}");
        assert!(matches!(evs[0].kind, EventKind::Begin { name: "outer" }));
        assert!(matches!(evs[1].kind, EventKind::Begin { name: "inner" }));
        assert!(matches!(evs[2].kind, EventKind::Point { name: "tick" }));
        // Drop order closes inner before outer.
        assert!(matches!(evs[3].kind, EventKind::End { name: "inner" }));
        assert!(matches!(evs[4].kind, EventKind::End { name: "outer" }));
        assert_eq!(evs[0].field("k"), Some(&Value::U64(7)));
        // Nothing leaks after uninstall.
        record_point("after", Vec::new());
        assert_eq!(ring.len(), 5);
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let ring = Arc::new(RingCollector::new(3));
        install(ring.clone());
        for i in 0..10u64 {
            record_point("n", vec![("i", Value::U64(i))]);
        }
        uninstall();
        let evs = ring.take();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].field("i"), Some(&Value::U64(7)));
        assert!(ring.is_empty());
    }

    #[test]
    fn render_jsonl_writes_one_line_per_event() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let ring = Arc::new(RingCollector::new(8));
        install(ring.clone());
        {
            let _sp = Span::enter("io", vec![("file", Value::Str("x\"y".into()))]);
            emit_log(Level::Warn, "watch \"out\"\nnext".into());
        }
        uninstall();
        let lines: Vec<String> = ring.take().iter().map(render_jsonl).collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines.iter().all(|l| !l.contains('\n')), "{lines:?}");
        assert!(lines[0].contains("\"ph\":\"B\""));
        assert!(lines[0].contains("x\\\"y"));
        assert!(lines[1].contains("\"level\":\"warn\""));
        assert!(lines[2].contains("\"ph\":\"E\""));
    }

    #[test]
    fn log_levels_gate_without_a_collector() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!log_enabled(Level::Debug));
        assert!(!log_enabled(Level::Info));
        assert!(log_enabled(Level::Warn));
        assert!(log_enabled(Level::Error));
        let ring = Arc::new(RingCollector::new(8));
        install(ring.clone());
        assert!(log_enabled(Level::Debug));
        emit_log(Level::Info, "hello".into());
        uninstall();
        assert_eq!(ring.len(), 1);
    }
}
