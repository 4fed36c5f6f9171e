//! Scoped RAII span timers exported as Chrome trace-event JSON.
//!
//! The tracer is **off by default and free when off**: [`span`] checks
//! one relaxed atomic and returns a `None`-carrying guard — no
//! allocation, no clock read, no lock (pinned by the zero-overhead test
//! in `tests/integration_obs.rs`).  After [`install`], each guard records
//! its wall-clock interval on drop, tagged with a small per-thread id, so
//! nesting is recoverable purely from interval containment per thread.
//!
//! Spans measure; they never decide.  Nothing downstream may read a span
//! or the enabled flag to change behavior — that is what keeps traced and
//! untraced runs byte-identical.
//!
//! Export is the Chrome trace-event format (`{"traceEvents":[...]}`, all
//! complete `"ph":"X"` events, timestamps in microseconds), loadable in
//! Perfetto / `chrome://tracing` and checkable offline with the
//! `trace_check` binary.

use std::cell::Cell;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape_string;

/// Cheap global gate; relaxed load on every span construction.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct Sink {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

static SINK: OnceLock<Sink> = OnceLock::new();

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// 0 = not yet assigned; assigned lazily on the first recorded span.
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn current_tid() -> u32 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// One completed span: a closed wall-clock interval on one thread.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name (dotted, e.g. `"stage.sta"`).
    pub name: String,
    /// Small dense per-thread id (assigned in first-span order).
    pub tid: u32,
    /// Start, nanoseconds since [`install`].
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Turns the tracer on, creating the shared sink on first call.  Safe to
/// call more than once; the epoch is set by the first installation.
pub fn install() {
    SINK.get_or_init(|| Sink { epoch: Instant::now(), events: Mutex::new(Vec::new()) });
    ENABLED.store(true, Ordering::Release);
}

/// Turns the tracer back off.  Already-open spans discard themselves on
/// drop; buffered events stay until [`take_events`] drains them.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans currently record.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drains and returns every buffered event (empty if never installed).
pub fn take_events() -> Vec<TraceEvent> {
    match SINK.get() {
        Some(sink) => std::mem::take(&mut *sink.events.lock().unwrap()),
        None => Vec::new(),
    }
}

enum SpanName {
    Static(&'static str),
    Owned(String),
}

struct ActiveSpan {
    name: SpanName,
    start: Instant,
}

/// RAII span guard: records the interval from construction to drop.
///
/// When the tracer is disabled the guard holds `None` — constructing and
/// dropping it does no work at all.
pub struct Span {
    active: Option<ActiveSpan>,
}

/// Opens a span with a static name.  The common form: free when the
/// tracer is off.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span { active: None };
    }
    Span { active: Some(ActiveSpan { name: SpanName::Static(name), start: Instant::now() }) }
}

/// Opens a span with a lazily built dynamic name (`job:c432`).  The
/// closure runs — and allocates — only when the tracer is on.
#[inline]
pub fn span_owned(name: impl FnOnce() -> String) -> Span {
    if !is_enabled() {
        return Span { active: None };
    }
    Span { active: Some(ActiveSpan { name: SpanName::Owned(name()), start: Instant::now() }) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        // `disable()` between open and close drops the event, not the lock
        // discipline: the sink always exists once a span was ever active.
        if !is_enabled() {
            return;
        }
        let Some(sink) = SINK.get() else { return };
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        let ts_ns = active.start.duration_since(sink.epoch).as_nanos() as u64;
        let name = match active.name {
            SpanName::Static(s) => s.to_string(),
            SpanName::Owned(s) => s,
        };
        sink.events.lock().unwrap().push(TraceEvent { name, tid: current_tid(), ts_ns, dur_ns });
    }
}

/// Renders events as Chrome trace-event JSON.  Events are sorted by
/// `(tid, start, -duration, name)` so parents precede their children and
/// the bytes are a pure function of the recorded intervals.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by(|a, b| {
        (a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns), &a.name).cmp(&(
            b.tid,
            b.ts_ns,
            std::cmp::Reverse(b.dur_ns),
            &b.name,
        ))
    });
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in order.iter().enumerate() {
        let sep = if i + 1 < order.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{{\"name\":{},\"cat\":\"rapids\",\"ph\":\"X\",\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{}}}{sep}",
            escape_string(&e.name),
            e.ts_ns / 1000,
            e.ts_ns % 1000,
            e.dur_ns / 1000,
            e.dur_ns % 1000,
            e.tid,
        );
    }
    out.push_str("]}\n");
    out
}

/// Drains the sink and writes the Chrome trace JSON to `path`.
///
/// # Errors
///
/// Propagates the underlying file write error.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    let events = take_events();
    std::fs::write(path, chrome_trace_json(&events))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enabled flag and sink are process-global; tests that flip them
    /// serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        disable();
        let before = take_events().len();
        {
            let _a = span("never");
            let _b = span_owned(|| panic!("closure must not run while disabled"));
        }
        assert_eq!(take_events().len(), 0, "no events buffered (drained {before} stale)");
    }

    #[test]
    fn spans_nest_by_containment_on_one_thread() {
        let _guard = TEST_LOCK.lock().unwrap();
        install();
        take_events();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span_owned(|| format!("inner:{}", 7));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        disable();
        let events = take_events();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.name == "inner:7").unwrap();
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.ts_ns >= outer.ts_ns, "child starts inside parent");
        assert!(
            inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns,
            "child ends inside parent"
        );
    }

    #[test]
    fn chrome_json_sorts_parents_first_and_escapes() {
        let events = vec![
            TraceEvent { name: "child".into(), tid: 3, ts_ns: 1_500, dur_ns: 400 },
            TraceEvent { name: "pa\"rent".into(), tid: 3, ts_ns: 1_500, dur_ns: 2_000 },
            TraceEvent { name: "first-thread".into(), tid: 1, ts_ns: 9_999, dur_ns: 1 },
        ];
        let json = chrome_trace_json(&events);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines[0], "{\"traceEvents\":[");
        assert!(lines[1].contains("first-thread"), "tid 1 sorts before tid 3");
        assert!(lines[2].contains("pa\\\"rent"), "longer event first at equal start");
        assert!(lines[2].contains("\"ts\":1.500,\"dur\":2.000"));
        assert!(lines[3].contains("\"child\""));
        assert_eq!(lines[4], "]}");
    }
}
