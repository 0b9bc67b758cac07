//! # medsim-obs — zero-cost-when-off observability
//!
//! The simulator's structured event layer. Three pieces:
//!
//! * **Knobs** — process-wide switches resolved once from the
//!   environment (`MEDSIM_TRACE_EVENTS`, `MEDSIM_SAMPLE_CYCLES`,
//!   `MEDSIM_REPORT_JSON`), with programmatic [`set_trace`] /
//!   [`set_sample_cycles`] / [`set_report_path`] overrides so
//!   integration tests can flip them without touching the
//!   environment.
//! * **Event sink** — a bounded process-global buffer of
//!   [`Event`]s. Every emission site in the simulator sits behind an
//!   `if obs::tracing()` branch, so with the knob off the entire
//!   subsystem is one relaxed atomic load per site — proven
//!   bitwise-invisible by the equivalence suites and priced by the
//!   gated `obs_off_overhead` bench row.
//! * **Chrome export** — [`chrome_trace_json`] renders drained events
//!   as Chrome `trace_event` JSON (the object form, with a schema
//!   tag), loadable in Perfetto / `chrome://tracing`.
//!
//! The sink is process-global: one simulation run is the intended
//! scope. When several runs trace into the same process (e.g. a grid
//! sweep), their events interleave in the buffer and the last run to
//! write a trace file wins the path.
//!
//! This crate is dependency-free and sits below `medsim-cpu` /
//! `medsim-mem` / `medsim-core`, which call into it from their hot
//! paths. It also carries a tiny JSON validator ([`validate_json`])
//! used by the schema-shape tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};

// ---------------------------------------------------------------------------
// Knobs
// ---------------------------------------------------------------------------

/// Default trace output path when `MEDSIM_TRACE_EVENTS=1`.
pub const DEFAULT_TRACE_PATH: &str = "medsim_trace.json";
/// Default report output path when `MEDSIM_REPORT_JSON=1`.
pub const DEFAULT_REPORT_PATH: &str = "medsim_run_report.json";

static INIT: Once = Once::new();
static TRACE_ON: AtomicBool = AtomicBool::new(false);
static SAMPLE_CYCLES: AtomicU64 = AtomicU64::new(0);
static PATHS: Mutex<Paths> = Mutex::new(Paths {
    trace: None,
    report: None,
});

#[derive(Debug, Clone)]
struct Paths {
    trace: Option<String>,
    report: Option<String>,
}

/// `MEDSIM_TRACE_EVENTS` semantics: unset/`0`/`off`/`false` → off;
/// `1`/`on`/`true` → on, default path; anything else → on, the value
/// is the output path.
fn parse_trace_knob(v: Option<&str>) -> (bool, Option<String>) {
    match v.map(str::trim) {
        None | Some("" | "0" | "off" | "false") => (false, None),
        Some("1" | "on" | "true") => (true, Some(DEFAULT_TRACE_PATH.to_string())),
        Some(path) => (true, Some(path.to_string())),
    }
}

/// `MEDSIM_SAMPLE_CYCLES` semantics: a positive integer enables the
/// interval sampler at that period; unset/`0`/unparsable → off.
fn parse_sample_knob(v: Option<&str>) -> u64 {
    v.and_then(|s| s.trim().parse::<u64>().ok()).unwrap_or(0)
}

/// `MEDSIM_REPORT_JSON` semantics: unset/`0`/`off`/`false` → off;
/// `1`/`on`/`true` → default path; anything else → the value is the
/// output path.
fn parse_report_knob(v: Option<&str>) -> Option<String> {
    match v.map(str::trim) {
        None | Some("" | "0" | "off" | "false") => None,
        Some("1" | "on" | "true") => Some(DEFAULT_REPORT_PATH.to_string()),
        Some(path) => Some(path.to_string()),
    }
}

fn init() {
    INIT.call_once(|| {
        let (on, trace_path) =
            parse_trace_knob(std::env::var("MEDSIM_TRACE_EVENTS").ok().as_deref());
        TRACE_ON.store(on, Ordering::Relaxed);
        SAMPLE_CYCLES.store(
            parse_sample_knob(std::env::var("MEDSIM_SAMPLE_CYCLES").ok().as_deref()),
            Ordering::Relaxed,
        );
        let report = parse_report_knob(std::env::var("MEDSIM_REPORT_JSON").ok().as_deref());
        let mut p = PATHS.lock().unwrap_or_else(|e| e.into_inner());
        p.trace = trace_path;
        p.report = report;
    });
}

/// Whether event tracing is on. The only check emission sites make —
/// one `Once` fast-path load plus one relaxed atomic load; everything
/// heavier hides behind it.
#[inline]
pub fn tracing() -> bool {
    init();
    TRACE_ON.load(Ordering::Relaxed)
}

/// Interval-sampler period in cycles; `0` means sampling is off.
#[inline]
pub fn sample_cycles() -> u64 {
    init();
    SAMPLE_CYCLES.load(Ordering::Relaxed)
}

/// Where the machine layer should write the Chrome trace at run end,
/// if anywhere. `None` with [`tracing`] on means "buffer only" — the
/// mode the schema-shape tests use to drain events themselves.
pub fn trace_path() -> Option<String> {
    init();
    PATHS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .trace
        .clone()
}

/// Where the machine layer should write the per-run JSON report, if
/// anywhere.
pub fn report_path() -> Option<String> {
    init();
    PATHS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .report
        .clone()
}

/// Whether any observability output is active — event tracing, the
/// interval sampler, or the per-run JSON report. The result cache
/// consults this to bypass warm hits: a run that never executes has no
/// timeline, samples or roofline to emit, so observed runs must always
/// simulate.
#[must_use]
pub fn observing() -> bool {
    tracing() || sample_cycles() > 0 || report_path().is_some()
}

/// Programmatic override of the trace knob (tests; last caller wins).
/// `path: None` keeps events in the buffer instead of writing a file.
pub fn set_trace(on: bool, path: Option<&str>) {
    init();
    TRACE_ON.store(on, Ordering::Relaxed);
    PATHS.lock().unwrap_or_else(|e| e.into_inner()).trace = path.map(str::to_string);
}

/// Programmatic override of the sampler period (tests; `0` disables).
pub fn set_sample_cycles(n: u64) {
    init();
    SAMPLE_CYCLES.store(n, Ordering::Relaxed);
}

/// Programmatic override of the report path (tests).
pub fn set_report_path(path: Option<&str>) {
    init();
    PATHS.lock().unwrap_or_else(|e| e.into_inner()).report = path.map(str::to_string);
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Synthetic lane id for machine-level events (the run span).
pub const LANE_MACHINE: u32 = u32::MAX;
/// Synthetic lane id for frontend worker events (ring stalls, budget
/// waits) — they happen on host worker threads, not on a core.
pub const LANE_FRONTEND: u32 = u32::MAX - 1;
/// Synthetic lane id for the shared L2/DRAM backend.
pub const LANE_SHARED_MEM: u32 = u32::MAX - 2;

/// What happened. One variant per emission site class; the meaning of
/// [`Event::arg`] depends on the kind (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Instructions fetched this cycle on a core (`arg` = count).
    Fetch,
    /// Instructions issued this cycle on a core (`arg` = count).
    Issue,
    /// Instructions committed this cycle on a core (`arg` = count).
    Commit,
    /// L1 data-cache miss (`arg` = address).
    L1Miss,
    /// Shared/backend L2 miss (`arg` = line address).
    L2Miss,
    /// DRAM channel access (`arg` = 0 read, 1 write).
    DramAccess,
    /// A core blocked on an empty frontend ring (`arg` = 0).
    RingStall,
    /// A frontend fell back to inline synthesis because the job
    /// budget was dry (`arg` = 0).
    BudgetWait,
    /// A machine run begins (`arg` = core count).
    RunBegin,
    /// A machine run ends (`arg` = total cycles).
    RunEnd,
    /// The decoupled vector-fetch unit issued stream elements ahead of
    /// execute this cycle (`arg` = element count).
    VfetchIssue,
    /// A redirect flushed a thread's run-ahead state (`arg` = discarded
    /// early-issued elements).
    VfetchFlush,
}

/// One traced occurrence. 24 bytes; the sink caps at
/// [`EVENT_CAP`] events and counts drops past that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle (host-approximate for frontend lanes).
    pub ts: u64,
    /// Core index, or one of the `LANE_*` synthetic lanes.
    pub lane: u32,
    /// What happened.
    pub kind: EventKind,
    /// Kind-dependent payload (see [`EventKind`]).
    pub arg: u64,
}

/// Sink capacity; beyond it events are counted as dropped, not stored.
pub const EVENT_CAP: usize = 1 << 20;

struct Sink {
    events: Vec<Event>,
    dropped: u64,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    events: Vec::new(),
    dropped: 0,
});

/// Latest cycle any core reported while tracing — gives frontend-lane
/// events (which fire on host worker threads) an approximate
/// timestamp. A relaxed hint, not a clock.
static NOW_HINT: AtomicU64 = AtomicU64::new(0);

/// Record the current cycle of a core so off-core lanes can
/// timestamp approximately. Call only under [`tracing`].
#[inline]
pub fn note_cycle(now: u64) {
    NOW_HINT.store(now, Ordering::Relaxed);
}

/// The last cycle noted via [`note_cycle`] (0 before any).
#[inline]
pub fn approx_now() -> u64 {
    NOW_HINT.load(Ordering::Relaxed)
}

/// Append one event to the sink. Emission sites call this only under
/// an `if obs::tracing()` branch; calling it with tracing off is
/// harmless but buffers the event anyway.
pub fn emit(ts: u64, lane: u32, kind: EventKind, arg: u64) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if sink.events.len() >= EVENT_CAP {
        sink.dropped += 1;
        return;
    }
    sink.events.push(Event {
        ts,
        lane,
        kind,
        arg,
    });
}

/// Take all buffered events (and the drop count), leaving the sink
/// empty for the next run.
pub fn drain_events() -> (Vec<Event>, u64) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let dropped = sink.dropped;
    sink.dropped = 0;
    (std::mem::take(&mut sink.events), dropped)
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

fn lane_tid(lane: u32) -> u64 {
    match lane {
        LANE_MACHINE => 1000,
        LANE_FRONTEND => 1001,
        LANE_SHARED_MEM => 1002,
        core => u64::from(core),
    }
}

fn event_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Fetch => "fetch",
        EventKind::Issue => "issue",
        EventKind::Commit => "commit",
        EventKind::L1Miss => "l1_miss",
        EventKind::L2Miss => "l2_miss",
        EventKind::DramAccess => "dram",
        EventKind::RingStall => "ring_stall",
        EventKind::BudgetWait => "budget_wait",
        EventKind::RunBegin | EventKind::RunEnd => "run",
        EventKind::VfetchIssue => "vfetch_issue",
        EventKind::VfetchFlush => "vfetch_flush",
    }
}

fn event_phase(kind: EventKind) -> &'static str {
    match kind {
        EventKind::RunBegin => "B",
        EventKind::RunEnd => "E",
        _ => "i",
    }
}

/// Render events as Chrome `trace_event` JSON (object form). Events
/// are stably sorted by timestamp, so `ts` is monotonically
/// non-decreasing in the output and same-cycle events keep emission
/// order — which is what keeps B/E span pairs properly nested.
/// Cycles map 1:1 onto the format's microsecond timestamps.
pub fn chrome_trace_json(events: &[Event], dropped: u64) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts);
    let mut out = String::with_capacity(64 + sorted.len() * 96);
    out.push_str("{\n  \"schema\": \"medsim-chrome-trace/v1\",\n");
    out.push_str(&format!("  \"droppedEvents\": {dropped},\n"));
    out.push_str("  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        let name = event_name(e.kind);
        let ph = event_phase(e.kind);
        let tid = lane_tid(e.lane);
        let ts = e.ts;
        let arg = e.arg;
        if ph == "i" {
            out.push_str(&format!(
                "{{\"name\": \"{name}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {ts}, \
                 \"pid\": 1, \"tid\": {tid}, \"args\": {{\"v\": {arg}}}}}"
            ));
        } else {
            out.push_str(&format!(
                "{{\"name\": \"{name}\", \"ph\": \"{ph}\", \"ts\": {ts}, \
                 \"pid\": 1, \"tid\": {tid}, \"args\": {{\"v\": {arg}}}}}"
            ));
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// JSON helpers (shared by the report writers and the shape tests)
// ---------------------------------------------------------------------------

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as JSON: finite values print plainly, non-finite
/// ones (JSON has no NaN/Inf) as `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Validate that `s` is one well-formed JSON value (full parse, no
/// trailing garbage). A minimal recursive-descent checker for the
/// schema-shape tests — structure only, no value extraction.
///
/// # Errors
///
/// Returns a byte offset and message for the first syntax error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {pos}"));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_knob_parses_all_forms() {
        assert_eq!(parse_trace_knob(None), (false, None));
        assert_eq!(parse_trace_knob(Some("0")), (false, None));
        assert_eq!(parse_trace_knob(Some("off")), (false, None));
        assert_eq!(parse_trace_knob(Some("false")), (false, None));
        assert_eq!(parse_trace_knob(Some("")), (false, None));
        assert_eq!(
            parse_trace_knob(Some("1")),
            (true, Some(DEFAULT_TRACE_PATH.to_string()))
        );
        assert_eq!(
            parse_trace_knob(Some("on")),
            (true, Some(DEFAULT_TRACE_PATH.to_string()))
        );
        assert_eq!(
            parse_trace_knob(Some("/tmp/t.json")),
            (true, Some("/tmp/t.json".to_string()))
        );
    }

    #[test]
    fn sample_and_report_knobs_parse() {
        assert_eq!(parse_sample_knob(None), 0);
        assert_eq!(parse_sample_knob(Some("0")), 0);
        assert_eq!(parse_sample_knob(Some("nope")), 0);
        assert_eq!(parse_sample_knob(Some("5000")), 5000);
        assert_eq!(parse_report_knob(None), None);
        assert_eq!(parse_report_knob(Some("off")), None);
        assert_eq!(
            parse_report_knob(Some("1")),
            Some(DEFAULT_REPORT_PATH.to_string())
        );
        assert_eq!(
            parse_report_knob(Some("r.json")),
            Some("r.json".to_string())
        );
    }

    #[test]
    fn sink_drains_and_counts_drops() {
        // The sink is process-global; this test owns it because the
        // other tests in this crate never emit.
        let _ = drain_events();
        emit(3, 0, EventKind::Commit, 4);
        emit(1, LANE_MACHINE, EventKind::RunBegin, 1);
        let (events, dropped) = drain_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Commit);
        let (empty, _) = drain_events();
        assert!(empty.is_empty());
    }

    #[test]
    fn chrome_export_sorts_and_validates() {
        let events = vec![
            Event {
                ts: 0,
                lane: LANE_MACHINE,
                kind: EventKind::RunBegin,
                arg: 2,
            },
            Event {
                ts: 9,
                lane: 1,
                kind: EventKind::Commit,
                arg: 3,
            },
            Event {
                ts: 4,
                lane: 0,
                kind: EventKind::L1Miss,
                arg: 0xdead,
            },
            Event {
                ts: 9,
                lane: LANE_MACHINE,
                kind: EventKind::RunEnd,
                arg: 9,
            },
        ];
        let json = chrome_trace_json(&events, 1);
        validate_json(&json).expect("chrome export must be valid JSON");
        assert!(json.contains("\"schema\": \"medsim-chrome-trace/v1\""));
        assert!(json.contains("\"droppedEvents\": 1"));
        // Sorted: the ts=4 instant must appear before the ts=9 ones.
        let a = json.find("\"ts\": 4").unwrap();
        let b = json.find("\"ts\": 9").unwrap();
        assert!(a < b);
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{}").unwrap();
        validate_json("[1, 2.5, -3e4, \"a\\n\", true, null, {\"k\": []}]").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\" 1}").is_err());
        assert!(validate_json("01abc").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{} trailing").is_err());
    }

    #[test]
    fn escape_and_f64_helpers() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
