//! Chrome trace-event JSON exporter.
//!
//! Produces the `{"traceEvents": [...]}` object format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Layout:
//!
//! - pid 1 ("cores"): one thread track per core (`cpu0`, `cpu1`, ...)
//!   carrying `X` complete events for every task occupancy interval,
//!   `i` instant events for wakes/sleeps/preemptions/migrations,
//!   balancer activations and server-request lifecycle points, and `C`
//!   counter tracks for core-level speed samples.
//! - pid 2 ("tasks"): `C` counter tracks for per-task speed samples.
//! - async nestable `b`/`e` spans (pid 1) for barrier episodes, one id
//!   per episode condition, so barrier wait epochs render as horizontal
//!   bars above the core tracks.
//!
//! Timestamps are microseconds with nanosecond precision (three decimal
//! places), matching the trace-event spec's `ts` unit.
//!
//! The exporter **streams** through a small byte writer:
//! [`export_chrome_to`] appends each record's literal JSON pieces,
//! decimal digits and in-place escaped task names to one chunk buffer,
//! and hands the buffer to the caller's writer each time it passes
//! 64 KiB. Exporting a multi-gigabyte server trace therefore never
//! materializes the whole document, and the export allocates a fixed
//! amount however many records it writes. Integers, timestamps and
//! millisecond durations are written as digits; only the few float
//! metrics (speeds, frequency ratios, balancer averages) and stamps at
//! or beyond 2^52 ns go through `core::fmt`. [`export_chrome`] is a
//! convenience wrapper that collects the same byte stream into a
//! `String`.

use crate::event::TraceEvent;
use crate::sink::{TaskName, TraceBuffer};
use speedbal_machine::DomainLevel;
use speedbal_sim::SimTime;
use std::fmt;
use std::io::{self, Write};

/// The buffered output is handed to the caller's writer once it holds
/// at least this many bytes.
const CHUNK: usize = 1 << 16;

/// Event heads: the phase and process, up to the `tid` value. Process 1
/// holds the core tracks, process 2 the per-task counter tracks.
const CORE_META: &[u8] = b"\"ph\":\"M\",\"pid\":1,\"tid\":";
const TASK_META: &[u8] = b"\"ph\":\"M\",\"pid\":2,\"tid\":";
const COMPLETE: &[u8] = b"\"ph\":\"X\",\"pid\":1,\"tid\":";
const INSTANT: &[u8] = b"\"ph\":\"i\",\"pid\":1,\"tid\":";
const CORE_COUNTER: &[u8] = b"\"ph\":\"C\",\"pid\":1,\"tid\":";
const TASK_COUNTER: &[u8] = b"\"ph\":\"C\",\"pid\":2,\"tid\":";
const SPAN_BEGIN: &[u8] = b"\"ph\":\"b\",\"pid\":1,\"tid\":";
const SPAN_END: &[u8] = b"\"ph\":\"e\",\"pid\":1,\"tid\":";

/// `"00"`, `"01"`, ..., `"99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `v` in decimal, byte-identical to `v.to_string()`.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `v` as exactly `width` (at most 6) zero-padded decimal digits;
/// `v` must be below `10^width`.
fn push_padded(out: &mut Vec<u8>, mut v: u64, width: usize) {
    let mut digits = [0u8; 6];
    for d in digits[..width].iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend_from_slice(&digits[..width]);
}

/// The `core::fmt` path, for the values the digit routines do not cover.
fn push_fmt(out: &mut Vec<u8>, args: fmt::Arguments<'_>) {
    out.write_fmt(args).expect("writing to a Vec cannot fail");
}

/// Below 2^52 ns, fixed-point integer output and the float formatter
/// agree. `ns` converts to f64 exactly, and the correctly rounded
/// quotient is off by at most half an ulp:
///
/// - microseconds: the quotient `ns / 1000` is below 2^43, so the error
///   is at most 2^-11 (about 0.000488), under half a unit of the third
///   decimal (0.0005);
/// - milliseconds: the quotient `ns / 10^6` is below 2^33, so the error
///   is at most 2^-21 (about 4.8e-7), under half a unit of the sixth
///   decimal (5e-7).
///
/// Either way the exact value has no more decimals than are printed, so
/// rounding the float lands on it.
const EXACT_BELOW_NS: u64 = 1 << 52;

/// Appends nanoseconds as trace-event microseconds with three decimals,
/// byte-identical to `format!("{:.3}", ns as f64 / 1000.0)`: digits below
/// [`EXACT_BELOW_NS`], the float path above it.
fn push_micros(out: &mut Vec<u8>, ns: u64) {
    if ns < EXACT_BELOW_NS {
        push_u64(out, ns / 1_000);
        out.push(b'.');
        push_padded(out, ns % 1_000, 3);
    } else {
        push_fmt(out, format_args!("{:.3}", ns as f64 / 1_000.0));
    }
}

/// Appends nanoseconds as milliseconds with six decimals, byte-identical
/// to `format!("{:.6}", ns as f64 / 1e6)`: digits below
/// [`EXACT_BELOW_NS`], the float path above it.
fn push_millis(out: &mut Vec<u8>, ns: u64) {
    if ns < EXACT_BELOW_NS {
        push_u64(out, ns / 1_000_000);
        out.push(b'.');
        push_padded(out, ns % 1_000_000, 6);
    } else {
        push_fmt(out, format_args!("{:.6}", ns as f64 / 1_000_000.0));
    }
}

/// Appends an f64 metric with six decimals; NaN and inf print as `0`.
fn push_num(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        push_fmt(out, format_args!("{v:.6}"));
    } else {
        out.push(b'0');
    }
}

/// Appends `s` as the body of a JSON string literal, escaping it in
/// place; a string that needs no escaping is appended in one piece.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut clean_from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.extend_from_slice(&bytes[clean_from..i]);
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]),
        }
        clean_from = i + 1;
    }
    out.extend_from_slice(&bytes[clean_from..]);
}

/// Appends a task name as the body of a JSON string literal: registered
/// names are escaped, the `t<N>` fallback never needs it.
fn push_name(out: &mut Vec<u8>, name: TaskName<'_>) {
    match name {
        TaskName::Registered(name) => push_escaped(out, name),
        TaskName::Fallback(task) => {
            out.push(b't');
            push_u64(out, task as u64);
        }
    }
}

/// The topology tier as its `Debug` name.
fn tier_label(tier: DomainLevel) -> &'static [u8] {
    match tier {
        DomainLevel::Smt => b"Smt",
        DomainLevel::Cache => b"Cache",
        DomainLevel::Socket => b"Socket",
        DomainLevel::Numa => b"Numa",
        DomainLevel::System => b"System",
    }
}

/// The byte writer behind [`export_chrome_to`]: one JSON event object per
/// line, comma-separated, appended to a chunk buffer that goes to the
/// caller's writer whenever it passes [`CHUNK`] bytes.
struct Out<W: Write> {
    w: W,
    buf: Vec<u8>,
    /// No event object written yet, so the next one takes no separator.
    first: bool,
}

impl<W: Write> Out<W> {
    /// Appends literal bytes.
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn u64(&mut self, v: u64) {
        push_u64(&mut self.buf, v);
    }

    fn micros(&mut self, ns: u64) {
        push_micros(&mut self.buf, ns);
    }

    fn millis(&mut self, ns: u64) {
        push_millis(&mut self.buf, ns);
    }

    fn num(&mut self, v: f64) {
        push_num(&mut self.buf, v);
    }

    fn name(&mut self, name: TaskName<'_>) {
        push_name(&mut self.buf, name);
    }

    /// Opens an event object: the separator, `{` and `head`.
    fn open(&mut self, head: &[u8]) {
        let sep: &[u8] = if self.first { b"{" } else { b",\n{" };
        self.first = false;
        self.bytes(sep);
        self.bytes(head);
    }

    /// Closes the event object with `tail` and `}`, passing the buffer on
    /// once it holds a full chunk.
    fn close(&mut self, tail: &[u8]) -> io::Result<()> {
        self.bytes(tail);
        self.buf.push(b'}');
        if self.buf.len() >= CHUNK {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Opens an event at `ns` on track `tid`: `head`, the tid and `ts`.
    fn event(&mut self, head: &[u8], tid: u64, ns: u64) {
        self.open(head);
        self.u64(tid);
        self.bytes(b",\"ts\":");
        self.micros(ns);
    }

    /// Opens an instant event with scope `scope` (`t`hread or `p`rocess)
    /// up to the body of its `name` string.
    fn instant(&mut self, tid: u64, ns: u64, scope: &[u8]) {
        self.event(INSTANT, tid, ns);
        self.bytes(b",\"s\":\"");
        self.bytes(scope);
        self.bytes(b"\",\"name\":\"");
    }

    /// Opens a metadata event naming thread `tid` of the process `head`
    /// belongs to, up to the body of the name string.
    fn thread_name(&mut self, head: &[u8], tid: u64) {
        self.open(head);
        self.u64(tid);
        self.bytes(b",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    }

    /// Writes one occupancy interval as a complete event.
    fn interval(
        &mut self,
        tid: u64,
        since_ns: u64,
        dur_ns: u64,
        name: TaskName<'_>,
    ) -> io::Result<()> {
        self.event(COMPLETE, tid, since_ns);
        self.bytes(b",\"dur\":");
        self.micros(dur_ns);
        self.bytes(b",\"name\":\"");
        self.name(name);
        self.close(b"\",\"cat\":\"run\"")
    }

    /// Writes the begin (`head` = [`SPAN_BEGIN`]) or end ([`SPAN_END`])
    /// of a barrier-episode span.
    fn barrier_span(
        &mut self,
        head: &[u8],
        tid: u64,
        ns: u64,
        cond: usize,
        episode: u64,
    ) -> io::Result<()> {
        self.event(head, tid, ns);
        self.bytes(b",\"id\":");
        self.u64(cond as u64);
        self.bytes(b",\"name\":\"barrier ep ");
        self.u64(episode);
        self.close(b"\",\"cat\":\"barrier\"")
    }
}

/// Renders the whole buffer as a Chrome trace-event JSON document,
/// streamed to `writer` in chunks of about 64 KiB. The byte stream is
/// identical to what [`export_chrome`] returns.
pub fn export_chrome_to<W: Write>(buf: &TraceBuffer, writer: W) -> io::Result<()> {
    let mut ev = Out {
        w: writer,
        // Room for the record that crosses the chunk boundary.
        buf: Vec::with_capacity(2 * CHUNK),
        first: true,
    };
    ev.bytes(b"{\"traceEvents\":[\n");
    let name = |task: usize| buf.task_name(task);

    ev.open(b"\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"cores\"}");
    ev.close(b"")?;
    ev.open(b"\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"tasks\"}");
    ev.close(b"")?;
    for c in 0..buf.n_cores() as u64 {
        ev.thread_name(CORE_META, c);
        ev.bytes(b"cpu");
        ev.u64(c);
        ev.close(b"\"}")?;
    }

    // Open occupancy interval per core: (task, dispatch time).
    let mut open: Vec<Option<(usize, SimTime)>> = vec![None; buf.n_cores()];
    let mut named_task_tracks: Vec<bool> = Vec::new();

    for rec in buf.records() {
        let core = rec.core.0 as u64;
        let now = rec.time.as_nanos();
        match rec.event {
            TraceEvent::Dispatch { task } => {
                if rec.core.0 < open.len() {
                    open[rec.core.0] = Some((task, rec.time));
                }
            }
            TraceEvent::Desched { task, .. } => {
                if let Some(Some((t, since))) = open.get(rec.core.0).copied() {
                    if t == task {
                        open[rec.core.0] = None;
                        let dur = rec.time.saturating_since(since);
                        ev.interval(core, since.as_nanos(), dur.as_nanos(), name(task))?;
                    }
                }
            }
            TraceEvent::Preempt { task, by } => {
                ev.instant(core, now, b"t");
                ev.bytes(b"preempt ");
                ev.name(name(task));
                ev.bytes(b" by ");
                ev.name(name(by));
                ev.close(b"\",\"cat\":\"sched\"")?;
            }
            TraceEvent::Wake { task } => {
                ev.instant(core, now, b"t");
                ev.bytes(b"wake ");
                ev.name(name(task));
                ev.close(b"\",\"cat\":\"sched\"")?;
            }
            TraceEvent::Sleep { task } => {
                ev.instant(core, now, b"t");
                ev.bytes(b"sleep ");
                ev.name(name(task));
                ev.close(b"\",\"cat\":\"sched\"")?;
            }
            TraceEvent::Exit { task } => {
                ev.instant(core, now, b"t");
                ev.bytes(b"exit ");
                ev.name(name(task));
                ev.close(b"\",\"cat\":\"sched\"")?;
            }
            TraceEvent::Migrate {
                task,
                from,
                to,
                tier,
                reason,
            } => {
                ev.instant(to.0 as u64, now, b"p");
                ev.bytes(b"migrate ");
                ev.name(name(task));
                ev.bytes(b"\",\"cat\":\"migration\",\"args\":{\"from\":\"cpu");
                ev.u64(from.0 as u64);
                ev.bytes(b"\",\"to\":\"cpu");
                ev.u64(to.0 as u64);
                ev.bytes(b"\",\"tier\":\"");
                ev.bytes(tier_label(tier));
                ev.bytes(b"\",\"reason\":\"");
                ev.bytes(reason.label().as_bytes());
                ev.close(b"\"}")?;
            }
            TraceEvent::SpeedSample { task, speed } => match task {
                Some(t) => {
                    if named_task_tracks.len() <= t {
                        named_task_tracks.resize(t + 1, false);
                    }
                    if !named_task_tracks[t] {
                        named_task_tracks[t] = true;
                        ev.thread_name(TASK_META, t as u64);
                        ev.name(name(t));
                        ev.close(b"\"}")?;
                    }
                    ev.event(TASK_COUNTER, t as u64, now);
                    ev.bytes(b",\"name\":\"speed ");
                    ev.name(name(t));
                    ev.bytes(b"\",\"args\":{\"speed\":");
                    ev.num(speed);
                    ev.close(b"}")?;
                }
                None => {
                    ev.event(CORE_COUNTER, core, now);
                    ev.bytes(b",\"name\":\"speed cpu");
                    ev.u64(core);
                    ev.bytes(b"\",\"args\":{\"speed\":");
                    ev.num(speed);
                    ev.close(b"}")?;
                }
            },
            TraceEvent::FreqStep { ratio } => {
                ev.event(CORE_COUNTER, core, now);
                ev.bytes(b",\"name\":\"freq cpu");
                ev.u64(core);
                ev.bytes(b"\",\"args\":{\"ratio\":");
                ev.num(ratio);
                ev.close(b"}")?;
            }
            TraceEvent::BalancerActivation {
                policy,
                local,
                global,
                outcome,
                jitter,
            } => {
                ev.instant(core, now, b"t");
                ev.bytes(policy.as_bytes());
                ev.bytes(b" ");
                ev.bytes(outcome.label().as_bytes());
                ev.bytes(b"\",\"cat\":\"balancer\",\"args\":{\"local\":");
                ev.num(local);
                ev.bytes(b",\"global\":");
                ev.num(global);
                ev.bytes(b",\"jitter_ms\":");
                ev.millis(jitter.as_nanos());
                ev.close(b"}")?;
            }
            TraceEvent::BarrierArrive {
                task,
                cond,
                episode,
                arrived,
                parties,
            } => {
                // The first arriver opens the episode span.
                if arrived == 1 {
                    ev.barrier_span(SPAN_BEGIN, core, now, cond, episode)?;
                }
                ev.instant(core, now, b"t");
                ev.bytes(b"arrive ");
                ev.name(name(task));
                ev.bytes(b" (");
                ev.u64(arrived as u64);
                ev.bytes(b"/");
                ev.u64(parties as u64);
                ev.close(b")\",\"cat\":\"barrier\"")?;
            }
            TraceEvent::BarrierRelease { cond, episode, .. } => {
                ev.barrier_span(SPAN_END, core, now, cond, episode)?;
            }
            TraceEvent::ProcFault {
                task,
                op,
                kind,
                attempt,
                retrying,
            } => {
                let who = match task {
                    Some(t) => name(t),
                    None => TaskName::Registered("process"),
                };
                ev.instant(core, now, b"t");
                ev.bytes(b"fault ");
                ev.bytes(op.label().as_bytes());
                ev.bytes(b" ");
                ev.bytes(kind.label().as_bytes());
                ev.bytes(b"\",\"cat\":\"fault\",\"args\":{\"target\":\"");
                ev.name(who);
                ev.bytes(b"\",\"kind\":\"");
                ev.bytes(kind.label().as_bytes());
                ev.bytes(b"\",\"attempt\":");
                ev.u64(u64::from(attempt));
                ev.bytes(b",\"retrying\":");
                ev.bytes(if retrying { b"true" } else { b"false" });
                ev.close(b"}")?;
            }
            TraceEvent::Quarantined { task, failures } => {
                ev.instant(core, now, b"p");
                ev.bytes(b"quarantine ");
                ev.name(name(task));
                ev.bytes(b"\",\"cat\":\"fault\",\"args\":{\"failures\":");
                ev.u64(u64::from(failures));
                ev.close(b"}")?;
            }
            TraceEvent::RequestArrival {
                request,
                arrival,
                queued,
            } => {
                ev.instant(core, now, b"t");
                ev.bytes(b"req ");
                ev.u64(request as u64);
                ev.bytes(b" arrive\",\"cat\":\"request\",\"args\":{\"arrival_us\":");
                ev.micros(arrival.as_nanos());
                ev.bytes(b",\"queued\":");
                ev.u64(queued as u64);
                ev.close(b"}")?;
            }
            TraceEvent::RequestDispatch {
                request,
                subtask,
                wait,
            } => {
                ev.instant(core, now, b"t");
                ev.bytes(b"serve req ");
                ev.u64(request as u64);
                ev.bytes(b".");
                ev.u64(subtask as u64);
                ev.bytes(b"\",\"cat\":\"request\",\"args\":{\"wait_ms\":");
                ev.millis(wait.as_nanos());
                ev.close(b"}")?;
            }
            TraceEvent::RequestComplete { request, latency } => {
                ev.instant(core, now, b"t");
                ev.bytes(b"req ");
                ev.u64(request as u64);
                ev.bytes(b" done\",\"cat\":\"request\",\"args\":{\"latency_ms\":");
                ev.millis(latency.as_nanos());
                ev.close(b"}")?;
            }
            TraceEvent::RequestDrop { request, reason } => {
                ev.instant(core, now, b"p");
                ev.bytes(b"drop req ");
                ev.u64(request as u64);
                ev.bytes(b"\",\"cat\":\"request\",\"args\":{\"reason\":\"");
                ev.bytes(reason.label().as_bytes());
                ev.close(b"\"}")?;
            }
        }
    }

    // Close any occupancy interval still open at the end of the trace.
    let end = buf.end_time();
    for (c, slot) in open.iter().enumerate() {
        if let Some((task, since)) = *slot {
            let dur = end.saturating_since(since);
            ev.interval(c as u64, since.as_nanos(), dur.as_nanos(), name(task))?;
        }
    }

    let Out {
        mut w,
        buf: mut rest,
        first,
    } = ev;
    if !first {
        rest.push(b'\n');
    }
    rest.extend_from_slice(b"]}\n");
    w.write_all(&rest)?;
    w.flush()
}

/// Renders the whole buffer as a Chrome trace-event JSON document in
/// memory. Prefer [`export_chrome_to`] for large traces.
pub fn export_chrome(buf: &TraceBuffer) -> String {
    let mut out = Vec::new();
    export_chrome_to(buf, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("exporter emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MigrationReason;
    use speedbal_machine::CoreId;
    use speedbal_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// What one of the `push_*` routines appends to an empty buffer.
    fn render(push: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        push(&mut out);
        String::from_utf8(out).expect("writer emits UTF-8")
    }

    fn micros(ns: u64) -> String {
        render(|out| push_micros(out, ns))
    }

    fn millis(ns: u64) -> String {
        render(|out| push_millis(out, ns))
    }

    fn decimal(v: u64) -> String {
        render(|out| push_u64(out, v))
    }

    /// The references the digit routines must reproduce.
    fn float_micros(ns: u64) -> String {
        format!("{:.3}", ns as f64 / 1_000.0)
    }

    fn float_millis(ns: u64) -> String {
        format!("{:.6}", ns as f64 / 1e6)
    }

    #[test]
    fn escapes_json_strings() {
        let esc = |s: &str| render(|out| push_escaped(out, s));
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(esc("plain é"), "plain é");
        assert_eq!(esc("\"\u{1f}x\t"), "\\\"\\u001fx\\t");
        assert_eq!(esc("\r\u{1b}"), "\\r\\u001b");
        assert_eq!(esc(""), "");
    }

    #[test]
    fn tier_labels_match_debug_names() {
        for tier in DomainLevel::ALL {
            let label = std::str::from_utf8(tier_label(tier)).unwrap();
            assert_eq!(label, format!("{tier:?}"));
        }
    }

    #[test]
    fn decimal_matches_to_string_at_the_edges() {
        let mut edges = vec![
            0,
            1,
            9,
            10,
            99,
            100,
            101,
            999,
            1_000,
            u64::MAX - 1,
            u64::MAX,
        ];
        for p in 1..20 {
            let power = 10u64.pow(p);
            edges.extend([power - 1, power, power + 1]);
        }
        for v in edges {
            assert_eq!(decimal(v), v.to_string(), "v = {v}");
        }
    }

    #[test]
    fn micros_match_float_formatting_at_the_edges() {
        let cut = EXACT_BELOW_NS;
        for ns in [
            0,
            1,
            999,
            1_000,
            1_001,
            999_999,
            1_000_000,
            cut - 1_001,
            cut - 1_000,
            cut - 2,
            cut - 1,
            cut,
            cut + 1,
            cut + 999,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(micros(ns), float_micros(ns), "ns = {ns}");
        }
        // Both sides of the cut-off take the path the comment claims.
        assert_eq!(micros(cut - 1), "4503599627370.495");
        assert_eq!(micros(cut + 1), "4503599627370.497");
    }

    #[test]
    fn millis_match_float_formatting_at_the_edges() {
        let cut = EXACT_BELOW_NS;
        for ns in [
            0,
            1,
            999,
            1_000,
            999_999,
            1_000_000,
            1_000_001,
            123_456,
            1_500_000,
            cut - 1_000_001,
            cut - 1_000_000,
            cut - 2,
            cut - 1,
            cut,
            cut + 1,
            cut + 999_999,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(millis(ns), float_millis(ns), "ns = {ns}");
        }
        // Both sides of the cut-off take the path the comment claims.
        assert_eq!(millis(cut - 1), "4503599627.370495");
        assert_eq!(millis(cut + 1), "4503599627.370497");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 20_000,
            ..Default::default()
        })]

        #[test]
        fn micros_match_float_formatting_below_the_cut_off(ns in 0..EXACT_BELOW_NS) {
            proptest::prop_assert_eq!(micros(ns), float_micros(ns));
        }

        /// Log-uniform magnitudes: most uniform draws below 2^52 have 16
        /// digits, so this covers the short stamps of real traces too.
        #[test]
        fn micros_match_float_formatting_at_every_magnitude(
            bits in 0u32..64,
            raw in 0..u64::MAX,
        ) {
            let ns = raw >> bits;
            proptest::prop_assert_eq!(micros(ns), float_micros(ns));
        }

        #[test]
        fn micros_fall_back_to_float_formatting_above_the_cut_off(
            ns in EXACT_BELOW_NS..u64::MAX,
        ) {
            proptest::prop_assert_eq!(micros(ns), float_micros(ns));
        }

        #[test]
        fn millis_match_float_formatting_below_the_cut_off(ns in 0..EXACT_BELOW_NS) {
            proptest::prop_assert_eq!(millis(ns), float_millis(ns));
        }

        /// Log-uniform magnitudes, as for microseconds: request waits and
        /// latencies are mostly well under a second.
        #[test]
        fn millis_match_float_formatting_at_every_magnitude(
            bits in 0u32..64,
            raw in 0..u64::MAX,
        ) {
            let ns = raw >> bits;
            proptest::prop_assert_eq!(millis(ns), float_millis(ns));
        }

        #[test]
        fn millis_fall_back_to_float_formatting_above_the_cut_off(
            ns in EXACT_BELOW_NS..u64::MAX,
        ) {
            proptest::prop_assert_eq!(millis(ns), float_millis(ns));
        }

        #[test]
        fn decimal_matches_to_string(bits in 0u32..64, raw in 0..u64::MAX) {
            let v = raw >> bits;
            proptest::prop_assert_eq!(decimal(v), v.to_string());
        }
    }

    #[test]
    fn emits_complete_events_for_occupancy() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "w0", SimTime::ZERO);
        buf.record(t(10), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(
            t(35),
            CoreId(0),
            TraceEvent::Desched {
                task: 0,
                ran: SimDuration::from_micros(25),
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10.000"));
        assert!(json.contains("\"dur\":25.000"));
        assert!(json.contains("\"name\":\"w0\""));
    }

    #[test]
    fn closes_trailing_open_interval() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "w0", SimTime::ZERO);
        buf.record(t(5), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(t(50), CoreId(1), TraceEvent::Wake { task: 1 });
        buf.flush();
        let json = export_chrome(&buf);
        assert!(
            json.contains("\"dur\":45.000"),
            "open interval closed at end"
        );
    }

    #[test]
    fn migration_event_carries_reason() {
        let mut buf = TraceBuffer::new();
        buf.record(
            t(7),
            CoreId(1),
            TraceEvent::Migrate {
                task: 3,
                from: CoreId(0),
                to: CoreId(1),
                tier: DomainLevel::Cache,
                reason: MigrationReason::SpeedPull {
                    local_speed: 1.0,
                    remote_speed: 0.5,
                    global_speed: 0.7,
                },
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"cat\":\"migration\""));
        assert!(json.contains("\"reason\":\"speed-pull\""));
    }

    #[test]
    fn barrier_spans_pair_up() {
        let mut buf = TraceBuffer::new();
        buf.record(
            t(1),
            CoreId(0),
            TraceEvent::BarrierArrive {
                task: 0,
                cond: 9,
                episode: 0,
                arrived: 1,
                parties: 2,
            },
        );
        buf.record(
            t(4),
            CoreId(1),
            TraceEvent::BarrierRelease {
                task: 1,
                cond: 9,
                episode: 0,
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"id\":9"));
    }

    #[test]
    fn fault_events_export() {
        use crate::event::{ProcFaultKind, ProcOp};
        let mut buf = TraceBuffer::new();
        buf.task_spawned(3, "tid103", SimTime::ZERO);
        buf.record(
            t(5),
            CoreId(1),
            TraceEvent::ProcFault {
                task: Some(3),
                op: ProcOp::SetAffinity,
                kind: ProcFaultKind::PermissionDenied,
                attempt: 2,
                retrying: false,
            },
        );
        buf.record(
            t(9),
            CoreId(1),
            TraceEvent::Quarantined {
                task: 3,
                failures: 3,
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"cat\":\"fault\""));
        assert!(json.contains("fault set-affinity eperm"));
        assert!(json.contains("\"attempt\":2"));
        assert!(json.contains("quarantine tid103"));
    }

    #[test]
    fn request_events_export() {
        use crate::event::RequestDropReason;
        let mut buf = TraceBuffer::new();
        buf.record(
            t(10),
            CoreId(0),
            TraceEvent::RequestArrival {
                request: 7,
                arrival: t(8),
                queued: 3,
            },
        );
        buf.record(
            t(12),
            CoreId(1),
            TraceEvent::RequestDispatch {
                request: 7,
                subtask: 1,
                wait: SimDuration::from_micros(4000),
            },
        );
        buf.record(
            t(20),
            CoreId(1),
            TraceEvent::RequestComplete {
                request: 7,
                latency: SimDuration::from_micros(12_000),
            },
        );
        buf.record(
            t(21),
            CoreId(0),
            TraceEvent::RequestDrop {
                request: 8,
                reason: RequestDropReason::QueueFull,
            },
        );
        buf.flush();
        let json = export_chrome(&buf);
        assert!(json.contains("\"cat\":\"request\""));
        assert!(json.contains("req 7 arrive"));
        assert!(json.contains("serve req 7.1"));
        assert!(json.contains("req 7 done"));
        assert!(json.contains("\"latency_ms\":12.000000"));
        assert!(json.contains("drop req 8"));
        assert!(json.contains("\"reason\":\"queue-full\""));
    }

    #[test]
    fn document_shape_is_wellformed() {
        let buf = TraceBuffer::new();
        let json = export_chrome(&buf);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn streaming_writer_matches_string_export() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "w0", SimTime::ZERO);
        buf.record(t(1), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(
            t(9),
            CoreId(0),
            TraceEvent::Desched {
                task: 0,
                ran: SimDuration::from_micros(8),
            },
        );
        buf.flush();
        let mut streamed = Vec::new();
        export_chrome_to(&buf, &mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), export_chrome(&buf));
    }
}
