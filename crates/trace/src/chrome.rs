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
//! The exporter **streams**: [`export_chrome_to`] formats each event
//! straight into a buffered writer as it is produced, with no
//! intermediate strings, so exporting a multi-gigabyte server trace never
//! materializes the whole document in memory, and the export allocates a
//! fixed amount however many records it writes. [`export_chrome`] is a
//! convenience wrapper that collects the same byte stream into a
//! `String`.

use crate::event::TraceEvent;
use crate::sink::{TaskName, TraceBuffer};
use speedbal_sim::SimTime;
use std::fmt;
use std::io::{self, Write};

const CORES_PID: u64 = 1;
const TASKS_PID: u64 = 2;

/// Displays a string as the body of a JSON string literal, escaping it in
/// place; a string that needs no escaping is written in one piece.
struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut clean_from = 0;
        for (i, b) in s.bytes().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            // `b` is ASCII, so `i` is a char boundary.
            f.write_str(&s[clean_from..i])?;
            match b {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                _ => write!(f, "\\u{b:04x}")?,
            }
            clean_from = i + 1;
        }
        f.write_str(&s[clean_from..])
    }
}

/// Displays a task name as the body of a JSON string literal: registered
/// names are escaped, the `t<N>` fallback never needs it.
struct Name<'a>(TaskName<'a>);

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            TaskName::Registered(name) => Esc(name).fmt(f),
            fallback => fallback.fmt(f),
        }
    }
}

/// Below 2^52 ns, integer and float microseconds print the same. `ns`
/// converts to f64 exactly, and the quotient `ns / 1000` is below 2^43,
/// so the float division is off by at most half an ulp, 2^-11 (about
/// 0.000488). That is under half a unit of the third decimal (0.0005), so
/// rounding the float to three places gives exactly `ns / 1000` "."
/// `ns % 1000`.
const EXACT_MICROS_BELOW_NS: u64 = 1 << 52;

/// Displays nanoseconds as trace-event microseconds with three decimals,
/// byte-identical to `format!("{:.3}", ns as f64 / 1000.0)`: integer
/// arithmetic below [`EXACT_MICROS_BELOW_NS`], the float path above it.
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < EXACT_MICROS_BELOW_NS {
            write!(f, "{}.{:03}", ns / 1_000, ns % 1_000)
        } else {
            write!(f, "{:.3}", ns as f64 / 1_000.0)
        }
    }
}

/// A SimTime as trace-event microseconds.
fn ts(t: SimTime) -> Micros {
    Micros(t.as_nanos())
}

/// Displays an f64 as JSON with six decimals (finite values only; NaN/inf
/// clamp to 0).
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:.6}", self.0)
        } else {
            f.write_str("0")
        }
    }
}

/// Streams trace events as they are produced: one JSON object per line,
/// comma-separated, no whole-document accumulation.
struct Events<W: Write> {
    w: W,
    first: bool,
}

impl<W: Write> Events<W> {
    /// Writes one event object, `{` + `body` + `}`, formatting the body
    /// straight into the writer.
    fn push(&mut self, body: fmt::Arguments<'_>) -> io::Result<()> {
        if self.first {
            self.first = false;
            self.w.write_all(b"{")?;
        } else {
            self.w.write_all(b",\n{")?;
        }
        self.w.write_fmt(body)?;
        self.w.write_all(b"}")
    }

    /// Writes a metadata event naming a process (`tid = None`) or thread.
    /// `value` must already be a valid JSON string-literal body.
    fn meta(
        &mut self,
        pid: u64,
        tid: Option<u64>,
        name: &str,
        value: impl fmt::Display,
    ) -> io::Result<()> {
        match tid {
            Some(tid) => self.push(format_args!(
                "\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\
                 \"args\":{{\"name\":\"{value}\"}}"
            )),
            None => self.push(format_args!(
                "\"ph\":\"M\",\"pid\":{pid},\"name\":\"{name}\",\
                 \"args\":{{\"name\":\"{value}\"}}"
            )),
        }
    }
}

/// Renders the whole buffer as a Chrome trace-event JSON document,
/// streamed through a buffered chunked writer. The byte stream is
/// identical to what [`export_chrome`] returns.
pub fn export_chrome_to<W: Write>(buf: &TraceBuffer, writer: W) -> io::Result<()> {
    let mut w = io::BufWriter::with_capacity(1 << 16, writer);
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut ev = Events { w, first: true };
    let name = |task: usize| Name(buf.task_name(task));

    ev.meta(CORES_PID, None, "process_name", "cores")?;
    ev.meta(TASKS_PID, None, "process_name", "tasks")?;
    for c in 0..buf.n_cores() {
        ev.meta(
            CORES_PID,
            Some(c as u64),
            "thread_name",
            format_args!("cpu{c}"),
        )?;
    }

    // Open occupancy interval per core: (task, dispatch time).
    let mut open: Vec<Option<(usize, SimTime)>> = vec![None; buf.n_cores()];
    let mut named_task_tracks: Vec<bool> = Vec::new();

    for rec in buf.records() {
        let core = rec.core.0 as u64;
        let now = ts(rec.time);
        match &rec.event {
            TraceEvent::Dispatch { task } => {
                if rec.core.0 < open.len() {
                    open[rec.core.0] = Some((*task, rec.time));
                }
            }
            TraceEvent::Desched { task, .. } => {
                if let Some(Some((t, since))) = open.get(rec.core.0).copied() {
                    if t == *task {
                        open[rec.core.0] = None;
                        let dur = rec.time.saturating_since(since);
                        ev.push(format_args!(
                            "\"ph\":\"X\",\"pid\":{CORES_PID},\"tid\":{core},\
                             \"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"run\"",
                            ts(since),
                            Micros(dur.as_nanos()),
                            name(*task),
                        ))?;
                    }
                }
            }
            TraceEvent::Preempt { task, by } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"preempt {} by {}\",\"cat\":\"sched\"",
                    name(*task),
                    name(*by),
                ))?;
            }
            TraceEvent::Wake { task } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"wake {}\",\"cat\":\"sched\"",
                    name(*task),
                ))?;
            }
            TraceEvent::Sleep { task } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"sleep {}\",\"cat\":\"sched\"",
                    name(*task),
                ))?;
            }
            TraceEvent::Exit { task } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"exit {}\",\"cat\":\"sched\"",
                    name(*task),
                ))?;
            }
            TraceEvent::Migrate {
                task,
                from,
                to,
                tier,
                reason,
            } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{},\"ts\":{now},\
                     \"s\":\"p\",\"name\":\"migrate {}\",\"cat\":\"migration\",\
                     \"args\":{{\"from\":\"cpu{}\",\"to\":\"cpu{}\",\
                     \"tier\":\"{:?}\",\"reason\":\"{}\"}}",
                    to.0,
                    name(*task),
                    from.0,
                    to.0,
                    tier,
                    reason.label(),
                ))?;
            }
            TraceEvent::SpeedSample { task, speed } => match task {
                Some(t) => {
                    if named_task_tracks.len() <= *t {
                        named_task_tracks.resize(*t + 1, false);
                    }
                    if !named_task_tracks[*t] {
                        named_task_tracks[*t] = true;
                        ev.meta(TASKS_PID, Some(*t as u64), "thread_name", name(*t))?;
                    }
                    ev.push(format_args!(
                        "\"ph\":\"C\",\"pid\":{TASKS_PID},\"tid\":{t},\"ts\":{now},\
                         \"name\":\"speed {}\",\"args\":{{\"speed\":{}}}",
                        name(*t),
                        Num(*speed),
                    ))?;
                }
                None => {
                    ev.push(format_args!(
                        "\"ph\":\"C\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                         \"name\":\"speed cpu{core}\",\"args\":{{\"speed\":{}}}",
                        Num(*speed),
                    ))?;
                }
            },
            TraceEvent::FreqStep { ratio } => {
                ev.push(format_args!(
                    "\"ph\":\"C\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"name\":\"freq cpu{core}\",\"args\":{{\"ratio\":{}}}",
                    Num(*ratio),
                ))?;
            }
            TraceEvent::BalancerActivation {
                policy,
                local,
                global,
                outcome,
                jitter,
            } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"{policy} {}\",\"cat\":\"balancer\",\
                     \"args\":{{\"local\":{},\"global\":{},\"jitter_ms\":{}}}",
                    outcome.label(),
                    Num(*local),
                    Num(*global),
                    Num(jitter.as_millis_f64()),
                ))?;
            }
            TraceEvent::BarrierArrive {
                task,
                cond,
                episode,
                arrived,
                parties,
            } => {
                // The first arriver opens the episode span.
                if *arrived == 1 {
                    ev.push(format_args!(
                        "\"ph\":\"b\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                         \"id\":{cond},\"name\":\"barrier ep {episode}\",\
                         \"cat\":\"barrier\"",
                    ))?;
                }
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"arrive {} ({arrived}/{parties})\",\
                     \"cat\":\"barrier\"",
                    name(*task),
                ))?;
            }
            TraceEvent::BarrierRelease { cond, episode, .. } => {
                ev.push(format_args!(
                    "\"ph\":\"e\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"id\":{cond},\"name\":\"barrier ep {episode}\",\
                     \"cat\":\"barrier\"",
                ))?;
            }
            TraceEvent::ProcFault {
                task,
                op,
                kind,
                attempt,
                retrying,
            } => {
                let who = match task {
                    Some(t) => buf.task_name(*t),
                    None => TaskName::Registered("process"),
                };
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"fault {} {}\",\"cat\":\"fault\",\
                     \"args\":{{\"target\":\"{}\",\"kind\":\"{}\",\
                     \"attempt\":{attempt},\"retrying\":{retrying}}}",
                    op.label(),
                    kind.label(),
                    Name(who),
                    kind.label(),
                ))?;
            }
            TraceEvent::Quarantined { task, failures } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"p\",\"name\":\"quarantine {}\",\"cat\":\"fault\",\
                     \"args\":{{\"failures\":{failures}}}",
                    name(*task),
                ))?;
            }
            TraceEvent::RequestArrival {
                request,
                arrival,
                queued,
            } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"req {request} arrive\",\
                     \"cat\":\"request\",\"args\":{{\"arrival_us\":{},\
                     \"queued\":{queued}}}",
                    ts(*arrival),
                ))?;
            }
            TraceEvent::RequestDispatch {
                request,
                subtask,
                wait,
            } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"serve req {request}.{subtask}\",\
                     \"cat\":\"request\",\"args\":{{\"wait_ms\":{}}}",
                    Num(wait.as_millis_f64()),
                ))?;
            }
            TraceEvent::RequestComplete { request, latency } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"t\",\"name\":\"req {request} done\",\
                     \"cat\":\"request\",\"args\":{{\"latency_ms\":{}}}",
                    Num(latency.as_millis_f64()),
                ))?;
            }
            TraceEvent::RequestDrop { request, reason } => {
                ev.push(format_args!(
                    "\"ph\":\"i\",\"pid\":{CORES_PID},\"tid\":{core},\"ts\":{now},\
                     \"s\":\"p\",\"name\":\"drop req {request}\",\
                     \"cat\":\"request\",\"args\":{{\"reason\":\"{}\"}}",
                    reason.label(),
                ))?;
            }
        }
    }

    // Close any occupancy interval still open at the end of the trace.
    let end = buf.end_time();
    for (c, slot) in open.iter().enumerate() {
        if let Some((task, since)) = slot {
            let dur = end.saturating_since(*since);
            ev.push(format_args!(
                "\"ph\":\"X\",\"pid\":{CORES_PID},\"tid\":{c},\"ts\":{},\
                 \"dur\":{},\"name\":\"{}\",\"cat\":\"run\"",
                ts(*since),
                Micros(dur.as_nanos()),
                name(*task),
            ))?;
        }
    }

    let mut w = ev.w;
    if !ev.first {
        w.write_all(b"\n")?;
    }
    w.write_all(b"]}\n")?;
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
    use speedbal_machine::{CoreId, DomainLevel};
    use speedbal_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn escapes_json_strings() {
        let esc = |s: &str| Esc(s).to_string();
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(esc("plain é"), "plain é");
        assert_eq!(esc("\"\u{1f}x\t"), "\\\"\\u001fx\\t");
        assert_eq!(esc(""), "");
    }

    /// The reference the integer formatter must reproduce.
    fn float_micros(ns: u64) -> String {
        format!("{:.3}", ns as f64 / 1_000.0)
    }

    #[test]
    fn micros_match_float_formatting_at_the_edges() {
        let cut = EXACT_MICROS_BELOW_NS;
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
            assert_eq!(Micros(ns).to_string(), float_micros(ns), "ns = {ns}");
        }
        // Both sides of the cut-off take the path the comment claims.
        assert_eq!(Micros(cut - 1).to_string(), "4503599627370.495");
        assert_eq!(Micros(cut + 1).to_string(), "4503599627370.497");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 20_000,
            ..Default::default()
        })]

        #[test]
        fn micros_match_float_formatting_below_the_cut_off(ns in 0..EXACT_MICROS_BELOW_NS) {
            proptest::prop_assert_eq!(Micros(ns).to_string(), float_micros(ns));
        }

        /// Log-uniform magnitudes: most uniform draws below 2^52 have 16
        /// digits, so this covers the short stamps of real traces too.
        #[test]
        fn micros_match_float_formatting_at_every_magnitude(
            bits in 0u32..64,
            raw in 0..u64::MAX,
        ) {
            let ns = raw >> bits;
            proptest::prop_assert_eq!(Micros(ns).to_string(), float_micros(ns));
        }

        #[test]
        fn micros_fall_back_to_float_formatting_above_the_cut_off(
            ns in EXACT_MICROS_BELOW_NS..u64::MAX,
        ) {
            proptest::prop_assert_eq!(Micros(ns).to_string(), float_micros(ns));
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
