//! Outside-in instrumentation: forwarding wrappers around the program's
//! public traits, per-call count/duration accumulators, and coarse spans.
//!
//! Nothing here changes a scheduling decision. [`TimedBalancer`] and
//! [`TimedProgram`] forward every trait method to the wrapped value and
//! only add a timestamp pair around the calls they time; the benchmark
//! proves this by comparing run fingerprints with and without them.

use speedbal_machine::CoreId;
use speedbal_sched::balancer::keys;
use speedbal_sched::{profile_timestamp, Balancer, Directive, Program, ProgramCtx, System, TaskId};
use speedbal_sim::SimDuration;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Raw timestamp for per-call accumulators (the TSC on x86_64: a few ns
/// per read, where `Instant::now` costs ~25 ns and would swamp a
/// sub-100 ns callback). Converted to ns with a [`Clock`] calibration.
#[inline]
pub fn ticks() -> u64 {
    profile_timestamp()
}

/// Converts tick deltas to nanoseconds, calibrated against `Instant`
/// over the interval between [`Clock::start`] and [`Clock::ns_per_tick`].
pub struct Clock {
    wall: Instant,
    tick: u64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            tick: ticks(),
        }
    }

    /// Nanoseconds per tick over the interval since `start`.
    pub fn ns_per_tick(&self) -> f64 {
        let ticks = ticks().wrapping_sub(self.tick).max(1);
        self.wall.elapsed().as_nanos() as f64 / ticks as f64
    }
}

/// Count and total duration (ticks) of one kind of call.
#[derive(Default)]
pub struct Acc {
    calls: Cell<u64>,
    ticks: Cell<u64>,
}

impl Acc {
    #[inline]
    pub fn add(&self, ticks: u64) {
        self.calls.set(self.calls.get() + 1);
        self.ticks.set(self.ticks.get() + ticks);
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn ticks(&self) -> u64 {
        self.ticks.get()
    }

    fn reset(&self) {
        self.calls.set(0);
        self.ticks.set(0);
    }
}

/// Per-call accumulators for every layer boundary the wrappers see.
#[derive(Default)]
pub struct Probe {
    /// `System::step` calls (timed by the benchmark's step loop).
    pub step: Acc,
    /// `Balancer::on_timer` with a Linux key (`keys::LINUX`).
    pub linux_tick: Acc,
    /// `Balancer::on_timer` with a speed-balancer key (`keys::SPEED`).
    pub speed_tick: Acc,
    /// `Balancer::select_wake_core`.
    pub wake: Acc,
    /// `Balancer::on_core_idle`.
    pub idle: Acc,
    /// Placement, deschedule and exit notifications, and timers of other
    /// balancers.
    pub other: Acc,
    /// `Program::next` of wrapped programs.
    pub next: Acc,
}

impl Probe {
    pub fn reset(&self) {
        for acc in [
            &self.step,
            &self.linux_tick,
            &self.speed_tick,
            &self.wake,
            &self.idle,
            &self.other,
            &self.next,
        ] {
            acc.reset();
        }
    }

    /// Ticks spent inside balancer callbacks of every kind.
    pub fn balancer_ticks(&self) -> u64 {
        [
            &self.linux_tick,
            &self.speed_tick,
            &self.wake,
            &self.idle,
            &self.other,
        ]
        .iter()
        .map(|a| a.ticks())
        .sum()
    }
}

#[inline]
fn timed<R>(acc: &Acc, f: impl FnOnce() -> R) -> R {
    let t0 = ticks();
    let r = f();
    acc.add(ticks().wrapping_sub(t0));
    r
}

/// Forwards every [`Balancer`] method to `inner`, timing the callbacks
/// the scheduler makes while stepping.
pub struct TimedBalancer {
    inner: Box<dyn Balancer>,
    probe: Rc<Probe>,
}

impl TimedBalancer {
    pub fn new(inner: Box<dyn Balancer>, probe: Rc<Probe>) -> TimedBalancer {
        TimedBalancer { inner, probe }
    }
}

impl Balancer for TimedBalancer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, sys: &mut System) {
        self.inner.on_start(sys)
    }

    fn place_task(&mut self, sys: &mut System, task: TaskId) -> CoreId {
        timed(&self.probe.other, || self.inner.place_task(sys, task))
    }

    fn pin_on_place(&mut self, sys: &mut System, task: TaskId) -> bool {
        self.inner.pin_on_place(sys, task)
    }

    fn select_wake_core(&mut self, sys: &mut System, task: TaskId) -> CoreId {
        timed(&self.probe.wake, || self.inner.select_wake_core(sys, task))
    }

    fn on_timer(&mut self, sys: &mut System, key: u64) {
        let acc = match keys::tag(key) {
            keys::LINUX => &self.probe.linux_tick,
            keys::SPEED => &self.probe.speed_tick,
            _ => &self.probe.other,
        };
        timed(acc, || self.inner.on_timer(sys, key))
    }

    fn on_core_idle(&mut self, sys: &mut System, core: CoreId) {
        timed(&self.probe.idle, || self.inner.on_core_idle(sys, core))
    }

    fn wants_desched_events(&self) -> bool {
        self.inner.wants_desched_events()
    }

    fn on_task_descheduled(
        &mut self,
        sys: &mut System,
        task: TaskId,
        core: CoreId,
        ran: SimDuration,
    ) {
        timed(&self.probe.other, || {
            self.inner.on_task_descheduled(sys, task, core, ran)
        })
    }

    fn on_task_exit(&mut self, sys: &mut System, task: TaskId) {
        timed(&self.probe.other, || self.inner.on_task_exit(sys, task))
    }
}

/// Forwards [`Program`] to `inner`, timing each `next` call.
pub struct TimedProgram<P> {
    inner: P,
    probe: Rc<Probe>,
}

impl<P: Program> TimedProgram<P> {
    pub fn new(inner: P, probe: Rc<Probe>) -> TimedProgram<P> {
        TimedProgram { inner, probe }
    }
}

impl<P: Program> Program for TimedProgram<P> {
    fn next(&mut self, ctx: &mut ProgramCtx<'_>) -> Directive {
        timed(&self.probe.next, || self.inner.next(ctx))
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// One coarse span: a named interval on the host clock, with its parent.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, written out once when the benchmark ends.
pub struct Spans {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end;
        (end - spans[id].start_ns) as f64 / 1e9
    }

    /// Records an already-measured interval (e.g. from a worker thread)
    /// given its start as an `Instant` and its duration.
    pub fn record(&self, name: &str, parent: Option<usize>, start: Instant, dur_ns: u64) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Total seconds of the `child` spans under the latest `parent` span.
    pub fn child_seconds(&self, parent: &str, child: &str) -> f64 {
        let spans = self.spans.borrow();
        let Some(p) = spans.iter().rposition(|s| s.name == parent) else {
            return 0.0;
        };
        spans
            .iter()
            .filter(|s| s.parent == Some(p) && s.name == child)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The spans as a Chrome trace-event document (complete events).
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
