//! The simulated multicore system: event loop, per-core dispatch, wakeups
//! and migration.
//!
//! # Model
//!
//! Each core runs a CFS-like fair scheduler over its private run queue
//! (see [`crate::rq`]). Tasks execute [`Program`]s that alternate
//! computation with synchronization directives. The system is advanced by a
//! deterministic discrete-event loop; the only event kinds are:
//!
//! * **core events** — the running task on a core reaches a boundary
//!   (slice expiry, computation complete, spin timeout, yield step);
//! * **wake events** — a timed sleep expires;
//! * **balancer timers** — a [`Balancer`] asked to be called back.
//!
//! Each core owns an event-queue *slot* holding its at-most-one pending
//! core event (see [`speedbal_sim::EventQueue::alloc_slot`]). Anything that
//! changes a core's situation out-of-band (a wakeup, a migration, a
//! condition being set, an SMT sibling changing state) simply *reschedules*
//! the core: re-arms the slot with a zero-delay core event — cancelling any
//! armed boundary event in place — which re-accounts the in-flight task and
//! re-dispatches. Popped core events are therefore always live; stale
//! entries never reach the handler.
//!
//! # Accounting fidelity
//!
//! `exec_total` advances for every nanosecond a task occupies a CPU —
//! including busy-waiting and `sched_yield` loops — exactly like
//! utime+stime in `/proc`, because that is what the paper's user-level
//! balancer measures. Blocked time does not count, which is how sleeping at
//! a barrier "is reflected by increases in the speed of the co-runners".

mod invariants;

use crate::balancer::Balancer;
use crate::cond::{CondId, CondTable};
use crate::config::SchedConfig;
use crate::program::{Directive, Program, ProgramCtx};
use crate::rq::RunQueue;
use crate::task::{Activity, Task, TaskId, TaskState, TaskTable};
use speedbal_machine::{CoreId, CostModel, FreqSchedule, Topology};
use speedbal_sim::{EventQueue, OrderingPolicy, SimDuration, SimRng, SimTime, SlotId};
use speedbal_trace::{MigrationReason, TraceBuffer, TraceConfig, TraceEvent};

/// Handle to a task group (one application / competing workload).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct GroupId(pub usize);

/// Parameters for spawning a task.
pub struct SpawnSpec {
    pub program: Box<dyn Program>,
    pub name: String,
    pub group: GroupId,
    /// Resident set size for the migration cost model.
    pub rss_bytes: u64,
    /// Memory-bandwidth intensity in [0, 1] (see `Task::mem_intensity`).
    pub mem_intensity: f64,
    /// CFS load weight (1024 = nice 0).
    pub weight: u32,
    /// Hard single-core affinity installed at spawn.
    pub pinned: Option<CoreId>,
    /// `taskset`-style mask restricting placement (used to run "16 threads
    /// on N cores"). `None` = whole machine.
    pub allowed: Option<Vec<CoreId>>,
}

impl SpawnSpec {
    /// A plain unpinned task with default weight and no memory footprint.
    pub fn new(program: Box<dyn Program>, name: impl Into<String>, group: GroupId) -> Self {
        SpawnSpec {
            program,
            name: name.into(),
            group,
            rss_bytes: 0,
            mem_intensity: 0.0,
            weight: 1024,
            pinned: None,
            allowed: None,
        }
    }

    pub fn rss(mut self, bytes: u64) -> Self {
        self.rss_bytes = bytes;
        self
    }

    /// Sets the memory-bandwidth intensity (clamped to [0, 1]).
    pub fn mem(mut self, intensity: f64) -> Self {
        self.mem_intensity = intensity.clamp(0.0, 1.0);
        self
    }

    pub fn pin(mut self, core: CoreId) -> Self {
        self.pinned = Some(core);
        self
    }

    pub fn allow(mut self, cores: Vec<CoreId>) -> Self {
        self.allowed = Some(cores);
        self
    }

    pub fn weight(mut self, w: u32) -> Self {
        self.weight = w;
        self
    }
}

/// One recorded migration (requires [`System::enable_migration_log`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MigrationRecord {
    pub time: SimTime,
    pub task: TaskId,
    pub from: CoreId,
    pub to: CoreId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// The running task on `core` reached a boundary. Armed through the
    /// core's event-queue slot, so a popped core event is always live.
    Core {
        core: usize,
    },
    Wake {
        task: TaskId,
        gen: u64,
    },
    BalancerTimer {
        key: u64,
    },
    /// Tracing-only periodic speed sampler. Its handler reads scheduler
    /// state but never mutates it, so arming it cannot perturb a run.
    TraceSample,
    /// The pre-generated frequency schedule switches `core` to its next
    /// clock ratio. Only armed when a non-identity schedule is installed,
    /// so runs without one see a bit-identical event stream.
    FreqStep {
        core: usize,
    },
}

struct Core {
    queue: RunQueue,
    current: Option<TaskId>,
    /// The core's armed-event slot: at most one pending core event, with
    /// in-place cancellation instead of post-and-invalidate.
    slot: SlotId,
    /// Compute rate sampled at dispatch (speed × SMT × NUMA factors).
    current_rate: f64,
    busy_total: SimDuration,
    nr_switches: u64,
    /// Stable occupied/idle state, flipped only when a dispatch cycle ends
    /// with the opposite occupancy (drives SMT sibling notifications).
    busy_flag: bool,
}

impl Core {
    fn new(slot: SlotId) -> Self {
        Core {
            queue: RunQueue::new(),
            current: None,
            slot,
            current_rate: 1.0,
            busy_total: SimDuration::ZERO,
            nr_switches: 0,
            busy_flag: false,
        }
    }

    /// Linux `nr_running`: queued plus current.
    fn nr_running(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }
}

#[derive(Debug, Clone, Default)]
struct Group {
    total: usize,
    live: usize,
    finished_at: Option<SimTime>,
}

/// The simulated machine: topology + per-core schedulers + tasks + a
/// pluggable balancer, advanced by a deterministic event loop.
pub struct System {
    topo: Topology,
    cfg: SchedConfig,
    cost: CostModel,
    tasks: TaskTable,
    cores: Vec<Core>,
    conds: CondTable,
    events: EventQueue<Ev>,
    balancer: Option<Box<dyn Balancer>>,
    rng: SimRng,
    task_rngs: Vec<Option<SimRng>>,
    groups: Vec<Group>,
    total_migrations: u64,
    events_processed: u64,
    /// Deferred balancer notifications (collected while the balancer is
    /// detached during system mutation, drained after each event).
    pending_desched: Vec<(TaskId, CoreId, SimDuration)>,
    /// Cached [`Balancer::wants_desched_events`]: deschedules happen on
    /// nearly every event, so when no balancer listens the notifications
    /// are never even queued.
    desched_events_wanted: bool,
    pending_exits: Vec<TaskId>,
    /// Scratch buffers swapped with the pending queues on every flush so
    /// the steady-state event loop never reallocates them.
    scratch_desched: Vec<(TaskId, CoreId, SimDuration)>,
    scratch_exits: Vec<TaskId>,
    /// Reusable buffer for a drained condition's waiters.
    scratch_waiters: Vec<TaskId>,
    /// Per-core member lists: every non-exited task whose `core` field
    /// points at the core (running, queued, blocked or suspended), kept in
    /// `TaskId` order. Incrementally maintained so balancers read
    /// O(members) per core instead of scanning the whole task table.
    members: Vec<Vec<TaskId>>,
    /// `mem_intensity` of the task currently on each CPU (0.0 when idle).
    /// Dense, so the bandwidth-demand scan is a contiguous sum — and
    /// bit-identical to walking only the occupied cores, since adding an
    /// exact 0.0 never changes a finite sum.
    current_mi: Vec<f64>,
    /// Cached topology lists (the `Topology` getters allocate per call).
    bw_domain_cores: Vec<Vec<CoreId>>,
    /// `Some(lo)` when `bw_domain_cores[d]` is exactly the contiguous run
    /// `lo..lo+len` in order, letting the memo hit check below compare a
    /// flat `current_mi` slice instead of gathering core by core.
    bw_domain_contig: Vec<Option<usize>>,
    /// Per-core memo for [`System::bandwidth_factor`], keyed by the raw
    /// bits of its inputs (see there).
    bw_cache: Vec<BwCache>,
    smt_sibs: Vec<Vec<CoreId>>,
    /// Memoized [`SchedConfig::slice_for`] by `nr_running` (one u64
    /// division per boundary arm otherwise; the config is immutable).
    slice_cache: Vec<SimDuration>,
    /// Structured event trace (None = tracing disabled; every hook is a
    /// single branch on this option).
    trace: Option<Box<TraceBuffer>>,
    /// Attribution scratch: set by `*_with_reason` around a migration call
    /// so `migrate_task` can stamp the `Migrate` record.
    migration_reason: MigrationReason,
    /// Speed-sampler bookkeeping (tracing only).
    sampler_armed: bool,
    sampler_last: SimTime,
    sampler_exec: Vec<SimDuration>,
    sampler_busy: Vec<SimDuration>,
    /// Invariant-checker state (`None` = checks off; every hook is a single
    /// branch on this option, like tracing). See [`System::check_invariants`].
    check: Option<Box<invariants::CheckState>>,
    /// Installed frequency schedule plus the per-core current-ratio cache
    /// (`None` = homogeneous clocks; every hot-path read is one branch).
    freq: Option<Box<FreqState>>,
    /// When true (only inside [`System::step_profiled`]), `with_balancer`
    /// accumulates hook wall time into `balancer_ns`.
    profile_balancer: bool,
    balancer_ns: u64,
}

/// Wall-clock breakdown of the event loop accumulated by
/// [`System::step_profiled`]. All times are in [`profile_timestamp`]
/// units — the raw TSC on x86_64 (cheap enough to stamp four times per
/// step without drowning the signal), `Instant` nanoseconds elsewhere.
/// Consumers calibrate against wall clock over the whole run to convert
/// to nanoseconds. `balancer_ns` is a *subset* of the gross phase times
/// (the slices of handler and post-step work spent inside balancer
/// hooks), so the phases alone sum to the measured total.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepProfile {
    /// Steps accumulated into this profile.
    pub steps: u64,
    /// Event-queue pop (lane minimum or heap top).
    pub pop_ns: u64,
    /// Core-event handling: deschedule accounting, program transitions,
    /// dispatch and boundary re-arm.
    pub core_ns: u64,
    /// Timed-wake handling (wake placement and enqueue).
    pub wake_ns: u64,
    /// Balancer-timer handling (gross; the hook itself is in
    /// `balancer_ns`).
    pub timer_ns: u64,
    /// Trace-sampler and frequency-step handling.
    pub other_ns: u64,
    /// Post-step condition drain plus balancer-notification flush.
    pub post_ns: u64,
    /// Time inside balancer hooks, wherever they fired (subset).
    pub balancer_ns: u64,
}

/// Raw timestamp for [`StepProfile`] phase attribution: the TSC on
/// x86_64 (a few ns per read, versus ~25 for `Instant::now`, which would
/// distort a sub-100ns hot path beyond recognition), `Instant`
/// nanoseconds elsewhere. Monotonic enough for deltas on any machine new
/// enough to run the simulator (constant_tsc).
#[inline]
pub fn profile_timestamp() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC is unprivileged and has no memory effects.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Memo for [`System::bandwidth_factor`]: the last computed factor and
/// the raw bits of every input that produced it.
#[derive(Default, Clone)]
struct BwCache {
    valid: bool,
    /// `mem_intensity` bits of the dispatched task.
    own: u64,
    /// `current_mi` bits of each core in the bandwidth domain, in domain
    /// order.
    key: Vec<u64>,
    factor: f64,
}

/// Runtime state of an installed [`FreqSchedule`].
struct FreqState {
    schedule: FreqSchedule,
    /// Current ratio per core, updated at `Ev::FreqStep` instants so the
    /// dispatch path reads a cached f64 instead of searching the trace.
    ratios: Vec<f64>,
}

/// Bound on chained zero-time program transitions, to turn a program that
/// livelocks (e.g. infinitely returning `Compute(0)`) into a panic.
const MAX_CHAINED_TRANSITIONS: usize = 1024;

impl System {
    /// Builds a system over `topo` with the given balancer. `seed` fixes
    /// every random choice in the run.
    pub fn new(
        topo: Topology,
        cfg: SchedConfig,
        cost: CostModel,
        balancer: Box<dyn Balancer>,
        seed: u64,
    ) -> System {
        let n = topo.n_cores();
        let mut events = EventQueue::new();
        let cores: Vec<Core> = (0..n).map(|_| Core::new(events.alloc_slot())).collect();
        let n_domains = (0..n)
            .map(|c| topo.bw_domain_of(CoreId(c)))
            .max()
            .map_or(0, |d| d + 1);
        let bw_domain_cores: Vec<Vec<CoreId>> =
            (0..n_domains).map(|d| topo.cores_in_bw_domain(d)).collect();
        let bw_domain_contig = bw_domain_cores
            .iter()
            .map(|cs| {
                let lo = cs.first()?.0;
                cs.iter()
                    .enumerate()
                    .all(|(i, c)| c.0 == lo + i)
                    .then_some(lo)
            })
            .collect();
        let smt_sibs = (0..n).map(|c| topo.smt_siblings(CoreId(c))).collect();
        let mut sys = System {
            topo,
            cfg,
            cost,
            tasks: TaskTable::new(),
            cores,
            conds: CondTable::new(),
            events,
            balancer: None,
            rng: SimRng::new(seed),
            task_rngs: Vec::new(),
            groups: Vec::new(),
            total_migrations: 0,
            events_processed: 0,
            pending_desched: Vec::new(),
            desched_events_wanted: false,
            pending_exits: Vec::new(),
            scratch_desched: Vec::new(),
            scratch_exits: Vec::new(),
            scratch_waiters: Vec::new(),
            members: vec![Vec::new(); n],
            current_mi: vec![0.0; n],
            bw_domain_cores,
            bw_domain_contig,
            bw_cache: vec![BwCache::default(); n],
            smt_sibs,
            slice_cache: Vec::new(),
            trace: None,
            migration_reason: MigrationReason::Unspecified,
            sampler_armed: false,
            sampler_last: SimTime::ZERO,
            sampler_exec: Vec::new(),
            sampler_busy: Vec::new(),
            check: None,
            freq: None,
            profile_balancer: false,
            balancer_ns: 0,
        };
        if cfg!(feature = "strict-invariants") || invariants::env_enabled() {
            sys.enable_invariant_checks();
        }
        let mut bal = balancer;
        sys.desched_events_wanted = bal.wants_desched_events();
        bal.on_start(&mut sys);
        sys.balancer = Some(bal);
        sys
    }

    // ------------------------------------------------------------------
    // Queries (used by balancers, apps, metrics)
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Installs a pre-generated frequency schedule (see
    /// `speedbal_machine::freq`). Cores beyond the schedule's length run
    /// at ratio 1.0. An identity schedule (no core ever deviates from
    /// 1.0) is discarded entirely, so the event stream — and therefore
    /// every downstream result — stays bit-identical to a run that never
    /// called this method.
    ///
    /// Must be installed before the simulation advances past the
    /// schedule's first switching instant; installing at `t = 0` (the
    /// normal case, right after [`System::new`]) always satisfies that.
    pub fn set_freq_schedule(&mut self, schedule: FreqSchedule) {
        if schedule.is_identity() {
            self.freq = None;
            return;
        }
        let now = self.now();
        let n = self.cores.len();
        let ratios: Vec<f64> = (0..n).map(|c| schedule.ratio_at(c, now)).collect();
        for c in 0..n {
            if let Some(at) = schedule.next_change_after(c, now) {
                self.events.schedule(at, Ev::FreqStep { core: c });
            }
        }
        self.freq = Some(Box::new(FreqState { schedule, ratios }));
        // Ratios may differ from 1.0 right away; resample any core that
        // is already running a task.
        for c in 0..n {
            if self.cores[c].current.is_some() {
                self.reschedule(CoreId(c), now);
            }
        }
    }

    /// The installed frequency schedule, if any. Identity schedules are
    /// discarded by [`System::set_freq_schedule`], so `None` means every
    /// core runs at ratio 1.0 for the whole simulation.
    pub fn freq_schedule(&self) -> Option<&FreqSchedule> {
        self.freq.as_deref().map(|f| &f.schedule)
    }

    /// The core's current frequency ratio (1.0 without a schedule).
    pub fn freq_ratio(&self, core: CoreId) -> f64 {
        match &self.freq {
            Some(f) => f.ratios.get(core.0).copied().unwrap_or(1.0),
            None => 1.0,
        }
    }

    /// The core's effective capacity right now: its static topology speed
    /// times its current frequency ratio. This — not
    /// `topology().speed_of()` — is what capacity-aware balancers must
    /// weight by on machines with time-varying clocks.
    pub fn core_capacity(&self, core: CoreId) -> f64 {
        self.topo.speed_of(core) * self.freq_ratio(core)
    }

    /// Handles one `Ev::FreqStep`: refresh the core's cached ratio and,
    /// if the core is busy, reschedule it so the elapsed stretch is
    /// accounted at the old rate and the next dispatch samples the new
    /// one (exact piecewise integration). Then arm the next step.
    fn handle_freq_step(&mut self, c: usize, now: SimTime) {
        let Some(f) = self.freq.as_mut() else {
            return;
        };
        let ratio = f.schedule.ratio_at(c, now);
        let next = f.schedule.next_change_after(c, now);
        let changed = ratio != f.ratios[c];
        if changed {
            f.ratios[c] = ratio;
        }
        if let Some(at) = next {
            self.events.schedule(at, Ev::FreqStep { core: c });
        }
        if changed {
            if let Some(buf) = self.trace.as_mut() {
                buf.record(now, CoreId(c), TraceEvent::FreqStep { ratio });
            }
            if self.cores[c].current.is_some() {
                self.reschedule(CoreId(c), now);
            }
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// The deterministic RNG shared by balancer policies.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Linux `nr_running` for a core: queued runnable tasks plus the one on
    /// the CPU. This is the "load" that queue-length balancing equalizes.
    pub fn queue_len(&self, core: CoreId) -> usize {
        self.cores[core.0].nr_running()
    }

    /// Tasks occupying the core's run queue (current first, then queued in
    /// vruntime order).
    pub fn tasks_on_core(&self, core: CoreId) -> Vec<TaskId> {
        self.tasks_on_core_iter(core).collect()
    }

    /// Allocation-free variant of [`System::tasks_on_core`].
    pub fn tasks_on_core_iter(&self, core: CoreId) -> impl Iterator<Item = TaskId> + '_ {
        let c = &self.cores[core.0];
        c.current.into_iter().chain(c.queue.iter(&self.tasks.rq))
    }

    /// Non-exited tasks assigned to `core` — running, queued, blocked or
    /// suspended, everything whose [`System::task_core`] is `core` — in
    /// `TaskId` order. Incrementally maintained, so reading a core's
    /// members is O(members) instead of a scan of the whole task table.
    pub fn tasks_assigned_to(&self, core: CoreId) -> &[TaskId] {
        &self.members[core.0]
    }

    /// The task currently on the CPU of `core`.
    pub fn current_task(&self, core: CoreId) -> Option<TaskId> {
        self.cores[core.0].current
    }

    pub fn task_state(&self, t: TaskId) -> TaskState {
        self.tasks.state[t.0]
    }

    /// The core whose queue the task belongs to (last placement if blocked).
    pub fn task_core(&self, t: TaskId) -> CoreId {
        self.tasks.core[t.0]
    }

    pub fn task_group(&self, t: TaskId) -> GroupId {
        self.tasks.cold[t.0].group
    }

    pub fn task_name(&self, t: TaskId) -> &str {
        &self.tasks.cold[t.0].name
    }

    /// Cumulative CPU time (utime+stime equivalent) as of now.
    pub fn task_exec_total(&self, t: TaskId) -> SimDuration {
        self.tasks.exec_total_at(t.0, self.now())
    }

    pub fn task_migrations(&self, t: TaskId) -> u64 {
        self.tasks.cold[t.0].migrations
    }

    pub fn task_wakeups(&self, t: TaskId) -> u64 {
        self.tasks.cold[t.0].wakeups
    }

    pub fn task_rss(&self, t: TaskId) -> u64 {
        self.tasks.cold[t.0].rss_bytes
    }

    pub fn task_pinned(&self, t: TaskId) -> Option<CoreId> {
        self.tasks.cold[t.0].pinned
    }

    pub fn task_spawned_at(&self, t: TaskId) -> SimTime {
        self.tasks.cold[t.0].spawned_at
    }

    pub fn task_exited_at(&self, t: TaskId) -> Option<SimTime> {
        self.tasks.cold[t.0].exited_at
    }

    pub fn task_may_run_on(&self, t: TaskId, core: CoreId) -> bool {
        self.tasks.may_run_on(t.0, core)
    }

    /// First core the task's affinity mask allows.
    pub fn first_allowed_core(&self, t: TaskId) -> CoreId {
        let cold = &self.tasks.cold[t.0];
        if let Some(p) = cold.pinned {
            return p;
        }
        match &cold.allowed {
            Some(mask) => *mask.first().expect("empty affinity mask"),
            None => CoreId(0),
        }
    }

    /// Linux's cache-hot heuristic: the task ran on its core within
    /// `cache_hot_time` (≈5 ms). SMT-sibling exemption is applied by the
    /// Linux balancer itself.
    pub fn is_cache_hot(&self, t: TaskId) -> bool {
        if self.tasks.state[t.0] == TaskState::Running {
            return true;
        }
        self.now().saturating_since(self.tasks.last_ran_at[t.0]) < self.cfg.cache_hot_time
    }

    /// All task ids ever spawned.
    pub fn all_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Live (non-exited) tasks in a group.
    pub fn group_live_tasks(&self, g: GroupId) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&i| self.tasks.cold[i].group == g && self.tasks.state[i] != TaskState::Exited)
            .map(TaskId)
            .collect()
    }

    /// All tasks ever spawned in a group.
    pub fn group_tasks(&self, g: GroupId) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&i| self.tasks.cold[i].group == g)
            .map(TaskId)
            .collect()
    }

    /// When the group's last task exited, if it has.
    pub fn group_finished_at(&self, g: GroupId) -> Option<SimTime> {
        self.groups[g.0].finished_at
    }

    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Selects the same-instant event [`OrderingPolicy`] for the rest of
    /// the run (see `speedbal_sim::ordering`). The default FIFO keeps the
    /// committed bit-identical `(time, seq)` contract; non-FIFO policies
    /// explore other legal serializations of same-instant events — every
    /// scheduling decision is driven off `events.pop()`, so this one knob
    /// covers the whole stepping loop. Call before the first step.
    pub fn set_ordering_policy(&mut self, policy: OrderingPolicy) {
        self.events.set_ordering(policy);
    }

    /// The `(choice, arity)` branch-point log of an
    /// `OrderingPolicy::Exhaustive` run (empty under any other policy);
    /// feed it to `speedbal_sim::ordering::next_prefix` to enumerate the
    /// schedule tree.
    pub fn ordering_log(&self) -> &[(u32, u32)] {
        self.events.ordering_log()
    }

    /// Starts structured event tracing with default settings. Idempotent.
    /// Recording is strictly read-only with respect to scheduling: a traced
    /// run produces the same schedule as an untraced one.
    pub fn enable_tracing(&mut self) {
        self.enable_tracing_with(TraceConfig::default());
    }

    /// Starts structured event tracing with explicit settings. Idempotent
    /// (a second call keeps the existing buffer).
    pub fn enable_tracing_with(&mut self, cfg: TraceConfig) {
        if self.trace.is_some() {
            return;
        }
        let interval = cfg.sample_interval;
        let mut buf = Box::new(TraceBuffer::with_config(cfg));
        buf.set_n_cores(self.cores.len());
        let now = self.now();
        for i in 0..self.tasks.len() {
            if self.tasks.state[i] != TaskState::Exited {
                buf.task_spawned(i, &self.tasks.cold[i].name, now);
            }
        }
        self.trace = Some(buf);
        self.sampler_last = now;
        self.sync_sampler_baseline(now);
        if self.tasks.any_live() {
            self.arm_sampler(now + interval);
        }
    }

    /// True iff tracing is on.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The trace collected so far (None unless tracing is enabled).
    /// Flushes staged records first so the view is exact.
    pub fn trace(&mut self) -> Option<&TraceBuffer> {
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.flush();
        }
        self.trace.as_deref()
    }

    /// Detaches and returns the trace buffer (flushed), turning tracing
    /// off.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.sampler_armed = false;
        self.trace.take().map(|b| {
            let mut b = *b;
            b.flush();
            b
        })
    }

    /// Records a trace event stamped with the current time (no-op when
    /// tracing is off). Public so apps and balancers can contribute
    /// domain-level events (barrier episodes, balancer activations).
    pub fn trace_event(&mut self, core: CoreId, event: TraceEvent) {
        if let Some(buf) = self.trace.as_mut() {
            buf.record(self.events.now(), core, event);
        }
    }

    /// Backwards-compatible alias: migration recording is now part of the
    /// structured trace.
    pub fn enable_migration_log(&mut self) {
        self.enable_tracing();
    }

    /// The migrations recorded so far (empty unless tracing is enabled),
    /// reconstructed from `Migrate` trace records. Wake placements are
    /// excluded, matching `total_migrations` accounting.
    pub fn migration_log(&mut self) -> Vec<MigrationRecord> {
        let Some(buf) = self.trace.as_deref_mut() else {
            return Vec::new();
        };
        buf.flush();
        let buf = &*buf;
        buf.records()
            .filter_map(|rec| match rec.event {
                TraceEvent::Migrate {
                    task,
                    from,
                    to,
                    reason,
                    ..
                } if reason != MigrationReason::WakePlacement => Some(MigrationRecord {
                    time: rec.time,
                    task: TaskId(task),
                    from,
                    to,
                }),
                _ => None,
            })
            .collect()
    }

    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Fraction of pending event-queue entries that are cancelled but not
    /// yet purged. Always 0: cancelling or re-arming a slot removes its
    /// event on the spot, so the queue never holds a dead entry. Kept for
    /// callers that report it.
    pub fn event_dead_ratio(&self) -> f64 {
        0.0
    }

    /// Slot cancellations performed by the event queue so far.
    pub fn event_cancellations(&self) -> u64 {
        self.events.cancellations()
    }

    /// Dead-entry compaction passes performed by the event queue so far.
    /// Always 0: the queue never holds a dead entry, so there is nothing
    /// to compact. Kept for callers that report it.
    pub fn event_compactions(&self) -> u64 {
        0
    }

    /// Live (undelivered, uncancelled) events currently pending.
    pub fn events_pending(&self) -> usize {
        self.events.len()
    }

    /// Total CPU-busy time accumulated by a core (excludes the in-flight
    /// stretch).
    pub fn core_busy_time(&self, core: CoreId) -> SimDuration {
        self.cores[core.0].busy_total
    }

    pub fn core_switches(&self, core: CoreId) -> u64 {
        self.cores[core.0].nr_switches
    }

    /// Number of conditions allocated (diagnostics).
    pub fn n_conds(&self) -> usize {
        self.conds.len()
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Registers a new task group.
    pub fn new_group(&mut self) -> GroupId {
        let id = GroupId(self.groups.len());
        self.groups.push(Group::default());
        id
    }

    /// Allocates a condition usable by programs (apps pre-allocate barrier
    /// episode conditions here).
    pub fn alloc_cond(&mut self) -> CondId {
        self.conds.alloc()
    }

    /// True iff the condition has been set.
    pub fn cond_is_set(&self, c: CondId) -> bool {
        self.conds.is_set(c)
    }

    /// Spawns a task. Placement: the spec's pin wins; otherwise the
    /// balancer's `place_task` decides (Linux tries an idle core, the speed
    /// balancer pins round-robin, etc.).
    pub fn spawn(&mut self, spec: SpawnSpec) -> TaskId {
        let id = TaskId(self.tasks.len());
        let now = self.now();
        let group = spec.group;
        assert!(group.0 < self.groups.len(), "spawn into unknown group");
        let rng = self.rng.fork(id.0 as u64 + 0x5eed);
        let task = Task {
            id,
            name: spec.name,
            group,
            state: TaskState::Runnable,
            activity: Activity::Fresh,
            core: CoreId(0),
            pinned: spec.pinned,
            allowed: spec.allowed,
            vruntime: 0,
            weight: spec.weight.max(1),
            exec_total: SimDuration::ZERO,
            last_dispatched: now,
            last_ran_at: now,
            migrations: 0,
            wakeups: 0,
            home_node: None,
            rss_bytes: spec.rss_bytes,
            mem_intensity: spec.mem_intensity,
            pending_stall: SimDuration::ZERO,
            suspended: false,
            program: Some(spec.program),
            spawned_at: now,
            exited_at: None,
            sleep_gen: 0,
        };
        self.tasks.push(task);
        // Newest TaskId: pushing keeps the member list sorted. Placement
        // below relocates it via `move_member`.
        self.members[0].push(id);
        self.task_rng_store(id, rng);
        self.groups[group.0].total += 1;
        self.groups[group.0].live += 1;

        let core = if let Some(p) = self.tasks.cold[id.0].pinned {
            p
        } else {
            let chosen = self.with_balancer(|bal, sys| {
                let c = bal.place_task(sys, id);
                (c, bal.pin_on_place(sys, id))
            });
            match chosen {
                Some((c, pin)) if self.tasks.may_run_on(id.0, c) => {
                    if pin {
                        self.tasks.cold[id.0].pinned = Some(c);
                    }
                    c
                }
                _ => self.first_allowed_core(id),
            }
        };
        // First-touch memory placement: the task's pages land on the node
        // of the core it starts on.
        self.tasks.cold[id.0].home_node = Some(self.topo.node_of(core));
        if let Some(buf) = self.trace.as_mut() {
            let name = self.tasks.cold[id.0].name.clone();
            buf.task_spawned(id.0, &name, now);
            if !self.sampler_armed {
                let interval = buf.config().sample_interval;
                self.sampler_last = now;
                self.sync_sampler_baseline(now);
                self.arm_sampler(now + interval);
            }
        }
        self.enqueue_task(id, core, false);
        self.drain_conds();
        if self.check.is_some() {
            self.invariant_tick("post-spawn");
        }
        id
    }

    /// Installs (or clears) a hard single-core pin, as `sched_setaffinity`
    /// with a one-CPU mask would. Pinning to a different core than the task
    /// currently occupies migrates it immediately.
    pub fn pin_task(&mut self, t: TaskId, to: Option<CoreId>) {
        self.tasks.cold[t.0].pinned = to;
        if let Some(c) = to {
            if self.tasks.core[t.0] != c && self.tasks.state[t.0] != TaskState::Exited {
                self.migrate_task(t, c);
            }
        }
    }

    /// Moves a task to another core **immediately**, as `sched_setaffinity`
    /// does ("without allowing the task to finish the run time remaining in
    /// its quantum"). Pays the cache-refill stall from the cost model.
    /// Returns false if the task cannot move (exited, same core, or
    /// affinity-disallowed for kernel balancers).
    pub fn migrate_task(&mut self, t: TaskId, to: CoreId) -> bool {
        let now = self.now();
        let from = self.tasks.core[t.0];
        if self.tasks.state[t.0] == TaskState::Exited || from == to || to.0 >= self.cores.len() {
            return false;
        }
        if self.trace.is_some() {
            let tier = self.topo.common_level(from, to);
            let reason = self.migration_reason;
            self.trace_event(
                to,
                TraceEvent::Migrate {
                    task: t.0,
                    from,
                    to,
                    tier,
                    reason,
                },
            );
        }
        let stall = self
            .cost
            .migration_cost(&self.topo, from, to, self.tasks.cold[t.0].rss_bytes);
        match self.tasks.state[t.0] {
            TaskState::Running => {
                // Rip it off the CPU: account the partial stretch, then move.
                debug_assert_eq!(self.cores[from.0].current, Some(t));
                self.cores[from.0].current = None;
                self.current_mi[from.0] = 0.0;
                // Cancel the armed boundary event for the interrupted
                // stretch: re-dispatching below arms a fresh one, and the
                // stale boundary would otherwise keep interrupting the
                // next task at nanosecond granularity.
                self.events.cancel_slot(self.cores[from.0].slot);
                self.account_and_settle(t, from, now);
                if self.tasks.state[t.0] == TaskState::Exited {
                    // The interrupted stretch completed its program.
                    self.pick_and_dispatch(from.0, now);
                    self.drain_conds();
                    return false;
                }
                self.detach_vruntime_common(t, from);
                self.finish_migration(t, from, to, stall, now);
                self.pick_and_dispatch(from.0, now);
            }
            TaskState::Runnable => {
                debug_assert!(self.tasks.on_queue(t.0));
                if self.tasks.suspended[t.0] {
                    // Parked off-queue: nothing to dequeue.
                    self.detach_vruntime_common(t, from);
                    self.finish_migration(t, from, to, stall, now);
                } else {
                    let v = self.tasks.vruntime[t.0];
                    let removed = self.cores[from.0].queue.dequeue(&mut self.tasks.rq, v, t);
                    debug_assert!(removed, "runnable task missing from queue");
                    self.detach_vruntime_common(t, from);
                    self.finish_migration(t, from, to, stall, now);
                    // The source queue shrank; its current task's slice grew.
                    self.reschedule(from, now);
                }
            }
            TaskState::Blocked => {
                // Off-queue: just retarget; it will enqueue there on wake.
                self.move_member(t, to);
                self.tasks.core[t.0] = to;
                self.tasks.cold[t.0].migrations += 1;
                self.tasks.pending_stall[t.0] += stall;
                self.total_migrations += 1;
            }
            TaskState::Exited => unreachable!(),
        }
        self.drain_conds();
        if self.check.is_some() {
            self.invariant_tick("post-migration");
        }
        true
    }

    /// [`System::migrate_task`] with the policy decision that caused the
    /// move attributed in the trace.
    pub fn migrate_task_with_reason(
        &mut self,
        t: TaskId,
        to: CoreId,
        reason: MigrationReason,
    ) -> bool {
        self.migration_reason = reason;
        let moved = self.migrate_task(t, to);
        self.migration_reason = MigrationReason::Unspecified;
        moved
    }

    /// [`System::pin_task`] with the policy decision attributed in the
    /// trace (the speed balancer migrates by hard-pinning).
    pub fn pin_task_with_reason(&mut self, t: TaskId, to: Option<CoreId>, reason: MigrationReason) {
        self.migration_reason = reason;
        self.pin_task(t, to);
        self.migration_reason = MigrationReason::Unspecified;
    }

    /// Arms (or re-arms) a balancer timer with the given key.
    pub fn set_balancer_timer(&mut self, key: u64, at: SimTime) {
        let at = at.max(self.now());
        self.events.schedule(at, Ev::BalancerTimer { key });
    }

    /// Takes a task off the runnable set even though it is logically
    /// runnable (DWRR's "expired" queue). A running task is interrupted and
    /// accounted first. No effect on exited tasks. Idempotent.
    pub fn suspend_task(&mut self, t: TaskId) {
        let now = self.now();
        if self.tasks.suspended[t.0] || self.tasks.state[t.0] == TaskState::Exited {
            return;
        }
        self.tasks.suspended[t.0] = true;
        match self.tasks.state[t.0] {
            TaskState::Running => {
                let core = self.tasks.core[t.0];
                debug_assert_eq!(self.cores[core.0].current, Some(t));
                self.cores[core.0].current = None;
                self.current_mi[core.0] = 0.0;
                // Cancel the interrupted stretch's boundary event (see
                // migrate_task).
                self.events.cancel_slot(self.cores[core.0].slot);
                self.account_and_settle(t, core, now);
                // account_and_settle leaves a still-runnable task unqueued;
                // `suspended` keeps it that way (with detached vruntime,
                // matching blocked tasks). If it blocked or exited the flag
                // is simply latent until resume.
                if self.tasks.state[t.0] == TaskState::Runnable {
                    self.detach_vruntime_common(t, core);
                }
                self.pick_and_dispatch(core.0, now);
                self.drain_conds();
            }
            TaskState::Runnable => {
                let v = self.tasks.vruntime[t.0];
                let core = self.tasks.core[t.0];
                if self.cores[core.0].queue.dequeue(&mut self.tasks.rq, v, t) {
                    self.detach_vruntime_common(t, core);
                    self.reschedule(core, now);
                }
            }
            TaskState::Blocked => {} // stays off-queue; wake respects the flag
            TaskState::Exited => unreachable!(),
        }
    }

    /// Puts a suspended task back on the runnable set (on its current
    /// core). Idempotent for non-suspended tasks.
    pub fn resume_task(&mut self, t: TaskId) {
        if !self.tasks.suspended[t.0] {
            return;
        }
        self.tasks.suspended[t.0] = false;
        if self.tasks.state[t.0] == TaskState::Runnable {
            let core = self.tasks.core[t.0];
            let now = self.now();
            self.attach_and_enqueue(t, core, false, now);
        }
    }

    /// True iff the task is balancer-suspended.
    pub fn task_suspended(&self, t: TaskId) -> bool {
        self.tasks.suspended[t.0]
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Processes a single event. Returns false when no events remain.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.events.pop() else {
            return false;
        };
        self.events_processed += 1;
        assert!(
            self.events_processed < self.cfg.max_events,
            "event budget exhausted at {} — runaway simulation?",
            self.now()
        );
        match ev.event {
            // Slot-armed, so a popped core event is always live.
            Ev::Core { core } => self.advance_core(core, ev.time),
            Ev::Wake { task, gen } => {
                if let Activity::Sleeping { gen: g, .. } = self.tasks.activity[task.0] {
                    if g == gen && self.tasks.state[task.0] == TaskState::Blocked {
                        self.wake_task(task);
                    }
                }
            }
            Ev::BalancerTimer { key } => {
                self.with_balancer(|bal, sys| bal.on_timer(sys, key));
            }
            Ev::TraceSample => self.handle_trace_sample(ev.time),
            Ev::FreqStep { core } => self.handle_freq_step(core, ev.time),
        }
        self.drain_conds();
        self.flush_balancer_notifications();
        if self.check.is_some() {
            let point = match ev.event {
                Ev::BalancerTimer { .. } => "post-balance-tick",
                _ => "post-step",
            };
            self.invariant_tick(point);
        }
        true
    }

    /// [`System::step`] with a wall-clock breakdown: times the event-queue
    /// pop, the handler (split by event kind), and the post-step
    /// drain/flush, accumulating into `p`. Time spent inside balancer hooks
    /// (placement, idle pulls, timers, deschedule/exit notifications) is
    /// additionally collected into `p.balancer_ns` — a subset of the gross
    /// phase times, not an extra phase. Drives `speedbal-cli bench
    /// --profile`; the unprofiled [`System::step`] stays branch-free.
    pub fn step_profiled(&mut self, p: &mut StepProfile) -> bool {
        let t0 = profile_timestamp();
        let Some(ev) = self.events.pop() else {
            return false;
        };
        let t1 = profile_timestamp();
        self.events_processed += 1;
        assert!(
            self.events_processed < self.cfg.max_events,
            "event budget exhausted at {} — runaway simulation?",
            self.now()
        );
        self.profile_balancer = true;
        self.balancer_ns = 0;
        match ev.event {
            Ev::Core { core } => self.advance_core(core, ev.time),
            Ev::Wake { task, gen } => {
                if let Activity::Sleeping { gen: g, .. } = self.tasks.activity[task.0] {
                    if g == gen && self.tasks.state[task.0] == TaskState::Blocked {
                        self.wake_task(task);
                    }
                }
            }
            Ev::BalancerTimer { key } => {
                self.with_balancer(|bal, sys| bal.on_timer(sys, key));
            }
            Ev::TraceSample => self.handle_trace_sample(ev.time),
            Ev::FreqStep { core } => self.handle_freq_step(core, ev.time),
        }
        let t2 = profile_timestamp();
        self.drain_conds();
        self.flush_balancer_notifications();
        let t3 = profile_timestamp();
        self.profile_balancer = false;
        if self.check.is_some() {
            let point = match ev.event {
                Ev::BalancerTimer { .. } => "post-balance-tick",
                _ => "post-step",
            };
            self.invariant_tick(point);
        }
        p.steps += 1;
        p.pop_ns += t1 - t0;
        let handler = t2 - t1;
        match ev.event {
            Ev::Core { .. } => p.core_ns += handler,
            Ev::Wake { .. } => p.wake_ns += handler,
            Ev::BalancerTimer { .. } => p.timer_ns += handler,
            Ev::TraceSample | Ev::FreqStep { .. } => p.other_ns += handler,
        }
        p.post_ns += t3 - t2;
        p.balancer_ns += self.balancer_ns;
        true
    }

    /// Runs until the event queue is exhausted (all tasks exited and all
    /// timers drained). Returns the final time.
    pub fn run_to_quiescence(&mut self) -> SimTime {
        while self.step() {}
        self.now()
    }

    /// Runs until `group` finishes or the system goes quiescent or `deadline`
    /// passes. Returns the group completion time if it finished.
    pub fn run_until_group_done(&mut self, group: GroupId, deadline: SimTime) -> Option<SimTime> {
        loop {
            if let Some(t) = self.groups[group.0].finished_at {
                return Some(t);
            }
            match self.events.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => return self.groups[group.0].finished_at,
            }
        }
    }

    /// Runs until simulated `deadline` (events after it stay pending) and
    /// advances the clock to exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.events.advance_to(deadline);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn with_balancer<R>(
        &mut self,
        f: impl FnOnce(&mut Box<dyn Balancer>, &mut System) -> R,
    ) -> Option<R> {
        let mut bal = self.balancer.take()?;
        if self.profile_balancer {
            let t = profile_timestamp();
            let r = f(&mut bal, self);
            self.balancer_ns += profile_timestamp() - t;
            self.balancer = Some(bal);
            return Some(r);
        }
        let r = f(&mut bal, self);
        self.balancer = Some(bal);
        Some(r)
    }

    fn flush_balancer_notifications(&mut self) {
        while !self.pending_desched.is_empty() || !self.pending_exits.is_empty() {
            // Swap with scratch buffers instead of `mem::take` so the Vec
            // capacity survives the round-trip and steady-state flushing
            // never reallocates.
            let mut desched = std::mem::replace(
                &mut self.pending_desched,
                std::mem::take(&mut self.scratch_desched),
            );
            let mut exits = std::mem::replace(
                &mut self.pending_exits,
                std::mem::take(&mut self.scratch_exits),
            );
            self.with_balancer(|bal, sys| {
                for &(t, c, ran) in desched.iter() {
                    bal.on_task_descheduled(sys, t, c, ran);
                }
                for &t in exits.iter() {
                    bal.on_task_exit(sys, t);
                }
            });
            desched.clear();
            exits.clear();
            self.scratch_desched = desched;
            self.scratch_exits = exits;
        }
    }

    /// Effective compute rate of `task` on `core` right now: core speed
    /// times the current frequency ratio, reduced while an SMT sibling is
    /// busy, divided by the NUMA remote-memory factor.
    fn compute_rate(&mut self, core: CoreId, task: TaskId) -> f64 {
        let mut rate = self.topo.speed_of(core) * self.freq_ratio(core);
        let sf = self.topo.smt_busy_factor();
        if sf < 1.0 {
            let sibling_busy = self.smt_sibs[core.0]
                .iter()
                .any(|s| self.cores[s.0].current.is_some());
            if sibling_busy {
                rate *= sf;
            }
        }
        if let Some(home) = self.tasks.cold[task.0].home_node {
            rate /= self.cost.locality_factor(&self.topo, core, home);
        }
        rate * self.bandwidth_factor(core, task)
    }

    /// Memory-bandwidth contention (enabled per machine): when the summed
    /// intensity of the tasks running in a bandwidth domain exceeds the
    /// domain's sustainable streams, the memory-bound fraction of each
    /// task's execution is scaled down proportionally:
    /// `rate = (1 - mi) + mi * min(1, streams / demand)`.
    fn bandwidth_factor(&mut self, core: CoreId, task: TaskId) -> f64 {
        let mi = self.tasks.mem_intensity[task.0];
        if mi <= 0.0 || !self.topo.models_bandwidth() {
            return 1.0;
        }
        let domain = self.topo.bw_domain_of(core);
        // Dispatch storms re-create the identical intensity configuration
        // event after event, so the factor is memoized per core under a
        // raw-bits snapshot of the inputs. The key comparison revalidates
        // against the live `current_mi` on every call — no invalidation
        // hooks — and a hit returns exactly what the serial summation
        // below produced for the same bits, so schedules cannot diverge.
        let cores = &self.bw_domain_cores[domain];
        let mis = &self.current_mi;
        let cache = &mut self.bw_cache[core.0];
        if cache.valid && cache.own == mi.to_bits() && cache.key.len() == cores.len() {
            // Contiguous domains (the common, whole-socket case) compare the
            // live slice flat; irregular ones gather core by core.
            let hit = match self.bw_domain_contig[domain] {
                Some(lo) => mis[lo..lo + cores.len()]
                    .iter()
                    .zip(cache.key.iter())
                    .all(|(&m, &k)| m.to_bits() == k),
                None => cores
                    .iter()
                    .zip(cache.key.iter())
                    .all(|(&c, &k)| mis[c.0].to_bits() == k),
            };
            if hit {
                return cache.factor;
            }
        }
        let mut demand = mi; // self counts even while being dispatched
        for &c in cores {
            if c == core {
                continue;
            }
            demand += mis[c.0];
        }
        let streams = self.topo.bw_streams();
        let factor = if demand <= streams {
            1.0
        } else {
            (1.0 - mi) + mi * (streams / demand)
        };
        cache.valid = true;
        cache.own = mi.to_bits();
        cache.key.clear();
        cache.key.extend(cores.iter().map(|&c| mis[c.0].to_bits()));
        cache.factor = factor;
        factor
    }

    /// Re-arms the core's slot with an immediate core event, cancelling any
    /// armed boundary event in place.
    fn reschedule(&mut self, core: CoreId, now: SimTime) {
        let slot = self.cores[core.0].slot;
        self.events
            .schedule_in_slot(slot, now, Ev::Core { core: core.0 });
    }

    /// Core event fired: pull the current task off the CPU, account it,
    /// settle it, then dispatch the next one.
    fn advance_core(&mut self, c: usize, now: SimTime) {
        if let Some(tid) = self.cores[c].current.take() {
            self.current_mi[c] = 0.0;
            self.account_and_settle(tid, CoreId(c), now);
            // Requeue if the task remains runnable (and not suspended).
            if self.tasks.state[tid.0] == TaskState::Runnable {
                if self.tasks.suspended[tid.0] {
                    self.detach_vruntime_common(tid, CoreId(c));
                } else {
                    let v = self.tasks.vruntime[tid.0];
                    self.cores[c].queue.enqueue(&mut self.tasks.rq, v, tid);
                }
            }
        }
        self.pick_and_dispatch(c, now);
    }

    /// Accounts the stretch the task just ran, applies activity progress,
    /// and walks through any completed transitions (may run the program,
    /// block, sleep or exit the task). On return the task is in state
    /// Runnable (not queued), Blocked, or Exited.
    fn account_and_settle(&mut self, tid: TaskId, core: CoreId, now: SimTime) {
        let rate = self.cores[core.0].current_rate;
        {
            let i = tid.0;
            debug_assert_eq!(self.tasks.state[i], TaskState::Running);
            let ran = now.saturating_since(self.tasks.last_dispatched[i]);
            self.tasks.exec_total[i] += ran;
            self.tasks.last_ran_at[i] = now;
            // Nice-0 weight (1024) is the overwhelmingly common case; skip
            // the division (x * 1024 / 1024 == x exactly).
            self.tasks.vruntime[i] += if self.tasks.weight[i] == 1024 {
                ran.as_nanos()
            } else {
                ran.as_nanos() * 1024 / self.tasks.weight[i] as u64
            };
            self.cores[core.0].busy_total += ran;
            // Advance the queue's vruntime floor.
            let floor = match self.cores[core.0].queue.peek_min(&self.tasks.rq) {
                Some((v, _)) => v.min(self.tasks.vruntime[i]),
                None => self.tasks.vruntime[i],
            };
            self.cores[core.0].queue.advance_min_vruntime(floor);

            // Burn the migration stall first, then make activity progress.
            let mut wall = ran;
            if !self.tasks.pending_stall[i].is_zero() {
                let burned = self.tasks.pending_stall[i].min(wall);
                self.tasks.pending_stall[i] -= burned;
                wall = wall.saturating_sub(burned);
            }
            match &mut self.tasks.activity[i] {
                Activity::Compute { remaining } => {
                    let done = wall.mul_f64(rate);
                    *remaining = remaining.saturating_sub(done);
                }
                Activity::SpinThenBlock { remaining_spin, .. } => {
                    *remaining_spin = remaining_spin.saturating_sub(wall);
                }
                _ => {}
            }
            self.tasks.state[i] = TaskState::Runnable;
            if self.desched_events_wanted {
                self.pending_desched.push((tid, core, ran));
            }
            if let Some(buf) = self.trace.as_mut() {
                buf.record(now, core, TraceEvent::Desched { task: tid.0, ran });
            }
        }
        // A `sched_yield` completes: the yielder parks at the right edge of
        // the queue so everyone else runs first (CFS yield_task).
        if let Activity::YieldLoop { cond } = self.tasks.activity[tid.0] {
            if !self.conds.is_set(cond) {
                if let Some(maxv) = self.cores[core.0].queue.max_vruntime(&self.tasks.rq) {
                    let v = &mut self.tasks.vruntime[tid.0];
                    *v = (*v).max(maxv + 1);
                }
            }
        }
        self.settle_task(tid, now);
    }

    /// Walks a runnable task through every transition that is already due:
    /// finished computations, satisfied conditions, expired spin timeouts.
    /// Calls the program as needed.
    fn settle_task(&mut self, tid: TaskId, now: SimTime) {
        for _ in 0..MAX_CHAINED_TRANSITIONS {
            let due = match self.tasks.activity[tid.0] {
                Activity::Fresh => true,
                Activity::Compute { remaining } => {
                    remaining.is_zero() && self.tasks.pending_stall[tid.0].is_zero()
                }
                Activity::Spin { cond } | Activity::YieldLoop { cond } => self.conds.is_set(cond),
                Activity::SpinThenBlock {
                    cond,
                    remaining_spin,
                } => {
                    if self.conds.is_set(cond) {
                        true
                    } else if remaining_spin.is_zero() {
                        // Timeout: fall asleep on the condition.
                        self.tasks.activity[tid.0] = Activity::Blocked { cond };
                        self.tasks.state[tid.0] = TaskState::Blocked;
                        let core = self.tasks.core[tid.0];
                        if let Some(buf) = self.trace.as_mut() {
                            buf.record(now, core, TraceEvent::Sleep { task: tid.0 });
                        }
                        self.detach_vruntime(tid);
                        // Waiter was registered at spin entry; keep it.
                        return;
                    } else {
                        false
                    }
                }
                Activity::Blocked { .. } | Activity::Sleeping { .. } | Activity::Exited => {
                    return;
                }
            };
            if !due {
                return;
            }
            let directive = self.run_program(tid, now);
            if self.apply_directive(tid, directive, now) {
                return; // task went off-queue (blocked/sleeping/exited)
            }
        }
        panic!(
            "task {} livelocked: {MAX_CHAINED_TRANSITIONS} zero-time transitions at {now}",
            self.tasks.cold[tid.0].name
        );
    }

    fn run_program(&mut self, tid: TaskId, now: SimTime) -> Directive {
        let mut program = self.tasks.cold[tid.0]
            .program
            .take()
            .expect("program re-entered");
        let mut rng = self.task_rng_take(tid);
        let directive = {
            let mut ctx = ProgramCtx {
                now,
                task: tid,
                core: self.tasks.core[tid.0],
                conds: &mut self.conds,
                rng: &mut rng,
                trace: self.trace.as_deref_mut(),
            };
            program.next(&mut ctx)
        };
        self.task_rng_store(tid, rng);
        self.tasks.cold[tid.0].program = Some(program);
        directive
    }

    /// Installs the directive as the task's new activity. Returns true if
    /// the task left the runnable set.
    fn apply_directive(&mut self, tid: TaskId, d: Directive, now: SimTime) -> bool {
        match d {
            Directive::Compute(amount) => {
                self.tasks.activity[tid.0] = Activity::Compute { remaining: amount };
                false
            }
            Directive::SpinUntil(cond) => {
                self.tasks.activity[tid.0] = Activity::Spin { cond };
                if !self.conds.is_set(cond) {
                    self.conds.add_waiter(cond, tid);
                }
                false
            }
            Directive::YieldUntil(cond) => {
                self.tasks.activity[tid.0] = Activity::YieldLoop { cond };
                if !self.conds.is_set(cond) {
                    self.conds.add_waiter(cond, tid);
                }
                false
            }
            Directive::SpinThenBlock { cond, spin } => {
                self.tasks.activity[tid.0] = Activity::SpinThenBlock {
                    cond,
                    remaining_spin: spin,
                };
                if !self.conds.is_set(cond) {
                    self.conds.add_waiter(cond, tid);
                }
                false
            }
            Directive::BlockUntil(cond) => {
                if self.conds.is_set(cond) {
                    // Already satisfied; continue to the next directive via
                    // the settle loop (model it as an instantly-complete
                    // computation).
                    self.tasks.activity[tid.0] = Activity::Compute {
                        remaining: SimDuration::ZERO,
                    };
                    false
                } else {
                    self.tasks.activity[tid.0] = Activity::Blocked { cond };
                    self.tasks.state[tid.0] = TaskState::Blocked;
                    let core = self.tasks.core[tid.0];
                    if let Some(buf) = self.trace.as_mut() {
                        buf.record(now, core, TraceEvent::Sleep { task: tid.0 });
                    }
                    self.conds.add_waiter(cond, tid);
                    self.detach_vruntime(tid);
                    true
                }
            }
            Directive::SleepFor(d) => {
                let dur = d.max(self.cfg.timer_granularity);
                let until = now + dur;
                self.tasks.sleep_gen[tid.0] += 1;
                let gen = self.tasks.sleep_gen[tid.0];
                self.tasks.activity[tid.0] = Activity::Sleeping { until, gen };
                self.tasks.state[tid.0] = TaskState::Blocked;
                let core = self.tasks.core[tid.0];
                if let Some(buf) = self.trace.as_mut() {
                    buf.record(now, core, TraceEvent::Sleep { task: tid.0 });
                }
                self.detach_vruntime(tid);
                self.events.schedule(until, Ev::Wake { task: tid, gen });
                true
            }
            Directive::Exit => {
                self.tasks.activity[tid.0] = Activity::Exited;
                self.tasks.state[tid.0] = TaskState::Exited;
                self.tasks.cold[tid.0].exited_at = Some(now);
                let core = self.tasks.core[tid.0];
                if let Some(buf) = self.trace.as_mut() {
                    buf.record(now, core, TraceEvent::Exit { task: tid.0 });
                }
                let g = self.tasks.cold[tid.0].group;
                let group = &mut self.groups[g.0];
                group.live -= 1;
                if group.live == 0 {
                    group.finished_at = Some(now);
                }
                self.remove_member(tid);
                self.pending_exits.push(tid);
                true
            }
        }
    }

    /// Relocates `tid`'s membership record to `to`'s list, keyed off the
    /// task's current `core` field — call *before* reassigning `task.core`.
    /// Lists stay sorted by `TaskId` so readers see a deterministic order.
    fn move_member(&mut self, tid: TaskId, to: CoreId) {
        let from = self.tasks.core[tid.0];
        if from == to {
            return;
        }
        let v = &mut self.members[from.0];
        let pos = v.partition_point(|&t| t < tid);
        debug_assert_eq!(v.get(pos), Some(&tid), "member list out of sync");
        v.remove(pos);
        let v = &mut self.members[to.0];
        let pos = v.partition_point(|&t| t < tid);
        v.insert(pos, tid);
    }

    /// Drops `tid` from its core's member list (task exit).
    fn remove_member(&mut self, tid: TaskId) {
        let from = self.tasks.core[tid.0];
        let v = &mut self.members[from.0];
        let pos = v.partition_point(|&t| t < tid);
        debug_assert_eq!(v.get(pos), Some(&tid), "member list out of sync");
        v.remove(pos);
    }

    /// CFS-style vruntime normalization when a task leaves a queue.
    fn detach_vruntime(&mut self, tid: TaskId) {
        let core = self.tasks.core[tid.0];
        self.detach_vruntime_common(tid, core);
    }

    fn detach_vruntime_common(&mut self, tid: TaskId, core: CoreId) {
        let min = self.cores[core.0].queue.min_vruntime();
        let v = &mut self.tasks.vruntime[tid.0];
        *v = v.saturating_sub(min);
    }

    fn finish_migration(
        &mut self,
        tid: TaskId,
        _from: CoreId,
        to: CoreId,
        stall: SimDuration,
        now: SimTime,
    ) {
        self.tasks.cold[tid.0].migrations += 1;
        self.tasks.pending_stall[tid.0] += stall;
        self.tasks.state[tid.0] = TaskState::Runnable;
        self.total_migrations += 1;
        self.attach_and_enqueue(tid, to, false, now);
    }

    /// Wakes a blocked task: picks a wake core (balancer hook), enqueues
    /// with sleeper credit, and preempts if warranted.
    fn wake_task(&mut self, tid: TaskId) {
        let now = self.now();
        debug_assert_eq!(self.tasks.state[tid.0], TaskState::Blocked);
        self.tasks.cold[tid.0].wakeups += 1;
        // Next directive runs when dispatched.
        self.tasks.activity[tid.0] = Activity::Fresh;
        let chosen = self
            .with_balancer(|bal, sys| bal.select_wake_core(sys, tid))
            .unwrap_or(self.tasks.core[tid.0]);
        let core = if self.tasks.may_run_on(tid.0, chosen) {
            chosen
        } else {
            self.first_allowed_core(tid)
        };
        if self.trace.is_some() {
            let prev = self.tasks.core[tid.0];
            self.trace_event(core, TraceEvent::Wake { task: tid.0 });
            if prev != core {
                // Trace-only: wake placements do not count as migrations in
                // `total_migrations`, but they are real cross-core moves.
                let tier = self.topo.common_level(prev, core);
                self.trace_event(
                    core,
                    TraceEvent::Migrate {
                        task: tid.0,
                        from: prev,
                        to: core,
                        tier,
                        reason: MigrationReason::WakePlacement,
                    },
                );
            }
        }
        self.tasks.state[tid.0] = TaskState::Runnable;
        self.attach_and_enqueue(tid, core, true, now);
    }

    /// Enqueues a detached task on `core` (attaching vruntime, optionally
    /// with sleeper credit) and triggers dispatch/preemption.
    fn attach_and_enqueue(&mut self, tid: TaskId, core: CoreId, sleeper: bool, now: SimTime) {
        if self.tasks.suspended[tid.0] {
            // Stays logically runnable but parked (DWRR expired) with its
            // vruntime detached; `resume` attaches and enqueues it.
            self.move_member(tid, core);
            self.tasks.core[tid.0] = core;
            return;
        }
        self.move_member(tid, core);
        let min = self.cores[core.0].queue.min_vruntime();
        {
            self.tasks.core[tid.0] = core;
            let v = &mut self.tasks.vruntime[tid.0];
            *v = v.saturating_add(min);
            if sleeper {
                let credit = self.cfg.sleeper_credit.as_nanos();
                *v = (*v).max(min.saturating_sub(credit));
            }
        }
        let v = self.tasks.vruntime[tid.0];
        self.cores[core.0].queue.enqueue(&mut self.tasks.rq, v, tid);
        match self.cores[core.0].current {
            None => self.reschedule(core, now),
            Some(cur) => {
                let gran = self.cfg.wakeup_granularity.as_nanos();
                if v.saturating_add(gran) < self.tasks.vruntime[cur.0] {
                    if let Some(buf) = self.trace.as_mut() {
                        buf.record(
                            now,
                            core,
                            TraceEvent::Preempt {
                                task: cur.0,
                                by: tid.0,
                            },
                        );
                    }
                    self.reschedule(core, now);
                } else {
                    // The running task's slice shrank with the longer queue;
                    // re-arm its boundary.
                    self.rearm_current(core, now);
                }
            }
        }
    }

    /// Spawn-time placement helper: attach a fresh task (vruntime starts at
    /// the queue floor so it is neither penalized nor favored).
    fn enqueue_task(&mut self, tid: TaskId, core: CoreId, sleeper: bool) {
        let now = self.now();
        self.tasks.vruntime[tid.0] = 0;
        self.attach_and_enqueue(tid, core, sleeper, now);
    }

    /// Re-arms the running task's boundary event without descheduling it
    /// (used when queue length changes under it).
    fn rearm_current(&mut self, core: CoreId, now: SimTime) {
        if self.cores[core.0].current.is_some() {
            // Cheap and safe: treat as a reschedule; accounting is exact and
            // the min-vruntime task (likely the same) is re-dispatched.
            self.reschedule(core, now);
        }
    }

    /// Picks the next task for an empty CPU and arms its boundary event.
    fn pick_and_dispatch(&mut self, c: usize, now: SimTime) {
        debug_assert!(self.cores[c].current.is_none());
        loop {
            let Some((_v, tid)) = self.cores[c].queue.pop_min(&mut self.tasks.rq) else {
                // Queue empty: newidle balancing may refill it.
                self.with_balancer(|bal, sys| bal.on_core_idle(sys, CoreId(c)));
                if let Some((_v2, tid2)) = self.cores[c].queue.pop_min(&mut self.tasks.rq) {
                    if self.try_dispatch(c, tid2, now) {
                        return;
                    }
                    continue;
                }
                // Truly idle.
                self.update_busy_flag(c, now);
                return;
            };
            if self.try_dispatch(c, tid, now) {
                return;
            }
        }
    }

    /// Reconciles the core's stable busy flag with its actual occupancy;
    /// notifies SMT siblings only on a real transition. Called at the end
    /// of every dispatch cycle, so same-instant deschedule/redispatch pairs
    /// do not generate notification ping-pong.
    fn update_busy_flag(&mut self, c: usize, now: SimTime) {
        let busy = self.cores[c].current.is_some();
        if self.cores[c].busy_flag != busy {
            self.cores[c].busy_flag = busy;
            self.notify_smt_change(CoreId(c), now);
        }
    }

    /// Settles a picked task; dispatches it if it is still runnable.
    /// Returns true when the CPU is now occupied.
    fn try_dispatch(&mut self, c: usize, tid: TaskId, now: SimTime) -> bool {
        // The task may have been released/blocked/exited while queued.
        self.settle_task(tid, now);
        let state = self.tasks.state[tid.0];
        if state != TaskState::Runnable {
            return false;
        }
        let core = CoreId(c);
        self.tasks.state[tid.0] = TaskState::Running;
        self.tasks.last_dispatched[tid.0] = now;
        // Popped off this core's queue, so membership is already right.
        debug_assert_eq!(self.tasks.core[tid.0], core);
        self.tasks.core[tid.0] = core;
        if let Some(buf) = self.trace.as_mut() {
            buf.record(now, core, TraceEvent::Dispatch { task: tid.0 });
        }
        self.cores[c].current = Some(tid);
        self.current_mi[c] = self.tasks.mem_intensity[tid.0];
        self.cores[c].nr_switches += 1;
        self.cores[c].current_rate = self.compute_rate(core, tid);
        self.update_busy_flag(c, now);
        self.arm_boundary(c, now);
        true
    }

    /// [`SchedConfig::slice_for`], memoized (the config never changes after
    /// construction, and `nr_running` stays small).
    fn slice_for_cached(&mut self, nr: usize) -> SimDuration {
        if self.slice_cache.len() <= nr {
            let cfg = &self.cfg;
            let start = self.slice_cache.len();
            self.slice_cache
                .extend((start..=nr).map(|n| cfg.slice_for(n)));
        }
        self.slice_cache[nr]
    }

    /// Computes and schedules the running task's next boundary event.
    fn arm_boundary(&mut self, c: usize, now: SimTime) {
        let tid = self.cores[c].current.expect("arming idle core");
        let nr = self.cores[c].nr_running();
        let rate = self.cores[c].current_rate;
        let stall = self.tasks.pending_stall[tid.0];
        let activity_wall: Option<SimDuration> = match self.tasks.activity[tid.0] {
            Activity::Compute { remaining } => {
                debug_assert!(rate > 0.0, "dispatched on a zero-speed core");
                Some(stall + remaining.mul_f64(1.0 / rate))
            }
            Activity::Spin { .. } => None, // released externally
            Activity::SpinThenBlock { remaining_spin, .. } => Some(stall + remaining_spin),
            Activity::YieldLoop { .. } => {
                if self.cores[c].queue.is_empty() {
                    // A lone yielder degenerates to a spinner: sched_yield
                    // returns immediately with nobody to yield to.
                    None
                } else {
                    Some(self.cfg.yield_cost)
                }
            }
            Activity::Fresh
            | Activity::Blocked { .. }
            | Activity::Sleeping { .. }
            | Activity::Exited => unreachable!("dispatched unsettled task"),
        };
        let slice_wall: Option<SimDuration> = if nr > 1 {
            Some(self.slice_for_cached(nr))
        } else {
            None
        };
        let mut boundary = match (activity_wall, slice_wall) {
            (Some(a), Some(s)) => Some(a.min(s)),
            (Some(a), None) => Some(a),
            (None, Some(s)) => Some(s),
            (None, None) => None, // external events will reschedule us
        };
        // Bandwidth contention changes with what the *other* cores run;
        // rates are sampled at dispatch, so bandwidth-sensitive tasks
        // resample on a short tick to bound the staleness.
        if self.topo.models_bandwidth() && self.tasks.mem_intensity[tid.0] > 0.0 {
            let tick = SimDuration::from_millis(5);
            boundary = Some(boundary.map_or(tick, |b| b.min(tick)));
        }
        if let Some(b) = boundary {
            // Never arm a zero-delay boundary: settle() guarantees pending
            // work, but a fully-stalled zero slice could otherwise loop.
            let b = b.max(SimDuration::from_nanos(1));
            let slot = self.cores[c].slot;
            self.events
                .schedule_in_slot(slot, now + b, Ev::Core { core: c });
        }
    }

    /// On SMT machines a core going busy/idle changes its siblings' compute
    /// rates; re-arm them.
    fn notify_smt_change(&mut self, core: CoreId, now: SimTime) {
        if self.topo.smt_busy_factor() >= 1.0 {
            return;
        }
        for i in 0..self.smt_sibs[core.0].len() {
            let sib = self.smt_sibs[core.0][i];
            if self.cores[sib.0].current.is_some() {
                self.reschedule(sib, now);
            }
        }
    }

    /// Delivers set conditions: wakes blocked waiters and reschedules cores
    /// whose running task was spin/yield-waiting on a now-set condition.
    fn drain_conds(&mut self) {
        // Conditions drain strictly in set order; ones set while processing
        // (exit-notification side effects) append to the pending queue and
        // are picked up by the same loop. Waiters move through a reusable
        // scratch buffer so draining never allocates in steady state.
        while let Some(cond) = self.conds.pop_pending() {
            let mut waiters = std::mem::take(&mut self.scratch_waiters);
            self.conds.take_waiters_into(cond, &mut waiters);
            for &tid in waiters.iter() {
                match self.tasks.activity[tid.0] {
                    Activity::Blocked { cond: c2 } if c2 == cond => {
                        self.wake_task(tid);
                    }
                    Activity::Spin { cond: c2 }
                    | Activity::YieldLoop { cond: c2 }
                    | Activity::SpinThenBlock { cond: c2, .. }
                        // A running waiter advances right now. A queued
                        // waiter normally advances at its next dispatch,
                        // but its core may have parked its boundary (a
                        // degenerate all-yielders queue), so reschedule
                        // the core in both cases.
                        if c2 == cond && self.tasks.on_queue(tid.0) =>
                    {
                        let core = self.tasks.core[tid.0];
                        self.reschedule(core, self.now());
                    }
                    _ => {}
                }
            }
            waiters.clear();
            self.scratch_waiters = waiters;
        }
    }

    // ------------------------------------------------------------------
    // Tracing speed sampler (read-only w.r.t. scheduling state)
    // ------------------------------------------------------------------

    fn arm_sampler(&mut self, at: SimTime) {
        self.sampler_armed = true;
        self.events.schedule(at, Ev::TraceSample);
    }

    /// Resets the sampler's exec/busy baselines to "as of `now`" so the
    /// first window after (re-)arming measures only fresh progress.
    fn sync_sampler_baseline(&mut self, now: SimTime) {
        self.sampler_exec.clear();
        self.sampler_exec
            .extend((0..self.tasks.len()).map(|i| self.tasks.exec_total_at(i, now)));
        self.sampler_busy.clear();
        for c in 0..self.cores.len() {
            self.sampler_busy.push(self.core_busy_at(c, now));
        }
    }

    /// Core busy time including the in-flight stretch of the current task.
    fn core_busy_at(&self, c: usize, now: SimTime) -> SimDuration {
        let core = &self.cores[c];
        let mut busy = core.busy_total;
        if let Some(cur) = core.current {
            busy += now.saturating_since(self.tasks.last_dispatched[cur.0]);
        }
        busy
    }

    /// Emits one round of per-task speed samples and per-core utilization
    /// samples, then re-arms while any task is still live. Reads scheduler
    /// state but never mutates it, so sampling cannot perturb the run.
    fn handle_trace_sample(&mut self, now: SimTime) {
        self.sampler_armed = false;
        let Some(interval) = self.trace.as_ref().map(|b| b.config().sample_interval) else {
            return; // tracing turned off with a sample still in flight
        };
        let window = now.saturating_since(self.sampler_last);
        if !window.is_zero() {
            self.sampler_exec
                .resize(self.tasks.len(), SimDuration::ZERO);
            for i in 0..self.tasks.len() {
                let exec_now = self.tasks.exec_total_at(i, now);
                let delta = exec_now.saturating_sub(self.sampler_exec[i]);
                self.sampler_exec[i] = exec_now;
                if self.tasks.state[i] == TaskState::Exited && delta.is_zero() {
                    continue; // dead the whole window: no sample
                }
                let speed = delta / window;
                let core = self.tasks.core[i];
                if let Some(buf) = self.trace.as_mut() {
                    buf.record(
                        now,
                        core,
                        TraceEvent::SpeedSample {
                            task: Some(i),
                            speed,
                        },
                    );
                }
            }
            for c in 0..self.cores.len() {
                let busy_now = self.core_busy_at(c, now);
                let delta = busy_now.saturating_sub(self.sampler_busy[c]);
                self.sampler_busy[c] = busy_now;
                let util = delta / window;
                if let Some(buf) = self.trace.as_mut() {
                    buf.record(
                        now,
                        CoreId(c),
                        TraceEvent::SpeedSample {
                            task: None,
                            speed: util,
                        },
                    );
                }
            }
            self.sampler_last = now;
        }
        // Re-arm only while something is alive, so tracing never keeps an
        // otherwise-finished simulation from quiescing.
        if self.tasks.any_live() {
            self.arm_sampler(now + interval);
        }
    }

    // Per-task RNG storage. Kept out of `Task` construction hot paths.
    fn task_rng_take(&mut self, tid: TaskId) -> SimRng {
        self.task_rngs
            .get_mut(tid.0)
            .and_then(Option::take)
            .expect("task rng missing")
    }

    fn task_rng_store(&mut self, tid: TaskId, rng: SimRng) {
        if self.task_rngs.len() <= tid.0 {
            self.task_rngs.resize_with(tid.0 + 1, || None);
        }
        self.task_rngs[tid.0] = Some(rng);
    }
}
