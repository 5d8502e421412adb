//! The trace sink: a bounded ring of [`TraceRecord`]s plus aggregates
//! (counters, migration histograms, per-task time-in-state, per-core and
//! per-task speed statistics) maintained incrementally at record time, so
//! summaries survive even when the ring has wrapped.

use crate::compact;
use crate::event::{MigrationReason, ProcFaultKind, RequestDropReason, TraceEvent, TraceRecord};
use speedbal_machine::{CoreId, DomainLevel};
use speedbal_sim::{SimDuration, SimTime};
use std::fmt;

/// Sink tunables.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Maximum records retained; older records are dropped (and counted)
    /// once the ring is full. Aggregates keep covering dropped records.
    pub capacity: usize,
    /// Period of the built-in per-task / per-core speed sampler the
    /// simulator arms while tracing (the paper samples /proc every 100 ms).
    pub sample_interval: SimDuration,
    /// Fraction of occupancy intervals (a `Dispatch` and the `Desched`
    /// that closes it, kept or dropped together) and of speed samples
    /// retained in the ring. Everything else (migrations, barriers,
    /// faults, ...) is always kept, and aggregates always cover
    /// sampled-out records, so summaries stay exact. `1.0` (the default)
    /// disables sampling. The decision is a deterministic function of
    /// `sample_seed` and the record sequence, so two identical runs
    /// sample identically.
    pub sample_rate: f64,
    /// Seed for the deterministic sampling decision stream.
    pub sample_seed: u64,
    /// Same-instant ordering-policy tag of the traced run, rendered in
    /// the summary header. `None` (the default, and every FIFO run) adds
    /// nothing — committed FIFO summaries stay byte-identical.
    pub ordering_tag: Option<String>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 20,
            sample_interval: SimDuration::from_millis(100),
            sample_rate: 1.0,
            sample_seed: 0,
            ordering_tag: None,
        }
    }
}

/// Counts maintained for every recorded event (never dropped).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCounters {
    /// Context switches in.
    pub dispatches: u64,
    /// Context switches out.
    pub descheds: u64,
    /// Forced reschedules by a higher-priority wakeup.
    pub preemptions: u64,
    /// Blocked tasks becoming runnable.
    pub wakes: u64,
    /// Tasks leaving the runnable set.
    pub sleeps: u64,
    /// Task exits.
    pub exits: u64,
    /// Cross-core moves (all reasons).
    pub migrations: u64,
    /// Histogram over [`DomainLevel::ALL`] (SMT, cache, socket, NUMA,
    /// system) of the topological distance of each migration.
    pub migrations_by_tier: [u64; DomainLevel::ALL.len()],
    /// Histogram over [`MigrationReason::ALL_LABELS`].
    pub migrations_by_reason: [u64; MigrationReason::ALL_LABELS.len()],
    /// Per-thread and per-core speed samples.
    pub speed_samples: u64,
    /// Balancer decision points (all outcomes).
    pub balancer_activations: u64,
    /// Threads reaching a barrier.
    pub barrier_arrivals: u64,
    /// Barrier episodes released.
    pub barrier_releases: u64,
    /// Failed OS-facing operations of the native balancer (every attempt
    /// counts, including ones that were retried).
    pub proc_faults: u64,
    /// Histogram over [`ProcFaultKind::ALL_LABELS`].
    pub proc_faults_by_kind: [u64; ProcFaultKind::ALL_LABELS.len()],
    /// Faults that were followed by a bounded backoff retry.
    pub proc_retries: u64,
    /// Threads quarantined after repeated read failures.
    pub quarantines: u64,
    /// Open-loop server requests admitted to the shared queue.
    pub request_arrivals: u64,
    /// Server subtask dispatches (queue pulls by workers).
    pub request_dispatches: u64,
    /// Server requests completed (all subtasks done).
    pub request_completions: u64,
    /// Server requests dropped instead of served (all reasons).
    pub request_drops: u64,
    /// Histogram over [`RequestDropReason::ALL_LABELS`].
    pub request_drops_by_reason: [u64; RequestDropReason::ALL_LABELS.len()],
    /// Frequency-ratio switches (DVFS steps / thermal-throttle
    /// transitions) applied from pre-generated schedules.
    pub freq_steps: u64,
}

/// Cumulative time a task spent in each scheduler state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateTimes {
    /// Time on a CPU.
    pub running: SimDuration,
    /// Time waiting on a run queue.
    pub runnable: SimDuration,
    /// Time blocked on a condition or timed sleep.
    pub blocked: SimDuration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LifeState {
    Running,
    Runnable,
    Blocked,
    Exited,
}

/// Streaming min/max/mean/variance (Welford) over a series of samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeriesStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl SeriesStats {
    /// Folds one sample into the running statistics.
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample (0 if none).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (0 if none).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

fn tier_index(level: DomainLevel) -> usize {
    DomainLevel::ALL
        .iter()
        .position(|l| *l == level)
        .expect("DomainLevel::ALL is exhaustive")
}

/// Capacity of the staging area `record` appends to: large enough to
/// amortize the aggregate machinery across a whole batch, small enough
/// (~12 kB of POD records) to stay resident in L1.
const STAGE_CAP: usize = 256;

/// The event sink. `record` is a plain append of one POD [`TraceRecord`]
/// into a fixed-size staging buffer; [`TraceBuffer::flush`] folds staged
/// records into the ring and aggregates (counters, time-in-state, speed
/// series) in one tight batch, so the expensive per-event bookkeeping runs
/// with hot branch predictors and instruction cache instead of interleaved
/// with the simulator's event loop. Readers see exact aggregates: every
/// accessor asserts the buffer has been flushed, and the simulator flushes
/// whenever a buffer is handed out.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    cfg: TraceConfig,
    /// Records appended by `record` but not yet folded into the ring and
    /// aggregates. Order is preserved by `flush`, so the observable state
    /// after a flush is byte-identical to per-record application.
    staged: Vec<TraceRecord>,
    /// Retained records, varint-encoded oldest-first (see [`compact`]):
    /// the ring is the sink's bandwidth hot spot, and the compact form
    /// cuts its traffic roughly tenfold versus storing [`TraceRecord`]s.
    /// `ring[ring_head..]` holds `ring_count` records; the dead prefix is
    /// compacted away once it outweighs the live bytes.
    ring: Vec<u8>,
    /// Byte offset of the oldest retained record within `ring`.
    ring_head: usize,
    /// Number of retained records.
    ring_count: usize,
    /// Timestamp base (ns) for decoding the record at `ring_head`.
    head_time_ns: u64,
    /// Timestamp (ns) of the newest encoded record (delta base for the
    /// next append).
    tail_time_ns: u64,
    /// Interned `BalancerActivation` policy labels (referenced from the
    /// ring by varint id).
    policies: Vec<&'static str>,
    dropped: u64,
    /// High-volume records withheld from the ring by `sample_rate`.
    sampled_out: u64,
    /// xorshift64 state behind the sampling decision stream.
    sample_state: u64,
    /// Per core, the sampling decision of the occupancy interval open
    /// there: `(task, keep)` from its `Dispatch`, taken by the `Desched`
    /// that closes it.
    sample_open: Vec<Option<(usize, bool)>>,
    counters: TraceCounters,
    n_cores: usize,
    task_names: Vec<String>,
    /// Per-task (state, since) for time-in-state accounting.
    life: Vec<Option<(LifeState, SimTime)>>,
    time_in_state: Vec<StateTimes>,
    /// Core-level speed/utilization samples (`SpeedSample { task: None }`).
    core_speed: Vec<SeriesStats>,
    /// Task-level speed samples (`SpeedSample { task: Some(_) }`).
    task_speed: Vec<SeriesStats>,
    /// End-to-end request latencies in milliseconds (`RequestComplete`).
    request_latency: SeriesStats,
    /// Request queueing delays in milliseconds (`RequestDispatch`).
    request_wait: SeriesStats,
    first_time: Option<SimTime>,
    last_time: SimTime,
}

impl TraceBuffer {
    /// An empty buffer with the default configuration.
    pub fn new() -> TraceBuffer {
        Self::with_config(TraceConfig::default())
    }

    /// An empty buffer with explicit tunables.
    pub fn with_config(cfg: TraceConfig) -> TraceBuffer {
        // SplitMix64 scramble so nearby seeds give unrelated streams; the
        // state must be non-zero for xorshift.
        let mut z = cfg.sample_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let sample_state = (z ^ (z >> 31)) | 1;
        TraceBuffer {
            cfg,
            sample_state,
            staged: Vec::with_capacity(STAGE_CAP),
            ..TraceBuffer::default()
        }
    }

    /// The sink's tunables.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Tells the sink how many cores the machine has (drives exporter
    /// track metadata).
    pub fn set_n_cores(&mut self, n: usize) {
        self.n_cores = self.n_cores.max(n);
        if self.core_speed.len() < n {
            self.core_speed.resize_with(n, SeriesStats::default);
        }
    }

    /// Highest core count this sink knows about.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Registers a task's name and starts its time-in-state clock (new
    /// tasks are runnable).
    pub fn task_spawned(&mut self, task: usize, name: &str, now: SimTime) {
        self.ensure_task(task);
        self.task_names[task] = name.to_string();
        self.life[task] = Some((LifeState::Runnable, now));
    }

    /// The registered name, or a synthetic `t<N>` fallback, borrowed
    /// from the buffer: neither case allocates.
    pub fn task_name(&self, task: usize) -> TaskName<'_> {
        match self.task_names.get(task) {
            Some(n) if !n.is_empty() => TaskName::Registered(n),
            _ => TaskName::Fallback(task),
        }
    }

    fn ensure_task(&mut self, task: usize) {
        if self.task_names.len() <= task {
            self.task_names.resize(task + 1, String::new());
            self.life.resize(task + 1, None);
            self.time_in_state
                .resize_with(task + 1, StateTimes::default);
            self.task_speed.resize_with(task + 1, SeriesStats::default);
        }
    }

    fn transition(&mut self, task: usize, to: LifeState, now: SimTime) {
        self.ensure_task(task);
        let prev = self.life[task];
        if let Some((state, since)) = prev {
            let spent = now.saturating_since(since);
            let bucket = &mut self.time_in_state[task];
            match state {
                LifeState::Running => bucket.running += spent,
                LifeState::Runnable => bucket.runnable += spent,
                LifeState::Blocked => bucket.blocked += spent,
                LifeState::Exited => {}
            }
        }
        self.life[task] = Some((to, now));
    }

    /// Records one event: a single bounds check and one POD store into the
    /// staging buffer. Aggregates and the ring catch up at the next
    /// [`TraceBuffer::flush`] (triggered here only when the stage fills).
    #[inline]
    pub fn record(&mut self, time: SimTime, core: CoreId, event: TraceEvent) {
        if self.staged.len() >= STAGE_CAP {
            self.flush();
        }
        self.staged.push(TraceRecord { time, core, event });
    }

    /// Folds every staged record into the ring and aggregates, in record
    /// order. Idempotent; readers must flush before consuming (the
    /// simulator does this whenever it hands a buffer out).
    pub fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        // Detach the stage so `apply` can borrow the rest of self; handing
        // the (still-allocated) vec back afterwards keeps steady-state
        // flushes allocation-free.
        let mut staged = std::mem::take(&mut self.staged);
        for rec in staged.drain(..) {
            self.apply(rec.time, rec.core, rec.event);
        }
        self.staged = staged;
    }

    /// Readers must observe exact aggregates; catch unflushed reads loudly
    /// in debug builds.
    #[inline]
    fn assert_flushed(&self) {
        debug_assert!(
            self.staged.is_empty(),
            "TraceBuffer read while {} records are staged: call flush() first",
            self.staged.len()
        );
    }

    /// Applies one record to the ring and every aggregate (the former
    /// per-record `record` body, now run batchwise from `flush`).
    fn apply(&mut self, time: SimTime, core: CoreId, event: TraceEvent) {
        self.first_time.get_or_insert(time);
        self.last_time = self.last_time.max(time);
        self.set_n_cores(core.0 + 1);
        match &event {
            TraceEvent::Dispatch { task } => {
                self.counters.dispatches += 1;
                self.transition(*task, LifeState::Running, time);
            }
            TraceEvent::Desched { task, .. } => {
                self.counters.descheds += 1;
                self.transition(*task, LifeState::Runnable, time);
            }
            TraceEvent::Preempt { .. } => self.counters.preemptions += 1,
            TraceEvent::Wake { task } => {
                self.counters.wakes += 1;
                self.transition(*task, LifeState::Runnable, time);
            }
            TraceEvent::Sleep { task } => {
                self.counters.sleeps += 1;
                self.transition(*task, LifeState::Blocked, time);
            }
            TraceEvent::Exit { task } => {
                self.counters.exits += 1;
                self.transition(*task, LifeState::Exited, time);
            }
            TraceEvent::Migrate { tier, reason, .. } => {
                self.counters.migrations += 1;
                self.counters.migrations_by_tier[tier_index(*tier)] += 1;
                self.counters.migrations_by_reason[reason.index()] += 1;
            }
            TraceEvent::SpeedSample { task, speed } => {
                self.counters.speed_samples += 1;
                match task {
                    Some(t) => {
                        self.ensure_task(*t);
                        self.task_speed[*t].push(*speed);
                    }
                    None => {
                        self.core_speed[core.0].push(*speed);
                    }
                }
            }
            TraceEvent::BalancerActivation { .. } => self.counters.balancer_activations += 1,
            TraceEvent::BarrierArrive { .. } => self.counters.barrier_arrivals += 1,
            TraceEvent::BarrierRelease { .. } => self.counters.barrier_releases += 1,
            TraceEvent::ProcFault { kind, retrying, .. } => {
                self.counters.proc_faults += 1;
                self.counters.proc_faults_by_kind[kind.index()] += 1;
                if *retrying {
                    self.counters.proc_retries += 1;
                }
            }
            TraceEvent::Quarantined { .. } => self.counters.quarantines += 1,
            TraceEvent::RequestArrival { .. } => self.counters.request_arrivals += 1,
            TraceEvent::RequestDispatch { wait, .. } => {
                self.counters.request_dispatches += 1;
                self.request_wait.push(wait.as_millis_f64());
            }
            TraceEvent::RequestComplete { latency, .. } => {
                self.counters.request_completions += 1;
                self.request_latency.push(latency.as_millis_f64());
            }
            TraceEvent::RequestDrop { reason, .. } => {
                self.counters.request_drops += 1;
                self.counters.request_drops_by_reason[reason.index()] += 1;
            }
            TraceEvent::FreqStep { .. } => self.counters.freq_steps += 1,
        }
        if self.cfg.sample_rate < 1.0 && !self.sample_keeps(core, &event) {
            self.sampled_out += 1;
            return;
        }
        if self.ring_count >= self.cfg.capacity {
            self.evict_front();
            self.dropped += 1;
        }
        compact::encode(
            &mut self.ring,
            self.tail_time_ns,
            time,
            core,
            &event,
            &mut self.policies,
        );
        self.tail_time_ns = time.as_nanos();
        self.ring_count += 1;
    }

    /// Drops the oldest retained record (no-op on an empty ring, matching
    /// `VecDeque::pop_front` on `None`), sliding the encoded bytes left
    /// once the dead prefix outweighs the live ones so the buffer stays
    /// bounded without per-eviction copying.
    fn evict_front(&mut self) {
        if self.ring_count == 0 {
            return;
        }
        let mut pos = self.ring_head;
        let mut t = self.head_time_ns;
        let _ = compact::decode(&self.ring, &mut pos, &mut t, &self.policies);
        self.ring_head = pos;
        self.head_time_ns = t;
        self.ring_count -= 1;
        if self.ring_head >= 1 << 16 && self.ring_head >= self.ring.len() - self.ring_head {
            self.ring.drain(..self.ring_head);
            self.ring_head = 0;
        }
    }

    /// Whether a sampled trace keeps this record in the ring. Context
    /// switches are sampled per occupancy interval: a `Dispatch` draws,
    /// and the `Desched` that closes it on the same core takes the same
    /// decision, so the exporter never joins the ends of two different
    /// intervals. A `Desched` that closes no `Dispatch` on its core bounds
    /// no interval and is dropped. Speed samples draw one by one; every
    /// other record is kept.
    fn sample_keeps(&mut self, core: CoreId, event: &TraceEvent) -> bool {
        match *event {
            TraceEvent::Dispatch { task } => {
                let keep = self.sample_draw();
                if self.sample_open.len() <= core.0 {
                    self.sample_open.resize(core.0 + 1, None);
                }
                self.sample_open[core.0] = Some((task, keep));
                keep
            }
            TraceEvent::Desched { task, .. } => match self.sample_open.get(core.0) {
                Some(&Some((open, keep))) if open == task => {
                    self.sample_open[core.0] = None;
                    keep
                }
                _ => false,
            },
            TraceEvent::SpeedSample { .. } => self.sample_draw(),
            _ => true,
        }
    }

    /// One draw of the deterministic sampling stream: keep with
    /// probability `sample_rate`.
    fn sample_draw(&mut self) -> bool {
        let mut x = self.sample_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sample_state = x;
        // 53 uniform mantissa bits → [0, 1).
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        u < self.cfg.sample_rate
    }

    /// Retained records, oldest first (decoded from the compact ring, so
    /// items are owned).
    pub fn records(&self) -> Records<'_> {
        self.assert_flushed();
        Records {
            ring: &self.ring,
            policies: &self.policies,
            pos: self.ring_head,
            time_ns: self.head_time_ns,
            remaining: self.ring_count,
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.assert_flushed();
        self.ring_count
    }

    /// True iff no records are retained.
    pub fn is_empty(&self) -> bool {
        self.assert_flushed();
        self.ring_count == 0
    }

    /// Records evicted from the ring (aggregates still cover them).
    pub fn dropped(&self) -> u64 {
        self.assert_flushed();
        self.dropped
    }

    /// High-volume records withheld from the ring by
    /// [`TraceConfig::sample_rate`] (aggregates still cover them).
    pub fn sampled_out(&self) -> u64 {
        self.assert_flushed();
        self.sampled_out
    }

    /// Aggregate counters (cover dropped records too).
    pub fn counters(&self) -> &TraceCounters {
        self.assert_flushed();
        &self.counters
    }

    /// Time-in-state aggregate for a task (zeroes if never seen).
    pub fn time_in_state(&self, task: usize) -> StateTimes {
        self.assert_flushed();
        self.time_in_state.get(task).copied().unwrap_or_default()
    }

    /// Number of tasks ever seen by the sink.
    pub fn n_tasks(&self) -> usize {
        self.assert_flushed();
        self.task_names.len()
    }

    /// Speed/utilization series statistics for a core.
    pub fn core_speed_stats(&self, core: CoreId) -> SeriesStats {
        self.assert_flushed();
        self.core_speed.get(core.0).copied().unwrap_or_default()
    }

    /// Speed series statistics for a task.
    pub fn task_speed_stats(&self, task: usize) -> SeriesStats {
        self.assert_flushed();
        self.task_speed.get(task).copied().unwrap_or_default()
    }

    /// End-to-end request latency statistics (milliseconds), covering
    /// every `RequestComplete` recorded, including dropped ring records.
    pub fn request_latency_stats(&self) -> SeriesStats {
        self.assert_flushed();
        self.request_latency
    }

    /// Request queueing-delay statistics (milliseconds), one sample per
    /// subtask dispatch.
    pub fn request_wait_stats(&self) -> SeriesStats {
        self.assert_flushed();
        self.request_wait
    }

    /// First recorded timestamp, if any event was recorded.
    pub fn start_time(&self) -> Option<SimTime> {
        self.assert_flushed();
        self.first_time
    }

    /// Latest recorded timestamp.
    pub fn end_time(&self) -> SimTime {
        self.assert_flushed();
        self.last_time
    }
}

/// A task's display name, borrowed from its [`TraceBuffer`]. Returned by
/// [`TraceBuffer::task_name`]; displays as the name itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskName<'a> {
    /// The non-empty name registered by [`TraceBuffer::task_spawned`].
    Registered(&'a str),
    /// No name registered for this task index: displays as `t<N>`.
    Fallback(usize),
}

impl fmt::Display for TaskName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskName::Registered(name) => f.write_str(name),
            TaskName::Fallback(task) => write!(f, "t{task}"),
        }
    }
}

/// Iterator over retained records, oldest first, decoding them out of the
/// compact ring. Returned by [`TraceBuffer::records`].
#[derive(Debug, Clone)]
pub struct Records<'a> {
    ring: &'a [u8],
    policies: &'a [&'static str],
    pos: usize,
    time_ns: u64,
    remaining: usize,
}

impl Iterator for Records<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(compact::decode(
            self.ring,
            &mut self.pos,
            &mut self.time_ns,
            self.policies,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Records<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let mut buf = TraceBuffer::with_config(TraceConfig {
            capacity: 4,
            ..TraceConfig::default()
        });
        for i in 0..10 {
            buf.record(t(i), CoreId(0), TraceEvent::Wake { task: 0 });
        }
        buf.flush();
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 6);
        assert_eq!(buf.counters().wakes, 10, "aggregates cover drops");
        let first_retained = buf.records().next().unwrap().time;
        assert_eq!(first_retained, t(6));
    }

    #[test]
    fn time_in_state_accumulates() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "a", t(0));
        buf.record(t(2), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(
            t(7),
            CoreId(0),
            TraceEvent::Desched {
                task: 0,
                ran: SimDuration::from_millis(5),
            },
        );
        buf.record(t(7), CoreId(0), TraceEvent::Sleep { task: 0 });
        buf.record(t(10), CoreId(0), TraceEvent::Wake { task: 0 });
        buf.record(t(10), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(t(11), CoreId(0), TraceEvent::Exit { task: 0 });
        buf.flush();
        let s = buf.time_in_state(0);
        assert_eq!(s.running, SimDuration::from_millis(6));
        assert_eq!(s.runnable, SimDuration::from_millis(2));
        assert_eq!(s.blocked, SimDuration::from_millis(3));
    }

    #[test]
    fn histograms_fill() {
        let mut buf = TraceBuffer::new();
        buf.record(
            t(1),
            CoreId(1),
            TraceEvent::Migrate {
                task: 0,
                from: CoreId(0),
                to: CoreId(1),
                tier: DomainLevel::Cache,
                reason: MigrationReason::NewIdle,
            },
        );
        buf.record(
            t(2),
            CoreId(2),
            TraceEvent::Migrate {
                task: 1,
                from: CoreId(0),
                to: CoreId(2),
                tier: DomainLevel::Numa,
                reason: MigrationReason::SpeedPull {
                    local_speed: 1.0,
                    remote_speed: 0.5,
                    global_speed: 0.75,
                },
            },
        );
        buf.flush();
        let c = buf.counters();
        assert_eq!(c.migrations, 2);
        assert_eq!(c.migrations_by_tier[tier_index(DomainLevel::Cache)], 1);
        assert_eq!(c.migrations_by_tier[tier_index(DomainLevel::Numa)], 1);
        assert_eq!(c.migrations_by_reason[MigrationReason::NewIdle.index()], 1);
        assert_eq!(c.migrations_by_reason[0], 1, "speed-pull is index 0");
    }

    #[test]
    fn series_stats_are_sane() {
        let mut s = SeriesStats::default();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.stddev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn fault_counters_accumulate() {
        use crate::event::{ProcFaultKind, ProcOp};
        let mut buf = TraceBuffer::new();
        buf.record(
            t(1),
            CoreId(0),
            TraceEvent::ProcFault {
                task: Some(42),
                op: ProcOp::ReadCpuTime,
                kind: ProcFaultKind::Malformed,
                attempt: 1,
                retrying: true,
            },
        );
        buf.record(
            t(2),
            CoreId(0),
            TraceEvent::ProcFault {
                task: Some(42),
                op: ProcOp::SetAffinity,
                kind: ProcFaultKind::PermissionDenied,
                attempt: 1,
                retrying: false,
            },
        );
        buf.record(
            t(3),
            CoreId(0),
            TraceEvent::Quarantined {
                task: 42,
                failures: 3,
            },
        );
        buf.flush();
        let c = buf.counters();
        assert_eq!(c.proc_faults, 2);
        assert_eq!(c.proc_retries, 1);
        assert_eq!(c.quarantines, 1);
        assert_eq!(c.proc_faults_by_kind[ProcFaultKind::Malformed.index()], 1);
        assert_eq!(
            c.proc_faults_by_kind[ProcFaultKind::PermissionDenied.index()],
            1
        );
    }

    fn sampled_buffer(rate: f64, seed: u64) -> TraceBuffer {
        let mut buf = TraceBuffer::with_config(TraceConfig {
            sample_rate: rate,
            sample_seed: seed,
            ..TraceConfig::default()
        });
        for i in 0..200 {
            buf.record(t(i), CoreId(0), TraceEvent::Dispatch { task: 0 });
            buf.record(
                t(i),
                CoreId(0),
                TraceEvent::SpeedSample {
                    task: None,
                    speed: 0.5,
                },
            );
            // Never sampled: migrations and the like are always retained.
            buf.record(
                t(i),
                CoreId(0),
                TraceEvent::Migrate {
                    task: 0,
                    from: CoreId(0),
                    to: CoreId(1),
                    tier: DomainLevel::Cache,
                    reason: MigrationReason::NewIdle,
                },
            );
        }
        buf.flush();
        buf
    }

    #[test]
    fn sampling_drops_only_high_volume_records_and_keeps_aggregates() {
        let full = sampled_buffer(1.0, 7);
        let half = sampled_buffer(0.5, 7);
        assert_eq!(full.sampled_out(), 0);
        assert!(half.sampled_out() > 50, "~200 of 400 eligible should drop");
        assert!(half.len() < full.len());
        // Aggregates are exact either way.
        assert_eq!(full.counters(), half.counters());
        assert_eq!(half.counters().dispatches, 200);
        assert_eq!(half.counters().speed_samples, 200);
        // Low-volume records are all retained.
        let migrates = half
            .records()
            .filter(|r| matches!(r.event, TraceEvent::Migrate { .. }))
            .count();
        assert_eq!(migrates, 200);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = sampled_buffer(0.3, 42);
        let b = sampled_buffer(0.3, 42);
        let times = |buf: &TraceBuffer| -> Vec<(SimTime, bool)> {
            buf.records()
                .map(|r| (r.time, matches!(r.event, TraceEvent::Dispatch { .. })))
                .collect()
        };
        assert_eq!(times(&a), times(&b));
        let c = sampled_buffer(0.3, 43);
        assert_ne!(times(&a), times(&c), "different seed, different sample");
    }

    #[test]
    fn sampling_rate_zero_keeps_no_eligible_records() {
        let buf = sampled_buffer(0.0, 1);
        assert_eq!(buf.sampled_out(), 400);
        assert!(buf
            .records()
            .all(|r| matches!(r.event, TraceEvent::Migrate { .. })));
    }

    #[test]
    fn sampling_keeps_or_drops_whole_occupancy_intervals() {
        let mut buf = TraceBuffer::with_config(TraceConfig {
            sample_rate: 0.5,
            sample_seed: 3,
            ..TraceConfig::default()
        });
        // Two cores with interleaved intervals of alternating tasks.
        for i in 0..400 {
            let core = CoreId((i % 2) as usize);
            let task = (i % 4) as usize;
            buf.record(t(10 * i), core, TraceEvent::Dispatch { task });
            buf.record(
                t(10 * i + 5),
                core,
                TraceEvent::Desched {
                    task,
                    ran: SimDuration::from_micros(5),
                },
            );
        }
        // Closes nothing on core 0, so it is dropped.
        buf.record(
            t(9_999),
            CoreId(0),
            TraceEvent::Desched {
                task: 9,
                ran: SimDuration::ZERO,
            },
        );
        buf.flush();
        let mut open: Vec<Option<usize>> = vec![None; 2];
        let mut intervals = 0;
        for r in buf.records() {
            match r.event {
                TraceEvent::Dispatch { task } => {
                    assert_eq!(open[r.core.0], None, "kept Dispatch left unclosed");
                    open[r.core.0] = Some(task);
                }
                TraceEvent::Desched { task, .. } => {
                    assert_eq!(
                        open[r.core.0].take(),
                        Some(task),
                        "Desched without its Dispatch"
                    );
                    intervals += 1;
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(open, vec![None, None]);
        assert!((150..=250).contains(&intervals), "{intervals} of 400 kept");
        assert_eq!(buf.sampled_out(), 2 * (400 - intervals) + 1);
        assert_eq!(buf.counters().descheds, 401);
    }

    #[test]
    fn request_counters_and_series_accumulate() {
        use crate::event::RequestDropReason;
        let mut buf = TraceBuffer::new();
        buf.record(
            t(1),
            CoreId(0),
            TraceEvent::RequestArrival {
                request: 0,
                arrival: t(1),
                queued: 1,
            },
        );
        buf.record(
            t(2),
            CoreId(0),
            TraceEvent::RequestDispatch {
                request: 0,
                subtask: 0,
                wait: SimDuration::from_millis(1),
            },
        );
        buf.record(
            t(5),
            CoreId(0),
            TraceEvent::RequestComplete {
                request: 0,
                latency: SimDuration::from_millis(4),
            },
        );
        buf.record(
            t(6),
            CoreId(1),
            TraceEvent::RequestDrop {
                request: 1,
                reason: RequestDropReason::QueueFull,
            },
        );
        buf.flush();
        let c = buf.counters();
        assert_eq!(c.request_arrivals, 1);
        assert_eq!(c.request_dispatches, 1);
        assert_eq!(c.request_completions, 1);
        assert_eq!(c.request_drops, 1);
        assert_eq!(
            c.request_drops_by_reason[RequestDropReason::QueueFull.index()],
            1
        );
        assert_eq!(buf.request_latency_stats().count(), 1);
        assert!((buf.request_latency_stats().mean() - 4.0).abs() < 1e-12);
        assert!((buf.request_wait_stats().mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn task_names_fall_back() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(1, "worker", t(0));
        assert_eq!(buf.task_name(1), TaskName::Registered("worker"));
        assert_eq!(buf.task_name(1).to_string(), "worker");
        assert_eq!(buf.task_name(7), TaskName::Fallback(7));
        assert_eq!(buf.task_name(7).to_string(), "t7");
    }
}
