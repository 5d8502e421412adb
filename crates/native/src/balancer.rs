//! The distributed balancing loop over real threads.
//!
//! Built entirely on the [`ProcSource`] abstraction, so the same loop runs
//! against the real `/proc` ([`RealProc`]) in production
//! and against the scripted [`MockProc`](crate::MockProc) in tests. The
//! loop is hardened against the failure modes a user-level balancer meets
//! in the wild:
//!
//! - **Churn**: threads that exit mid-scan ([`ProcError::Vanished`]) are
//!   forgotten immediately; new threads are adopted on the next scan.
//! - **Transient read failures** (torn stat lines, `EINTR`): bounded
//!   retry with exponential backoff ([`NativeConfig::max_read_retries`]).
//! - **Repeated failures**: a thread whose reads keep failing is
//!   *quarantined* — dropped from speed accounting for a cooldown — so one
//!   sick tid cannot stall the interval loop.
//! - **Permission failures** (`EPERM` from `sched_setaffinity`): counted
//!   toward quarantine, never retried in-place, never panic.
//! - **Graceful degradation**: a core with no measurable threads publishes
//!   "no data" (NaN) and drops out of the global-speed average instead of
//!   poisoning it with a stale or fabricated value.

use crate::error::ProcError;
use crate::source::{ProcSource, RealProc};
use crate::topo::NativeTopology;
use parking_lot::Mutex;
use speedbal_core::decision::{self, Block, Decision, Rules, View};
use speedbal_machine::{CoreId, DomainLevel};
use speedbal_sim::{SimDuration, SimRng, SimTime};
use speedbal_trace::{
    ActivationOutcome, MigrationReason, ProcFaultKind, ProcOp, TraceBuffer, TraceConfig, TraceEvent,
};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the native balancer (defaults = the paper's settings,
/// plus fault-tolerance knobs that default to mild production values).
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Balance interval `B` (100 ms in all the paper's experiments).
    pub interval: Duration,
    /// Pull threshold `T_s`.
    pub speed_threshold: f64,
    /// Cores involved in a migration are blocked for this many intervals.
    pub post_migration_block: u32,
    /// Keep migrations inside a NUMA node.
    pub block_numa: bool,
    /// Cores to manage; `None` = every online CPU.
    pub cores: Option<Vec<usize>>,
    /// Delay before first discovery ("a user tunable startup delay for the
    /// balancer to poll the /proc file system").
    pub startup_delay: Duration,
    /// Bounded retries for *transient* read failures (torn stat lines,
    /// `EINTR`); `Vanished`/`EPERM` are never retried.
    pub max_read_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Consecutive failed reads before a thread is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined thread is ignored before re-adoption is
    /// attempted.
    pub quarantine_cooldown: Duration,
}

impl Default for NativeConfig {
    fn default() -> Self {
        NativeConfig {
            interval: Duration::from_millis(100),
            speed_threshold: 0.9,
            post_migration_block: 2,
            block_numa: true,
            cores: None,
            startup_delay: Duration::from_millis(20),
            max_read_retries: 2,
            retry_backoff: Duration::from_millis(2),
            quarantine_after: 3,
            quarantine_cooldown: Duration::from_secs(1),
        }
    }
}

/// Counters published by a balancing run.
#[derive(Debug, Default)]
pub struct NativeStats {
    /// Balancer-thread activations (one per core per interval).
    pub activations: AtomicU64,
    /// Threads pulled between cores.
    pub migrations: AtomicU64,
    /// Distinct threads ever adopted.
    pub threads_seen: AtomicU64,
    /// Failed OS-facing operations (every attempt counts).
    pub proc_faults: AtomicU64,
    /// Transient failures that were retried with backoff.
    pub retries: AtomicU64,
    /// Threads quarantined after repeated read failures.
    pub quarantines: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
struct ThreadSample {
    /// Last observed cumulative CPU time.
    exec: Duration,
    /// Source-clock timestamp of that observation.
    at: Duration,
    core: usize,
    migrations: u64,
    /// Consecutive failed reads (reset on success).
    failures: u32,
}

/// Managed threads plus the quarantine ledger, under one lock.
#[derive(Debug, Default)]
struct ThreadTable {
    /// tid -> last measurement + current pinned core + migration count.
    live: HashMap<i32, ThreadSample>,
    /// tid -> source-clock time at which re-adoption may be attempted.
    quarantined: HashMap<i32, Duration>,
    /// Failure streaks for tids that are not (yet) adopted — e.g. EPERM
    /// during initial placement.
    adopt_failures: HashMap<i32, u32>,
    /// Round-robin placement cursor for newly adopted threads. (A
    /// dedicated cursor, not `live.len() + i`: with an even core count
    /// that sum keeps constant parity while both terms grow, landing
    /// every new thread on the same core.)
    next_slot: usize,
    /// Post-migration block of each managed core, by slot (source-clock
    /// nanoseconds).
    blocks: Vec<Block>,
}

struct Shared {
    threads: Mutex<ThreadTable>,
    /// Published per-core speed, as f64 bits (index = position in cores).
    /// NaN = "no data": the core abstains from the global average.
    published: Vec<AtomicU64>,
    stats: NativeStats,
    /// Event recorder using the simulator's schema, timestamped with
    /// source-clock nanoseconds. `None` = tracing off.
    trace: Option<Mutex<TraceBuffer>>,
}

impl Shared {
    /// State for `n` managed cores: no data, no blocks, no threads.
    fn new(n: usize, trace: Option<TraceBuffer>) -> Shared {
        Shared {
            threads: Mutex::new(ThreadTable {
                blocks: vec![Block::default(); n],
                ..ThreadTable::default()
            }),
            published: (0..n).map(|_| AtomicU64::new(f64::NAN.to_bits())).collect(),
            stats: NativeStats::default(),
            trace: trace.map(Mutex::new),
        }
    }

    fn trace_event(&self, now: Duration, cpu: usize, event: TraceEvent) {
        if let Some(buf) = &self.trace {
            let now = SimTime::from_nanos(now.as_nanos() as u64);
            buf.lock().record(now, CoreId(cpu), event);
        }
    }

    fn trace_spawn(&self, now: Duration, tid: i32) {
        if let Some(buf) = &self.trace {
            let now = SimTime::from_nanos(now.as_nanos() as u64);
            buf.lock()
                .task_spawned(tid as usize, &format!("tid{tid}"), now);
        }
    }

    fn publish(&self, slot: usize, speed: f64) {
        self.published[slot].store(speed.to_bits(), Ordering::Relaxed);
    }

    fn speed_of(&self, slot: usize) -> f64 {
        f64::from_bits(self.published[slot].load(Ordering::Relaxed))
    }

    // One parameter per TraceEvent::ProcFault field, deliberately.
    #[allow(clippy::too_many_arguments)]
    fn fault(
        &self,
        now: Duration,
        cpu: usize,
        tid: Option<i32>,
        op: ProcOp,
        err: &ProcError,
        attempt: u32,
        retrying: bool,
    ) {
        self.stats.proc_faults.fetch_add(1, Ordering::Relaxed);
        if retrying {
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
        let kind = match err {
            ProcError::Vanished => ProcFaultKind::Vanished,
            ProcError::PermissionDenied => ProcFaultKind::PermissionDenied,
            ProcError::Malformed(_) => ProcFaultKind::Malformed,
            ProcError::Io(_) => ProcFaultKind::Io,
        };
        self.trace_event(
            now,
            cpu,
            TraceEvent::ProcFault {
                task: tid.map(|t| t as usize),
                op,
                kind,
                attempt,
                retrying,
            },
        );
    }
}

/// A user-level speed balancer attached to one process.
pub struct NativeSpeedBalancer {
    pid: i32,
    cfg: NativeConfig,
    topo: NativeTopology,
    src: Arc<dyn ProcSource>,
}

/// Deregisters a balancer worker from the source's clock on every exit
/// path (normal loop exit, early return, panic).
struct WorkerGuard<'a>(&'a dyn ProcSource);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.worker_stopped();
    }
}

impl NativeSpeedBalancer {
    /// Attaches to a running process through the real `/proc`, with the
    /// machine discovered from sysfs.
    pub fn attach(pid: i32, cfg: NativeConfig) -> io::Result<NativeSpeedBalancer> {
        let topo = NativeTopology::discover()?;
        NativeSpeedBalancer::attach_with_source(pid, cfg, Arc::new(RealProc::new()), topo)
            .map_err(io::Error::from)
    }

    /// Attaches through an arbitrary [`ProcSource`] — the seam that makes
    /// the whole balancing loop testable against
    /// [`MockProc`](crate::MockProc) with scripted fault injection.
    pub fn attach_with_source(
        pid: i32,
        cfg: NativeConfig,
        src: Arc<dyn ProcSource>,
        topo: NativeTopology,
    ) -> Result<NativeSpeedBalancer, ProcError> {
        if !src.process_alive(pid) {
            return Err(ProcError::Vanished);
        }
        Ok(NativeSpeedBalancer {
            pid,
            cfg,
            topo,
            src,
        })
    }

    fn managed_cores(&self) -> Vec<usize> {
        match &self.cfg.cores {
            Some(cs) if !cs.is_empty() => cs.clone(),
            _ => self.topo.cpus.clone(),
        }
    }

    /// Runs one OS-facing operation with bounded retry-with-backoff on
    /// transient failures. Records every failed attempt as a fault event.
    fn retrying<T>(
        &self,
        shared: &Shared,
        cpu: usize,
        tid: Option<i32>,
        op: ProcOp,
        call: impl Fn() -> Result<T, ProcError>,
    ) -> Result<T, ProcError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match call() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let retrying = e.is_transient() && attempt <= self.cfg.max_read_retries;
                    shared.fault(self.src.now(), cpu, tid, op, &e, attempt, retrying);
                    if !retrying {
                        return Err(e);
                    }
                    self.src
                        .sleep(self.cfg.retry_backoff * (1 << (attempt - 1).min(8)));
                }
            }
        }
    }

    /// Counts one more failed operation against `tid` — in its live
    /// sample, or in the adoption streak table before it is adopted — and
    /// quarantines it (dropping it from accounting) once the streak reaches
    /// `quarantine_after`. Caller holds the table lock.
    fn note_failure(
        &self,
        shared: &Shared,
        table: &mut ThreadTable,
        now: Duration,
        cpu: usize,
        tid: i32,
    ) {
        let failures = match table.live.get_mut(&tid) {
            Some(s) => &mut s.failures,
            None => table.adopt_failures.entry(tid).or_insert(0),
        };
        *failures += 1;
        let failures = *failures;
        if failures < self.cfg.quarantine_after {
            return;
        }
        table.live.remove(&tid);
        table.adopt_failures.remove(&tid);
        table
            .quarantined
            .insert(tid, now + self.cfg.quarantine_cooldown);
        shared.stats.quarantines.fetch_add(1, Ordering::Relaxed);
        let task = tid as usize;
        shared.trace_event(now, cpu, TraceEvent::Quarantined { task, failures });
    }

    /// Discovers (new) threads of the target and pins them round-robin —
    /// initial distribution "in such a way as to distribute the threads in
    /// round-robin fashion across the available cores". Returns how many
    /// threads were newly adopted. Tolerates churn: vanished tids are
    /// pruned, quarantined tids are skipped until their cooldown expires,
    /// and EPERM placements count toward quarantine instead of looping.
    fn adopt_threads(&self, shared: &Shared, cores: &[usize]) -> usize {
        let scan_cpu = cores[0];
        let Ok(tids) = self.retrying(shared, scan_cpu, None, ProcOp::ListThreads, || {
            self.src.list_tids(self.pid)
        }) else {
            return 0;
        };
        let now = self.src.now();
        // Prune and pick placements under the lock; the pinning and the
        // initial reads happen outside it, because the retry helpers sleep
        // and sleeping under the table lock would stall the other
        // balancer loops (fatally so on a lockstep virtual clock).
        let candidates: Vec<(i32, usize)> = {
            let mut table = shared.threads.lock();
            // Forget exited threads and expired or vanished quarantine
            // entries.
            table.live.retain(|tid, _| tids.contains(tid));
            table
                .quarantined
                .retain(|tid, until| tids.contains(tid) && now < *until);
            table.adopt_failures.retain(|tid, _| tids.contains(tid));
            let mut picked = Vec::new();
            for tid in tids.iter() {
                if table.live.contains_key(tid) || table.quarantined.contains_key(tid) {
                    continue;
                }
                let core = cores[table.next_slot % cores.len()];
                table.next_slot += 1;
                picked.push((*tid, core));
            }
            picked
        };
        let mut adopted = 0;
        for (tid, core) in candidates {
            if let Err(e) = self.src.pin_to_cpu(tid, core) {
                shared.fault(now, scan_cpu, Some(tid), ProcOp::SetAffinity, &e, 1, false);
                // A race with thread exit is not a failure streak.
                if !matches!(e, ProcError::Vanished) {
                    let mut table = shared.threads.lock();
                    self.note_failure(shared, &mut table, now, scan_cpu, tid);
                }
                continue;
            }
            // Transient read failures here are retried by the helper; a
            // final failure just starts the sample at zero (the first
            // measurement window will correct it).
            let exec = self
                .retrying(shared, scan_cpu, Some(tid), ProcOp::ReadCpuTime, || {
                    self.src.thread_cpu_time(self.pid, tid)
                })
                .map(|t| t.total())
                .unwrap_or_default();
            let at = self.src.now();
            let mut table = shared.threads.lock();
            if table.live.contains_key(&tid) || table.quarantined.contains_key(&tid) {
                continue;
            }
            table.live.insert(
                tid,
                ThreadSample {
                    exec,
                    at,
                    core,
                    migrations: 0,
                    failures: 0,
                },
            );
            table.adopt_failures.remove(&tid);
            adopted += 1;
            shared.stats.threads_seen.fetch_add(1, Ordering::Relaxed);
            shared.trace_spawn(at, tid);
        }
        adopted
    }

    /// One activation of the balancer for `slot` (= index into `cores`):
    /// measure, publish, maybe pull one thread.
    fn balance_once(&self, shared: &Shared, cores: &[usize], slot: usize, jitter: SimDuration) {
        shared.stats.activations.fetch_add(1, Ordering::Relaxed);
        let local_cpu = cores[slot];
        let activation = |local: f64, global: f64, outcome: ActivationOutcome| {
            shared.trace_event(
                self.src.now(),
                local_cpu,
                TraceEvent::BalancerActivation {
                    policy: "SPEED",
                    local,
                    global,
                    outcome,
                    jitter,
                },
            );
        };

        // Steps 1-2: measure local thread speeds over the elapsed window.
        // Reads happen *outside* the table lock — the retry helper sleeps
        // on transient failures, and sleeping under the lock would stall
        // the other balancer loops (fatally so on a lockstep virtual
        // clock). Churn between the snapshot and the apply phase is fine:
        // a tid that disappeared from the table in between is skipped.
        let tids: Vec<i32> = shared
            .threads
            .lock()
            .live
            .iter()
            .filter(|(_, s)| s.core == local_cpu)
            .map(|(tid, _)| *tid)
            .collect();
        let reads: Vec<(i32, Result<Duration, ProcError>)> = tids
            .into_iter()
            .map(|tid| {
                let read = || self.src.thread_cpu_time(self.pid, tid);
                let read = self.retrying(shared, local_cpu, Some(tid), ProcOp::ReadCpuTime, read);
                (tid, read.map(|t| t.total()))
            })
            .collect();
        let now = self.src.now();
        let (mut sum, mut n) = (0.0, 0u32);
        {
            let mut table = shared.threads.lock();
            table.blocks[slot].tick();
            for (tid, read) in reads {
                let total = match read {
                    Ok(total) => total,
                    // Churn: threads that exited mid-scan are simply
                    // forgotten — the next adopt pass re-lists the
                    // survivors.
                    Err(ProcError::Vanished) => {
                        table.live.remove(&tid);
                        continue;
                    }
                    Err(_) => {
                        self.note_failure(shared, &mut table, now, local_cpu, tid);
                        continue;
                    }
                };
                let Some(sample) = table.live.get_mut(&tid) else {
                    continue;
                };
                if sample.core != local_cpu {
                    continue; // pulled away while we were reading
                }
                sample.failures = 0;
                let wall = now.saturating_sub(sample.at);
                if wall < self.cfg.interval / 2 {
                    continue; // stale window (e.g. just migrated here)
                }
                let exec_delta = total.saturating_sub(sample.exec);
                let speed = (exec_delta.as_secs_f64() / wall.as_secs_f64()).min(1.5);
                sample.exec = total;
                sample.at = now;
                sum += speed;
                n += 1;
                let task = Some(tid as usize);
                shared.trace_event(now, local_cpu, TraceEvent::SpeedSample { task, speed });
            }
        }
        // Graceful degradation: no measurable threads -> 0/0 = NaN, "no
        // data"; this core abstains from the global average rather than
        // reporting a fabricated speed.
        let s_local = sum / f64::from(n);
        shared.publish(slot, s_local);
        if s_local.is_finite() {
            shared.trace_event(
                now,
                local_cpu,
                TraceEvent::SpeedSample {
                    task: None,
                    speed: s_local,
                },
            );
        }

        // Steps 3-4 and the victim choice. The table lock is held from the
        // scan to the re-pin, so the victim's threads cannot change under
        // the decision.
        let mut table = shared.threads.lock();
        let tab = &*table;
        let view = View {
            len: cores.len(),
            speed: |k: usize| shared.speed_of(k),
            block: |k: usize| tab.blocks[k],
            crosses_numa: |k: usize| self.topo.crosses_numa(cores[k], local_cpu),
            // No cache tiers natively: every activation may cross caches.
            crosses_cache: |_: usize| false,
            threads: |k: usize| {
                tab.live
                    .iter()
                    .filter(move |(_, s)| s.core == cores[k])
                    .map(|(tid, s)| (s.migrations, *tid))
            },
        };
        let rules = Rules {
            speed_threshold: self.cfg.speed_threshold,
            block_numa: self.cfg.block_numa,
            cross_cache: true,
        };
        let verdict = decision::decide(&rules, &view, slot, s_local, now.as_nanos() as u64);
        let s_global = verdict.global;
        let Decision::Pull {
            slot: victim_slot,
            speed: best_s_k,
            thread: tid,
        } = verdict.decision
        else {
            drop(table);
            activation(s_local, s_global, verdict.decision.outcome());
            return;
        };
        let victim_cpu = cores[victim_slot];
        if let Err(e) = self.src.pin_to_cpu(tid, local_cpu) {
            shared.fault(now, local_cpu, Some(tid), ProcOp::SetAffinity, &e, 1, false);
            if matches!(e, ProcError::Vanished) {
                table.live.remove(&tid);
            } else {
                self.note_failure(shared, &mut table, now, local_cpu, tid);
            }
            drop(table);
            activation(s_local, s_global, ActivationOutcome::NoCandidate);
            return;
        }
        if let Some(s) = table.live.get_mut(&tid) {
            s.core = local_cpu;
            s.migrations += 1;
            s.at = now;
            if let Ok(t) = self.src.thread_cpu_time(self.pid, tid) {
                s.exec = t.total();
            }
        }
        let block = Block::after_migration(
            now.as_nanos() as u64,
            self.cfg.interval.as_nanos() as u64,
            self.cfg.post_migration_block,
        );
        table.blocks[slot] = block;
        table.blocks[victim_slot] = block;
        drop(table);
        shared.stats.migrations.fetch_add(1, Ordering::Relaxed);
        shared.trace_event(
            now,
            local_cpu,
            TraceEvent::Migrate {
                task: tid as usize,
                from: CoreId(victim_cpu),
                to: CoreId(local_cpu),
                tier: if self.topo.crosses_numa(victim_cpu, local_cpu) {
                    DomainLevel::Numa
                } else {
                    DomainLevel::Cache
                },
                reason: MigrationReason::SpeedPull {
                    local_speed: s_local,
                    remote_speed: best_s_k,
                    global_speed: s_global,
                },
            },
        );
        activation(s_local, s_global, ActivationOutcome::Pulled);
    }

    /// Runs the balancer (one thread per managed core, as in the paper)
    /// until the target exits or `stop` is set. Returns the final stats.
    pub fn run(&self, stop: &AtomicBool) -> NativeStats {
        self.run_inner(stop, None).0
    }

    /// Like [`run`](Self::run), also recording an event trace in the
    /// simulator's schema — speed samples, balancer activations,
    /// migrations, faults and quarantines from the source's measurements,
    /// timestamped with source-clock nanoseconds.
    pub fn run_traced(&self, stop: &AtomicBool, cfg: TraceConfig) -> (NativeStats, TraceBuffer) {
        let (stats, trace) = self.run_inner(stop, Some(cfg));
        (stats, trace.expect("tracing was requested"))
    }

    fn run_inner(
        &self,
        stop: &AtomicBool,
        trace: Option<TraceConfig>,
    ) -> (NativeStats, Option<TraceBuffer>) {
        let cores = self.managed_cores();
        let trace = trace.map(|cfg| {
            let mut buf = TraceBuffer::with_config(cfg);
            buf.set_n_cores(cores.iter().max().map_or(0, |m| m + 1));
            buf
        });
        let shared = Shared::new(cores.len(), trace);
        self.src.sleep(self.cfg.startup_delay);
        self.adopt_threads(&shared, &cores);

        // Register every worker with the source's clock *before* any of
        // them starts: on a lockstep virtual clock this guarantees no
        // balancer loop can advance time until all of them are running
        // (see [`ProcSource::worker_started`]).
        for _ in 0..cores.len() {
            self.src.worker_started();
        }
        std::thread::scope(|scope| {
            for slot in 0..cores.len() {
                let shared = &shared;
                let cores = &cores;
                scope.spawn(move || {
                    let _worker = WorkerGuard(self.src.as_ref());
                    // The balancer thread lives on its local core. Real
                    // sources pin the loop thread itself; best-effort (a
                    // mock, or EPERM, just leaves it floating).
                    // SAFETY: trivial syscall.
                    let self_tid = unsafe { libc::gettid() };
                    let _ = self.src.pin_to_cpu(self_tid, cores[slot]);
                    // The jitter only decorrelates balancers; its seed need
                    // not be reproducible.
                    let mut rng = SimRng::new(slot as u64 ^ self_tid as u64);
                    let interval = SimDuration::from_nanos(self.cfg.interval.as_nanos() as u64);
                    let slice = Duration::from_millis(5);
                    while !stop.load(Ordering::Relaxed) && self.src.process_alive(self.pid) {
                        let jitter = rng.jitter(interval);
                        // Sleep in short slices so shutdown is prompt.
                        let deadline = self.src.now()
                            + self.cfg.interval
                            + Duration::from_nanos(jitter.as_nanos());
                        loop {
                            let now = self.src.now();
                            if now >= deadline {
                                break;
                            }
                            if stop.load(Ordering::Relaxed) || !self.src.process_alive(self.pid) {
                                return;
                            }
                            self.src.sleep(slice.min(deadline - now));
                        }
                        if slot == 0 {
                            // Dynamic parallelism: adopt newly spawned
                            // threads (a single scanner suffices).
                            self.adopt_threads(shared, cores);
                        }
                        self.balance_once(shared, cores, slot, jitter);
                    }
                });
            }
        });
        let trace = shared.trace.map(|m| {
            let mut buf = m.into_inner();
            buf.flush();
            buf
        });
        (shared.stats, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{Fault, GlobalFault, MockProc};
    use std::sync::Arc;

    /// A balancer over a fresh mock with one thread per entry of
    /// `placement` (tids 1, 2, ..., pinned to the given CPUs and adopted at
    /// time zero) and the shared state its loops would run on. No worker
    /// thread starts: tests drive `balance_once` by hand, advancing the
    /// mock's virtual clock with `sleep`.
    fn prepared(
        n_cpus: usize,
        placement: &[usize],
    ) -> (Arc<MockProc>, NativeSpeedBalancer, Shared, Vec<usize>) {
        let mut builder = MockProc::builder(900, n_cpus);
        for tid in 1..=placement.len() {
            builder = builder.thread(tid as i32);
        }
        let mock = Arc::new(builder.build());
        let topo = mock.topology();
        let bal = NativeSpeedBalancer::attach_with_source(
            900,
            NativeConfig::default(),
            mock.clone(),
            topo,
        )
        .expect("attach");
        let shared = Shared::new(n_cpus, None);
        let mut table = shared.threads.lock();
        for (i, &cpu) in placement.iter().enumerate() {
            let tid = i as i32 + 1;
            mock.pin_to_cpu(tid, cpu).expect("pin");
            table.live.insert(
                tid,
                ThreadSample {
                    exec: Duration::ZERO,
                    at: Duration::ZERO,
                    core: cpu,
                    migrations: 0,
                    failures: 0,
                },
            );
        }
        drop(table);
        (mock, bal, shared, (0..n_cpus).collect())
    }

    fn migrations(shared: &Shared) -> u64 {
        shared.stats.migrations.load(Ordering::Relaxed)
    }

    #[test]
    fn tied_victims_rotate_with_the_puller() {
        // Slots 1, 3 and 4 publish exactly 0.5. Slot 2 measures its own
        // thread at full speed and pulls; the scan starts just past the
        // puller, so the victim is slot 3. A scan from slot 0 picks slot 1
        // for every puller and starves slot 4.
        let (mock, bal, shared, cores) = prepared(5, &[0, 1, 2, 3, 4]);
        for (slot, speed) in [1.0, 0.5, 1.0, 0.5, 0.5].into_iter().enumerate() {
            shared.publish(slot, speed);
        }
        mock.sleep(Duration::from_millis(100));
        bal.balance_once(&shared, &cores, 2, SimDuration::ZERO);
        assert_eq!(migrations(&shared), 1);
        assert_eq!(mock.thread_cpu(4), Some(2), "slot 3's thread is pulled");
        assert_eq!(mock.thread_cpu(2), Some(1), "slot 1 keeps its thread");
    }

    #[test]
    fn block_lasts_two_own_activations_past_its_nominal_time() {
        // CPU 0 runs one thread, CPU 1 three, CPU 2 one; interval 100 ms,
        // block 2. At 100 ms slot 0 pulls from slot 1, blocking both.
        let (mock, bal, shared, cores) = prepared(3, &[0, 1, 1, 1, 2]);
        shared.publish(1, 1.0 / 3.0);
        shared.publish(2, 1.0);
        mock.sleep(Duration::from_millis(100));
        bal.balance_once(&shared, &cores, 0, SimDuration::ZERO);
        assert_eq!(migrations(&shared), 1);
        assert_eq!(mock.thread_cpu(2), Some(0));
        // 350 ms: the nominal 200 ms block has passed, but slot 1 has not
        // run a single activation since; slot 2 must not pull from it.
        mock.sleep(Duration::from_millis(250));
        bal.balance_once(&shared, &cores, 2, SimDuration::ZERO);
        assert_eq!(migrations(&shared), 1, "slot 1 is still blocked");
        // One own activation of slot 1 is not enough ...
        bal.balance_once(&shared, &cores, 1, SimDuration::ZERO);
        mock.sleep(Duration::from_millis(50));
        bal.balance_once(&shared, &cores, 2, SimDuration::ZERO);
        assert_eq!(migrations(&shared), 1, "one own activation is not enough");
        // ... the second one lifts the block.
        mock.sleep(Duration::from_millis(50));
        bal.balance_once(&shared, &cores, 1, SimDuration::ZERO);
        mock.sleep(Duration::from_millis(50));
        bal.balance_once(&shared, &cores, 2, SimDuration::ZERO);
        assert_eq!(migrations(&shared), 2);
        assert_eq!(mock.thread_cpu(3), Some(2), "least-migrated, lowest tid");
    }

    #[test]
    fn attach_rejects_dead_pid() {
        assert!(NativeSpeedBalancer::attach(-1, NativeConfig::default()).is_err());
        let mock = Arc::new(MockProc::builder(7, 2).thread(1).build());
        let topo = mock.topology();
        assert!(matches!(
            NativeSpeedBalancer::attach_with_source(99, NativeConfig::default(), mock, topo),
            Err(ProcError::Vanished)
        ));
    }

    /// Attaches a balancer to a mock and runs it to completion (the mock
    /// process must be scripted to exit, which ends the run in virtual
    /// time — no wall-clock dependence).
    fn run_to_exit(mock: Arc<MockProc>, cfg: NativeConfig) -> NativeStats {
        let topo = mock.topology();
        let bal = NativeSpeedBalancer::attach_with_source(mock.pid(), cfg, mock.clone(), topo)
            .expect("attach");
        let stop = AtomicBool::new(false);
        bal.run(&stop)
    }

    fn quick_cfg() -> NativeConfig {
        NativeConfig {
            interval: Duration::from_millis(50),
            startup_delay: Duration::from_millis(10),
            ..NativeConfig::default()
        }
    }

    // Deterministic replacement for the old `#[ignore]`d wall-clock test
    // `balances_a_real_spinner_briefly`: 3 always-runnable threads on 2
    // cores is the paper's N mod M != 0 case — the balancer must adopt all
    // three and keep pulling from the slow core.
    #[test]
    fn balances_a_spinner_briefly() {
        let mock = Arc::new(
            MockProc::builder(100, 2)
                .thread(101)
                .thread(102)
                .thread(103)
                .process_exits_at(Duration::from_secs(3))
                .build(),
        );
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert!(
            stats.activations.load(Ordering::Relaxed) > 0,
            "balancer threads must have activated"
        );
        assert_eq!(
            stats.threads_seen.load(Ordering::Relaxed),
            3,
            "must have adopted all three spinner threads"
        );
        assert!(
            stats.migrations.load(Ordering::Relaxed) > 0,
            "3 threads on 2 cores must trigger speed pulls"
        );
        assert_eq!(stats.quarantines.load(Ordering::Relaxed), 0);
    }

    // Deterministic replacement for the old `#[ignore]`d
    // `run_returns_when_target_exits`: the run loop must notice the
    // scripted process death and return (in virtual time).
    #[test]
    fn run_returns_when_target_exits() {
        let mock = Arc::new(
            MockProc::builder(200, 2)
                .thread(201)
                .process_exits_at(Duration::from_millis(400))
                .build(),
        );
        let cfg = NativeConfig {
            interval: Duration::from_millis(30),
            startup_delay: Duration::ZERO,
            ..NativeConfig::default()
        };
        let _ = run_to_exit(mock.clone(), cfg);
        // run() returned — and only because the virtual clock crossed the
        // scripted death, never because of wall-clock luck.
        assert!(mock.virtual_now() >= Duration::from_millis(400));
        assert!(!mock.process_alive(200));
    }

    // Deterministic replacement for the old `#[ignore]`d
    // `traced_run_records_samples`.
    #[test]
    fn traced_run_records_samples() {
        let mock = Arc::new(
            MockProc::builder(300, 2)
                .thread(301)
                .thread(302)
                .thread(303)
                .process_exits_at(Duration::from_secs(2))
                .build(),
        );
        let topo = mock.topology();
        let bal =
            NativeSpeedBalancer::attach_with_source(300, quick_cfg(), mock, topo).expect("attach");
        let stop = AtomicBool::new(false);
        let (stats, trace) = bal.run_traced(&stop, TraceConfig::default());
        assert!(stats.activations.load(Ordering::Relaxed) > 0);
        assert!(trace.n_tasks() >= 1, "spinner adopted into the trace");
        assert!(
            trace.counters().balancer_activations > 0,
            "activations recorded"
        );
        assert!(trace.counters().speed_samples > 0, "speeds recorded");
    }

    #[test]
    fn transient_read_failures_are_retried_not_fatal() {
        let mock = Arc::new(
            MockProc::builder(400, 2)
                .thread(401)
                .thread(402)
                .process_exits_at(Duration::from_secs(1))
                .build(),
        );
        mock.inject(401, Fault::IoReads(2));
        mock.inject(402, Fault::MalformedReads(1));
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert_eq!(stats.threads_seen.load(Ordering::Relaxed), 2);
        assert!(stats.retries.load(Ordering::Relaxed) >= 1, "faults retried");
        assert_eq!(
            stats.quarantines.load(Ordering::Relaxed),
            0,
            "bounded retry must absorb short transients"
        );
    }

    #[test]
    fn persistent_read_failures_quarantine_the_thread() {
        let mock = Arc::new(
            MockProc::builder(500, 2)
                .thread(501)
                .thread(502)
                .process_exits_at(Duration::from_secs(3))
                .build(),
        );
        // 501's stat file is permanently torn: every read fails even after
        // retries, so its failure streak must cross quarantine_after.
        mock.inject(501, Fault::MalformedReads(u32::MAX));
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert!(
            stats.quarantines.load(Ordering::Relaxed) >= 1,
            "sick thread must be quarantined"
        );
        // The healthy thread keeps the run alive and measurable.
        assert!(stats.activations.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn eperm_affinity_degrades_gracefully() {
        let mock = Arc::new(
            MockProc::builder(600, 2)
                .thread(601)
                .thread(602)
                .thread(603)
                .process_exits_at(Duration::from_secs(2))
                .build(),
        );
        // Initial placement EPERMs a few times, then the balancer's own
        // loop threads also race the budget; it must neither panic nor
        // spin on the failing call.
        mock.inject_global(GlobalFault::EpermAllPins(4));
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert!(stats.proc_faults.load(Ordering::Relaxed) >= 1);
        assert!(
            stats.threads_seen.load(Ordering::Relaxed) >= 1,
            "later adopt passes succeed once EPERM script drains"
        );
    }

    #[test]
    fn fully_eperm_target_never_panics() {
        let mock = Arc::new(
            MockProc::builder(700, 2)
                .thread(701)
                .thread(702)
                .process_exits_at(Duration::from_secs(2))
                .build(),
        );
        mock.inject(701, Fault::EpermPinsForever);
        mock.inject(702, Fault::EpermPinsForever);
        let stats = run_to_exit(mock.clone(), quick_cfg());
        // Unpinnable threads end up quarantined; the run completes.
        assert!(stats.quarantines.load(Ordering::Relaxed) >= 1);
        assert_eq!(stats.threads_seen.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn vanished_core_drops_out_of_global_average() {
        // Two threads on a 2-core machine; both exit mid-run. Their cores
        // must publish NaN and abstain rather than poisoning the average —
        // observable as: no migrations after the exits, no panics, and the
        // run still terminates on process death.
        let mock = Arc::new(
            MockProc::builder(800, 2)
                .thread_spanning(801, Duration::ZERO, Some(Duration::from_millis(400)))
                .thread_spanning(802, Duration::ZERO, Some(Duration::from_millis(400)))
                .process_exits_at(Duration::from_secs(2))
                .build(),
        );
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert_eq!(stats.threads_seen.load(Ordering::Relaxed), 2);
        assert!(mock.virtual_now() >= Duration::from_secs(2));
        // No thread exists after 400ms, so no pull can ever fire off NaN
        // data; the loop must still have kept activating until death.
        assert!(stats.activations.load(Ordering::Relaxed) > 0);
    }
}
