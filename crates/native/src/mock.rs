//! A deterministic in-memory `/proc`: the fault-injection backend.
//!
//! [`MockProc`] implements [`ProcSource`] over a scripted model of one
//! process: threads spawn and exit at virtual timestamps, CPU time accrues
//! as if each core were shared fairly among the threads pinned to it, and
//! every operation can be made to fail on schedule — `ESRCH`-style
//! vanishing mid-scan, `EPERM` on `sched_setaffinity`, malformed `stat`
//! content, transient I/O errors. The clock is *virtual*: [`ProcSource::sleep`]
//! advances it instead of blocking, so a full multi-second balancing run
//! with churn completes in microseconds of wall time and never depends on
//! machine load, core count, or procfs permissions. When balancer worker
//! threads are registered ([`ProcSource::worker_started`]), sleepers
//! advance the clock in *lockstep* — the clock only moves to the
//! earliest pending wake deadline once every registered worker is
//! asleep — so concurrent balancer loops interleave deterministically
//! enough to assert on balancing decisions.
//!
//! The CPU model is deliberately the paper's own: a thread's *speed* is
//! the fraction of a core it gets, so `k` threads pinned to one core each
//! accrue `1/k` seconds of CPU per virtual second. That is exactly the
//! imbalance signal the speed balancer equalizes, which lets the
//! previously machine-dependent behavioral tests assert real balancing
//! decisions deterministically.

use crate::error::ProcError;
use crate::proc::ThreadTimes;
use crate::source::ProcSource;
use crate::topo::NativeTopology;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::Duration;

/// A scripted per-thread fault (armed via [`MockProc::inject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The next `n` CPU-time reads of this thread fail with
    /// [`ProcError::Vanished`] while the tid stays listed — the classic
    /// "exited between `readdir` and `open`" race.
    VanishReads(u32),
    /// The next `n` CPU-time reads return malformed-stat errors
    /// (truncated/torn line).
    MalformedReads(u32),
    /// The next `n` CPU-time reads fail with a transient I/O error.
    IoReads(u32),
    /// The next `n` `sched_setaffinity` calls on this thread fail with
    /// [`ProcError::PermissionDenied`].
    EpermPins(u32),
    /// Every `sched_setaffinity` call on this thread fails with
    /// [`ProcError::PermissionDenied`], forever (a target thread owned by
    /// another user).
    EpermPinsForever,
}

/// A scripted process-wide fault (armed via [`MockProc::inject_global`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalFault {
    /// The next `n` [`ProcSource::list_tids`] calls fail transiently.
    ListIoErrors(u32),
    /// The next `n` `sched_setaffinity` calls on *any* thread fail with
    /// [`ProcError::PermissionDenied`].
    EpermAllPins(u32),
}

#[derive(Debug, Clone)]
struct MockThread {
    spawn_at: Duration,
    exit_at: Option<Duration>,
    exec: Duration,
    cpu: usize,
    vanish_reads: u32,
    malformed_reads: u32,
    io_reads: u32,
    eperm_pins: u32,
    eperm_forever: bool,
}

impl MockThread {
    fn alive_at(&self, now: Duration) -> bool {
        self.spawn_at <= now && self.exit_at.is_none_or(|e| now < e)
    }
}

#[derive(Debug)]
struct MockState {
    pid: i32,
    n_cpus: usize,
    process_exit_at: Option<Duration>,
    threads: BTreeMap<i32, MockThread>,
    list_io_errors: u32,
    eperm_all_pins: u32,
    now: Duration,
}

impl MockState {
    fn process_alive_at(&self, now: Duration) -> bool {
        self.process_exit_at.is_none_or(|e| now < e)
    }

    /// Advances the virtual clock to `now + d`, accruing CPU time segment
    /// by segment between spawn/exit boundaries. Each core is shared
    /// fairly: a thread pinned alone runs at speed 1, two sharing a core
    /// run at 1/2, and so on.
    fn advance(&mut self, d: Duration) {
        let target = self.now + d;
        while self.now < target {
            let mut next = target;
            for t in self.threads.values() {
                if t.spawn_at > self.now && t.spawn_at < next {
                    next = t.spawn_at;
                }
                if let Some(e) = t.exit_at {
                    if e > self.now && e < next {
                        next = e;
                    }
                }
            }
            if let Some(e) = self.process_exit_at {
                if e > self.now && e < next {
                    next = e;
                }
            }
            let seg = next - self.now;
            if self.process_alive_at(self.now) {
                let mut per_cpu = vec![0u32; self.n_cpus];
                let at = self.now;
                for t in self.threads.values() {
                    if t.alive_at(at) {
                        per_cpu[t.cpu.min(self.n_cpus - 1)] += 1;
                    }
                }
                for t in self.threads.values_mut() {
                    if t.alive_at(at) {
                        let share = per_cpu[t.cpu.min(self.n_cpus - 1)].max(1);
                        t.exec += seg / share;
                    }
                }
            }
            self.now = next;
        }
    }
}

/// Deterministic in-memory [`ProcSource`] modelling one multi-threaded
/// process with scripted churn and fault injection. Built with
/// [`MockProc::builder`]; safe to share (`Arc`) with a running balancer
/// and mutate concurrently through the `inject`/`spawn_thread`/
/// `exit_thread` methods.
pub struct MockProc {
    state: Mutex<MockState>,
    coord: SleepCoord,
}

/// Lockstep virtual-time coordinator (see [`ProcSource::worker_started`]).
///
/// With zero registered workers, `sleep` advances the clock directly
/// (single-threaded setup and plain unit tests). With workers registered,
/// `sleep` becomes a rendezvous: each sleeper posts its wake deadline, and
/// only the holder of the *earliest* deadline advances the clock — and
/// only once every registered worker is asleep. A worker that is busy
/// computing therefore freezes virtual time for everyone, which makes the
/// interleaving of concurrent balancer loops independent of real thread
/// scheduling: no loop can burn through seconds of virtual time while a
/// sibling is descheduled.
#[derive(Default)]
struct SleepCoord {
    inner: StdMutex<CoordState>,
    cv: Condvar,
}

#[derive(Default)]
struct CoordState {
    /// Registered balancer workers (via `worker_started`/`worker_stopped`).
    workers: usize,
    /// Monotone token source; breaks deadline ties deterministically.
    next_token: u64,
    /// Currently sleeping threads: (token, virtual wake deadline).
    sleepers: Vec<(u64, Duration)>,
}

/// Builder for [`MockProc`] scenarios.
#[derive(Debug)]
pub struct MockProcBuilder {
    state: MockState,
}

impl MockProc {
    /// Starts describing a process `pid` on a machine with `n_cpus` CPUs.
    pub fn builder(pid: i32, n_cpus: usize) -> MockProcBuilder {
        MockProcBuilder {
            state: MockState {
                pid,
                n_cpus: n_cpus.max(1),
                process_exit_at: None,
                threads: BTreeMap::new(),
                list_io_errors: 0,
                eperm_all_pins: 0,
                now: Duration::ZERO,
            },
        }
    }

    /// The matching synthetic topology (uniform, single NUMA node) for
    /// attaching a balancer to this mock.
    pub fn topology(&self) -> NativeTopology {
        NativeTopology::synthetic(self.state.lock().n_cpus)
    }

    /// The pid this mock models.
    pub fn pid(&self) -> i32 {
        self.state.lock().pid
    }

    /// Arms a per-thread fault script.
    pub fn inject(&self, tid: i32, fault: Fault) {
        let mut s = self.state.lock();
        let Some(t) = s.threads.get_mut(&tid) else {
            return;
        };
        match fault {
            Fault::VanishReads(n) => t.vanish_reads += n,
            Fault::MalformedReads(n) => t.malformed_reads += n,
            Fault::IoReads(n) => t.io_reads += n,
            Fault::EpermPins(n) => t.eperm_pins += n,
            Fault::EpermPinsForever => t.eperm_forever = true,
        }
    }

    /// Arms a process-wide fault script.
    pub fn inject_global(&self, fault: GlobalFault) {
        let mut s = self.state.lock();
        match fault {
            GlobalFault::ListIoErrors(n) => s.list_io_errors += n,
            GlobalFault::EpermAllPins(n) => s.eperm_all_pins += n,
        }
    }

    /// Spawns a new thread *now* (churn between balance intervals). It
    /// starts on CPU 0, like a freshly forked thread before placement.
    pub fn spawn_thread(&self, tid: i32) {
        let mut s = self.state.lock();
        let now = s.now;
        s.threads.entry(tid).or_insert(MockThread {
            spawn_at: now,
            exit_at: None,
            exec: Duration::ZERO,
            cpu: 0,
            vanish_reads: 0,
            malformed_reads: 0,
            io_reads: 0,
            eperm_pins: 0,
            eperm_forever: false,
        });
    }

    /// Makes a thread exit *now*. Its procfs entries disappear from the
    /// next call onward.
    pub fn exit_thread(&self, tid: i32) {
        let mut s = self.state.lock();
        let now = s.now;
        if let Some(t) = s.threads.get_mut(&tid) {
            if t.exit_at.is_none_or(|e| e > now) {
                t.exit_at = Some(now);
            }
        }
    }

    /// Cumulative CPU time a thread has accrued (tombstones included), for
    /// asserting monotone speed accounting in tests.
    pub fn thread_exec(&self, tid: i32) -> Option<Duration> {
        self.state.lock().threads.get(&tid).map(|t| t.exec)
    }

    /// The CPU a thread is currently pinned to.
    pub fn thread_cpu(&self, tid: i32) -> Option<usize> {
        self.state.lock().threads.get(&tid).map(|t| t.cpu)
    }

    /// Current virtual time.
    pub fn virtual_now(&self) -> Duration {
        self.state.lock().now
    }

    /// Workers currently registered with the lockstep clock (see
    /// [`ProcSource::worker_started`]). Lets a test thread that joins the
    /// rendezvous wait until a balancer's own workers have registered.
    pub fn registered_workers(&self) -> usize {
        self.coord
            .inner
            .lock()
            .expect("sleep coordinator poisoned")
            .workers
    }
}

impl MockProcBuilder {
    /// Adds a thread alive from time zero that never exits on its own.
    pub fn thread(self, tid: i32) -> Self {
        self.thread_spanning(tid, Duration::ZERO, None)
    }

    /// Adds a thread with a scripted lifetime.
    pub fn thread_spanning(
        mut self,
        tid: i32,
        spawn_at: Duration,
        exit_at: Option<Duration>,
    ) -> Self {
        self.state.threads.insert(
            tid,
            MockThread {
                spawn_at,
                exit_at,
                exec: Duration::ZERO,
                cpu: 0,
                vanish_reads: 0,
                malformed_reads: 0,
                io_reads: 0,
                eperm_pins: 0,
                eperm_forever: false,
            },
        );
        self
    }

    /// Scripts the whole process to exit at a virtual timestamp.
    pub fn process_exits_at(mut self, at: Duration) -> Self {
        self.state.process_exit_at = Some(at);
        self
    }

    /// Finishes the script.
    pub fn build(self) -> MockProc {
        MockProc {
            state: Mutex::new(self.state),
            coord: SleepCoord::default(),
        }
    }
}

impl ProcSource for MockProc {
    fn list_tids(&self, pid: i32) -> Result<Vec<i32>, ProcError> {
        let mut s = self.state.lock();
        if s.list_io_errors > 0 {
            s.list_io_errors -= 1;
            return Err(ProcError::Io(io::ErrorKind::Interrupted));
        }
        if pid != s.pid || !s.process_alive_at(s.now) {
            return Err(ProcError::Vanished);
        }
        let now = s.now;
        Ok(s.threads
            .iter()
            .filter(|(_, t)| t.alive_at(now))
            .map(|(tid, _)| *tid)
            .collect())
    }

    fn thread_cpu_time(&self, pid: i32, tid: i32) -> Result<ThreadTimes, ProcError> {
        let mut s = self.state.lock();
        if pid != s.pid || !s.process_alive_at(s.now) {
            return Err(ProcError::Vanished);
        }
        let now = s.now;
        let Some(t) = s.threads.get_mut(&tid) else {
            return Err(ProcError::Vanished);
        };
        if !t.alive_at(now) {
            return Err(ProcError::Vanished);
        }
        if t.vanish_reads > 0 {
            t.vanish_reads -= 1;
            return Err(ProcError::Vanished);
        }
        if t.malformed_reads > 0 {
            t.malformed_reads -= 1;
            return Err(ProcError::Malformed("scripted torn stat read".into()));
        }
        if t.io_reads > 0 {
            t.io_reads -= 1;
            return Err(ProcError::Io(io::ErrorKind::Interrupted));
        }
        Ok(ThreadTimes {
            utime: t.exec,
            stime: Duration::ZERO,
        })
    }

    fn pin_to_cpu(&self, tid: i32, cpu: usize) -> Result<(), ProcError> {
        let mut s = self.state.lock();
        if cpu >= s.n_cpus {
            return Err(ProcError::Io(io::ErrorKind::InvalidInput));
        }
        if !s.process_alive_at(s.now) {
            return Err(ProcError::Vanished);
        }
        if s.eperm_all_pins > 0 {
            s.eperm_all_pins -= 1;
            return Err(ProcError::PermissionDenied);
        }
        let now = s.now;
        let Some(t) = s.threads.get_mut(&tid) else {
            return Err(ProcError::Vanished);
        };
        if !t.alive_at(now) {
            return Err(ProcError::Vanished);
        }
        if t.eperm_forever {
            return Err(ProcError::PermissionDenied);
        }
        if t.eperm_pins > 0 {
            t.eperm_pins -= 1;
            return Err(ProcError::PermissionDenied);
        }
        t.cpu = cpu;
        Ok(())
    }

    fn process_alive(&self, pid: i32) -> bool {
        let s = self.state.lock();
        pid == s.pid && s.process_alive_at(s.now)
    }

    fn now(&self) -> Duration {
        self.state.lock().now
    }

    fn sleep(&self, d: Duration) {
        let wake_at = self.state.lock().now + d;
        let mut c = self.coord.inner.lock().expect("sleep coordinator poisoned");
        if c.workers == 0 {
            // No concurrent balancer loops: plain discrete-event advance.
            drop(c);
            self.state.lock().advance(d);
            self.coord.cv.notify_all();
            return;
        }
        let token = c.next_token;
        c.next_token += 1;
        c.sleepers.push((token, wake_at));
        // This push may have just made "every worker is asleep" true for
        // a waiter holding an earlier deadline — wake them to re-check.
        self.coord.cv.notify_all();
        loop {
            if self.state.lock().now >= wake_at {
                c.sleepers.retain(|(t, _)| *t != token);
                self.coord.cv.notify_all();
                return;
            }
            // Advance only from the earliest pending deadline, and only
            // once every registered worker has reached its sleep — a busy
            // worker freezes the clock rather than falling behind it.
            if c.sleepers.len() >= c.workers {
                let earliest = c
                    .sleepers
                    .iter()
                    .min_by_key(|(t, w)| (*w, *t))
                    .map(|(t, _)| *t);
                if earliest == Some(token) {
                    c.sleepers.retain(|(t, _)| *t != token);
                    let mut s = self.state.lock();
                    let delta = wake_at.saturating_sub(s.now);
                    s.advance(delta);
                    drop(s);
                    self.coord.cv.notify_all();
                    return;
                }
            }
            c = self.coord.cv.wait(c).expect("sleep coordinator poisoned");
        }
    }

    fn worker_started(&self) {
        let mut c = self.coord.inner.lock().expect("sleep coordinator poisoned");
        c.workers += 1;
    }

    fn worker_stopped(&self) {
        let mut c = self.coord.inner.lock().expect("sleep coordinator poisoned");
        c.workers = c.workers.saturating_sub(1);
        // A departing worker may leave "everyone asleep" newly true.
        self.coord.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn fair_share_accrual() {
        let mock = MockProc::builder(7, 2)
            .thread(10)
            .thread(11)
            .thread(12)
            .build();
        // All three start on cpu 0: each gets 1/3 of a core.
        mock.sleep(ms(300));
        assert_eq!(mock.thread_exec(10), Some(ms(100)));
        // Move one to cpu 1: it runs alone at full speed, the others at 1/2.
        mock.pin_to_cpu(12, 1).unwrap();
        mock.sleep(ms(100));
        assert_eq!(mock.thread_exec(12), Some(ms(200)));
        assert_eq!(mock.thread_exec(10), Some(ms(150)));
    }

    #[test]
    fn scripted_lifetimes_and_boundaries() {
        let mock = MockProc::builder(7, 1)
            .thread(1)
            .thread_spanning(2, ms(50), Some(ms(150)))
            .build();
        assert_eq!(mock.list_tids(7).unwrap(), vec![1]);
        // Advance across the spawn boundary in one big sleep: accrual must
        // split at t=50ms (thread 1 alone) and t in [50,150] (shared).
        mock.sleep(ms(200));
        assert_eq!(mock.list_tids(7).unwrap(), vec![1]);
        assert_eq!(mock.thread_exec(1), Some(ms(50 + 50 + 50)));
        assert_eq!(mock.thread_exec(2), Some(ms(50)));
        assert_eq!(mock.thread_cpu_time(7, 2).unwrap_err(), ProcError::Vanished);
    }

    #[test]
    fn fault_scripts_fire_and_drain() {
        let mock = MockProc::builder(7, 2).thread(1).build();
        mock.inject(1, Fault::MalformedReads(1));
        mock.inject(1, Fault::VanishReads(1));
        // Vanish first (checked before malformed), then malformed, then ok.
        assert_eq!(mock.thread_cpu_time(7, 1).unwrap_err(), ProcError::Vanished);
        assert!(matches!(
            mock.thread_cpu_time(7, 1).unwrap_err(),
            ProcError::Malformed(_)
        ));
        assert!(mock.thread_cpu_time(7, 1).is_ok());

        mock.inject(1, Fault::EpermPins(2));
        assert_eq!(
            mock.pin_to_cpu(1, 1).unwrap_err(),
            ProcError::PermissionDenied
        );
        assert_eq!(
            mock.pin_to_cpu(1, 1).unwrap_err(),
            ProcError::PermissionDenied
        );
        assert!(mock.pin_to_cpu(1, 1).is_ok());
        assert_eq!(mock.thread_cpu(1), Some(1));
    }

    #[test]
    fn global_faults_and_process_exit() {
        let mock = MockProc::builder(7, 2)
            .thread(1)
            .process_exits_at(ms(100))
            .build();
        mock.inject_global(GlobalFault::ListIoErrors(1));
        assert!(matches!(mock.list_tids(7).unwrap_err(), ProcError::Io(_)));
        assert!(mock.list_tids(7).is_ok());
        mock.inject_global(GlobalFault::EpermAllPins(1));
        assert_eq!(
            mock.pin_to_cpu(1, 0).unwrap_err(),
            ProcError::PermissionDenied
        );
        assert!(mock.process_alive(7));
        mock.sleep(ms(100));
        assert!(!mock.process_alive(7));
        assert_eq!(mock.list_tids(7).unwrap_err(), ProcError::Vanished);
        // The clock still advances after death (balancer threads keep
        // sleeping while they notice).
        mock.sleep(ms(50));
        assert_eq!(mock.virtual_now(), ms(150));
        // No CPU accrues post-mortem.
        assert_eq!(mock.thread_exec(1), Some(ms(100)));
    }

    #[test]
    fn runtime_churn() {
        let mock = MockProc::builder(7, 2).thread(1).build();
        mock.sleep(ms(10));
        mock.spawn_thread(2);
        assert_eq!(mock.list_tids(7).unwrap(), vec![1, 2]);
        mock.exit_thread(1);
        assert_eq!(mock.list_tids(7).unwrap(), vec![2]);
        assert_eq!(mock.thread_cpu_time(7, 1).unwrap_err(), ProcError::Vanished);
    }
}
