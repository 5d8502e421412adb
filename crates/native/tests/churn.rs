//! Integration tests: the balancer against concurrent thread churn.
//!
//! These drive a running [`NativeSpeedBalancer`] from a *separate* test
//! thread that spawns and exits target threads through the shared
//! [`MockProc`] while the balancer's scans are in flight — the genuinely
//! concurrent version of the churn scenarios (the unit tests script
//! lifetimes up front). The assertions are the hardening contract: no
//! panic, every generation of threads gets adopted, and speed accounting
//! stays monotone (CPU-time deltas never go negative, so no speed sample
//! is ever below zero).

use speedbal_native::{
    Fault, GlobalFault, MockProc, NativeConfig, NativeSpeedBalancer, ProcSource,
};
use speedbal_trace::{TraceConfig, TraceEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn churn_cfg() -> NativeConfig {
    NativeConfig {
        interval: ms(50),
        startup_delay: ms(10),
        quarantine_cooldown: ms(300),
        ..NativeConfig::default()
    }
}

/// `list_tids` under concurrent thread exit: a driver thread churns the
/// target's thread set through the live mock while the balancer scans it.
/// The run must survive to the scripted process exit with every thread
/// generation adopted and nothing quarantined (exits are not failures).
#[test]
fn list_tids_survives_concurrent_thread_exit() {
    let mock = Arc::new(
        MockProc::builder(50_001, 2)
            .thread(1)
            .thread(2)
            .thread(3)
            .process_exits_at(Duration::from_secs(3))
            .build(),
    );
    let topo = mock.topology();
    // One balancer worker per managed core.
    let balancer_workers = topo.n_cpus();
    let bal = NativeSpeedBalancer::attach_with_source(mock.pid(), churn_cfg(), mock.clone(), topo)
        .expect("attach");

    // Join the lockstep rendezvous as a clock participant *before* the
    // balancer starts, so spawns and exits interleave with live balance
    // intervals rather than racing ahead of them. Registered first, the
    // driver freezes virtual time for everyone until its first sleep.
    mock.worker_started();
    let driver = {
        let mock = Arc::clone(&mock);
        std::thread::spawn(move || {
            // Wait until the balancer has registered its workers: sleeping
            // earlier would advance time solo (the driver would be the only
            // registered sleeper) and run the churn before balancing starts.
            // Once they are registered the clock cannot move until this
            // thread sleeps, so the first spawn lands at the end of the
            // startup delay whatever the host's thread scheduling. Tids
            // grow monotonically — a tid is never recycled.
            while mock.registered_workers() < 1 + balancer_workers {
                std::thread::yield_now();
            }
            let mut next_tid = 100;
            while mock.process_alive(50_001) && mock.virtual_now() < ms(2_000) {
                mock.spawn_thread(next_tid);
                mock.sleep(ms(120));
                if mock.process_alive(50_001) {
                    mock.exit_thread(next_tid);
                }
                next_tid += 1;
                mock.sleep(ms(40));
            }
            mock.worker_stopped();
        })
    };

    let stop = AtomicBool::new(false);
    let stats = bal.run(&stop);
    driver.join().expect("driver thread must not panic");

    assert!(
        mock.virtual_now() >= Duration::from_secs(3),
        "run must survive to the scripted process exit"
    );
    let seen = stats.threads_seen.load(Ordering::Relaxed);
    assert!(
        seen >= 3 + 3,
        "3 permanent + every churned generation must be adopted, saw {seen}"
    );
    assert_eq!(
        stats.quarantines.load(Ordering::Relaxed),
        0,
        "clean exits must never be treated as failures"
    );
}

/// Monotone speed accounting under churn: run traced, then check every
/// recorded speed sample. A negative speed would mean a thread's
/// cumulative CPU time went backwards in the balancer's books (e.g. a
/// sample surviving a vanish/re-adopt cycle with stale state).
#[test]
fn speed_accounting_stays_monotone_under_churn() {
    let mock = Arc::new(
        MockProc::builder(50_002, 2)
            .thread(1)
            .thread(2)
            .thread_spanning(3, ms(0), Some(ms(800)))
            .thread_spanning(4, ms(500), Some(ms(1_900)))
            .thread_spanning(5, ms(1_200), None)
            .process_exits_at(Duration::from_secs(3))
            .build(),
    );
    // Vanish-races and torn reads on top of the churn.
    mock.inject(1, Fault::VanishReads(2));
    mock.inject(2, Fault::MalformedReads(2));
    let topo = mock.topology();
    let bal = NativeSpeedBalancer::attach_with_source(mock.pid(), churn_cfg(), mock.clone(), topo)
        .expect("attach");

    let stop = AtomicBool::new(false);
    let (stats, trace) = bal.run_traced(&stop, TraceConfig::default());

    let mut samples = 0usize;
    for rec in trace.records() {
        if let TraceEvent::SpeedSample { task, speed } = &rec.event {
            samples += 1;
            assert!(
                *speed >= 0.0,
                "negative speed for task {task:?}: CPU accounting went backwards"
            );
            assert!(speed.is_finite(), "speed sample must be finite");
        }
    }
    assert!(samples > 0, "a 3s traced run must record speed samples");
    assert!(
        stats.retries.load(Ordering::Relaxed) > 0,
        "torn reads must retry"
    );
    assert!(
        stats.threads_seen.load(Ordering::Relaxed) >= 5,
        "every scripted generation must be adopted"
    );
}

/// The acceptance bar from the issue: thread exit mid-scan + EPERM
/// affinity + malformed stat, all at once, without panicking — and the
/// balancer keeps balancing the healthy threads.
#[test]
fn kitchen_sink_churn_eperm_malformed_survives() {
    let mock = Arc::new(
        MockProc::builder(50_003, 2)
            .thread(1)
            .thread(2)
            .thread(3)
            .thread_spanning(4, ms(0), Some(ms(900)))
            .process_exits_at(Duration::from_secs(4))
            .build(),
    );
    mock.inject(1, Fault::VanishReads(3));
    mock.inject(2, Fault::EpermPinsForever);
    mock.inject(3, Fault::MalformedReads(2));
    mock.inject_global(GlobalFault::ListIoErrors(2));
    let topo = mock.topology();
    let bal = NativeSpeedBalancer::attach_with_source(mock.pid(), churn_cfg(), mock.clone(), topo)
        .expect("attach");

    let stop = AtomicBool::new(false);
    let stats = bal.run(&stop);

    assert!(mock.virtual_now() >= Duration::from_secs(4));
    assert!(stats.activations.load(Ordering::Relaxed) > 0);
    assert!(stats.proc_faults.load(Ordering::Relaxed) > 0);
    assert!(
        stats.quarantines.load(Ordering::Relaxed) > 0,
        "the EPERM-forever thread must end up quarantined"
    );
    // The healthy threads (1, 3 after their bursts drain, plus 4 until it
    // exits) must still have been adopted and measured.
    assert!(stats.threads_seen.load(Ordering::Relaxed) >= 3);
}
