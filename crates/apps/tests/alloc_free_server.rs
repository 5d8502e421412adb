//! Steady-state allocation test for the server worker path: once warm, a
//! worker's admit / dispatch / complete / sleep cycle must not touch the
//! heap (tracing disabled). The request schedule is generated up front,
//! so only its one-time set-up may allocate.
//!
//! Same method as `speedbal-sched`'s `alloc_free` test: a counting global
//! allocator wraps the system allocator, a warm-up phase lets the shared
//! queue and the engine's buffers reach their steady-state capacities,
//! then two windows of steps are measured. This file intentionally holds
//! a single test: the counter is process-global, and a concurrently
//! running test in the same binary would pollute it.

use speedbal_apps::ServerApp;
use speedbal_machine::{uniform, CostModel};
use speedbal_sched::{NullBalancer, SchedConfig, System};
use speedbal_sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_server_steps_do_not_allocate() {
    // The runtime invariant checker re-derives system state the slow way
    // (fresh Vecs and maps at every hook) by design; this test measures
    // the production hot path, so it is vacuous under SPEEDBAL_CHECK=1.
    if std::env::var_os("SPEEDBAL_CHECK").is_some_and(|v| v == "1") {
        return;
    }
    // More workers than cores at a moderate load, so the windows mix
    // every worker path: queueing, dispatch, completion and idle sleeps.
    let mut sys = System::new(
        uniform(4),
        SchedConfig::default(),
        CostModel::free(),
        Box::new(NullBalancer::new()),
        7,
    );
    let g = sys.new_group();
    let cfg = speedbal_workloads::web(8, 4, 0.7, SimDuration::from_secs(10));
    let (app, _) = ServerApp::spawn(&mut sys, g, &cfg, 7);

    // Warm-up: let every buffer reach its steady-state capacity.
    for _ in 0..20_000 {
        assert!(sys.step(), "the open-loop window keeps the workers busy");
    }

    // Two independent windows filter out the runtime's one-shot lazy
    // allocations (see the `alloc_free` test in `speedbal-sched`): those
    // land in at most one window, while a per-request allocation recurs
    // in every window.
    let mut deltas = Vec::new();
    for _window in 0..2 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..20_000 {
            assert!(sys.step());
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        if delta == 0 {
            assert!(app.metrics().completed > 0);
            return;
        }
        deltas.push(delta);
    }
    panic!("steady-state server steps allocated in both measured windows: {deltas:?}");
}
