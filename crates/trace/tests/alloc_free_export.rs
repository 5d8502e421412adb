//! Allocation test for the Chrome exporter: each record is formatted
//! straight into the output, so exporting a buffer makes a fixed number
//! of allocations (the write buffer and the per-core and per-task
//! tables), however many records it holds.
//!
//! A counting global allocator wraps the system allocator. The test
//! exports a 10k-record and a 40k-record buffer of the same event mix
//! into pre-sized `Vec`s and asserts both exports made the same, small
//! number of allocations. This file intentionally holds a single test:
//! the counter is process-global, and a concurrently running test in the
//! same binary would pollute it.

use speedbal_machine::{CoreId, DomainLevel};
use speedbal_sim::{SimDuration, SimTime};
use speedbal_trace::{
    export_chrome_to, ActivationOutcome, MigrationReason, ProcFaultKind, ProcOp, RequestDropReason,
    TraceBuffer, TraceEvent,
};
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

const CORES: usize = 4;
/// Tasks 0..4 are named (one needs JSON escaping); 4..8 use the `t<N>`
/// fallback.
const TASKS: usize = 8;

/// `n` records cycling through every event variant, on a fixed task set.
fn buffer(n: usize) -> TraceBuffer {
    let mut buf = TraceBuffer::new();
    buf.set_n_cores(CORES);
    for task in 0..TASKS / 2 {
        let name = if task == 1 {
            "needs \"escaping\"\t".to_string()
        } else {
            format!("srv{task}")
        };
        buf.task_spawned(task, &name, SimTime::ZERO);
    }
    for i in 0..n {
        let time = SimTime::from_nanos(1_000 + 1_237 * i as u64);
        let core = CoreId(i % CORES);
        let task = i % TASKS;
        let other = (i + 3) % TASKS;
        let event = match i % 19 {
            0 => TraceEvent::Dispatch { task },
            1 => TraceEvent::Desched {
                task: (i - 1) % TASKS,
                ran: SimDuration::from_nanos(1_237),
            },
            2 => TraceEvent::Preempt { task, by: other },
            3 => TraceEvent::Wake { task },
            4 => TraceEvent::Sleep { task },
            5 => TraceEvent::Exit { task },
            6 => TraceEvent::Migrate {
                task,
                from: CoreId((i + 1) % CORES),
                to: core,
                tier: DomainLevel::Cache,
                reason: MigrationReason::SpeedPull {
                    local_speed: 1.0,
                    remote_speed: 0.5,
                    global_speed: 0.75,
                },
            },
            7 => TraceEvent::SpeedSample {
                task: Some(task),
                speed: 0.5 + (i % 7) as f64 / 13.0,
            },
            8 => TraceEvent::SpeedSample {
                task: None,
                speed: if i % 2 == 0 { f64::NAN } else { 0.25 },
            },
            9 => TraceEvent::FreqStep { ratio: 0.625 },
            10 => TraceEvent::BalancerActivation {
                policy: "SPEED",
                local: 1.25,
                global: 0.875,
                outcome: ActivationOutcome::NoCandidate,
                jitter: SimDuration::from_nanos(123_456),
            },
            11 => TraceEvent::BarrierArrive {
                task,
                cond: i,
                episode: i as u64,
                arrived: 1 + i % 2,
                parties: 2,
            },
            12 => TraceEvent::BarrierRelease {
                task,
                cond: i,
                episode: i as u64,
            },
            13 => TraceEvent::ProcFault {
                task: (i % 2 == 0).then_some(task),
                op: ProcOp::ReadCpuTime,
                kind: ProcFaultKind::Vanished,
                attempt: 1,
                retrying: true,
            },
            14 => TraceEvent::Quarantined { task, failures: 3 },
            15 => TraceEvent::RequestArrival {
                request: i,
                arrival: time,
                queued: i % 5,
            },
            16 => TraceEvent::RequestDispatch {
                request: i,
                subtask: 0,
                wait: SimDuration::from_nanos(40_000),
            },
            17 => TraceEvent::RequestComplete {
                request: i,
                latency: SimDuration::from_nanos(1_500_000),
            },
            _ => TraceEvent::RequestDrop {
                request: i,
                reason: RequestDropReason::ShedTimeout,
            },
        };
        buf.record(time, core, event);
    }
    buf.flush();
    buf
}

/// Allocations made by one export of `buf` into a pre-sized `Vec`, and
/// the exported length.
fn export_allocations(buf: &TraceBuffer) -> (u64, usize) {
    let mut out = Vec::with_capacity(256 * buf.len() + (1 << 16));
    let capacity = out.capacity();
    let before = ALLOCS.load(Ordering::Relaxed);
    export_chrome_to(buf, &mut out).expect("writing to a Vec cannot fail");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        out.capacity(),
        capacity,
        "output Vec was pre-sized too small"
    );
    (allocs, out.len())
}

#[test]
fn export_allocations_do_not_grow_with_record_count() {
    let small = buffer(10_000);
    let large = buffer(40_000);
    assert_eq!(small.len(), 10_000);
    assert_eq!(large.len(), 40_000);
    let (small_allocs, small_bytes) = export_allocations(&small);
    let (large_allocs, large_bytes) = export_allocations(&large);
    assert!(large_bytes > 3 * small_bytes, "the large export is larger");
    assert_eq!(
        small_allocs, large_allocs,
        "export allocations grew with the record count"
    );
    // The write buffer, the open-interval table and the growth of the
    // named-task-track table.
    assert!(
        large_allocs <= 8,
        "export made {large_allocs} allocations for 40k records"
    );
}
