//! Host-speed probe: a fixed discrete-event loop written here, sharing no
//! code with the program under test, timed around every iteration.
//!
//! On a shared host the same iteration can take 1.5-1.9x longer for
//! minutes at a time (contention from other tenants). The probe slows
//! down with the host but not with the program, so dividing by it keeps
//! a program change visible while damping the host's drift.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Probe ns per event that the adjusted timings are scaled to.
pub const REFERENCE_NS: f64 = 100.0;

/// Simulated tasks and cores of the probe's event loop; 8192 tasks keep
/// its heap and state arrays beyond L1, like the simulator's.
const TASKS: usize = 8192;
const CORES: usize = 16;
/// Events per probe (a few ms).
const EVENTS: usize = 20_000;

/// Host ns per probe event, averaged over `threads` copies of the probe
/// run at once (one per thread the workload itself uses).
pub fn probe_ns(threads: usize) -> f64 {
    if threads <= 1 {
        return event_loop();
    }
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(event_loop)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .sum()
    });
    total / threads as f64
}

/// One probe: a fixed event sequence, timed.
fn event_loop() -> f64 {
    let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let start = Instant::now();
    let mut heap = BinaryHeap::with_capacity(2 * TASKS);
    let mut core_of = vec![0usize; TASKS];
    let mut load = [0u32; CORES];
    let mut runtime = vec![0u64; TASKS];
    for (t, core) in core_of.iter_mut().enumerate() {
        *core = t % CORES;
        load[*core] += 1;
        heap.push(Reverse((next() % 1000, t)));
    }
    let mut moves = 0u64;
    for _ in 0..EVENTS {
        let Reverse((now, t)) = heap.pop().expect("one pending event per task");
        let r = next();
        runtime[t] += r % 97;
        if r.is_multiple_of(8) {
            // Pull towards the least loaded core, as a balancer would.
            let (best, _) = load
                .iter()
                .enumerate()
                .min_by_key(|&(c, &l)| (l, c))
                .expect("at least one core");
            if load[core_of[t]] > load[best] + 1 {
                load[core_of[t]] -= 1;
                load[best] += 1;
                core_of[t] = best;
                moves += 1;
            }
        }
        heap.push(Reverse((now + 1 + (r >> 32) % 5000, t)));
    }
    let ns = start.elapsed().as_nanos() as f64 / EVENTS as f64;
    std::hint::black_box(moves + runtime.iter().sum::<u64>());
    ns
}
