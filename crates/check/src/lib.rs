//! # speedbal-check — the correctness subsystem
//!
//! Three independent layers of defence against "plausible but wrong"
//! simulation results, complementing the always-available runtime
//! invariant checker in `speedbal-sched` (see
//! `System::enable_invariant_checks`, the `SPEEDBAL_CHECK` environment
//! variable, and the `strict-invariants` cargo feature):
//!
//! 1. [`refqueue`] — a naive reference event queue differentially fuzzed
//!    against the production slot-armed [`speedbal_sim::EventQueue`];
//! 2. [`diff`] — seeded scenario replays along independently-implemented
//!    paths (traced / invariant-checked / reference-scan balancer state),
//!    diffed bit-for-bit;
//! 3. [`lemma`] — a conformance sweep checking the real speed balancer
//!    against Lemma 1's analytic bound over an (N threads, M cores) grid;
//! 4. [`fuzz`] — schedule-space fuzzing: the battery replayed under
//!    non-FIFO same-instant orderings (LIFO, seeded shuffles, and a
//!    depth-bounded exhaustive walk), checking everything that must not
//!    depend on the event queue's tie-break.
//!
//! [`run_full_check`] runs the first three and is wired to `speedbal-cli
//! check` and into CI; the fuzzer runs via `speedbal-cli check --fuzz`
//! and its own CI job.

pub mod diff;
pub mod fuzz;
pub mod lemma;
#[cfg(test)]
mod props;
pub mod refqueue;

pub use diff::{diff_repeat, diff_scenarios, migration_log, Fingerprint};
pub use fuzz::{run_fuzz, FuzzFailure, FuzzOptions, FuzzReport};
pub use lemma::{
    conformance_cell, conformance_cell_ordered, conformance_sweep, lockstep_cell,
    weighted_conformance_cell, weighted_conformance_cell_ordered, weighted_conformance_sweep,
    LemmaCell, WeightedLemmaCell,
};
pub use refqueue::{
    differential_queue_case, differential_queue_case_with, DeltaProfile, PostedQueue,
    QueueCaseStats,
};
// Re-exported so `speedbal-cli check --fuzz --ordering ...` can parse
// policy specs without depending on speedbal-sim directly.
pub use speedbal_sim::OrderingPolicy;

use speedbal_apps::WaitMode;
use speedbal_harness::{run_sweep, Competitor, Machine, Policy, Scenario, SweepJob};
use speedbal_sim::SimDuration;
use speedbal_workloads::ep;

/// Combined outcome of the full check run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Differential event-queue cases run (seeds × op sequences).
    pub queue_cases: usize,
    /// Scenario differential cases run (scenarios × repeats).
    pub diff_cases: usize,
    /// Lemma 1 grid cells checked.
    pub lemma_cells: Vec<LemmaCell>,
    /// Weighted (heterogeneous-core) conformance cells checked.
    pub weighted_cells: Vec<WeightedLemmaCell>,
    /// Every violation found, human-readable. Empty = green.
    pub failures: Vec<String>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// A text summary for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "event-queue differential : {} cases\n\
             scenario differential    : {} cases\n\
             Lemma 1 conformance      : {} cells\n",
            self.queue_cases,
            self.diff_cases,
            self.lemma_cells.len()
        ));
        for c in &self.lemma_cells {
            match c.rounds_to_rotate {
                Some(r) => out.push_str(&format!(
                    "  n={:2} m={}: rotated in {:2} rounds (step bound {:2}), \
                     {} migrations\n",
                    c.n, c.m, r, c.steps, c.migrations
                )),
                None => out.push_str(&format!(
                    "  n={:2} m={}: balanced, quiescent ({} migrations)\n",
                    c.n, c.m, c.migrations
                )),
            }
        }
        out.push_str(&format!(
            "weighted conformance     : {} cells\n",
            self.weighted_cells.len()
        ));
        for c in &self.weighted_cells {
            match c.rounds_to_rotate {
                Some(r) => out.push_str(&format!(
                    "  {:16} n={:2}: rotated in {:2} rounds (step bound {:2}), \
                     {} migrations\n",
                    c.name, c.n, r, c.steps, c.migrations
                )),
                None => out.push_str(&format!(
                    "  {:16} n={:2}: exactly apportioned, quiescent \
                     ({} migrations)\n",
                    c.name, c.n, c.migrations
                )),
            }
        }
        if self.ok() {
            out.push_str("all checks passed\n");
        } else {
            out.push_str(&format!("{} FAILURE(S):\n", self.failures.len()));
            for f in &self.failures {
                out.push_str(&format!("  {f}\n"));
            }
        }
        out
    }
}

/// The scenario battery the differential harness replays: the paper's
/// running example, an oversubscribed many-thread cell, a LOAD-policy
/// cell so the observational paths are diffed under a second balancer,
/// an open-loop server cell exercising the request/queue machinery, a
/// NUMA (Barcelona) cell, and a make -j competitor cell. The same
/// battery is the schedule-space fuzzer's corpus (see [`fuzz`]).
pub(crate) fn diff_battery(quick: bool) -> Vec<Scenario> {
    let repeats = if quick { 1 } else { 3 };
    let mut v = vec![
        Scenario::new(
            Machine::Uniform(2),
            0,
            Policy::Speed,
            ep().spmd(3, WaitMode::Block, 0.05),
        )
        .repeats(repeats),
        Scenario::new(
            Machine::Tigerton,
            4,
            Policy::Speed,
            ep().spmd(9, WaitMode::Yield, 0.05),
        )
        .repeats(repeats),
        Scenario::new(
            Machine::Uniform(3),
            0,
            Policy::Load,
            ep().spmd(6, WaitMode::Yield, 0.05),
        )
        .repeats(repeats),
        // Server cell: Poisson arrivals, lognormal service, 6 workers on
        // 4 cores — the traced / checked / reference-scan paths must
        // replay the request queue and sleep/wake machinery bit-for-bit.
        Scenario::server_only(
            Machine::Uniform(4),
            0,
            Policy::Speed,
            speedbal_workloads::web(6, 4, 0.6, SimDuration::from_millis(150)),
        )
        .repeats(repeats),
        // Heterogeneous cells: static big.LITTLE asymmetry and a DVFS
        // throttle trace, so the observational paths are diffed with
        // frequency-step events interleaved into the stream.
        Scenario::new(
            Machine::BigLittle4p8e,
            6,
            Policy::Speed,
            ep().spmd(9, WaitMode::Yield, 0.05),
        )
        .repeats(repeats),
        Scenario::new(
            Machine::Throttle,
            0,
            Policy::Speed,
            ep().spmd(11, WaitMode::Yield, 0.05),
        )
        .repeats(repeats),
        // NUMA cell: Barcelona's multi-socket topology in the quick
        // battery, so cross-socket migration decisions are diffed (and
        // schedule-fuzzed) on every CI run, not just in full mode.
        Scenario::new(
            Machine::Barcelona,
            4,
            Policy::Speed,
            ep().spmd(6, WaitMode::Yield, 0.05),
        )
        .repeats(repeats),
        // make -j cell: EP sharing the machine with a small parallel
        // batch build (Figure 6's competitor), so the job chains'
        // sleep/wake churn is part of the diffed (and fuzzed) stream.
        Scenario::new(
            Machine::Uniform(4),
            0,
            Policy::Speed,
            ep().spmd(4, WaitMode::Block, 0.05),
        )
        .competitors(vec![Competitor::MakeJ {
            tasks: 3,
            jobs_per_task: 3,
        }])
        .repeats(repeats),
    ];
    if !quick {
        v.push(
            Scenario::new(
                Machine::Barcelona,
                6,
                Policy::Speed,
                ep().spmd(13, WaitMode::Spin, 0.05),
            )
            .repeats(repeats),
        );
        // Multiprogrammed cell: EP sharing the machine with a pinned
        // cpu-hog (Figure 5's setup), so the traced / checked /
        // reference-scan paths are replayed bit-for-bit with competitor
        // tasks churning the run queues.
        v.push(
            Scenario::new(
                Machine::Tigerton,
                6,
                Policy::Speed,
                ep().spmd(8, WaitMode::Yield, 0.05),
            )
            .competitors(vec![Competitor::CpuHog { core: 0 }])
            .repeats(repeats),
        );
        // Mixed tenancy: SPMD primary plus a co-located server drained
        // after the app completes.
        v.push(
            Scenario::new(
                Machine::Uniform(4),
                0,
                Policy::Speed,
                ep().spmd(5, WaitMode::Yield, 0.05),
            )
            .server(speedbal_workloads::web(
                4,
                4,
                0.3,
                SimDuration::from_millis(150),
            ))
            .repeats(repeats),
        );
    }
    v
}

/// Runs every layer: the event-queue differential fuzz, the scenario
/// differential battery, and the Lemma 1 conformance sweep.
pub fn run_full_check(quick: bool) -> CheckReport {
    let mut failures = Vec::new();

    // Each fuzz case is independent; fan seeds × delta profiles out on
    // the sweep executor (results return in deterministic order, so the
    // failure list is stable). The biased profiles cluster times at
    // powers of two, add a far-future tail, or skew the mix toward slot
    // supersedes and cancels.
    let seeds: u64 = if quick { 8 } else { 32 };
    let ops = if quick { 1_500 } else { 4_000 };
    let profiles = [
        DeltaProfile::Uniform,
        DeltaProfile::WheelBoundary,
        DeltaProfile::FarFuture,
        DeltaProfile::CancelHeavy,
    ];
    let queue_jobs = profiles
        .iter()
        .flat_map(|&profile| {
            (0..seeds).map(move |seed| {
                SweepJob::new(ops as u64, move || {
                    differential_queue_case_with(seed, ops, profile)
                        .err()
                        .map(|e| format!("queue differential seed {seed} ({profile:?}): {e}"))
                })
            })
        })
        .collect();
    let queue_cases = seeds as usize * profiles.len();
    failures.extend(run_sweep(queue_jobs).into_iter().flatten());

    let (diff_cases, diff_failures) = diff_scenarios(&diff_battery(quick));
    failures.extend(diff_failures);

    let (lemma_cells, lemma_failures) = conformance_sweep(quick);
    failures.extend(lemma_failures);

    let (weighted_cells, weighted_failures) = weighted_conformance_sweep(quick);
    failures.extend(weighted_failures);

    CheckReport {
        queue_cases,
        diff_cases,
        lemma_cells,
        weighted_cells,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_full_check_is_green() {
        let report = run_full_check(true);
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.queue_cases, 32, "8 seeds x 4 delta profiles");
        assert!(
            report.diff_cases >= 6,
            "quick battery includes server and hetero cells"
        );
        assert_eq!(report.lemma_cells.len(), 15);
        assert_eq!(report.weighted_cells.len(), 4);
        assert!(report.render().contains("all checks passed"));
    }
}
