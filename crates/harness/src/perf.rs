//! Wall-clock benchmark of the simulator's event-loop hot path, plus the
//! committed-baseline check backing the CI perf-smoke job.
//!
//! The measured scenario is the repo's canonical stress case: cg.B run as
//! a 64-thread SPMD app with yielding barriers on the 16-core Tigerton
//! model under the SPEED policy (CompositeBalancer of SpeedBalancer over
//! Linux load balancing), seed `0xB0A710AD`. The simulation is fully
//! deterministic — every repeat executes the identical schedule — so the
//! only variance between repeats is the host machine, and the report keeps
//! the *best* (minimum) ns/step, the standard way to estimate the noise
//! floor of a deterministic workload.
//!
//! Beyond the headline scenario, [`run_matrix`] times a fixed grid of
//! cells spanning the simulator's behaviourally distinct regimes — small
//! and large thread counts, traced and untraced runs, SPEED / LOAD / DWRR
//! policies, and SPMD / open-loop-server / heterogeneous-machine
//! applications — so a hot-path regression that only bites one regime
//! (say, the DWRR desched path or trace emission) still moves a gated
//! number.
//!
//! Results serialize to the hand-rolled JSON in `BENCH_sim.json` (schema
//! `speedbal-bench-v3`, documented in EXPERIMENTS.md); `check_against`
//! compares a fresh run to the committed file per cell with a configurable
//! tolerance and names the offending cell, so CI catches
//! order-of-magnitude regressions without flaking on noisy runners.

use speedbal_apps::{ServerApp, SpmdApp, WaitMode};
use speedbal_balancers::{CompositeBalancer, Dwrr, LinuxLoadBalancer};
use speedbal_core::SpeedBalancer;
use speedbal_machine::{tigerton, uniform, CoreId, CostModel, Topology};
use speedbal_sched::{Balancer, GroupId, SchedConfig, System};
use speedbal_sim::{SimDuration, SimTime};
use speedbal_workloads::{big_little_4p8e, cg_b, ep, web};
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark seed — same as the experiment harness default, so bench
/// numbers correspond to the schedules the tables are generated from.
pub const BENCH_SEED: u64 = 0xB0A710AD;

/// How the benchmark scenario is described in reports.
pub const BENCH_SCENARIO: &str =
    "cg.B spmd x64 (yield barriers) on tigerton x16, SPEED policy, seed 0xB0A710AD";

/// Target ceiling on the traced/untraced ns-per-step ratio of paired
/// matrix cells. The staged record path plus the compact ring leave the
/// sink itself near-free; the residual overhead is the record call sites
/// on the dispatch path, which measure ~1.6–1.7x on the cg.B headline
/// cell (part of that is a cell-ordering cache artifact — see
/// EXPERIMENTS.md "Tracing overhead"). The gate therefore allows
/// `max(TRACE_OVERHEAD_LIMIT, committed ratio × 1.15)`: the committed
/// pair sets the enforced ceiling while it is worse than the 1.5x
/// target, and the gate tightens to 1.5x automatically the moment a
/// committed capture gets there. Either way a quadratic sink or an
/// allocation storm in the record path fails CI by cell name.
pub const TRACE_OVERHEAD_LIMIT: f64 = 1.5;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Workload scale factor (1.0 = the paper-scale run).
    pub scale: f64,
    /// Timed repeats; the report keeps the fastest.
    pub repeats: usize,
    /// Untimed warm-up runs before measuring.
    pub warmup: usize,
}

impl BenchConfig {
    /// Full benchmark: paper-scale workload, best of 5.
    pub fn full() -> Self {
        BenchConfig {
            scale: 1.0,
            repeats: 5,
            warmup: 1,
        }
    }

    /// CI-sized benchmark: quarter-scale workload, best of 3.
    pub fn quick() -> Self {
        BenchConfig {
            scale: 0.25,
            repeats: 3,
            warmup: 1,
        }
    }
}

/// Throughput of the sweep executor over a deterministic scenario grid:
/// a cold pass (every cell simulated, results persisted) and a warm pass
/// (every cell answered from the content-addressed cache).
#[derive(Debug, Clone)]
pub struct SweepBenchReport {
    /// Cells in the grid (identical for the cold and warm pass).
    pub cells: u64,
    /// Wall-clock seconds of the cold pass.
    pub wall_secs: f64,
    /// Cold-pass throughput.
    pub cells_per_sec: f64,
    /// Cache hits observed by the warm pass (must equal `cells`).
    pub cache_hits: u64,
    /// Worker budget the executor ran with.
    pub jobs: usize,
}

/// One benchmark result (the best repeat, plus run-invariant counters).
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub scenario: String,
    pub scale: f64,
    pub repeats: usize,
    pub warmup: usize,
    /// Events processed by the deterministic run (repeat-invariant).
    pub steps: u64,
    /// Simulated completion time of the app, in seconds.
    pub sim_secs: f64,
    /// Best wall-clock nanoseconds per event-loop step.
    pub ns_per_step: f64,
    /// Steps per wall-clock second at the best repeat.
    pub steps_per_sec: f64,
    /// Slot cancellations over the run (repeat-invariant).
    pub cancellations: u64,
    /// Process peak RSS (`VmHWM`) in kB, if readable.
    pub peak_rss_kb: u64,
    /// The multi-scenario benchmark matrix (schema v3); empty when the
    /// matrix pass was not run. Cell 0 duplicates the headline scenario
    /// (measured separately, with fewer repeats).
    pub matrix: Vec<MatrixCell>,
    /// Sweep-executor throughput section (schema v2); `None` when the
    /// sweep bench was not run.
    pub sweep: Option<SweepBenchReport>,
}

fn build_system() -> (System, GroupId) {
    let topo = tigerton();
    let cores: Vec<CoreId> = topo.core_ids().collect();
    let app_group = GroupId(0);
    let speed =
        SpeedBalancer::with_config(Default::default(), BENCH_SEED).managing(vec![app_group], cores);
    let bal = Box::new(CompositeBalancer::new(
        vec![app_group],
        Box::new(speed),
        Box::new(LinuxLoadBalancer::new()),
    ));
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        CostModel::default(),
        bal,
        BENCH_SEED,
    );
    let g = sys.new_group();
    debug_assert_eq!(g, app_group);
    (sys, app_group)
}

struct RunOutcome {
    steps: u64,
    sim_secs: f64,
    wall_ns: u128,
    cancellations: u64,
}

fn run_once(scale: f64) -> RunOutcome {
    let (mut sys, group) = build_system();
    let app = cg_b().spmd(64, WaitMode::Yield, scale);
    SpmdApp::spawn(&mut sys, group, &app, None);
    let deadline = SimTime::ZERO + SimDuration::from_secs(600);
    let start = Instant::now();
    let mut steps: u64 = 0;
    loop {
        if sys.group_finished_at(group).is_some() {
            break;
        }
        if sys.now() > deadline || !sys.step() {
            break;
        }
        steps += 1;
    }
    RunOutcome {
        steps,
        sim_secs: sys.now().as_secs_f64(),
        wall_ns: start.elapsed().as_nanos(),
        cancellations: sys.event_cancellations(),
    }
}

// ----------------------------------------------------------------------
// The benchmark matrix (schema v3)
// ----------------------------------------------------------------------

#[derive(Clone, Copy)]
enum CellMachine {
    /// 16-core Table 1 flagship (the headline machine).
    Tigerton,
    /// 4 P-cores + 8 E-cores at 0.55× — the asymmetric-speed dispatch path.
    BigLittle4p8e,
    /// Small uniform box for the server cells.
    Uniform4,
}

#[derive(Clone, Copy)]
enum CellPolicy {
    /// Speed balancing over Linux (the paper's SPEED arrangement).
    Speed,
    /// Plain Linux queue-length balancing.
    Load,
    /// DWRR — the one stock policy that consumes per-deschedule events,
    /// so it exercises the notification path the others skip.
    Dwrr,
}

#[derive(Clone, Copy)]
enum CellApp {
    /// Barrier-every-4ms SPMD job with yielding waits (event-rate stress).
    CgB { threads: usize },
    /// One long phase per thread, barrier only at the end.
    Ep { threads: usize },
    /// Open-loop Poisson web serving at ρ=0.6 (timed wakes + blocking).
    WebServe,
}

/// One cell of the v3 benchmark matrix.
struct CellSpec {
    name: &'static str,
    traced: bool,
    machine: CellMachine,
    policy: CellPolicy,
    app: CellApp,
}

/// The fixed grid: every regime the simulator treats differently on its
/// hot path gets at least one cell. Cell 0 is the headline scenario.
const MATRIX: &[CellSpec] = &[
    CellSpec {
        name: "cg.B-x64/tigerton/SPEED",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Speed,
        app: CellApp::CgB { threads: 64 },
    },
    CellSpec {
        name: "cg.B-x64/tigerton/SPEED+trace",
        traced: true,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Speed,
        app: CellApp::CgB { threads: 64 },
    },
    CellSpec {
        name: "cg.B-x64/tigerton/LOAD",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Load,
        app: CellApp::CgB { threads: 64 },
    },
    CellSpec {
        name: "cg.B-x64/tigerton/DWRR",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Dwrr,
        app: CellApp::CgB { threads: 64 },
    },
    CellSpec {
        name: "ep-x8/tigerton/SPEED",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Speed,
        app: CellApp::Ep { threads: 8 },
    },
    CellSpec {
        name: "ep-x8/tigerton/LOAD",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Load,
        app: CellApp::Ep { threads: 8 },
    },
    CellSpec {
        name: "web-x8/uniform4/SPEED",
        traced: false,
        machine: CellMachine::Uniform4,
        policy: CellPolicy::Speed,
        app: CellApp::WebServe,
    },
    CellSpec {
        name: "web-x8/uniform4/LOAD",
        traced: false,
        machine: CellMachine::Uniform4,
        policy: CellPolicy::Load,
        app: CellApp::WebServe,
    },
    CellSpec {
        name: "cg.B-x24/4p8e/SPEED",
        traced: false,
        machine: CellMachine::BigLittle4p8e,
        policy: CellPolicy::Speed,
        app: CellApp::CgB { threads: 24 },
    },
    CellSpec {
        name: "ep-x12/4p8e/LOAD",
        traced: false,
        machine: CellMachine::BigLittle4p8e,
        policy: CellPolicy::Load,
        app: CellApp::Ep { threads: 12 },
    },
];

/// Measured result of one matrix cell (best repeat).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    pub name: String,
    pub traced: bool,
    pub scale: f64,
    pub repeats: usize,
    /// Deterministic step count (repeat-invariant per cell and scale).
    pub steps: u64,
    pub sim_secs: f64,
    pub ns_per_step: f64,
}

fn cell_balancer(policy: CellPolicy, topo: &Topology, group: GroupId) -> Box<dyn Balancer> {
    match policy {
        CellPolicy::Speed => {
            let cores: Vec<CoreId> = topo.core_ids().collect();
            let speed = SpeedBalancer::with_config(Default::default(), BENCH_SEED)
                .managing(vec![group], cores);
            Box::new(CompositeBalancer::new(
                vec![group],
                Box::new(speed),
                Box::new(LinuxLoadBalancer::new()),
            ))
        }
        CellPolicy::Load => Box::new(LinuxLoadBalancer::new()),
        CellPolicy::Dwrr => Box::new(Dwrr::new()),
    }
}

fn build_cell(spec: &CellSpec, scale: f64) -> (System, GroupId) {
    let topo = match spec.machine {
        CellMachine::Tigerton => tigerton(),
        CellMachine::BigLittle4p8e => big_little_4p8e().topology,
        CellMachine::Uniform4 => uniform(4),
    };
    let group = GroupId(0);
    let bal = cell_balancer(spec.policy, &topo, group);
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        CostModel::default(),
        bal,
        BENCH_SEED,
    );
    if spec.traced {
        sys.enable_tracing();
    }
    let g = sys.new_group();
    debug_assert_eq!(g, group);
    match spec.app {
        CellApp::CgB { threads } => {
            let app = cg_b().spmd(threads, WaitMode::Yield, scale);
            SpmdApp::spawn(&mut sys, group, &app, None);
        }
        CellApp::Ep { threads } => {
            let app = ep().spmd(threads, WaitMode::Yield, scale);
            SpmdApp::spawn(&mut sys, group, &app, None);
        }
        CellApp::WebServe => {
            // Scale shrinks the offered-load window, not the request mix.
            let window = SimDuration::from_millis(((2000.0 * scale) as u64).max(1));
            let cfg = web(8, 4, 0.6, window);
            ServerApp::spawn(&mut sys, group, &cfg, BENCH_SEED);
        }
    }
    (sys, group)
}

/// (steps, sim_secs, wall_ns) of one timed cell run.
fn run_cell_once(spec: &CellSpec, scale: f64) -> (u64, f64, u128) {
    let (mut sys, group) = build_cell(spec, scale);
    let deadline = SimTime::ZERO + SimDuration::from_secs(600);
    let start = Instant::now();
    let mut steps: u64 = 0;
    loop {
        if sys.group_finished_at(group).is_some() {
            break;
        }
        if sys.now() > deadline || !sys.step() {
            break;
        }
        steps += 1;
    }
    (steps, sys.now().as_secs_f64(), start.elapsed().as_nanos())
}

/// Times every matrix cell (best of up to 3 repeats — the cells gate at a
/// coarse tolerance, so they don't need the headline's repeat count) and
/// reports one [`MatrixCell`] per grid entry. `progress` receives one
/// line per cell.
pub fn run_matrix(cfg: &BenchConfig, mut progress: impl FnMut(&str)) -> Vec<MatrixCell> {
    let reps = cfg.repeats.clamp(1, 3);
    MATRIX
        .iter()
        .map(|spec| {
            let mut best: Option<(u64, f64, u128)> = None;
            for _ in 0..reps {
                let out = run_cell_once(spec, cfg.scale);
                if let Some(b) = &best {
                    assert_eq!(b.0, out.0, "nondeterministic matrix cell {}", spec.name);
                }
                if best.as_ref().is_none_or(|b| out.2 < b.2) {
                    best = Some(out);
                }
            }
            let (steps, sim_secs, wall_ns) = best.expect("at least one repeat");
            let ns_per_step = wall_ns as f64 / steps.max(1) as f64;
            progress(&format!(
                "{:<30} {:>9} steps  {:>7.1} ns/step",
                spec.name, steps, ns_per_step
            ));
            MatrixCell {
                name: spec.name.to_string(),
                traced: spec.traced,
                scale: cfg.scale,
                repeats: reps,
                steps,
                sim_secs,
                ns_per_step,
            }
        })
        .collect()
}

/// Per-subsystem wall-clock breakdown of the bench scenario, produced by
/// `speedbal-cli bench --profile`: an instrumented untraced run (phase
/// times from [`speedbal_sched::System::step_profiled`]) plus a traced run
/// whose per-step delta estimates the trace-emission cost.
#[derive(Debug, Clone, Copy)]
pub struct ProfileReport {
    pub scale: f64,
    pub profile: speedbal_sched::StepProfile,
    /// Wall time of the instrumented untraced run.
    pub wall_ns: u64,
    /// Steps and wall time of the instrumented *traced* run (its step count
    /// differs: tracing arms periodic sampler events).
    pub traced_steps: u64,
    pub traced_wall_ns: u64,
}

fn run_once_profiled(scale: f64, traced: bool) -> (speedbal_sched::StepProfile, u64) {
    let (mut sys, group) = build_system();
    if traced {
        sys.enable_tracing();
    }
    let app = cg_b().spmd(64, WaitMode::Yield, scale);
    SpmdApp::spawn(&mut sys, group, &app, None);
    let deadline = SimTime::ZERO + SimDuration::from_secs(600);
    let mut p = speedbal_sched::StepProfile::default();
    let start = Instant::now();
    let ticks_start = speedbal_sched::profile_timestamp();
    loop {
        if sys.group_finished_at(group).is_some() {
            break;
        }
        if sys.now() > deadline || !sys.step_profiled(&mut p) {
            break;
        }
    }
    let ticks = speedbal_sched::profile_timestamp() - ticks_start;
    let wall_ns = start.elapsed().as_nanos() as u64;
    // Phase times accumulate in raw timestamp units (TSC on x86_64);
    // calibrate against the wall clock over the whole run.
    let scale = wall_ns as f64 / ticks.max(1) as f64;
    let cvt = |t: u64| (t as f64 * scale) as u64;
    p.pop_ns = cvt(p.pop_ns);
    p.core_ns = cvt(p.core_ns);
    p.wake_ns = cvt(p.wake_ns);
    p.timer_ns = cvt(p.timer_ns);
    p.other_ns = cvt(p.other_ns);
    p.post_ns = cvt(p.post_ns);
    p.balancer_ns = cvt(p.balancer_ns);
    (p, wall_ns)
}

/// Runs the bench scenario instrumented (once untraced, once traced) and
/// reports the per-subsystem breakdown. Phase timers add overhead — the
/// absolute ns/step here is *higher* than the plain bench; the split, not
/// the total, is the signal.
pub fn run_profile(cfg: &BenchConfig) -> ProfileReport {
    for _ in 0..cfg.warmup {
        run_once(cfg.scale);
    }
    let (profile, wall_ns) = run_once_profiled(cfg.scale, false);
    let (traced, traced_wall_ns) = run_once_profiled(cfg.scale, true);
    ProfileReport {
        scale: cfg.scale,
        profile,
        wall_ns,
        traced_steps: traced.steps,
        traced_wall_ns,
    }
}

impl ProfileReport {
    /// Human-readable breakdown (one line per subsystem), for stderr.
    pub fn render(&self) -> String {
        let p = &self.profile;
        let steps = p.steps.max(1) as f64;
        let per = |ns: u64| ns as f64 / steps;
        let total = self.wall_ns as f64 / steps;
        let phases = [
            ("event-queue pop", p.pop_ns),
            ("core events (desched+dispatch)", p.core_ns),
            ("timed wakes", p.wake_ns),
            ("balancer timers", p.timer_ns),
            ("sampler/freq steps", p.other_ns),
            ("cond drain + notify flush", p.post_ns),
        ];
        let mut s = String::new();
        let _ = writeln!(
            s,
            "profile: {} steps at scale {} (instrumented; split is the signal, not the total)",
            p.steps, self.scale
        );
        let mut accounted = 0u64;
        for (name, ns) in phases {
            accounted += ns;
            let _ = writeln!(
                s,
                "  {name:<31} {:>7.1} ns/step  ({:>4.1}%)",
                per(ns),
                100.0 * ns as f64 / self.wall_ns.max(1) as f64
            );
        }
        let _ = writeln!(
            s,
            "  {:<31} {:>7.1} ns/step",
            "timer + loop overhead",
            total - per(accounted)
        );
        let _ = writeln!(
            s,
            "  of the above, inside balancer hooks: {:.1} ns/step",
            per(p.balancer_ns)
        );
        let traced = self.traced_wall_ns as f64 / self.traced_steps.max(1) as f64;
        let _ = writeln!(
            s,
            "trace emit: traced run {:.1} ns/step over {} steps (untraced {:.1}) => ~{:+.1} ns/step",
            traced,
            self.traced_steps,
            total,
            traced - total
        );
        s
    }
}

/// `VmHWM` from `/proc/self/status`, in kB (0 where unavailable).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs the benchmark scenario `cfg.warmup + cfg.repeats` times and
/// reports the best repeat. `progress` receives one line per timed repeat.
pub fn run_bench(cfg: &BenchConfig, mut progress: impl FnMut(&str)) -> BenchReport {
    for _ in 0..cfg.warmup {
        run_once(cfg.scale);
    }
    let mut best: Option<RunOutcome> = None;
    for r in 0..cfg.repeats.max(1) {
        let out = run_once(cfg.scale);
        let ns = out.wall_ns as f64 / out.steps.max(1) as f64;
        progress(&format!(
            "repeat {}/{}: {} steps, {:.1} ns/step",
            r + 1,
            cfg.repeats.max(1),
            out.steps,
            ns
        ));
        if let Some(b) = &best {
            debug_assert_eq!(b.steps, out.steps, "nondeterministic benchmark run");
        }
        if best.as_ref().is_none_or(|b| out.wall_ns < b.wall_ns) {
            best = Some(out);
        }
    }
    let best = best.expect("at least one repeat");
    let ns_per_step = best.wall_ns as f64 / best.steps.max(1) as f64;
    BenchReport {
        scenario: BENCH_SCENARIO.to_string(),
        scale: cfg.scale,
        repeats: cfg.repeats.max(1),
        warmup: cfg.warmup,
        steps: best.steps,
        sim_secs: best.sim_secs,
        ns_per_step,
        steps_per_sec: 1e9 / ns_per_step,
        cancellations: best.cancellations,
        peak_rss_kb: peak_rss_kb(),
        matrix: Vec::new(),
        sweep: None,
    }
}

/// The deterministic scenario grid behind the sweep throughput bench:
/// three policies × four thread counts of EP on a 4-core uniform machine,
/// two repeats each — 12 cells with a spread of costs, so the LPT
/// scheduler and the cache both get exercised.
fn sweep_bench_scenarios(scale: f64) -> Vec<crate::scenario::Scenario> {
    use crate::scenario::{Machine, Policy, Scenario};
    let mut v = Vec::new();
    for policy in [Policy::Speed, Policy::Load, Policy::Pinned] {
        for threads in [3usize, 5, 6, 8] {
            let app = speedbal_workloads::ep().spmd(threads, WaitMode::Yield, scale);
            v.push(Scenario::new(Machine::Uniform(4), 0, policy.clone(), app).repeats(2));
        }
    }
    v
}

/// Benchmarks the sweep executor: a cold pass over a fixed 12-cell scenario grid
/// (every cell simulated and persisted to a private cache directory) and a
/// warm pass (every cell answered from the cache). Reports cold-pass
/// throughput and warm-pass hit count; warm results are asserted
/// bit-identical to cold ones.
pub fn run_sweep_bench(cfg: &BenchConfig) -> SweepBenchReport {
    use crate::sweep;
    // A private cache directory guarantees a genuinely cold first pass and
    // a fully-warm second pass, without touching the user's cache.
    let dir = std::env::temp_dir().join(format!("speedbal-sweep-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prev_enabled = sweep::cache_enabled();
    sweep::set_cache_dir(Some(dir.clone()));
    sweep::set_cache_enabled(true);

    // A fraction of the hot-path bench scale: the grid multiplies the work
    // by 12 cells × 2 repeats.
    let scale = (cfg.scale * 0.2).max(0.005);
    let jobs_of = |scenarios: Vec<crate::scenario::Scenario>| {
        scenarios
            .into_iter()
            .map(|s| {
                let key = sweep::scenario_cache_key(&s);
                let cost = sweep::scenario_cost(&s);
                sweep::SweepJob::cached(cost, key, move || crate::scenario::run_scenario(&s))
            })
            .collect::<Vec<_>>()
    };
    let (cold, cold_stats) = sweep::run_sweep_with_stats(jobs_of(sweep_bench_scenarios(scale)));
    let (warm, warm_stats) = sweep::run_sweep_with_stats(jobs_of(sweep_bench_scenarios(scale)));

    sweep::set_cache_enabled(prev_enabled);
    sweep::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(&dir);

    for (c, w) in cold.iter().zip(&warm) {
        let bits = |s: &crate::scenario::ScenarioResult| {
            s.completion
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(c), bits(w), "cache replay must be bit-identical");
    }

    SweepBenchReport {
        cells: cold_stats.cells,
        wall_secs: cold_stats.wall_secs,
        cells_per_sec: cold_stats.cells_per_sec(),
        cache_hits: warm_stats.cache_hits,
        jobs: sweep::effective_jobs(),
    }
}

// ----------------------------------------------------------------------
// JSON (hand-rolled: the workspace vendors no JSON crate)
// ----------------------------------------------------------------------

/// Optional pre-optimization baseline preserved verbatim when a report is
/// written over an existing `BENCH_sim.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    pub commit: String,
    pub ns_per_step: f64,
    pub steps: u64,
    pub peak_rss_kb: u64,
}

/// The pre-optimization baseline this PR measured (best of 3 at scale
/// 1.0, post-and-invalidate event queue + table-scan accounting). Used to
/// seed the `before` block when `BENCH_sim.json` does not already carry
/// one; regeneration preserves whatever block the committed file has.
pub fn recorded_baseline() -> Baseline {
    Baseline {
        commit: "b3684ea".to_string(),
        ns_per_step: 246.5,
        steps: 1_690_700,
        peak_rss_kb: 2716,
    }
}

fn fmt_f64(v: f64) -> String {
    // Stable, round-trippable formatting: integers stay integral-looking.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl BenchReport {
    /// Serializes the report (plus an optional preserved `before` block)
    /// as the `BENCH_sim.json` document.
    pub fn to_json(&self, before: Option<&Baseline>) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"speedbal-bench-v3\",");
        let _ = writeln!(s, "  \"scenario\": \"{}\",", self.scenario);
        if let Some(b) = before {
            let _ = writeln!(s, "  \"before\": {{");
            let _ = writeln!(s, "    \"commit\": \"{}\",", b.commit);
            let _ = writeln!(s, "    \"ns_per_step\": {},", fmt_f64(b.ns_per_step));
            let _ = writeln!(s, "    \"steps\": {},", b.steps);
            let _ = writeln!(s, "    \"peak_rss_kb\": {}", b.peak_rss_kb);
            let _ = writeln!(s, "  }},");
        }
        let _ = writeln!(s, "  \"after\": {{");
        let _ = writeln!(s, "    \"scale\": {},", fmt_f64(self.scale));
        let _ = writeln!(s, "    \"repeats\": {},", self.repeats);
        let _ = writeln!(s, "    \"warmup\": {},", self.warmup);
        let _ = writeln!(s, "    \"steps\": {},", self.steps);
        let _ = writeln!(s, "    \"sim_secs\": {},", fmt_f64(self.sim_secs));
        let _ = writeln!(s, "    \"ns_per_step\": {},", fmt_f64(self.ns_per_step));
        let _ = writeln!(s, "    \"steps_per_sec\": {},", fmt_f64(self.steps_per_sec));
        let _ = writeln!(s, "    \"cancellations\": {},", self.cancellations);
        let _ = writeln!(s, "    \"peak_rss_kb\": {}", self.peak_rss_kb);
        if !self.matrix.is_empty() {
            let _ = writeln!(s, "  }},");
            let _ = writeln!(s, "  \"matrix\": [");
            for (i, c) in self.matrix.iter().enumerate() {
                let _ = writeln!(s, "    {{");
                let _ = writeln!(s, "      \"name\": \"{}\",", c.name);
                let _ = writeln!(s, "      \"traced\": {},", c.traced);
                let _ = writeln!(s, "      \"scale\": {},", fmt_f64(c.scale));
                let _ = writeln!(s, "      \"repeats\": {},", c.repeats);
                let _ = writeln!(s, "      \"steps\": {},", c.steps);
                let _ = writeln!(s, "      \"sim_secs\": {},", fmt_f64(c.sim_secs));
                let _ = writeln!(s, "      \"ns_per_step\": {}", fmt_f64(c.ns_per_step));
                let sep = if i + 1 < self.matrix.len() { "," } else { "" };
                let _ = writeln!(s, "    }}{sep}");
            }
            s.push_str("  ]");
            let _ = writeln!(s, "{}", if self.sweep.is_some() { "," } else { "" });
            if self.sweep.is_none() {
                s.push_str("}\n");
                return s;
            }
        }
        match &self.sweep {
            None => {
                let _ = writeln!(s, "  }}");
            }
            Some(sw) => {
                if self.matrix.is_empty() {
                    let _ = writeln!(s, "  }},");
                }
                let _ = writeln!(s, "  \"sweep\": {{");
                let _ = writeln!(s, "    \"cells\": {},", sw.cells);
                let _ = writeln!(s, "    \"wall_secs\": {},", fmt_f64(sw.wall_secs));
                let _ = writeln!(s, "    \"cells_per_sec\": {},", fmt_f64(sw.cells_per_sec));
                let _ = writeln!(s, "    \"cache_hits\": {},", sw.cache_hits);
                let _ = writeln!(s, "    \"jobs\": {}", sw.jobs);
                let _ = writeln!(s, "  }}");
            }
        }
        s.push_str("}\n");
        s
    }
}

/// A parsed `BENCH_sim.json` document: the `after` measurements plus the
/// optional `before` baseline and (schema v2) sweep-throughput section.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    pub before: Option<Baseline>,
    pub after_ns_per_step: f64,
    pub after_steps: u64,
    pub after_scale: f64,
    /// The committed `matrix` section (schema v3); empty for v1/v2
    /// documents, which checked the headline scenario only.
    pub matrix: Vec<MatrixCellDoc>,
    pub sweep: Option<SweepDoc>,
}

/// One committed matrix cell of a schema-v3 document.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCellDoc {
    pub name: String,
    pub traced: bool,
    pub scale: f64,
    pub steps: u64,
    pub ns_per_step: f64,
}

/// The committed `sweep` section of a schema-v2 document.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDoc {
    pub cells: u64,
    pub cells_per_sec: f64,
    pub cache_hits: u64,
}

/// Parses the subset of JSON that `BenchReport::to_json` emits (flat
/// objects of strings and numbers, nested one level).
pub fn parse_bench_doc(text: &str) -> Result<BenchDoc, String> {
    let root = json::parse(text)?;
    let obj = root.as_obj().ok_or("top level is not an object")?;
    let after = json::get(obj, "after")
        .and_then(|v| v.as_obj())
        .ok_or("missing \"after\" object")?;
    let num = |o: &[(String, json::Value)], k: &str| -> Result<f64, String> {
        json::get(o, k)
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("missing numeric \"{k}\""))
    };
    let before = match json::get(obj, "before").and_then(|v| v.as_obj()) {
        Some(b) => Some(Baseline {
            commit: json::get(b, "commit")
                .and_then(|v| v.as_str())
                .unwrap_or_default()
                .to_string(),
            ns_per_step: num(b, "ns_per_step")?,
            steps: num(b, "steps")? as u64,
            peak_rss_kb: num(b, "peak_rss_kb").unwrap_or(0.0) as u64,
        }),
        None => None,
    };
    let sweep = match json::get(obj, "sweep").and_then(|v| v.as_obj()) {
        Some(sw) => Some(SweepDoc {
            cells: num(sw, "cells")? as u64,
            cells_per_sec: num(sw, "cells_per_sec")?,
            cache_hits: num(sw, "cache_hits")? as u64,
        }),
        None => None,
    };
    let mut matrix = Vec::new();
    if let Some(json::Value::Arr(cells)) = json::get(obj, "matrix") {
        for v in cells {
            let c = v.as_obj().ok_or("matrix cell is not an object")?;
            matrix.push(MatrixCellDoc {
                name: json::get(c, "name")
                    .and_then(|v| v.as_str())
                    .ok_or("matrix cell missing \"name\"")?
                    .to_string(),
                traced: json::get(c, "traced")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false),
                scale: num(c, "scale")?,
                steps: num(c, "steps")? as u64,
                ns_per_step: num(c, "ns_per_step")?,
            });
        }
    }
    Ok(BenchDoc {
        before,
        after_ns_per_step: num(after, "ns_per_step")?,
        after_steps: num(after, "steps")? as u64,
        after_scale: num(after, "scale")?,
        matrix,
        sweep,
    })
}

/// Compares a fresh run against the committed document. Fails when the
/// fresh ns/step exceeds `tolerance` × the committed value, or — when the
/// scales match, making the schedules identical — when the deterministic
/// step count diverges.
pub fn check_against(
    fresh: &BenchReport,
    committed: &BenchDoc,
    tolerance: f64,
) -> Result<String, String> {
    if fresh.scale == committed.after_scale && fresh.steps != committed.after_steps {
        return Err(format!(
            "step count diverged from committed baseline: {} != {} \
             (same scale {} must replay the identical schedule)",
            fresh.steps, committed.after_steps, fresh.scale
        ));
    }
    let limit = committed.after_ns_per_step * tolerance;
    if fresh.ns_per_step > limit {
        return Err(format!(
            "perf regression: {:.1} ns/step > {:.1} allowed \
             (committed {:.1} × tolerance {tolerance})",
            fresh.ns_per_step, limit, committed.after_ns_per_step
        ));
    }
    // Per-cell matrix gating (schema v3): every committed cell must be
    // present in the fresh run, replay the identical schedule at the same
    // scale, and stay within tolerance — failures name the cell.
    if !committed.matrix.is_empty() && !fresh.matrix.is_empty() {
        for cell in &committed.matrix {
            let Some(f) = fresh.matrix.iter().find(|f| f.name == cell.name) else {
                return Err(format!(
                    "matrix cell \"{}\" missing from the fresh run",
                    cell.name
                ));
            };
            if f.scale == cell.scale && f.steps != cell.steps {
                return Err(format!(
                    "matrix cell \"{}\": step count diverged from committed \
                     baseline: {} != {} (same scale {} must replay the \
                     identical schedule)",
                    cell.name, f.steps, cell.steps, cell.scale
                ));
            }
            let cell_limit = cell.ns_per_step * tolerance;
            if f.ns_per_step > cell_limit {
                return Err(format!(
                    "matrix cell \"{}\": perf regression: {:.1} ns/step > \
                     {:.1} allowed (committed {:.1} × tolerance {tolerance})",
                    cell.name, f.ns_per_step, cell_limit, cell.ns_per_step
                ));
            }
        }
    }
    // Tracing overhead gate: every traced cell in the fresh run is paired
    // with its untraced twin (same name minus the "+trace" suffix) and the
    // ratio must stay under the allowed ceiling — the 1.5x target, or the
    // committed pair's own ratio × 1.15 while that is worse (see the
    // TRACE_OVERHEAD_LIMIT rustdoc). The ratio compares the fresh run
    // against itself — both cells ran in the same process minutes apart —
    // so it is far less noise-prone than comparing ns/step across hosts.
    for f in &fresh.matrix {
        if !f.traced {
            continue;
        }
        let base = f.name.strip_suffix("+trace").unwrap_or(&f.name);
        let pair = |m: &[MatrixCellDoc]| -> Option<f64> {
            let t = m.iter().find(|p| p.traced && p.name == f.name)?;
            let u = m.iter().find(|p| !p.traced && p.name == base)?;
            Some(t.ns_per_step / u.ns_per_step)
        };
        let Some(plain) = fresh.matrix.iter().find(|p| !p.traced && p.name == base) else {
            continue;
        };
        let allowed = pair(&committed.matrix)
            .map_or(TRACE_OVERHEAD_LIMIT, |c| TRACE_OVERHEAD_LIMIT.max(c * 1.15));
        let ratio = f.ns_per_step / plain.ns_per_step;
        if ratio > allowed {
            return Err(format!(
                "tracing overhead regression: \"{}\" runs {:.1} ns/step vs \
                 {:.1} untraced ({ratio:.2}x > {allowed:.2}x allowed)",
                f.name, f.ns_per_step, plain.ns_per_step
            ));
        }
    }
    // The sweep section gates only when both sides carry one (v1 documents
    // and bench runs without the sweep pass stay comparable).
    if let (Some(fresh_sw), Some(committed_sw)) = (&fresh.sweep, &committed.sweep) {
        if fresh_sw.cache_hits != fresh_sw.cells {
            return Err(format!(
                "sweep cache broken: warm pass hit {} of {} cells",
                fresh_sw.cache_hits, fresh_sw.cells
            ));
        }
        let floor = committed_sw.cells_per_sec / tolerance;
        if fresh_sw.cells_per_sec < floor {
            return Err(format!(
                "sweep throughput regression: {:.1} cells/sec < {:.1} allowed \
                 (committed {:.1} ÷ tolerance {tolerance})",
                fresh_sw.cells_per_sec, floor, committed_sw.cells_per_sec
            ));
        }
    }
    Ok(format!(
        "ok: {:.1} ns/step within {tolerance}x of committed {:.1} \
         ({} matrix cells checked)",
        fresh.ns_per_step,
        committed.after_ns_per_step,
        committed.matrix.len().min(fresh.matrix.len())
    ))
}

/// Minimal recursive-descent JSON reader for the bench document and the
/// sweep result cache (the workspace vendors no JSON crate).
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Num(f64),
        Str(String),
        Bool(bool),
        Null,
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }

        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.ws();
            self.b
                .get(self.i)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found '{}'",
                    c as char, self.i, self.b[self.i] as char
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                _ => self.number(),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut m = Vec::new();
            if self.peek()? == b'}' {
                self.i += 1;
                return Ok(Value::Obj(m));
            }
            loop {
                let k = self.string()?;
                self.eat(b':')?;
                m.push((k, self.value()?));
                match self.peek()? {
                    b',' => self.i += 1,
                    b'}' => {
                        self.i += 1;
                        return Ok(Value::Obj(m));
                    }
                    c => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut a = Vec::new();
            if self.peek()? == b']' {
                self.i += 1;
                return Ok(Value::Arr(a));
            }
            loop {
                a.push(self.value()?);
                match self.peek()? {
                    b',' => self.i += 1,
                    b']' => {
                        self.i += 1;
                        return Ok(Value::Arr(a));
                    }
                    c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut s = String::new();
            loop {
                let c = *self
                    .b
                    .get(self.i)
                    .ok_or_else(|| "unterminated string".to_string())?;
                self.i += 1;
                match c {
                    b'"' => return Ok(s),
                    b'\\' => {
                        let e = *self
                            .b
                            .get(self.i)
                            .ok_or_else(|| "unterminated escape".to_string())?;
                        self.i += 1;
                        s.push(match e {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            other => return Err(format!("unsupported escape \\{}", other as char)),
                        });
                    }
                    other => s.push(other as char),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            self.ws();
            let start = self.i;
            while self.i < self.b.len()
                && matches!(
                    self.b[self.i],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            scenario: BENCH_SCENARIO.to_string(),
            scale: 1.0,
            repeats: 5,
            warmup: 1,
            steps: 1_659_542,
            sim_secs: 5.815,
            ns_per_step: 120.5,
            steps_per_sec: 1e9 / 120.5,
            cancellations: 31_173,
            peak_rss_kb: 2900,
            matrix: Vec::new(),
            sweep: None,
        }
    }

    fn cell(name: &str, ns: f64) -> MatrixCell {
        MatrixCell {
            name: name.to_string(),
            traced: false,
            scale: 1.0,
            repeats: 3,
            steps: 100_000,
            sim_secs: 1.0,
            ns_per_step: ns,
        }
    }

    #[test]
    fn json_roundtrip_with_before_block() {
        let before = Baseline {
            commit: "b3684ea".into(),
            ns_per_step: 246.5,
            steps: 1_690_700,
            peak_rss_kb: 2716,
        };
        let text = report().to_json(Some(&before));
        let doc = parse_bench_doc(&text).unwrap();
        assert_eq!(doc.before, Some(before));
        assert_eq!(doc.after_steps, 1_659_542);
        assert!((doc.after_ns_per_step - 120.5).abs() < 1e-9);
        assert!((doc.after_scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_without_before_block() {
        let text = report().to_json(None);
        let doc = parse_bench_doc(&text).unwrap();
        assert!(doc.before.is_none());
        assert_eq!(doc.after_steps, 1_659_542);
    }

    #[test]
    fn matrix_roundtrips_and_fails_with_named_cell() {
        let mut fresh = report();
        fresh.matrix = vec![
            cell("cg.B-x64/tigerton/SPEED", 90.0),
            cell("ep-x8/tigerton/LOAD", 40.0),
        ];
        fresh.matrix[0].traced = false;

        // Round-trip: both cells parse back with their fields intact, with
        // and without a trailing sweep section.
        for with_sweep in [false, true] {
            let mut r = fresh.clone();
            if with_sweep {
                r.sweep = Some(SweepBenchReport {
                    cells: 12,
                    wall_secs: 0.5,
                    cells_per_sec: 24.0,
                    cache_hits: 12,
                    jobs: 4,
                });
            }
            let doc = parse_bench_doc(&r.to_json(None)).unwrap();
            assert_eq!(doc.matrix.len(), 2, "with_sweep={with_sweep}");
            assert_eq!(doc.matrix[0].name, "cg.B-x64/tigerton/SPEED");
            assert_eq!(doc.matrix[1].steps, 100_000);
            assert!((doc.matrix[1].ns_per_step - 40.0).abs() < 1e-9);
            assert_eq!(doc.sweep.is_some(), with_sweep);
        }

        let doc = parse_bench_doc(&fresh.to_json(None)).unwrap();
        assert!(check_against(&fresh, &doc, 2.0).is_ok());

        // One cell regresses beyond tolerance: the error names it.
        let mut slow = fresh.clone();
        slow.matrix[1].ns_per_step = 40.0 * 2.5;
        let err = check_against(&slow, &doc, 2.0).unwrap_err();
        assert!(err.contains("ep-x8/tigerton/LOAD"), "{err}");

        // A cell's deterministic step count diverging at the same scale is
        // a correctness failure, not noise.
        let mut diverged = fresh.clone();
        diverged.matrix[0].steps += 1;
        let err = check_against(&diverged, &doc, 2.0).unwrap_err();
        assert!(err.contains("cg.B-x64/tigerton/SPEED"), "{err}");
        assert!(err.contains("diverged"), "{err}");

        // A committed cell missing from the fresh run is flagged by name.
        let mut missing = fresh.clone();
        missing.matrix.remove(1);
        let err = check_against(&missing, &doc, 2.0).unwrap_err();
        assert!(err.contains("ep-x8/tigerton/LOAD"), "{err}");
        assert!(err.contains("missing"), "{err}");

        // v2 documents (no matrix) still check cleanly against v3 runs.
        let v2 = parse_bench_doc(&report().to_json(None)).unwrap();
        assert!(v2.matrix.is_empty());
        assert!(check_against(&fresh, &v2, 2.0).is_ok());
    }

    /// The real grid runs deterministically end to end (tiny scale): two
    /// passes produce identical step counts for every cell, the grid has
    /// the v3 minimum of 9 cells, and the headline cell replays the exact
    /// headline-scenario schedule.
    #[test]
    fn matrix_cells_run_deterministically() {
        let cfg = BenchConfig {
            scale: 0.02,
            repeats: 1,
            warmup: 0,
        };
        let a = run_matrix(&cfg, |_| {});
        let b = run_matrix(&cfg, |_| {});
        assert!(a.len() >= 9, "matrix must span at least 9 cells");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.steps, y.steps, "cell {} not deterministic", x.name);
            assert!(x.steps > 100, "cell {} does no real work", x.name);
        }
        // Cell 0 is the headline scenario measured by run_bench.
        let headline = run_bench(&cfg, |_| {});
        assert_eq!(a[0].steps, headline.steps);
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_beyond() {
        let fresh = report();
        let text = report().to_json(None);
        let doc = parse_bench_doc(&text).unwrap();
        assert!(check_against(&fresh, &doc, 2.0).is_ok());

        let mut slow = report();
        slow.ns_per_step = doc.after_ns_per_step * 2.5;
        assert!(check_against(&slow, &doc, 2.0).is_err());
    }

    #[test]
    fn check_fails_on_step_divergence_at_same_scale() {
        let text = report().to_json(None);
        let doc = parse_bench_doc(&text).unwrap();
        let mut fresh = report();
        fresh.steps += 1;
        let err = check_against(&fresh, &doc, 2.0).unwrap_err();
        assert!(err.contains("diverged"), "{err}");

        // Different scale ⇒ different schedule; only perf is compared.
        fresh.scale = 0.25;
        assert!(check_against(&fresh, &doc, 2.0).is_ok());
    }

    #[test]
    fn trace_overhead_ratio_gates_paired_cells() {
        let mut fresh = report();
        fresh.matrix = vec![
            cell("cg.B-x64/tigerton/SPEED", 90.0),
            cell(
                "cg.B-x64/tigerton/SPEED+trace",
                90.0 * TRACE_OVERHEAD_LIMIT * 0.95,
            ),
        ];
        fresh.matrix[1].traced = true;
        let doc = parse_bench_doc(&fresh.to_json(None)).unwrap();
        assert!(check_against(&fresh, &doc, 2.0).is_ok());

        // Traced cell blowing past the ratio ceiling fails even though it
        // is within the cross-run ns/step tolerance of the committed cell.
        let mut slow = fresh.clone();
        slow.matrix[1].ns_per_step = 90.0 * TRACE_OVERHEAD_LIMIT * 1.6;
        let err = check_against(&slow, &doc, 3.0).unwrap_err();
        assert!(err.contains("tracing overhead"), "{err}");
        assert!(err.contains("SPEED+trace"), "{err}");

        // A committed capture whose own ratio is above the target raises
        // the allowed ceiling to committed × 1.15 — today's honest numbers
        // keep passing against themselves…
        let mut hot = fresh.clone();
        hot.matrix[1].ns_per_step = 90.0 * TRACE_OVERHEAD_LIMIT * 1.12;
        let hot_doc = parse_bench_doc(&hot.to_json(None)).unwrap();
        assert!(check_against(&hot, &hot_doc, 2.0).is_ok());
        // …while a real regression beyond that ceiling still fails.
        let mut worse = hot.clone();
        worse.matrix[1].ns_per_step = hot.matrix[1].ns_per_step * 1.4;
        let err = check_against(&worse, &hot_doc, 3.0).unwrap_err();
        assert!(err.contains("tracing overhead"), "{err}");

        // A traced cell with no untraced twin in the run is not gated.
        let mut orphan = fresh.clone();
        orphan.matrix.remove(0);
        orphan.matrix[0].ns_per_step = 1e6;
        let orphan_doc = parse_bench_doc(&orphan.to_json(None)).unwrap();
        assert!(check_against(&orphan, &orphan_doc, 2.0).is_ok());
    }

    #[test]
    fn sweep_section_roundtrips_and_gates() {
        let mut fresh = report();
        fresh.sweep = Some(SweepBenchReport {
            cells: 12,
            wall_secs: 0.5,
            cells_per_sec: 24.0,
            cache_hits: 12,
            jobs: 4,
        });
        let text = fresh.to_json(None);
        assert!(text.contains("speedbal-bench-v3"));
        let doc = parse_bench_doc(&text).unwrap();
        let sw = doc.sweep.clone().expect("sweep section must parse");
        assert_eq!(sw.cells, 12);
        assert_eq!(sw.cache_hits, 12);
        assert!((sw.cells_per_sec - 24.0).abs() < 1e-9);

        // Within tolerance: fine.
        assert!(check_against(&fresh, &doc, 2.0).is_ok());

        // Throughput collapse beyond tolerance: gated.
        let mut slow = fresh.clone();
        slow.sweep.as_mut().unwrap().cells_per_sec = 24.0 / 2.5;
        let err = check_against(&slow, &doc, 2.0).unwrap_err();
        assert!(err.contains("sweep throughput"), "{err}");

        // A warm pass that misses the cache is a correctness failure.
        let mut cold = fresh.clone();
        cold.sweep.as_mut().unwrap().cache_hits = 3;
        let err = check_against(&cold, &doc, 2.0).unwrap_err();
        assert!(err.contains("cache broken"), "{err}");

        // v1 documents (no sweep section) still check cleanly.
        let v1 = parse_bench_doc(&report().to_json(None)).unwrap();
        assert!(v1.sweep.is_none());
        assert!(check_against(&fresh, &v1, 2.0).is_ok());
    }

    #[test]
    fn sweep_bench_runs_cold_then_fully_warm() {
        let _g = crate::sweep::tests::global_guard();
        let sw = run_sweep_bench(&BenchConfig {
            scale: 0.05,
            repeats: 1,
            warmup: 0,
        });
        assert_eq!(sw.cells, 12);
        assert_eq!(
            sw.cache_hits, sw.cells,
            "second pass must be answered entirely from the cache"
        );
        assert!(sw.wall_secs > 0.0 && sw.cells_per_sec > 0.0);
        assert!(sw.jobs >= 1);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_bench_doc("").is_err());
        assert!(parse_bench_doc("{\"after\": }").is_err());
        assert!(parse_bench_doc("{} trailing").is_err());
        assert!(parse_bench_doc("{\"x\": 1}").is_err(), "missing after");
    }

    /// The quick benchmark really runs the deterministic scenario (tiny
    /// scale to keep the test fast) and produces internally consistent
    /// numbers.
    #[test]
    fn quick_bench_runs_deterministically() {
        let cfg = BenchConfig {
            scale: 0.02,
            repeats: 2,
            warmup: 0,
        };
        let a = run_bench(&cfg, |_| {});
        let b = run_bench(&cfg, |_| {});
        assert_eq!(a.steps, b.steps, "same seed+scale must replay identically");
        assert!(a.steps > 10_000, "scenario should do real work");
        assert!(a.ns_per_step > 0.0);
        assert_eq!(a.cancellations, b.cancellations);
    }
}
