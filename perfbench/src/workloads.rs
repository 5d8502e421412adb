//! The four benchmark workloads. Each iteration builds its inputs from
//! the seed, times set-up and run separately, and returns what the output
//! check and the metrics need. Everything goes through the program's
//! public API; the traced variants only add the wrappers of `probe`.

use crate::probe::{ticks, Clock, Probe, Spans, TimedBalancer, TimedProgram};
use speedbal_apps::{
    generate_requests, Barrier, ServerApp, ServerConfig, SpmdApp, SpmdConfig, SpmdThread, WaitMode,
};
use speedbal_balancers::{CompositeBalancer, LinuxLoadBalancer};
use speedbal_core::stats::SpeedStatsHandle;
use speedbal_core::{SpeedBalancer, SpeedBalancerConfig, SpeedStats};
use speedbal_harness::experiments::Figure;
use speedbal_harness::sweep::scenario_cost;
use speedbal_harness::{
    reset_sweep_stats, run_repeat_detailed, run_scenario, run_scenarios, run_sweep_with_stats,
    scenario_cache_key, set_cache_dir, set_cache_enabled, set_jobs, sweep_stats, Machine, Policy,
    Scenario, ScenarioResult, SweepJob,
};
use speedbal_machine::{CoreId, CostModel, Topology};
use speedbal_metrics::{RepeatStats, Series};
use speedbal_sched::{Balancer, GroupId, SchedConfig, SpawnSpec, System};
use speedbal_sim::{SimDuration, SimTime};
use speedbal_trace::{export_chrome_to, render_summary, TraceConfig};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Simulated-time budget of one SPMD or server run (the harness default).
const DEADLINE: SimDuration = SimDuration::from_secs(600);

/// Set-ups timed per iteration; the last one is run.
const SETUPS_PER_ITER: usize = 5;

/// `web-serve` shape of `speedbal-cli trace`: 24 workers at rho 0.85 on
/// the 16 Tigerton cores, requests generated over 2 simulated seconds.
const SERVE_WORKERS: usize = 24;
const SERVE_CORES: usize = 16;
const SERVE_RHO: f64 = 0.85;

/// Figure 2 sweep size: scale and repeats per cell.
const FIG2_SCALE: f64 = 0.25;
const FIG2_REPEATS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SpmdCg64,
    SpmdEpWide,
    ServeTrace,
    Fig2Sweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SpmdCg64,
        Workload::SpmdEpWide,
        Workload::ServeTrace,
        Workload::Fig2Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpmdCg64 => "spmd-cg64",
            Workload::SpmdEpWide => "spmd-ep-wide",
            Workload::ServeTrace => "serve-trace",
            Workload::Fig2Sweep => "fig2-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Per-layer numbers of one traced iteration (zero where a layer is not
/// on the workload's path). Callback pairs are (calls, total ns).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `System::step` calls and their total ns.
    pub steps: u64,
    pub step_ns: f64,
    pub linux_tick: (u64, f64),
    pub speed_tick: (u64, f64),
    pub wake: (u64, f64),
    pub idle: (u64, f64),
    pub other_bal: (u64, f64),
    pub next: (u64, f64),
    pub balancer_ns: f64,
    pub cancellations: u64,
    pub compactions: u64,
    pub dead_ratio: f64,
    pub switches: u64,
    pub busy_frac: f64,
    pub migrations: u64,
    pub speed: SpeedStats,
    pub generate_s: f64,
    pub trace_records: u64,
    pub trace_dropped: u64,
    pub sweep: SweepLayers,
}

/// Sweep-executor numbers of one traced fig2 iteration.
#[derive(Clone, Debug, Default)]
pub struct SweepLayers {
    pub cells: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub serial_s: f64,
    pub jobs: usize,
    pub cache_bytes: u64,
    pub cell_s_sum: f64,
}

/// What one iteration produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Host seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of the run phase (the cold pass on fig2-sweep).
    pub run_s: f64,
    /// Simulated events the run phase stepped.
    pub events: u64,
    /// Deterministic summary of the outputs; equal across runs of a seed.
    pub fingerprint: String,
    /// Output-check failure, if any.
    pub error: Option<String>,
    pub sim_makespan_s: f64,
    pub sim_p99_ms: f64,
    /// serve-trace sub-phases of the run (seconds): stepping, Chrome
    /// export, text summary, latency quantiles.
    pub step_s: f64,
    pub export_s: f64,
    pub export_bytes: u64,
    pub summary_s: f64,
    pub quantile_s: f64,
    /// fig2-sweep: host seconds of the warm pass.
    pub warm_s: f64,
    pub cells: u64,
    /// Present on traced iterations.
    pub layers: Option<Layers>,
    /// Host probe ns per event around this iteration (plain iterations).
    pub probe_ns: f64,
}

/// A workload bound to its seed and scratch directory, plus any state
/// carried between iterations.
pub struct Bench {
    workload: Workload,
    seed: u64,
    work_dir: PathBuf,
    /// Simulated events in one fig2 cold pass (counted once, untimed).
    fig2_events: u64,
    /// serve-trace export target, reused so that iterations after the
    /// first write into memory that is already mapped.
    export_buf: Vec<u8>,
    iteration: u64,
}

impl Bench {
    pub fn new(workload: Workload, seed: u64, work_dir: PathBuf) -> Bench {
        Bench {
            workload,
            seed,
            work_dir,
            fig2_events: 0,
            export_buf: Vec::new(),
            iteration: 0,
        }
    }

    /// Threads the workload runs on: the sweep workers on fig2-sweep.
    pub fn threads(&self) -> usize {
        match self.workload {
            Workload::Fig2Sweep => speedbal_harness::effective_jobs(),
            _ => 1,
        }
    }

    /// Untimed warm-up. On fig2-sweep it is the event-counting pass
    /// (which runs every cell once) and returns no outcome; elsewhere it
    /// is one plain iteration.
    pub fn warm_up(&mut self, spans: &Spans) -> Option<Outcome> {
        if self.workload == Workload::Fig2Sweep {
            self.fig2_events = count_fig2_events(&fig2_grid(self.seed));
            return None;
        }
        Some(self.iterate(None, spans))
    }

    /// Runs one iteration; `probe` turns on the wrappers and per-call
    /// accumulators, `spans` records the coarse boundaries.
    pub fn iterate(&mut self, probe: Option<&Rc<Probe>>, spans: &Spans) -> Outcome {
        self.iteration += 1;
        match self.workload {
            Workload::SpmdCg64 => {
                let app = speedbal_workloads::cg_b().spmd(64, WaitMode::Yield, 1.0);
                spmd_iteration(Machine::Tigerton, &app, self.seed, probe, spans)
            }
            Workload::SpmdEpWide => {
                let app = speedbal_workloads::ep().spmd(80, WaitMode::Block, 20.0);
                spmd_iteration(Machine::Uniform(64), &app, self.seed, probe, spans)
            }
            Workload::ServeTrace => {
                serve_iteration(self.seed, probe, spans, Some(&mut self.export_buf))
            }
            Workload::Fig2Sweep => {
                let dir = self
                    .work_dir
                    .join(format!("sweep-cache-{}", self.iteration));
                let mut out = fig2_iteration(self.seed, &dir, probe.is_some(), spans);
                out.events = self.fig2_events;
                out
            }
        }
    }

    /// serve-trace stepped with simulator tracing off: the baseline of
    /// `trace.record_ns_per_step`. Returns host ns per simulated event.
    pub fn serve_untraced_ns_per_step(&self, spans: &Spans) -> f64 {
        let out = serve_iteration(self.seed, None, spans, None);
        out.step_s * 1e9 / out.events.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// SPMD workloads
// ---------------------------------------------------------------------

/// SPEED over Linux, exactly as the harness builds `Policy::Speed`, with
/// the speed balancer's stats handle kept for the per-layer counters.
fn speed_balancer(
    cfg: SpeedBalancerConfig,
    topo: &Topology,
    group: GroupId,
    seed: u64,
) -> (Box<dyn Balancer>, SpeedStatsHandle) {
    let cores: Vec<CoreId> = topo.core_ids().collect();
    let speed = SpeedBalancer::with_config(cfg, seed).managing(vec![group], cores);
    let stats = speed.stats_handle();
    let bal = Box::new(CompositeBalancer::new(
        vec![group],
        Box::new(speed),
        Box::new(LinuxLoadBalancer::new()),
    ));
    (bal, stats)
}

fn wrap(bal: Box<dyn Balancer>, probe: Option<&Rc<Probe>>) -> Box<dyn Balancer> {
    match probe {
        Some(p) => Box::new(TimedBalancer::new(bal, p.clone())),
        None => bal,
    }
}

struct SpmdRun {
    sys: System,
    group: GroupId,
    stats: SpeedStatsHandle,
}

fn spmd_setup(
    machine: &Machine,
    app: &SpmdConfig,
    seed: u64,
    probe: Option<&Rc<Probe>>,
) -> SpmdRun {
    let topo = machine.topology();
    let group = GroupId(0);
    let (bal, stats) = speed_balancer(SpeedBalancerConfig::default(), &topo, group, seed);
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        CostModel::default(),
        wrap(bal, probe),
        seed,
    );
    let g = sys.new_group();
    assert_eq!(g, group);
    match probe {
        None => {
            SpmdApp::spawn(&mut sys, group, app, None);
        }
        // `SpmdApp::spawn` with each thread's program wrapped.
        Some(p) => {
            let barrier = Barrier::new(app.threads);
            for i in 0..app.threads {
                let program = TimedProgram::new(SpmdThread::new(barrier.clone(), app), p.clone());
                sys.spawn(
                    SpawnSpec::new(Box::new(program), format!("spmd{i}"), group)
                        .rss(app.rss_per_thread)
                        .mem(app.mem_intensity),
                );
            }
        }
    }
    SpmdRun { sys, group, stats }
}

/// Times `f` `SETUPS_PER_ITER` times and keeps the last result.
fn timed_setups<T>(spans: &Spans, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS_PER_ITER);
    let mut last = None;
    for _ in 0..SETUPS_PER_ITER {
        drop(last.take());
        let span = spans.open("setup", None);
        let v = f();
        times.push(spans.close(span));
        last = Some(v);
    }
    (last.expect("at least one set-up"), times)
}

/// Steps `sys` until `group` finishes or the deadline passes, timing
/// every `System::step` call into `probe.step`.
fn step_loop(
    sys: &mut System,
    group: GroupId,
    deadline: SimTime,
    probe: &Probe,
) -> Option<SimTime> {
    loop {
        if let Some(t) = sys.group_finished_at(group) {
            return Some(t);
        }
        let t0 = ticks();
        let more = sys.step();
        probe.step.add(ticks().wrapping_sub(t0));
        if !more || sys.now() > deadline {
            return sys.group_finished_at(group);
        }
    }
}

/// Runs the group to completion, plainly or through the timed step loop.
fn run_group(
    sys: &mut System,
    group: GroupId,
    probe: Option<&Rc<Probe>>,
) -> (Option<SimTime>, Option<Clock>) {
    let deadline = SimTime::ZERO + DEADLINE;
    match probe {
        None => (sys.run_until_group_done(group, deadline), None),
        Some(p) => {
            p.reset();
            let clock = Clock::start();
            let done = step_loop(sys, group, deadline, p);
            (done, Some(clock))
        }
    }
}

fn spmd_iteration(
    machine: Machine,
    app: &SpmdConfig,
    seed: u64,
    probe: Option<&Rc<Probe>>,
    spans: &Spans,
) -> Outcome {
    let (mut run, setup_s) = timed_setups(spans, || spmd_setup(&machine, app, seed, probe));
    let span = spans.open("run", None);
    let (done, clock) = run_group(&mut run.sys, run.group, probe);
    let run_s = spans.close(span);
    let sys = &run.sys;
    let events = sys.events_processed();
    let makespan = done.map_or(f64::NAN, |t| t.as_secs_f64());
    let migrations = sys.total_migrations();
    let error = done.is_none().then(|| {
        format!(
            "app group did not finish within {} simulated s",
            DEADLINE.as_secs_f64()
        )
    });
    let layers = probe.zip(clock).map(|(p, clock)| {
        let mut l = engine_layers(sys, p, &clock);
        l.busy_frac = busy_frac(sys, makespan);
        l.speed = run.stats.borrow().clone();
        l
    });
    Outcome {
        setup_s,
        run_s,
        events,
        fingerprint: format!("events={events} makespan_s={makespan} migrations={migrations}"),
        error,
        sim_makespan_s: makespan,
        layers,
        ..Outcome::default()
    }
}

fn busy_frac(sys: &System, makespan_s: f64) -> f64 {
    let n = sys.n_cores();
    let busy: f64 = (0..n)
        .map(|c| sys.core_busy_time(CoreId(c)).as_secs_f64())
        .sum();
    busy / (n as f64 * makespan_s)
}

/// Engine counters plus the probe's accumulators converted to ns.
fn engine_layers(sys: &System, p: &Probe, clock: &Clock) -> Layers {
    let ns = clock.ns_per_tick();
    let acc = |a: &crate::probe::Acc| (a.calls(), a.ticks() as f64 * ns);
    Layers {
        steps: p.step.calls(),
        step_ns: p.step.ticks() as f64 * ns,
        linux_tick: acc(&p.linux_tick),
        speed_tick: acc(&p.speed_tick),
        wake: acc(&p.wake),
        idle: acc(&p.idle),
        other_bal: acc(&p.other),
        next: acc(&p.next),
        balancer_ns: p.balancer_ticks() as f64 * ns,
        cancellations: sys.event_cancellations(),
        compactions: sys.event_compactions(),
        dead_ratio: sys.event_dead_ratio(),
        switches: (0..sys.n_cores())
            .map(|c| sys.core_switches(CoreId(c)))
            .sum(),
        migrations: sys.total_migrations(),
        ..Layers::default()
    }
}

// ---------------------------------------------------------------------
// serve-trace
// ---------------------------------------------------------------------

fn serve_config() -> ServerConfig {
    speedbal_workloads::web(
        SERVE_WORKERS,
        SERVE_CORES,
        SERVE_RHO,
        SimDuration::from_secs(2),
    )
}

/// The `speedbal-cli trace web-serve` flow under SPEED: one repeat of the
/// harness scenario, traced, exported to Chrome JSON, summarised, and
/// its latency quantiles extracted into `export` (cleared first).
/// Without `export` the simulator does not trace: the baseline of the
/// record-cost metric.
fn serve_iteration(
    seed: u64,
    probe: Option<&Rc<Probe>>,
    spans: &Spans,
    mut export: Option<&mut Vec<u8>>,
) -> Outcome {
    let sim_trace = export.is_some();
    let cfg = serve_config();
    let ((mut sys, group, app, stats), setup_s) = timed_setups(spans, || {
        // All 16 Tigerton cores, as the scenario's `cores: 16` selects.
        let topo = Machine::Tigerton.topology();
        assert_eq!(topo.n_cores(), SERVE_CORES);
        let group = GroupId(0);
        let (bal, stats) = speed_balancer(SpeedBalancerConfig::default(), &topo, group, seed);
        let mut sys = System::new(
            topo,
            SchedConfig::default(),
            CostModel::default(),
            wrap(bal, probe),
            seed,
        );
        if sim_trace {
            sys.enable_tracing_with(TraceConfig {
                sample_rate: 1.0,
                sample_seed: seed,
                ..TraceConfig::default()
            });
        }
        let g = sys.new_group();
        assert_eq!(g, group);
        // The harness's (empty) competitor group.
        sys.new_group();
        let (app, _) = ServerApp::spawn(&mut sys, group, &cfg, seed);
        (sys, group, app, stats)
    });

    let run_span = spans.open("run", None);
    let step_span = spans.open("step", Some(run_span));
    let (done, clock) = run_group(&mut sys, group, probe);
    let step_s = spans.close(step_span);
    let events = sys.events_processed();

    let mut export_s = 0.0;
    let mut export_bytes = 0;
    let mut summary_s = 0.0;
    let mut summary = String::new();
    let mut records = 0;
    let mut dropped = 0;
    let trace = sys.take_trace();
    if let (Some(buf), Some(out)) = (&trace, export.as_deref_mut()) {
        let span = spans.open("export", Some(run_span));
        out.clear();
        export_chrome_to(buf, &mut *out).expect("writing to memory cannot fail");
        export_s = spans.close(span);
        export_bytes = out.len() as u64;
        let span = spans.open("summary", Some(run_span));
        summary = render_summary(buf);
        summary_s = spans.close(span);
        records = buf.len() as u64;
        dropped = buf.dropped();
    }
    let span = spans.open("quantiles", Some(run_span));
    let m = app.metrics();
    let (p50, p99, p999) = (m.latency.p50(), m.latency.p99(), m.latency.p999());
    let quantile_s = spans.close(span);
    let run_s = spans.close(run_span);
    let export_fnv = export.map_or(0, |out| fnv1a(out));

    let mut error = None;
    if done.is_none() {
        error = Some("server did not drain before the deadline".to_string());
    } else if m.completed + m.dropped() != m.generated {
        error = Some(format!(
            "completed {} + dropped {} != generated {}",
            m.completed,
            m.dropped(),
            m.generated
        ));
    } else if sim_trace && (export_bytes == 0 || summary.is_empty()) {
        error = Some("trace export or summary is empty".to_string());
    }
    let layers = probe.zip(clock).map(|(p, clock)| {
        let mut l = engine_layers(&sys, p, &clock);
        l.busy_frac = busy_frac(&sys, done.map_or(f64::NAN, |t| t.as_secs_f64()));
        l.speed = stats.borrow().clone();
        let t = Instant::now();
        std::hint::black_box(generate_requests(&cfg, seed));
        l.generate_s = t.elapsed().as_secs_f64();
        l.trace_records = records;
        l.trace_dropped = dropped;
        l
    });
    Outcome {
        setup_s,
        run_s,
        events,
        fingerprint: format!(
            "events={events} completed={} p50_ns={p50} p99_ns={p99} p999_ns={p999} \
             export_bytes={export_bytes} export_fnv={export_fnv:016x} summary_fnv={:016x}",
            m.completed,
            fnv1a(summary.as_bytes())
        ),
        error,
        sim_makespan_s: done.map_or(f64::NAN, |t| t.as_secs_f64()),
        sim_p99_ms: p99 as f64 / 1e6,
        step_s,
        export_s,
        export_bytes,
        summary_s,
        quantile_s,
        layers,
        ..Outcome::default()
    }
}

// ---------------------------------------------------------------------
// fig2-sweep
// ---------------------------------------------------------------------

const FIG2_GRANULARITIES_US: [u64; 7] = [100, 500, 1_000, 5_000, 10_000, 50_000, 100_000];
const FIG2_INTERVALS_MS: [u64; 4] = [20, 50, 100, 200];

fn fig2_per_thread() -> SimDuration {
    SimDuration::from_secs(27).mul_f64(FIG2_SCALE)
}

/// The Figure 2 grid of `experiments::fig2`, seeded: 4 speed-balancer
/// intervals x 7 granularities, then LOAD x 7 granularities.
fn fig2_grid(seed: u64) -> Vec<Scenario> {
    let per_thread = fig2_per_thread();
    let app = |g: u64| {
        speedbal_workloads::ep_modified(SimDuration::from_micros(g), per_thread, 3).spmd(
            3,
            WaitMode::Yield,
            1.0,
        )
    };
    let cell = |policy: Policy, g: u64| {
        Scenario::new(Machine::Uniform(2), 0, policy, app(g))
            .repeats(FIG2_REPEATS)
            .seed(seed)
    };
    let mut grid = Vec::new();
    for b in FIG2_INTERVALS_MS {
        for g in FIG2_GRANULARITIES_US {
            let mut cfg = SpeedBalancerConfig::with_interval(SimDuration::from_millis(b));
            cfg.measurement_noise = 0.01;
            grid.push(cell(Policy::SpeedWith(cfg), g));
        }
    }
    for g in FIG2_GRANULARITIES_US {
        grid.push(cell(Policy::Load, g));
    }
    grid
}

/// Renders the sweep's results as Figure 2's text table.
fn fig2_render(results: &[ScenarioResult]) -> String {
    let fair_secs = fig2_per_thread().as_secs_f64() * 3.0 / 2.0;
    let mut results = results.iter();
    let mut series_of = |label: String| {
        let mut s = Series::new(label);
        for g in FIG2_GRANULARITIES_US {
            let res = results.next().expect("one result per grid cell");
            let values = res
                .completion
                .values
                .iter()
                .map(|c| c / fair_secs)
                .collect();
            s.push(g as f64, RepeatStats { values });
        }
        s
    };
    let mut series: Vec<Series> = FIG2_INTERVALS_MS
        .iter()
        .map(|b| series_of(format!("SPEED-B{b}ms")))
        .collect();
    series.push(series_of("LOAD".to_string()));
    Figure {
        id: "fig2".into(),
        title: "3 threads on 2 cores, barrier granularity sweep".into(),
        x_label: "inter-barrier-us".into(),
        y_label: "slowdown vs fair (1.0 = perfect)".into(),
        series,
        notes: Vec::new(),
    }
    .render()
}

/// Simulated events of one cold pass: every repeat of every cell, run
/// once through the harness on all cores. Untimed.
fn count_fig2_events(grid: &[Scenario]) -> u64 {
    let repeats: Vec<(usize, usize)> = (0..grid.len())
        .flat_map(|c| (0..FIG2_REPEATS).map(move |r| (c, r)))
        .collect();
    let next = AtomicUsize::new(0);
    let total = AtomicU64::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(c, r)) = repeats.get(i) else {
                    break;
                };
                let (_, sys) = run_repeat_detailed(&grid[c], r, false);
                total.fetch_add(sys.events_processed(), Ordering::Relaxed);
            });
        }
    });
    total.into_inner()
}

/// Set-up of the sweep: the grid, each cell's cache key, and every
/// cell-repeat's system (machine, balancer, spawned threads), built the
/// way the harness builds them.
fn fig2_setup(seed: u64) -> Vec<Scenario> {
    let grid = fig2_grid(seed);
    for s in &grid {
        std::hint::black_box(scenario_cache_key(s));
        let topo = s.machine.topology();
        for r in 0..s.repeats {
            let rseed = s.seed.wrapping_add(r as u64);
            let group = GroupId(0);
            let bal: Box<dyn Balancer> = match &s.policy {
                Policy::SpeedWith(cfg) => speed_balancer(cfg.clone(), &topo, group, rseed).0,
                _ => Box::new(LinuxLoadBalancer::new()),
            };
            let mut sys = System::new(
                topo.clone(),
                SchedConfig::default(),
                s.cost.clone(),
                bal,
                rseed,
            );
            let g = sys.new_group();
            sys.new_group();
            SpmdApp::spawn(&mut sys, g, &s.app, None);
            std::hint::black_box(&sys);
        }
    }
    grid
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// A cold pass into an empty cache directory followed by a warm pass.
/// `traced` submits the cells as cached jobs of its own that time each
/// cell, and adds a serial cold pass for the parallel-efficiency metric.
fn fig2_iteration(seed: u64, dir: &Path, traced: bool, spans: &Spans) -> Outcome {
    let (grid, setup_s) = timed_setups(spans, || fig2_setup(seed));
    let cells = grid.len() as u64;
    let _ = std::fs::remove_dir_all(dir);
    set_cache_dir(Some(dir.to_path_buf()));
    set_cache_enabled(true);

    let cell_times: Arc<Mutex<Vec<(Instant, u64)>>> = Arc::default();
    let pass = |name: &str| {
        reset_sweep_stats();
        let span = spans.open(name, None);
        let results = if traced {
            let jobs = grid
                .iter()
                .cloned()
                .map(|s| {
                    let times = cell_times.clone();
                    SweepJob::cached(scenario_cost(&s), scenario_cache_key(&s), move || {
                        let start = Instant::now();
                        let res = run_scenario(&s);
                        let ns = start.elapsed().as_nanos() as u64;
                        times.lock().expect("cell timer lock").push((start, ns));
                        res
                    })
                })
                .collect();
            run_sweep_with_stats(jobs).0
        } else {
            run_scenarios(grid.clone())
        };
        let secs = spans.close(span);
        for (start, ns) in cell_times.lock().expect("cell timer lock").drain(..) {
            spans.record("cell", Some(span), start, ns);
        }
        (fig2_render(&results), sweep_stats(), secs)
    };
    let (cold_text, cold, cold_s) = pass("cold-pass");
    let cache_bytes = dir_bytes(dir);
    let (warm_text, warm, warm_s) = pass("warm-pass");
    let _ = std::fs::remove_dir_all(dir);

    let mut error = None;
    if cold.cells != cells || cold.cache_misses != cells || cold.cache_hits != 0 {
        error = Some(format!("cold pass: {cold:?}, expected {cells} misses"));
    } else if warm.cells != cells || warm.cache_hits != cells {
        error = Some(format!("warm pass: {warm:?}, expected {cells} hits"));
    } else if warm_text != cold_text {
        error = Some("warm-pass figure differs from the cold pass".to_string());
    }

    let layers = traced.then(|| {
        let serial_dir = dir.with_extension("serial");
        let _ = std::fs::remove_dir_all(&serial_dir);
        set_cache_dir(Some(serial_dir.clone()));
        let jobs = speedbal_harness::effective_jobs();
        set_jobs(Some(1));
        let span = spans.open("serial-cold-pass", None);
        let serial_text = fig2_render(&run_scenarios(grid.clone()));
        let serial_s = spans.close(span);
        set_jobs(None);
        let _ = std::fs::remove_dir_all(&serial_dir);
        if serial_text != cold_text && error.is_none() {
            error = Some("serial pass figure differs from the parallel pass".to_string());
        }
        let cell_s_sum = spans.child_seconds("cold-pass", "cell");
        Layers {
            sweep: SweepLayers {
                cells,
                cache_hits: warm.cache_hits,
                cache_misses: cold.cache_misses,
                serial_s,
                jobs,
                cache_bytes,
                cell_s_sum,
            },
            ..Layers::default()
        }
    });
    set_cache_enabled(false);
    set_cache_dir(None);
    Outcome {
        setup_s,
        run_s: cold_s,
        fingerprint: format!("figure_fnv={:016x}", fnv1a(cold_text.as_bytes())),
        error,
        warm_s,
        cells,
        layers,
        ..Outcome::default()
    }
}

/// 64-bit FNV-1a, for compact output fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
