//! Repository benchmark for the speed-balancing simulator.
//!
//! ```text
//! speedbal-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                    --work-dir DIR [--spans FILE]
//! ```
//!
//! Repeats one workload for `--seconds` of host time after a warm-up
//! iteration, checks every iteration's outputs, and prints medians. With
//! `--trace 0` the final stdout line is a JSON object carrying the
//! end-to-end metrics, host-adjusted by the probe in `host`; with
//! `--trace 1` it carries the per-layer metrics of a run that alternates
//! plain and instrumented iterations. Lines before it are
//! human-readable: every metric with its unit, the highest percentile
//! that has at least ten samples beyond it, and the sample count, plus
//! the raw timings. `perfbench/run.py` builds this binary and drives it.

mod host;
mod probe;
mod workloads;

use host::{probe_ns, REFERENCE_NS};
use probe::{Probe, Spans};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{Bench, Layers, Outcome, Workload};

/// The default workload seed (the harness's default scenario seed).
const DEFAULT_SEED: u64 = 0xB0A7_10AD;

/// Iterations measured even when one outlasts `--seconds`.
const MIN_ITERS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("bad --seed {v}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&v)
                        .ok_or(format!("unknown workload {v}; known: {}", names.join(", ")))?,
                );
            }
            "--seed" => seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|e| format!("bad --seconds {v}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        spans,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of a fixed ladder of percentiles with at least ten samples
/// beyond it, as `(percentile, value)`.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let idx = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len()) - 1;
            (p, v[idx])
        })
}

/// Collected output: JSON metrics in declaration order, plus the
/// human-readable lines printed before them.
struct Report {
    workload: Workload,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Adds a metric to the JSON result.
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Prints a single-valued metric (a count or a ratio of medians) and
    /// adds it to the JSON result.
    fn value(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.note(name, value, unit);
        self.push(name, value, unit);
    }

    /// Prints a host timing over samples: the median, the highest
    /// percentile with ten samples beyond it, and the sample count.
    /// Returns the median.
    fn timing(&self, name: &str, samples: &[f64], unit: &str) -> f64 {
        let m = median(samples);
        let tail = tail(samples).map_or(
            "no percentile with 10 samples beyond".to_string(),
            |(p, v)| format!("p{p} {v} {unit}"),
        );
        println!(
            "# {} {name} = {m} {unit} (median; {tail}; n={})",
            self.workload.name(),
            samples.len()
        );
        m
    }

    /// Printed for the reader only; not part of the JSON metrics.
    fn note(&self, name: &str, value: f64, unit: &str) {
        println!("# {} {name} = {value} {unit}", self.workload.name());
    }

    fn json(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// Checks one iteration against the reference fingerprint; prints why
/// it failed, if it did.
fn check(out: &Outcome, reference: &str, what: &str) -> bool {
    if let Some(e) = &out.error {
        eprintln!("output check failed ({what}): {e}");
        return false;
    }
    if out.fingerprint != reference {
        eprintln!(
            "output check failed ({what}): fingerprint {} != {reference}",
            out.fingerprint
        );
        return false;
    }
    true
}

fn peak_rss_mb() -> f64 {
    speedbal_harness::perf::peak_rss_kb() as f64 * 1024.0 / 1e6
}

fn collect<T>(outs: &[Outcome], f: impl Fn(&Outcome) -> T) -> Vec<T> {
    outs.iter().map(f).collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let spans = Spans::new();
    let mut bench = Bench::new(args.workload, args.seed, args.work_dir.clone());
    let budget = Duration::from_secs_f64(args.seconds);

    // Warm-up: fills caches and finishes lazy set-up. Its outcome, or
    // else the first measured iteration's, fixes the reference
    // fingerprint every other iteration must reproduce.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut reference = None;
    if let Some(warm) = bench.warm_up(&spans) {
        attempted += 1;
        failed += u64::from(!check(&warm, &warm.fingerprint, "warm-up"));
        reference = Some(warm.fingerprint);
    }

    let probe = Rc::new(Probe::default());
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    let mut record_baseline: Vec<f64> = Vec::new();
    let probe_threads = bench.threads();
    let start = Instant::now();
    while plain.len() < MIN_ITERS || start.elapsed() < budget {
        let before = probe_ns(probe_threads);
        let mut out = bench.iterate(None, &spans);
        out.probe_ns = (before + probe_ns(probe_threads)) / 2.0;
        let reference = reference.get_or_insert_with(|| out.fingerprint.clone());
        attempted += 1;
        failed += u64::from(!check(&out, reference, "plain run"));
        plain.push(out);
        if args.trace {
            let out = bench.iterate(Some(&probe), &spans);
            attempted += 1;
            failed += u64::from(!check(&out, reference, "traced run"));
            traced.push(out);
            if args.workload == Workload::ServeTrace {
                record_baseline.push(bench.serve_untraced_ns_per_step(&spans));
            }
        }
    }

    println!(
        "# {} seed={:#x} fingerprint: {}",
        args.workload.name(),
        args.seed,
        reference.unwrap_or_default()
    );
    let mut report = Report {
        workload: args.workload,
        metrics: Vec::new(),
    };
    print_workload_notes(&report, &plain, attempted, failed);
    if args.trace {
        per_layer(&mut report, &plain, &traced, &record_baseline);
    } else {
        // Timings are host-adjusted: scaled by the reference probe speed
        // over the probe speed measured around the same iteration (see
        // `host`). Raw medians are printed too. Per simulated event, so
        // that seeds whose runs simulate more events stay comparable;
        // `run_s` itself is printed only.
        let adjust = |o: &Outcome| REFERENCE_NS / o.probe_ns;
        let ns = collect(&plain, |o| o.run_s * 1e9 / o.events.max(1) as f64);
        report.timing("raw_ns_per_step", &ns, "ns");
        let ns: Vec<f64> = plain.iter().zip(ns).map(|(o, ns)| ns * adjust(o)).collect();
        let ns = report.timing("ns_per_step", &ns, "ns");
        report.push("ns_per_step", ns, "ns");
        report.timing("run_s", &collect(&plain, |o| o.run_s), "s");
        report.timing("probe_ns", &collect(&plain, |o| o.probe_ns), "ns");
        let (mut raw_setups, mut setups) = (Vec::new(), Vec::new());
        for o in &plain {
            raw_setups.extend(&o.setup_s);
            setups.extend(o.setup_s.iter().map(|s| s * adjust(o)));
        }
        report.timing("raw_setup_s", &raw_setups, "s");
        let setup = report.timing("setup_s", &setups, "s");
        report.push("setup_s", setup, "s");
        report.value("peak_rss_mb", peak_rss_mb(), "MB");
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, spans.to_chrome_json()) {
            eprintln!("warning: could not write spans to {}: {e}", path.display());
        }
    }
    println!("{}", report.json(attempted, failed));
}

/// The workload-owned results: simulated outcomes and sweep throughput.
fn print_workload_notes(report: &Report, plain: &[Outcome], attempted: u64, failed: u64) {
    let first = &plain[0];
    match report.workload {
        Workload::SpmdCg64 | Workload::SpmdEpWide => {
            report.note("sim_makespan_s", first.sim_makespan_s, "s")
        }
        Workload::ServeTrace => report.note("sim_p99_ms", first.sim_p99_ms, "ms"),
        Workload::Fig2Sweep => {
            let cells = first.cells as f64;
            report.note(
                "cells_per_s",
                median(&collect(plain, |o| cells / o.run_s)),
                "1/s",
            );
            report.note(
                "warm_cells_per_s",
                median(&collect(plain, |o| cells / o.warm_s)),
                "1/s",
            );
        }
    }
    report.note("fail_rate", failed as f64 / attempted as f64, "ratio");
}

/// `a / b`, or 0 where a layer is not on the workload's path.
fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median over traced iterations of a per-layer number.
fn med(traced: &[Outcome], f: impl Fn(&Outcome, &Layers) -> f64) -> f64 {
    median(&collect(traced, |o| {
        f(
            o,
            o.layers.as_ref().expect("traced iterations carry layers"),
        )
    }))
}

/// Per-layer metrics: medians over the traced iterations, except the
/// ones timed by coarse spans (export, summary, sweep passes), which
/// come from the plain iterations. Layers off a workload's path read 0.
fn per_layer(r: &mut Report, plain: &[Outcome], traced: &[Outcome], record_baseline: &[f64]) {
    let self_ns = |l: &Layers| l.step_ns - l.balancer_ns - l.next.1;
    let plain_med = |f: &dyn Fn(&Outcome) -> f64| median(&collect(plain, f));
    r.value(
        "sched.step_self_ns",
        med(traced, |_, l| div(self_ns(l), l.steps as f64)),
        "ns",
    );
    r.value("sim.events", med(traced, |o, _| o.events as f64), "count");
    r.value(
        "sim.cancellations_per_kevent",
        med(traced, |o, l| {
            div(l.cancellations as f64 * 1e3, o.events as f64)
        }),
        "1/kevent",
    );
    r.value(
        "sim.compactions",
        med(traced, |_, l| l.compactions as f64),
        "count",
    );
    r.value("sim.dead_ratio", med(traced, |_, l| l.dead_ratio), "ratio");
    r.value(
        "sched.switches",
        med(traced, |_, l| l.switches as f64),
        "count",
    );
    r.value("sched.busy_frac", med(traced, |_, l| l.busy_frac), "ratio");
    r.value(
        "sched.migrations",
        med(traced, |_, l| l.migrations as f64),
        "count",
    );
    r.value(
        "sched.share",
        med(traced, |o, l| div(self_ns(l), o.run_s * 1e9)),
        "ratio",
    );
    type Calls = fn(&Layers) -> (u64, f64);
    let calls: [(&str, &str, Calls); 6] = [
        (
            "balancers.linux_tick_calls",
            "balancers.linux_tick_ns",
            |l| l.linux_tick,
        ),
        ("core.speed_tick_calls", "core.speed_tick_ns", |l| {
            l.speed_tick
        }),
        ("balancers.wake_calls", "balancers.wake_ns", |l| l.wake),
        ("balancers.idle_calls", "balancers.idle_ns", |l| l.idle),
        ("balancers.other_calls", "balancers.other_ns", |l| {
            l.other_bal
        }),
        ("apps.next_calls", "apps.next_ns", |l| l.next),
    ];
    for (name_calls, name_ns, get) in calls {
        r.value(name_calls, med(traced, |_, l| get(l).0 as f64), "count");
        r.value(
            name_ns,
            med(traced, |_, l| div(get(l).1, get(l).0 as f64)),
            "ns",
        );
    }
    r.value(
        "balancers.share",
        med(traced, |_, l| div(l.balancer_ns, l.step_ns)),
        "ratio",
    );
    r.value(
        "apps.share",
        med(traced, |_, l| div(l.next.1, l.step_ns)),
        "ratio",
    );
    r.value(
        "core.migrations_per_activation",
        med(traced, |_, l| l.speed.migrations_per_activation()),
        "ratio",
    );
    r.value(
        "core.no_candidate",
        med(traced, |_, l| l.speed.no_candidate as f64),
        "count",
    );
    r.value(
        "core.blocked_recent",
        med(traced, |_, l| l.speed.blocked_recent as f64),
        "count",
    );
    r.value("sim.makespan_s", med(traced, |o, _| o.sim_makespan_s), "s");
    r.value("sim.p99_ms", med(traced, |o, _| o.sim_p99_ms), "ms");
    r.value(
        "workloads.generate_s",
        med(traced, |_, l| l.generate_s),
        "s",
    );
    r.value(
        "metrics.quantile_us",
        med(traced, |o, _| o.quantile_s * 1e6),
        "us",
    );

    // Simulator tracing is on only in serve-trace; elsewhere both
    // medians are 0.
    let traced_ns = plain_med(&|o| div(o.step_s * 1e9, o.events as f64));
    r.value(
        "trace.record_ns_per_step",
        traced_ns - median(record_baseline),
        "ns",
    );
    r.value(
        "trace.records",
        med(traced, |_, l| l.trace_records as f64),
        "count",
    );
    r.value(
        "trace.dropped",
        med(traced, |_, l| l.trace_dropped as f64),
        "count",
    );
    r.value("trace.export_s", plain_med(&|o| o.export_s), "s");
    r.value(
        "trace.export_mb",
        plain_med(&|o| o.export_bytes as f64 / 1e6),
        "MB",
    );
    r.value("trace.summary_s", plain_med(&|o| o.summary_s), "s");

    r.value(
        "sweep.cells",
        med(traced, |_, l| l.sweep.cells as f64),
        "count",
    );
    r.value(
        "sweep.cache_hits",
        med(traced, |_, l| l.sweep.cache_hits as f64),
        "count",
    );
    r.value(
        "sweep.cache_misses",
        med(traced, |_, l| l.sweep.cache_misses as f64),
        "count",
    );
    r.value(
        "sweep.parallel_eff",
        med(traced, |o, l| {
            div(l.sweep.serial_s, l.sweep.jobs as f64 * o.run_s)
        }),
        "ratio",
    );
    r.value(
        "sweep.cache_mb",
        med(traced, |_, l| l.sweep.cache_bytes as f64 / 1e6),
        "MB",
    );
    r.value(
        "sweep.warm_ms_per_cell",
        plain_med(&|o| div(o.warm_s * 1e3, o.cells as f64)),
        "ms",
    );
    r.value(
        "sweep.cells_per_s",
        plain_med(&|o| o.cells as f64 / o.run_s),
        "1/s",
    );
    r.value(
        "sweep.warm_cells_per_s",
        plain_med(&|o| div(o.cells as f64, o.warm_s)),
        "1/s",
    );

    r.value("bench.probe_ns", plain_med(&|o| o.probe_ns), "ns");
    let traced_run = median(&collect(traced, |o| o.run_s));
    r.value(
        "bench.span_overhead",
        traced_run / plain_med(&|o| o.run_s),
        "ratio",
    );
    // Share of the traced run covered by the layers' own time: step calls
    // plus export, summary and quantiles, or on fig2-sweep the cells' time
    // across the sweep workers. The rest is the benchmark's step loop
    // and timer reads, or idle workers.
    r.value(
        "bench.layer_sum_share",
        med(traced, |o, l| {
            let engine = l.step_ns / 1e9 + o.export_s + o.summary_s + o.quantile_s;
            div(engine, o.run_s) + div(l.sweep.cell_s_sum, l.sweep.jobs as f64 * o.run_s)
        }),
        "ratio",
    );
}
