//! `speedbal-cli` — regenerate every table and figure of *Load Balancing
//! on Speed* (PPoPP'10) on the simulated machines.
//!
//! ```text
//! speedbal-cli [options] <artifact>...
//!
//! artifacts:
//!   fig1        analytic profitability threshold (Lemma 1 sweep)
//!   fig2        3-threads/2-cores granularity × balance-interval sweep
//!   tab1        modelled test systems
//!   fig3        EP speedup, 16 threads on 1..16 cores (both machines)
//!   tab2        NPB catalogue + measured 16-core speedups
//!   tab3        SPEED vs PINNED/LOAD summary over the UPC suite
//!   fig4        per-benchmark improvement/variation distributions
//!   fig5        EP sharing with a cpu-hog pinned to core 0
//!   fig6        NPB sharing with make -j
//!   barriers    §6.2 barrier-implementation interaction
//!   numa        §6.4 NUMA behaviour on Barcelona
//!   serve       open-loop server traffic: tail latency (p50/p99/p999)
//!               under SPEED vs LOAD vs FreeBSD vs DWRR across an
//!               offered-load sweep, arrival shapes (Poisson, bursty,
//!               bounded-queue, fan-out, diurnal replay) and a mixed
//!               SPMD + server tenancy cell
//!   hetero      asymmetric machines (4 P + 8 E big.LITTLE, a turbo
//!               pair, a thermal-throttle ratchet): barrier SPMD and
//!               open-loop serving under each policy, plus SPEED-W —
//!               SPEED with capacity-weighted speed measurement
//!   all         everything above
//!   trace <scenario>  record an event trace of a named scenario
//!                     (ep-3x2, ep-16x8, ep-hog, cg-barrier, web-serve)
//!                     under the SPEED and LOAD policies and print a
//!                     summary
//!   bench       time the event-loop hot path on the 16-core × 64-thread
//!               cg.B scenario and write BENCH_sim.json (see EXPERIMENTS.md)
//!   check       run the correctness subsystem: event-queue differential
//!               fuzz, scenario differential replays, and the Lemma 1
//!               conformance sweep; non-zero exit on any violation
//!   check --fuzz  schedule-space fuzzing: replay the scenario battery
//!               under non-FIFO same-instant orderings (LIFO, seeded
//!               shuffles, a depth-bounded exhaustive walk) and re-check
//!               the Lemma budgets under each; minimized failing
//!               (scenario, repeat, ordering) triples are printed and
//!               written to the --out file (default fuzz_repros.txt)
//!
//! exit codes:
//!   0  success
//!   1  runtime error (unknown artifact, scenario failure, ...)
//!   2  usage error (unknown flag or malformed value)
//!   3  correctness violation (check / check --fuzz found failures)
//!   4  I/O error (a requested path could not be read or written)
//!
//! options:
//!   --full           paper-scale runs (scale 0.5, 10 repeats) [default: quick]
//!   --scale <f>      explicit run-length scale
//!   --repeats <n>    explicit repeat count
//!   --machine <m>    fig3 machine: tigerton | barcelona | nehalem
//!   --policy <p>     trace policy: pinned|load|speed|dwrr|ule|ule-tuned
//!                    [default: speed and load]
//!   --trace-out <f>  write Chrome trace JSON (load in Perfetto). With
//!                    `trace` the files derive from <f>; with any other
//!                    artifact every scenario dumps one file per repeat.
//!   --profile        bench: print a per-subsystem time breakdown (queue
//!                    pops, dispatch, wakes, balancer ticks, trace emit)
//!                    on stderr instead of timing repeats
//!   --quick          bench: quarter-scale workload, best of 3 (CI-sized)
//!                    check: fewer fuzz seeds, smaller grid (CI-sized)
//!   --jobs <n>       sweep-executor worker budget (also caps the
//!                    per-scenario repeat pool); default: SPEEDBAL_JOBS or
//!                    the machine's parallelism. Results are byte-identical
//!                    at every job count.
//!   --no-cache       bypass the content-addressed result cache in
//!                    target/sweep-cache/ (cells always re-run)
//!   --trace-sample <r>  with trace: keep only fraction r of occupancy
//!                    intervals (dispatch + deschedule pairs) and speed
//!                    samples (deterministic per seed); aggregates and
//!                    summaries stay exact
//!   --out <f>        bench: output path [default: BENCH_sim.json]
//!                    check --fuzz: repro file path [default: fuzz_repros.txt]
//!   --check <f>      bench: compare against a committed report instead of
//!                    writing; fail if ns/step exceeds 2x the committed value
//!   --fuzz           check: run the schedule-space fuzzer instead of the
//!                    three standard layers
//!   --corpus <f>     check --fuzz: shuffle-seed corpus file, one seed per
//!                    line (decimal or 0x-hex, # comments)
//!   --only <sub>     check --fuzz: restrict to scenarios whose label
//!                    contains <sub> (repro mode)
//!   --repeat <n>     check --fuzz: pin one repeat index (repro mode)
//!   --ordering <p>   check --fuzz: pin one ordering policy — fifo | lifo |
//!                    shuffle:SEED | exhaustive:K[:C.C.C] (repro mode)
//! ```

use speedbal_check::OrderingPolicy;
use speedbal_harness::experiments::{self, Profile};
use speedbal_harness::perf;
use speedbal_harness::{
    effective_jobs, run_scenario_with_traces, set_cache_enabled, set_jobs, set_trace_output,
    sweep_stats, trace_file_path, Machine, Policy,
};
use speedbal_trace::{export_chrome_to, render_summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Typed runtime failures, each mapped to a documented exit code (see
/// the module docs): artifact/runtime errors exit 1, correctness
/// violations 3, I/O errors 4. Usage errors are caught at parse time
/// and exit 2.
#[derive(Debug)]
enum CliError {
    /// An artifact failed for a non-I/O reason (unknown name, scenario
    /// contract violation, bench regression, ...).
    Runtime(String),
    /// `check` / `check --fuzz` found this many correctness violations.
    CheckFailed(usize),
    /// A user-supplied path could not be read or written.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
}

impl CliError {
    fn io(path: &Path, source: std::io::Error) -> CliError {
        CliError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Runtime(_) => ExitCode::from(1),
            CliError::CheckFailed(_) => ExitCode::from(3),
            CliError::Io { .. } => ExitCode::from(4),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Runtime(msg) => write!(f, "{msg}"),
            CliError::CheckFailed(n) => write!(f, "{n} correctness violation(s)"),
            CliError::Io { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Runtime(msg)
    }
}

#[derive(Debug)]
struct Options {
    profile: Profile,
    /// Did the user pass --repeats explicitly? (`trace` defaults to 1.)
    repeats_explicit: bool,
    machine: Option<Machine>,
    policy: Option<Policy>,
    trace_out: Option<PathBuf>,
    bench_quick: bool,
    bench_out: Option<PathBuf>,
    bench_check: Option<PathBuf>,
    /// Print the per-subsystem time breakdown instead of timing repeats.
    bench_profile: bool,
    /// Sweep-executor worker budget (`--jobs`); falls back to
    /// `SPEEDBAL_JOBS`, then the machine's parallelism.
    jobs: Option<usize>,
    /// Bypass the content-addressed result cache.
    no_cache: bool,
    /// Fraction of high-volume trace records retained (`trace` artifact).
    trace_sample: f64,
    /// `check --fuzz`: run the schedule-space fuzzer.
    fuzz: bool,
    /// `check --fuzz --corpus`: shuffle-seed corpus file.
    fuzz_corpus: Option<PathBuf>,
    /// `check --fuzz --only`: scenario label filter (repro mode).
    fuzz_only: Option<String>,
    /// `check --fuzz --repeat`: pinned repeat index (repro mode).
    fuzz_repeat: Option<usize>,
    /// `check --fuzz --ordering`: pinned ordering policy (repro mode).
    fuzz_ordering: Option<OrderingPolicy>,
    artifacts: Vec<String>,
}

fn parse_policy(v: &str) -> Result<Policy, String> {
    Ok(match v {
        "pinned" => Policy::Pinned,
        "load" => Policy::Load,
        "speed" => Policy::Speed,
        "dwrr" => Policy::Dwrr,
        "ule" => Policy::Ule,
        "ule-tuned" => Policy::UleTuned,
        other => return Err(format!("unknown policy {other}")),
    })
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut profile = Profile::quick();
    let mut repeats_explicit = false;
    let mut machine = None;
    let mut policy = None;
    let mut trace_out = None;
    let mut bench_quick = false;
    let mut bench_out = None;
    let mut bench_check = None;
    let mut bench_profile = false;
    let mut jobs = None;
    let mut no_cache = false;
    let mut trace_sample = 1.0f64;
    let mut fuzz = false;
    let mut fuzz_corpus = None;
    let mut fuzz_only = None;
    let mut fuzz_repeat = None;
    let mut fuzz_ordering = None;
    let mut artifacts = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => profile = Profile::full(),
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                profile.scale = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --scale {v}: {e}"))?;
                if profile.scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--repeats" => {
                let v = it.next().ok_or("--repeats needs a value")?;
                profile.repeats = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --repeats {v}: {e}"))?;
                if profile.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
                repeats_explicit = true;
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                policy = Some(parse_policy(v)?);
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                trace_out = Some(PathBuf::from(v));
            }
            "--quick" => bench_quick = true,
            "--profile" => bench_profile = true,
            "--fuzz" => fuzz = true,
            "--corpus" => {
                let v = it.next().ok_or("--corpus needs a path")?;
                fuzz_corpus = Some(PathBuf::from(v));
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a label substring")?;
                fuzz_only = Some(v.clone());
            }
            "--repeat" => {
                let v = it.next().ok_or("--repeat needs an index")?;
                fuzz_repeat = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("bad --repeat {v}: {e}"))?,
                );
            }
            "--ordering" => {
                let v = it.next().ok_or("--ordering needs a policy spec")?;
                fuzz_ordering = Some(
                    v.parse::<OrderingPolicy>()
                        .map_err(|e| format!("bad --ordering {v}: {e}"))?,
                );
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --jobs {v}: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                jobs = Some(n);
            }
            "--no-cache" => no_cache = true,
            "--trace-sample" => {
                let v = it.next().ok_or("--trace-sample needs a rate")?;
                trace_sample = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --trace-sample {v}: {e}"))?;
                if !(trace_sample > 0.0 && trace_sample <= 1.0) {
                    return Err("--trace-sample must be in (0, 1]".into());
                }
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                bench_out = Some(PathBuf::from(v));
            }
            "--check" => {
                let v = it.next().ok_or("--check needs a path")?;
                bench_check = Some(PathBuf::from(v));
            }
            "--machine" => {
                let v = it.next().ok_or("--machine needs a value")?;
                machine = Some(match v.as_str() {
                    "tigerton" => Machine::Tigerton,
                    "barcelona" => Machine::Barcelona,
                    "nehalem" => Machine::Nehalem,
                    other => return Err(format!("unknown machine {other}")),
                });
            }
            "--help" | "-h" => return Err("help".into()),
            "trace" => {
                let name = it.next().ok_or("trace needs a scenario name")?;
                artifacts.push(format!("trace:{name}"));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            artifact => artifacts.push(artifact.to_string()),
        }
    }
    if artifacts.is_empty() {
        return Err("no artifact requested".into());
    }
    Ok(Options {
        profile,
        repeats_explicit,
        machine,
        policy,
        trace_out,
        bench_quick,
        bench_out,
        bench_check,
        bench_profile,
        jobs,
        no_cache,
        trace_sample,
        fuzz,
        fuzz_corpus,
        fuzz_only,
        fuzz_repeat,
        fuzz_ordering,
        artifacts,
    })
}

/// `speedbal-cli trace <scenario>`: run the named scenario traced under
/// SPEED and LOAD (or just `--policy`), write one Chrome trace file per
/// policy × repeat, and print each policy's first-repeat summary.
fn run_trace(name: &str, opts: &Options) -> Result<(), CliError> {
    let mut p = opts.profile;
    if !opts.repeats_explicit {
        p.repeats = 1;
    }
    let base = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("{name}.json")));
    let policies = match &opts.policy {
        Some(pol) => vec![pol.clone()],
        None => vec![Policy::Speed, Policy::Load],
    };
    println!("== trace: {name} ==");
    for (seq, policy) in policies.into_iter().enumerate() {
        let s = experiments::trace_scenario(name, policy, p)?.trace_sampled(opts.trace_sample);
        let (result, traces) = run_scenario_with_traces(&s);
        for (r, buf) in traces.iter().enumerate() {
            let buf = buf.as_ref().ok_or_else(|| {
                CliError::Runtime(format!(
                    "trace scenario {name} repeat {r} recorded no buffer \
                     (harness contract violation)"
                ))
            })?;
            let path = trace_file_path(&base, &s.label(), seq as u64, r);
            std::fs::File::create(&path)
                .and_then(|f| export_chrome_to(buf, f))
                .map_err(|e| CliError::io(&path, e))?;
            println!("wrote {}", path.display());
        }
        println!(
            "{}: mean completion {:.3}s over {} repeat(s), {} timeouts",
            s.policy.label(),
            result.completion.mean(),
            result.completion.len(),
            result.timeouts
        );
        if let Some(buf) = traces.first().and_then(|t| t.as_ref()) {
            println!("{}", render_summary(buf));
        }
    }
    Ok(())
}

/// `speedbal-cli bench [--quick] [--out f] [--check f]`: time the hot
/// path and the multi-scenario matrix, then either write `BENCH_sim.json`
/// (preserving any `before` baseline block the existing file carries) or,
/// with `--check`, compare ns/step — headline and per matrix cell —
/// against a committed report with 2x tolerance and exit non-zero on
/// regression (naming the offending cell). `--check` combined with
/// `--out` also writes the fresh report, so CI can archive it.
fn run_bench_cmd(opts: &Options) -> Result<(), CliError> {
    let cfg = if opts.bench_quick {
        perf::BenchConfig::quick()
    } else {
        perf::BenchConfig::full()
    };
    if opts.bench_profile {
        eprintln!(
            "== bench --profile: {} (scale {}) ==",
            perf::BENCH_SCENARIO,
            cfg.scale
        );
        let report = perf::run_profile(&cfg);
        eprint!("{}", report.render());
        println!(
            "profiled {} steps at scale {} (breakdown on stderr)",
            report.profile.steps, report.scale
        );
        return Ok(());
    }
    eprintln!(
        "== bench: {} (scale {}, best of {}) ==",
        perf::BENCH_SCENARIO,
        cfg.scale,
        cfg.repeats
    );
    let mut report = perf::run_bench(&cfg, |line| eprintln!("  {line}"));
    eprintln!("== bench matrix: policies x workloads x machines ==");
    report.matrix = perf::run_matrix(&cfg, |line| eprintln!("  {line}"));
    eprintln!("== sweep bench: 12-cell scenario grid, cold + warm pass ==");
    report.sweep = Some(perf::run_sweep_bench(&cfg));
    println!(
        "{} steps in {:.3} sim secs: {:.1} ns/step ({:.0} steps/sec), \
         {} cancellations, peak RSS {} kB",
        report.steps,
        report.sim_secs,
        report.ns_per_step,
        report.steps_per_sec,
        report.cancellations,
        report.peak_rss_kb
    );
    println!(
        "matrix: {} cells, headline {:.1} ns/step",
        report.matrix.len(),
        report
            .matrix
            .first()
            .map_or(report.ns_per_step, |c| c.ns_per_step)
    );
    if let Some(sw) = &report.sweep {
        println!(
            "sweep: {} cells in {:.3}s ({:.1} cells/sec) on {} worker(s); \
             warm pass: {} cache hits",
            sw.cells, sw.wall_secs, sw.cells_per_sec, sw.jobs, sw.cache_hits
        );
    }
    if let Some(check) = &opts.bench_check {
        let text = std::fs::read_to_string(check).map_err(|e| CliError::io(check, e))?;
        let doc = perf::parse_bench_doc(&text).map_err(|e| format!("{}: {e}", check.display()))?;
        // With an explicit --out, the fresh report is also written (before
        // the verdict, so CI can archive it even when the check fails).
        if let Some(out) = &opts.bench_out {
            std::fs::write(out, report.to_json(doc.before.as_ref()))
                .map_err(|e| CliError::io(out, e))?;
            eprintln!("wrote fresh report to {}", out.display());
        }
        let verdict = perf::check_against(&report, &doc, 2.0)?;
        println!("{verdict}");
        return Ok(());
    }
    let out = opts
        .bench_out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_sim.json"));
    // Keep the pre-optimization baseline block across regenerations.
    let before = std::fs::read_to_string(&out)
        .ok()
        .and_then(|t| perf::parse_bench_doc(&t).ok())
        .and_then(|d| d.before)
        .unwrap_or_else(perf::recorded_baseline);
    std::fs::write(&out, report.to_json(Some(&before))).map_err(|e| CliError::io(&out, e))?;
    println!("wrote {}", out.display());
    Ok(())
}

/// Parses a shuffle-seed corpus file: one seed per line, decimal or
/// `0x`-hex, `#` comments and blank lines ignored.
fn load_corpus(path: &Path) -> Result<Vec<u64>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let mut seeds = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parsed = match line.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
            None => line.replace('_', "").parse::<u64>(),
        };
        match parsed {
            Ok(s) => seeds.push(s),
            Err(e) => {
                return Err(CliError::Runtime(format!(
                    "{} line {}: bad seed {line:?}: {e}",
                    path.display(),
                    i + 1
                )))
            }
        }
    }
    if seeds.is_empty() {
        return Err(CliError::Runtime(format!(
            "{}: corpus contains no seeds",
            path.display()
        )));
    }
    Ok(seeds)
}

/// `speedbal-cli check --fuzz [--quick] [--corpus f] [--only sub]
/// [--repeat n] [--ordering p] [--out f]`: run the schedule-space
/// fuzzer; on failure the minimized repro triples are also written to
/// the `--out` file (default `fuzz_repros.txt`) for CI to archive.
fn run_fuzz_cmd(opts: &Options) -> Result<(), CliError> {
    let mut fo = speedbal_check::FuzzOptions::new(opts.bench_quick);
    if let Some(path) = &opts.fuzz_corpus {
        fo.corpus = load_corpus(path)?;
    }
    fo.only = opts.fuzz_only.clone();
    fo.repeat = opts.fuzz_repeat;
    fo.ordering = opts.fuzz_ordering.clone();
    eprintln!(
        "== check --fuzz: schedule-space orderings ({}, {} corpus seeds) ==",
        if opts.bench_quick { "quick" } else { "full" },
        fo.corpus.len()
    );
    let report = speedbal_check::run_fuzz(&fo);
    print!("{}", report.render());
    if report.ok() {
        return Ok(());
    }
    let out = opts
        .bench_out
        .clone()
        .unwrap_or_else(|| PathBuf::from("fuzz_repros.txt"));
    let mut doc = String::new();
    for f in &report.failures {
        doc.push_str(&format!("# {}\n{}\n", f.detail, f.repro));
    }
    std::fs::write(&out, doc).map_err(|e| CliError::io(&out, e))?;
    eprintln!("wrote minimized repros to {}", out.display());
    Err(CliError::CheckFailed(report.failures.len()))
}

/// `speedbal-cli check [--quick]`: run all three layers of the
/// `speedbal-check` correctness subsystem and fail on any violation.
/// With `--fuzz`, run the schedule-space fuzzer instead.
fn run_check_cmd(opts: &Options) -> Result<(), CliError> {
    if opts.fuzz {
        return run_fuzz_cmd(opts);
    }
    eprintln!(
        "== check: invariants / differential / Lemma 1 conformance ({}) ==",
        if opts.bench_quick { "quick" } else { "full" }
    );
    let report = speedbal_check::run_full_check(opts.bench_quick);
    print!("{}", report.render());
    if report.ok() {
        Ok(())
    } else {
        Err(CliError::CheckFailed(report.failures.len()))
    }
}

fn run_artifact(name: &str, opts: &Options) -> Result<(), CliError> {
    let p = opts.profile;
    if let Some(scenario) = name.strip_prefix("trace:") {
        return run_trace(scenario, opts);
    }
    match name {
        "bench" => return run_bench_cmd(opts),
        "check" => return run_check_cmd(opts),
        "fig1" => {
            println!("== fig1: minimum profitable granularity (Lemma 1, B = 1) ==");
            println!("{}", experiments::fig1().render());
        }
        "fig2" => println!("{}", experiments::fig2(p).render()),
        "tab1" => {
            println!("== tab1: modelled test systems ==");
            println!("{}", experiments::tab1().render());
        }
        "fig3" => {
            let machines = match &opts.machine {
                Some(m) => vec![m.clone()],
                None => vec![Machine::Tigerton, Machine::Barcelona],
            };
            for m in machines {
                println!("{}", experiments::fig3(m, p).render());
                println!();
            }
        }
        "tab2" => {
            println!("== tab2: NPB catalogue + measured 16-core speedups ==");
            println!("{}", experiments::tab2(p).render());
        }
        "tab3" | "fig4" => {
            let cells = experiments::suite_sweep(Machine::Tigerton, p);
            if name == "tab3" {
                println!("== tab3: SPEED improvements over the UPC suite ==");
                println!("{}", experiments::tab3(&cells).render());
            } else {
                println!("{}", experiments::fig4(&cells).render());
            }
        }
        "fig5" => println!("{}", experiments::fig5(p).render()),
        "fig6" => {
            println!("== fig6: NPB sharing 16 cores with make -j8 ==");
            println!("{}", experiments::fig6(p).render());
        }
        "barriers" => {
            println!("== §6.2: barrier implementation × balancer (cg.B, 16 threads / 12 cores) ==");
            println!("{}", experiments::barriers(p).render());
        }
        "numa" => {
            println!("== §6.4: NUMA behaviour (ft.B, 16 threads / 13 Barcelona cores) ==");
            println!("{}", experiments::numa(p).render());
        }
        "serve" => {
            println!("== serve/1: offered-load sweep (web profile, 24 workers / 16 cores) ==");
            println!("{}", experiments::serve_offered_load(p).render());
            println!();
            println!("== serve/2: arrival/service shapes at rho 0.85 ==");
            println!("{}", experiments::serve_shapes(p).render());
            println!();
            println!("== serve/3: mixed tenancy — EP (16 threads) + web server (rho 0.4) ==");
            println!("{}", experiments::serve_mixed(p).render());
        }
        "hetero" => {
            println!("== hetero/1: barrier SPMD on asymmetric machines (1.5x threads) ==");
            println!("{}", experiments::hetero_spmd(p).render());
            println!();
            println!("== hetero/2: open-loop web serving on asymmetric machines (rho 0.7) ==");
            println!("{}", experiments::hetero_serve(p).render());
        }
        "all" => {
            for a in ["fig1", "fig2", "tab1", "fig3", "tab2"] {
                run_artifact(a, opts)?;
                println!();
            }
            // tab3 and fig4 share one (expensive) suite sweep.
            let cells = experiments::suite_sweep(Machine::Tigerton, p);
            println!("== tab3: SPEED improvements over the UPC suite ==");
            println!("{}", experiments::tab3(&cells).render());
            println!();
            println!("{}", experiments::fig4(&cells).render());
            println!();
            for a in ["fig5", "fig6", "barriers", "numa", "serve", "hetero"] {
                run_artifact(a, opts)?;
                println!();
            }
        }
        other => return Err(CliError::Runtime(format!("unknown artifact {other}"))),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: speedbal-cli [--full] [--scale f] [--repeats n] [--machine m]\n\
                 \x20                   [--policy p] [--trace-out file.json] <artifact>...\n\
                 artifacts: fig1 fig2 tab1 fig3 tab2 tab3 fig4 fig5 fig6 barriers numa serve\n\
                 \x20          hetero all\n\
                 \x20          trace <scenario>   (ep-3x2 ep-16x8 ep-hog cg-barrier web-serve)\n\
                 \x20          bench [--quick] [--out f] [--check f]\n\
                 \x20          check [--quick] [--fuzz [--corpus f] [--only sub]\n\
                 \x20                           [--repeat n] [--ordering p] [--out f]]\n\
                 exit codes: 1 runtime error, 2 usage error, 3 correctness violation,\n\
                 \x20           4 I/O error"
            );
            return if e == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };
    set_jobs(opts.jobs);
    // The content-addressed result cache is a CLI feature: figure/table
    // cells replay from target/sweep-cache unless --no-cache is passed.
    // (Library and test use keeps it off so results are always re-run.)
    set_cache_enabled(!opts.no_cache);
    // bench and check have their own knobs; the profile line only
    // describes figure/table/trace artifacts.
    if opts.artifacts.iter().any(|a| a != "bench" && a != "check") {
        eprintln!(
            "# profile: scale={} repeats={}",
            opts.profile.scale, opts.profile.repeats
        );
    }
    // For figure/table artifacts, --trace-out turns on the module-level
    // trace dump: every scenario writes one Chrome trace file per repeat.
    if opts.trace_out.is_some() && opts.artifacts.iter().any(|a| !a.starts_with("trace:")) {
        set_trace_output(opts.trace_out.clone());
    }
    for artifact in &opts.artifacts {
        if let Err(e) = run_artifact(artifact, &opts) {
            eprintln!("error: {e}");
            return e.exit_code();
        }
    }
    // Executor report on stderr: stdout stays byte-identical to a serial,
    // cacheless run.
    let st = sweep_stats();
    if st.cells > 0 {
        eprintln!(
            "# sweep: {} cells in {:.2}s ({:.1} cells/sec) on {} worker(s); \
             cache: {} hits, {} misses, {} evicted{}",
            st.cells,
            st.wall_secs,
            st.cells_per_sec(),
            effective_jobs(),
            st.cache_hits,
            st.cache_misses,
            st.evictions,
            if opts.no_cache { " (disabled)" } else { "" }
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_artifacts_and_options() {
        let o = parse(&["--scale", "0.5", "--repeats", "7", "fig3", "tab1"]).unwrap();
        assert_eq!(o.profile.scale, 0.5);
        assert_eq!(o.profile.repeats, 7);
        assert_eq!(o.artifacts, vec!["fig3", "tab1"]);
        assert!(o.machine.is_none());
    }

    #[test]
    fn full_preset_and_machine() {
        let o = parse(&["--full", "--machine", "barcelona", "fig3"]).unwrap();
        assert_eq!(o.profile.repeats, 10);
        assert_eq!(o.machine, Some(Machine::Barcelona));
    }

    #[test]
    fn parses_trace_subcommand_and_options() {
        let o = parse(&["trace", "ep-3x2", "--trace-out", "/tmp/t.json"]).unwrap();
        assert_eq!(o.artifacts, vec!["trace:ep-3x2"]);
        assert_eq!(o.trace_out, Some(PathBuf::from("/tmp/t.json")));
        assert!(!o.repeats_explicit);
        assert!(o.policy.is_none());

        let o = parse(&["--policy", "load", "--repeats", "2", "trace", "ep-hog"]).unwrap();
        assert_eq!(o.policy, Some(Policy::Load));
        assert!(o.repeats_explicit);
        assert!(parse(&["trace"]).is_err(), "trace needs a scenario");
        assert!(parse(&["--policy", "mars", "fig1"]).is_err());
    }

    #[test]
    fn parses_bench_subcommand_and_options() {
        let o = parse(&["bench"]).unwrap();
        assert_eq!(o.artifacts, vec!["bench"]);
        assert!(!o.bench_quick);
        assert!(o.bench_out.is_none() && o.bench_check.is_none());

        let o = parse(&["bench", "--quick", "--out", "/tmp/b.json"]).unwrap();
        assert!(o.bench_quick);
        assert_eq!(o.bench_out, Some(PathBuf::from("/tmp/b.json")));

        let o = parse(&["bench", "--check", "BENCH_sim.json"]).unwrap();
        assert_eq!(o.bench_check, Some(PathBuf::from("BENCH_sim.json")));
        assert!(parse(&["bench", "--out"]).is_err(), "--out needs a path");
        assert!(
            parse(&["bench", "--check"]).is_err(),
            "--check needs a path"
        );
    }

    #[test]
    fn parses_check_subcommand() {
        let o = parse(&["check"]).unwrap();
        assert_eq!(o.artifacts, vec!["check"]);
        assert!(!o.bench_quick);

        let o = parse(&["check", "--quick"]).unwrap();
        assert!(o.bench_quick);
    }

    #[test]
    fn parses_sweep_and_sampling_options() {
        let o = parse(&["--jobs", "4", "--no-cache", "fig2"]).unwrap();
        assert_eq!(o.jobs, Some(4));
        assert!(o.no_cache);
        assert_eq!(o.trace_sample, 1.0);

        let o = parse(&["--trace-sample", "0.25", "trace", "ep-3x2"]).unwrap();
        assert_eq!(o.trace_sample, 0.25);
        assert!(o.jobs.is_none() && !o.no_cache);

        assert!(parse(&["--jobs", "0", "fig1"]).is_err(), "zero jobs");
        assert!(parse(&["--jobs", "x", "fig1"]).is_err(), "bad jobs");
        assert!(
            parse(&["--trace-sample", "0", "fig1"]).is_err(),
            "rate 0 drops every sampled record"
        );
        assert!(
            parse(&["--trace-sample", "1.5", "fig1"]).is_err(),
            "rate above 1"
        );
    }

    #[test]
    fn parses_fuzz_flags() {
        let o = parse(&["check", "--fuzz", "--quick"]).unwrap();
        assert!(o.fuzz && o.bench_quick);
        assert!(o.fuzz_only.is_none() && o.fuzz_ordering.is_none());

        let o = parse(&[
            "check",
            "--fuzz",
            "--only",
            "uniform2",
            "--repeat",
            "1",
            "--ordering",
            "shuffle:42",
            "--corpus",
            "fuzz/corpus.txt",
        ])
        .unwrap();
        assert_eq!(o.fuzz_only.as_deref(), Some("uniform2"));
        assert_eq!(o.fuzz_repeat, Some(1));
        assert_eq!(o.fuzz_ordering, Some(OrderingPolicy::SeededShuffle(42)));
        assert_eq!(o.fuzz_corpus, Some(PathBuf::from("fuzz/corpus.txt")));

        assert!(parse(&["check", "--fuzz", "--ordering", "sideways"]).is_err());
        assert!(parse(&["check", "--fuzz", "--repeat", "x"]).is_err());
        assert!(parse(&["check", "--fuzz", "--corpus"]).is_err());
    }

    #[test]
    fn corpus_parser_handles_formats_and_errors() {
        let dir = std::env::temp_dir().join("speedbal-cli-corpus-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.txt");
        std::fs::write(&good, "# comment\n42\n0xdead_beef  # inline\n\n7\n").unwrap();
        assert_eq!(load_corpus(&good).unwrap(), vec![42, 0xdead_beef, 7]);

        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "42\nnot-a-seed\n").unwrap();
        assert!(matches!(load_corpus(&bad), Err(CliError::Runtime(_))));

        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "# nothing\n").unwrap();
        assert!(matches!(load_corpus(&empty), Err(CliError::Runtime(_))));

        let missing = dir.join("missing.txt");
        assert!(matches!(load_corpus(&missing), Err(CliError::Io { .. })));
    }

    #[test]
    fn cli_errors_map_to_documented_exit_codes() {
        assert_eq!(CliError::Runtime("x".into()).exit_code(), ExitCode::from(1));
        assert_eq!(CliError::CheckFailed(3).exit_code(), ExitCode::from(3));
        let io = CliError::io(
            Path::new("/nonexistent/x"),
            std::io::Error::from(std::io::ErrorKind::NotFound),
        );
        assert_eq!(io.exit_code(), ExitCode::from(4));
        assert!(io.to_string().contains("/nonexistent/x"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err(), "no artifact");
        assert!(parse(&["--scale", "0", "fig1"]).is_err(), "zero scale");
        assert!(parse(&["--scale", "x", "fig1"]).is_err(), "bad float");
        assert!(parse(&["--repeats", "0", "fig1"]).is_err(), "zero repeats");
        assert!(parse(&["--machine", "mars", "fig1"]).is_err());
        assert!(parse(&["--bogus", "fig1"]).is_err());
        assert_eq!(parse(&["-h"]).unwrap_err(), "help");
    }
}
