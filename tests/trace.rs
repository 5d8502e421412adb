//! The tracing subsystem's two external guarantees:
//!
//! 1. **Observation does not perturb**: a traced run is bit-identical to
//!    the same run untraced — completion times and migration counts must
//!    match exactly (property test over random small scenarios).
//! 2. **Stable export**: the Chrome trace-event JSON emitted for the
//!    paper's 3-threads/2-cores running example matches a checked-in
//!    golden file byte for byte. Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test --test trace` after intentional schema
//!    changes, and review the diff.

use proptest::prelude::*;
use speedbal::prelude::*;

fn wait_strategy() -> impl Strategy<Value = WaitMode> {
    prop_oneof![
        Just(WaitMode::Spin),
        Just(WaitMode::Yield),
        Just(WaitMode::Block),
        Just(WaitMode::SpinThenBlock(SimDuration::from_millis(5))),
    ]
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Pinned),
        Just(Policy::Load),
        Just(Policy::Speed),
        Just(Policy::Dwrr),
        Just(Policy::Ule),
    ]
}

/// The paper's running example at a deterministic, test-sized scale:
/// EP-like (compute, one barrier per phase), 3 threads on 2 uniform cores.
fn three_on_two(policy: Policy) -> Scenario {
    let mut app = SpmdConfig::new(3, 6, SimDuration::from_millis(100));
    app.wait = WaitMode::Block;
    app.imbalance = 0.05;
    Scenario::new(Machine::Uniform(2), 0, policy, app).repeats(1)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Tracing is strictly observational: for any small scenario, the
    /// traced repeat produces exactly the numbers of the untraced one.
    #[test]
    fn traced_run_is_identical_to_untraced(
        cores in 2usize..5,
        threads in 2usize..7,
        phases in 2u64..6,
        work_ms in 5u64..40,
        wait in wait_strategy(),
        policy in policy_strategy(),
        seed in 0u64..=u64::MAX,
    ) {
        let mut app = SpmdConfig::new(threads, phases, SimDuration::from_millis(work_ms));
        app.wait = wait;
        app.imbalance = 0.03;
        let s = Scenario::new(Machine::Uniform(cores), 0, policy, app)
            .repeats(1)
            .seed(seed);
        let plain = run_repeat(&s, 0, false);
        let traced = run_repeat(&s, 0, true);
        prop_assert_eq!(plain.completion_secs, traced.completion_secs);
        prop_assert_eq!(plain.migrations, traced.migrations);
        prop_assert_eq!(plain.timed_out, traced.timed_out);
        prop_assert!(plain.trace.is_none());
        let buf = traced.trace.expect("traced repeat returns a buffer");
        prop_assert!(buf.counters().dispatches > 0);
    }
}

#[test]
fn chrome_export_matches_golden_file() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_3x2.json");
    let out = run_repeat(&three_on_two(Policy::Speed), 0, true);
    let json = export_chrome(&out.trace.expect("traced"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file present; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        json, golden,
        "Chrome export changed; if intentional, UPDATE_GOLDEN=1 cargo test --test trace"
    );
}

/// The acceptance shape of the tentpole: both SPEED and LOAD traces of the
/// 3-on-2 example contain migration, speed-sample and barrier events.
#[test]
fn three_on_two_traces_cover_the_schema() {
    for policy in [Policy::Speed, Policy::Load] {
        let label = policy.label();
        let out = run_repeat(&three_on_two(policy), 0, true);
        let buf = out.trace.expect("traced");
        let c = buf.counters();
        assert!(c.migrations > 0, "{label}: expected migrations");
        assert!(c.speed_samples > 0, "{label}: expected speed samples");
        assert!(c.barrier_arrivals > 0, "{label}: expected barrier arrivals");
        assert!(c.barrier_releases > 0, "{label}: expected barrier releases");
        let json = export_chrome(&buf);
        for needle in ["\"migration\"", "\"speed ", "\"barrier\""] {
            assert!(json.contains(needle), "{label}: export misses {needle}");
        }
    }
}

/// A hand-built buffer holding every [`TraceEvent`] variant once or more,
/// plus the exporter's edge cases: names that need JSON escaping
/// (quote, backslash, control characters, non-ASCII), an unnamed task
/// (the `t<N>` fallback), non-finite and negative-zero numbers, a
/// deschedule that does not close the open interval, timestamps beyond
/// the exact-microsecond range, and an interval still open at the end.
fn every_variant_buffer() -> TraceBuffer {
    use speedbal::machine::{CoreId, DomainLevel};
    use speedbal::trace::{
        ActivationOutcome, MigrationReason, ProcFaultKind, ProcOp, RequestDropReason,
    };
    let ns = SimTime::from_nanos;
    let mut buf = TraceBuffer::new();
    buf.set_n_cores(3);
    buf.task_spawned(0, "w0", SimTime::ZERO);
    buf.task_spawned(1, "we\"ird\\na\u{1}me\n\t\r\u{1f}é", SimTime::ZERO);
    buf.task_spawned(2, "", SimTime::ZERO);
    let events: Vec<(u64, usize, TraceEvent)> = vec![
        (0, 0, TraceEvent::Dispatch { task: 0 }),
        (999, 1, TraceEvent::Dispatch { task: 1 }),
        (1_000, 1, TraceEvent::Preempt { task: 1, by: 7 }),
        (
            1_001,
            1,
            TraceEvent::Desched {
                task: 1,
                ran: SimDuration::from_nanos(2),
            },
        ),
        (
            1_234_567,
            0,
            TraceEvent::Desched {
                task: 7,
                ran: SimDuration::from_nanos(5),
            },
        ),
        (
            2_000_001,
            0,
            TraceEvent::Desched {
                task: 0,
                ran: SimDuration::from_nanos(2_000_001),
            },
        ),
        (2_000_010, 2, TraceEvent::Wake { task: 7 }),
        (2_000_100, 2, TraceEvent::Sleep { task: 1 }),
        (2_001_000, 2, TraceEvent::Exit { task: 2 }),
        (
            3_000_000,
            1,
            TraceEvent::Migrate {
                task: 1,
                from: CoreId(0),
                to: CoreId(1),
                tier: DomainLevel::Cache,
                reason: MigrationReason::SpeedPull {
                    local_speed: 1.0,
                    remote_speed: 0.5,
                    global_speed: 0.75,
                },
            },
        ),
        (
            3_000_000,
            2,
            TraceEvent::Migrate {
                task: 7,
                from: CoreId(1),
                to: CoreId(2),
                tier: DomainLevel::Numa,
                reason: MigrationReason::LoadBalance {
                    level: DomainLevel::System,
                },
            },
        ),
        (
            3_000_001,
            0,
            TraceEvent::Migrate {
                task: 0,
                from: CoreId(2),
                to: CoreId(0),
                tier: DomainLevel::Smt,
                reason: MigrationReason::DwrrRound { round: 4 },
            },
        ),
        (
            4_000_000,
            0,
            TraceEvent::SpeedSample {
                task: Some(1),
                speed: 0.123_456_789,
            },
        ),
        (
            4_000_000,
            0,
            TraceEvent::SpeedSample {
                task: Some(1),
                speed: f64::NAN,
            },
        ),
        (
            4_000_000,
            1,
            TraceEvent::SpeedSample {
                task: Some(7),
                speed: f64::INFINITY,
            },
        ),
        (
            4_000_000,
            1,
            TraceEvent::SpeedSample {
                task: None,
                speed: f64::NEG_INFINITY,
            },
        ),
        (
            4_000_000,
            2,
            TraceEvent::SpeedSample {
                task: None,
                speed: -0.0,
            },
        ),
        (4_500_000, 2, TraceEvent::FreqStep { ratio: 0.625 }),
        (
            5_000_000,
            0,
            TraceEvent::BalancerActivation {
                policy: "SPEED",
                local: 1.5e-7,
                global: 123_456.789_012_5,
                outcome: ActivationOutcome::Pulled,
                jitter: SimDuration::from_nanos(1_234_567),
            },
        ),
        (
            5_000_001,
            1,
            TraceEvent::BalancerActivation {
                policy: "LOAD",
                local: -2.0,
                global: f64::NAN,
                outcome: ActivationOutcome::Balanced,
                jitter: SimDuration::ZERO,
            },
        ),
        (
            6_000_000,
            0,
            TraceEvent::BarrierArrive {
                task: 0,
                cond: 9,
                episode: 3,
                arrived: 1,
                parties: 2,
            },
        ),
        (
            6_000_500,
            1,
            TraceEvent::BarrierArrive {
                task: 1,
                cond: 9,
                episode: 3,
                arrived: 2,
                parties: 2,
            },
        ),
        (
            6_000_500,
            1,
            TraceEvent::BarrierRelease {
                task: 1,
                cond: 9,
                episode: 3,
            },
        ),
        (
            7_000_000,
            1,
            TraceEvent::ProcFault {
                task: Some(1),
                op: ProcOp::SetAffinity,
                kind: ProcFaultKind::PermissionDenied,
                attempt: 2,
                retrying: false,
            },
        ),
        (
            7_000_001,
            0,
            TraceEvent::ProcFault {
                task: None,
                op: ProcOp::ListThreads,
                kind: ProcFaultKind::Io,
                attempt: 1,
                retrying: true,
            },
        ),
        (
            7_000_002,
            0,
            TraceEvent::ProcFault {
                task: Some(7),
                op: ProcOp::ReadCpuTime,
                kind: ProcFaultKind::Malformed,
                attempt: 3,
                retrying: true,
            },
        ),
        (
            7_500_000,
            1,
            TraceEvent::Quarantined {
                task: 1,
                failures: 3,
            },
        ),
        (
            8_000_000,
            0,
            TraceEvent::RequestArrival {
                request: 7,
                arrival: ns(7_999_999),
                queued: 3,
            },
        ),
        (
            8_000_001,
            1,
            TraceEvent::RequestDispatch {
                request: 7,
                subtask: 1,
                wait: SimDuration::from_nanos(2_002),
            },
        ),
        (
            8_000_002,
            1,
            TraceEvent::RequestComplete {
                request: 7,
                latency: SimDuration::from_nanos(12_345_678),
            },
        ),
        (
            8_000_003,
            0,
            TraceEvent::RequestDrop {
                request: 8,
                reason: RequestDropReason::QueueFull,
            },
        ),
        (
            8_000_004,
            2,
            TraceEvent::RequestDrop {
                request: 9,
                reason: RequestDropReason::ShedTimeout,
            },
        ),
        // Left open: closed at the end of the trace.
        (9_000_000, 2, TraceEvent::Dispatch { task: 7 }),
        // Arrival stamps either side of 2^52 ns, and the largest one:
        // the exporter prints stamps below 2^52 ns with integer
        // arithmetic and falls back to float formatting above.
        (
            9_000_001,
            0,
            TraceEvent::RequestArrival {
                request: 10,
                arrival: ns((1 << 52) - 1),
                queued: 0,
            },
        ),
        (
            9_000_002,
            0,
            TraceEvent::RequestArrival {
                request: 11,
                arrival: ns((1 << 52) + 1),
                queued: 0,
            },
        ),
        (
            9_000_003,
            0,
            TraceEvent::RequestArrival {
                request: 12,
                arrival: SimTime::MAX,
                queued: 0,
            },
        ),
        // A huge final stamp makes the open interval's duration huge too.
        (1 << 62, 1, TraceEvent::Wake { task: 0 }),
    ];
    for (time, core, event) in events {
        buf.record(ns(time), CoreId(core), event);
    }
    buf.flush();
    buf
}

#[test]
fn chrome_export_of_every_variant_matches_golden_file() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_all_variants.json"
    );
    let json = export_chrome(&every_variant_buffer());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file present; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        json, golden,
        "Chrome export changed; if intentional, UPDATE_GOLDEN=1 cargo test --test trace"
    );
}

/// The occupancy intervals (`X` events) of a Chrome export, each as its
/// `tid`, `ts`, `dur` and `name` fields.
fn occupancy_intervals(json: &str) -> Vec<&str> {
    json.lines()
        .filter(|line| line.starts_with("{\"ph\":\"X\""))
        .map(|line| {
            let (_, fields) = line.split_once("\"tid\":").expect("X event has a tid");
            fields.trim_end_matches(',')
        })
        .collect()
}

/// Trace sampling keeps or drops whole occupancy intervals: every `X`
/// event of a sampled export is one of the full-rate export's, about
/// `rate * n` of the `n` intervals survive, and the aggregates still
/// cover everything.
#[test]
fn sampled_trace_keeps_whole_occupancy_intervals() {
    let profile = Profile {
        scale: 0.25,
        repeats: 1,
    };
    let scenario = experiments::trace_scenario("web-serve", Policy::Speed, profile).unwrap();
    let full = run_repeat(&scenario, 0, true).trace.expect("traced");
    let full_json = export_chrome(&full);
    let all: std::collections::HashSet<&str> =
        occupancy_intervals(&full_json).into_iter().collect();
    let n = all.len() as f64;
    assert!(n > 1_000.0, "only {n} intervals in the full trace");
    for rate in [0.1, 0.5] {
        let thin = scenario.clone().trace_sampled(rate);
        let sampled = run_repeat(&thin, 0, true).trace.expect("traced");
        assert_eq!(sampled.counters(), full.counters(), "rate {rate}");
        let json = export_chrome(&sampled);
        let kept = occupancy_intervals(&json);
        for interval in &kept {
            assert!(
                all.contains(interval),
                "rate {rate}: interval not in the full trace: {interval}"
            );
        }
        // Four standard deviations of Binomial(n, rate).
        let band = 4.0 * (n * rate * (1.0 - rate)).sqrt();
        let expected = rate * n;
        assert!(
            (kept.len() as f64 - expected).abs() <= band,
            "rate {rate}: kept {} of {n} intervals, expected {expected:.0} ± {band:.0}",
            kept.len()
        );
    }
}
