//! The decision half of one speed-balancer activation (paper §5.1 step 4
//! and the pull), shared by the simulator's [`crate::SpeedBalancer`] and
//! the native `speedbalancer`. Measurement and actuation stay with each
//! backend; this module is pure, sees none of their types and allocates
//! nothing. Cores are addressed by *slot*, their position in the backend's
//! ring of managed cores, and a backend lends its per-core state as the
//! closures of a [`View`].

use speedbal_sched::ActivationOutcome;

/// A core's post-migration block. The paper blocks both cores of a
/// migration for "at least 2 balance intervals" so that speeds are never
/// stale. Randomized intervals stretch the gap between a core's activations
/// up to two intervals, so the block holds until **both** the nominal time
/// has passed **and** the core has completed as many of its own activations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Block {
    /// Backend clock reading (ns) before which the block holds; zero for a
    /// core that never migrated.
    pub until: u64,
    /// Activations of the core's own balancer that must still complete.
    pub activations: u32,
}

impl Block {
    /// The block entered by a migration at `now`: `intervals` intervals of
    /// `interval` ns, and as many own activations.
    pub fn after_migration(now: u64, interval: u64, intervals: u32) -> Block {
        Block {
            until: now.saturating_add(interval.saturating_mul(u64::from(intervals))),
            activations: intervals,
        }
    }

    pub fn holds(self, now: u64) -> bool {
        self.activations > 0 || now < self.until
    }

    /// Counts one of the core's own activations; called at the top of each
    /// activation, before the block is consulted.
    pub fn tick(&mut self) {
        self.activations = self.activations.saturating_sub(1);
    }
}

/// The tunables a decision obeys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rules {
    /// Pull threshold `T_s`: a victim needs `s_k / s_global < T_s`.
    pub speed_threshold: f64,
    /// Skip victims across a NUMA node boundary.
    pub block_numa: bool,
    /// Whether victims outside the puller's cache domain are eligible on
    /// this activation (the per-domain interval tiers of §5).
    pub cross_cache: bool,
}

/// A backend's per-core state, by slot in `0..len`. The topology closures
/// answer relative to the pulling slot.
pub struct View<S, B, N, C, T> {
    pub len: usize,
    /// Published speed; non-finite means "no data".
    pub speed: S,
    pub block: B,
    pub crosses_numa: N,
    pub crosses_cache: C,
    /// The managed threads on a slot, as `(migrations, id)` pairs.
    pub threads: T,
}

/// What an activation decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision<I> {
    /// Not faster than the global average, or no core has data.
    BelowAverage,
    /// The puller, or every candidate below the threshold, is blocked.
    Blocked,
    NoCandidate,
    /// Pull `thread`, the least-migrated thread of the victim `slot`, whose
    /// published speed is `speed`.
    Pull {
        slot: usize,
        speed: f64,
        thread: I,
    },
}

impl<I> Decision<I> {
    pub fn outcome(&self) -> ActivationOutcome {
        match self {
            Decision::BelowAverage => ActivationOutcome::BelowAverage,
            Decision::Blocked => ActivationOutcome::Blocked,
            Decision::NoCandidate => ActivationOutcome::NoCandidate,
            Decision::Pull { .. } => ActivationOutcome::Pulled,
        }
    }
}

/// A decision with the figures it was made from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict<I> {
    /// Mean of the finite published speeds (a core without data abstains
    /// instead of poisoning it); NaN when no core has data.
    pub global: f64,
    /// Candidates below the threshold skipped for crossing a NUMA node.
    pub numa_blocked: u64,
    pub decision: Decision<I>,
}

/// Decides one activation of slot `local`, whose freshly measured and
/// published speed is `s_local`, at clock reading `now` ns.
///
/// Victims are scanned in ring order from `local`'s successor: noise-free
/// equally loaded cores publish *exactly* equal speeds, and a fixed order
/// would resolve every tie toward the lowest slot, starving the highest.
/// A candidate is skipped, in order, for a non-finite speed, the threshold,
/// a NUMA crossing (counted), the cache tier, its block, or having no
/// managed thread. The slowest survivor yields its least-migrated thread
/// (lowest id on ties), so no thread becomes a "hot potato".
pub fn decide<S, B, N, C, T, It, I>(
    rules: &Rules,
    view: &View<S, B, N, C, T>,
    local: usize,
    s_local: f64,
    now: u64,
) -> Verdict<I>
where
    S: Fn(usize) -> f64,
    B: Fn(usize) -> Block,
    N: Fn(usize) -> bool,
    C: Fn(usize) -> bool,
    T: Fn(usize) -> It,
    It: Iterator<Item = (u64, I)>,
    I: Ord,
{
    let (mut sum, mut n) = (0.0, 0usize);
    for s in (0..view.len).map(&view.speed).filter(|s| s.is_finite()) {
        sum += s;
        n += 1;
    }
    let s_global = if n > 0 { sum / n as f64 } else { f64::NAN };
    let mut verdict = Verdict {
        global: s_global,
        numa_blocked: 0,
        decision: Decision::BelowAverage,
    };
    // NaN on either side fails the gate.
    if !(s_local > s_global && s_global > 0.0 && s_local.is_finite()) {
        return verdict;
    }
    if (view.block)(local).holds(now) {
        verdict.decision = Decision::Blocked;
        return verdict;
    }
    let mut best: Option<(f64, usize)> = None;
    let mut saw_blocked = false;
    for k in (1..view.len).map(|off| (local + off) % view.len) {
        let s_k = (view.speed)(k);
        if !s_k.is_finite() || s_k / s_global >= rules.speed_threshold {
            continue;
        }
        let numa = rules.block_numa && (view.crosses_numa)(k);
        verdict.numa_blocked += u64::from(numa);
        if numa || (!rules.cross_cache && (view.crosses_cache)(k)) {
            continue;
        }
        if (view.block)(k).holds(now) {
            saw_blocked = true;
        } else if best.is_none_or(|(bs, _)| s_k < bs) && (view.threads)(k).next().is_some() {
            best = Some((s_k, k));
        }
    }
    verdict.decision = match best {
        Some((speed, slot)) => {
            let (_, thread) = (view.threads)(slot).min().expect("victim has a thread");
            Decision::Pull {
                slot,
                speed,
                thread,
            }
        }
        None if saw_blocked => Decision::Blocked,
        None => Decision::NoCandidate,
    };
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A plain-data ring for driving [`decide`] directly.
    struct Ring {
        speeds: Vec<f64>,
        blocks: Vec<Block>,
        numa: Vec<bool>,
        threads: Vec<Vec<(u64, u32)>>,
    }

    impl Ring {
        /// `speeds.len()` slots, one thread each, nothing blocked, one node.
        fn new(speeds: &[f64]) -> Ring {
            let n = speeds.len();
            Ring {
                speeds: speeds.to_vec(),
                blocks: vec![Block::default(); n],
                numa: vec![false; n],
                threads: (0..n).map(|k| vec![(0, k as u32)]).collect(),
            }
        }

        fn decide(&self, rules: &Rules, local: usize, now: u64) -> Verdict<u32> {
            let view = View {
                len: self.speeds.len(),
                speed: |k: usize| self.speeds[k],
                block: |k: usize| self.blocks[k],
                crosses_numa: |k: usize| self.numa[k],
                crosses_cache: |_: usize| true,
                threads: |k: usize| self.threads[k].iter().copied(),
            };
            decide(rules, &view, local, self.speeds[local], now)
        }
    }

    const RULES: Rules = Rules {
        speed_threshold: 0.9,
        block_numa: true,
        cross_cache: true,
    };

    fn victim(v: &Verdict<u32>) -> Option<usize> {
        match v.decision {
            Decision::Pull { slot, .. } => Some(slot),
            _ => None,
        }
    }

    #[test]
    fn ring_scan_starts_past_the_puller() {
        let ring = Ring::new(&[1.0, 0.5, 1.0, 0.5, 0.5]);
        assert_eq!(victim(&ring.decide(&RULES, 2, 0)), Some(3));
        assert_eq!(victim(&ring.decide(&RULES, 0, 0)), Some(1));
    }

    #[test]
    fn least_migrated_thread_is_pulled_lowest_id_first() {
        let mut ring = Ring::new(&[1.0, 0.5]);
        ring.threads[1] = vec![(3, 7), (1, 9), (1, 8), (2, 1)];
        let v = ring.decide(&RULES, 0, 0);
        assert!(matches!(v.decision, Decision::Pull { thread: 8, .. }));
    }

    #[test]
    fn local_block_and_gate() {
        let mut ring = Ring::new(&[1.0, 0.5]);
        ring.blocks[0] = Block::after_migration(0, 100, 2);
        assert_eq!(ring.decide(&RULES, 0, 0).decision, Decision::Blocked);
        // The slow core never pulls, blocked or not.
        assert_eq!(ring.decide(&RULES, 1, 0).decision, Decision::BelowAverage);
    }

    #[test]
    fn cross_cache_tier_and_empty_cores_are_skipped() {
        let mut ring = Ring::new(&[1.0, 0.5, 0.5]);
        let no_tier = Rules {
            cross_cache: false,
            ..RULES
        };
        assert_eq!(ring.decide(&no_tier, 0, 0).decision, Decision::NoCandidate);
        ring.threads[1].clear();
        assert_eq!(victim(&ring.decide(&RULES, 0, 0)), Some(2));
    }

    #[test]
    fn no_data_anywhere_is_below_average() {
        let ring = Ring::new(&[f64::NAN, f64::NAN]);
        let v = ring.decide(&RULES, 0, 0);
        assert!(v.global.is_nan());
        assert_eq!(v.decision, Decision::BelowAverage);
    }

    /// Speeds from a small set of values, so exact ties are common.
    fn tied_speeds() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(prop_oneof![Just(0.5), Just(1.0), Just(1.0 / 3.0)], 2..9)
    }

    proptest! {
        #[test]
        fn exact_ties_rotate_with_the_puller(speeds in tied_speeds()) {
            let n = speeds.len();
            let slow = speeds.iter().copied().fold(f64::INFINITY, f64::min);
            // Puller `local` is made the fastest core; everything else is
            // the tied vector.
            let verdicts: Vec<(Verdict<u32>, Vec<f64>)> = (0..n)
                .map(|local| {
                    let mut ring = Ring::new(&speeds);
                    ring.speeds[local] = 2.0;
                    (ring.decide(&RULES, local, 0), ring.speeds)
                })
                .collect();
            for (local, (v, ring)) in verdicts.iter().enumerate() {
                // The victim is the first slowest candidate after the
                // puller in ring order.
                let first = (1..n)
                    .map(|off| (local + off) % n)
                    .filter(|&k| ring[k] / v.global < RULES.speed_threshold)
                    .min_by(|&a, &b| ring[a].total_cmp(&ring[b]));
                prop_assert_eq!(victim(v), first);
            }
            // Every tied slowest core is chosen by its ring predecessor.
            for k in (0..n).filter(|&k| speeds[k] == slow) {
                let (v, _) = &verdicts[(k + n - 1) % n];
                if slow / v.global < RULES.speed_threshold {
                    prop_assert_eq!(victim(v), Some(k));
                }
            }
        }

        #[test]
        fn block_holds_until_both_conditions_pass(
            at in 0u64..1_000,
            interval in 1u64..100,
            intervals in 0u32..4,
            elapsed in 0u64..500,
            ticks in 0u32..6,
        ) {
            let mut b = Block::after_migration(at, interval, intervals);
            for _ in 0..ticks {
                b.tick();
            }
            let time_passed = elapsed >= interval * u64::from(intervals);
            let own_passed = ticks >= intervals;
            prop_assert_eq!(b.holds(at + elapsed), !(time_passed && own_passed));
        }

        #[test]
        fn non_finite_speeds_are_never_chosen_nor_averaged(
            speeds in proptest::collection::vec(
                prop_oneof![Just(f64::NAN), Just(f64::INFINITY), 0.0f64..2.0], 2..9),
            local in 0usize..8,
        ) {
            let local = local % speeds.len();
            let ring = Ring::new(&speeds);
            let v = ring.decide(&RULES, local, 0);
            let finite: Vec<f64> = speeds.iter().copied().filter(|s| s.is_finite()).collect();
            if finite.is_empty() {
                prop_assert!(v.global.is_nan());
            } else {
                let mean = finite.iter().sum::<f64>() / finite.len() as f64;
                prop_assert!((v.global - mean).abs() <= 1e-12 * mean.max(1.0));
            }
            if let Some(k) = victim(&v) {
                prop_assert!(speeds[k].is_finite());
            }
            if !speeds[local].is_finite() {
                prop_assert_eq!(v.decision, Decision::BelowAverage);
            }
        }

        #[test]
        fn numa_crossing_candidates_are_counted_and_skipped(
            speeds in proptest::collection::vec(0.1f64..1.5, 2..9),
            numa in proptest::collection::vec(any::<bool>(), 9..10),
            local in 0usize..8,
        ) {
            let local = local % speeds.len();
            let mut ring = Ring::new(&speeds);
            ring.numa = numa[..speeds.len()].to_vec();
            let v = ring.decide(&RULES, local, 0);
            if let Some(k) = victim(&v) {
                prop_assert!(!ring.numa[k]);
            }
            if !matches!(v.decision, Decision::BelowAverage) {
                let g = v.global;
                let expected = (0..speeds.len())
                    .filter(|&k| k != local && ring.numa[k] && speeds[k] / g < RULES.speed_threshold)
                    .count() as u64;
                prop_assert_eq!(v.numa_blocked, expected);
            } else {
                prop_assert_eq!(v.numa_blocked, 0);
            }
            // Switching NUMA blocking off never counts a crossing.
            let open = Rules { block_numa: false, ..RULES };
            prop_assert_eq!(ring.decide(&open, local, 0).numa_blocked, 0);
        }

        #[test]
        fn all_candidates_blocked_is_blocked_not_no_candidate(
            speeds in proptest::collection::vec(0.1f64..1.5, 2..9),
            local in 0usize..8,
        ) {
            let local = local % speeds.len();
            let mut ring = Ring::new(&speeds);
            for k in 0..speeds.len() {
                if k != local {
                    ring.blocks[k] = Block::after_migration(0, 100, 2);
                }
            }
            let v = ring.decide(&RULES, local, 50);
            let g = v.global;
            let any_candidate = (0..speeds.len())
                .any(|k| k != local && speeds[k] / g < RULES.speed_threshold);
            match v.decision {
                Decision::BelowAverage => prop_assert!(speeds[local] <= g),
                Decision::Blocked => prop_assert!(any_candidate),
                Decision::NoCandidate => prop_assert!(!any_candidate),
                Decision::Pull { .. } => prop_assert!(false, "every candidate is blocked"),
            }
        }
    }
}
