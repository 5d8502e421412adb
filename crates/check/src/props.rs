//! Scenario-level property tests for the same-instant ordering machinery
//! (companion to [`crate::fuzz`]'s seeded sweep):
//!
//! * the FIFO plumbing — `Scenario::ordered(Fifo)` plus the checked-run
//!   path the fuzzer uses — is the *identity* on every quick-battery
//!   cell: same fingerprint, bit for bit, as the plain pre-ordering run
//!   that produced the committed goldens;
//! * the fuzz invariant set (runtime invariants, per-policy determinism,
//!   task-set conservation against the FIFO baseline) holds for
//!   *arbitrary* shuffle seeds, not just the committed corpus in
//!   `fuzz/corpus.txt`.
//!
//! The vendored `proptest` stub samples deterministically from the test
//! name, so these cover a fixed-but-arbitrary slice of (cell, repeat,
//! seed) space on every run.

use proptest::prelude::*;
use speedbal_harness::run_repeat_detailed;
use speedbal_sim::OrderingPolicy;

use crate::diff::Fingerprint;
use crate::diff_battery;
use crate::fuzz::{fuzz_case, policy_case};

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// A FIFO-ordered checked run must replay any battery cell
    /// bit-identically to the plain run of the same `(cell, repeat)` —
    /// the ordering machinery may not perturb the goldens.
    #[test]
    fn fifo_plumbing_is_the_identity_on_the_battery(
        idx in 0usize..16,
        r in 0usize..2,
    ) {
        let battery = diff_battery(true);
        let s = &battery[idx % battery.len()];
        let (out, sys) = run_repeat_detailed(s, r, false);
        let golden = Fingerprint::of(&out, &sys);
        let fifo = fuzz_case(s, r, &OrderingPolicy::Fifo);
        prop_assert_eq!(Ok(golden), fifo);
    }

    /// The full fuzz invariant set holds under shuffle seeds far outside
    /// the committed corpus, on every quick-battery cell (including the
    /// NUMA and make -j cells added with the fuzzer).
    #[test]
    fn shuffle_invariants_hold_for_arbitrary_seeds(
        idx in 0usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let battery = diff_battery(true);
        let s = &battery[idx % battery.len()];
        let fifo = fuzz_case(s, 0, &OrderingPolicy::Fifo)
            .map_err(|e| format!("FIFO baseline failed: {e}"))?;
        let fails = policy_case(s, 0, &OrderingPolicy::SeededShuffle(seed), Some(&fifo));
        prop_assert!(fails.is_empty(), "{:?}", fails);
    }
}
