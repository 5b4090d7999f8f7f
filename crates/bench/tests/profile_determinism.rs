//! Profile-tree determinism across worker counts.
//!
//! The `determinism` suite pins that the *solutions* are byte-identical
//! for any worker count; this one pins the same contract for the
//! *profile tree*: worker threads inherit the span path that was open
//! when the round was scheduled (`profile::inherit_path`), and the
//! per-worker busy span is untracked, so the aggregated tree must have
//! identical structure and call counts at `jobs = 1` and `jobs = N`.
//! Only the recorded wall times (and, under `alloc-profile`, byte
//! totals) may differ.
//!
//! One caveat, and it is the engine's documented speculation: when the
//! `max_solutions` cap binds mid-round, one worker stops at the first
//! shape that fills the cap, while more workers let shapes they already
//! claimed run on — each capped at the room the completed prefix left
//! when it was claimed, which may exceed what the merge keeps — before
//! truncating to the one-worker prefix. The *output* is identical, but
//! the *work* (and hence the profile) is a superset. The tree contract
//! therefore holds whenever the cap does not bind, which is what this
//! test runs.
//!
//! The test lives in its own integration binary with a single `#[test]`
//! fn: the profile tree is global process state, so no other test may
//! collect spans in the same process while it runs.

use stp_bench::npn4_slice;
use stp_synth::{synthesize, SynthesisConfig};
use stp_telemetry::profile;

#[test]
fn profile_tree_is_structurally_identical_across_worker_counts() {
    // The same 24-class slice the `determinism` transcript tests use:
    // fast in debug builds, but still spanning several gate counts and
    // fence families (and hence several `shape.*` subtrees).
    let suite = npn4_slice();

    let run = |jobs: usize| {
        let ((), tree) = profile::profiled(|| {
            for spec in &suite.functions {
                // An unbounded cap: every shape of the final round runs
                // at any worker count (see the module doc for why a
                // binding cap would legitimately diverge).
                let config = SynthesisConfig {
                    jobs,
                    max_solutions: usize::MAX,
                    ..SynthesisConfig::default()
                };
                synthesize(spec, &config).expect("slice instance should solve");
            }
        });
        tree
    };

    let sequential = run(1);
    // Sanity: the tree actually contains the synthesis pipeline — a
    // structurally empty tree would make the equality below vacuous.
    assert!(
        sequential.structure().lines().any(|l| l.contains("phase.factorize")),
        "sequential tree has no factorize spans:\n{}",
        sequential.structure()
    );

    for jobs in [2, 4] {
        let parallel = run(jobs);
        // `structure()` renders one `path calls=N` line per node, so
        // equality covers both the shape of the tree and every call
        // count — everything except the timing/allocation payloads.
        assert_eq!(
            sequential.structure(),
            parallel.structure(),
            "profile tree diverged between jobs=1 and jobs={jobs}"
        );
    }
}
