//! Abort-and-reuse test for the split kernel's frame free list.
//!
//! A split takes its per-assignment tables off the engine's free list
//! and hands them back on every exit. This test aborts a cold sweep at
//! chosen deadline checkpoints (`factor.deadline=N:err`), then checks
//! that no frame stayed checked out and that the same engine, rerun on
//! the same shapes, returns a fresh engine's chains in the same order.
//!
//! The failpoint's hit count is process-global, so this binary holds
//! this one test: no other thread evaluates `factor.deadline` while an
//! `N` is armed.

#![cfg(feature = "faultsim")]

use stp_chain::Chain;
use stp_fence::{pruned_fences, shapes_for_fence, TreeShape};
use stp_synth::{FactorConfig, Factorizer, SynthesisError};
use stp_tt::TruthTable;

fn sweep(
    engine: &mut Factorizer,
    spec: &TruthTable,
    shapes: &[TreeShape],
) -> Result<Vec<Vec<Chain>>, SynthesisError> {
    shapes.iter().map(|shape| engine.chains_on_shape(spec, shape)).collect()
}

#[test]
fn an_aborted_sweep_returns_every_frame_and_reruns_alike() {
    let _guard = stp_faultsim::test_guard();
    stp_faultsim::clear_all();
    // NPN4 class 0x07b6 at its optimum of 6 gates, as in `memo_alloc`.
    let spec = TruthTable::from_hex(4, "07b6").unwrap();
    let shapes: Vec<_> = pruned_fences(6).iter().flat_map(shapes_for_fence).collect();
    let before = stp_faultsim::evaluations("factor.deadline");
    let mut fresh = Factorizer::new(FactorConfig::default());
    let want = sweep(&mut fresh, &spec, &shapes).unwrap();
    let checkpoints = stp_faultsim::evaluations("factor.deadline") - before;
    assert!(want.iter().any(|chains| !chains.is_empty()), "0x07b6 has 6-gate realizations");
    assert!(checkpoints > 500, "the sweep passed only {checkpoints} checkpoints");
    assert_eq!(fresh.split_frames_checked_out(), 0);

    for n in [1, 50, 500, checkpoints - 1] {
        let mut engine = Factorizer::new(FactorConfig::default());
        let at = stp_faultsim::evaluations("factor.deadline") + n;
        stp_faultsim::set("factor.deadline", &format!("{at}:err")).unwrap();
        let aborted =
            shapes.iter().try_for_each(|shape| engine.chains_on_shape(&spec, shape).map(drop));
        stp_faultsim::clear_all();
        assert_eq!(aborted, Err(SynthesisError::Timeout), "checkpoint {n} of {checkpoints}");
        assert_eq!(engine.split_frames_checked_out(), 0, "checkpoint {n}: a frame stayed out");
        let rerun = sweep(&mut engine, &spec, &shapes).unwrap();
        assert!(rerun == want, "checkpoint {n}: the rerun's chains differ from a fresh engine's");
        assert_eq!(engine.split_frames_checked_out(), 0);
    }
}
