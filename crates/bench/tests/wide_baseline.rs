//! Differential gate for the wide-spec (9–12-input) suite.
//!
//! The `WIDE[9..12]` suite routes decomposition charts of 8–64 words
//! through the factorizer's multi-word wide path (splits with
//! `|A| + |B| ≤ 8`, `|S| ≤ 8` past `FAST_MAX_VARS`). Its counters are
//! pinned in `BENCH_pins.json` (the `pins` test); this test replays
//! the same specs through the scalar `force_naive` reference engine,
//! pinning chain-for-chain equality.

use stp_bench::wide;
use stp_fence::TreeShape;
use stp_synth::{FactorConfig, Factorizer};

/// A balanced shape with `leaves` leaves: one leaf of slack over the
/// support admits shared variables, so top-level splits can satisfy
/// `|A| + |B| ≤ 8` and route through the wide path.
fn balanced_shape(leaves: usize) -> TreeShape {
    if leaves == 1 {
        TreeShape::Leaf
    } else {
        TreeShape::node(balanced_shape(leaves / 2), balanced_shape(leaves - leaves / 2))
    }
}

#[test]
fn wide_specs_match_forced_naive_reference() {
    // One suite spec per arity (9..=12), each factored on a fixed
    // balanced shape by the default (wide-routing) engine and by the
    // scalar `force_naive` reference: realizations, exploration, and
    // chart counts must agree exactly.
    let suite = wide();
    let mut total_charts = 0u64;
    for spec in suite.functions.iter().step_by(2) {
        let d = spec.support().len();
        let shape = balanced_shape(d + 1);
        let mut fast =
            Factorizer::new(FactorConfig { max_realizations: 16, ..FactorConfig::default() });
        let mut naive = Factorizer::new(FactorConfig {
            max_realizations: 16,
            force_naive: true,
            ..FactorConfig::default()
        });
        let chains_f: Vec<String> =
            fast.chains_on_shape(spec, &shape).unwrap().iter().map(|c| c.to_string()).collect();
        let chains_n: Vec<String> =
            naive.chains_on_shape(spec, &shape).unwrap().iter().map(|c| c.to_string()).collect();
        assert_eq!(chains_f, chains_n, "chains diverged at arity {d}");
        assert_eq!(fast.nodes_explored(), naive.nodes_explored(), "exploration at arity {d}");
        assert_eq!(fast.memo_hits(), naive.memo_hits(), "memo hits at arity {d}");
        assert_eq!(fast.charts_built(), naive.charts_built(), "charts at arity {d}");
        total_charts += fast.charts_built();
    }
    assert!(total_charts > 0, "the differential must actually build charts");
}
