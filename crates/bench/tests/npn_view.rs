//! Differential test of the NPN answer view against the eager map-back
//! it replaced.
//!
//! A store hit used to map every chain of the class back through the
//! NPN transform before returning. [`stp_store::NpnView`] maps on
//! demand instead. Over every class `warm_store`'s slice synthesizes,
//! plus 0x17e8 (672 optimum chains), each seen through 16 seeded NPN
//! transforms, the view must hand out exactly what the eager loop —
//! reproduced here from `lookup_or_solve` and `permute_negate` — did:
//!
//! * `iter()` yields the same chains, byte for byte, in the same order;
//! * `first()` is `iter().next()`;
//! * `len()` is the stored class size.
//!
//! The multi-output path is checked the same way through
//! `solve_npn_multi` and `permute_negate_outputs`.

use std::time::Duration;

use stp_bench::npn4;
use stp_chain::{Chain, ChainError};
use stp_store::{ClassKey, Entry, NpnOutcome, RepOutcome, Resolution, Store};
use stp_synth::{
    synthesize_multi_npn_with_store, synthesize_npn_with_store, MultiSpec, SynthesisConfig,
};
use stp_tt::{canonicalize, canonicalize_multi, MultiNpnTransform, NpnTransform, TruthTable};

/// Seeded NPN transforms per class.
const TRANSFORMS: u64 = 16;

/// Deterministic 64-bit LCG (no external dependency).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 ^ (self.0 >> 29)
    }

    /// A uniformly shuffled permutation of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        perm
    }
}

fn never<T: ?Sized>(_: &T) -> Result<RepOutcome, ChainError> {
    panic!("every class was warmed before the comparison")
}

/// The warm_store slice: its first 12 NPN4 classes.
fn slice() -> Vec<TruthTable> {
    let mut suite = npn4();
    suite.functions.truncate(12);
    suite.functions
}

#[test]
fn single_output_view_matches_the_eager_map_back() {
    let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
    let store = Store::new();
    let mut specs = slice();
    specs.push(TruthTable::from_hex(4, "17e8").unwrap());
    let mut rng = Lcg(0x6e70_6e5f_7669_6577);
    let mut compared = 0usize;
    for spec in &specs {
        synthesize_npn_with_store(spec, &config, &store).expect("the slice synthesizes");
        for _ in 0..TRANSFORMS {
            let n = spec.num_vars();
            let member = NpnTransform {
                perm: rng.permutation(n),
                input_negations: (rng.next() % (1 << n)) as u32,
                output_negated: rng.next() % 2 == 1,
            }
            .apply(spec)
            .unwrap();
            let outcome = store.solve_npn(&member, Duration::MAX, never).unwrap();
            let NpnOutcome::Solved(view) = outcome else {
                assert!(matches!(outcome, NpnOutcome::Trivial(_)), "{member:?}: {outcome:?}");
                continue;
            };
            // The eager loop the view replaced.
            let canon = canonicalize(&member);
            let Resolution::Solved(stored) =
                store.lookup_or_solve(&canon.representative, Duration::MAX, never).unwrap()
            else {
                panic!("warmed class must resolve");
            };
            let t = &canon.transform;
            let eager: Vec<Chain> = stored
                .iter()
                .map(|c| c.permute_negate(&t.perm, t.input_negations, t.output_negated).unwrap())
                .collect();
            let lazy: Vec<Chain> = view.iter().collect::<Result<_, _>>().unwrap();
            assert_eq!(lazy, eager, "{}: iter() must replay the eager loop", member.to_hex());
            assert_eq!(Some(view.first().unwrap()), view.iter().next().map(Result::unwrap));
            let Some(Entry::Solved(class)) = store.get(&canon.representative) else {
                panic!("warmed class must be stored");
            };
            assert_eq!(view.len(), class.len());
            compared += 1;
        }
    }
    let Some(Entry::Solved(big)) = store.get(&canonicalize(specs.last().unwrap()).representative)
    else {
        panic!("0x17e8 must be stored");
    };
    assert_eq!(big.len(), 672, "0x17e8 keeps its 672 optimum chains");
    assert!(compared >= 12 * TRANSFORMS as usize, "only {compared} non-trivial members compared");
}

#[test]
fn multi_output_view_matches_the_eager_map_back() {
    let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
    let store = Store::new();
    let classes = slice();
    let groups: Vec<Vec<TruthTable>> =
        (0..12).step_by(4).map(|i| vec![classes[i].clone(), classes[i + 1].clone()]).collect();
    let mut rng = Lcg(0x6d6f_5f76_6965_7773);
    for specs in &groups {
        let multi = MultiSpec::new(specs.clone()).unwrap();
        synthesize_multi_npn_with_store(&multi, &config, &store).expect("the pair synthesizes");
        for _ in 0..TRANSFORMS {
            let n = specs[0].num_vars();
            let members = MultiNpnTransform {
                perm: rng.permutation(n),
                input_negations: (rng.next() % (1 << n)) as u32,
                output_perm: rng.permutation(specs.len()),
                output_negations: specs.iter().map(|_| rng.next() % 2 == 1).collect(),
            }
            .apply(specs)
            .unwrap();
            let outcome = store.solve_npn_multi(&members, Duration::MAX, never).unwrap();
            let NpnOutcome::Solved(view) = outcome else {
                panic!("{members:?}: expected the warmed pair, got {outcome:?}");
            };
            let canon = canonicalize_multi(&members);
            let key = ClassKey::multi(canon.representatives.clone());
            let Resolution::Solved(stored) =
                store.lookup_or_solve_class(&key, Duration::MAX, never).unwrap()
            else {
                panic!("warmed pair must resolve");
            };
            let t = &canon.transform;
            let eager: Vec<Chain> = stored
                .iter()
                .map(|c| {
                    c.permute_negate_outputs(
                        &t.perm,
                        t.input_negations,
                        &t.output_perm,
                        &t.output_negations,
                    )
                    .unwrap()
                })
                .collect();
            let lazy: Vec<Chain> = view.iter().collect::<Result<_, _>>().unwrap();
            assert_eq!(lazy, eager, "iter() must replay the eager multi-output loop");
            assert_eq!(Some(view.first().unwrap()), view.iter().next().map(Result::unwrap));
            assert_eq!(view.len(), stored.len());
            assert_eq!(view.first().unwrap().simulate_outputs().unwrap(), members);
        }
    }
}
