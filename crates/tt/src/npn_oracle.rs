//! Reference NPN canonicalizers and the differential tests that pin the
//! word-level orbit walker in [`crate::npn`], and the memo that answers
//! functions of at most four inputs from it, to them.
//!
//! The references are the straightforward exhaustive loops: for every
//! permutation and negation mask they build the transformed table
//! minterm by minterm and keep the first strict minimum. They are slow
//! (a per-minterm evaluation and several allocations per transform) but
//! obviously right, and they fix
//! the enumeration order — Heap permutations, ascending negation masks,
//! output phase false before true — so the fast path must match them on
//! the representative *and* the transform, field by field.

use crate::npn::{memo_filled, walk_canonical};
use crate::{
    canonicalize, canonicalize_multi, npn_classes, MultiNpnCanonical, MultiNpnTransform,
    NpnCanonical, NpnTransform, TruthTable,
};

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..n).collect();
    fn heap(k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(cur.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, cur, out);
            if k.is_multiple_of(2) {
                cur.swap(i, k - 1);
            } else {
                cur.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut cur, &mut out);
    out
}

/// `tt` with the inputs in `neg` complemented, then permuted by `perm`,
/// evaluated minterm by minterm from the definition (new input `i`
/// carries old input `perm[i]`), so it shares no word-level kernel with
/// the code under test.
fn input_transform(tt: &TruthTable, perm: &[usize], neg: u32) -> TruthTable {
    TruthTable::from_fn(tt.num_vars(), |x| {
        let old = perm.iter().zip(x).filter(|(_, &bit)| bit).fold(0, |m, (&p, _)| m | 1 << p);
        tt.bit(old ^ neg as usize)
    })
    .unwrap()
}

fn canonicalize_reference(tt: &TruthTable) -> NpnCanonical {
    let n = tt.num_vars();
    let mut best: Option<(TruthTable, NpnTransform)> = None;
    for perm in permutations(n) {
        for neg in 0..(1u32 << n) {
            let permuted = input_transform(tt, &perm, neg);
            for out_neg in [false, true] {
                let candidate = if out_neg { !permuted.clone() } else { permuted.clone() };
                if best.as_ref().is_none_or(|(b, _)| candidate < *b) {
                    let transform = NpnTransform {
                        perm: perm.clone(),
                        input_negations: neg,
                        output_negated: out_neg,
                    };
                    best = Some((candidate, transform));
                }
            }
        }
    }
    let (representative, transform) = best.expect("orbit is never empty");
    NpnCanonical { representative, transform }
}

fn canonicalize_multi_reference(tts: &[TruthTable]) -> MultiNpnCanonical {
    let n = tts[0].num_vars();
    let mut best: Option<(Vec<TruthTable>, MultiNpnTransform)> = None;
    for perm in permutations(n) {
        for neg in 0..(1u32 << n) {
            let mut items: Vec<(TruthTable, bool, usize)> = Vec::new();
            for (o, tt) in tts.iter().enumerate() {
                let permuted = input_transform(tt, &perm, neg);
                let negated = !permuted.clone();
                if negated < permuted {
                    items.push((negated, true, o));
                } else {
                    items.push((permuted, false, o));
                }
            }
            items.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)));
            let candidate: Vec<TruthTable> = items.iter().map(|(t, _, _)| t.clone()).collect();
            if best.as_ref().is_none_or(|(b, _)| candidate < *b) {
                let transform = MultiNpnTransform {
                    perm: perm.clone(),
                    input_negations: neg,
                    output_perm: items.iter().map(|(_, _, o)| *o).collect(),
                    output_negations: items.iter().map(|(_, neg, _)| *neg).collect(),
                };
                best = Some((candidate, transform));
            }
        }
    }
    let (representatives, transform) = best.expect("orbit is never empty");
    MultiNpnCanonical { representatives, transform }
}

fn npn_classes_reference(n: usize) -> Vec<TruthTable> {
    let total = (1u64 << (1 << n)) - 1;
    let mut visited = vec![false; total as usize + 1];
    let mut reps = Vec::new();
    for f in 0..=total {
        if visited[f as usize] {
            continue;
        }
        let tt = TruthTable::from_u64(n, f).unwrap();
        reps.push(tt.clone());
        for perm in permutations(n) {
            for neg in 0..(1u32 << n) {
                let permuted = input_transform(&tt, &perm, neg);
                visited[permuted.words()[0] as usize] = true;
                visited[(!permuted).words()[0] as usize] = true;
            }
        }
    }
    reps.sort();
    reps
}

/// A tiny deterministic LCG, so every sample below is fixed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn table(&mut self, n: usize) -> TruthTable {
        let words = (0..crate::kernel::words_len(n)).map(|_| self.next() << 11 | self.next());
        TruthTable::from_words(n, words.collect()).unwrap()
    }
}

/// Checks the orbit walk and both `canonicalize` paths against the
/// reference: the first call walks and fills the memo (unless an earlier
/// test already filled that entry), the second is answered from the
/// memo on at most four inputs.
fn assert_single_matches(tt: &TruthTable) {
    let reference = canonicalize_reference(tt);
    let fill = canonicalize(tt);
    if tt.num_vars() <= 4 {
        assert!(memo_filled(tt), "the first call must fill the memo for {tt:?}");
    }
    for (path, fast) in [("walk", walk_canonical(tt)), ("fill", fill), ("hit", canonicalize(tt))] {
        assert_eq!(fast.representative, reference.representative, "{path}: rep of {tt:?}");
        assert_eq!(fast.transform.perm, reference.transform.perm, "{path}: perm of {tt:?}");
        assert_eq!(
            fast.transform.input_negations, reference.transform.input_negations,
            "{path}: input negations of {tt:?}"
        );
        assert_eq!(
            fast.transform.output_negated, reference.transform.output_negated,
            "{path}: output negation of {tt:?}"
        );
    }
}

fn assert_multi_matches(tts: &[TruthTable]) {
    let fast = canonicalize_multi(tts);
    let reference = canonicalize_multi_reference(tts);
    assert_eq!(fast.representatives, reference.representatives, "representatives of {tts:?}");
    assert_eq!(fast.transform.perm, reference.transform.perm, "perm of {tts:?}");
    assert_eq!(
        fast.transform.input_negations, reference.transform.input_negations,
        "input negations of {tts:?}"
    );
    assert_eq!(fast.transform.output_perm, reference.transform.output_perm, "{tts:?}");
    assert_eq!(fast.transform.output_negations, reference.transform.output_negations, "{tts:?}");
}

#[test]
fn every_function_of_up_to_three_inputs_matches_the_reference() {
    for n in 0..=3 {
        for f in 0..1u64 << (1 << n) {
            assert_single_matches(&TruthTable::from_u64(n, f).unwrap());
        }
    }
}

#[test]
fn four_input_sweep_matches_the_reference() {
    // Every 4-input function in optimized builds; a fixed stride of them
    // under debug assertions, where the reference is much slower.
    let stride = if cfg!(debug_assertions) { 61 } else { 1 };
    for f in (0..1u64 << 16).step_by(stride) {
        assert_single_matches(&TruthTable::from_u64(4, f).unwrap());
    }
}

#[test]
fn sampled_wider_functions_match_the_reference() {
    let mut rng = Lcg(0x6e70_6e00_0001);
    for (n, samples) in [(4, 200), (5, 100), (6, 12)] {
        for _ in 0..samples {
            assert_single_matches(&rng.table(n));
        }
    }
}

#[test]
fn sampled_seven_input_functions_match_the_reference() {
    // The reference needs seconds per 7-input function.
    let samples = if cfg!(debug_assertions) { 1 } else { 2 };
    let mut rng = Lcg(0x6e70_6e00_0003);
    for _ in 0..samples {
        assert_single_matches(&rng.table(7));
    }
}

#[test]
fn multi_output_tuples_match_the_reference() {
    let mut rng = Lcg(0x6e70_6e00_0002);
    for (n, k, samples) in [(3, 2, 60), (3, 3, 30), (4, 2, 30), (4, 3, 15)] {
        for _ in 0..samples {
            let tts: Vec<TruthTable> = (0..k).map(|_| rng.table(n)).collect();
            assert_multi_matches(&tts);
        }
    }
    // Ties: repeated and complementary outputs, and a constant output.
    let f = TruthTable::from_hex(4, "1ee1").unwrap();
    let g = TruthTable::from_hex(4, "8ff8").unwrap();
    let zero = TruthTable::constant(4, false).unwrap();
    for tts in [
        vec![f.clone(), f.clone()],
        vec![f.clone(), !f.clone()],
        vec![g.clone(), f.clone(), g.clone()],
        vec![zero, g],
    ] {
        assert_multi_matches(&tts);
    }
}

#[test]
fn class_enumeration_matches_the_reference() {
    for n in 0..=4 {
        assert_eq!(npn_classes(n), npn_classes_reference(n), "n = {n}");
    }
    assert_eq!(npn_classes(4).len(), 222);
}
