//! NPN classification of Boolean functions.
//!
//! Two functions are *NPN-equivalent* when one can be obtained from the
//! other by negating inputs, permuting inputs, and negating the output
//! (§III-A of the paper, citing Petkovska et al.). Exact synthesis only
//! needs one representative per class, which is how the paper's `NPN4`
//! suite (all 222 classes of 4-input functions) is built.
//!
//! [`canonicalize`] performs exhaustive canonization — all `n! · 2^n · 2`
//! transforms — with word-level table operations on one reused buffer,
//! which serves every arity up to 8 inputs. Functions of at most four
//! inputs walk their orbit once per process and are answered from a
//! per-function memo afterwards.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use crate::error::TruthTableError;
use crate::kernel;
use crate::truth_table::{TruthTable, MAX_VARS};

/// An NPN transform: permute inputs, complement a subset of inputs, and
/// optionally complement the output.
///
/// Applying the transform computes
/// `g(x_0, …, x_{n−1}) = f(y_0, …, y_{n−1}) ^ output_negated`, where
/// `y_{perm[i]} = x_i ^ input_negated_bit(perm[i])` — i.e. `perm` maps new
/// positions to old positions and negations are expressed on the *old*
/// inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    /// Input permutation: new variable `i` reads old variable `perm[i]`.
    pub perm: Vec<usize>,
    /// Bitmask of *old* inputs that are complemented before permutation.
    pub input_negations: u32,
    /// Whether the output is complemented.
    pub output_negated: bool,
}

impl NpnTransform {
    /// The identity transform on `n` variables.
    pub fn identity(n: usize) -> Self {
        NpnTransform { perm: (0..n).collect(), input_negations: 0, output_negated: false }
    }

    /// Applies the transform to a truth table.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::InvalidPermutation`] when the transform
    /// arity does not match the table.
    pub fn apply(&self, tt: &TruthTable) -> Result<TruthTable, TruthTableError> {
        if self.perm.len() != tt.num_vars() {
            return Err(TruthTableError::InvalidPermutation);
        }
        let mut out = tt.clone();
        for v in 0..tt.num_vars() {
            if (self.input_negations >> v) & 1 == 1 {
                out = out.flip_input(v);
            }
        }
        out = out.permute(&self.perm)?;
        if self.output_negated {
            out = !out;
        }
        Ok(out)
    }
}

/// Result of [`canonicalize`]: the class representative and one transform
/// that produces it from the input function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NpnCanonical {
    /// The lexicographically smallest truth table in the NPN orbit.
    pub representative: TruthTable,
    /// A transform with `transform.apply(&original) == representative`.
    pub transform: NpnTransform,
}

/// An NPN transform on an output *vector*: one shared input
/// permutation/negation, plus a permutation of the outputs and a
/// per-output phase.
///
/// The input half follows the [`NpnTransform`] convention (`perm` maps
/// new positions to old, `input_negations` is a mask on the *old*
/// inputs). Applying the transform to a tuple `f_0, …, f_{k−1}` yields
/// `g_0, …, g_{k−1}` with
/// `g_j(x…) = f_{output_perm[j]}(y…) ^ output_negations[j]`
/// for the same `y` relation as the single-output transform.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultiNpnTransform {
    /// Input permutation: new variable `i` reads old variable `perm[i]`.
    pub perm: Vec<usize>,
    /// Bitmask of *old* inputs complemented before permutation.
    pub input_negations: u32,
    /// Output permutation: canonical position `j` holds original output
    /// `output_perm[j]`.
    pub output_perm: Vec<usize>,
    /// Per-*canonical-position* output complementation.
    pub output_negations: Vec<bool>,
}

impl MultiNpnTransform {
    /// The identity transform on `n` inputs and `k` outputs.
    pub fn identity(n: usize, k: usize) -> Self {
        MultiNpnTransform {
            perm: (0..n).collect(),
            input_negations: 0,
            output_perm: (0..k).collect(),
            output_negations: vec![false; k],
        }
    }

    /// Applies the transform to an output vector.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::InvalidPermutation`] when the input
    /// arity, output count, or output permutation does not match.
    pub fn apply(&self, tts: &[TruthTable]) -> Result<Vec<TruthTable>, TruthTableError> {
        let k = tts.len();
        if self.output_perm.len() != k || self.output_negations.len() != k {
            return Err(TruthTableError::InvalidPermutation);
        }
        let mut seen = vec![false; k];
        for &o in &self.output_perm {
            if o >= k || seen[o] {
                return Err(TruthTableError::InvalidPermutation);
            }
            seen[o] = true;
        }
        let inner = NpnTransform {
            perm: self.perm.clone(),
            input_negations: self.input_negations,
            output_negated: false,
        };
        let mut out = Vec::with_capacity(k);
        for j in 0..k {
            let mut g = inner.apply(&tts[self.output_perm[j]])?;
            if self.output_negations[j] {
                g = !g;
            }
            out.push(g);
        }
        Ok(out)
    }
}

/// Result of [`canonicalize_multi`]: the canonical representative tuple
/// and one transform that produces it from the input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiNpnCanonical {
    /// The lexicographically smallest tuple (sorted ascending) in the
    /// orbit of the output vector.
    pub representatives: Vec<TruthTable>,
    /// A transform with `transform.apply(&originals) == representatives`.
    pub transform: MultiNpnTransform,
}

/// The input permutations of `n` variables, `n` bytes each, in the order
/// this recursive Heap's algorithm emits them (identity first). Built
/// once per arity and shared by every orbit walk; the order is part of
/// the canonical transform's tie rule, so it must never change.
fn perm_table(n: usize) -> &'static [u8] {
    fn heap(k: usize, cur: &mut [u8], out: &mut Vec<u8>) {
        if k <= 1 {
            out.extend_from_slice(cur);
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
    static TABLES: [OnceLock<Vec<u8>>; MAX_VARS + 1] = [const { OnceLock::new() }; MAX_VARS + 1];
    TABLES[n].get_or_init(|| {
        let mut cur: Vec<u8> = (0..n as u8).collect();
        let mut out = Vec::new();
        heap(n, &mut cur, &mut out);
        out
    })
}

/// Walks the input half of an NPN orbit: for every input permutation
/// (in [`perm_table`] order) and every input-negation mask (ascending),
/// calls `visit(perm, neg, tables)`, where `tables` is `words` — one or
/// more `n`-input tables of `words_len(n)` words each — under that
/// shared transform (`perm` and `neg` as in [`NpnTransform`]).
///
/// Each permutation costs one copy of `words` and at most `n − 1` delta
/// swaps; each further mask negates, in place, only the inputs whose
/// mask bit changed, at their permuted position. Nothing is allocated
/// per transform.
fn walk_orbit(n: usize, words: &[u64], mut visit: impl FnMut(&[u8], u32, &[u64])) {
    let perms = perm_table(n);
    let table_len = kernel::words_len(n);
    let mut work = words.to_vec();
    let mut vars = [0usize; MAX_VARS];
    let mut flip_at = [0usize; MAX_VARS]; // flip_at[v]: where old input v now sits
    let mut plan = [(0u8, 0u8); MAX_VARS];
    for p in 0..(1..=n).product() {
        let perm = &perms[p * n..(p + 1) * n];
        for (i, &v) in perm.iter().enumerate() {
            vars[i] = v as usize;
            flip_at[v as usize] = i;
        }
        let swaps = kernel::front_swap_plan(n, &vars[..n], &mut plan);
        work.copy_from_slice(words);
        for table in work.chunks_exact_mut(table_len) {
            for &(i, j) in &plan[..swaps] {
                kernel::swap_in_place(table, n, i as usize, j as usize);
            }
        }
        visit(perm, 0, &work);
        for neg in 1..1u32 << n {
            let mut changed = neg ^ (neg - 1);
            while changed != 0 {
                kernel::flip_in_place(&mut work, n, flip_at[changed.trailing_zeros() as usize]);
                changed &= changed - 1;
            }
            visit(perm, neg, &work);
        }
    }
}

/// Whether `a ^ flip` (word by word) is less than `b` in [`TruthTable`]
/// order: the first differing word, from word 0, decides.
fn xor_less(a: &[u64], flip: u64, b: &[u64]) -> bool {
    for (&x, &y) in a.iter().zip(b) {
        if x ^ flip != y {
            return x ^ flip < y;
        }
    }
    false
}

/// Exhaustively canonicalizes a function under NPN equivalence.
///
/// The representative is the smallest truth table reachable by any NPN
/// transform, in [`TruthTable`]'s order: packed words compared in
/// storage order (word 0 first), each as an unsigned integer. The
/// transform is the first one reaching it when permutations are taken
/// in a fixed Heap order, input-negation masks ascending, and the
/// uncomplemented output before the complemented one — so both the
/// representative and the transform are deterministic.
///
/// All `n! · 2^n · 2` transforms are visited with word-level operations
/// on one reused buffer: a permutation is a handful of delta swaps, a
/// step to the next negation mask negates one or two inputs in place,
/// and both output phases are compared without building a table. That
/// keeps it fast enough for every arity the `stpd` daemon accepts (up
/// to 8 inputs): on one core of a 2-CPU x86-64 cloud VM, about 7 µs at
/// 4 inputs, 70 µs at 5 and 0.2 s at 8 (EXPERIMENTS.md). Cost still
/// grows as `n! · 2^n`, so 9 or more inputs are impractical.
///
/// Functions of at most four inputs are walked once per process: the
/// answer is packed into a lock-free memo entry per function and every
/// later call unpacks it (`tt.npn_memo_hits`). The memo only stores
/// what the walk returned, so answers, ties included, are the walk's.
///
/// # Examples
///
/// ```
/// use stp_tt::{canonicalize, TruthTable};
///
/// // AND and NOR are NPN-equivalent.
/// let and = TruthTable::from_hex(2, "8")?;
/// let nor = TruthTable::from_hex(2, "1")?;
/// assert_eq!(
///     canonicalize(&and).representative,
///     canonicalize(&nor).representative,
/// );
/// # Ok::<(), stp_tt::TruthTableError>(())
/// ```
pub fn canonicalize(tt: &TruthTable) -> NpnCanonical {
    stp_telemetry::counter!("tt.npn_canonicalizations").inc();
    let n = tt.num_vars();
    if n > MEMO_MAX_VARS {
        return walk_canonical(tt);
    }
    // Relaxed suffices: an entry publishes no other data, its one word
    // is the whole answer.
    let slot = &small_memo(n)[tt.words()[0] as usize];
    let packed = slot.load(Ordering::Relaxed);
    if packed & MEMO_VALID != 0 {
        // Unscoped: whether a call hits depends on what the process
        // canonicalized before, so per-request counter maps leave it out.
        stp_telemetry::counter!("tt.npn_memo_hits").inc_unscoped();
        return unpack(n, packed);
    }
    let canon = walk_canonical(tt);
    slot.store(pack(&canon), Ordering::Relaxed);
    canon
}

/// Functions of at most this many inputs are answered from the memo.
const MEMO_MAX_VARS: usize = 4;

/// Set in every filled memo entry; an entry without it is unfilled.
const MEMO_VALID: u32 = 1 << 31;

/// The canonicalization memo for `n ≤ 4` inputs: one entry per
/// function, indexed by its table word (`2^(2^n)` entries, 65 536 at
/// `n = 4`, about 257 KiB over all five arities). Allocated on the
/// first canonicalization of that arity, zero (unfilled) until a
/// function's first walk stores its answer.
///
/// An entry packs the walk's whole answer into one word, so a reader
/// sees either nothing or a complete answer and racing fillers store
/// the same value: bits 0–15 hold the representative's table, bits
/// 16–23 the permutation (bits `16 + 2i..` hold `perm[i]`), bits 24–27
/// the input-negation mask, bit 28 the output phase and bit 31
/// [`MEMO_VALID`].
fn small_memo(n: usize) -> &'static [AtomicU32] {
    static MEMOS: [OnceLock<Box<[AtomicU32]>>; MEMO_MAX_VARS + 1] =
        [const { OnceLock::new() }; MEMO_MAX_VARS + 1];
    MEMOS[n].get_or_init(|| (0..1usize << (1 << n)).map(|_| AtomicU32::new(0)).collect())
}

/// Whether the memo holds an answer for `tt` (at most four inputs).
#[cfg(test)]
pub(crate) fn memo_filled(tt: &TruthTable) -> bool {
    small_memo(tt.num_vars())[tt.words()[0] as usize].load(Ordering::Relaxed) & MEMO_VALID != 0
}

/// Packs a walk's answer on at most [`MEMO_MAX_VARS`] inputs into a
/// memo entry (layout on [`small_memo`]).
fn pack(canon: &NpnCanonical) -> u32 {
    let t = &canon.transform;
    let perm = t.perm.iter().enumerate().fold(0, |acc, (i, &p)| acc | (p as u32) << (2 * i));
    canon.representative.words()[0] as u32
        | perm << 16
        | t.input_negations << 24
        | u32::from(t.output_negated) << 28
        | MEMO_VALID
}

/// The answer a memo entry of an `n`-input function packs.
fn unpack(n: usize, packed: u32) -> NpnCanonical {
    NpnCanonical {
        representative: TruthTable::from_u64(n, u64::from(packed & 0xffff))
            .expect("a memo entry holds an n-input table"),
        transform: NpnTransform {
            perm: (0..n).map(|i| (packed >> (16 + 2 * i) & 3) as usize).collect(),
            input_negations: packed >> 24 & 0xf,
            output_negated: packed >> 28 & 1 == 1,
        },
    }
}

/// The orbit walk behind [`canonicalize`]: every transform visited,
/// the first strict minimum kept.
pub(crate) fn walk_canonical(tt: &TruthTable) -> NpnCanonical {
    let n = tt.num_vars();
    let used = kernel::low_mask(tt.num_bits());
    // The walk's first candidate is the identity transform, so starting
    // from it keeps the first-minimum-wins tie rule.
    let mut best = tt.words().to_vec();
    let mut best_perm: [u8; MAX_VARS] = std::array::from_fn(|i| i as u8);
    let (mut best_neg, mut best_out) = (0, false);
    walk_orbit(n, tt.words(), |perm, neg, words| {
        for (out_neg, flip) in [(false, 0), (true, used)] {
            if xor_less(words, flip, &best) {
                for (b, w) in best.iter_mut().zip(words) {
                    *b = w ^ flip;
                }
                best_perm[..n].copy_from_slice(perm);
                (best_neg, best_out) = (neg, out_neg);
            }
        }
    });
    NpnCanonical {
        representative: TruthTable::from_words(n, best).expect("same arity as the input"),
        transform: NpnTransform {
            perm: best_perm[..n].iter().map(|&p| p as usize).collect(),
            input_negations: best_neg,
            output_negated: best_out,
        },
    }
}

/// Exhaustively canonicalizes an output *vector* under shared-input NPN
/// equivalence.
///
/// Two k-output specs are equivalent when one maps to the other by a
/// single input permutation/negation shared by every output, plus an
/// output permutation and per-output phases. The representative tuple is
/// the lexicographically smallest sorted tuple reachable that way; ties
/// between equal tables are broken by original output index, so the
/// transform is deterministic. The orbit is walked as in
/// [`canonicalize`], with all outputs transformed together: `n! · 2^n`
/// input transforms of `k` tables each.
///
/// # Panics
///
/// Panics when `tts` is empty or the outputs disagree on arity.
///
/// # Examples
///
/// ```
/// use stp_tt::{canonicalize_multi, TruthTable};
///
/// // A full adder: (sum, carry) over shared inputs.
/// let sum = TruthTable::from_hex(3, "96")?;
/// let carry = TruthTable::from_hex(3, "e8")?;
/// let canon = canonicalize_multi(&[sum.clone(), carry.clone()]);
/// assert_eq!(
///     canon.transform.apply(&[sum, carry])?,
///     canon.representatives,
/// );
/// # Ok::<(), stp_tt::TruthTableError>(())
/// ```
pub fn canonicalize_multi(tts: &[TruthTable]) -> MultiNpnCanonical {
    assert!(!tts.is_empty(), "canonicalize_multi needs at least one output");
    let n = tts[0].num_vars();
    assert!(
        tts.iter().all(|t| t.num_vars() == n),
        "canonicalize_multi outputs must share one arity"
    );
    stp_telemetry::counter!("tt.npn_mo_canonicalizations").inc();
    let k = tts.len();
    let used = kernel::low_mask(tts[0].num_bits());
    let table_len = kernel::words_len(n);
    let words: Vec<u64> = tts.iter().flat_map(|t| t.words()).copied().collect();
    // Per-transform scratch: each output's phase (as an XOR mask) and
    // the canonical output order.
    let mut flips = vec![0u64; k];
    let mut order: Vec<usize> = (0..k).collect();
    // Empty until the walk's first candidate, which always wins.
    let mut best: Vec<u64> = Vec::with_capacity(words.len());
    let mut best_perm = [0u8; MAX_VARS];
    let mut best_neg = 0;
    let mut best_order = Vec::with_capacity(k);
    let mut best_negations = Vec::with_capacity(k);
    walk_orbit(n, &words, |perm, neg, tables| {
        let table = |o: usize| &tables[o * table_len..(o + 1) * table_len];
        // Per-output phase: keep the smaller polarity.
        for (o, flip) in flips.iter_mut().enumerate() {
            let t = table(o);
            *flip = if xor_less(t, used, t) { used } else { 0 };
        }
        let phased = |o: usize| {
            let flip = flips[o];
            table(o).iter().map(move |w| w ^ flip)
        };
        // Canonical output order: by table, ties by original index.
        order.sort_unstable_by(|&a, &b| phased(a).cmp(phased(b)).then(a.cmp(&b)));
        if best.is_empty() || order.iter().flat_map(|&o| phased(o)).lt(best.iter().copied()) {
            best.clear();
            best.extend(order.iter().flat_map(|&o| phased(o)));
            best_perm[..n].copy_from_slice(perm);
            best_neg = neg;
            best_order.clone_from(&order);
            best_negations.clear();
            best_negations.extend(order.iter().map(|&o| flips[o] != 0));
        }
    });
    MultiNpnCanonical {
        representatives: best
            .chunks_exact(table_len)
            .map(|t| TruthTable::from_words(n, t.to_vec()).expect("same arity as the input"))
            .collect(),
        transform: MultiNpnTransform {
            perm: best_perm[..n].iter().map(|&p| p as usize).collect(),
            input_negations: best_neg,
            output_perm: best_order,
            output_negations: best_negations,
        },
    }
}

/// Enumerates one representative per NPN class of `n`-variable functions.
///
/// Representatives are returned sorted. For `n = 4` this yields the
/// paper's 222 classes; `n = 3` yields 14, `n = 2` yields 4.
///
/// # Panics
///
/// Panics if `n > 4` — exhausting `2^{2^n}` functions is only feasible up
/// to four variables.
pub fn npn_classes(n: usize) -> Vec<TruthTable> {
    assert!(n <= 4, "exhaustive class enumeration is limited to n <= 4");
    let used = kernel::low_mask(1 << n);
    let mut visited = vec![false; used as usize + 1];
    let mut reps = Vec::new();
    for f in 0..=used {
        if visited[f as usize] {
            continue;
        }
        // Mark the whole orbit and record this (smallest) member as the
        // representative: iterating f in ascending order guarantees the
        // first unvisited member is the orbit minimum, and keeps `reps`
        // sorted.
        reps.push(TruthTable::from_u64(n, f).expect("n <= 4 fits in a word"));
        walk_orbit(n, &[f], |_, _, words| {
            visited[words[0] as usize] = true;
            visited[(words[0] ^ used) as usize] = true;
        });
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_transform_is_noop() {
        let tt = TruthTable::from_hex(3, "e8").unwrap();
        let id = NpnTransform::identity(3);
        assert_eq!(id.apply(&tt).unwrap(), tt);
    }

    #[test]
    fn transform_arity_mismatch_is_error() {
        let tt = TruthTable::from_hex(3, "e8").unwrap();
        let id = NpnTransform::identity(2);
        assert!(id.apply(&tt).is_err());
    }

    #[test]
    fn canonical_transform_reproduces_representative() {
        for hex in ["8ff8", "6996", "cafe", "0001", "1234"] {
            let tt = TruthTable::from_hex(4, hex).unwrap();
            let canon = canonicalize(&tt);
            assert_eq!(
                canon.transform.apply(&tt).unwrap(),
                canon.representative,
                "transform must map {hex} to its representative"
            );
        }
    }

    #[test]
    fn npn_equivalent_functions_share_representative() {
        let and = TruthTable::from_hex(2, "8").unwrap();
        let or = TruthTable::from_hex(2, "e").unwrap();
        let nand = TruthTable::from_hex(2, "7").unwrap();
        let nor = TruthTable::from_hex(2, "1").unwrap();
        let rep = canonicalize(&and).representative;
        for other in [or, nand, nor] {
            assert_eq!(canonicalize(&other).representative, rep);
        }
        // XOR is in a different class.
        let xor = TruthTable::from_hex(2, "6").unwrap();
        assert_ne!(canonicalize(&xor).representative, rep);
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let tt = TruthTable::from_hex(4, "1ee1").unwrap();
        let c1 = canonicalize(&tt).representative;
        let c2 = canonicalize(&c1).representative;
        assert_eq!(c1, c2);
    }

    #[test]
    fn class_counts_match_literature() {
        // Known NPN class counts (including degenerate functions).
        assert_eq!(npn_classes(0).len(), 1);
        assert_eq!(npn_classes(1).len(), 2);
        assert_eq!(npn_classes(2).len(), 4);
        assert_eq!(npn_classes(3).len(), 14);
    }

    #[test]
    fn npn4_has_222_classes() {
        // The paper's NPN4 suite: all 222 4-input classes.
        let classes = npn_classes(4);
        assert_eq!(classes.len(), 222);
        // Every representative canonicalizes to itself.
        for rep in classes.iter().take(10) {
            assert_eq!(canonicalize(rep).representative, *rep);
        }
    }

    #[test]
    fn multi_transform_reproduces_representatives() {
        let cases: &[&[&str]] =
            &[&["96", "e8"], &["e8", "96"], &["80", "96", "ea"], &["cafe", "8ff8"][..]];
        for hexes in cases {
            let n = if hexes[0].len() == 4 { 4 } else { 3 };
            let tts: Vec<TruthTable> =
                hexes.iter().map(|h| TruthTable::from_hex(n, h).unwrap()).collect();
            let canon = canonicalize_multi(&tts);
            assert_eq!(
                canon.transform.apply(&tts).unwrap(),
                canon.representatives,
                "transform must map {hexes:?} to its representative tuple"
            );
            // The representative tuple is sorted.
            let mut sorted = canon.representatives.clone();
            sorted.sort();
            assert_eq!(sorted, canon.representatives);
        }
    }

    #[test]
    fn multi_canonicalization_is_orbit_invariant() {
        // Shuffling outputs, negating outputs, and NPN-transforming the
        // shared inputs must not change the representative tuple.
        let sum = TruthTable::from_hex(3, "96").unwrap();
        let carry = TruthTable::from_hex(3, "e8").unwrap();
        let base = canonicalize_multi(&[sum.clone(), carry.clone()]);
        let variant = MultiNpnTransform {
            perm: vec![2, 0, 1],
            input_negations: 0b101,
            output_perm: vec![1, 0],
            output_negations: vec![true, false],
        };
        let moved = variant.apply(&[sum, carry]).unwrap();
        let canon = canonicalize_multi(&moved);
        assert_eq!(canon.representatives, base.representatives);
    }

    #[test]
    fn multi_singleton_agrees_with_single_output_canonicalization() {
        for hex in ["8ff8", "6996", "cafe", "0001", "1234"] {
            let tt = TruthTable::from_hex(4, hex).unwrap();
            let single = canonicalize(&tt).representative;
            let multi = canonicalize_multi(std::slice::from_ref(&tt));
            assert_eq!(multi.representatives, vec![single]);
        }
    }

    #[test]
    fn multi_canonicalization_is_idempotent() {
        let tts = vec![
            TruthTable::from_hex(4, "1ee1").unwrap(),
            TruthTable::from_hex(4, "8ff8").unwrap(),
        ];
        let c1 = canonicalize_multi(&tts);
        let c2 = canonicalize_multi(&c1.representatives);
        assert_eq!(c1.representatives, c2.representatives);
    }

    #[test]
    fn multi_handles_duplicate_outputs() {
        let tt = TruthTable::from_hex(3, "e8").unwrap();
        let canon = canonicalize_multi(&[tt.clone(), tt.clone()]);
        assert_eq!(canon.representatives[0], canon.representatives[1]);
        assert_eq!(canon.transform.apply(&[tt.clone(), tt]).unwrap(), canon.representatives);
    }

    #[test]
    fn multi_transform_rejects_bad_output_perm() {
        let tt = TruthTable::from_hex(2, "8").unwrap();
        let bad = MultiNpnTransform {
            perm: vec![0, 1],
            input_negations: 0,
            output_perm: vec![0, 0],
            output_negations: vec![false, false],
        };
        assert!(bad.apply(&[tt.clone(), tt]).is_err());
    }

    #[test]
    fn concurrent_callers_get_identical_answers() {
        // Four threads canonicalize the same 4-input functions, each in
        // its own order, so entries are filled and read concurrently.
        let functions: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(40_503) & 0xffff).collect();
        let barrier = std::sync::Barrier::new(4);
        let answers: Vec<Vec<(u64, NpnCanonical)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (functions, barrier) = (&functions, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let order = functions.iter().cycle().skip(t * 1024).take(functions.len());
                        order
                            .map(|&f| (f, canonicalize(&TruthTable::from_u64(4, f).unwrap())))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for thread in &answers {
            for (f, canon) in thread {
                let tt = TruthTable::from_u64(4, *f).unwrap();
                assert_eq!(*canon, walk_canonical(&tt), "function {f:04x}");
            }
        }
    }

    #[test]
    fn representatives_are_orbit_minima() {
        let classes = npn_classes(3);
        for rep in &classes {
            let canon = canonicalize(rep);
            assert_eq!(canon.representative, *rep);
        }
    }
}
