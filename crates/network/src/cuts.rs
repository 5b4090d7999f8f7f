//! K-feasible cut enumeration.
//!
//! A *cut* of node `v` is a set of signals (leaves) such that every
//! path from the inputs to `v` passes through a leaf; a cut is
//! `k`-feasible when it has at most `k` leaves. Rewriting enumerates
//! the cuts of every node bottom-up (merging fanin cuts, pruning
//! dominated ones), computes each cut's local function, and asks exact
//! synthesis for a cheaper implementation.

use stp_tt::{kernel, TruthTable, MAX_VARS};

use crate::error::NetworkError;
use crate::network::Network;

/// A cut: up to [`MAX_VARS`] sorted leaf signal indices, held inline,
/// plus a 64-bit leaf signature (bit `leaf % 64` per leaf). The
/// signature rejects most oversized merges and most dominance tests
/// before any leaf is read (Mishchenko et al., "priority cuts",
/// ICCAD'07).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cut {
    /// Sorted leaves in `leaves[..len]`; the rest are zero.
    leaves: [u32; MAX_VARS],
    len: u8,
    signature: u64,
}

impl Cut {
    /// The trivial cut `{v}`.
    pub fn trivial(v: usize) -> Cut {
        Cut::from_leaves(&[v])
    }

    /// The cut over `leaves`.
    ///
    /// # Panics
    ///
    /// Panics when `leaves` is not strictly ascending, holds more than
    /// [`MAX_VARS`] signals, or names a signal past `u32::MAX`.
    pub fn from_leaves(leaves: &[usize]) -> Cut {
        assert!(leaves.len() <= MAX_VARS, "a cut holds at most {MAX_VARS} leaves");
        assert!(leaves.windows(2).all(|w| w[0] < w[1]), "cut leaves must be strictly ascending");
        let mut cut = Cut { leaves: [0; MAX_VARS], len: 0, signature: 0 };
        for &leaf in leaves {
            cut.push(u32::try_from(leaf).expect("signal index fits in u32"));
        }
        cut
    }

    /// The sorted leaf signal indices.
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// The number of leaves.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the cut has no leaves; [`enumerate_cuts`] never builds
    /// one.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether signal `s` is a leaf.
    pub fn contains(&self, s: usize) -> bool {
        self.signature & bit(s) != 0 && self.leaves().iter().any(|&l| l as usize == s)
    }

    fn push(&mut self, leaf: u32) {
        self.leaves[self.len as usize] = leaf;
        self.len += 1;
        self.signature |= bit(leaf as usize);
    }

    /// Merges two cuts; `None` when the union exceeds `k` leaves.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        // Distinct signature bits are distinct leaves: too many of them
        // rule the union out before the leaves are walked.
        if (self.signature | other.signature).count_ones() as usize > k {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = Cut { leaves: [0; MAX_VARS], len: 0, signature: 0 };
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = if j == b.len() || (i < a.len() && a[i] < b[j]) {
                i += 1;
                a[i - 1]
            } else {
                if i < a.len() && a[i] == b[j] {
                    i += 1;
                }
                j += 1;
                b[j - 1]
            };
            if out.len() == k {
                return None;
            }
            out.push(next);
        }
        Some(out)
    }

    /// `true` when every leaf of `self` appears in `other` (`self`
    /// dominates `other`: anything realizable from `other`'s leaves is
    /// realizable from `self`'s).
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.signature & !other.signature != 0 || self.len > other.len {
            return false;
        }
        // Both lists are sorted: one forward walk over `other`.
        let theirs = other.leaves();
        let mut j = 0;
        for &leaf in self.leaves() {
            while j < theirs.len() && theirs[j] < leaf {
                j += 1;
            }
            if j == theirs.len() || theirs[j] != leaf {
                return false;
            }
            j += 1;
        }
        true
    }
}

/// The signature bit of signal `s`.
fn bit(s: usize) -> u64 {
    1 << (s % 64)
}

/// Per-node cut sets for a network, in one flat arena.
#[derive(Debug, Clone)]
pub struct CutSet {
    /// Every signal's cuts, signal by signal.
    cuts: Vec<Cut>,
    /// Signal `s`'s cuts are `cuts[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
}

impl CutSet {
    /// The cuts of signal `s`: the non-trivial ones smallest first, then
    /// the trivial cut `{s}` (the only cut of constants and inputs).
    pub fn of(&self, s: usize) -> &[Cut] {
        &self.cuts[self.offsets[s]..self.offsets[s + 1]]
    }

    /// The number of cuts over every signal.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Always `false` for a set built by [`enumerate_cuts`]: the
    /// constant signal has its trivial cut.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }
}

/// Enumerates the `k`-feasible cuts of every signal, keeping at most
/// `limit` non-trivial cuts per node (smaller cuts preferred).
///
/// Constants and inputs get only their trivial cut. A node's cuts are
/// the merges of its fanins' cuts in merge order, each dropped when a
/// kept cut dominates it and dropping the kept cuts it dominates; then
/// stably sorted by size, cut to `limit`, and followed by the trivial
/// cut. Nothing is allocated per merge: every cut lives inline in one
/// arena.
///
/// # Panics
///
/// Panics when `k` exceeds [`MAX_VARS`], the most leaves a cut holds.
pub fn enumerate_cuts(net: &Network, k: usize, limit: usize) -> CutSet {
    assert!(k <= MAX_VARS, "cuts hold at most {MAX_VARS} leaves, asked for {k}");
    let n = net.num_signals();
    let mut cuts: Vec<Cut> = Vec::with_capacity(n * (limit.min(8) + 1));
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    for s in 0..n {
        let start = cuts.len();
        if net.is_gate(s) {
            let [f0, f1] = net.gate(s).fanin;
            for i in offsets[f0]..offsets[f0 + 1] {
                for j in offsets[f1]..offsets[f1 + 1] {
                    let Some(merged) = cuts[i].merge(&cuts[j], k) else { continue };
                    if cuts[start..].iter().any(|c| c.dominates(&merged)) {
                        continue;
                    }
                    // Drop the kept cuts it dominates, in place.
                    let mut kept = start;
                    for r in start..cuts.len() {
                        if !merged.dominates(&cuts[r]) {
                            cuts[kept] = cuts[r];
                            kept += 1;
                        }
                    }
                    cuts.truncate(kept);
                    cuts.push(merged);
                }
            }
            cuts[start..].sort_by_key(Cut::len);
            cuts.truncate(start + limit);
        }
        // The trivial cut always present (last: it is never useful for
        // rewriting but is needed for fanout merges).
        cuts.push(Cut::trivial(s));
        offsets.push(cuts.len());
    }
    stp_telemetry::counter!("network.cuts_enumerated").add(cuts.len() as u64);
    CutSet { cuts, offsets }
}

/// Computes the function of `root` in terms of a cut's leaves, with a
/// fresh [`CutEvaluator`]. Callers evaluating many cuts of one network
/// should keep one evaluator and call [`CutEvaluator::eval`].
///
/// # Errors
///
/// Propagates a truth-table construction failure. A [`Cut`] holds at
/// most [`MAX_VARS`] leaves, which the truth-table substrate supports,
/// so none is expected.
///
/// # Panics
///
/// Panics when `root` is not actually covered by the cut (some path
/// reaches an input without crossing a leaf).
pub fn cut_function(net: &Network, root: usize, cut: &Cut) -> Result<TruthTable, NetworkError> {
    CutEvaluator::new().eval(net, root, cut)
}

/// Evaluates cut functions word by word in one arena reused across
/// cuts: a cut of `k` leaves gets `words_len(k)` words per visited
/// signal (the leaves, the constant, then the cone's gates in
/// topological order), and nothing else is allocated per cut but the
/// returned table.
#[derive(Debug, Default)]
pub struct CutEvaluator {
    /// The current cut's tables, `words_len(k)` words each.
    words: Vec<u64>,
    /// `table[s]` is signal `s`'s table in `words` when `stamp[s]` is
    /// the current `epoch`.
    table: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Post-order walk of the cone: (signal, fanins already pushed).
    stack: Vec<(usize, bool)>,
}

impl CutEvaluator {
    /// An evaluator with an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the function of `root` in terms of `cut`'s leaves, as
    /// [`cut_function`] does. Signal 0 (constant false) reads false
    /// unless it is a leaf.
    ///
    /// # Errors
    ///
    /// Same conditions as [`cut_function`].
    ///
    /// # Panics
    ///
    /// Panics when `root` is not covered by the cut.
    pub fn eval(
        &mut self,
        net: &Network,
        root: usize,
        cut: &Cut,
    ) -> Result<TruthTable, NetworkError> {
        let k = cut.len();
        let len = kernel::words_len(k);
        let used = kernel::low_mask(1 << k);
        if self.stamp.len() < net.num_signals() {
            self.stamp.resize(net.num_signals(), 0);
            self.table.resize(net.num_signals(), 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.words.clear();
        for (i, &leaf) in cut.leaves().iter().enumerate() {
            let leaf = leaf as usize;
            self.stamp[leaf] = epoch;
            self.table[leaf] = i as u32;
            self.words.extend((0..len).map(|w| kernel::var_word(i, w) & used));
        }
        if self.stamp[0] != epoch {
            self.stamp[0] = epoch;
            self.table[0] = k as u32;
            self.words.resize(self.words.len() + len, 0);
        }
        self.stack.clear();
        self.stack.push((root, false));
        while let Some((s, expanded)) = self.stack.pop() {
            if self.stamp[s] == epoch {
                continue;
            }
            assert!(net.is_gate(s), "cut does not cover signal {s}");
            let gate = net.gate(s);
            if !expanded {
                self.stack.push((s, true));
                for f in gate.fanin {
                    if self.stamp[f] != epoch {
                        self.stack.push((f, false));
                    }
                }
                continue;
            }
            let t = self.words.len() / len;
            let [a, b] = gate.fanin.map(|f| self.table[f] as usize * len);
            for w in 0..len {
                let v = kernel::lut2(gate.tt2, self.words[a + w], self.words[b + w]) & used;
                self.words.push(v);
            }
            self.stamp[s] = epoch;
            self.table[s] = t as u32;
        }
        let t = self.table[root] as usize * len;
        Ok(TruthTable::from_words(k, self.words[t..t + len].to_vec())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Sig;

    fn sample_network() -> (Network, Sig, Sig) {
        // f = (a & b) ^ (c | d), g = (a & b) | c.
        let mut net = Network::new(4);
        let (a, b, c, d) = (net.input(0), net.input(1), net.input(2), net.input(3));
        let ab = net.and(a, b).unwrap();
        let cd = net.or(c, d).unwrap();
        let f = net.xor(ab, cd).unwrap();
        let g = net.or(ab, c).unwrap();
        net.add_output(f);
        net.add_output(g);
        (net, f, g)
    }

    #[test]
    fn cut_merge_respects_k() {
        let c1 = Cut::from_leaves(&[1, 2]);
        let c2 = Cut::from_leaves(&[3, 4]);
        assert!(c1.merge(&c2, 4).is_some());
        assert!(c1.merge(&c2, 3).is_none());
        let c3 = Cut::from_leaves(&[1, 3]);
        assert_eq!(c1.merge(&c3, 3).unwrap(), Cut::from_leaves(&[1, 2, 3]));
        // Leaves 65 and 1 share a signature bit: the signature admits the
        // merge, the leaf walk refuses it.
        let c4 = Cut::from_leaves(&[65, 66]);
        assert!(c1.merge(&c4, 3).is_none());
        assert_eq!(c1.merge(&c4, 4).unwrap().leaves(), &[1, 2, 65, 66]);
    }

    #[test]
    fn domination() {
        let small = Cut::from_leaves(&[1, 2]);
        let big = Cut::from_leaves(&[1, 2, 3]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small));
        // Same signature, different leaves.
        assert!(!Cut::from_leaves(&[1, 66]).dominates(&Cut::from_leaves(&[1, 2, 65])));
        assert!(Cut::from_leaves(&[2, 65]).contains(65));
        assert!(!Cut::from_leaves(&[2, 65]).contains(1));
    }

    #[test]
    fn enumerate_finds_expected_cuts() {
        let (net, f, _) = sample_network();
        let cuts = enumerate_cuts(&net, 4, 8);
        let f_cuts = cuts.of(f.index());
        // The input cut {a, b, c, d} must be among f's cuts.
        assert!(f_cuts.iter().any(|c| c.leaves() == [1, 2, 3, 4]));
        // And the fanin cut {ab, cd}.
        assert!(f_cuts.iter().any(|c| c.len() == 2 && c.leaves()[0] > 4));
    }

    #[test]
    fn cut_functions_match_global_simulation() {
        let (net, f, g) = sample_network();
        let cuts = enumerate_cuts(&net, 4, 8);
        let global = net.simulate().unwrap();
        for root in [f.index(), g.index()] {
            for cut in cuts.of(root) {
                let local = cut_function(&net, root, cut).unwrap();
                // Check on every assignment: the local function applied
                // to the leaves' global values equals the root's global
                // value.
                for m in 0..16usize {
                    let leaf_vals: Vec<bool> =
                        cut.leaves().iter().map(|&l| global[l as usize].bit(m)).collect();
                    assert_eq!(
                        local.eval(&leaf_vals),
                        global[root].bit(m),
                        "root {root}, cut {:?}, minterm {m}",
                        cut.leaves()
                    );
                }
            }
        }
    }

    /// The recursive per-node `TruthTable` evaluator the word arena
    /// replaced, kept as the reference.
    fn reference_cut_function(net: &Network, root: usize, cut: &Cut) -> TruthTable {
        let k = cut.len();
        let mut memo: Vec<Option<TruthTable>> = vec![None; net.num_signals()];
        for (i, &leaf) in cut.leaves().iter().enumerate() {
            memo[leaf as usize] = Some(TruthTable::variable(k, i).unwrap());
        }
        if memo[0].is_none() {
            memo[0] = Some(TruthTable::constant(k, false).unwrap());
        }
        fn eval(net: &Network, s: usize, memo: &mut [Option<TruthTable>]) -> TruthTable {
            if let Some(tt) = &memo[s] {
                return tt.clone();
            }
            let gate = net.gate(s);
            let a = eval(net, gate.fanin[0], memo);
            let b = eval(net, gate.fanin[1], memo);
            let tt = a.binary_op(gate.tt2, &b).unwrap();
            memo[s] = Some(tt.clone());
            tt
        }
        eval(net, root, &mut memo)
    }

    #[test]
    fn word_arena_matches_the_recursive_evaluator() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        // One evaluator for every cut of every network, as a rewriting
        // pass uses it, so stale arena state would show.
        let mut evaluator = CutEvaluator::new();
        let mut checked = [0usize; 9];
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(0xc0f3 + seed);
            let net = crate::circuits::random_network(10, 40, 4, &mut rng).unwrap();
            for k in 2..=8 {
                let cuts = enumerate_cuts(&net, k, 24);
                for root in 0..net.num_signals() {
                    for cut in cuts.of(root) {
                        let fast = evaluator.eval(&net, root, cut).unwrap();
                        assert_eq!(
                            fast,
                            reference_cut_function(&net, root, cut),
                            "seed {seed}, root {root}, leaves {:?}",
                            cut.leaves()
                        );
                        checked[cut.len()] += 1;
                    }
                }
            }
        }
        // Every cut size up to 8 leaves was exercised.
        assert!(checked[2..=8].iter().all(|&c| c > 0), "{checked:?}");
    }

    #[test]
    fn trivial_cut_function_is_identity() {
        let (net, f, _) = sample_network();
        let tt = cut_function(&net, f.index(), &Cut::trivial(f.index())).unwrap();
        assert_eq!(tt, TruthTable::variable(1, 0).unwrap());
    }

    #[test]
    fn dominated_cuts_are_pruned() {
        let (net, f, _) = sample_network();
        let cuts = enumerate_cuts(&net, 4, 8);
        let f_cuts = cuts.of(f.index());
        for (i, a) in f_cuts.iter().enumerate() {
            for (j, b) in f_cuts.iter().enumerate() {
                if i != j && a != b {
                    assert!(
                        !(a.dominates(b) && a.len() < b.len()),
                        "dominated cut {:?} kept alongside {:?}",
                        b.leaves(),
                        a.leaves()
                    );
                }
            }
        }
    }

    /// Cut enumeration as first written: a fresh leaf `Vec` per merge
    /// and dominance by binary search, kept as the reference the arena
    /// must reproduce cut for cut.
    fn reference_enumerate_cuts(net: &Network, k: usize, limit: usize) -> Vec<Vec<Vec<usize>>> {
        fn merge(a: &[usize], b: &[usize], k: usize) -> Option<Vec<usize>> {
            let mut leaves = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                let next = match (a.get(i), b.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        i += 1;
                        j += 1;
                        x
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        i += 1;
                        x
                    }
                    (Some(_), Some(&y)) | (None, Some(&y)) => {
                        j += 1;
                        y
                    }
                    (Some(&x), None) => {
                        i += 1;
                        x
                    }
                    (None, None) => unreachable!("loop condition"),
                };
                if leaves.len() == k {
                    return None;
                }
                leaves.push(next);
            }
            Some(leaves)
        }
        fn dominates(a: &[usize], b: &[usize]) -> bool {
            a.iter().all(|l| b.binary_search(l).is_ok())
        }
        let mut cuts: Vec<Vec<Vec<usize>>> = Vec::new();
        for s in 0..net.num_signals() {
            if !net.is_gate(s) {
                cuts.push(vec![vec![s]]);
                continue;
            }
            let [f0, f1] = net.gate(s).fanin;
            let mut mine: Vec<Vec<usize>> = Vec::new();
            for c1 in &cuts[f0] {
                for c2 in &cuts[f1] {
                    if let Some(merged) = merge(c1, c2, k) {
                        if mine.iter().any(|c| dominates(c, &merged)) {
                            continue;
                        }
                        mine.retain(|c| !dominates(&merged, c));
                        mine.push(merged);
                    }
                }
            }
            mine.sort_by_key(Vec::len);
            mine.truncate(limit);
            mine.push(vec![s]);
            cuts.push(mine);
        }
        cuts
    }

    #[test]
    fn arena_matches_the_reference_enumeration() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut compared = 0usize;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0xa7e4 + seed);
            // Past 64 signals, so signature bits alias.
            let net = crate::circuits::random_network(10, 90, 4, &mut rng).unwrap();
            for k in 2..=8 {
                for limit in 1..=24 {
                    let arena = enumerate_cuts(&net, k, limit);
                    let reference = reference_enumerate_cuts(&net, k, limit);
                    for (s, want) in reference.iter().enumerate() {
                        let got: Vec<Vec<usize>> = arena
                            .of(s)
                            .iter()
                            .map(|c| c.leaves().iter().map(|&l| l as usize).collect())
                            .collect();
                        assert_eq!(&got, want, "seed {seed}, k {k}, limit {limit}, signal {s}");
                    }
                    assert_eq!(arena.len(), reference.iter().map(Vec::len).sum::<usize>());
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 6 * 7 * 24);
    }
}
