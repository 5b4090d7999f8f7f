//! K-feasible cut enumeration.
//!
//! A *cut* of node `v` is a set of signals (leaves) such that every
//! path from the inputs to `v` passes through a leaf; a cut is
//! `k`-feasible when it has at most `k` leaves. Rewriting enumerates
//! the cuts of every node bottom-up (merging fanin cuts, pruning
//! dominated ones), computes each cut's local function, and asks exact
//! synthesis for a cheaper implementation.

use stp_tt::{kernel, TruthTable};

use crate::error::NetworkError;
use crate::network::Network;

/// A cut: sorted leaf signal indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cut {
    /// Sorted signal indices of the leaves.
    pub leaves: Vec<usize>,
}

impl Cut {
    /// The trivial cut `{v}`.
    pub fn trivial(v: usize) -> Cut {
        Cut { leaves: vec![v] }
    }

    /// Merges two cuts; `None` when the union exceeds `k` leaves.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        let mut leaves = Vec::with_capacity(self.leaves.len() + other.leaves.len());
        let (mut i, mut j) = (0, 0);
        while i < self.leaves.len() || j < other.leaves.len() {
            let next = match (self.leaves.get(i), other.leaves.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                    a
                }
                (Some(&a), Some(&b)) if a < b => {
                    i += 1;
                    a
                }
                (Some(_), Some(&b)) => {
                    j += 1;
                    b
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => unreachable!("loop condition"),
            };
            if leaves.len() == k {
                return None;
            }
            leaves.push(next);
        }
        Some(Cut { leaves })
    }

    /// `true` when every leaf of `self` appears in `other` (`self`
    /// dominates `other`: anything realizable from `other`'s leaves is
    /// realizable from `self`'s).
    pub fn dominates(&self, other: &Cut) -> bool {
        self.leaves.iter().all(|l| other.leaves.binary_search(l).is_ok())
    }
}

/// Per-node cut sets for a network.
#[derive(Debug, Clone)]
pub struct CutSet {
    /// `cuts[s]` lists the cuts of signal `s` (smallest first).
    pub cuts: Vec<Vec<Cut>>,
}

/// Enumerates the `k`-feasible cuts of every signal, keeping at most
/// `limit` non-trivial cuts per node (smaller cuts preferred).
///
/// Constants and inputs get only their trivial cut.
pub fn enumerate_cuts(net: &Network, k: usize, limit: usize) -> CutSet {
    let n = net.num_signals();
    let mut cuts: Vec<Vec<Cut>> = Vec::with_capacity(n);
    for s in 0..n {
        if !net.is_gate(s) {
            cuts.push(vec![Cut::trivial(s)]);
            continue;
        }
        let gate = net.gate(s);
        let mut mine: Vec<Cut> = Vec::new();
        for c1 in &cuts[gate.fanin[0]] {
            for c2 in &cuts[gate.fanin[1]] {
                if let Some(merged) = c1.merge(c2, k) {
                    // Drop if dominated by an existing cut; drop existing
                    // cuts it dominates.
                    if mine.iter().any(|c| c.dominates(&merged)) {
                        continue;
                    }
                    mine.retain(|c| !merged.dominates(c));
                    mine.push(merged);
                }
            }
        }
        mine.sort_by_key(|c| c.leaves.len());
        mine.truncate(limit);
        // The trivial cut always present (last: it is never useful for
        // rewriting but is needed for fanout merges).
        mine.push(Cut::trivial(s));
        cuts.push(mine);
    }
    stp_telemetry::counter!("network.cuts_enumerated")
        .add(cuts.iter().map(Vec::len).sum::<usize>() as u64);
    CutSet { cuts }
}

/// Computes the function of `root` in terms of a cut's leaves, with a
/// fresh [`CutEvaluator`]. Callers evaluating many cuts of one network
/// should keep one evaluator and call [`CutEvaluator::eval`].
///
/// # Errors
///
/// Returns [`NetworkError::TooManyInputsForSimulation`] when the cut
/// has more leaves than the truth-table substrate supports (cuts used
/// for rewriting are ≤ 4 leaves, far below the limit).
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
        let k = cut.leaves.len();
        if k > stp_tt::MAX_VARS {
            return Err(NetworkError::TooManyInputsForSimulation { inputs: k });
        }
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
        for (i, &leaf) in cut.leaves.iter().enumerate() {
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
        let c1 = Cut { leaves: vec![1, 2] };
        let c2 = Cut { leaves: vec![3, 4] };
        assert!(c1.merge(&c2, 4).is_some());
        assert!(c1.merge(&c2, 3).is_none());
        let c3 = Cut { leaves: vec![1, 3] };
        assert_eq!(c1.merge(&c3, 3).unwrap().leaves, vec![1, 2, 3]);
    }

    #[test]
    fn domination() {
        let small = Cut { leaves: vec![1, 2] };
        let big = Cut { leaves: vec![1, 2, 3] };
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
    }

    #[test]
    fn enumerate_finds_expected_cuts() {
        let (net, f, _) = sample_network();
        let cuts = enumerate_cuts(&net, 4, 8);
        let f_cuts = &cuts.cuts[f.index()];
        // The input cut {a, b, c, d} must be among f's cuts.
        assert!(f_cuts.iter().any(|c| c.leaves == vec![1, 2, 3, 4]));
        // And the fanin cut {ab, cd}.
        assert!(f_cuts.iter().any(|c| c.leaves.len() == 2 && c.leaves[0] > 4));
    }

    #[test]
    fn cut_functions_match_global_simulation() {
        let (net, f, g) = sample_network();
        let cuts = enumerate_cuts(&net, 4, 8);
        let global = net.simulate().unwrap();
        for root in [f.index(), g.index()] {
            for cut in &cuts.cuts[root] {
                let local = cut_function(&net, root, cut).unwrap();
                // Check on every assignment: the local function applied
                // to the leaves' global values equals the root's global
                // value.
                for m in 0..16usize {
                    let leaf_vals: Vec<bool> =
                        cut.leaves.iter().map(|&l| global[l].bit(m)).collect();
                    assert_eq!(
                        local.eval(&leaf_vals),
                        global[root].bit(m),
                        "root {root}, cut {:?}, minterm {m}",
                        cut.leaves
                    );
                }
            }
        }
    }

    /// The recursive per-node `TruthTable` evaluator the word arena
    /// replaced, kept as the reference.
    fn reference_cut_function(net: &Network, root: usize, cut: &Cut) -> TruthTable {
        let k = cut.leaves.len();
        let mut memo: Vec<Option<TruthTable>> = vec![None; net.num_signals()];
        for (i, &leaf) in cut.leaves.iter().enumerate() {
            memo[leaf] = Some(TruthTable::variable(k, i).unwrap());
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
                for (root, root_cuts) in cuts.cuts.iter().enumerate() {
                    for cut in root_cuts {
                        let fast = evaluator.eval(&net, root, cut).unwrap();
                        assert_eq!(
                            fast,
                            reference_cut_function(&net, root, cut),
                            "seed {seed}, root {root}, leaves {:?}",
                            cut.leaves
                        );
                        checked[cut.leaves.len()] += 1;
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
        let f_cuts = &cuts.cuts[f.index()];
        for (i, a) in f_cuts.iter().enumerate() {
            for (j, b) in f_cuts.iter().enumerate() {
                if i != j && a.leaves != b.leaves {
                    assert!(
                        !(a.dominates(b) && a.leaves.len() < b.leaves.len()),
                        "dominated cut {:?} kept alongside {:?}",
                        b.leaves,
                        a.leaves
                    );
                }
            }
        }
    }
}
