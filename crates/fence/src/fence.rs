//! Boolean fences (§III-A of the paper).
//!
//! Given integers `k` and `l` with `1 ≤ l ≤ k`, a *Boolean fence* is a
//! partition of `k` nodes over `l` levels where each level holds at least
//! one node; `F(k, l)` is the family of all such fences and
//! `F_k = { F(k, l) | 1 ≤ l ≤ k }` the family over all level counts
//! (Fig. 2a shows `F_3`).
//!
//! The paper prunes `F_k` with two rules (Fig. 2b):
//!
//! 1. single-output synthesis needs exactly **one node on the top level**;
//! 2. because operators are 2-input, a level may hold **at most twice as
//!    many nodes as the level above it** ("no more than two nodes between
//!    a higher logic level and each lower logic level").

use std::fmt;

/// A Boolean fence: node counts per level, bottom level first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fence {
    levels: Vec<usize>,
}

impl Fence {
    /// Creates a fence from per-level node counts (bottom level first).
    ///
    /// Returns `None` when any level is empty or no levels are given —
    /// such shapes are not fences.
    pub fn new(levels: Vec<usize>) -> Option<Self> {
        if levels.is_empty() || levels.contains(&0) {
            None
        } else {
            Some(Fence { levels })
        }
    }

    /// Node counts per level, bottom level first.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Total number of nodes, `k`.
    pub fn num_nodes(&self) -> usize {
        self.levels.iter().sum()
    }

    /// Number of levels, `l`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of nodes on the top level.
    pub fn top_count(&self) -> usize {
        *self.levels.last().expect("fences have at least one level")
    }

    /// `true` when the fence survives the paper's pruning: a single top
    /// node and each level at most twice the size of the level above.
    pub fn is_pruned_valid(&self) -> bool {
        self.top_count() == 1 && self.levels.windows(2).all(|w| w[0] <= 2 * w[1])
    }
}

impl fmt::Display for Fence {
    /// Renders as `(bottom, …, top)`, e.g. `(2, 1)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// Enumerates `F(k, l)`: all fences with `k` nodes over exactly `l`
/// levels (compositions of `k` into `l` positive parts), in
/// lexicographic order.
///
/// Returns an empty vector when `l == 0`, `k == 0`, or `l > k`.
pub fn fences_with_levels(k: usize, l: usize) -> Vec<Fence> {
    let mut out = Vec::new();
    if l == 0 || k == 0 || l > k {
        return out;
    }
    let mut cur = Vec::with_capacity(l);
    fn recurse(remaining: usize, levels_left: usize, cur: &mut Vec<usize>, out: &mut Vec<Fence>) {
        if levels_left == 1 {
            cur.push(remaining);
            out.push(Fence { levels: cur.clone() });
            cur.pop();
            return;
        }
        // Leave at least one node per remaining level.
        for c in 1..=(remaining - (levels_left - 1)) {
            cur.push(c);
            recurse(remaining - c, levels_left - 1, cur, out);
            cur.pop();
        }
    }
    recurse(k, l, &mut cur, &mut out);
    out
}

/// Enumerates the full family `F_k` (all level counts), bottom-up level
/// count first — Fig. 2a for `k = 3`.
pub fn all_fences(k: usize) -> Vec<Fence> {
    (1..=k).flat_map(|l| fences_with_levels(k, l)).collect()
}

/// Enumerates the pruned family used by the paper (Fig. 2b for `k = 3`):
/// single top node, each level at most twice the level above.
pub fn pruned_fences(k: usize) -> Vec<Fence> {
    all_fences(k).into_iter().filter(Fence::is_pruned_valid).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_has_four_fences() {
        // Fig. 2a: F_3 = {(3), (1,2), (2,1), (1,1,1)}.
        let fences = all_fences(3);
        assert_eq!(fences.len(), 4);
        let as_vecs: Vec<&[usize]> = fences.iter().map(|f| f.levels()).collect();
        assert!(as_vecs.contains(&&[3][..]));
        assert!(as_vecs.contains(&&[1, 2][..]));
        assert!(as_vecs.contains(&&[2, 1][..]));
        assert!(as_vecs.contains(&&[1, 1, 1][..]));
    }

    #[test]
    fn pruned_f3_matches_paper() {
        // Fig. 2b: only (2, 1) and (1, 1, 1) survive.
        let fences = pruned_fences(3);
        let as_vecs: Vec<&[usize]> = fences.iter().map(|f| f.levels()).collect();
        assert_eq!(as_vecs, vec![&[2, 1][..], &[1, 1, 1][..]]);
    }

    #[test]
    fn fence_counts_are_compositions() {
        // |F_k| = 2^{k−1} (number of compositions of k).
        for k in 1..=8 {
            assert_eq!(all_fences(k).len(), 1 << (k - 1), "k={k}");
        }
    }

    #[test]
    fn fences_partition_nodes() {
        for fence in all_fences(5) {
            assert_eq!(fence.num_nodes(), 5);
            assert!(fence.levels().iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn pruning_rules() {
        assert!(Fence::new(vec![2, 1]).unwrap().is_pruned_valid());
        assert!(Fence::new(vec![4, 2, 1]).unwrap().is_pruned_valid());
        // Top level must hold one node.
        assert!(!Fence::new(vec![1, 2]).unwrap().is_pruned_valid());
        // 3 > 2 × 1.
        assert!(!Fence::new(vec![3, 1]).unwrap().is_pruned_valid());
        assert!(!Fence::new(vec![3, 1, 1]).unwrap().is_pruned_valid());
    }

    #[test]
    fn invalid_fences_rejected() {
        assert!(Fence::new(vec![]).is_none());
        assert!(Fence::new(vec![2, 0, 1]).is_none());
    }

    #[test]
    fn fences_with_levels_edge_cases() {
        assert!(fences_with_levels(3, 0).is_empty());
        assert!(fences_with_levels(0, 1).is_empty());
        assert!(fences_with_levels(2, 3).is_empty());
        assert_eq!(fences_with_levels(4, 1).len(), 1);
        assert_eq!(fences_with_levels(4, 4).len(), 1);
    }

    #[test]
    fn display_format() {
        let f = Fence::new(vec![2, 1]).unwrap();
        assert_eq!(format!("{f}"), "(2, 1)");
    }

    #[test]
    fn pruned_families_grow_slowly() {
        // The pruned family is much smaller than the full family — the
        // point of §III-A.
        for k in 3..=9 {
            let full = all_fences(k).len();
            let pruned = pruned_fences(k).len();
            assert!(pruned < full, "pruning must remove fences for k={k}");
        }
    }
}
