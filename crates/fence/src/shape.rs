//! Unordered binary tree shapes.
//!
//! The STP factorization engine (crate `stp-synth`) assigns gate
//! operators to *tree-structured* partial DAGs; reconvergence enters
//! through repeated primary-input leaves (the paper's power-reducing
//! matrix `M_r`, Property 3). A [`TreeShape`] is the skeleton of such a
//! DAG: a binary tree with unlabelled leaves, considered up to swapping
//! children (the gate operator library is closed under argument
//! swapping, so ordered variants are redundant).
//!
//! Every shape maps to the [`Fence`] counting its internal nodes per
//! level, which is how the paper's fence pruning (§III-A) filters the
//! topology search.

use std::fmt;

use crate::fence::Fence;

/// An unordered binary tree shape: leaves are open primary-input slots,
/// internal nodes are 2-input gates.
///
/// The canonical representative orders every node's children so the
/// "smaller" subtree comes first; [`shapes_with_gates`] only produces
/// canonical shapes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TreeShape {
    /// An open leaf (to be bound to a primary input).
    Leaf,
    /// An internal 2-input gate over two subtrees.
    Node(Box<TreeShape>, Box<TreeShape>),
}

impl TreeShape {
    /// Builds a canonical internal node (children sorted).
    pub fn node(a: TreeShape, b: TreeShape) -> TreeShape {
        if a <= b {
            TreeShape::Node(Box::new(a), Box::new(b))
        } else {
            TreeShape::Node(Box::new(b), Box::new(a))
        }
    }

    /// Number of internal (gate) nodes.
    pub fn gate_count(&self) -> usize {
        match self {
            TreeShape::Leaf => 0,
            TreeShape::Node(a, b) => 1 + a.gate_count() + b.gate_count(),
        }
    }

    /// Number of leaves (open primary-input slots).
    pub fn leaf_count(&self) -> usize {
        self.gate_count() + 1
    }

    /// Height with leaves at level 0.
    pub fn height(&self) -> usize {
        match self {
            TreeShape::Leaf => 0,
            TreeShape::Node(a, b) => 1 + a.height().max(b.height()),
        }
    }

    /// The fence of this shape: internal-node counts per level (level of
    /// a gate is one more than its taller child; leaves sit at level 0
    /// and are not counted).
    ///
    /// Returns `None` for a bare leaf, which has no gates and therefore
    /// no fence.
    pub fn fence(&self) -> Option<Fence> {
        let h = self.height();
        if h == 0 {
            return None;
        }
        let mut counts = vec![0usize; h];
        self.count_levels(&mut counts);
        Fence::new(counts)
    }

    fn count_levels(&self, counts: &mut [usize]) {
        if let TreeShape::Node(a, b) = self {
            counts[self.height() - 1] += 1;
            a.count_levels(counts);
            b.count_levels(counts);
        }
    }

    /// `true` when this is the canonical representative (every node's
    /// first child is ≤ its second).
    pub fn is_canonical(&self) -> bool {
        match self {
            TreeShape::Leaf => true,
            TreeShape::Node(a, b) => a <= b && a.is_canonical() && b.is_canonical(),
        }
    }
}

impl fmt::Display for TreeShape {
    /// Renders with parentheses, leaves as `*`: e.g. `((* *) (* *))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeShape::Leaf => write!(f, "*"),
            TreeShape::Node(a, b) => write!(f, "({a} {b})"),
        }
    }
}

/// Enumerates all canonical tree shapes with exactly `gates` internal
/// nodes (`gates + 1` leaves). The counts follow the
/// Wedderburn–Etherington numbers: 1, 1, 2, 3, 6, 11, 23, … shapes for
/// 1, 2, 3, … gates.
pub fn shapes_with_gates(gates: usize) -> Vec<TreeShape> {
    shapes_with_leaves(gates + 1)
}

/// The canonical shapes with `leaves` leaves, sorted: built bottom-up
/// by leaf count, so each smaller list is built once. A shape of `k`
/// leaves pairs a `left`-leaf shape with a `(k − left)`-leaf one,
/// `left ≤ k / 2`; for equal halves, only pairs with the first no
/// greater than the second.
fn shapes_with_leaves(leaves: usize) -> Vec<TreeShape> {
    if leaves == 0 {
        return Vec::new();
    }
    let mut by_leaves: Vec<Vec<TreeShape>> = vec![Vec::new(), vec![TreeShape::Leaf]];
    for total in 2..=leaves {
        let mut out = Vec::new();
        for left in 1..=total / 2 {
            let (ls, rs) = (&by_leaves[left], &by_leaves[total - left]);
            for (i, a) in ls.iter().enumerate() {
                let rs = if 2 * left == total { &rs[i..] } else { &rs[..] };
                out.extend(rs.iter().map(|b| TreeShape::node(a.clone(), b.clone())));
            }
        }
        out.sort();
        out.dedup();
        by_leaves.push(out);
    }
    by_leaves.swap_remove(leaves)
}

/// Enumerates the canonical shapes with `gates` internal nodes whose
/// fence equals `fence` — the tree members of the fence's DAG family.
pub fn shapes_for_fence(fence: &Fence) -> Vec<TreeShape> {
    shapes_with_gates(fence.num_nodes())
        .into_iter()
        .filter(|s| s.fence().as_ref() == Some(fence))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enumeration as first written: recurses for each split, so a
    /// smaller list is rebuilt once per split that needs it.
    fn shapes_with_leaves_recursive(leaves: usize) -> Vec<TreeShape> {
        if leaves == 0 {
            return Vec::new();
        }
        if leaves == 1 {
            return vec![TreeShape::Leaf];
        }
        let mut out = Vec::new();
        for left in 1..=(leaves / 2) {
            let right = leaves - left;
            let ls = shapes_with_leaves_recursive(left);
            let rs = shapes_with_leaves_recursive(right);
            if left == right {
                for (i, a) in ls.iter().enumerate() {
                    for b in &rs[i..] {
                        out.push(TreeShape::node(a.clone(), b.clone()));
                    }
                }
            } else {
                for a in &ls {
                    for b in &rs {
                        out.push(TreeShape::node(a.clone(), b.clone()));
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn wedderburn_etherington_counts() {
        // Shapes with 2, 3, …, 11 leaves (1 to 10 gates).
        let expected = [1usize, 1, 2, 3, 6, 11, 23, 46, 98, 207];
        for (gates, &count) in expected.iter().enumerate() {
            assert_eq!(shapes_with_gates(gates + 1).len(), count, "gates = {}", gates + 1);
        }
        assert!(shapes_with_gates(0) == [TreeShape::Leaf]);
    }

    #[test]
    fn bottom_up_enumeration_matches_the_recursion() {
        for gates in 0..=9 {
            assert_eq!(
                shapes_with_gates(gates),
                shapes_with_leaves_recursive(gates + 1),
                "gates = {gates}"
            );
        }
        assert!(shapes_with_leaves(0).is_empty());
    }

    #[test]
    fn all_generated_shapes_are_canonical_and_distinct() {
        let shapes = shapes_with_gates(6);
        for s in &shapes {
            assert!(s.is_canonical());
            assert_eq!(s.gate_count(), 6);
            assert_eq!(s.leaf_count(), 7);
        }
        let mut sorted = shapes.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), shapes.len());
    }

    #[test]
    fn balanced_tree_fence() {
        // ((* *) (* *)): three gates, fence (2, 1) — Fig. 3(a).
        let leaf = TreeShape::Leaf;
        let pair = TreeShape::node(leaf.clone(), leaf.clone());
        let balanced = TreeShape::node(pair.clone(), pair.clone());
        assert_eq!(balanced.gate_count(), 3);
        assert_eq!(balanced.fence().unwrap().levels(), &[2, 1]);
        assert_eq!(balanced.height(), 2);
    }

    #[test]
    fn chain_tree_fence() {
        // (((* *) *) *): three gates in a chain, fence (1, 1, 1).
        let leaf = TreeShape::Leaf;
        let c1 = TreeShape::node(leaf.clone(), leaf.clone());
        let c2 = TreeShape::node(c1, leaf.clone());
        let c3 = TreeShape::node(c2, leaf.clone());
        assert_eq!(c3.fence().unwrap().levels(), &[1, 1, 1]);
    }

    #[test]
    fn leaf_has_no_fence() {
        assert!(TreeShape::Leaf.fence().is_none());
    }

    #[test]
    fn shapes_for_fence_partition_the_family() {
        // Every 4-gate shape belongs to exactly one fence.
        let shapes = shapes_with_gates(4);
        let mut total = 0usize;
        for fence in crate::fence::all_fences(4) {
            total += shapes_for_fence(&fence).len();
        }
        assert_eq!(total, shapes.len());
    }

    #[test]
    fn node_constructor_canonicalizes() {
        let leaf = TreeShape::Leaf;
        let pair = TreeShape::node(leaf.clone(), leaf.clone());
        let a = TreeShape::node(pair.clone(), leaf.clone());
        let b = TreeShape::node(leaf, pair);
        assert_eq!(a, b);
    }

    #[test]
    fn display_round_trips_structure() {
        let leaf = TreeShape::Leaf;
        let pair = TreeShape::node(leaf.clone(), leaf.clone());
        let t = TreeShape::node(pair, leaf);
        assert_eq!(format!("{t}"), "(* (* *))");
    }
}
