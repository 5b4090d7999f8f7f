//! The STP-based circuit AllSAT solver (Algorithms 1–2 of the paper).
//!
//! The solver takes a 2-LUT network (a [`Chain`]) and a target value for
//! each primary output, and enumerates every primary-input assignment
//! that produces those targets — *without* any CNF translation. Each
//! gate's 4-bit truth table is read as its structural matrix: given a
//! target `T` for the gate, the matrix columns equal to `T` name the
//! fanin value pairs to propagate (Algorithm 2's `STP_calculation`), and
//! the recursion merges the per-output partial solutions (Algorithm 1's
//! `MERGE`).
//!
//! Exact synthesis uses this as its verification engine (step iv of
//! §III): a candidate chain is accepted when the assignments that set
//! its output true are exactly the ON-set of the specification.
//!
//! Algorithm 1 keeps a partial assignment as a packed [`Cube`] (two
//! `u32` masks), so `MERGE` is one conflict test and two ORs.
//!
//! # Node view and verification
//!
//! Algorithm 2 runs over a [`NodeView`]: signal ids that are either
//! primary inputs or gates with two fanin ids. A [`Chain`] is one view
//! (signals below `n` are inputs); the factorization engine's
//! realization arena is another (a leaf node is input `left`). A
//! propagator memoizes every `(signal, target)` subproblem, so each is
//! solved once however many structural-matrix columns — or, over the
//! arena, however many candidate roots — ask for it.
//!
//! Verification propagates **cover words**, never cube lists. `MERGE`
//! is cube intersection, so the minterms covered by the merges of two
//! lists `L` and `R` are `cover(L) ∧ cover(R)`, and a list is empty
//! exactly when its cover is zero. A subproblem is memoized as its
//! [`TruthTable`]-layout words at the spec's word count: an input gives
//! its literal's cover, and a gate the OR, over its structural-matrix
//! columns `(a, b)` for the target, of `cover(left, a) ∧ cover(right,
//! b)`, with the right fanin skipped when the left cover is zero. The
//! **root check** applies the same rule to the root without memoizing
//! it and accepts iff the resulting `f_s` equals the spec.
//! [`verify_chain`] and the engine's forest verifier share this check;
//! [`solve_circuit`] keeps Algorithm 1's sorted cube lists, its merge
//! with the all-unassigned solution and its sorted output.

use std::collections::BTreeSet;
use std::ops::Range;

use stp_chain::{Chain, Gate, OutputRef};
use stp_tt::kernel::{self, VAR_MASK};
use stp_tt::TruthTable;

use crate::error::SynthesisError;

/// A partial primary-input assignment: `None` is the paper's `'-'`
/// (unassigned).
pub type PartialAssignment = Vec<Option<bool>>;

/// Most primary inputs a query may have: one bit per input in a [`Cube`].
const MAX_INPUTS: usize = 32;

/// Result of a circuit AllSAT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSolutions {
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// All maximal partial assignments satisfying the targets; distinct
    /// entries may overlap on their completions.
    pub partial_solutions: Vec<PartialAssignment>,
}

impl CircuitSolutions {
    /// `true` when at least one satisfying assignment exists (SAT in
    /// Algorithm 1's terms).
    pub fn is_sat(&self) -> bool {
        !self.partial_solutions.is_empty()
    }

    /// Expands the partial solutions into the set of full assignments,
    /// each encoded as a minterm index (variable `i` = bit `i`).
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs` exceeds 32.
    pub fn full_assignments(&self) -> BTreeSet<usize> {
        assert!(self.num_inputs <= MAX_INPUTS, "at most {MAX_INPUTS} inputs");
        let inputs = kernel::low_mask(self.num_inputs) as u32;
        let mut out = BTreeSet::new();
        for cube in self.partial_solutions.iter().map(|p| Cube::from_partial(p)) {
            out.extend(subsets(inputs & !cube.care).map(|free| (cube.val | free) as usize));
        }
        out
    }

    /// Simulates the solution set into a truth table `f_s`: minterm `m`
    /// is true iff some solution covers it (the paper's final simulation
    /// step in Example 8).
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::TruthTable`] if the input count exceeds
    /// the substrate's limit.
    pub fn to_truth_table(&self) -> Result<TruthTable, SynthesisError> {
        let mut words = TruthTable::constant(self.num_inputs, false)?.words().to_vec();
        let cubes: Vec<Cube> =
            self.partial_solutions.iter().map(|p| Cube::from_partial(p)).collect();
        cover_words(&cubes, &mut words);
        clip_to_width(self.num_inputs, &mut words);
        Ok(TruthTable::from_words(self.num_inputs, words)?)
    }
}

/// A packed partial assignment: input `i` is assigned iff bit `i` of
/// `care` is set, and then takes bit `i` of `val` (`val ⊆ care`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cube {
    care: u32,
    val: u32,
}

impl Cube {
    /// The all-unassigned assignment.
    const TOP: Cube = Cube { care: 0, val: 0 };

    /// The single literal `x_var = value`.
    fn literal(var: usize, value: bool) -> Cube {
        Cube { care: 1 << var, val: u32::from(value) << var }
    }

    /// Algorithm 1's `MERGE`: the conjunction of two assignments, or
    /// `None` when they give some input opposite values.
    fn merge(self, other: Cube) -> Option<Cube> {
        (self.care & other.care & (self.val ^ other.val) == 0)
            .then_some(Cube { care: self.care | other.care, val: self.val | other.val })
    }

    fn from_partial(partial: &[Option<bool>]) -> Cube {
        partial.iter().enumerate().fold(Cube::TOP, |c, (i, v)| match v {
            Some(b) => Cube { care: c.care | 1 << i, val: c.val | u32::from(*b) << i },
            None => c,
        })
    }

    fn to_partial(self, num_inputs: usize) -> PartialAssignment {
        (0..num_inputs)
            .map(|i| (self.care >> i & 1 == 1).then_some(self.val >> i & 1 == 1))
            .collect()
    }
}

/// Every subset of `mask`, the empty one first.
fn subsets(mask: u32) -> impl Iterator<Item = u32> {
    let mut next = Some(0u32);
    std::iter::from_fn(move || {
        let s = next?;
        let succ = s.wrapping_sub(mask) & mask;
        next = (succ != 0).then_some(succ);
        Some(s)
    })
}

/// ORs the minterms each cube covers into `words`, a [`TruthTable`]-layout
/// buffer of a power-of-two word count: variables below 6 select bits
/// within a word through [`VAR_MASK`], higher ones select word indices.
/// The covers fill whole words, as if there were at least six inputs,
/// so they depend on the word count alone; [`clip_to_width`] drops the
/// bits past a narrower table's end.
fn cover_words(cubes: &[Cube], words: &mut [u64]) {
    let word_vars = (words.len() - 1) as u32;
    for cube in cubes {
        let (care, val) = (cube.care as usize, cube.val as usize);
        let mask = LITERALS[0][care & 7][val & 7] & LITERALS[1][care >> 3 & 7][val >> 3 & 7];
        let (care_hi, val_hi) = (cube.care >> 6, cube.val >> 6);
        for free in subsets(word_vars & !care_hi) {
            words[(val_hi | free) as usize] |= mask;
        }
    }
}

/// `LITERALS[h][care][val]`: the in-word minterms of the cube that
/// assigns input `3h + i` the bit `i` of `val` for each bit `i` of
/// `care` — the AND of its literals' [`VAR_MASK`] patterns, so one
/// cube's in-word mask is two lookups.
static LITERALS: [[[u64; 8]; 8]; 2] = {
    let mut table = [[[!0u64; 8]; 8]; 2];
    let mut at = 0;
    while at < 2 * 8 * 8 {
        let (h, care, val) = (at / 64, at / 8 % 8, at % 8);
        let mut i = 0;
        while i < 3 {
            if care >> i & 1 == 1 {
                let var = VAR_MASK[3 * h + i];
                table[h][care][val] &= if val >> i & 1 == 1 { var } else { !var };
            }
            i += 1;
        }
        at += 1;
    }
    table
};

/// Clears the bits of `words` past the end of a `num_vars`-input table
/// (only a table of fewer than six inputs has any).
fn clip_to_width(num_vars: usize, words: &mut [u64]) {
    words[0] &= kernel::low_mask(1 << num_vars.min(6));
}

/// A `(signal, target)` subproblem's index in a propagator's per-slot
/// arrays.
fn slot(signal: usize, target: bool) -> usize {
    2 * signal + usize::from(target)
}

/// The structural-matrix columns `(a, b)` of `gate` whose entry is
/// `target`: the fanin value pairs Algorithm 2 propagates, in order.
fn columns(gate: Gate, target: bool) -> impl Iterator<Item = (bool, bool)> {
    [(false, false), (false, true), (true, false), (true, true)]
        .into_iter()
        .filter(move |&(a, b)| gate.apply(a, b) == target)
}

/// One signal of a 2-LUT network, as Algorithm 2 reads it: primary
/// input `var`, or a gate over two other signals.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Signal {
    Input(usize),
    Gate(Gate),
}

/// A 2-LUT network seen as a DAG of numbered signals. A [`Chain`]
/// numbers its inputs before its gates; the factorization engine's
/// realization arena is another view, in which one shared subtree
/// serves many candidate roots.
pub(crate) trait NodeView {
    /// The signal `id`.
    fn signal(&self, id: usize) -> Signal;
}

impl NodeView for Chain {
    fn signal(&self, id: usize) -> Signal {
        let n = self.num_inputs();
        id.checked_sub(n).map_or(Signal::Input(id), |g| Signal::Gate(self.gates()[g]))
    }
}

/// Algorithm 2's state over one [`NodeView`], with one memo per
/// consumer. Verification keeps every solved `(signal, target)`
/// subproblem as its cover words at the spec's word count; Algorithm 1
/// ([`solve_circuit`]) keeps each as a sorted, deduplicated cube list.
/// Both depend only on the signal's fan-in cone, so a propagator may
/// serve any number of roots of the same view.
#[derive(Debug, Default)]
pub(crate) struct Propagator {
    /// `memo[2 * signal + target]`: that subproblem's `start..end` in
    /// `cubes`, written once the list is complete.
    memo: Vec<Option<(u32, u32)>>,
    cubes: Vec<Cube>,
    /// `cover_at[2 * signal + target]`: where that subproblem's cover
    /// words start in `covers`, and whether any of them is non-zero.
    cover_at: Vec<Option<(u32, bool)>>,
    /// Cover words, `f_s.len()` per entry.
    covers: Vec<u64>,
    /// The root check's `f_s` words.
    f_s: Vec<u64>,
    tallies: Tallies,
}

/// A propagator's counts since its last flush: queries and their
/// verdicts, subproblems expanded, and Algorithm 1's merge attempts
/// (conflicting ones included).
#[derive(Debug, Default)]
struct Tallies {
    queries: u64,
    accepted: u64,
    rejected: u64,
    propagation_steps: u64,
    merges: u64,
}

impl Propagator {
    /// Enumerates the assignments under which `signal` takes `target`,
    /// as a sorted, deduplicated range of `cubes`.
    fn solve<V: NodeView + ?Sized>(
        &mut self,
        view: &V,
        signal: usize,
        target: bool,
    ) -> Range<usize> {
        let slot = slot(signal, target);
        if let Some(&Some((start, end))) = self.memo.get(slot) {
            return start as usize..end as usize;
        }
        let start = self.expand(view, signal, target);
        sort_dedup_tail(&mut self.cubes, start);
        if self.memo.len() <= slot {
            self.memo.resize(slot + 1, None);
        }
        self.memo[slot] = Some((start as u32, self.cubes.len() as u32));
        start..self.cubes.len()
    }

    /// Algorithm 2 for one subproblem: pushes the assignments under
    /// which `signal` takes `target` onto `cubes`, unsorted and possibly
    /// repeated, and returns where they start. Fanins go through the
    /// memo.
    fn expand<V: NodeView + ?Sized>(&mut self, view: &V, signal: usize, target: bool) -> usize {
        self.tallies.propagation_steps += 1;
        let gate = match view.signal(signal) {
            Signal::Input(var) => {
                // Algorithm 2, lines 2–4: a PI consumes the target directly.
                self.cubes.push(Cube::literal(var, target));
                return self.cubes.len() - 1;
            }
            Signal::Gate(gate) => gate,
        };
        // Algorithm 2, lines 5–9: the gate's structural matrix names the
        // fanin pairs mapping to the target. Both fanins of every pair
        // are solved first so this list lands after theirs.
        let mut pairs: [(Range<usize>, Range<usize>); 4] = Default::default();
        let mut used = 0;
        for (a, b) in columns(gate, target) {
            let left = self.solve(view, gate.fanin[0], a);
            if left.is_empty() {
                continue;
            }
            pairs[used] = (left, self.solve(view, gate.fanin[1], b));
            used += 1;
        }
        let start = self.cubes.len();
        for (left, right) in &pairs[..used] {
            self.tallies.merges += (left.len() * right.len()) as u64;
            for l in left.clone() {
                let l = self.cubes[l];
                for r in right.clone() {
                    if let Some(m) = l.merge(self.cubes[r]) {
                        self.cubes.push(m);
                    }
                }
            }
        }
        start
    }

    /// Algorithm 2 over covers for one subproblem: pushes the cover of
    /// the assignments under which `signal` takes `target` onto `covers`
    /// (`f_s.len()` words) and returns where it starts. `MERGE` is cube
    /// intersection, so the cover of the merges of two lists is the AND
    /// of their covers, and a list is empty exactly when its cover is
    /// zero: fanins are solved as [`Propagator::expand`] solves them
    /// (left first, right skipped when left is empty), through the memo.
    fn push_cover<V: NodeView + ?Sized>(&mut self, view: &V, signal: usize, target: bool) -> usize {
        self.tallies.propagation_steps += 1;
        let (mut pairs, mut used) = ([(0, 0); 4], 0);
        let literal = match view.signal(signal) {
            Signal::Input(var) => Some(Cube::literal(var, target)),
            Signal::Gate(gate) => {
                for (a, b) in columns(gate, target) {
                    let (left, nonempty) = self.cover(view, gate.fanin[0], a);
                    if nonempty {
                        pairs[used] = (left, self.cover(view, gate.fanin[1], b).0);
                        used += 1;
                    }
                }
                None
            }
        };
        let (at, words) = (self.covers.len(), self.f_s.len());
        self.covers.resize(at + words, 0);
        let (fanins, out) = self.covers.split_at_mut(at);
        cover_words(literal.as_slice(), out);
        for &(l, r) in &pairs[..used] {
            let (l, r) = (&fanins[l..l + words], &fanins[r..r + words]);
            for ((f, x), y) in out.iter_mut().zip(l).zip(r) {
                *f |= x & y;
            }
        }
        at
    }

    /// The memoized [`Propagator::push_cover`] of `(signal, target)`:
    /// where its words start in `covers`, and whether any is non-zero.
    fn cover<V: NodeView + ?Sized>(
        &mut self,
        view: &V,
        signal: usize,
        target: bool,
    ) -> (usize, bool) {
        let slot = slot(signal, target);
        if let Some(&Some((at, nonempty))) = self.cover_at.get(slot) {
            return (at as usize, nonempty);
        }
        let at = self.push_cover(view, signal, target);
        let nonempty = self.covers[at..].iter().any(|&w| w != 0);
        if self.cover_at.len() <= slot {
            self.cover_at.resize(slot + 1, None);
        }
        let offset = u32::try_from(at).expect("cover offsets fit in 32 bits");
        self.cover_at[slot] = Some((offset, nonempty));
        (at, nonempty)
    }

    /// The root check, one query: `f_s` is the root's cover, pushed as
    /// a fanin's but then taken off `covers` unmemoized; accepts iff
    /// `f_s` equals `spec`.
    pub(crate) fn root_check<V: NodeView + ?Sized>(
        &mut self,
        view: &V,
        signal: usize,
        target: bool,
        spec: &TruthTable,
    ) -> bool {
        let words = spec.words().len();
        if self.f_s.len() != words {
            // Covers are laid out for one word count.
            self.cover_at.clear();
            self.covers.clear();
            self.f_s.resize(words, 0);
        }
        let at = self.push_cover(view, signal, target);
        self.f_s.copy_from_slice(&self.covers[at..]);
        self.covers.truncate(at);
        clip_to_width(spec.num_vars(), &mut self.f_s);
        let accepted = self.f_s == spec.words();
        self.verdict(accepted)
    }

    /// Tallies one query and its verdict, and returns the verdict.
    fn verdict(&mut self, accepted: bool) -> bool {
        self.tallies.queries += 1;
        *if accepted { &mut self.tallies.accepted } else { &mut self.tallies.rejected } += 1;
        accepted
    }

    /// Adds the tallies to the global counters in one batch (the
    /// recursion is far too hot for per-node updates), skipping zeros.
    pub(crate) fn flush(&mut self) {
        let t = std::mem::take(&mut self.tallies);
        for (name, count) in [
            ("solver.queries", t.queries),
            ("solver.candidates_verified", t.accepted),
            ("solver.candidates_rejected", t.rejected),
            ("solver.propagation_steps", t.propagation_steps),
            ("solver.merges", t.merges),
        ] {
            if count > 0 {
                stp_telemetry::metrics_global().counter(name).add(count);
            }
        }
    }
}

#[cfg(test)]
impl Propagator {
    /// The root check as Algorithm 2 states it, kept as the oracle of
    /// [`Propagator::root_check`]: expands the root into an unsorted
    /// tail of `cubes`, covers the tail into `f_s` words, drops the tail
    /// and returns the verdict with the words. Leaves the tallies as
    /// they were.
    pub(crate) fn merged_root_check<V: NodeView + ?Sized>(
        &mut self,
        view: &V,
        signal: usize,
        target: bool,
        spec: &TruthTable,
    ) -> (bool, Vec<u64>) {
        let tallies = std::mem::take(&mut self.tallies);
        let start = self.expand(view, signal, target);
        let mut f_s = vec![0; spec.words().len()];
        cover_words(&self.cubes[start..], &mut f_s);
        clip_to_width(spec.num_vars(), &mut f_s);
        self.cubes.truncate(start);
        self.tallies = tallies;
        (f_s == spec.words(), f_s)
    }

    /// Asserts that every cover this propagator memoized equals the
    /// cover of Algorithm 2's cube list for the same subproblem, solved
    /// on `lists`, and is non-empty exactly when that list is. Returns
    /// how many covers it compared.
    pub(crate) fn assert_covers_match_lists<V: NodeView + ?Sized>(
        &self,
        view: &V,
        lists: &mut Propagator,
        ctx: &str,
    ) -> usize {
        let words = self.f_s.len();
        let memoized = self.cover_at.iter().enumerate();
        let mut compared = 0;
        for (slot, (at, nonempty)) in memoized.filter_map(|(s, c)| Some((s, (*c)?))) {
            let (signal, target) = (slot / 2, slot % 2 == 1);
            let list = lists.solve(view, signal, target);
            let mut expected = vec![0; words];
            cover_words(&lists.cubes[list.clone()], &mut expected);
            let at = at as usize;
            assert_eq!(self.covers[at..at + words], expected, "slot {slot}: {ctx}");
            assert_eq!(nonempty, !list.is_empty(), "slot {slot}: {ctx}");
            compared += 1;
        }
        compared
    }
}

/// Sorts `cubes[start..]` and drops its duplicates, leaving the prefix
/// alone. The order is [`Cube`]'s (`care`, then `val`), compared as one
/// `u64`.
fn sort_dedup_tail(cubes: &mut Vec<Cube>, start: usize) {
    cubes[start..].sort_unstable_by_key(|c| u64::from(c.care) << 32 | u64::from(c.val));
    let mut kept = start;
    for i in start..cubes.len() {
        if kept == start || cubes[i] != cubes[kept - 1] {
            cubes[kept] = cubes[i];
            kept += 1;
        }
    }
    cubes.truncate(kept);
}

/// Algorithm 1 over cubes: `S` starts as the single all-unassigned
/// solution and is merged with each output's solution set in turn.
fn solve_cubes(chain: &Chain, targets: &[bool]) -> Vec<Cube> {
    assert!(chain.num_inputs() <= MAX_INPUTS, "at most {MAX_INPUTS} inputs");
    let mut prop = Propagator::default();
    let mut solutions = vec![Cube::TOP];
    for (out, &target) in chain.outputs().iter().zip(targets) {
        let s_i = match *out {
            OutputRef::Signal { index, negated } => {
                let span = prop.solve(chain, index, target ^ negated);
                &prop.cubes[span]
            }
            OutputRef::Constant(v) if v == target => &[Cube::TOP][..],
            OutputRef::Constant(_) => &[],
        };
        prop.tallies.merges += (solutions.len() * s_i.len()) as u64;
        let mut merged: Vec<Cube> =
            solutions.iter().flat_map(|s| s_i.iter().filter_map(|t| s.merge(*t))).collect();
        merged.sort_unstable();
        merged.dedup();
        solutions = merged;
        if solutions.is_empty() {
            break;
        }
    }
    prop.tallies.queries += 1;
    prop.flush();
    solutions
}

/// Runs the STP circuit AllSAT solver (Algorithm 1): finds every primary
/// input assignment under which **each** output takes its target value.
///
/// `targets` must have one entry per chain output.
///
/// # Panics
///
/// Panics if `targets.len()` differs from the chain's output count, if
/// the chain has more than 32 inputs, or if it is malformed (see
/// [`Chain::validate`]).
///
/// # Examples
///
/// Reproduce the paper's Example 8: the Boolean chain for `0x8ff8` has
/// ten satisfying assignments.
///
/// ```
/// use stp_chain::{Chain, OutputRef};
/// use stp_synth::solve_circuit;
///
/// let mut chain = Chain::new(4);
/// let x5 = chain.add_gate(2, 3, 0x6)?;
/// let x6 = chain.add_gate(0, 1, 0x8)?;
/// let x7 = chain.add_gate(x5, x6, 0xe)?;
/// chain.add_output(OutputRef::signal(x7));
/// let solutions = solve_circuit(&chain, &[true]);
/// assert_eq!(solutions.full_assignments().len(), 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_circuit(chain: &Chain, targets: &[bool]) -> CircuitSolutions {
    assert_eq!(targets.len(), chain.outputs().len(), "one target per primary output");
    let n = chain.num_inputs();
    let mut partial_solutions: Vec<PartialAssignment> =
        solve_cubes(chain, targets).into_iter().map(|c| c.to_partial(n)).collect();
    partial_solutions.sort();
    CircuitSolutions { num_inputs: n, partial_solutions }
}

/// Verifies a candidate chain against a specification (step iv of
/// §III): runs the root check on the chain's output for target `true`
/// — Algorithm 2 over cover words, intersected per structural-matrix
/// column into `f_s` words — and accepts iff `f_s == f`.
///
/// A malformed candidate — wrong input count, not exactly one output,
/// or failing [`Chain::validate`] — is rejected, not a panic.
///
/// # Errors
///
/// Never fails today: malformed candidates are `Ok(false)`. The `Result`
/// is kept so existing callers stay unchanged.
pub fn verify_chain(chain: &Chain, spec: &TruthTable) -> Result<bool, SynthesisError> {
    let well_formed = chain.num_inputs() == spec.num_vars()
        && chain.outputs().len() == 1
        && chain.validate().is_ok();
    if !well_formed {
        stp_telemetry::counter!("solver.candidates_rejected").inc();
        return Ok(false);
    }
    let mut prop = Propagator::default();
    let accepted = match chain.outputs()[0] {
        OutputRef::Signal { index, negated } => prop.root_check(chain, index, !negated, spec),
        OutputRef::Constant(v) => {
            prop.verdict(TruthTable::constant(spec.num_vars(), v).is_ok_and(|c| c == *spec))
        }
    };
    prop.flush();
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The solver as first written, over `Vec<Option<bool>>` assignments
    /// with no memo: the oracle the packed solver must match byte for
    /// byte.
    mod reference {
        use super::*;

        fn merge(a: &PartialAssignment, b: &PartialAssignment) -> Option<PartialAssignment> {
            let mut out = a.clone();
            for (slot, bv) in out.iter_mut().zip(b) {
                match (*slot, bv) {
                    (Some(x), Some(y)) if x != *y => return None,
                    (None, v) => *slot = *v,
                    _ => {}
                }
            }
            Some(out)
        }

        fn traverse(chain: &Chain, signal: usize, target: bool) -> Vec<PartialAssignment> {
            let n = chain.num_inputs();
            if signal < n {
                let mut p = vec![None; n];
                p[signal] = Some(target);
                return vec![p];
            }
            let gate = chain.gates()[signal - n];
            let mut out = Vec::new();
            for a in [false, true] {
                for b in [false, true] {
                    if gate.apply(a, b) != target {
                        continue;
                    }
                    let left = traverse(chain, gate.fanin[0], a);
                    if left.is_empty() {
                        continue;
                    }
                    let right = traverse(chain, gate.fanin[1], b);
                    for l in &left {
                        for r in &right {
                            out.extend(merge(l, r));
                        }
                    }
                }
            }
            out.sort();
            out.dedup();
            out
        }

        pub fn solve(chain: &Chain, targets: &[bool]) -> Vec<PartialAssignment> {
            let n = chain.num_inputs();
            let mut solutions: Vec<PartialAssignment> = vec![vec![None; n]];
            for (out, &target) in chain.outputs().iter().zip(targets) {
                let s_i = match out {
                    OutputRef::Signal { index, negated } => {
                        traverse(chain, *index, target ^ negated)
                    }
                    OutputRef::Constant(v) if *v == target => vec![vec![None; n]],
                    OutputRef::Constant(_) => Vec::new(),
                };
                let mut merged = Vec::new();
                for s in &solutions {
                    for t in &s_i {
                        merged.extend(merge(s, t));
                    }
                }
                merged.sort();
                merged.dedup();
                solutions = merged;
                if solutions.is_empty() {
                    break;
                }
            }
            solutions
        }
    }

    /// A 64-bit LCG (Knuth's MMIX constants); the high half is returned.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 32) % bound as u64) as usize
        }
    }

    /// A random chain over `n` inputs with up to seven gates of any of
    /// the 16 operators (constants and projections included) and
    /// `outputs` taps, some negated or constant. The first gate reads
    /// the top input, so every width exercises its highest mask bit;
    /// later gates pick fanins among all earlier signals, so fanins are
    /// shared and paths reconverge.
    fn random_chain(rng: &mut Lcg, n: usize, outputs: usize) -> Chain {
        let mut chain = Chain::new(n);
        let gates = if n == 1 { 0 } else { 1 + rng.below(7) };
        for g in 0..gates {
            let avail = chain.num_signals();
            let a = if g == 0 { n - 1 } else { rng.below(avail) };
            let b = (a + 1 + rng.below(avail - 1)) % avail;
            chain.add_gate(a, b, rng.below(16) as u8).unwrap();
        }
        for _ in 0..outputs {
            let last = chain.num_signals() - 1;
            let tap = match rng.below(8) {
                0 => OutputRef::Constant(rng.below(2) == 1),
                1..=4 => OutputRef::Signal { index: last, negated: rng.below(2) == 1 },
                _ => OutputRef::Signal { index: rng.below(last + 1), negated: rng.below(2) == 1 },
            };
            chain.add_output(tap);
        }
        chain
    }

    #[test]
    fn packed_solver_matches_reference_solver() {
        let mut rng = Lcg(0x5eed_c0de);
        for n in 1..=16 {
            for _ in 0..60 {
                let outputs = 1 + rng.below(3);
                let chain = random_chain(&mut rng, n, outputs);
                let targets: Vec<bool> = (0..outputs).map(|_| rng.below(2) == 1).collect();
                assert_eq!(
                    solve_circuit(&chain, &targets).partial_solutions,
                    reference::solve(&chain, &targets),
                    "n = {n}, targets {targets:?}, chain:\n{chain}"
                );
            }
        }
    }

    /// The slots of a per-slot memo that hold a solved subproblem.
    fn solved<T>(memo: &[Option<T>]) -> Vec<usize> {
        memo.iter().enumerate().filter_map(|(slot, m)| m.as_ref().map(|_| slot)).collect()
    }

    #[test]
    fn root_check_matches_the_merged_root_check() {
        // The chains of `packed_solver_matches_reference_solver`: every
        // signal output, negated or not, checked against its true
        // function and a one-minterm flip by one propagator per chain
        // (so later outputs read memoized covers), word for word against
        // the merge-then-cover oracle on another. Constant outputs go
        // through `verify_chain` alone. Every cover the checks memoized
        // must then equal its cube list's cover, and be non-empty exactly
        // when the list is.
        let (mut rng, mut flips) = (Lcg(0x5eed_c0de), Lcg(0xf11b_0001));
        let mut compared = 0;
        for n in 1..=16 {
            for _ in 0..60 {
                let outputs = 1 + rng.below(3);
                let chain = random_chain(&mut rng, n, outputs);
                // The reference test's target draws, so the chains match.
                (0..outputs).for_each(|_| _ = rng.below(2));
                let functions = chain.simulate_outputs().unwrap();
                let (mut fast, mut oracle) = (Propagator::default(), Propagator::default());
                for (out, function) in chain.outputs().iter().zip(&functions) {
                    let mut words = function.words().to_vec();
                    let m = flips.below(1 << n);
                    words[m / 64] ^= 1 << (m % 64);
                    let flipped = TruthTable::from_words(n, words).unwrap();
                    let mut single = Chain::new(n);
                    for gate in chain.gates() {
                        single.add_gate(gate.fanin[0], gate.fanin[1], gate.tt2).unwrap();
                    }
                    single.add_output(*out);
                    for spec in [function, &flipped] {
                        let ctx =
                            format!("n = {n}, output {out:?}, spec {}:\n{chain}", spec.to_hex());
                        let verdict = verify_chain(&single, spec).unwrap();
                        assert_eq!(verdict, spec == function, "{ctx}");
                        let OutputRef::Signal { index, negated } = *out else { continue };
                        let accepted = fast.root_check(&chain, index, !negated, spec);
                        let (expected, f_s) =
                            oracle.merged_root_check(&chain, index, !negated, spec);
                        assert_eq!(fast.f_s, f_s, "{ctx}");
                        assert_eq!((accepted, verdict), (expected, expected), "{ctx}");
                    }
                }
                // Both propagators solved the same subproblems.
                let ctx = format!("n = {n}:\n{chain}");
                assert_eq!(solved(&fast.cover_at), solved(&oracle.memo), "{ctx}");
                compared += fast.assert_covers_match_lists(&chain, &mut oracle, &ctx);
            }
        }
        assert!(compared > 1_000, "only {compared} memoized covers compared");
    }

    #[test]
    fn verify_matches_simulation_for_true_and_flipped_specs() {
        let mut rng = Lcg(0xf11b_5eed);
        for n in 1..=16 {
            for _ in 0..40 {
                let chain = random_chain(&mut rng, n, 1);
                let spec = chain.simulate_outputs().unwrap().remove(0);
                let mut words = spec.words().to_vec();
                let m = rng.below(1 << n);
                words[m / 64] ^= 1 << (m % 64);
                let flipped = TruthTable::from_words(n, words).unwrap();
                for f in [&spec, &flipped] {
                    let simulated = chain.simulate_outputs().unwrap()[0] == *f;
                    assert_eq!(verify_chain(&chain, f).unwrap(), simulated, "n = {n}:\n{chain}");
                }
            }
        }
    }

    #[test]
    fn to_truth_table_and_full_assignments_agree_across_words() {
        // Three inputs at or above 6, so cubes span several words.
        let mut chain = Chain::new(9);
        let x = chain.add_gate(8, 2, 0x6).unwrap();
        let y = chain.add_gate(6, x, 0xe).unwrap();
        chain.add_output(OutputRef::negated_signal(y));
        let spec = chain.simulate_outputs().unwrap().remove(0);
        let solutions = solve_circuit(&chain, &[true]);
        assert_eq!(solutions.to_truth_table().unwrap(), spec);
        let ones: BTreeSet<usize> = (0..1 << 9).filter(|&m| spec.bit(m)).collect();
        assert_eq!(solutions.full_assignments(), ones);
    }

    fn rejected_without_panic(chain: &Chain, spec: &TruthTable) {
        let scope = stp_telemetry::CounterScope::enter();
        assert!(!verify_chain(chain, spec).unwrap());
        let counters = scope.finish();
        assert_eq!(counters.get("solver.candidates_rejected"), Some(&1));
        assert_eq!(counters.get("solver.queries"), None, "no solver run on a malformed chain");
    }

    #[test]
    fn verify_rejects_chain_without_outputs() {
        let mut chain = Chain::new(4);
        chain.add_gate(0, 1, 0x8).unwrap();
        rejected_without_panic(&chain, &TruthTable::from_hex(4, "8888").unwrap());
    }

    #[test]
    fn verify_rejects_chain_with_two_outputs() {
        let mut chain = example7_chain();
        chain.add_output(OutputRef::signal(4));
        rejected_without_panic(&chain, &TruthTable::from_hex(4, "8ff8").unwrap());
    }

    #[test]
    fn verify_rejects_out_of_range_output_tap() {
        let mut chain = Chain::new(4);
        chain.add_gate(0, 1, 0x8).unwrap();
        chain.add_output(OutputRef::signal(9));
        rejected_without_panic(&chain, &TruthTable::from_hex(4, "8888").unwrap());
    }

    fn example7_chain() -> Chain {
        let mut chain = Chain::new(4);
        let x5 = chain.add_gate(2, 3, 0x6).unwrap();
        let x6 = chain.add_gate(0, 1, 0x8).unwrap();
        let x7 = chain.add_gate(x5, x6, 0xe).unwrap();
        chain.add_output(OutputRef::signal(x7));
        chain
    }

    #[test]
    fn example8_ten_assignments() {
        let solutions = solve_circuit(&example7_chain(), &[true]);
        assert!(solutions.is_sat());
        assert_eq!(solutions.full_assignments().len(), 10);
    }

    #[test]
    fn example8_simulation_matches_spec() {
        let solutions = solve_circuit(&example7_chain(), &[true]);
        let f_s = solutions.to_truth_table().unwrap();
        assert_eq!(f_s, TruthTable::from_hex(4, "8ff8").unwrap());
    }

    #[test]
    fn example8_counts_each_subproblem_once() {
        // x7 = OR(x5, x6) asks for x5 and x6 under both targets; with
        // the memo that is 5 gate subproblems plus the 8 PI literals.
        // Merges: 18 inside the gates (x7 alone: 2·3 + 2·1 + 2·1) and
        // 10 for Algorithm 1's merge of x7's list into `S`.
        let scope = stp_telemetry::CounterScope::enter();
        solve_circuit(&example7_chain(), &[true]);
        let counters = scope.finish();
        assert_eq!(counters.get("solver.propagation_steps"), Some(&13));
        assert_eq!(counters.get("solver.merges"), Some(&28));
        assert_eq!(counters.get("solver.queries"), Some(&1));
    }

    #[test]
    fn an_empty_left_cover_skips_the_right_fanin() {
        // x3 = AND(x2, x1) over the constant-false x2 = 0x0(x0, x1): the
        // root's only true column needs x2 = 1, whose cover is empty, so
        // the root check expands the root and x2 alone, never x1.
        let mut chain = Chain::new(2);
        let never = chain.add_gate(0, 1, 0x0).unwrap();
        let top = chain.add_gate(never, 1, 0x8).unwrap();
        chain.add_output(OutputRef::signal(top));
        let scope = stp_telemetry::CounterScope::enter();
        assert!(verify_chain(&chain, &TruthTable::constant(2, false).unwrap()).unwrap());
        let counters = scope.finish();
        assert_eq!(counters.get("solver.propagation_steps"), Some(&2));
        assert_eq!(counters.get("solver.merges"), None);
    }

    #[test]
    fn root_check_reads_covers_at_the_spec_width() {
        // One propagator checks Example 7's output against `8ff8` over
        // 4, 8 and again 4 inputs (1, 4 and 1 words; inputs 4–7 unused):
        // the memoized covers must follow the word count.
        let chain = example7_chain();
        let narrow = TruthTable::from_hex(4, "8ff8").unwrap();
        let wide = TruthTable::from_words(8, vec![0x8ff8_8ff8_8ff8_8ff8; 4]).unwrap();
        let mut prop = Propagator::default();
        for spec in [&narrow, &wide, &narrow] {
            assert!(prop.root_check(&chain, 6, true, spec), "{} inputs", spec.num_vars());
            assert!(!prop.root_check(&chain, 6, false, spec), "{} inputs", spec.num_vars());
        }
    }

    #[test]
    fn verify_accepts_correct_chain() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        assert!(verify_chain(&example7_chain(), &spec).unwrap());
    }

    #[test]
    fn verify_rejects_wrong_chain() {
        let spec = TruthTable::from_hex(4, "8ff9").unwrap();
        assert!(!verify_chain(&example7_chain(), &spec).unwrap());
        let other_arity = TruthTable::from_hex(3, "e8").unwrap();
        assert!(!verify_chain(&example7_chain(), &other_arity).unwrap());
    }

    #[test]
    fn false_target_gives_offset() {
        let solutions = solve_circuit(&example7_chain(), &[false]);
        assert_eq!(solutions.full_assignments().len(), 6); // 16 − 10
    }

    #[test]
    fn unsat_on_impossible_target() {
        // Constant-true gate structure: AND of (a OR !a)-style is not
        // expressible directly, so use a chain computing a tautology via
        // outputs: target false on a constant-true output.
        let mut chain = Chain::new(1);
        chain.add_output(OutputRef::Constant(true));
        let solutions = solve_circuit(&chain, &[false]);
        assert!(!solutions.is_sat());
    }

    #[test]
    fn shared_inputs_are_merged_consistently() {
        // f = AND(a, XOR(a, b)): a appears under both fanin branches.
        let mut chain = Chain::new(2);
        let x = chain.add_gate(0, 1, 0x6).unwrap();
        let top = chain.add_gate(0, x, 0x8).unwrap();
        chain.add_output(OutputRef::signal(top));
        let solutions = solve_circuit(&chain, &[true]);
        // a & (a ^ b): true only at a=1, b=0.
        assert_eq!(solutions.full_assignments(), BTreeSet::from([0b01]));
    }

    #[test]
    fn multi_output_targets() {
        let mut chain = Chain::new(2);
        let g_and = chain.add_gate(0, 1, 0x8).unwrap();
        let g_xor = chain.add_gate(0, 1, 0x6).unwrap();
        chain.add_output(OutputRef::signal(g_and));
        chain.add_output(OutputRef::signal(g_xor));
        // AND true and XOR true simultaneously: impossible.
        assert!(!solve_circuit(&chain, &[true, true]).is_sat());
        // AND true, XOR false: both inputs true.
        let s = solve_circuit(&chain, &[true, false]);
        assert_eq!(s.full_assignments(), BTreeSet::from([0b11]));
    }

    #[test]
    fn negated_output_target() {
        let mut chain = Chain::new(2);
        let g = chain.add_gate(0, 1, 0x8).unwrap();
        chain.add_output(OutputRef::negated_signal(g));
        // !(a & b) == true fails only at a=b=1.
        let s = solve_circuit(&chain, &[true]);
        assert_eq!(s.full_assignments().len(), 3);
    }

    #[test]
    fn partial_solutions_leave_dont_cares_unassigned() {
        // f = a (projection): b stays '-'.
        let mut chain = Chain::new(2);
        chain.add_output(OutputRef::signal(0));
        let s = solve_circuit(&chain, &[true]);
        assert_eq!(s.partial_solutions, vec![vec![Some(true), None]]);
        assert_eq!(s.full_assignments().len(), 2);
    }
}
