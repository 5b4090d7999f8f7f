//! STP-based matrix factorization of canonical forms over DAG
//! topologies (§III-B of the paper).
//!
//! The paper decomposes the canonical form `M_Φ` of the target function
//! by repeatedly splitting it into "quartering parts": `M_Φ` factors
//! through a 2-input top gate iff the quartered matrix has at most **two
//! unique parts** per axis (Examples 5–6), with the power-reducing
//! matrix `M_r` admitting repeated variables (Property 3) and the swap
//! matrix `M_w` admitting arbitrary variable orders (Property 4).
//!
//! This module implements that factorization in its equivalent
//! column-grouping form (see `DESIGN.md`, *Semantics fixed for this
//! implementation*):
//!
//! * a candidate split partitions the support into `A` (exclusive to the
//!   left operand), `B` (exclusive to the right operand) and `S`
//!   (shared — the `M_r` case); enumerating all splits plays the role of
//!   the swap matrices;
//! * for each assignment of the shared variables, the decomposition
//!   chart must have at most two distinct row patterns and two distinct
//!   column patterns — the "two unique quartering parts" test; shared
//!   assignments contribute the `x` don't-care entries of Property 3;
//! * every consistent 2-labelling yields one candidate operand pair, so
//!   **all** factorizations are produced (the paper's one-pass AllSAT
//!   over solutions — Example 5 finds exactly two).
//!
//! The recursion walks a [`TreeShape`]; reconvergence enters through
//! shared primary inputs, which is precisely the reach of the paper's
//! `M_r`/`M_w` calculus.
//!
//! # Engine layout
//!
//! [`Factorizer::chains_on_shape`] and
//! [`Factorizer::verified_chains_on_shape`] are the only places that see
//! a `TreeShape` or build a `Chain`. Inside them (see `DESIGN.md`,
//! *Word-level factorization kernels*):
//!
//! * the shape is interned once, recursively, into a flat **shape
//!   table**; the recursion passes `u32` shape ids, each entry records
//!   its child ids and leaf count, and structurally equal subtrees share
//!   one id, so the symmetric-shape test is an id comparison;
//! * a subproblem is probed in its shape's [`MemoTable`] by the **table
//!   words** and, on a miss, factored on them;
//! * a node walks a cached **split plan**: the splits of its support
//!   that fit the two subtrees, in base-3 counter order;
//! * realizations live in an **index arena**: `nodes` holds
//!   `(gate, left, right)` triples, `lists` holds node ids, and a memo
//!   value is a range of `lists`, and a shape's candidates are the
//!   **roots** its top-level subproblem lists. Chains are materialized
//!   from the arena only when a shape returns.
//!
//! # Word-level kernels
//!
//! The inner loops run one word-level kernel,
//! `Factorizer::factor_split_words`, at two lane widths (see `DESIGN.md`,
//! *Word-level factorization kernels*), chosen per split:
//!
//! * **`u64` lanes** — spec of at most [`FAST_MAX_VARS`] inputs,
//!   `|A| + |B| ≤ 6` and `|S| ≤ 6`: the spec is compacted once onto the
//!   split's variable order with the `stp-tt` kernel primitives, so
//!   every decomposition chart is a contiguous power-of-two-aligned bit
//!   slice of one word, labellings are `u64` masks, the two-pattern test
//!   and the operators each labelling pair admits ([`pair_ops`]) are
//!   read off the chart once, per-assignment tables live in a reused
//!   [`SplitFrame`], and operands are scattered into stack buffers;
//! * **[`W4`] lanes** — spec of at most [`WIDE_MAX_VARS`] inputs,
//!   `|A| + |B| ≤ 8` and `|S| ≤ 8`: the same source monomorphized one
//!   lane wider; the compact spec spans up to [`WIDE_WORDS`] words, a
//!   chart is one `[u64; 4]`, and at most [`WIDE_SHARED`] shared
//!   assignments are enumerated;
//! * any larger split falls back to the original scalar implementation
//!   ([`Factorizer::factor_split_naive`], also the reference the fuzz
//!   tests pin both instantiations against).
//!
//! The lane type carries the few operations whose best form differs by
//! width (field extraction, the cell scatter, the axis-coverage test);
//! the buffer sizes are const parameters, since stable Rust cannot size
//! an array by an expression of the lane type. All three paths
//! enumerate candidates in the same order, so the produced chains,
//! their order, and the counters are identical.
//!
//! # Uniqueness without dedup sets
//!
//! No node recurses on a `(g, h1, h2)` triple twice, and no shape
//! yields a chain twice, with no set to enforce it:
//!
//! * every kernel admits a triple only under the canonical split, where
//!   `supp(h1) = A ∪ S` and `supp(h2) = B ∪ S`; so a triple passes under
//!   exactly one split, `S = supp(h1) ∩ supp(h2)`;
//! * within one split and gate, two labelling choices differ at some
//!   shared assignment, where one picks the complement of the other's
//!   row (or column) labels, so `h1` (or `h2`) differs on that block;
//! * a tree's post-order gate list identifies the tree, so distinct
//!   triples over distinct realizations give distinct chains.
//!
//! # Forest verification
//!
//! [`Factorizer::verified_chains_on_shape`] runs the paper's step (iv)
//! on the arena itself: the circuit solver's Algorithm 2 walks the
//! realization DAG through a `NodeView`, with one `(node, target)` cover
//! memo that lives as long as the arena, so a subtree shared by many
//! candidates is propagated once. Each root gets the solver's root
//! check against the spec, and only an accepted root becomes a `Chain`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{BitAnd, BitOr, Not};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use stp_chain::{Chain, Gate, OutputRef};
use stp_fence::TreeShape;
use stp_tt::kernel::{self, W4};
use stp_tt::TruthTable;

use crate::circuit_solver::{NodeView, Propagator, Signal};
use crate::error::SynthesisError;

/// Specs up to this arity use the `u64` split kernel when the split
/// fits `|A| + |B| ≤ 6` and `|S| ≤ 6`: the spec spans at most
/// [`FAST_WORDS`] words, a chart fits one `u64`, and the
/// shared-assignment loop stays ≤ [`FAST_SHARED`] entries.
const FAST_MAX_VARS: usize = 8;

/// Packed words of a [`FAST_MAX_VARS`]-input table (`2^8 / 64`).
const FAST_WORDS: usize = 4;

/// Maximum shared assignments of the `u64` kernel (`2^6`).
const FAST_SHARED: usize = 64;

/// Specs up to this arity use the [`W4`] split kernel when the split
/// fits `|A| + |B| ≤ 8` and `|S| ≤ 8`: the compact spec spans at most
/// [`WIDE_WORDS`] words, a chart fits one [`W4`], and the
/// shared-assignment loop stays ≤ [`WIDE_SHARED`] entries.
const WIDE_MAX_VARS: usize = 12;

/// Packed words of a [`WIDE_MAX_VARS`]-input table (`2^12 / 64`).
const WIDE_WORDS: usize = 64;

/// Maximum shared assignments of the [`W4`] kernel (`2^8`).
const WIDE_SHARED: usize = 256;

/// One deadline poll (`Instant::now()`) per this many checkpoint calls;
/// the cancel flag is still read on every call, so cooperative
/// cancellation stays prompt while the search loop stops paying for a
/// clock read per split/combination.
const DEADLINE_POLL_MASK: u32 = 1024 - 1;

/// One memo probe in this many is timed and extrapolated into the
/// `factor.memo_probe_ns` counter.
const PROBE_SAMPLE: u32 = 256;

/// Configuration for the factorization engine.
#[derive(Debug, Clone)]
pub struct FactorConfig {
    /// Cap on realizations materialized per (function, shape) node; the
    /// engine still proves realizability beyond the cap but stops
    /// enumerating. The benchmark's NPN4 classes of at most 6 gates
    /// average about 231 optimum chains per instance and its FDSD8
    /// instances about 1 200, under the default of 4096.
    pub max_realizations: usize,
    /// Optional wall-clock deadline; factorization aborts with
    /// [`SynthesisError::Timeout`] once it passes.
    pub deadline: Option<Instant>,
    /// Optional cooperative cancellation flag, shared with the parallel
    /// search driver: once set, the engine aborts at its next deadline
    /// checkpoint (reported as [`SynthesisError::Timeout`], which the
    /// driver reinterprets — see `parallel.rs`).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Optional *external* kill switch, distinct from `cancel`: the
    /// search driver re-arms `cancel` every gate-count round (it doubles
    /// as the solution-cap brake), so a host that needs to revoke a
    /// whole synthesis run — e.g. `stpd` cancelling in-flight requests
    /// at its drain deadline — hands the same `abort` flag to every
    /// round. Once set it is never cleared by the engine; the next
    /// deadline checkpoint reports [`SynthesisError::Timeout`].
    pub abort: Option<Arc<AtomicBool>>,
    /// Differential-test knob: route every split through the scalar
    /// reference implementation ([`Factorizer::factor_split_naive`])
    /// instead of the word-level `u64`/`W4` kernels. The differential
    /// suites compare a forced-naive engine against the default one;
    /// production callers leave this `false`.
    pub force_naive: bool,
}

impl Default for FactorConfig {
    fn default() -> Self {
        FactorConfig {
            max_realizations: 4096,
            deadline: None,
            cancel: None,
            abort: None,
            force_naive: false,
        }
    }
}

/// Gate byte of a leaf in the realization arena (real gates are 4-bit
/// truth tables).
const LEAF_GATE: u8 = u8::MAX;

/// One node of the realization arena: gate `gate` over the arena nodes
/// `left` and `right`, or — when `gate` is [`LEAF_GATE`] — the primary
/// input `left`.
#[derive(Debug, Clone, Copy)]
struct RealNode {
    gate: u8,
    left: u32,
    right: u32,
}

/// A memo value: `len` arena node ids starting at `lists[start]`, one
/// per realization of the subproblem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Realizations {
    start: u32,
    len: u32,
}

impl Realizations {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Shape-table id of the single leaf shape (interned by
/// [`Factorizer::new`]).
const LEAF_SHAPE: u32 = 0;

/// One interned [`TreeShape`]: its children's shape ids (`None` for the
/// leaf) and its leaf count.
#[derive(Debug, Clone, Copy)]
struct ShapeEntry {
    children: Option<(u32, u32)>,
    leaves: u32,
}

/// One split of a node's support: bit `i` of `a` (`b`) puts the `i`-th
/// support variable in `A` (`B`); the variables in neither are shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Split {
    a: u16,
    b: u16,
}

/// One step of the fixed multiply-xor mix (the 64-bit finalizer of
/// MurmurHash3). Deterministic across runs and processes — unlike
/// `RandomState` — so probe sequences, and therefore timing, reproduce
/// exactly.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

const MIX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// [`mix`] folded over every word written, as a [`Hasher`] for the
/// engine's own maps. None of them is ever iterated, so the hash cannot
/// reorder results.
struct MixHasher(u64);

impl Default for MixHasher {
    fn default() -> Self {
        MixHasher(MIX_SEED)
    }
}

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = mix(self.0, i);
    }
}

type MixState = BuildHasherDefault<MixHasher>;

/// Initial slot-array capacity of a [`MemoTable`] (a power of two).
const MEMO_INITIAL_SLOTS: usize = 64;

/// One slot of the packed memo table: the spec words inline, the arity
/// (the same words encode different functions at different arities),
/// and the realization range. `val.is_some()` doubles as the occupancy
/// flag.
#[derive(Debug, Clone)]
struct MemoSlot {
    key: [u64; 4],
    num_vars: u8,
    val: Option<Realizations>,
}

// `factor.memo_bytes` counts slot storage, so the slot size is part of
// the pinned counters.
const _: () = assert!(std::mem::size_of::<MemoSlot>() == 48);

const EMPTY_SLOT: MemoSlot = MemoSlot { key: [0; 4], num_vars: 0, val: None };

/// [`mix`] folded over a table's words, seeded with the arity.
fn memo_hash(key: &[u64], num_vars: u8) -> u64 {
    key.iter().fold(MIX_SEED ^ num_vars as u64, |h, &w| mix(h, w))
}

/// Packs the words of a ≤ [`FAST_MAX_VARS`]-input table into an inline
/// slot key.
fn pack_key(words: &[u64]) -> [u64; 4] {
    let mut key = [0u64; 4];
    key[..words.len()].copy_from_slice(words);
    key
}

/// Per-shape memo table: a packed open-addressing slot array with
/// inline `[u64; 4]` keys for specs of at most [`FAST_MAX_VARS`]
/// inputs, plus a conventional spill map for wider specs.
///
/// The full NPN4 run does 16.7M probes, all at arity ≤ 8: a probe
/// hashes and compares the caller's words where they lie (a slot keeps
/// them zero-padded; inserts and growth hash the same unpadded prefix),
/// scanning cache-resident 48-byte slots, and an entry costs exactly
/// one slot (amortized ⁸⁄₇ under the 7/8 load cap) plus its ids in the
/// arena.
#[derive(Debug, Default)]
struct MemoTable {
    slots: Vec<MemoSlot>,
    /// Occupied slots (packed entries only; the spill map tracks its
    /// own length).
    len: usize,
    /// Entries wider than [`FAST_MAX_VARS`] inputs, keyed by their words
    /// alone: past 6 inputs the word count `2^(n-6)` fixes the arity.
    spill: HashMap<Box<[u64]>, Realizations>,
}

impl MemoTable {
    /// Probes for the `num_vars`-input table `words`.
    fn get(&self, num_vars: usize, words: &[u64]) -> Option<Realizations> {
        if num_vars > FAST_MAX_VARS {
            return self.spill.get(words).copied();
        }
        if self.slots.is_empty() {
            return None;
        }
        let nv = num_vars as u8;
        let holds = |s: &MemoSlot| s.num_vars == nv && s.key.iter().zip(words).all(|(a, b)| a == b);
        let mask = self.slots.len() - 1;
        let mut i = memo_hash(words, nv) as usize & mask;
        loop {
            let slot = &self.slots[i];
            match slot.val {
                None => return None,
                Some(val) if holds(slot) => return Some(val),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts (or replaces) the table's realizations, returning how
    /// many bytes of slot storage the insert newly allocated (nonzero
    /// only when the table grew).
    fn insert(&mut self, num_vars: usize, words: &[u64], val: Realizations) -> u64 {
        if num_vars > FAST_MAX_VARS {
            self.spill.insert(words.into(), val);
            return 0;
        }
        // Grow before probing so the insert scan always finds a free
        // slot; ×8/7 keeps the load factor at most 7/8.
        let grown = if (self.len + 1) * 8 > self.slots.len() * 7 { self.grow() } else { 0 };
        let key = pack_key(words);
        let nv = num_vars as u8;
        let mask = self.slots.len() - 1;
        let mut i = memo_hash(words, nv) as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            match slot.val {
                None => {
                    *slot = MemoSlot { key, num_vars: nv, val: Some(val) };
                    self.len += 1;
                    return grown;
                }
                Some(_) if slot.key == key && slot.num_vars == nv => {
                    slot.val = Some(val);
                    return grown;
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the slot array (or allocates the initial one) and
    /// rehashes every occupied slot; returns the newly allocated bytes.
    fn grow(&mut self) -> u64 {
        let new_cap = if self.slots.is_empty() { MEMO_INITIAL_SLOTS } else { self.slots.len() * 2 };
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        let mask = new_cap - 1;
        let old_cap = old.len();
        for slot in old.into_iter().filter(|s| s.val.is_some()) {
            let len = kernel::words_len(slot.num_vars as usize);
            let mut i = memo_hash(&slot.key[..len], slot.num_vars) as usize & mask;
            while self.slots[i].val.is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
        ((new_cap - old_cap) * std::mem::size_of::<MemoSlot>()) as u64
    }

    /// Entries stored (packed plus spilled).
    #[cfg(test)]
    fn entries(&self) -> u64 {
        (self.len + self.spill.len()) as u64
    }
}

/// Appends to `out` every split of `d` support variables whose operands
/// fit subtrees of `l1` and `l2` leaves (`|A ∪ S| ∈ 1..=l1`,
/// `|B ∪ S| ∈ 1..=l2`), in the order of a base-3 counter over the
/// support whose digit `i` (0 = A, 1 = B, 2 = S) places variable `i`.
/// The counter's digit 0 turns fastest, so its order is lexicographic
/// from digit `d - 1` down; the walk follows it and prunes every branch
/// that already overflows a subtree.
fn build_split_plan(d: usize, l1: usize, l2: usize, out: &mut Vec<Split>) {
    fn walk(
        pos: usize,
        split: Split,
        left: usize,
        right: usize,
        l: (usize, usize),
        out: &mut Vec<Split>,
    ) {
        let Some(i) = pos.checked_sub(1) else {
            if left >= 1 && right >= 1 {
                out.push(split);
            }
            return;
        };
        let bit = 1u16 << i;
        if left < l.0 {
            walk(i, Split { a: split.a | bit, ..split }, left + 1, right, l, out);
        }
        if right < l.1 {
            walk(i, Split { b: split.b | bit, ..split }, left, right + 1, l, out);
        }
        if left < l.0 && right < l.1 {
            walk(i, split, left + 1, right + 1, l, out);
        }
    }
    walk(d, Split { a: 0, b: 0 }, 0, 0, (l1, l2), out);
}

/// The per-split tables of [`Factorizer::factor_split_words`], sized
/// to the split, on one free list per lane width: a nested split never
/// shares a frame, and none is allocated once the lists reach the
/// recursion depth.
#[derive(Debug, Default)]
struct SplitFrame<L> {
    /// The spec compacted onto the split's variable order.
    compact: Vec<u64>,
    /// Per shared assignment: the first row and column labelling, the
    /// operators each labelling pair admits ([`pair_ops`]), the pairs
    /// admitting the current operator (bit `2·ri + ci`), the pair picked.
    rows: Vec<L>,
    cols: Vec<L>,
    ops: Vec<[u16; 4]>,
    admit: Vec<u8>,
    choice: Vec<u8>,
}

/// The factorization engine with its memo table.
///
/// One engine instance should be reused across the shapes explored for a
/// single specification: sub-function factorizations recur constantly
/// (that reuse is a large part of the paper's speed on DSD-structured
/// functions).
///
/// Shapes are interned into a flat table and the memo is a per-shape
/// [`MemoTable`] keyed by the table words alone, so a probe neither
/// hashes a shape nor allocates. Realizations are `u32` ids into the
/// engine's arena; completed memo entries point into it, so the arena
/// only ever grows (a failed subproblem leaves its partial nodes
/// behind, unreferenced).
#[derive(Debug)]
pub struct Factorizer {
    config: FactorConfig,
    /// The shape table; entry [`LEAF_SHAPE`] is the leaf.
    shapes: Vec<ShapeEntry>,
    /// Internal shapes by their children's ids.
    shape_ids: HashMap<(u32, u32), u32, MixState>,
    /// One memo table per shape-table entry.
    memo: Vec<MemoTable>,
    /// Cached split plans: `(d, l1, l2)` (leaf counts clamped to `d`)
    /// to a range of `plan_splits`.
    plans: HashMap<(u8, u8, u8), (u32, u32), MixState>,
    plan_splits: Vec<Split>,
    /// The realization arena.
    nodes: Vec<RealNode>,
    /// Memo values: ranges of arena node ids.
    lists: Vec<u32>,
    /// Realizations of the subproblems in flight, innermost last; a
    /// finished subproblem moves its tail into `lists`.
    scratch: Vec<u32>,
    /// Free lists of split frames, one per lane width.
    frames64: Vec<SplitFrame<u64>>,
    frames_w4: Vec<SplitFrame<W4>>,
    /// Frames taken off the free lists and not yet returned.
    #[cfg(feature = "faultsim")]
    frames_out: usize,
    /// Number of factorization nodes explored (for the harness).
    nodes_explored: u64,
    /// Number of memo-table hits across [`Factorizer::realize`] calls.
    memo_hits: u64,
    /// Number of decomposition charts materialized (fast or naive path).
    charts_built: u64,
    /// Sampled nanoseconds spent probing the memo (one probe in
    /// [`PROBE_SAMPLE`] is timed and extrapolated).
    memo_probe_ns: u64,
    /// Bytes of packed memo slot storage currently allocated
    /// (monotonic: slot arrays only grow).
    memo_bytes: u64,
    /// Entries resident across the per-shape memo tables.
    memo_entries: u64,
    probe_tick: u32,
    poll_tick: u32,
    /// Algorithm 2's memo over the arena, by `2 · id + target`.
    forest: Propagator,
    /// Every candidate triple the kernels recursed on, in order (test
    /// builds only: the fuzz tests compare kernels triple for triple).
    #[cfg(test)]
    triples: Vec<(u8, Vec<u64>, Vec<u64>)>,
}

impl Factorizer {
    /// Creates an engine with the given configuration.
    pub fn new(config: FactorConfig) -> Self {
        Factorizer {
            config,
            shapes: vec![ShapeEntry { children: None, leaves: 1 }],
            shape_ids: HashMap::default(),
            memo: vec![MemoTable::default()],
            plans: HashMap::default(),
            plan_splits: Vec::new(),
            nodes: Vec::new(),
            lists: Vec::new(),
            scratch: Vec::new(),
            frames64: Vec::new(),
            frames_w4: Vec::new(),
            #[cfg(feature = "faultsim")]
            frames_out: 0,
            nodes_explored: 0,
            memo_hits: 0,
            charts_built: 0,
            memo_probe_ns: 0,
            memo_bytes: 0,
            memo_entries: 0,
            probe_tick: 0,
            poll_tick: 0,
            forest: Propagator::default(),
            #[cfg(test)]
            triples: Vec::new(),
        }
    }

    /// Number of (function, shape) factorization subproblems examined.
    pub fn nodes_explored(&self) -> u64 {
        self.nodes_explored
    }

    /// Number of memo-table hits (subproblems answered without search).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Split frames off the free lists: 0 outside a factorization.
    #[cfg(feature = "faultsim")]
    pub fn split_frames_checked_out(&self) -> usize {
        self.frames_out
    }

    /// Number of decomposition charts built across every split path —
    /// identical between the fast, wide, and naive routes, so the
    /// differential suites pin it as a search-shape fingerprint.
    pub fn charts_built(&self) -> u64 {
        self.charts_built
    }

    /// Enumerates every chain realizing `spec` on the given tree shape
    /// (all leaf-to-PI bindings and all gate assignments), up to the
    /// configured cap, without verifying them.
    ///
    /// The returned chains are distinct and use only operators that
    /// depend on both fanins; [`Factorizer::verified_chains_on_shape`]
    /// keeps the ones the circuit solver accepts.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Timeout`] when the configured deadline
    /// expires mid-search.
    pub fn chains_on_shape(
        &mut self,
        spec: &TruthTable,
        shape: &TreeShape,
    ) -> Result<Vec<Chain>, SynthesisError> {
        let roots = self.roots(spec, shape)?;
        let (n, gates) = (spec.num_vars(), shape.gate_count());
        let chains =
            self.lists[roots.range()].iter().map(|&id| tree_to_chain(&self.nodes, id, n, gates));
        Ok(chains.collect())
    }

    /// One shape's steps (iii) and (iv): factorizes `spec` on `shape`
    /// (span `phase.factorize`), then verifies the candidate roots in
    /// order (span `phase.verify`; see *Forest verification* above) and
    /// returns the accepted chains, at most `max_solutions` of them.
    /// Roots deeper than `max_depth` are skipped unverified. Counts one
    /// `synth.candidates` per root and one `solver.queries` per check.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Timeout`] when the configured deadline
    /// expires mid-factorization or `cancel` is set between roots.
    pub fn verified_chains_on_shape(
        &mut self,
        spec: &TruthTable,
        shape: &TreeShape,
        max_solutions: usize,
        max_depth: Option<usize>,
        cancel: &AtomicBool,
    ) -> Result<Vec<Chain>, SynthesisError> {
        let roots = {
            let _factor = stp_telemetry::span!("phase.factorize");
            self.roots(spec, shape)?
        };
        stp_telemetry::counter!("synth.candidates").add(u64::from(roots.len));
        // A realization mirrors its shape, so every root's depth is the
        // shape's height.
        if max_depth.is_some_and(|d| shape.height() > d) {
            return Ok(Vec::new());
        }
        let _verify = stp_telemetry::span!("phase.verify");
        self.verify_roots(spec, roots, shape.gate_count(), max_solutions, cancel)
    }

    /// All realizations of `spec` on `shape`: the roots both public
    /// enumerations walk. Flushes the factorization counters.
    fn roots(
        &mut self,
        spec: &TruthTable,
        shape: &TreeShape,
    ) -> Result<Realizations, SynthesisError> {
        let sid = self.intern(shape);
        let support_len = spec.support_mask().count_ones() as usize;
        if support_len > self.shapes[sid as usize].leaves as usize || support_len < 2 {
            // Trivial specs (constants, literals) need no gates and are
            // handled by the synthesis driver, not by factorization.
            return Ok(Realizations { start: 0, len: 0 });
        }
        let nodes_before = self.nodes_explored;
        let hits_before = self.memo_hits;
        let charts_before = self.charts_built;
        let probe_before = self.memo_probe_ns;
        let bytes_before = self.memo_bytes;
        let entries_before = self.memo_entries;
        // A call that failed mid-search may have left its in-flight
        // realizations behind.
        self.scratch.clear();
        let result = self.realize(spec.num_vars(), spec.words(), sid);
        // Flush this call's exploration to the global metrics (batched —
        // the recursion itself touches only the engine-local tallies).
        // The flush runs on the thread that drove the search, so every
        // delta — including the sampled `factor.memo_probe_ns` and the
        // `factor.memo_bytes` growth — lands in that worker's
        // `CounterScope`, not just the global registry.
        stp_telemetry::counter!("factor.subproblems").add(self.nodes_explored - nodes_before);
        stp_telemetry::counter!("factor.memo_hits").add(self.memo_hits - hits_before);
        stp_telemetry::counter!("factor.charts_built").add(self.charts_built - charts_before);
        stp_telemetry::counter!("factor.memo_probe_ns").add(self.memo_probe_ns - probe_before);
        stp_telemetry::counter!("factor.memo_bytes").add(self.memo_bytes - bytes_before);
        stp_telemetry::counter!("factor.memo_entries").add(self.memo_entries - entries_before);
        result
    }

    /// The verification loop of [`Factorizer::verified_chains_on_shape`]
    /// over roots of `gates` gates.
    fn verify_roots(
        &mut self,
        spec: &TruthTable,
        roots: Realizations,
        gates: usize,
        max_solutions: usize,
        cancel: &AtomicBool,
    ) -> Result<Vec<Chain>, SynthesisError> {
        let mut solutions = Vec::with_capacity((roots.len as usize).min(max_solutions));
        let mut outcome = Ok(());
        for i in roots.range() {
            // Acquire pairs with the SeqCst cancellation store: seeing the
            // flag also publishes its cause (`cap_reached`). The checkpoint
            // runs between every root, so it must not be a fence.
            if cancel.load(Ordering::Acquire) {
                outcome = Err(SynthesisError::Timeout);
                break;
            }
            if solutions.len() >= max_solutions {
                break;
            }
            let id = self.lists[i];
            // Deterministic crash injection: the hit index is the
            // 1-based root index within the shape.
            stp_faultsim::fail_point!("verify.root", hit = (i - roots.start as usize) as u64 + 1);
            if self.forest.root_check(&self.nodes[..], id as usize, true, spec) {
                solutions.push(tree_to_chain(&self.nodes, id, spec.num_vars(), gates));
            }
        }
        self.forest.flush();
        outcome.map(|()| solutions)
    }

    fn check_deadline(&mut self) -> Result<(), SynthesisError> {
        stp_faultsim::fail_point!("factor.deadline", err = Err(SynthesisError::Timeout));
        if let Some(flag) = &self.config.abort {
            if flag.load(Ordering::Acquire) {
                return Err(SynthesisError::Timeout);
            }
        }
        if let Some(flag) = &self.config.cancel {
            if flag.load(Ordering::Acquire) {
                return Err(SynthesisError::Timeout);
            }
        }
        if let Some(d) = self.config.deadline {
            // Clock reads are throttled; the first checkpoint of a fresh
            // engine still polls, so an already-expired deadline aborts
            // immediately.
            self.poll_tick = self.poll_tick.wrapping_add(1);
            if self.poll_tick & DEADLINE_POLL_MASK == 1 && Instant::now() >= d {
                return Err(SynthesisError::Timeout);
            }
        }
        Ok(())
    }

    /// Interns `shape` and its subtrees into the shape table, returning
    /// its id. Children are interned first, so two subtrees get the same
    /// id exactly when they are structurally equal.
    fn intern(&mut self, shape: &TreeShape) -> u32 {
        let TreeShape::Node(a, b) = shape else {
            return LEAF_SHAPE;
        };
        let children = (self.intern(a), self.intern(b));
        if let Some(&id) = self.shape_ids.get(&children) {
            return id;
        }
        let id = self.shapes.len() as u32;
        let leaves =
            self.shapes[children.0 as usize].leaves + self.shapes[children.1 as usize].leaves;
        self.shapes.push(ShapeEntry { children: Some(children), leaves });
        self.memo.push(MemoTable::default());
        self.shape_ids.insert(children, id);
        id
    }

    /// The cached split plan for `d` support variables over subtrees of
    /// `l1` and `l2` leaves, as a range of `plan_splits`.
    fn split_plan(&mut self, d: usize, l1: usize, l2: usize) -> std::ops::Range<usize> {
        // A subtree with at least `d` leaves never binds the split, so
        // clamping keeps one plan per distinct constraint.
        let key = (d as u8, l1.min(d) as u8, l2.min(d) as u8);
        let (start, len) = match self.plans.get(&key) {
            Some(&range) => range,
            None => {
                let start = self.plan_splits.len();
                build_split_plan(d, key.1 as usize, key.2 as usize, &mut self.plan_splits);
                let range = (start as u32, (self.plan_splits.len() - start) as u32);
                self.plans.insert(key, range);
                range
            }
        };
        start as usize..(start + len) as usize
    }

    /// Core recursion: all realizations of the `n`-input table `words`
    /// on shape `sid`.
    fn realize(
        &mut self,
        n: usize,
        words: &[u64],
        sid: u32,
    ) -> Result<Realizations, SynthesisError> {
        // Time the probe alone: one probe in [`PROBE_SAMPLE`] is
        // measured and extrapolated.
        self.probe_tick = self.probe_tick.wrapping_add(1);
        let t0 =
            if self.probe_tick & (PROBE_SAMPLE - 1) == 0 { Some(Instant::now()) } else { None };
        let hit = self.memo[sid as usize].get(n, words);
        if let Some(t0) = t0 {
            self.memo_probe_ns +=
                (t0.elapsed().as_nanos() as u64).saturating_mul(PROBE_SAMPLE as u64);
        }
        if let Some(hit) = hit {
            self.memo_hits += 1;
            return Ok(hit);
        }
        self.check_deadline()?;
        self.nodes_explored += 1;
        let start = self.scratch.len();
        match self.shapes[sid as usize].children {
            None => {
                // A leaf realizes exactly a positive literal (support
                // `{v}` and 1 at minterm `2^v`); complements are absorbed
                // by the parent gate's operator choice.
                let sup = kernel::support_mask(words, n);
                if sup.count_ones() == 1 {
                    let v = sup.trailing_zeros() as usize;
                    let m = 1usize << v;
                    if words[m >> 6] >> (m & 63) & 1 == 1 {
                        self.scratch.push(self.nodes.len() as u32);
                        self.nodes.push(RealNode { gate: LEAF_GATE, left: v as u32, right: 0 });
                    }
                }
            }
            Some((s1, s2)) => self.realize_node(n, words, s1, s2, start)?,
        }
        let val = Realizations {
            start: self.lists.len() as u32,
            len: (self.scratch.len() - start) as u32,
        };
        self.lists.extend_from_slice(&self.scratch[start..]);
        self.scratch.truncate(start);
        self.memo_bytes += self.memo[sid as usize].insert(n, words, val);
        self.memo_entries += 1;
        Ok(val)
    }

    /// All realizations of the `n`-input table `words` under a gate over
    /// shapes `s1` and `s2`, pushed onto `scratch` from `out_start` on.
    fn realize_node(
        &mut self,
        n: usize,
        words: &[u64],
        s1: u32,
        s2: u32,
        out_start: usize,
    ) -> Result<(), SynthesisError> {
        let sup_mask = kernel::support_mask(words, n);
        let mut support = [0usize; 16];
        let mut d = 0usize;
        for v in 0..n {
            if sup_mask >> v & 1 == 1 {
                support[d] = v;
                d += 1;
            }
        }
        let l1 = self.shapes[s1 as usize].leaves as usize;
        let l2 = self.shapes[s2 as usize].leaves as usize;
        let symmetric = s1 == s2;
        if d > l1 + l2 || d == 0 {
            return Ok(());
        }
        // Each support variable goes to A (left exclusive), B (right
        // exclusive), or S (shared); the plan lists the splits whose
        // operands fit the subtrees.
        let mut a_vars = [0usize; 16];
        let mut b_vars = [0usize; 16];
        let mut s_vars = [0usize; 16];
        for p in self.split_plan(d, l1, l2) {
            self.check_deadline()?;
            let split = self.plan_splits[p];
            let (mut na, mut nb, mut ns) = (0usize, 0usize, 0usize);
            for (i, &v) in support[..d].iter().enumerate() {
                if split.a >> i & 1 == 1 {
                    a_vars[na] = v;
                    na += 1;
                } else if split.b >> i & 1 == 1 {
                    b_vars[nb] = v;
                    nb += 1;
                } else {
                    s_vars[ns] = v;
                    ns += 1;
                }
            }
            // The `u64` kernel needs the whole spec in 4 words, a chart
            // in one word, and ≤ 64 shared assignments. The `W4` kernel
            // relaxes all three: spec in 64 words, a chart in one
            // `[u64; 4]`, ≤ 256 shared assignments. Anything larger
            // falls back to the scalar reference.
            let force = self.config.force_naive;
            let fast = !force && n <= FAST_MAX_VARS && na + nb <= 6 && ns <= 6;
            let wide = !force && !fast && n <= WIDE_MAX_VARS && na + nb <= 8 && ns <= 8;
            let (a, b, s) = (&a_vars[..na], &b_vars[..nb], &s_vars[..ns]);
            if fast {
                self.factor_split_words::<u64, FAST_WORDS, FAST_SHARED>(
                    n, words, a, b, s, s1, s2, symmetric, out_start,
                )?;
            } else if wide {
                self.factor_split_words::<W4, WIDE_WORDS, WIDE_SHARED>(
                    n, words, a, b, s, s1, s2, symmetric, out_start,
                )?;
            } else {
                let h = TruthTable::from_words(n, words.to_vec())
                    .expect("memo keys are well-formed tables");
                self.factor_split_naive(&h, a, b, s, s1, s2, symmetric, out_start)?;
            }
            if self.scratch.len() - out_start >= self.config.max_realizations {
                break;
            }
        }
        Ok(())
    }

    /// Word-level `factor_split`: factors the `n`-input table `words` as
    /// `g(h1(A ∪ S), h2(B ∪ S))` for one fixed split, pushing every
    /// realization onto `scratch` (the subproblem's realizations start
    /// at `out_start`).
    ///
    /// One source at two lane widths (see [`Lane`]): `L = u64` with
    /// `WORDS = 4`, `SHARED = 64` serves specs of at most
    /// [`FAST_MAX_VARS`] inputs with `|A| + |B| ≤ 6` and `|S| ≤ 6`;
    /// `L = W4` with [`WIDE_WORDS`], [`WIDE_SHARED`] serves specs of at
    /// most [`WIDE_MAX_VARS`] inputs with `|A| + |B| ≤ 8` and `|S| ≤ 8`
    /// (the caller gates on this). The operand accumulators are
    /// `WORDS`-word stack buffers, a chart is one lane, and the
    /// per-shared-assignment tables live in a [`SplitFrame`] sized to the
    /// split's `2^|S|` assignments, taken off the engine's free list and
    /// returned to it on every exit, so once the list has reached the
    /// recursion depth the split and combination loops allocate nothing;
    /// memory is touched only when a memo miss recurses or the arena
    /// grows.
    ///
    /// Byte-equal to [`Factorizer::factor_split_naive`] in output,
    /// order, and counter increments (pinned by the differential fuzz
    /// tests below).
    #[allow(clippy::too_many_arguments)]
    fn factor_split_words<L: Lane, const WORDS: usize, const SHARED: usize>(
        &mut self,
        n: usize,
        words: &[u64],
        a_vars: &[usize],
        b_vars: &[usize],
        s_vars: &[usize],
        s1: u32,
        s2: u32,
        symmetric: bool,
        out_start: usize,
    ) -> Result<(), SynthesisError> {
        debug_assert!(1 << s_vars.len() <= SHARED && kernel::words_len(n) <= WORDS);
        let mut frame = L::free_frames(self).pop().unwrap_or_default();
        #[cfg(feature = "faultsim")]
        {
            self.frames_out += 1;
        }
        // The body runs as a closure so that every exit, `Err` included,
        // hands the frame back below.
        let result = (|| -> Result<(), SynthesisError> {
            let (ra, rb, rs) = (a_vars.len(), b_vars.len(), s_vars.len());
            let d = ra + rb + rs;
            let (rows, cols, shared) = (1usize << ra, 1usize << rb, 1usize << rs);
            let cells = rows * cols;
            let rows_mask = L::low_mask(rows);
            let cols_mask = L::low_mask(cols);

            // Compact the spec onto `B ++ A ++ S` (row-major charts: cell
            // (r, c) of shared assignment s is bit `c + r·cols + s·cells`).
            // Every chart is then an aligned power-of-two bit slice of at
            // most one lane.
            let mut order = [0usize; 16];
            order[..rb].copy_from_slice(b_vars);
            order[rb..rb + ra].copy_from_slice(a_vars);
            order[rb + ra..d].copy_from_slice(s_vars);
            frame.compact.resize(words.len(), 0);
            compact_into_words(n, words, &order[..d], &mut frame.compact);

            // Per shared assignment: the first row/column labelling option
            // (bit i ⇔ axis element i carries the second distinct pattern;
            // the other option is its complement) and the operators each
            // labelling pair admits. An operator is viable when every
            // assignment admits it under some pair.
            frame.rows.clear();
            frame.cols.clear();
            frame.ops.clear();
            let mut viable = u16::MAX;
            for s in 0..shared {
                let chart = L::slice(&frame.compact, s * cells, cells);
                self.charts_built += 1;
                // Two unique quartering parts per axis (Examples 5–6).
                let Some((r0, c0)) = chart_labels(chart, rows, cols) else {
                    return Ok(());
                };
                let ops = pair_ops(chart, r0, c0, rows, cols);
                viable &= ops[0] | ops[1] | ops[2] | ops[3];
                frame.rows.push(r0);
                frame.cols.push(c0);
                frame.ops.push(ops);
            }

            // Split-level support filter: the A-part of the left operand's
            // support is the union of the row-class supports across shared
            // assignments (complementing a labelling never changes its
            // support), so a split whose row classes do not jointly cover A
            // can never pass the canonical-split check — likewise for B.
            if !L::covers_axis(&frame.rows, ra) || !L::covers_axis(&frame.cols, rb) {
                return Ok(());
            }

            // Operand layout: compact over `own ++ S`, one labelling mask
            // per shared assignment at an aligned offset; expansion to the
            // full arity is a tile plus the inverse of the front-swap plan.
            let k1 = ra + rs;
            let k2 = rb + rs;
            let mut vars1 = [0usize; 16];
            vars1[..ra].copy_from_slice(a_vars);
            vars1[ra..k1].copy_from_slice(s_vars);
            let mut vars2 = [0usize; 16];
            vars2[..rb].copy_from_slice(b_vars);
            vars2[rb..k2].copy_from_slice(s_vars);
            let mut plan1 = [(0u8, 0u8); 16];
            let plan1_len = kernel::front_swap_plan(n, &vars1[..k1], &mut plan1);
            let mut plan2 = [(0u8, 0u8); 16];
            let plan2_len = kernel::front_swap_plan(n, &vars2[..k2], &mut plan2);
            let (w1, w2) = (kernel::words_len(k1), kernel::words_len(k2));
            let (full1, full2) = (kernel::low_mask(k1), kernel::low_mask(k2));
            let nw = words.len();
            let [mut cbuf1, mut cbuf2, mut f1, mut f2] = [[0u64; WORDS]; 4];

            // For each viable operator g, pick one row/column labelling pair
            // per shared assignment, consistently: `admit[s]` holds the pairs
            // `2·ri + ci` admitting g as a 4-bit mask, `choice[s]` the pair
            // picked, lowest first, assignment 0 turning fastest.
            for &g in &stp_tt::NONTRIVIAL_OPS {
                if viable >> g & 1 == 0 {
                    continue;
                }
                let admits =
                    |ops: &[u16; 4]| (0..4).fold(0u8, |m, p| m | ((ops[p] >> g & 1) as u8) << p);
                frame.admit.clear();
                frame.admit.extend(frame.ops.iter().map(admits));
                frame.choice.clear();
                frame.choice.extend(frame.admit.iter().map(|&mask| mask.trailing_zeros() as u8));
                'combos: loop {
                    self.check_deadline()?;
                    cbuf1[..w1].fill(0);
                    cbuf2[..w2].fill(0);
                    for s in 0..shared {
                        let p = frame.choice[s];
                        let (r0, c0) = (frame.rows[s], frame.cols[s]);
                        let rl = if p & 2 == 0 { r0 } else { !r0 & rows_mask };
                        let cl = if p & 1 == 0 { c0 } else { !c0 & cols_mask };
                        rl.or_into(&mut cbuf1, s * rows, rows);
                        cl.or_into(&mut cbuf2, s * cols, cols);
                    }
                    // Canonical split: the operands must depend on exactly
                    // their assigned variables (otherwise the same triple is
                    // found under a smaller split). On the compact tables
                    // that is simply "full support".
                    let canonical = kernel::support_mask(&cbuf1[..w1], k1) == full1
                        && kernel::support_mask(&cbuf2[..w2], k2) == full2;
                    if canonical {
                        expand_with_plan_words(&cbuf1, k1, n, &plan1[..plan1_len], &mut f1);
                        expand_with_plan_words(&cbuf2, k2, n, &plan2[..plan2_len], &mut f2);
                        // Mirror dedup for symmetric shapes.
                        if !symmetric || f1[..nw] <= f2[..nw] {
                            #[cfg(test)]
                            self.triples.push((g, f1[..nw].to_vec(), f2[..nw].to_vec()));
                            let r1 = self.realize(n, &f1[..nw], s1)?;
                            if r1.len > 0 {
                                let r2 = self.realize(n, &f2[..nw], s2)?;
                                if self.emit_pairs(g, r1, r2, out_start) {
                                    return Ok(());
                                }
                            }
                        }
                    }
                    // Advance: the lowest assignment with an admitted pair
                    // above its choice takes it; the ones below restart.
                    let mut i = 0;
                    loop {
                        if i == shared {
                            break 'combos;
                        }
                        let above = frame.admit[i] & !((2u8 << frame.choice[i]) - 1);
                        if above != 0 {
                            frame.choice[i] = above.trailing_zeros() as u8;
                            break;
                        }
                        frame.choice[i] = frame.admit[i].trailing_zeros() as u8;
                        i += 1;
                    }
                }
            }
            Ok(())
        })();
        L::free_frames(self).push(frame);
        #[cfg(feature = "faultsim")]
        {
            self.frames_out -= 1;
        }
        result
    }

    /// Scalar reference `factor_split`: the fallback for splits beyond
    /// both word-level instantiations (more than [`WIDE_MAX_VARS`]
    /// inputs, `|A| + |B| > 8` or `|S| > 8`), the whole engine under
    /// `force_naive`, and the ground truth for the differential fuzz
    /// tests.
    #[allow(clippy::too_many_arguments)]
    fn factor_split_naive(
        &mut self,
        h: &TruthTable,
        a_vars: &[usize],
        b_vars: &[usize],
        s_vars: &[usize],
        s1: u32,
        s2: u32,
        symmetric: bool,
        out_start: usize,
    ) -> Result<(), SynthesisError> {
        let n = h.num_vars();
        let rows = 1usize << a_vars.len();
        let cols = 1usize << b_vars.len();
        let shared = 1usize << s_vars.len();

        // Per shared assignment: the row/column labelling options.
        // labels[s] = (row label options, column label options); a label
        // option is the vector of h1 (resp. h2) values for that shared
        // assignment.
        let mut row_options: Vec<Vec<Vec<bool>>> = Vec::with_capacity(shared);
        let mut col_options: Vec<Vec<Vec<bool>>> = Vec::with_capacity(shared);
        let mut charts: Vec<Vec<bool>> = Vec::with_capacity(shared);
        for s in 0..shared {
            let mut chart = vec![false; rows * cols];
            let mut assign = vec![false; n];
            for (i, &v) in s_vars.iter().enumerate() {
                assign[v] = (s >> i) & 1 == 1;
            }
            for r in 0..rows {
                for (i, &v) in a_vars.iter().enumerate() {
                    assign[v] = (r >> i) & 1 == 1;
                }
                for c in 0..cols {
                    for (i, &v) in b_vars.iter().enumerate() {
                        assign[v] = (c >> i) & 1 == 1;
                    }
                    chart[r * cols + c] = h.eval(&assign);
                }
            }
            self.charts_built += 1;
            // Two unique quartering parts per axis (Examples 5–6).
            let row_opts = match two_pattern_labels(&chart, rows, cols, true) {
                Some(opts) => opts,
                None => return Ok(()),
            };
            let col_opts = match two_pattern_labels(&chart, rows, cols, false) {
                Some(opts) => opts,
                None => return Ok(()),
            };
            row_options.push(row_opts);
            col_options.push(col_opts);
            charts.push(chart);
        }

        // Split-level support filter (see `factor_split_words`).
        if !covers_axis(&row_options, a_vars.len()) || !covers_axis(&col_options, b_vars.len()) {
            return Ok(());
        }

        // For each candidate operator g, pick one row/column labelling
        // per shared assignment, consistently.
        for &g in &stp_tt::NONTRIVIAL_OPS {
            // Valid (row label, col label) index pairs per shared
            // assignment.
            let mut pairs_per_s: Vec<Vec<(usize, usize)>> = Vec::with_capacity(shared);
            let mut dead = false;
            for s in 0..shared {
                let mut pairs = Vec::new();
                for (ri, rl) in row_options[s].iter().enumerate() {
                    for (ci, cl) in col_options[s].iter().enumerate() {
                        if chart_consistent(&charts[s], rows, cols, g, rl, cl) {
                            pairs.push((ri, ci));
                        }
                    }
                }
                if pairs.is_empty() {
                    dead = true;
                    break;
                }
                pairs_per_s.push(pairs);
            }
            if dead {
                continue;
            }
            // Depth-first combination over shared assignments.
            let mut choice = vec![0usize; shared];
            'combos: loop {
                self.check_deadline()?;
                let h1 =
                    build_operand(n, a_vars, s_vars, &row_options, &pairs_per_s, &choice, true);
                let h2 =
                    build_operand(n, b_vars, s_vars, &col_options, &pairs_per_s, &choice, false);
                // Canonical split: the operands must depend on exactly
                // their assigned variables (otherwise the same triple is
                // found under a smaller split).
                let h1_sup = h1.support();
                let h2_sup = h2.support();
                let mut want1: Vec<usize> = a_vars.iter().chain(s_vars).copied().collect();
                want1.sort_unstable();
                let mut want2: Vec<usize> = b_vars.iter().chain(s_vars).copied().collect();
                want2.sort_unstable();
                let canonical = h1_sup == want1 && h2_sup == want2;
                // Mirror dedup for symmetric shapes.
                let ordered = !symmetric || h1.words() <= h2.words();
                if canonical && ordered {
                    #[cfg(test)]
                    self.triples.push((g, h1.words().to_vec(), h2.words().to_vec()));
                    let r1 = self.realize(n, h1.words(), s1)?;
                    if r1.len > 0 {
                        let r2 = self.realize(n, h2.words(), s2)?;
                        if self.emit_pairs(g, r1, r2, out_start) {
                            return Ok(());
                        }
                    }
                }
                // Advance.
                let mut i = 0;
                loop {
                    if i == shared {
                        break 'combos;
                    }
                    choice[i] += 1;
                    if choice[i] < pairs_per_s[i].len() {
                        break;
                    }
                    choice[i] = 0;
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Cross-products two realization ranges under operator `g` onto
    /// `scratch`; returns `true` when the realization cap was reached
    /// for the subproblem whose realizations start at `out_start`.
    fn emit_pairs(&mut self, g: u8, r1: Realizations, r2: Realizations, out_start: usize) -> bool {
        for i in r1.range() {
            let t1 = self.lists[i];
            for j in r2.range() {
                let t2 = self.lists[j];
                // A gate reading the same leaf twice computes a unary
                // function, so a strictly smaller chain exists and the
                // candidate can never be part of a minimum solution
                // (chains also reject tied fanins).
                let (n1, n2) = (self.nodes[t1 as usize], self.nodes[t2 as usize]);
                if n1.gate == LEAF_GATE && n2.gate == LEAF_GATE && n1.left == n2.left {
                    continue;
                }
                self.scratch.push(self.nodes.len() as u32);
                self.nodes.push(RealNode { gate: g, left: t1, right: t2 });
                if self.scratch.len() - out_start >= self.config.max_realizations {
                    return true;
                }
            }
        }
        false
    }
}

/// Compacts the `n`-input table `words` onto `vars` into a
/// caller-owned buffer of `words.len()` words: bit `m < 2^vars.len()`
/// of the result is the table at the assignment where input `vars[k]`
/// takes bit `k` of `m` and every other input is 0 (the bits above are
/// replicated don't-cares). Word-level (cofactor masks + a front-swap
/// plan), no allocation.
fn compact_into_words(n: usize, words: &[u64], vars: &[usize], buf: &mut [u64]) {
    buf.copy_from_slice(words);
    let mut listed = 0u64;
    for &v in vars {
        listed |= 1u64 << v;
    }
    for v in 0..n {
        if listed >> v & 1 == 0 {
            kernel::cofactor0_in_place(buf, n, v);
        }
    }
    let mut plan = [(0u8, 0u8); 16];
    let len = kernel::front_swap_plan(n, vars, &mut plan);
    for &(i, p) in &plan[..len] {
        kernel::swap_in_place(buf, n, i as usize, p as usize);
    }
}

/// Expands a `k`-input compact table to `n` inputs by tiling and then
/// undoing the front-swap `plan` (computed for the same variable list).
/// The inverse of [`compact_into_words`] up to don't-cares.
fn expand_with_plan_words(compact: &[u64], k: usize, n: usize, plan: &[(u8, u8)], out: &mut [u64]) {
    let nw = kernel::words_len(n);
    kernel::tile_words(&compact[..kernel::words_len(k)], k, n, &mut out[..nw]);
    for &(i, p) in plan.iter().rev() {
        kernel::swap_in_place(&mut out[..nw], n, i as usize, p as usize);
    }
}

/// One lane of [`Factorizer::factor_split_words`]: a decomposition chart,
/// a row or column labelling, or a labelling expanded to cells. `u64`
/// holds charts of up to 64 cells (`|A| + |B| ≤ 6`), [`W4`] charts of
/// up to 256 (`|A| + |B| ≤ 8`).
///
/// Buffers are only ever asked for power-of-two-sized fields at
/// multiples of their size, so a field of at most 64 bits never
/// straddles a word and a larger one is word-aligned.
trait Lane:
    Copy + Default + PartialEq + Not<Output = Self> + BitAnd<Output = Self> + BitOr<Output = Self>
{
    const ZERO: Self;

    /// The low `count` bits set.
    fn low_mask(count: usize) -> Self;

    /// The `cells`-bit field at `bit_off` of a packed buffer.
    fn slice(buf: &[u64], bit_off: usize, cells: usize) -> Self;

    /// The `i`-th `width`-bit field of this lane.
    fn field(self, i: usize, width: usize) -> Self;

    /// Sets bit `i`.
    fn set_bit(&mut self, i: usize);

    /// ORs this lane into the `count`-bit field at `bit_off` of a packed
    /// buffer; no bit at or above `count` may be set.
    fn or_into(self, buf: &mut [u64], bit_off: usize, count: usize);

    /// Expands a row labelling (bit `r` over `rows`) and a column
    /// labelling (bit `c` over `cols`) to cell masks: cell `r·cols + c`
    /// is set when row `r` (column `c`) is labelled.
    fn label_cells(row: Self, col: Self, rows: usize, cols: usize) -> (Self, Self);

    /// `true` when the labellings (one per shared assignment, each over
    /// `2^k` axis elements) jointly depend on every one of the `k` axis
    /// variables.
    fn covers_axis(labels: &[Self], k: usize) -> bool;

    /// The engine's free list of split frames at this width.
    fn free_frames(engine: &mut Factorizer) -> &mut Vec<SplitFrame<Self>>;
}

impl Lane for u64 {
    const ZERO: u64 = 0;

    #[inline]
    fn low_mask(count: usize) -> u64 {
        kernel::low_mask(count)
    }

    #[inline]
    fn slice(buf: &[u64], bit_off: usize, cells: usize) -> u64 {
        (buf[bit_off >> 6] >> (bit_off & 63)) & kernel::low_mask(cells)
    }

    #[inline]
    fn field(self, i: usize, width: usize) -> u64 {
        (self >> (i * width)) & kernel::low_mask(width)
    }

    #[inline]
    fn set_bit(&mut self, i: usize) {
        *self |= 1u64 << i;
    }

    #[inline]
    fn or_into(self, buf: &mut [u64], bit_off: usize, _count: usize) {
        buf[bit_off >> 6] |= self << (bit_off & 63);
    }

    fn label_cells(row: u64, col: u64, rows: usize, cols: usize) -> (u64, u64) {
        let cols_mask = kernel::low_mask(cols);
        let mut row_cells = 0u64;
        let mut rep = 0u64;
        for r in 0..rows {
            row_cells |= ((row >> r) & 1).wrapping_mul(cols_mask << (r * cols));
            rep |= 1u64 << (r * cols);
        }
        // Column labels replicate across rows: the shifts of `col` by
        // r·cols are disjoint, so one multiply scatters them all.
        (row_cells, col.wrapping_mul(rep))
    }

    fn covers_axis(labels: &[u64], k: usize) -> bool {
        let count = 1usize << k;
        let full = (1u32 << k) - 1;
        let mut covered = 0u32;
        for &l in labels {
            for bit in 0..k {
                let zeros = !kernel::VAR_MASK[bit] & kernel::low_mask(count);
                if ((l >> (1usize << bit)) ^ l) & zeros != 0 {
                    covered |= 1 << bit;
                }
            }
            if covered == full {
                return true;
            }
        }
        covered == full
    }

    fn free_frames(engine: &mut Factorizer) -> &mut Vec<SplitFrame<u64>> {
        &mut engine.frames64
    }
}

impl Lane for W4 {
    const ZERO: W4 = W4::ZERO;

    fn low_mask(count: usize) -> W4 {
        let mut out = [0u64; 4];
        for (i, w) in out.iter_mut().enumerate() {
            *w = kernel::low_mask(count.saturating_sub(i * 64));
        }
        W4(out)
    }

    fn slice(buf: &[u64], bit_off: usize, cells: usize) -> W4 {
        if cells <= 64 {
            W4([(buf[bit_off >> 6] >> (bit_off & 63)) & kernel::low_mask(cells), 0, 0, 0])
        } else {
            let base = bit_off >> 6;
            let nw = cells / 64;
            let mut out = [0u64; 4];
            out[..nw].copy_from_slice(&buf[base..base + nw]);
            W4(out)
        }
    }

    fn field(self, i: usize, width: usize) -> W4 {
        W4::slice(&self.0, i * width, width)
    }

    fn set_bit(&mut self, i: usize) {
        self.0[i >> 6] |= 1u64 << (i & 63);
    }

    fn or_into(self, buf: &mut [u64], bit_off: usize, count: usize) {
        if count <= 64 {
            buf[bit_off >> 6] |= self.0[0] << (bit_off & 63);
        } else {
            let base = bit_off >> 6;
            for (dst, src) in buf[base..base + count / 64].iter_mut().zip(self.0.iter()) {
                *dst |= src;
            }
        }
    }

    fn label_cells(row: W4, col: W4, rows: usize, cols: usize) -> (W4, W4) {
        let full = W4::low_mask(cols);
        let (mut row_cells, mut col_cells) = (W4::ZERO, W4::ZERO);
        for r in 0..rows {
            if row.0[r >> 6] >> (r & 63) & 1 == 1 {
                full.or_into(&mut row_cells.0, r * cols, cols);
            }
            col.or_into(&mut col_cells.0, r * cols, cols);
        }
        (row_cells, col_cells)
    }

    fn covers_axis(labels: &[W4], k: usize) -> bool {
        let count = 1usize << k;
        let full = (1u32 << k) - 1;
        let bit = |l: &W4, m: usize| l.0[m >> 6] >> (m & 63) & 1;
        let mut covered = 0u32;
        for l in labels {
            for b in 0..k {
                if covered >> b & 1 == 1 {
                    continue;
                }
                let stride = 1usize << b;
                for m in 0..count {
                    if m & stride == 0 && bit(l, m) != bit(l, m | stride) {
                        covered |= 1 << b;
                        break;
                    }
                }
            }
            if covered == full {
                return true;
            }
        }
        covered == full
    }

    fn free_frames(engine: &mut Factorizer) -> &mut Vec<SplitFrame<W4>> {
        &mut engine.frames_w4
    }
}

/// Mask form of [`two_pattern_labels`] for the rows and the columns of
/// a row-major `rows × cols` chart, or `None` when either axis has
/// more than two distinct patterns. One scan finds row 0's pattern `p0`
/// and the other row pattern `p1` (`p0` if none); column `c` is then
/// `(p0[c], p1[c])` spread over the row labels. With `x = p0 ⊕
/// splat(p0[0])` and `y = p1 ⊕ splat(p1[0])`, column `c` differs from
/// column 0 iff bit `c` of `x ∨ y` is set, and the columns have more
/// than two patterns iff more than one of `x ∧ ¬y`, `¬x ∧ y`, `x ∧ y`
/// is non-zero.
fn chart_labels<L: Lane>(chart: L, rows: usize, cols: usize) -> Option<(L, L)> {
    let p0 = chart.field(0, cols);
    let mut p1 = None;
    let mut labels = L::ZERO;
    for i in 1..rows {
        let p = chart.field(i, cols);
        if p == p0 {
            continue;
        }
        match p1 {
            None => {
                p1 = Some(p);
                labels.set_bit(i);
            }
            Some(q) if p == q => labels.set_bit(i),
            Some(_) => return None,
        }
    }
    let p1 = p1.unwrap_or(p0);
    let flip = |p: L| if p.field(0, 1) == L::ZERO { p } else { !p & L::low_mask(cols) };
    let (x, y) = (flip(p0), flip(p1));
    let classes = [x & !y, !x & y, x & y].into_iter().filter(|&c| c != L::ZERO).count();
    (classes <= 1).then_some((labels, x | y))
}

/// `WITH_BIT[q]`: the operators `g` (bit `g` of the set) whose truth
/// table has bit `q` set, i.e. that output 1 on quadrant `q` (`¬r¬c`,
/// `r¬c`, `¬rc`, `rc`).
const WITH_BIT: [u16; 4] = [0xaaaa, 0xcccc, 0xf0f0, 0xff00];

/// The operators `g` (bit `g`) with `chart = g(row label, column label)`
/// per labelling pair `2·ri + ci` (option 1 complements `row` / `col`).
/// Of the pair's four cell quadrants, one wholly inside the chart keeps
/// the operators that are 1 on it, one wholly outside those that are 0
/// on it; one that straddles the chart admits none, an empty one all.
fn pair_ops<L: Lane>(chart: L, row: L, col: L, rows: usize, cols: usize) -> [u16; 4] {
    let cell_mask = L::low_mask(rows * cols);
    let (rc, cc) = L::label_cells(row, col, rows, cols);
    let mut out = [0u16; 4];
    for (p, ops) in out.iter_mut().enumerate() {
        let r = if p & 2 == 0 { rc } else { !rc & cell_mask };
        let c = if p & 1 == 0 { cc } else { !cc & cell_mask };
        let quadrants = [!r & !c & cell_mask, r & !c, !r & c, r & c];
        *ops = quadrants.into_iter().zip(WITH_BIT).fold(u16::MAX, |ops, (q, with)| {
            if q == L::ZERO {
                ops
            } else if q & !chart == L::ZERO {
                ops & with
            } else if q & chart == L::ZERO {
                ops & !with
            } else {
                0
            }
        });
    }
    out
}

/// [`pair_ops`] by the construction it replaces, kept as its oracle:
/// for each labelling pair and each of the 16 operators, the expected
/// chart (one AND/ANDN term of the labellings per 1 in the operator's
/// truth table) compared against the chart.
#[cfg(test)]
fn expected_chart_ops<L: Lane>(chart: L, row: L, col: L, rows: usize, cols: usize) -> [u16; 4] {
    let cell_mask = L::low_mask(rows * cols);
    let (rc, cc) = L::label_cells(row, col, rows, cols);
    let mut out = [0u16; 4];
    for ri in 0..2 {
        let r = if ri == 0 { rc } else { !rc & cell_mask };
        for ci in 0..2 {
            let c = if ci == 0 { cc } else { !cc & cell_mask };
            for g in 0..16u16 {
                let mut expected = L::ZERO;
                if g & 1 != 0 {
                    expected = expected | (!r & !c & cell_mask);
                }
                if g & 2 != 0 {
                    expected = expected | (r & !c);
                }
                if g & 4 != 0 {
                    expected = expected | (!r & c);
                }
                if g & 8 != 0 {
                    expected = expected | (r & c);
                }
                if expected == chart {
                    out[2 * ri + ci] |= 1 << g;
                }
            }
        }
    }
    out
}

/// Mask form of [`two_pattern_labels`]: returns the first labelling
/// option (bit `i` set ⇔ axis element `i` carries the second distinct
/// pattern; all zeros for a degenerate single-pattern axis), or `None`
/// when more than two distinct patterns exist. `chart` holds `count`
/// fields of `width` bits each. The scan of a chart and of its
/// transpose that [`chart_labels`] replaces, kept as its oracle.
#[cfg(test)]
fn two_pattern_mask<L: Lane>(chart: L, count: usize, width: usize) -> Option<L> {
    let first = chart.field(0, width);
    let mut second: Option<L> = None;
    let mut labels = L::ZERO;
    for i in 1..count {
        let p = chart.field(i, width);
        if p == first {
            continue;
        }
        match second {
            None => {
                second = Some(p);
                labels.set_bit(i);
            }
            Some(sp) if p == sp => labels.set_bit(i),
            Some(_) => return None,
        }
    }
    Some(labels)
}

/// Returns `true` when the per-shared-assignment labellings jointly
/// depend on every one of the `k` axis variables.
fn covers_axis(options: &[Vec<Vec<bool>>], k: usize) -> bool {
    let mut covered = vec![false; k];
    for opts in options {
        // Any labelling of this shared assignment has the same support;
        // use the first.
        let labels = &opts[0];
        for (bit, slot) in covered.iter_mut().enumerate() {
            if *slot {
                continue;
            }
            let stride = 1usize << bit;
            for base in 0..labels.len() {
                if base & stride == 0 && labels[base] != labels[base | stride] {
                    *slot = true;
                    break;
                }
            }
        }
    }
    covered.into_iter().all(|c| c)
}

/// Collects the ≤ 2 distinct patterns along one axis of the chart and
/// returns the candidate labellings, or `None` when more than two
/// distinct patterns exist (the paper's "can not be factored",
/// Example 5.2).
///
/// With two distinct patterns there are two labellings (the classes and
/// their complement); with one there are the two constants.
#[allow(clippy::needless_range_loop)]
fn two_pattern_labels(
    chart: &[bool],
    rows: usize,
    cols: usize,
    by_rows: bool,
) -> Option<Vec<Vec<bool>>> {
    let (count, other) = if by_rows { (rows, cols) } else { (cols, rows) };
    let pattern = |i: usize| -> Vec<bool> {
        (0..other)
            .map(|j| if by_rows { chart[i * cols + j] } else { chart[j * cols + i] })
            .collect()
    };
    let first = pattern(0);
    let mut second: Option<Vec<bool>> = None;
    let mut labels = vec![false; count];
    for i in 1..count {
        let p = pattern(i);
        if p == first {
            continue;
        }
        match &second {
            None => {
                second = Some(p);
                labels[i] = true;
            }
            Some(s) if p == *s => labels[i] = true,
            Some(_) => return None,
        }
    }
    if second.is_some() {
        let inverted: Vec<bool> = labels.iter().map(|&b| !b).collect();
        Some(vec![labels, inverted])
    } else {
        // Degenerate axis: the operand is constant on this shared
        // assignment.
        Some(vec![vec![false; count], vec![true; count]])
    }
}

/// Checks `chart[a][b] == g(rl[a], cl[b])` for every cell.
fn chart_consistent(
    chart: &[bool],
    rows: usize,
    cols: usize,
    g: u8,
    rl: &[bool],
    cl: &[bool],
) -> bool {
    for r in 0..rows {
        for c in 0..cols {
            let v = (g >> ((rl[r] as u8) + 2 * (cl[c] as u8))) & 1 == 1;
            if v != chart[r * cols + c] {
                return false;
            }
        }
    }
    true
}

/// Builds an operand function from the chosen labellings.
fn build_operand(
    n: usize,
    own_vars: &[usize],
    s_vars: &[usize],
    options: &[Vec<Vec<bool>>],
    pairs_per_s: &[Vec<(usize, usize)>],
    choice: &[usize],
    is_row: bool,
) -> TruthTable {
    TruthTable::from_fn(n, |assign| {
        let mut s = 0usize;
        for (i, &v) in s_vars.iter().enumerate() {
            if assign[v] {
                s |= 1 << i;
            }
        }
        let mut idx = 0usize;
        for (i, &v) in own_vars.iter().enumerate() {
            if assign[v] {
                idx |= 1 << i;
            }
        }
        let (ri, ci) = pairs_per_s[s][choice[s]];
        let opt = if is_row { ri } else { ci };
        options[s][opt][idx]
    })
    .expect("operand arity equals the spec arity")
}

/// The realization arena as the circuit solver's DAG: a leaf node is
/// primary input `left`, any other node a gate over two arena nodes.
impl NodeView for [RealNode] {
    fn signal(&self, id: usize) -> Signal {
        let node = self[id];
        if node.gate == LEAF_GATE {
            Signal::Input(node.left as usize)
        } else {
            Signal::Gate(Gate { tt2: node.gate, fanin: [node.left as usize, node.right as usize] })
        }
    }
}

/// Converts the arena realization `id`, of `gates` gates, into a chain
/// over `n` inputs with a single positive output.
fn tree_to_chain(nodes: &[RealNode], id: u32, n: usize, gates: usize) -> Chain {
    fn emit(nodes: &[RealNode], id: u32, chain: &mut Chain) -> usize {
        let node = nodes[id as usize];
        if node.gate == LEAF_GATE {
            return node.left as usize;
        }
        let li = emit(nodes, node.left, chain);
        let ri = emit(nodes, node.right, chain);
        chain
            .add_gate(li, ri, node.gate)
            .expect("realization trees reference earlier signals with distinct fanins")
    }
    let mut chain = Chain::with_capacity(n, gates);
    let top = emit(nodes, id, &mut chain);
    chain.add_output(OutputRef::signal(top));
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use stp_fence::{pruned_fences, shapes_for_fence, shapes_with_gates};

    fn balanced3() -> TreeShape {
        let leaf = TreeShape::Leaf;
        let pair = TreeShape::node(leaf.clone(), leaf.clone());
        TreeShape::node(pair.clone(), pair)
    }

    #[test]
    fn example7_finds_both_paper_solutions() {
        // f = 0x8ff8 on the balanced 3-gate tree: the paper's Example 7
        // prints two Boolean chains; our factorization enumerates the
        // full AllSAT set (four chains — the paper's two plus the two
        // mixed-polarity variants its coupled factorization skips; see
        // DESIGN.md).
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let chains = engine.chains_on_shape(&spec, &balanced3()).unwrap();
        assert_eq!(chains.len(), 4);
        for chain in &chains {
            assert_eq!(chain.num_gates(), 3);
            let out = chain.simulate_outputs().unwrap();
            assert_eq!(out[0], spec, "every factorization must realize the spec");
        }
    }

    #[test]
    fn example7_solution_operators() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let chains = engine.chains_on_shape(&spec, &balanced3()).unwrap();
        // The paper prints the solutions {0xe, 0x8, 0x6} and
        // {0x7, 0x7, 0x9}; both must appear among the enumerated chains.
        let mut op_sets: Vec<Vec<u8>> = chains
            .iter()
            .map(|c| {
                let mut ops: Vec<u8> = c.gates().iter().map(|g| g.tt2).collect();
                ops.sort_unstable();
                ops
            })
            .collect();
        op_sets.sort();
        assert!(op_sets.contains(&vec![0x6, 0x8, 0xe]), "paper solution 1");
        assert!(op_sets.contains(&vec![0x7, 0x7, 0x9]), "paper solution 2");
    }

    #[test]
    fn unfactorable_spec_on_small_shape_yields_nothing() {
        // 3-input majority is prime: no 2-gate tree realizes it.
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        for shape in shapes_with_gates(2) {
            assert!(engine.chains_on_shape(&maj, &shape).unwrap().is_empty());
        }
    }

    #[test]
    fn majority_realized_with_shared_inputs() {
        // Majority needs 4 gates in a tree with repeated leaves (the
        // paper's M_r case).
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let mut found = Vec::new();
        for shape in shapes_with_gates(4) {
            found.extend(engine.chains_on_shape(&maj, &shape).unwrap());
        }
        assert!(!found.is_empty(), "majority must be realizable with 4 gates");
        for chain in &found {
            assert_eq!(chain.simulate_outputs().unwrap()[0], maj);
        }
    }

    #[test]
    fn xor3_realized_with_two_gates() {
        let xor3 = TruthTable::from_fn(3, |a| a[0] ^ a[1] ^ a[2]).unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let mut found = Vec::new();
        for shape in shapes_with_gates(2) {
            found.extend(engine.chains_on_shape(&xor3, &shape).unwrap());
        }
        assert!(!found.is_empty());
        for chain in &found {
            assert_eq!(chain.simulate_outputs().unwrap()[0], xor3);
        }
    }

    #[test]
    fn all_enumerated_chains_are_distinct_and_correct() {
        let spec = TruthTable::from_fn(4, |a| (a[0] & a[1]) | (a[2] & a[3])).unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        let chains = engine.chains_on_shape(&spec, &balanced3()).unwrap();
        assert!(!chains.is_empty());
        let mut keys: Vec<String> = chains.iter().map(|c| format!("{c}")).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "chains must be distinct");
        for chain in &chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
            assert!(chain.all_gates_nontrivial());
        }
    }

    #[test]
    fn trivial_specs_yield_no_chains() {
        let mut engine = Factorizer::new(FactorConfig::default());
        let shape = balanced3();
        for tt in [
            TruthTable::constant(4, true).unwrap(),
            TruthTable::constant(4, false).unwrap(),
            TruthTable::variable(4, 2).unwrap(),
        ] {
            assert!(engine.chains_on_shape(&tt, &shape).unwrap().is_empty());
        }
    }

    #[test]
    fn deadline_aborts_search() {
        let spec = TruthTable::from_hex(4, "1ee1").unwrap();
        let config = FactorConfig {
            deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
            ..FactorConfig::default()
        };
        let mut engine = Factorizer::new(config);
        let result = engine.chains_on_shape(&spec, &balanced3());
        assert!(matches!(result, Err(SynthesisError::Timeout)));
    }

    #[test]
    fn cancel_flag_aborts_search() {
        let spec = TruthTable::from_hex(4, "1ee1").unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let config = FactorConfig { cancel: Some(Arc::clone(&flag)), ..FactorConfig::default() };
        let mut engine = Factorizer::new(config);
        let result = engine.chains_on_shape(&spec, &balanced3());
        assert!(matches!(result, Err(SynthesisError::Timeout)));
    }

    #[test]
    fn cancellation_aborts_promptly_mid_search() {
        // The deadline poll is throttled to one clock read per 1024
        // checkpoints, but the cancel flag is read on every checkpoint:
        // setting it mid-search must abort quickly.
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                flag.store(true, Ordering::SeqCst);
            })
        };
        let spec = TruthTable::from_fn(6, |a| {
            let ones = a.iter().filter(|&&b| b).count();
            ones >= 3 && !(a[0] & a[5])
        })
        .unwrap();
        let shapes = shapes_with_gates(5);
        let start = Instant::now();
        'outer: loop {
            // A fresh engine per sweep keeps the search doing real work
            // (a fully-memoized engine would answer from the memo
            // without reaching a checkpoint).
            let config =
                FactorConfig { cancel: Some(Arc::clone(&flag)), ..FactorConfig::default() };
            let mut engine = Factorizer::new(config);
            for shape in &shapes {
                if engine.chains_on_shape(&spec, shape).is_err() {
                    break 'outer;
                }
            }
            assert!(
                start.elapsed() < std::time::Duration::from_secs(60),
                "cancellation never observed"
            );
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "cancellation must abort promptly"
        );
        setter.join().unwrap();
    }

    #[test]
    fn factorizer_moves_between_threads() {
        // The parallel driver hands each worker its own engine; the
        // memoized realization forests must therefore be `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<Factorizer>();
        assert_send::<FactorConfig>();
    }

    #[test]
    fn realization_cap_is_respected() {
        // XOR-heavy functions have many complementary solutions; cap at
        // a small number and check the cap binds.
        let spec = TruthTable::from_fn(4, |a| a[0] ^ a[1] ^ a[2] ^ a[3]).unwrap();
        let config = FactorConfig { max_realizations: 3, ..FactorConfig::default() };
        let mut engine = Factorizer::new(config);
        let chains = engine.chains_on_shape(&spec, &balanced3()).unwrap();
        assert!(chains.len() <= 3);
        assert!(!chains.is_empty());
    }

    #[test]
    fn memoization_hits_across_shapes() {
        let spec = TruthTable::from_fn(5, |a| (a[0] & a[1]) ^ (a[2] & a[3]) ^ a[4]).unwrap();
        let mut engine = Factorizer::new(FactorConfig::default());
        for shape in shapes_with_gates(4) {
            let _ = engine.chains_on_shape(&spec, &shape).unwrap();
        }
        let first_pass = engine.nodes_explored();
        // Re-running is fully memoized: no new nodes.
        for shape in shapes_with_gates(4) {
            let _ = engine.chains_on_shape(&spec, &shape).unwrap();
        }
        assert_eq!(engine.nodes_explored(), first_pass);
    }

    /// Deterministic 64-bit LCG for the differential fuzz tests (no
    /// external dependency; constants from Knuth via PCG).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Mix the high bits down — the raw LCG's low bits alternate.
            self.0 ^ (self.0 >> 29)
        }
    }

    fn random_table(rng: &mut Lcg, n: usize) -> TruthTable {
        let words = (0..kernel::words_len(n)).map(|_| rng.next()).collect();
        TruthTable::from_words(n, words).unwrap()
    }

    /// The candidates a kernel left on `engine`'s scratch stack, rendered
    /// structurally (arena ids alone could coincide across engines).
    fn scratch_trees(engine: &Factorizer) -> Vec<String> {
        fn render(nodes: &[RealNode], id: u32) -> String {
            let node = nodes[id as usize];
            if node.gate == LEAF_GATE {
                format!("x{}", node.left)
            } else {
                format!(
                    "({:x} {} {})",
                    node.gate,
                    render(nodes, node.left),
                    render(nodes, node.right)
                )
            }
        }
        engine.scratch.iter().map(|&id| render(&engine.nodes, id)).collect()
    }

    /// Asserts that `engine`'s kernels recursed on no candidate triple
    /// twice (the fuzz tests run one split of one node per engine).
    fn assert_unique_triples(engine: &Factorizer, ctx: &str) {
        let distinct: HashSet<_> = engine.triples.iter().collect();
        assert_eq!(distinct.len(), engine.triples.len(), "a triple repeated: {ctx}");
    }

    /// Asserts that no memo entry lists two arena nodes with the same
    /// gate over the same operand realizations. A node that emitted a
    /// realizable `(g, h1, h2)` triple twice would list every such node
    /// twice.
    fn assert_forest_unique(engine: &Factorizer, ctx: &str) {
        for table in &engine.memo {
            let values = table.slots.iter().filter_map(|slot| slot.val);
            for val in values.chain(table.spill.values().copied()) {
                let mut seen = HashSet::new();
                for &id in &engine.lists[val.range()] {
                    let node = engine.nodes[id as usize];
                    assert!(
                        seen.insert((node.gate, node.left, node.right)),
                        "a node emitted a triple twice: {ctx}"
                    );
                }
            }
        }
    }

    /// Asserts that `chains` holds no chain twice.
    fn assert_distinct_chains(chains: &[String], ctx: &str) {
        let distinct: HashSet<&String> = chains.iter().collect();
        assert_eq!(distinct.len(), chains.len(), "a shape emitted a chain twice: {ctx}");
    }

    /// Assigns each of `vars` to A, B or S uniformly at random.
    fn random_split(rng: &mut Lcg, vars: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let (mut a, mut b, mut s) = (Vec::new(), Vec::new(), Vec::new());
        for &v in vars {
            match rng.next() % 3 {
                0 => a.push(v),
                1 => b.push(v),
                _ => s.push(v),
            }
        }
        (a, b, s)
    }

    /// A table over `n` variables that decomposes over the split by
    /// construction: `h = g(h1(A ∪ S), h2(B ∪ S))` for random `h1`, `h2`
    /// and a random operator `g` of both operands.
    fn decomposable_table(
        rng: &mut Lcg,
        n: usize,
        a: &[usize],
        b: &[usize],
        s: &[usize],
    ) -> TruthTable {
        let vars1: Vec<usize> = a.iter().chain(s).copied().collect();
        let vars2: Vec<usize> = b.iter().chain(s).copied().collect();
        let h1 = random_table(rng, vars1.len());
        let h2 = random_table(rng, vars2.len());
        let g = stp_tt::NONTRIVIAL_OPS[(rng.next() % 10) as usize];
        let index = |vars: &[usize], x: &[bool]| -> usize {
            vars.iter().enumerate().map(|(i, &v)| usize::from(x[v]) << i).sum()
        };
        TruthTable::from_fn(n, |x| {
            let (p, q) = (h1.bit(index(&vars1, x)), h2.bit(index(&vars2, x)));
            g >> (usize::from(p) | usize::from(q) << 1) & 1 == 1
        })
        .unwrap()
    }

    /// Runs one split through the `L` kernel and the scalar reference,
    /// with leaf children, and asserts they agree: same emitted
    /// candidates, same candidate triples in the same order (none of
    /// them twice), same counter increments. Returns whether the kernel
    /// emitted a candidate triple.
    fn assert_split_matches_naive<L: Lane, const WORDS: usize, const SHARED: usize>(
        h: &TruthTable,
        a: &[usize],
        b: &[usize],
        s: &[usize],
        symmetric: bool,
    ) -> bool {
        let mut words = Factorizer::new(FactorConfig::default());
        let mut naive = Factorizer::new(FactorConfig::default());
        words
            .factor_split_words::<L, WORDS, SHARED>(
                h.num_vars(),
                h.words(),
                a,
                b,
                s,
                LEAF_SHAPE,
                LEAF_SHAPE,
                symmetric,
                0,
            )
            .unwrap();
        naive.factor_split_naive(h, a, b, s, LEAF_SHAPE, LEAF_SHAPE, symmetric, 0).unwrap();
        let ctx = format!("n={} a={a:?} b={b:?} s={s:?} spec={}", h.num_vars(), h.to_hex());
        assert_eq!(scratch_trees(&words), scratch_trees(&naive), "candidates differ: {ctx}");
        assert_eq!(words.triples, naive.triples, "candidate triples differ: {ctx}");
        assert_unique_triples(&words, &ctx);
        assert_eq!(words.charts_built, naive.charts_built, "chart counts differ: {ctx}");
        assert_eq!(words.nodes_explored, naive.nodes_explored, "node counts differ: {ctx}");
        !words.triples.is_empty()
    }

    /// Draws `cases` tables built to decompose over a random split of
    /// their variables (arity `min_n + rng % span`, `|A| + |B| ≤ max_ab`,
    /// `|S| ≤ 3`) and checks each split through the `L` kernel. Returns
    /// how many cases emitted a candidate triple.
    fn fuzz_decomposable_splits<L: Lane, const WORDS: usize, const SHARED: usize>(
        rng: &mut Lcg,
        cases: usize,
        (min_n, span, max_ab): (usize, u64, usize),
    ) -> usize {
        let (mut tested, mut emitted, mut attempts) = (0usize, 0usize, 0usize);
        while tested < cases {
            attempts += 1;
            assert!(attempts < 40_000, "decomposable split sampling starved");
            let n = min_n + (rng.next() % span) as usize;
            let vars: Vec<usize> = (0..n).collect();
            let (a, b, s) = random_split(rng, &vars);
            if a.len() + s.len() == 0 || b.len() + s.len() == 0 {
                continue;
            }
            if a.len() + b.len() > max_ab || s.len() > 3 {
                continue;
            }
            let h = decomposable_table(rng, n, &a, &b, &s);
            if h.support() != vars {
                continue;
            }
            tested += 1;
            let symmetric = rng.next() & 1 == 1;
            emitted += usize::from(assert_split_matches_naive::<L, WORDS, SHARED>(
                &h, &a, &b, &s, symmetric,
            ));
        }
        emitted
    }

    #[test]
    fn fuzz_fast_split_matches_naive_reference() {
        // For random tables over 2–8 variables and random (A, B, S)
        // splits within the fast-path bounds, the word-level kernels
        // (chart extraction, two-pattern labelling, consistency check,
        // operand scatter, canonicality) must be byte-equal to the
        // scalar reference: same emitted candidates, same candidate
        // triples in the same order (none of them twice), same counter
        // increments. Leaf children keep the recursion trivial so the
        // comparison isolates the kernels.
        let mut rng = Lcg(0xfac7_0123_5eed_0001);
        let mut tested = 0usize;
        let mut attempts = 0usize;
        while tested < 150 {
            attempts += 1;
            assert!(attempts < 20_000, "fuzz split sampling starved");
            let n = 2 + (rng.next() % 7) as usize;
            let h = random_table(&mut rng, n);
            let support = h.support();
            if support.len() < 2 {
                continue;
            }
            let (a, b, s) = random_split(&mut rng, &support);
            if a.len() + s.len() == 0 || b.len() + s.len() == 0 {
                continue;
            }
            // Stay within the fast-path bounds; additionally cap the
            // shared set at 3 variables — with a degenerate axis (empty
            // A or B) every shared assignment can admit several
            // labellings, and the combination space is exponential in
            // the shared-assignment count. The engine's feasibility
            // check bounds shared variables by the shape's leaf excess
            // (na + nb + 2·ns ≤ leaves), so large shared sets never
            // occur in real searches either.
            if a.len() + b.len() > 6 || s.len() > 3 {
                continue;
            }
            tested += 1;
            let symmetric = rng.next() & 1 == 1;
            assert_split_matches_naive::<u64, FAST_WORDS, FAST_SHARED>(&h, &a, &b, &s, symmetric);
        }
        // Uniform tables almost never pass the two-pattern test; tables
        // built to decompose over the split reach the labelling,
        // combination and operand-scatter loops.
        let mut rng = Lcg(0xfac7_0123_5eed_0004);
        let emitted =
            fuzz_decomposable_splits::<u64, FAST_WORDS, FAST_SHARED>(&mut rng, 150, (2, 7, 6));
        assert!(emitted >= 130, "too few splits emitted a candidate: {emitted}");
    }

    #[test]
    fn fuzz_full_engine_fast_matches_naive() {
        // End-to-end differential check: whole-engine runs with the
        // word-level path enabled vs. forced-naive must produce the
        // same chains in the same order with the same counters, across
        // random and structured specs on real shape families.
        let mut rng = Lcg(0x0dd5_eed5_0000_0001);
        let mut specs: Vec<TruthTable> = Vec::new();
        for n in [3usize, 4, 4, 5] {
            specs.push(random_table(&mut rng, n));
        }
        // Structured, factorization-friendly specs reach the deeper
        // kernel paths (labellings, operand scatter, recursion).
        specs.push(TruthTable::from_hex(4, "8ff8").unwrap());
        specs.push(TruthTable::from_fn(5, |a| (a[0] & a[1]) ^ (a[2] | a[3]) ^ a[4]).unwrap());
        specs.push(
            TruthTable::from_fn(6, |a| (a[0] ^ a[1]) & (a[2] ^ a[3]) | (a[4] & a[5])).unwrap(),
        );
        for spec in &specs {
            let d = spec.support().len();
            if d < 2 {
                continue;
            }
            let mut fast = Factorizer::new(FactorConfig::default());
            let mut naive =
                Factorizer::new(FactorConfig { force_naive: true, ..FactorConfig::default() });
            for shape in shapes_with_gates(d.saturating_sub(1)) {
                let chains_f: Vec<String> = fast
                    .chains_on_shape(spec, &shape)
                    .unwrap()
                    .iter()
                    .map(|c| format!("{c}"))
                    .collect();
                let chains_n: Vec<String> = naive
                    .chains_on_shape(spec, &shape)
                    .unwrap()
                    .iter()
                    .map(|c| format!("{c}"))
                    .collect();
                assert_eq!(chains_f, chains_n, "spec={} shape={shape:?}", spec.to_hex());
                assert_distinct_chains(&chains_f, &spec.to_hex());
            }
            assert_forest_unique(&fast, &spec.to_hex());
            assert_forest_unique(&naive, &spec.to_hex());
            assert_eq!(fast.nodes_explored(), naive.nodes_explored(), "spec={}", spec.to_hex());
            assert_eq!(fast.memo_hits(), naive.memo_hits(), "spec={}", spec.to_hex());
            assert_eq!(fast.charts_built, naive.charts_built, "spec={}", spec.to_hex());
        }
    }

    #[test]
    fn fuzz_wide_split_matches_naive_reference() {
        // The wide-path twin of `fuzz_fast_split_matches_naive_reference`:
        // random tables over 7–11 variables (multi-word specs) and random
        // splits within the wide-path bounds (|A| + |B| ≤ 8, so charts
        // span up to 256 bits and labellings up to 128). The shared set
        // is capped at 3 for the same combination-explosion reason as the
        // fast fuzz.
        let mut rng = Lcg(0xfac7_0123_5eed_0002);
        let mut tested = 0usize;
        let mut multiword_axes = 0usize;
        let mut attempts = 0usize;
        while tested < 120 {
            attempts += 1;
            assert!(attempts < 40_000, "fuzz split sampling starved");
            let n = 7 + (rng.next() % 5) as usize;
            let h = random_table(&mut rng, n);
            let support = h.support();
            if support.len() < 2 {
                continue;
            }
            let (a, b, s) = random_split(&mut rng, &support);
            if a.len() + s.len() == 0 || b.len() + s.len() == 0 {
                continue;
            }
            if a.len() + b.len() > 8 || s.len() > 3 {
                continue;
            }
            tested += 1;
            if a.len() + b.len() > 6 {
                // Charts wider than 64 cells: the W4 multi-lane branches.
                multiword_axes += 1;
            }
            let symmetric = rng.next() & 1 == 1;
            assert_split_matches_naive::<W4, WIDE_WORDS, WIDE_SHARED>(&h, &a, &b, &s, symmetric);
        }
        assert!(multiword_axes >= 20, "too few multi-lane cases: {multiword_axes}");
        // Decomposable tables, as in the fast twin.
        let mut rng = Lcg(0xfac7_0123_5eed_0005);
        let emitted =
            fuzz_decomposable_splits::<W4, WIDE_WORDS, WIDE_SHARED>(&mut rng, 120, (7, 5, 8));
        assert!(emitted >= 100, "too few splits emitted a candidate: {emitted}");
    }

    #[test]
    fn fuzz_w4_lanes_match_u64_lanes_within_fast_bounds() {
        // The engine only runs the `W4` instantiation past the `u64`
        // bounds, so this drives both on the same splits within them
        // (n ≤ 8, |A| + |B| ≤ 6, |S| ≤ 3, single- and multi-word specs):
        // the lane type must not change a candidate, a triple, or a
        // counter.
        let mut rng = Lcg(0xfac7_0123_5eed_0003);
        let mut tested = 0usize;
        let mut attempts = 0usize;
        while tested < 150 {
            attempts += 1;
            assert!(attempts < 20_000, "fuzz split sampling starved");
            let n = 2 + (rng.next() % 7) as usize;
            let h = random_table(&mut rng, n);
            let (a, b, s) = random_split(&mut rng, &h.support());
            if a.len() + s.len() == 0 || b.len() + s.len() == 0 {
                continue;
            }
            if a.len() + b.len() > 6 || s.len() > 3 {
                continue;
            }
            tested += 1;
            let symmetric = rng.next() & 1 == 1;
            let mut wide = Factorizer::new(FactorConfig::default());
            let mut fast = Factorizer::new(FactorConfig::default());
            wide.factor_split_words::<W4, WIDE_WORDS, WIDE_SHARED>(
                n,
                h.words(),
                &a,
                &b,
                &s,
                LEAF_SHAPE,
                LEAF_SHAPE,
                symmetric,
                0,
            )
            .unwrap();
            fast.factor_split_words::<u64, FAST_WORDS, FAST_SHARED>(
                n,
                h.words(),
                &a,
                &b,
                &s,
                LEAF_SHAPE,
                LEAF_SHAPE,
                symmetric,
                0,
            )
            .unwrap();
            let ctx = format!("n={n} a={a:?} b={b:?} s={s:?} spec={}", h.to_hex());
            assert_eq!(scratch_trees(&wide), scratch_trees(&fast), "candidates differ: {ctx}");
            assert_eq!(wide.triples, fast.triples, "candidate triples differ: {ctx}");
            assert_eq!(wide.charts_built, fast.charts_built, "chart counts differ: {ctx}");
            assert_eq!(wide.nodes_explored, fast.nodes_explored, "node counts differ: {ctx}");
        }
    }

    /// The row and column labels of a row-major `rows × cols` chart as
    /// the scan of the chart and of its transpose gives them.
    fn scanned_labels<L: Lane>(chart: L, rows: usize, cols: usize) -> Option<(L, L)> {
        let mut transposed = L::ZERO;
        for r in 0..rows {
            for c in 0..cols {
                if chart.field(r * cols + c, 1) != L::ZERO {
                    transposed.set_bit(c * rows + r);
                }
            }
        }
        Some((two_pattern_mask(chart, rows, cols)?, two_pattern_mask(transposed, cols, rows)?))
    }

    /// A `rows × cols` chart with at most two row patterns: two random
    /// patterns over random row labels, so that the column test decides.
    fn two_row_chart<L: Lane>(rng: &mut Lcg, rows: usize, cols: usize) -> L {
        let random = |rng: &mut Lcg, bits: usize| {
            let mut lane = L::ZERO;
            (0..bits).filter(|_| rng.next() & 1 == 1).for_each(|i| lane.set_bit(i));
            lane
        };
        let (p0, p1, labels) = (random(rng, cols), random(rng, cols), random(rng, rows));
        let mut chart = [0u64; 4];
        for r in 0..rows {
            let row = if labels.field(r, 1) == L::ZERO { p0 } else { p1 };
            row.or_into(&mut chart, r * cols, cols);
        }
        L::slice(&chart, 0, rows * cols)
    }

    #[test]
    fn row_derived_column_labels_match_the_transposed_scan() {
        // Exhaustive: every chart of at most 16 cells, in every shape
        // from 1×1 to 16×1 and 1×16, at both lane widths.
        let mut shapes = 0;
        for cells_log in 0..=4 {
            for rows_log in 0..=cells_log {
                let (rows, cols) = (1usize << rows_log, 1usize << (cells_log - rows_log));
                shapes += 1;
                for bits in 0..1u64 << (rows * cols) {
                    let want = scanned_labels(bits, rows, cols);
                    assert_eq!(chart_labels(bits, rows, cols), want, "{rows}×{cols} {bits:#x}");
                    let wide = W4([bits, 0, 0, 0]);
                    let want = want.map(|(r, c)| (W4([r, 0, 0, 0]), W4([c, 0, 0, 0])));
                    assert_eq!(chart_labels(wide, rows, cols), want, "{rows}×{cols} {bits:#x}");
                }
            }
        }
        assert_eq!(shapes, 15);
        // Seeded: 8×8 `u64` charts, and `W4` charts of every shape up to
        // 16×16; half of them with at most two row patterns.
        let mut rng = Lcg(0xc01a_be15_0000_0001);
        let mut passed = 0;
        for i in 0..4000 {
            let chart: u64 = if i % 2 == 0 { rng.next() } else { two_row_chart(&mut rng, 8, 8) };
            let got = chart_labels(chart, 8, 8);
            assert_eq!(got, scanned_labels(chart, 8, 8), "8×8 chart {chart:#x}");
            passed += usize::from(got.is_some());
        }
        for rows_log in 0..=4 {
            for cols_log in 0..=4 {
                let (rows, cols) = (1usize << rows_log, 1usize << cols_log);
                for i in 0..400 {
                    let chart: W4 = if i % 2 == 0 {
                        W4::slice(&[rng.next(), rng.next(), rng.next(), rng.next()], 0, rows * cols)
                    } else {
                        two_row_chart(&mut rng, rows, cols)
                    };
                    let got = chart_labels(chart, rows, cols);
                    assert_eq!(got, scanned_labels(chart, rows, cols), "{rows}×{cols} {chart:?}");
                    passed += usize::from(got.is_some());
                }
            }
        }
        assert!(passed > 2000, "only {passed} seeded charts passed the two-pattern test");
    }

    /// Checks [`pair_ops`] against [`expected_chart_ops`] on `chart` at
    /// lane `L` when it passes the two-pattern test; returns the
    /// operator sets, or `None` for a chart that fails it.
    fn checked_pair_ops<L: Lane + std::fmt::Debug>(
        chart: L,
        rows: usize,
        cols: usize,
    ) -> Option<[u16; 4]> {
        let (row, col) = chart_labels(chart, rows, cols)?;
        let got = pair_ops(chart, row, col, rows, cols);
        let want = expected_chart_ops(chart, row, col, rows, cols);
        assert_eq!(got, want, "{rows}×{cols} chart {chart:?}, labels {row:?} / {col:?}");
        Some(got)
    }

    #[test]
    fn pair_ops_match_the_expected_chart_construction() {
        // Every operator of `NONTRIVIAL_OPS` must be admitted under every
        // labelling pair by some chart, so that each comparison is live.
        let nontrivial = stp_tt::NONTRIVIAL_OPS.iter().fold(0u16, |set, &g| set | 1 << g);
        let mut admitted = [0u16; 4];
        let mut admit = |ops: [u16; 4]| {
            for (seen, set) in admitted.iter_mut().zip(ops) {
                *seen |= set;
            }
        };
        // Exhaustive: every chart of at most 16 cells, in every shape
        // from 1×1 to 16×1 and 1×16, at both lane widths.
        let mut passed = 0;
        for cells_log in 0..=4 {
            for rows_log in 0..=cells_log {
                let (rows, cols) = (1usize << rows_log, 1usize << (cells_log - rows_log));
                for bits in 0..1u64 << (rows * cols) {
                    let Some(ops) = checked_pair_ops(bits, rows, cols) else {
                        continue;
                    };
                    assert_eq!(checked_pair_ops(W4([bits, 0, 0, 0]), rows, cols), Some(ops));
                    admit(ops);
                    passed += 1;
                }
            }
        }
        assert!(passed > 10_000, "only {passed} small charts passed the two-pattern test");
        // Seeded: 8×8 `u64` charts and `W4` charts of every shape up to
        // 16×16, each with at most two row patterns.
        let mut rng = Lcg(0x0a1d_0c0d_0000_0001);
        let mut passed = 0;
        for _ in 0..4000 {
            let chart: u64 = two_row_chart(&mut rng, 8, 8);
            passed += usize::from(checked_pair_ops(chart, 8, 8).map(&mut admit).is_some());
        }
        for rows_log in 0..=4 {
            for cols_log in 0..=4 {
                let (rows, cols) = (1usize << rows_log, 1usize << cols_log);
                for _ in 0..200 {
                    let chart: W4 = two_row_chart(&mut rng, rows, cols);
                    passed += usize::from(checked_pair_ops(chart, rows, cols).is_some());
                }
            }
        }
        assert!(passed > 2000, "only {passed} seeded charts passed the two-pattern test");
        for (p, seen) in admitted.into_iter().enumerate() {
            assert_eq!(seen & nontrivial, nontrivial, "pair {p} never admitted some operator");
        }
    }

    fn balanced_shape(leaves: usize) -> TreeShape {
        if leaves == 1 {
            TreeShape::Leaf
        } else {
            TreeShape::node(balanced_shape(leaves / 2), balanced_shape(leaves - leaves / 2))
        }
    }

    #[test]
    fn fuzz_full_engine_wide_matches_naive() {
        // End-to-end differential for the 9+-input wide path: structured
        // (factorization-friendly) specs on fixed shapes whose leaf
        // excess admits shared variables, so the top-level splits with
        // |A| + |B| ≤ 8 actually route through the `W4` kernel while
        // the `force_naive` engine replays everything through the scalar
        // reference. Chains, counters, and chart counts must agree.
        let mut specs: Vec<TruthTable> = Vec::new();
        specs.push(
            TruthTable::from_fn(9, |a| {
                (a[0] & a[1]) ^ (a[2] | a[3]) ^ (a[4] & a[5]) ^ (a[6] | a[7]) ^ a[8]
            })
            .unwrap(),
        );
        specs.push(
            TruthTable::from_fn(10, |a| {
                ((a[0] ^ a[1]) & (a[2] ^ a[3])) | ((a[4] & a[5]) ^ (a[6] & a[7]) & (a[8] | a[9]))
            })
            .unwrap(),
        );
        for spec in &specs {
            let d = spec.support().len();
            let shape = balanced_shape(d + 1);
            let mut wide =
                Factorizer::new(FactorConfig { max_realizations: 64, ..FactorConfig::default() });
            let mut naive = Factorizer::new(FactorConfig {
                max_realizations: 64,
                force_naive: true,
                ..FactorConfig::default()
            });
            let chains_w: Vec<String> = wide
                .chains_on_shape(spec, &shape)
                .unwrap()
                .iter()
                .map(|c| format!("{c}"))
                .collect();
            let chains_n: Vec<String> = naive
                .chains_on_shape(spec, &shape)
                .unwrap()
                .iter()
                .map(|c| format!("{c}"))
                .collect();
            assert_eq!(chains_w, chains_n, "spec arity {d}");
            assert_distinct_chains(&chains_w, &format!("spec arity {d}"));
            assert_forest_unique(&wide, &format!("spec arity {d}"));
            assert_forest_unique(&naive, &format!("spec arity {d}"));
            assert_eq!(wide.nodes_explored(), naive.nodes_explored(), "spec arity {d}");
            assert_eq!(wide.memo_hits(), naive.memo_hits(), "spec arity {d}");
            assert_eq!(wide.charts_built, naive.charts_built, "spec arity {d}");
            assert!(wide.charts_built > 0, "wide engine built no charts at arity {d}");
        }
    }

    /// A distinct memo value per `i`.
    fn val(i: usize) -> Realizations {
        Realizations { start: i as u32, len: 1 }
    }

    #[test]
    fn memo_table_packed_roundtrip_growth_and_bytes() {
        let mut table = MemoTable::default();
        let mut rng = Lcg(0x9e37_79b9_0000_0001);
        let mut keys = Vec::new();
        let mut bytes = 0u64;
        for i in 0..200usize {
            let n = 2 + (rng.next() % 7) as usize;
            let h = random_table(&mut rng, n);
            bytes += table.insert(n, h.words(), val(i));
            keys.push((h, i));
        }
        // Bytes grew monotonically with slot-array capacity and the load
        // factor stayed under 7/8.
        let cap = bytes as usize / std::mem::size_of::<MemoSlot>();
        assert!(cap.is_power_of_two(), "slot capacity {cap} not a power of two");
        assert!(table.len * 8 <= cap * 7, "load factor exceeded 7/8: {}/{cap}", table.len);
        assert_eq!(bytes, (cap * 48) as u64, "slot storage is 48 bytes a slot");
        // Every inserted key probes back to its latest value (duplicate
        // tables along the way replace, never duplicate).
        let mut latest: HashMap<Vec<u64>, usize> = HashMap::new();
        for (h, i) in &keys {
            let mut k = vec![h.num_vars() as u64];
            k.extend_from_slice(h.words());
            latest.insert(k, *i);
        }
        assert_eq!(table.entries(), latest.len() as u64);
        for (h, _) in &keys {
            let mut k = vec![h.num_vars() as u64];
            k.extend_from_slice(h.words());
            let want = latest[&k];
            let got = table.get(h.num_vars(), h.words()).expect("inserted key must probe back");
            assert_eq!(got, val(want), "wrong value for {}", h.to_hex());
        }
        // A table that was never probed for a missing key still answers
        // misses with None.
        let missing = random_table(&mut rng, 8);
        let mut k = vec![missing.num_vars() as u64];
        k.extend_from_slice(missing.words());
        if !latest.contains_key(&k) {
            assert!(table.get(8, missing.words()).is_none());
        }
    }

    #[test]
    fn memo_table_spills_wide_specs() {
        let mut table = MemoTable::default();
        let mut rng = Lcg(0x5b11_a5e5_0000_0002);
        let wide = random_table(&mut rng, 9);
        let narrow = random_table(&mut rng, 4);
        assert_eq!(table.insert(9, wide.words(), val(1)), 0, "spill inserts allocate no slots");
        table.insert(4, narrow.words(), val(2));
        assert_eq!(table.get(9, wide.words()), Some(val(1)));
        assert_eq!(table.get(4, narrow.words()), Some(val(2)));
        assert_eq!(table.entries(), 2);
        assert_eq!(table.len, 1, "only the narrow spec lands in the packed array");
    }

    #[test]
    fn memo_table_distinguishes_arity_of_equal_words() {
        // The same words encode different functions at different
        // arities; both entries must coexist in the packed array.
        let mut table = MemoTable::default();
        table.insert(3, &[0x5a], val(3));
        table.insert(6, &[0x5a], val(6));
        assert_eq!(table.get(3, &[0x5a]), Some(val(3)));
        assert_eq!(table.get(6, &[0x5a]), Some(val(6)));
        assert_eq!(table.entries(), 2);
    }

    /// The feasible splits of the full base-3 counter over `d` support
    /// variables, in counter order: the enumeration the split plans
    /// replace.
    fn counter_splits(d: usize, l1: usize, l2: usize) -> Vec<Split> {
        let mut out = Vec::new();
        let mut digits = [0u8; 16];
        loop {
            let (mut split, mut na, mut nb, mut ns) = (Split { a: 0, b: 0 }, 0, 0, 0);
            for (i, &digit) in digits[..d].iter().enumerate() {
                match digit {
                    0 => {
                        split.a |= 1 << i;
                        na += 1;
                    }
                    1 => {
                        split.b |= 1 << i;
                        nb += 1;
                    }
                    _ => ns += 1,
                }
            }
            if na + ns >= 1 && nb + ns >= 1 && na + ns <= l1 && nb + ns <= l2 {
                out.push(split);
            }
            let mut i = 0;
            loop {
                if i == d {
                    return out;
                }
                digits[i] += 1;
                if digits[i] < 3 {
                    break;
                }
                digits[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn split_plans_follow_the_base3_counter() {
        // Every plan a node can ask for (d ≤ l1 + l2, leaf counts up to
        // 16 in total) equals the feasible subsequence of the counter,
        // element for element — through the engine's cache, asked twice.
        let max_d = if cfg!(debug_assertions) { 8 } else { 12 };
        let mut engine = Factorizer::new(FactorConfig::default());
        for d in 1..=max_d {
            for l1 in 1..16 {
                for l2 in 1..=16 - l1 {
                    if d > l1 + l2 {
                        continue;
                    }
                    let want = counter_splits(d, l1, l2);
                    for _ in 0..2 {
                        let range = engine.split_plan(d, l1, l2);
                        assert!(
                            engine.plan_splits[range] == want[..],
                            "plan differs for d={d} l1={l1} l2={l2}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memo_probe_ns_attributes_to_the_driving_workers_scope() {
        // Two workers run the same search under their own
        // `CounterScope`s: each scope must see its own engine's memo
        // traffic (probes, bytes, entries), not a share of the other's —
        // the flush in `chains_on_shape` runs on the worker thread.
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let run = || {
            let scope = stp_telemetry::CounterScope::enter();
            let mut engine = Factorizer::new(FactorConfig::default());
            for shape in shapes_with_gates(3) {
                let _ = engine.chains_on_shape(&spec, &shape).unwrap();
            }
            (scope.finish(), engine)
        };
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(run);
            let tb = s.spawn(run);
            (ta.join().unwrap(), tb.join().unwrap())
        });
        for (got, engine) in [&a, &b] {
            assert_eq!(got.get("factor.subproblems").copied(), Some(engine.nodes_explored));
            assert_eq!(got.get("factor.memo_hits").copied(), Some(engine.memo_hits));
            assert_eq!(got.get("factor.memo_bytes").copied(), Some(engine.memo_bytes));
            assert_eq!(got.get("factor.memo_entries").copied(), Some(engine.memo_entries));
            // The sampled probe timing lands in the same scope (it may
            // legitimately be zero when no probe hit the sample tick).
            assert_eq!(got.get("factor.memo_probe_ns").copied().unwrap_or(0), engine.memo_probe_ns);
        }
    }

    /// The specs of `tests/factor_transcripts.rs`: twelve NPN4 class
    /// representatives of 4–6 gates, three FDSD8 functions and one
    /// 9-input DSD function drawn with its seed.
    fn factor_transcript_specs() -> Vec<TruthTable> {
        use rand::SeedableRng;
        let mut specs: Vec<TruthTable> = [
            "0018", "033c", "035b", "1be4", "013c", "0182", "0669", "178e", "011b", "016a", "07b6",
            "0693",
        ]
        .iter()
        .map(|hex| TruthTable::from_hex(4, hex).unwrap())
        .collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5eed);
        for n in [8, 8, 8, 9] {
            specs.push(stp_tt::random_fdsd_tree(n, &mut rng).to_truth_table(n).unwrap());
        }
        specs
    }

    /// The shapes of the optimum gate-count round, as the synthesis
    /// driver walks them.
    fn optimum_round(spec: &TruthTable) -> Vec<TreeShape> {
        let config = crate::SynthesisConfig { jobs: 1, ..crate::SynthesisConfig::default() };
        let gates = crate::synthesize(spec, &config).unwrap().gate_count;
        pruned_fences(gates).iter().flat_map(shapes_for_fence).collect()
    }

    /// The forest verifier's verdict on arena node `id`, after asserting
    /// that the merge-then-cover root check gives the same one.
    fn forest_accepts(engine: &mut Factorizer, spec: &TruthTable, id: u32) -> bool {
        let accepted = engine.forest.root_check(&engine.nodes[..], id as usize, true, spec);
        let (merged, _) =
            engine.forest.merged_root_check(&engine.nodes[..], id as usize, true, spec);
        assert_eq!(accepted, merged, "root {id}, spec {}", spec.to_hex());
        accepted
    }

    /// Every root of every shape in `shapes`, with its chain, after
    /// asserting that the forest verifier and `verify_chain` accept it
    /// alike under `max_depth`, that it realizes `spec`, and that no
    /// shape emitted a chain twice.
    fn differential_roots(
        engine: &mut Factorizer,
        spec: &TruthTable,
        shapes: &[TreeShape],
        max_depth: Option<usize>,
    ) -> Vec<(u32, Chain)> {
        let mut all = Vec::new();
        let never = AtomicBool::new(false);
        for shape in shapes {
            let roots = engine.roots(spec, shape).unwrap();
            let ids = engine.lists[roots.range()].to_vec();
            let (n, gates) = (spec.num_vars(), shape.gate_count());
            let chains: Vec<Chain> =
                ids.iter().map(|&id| tree_to_chain(&engine.nodes, id, n, gates)).collect();
            let ctx = format!("spec {} shape {shape:?}", spec.to_hex());
            let rendered: Vec<String> = chains.iter().map(|c| c.to_string()).collect();
            assert_distinct_chains(&rendered, &ctx);
            for (&id, chain) in ids.iter().zip(&chains) {
                assert_eq!(chain.simulate_outputs().unwrap()[0], *spec, "{ctx}");
                let by_chain = crate::verify_chain(chain, spec).unwrap();
                assert!(by_chain, "a real candidate was rejected: {ctx}");
                assert_eq!(forest_accepts(engine, spec, id), by_chain, "{ctx}:\n{chain}");
            }
            let expected: Vec<String> = chains
                .iter()
                .filter(|c| max_depth.is_none_or(|d| c.depth() <= d))
                .map(|c| c.to_string())
                .collect();
            let verified: Vec<String> = engine
                .verified_chains_on_shape(spec, shape, usize::MAX, max_depth, &never)
                .unwrap()
                .iter()
                .map(|c| c.to_string())
                .collect();
            assert_eq!(verified, expected, "{ctx}");
            all.extend(ids.into_iter().zip(chains));
        }
        all
    }

    #[test]
    fn transcript_specs_emit_each_candidate_once_and_verify_alike() {
        // Every root of every shape in the optimum round: no node lists
        // a triple twice, no shape a chain twice, and the forest
        // verifier agrees with `verify_chain` root by root. Every cover
        // the forest memoized equals its cube list's cover.
        for spec in factor_transcript_specs() {
            let mut engine = Factorizer::new(FactorConfig::default());
            let roots = differential_roots(&mut engine, &spec, &optimum_round(&spec), None);
            assert!(!roots.is_empty(), "spec {}", spec.to_hex());
            assert_forest_unique(&engine, &spec.to_hex());
            let mut lists = Propagator::default();
            let compared = engine.forest.assert_covers_match_lists(
                &engine.nodes[..],
                &mut lists,
                &spec.to_hex(),
            );
            assert!(compared > 0, "spec {}", spec.to_hex());
        }
    }

    #[test]
    fn depth_objective_specs_verify_alike_under_the_depth_cap() {
        // The depth objective's optimum round walks every shape of its
        // gate count up to its depth, and verification skips deeper
        // roots: one level less skips every root before any query.
        let mut specs: Vec<TruthTable> = stp_tt::npn_classes(3);
        for (vars, hex) in [(4, "8ff8"), (4, "6996"), (3, "e8"), (4, "1ee1"), (4, "cafe")] {
            specs.push(TruthTable::from_hex(vars, hex).unwrap());
        }
        let depth = crate::objective_from_spec("depth").unwrap();
        let config = crate::SynthesisConfig { jobs: 1, ..crate::SynthesisConfig::default() };
        let never = AtomicBool::new(false);
        for spec in specs {
            let result = crate::synthesize_with_objective(&spec, depth.as_ref(), &config).unwrap();
            if result.gate_count == 0 {
                continue;
            }
            let d = result.chains[0].depth();
            let shapes: Vec<TreeShape> = shapes_with_gates(result.gate_count)
                .into_iter()
                .filter(|shape| shape.height() <= d)
                .collect();
            let mut engine = Factorizer::new(FactorConfig::default());
            let roots = differential_roots(&mut engine, &spec, &shapes, Some(d));
            assert!(!roots.is_empty(), "spec {}", spec.to_hex());
            assert_forest_unique(&engine, &spec.to_hex());
            let scope = stp_telemetry::CounterScope::enter();
            for shape in &shapes {
                let shallower =
                    engine.verified_chains_on_shape(&spec, shape, usize::MAX, Some(d - 1), &never);
                assert!(shallower.unwrap().is_empty(), "spec {}", spec.to_hex());
            }
            assert_eq!(scope.finish().get("solver.queries"), None, "spec {}", spec.to_hex());
        }
    }

    #[test]
    fn both_verifiers_reject_a_flipped_minterm_and_a_flipped_gate() {
        // Real candidates are never rejected, so build rejections: the
        // roots checked against a spec with one minterm flipped, and
        // every root copied with its gate byte complemented. Both
        // verifiers refuse all of them and the counters record it.
        let never = AtomicBool::new(false);
        for spec in factor_transcript_specs() {
            let mut engine = Factorizer::new(FactorConfig::default());
            let shapes = optimum_round(&spec);
            let gates = shapes[0].gate_count();
            let roots = differential_roots(&mut engine, &spec, &shapes, None);
            let mut words = spec.words().to_vec();
            words[0] ^= 1 << 5;
            let flipped = TruthTable::from_words(spec.num_vars(), words).unwrap();
            // Complemented copies: new arena nodes over the same operand
            // realizations, so their fanins' covers are memo hits.
            let start = engine.lists.len() as u32;
            for &(id, _) in &roots {
                let node = engine.nodes[id as usize];
                engine.lists.push(engine.nodes.len() as u32);
                engine.nodes.push(RealNode { gate: node.gate ^ 0xf, ..node });
            }
            let complemented = Realizations { start, len: roots.len() as u32 };
            let scope = stp_telemetry::CounterScope::enter();
            for shape in &shapes {
                let real = engine.roots(&spec, shape).unwrap();
                let kept = engine.verify_roots(&flipped, real, gates, usize::MAX, &never).unwrap();
                assert!(kept.is_empty(), "spec {}: flipped minterm accepted", spec.to_hex());
            }
            let kept = engine.verify_roots(&spec, complemented, gates, usize::MAX, &never).unwrap();
            assert!(kept.is_empty(), "spec {}: complemented gate accepted", spec.to_hex());
            let counters = scope.finish();
            let rejected = 2 * roots.len() as u64;
            assert_eq!(counters.get("solver.candidates_rejected"), Some(&rejected));
            assert_eq!(counters.get("solver.queries"), Some(&rejected));
            assert_eq!(counters.get("solver.candidates_verified"), None);
            for (i, &(root, ref chain)) in roots.iter().enumerate() {
                assert!(!crate::verify_chain(chain, &flipped).unwrap());
                assert!(!forest_accepts(&mut engine, &flipped, root));
                let id = engine.lists[complemented.range()][i];
                let wrong = tree_to_chain(&engine.nodes, id, spec.num_vars(), gates);
                assert!(!crate::verify_chain(&wrong, &spec).unwrap());
                assert!(!forest_accepts(&mut engine, &spec, id));
            }
        }
    }
}
