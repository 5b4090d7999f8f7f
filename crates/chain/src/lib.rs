//! Knuth-style Boolean chains of 2-input LUT nodes.
//!
//! A *Boolean chain* (§II-B of the paper, after Knuth TAOCP 4A) over
//! inputs `x_1 … x_n` is a sequence of steps `x_{n+1} … x_{n+r}`, each
//! computing a 2-input Boolean operator of two strictly earlier signals.
//! Outputs may tap any signal, optionally complemented.
//!
//! The paper's STP synthesis returns solutions as chains of *arbitrary*
//! 2-input LUTs ("all solutions are expressed as 2-LUTs, rather than
//! homogeneous logic representations"), so each gate carries its 4-bit
//! truth table, and [`Chain::cost`] lets callers rank solutions under
//! different cost models — the flexibility the paper advertises.
//!
//! # Quick start
//!
//! Build the optimum chain for the paper's running example `0x8ff8`
//! (Example 7) and check it by simulation:
//!
//! ```
//! use stp_chain::{Chain, OutputRef};
//! use stp_tt::TruthTable;
//!
//! let mut chain = Chain::new(4);
//! let x5 = chain.add_gate(2, 3, 0x6)?; // x5 = XOR(c, d)
//! let x6 = chain.add_gate(0, 1, 0x8)?; // x6 = AND(a, b)
//! let x7 = chain.add_gate(x5, x6, 0xe)?; // x7 = OR(x5, x6)
//! chain.add_output(OutputRef::signal(x7));
//! let f = chain.simulate_outputs()?;
//! assert_eq!(f[0], TruthTable::from_hex(4, "8ff8")?);
//! # Ok::<(), stp_chain::ChainError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use stp_tt::{TruthTable, TruthTableError};

/// Errors raised while building or simulating a [`Chain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A gate fanin references a signal at or beyond the gate itself.
    FaninOutOfRange {
        /// The offending fanin index.
        fanin: usize,
        /// Number of signals available when the gate was added.
        available: usize,
    },
    /// A gate's two fanins are identical; use a unary gate or wire
    /// directly instead.
    DuplicateFanin {
        /// The repeated signal index.
        fanin: usize,
    },
    /// An output references a missing signal.
    OutputOutOfRange {
        /// The offending signal index.
        index: usize,
        /// Number of signals in the chain.
        available: usize,
    },
    /// The chain's input count is not supported by the truth-table
    /// substrate.
    TruthTable(TruthTableError),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::FaninOutOfRange { fanin, available } => {
                write!(f, "fanin {fanin} must reference one of the {available} earlier signals")
            }
            ChainError::DuplicateFanin { fanin } => {
                write!(f, "gate fanins must be distinct, got {fanin} twice")
            }
            ChainError::OutputOutOfRange { index, available } => {
                write!(f, "output references signal {index} but the chain has {available}")
            }
            ChainError::TruthTable(e) => write!(f, "truth table error: {e}"),
        }
    }
}

impl Error for ChainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ChainError::TruthTable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TruthTableError> for ChainError {
    fn from(e: TruthTableError) -> Self {
        ChainError::TruthTable(e)
    }
}

/// A 2-input LUT gate inside a [`Chain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gate {
    /// Fanin signal indices (inputs are `0..n`, gates follow).
    pub fanin: [usize; 2],
    /// 4-bit truth table: bit `a + 2b` is the gate value when the first
    /// fanin is `a` and the second is `b`.
    pub tt2: u8,
}

impl Gate {
    /// Evaluates the gate function.
    pub fn apply(&self, a: bool, b: bool) -> bool {
        (self.tt2 >> ((a as u8) + 2 * (b as u8))) & 1 == 1
    }

    /// `true` when the gate function depends on both fanins (it is not a
    /// constant or a projection).
    pub fn is_nontrivial(&self) -> bool {
        let f = |a: bool, b: bool| self.apply(a, b);
        let dep_a = f(false, false) != f(true, false) || f(false, true) != f(true, true);
        let dep_b = f(false, false) != f(false, true) || f(true, false) != f(true, true);
        dep_a && dep_b
    }
}

/// An output tap: a signal reference with optional complementation, or a
/// constant (Knuth's `x_0 = 0` convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputRef {
    /// A (possibly complemented) signal.
    Signal {
        /// Signal index (inputs are `0..n`, gates follow).
        index: usize,
        /// Whether the output is complemented.
        negated: bool,
    },
    /// A constant output.
    Constant(bool),
}

impl OutputRef {
    /// An uncomplemented signal tap.
    pub fn signal(index: usize) -> Self {
        OutputRef::Signal { index, negated: false }
    }

    /// A complemented signal tap.
    pub fn negated_signal(index: usize) -> Self {
        OutputRef::Signal { index, negated: true }
    }
}

/// Cost models for ranking synthesized chains.
///
/// The paper emphasizes that because STP synthesis returns *all* optimum
/// chains as generic 2-LUTs, "different costs can be considered when
/// selecting the optimal circuit" — this type is that selector.
#[derive(Debug, Clone, PartialEq)]
pub enum CostModel {
    /// Number of gates (the primary optimality criterion).
    GateCount,
    /// Length of the longest input-to-output path.
    Depth,
    /// Per-operator weights: gates whose 4-bit truth table is absent from
    /// the map cost `default`.
    WeightedOps {
        /// Cost per gate truth table.
        weights: HashMap<u8, u64>,
        /// Cost of gates not present in `weights`.
        default: u64,
    },
}

/// A Boolean chain: `num_inputs` primary inputs followed by 2-input LUT
/// gates, with explicit output taps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<OutputRef>,
}

impl Chain {
    /// Creates an empty chain over `num_inputs` primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        Chain { num_inputs, gates: Vec::new(), outputs: Vec::new() }
    }

    /// Creates an empty chain over `num_inputs` primary inputs with room
    /// for `gates` gates, so adding that many never regrows the list.
    pub fn with_capacity(num_inputs: usize, gates: usize) -> Self {
        Chain { num_inputs, gates: Vec::with_capacity(gates), outputs: Vec::new() }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Total number of signals (inputs + gates).
    pub fn num_signals(&self) -> usize {
        self.num_inputs + self.gates.len()
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output taps.
    pub fn outputs(&self) -> &[OutputRef] {
        &self.outputs
    }

    /// Appends a gate computing `tt2(fanin0, fanin1)` and returns its
    /// signal index.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::FaninOutOfRange`] when a fanin does not
    /// reference an earlier signal and [`ChainError::DuplicateFanin`]
    /// when the fanins coincide.
    pub fn add_gate(&mut self, fanin0: usize, fanin1: usize, tt2: u8) -> Result<usize, ChainError> {
        let available = self.num_signals();
        for fanin in [fanin0, fanin1] {
            if fanin >= available {
                return Err(ChainError::FaninOutOfRange { fanin, available });
            }
        }
        if fanin0 == fanin1 {
            return Err(ChainError::DuplicateFanin { fanin: fanin0 });
        }
        self.gates.push(Gate { fanin: [fanin0, fanin1], tt2: tt2 & 0xf });
        Ok(available)
    }

    /// Registers an output tap.
    ///
    /// Out-of-range signal references are caught by
    /// [`Chain::simulate_outputs`] and [`Chain::validate`].
    pub fn add_output(&mut self, output: OutputRef) {
        self.outputs.push(output);
    }

    /// Checks the structural invariants: every gate reads strictly
    /// earlier distinct signals and every output tap exists.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), ChainError> {
        for (i, gate) in self.gates.iter().enumerate() {
            let available = self.num_inputs + i;
            for fanin in gate.fanin {
                if fanin >= available {
                    return Err(ChainError::FaninOutOfRange { fanin, available });
                }
            }
            if gate.fanin[0] == gate.fanin[1] {
                return Err(ChainError::DuplicateFanin { fanin: gate.fanin[0] });
            }
        }
        for out in &self.outputs {
            if let OutputRef::Signal { index, .. } = out {
                if *index >= self.num_signals() {
                    return Err(ChainError::OutputOutOfRange {
                        index: *index,
                        available: self.num_signals(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Simulates every signal bit-parallel, returning one truth table per
    /// signal (inputs first, then gates).
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] when the chain is structurally invalid or
    /// the input count exceeds the truth-table substrate's limit.
    pub fn simulate(&self) -> Result<Vec<TruthTable>, ChainError> {
        self.validate()?;
        let mut signals = Vec::with_capacity(self.num_signals());
        for i in 0..self.num_inputs {
            signals.push(TruthTable::variable(self.num_inputs, i)?);
        }
        for gate in &self.gates {
            let a = &signals[gate.fanin[0]];
            let b = &signals[gate.fanin[1]];
            signals.push(a.binary_op(gate.tt2, b)?);
        }
        Ok(signals)
    }

    /// Simulates the chain and returns one truth table per output tap.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chain::simulate`].
    pub fn simulate_outputs(&self) -> Result<Vec<TruthTable>, ChainError> {
        stp_telemetry::counter!("chain.simulations").inc();
        let signals = self.simulate()?;
        let mut out = Vec::with_capacity(self.outputs.len());
        for tap in &self.outputs {
            match tap {
                OutputRef::Signal { index, negated } => {
                    let tt = signals[*index].clone();
                    out.push(if *negated { !tt } else { tt });
                }
                OutputRef::Constant(v) => {
                    out.push(TruthTable::constant(self.num_inputs, *v)?);
                }
            }
        }
        Ok(out)
    }

    /// Per-signal logic level: inputs are level 0, a gate is one more
    /// than its deepest fanin.
    pub fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.num_signals()];
        for (i, gate) in self.gates.iter().enumerate() {
            let idx = self.num_inputs + i;
            levels[idx] = 1 + gate.fanin.iter().map(|&f| levels[f]).max().unwrap_or(0);
        }
        levels
    }

    /// Depth of the chain: the maximum output level.
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.outputs
            .iter()
            .filter_map(|o| match o {
                OutputRef::Signal { index, .. } => levels.get(*index).copied(),
                OutputRef::Constant(_) => Some(0),
            })
            .max()
            .unwrap_or_else(|| levels.iter().copied().max().unwrap_or(0))
    }

    /// Evaluates the chain's cost under a [`CostModel`].
    pub fn cost(&self, model: &CostModel) -> u64 {
        match model {
            CostModel::GateCount => self.gates.len() as u64,
            CostModel::Depth => self.depth() as u64,
            CostModel::WeightedOps { weights, default } => {
                self.gates.iter().map(|g| weights.get(&g.tt2).copied().unwrap_or(*default)).sum()
            }
        }
    }

    /// `true` when every gate function depends on both of its fanins.
    pub fn all_gates_nontrivial(&self) -> bool {
        self.gates.iter().all(Gate::is_nontrivial)
    }

    /// Rewires the chain under an input permutation, input negations,
    /// and an output negation: the result `C'` satisfies
    /// `C'(z) = C(y) ^ output_negated` with
    /// `y_i = z_{perm[i]} ^ negation(perm[i])`.
    ///
    /// Input negations are absorbed into the truth tables of the gates
    /// reading those inputs, so the gate count never changes. Together
    /// with [`stp_tt::canonicalize`] this maps a chain synthesized for
    /// an NPN class representative back to any class member.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::FaninOutOfRange`] when `perm` is not a
    /// permutation of the chain's inputs.
    pub fn permute_negate(
        &self,
        perm: &[usize],
        input_negations: u32,
        output_negated: bool,
    ) -> Result<Chain, ChainError> {
        self.rewire(perm, input_negations, self.outputs.iter().map(|tap| (*tap, output_negated)))
    }

    /// Multi-output generalization of [`Chain::permute_negate`]: rewires
    /// the inputs as there, then reorders and rephases the output taps.
    ///
    /// `self`'s outputs are taken to be in *canonical* order: canonical
    /// position `j` holds original output `output_perm[j]`, complemented
    /// when `output_negations[j]` is set. The result's outputs are in
    /// *original* order — output `o` of the result computes
    /// `C_j(y…) ^ output_negations[j]` for the `j` with
    /// `output_perm[j] == o` and the same `y` relation as
    /// [`Chain::permute_negate`]. Together with
    /// [`stp_tt::canonicalize_multi`] this maps a chain synthesized for
    /// a multi-output class representative tuple back to the original
    /// spec vector.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::FaninOutOfRange`] when `perm` is not a
    /// permutation of the inputs and [`ChainError::OutputOutOfRange`]
    /// when `output_perm`/`output_negations` do not form a permutation
    /// and phase vector over this chain's outputs.
    pub fn permute_negate_outputs(
        &self,
        perm: &[usize],
        input_negations: u32,
        output_perm: &[usize],
        output_negations: &[bool],
    ) -> Result<Chain, ChainError> {
        let k = self.outputs.len();
        if output_perm.len() != k || output_negations.len() != k {
            return Err(ChainError::OutputOutOfRange {
                index: output_perm.len().max(output_negations.len()),
                available: k,
            });
        }
        if let Some(index) = first_non_permutation(output_perm) {
            return Err(ChainError::OutputOutOfRange { index, available: k });
        }
        let taps = (0..k).map(|o| {
            let j = output_perm.iter().position(|&x| x == o).expect("validated permutation");
            (self.outputs[j], output_negations[j])
        });
        self.rewire(perm, input_negations, taps)
    }

    /// The one pass behind [`Chain::permute_negate`] and
    /// [`Chain::permute_negate_outputs`]: maps every gate through
    /// `perm`/`input_negations`, then emits `taps` — each a source
    /// output tap and an extra complementation — in order.
    fn rewire(
        &self,
        perm: &[usize],
        input_negations: u32,
        taps: impl ExactSizeIterator<Item = (OutputRef, bool)>,
    ) -> Result<Chain, ChainError> {
        let n = self.num_inputs;
        if perm.len() != n {
            return Err(ChainError::FaninOutOfRange { fanin: perm.len(), available: n });
        }
        if let Some(fanin) = first_non_permutation(perm) {
            return Err(ChainError::FaninOutOfRange { fanin, available: n });
        }
        // Old input i reads z_{perm[i]}, complemented per the negation
        // mask on the *new* index.
        let negated = |old: usize| (input_negations >> perm[old]) & 1 == 1;
        let mut out = Chain {
            num_inputs: n,
            gates: Vec::with_capacity(self.gates.len()),
            outputs: Vec::with_capacity(taps.len()),
        };
        for gate in &self.gates {
            let mut tt2 = gate.tt2;
            let mut fanin = gate.fanin;
            for (slot, f) in fanin.iter_mut().enumerate() {
                if *f < n {
                    if negated(*f) {
                        tt2 = flip_operand(tt2, slot);
                    }
                    *f = perm[*f];
                }
            }
            out.add_gate(fanin[0], fanin[1], tt2)?;
        }
        for (tap, flip) in taps {
            out.outputs.push(match tap {
                OutputRef::Signal { index, negated: neg } if index < n => {
                    // Direct input taps absorb the negation of the input
                    // they now read.
                    OutputRef::Signal { index: perm[index], negated: neg ^ flip ^ negated(index) }
                }
                OutputRef::Signal { index, negated: neg } => {
                    OutputRef::Signal { index, negated: neg ^ flip }
                }
                OutputRef::Constant(v) => OutputRef::Constant(v ^ flip),
            });
        }
        Ok(out)
    }
}

/// The first entry of `perm` that keeps it from being a permutation of
/// `0..perm.len()` (out of range or repeated), or `None` when it is one.
/// Entries below 64 are checked against a bitmask, larger ones (only in
/// permutations longer than 64) by a scan, so it never allocates.
fn first_non_permutation(perm: &[usize]) -> Option<usize> {
    let mut seen = 0u64;
    for (i, &p) in perm.iter().enumerate() {
        let repeated = if p < 64 { seen >> p & 1 == 1 } else { perm[..i].contains(&p) };
        if p >= perm.len() || repeated {
            return Some(p);
        }
        if p < 64 {
            seen |= 1 << p;
        }
    }
    None
}

/// Swaps the operands of a 2-input truth table: `σ'(a, b) = σ(b, a)`.
fn swap_operands(tt2: u8) -> u8 {
    let mut out = tt2 & 0b1001; // (0,0) and (1,1) fixed
    if tt2 & 0b0010 != 0 {
        out |= 0b0100;
    }
    if tt2 & 0b0100 != 0 {
        out |= 0b0010;
    }
    out
}

/// Merges chains over a common input set into one multi-output chain,
/// structurally sharing gates.
///
/// Gates are deduplicated by `(fanin, fanin, tt2)` after normalizing the
/// operand order (the lower signal index first, swapping the LUT's
/// operands to compensate), so structurally equal gates — including
/// operand-swapped spellings — appear once in the merged chain. Outputs
/// are concatenated in argument order. The merged gate count is
/// therefore never larger than the sum of the input gate counts, and
/// strictly smaller whenever the chains share structure.
///
/// Gate order is deterministic: first use wins, scanning chains left to
/// right and gates in topological order.
///
/// # Errors
///
/// Propagates [`ChainError::DuplicateFanin`] when deduplication folds a
/// gate's two fanins together — possible only when an input chain
/// already contains structurally duplicate gates (optimum chains never
/// do).
///
/// # Panics
///
/// Panics when `chains` is empty or the chains disagree on input count.
pub fn merge_chains(chains: &[&Chain]) -> Result<Chain, ChainError> {
    assert!(!chains.is_empty(), "merge_chains needs at least one chain");
    let n = chains[0].num_inputs;
    assert!(chains.iter().all(|c| c.num_inputs == n), "merge_chains requires a common input count");
    let mut merged = Chain::new(n);
    let mut dedup: HashMap<(usize, usize, u8), usize> = HashMap::new();
    for chain in chains {
        // map[s] = signal index of chain signal `s` in the merged chain.
        let mut map: Vec<usize> = (0..n).collect();
        for gate in chain.gates() {
            let mut a = map[gate.fanin[0]];
            let mut b = map[gate.fanin[1]];
            let mut tt2 = gate.tt2;
            if a > b {
                std::mem::swap(&mut a, &mut b);
                tt2 = swap_operands(tt2);
            }
            let index = match dedup.get(&(a, b, tt2)) {
                Some(&i) => i,
                None => {
                    let i = merged.add_gate(a, b, tt2)?;
                    dedup.insert((a, b, tt2), i);
                    i
                }
            };
            map.push(index);
        }
        for tap in chain.outputs() {
            merged.add_output(match tap {
                OutputRef::Signal { index, negated } => {
                    OutputRef::Signal { index: map[*index], negated: *negated }
                }
                OutputRef::Constant(v) => OutputRef::Constant(*v),
            });
        }
    }
    Ok(merged)
}

/// Builds the zero-gate chain for constants and (complemented)
/// projections, or `None` for non-trivial functions.
///
/// Every synthesis entry path checks this before paying for NPN
/// canonicalization or a solution-store round-trip, so trivial cut
/// functions stay free on the hot rewriting path.
pub fn trivial_chain(spec: &TruthTable) -> Option<Chain> {
    let ones = spec.count_ones();
    let output = if ones == 0 || ones == spec.num_bits() {
        OutputRef::Constant(ones != 0)
    } else {
        match spec.projection()? {
            (v, false) => OutputRef::signal(v),
            (v, true) => OutputRef::negated_signal(v),
        }
    };
    let mut chain = Chain::new(spec.num_vars());
    chain.add_output(output);
    Some(chain)
}

/// Flips one operand of a 2-input truth table (`slot` 0 is the first
/// fanin): `σ'(a, b) = σ(¬a, b)` or `σ(a, ¬b)`.
fn flip_operand(tt2: u8, slot: usize) -> u8 {
    let mut out = 0u8;
    for a in 0..2u8 {
        for b in 0..2u8 {
            let (sa, sb) = if slot == 0 { (1 - a, b) } else { (a, 1 - b) };
            if (tt2 >> (sa + 2 * sb)) & 1 == 1 {
                out |= 1 << (a + 2 * b);
            }
        }
    }
    out
}

impl fmt::Display for Chain {
    /// Lists the chain in the paper's notation, e.g.
    /// `x5 = 0x6(x3, x4)` (signals are printed 1-based to match the
    /// paper).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, gate) in self.gates.iter().enumerate() {
            let idx = self.num_inputs + i + 1;
            writeln!(
                f,
                "x{idx} = 0x{:x}(x{}, x{})",
                gate.tt2,
                gate.fanin[0] + 1,
                gate.fanin[1] + 1
            )?;
        }
        for (k, out) in self.outputs.iter().enumerate() {
            match out {
                OutputRef::Signal { index, negated } => {
                    let sign = if *negated { "!" } else { "" };
                    writeln!(f, "f{} = {sign}x{}", k + 1, index + 1)?;
                }
                OutputRef::Constant(v) => writeln!(f, "f{} = {}", k + 1, *v as u8)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The parallel synthesis layer (stp-synth) moves these across
    // worker threads; keep them free of interior mutability.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn chain_types_are_send_and_sync() {
        assert_send_sync::<Chain>();
        assert_send_sync::<Gate>();
        assert_send_sync::<OutputRef>();
        assert_send_sync::<CostModel>();
        assert_send_sync::<ChainError>();
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
    fn example7_simulates_to_0x8ff8() {
        let chain = example7_chain();
        let out = chain.simulate_outputs().unwrap();
        assert_eq!(out[0], TruthTable::from_hex(4, "8ff8").unwrap());
    }

    #[test]
    fn example7_second_solution_also_works() {
        // x7 = 0x7(x5, x6), x6 = 0x7(a, b), x5 = 0x9(c, d).
        let mut chain = Chain::new(4);
        let x5 = chain.add_gate(2, 3, 0x9).unwrap();
        let x6 = chain.add_gate(0, 1, 0x7).unwrap();
        let x7 = chain.add_gate(x5, x6, 0x7).unwrap();
        chain.add_output(OutputRef::signal(x7));
        let out = chain.simulate_outputs().unwrap();
        assert_eq!(out[0], TruthTable::from_hex(4, "8ff8").unwrap());
    }

    #[test]
    fn fanin_ordering_enforced() {
        let mut chain = Chain::new(2);
        assert!(matches!(
            chain.add_gate(0, 2, 0x8),
            Err(ChainError::FaninOutOfRange { fanin: 2, available: 2 })
        ));
        assert!(matches!(chain.add_gate(1, 1, 0x8), Err(ChainError::DuplicateFanin { fanin: 1 })));
    }

    #[test]
    fn validate_catches_bad_outputs() {
        let mut chain = Chain::new(2);
        chain.add_output(OutputRef::signal(5));
        assert!(matches!(chain.validate(), Err(ChainError::OutputOutOfRange { index: 5, .. })));
    }

    #[test]
    fn negated_output_complements() {
        let mut chain = Chain::new(2);
        let g = chain.add_gate(0, 1, 0x8).unwrap();
        chain.add_output(OutputRef::negated_signal(g));
        let out = chain.simulate_outputs().unwrap();
        assert_eq!(out[0], TruthTable::from_hex(2, "7").unwrap());
    }

    #[test]
    fn constant_output() {
        let mut chain = Chain::new(3);
        chain.add_output(OutputRef::Constant(true));
        let out = chain.simulate_outputs().unwrap();
        assert_eq!(out[0], TruthTable::constant(3, true).unwrap());
    }

    #[test]
    fn projection_output_without_gates() {
        let mut chain = Chain::new(3);
        chain.add_output(OutputRef::signal(1));
        let out = chain.simulate_outputs().unwrap();
        assert_eq!(out[0], TruthTable::variable(3, 1).unwrap());
    }

    #[test]
    fn levels_and_depth() {
        let chain = example7_chain();
        let levels = chain.levels();
        assert_eq!(&levels[..4], &[0, 0, 0, 0]);
        assert_eq!(levels[4], 1); // x5
        assert_eq!(levels[5], 1); // x6
        assert_eq!(levels[6], 2); // x7
        assert_eq!(chain.depth(), 2);
    }

    #[test]
    fn cost_models() {
        let chain = example7_chain();
        assert_eq!(chain.cost(&CostModel::GateCount), 3);
        assert_eq!(chain.cost(&CostModel::Depth), 2);
        // XOR costs 3, everything else 1: x5 is the only XOR.
        let mut weights = HashMap::new();
        weights.insert(0x6u8, 3u64);
        let model = CostModel::WeightedOps { weights, default: 1 };
        assert_eq!(chain.cost(&model), 5);
    }

    #[test]
    fn gate_nontriviality() {
        assert!(Gate { fanin: [0, 1], tt2: 0x8 }.is_nontrivial());
        assert!(Gate { fanin: [0, 1], tt2: 0x6 }.is_nontrivial());
        // Projection onto the first fanin.
        assert!(!Gate { fanin: [0, 1], tt2: 0xa }.is_nontrivial());
        // Constant.
        assert!(!Gate { fanin: [0, 1], tt2: 0x0 }.is_nontrivial());
        let chain = example7_chain();
        assert!(chain.all_gates_nontrivial());
    }

    #[test]
    fn multi_output_simulation() {
        let mut chain = Chain::new(2);
        let g1 = chain.add_gate(0, 1, 0x8).unwrap();
        let g2 = chain.add_gate(0, 1, 0x6).unwrap();
        chain.add_output(OutputRef::signal(g1));
        chain.add_output(OutputRef::signal(g2));
        let out = chain.simulate_outputs().unwrap();
        assert_eq!(out[0].to_hex(), "8");
        assert_eq!(out[1].to_hex(), "6");
    }

    #[test]
    fn display_matches_paper_notation() {
        let chain = example7_chain();
        let text = format!("{chain}");
        assert!(text.contains("x5 = 0x6(x3, x4)"));
        assert!(text.contains("x6 = 0x8(x1, x2)"));
        assert!(text.contains("x7 = 0xe(x5, x6)"));
        assert!(text.contains("f1 = x7"));
    }

    #[test]
    fn gate_apply_semantics() {
        let g = Gate { fanin: [0, 1], tt2: 0xd }; // !a | b
        assert!(g.apply(false, false));
        assert!(!g.apply(true, false));
        assert!(g.apply(false, true));
        assert!(g.apply(true, true));
    }

    fn full_adder_chains() -> (Chain, Chain) {
        // sum = a ^ b ^ c: t = a^b, s = t^c.
        let mut sum = Chain::new(3);
        let t = sum.add_gate(0, 1, 0x6).unwrap();
        let s = sum.add_gate(t, 2, 0x6).unwrap();
        sum.add_output(OutputRef::signal(s));
        // carry = MAJ(a,b,c): t1 = a&b, t2 = b^a (operand-swapped on
        // purpose), t3 = t2&c, t4 = t1|t3.
        let mut carry = Chain::new(3);
        let t1 = carry.add_gate(0, 1, 0x8).unwrap();
        let t2 = carry.add_gate(1, 0, 0x6).unwrap();
        let t3 = carry.add_gate(t2, 2, 0x8).unwrap();
        let t4 = carry.add_gate(t1, t3, 0xe).unwrap();
        carry.add_output(OutputRef::signal(t4));
        (sum, carry)
    }

    #[test]
    fn merge_chains_shares_structurally_equal_gates() {
        let (sum, carry) = full_adder_chains();
        let merged = merge_chains(&[&sum, &carry]).unwrap();
        // a^b appears in both chains (operand-swapped in carry) and must
        // be shared: 2 + 4 gates merge into 5.
        assert_eq!(merged.num_gates(), 5);
        assert_eq!(merged.outputs().len(), 2);
        let got = merged.simulate_outputs().unwrap();
        let want_sum = sum.simulate_outputs().unwrap().remove(0);
        let want_carry = carry.simulate_outputs().unwrap().remove(0);
        assert_eq!(got, vec![want_sum, want_carry]);
    }

    #[test]
    fn merge_chains_is_identity_for_one_chain() {
        let chain = example7_chain();
        let merged = merge_chains(&[&chain]).unwrap();
        assert_eq!(merged.num_gates(), chain.num_gates());
        assert_eq!(merged.simulate_outputs().unwrap(), chain.simulate_outputs().unwrap());
    }

    #[test]
    fn permute_negate_outputs_matches_formula() {
        let (sum, carry) = full_adder_chains();
        let chain = merge_chains(&[&sum, &carry]).unwrap();
        let specs = chain.simulate_outputs().unwrap();
        let perm = [2usize, 0, 1];
        let negs = 0b011u32;
        let operm = [1usize, 0];
        let onegs = [true, false];
        let mapped = chain.permute_negate_outputs(&perm, negs, &operm, &onegs).unwrap();
        assert_eq!(mapped.num_gates(), chain.num_gates());
        let got = mapped.simulate_outputs().unwrap();
        // Result output o = C_j(y) ^ onegs[j] with operm[j] == o and
        // y_i = z_{perm[i]} ^ neg(perm[i]).
        for (o, result) in got.iter().enumerate() {
            let j = operm.iter().position(|&x| x == o).unwrap();
            let expected = TruthTable::from_fn(3, |z| {
                let y: Vec<bool> =
                    (0..3).map(|i| z[perm[i]] ^ ((negs >> perm[i]) & 1 == 1)).collect();
                specs[j].eval(&y) ^ onegs[j]
            })
            .unwrap();
            assert_eq!(*result, expected, "output {o}");
        }
    }

    #[test]
    fn permute_negate_outputs_rejects_bad_output_perm() {
        let (sum, carry) = full_adder_chains();
        let chain = merge_chains(&[&sum, &carry]).unwrap();
        let perm = [0usize, 1, 2];
        assert!(chain.permute_negate_outputs(&perm, 0, &[0, 0], &[false, false]).is_err());
        assert!(chain.permute_negate_outputs(&perm, 0, &[0], &[false]).is_err());
        assert!(chain.permute_negate_outputs(&perm, 0, &[0, 2], &[false, false]).is_err());
    }

    #[test]
    fn swap_operands_semantics() {
        // AND is symmetric; a AND NOT b (0x2) swaps to NOT a AND b (0x4).
        assert_eq!(super::swap_operands(0x8), 0x8);
        assert_eq!(super::swap_operands(0x2), 0x4);
        assert_eq!(super::swap_operands(super::swap_operands(0xd)), 0xd);
    }

    #[test]
    fn permute_negate_round_trip() {
        let chain = example7_chain();
        let spec = chain.simulate_outputs().unwrap()[0].clone();
        // Swap inputs 0<->2, negate input 1, negate output.
        let perm = [2usize, 1, 0, 3];
        let mapped = chain.permute_negate(&perm, 0b0010, true).unwrap();
        assert_eq!(mapped.num_gates(), chain.num_gates());
        let got = mapped.simulate_outputs().unwrap()[0].clone();
        // C'(z) = C(y) ^ 1 with y_i = z_{perm[i]} ^ neg(perm[i]).
        let expected = TruthTable::from_fn(4, |z| {
            let y: Vec<bool> =
                (0..4).map(|i| z[perm[i]] ^ ((0b0010u32 >> perm[i]) & 1 == 1)).collect();
            !spec.eval(&y)
        })
        .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn permute_negate_identity_is_noop() {
        let chain = example7_chain();
        let same = chain.permute_negate(&[0, 1, 2, 3], 0, false).unwrap();
        assert_eq!(same.simulate_outputs().unwrap()[0], chain.simulate_outputs().unwrap()[0]);
    }

    #[test]
    fn permute_negate_rejects_bad_permutations() {
        let chain = example7_chain();
        assert!(chain.permute_negate(&[0, 1, 2], 0, false).is_err());
        assert!(chain.permute_negate(&[0, 1, 2, 2], 0, false).is_err());
        assert!(chain.permute_negate(&[0, 1, 2, 9], 0, false).is_err());
    }

    #[test]
    fn permutation_check_covers_entries_past_the_bitmask() {
        let mut perm: Vec<usize> = (0..70).rev().collect();
        assert_eq!(first_non_permutation(&perm), None);
        perm[69] = 65; // repeats the entry at index 4
        assert_eq!(first_non_permutation(&perm), Some(65));
        perm[69] = 70;
        assert_eq!(first_non_permutation(&perm), Some(70));
        assert_eq!(first_non_permutation(&[1, 1]), Some(1));
    }

    #[test]
    fn flip_operand_semantics() {
        // AND with first operand flipped: σ(a,b) = ¬a & b = 0x4.
        assert_eq!(super::flip_operand(0x8, 0), 0x4);
        // AND with second operand flipped: a & ¬b = 0x2.
        assert_eq!(super::flip_operand(0x8, 1), 0x2);
        // Double flip restores.
        assert_eq!(super::flip_operand(super::flip_operand(0x6, 0), 0), 0x6);
    }

    #[test]
    fn simulate_eight_input_chain() {
        let mut chain = Chain::new(8);
        let mut prev = 0usize;
        for i in 1..8 {
            prev = chain.add_gate(prev, i, 0x6).unwrap();
        }
        chain.add_output(OutputRef::signal(prev));
        let out = chain.simulate_outputs().unwrap();
        // Parity of eight inputs.
        let parity = TruthTable::from_fn(8, |a| a.iter().fold(false, |acc, &b| acc ^ b)).unwrap();
        assert_eq!(out[0], parity);
    }
}
