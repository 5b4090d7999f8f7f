//! Multi-output logic networks of 2-input LUT nodes.
//!
//! The network model matches the chains the STP engine synthesizes —
//! every node is an arbitrary 2-input LUT — extended with what a
//! rewriting substrate needs: complemented edges, structural hashing,
//! and on-the-fly simplification. Signal 0 is the constant false
//! (Knuth's `x_0 = 0`), signals `1..=n` are the primary inputs, and
//! gates follow in topological order.
//!
//! Complements live on edges ([`Sig`]) and are absorbed into LUT
//! functions at gate creation, so structurally-hashed nodes also share
//! complementary functions (each stored node is *normal*: its LUT
//! outputs 0 on the all-false fanin pair).

use std::collections::HashMap;
use std::fmt;

use stp_chain::{Chain, OutputRef};
use stp_tt::{kernel, TruthTable};

use crate::error::NetworkError;

/// A signal edge: a node index with a complement flag, packed like a
/// SAT literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sig(u32);

impl Sig {
    /// The constant-false signal.
    pub const FALSE: Sig = Sig(0);
    /// The constant-true signal.
    pub const TRUE: Sig = Sig(1);

    /// Builds a signal from a node index and complement flag.
    pub fn new(index: usize, negated: bool) -> Sig {
        Sig(((index as u32) << 1) | (negated as u32))
    }

    /// The underlying node index.
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the edge is complemented.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented edge.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Sig {
        Sig(self.0 ^ 1)
    }
}

impl fmt::Display for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "!s{}", self.index())
        } else {
            write!(f, "s{}", self.index())
        }
    }
}

/// A 2-input LUT node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetNode {
    /// Fanin node indices (always positive edges; complements are
    /// absorbed into `tt2`).
    pub fanin: [usize; 2],
    /// The node's LUT (bit `a + 2b`), kept *normal* (`bit 0 == 0`).
    pub tt2: u8,
}

/// A multi-output network of 2-input LUTs.
#[derive(Debug, Clone)]
pub struct Network {
    num_inputs: usize,
    /// Gate nodes; node index `i` in signals is `1 + num_inputs + i`.
    gates: Vec<NetNode>,
    outputs: Vec<Sig>,
    strash: HashMap<(usize, usize, u8), usize>,
}

/// Flips one operand of a 2-input truth table.
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

/// Swaps the operands of a 2-input truth table.
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

impl Network {
    /// Creates a network with `num_inputs` primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        Network { num_inputs, gates: Vec::new(), outputs: Vec::new(), strash: HashMap::new() }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The positive edge of primary input `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics when `i >= num_inputs`.
    pub fn input(&self, i: usize) -> Sig {
        assert!(i < self.num_inputs, "input {i} out of range");
        Sig::new(1 + i, false)
    }

    /// Total number of node slots (constant + inputs + gates).
    pub fn num_signals(&self) -> usize {
        1 + self.num_inputs + self.gates.len()
    }

    /// The gate nodes (their signal index is `1 + num_inputs + i`).
    pub fn gates(&self) -> &[NetNode] {
        &self.gates
    }

    /// The output edges.
    pub fn outputs(&self) -> &[Sig] {
        &self.outputs
    }

    /// Registers an output.
    pub fn add_output(&mut self, sig: Sig) {
        self.outputs.push(sig);
    }

    /// `true` when `index` names a gate node (not the constant or an
    /// input).
    pub fn is_gate(&self, index: usize) -> bool {
        index > self.num_inputs && index < self.num_signals()
    }

    /// The gate stored at signal `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is not a gate.
    pub fn gate(&self, index: usize) -> NetNode {
        assert!(self.is_gate(index), "signal {index} is not a gate");
        self.gates[index - 1 - self.num_inputs]
    }

    /// Adds (or reuses) a gate computing `tt2` over two signal edges,
    /// simplifying constants, projections, and repeated fanins, and
    /// structurally hashing the normalized node.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::SignalOutOfRange`] when an edge
    /// references a signal that does not exist.
    pub fn add_gate(&mut self, a: Sig, b: Sig, tt2: u8) -> Result<Sig, NetworkError> {
        for s in [a, b] {
            if s.index() >= self.num_signals() {
                return Err(NetworkError::SignalOutOfRange {
                    signal: s.index(),
                    available: self.num_signals(),
                });
            }
        }
        let mut tt2 = tt2 & 0xf;
        // Absorb edge complements into the LUT.
        if a.is_negated() {
            tt2 = flip_operand(tt2, 0);
        }
        if b.is_negated() {
            tt2 = flip_operand(tt2, 1);
        }
        let (mut ia, mut ib) = (a.index(), b.index());
        // Constant fanins restrict the LUT.
        if ia == 0 {
            // First operand is constant false: σ(0, b).
            let bit0 = tt2 & 1 != 0;
            let bit2 = tt2 & 0b0100 != 0;
            return self.unary(ib, bit0, bit2);
        }
        if ib == 0 {
            let bit0 = tt2 & 1 != 0;
            let bit1 = tt2 & 0b0010 != 0;
            return self.unary(ia, bit0, bit1);
        }
        if ia == ib {
            // σ(a, a): diagonal.
            let low = tt2 & 1 != 0;
            let high = tt2 & 0b1000 != 0;
            return self.unary(ia, low, high);
        }
        // Canonical operand order.
        if ia > ib {
            std::mem::swap(&mut ia, &mut ib);
            tt2 = swap_operands(tt2);
        }
        // LUT-level simplification.
        match tt2 {
            0x0 => return Ok(Sig::FALSE),
            0xf => return Ok(Sig::TRUE),
            0xa => return Ok(Sig::new(ia, false)),
            0x5 => return Ok(Sig::new(ia, true)),
            0xc => return Ok(Sig::new(ib, false)),
            0x3 => return Ok(Sig::new(ib, true)),
            _ => {}
        }
        // Normalize output phase so strashing shares complements.
        let negated = tt2 & 1 != 0;
        if negated {
            tt2 ^= 0xf;
        }
        let key = (ia, ib, tt2);
        let index = match self.strash.get(&key) {
            Some(&node) => node,
            None => {
                let index = self.num_signals();
                self.gates.push(NetNode { fanin: [ia, ib], tt2 });
                self.strash.insert(key, index);
                index
            }
        };
        Ok(Sig::new(index, negated))
    }

    /// Emits the unary function `f(x)` with `f(0) = low`, `f(1) = high`.
    fn unary(&mut self, index: usize, low: bool, high: bool) -> Result<Sig, NetworkError> {
        Ok(match (low, high) {
            (false, false) => Sig::FALSE,
            (true, true) => Sig::TRUE,
            (false, true) => Sig::new(index, false),
            (true, false) => Sig::new(index, true),
        })
    }

    /// Convenience: AND of two edges.
    pub fn and(&mut self, a: Sig, b: Sig) -> Result<Sig, NetworkError> {
        self.add_gate(a, b, 0x8)
    }

    /// Convenience: OR of two edges.
    pub fn or(&mut self, a: Sig, b: Sig) -> Result<Sig, NetworkError> {
        self.add_gate(a, b, 0xe)
    }

    /// Convenience: XOR of two edges.
    pub fn xor(&mut self, a: Sig, b: Sig) -> Result<Sig, NetworkError> {
        self.add_gate(a, b, 0x6)
    }

    /// Convenience: 2:1 multiplexer `sel ? t : e`.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`] from gate creation.
    pub fn mux(&mut self, sel: Sig, t: Sig, e: Sig) -> Result<Sig, NetworkError> {
        let a = self.and(sel, t)?;
        let b = self.and(sel.not(), e)?;
        self.or(a, b)
    }

    /// Splices a [`Chain`] into the network, mapping chain input `i` to
    /// `inputs[i]`; returns one edge per chain output, in declaration
    /// order. Shared internal nodes of a multi-output chain splice once
    /// (and structural hashing merges them with pre-existing logic).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::SignalOutOfRange`] on bad input edges or
    /// [`NetworkError::Chain`] if the chain is malformed.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len()` differs from the chain's input count.
    pub fn add_chain_outputs(
        &mut self,
        chain: &Chain,
        inputs: &[Sig],
    ) -> Result<Vec<Sig>, NetworkError> {
        assert_eq!(inputs.len(), chain.num_inputs(), "one edge per chain input");
        chain.validate()?;
        let mut map: Vec<Sig> = inputs.to_vec();
        for gate in chain.gates() {
            let a = map[gate.fanin[0]];
            let b = map[gate.fanin[1]];
            let sig = self.add_gate(a, b, gate.tt2)?;
            map.push(sig);
        }
        Ok(chain
            .outputs()
            .iter()
            .map(|out| match out {
                OutputRef::Signal { index, negated } => {
                    let s = map[*index];
                    if *negated {
                        s.not()
                    } else {
                        s
                    }
                }
                OutputRef::Constant(v) => {
                    if *v {
                        Sig::TRUE
                    } else {
                        Sig::FALSE
                    }
                }
            })
            .collect())
    }

    /// Splices a [`Chain`] and returns the edge of its first output
    /// (the single-output convenience over [`Network::add_chain_outputs`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::add_chain_outputs`].
    ///
    /// # Panics
    ///
    /// Additionally panics when the chain has no outputs.
    pub fn add_chain(&mut self, chain: &Chain, inputs: &[Sig]) -> Result<Sig, NetworkError> {
        let outputs = self.add_chain_outputs(chain, inputs)?;
        Ok(*outputs.first().expect("chain has an output"))
    }

    /// Number of gate nodes reachable from the outputs (dead nodes are
    /// not counted).
    pub fn live_gate_count(&self) -> usize {
        let mut live = vec![false; self.num_signals()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|s| s.index()).collect();
        let mut count = 0usize;
        while let Some(idx) = stack.pop() {
            if live[idx] || !self.is_gate(idx) {
                if !self.is_gate(idx) {
                    live[idx] = true;
                }
                continue;
            }
            live[idx] = true;
            count += 1;
            for f in self.gate(idx).fanin {
                if !live[f] {
                    stack.push(f);
                }
            }
        }
        count
    }

    /// Fanout reference counts per signal index (outputs count as one
    /// reference each).
    pub fn reference_counts(&self) -> Vec<usize> {
        let mut refs = vec![0usize; self.num_signals()];
        for gate in &self.gates {
            for f in gate.fanin {
                refs[f] += 1;
            }
        }
        for out in &self.outputs {
            refs[out.index()] += 1;
        }
        refs
    }

    /// Per-signal logic levels (constant and inputs are level 0).
    pub fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.num_signals()];
        for (i, gate) in self.gates.iter().enumerate() {
            let idx = 1 + self.num_inputs + i;
            levels[idx] = 1 + gate.fanin.iter().map(|&f| levels[f]).max().unwrap_or(0);
        }
        levels
    }

    /// Network depth: maximum output level.
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.outputs.iter().map(|s| levels[s.index()]).max().unwrap_or(0)
    }

    /// Simulates every signal exhaustively (inputs ≤
    /// [`stp_tt::MAX_VARS`]), returning one table per signal index.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::TooManyInputsForSimulation`] when the
    /// input count exceeds the truth-table substrate.
    pub fn simulate(&self) -> Result<Vec<TruthTable>, NetworkError> {
        if self.num_inputs > stp_tt::MAX_VARS {
            return Err(NetworkError::TooManyInputsForSimulation { inputs: self.num_inputs });
        }
        let mut signals = Vec::with_capacity(self.num_signals());
        signals.push(TruthTable::constant(self.num_inputs, false)?);
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

    /// Simulates the output functions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::simulate`].
    pub fn simulate_outputs(&self) -> Result<Vec<TruthTable>, NetworkError> {
        let signals = self.simulate()?;
        Ok(self
            .outputs
            .iter()
            .map(|s| {
                let tt = signals[s.index()].clone();
                if s.is_negated() {
                    !tt
                } else {
                    tt
                }
            })
            .collect())
    }

    /// Simulates the network on explicit input patterns: one 64-bit
    /// word per input, bit `k` of each word forming pattern `k`.
    /// Returns one word per output. Works for any input count — the
    /// random-simulation workhorse for networks too wide for
    /// [`Network::simulate`].
    ///
    /// # Panics
    ///
    /// Panics when `patterns.len()` differs from the input count.
    pub fn simulate_patterns(&self, patterns: &[u64]) -> Vec<u64> {
        assert_eq!(patterns.len(), self.num_inputs, "one word per input");
        let mut values = Vec::with_capacity(self.num_signals());
        values.push(0u64);
        values.extend_from_slice(patterns);
        for gate in &self.gates {
            values.push(kernel::lut2(gate.tt2, values[gate.fanin[0]], values[gate.fanin[1]]));
        }
        self.outputs
            .iter()
            .map(|s| {
                let v = values[s.index()];
                if s.is_negated() {
                    !v
                } else {
                    v
                }
            })
            .collect()
    }

    /// Renders the network as a Graphviz DOT digraph.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{\n  rankdir=BT;");
        let _ = writeln!(out, "  s0 [shape=box, label=\"0\"];");
        for i in 0..self.num_inputs {
            let _ = writeln!(out, "  s{} [shape=box, label=\"x{}\"];", i + 1, i + 1);
        }
        for (i, gate) in self.gates.iter().enumerate() {
            let idx = 1 + self.num_inputs + i;
            let _ = writeln!(out, "  s{idx} [label=\"0x{:x}\"];", gate.tt2);
            for f in gate.fanin {
                let _ = writeln!(out, "  s{f} -> s{idx};");
            }
        }
        for (k, sig) in self.outputs.iter().enumerate() {
            let style = if sig.is_negated() { " [style=dashed]" } else { "" };
            let _ = writeln!(out, "  o{k} [shape=doublecircle, label=\"f{}\"];", k + 1);
            let _ = writeln!(out, "  s{} -> o{k}{style};", sig.index());
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_inputs() {
        let mut net = Network::new(2);
        assert_eq!(net.num_signals(), 3);
        let tts = net.simulate().unwrap();
        assert_eq!(tts[0], TruthTable::constant(2, false).unwrap());
        assert_eq!(tts[1], TruthTable::variable(2, 0).unwrap());
        net.add_output(Sig::TRUE);
        assert_eq!(net.simulate_outputs().unwrap()[0], TruthTable::constant(2, true).unwrap());
    }

    #[test]
    fn gate_simplifications() {
        let mut net = Network::new(2);
        let (a, b) = (net.input(0), net.input(1));
        // Projections collapse to wires.
        assert_eq!(net.add_gate(a, b, 0xa).unwrap(), a);
        assert_eq!(net.add_gate(a, b, 0x5).unwrap(), a.not());
        assert_eq!(net.add_gate(a, b, 0xc).unwrap(), b);
        // Constants collapse.
        assert_eq!(net.add_gate(a, b, 0x0).unwrap(), Sig::FALSE);
        assert_eq!(net.add_gate(a, b, 0xf).unwrap(), Sig::TRUE);
        // Diagonal: σ(a, a) = XOR(a, a) = 0.
        assert_eq!(net.add_gate(a, a, 0x6).unwrap(), Sig::FALSE);
        assert_eq!(net.add_gate(a, a, 0x8).unwrap(), a);
        // Constant fanin: AND(0, b) = 0, OR(0, b) = b.
        assert_eq!(net.add_gate(Sig::FALSE, b, 0x8).unwrap(), Sig::FALSE);
        assert_eq!(net.add_gate(Sig::FALSE, b, 0xe).unwrap(), b);
        // No gates were created by any of this.
        assert_eq!(net.gates().len(), 0);
    }

    #[test]
    fn strashing_shares_structure_and_complements() {
        let mut net = Network::new(2);
        let (a, b) = (net.input(0), net.input(1));
        let g1 = net.and(a, b).unwrap();
        let g2 = net.and(a, b).unwrap();
        assert_eq!(g1, g2);
        // NAND shares the node with complement on the edge.
        let g3 = net.add_gate(a, b, 0x7).unwrap();
        assert_eq!(g3, g1.not());
        // Operand order does not matter.
        let g4 = net.and(b, a).unwrap();
        assert_eq!(g4, g1);
        assert_eq!(net.gates().len(), 1);
    }

    #[test]
    fn complemented_edges_absorbed() {
        let mut net = Network::new(2);
        let (a, b) = (net.input(0), net.input(1));
        // AND(!a, b) == 0x4 applied to (a, b).
        let g1 = net.and(a.not(), b).unwrap();
        let g2 = net.add_gate(a, b, 0x4).unwrap();
        assert_eq!(g1, g2);
        net.add_output(g1);
        let tt = net.simulate_outputs().unwrap()[0].clone();
        assert_eq!(tt, TruthTable::from_fn(2, |x| !x[0] & x[1]).unwrap());
    }

    #[test]
    fn mux_semantics() {
        let mut net = Network::new(3);
        let (s, t, e) = (net.input(0), net.input(1), net.input(2));
        let m = net.mux(s, t, e).unwrap();
        net.add_output(m);
        let tt = net.simulate_outputs().unwrap()[0].clone();
        assert_eq!(tt, TruthTable::from_fn(3, |x| if x[0] { x[1] } else { x[2] }).unwrap());
    }

    #[test]
    fn add_chain_splices_example7() {
        let mut chain = Chain::new(4);
        let x5 = chain.add_gate(2, 3, 0x6).unwrap();
        let x6 = chain.add_gate(0, 1, 0x8).unwrap();
        let x7 = chain.add_gate(x5, x6, 0xe).unwrap();
        chain.add_output(OutputRef::signal(x7));
        let mut net = Network::new(4);
        let inputs: Vec<Sig> = (0..4).map(|i| net.input(i)).collect();
        let out = net.add_chain(&chain, &inputs).unwrap();
        net.add_output(out);
        assert_eq!(net.simulate_outputs().unwrap()[0], TruthTable::from_hex(4, "8ff8").unwrap());
        assert_eq!(net.live_gate_count(), 3);
    }

    #[test]
    fn add_chain_outputs_splices_shared_nodes_once() {
        // Full-adder chain: sum and carry share the a⊕b node.
        let mut chain = Chain::new(3);
        let x1 = chain.add_gate(0, 1, 0x6).unwrap();
        let s = chain.add_gate(x1, 2, 0x6).unwrap();
        let t = chain.add_gate(x1, 2, 0x8).unwrap();
        let u = chain.add_gate(0, 1, 0x8).unwrap();
        let m = chain.add_gate(t, u, 0xe).unwrap();
        chain.add_output(OutputRef::signal(s));
        chain.add_output(OutputRef::negated_signal(m));
        let mut net = Network::new(3);
        let inputs: Vec<Sig> = (0..3).map(|i| net.input(i)).collect();
        let outs = net.add_chain_outputs(&chain, &inputs).unwrap();
        assert_eq!(outs.len(), 2);
        for o in &outs {
            net.add_output(*o);
        }
        let tts = net.simulate_outputs().unwrap();
        assert_eq!(tts[0], TruthTable::from_fn(3, |x| x[0] ^ x[1] ^ x[2]).unwrap());
        assert_eq!(
            tts[1],
            !TruthTable::from_fn(3, |x| (x[0] as u8 + x[1] as u8 + x[2] as u8) >= 2).unwrap()
        );
        assert_eq!(net.live_gate_count(), 5, "the shared a⊕b node splices once");
        // add_chain returns the first of the same outputs.
        let first = net.add_chain(&chain, &inputs).unwrap();
        assert_eq!(first, outs[0]);
    }

    #[test]
    fn live_gate_count_ignores_dead_logic() {
        let mut net = Network::new(2);
        let (a, b) = (net.input(0), net.input(1));
        let live = net.and(a, b).unwrap();
        let _dead = net.xor(a, b).unwrap();
        net.add_output(live);
        assert_eq!(net.gates().len(), 2);
        assert_eq!(net.live_gate_count(), 1);
    }

    #[test]
    fn levels_and_depth() {
        let mut net = Network::new(3);
        let (a, b, c) = (net.input(0), net.input(1), net.input(2));
        let g1 = net.and(a, b).unwrap();
        let g2 = net.or(g1, c).unwrap();
        net.add_output(g2);
        assert_eq!(net.depth(), 2);
    }

    #[test]
    fn out_of_range_signal_rejected() {
        let mut net = Network::new(1);
        let bogus = Sig::new(99, false);
        assert!(matches!(
            net.add_gate(bogus, net.input(0), 0x8),
            Err(NetworkError::SignalOutOfRange { .. })
        ));
    }

    #[test]
    fn dot_output_mentions_everything() {
        let mut net = Network::new(2);
        let g = net.and(net.input(0), net.input(1)).unwrap();
        net.add_output(g.not());
        let dot = net.to_dot("t");
        assert!(dot.contains("digraph t"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn pattern_simulation_matches_exhaustive() {
        let mut net = Network::new(3);
        let (a, b, c) = (net.input(0), net.input(1), net.input(2));
        let g1 = net.xor(a, b).unwrap();
        let g2 = net.and(g1, c.not()).unwrap();
        net.add_output(g2);
        net.add_output(g2.not());
        let tts = net.simulate_outputs().unwrap();
        // Pack the 8 minterms into pattern words.
        let mut patterns = [0u64; 3];
        for m in 0..8usize {
            for (i, p) in patterns.iter_mut().enumerate() {
                if (m >> i) & 1 == 1 {
                    *p |= 1 << m;
                }
            }
        }
        let words = net.simulate_patterns(&patterns);
        for (out, tt) in words.iter().zip(&tts) {
            for m in 0..8usize {
                assert_eq!((out >> m) & 1 == 1, tt.bit(m), "minterm {m}");
            }
        }
    }

    #[test]
    fn swap_and_flip_helpers() {
        assert_eq!(swap_operands(0x2), 0x4);
        assert_eq!(swap_operands(0x6), 0x6);
        assert_eq!(flip_operand(0x8, 0), 0x4);
        assert_eq!(flip_operand(0x8, 1), 0x2);
    }
}
