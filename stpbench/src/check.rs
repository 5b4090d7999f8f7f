//! Answer checks and fingerprints.
//!
//! Every answer the benchmark receives is checked against its spec:
//! chains must simulate to it, and gate counts must not exceed the
//! reference (`expected/npn4.tsv` for 4-input classes, the analytic DSD
//! bound for DSD suites).

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use stp_chain::{Chain, OutputRef};
use stp_fence::TreeShape;
use stp_tt::{DsdNode, TruthTable};

/// The recorded NPN4 reference: one line per class representative with
/// its gate count and solution count, as `synthesize` returned them when
/// the benchmark was defined.
const NPN4_TSV: &str = include_str!("../expected/npn4.tsv");

/// Reference gate and solution count of one NPN4 class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorded {
    /// Optimum gate count.
    pub gates: usize,
    /// Number of optimum chains returned.
    pub solutions: usize,
}

/// The NPN4 reference keyed by representative hex table.
///
/// # Panics
///
/// Panics when the embedded file is malformed (a broken build input, not
/// a runtime condition).
pub fn npn4_reference() -> HashMap<String, Recorded> {
    NPN4_TSV
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            let [hex, gates, solutions] = fields[..] else {
                panic!("expected/npn4.tsv: bad line `{line}`");
            };
            let parse = |s: &str| s.parse::<usize>().expect("expected/npn4.tsv: numeric field");
            (hex.to_string(), Recorded { gates: parse(gates), solutions: parse(solutions) })
        })
        .collect()
}

/// What an answer's gate count must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A recorded class: more gates fails, and at equal gates the
    /// solution count must match.
    Recorded(Recorded),
    /// A fully DSD-decomposable function on `support` variables. Its DSD
    /// tree has `support − 1` gates; when the tree's fence survives the
    /// paper's pruning the engine must find exactly that, otherwise the
    /// tree is outside the searched topology family and one more gate is
    /// tolerated.
    Dsd {
        /// Support size.
        support: usize,
        /// Whether the generating tree's fence survives pruning.
        in_family: bool,
    },
    /// At most this many gates; solution counts are not compared.
    AtMost(usize),
    /// Only the chains' function is checked.
    Function,
}

impl Expect {
    /// The expectation of a fully DSD-decomposable function given by its
    /// gate tree.
    pub fn dsd(tree: &DsdNode, support: usize) -> Expect {
        let in_family = tree_shape(tree).fence().is_some_and(|f| f.is_pruned_valid());
        Expect::Dsd { support, in_family }
    }
}

/// The unlabelled shape of a DSD gate tree.
fn tree_shape(tree: &DsdNode) -> TreeShape {
    match tree {
        DsdNode::Gate(_, a, b) => TreeShape::node(tree_shape(a), tree_shape(b)),
        DsdNode::Leaf(_) | DsdNode::Prime(..) => TreeShape::Leaf,
    }
}

/// Checks that `chains` is a non-empty set of single-output chains of
/// `gates` gates realizing `spec`.
///
/// # Errors
///
/// A message naming the spec and the first violation.
pub fn check_chains(spec: &TruthTable, chains: &[Chain], gates: usize) -> Result<(), String> {
    let hex = spec.to_hex();
    if chains.is_empty() {
        return Err(format!("{hex}: no chains returned"));
    }
    for chain in chains {
        check_chain(spec, chain)?;
        if chain.num_gates() != gates {
            return Err(format!("{hex}: a chain has {} gates, not {gates}", chain.num_gates()));
        }
    }
    Ok(())
}

/// Checks that one chain realizes `spec` under `Chain::simulate_outputs`.
///
/// # Errors
///
/// A message naming the spec.
pub fn check_chain(spec: &TruthTable, chain: &Chain) -> Result<(), String> {
    match chain.simulate_outputs() {
        Ok(outputs) if outputs.len() == 1 && outputs[0] == *spec => Ok(()),
        Ok(_) => Err(format!("{}: a chain computes another function", spec.to_hex())),
        Err(e) => Err(format!("{}: a chain does not simulate: {e}", spec.to_hex())),
    }
}

/// Checks an answer's gate and solution counts against `expect`.
///
/// # Errors
///
/// A message naming the spec, the answer, and the reference.
pub fn check_counts(
    spec: &TruthTable,
    expect: Expect,
    gates: usize,
    solutions: usize,
) -> Result<(), String> {
    let hex = spec.to_hex();
    match expect {
        Expect::Recorded(r) if gates > r.gates => {
            Err(format!("{hex}: {gates} gates, recorded optimum {}", r.gates))
        }
        Expect::Recorded(r) if gates == r.gates && solutions != r.solutions => Err(format!(
            "{hex}: {solutions} optimum chains at {gates} gates, recorded {}",
            r.solutions
        )),
        Expect::AtMost(limit) if gates > limit => {
            Err(format!("{hex}: {gates} gates, recorded optimum {limit}"))
        }
        Expect::Dsd { support, in_family } => {
            let optimum = support.saturating_sub(1);
            let allowed = if in_family { optimum } else { optimum + 1 };
            if gates < optimum || gates > allowed {
                Err(format!("{hex}: {gates} gates, DSD optimum {optimum} (allowed {allowed})"))
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

/// Rebuilds a chain over `num_inputs` inputs from its text form, the
/// `Display` output of `Chain` that `stpd` returns: `x5 = 0x6(x3, x4)`
/// per gate and `f1 = !x7` (or `f1 = 0`) per output, signals 1-based.
///
/// # Errors
///
/// A message naming the first line that does not parse or build.
pub fn parse_chain(num_inputs: usize, text: &str) -> Result<Chain, String> {
    let mut chain = Chain::new(num_inputs);
    let signal = |s: &str| {
        s.trim()
            .strip_prefix('x')
            .and_then(|i| i.parse::<usize>().ok())
            .and_then(|i| i.checked_sub(1))
            .ok_or_else(|| format!("bad signal `{s}`"))
    };
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let (lhs, rhs) = line.split_once(" = ").ok_or_else(|| format!("bad line `{line}`"))?;
        if lhs.starts_with('x') {
            let (op, args) = rhs
                .strip_prefix("0x")
                .and_then(|r| r.strip_suffix(')'))
                .and_then(|r| r.split_once('('))
                .ok_or_else(|| format!("bad gate `{line}`"))?;
            let tt2 = u8::from_str_radix(op, 16).map_err(|e| format!("bad gate `{line}`: {e}"))?;
            let (a, b) = args.split_once(',').ok_or_else(|| format!("bad gate `{line}`"))?;
            chain.add_gate(signal(a)?, signal(b)?, tt2).map_err(|e| format!("`{line}`: {e}"))?;
        } else {
            let output = match rhs {
                "0" => OutputRef::Constant(false),
                "1" => OutputRef::Constant(true),
                negated if negated.starts_with('!') => {
                    OutputRef::negated_signal(signal(&negated[1..])?)
                }
                plain => OutputRef::signal(signal(plain)?),
            };
            chain.add_output(output);
        }
    }
    Ok(chain)
}

/// An order-sensitive fingerprint of a chain list, for checking that two
/// passes returned byte-identical chains without keeping them.
pub fn fingerprint(chains: &[Chain]) -> u64 {
    let mut h = DefaultHasher::new();
    chains.len().hash(&mut h);
    for chain in chains {
        chain.num_inputs().hash(&mut h);
        chain.gates().hash(&mut h);
        chain.outputs().hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_covers_every_npn4_class() {
        let reference = npn4_reference();
        assert_eq!(reference.len(), 222);
        for class in stp_tt::npn_classes(4) {
            assert!(reference.contains_key(&class.to_hex()), "{}", class.to_hex());
        }
    }

    #[test]
    fn counts_are_checked_against_the_reference() {
        let spec = TruthTable::from_hex(4, "8ff8").expect("valid");
        let r = Expect::Recorded(Recorded { gates: 3, solutions: 4 });
        assert!(check_counts(&spec, r, 3, 4).is_ok());
        assert!(check_counts(&spec, r, 2, 9).is_ok(), "fewer gates is an improvement");
        assert!(check_counts(&spec, r, 4, 4).is_err());
        assert!(check_counts(&spec, r, 3, 5).is_err());
        let dsd = Expect::Dsd { support: 4, in_family: true };
        assert!(check_counts(&spec, dsd, 3, 1).is_ok());
        assert!(check_counts(&spec, dsd, 4, 1).is_err());
        let outside = Expect::Dsd { support: 4, in_family: false };
        assert!(check_counts(&spec, outside, 4, 1).is_ok());
        assert!(check_counts(&spec, outside, 5, 1).is_err());
        assert!(check_counts(&spec, Expect::AtMost(3), 3, 1).is_ok());
        assert!(check_counts(&spec, Expect::AtMost(3), 4, 1).is_err());
    }

    #[test]
    fn a_wrong_chain_is_caught() {
        let spec = TruthTable::from_hex(2, "8").expect("valid");
        let mut chain = Chain::new(2);
        let g = chain.add_gate(0, 1, 0x6).expect("valid gate");
        chain.add_output(stp_chain::OutputRef::signal(g));
        assert!(check_chains(&spec, &[chain.clone()], 1).is_err());
        let xor = TruthTable::from_hex(2, "6").expect("valid");
        assert!(check_chains(&xor, &[chain], 1).is_ok());
    }

    #[test]
    fn chain_text_round_trips() {
        let spec = TruthTable::from_hex(4, "8ff8").expect("valid");
        let config = stp_synth::SynthesisConfig { jobs: 1, ..Default::default() };
        for chain in stp_synth::synthesize(&spec, &config).expect("synthesizes").chains {
            assert_eq!(parse_chain(4, &chain.to_string()), Ok(chain));
        }
        let constant = parse_chain(3, "f1 = 1\n").expect("constant output");
        assert_eq!(constant.outputs(), &[OutputRef::Constant(true)]);
        assert!(parse_chain(2, "x3 = 0x6(x1, x9)").is_err(), "fanin out of range");
        assert!(parse_chain(2, "garbage").is_err());
    }
}
