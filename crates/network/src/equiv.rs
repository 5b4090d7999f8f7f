//! Combinational equivalence checking.
//!
//! Two routes, chosen by scale:
//!
//! * [`equivalent_exhaustive`] — full truth-table simulation, exact for
//!   networks of up to [`stp_tt::MAX_VARS`] inputs;
//! * [`equivalent_sat`] — the classic *miter* construction on the
//!   workspace's CDCL solver (`stp-sat`): encode both networks in CNF
//!   (Tseitin over the 2-LUT nodes), XOR corresponding outputs, OR the
//!   XORs, and ask for satisfiability — UNSAT means equivalent. Scales
//!   past the simulation limit and returns a counterexample otherwise.
//!
//! [`check_rewrite`] picks the route for a rewritten network. The
//! rewriting tests use both and cross-check them against each other.

use stp_sat::{Lit, SolveResult, Solver, Var};
use stp_tt::kernel;

use crate::error::NetworkError;
use crate::network::Network;

/// Result of a SAT equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The networks agree on every input assignment.
    Equivalent,
    /// A distinguishing input assignment (one `bool` per input).
    Counterexample(Vec<bool>),
    /// The conflict budget ran out before an answer was reached.
    Unknown,
}

/// Exhaustive equivalence check by full simulation, 64 input
/// assignments at a time, so memory stays one word per signal.
///
/// # Errors
///
/// Returns [`NetworkError::TooManyInputsForSimulation`] past the
/// truth-table limit.
pub fn equivalent_exhaustive(a: &Network, b: &Network) -> Result<bool, NetworkError> {
    if a.num_inputs() != b.num_inputs() || a.outputs().len() != b.outputs().len() {
        return Ok(false);
    }
    let n = a.num_inputs();
    if n > stp_tt::MAX_VARS {
        return Err(NetworkError::TooManyInputsForSimulation { inputs: n });
    }
    let used = kernel::low_mask(1 << n);
    let mut patterns = vec![0; n];
    for word in 0..kernel::words_len(n) {
        for (var, p) in patterns.iter_mut().enumerate() {
            *p = kernel::var_word(var, word);
        }
        let (x, y) = (a.simulate_patterns(&patterns), b.simulate_patterns(&patterns));
        if x.iter().zip(&y).any(|(x, y)| (x ^ y) & used != 0) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Encodes a network into the solver with Tseitin clauses per 2-LUT
/// node; returns one literal per output.
fn encode(net: &Network, solver: &mut Solver, input_vars: &[Var]) -> Vec<Lit> {
    let mut lit_of: Vec<Option<Lit>> = vec![None; net.num_signals()];
    // Constant false: a fresh variable pinned to 0 (only allocated when
    // actually referenced).
    let mut const_lit: Option<Lit> = None;
    for i in 0..net.num_inputs() {
        lit_of[1 + i] = Some(input_vars[i].pos());
    }
    let num_inputs = net.num_inputs();
    for (g, gate) in net.gates().iter().enumerate() {
        let idx = 1 + num_inputs + g;
        let mut fanin_lit = |solver: &mut Solver, s: usize| -> Lit {
            if s == 0 {
                *const_lit.get_or_insert_with(|| {
                    let v = solver.new_var();
                    solver.add_clause(&[v.neg()]);
                    v.pos()
                })
            } else {
                lit_of[s].expect("fanins precede gates")
            }
        };
        let a = fanin_lit(solver, gate.fanin[0]);
        let b = fanin_lit(solver, gate.fanin[1]);
        let y = solver.new_var().pos();
        // For each fanin value pair, force y to the LUT output.
        for (av, bv) in [(false, false), (true, false), (false, true), (true, true)] {
            let out = (gate.tt2 >> ((av as u8) + 2 * (bv as u8))) & 1 == 1;
            let la = if av { !a } else { a };
            let lb = if bv { !b } else { b };
            let ly = if out { y } else { !y };
            solver.add_clause(&[la, lb, ly]);
        }
        lit_of[idx] = Some(y);
    }
    net.outputs()
        .iter()
        .map(|sig| {
            let base = if sig.index() == 0 {
                *const_lit.get_or_insert_with(|| {
                    let v = solver.new_var();
                    solver.add_clause(&[v.neg()]);
                    v.pos()
                })
            } else {
                lit_of[sig.index()].expect("outputs reference defined signals")
            };
            if sig.is_negated() {
                !base
            } else {
                base
            }
        })
        .collect()
}

/// Miter-based SAT equivalence check.
///
/// `conflict_budget` bounds the solving effort (`None` = unbounded).
///
/// # Errors
///
/// Returns [`NetworkError::SignalOutOfRange`] when the interfaces
/// (input/output counts) disagree — shape mismatches are programming
/// errors rather than counterexamples here.
pub fn equivalent_sat(
    a: &Network,
    b: &Network,
    conflict_budget: Option<u64>,
) -> Result<EquivResult, NetworkError> {
    if a.num_inputs() != b.num_inputs() || a.outputs().len() != b.outputs().len() {
        return Err(NetworkError::SignalOutOfRange {
            signal: b.num_inputs(),
            available: a.num_inputs(),
        });
    }
    let mut solver = Solver::new();
    let inputs: Vec<Var> = (0..a.num_inputs()).map(|_| solver.new_var()).collect();
    let outs_a = encode(a, &mut solver, &inputs);
    let outs_b = encode(b, &mut solver, &inputs);
    // XOR each output pair into a fresh variable.
    let mut diffs = Vec::with_capacity(outs_a.len());
    for (&la, &lb) in outs_a.iter().zip(&outs_b) {
        let d = solver.new_var().pos();
        // d ↔ (la ⊕ lb)
        solver.add_clause(&[!d, la, lb]);
        solver.add_clause(&[!d, !la, !lb]);
        solver.add_clause(&[d, !la, lb]);
        solver.add_clause(&[d, la, !lb]);
        diffs.push(d);
    }
    // Some output must differ.
    solver.add_clause(&diffs);
    solver.set_conflict_budget(conflict_budget);
    Ok(match solver.solve() {
        SolveResult::Unsat => EquivResult::Equivalent,
        SolveResult::Unknown => EquivResult::Unknown,
        SolveResult::Sat => {
            let model = solver.model();
            EquivResult::Counterexample(inputs.iter().map(|v| model[v.index()]).collect())
        }
    })
}

/// Checks a rewritten network against its input, choosing the route by
/// scale: exhaustive simulation up to [`stp_tt::MAX_VARS`] inputs, a SAT
/// miter under `conflict_budget` (`None` = unbounded) past it. Returns
/// whether the two agree — a counterexample and a spent budget both
/// answer `false` — and how it was checked (`"exhaustively"` or
/// `"by SAT"`).
///
/// # Errors
///
/// Propagates the SAT route's interface-mismatch error.
pub fn check_rewrite(
    input: &Network,
    output: &Network,
    conflict_budget: Option<u64>,
) -> Result<(bool, &'static str), NetworkError> {
    if input.num_inputs() <= stp_tt::MAX_VARS {
        equivalent_exhaustive(input, output).map(|same| (same, "exhaustively"))
    } else {
        let verdict = equivalent_sat(input, output, conflict_budget)?;
        Ok((verdict == EquivResult::Equivalent, "by SAT"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Sig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn xor_two_ways() -> (Network, Network) {
        let mut direct = Network::new(2);
        let g = direct.xor(direct.input(0), direct.input(1)).unwrap();
        direct.add_output(g);
        let mut sop = Network::new(2);
        let (a, b) = (sop.input(0), sop.input(1));
        let t1 = sop.and(a, b.not()).unwrap();
        let t2 = sop.and(a.not(), b).unwrap();
        let f = sop.or(t1, t2).unwrap();
        sop.add_output(f);
        (direct, sop)
    }

    #[test]
    fn equivalent_realizations_detected() {
        let (a, b) = xor_two_ways();
        assert!(equivalent_exhaustive(&a, &b).unwrap());
        assert_eq!(equivalent_sat(&a, &b, None).unwrap(), EquivResult::Equivalent);
    }

    #[test]
    fn counterexample_produced_for_inequivalent_networks() {
        let mut a = Network::new(2);
        let g = a.xor(a.input(0), a.input(1)).unwrap();
        a.add_output(g);
        let mut b = Network::new(2);
        let g = b.or(b.input(0), b.input(1)).unwrap();
        b.add_output(g);
        assert!(!equivalent_exhaustive(&a, &b).unwrap());
        match equivalent_sat(&a, &b, None).unwrap() {
            EquivResult::Counterexample(cex) => {
                // XOR and OR differ exactly at (1, 1).
                assert_eq!(cex, vec![true, true]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn negated_and_constant_outputs() {
        let mut a = Network::new(1);
        a.add_output(Sig::TRUE);
        a.add_output(a.input(0).not());
        let mut b = Network::new(1);
        let inv = b.add_gate(b.input(0), Sig::TRUE, 0x6).unwrap(); // a XOR 1
        b.add_output(Sig::FALSE.not());
        b.add_output(inv);
        assert_eq!(equivalent_sat(&a, &b, None).unwrap(), EquivResult::Equivalent);
    }

    #[test]
    fn sat_and_exhaustive_agree_on_random_pairs() {
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = crate::circuits::random_network(4, 8, 2, &mut rng).unwrap();
            let b = crate::circuits::random_network(4, 8, 2, &mut rng).unwrap();
            let exact = equivalent_exhaustive(&a, &b).unwrap();
            let sat = equivalent_sat(&a, &b, None).unwrap();
            match (exact, &sat) {
                (true, EquivResult::Equivalent) => {}
                (false, EquivResult::Counterexample(cex)) => {
                    // The counterexample must actually distinguish them.
                    let mut m = 0usize;
                    for (i, &v) in cex.iter().enumerate() {
                        if v {
                            m |= 1 << i;
                        }
                    }
                    let oa = a.simulate_outputs().unwrap();
                    let ob = b.simulate_outputs().unwrap();
                    assert!(
                        oa.iter().zip(&ob).any(|(x, y)| x.bit(m) != y.bit(m)),
                        "seed {seed}: counterexample does not distinguish"
                    );
                }
                (e, s) => panic!("seed {seed}: exhaustive={e}, sat={s:?}"),
            }
        }
    }

    #[test]
    fn rewriting_verified_by_sat_miter() {
        let net = crate::circuits::ripple_carry_adder_sop(2).unwrap();
        let cache = crate::rewrite::SynthesisCache::new();
        let result =
            crate::rewrite::rewrite(&net, &crate::rewrite::RewriteConfig::default(), &cache)
                .unwrap();
        assert_eq!(equivalent_sat(&net, &result.network, None).unwrap(), EquivResult::Equivalent);
    }

    #[test]
    fn check_rewrite_picks_the_route_by_input_count() {
        let (direct, sop) = xor_two_ways();
        assert_eq!(check_rewrite(&direct, &sop, None).unwrap(), (true, "exhaustively"));
        let mut or = Network::new(2);
        let g = or.or(or.input(0), or.input(1)).unwrap();
        or.add_output(g);
        assert_eq!(check_rewrite(&direct, &or, None).unwrap(), (false, "exhaustively"));

        // Past the truth-table width: the parity of 17 inputs, folded
        // left to right and right to left, then with one OR swapped in.
        let n = stp_tt::MAX_VARS + 1;
        let parity = |reverse: bool, or_last: bool| {
            let mut net = Network::new(n);
            let mut order: Vec<usize> = (0..n).collect();
            if reverse {
                order.reverse();
            }
            let mut acc = net.input(order[0]);
            for (i, &v) in order.iter().enumerate().skip(1) {
                let x = net.input(v);
                acc = if or_last && i == n - 1 { net.or(acc, x) } else { net.xor(acc, x) }.unwrap();
            }
            net.add_output(acc);
            net
        };
        let input = parity(false, false);
        assert_eq!(check_rewrite(&input, &parity(true, false), None).unwrap(), (true, "by SAT"));
        assert_eq!(check_rewrite(&input, &parity(true, true), None).unwrap(), (false, "by SAT"));
        // A spent conflict budget answers `false`, never `true`.
        assert!(!check_rewrite(&input, &parity(true, true), Some(0)).unwrap().0);
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = Network::new(2);
        let b = Network::new(3);
        assert!(equivalent_sat(&a, &b, None).is_err());
    }
}
