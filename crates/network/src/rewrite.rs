//! DAG-aware rewriting with exact synthesis.
//!
//! The paper's introduction motivates fast exact synthesis through this
//! application (its ref. [2], DATE'19): enumerate small cuts, ask exact
//! synthesis for the optimum implementation of each cut function, and
//! replace the cut's cone when that saves gates. The expensive step is
//! the synthesis call, which is why it is cached per NPN class — and
//! why an engine that is fast on the DSD-shaped functions dominating
//! real cut distributions (the paper's headline) matters.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stp_chain::Chain;
use stp_store::{NpnOutcome, RepOutcome, Store};
use stp_synth::{
    synthesize, synthesize_multi, GateCountObjective, MultiSpec, NpnAnswer, SynthesisConfig,
    SynthesisError,
};
use stp_tt::TruthTable;

use crate::cuts::{enumerate_cuts, Cut, CutEvaluator, CutSet};
use crate::error::NetworkError;
use crate::network::{Network, Sig};

/// Configuration for [`rewrite`].
#[derive(Debug, Clone)]
pub struct RewriteConfig {
    /// Cut size (leaves per cut); 4 matches the paper's NPN4 world.
    pub cut_size: usize,
    /// Cuts kept per node during enumeration.
    pub cut_limit: usize,
    /// Per-synthesis-call time budget.
    pub synthesis_budget: Duration,
    /// Maximum rewriting passes.
    pub max_passes: usize,
    /// Worker threads per exact-synthesis call (`0` = one per CPU,
    /// `1` = sequential; see [`stp_synth::SynthesisConfig::jobs`]).
    /// Defaults to the `STP_JOBS` environment variable (or `1`).
    pub jobs: usize,
    /// Rewrite whole multi-root cut cones in one shared synthesis call:
    /// roots sharing an identical leaf set are synthesized jointly
    /// (`stp_synth::synthesize_multi` through the store's multi-output
    /// keyspace) and spliced as one chain with shared internal nodes. A
    /// joint replacement is taken only when it saves strictly more
    /// gates than the best per-root replacements combined.
    pub multi_output: bool,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            cut_size: 4,
            cut_limit: 8,
            synthesis_budget: Duration::from_secs(2),
            max_passes: 4,
            jobs: stp_synth::jobs_from_env(),
            multi_output: true,
        }
    }
}

/// Cap on the roots jointly rewritten per shared cut cone: the shared
/// merge enumerates cross products of per-output optima, so the cost of
/// a joint call grows quickly with the output count.
const MAX_GROUP_OUTPUTS: usize = 3;

/// A cache of optimum chains per NPN class representative, shared
/// across rewriting calls (and typically across networks and threads).
///
/// Since the store refactor this is a thin, clonable handle over an
/// [`stp_store::Store`]: the canonicalize → lookup-or-synthesize
/// pipeline lives in [`Store::solve_npn`], shared with
/// `stp_synth::synthesize_npn`, and a cut maps back only the one chain
/// it splices ([`stp_store::NpnView::first`]). Wrap a warmed, disk-loaded store with
/// [`SynthesisCache::with_store`] and rewriting answers every NPN4 cut
/// without a single synthesis call.
#[derive(Debug, Clone, Default)]
pub struct SynthesisCache {
    store: Arc<Store>,
}

impl SynthesisCache {
    /// Creates a cache over a fresh private store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing (possibly disk-loaded, possibly shared)
    /// solution store.
    pub fn with_store(store: Arc<Store>) -> Self {
        SynthesisCache { store }
    }

    /// The underlying solution store, e.g. for persisting after a run.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Cache hits so far (lookups answered from a stored entry).
    pub fn hits(&self) -> u64 {
        self.store.hits()
    }

    /// Cache misses (synthesis calls) so far.
    pub fn misses(&self) -> u64 {
        self.store.misses()
    }

    /// Returns an optimum chain for `spec` (through its NPN
    /// representative), synthesizing and caching on first sight.
    /// Constants and (complemented) projections are answered by the
    /// store's trivial fast path without paying NPN canonicalization.
    ///
    /// A synthesis failure (timeout or gate limit) under `budget` is
    /// recorded as exhausted at that budget and returns `Ok(None)`; a
    /// later call offering a strictly larger budget retries. Only the
    /// first stored chain is mapped back, and a stored chain that fails
    /// its check against `spec` is refused the same way (`Ok(None)`,
    /// counted in `store.mapback_rejects`), so the cut stays as it is.
    ///
    /// # Errors
    ///
    /// Propagates non-budget synthesis failures.
    pub fn optimum_chain(
        &self,
        spec: &TruthTable,
        budget: Duration,
        jobs: usize,
    ) -> Result<Option<Chain>, NetworkError> {
        Ok(self
            .lookup(std::slice::from_ref(spec), budget, jobs)?
            .and_then(|answer| answer.first().ok()))
    }

    /// Returns one shared chain realizing every spec (through the
    /// multi-output NPN class tuple), synthesizing and caching on first
    /// sight — the multi-output analogue of
    /// [`SynthesisCache::optimum_chain`]. The chain's outputs follow
    /// `specs` order and its internal gates are shared across outputs.
    ///
    /// A synthesis failure (timeout or gate limit) under `budget` is
    /// recorded as exhausted at that budget and returns `Ok(None)`, as
    /// does a stored chain refused by its map-back check.
    ///
    /// # Errors
    ///
    /// Propagates chain-merging and non-budget synthesis failures.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty.
    pub fn optimum_shared_chain(
        &self,
        specs: &[TruthTable],
        budget: Duration,
        jobs: usize,
    ) -> Result<Option<Chain>, NetworkError> {
        Ok(self.lookup(specs, budget, jobs)?.and_then(|answer| answer.first().ok()))
    }

    /// The one lookup path: resolves `specs` (one spec, or an output
    /// vector sharing its inputs) through the store, synthesizing on a
    /// miss — a single spec with one optimum chain, an output vector
    /// with one shared chain — and answers without mapping anything.
    /// `Ok(None)` when synthesis gave up under `budget`.
    fn lookup(
        &self,
        specs: &[TruthTable],
        budget: Duration,
        jobs: usize,
    ) -> Result<Option<NpnAnswer>, NetworkError> {
        let mut synthesized = false;
        let outcome = self.store.solve_npn_multi(specs, budget, |reps| {
            synthesized = true;
            stp_telemetry::counter!("network.synth_cache_misses").inc();
            let deadline = Some(Instant::now() + budget);
            let solved = if let [rep] = reps {
                let config = SynthesisConfig {
                    deadline,
                    max_solutions: 1,
                    jobs,
                    ..SynthesisConfig::default()
                };
                synthesize(rep, &config).map(|r| r.chains)
            } else {
                let config = SynthesisConfig { deadline, jobs, ..SynthesisConfig::default() };
                let multi = MultiSpec::new(reps.to_vec()).map_err(NetworkError::from)?;
                synthesize_multi(&multi, &GateCountObjective, &config).map(|r| vec![r.chain])
            };
            match solved {
                Ok(chains) => Ok(RepOutcome::Solved(chains)),
                Err(SynthesisError::Timeout | SynthesisError::GateLimitExceeded { .. }) => {
                    Ok(RepOutcome::Exhausted)
                }
                Err(e) => Err(NetworkError::from(e)),
            }
        })?;
        if !synthesized {
            stp_telemetry::counter!("network.synth_cache_hits").inc();
        }
        match outcome {
            NpnOutcome::Trivial(chain) => Ok(Some(NpnAnswer::Trivial(chain))),
            NpnOutcome::Solved(view) => Ok(Some(NpnAnswer::Class(view))),
            NpnOutcome::Exhausted { .. } | NpnOutcome::WaitTimeout => Ok(None),
            NpnOutcome::Poisoned { message } => {
                Err(NetworkError::from(SynthesisError::JobPanicked { message }))
            }
        }
    }
}

/// Builds a multi-output network realizing every specification with
/// exact-synthesis optima, sharing structure through strashing and the
/// NPN cache (§II-B of the paper defines multi-output chains; the STP
/// engine synthesizes single outputs, so a collection is assembled by
/// splicing per-output optima into one structurally-hashed network).
///
/// Specifications exceeding the per-call budget fall back to a Shannon
/// decomposition on their highest support variable.
///
/// `jobs` configures the worker threads of each synthesis call (`0` =
/// one per CPU, `1` = sequential), exactly like
/// [`RewriteConfig::jobs`]; pass [`stp_synth::jobs_from_env()`] to keep
/// the old environment-driven behavior.
///
/// # Errors
///
/// Propagates construction and synthesis failures.
///
/// # Panics
///
/// Panics when `specs` is empty or the arities disagree.
pub fn exact_network(
    specs: &[TruthTable],
    cache: &SynthesisCache,
    budget: Duration,
    jobs: usize,
) -> Result<Network, NetworkError> {
    assert!(!specs.is_empty(), "need at least one output");
    let n = specs[0].num_vars();
    assert!(specs.iter().all(|s| s.num_vars() == n), "all outputs share one input space");
    let mut net = Network::new(n);
    let inputs: Vec<Sig> = (0..n).map(|i| net.input(i)).collect();
    for spec in specs {
        let sig = build_function(&mut net, &inputs, spec, cache, budget, jobs)?;
        net.add_output(sig);
    }
    Ok(net)
}

fn build_function(
    net: &mut Network,
    inputs: &[Sig],
    spec: &TruthTable,
    cache: &SynthesisCache,
    budget: Duration,
    jobs: usize,
) -> Result<Sig, NetworkError> {
    // Trivial cases first.
    let ones = spec.count_ones();
    if ones == 0 {
        return Ok(Sig::FALSE);
    }
    if ones == spec.num_bits() {
        return Ok(Sig::TRUE);
    }
    let support = spec.support();
    if support.len() == 1 {
        let v = support[0];
        let proj = TruthTable::variable(spec.num_vars(), v)?;
        return Ok(if *spec == proj { inputs[v] } else { inputs[v].not() });
    }
    if let Some(chain) = cache.optimum_chain(spec, budget, jobs)? {
        return net.add_chain(&chain, inputs);
    }
    // Budget exceeded: Shannon-decompose on the last support variable
    // and recurse (each cofactor has strictly smaller support).
    let v = *support.last().expect("non-trivial support");
    let hi = build_function(net, inputs, &spec.cofactor(v, true), cache, budget, jobs)?;
    let lo = build_function(net, inputs, &spec.cofactor(v, false), cache, budget, jobs)?;
    net.mux(inputs[v], hi, lo)
}

/// One applied replacement, for reporting.
#[derive(Debug, Clone)]
pub struct Replacement {
    /// The primary replaced root signal (in the *old* network's
    /// numbering); for a multi-output replacement, the smallest root.
    pub root: usize,
    /// Every replaced root, ascending — more than one exactly when a
    /// shared cut cone was rewritten in one joint synthesis call.
    pub roots: Vec<usize>,
    /// Leaves of the chosen cut.
    pub leaves: Vec<usize>,
    /// Estimated gates saved.
    pub gain: usize,
}

/// Result of a rewriting run.
#[derive(Debug)]
pub struct RewriteResult {
    /// The rewritten network.
    pub network: Network,
    /// Gate count before.
    pub gates_before: usize,
    /// Gate count after.
    pub gates_after: usize,
    /// Replacements applied per pass.
    pub replacements: Vec<Replacement>,
    /// Number of passes executed.
    pub passes: usize,
}

/// Maximum fanout-free cone (MFFC) sizes over one network. The counter
/// keeps one working copy of the reference counts and one dead-flag per
/// signal; a query dereferences into them and then restores only the
/// entries it touched, so it costs its cone, not the network.
struct MffcCounter {
    /// The network's reference counts (equal to
    /// [`Network::reference_counts`] between queries).
    refs: Vec<usize>,
    dead: Vec<bool>,
    /// Every count a query decremented, once per decrement.
    decremented: Vec<usize>,
    /// Every signal a query marked dead.
    killed: Vec<usize>,
}

impl MffcCounter {
    fn new(net: &Network) -> Self {
        MffcCounter {
            refs: net.reference_counts(),
            dead: vec![false; net.num_signals()],
            decremented: Vec::new(),
            killed: Vec::new(),
        }
    }

    /// Joint MFFC of `roots` above one shared cut: the gates that die
    /// if *all* roots are re-sourced from new logic over the cut leaves.
    /// Shared interior gates are counted once; a root inside another
    /// root's cone is counted once too.
    fn size(&mut self, net: &Network, roots: &[usize], cut: &Cut) -> usize {
        for &root in roots {
            self.deref(net, root, cut);
        }
        let count = self.killed.len();
        for f in self.decremented.drain(..) {
            self.refs[f] += 1;
        }
        for s in self.killed.drain(..) {
            self.dead[s] = false;
        }
        count
    }

    fn deref(&mut self, net: &Network, s: usize, cut: &Cut) {
        if cut.contains(s) || !net.is_gate(s) || self.dead[s] {
            return;
        }
        self.dead[s] = true;
        self.killed.push(s);
        for f in net.gate(s).fanin {
            self.refs[f] -= 1;
            self.decremented.push(f);
            if self.refs[f] == 0 {
                self.deref(net, f, cut);
            }
        }
    }
}

/// Rewrites the network: for every gate, tries to replace some 4-cut
/// cone with the exact-synthesis optimum, greedily applying
/// non-overlapping positive-gain replacements until a pass yields no
/// improvement (or [`RewriteConfig::max_passes`] is hit).
///
/// The rewritten network computes the same output functions (checked by
/// the test-suite via exhaustive simulation).
///
/// # Errors
///
/// Propagates construction and synthesis errors; per-cut synthesis
/// timeouts simply skip the cut. A [`RewriteConfig::cut_size`] past
/// [`stp_tt::MAX_VARS`] is refused up front with
/// [`NetworkError::TooManyInputsForSimulation`]: no cut function that
/// wide can be evaluated.
pub fn rewrite(
    net: &Network,
    config: &RewriteConfig,
    cache: &SynthesisCache,
) -> Result<RewriteResult, NetworkError> {
    if config.cut_size > stp_tt::MAX_VARS {
        return Err(NetworkError::TooManyInputsForSimulation { inputs: config.cut_size });
    }
    let gates_before = net.live_gate_count();
    let mut current = net.clone();
    let mut all_replacements = Vec::new();
    let mut passes = 0usize;
    for _ in 0..config.max_passes {
        passes += 1;
        let (next, replacements) = rewrite_pass(&current, config, cache)?;
        let improved = next.live_gate_count() < current.live_gate_count();
        all_replacements.extend(replacements);
        current = next;
        if !improved {
            break;
        }
    }
    let gates_after = current.live_gate_count();
    stp_telemetry::counter!("network.rewrite_replacements").add(all_replacements.len() as u64);
    stp_telemetry::debug!(
        "rewrite: {gates_before} -> {gates_after} gates over {passes} passes ({} replacements)",
        all_replacements.len()
    );
    Ok(RewriteResult {
        network: current,
        gates_before,
        gates_after,
        replacements: all_replacements,
        passes,
    })
}

/// One joint cut cone: roots sharing one leaf set, and their cut
/// functions in root order.
struct JointGroup {
    cut: Cut,
    /// Ascending, at most [`MAX_GROUP_OUTPUTS`].
    roots: Vec<usize>,
    specs: Vec<TruthTable>,
}

/// The joint cut cones of one pass: output-driving gates sharing an
/// identical leaf set, ordered by leaves then roots. Groups whose
/// functions are all trivial are dropped.
///
/// Joint candidates are restricted to output roots: interior nodes
/// already compete through the per-cone path, and admitting them here
/// would fold a cone's own sub-cones into its group, diluting the joint
/// gain.
fn joint_groups(
    net: &Network,
    cuts: &CutSet,
    refs: &[usize],
    evaluator: &mut CutEvaluator,
) -> Result<Vec<JointGroup>, NetworkError> {
    let mut output_roots: Vec<usize> =
        net.outputs().iter().map(|s| s.index()).filter(|&s| net.is_gate(s)).collect();
    output_roots.sort_unstable();
    output_roots.dedup();
    let mut by_leaves: HashMap<Cut, Vec<usize>> = HashMap::new();
    for &s in &output_roots {
        if refs[s] == 0 {
            continue;
        }
        for cut in cuts.of(s) {
            if cut.len() < 2 {
                continue;
            }
            let roots = by_leaves.entry(*cut).or_default();
            if !roots.contains(&s) {
                roots.push(s);
            }
        }
    }
    // HashMap order is not deterministic; the transcript contract is.
    let mut groups: Vec<(Cut, Vec<usize>)> =
        by_leaves.into_iter().filter(|(_, roots)| roots.len() >= 2).collect();
    groups.sort_by(|(a, _), (b, _)| a.leaves().cmp(b.leaves()));
    let mut out = Vec::with_capacity(groups.len());
    for (cut, mut roots) in groups {
        roots.sort_unstable();
        roots.truncate(MAX_GROUP_OUTPUTS);
        let specs = roots
            .iter()
            .map(|&root| evaluator.eval(net, root, &cut))
            .collect::<Result<Vec<_>, _>>()?;
        if !specs.iter().all(TruthTable::is_trivial) {
            out.push(JointGroup { cut, roots, specs });
        }
    }
    Ok(out)
}

fn rewrite_pass(
    net: &Network,
    config: &RewriteConfig,
    cache: &SynthesisCache,
) -> Result<(Network, Vec<Replacement>), NetworkError> {
    let _pass = stp_telemetry::span!("rewrite.pass");
    // Enumerate the cuts and evaluate every cut function the pass asks
    // the cache about, in query order: (root, cut index, function) per
    // non-trivial single-root cut, then the joint groups.
    let (mut mffc, cuts, functions, groups) = {
        let _enum = stp_telemetry::span!("rewrite.cut_enum");
        let mffc = MffcCounter::new(net);
        let cuts = enumerate_cuts(net, config.cut_size, config.cut_limit);
        let mut evaluator = CutEvaluator::new();
        let mut functions = Vec::new();
        for (s, &r) in mffc.refs.iter().enumerate() {
            if !net.is_gate(s) || r == 0 {
                continue;
            }
            for (i, cut) in cuts.of(s).iter().enumerate() {
                if cut.len() < 2 {
                    continue;
                }
                let f = evaluator.eval(net, s, cut)?;
                if !f.is_trivial() {
                    functions.push((s, i, f));
                }
            }
        }
        let groups = if config.multi_output {
            joint_groups(net, &cuts, &mffc.refs, &mut evaluator)?
        } else {
            Vec::new()
        };
        (mffc, cuts, functions, groups)
    };

    // Collect candidate replacements. A candidate replaces one or more
    // roots over one cut: single-root candidates come from the classic
    // per-cone synthesis, multi-root ones from a joint synthesis of
    // every root sharing the cut's leaf set. An answer is mapped back
    // only once it saves gates, so a losing cut costs its lookup and its
    // MFFC query, never a map-back.
    struct Candidate {
        /// Ascending; one root for the classic per-cone replacement.
        roots: Vec<usize>,
        cut: Cut,
        chain: Chain,
        gain: usize,
    }
    let candidates_span = stp_telemetry::span!("rewrite.candidates");
    let mut candidates: Vec<Candidate> = Vec::new();
    for (s, i, f) in &functions {
        let Some(answer) =
            cache.lookup(std::slice::from_ref(f), config.synthesis_budget, config.jobs)?
        else {
            continue;
        };
        let cut = cuts.of(*s)[*i];
        let old_cost = mffc.size(net, &[*s], &cut);
        let new_cost = answer.gates();
        if new_cost >= old_cost {
            continue;
        }
        let Ok(chain) = answer.first() else { continue };
        candidates.push(Candidate { roots: vec![*s], cut, chain, gain: old_cost - new_cost });
    }
    if !groups.is_empty() {
        // Best single-root gain per root: a joint replacement must beat
        // the per-root replacements it displaces combined.
        let mut single_gain: HashMap<usize, usize> = HashMap::new();
        for cand in &candidates {
            let best = single_gain.entry(cand.roots[0]).or_insert(0);
            *best = (*best).max(cand.gain);
        }
        for JointGroup { cut, roots, specs } in groups {
            let Some(answer) = cache.lookup(&specs, config.synthesis_budget, config.jobs)? else {
                continue;
            };
            let old_cost = mffc.size(net, &roots, &cut);
            let new_cost = answer.gates();
            if new_cost >= old_cost {
                continue;
            }
            let gain = old_cost - new_cost;
            let displaced: usize =
                roots.iter().map(|r| single_gain.get(r).copied().unwrap_or(0)).sum();
            if gain <= displaced {
                continue;
            }
            let Ok(chain) = answer.first() else { continue };
            stp_telemetry::counter!("network.mo_rewrites").inc();
            candidates.push(Candidate { roots, cut, chain, gain });
        }
    }
    drop(candidates_span);

    // Greedy: best gains first; skip candidates whose cone overlaps an
    // already-replaced one.
    let select_span = stp_telemetry::span!("rewrite.select");
    candidates.sort_by(|a, b| b.gain.cmp(&a.gain).then(a.roots.cmp(&b.roots)));
    // root -> (candidate index, output position within its chain).
    let mut replaced: HashMap<usize, (usize, usize)> = HashMap::new();
    let mut claimed = vec![false; net.num_signals()];
    let mut report = Vec::new();
    let mut cone = Vec::new();
    let mut stack = Vec::new();
    for (ci, cand) in candidates.iter().enumerate() {
        // The cone between the roots and the leaves must be unclaimed.
        cone.clear();
        stack.clear();
        stack.extend_from_slice(&cand.roots);
        let mut ok = true;
        while let Some(x) = stack.pop() {
            if cand.cut.contains(x) || !net.is_gate(x) {
                continue;
            }
            if claimed[x] {
                ok = false;
                break;
            }
            if cone.contains(&x) {
                continue;
            }
            cone.push(x);
            stack.extend(net.gate(x).fanin);
        }
        if !ok || cand.roots.iter().any(|r| replaced.contains_key(r)) {
            continue;
        }
        for &x in &cone {
            claimed[x] = true;
        }
        for (position, &root) in cand.roots.iter().enumerate() {
            replaced.insert(root, (ci, position));
        }
        report.push(Replacement {
            root: cand.roots[0],
            roots: cand.roots.clone(),
            leaves: cand.cut.leaves().iter().map(|&l| l as usize).collect(),
            gain: cand.gain,
        });
    }
    drop(select_span);

    // Rebuild the network, splicing replacements. A multi-root
    // candidate splices its shared chain once — when the first of its
    // roots is reached — and maps every root to its output edge.
    let _apply = stp_telemetry::span!("rewrite.apply");
    let mut out = Network::new(net.num_inputs());
    let mut map: Vec<Option<Sig>> = vec![None; net.num_signals()];
    map[0] = Some(Sig::FALSE);
    for i in 0..net.num_inputs() {
        map[1 + i] = Some(out.input(i));
    }
    fn copy(
        net: &Network,
        s: usize,
        out: &mut Network,
        map: &mut Vec<Option<Sig>>,
        candidates: &[Candidate],
        replaced: &HashMap<usize, (usize, usize)>,
    ) -> Result<Sig, NetworkError> {
        if let Some(sig) = map[s] {
            return Ok(sig);
        }
        let sig = if let Some(&(ci, position)) = replaced.get(&s) {
            let cand = &candidates[ci];
            let mut leaf_sigs = Vec::with_capacity(cand.cut.len());
            for &leaf in cand.cut.leaves() {
                leaf_sigs.push(copy(net, leaf as usize, out, map, candidates, replaced)?);
            }
            let outputs = out.add_chain_outputs(&cand.chain, &leaf_sigs)?;
            for (j, &root) in cand.roots.iter().enumerate() {
                map[root] = Some(outputs[j]);
            }
            outputs[position]
        } else {
            let gate = net.gate(s);
            let a = copy(net, gate.fanin[0], out, map, candidates, replaced)?;
            let b = copy(net, gate.fanin[1], out, map, candidates, replaced)?;
            out.add_gate(a, b, gate.tt2)?
        };
        map[s] = Some(sig);
        Ok(sig)
    }
    for output in net.outputs() {
        let sig = copy(net, output.index(), &mut out, &mut map, &candidates, &replaced)?;
        out.add_output(if output.is_negated() { sig.not() } else { sig });
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::random_network;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn exact_network_realizes_all_outputs() {
        // Full adder: sum and carry over (a, b, cin).
        let sum = TruthTable::from_fn(3, |x| x[0] ^ x[1] ^ x[2]).unwrap();
        let carry =
            TruthTable::from_fn(3, |x| (x[0] as u8 + x[1] as u8 + x[2] as u8) >= 2).unwrap();
        let cache = SynthesisCache::new();
        let net = exact_network(&[sum.clone(), carry.clone()], &cache, Duration::from_secs(30), 1)
            .unwrap();
        let outs = net.simulate_outputs().unwrap();
        assert_eq!(outs[0], sum);
        assert_eq!(outs[1], carry);
    }

    #[test]
    fn exact_network_handles_trivial_outputs() {
        let specs = vec![
            TruthTable::constant(2, true).unwrap(),
            TruthTable::constant(2, false).unwrap(),
            TruthTable::variable(2, 1).unwrap(),
            !TruthTable::variable(2, 0).unwrap(),
        ];
        let cache = SynthesisCache::new();
        let net = exact_network(&specs, &cache, Duration::from_secs(5), 1).unwrap();
        let outs = net.simulate_outputs().unwrap();
        assert_eq!(outs, specs);
        assert_eq!(net.live_gate_count(), 0);
    }

    #[test]
    fn exact_network_falls_back_under_zero_budget() {
        // With no budget every non-trivial spec goes through the
        // Shannon fallback — the result must still be correct.
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let cache = SynthesisCache::new();
        let net = exact_network(std::slice::from_ref(&spec), &cache, Duration::ZERO, 1).unwrap();
        assert_eq!(net.simulate_outputs().unwrap()[0], spec);
    }

    /// A deliberately wasteful XOR: (a & !b) | (!a & b) costs 3 gates.
    fn wasteful_xor() -> Network {
        let mut net = Network::new(2);
        let (a, b) = (net.input(0), net.input(1));
        let t1 = net.and(a, b.not()).unwrap();
        let t2 = net.and(a.not(), b).unwrap();
        let f = net.or(t1, t2).unwrap();
        net.add_output(f);
        net
    }

    #[test]
    fn rewrites_wasteful_xor_to_one_gate() {
        let net = wasteful_xor();
        assert_eq!(net.live_gate_count(), 3);
        let before = net.simulate_outputs().unwrap();
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(result.gates_after, 1, "XOR is a single 2-LUT");
        assert_eq!(result.network.simulate_outputs().unwrap(), before);
        assert!(!result.replacements.is_empty());
    }

    #[test]
    fn preserves_functionality_on_shared_logic() {
        // Shared subexpression feeding two outputs.
        let mut net = Network::new(4);
        let (a, b, c, d) = (net.input(0), net.input(1), net.input(2), net.input(3));
        let ab = net.and(a, b).unwrap();
        let nab = net.add_gate(a, b, 0x7).unwrap(); // NAND shares the node
        let f1 = net.or(ab, c).unwrap();
        let f2 = net.and(nab, d).unwrap();
        net.add_output(f1);
        net.add_output(f2.not());
        let before = net.simulate_outputs().unwrap();
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(result.network.simulate_outputs().unwrap(), before);
        assert!(result.gates_after <= result.gates_before);
    }

    #[test]
    fn cache_is_reused_across_calls() {
        let cache = SynthesisCache::new();
        let net = wasteful_xor();
        let _ = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        let misses_first = cache.misses();
        let _ = rewrite(&wasteful_xor(), &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(cache.misses(), misses_first, "second run must be fully cached");
        assert!(cache.hits() > 0);
    }

    #[test]
    fn timeout_is_retried_with_a_larger_budget() {
        let cache = SynthesisCache::new();
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        // Zero budget: recorded as exhausted, not as a permanent failure.
        assert!(cache.optimum_chain(&spec, Duration::ZERO, 1).unwrap().is_none());
        let misses = cache.misses();
        // Same budget again: answered from the exhaustion record.
        assert!(cache.optimum_chain(&spec, Duration::ZERO, 1).unwrap().is_none());
        assert_eq!(cache.misses(), misses, "equal budget must not re-attempt");
        // Strictly larger budget: retried and solved.
        let chain =
            cache.optimum_chain(&spec, Duration::from_secs(30), 1).unwrap().expect("solvable");
        assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn trivial_specs_skip_the_store() {
        let cache = SynthesisCache::new();
        let proj = !TruthTable::variable(4, 2).unwrap();
        let chain = cache.optimum_chain(&proj, Duration::ZERO, 1).unwrap().expect("trivial");
        assert_eq!(chain.num_gates(), 0);
        assert_eq!(chain.simulate_outputs().unwrap()[0], proj);
        assert_eq!(cache.misses(), 0, "no canonicalization, no store round-trip");
        assert_eq!(cache.store().trivial_hits(), 1);
        assert!(cache.store().is_empty());
    }

    #[test]
    fn caches_share_one_store() {
        let store = Arc::new(Store::new());
        let first = SynthesisCache::with_store(Arc::clone(&store));
        let second = SynthesisCache::with_store(Arc::clone(&store));
        let _ = rewrite(&wasteful_xor(), &RewriteConfig::default(), &first).unwrap();
        let misses = store.misses();
        assert!(misses > 0);
        let _ = rewrite(&wasteful_xor(), &RewriteConfig::default(), &second).unwrap();
        assert_eq!(store.misses(), misses, "second cache must reuse the shared store");
    }

    #[test]
    fn mffc_respects_external_fanout() {
        // ab feeds both the candidate cone and an external output: it
        // must not be counted in the cone's MFFC.
        let mut net = Network::new(3);
        let (a, b, c) = (net.input(0), net.input(1), net.input(2));
        let ab = net.and(a, b).unwrap();
        let f = net.or(ab, c).unwrap();
        net.add_output(f);
        net.add_output(ab);
        let cut = Cut::from_leaves(&[1, 2, 3]);
        assert_eq!(MffcCounter::new(&net).size(&net, &[f.index()], &cut), 1);
        // Without the external output the whole cone dies.
        let mut net2 = Network::new(3);
        let (a, b, c) = (net2.input(0), net2.input(1), net2.input(2));
        let ab2 = net2.and(a, b).unwrap();
        let f2 = net2.or(ab2, c).unwrap();
        net2.add_output(f2);
        assert_eq!(MffcCounter::new(&net2).size(&net2, &[f2.index()], &cut), 2);
    }

    /// The MFFC count as first written: a fresh copy of the reference
    /// counts and a fresh dead-set per query.
    fn cloned_mffc_size(net: &Network, roots: &[usize], cut: &Cut) -> usize {
        fn deref(net: &Network, s: usize, cut: &Cut, refs: &mut [usize], dead: &mut [bool]) {
            if cut.leaves().contains(&(s as u32)) || !net.is_gate(s) || dead[s] {
                return;
            }
            dead[s] = true;
            for f in net.gate(s).fanin {
                refs[f] -= 1;
                if refs[f] == 0 {
                    deref(net, f, cut, refs, dead);
                }
            }
        }
        let mut refs = net.reference_counts();
        let mut dead = vec![false; net.num_signals()];
        for &root in roots {
            deref(net, root, cut, &mut refs, &mut dead);
        }
        dead.iter().filter(|&&d| d).count()
    }

    #[test]
    fn mffc_counter_matches_cloned_reference_counts() {
        // One counter answers every query of a network in turn, so a
        // query that failed to restore its entries would skew the next.
        let mut rng = SmallRng::seed_from_u64(0x3ffc);
        let mut queries = 0usize;
        for _ in 0..20 {
            let net = random_network(6, 40, 3, &mut rng).unwrap();
            let cuts = enumerate_cuts(&net, 4, 8);
            let gates: Vec<usize> = (0..net.num_signals()).filter(|&s| net.is_gate(s)).collect();
            let mut counter = MffcCounter::new(&net);
            for &root in &gates {
                for cut in cuts.of(root) {
                    let other = gates[rng.random_range(0..gates.len())];
                    for roots in [vec![root], vec![root, other]] {
                        let want = cloned_mffc_size(&net, &roots, cut);
                        assert_eq!(counter.size(&net, &roots, cut), want, "{roots:?} {cut:?}");
                        queries += 1;
                    }
                }
            }
            assert_eq!(counter.refs, net.reference_counts());
            assert!(counter.dead.iter().all(|&d| !d));
        }
        assert!(queries > 1000, "too few queries: {queries}");
    }

    /// A full adder whose cones are individually optimal but unshared:
    /// sum = (a⊕b)⊕c (2 gates), carry = (a∧b)∨((a∨b)∧c) (4 gates).
    fn unshared_full_adder() -> Network {
        let mut net = Network::new(3);
        let (a, b, c) = (net.input(0), net.input(1), net.input(2));
        let x1 = net.xor(a, b).unwrap();
        let sum = net.xor(x1, c).unwrap();
        let u = net.and(a, b).unwrap();
        let v = net.or(a, b).unwrap();
        let w = net.and(v, c).unwrap();
        let m = net.or(u, w).unwrap();
        net.add_output(sum);
        net.add_output(m);
        net
    }

    #[test]
    fn joint_rewrite_shares_a_two_output_cut_cone() {
        let net = unshared_full_adder();
        assert_eq!(net.live_gate_count(), 6);
        let before = net.simulate_outputs().unwrap();

        // Every cone is per-output optimal, so the classic path finds
        // nothing to do.
        let single_only = RewriteConfig { multi_output: false, ..RewriteConfig::default() };
        let untouched = rewrite(&net, &single_only, &SynthesisCache::new()).unwrap();
        assert_eq!(untouched.gates_after, 6);
        assert!(untouched.replacements.is_empty());

        // Joint synthesis of the shared {a, b, c} cut cone shares the
        // a⊕b node between sum and carry: 5 gates, strictly fewer than
        // the per-output optimum sum.
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(result.network.simulate_outputs().unwrap(), before);
        assert_eq!(result.gates_after, 5, "joint synthesis must share one gate");
        let joint =
            result.replacements.iter().find(|r| r.roots.len() == 2).expect("a joint replacement");
        assert_eq!(joint.gain, 1);
        assert_eq!(joint.root, joint.roots[0]);

        // A second run over the same cache answers from the store.
        let misses = cache.misses();
        let again = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(again.gates_after, 5);
        assert_eq!(cache.misses(), misses, "joint classes must be cached too");
    }

    #[test]
    fn joint_rewrite_transcript_is_jobs_invariant() {
        let net = unshared_full_adder();
        let run = |jobs: usize| {
            let config = RewriteConfig { jobs, ..RewriteConfig::default() };
            let result = rewrite(&net, &config, &SynthesisCache::new()).unwrap();
            let mut transcript = result.network.to_blif("t");
            for r in &result.replacements {
                transcript.push_str(&format!(
                    "roots={:?} leaves={:?} gain={}\n",
                    r.roots, r.leaves, r.gain
                ));
            }
            transcript
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn a_cheaper_wrong_stored_chain_is_refused_and_its_class_re_solved() {
        let net = wasteful_xor();
        let xor = TruthTable::from_hex(2, "6").unwrap();
        let rep = stp_tt::canonicalize(&xor).representative;
        // The representative's optimum chain with one LUT bit flipped:
        // one gate, against the three of the XOR cone it would replace.
        let good = synthesize(&rep, &SynthesisConfig::default()).unwrap().chains.remove(0);
        let mut wrong = Chain::new(2);
        for (i, g) in good.gates().iter().enumerate() {
            let tt2 = if i == 0 { g.tt2 ^ 0x1 } else { g.tt2 };
            wrong.add_gate(g.fanin[0], g.fanin[1], tt2).unwrap();
        }
        for tap in good.outputs() {
            wrong.add_output(*tap);
        }
        assert_eq!(wrong.num_gates(), 1);
        let store = Arc::new(Store::new());
        store.insert(rep, stp_store::Entry::Solved(vec![wrong]));
        let cache = SynthesisCache::with_store(Arc::clone(&store));

        let scope = stp_telemetry::CounterScope::enter();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        let counters = scope.finish();
        assert_eq!(counters.get("store.mapback_rejects"), Some(&1), "{counters:?}");
        assert!(result.replacements.is_empty(), "the wrong chain must never be spliced");
        assert_eq!(result.gates_after, 3);
        assert!(crate::equiv::equivalent_exhaustive(&net, &result.network).unwrap());

        // The refused class is solved afresh at its next lookup.
        let misses = store.misses();
        let again = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(store.misses(), misses + 1);
        assert_eq!(again.gates_after, 1);
        assert!(crate::equiv::equivalent_exhaustive(&net, &again.network).unwrap());
    }

    #[test]
    fn only_candidates_with_positive_gain_are_mapped_back() {
        // One pass, per-cone candidates only: every answer the pass maps
        // back is simulated once by its check, so `chain.simulations`
        // counts map-backs.
        let config = RewriteConfig {
            max_passes: 1,
            multi_output: false,
            jobs: 1,
            ..RewriteConfig::default()
        };
        let cache = SynthesisCache::new();
        let mut rng = SmallRng::seed_from_u64(0x3a9b);
        let (mut lookups, mut winners) = (0u64, 0u64);
        for _ in 0..8 {
            let net = random_network(8, 40, 4, &mut rng).unwrap();
            // Count the pass's positive-gain candidates from the same
            // lookups, which also warms every class it will ask for.
            let cuts = enumerate_cuts(&net, config.cut_size, config.cut_limit);
            let mut mffc = MffcCounter::new(&net);
            let mut expected = 0u64;
            for s in 0..net.num_signals() {
                if !net.is_gate(s) || mffc.refs[s] == 0 {
                    continue;
                }
                for cut in cuts.of(s).iter().filter(|c| c.len() >= 2) {
                    let f = crate::cuts::cut_function(&net, s, cut).unwrap();
                    if f.is_trivial() {
                        continue;
                    }
                    lookups += 1;
                    let answer = cache
                        .lookup(std::slice::from_ref(&f), config.synthesis_budget, 1)
                        .unwrap()
                        .expect("solved");
                    if answer.gates() < mffc.size(&net, &[s], cut) {
                        expected += 1;
                    }
                }
            }
            let scope = stp_telemetry::CounterScope::enter();
            let result = rewrite(&net, &config, &cache).unwrap();
            let counters = scope.finish();
            assert_eq!(counters.get("network.synth_cache_misses"), None, "warm: {counters:?}");
            assert_eq!(counters.get("chain.simulations").copied().unwrap_or(0), expected);
            assert!(result.replacements.len() as u64 <= expected);
            winners += expected;
        }
        assert!(winners > 0 && lookups > 10 * winners, "{winners} of {lookups}");
    }

    #[test]
    fn cut_sizes_past_the_table_width_are_refused_up_front() {
        let config = RewriteConfig { cut_size: stp_tt::MAX_VARS + 1, ..RewriteConfig::default() };
        let err = rewrite(&wasteful_xor(), &config, &SynthesisCache::new()).unwrap_err();
        assert_eq!(err, NetworkError::TooManyInputsForSimulation { inputs: stp_tt::MAX_VARS + 1 });
    }

    #[test]
    fn already_optimal_network_is_untouched() {
        let mut net = Network::new(2);
        let g = net.xor(net.input(0), net.input(1)).unwrap();
        net.add_output(g);
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        assert_eq!(result.gates_after, 1);
        assert_eq!(result.network.simulate_outputs().unwrap(), net.simulate_outputs().unwrap());
    }
}
