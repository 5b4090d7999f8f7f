//! The top-level STP exact-synthesis loop (§III of the paper).
//!
//! Given a specification `f`, the algorithm proceeds exactly as the
//! paper's steps (i)–(iv):
//!
//! 1. initialize the gate constraint from the input count (a function
//!    depending on `n` variables needs at least `n − 1` two-input
//!    gates);
//! 2. generate the candidate topologies for the current constraint from
//!    the (optionally pruned) fence family;
//! 3. encode the Boolean-chain candidates by STP factorization
//!    ([`crate::Factorizer`]); when none exist, increase the constraint
//!    and repeat;
//! 4. check every candidate with the STP circuit AllSAT solver, run over
//!    the realization forest ([`crate::Factorizer::verified_chains_on_shape`]),
//!    and return **all** verified optimum chains in one pass.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use stp_chain::{trivial_chain, Chain, CostModel};
use stp_fence::{all_fences, pruned_fences, shapes_with_gates, Fence, TreeShape};
use stp_store::{NpnOutcome, NpnView, RepOutcome, Store};
use stp_tt::TruthTable;

use crate::error::SynthesisError;
use crate::factor::{FactorConfig, Factorizer};
use crate::parallel;

/// Configuration for [`synthesize`].
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Apply the paper's fence pruning (§III-A). Disabling it explores
    /// every tree topology per gate count — the ablation baseline.
    pub fence_pruning: bool,
    /// Upper bound on the gate count before giving up.
    pub max_gates: usize,
    /// Optional wall-clock deadline (per-instance timeout in the
    /// benchmark harness).
    pub deadline: Option<Instant>,
    /// Cap on the number of solutions materialized.
    pub max_solutions: usize,
    /// Optional upper bound on chain depth, independent of the gate
    /// budget. `None` derives a sound bound where one is needed: a
    /// chain's depth never exceeds its gate count, so the depth-major
    /// sweep defaults to `max_gates.max(min_depth)` (historically the
    /// two budgets were conflated into that one expression). Setting
    /// `Some(d)` restricts every objective to chains of depth `≤ d`;
    /// values above the derived ceiling are vacuous (any chain within
    /// the gate budget already satisfies them) and clamp down.
    pub max_depth: Option<usize>,
    /// Worker threads for the shape/factorize/verify pipeline: `1`
    /// searches sequentially, `0` uses one worker per available CPU.
    /// The default comes from the `STP_JOBS` environment variable
    /// (falling back to `1`). Any value produces byte-identical
    /// solution sets (see `DESIGN.md`, *Threading model*).
    pub jobs: usize,
    /// Optional external kill switch: once a host sets this flag the
    /// run aborts with [`SynthesisError::Timeout`] at its next
    /// cancellation checkpoint — between sweep rounds and inside
    /// [`crate::FactorConfig::check_deadline`]. Unlike the internal
    /// per-round cancel flag this is never re-armed by the engine, so a
    /// server can revoke many in-flight runs with one store (`stpd`
    /// uses it to cancel stragglers at its drain deadline).
    pub abort: Option<Arc<AtomicBool>>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            fence_pruning: true,
            max_gates: 20,
            deadline: None,
            max_solutions: 4096,
            max_depth: None,
            jobs: parallel::jobs_from_env(),
            abort: None,
        }
    }
}

/// Result of a successful synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// Every optimum chain found (all solutions, one pass), verified by
    /// the circuit solver.
    pub chains: Vec<Chain>,
    /// The optimum gate count.
    pub gate_count: usize,
    /// Number of tree topologies examined. Under a solution cap or
    /// deadline, parallel runs may examine fewer shapes than sequential
    /// ones (cancelled workers stop counting); the chains themselves are
    /// identical either way.
    pub shapes_explored: usize,
    /// Number of fence patterns whose shape families were examined.
    /// With fence pruning this counts the pruned fence family per
    /// round; search paths that enumerate shapes directly (pruning
    /// disabled, or the depth objective) count the distinct fences of
    /// the examined shapes.
    pub fences_explored: usize,
    /// Number of factorization subproblems solved.
    pub factor_nodes: u64,
}

impl SynthesisResult {
    /// Picks the solution minimizing a secondary cost model — the
    /// "different costs can be considered" selector from the paper's
    /// abstract.
    ///
    /// Returns `None` when no chains were found (which only happens for
    /// results built by hand).
    pub fn best_by(&self, model: &CostModel) -> Option<&Chain> {
        self.chains.iter().min_by_key(|c| c.cost(model))
    }
}

/// Runs STP-based exact synthesis with the default configuration.
///
/// # Errors
///
/// See [`synthesize`].
///
/// # Examples
///
/// ```
/// use stp_synth::synthesize_default;
/// use stp_tt::TruthTable;
///
/// let spec = TruthTable::from_hex(4, "8ff8")?;
/// let result = synthesize_default(&spec)?;
/// assert_eq!(result.gate_count, 3);
/// assert!(!result.chains.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize_default(spec: &TruthTable) -> Result<SynthesisResult, SynthesisError> {
    synthesize(spec, &SynthesisConfig::default())
}

/// Runs STP-based exact synthesis: returns all minimum-gate-count
/// 2-LUT chains realizing `spec`, each verified with the STP circuit
/// solver.
///
/// Optimality is with respect to the explored topology family: tree
/// skeletons (with repeated-input reconvergence per Property 3) drawn
/// from the fence family, pruned per §III-A when
/// [`SynthesisConfig::fence_pruning`] is set — matching the paper's
/// "all optimal Boolean chains of current topological constraints".
///
/// # Errors
///
/// * [`SynthesisError::Timeout`] when the deadline expires;
/// * [`SynthesisError::GateLimitExceeded`] when no realization exists
///   within [`SynthesisConfig::max_gates`].
pub fn synthesize(
    spec: &TruthTable,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, SynthesisError> {
    sweep(spec, &GateCountObjective, config)
}

/// The one synthesis sweep behind every objective (paper steps i–iv).
///
/// The round plan is a sequence of `(gates r, depth cap)` rounds. By
/// default it is ascending `r` from the support bound under
/// [`SynthesisConfig::max_depth`]. A [`CostObjective::depth_major`]
/// objective instead walks depth `d` upward from `⌈log₂(support)⌉` and,
/// within each depth, `r ≤ 2^d − 1` with the cap `Some(d)`. Each round
/// borrows its tree shapes from the per-process [`RoundShapes`] table
/// (a depth cap filters a copy), factorizes and verifies them, and folds
/// the chains into the set at the best objective cost. The sweep stops
/// once a round's [`CostObjective::gate_count_lower_bound`] exceeds that
/// best cost; a depth-major sweep stops at its first non-empty round.
fn sweep(
    spec: &TruthTable,
    objective: &dyn CostObjective,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, SynthesisError> {
    // Trivial specifications need no gates.
    if let Some(chain) = trivial_chain(spec) {
        stp_telemetry::counter!("synth.trivial_hits").inc();
        return Ok(SynthesisResult {
            chains: vec![chain],
            gate_count: 0,
            shapes_explored: 0,
            fences_explored: 0,
            factor_nodes: 0,
        });
    }
    let support = spec.support().len();
    // Paper step (i): a function of k support variables needs at least
    // k − 1 binary gates.
    let min_gates = support.saturating_sub(1).max(1);
    // Depth lower bound: a binary tree of depth d covers ≤ 2^d leaves.
    let min_depth = support.next_power_of_two().trailing_zeros() as usize;
    // The depth budget is its own bound, not the gate budget. The
    // derived ceiling stays sound in both directions: a chain's depth
    // never exceeds its gate count, so sweeping past it can only
    // re-explore rounds the gate budget already exhausted. An explicit
    // `max_depth` below the ceiling truncates the depth-major plan (and
    // names itself in the error); one above it is vacuous.
    let depth_ceiling = config.max_gates.max(min_depth);
    let depth_major = objective.depth_major();
    let plan: Box<dyn Iterator<Item = (usize, Option<usize>)>> = if depth_major {
        let last_depth = config.max_depth.map_or(depth_ceiling, |d| d.min(depth_ceiling));
        let max_gates = config.max_gates;
        Box::new((min_depth.max(1)..=last_depth).flat_map(move |depth| {
            // A depth-d binary tree has at most 2^d − 1 gates.
            let r_cap = ((1usize << depth.min(24)) - 1).min(max_gates);
            (min_gates..=r_cap).map(move |r| (r, Some(depth)))
        }))
    } else {
        Box::new((min_gates..=config.max_gates).map(|r| (r, config.max_depth)))
    };
    // Fence pruning preserves neither depth nor gate-count optima: it
    // drops tree fences such as `(4,1,1,1)`, so the 7-gate
    // `((x1x2 | x3x4) & (x5|x6)) | x7x8` comes back with 8 gates
    // (ROADMAP item 1). The depth-major plan walks every tree shape.
    let pruned = config.fence_pruning && !depth_major;
    let jobs = parallel::resolve_jobs(config.jobs);
    let cancel = Arc::new(AtomicBool::new(false));
    let mut engines = build_engines(config, jobs, &cancel);
    let mut shapes_explored = 0usize;
    let mut fences_explored = 0usize;
    let mut best: Vec<Chain> = Vec::new();
    let mut best_cost = u64::MAX;
    for (r, depth_cap) in plan {
        // Sound termination: every chain with r gates costs at least
        // the bound; equality could still tie, so only a strictly larger
        // bound ends the sweep. The depth-major plan's first non-empty
        // round is already depth-optimal with minimum gates.
        if (depth_major && !best.is_empty()) || objective.gate_count_lower_bound(r) > best_cost {
            break;
        }
        // The external kill switch is honored between rounds as well as
        // at the factorization checkpoints inside one.
        if config.abort.as_ref().is_some_and(|abort| abort.load(Ordering::Acquire)) {
            return Err(SynthesisError::Timeout);
        }
        let _round = stp_telemetry::span!("synth.round.r{}", r);
        stp_telemetry::counter!("synth.rounds").inc();
        let shapes = {
            let _enum = stp_telemetry::span!("phase.fence_enum");
            let round = RoundShapes::get(r, pruned);
            round.count();
            let shapes: Cow<'_, [TreeShape]> = match depth_cap {
                Some(d) => round.shapes.iter().filter(|s| s.height() <= d).cloned().collect(),
                None => Cow::Borrowed(&round.shapes),
            };
            fences_explored += if pruned || depth_cap.is_none() {
                round.fences
            } else {
                distinct_fence_count(&shapes)
            };
            shapes
        };
        stp_telemetry::debug!("synth: r={r}, {} shapes, {jobs} worker(s)", shapes.len());
        // Re-arm the per-round cancel flag: a previous round may have
        // tripped it when its solution cap was reached.
        cancel.store(false, Ordering::SeqCst);
        let outcome = parallel::run_round(
            spec,
            &shapes,
            &mut engines,
            config.max_solutions,
            depth_cap,
            &cancel,
        )?;
        shapes_explored += outcome.shapes_explored;
        for chain in outcome.solutions {
            let cost = objective.chain_cost(&chain);
            match cost.cmp(&best_cost) {
                std::cmp::Ordering::Less => {
                    best = vec![chain];
                    best_cost = cost;
                }
                std::cmp::Ordering::Equal => best.push(chain),
                std::cmp::Ordering::Greater => {}
            }
        }
    }
    if best.is_empty() {
        // An explicit depth budget that truncated the depth-major plan
        // is its own failure mode; otherwise the gate budget was the
        // binding limit.
        return Err(match config.max_depth {
            Some(max_depth) if depth_major && max_depth < depth_ceiling => {
                SynthesisError::DepthLimitExceeded { max_depth }
            }
            _ => SynthesisError::GateLimitExceeded { max_gates: config.max_gates },
        });
    }
    best.truncate(config.max_solutions);
    stp_telemetry::counter!("synth.solutions").add(best.len() as u64);
    Ok(SynthesisResult {
        gate_count: best.iter().map(Chain::num_gates).min().expect("best is non-empty"),
        chains: best,
        shapes_explored,
        fences_explored,
        factor_nodes: engines.iter().map(Factorizer::nodes_explored).sum(),
    })
}

/// Builds the per-worker factorization engines for one synthesis run.
/// The engines persist across rounds so each worker keeps its memo
/// table for the whole search.
fn build_engines(
    config: &SynthesisConfig,
    jobs: usize,
    cancel: &Arc<AtomicBool>,
) -> Vec<Factorizer> {
    let factor_config = FactorConfig {
        max_realizations: config.max_solutions,
        deadline: config.deadline,
        cancel: Some(Arc::clone(cancel)),
        abort: config.abort.clone(),
        ..FactorConfig::default()
    };
    (0..jobs.max(1)).map(|_| Factorizer::new(factor_config.clone())).collect()
}

/// Number of distinct fences among `shapes`: the honest `fences_explored`
/// tally for rounds that enumerate shapes directly instead of walking
/// the pruned fence family.
fn distinct_fence_count(shapes: &[TreeShape]) -> usize {
    shapes.iter().filter_map(TreeShape::fence).collect::<HashSet<_>>().len()
}

/// Most gates a round may have: [`RoundShapes::get`]'s table ends here.
/// A tree of this many gates has over 10⁹ shapes, far past any round
/// that can finish.
const MAX_ROUND_GATES: usize = 32;

/// One round's tree shapes, built once per process for each gate count
/// and pruning choice, with what the fence counters report for it. The
/// fence groups of a pruned list carry no search semantics, only the
/// fence tally; the sweep walks the list as one shape-indexed work list.
#[derive(Debug)]
struct RoundShapes {
    /// The round's shapes, in [`shapes_with_gates`] order; pruned, they
    /// are grouped by fence in [`pruned_fences`] order, each group
    /// keeping that order.
    shapes: Vec<TreeShape>,
    /// Fences examined: the pruned family's size, or the distinct
    /// fences of `shapes`.
    fences: usize,
    /// `fence.fences_generated` and `fence.fences_pruned`: the full
    /// family `F_r` and what pruning dropped from it (pruned rounds
    /// only).
    generated_pruned: Option<(u64, u64)>,
    /// `fence.shapes_generated`: the shapes [`shapes_with_gates`]
    /// enumerated.
    shapes_generated: u64,
}

impl RoundShapes {
    /// The shapes of a round of `gates` gates, built on first use.
    ///
    /// # Panics
    ///
    /// Panics if `gates` exceeds [`MAX_ROUND_GATES`].
    fn get(gates: usize, pruned: bool) -> &'static RoundShapes {
        static TABLE: [[OnceLock<RoundShapes>; 2]; MAX_ROUND_GATES + 1] =
            [const { [const { OnceLock::new() }; 2] }; MAX_ROUND_GATES + 1];
        assert!(gates <= MAX_ROUND_GATES, "no round of {gates} gates can be enumerated");
        TABLE[gates][usize::from(pruned)].get_or_init(|| RoundShapes::build(gates, pruned))
    }

    fn build(gates: usize, pruned: bool) -> RoundShapes {
        let all = shapes_with_gates(gates);
        let shapes_generated = all.len() as u64;
        if !pruned {
            let fences = distinct_fence_count(&all);
            return RoundShapes { shapes: all, fences, generated_pruned: None, shapes_generated };
        }
        let family = all_fences(gates).len();
        let kept = pruned_fences(gates);
        let fenced: Vec<(Option<Fence>, TreeShape)> =
            all.into_iter().map(|shape| (shape.fence(), shape)).collect();
        let shapes = kept
            .iter()
            .flat_map(|fence| {
                fenced
                    .iter()
                    .filter(move |(f, _)| f.as_ref() == Some(fence))
                    .map(|(_, s)| s.clone())
            })
            .collect();
        RoundShapes {
            shapes,
            fences: kept.len(),
            generated_pruned: Some((family as u64, (family - kept.len()) as u64)),
            shapes_generated,
        }
    }

    /// Adds one round's fence counters.
    fn count(&self) {
        if let Some((generated, pruned)) = self.generated_pruned {
            stp_telemetry::counter!("fence.fences_generated").add(generated);
            stp_telemetry::counter!("fence.fences_pruned").add(pruned);
        }
        stp_telemetry::counter!("fence.shapes_generated").add(self.shapes_generated);
    }
}

/// A pluggable synthesis cost objective.
///
/// The paper stresses that because the STP engine returns *all*
/// optimum chains as generic 2-LUTs, "different costs can be
/// considered when selecting the optimal circuit". This trait pushes
/// that flexibility into the search itself: the gate-count sweep keeps
/// running past its first solutions until no cheaper chain can exist,
/// so the returned set is optimal under the *objective*, not merely
/// under gate count.
///
/// Implementations provided here: [`GateCountObjective`] (the paper's
/// objective), [`DepthThenGatesObjective`] (minimum depth, then gates),
/// and [`GateProfileObjective`] (weighted per-operator costs, e.g.
/// XOR-cheap vs AND-cheap technologies).
pub trait CostObjective: Send + Sync + std::fmt::Debug {
    /// Short human-readable name (used by CLIs and reports).
    fn name(&self) -> String;

    /// Cost of a finished chain; lower is better.
    fn chain_cost(&self, chain: &Chain) -> u64;

    /// Lower bound on the cost of *any* chain with `gates` gates. The
    /// sweep stops once `gate_count_lower_bound(r)` exceeds the best
    /// cost found — so the bound must be sound (never above the true
    /// minimum) or solutions would be lost.
    fn gate_count_lower_bound(&self, gates: usize) -> u64;

    /// `true` when the sweep's round plan is depth-major (minimum depth
    /// first, then minimum gates at that depth) instead of ascending
    /// gate count; the first non-empty round then ends the sweep.
    fn depth_major(&self) -> bool {
        false
    }
}

/// Minimum gate count — the paper's objective; ties in depth are not
/// broken, all optimum chains are returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCountObjective;

impl CostObjective for GateCountObjective {
    fn name(&self) -> String {
        "gates".to_string()
    }

    fn chain_cost(&self, chain: &Chain) -> u64 {
        chain.num_gates() as u64
    }

    fn gate_count_lower_bound(&self, gates: usize) -> u64 {
        gates as u64
    }
}

/// Minimum depth first, then minimum gate count at that depth.
/// Depth-optimal chains may spend more gates than the gate-optimal
/// ones (the classic area/delay trade-off the paper's cost-model
/// flexibility targets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthThenGatesObjective;

impl CostObjective for DepthThenGatesObjective {
    fn name(&self) -> String {
        "depth".to_string()
    }

    /// Lexicographic (depth, gates) packed into one word; only used for
    /// ranking finished chains — the sweep itself is depth-major.
    fn chain_cost(&self, chain: &Chain) -> u64 {
        ((chain.depth() as u64) << 32) | chain.num_gates() as u64
    }

    fn gate_count_lower_bound(&self, gates: usize) -> u64 {
        gates as u64
    }

    fn depth_major(&self) -> bool {
        true
    }
}

/// Weighted per-operator gate costs: each 2-input LUT class pays its
/// configured weight, absent classes pay the default.
///
/// The gate-count sweep under this objective is exact: it keeps
/// searching larger gate counts until `r × min_weight` exceeds the best
/// weighted cost found, where `min_weight` is the cheapest weight over
/// the ten nontrivial 2-input operators. (Chains never contain trivial
/// gates — constants and projections are simplified away — so trivial
/// LUT codes do not participate in the bound.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateProfileObjective {
    weights: std::collections::HashMap<u8, u64>,
    default_weight: u64,
    min_weight: u64,
}

/// The ten 2-input LUT codes that depend on both fanins.
const NONTRIVIAL_TT2: [u8; 10] = [0x1, 0x2, 0x4, 0x6, 0x7, 0x8, 0x9, 0xb, 0xd, 0xe];

impl GateProfileObjective {
    /// Builds a profile objective from per-LUT weights (keyed by the
    /// 4-bit truth table) and a default for absent codes.
    ///
    /// A zero minimum weight is allowed but weakens the termination
    /// bound to the plain gate budget — the sweep then always runs to
    /// `max_gates`.
    pub fn new(weights: std::collections::HashMap<u8, u64>, default_weight: u64) -> Self {
        let min_weight = NONTRIVIAL_TT2
            .iter()
            .map(|tt2| weights.get(tt2).copied().unwrap_or(default_weight))
            .min()
            .unwrap_or(default_weight);
        GateProfileObjective { weights, default_weight, min_weight }
    }

    /// Weight charged for one gate.
    pub fn gate_weight(&self, tt2: u8) -> u64 {
        self.weights.get(&tt2).copied().unwrap_or(self.default_weight)
    }
}

impl CostObjective for GateProfileObjective {
    fn name(&self) -> String {
        let mut keys: Vec<&u8> = self.weights.keys().collect();
        keys.sort();
        let parts: Vec<String> =
            keys.iter().map(|k| format!("{k:x}={}", self.weights[k])).collect();
        format!("profile:{},default={}", parts.join(","), self.default_weight)
    }

    fn chain_cost(&self, chain: &Chain) -> u64 {
        chain.gates().iter().map(|g| self.gate_weight(g.tt2)).sum()
    }

    fn gate_count_lower_bound(&self, gates: usize) -> u64 {
        (gates as u64).saturating_mul(self.min_weight)
    }
}

/// Parses a CLI-style objective spec: `gates`, `depth`, or
/// `profile:<tt2hex>=<weight>,…[,default=<weight>]` (e.g.
/// `profile:6=3,9=3,default=1` taxes XOR/XNOR at 3× the default).
///
/// # Errors
///
/// Returns a human-readable message naming the malformed component.
pub fn objective_from_spec(spec: &str) -> Result<Box<dyn CostObjective>, String> {
    match spec {
        "gates" => return Ok(Box::new(GateCountObjective)),
        "depth" => return Ok(Box::new(DepthThenGatesObjective)),
        _ => {}
    }
    let Some(body) = spec.strip_prefix("profile:") else {
        return Err(format!(
            "unknown objective `{spec}` (expected `gates`, `depth`, or `profile:<weights>`)"
        ));
    };
    if body.is_empty() {
        return Err("objective `profile:` needs at least one `<tt2hex>=<weight>` pair".to_string());
    }
    let mut weights = std::collections::HashMap::new();
    let mut default_weight = 1u64;
    for pair in body.split(',') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("objective weight `{pair}` is not of the form `<key>=<weight>`"));
        };
        let weight: u64 = value
            .parse()
            .map_err(|_| format!("objective weight `{pair}` needs an unsigned integer weight"))?;
        if key == "default" {
            default_weight = weight;
            continue;
        }
        let tt2 = u8::from_str_radix(key, 16)
            .ok()
            .filter(|v| *v <= 0xf)
            .ok_or_else(|| format!("objective weight key `{key}` is not a 4-bit LUT hex code"))?;
        weights.insert(tt2, weight);
    }
    Ok(Box::new(GateProfileObjective::new(weights, default_weight)))
}

/// Runs STP exact synthesis under an explicit [`CostObjective`].
///
/// Every objective runs the same sweep as [`synthesize`]; the objective
/// only picks the round plan and the stopping rule.
/// [`GateCountObjective`] stops at the first non-empty round.
/// [`DepthThenGatesObjective`] organizes the rounds by tree height: for
/// each depth `d` (from `⌈log₂(support)⌉` up) it explores the shapes of
/// height `≤ d` in increasing gate count, so the first hit is
/// depth-optimal with minimum gates among depth-optimal chains. Any
/// other objective keeps running ascending gate-count rounds past the
/// first solutions until [`CostObjective::gate_count_lower_bound`]
/// proves no cheaper chain can exist, returning every chain at the
/// optimum cost (trimmed to [`SynthesisConfig::max_solutions`]).
///
/// Exactness caveat: within one round the solution cap applies to the
/// raw solution stream, so a binding `max_solutions` can hide ties (or,
/// for non-uniform objectives, cheaper chains) that would have appeared
/// later in that round. With the default cap this does not arise on the
/// paper's workloads.
///
/// # Errors
///
/// Same conditions as [`synthesize`], plus
/// [`SynthesisError::DepthLimitExceeded`] when an explicit
/// [`SynthesisConfig::max_depth`] truncated a depth-major sweep.
///
/// # Examples
///
/// ```
/// use stp_synth::{synthesize_with_objective, DepthThenGatesObjective, SynthesisConfig};
/// use stp_tt::TruthTable;
///
/// // AND of four inputs: depth 2 needs the balanced tree.
/// let and4 = TruthTable::from_fn(4, |a| a.iter().all(|&b| b))?;
/// let result = synthesize_with_objective(
///     &and4,
///     &DepthThenGatesObjective,
///     &SynthesisConfig::default(),
/// )?;
/// assert_eq!(result.chains[0].depth(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize_with_objective(
    spec: &TruthTable,
    objective: &dyn CostObjective,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, SynthesisError> {
    sweep(spec, objective, config)
}

/// A multi-output specification: `k` output truth tables over one
/// common input set, to be synthesized as a single chain with shared
/// internal nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiSpec {
    specs: Vec<TruthTable>,
}

impl MultiSpec {
    /// Builds a multi-output spec, validating that at least one output
    /// is present and all outputs share one arity.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InvalidMultiSpec`] otherwise.
    pub fn new(specs: Vec<TruthTable>) -> Result<Self, SynthesisError> {
        if specs.is_empty() {
            return Err(SynthesisError::InvalidMultiSpec {
                message: "need at least one output".to_string(),
            });
        }
        let n = specs[0].num_vars();
        if let Some(bad) = specs.iter().find(|s| s.num_vars() != n) {
            return Err(SynthesisError::InvalidMultiSpec {
                message: format!("outputs disagree on arity: {n} vs {} inputs", bad.num_vars()),
            });
        }
        Ok(MultiSpec { specs })
    }

    /// The output truth tables, in declaration order.
    pub fn specs(&self) -> &[TruthTable] {
        &self.specs
    }

    /// Common input arity.
    pub fn num_vars(&self) -> usize {
        self.specs[0].num_vars()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.specs.len()
    }
}

/// Result of a successful [`synthesize_multi`] run.
#[derive(Debug, Clone)]
pub struct MultiSynthesisResult {
    /// The shared chain: one output tap per spec output, in spec order,
    /// with internal gates shared across outputs.
    pub chain: Chain,
    /// The objective cost of the shared chain.
    pub objective_cost: u64,
    /// Gate count of the chain each output would use when synthesized
    /// alone (the selected per-output solutions).
    pub per_output_gates: Vec<usize>,
    /// Gates saved by sharing: `Σ per_output_gates − chain.num_gates()`.
    pub gates_saved: usize,
    /// Per-output solution combinations scored during the merge.
    pub combinations_tried: usize,
    /// Aggregated topology statistics over the per-output searches.
    pub shapes_explored: usize,
    /// Aggregated fence statistics over the per-output searches.
    pub fences_explored: usize,
    /// Aggregated factorization statistics over the per-output searches.
    pub factor_nodes: u64,
}

/// Cap on the per-output solution combinations scored by the shared
/// merge. Beyond it the enumeration truncates deterministically (a
/// prefix in odometer order) and `synth.mo.combos_capped` records the
/// event.
const MAX_MO_COMBINATIONS: usize = 4096;

/// Synthesizes a [`MultiSpec`] as one shared chain.
///
/// Each output is first synthesized alone under `objective` — the
/// engine returns *all* optimum chains per output — then every
/// combination of per-output optima (bounded by an internal cap) is
/// merged with structural gate sharing ([`stp_chain::merge_chains`])
/// and scored under the objective; the cheapest merged chain wins, with
/// gate count and then enumeration order breaking ties deterministically
/// at any jobs count.
///
/// Guarantees: every output of the returned chain is individually
/// optimal under `objective`, and the shared chain minimizes the
/// objective over the cross product of per-output optimum sets — so its
/// gate count never exceeds the per-output sum. (Globally cheaper
/// chains that sacrifice single-output optimality for sharing are
/// outside this search space; see `DESIGN.md`.)
///
/// # Errors
///
/// Same conditions as [`synthesize`], from any output's search.
pub fn synthesize_multi(
    multi: &MultiSpec,
    objective: &dyn CostObjective,
    config: &SynthesisConfig,
) -> Result<MultiSynthesisResult, SynthesisError> {
    let _span = stp_telemetry::span!("synth.mo");
    stp_telemetry::counter!("synth.mo.calls").inc();
    stp_telemetry::counter!("synth.mo.outputs").add(multi.num_outputs() as u64);
    // Per-output all-optimum synthesis.
    let mut lists: Vec<Vec<Chain>> = Vec::with_capacity(multi.num_outputs());
    let mut shapes_explored = 0usize;
    let mut fences_explored = 0usize;
    let mut factor_nodes = 0u64;
    for spec in multi.specs() {
        let result = synthesize_with_objective(spec, objective, config)?;
        shapes_explored += result.shapes_explored;
        fences_explored += result.fences_explored;
        factor_nodes += result.factor_nodes;
        lists.push(result.chains);
    }
    // Deterministic bounded cross-product merge: enumerate solution
    // combinations in odometer order (last output fastest), merge with
    // structural sharing, keep the cheapest (first wins on ties).
    let total: usize = lists.iter().map(Vec::len).fold(1usize, |a, b| a.saturating_mul(b));
    let tried = total.min(MAX_MO_COMBINATIONS);
    if total > MAX_MO_COMBINATIONS {
        stp_telemetry::counter!("synth.mo.combos_capped").inc();
    }
    stp_telemetry::counter!("synth.mo.combos").add(tried as u64);
    let mut best: Option<(u64, usize, Chain, Vec<usize>)> = None;
    for combo in 0..tried {
        let mut idx = combo;
        let mut picks: Vec<&Chain> = Vec::with_capacity(lists.len());
        for list in lists.iter().rev() {
            picks.push(&list[idx % list.len()]);
            idx /= list.len();
        }
        picks.reverse();
        let merged = stp_chain::merge_chains(&picks)?;
        let cost = objective.chain_cost(&merged);
        let gates = merged.num_gates();
        let better = match &best {
            None => true,
            Some((bc, bg, _, _)) => cost < *bc || (cost == *bc && gates < *bg),
        };
        if better {
            let per_output: Vec<usize> = picks.iter().map(|c| c.num_gates()).collect();
            best = Some((cost, gates, merged, per_output));
        }
    }
    let (objective_cost, shared_gates, chain, per_output_gates) =
        best.expect("every output produced at least one chain");
    let gates_saved = per_output_gates.iter().sum::<usize>() - shared_gates;
    stp_telemetry::counter!("synth.mo.shared_gates").add(shared_gates as u64);
    stp_telemetry::counter!("synth.mo.gates_saved").add(gates_saved as u64);
    check_realizes(&chain, multi.specs())?;
    Ok(MultiSynthesisResult {
        chain,
        objective_cost,
        per_output_gates,
        gates_saved,
        combinations_tried: tried,
        shapes_explored,
        fences_explored,
        factor_nodes,
    })
}

/// The release check of a merged chain: every output must realize its
/// spec, or the chain is withheld as [`SynthesisError::Unrealized`].
fn check_realizes(chain: &Chain, specs: &[TruthTable]) -> Result<(), SynthesisError> {
    if chain.simulate_outputs()? == specs {
        return Ok(());
    }
    let specs = specs.iter().map(TruthTable::to_hex).collect::<Vec<_>>().join("+");
    stp_telemetry::error!("withheld a merged chain that does not realize {specs}");
    Err(SynthesisError::Unrealized { specs })
}

/// [`synthesize_multi`] through the multi-output NPN class
/// representative tuple, against a shared [`Store`]: the checked first
/// chain of [`synthesize_multi_npn_answer`]. Returns the shared chain
/// with outputs in original spec order.
///
/// # Errors
///
/// Same conditions as [`synthesize_multi_npn_answer`], plus
/// [`SynthesisError::MapBack`] when the stored chain fails its check.
pub fn synthesize_multi_npn_with_store(
    multi: &MultiSpec,
    config: &SynthesisConfig,
    store: &Store,
) -> Result<Chain, SynthesisError> {
    synthesize_multi_npn_answer(multi, config, store)?.first()
}

/// The store-backed answer for a spec vector, unmapped.
///
/// The spec vector is canonicalized with [`stp_tt::canonicalize_multi`]
/// (shared input transform, output permutation, per-output phases) and
/// the representative tuple is looked up or synthesized once
/// (gate-count objective — the cached objective of the store). The
/// answer maps the stored shared chains back through
/// [`Chain::permute_negate_outputs`] only when read.
///
/// # Errors
///
/// Same conditions as [`synthesize`]; a stored exhaustion at a budget
/// at least as large as ours surfaces as [`SynthesisError::Timeout`].
pub fn synthesize_multi_npn_answer(
    multi: &MultiSpec,
    config: &SynthesisConfig,
    store: &Store,
) -> Result<NpnAnswer, SynthesisError> {
    solve_through_store(config, |budget| {
        store.solve_npn_multi(multi.specs(), budget, |reps| {
            let rep_multi = MultiSpec::new(reps.to_vec())?;
            rep_outcome(
                synthesize_multi(&rep_multi, &GateCountObjective, config).map(|r| vec![r.chain]),
            )
        })
    })
}

/// What a store-backed NPN solve answers with: a trivial spec's
/// zero-gate chain, or the view over its class's stored chains, mapped
/// back only as they are read.
#[derive(Debug, Clone)]
pub enum NpnAnswer {
    /// A constant or (complemented) projection, built directly.
    Trivial(Chain),
    /// A solved class, seen from the requested spec(s).
    Class(NpnView),
}

impl NpnAnswer {
    /// How many optimum chains answer the spec: the class size, or 1
    /// for a trivial spec. Maps nothing.
    pub fn len(&self) -> usize {
        match self {
            NpnAnswer::Trivial(_) => 1,
            NpnAnswer::Class(view) => view.len(),
        }
    }

    /// Always `false`: every answer holds at least one chain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The gate count of the chain [`NpnAnswer::first`] returns, read
    /// without mapping or checking it (see [`NpnView::gates`]).
    pub fn gates(&self) -> usize {
        match self {
            NpnAnswer::Trivial(chain) => chain.num_gates(),
            NpnAnswer::Class(view) => view.gates(),
        }
    }

    /// The first chain, mapped back and checked against the spec in
    /// release builds (see [`NpnView::first`]).
    ///
    /// # Errors
    ///
    /// [`SynthesisError::MapBack`] when the stored chain fails the check.
    pub fn first(&self) -> Result<Chain, SynthesisError> {
        match self {
            NpnAnswer::Trivial(chain) => Ok(chain.clone()),
            NpnAnswer::Class(view) => Ok(view.first()?),
        }
    }

    /// Every chain, mapped back in stored order (see [`NpnView::iter`]).
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Chain`] when a stored chain does not map.
    pub fn into_chains(self) -> Result<Vec<Chain>, SynthesisError> {
        match self {
            NpnAnswer::Trivial(chain) => Ok(vec![chain]),
            NpnAnswer::Class(view) => {
                // Pre-sized: collecting through `Result` would start from
                // an empty vector and regrow it for hundreds of chains.
                let mut chains = Vec::with_capacity(view.len());
                for chain in view.iter() {
                    chains.push(chain?);
                }
                Ok(chains)
            }
        }
    }
}

/// Runs one store-backed NPN solve, offering the time left before
/// [`SynthesisConfig::deadline`] as its budget, and turns the outcome
/// into an answer or an error.
fn solve_through_store(
    config: &SynthesisConfig,
    solve: impl FnOnce(Duration) -> Result<NpnOutcome, SynthesisError>,
) -> Result<NpnAnswer, SynthesisError> {
    let budget = config
        .deadline
        .map_or(Duration::MAX, |deadline| deadline.saturating_duration_since(Instant::now()));
    match solve(budget)? {
        NpnOutcome::Trivial(chain) => Ok(NpnAnswer::Trivial(chain)),
        NpnOutcome::Solved(view) => Ok(NpnAnswer::Class(view)),
        NpnOutcome::Exhausted { .. } | NpnOutcome::WaitTimeout => Err(SynthesisError::Timeout),
        NpnOutcome::Poisoned { message } => Err(SynthesisError::JobPanicked { message }),
    }
}

/// Adapts an engine run on a class representative to the store's
/// solver interface: a timeout is recorded as an exhausted class.
fn rep_outcome(result: Result<Vec<Chain>, SynthesisError>) -> Result<RepOutcome, SynthesisError> {
    match result {
        Ok(chains) => Ok(RepOutcome::Solved(chains)),
        Err(SynthesisError::Timeout) => Ok(RepOutcome::Exhausted),
        Err(other) => Err(other),
    }
}

/// Runs STP exact synthesis through the NPN class representative
/// (§III-A: "we use the negation-permutation-negation classification to
/// reduce the size of all valid DAG candidates").
///
/// The spec is canonicalized, the representative is synthesized, and
/// every solution chain is mapped back through the NPN transform
/// (inputs rewired and complemented inside gate LUTs, output phase
/// fixed) — so repeated members of one class share all the synthesis
/// work. Canonicalization is exhaustive (`n! · 2^{n+1}` transforms, see
/// [`stp_tt::canonicalize`]): microseconds up to 5 inputs, a few hundred
/// milliseconds at 8, impractical beyond.
///
/// # Errors
///
/// Same conditions as [`synthesize`].
pub fn synthesize_npn(
    spec: &TruthTable,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, SynthesisError> {
    synthesize_npn_with_store(spec, config, &Store::new())
}

/// [`synthesize_npn`] against a shared [`Store`]: the canonicalize →
/// lookup-or-synthesize pipeline lives in [`Store::solve_npn`]; this
/// wrapper adapts the engine to the store's solver interface and maps
/// every stored chain back through `permute_negate`, in stored order
/// ([`NpnAnswer::into_chains`]). Callers that read one chain use
/// [`synthesize_npn_answer`] instead.
///
/// The store makes repeated traffic O(distinct NPN classes): the first
/// call per class runs the full engine, every later call (from any
/// thread, any entry path) answers from the stored representative
/// chains. A stored answer reports zero `shapes_explored` /
/// `fences_explored` / `factor_nodes` — no search happened.
///
/// Budget semantics: with a [`SynthesisConfig::deadline`] the remaining
/// wall-clock time is the offered budget; a timeout is recorded as
/// [`stp_store::Entry::Exhausted`] at that budget and retried only when
/// a later caller offers strictly more.
///
/// # Errors
///
/// Same conditions as [`synthesize`]; a stored exhaustion at a budget
/// at least as large as ours surfaces as [`SynthesisError::Timeout`]
/// without re-running the engine.
pub fn synthesize_npn_with_store(
    spec: &TruthTable,
    config: &SynthesisConfig,
    store: &Store,
) -> Result<SynthesisResult, SynthesisError> {
    // Search statistics only exist when the engine actually ran; a
    // store hit (or another thread's in-flight solve) reports zeros.
    let mut stats: Option<(usize, usize, u64)> = None;
    let chains = npn_answer(spec, config, store, &mut stats)?.into_chains()?;
    let (shapes_explored, fences_explored, factor_nodes) = stats.unwrap_or_default();
    Ok(SynthesisResult {
        gate_count: chains[0].num_gates(),
        chains,
        shapes_explored,
        fences_explored,
        factor_nodes,
    })
}

/// The store-backed answer for `spec`, unmapped: what
/// [`synthesize_npn_with_store`] answers from, for callers that read
/// one chain ([`NpnAnswer::first`]) or only the class size
/// ([`NpnAnswer::len`]).
///
/// # Errors
///
/// Same conditions as [`synthesize_npn_with_store`].
pub fn synthesize_npn_answer(
    spec: &TruthTable,
    config: &SynthesisConfig,
    store: &Store,
) -> Result<NpnAnswer, SynthesisError> {
    npn_answer(spec, config, store, &mut None)
}

/// [`synthesize_npn_answer`], recording the engine's search statistics
/// in `stats` when the class had to be synthesized.
fn npn_answer(
    spec: &TruthTable,
    config: &SynthesisConfig,
    store: &Store,
    stats: &mut Option<(usize, usize, u64)>,
) -> Result<NpnAnswer, SynthesisError> {
    solve_through_store(config, |budget| {
        store.solve_npn(spec, budget, |rep| {
            rep_outcome(synthesize(rep, config).map(|result| {
                *stats =
                    Some((result.shapes_explored, result.fences_explored, result.factor_nodes));
                result.chains
            }))
        })
    })
}

/// Outcome tally of [`warm_classes`] / [`warm_npn4`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmReport {
    /// NPN class representatives visited.
    pub classes: usize,
    /// Classes synthesized fresh during this warm pass.
    pub solved: usize,
    /// Classes whose synthesis timed out within the per-class budget.
    pub exhausted: usize,
    /// Classes already answered by the store (or trivially, with zero
    /// gates) without running the engine.
    pub cached: usize,
}

/// Warms `store` with every NPN class representative of arity 0–4
/// (the paper's 222 four-input classes plus the smaller arities that
/// rewriting cuts produce), so subsequent NPN4-suite or rewrite runs
/// answer entirely from the store.
///
/// `per_class_timeout` bounds each class independently (overriding any
/// deadline in `config`); classes that time out are recorded as
/// exhausted — and retried on the next warm pass with a larger budget —
/// rather than aborting the warm-up.
///
/// The classes run through the instance-level pool
/// ([`crate::run_instances`]): `config.jobs` is the single global
/// budget for the whole warm, split between class-level workers and
/// each class's nested shape-level pool. Whether a class counts as
/// `solved` or `cached` is decided by a per-class
/// [`stp_telemetry::CounterScope`] observing `store.misses` — exact
/// even when classes warm concurrently (a store-level miss-count delta
/// would race).
///
/// # Errors
///
/// Propagates any non-timeout engine failure
/// (e.g. [`SynthesisError::GateLimitExceeded`]); a panicking class
/// surfaces as [`SynthesisError::JobPanicked`] after the surviving
/// classes finish warming.
pub fn warm_npn4(
    store: &Store,
    config: &SynthesisConfig,
    per_class_timeout: Option<Duration>,
) -> Result<WarmReport, SynthesisError> {
    let _span = stp_telemetry::span!("store.warm_npn4");
    let reps: Vec<TruthTable> = (0..=4).flat_map(stp_tt::npn_classes).collect();
    warm_classes(store, config, per_class_timeout, &reps)
}

/// Warms `store` with an arbitrary list of class representatives — the
/// general form of [`warm_npn4`] used by the `warm` shard farm to cover
/// seeded NPN5/NPN6 samples (or any future class list).
///
/// Each entry of `reps` is one class to warm; representatives need not
/// be canonical (each is canonicalized on its way into the store, so a
/// list of raw functions warms their classes). Scheduling, per-class
/// timeouts, and the solved/cached/exhausted classification follow
/// [`warm_npn4`] exactly.
///
/// # Errors
///
/// Propagates any non-timeout engine failure; a panicking class
/// surfaces as [`SynthesisError::JobPanicked`] after the surviving
/// classes finish warming.
pub fn warm_classes(
    store: &Store,
    config: &SynthesisConfig,
    per_class_timeout: Option<Duration>,
    reps: &[TruthTable],
) -> Result<WarmReport, SynthesisError> {
    let _span = stp_telemetry::span!("store.warm_classes");
    /// How one class participated in the warm pass.
    enum ClassOutcome {
        Solved,
        Cached,
        Exhausted,
    }
    let results = crate::parallel::run_instances(config.jobs, reps.len(), |idx, shape_jobs| {
        let scope = stp_telemetry::CounterScope::enter();
        let mut per_class = config.clone();
        per_class.jobs = shape_jobs;
        per_class.deadline = per_class_timeout.map(|t| Instant::now() + t);
        // Only the outcome kind matters here: the answer is never read,
        // so nothing is mapped back.
        let outcome = synthesize_npn_answer(&reps[idx], &per_class, store);
        let counters = scope.finish();
        match outcome {
            // A fresh synthesis registers exactly one store miss on
            // this class's thread; answering from the store (or the
            // trivial fast path) registers none.
            Ok(_) if counters.get("store.misses").copied().unwrap_or(0) > 0 => {
                Ok(ClassOutcome::Solved)
            }
            Ok(_) => Ok(ClassOutcome::Cached),
            Err(SynthesisError::Timeout) => Ok(ClassOutcome::Exhausted),
            Err(other) => Err(other),
        }
    });
    let mut report = WarmReport { classes: reps.len(), ..WarmReport::default() };
    let mut first_error: Option<SynthesisError> = None;
    for result in results {
        match result {
            Ok(Ok(ClassOutcome::Solved)) => report.solved += 1,
            Ok(Ok(ClassOutcome::Cached)) => report.cached += 1,
            Ok(Ok(ClassOutcome::Exhausted)) => report.exhausted += 1,
            Ok(Err(e)) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            Err(message) => {
                if first_error.is_none() {
                    first_error = Some(SynthesisError::JobPanicked { message });
                }
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_example_synthesizes_with_three_gates() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let result = synthesize_default(&spec).unwrap();
        assert_eq!(result.gate_count, 3);
        for chain in &result.chains {
            assert_eq!(chain.num_gates(), 3);
            assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
        }
    }

    #[test]
    fn trivial_functions_cost_zero_gates() {
        for spec in [
            TruthTable::constant(3, true).unwrap(),
            TruthTable::constant(3, false).unwrap(),
            TruthTable::variable(3, 1).unwrap(),
            !TruthTable::variable(3, 2).unwrap(),
        ] {
            let result = synthesize_default(&spec).unwrap();
            assert_eq!(result.gate_count, 0);
            assert_eq!(result.chains[0].simulate_outputs().unwrap()[0], spec);
        }
    }

    #[test]
    fn two_input_functions_cost_one_gate() {
        let spec = TruthTable::from_hex(2, "6").unwrap();
        let result = synthesize_default(&spec).unwrap();
        assert_eq!(result.gate_count, 1);
    }

    #[test]
    fn majority_costs_four_gates() {
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let result = synthesize_default(&maj).unwrap();
        assert_eq!(result.gate_count, 4, "MAJ3 needs 4 two-input gates");
        for chain in &result.chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], maj);
        }
    }

    #[test]
    fn parity4_costs_three_gates() {
        let spec = TruthTable::from_fn(4, |a| a.iter().fold(false, |x, &b| x ^ b)).unwrap();
        let result = synthesize_default(&spec).unwrap();
        assert_eq!(result.gate_count, 3);
    }

    #[test]
    fn all_solutions_are_distinct() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let result = synthesize_default(&spec).unwrap();
        let mut keys: Vec<String> = result.chains.iter().map(|c| format!("{c}")).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(before, keys.len());
    }

    #[test]
    fn pruning_ablation_agrees_on_gate_count() {
        // Fence pruning must not change the optimum on DSD-style
        // functions.
        for hex in ["8ff8", "7888", "f888"] {
            let spec = TruthTable::from_hex(4, hex).unwrap();
            let pruned = synthesize_default(&spec).unwrap();
            let full = synthesize(
                &spec,
                &SynthesisConfig { fence_pruning: false, ..SynthesisConfig::default() },
            )
            .unwrap();
            assert_eq!(pruned.gate_count, full.gate_count, "hex {hex}");
            assert!(full.shapes_explored >= pruned.shapes_explored);
        }
    }

    #[test]
    fn gate_limit_is_reported() {
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let err = synthesize(&maj, &SynthesisConfig { max_gates: 3, ..SynthesisConfig::default() })
            .unwrap_err();
        assert!(matches!(err, SynthesisError::GateLimitExceeded { max_gates: 3 }));
    }

    #[test]
    fn external_abort_flag_revokes_the_run_and_is_never_rearmed() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        for (objective_spec, optimum) in
            [("gates", 3), ("depth", 3), ("profile:6=5,9=5,default=1", 6)]
        {
            let objective = objective_from_spec(objective_spec).unwrap();
            let flag = Arc::new(AtomicBool::new(true));
            let config = SynthesisConfig {
                abort: Some(Arc::clone(&flag)),
                jobs: 1,
                ..SynthesisConfig::default()
            };
            let err = synthesize_with_objective(&spec, objective.as_ref(), &config).unwrap_err();
            assert!(
                matches!(err, SynthesisError::Timeout),
                "{objective_spec}: a pre-set abort flag revokes the run"
            );
            // The engine must not clear the host's flag (the per-round
            // cancel re-arm does not apply to it).
            assert!(
                flag.load(Ordering::SeqCst),
                "{objective_spec}: the engine never touches the host's abort flag"
            );
            flag.store(false, Ordering::SeqCst);
            let result = synthesize_with_objective(&spec, objective.as_ref(), &config).unwrap();
            assert_eq!(
                result.gate_count, optimum,
                "{objective_spec}: a cleared abort flag restores normal operation"
            );
        }
    }

    #[test]
    fn every_objective_counts_its_returned_solutions() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
        let profile = objective_from_spec("profile:6=5,9=5,default=1").unwrap();
        for objective in [&DepthThenGatesObjective as &dyn CostObjective, profile.as_ref()] {
            let scope = stp_telemetry::CounterScope::enter();
            let result = synthesize_with_objective(&spec, objective, &config).unwrap();
            let counters = scope.finish();
            assert!(!result.chains.is_empty());
            assert_eq!(
                counters.get("synth.solutions").copied().unwrap_or(0),
                result.chains.len() as u64,
                "{}: synth.solutions must count the returned chains once",
                objective.name()
            );
        }
    }

    #[test]
    fn timeout_is_reported() {
        let spec = TruthTable::from_hex(4, "1ee1").unwrap();
        let err = synthesize(
            &spec,
            &SynthesisConfig {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..SynthesisConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::Timeout));
    }

    #[test]
    fn best_by_secondary_cost() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let result = synthesize_default(&spec).unwrap();
        let best_depth = result.best_by(&CostModel::Depth).unwrap();
        assert_eq!(best_depth.depth(), 2);
        // Penalize XOR gates heavily: a non-XOR solution (if any) wins;
        // at minimum the call must return a chain.
        let mut weights = std::collections::HashMap::new();
        weights.insert(0x6u8, 100u64);
        weights.insert(0x9u8, 100u64);
        assert!(result.best_by(&CostModel::WeightedOps { weights, default: 1 }).is_some());
    }

    #[test]
    fn five_input_dsd_function() {
        let spec = TruthTable::from_fn(5, |a| ((a[0] & a[1]) ^ a[2]) | (a[3] & a[4])).unwrap();
        let result = synthesize_default(&spec).unwrap();
        assert_eq!(result.gate_count, 4);
        for chain in &result.chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
        }
    }

    #[test]
    fn depth_objective_finds_balanced_trees() {
        // Parity of four inputs: gate-optimal is 3 gates; the balanced
        // tree also has depth 2 — both objectives coincide here.
        let spec = TruthTable::from_fn(4, |a| a.iter().fold(false, |x, &b| x ^ b)).unwrap();
        let result =
            synthesize_with_objective(&spec, &DepthThenGatesObjective, &SynthesisConfig::default())
                .unwrap();
        assert_eq!(result.gate_count, 3);
        assert!(result.chains.iter().all(|c| c.depth() == 2));
        for chain in &result.chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
        }
    }

    #[test]
    fn depth_objective_can_trade_gates_for_depth() {
        // MAJ3 is gate-optimal at 4 gates; check the depth objective
        // returns depth-minimal chains that still realize the spec and
        // never beat the gate optimum on depth… (it may match it).
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let by_gates = synthesize_default(&maj).unwrap();
        let by_depth =
            synthesize_with_objective(&maj, &DepthThenGatesObjective, &SynthesisConfig::default())
                .unwrap();
        let min_depth_all: usize = by_depth.chains.iter().map(|c| c.depth()).min().unwrap();
        let min_depth_gateopt: usize = by_gates.chains.iter().map(|c| c.depth()).min().unwrap();
        assert!(min_depth_all <= min_depth_gateopt);
        for chain in &by_depth.chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], maj);
        }
    }

    #[test]
    fn objective_min_gates_matches_synthesize() {
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let a = synthesize_default(&spec).unwrap();
        let b = synthesize_with_objective(&spec, &GateCountObjective, &SynthesisConfig::default())
            .unwrap();
        assert_eq!(a.gate_count, b.gate_count);
        assert_eq!(a.chains.len(), b.chains.len());
    }

    #[test]
    fn npn_synthesis_matches_direct_synthesis() {
        for hex in ["8ff8", "6996", "cafe", "1234", "0660"] {
            let spec = TruthTable::from_hex(4, hex).unwrap();
            let direct = synthesize_default(&spec).unwrap();
            let via_npn = synthesize_npn(&spec, &SynthesisConfig::default()).unwrap();
            assert_eq!(direct.gate_count, via_npn.gate_count, "hex {hex}");
            for chain in &via_npn.chains {
                assert_eq!(chain.simulate_outputs().unwrap()[0], spec, "hex {hex}");
                assert_eq!(chain.num_gates(), via_npn.gate_count);
            }
        }
    }

    #[test]
    fn npn_synthesis_shares_class_work() {
        // AND and NOR are one NPN class: both go through the same
        // representative.
        let and2 = TruthTable::from_hex(2, "8").unwrap();
        let nor2 = TruthTable::from_hex(2, "1").unwrap();
        let a = synthesize_npn(&and2, &SynthesisConfig::default()).unwrap();
        let b = synthesize_npn(&nor2, &SynthesisConfig::default()).unwrap();
        assert_eq!(a.gate_count, 1);
        assert_eq!(b.gate_count, 1);
        assert_eq!(a.chains[0].simulate_outputs().unwrap()[0], and2);
        assert_eq!(b.chains[0].simulate_outputs().unwrap()[0], nor2);
    }

    #[test]
    fn sixteen_var_spec_searches_past_first_round() {
        // Regression: an `n >= MAX_VARS` guard used to abort the
        // gate-count loop after the first round for 16-variable specs,
        // misreporting `GateLimitExceeded` for anything needing more
        // than `support − 1` gates.
        let spec =
            TruthTable::from_fn(16, |a| (a[0] & a[1]) | (a[1] & a[15]) | (a[0] & a[15])).unwrap();
        let result =
            synthesize(&spec, &SynthesisConfig { max_gates: 5, ..SynthesisConfig::default() })
                .unwrap();
        assert_eq!(result.gate_count, 4, "MAJ3 embedded in 16 vars needs 4 gates");
        for chain in &result.chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
        }
    }

    #[test]
    fn max_solutions_cap_is_exact_across_fence_groups() {
        // Regression: reaching the cap used to break only the
        // shape loop, so every later fence group pushed one verified
        // chain past the cap. Parity-4 has solutions in two fence
        // families (the balanced tree and the gate chain).
        let spec = TruthTable::from_hex(4, "6996").unwrap();
        for max_solutions in [1usize, 2, 3] {
            let result =
                synthesize(&spec, &SynthesisConfig { max_solutions, ..SynthesisConfig::default() })
                    .unwrap();
            assert_eq!(result.chains.len(), max_solutions, "cap {max_solutions} must bind exactly");
        }
    }

    #[test]
    fn max_solutions_cap_is_exact_for_depth_objective() {
        let spec = TruthTable::from_hex(4, "6996").unwrap();
        let result = synthesize_with_objective(
            &spec,
            &DepthThenGatesObjective,
            &SynthesisConfig { max_solutions: 1, ..SynthesisConfig::default() },
        )
        .unwrap();
        assert_eq!(result.chains.len(), 1);
    }

    #[test]
    fn min_depth_reports_real_fence_count() {
        // Regression: the depth-major sweep used to hard-code
        // `fences_explored: 0` even though it examines whole shape
        // families.
        let spec = TruthTable::from_hex(4, "8ff8").unwrap();
        let result =
            synthesize_with_objective(&spec, &DepthThenGatesObjective, &SynthesisConfig::default())
                .unwrap();
        assert!(result.fences_explored > 0, "depth search examined shapes, hence fences");
    }

    #[test]
    fn parallel_search_matches_sequential_output() {
        for hex in ["8ff8", "6996", "cafe", "e8e8"] {
            let spec = TruthTable::from_hex(4, hex).unwrap();
            let seq = synthesize(&spec, &SynthesisConfig { jobs: 1, ..SynthesisConfig::default() })
                .unwrap();
            let par = synthesize(&spec, &SynthesisConfig { jobs: 4, ..SynthesisConfig::default() })
                .unwrap();
            assert_eq!(seq.gate_count, par.gate_count, "hex {hex}");
            let seq_chains: Vec<String> = seq.chains.iter().map(|c| format!("{c}")).collect();
            let par_chains: Vec<String> = par.chains.iter().map(|c| format!("{c}")).collect();
            assert_eq!(seq_chains, par_chains, "hex {hex}: chain sets and order must match");
        }
    }

    #[test]
    fn parallel_search_respects_exact_cap() {
        let spec = TruthTable::from_hex(4, "6996").unwrap();
        let seq = synthesize(
            &spec,
            &SynthesisConfig { jobs: 1, max_solutions: 1, ..SynthesisConfig::default() },
        )
        .unwrap();
        let par = synthesize(
            &spec,
            &SynthesisConfig { jobs: 4, max_solutions: 1, ..SynthesisConfig::default() },
        )
        .unwrap();
        assert_eq!(seq.chains.len(), 1);
        assert_eq!(par.chains.len(), 1);
        assert_eq!(format!("{}", seq.chains[0]), format!("{}", par.chains[0]));
    }

    #[test]
    fn parallel_timeout_is_reported() {
        let spec = TruthTable::from_hex(4, "1ee1").unwrap();
        let err = synthesize(
            &spec,
            &SynthesisConfig {
                jobs: 4,
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..SynthesisConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::Timeout));
    }

    #[test]
    fn depth_objective_parallel_matches_sequential() {
        let spec = TruthTable::from_fn(4, |a| a.iter().fold(false, |x, &b| x ^ b)).unwrap();
        let seq = synthesize_with_objective(
            &spec,
            &DepthThenGatesObjective,
            &SynthesisConfig { jobs: 1, ..SynthesisConfig::default() },
        )
        .unwrap();
        let par = synthesize_with_objective(
            &spec,
            &DepthThenGatesObjective,
            &SynthesisConfig { jobs: 3, ..SynthesisConfig::default() },
        )
        .unwrap();
        assert_eq!(seq.gate_count, par.gate_count);
        let seq_chains: Vec<String> = seq.chains.iter().map(|c| format!("{c}")).collect();
        let par_chains: Vec<String> = par.chains.iter().map(|c| format!("{c}")).collect();
        assert_eq!(seq_chains, par_chains);
    }

    #[test]
    fn function_with_partial_support() {
        // Depends only on x1 and x3 of four inputs.
        let spec = TruthTable::from_fn(4, |a| a[1] ^ a[3]).unwrap();
        let result = synthesize_default(&spec).unwrap();
        assert_eq!(result.gate_count, 1);
        assert_eq!(result.chains[0].simulate_outputs().unwrap()[0], spec);
    }

    #[test]
    fn explicit_depth_budget_is_its_own_bound() {
        // MAJ3 needs depth ≥ 2, so an explicit depth budget of 1 must
        // fail with the depth error — historically the depth sweep ran
        // off the gate budget and could only report GateLimitExceeded.
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let tight = SynthesisConfig { max_depth: Some(1), jobs: 1, ..SynthesisConfig::default() };
        let err = synthesize_with_objective(&maj, &DepthThenGatesObjective, &tight).unwrap_err();
        assert!(matches!(err, SynthesisError::DepthLimitExceeded { max_depth: 1 }), "got {err:?}");
        // A budget at or above the depth optimum changes nothing.
        let free = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
        let unrestricted =
            synthesize_with_objective(&maj, &DepthThenGatesObjective, &free).unwrap();
        let roomy = SynthesisConfig { max_depth: Some(3), jobs: 1, ..SynthesisConfig::default() };
        let bounded = synthesize_with_objective(&maj, &DepthThenGatesObjective, &roomy).unwrap();
        let render = |r: &SynthesisResult| -> Vec<String> {
            r.chains.iter().map(|c| format!("{c}")).collect()
        };
        assert_eq!(render(&unrestricted), render(&bounded));
    }

    #[test]
    fn gate_count_search_honors_the_depth_budget() {
        // Parity over four inputs takes three XOR gates, either linear
        // (depth 3) or balanced (depth 2). A depth budget of 2 keeps
        // only the balanced trees without changing the optimum count.
        let spec = TruthTable::from_fn(4, |a| a.iter().fold(false, |x, &b| x ^ b)).unwrap();
        let free = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
        let all = synthesize(&spec, &free).unwrap();
        assert!(all.chains.iter().any(|c| c.depth() > 2), "linear trees exist unrestricted");
        let bounded = synthesize(
            &spec,
            &SynthesisConfig { max_depth: Some(2), jobs: 1, ..SynthesisConfig::default() },
        )
        .unwrap();
        assert_eq!(bounded.gate_count, 3);
        assert!(!bounded.chains.is_empty());
        assert!(bounded.chains.iter().all(|c| c.depth() <= 2));
        assert!(bounded.chains.len() < all.chains.len());
    }

    #[test]
    fn objective_specs_parse_and_reject() {
        assert_eq!(objective_from_spec("gates").unwrap().name(), "gates");
        assert!(objective_from_spec("depth").unwrap().depth_major());
        let profile = objective_from_spec("profile:6=3,9=3,default=2").unwrap();
        assert_eq!(profile.name(), "profile:6=3,9=3,default=2");
        // min weight is the default 2 (only XOR/XNOR pay 3).
        assert_eq!(profile.gate_count_lower_bound(2), 4);
        for (spec, needle) in [
            ("speed", "unknown objective `speed`"),
            ("profile:", "at least one"),
            ("profile:6", "not of the form"),
            ("profile:zz=1", "not a 4-bit LUT hex code"),
            ("profile:6=x", "unsigned integer"),
        ] {
            let err = objective_from_spec(spec).unwrap_err();
            assert!(err.contains(needle), "`{err}` should name the bad component `{needle}`");
        }
    }

    #[test]
    fn profile_objective_trades_gate_count_for_cheap_operators() {
        // XOR/XNOR cost 5 under this profile while everything else
        // costs 1: the single-gate XOR realization (cost 5) loses to a
        // three-gate AND/OR decomposition (cost 3), so the sweep must
        // keep searching past the first non-empty round.
        let xor = TruthTable::from_hex(2, "6").unwrap();
        let profile = objective_from_spec("profile:6=5,9=5,default=1").unwrap();
        let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
        let result = synthesize_with_objective(&xor, profile.as_ref(), &config).unwrap();
        assert_eq!(result.gate_count, 3);
        assert!(!result.chains.is_empty());
        for chain in &result.chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], xor);
            assert_eq!(profile.chain_cost(chain), 3);
            assert!(chain.gates().iter().all(|g| g.tt2 != 0x6 && g.tt2 != 0x9));
        }
    }

    #[test]
    fn multi_spec_validates_inputs() {
        assert!(matches!(MultiSpec::new(vec![]), Err(SynthesisError::InvalidMultiSpec { .. })));
        let two = TruthTable::from_hex(2, "6").unwrap();
        let three = TruthTable::from_hex(3, "e8").unwrap();
        assert!(matches!(
            MultiSpec::new(vec![two, three]),
            Err(SynthesisError::InvalidMultiSpec { .. })
        ));
    }

    #[test]
    fn multi_output_full_adder_shares_gates() {
        // sum = a⊕b⊕c (2 gates), carry = MAJ3 (4 gates); among the
        // all-optimum sets there is a pair sharing an a⊕b node, so the
        // merged chain spends 5 gates, not 6.
        let sum = TruthTable::from_fn(3, |a| a[0] ^ a[1] ^ a[2]).unwrap();
        let carry = TruthTable::from_hex(3, "e8").unwrap();
        let multi = MultiSpec::new(vec![sum.clone(), carry.clone()]).unwrap();
        let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
        let result = synthesize_multi(&multi, &GateCountObjective, &config).unwrap();
        assert_eq!(result.chain.simulate_outputs().unwrap(), vec![sum, carry]);
        assert_eq!(result.per_output_gates, vec![2, 4]);
        assert!(result.gates_saved >= 1, "the adder must share at least one gate");
        assert_eq!(result.chain.num_gates(), 5);
        assert_eq!(result.objective_cost, result.chain.num_gates() as u64);
        assert!(result.combinations_tried >= 1);
    }

    #[test]
    fn merged_chains_are_checked_in_release_builds() {
        let sum = TruthTable::from_fn(3, |a| a[0] ^ a[1] ^ a[2]).unwrap();
        let carry = TruthTable::from_hex(3, "e8").unwrap();
        let multi = MultiSpec::new(vec![sum.clone(), carry.clone()]).unwrap();
        let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
        let chain = synthesize_multi(&multi, &GateCountObjective, &config).unwrap().chain;
        assert_eq!(check_realizes(&chain, &[sum.clone(), carry.clone()]), Ok(()));
        // The same chain against its outputs swapped is withheld.
        let err = check_realizes(&chain, &[carry, sum]).unwrap_err();
        assert_eq!(err, SynthesisError::Unrealized { specs: "e8+96".into() });
        assert_eq!(err.to_string(), "synthesized chain does not realize e8+96");
    }

    #[test]
    fn multi_output_synthesis_is_deterministic_across_jobs() {
        let sum = TruthTable::from_fn(3, |a| a[0] ^ a[1] ^ a[2]).unwrap();
        let carry = TruthTable::from_hex(3, "e8").unwrap();
        let multi = MultiSpec::new(vec![sum, carry]).unwrap();
        let seq = synthesize_multi(
            &multi,
            &GateCountObjective,
            &SynthesisConfig { jobs: 1, ..SynthesisConfig::default() },
        )
        .unwrap();
        let par = synthesize_multi(
            &multi,
            &GateCountObjective,
            &SynthesisConfig { jobs: 4, ..SynthesisConfig::default() },
        )
        .unwrap();
        assert_eq!(format!("{}", seq.chain), format!("{}", par.chain));
        assert_eq!(seq.per_output_gates, par.per_output_gates);
        assert_eq!(seq.gates_saved, par.gates_saved);
    }

    #[test]
    fn multi_output_store_shares_orbit_entries() {
        let store = Store::new();
        let sum = TruthTable::from_fn(3, |a| a[0] ^ a[1] ^ a[2]).unwrap();
        let carry = TruthTable::from_hex(3, "e8").unwrap();
        let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
        let first = MultiSpec::new(vec![sum.clone(), carry.clone()]).unwrap();
        let chain = synthesize_multi_npn_with_store(&first, &config, &store).unwrap();
        assert_eq!(chain.simulate_outputs().unwrap(), vec![sum.clone(), carry.clone()]);
        assert_eq!(store.misses(), 1);
        // An orbit member — outputs swapped, one output complemented —
        // answers from the same entry without re-running the engine.
        let second = MultiSpec::new(vec![!carry.clone(), sum.clone()]).unwrap();
        let mapped = synthesize_multi_npn_with_store(&second, &config, &store).unwrap();
        assert_eq!(mapped.simulate_outputs().unwrap(), vec![!carry, sum]);
        assert_eq!(store.misses(), 1, "the orbit member must hit the cached class");
        assert_eq!(store.hits(), 1);
        assert_eq!(store.len(), 1);
    }
}
