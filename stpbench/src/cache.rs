//! `npn_cache`: a closed-loop caller of `synthesize_npn_with_store` on a
//! journaled store — the rewriting traffic of small functions through
//! the NPN cache.
//!
//! The caller repeats a seeded period of calls (see [`period`]): 80 % of
//! them for a hot pool of 4-input functions whose classes are warmed
//! during set-up (the reads), 20 % for a pool of fresh 5-input functions,
//! half fully DSD and half with a 3-input prime block, whose first
//! sighting per class is a miss: synthesis, insert, and an fsynced
//! journal append (the writes). The fresh pool is bounded because miss
//! costs are heavy-tailed: a 5-input function with a 4-input prime block
//! can take tens of seconds, which would make the workload measure one
//! synthesis instead of the cache.
//!
//! The end-to-end metrics charge each call of a period its spec's best
//! latency of the run (see `stats::best_per_key`); a spec's first-sighting
//! miss is therefore not in them, only in a traced run's store and
//! synthesis numbers.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use stp_chain::Chain;
use stp_store::Store;
use stp_synth::{synthesize_npn_with_store, warm_classes, SynthesisConfig};
use stp_telemetry::metrics_global;
use stp_tt::{canonicalize, random_fdsd_tree, random_pdsd, TruthTable};

use crate::batch::{random_transform, shuffle};
use crate::check::{check_chains, check_counts, fingerprint, npn4_reference, Expect};
use crate::layers::{ratio, Layers};
use crate::report::{EndToEnd, RunResult, Tally};
use crate::stats::{best_per_key, percentile};
use crate::RunConfig;

/// Per-call time limit.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Calls of hot-pool functions per call of a fresh one: 80 % of the calls
/// are reads.
const HOT_PER_FRESH: usize = 4;

/// A warmed store and the pools the caller draws from.
struct Prepared {
    store: Store,
    hot: Vec<(TruthTable, Expect)>,
    fresh: Vec<(TruthTable, Expect)>,
}

/// Seed of the pools' fixed class structure; the run seed relabels each
/// member (input permutation and negations, output negation), so every
/// seed calls different functions of the same classes and the per-call
/// work, dominated by how many chains each class maps back, stays
/// comparable across seeds.
const POOLS_SEED: u64 = 0x6e70_6e5f_6361_6368;

/// The hot pool: non-trivial 4-input functions, each with its class's
/// recorded reference.
pub(crate) fn hot_pool(seed: u64, size: usize) -> Vec<(TruthTable, Expect)> {
    let reference = npn4_reference();
    let mut base = SmallRng::seed_from_u64(POOLS_SEED);
    let mut relabel = SmallRng::seed_from_u64(seed);
    let mut bases: Vec<TruthTable> = Vec::with_capacity(size);
    while bases.len() < size {
        let f = TruthTable::from_u64(4, base.random_range(0..1u64 << 16)).expect("16 bits");
        if !f.is_trivial() && !bases.contains(&f) {
            bases.push(f);
        }
    }
    bases
        .iter()
        .map(|f| {
            let spec = random_transform(4, &mut relabel).apply(f).expect("arity 4");
            let rep = canonicalize(&spec).representative.to_hex();
            (spec, Expect::Recorded(reference[&rep]))
        })
        .collect()
}

/// The fresh pool: 5-input functions, alternately fully DSD (checked
/// against their tree) and with a 3-input prime block.
fn fresh_pool(seed: u64, size: usize) -> Vec<(TruthTable, Expect)> {
    let mut base = SmallRng::seed_from_u64(POOLS_SEED ^ 5);
    let mut relabel = SmallRng::seed_from_u64(seed ^ 5);
    (0..size)
        .map(|i| {
            let (f, expect) = if i % 2 == 0 {
                let tree = random_fdsd_tree(5, &mut base);
                (tree.to_truth_table(5).expect("tree over 5 variables"), Expect::dsd(&tree, 5))
            } else {
                (random_pdsd(5, 3, &mut base), Expect::Function)
            };
            (random_transform(5, &mut relabel).apply(&f).expect("arity 5"), expect)
        })
        .collect()
}

/// Opens a journaled store under `dir` and warms the hot pool's classes.
fn prepare(config: &RunConfig, dir: &str) -> Result<Prepared, String> {
    let hot = hot_pool(config.seed, config.sizes.hot);
    let fresh = fresh_pool(config.seed, config.sizes.cache_fresh);
    let dir = config.workdir.join(dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = Store::open(dir.join("npn.store")).map_err(|e| format!("store open: {e}"))?;
    let warm = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
    let specs: Vec<TruthTable> = hot.iter().map(|(s, _)| s.clone()).collect();
    warm_classes(&store, &warm, Some(CALL_TIMEOUT), &specs).map_err(|e| format!("warm: {e}"))?;
    Ok(Prepared { store, hot, fresh })
}

/// Checks one answer: in full the first time a spec is seen, against the
/// first answer's fingerprint after that (the store answers a spec
/// deterministically).
fn check_answer(
    seen: &mut HashMap<TruthTable, u64>,
    spec: &TruthTable,
    expect: Expect,
    chains: &[Chain],
    gates: usize,
) -> Result<(), String> {
    let fp = fingerprint(chains);
    match seen.get(spec) {
        Some(&first) if first == fp => Ok(()),
        Some(_) => Err(format!("{}: chains differ from the first answer", spec.to_hex())),
        None => {
            check_chains(spec, chains, gates)
                .and_then(|()| check_counts(spec, expect, gates, chains.len()))?;
            seen.insert(spec.clone(), fp);
            Ok(())
        }
    }
}

/// What the caller measured.
#[derive(Default)]
struct Outcome {
    /// Calls: the spec's index (hot pool first, then fresh) and the
    /// latency, seconds.
    latencies: Vec<(usize, f64)>,
    tally: Tally,
    /// Chains and gates summed over the answers.
    chains: u64,
    gates: u64,
}

/// The seeded period of the call stream, as indices into the hot pool
/// followed by the fresh pool: every fresh function once, and every hot
/// function equally often, [`HOT_PER_FRESH`] times as many calls in all.
/// A fixed composition instead of random draws gives every seed the same
/// mix of calls, and with it the same metrics.
fn period(seed: u64, hot: usize, fresh: usize) -> Vec<usize> {
    let per_hot = (HOT_PER_FRESH * fresh).div_ceil(hot);
    let mut keys: Vec<usize> = (0..hot).flat_map(|k| std::iter::repeat_n(k, per_hot)).collect();
    keys.extend(hot..hot + fresh);
    shuffle(&mut keys, &mut SmallRng::seed_from_u64(seed ^ (1 << 32)));
    keys
}

/// Calls the store, cycling through `period`, until `seconds` have passed.
fn drive(config: &RunConfig, prepared: &Prepared, period: &[usize]) -> Outcome {
    let mut seen = HashMap::new();
    let mut out = Outcome::default();
    let specs: Vec<&(TruthTable, Expect)> = prepared.hot.iter().chain(&prepared.fresh).collect();
    let end = Instant::now() + Duration::from_secs_f64(config.seconds);
    for &key in period.iter().cycle() {
        if Instant::now() >= end {
            break;
        }
        let (spec, expect) = specs[key];
        let call = SynthesisConfig {
            jobs: 1,
            deadline: Some(Instant::now() + CALL_TIMEOUT),
            ..SynthesisConfig::default()
        };
        let t0 = Instant::now();
        let answer = synthesize_npn_with_store(spec, &call, &prepared.store);
        out.latencies.push((key, t0.elapsed().as_secs_f64()));
        match answer {
            Ok(r) => {
                out.chains += r.chains.len() as u64;
                out.gates += r.gate_count as u64;
                let check = check_answer(&mut seen, spec, *expect, &r.chains, r.gate_count);
                out.tally.check(check);
            }
            Err(e) => out.tally.fail(format!("{}: {e}", spec.to_hex())),
        }
    }
    out
}

/// Runs the `npn_cache` workload.
///
/// # Errors
///
/// A message when the store cannot be opened or warmed.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let (prepared, setup_s) =
        crate::set_up(config.sizes.setup_rounds, |k| prepare(config, &format!("store-{k}")))?;
    let keys = prepared.hot.len() + prepared.fresh.len();
    let period = period(config.seed, prepared.hot.len(), prepared.fresh.len());
    let before = metrics_global().snapshot();
    let out = drive(config, &prepared, &period);
    let delta = metrics_global().snapshot().delta_since(&before);

    let metrics = if config.trace {
        let mut layers = Layers::from_delta(&delta, 1.0);
        layers.busy_s = out.latencies.iter().map(|l| l.1).sum();
        layers.npn_chains_per_answer = ratio(out.chains as f64, out.latencies.len() as f64);
        layers.gates_total = out.gates as f64;
        layers.metrics()
    } else {
        let best = best_per_key(&out.latencies, keys);
        let calls_ms: Vec<f64> = period.iter().map(|&key| best[key] * 1e3).collect();
        EndToEnd {
            throughput_per_s: calls_ms.len() as f64 / (calls_ms.iter().sum::<f64>() / 1e3),
            latency_p50_ms: percentile(&calls_ms, 0.5),
            latency_tail_ms: percentile(&calls_ms, 0.99),
            setup_s,
        }
        .metrics()
    };
    Ok(RunResult { tally: out.tally, metrics })
}
