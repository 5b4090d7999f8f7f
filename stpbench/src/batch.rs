//! The batch workloads `npn4_cold` and `fdsd8_cold`: a suite of specs
//! through `synthesize`, one at a time, with no store, so every instance
//! starts cold.
//!
//! A run repeats the suite until its measurement time is up and times
//! every instance in every pass. The metrics come from each instance's
//! best time over the passes (see `stats::best_per_key`).

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use stp_synth::{synthesize, SynthesisConfig};
use stp_telemetry::metrics_global;
use stp_tt::{npn_classes, random_fdsd_tree, NpnTransform, TruthTable};

use crate::check::{check_chains, check_counts, fingerprint, npn4_reference, Expect};
use crate::layers::Layers;
use crate::report::{EndToEnd, RunResult, Tally};
use crate::stats::{best_per_key, median, percentile};
use crate::{RunConfig, Sizes};

/// The largest optimum of the NPN4 classes `npn4_cold` runs. The 28
/// classes of 7 gates take 95 % of the time of all 222 (up to 2 s each,
/// 20 s together); without them a pass takes about 1.2 s, so a run
/// repeats the suite often enough for every instance to meet a quiet
/// moment of the host.
pub const NPN4_MAX_GATES: usize = 6;

/// Passes every run makes, however long they take: the second pass
/// checks that synthesis repeats its answers.
const MIN_PASSES: usize = 2;

/// Per-instance time limit, as in the paper's Table I runs.
const INSTANCE_TIMEOUT: Duration = Duration::from_secs(60);

/// Seed of the fixed FDSD8 trees. The run seed only orders them, as it
/// orders the NPN4 classes: relabeling a tree's inputs keeps its optimum
/// and solution count but not the engine's work, which moved by up to
/// 1.8× on some trees, so the metrics would follow which relabelings a
/// seed drew.
const FDSD8_TREES_SEED: u64 = 0x4644_5344_3820_5452;

/// Which batch suite to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// NPN4 class representatives, checked against `expected/npn4.tsv`.
    Npn4,
    /// FDSD8 functions, checked against their DSD trees.
    Fdsd8,
}

/// One spec with the reference its answer is checked against.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The specification.
    pub spec: TruthTable,
    /// The gate-count reference.
    pub expect: Expect,
}

/// Builds the suite's instances for `seed`, in a seeded order.
///
/// # Panics
///
/// Panics if the embedded NPN4 reference lacks a class (a broken build
/// input).
pub fn instances(suite: Suite, seed: u64, sizes: &Sizes) -> Vec<Instance> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut list: Vec<Instance> = match suite {
        Suite::Npn4 => {
            let reference = npn4_reference();
            npn_classes(4)
                .into_iter()
                .map(|spec| Instance { expect: Expect::Recorded(reference[&spec.to_hex()]), spec })
                .filter(|i| matches!(i.expect, Expect::Recorded(r) if r.gates <= NPN4_MAX_GATES))
                .take(sizes.npn4_classes)
                .collect()
        }
        Suite::Fdsd8 => {
            let mut trees = SmallRng::seed_from_u64(FDSD8_TREES_SEED);
            (0..sizes.fdsd8_functions)
                .map(|_| {
                    let tree = random_fdsd_tree(8, &mut trees);
                    let spec = tree.to_truth_table(8).expect("tree over 8 variables");
                    Instance { spec, expect: Expect::dsd(&tree, 8) }
                })
                .collect()
        }
    };
    shuffle(&mut list, &mut rng);
    list
}

/// A uniformly random NPN transform on `n` inputs.
pub fn random_transform(n: usize, rng: &mut SmallRng) -> NpnTransform {
    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(&mut perm, rng);
    NpnTransform {
        perm,
        input_negations: rng.random_range(0..1u32 << n),
        output_negated: rng.random_bool(0.5),
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// How long the set-up before each pass builds the suite, back to back:
/// a single FDSD8 build takes a third of a millisecond, so a run times
/// hundreds of builds and reports their median.
const BUILD_TIME: Duration = Duration::from_millis(30);

/// Builds the suite for the run's seed repeatedly for [`BUILD_TIME`],
/// pushing each build's time in seconds onto `times`; returns the last
/// build.
fn build(suite: Suite, config: &RunConfig, times: &mut Vec<f64>) -> Vec<Instance> {
    let start = Instant::now();
    loop {
        let build_start = Instant::now();
        let list = instances(suite, config.seed, &config.sizes);
        times.push(build_start.elapsed().as_secs_f64());
        if start.elapsed() >= BUILD_TIME {
            return list;
        }
    }
}

/// One synthesis of one instance in one pass.
struct Item {
    /// Synthesis time, seconds.
    secs: f64,
    /// Fingerprint, gate count and solution count, or the failure.
    answer: Result<(u64, usize, usize), String>,
    /// `Err` when the answer is wrong.
    check: Result<(), String>,
}

fn pass(instances: &[Instance]) -> Vec<Item> {
    instances
        .iter()
        .map(|Instance { spec, expect }| {
            let config = SynthesisConfig {
                jobs: 1,
                deadline: Some(Instant::now() + INSTANCE_TIMEOUT),
                ..SynthesisConfig::default()
            };
            let start = Instant::now();
            let outcome = synthesize(spec, &config);
            let secs = start.elapsed().as_secs_f64();
            match outcome {
                Ok(r) => Item {
                    secs,
                    answer: Ok((fingerprint(&r.chains), r.gate_count, r.chains.len())),
                    check: check_chains(spec, &r.chains, r.gate_count)
                        .and_then(|()| check_counts(spec, *expect, r.gate_count, r.chains.len())),
                },
                Err(e) => {
                    Item { secs, answer: Err(format!("{}: {e}", spec.to_hex())), check: Ok(()) }
                }
            }
        })
        .collect()
}

/// Runs a batch workload.
///
/// # Errors
///
/// None at present; the signature matches the other workloads.
pub fn run(suite: Suite, config: &RunConfig) -> Result<RunResult, String> {
    // Every pass builds the suite afresh, and `setup_s` is the median
    // build: builds spread over the whole run, rather than a few back to
    // back, keep a slow moment of the host from deciding it. Another pass
    // starts only while the time left would hold it.
    let before = metrics_global().snapshot();
    let start = Instant::now();
    let mut builds = Vec::new();
    let mut passes: Vec<Vec<Item>> = Vec::new();
    let instances = loop {
        let pass_start = Instant::now();
        let instances = build(suite, config, &mut builds);
        passes.push(pass(&instances));
        let left = config.seconds - start.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && left < pass_start.elapsed().as_secs_f64() {
            break instances;
        }
    };
    let delta = metrics_global().snapshot().delta_since(&before);

    // Every pass must return what the first pass returned.
    let reference: Vec<Option<u64>> =
        passes[0].iter().map(|item| item.answer.as_ref().ok().map(|a| a.0)).collect();
    let mut tally = Tally::default();
    for pass in &passes {
        for (idx, item) in pass.iter().enumerate() {
            match &item.answer {
                Err(e) => tally.fail(e.clone()),
                Ok((fp, ..)) if reference[idx] != Some(*fp) => tally.wrong(format!(
                    "{}: chains differ from the first pass",
                    instances[idx].spec.to_hex()
                )),
                Ok(_) => tally.check(item.check.clone()),
            }
        }
    }

    let metrics = if config.trace {
        let n = passes.len() as f64;
        let mut layers = Layers::from_delta(&delta, n);
        layers.busy_s = passes.iter().flatten().map(|i| i.secs).sum::<f64>() / n;
        layers.gates_total =
            passes[0].iter().filter_map(|i| i.answer.as_ref().ok()).map(|a| a.1 as f64).sum();
        layers.metrics()
    } else {
        let samples: Vec<(usize, f64)> = passes
            .iter()
            .flat_map(|pass| pass.iter().enumerate())
            .filter(|(_, item)| item.answer.is_ok())
            .map(|(idx, item)| (idx, item.secs))
            .collect();
        let mut best = best_per_key(&samples, instances.len());
        best.retain(|s| s.is_finite());
        let best_ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
        EndToEnd {
            throughput_per_s: best.len() as f64 / best.iter().sum::<f64>(),
            latency_p50_ms: percentile(&best_ms, 0.5),
            latency_tail_ms: percentile(&best_ms, 0.9),
            setup_s: median(&builds),
        }
        .metrics()
    };
    Ok(RunResult { tally, metrics })
}
