//! Micro-kernels of the STP machinery: the semi-tensor product itself,
//! canonical-form construction, canonical-form AllSAT, and the circuit
//! AllSAT solver, alone and as the candidate check `verify_chain` — plus
//! the three parts of an NPN store hit (`npn_kernels`): canonicalize,
//! the store lookup, and the map-back of a warmed class's chains (all of
//! them, or the one checked first chain) — plus a rewriting pass's cut
//! enumeration, cut functions and warm per-cut store lookup
//! (`network_kernels`) and one cold factorization round
//! (`factor_kernels`), without and with verification of its candidates
//! — plus `verified_chains_fdsd8`, the optimum round of the first
//! function of stpbench's `fdsd8_cold` suite, verified.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::time::Duration;
use stp_bench::suites;
use stp_chain::{Chain, ChainError, OutputRef};
use stp_fence::{pruned_fences, shapes_for_fence};
use stp_matrix::{solve_all, stp, swap_matrix, Expr, LogicMatrix, Mat};
use stp_network::{enumerate_cuts, random_network, Cut, CutEvaluator};
use stp_store::{Entry, NpnOutcome, RepOutcome, Store};
use stp_synth::{
    solve_circuit, synthesize, verify_chain, FactorConfig, Factorizer, SynthesisConfig,
};
use stp_tt::{canonicalize, random_fdsd_tree, TruthTable};

fn liar_puzzle() -> Expr {
    let (a, b, c) = (Expr::var(0), Expr::var(1), Expr::var(2));
    Expr::and(
        Expr::and(Expr::equiv(a.clone(), b.clone().not()), Expr::equiv(b.clone(), c.clone().not())),
        Expr::equiv(c, Expr::and(a.not(), b.not())),
    )
}

fn example7_chain() -> Chain {
    let mut chain = Chain::new(4);
    let x5 = chain.add_gate(2, 3, 0x6).unwrap();
    let x6 = chain.add_gate(0, 1, 0x8).unwrap();
    let x7 = chain.add_gate(x5, x6, 0xe).unwrap();
    chain.add_output(OutputRef::signal(x7));
    chain
}

fn bench_stp_product(c: &mut Criterion) {
    let w = swap_matrix(8, 8);
    let m = Mat::identity(8).kron(&Mat::from_rows(&[&[1, 2], &[3, 4]]).unwrap());
    c.bench_function("stp_product_64x64", |b| b.iter(|| stp(black_box(&w), black_box(&m))));
}

fn bench_canonical_form(c: &mut Criterion) {
    let phi = liar_puzzle();
    c.bench_function("canonical_form_direct", |b| {
        b.iter(|| phi.canonical_form(black_box(3)).unwrap())
    });
    c.bench_function("canonical_form_via_stp_matrices", |b| {
        b.iter(|| phi.canonical_form_via_stp(black_box(3)).unwrap())
    });
}

fn bench_canonical_allsat(c: &mut Criterion) {
    let m8 = LogicMatrix::from_tt_words(
        TruthTable::from_fn(8, |a| a.iter().filter(|&&b| b).count() % 3 == 0).unwrap().words(),
        8,
    )
    .unwrap();
    c.bench_function("canonical_allsat_8var", |b| b.iter(|| solve_all(black_box(&m8)).len()));
}

fn bench_circuit_solver(c: &mut Criterion) {
    let chain = example7_chain();
    c.bench_function("circuit_allsat_example8", |b| {
        b.iter(|| solve_circuit(black_box(&chain), &[true]).full_assignments().len())
    });
    // A deeper chain: 8-input parity.
    let mut parity = Chain::new(8);
    let mut prev = 0usize;
    for i in 1..8 {
        prev = parity.add_gate(prev, i, 0x6).unwrap();
    }
    parity.add_output(OutputRef::signal(prev));
    c.bench_function("circuit_allsat_parity8", |b| {
        b.iter(|| solve_circuit(black_box(&parity), &[true]).partial_solutions.len())
    });
    // Step iv on an FDSD8-style candidate: a 7-gate DSD tree over 8
    // inputs, f = ((x0 ^ x1) & (x2 | x3)) | ((x4 & !x5) ^ (x6 | x7)).
    let mut tree = Chain::new(8);
    let g0 = tree.add_gate(0, 1, 0x6).unwrap();
    let g1 = tree.add_gate(2, 3, 0xe).unwrap();
    let g2 = tree.add_gate(4, 5, 0x2).unwrap();
    let g3 = tree.add_gate(6, 7, 0xe).unwrap();
    let g4 = tree.add_gate(g0, g1, 0x8).unwrap();
    let g5 = tree.add_gate(g2, g3, 0x6).unwrap();
    let top = tree.add_gate(g4, g5, 0xe).unwrap();
    tree.add_output(OutputRef::signal(top));
    let spec = tree.simulate_outputs().unwrap().remove(0);
    assert!(verify_chain(&tree, &spec).unwrap(), "the bench times the accept path");
    c.bench_function("circuit_verify_fdsd8", |b| {
        b.iter(|| verify_chain(black_box(&tree), black_box(&spec)).unwrap())
    });
    // The wide end: 16-input AND and XOR chains. Verification propagates
    // 1 024-word covers, so the AND chain (one cube per subproblem) pays
    // for the words and the XOR chain (cube lists that double per gate)
    // gains from them.
    for (name, op) in [("circuit_verify_and16", 0x8), ("circuit_verify_xor16", 0x6)] {
        let mut chain = Chain::new(16);
        let mut prev = 0usize;
        for i in 1..16 {
            prev = chain.add_gate(prev, i, op).unwrap();
        }
        chain.add_output(OutputRef::signal(prev));
        let spec = chain.simulate_outputs().unwrap().remove(0);
        assert!(verify_chain(&chain, &spec).unwrap(), "the bench times the accept path");
        c.bench_function(name, |b| {
            b.iter(|| verify_chain(black_box(&chain), black_box(&spec)).unwrap())
        });
    }
}

fn bench_npn_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("npn_kernels");
    group.sample_size(200);
    // The three parts of a hit on a warmed class with hundreds of
    // optimum chains: 0x17e8 (672 chains of 5 gates) and
    // MAJ(x0, x1, x2) ^ x3·x4 = 0x17e8e8e8 (480 chains of 6 gates).
    for (n, hex) in [(4, "17e8"), (5, "17e8e8e8")] {
        let spec = TruthTable::from_hex(n, hex).unwrap();
        // At 4 inputs every iteration after the first is a memo hit; the
        // 5- and 8-input benches time the orbit walk.
        group.bench_function(BenchmarkId::new("canonicalize", n), |b| {
            b.iter(|| canonicalize(black_box(&spec)))
        });
        let canon = canonicalize(&spec);
        let rep = canon.representative;
        let store = Store::new();
        let chains = synthesize(&rep, &SynthesisConfig::default()).unwrap().chains;
        store.insert(rep.clone(), Entry::Solved(chains));
        let never = |_: &TruthTable| -> Result<RepOutcome, ChainError> { unreachable!("warmed") };
        group.bench_function(BenchmarkId::new("store_hit", n), |b| {
            b.iter(|| store.lookup_or_solve(black_box(&rep), Duration::MAX, never).unwrap())
        });
        let NpnOutcome::Solved(view) = store.solve_npn(&spec, Duration::MAX, never).unwrap() else {
            unreachable!("warmed")
        };
        // Every chain of the class, as `synthesize_npn_with_store` maps
        // them, against the one checked chain `stpd` and rewriting read.
        group.bench_function(BenchmarkId::new("map_back", n), |b| {
            b.iter(|| {
                let mut chains = Vec::with_capacity(view.len());
                chains.extend(black_box(&view).iter().map(Result::unwrap));
                chains
            })
        });
        group.bench_function(BenchmarkId::new("map_first", n), |b| {
            b.iter(|| black_box(&view).first().unwrap())
        });
    }
    group.sample_size(10);
    let f8 =
        TruthTable::from_hex(8, "9ae7c3f1085b264d6c1e0f39a4b7d2e85f0c3a91e7b4d268a1c9e3f70b5d2486")
            .unwrap();
    group.bench_function(BenchmarkId::new("canonicalize", 8), |b| {
        b.iter(|| canonicalize(black_box(&f8)))
    });
    group.finish();
}

fn bench_network_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_kernels");
    // Every rewriting cut function of one pass over a seeded 8-input,
    // 40-gate random network (the stpbench request shape), through one
    // reused evaluator as `rewrite_pass` runs them.
    let mut rng = SmallRng::seed_from_u64(7);
    let net = random_network(8, 40, 4, &mut rng).unwrap();
    group.bench_function("enumerate_cuts", |b| {
        b.iter(|| enumerate_cuts(black_box(&net), 4, 8).len())
    });
    let cuts = enumerate_cuts(&net, 4, 8);
    let work: Vec<(usize, &Cut)> = (0..net.num_signals())
        .filter(|&s| net.is_gate(s))
        .flat_map(|s| cuts.of(s).iter().filter(|c| c.len() >= 2).map(move |c| (s, c)))
        .collect();
    let mut evaluator = CutEvaluator::new();
    group.bench_function("cut_function", |b| {
        b.iter(|| {
            work.iter()
                .map(|&(s, cut)| evaluator.eval(black_box(&net), s, cut).unwrap().count_ones())
                .sum::<usize>()
        })
    });
    // The lookup a rewriting pass makes per cut function on a warm
    // store: canonicalize a 4-input spec that is not its class
    // representative, probe the store, and read the answer's gate count
    // without mapping a chain back.
    let spec = !TruthTable::from_hex(4, "17e8").unwrap().flip_input(0);
    let store = Store::new();
    let solve = |rep: &TruthTable| -> Result<RepOutcome, ChainError> {
        Ok(RepOutcome::Solved(synthesize(rep, &SynthesisConfig::default()).unwrap().chains))
    };
    store.solve_npn(&spec, Duration::MAX, solve).unwrap();
    let never = |_: &TruthTable| -> Result<RepOutcome, ChainError> { unreachable!("warmed") };
    group.bench_function("store_hit", |b| {
        b.iter(|| match store.solve_npn(black_box(&spec), Duration::MAX, never).unwrap() {
            NpnOutcome::Solved(view) => view.gates(),
            _ => unreachable!("warmed"),
        })
    });
    group.finish();
}

fn bench_factor_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("factor_kernels");
    group.sample_size(20);
    // One cold factorization round, as the synthesis driver runs it: a
    // fresh engine walks every shape of the pruned fences at the
    // optimum gate count. NPN4 class 0x07b6 (6 gates), the first
    // function of the Table I FDSD8 suite (7 gates), and the first
    // 10-input function of the WIDE[9..12] pin row, whose splits past
    // 6 chart variables run the `W4` kernel.
    let npn4 = TruthTable::from_hex(4, "07b6").unwrap();
    let fdsd8 = suites::fdsd(8, 1, 8).functions.remove(0);
    let wide10 = suites::wide().functions.remove(2);
    for (name, spec) in [("npn4_07b6", npn4), ("fdsd8", fdsd8), ("wide10", wide10)] {
        let gates = synthesize(&spec, &SynthesisConfig::default()).unwrap().gate_count;
        let shapes: Vec<_> = pruned_fences(gates).iter().flat_map(shapes_for_fence).collect();
        group.bench_function(BenchmarkId::new("chains_on_shape_cold", name), |b| {
            b.iter(|| {
                let mut engine = Factorizer::new(FactorConfig::default());
                let found: usize = shapes
                    .iter()
                    .map(|shape| engine.chains_on_shape(black_box(&spec), shape).unwrap().len())
                    .sum();
                found
            })
        });
        // The same round with step (iv): every root verified over the
        // realization forest, accepted chains built.
        let never = AtomicBool::new(false);
        group.bench_function(BenchmarkId::new("verified_chains_on_shape_cold", name), |b| {
            b.iter(|| {
                let mut engine = Factorizer::new(FactorConfig::default());
                let found: usize = shapes
                    .iter()
                    .map(|shape| {
                        engine
                            .verified_chains_on_shape(
                                black_box(&spec),
                                shape,
                                usize::MAX,
                                None,
                                &never,
                            )
                            .unwrap()
                            .len()
                    })
                    .sum();
                found
            })
        });
    }
    group.finish();
}

fn bench_verified_chains_fdsd8(c: &mut Criterion) {
    // The first function of stpbench's `fdsd8_cold` suite (the first
    // tree drawn from its fixed tree seed, 384 optimum chains) through
    // its 7-gate round on a fresh engine: factorization and the root
    // check of every candidate, as one instance of that workload runs
    // them.
    let mut trees = SmallRng::seed_from_u64(0x4644_5344_3820_5452);
    let spec = random_fdsd_tree(8, &mut trees).to_truth_table(8).unwrap();
    let shapes: Vec<_> = pruned_fences(7).iter().flat_map(shapes_for_fence).collect();
    let never = AtomicBool::new(false);
    c.bench_function("verified_chains_fdsd8", |b| {
        b.iter(|| {
            let mut engine = Factorizer::new(FactorConfig::default());
            let found: usize = shapes
                .iter()
                .map(|shape| {
                    let chains = engine.verified_chains_on_shape(
                        black_box(&spec),
                        shape,
                        usize::MAX,
                        None,
                        &never,
                    );
                    chains.unwrap().len()
                })
                .sum();
            assert_eq!(found, 384);
            found
        })
    });
}

criterion_group!(
    kernels,
    bench_stp_product,
    bench_canonical_form,
    bench_canonical_allsat,
    bench_circuit_solver,
    bench_npn_kernels,
    bench_network_kernels,
    bench_factor_kernels,
    bench_verified_chains_fdsd8
);
criterion_main!(kernels);
