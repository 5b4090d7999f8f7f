//! Objective transcript differential: pins every `SynthesisResult`
//! field of the single-output sweep, per spec and cost objective.
//!
//! Each row records the optimum gate count, the search statistics
//! (`shapes_explored`, `fences_explored`, `factor_nodes`), the number
//! of chains, and an FNV-1a digest of the chains rendered in order, all
//! at `jobs = 1`. The specs are every NPN3 class representative plus
//! the paper's running examples; the objectives are the three the CLI
//! accepts. A change to the sweep's round order, stopping rule, or
//! result assembly moves a row. The same sweep at one worker per CPU
//! (at least two) must return the same chains in the same order.
//!
//! A mismatch prints the whole table as computed, in the source syntax
//! of [`PINNED`], so an intended change is re-pinned by pasting it.

use stp_synth::{objective_from_spec, synthesize_with_objective, SynthesisConfig, SynthesisResult};
use stp_tt::TruthTable;

const OBJECTIVES: [&str; 3] = ["gates", "depth", "profile:6=5,9=5,default=1"];

/// `(spec, objective, gate_count, shapes, fences, factor_nodes, chains, digest)`.
type Row<'a> = (&'a str, &'a str, usize, usize, usize, u64, usize, u64);

#[rustfmt::skip]
const PINNED: &[Row<'static>] = &[
    ("3:00", "gates", 0, 0, 0, 0, 1, 0x0bf38b8199940ab7),
    ("3:00", "depth", 0, 0, 0, 0, 1, 0x0bf38b8199940ab7),
    ("3:00", "profile:6=5,9=5,default=1", 0, 0, 0, 0, 1, 0x0bf38b8199940ab7),
    ("3:01", "gates", 2, 1, 1, 13, 6, 0x42a33bfe052831c2),
    ("3:01", "depth", 2, 1, 1, 13, 6, 0x42a33bfe052831c2),
    ("3:01", "profile:6=5,9=5,default=1", 2, 1, 1, 13, 6, 0x42a33bfe052831c2),
    ("3:03", "gates", 1, 1, 1, 5, 1, 0xf65b29106122b24f),
    ("3:03", "depth", 1, 1, 1, 5, 1, 0xf65b29106122b24f),
    ("3:03", "profile:6=5,9=5,default=1", 1, 1, 1, 5, 1, 0xf65b29106122b24f),
    ("3:06", "gates", 2, 1, 1, 9, 2, 0x20d08bfb4d29c629),
    ("3:06", "depth", 2, 1, 1, 9, 2, 0x20d08bfb4d29c629),
    ("3:06", "profile:6=5,9=5,default=1", 4, 6, 6, 111, 16, 0xa2d0c3ea08091783),
    ("3:07", "gates", 2, 1, 1, 9, 2, 0x8329d0bfe3828c6f),
    ("3:07", "depth", 2, 1, 1, 9, 2, 0x8329d0bfe3828c6f),
    ("3:07", "profile:6=5,9=5,default=1", 2, 1, 1, 9, 2, 0x8329d0bfe3828c6f),
    ("3:0f", "gates", 0, 0, 0, 0, 1, 0x6e3998ffe3192085),
    ("3:0f", "depth", 0, 0, 0, 0, 1, 0x6e3998ffe3192085),
    ("3:0f", "profile:6=5,9=5,default=1", 0, 0, 0, 0, 1, 0x6e3998ffe3192085),
    ("3:16", "gates", 4, 6, 6, 97, 144, 0x70c813d67feb2869),
    ("3:16", "depth", 4, 7, 6, 90, 96, 0xbb453f6f83836c51),
    ("3:16", "profile:6=5,9=5,default=1", 4, 13, 64, 409, 24, 0xe90d09f77f26e075),
    ("3:17", "gates", 4, 6, 6, 97, 168, 0x1ce0d1d99baa4a08),
    ("3:17", "depth", 4, 7, 6, 90, 168, 0x1ce0d1d99baa4a08),
    ("3:17", "profile:6=5,9=5,default=1", 5, 11, 11, 348, 384, 0x96331266d9d8d68d),
    ("3:18", "gates", 3, 3, 3, 21, 12, 0x1f327d8580630fd4),
    ("3:18", "depth", 3, 2, 2, 14, 12, 0x1f327d8580630fd4),
    ("3:18", "profile:6=5,9=5,default=1", 5, 11, 11, 366, 192, 0x5d1b5502e5c4cdb9),
    ("3:19", "gates", 3, 3, 3, 21, 16, 0xc06d4c830b75aef9),
    ("3:19", "depth", 3, 2, 2, 14, 8, 0xfa90d408f49432d1),
    ("3:19", "profile:6=5,9=5,default=1", 4, 6, 6, 103, 40, 0x72a4133723ad0db5),
    ("3:1b", "gates", 3, 3, 3, 25, 24, 0x824002669e2770bf),
    ("3:1b", "depth", 3, 2, 2, 16, 16, 0xf051671adfb30d00),
    ("3:1b", "profile:6=5,9=5,default=1", 3, 3, 3, 25, 8, 0x8eaa47c5ed1acbc2),
    ("3:1e", "gates", 2, 1, 1, 9, 2, 0x96e2212a33c9007a),
    ("3:1e", "depth", 2, 1, 1, 9, 2, 0x96e2212a33c9007a),
    ("3:1e", "profile:6=5,9=5,default=1", 5, 9, 11, 318, 96, 0xa4c6f6fea91879d9),
    ("3:3c", "gates", 1, 1, 1, 5, 1, 0xc0c9222201cefa7e),
    ("3:3c", "depth", 1, 1, 1, 5, 1, 0xc0c9222201cefa7e),
    ("3:3c", "profile:6=5,9=5,default=1", 3, 4, 4, 25, 8, 0xd5fb689220820192),
    ("3:69", "gates", 2, 1, 1, 13, 6, 0x203f7e5cd3ba4899),
    ("3:69", "depth", 2, 1, 1, 13, 6, 0x203f7e5cd3ba4899),
    ("3:69", "profile:6=5,9=5,default=1", 4, 12, 64, 349, 48, 0xc3fb9a96a6e0282f),
    ("4:8ff8", "gates", 3, 2, 2, 14, 4, 0xfe640fba37becd29),
    ("4:8ff8", "depth", 3, 1, 1, 13, 4, 0xfe640fba37becd29),
    ("4:8ff8", "profile:6=5,9=5,default=1", 6, 11, 19, 1329, 256, 0x776c15b880ec120d),
    ("4:6996", "gates", 3, 2, 2, 30, 60, 0x3d1682ac71ae60f3),
    ("4:6996", "depth", 3, 1, 1, 21, 12, 0x283a9333eb7adb63),
    ("4:6996", "profile:6=5,9=5,default=1", 7, 16, 361, 1100, 136, 0xd9cdb742bb0b46ca),
    ("3:e8", "gates", 4, 6, 6, 97, 168, 0xa4dbc10e1ceccc2c),
    ("3:e8", "depth", 4, 7, 6, 90, 168, 0xa4dbc10e1ceccc2c),
    ("3:e8", "profile:6=5,9=5,default=1", 5, 11, 11, 348, 384, 0x98682cba7ccd535d),
    ("4:1ee1", "gates", 3, 2, 2, 18, 12, 0x5fe6e88908ee8ef9),
    ("4:1ee1", "depth", 3, 1, 1, 13, 4, 0x7d3cd33e831db1e5),
    ("4:1ee1", "profile:6=5,9=5,default=1", 6, 14, 202, 379, 32, 0x5d9683b139af235d),
    ("4:cafe", "gates", 6, 18, 19, 2257, 1152, 0x072ef9ea3bff0ea9),
    ("4:cafe", "depth", 6, 8, 7, 1554, 544, 0x92bcc0623737b9c5),
    ("4:cafe", "profile:6=5,9=5,default=1", 6, 18, 19, 2257, 352, 0x219a6c4f4d1e2f89),
];

fn specs() -> Vec<(String, TruthTable)> {
    let mut specs: Vec<(String, TruthTable)> =
        stp_tt::npn_classes(3).into_iter().map(|tt| (format!("3:{}", tt.to_hex()), tt)).collect();
    for (vars, hex) in [(4, "8ff8"), (4, "6996"), (3, "e8"), (4, "1ee1"), (4, "cafe")] {
        specs.push((format!("{vars}:{hex}"), TruthTable::from_hex(vars, hex).unwrap()));
    }
    specs
}

fn config(jobs: usize) -> SynthesisConfig {
    SynthesisConfig { jobs, ..SynthesisConfig::default() }
}

fn rendered(result: &SynthesisResult) -> Vec<String> {
    result.chains.iter().map(|c| format!("{c}")).collect()
}

/// FNV-1a over the rendered chains, newline-separated.
fn digest(chains: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in chains.iter().flat_map(|c| c.bytes().chain(std::iter::once(b'\n'))) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One row in the source syntax of [`PINNED`].
fn render_row(row: Row) -> String {
    let (spec, objective, gates, shapes, fences, nodes, chains, digest) = row;
    format!(
        "    (\"{spec}\", \"{objective}\", {gates}, {shapes}, {fences}, {nodes}, {chains}, {digest:#018x}),"
    )
}

#[test]
fn every_objective_reproduces_its_pinned_transcript() {
    let mut rows = Vec::new();
    for (name, spec) in specs() {
        for objective_spec in OBJECTIVES {
            let objective = objective_from_spec(objective_spec).unwrap();
            let result = synthesize_with_objective(&spec, objective.as_ref(), &config(1))
                .unwrap_or_else(|e| panic!("{name} under {objective_spec}: {e}"));
            for chain in &result.chains {
                assert_eq!(chain.simulate_outputs().unwrap()[0], spec, "{name} {objective_spec}");
            }
            let chains = rendered(&result);
            rows.push(render_row((
                &name,
                objective_spec,
                result.gate_count,
                result.shapes_explored,
                result.fences_explored,
                result.factor_nodes,
                chains.len(),
                digest(&chains),
            )));
        }
    }
    let pinned: Vec<String> = PINNED.iter().copied().map(render_row).collect();
    assert!(rows == pinned, "transcripts moved; computed table:\n{}", rows.join("\n"));
}

#[test]
fn parallel_sweep_returns_the_sequential_chains() {
    // At least two workers, so a 1-CPU host still compares jobs = 1
    // against a parallel run.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from).max(2);
    for (name, spec) in specs() {
        for objective_spec in OBJECTIVES {
            let objective = objective_from_spec(objective_spec).unwrap();
            let seq = synthesize_with_objective(&spec, objective.as_ref(), &config(1)).unwrap();
            let par = synthesize_with_objective(&spec, objective.as_ref(), &config(nproc)).unwrap();
            assert_eq!(seq.gate_count, par.gate_count, "{name} {objective_spec}");
            assert_eq!(rendered(&seq), rendered(&par), "{name} {objective_spec} at jobs={nproc}");
        }
    }
}
