//! Records `expected/npn4.tsv`: the gate count and solution count
//! `synthesize` returns for every NPN4 class representative, with a
//! header comparing the class-size-weighted cost distribution against
//! Knuth's published 4-input distribution.
//!
//! ```text
//! cargo run --release --offline --manifest-path stpbench/Cargo.toml \
//!     --example record_npn4 > stpbench/expected/npn4.tsv
//! ```

use std::collections::HashMap;

use stp_synth::{synthesize, SynthesisConfig};
use stp_tt::{canonicalize, npn_classes, TruthTable};

/// Number of 4-input functions of each gate cost 0..=7 (Knuth, TAOCP
/// Vol. 4A, §7.1.2).
const KNUTH: [u64; 8] = [10, 60, 456, 2474, 10624, 24184, 25008, 2720];

fn main() {
    let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
    let classes = npn_classes(4);
    let mut class_size: HashMap<TruthTable, u64> = HashMap::new();
    for bits in 0..1u64 << 16 {
        let f = TruthTable::from_u64(4, bits).expect("16-bit table");
        *class_size.entry(canonicalize(&f).representative).or_insert(0) += 1;
    }
    let mut rows = Vec::new();
    let mut weighted = [0u64; 8];
    for class in &classes {
        let result = synthesize(class, &config).expect("every NPN4 class synthesizes");
        weighted[result.gate_count] += class_size[class];
        rows.push(format!("{}\t{}\t{}", class.to_hex(), result.gate_count, result.chains.len()));
    }
    let fmt = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" / ");
    // Functions the engine prices above Knuth's optimum: the largest
    // shortfall of the engine's cumulative distribution.
    let cumulative = |v: &[u64; 8]| {
        v.iter()
            .scan(0, |acc, x| {
                *acc += x;
                Some(*acc)
            })
            .collect::<Vec<u64>>()
    };
    let over = cumulative(&KNUTH)
        .iter()
        .zip(cumulative(&weighted))
        .map(|(knuth, engine)| knuth.saturating_sub(engine))
        .max()
        .unwrap_or(0);
    println!("# NPN4 reference: class representative (hex), optimum gate count, and");
    println!("# number of optimum chains as stp_synth::synthesize returns them (solution");
    println!("# cap 4096). An answer with more gates, or with the same gates and another");
    println!("# solution count, fails the benchmark.");
    println!("#");
    println!("# Functions per gate cost 0..7, weighting each class by its size:");
    println!("#   engine: {}", fmt(&weighted));
    println!("#   Knuth:  {} (TAOCP 4A, 7.1.2)", fmt(&KNUTH));
    println!("# The tree-shaped topology family over-counts {over} of the 65536 functions.");
    for row in rows {
        println!("{row}");
    }
}
