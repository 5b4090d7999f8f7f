//! Factorization transcript differential for specs past three inputs.
//!
//! Each row records, at `jobs = 1`, the optimum gate count, the number
//! of chains, the factorization subproblems (`factor_nodes`), the
//! shapes explored, and an FNV-1a digest of the chains rendered in
//! order. The specs are a dozen NPN4 class representatives of 4–6
//! gates, three FDSD8 functions drawn from `random_fdsd_tree` with a
//! fixed seed, and one 9-input DSD function, whose splits run on the
//! multi-word wide kernel.
//!
//! `objective_transcripts.rs` pins 3- and 4-input specs whose supports
//! have at most 3⁴ splits. These rows reach 4–9 support variables, so a
//! change to the split enumeration order, the kernel routing, the
//! memo, or the realization cap shows up here as a moved digest.
//!
//! A mismatch prints the whole table as computed, in the source syntax
//! of [`PINNED`].

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_synth::{synthesize, SynthesisConfig};
use stp_tt::{random_fdsd_tree, TruthTable};

/// `(spec, gate_count, chains, factor_nodes, shapes_explored, digest)`.
type Row<'a> = (&'a str, usize, usize, u64, usize, u64);

#[rustfmt::skip]
const PINNED: &[Row<'static>] = &[
    ("4:0018", 4, 72, 57, 5, 0x223fe9e5f83c0c8a),
    ("4:033c", 4, 144, 97, 6, 0x6d59b6d1fa82f5f1),
    ("4:035b", 4, 8, 35, 5, 0xba9d01f18dddc381),
    ("4:1be4", 4, 112, 63, 5, 0x0b6db719f39c10a1),
    ("4:013c", 5, 64, 232, 10, 0x33d794c320b2c985),
    ("4:0182", 5, 128, 258, 10, 0xb5326fd9232199d5),
    ("4:0669", 5, 128, 230, 10, 0xcb55d6c9d9693fb5),
    ("4:178e", 5, 96, 228, 10, 0x99ec3b33af7b3bdd),
    ("4:011b", 6, 1152, 2257, 18, 0x7cbde25c7220a321),
    ("4:016a", 6, 64, 2273, 18, 0x538e8fe3399caaa9),
    ("4:07b6", 6, 32, 2235, 18, 0x2ce0374a3c152e81),
    ("4:0693", 6, 1120, 2235, 18, 0x07beb231d1ccc815),
    ("8:ffff0000f0000fffcccc0000c3330fffffffaaaaf000a555cccc8888c3338777", 7, 64, 48, 16, 0x5384700401bb7a41),
    ("8:ffffffffffffffff0005000100050004ffffffffffffffff0000000400000001", 7, 960, 112, 16, 0x536b5804ae66266d),
    ("8:dd0d0000dd0d000022020000220200002202ff0fdd0d0000dd0dff0f22020000", 8, 2176, 439, 47, 0xf558f40066ade385),
    ("9:55550000f7fff3ffffffffffffffffff55550000fdfffcffffffffffffffffffffffffff5d550c00ffffffffffffffffffffffff57550300ffffffffffffffff", 8, 896, 123, 31, 0x25f7456d7f748abd),
];

/// NPN4 class representatives: four each of 4, 5 and 6 gates.
const NPN4: [&str; 12] = [
    "0018", "033c", "035b", "1be4", "013c", "0182", "0669", "178e", "011b", "016a", "07b6", "0693",
];

fn specs() -> Vec<(String, TruthTable)> {
    let mut specs: Vec<(String, TruthTable)> = NPN4
        .iter()
        .map(|hex| (format!("4:{hex}"), TruthTable::from_hex(4, hex).unwrap()))
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut dsd = |n: usize| {
        let tt = random_fdsd_tree(n, &mut rng).to_truth_table(n).unwrap();
        (format!("{n}:{}", tt.to_hex()), tt)
    };
    for _ in 0..3 {
        specs.push(dsd(8));
    }
    specs.push(dsd(9));
    specs
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
    let (spec, gates, chains, nodes, shapes, digest) = row;
    format!("    (\"{spec}\", {gates}, {chains}, {nodes}, {shapes}, {digest:#018x}),")
}

#[test]
fn factorization_reproduces_its_pinned_transcript() {
    let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
    let mut rows = Vec::new();
    for (name, spec) in specs() {
        let result = synthesize(&spec, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        for chain in &result.chains {
            assert_eq!(chain.simulate_outputs().unwrap()[0], spec, "{name}");
        }
        let chains: Vec<String> = result.chains.iter().map(|c| format!("{c}")).collect();
        rows.push(render_row((
            &name,
            result.gate_count,
            chains.len(),
            result.factor_nodes,
            result.shapes_explored,
            digest(&chains),
        )));
    }
    let pinned: Vec<String> = PINNED.iter().copied().map(render_row).collect();
    assert!(rows == pinned, "transcripts moved; computed table:\n{}", rows.join("\n"));
}
