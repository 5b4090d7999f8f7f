//! Pinned rewrite transcripts.
//!
//! Rewrites the 40 seeded request networks of `stpd_open` (stpbench's
//! network pool before its per-seed relabelling: `random_network(8, 40,
//! 4)` drawn from `NETWORKS_SEED`) and a 4-bit sum-of-products ripple
//! carry adder, with one fresh cache at `jobs = 1`. Each network's
//! transcript — the output BLIF plus every replacement (roots, leaves,
//! gain) — is pinned by its FNV-64 digest, and the `network.*` counter
//! totals of the whole run are pinned under a [`CounterScope`]. A change
//! to cut enumeration, candidate selection or the store lookup path that
//! alters any cut, answer or replacement shows here.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_network::{
    random_network, rewrite, ripple_carry_adder_sop, Network, RewriteConfig, SynthesisCache,
};
use stp_telemetry::CounterScope;

/// The seed of stpbench's `stpd_open` network pool.
const NETWORKS_SEED: u64 = 0x7374_7064_6e65_7473;

/// FNV-1a, 64 bits.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn transcript(net: &Network, cache: &SynthesisCache) -> String {
    let config = RewriteConfig { jobs: 1, ..RewriteConfig::default() };
    let result = rewrite(net, &config, cache).expect("rewrite runs");
    let mut log = result.network.to_blif("t");
    for r in &result.replacements {
        log.push_str(&format!("roots={:?} leaves={:?} gain={}\n", r.roots, r.leaves, r.gain));
    }
    format!(
        "{}->{} x{} {:016x}",
        result.gates_before,
        result.gates_after,
        result.replacements.len(),
        fnv64(log.as_bytes())
    )
}

const PINNED_TRANSCRIPTS: &str = "
random00 18->15 x1 df72cac4f428ae90
random01 13->13 x0 50e924f208150381
random02 15->11 x2 aaca086f36132428
random03 12->11 x1 43f3c45b98c99472
random04 12->7 x3 8940bcf67c15411d
random05 24->24 x0 c5cb22c7d4c122ac
random06 15->15 x0 aac0045e88e285a0
random07 13->13 x0 05dac773b6434263
random08 18->14 x2 77daea08f7adf245
random09 19->19 x0 649380277141b69d
random10 21->18 x2 3e0eec327d25b79c
random11 20->20 x0 7002cbe2dd29a538
random12 20->15 x3 0ed258694b2c9475
random13 18->18 x0 d32566e73b99c741
random14 16->14 x2 03bc5a3aa4f33684
random15 22->22 x0 5dbbb43bb1553d02
random16 17->15 x1 30580096bb79829c
random17 19->19 x0 2565e4aa452a177a
random18 15->15 x0 eb9d5725631172d0
random19 13->4 x5 24d5ffbd10f54163
random20 21->16 x3 ecb3f86f0e425d66
random21 18->18 x0 e02d33212f94cfbd
random22 27->21 x3 b5f34143f824b9b7
random23 17->13 x2 c0d83b01696ce20d
random24 16->16 x2 dab3789be69a43a7
random25 21->21 x0 eccb79b48571a69e
random26 18->18 x1 a5f6a1c4ebf5c8d7
random27 17->16 x1 1cb701da63f0a1ea
random28 20->20 x0 9ca730fedf8015f9
random29 19->19 x0 819cf10ea9dd27a7
random30 24->12 x6 9f3a0cb9de4173d8
random31 17->17 x0 4e00bf7e883b81ff
random32 26->26 x0 87c8546f90e4abf6
random33 18->18 x1 0accbd21045a14c7
random34 25->20 x3 06c322ddafdb3233
random35 11->11 x0 643867ecc9066c45
random36 13->9 x2 8dc2d76449ce4de2
random37 20->20 x1 a6763247ab7d5f5b
random38 19->19 x0 da794b56055cec95
random39 22->18 x3 7e62ab05d093ecc6
rca4_sop 68->20 x7 4ffe4b50ea09af65
";

const PINNED_COUNTERS: &str = "
network.cuts_enumerated 11947
network.mo_rewrites 4
network.rewrite_replacements 57
network.synth_cache_hits 6265
network.synth_cache_misses 108
";

#[test]
fn rewrite_transcripts_match_the_pins() {
    let mut rng = SmallRng::seed_from_u64(NETWORKS_SEED);
    let mut networks: Vec<(String, Network)> = (0..40)
        .map(|i| {
            (format!("random{i:02}"), random_network(8, 40, 4, &mut rng).expect("valid shape"))
        })
        .collect();
    networks.push(("rca4_sop".to_string(), ripple_carry_adder_sop(4).expect("valid adder")));

    let cache = SynthesisCache::new();
    let scope = CounterScope::enter();
    let lines: Vec<String> =
        networks.iter().map(|(name, net)| format!("{name} {}", transcript(net, &cache))).collect();
    let counters: BTreeMap<String, u64> =
        scope.finish().into_iter().filter(|(name, _)| name.starts_with("network.")).collect();
    let counters: Vec<String> =
        counters.iter().map(|(name, value)| format!("{name} {value}")).collect();

    assert_eq!(lines.join("\n"), PINNED_TRANSCRIPTS.trim());
    assert_eq!(counters.join("\n"), PINNED_COUNTERS.trim());
}
