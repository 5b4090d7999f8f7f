//! Property-based tests for networks, cuts, and rewriting.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_network::{
    cut_function, enumerate_cuts, random_network, rewrite, Network, RewriteConfig, SynthesisCache,
};

fn random_net(seed: u64, inputs: usize, gates: usize) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    random_network(inputs, gates, 2, &mut rng).expect("construction succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural hashing never changes semantics: rebuilding a network
    /// gate by gate yields identical output functions.
    #[test]
    fn rebuild_preserves_semantics(seed: u64, gates in 3usize..20) {
        let net = random_net(seed, 4, gates);
        let mut copy = Network::new(net.num_inputs());
        let mut map = vec![stp_network::Sig::FALSE; net.num_signals()];
        for i in 0..net.num_inputs() {
            map[1 + i] = copy.input(i);
        }
        for idx in (1 + net.num_inputs())..net.num_signals() {
            let gate = net.gate(idx);
            map[idx] = copy
                .add_gate(map[gate.fanin[0]], map[gate.fanin[1]], gate.tt2)
                .unwrap();
        }
        for out in net.outputs() {
            let s = map[out.index()];
            copy.add_output(if out.is_negated() { s.not() } else { s });
        }
        prop_assert_eq!(
            copy.simulate_outputs().unwrap(),
            net.simulate_outputs().unwrap()
        );
        prop_assert!(copy.gates().len() <= net.gates().len());
    }

    /// Every enumerated cut's local function agrees with global
    /// simulation on every minterm.
    #[test]
    fn cut_functions_sound(seed: u64, gates in 3usize..15) {
        let net = random_net(seed, 4, gates);
        let cuts = enumerate_cuts(&net, 4, 6);
        let global = net.simulate().unwrap();
        for s in 0..net.num_signals() {
            if !net.is_gate(s) {
                continue;
            }
            for cut in cuts.of(s) {
                let local = cut_function(&net, s, cut).unwrap();
                for m in 0..16usize {
                    let leaves: Vec<bool> =
                        cut.leaves().iter().map(|&l| global[l as usize].bit(m)).collect();
                    prop_assert_eq!(local.eval(&leaves), global[s].bit(m));
                }
            }
        }
    }

    /// Rewriting preserves every output function and never increases
    /// the live gate count.
    #[test]
    fn rewriting_is_safe(seed: u64, gates in 4usize..16) {
        let net = random_net(seed, 4, gates);
        let before = net.simulate_outputs().unwrap();
        let cache = SynthesisCache::new();
        let result = rewrite(&net, &RewriteConfig::default(), &cache).unwrap();
        prop_assert_eq!(result.network.simulate_outputs().unwrap(), before);
        prop_assert!(result.gates_after <= result.gates_before);
    }
}
