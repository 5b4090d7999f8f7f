//! Prints the DSD composition of 4-cut functions in benchmark circuits.
//!
//! The paper's premise is that exact synthesis lives or dies on
//! DSD-structured functions because those dominate the small cut
//! functions real optimizers extract (FDSD "occur frequently in
//! practical synthesis and technology mapping applications", §IV). This
//! binary measures that claim on this workspace's own circuits: it
//! enumerates every 4-feasible cut, classifies the cut function as
//! trivial / fully-DSD / partially-or-non-DSD, and prints the
//! distribution.
//!
//! Usage: `dsd_stats [--log <level>]`
//!
//! Output goes through the telemetry reporter at `info` (the default
//! level, so output is unchanged by default); `--log off` silences it.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_network::{
    cut_function, enumerate_cuts, equality_comparator, mux_tree, random_network,
    ripple_carry_adder, ripple_carry_adder_sop, Network,
};
use stp_synth::cli::{self, Obs};
use stp_telemetry::report;
use stp_tt::{is_full_dsd, project_to_vars};

fn census(name: &str, net: &Network) {
    let cuts = enumerate_cuts(net, 4, 8);
    let (mut trivial, mut full, mut partial) = (0usize, 0usize, 0usize);
    for s in 0..net.num_signals() {
        if !net.is_gate(s) {
            continue;
        }
        for cut in cuts.of(s) {
            if cut.len() < 2 {
                continue;
            }
            let f = match cut_function(net, s, cut) {
                Ok(f) => f,
                Err(_) => continue,
            };
            if f.is_trivial() {
                trivial += 1;
            } else {
                let sup = f.support();
                let reduced = project_to_vars(&f, &sup);
                if is_full_dsd(&reduced) {
                    full += 1;
                } else {
                    partial += 1;
                }
            }
        }
    }
    let total = trivial + full + partial;
    if total == 0 {
        report!("{name:<24} (no cuts)");
        return;
    }
    report!(
        "{name:<24} {total:>5} cuts | trivial {:>5.1}% | full-DSD {:>5.1}% | prime/partial {:>5.1}%",
        100.0 * trivial as f64 / total as f64,
        100.0 * full as f64 / total as f64,
        100.0 * partial as f64 / total as f64,
    );
}

fn main() {
    let (_, mut args) = cli::start();
    let mut obs = Obs::new("dsd_stats", &args);
    while let Some(a) = args.next() {
        match a.as_str() {
            flag @ "--log" => obs.take(flag, &mut args),
            other => cli::unknown_option(other),
        }
    }
    report!("DSD composition of 4-cut functions (the paper's FDSD-dominance premise):\n");
    census("ripple_carry_adder(4)", &ripple_carry_adder(4).expect("construction"));
    census("adder_sop(3)", &ripple_carry_adder_sop(3).expect("construction"));
    census("equality_comparator(4)", &equality_comparator(4).expect("construction"));
    census("mux_tree(3)", &mux_tree(3).expect("construction"));
    let mut rng = SmallRng::seed_from_u64(7);
    census("random_network(8,40)", &random_network(8, 40, 4, &mut rng).expect("construction"));
    report!(
        "\nfully-DSD cut functions are where the STP factorization walks straight\n\
         down the structure — the suites FDSD6/FDSD8 model exactly this regime."
    );
}
