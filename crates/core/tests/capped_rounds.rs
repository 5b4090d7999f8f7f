//! Capped synthesis transcripts at one worker.
//!
//! A binding `max_solutions` cap cuts each shape's task at the room the
//! shapes before it left. These rows pin, at `jobs = 1`, the chains and
//! the work done up to that cut: `synth.candidates`, `solver.queries`
//! and `factor.subproblems`, read from a counter scope on this thread.
//!
//! A mismatch prints the whole table as computed, in the source syntax
//! of [`CAPPED`].

use stp_chain::Chain;
use stp_synth::{synthesize, SynthesisConfig};
use stp_tt::TruthTable;

/// `(spec, max_solutions, chains, chain digest, [synth.candidates,
/// solver.queries, factor.subproblems])` of capped `jobs = 1` runs.
/// Every cap binds inside a round: 0x6996 and 0x8ff8 stop inside their
/// first 3-gate shape, 0x6996 at 40 inside its second (that shape runs
/// capped at the room its predecessor left), and 0xcafe at 5 inside
/// its 6-gate round.
#[rustfmt::skip]
const CAPPED: [(&str, usize, usize, u64, [u64; 3]); 6] = [
    ("6996", 1, 1, 0x3da13860852455a7, [1, 1, 9]),
    ("6996", 2, 2, 0xd661354f967915ab, [2, 2, 12]),
    ("6996", 40, 40, 0x23604721377439a7, [52, 40, 29]),
    ("8ff8", 1, 1, 0xbf698780cf1f3d0a, [1, 1, 9]),
    ("8ff8", 3, 3, 0x55453e6ab7ce5236, [3, 3, 13]),
    ("cafe", 5, 5, 0x8313e3bea4f3f90e, [5, 5, 223]),
];

/// FNV-1a over the rendered chains, newline-separated.
fn digest(chains: &[Chain]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for chain in chains {
        for byte in format!("{chain}").bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn capped_rounds_keep_their_chains_and_counters() {
    let mut rows = Vec::new();
    for (hex, cap, ..) in CAPPED {
        let spec = TruthTable::from_hex(4, hex).unwrap();
        let config = SynthesisConfig { jobs: 1, max_solutions: cap, ..SynthesisConfig::default() };
        let scope = stp_telemetry::CounterScope::enter();
        let result = synthesize(&spec, &config).unwrap();
        let counters = scope.finish();
        let get = |name: &str| counters.get(name).copied().unwrap_or(0);
        let work = [get("synth.candidates"), get("solver.queries"), get("factor.subproblems")];
        rows.push((hex, cap, result.chains.len(), digest(&result.chains), work));
    }
    let table: Vec<String> = rows
        .iter()
        .map(|(hex, cap, n, d, w)| format!("    (\"{hex}\", {cap}, {n}, {d:#018x}, {w:?}),"))
        .collect();
    assert!(rows[..] == CAPPED[..], "capped runs moved; computed table:\n{}", table.join("\n"));
}
