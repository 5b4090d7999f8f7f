//! Prints the fence families of Fig. 2 and the valid partial DAGs of
//! Fig. 3.
//!
//! Usage: `fence_census [--max-k <k>] [--dags] [--log <level>]
//!                      [--profile] [--profile-folded <path>]`
//!
//! Output goes through the telemetry reporter: the census itself is
//! emitted at `info` (the default level, so output is unchanged unless
//! the level is lowered), and `--log off` silences it entirely.
//! `--profile` prints the aggregated span profile (per fence size `k`)
//! to stderr after the census; `--profile-folded <path>` writes
//! flamegraph-compatible folded stacks.

use stp_fence::{all_fences, dags_for_fence, pruned_fences};
use stp_synth::cli::{self, Obs};
use stp_telemetry::report;

// With --features alloc-profile, heap traffic is attributed to the
// innermost open profile span (an extra bytes column under --profile).
#[cfg(feature = "alloc-profile")]
stp_telemetry::install_alloc_profiler!();

fn main() {
    // fence_census itself is single-threaded, but `start` still rejects
    // a malformed STP_JOBS, as every bin in the workspace does.
    let (_, mut args) = cli::start();
    let mut obs = Obs::new("fence_census", &args);
    let mut max_k = 6usize;
    let mut show_dags = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dags" => show_dags = true,
            "--max-k" => max_k = args.value(&a, "a fence size"),
            flag @ ("--log" | "--profile" | "--profile-folded") => obs.take(flag, &mut args),
            other => cli::unknown_option(other),
        }
    }
    for k in 1..=max_k {
        let _k = stp_telemetry::span!("census.k{}", k);
        let full = all_fences(k);
        let pruned = pruned_fences(k);
        report!("F_{k}: {} fences, {} after pruning (Fig. 2)", full.len(), pruned.len());
        report!(
            "  full family:   {}",
            full.iter().map(|f| f.to_string()).collect::<Vec<_>>().join(" ")
        );
        report!(
            "  pruned family: {}",
            pruned.iter().map(|f| f.to_string()).collect::<Vec<_>>().join(" ")
        );
        if show_dags || k == 3 {
            let mut total = 0usize;
            for fence in &pruned {
                let dags = dags_for_fence(fence);
                report!("  fence {fence}: {} valid DAG(s) (Fig. 3)", dags.len());
                for dag in &dags {
                    for line in dag.to_string().lines() {
                        report!("    {line}");
                    }
                    report!("    --");
                    total += 1;
                }
            }
            report!("  total valid DAGs over pruned F_{k}: {total}");
        }
    }
    obs.finish("ok", Vec::new());
}
