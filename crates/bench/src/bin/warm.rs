//! Sharded store-warming farm: emits `BENCH_warm.json`.
//!
//! Usage (parent): `warm --store <path> [--shards <n>] [--jobs <n>]
//!                       [--timeout <secs>] [--retries <n>] [--seed <u64>]
//!                       [--sample5 <n>] [--sample6 <n>] [--out <path>]`
//!
//! The parent draws a seeded, deduplicated sample of NPN5/NPN6 class
//! representatives (fully-DSD functions, the arity-5/6 classes
//! rewriting cuts actually produce), writes a resumable **manifest**
//! (`<store>.manifest`) assigning each class to a shard, and spawns one
//! child OS process per shard. Each child warms its slice into its own
//! journaled shard store (`<store>.shard<i>`) under the escalating
//! retry ladder, then saves an atomic v2 snapshot. The parent folds the
//! shard snapshots with [`Store::merge_files`], saves the single merged
//! v2 snapshot at `--store`, re-answers every manifest class from it
//! (asserting **zero** `store.misses`), and emits a `BENCH_warm.json`
//! document with per-shard solved/cached split and retry counts.
//!
//! **Crash safety / resume.** The manifest is written once, atomically;
//! re-running the same command after a crash (or a killed shard) reuses
//! it, so the class list and shard assignment never drift mid-farm.
//! Children open their shard stores with [`Store::open`], so classes
//! journaled before a kill are recovered and counted as `cached` — only
//! the lost tail is re-solved. The `warm_farm` integration test pins
//! this with a faultsim kill window (`store.journal.pre_append`).
//!
//! Exit codes: 0 success, 1 warm/merge/verify failure (re-run to
//! resume), 2 usage error.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stp_bench::RetryPolicy;
use stp_store::Store;
use stp_synth::cli::{self, abort};
use stp_synth::{synthesize_npn_with_store, warm_classes, SynthesisConfig};
use stp_telemetry::Json;
use stp_tt::{canonicalize, random_fdsd, TruthTable};

/// Default sample seed ("WARMFARM" in ASCII, truncated).
const DEFAULT_SEED: u64 = 0x5741_524d_4641_524d;

/// The farm parameters shared by the parent and the manifest.
struct Params {
    shards: usize,
    seed: u64,
    sample5: usize,
    sample6: usize,
}

/// One manifest record: a class representative assigned to a shard.
struct ManifestClass {
    shard: usize,
    rep: TruthTable,
}

/// Draws the seeded NPN5/NPN6 sample: fully-DSD random functions,
/// canonicalized and deduplicated into distinct class representatives,
/// assigned to shards round-robin. Deterministic in `params`.
fn sample_classes(params: &Params) -> Vec<ManifestClass> {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut reps: Vec<TruthTable> = Vec::new();
    for (num_vars, count) in [(5, params.sample5), (6, params.sample6)] {
        let mut seen = 0usize;
        while seen < count {
            let rep = canonicalize(&random_fdsd(num_vars, &mut rng)).representative;
            if !reps.contains(&rep) {
                reps.push(rep);
                seen += 1;
            }
        }
    }
    reps.into_iter()
        .enumerate()
        .map(|(i, rep)| ManifestClass { shard: i % params.shards, rep })
        .collect()
}

/// Serializes the manifest: a versioned header, the sharding
/// parameters, then one `class <shard> <nvars> <hex>` line per class.
fn render_manifest(params: &Params, classes: &[ManifestClass]) -> String {
    let mut out = String::from("stp-warm-manifest v1\n");
    out.push_str(&format!(
        "params shards={} seed={} sample5={} sample6={}\n",
        params.shards, params.seed, params.sample5, params.sample6
    ));
    for c in classes {
        out.push_str(&format!("class {} {} {}\n", c.shard, c.rep.num_vars(), c.rep.to_hex()));
    }
    out
}

/// Writes the manifest atomically (tmp + fsync + rename), so a crash
/// mid-write can never leave a torn manifest behind for a resume.
fn write_manifest(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("manifest.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// Parses a manifest back, validating the header and the sharding
/// parameters against the current invocation: resuming with different
/// parameters would silently warm a different class set.
fn parse_manifest(path: &Path, params: &Params) -> Vec<ManifestClass> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| abort(format!("cannot read manifest {}: {e}", path.display())));
    let mut lines = text.lines();
    if lines.next() != Some("stp-warm-manifest v1") {
        abort(format!("{}: missing manifest header", path.display()));
    }
    let want = format!(
        "params shards={} seed={} sample5={} sample6={}",
        params.shards, params.seed, params.sample5, params.sample6
    );
    match lines.next() {
        Some(line) if line == want => {}
        Some(line) => cli::fail(format!(
            "{}: manifest was written by a different invocation ({line}); \
             re-run with matching flags or delete it to re-sample",
            path.display()
        )),
        None => abort(format!("{}: truncated manifest", path.display())),
    }
    let mut classes = Vec::new();
    for (idx, line) in lines.enumerate() {
        let mut parts = line.split_whitespace();
        let (tag, shard, nvars, hex) = (parts.next(), parts.next(), parts.next(), parts.next());
        let (Some("class"), Some(shard), Some(nvars), Some(hex), None) =
            (tag, shard, nvars, hex, parts.next())
        else {
            abort(format!("{}: bad manifest line {}: `{line}`", path.display(), idx + 3));
        };
        let shard: usize =
            shard.parse().ok().filter(|s| *s < params.shards).unwrap_or_else(|| {
                abort(format!("{}: bad shard on line {}", path.display(), idx + 3))
            });
        let nvars: usize = nvars.parse().unwrap_or_else(|_| {
            abort(format!("{}: bad arity on line {}", path.display(), idx + 3))
        });
        let rep = TruthTable::from_hex(nvars, hex).unwrap_or_else(|e| {
            abort(format!("{}: bad class on line {}: {e:?}", path.display(), idx + 3))
        });
        classes.push(ManifestClass { shard, rep });
    }
    if classes.is_empty() {
        abort(format!("{}: manifest lists no classes", path.display()));
    }
    classes
}

/// The path of shard `i`'s snapshot (its journal is `<path>.journal`).
fn shard_path(store: &str, shard: usize) -> PathBuf {
    PathBuf::from(format!("{store}.shard{shard}"))
}

/// Per-shard stats as printed by the child on stdout (one line) and
/// parsed back by the parent.
#[derive(Default)]
struct ShardStats {
    shard: usize,
    classes: usize,
    solved: usize,
    cached: usize,
    exhausted: usize,
    attempts: usize,
    retries: usize,
}

/// Child mode: warm this shard's manifest slice into a journaled shard
/// store under the escalating retry ladder, save, and print stats.
fn run_child(
    shard: usize,
    manifest_path: &Path,
    store_path: &Path,
    params: &Params,
    jobs: usize,
    base_timeout: Duration,
    rungs: usize,
) -> ! {
    let classes = parse_manifest(manifest_path, params);
    let reps: Vec<TruthTable> =
        classes.into_iter().filter(|c| c.shard == shard).map(|c| c.rep).collect();
    // `Store::open` replays the shard journal, so a shard killed
    // mid-warm resumes with its already-solved classes cached.
    let store = Store::open(store_path)
        .unwrap_or_else(|e| abort(format!("shard {shard}: cannot open shard store: {e}")));
    let config = SynthesisConfig { jobs, ..SynthesisConfig::default() };
    let ladder = RetryPolicy::escalating(base_timeout, rungs);
    let mut stats = ShardStats { shard, classes: reps.len(), ..ShardStats::default() };
    for (attempt, &budget) in ladder.budgets.iter().enumerate() {
        let report = warm_classes(&store, &config, Some(budget), &reps)
            .unwrap_or_else(|e| abort(format!("shard {shard}: warm failed: {e}")));
        stats.attempts = attempt + 1;
        stats.retries = attempt;
        stats.solved += report.solved;
        if attempt == 0 {
            stats.cached = report.cached;
        }
        stats.exhausted = report.exhausted;
        if report.exhausted == 0 {
            break;
        }
    }
    if stats.exhausted > 0 {
        abort(format!(
            "shard {shard}: {} class(es) still exhausted after {} rung(s); \
             re-run with a larger --timeout or more --retries to resume",
            stats.exhausted, stats.attempts
        ));
    }
    store
        .save(store_path)
        .unwrap_or_else(|e| abort(format!("shard {shard}: cannot save shard snapshot: {e}")));
    println!(
        "warm-shard shard={} classes={} solved={} cached={} exhausted={} \
         attempts={} retries={}",
        stats.shard,
        stats.classes,
        stats.solved,
        stats.cached,
        stats.exhausted,
        stats.attempts,
        stats.retries
    );
    std::process::exit(0);
}

/// Parses the child's `warm-shard key=value…` stats line.
fn parse_stats(stdout: &str, shard: usize) -> ShardStats {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("warm-shard "))
        .unwrap_or_else(|| abort(format!("shard {shard}: no stats line in child output")));
    fn field<T: std::str::FromStr>(shard: usize, pair: &str, value: &str) -> T {
        value.parse().unwrap_or_else(|_| abort(format!("shard {shard}: bad stats value `{pair}`")))
    }
    let mut stats = ShardStats::default();
    for pair in line.trim_start_matches("warm-shard ").split_whitespace() {
        let Some((key, value)) = pair.split_once('=') else {
            abort(format!("shard {shard}: bad stats field `{pair}`"));
        };
        match key {
            "shard" => stats.shard = field(shard, pair, value),
            "classes" => stats.classes = field(shard, pair, value),
            "solved" => stats.solved = field(shard, pair, value),
            "cached" => stats.cached = field(shard, pair, value),
            "exhausted" => stats.exhausted = field(shard, pair, value),
            "attempts" => stats.attempts = field(shard, pair, value),
            "retries" => stats.retries = field(shard, pair, value),
            other => abort(format!("shard {shard}: unknown stats field `{other}`")),
        }
    }
    stats
}

fn run_parent(
    store: &str,
    params: &Params,
    jobs: usize,
    base_timeout: Duration,
    rungs: usize,
    out: Option<&str>,
) -> ! {
    let manifest_path = PathBuf::from(format!("{store}.manifest"));
    let resumed = manifest_path.exists();
    let classes = if resumed {
        eprintln!("warm: resuming from manifest {}", manifest_path.display());
        parse_manifest(&manifest_path, params)
    } else {
        let classes = sample_classes(params);
        write_manifest(&manifest_path, &render_manifest(params, &classes)).unwrap_or_else(|e| {
            abort(format!("cannot write manifest {}: {e}", manifest_path.display()))
        });
        classes
    };

    // One OS process per shard, all in flight at once.
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| abort(format!("cannot locate the warm binary: {e}")));
    let mut children = Vec::new();
    for shard in 0..params.shards {
        let child = Command::new(&exe)
            .arg("--child-shard")
            .arg(shard.to_string())
            .arg("--manifest")
            .arg(&manifest_path)
            .arg("--store")
            .arg(store)
            .arg("--shards")
            .arg(params.shards.to_string())
            .arg("--seed")
            .arg(params.seed.to_string())
            .arg("--sample5")
            .arg(params.sample5.to_string())
            .arg("--sample6")
            .arg(params.sample6.to_string())
            .arg("--jobs")
            .arg(jobs.to_string())
            .arg("--timeout")
            .arg(base_timeout.as_secs_f64().to_string())
            .arg("--retries")
            .arg(rungs.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| abort(format!("cannot spawn shard {shard}: {e}")));
        children.push((shard, child));
    }
    let mut per_shard = Vec::new();
    let mut failed = false;
    for (shard, child) in children {
        let output = child
            .wait_with_output()
            .unwrap_or_else(|e| abort(format!("shard {shard} did not report: {e}")));
        if !output.status.success() {
            eprintln!("warm: shard {shard} failed ({}); its journal survives", output.status);
            failed = true;
            continue;
        }
        per_shard.push(parse_stats(&String::from_utf8_lossy(&output.stdout), shard));
    }
    if failed {
        abort(format!(
            "one or more shards failed; re-run the same command to resume from \
             {} and the surviving shard journals",
            manifest_path.display()
        ));
    }

    // Fold the shard snapshots into the single merged v2 snapshot.
    let shard_paths: Vec<PathBuf> = (0..params.shards).map(|i| shard_path(store, i)).collect();
    let merged = Store::merge_files(&shard_paths)
        .unwrap_or_else(|e| abort(format!("shard merge failed: {e}")));
    let merge_records = merged.merged_classes();
    merged
        .save(store)
        .unwrap_or_else(|e| abort(format!("cannot save merged snapshot {store}: {e}")));

    // Verification: the merged snapshot must answer every manifest
    // class without a single fresh synthesis.
    let reloaded =
        Store::load(store).unwrap_or_else(|e| abort(format!("cannot re-load {store}: {e}")));
    let config = SynthesisConfig { jobs: 1, ..SynthesisConfig::default() };
    for c in &classes {
        synthesize_npn_with_store(&c.rep, &config, &reloaded).unwrap_or_else(|e| {
            abort(format!("merged store failed to answer a warmed class: {e}"))
        });
    }
    let misses = reloaded.misses();
    if misses != 0 {
        abort(format!("merged store re-synthesized {misses} warmed class(es)"));
    }

    let totals = |f: fn(&ShardStats) -> usize| per_shard.iter().map(f).sum::<usize>() as u64;
    let doc = Json::obj(vec![
        ("schema", Json::Str("stp-bench-warm v1".to_string())),
        ("shards", Json::UInt(params.shards as u64)),
        ("jobs", Json::UInt(jobs as u64)),
        ("base_timeout_s", Json::Num(base_timeout.as_secs_f64())),
        ("retry_rungs", Json::UInt(rungs as u64)),
        ("seed", Json::UInt(params.seed)),
        ("sample5", Json::UInt(params.sample5 as u64)),
        ("sample6", Json::UInt(params.sample6 as u64)),
        ("classes", Json::UInt(classes.len() as u64)),
        ("resumed", Json::Bool(resumed)),
        ("solved", Json::UInt(totals(|s| s.solved))),
        ("cached", Json::UInt(totals(|s| s.cached))),
        ("exhausted", Json::UInt(totals(|s| s.exhausted))),
        (
            "per_shard",
            Json::Arr(
                per_shard
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("shard", Json::UInt(s.shard as u64)),
                            ("classes", Json::UInt(s.classes as u64)),
                            ("solved", Json::UInt(s.solved as u64)),
                            ("cached", Json::UInt(s.cached as u64)),
                            ("exhausted", Json::UInt(s.exhausted as u64)),
                            ("attempts", Json::UInt(s.attempts as u64)),
                            ("retries", Json::UInt(s.retries as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "merge",
            Json::obj(vec![
                ("classes", Json::UInt(merged.len() as u64)),
                ("records", Json::UInt(merge_records)),
            ]),
        ),
        (
            "verify",
            Json::obj(vec![
                ("answered", Json::UInt(classes.len() as u64)),
                ("misses", Json::UInt(misses)),
            ]),
        ),
    ]);
    let text = format!("{doc}\n");
    match out {
        Some(path) => {
            std::fs::write(path, &text).unwrap_or_else(|e| {
                abort(format!("cannot write {path}: {e}"));
            });
            eprintln!("warm: wrote {path}");
        }
        None => print!("{text}"),
    }
    std::process::exit(0);
}

fn main() {
    let (mut jobs, mut args) = cli::start();
    let mut store: Option<String> = None;
    let mut shards = 3usize;
    let mut timeout = Duration::from_secs(10);
    let mut retries = 3usize;
    let mut seed = DEFAULT_SEED;
    let mut sample5 = 8usize;
    let mut sample6 = 4usize;
    let mut out: Option<String> = None;
    let mut child_shard: Option<usize> = None;
    let mut manifest: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--store" => store = Some(args.path(&a)),
            "--shards" => shards = args.value(&a, "a shard count ≥ 1"),
            "--jobs" => jobs = args.value(&a, "a thread count (0 = one per CPU)"),
            "--timeout" => timeout = args.seconds(&a),
            "--retries" => retries = args.value(&a, "a rung count ≥ 1"),
            "--seed" => seed = args.value(&a, "a u64 seed"),
            "--sample5" => sample5 = args.value(&a, "an NPN5 class count"),
            "--sample6" => sample6 = args.value(&a, "an NPN6 class count"),
            "--out" => out = Some(args.path(&a)),
            "--child-shard" => child_shard = Some(args.value(&a, "a shard index")),
            "--manifest" => manifest = Some(args.path(&a)),
            other => cli::unknown_option(other),
        }
    }
    if shards == 0 {
        cli::fail("--shards expects a shard count ≥ 1");
    }
    if timeout.is_zero() {
        cli::fail("--timeout expects a finite number of seconds > 0");
    }
    if retries == 0 {
        cli::fail("--retries expects a rung count ≥ 1");
    }
    if sample5 + sample6 == 0 {
        cli::fail("the sample is empty: raise --sample5 or --sample6");
    }
    let Some(store) = store else { cli::fail("--store is required") };
    let params = Params { shards, seed, sample5, sample6 };
    match child_shard {
        Some(shard) => {
            let Some(manifest) = manifest else { cli::fail("--child-shard requires --manifest") };
            if shard >= shards {
                cli::fail(format!("--child-shard {shard} out of range for {shards} shard(s)"));
            }
            run_child(
                shard,
                Path::new(&manifest),
                &shard_path(&store, shard),
                &params,
                jobs,
                timeout,
                retries,
            )
        }
        None => run_parent(&store, &params, jobs, timeout, retries, out.as_deref()),
    }
}
