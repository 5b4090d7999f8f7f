//! The sharded `warm` store farm, end to end.
//!
//! Runs the `warm` binary (parent + one OS process per shard) over the
//! default seeded NPN5/NPN6 sample into a scratch directory and pins
//! its `BENCH_warm.json` document against the committed baseline: the
//! class sample, shard assignment, and solved/cached/exhausted split
//! are seed-deterministic, so any drift means the sample, the sharding,
//! or the merge changed. Attempt and retry counts depend on the
//! machine and stay informational; the document records no wall clock.
//!
//! With `--features faultsim`, a second test arms the
//! `store.journal.pre_append` failpoint in the child processes'
//! environment, killing every shard mid-append on its second journal
//! record, and then proves the manifest + journal recovery contract:
//! the re-run resumes from the surviving manifest, recovers the
//! journaled classes as `cached`, re-solves only the lost tail, and
//! the merged snapshot still answers the full class set with zero
//! `store.misses`.

use std::path::{Path, PathBuf};
use std::process::Command;

use stp_store::Store;
use stp_telemetry::Json;

/// A collision-safe scratch directory for this process.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stp-warm-farm-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Invokes the `warm` binary with the default sample into `store`,
/// returning (status, parsed BENCH_warm.json if written).
fn run_warm(store: &Path, out: &Path, failpoints: Option<&str>) -> (bool, Option<Json>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_warm"));
    cmd.arg("--store").arg(store).arg("--out").arg(out);
    match failpoints {
        Some(spec) => {
            cmd.env("STP_FAILPOINTS", spec);
        }
        None => {
            cmd.env_remove("STP_FAILPOINTS");
        }
    }
    let output = cmd.output().expect("warm binary runs");
    let doc = std::fs::read_to_string(out)
        .ok()
        .map(|text| Json::parse(&text).expect("BENCH_warm.json must parse"));
    if !output.status.success() {
        eprintln!("warm stderr:\n{}", String::from_utf8_lossy(&output.stderr));
    }
    (output.status.success(), doc)
}

fn get_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing field '{key}'"))
}

#[test]
fn warm_farm_matches_committed_baseline() {
    let dir = temp_dir("baseline");
    let store = dir.join("npn56.store");
    let out = dir.join("BENCH_warm.json");
    let (ok, doc) = run_warm(&store, &out, None);
    assert!(ok, "warm farm must succeed on the default sample");
    let doc = doc.expect("warm must write its report");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_warm.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed baseline {path}: {e}"));
    let committed = Json::parse(&text).expect("BENCH_warm.json must parse");
    assert_eq!(
        committed.get("schema").and_then(Json::as_str),
        Some("stp-bench-warm v1"),
        "unknown baseline schema"
    );

    // Seed-deterministic fields must match the committed baseline
    // exactly; attempts, retries, and the jobs budget are
    // machine-dependent and informational.
    for key in ["shards", "seed", "sample5", "sample6", "classes", "solved", "cached", "exhausted"]
    {
        assert_eq!(
            get_u64(&doc, key),
            get_u64(&committed, key),
            "field '{key}' drifted from the committed BENCH_warm.json: re-record \
             it with `cargo run --release -p stp-bench --bin warm -- --store \
             <scratch>/npn56.store --out BENCH_warm.json` only if the sample or \
             sharding change is intentional"
        );
    }
    let shards = doc.get("per_shard").and_then(Json::as_arr).expect("per_shard array");
    let committed_shards =
        committed.get("per_shard").and_then(Json::as_arr).expect("per_shard array");
    assert_eq!(shards.len(), committed_shards.len());
    for (got, want) in shards.iter().zip(committed_shards) {
        for key in ["shard", "classes", "solved", "cached", "exhausted"] {
            assert_eq!(get_u64(got, key), get_u64(want, key), "per-shard field '{key}' drifted");
        }
    }
    let verify = doc.get("verify").expect("verify object");
    assert_eq!(get_u64(verify, "misses"), 0, "the merged store must answer every class");
    assert_eq!(get_u64(verify, "answered"), get_u64(&doc, "classes"));
    let merge = doc.get("merge").expect("merge object");
    assert_eq!(get_u64(merge, "classes"), get_u64(&doc, "classes"));

    // The merged snapshot really is a single v2 store of every class.
    let merged = Store::load(&store).expect("merged snapshot loads");
    assert_eq!(merged.len() as u64, get_u64(&doc, "classes"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Faultsim kill window: every shard dies mid-warm (its second journal
/// append panics the worker, so the shard exits without a snapshot),
/// then the same command resumes from the manifest and the surviving
/// journals and still produces the full merged class set.
#[cfg(feature = "faultsim")]
#[test]
fn killed_shards_resume_from_manifest_and_merge() {
    let dir = temp_dir("kill");
    let store = dir.join("npn56.store");
    let out = dir.join("BENCH_warm.json");

    let (ok, _) = run_warm(&store, &out, Some("store.journal.pre_append=2:panic"));
    assert!(!ok, "a shard killed mid-append must fail the farm");
    assert!(!store.exists(), "no merged snapshot may appear after a kill");
    assert!(!out.exists(), "no report may appear after a kill");
    let manifest = PathBuf::from(format!("{}.manifest", store.display()));
    assert!(manifest.exists(), "the manifest must survive the kill");
    let journal = PathBuf::from(format!("{}.shard0.journal", store.display()));
    assert!(journal.exists(), "shard journals must survive the kill");

    let (ok, doc) = run_warm(&store, &out, None);
    assert!(ok, "the resumed farm must succeed");
    let doc = doc.expect("the resumed farm must write its report");
    assert!(matches!(doc.get("resumed"), Some(Json::Bool(true))), "resume must reuse the manifest");
    let classes = get_u64(&doc, "classes");
    assert_eq!(get_u64(&doc, "exhausted"), 0);
    assert_eq!(get_u64(&doc, "solved") + get_u64(&doc, "cached"), classes);
    assert!(
        get_u64(&doc, "cached") > 0,
        "journal recovery must have rescued at least one pre-kill class"
    );
    assert!(
        get_u64(&doc, "solved") > 0,
        "the class lost in the kill window must have been re-solved"
    );
    let verify = doc.get("verify").expect("verify object");
    assert_eq!(get_u64(verify, "misses"), 0, "the merged store must answer every class");
    let merged = Store::load(&store).expect("merged snapshot loads");
    assert_eq!(merged.len() as u64, classes);
    std::fs::remove_dir_all(&dir).ok();
}
