//! Profile loading, diffing, and baseline drift checks — the library
//! behind the `stpprof` bin.
//!
//! Three concerns:
//!
//! * [`load_profile`] reads a profile tree back from either artifact a
//!   run leaves behind: a `--stats` RunReport line (with its embedded
//!   `profile` object, produced under `--profile`) or a `--trace-json`
//!   JSONL file, whose per-thread `ph:"X"` span events are
//!   reconstructed into the same aggregated tree shape.
//! * [`diff`] flattens two trees to label paths and reports per-path
//!   deltas (calls, total, self), sorted by absolute total-time change
//!   — "what got slower between these two runs" as one table.
//! * [`bench_drift`] compares the suite rows of a candidate `pins`
//!   document against a committed `BENCH_pins.json`: the pinned
//!   counters are exact and machine-independent at `jobs = 1`, so any
//!   difference is an algorithmic change, not noise. This is the same
//!   contract the `pins` integration test enforces, exposed as a CLI
//!   verdict for CI and for humans bisecting a regression.

use std::collections::BTreeMap;

use stp_telemetry::{Json, ProfileNode, RunReport};

use crate::pins::{PINNED_COUNTERS, SCHEMA};

// ---------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------

/// Loads a profile tree from `path`: a RunReport file (the `--stats`
/// line, possibly preceded by other stdout lines) or a `--trace-json`
/// JSONL file.
///
/// # Errors
///
/// Describes what the file failed to parse as, including the case of a
/// RunReport that was produced without `--profile`.
pub fn load_profile(path: &str) -> Result<ProfileNode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_profile(&text).map_err(|e| format!("{path}: {e}"))
}

/// [`load_profile`] on already-read text.
///
/// # Errors
///
/// See [`load_profile`].
pub fn parse_profile(text: &str) -> Result<ProfileNode, String> {
    // A RunReport is a single JSON object line; tools print it last, so
    // scan lines from the end.
    for line in text.lines().rev() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Ok(report) = RunReport::parse(line) {
            return report.profile.ok_or_else(|| {
                "RunReport has no profile (re-run with --profile --stats)".to_string()
            });
        }
        // Any other JSON document with an embedded "profile" field — the
        // pins output, for one — works the same way.
        if let Ok(doc) = Json::parse(line) {
            if let Some(embedded) = doc.get("profile") {
                return ProfileNode::from_json(embedded);
            }
        }
        break;
    }
    if let Some(tree) = profile_from_trace(text)? {
        return Ok(tree);
    }
    Err("not a RunReport with a profile, nor a span trace".to_string())
}

/// One `ph:"X"` span event from a trace file.
struct SpanEvent {
    name: String,
    ts_us: u64,
    dur_us: u64,
    depth: u64,
}

/// Mutable accumulator tree used while merging events/nodes; converted
/// to a sorted [`ProfileNode`] at the end.
#[derive(Default)]
struct Acc {
    calls: u64,
    total_ns: u64,
    alloc_bytes: u64,
    allocs: u64,
    children: BTreeMap<String, Acc>,
}

impl Acc {
    fn into_node(self, label: String) -> ProfileNode {
        ProfileNode {
            label,
            calls: self.calls,
            total_ns: self.total_ns,
            alloc_bytes: self.alloc_bytes,
            allocs: self.allocs,
            children: self.children.into_iter().map(|(l, a)| a.into_node(l)).collect(),
        }
    }
}

/// Rebuilds an aggregated profile tree from a `--trace-json` file, or
/// `Ok(None)` when the text contains no span events at all. Events are
/// grouped per thread, replayed in start order, and nested by the
/// recorded span depth — the trace's nesting is lexical per thread, so
/// depth alone reconstructs each event's ancestor path.
fn profile_from_trace(text: &str) -> Result<Option<ProfileNode>, String> {
    let mut per_thread: BTreeMap<String, Vec<SpanEvent>> = BTreeMap::new();
    let mut saw_json = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(doc) = Json::parse(line) else {
            continue;
        };
        saw_json = true;
        if doc.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let get_u64 = |key: &str| doc.get(key).and_then(Json::as_u64);
        let (Some(name), Some(ts_us), Some(dur_us), Some(depth), Some(tid)) = (
            doc.get("name").and_then(Json::as_str),
            get_u64("ts"),
            get_u64("dur"),
            get_u64("depth"),
            doc.get("tid").and_then(Json::as_str),
        ) else {
            return Err("span event missing name/ts/dur/depth/tid".to_string());
        };
        per_thread.entry(tid.to_string()).or_default().push(SpanEvent {
            name: name.to_string(),
            ts_us,
            dur_us,
            depth,
        });
    }
    if per_thread.is_empty() {
        return if saw_json {
            Err("trace contains no span (ph=\"X\") events".to_string())
        } else {
            Ok(None)
        };
    }
    let mut root = Acc::default();
    for events in per_thread.values_mut() {
        // Events are written at completion; start order (parents before
        // their children) is (ts, depth) — at equal microsecond
        // timestamps the shallower span opened first.
        events.sort_by(|a, b| a.ts_us.cmp(&b.ts_us).then(a.depth.cmp(&b.depth)));
        let mut stack: Vec<(u64, String)> = Vec::new();
        for e in events.iter() {
            stack.retain(|(d, _)| *d < e.depth);
            let mut node = &mut root;
            for (_, label) in &stack {
                node = node.children.entry(label.clone()).or_default();
            }
            let leaf = node.children.entry(e.name.clone()).or_default();
            leaf.calls += 1;
            leaf.total_ns += e.dur_us * 1_000;
            stack.push((e.depth, e.name.clone()));
        }
    }
    root.calls = root.children.values().map(|c| c.calls).sum();
    root.total_ns = root.children.values().map(|c| c.total_ns).sum();
    Ok(Some(root.into_node("profile".to_string())))
}

// ---------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------

/// One label path's measurements on both sides of a diff. Zeroed on a
/// side where the path does not exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// `;`-joined label path (flamegraph-style), root omitted.
    pub path: String,
    /// (calls, total_ns, self_ns) in the old tree.
    pub old: (u64, u64, u64),
    /// (calls, total_ns, self_ns) in the new tree.
    pub new: (u64, u64, u64),
}

impl DiffRow {
    /// Signed change in total nanoseconds.
    pub fn delta_total_ns(&self) -> i128 {
        self.new.1 as i128 - self.old.1 as i128
    }
}

fn flatten(node: &ProfileNode, prefix: &str, out: &mut BTreeMap<String, (u64, u64, u64)>) {
    for child in &node.children {
        let path = if prefix.is_empty() {
            child.label.clone()
        } else {
            format!("{prefix};{}", child.label)
        };
        out.insert(path.clone(), (child.calls, child.total_ns, child.self_ns()));
        flatten(child, &path, out);
    }
}

/// Diffs two profile trees per label path, sorted by absolute
/// total-time change (largest first; ties by path).
pub fn diff(old: &ProfileNode, new: &ProfileNode) -> Vec<DiffRow> {
    let mut old_rows = BTreeMap::new();
    let mut new_rows = BTreeMap::new();
    flatten(old, "", &mut old_rows);
    flatten(new, "", &mut new_rows);
    let mut rows: Vec<DiffRow> = old_rows
        .keys()
        .chain(new_rows.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|path| DiffRow {
            path: path.clone(),
            old: old_rows.get(path).copied().unwrap_or((0, 0, 0)),
            new: new_rows.get(path).copied().unwrap_or((0, 0, 0)),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.delta_total_ns().abs().cmp(&a.delta_total_ns().abs()).then(a.path.cmp(&b.path))
    });
    rows
}

/// Renders a diff as an aligned table (`Δtotal_s`-sorted, the order
/// [`diff`] returns).
pub fn render_diff(rows: &[DiffRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "   old_total_s    new_total_s      Δtotal_s  old_calls  new_calls  span path\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>14.6} {:>14.6} {:>+13.6} {:>10} {:>10}  {}",
            r.old.1 as f64 / 1e9,
            r.new.1 as f64 / 1e9,
            r.delta_total_ns() as f64 / 1e9,
            r.old.0,
            r.new.0,
            r.path,
        );
    }
    out
}

// ---------------------------------------------------------------------
// Baseline drift
// ---------------------------------------------------------------------

/// One compared counter in a [`bench_drift`] check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftRow {
    /// Suite name, e.g. `NPN4[0..24]`.
    pub suite: String,
    /// Counter name, e.g. `factor.subproblems`.
    pub counter: String,
    /// Committed baseline value.
    pub baseline: u64,
    /// Candidate value.
    pub candidate: u64,
}

/// Verdict of a [`bench_drift`] check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftReport {
    /// Every compared (suite, counter) pair.
    pub rows: Vec<DriftRow>,
    /// Suites present in only one document (compared suites are the
    /// intersection, so a slice-only candidate checks cleanly against
    /// the full baseline).
    pub unmatched_suites: Vec<String>,
}

impl DriftReport {
    /// Whether any pinned counter moved.
    pub fn drifted(&self) -> bool {
        self.rows.iter().any(|r| r.baseline != r.candidate)
    }

    /// Human-readable verdict table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for row in &self.rows {
            let mark = if row.baseline == row.candidate { "ok   " } else { "DRIFT" };
            let _ = writeln!(
                out,
                "{mark} {:<14} {:<22} baseline {:>12} candidate {:>12}",
                row.suite, row.counter, row.baseline, row.candidate
            );
        }
        for suite in &self.unmatched_suites {
            let _ = writeln!(out, "skip  {suite:<14} (present in only one document)");
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.drifted() { "DRIFT — pinned counters moved" } else { "no drift" }
        );
        out
    }
}

fn suites_by_name(doc: &Json) -> Result<BTreeMap<String, &Json>, String> {
    doc.get("suites")
        .and_then(Json::as_arr)
        .ok_or("missing 'suites' array (not a pins document?)")?
        .iter()
        .map(|s| {
            s.get("suite")
                .and_then(Json::as_str)
                .map(|name| (name.to_string(), s))
                .ok_or_else(|| "suite entry missing 'suite' name".to_string())
        })
        .collect()
}

/// Compares the pinned counters of a candidate `pins` document against
/// a baseline document, over the suites both contain.
///
/// # Errors
///
/// Rejects documents that are not `pins` output, and documents
/// measured at `jobs != 1` (their `factor.*` totals are worker-count
/// dependent, so a comparison would report false drift).
pub fn bench_drift(baseline: &Json, candidate: &Json) -> Result<DriftReport, String> {
    for (role, doc) in [("baseline", baseline), ("candidate", candidate)] {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("{role}: unexpected schema `{schema}`"));
        }
        let jobs = doc.get("jobs").and_then(Json::as_u64);
        if jobs != Some(1) {
            return Err(format!(
                "{role}: measured at jobs={} — pinned counters are only comparable at jobs=1",
                jobs.map_or("?".to_string(), |j| j.to_string())
            ));
        }
    }
    let base_suites = suites_by_name(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand_suites = suites_by_name(candidate).map_err(|e| format!("candidate: {e}"))?;
    let mut rows = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for (name, base) in &base_suites {
        let Some(cand) = cand_suites.get(name) else {
            unmatched.push(name.clone());
            continue;
        };
        for counter in PINNED_COUNTERS {
            let value = |doc: &Json| {
                doc.get("counters").and_then(|c| c.get(counter)).and_then(Json::as_u64)
            };
            let (Some(b), Some(c)) = (value(base), value(cand)) else {
                return Err(format!("suite {name}: missing pinned counter {counter}"));
            };
            rows.push(DriftRow {
                suite: name.clone(),
                counter: counter.to_string(),
                baseline: b,
                candidate: c,
            });
        }
    }
    unmatched.extend(cand_suites.keys().filter(|k| !base_suites.contains_key(*k)).cloned());
    if rows.is_empty() {
        return Err("no suite appears in both documents".to_string());
    }
    Ok(DriftReport { rows, unmatched_suites: unmatched })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(label: &str, calls: u64, total_ns: u64) -> ProfileNode {
        ProfileNode {
            label: label.to_string(),
            calls,
            total_ns,
            alloc_bytes: 0,
            allocs: 0,
            children: Vec::new(),
        }
    }

    fn tree(children: Vec<ProfileNode>) -> ProfileNode {
        let calls = children.iter().map(|c| c.calls).sum();
        let total_ns = children.iter().map(|c| c.total_ns).sum();
        ProfileNode {
            label: "profile".to_string(),
            calls,
            total_ns,
            alloc_bytes: 0,
            allocs: 0,
            children,
        }
    }

    #[test]
    fn diff_sorts_by_absolute_total_change() {
        let old = tree(vec![leaf("a", 1, 1_000), leaf("b", 1, 5_000)]);
        let new = tree(vec![leaf("a", 2, 9_000), leaf("c", 1, 100)]);
        let rows = diff(&old, &new);
        assert_eq!(rows[0].path, "a");
        assert_eq!(rows[0].delta_total_ns(), 8_000);
        assert_eq!(rows[1].path, "b");
        assert_eq!(rows[1].delta_total_ns(), -5_000);
        assert_eq!(rows[2].path, "c");
        assert_eq!(rows[2].old, (0, 0, 0));
        let text = render_diff(&rows);
        assert!(text.contains("span path"));
        assert!(text.lines().count() == 4);
    }

    #[test]
    fn parse_profile_reads_runreport_lines() {
        let tree = tree(vec![leaf("phase.verify", 3, 2_000)]);
        let report = stp_telemetry::RunReport {
            tool: "t".to_string(),
            args: Vec::new(),
            outcome: "ok".to_string(),
            wall_s: 0.1,
            counters: BTreeMap::new(),
            phases: Vec::new(),
            profile: Some(tree.clone()),
            extra: Vec::new(),
        };
        let text = format!("some stdout noise\n{}\n", report.to_json_string());
        assert_eq!(parse_profile(&text).unwrap(), tree);
        // A report without a profile is a descriptive error.
        let bare = stp_telemetry::RunReport { profile: None, ..report };
        let err = parse_profile(&bare.to_json_string()).unwrap_err();
        assert!(err.contains("--profile"), "err: {err}");
    }

    #[test]
    fn parse_profile_reads_embedded_bench_documents() {
        let tree = tree(vec![leaf("phase.verify", 3, 2_000)]);
        let doc =
            Json::obj(vec![("schema", Json::Str(SCHEMA.to_string())), ("profile", tree.to_json())]);
        assert_eq!(parse_profile(&format!("{doc}\n")).unwrap(), tree);
    }

    #[test]
    fn parse_profile_reconstructs_traces() {
        // Thread 1: round(0..100) containing factorize(10..40) and
        // verify(50..80); thread 2: its own factorize(0..30). The
        // reconstructed tree merges per-thread stacks at the root.
        let text = r#"
{"name":"phase.factorize","ph":"X","ts":10,"dur":30,"depth":1,"tid":"ThreadId(1)"}
{"name":"phase.verify","ph":"X","ts":50,"dur":30,"depth":1,"tid":"ThreadId(1)"}
{"name":"synth.round.r3","ph":"X","ts":0,"dur":100,"depth":0,"tid":"ThreadId(1)"}
{"name":"phase.factorize","ph":"X","ts":0,"dur":30,"depth":0,"tid":"ThreadId(2)"}
{"name":"counters","ph":"C","ts":120,"args":{"x":1}}
"#;
        let tree = parse_profile(text).unwrap();
        let round = tree.find(&["synth.round.r3"]).expect("round node");
        assert_eq!(round.calls, 1);
        assert_eq!(round.total_ns, 100_000, "dur is microseconds");
        assert_eq!(tree.find(&["synth.round.r3", "phase.factorize"]).unwrap().calls, 1);
        assert_eq!(tree.find(&["synth.round.r3", "phase.verify"]).unwrap().calls, 1);
        // Thread 2's top-level factorize merges at the root.
        assert_eq!(tree.find(&["phase.factorize"]).unwrap().calls, 1);
        // Root total = top-level spans only: 100us + 30us.
        assert_eq!(tree.total_ns, 130_000);
    }

    #[test]
    fn parse_profile_rejects_garbage() {
        assert!(parse_profile("").is_err());
        assert!(parse_profile("not json at all").is_err());
        // JSON, but neither a report nor a trace with span events.
        assert!(parse_profile("{\"ph\":\"C\",\"args\":{}}").is_err());
    }

    fn bench_doc(jobs: u64, suites: &[(&str, u64, u64, u64)]) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("jobs", Json::UInt(jobs)),
            (
                "suites",
                Json::Arr(
                    suites
                        .iter()
                        .map(|(name, sub, hits, charts)| {
                            Json::obj(vec![
                                ("suite", Json::Str(name.to_string())),
                                (
                                    "counters",
                                    Json::Obj(
                                        PINNED_COUNTERS
                                            .iter()
                                            .zip([*sub, *hits, *charts, 0, 0])
                                            .map(|(name, v)| (name.to_string(), Json::UInt(v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn drift_detects_moved_counters_over_common_suites() {
        let baseline = bench_doc(1, &[("NPN4[0..24]", 100, 200, 300), ("FDSD6", 10, 20, 30)]);
        let clean = bench_doc(1, &[("NPN4[0..24]", 100, 200, 300)]);
        let report = bench_drift(&baseline, &clean).unwrap();
        assert!(!report.drifted());
        assert_eq!(report.rows.len(), PINNED_COUNTERS.len(), "every pinned counter of one suite");
        assert_eq!(report.unmatched_suites, vec!["FDSD6".to_string()]);
        assert!(report.render().contains("no drift"));

        let moved = bench_doc(1, &[("NPN4[0..24]", 100, 201, 300)]);
        let report = bench_drift(&baseline, &moved).unwrap();
        assert!(report.drifted());
        assert!(report.render().contains("DRIFT"));
    }

    #[test]
    fn drift_rejects_multiworker_candidates() {
        let baseline = bench_doc(1, &[("NPN4[0..24]", 1, 2, 3)]);
        let multi = bench_doc(4, &[("NPN4[0..24]", 1, 2, 3)]);
        let err = bench_drift(&baseline, &multi).unwrap_err();
        assert!(err.contains("jobs=4"), "err: {err}");
        assert!(bench_drift(&baseline, &Json::obj(vec![])).is_err());
        let disjoint = bench_doc(1, &[("OTHER", 1, 2, 3)]);
        assert!(bench_drift(&baseline, &disjoint).is_err());
    }
}
