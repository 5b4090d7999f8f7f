//! Versioned, human-readable on-disk format for [`Store`].
//!
//! The format is line-oriented text so a warmed store can be inspected,
//! diffed, and checked into a repository. Blank lines and `#` comments
//! are ignored. The first non-comment line is the header:
//!
//! ```text
//! stp-store v2
//! ```
//!
//! followed by one block per class key, sorted by arity, output count,
//! and table values (so serialization is deterministic):
//!
//! ```text
//! class 4 1 8ff8 solved 2
//! chain 3
//! gate 2 3 6
//! gate 0 1 8
//! gate 4 5 e
//! output x6
//! endchain
//! chain 3
//! ...
//! endchain
//! class 3 2 96 e8 solved 1
//! ...
//! class 4 1 abcd exhausted 2 0
//! ```
//!
//! * `class <nvars> <k> <hex>…×k solved <count>` introduces a solved
//!   class over `k` outputs with `count ≥ 1` chains;
//! * `chain <ngates>` … `endchain` lists one chain: `gate <f0> <f1>
//!   <tt2-hex>` per gate (fanins are 0-based signal indices) and one
//!   `output` line per tap (`x<i>`, `!x<i>`, `const0`, or `const1`);
//! * `class <nvars> <k> <hex>…×k exhausted <secs> <nanos>` records a
//!   failed budget.
//!
//! # Legacy v1
//!
//! The original format (`stp-store v1` header) was single-output only:
//! its class lines read `class <nvars> <hex> …` with no output count.
//! [`Store::parse`] still accepts v1 bodies, wrapping each class as a
//! 1-output key and tallying the records in [`Store::migrated_v1`];
//! [`Store::open`] additionally rewrites migrated files as v2 on disk.
//! Writing always produces v2. Versions beyond v2 are rejected with
//! [`StoreFileError::VersionMismatch`].
//!
//! Loading is fully checked: a wrong magic word, a future version, a
//! malformed line, truncated chains, structurally invalid chains, or
//! duplicate classes all produce a precise [`StoreFileError`] instead
//! of a silently corrupt store. [`Store::load`] also simulates every
//! solved entry against its class and drops (and counts, in
//! [`Store::invalid_entries`]) one whose chains do not realize it;
//! [`Store::parse`] publishes what it reads unchecked.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::time::Duration;

use stp_chain::{Chain, OutputRef};
use stp_tt::TruthTable;

use crate::{ClassKey, Entry, Store};

/// Magic word opening every store file.
const MAGIC: &str = "stp-store";
/// The format version this build writes (and reads, alongside
/// [`VERSION_V1`]).
const VERSION: &str = "v2";
/// The legacy single-output format version, accepted read-only.
const VERSION_V1: &str = "v1";

/// Errors raised while saving or loading a store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreFileError {
    /// The underlying file operation failed.
    Io {
        /// The file or directory the operation was aimed at.
        path: String,
        /// Operating-system error message.
        message: String,
    },
    /// The file does not start with the `stp-store` magic word.
    MissingHeader,
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// The version string found in the header.
        found: String,
    },
    /// A structurally invalid line or block.
    Corrupt {
        /// 1-based line number of the offending line (or the last line
        /// for truncation errors).
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for StoreFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreFileError::Io { path, message } => {
                write!(f, "store file I/O error at {path}: {message}")
            }
            StoreFileError::MissingHeader => {
                write!(f, "not a store file: missing `{MAGIC} {VERSION}` header")
            }
            StoreFileError::VersionMismatch { found } => {
                write!(
                    f,
                    "store file version {found} is not supported \
                     (this build reads {VERSION_V1} and {VERSION}, writes {VERSION})"
                )
            }
            StoreFileError::Corrupt { line, message } => {
                write!(f, "corrupt store file at line {line}: {message}")
            }
        }
    }
}

impl Error for StoreFileError {}

fn corrupt(line: usize, message: impl Into<String>) -> StoreFileError {
    StoreFileError::Corrupt { line, message: message.into() }
}

/// Wraps an OS error with the path the operation was aimed at, so "No
/// such file or directory" always says *which* file.
pub(crate) fn io_error(path: &Path, e: impl fmt::Display) -> StoreFileError {
    StoreFileError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Serializes one `class …` block in the v2 grammar (the unit shared
/// by the snapshot format and the journal's record payloads).
pub(crate) fn entry_block(key: &ClassKey, entry: &Entry) -> String {
    let mut out = String::new();
    let tables = key.reps().iter().map(|r| r.to_hex()).collect::<Vec<_>>().join(" ");
    match entry {
        Entry::Solved(chains) => {
            out.push_str(&format!(
                "class {} {} {} solved {}\n",
                key.num_vars(),
                key.num_outputs(),
                tables,
                chains.len()
            ));
            for chain in chains {
                out.push_str(&format!("chain {}\n", chain.num_gates()));
                for gate in chain.gates() {
                    out.push_str(&format!(
                        "gate {} {} {:x}\n",
                        gate.fanin[0], gate.fanin[1], gate.tt2
                    ));
                }
                for tap in chain.outputs() {
                    match tap {
                        OutputRef::Signal { index, negated } => {
                            let sign = if *negated { "!" } else { "" };
                            out.push_str(&format!("output {sign}x{index}\n"));
                        }
                        OutputRef::Constant(v) => {
                            out.push_str(&format!("output const{}\n", *v as u8));
                        }
                    }
                }
                out.push_str("endchain\n");
            }
        }
        Entry::Exhausted { budget } => {
            out.push_str(&format!(
                "class {} {} {} exhausted {} {}\n",
                key.num_vars(),
                key.num_outputs(),
                tables,
                budget.as_secs(),
                budget.subsec_nanos()
            ));
        }
    }
    out
}

impl Store {
    /// Serializes every ready entry to the versioned text format.
    /// Deterministic: entries are sorted by representative, chains keep
    /// their stored order, so save → load → save is byte-identical.
    pub fn save_to_string(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push(' ');
        out.push_str(VERSION);
        out.push('\n');
        for (key, entry) in self.snapshot() {
            out.push_str(&entry_block(&key, &entry));
        }
        out
    }

    /// Writes the store to `path` (see [`Store::save_to_string`])
    /// crash-safely: the snapshot goes to a temporary sibling first,
    /// is fsynced, and is atomically renamed over `path` — a crash at
    /// any point leaves either the old snapshot or the new one, never
    /// a torn file. When a journal is attached for this snapshot (see
    /// [`Store::open`]), a successful save truncates it: the snapshot
    /// now subsumes every journaled record.
    ///
    /// # Errors
    ///
    /// [`StoreFileError::Io`] (carrying the offending path) when any
    /// step of the write fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreFileError> {
        let path = path.as_ref();
        stp_faultsim::fail_point!(
            "store.save.pre_write",
            err = Err(io_error(path, "failpoint `store.save.pre_write` triggered"))
        );
        let tmp = {
            let mut os = path.as_os_str().to_owned();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp).map_err(|e| io_error(&tmp, e))?;
            file.write_all(self.save_to_string().as_bytes()).map_err(|e| io_error(&tmp, e))?;
            file.sync_all().map_err(|e| io_error(&tmp, e))?;
        }
        stp_faultsim::fail_point!("store.save.pre_rename");
        std::fs::rename(&tmp, path).map_err(|e| io_error(path, e))?;
        // Persist the rename itself: fsync the parent directory (best
        // effort — some filesystems refuse directory handles).
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        self.clear_journal_after_save(path);
        Ok(())
    }

    /// Parses a store from its text serialization.
    ///
    /// Both the current v2 grammar and the legacy single-output v1
    /// grammar are accepted; v1 class records are wrapped as 1-output
    /// keys and tallied in [`Store::migrated_v1`].
    ///
    /// # Errors
    ///
    /// [`StoreFileError::MissingHeader`] / [`StoreFileError::VersionMismatch`]
    /// for bad headers, [`StoreFileError::Corrupt`] (with a line number)
    /// for everything structurally wrong below them.
    ///
    /// Records are published unchecked, like [`Store::insert`]: whether
    /// a chain realizes its class is checked by the file entry points
    /// ([`Store::load`], [`Store::open`], [`Store::merge_files`]).
    pub fn parse(text: &str) -> Result<Store, StoreFileError> {
        let store = Store::new();
        Store::parse_into(text, &store, None)?;
        Ok(store)
    }

    /// Parses `text` into `store`. With an `origin` (the file the text came
    /// from), each record must pass [`Store::admit`] to be published;
    /// without one, records are published unchecked.
    fn parse_into(text: &str, store: &Store, origin: Option<&str>) -> Result<(), StoreFileError> {
        let mut seen = HashSet::new();
        // Numbered, non-blank, non-comment lines.
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .peekable();
        let Some((header_no, header)) = lines.next() else {
            return Err(StoreFileError::MissingHeader);
        };
        let legacy = match header.split_whitespace().collect::<Vec<_>>().as_slice() {
            [MAGIC, VERSION] => false,
            [MAGIC, VERSION_V1] => true,
            [MAGIC, found] => {
                return Err(StoreFileError::VersionMismatch { found: (*found).to_string() })
            }
            _ => {
                let _ = header_no;
                return Err(StoreFileError::MissingHeader);
            }
        };
        if legacy {
            store.note_legacy_load(0);
        }
        let mut last_line = header_no;
        let mut migrated = 0u64;
        while let Some((no, line)) = lines.next() {
            last_line = no;
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [kw, nvars, tail @ ..] = fields.as_slice() else {
                return Err(corrupt(no, format!("expected a class block, got `{line}`")));
            };
            if *kw != "class" {
                return Err(corrupt(no, format!("expected `class`, got `{kw}`")));
            }
            let nvars: usize =
                nvars.parse().map_err(|_| corrupt(no, format!("bad arity `{nvars}`")))?;
            // v1: <hex> <state> <rest..>     v2: <k> <hex>×k <state> <rest..>
            let (hexes, state_rest) = if legacy {
                let [hex, state_rest @ ..] = tail else {
                    return Err(corrupt(no, format!("expected a class block, got `{line}`")));
                };
                (std::slice::from_ref(hex), state_rest)
            } else {
                let [k, after_k @ ..] = tail else {
                    return Err(corrupt(no, format!("expected a class block, got `{line}`")));
                };
                let k: usize = k
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or_else(|| corrupt(no, format!("bad output count `{k}`")))?;
                if after_k.len() < k + 1 {
                    return Err(corrupt(
                        no,
                        format!("class declares {k} outputs but the line is too short"),
                    ));
                }
                after_k.split_at(k)
            };
            let mut reps = Vec::with_capacity(hexes.len());
            for hex in hexes {
                reps.push(
                    TruthTable::from_hex(nvars, hex)
                        .map_err(|e| corrupt(no, format!("bad truth table `{hex}`: {e}")))?,
                );
            }
            let key = ClassKey::multi(reps);
            if !seen.insert(key.clone()) {
                return Err(corrupt(
                    no,
                    format!("duplicate class {} over {nvars} vars", key.label()),
                ));
            }
            let [state, rest @ ..] = state_rest else {
                return Err(corrupt(no, format!("expected a class block, got `{line}`")));
            };
            let entry = match (*state, rest) {
                ("solved", [count]) => {
                    let count: usize = count
                        .parse()
                        .map_err(|_| corrupt(no, format!("bad chain count `{count}`")))?;
                    if count == 0 {
                        return Err(corrupt(no, "a solved class must have at least one chain"));
                    }
                    let mut chains = Vec::with_capacity(count);
                    for _ in 0..count {
                        let (chain, end) = parse_chain(&mut lines, nvars, no)?;
                        last_line = end;
                        chains.push(chain);
                    }
                    Entry::Solved(chains)
                }
                ("exhausted", [secs, nanos]) => {
                    let secs: u64 =
                        secs.parse().map_err(|_| corrupt(no, format!("bad seconds `{secs}`")))?;
                    let nanos: u32 = nanos
                        .parse()
                        .ok()
                        .filter(|n| *n < 1_000_000_000)
                        .ok_or_else(|| corrupt(no, format!("bad nanoseconds `{nanos}`")))?;
                    Entry::Exhausted { budget: Duration::new(secs, nanos) }
                }
                _ => {
                    return Err(corrupt(
                        no,
                        format!(
                            "expected `solved <count>` or `exhausted <secs> <nanos>`, got `{state}`"
                        ),
                    ))
                }
            };
            if origin.is_none_or(|origin| store.admit(&key, &entry, origin)) {
                store.insert_class(key, entry);
                migrated += 1;
            }
        }
        let _ = last_line;
        if legacy && migrated > 0 {
            store.note_legacy_load(migrated);
        }
        Ok(())
    }

    /// Reads a store from `path` (see [`Store::parse`]), checking every
    /// solved entry against its key: an entry whose chains do not
    /// realize it is dropped with a warning and counted in
    /// [`Store::invalid_entries`].
    ///
    /// # Errors
    ///
    /// [`StoreFileError::Io`] when the file cannot be read, plus every
    /// parse error of [`Store::parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Store, StoreFileError> {
        let path = path.as_ref();
        let store = Store::new();
        Store::parse_into(&read(path)?, &store, Some(&path.display().to_string()))?;
        Ok(store)
    }
}

/// The text of the store file at `path`.
pub(crate) fn read(path: &Path) -> Result<String, StoreFileError> {
    std::fs::read_to_string(path).map_err(|e| io_error(path, e))
}

/// Parses one `chain <ngates>` … `endchain` block; returns the chain
/// and the line number of its `endchain`.
fn parse_chain<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    num_inputs: usize,
    class_line: usize,
) -> Result<(Chain, usize), StoreFileError> {
    let Some((no, line)) = lines.next() else {
        return Err(corrupt(class_line, "truncated file: missing chain block"));
    };
    let ngates: usize = match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["chain", n] => n.parse().map_err(|_| corrupt(no, format!("bad gate count `{n}`")))?,
        _ => return Err(corrupt(no, format!("expected `chain <ngates>`, got `{line}`"))),
    };
    let mut chain = Chain::new(num_inputs);
    let mut outputs = 0usize;
    loop {
        let Some((no, line)) = lines.next() else {
            return Err(corrupt(class_line, "truncated file: chain block missing `endchain`"));
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["gate", f0, f1, tt2] => {
                if outputs > 0 {
                    return Err(corrupt(no, "gates must precede outputs"));
                }
                let f0: usize = f0.parse().map_err(|_| corrupt(no, format!("bad fanin `{f0}`")))?;
                let f1: usize = f1.parse().map_err(|_| corrupt(no, format!("bad fanin `{f1}`")))?;
                let tt2 = u8::from_str_radix(tt2, 16)
                    .ok()
                    .filter(|t| *t <= 0xf)
                    .ok_or_else(|| corrupt(no, format!("bad gate function `{tt2}`")))?;
                chain
                    .add_gate(f0, f1, tt2)
                    .map_err(|e| corrupt(no, format!("invalid gate: {e}")))?;
            }
            ["output", tap] => {
                let tap = match *tap {
                    "const0" => OutputRef::Constant(false),
                    "const1" => OutputRef::Constant(true),
                    s => {
                        let (negated, idx) = match s.strip_prefix('!') {
                            Some(rest) => (true, rest),
                            None => (false, s),
                        };
                        let idx = idx
                            .strip_prefix('x')
                            .and_then(|i| i.parse::<usize>().ok())
                            .ok_or_else(|| corrupt(no, format!("bad output tap `{s}`")))?;
                        OutputRef::Signal { index: idx, negated }
                    }
                };
                chain.add_output(tap);
                outputs += 1;
            }
            ["endchain"] => {
                if chain.num_gates() != ngates {
                    return Err(corrupt(
                        no,
                        format!("chain declared {ngates} gates but listed {}", chain.num_gates()),
                    ));
                }
                if outputs == 0 {
                    return Err(corrupt(no, "chain has no output taps"));
                }
                chain.validate().map_err(|e| corrupt(no, format!("invalid chain: {e}")))?;
                return Ok((chain, no));
            }
            _ => {
                return Err(corrupt(
                    no,
                    format!("expected `gate`, `output`, or `endchain`, got `{line}`"),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NpnOutcome, RepOutcome};

    fn populated_store() -> Store {
        let store = Store::new();
        for hex in ["6", "8", "1"] {
            let spec = TruthTable::from_hex(2, hex).unwrap();
            store
                .solve_npn(&spec, Duration::MAX, |rep| {
                    let mut chain = Chain::new(2);
                    let g = chain.add_gate(0, 1, rep.words()[0] as u8 & 0xf).unwrap();
                    chain.add_output(OutputRef::signal(g));
                    Ok::<_, stp_chain::ChainError>(RepOutcome::Solved(vec![chain]))
                })
                .unwrap();
        }
        store.insert(
            TruthTable::from_hex(4, "1ee1").unwrap(),
            Entry::Exhausted { budget: Duration::new(2, 500) },
        );
        store
    }

    #[test]
    fn save_load_round_trip_is_byte_identical() {
        let store = populated_store();
        let text = store.save_to_string();
        let reloaded = Store::parse(&text).unwrap();
        assert_eq!(reloaded.save_to_string(), text);
        // Chains survive bit-for-bit, not just functionally.
        assert_eq!(reloaded.snapshot(), store.snapshot());
    }

    #[test]
    fn save_load_round_trip_through_a_file() {
        let store = populated_store();
        let path = std::env::temp_dir().join(format!("stp-store-test-{}.txt", std::process::id()));
        store.save(&path).unwrap();
        let reloaded = Store::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reloaded.save_to_string(), store.save_to_string());
    }

    #[test]
    fn loaded_entries_answer_without_solving() {
        let store = populated_store();
        let reloaded = Store::parse(&store.save_to_string()).unwrap();
        let xor = TruthTable::from_hex(2, "6").unwrap();
        let outcome = reloaded
            .solve_npn(&xor, Duration::MAX, |_| -> Result<RepOutcome, stp_chain::ChainError> {
                panic!("loaded class must not re-synthesize")
            })
            .unwrap();
        let NpnOutcome::Solved(view) = outcome else { panic!("expected solutions") };
        assert_eq!(view.first().unwrap().simulate_outputs().unwrap()[0], xor);
        assert_eq!(reloaded.misses(), 0);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Store::load("/nonexistent/stp-store.txt").unwrap_err();
        assert!(matches!(err, StoreFileError::Io { .. }));
    }

    #[test]
    fn missing_header_is_reported() {
        assert_eq!(Store::parse("").unwrap_err(), StoreFileError::MissingHeader);
        assert_eq!(Store::parse("# only a comment\n").unwrap_err(), StoreFileError::MissingHeader);
        assert_eq!(Store::parse("not-a-store v1\n").unwrap_err(), StoreFileError::MissingHeader);
    }

    #[test]
    fn version_mismatch_is_reported() {
        let err = Store::parse("stp-store v999\n").unwrap_err();
        assert_eq!(err, StoreFileError::VersionMismatch { found: "v999".to_string() });
    }

    #[test]
    fn corrupt_lines_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("stp-store v1\nnonsense here now more\n", "expected `class`"),
            ("stp-store v1\nclass 2 zz solved 1\n", "bad truth table"),
            ("stp-store v1\nclass 2 6 solved 0\n", "at least one chain"),
            ("stp-store v1\nclass 2 6 maybe 1\n", "expected `solved"),
            ("stp-store v1\nclass 2 6 exhausted 1 2000000000\n", "bad nanoseconds"),
            (
                "stp-store v1\nclass 2 6 solved 1\nchain 1\ngate 0 0 6\noutput x2\nendchain\n",
                "invalid gate",
            ),
            (
                "stp-store v1\nclass 2 6 solved 1\nchain 2\ngate 0 1 6\noutput x2\nendchain\n",
                "declared 2 gates",
            ),
            ("stp-store v1\nclass 2 6 solved 1\nchain 1\ngate 0 1 6\nendchain\n", "no output taps"),
            (
                "stp-store v1\nclass 2 6 solved 1\nchain 1\ngate 0 1 6\noutput x9\nendchain\n",
                "invalid chain",
            ),
        ];
        for (text, needle) in cases {
            let err = Store::parse(text).unwrap_err();
            let StoreFileError::Corrupt { line, message } = &err else {
                panic!("expected Corrupt for {text:?}, got {err:?}");
            };
            assert!(*line >= 2, "line number must point past the header");
            assert!(
                message.contains(needle),
                "error `{message}` should mention `{needle}` for {text:?}"
            );
        }
    }

    #[test]
    fn truncated_files_are_reported() {
        for text in [
            "stp-store v1\nclass 2 6 solved 1\n",
            "stp-store v1\nclass 2 6 solved 1\nchain 1\ngate 0 1 6\noutput x2\n",
            "stp-store v1\nclass 2 6 solved 2\nchain 1\ngate 0 1 6\noutput x2\nendchain\n",
        ] {
            let err = Store::parse(text).unwrap_err();
            assert!(
                matches!(&err, StoreFileError::Corrupt { message, .. } if message.contains("truncated")),
                "expected truncation error for {text:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn duplicate_classes_are_rejected() {
        let text = "stp-store v1\n\
                    class 2 6 exhausted 1 0\n\
                    class 2 6 exhausted 2 0\n";
        let err = Store::parse(text).unwrap_err();
        assert!(
            matches!(&err, StoreFileError::Corrupt { line: 3, message } if message.contains("duplicate")),
            "got {err:?}"
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# warmed store\n\nstp-store v1\n# the XOR class\nclass 2 6 solved 1\n\
                    chain 1\ngate 0 1 6\noutput x2\nendchain\n";
        let store = Store::parse(text).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn negated_and_constant_outputs_round_trip() {
        let store = Store::new();
        let mut chain = Chain::new(2);
        let g = chain.add_gate(0, 1, 0x9).unwrap();
        chain.add_output(OutputRef::negated_signal(g));
        chain.add_output(OutputRef::Constant(true));
        store.insert(TruthTable::from_hex(2, "6").unwrap(), Entry::Solved(vec![chain]));
        let text = store.save_to_string();
        assert!(text.contains("output !x2"));
        assert!(text.contains("output const1"));
        let reloaded = Store::parse(&text).unwrap();
        assert_eq!(reloaded.save_to_string(), text);
    }
}
