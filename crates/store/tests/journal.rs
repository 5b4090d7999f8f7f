//! Journal round-trip and recovery behavior (no fault injection —
//! these run in every configuration).

use std::path::{Path, PathBuf};
use std::time::Duration;

use stp_chain::{Chain, OutputRef};
use stp_store::{Entry, Store, StoreFileError};
use stp_tt::TruthTable;

/// A unique scratch directory per test (std-only; no tempfile crate).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("stp-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn snapshot(&self) -> PathBuf {
        self.0.join("store.txt")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn journal_path(snapshot: &Path) -> PathBuf {
    let mut os = snapshot.as_os_str().to_owned();
    os.push(".journal");
    PathBuf::from(os)
}

fn one_gate_chain(tt2: u8) -> Chain {
    let mut chain = Chain::new(2);
    let g = chain.add_gate(0, 1, tt2).unwrap();
    chain.add_output(OutputRef::signal(g));
    chain
}

fn rep(hex: &str) -> TruthTable {
    TruthTable::from_hex(2, hex).unwrap()
}

#[test]
fn journal_only_recovery_after_a_crash_before_first_save() {
    let scratch = Scratch::new("journal-only");
    let path = scratch.snapshot();
    {
        let store = Store::open(&path).unwrap();
        store.insert(rep("6"), Entry::Solved(vec![one_gate_chain(0x6)]));
        store.insert(rep("8"), Entry::Exhausted { budget: Duration::from_millis(25) });
        // Dropped without save: the crash-before-first-save scenario.
    }
    assert!(!path.exists(), "no snapshot was ever written");
    assert!(journal_path(&path).exists(), "inserts must have reached the journal");
    let recovered = Store::open(&path).unwrap();
    assert_eq!(recovered.len(), 2);
    assert!(matches!(recovered.get(&rep("6")), Some(Entry::Solved(_))));
    assert!(matches!(
        recovered.get(&rep("8")),
        Some(Entry::Exhausted { budget }) if budget.as_millis() == 25
    ));
}

#[test]
fn save_clears_the_journal_and_snapshot_subsumes_it() {
    let scratch = Scratch::new("save-clears");
    let path = scratch.snapshot();
    let store = Store::open(&path).unwrap();
    store.insert(rep("6"), Entry::Solved(vec![one_gate_chain(0x6)]));
    store.save(&path).unwrap();
    let journal = std::fs::read_to_string(journal_path(&path)).unwrap();
    assert_eq!(journal, "stp-store-journal v2\n", "save must truncate the journal");
    // Entries inserted after the save land in the journal again.
    store.insert(rep("8"), Entry::Solved(vec![one_gate_chain(0x8)]));
    let journal = std::fs::read_to_string(journal_path(&path)).unwrap();
    assert!(journal.len() > "stp-store-journal v2\n".len());
    // Reload: snapshot + replayed journal give back both entries.
    let recovered = Store::open(&path).unwrap();
    assert_eq!(recovered.len(), 2);
}

#[test]
fn saving_to_a_foreign_path_keeps_the_journal() {
    let scratch = Scratch::new("foreign-save");
    let path = scratch.snapshot();
    let store = Store::open(&path).unwrap();
    store.insert(rep("6"), Entry::Solved(vec![one_gate_chain(0x6)]));
    let other = scratch.0.join("export.txt");
    store.save(&other).unwrap();
    let journal = std::fs::read_to_string(journal_path(&path)).unwrap();
    assert!(
        journal.len() > "stp-store-journal v2\n".len(),
        "an export to a different path must not wipe this snapshot's crash log"
    );
}

#[test]
fn torn_final_record_is_dropped_and_the_rest_recovered() {
    let scratch = Scratch::new("torn-tail");
    let path = scratch.snapshot();
    {
        let store = Store::open(&path).unwrap();
        store.insert(rep("6"), Entry::Solved(vec![one_gate_chain(0x6)]));
        store.insert(rep("8"), Entry::Solved(vec![one_gate_chain(0x8)]));
    }
    // Tear the final record mid-payload, as a crash mid-append would.
    let jpath = journal_path(&path);
    let bytes = std::fs::read(&jpath).unwrap();
    std::fs::write(&jpath, &bytes[..bytes.len() - 7]).unwrap();
    let recovered = Store::open(&path).unwrap();
    assert_eq!(recovered.len(), 1, "the intact first record must survive");
    assert!(matches!(recovered.get(&rep("6")), Some(Entry::Solved(_))));
    assert!(recovered.get(&rep("8")).is_none());
}

#[test]
fn corrupt_mid_file_journal_record_is_an_error() {
    let scratch = Scratch::new("corrupt-mid");
    let path = scratch.snapshot();
    {
        let store = Store::open(&path).unwrap();
        store.insert(rep("6"), Entry::Solved(vec![one_gate_chain(0x6)]));
    }
    let jpath = journal_path(&path);
    // A structurally complete record whose payload is garbage is data
    // corruption, not a torn write: replay must refuse it.
    let mut text = std::fs::read_to_string(&jpath).unwrap();
    let payload = "class 2 zz solved 1\n";
    text.push_str(&format!("insert {}\n{payload}", payload.len()));
    // Append a further valid-looking record so the bad one is mid-file.
    let tail = "class 2 9 exhausted 1 0\n";
    text.push_str(&format!("insert {}\n{tail}", tail.len()));
    std::fs::write(&jpath, text).unwrap();
    let err = Store::open(&path).unwrap_err();
    assert!(
        matches!(&err, StoreFileError::Corrupt { message, .. } if message.contains("journal record")),
        "got {err:?}"
    );
}

#[test]
fn journal_with_wrong_version_is_rejected() {
    let scratch = Scratch::new("bad-version");
    let path = scratch.snapshot();
    std::fs::write(journal_path(&path), "stp-store-journal v999\n").unwrap();
    let err = Store::open(&path).unwrap_err();
    assert_eq!(err, StoreFileError::VersionMismatch { found: "v999".to_string() });
}

#[test]
fn open_on_a_fresh_path_yields_an_empty_journaled_store() {
    let scratch = Scratch::new("fresh");
    let path = scratch.snapshot();
    let store = Store::open(&path).unwrap();
    assert!(store.is_empty());
    assert!(journal_path(&path).exists(), "open attaches (and creates) the journal");
    // Strict load still refuses a missing snapshot.
    let err = Store::load(&path).unwrap_err();
    assert!(matches!(err, StoreFileError::Io { .. }));
}

#[test]
fn replay_is_idempotent_over_a_snapshot_containing_the_records() {
    let scratch = Scratch::new("idempotent");
    let path = scratch.snapshot();
    let store = Store::open(&path).unwrap();
    store.insert(rep("6"), Entry::Solved(vec![one_gate_chain(0x6)]));
    store.save(&path).unwrap();
    // Re-journal the same class (an upgrade path would do this), then
    // reload: insert-as-replace keeps exactly one entry.
    store.insert(rep("6"), Entry::Solved(vec![one_gate_chain(0x6)]));
    let recovered = Store::open(&path).unwrap();
    assert_eq!(recovered.len(), 1);
}

#[test]
fn io_errors_name_the_offending_path() {
    let err = Store::load("/nonexistent/stp-store.txt").unwrap_err();
    let StoreFileError::Io { path, message } = &err else {
        panic!("expected Io, got {err:?}");
    };
    assert!(path.contains("/nonexistent/stp-store.txt"), "got path `{path}`");
    assert!(!message.is_empty());
    assert!(err.to_string().contains("/nonexistent/stp-store.txt"));
}

#[test]
fn replay_and_load_drop_entries_whose_chains_miss_their_class() {
    let scratch = Scratch::new("invalid-entries");
    let path = scratch.snapshot();
    {
        // `insert` is unchecked, so a wrong chain reaches both files: the
        // snapshot holds a complemented XOR, the journal a complemented AND.
        let store = Store::open(&path).unwrap();
        store.insert(rep("6"), Entry::Solved(vec![one_gate_chain(0x9)]));
        store.insert(rep("e"), Entry::Solved(vec![one_gate_chain(0xe)]));
        store.save(&path).unwrap();
        store.insert(rep("8"), Entry::Solved(vec![one_gate_chain(0x7)]));
    }
    let recovered = Store::open(&path).unwrap();
    assert_eq!(recovered.invalid_entries(), 2, "one from the snapshot, one from the journal");
    assert_eq!(recovered.get(&rep("6")), None);
    assert_eq!(recovered.get(&rep("8")), None);
    assert!(matches!(recovered.get(&rep("e")), Some(Entry::Solved(_))), "valid entries stay");
}
