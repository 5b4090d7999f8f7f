//! Append-only crash journal for [`Store`].
//!
//! Snapshots ([`Store::save`]) are atomic but episodic: everything
//! inserted since the last save dies with the process. The journal
//! closes that window. When a store is opened through [`Store::open`],
//! every published entry is also appended — and fsynced — to a sidecar
//! file `<snapshot>.journal`, so a crash between saves loses nothing
//! that reached the journal.
//!
//! # Format
//!
//! The journal is a text file opening with its own header line:
//!
//! ```text
//! stp-store-journal v2
//! ```
//!
//! followed by length-framed records:
//!
//! ```text
//! insert <payload-bytes>
//! <payload>
//! ```
//!
//! where `<payload>` is exactly `<payload-bytes>` bytes: one `class …`
//! block in the snapshot text format (see [`crate::persist`]), in the
//! grammar matching the journal's own version — legacy `v1` journals
//! are replayed with the v1 single-output grammar and trigger the same
//! on-disk migration as v1 snapshots (see [`Store::open`]). The
//! byte-length framing makes a torn final record — the expected result
//! of crashing mid-append — detectable without checksums: replay stops
//! at the first record whose frame runs past end-of-file and keeps
//! everything before it. A *mid-file* record that is structurally
//! intact but unparsable is real corruption and fails the replay.
//!
//! Replay is idempotent: records are applied with insert-as-replace
//! semantics, so replaying a journal over a snapshot that already
//! contains some of its records is harmless.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

use crate::persist::{entry_block, io_error};
use crate::{ClassKey, Entry, Store, StoreFileError};

/// Magic word opening every journal file.
const MAGIC: &str = "stp-store-journal";
/// The journal format version this build writes (and reads, alongside
/// [`VERSION_V1`]).
const VERSION: &str = "v2";
/// The legacy journal version, accepted read-only.
const VERSION_V1: &str = "v1";

/// An open, attached journal: records are appended and fsynced as
/// entries are published into the owning store.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    file: File,
}

/// The journal sidecar path for a snapshot at `path`.
pub(crate) fn journal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".journal");
    PathBuf::from(os)
}

impl Journal {
    /// Opens `path` for appending, writing (and fsyncing) the header
    /// when the file is new or empty.
    pub(crate) fn open_append(path: PathBuf) -> Result<Journal, StoreFileError> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_error(&path, e))?;
        let len = file.metadata().map_err(|e| io_error(&path, e))?.len();
        if len == 0 {
            file.write_all(format!("{MAGIC} {VERSION}\n").as_bytes())
                .map_err(|e| io_error(&path, e))?;
            file.sync_all().map_err(|e| io_error(&path, e))?;
        }
        Ok(Journal { path, file })
    }

    /// Appends one insert record and fsyncs it. The record is durable
    /// when this returns.
    pub(crate) fn append(&mut self, key: &ClassKey, entry: &Entry) -> Result<(), StoreFileError> {
        stp_faultsim::fail_point!(
            "store.journal.pre_append",
            err = Err(io_error(&self.path, "failpoint `store.journal.pre_append` triggered"))
        );
        let payload = entry_block(key, entry);
        let record = format!("insert {}\n{payload}", payload.len());
        self.file.write_all(record.as_bytes()).map_err(|e| io_error(&self.path, e))?;
        self.file.sync_all().map_err(|e| io_error(&self.path, e))?;
        stp_telemetry::counter!("store.journal_records").inc();
        Ok(())
    }

    /// Truncates the journal back to a bare header (the snapshot now
    /// subsumes every journaled record) and fsyncs.
    pub(crate) fn clear(&mut self) -> Result<(), StoreFileError> {
        self.file.set_len(0).map_err(|e| io_error(&self.path, e))?;
        self.file.rewind().map_err(|e| io_error(&self.path, e))?;
        self.file
            .write_all(format!("{MAGIC} {VERSION}\n").as_bytes())
            .map_err(|e| io_error(&self.path, e))?;
        self.file.sync_all().map_err(|e| io_error(&self.path, e))?;
        Ok(())
    }

    /// The journal's own path (used to decide whether a save should
    /// clear it).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

/// Replays the journal at `path` into `store`, returning the number of
/// records applied and whether the journal used the legacy v1 format.
/// A torn final record (the frame runs past end-of-file) ends the
/// replay with a warning; a structurally intact but unparsable record
/// is corruption and errors out. A parsable record whose chains do not
/// realize its key is dropped (see [`Store::invalid_entries`]).
pub(crate) fn replay(path: &Path, store: &Store) -> Result<(usize, bool), StoreFileError> {
    stp_faultsim::fail_point!(
        "store.load.pre_replay",
        err = Err(io_error(path, "failpoint `store.load.pre_replay` triggered"))
    );
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| io_error(path, e))?;
    // Records parse with the snapshot grammar matching the journal's
    // own version, so a legacy journal replays with legacy class lines.
    let (rest, legacy) = if let Some(rest) = text.strip_prefix(&format!("{MAGIC} {VERSION}\n")) {
        (rest, false)
    } else if let Some(rest) = text.strip_prefix(&format!("{MAGIC} {VERSION_V1}\n")) {
        (rest, true)
    } else {
        let found = text.lines().next().unwrap_or_default();
        if found.starts_with(MAGIC) {
            let version = found.split_whitespace().nth(1).unwrap_or_default();
            return Err(StoreFileError::VersionMismatch { found: version.to_string() });
        }
        return Err(StoreFileError::MissingHeader);
    };
    let snapshot_header = if legacy { "stp-store v1" } else { "stp-store v2" };
    let origin = path.display().to_string();
    let mut applied = 0usize;
    let mut cursor = rest;
    while !cursor.is_empty() {
        let Some((frame, after_frame)) = cursor.split_once('\n') else {
            stp_telemetry::warn!("journal {}: torn frame line at tail, dropped", path.display());
            break;
        };
        let len: usize = match frame.strip_prefix("insert ").and_then(|n| n.parse().ok()) {
            Some(len) => len,
            None => {
                // A frame line that is complete but malformed is not a
                // torn write — the newline made it to disk.
                return Err(StoreFileError::Corrupt {
                    line: 0,
                    message: format!("journal: bad record frame `{frame}`"),
                });
            }
        };
        if after_frame.len() < len {
            stp_telemetry::warn!("journal {}: torn final record, dropped", path.display());
            break;
        }
        let (payload, rest) = after_frame.split_at(len);
        // A full-length payload is past the torn-write window: parse it
        // strictly, reusing the snapshot grammar on a one-block file.
        let parsed =
            Store::parse(&format!("{snapshot_header}\n{payload}")).map_err(|e| match e {
                StoreFileError::Corrupt { line, message } => StoreFileError::Corrupt {
                    line,
                    message: format!("journal record {}: {message}", applied + 1),
                },
                other => other,
            })?;
        for (key, entry) in parsed.snapshot() {
            if store.admit(&key, &entry, &origin) {
                store.insert_class(key, entry);
            }
        }
        if legacy {
            store.note_legacy_load(parsed.migrated_v1());
        }
        applied += 1;
        stp_telemetry::counter!("store.journal_replayed").inc();
        cursor = rest;
    }
    if legacy {
        // Even a record-free legacy journal needs its header rewritten.
        store.note_legacy_load(0);
    }
    Ok((applied, legacy))
}

impl Store {
    /// Opens the store rooted at snapshot `path` with journaling:
    ///
    /// 1. loads the snapshot when it exists (otherwise starts empty);
    /// 2. replays `<path>.journal` over it when one exists, tolerating
    ///    a torn final record;
    /// 3. attaches the journal so every subsequently published entry
    ///    is appended and fsynced.
    ///
    /// A missing snapshot *with* a surviving journal — the signature of
    /// a crash before the first save — still recovers the journaled
    /// entries. A missing snapshot and no journal yields an empty
    /// store. Use [`Store::load`] for a strict snapshot-only read.
    ///
    /// # Migration
    ///
    /// When the snapshot or journal is in the legacy v1 format, the
    /// loaded contents (snapshot plus replayed journal tail) are
    /// re-saved as a v2 snapshot atomically and the journal is reset to
    /// a bare v2 header before it is attached — so a v1 store upgrades
    /// in place on first open with zero data loss. The migrated record
    /// count is reported by [`Store::migrated_v1`] and mirrored into
    /// the `store.migrated_v1` telemetry counter. A crash mid-migration
    /// is safe: the v2 snapshot lands atomically, and a surviving v1
    /// journal merely re-migrates (replay is idempotent).
    ///
    /// # Errors
    ///
    /// [`StoreFileError`] when the snapshot or journal exists but
    /// cannot be read, parsed, opened for appending, or (for legacy
    /// input) rewritten as v2.
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreFileError> {
        let path = path.as_ref();
        let store = if path.exists() { Store::load(path)? } else { Store::new() };
        let jpath = journal_path(path);
        if jpath.exists() {
            let (applied, _journal_was_legacy) = replay(&jpath, &store)?;
            if applied > 0 {
                stp_telemetry::warn!(
                    "store {}: replayed {applied} journal record(s) past the snapshot",
                    path.display()
                );
            }
        }
        let migrate = store.legacy_loaded();
        if migrate {
            // Persist the migrated contents as v2 before attaching the
            // journal: save() is atomic, and the stale v1 journal is
            // reset below only after the snapshot subsumes it.
            store.save(path)?;
            stp_telemetry::counter!("store.migrated_v1").add(store.migrated_v1());
            stp_telemetry::warn!(
                "store {}: migrated {} v1 class record(s) to the v2 format",
                path.display(),
                store.migrated_v1()
            );
        }
        let mut journal = Journal::open_append(jpath)?;
        if migrate {
            journal.clear()?;
        }
        *store.journal.lock().unwrap_or_else(|e| e.into_inner()) = Some(journal);
        Ok(store)
    }

    /// Appends `entry` to the attached journal, if any. Journal write
    /// failures must not fail the in-memory publish that triggered
    /// them: they are logged and counted, and the entry stays live in
    /// memory (the next successful save persists it anyway).
    pub(crate) fn journal_append(&self, key: &ClassKey, entry: &Entry) {
        let mut slot = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(journal) = slot.as_mut() {
            if let Err(e) = journal.append(key, entry) {
                stp_telemetry::counter!("store.journal_errors").inc();
                stp_telemetry::error!("journal append failed: {e}");
            }
        }
    }

    /// Clears the attached journal after a successful snapshot save to
    /// `path` — but only when the journal actually belongs to that
    /// snapshot (saving a journaled store to some *other* path must not
    /// wipe the crash log of its own).
    pub(crate) fn clear_journal_after_save(&self, path: &Path) {
        let mut slot = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let Some(journal) = slot.as_mut() else { return };
        if journal.path() != journal_path(path) {
            return;
        }
        stp_faultsim::fail_point!("store.save.pre_journal_clear");
        if let Err(e) = journal.clear() {
            stp_telemetry::counter!("store.journal_errors").inc();
            stp_telemetry::error!("journal clear failed: {e}");
        }
    }
}
