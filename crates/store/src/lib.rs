//! `stp-store`: a thread-safe, persistent NPN-class solution database.
//!
//! Exact synthesis is called once per cut function by the paper's
//! headline application (DAG-aware rewriting, its ref. [2]), and the
//! distribution of cut functions collapses onto a few hundred NPN
//! classes — all 222 four-input classes in the paper's `NPN4` suite.
//! Precomputing and sharing the optimum chains per class turns repeated
//! synthesis traffic from *O(calls)* into *O(distinct classes)*. This
//! crate is the one store every entry path shares:
//!
//! * [`Store`] — a sharded map from NPN class representatives to an
//!   [`Entry`]: either the full verified solution set
//!   ([`Entry::Solved`]) or a recorded failure at a known budget
//!   ([`Entry::Exhausted`], retried only when a caller offers more
//!   time);
//! * [`Store::lookup_or_solve`] — concurrent lookup with in-flight
//!   deduplication: when N threads ask for the same unsolved class,
//!   exactly one synthesizes while the rest wait on the slot;
//! * [`Store::solve_npn`] — the shared *canonicalize → lookup-or-solve*
//!   helper used by `stp_synth::synthesize_npn`,
//!   `stp_network::SynthesisCache` and `stpd`, with a trivial-function
//!   fast path that never touches canonicalization or the store. A
//!   solved class is answered with an [`NpnView`]: the store's shared
//!   chains plus the NPN transform, mapped back only when read;
//! * [`Store::solve_npn_multi`] — the multi-output analogue: entries
//!   are keyed by [`ClassKey`] (a tuple of representatives over a
//!   common support, as produced by `stp_tt::canonicalize_multi`), so
//!   whole cut cones share one entry per multi-output NPN orbit;
//! * [`Store::save`] / [`Store::load`] — a versioned, human-readable
//!   text serialization (see the module docs of `persist`): v2 files
//!   carry multi-output classes, and legacy v1 snapshots and journals
//!   are migrated in place by [`Store::open`].
//!
//! # Checks
//!
//! A wrong chain is refused and counted, never served:
//!
//! * [`NpnView::first`] simulates the one chain it maps against the
//!   caller's spec in release builds; a mismatch is an error counted in
//!   `store.mapback_rejects`, and the entry is dropped so the next
//!   lookup re-solves the class. [`NpnView::iter`], which maps whole
//!   solution sets, checks only under `debug_assert!`.
//! * Entries that come from outside the process — [`Store::load`],
//!   [`Store::open`] (snapshot and journal replay), [`Store::merge_entry`]
//!   and with it [`Store::merge`] and [`Store::merge_files`] — are
//!   simulated once against their [`ClassKey`]. A failing entry is
//!   dropped with a warning and counted in `store.invalid_entries`;
//!   its class is re-solved on demand.
//! * [`Store::insert`] / [`Store::insert_class`] and [`Store::parse`]
//!   stay unchecked: they are the in-process API that tests and benches
//!   use to plant entries.
//!
//! The store is deliberately *below* the synthesis engine in the crate
//! graph: it never synthesizes anything itself, callers pass a closure.
//! That keeps `stp-synth` free to depend on it without a cycle.
//!
//! # Quick start
//!
//! ```
//! use std::time::Duration;
//! use stp_chain::{Chain, OutputRef};
//! use stp_store::{NpnOutcome, RepOutcome, Store};
//! use stp_tt::TruthTable;
//!
//! let store = Store::new();
//! let spec = TruthTable::from_hex(2, "6")?; // XOR
//! // A stand-in "solver" for the class representative.
//! let solve = |rep: &TruthTable| -> Result<RepOutcome, stp_chain::ChainError> {
//!     let mut chain = Chain::new(2);
//!     let g = chain.add_gate(0, 1, rep.words()[0] as u8 & 0xf)?;
//!     chain.add_output(OutputRef::signal(g));
//!     Ok(RepOutcome::Solved(vec![chain]))
//! };
//! let NpnOutcome::Solved(view) = store.solve_npn(&spec, Duration::MAX, solve)? else {
//!     unreachable!("solver always succeeds");
//! };
//! // One stored chain; `first` maps it back and checks it against `spec`.
//! assert_eq!(view.len(), 1);
//! let chain = view.first().expect("the stored chain realizes its class");
//! assert_eq!(chain.simulate_outputs()?[0], spec);
//! assert_eq!(store.misses(), 1);
//! // The whole NPN orbit now answers from the store.
//! assert!(matches!(
//!     store.solve_npn(&spec, Duration::MAX, solve)?,
//!     NpnOutcome::Solved(_)
//! ));
//! assert_eq!(store.misses(), 1);
//! # Ok::<(), stp_chain::ChainError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod journal;
mod persist;
mod view;

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stp_chain::{merge_chains, trivial_chain, Chain, ChainError};
use stp_tt::{canonicalize, canonicalize_multi, TruthTable};

pub use persist::StoreFileError;
pub use view::{Iter as NpnViewIter, MapBackError, NpnView};

/// The key of one store entry: the NPN class representative(s) of a
/// single- or multi-output specification over a common support.
///
/// Single-output entries are 1-tuples; multi-output entries key the
/// *sorted canonical output vector* produced by
/// [`stp_tt::canonicalize_multi`], so every member of a multi-output
/// NPN orbit shares one entry. All tables in a key have the same arity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClassKey {
    reps: Vec<TruthTable>,
}

impl ClassKey {
    /// A single-output key (the store's original keyspace).
    pub fn single(rep: TruthTable) -> Self {
        ClassKey { reps: vec![rep] }
    }

    /// A multi-output key.
    ///
    /// # Panics
    ///
    /// Panics when `reps` is empty or the tables disagree on arity —
    /// both are caller bugs, not data-dependent conditions.
    pub fn multi(reps: Vec<TruthTable>) -> Self {
        assert!(!reps.is_empty(), "a class key needs at least one output");
        let nvars = reps[0].num_vars();
        assert!(
            reps.iter().all(|r| r.num_vars() == nvars),
            "all outputs of a class key must share one arity"
        );
        ClassKey { reps }
    }

    /// The representative tables, in key order.
    pub fn reps(&self) -> &[TruthTable] {
        &self.reps
    }

    /// The common input arity.
    pub fn num_vars(&self) -> usize {
        self.reps[0].num_vars()
    }

    /// How many outputs the key covers.
    pub fn num_outputs(&self) -> usize {
        self.reps.len()
    }

    /// A compact human-readable label (`8ff8` or `6+e8`), used in
    /// diagnostics and error messages.
    pub fn label(&self) -> String {
        self.reps.iter().map(|r| r.to_hex()).collect::<Vec<_>>().join("+")
    }
}

/// Shard maps are probed with the borrowed tables, so a lookup that hits
/// builds no key. The derived `Hash` and `Eq` hash and compare the tables
/// as a slice, so they agree with the slice's own; only hash maps are
/// probed this way (`Ord` sorts by arity first, unlike the slice).
impl Borrow<[TruthTable]> for ClassKey {
    fn borrow(&self) -> &[TruthTable] {
        &self.reps
    }
}

impl Ord for ClassKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.num_vars()
            .cmp(&other.num_vars())
            .then_with(|| self.reps.len().cmp(&other.reps.len()))
            .then_with(|| self.reps.cmp(&other.reps))
    }
}

impl PartialOrd for ClassKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One stored fact about an NPN class representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// The verified optimum chains of the representative, in the
    /// deterministic order the synthesis engine emits them. Never
    /// empty.
    Solved(Vec<Chain>),
    /// Synthesis gave up (timeout or gate limit) when offered `budget`
    /// of wall-clock time. A later caller offering strictly more budget
    /// re-attempts and upgrades the entry; anyone offering the same or
    /// less is answered negatively from the store.
    Exhausted {
        /// The largest budget at which synthesis has failed so far.
        budget: Duration,
    },
}

/// What a caller-supplied solver reports back to
/// [`Store::lookup_or_solve`].
#[derive(Debug, Clone)]
pub enum RepOutcome {
    /// Synthesis succeeded with these chains (must be non-empty).
    Solved(Vec<Chain>),
    /// Synthesis ran out of budget; the store records the offered
    /// budget as [`Entry::Exhausted`].
    Exhausted,
}

/// Resolution of a [`Store::lookup_or_solve`] call, whether answered
/// from the store or freshly synthesized.
#[derive(Debug, Clone)]
pub enum Resolution {
    /// The representative's chains (unmapped — still in representative
    /// input order and phase), shared with the store's slot: a hit
    /// clones a reference count, not the chains.
    Solved(Arc<[Chain]>),
    /// No chains within `budget`; callers treat this as a timeout.
    Exhausted {
        /// The largest budget known to be insufficient.
        budget: Duration,
    },
    /// The thread solving this class panicked while this caller was
    /// waiting on the slot. The class itself was forgotten (a fresh
    /// call re-attempts it); this resolution is what the *waiters* of
    /// the doomed attempt observe instead of a silent zero-budget
    /// retry.
    Poisoned {
        /// The panic payload plus class context.
        message: String,
    },
    /// This caller's own `budget` ran out while another thread was
    /// still solving the class. The slot is untouched — the in-flight
    /// solve keeps running and will publish for everyone else; only
    /// *this* caller gives up. Callers treat it like a timeout, but
    /// unlike [`Resolution::Exhausted`] nothing is recorded against
    /// the class (the budget that failed was the waiter's, not the
    /// solver's).
    WaitTimeout,
}

/// Resolution of a [`Store::solve_npn`] call, mapped back to the
/// original specification.
#[derive(Debug, Clone)]
pub enum NpnOutcome {
    /// The spec is a constant or (complemented) projection: its
    /// zero-gate chain is built directly, with no canonicalization and
    /// no store round-trip.
    Trivial(Chain),
    /// The class's stored chains, seen through the NPN transform back
    /// to the *original* spec: mapped only when read (see [`NpnView`]).
    Solved(NpnView),
    /// The class is exhausted at the recorded budget.
    Exhausted {
        /// The largest budget known to be insufficient.
        budget: Duration,
    },
    /// The in-flight solve this caller was waiting on panicked; see
    /// [`Resolution::Poisoned`].
    Poisoned {
        /// The panic payload plus class context.
        message: String,
    },
    /// This caller's budget expired while waiting on another thread's
    /// in-flight solve of the same class; see
    /// [`Resolution::WaitTimeout`].
    WaitTimeout,
}

/// A slot is being solved by exactly one thread, holds a ready entry,
/// was poisoned by a panicking solver, or held an entry whose chain was
/// refused at map-back. Waiters block on the condvar. Solved chains are
/// held behind an `Arc` so every hit shares them.
#[derive(Debug)]
enum SlotState {
    Pending,
    Solved(Arc<[Chain]>),
    Exhausted(Duration),
    Poisoned(String),
    /// [`NpnView::first`] refused this class's chain: the entry is out
    /// of service, and the next lookup re-solves the class.
    Refused,
}

impl SlotState {
    /// The ready entry this state holds, if any (a deep copy of the
    /// chains, for persistence and merging).
    fn entry(&self) -> Option<Entry> {
        match self {
            SlotState::Solved(chains) => Some(Entry::Solved(chains.to_vec())),
            SlotState::Exhausted(budget) => Some(Entry::Exhausted { budget: *budget }),
            SlotState::Pending | SlotState::Poisoned(_) | SlotState::Refused => None,
        }
    }
}

impl From<Entry> for SlotState {
    fn from(entry: Entry) -> Self {
        match entry {
            Entry::Solved(chains) => SlotState::Solved(chains.into()),
            Entry::Exhausted { budget } => SlotState::Exhausted(budget),
        }
    }
}

#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn pending() -> Self {
        Slot { state: Mutex::new(SlotState::Pending), cv: Condvar::new() }
    }

    fn publish(&self, state: SlotState) {
        *self.state.lock().expect("slot lock poisoned") = state;
        self.cv.notify_all();
    }

    /// Marks the in-flight solve as dead-by-panic and wakes every
    /// waiter so they observe a structured failure instead of blocking
    /// forever (or silently retrying).
    fn poison(&self, message: String) {
        *self.state.lock().expect("slot lock poisoned") = SlotState::Poisoned(message);
        self.cv.notify_all();
    }

    /// Takes the solved entry `chains` out of service after one of its
    /// chains was refused — unless the slot already holds another
    /// entry (a concurrent re-solve or insert).
    fn refuse(&self, chains: &Arc<[Chain]>) {
        let mut state = self.state.lock().expect("slot lock poisoned");
        if matches!(&*state, SlotState::Solved(held) if Arc::ptr_eq(held, chains)) {
            *state = SlotState::Refused;
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<HashMap<ClassKey, Arc<Slot>>>,
}

/// A thread-safe, sharded NPN-class solution database.
///
/// Keys are NPN class representatives (as produced by
/// [`stp_tt::canonicalize`]); keying by representative means every
/// member of a class — up to `n! · 2^{n+1}` functions — shares one
/// entry. The map is split over independently locked shards so
/// concurrent rewrite workers rarely contend, and each unsolved class
/// is synthesized exactly once regardless of how many threads ask for
/// it simultaneously (the rest wait and reuse the published result).
///
/// Hit/miss/insert tallies are kept per store (for tests and reports)
/// and mirrored into the global telemetry counters `store.hits`,
/// `store.misses`, `store.inserts`, and `store.trivial_hits`.
#[derive(Debug)]
pub struct Store {
    shards: Box<[Shard]>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    trivial_hits: AtomicU64,
    /// Class records folded in through [`Store::merge`] /
    /// [`Store::merge_entry`].
    merged_classes: AtomicU64,
    /// Class records migrated from the legacy v1 on-disk format (see
    /// [`Store::parse`] / [`Store::open`]).
    migrated_v1: AtomicU64,
    /// Loaded or merged entries dropped because their chains do not
    /// realize their key (see [`Store::invalid_entries`]).
    invalid_entries: AtomicU64,
    /// Whether any loaded snapshot or journal used the legacy v1
    /// format — set even when it carried zero classes, so
    /// [`Store::open`] knows to rewrite the files as v2.
    legacy_loaded: AtomicBool,
    /// Attached crash journal (see [`Store::open`]); `None` for plain
    /// in-memory stores.
    journal: Mutex<Option<journal::Journal>>,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

/// Default shard count: enough to keep a machine's worth of rewrite
/// workers off each other's locks, small enough to stay cache-friendly.
const DEFAULT_SHARDS: usize = 16;

/// Whether `challenger` replaces `incumbent` for `key` under the merge
/// order (see [`Store::merge`]): solved beats exhausted, cheaper beats
/// costlier, larger failed budget beats smaller, and solved ties break
/// on the serialized entry text. Antisymmetric, so folding the same
/// records in any order converges on the same store.
fn merge_wins(key: &ClassKey, challenger: &Entry, incumbent: &Entry) -> bool {
    match (challenger, incumbent) {
        (Entry::Solved(a), Entry::Solved(b)) => {
            let cost = |chains: &[Chain]| {
                chains.iter().map(Chain::num_gates).min().expect("solved entries are non-empty")
            };
            let (ca, cb) = (cost(a), cost(b));
            ca < cb
                || (ca == cb
                    && persist::entry_block(key, challenger) < persist::entry_block(key, incumbent))
        }
        (Entry::Solved(_), Entry::Exhausted { .. }) => true,
        (Entry::Exhausted { .. }, Entry::Solved(_)) => false,
        (Entry::Exhausted { budget: a }, Entry::Exhausted { budget: b }) => a > b,
    }
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

impl Store {
    /// Creates an empty store with the default shard count.
    pub fn new() -> Self {
        Store::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty store with `shards` independently locked
    /// shards (clamped to at least one).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Store {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            trivial_hits: AtomicU64::new(0),
            merged_classes: AtomicU64::new(0),
            migrated_v1: AtomicU64::new(0),
            invalid_entries: AtomicU64::new(0),
            legacy_loaded: AtomicBool::new(false),
            journal: Mutex::new(None),
        }
    }

    /// The shard holding `reps`' class. The index is a multiply-fold of
    /// the tables' words rather than a second SipHash of the key: a
    /// lookup hashes its key once, inside the shard's map.
    fn shard(&self, reps: &[TruthTable]) -> &Shard {
        let mut h = reps.len() as u64;
        for rep in reps {
            for &word in rep.words() {
                h = (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
            }
        }
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// Lookups answered without synthesizing (solved classes and
    /// exhausted classes at a sufficient budget).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the caller's solver (first sight of a class, or
    /// a retry of an exhausted class at a larger budget).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries published (fresh solutions plus exhaustion records and
    /// upgrades).
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Trivial functions answered by the fast path, with no
    /// canonicalization and no store round-trip.
    pub fn trivial_hits(&self) -> u64 {
        self.trivial_hits.load(Ordering::Relaxed)
    }

    /// Class records folded into this store by [`Store::merge`] /
    /// [`Store::merge_entry`] (every record offered, kept or not).
    pub fn merged_classes(&self) -> u64 {
        self.merged_classes.load(Ordering::Relaxed)
    }

    /// Class records this store absorbed from the legacy v1 on-disk
    /// format (snapshot or journal). Zero for stores born v2.
    pub fn migrated_v1(&self) -> u64 {
        self.migrated_v1.load(Ordering::Relaxed)
    }

    /// Entries that [`Store::load`], [`Store::open`] or
    /// [`Store::merge_entry`] dropped because a chain did not realize
    /// the entry's key. Mirrored into the global `store.invalid_entries`
    /// counter.
    pub fn invalid_entries(&self) -> u64 {
        self.invalid_entries.load(Ordering::Relaxed)
    }

    /// The check every entry from outside the process passes before it
    /// is published: `true` when each chain of a solved entry realizes
    /// `key` (exhausted entries carry no chain). A failing entry is
    /// logged and counted against `origin`, and the caller drops it, so
    /// its class is re-solved on demand.
    pub(crate) fn admit(&self, key: &ClassKey, entry: &Entry, origin: &str) -> bool {
        let valid = match entry {
            Entry::Solved(chains) => {
                chains.iter().all(|chain| chain.simulate_outputs().is_ok_and(|o| o == key.reps()))
            }
            Entry::Exhausted { .. } => true,
        };
        if !valid {
            self.invalid_entries.fetch_add(1, Ordering::Relaxed);
            stp_telemetry::counter!("store.invalid_entries").inc();
            stp_telemetry::warn!(
                "store: dropped class {} from {origin}: a stored chain does not realize it",
                key.label()
            );
        }
        valid
    }

    /// Records that `count` class records were read from legacy v1
    /// data, and that the on-disk form needs rewriting. The global
    /// `store.migrated_v1` counter is bumped once per [`Store::open`]
    /// migration, not here, so journal replays (which parse payloads
    /// into scratch stores) don't double-count.
    pub(crate) fn note_legacy_load(&self, count: u64) {
        self.legacy_loaded.store(true, Ordering::Relaxed);
        if count > 0 {
            self.migrated_v1.fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Whether any loaded snapshot or journal was in the legacy v1
    /// format (even an empty one).
    pub(crate) fn legacy_loaded(&self) -> bool {
        self.legacy_loaded.load(Ordering::Relaxed)
    }

    /// Number of ready entries (pending in-flight slots are not
    /// counted).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when the store holds no ready entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out every ready `(key, entry)` pair, sorted by key (arity
    /// first, then output count, then table values) so iteration order
    /// — and the on-disk format built from it — is deterministic.
    pub fn snapshot(&self) -> Vec<(ClassKey, Entry)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let map = shard.map.lock().expect("shard lock poisoned");
            for (key, slot) in map.iter() {
                if let Some(entry) = slot.state.lock().expect("slot lock poisoned").entry() {
                    out.push((key.clone(), entry));
                }
            }
        }
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Directly publishes an entry for the single-output class `rep`,
    /// replacing any existing one. Equivalent to
    /// [`Store::insert_class`] with [`ClassKey::single`].
    ///
    /// # Panics
    ///
    /// Panics when a [`Entry::Solved`] entry carries no chains — an
    /// empty solution set is meaningless and unrepresentable on disk.
    pub fn insert(&self, rep: TruthTable, entry: Entry) {
        self.insert_class(ClassKey::single(rep), entry);
    }

    /// Directly publishes an entry for `key`, replacing any existing
    /// one. Used by the persistence loader and by tests; the synthesis
    /// paths go through [`Store::lookup_or_solve_class`].
    ///
    /// # Panics
    ///
    /// Panics when a [`Entry::Solved`] entry carries no chains — an
    /// empty solution set is meaningless and unrepresentable on disk.
    pub fn insert_class(&self, key: ClassKey, entry: Entry) {
        if let Entry::Solved(chains) = &entry {
            assert!(!chains.is_empty(), "a solved entry must carry at least one chain");
        }
        self.journal_append(&key, &entry);
        let shard = self.shard(key.reps());
        let mut map = shard.map.lock().expect("shard lock poisoned");
        let slot = Arc::new(Slot::pending());
        slot.publish(entry.into());
        map.insert(key, slot);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        stp_telemetry::counter!("store.inserts").inc();
    }

    /// Folds one class record into the store under the merge conflict
    /// rules (see [`Store::merge`]). Tallied in
    /// [`Store::merged_classes`] and the global `store.merged_classes`
    /// counter whether the record wins or loses.
    ///
    /// The record's chains are first simulated against `key`; a record
    /// that fails is dropped (see [`Store::invalid_entries`]), so a
    /// corrupt shard claiming a cheaper, wrong chain never wins.
    pub fn merge_entry(&self, key: ClassKey, entry: Entry) {
        self.merged_classes.fetch_add(1, Ordering::Relaxed);
        stp_telemetry::counter!("store.merged_classes").inc();
        if !self.admit(&key, &entry, "a merge") {
            return;
        }
        let replace = match self.get_class(&key) {
            None => true,
            Some(current) => merge_wins(&key, &entry, &current),
        };
        if replace {
            self.insert_class(key, entry);
        }
    }

    /// Folds every ready entry of `other` into this store.
    ///
    /// Conflicts resolve by a total order per class, so merging is
    /// commutative and associative — N shard snapshots fold into
    /// byte-identical saves regardless of merge order:
    ///
    /// * a class present on one side only is kept;
    /// * [`Entry::Solved`] beats [`Entry::Exhausted`] (a solution
    ///   subsumes any failure record);
    /// * two solved entries keep the cheaper one (fewest gates in the
    ///   best chain; ties broken by the serialized entry text, so equal
    ///   solution sets are idempotent);
    /// * two exhausted entries keep the larger failed budget.
    pub fn merge(&self, other: &Store) {
        for (key, entry) in other.snapshot() {
            self.merge_entry(key, entry);
        }
    }

    /// Loads `paths` as shard snapshots and folds them into one fresh
    /// in-memory store (see [`Store::merge`]). Every entry is checked
    /// once, by [`Store::merge_entry`].
    ///
    /// # Errors
    ///
    /// Any load failure, carrying the offending path for I/O errors —
    /// a torn or truncated shard file aborts the merge rather than
    /// silently dropping classes.
    pub fn merge_files<P: AsRef<std::path::Path>>(paths: &[P]) -> Result<Store, StoreFileError> {
        let merged = Store::new();
        for path in paths {
            let path = path.as_ref();
            // Parse-level failures (a torn header, a truncated block)
            // name the shard file: with N shards on the command line,
            // "corrupt at line 7" alone does not say *which* file to
            // re-warm.
            let shard =
                persist::read(path).and_then(|text| Store::parse(&text)).map_err(|e| match e {
                    e @ StoreFileError::Io { .. } => e,
                    StoreFileError::Corrupt { line, message } => StoreFileError::Corrupt {
                        line,
                        message: format!("{}: {message}", path.display()),
                    },
                    StoreFileError::MissingHeader => StoreFileError::Corrupt {
                        line: 1,
                        message: format!("{}: missing store header", path.display()),
                    },
                    StoreFileError::VersionMismatch { found } => StoreFileError::Corrupt {
                        line: 1,
                        message: format!("{}: unsupported store version {found}", path.display()),
                    },
                })?;
            merged.merge(&shard);
        }
        Ok(merged)
    }

    /// Reads the current entry for the single-output class `rep`, if
    /// any is ready.
    pub fn get(&self, rep: &TruthTable) -> Option<Entry> {
        self.get_reps(std::slice::from_ref(rep))
    }

    /// Reads the current entry for `key`, if any is ready.
    pub fn get_class(&self, key: &ClassKey) -> Option<Entry> {
        self.get_reps(key.reps())
    }

    fn get_reps(&self, reps: &[TruthTable]) -> Option<Entry> {
        let map = self.shard(reps).map.lock().expect("shard lock poisoned");
        let entry = map.get(reps)?.state.lock().expect("slot lock poisoned").entry();
        entry
    }

    /// Returns the chains for `rep`, running `solve` if — and only if —
    /// the store cannot answer: the class is unseen, or it is exhausted
    /// at a budget strictly below `budget`. Concurrent callers of the
    /// same unsolved class run `solve` exactly once; the others block
    /// until the result is published and share it.
    ///
    /// `solve` reports [`RepOutcome::Solved`] with the chains,
    /// [`RepOutcome::Exhausted`] when it gave up inside `budget` (the
    /// store records the failed budget so only a richer caller
    /// retries), or `Err` for real failures — errors are propagated to
    /// the caller and *not* cached, so the class stays retryable.
    ///
    /// # Errors
    ///
    /// Whatever `solve` returns as `Err`.
    pub fn lookup_or_solve<E>(
        &self,
        rep: &TruthTable,
        budget: Duration,
        solve: impl FnOnce(&TruthTable) -> Result<RepOutcome, E>,
    ) -> Result<Resolution, E> {
        self.resolve(std::slice::from_ref(rep), budget, |k| solve(&k.reps()[0]))
            .map(|(resolution, _)| resolution)
    }

    /// The general form of [`Store::lookup_or_solve`], keyed by a
    /// (possibly multi-output) [`ClassKey`]. The solver receives the
    /// key and must return chains whose outputs realize its tables in
    /// key order.
    ///
    /// # Errors
    ///
    /// Whatever `solve` returns as `Err`.
    pub fn lookup_or_solve_class<E>(
        &self,
        key: &ClassKey,
        budget: Duration,
        solve: impl FnOnce(&ClassKey) -> Result<RepOutcome, E>,
    ) -> Result<Resolution, E> {
        self.resolve(key.reps(), budget, solve).map(|(resolution, _)| resolution)
    }

    /// [`Store::lookup_or_solve_class`] for the class keyed by `reps`,
    /// also returning the class's slot, through which an [`NpnView`]
    /// refuses a wrong entry. The map is probed with the borrowed
    /// tables: a [`ClassKey`] is built only when the solver runs.
    fn resolve<E>(
        &self,
        reps: &[TruthTable],
        budget: Duration,
        solve: impl FnOnce(&ClassKey) -> Result<RepOutcome, E>,
    ) -> Result<(Resolution, Arc<Slot>), E> {
        let key = || ClassKey { reps: reps.to_vec() };
        let (slot, created) = {
            let mut map = self.shard(reps).map.lock().expect("shard lock poisoned");
            match map.get(reps) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot::pending());
                    map.insert(key(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if created {
            return self.run_solver(&key(), &slot, budget, None, solve).map(|r| (r, slot));
        }
        // A waiter's patience is its own `budget`: effectively-infinite
        // budgets (`Duration::MAX` callers, or anything that overflows
        // the clock) wait unconditionally, everyone else waits at most
        // until `now + budget` and then walks away with
        // [`Resolution::WaitTimeout`] — the slot stays untouched for the
        // thread actually solving it.
        let wait_deadline = Instant::now().checked_add(budget);
        let mut waited = false;
        let mut state = slot.state.lock().expect("slot lock poisoned");
        loop {
            match &*state {
                SlotState::Pending => {
                    if !waited {
                        waited = true;
                        stp_telemetry::counter!("store.pending_waits").inc();
                    }
                    match wait_deadline {
                        None => {
                            state = slot.cv.wait(state).expect("slot lock poisoned");
                        }
                        Some(deadline) => {
                            let now = Instant::now();
                            if now >= deadline {
                                drop(state);
                                stp_telemetry::counter!("store.wait_timeouts").inc();
                                return Ok((Resolution::WaitTimeout, slot));
                            }
                            state = slot
                                .cv
                                .wait_timeout(state, deadline - now)
                                .expect("slot lock poisoned")
                                .0;
                        }
                    }
                }
                SlotState::Solved(chains) => {
                    let chains = Arc::clone(chains);
                    drop(state);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    stp_telemetry::counter!("store.hits").inc();
                    return Ok((Resolution::Solved(chains), slot));
                }
                SlotState::Poisoned(message) => {
                    // The solve this caller was waiting on died. The
                    // class itself was already forgotten (the panicking
                    // thread removed the map entry), so a *fresh* call
                    // will retry; this caller reports the loss.
                    let message = message.clone();
                    drop(state);
                    stp_telemetry::counter!("store.poisoned_waits").inc();
                    return Ok((Resolution::Poisoned { message }, slot));
                }
                SlotState::Exhausted(failed) => {
                    let failed = *failed;
                    if budget > failed {
                        // This caller is richer than every failed
                        // attempt: take the slot back to pending and
                        // retry, restoring the old record on failure.
                        *state = SlotState::Pending;
                        drop(state);
                        return self
                            .run_solver(&key(), &slot, budget, Some(failed), solve)
                            .map(|r| (r, slot));
                    }
                    drop(state);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    stp_telemetry::counter!("store.hits").inc();
                    return Ok((Resolution::Exhausted { budget: failed }, slot));
                }
                SlotState::Refused => {
                    // The entry failed its map-back check: solve the
                    // class afresh, as on first sight.
                    *state = SlotState::Pending;
                    drop(state);
                    return self.run_solver(&key(), &slot, budget, None, solve).map(|r| (r, slot));
                }
            }
        }
    }

    /// Runs the solver while holding pending ownership of `slot`.
    /// `prior_budget` is `Some` when retrying an exhausted entry (the
    /// record restored if the solver errors out or panics).
    fn run_solver<E>(
        &self,
        key: &ClassKey,
        slot: &Slot,
        budget: Duration,
        prior_budget: Option<Duration>,
        solve: impl FnOnce(&ClassKey) -> Result<RepOutcome, E>,
    ) -> Result<Resolution, E> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        stp_telemetry::counter!("store.misses").inc();
        // A panicking solver must neither strand its waiters on a
        // pending slot nor silently re-arm the class: the panic is
        // caught at this boundary, the slot is poisoned (waking every
        // waiter with a structured failure), the class is forgotten so
        // a fresh caller retries, and the panic resumes on this thread.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solve(key)));
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(payload) => {
                let message =
                    format!("store solver for class {}: {}", key.label(), panic_text(&*payload));
                stp_telemetry::counter!("store.solver_panics").inc();
                stp_telemetry::error!("isolated a panicking store solver ({message})");
                slot.poison(message);
                self.forget_slot(key, slot);
                std::panic::resume_unwind(payload);
            }
        };
        match outcome {
            Ok(RepOutcome::Solved(chains)) => {
                debug_assert!(!chains.is_empty(), "solver must return at least one chain");
                let entry = Entry::Solved(chains);
                self.journal_append(key, &entry);
                let Entry::Solved(chains) = entry else { unreachable!("built as solved above") };
                let chains: Arc<[Chain]> = chains.into();
                slot.publish(SlotState::Solved(Arc::clone(&chains)));
                self.inserts.fetch_add(1, Ordering::Relaxed);
                stp_telemetry::counter!("store.inserts").inc();
                Ok(Resolution::Solved(chains))
            }
            Ok(RepOutcome::Exhausted) => {
                self.journal_append(key, &Entry::Exhausted { budget });
                slot.publish(SlotState::Exhausted(budget));
                self.inserts.fetch_add(1, Ordering::Relaxed);
                stp_telemetry::counter!("store.inserts").inc();
                Ok(Resolution::Exhausted { budget })
            }
            Err(e) => {
                slot.publish(SlotState::Exhausted(prior_budget.unwrap_or(Duration::ZERO)));
                if prior_budget.is_none() {
                    // First sight of the class failed outright: forget
                    // it entirely so the next caller starts fresh.
                    self.forget_slot(key, slot);
                }
                Err(e)
            }
        }
    }

    /// Removes `key`'s map entry — but only while it still points at
    /// `slot` (a concurrent insert may have replaced it).
    fn forget_slot(&self, key: &ClassKey, slot: &Slot) {
        let mut map = self.shard(key.reps()).map.lock().expect("shard lock poisoned");
        if map.get(key).is_some_and(|s| std::ptr::eq(Arc::as_ptr(s), slot)) {
            map.remove(key);
        }
    }

    /// The shared *canonicalize → lookup-or-solve* helper: every
    /// NPN-cached entry path (`stp_synth::synthesize_npn`,
    /// `stp_network::SynthesisCache`, `stpd`) routes through this one
    /// function.
    ///
    /// Constants and (complemented) projections short-circuit to
    /// [`NpnOutcome::Trivial`] before canonicalization. Otherwise the
    /// spec is canonicalized and the representative resolved through
    /// [`Store::lookup_or_solve`]. A solved class answers with an
    /// [`NpnView`] over the shared chains and the NPN transform; nothing
    /// is mapped here. The caller maps what it reads: one checked chain
    /// through [`NpnView::first`], or every chain through
    /// [`NpnView::iter`] (inputs rewired, negations absorbed into gate
    /// LUTs, output phase fixed). So the store only ever holds one entry
    /// per class while callers see chains for their own function.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn solve_npn<E>(
        &self,
        spec: &TruthTable,
        budget: Duration,
        solve: impl FnOnce(&TruthTable) -> Result<RepOutcome, E>,
    ) -> Result<NpnOutcome, E> {
        if let Some(chain) = trivial_chain(spec) {
            self.trivial_hits.fetch_add(1, Ordering::Relaxed);
            stp_telemetry::counter!("store.trivial_hits").inc();
            return Ok(NpnOutcome::Trivial(chain));
        }
        let _solve = stp_telemetry::span!("store.solve_npn");
        let canon = {
            let _npn = stp_telemetry::span!("phase.npn_canonicalize");
            canonicalize(spec)
        };
        let (resolution, slot) =
            self.resolve(std::slice::from_ref(&canon.representative), budget, |k| {
                solve(&k.reps()[0])
            })?;
        Ok(NpnOutcome::resolved(resolution, |chains| {
            NpnView::single(chains, slot, canon.transform, spec.clone())
        }))
    }

    /// The multi-output analogue of [`Store::solve_npn`]: canonicalize
    /// the output vector with [`stp_tt::canonicalize_multi`], resolve
    /// the representative tuple through
    /// [`Store::lookup_or_solve_class`], and answer with an [`NpnView`]
    /// whose mapped chains (inputs rewired, outputs reordered and
    /// re-phased) have output `i` realizing `specs[i]`. As there, nothing
    /// is mapped until the caller reads the view.
    ///
    /// Single-element slices take the exact [`Store::solve_npn`] path —
    /// including its keyspace, so single-output entries are shared
    /// between both entry points. When *every* output is trivial
    /// (constant or ±projection) the merged zero-gate chain is built
    /// directly with no store round-trip. The solver receives the
    /// representative tuple and must return chains carrying one output
    /// per representative, in order.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or the tables disagree on arity.
    ///
    /// # Errors
    ///
    /// Propagates solver errors, and chain-merging failures of the
    /// all-trivial fast path (via `E: From<ChainError>`).
    pub fn solve_npn_multi<E: From<ChainError>>(
        &self,
        specs: &[TruthTable],
        budget: Duration,
        solve: impl FnOnce(&[TruthTable]) -> Result<RepOutcome, E>,
    ) -> Result<NpnOutcome, E> {
        assert!(!specs.is_empty(), "solve_npn_multi needs at least one output");
        if specs.len() == 1 {
            return self.solve_npn(&specs[0], budget, |rep| solve(std::slice::from_ref(rep)));
        }
        let trivial: Option<Vec<Chain>> = specs.iter().map(trivial_chain).collect();
        if let Some(chains) = trivial {
            let refs: Vec<&Chain> = chains.iter().collect();
            let merged = merge_chains(&refs).map_err(E::from)?;
            self.trivial_hits.fetch_add(1, Ordering::Relaxed);
            stp_telemetry::counter!("store.trivial_hits").inc();
            return Ok(NpnOutcome::Trivial(merged));
        }
        let _solve = stp_telemetry::span!("store.solve_npn_multi");
        let canon = {
            let _npn = stp_telemetry::span!("phase.npn_canonicalize");
            canonicalize_multi(specs)
        };
        let (resolution, slot) =
            self.resolve(&canon.representatives, budget, |k| solve(k.reps()))?;
        Ok(NpnOutcome::resolved(resolution, |chains| {
            NpnView::multi(chains, slot, canon.transform, specs.to_vec())
        }))
    }
}

impl NpnOutcome {
    /// Lifts a representative's [`Resolution`] to the caller's answer,
    /// wrapping solved chains in the view `view` builds.
    fn resolved(resolution: Resolution, view: impl FnOnce(Arc<[Chain]>) -> NpnView) -> Self {
        match resolution {
            Resolution::Solved(chains) => NpnOutcome::Solved(view(chains)),
            Resolution::Exhausted { budget } => NpnOutcome::Exhausted { budget },
            Resolution::Poisoned { message } => NpnOutcome::Poisoned { message },
            Resolution::WaitTimeout => NpnOutcome::WaitTimeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use stp_chain::OutputRef;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn store_is_send_and_sync() {
        assert_send_sync::<Store>();
        assert_send_sync::<Entry>();
    }

    fn one_gate_chain(tt2: u8) -> Chain {
        let mut chain = Chain::new(2);
        let g = chain.add_gate(0, 1, tt2).unwrap();
        chain.add_output(OutputRef::signal(g));
        chain
    }

    #[test]
    fn miss_then_hit() {
        let store = Store::new();
        let rep = TruthTable::from_hex(2, "6").unwrap();
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            let res = store
                .lookup_or_solve(&rep, Duration::MAX, |_| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, ChainError>(RepOutcome::Solved(vec![one_gate_chain(0x6)]))
                })
                .unwrap();
            assert!(matches!(res, Resolution::Solved(ref c) if c.len() == 1));
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 2);
        assert_eq!(store.inserts(), 1);
    }

    #[test]
    fn exhausted_is_cached_per_budget_and_retried_when_richer() {
        let store = Store::new();
        let rep = TruthTable::from_hex(2, "6").unwrap();
        let calls = AtomicUsize::new(0);
        let give_up = |_: &TruthTable| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok::<_, ChainError>(RepOutcome::Exhausted)
        };
        // First attempt at 10 ms fails and is recorded.
        let res = store.lookup_or_solve(&rep, Duration::from_millis(10), give_up).unwrap();
        assert!(matches!(res, Resolution::Exhausted { budget } if budget.as_millis() == 10));
        // Same or smaller budget: answered from the store, no retry.
        for ms in [10, 5] {
            let res = store.lookup_or_solve(&rep, Duration::from_millis(ms), give_up).unwrap();
            assert!(matches!(res, Resolution::Exhausted { budget } if budget.as_millis() == 10));
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // A strictly larger budget retries and, on success, upgrades.
        let res = store
            .lookup_or_solve(&rep, Duration::from_millis(50), |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok::<_, ChainError>(RepOutcome::Solved(vec![one_gate_chain(0x6)]))
            })
            .unwrap();
        assert!(matches!(res, Resolution::Solved(_)));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert!(matches!(store.get(&rep), Some(Entry::Solved(_))));
    }

    #[test]
    fn failed_retry_keeps_the_larger_budget() {
        let store = Store::new();
        let rep = TruthTable::from_hex(2, "6").unwrap();
        let give_up = |_: &TruthTable| Ok::<_, ChainError>(RepOutcome::Exhausted);
        store.lookup_or_solve(&rep, Duration::from_millis(10), give_up).unwrap();
        store.lookup_or_solve(&rep, Duration::from_millis(40), give_up).unwrap();
        assert!(matches!(
            store.get(&rep),
            Some(Entry::Exhausted { budget }) if budget.as_millis() == 40
        ));
    }

    #[test]
    fn solver_errors_are_propagated_and_not_cached() {
        let store = Store::new();
        let rep = TruthTable::from_hex(2, "6").unwrap();
        let err = store
            .lookup_or_solve(&rep, Duration::MAX, |_| {
                Err::<RepOutcome, _>(ChainError::DuplicateFanin { fanin: 0 })
            })
            .unwrap_err();
        assert!(matches!(err, ChainError::DuplicateFanin { .. }));
        // The class was forgotten: the next caller solves afresh.
        let res = store
            .lookup_or_solve(&rep, Duration::MAX, |_| {
                Ok::<_, ChainError>(RepOutcome::Solved(vec![one_gate_chain(0x6)]))
            })
            .unwrap();
        assert!(matches!(res, Resolution::Solved(_)));
    }

    #[test]
    fn solve_npn_trivial_fast_path_skips_the_store() {
        let store = Store::new();
        for spec in [
            TruthTable::constant(3, true).unwrap(),
            TruthTable::constant(3, false).unwrap(),
            TruthTable::variable(3, 1).unwrap(),
            !TruthTable::variable(3, 2).unwrap(),
        ] {
            let outcome = store
                .solve_npn(&spec, Duration::MAX, |_| -> Result<RepOutcome, ChainError> {
                    panic!("trivial specs must never reach the solver")
                })
                .unwrap();
            let NpnOutcome::Trivial(chain) = outcome else {
                panic!("expected the trivial fast path");
            };
            assert_eq!(chain.num_gates(), 0);
            assert_eq!(chain.simulate_outputs().unwrap()[0], spec);
        }
        assert_eq!(store.trivial_hits(), 4);
        assert_eq!(store.hits() + store.misses(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn solve_npn_shares_one_entry_per_class() {
        let store = Store::new();
        // AND and NOR are NPN-equivalent: one class, one solve.
        let and2 = TruthTable::from_hex(2, "8").unwrap();
        let nor2 = TruthTable::from_hex(2, "1").unwrap();
        let calls = AtomicUsize::new(0);
        for spec in [&and2, &nor2, &and2] {
            let outcome = store
                .solve_npn(spec, Duration::MAX, |rep| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // Synthesize the representative honestly: it is a
                    // 2-input non-trivial function, i.e. one gate.
                    let mut chain = Chain::new(2);
                    let g = chain.add_gate(0, 1, rep.words()[0] as u8 & 0xf).unwrap();
                    chain.add_output(OutputRef::signal(g));
                    Ok::<_, ChainError>(RepOutcome::Solved(vec![chain]))
                })
                .unwrap();
            let NpnOutcome::Solved(view) = outcome else {
                panic!("expected solutions");
            };
            assert_eq!(view.gates(), 1, "read without mapping");
            let chain = view.first().unwrap();
            assert_eq!(chain.num_gates(), view.gates());
            assert_eq!(chain.simulate_outputs().unwrap()[0], *spec);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one synthesis per NPN class");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn class_keys_are_probed_by_their_tables() {
        let six = TruthTable::from_hex(2, "6").unwrap();
        let eight = TruthTable::from_hex(2, "8").unwrap();
        let key = ClassKey::multi(vec![six.clone(), eight.clone()]);
        let mut map = HashMap::new();
        map.insert(key.clone(), 1);
        map.insert(ClassKey::single(six.clone()), 2);
        assert_eq!(map.get(key.reps()), Some(&1));
        assert_eq!(map.get(std::slice::from_ref(&six)), Some(&2));
        assert_eq!(map.get(std::slice::from_ref(&eight)), None);
        // Through the store: a single-output key and its table agree.
        let store = Store::new();
        store.insert(six.clone(), Entry::Solved(vec![one_gate_chain(0x6)]));
        assert!(store.get(&six).is_some());
        assert!(store.get_class(&ClassKey::single(six)).is_some());
        assert!(store.get_class(&key).is_none());
    }

    #[test]
    fn concurrent_hammering_solves_each_class_exactly_once() {
        let store = Store::new();
        let calls = AtomicUsize::new(0);
        let specs: Vec<TruthTable> =
            ["6", "8", "e", "9"].iter().map(|h| TruthTable::from_hex(2, h).unwrap()).collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = &store;
                let calls = &calls;
                let specs = &specs;
                scope.spawn(move || {
                    for i in 0..specs.len() {
                        let spec = &specs[(i + t) % specs.len()];
                        let outcome = store
                            .solve_npn(spec, Duration::MAX, |rep| {
                                calls.fetch_add(1, Ordering::SeqCst);
                                // Slow solver: overlap is guaranteed.
                                std::thread::sleep(Duration::from_millis(30));
                                let mut chain = Chain::new(2);
                                let g = chain.add_gate(0, 1, rep.words()[0] as u8 & 0xf).unwrap();
                                chain.add_output(OutputRef::signal(g));
                                Ok::<_, ChainError>(RepOutcome::Solved(vec![chain]))
                            })
                            .unwrap();
                        let NpnOutcome::Solved(view) = outcome else {
                            panic!("expected solutions");
                        };
                        assert_eq!(view.first().unwrap().simulate_outputs().unwrap()[0], *spec);
                    }
                });
            }
        });
        // {XOR} and {AND, OR, NOR} are two NPN classes: exactly two
        // synthesis calls across all 8 threads × 4 lookups.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(store.misses(), 2);
        assert_eq!(store.hits(), 8 * 4 - 2);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let store = Store::new();
        for hex in ["6", "8", "1", "e"] {
            let spec = TruthTable::from_hex(2, hex).unwrap();
            store
                .solve_npn(&spec, Duration::MAX, |rep| {
                    let mut chain = Chain::new(2);
                    let g = chain.add_gate(0, 1, rep.words()[0] as u8 & 0xf).unwrap();
                    chain.add_output(OutputRef::signal(g));
                    Ok::<_, ChainError>(RepOutcome::Solved(vec![chain]))
                })
                .unwrap();
        }
        let a = store.snapshot();
        let b = store.snapshot();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    #[should_panic(expected = "at least one chain")]
    fn empty_solved_entry_is_rejected() {
        let store = Store::new();
        store.insert(TruthTable::from_hex(2, "6").unwrap(), Entry::Solved(Vec::new()));
    }

    /// One chain realizing each representative (trivial taps for
    /// trivial tables, one gate otherwise), merged into a shared chain.
    fn honest_multi_solver(reps: &[TruthTable]) -> Result<RepOutcome, ChainError> {
        let chains: Vec<Chain> = reps
            .iter()
            .map(|r| trivial_chain(r).unwrap_or_else(|| one_gate_chain(r.words()[0] as u8 & 0xf)))
            .collect();
        let refs: Vec<&Chain> = chains.iter().collect();
        Ok(RepOutcome::Solved(vec![merge_chains(&refs)?]))
    }

    #[test]
    fn solve_npn_multi_shares_one_entry_per_orbit() {
        let store = Store::new();
        // [XOR, AND] and [XNOR, OR] are one multi-output NPN orbit:
        // negate both inputs and both outputs.
        let pair_a = [TruthTable::from_hex(2, "6").unwrap(), TruthTable::from_hex(2, "8").unwrap()];
        let pair_b = [TruthTable::from_hex(2, "9").unwrap(), TruthTable::from_hex(2, "e").unwrap()];
        let calls = AtomicUsize::new(0);
        for specs in [pair_a.as_slice(), pair_b.as_slice(), pair_a.as_slice()] {
            let outcome = store
                .solve_npn_multi(specs, Duration::MAX, |reps| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    honest_multi_solver(reps)
                })
                .unwrap();
            let NpnOutcome::Solved(view) = outcome else {
                panic!("expected solutions");
            };
            let outputs = view.first().unwrap().simulate_outputs().unwrap();
            assert_eq!(outputs.as_slice(), specs, "output i must realize specs[i]");
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one synthesis per multi-output orbit");
        assert_eq!(store.len(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 2);
    }

    #[test]
    fn solve_npn_multi_all_trivial_fast_path_skips_the_store() {
        let store = Store::new();
        let specs = [
            TruthTable::variable(3, 0).unwrap(),
            !TruthTable::variable(3, 2).unwrap(),
            TruthTable::constant(3, true).unwrap(),
        ];
        let outcome = store
            .solve_npn_multi(&specs, Duration::MAX, |_| -> Result<RepOutcome, ChainError> {
                panic!("all-trivial specs must never reach the solver")
            })
            .unwrap();
        let NpnOutcome::Trivial(chain) = outcome else {
            panic!("expected the trivial fast path");
        };
        assert_eq!(chain.num_gates(), 0);
        assert_eq!(chain.simulate_outputs().unwrap(), specs);
        assert_eq!(store.trivial_hits(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn solve_npn_multi_singleton_shares_the_single_output_keyspace() {
        let store = Store::new();
        let spec = TruthTable::from_hex(2, "8").unwrap();
        let calls = AtomicUsize::new(0);
        store
            .solve_npn(&spec, Duration::MAX, |rep| {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok::<_, ChainError>(RepOutcome::Solved(vec![one_gate_chain(
                    rep.words()[0] as u8 & 0xf,
                )]))
            })
            .unwrap();
        // A 1-element multi solve must answer from the same entry.
        let outcome = store
            .solve_npn_multi(std::slice::from_ref(&spec), Duration::MAX, |reps| {
                calls.fetch_add(1, Ordering::SeqCst);
                honest_multi_solver(reps)
            })
            .unwrap();
        let NpnOutcome::Solved(view) = outcome else { panic!("expected solutions") };
        assert_eq!(view.first().unwrap().simulate_outputs().unwrap()[0], spec);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the singleton must hit the existing entry");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn class_key_orders_by_arity_then_width_then_tables() {
        let t = |n, h| TruthTable::from_hex(n, h).unwrap();
        let a = ClassKey::single(t(2, "6"));
        let b = ClassKey::multi(vec![t(2, "6"), t(2, "8")]);
        let c = ClassKey::single(t(3, "96"));
        assert!(a < b, "fewer outputs sort first at equal arity");
        assert!(b < c, "smaller arity sorts first");
        assert_eq!(a.label(), "6");
        assert_eq!(b.label(), "6+8");
        assert_eq!(b.num_outputs(), 2);
        assert_eq!(b.num_vars(), 2);
    }

    #[test]
    fn panicking_solver_poisons_waiters_and_forgets_the_class() {
        let store = Store::new();
        let rep = TruthTable::from_hex(2, "6").unwrap();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let store = &store;
            let rep = &rep;
            let barrier = &barrier;
            scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    store.lookup_or_solve(
                        rep,
                        Duration::MAX,
                        |_| -> Result<RepOutcome, ChainError> {
                            barrier.wait();
                            // Leave the waiter ample time to attach to the
                            // slot (it joins ~10 ms after the barrier).
                            std::thread::sleep(Duration::from_millis(150));
                            panic!("injected solver failure")
                        },
                    )
                }));
                assert!(result.is_err(), "the panic must resume on the solving thread");
            });
            barrier.wait();
            std::thread::sleep(Duration::from_millis(10));
            // This caller joins the in-flight solve and must observe the
            // panic as a structured resolution, not hang or retry.
            let res = store
                .lookup_or_solve(rep, Duration::MAX, |_| -> Result<RepOutcome, ChainError> {
                    panic!("the waiter must not become the solver")
                })
                .unwrap();
            let Resolution::Poisoned { message } = res else {
                panic!("expected a poisoned resolution, got {res:?}");
            };
            assert!(message.contains("injected solver failure"), "got `{message}`");
        });
        // The class was forgotten: a fresh caller re-solves cleanly.
        assert!(store.get(&rep).is_none());
        let res = store
            .lookup_or_solve(&rep, Duration::MAX, |_| {
                Ok::<_, ChainError>(RepOutcome::Solved(vec![one_gate_chain(0x6)]))
            })
            .unwrap();
        assert!(matches!(res, Resolution::Solved(_)));
    }

    /// A 2-input chain of `gates` cascaded AND gates (cost = `gates`).
    fn cascade_chain(gates: usize) -> Chain {
        let mut chain = Chain::new(2);
        let mut last = 1;
        for _ in 0..gates {
            last = chain.add_gate(0, last, 0x8).unwrap();
        }
        chain.add_output(OutputRef::signal(last));
        chain
    }

    /// A 2-input chain of `gates` gates computing `tt2(x0, x1)`: the
    /// gate itself, then projections onto it (cost = `gates`).
    fn padded_chain(tt2: u8, gates: usize) -> Chain {
        let mut chain = Chain::new(2);
        let mut last = chain.add_gate(0, 1, tt2).unwrap();
        for _ in 1..gates {
            last = chain.add_gate(last, 0, 0xa).unwrap();
        }
        chain.add_output(OutputRef::signal(last));
        chain
    }

    #[test]
    fn merge_keeps_the_cheaper_solved_entry() {
        let rep = TruthTable::from_hex(2, "8").unwrap();
        for (first, second) in [(1usize, 3usize), (3, 1)] {
            let a = Store::new();
            a.insert(rep.clone(), Entry::Solved(vec![cascade_chain(first)]));
            let b = Store::new();
            b.insert(rep.clone(), Entry::Solved(vec![cascade_chain(second)]));
            a.merge(&b);
            let Some(Entry::Solved(chains)) = a.get(&rep) else { panic!("expected solved") };
            assert_eq!(chains[0].num_gates(), 1, "the cheaper solution must win either way");
            assert_eq!(a.merged_classes(), 1);
        }
    }

    #[test]
    fn merge_prefers_solved_over_exhausted() {
        let rep = TruthTable::from_hex(2, "8").unwrap();
        let solved = Entry::Solved(vec![cascade_chain(2)]);
        let exhausted = Entry::Exhausted { budget: Duration::from_secs(1000) };
        for (mine, theirs) in
            [(solved.clone(), exhausted.clone()), (exhausted.clone(), solved.clone())]
        {
            let a = Store::new();
            a.insert(rep.clone(), mine);
            let b = Store::new();
            b.insert(rep.clone(), theirs);
            a.merge(&b);
            assert_eq!(a.get(&rep), Some(solved.clone()), "a solution subsumes any failure");
        }
    }

    #[test]
    fn merge_keeps_the_larger_exhausted_budget() {
        let rep = TruthTable::from_hex(2, "8").unwrap();
        for (mine, theirs) in [(10u64, 40u64), (40, 10)] {
            let a = Store::new();
            a.insert(rep.clone(), Entry::Exhausted { budget: Duration::from_millis(mine) });
            let b = Store::new();
            b.insert(rep.clone(), Entry::Exhausted { budget: Duration::from_millis(theirs) });
            a.merge(&b);
            assert_eq!(
                a.get(&rep),
                Some(Entry::Exhausted { budget: Duration::from_millis(40) }),
                "the larger failed budget must win either way"
            );
        }
    }

    #[test]
    fn merge_carries_disjoint_classes_both_ways() {
        let a = Store::new();
        a.insert(TruthTable::from_hex(2, "8").unwrap(), Entry::Solved(vec![cascade_chain(1)]));
        let b = Store::new();
        b.insert(
            TruthTable::from_hex(3, "96").unwrap(),
            Entry::Exhausted { budget: Duration::from_secs(1) },
        );
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.merged_classes(), 1, "only the foreign class was offered");
    }

    /// Deterministic 64-bit LCG (no external dependency).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 ^ (self.0 >> 29)
        }
    }

    #[test]
    fn fuzz_merge_is_order_independent() {
        // Random overlapping shard stores must fold into byte-identical
        // v2 snapshots regardless of merge order (the acceptance rule
        // `merge(save(a), save(b)) == merge(save(b), save(a))`, extended
        // to three shards and both association orders).
        // Solved entries must realize their keys to survive the merge
        // check, so each key is a 2-input gate function and its chains
        // are that gate padded with projections to a random cost.
        let mut rng = Lcg(0x6d65_7267_655f_0001);
        let functions = [0x1u8, 0x2, 0x4, 0x6, 0x8, 0xe];
        for _round in 0..20 {
            let shards: Vec<Store> = (0..3)
                .map(|_| {
                    let s = Store::new();
                    for &tt2 in &functions {
                        let key = TruthTable::from_u64(2, u64::from(tt2)).unwrap();
                        match rng.next() % 4 {
                            0 => {}
                            1 => s.insert(
                                key.clone(),
                                Entry::Exhausted {
                                    budget: Duration::from_millis(rng.next() % 500),
                                },
                            ),
                            _ => s.insert(
                                key.clone(),
                                Entry::Solved(vec![padded_chain(
                                    tt2,
                                    1 + (rng.next() % 4) as usize,
                                )]),
                            ),
                        }
                    }
                    s
                })
                .collect();
            let fold = |order: &[usize]| {
                let acc = Store::new();
                for &i in order {
                    acc.merge(&shards[i]);
                }
                acc.save_to_string()
            };
            let baseline = fold(&[0, 1, 2]);
            for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
                assert_eq!(fold(&order), baseline, "merge order changed the snapshot");
            }
        }
    }

    #[test]
    fn merge_files_folds_shards_and_rejects_torn_ones() {
        let dir =
            std::env::temp_dir().join(format!("stp-store-merge-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = Store::new();
        a.insert(TruthTable::from_hex(2, "8").unwrap(), Entry::Solved(vec![cascade_chain(1)]));
        let b = Store::new();
        b.insert(TruthTable::from_hex(2, "6").unwrap(), Entry::Solved(vec![padded_chain(0x6, 2)]));
        let pa = dir.join("shard0.store");
        let pb = dir.join("shard1.store");
        a.save(&pa).unwrap();
        b.save(&pb).unwrap();
        let merged = Store::merge_files(&[&pa, &pb]).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.merged_classes(), 2);
        // Truncate a shard mid-block (a torn write) and re-merge: the
        // error must carry the torn shard's path.
        let text = std::fs::read_to_string(&pb).unwrap();
        std::fs::write(&pb, &text[..text.len() / 2]).unwrap();
        let err = Store::merge_files(&[&pa, &pb]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("shard1.store"), "torn-shard error must carry the path, got `{msg}`");
        // A shard killed before writing the header is equally named.
        std::fs::write(&pb, "").unwrap();
        let err = Store::merge_files(&[&pa, &pb]).unwrap_err();
        assert!(err.to_string().contains("shard1.store"), "got `{err}`");
        std::fs::remove_dir_all(&dir).ok();
    }
    /// `chain` with the LUT of gate `gate` complemented: structurally
    /// valid, functionally wrong.
    fn corrupted(chain: &Chain, gate: usize) -> Chain {
        let mut out = Chain::new(chain.num_inputs());
        for (i, g) in chain.gates().iter().enumerate() {
            let tt2 = if i == gate { !g.tt2 & 0xf } else { g.tt2 };
            out.add_gate(g.fanin[0], g.fanin[1], tt2).unwrap();
        }
        for tap in chain.outputs() {
            out.add_output(*tap);
        }
        out
    }

    #[test]
    fn first_refuses_a_planted_wrong_chain_single_and_multi() {
        let store = Store::new();
        let never = |_: &TruthTable| -> Result<RepOutcome, ChainError> {
            panic!("the planted entry must answer")
        };
        // Single output: NOR answers from the class entry of AND.
        let spec = TruthTable::from_hex(2, "1").unwrap();
        let rep = canonicalize(&spec).representative;
        let right = one_gate_chain(rep.words()[0] as u8);
        store.insert(rep.clone(), Entry::Solved(vec![corrupted(&right, 0), right.clone()]));
        // Multi output: [XOR, AND] over the class tuple of its orbit.
        let specs = [TruthTable::from_hex(2, "6").unwrap(), TruthTable::from_hex(2, "8").unwrap()];
        let key = ClassKey::multi(canonicalize_multi(&specs).representatives);
        let RepOutcome::Solved(mut shared) = honest_multi_solver(key.reps()).unwrap() else {
            unreachable!("the honest solver always solves")
        };
        let shared = shared.remove(0);
        store.insert_class(key, Entry::Solved(vec![corrupted(&shared, 1)]));

        let scope = stp_telemetry::CounterScope::enter();
        let NpnOutcome::Solved(view) = store.solve_npn(&spec, Duration::MAX, never).unwrap() else {
            panic!("expected the planted class");
        };
        assert_eq!(view.len(), 2);
        assert!(matches!(view.first(), Err(MapBackError::Mismatch { .. })));
        let outcome = store
            .solve_npn_multi(&specs, Duration::MAX, |_| -> Result<RepOutcome, ChainError> {
                panic!("the planted entry must answer")
            })
            .unwrap();
        let NpnOutcome::Solved(view) = outcome else { panic!("expected the planted class") };
        assert_eq!(view.len(), 1);
        assert!(matches!(view.first(), Err(MapBackError::Mismatch { .. })));

        // A refused entry is out of service: the next lookup of each
        // class runs its solver again, and the fresh chain is served.
        let misses = store.misses();
        let resolve = |_: &TruthTable| Ok::<_, ChainError>(RepOutcome::Solved(vec![right.clone()]));
        let NpnOutcome::Solved(view) = store.solve_npn(&spec, Duration::MAX, resolve).unwrap()
        else {
            panic!("expected the re-solved class");
        };
        assert_eq!(view.first().unwrap().simulate_outputs().unwrap()[0], spec);
        let outcome = store.solve_npn_multi(&specs, Duration::MAX, honest_multi_solver).unwrap();
        let NpnOutcome::Solved(view) = outcome else { panic!("expected the re-solved class") };
        assert_eq!(view.first().unwrap().simulate_outputs().unwrap(), specs);
        assert_eq!(store.misses(), misses + 2, "each refused class is solved once more");
        // The re-solved entries answer from the store again.
        let NpnOutcome::Solved(view) = store.solve_npn(&spec, Duration::MAX, never).unwrap() else {
            panic!("expected the re-solved class");
        };
        assert!(view.first().is_ok());
        assert_eq!(store.misses(), misses + 2);
        let counters = scope.finish();
        assert_eq!(counters.get("store.mapback_rejects").copied(), Some(2), "one per refusal");
    }

    #[test]
    fn merge_drops_a_corrupt_cheaper_shard() {
        let rep = TruthTable::from_hex(2, "6").unwrap();
        let dir =
            std::env::temp_dir().join(format!("stp-store-corrupt-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let valid = Store::new();
        valid.insert(rep.clone(), Entry::Solved(vec![padded_chain(0x6, 3)]));
        // A one-gate chain is cheaper, and wrong: its LUT is complemented.
        let corrupt = Store::new();
        corrupt.insert(rep.clone(), Entry::Solved(vec![corrupted(&padded_chain(0x6, 1), 0)]));
        let paths = [dir.join("valid.store"), dir.join("corrupt.store")];
        valid.save(&paths[0]).unwrap();
        corrupt.save(&paths[1]).unwrap();
        for order in [[0, 1], [1, 0]] {
            let merged = Store::merge_files(&[&paths[order[0]], &paths[order[1]]]).unwrap();
            assert_eq!(merged.get(&rep), valid.get(&rep), "the valid entry must win");
            assert_eq!(merged.invalid_entries(), 1);
            assert_eq!(merged.merged_classes(), 2);
        }
        // Loading the corrupt shard on its own drops the class.
        let loaded = Store::load(&paths[1]).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.invalid_entries(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
