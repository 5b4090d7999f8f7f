//! The answer of an NPN store hit, mapped back on demand.
//!
//! A solved class holds every optimum chain of its representative, but
//! most callers read one: `stpd`'s `synth` keeps the first chain and the
//! class size, and rewriting splices the first chain into its network.
//! An [`NpnView`] therefore holds the store's shared chains plus the NPN
//! transform back to the caller's spec, and maps a chain only when the
//! caller asks for it:
//!
//! * [`NpnView::len`] — the class size, with no mapping;
//! * [`NpnView::gates`] — the gate count of the first stored chain, with
//!   no mapping (mapping keeps every gate), so a caller that only splices
//!   cheaper answers maps only the ones it will splice;
//! * [`NpnView::first`] — maps the first stored chain and checks it
//!   against the caller's spec by simulation, in release builds too; a
//!   refused chain takes its entry out of service, so the next lookup of
//!   the class re-solves it;
//! * [`NpnView::iter`] — maps every chain, one at a time, in stored
//!   order (the all-chains contract of `stp_synth::synthesize_npn`).
//!
//! Both the single-output and the multi-output store paths build their
//! answers here, so `NpnView::map` is the one map-back implementation.

use std::fmt;
use std::sync::Arc;

use stp_chain::{Chain, ChainError};
use stp_telemetry::Span;
use stp_tt::{MultiNpnTransform, NpnTransform, TruthTable};

use crate::Slot;

/// The transform that takes a representative's chain to the caller's
/// spec(s).
#[derive(Debug, Clone)]
enum Transform {
    /// One output: inputs rewired and negated, output phase fixed.
    Single(NpnTransform),
    /// An output vector: the shared input transform, then outputs
    /// reordered and re-phased.
    Multi(MultiNpnTransform),
}

/// The chains of one solved NPN class, seen from the caller's spec.
///
/// Returned inside [`crate::NpnOutcome::Solved`] by
/// [`crate::Store::solve_npn`] and [`crate::Store::solve_npn_multi`]. A
/// view clones a reference count of the store's entry, never the
/// chains; see the module docs for what each accessor maps.
#[derive(Debug, Clone)]
pub struct NpnView {
    chains: Arc<[Chain]>,
    /// The store slot `chains` came from, taken out of service when
    /// [`NpnView::first`] refuses them.
    slot: Arc<Slot>,
    transform: Transform,
    /// The caller's spec(s), in output order: what every mapped chain
    /// must realize.
    specs: Vec<TruthTable>,
}

/// Why [`NpnView::first`] refused to hand out a chain. Either way the
/// stored entry is wrong for its class: the refusal is counted in the
/// `store.mapback_rejects` telemetry counter, and the entry is dropped
/// so the next lookup re-solves the class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapBackError {
    /// The NPN transform does not fit the stored chain.
    Map(ChainError),
    /// The mapped chain does not realize the requested spec(s).
    Mismatch {
        /// The requested spec(s), as `+`-joined hex.
        specs: String,
    },
}

impl fmt::Display for MapBackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapBackError::Map(e) => write!(f, "stored chain does not map back: {e}"),
            MapBackError::Mismatch { specs } => {
                write!(f, "stored chain does not realize {specs} after map-back")
            }
        }
    }
}

impl std::error::Error for MapBackError {}

impl NpnView {
    /// A single-output answer for `spec`.
    pub(crate) fn single(
        chains: Arc<[Chain]>,
        slot: Arc<Slot>,
        transform: NpnTransform,
        spec: TruthTable,
    ) -> Self {
        NpnView { chains, slot, transform: Transform::Single(transform), specs: vec![spec] }
    }

    /// A multi-output answer for `specs`, in caller order.
    pub(crate) fn multi(
        chains: Arc<[Chain]>,
        slot: Arc<Slot>,
        transform: MultiNpnTransform,
        specs: Vec<TruthTable>,
    ) -> Self {
        NpnView { chains, slot, transform: Transform::Multi(transform), specs }
    }

    /// How many chains the class holds (never zero).
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// Always `false`: a solved class holds at least one chain.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// The gate count of the chain [`NpnView::first`] would return,
    /// read without mapping or checking it: the map-back rewires inputs
    /// and absorbs negations into gate LUTs, so it keeps every gate. A
    /// wrong stored chain is still refused by `first`, whatever this
    /// reports.
    pub fn gates(&self) -> usize {
        self.chains[0].num_gates()
    }

    /// Maps the first stored chain back to the caller's spec and checks
    /// it by simulation. The check runs in release builds: a wrong chain
    /// is never returned.
    ///
    /// # Errors
    ///
    /// [`MapBackError`] when the stored chain does not map or the mapped
    /// chain does not realize the spec. The refusal is logged and
    /// counted in `store.mapback_rejects`, and the store drops the
    /// entry: the next lookup of the class runs its solver again.
    pub fn first(&self) -> Result<Chain, MapBackError> {
        let mapped = {
            let _map = stp_telemetry::span!("phase.map_back");
            self.map(&self.chains[0])
        };
        let refusal = match mapped {
            Ok(chain) if chain.simulate_outputs().is_ok_and(|o| o == self.specs) => {
                return Ok(chain)
            }
            Ok(_) => MapBackError::Mismatch { specs: self.label() },
            Err(e) => MapBackError::Map(e),
        };
        self.slot.refuse(&self.chains);
        stp_telemetry::counter!("store.mapback_rejects").inc();
        stp_telemetry::warn!(
            "store: refused an answer for {}: {refusal}; the class will be re-solved",
            self.label()
        );
        Err(refusal)
    }

    /// Maps every stored chain back, one per step, in stored order. The
    /// mapped chains are checked against the spec only under
    /// `debug_assert!`: the iterator serves whole solution sets, where a
    /// per-chain simulation would cost more than the mapping.
    pub fn iter(&self) -> Iter<'_> {
        Iter { view: self, next: 0, span: None }
    }

    /// The one map-back implementation: inputs rewired, negations
    /// absorbed into gate LUTs, outputs reordered and re-phased.
    #[inline]
    fn map(&self, chain: &Chain) -> Result<Chain, ChainError> {
        match &self.transform {
            Transform::Single(t) => {
                chain.permute_negate(&t.perm, t.input_negations, t.output_negated)
            }
            Transform::Multi(t) => chain.permute_negate_outputs(
                &t.perm,
                t.input_negations,
                &t.output_perm,
                &t.output_negations,
            ),
        }
    }

    /// The specs as `+`-joined hex, for diagnostics.
    fn label(&self) -> String {
        self.specs.iter().map(TruthTable::to_hex).collect::<Vec<_>>().join("+")
    }
}

/// Iterator over an [`NpnView`]'s chains, mapped back one at a time;
/// see [`NpnView::iter`].
///
/// One `phase.map_back` span covers the walk: it opens at the first
/// step and closes when the iterator is exhausted or dropped.
pub struct Iter<'a> {
    view: &'a NpnView,
    next: usize,
    span: Option<Span>,
}

impl Iterator for Iter<'_> {
    type Item = Result<Chain, ChainError>;

    // Inlined across crates: callers such as `synthesize_npn_with_store`
    // step it hundreds of times per answer.
    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let Some(chain) = self.view.chains.get(self.next) else {
            self.span = None;
            return None;
        };
        self.next += 1;
        self.span.get_or_insert_with(|| stp_telemetry::span!("phase.map_back"));
        let mapped = self.view.map(chain);
        debug_assert!(
            mapped
                .as_ref()
                .map_or(true, |c| c.simulate_outputs().is_ok_and(|o| o == self.view.specs)),
            "NPN-mapped chains must realize the original spec(s)"
        );
        Some(mapped)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.view.chains.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}
