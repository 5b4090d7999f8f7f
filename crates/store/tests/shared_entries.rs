//! Solved entries are shared, not copied: every hit on a class hands out
//! the same reference-counted chain set, and sharing changes nothing
//! about what is persisted.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use stp_chain::{Chain, ChainError, OutputRef};
use stp_store::{Entry, NpnOutcome, RepOutcome, Resolution, Store};
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
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn one_gate_chain(tt2: u8) -> Chain {
    let mut chain = Chain::new(2);
    let g = chain.add_gate(0, 1, tt2).unwrap();
    chain.add_output(OutputRef::signal(g));
    chain
}

fn solved(res: Resolution) -> Arc<[Chain]> {
    match res {
        Resolution::Solved(chains) => chains,
        other => panic!("expected solved, got {other:?}"),
    }
}

#[test]
fn hits_share_one_chain_set() {
    let store = Store::new();
    let rep = TruthTable::from_hex(2, "6").unwrap();
    let lookup = || {
        store.lookup_or_solve(&rep, Duration::MAX, |_| {
            Ok::<_, ChainError>(RepOutcome::Solved(vec![one_gate_chain(0x6), one_gate_chain(0x9)]))
        })
    };
    let first = solved(lookup().unwrap());
    let a = solved(lookup().unwrap());
    let b = solved(lookup().unwrap());
    assert!(Arc::ptr_eq(&a, &b), "two hits must share one chain set");
    assert!(Arc::ptr_eq(&first, &a), "the solving call shares the published set");
    assert_eq!((store.misses(), store.hits()), (1, 2));
    // The persisted view is an independent copy with the same content.
    let Some(Entry::Solved(copy)) = store.get(&rep) else { panic!("expected solved entry") };
    assert_eq!(copy.as_slice(), &*a);
}

#[test]
fn inserted_entries_are_shared_too() {
    let store = Store::new();
    let rep = TruthTable::from_hex(2, "8").unwrap();
    store.insert(rep.clone(), Entry::Solved(vec![one_gate_chain(0x8)]));
    let never = |_: &TruthTable| -> Result<RepOutcome, ChainError> { panic!("must hit") };
    let a = solved(store.lookup_or_solve(&rep, Duration::MAX, never).unwrap());
    let b = solved(store.lookup_or_solve(&rep, Duration::MAX, never).unwrap());
    assert!(Arc::ptr_eq(&a, &b));
}

#[test]
fn save_open_save_is_byte_identical_with_shared_entries() {
    let scratch = Scratch::new("shared-entries");
    let path = scratch.0.join("store.txt");
    let second = scratch.0.join("again.txt");
    let specs: Vec<TruthTable> =
        ["6", "8", "1", "e"].iter().map(|h| TruthTable::from_hex(2, h).unwrap()).collect();
    {
        let store = Store::open(&path).unwrap();
        for spec in specs.iter().chain(&specs) {
            let outcome = store
                .solve_npn(spec, Duration::MAX, |rep| {
                    Ok::<_, ChainError>(RepOutcome::Solved(vec![one_gate_chain(
                        rep.words()[0] as u8,
                    )]))
                })
                .unwrap();
            let NpnOutcome::Solved(view) = outcome else { panic!("expected solutions") };
            assert_eq!(view.first().unwrap().simulate_outputs().unwrap()[0], *spec);
        }
        store.save(&path).unwrap();
    }
    let reopened = Store::open(&path).unwrap();
    reopened.save(&second).unwrap();
    let (a, b) = (std::fs::read(&path).unwrap(), std::fs::read(&second).unwrap());
    assert_eq!(a, b, "save → open → save must be byte-identical");
}
