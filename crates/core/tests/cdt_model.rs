//! The Critical Data Table against a reference model.
//!
//! The model is the table's contract written the slow way: a queue of
//! `(key, C_flag)` in insertion order, evicting from the front when a
//! new key arrives at capacity. Keys come from a domain of 128, so small
//! tables wrap their ring many times, re-inserts hit live and evicted
//! keys alike, and the index's probe clusters collide and are cut by
//! evictions. After every step each key of the domain is looked up, so
//! an index slot lost in a deletion shows up as a live key the table no
//! longer finds (the mutation gate's `cdt-evict-skips-backward-shift`
//! dies here).
//!
//! The `C_flag`s are a bitmap of 64 ring positions a word, which tables
//! of at most 64 entries keep in one word; the second property runs
//! tables of 65 to 200 entries over 1,024 keys, so the ring wraps inside
//! later words and a scan crosses word boundaries both ways. An entry
//! that takes a flagged entry's place must start unflagged (the gate's
//! `cdt-overwrite-keeps-flag` dies here).

use std::collections::VecDeque;

use proptest::prelude::*;
use s4d_cache::{Cdt, CdtEntry};
use s4d_pfs::FileId;

type Key = (u64, u64, u64);

#[derive(Debug, Clone)]
enum Op {
    Insert(Key),
    SetFlag(Key),
    ClearFlag(Key),
    Flagged(usize),
    Clear,
}

/// Keys of two files, `offsets` offsets and two lengths.
fn key(offsets: u64) -> impl Strategy<Value = Key> {
    (0u64..2, 0..offsets, 1u64..3).prop_map(|(f, o, l)| (f, o * 4096, l * 4096))
}

/// One clear in about `clear_one_in` ops; of the other 63 in 64, 36
/// inserts, 16 flag sets, 8 flag clears and 3 scans. At one clear in 64
/// tables of 64 fill and wrap.
fn op(offsets: u64, clear_one_in: u16) -> impl Strategy<Value = Op> {
    (0..clear_one_in, 0u8..63, key(offsets), 0usize..80).prop_map(|(clear, pick, k, limit)| match (
        clear, pick,
    ) {
        (0, _) => Op::Clear,
        (_, 0..=35) => Op::Insert(k),
        (_, 36..=51) => Op::SetFlag(k),
        (_, 52..=59) => Op::ClearFlag(k),
        _ => Op::Flagged(limit),
    })
}

/// The contract: FIFO by first insertion, idempotent re-insert.
struct Model {
    cap: usize,
    entries: VecDeque<(Key, bool)>,
}

impl Model {
    fn find(&mut self, k: Key) -> Option<&mut bool> {
        self.entries
            .iter_mut()
            .find(|(e, _)| *e == k)
            .map(|(_, flag)| flag)
    }

    fn insert(&mut self, k: Key) {
        if self.find(k).is_some() {
            return;
        }
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((k, false));
    }

    fn flagged(&self, limit: usize) -> Vec<CdtEntry> {
        self.entries
            .iter()
            .filter(|(_, flag)| *flag)
            .take(limit)
            .map(|&((file, offset, len), _)| CdtEntry {
                file: FileId(file),
                offset,
                len,
            })
            .collect()
    }
}

/// Applies `op` to the table and the model, checking what it returns.
fn apply(cdt: &mut Cdt, model: &mut Model, op: &Op, step: usize) {
    match *op {
        Op::Insert((f, o, l)) => {
            cdt.insert(FileId(f), o, l);
            model.insert((f, o, l));
        }
        Op::SetFlag((f, o, l)) => {
            let expected = model.find((f, o, l)).map(|flag| *flag = true).is_some();
            assert_eq!(
                cdt.set_c_flag(FileId(f), o, l),
                expected,
                "set_c_flag at step {step}"
            );
        }
        Op::ClearFlag((f, o, l)) => {
            let expected = model.find((f, o, l)).map(|flag| *flag = false).is_some();
            assert_eq!(
                cdt.clear_c_flag(FileId(f), o, l),
                expected,
                "clear_c_flag at step {step}"
            );
        }
        Op::Flagged(limit) => {
            let got: Vec<CdtEntry> = cdt.flagged(limit).collect();
            assert_eq!(got, model.flagged(limit), "flagged({limit}) at step {step}");
        }
        Op::Clear => {
            cdt.clear();
            model.entries.clear();
        }
    }
    assert_eq!(cdt.len(), model.entries.len(), "len at step {step}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    #[test]
    fn cdt_matches_the_model(cap in 1usize..=64, ops in proptest::collection::vec(op(32, 64), 1..400)) {
        let mut cdt = Cdt::new(cap);
        let mut model = Model { cap, entries: VecDeque::new() };
        for (step, op) in ops.iter().enumerate() {
            apply(&mut cdt, &mut model, op, step);
            for f in 0..2 {
                for o in 0..32 {
                    for l in 1..3 {
                        let k = (f, o * 4096, l * 4096);
                        let live = model.entries.iter().any(|(e, _)| *e == k);
                        prop_assert_eq!(
                            cdt.contains(FileId(f), k.1, k.2), live,
                            "contains{:?} disagrees with the model after step {} ({:?})", k, step, op
                        );
                    }
                }
            }
        }
        prop_assert_eq!(cdt.flagged(usize::MAX).collect::<Vec<_>>(), model.flagged(usize::MAX));
    }

    /// Flags on rings longer than one bitmap word: after every step the
    /// whole flagged list, oldest first, matches the model.
    #[test]
    fn flags_survive_a_wrapped_ring(cap in 65usize..=200, ops in proptest::collection::vec(op(256, 600), 1..1200)) {
        let mut cdt = Cdt::new(cap);
        let mut model = Model { cap, entries: VecDeque::new() };
        for (step, op) in ops.iter().enumerate() {
            apply(&mut cdt, &mut model, op, step);
            prop_assert_eq!(
                cdt.flagged(usize::MAX).collect::<Vec<_>>(), model.flagged(usize::MAX),
                "flagged entries after step {} ({:?})", step, op
            );
        }
    }
}
