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

fn key() -> impl Strategy<Value = Key> {
    (0u64..2, 0u64..32, 1u64..3).prop_map(|(f, o, l)| (f, o * 4096, l * 4096))
}

/// Of 64 ops, 36 inserts, 16 flag sets, 8 flag clears, 3 scans and one
/// clear — rare enough that tables of 64 fill and wrap.
fn op() -> impl Strategy<Value = Op> {
    (0u8..64, key(), 0usize..80).prop_map(|(pick, k, limit)| match pick {
        0..=35 => Op::Insert(k),
        36..=51 => Op::SetFlag(k),
        52..=59 => Op::ClearFlag(k),
        60..=62 => Op::Flagged(limit),
        _ => Op::Clear,
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
                c_flag: true,
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    #[test]
    fn cdt_matches_the_model(cap in 1usize..=64, ops in proptest::collection::vec(op(), 1..400)) {
        let mut cdt = Cdt::new(cap);
        let mut model = Model { cap, entries: VecDeque::new() };
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert((f, o, l)) => {
                    cdt.insert(FileId(f), o, l);
                    model.insert((f, o, l));
                }
                Op::SetFlag((f, o, l)) => {
                    let expected = model.find((f, o, l)).map(|flag| *flag = true).is_some();
                    prop_assert_eq!(cdt.set_c_flag(FileId(f), o, l), expected, "set_c_flag at step {}", step);
                }
                Op::ClearFlag((f, o, l)) => {
                    let expected = model.find((f, o, l)).map(|flag| *flag = false).is_some();
                    prop_assert_eq!(cdt.clear_c_flag(FileId(f), o, l), expected, "clear_c_flag at step {}", step);
                }
                Op::Flagged(limit) => {
                    let got: Vec<CdtEntry> = cdt.flagged(limit).collect();
                    prop_assert_eq!(got, model.flagged(limit), "flagged({}) at step {}", limit, step);
                }
                Op::Clear => {
                    cdt.clear();
                    model.entries.clear();
                }
            }
            prop_assert_eq!(cdt.len(), model.entries.len(), "len at step {}", step);
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
}
