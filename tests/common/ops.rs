//! What the two equivalence suites `random_workload_equivalence` and
//! `shard_equivalence` share: random reads and writes over a 1.5 MiB
//! file, the script that issues them with the reads a plain byte image
//! predicts, and an observer capturing what each read returned.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use s4d::mpiio::{script, IoObserver, Middleware, Rank, Runner, ScriptBuilder};

pub const KIB: u64 = 1024;
pub const SPAN: u64 = 96 * 16 * KIB; // 1.5 MiB of addressable file

#[derive(Debug, Clone)]
pub enum Op {
    Write { offset: u64, len: u64, tag: u8 },
    Read { offset: u64, len: u64 },
}

pub fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..SPAN / KIB, 1u64..64, any::<u8>()).prop_map(|(o, l, tag)| {
            let offset = o * KIB;
            let len = (l * KIB).min(SPAN - offset).max(KIB);
            Op::Write { offset, len, tag }
        }),
        (0u64..SPAN / KIB, 1u64..64).prop_map(|(o, l)| {
            let offset = o * KIB;
            let len = (l * KIB).min(SPAN - offset).max(KIB);
            Op::Read { offset, len }
        }),
    ]
}

/// `(offset, bytes)` of each read, in issue order.
pub type Reads = Vec<(u64, Vec<u8>)>;

/// Rank 0's script for `ops` on `file` (left open), and the reads a
/// plain byte image of the file predicts for it.
pub fn script_and_reads(file: &str, ops: &[Op]) -> (ScriptBuilder, Reads) {
    let mut image = vec![0u8; SPAN as usize];
    let mut expected = Vec::new();
    let mut b = script().open(file);
    for op in ops {
        match *op {
            Op::Write { offset, len, tag } => {
                let data: Vec<u8> = (0..len).map(|j| tag ^ (j % 251) as u8).collect();
                image[offset as usize..(offset + len) as usize].copy_from_slice(&data);
                b = b.write_bytes(0, offset, data);
            }
            Op::Read { offset, len } => {
                expected.push((
                    offset,
                    image[offset as usize..(offset + len) as usize].to_vec(),
                ));
                b = b.read(0, offset, len);
            }
        }
    }
    (b, expected)
}

struct Capture(Rc<RefCell<Reads>>);

impl IoObserver for Capture {
    fn on_read_data(&mut self, _r: Rank, offset: u64, _l: u64, data: Option<&[u8]>) {
        self.0
            .borrow_mut()
            .push((offset, data.expect("functional run").to_vec()));
    }
}

/// Registers an observer on `runner` that records every read it serves.
pub fn capture_reads<M: Middleware>(runner: &mut Runner<M>) -> Rc<RefCell<Reads>> {
    let reads = Rc::new(RefCell::new(Vec::new()));
    runner.add_observer(Box::new(Capture(reads.clone())));
    reads
}
