//! What the fault suites `failure_domain` and `straggler_matrix` share:
//! pattern bytes, a read-verifying observer, and a single-process run
//! with a fault plan on CServer 0.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use s4d::bench::testbed;
use s4d::cache::{S4dCache, S4dConfig};
use s4d::mpiio::{Cluster, IoObserver, Rank, Runner, ScriptBuilder};
use s4d::pfs::FaultPlan;

pub const KIB: u64 = 1024;

/// Deterministic pattern bytes for a write at `offset` with version `v`.
pub fn pattern(offset: u64, len: u64, v: u64) -> Vec<u8> {
    (0..len)
        .map(|j| ((offset / KIB) * 37 + j * 11 + v * 101) as u8)
        .collect()
}

/// Observer checking every read against an expected byte image.
struct Verify {
    expected: HashMap<u64, Vec<u8>>,
    failures: Rc<RefCell<Vec<String>>>,
}

impl IoObserver for Verify {
    fn on_read_data(&mut self, _r: Rank, offset: u64, len: u64, data: Option<&[u8]>) {
        let Some(want) = self.expected.get(&offset) else {
            self.failures
                .borrow_mut()
                .push(format!("unexpected read at {offset}"));
            return;
        };
        let data = data.expect("functional run returns data");
        if want.as_slice() != data {
            self.failures
                .borrow_mut()
                .push(format!("wrong bytes at offset {offset} len {len}"));
        }
    }
}

pub struct Setup {
    pub runner: Runner<S4dCache>,
    /// One line per read that missed `expected`.
    pub failures: Rc<RefCell<Vec<String>>>,
}

/// One process running `script` (closed here) on the small testbed with
/// `fault` on CServer 0; every read it issues must return the bytes
/// `expected` holds for that offset.
pub fn build(
    seed: u64,
    config: S4dConfig,
    fault: FaultPlan,
    script: ScriptBuilder,
    expected: HashMap<u64, Vec<u8>>,
) -> Setup {
    let mut cluster = Cluster::paper_testbed_small(seed);
    cluster
        .cpfs_mut()
        .set_fault_plan(0, fault)
        .expect("CServer 0 exists");
    let params = testbed(seed).cost_params();
    let mut runner = Runner::new(
        cluster,
        S4dCache::new(config, params),
        vec![script.close(0).build()],
        seed,
    );
    let failures = Rc::new(RefCell::new(Vec::new()));
    runner.add_observer(Box::new(Verify {
        expected,
        failures: failures.clone(),
    }));
    Setup { runner, failures }
}
