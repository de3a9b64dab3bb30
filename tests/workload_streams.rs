//! Tier-1 fingerprint of the workload generators: every op the IOR, HPIO,
//! MPI-Tile-IO, campaign and checkpoint generators emit over a fixed grid
//! of geometries, phase selections and seeds is folded into one FNV-1a
//! digest per generator and compared with a recorded constant.
//!
//! The digest covers each op's variant, handle, kind, offset, length, file
//! name and think time — not its `Debug` text — so it pins exactly what
//! the runner consumes. It catches what the shape tests in
//! `s4d-workloads` do not: the random-IOR offsets of every seed, Tile-IO
//! rows at prime rank counts, uneven IOR regions, and the read-only and
//! write-only phases of every generator. A refactor of the generators
//! must leave every constant here unchanged; a deliberate change to a
//! stream re-records the constant and says why.

use s4d::mpiio::{AppOp, ProcessScript};
use s4d::sim::SimDuration;
use s4d::storage::IoKind;
use s4d::workloads::campaign::CampaignConfig;
use s4d::workloads::{AccessPattern, CheckpointConfig, HpioConfig, IorConfig, TileIoConfig};

/// A running 64-bit FNV-1a digest plus the number of ops folded into it.
struct Digest {
    hash: u64,
    ops: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            ops: 0,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn kind(&mut self, kind: IoKind) {
        self.word(match kind {
            IoKind::Read => 0,
            IoKind::Write => 1,
        });
    }

    fn op(&mut self, op: &AppOp) {
        self.ops += 1;
        match op {
            AppOp::Open { name } => {
                self.word(0);
                self.word(name.len() as u64);
                self.bytes(name.as_bytes());
            }
            AppOp::Io {
                handle,
                kind,
                offset,
                len,
                data,
            } => {
                self.word(1);
                self.word(handle.0 as u64);
                self.kind(*kind);
                self.word(*offset);
                self.word(*len);
                self.word(u64::from(data.is_some()));
            }
            AppOp::Seek { handle, offset } => {
                self.word(2);
                self.word(handle.0 as u64);
                self.word(*offset);
            }
            AppOp::IoAtCursor {
                handle,
                kind,
                len,
                data,
            } => {
                self.word(3);
                self.word(handle.0 as u64);
                self.kind(*kind);
                self.word(*len);
                self.word(u64::from(data.is_some()));
            }
            AppOp::Close { handle } => {
                self.word(4);
                self.word(handle.0 as u64);
            }
            AppOp::Barrier => self.word(5),
            AppOp::Think { duration } => {
                self.word(6);
                self.word(duration.as_nanos());
            }
        }
    }

    /// Drains every rank's script in rank order, marking each rank's end.
    fn scripts<S: ProcessScript>(&mut self, scripts: Vec<S>) {
        for mut script in scripts {
            while let Some(op) = script.next_op() {
                self.op(&op);
            }
            self.word(u64::MAX);
        }
    }
}

/// `(do_write, do_read)` — every phase selection, including neither.
const PHASES: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

fn ior_stream() -> Digest {
    // (file_size, processes, request_size): even regions, 7 and 3 ranks
    // with regions that are not a multiple of the request size, a single
    // rank, and a one-request region.
    let geometries = [
        (1 << 20, 4, 64 << 10),
        ((1 << 20) + 5000, 7, 16 << 10),
        (300 << 10, 3, 4 << 10),
        (2 << 20, 1, 16 << 10),
        (96 << 10, 2, 32 << 10),
    ];
    let mut d = Digest::new();
    for pattern in [AccessPattern::Sequential, AccessPattern::Random] {
        for (file_size, processes, request_size) in geometries {
            for (do_write, do_read) in PHASES {
                for seed in [1, 0x5eed, u64::MAX] {
                    d.scripts(
                        IorConfig {
                            file_name: format!("ior_{processes}.dat"),
                            file_size,
                            processes,
                            request_size,
                            pattern,
                            do_write,
                            do_read,
                            seed,
                        }
                        .scripts(),
                    );
                }
            }
        }
    }
    d
}

fn hpio_stream() -> Digest {
    let mut d = Digest::new();
    for spacing in [0, 1 << 10, 4 << 10] {
        for (do_write, do_read) in PHASES {
            let mut cfg = HpioConfig::paper_default("hpio.dat", spacing);
            cfg.processes = 5;
            cfg.region_count = 37;
            cfg.do_write = do_write;
            cfg.do_read = do_read;
            d.scripts(cfg.scripts());
        }
    }
    d
}

fn tileio_stream() -> Digest {
    let mut d = Digest::new();
    for processes in [1, 4, 7, 12, 100] {
        for (do_write, do_read) in PHASES {
            let mut cfg = TileIoConfig::paper_default("tile.dat", processes);
            cfg.tile_elems_x = 3;
            cfg.tile_elems_y = 5;
            cfg.element_size = 4 << 10;
            cfg.do_write = do_write;
            cfg.do_read = do_read;
            d.scripts(cfg.scripts());
        }
    }
    d
}

fn campaign_stream() -> Digest {
    let mut d = Digest::new();
    d.scripts(CampaignConfig::paper_mix(3, 1 << 20, 16 << 10).scripts());
    d
}

fn checkpoint_stream() -> Digest {
    let mut cfg = CheckpointConfig::representative(5);
    cfg.rounds = 3;
    cfg.dump_slice = 1 << 20;
    cfg.records_per_round = 9;
    cfg.state_span = 4 << 20;
    cfg.think = SimDuration::from_micros(750);
    let mut d = Digest::new();
    d.scripts(cfg.scripts());
    d
}

/// The digests and op counts below were recorded from the generators'
/// original hand-written state machines.
#[test]
fn every_generator_emits_its_recorded_op_stream() {
    let streams = [
        ("ior", ior_stream(), 0xfaec_a643_e69a_cf61, 8448),
        ("hpio", hpio_stream(), 0x4412_d62c_7032_a139, 2460),
        ("tileio", tileio_stream(), 0x415d_9e6e_8276_3625, 4464),
        ("campaign", campaign_stream(), 0xa51a_d7ce_e2b9_9305, 1407),
        (
            "checkpoint",
            checkpoint_stream(),
            0x477f_b65a_04e4_6bcb,
            200,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, d, hash, ops) in streams {
        if (d.hash, d.ops) != (hash, ops) {
            mismatches.push(format!(
                "{name}: digest {:#018x} over {} ops, recorded {hash:#018x} over {ops}",
                d.hash, d.ops
            ));
        }
    }
    assert!(mismatches.is_empty(), "op streams moved: {mismatches:#?}");
}
