//! The MPI-Tile-IO benchmark, paper §V.D.
//!
//! The file is a dense 2-D dataset of fixed-size elements. Processes form a
//! `px × py` grid; each owns a tile of `tx × ty` elements and accesses it
//! row by row — a nested-strided pattern: within a row the access is
//! contiguous (`tx` elements), consecutive rows are separated by the full
//! dataset width. Better locality than random IOR, worse than pure
//! sequential — which is why the paper's Fig. 10 gains sit between the two.

use crate::phased::{PhasedScript, Requests};

/// Chooses a near-square process grid for `n` processes: the factor pair
/// `(x, y)`, `x ≥ y`, with the smallest difference.
///
/// ```
/// use s4d_workloads::grid_for;
/// assert_eq!(grid_for(100), (10, 10));
/// assert_eq!(grid_for(200), (20, 10));
/// assert_eq!(grid_for(7), (7, 1));
/// ```
pub fn grid_for(n: u32) -> (u32, u32) {
    assert!(n > 0, "cannot grid zero processes");
    let mut best = (n, 1);
    let mut y = 1;
    while y * y <= n {
        if n.is_multiple_of(y) {
            best = (n / y, y);
        }
        y += 1;
    }
    best
}

/// Configuration of one MPI-Tile-IO run.
#[derive(Debug, Clone, PartialEq)]
pub struct TileIoConfig {
    /// Shared dataset file name.
    pub file_name: String,
    /// Number of MPI processes (arranged into a near-square grid).
    pub processes: u32,
    /// Elements per tile in X (the paper uses 10).
    pub tile_elems_x: u64,
    /// Elements per tile in Y (the paper uses 10).
    pub tile_elems_y: u64,
    /// Element size in bytes (the paper uses 32 KiB).
    pub element_size: u64,
    /// Run the write phase.
    pub do_write: bool,
    /// Run the read phase.
    pub do_read: bool,
}

impl TileIoConfig {
    /// The paper's §V.D setup: 10×10-element tiles of 32 KiB elements.
    pub fn paper_default(file_name: impl Into<String>, processes: u32) -> Self {
        TileIoConfig {
            file_name: file_name.into(),
            processes,
            tile_elems_x: 10,
            tile_elems_y: 10,
            element_size: 32 * 1024,
            do_write: true,
            do_read: true,
        }
    }

    /// The process grid `(px, py)`.
    pub fn grid(&self) -> (u32, u32) {
        grid_for(self.processes)
    }

    /// Elements across the whole dataset in X.
    pub fn dataset_elems_x(&self) -> u64 {
        self.grid().0 as u64 * self.tile_elems_x
    }

    /// Total dataset size in bytes.
    pub fn dataset_bytes(&self) -> u64 {
        self.dataset_elems_x() * self.grid().1 as u64 * self.tile_elems_y * self.element_size
    }

    /// Data bytes each process moves per phase.
    pub fn process_bytes(&self) -> u64 {
        self.tile_elems_x * self.tile_elems_y * self.element_size
    }

    /// Builds the per-process scripts.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    pub fn scripts(&self) -> Vec<PhasedScript> {
        assert!(self.processes > 0, "Tile-IO needs at least one process");
        assert!(
            self.tile_elems_x > 0 && self.tile_elems_y > 0 && self.element_size > 0,
            "tile geometry must be positive"
        );
        (0..self.processes).map(|r| self.script(r)).collect()
    }

    /// The stream of one rank: one request per row of its tile, rows one
    /// dataset width apart.
    pub fn script(&self, rank: u32) -> PhasedScript {
        let px = self.grid().0;
        let (tile_x, tile_y) = ((rank % px) as u64, (rank / px) as u64);
        let row = self.dataset_elems_x() * self.element_size;
        let requests = Requests {
            count: self.tile_elems_y,
            start: tile_y * self.tile_elems_y * row
                + tile_x * self.tile_elems_x * self.element_size,
            stride: row,
            len: self.tile_elems_x * self.element_size,
            perm: None,
        };
        PhasedScript::new(&self.file_name, requests, self.do_write, self.do_read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phased::drain;
    use s4d_mpiio::AppOp;
    use std::collections::HashSet;

    #[test]
    fn grid_factorisations() {
        assert_eq!(grid_for(1), (1, 1));
        assert_eq!(grid_for(4), (2, 2));
        assert_eq!(grid_for(12), (4, 3));
        assert_eq!(grid_for(100), (10, 10));
        assert_eq!(grid_for(400), (20, 20));
        assert_eq!(grid_for(13), (13, 1));
    }

    #[test]
    fn nested_stride_shape() {
        // 4 procs in a 2x2 grid, 2x2-element tiles of 1 KiB elements:
        // dataset is 4 elements wide.
        let cfg = TileIoConfig {
            file_name: "t".into(),
            processes: 4,
            tile_elems_x: 2,
            tile_elems_y: 2,
            element_size: 1024,
            do_write: true,
            do_read: false,
        };
        let ops = drain(cfg.script(0));
        let offsets: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                AppOp::Io { offset, len, .. } => {
                    assert_eq!(*len, 2048, "row = 2 contiguous elements");
                    Some(*offset)
                }
                _ => None,
            })
            .collect();
        // Rank 0 tile rows: row 0 at 0, row 1 one dataset-width later.
        assert_eq!(offsets, vec![0, 4 * 1024]);
        // Rank 3 (tile 1,1): rows 2 and 3, right half.
        let ops = drain(cfg.script(3));
        let offsets: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                AppOp::Io { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets, vec![(2 * 4 + 2) * 1024, (3 * 4 + 2) * 1024]);
    }

    #[test]
    fn tiles_cover_dataset_disjointly() {
        let cfg = TileIoConfig {
            file_name: "t".into(),
            processes: 6,
            tile_elems_x: 3,
            tile_elems_y: 2,
            element_size: 64,
            do_write: true,
            do_read: false,
        };
        let mut seen: HashSet<u64> = HashSet::new();
        let mut bytes = 0u64;
        for rank in 0..6 {
            for op in drain(cfg.script(rank)) {
                if let AppOp::Io { offset, len, .. } = op {
                    for b in (offset..offset + len).step_by(64) {
                        assert!(seen.insert(b), "element overlap at {b}");
                    }
                    bytes += len;
                }
            }
        }
        assert_eq!(bytes, cfg.dataset_bytes());
        assert_eq!(bytes, 6 * cfg.process_bytes());
    }

    #[test]
    fn paper_default_dimensions() {
        let c = TileIoConfig::paper_default("t", 100);
        assert_eq!(c.grid(), (10, 10));
        assert_eq!(c.process_bytes(), 100 * 32 * 1024);
        assert_eq!(c.dataset_bytes(), 100 * 100 * 32 * 1024);
        assert_eq!(c.scripts().len(), 100);
    }

    #[test]
    #[should_panic(expected = "cannot grid zero")]
    fn rejects_zero_grid() {
        grid_for(0);
    }
}
