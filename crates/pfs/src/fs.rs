//! The parallel file system: namespace + server array.

use std::collections::HashMap;

use s4d_sim::{IdMap, SimRng};
use s4d_storage::{DeviceModel, HddConfig, IoKind, SsdConfig, StoreMode};

use crate::error::PfsError;
use crate::layout::{StripeLayout, SubRanges};
use crate::network::NetworkConfig;
use crate::server::FileServer;
use crate::types::FileId;

/// Metadata of one parallel file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// The file's identifier.
    pub id: FileId,
    /// The file's name.
    pub name: String,
    /// Current size: one past the highest byte ever planned for writing.
    pub size: u64,
}

/// A PVFS2-style parallel file system: a stripe layout, a file namespace,
/// and an array of [`FileServer`]s.
///
/// `Pfs` plans request decompositions and owns the servers; it contains no
/// event loop — the middleware runner drives the servers' explicit-time
/// state machines.
///
/// ```
/// use s4d_pfs::{NetworkConfig, Pfs, StripeLayout};
/// use s4d_storage::{presets, StoreMode};
///
/// let mut pfs = Pfs::hdd_cluster(
///     "opfs",
///     StripeLayout::new(64 * 1024, 8),
///     presets::hdd_seagate_st3250(),
///     NetworkConfig::gigabit_ethernet(),
///     StoreMode::Timing,
///     42,
/// );
/// let f = pfs.create("data.out")?;
/// let plan = pfs.plan(f, s4d_storage::IoKind::Write, 0, 1 << 20)?;
/// assert_eq!(plan.len(), 8);
/// # Ok::<(), s4d_pfs::PfsError>(())
/// ```
#[derive(Debug)]
pub struct Pfs {
    name: String,
    layout: StripeLayout,
    /// Every server's store mode; timing-mode servers keep no bytes.
    mode: StoreMode,
    servers: Vec<FileServer>,
    files: IdMap<FileId, FileMeta>,
    by_name: HashMap<String, FileId>,
    next_file: u64,
    /// The latest instant [`Pfs::advance_faults`] was called with.
    fault_clock: s4d_sim::SimTime,
    /// True if some server has a fault plan; while none has, advancing
    /// faults only moves `fault_clock`.
    any_faults: bool,
}

impl Pfs {
    /// Creates a file system over the given pre-built servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers.len()` differs from the layout's server count.
    pub(crate) fn new(
        name: impl Into<String>,
        layout: StripeLayout,
        mode: StoreMode,
        servers: Vec<FileServer>,
    ) -> Self {
        assert_eq!(
            servers.len(),
            layout.server_count(),
            "server array must match layout width"
        );
        Pfs {
            name: name.into(),
            layout,
            mode,
            servers,
            files: IdMap::default(),
            by_name: HashMap::new(),
            next_file: 0,
            fault_clock: s4d_sim::SimTime::ZERO,
            any_faults: false,
        }
    }

    /// Builds a file system of identical HDD servers (the paper's DServers).
    pub fn hdd_cluster(
        name: impl Into<String>,
        layout: StripeLayout,
        config: HddConfig,
        net: NetworkConfig,
        mode: StoreMode,
        seed: u64,
    ) -> Self {
        let device = || Box::new(config.clone().build()) as Box<dyn DeviceModel>;
        Pfs::uniform(name, layout, device, config.capacity(), net, mode, seed)
    }

    /// Builds a file system of identical SSD servers (the paper's CServers).
    pub fn ssd_cluster(
        name: impl Into<String>,
        layout: StripeLayout,
        config: SsdConfig,
        net: NetworkConfig,
        mode: StoreMode,
        seed: u64,
    ) -> Self {
        let device = || Box::new(config.clone().build()) as Box<dyn DeviceModel>;
        Pfs::uniform(name, layout, device, config.capacity(), net, mode, seed)
    }

    /// One server per layout column, each over a fresh `device` of
    /// `capacity` bytes and its own fork of the `seed` stream.
    fn uniform(
        name: impl Into<String>,
        layout: StripeLayout,
        device: impl Fn() -> Box<dyn DeviceModel>,
        capacity: u64,
        net: NetworkConfig,
        mode: StoreMode,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed(seed);
        let servers = (0..layout.server_count())
            .map(|i| FileServer::new(device(), capacity, net, mode, rng.fork(i as u64)))
            .collect();
        Pfs::new(name, layout, mode, servers)
    }

    /// The file system's name (e.g. `"opfs"` / `"cpfs"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stripe layout.
    pub fn layout(&self) -> StripeLayout {
        self.layout
    }

    /// Number of file servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Shared access to a server.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::BadServer`] if `index` is out of range.
    pub fn server(&self, index: usize) -> Result<&FileServer, PfsError> {
        self.servers.get(index).ok_or(PfsError::BadServer {
            index,
            count: self.servers.len(),
        })
    }

    /// Mutable access to a server.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::BadServer`] if `index` is out of range.
    pub fn server_mut(&mut self, index: usize) -> Result<&mut FileServer, PfsError> {
        let count = self.servers.len();
        self.servers
            .get_mut(index)
            .ok_or(PfsError::BadServer { index, count })
    }

    /// Iterator over all servers.
    pub fn iter_servers(&self) -> impl Iterator<Item = &FileServer> {
        self.servers.iter()
    }

    /// Installs a scripted fault plan on one server. The plan takes effect
    /// from the file system's fault clock on: a crash it dates at or
    /// before the latest [`Pfs::advance_faults`] instant never fires.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::BadServer`] if `server` is out of range.
    pub fn set_fault_plan(
        &mut self,
        server: usize,
        plan: crate::faults::FaultPlan,
    ) -> Result<(), PfsError> {
        let clock = self.fault_clock;
        let s = self.server_mut(server)?;
        // A server skipped while no plan was installed catches up first.
        s.advance_faults(clock);
        s.set_fault_plan(plan);
        self.any_faults = self.servers.iter().any(FileServer::has_faults);
        Ok(())
    }

    /// Applies crash effects due by `now` on every server, so direct
    /// store reads ([`Pfs::read_bytes`], [`Pfs::copy_into`]) never observe
    /// data a scripted crash should already have destroyed. While no
    /// server has a fault plan there is nothing to apply, and only the
    /// clock [`Pfs::set_fault_plan`] starts a new plan from moves.
    pub fn advance_faults(&mut self, now: s4d_sim::SimTime) {
        self.fault_clock = self.fault_clock.max(now);
        if !self.any_faults {
            return;
        }
        for s in &mut self.servers {
            s.advance_faults(now);
        }
    }

    /// Creates a file.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::FileExists`] if the name is taken.
    pub fn create(&mut self, name: impl Into<String>) -> Result<FileId, PfsError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(PfsError::FileExists(name));
        }
        Ok(self.insert(name))
    }

    /// Adds a file the namespace does not hold yet.
    fn insert(&mut self, name: String) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.by_name.insert(name.clone(), id);
        self.files.insert(id, FileMeta { id, name, size: 0 });
        id
    }

    /// Opens an existing file by name.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::NoSuchFile`] if absent.
    pub fn open(&self, name: &str) -> Result<FileId, PfsError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| PfsError::NoSuchFile(name.to_owned()))
    }

    /// Opens a file, creating it if absent.
    pub fn create_or_open(&mut self, name: &str) -> FileId {
        match self.by_name.get(name) {
            Some(&id) => id,
            None => self.insert(name.to_owned()),
        }
    }

    /// Metadata of a file.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::UnknownFile`] if the id is not known.
    pub fn meta(&self, file: FileId) -> Result<&FileMeta, PfsError> {
        self.files.get(&file).ok_or(PfsError::UnknownFile(file))
    }

    /// Plans the decomposition of a request into per-server sub-ranges:
    /// validates it and (for writes) extends the file size now, then
    /// yields the sub-ranges lazily. The iterator does not borrow the
    /// file system.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::UnknownFile`] for a bad id and
    /// [`PfsError::EmptyRequest`] for zero length.
    pub fn plan(
        &mut self,
        file: FileId,
        kind: IoKind,
        offset: u64,
        len: u64,
    ) -> Result<SubRanges, PfsError> {
        let meta = self
            .files
            .get_mut(&file)
            .ok_or(PfsError::UnknownFile(file))?;
        if len == 0 {
            return Err(PfsError::EmptyRequest);
        }
        if kind.is_write() {
            meta.size = meta.size.max(offset + len);
        }
        Ok(self.layout.split_iter(offset, len))
    }

    /// Discards stored data of `[offset, offset+len)` on every involved
    /// server (cache eviction: metadata-only, no simulated I/O). In timing
    /// mode there is nothing to discard.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::UnknownFile`] if the id is not known.
    pub fn discard(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), PfsError> {
        if !self.files.contains_key(&file) {
            return Err(PfsError::UnknownFile(file));
        }
        if self.mode == StoreMode::Timing {
            return Ok(());
        }
        for sub in self.layout.split_iter(offset, len) {
            if let Some(s) = self.servers.get_mut(sub.server) {
                s.discard_range(file, sub.local_offset, sub.len);
            }
        }
        Ok(())
    }

    /// Total bytes stored across all servers (0 in timing mode).
    pub fn stored_bytes(&self) -> u64 {
        self.servers.iter().map(|s| s.stored_bytes()).sum()
    }

    /// Iterates over the metadata of every live file.
    pub fn iter_files(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.values()
    }

    /// Writes `len` bytes at `offset` directly into the server stores,
    /// bypassing the service queues — the durable effect of I/O whose
    /// *timing* was simulated elsewhere (journal appends, checkpoint
    /// installs). Extends the file size like a planned write. In timing
    /// mode nothing is stored and `data` is ignored; in functional mode a
    /// missing `data` stores zeroes.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::UnknownFile`] if the id is not known,
    /// [`PfsError::NoSpace`] if any involved server sits in a
    /// space-exhaustion window, and [`PfsError::MediaError`] if the range
    /// touches a bad device sector — in the fault cases no server store
    /// is modified and the file size is unchanged (all-or-nothing).
    ///
    /// # Panics
    ///
    /// Panics if `data` is present but shorter than `len`.
    pub fn apply_bytes(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        data: Option<&[u8]>,
    ) -> Result<(), PfsError> {
        if !self.files.contains_key(&file) {
            return Err(PfsError::UnknownFile(file));
        }
        if len == 0 {
            return Ok(());
        }
        if let Some(d) = data {
            assert!(d.len() as u64 >= len, "data shorter than extent");
        }
        // Gate the whole call on every involved server *before* any
        // effect, so a scripted ENOSPC/media fault fails it atomically.
        for sub in self.layout.split_iter(offset, len) {
            if let Some(s) = self.servers.get(sub.server) {
                match s.bypass_write_fault(file, sub.local_offset, sub.len) {
                    Some(crate::faults::IoFault::NoSpace) => {
                        return Err(PfsError::NoSpace { server: sub.server });
                    }
                    Some(_) => {
                        return Err(PfsError::MediaError { server: sub.server });
                    }
                    None => {}
                }
            }
        }
        self.store(file, offset, len, data);
        Ok(())
    }

    /// Copies `len` bytes of `file` at `offset` into `dst_file` at
    /// `dst_offset` of `dst`, store to store, bypassing both service
    /// queues — the data effect of a Rebuilder fetch, flush or scrub
    /// repair whose timing and faults were already simulated, so no fault
    /// gate applies. One walk over the source's stripe pieces: a piece
    /// with any coverage is copied whole, holes inside it as zeroes; a
    /// piece with none is skipped, so the destination gains no coverage
    /// (and no size) the source lacks. In timing mode nothing is copied
    /// and the destination's size does not grow.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::UnknownFile`] if either file is not known;
    /// nothing is copied then.
    pub fn copy_into(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
        dst: &mut Pfs,
        dst_file: FileId,
        dst_offset: u64,
    ) -> Result<(), PfsError> {
        self.meta(file)?;
        dst.meta(dst_file)?;
        if self.mode == StoreMode::Timing {
            return Ok(());
        }
        for sub in self.layout.split_iter(offset, len) {
            let Some(server) = self.servers.get(sub.server) else {
                continue; // layout splits stay within the server count
            };
            let mut local = sub.local_offset;
            for (file_off, seg_len) in self.layout.file_segments(&sub) {
                if server.peek_coverage(file, local, seg_len) > 0 {
                    let data = server.peek_store(file, local, seg_len);
                    let at = dst_offset + (file_off - offset);
                    dst.store(dst_file, at, seg_len, data.as_deref());
                }
                local += seg_len;
            }
        }
        Ok(())
    }

    /// Grows the file size and writes `[offset, offset+len)` of `file` into
    /// the server stores, stripe piece by stripe piece (in functional mode
    /// only): the ungated effect behind [`Pfs::apply_bytes`] and
    /// [`Pfs::copy_into`].
    fn store(&mut self, file: FileId, offset: u64, len: u64, data: Option<&[u8]>) {
        if let Some(meta) = self.files.get_mut(&file) {
            meta.size = meta.size.max(offset + len);
        }
        if self.mode == StoreMode::Timing {
            return;
        }
        for sub in self.layout.split_iter(offset, len) {
            let mut local = sub.local_offset;
            for (file_off, seg_len) in self.layout.file_segments(&sub) {
                let slice = data.and_then(|d| {
                    d.get((file_off - offset) as usize..)
                        .and_then(|tail| tail.get(..seg_len as usize))
                });
                if let Some(s) = self.servers.get_mut(sub.server) {
                    s.poke_store(file, local, seg_len, slice);
                }
                local += seg_len;
            }
        }
    }

    /// Reads `len` bytes at `offset` directly from the server stores,
    /// zero-filled over unwritten holes. Returns `Ok(None)` in timing mode,
    /// where the servers keep no bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::UnknownFile`] if the id is not known and
    /// [`PfsError::MediaError`] if the range touches a bad device sector
    /// on any involved server (the data there is unreadable).
    pub fn read_bytes(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Option<Vec<u8>>, PfsError> {
        self.meta(file)?;
        // A media fault or a timing-mode server (`peek_store` holds no
        // bytes) ends the read; the buffer waits for the first stored piece.
        let mut out: Option<Vec<u8>> = None;
        for sub in self.layout.split_iter(offset, len) {
            let Some(server) = self.servers.get(sub.server) else {
                continue; // layout splits stay within the server count
            };
            if server
                .bypass_read_fault(file, sub.local_offset, sub.len)
                .is_some()
            {
                return Err(PfsError::MediaError { server: sub.server });
            }
            let mut local = sub.local_offset;
            for (file_off, seg_len) in self.layout.file_segments(&sub) {
                let Some(data) = server.peek_store(file, local, seg_len) else {
                    return Ok(None);
                };
                let buf = out.get_or_insert_with(|| vec![0u8; len as usize]);
                let at = (file_off - offset) as usize;
                if let Some(dst) = buf.get_mut(at..at + seg_len as usize) {
                    dst.copy_from_slice(&data);
                }
                local += seg_len;
            }
        }
        Ok(Some(out.unwrap_or_default()))
    }

    /// How many bytes of `[offset, offset+len)` are covered by previous
    /// writes across the involved servers; 0 in timing mode, which keeps
    /// no record of writes.
    ///
    /// # Errors
    ///
    /// Returns [`PfsError::UnknownFile`] if the id is not known.
    pub fn covered_bytes(&self, file: FileId, offset: u64, len: u64) -> Result<u64, PfsError> {
        if !self.files.contains_key(&file) {
            return Err(PfsError::UnknownFile(file));
        }
        let mut covered = 0;
        for sub in self.layout.split_iter(offset, len) {
            if let Some(s) = self.servers.get(sub.server) {
                covered += s.peek_coverage(file, sub.local_offset, sub.len);
            }
        }
        Ok(covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_storage::presets;

    fn pfs() -> Pfs {
        Pfs::hdd_cluster(
            "opfs",
            StripeLayout::new(64 * 1024, 8),
            presets::hdd_seagate_st3250(),
            NetworkConfig::ideal(),
            StoreMode::Timing,
            7,
        )
    }

    #[test]
    fn namespace_lifecycle() {
        let mut p = pfs();
        let f = p.create("a").unwrap();
        assert_eq!(p.open("a").unwrap(), f);
        assert_eq!(p.create("a"), Err(PfsError::FileExists("a".into())));
        assert_eq!(p.open("b"), Err(PfsError::NoSuchFile("b".into())));
        assert_eq!(p.create_or_open("a"), f);
        let g = p.create_or_open("b");
        assert_ne!(f, g);
        assert_eq!(p.meta(f).unwrap().name, "a");
        assert_eq!(p.meta(FileId(99)), Err(PfsError::UnknownFile(FileId(99))));
    }

    #[test]
    fn plan_validates_and_tracks_size() {
        let mut p = pfs();
        let f = p.create("a").unwrap();
        assert_eq!(p.plan(f, IoKind::Write, 0, 0), Err(PfsError::EmptyRequest));
        assert_eq!(
            p.plan(FileId(99), IoKind::Write, 0, 1),
            Err(PfsError::UnknownFile(FileId(99)))
        );
        let subs = p.plan(f, IoKind::Write, 0, 256 * 1024).unwrap();
        assert_eq!(subs.len(), 4);
        assert_eq!(p.meta(f).unwrap().size, 256 * 1024);
        // Reads do not extend the size.
        p.plan(f, IoKind::Read, 0, 1024 * 1024).unwrap();
        assert_eq!(p.meta(f).unwrap().size, 256 * 1024);
    }

    #[test]
    fn server_access_bounds() {
        let mut p = pfs();
        assert_eq!(p.server_count(), 8);
        assert!(p.server(7).is_ok());
        assert_eq!(
            p.server(8).unwrap_err(),
            PfsError::BadServer { index: 8, count: 8 }
        );
        assert!(p.server_mut(8).is_err());
        assert_eq!(p.iter_servers().count(), 8);
        assert_eq!(p.name(), "opfs");
        assert_eq!(p.stored_bytes(), 0);
    }

    #[test]
    fn ssd_cluster_builds() {
        let p = Pfs::ssd_cluster(
            "cpfs",
            StripeLayout::new(64 * 1024, 4),
            presets::ssd_ocz_revodrive_x2(),
            NetworkConfig::gigabit_ethernet(),
            StoreMode::Timing,
            9,
        );
        assert_eq!(p.server_count(), 4);
    }

    #[test]
    #[should_panic(expected = "server array must match layout width")]
    fn new_rejects_mismatched_width() {
        Pfs::new(
            "x",
            StripeLayout::new(4096, 3),
            StoreMode::Timing,
            Vec::new(),
        );
    }

    #[test]
    fn apply_and_read_bytes_round_trip() {
        let mut p = Pfs::hdd_cluster(
            "opfs",
            StripeLayout::new(4 * KIB, 3),
            presets::hdd_seagate_st3250(),
            NetworkConfig::ideal(),
            StoreMode::Functional,
            11,
        );
        let f = p.create("a").unwrap();
        // A striped range crossing several servers, at an odd offset.
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        p.apply_bytes(f, 1234, payload.len() as u64, Some(&payload))
            .unwrap();
        assert_eq!(p.meta(f).unwrap().size, 1234 + payload.len() as u64);
        let got = p.read_bytes(f, 1234, payload.len() as u64).unwrap();
        assert_eq!(got.as_deref(), Some(&payload[..]));
        assert_eq!(
            p.covered_bytes(f, 1234, payload.len() as u64).unwrap(),
            payload.len() as u64
        );
        // Holes read back zero-filled and uncovered.
        let wide = p.read_bytes(f, 0, 2000).unwrap().unwrap();
        assert!(wide[..1234].iter().all(|&b| b == 0));
        assert_eq!(&wide[1234..], &payload[..2000 - 1234]);
        assert_eq!(p.covered_bytes(f, 0, 1234).unwrap(), 0);
        // Zero-length apply is a no-op; missing data stores zeroes.
        p.apply_bytes(f, 0, 0, None).unwrap();
        p.apply_bytes(f, 0, 8, None).unwrap();
        assert_eq!(p.read_bytes(f, 0, 8).unwrap().unwrap(), vec![0u8; 8]);
        // Unknown files error on every helper.
        assert!(p.apply_bytes(FileId(99), 0, 1, None).is_err());
        assert!(p.read_bytes(FileId(99), 0, 1).is_err());
        assert!(p.covered_bytes(FileId(99), 0, 1).is_err());
        assert_eq!(p.iter_files().count(), 1);
    }

    #[test]
    fn bypass_paths_fail_atomically_under_enospc_and_media() {
        use crate::faults::{FaultPlan, ServerFault};
        use s4d_sim::SimTime;
        let mut p = Pfs::hdd_cluster(
            "cpfs",
            StripeLayout::new(4 * KIB, 3),
            presets::hdd_seagate_st3250(),
            NetworkConfig::ideal(),
            StoreMode::Functional,
            13,
        );
        let f = p.create("a").unwrap();
        p.apply_bytes(f, 0, 16, Some(&[7u8; 16])).unwrap();

        // ENOSPC on server 0: a striped write crossing it fails whole
        // with no effect anywhere and no size growth.
        p.set_fault_plan(
            0,
            FaultPlan::new().with(ServerFault::SpaceExhausted {
                from: SimTime::ZERO,
                until: SimTime::from_secs(100),
            }),
        )
        .unwrap();
        p.advance_faults(SimTime::from_secs(1));
        let err = p.apply_bytes(f, 0, 32 * KIB, None).unwrap_err();
        assert_eq!(err, PfsError::NoSpace { server: 0 });
        assert_eq!(p.meta(f).unwrap().size, 16, "failed write did not grow");
        assert_eq!(p.covered_bytes(f, 16, 32 * KIB).unwrap(), 0);
        // Reads still work under ENOSPC.
        assert_eq!(
            p.read_bytes(f, 0, 16).unwrap().unwrap(),
            vec![7u8; 16],
            "space exhaustion never fails reads"
        );
        // The window ends: writes work again.
        p.advance_faults(SimTime::from_secs(200));
        p.apply_bytes(f, 0, 32 * KIB, None).unwrap();

        // Media errors (every sector bad) fail both directions.
        p.set_fault_plan(
            1,
            FaultPlan::new().with(ServerFault::MediaErrors {
                from: SimTime::ZERO,
                seed: 5,
                bad_ppm: 1_000_000,
            }),
        )
        .unwrap();
        assert_eq!(
            p.apply_bytes(f, 0, 32 * KIB, None).unwrap_err(),
            PfsError::MediaError { server: 1 }
        );
        assert_eq!(
            p.read_bytes(f, 4 * KIB, 4 * KIB).unwrap_err(),
            PfsError::MediaError { server: 1 }
        );
        // Ranges entirely on healthy servers are unaffected (stripe 0 of
        // a 3-wide 4 KiB layout lives on server 0).
        assert!(p.read_bytes(f, 0, 16).is_ok());
    }

    #[test]
    fn a_plan_installed_late_fires_only_crashes_after_the_install() {
        use crate::faults::{FaultPlan, ServerFault};
        use s4d_sim::SimTime;
        let mut p = Pfs::hdd_cluster(
            "opfs",
            StripeLayout::new(4 * KIB, 2),
            presets::hdd_seagate_st3250(),
            NetworkConfig::ideal(),
            StoreMode::Functional,
            3,
        );
        let f = p.create("a").unwrap();
        p.apply_bytes(f, 0, 8 * KIB, Some(&[5u8; 8 * 1024]))
            .unwrap();
        // No server has a plan: advancing only moves the clock.
        p.advance_faults(SimTime::from_secs(10));
        let crash = |at: u64| {
            FaultPlan::new().with(ServerFault::Crash {
                at: SimTime::from_secs(at),
                recover_at: SimTime::from_secs(at + 1),
            })
        };
        // Dated before the install: never fires.
        p.set_fault_plan(0, crash(5)).unwrap();
        p.advance_faults(SimTime::from_secs(20));
        assert_eq!(p.covered_bytes(f, 0, 8 * KIB).unwrap(), 8 * KIB);
        // Dated after it: wipes server 0's stripe once due.
        p.set_fault_plan(1, crash(30)).unwrap();
        p.advance_faults(SimTime::from_secs(29));
        assert_eq!(p.covered_bytes(f, 0, 8 * KIB).unwrap(), 8 * KIB);
        p.advance_faults(SimTime::from_secs(31));
        assert_eq!(p.covered_bytes(f, 0, 8 * KIB).unwrap(), 4 * KIB);
    }

    #[test]
    fn read_bytes_in_timing_mode_returns_none() {
        let mut p = pfs();
        let f = p.create("a").unwrap();
        p.apply_bytes(f, 0, 4 * KIB, None).unwrap();
        assert_eq!(p.read_bytes(f, 0, 4 * KIB).unwrap(), None);
        // Timing servers keep no record of the write; the size still grows.
        assert_eq!(p.covered_bytes(f, 0, 4 * KIB).unwrap(), 0);
        assert_eq!(p.stored_bytes(), 0);
        assert_eq!(p.meta(f).unwrap().size, 4 * KIB);
    }

    const KIB: u64 = 1024;
}
