//! A single file server: device + two-level service queue, plus per-file
//! byte stores in functional mode.

use std::collections::VecDeque;

use s4d_sim::{IdMap, SimDuration, SimRng, SimTime};
use s4d_storage::{DeviceModel, ExtentStore, IoKind, StoreMode};

use crate::faults::{FaultPlan, IoFault, StallState};
use crate::network::NetworkConfig;
use crate::types::{FileId, Priority, SubReqId};

/// Fixed latency of an error completion from an offline server — the
/// client's RPC timeout, not a device service time.
const OFFLINE_ERROR_LATENCY: SimDuration = SimDuration::from_millis(2);

/// A sub-request submitted to one server.
#[derive(Debug, Clone)]
pub struct SubRequest {
    /// Caller-assigned identifier, echoed back on completion.
    pub id: SubReqId,
    /// Target file.
    pub file: FileId,
    /// Read or write.
    pub kind: IoKind,
    /// Offset within the server-local file object.
    pub local_offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Foreground or background service class.
    pub priority: Priority,
    /// Write payload (required when the server stores bytes functionally).
    pub data: Option<Vec<u8>>,
}

/// Acknowledgement that a sub-request entered service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started {
    /// The sub-request now being serviced.
    pub id: SubReqId,
    /// When it will complete.
    pub completes_at: SimTime,
}

/// A finished sub-request, with read payload if applicable.
#[derive(Debug, Clone)]
pub struct CompletedSubRequest {
    /// The identifier given at submission.
    pub id: SubReqId,
    /// Target file.
    pub file: FileId,
    /// Read or write.
    pub kind: IoKind,
    /// Offset within the server-local file object.
    pub local_offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Bytes read (functional stores only; zero-filled over holes). For a
    /// *failed write* this instead carries the original payload back so
    /// the caller can retry without keeping its own copy.
    pub data: Option<Vec<u8>>,
    /// `Some` if the operation failed (no store effect happened); see
    /// [`IoFault`] for retryability.
    pub error: Option<IoFault>,
}

/// Counters a server accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sub-requests serviced.
    pub ops: u64,
    /// Background-priority sub-requests serviced.
    pub background_ops: u64,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Total time the device spent in service.
    pub busy: SimDuration,
    /// Largest queue depth observed (including the in-service request).
    pub max_depth: usize,
    /// Sub-requests that completed with an [`IoFault`].
    pub faulted_ops: u64,
    /// Sub-requests that parked in a stall window at start.
    pub stalled_ops: u64,
    /// Sub-requests removed by [`FileServer::abandon`] before completing.
    pub abandoned_ops: u64,
}

/// One file server of a parallel file system.
///
/// The server is an explicit-time state machine: callers [`submit`] work and
/// later call [`on_complete`] at exactly the time a previous [`Started`]
/// promised. One sub-request is in service at a time; queued foreground work
/// always runs before queued background work (the Rebuilder's low-priority
/// I/O, §III.F of the paper).
///
/// [`submit`]: FileServer::submit
/// [`on_complete`]: FileServer::on_complete
#[derive(Debug)]
pub struct FileServer {
    device: Box<dyn DeviceModel>,
    net: NetworkConfig,
    store_mode: StoreMode,
    /// Per-file bytes; always empty in timing mode.
    stores: IdMap<FileId, ExtentStore>,
    bases: IdMap<FileId, u64>,
    next_base: u64,
    file_region: u64,
    capacity: u64,
    normal: VecDeque<SubRequest>,
    background: VecDeque<SubRequest>,
    current: Option<SubRequest>,
    current_fault: Option<IoFault>,
    /// True when `current` is parked in a forever-stall: it occupies the
    /// service slot but no [`Started`] was issued and no completion will
    /// arrive until [`FileServer::abandon`] frees the slot.
    parked: bool,
    faults: FaultPlan,
    fault_cursor: SimTime,
    rng: SimRng,
    stats: ServerStats,
}

impl FileServer {
    /// Creates a server around a device model. Distinct files get base
    /// addresses 1/64 of the device capacity apart, so they are
    /// mechanically distant, as on a real disk.
    pub(crate) fn new(
        device: Box<dyn DeviceModel>,
        capacity: u64,
        net: NetworkConfig,
        store_mode: StoreMode,
        rng: SimRng,
    ) -> Self {
        let file_region = (capacity / 64).max(1);
        FileServer {
            device,
            net,
            store_mode,
            stores: IdMap::default(),
            bases: IdMap::default(),
            next_base: 0,
            file_region,
            capacity,
            normal: VecDeque::new(),
            background: VecDeque::new(),
            current: None,
            current_fault: None,
            parked: false,
            faults: FaultPlan::new(),
            fault_cursor: SimTime::ZERO,
            rng,
            stats: ServerStats::default(),
        }
    }

    /// Installs a scripted fault plan (replacing any previous plan).
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// True if a fault plan with at least one fault is installed.
    pub(crate) fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Applies any crash effects that became due by `now`: a hard crash
    /// wipes every stored byte. Idempotent; called internally from
    /// [`FileServer::submit`] and [`FileServer::on_complete`], and by the
    /// runner before direct store access ([`Pfs::read_bytes`],
    /// [`Pfs::copy_into`]) so post-crash reads never observe stale data.
    ///
    /// [`Pfs::read_bytes`]: crate::Pfs::read_bytes
    /// [`Pfs::copy_into`]: crate::Pfs::copy_into
    pub(crate) fn advance_faults(&mut self, now: SimTime) {
        if self.faults.crash_due(self.fault_cursor, now) {
            self.stores.clear();
        }
        self.fault_cursor = self.fault_cursor.max(now);
    }

    /// True if a sub-request is in service.
    pub(crate) fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    /// Queued (not yet started) sub-requests, both priorities.
    pub(crate) fn queue_len(&self) -> usize {
        self.normal.len() + self.background.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Total bytes currently stored across all files.
    pub(crate) fn stored_bytes(&self) -> u64 {
        self.stores.values().map(|s| s.written_bytes()).sum()
    }

    /// Submits a sub-request. If the server is idle it enters service
    /// immediately and a [`Started`] is returned; otherwise it queues and
    /// the server will start it from a later [`FileServer::on_complete`].
    /// `None` also means the op parked in a forever-stall window (see
    /// [`ServerFault::Stall`](crate::ServerFault::Stall)) — in both cases
    /// no completion is scheduled yet and the op occupies server state.
    pub fn submit(&mut self, now: SimTime, req: SubRequest) -> Option<Started> {
        self.advance_faults(now);
        let depth = self.queue_len() + usize::from(self.is_busy()) + 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if self.current.is_none() {
            self.start(now, req)
        } else {
            match req.priority {
                Priority::Normal => self.normal.push_back(req),
                Priority::Background => self.background.push_back(req),
            }
            None
        }
    }

    /// Completes the in-service sub-request at time `now`, applying its
    /// store effect, and starts the next queued one (foreground first).
    ///
    /// # Panics
    ///
    /// Panics if nothing is in service — calling this without a matching
    /// [`Started`] is a scheduling bug.
    #[expect(clippy::expect_used, reason = "# Panics above: a scheduling bug")]
    pub fn on_complete(&mut self, now: SimTime) -> (CompletedSubRequest, Option<Started>) {
        self.advance_faults(now);
        assert!(
            !self.parked,
            "on_complete called while the service slot is parked in a stall"
        );
        let req = self
            .current
            .take()
            .expect("on_complete called with no sub-request in service");
        // A fault decided at start, or a crash that hit mid-service.
        let fault = self.current_fault.take().or_else(|| {
            if self.faults.offline_at(now) {
                Some(IoFault::Offline)
            } else {
                None
            }
        });
        let data = match (fault, req.kind) {
            // Hand the payload back so a failed write can be retried.
            (Some(_), _) => {
                self.stats.faulted_ops += 1;
                req.data.filter(|_| req.kind.is_write())
            }
            (None, IoKind::Write) => {
                self.stats.bytes_written += req.len;
                self.poke_store(req.file, req.local_offset, req.len, req.data.as_deref());
                None
            }
            (None, IoKind::Read) => {
                self.stats.bytes_read += req.len;
                self.peek_store(req.file, req.local_offset, req.len)
            }
        };
        let completed = CompletedSubRequest {
            id: req.id,
            file: req.file,
            kind: req.kind,
            local_offset: req.local_offset,
            len: req.len,
            data,
            error: fault,
        };
        (completed, self.start_next(now))
    }

    /// Abandons sub-request `id`: removes it from the queue, or frees the
    /// service slot when it is the *parked* current op (then starting the
    /// next queued one). An op genuinely in service cannot be recalled —
    /// the device is mid-transfer — so `(false, None)` is returned and
    /// its completion still arrives at the promised time; a caller that
    /// gave up on it must discard that late completion idempotently.
    pub fn abandon(&mut self, now: SimTime, id: SubReqId) -> (bool, Option<Started>) {
        self.advance_faults(now);
        if self.parked && self.current.as_ref().map(|r| r.id) == Some(id) {
            self.current = None;
            self.current_fault = None;
            self.parked = false;
            self.stats.abandoned_ops += 1;
            return (true, self.start_next(now));
        }
        for queue in [&mut self.normal, &mut self.background] {
            if let Some(pos) = queue.iter().position(|r| r.id == id) {
                queue.remove(pos);
                self.stats.abandoned_ops += 1;
                return (true, None);
            }
        }
        (false, None)
    }

    /// Reads stored bytes, zero-filled over holes; a file this server never
    /// stored reads as one hole. Serviced reads land here, and so do
    /// instantaneous data-plane effects whose *timing* was already
    /// simulated as separate I/O. Returns `None` in timing mode.
    pub(crate) fn peek_store(&self, file: FileId, local_offset: u64, len: u64) -> Option<Vec<u8>> {
        if self.store_mode == StoreMode::Timing {
            return None;
        }
        match self.stores.get(&file) {
            Some(store) => Some(store.read(local_offset, len)),
            None => Some(vec![0u8; len as usize]),
        }
    }

    /// How many bytes of `[local_offset, local_offset+len)` are covered by
    /// previous writes: 0 after a crash wiped the store, and always 0 in
    /// timing mode.
    pub(crate) fn peek_coverage(&self, file: FileId, local_offset: u64, len: u64) -> u64 {
        self.stores
            .get(&file)
            .map_or(0, |s| s.read_covered(local_offset, len))
    }

    /// Writes `[local_offset, local_offset+len)` of `file` into its store,
    /// for serviced writes and for the bypass effects of
    /// [`FileServer::peek_store`]. A missing payload (a timing-style
    /// script on a functional server) stores zeroes, so coverage stays
    /// accurate. Does nothing in timing mode.
    pub(crate) fn poke_store(
        &mut self,
        file: FileId,
        local_offset: u64,
        len: u64,
        data: Option<&[u8]>,
    ) {
        if self.store_mode == StoreMode::Timing {
            return;
        }
        let store = self.stores.entry(file).or_default();
        match data {
            None => store.write(local_offset, len, Some(&vec![0u8; len as usize])),
            data => store.write(local_offset, len, data),
        }
    }

    /// Discards a stored range of `file` (cache eviction); a timing-mode
    /// server holds no store to look up.
    pub(crate) fn discard_range(&mut self, file: FileId, local_offset: u64, len: u64) {
        if let Some(store) = self.stores.get_mut(&file) {
            store.discard(local_offset, len);
        }
    }

    /// Starts the next queued sub-request, foreground first.
    fn start_next(&mut self, now: SimTime) -> Option<Started> {
        let req = self
            .normal
            .pop_front()
            .or_else(|| self.background.pop_front())?;
        self.start(now, req)
    }

    /// Moves `req` into the service slot. Returns `None` when a
    /// forever-stall parks the op: it holds the slot but no completion is
    /// scheduled, and only [`FileServer::abandon`] can free it.
    fn start(&mut self, now: SimTime, req: SubRequest) -> Option<Started> {
        // Without a plan every fault query answers "healthy" and draws
        // nothing, so a healthy server skips them.
        let healthy = self.faults.is_empty();
        // Fault precedence is fixed (offline > no-space > media > transient)
        // so the decision — and the RNG draws it consumes — is a pure
        // function of the scripted plan, never of fault insertion order.
        let fault = if healthy {
            None
        } else if self.faults.offline_at(now) {
            Some(IoFault::Offline)
        } else if req.kind.is_write() && self.faults.no_space_at(now) {
            Some(IoFault::NoSpace)
        } else if self.media_hit(now, req.file, req.local_offset, req.len) {
            Some(IoFault::Media)
        } else {
            let rate = self.faults.error_rate_at(now);
            if rate > 0.0 && self.rng.chance(rate) {
                Some(IoFault::Transient)
            } else {
                None
            }
        };
        self.current_fault = fault;
        // An offline server fails fast — a stall never outranks a crash.
        let stall = if healthy || fault == Some(IoFault::Offline) {
            StallState::Clear
        } else {
            self.faults.stall_at(now)
        };
        if stall == StallState::Forever {
            self.stats.stalled_ops += 1;
            self.current = Some(req);
            self.parked = true;
            return None;
        }
        let service = if fault == Some(IoFault::Offline) {
            // No device or transfer happens; the client just times out.
            OFFLINE_ERROR_LATENCY
        } else {
            let base = self.base_for(req.file);
            let lba = (base + req.local_offset) % self.capacity.max(1);
            let device_time = self
                .device
                .service_time(req.kind, lba, req.len, &mut self.rng);
            let factor = if healthy {
                1.0
            } else {
                self.faults.slowdown(now, req.kind, &mut self.rng)
            };
            let device_time = if factor > 1.0 {
                SimDuration::from_secs_f64(device_time.as_secs_f64() * factor)
            } else {
                device_time
            };
            let net = SimDuration::from_secs_f64(
                self.net
                    .overhead_secs(req.len, self.device.transfer_rate(req.kind)),
            );
            device_time + net
        };
        self.stats.ops += 1;
        if req.priority == Priority::Background {
            self.stats.background_ops += 1;
        }
        self.stats.busy += service;
        // A released stall parks the op first, then services it: the
        // device is idle while parked, so only `service` counts as busy,
        // but the completion lands after the release instant.
        let begins = match stall {
            StallState::Until(release) => {
                self.stats.stalled_ops += 1;
                release
            }
            _ => now,
        };
        let started = Started {
            id: req.id,
            completes_at: begins + service,
        };
        self.current = Some(req);
        Some(started)
    }

    /// True if `[local_offset, local_offset+len)` of `file` maps onto a
    /// bad device sector under the media map active at `now`. Media
    /// damage is keyed by a deterministic per-file device mapping
    /// (file id × file-region spacing) rather than the dynamically
    /// assigned service base, so bypass accesses (shared-reference
    /// reads) and serviced I/O always agree on which ranges are bad.
    fn media_hit(&self, now: SimTime, file: FileId, local_offset: u64, len: u64) -> bool {
        let Some((seed, ppm)) = self.faults.media_map_at(now) else {
            return false;
        };
        let cap = self.capacity.max(1);
        let base = file.0.wrapping_mul(self.file_region) % cap;
        let lba = base.wrapping_add(local_offset) % cap;
        s4d_storage::range_has_bad_sector(seed, ppm, lba, len)
    }

    /// Fault a *bypass* store write ([`FileServer::poke_store`]-shaped
    /// access) of this range would hit at the server's current fault
    /// cursor: [`IoFault::NoSpace`] inside a space-exhaustion window,
    /// [`IoFault::Media`] on a bad sector. Offline is not reported here —
    /// bypass effects model already-simulated I/O, and a crash already
    /// wipes stores via [`FileServer::advance_faults`].
    pub(crate) fn bypass_write_fault(
        &self,
        file: FileId,
        local_offset: u64,
        len: u64,
    ) -> Option<IoFault> {
        let now = self.fault_cursor;
        if self.faults.no_space_at(now) {
            return Some(IoFault::NoSpace);
        }
        if self.media_hit(now, file, local_offset, len) {
            return Some(IoFault::Media);
        }
        None
    }

    /// Fault a bypass store read of this range would hit at the server's
    /// current fault cursor ([`IoFault::Media`] only — space exhaustion
    /// never fails reads).
    pub(crate) fn bypass_read_fault(
        &self,
        file: FileId,
        local_offset: u64,
        len: u64,
    ) -> Option<IoFault> {
        if self.media_hit(self.fault_cursor, file, local_offset, len) {
            Some(IoFault::Media)
        } else {
            None
        }
    }

    fn base_for(&mut self, file: FileId) -> u64 {
        if let Some(&b) = self.bases.get(&file) {
            return b;
        }
        let b = self.next_base % self.capacity.max(1);
        self.next_base = self.next_base.wrapping_add(self.file_region);
        self.bases.insert(file, b);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_storage::presets;

    const KIB: u64 = 1024;
    const GIB: u64 = 1024 * 1024 * 1024;

    fn hdd_server(mode: StoreMode) -> FileServer {
        let cfg = presets::hdd_seagate_st3250();
        let cap = cfg.capacity();
        FileServer::new(
            Box::new(cfg.build()),
            cap,
            NetworkConfig::ideal(),
            mode,
            SimRng::seed(1),
        )
    }

    fn req(id: u64, kind: IoKind, off: u64, len: u64, prio: Priority) -> SubRequest {
        SubRequest {
            id: SubReqId(id),
            file: FileId(0),
            kind,
            local_offset: off,
            len,
            priority: prio,
            data: None,
        }
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = hdd_server(StoreMode::Timing);
        let started = s
            .submit(
                SimTime::ZERO,
                req(1, IoKind::Write, 0, 4 * KIB, Priority::Normal),
            )
            .expect("idle server starts at once");
        assert_eq!(started.id, SubReqId(1));
        assert!(started.completes_at > SimTime::ZERO);
        assert!(s.is_busy());
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = hdd_server(StoreMode::Timing);
        let t0 = SimTime::ZERO;
        let first = s
            .submit(t0, req(1, IoKind::Write, 0, 4 * KIB, Priority::Normal))
            .unwrap();
        assert!(s
            .submit(t0, req(2, IoKind::Write, GIB, 4 * KIB, Priority::Normal))
            .is_none());
        assert!(s
            .submit(
                t0,
                req(3, IoKind::Write, 2 * GIB, 4 * KIB, Priority::Normal)
            )
            .is_none());
        assert_eq!(s.queue_len(), 2);
        let (done, next) = s.on_complete(first.completes_at);
        assert_eq!(done.id, SubReqId(1));
        let next = next.expect("queued work starts");
        assert_eq!(next.id, SubReqId(2));
        let (done, next) = s.on_complete(next.completes_at);
        assert_eq!(done.id, SubReqId(2));
        assert_eq!(next.unwrap().id, SubReqId(3));
    }

    #[test]
    fn background_waits_for_all_foreground() {
        let mut s = hdd_server(StoreMode::Timing);
        let t0 = SimTime::ZERO;
        let first = s
            .submit(t0, req(1, IoKind::Write, 0, KIB, Priority::Normal))
            .unwrap();
        s.submit(t0, req(2, IoKind::Write, 0, KIB, Priority::Background));
        s.submit(t0, req(3, IoKind::Write, 0, KIB, Priority::Normal));
        let (_, next) = s.on_complete(first.completes_at);
        // Normal id=3 jumps ahead of background id=2.
        let next = next.unwrap();
        assert_eq!(next.id, SubReqId(3));
        let (_, next) = s.on_complete(next.completes_at);
        assert_eq!(next.unwrap().id, SubReqId(2));
        assert_eq!(s.stats().background_ops, 1);
    }

    #[test]
    fn functional_store_round_trip() {
        let mut s = hdd_server(StoreMode::Functional);
        let t0 = SimTime::ZERO;
        let mut w = req(1, IoKind::Write, 100, 5, Priority::Normal);
        w.data = Some(b"hello".to_vec());
        let started = s.submit(t0, w).unwrap();
        s.on_complete(started.completes_at);
        let started = s
            .submit(
                started.completes_at,
                req(2, IoKind::Read, 98, 9, Priority::Normal),
            )
            .unwrap();
        let (done, _) = s.on_complete(started.completes_at);
        assert_eq!(s.peek_coverage(FileId(0), 98, 9), 5);
        assert_eq!(
            done.data.as_deref(),
            Some(&[0, 0, b'h', b'e', b'l', b'l', b'o', 0, 0][..])
        );
        assert_eq!(s.stored_bytes(), 5);
    }

    #[test]
    fn distinct_files_get_distant_bases() {
        let mut s = hdd_server(StoreMode::Timing);
        let t0 = SimTime::ZERO;
        let mut r1 = req(1, IoKind::Write, 0, KIB, Priority::Normal);
        r1.file = FileId(10);
        let mut r2 = req(2, IoKind::Write, 0, KIB, Priority::Normal);
        r2.file = FileId(11);
        let a = s.submit(t0, r1).unwrap();
        let (_, _) = s.on_complete(a.completes_at);
        let b = s.submit(a.completes_at, r2).unwrap();
        // Different file at local offset 0 must seek: its base is far away.
        let service_b = b.completes_at - a.completes_at;
        assert!(
            service_b > SimDuration::from_millis(1),
            "second file's first access should pay positioning: {service_b}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = hdd_server(StoreMode::Timing);
        let t = SimTime::ZERO;
        let st = s
            .submit(t, req(1, IoKind::Write, 0, 8 * KIB, Priority::Normal))
            .unwrap();
        s.submit(t, req(2, IoKind::Read, 0, 8 * KIB, Priority::Normal));
        let (_, next) = s.on_complete(st.completes_at);
        s.on_complete(next.unwrap().completes_at);
        let stats = s.stats();
        assert_eq!(stats.ops, 2);
        assert_eq!(stats.bytes_written, 8 * KIB);
        assert_eq!(stats.bytes_read, 8 * KIB);
        assert!(stats.busy > SimDuration::ZERO);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn discard_drops_a_stored_range() {
        let mut s = hdd_server(StoreMode::Functional);
        let t = SimTime::ZERO;
        let mut w = req(1, IoKind::Write, 0, 4, Priority::Normal);
        w.data = Some(vec![7; 4]);
        let st = s.submit(t, w).unwrap();
        s.on_complete(st.completes_at);
        assert_eq!(s.stored_bytes(), 4);
        s.discard_range(FileId(0), 0, 2);
        assert_eq!(s.stored_bytes(), 2);
    }

    #[test]
    fn a_timing_server_holds_no_per_file_store() {
        let mut s = hdd_server(StoreMode::Timing);
        let mut t = SimTime::ZERO;
        for (id, kind) in [(1, IoKind::Write), (2, IoKind::Read)] {
            let st = s
                .submit(t, req(id, kind, 0, 4 * KIB, Priority::Normal))
                .unwrap();
            let (done, _) = s.on_complete(st.completes_at);
            assert_eq!(done.data, None);
            t = st.completes_at;
        }
        // A store-to-store copy's two halves, then an eviction.
        assert_eq!(s.peek_store(FileId(0), 0, 4 * KIB), None);
        s.poke_store(FileId(1), 0, 4, Some(b"abcd"));
        s.discard_range(FileId(0), 0, 4 * KIB);
        assert!(s.stores.is_empty(), "a timing server keeps no store");
        assert_eq!(s.peek_coverage(FileId(1), 0, 4), 0);
        assert_eq!(s.stored_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "no sub-request in service")]
    fn on_complete_without_service_panics() {
        hdd_server(StoreMode::Timing).on_complete(SimTime::ZERO);
    }

    #[test]
    fn offline_server_fails_fast_and_loses_data() {
        use crate::faults::{FaultPlan, IoFault, ServerFault};
        let mut s = hdd_server(StoreMode::Functional);
        s.set_fault_plan(FaultPlan::new().with(ServerFault::Crash {
            at: SimTime::from_secs(10),
            recover_at: SimTime::from_secs(20),
        }));
        // Healthy write before the crash.
        let mut w = req(1, IoKind::Write, 0, 4, Priority::Normal);
        w.data = Some(vec![9; 4]);
        let st = s.submit(SimTime::ZERO, w).unwrap();
        s.on_complete(st.completes_at);
        assert_eq!(s.stored_bytes(), 4);

        // A write during the outage fails with Offline, has no store
        // effect, and returns its payload for retry.
        let t_down = SimTime::from_secs(12);
        let mut w = req(2, IoKind::Write, 100, 4, Priority::Normal);
        w.data = Some(vec![7; 4]);
        let st = s.submit(t_down, w).unwrap();
        assert_eq!(st.completes_at, t_down + SimDuration::from_millis(2));
        let (done, _) = s.on_complete(st.completes_at);
        assert_eq!(done.error, Some(IoFault::Offline));
        assert_eq!(done.data, Some(vec![7; 4]));
        assert_eq!(s.peek_coverage(FileId(0), 100, 4), 0);
        // The crash wiped the pre-crash write too.
        assert_eq!(s.stored_bytes(), 0);
        assert_eq!(s.peek_coverage(FileId(0), 0, 4), 0);
        assert_eq!(s.stats().faulted_ops, 1);

        // After recovery the server works again, but empty.
        let t_up = SimTime::from_secs(21);
        let st = s
            .submit(t_up, req(3, IoKind::Read, 0, 4, Priority::Normal))
            .unwrap();
        let (done, _) = s.on_complete(st.completes_at);
        assert_eq!(done.error, None);
        assert_eq!(
            done.data,
            Some(vec![0; 4]),
            "recovered server came back empty"
        );
    }

    #[test]
    fn crash_mid_service_fails_the_inflight_request() {
        use crate::faults::{FaultPlan, IoFault, ServerFault};
        let mut s = hdd_server(StoreMode::Functional);
        s.set_fault_plan(FaultPlan::new().with(ServerFault::Crash {
            at: SimTime::from_nanos(1),
            recover_at: SimTime::from_secs(1000),
        }));
        // Starts healthy at t=0, but the server is down by completion.
        let mut w = req(1, IoKind::Write, 0, 4, Priority::Normal);
        w.data = Some(vec![1; 4]);
        let st = s.submit(SimTime::ZERO, w).unwrap();
        let (done, _) = s.on_complete(st.completes_at);
        assert_eq!(done.error, Some(IoFault::Offline));
        assert_eq!(s.stored_bytes(), 0);
    }

    #[test]
    fn transient_errors_fire_at_the_scripted_rate() {
        use crate::faults::{FaultPlan, IoFault, ServerFault};
        let mut s = hdd_server(StoreMode::Functional);
        s.set_fault_plan(FaultPlan::new().with(ServerFault::TransientErrors {
            from: SimTime::ZERO,
            until: SimTime::from_secs(1_000_000),
            error_rate: 0.5,
        }));
        let mut failed = 0u32;
        let mut t = SimTime::ZERO;
        for i in 0..200 {
            let mut w = req(i, IoKind::Write, 0, 4, Priority::Normal);
            w.data = Some(vec![3; 4]);
            let st = s.submit(t, w).unwrap();
            let (done, _) = s.on_complete(st.completes_at);
            if done.error == Some(IoFault::Transient) {
                failed += 1;
            }
            t = st.completes_at;
        }
        assert!(
            (50..=150).contains(&failed),
            "rate 0.5 should fail roughly half of 200 ops, got {failed}"
        );
        assert_eq!(u64::from(failed), s.stats().faulted_ops);
        // Failed writes never touched the store; successes did.
        assert_eq!(s.peek_coverage(FileId(0), 0, 4), 4);
    }

    #[test]
    fn released_stall_parks_then_services() {
        use crate::faults::{FaultPlan, ServerFault};
        let mut s = hdd_server(StoreMode::Functional);
        s.set_fault_plan(FaultPlan::new().with(ServerFault::Stall {
            since: SimTime::ZERO,
            release: Some(SimTime::from_secs(5)),
        }));
        let mut w = req(1, IoKind::Write, 0, 4, Priority::Normal);
        w.data = Some(vec![2; 4]);
        let st = s
            .submit(SimTime::ZERO, w)
            .expect("released stall schedules");
        assert!(
            st.completes_at > SimTime::from_secs(5),
            "completion lands after the release instant: {}",
            st.completes_at
        );
        assert_eq!(s.stats().stalled_ops, 1);
        let (done, _) = s.on_complete(st.completes_at);
        assert_eq!(done.error, None);
        assert_eq!(s.peek_coverage(FileId(0), 0, 4), 4);
    }

    #[test]
    fn forever_stall_parks_and_abandon_frees_the_slot() {
        use crate::faults::{FaultPlan, ServerFault};
        let mut s = hdd_server(StoreMode::Functional);
        s.set_fault_plan(FaultPlan::new().with(ServerFault::Stall {
            since: SimTime::from_secs(1),
            release: None,
        }));
        // Before the stall: normal service.
        let mut w = req(1, IoKind::Write, 0, 4, Priority::Normal);
        w.data = Some(vec![1; 4]);
        let st = s.submit(SimTime::ZERO, w).expect("healthy start");
        s.on_complete(st.completes_at);

        // Inside the stall: the op parks (no Started), occupies the slot,
        // and queues back up behind it.
        let t1 = SimTime::from_secs(2);
        assert!(s
            .submit(t1, req(2, IoKind::Read, 0, 4, Priority::Normal))
            .is_none());
        assert!(s.is_busy(), "parked op occupies the service slot");
        assert!(s
            .submit(t1, req(3, IoKind::Read, 0, 4, Priority::Normal))
            .is_none());
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.stats().stalled_ops, 1);

        // Abandoning an unknown id is a no-op; abandoning the parked op
        // frees the slot, but the next queued op parks right back (the
        // stall never releases).
        assert_eq!(s.abandon(t1, SubReqId(99)), (false, None));
        let (freed, next) = s.abandon(t1, SubReqId(2));
        assert!(freed);
        assert!(next.is_none(), "successor parks in the same stall");
        assert!(s.is_busy());
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.stats().abandoned_ops, 1);
        assert_eq!(s.stats().stalled_ops, 2);

        // Abandoning a queued (never-started) op removes it silently.
        assert!(s
            .submit(t1, req(4, IoKind::Read, 0, 4, Priority::Normal))
            .is_none());
        let (freed, next) = s.abandon(t1, SubReqId(4));
        assert!(freed && next.is_none());
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn space_exhaustion_fails_writes_but_not_reads() {
        use crate::faults::{FaultPlan, IoFault, ServerFault};
        let mut s = hdd_server(StoreMode::Functional);
        s.set_fault_plan(FaultPlan::new().with(ServerFault::SpaceExhausted {
            from: SimTime::from_secs(5),
            until: SimTime::from_secs(50),
        }));
        // Healthy write before the window.
        let mut w = req(1, IoKind::Write, 0, 4, Priority::Normal);
        w.data = Some(vec![5; 4]);
        let st = s.submit(SimTime::ZERO, w).unwrap();
        s.on_complete(st.completes_at);
        assert_eq!(s.stored_bytes(), 4);

        // Inside the window: the write fails NoSpace with no store effect
        // and hands its payload back.
        let t = SimTime::from_secs(10);
        let mut w = req(2, IoKind::Write, 100, 4, Priority::Normal);
        w.data = Some(vec![6; 4]);
        let st = s.submit(t, w).unwrap();
        let (done, _) = s.on_complete(st.completes_at);
        assert_eq!(done.error, Some(IoFault::NoSpace));
        assert_eq!(done.data, Some(vec![6; 4]));
        assert_eq!(s.stored_bytes(), 4, "failed write had no effect");

        // Reads inside the window still work — the store is full, not gone.
        let st = s
            .submit(t, req(3, IoKind::Read, 0, 4, Priority::Normal))
            .unwrap();
        let (done, _) = s.on_complete(st.completes_at);
        assert_eq!(done.error, None);
        assert_eq!(done.data, Some(vec![5; 4]));

        // Bypass query agrees inside, clears outside.
        assert_eq!(
            s.bypass_write_fault(FileId(0), 0, 4),
            Some(IoFault::NoSpace)
        );
        s.advance_faults(SimTime::from_secs(60));
        assert_eq!(s.bypass_write_fault(FileId(0), 0, 4), None);
    }

    #[test]
    fn media_errors_hit_the_same_ranges_every_time() {
        use crate::faults::{FaultPlan, IoFault, ServerFault};
        let build = || {
            let mut s = hdd_server(StoreMode::Functional);
            // All sectors bad: any op from t=5 on fails with Media.
            s.set_fault_plan(FaultPlan::new().with(ServerFault::MediaErrors {
                from: SimTime::from_secs(5),
                seed: 11,
                bad_ppm: 1_000_000,
            }));
            s
        };
        let mut s = build();
        let mut w = req(1, IoKind::Write, 0, 4, Priority::Normal);
        w.data = Some(vec![8; 4]);
        let st = s.submit(SimTime::ZERO, w).unwrap();
        s.on_complete(st.completes_at);

        let t = SimTime::from_secs(10);
        let st = s
            .submit(t, req(2, IoKind::Read, 0, 4, Priority::Normal))
            .unwrap();
        let (done, _) = s.on_complete(st.completes_at);
        assert_eq!(done.error, Some(IoFault::Media));
        assert_eq!(done.data, None);
        // Retrying the same range fails the same way (permanent damage).
        let st = s
            .submit(
                st.completes_at,
                req(3, IoKind::Read, 0, 4, Priority::Normal),
            )
            .unwrap();
        let (done, _) = s.on_complete(st.completes_at);
        assert_eq!(done.error, Some(IoFault::Media));
        // Data written before the onset is still *stored* (unlike a
        // crash): a bypass peek sees it even though serviced reads fail.
        assert_eq!(s.stored_bytes(), 4);
        // Bypass queries report the hit for both directions.
        assert_eq!(s.bypass_read_fault(FileId(0), 0, 4), Some(IoFault::Media));
        assert_eq!(s.bypass_write_fault(FileId(0), 0, 4), Some(IoFault::Media));

        // A sparse map (tiny ppm) usually leaves ranges healthy.
        let mut sparse = hdd_server(StoreMode::Functional);
        sparse.set_fault_plan(FaultPlan::new().with(ServerFault::MediaErrors {
            from: SimTime::ZERO,
            seed: 11,
            bad_ppm: 1,
        }));
        let st = sparse
            .submit(
                SimTime::from_secs(1),
                req(1, IoKind::Read, 0, 4, Priority::Normal),
            )
            .unwrap();
        let (done, _) = sparse.on_complete(st.completes_at);
        assert_eq!(done.error, None, "1 ppm almost never hits one sector");
    }

    #[test]
    fn steady_slow_windows_slow_only_their_class() {
        use crate::faults::{FaultPlan, OpClass, ServerFault};
        // Service time of one 256 KiB op on a fresh server slowed by
        // `factor` for `class` (factor 1 is the healthy baseline).
        let secs = |class: Option<OpClass>, factor: f64, kind: IoKind| {
            let mut s = hdd_server(StoreMode::Timing);
            s.set_fault_plan(FaultPlan::new().with(ServerFault::Slow {
                from: SimTime::ZERO,
                until: SimTime::from_secs(1000),
                class,
                probability: 1.0,
                factor,
            }));
            s.submit(SimTime::ZERO, req(1, kind, 0, 256 * KIB, Priority::Normal))
                .unwrap()
                .completes_at
                .duration_since(SimTime::ZERO)
                .as_secs_f64()
        };
        let read = secs(None, 1.0, IoKind::Read);
        let write = secs(None, 1.0, IoKind::Write);
        assert!(
            secs(None, 10.0, IoKind::Read) > read * 5.0,
            "a 10x slow server must be much slower"
        );
        assert!(
            secs(Some(OpClass::Write), 20.0, IoKind::Write) > write * 5.0,
            "writes limp"
        );
        assert_eq!(
            secs(Some(OpClass::Write), 20.0, IoKind::Read),
            read,
            "reads on a write-slowed server stay healthy"
        );
    }

    #[test]
    fn probabilistic_slow_window_inflates_some_ops_deterministically() {
        use crate::faults::{FaultPlan, ServerFault};
        let run = |seed: u64| {
            let cfg = presets::hdd_seagate_st3250();
            let cap = cfg.capacity();
            let mut s = FileServer::new(
                Box::new(cfg.build()),
                cap,
                NetworkConfig::ideal(),
                StoreMode::Timing,
                SimRng::seed(seed),
            );
            s.set_fault_plan(FaultPlan::new().with(ServerFault::Slow {
                from: SimTime::ZERO,
                until: SimTime::from_secs(1_000_000),
                class: None,
                probability: 0.2,
                factor: 100.0,
            }));
            let mut t = SimTime::ZERO;
            let mut latencies = Vec::new();
            for i in 0..64 {
                let st = s
                    .submit(t, req(i, IoKind::Read, 0, 64 * KIB, Priority::Normal))
                    .unwrap();
                latencies.push(st.completes_at.duration_since(t));
                s.on_complete(st.completes_at);
                t = st.completes_at;
            }
            latencies
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same tail hits");
        let max = a.iter().max().unwrap();
        let min = a.iter().min().unwrap();
        assert!(
            max.as_secs_f64() > min.as_secs_f64() * 20.0,
            "tail hits dwarf the healthy ops: {max} vs {min}"
        );
    }
}
