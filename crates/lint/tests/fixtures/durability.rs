//! Fixture: a raw durable effect outside the durability engine.
//! Seeded violation — trips exactly `durability`.

/// Copies a flushed extent home without going through
/// `DurabilityEngine::fused_copy`: no crash-fuse charge, so the torture
/// matrix can never crash inside the copy. (The `ExtentStore::discard`
/// below is the in-memory store's method, not a durable effect.)
pub fn flush_home(cluster: &mut Cluster, store: &mut ExtentStore, src: End, dst: End, len: u64) {
    let _ = cluster.copy_range(src, dst, len);
    store.discard(0, len);
}
