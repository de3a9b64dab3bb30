//! Sharded metadata plane: deterministic routing and per-shard state.
//!
//! The middleware's metadata — the DMT interval map, the candidate table,
//! and cache-space accounting — is partitioned into `shard_count`
//! deterministic shards (a [`crate::S4dConfig::shard_count`] knob, default
//! 1). [`ShardRouter`] is the pure function deciding ownership; it splits
//! stripes of a file's byte range across shards so a hot file's metadata
//! traffic spreads instead of serialising on one partition.
//! [`MetadataPlane`] holds the shards and routes every operation: point
//! lookups go straight to the owner, range operations are split into
//! shard-local segments and rejoined in offset order, aggregates sum over
//! shards.
//!
//! The default single-shard configuration is byte- and replay-identical to
//! the pre-shard middleware: one shard owns everything, every range is one
//! segment, and the group-commit journal degenerates to the original
//! batching rule.

mod plane;
mod router;

pub use plane::MetadataPlane;
pub use router::{Segments, ShardId, ShardRouter, ShardSegment};
