//! Stage-generic query caching for the Longnail pipeline.
//!
//! The driver treats each pipeline stage as a *query*: a pure function
//! from a content-addressed key to a serialized (or cloneable) artifact.
//! This crate provides the three pieces that make those queries cacheable:
//!
//! * [`hash`] — a dependency-free SHA-256 ([`Digest`]) used for every
//!   cache key. A key hashes exactly the inputs its stage consumes (the
//!   driver keys every per-unit stage on one digest of the unit's graph
//!   and configuration), so editing an input invalidates exactly the
//!   values computed from it. [`Sha256`] is also a [`std::hash::Hasher`], so a
//!   `#[derive(Hash)]` value can be digested whole — for in-memory keys
//!   only, since std `Hash` streams are stable only within one build.
//! * [`store`] — [`Store`], an in-memory, exactly-once map from
//!   `(stage, key)` to a cached value. The first accessor computes while
//!   concurrent peers block on a condvar; hit/miss/wait accounting is
//!   exact (the waiter increments the counter *under the slot lock*, so
//!   contended waits cannot be undercounted the way a `try_lock` probe
//!   can race).
//! * [`disk`] — [`DiskCache`], an optional persistent layer: entries are
//!   written to a temp file and atomically renamed into place, carry a
//!   schema fingerprint (stale entries from older compiler revisions
//!   self-invalidate), and a SHA-256 payload checksum (corrupted or
//!   truncated entries are detected and recomputed, never trusted).

pub mod disk;
pub mod hash;
pub mod store;

pub use disk::{DiskCache, DiskStats};
pub use hash::{digest, Digest, Sha256};
pub use store::{Lookup, StageStats, Store};
