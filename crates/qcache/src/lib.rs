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
//!   `(stage, key)` to a cached value, held in one table behind one
//!   mutex. The first accessor computes while concurrent peers wait on
//!   its slot; hit/miss/wait accounting is exact (a waiter is counted in
//!   the critical section that sees the key in flight). An optional byte
//!   cap evicts least-recently-used ready values, never one in flight.
//! * [`disk`] — [`DiskCache`], an optional persistent layer: entries are
//!   written to a temp file and atomically renamed into place, carry a
//!   schema fingerprint (stale entries from older compiler revisions
//!   self-invalidate), and a SHA-256 payload checksum (corrupted or
//!   truncated entries are detected and recomputed, never trusted).
//!
//! # What it does not do
//!
//! - **Check a hit against a recompute.** A hit is trusted: if a key
//!   leaves out an input its stage reads, the store serves a stale value
//!   and nothing here notices. Key completeness is the caller's to test.
//! - **Measure the heap.** The byte cap bounds the charges the caller's
//!   `size_of` models, not the bytes the allocator holds; an entry whose
//!   model undercounts lets the heap outgrow the cap.
//! - **Catch a wrong key on disk.** The persistent layer detects
//!   corruption, truncation and stale schemas. An entry written under the
//!   wrong key passes every check and is served.

pub mod disk;
pub mod hash;
pub mod store;

pub use disk::{DiskCache, DiskStats};
pub use hash::{digest, Digest, Sha256};
pub use store::{Lookup, StageStats, Store};
