//! In-memory, exactly-once stage store.
//!
//! Any stage can park a cloneable artifact under a `(stage, key)` pair.
//! The first thread to ask for a key computes it; concurrent threads
//! asking for the same key wait until the value is ready (exactly-once
//! semantics — important because a stage compute can cost milliseconds of
//! ILP solving and must not be duplicated across an 8×4 matrix fan-out).
//!
//! Everything lives in one table behind one mutex: each `(stage, key)`
//! maps to either a ready entry (the value, its byte charge and its last
//! use) or the slot of the thread computing it, next to the per-stage
//! counters, the byte total and the recency clock. A hit locks the table
//! once. A miss inserts an in-flight slot, computes outside the lock and
//! charges the value's size once. Because one map holds both kinds of
//! entry, an eviction sees which keys are in flight and never drops one.
//!
//! Wait accounting is exact: a waiter counts itself in the same critical
//! section in which it sees the key in flight, then parks on the slot's
//! condvar. A waiter receives the computed value through the slot, so an
//! eviction between the publish and its wake-up cannot take the value
//! away from it.
//!
//! If a compute panics, its entry is removed and its waiters are woken;
//! one of them takes the compute over. A poisoned table lock is recovered
//! with `PoisonError::into_inner`: no code that can panic runs between
//! two table updates that must happen together, so the table is
//! consistent whenever the lock is free.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::hash::Digest;

/// Outcome of a single [`Store::get_or_compute`] lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lookup {
    /// The value was already present (or became present while we waited).
    pub hit: bool,
    /// We blocked on another thread computing the same key.
    pub waited: bool,
    /// Nanoseconds spent blocked on the slot.
    pub wait_ns: u64,
}

/// Per-stage counters, snapshotted by [`Store::stage_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    pub hits: u64,
    pub misses: u64,
    pub waits: u64,
    /// Ready values dropped by the byte-accounted LRU (capacity mode).
    pub evictions: u64,
}

/// A stored value, type-erased so one store serves every stage.
type Value = Arc<dyn Any + Send + Sync>;

type Key = (&'static str, Digest);

/// The rendezvous of one in-flight compute. Its condvar pairs with the
/// table's mutex; `value` is set once, when the compute publishes.
#[derive(Default)]
struct Slot {
    cv: Condvar,
    value: OnceLock<Value>,
}

enum Entry {
    /// A computed value, its byte charge and the clock of its last use.
    Ready {
        value: Value,
        bytes: u64,
        last_use: u64,
    },
    /// The key is being computed; waiters park on the slot.
    InFlight(Arc<Slot>),
}

#[derive(Default)]
struct Table {
    entries: HashMap<Key, Entry>,
    stats: BTreeMap<&'static str, StageStats>,
    /// Byte cap; `None` means unbounded (the default).
    cap: Option<u64>,
    /// Bytes charged by ready entries.
    total: u64,
    /// Monotone recency clock; bumped on every use of a ready entry.
    clock: u64,
}

impl Table {
    fn stats(&mut self, stage: &'static str) -> &mut StageStats {
        self.stats.entry(stage).or_default()
    }

    fn in_flight(&self, key: &Key, slot: &Arc<Slot>) -> bool {
        matches!(self.entries.get(key), Some(Entry::InFlight(s)) if Arc::ptr_eq(s, slot))
    }

    /// Drops least-recently-used ready entries until the total fits the
    /// cap. `keep` (the entry just inserted) is never evicted, so a single
    /// over-cap value still round-trips to its caller; in-flight and
    /// zero-charge entries are never evicted either.
    fn evict_over_cap(&mut self, keep: Option<&Key>) {
        let Some(cap) = self.cap else { return };
        while self.total > cap {
            let victim = self
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready {
                        bytes, last_use, ..
                    } if *bytes > 0 && Some(k) != keep => Some((*last_use, *k)),
                    _ => None,
                })
                .min_by_key(|(last_use, _)| *last_use);
            let Some((_, victim)) = victim else { break };
            if let Some(Entry::Ready { bytes, .. }) = self.entries.remove(&victim) {
                self.total -= bytes;
            }
            self.stats(victim.0).evictions += 1;
        }
    }
}

/// Removes an in-flight entry and wakes its waiters if the compute
/// unwinds, so one of them takes the compute over instead of waiting
/// forever.
struct Abandon<'a> {
    store: &'a Store,
    key: Key,
    slot: Arc<Slot>,
    armed: bool,
}

impl Drop for Abandon<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.store.table().entries.remove(&self.key);
            self.slot.cv.notify_all();
        }
    }
}

/// Content-keyed, exactly-once, stage-partitioned value store.
#[derive(Default)]
pub struct Store {
    table: Mutex<Table>,
}

impl Store {
    pub fn new() -> Self {
        Store::default()
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// (Re)sets the byte cap. `None` disables eviction. Lowering the cap
    /// evicts immediately.
    pub fn set_capacity(&self, cap_bytes: Option<u64>) {
        let mut table = self.table();
        table.cap = cap_bytes;
        table.evict_over_cap(None);
    }

    /// Bytes charged by the entries the store holds.
    pub fn tracked_bytes(&self) -> u64 {
        self.table().total
    }

    /// Fetch the value under `(stage, key)`, computing it with `compute`
    /// if absent. Exactly one thread computes per key; the rest wait. A
    /// computed value is charged `size_of(&value)` bytes against the cap,
    /// once, and the least-recently-used entries are evicted (a later
    /// lookup recomputes them) until the total fits.
    ///
    /// The stored value type `T` must match across all accesses of a key
    /// (a mismatch is a caller bug and panics on downcast).
    pub fn get_or_compute<T, F, S>(
        &self,
        stage: &'static str,
        key: Digest,
        compute: F,
        size_of: S,
    ) -> (T, Lookup)
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
        S: FnOnce(&T) -> u64,
    {
        let key = (stage, key);
        let mut lookup = Lookup::default();
        let mut table = self.table();
        let slot = loop {
            let t = &mut *table;
            let value = match t.entries.get_mut(&key) {
                Some(Entry::Ready {
                    value, last_use, ..
                }) => {
                    t.clock += 1;
                    *last_use = t.clock;
                    downcast::<T>(value)
                }
                Some(Entry::InFlight(slot)) => {
                    let slot = Arc::clone(slot);
                    // Counted in the critical section that saw the key in
                    // flight: no probe race.
                    if !lookup.waited {
                        lookup.waited = true;
                        t.stats(stage).waits += 1;
                    }
                    let t0 = Instant::now();
                    table = slot
                        .cv
                        .wait_while(table, |t| {
                            slot.value.get().is_none() && t.in_flight(&key, &slot)
                        })
                        .unwrap_or_else(PoisonError::into_inner);
                    lookup.wait_ns += t0.elapsed().as_nanos() as u64;
                    // Unset if the compute panicked: look the key up again.
                    let Some(value) = slot.value.get() else {
                        continue;
                    };
                    downcast::<T>(value)
                }
                None => {
                    let slot = Arc::new(Slot::default());
                    t.entries.insert(key, Entry::InFlight(Arc::clone(&slot)));
                    t.stats(stage).misses += 1;
                    break slot;
                }
            };
            table.stats(stage).hits += 1;
            lookup.hit = true;
            return (value, lookup);
        };
        drop(table);
        let mut guard = Abandon {
            store: self,
            key,
            slot,
            armed: true,
        };
        let value = compute();
        let bytes = size_of(&value);
        let stored: Value = Arc::new(value.clone());
        let _ = guard.slot.value.set(Arc::clone(&stored));
        let mut table = self.table();
        table.clock += 1;
        let last_use = table.clock;
        table.entries.insert(
            key,
            Entry::Ready {
                value: stored,
                bytes,
                last_use,
            },
        );
        table.total += bytes;
        table.evict_over_cap(Some(&key));
        // Waiters clone the slot under this lock and hold the clone while
        // parked, and the ready entry has just dropped the table's clone:
        // another reference means someone may be parked. A wake nobody
        // waits for still costs a futex syscall.
        let parked = Arc::strong_count(&guard.slot) > 1;
        drop(table);
        guard.armed = false;
        if parked {
            guard.slot.cv.notify_all();
        }
        (value, lookup)
    }

    /// Poisons the table's mutex (chaos hook): a thread panics while
    /// holding it, as a worker that crashed inside the store would. Later
    /// accessors recover the lock via `PoisonError::into_inner` and
    /// proceed — every entry stays usable.
    pub fn poison(&self) {
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _table = self.table();
                    panic!("qcache: injected store poisoning");
                })
                .join();
        });
    }

    /// Number of keys the store holds for `stage`, ready or in flight.
    pub fn len(&self, stage: &str) -> usize {
        self.table()
            .entries
            .keys()
            .filter(|(s, _)| *s == stage)
            .count()
    }

    /// Snapshot the counters for one stage.
    pub fn stage_stats(&self, stage: &str) -> StageStats {
        self.table().stats.get(stage).copied().unwrap_or_default()
    }

    /// Snapshot all stages, sorted by stage name.
    pub fn all_stats(&self) -> Vec<(&'static str, StageStats)> {
        self.table().stats.iter().map(|(s, c)| (*s, *c)).collect()
    }
}

fn downcast<T: Clone + 'static>(value: &Value) -> T {
    value
        .downcast_ref::<T>()
        .expect("qcache: stage value type mismatch")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::digest;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn miss_then_hit_returns_same_value() {
        let store = Store::new();
        let key = digest(b"k");
        let (v, l) = store.get_or_compute("solve", key, || 41u64 + 1, |_| 0);
        assert_eq!(v, 42);
        assert!(!l.hit && !l.waited);
        let (v, l) =
            store.get_or_compute::<u64, _, _>("solve", key, || unreachable!("must hit"), |_| 0);
        assert_eq!(v, 42u64);
        assert!(l.hit && !l.waited);
        let s = store.stage_stats("solve");
        assert_eq!((s.hits, s.misses, s.waits), (1, 1, 0));
        assert_eq!(store.len("solve"), 1);
        assert_eq!(store.len("rtl"), 0);
    }

    #[test]
    fn stages_partition_the_key_space() {
        let store = Store::new();
        let key = digest(b"same-key");
        let (a, _) = store.get_or_compute("problem", key, || 1u32, |_| 0);
        let (b, _) = store.get_or_compute("rtl", key, || 2u32, |_| 0);
        assert_eq!((a, b), (1, 2));
        assert_eq!(store.stage_stats("problem").misses, 1);
        assert_eq!(store.stage_stats("rtl").misses, 1);
    }

    /// Satellite-6 regression: N threads race one key; exactly one
    /// computes, the other N-1 are each counted as a wait. The compute
    /// closure spins until the wait counter shows every peer parked, so
    /// the assertion is deterministic — under the old try_lock probe a
    /// late-arriving waiter could slip through uncounted.
    #[test]
    fn contended_waits_are_counted_exactly() {
        const N: usize = 8;
        let store = Arc::new(Store::new());
        let key = digest(b"contended");
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let store = Arc::clone(&store);
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    store.get_or_compute(
                        "frontend",
                        key,
                        || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Hold the slot until every peer is provably
                            // parked in the wait counter.
                            while store.stage_stats("frontend").waits < (N - 1) as u64 {
                                std::thread::yield_now();
                            }
                            7u8
                        },
                        |_| 0,
                    )
                })
            })
            .collect();
        let results: Vec<(u8, Lookup)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|(v, _)| *v == 7));
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly-once compute");
        let s = store.stage_stats("frontend");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, (N - 1) as u64);
        assert_eq!(s.waits, (N - 1) as u64, "every contended thread counted");
        let waited = results.iter().filter(|(_, l)| l.waited).count();
        assert_eq!(waited, N - 1);
        assert!(results
            .iter()
            .filter(|(_, l)| l.waited)
            .all(|(_, l)| l.wait_ns > 0));
    }

    #[test]
    fn panicking_compute_vacates_the_slot() {
        let store = Store::new();
        let key = digest(b"boom");
        let r = catch_unwind(AssertUnwindSafe(|| {
            store.get_or_compute::<u32, _, _>("rtl", key, || panic!("compute failed"), |_| 0);
        }));
        assert!(r.is_err());
        // Slot is vacant again: the next accessor recomputes.
        let (v, l) = store.get_or_compute("rtl", key, || 9u32, |_| 0);
        assert_eq!(v, 9);
        assert!(!l.hit);
        assert_eq!(store.stage_stats("rtl").misses, 2);
    }

    /// A thread parked on a compute that panics is woken and takes the
    /// compute over. The panicking compute waits until the peer is
    /// counted as a wait, which it is in the critical section in which it
    /// parks.
    #[test]
    fn a_waiter_takes_over_a_panicked_compute() {
        let store = Store::new();
        let key = digest(b"handover");
        let started = Barrier::new(2);
        let (v, l) = std::thread::scope(|s| {
            let failed = s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    store.get_or_compute::<u32, _, _>(
                        "rtl",
                        key,
                        || {
                            started.wait();
                            while store.stage_stats("rtl").waits < 1 {
                                std::thread::yield_now();
                            }
                            panic!("injected compute failure")
                        },
                        |_| 0,
                    )
                }))
            });
            started.wait();
            let taken = store.get_or_compute("rtl", key, || 7u32, |_| 0);
            assert!(failed.join().unwrap().is_err());
            taken
        });
        assert_eq!(v, 7);
        assert!(l.waited && !l.hit, "{l:?}");
        let s = store.stage_stats("rtl");
        assert_eq!((s.hits, s.misses, s.waits), (0, 2, 1));
    }

    #[test]
    fn poisoned_slot_stays_usable() {
        let store = Store::new();
        let key = digest(b"poison");
        store.poison();
        let (v, _) = store.get_or_compute("frontend", key, || 3u16, |_| 0);
        assert_eq!(v, 3);
        let (v, l) = store.get_or_compute::<u16, _, _>("frontend", key, || unreachable!(), |_| 0);
        assert_eq!(v, 3u16);
        assert!(l.hit);
    }

    /// Satellite regression: a capped store fed more bytes than the cap
    /// stays under it, still serves every value correctly (evicted keys
    /// recompute), and counts each eviction.
    #[test]
    fn capped_store_stays_under_the_cap() {
        let store = Store::new();
        store.set_capacity(Some(4 * 64));
        // 10 entries of 64 bytes against a 4-entry budget.
        for round in 0..2 {
            for i in 0..10u64 {
                let (v, _) = store.get_or_compute(
                    "rtl",
                    digest(&i.to_le_bytes()),
                    || vec![i; 8],
                    |v| (v.len() * 8) as u64,
                );
                assert_eq!(v, vec![i; 8], "round {round}");
                assert!(
                    store.tracked_bytes() <= 4 * 64,
                    "round {round} key {i}: {} bytes tracked",
                    store.tracked_bytes()
                );
            }
        }
        let s = store.stage_stats("rtl");
        assert!(
            s.evictions >= 12,
            "two over-filled rounds must evict: {s:?}"
        );
        assert_eq!(s.hits + s.misses, 20);
        assert!(s.misses > 10, "evicted keys recompute");
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let store = Store::new();
        store.set_capacity(Some(2 * 8));
        let hot = digest(b"hot");
        store.get_or_compute("solve", hot, || 1u64, |_| 8);
        store.get_or_compute("solve", digest(b"b"), || 2u64, |_| 8);
        // Touch `hot` so `b` is the LRU victim of the next insert.
        let (_, l) = store.get_or_compute("solve", hot, || unreachable!(), |_: &u64| 8);
        assert!(l.hit);
        store.get_or_compute("solve", digest(b"c"), || 3u64, |_| 8);
        let (v, l) = store.get_or_compute("solve", hot, || 0u64, |_| 8);
        assert!(l.hit, "hot entry must survive");
        assert_eq!(v, 1);
        let (_, l) = store.get_or_compute("solve", digest(b"b"), || 2u64, |_| 8);
        assert!(!l.hit, "cold entry was evicted");
        assert_eq!(store.stage_stats("solve").evictions, 2);
    }

    #[test]
    fn uncapped_sized_entries_never_evict() {
        let store = Store::new();
        for i in 0..100u64 {
            store.get_or_compute("modes", digest(&i.to_le_bytes()), || i, |_| 1 << 20);
        }
        assert_eq!(store.stage_stats("modes").evictions, 0);
        assert_eq!(store.tracked_bytes(), 100 << 20);
        // Capping after the fact evicts immediately.
        store.set_capacity(Some(10 << 20));
        assert!(store.tracked_bytes() <= 10 << 20);
        assert_eq!(store.stage_stats("modes").evictions, 90);
    }

    #[test]
    fn all_stats_sorted_by_stage() {
        let store = Store::new();
        let key = digest(b"x");
        store.get_or_compute("verilog", key, || 0u8, |_| 0);
        store.get_or_compute("frontend", key, || 0u8, |_| 0);
        let names: Vec<_> = store.all_stats().iter().map(|(s, _)| *s).collect();
        assert_eq!(names, vec!["frontend", "verilog"]);
    }

    /// A value is charged when it is computed, not again on every hit.
    #[test]
    fn a_value_is_charged_once() {
        let store = Store::new();
        let key = digest(b"once");
        let sized = AtomicUsize::new(0);
        for _ in 0..3 {
            store.get_or_compute(
                "config",
                key,
                || 5u64,
                |_| {
                    sized.fetch_add(1, Ordering::SeqCst);
                    8
                },
            );
        }
        assert_eq!(sized.load(Ordering::SeqCst), 1, "size_of runs once");
        assert_eq!(store.tracked_bytes(), 8);
    }

    /// Four threads hammer six keys through a three-entry cap, so entries
    /// are evicted while other threads hit, wait on and recompute them.
    /// No key may ever be inside two computes at once (an eviction must
    /// not drop an in-flight key), and the byte total must end equal to
    /// the charges of the entries the store still holds.
    #[test]
    fn capped_store_never_computes_a_key_twice_at_once() {
        const THREADS: u64 = 4;
        const LOOKUPS: u64 = 20_000;
        const KEYS: usize = 6;
        let store = Store::new();
        store.set_capacity(Some(3 * 8));
        let keys: Vec<Digest> = (0..KEYS).map(|k| digest(&k.to_le_bytes())).collect();
        let computing: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
        let overlaps = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (store, keys, computing, overlaps) = (&store, &keys, &computing, &overlaps);
                s.spawn(move || {
                    // xorshift64, seeded per thread.
                    let mut x = 0x9e37_79b9_7f4a_7c15 ^ (t + 1);
                    for _ in 0..LOOKUPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = (x % KEYS as u64) as usize;
                        let (v, _) = store.get_or_compute(
                            "s",
                            keys[k],
                            || {
                                if computing[k].fetch_add(1, Ordering::SeqCst) > 0 {
                                    overlaps.fetch_add(1, Ordering::SeqCst);
                                }
                                std::thread::yield_now();
                                computing[k].fetch_sub(1, Ordering::SeqCst);
                                k
                            },
                            |_| 8,
                        );
                        assert_eq!(v, k);
                    }
                });
            }
        });
        assert_eq!(
            overlaps.load(Ordering::SeqCst),
            0,
            "a key computed twice at once"
        );
        assert_eq!(store.tracked_bytes(), 8 * store.len("s") as u64);
    }
}
