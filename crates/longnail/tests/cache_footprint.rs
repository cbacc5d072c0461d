//! The byte cap of the in-memory stage store (`--cache-mem-bytes`) bounds
//! the heap only if each entry's charge tracks the heap the entry holds.
//! A counting allocator measures that heap: for every builtin ISAX, the
//! live bytes a cold 4-core compile leaves in the store, and the live
//! bytes a comment edit adds (a new frontend entry; every backend stage
//! replays), must each lie within 0.5–2× of the `tracked_bytes` they add.

use longnail::driver::eval_datasheets;
use longnail::{isax_lib, Longnail, PipelineCache};
use scaiev::datasheet::VirtualDatasheet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes and store charge, sampled together.
fn sample(pipe: &PipelineCache) -> (isize, u64) {
    (LIVE.load(Ordering::Relaxed), pipe.store().tracked_bytes())
}

/// Compiles `src` for every core through `pipe`, keeping nothing but what
/// the store keeps.
fn compile_all(
    ln: &Longnail,
    unit: &str,
    src: &str,
    cores: &[VirtualDatasheet],
    pipe: &PipelineCache,
) {
    for ds in cores {
        let compiled = ln
            .compile_cell(src, unit, ds, pipe)
            .expect("builtin ISAX compiles");
        assert!(!compiled.diagnostics.has_errors(), "{unit}@{}", ds.core);
    }
}

/// Heap added ÷ charge added between two samples.
fn ratio(from: (isize, u64), to: (isize, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1) as f64
}

#[test]
fn store_charge_tracks_the_heap_it_holds() {
    let ln = Longnail::new();
    let cores = eval_datasheets();
    let isaxes = isax_lib::all_isaxes();
    // First-use allocations (lazily built tables, thread-locals) happen
    // here, outside every measurement.
    let (_, unit, src) = &isaxes[0];
    compile_all(&ln, unit, src, &cores, &PipelineCache::new());

    let mut rows = Vec::with_capacity(isaxes.len());
    for (name, unit, src) in &isaxes {
        let edited = format!("{src}\n// footprint edit\n");
        let pipe = PipelineCache::new();
        let start = sample(&pipe);
        compile_all(&ln, unit, src, &cores, &pipe);
        let cold = sample(&pipe);
        compile_all(&ln, unit, &edited, &cores, &pipe);
        let edit = sample(&pipe);
        rows.push((name, ratio(start, cold), ratio(cold, edit)));
    }
    let table: Vec<String> = rows
        .iter()
        .map(|(name, cold, edit)| format!("{name}: cold {cold:.2}x, edit {edit:.2}x"))
        .collect();
    for (name, cold, edit) in &rows {
        assert!(
            (0.5..=2.0).contains(cold) && (0.5..=2.0).contains(edit),
            "{name}: live heap ÷ charge out of 0.5–2x\n{}",
            table.join("\n")
        );
    }
}
