//! Matrix-summary integration tests: the aggregated [`MatrixSummary`]
//! over real compile traces must respect the same determinism contract as
//! the traces themselves — the stripped projection (what lnc writes as
//! `matrix_summary.json`) is byte-identical for every worker count, while
//! the unstripped summary keeps the wall-clock and cache-attribution
//! detail for humans.

use longnail::driver::builtin_datasheet;
use longnail::{isax_lib, matrix_cells, Longnail, MatrixResult, PipelineCache};
use telemetry::aggregate::{summarize, MatrixSummary};
use telemetry::{metrics, Trace};

/// Same representative slice as `tests/matrix.rs`.
fn small_isaxes() -> Vec<(String, String, String)> {
    isax_lib::all_isaxes()
        .into_iter()
        .filter(|(name, _, _)| matches!(name.as_str(), "dotprod" | "zol" | "sqrt_tightly"))
        .collect()
}

fn compile_small(jobs: usize) -> MatrixResult {
    let ln = Longnail::new();
    let cores: Vec<_> = ["ORCA", "Piccolo"]
        .iter()
        .map(|c| builtin_datasheet(c).unwrap())
        .collect();
    ln.compile_cells(&matrix_cells(&small_isaxes(), &cores), jobs, &PipelineCache::new())
}

/// Mirrors how `lnc --matrix` builds the summary: per-cell traces named
/// `{isax}_{core}`, then the matrix-level totals folded in.
fn summarize_matrix(matrix: &MatrixResult) -> MatrixSummary {
    let cells: Vec<(String, &Trace)> = matrix
        .entries
        .iter()
        .filter_map(|e| {
            e.outcome
                .as_ref()
                .ok()
                .map(|c| (format!("{}_{}", e.isax, e.core), &c.trace))
        })
        .collect();
    let mut summary = summarize(&cells);
    summary.jobs = matrix.jobs as u64;
    summary.cache_hits = matrix.stage_cache("frontend").hits;
    summary.cache_misses = matrix.stage_cache("frontend").misses;
    summary.cell_faults = matrix.cell_faults;
    summary.errors_recovered = matrix.errors_recovered;
    summary.pool_wall_ns = matrix.pool_stats.wall_ns;
    summary
}

#[test]
fn stripped_summary_json_is_identical_across_worker_counts() {
    let serial = compile_small(1);
    let parallel = compile_small(4);
    let s1 = summarize_matrix(&serial);
    let s4 = summarize_matrix(&parallel);
    // Unstripped summaries legitimately differ (wall clock, pool layout),
    // but every deterministic total must already agree...
    assert_eq!(s1.cells, s4.cells);
    assert_eq!(s1.counters, s4.counters);
    assert_eq!(s1.cache_hits, s4.cache_hits);
    assert_eq!(s1.cache_misses, s4.cache_misses);
    // ...and the stripped projection — the matrix_summary.json artifact —
    // must be byte-identical.
    assert_eq!(s1.stripped().to_json(), s4.stripped().to_json());
}

#[test]
fn stripped_projection_drops_every_nondeterministic_field() {
    let matrix = compile_small(2);
    let summary = summarize_matrix(&matrix);
    // Sanity on the live summary first: it found real timing data.
    assert_eq!(summary.cells, 6);
    assert!(summary.critical_path_ns > 0);
    assert!(!summary.critical_path_cell.is_empty());
    let stripped = summary.stripped();
    assert_eq!(stripped.cells, summary.cells, "structure survives");
    assert_eq!(stripped.counters, summary.counters, "work counters survive");
    assert_eq!(stripped.jobs, 0);
    assert_eq!(stripped.critical_path_ns, 0);
    assert!(stripped.critical_path_cell.is_empty());
    assert_eq!(stripped.cache_waits, 0);
    assert!(stripped.pool.is_empty());
    assert_eq!(stripped.pool_wall_ns, 0);
    for stage in &stripped.stages {
        assert_eq!(stage.durs.count, summary.stage(&stage.name).unwrap().durs.count);
        assert_eq!(stage.durs.max_ns, 0, "{} keeps wall clock", stage.name);
    }
    let json = stripped.to_json();
    assert!(!json.contains("pool"), "no pool section in the artifact");
}

#[test]
fn cache_attribution_lives_in_cells_but_not_in_stripped_traces() {
    let matrix = compile_small(1);
    let mut hits = 0u64;
    let mut misses = 0u64;
    for e in &matrix.entries {
        let trace = &e.outcome.as_ref().unwrap().trace;
        hits += trace.counter_total(metrics::CACHE_FRONTEND_HIT);
        misses += trace.counter_total(metrics::CACHE_FRONTEND_MISS);
        // The per-cell attribution is scheduling-dependent under jobs > 1,
        // so the stripped trace must not carry any cache.* counters.
        let stripped = trace.stripped();
        assert_eq!(stripped.counter_total(metrics::CACHE_FRONTEND_HIT), 0);
        assert_eq!(stripped.counter_total(metrics::CACHE_FRONTEND_MISS), 0);
        assert_eq!(stripped.counter_total(metrics::CACHE_FRONTEND_WAIT), 0);
    }
    // Serially the attribution is exact and matches the matrix totals:
    // one miss per ISAX source, a hit for every reuse.
    assert_eq!(misses, matrix.stage_cache("frontend").misses);
    assert_eq!(hits, matrix.stage_cache("frontend").hits);
    assert_eq!(misses, 3);
    assert_eq!(hits, 3);
}
