//! Umbrella crate for the Longnail reproduction workspace.
//!
//! This package exists to host the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`; the actual
//! functionality lives in the `crates/` members (see `DESIGN.md`).
//!
//! The crate itself carries one cross-crate smoke test: a slice of the
//! evaluation matrix compiled serially and through the worker pool, with
//! the deterministic outputs compared byte for byte. It is the cheapest
//! end-to-end check that the pipeline, the stage store, and the pool
//! still agree.

use longnail::driver::eval_datasheets;
use longnail::{isax_lib, matrix_cells, Longnail, MatrixResult, PipelineCache};

/// Compiles `isax_names` (Table 3 names) for every evaluation core with
/// `jobs` workers, sharing one stage store across all cells.
///
/// # Panics
///
/// Panics on an unknown ISAX name (tests want loud failures).
pub fn compile_matrix_slice(isax_names: &[&str], jobs: usize) -> MatrixResult {
    let isaxes: Vec<(String, String, String)> = isax_names
        .iter()
        .map(|name| {
            let (unit, src) = isax_lib::isax_source(name).expect("known Table 3 ISAX");
            (name.to_string(), unit, src)
        })
        .collect();
    let cells = matrix_cells(&isaxes, &eval_datasheets());
    Longnail::new().compile_cells(&cells, jobs, &PipelineCache::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_smoke_serial_and_parallel_agree() {
        let serial = compile_matrix_slice(&["autoinc", "sbox"], 1);
        let parallel = compile_matrix_slice(&["autoinc", "sbox"], 4);
        assert_eq!(serial.entries.len(), 8); // 2 ISAXes × 4 cores
        assert_eq!(serial.stage_cache("frontend").misses, 2);
        assert_eq!(serial.stage_cache("frontend").hits, 6);
        assert_eq!(parallel.stage_cache("frontend").misses, serial.stage_cache("frontend").misses);
        assert_eq!(parallel.stage_cache("frontend").hits, serial.stage_cache("frontend").hits);
        for (a, b) in serial.entries.iter().zip(&parallel.entries) {
            assert_eq!((a.isax.as_str(), a.core.as_str()), (b.isax.as_str(), b.core.as_str()));
            let (ca, cb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert_eq!(
                ca.trace.stripped().to_jsonl(),
                cb.trace.stripped().to_jsonl(),
                "{}×{}",
                a.isax,
                a.core
            );
            let sv_a: Vec<&str> = ca.graphs.iter().map(|g| g.verilog.as_str()).collect();
            let sv_b: Vec<&str> = cb.graphs.iter().map(|g| g.verilog.as_str()).collect();
            assert_eq!(sv_a, sv_b, "{}×{}", a.isax, a.core);
            assert_eq!(ca.config.to_yaml(), cb.config.to_yaml());
        }
    }
}
