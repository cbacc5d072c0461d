//! Parallel compile-matrix integration tests: the shared stage store
//! must not change any observable output, and the worker count must not
//! change anything at all — Verilog, YAML configs, diagnostics, and
//! stripped traces are byte-identical for every `jobs` value. At -O2 every
//! unit of the full matrix keeps its registers reading backward and
//! matches its -O0 netlist from reset.

use longnail::driver::{builtin_datasheet, eval_datasheets};
use longnail::{isax_lib, matrix_cells, Longnail, OptLevel, PipelineCache};
use rtl::opt::verify_equivalent;
use rtl::verilog::EmitOptions;
use rtl::Driver;
use telemetry::metrics;

/// A small but representative slice of the Table 3 matrix: a plain
/// instruction, an always-block ISAX with custom registers, and the
/// long-schedule sqrt.
fn small_isaxes() -> Vec<(String, String, String)> {
    isax_lib::all_isaxes()
        .into_iter()
        .filter(|(name, _, _)| matches!(name.as_str(), "dotprod" | "zol" | "sqrt_tightly"))
        .collect()
}

#[test]
fn cached_compile_matches_uncached_compile() {
    // `compile` runs each cell on a fresh store; `compile_cells` shares one
    // store, so three of the four cores replay the frontend.
    let ln = Longnail::new();
    let (unit, src) = isax_lib::isax_source("dotprod").unwrap();
    let cores = eval_datasheets();
    let isaxes = [("dotprod".to_string(), unit.clone(), src.clone())];
    let pipe = PipelineCache::new();
    let shared = ln.compile_cells(&matrix_cells(&isaxes, &cores), 1, &pipe);
    for (ds, entry) in cores.iter().zip(&shared.entries) {
        let cold = ln.compile(&src, &unit, ds).unwrap();
        let warm = entry.outcome.as_ref().unwrap();
        assert_eq!(
            cold.trace.stripped(),
            warm.trace.stripped(),
            "trace diverges on {}",
            ds.core
        );
        let cold_sv: Vec<&str> = cold.graphs.iter().map(|g| g.verilog.as_str()).collect();
        let warm_sv: Vec<&str> = warm.graphs.iter().map(|g| g.verilog.as_str()).collect();
        assert_eq!(cold_sv, warm_sv);
        assert_eq!(cold.config.to_yaml(), warm.config.to_yaml());
        assert_eq!(cold.diagnostics.events, warm.diagnostics.events);
    }
    // One source, four cores: one miss, three hits.
    assert_eq!(shared.stage_cache("frontend").misses, 1);
    assert_eq!(shared.stage_cache("frontend").hits, 3);
    assert_eq!(pipe.store().len("frontend"), 1);
}

#[test]
fn matrix_is_deterministic_across_worker_counts() {
    let ln = Longnail::new();
    let isaxes = small_isaxes();
    let cores: Vec<_> = ["ORCA", "Piccolo"]
        .iter()
        .map(|c| builtin_datasheet(c).unwrap())
        .collect();
    let cells = matrix_cells(&isaxes, &cores);
    let serial = ln.compile_cells(&cells, 1, &PipelineCache::new());
    let parallel = ln.compile_cells(&cells, 4, &PipelineCache::new());
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 4);
    assert_eq!(serial.entries.len(), isaxes.len() * cores.len());
    assert_eq!(parallel.entries.len(), serial.entries.len());
    // Cache totals are deterministic: one miss per ISAX, the rest hits.
    for m in [&serial, &parallel] {
        assert_eq!(m.stage_cache("frontend").misses, isaxes.len() as u64);
        assert_eq!(
            m.stage_cache("frontend").hits,
            (isaxes.len() * (cores.len() - 1)) as u64,
            "jobs = {}",
            m.jobs
        );
    }
    for (a, b) in serial.entries.iter().zip(&parallel.entries) {
        // Same cell in the same position.
        assert_eq!((a.isax.as_str(), a.core.as_str()), (b.isax.as_str(), b.core.as_str()));
        let (ca, cb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(
            ca.trace.stripped().to_jsonl(),
            cb.trace.stripped().to_jsonl(),
            "stripped trace diverges for {}×{}",
            a.isax,
            a.core
        );
        for (ga, gb) in ca.graphs.iter().zip(&cb.graphs) {
            assert_eq!(ga.verilog, gb.verilog, "{}×{}/{}", a.isax, a.core, ga.name);
        }
        assert_eq!(ca.config.to_yaml(), cb.config.to_yaml());
        assert_eq!(ca.diagnostics.events, cb.diagnostics.events);
    }
}

#[test]
fn frontend_failures_are_cached_and_reported_per_cell() {
    let ln = Longnail::new();
    let isaxes = vec![(
        "broken".to_string(),
        "broken".to_string(),
        "InstructionSet broken { this is not CoreDSL }".to_string(),
    )];
    let cores = eval_datasheets();
    let matrix = ln.compile_cells(&matrix_cells(&isaxes, &cores), 2, &PipelineCache::new());
    assert_eq!(matrix.entries.len(), cores.len());
    for e in &matrix.entries {
        let err = e.outcome.as_ref().unwrap_err();
        assert_eq!(err.stage, "frontend", "{}×{}", e.isax, e.core);
    }
    // The frontend ran once; every other cell reused the cached failure.
    assert_eq!(matrix.stage_cache("frontend").misses, 1);
    assert_eq!(matrix.stage_cache("frontend").hits, cores.len() as u64 - 1);
    assert_eq!(matrix.compiled().count(), 0);
}

#[test]
fn matrix_lookup_finds_cells_by_name() {
    let ln = Longnail::new();
    let isaxes = small_isaxes();
    let cores: Vec<_> = ["PicoRV32"]
        .iter()
        .map(|c| builtin_datasheet(c).unwrap())
        .collect();
    let matrix = ln.compile_cells(&matrix_cells(&isaxes, &cores), 2, &PipelineCache::new());
    let cell = matrix.entry("zol", "PicoRV32").expect("cell exists");
    let compiled = cell.outcome.as_ref().unwrap();
    assert_eq!(compiled.core, "PicoRV32");
    assert!(matrix.entry("zol", "ORCA").is_none());
}

/// -O2 over the full matrix: no optimized unit has a register that reads
/// forward, so `narrow` evaluates each unit in one sweep, and every unit
/// matches its -O0 netlist from reset for 64 cycles without an opt
/// fallback.
#[test]
fn o2_matrix_registers_read_backward_and_match_o0_from_reset() {
    let cells = matrix_cells(&isax_lib::all_isaxes(), &eval_datasheets());
    let o0 = Longnail::new().compile_cells(&cells, 2, &PipelineCache::new());
    let o2 = Longnail::new()
        .with_opt_level(OptLevel::O2)
        .compile_cells(&cells, 2, &PipelineCache::new());
    let mut units = 0;
    for ((entry, plain), (_, opt)) in o0.compiled().zip(o2.compiled()) {
        let cell = format!("{}×{}", entry.isax, entry.core);
        assert_eq!(opt.trace.counter_total(metrics::OPT_FALLBACK), 0, "{cell}");
        assert_eq!(plain.graphs.len(), opt.graphs.len(), "{cell}");
        for (g0, g2) in plain.graphs.iter().zip(&opt.graphs) {
            let unit = format!("{cell} {}", g2.name);
            for (i, net) in g2.built.module.nets.iter().enumerate() {
                if let Driver::Reg { next, enable, .. } = &net.driver {
                    assert!(
                        next.0 < i && enable.is_none_or(|e| e.0 < i),
                        "{unit}: register {i} reads forward"
                    );
                }
            }
            verify_equivalent(&g0.built.module, &g2.built.module, &EmitOptions, 64)
                .unwrap_or_else(|e| panic!("{unit}: {e}"));
            units += 1;
        }
    }
    assert_eq!(units, 72);
}
