//! `lnc` — the Longnail command-line compiler.
//!
//! ```text
//! usage: lnc <file.core_desc> --core <ORCA|Piccolo|PicoRV32|VexRiscv>
//!            [--unit <InstructionSet>] [--out <dir>]
//!            [--emit hir|lil|sv|config|datasheet] [--budget <units>]
//!            [--opt-level <0|2>]
//!            [--trace] [--metrics-out <path>] [--profile-folded <path>]
//!            [--report] [--xcheck]
//!        lnc --matrix [--jobs <N>] [--out <dir>] [--budget <units>] [--xcheck]
//!            [--opt-level <0|2>] [--keep-going] [--fault-plan <path>]
//!            [--summary] [--verbose]
//!            [--trace] [--metrics-out <path>] [--profile-folded <path>]
//!            [--cache-dir <dir>] [--cache-mem-bytes <N>]
//!        lnc serve [--jobs <N>] [--budget <units>] [--fault-plan <path>]
//!            [--opt-level <0|2>] [--cache-dir <dir>] [--cache-mem-bytes <N>]
//!
//! Compiles the CoreDSL description for the selected host core. Without
//! --emit, writes one SystemVerilog file per instruction/always-block plus
//! the SCAIE-V configuration YAML into --out (default: the current
//! directory) and prints a summary. With --emit, prints the requested
//! representation to stdout instead.
//!
//! --matrix compiles the full evaluation matrix (the eight Table 3 ISAXes
//! for all four evaluation cores) through a shared frontend cache, fanning
//! the 32 cells out across --jobs worker threads (default 1). Artifacts
//! land in --out/<isax>_<core>/: the SystemVerilog per unit, the SCAIE-V
//! YAML, and the stripped (timing-free) telemetry trace as JSONL. Output
//! is byte-identical for every --jobs value.
//!
//! --xcheck runs the differential X-propagation oracle after compiling:
//! every generated netlist is re-executed under the four-state IEEE-1800
//! semantics of the one SystemVerilog dialect the emitter writes
//! (`rtl::xsim`) against the two-valued interpreter. Any mismatch or X bit
//! escaping to an output from fully-known stimulus is an internal fault
//! (exit 2). In --matrix mode the per-cell checks are fanned across
//! --jobs workers and each cell's xcheck telemetry lands in
//! --out/<isax>_<core>/xcheck.jsonl.
//!
//! --budget bounds the deterministic solver work per instruction; when the
//! exact scheduler exhausts it, the instruction degrades to the verified
//! ASAP fallback and a warning is reported.
//!
//! --opt-level {0,2} selects the netlist optimization effort (default 0:
//! no opt stage, byte-identical to the pre-optimizer flow). Level 2 runs
//! the oracle-gated rewrite pipeline (`rtl::opt`) on every generated
//! netlist between RTL construction and SystemVerilog emission;
//! an optimized netlist is only kept when it lints clean and a 32-cycle
//! lockstep differential simulation against the unoptimized module shows
//! zero disagreements — otherwise the unit falls back to the unoptimized
//! netlist with a warning. In serve mode, --opt-level sets the daemon
//! default and each job may override it with an `"opt_level"` field. The
//! level is part of the cache key and the persistent schema fingerprint,
//! so artifact bundles never cross optimization levels.
//!
//! --cache-mem-bytes <N> (matrix and serve) caps the shared in-memory
//! stage cache at ~N bytes; least-recently-used stage artifacts are
//! evicted (and recomputed on demand) once the estimate exceeds the cap.
//!
//! Observability: --trace prints the hierarchical stage-span tree with
//! wall-clock timings to stderr (in --matrix mode, the merged matrix
//! tree); --metrics-out writes the full telemetry event stream (spans,
//! counters, gauges, diagnostics) as JSON lines — in --matrix mode the
//! *merged, unstripped* matrix trace with per-cell spans nested under a
//! root `matrix` span; --profile-folded writes an inferno/flamegraph-
//! compatible folded-stack profile (`compile;frontend 1234` lines, self
//! time in ns); --report prints the per-unit compile report (schedule,
//! hardware, and solver statistics) to stdout instead of writing
//! artifacts (single-file mode only).
//!
//! Matrix observability: every --matrix run writes matrix_summary.json
//! (the deterministic, timing-stripped aggregation — byte-identical for
//! every --jobs value) into --out; --summary additionally prints the
//! full per-stage min/p50/p95/max table with the critical-path cell,
//! cache attribution, and per-worker pool utilization to stdout;
//! --verbose emits a one-line progress summary per cell to stderr.
//!
//! --keep-going (matrix only) grades a batch by what survived: cells
//! are always compiled independently (one faulting cell never stops the
//! others), and with this flag a partially successful batch exits 3
//! instead of 1/2, reserving the failure codes for batches where *every*
//! cell failed.
//!
//! --fault-plan injects deterministic faults (panics at stage
//! boundaries, forced parse errors, solver-budget exhaustion, poisoned
//! frontend-cache entries) into the cells a plan file names; a single-file
//! compile is the one cell `<unit>@<core>` — see `longnail::faults` for
//! the line format. Chaos testing only.
//!
//! --cache-dir <dir> (matrix and serve) persists whole-cell artifact
//! bundles keyed by content (source + datasheet + options + schema
//! fingerprint). A warm rerun with nothing changed compiles zero cells
//! — every bundle's bytes are written back verbatim, so the artifact
//! tree is byte-identical to the cold run's — and editing one ISAX
//! recompiles only that ISAX's cells. Per-stage hit/miss attribution
//! goes to stderr as `cache-stats:` lines. Cells a fault plan targets
//! bypass the cache in both directions, and cells with errors are never
//! stored, so deterministic failures keep failing (identically) warm.
//! Incompatible with --xcheck, by design: the disk keeps the bytes a
//! cell writes, not the netlists the oracle simulates.
//!
//! serve runs the compile daemon: line-delimited JSON jobs on stdin
//! (`{"id": ..., "isax": <builtin>, "core": <core>}` or `{"id": ...,
//! "unit": ..., "core": ..., "src": <CoreDSL text>}`), one JSON result
//! per job on stdout in input order (`{"id", "status": "ok|error|fault",
//! "exit": 0|1|2, "units", "message"}`). Jobs fan out over --jobs
//! workers with matrix-grade per-cell isolation and share one
//! incremental pipeline cache (plus the persistent layer under
//! --cache-dir), so repeated jobs replay cached stages instead of
//! recompiling. The daemon exits 0; per-job failure is data.
//!
//! Diagnostics go to stderr. Exit codes: 0 — clean or warnings only;
//! 1 — at least one unit failed to compile (artifacts for the remaining
//! units are still written); 2 — an internal compiler fault (verifier,
//! netlist lint, or a contained panic); 3 — partial success under
//! --keep-going (some cells failed, at least one compiled).
//! ```

use longnail::driver::{builtin_datasheet, eval_datasheets, EVAL_CORES};
use longnail::{isax_lib, Longnail, OptLevel, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    input: Option<PathBuf>,
    core: Option<String>,
    unit: Option<String>,
    out: PathBuf,
    emit: Option<String>,
    budget: Option<u64>,
    trace: bool,
    metrics_out: Option<PathBuf>,
    report: bool,
    matrix: bool,
    jobs: usize,
    xcheck: bool,
    keep_going: bool,
    fault_plan: Option<PathBuf>,
    summary: bool,
    verbose: bool,
    profile_folded: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    serve: bool,
    opt_level: OptLevel,
    cache_mem_bytes: Option<u64>,
}

fn parse_args_from(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut input = None;
    let mut core = None;
    let mut unit = None;
    let mut out = PathBuf::from(".");
    let mut emit = None;
    let mut budget = None;
    let mut trace = false;
    let mut metrics_out = None;
    let mut report = false;
    let mut matrix = false;
    let mut jobs = 1usize;
    let mut xcheck = false;
    let mut keep_going = false;
    let mut fault_plan = None;
    let mut summary = false;
    let mut verbose = false;
    let mut profile_folded = None;
    let mut cache_dir = None;
    let mut serve = false;
    let mut opt_level = OptLevel::O0;
    let mut cache_mem_bytes = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--core" => core = Some(args.next().ok_or("--core needs a value")?),
            "--unit" => unit = Some(args.next().ok_or("--unit needs a value")?),
            "--out" => out = PathBuf::from(args.next().ok_or("--out needs a value")?),
            "--emit" => emit = Some(args.next().ok_or("--emit needs a value")?),
            "--budget" => {
                let v = args.next().ok_or("--budget needs a value")?;
                budget = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--budget: `{v}` is not a work-unit count"))?,
                );
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs: `{v}` is not a worker count >= 1"))?;
            }
            "--matrix" => matrix = true,
            "--xcheck" => xcheck = true,
            "--keep-going" => keep_going = true,
            "--fault-plan" => {
                fault_plan = Some(PathBuf::from(
                    args.next().ok_or("--fault-plan needs a value")?,
                ));
            }
            "--trace" => trace = true,
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    args.next().ok_or("--metrics-out needs a value")?,
                ));
            }
            "--report" => report = true,
            "--summary" => summary = true,
            "--verbose" => verbose = true,
            "--profile-folded" => {
                profile_folded = Some(PathBuf::from(
                    args.next().ok_or("--profile-folded needs a value")?,
                ));
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a value")?,
                ));
            }
            "--opt-level" => {
                let v = args.next().ok_or("--opt-level needs a value")?;
                opt_level = v
                    .parse::<u8>()
                    .ok()
                    .and_then(OptLevel::from_level)
                    .ok_or_else(|| format!("--opt-level: `{v}` is not 0 or 2"))?;
            }
            "--cache-mem-bytes" => {
                let v = args.next().ok_or("--cache-mem-bytes needs a value")?;
                cache_mem_bytes = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--cache-mem-bytes: `{v}` is not a byte count >= 1"))?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"))
            }
            "serve" if !serve && input.is_none() => serve = true,
            other => {
                if input.replace(PathBuf::from(other)).is_some() {
                    return Err("more than one input file".into());
                }
            }
        }
    }
    if serve {
        // The daemon owns its I/O protocol; everything that shapes
        // stdout/artifact emission in the other modes is meaningless.
        if matrix {
            return Err("serve reads jobs from stdin; drop --matrix".into());
        }
        if input.is_some() {
            return Err("serve reads jobs from stdin; drop the input file".into());
        }
        for (set, flag) in [
            (core.is_some(), "--core"),
            (unit.is_some(), "--unit"),
            (emit.is_some(), "--emit"),
            (report, "--report"),
            (summary, "--summary"),
            (verbose, "--verbose"),
            (xcheck, "--xcheck"),
            (keep_going, "--keep-going"),
            (trace, "--trace"),
            (metrics_out.is_some(), "--metrics-out"),
            (profile_folded.is_some(), "--profile-folded"),
        ] {
            if set {
                return Err(format!("`{flag}` does not apply to serve mode (allowed: \
                                    --jobs, --budget, --fault-plan, --cache-dir, \
                                    --opt-level, --cache-mem-bytes)"));
            }
        }
    } else if cache_dir.is_some() {
        if xcheck {
            return Err("--cache-dir serves cells from stored artifacts; --xcheck needs \
                        in-memory compilations — drop one of them"
                .into());
        }
        if !matrix {
            return Err("--cache-dir persists matrix/serve cell bundles; add --matrix \
                        or use serve mode"
                .into());
        }
    }
    if cache_mem_bytes.is_some() && !serve && !matrix {
        return Err("--cache-mem-bytes bounds the shared matrix/serve stage cache; \
                    add --matrix or use serve mode"
            .into());
    }
    if matrix {
        if input.is_some() {
            return Err("--matrix compiles the builtin evaluation matrix; drop the input file".into());
        }
        if core.is_some() {
            return Err("--matrix targets every evaluation core; drop --core".into());
        }
        if unit.is_some() {
            return Err("--matrix compiles every builtin ISAX unit; drop --unit".into());
        }
        if emit.is_some() {
            return Err("--emit prints one representation; it does not apply to --matrix".into());
        }
        if report {
            return Err(
                "--report is the single-compilation report; use --summary for a matrix".into(),
            );
        }
    } else if !serve {
        if keep_going {
            return Err("--keep-going only applies to --matrix batches".into());
        }
        if summary {
            return Err("--summary aggregates a matrix; use --report for one compilation".into());
        }
        if verbose {
            return Err("--verbose reports per-cell matrix progress; drop it or add --matrix".into());
        }
        if input.is_none() {
            return Err("missing input file".into());
        }
        if core.is_none() {
            return Err(format!(
                "missing --core (one of: {})",
                EVAL_CORES.join(", ")
            ));
        }
    }
    Ok(Args {
        input,
        core,
        unit,
        out,
        emit,
        budget,
        trace,
        metrics_out,
        report,
        matrix,
        jobs,
        xcheck,
        keep_going,
        fault_plan,
        summary,
        verbose,
        profile_folded,
        cache_dir,
        serve,
        opt_level,
        cache_mem_bytes,
    })
}

fn usage() {
    eprintln!(
        "usage: lnc <file.core_desc> --core <{}> [--unit <InstructionSet>] \
         [--out <dir>] [--emit hir|lil|sv|config|datasheet] [--budget <units>] \
         [--opt-level <0|2>] \
         [--trace] [--metrics-out <path>] [--profile-folded <path>] [--report] [--xcheck]\n\
         \u{20}      lnc --matrix [--jobs <N>] [--out <dir>] [--budget <units>] [--xcheck] \
         [--opt-level <0|2>] [--keep-going] [--fault-plan <path>] [--summary] [--verbose] \
         [--trace] [--metrics-out <path>] [--profile-folded <path>] [--cache-dir <dir>] \
         [--cache-mem-bytes <N>]\n\
         \u{20}      lnc serve [--jobs <N>] [--budget <units>] [--fault-plan <path>] \
         [--opt-level <0|2>] [--cache-dir <dir>] [--cache-mem-bytes <N>]",
        EVAL_CORES.join("|")
    );
}

/// Maps the accumulated diagnostics to the process exit code.
fn exit_for(compiled: &longnail::CompiledIsax) -> ExitCode {
    ExitCode::from(compiled.diagnostics.worst().map_or(0, Severity::exit_code))
}

/// Builds the run's pipeline cache: in-memory only, or backed by the
/// persistent `--cache-dir` layer (whose schema fingerprint folds in the
/// compiler's config fingerprint). `--cache-mem-bytes` caps the byte-
/// accounted in-memory layer.
fn build_cache(
    cache_dir: Option<&std::path::Path>,
    ln: &Longnail,
    cache_mem_bytes: Option<u64>,
) -> Result<longnail::PipelineCache, ExitCode> {
    let pipe = match cache_dir {
        Some(dir) => longnail::PipelineCache::with_disk(dir, &ln.config_fingerprint()).map_err(
            |e| {
                eprintln!("error: cannot open cache dir {}: {e}", dir.display());
                ExitCode::FAILURE
            },
        )?,
        None => longnail::PipelineCache::new(),
    };
    pipe.store().set_capacity(cache_mem_bytes);
    Ok(pipe)
}

/// Writes one cell's artifact bundle into `cell_dir` and prints the
/// bundle's rendered diagnostics to stderr, each line prefixed with
/// `label`. Pseudo-files (`__`-prefixed) are not written.
fn write_bundle(
    cell_dir: &std::path::Path,
    bundle: &longnail::CellBundle,
    label: &str,
) -> Result<(), ExitCode> {
    use longnail::serve::DIAGNOSTICS_FILE;
    for line in bundle.file(DIAGNOSTICS_FILE).unwrap_or_default().lines() {
        eprintln!("{label}: {line}");
    }
    for (name, contents) in &bundle.files {
        if name.starts_with("__") {
            continue;
        }
        let path = cell_dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}

/// Compiles and writes the full evaluation matrix. With `--cache-dir`,
/// cells whose content key matches a stored bundle are served from disk
/// verbatim and only the rest are compiled.
fn run_matrix(ln: &Longnail, args: &Args) -> ExitCode {
    use longnail::serve::{bundle_units, cell_bundle, run_cells, CellSource};
    let cells = longnail::matrix_cells(&isax_lib::all_isaxes(), &eval_datasheets());
    let pipe = match build_cache(args.cache_dir.as_deref(), ln, args.cache_mem_bytes) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let t0 = std::time::Instant::now();
    let run = run_cells(ln, &pipe, &cells, args.jobs);
    let wall = t0.elapsed();
    let matrix = &run.matrix;
    let sources = run.sources();
    let mut worst = 0u8;
    let (mut failed_cells, mut clean_cells) = (0usize, 0usize);
    // Stripped traces of disk-served cells, re-parsed for aggregation:
    // a stripped trace carries exactly the deterministic view the
    // summary needs, so warm summaries stay byte-identical to cold.
    let mut served_traces: Vec<Option<telemetry::Trace>> = (0..cells.len()).map(|_| None).collect();
    for (i, (cell, &source)) in cells.iter().zip(&sources).enumerate() {
        let core = &cell.datasheet.core;
        let cell_dir = args.out.join(format!("{}_{}", cell.isax, core));
        if let Err(e) = std::fs::create_dir_all(&cell_dir) {
            eprintln!("error: cannot create {}: {e}", cell_dir.display());
            return ExitCode::FAILURE;
        }
        // A compiled cell writes the same bundle the disk layer stores for
        // it, so a warm run served from disk writes what the cold run did.
        let fresh;
        let (bundle, compiled) = match source {
            CellSource::Disk(bundle) => {
                served_traces[i] = bundle
                    .file("trace.jsonl")
                    .and_then(|t| telemetry::Trace::from_jsonl(t).ok());
                clean_cells += 1;
                (bundle, None)
            }
            CellSource::Compiled(entry) => {
                let compiled = match &entry.outcome {
                    Ok(c) => c,
                    Err(e) => {
                        if e.frontend_errors.is_empty() {
                            eprintln!("{}: {}×{core}: {e}", e.severity, cell.isax);
                        } else {
                            for d in &e.frontend_errors {
                                eprintln!("error: {}×{core}: [frontend] {d}", cell.isax);
                            }
                        }
                        worst = worst.max(e.severity.exit_code());
                        failed_cells += 1;
                        if args.verbose {
                            eprintln!("cell {}_{core}: failed {e}", cell.isax);
                        }
                        continue;
                    }
                };
                worst = worst.max(compiled.diagnostics.worst().map_or(0, Severity::exit_code));
                if compiled.diagnostics.has_errors() {
                    failed_cells += 1;
                } else {
                    clean_cells += 1;
                }
                fresh = cell_bundle(compiled);
                (&fresh, Some(compiled))
            }
        };
        if let Err(code) = write_bundle(&cell_dir, bundle, &format!("{}×{core}", cell.isax)) {
            return code;
        }
        let units = bundle_units(bundle);
        println!(
            "compiled {:<14} for {core:<9} -> {units} unit(s)",
            cell.isax
        );
        if args.verbose {
            match compiled {
                None => eprintln!(
                    "cell {}_{core}: ok {units} unit(s), served from cell cache",
                    cell.isax
                ),
                Some(compiled) => {
                    let stage_spans: usize = telemetry::STAGES
                        .iter()
                        .map(|s| compiled.trace.span_count(s))
                        .sum();
                    eprintln!(
                        "cell {}_{core}: ok {units} unit(s), {stage_spans} stage span(s), \
                         {} cache hit(s)",
                        cell.isax,
                        compiled
                            .trace
                            .counter_total(telemetry::metrics::CACHE_FRONTEND_HIT)
                    );
                }
            }
        }
    }
    if args.xcheck {
        // Fan the per-cell differential checks across the same worker
        // count as the compile; results come back in deterministic input
        // order regardless of scheduling.
        let reports: Vec<Option<longnail::XCheckReport>> =
            pool::Pool::new(args.jobs).run(matrix.entries.len(), |i| {
                matrix.entries[i]
                    .outcome
                    .as_ref()
                    .ok()
                    .map(longnail::xcheck_compiled)
            });
        let mut cells = 0u64;
        let (mut mism, mut xbits) = (0u64, 0u64);
        for (entry, report) in matrix.entries.iter().zip(&reports) {
            let Some(report) = report else { continue };
            cells += 1;
            mism += report.mismatches();
            xbits += report.x_output_bits();
            for p in report.problems() {
                eprintln!("{}×{}: xcheck: {p}", entry.isax, entry.core);
            }
            let cell_dir = args.out.join(format!("{}_{}", entry.isax, entry.core));
            let path = cell_dir.join("xcheck.jsonl");
            if let Err(e) = std::fs::write(&path, report.trace.stripped().to_jsonl()) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            if !report.is_clean() {
                worst = worst.max(2);
            }
        }
        println!("xcheck: {cells} cell(s), {mism} mismatch(es), {xbits} X output bit(s)");
    }
    // --- Matrix observability: aggregation, summary, merged trace ---
    // Disk-served cells contribute their stored stripped trace; compiled
    // cells their live one. Both reduce to the same deterministic view.
    let cell_traces: Vec<(String, &telemetry::Trace)> = cells
        .iter()
        .zip(&sources)
        .zip(&served_traces)
        .filter_map(|((cell, source), served)| {
            let name = format!("{}_{}", cell.isax, cell.datasheet.core);
            match (source, served) {
                (_, Some(t)) => Some((name, t)),
                (CellSource::Compiled(e), None) => {
                    e.outcome.as_ref().ok().map(|c| (name, &c.trace))
                }
                (CellSource::Disk(_), None) => None,
            }
        })
        .collect();
    let mut summary = telemetry::aggregate::summarize(&cell_traces);
    // Batch-level fields come from the authoritative MatrixResult (failed
    // cells have no trace for the aggregator to see).
    summary.cells = cells.len() as u64;
    summary.jobs = matrix.jobs as u64;
    let frontend = matrix.stage_cache("frontend");
    summary.cache_hits = frontend.hits;
    summary.cache_misses = frontend.misses;
    summary.cell_faults = matrix.cell_faults;
    summary.errors_recovered = matrix.errors_recovered;
    summary.pool_wall_ns = matrix.pool_stats.wall_ns;
    // Per-stage cache attribution: the compile run's hit/miss deltas,
    // plus one credited hit per stage span a disk-served bundle would
    // have recomputed. The synthetic `cell` row counts whole-bundle
    // probes of the persistent layer.
    let served_count = run.served.iter().flatten().count() as u64;
    for stage in telemetry::STAGES {
        let d = matrix.stage_cache(stage);
        let credit: u64 = served_traces
            .iter()
            .flatten()
            .map(|t| t.span_count(stage) as u64)
            .sum();
        summary.stage_cache.push(telemetry::aggregate::StageCacheSummary {
            stage: stage.to_string(),
            hits: d.hits + credit,
            misses: d.misses,
            waits: d.waits,
        });
    }
    summary.stage_cache.push(telemetry::aggregate::StageCacheSummary {
        stage: "cell".to_string(),
        hits: served_count,
        misses: run.probed - served_count,
        waits: 0,
    });
    if args.cache_dir.is_some() {
        for r in &summary.stage_cache {
            eprintln!("cache-stats: {} hits={} misses={}", r.stage, r.hits, r.misses);
        }
    }
    for (w, ws) in matrix.pool_stats.per_worker.iter().enumerate() {
        summary.pool.push(telemetry::aggregate::PoolWorkerSummary {
            jobs: ws.jobs,
            busy_ns: ws.busy_ns,
            utilization: matrix.pool_stats.utilization(w),
        });
    }
    // matrix_summary.json is the deterministic projection — part of the
    // artifact tree ci.sh diffs across --jobs values.
    let summary_path = args.out.join("matrix_summary.json");
    if let Err(e) = std::fs::write(&summary_path, summary.stripped().to_json()) {
        eprintln!("error: cannot write {}: {e}", summary_path.display());
        return ExitCode::FAILURE;
    }
    if args.summary {
        print!("{}", summary.render());
    }
    if args.trace || args.metrics_out.is_some() || args.profile_folded.is_some() {
        use telemetry::metrics;
        let matrix_counters = vec![
            (metrics::CACHE_FRONTEND_HIT.to_string(), frontend.hits),
            (metrics::CACHE_FRONTEND_MISS.to_string(), frontend.misses),
            (
                metrics::POOL_QUEUE_WAIT_NS.to_string(),
                matrix.pool_stats.queue_wait_total_ns(),
            ),
            (
                metrics::POOL_RUN_NS.to_string(),
                matrix.pool_stats.run_total_ns(),
            ),
            (metrics::POOL_WALL_NS.to_string(), matrix.pool_stats.wall_ns),
        ];
        let matrix_gauges: Vec<(String, f64)> = (0..matrix.pool_stats.per_worker.len())
            .map(|w| {
                (
                    metrics::POOL_WORKER_UTILIZATION.to_string(),
                    matrix.pool_stats.utilization(w),
                )
            })
            .collect();
        let merged = telemetry::aggregate::merge_traces(
            &cell_traces,
            &matrix_counters,
            &matrix_gauges,
            matrix.pool_stats.wall_ns,
        );
        if args.trace {
            eprint!("{}", telemetry::report::render_tree(&merged));
        }
        if let Some(path) = &args.metrics_out {
            // The merged stream keeps full timings and the pool/cache
            // metrics — the *unstripped* matrix view.
            if let Err(e) = std::fs::write(path, merged.to_jsonl()) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &args.profile_folded {
            if let Err(e) = std::fs::write(path, telemetry::folded::render_folded(&merged)) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    // Wall time is nondeterministic; keep it off stdout so stdout stays
    // comparable across runs.
    eprintln!(
        "matrix: {} cell(s), {} job(s), frontend cache {} hit(s) / {} miss(es), {:.1} ms",
        cells.len(),
        matrix.jobs,
        frontend.hits,
        frontend.misses,
        wall.as_secs_f64() * 1e3
    );
    if args.cache_dir.is_some() {
        eprintln!(
            "cell cache: {} served, {} compiled",
            served_count,
            matrix.entries.len()
        );
    }
    if matrix.cell_faults > 0 || matrix.errors_recovered > 0 {
        eprintln!(
            "degraded: {} = {}, {} = {}",
            telemetry::metrics::DEGRADE_CELL_FAULTS,
            matrix.cell_faults,
            telemetry::metrics::DEGRADE_ERRORS_RECOVERED,
            matrix.errors_recovered
        );
    }
    // --keep-going grades the batch by what survived: a partial success
    // exits 3, and the hard failure codes mean *nothing* compiled.
    if args.keep_going && worst > 0 && failed_cells > 0 && clean_cells > 0 {
        return ExitCode::from(3);
    }
    match worst {
        0 => ExitCode::SUCCESS,
        1 => ExitCode::FAILURE,
        _ => ExitCode::from(2),
    }
}

fn main() -> ExitCode {
    let args = match parse_args_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    let mut ln = Longnail::new();
    if let Some(b) = args.budget {
        ln.work_limit = b;
    }
    ln.opt_level = args.opt_level;
    if let Some(path) = &args.fault_plan {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match longnail::FaultPlan::parse(&text) {
            Ok(plan) => ln.fault_plan = Some(plan),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if args.serve {
        let pipe = match build_cache(args.cache_dir.as_deref(), &ln, args.cache_mem_bytes) {
            Ok(p) => p,
            Err(code) => return code,
        };
        let mut input = String::new();
        use std::io::Read;
        if let Err(e) = std::io::stdin().read_to_string(&mut input) {
            eprintln!("error: cannot read jobs from stdin: {e}");
            return ExitCode::FAILURE;
        }
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        // Per-job failures are result lines; the daemon itself exits 0.
        return match longnail::serve::run_serve(&ln, &pipe, args.jobs, &input, &mut out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: cannot write results: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.matrix {
        return run_matrix(&ln, &args);
    }
    let core = args.core.as_deref().expect("validated in parse_args");
    let input = args.input.as_deref().expect("validated in parse_args");
    let Some(datasheet) = builtin_datasheet(core) else {
        eprintln!(
            "error: unknown core `{core}` (known: {})",
            EVAL_CORES.join(", ")
        );
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", input.display());
            return ExitCode::FAILURE;
        }
    };
    let unit = args.unit.clone().unwrap_or_else(|| {
        input
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    });
    // --emit hir needs the typed module before HLS.
    if args.emit.as_deref() == Some("hir") {
        return match coredsl::Frontend::new().compile_str(&src, &unit) {
            Ok(module) => {
                print!("{}", ir::hirprint::print_module(&module));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.emit.as_deref() == Some("datasheet") {
        print!("{}", datasheet.to_yaml());
        return ExitCode::SUCCESS;
    }
    // A panic anywhere in the flow is an internal fault (exit 2), not a
    // crash: report it like any other diagnostic.
    let compiled = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ln.compile(&src, &unit, &datasheet)
    })) {
        Ok(Ok(c)) => c,
        Ok(Err(e)) => {
            // A frontend failure carries every accumulated coded
            // diagnostic — report them all, not just the first.
            if e.frontend_errors.len() > 1 {
                for d in &e.frontend_errors {
                    eprintln!("error: [frontend] {d}");
                }
            } else {
                eprintln!("error: {e}");
            }
            return ExitCode::from(e.severity.exit_code());
        }
        Err(payload) => {
            eprintln!(
                "internal fault: compiler panicked: {}",
                pool::panic_message(payload.as_ref())
            );
            return ExitCode::from(2);
        }
    };
    if !compiled.diagnostics.is_empty() {
        eprint!("{}", compiled.diagnostics.render());
    }
    if args.trace {
        eprint!("{}", telemetry::report::render_tree(&compiled.trace));
    }
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, compiled.trace.to_jsonl()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.profile_folded {
        if let Err(e) = std::fs::write(path, telemetry::folded::render_folded(&compiled.trace)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if args.xcheck {
        let report = longnail::xcheck_compiled(&compiled);
        for p in report.problems() {
            eprintln!("xcheck: {p}");
        }
        if args.trace {
            eprint!("{}", telemetry::report::render_tree(&report.trace));
        }
        println!("{}", report.summary());
        if !report.is_clean() {
            // A divergence between the emitted SystemVerilog's semantics
            // and the interpreter is a compiler fault, not a user error.
            return ExitCode::from(2);
        }
    }
    if args.report {
        print!("{}", telemetry::report::render_report(&compiled.trace));
        return exit_for(&compiled);
    }
    match args.emit.as_deref() {
        Some("lil") => {
            for g in &compiled.graphs {
                print!("{}", g.graph);
            }
        }
        Some("sv") => {
            for g in &compiled.graphs {
                print!("{}", g.verilog);
            }
        }
        Some("config") => print!("{}", compiled.config.to_yaml()),
        Some(other) => {
            eprintln!("error: unknown --emit `{other}`");
            return ExitCode::FAILURE;
        }
        None => {
            if let Err(e) = std::fs::create_dir_all(&args.out) {
                eprintln!("error: cannot create {}: {e}", args.out.display());
                return ExitCode::FAILURE;
            }
            for g in &compiled.graphs {
                let path = args
                    .out
                    .join(format!("{}_{}.sv", compiled.name, g.name));
                if let Err(e) = std::fs::write(&path, &g.verilog) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "wrote {:<40} {:>6} stages, mode {}",
                    path.display(),
                    g.max_stage,
                    g.mode
                );
            }
            let config_path = args.out.join(format!("{}.scaiev.yaml", compiled.name));
            if let Err(e) = std::fs::write(&config_path, compiled.config.to_yaml()) {
                eprintln!("error: cannot write {}: {e}", config_path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", config_path.display());
            println!(
                "\n{}: {} instruction(s), {} always-block(s) compiled for {}",
                compiled.name,
                compiled.instructions().count(),
                compiled.always_blocks().count(),
                core
            );
        }
    }
    exit_for(&compiled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn single_file_mode_requires_input_and_core() {
        let a = parse(&["x.core_desc", "--core", "ORCA", "--unit", "X"]).unwrap();
        assert_eq!(a.input.as_deref(), Some(std::path::Path::new("x.core_desc")));
        assert_eq!(a.core.as_deref(), Some("ORCA"));
        assert_eq!(a.jobs, 1);
        assert!(!a.matrix);
        assert!(parse(&["--core", "ORCA"]).unwrap_err().contains("input"));
        assert!(parse(&["x.core_desc"]).unwrap_err().contains("--core"));
    }

    #[test]
    fn matrix_mode_parses_jobs_and_rejects_single_file_flags() {
        let a = parse(&["--matrix", "--jobs", "4", "--out", "o"]).unwrap();
        assert!(a.matrix);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.out, PathBuf::from("o"));
        assert!(parse(&["--matrix", "x.core_desc"]).unwrap_err().contains("--matrix"));
        assert!(parse(&["--matrix", "--core", "ORCA"]).unwrap_err().contains("--core"));
    }

    #[test]
    fn jobs_must_be_a_positive_count() {
        assert!(parse(&["--matrix", "--jobs", "0"]).is_err());
        assert!(parse(&["--matrix", "--jobs", "many"]).is_err());
        assert!(parse(&["--matrix", "--jobs"]).is_err());
        assert_eq!(parse(&["--matrix", "--jobs", "16"]).unwrap().jobs, 16);
    }

    #[test]
    fn xcheck_flag_parses_in_both_modes() {
        assert!(parse(&["x.core_desc", "--core", "ORCA", "--xcheck"])
            .unwrap()
            .xcheck);
        assert!(parse(&["--matrix", "--xcheck", "--jobs", "2"]).unwrap().xcheck);
        assert!(!parse(&["--matrix"]).unwrap().xcheck);
    }

    #[test]
    fn keep_going_and_fault_plan_parse_in_matrix_mode() {
        let a = parse(&["--matrix", "--keep-going", "--fault-plan", "plan.txt"]).unwrap();
        assert!(a.keep_going);
        assert_eq!(a.fault_plan, Some(PathBuf::from("plan.txt")));
        assert!(!parse(&["--matrix"]).unwrap().keep_going);
        assert!(parse(&["x.core_desc", "--core", "ORCA", "--keep-going"])
            .unwrap_err()
            .contains("--matrix"));
        assert!(parse(&["--matrix", "--fault-plan"]).is_err());
    }

    #[test]
    fn summary_and_verbose_are_matrix_only() {
        let a = parse(&["--matrix", "--summary", "--verbose"]).unwrap();
        assert!(a.summary && a.verbose);
        assert!(parse(&["x", "--core", "ORCA", "--summary"])
            .unwrap_err()
            .contains("--report"));
        assert!(parse(&["x", "--core", "ORCA", "--verbose"])
            .unwrap_err()
            .contains("--matrix"));
    }

    #[test]
    fn matrix_rejects_single_compilation_flags() {
        assert!(parse(&["--matrix", "--emit", "sv"])
            .unwrap_err()
            .contains("--emit"));
        assert!(parse(&["--matrix", "--report"])
            .unwrap_err()
            .contains("--summary"));
        assert!(parse(&["--matrix", "--unit", "X"])
            .unwrap_err()
            .contains("--unit"));
    }

    #[test]
    fn profile_folded_parses_in_both_modes() {
        let a = parse(&["x", "--core", "ORCA", "--profile-folded", "p.folded"]).unwrap();
        assert_eq!(a.profile_folded, Some(PathBuf::from("p.folded")));
        let m = parse(&["--matrix", "--profile-folded", "m.folded", "--metrics-out", "m.jsonl"])
            .unwrap();
        assert_eq!(m.profile_folded, Some(PathBuf::from("m.folded")));
        assert_eq!(m.metrics_out, Some(PathBuf::from("m.jsonl")));
        assert!(parse(&["--matrix", "--profile-folded"]).is_err());
    }

    #[test]
    fn opt_level_parses_in_every_mode_and_validates_its_range() {
        assert_eq!(
            parse(&["x", "--core", "ORCA"]).unwrap().opt_level,
            OptLevel::O0
        );
        assert_eq!(
            parse(&["x", "--core", "ORCA", "--opt-level", "2"]).unwrap().opt_level,
            OptLevel::O2
        );
        assert_eq!(
            parse(&["--matrix", "--opt-level", "0"]).unwrap().opt_level,
            OptLevel::O0
        );
        assert_eq!(
            parse(&["serve", "--opt-level", "2"]).unwrap().opt_level,
            OptLevel::O2
        );
        for level in ["1", "3"] {
            assert!(parse(&["--matrix", "--opt-level", level])
                .unwrap_err()
                .contains("not 0 or 2"));
        }
        assert!(parse(&["--matrix", "--opt-level", "fast"]).is_err());
        assert!(parse(&["--matrix", "--opt-level"]).is_err());
    }

    #[test]
    fn cache_mem_bytes_applies_to_matrix_and_serve_only() {
        let a = parse(&["--matrix", "--cache-mem-bytes", "1048576"]).unwrap();
        assert_eq!(a.cache_mem_bytes, Some(1 << 20));
        let s = parse(&["serve", "--cache-mem-bytes", "4096"]).unwrap();
        assert_eq!(s.cache_mem_bytes, Some(4096));
        assert_eq!(parse(&["--matrix"]).unwrap().cache_mem_bytes, None);
        assert!(parse(&["--matrix", "--cache-mem-bytes", "0"]).is_err());
        assert!(parse(&["--matrix", "--cache-mem-bytes", "lots"]).is_err());
        assert!(parse(&["x", "--core", "ORCA", "--cache-mem-bytes", "4096"])
            .unwrap_err()
            .contains("--matrix"));
    }

    #[test]
    fn cache_dir_applies_to_matrix_and_serve_only() {
        let a = parse(&["--matrix", "--cache-dir", "c"]).unwrap();
        assert_eq!(a.cache_dir, Some(PathBuf::from("c")));
        assert!(parse(&["--matrix", "--cache-dir"]).is_err());
        assert!(parse(&["x", "--core", "ORCA", "--cache-dir", "c"])
            .unwrap_err()
            .contains("--matrix"));
        assert!(parse(&["--matrix", "--cache-dir", "c", "--xcheck"])
            .unwrap_err()
            .contains("--xcheck"));
    }

    #[test]
    fn serve_mode_allows_only_daemon_flags() {
        let a = parse(&["serve", "--jobs", "4", "--budget", "100", "--fault-plan", "p",
                        "--cache-dir", "c"])
            .unwrap();
        assert!(a.serve && !a.matrix);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.budget, Some(100));
        assert_eq!(a.cache_dir, Some(PathBuf::from("c")));
        assert!(parse(&["serve", "--matrix"]).unwrap_err().contains("stdin"));
        assert!(parse(&["serve", "x.core_desc"]).unwrap_err().contains("stdin"));
        for flag in ["--summary", "--xcheck", "--trace", "--keep-going", "--report"] {
            assert!(parse(&["serve", flag]).unwrap_err().contains(flag), "{flag}");
        }
        assert!(parse(&["serve", "--core", "ORCA"]).unwrap_err().contains("--core"));
        // Only the *first* positional `serve` selects the daemon.
        assert!(!parse(&["serve.core_desc", "--core", "ORCA"]).unwrap().serve);
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(parse(&["x", "--core", "ORCA", "--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse(&["a", "b", "--core", "ORCA"])
            .unwrap_err()
            .contains("more than one"));
    }

    #[test]
    fn budget_and_observability_flags_parse() {
        let a = parse(&[
            "x.core_desc",
            "--core",
            "Piccolo",
            "--budget",
            "5000",
            "--trace",
            "--metrics-out",
            "m.jsonl",
            "--report",
        ])
        .unwrap();
        assert_eq!(a.budget, Some(5000));
        assert!(a.trace && a.report);
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.jsonl")));
        assert!(parse(&["x", "--core", "ORCA", "--budget", "lots"]).is_err());
    }
}
