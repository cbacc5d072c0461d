//! `cargo run -p bench` — the deterministic work gate.
//!
//! Compiles the full 8×4 evaluation matrix (through the shared frontend
//! cache) and writes `BENCH_compile.json` at the workspace root. Its one
//! `deterministic` section holds work counters that are a pure function
//! of the input and the algorithms: solver pivots / propagation batches /
//! repair rounds, cache hit/miss totals, degradation counters, the
//! per-stage op counters summed across the matrix, a per-cell solver-work
//! breakdown with digests of the cell's schedules and SystemVerilog, the
//! `incremental` per-stage hit/miss profile of a cold → warm no-change →
//! warm one-edit (a comment) → warm semantic-edit (one SPARKLE
//! instruction) recompile sequence through one shared pipeline cache (the
//! no-change run must be pure replay, the comment edit must recompute no
//! backend stage, and every warm run's artifacts must match a cold compile
//! byte for byte), and the `opt` profile of a full -O2 matrix (per-pass
//! rewrite totals, a digest of its SystemVerilog, and modeled area and
//! critical path against -O0, with the strict area win asserted).
//! Byte-identical on every run of the same code.
//!
//! The gate measures no time: wall-clock time, end to end and layer by
//! layer, is `compilebench`'s job.
//!
//! With `--check <baseline>` the freshly measured `deterministic` section
//! is compared **textually** against the checked-in `BENCH_baseline.json`:
//! any divergence (a solver change, a cache regression, a new fallback) is
//! a hard failure naming the first differing line, with the update command
//! to run when the change is intentional.

use longnail::driver::{eval_datasheets, MatrixResult};
use longnail::{isax_lib, matrix_cells, Longnail, PipelineCache};
use std::fmt::Write as _;
use std::process::ExitCode;
use telemetry::aggregate;

/// Workspace-root path of the freshly written benchmark result.
const BENCH_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile.json");

/// Renders one run's per-stage cache profile as `"stage": "Mm/Hh"`
/// fields in pipeline order. Hit/miss totals are deterministic (the
/// store's exactly-once slots make the miss count a function of the key
/// set, not of scheduling), so this belongs in the gated section.
fn stage_mix(m: &MatrixResult) -> String {
    telemetry::STAGES
        .iter()
        .map(|s| {
            let d = m.stage_cache(s);
            format!("\"{s}\": \"{}m/{}h\"", d.misses, d.hits)
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every cell's artifacts must be byte-identical between two runs — the
/// warm replay is only correct if it reproduces the cold bytes exactly.
fn assert_artifacts_identical(cold: &MatrixResult, warm: &MatrixResult, what: &str) {
    assert_eq!(cold.entries.len(), warm.entries.len());
    for (c, w) in cold.entries.iter().zip(&warm.entries) {
        let (Ok(cc), Ok(wc)) = (&c.outcome, &w.outcome) else {
            panic!("{what}: cell {}_{} failed", c.isax, c.core);
        };
        let cell = format!("{}_{}", c.isax, c.core);
        assert_eq!(cc.config.to_yaml(), wc.config.to_yaml(), "{what}: {cell} config");
        assert_eq!(cc.graphs.len(), wc.graphs.len(), "{what}: {cell} unit count");
        for (cg, wg) in cc.graphs.iter().zip(&wc.graphs) {
            assert_eq!(cg.verilog, wg.verilog, "{what}: {cell} verilog {}", cg.name);
        }
        assert_eq!(
            cc.trace.stripped().to_jsonl(),
            wc.trace.stripped().to_jsonl(),
            "{what}: {cell} stripped trace"
        );
    }
}

/// One digest per compiled cell over its units' SystemVerilog texts, in
/// unit order.
fn verilog_digests(m: &MatrixResult) -> Vec<String> {
    m.entries
        .iter()
        .filter_map(|e| e.outcome.as_ref().ok())
        .map(|c| {
            let text: String = c.graphs.iter().map(|g| g.verilog.as_str()).collect();
            qcache::digest(text.as_bytes()).to_hex()
        })
        .collect()
}

/// Runs the matrix benchmark and renders `BENCH_compile.json`.
fn bench_json() -> String {
    let isaxes = isax_lib::all_isaxes();
    let cores = eval_datasheets();
    let cells = matrix_cells(&isaxes, &cores);
    let ln = Longnail::new();
    let serial = ln.compile_cells(&cells, 1, &PipelineCache::new());

    // Incremental profile: cold, warm no-change, warm one-edit, warm
    // semantic edit — all through one shared pipeline cache with 4
    // workers, the way `lnc serve` and warm matrix recompiles run. The
    // cold row pins the cache totals at that worker count; the serial run
    // above pins them at one.
    let pipe = PipelineCache::new();
    let cold = ln.compile_cells(&cells, 4, &pipe);
    let warm = ln.compile_cells(&cells, 4, &pipe);
    let warm_misses: u64 = warm.stage_stats.iter().map(|s| s.misses).sum();
    assert_eq!(warm_misses, 0, "warm no-change recompile must be pure replay");
    assert_artifacts_identical(&cold, &warm, "warm no-change");
    // The comment edit: append a comment to one ISAX. Its source key
    // changes, so the frontend reruns once; its LIL graphs do not, so
    // every backend stage is cut off and replays.
    let mut edited = isaxes.clone();
    edited[0].2.push_str("\n// incremental bench edit\n");
    let edit = ln.compile_cells(&matrix_cells(&edited, &cores), 4, &pipe);
    let edit_fe = edit.stage_cache("frontend").misses;
    assert_eq!(edit_fe, 1, "one edited source, one frontend recompute");
    let backend_misses: u64 = edit
        .stage_stats
        .iter()
        .filter(|s| !matches!(s.stage.as_str(), "frontend" | "lower"))
        .map(|s| s.misses)
        .sum();
    assert_eq!(
        backend_misses, 0,
        "a comment edit must recompute no backend stage"
    );
    assert_artifacts_identical(&cold, &edit, "warm one-edit");
    // The semantic edit: swap the operands of one of SPARKLE's eight
    // instructions, so exactly that unit recomputes on every core (plus
    // the ISAX's config). Its artifacts change, so the reference is a
    // cold compile of the edited sources.
    let mut semantic = isaxes.clone();
    let sparkle = semantic
        .iter_mut()
        .find(|(name, _, _)| name == "sparkle")
        .expect("sparkle is a builtin ISAX");
    let swapped = sparkle.2.replacen(
        "alzette0_x(X[rs1], X[rs2])",
        "alzette0_x(X[rs2], X[rs1])",
        1,
    );
    assert_ne!(swapped, sparkle.2, "the semantic edit applies");
    sparkle.2 = swapped;
    let semantic_cells = matrix_cells(&semantic, &cores);
    let semantic_edit = ln.compile_cells(&semantic_cells, 4, &pipe);
    let semantic_cold = ln.compile_cells(&semantic_cells, 4, &PipelineCache::new());
    assert_artifacts_identical(&semantic_cold, &semantic_edit, "warm semantic edit");

    // Optimized matrix: the same 8×4 matrix at -O2 through the netlist
    // optimizer. Everything recorded here is deterministic — the rewrite
    // totals are a pure function of the netlists and the pass order, and
    // the 22 nm area/timing model is a pure function of the optimized
    // netlists — so the section sits inside the gated `deterministic`
    // block. The strict area win is also asserted outright: -O2 exists to
    // shrink the matrix, and a build where it stops doing so is a
    // regression even if every counter still matches some stale baseline.
    let o2 = ln
        .with_opt_level(longnail::OptLevel::O2)
        .compile_cells(&cells, 4, &PipelineCache::new());
    let lib = eda::TechLibrary::new();
    let estimate = |m: &MatrixResult| {
        let (mut area, mut crit) = (0.0f64, 0.0f64);
        for entry in &m.entries {
            let Ok(cell) = &entry.outcome else {
                panic!("opt bench: cell {}_{} failed", entry.isax, entry.core);
            };
            for g in &cell.graphs {
                let est = eda::estimate_module(&lib, &g.built.module);
                area += est.area.total();
                crit = crit.max(est.timing.critical_path_ns);
            }
        }
        (area, crit)
    };
    let (area_o0, crit_o0) = estimate(&serial);
    let (area_o2, crit_o2) = estimate(&o2);
    assert!(
        area_o2 < area_o0,
        "-O2 must strictly reduce total matrix area ({area_o2:.1} vs {area_o0:.1} µm²)"
    );
    let o2_traces: Vec<&telemetry::Trace> = o2
        .entries
        .iter()
        .filter_map(|e| e.outcome.as_ref().ok().map(|c| &c.trace))
        .collect();
    let opt_total = |name: &str| -> u64 { o2_traces.iter().map(|t| t.counter_total(name)).sum() };

    let cell_traces: Vec<(String, &telemetry::Trace)> = serial
        .entries
        .iter()
        .filter_map(|e| {
            e.outcome
                .as_ref()
                .ok()
                .map(|c| (format!("{}_{}", e.isax, e.core), &c.trace))
        })
        .collect();
    let summary = aggregate::summarize(&cell_traces);
    // One digest per cell over every unit's name and start times, so the
    // gate pins the schedules themselves, not just the work that found
    // them.
    let schedule_digests: Vec<String> = serial
        .entries
        .iter()
        .filter_map(|e| e.outcome.as_ref().ok())
        .map(|c| {
            let mut text = String::new();
            for g in &c.graphs {
                let starts: Vec<String> =
                    g.schedule.start_time.iter().map(u32::to_string).collect();
                let _ = writeln!(text, "{}:{}", g.name, starts.join(","));
            }
            qcache::digest(text.as_bytes()).to_hex()
        })
        .collect();
    // And one over every unit's SystemVerilog, so the gate pins the
    // emitted text, not just its length.
    let serial_verilog = verilog_digests(&serial);
    // The -O2 matrix gets one digest, over its cells' digests.
    let o2_verilog = qcache::digest(verilog_digests(&o2).concat().as_bytes()).to_hex();

    let mut json = String::from("{\n  \"schema\": \"longnail-bench/3\",\n");
    json.push_str("  \"deterministic\": {\n");
    let _ = writeln!(json, "    \"cells\": {},", serial.entries.len());
    let frontend = serial.stage_cache("frontend");
    let _ = writeln!(json, "    \"cache_hits\": {},", frontend.hits);
    let _ = writeln!(json, "    \"cache_misses\": {},", frontend.misses);
    let _ = writeln!(json, "    \"cell_faults\": {},", serial.cell_faults);
    let _ = writeln!(json, "    \"errors_recovered\": {},", serial.errors_recovered);
    json.push_str("    \"counters\": {\n");
    for (i, (name, value)) in summary.counters.iter().enumerate() {
        let _ = write!(json, "      \"{name}\": {value}");
        json.push_str(if i + 1 == summary.counters.len() { "\n" } else { ",\n" });
    }
    json.push_str("    },\n    \"per_cell\": [\n");
    let per_cell = cell_traces.iter().zip(&schedule_digests).zip(&serial_verilog);
    for (i, (((cell, trace), schedule), verilog)) in per_cell.enumerate() {
        use telemetry::metrics as m;
        let _ = write!(
            json,
            "      {{\"cell\": \"{cell}\", \"pivots\": {}, \"nodes\": {}, \"rounds\": {}, \
             \"fallbacks\": {}, \"ops\": {}, \"verilog_bytes\": {}, \"schedule\": \"{schedule}\", \
             \"verilog\": \"{verilog}\"}}",
            trace.counter_total(m::SOLVER_PIVOTS),
            trace.counter_total(m::SOLVER_NODES),
            trace.counter_total(m::SOLVER_ROUNDS),
            trace.counter_total(m::SCHED_FALLBACK),
            trace.counter_total(m::PROBLEM_OPS),
            trace.counter_total(m::VERILOG_BYTES),
        );
        json.push_str(if i + 1 == cell_traces.len() { "\n" } else { ",\n" });
    }
    json.push_str("    ],\n    \"incremental\": {\n");
    let _ = writeln!(json, "      \"cold\": {{{}}},", stage_mix(&cold));
    let _ = writeln!(json, "      \"warm_no_change\": {{{}}},", stage_mix(&warm));
    let _ = writeln!(json, "      \"warm_one_edit\": {{{}}},", stage_mix(&edit));
    let _ = writeln!(
        json,
        "      \"warm_semantic_edit\": {{{}}}",
        stage_mix(&semantic_edit)
    );
    json.push_str("    },\n    \"opt\": {\n");
    let _ = writeln!(json, "      \"area_o0_um2\": {area_o0:.1},");
    let _ = writeln!(json, "      \"area_o2_um2\": {area_o2:.1},");
    let _ = writeln!(
        json,
        "      \"area_reduction_pct\": {:.2},",
        (area_o0 - area_o2) / area_o0 * 100.0
    );
    let _ = writeln!(json, "      \"critical_path_o0_ns\": {crit_o0:.3},");
    let _ = writeln!(json, "      \"critical_path_o2_ns\": {crit_o2:.3},");
    let _ = writeln!(json, "      \"verilog\": \"{o2_verilog}\",");
    {
        use telemetry::metrics as m;
        let _ = writeln!(json, "      \"iterations\": {},", opt_total(m::OPT_ITERATIONS));
        let _ = writeln!(json, "      \"nets_before\": {},", opt_total(m::OPT_NETS_BEFORE));
        let _ = writeln!(json, "      \"nets_after\": {},", opt_total(m::OPT_NETS_AFTER));
        let rewrites = [
            ("fold", m::OPT_REWRITES_FOLD),
            ("cse", m::OPT_REWRITES_CSE),
            ("mux", m::OPT_REWRITES_MUX),
            ("strength", m::OPT_REWRITES_STRENGTH),
            ("narrow", m::OPT_REWRITES_NARROW),
            ("dce", m::OPT_REWRITES_DCE),
        ];
        json.push_str("      \"rewrites\": {");
        for (i, (name, metric)) in rewrites.iter().enumerate() {
            let _ = write!(json, "\"{name}\": {}", opt_total(metric));
            json.push_str(if i + 1 == rewrites.len() { "}\n" } else { ", " });
        }
    }
    json.push_str("    }\n  }\n}\n");
    json
}

/// Extracts the `"key": {{...}}` object (balanced braces) from `json`.
fn extract_section(json: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":");
    let start = json.find(&marker)?;
    let open = start + json[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// First line where the two texts differ, as `(line_no, got, want)`.
fn first_diff(got: &str, want: &str) -> Option<(usize, String, String)> {
    let mut g = got.lines();
    let mut w = want.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (g.next(), w.next()) {
            (None, None) => return None,
            (a, b) if a == b => {}
            (a, b) => {
                return Some((
                    line,
                    a.unwrap_or("<end of file>").to_string(),
                    b.unwrap_or("<end of file>").to_string(),
                ))
            }
        }
    }
}

fn check_against(current: &str, baseline_path: &str) -> ExitCode {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench gate: cannot read baseline {baseline_path}: {e}");
            eprintln!("bench gate: create it with: cp BENCH_compile.json BENCH_baseline.json");
            return ExitCode::FAILURE;
        }
    };
    let (Some(got), Some(want)) = (
        extract_section(current, "deterministic"),
        extract_section(&baseline, "deterministic"),
    ) else {
        eprintln!("bench gate: missing `deterministic` section (schema mismatch?)");
        eprintln!("bench gate: regenerate with: cp BENCH_compile.json BENCH_baseline.json");
        return ExitCode::FAILURE;
    };
    if got != want {
        let (line, g, w) = first_diff(&got, &want).expect("sections differ");
        eprintln!("bench gate: FAIL — deterministic work counters diverge from baseline");
        eprintln!("bench gate: first difference (line {line} of the section):");
        eprintln!("bench gate:   measured: {}", g.trim());
        eprintln!("bench gate:   baseline: {}", w.trim());
        eprintln!(
            "bench gate: if this perf/work change is intentional, update the baseline with:"
        );
        eprintln!("bench gate:   cp BENCH_compile.json BENCH_baseline.json");
        return ExitCode::FAILURE;
    }
    println!("bench gate: deterministic counters match the baseline");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--check" => Some(path.clone()),
        _ => {
            eprintln!("usage: cargo run -p bench [-- --check <BENCH_baseline.json>]");
            return ExitCode::FAILURE;
        }
    };
    let json = bench_json();
    if let Err(e) = std::fs::write(BENCH_OUT, &json) {
        eprintln!("error: cannot write {BENCH_OUT}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote BENCH_compile.json");
    match baseline {
        Some(path) => check_against(&json, &path),
        None => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "{\n  \"deterministic\": {\n    \"cells\": 32,\n    \
         \"counters\": {\n      \"a\": 1\n    }\n  },\n  \
         \"other\": {\"b\": 2}\n}\n";

    #[test]
    fn extract_section_balances_nested_braces() {
        let det = extract_section(SAMPLE, "deterministic").unwrap();
        assert!(det.starts_with('{') && det.ends_with('}'));
        assert!(det.contains("\"cells\": 32"));
        assert!(det.contains("\"a\": 1"));
        assert!(!det.contains("other"));
        assert!(extract_section(SAMPLE, "missing").is_none());
    }

    #[test]
    fn first_diff_names_the_line() {
        assert_eq!(first_diff("a\nb\nc", "a\nb\nc"), None);
        let (line, g, w) = first_diff("a\nX\nc", "a\nb\nc").unwrap();
        assert_eq!((line, g.as_str(), w.as_str()), (2, "X", "b"));
        let (line, g, _) = first_diff("a\nb\nextra", "a\nb").unwrap();
        assert_eq!((line, g.as_str()), (3, "extra"));
    }
}
