//! `lnc serve` — the compile daemon — plus the persistent cell-bundle
//! orchestration it shares with `lnc --matrix --cache-dir`.
//!
//! Serve mode reads line-delimited JSON compile jobs from stdin, fans
//! them over the worker pool with the same per-cell panic isolation as
//! a matrix batch, and writes one JSON result per job to stdout — in
//! input order, regardless of worker scheduling:
//!
//! ```text
//! {"id": "j1", "isax": "dotprod", "core": "ORCA"}
//! {"id": "j2", "unit": "MyIsax", "core": "Piccolo", "src": "InstructionSet MyIsax { ... }"}
//!   ──▶
//! {"id": "j1", "status": "ok", "exit": 0, "units": 1, "message": ""}
//! {"id": "j2", "status": "error", "exit": 1, "units": 0, "message": "..."}
//! ```
//!
//! A job either names a builtin evaluation ISAX (`isax`) or carries its
//! own CoreDSL source (`unit` + `src`); `core` is always one of the
//! evaluation cores. `status` is `ok` / `error` / `fault` with `exit`
//! mirroring the lnc exit-code convention (0 / 1 / 2); the daemon
//! process itself always exits 0 — per-job failure is data, not a crash.
//!
//! All jobs in one batch share a [`PipelineCache`], so ten jobs against
//! the same ISAX frontend pay for it once, and with `--cache-dir` the
//! whole-cell bundles persist across daemon restarts.

use crate::diag::Severity;
use crate::driver::{
    builtin_datasheet, CompiledIsax, FlowError, Longnail, MatrixCell, MatrixEntry, MatrixResult,
};
use crate::isax_lib;
use crate::pipeline::{cell_key, CellBundle, PipelineCache};
use qcache::DiskCache;
use rtl::opt::OptLevel;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;

/// Bundle pseudo-file carrying the rendered warning diagnostics of the
/// compile that produced the bundle. Never written into the cell's
/// output directory; replayed to stderr when the bundle is served so a
/// warm run reports what a cold run would.
pub const DIAGNOSTICS_FILE: &str = "__diagnostics";

/// Builds the persistent artifact bundle for one cleanly compiled cell:
/// exactly the files `lnc --matrix` writes into the cell directory (the
/// per-unit SystemVerilog, the SCAIE-V YAML, the stripped trace), plus
/// the [`DIAGNOSTICS_FILE`] pseudo-file when warnings were reported.
pub fn cell_bundle(compiled: &CompiledIsax) -> CellBundle {
    let mut bundle = CellBundle::default();
    for g in &compiled.graphs {
        bundle.push(format!("{}_{}.sv", compiled.name, g.name), g.verilog.clone());
    }
    bundle.push(
        format!("{}.scaiev.yaml", compiled.name),
        compiled.config.to_yaml(),
    );
    bundle.push("trace.jsonl", compiled.trace.stripped().to_jsonl());
    if !compiled.diagnostics.is_empty() {
        bundle.push(DIAGNOSTICS_FILE, compiled.diagnostics.render());
    }
    bundle
}

/// Number of compiled units a bundle carries (its `.sv` files).
pub fn bundle_units(bundle: &CellBundle) -> usize {
    bundle.files.iter().filter(|(n, _)| n.ends_with(".sv")).count()
}

/// Whether any planned fault targets this cell. Targeted cells bypass
/// the persistent layer in both directions: an injected failure must
/// fire identically warm or cold, and its artifacts must never be
/// trusted by healthy runs.
fn fault_bypassed(ln: &Longnail, cell: &MatrixCell) -> bool {
    ln.fault_plan
        .as_ref()
        .is_some_and(|p| p.targets_cell(&cell.unit, &cell.datasheet.core))
}

/// Probes the persistent layer for a cell's whole-artifact bundle.
/// `None` on absence, checksum/schema mismatch, or a malformed payload —
/// all of which mean "recompute", never "fail".
pub fn probe_cell(disk: &DiskCache, ln: &Longnail, cell: &MatrixCell) -> Option<CellBundle> {
    let key = cell_key(
        &cell.unit,
        &cell.src,
        &cell.datasheet,
        ln.chain_depth,
        ln.work_limit,
        &ln.config_fingerprint(),
    );
    CellBundle::from_bytes(&disk.load(&key)?)
}

/// Persists a freshly compiled cell's bundle if — and only if — the
/// compile was clean (warnings allowed, errors and faults not): a cell
/// that fails deterministically must keep failing warm, with the same
/// diagnostics, so failures are never served from disk.
///
/// # Errors
///
/// Propagates the I/O error from the atomic store; the cache stays
/// consistent (a failed store leaves no entry behind).
pub fn store_cell(
    disk: &DiskCache,
    ln: &Longnail,
    cell: &MatrixCell,
    compiled: &CompiledIsax,
) -> std::io::Result<bool> {
    if !matches!(
        compiled.diagnostics.worst(),
        None | Some(Severity::Warning)
    ) {
        return Ok(false);
    }
    let key = cell_key(
        &cell.unit,
        &cell.src,
        &cell.datasheet,
        ln.chain_depth,
        ln.work_limit,
        &ln.config_fingerprint(),
    );
    disk.store(&key, &cell_bundle(compiled).to_bytes())?;
    Ok(true)
}

/// One batch of cells through [`run_cells`].
pub struct CellRun {
    /// Per input cell, the stored bundle it was served from; `None` for
    /// every cell that was compiled instead.
    pub served: Vec<Option<CellBundle>>,
    /// The compiled cells: the `None` slots of `served`, in input order.
    pub matrix: MatrixResult,
    /// Cells whose bundle was looked up (fault-targeted cells never are).
    pub probed: u64,
}

/// Where one cell of a [`CellRun`] got its artifacts.
#[derive(Debug, Clone, Copy)]
pub enum CellSource<'a> {
    /// A stored bundle, written back verbatim.
    Disk(&'a CellBundle),
    /// A compile in this run.
    Compiled(&'a MatrixEntry),
}

impl CellRun {
    /// Every input cell's source, in input order.
    pub fn sources(&self) -> Vec<CellSource<'_>> {
        let mut compiled = self.matrix.entries.iter();
        self.served
            .iter()
            .map(|served| match served {
                Some(bundle) => CellSource::Disk(bundle),
                None => CellSource::Compiled(
                    compiled.next().expect("every cell not served was compiled"),
                ),
            })
            .collect()
    }
}

/// Runs a batch of cells under the persistent layer's rule, when `pipe`
/// has one: a cell with a stored bundle is served from it, every other
/// cell compiles through `pipe` ([`Longnail::compile_cells`]), and each
/// clean compile is stored for the next run. Cells a fault plan targets
/// bypass the disk in both directions. Without a persistent layer every
/// cell compiles where it stands.
pub fn run_cells(ln: &Longnail, pipe: &PipelineCache, cells: &[MatrixCell], jobs: usize) -> CellRun {
    let Some(disk) = pipe.disk() else {
        return CellRun {
            served: vec![None; cells.len()],
            matrix: ln.compile_cells(cells, jobs, pipe),
            probed: 0,
        };
    };
    let mut probed = 0;
    let served: Vec<Option<CellBundle>> = cells
        .iter()
        .map(|cell| {
            if fault_bypassed(ln, cell) {
                return None;
            }
            probed += 1;
            probe_cell(disk, ln, cell)
        })
        .collect();
    let misses: Vec<MatrixCell> = cells
        .iter()
        .zip(&served)
        .filter(|(_, s)| s.is_none())
        .map(|(c, _)| c.clone())
        .collect();
    let matrix = ln.compile_cells(&misses, jobs, pipe);
    let storable = misses.iter().zip(&matrix.entries).filter(|(c, _)| !fault_bypassed(ln, c));
    for (cell, entry) in storable {
        // store_cell itself refuses compiles with errors or faults.
        if let Ok(compiled) = &entry.outcome {
            if let Err(e) = store_cell(disk, ln, cell, compiled) {
                eprintln!("warning: cell cache store failed: {e}");
            }
        }
    }
    CellRun {
        served,
        matrix,
        probed,
    }
}

/// One parsed serve job: a builtin ISAX by display name, or inline
/// CoreDSL source, targeted at one evaluation core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Job {
    /// Caller-chosen correlation id, echoed back in the result.
    pub id: String,
    /// Builtin ISAX display name (`dotprod`, `zol`, …).
    pub isax: Option<String>,
    /// CoreDSL unit name, for inline-source jobs.
    pub unit: Option<String>,
    /// Target core name.
    pub core: String,
    /// Inline CoreDSL source text.
    pub src: Option<String>,
    /// Per-job optimization level override (`"0"` or `"2"`). Jobs
    /// without one compile at the daemon's `--opt-level`.
    pub opt_level: Option<OptLevel>,
}

/// Parses one job line: a flat JSON object with string values. The
/// hand-rolled parser accepts exactly the subset the protocol emits —
/// string keys, string values, `\"` `\\` `\/` `\n` `\r` `\t` `\uXXXX`
/// escapes — and rejects everything else with a message.
pub fn parse_job(line: &str) -> Result<Job, String> {
    let fields = parse_flat_object(line)?;
    let mut job = Job::default();
    for (k, v) in fields {
        match &*k {
            "id" => job.id = v.into_owned(),
            "isax" => job.isax = Some(v.into_owned()),
            "unit" => job.unit = Some(v.into_owned()),
            "core" => job.core = v.into_owned(),
            "src" => job.src = Some(v.into_owned()),
            "opt_level" => {
                let level = match *v.as_bytes() {
                    [digit] => OptLevel::from_level(digit.wrapping_sub(b'0')),
                    _ => None,
                };
                let level = level.ok_or_else(|| format!("opt_level `{v}` is not 0 or 2"))?;
                job.opt_level = Some(level);
            }
            other => return Err(format!("unknown job field `{other}`")),
        }
    }
    if job.core.is_empty() {
        return Err("job is missing `core`".into());
    }
    match (&job.isax, &job.src, &job.unit) {
        (Some(_), None, None) => Ok(job),
        (None, Some(_), Some(_)) => Ok(job),
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
            Err("give either `isax` or `unit`+`src`, not both".into())
        }
        _ => Err("job needs `isax` (builtin) or `unit`+`src` (inline source)".into()),
    }
}

/// The key/value pairs of one job line, in line order.
type Fields<'a> = Vec<(Cow<'a, str>, Cow<'a, str>)>;

/// Parses `{"k": "v", ...}` into key/value pairs. A string without
/// escapes is borrowed from `line`.
fn parse_flat_object(line: &str) -> Result<Fields<'_>, String> {
    let Some(mut rest) = line.trim_start().strip_prefix('{') else {
        return Err("job line is not a JSON object".into());
    };
    let mut fields = Vec::new();
    rest = rest.trim_start();
    if let Some(after) = rest.strip_prefix('}') {
        rest = after;
    } else {
        loop {
            let key = parse_string(&mut rest)?;
            let Some(after) = rest.trim_start().strip_prefix(':') else {
                return Err(format!("expected `:` after key `{key}`"));
            };
            rest = after.trim_start();
            let value = parse_string(&mut rest)?;
            fields.push((key, value));
            let mut chars = rest.trim_start().chars();
            let next = chars.next();
            rest = chars.as_str();
            match next {
                Some(',') => rest = rest.trim_start(),
                Some('}') => break,
                _ => return Err("expected `,` or `}` after a field".into()),
            }
        }
    }
    if !rest.trim_start().is_empty() {
        return Err("trailing bytes after the job object".into());
    }
    Ok(fields)
}

/// Parses the string literal `rest` starts with and advances `rest` past
/// it. The runs between escapes are copied whole; a literal without
/// escapes is borrowed.
fn parse_string<'a>(rest: &mut &'a str) -> Result<Cow<'a, str>, String> {
    let Some(mut tail) = rest.strip_prefix('"') else {
        return Err("expected a string (only string values are allowed)".into());
    };
    let mut out = Cow::Borrowed("");
    loop {
        let Some(end) = tail.find(['"', '\\']) else {
            return Err("unterminated string".into());
        };
        let (run, escape) = tail.split_at(end);
        if let Some(after) = escape.strip_prefix('"') {
            *rest = after;
            return Ok(match out {
                Cow::Borrowed(_) => Cow::Borrowed(run),
                Cow::Owned(mut s) => {
                    s.push_str(run);
                    Cow::Owned(s)
                }
            });
        }
        let out = out.to_mut();
        out.push_str(run);
        let mut chars = escape[1..].chars();
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let d = chars
                        .next()
                        .and_then(|c| c.to_digit(16))
                        .ok_or("bad \\u escape")?;
                    code = code * 16 + d;
                }
                out.push(char::from_u32(code).ok_or("bad \\u code point")?);
            }
            other => return Err(format!("unsupported escape `\\{}`", other.unwrap_or(' '))),
        }
        tail = chars.as_str();
    }
}

/// One job's outcome, in the lnc exit-code convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The job's correlation id, echoed back.
    pub id: String,
    /// `ok`, `error`, or `fault`.
    pub status: &'static str,
    /// 0 (clean), 1 (compile error), 2 (internal fault).
    pub exit: u8,
    /// Units compiled (instructions + always-blocks); 0 on failure.
    pub units: usize,
    /// First diagnostic, empty when ok.
    pub message: String,
}

impl JobResult {
    fn ok(id: &str, units: usize) -> JobResult {
        JobResult {
            id: id.to_string(),
            status: "ok",
            exit: 0,
            units,
            message: String::new(),
        }
    }

    fn failed(id: &str, status: &'static str, exit: u8, message: String) -> JobResult {
        JobResult {
            id: id.to_string(),
            status,
            exit,
            units: 0,
            message,
        }
    }

    /// The result of a compiled job: `ok` unless a unit failed (then the
    /// first diagnostic of the worst severity) or the whole cell did (then
    /// its stage and message). An internal fault answers `fault`, exit 2,
    /// like `lnc` on the same compile; anything else `error`, exit 1.
    fn from_outcome(id: &str, outcome: &Result<CompiledIsax, FlowError>) -> JobResult {
        let (severity, message) = match outcome {
            Ok(compiled) => match compiled.diagnostics.worst() {
                Some(worst) if worst >= Severity::Error => {
                    let first = compiled.diagnostics.of(worst).next();
                    (worst, first.map(ToString::to_string).unwrap_or_default())
                }
                _ => return JobResult::ok(id, compiled.graphs.len()),
            },
            Err(e) => (e.severity, e.to_string()),
        };
        let status = match severity {
            Severity::Fault => "fault",
            _ => "error",
        };
        JobResult::failed(id, status, severity.exit_code(), message)
    }

    /// The serialized result line (no trailing newline).
    pub fn to_json(&self) -> String {
        let quoted = |s: &str| {
            let mut out = String::with_capacity(s.len() + 2);
            telemetry::json::write_str(&mut out, s);
            out
        };
        format!(
            "{{\"id\": {}, \"status\": \"{}\", \"exit\": {}, \"units\": {}, \"message\": {}}}",
            quoted(&self.id),
            self.status,
            self.exit,
            self.units,
            quoted(&self.message)
        )
    }
}

/// Resolves a parsed job to a compilable matrix cell, moving the job's
/// strings into it.
fn resolve(job: Job) -> Result<MatrixCell, String> {
    let Some(datasheet) = builtin_datasheet(&job.core) else {
        return Err(format!(
            "unknown core `{}` (known: {})",
            job.core,
            crate::driver::EVAL_CORES.join(", ")
        ));
    };
    let (isax, unit, src) = match job {
        Job {
            isax: Some(name), ..
        } => {
            let Some((unit, src)) = isax_lib::isax_source(&name) else {
                return Err(format!("unknown builtin isax `{name}`"));
            };
            (name, unit, src)
        }
        Job {
            unit: Some(unit),
            src: Some(src),
            ..
        } => (unit.clone(), unit, src),
        _ => unreachable!("parse_job validated the shape"),
    };
    Ok(MatrixCell {
        isax,
        unit,
        src,
        datasheet,
    })
}

/// Runs one serve batch: parses every input line, serves what the
/// persistent layer already has, compiles the rest through the shared
/// cache with per-cell isolation, stores fresh clean bundles, and writes
/// one result line per job in input order.
///
/// # Errors
///
/// Only I/O errors writing `out`; job failures are result lines.
pub fn run_serve(
    ln: &Longnail,
    pipe: &PipelineCache,
    jobs: usize,
    input: &str,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let lines: Vec<&str> = input
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let base = ln.opt_level;
    let mut results: Vec<Option<JobResult>> = vec![None; lines.len()];
    // Resolved jobs by opt level: each one's `(result slot, id)` beside the
    // cell it compiles.
    let mut batches: BTreeMap<OptLevel, (Vec<_>, Vec<_>)> = BTreeMap::new();
    for (i, line) in lines.iter().enumerate() {
        let mut job = match parse_job(line) {
            Ok(j) => j,
            Err(msg) => {
                results[i] = Some(JobResult::failed("", "error", 1, format!("bad job: {msg}")));
                continue;
            }
        };
        let id = std::mem::take(&mut job.id);
        let level = job.opt_level.unwrap_or(base);
        let cell = match resolve(job) {
            Ok(c) => c,
            Err(msg) => {
                results[i] = Some(JobResult::failed(&id, "error", 1, msg));
                continue;
            }
        };
        let (slots, cells) = batches.entry(level).or_default();
        slots.push((i, id));
        cells.push(cell);
    }
    for (level, (slots, cells)) in batches {
        // Jobs that override the daemon's `--opt-level` compile on a
        // sibling compiler. Each level's cache keys embed its config
        // fingerprint, so batches at different levels never cross-serve
        // each other's artifacts.
        let sibling;
        let lnl = if level == base {
            ln
        } else {
            sibling = ln.with_opt_level(level);
            &sibling
        };
        let run = run_cells(lnl, pipe, &cells, jobs);
        for ((slot, id), source) in slots.iter().zip(run.sources()) {
            results[*slot] = Some(match source {
                CellSource::Disk(bundle) => JobResult::ok(id, bundle_units(bundle)),
                CellSource::Compiled(entry) => JobResult::from_outcome(id, &entry.outcome),
            });
        }
    }
    for r in results {
        writeln!(out, "{}", r.expect("every job line got a result").to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_builtin_and_inline_jobs() {
        let j = parse_job(r#"{"id": "a", "isax": "dotprod", "core": "ORCA"}"#).unwrap();
        assert_eq!(j.id, "a");
        assert_eq!(j.isax.as_deref(), Some("dotprod"));
        assert_eq!(j.core, "ORCA");
        let j = parse_job(r#"{"id":"b","unit":"U","core":"Piccolo","src":"x \"y\"\n"}"#).unwrap();
        assert_eq!(j.src.as_deref(), Some("x \"y\"\n"));
        assert_eq!(j.unit.as_deref(), Some("U"));
    }

    #[test]
    fn rejects_malformed_jobs_with_messages() {
        assert!(parse_job("not json").unwrap_err().contains("JSON object"));
        assert!(parse_job(r#"{"id": 3}"#).unwrap_err().contains("string"));
        assert!(parse_job(r#"{"id": "a"}"#).unwrap_err().contains("core"));
        assert!(parse_job(r#"{"core": "ORCA"}"#).unwrap_err().contains("isax"));
        assert!(parse_job(r#"{"core": "ORCA", "isax": "d", "src": "s", "unit": "u"}"#)
            .unwrap_err()
            .contains("not both"));
        assert!(parse_job(r#"{"core": "ORCA", "zzz": "1"}"#)
            .unwrap_err()
            .contains("zzz"));
        assert!(parse_job(r#"{"core": "ORCA"} trailing"#)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let j = parse_job(r#"{"id": "A\t", "isax": "d", "core": "ORCA"}"#).unwrap();
        assert_eq!(j.id, "A\t");
        let r = JobResult::failed("A\t\"x\"", "error", 1, "line\nbreak".into());
        assert_eq!(
            r.to_json(),
            r#"{"id": "A\t\"x\"", "status": "error", "exit": 1, "units": 0, "message": "line\nbreak"}"#
        );
    }

    #[test]
    fn serve_batch_reports_per_job_status_in_input_order() {
        let ln = Longnail::new();
        let pipe = PipelineCache::new();
        let input = concat!(
            r#"{"id": "good", "isax": "dotprod", "core": "ORCA"}"#,
            "\n",
            r#"{"id": "badcore", "isax": "dotprod", "core": "Z80"}"#,
            "\n",
            "this is not json\n",
            r#"{"id": "inline", "unit": "Broken", "core": "ORCA", "src": "InstructionSet Broken {"}"#,
            "\n",
        );
        let mut out = Vec::new();
        run_serve(&ln, &pipe, 2, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains(r#""id": "good", "status": "ok", "exit": 0"#), "{text}");
        assert!(lines[1].contains(r#""id": "badcore", "status": "error""#), "{text}");
        assert!(lines[2].contains(r#""status": "error""#), "{text}");
        assert!(lines[3].contains(r#""id": "inline", "status": "error", "exit": 1"#), "{text}");
    }

    #[test]
    fn a_unit_fault_answers_fault_with_its_first_line() {
        // What a netlist lint finding leaves behind: the cell compiles, but
        // its only unit is dropped with a fault-severity diagnostic.
        let ds = builtin_datasheet("ORCA").unwrap();
        let (unit, src) = isax_lib::isax_source("dotprod").unwrap();
        let mut compiled = Longnail::new().compile(&src, &unit, &ds).unwrap();
        compiled.graphs.clear();
        let diags = &mut compiled.diagnostics;
        diags.fault("netlist", Some("dotp"), None, "planted lint");
        let r = JobResult::from_outcome("j", &Ok(compiled.clone()));
        assert_eq!((r.status, r.exit, r.units), ("fault", 2, 0), "{r:?}");
        assert_eq!(r.message, "internal fault[netlist] `dotp`: planted lint");
        // A unit error next to the fault does not mask it.
        let diags = &mut compiled.diagnostics;
        diags.error("lower", Some("dotp"), None, "planted error");
        let r = JobResult::from_outcome("j", &Ok(compiled.clone()));
        assert_eq!((r.status, r.exit), ("fault", 2), "{r:?}");
        // Errors alone answer `error` with the first error line.
        let diags = &mut compiled.diagnostics;
        diags.events.retain(|e| e.severity != Severity::Fault);
        let r = JobResult::from_outcome("j", &Ok(compiled));
        assert_eq!((r.status, r.exit), ("error", 1), "{r:?}");
        assert_eq!(r.message, "error[lower] `dotp`: planted error");
    }

    #[test]
    fn parses_and_validates_the_opt_level_field() {
        let j = parse_job(r#"{"id": "a", "isax": "dotprod", "core": "ORCA", "opt_level": "2"}"#)
            .unwrap();
        assert_eq!(j.opt_level, Some(OptLevel::O2));
        let j = parse_job(r#"{"id": "a", "isax": "dotprod", "core": "ORCA"}"#).unwrap();
        assert_eq!(j.opt_level, None);
        for level in ["1", "3", "00", "+2", "２", ""] {
            let line =
                format!(r#"{{"id": "a", "isax": "dotprod", "core": "ORCA", "opt_level": "{level}"}}"#);
            assert_eq!(
                parse_job(&line).unwrap_err(),
                format!("opt_level `{level}` is not 0 or 2")
            );
        }
    }

    #[test]
    fn jobs_at_mixed_opt_levels_compile_in_one_batch() {
        let ln = Longnail::new();
        let pipe = PipelineCache::new();
        let input = concat!(
            r#"{"id": "plain", "isax": "dotprod", "core": "ORCA"}"#,
            "\n",
            r#"{"id": "opt", "isax": "dotprod", "core": "ORCA", "opt_level": "2"}"#,
            "\n",
        );
        let mut out = Vec::new();
        run_serve(&ln, &pipe, 1, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains(r#""id": "plain", "status": "ok", "exit": 0"#), "{text}");
        assert!(lines[1].contains(r#""id": "opt", "status": "ok", "exit": 0"#), "{text}");
        // The -O2 job ran the opt stage through the shared cache; the -O0
        // job did not (its key cone has no opt entry to look up).
        let stats: std::collections::HashMap<_, _> = pipe.stage_stats().into_iter().collect();
        let opt = stats.get("opt").copied().unwrap_or_default();
        assert_eq!(opt.misses, 1, "exactly the -O2 job's unit optimizes");
    }

    #[test]
    fn serve_shares_the_frontend_across_jobs() {
        let ln = Longnail::new();
        let pipe = PipelineCache::new();
        let input = concat!(
            r#"{"id": "1", "isax": "dotprod", "core": "ORCA"}"#,
            "\n",
            r#"{"id": "2", "isax": "dotprod", "core": "Piccolo"}"#,
            "\n",
        );
        let mut out = Vec::new();
        run_serve(&ln, &pipe, 1, input, &mut out).unwrap();
        let stats: std::collections::HashMap<_, _> = pipe.stage_stats().into_iter().collect();
        let fe = stats.get("frontend").copied().unwrap_or_default();
        assert_eq!((fe.misses, fe.hits), (1, 1), "one parse, one reuse");
    }
}
