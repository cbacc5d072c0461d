//! The three workloads. Each is a closed loop with one client in one
//! process: the next iteration starts when the previous one returned.
//!
//! * `matrix_cold` — the full 8×4 matrix at `-O0`, every iteration on a
//!   fresh cache, cells in a seeded order. Scheduling dominates; opt,
//!   xcheck and cache replay are absent, so it shows the solver and the
//!   pool's makespan.
//! * `unit_o2_xcheck` — a seeded stream of single-cell requests at `-O2`,
//!   each followed by the X-propagation cross-check (`lnc <file> --core C
//!   --opt-level 2 --xcheck`). The stream is seeded shuffles of the 32
//!   cells, so every run holds the same mix. The frontend runs uncached on
//!   every request; the optimizer, its oracle gate and the simulators do
//!   most of the work.
//! * `serve_edit` — one long-lived, byte-capped daemon cache on one worker,
//!   primed to its cap, fed 32-job batches of inline sources; 30% of
//!   requests first give one seeded ISAX a fresh comment. The same cache is
//!   read (pure replay) and written (cone recompute), so a change that
//!   helps one path at the other's cost shows.
//!
//! Every set-up and iteration is followed by a reference sample (`speed`),
//! which the reported times are scaled by.

use crate::cells::{check_matrix, isaxes, matrix_cells, QualityLedger, Repeats};
use crate::layers::{self, backend, frontend, stage_spans, BackendCfg, Ledger};
use crate::speed::Speed;
use crate::stats::Rng;
use coredsl::Frontend;
use longnail::serve::{parse_job, run_serve};
use longnail::{
    xcheck_compiled, CompiledIsax, FlowError, Longnail, MatrixCell, MatrixResult, OptLevel,
    PipelineCache, StageCacheStats, XCheckReport,
};
use pool::Pool;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Share of `serve_edit` requests that edit one ISAX first, in percent.
const EDIT_PERCENT: usize = 30;

/// The `serve_edit` daemon's cache cap (`lnc serve --cache-mem-bytes`):
/// over twice the 3.5 MB the 32 cells' own entries take, so the current
/// sources stay cached while the entries of superseded edits are evicted.
/// An unbounded cache grows with every edit, so its peak RSS would follow
/// how many requests a run completes rather than what the daemon holds.
const SERVE_CACHE_BYTES: u64 = 8 << 20;

/// Most priming edits `serve_edit` makes to fill its cache to the cap.
const PRIME_LIMIT: usize = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatrixCold,
    UnitO2Xcheck,
    ServeEdit,
}

impl Workload {
    pub const ALL: [(&'static str, Workload); 3] = [
        ("matrix_cold", Workload::MatrixCold),
        ("unit_o2_xcheck", Workload::UnitO2Xcheck),
        ("serve_edit", Workload::ServeEdit),
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|&(n, _)| n)
            .expect("every workload is listed")
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Worker threads for the pooled workloads.
    pub workers: usize,
}

/// Output checks, counted per iteration.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("compilebench: {what} check failed: {e}");
            }
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub checks: Checker,
    /// Wall time of each timed iteration.
    pub latencies_ms: Vec<f64>,
    /// Cells (`matrix_cold`) or requests completed in timed iterations.
    pub work_items: u64,
    pub setups_s: Vec<f64>,
    pub quality: QualityLedger,
    pub ledger: Ledger,
    /// Worker threads one iteration ran on.
    pub workers: usize,
    /// `serve_edit` requests that edited a source.
    pub edits: u64,
    /// Reference samples taken after every set-up and timed iteration.
    pub speed: Speed,
    repeats: Repeats,
}

impl Run {
    /// Records a set-up that started at `t`, then a reference sample.
    fn set_up(&mut self, t: Instant) {
        self.setups_s.push(t.elapsed().as_secs_f64());
        self.speed.after_setup(self.workers);
    }

    /// Records a timed iteration, then a reference sample.
    fn sample(&mut self, wall_ns: u64, items: usize) {
        self.latencies_ms.push(wall_ns as f64 / 1e6);
        self.work_items += items as u64;
        self.speed.after_iteration(self.workers);
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn run(p: &Params) -> Result<Run, String> {
    match p.workload {
        Workload::MatrixCold => matrix_cold(p),
        Workload::UnitO2Xcheck => unit_o2_xcheck(p),
        Workload::ServeEdit => serve_edit(p),
    }
}

fn matrix_cold(p: &Params) -> Result<Run, String> {
    let mut run = Run {
        workers: p.workers,
        ..Run::default()
    };
    let mut rng = Rng::new(p.seed);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let ln = Longnail::new();
        let cells = matrix_cells(&isaxes()?);
        let warm = ln.compile_cells(&cells, p.workers, &PipelineCache::new());
        run.set_up(t);
        run.checks
            .record("warm-up", check_matrix(&warm, &mut run.repeats));
        fixture = Some((ln, cells));
    }
    let (ln, cells) = fixture.expect("at least one set-up");
    let fe = Frontend::new();
    let cfg = BackendCfg::of(&ln);
    let deadline = Duration::from_secs(p.seconds);
    let start = Instant::now();
    while start.elapsed() < deadline {
        let mut order = cells.clone();
        rng.shuffle(&mut order);
        let t = Instant::now();
        let m = ln.compile_cells(&order, p.workers, &PipelineCache::new());
        let wall = ns_since(t);
        run.sample(wall, order.len());
        let mut result = check_matrix(&m, &mut run.repeats);
        if result.is_ok() {
            run.quality.record_matrix(&m);
            if p.trace {
                result = trace_matrix(&m, &order, &fe, cfg, p.workers, wall, &mut run.ledger);
            }
        }
        run.checks.record("matrix", result);
    }
    Ok(run)
}

/// The traced decomposition of one matrix on the same number of workers:
/// frontend and lowering once per source (as the shared cache does), then
/// each cell's backend.
fn trace_matrix(
    m: &MatrixResult,
    order: &[MatrixCell],
    fe: &Frontend,
    cfg: BackendCfg,
    workers: usize,
    untraced_ns: u64,
    led: &mut Ledger,
) -> Result<(), String> {
    let t = Instant::now();
    let pool = Pool::new(workers);
    let mut sources: Vec<&MatrixCell> = Vec::new();
    for c in order {
        if !sources.iter().any(|s| s.isax == c.isax) {
            sources.push(c);
        }
    }
    let fronts = pool.run(sources.len(), |k| {
        let mut l = Ledger::default();
        let lil = frontend(fe, &sources[k].unit, &sources[k].src, &mut l);
        (l, lil)
    });
    let mut lils = Vec::new();
    for (s, (l, lil)) in sources.iter().zip(fronts) {
        led.merge(l);
        lils.push((s.isax.as_str(), lil?));
    }
    let lil_of = |isax: &str| {
        &lils
            .iter()
            .find(|(n, _)| *n == isax)
            .expect("every source lowered")
            .1
    };
    let backs = pool.run(order.len(), |k| {
        let mut l = Ledger::default();
        let cell = &order[k];
        let checked = match &m.entries[k].outcome {
            Ok(real) => backend(lil_of(&cell.isax), &cell.datasheet, cfg, real, &mut l),
            Err(e) => Err(e.to_string()),
        };
        (l, checked)
    });
    let traced_ns = ns_since(t);
    for (l, checked) in backs {
        led.merge(l);
        checked?;
    }
    for (_, c) in m.compiled() {
        let (modes, config) = stage_spans(c);
        led.add_layer_ns("driver.modes_ms", modes);
        led.add_layer_ns("driver.config_ms", config);
    }
    layers::record_qcache(&m.stage_stats, led);
    layers::record_pool(&m.pool_stats, led);
    led.close_iteration(untraced_ns, traced_ns, workers);
    Ok(())
}

/// One designer request: compile at `-O2`, then cross-check.
fn o2_request(ln: &Longnail, cell: &MatrixCell) -> Result<(CompiledIsax, XCheckReport), FlowError> {
    let compiled = ln.compile(&cell.src, &cell.unit, &cell.datasheet)?;
    let report = xcheck_compiled(&compiled);
    Ok((compiled, report))
}

fn check_o2_request(
    cell: &MatrixCell,
    out: &Result<(CompiledIsax, XCheckReport), FlowError>,
    repeats: &mut Repeats,
) -> Result<(), String> {
    let id = crate::cells::cell_id(&cell.isax, &cell.datasheet.core);
    let (compiled, report) = out.as_ref().map_err(|e| format!("{id}: {e}"))?;
    crate::cells::check_compiled(&cell.isax, compiled)?;
    if !report.is_clean() {
        return Err(format!("{id}: {}", report.summary()));
    }
    repeats.check(&id, compiled)
}

fn unit_o2_xcheck(p: &Params) -> Result<Run, String> {
    // Requests are compiled one at a time on the client's thread.
    let mut run = Run {
        workers: 1,
        ..Run::default()
    };
    let mut rng = Rng::new(p.seed);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut ln = Longnail::new();
        ln.opt_level = OptLevel::O2;
        let cells = matrix_cells(&isaxes()?);
        let warm: Vec<_> = cells.iter().map(|c| o2_request(&ln, c)).collect();
        run.set_up(t);
        for (cell, out) in cells.iter().zip(&warm) {
            run.checks
                .record("warm-up", check_o2_request(cell, out, &mut run.repeats));
        }
        fixture = Some((ln, cells));
    }
    let (ln, cells) = fixture.expect("at least one set-up");
    let fe = Frontend::new();
    let cfg = BackendCfg::of(&ln);
    let deadline = Duration::from_secs(p.seconds);
    let start = Instant::now();
    // Whole rounds only, so every run holds each cell equally often.
    while start.elapsed() < deadline {
        let mut round: Vec<&MatrixCell> = cells.iter().collect();
        rng.shuffle(&mut round);
        for cell in round {
            let t = Instant::now();
            let out = o2_request(&ln, cell);
            let wall = ns_since(t);
            run.sample(wall, 1);
            let mut result = check_o2_request(cell, &out, &mut run.repeats);
            if let (Ok(()), Ok((compiled, _))) = (&result, &out) {
                let id = crate::cells::cell_id(&cell.isax, &cell.datasheet.core);
                run.quality.record(&id, compiled);
                if p.trace {
                    result = trace_o2_request(cell, compiled, &fe, cfg, wall, &mut run.ledger);
                }
            }
            run.checks.record("request", result);
        }
    }
    Ok(run)
}

fn trace_o2_request(
    cell: &MatrixCell,
    real: &CompiledIsax,
    fe: &Frontend,
    cfg: BackendCfg,
    untraced_ns: u64,
    led: &mut Ledger,
) -> Result<(), String> {
    let t = Instant::now();
    let lil = frontend(fe, &cell.unit, &cell.src, led)?;
    backend(&lil, &cell.datasheet, cfg, real, led)?;
    let report = led.time("xcheck.ms", || xcheck_compiled(real));
    led.add(
        "xcheck.cycles",
        report.units.iter().map(|u| u.cycles).sum::<u64>() as f64,
    );
    led.add("xcheck.mismatches", report.mismatches() as f64);
    let traced_ns = ns_since(t);
    let (modes, config) = stage_spans(real);
    led.add_layer_ns("driver.modes_ms", modes);
    led.add_layer_ns("driver.config_ms", config);
    led.close_iteration(untraced_ns, traced_ns, 1);
    Ok(())
}

/// Whether a `serve_edit` request edits a source first, and which ISAX.
pub fn next_edit(rng: &mut Rng, isaxes: usize) -> Option<usize> {
    let edit = rng.below(100) < EDIT_PERCENT;
    edit.then(|| rng.below(isaxes))
}

/// Escapes a string for a JSON job line.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One `serve_edit` request: every cell as an inline `{unit, core, src}`
/// job, the exact result lines a clean daemon answers, and the cells.
fn serve_request(sources: &[(String, String, String)]) -> (String, String, Vec<MatrixCell>) {
    let cells = matrix_cells(sources);
    let mut input = String::new();
    let mut expected = String::new();
    for c in &cells {
        let id = crate::cells::cell_id(&c.isax, &c.datasheet.core);
        input.push_str(&format!(
            "{{\"id\": {}, \"unit\": {}, \"core\": {}, \"src\": {}}}\n",
            json_string(&id),
            json_string(&c.unit),
            json_string(&c.datasheet.core),
            json_string(&c.src)
        ));
        let units = crate::cells::expected_units(&c.isax).unwrap_or(0);
        expected.push_str(&format!(
            "{{\"id\": {}, \"status\": \"ok\", \"exit\": 0, \"units\": {units}, \"message\": \"\"}}\n",
            json_string(&id)
        ));
    }
    (input, expected, cells)
}

fn check_serve(out: &[u8], expected: &str) -> Result<(), String> {
    let got = std::str::from_utf8(out).map_err(|e| format!("result is not UTF-8: {e}"))?;
    if got == expected {
        return Ok(());
    }
    let (g, w) = got
        .lines()
        .zip(expected.lines())
        .find(|(g, w)| g != w)
        .unwrap_or(("<line count differs>", ""));
    Err(format!("daemon answered `{g}`, expected `{w}`"))
}

/// Per-stage cache activity between two snapshots of a long-lived cache.
fn stats_delta(
    before: &[(String, qcache::StageStats)],
    after: &[(String, qcache::StageStats)],
) -> Vec<StageCacheStats> {
    after
        .iter()
        .map(|(stage, a)| {
            let b = before
                .iter()
                .find(|(s, _)| s == stage)
                .map(|(_, b)| *b)
                .unwrap_or_default();
            StageCacheStats {
                stage: stage.clone(),
                hits: a.hits - b.hits,
                misses: a.misses - b.misses,
                waits: a.waits - b.waits,
            }
        })
        .collect()
}

fn serve_edit(p: &Params) -> Result<Run, String> {
    // The daemon at its default `--jobs 1`. With two workers, whether both
    // recompute a heavy cell at once decided a run's peak RSS (±8 MB).
    let p = &Params { workers: 1, ..*p };
    let mut run = Run {
        workers: p.workers,
        ..Run::default()
    };
    let mut rng = Rng::new(p.seed);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let ln = Longnail::new();
        let pipe = PipelineCache::new();
        pipe.store().set_capacity(Some(SERVE_CACHE_BYTES));
        let sources = isaxes()?;
        let (input, expected, cells) = serve_request(&sources);
        let mut out = Vec::new();
        run_serve(&ln, &pipe, p.workers, &input, &mut out).map_err(|e| format!("serve: {e}"))?;
        run.set_up(t);
        run.checks.record("warm-up", check_serve(&out, &expected));
        // The daemon's cached artifacts for every cell: the reference the
        // edited sources must reproduce byte for byte.
        let reference = ln.compile_cells(&cells, p.workers, &pipe);
        run.checks.record(
            "warm-up artifacts",
            check_matrix(&reference, &mut run.repeats),
        );
        run.quality.record_matrix(&reference);
        fixture = Some((ln, pipe, sources));
    }
    let (ln, pipe, mut sources) = fixture.expect("at least one set-up");
    let originals = sources.clone();
    // An edit replaces the previous one, so sources do not grow with the
    // number of requests a run completes.
    let edit = |sources: &mut [(String, String, String)], i: usize, comment: String| {
        sources[i].2 = format!("{}\n// {comment}\n", originals[i].2);
    };
    let mut out = Vec::new();
    // Untimed priming: edit every ISAX in turn until the cache is at its
    // cap, so every timed request sees the steady state of a full cache.
    let mut primes = 0;
    while pipe.store().tracked_bytes() < SERVE_CACHE_BYTES - SERVE_CACHE_BYTES / 8 {
        if primes == PRIME_LIMIT {
            return Err(format!("serve cache below its cap after {primes} edits"));
        }
        edit(
            &mut sources,
            primes % originals.len(),
            format!("prime {primes}"),
        );
        primes += 1;
        let (input, expected, _) = serve_request(&sources);
        out.clear();
        run_serve(&ln, &pipe, p.workers, &input, &mut out).map_err(|e| format!("serve: {e}"))?;
        run.checks.record("priming", check_serve(&out, &expected));
    }
    let fe = Frontend::new();
    let cfg = BackendCfg::of(&ln);
    let deadline = Duration::from_secs(p.seconds);
    let start = Instant::now();
    while start.elapsed() < deadline {
        let edited = next_edit(&mut rng, sources.len());
        if let Some(i) = edited {
            run.edits += 1;
            edit(&mut sources, i, format!("edit {}", run.edits));
        }
        let (input, expected, cells) = serve_request(&sources);
        let before = pipe.stage_stats();
        out.clear();
        let t = Instant::now();
        let served = run_serve(&ln, &pipe, p.workers, &input, &mut out);
        let wall = ns_since(t);
        served.map_err(|e| format!("serve: {e}"))?;
        run.sample(wall, 1);
        let mut result = check_serve(&out, &expected);
        if result.is_ok() && p.trace {
            let delta = stats_delta(&before, &pipe.stage_stats());
            let edited = edited.map(|i| sources[i].0.as_str());
            let ctx = ServeCtx {
                ln: &ln,
                pipe: &pipe,
                fe: &fe,
                cfg,
                workers: p.workers,
            };
            result = trace_serve(&ctx, &input, &cells, edited, &delta, wall, &mut run.ledger);
        }
        run.checks.record("request", result);
    }
    // Edits change bytes, not semantics: after all of them every cell's
    // artifacts still match the warm-up's.
    let last = ln.compile_cells(&matrix_cells(&sources), p.workers, &pipe);
    run.checks
        .record("final artifacts", check_matrix(&last, &mut run.repeats));
    Ok(run)
}

struct ServeCtx<'a> {
    ln: &'a Longnail,
    pipe: &'a PipelineCache,
    fe: &'a Frontend,
    cfg: BackendCfg,
    workers: usize,
}

/// The traced decomposition of one serve request: job parsing, the replay
/// path (the request's cells on the cache the request just filled, so
/// every stage hits), and for an edit the recomputed cone of the edited
/// ISAX, layer by layer.
fn trace_serve(
    cx: &ServeCtx<'_>,
    input: &str,
    cells: &[MatrixCell],
    edited: Option<&str>,
    delta: &[StageCacheStats],
    untraced_ns: u64,
    led: &mut Ledger,
) -> Result<(), String> {
    let t = Instant::now();
    led.time("serve.parse_ms", || {
        input.lines().map(parse_job).collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("parse: {e}"))?;
    let replay = cx.ln.compile_cells(cells, cx.workers, cx.pipe);
    let recomputed: u64 = replay.stage_stats.iter().map(|s| s.misses).sum();
    if recomputed > 0 {
        return Err(format!("replay recomputed {recomputed} stage value(s)"));
    }
    led.add_layer_ns("qcache.replay_ms", replay.pool_stats.run_total_ns());
    layers::record_pool(&replay.pool_stats, led);
    // Replayed stages: their spans sit inside the replay time above.
    for (_, c) in replay.compiled() {
        let (modes, config) = stage_spans(c);
        led.add("driver.modes_ms", modes as f64 / 1e6);
        led.add("driver.config_ms", config as f64 / 1e6);
    }
    if let Some(isax) = edited {
        let cone: Vec<usize> = (0..cells.len())
            .filter(|&k| cells[k].isax == isax)
            .collect();
        let first = &cells[*cone.first().ok_or("edited ISAX has no cells")?];
        let lil = frontend(cx.fe, &first.unit, &first.src, led)?;
        let backs = Pool::new(cx.workers).run(cone.len(), |j| {
            let k = cone[j];
            let mut l = Ledger::default();
            let checked = match &replay.entries[k].outcome {
                Ok(real) => backend(&lil, &cells[k].datasheet, cx.cfg, real, &mut l),
                Err(e) => Err(e.to_string()),
            };
            (l, checked)
        });
        for (l, checked) in backs {
            led.merge(l);
            checked?;
        }
    }
    let traced_ns = ns_since(t);
    layers::record_qcache(delta, led);
    led.close_iteration(untraced_ns, traced_ns, cx.workers);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_stream_is_a_function_of_the_seed() {
        let plan = |seed| {
            let mut rng = Rng::new(seed);
            (0..200).map(|_| next_edit(&mut rng, 8)).collect::<Vec<_>>()
        };
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(3), plan(4));
        let edits = plan(3).iter().flatten().count();
        assert!((40..=80).contains(&edits), "about 30% of 200: {edits}");
        assert!(plan(3).iter().flatten().all(|&i| i < 8));
    }

    #[test]
    fn job_lines_round_trip_through_the_daemon_parser() {
        let sources = vec![(
            "zol".to_string(),
            "zol".to_string(),
            "a \"quoted\"\tline\\\nnext\u{1}".to_string(),
        )];
        let (input, expected, cells) = serve_request(&sources);
        assert_eq!(cells.len(), 4);
        for (line, cell) in input.lines().zip(&cells) {
            let job = parse_job(line).expect("valid job line");
            assert_eq!(job.src.as_deref(), Some(cell.src.as_str()));
            assert_eq!(job.core, cell.datasheet.core);
        }
        assert!(expected.lines().all(|l| l.contains("\"units\": 2")));
    }

    #[test]
    fn workload_names_round_trip() {
        for (name, w) in Workload::ALL {
            assert_eq!(Workload::parse(name), Some(w));
            assert_eq!(w.name(), name);
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
