//! The traced run: every layer's public entry point called and timed from
//! outside the compiler, on the same inputs the untraced iteration just
//! compiled, plus cross-checks that the re-run did the same work (same
//! schedules and solver pivots, same optimizer rewrites, same Verilog).
//!
//! The calls mirror what the compiler does per cell: frontend and
//! lowering once per source; per unit the scheduling problem, the budgeted
//! solve, netlist construction, lint, the area/timing estimate, the `-O2`
//! passes with their oracle gate, and Verilog emission.

use coredsl::Frontend;
use eda::TechLibrary;
use ir::lil::{Graph, GraphKind, LilModule, OpKind};
use longnail::driver::{lil_iface_op, UNIFORM_DELAY, UNIT_NS};
use longnail::CompiledIsax;
use rtl::build::build_graph_module;
use rtl::lint::{comb_depth, lint_module};
use rtl::netlist::Module;
use rtl::opt::{run_pass, verify_equivalent, OptLevel, Pass};
use rtl::verilog::{emit_verilog, EmitOptions};
use scaiev::VirtualDatasheet;
use sched::problem::{LongnailProblem, OperationId, OperatorType, OperatorTypeId};
use sched::{schedule_resilient, Budget, WorkKind};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use telemetry::metrics;

/// `rtl::opt`'s fixpoint cap (private there).
const OPT_MAX_ITERATIONS: u32 = 8;
/// Lockstep cycles of the compiler's `-O2` oracle gate (private there).
const OPT_GATE_CYCLES: u32 = 32;

/// Each `rtl::opt` pass with its per-layer metric names and the trace
/// counter the compiler records its rewrites under.
const PASSES: [(Pass, &str, &str, &str); 6] = [
    (
        Pass::Fold,
        "rtl.opt.fold_ms",
        "rtl.opt.fold_rewrites",
        metrics::OPT_REWRITES_FOLD,
    ),
    (
        Pass::Cse,
        "rtl.opt.cse_ms",
        "rtl.opt.cse_rewrites",
        metrics::OPT_REWRITES_CSE,
    ),
    (
        Pass::Mux,
        "rtl.opt.mux_ms",
        "rtl.opt.mux_rewrites",
        metrics::OPT_REWRITES_MUX,
    ),
    (
        Pass::Strength,
        "rtl.opt.strength_ms",
        "rtl.opt.strength_rewrites",
        metrics::OPT_REWRITES_STRENGTH,
    ),
    (
        Pass::Narrow,
        "rtl.opt.narrow_ms",
        "rtl.opt.narrow_rewrites",
        metrics::OPT_REWRITES_NARROW,
    ),
    (
        Pass::Dce,
        "rtl.opt.dce_ms",
        "rtl.opt.dce_rewrites",
        metrics::OPT_REWRITES_DCE,
    ),
];

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-layer sums over the traced iterations. Names starting with `_` are
/// internal numerators and denominators of the ratio metrics.
#[derive(Debug, Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Adds a layer time measured elsewhere (in ns) under `name` (in ms)
    /// and into `_layer_ns`, the numerator of `trace.coverage`.
    pub fn add_layer_ns(&mut self, name: &'static str, ns: u64) {
        self.add(name, ns as f64 / 1e6);
        self.add("_layer_ns", ns as f64);
    }

    /// Runs `f` as one call into a layer, charging its wall time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add_layer_ns(name, ns_since(t));
        out
    }

    pub fn merge(&mut self, other: Ledger) {
        for (name, v) in other.sums {
            self.add(name, v);
        }
    }

    /// Closes one traced iteration: the untraced wall it is compared with,
    /// the traced wall, and the worker threads both ran on.
    pub fn close_iteration(&mut self, untraced_ns: u64, traced_ns: u64, workers: usize) {
        self.add("_iterations", 1.0);
        self.add("_untraced_ns", untraced_ns as f64);
        self.add("_traced_ns", traced_ns as f64);
        self.add("_capacity_ns", untraced_ns as f64 * workers as f64);
    }

    /// Mean per traced iteration of each per-layer metric; the ratio
    /// metrics are ratios of their sums.
    pub fn per_iteration(&self, name: &str) -> f64 {
        use crate::stats::ratio;
        match name {
            "ilp.us_per_pivot" => ratio(self.get("sched.solve_ms") * 1e3, self.get("ilp.pivots")),
            "qcache.hit_ratio" => ratio(self.get("_qcache_hits"), self.get("_qcache_lookups")),
            "pool.busy_ratio" => ratio(self.get("_pool_busy_ns"), self.get("_pool_capacity_ns")),
            "trace.coverage" => ratio(self.get("_layer_ns"), self.get("_capacity_ns")),
            "trace.overhead_ratio" => ratio(self.get("_traced_ns"), self.get("_untraced_ns")),
            _ => ratio(self.get(name), self.get("_iterations")),
        }
    }
}

/// Frontend (`coredsl`) and lowering (`ir`) of one source.
pub fn frontend(
    fe: &Frontend,
    unit: &str,
    src: &str,
    led: &mut Ledger,
) -> Result<LilModule, String> {
    let out = led.time("coredsl.ms", || fe.compile_str_all(src, unit));
    led.add("coredsl.bytes", src.len() as f64);
    if let Some(first) = out.errors.first() {
        return Err(format!("{unit}: frontend: {first}"));
    }
    let module = out
        .module
        .ok_or_else(|| format!("{unit}: frontend produced no module"))?;
    let lil = led.time("ir.lower_ms", || -> Result<LilModule, String> {
        let lil = ir::lower_module(&module).map_err(|e| format!("{unit}: lower: {e}"))?;
        for g in &lil.graphs {
            ir::verify_graph(g, &lil)
                .map_err(|errs| format!("{unit}/{}: {} verifier error(s)", g.name, errs.len()))?;
        }
        Ok(lil)
    })?;
    led.add("ir.graphs", lil.graphs.len() as f64);
    led.add(
        "ir.ops",
        lil.graphs.iter().map(Graph::len).sum::<usize>() as f64,
    );
    Ok(lil)
}

/// What the backend of one cell is compiled with.
#[derive(Debug, Clone, Copy)]
pub struct BackendCfg {
    pub opt: OptLevel,
    pub work_limit: u64,
    pub chain_depth: f64,
}

impl BackendCfg {
    pub fn of(ln: &longnail::Longnail) -> BackendCfg {
        BackendCfg {
            opt: ln.opt_level,
            work_limit: ln.work_limit,
            chain_depth: ln.chain_depth,
        }
    }
}

/// The backend of one cell, unit by unit, checked against `real` — the
/// untraced compile of the same cell.
pub fn backend(
    lil: &LilModule,
    ds: &VirtualDatasheet,
    cfg: BackendCfg,
    real: &CompiledIsax,
    led: &mut Ledger,
) -> Result<(), String> {
    let id = format!("{}@{}", real.name, real.core);
    if lil.graphs.len() != real.graphs.len() {
        return Err(format!(
            "{id}: traced run lowered {} units",
            lil.graphs.len()
        ));
    }
    let mut pivots = 0;
    let mut rewrites = [0u64; 6];
    let mut iterations = 0;
    for (graph, real_g) in lil.graphs.iter().zip(&real.graphs) {
        let unit = format!("{id}/{}", graph.name);
        let is_always = graph.kind == GraphKind::Always;
        let (mut problem, op_ids) = led.time("sched.problem_ms", || {
            build_problem(graph, is_always, ds, cfg.chain_depth)
        })?;
        led.add("sched.deps", problem.dependences.len() as f64);
        let budget = Budget::new(cfg.work_limit);
        let outcome = led
            .time("sched.solve_ms", || {
                schedule_resilient(&mut problem, &budget)
            })
            .map_err(|e| format!("{unit}: schedule: {e}"))?;
        pivots += budget.count(WorkKind::Pivot);
        led.add("ilp.pivots", budget.count(WorkKind::Pivot) as f64);
        led.add("ilp.presolve", budget.count(WorkKind::Presolve) as f64);
        led.add("ilp.rounds", budget.count(WorkKind::Round) as f64);
        led.add("ilp.nodes", budget.count(WorkKind::Node) as f64);
        led.add("sched.fallbacks", f64::from(u8::from(!outcome.is_exact())));
        let start: Vec<u32> = op_ids
            .iter()
            .map(|op| outcome.schedule.start_time[op.0])
            .collect();
        if start != real_g.schedule.start_time {
            return Err(format!(
                "{unit}: traced schedule differs from the compiler's"
            ));
        }

        let read_latency = |kind: &OpKind| -> u32 {
            lil_iface_op(kind)
                .and_then(|op| ds.timing(&op))
                .map_or(0, |t| t.latency)
        };
        let built = led.time("rtl.build_ms", || {
            build_graph_module(graph, lil, &start, &read_latency)
        });
        led.add("rtl.nets", built.module.nets.len() as f64);
        led.time("rtl.lint_ms", || {
            lint_module(&built.module).map(|()| comb_depth(&built.module))
        })
        .map_err(|found| format!("{unit}: lint: {} finding(s)", found.len()))?;
        led.time("eda.estimate_ms", || {
            eda::estimate_module(&TechLibrary::new(), &built.module)
        });

        let module = if cfg.opt == OptLevel::O0 {
            built.module
        } else {
            match optimize(&built.module, cfg.opt, led) {
                Ok((optimized, counts, iters)) => {
                    for (total, n) in rewrites.iter_mut().zip(counts) {
                        *total += n;
                    }
                    iterations += iters;
                    optimized
                }
                Err(why) => {
                    eprintln!("compilebench: {unit}: optimizer fell back: {why}");
                    led.add("rtl.opt.fallbacks", 1.0);
                    built.module
                }
            }
        };
        let verilog = led.time("rtl.verilog_ms", || emit_verilog(&module));
        led.add("rtl.verilog_bytes", verilog.len() as f64);
        if verilog != real_g.verilog {
            return Err(format!(
                "{unit}: traced Verilog differs from the compiler's"
            ));
        }
    }
    let real_pivots = real.trace.counter_total(metrics::SOLVER_PIVOTS);
    if pivots != real_pivots {
        return Err(format!(
            "{id}: traced problems took {pivots} pivots, the compiler {real_pivots}"
        ));
    }
    if cfg.opt != OptLevel::O0 {
        for ((_, _, _, counter), ours) in PASSES.iter().zip(rewrites) {
            let theirs = real.trace.counter_total(counter);
            if ours != theirs {
                return Err(format!(
                    "{id}: traced {counter} = {ours}, the compiler's {theirs}"
                ));
            }
        }
        let real_iterations = real.trace.counter_total(metrics::OPT_ITERATIONS);
        if u64::from(iterations) != real_iterations {
            return Err(format!(
                "{id}: traced opt iterations {iterations}, the compiler's {real_iterations}"
            ));
        }
    }
    Ok(())
}

/// `rtl::opt::optimize` pass by pass through `run_pass`, then the compiler's
/// oracle gate and its before/after estimates. Returns the optimized
/// module, rewrites per pass in [`PASSES`] order, and fixpoint iterations;
/// an error means the compiler would have fallen back to `original`.
fn optimize(
    original: &Module,
    level: OptLevel,
    led: &mut Ledger,
) -> Result<(Module, [u64; 6], u32), String> {
    let opts = EmitOptions::default();
    let mut m = original.clone();
    let mut rewrites = [0u64; 6];
    let mut iterations = 0;
    for _ in 0..OPT_MAX_ITERATIONS {
        // DCE's removals do not count toward the fixpoint, as in `optimize`.
        let mut changed = 0;
        for (k, &(pass, ms, count_name, _)) in PASSES.iter().enumerate() {
            if pass == Pass::Narrow && level < OptLevel::O2 {
                continue;
            }
            let (next, count) = led.time(ms, || run_pass(&m, pass, &opts))?;
            m = next;
            rewrites[k] += count;
            led.add(count_name, count as f64);
            if pass != Pass::Dce {
                changed += count;
            }
        }
        iterations += 1;
        if changed == 0 {
            break;
        }
    }
    led.add("rtl.opt.iterations", f64::from(iterations));
    led.time("rtl.opt.gate_ms", || {
        lint_module(&m)
            .map_err(|found| format!("optimized netlist failed lint: {} finding(s)", found.len()))
            .and_then(|()| verify_equivalent(original, &m, &opts, OPT_GATE_CYCLES))
    })?;
    led.time("eda.estimate_ms", || {
        let lib = TechLibrary::new();
        (
            eda::estimate_module(&lib, original),
            eda::estimate_module(&lib, &m),
        )
    });
    Ok((m, rewrites, iterations))
}

/// The compiler's scheduling problem for one graph, built from the public
/// `sched` API: operator types per mnemonic and spawn flag, interface
/// operations timed by the core's datasheet, and one dependence per
/// operand and predicate edge.
fn build_problem(
    graph: &Graph,
    is_always: bool,
    ds: &VirtualDatasheet,
    chain_depth: f64,
) -> Result<(LongnailProblem, Vec<OperationId>), String> {
    let cycle_time = if ds.clock_ns > 0.0 {
        (ds.clock_ns / UNIT_NS).max(2.0)
    } else {
        chain_depth
    };
    let mut problem = LongnailProblem {
        cycle_time,
        ..LongnailProblem::default()
    };
    let mut types: HashMap<String, OperatorTypeId> = HashMap::new();
    let mut ids = Vec::with_capacity(graph.len());
    for (_, op) in graph.iter() {
        let name = op.kind.mnemonic();
        let key = format!("{name}/{}", op.in_spawn);
        let tid = match types.get(&key) {
            Some(&t) => t,
            None => {
                let t = problem.add_operator_type(operator_type(&op.kind, is_always, ds)?);
                types.insert(key, t);
                t
            }
        };
        ids.push(problem.add_operation(&name, tid));
    }
    for (v, op) in graph.iter() {
        for &u in op.operands.iter().chain(op.pred.iter()) {
            problem.add_dependence(ids[u.0], ids[v.0]);
        }
    }
    Ok((problem, ids))
}

fn operator_type(
    kind: &OpKind,
    is_always: bool,
    ds: &VirtualDatasheet,
) -> Result<OperatorType, String> {
    let name = kind.mnemonic();
    if let Some(iface) = lil_iface_op(kind) {
        if is_always {
            return Ok(OperatorType::combinational(&name, 0.0).with_window(0, Some(0)));
        }
        let timing = ds
            .timing(&iface)
            .ok_or_else(|| format!("datasheet of {} lacks {}", ds.core, iface.key()))?;
        let latest = match kind {
            OpKind::WriteRd | OpKind::ReadMem | OpKind::WriteMem | OpKind::WriteCustReg(_) => None,
            _ => timing.latest,
        };
        let mut ot = OperatorType::sequential(&name, timing.latency, 0.0);
        ot.earliest = timing.earliest;
        ot.latest = latest;
        return Ok(ot);
    }
    let delay = match kind {
        OpKind::Const(_)
        | OpKind::Sink
        | OpKind::Concat
        | OpKind::Replicate(_)
        | OpKind::ExtractConst { .. }
        | OpKind::ZExt
        | OpKind::SExt
        | OpKind::Trunc => 0.0,
        OpKind::Mux | OpKind::Not => 0.2,
        _ => UNIFORM_DELAY,
    };
    Ok(OperatorType::combinational(&name, delay))
}

/// The `modes` and `config` stages have no public entry; their time is read
/// from the spans the compiler records in each compilation's trace.
pub fn stage_spans(c: &CompiledIsax) -> (u64, u64) {
    (
        c.trace.span_durations_ns("modes").iter().sum(),
        c.trace.span_durations_ns("config").iter().sum(),
    )
}

/// Per-stage cache activity of one iteration.
pub fn record_qcache(stats: &[longnail::StageCacheStats], led: &mut Ledger) {
    for s in stats {
        led.add("_qcache_hits", s.hits as f64);
        led.add("_qcache_lookups", (s.hits + s.misses) as f64);
        led.add("qcache.waits", s.waits as f64);
        if let Some(name) = qcache_misses_metric(&s.stage) {
            led.add(name, s.misses as f64);
        }
    }
}

/// `qcache.<stage>.misses` for each of the nine pipeline stages.
pub const QCACHE_MISSES: [&str; 9] = [
    "qcache.frontend.misses",
    "qcache.lower.misses",
    "qcache.problem.misses",
    "qcache.solve.misses",
    "qcache.modes.misses",
    "qcache.rtl.misses",
    "qcache.opt.misses",
    "qcache.verilog.misses",
    "qcache.config.misses",
];

fn qcache_misses_metric(stage: &str) -> Option<&'static str> {
    telemetry::STAGES
        .iter()
        .position(|s| *s == stage)
        .map(|k| QCACHE_MISSES[k])
}

/// The worker pool's view of one batch: busy share, queue wait, and the
/// slowest job (which sets the makespan).
pub fn record_pool(stats: &pool::RunStats, led: &mut Ledger) {
    let busy: u64 = stats.per_worker.iter().map(|w| w.busy_ns).sum();
    led.add("_pool_busy_ns", busy as f64);
    led.add(
        "_pool_capacity_ns",
        stats.wall_ns as f64 * stats.per_worker.len() as f64,
    );
    led.add(
        "pool.queue_wait_ms",
        stats.queue_wait_total_ns() as f64 / 1e6,
    );
    let max = stats.per_job.iter().map(|j| j.run_ns).max().unwrap_or(0);
    led.add("pool.max_job_ms", max as f64 / 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qcache_metric_per_stage() {
        assert_eq!(telemetry::STAGES.len(), QCACHE_MISSES.len());
        for (stage, name) in telemetry::STAGES.iter().zip(QCACHE_MISSES) {
            assert_eq!(name, format!("qcache.{stage}.misses"));
        }
        assert_eq!(qcache_misses_metric("cell"), None);
    }
}
