//! The Longnail HLS driver (paper §4).
//!
//! Compiles an ISAX through the full stack: frontend → LIL lowering →
//! core-aware scheduling (the *LongnailProblem*, solved with the Figure 7
//! ILP against the core's virtual datasheet) → execution-mode selection
//! (§4.3) → hardware construction and SystemVerilog emission (§4.5) →
//! SCAIE-V configuration file (§4.6).
//!
//! All nine stages go through one per-cell runner: it crosses the stage
//! boundary (panic attribution and planned faults), opens the stage span,
//! shares or computes the stage's value in the [`PipelineCache`] store,
//! replays the value's telemetry tape and closes the span, so each span
//! times its stage's work or its lookup.

use crate::diag::{Diagnostics, Severity};
use crate::faults::{FaultKind, FaultPlan};
use crate::pipeline::{self, PipelineCache, StageCacheStats, StageVal, Tape};
use coredsl::error::{codes, Diagnostic, Span};
use coredsl::tast::TypedModule;
use coredsl::Frontend;
use eda::TechLibrary;
use ir::lil::{Graph, GraphKind, LilModule, Op, OpKind};
use ir::{lower_always, lower_instruction, lower_state, verify_graph};
use pool::Pool;
use qcache::{Digest, Lookup};
use rtl::build::{build_graph_module, BuiltModule};
use rtl::lint::{comb_depth, lint_module};
use rtl::opt::{optimize, verify_equivalent, OptLevel};
use rtl::verilog::{emit_verilog, EmitOptions};
use scaiev::config::{Functionality, IsaxConfig, RegisterRequest, ScheduleEntry};
use scaiev::datasheet::{Timing, VirtualDatasheet};
use scaiev::iface::SubInterfaceOp;
use scaiev::modes::{select_mode, ExecutionMode};
use sched::problem::{LongnailProblem, OperationId, OperatorType, OperatorTypeId, Schedule};
use sched::resilient::DegradationReason;
use sched::{schedule_resilient, Budget, WorkKind};
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use telemetry::{metrics, SpanId, Telemetry, Trace};

/// Abstract combinational-delay unit assigned to every "real" logic level.
///
/// The paper "currently assume[s] uniform delays and area for logic and
/// non-combinational sub-interface operations" (§4.2); a real technology
/// library is future work there, and the calibrated 22 nm model lives in
/// the `eda` crate here. Pure wiring (extracts, concats, extensions) costs
/// nothing.
pub const UNIFORM_DELAY: f64 = 1.0;

/// Default chaining budget: how many uniform logic levels fit in one
/// pipeline stage, used when the datasheet does not specify a target
/// clock. Chosen so that the 32-iteration digit-recurrence square root
/// spreads over ~10 stages, matching the paper's observation.
pub const DEFAULT_CHAIN_DEPTH: f64 = 6.0;

/// Physical duration of one uniform logic level (≈ a 32-bit adder in the
/// 22 nm model). When the datasheet carries a target clock period, the
/// per-stage chaining budget becomes `clock_ns / UNIT_NS`: fast cores chain
/// fewer levels per stage and therefore pipeline ISAXes more deeply.
pub const UNIT_NS: f64 = 0.22;

/// Error from any stage of the flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowError {
    /// Flow stage that failed (`frontend`, `lower`, `schedule`, ...).
    pub stage: &'static str,
    pub message: String,
    /// How bad the failure is: [`Severity::Error`] for rejected input,
    /// [`Severity::Fault`] for internal failures (contained panics,
    /// poisoned caches) — drives the exit code and matrix accounting.
    pub severity: Severity,
    /// The full coded diagnostic list behind a `frontend` failure. The
    /// frontend accumulates independent errors instead of stopping at
    /// the first one; `message` summarizes, this field carries them all.
    pub frontend_errors: Vec<Diagnostic>,
}

impl FlowError {
    /// An ordinary stage error (exit-code-1 territory).
    pub fn error(stage: &'static str, message: impl Into<String>) -> Self {
        FlowError {
            stage,
            message: message.into(),
            severity: Severity::Error,
            frontend_errors: Vec::new(),
        }
    }

    /// An internal fault (contained panic, poisoned state; exit code 2).
    pub fn fault(stage: &'static str, message: impl Into<String>) -> Self {
        FlowError {
            stage,
            message: message.into(),
            severity: Severity::Fault,
            frontend_errors: Vec::new(),
        }
    }

    /// A frontend failure carrying every accumulated coded diagnostic.
    /// The summary message is the first diagnostic (matching the old
    /// fail-fast behavior) plus a count of the rest.
    pub fn frontend(errors: Vec<Diagnostic>) -> Self {
        let message = match errors.as_slice() {
            [] => "frontend failed without diagnostics".to_string(),
            [only] => only.to_string(),
            [first, rest @ ..] => format!("{first} (and {} more error(s))", rest.len()),
        };
        FlowError {
            stage: "frontend",
            message,
            severity: Severity::Error,
            frontend_errors: errors,
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.message)
    }
}

impl std::error::Error for FlowError {}

thread_local! {
    /// Pipeline stage the current thread's compilation is inside,
    /// updated at every stage-span boundary. When a panic is contained
    /// (matrix isolation, `lnc`'s top-level catch), this is the stage
    /// context the resulting fault diagnostic is attributed to.
    static CURRENT_STAGE: std::cell::Cell<&'static str> =
        const { std::cell::Cell::new("frontend") };
}

/// The stage boundary most recently crossed on this thread.
pub fn current_stage() -> &'static str {
    CURRENT_STAGE.with(|c| c.get())
}

fn set_stage(stage: &'static str) {
    CURRENT_STAGE.with(|c| c.set(stage));
}

/// A compiled unit's LIL graph: one graph of the lowered module the
/// `lower` cache entry holds, shared rather than copied. It dereferences
/// to the [`Graph`].
#[derive(Debug, Clone)]
pub struct UnitGraph {
    lil: Arc<LilModule>,
    index: usize,
}

impl Deref for UnitGraph {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        &self.lil.graphs[self.index]
    }
}

impl fmt::Display for UnitGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// One compiled instruction or `always`-block.
///
/// The graph, schedule and built module are shared with the cache entries
/// they came from, so a warm replay copies none of them.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    /// Instruction / always-block name.
    pub name: String,
    /// True for `always`-blocks.
    pub is_always: bool,
    /// Decode mask (instructions only).
    pub mask: u32,
    /// Decode match value (instructions only).
    pub match_value: u32,
    /// The scheduled LIL graph.
    pub graph: UnitGraph,
    /// Per-LIL-operation start times and in-cycle times.
    pub schedule: Arc<Schedule>,
    /// The constructed hardware module with port bindings.
    pub built: Arc<BuiltModule>,
    /// Emitted SystemVerilog.
    pub verilog: String,
    /// Overall execution mode (worst interface variant, §3.2/§4.3).
    pub mode: ExecutionMode,
    /// Stage of the WrRD use, if the instruction writes `rd`.
    pub result_stage: Option<u32>,
    /// Earliest stage of any `spawn` operation (decoupled issue point).
    pub spawn_stage: Option<u32>,
    /// Highest active stage (total latency in stages).
    pub max_stage: u32,
}

/// A fully compiled ISAX, ready for SCAIE-V integration into one core.
#[derive(Debug, Clone)]
pub struct CompiledIsax {
    /// ISAX name.
    pub name: String,
    /// Core this compilation targeted.
    pub core: String,
    /// The elaborated, type-checked module (golden-model input), shared
    /// with the `frontend` cache entry.
    pub module: Arc<TypedModule>,
    /// The lowered LIL module, shared with the `lower` cache entry (and
    /// so with every core compiled from the same source).
    pub lil: Arc<LilModule>,
    /// One compiled artifact per instruction / always-block.
    ///
    /// Units that failed to compile are missing here and reported in
    /// [`CompiledIsax::diagnostics`] instead — one broken instruction does
    /// not abort the ISAX.
    pub graphs: Vec<CompiledGraph>,
    /// The SCAIE-V configuration file contents (Figure 8), shared with the
    /// `config` stage's cache entry.
    pub config: Arc<IsaxConfig>,
    /// Warnings, degradation notices, and per-unit errors accumulated
    /// across the flow.
    pub diagnostics: Diagnostics,
    /// Telemetry for the whole compilation: one span per pipeline stage
    /// ([`telemetry::STAGES`]), solver counters, per-unit schedule and
    /// hardware statistics, and the diagnostics mirrored with span links.
    /// Deterministic modulo the `dur_ns` timing fields
    /// ([`Trace::stripped`]).
    pub trace: Trace,
}

impl CompiledIsax {
    /// Finds a compiled graph by name.
    pub fn graph(&self, name: &str) -> Option<&CompiledGraph> {
        self.graphs.iter().find(|g| g.name == name)
    }

    /// Iterates over compiled instructions (not always-blocks).
    pub fn instructions(&self) -> impl Iterator<Item = &CompiledGraph> {
        self.graphs.iter().filter(|g| !g.is_always)
    }

    /// Iterates over compiled always-blocks.
    pub fn always_blocks(&self) -> impl Iterator<Item = &CompiledGraph> {
        self.graphs.iter().filter(|g| g.is_always)
    }
}

/// The Longnail compiler.
pub struct Longnail {
    /// Chaining budget in uniform-delay units per stage.
    pub chain_depth: f64,
    /// Deterministic solver work budget granted to each graph's scheduling
    /// problem (see [`Budget`]). When the exact ILP exhausts it, the
    /// flow degrades to the verified ASAP fallback scheduler and records a
    /// warning instead of failing.
    pub work_limit: u64,
    /// Deterministic fault-injection plan (chaos testing). `None` — the
    /// default — injects nothing and costs one branch per stage boundary.
    pub fault_plan: Option<FaultPlan>,
    /// Netlist optimization effort (`lnc --opt-level`). At [`OptLevel::O0`]
    /// — the default — the `opt` stage is skipped entirely and the flow is
    /// byte-identical to the pre-optimizer compiler. Higher levels run the
    /// oracle-gated pass pipeline between `rtl` and `verilog`.
    pub opt_level: OptLevel,
}

impl Default for Longnail {
    fn default() -> Self {
        Self::new()
    }
}

impl Longnail {
    /// Creates a compiler with the built-in prelude and default chaining
    /// budget.
    pub fn new() -> Self {
        Longnail {
            chain_depth: DEFAULT_CHAIN_DEPTH,
            work_limit: Budget::DEFAULT_LIMIT,
            fault_plan: None,
            opt_level: OptLevel::O0,
        }
    }

    /// The canonical fingerprint of every configuration knob that shapes
    /// emitted artifacts but is *not* part of the datasheet, chaining
    /// budget, or work limit: the optimization level, and above -O0 the
    /// optimizer's [`rtl::opt::REVISION`]. Folded into
    /// [`pipeline::core_config_key`] (so every backend key tracks it) and
    /// into the on-disk [`pipeline::schema_fingerprint`] — a `-O0`
    /// artifact can never be served to a `-O2` run from a shared cache
    /// directory, nor an earlier optimizer's netlist to this one.
    pub fn config_fingerprint(&self) -> String {
        match self.opt_level {
            OptLevel::O0 => "opt=0".to_string(),
            level => format!("opt={} rev={}", level.level(), rtl::opt::REVISION),
        }
    }

    /// A sibling compiler configured like `self` but at `level` — used by
    /// serve mode for per-job `opt_level` overrides. The two compilers
    /// differ only in their config fingerprints.
    pub fn with_opt_level(&self, level: OptLevel) -> Longnail {
        Longnail {
            chain_depth: self.chain_depth,
            work_limit: self.work_limit,
            fault_plan: self.fault_plan.clone(),
            opt_level: level,
        }
    }

    /// Compiles CoreDSL source text for the given target core: one cell
    /// through [`Longnail::compile_cell`] on a fresh [`PipelineCache`], so
    /// a fault plan acts on it exactly as on that matrix cell. Unlike
    /// [`Longnail::compile_cells`], it does not contain panics: a panic
    /// unwinds to the caller, and [`current_stage`] names the stage it
    /// fired in.
    ///
    /// Units are compiled independently: a unit that fails in lowering,
    /// verification, scheduling, or netlist construction is dropped and
    /// recorded in [`CompiledIsax::diagnostics`] while the remaining units
    /// compile normally. Callers decide what an acceptable outcome is via
    /// [`Diagnostics::has_errors`] / [`Diagnostics::has_faults`].
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] naming the failing flow stage when the whole
    /// cell fails: the frontend rejects the source, or a planned fault
    /// targets the cell. A frontend error's `frontend_errors` field carries
    /// *every* accumulated coded diagnostic, not just the first.
    pub fn compile(
        &self,
        src: &str,
        unit: &str,
        datasheet: &VirtualDatasheet,
    ) -> Result<CompiledIsax, FlowError> {
        self.compile_cell(src, unit, datasheet, &PipelineCache::new())
    }

    /// [`Longnail::compile`] through a caller-owned [`PipelineCache`]:
    /// every stage is looked up in (and populates) `pipe`'s content-keyed
    /// stage store, so recompiling an unchanged cell is pure cache replay.
    /// An edited source reruns `frontend` and `lower`, but each backend
    /// stage is keyed on the LIL graph it compiles: only the units whose
    /// graphs the edit changed recompute, and a comment or reformat
    /// recomputes no backend stage at all. The emitted trace is byte-identical (after
    /// [`Trace::stripped`]) warm or cold.
    ///
    /// A cell that a fault plan targets shares only `frontend` and
    /// `lower`: its backend runs on a private store, so an injected panic
    /// or degradation fires identically warm or cold and never parks an
    /// artifact under a key healthy runs trust.
    ///
    /// # Errors
    ///
    /// As [`Longnail::compile`]. Failures are cached alongside successes —
    /// a deterministically broken input fails identically warm.
    pub fn compile_cell(
        &self,
        src: &str,
        unit: &str,
        datasheet: &VirtualDatasheet,
        pipe: &PipelineCache,
    ) -> Result<CompiledIsax, FlowError> {
        let keys = (pipeline::frontend_key(unit, src), self.config_key(datasheet));
        self.compile_keyed(src, unit, datasheet, pipe, keys)
    }

    /// The content key of everything core- and option-shaped that feeds
    /// the backend of a compile against `datasheet`.
    fn config_key(&self, datasheet: &VirtualDatasheet) -> Digest {
        pipeline::core_config_key(
            datasheet,
            self.chain_depth,
            self.work_limit,
            &self.config_fingerprint(),
        )
    }

    /// [`Longnail::compile_cell`] with its frontend and config keys
    /// already computed: all nine stages through one [`Runner`]. The
    /// `frontend` and `lower` entries, both keyed by `fe_key`, are shared
    /// across every core the source is compiled for; the backend's keys
    /// derive from the LIL digests `lower` produces and from `cfg_key`.
    fn compile_keyed(
        &self,
        src: &str,
        unit: &str,
        datasheet: &VirtualDatasheet,
        pipe: &PipelineCache,
        (fe_key, cfg_key): (Digest, Digest),
    ) -> Result<CompiledIsax, FlowError> {
        let core = &datasheet.core;
        let mut run = Runner::new(self, unit, core);
        let private;
        let backend_pipe = match &self.fault_plan {
            Some(plan) if plan.targets_cell(unit, core) => {
                if plan.fault(unit, core, FaultKind::PoisonCache).is_some() {
                    // Genuinely poison the shared store's lock — exactly the
                    // state a worker that crashed inside the store leaves
                    // behind — then fail this cell. Peers must recover
                    // through the store's poison-tolerant locking.
                    set_stage("frontend");
                    pipe.store().poison();
                    return Err(FlowError::fault(
                        "frontend",
                        format!("injected fault: stage cache lock poisoned by `{unit}`"),
                    ));
                }
                if plan.fault(unit, core, FaultKind::ParseError).is_some() {
                    // Never cached: the injected failure must stay in this
                    // cell, not reach every core that asks for this
                    // (healthy) source.
                    run.boundary("frontend");
                    return Err(FlowError::frontend(vec![Diagnostic::coded(
                        codes::PARSE_EXPECTED,
                        Span::new(1, 1),
                        "injected fault: forced parse error",
                    )
                    .in_source(unit)]));
                }
                private = PipelineCache::new();
                &private
            }
            _ => pipe,
        };
        let root = run.tel.start_span("compile");
        run.tel.attr(root, "core", core);
        let fe = run.stage(
            pipe,
            "frontend",
            fe_key,
            || frontend_stage(src, unit),
            |_| 8 * src.len() as u64,
        );
        // The root span carries what this cell's frontend lookup observed.
        // Which cell wins a shared miss is a race under concurrency, so
        // [`Trace::stripped`] drops these counters.
        let lookup = run.lookup;
        let tel = &mut run.tel;
        tel.counter(root, metrics::CACHE_FRONTEND_HIT, u64::from(lookup.hit));
        tel.counter(root, metrics::CACHE_FRONTEND_MISS, u64::from(!lookup.hit));
        if lookup.waited {
            tel.counter(root, metrics::CACHE_FRONTEND_WAIT, 1);
            tel.counter(root, metrics::CACHE_FRONTEND_WAIT_NS, lookup.wait_ns);
        }
        let module = Arc::clone(fe.value()?);
        run.tel.attr(root, "isax", &module.name);
        let lw = run.stage(
            pipe,
            "lower",
            fe_key,
            || lower_stage(&module),
            |l| 160 * l.lil.graphs.iter().map(|g| g.len() as u64).sum::<u64>(),
        );
        let lowered = lw.value()?;
        let lil = &lowered.lil;
        let mut graphs = Vec::new();
        for (gi, graph) in lil.graphs.iter().enumerate() {
            let unit_span = run.tel.start_unit_span("unit", Some(&graph.name));
            run.unit_span = Some(unit_span);
            // Every per-unit stage is a function of this graph and the
            // core configuration alone, so one key serves all six; the
            // store keeps each stage's value in its own `(stage, key)`
            // entry. An edit that changes the graph flips the key, one
            // that leaves it unchanged flips nothing.
            let unit_key = pipeline::derive("unit", &[&lowered.graph_digests[gi], &cfg_key]);
            let unit_graph = UnitGraph {
                lil: Arc::clone(lil),
                index: gi,
            };
            // Cell-level fault injection fires once per compilation, on
            // the first unit, so a faulted cell degrades to exactly one
            // diagnostic.
            match self.compile_graph(
                &mut run,
                backend_pipe,
                unit_graph,
                unit_key,
                datasheet,
                gi == 0,
            ) {
                Ok(cg) => graphs.push(cg),
                Err(e) => {
                    let span = declared_span(&module, &graph.name);
                    let diagnostics = &mut run.diagnostics;
                    diagnostics.set_trace_span(Some(unit_span.0));
                    // The netlist lint guards compiler-constructed hardware;
                    // its findings are internal faults, not user errors.
                    if e.severity == Severity::Fault || e.stage == "netlist" {
                        diagnostics.fault(e.stage, Some(&graph.name), span, e.message);
                    } else {
                        diagnostics.error(e.stage, Some(&graph.name), span, e.message);
                    }
                }
            }
            run.unit_span = None;
            run.tel.end_span(unit_span);
        }
        let cval = run.stage(
            backend_pipe,
            "config",
            pipeline::derive("config", &[&lowered.module_digest, &cfg_key]),
            || config_stage(lil, &graphs),
            |c| (c.functionalities.len() as u64 + 1) * 256,
        );
        let config = Arc::clone(cval.value()?);
        let (diagnostics, trace) = run.finish(root);
        Ok(CompiledIsax {
            name: lil.name.clone(),
            core: core.clone(),
            module,
            lil: Arc::clone(lil),
            graphs,
            config,
            diagnostics,
            trace,
        })
    }

    /// Compiles a batch of cells across up to `jobs` worker threads, all
    /// through `pipe`'s stage store, so each distinct ISAX source is
    /// parsed, type-checked, and lowered once however many cores consume
    /// it. [`matrix_cells`] builds the full `isaxes × cores` batch; the
    /// persistent layer passes only the cells it could not serve from disk.
    /// With a fresh cache this is a cold compile; with a reused one, every
    /// stage whose content key is unchanged since the previous run is
    /// replayed. A warm recompile with one edited ISAX reruns that ISAX's
    /// `frontend` and `lower` once, then recomputes only the units whose
    /// LIL graphs the edit changed (and the ISAX's `config`), on every
    /// core.
    ///
    /// Each cell is isolated: a panic anywhere in its flow becomes a
    /// [`Severity::Fault`] outcome attributed to the stage boundary the
    /// worker last crossed, and every other cell completes exactly as in a
    /// clean run. Entries come back in input order, merged by cell index —
    /// never by worker completion order — so output, diagnostics, and
    /// stripped traces are identical for any `jobs` value.
    pub fn compile_cells(
        &self,
        cells: &[MatrixCell],
        jobs: usize,
        pipe: &PipelineCache,
    ) -> MatrixResult {
        let before: HashMap<String, qcache::StageStats> = pipe
            .stage_stats()
            .into_iter()
            .collect();
        // Cells share sources and datasheets across the matrix: hash each
        // distinct one once, not once per cell.
        let mut fe_keys: HashMap<(&str, &str), Digest> = HashMap::new();
        let mut cfg_keys: Vec<(&VirtualDatasheet, Digest)> = Vec::new();
        let keys: Vec<(Digest, Digest)> = cells
            .iter()
            .map(|cell| {
                let fe_key = *fe_keys
                    .entry((&cell.unit, &cell.src))
                    .or_insert_with(|| pipeline::frontend_key(&cell.unit, &cell.src));
                let ds = &cell.datasheet;
                // `==` equates a 0.0 and a -0.0 clock; the key does not.
                let same = |d: &VirtualDatasheet| {
                    d == ds && d.clock_ns.to_bits() == ds.clock_ns.to_bits()
                };
                let cfg_key = match cfg_keys.iter().find(|(d, _)| same(d)) {
                    Some(&(_, key)) => key,
                    None => {
                        let key = self.config_key(ds);
                        cfg_keys.push((ds, key));
                        key
                    }
                };
                (fe_key, cfg_key)
            })
            .collect();
        let pool = Pool::new(jobs);
        let (outcomes, pool_stats) = pool.run_with_stats(cells.len(), |k| {
            let cell = &cells[k];
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.compile_keyed(&cell.src, &cell.unit, &cell.datasheet, pipe, keys[k])
            }))
            .unwrap_or_else(|p| {
                Err(FlowError::fault(
                    current_stage(),
                    format!("compiler panicked: {}", pool::panic_message(p.as_ref())),
                ))
            })
        });
        let entries: Vec<MatrixEntry> = cells
            .iter()
            .zip(outcomes)
            .map(|(cell, outcome)| MatrixEntry {
                isax: cell.isax.clone(),
                unit: cell.unit.clone(),
                core: cell.datasheet.core.clone(),
                outcome,
            })
            .collect();
        let cell_faults = entries
            .iter()
            .filter(|e| matches!(&e.outcome, Err(f) if f.severity == Severity::Fault))
            .count() as u64;
        let errors_recovered = entries
            .iter()
            .map(|e| match &e.outcome {
                Ok(c) => c.diagnostics.of(Severity::Error).count() as u64,
                Err(f) if f.severity == Severity::Fault => 0,
                Err(f) => f.frontend_errors.len().max(1) as u64,
            })
            .sum();
        // Per-stage cache activity attributable to *this* run: the
        // cache may be long-lived (serve mode, warm recompiles), so
        // report deltas against the entry snapshot, not lifetime totals.
        let stage_stats: Vec<StageCacheStats> = pipe
            .stage_stats()
            .into_iter()
            .map(|(stage, after)| {
                let b = before.get(&stage).copied().unwrap_or_default();
                StageCacheStats {
                    stage,
                    hits: after.hits - b.hits,
                    misses: after.misses - b.misses,
                    waits: after.waits - b.waits,
                }
            })
            .collect();
        MatrixResult {
            entries,
            jobs: pool.workers(),
            cell_faults,
            errors_recovered,
            stage_stats,
            pool_stats,
        }
    }

    /// Compiles one unit through the six per-unit stages, all keyed by
    /// `unit_key`. `inject` marks the cell's first unit, the one a
    /// cell-level fault fires on.
    fn compile_graph(
        &self,
        run: &mut Runner<'_>,
        pipe: &PipelineCache,
        unit: UnitGraph,
        unit_key: Digest,
        datasheet: &VirtualDatasheet,
        inject: bool,
    ) -> Result<CompiledGraph, FlowError> {
        let (graph, lil) = (&*unit, &*unit.lil);
        let is_always = graph.kind == GraphKind::Always;

        // --- LongnailProblem construction ---
        let pval = run.stage(
            pipe,
            "problem",
            unit_key,
            || self.problem_stage(graph, is_always, datasheet),
            |p| (p.op_ids.len() as u64 + 1) * 192,
        );
        let pout = pval.value()?;

        // --- ILP solve (resilient facade) ---
        if inject && run.planned(FaultKind::BudgetExhaustion) {
            // A panic planned at `solve` still fires first.
            run.boundary("solve");
            return Err(FlowError::error(
                "solve",
                "injected fault: solver work budget exhausted before a schedule was found",
            ));
        }
        let sval = run.stage(
            pipe,
            "solve",
            unit_key,
            || self.solve_stage(pout, graph),
            |s| (s.schedule.start_time.len() as u64 + 1) * 16,
        );
        let sout = sval.value()?;

        // --- Per-write-interface mode selection (§4.3) and overall mode ---
        let mval = run.stage(
            pipe,
            "modes",
            unit_key,
            || modes_stage(graph, is_always, datasheet, sout),
            |_| 64,
        );
        let mout = mval.value()?;

        // --- Hardware construction and lint ---
        let rval = run.stage(
            pipe,
            "rtl",
            unit_key,
            || rtl_stage(graph, lil, datasheet, sout),
            |b| module_bytes(b),
        );
        let mut built = Arc::clone(rval.value()?);

        // --- Oracle-gated netlist optimization (skipped entirely at -O0,
        // so the default flow — spans, traces, artifacts — is untouched).
        // The stage *boundary* is crossed regardless: it only updates the
        // panic-attribution stage and fires planned faults, so chaos plans
        // targeting `opt` behave identically at every level. ---
        if self.opt_level == OptLevel::O0 {
            run.boundary("opt");
        } else {
            let oval = run.stage(
                pipe,
                "opt",
                unit_key,
                || opt_stage(&built, self.opt_level, &graph.name),
                |b| module_bytes(b),
            );
            built = Arc::clone(oval.value()?);
        }

        // --- SystemVerilog emission ---
        let vval = run.stage(
            pipe,
            "verilog",
            unit_key,
            || verilog_stage(&built),
            |v| v.len() as u64,
        );
        // The one copy a hit makes: callers compare the text as a `String`.
        let verilog = vval.value()?.clone();

        let (mask, match_value) = match graph.kind {
            GraphKind::Instruction { mask, match_value } => (mask, match_value),
            GraphKind::Always => (0, 0),
        };
        Ok(CompiledGraph {
            name: graph.name.clone(),
            is_always,
            mask,
            match_value,
            schedule: Arc::clone(&sout.schedule),
            max_stage: built.max_stage,
            built,
            verilog,
            mode: mout.mode,
            result_stage: mout.result_stage,
            spawn_stage: mout.spawn_stage,
            graph: unit,
        })
    }

    /// Stage `problem`: builds the [`LongnailProblem`] for one graph.
    fn problem_stage(
        &self,
        graph: &Graph,
        is_always: bool,
        datasheet: &VirtualDatasheet,
    ) -> StageVal<ProblemOut> {
        let mut tape = Tape::default();
        let chain_limit = if datasheet.clock_ns > 0.0 {
            (datasheet.clock_ns / UNIT_NS).max(2.0)
        } else {
            self.chain_depth
        };
        let mut problem = LongnailProblem {
            cycle_time: chain_limit,
            ..LongnailProblem::default()
        };
        // A unit has a few dozen operator types, so a short list finds
        // them faster than hashing would.
        let mut types: Vec<(TypeKey<'_>, OperatorTypeId)> = Vec::new();
        let mut op_ids = Vec::with_capacity(graph.len());
        for (_, op) in graph.iter() {
            let key = type_key(op);
            let tid = match types.iter().find(|(k, _)| *k == key) {
                Some(&(_, t)) => t,
                None => {
                    let ot = match self.operator_type(&op.kind, is_always, datasheet) {
                        Ok(ot) => ot,
                        Err(e) => return StageVal { outcome: Err(e), tape },
                    };
                    let t = problem.add_operator_type(ot);
                    types.push((key, t));
                    t
                }
            };
            // Named like its type, the operation shares the type's name.
            let name = Arc::clone(&problem.operator_types[tid.0].name);
            op_ids.push(problem.add_operation(&name, tid));
        }
        for (v, op) in graph.iter() {
            for &operand in op.operands.iter().chain(op.pred.iter()) {
                problem.add_dependence(op_ids[operand.0], op_ids[v.0]);
            }
        }
        tape.counter(metrics::PROBLEM_OPS, graph.len() as u64);
        tape.counter(metrics::PROBLEM_IFACE_OPS, graph.interface_op_count() as u64);
        tape.counter(metrics::PROBLEM_DEPS, graph.edge_count() as u64);
        tape.gauge(metrics::SCHED_CHAIN_LIMIT, chain_limit);
        StageVal {
            outcome: Ok(ProblemOut { problem, op_ids }),
            tape,
        }
    }

    /// Stage `solve`: runs the resilient scheduler and remaps the result
    /// to graph-indexed start times.
    fn solve_stage(&self, pout: &ProblemOut, graph: &Graph) -> StageVal<SolveOut> {
        let mut tape = Tape::default();
        let budget = Budget::new(self.work_limit);
        // The solver adds chain breakers to the problem; the cached
        // ProblemOut must stay pristine for replay. The copy is flat: the
        // operations share their names with the cached problem.
        let mut problem = pout.problem.clone();
        let result = schedule_resilient(&mut problem, &budget);
        // Solver work is counted, not timed — these are deterministic.
        tape.counter(metrics::SOLVER_PIVOTS, budget.count(WorkKind::Pivot));
        tape.counter(metrics::SOLVER_NODES, budget.count(WorkKind::Node));
        tape.counter(metrics::SOLVER_ROUNDS, budget.count(WorkKind::Round));
        tape.counter(metrics::SOLVER_PRESOLVE, budget.count(WorkKind::Presolve));
        tape.counter(metrics::SOLVER_WORK_USED, budget.used());
        tape.counter(metrics::SOLVER_WORK_LIMIT, budget.limit());
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                return StageVal {
                    outcome: Err(FlowError::error("schedule", e.to_string())),
                    tape,
                }
            }
        };
        if let Some(deg) = &outcome.degradation {
            tape.counter(metrics::SCHED_FALLBACK, 1);
            if matches!(deg.reason, DegradationReason::BudgetExhausted(_)) {
                tape.counter(metrics::SOLVER_EXHAUSTED, 1);
            }
            let warning = deg.to_string();
            let unit = Some(graph.name.as_str());
            tape.diag(Severity::Warning, "schedule", unit, None, warning);
        }
        tape.attr(
            "scheduler",
            if outcome.is_exact() { "ilp" } else { "asap" }.to_string(),
        );
        let schedule = outcome.schedule;
        let start_time: Vec<u32> = (0..graph.len())
            .map(|i| schedule.start_time[pout.op_ids[i].0])
            .collect();
        let max_stage_sched = start_time.iter().copied().max().unwrap_or(0);
        tape.counter(metrics::SCHED_STAGES, u64::from(max_stage_sched));
        tape.gauge(metrics::SCHED_CHAIN_DEPTH, schedule.max_start_time_in_cycle());
        let start_time_in_cycle = (0..graph.len())
            .map(|i| schedule.start_time_in_cycle[pout.op_ids[i].0])
            .collect();
        StageVal {
            outcome: Ok(SolveOut {
                schedule: Arc::new(Schedule {
                    start_time,
                    start_time_in_cycle,
                }),
                max_stage_sched,
            }),
            tape,
        }
    }

    /// Builds the scheduling operator type for one LIL operation kind.
    fn operator_type(
        &self,
        kind: &OpKind,
        is_always: bool,
        datasheet: &VirtualDatasheet,
    ) -> Result<OperatorType, FlowError> {
        let name = kind.mnemonic();
        if let Some(iface) = lil_iface_op(kind) {
            if is_always {
                // §4.4: all interface constraints pinned to stage 0.
                return Ok(OperatorType::combinational(&name, 0.0).with_window(0, Some(0)));
            }
            let timing = datasheet.timing(&iface).ok_or_else(|| {
                FlowError::error(
                    "schedule",
                    format!(
                        "virtual datasheet of `{}` lacks an entry for {}",
                        datasheet.core,
                        iface.key()
                    ),
                )
            })?;
            // §4.2: WrRD / RdMem / WrMem get latest = ∞ to unlock the
            // tightly-coupled and decoupled variants.
            let latest = match kind {
                OpKind::WriteRd | OpKind::ReadMem | OpKind::WriteMem => None,
                OpKind::WriteCustReg(_) => None,
                _ => timing.latest,
            };
            let mut ot = OperatorType::sequential(&name, timing.latency, 0.0);
            ot.earliest = timing.earliest;
            ot.latest = latest;
            return Ok(ot);
        }
        // Combinational logic: uniform delay, wiring is free (§4.2).
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
}

/// One cell's pass through the nine stages. Each stage runs through
/// [`Runner::stage`], so every stage crosses its boundary, times its work
/// under its own span and replays its tape the same way.
struct Runner<'a> {
    ln: &'a Longnail,
    /// The cell's unit and core, which a fault plan names.
    unit: &'a str,
    core: &'a str,
    tel: Telemetry,
    diagnostics: Diagnostics,
    /// The span of the unit being compiled: while set, it takes the
    /// attributes and diagnostics a stage replays, which otherwise go to
    /// the stage's own span.
    unit_span: Option<SpanId>,
    /// What the latest store lookup observed.
    lookup: Lookup,
}

impl<'a> Runner<'a> {
    fn new(ln: &'a Longnail, unit: &'a str, core: &'a str) -> Self {
        Runner {
            ln,
            unit,
            core,
            tel: Telemetry::new(),
            diagnostics: Diagnostics::default(),
            unit_span: None,
            lookup: Lookup::default(),
        }
    }

    /// Crosses a stage boundary: records the stage for panic attribution
    /// and fires a planned [`FaultKind::Panic`] when this cell is targeted
    /// at this stage.
    fn boundary(&self, stage: &'static str) {
        set_stage(stage);
        if let Some(plan) = &self.ln.fault_plan {
            if plan.panic_at(self.unit, self.core, stage) {
                panic!(
                    "injected fault: panic at stage `{stage}` of `{}` for `{}`",
                    self.unit, self.core
                );
            }
        }
    }

    /// Whether the fault plan injects a fault of `kind` into this cell.
    fn planned(&self, kind: FaultKind) -> bool {
        let plan = self.ln.fault_plan.as_ref();
        plan.is_some_and(|p| p.fault(self.unit, self.core, kind).is_some())
    }

    /// Runs one stage: crosses its boundary, opens its span, shares the
    /// value `pipe` holds under `(stage, key)` or computes and parks it
    /// there, replays its tape and closes the span. `payload_bytes` sizes
    /// the value's charge against the store's byte cap.
    fn stage<T, F, B>(
        &mut self,
        pipe: &PipelineCache,
        stage: &'static str,
        key: Digest,
        compute: F,
        payload_bytes: B,
    ) -> Arc<StageVal<T>>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> StageVal<T>,
        B: FnOnce(&T) -> u64,
    {
        self.boundary(stage);
        let span = self.tel.start_span(stage);
        let (val, lookup) = pipe.store().get_or_compute(
            stage,
            key,
            || Arc::new(compute()),
            |v| stage_bytes(v, payload_bytes),
        );
        self.lookup = lookup;
        let target = self.unit_span.unwrap_or(span);
        val.tape
            .replay(&mut self.tel, span, target, &mut self.diagnostics);
        self.tel.end_span(span);
        val
    }

    /// Closes the cell's root span and hands back its diagnostics and its
    /// trace, with every diagnostic mirrored into the trace and linked to
    /// the span it fired in.
    fn finish(mut self, root: SpanId) -> (Diagnostics, Trace) {
        // Errors that were contained to their unit instead of aborting
        // the compilation. Omitted (not zero) on clean runs so a clean
        // trace stays byte-identical to pre-degradation baselines.
        let recovered = self.diagnostics.of(Severity::Error).count() as u64;
        if recovered > 0 {
            self.tel
                .counter(root, metrics::DEGRADE_ERRORS_RECOVERED, recovered);
        }
        self.tel.end_span(root);
        for e in &self.diagnostics.events {
            self.tel.diag(
                e.trace_span.map(SpanId),
                &e.severity.to_string(),
                e.stage,
                e.unit.as_deref(),
                &e.message,
            );
        }
        (self.diagnostics, self.tel.finish())
    }
}

/// Rough heap footprint of one cached stage value, charged against the
/// byte-accounted in-memory LRU (`--cache-mem-bytes`). Coarse per-stage
/// payload estimates plus a fixed entry/tape overhead — the cap is a
/// budget, not an allocator audit, but `tests/cache_footprint.rs` keeps
/// it within 2× of the heap it stands for.
fn stage_bytes<T>(v: &StageVal<T>, payload: impl FnOnce(&T) -> u64) -> u64 {
    const BASE: u64 = 512;
    match &v.outcome {
        Ok(t) => BASE + payload(t),
        Err(e) => BASE + error_bytes(e),
    }
}

/// Heap held by a cached failure: its message and every frontend
/// diagnostic it carries.
fn error_bytes(e: &FlowError) -> u64 {
    let diagnostics: usize = e
        .frontend_errors
        .iter()
        .map(|d| {
            std::mem::size_of::<Diagnostic>()
                + d.message.len()
                + d.source_name.len()
                + d.fixit.as_ref().map_or(0, String::len)
        })
        .sum();
    (e.message.len() + diagnostics) as u64
}

/// Payload model of a built (or optimized) module: its nets, plus the
/// ROM contents `rtl` copies into every module of an ISAX.
fn module_bytes(b: &BuiltModule) -> u64 {
    let roms: usize = b
        .module
        .roms
        .iter()
        .map(|r| r.name.len() + r.contents.len() * std::mem::size_of::<bits::ApInt>())
        .sum();
    (b.module.nets.len() as u64 + 1) * 160 + roms as u64
}

/// What decides an operation's operator type: its kind's variant, the
/// custom register or ROM it accesses, and whether it sits in a `spawn`
/// block. Two operations with equal keys have equal mnemonics.
type TypeKey<'a> = (std::mem::Discriminant<OpKind>, Option<&'a str>, bool);

fn type_key(op: &Op) -> TypeKey<'_> {
    let accessed = match &op.kind {
        OpKind::ReadCustReg(name) | OpKind::WriteCustReg(name) | OpKind::RomRead(name) => {
            Some(name.as_str())
        }
        _ => None,
    };
    (std::mem::discriminant(&op.kind), accessed, op.in_spawn)
}

/// Cached output of the `problem` stage.
#[derive(Debug)]
pub(crate) struct ProblemOut {
    problem: LongnailProblem,
    /// Graph-index → problem operation id (the solver's namespace).
    op_ids: Vec<OperationId>,
}

/// Cached output of the `solve` stage, remapped to graph indices.
#[derive(Debug)]
pub(crate) struct SolveOut {
    schedule: Arc<Schedule>,
    max_stage_sched: u32,
}

/// Cached output of the `modes` stage.
#[derive(Debug)]
pub(crate) struct ModesOut {
    mode: ExecutionMode,
    result_stage: Option<u32>,
    spawn_stage: Option<u32>,
}

/// Stage `modes`: per-write-interface mode selection (§4.3) and the
/// overall execution mode.
fn modes_stage(
    graph: &Graph,
    is_always: bool,
    datasheet: &VirtualDatasheet,
    sout: &SolveOut,
) -> StageVal<ModesOut> {
    let mut tape = Tape::default();
    let mut mode = if is_always {
        ExecutionMode::Always
    } else {
        ExecutionMode::InPipeline
    };
    let mut result_stage = None;
    let mut spawn_stage: Option<u32> = None;
    for (v, op) in graph.iter() {
        let stage = sout.schedule.start_time[v.0];
        if op.in_spawn {
            spawn_stage = Some(spawn_stage.map_or(stage, |s: u32| s.min(stage)));
        }
        if op.kind == OpKind::WriteRd {
            result_stage = Some(stage);
        }
        if !is_always && mode_relevant(&op.kind) {
            let iface = lil_iface_op(&op.kind).expect("interface op");
            let Some(timing) = datasheet.timing(&iface) else {
                return StageVal {
                    outcome: Err(FlowError::error(
                        "modes",
                        format!("datasheet lacks {} timing", iface.key()),
                    )),
                    tape,
                };
            };
            let m = select_mode(stage, timing, datasheet.writeback_stage, op.in_spawn, false);
            mode = worst_mode(mode, m);
        }
    }
    // Initiation interval: pipelined units accept one instruction per
    // cycle; a decoupled (`spawn`) unit is busy for its spawned
    // section's latency.
    let ii = match spawn_stage {
        Some(s) => u64::from(sout.max_stage_sched.saturating_sub(s)).max(1),
        None => 1,
    };
    tape.counter(metrics::SCHED_II, ii);
    tape.attr("mode", mode.to_string());
    StageVal {
        outcome: Ok(ModesOut {
            mode,
            result_stage,
            spawn_stage,
        }),
        tape,
    }
}

/// Stage `rtl`: hardware construction and the netlist lint gate.
fn rtl_stage(
    graph: &Graph,
    lil: &LilModule,
    datasheet: &VirtualDatasheet,
    sout: &SolveOut,
) -> StageVal<Arc<BuiltModule>> {
    let mut tape = Tape::default();
    let read_latency = |kind: &OpKind| -> u32 {
        lil_iface_op(kind)
            .and_then(|op| datasheet.timing(&op))
            .map_or(0, |t| t.latency)
    };
    let built = build_graph_module(graph, lil, &sout.schedule.start_time, &read_latency);
    // Netlist lint: last gate before SystemVerilog leaves the compiler,
    // and the precondition of `comb_depth` below.
    if let Err(issues) = lint_module(&built.module) {
        return StageVal {
            outcome: Err(FlowError::fault(
                "netlist",
                issues
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
            )),
            tape,
        };
    }
    tape.counter(metrics::RTL_CELLS, built.module.nets.len() as u64);
    tape.counter(metrics::RTL_REG_BITS, built.module.register_bits());
    tape.counter(metrics::RTL_COMB_DEPTH, u64::from(comb_depth(&built.module)));
    let estimate = eda::estimate_module(&TechLibrary::new(), &built.module);
    tape.gauge(metrics::EDA_AREA_UM2, estimate.area.total());
    tape.gauge(metrics::EDA_CRIT_NS, estimate.timing.critical_path_ns);
    StageVal {
        outcome: Ok(Arc::new(built)),
        tape,
    }
}

/// Cycles of lockstep stimulus the opt stage's runtime oracle drives
/// through the original and optimized netlists (including X stimulus).
const OPT_VERIFY_CYCLES: u32 = 32;

/// Stage `opt`: oracle-gated netlist optimization (`-O2`).
///
/// Runs [`rtl::opt::optimize`] at the requested level, which lints the
/// netlist after every pass that rewrote it, then gates the result with
/// [`rtl::opt::verify_equivalent`] before it may replace the built module:
/// the optimized module must track the original in lockstep — exact
/// two-valued output equality plus four-state refinement under X stimulus.
/// A lint finding or a divergence is an optimizer bug, but not a reason to
/// fail the cell: the stage falls back to the unoptimized netlist, records
/// a warning, and counts the fallback. (The third gate — `lnc --xcheck`
/// over the full matrix — runs downstream on whatever module this stage
/// emits.)
fn opt_stage(built: &Arc<BuiltModule>, level: OptLevel, unit: &str) -> StageVal<Arc<BuiltModule>> {
    let mut tape = Tape::default();
    let fall_back = |mut tape: Tape, why: String| {
        let warning = format!("optimization disabled for this unit: {why}");
        tape.diag(Severity::Warning, "opt", Some(unit), None, warning);
        tape.counter(metrics::OPT_FALLBACK, 1);
        StageVal {
            outcome: Ok(built.clone()),
            tape,
        }
    };
    let (module, report) = match optimize(&built.module, level) {
        Ok(out) => out,
        // A rewrite that fails lint never leaves the pass manager; emit
        // the known-good module instead.
        Err(e) => return fall_back(tape, e),
    };
    if let Err(e) = verify_equivalent(&built.module, &module, &EmitOptions, OPT_VERIFY_CYCLES) {
        let why = format!("optimized netlist failed the lockstep oracle: {e}");
        return fall_back(tape, why);
    }
    tape.counter(metrics::OPT_ITERATIONS, u64::from(report.iterations));
    for (pass, count) in &report.rewrites {
        let name = match *pass {
            "fold" => metrics::OPT_REWRITES_FOLD,
            "cse" => metrics::OPT_REWRITES_CSE,
            "mux" => metrics::OPT_REWRITES_MUX,
            "strength" => metrics::OPT_REWRITES_STRENGTH,
            "narrow" => metrics::OPT_REWRITES_NARROW,
            "dce" => metrics::OPT_REWRITES_DCE,
            _ => continue,
        };
        tape.counter(name, *count);
    }
    tape.counter(metrics::OPT_NETS_BEFORE, report.nets_before as u64);
    tape.counter(metrics::OPT_NETS_AFTER, report.nets_after as u64);
    // Area/critical-path before and after: the `rtl` stage already gauged
    // the unoptimized module; gauge it again here so the pair lives on one
    // span, then the optimized estimate on the standard EDA names.
    let lib = TechLibrary::new();
    let before = eda::estimate_module(&lib, &built.module);
    let after = eda::estimate_module(&lib, &module);
    tape.gauge(metrics::OPT_AREA_BEFORE_UM2, before.area.total());
    tape.gauge(metrics::EDA_AREA_UM2, after.area.total());
    tape.gauge(metrics::EDA_CRIT_NS, after.timing.critical_path_ns);
    let mut out = (**built).clone();
    out.module = module;
    StageVal {
        outcome: Ok(Arc::new(out)),
        tape,
    }
}

/// Stage `verilog`: SystemVerilog emission.
fn verilog_stage(built: &BuiltModule) -> StageVal<String> {
    let mut tape = Tape::default();
    let verilog = emit_verilog(&built.module);
    tape.counter(metrics::VERILOG_BYTES, verilog.len() as u64);
    StageVal {
        outcome: Ok(verilog),
        tape,
    }
}

/// Stage `config`: the Figure 8 SCAIE-V configuration file.
fn config_stage(lil: &LilModule, graphs: &[CompiledGraph]) -> StageVal<Arc<IsaxConfig>> {
    let mut tape = Tape::default();
    let config = build_config(lil, graphs);
    tape.counter(metrics::CONFIG_ENTRIES, config.schedule_entry_count() as u64);
    tape.counter(metrics::CONFIG_REGISTERS, config.registers.len() as u64);
    StageVal {
        outcome: Ok(Arc::new(config)),
        tape,
    }
}

/// What the `lower` stage hands the backend: the verified LIL lowering of
/// one typed module and the content digests its backend keys derive from.
#[derive(Debug)]
struct Lowered {
    /// The lowered LIL module; only graphs that passed the stage verifier
    /// are present.
    lil: Arc<LilModule>,
    /// One content digest per graph of `lil`, in order
    /// ([`pipeline::lil_digests`]): the root of that unit's backend keys.
    graph_digests: Vec<Digest>,
    /// Content digest of `lil` as the `config` stage reads it.
    module_digest: Digest,
}

/// The source span of the instruction or `always`-block named `unit` (the
/// last one declared, should two share the name).
fn declared_span(module: &TypedModule, unit: &str) -> Option<Span> {
    let instructions = module.instructions.iter().map(|i| (&i.name, i.span));
    let always = module.always_blocks.iter().map(|a| (&a.name, a.span));
    instructions
        .chain(always)
        .rev()
        .find(|(name, _)| *name == unit)
        .map(|(_, span)| span)
}

/// Stage `frontend`: parses, elaborates, and type-checks `src` against the
/// built-in prelude — the only source a description can import, which is
/// what makes [`pipeline::frontend_key`] complete. A rejected source
/// fails with a [`FlowError`] whose `frontend_errors` field carries
/// *every* accumulated coded diagnostic, not just the first.
fn frontend_stage(src: &str, unit: &str) -> StageVal<Arc<TypedModule>> {
    let mut tape = Tape::default();
    let out = Frontend::new().compile_str_all(src, unit);
    let outcome = if !out.errors.is_empty() {
        Err(FlowError::frontend(out.errors))
    } else if let Some(module) = out.module {
        let stats = module.stats();
        tape.counter(metrics::FRONTEND_INSTRUCTIONS, stats.instructions as u64);
        tape.counter(metrics::FRONTEND_ALWAYS, stats.always_blocks as u64);
        tape.counter(metrics::FRONTEND_FUNCTIONS, stats.functions as u64);
        Ok(Arc::new(module))
    } else {
        Err(FlowError::error(
            "frontend",
            "elaboration produced no module",
        ))
    };
    StageVal { outcome, tape }
}

/// Stage `lower`: lowers a type-checked module to verified LIL. A unit
/// that fails to lower or to verify is left out and its diagnostic goes
/// on the tape, so one broken unit costs that unit on every core.
fn lower_stage(module: &TypedModule) -> StageVal<Lowered> {
    let mut tape = Tape::default();
    let mut lil = lower_state(module);
    let lowered = module
        .instructions
        .iter()
        .map(|i| lower_instruction(module, i))
        .chain(module.always_blocks.iter().map(|a| lower_always(module, a)));
    for result in lowered {
        let graph = match result {
            Ok(g) => g,
            Err(e) => {
                let span = declared_span(module, &e.unit);
                tape.diag(Severity::Error, "lower", Some(&e.unit), span, e.message);
                continue;
            }
        };
        // Stage verifier: a graph the lowering itself produced must be
        // well-formed; a violation is a compiler bug, contained to this
        // unit.
        if let Err(errs) = verify_graph(&graph, &lil) {
            let msg = errs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            let span = declared_span(module, &graph.name);
            tape.diag(Severity::Fault, "verify", Some(&graph.name), span, msg);
            continue;
        }
        lil.graphs.push(graph);
    }
    tape.counter("lower.graphs", lil.graphs.len() as u64);
    let (graph_digests, module_digest) = pipeline::lil_digests(&lil);
    StageVal {
        outcome: Ok(Lowered {
            lil: Arc::new(lil),
            graph_digests,
            module_digest,
        }),
        tape,
    }
}

/// One cell of work for [`Longnail::compile_cells`]: an ISAX source
/// targeted at one core's datasheet.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// ISAX display name (Table 3 row).
    pub isax: String,
    /// CoreDSL unit to elaborate.
    pub unit: String,
    /// CoreDSL source text.
    pub src: String,
    /// Target core datasheet.
    pub datasheet: VirtualDatasheet,
}

/// The cells of the `isaxes` × `cores` matrix in row-major order
/// (`isaxes[0]×cores[0], isaxes[0]×cores[1], …`). `isaxes` entries are
/// `(display_name, unit, source)` triples in the shape of
/// [`crate::isax_lib::all_isaxes`].
pub fn matrix_cells(
    isaxes: &[(String, String, String)],
    cores: &[VirtualDatasheet],
) -> Vec<MatrixCell> {
    isaxes
        .iter()
        .flat_map(|(isax, unit, src)| {
            cores.iter().map(move |ds| MatrixCell {
                isax: isax.clone(),
                unit: unit.clone(),
                src: src.clone(),
                datasheet: ds.clone(),
            })
        })
        .collect()
}

/// One cell of a compiled matrix: one ISAX targeted at one core.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// ISAX display name (Table 3 row).
    pub isax: String,
    /// CoreDSL unit that was elaborated.
    pub unit: String,
    /// Target core name.
    pub core: String,
    /// The compilation outcome for this cell.
    pub outcome: Result<CompiledIsax, FlowError>,
}

/// Result of [`Longnail::compile_cells`]: all cells in input order plus
/// the shared-cache statistics.
#[derive(Debug)]
pub struct MatrixResult {
    /// One entry per input cell, in input order regardless of worker
    /// scheduling.
    pub entries: Vec<MatrixEntry>,
    /// Worker threads the matrix actually ran with.
    pub jobs: usize,
    /// Cells whose outcome is a [`Severity::Fault`] failure (contained
    /// panics, poisoned caches) — the `degrade.cell_faults` counter.
    pub cell_faults: u64,
    /// Error-severity problems that were contained (to a unit or a cell)
    /// instead of aborting the batch — `degrade.errors_recovered`.
    pub errors_recovered: u64,
    /// Per-stage cache activity of this run (hit/miss/wait deltas
    /// against the shared [`PipelineCache`]), sorted by stage name; read
    /// one stage with [`MatrixResult::stage_cache`]. `lower` is looked up
    /// once per cell whose source the frontend accepted.
    pub stage_stats: Vec<StageCacheStats>,
    /// What the worker pool observed about its own scheduling: wall time,
    /// queue-wait vs run split per cell, per-worker load. Wall-clock- and
    /// scheduling-dependent — informational only, never part of the
    /// deterministic artifacts.
    pub pool_stats: pool::RunStats,
}

impl MatrixResult {
    /// This run's cache activity for one stage; zero for a stage no cell
    /// looked up. For the 8×4 evaluation matrix on a fresh cache,
    /// `frontend` reads 8 misses (the distinct ISAX sources) and 24 hits
    /// (each reused by 3 of the 4 cores).
    pub fn stage_cache(&self, stage: &str) -> StageCacheStats {
        self.stage_stats
            .iter()
            .find(|s| s.stage == stage)
            .cloned()
            .unwrap_or_default()
    }

    /// Finds a cell by ISAX display name and core.
    pub fn entry(&self, isax: &str, core: &str) -> Option<&MatrixEntry> {
        self.entries
            .iter()
            .find(|e| e.isax == isax && e.core == core)
    }

    /// Iterates over successfully compiled cells.
    pub fn compiled(&self) -> impl Iterator<Item = (&MatrixEntry, &CompiledIsax)> {
        self.entries
            .iter()
            .filter_map(|e| e.outcome.as_ref().ok().map(|c| (e, c)))
    }
}

/// The virtual datasheets of all four evaluation cores (Table 4), in
/// [`EVAL_CORES`] order.
pub fn eval_datasheets() -> Vec<VirtualDatasheet> {
    EVAL_CORES
        .iter()
        .map(|c| builtin_datasheet(c).expect("builtin evaluation core"))
        .collect()
}

/// Maps a LIL operation to its SCAIE-V sub-interface, if any.
pub fn lil_iface_op(kind: &OpKind) -> Option<SubInterfaceOp> {
    Some(match kind {
        OpKind::InstrWord => SubInterfaceOp::RdInstr,
        OpKind::ReadRs1 => SubInterfaceOp::RdRS1,
        OpKind::ReadRs2 => SubInterfaceOp::RdRS2,
        OpKind::ReadPc => SubInterfaceOp::RdPC,
        OpKind::ReadMem => SubInterfaceOp::RdMem,
        OpKind::WriteRd => SubInterfaceOp::WrRD,
        OpKind::WritePc => SubInterfaceOp::WrPC,
        OpKind::WriteMem => SubInterfaceOp::WrMem,
        OpKind::ReadCustReg(reg) => SubInterfaceOp::RdCustReg { reg: reg.clone() },
        OpKind::WriteCustReg(reg) => SubInterfaceOp::WrCustRegData { reg: reg.clone() },
        _ => return None,
    })
}

/// Interface kinds whose scheduled stage participates in mode selection.
fn mode_relevant(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::WriteRd | OpKind::ReadMem | OpKind::WriteMem | OpKind::WriteCustReg(_)
    )
}

/// Severity order for combining per-interface modes into an instruction
/// mode.
fn worst_mode(a: ExecutionMode, b: ExecutionMode) -> ExecutionMode {
    let rank = |m: ExecutionMode| match m {
        ExecutionMode::InPipeline => 0,
        ExecutionMode::TightlyCoupled => 1,
        ExecutionMode::Decoupled => 2,
        ExecutionMode::Always => 3,
    };
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// Builds the Figure 8 SCAIE-V configuration file contents.
fn build_config(lil: &LilModule, graphs: &[CompiledGraph]) -> IsaxConfig {
    let mut config = IsaxConfig {
        name: lil.name.clone(),
        ..IsaxConfig::default()
    };
    for reg in &lil.custom_regs {
        config.registers.push(RegisterRequest {
            name: reg.name.clone(),
            width: reg.width,
            elements: reg.elems,
        });
    }
    for cg in graphs {
        let mut schedule = Vec::new();
        for (v, op) in cg.graph.iter() {
            let Some(iface) = lil_iface_op(&op.kind) else {
                continue;
            };
            let stage = cg.schedule.start_time[v.0];
            let has_valid = op.pred.is_some();
            let mode = if cg.is_always {
                ExecutionMode::Always
            } else if mode_relevant(&op.kind) {
                cg.mode
            } else {
                ExecutionMode::InPipeline
            };
            if let OpKind::WriteCustReg(reg) = &op.kind {
                // The .addr entry consistently provides the hazard-handling
                // mechanism with stage information even for single-element
                // registers (paper §4.6).
                schedule.push(ScheduleEntry {
                    interface: SubInterfaceOp::WrCustRegAddr { reg: reg.clone() }.key(),
                    stage,
                    has_valid: false,
                    mode,
                });
            }
            schedule.push(ScheduleEntry {
                interface: iface.key(),
                stage,
                has_valid,
                mode,
            });
        }
        config.functionalities.push(Functionality {
            name: cg.name.clone(),
            encoding: (!cg.is_always).then(|| pattern_string(cg.mask, cg.match_value)),
            schedule,
        });
    }
    config
}

fn pattern_string(mask: u32, match_value: u32) -> String {
    (0..32)
        .rev()
        .map(|i| {
            if mask >> i & 1 == 1 {
                if match_value >> i & 1 == 1 {
                    '1'
                } else {
                    '0'
                }
            } else {
                '-'
            }
        })
        .collect()
}

/// Builds the virtual datasheets used in the evaluation. The actual core
/// descriptors (pipeline structure, base area/fmax) live in the `cores`
/// crate; this function only captures the SCAIE-V timing abstraction so the
/// compiler can be used without the core models.
pub fn builtin_datasheet(core: &str) -> Option<VirtualDatasheet> {
    let mut ds = match core {
        // 5-stage in-order pipeline: IF ID EX MEM WB (stages 0..4).
        "VexRiscv" | "ORCA" => {
            let mut ds = VirtualDatasheet::new(core, 5, 4, 3);
            let (rs_stage, wr_earliest) = if core == "ORCA" {
                // ORCA: register operands available in stage 3, result
                // write-back already expected in the following stage (§5.4).
                (3, 3)
            } else {
                (2, 2)
            };
            ds.set(SubInterfaceOp::RdInstr, Timing::new(1, Some(4), 0))
                .set(SubInterfaceOp::RdRS1, Timing::new(rs_stage, Some(4), 0))
                .set(SubInterfaceOp::RdRS2, Timing::new(rs_stage, Some(4), 0))
                .set(SubInterfaceOp::RdPC, Timing::new(1, Some(4), 0))
                .set(SubInterfaceOp::RdMem, Timing::new(3, None, 1))
                .set(SubInterfaceOp::WrRD, Timing::new(wr_earliest, None, 0))
                .set(SubInterfaceOp::WrPC, Timing::new(1, Some(4), 0))
                .set(SubInterfaceOp::WrMem, Timing::new(3, None, 0));
            ds
        }
        // 3-stage pipeline: IF / EX / WB.
        "Piccolo" => {
            let mut ds = VirtualDatasheet::new(core, 3, 2, 1);
            ds.set(SubInterfaceOp::RdInstr, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::RdRS1, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::RdRS2, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::RdPC, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::RdMem, Timing::new(1, None, 1))
                .set(SubInterfaceOp::WrRD, Timing::new(1, None, 0))
                .set(SubInterfaceOp::WrPC, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::WrMem, Timing::new(1, None, 0));
            ds
        }
        // Non-pipelined FSM sequencing: everything available from step 1
        // and the core waits for the ISAX (paper footnote 2).
        "PicoRV32" => {
            let mut ds = VirtualDatasheet::new(core, 1, 1, 1);
            ds.set(SubInterfaceOp::RdInstr, Timing::new(0, None, 0))
                .set(SubInterfaceOp::RdRS1, Timing::new(1, None, 0))
                .set(SubInterfaceOp::RdRS2, Timing::new(1, None, 0))
                .set(SubInterfaceOp::RdPC, Timing::new(0, None, 0))
                .set(SubInterfaceOp::RdMem, Timing::new(1, None, 1))
                .set(SubInterfaceOp::WrRD, Timing::new(1, None, 0))
                .set(SubInterfaceOp::WrPC, Timing::new(1, None, 0))
                .set(SubInterfaceOp::WrMem, Timing::new(1, None, 0));
            ds
        }
        _ => return None,
    };
    // Target clock period from the base core's achievable frequency
    // (Table 4 base row) — the scheduler's chaining budget derives from it.
    ds.clock_ns = eda::CoreAsicProfile::for_core(core)?.base_period_ns();
    // Custom registers are accessed like the GPR file (§3.2): same window
    // as RdRS1/WrRD, write window unbounded for late commits.
    let rs = ds.entries["RdRS1"];
    let wr = ds.entries["WrRD"];
    ds.entries
        .insert("RdCustReg".into(), Timing::new(rs.earliest, rs.latest, 0));
    ds.entries
        .insert("WrCustReg.addr".into(), Timing::new(wr.earliest, None, 0));
    ds.entries
        .insert("WrCustReg.data".into(), Timing::new(wr.earliest, None, 0));
    Some(ds)
}

/// The four evaluation cores (Table 4).
pub const EVAL_CORES: [&str; 4] = ["ORCA", "Piccolo", "PicoRV32", "VexRiscv"];

#[cfg(test)]
mod tests {
    use super::*;

    /// The other half of early cutoff: what changes only the text of a
    /// source (layout, a local's name) changes no LIL digest.
    #[test]
    fn reformatting_and_renaming_a_local_keep_every_digest() {
        let digests = |src: &str| {
            let fe = frontend_stage(src, "X_DOTP");
            let module = fe.value().expect("dotprod compiles");
            let lw = lower_stage(module);
            let lowered = lw.value().expect("lowering is infallible");
            assert!(!lowered.graph_digests.is_empty());
            (lowered.graph_digests.clone(), lowered.module_digest)
        };
        let src = crate::isax_lib::DOTPROD;
        let base = digests(src);
        let reformatted = format!(
            "\n\n{}",
            src.replace('\n', "\n\n  ").replace(" = ", "  =  ")
        );
        assert_eq!(digests(&reformatted), base, "reformatted");
        let renamed = src.replace("res", "acc").replace("prod", "product");
        assert_ne!(renamed, src);
        assert_eq!(digests(&renamed), base, "renamed locals");
        let edited = src.replace("i += 8", "i += 16");
        assert_ne!(
            digests(&edited).0,
            base.0,
            "a semantic edit changes the digest"
        );
    }
}
