//! Matrix-level trace aggregation: merge N per-cell [`Trace`]s into one
//! [`MatrixSummary`] (per-stage duration statistics, solver-work totals,
//! the critical-path cell, cache attribution, degradation counters) and
//! into one merged trace for `--metrics-out`.
//!
//! Determinism mirrors [`Trace::stripped`]: a summary carries both
//! wall-clock statistics and deterministic work counters, and
//! [`MatrixSummary::stripped`] zeroes everything scheduling- or
//! timing-dependent. The stripped projection — and therefore
//! [`MatrixSummary::to_json`] of it — is byte-identical for every worker
//! count, which is what `matrix_summary.json` and the CI `diff -r` gate
//! rely on.

use crate::{is_nondeterministic, metrics, EventKind, SpanId, Trace, TraceEvent, STAGES};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Order-statistics over one stage's wall-clock durations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurStats {
    /// Spans observed (deterministic: one per unit or per cell).
    pub count: u64,
    pub min_ns: u64,
    /// Median, nearest-rank.
    pub p50_ns: u64,
    /// 95th percentile, nearest-rank.
    pub p95_ns: u64,
    pub max_ns: u64,
    pub total_ns: u64,
}

impl DurStats {
    /// Computes nearest-rank order statistics over `durs`.
    pub fn from_durations(mut durs: Vec<u64>) -> DurStats {
        durs.sort_unstable();
        let n = durs.len();
        if n == 0 {
            return DurStats::default();
        }
        let rank = |p: f64| durs[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
        DurStats {
            count: n as u64,
            min_ns: durs[0],
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            max_ns: durs[n - 1],
            total_ns: durs.iter().sum(),
        }
    }

    fn stripped(&self) -> DurStats {
        DurStats {
            count: self.count,
            ..DurStats::default()
        }
    }
}

/// One row of the per-stage table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage name (one of [`STAGES`], `unit`, or `compile`).
    pub name: String,
    pub durs: DurStats,
}

/// One stage's incremental-cache attribution (`cache.<stage>.*`), plus
/// the synthetic `cell` row for whole-artifact disk hits. Which lookups
/// hit depends on what earlier runs left in the cache, so the whole
/// table is cleared in the deterministic projection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageCacheSummary {
    /// Stage name (one of [`STAGES`], or `cell`).
    pub stage: String,
    pub hits: u64,
    pub misses: u64,
    /// Lookups that blocked on a peer's in-flight compute.
    pub waits: u64,
}

/// Per-worker utilization line for the summary footer. Scheduling-
/// dependent, so never part of the deterministic projection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolWorkerSummary {
    /// Jobs this worker claimed.
    pub jobs: u64,
    /// Nanoseconds spent running jobs.
    pub busy_ns: u64,
    /// `busy_ns` over the pool's wall time, 0..=1.
    pub utilization: f64,
}

/// The merged view of a compile matrix: what `lnc --matrix --summary`
/// prints and what `matrix_summary.json` serializes (stripped).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixSummary {
    /// Cells aggregated (successfully compiled cells carry traces; the
    /// caller sets this to the *full* cell count including failures).
    pub cells: u64,
    /// Worker threads the matrix ran with (0 in the stripped projection).
    pub jobs: u64,
    /// Per-stage duration statistics, in pipeline order, then `unit` and
    /// `compile`.
    pub stages: Vec<StageSummary>,
    /// Every deterministic counter summed across all cells, sorted by
    /// name. Nondeterministic (`pool.*` / `cache.*`) counters are
    /// excluded here; cache totals live in the dedicated fields below.
    pub counters: BTreeMap<String, u64>,
    /// Cell whose `compile` span bounds the matrix wall time (the cell a
    /// latency optimization must attack first). Empty when stripped.
    pub critical_path_cell: String,
    /// That cell's `compile` span duration.
    pub critical_path_ns: u64,
    /// Frontend-cache hits across the whole matrix. Deterministic within
    /// one process, but a warm `--cache-dir` run serves cells from disk
    /// and skips frontend lookups entirely, so the total is zeroed in the
    /// stripped projection to keep cold and warm artifacts identical.
    pub cache_hits: u64,
    /// Frontend-cache misses (zeroed when stripped, like `cache_hits`).
    pub cache_misses: u64,
    /// Cells that blocked on a slot a peer was computing (scheduling-
    /// dependent; zeroed when stripped).
    pub cache_waits: u64,
    /// Cells degraded to a fault diagnostic (`degrade.cell_faults`).
    pub cell_faults: u64,
    /// Contained error-severity problems (`degrade.errors_recovered`).
    pub errors_recovered: u64,
    /// Per-stage incremental-cache attribution, in pipeline order with a
    /// trailing `cell` row when a disk cache served whole artifacts.
    /// History-dependent, so cleared when stripped.
    pub stage_cache: Vec<StageCacheSummary>,
    /// Per-worker pool utilization (empty when stripped).
    pub pool: Vec<PoolWorkerSummary>,
    /// Pool wall time backing the utilization figures.
    pub pool_wall_ns: u64,
}

/// Aggregates per-cell traces (name, trace) into a [`MatrixSummary`].
///
/// Trace-derived fields are filled here: per-stage duration statistics
/// (via [`Trace::span_durations_ns`], so repeated per-unit stage spans
/// all count), deterministic counter totals, the critical-path cell, and
/// the cache-wait total. The caller overrides `cells`, `cache_hits`,
/// `cache_misses`, `cell_faults`, `errors_recovered`, `jobs`, and the
/// pool fields with the authoritative batch-level values (failed cells
/// have no trace to aggregate).
pub fn summarize(cells: &[(String, &Trace)]) -> MatrixSummary {
    let mut summary = MatrixSummary {
        cells: cells.len() as u64,
        ..MatrixSummary::default()
    };
    for name in STAGES.iter().copied().chain(["unit", "compile"]) {
        let durs: Vec<u64> = cells
            .iter()
            .flat_map(|(_, t)| t.span_durations_ns(name))
            .collect();
        summary.stages.push(StageSummary {
            name: name.to_string(),
            durs: DurStats::from_durations(durs),
        });
    }
    for (name, trace) in cells {
        for e in &trace.events {
            if let EventKind::Counter { name: n, value, .. } = &e.kind {
                if !is_nondeterministic(n) {
                    *summary.counters.entry(n.to_string()).or_insert(0) += value;
                }
            }
        }
        summary.cache_hits += trace.counter_total(metrics::CACHE_FRONTEND_HIT);
        summary.cache_misses += trace.counter_total(metrics::CACHE_FRONTEND_MISS);
        summary.cache_waits += trace.counter_total(metrics::CACHE_FRONTEND_WAIT);
        let compile_ns = trace.span_duration_ns("compile").unwrap_or(0);
        // Strict `>` keeps the tie-break on the first cell in matrix
        // order, so equal-duration runs still pick deterministically.
        if compile_ns > summary.critical_path_ns {
            summary.critical_path_ns = compile_ns;
            summary.critical_path_cell = name.clone();
        }
    }
    summary
}

impl MatrixSummary {
    /// Looks up a stage row by name (`"frontend"`, …, `"unit"`,
    /// `"compile"`).
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The deterministic projection, mirroring [`Trace::stripped`]: every
    /// wall-clock figure is zeroed, the (timing-derived) critical-path
    /// cell is blanked, and the scheduling- or history-dependent cache
    /// and pool fields are cleared. What remains — span counts, work
    /// counters, degradation counters — is identical for every worker
    /// count *and* for cold versus warm cache state, which is what the
    /// cold/warm `diff -r` CI gate relies on.
    pub fn stripped(&self) -> MatrixSummary {
        MatrixSummary {
            cells: self.cells,
            jobs: 0,
            stages: self
                .stages
                .iter()
                .map(|s| StageSummary {
                    name: s.name.clone(),
                    durs: s.durs.stripped(),
                })
                .collect(),
            counters: self.counters.clone(),
            critical_path_cell: String::new(),
            critical_path_ns: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_waits: 0,
            cell_faults: self.cell_faults,
            errors_recovered: self.errors_recovered,
            stage_cache: Vec::new(),
            pool: Vec::new(),
            pool_wall_ns: 0,
        }
    }

    /// Serializes the summary as pretty-printed JSON. Field order is
    /// fixed and counters iterate sorted, so equal summaries serialize to
    /// equal bytes; `lnc` writes `stripped().to_json()` as
    /// `matrix_summary.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"longnail-matrix-summary/1\",\n");
        let _ = writeln!(out, "  \"cells\": {},", self.cells);
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"count\": {}, \"min_ns\": {}, \"p50_ns\": {}, \
                 \"p95_ns\": {}, \"max_ns\": {}, \"total_ns\": {}}}",
                s.name,
                s.durs.count,
                s.durs.min_ns,
                s.durs.p50_ns,
                s.durs.p95_ns,
                s.durs.max_ns,
                s.durs.total_ns
            );
            out.push_str(if i + 1 == self.stages.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n  \"counters\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let _ = write!(out, "    \"{name}\": {value}");
            out.push_str(if i + 1 == self.counters.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  },\n");
        let _ = writeln!(
            out,
            "  \"critical_path\": {{\"cell\": \"{}\", \"compile_ns\": {}}},",
            self.critical_path_cell, self.critical_path_ns
        );
        let _ = writeln!(
            out,
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"waits_on_slot\": {}}},",
            self.cache_hits, self.cache_misses, self.cache_waits
        );
        let _ = writeln!(
            out,
            "  \"degradation\": {{\"cell_faults\": {}, \"errors_recovered\": {}}}",
            self.cell_faults, self.errors_recovered
        );
        out.push_str("}\n");
        out
    }

    /// Renders the human-readable summary table (`lnc --matrix
    /// --summary`): per-stage min/p50/p95/max/total wall-clock, the
    /// critical-path cell, solver totals, cache attribution, degradation
    /// counters, and per-worker pool utilization.
    pub fn render(&self) -> String {
        use crate::report::fmt_duration;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== matrix summary: {} cell(s), {} job(s) ==\n",
            self.cells, self.jobs
        );
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "spans", "min", "p50", "p95", "max", "total"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
                s.name,
                s.durs.count,
                fmt_duration(s.durs.min_ns),
                fmt_duration(s.durs.p50_ns),
                fmt_duration(s.durs.p95_ns),
                fmt_duration(s.durs.max_ns),
                fmt_duration(s.durs.total_ns)
            );
        }
        out.push('\n');
        if !self.critical_path_cell.is_empty() {
            let _ = writeln!(
                out,
                "critical path: {} (compile {})",
                self.critical_path_cell,
                fmt_duration(self.critical_path_ns)
            );
        }
        let c = |n: &str| self.counters.get(n).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "solver: {} pivot(s), {} node(s), {} round(s), {} fallback(s)",
            c(metrics::SOLVER_PIVOTS),
            c(metrics::SOLVER_NODES),
            c(metrics::SOLVER_ROUNDS),
            c(metrics::SCHED_FALLBACK)
        );
        let _ = writeln!(
            out,
            "cache: {} miss(es), {} hit(s), {} wait(s) on slot",
            self.cache_misses, self.cache_hits, self.cache_waits
        );
        if !self.stage_cache.is_empty() {
            let _ = write!(out, "stage cache (miss/hit):");
            for s in &self.stage_cache {
                let _ = write!(out, " {} {}/{}", s.stage, s.misses, s.hits);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "degraded: {} cell fault(s), {} error(s) recovered",
            self.cell_faults, self.errors_recovered
        );
        if !self.pool.is_empty() {
            let _ = write!(out, "pool: {} worker(s)", self.pool.len());
            for (i, w) in self.pool.iter().enumerate() {
                let _ = write!(
                    out,
                    " · w{i} {:.0}% ({} job(s))",
                    w.utilization * 100.0,
                    w.jobs
                );
            }
            out.push('\n');
        }
        out
    }
}

/// Merges per-cell traces into one matrix-wide trace: a root `matrix`
/// span with `matrix_counters` / `matrix_gauges` attached, one `cell`
/// span per entry (the cell name in the `unit` field), and each cell's
/// events nested under its `cell` span with span ids remapped to stay
/// unique and `seq` renumbered dense. This is the *unstripped* stream
/// `lnc --matrix --metrics-out` writes.
pub fn merge_traces(
    cells: &[(String, &Trace)],
    matrix_counters: &[(String, u64)],
    matrix_gauges: &[(String, f64)],
    wall_ns: u64,
) -> Trace {
    let root = SpanId(1);
    let mut events: Vec<TraceEvent> = Vec::new();
    events.push(TraceEvent {
        seq: 0,
        kind: EventKind::SpanStart {
            id: root,
            parent: None,
            name: "matrix".into(),
            unit: None,
        },
    });
    for (name, value) in matrix_counters {
        events.push(TraceEvent {
            seq: 0,
            kind: EventKind::Counter {
                span: root,
                name: name.clone().into(),
                value: *value,
            },
        });
    }
    for (name, value) in matrix_gauges {
        events.push(TraceEvent {
            seq: 0,
            kind: EventKind::Gauge {
                span: root,
                name: name.clone().into(),
                value: *value,
            },
        });
    }
    let mut next_id = 2u64;
    for (name, trace) in cells {
        let cell_span = SpanId(next_id);
        events.push(TraceEvent {
            seq: 0,
            kind: EventKind::SpanStart {
                id: cell_span,
                parent: Some(root),
                name: "cell".into(),
                unit: Some(name.clone()),
            },
        });
        // Cell traces number spans from 1; shifting by `offset` keeps
        // every remapped id above the ids handed out so far.
        let offset = next_id;
        let mut max_id = 0u64;
        let remap = |id: SpanId| SpanId(id.0 + offset);
        for e in &trace.events {
            let kind = match &e.kind {
                EventKind::SpanStart {
                    id,
                    parent,
                    name,
                    unit,
                } => {
                    max_id = max_id.max(id.0);
                    EventKind::SpanStart {
                        id: remap(*id),
                        parent: Some(parent.map_or(cell_span, remap)),
                        name: name.clone(),
                        unit: unit.clone(),
                    }
                }
                EventKind::SpanEnd { id, dur_ns } => EventKind::SpanEnd {
                    id: remap(*id),
                    dur_ns: *dur_ns,
                },
                EventKind::Counter { span, name, value } => EventKind::Counter {
                    span: remap(*span),
                    name: name.clone(),
                    value: *value,
                },
                EventKind::Gauge { span, name, value } => EventKind::Gauge {
                    span: remap(*span),
                    name: name.clone(),
                    value: *value,
                },
                EventKind::Attr { span, name, value } => EventKind::Attr {
                    span: remap(*span),
                    name: name.clone(),
                    value: value.clone(),
                },
                EventKind::Diag {
                    span,
                    severity,
                    stage,
                    unit,
                    message,
                } => EventKind::Diag {
                    span: span.map(remap),
                    severity: severity.clone(),
                    stage: stage.clone(),
                    unit: unit.clone(),
                    message: message.clone(),
                },
            };
            events.push(TraceEvent { seq: 0, kind });
        }
        events.push(TraceEvent {
            seq: 0,
            kind: EventKind::SpanEnd {
                id: cell_span,
                dur_ns: trace.span_duration_ns("compile").unwrap_or(0),
            },
        });
        next_id = offset + max_id + 1;
    }
    events.push(TraceEvent {
        seq: 0,
        kind: EventKind::SpanEnd {
            id: root,
            dur_ns: wall_ns,
        },
    });
    for (i, e) in events.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    Trace { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    /// A cell trace with one unit and fixed stage durations (per-unit
    /// stage spans carry no real clock here; tests only need structure).
    fn cell(unit: &str, pivots: u64) -> Trace {
        let mut t = Telemetry::new();
        let root = t.start_span("compile");
        t.counter(root, metrics::CACHE_FRONTEND_HIT, 1);
        let fe = t.start_span("frontend");
        t.end_span(fe);
        let u = t.start_unit_span("unit", Some(unit));
        let s = t.start_span("solve");
        t.counter(s, metrics::SOLVER_PIVOTS, pivots);
        t.end_span(s);
        t.end_span(u);
        t.end_span(root);
        t.finish()
    }

    #[test]
    fn durstats_nearest_rank_percentiles() {
        let d = DurStats::from_durations((1..=100).collect());
        assert_eq!((d.min_ns, d.p50_ns, d.p95_ns, d.max_ns), (1, 50, 95, 100));
        assert_eq!(d.total_ns, 5050);
        let one = DurStats::from_durations(vec![7]);
        assert_eq!((one.p50_ns, one.p95_ns), (7, 7));
        assert_eq!(DurStats::from_durations(vec![]), DurStats::default());
    }

    #[test]
    fn summarize_totals_counters_and_finds_critical_path() {
        let a = cell("a", 10);
        let b = cell("b", 32);
        let cells = vec![("a_ORCA".to_string(), &a), ("b_ORCA".to_string(), &b)];
        let s = summarize(&cells);
        assert_eq!(s.cells, 2);
        assert_eq!(s.counters.get(metrics::SOLVER_PIVOTS), Some(&42));
        // cache.* counters are excluded from the generic map but summed
        // into the dedicated fields.
        assert!(!s.counters.contains_key(metrics::CACHE_FRONTEND_HIT));
        assert_eq!(s.cache_hits, 2);
        let solve = s.stages.iter().find(|x| x.name == "solve").unwrap();
        assert_eq!(solve.durs.count, 2);
        let compile = s.stages.iter().find(|x| x.name == "compile").unwrap();
        assert_eq!(compile.durs.count, 2);
        // Some cell is on the critical path (ties break to the first).
        assert!(!s.critical_path_cell.is_empty());
    }

    #[test]
    fn stripped_summaries_of_different_timings_are_equal() {
        let a1 = cell("a", 10);
        let a2 = cell("a", 10);
        let s1 = summarize(&[("a_ORCA".to_string(), &a1)]);
        let s2 = summarize(&[("a_ORCA".to_string(), &a2)]);
        // Unstripped summaries may differ (wall clock); stripped must not.
        assert_eq!(s1.stripped(), s2.stripped());
        assert_eq!(s1.stripped().to_json(), s2.stripped().to_json());
        assert!(s1
            .stripped()
            .to_json()
            .contains("\"critical_path\": {\"cell\": \"\""));
    }

    #[test]
    fn render_mentions_the_key_sections() {
        let a = cell("a", 5);
        let mut s = summarize(&[("a_ORCA".to_string(), &a)]);
        s.jobs = 4;
        s.cache_misses = 1;
        s.stage_cache.push(StageCacheSummary {
            stage: "frontend".to_string(),
            hits: 3,
            misses: 1,
            waits: 0,
        });
        s.pool.push(PoolWorkerSummary {
            jobs: 1,
            busy_ns: 50,
            utilization: 0.5,
        });
        let r = s.render();
        assert!(r.contains("matrix summary: 1 cell(s), 4 job(s)"), "{r}");
        assert!(r.contains("p50"), "{r}");
        assert!(r.contains("solver: 5 pivot(s)"), "{r}");
        assert!(r.contains("cache: 1 miss(es), 1 hit(s)"), "{r}");
        assert!(r.contains("stage cache (miss/hit): frontend 1/3"), "{r}");
        assert!(r.contains("pool: 1 worker(s) · w0 50% (1 job(s))"), "{r}");
    }

    #[test]
    fn stripped_clears_cache_attribution() {
        let a = cell("a", 5);
        let mut s = summarize(&[("a_ORCA".to_string(), &a)]);
        s.stage_cache.push(StageCacheSummary {
            stage: "frontend".to_string(),
            hits: 1,
            misses: 0,
            waits: 0,
        });
        assert_eq!(s.cache_hits, 1);
        let stripped = s.stripped();
        // Hit/miss totals depend on what earlier runs left in a disk
        // cache, so the deterministic artifact must not carry them.
        assert_eq!(stripped.cache_hits, 0);
        assert_eq!(stripped.cache_misses, 0);
        assert!(stripped.stage_cache.is_empty());
        assert!(stripped.to_json().contains("\"hits\": 0, \"misses\": 0"));
    }

    #[test]
    fn merged_trace_nests_cells_and_round_trips() {
        let a = cell("a", 1);
        let b = cell("b", 2);
        let merged = merge_traces(
            &[("a_ORCA".to_string(), &a), ("b_Piccolo".to_string(), &b)],
            &[("cache.hits".to_string(), 3)],
            &[("pool.worker.utilization".to_string(), 0.9)],
            1234,
        );
        // Root, two cell spans, and each cell's own spans.
        assert_eq!(merged.span_count("matrix"), 1);
        assert_eq!(merged.span_count("cell"), 2);
        assert_eq!(merged.span_count("compile"), 2);
        assert_eq!(merged.counter_total(metrics::SOLVER_PIVOTS), 3);
        // Cell spans carry the cell name and parent to the matrix root.
        let cells: Vec<_> = merged
            .span_starts()
            .filter(|&(_, _, n, _)| n == "cell")
            .collect();
        assert_eq!(cells[0].3, Some("a_ORCA"));
        assert_eq!(cells[1].3, Some("b_Piccolo"));
        assert_eq!(cells[0].1, cells[1].1);
        // Span ids stay unique and the stream stays codec-clean.
        let mut ids: Vec<u64> = merged.span_starts().map(|(id, _, _, _)| id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            merged.span_count("matrix") + merged.span_count("cell") + 2 * 4
        );
        let back = Trace::from_jsonl(&merged.to_jsonl()).unwrap();
        assert_eq!(back, merged);
        assert_eq!(merged.span_duration_ns("matrix"), Some(1234));
    }
}
