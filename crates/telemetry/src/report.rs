//! Human-readable sinks over a [`Trace`]: the per-unit compile report
//! (Table 1/Table 4 style) and the indented span-tree timing view.

use crate::{metrics, EventKind, SpanId, Trace};
use std::collections::HashMap;
use std::fmt::Write;

/// Formats nanoseconds adaptively (`ns` / `µs` / `ms` / `s`).
pub fn fmt_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Per-span bookkeeping assembled from the event stream.
struct SpanInfo {
    parent: Option<SpanId>,
    name: String,
    unit: Option<String>,
    dur_ns: u64,
}

fn index_spans(trace: &Trace) -> (Vec<SpanId>, HashMap<SpanId, SpanInfo>) {
    let mut order = Vec::new();
    let mut spans: HashMap<SpanId, SpanInfo> = HashMap::new();
    for e in &trace.events {
        match &e.kind {
            EventKind::SpanStart {
                id,
                parent,
                name,
                unit,
            } => {
                order.push(*id);
                spans.insert(
                    *id,
                    SpanInfo {
                        parent: *parent,
                        name: name.to_string(),
                        unit: unit.clone(),
                        dur_ns: 0,
                    },
                );
            }
            EventKind::SpanEnd { id, dur_ns } => {
                if let Some(info) = spans.get_mut(id) {
                    info.dur_ns = *dur_ns;
                }
            }
            _ => {}
        }
    }
    (order, spans)
}

/// The `unit` span (instruction / always-block) a span belongs to, if any.
fn owning_unit(spans: &HashMap<SpanId, SpanInfo>, mut id: SpanId) -> Option<SpanId> {
    loop {
        let info = spans.get(&id)?;
        if info.name == "unit" {
            return Some(id);
        }
        id = info.parent?;
    }
}

/// Renders the indented span tree with wall-clock durations — the
/// `lnc --trace` view.
pub fn render_tree(trace: &Trace) -> String {
    let (order, spans) = index_spans(trace);
    let mut depth: HashMap<SpanId, usize> = HashMap::new();
    let mut out = String::new();
    for id in order {
        let info = &spans[&id];
        let d = info
            .parent
            .and_then(|p| depth.get(&p).copied())
            .map_or(0, |p| p + 1);
        depth.insert(id, d);
        let label = match &info.unit {
            Some(u) => format!("{} `{u}`", info.name),
            None => info.name.clone(),
        };
        let indent = "  ".repeat(d);
        let _ = writeln!(
            out,
            "{indent}{label:<w$} {:>10}",
            fmt_duration(info.dur_ns),
            w = 34usize.saturating_sub(indent.len()),
        );
    }
    out
}

/// One row of the compile report, aggregated per unit span.
#[derive(Debug, Clone, Default)]
struct UnitRow {
    unit: String,
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
    attrs: HashMap<String, String>,
}

/// Renders the per-ISAX compile report: one row per instruction /
/// always-block with schedule and hardware statistics (the shape of the
/// paper's Tables 1 and 4), followed by solver totals, diagnostics counts,
/// and per-stage wall-clock times.
pub fn render_report(trace: &Trace) -> String {
    let (order, spans) = index_spans(trace);

    // Root attrs (ISAX name, core).
    let mut root_attrs: HashMap<String, String> = HashMap::new();
    let root = order.first().copied();
    let mut rows: Vec<UnitRow> = Vec::new();
    let mut row_of: HashMap<SpanId, usize> = HashMap::new();
    for &id in &order {
        let info = &spans[&id];
        if info.name == "unit" {
            row_of.insert(id, rows.len());
            rows.push(UnitRow {
                unit: info.unit.clone().unwrap_or_default(),
                ..UnitRow::default()
            });
        }
    }
    let mut diag_counts: HashMap<String, usize> = HashMap::new();
    for e in &trace.events {
        match &e.kind {
            EventKind::Counter { span, name, value } => {
                if let Some(&r) = owning_unit(&spans, *span).and_then(|u| row_of.get(&u)) {
                    *rows[r].counters.entry(name.to_string()).or_insert(0) += value;
                }
            }
            EventKind::Gauge { span, name, value } => {
                if let Some(&r) = owning_unit(&spans, *span).and_then(|u| row_of.get(&u)) {
                    rows[r].gauges.insert(name.to_string(), *value);
                }
            }
            EventKind::Attr { span, name, value } => {
                match owning_unit(&spans, *span).and_then(|u| row_of.get(&u)) {
                    Some(&r) => {
                        rows[r].attrs.insert(name.to_string(), value.clone());
                    }
                    None if Some(*span) == root => {
                        root_attrs.insert(name.to_string(), value.clone());
                    }
                    None => {}
                }
            }
            EventKind::Diag { severity, .. } => {
                *diag_counts.entry(severity.clone()).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    let isax = root_attrs
        .get("isax")
        .cloned()
        .unwrap_or_else(|| "?".into());
    let core = root_attrs
        .get("core")
        .cloned()
        .unwrap_or_else(|| "?".into());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Longnail compile report: ISAX `{isax}` on core `{core}` =="
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<14} {:>4} {:>4} {:>6} {:>3} {:>13} {:>6} {:>8} {:>6} {:>10} {:>8}  {:<15} sched",
        "unit",
        "ops",
        "ifc",
        "stages",
        "II",
        "chain(ach/lim)",
        "cells",
        "reg-bits",
        "depth",
        "area[µm²]",
        "crit[ns]",
        "mode",
    );
    for row in &rows {
        let c = |n: &str| row.counters.get(n).copied().unwrap_or(0);
        let g = |n: &str| row.gauges.get(n).copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{:<14} {:>4} {:>4} {:>6} {:>3} {:>7.2}/{:<5.2} {:>6} {:>8} {:>6} {:>10.1} {:>8.3}  {:<15} {}",
            row.unit,
            c(metrics::PROBLEM_OPS),
            c(metrics::PROBLEM_IFACE_OPS),
            c(metrics::SCHED_STAGES),
            c(metrics::SCHED_II),
            g(metrics::SCHED_CHAIN_DEPTH),
            g(metrics::SCHED_CHAIN_LIMIT),
            c(metrics::RTL_CELLS),
            c(metrics::RTL_REG_BITS),
            c(metrics::RTL_COMB_DEPTH),
            g(metrics::EDA_AREA_UM2),
            g(metrics::EDA_CRIT_NS),
            row.attrs
                .get("mode")
                .map(String::as_str)
                .unwrap_or("?"),
            row.attrs
                .get("scheduler")
                .map(String::as_str)
                .unwrap_or("?"),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "totals: {} unit(s), {} ops; solver: {} pivots, {} nodes, {} rounds, work {}/{}, {} fallback(s)",
        rows.len(),
        trace.counter_total(metrics::PROBLEM_OPS),
        trace.counter_total(metrics::SOLVER_PIVOTS),
        trace.counter_total(metrics::SOLVER_NODES),
        trace.counter_total(metrics::SOLVER_ROUNDS),
        trace.counter_total(metrics::SOLVER_WORK_USED),
        trace.counter_total(metrics::SOLVER_WORK_LIMIT),
        trace.counter_total(metrics::SCHED_FALLBACK),
    );
    if !diag_counts.is_empty() {
        let mut parts: Vec<String> = diag_counts
            .iter()
            .map(|(sev, n)| format!("{n} {sev}(s)"))
            .collect();
        parts.sort();
        let _ = writeln!(out, "diagnostics: {}", parts.join(", "));
    }
    // Per-stage wall-clock, aggregated over units for the inner stages.
    let mut stage_ns: Vec<(String, u64)> = Vec::new();
    for &id in &order {
        let info = &spans[&id];
        if info.name == "unit" || info.name == "compile" {
            continue;
        }
        match stage_ns.iter_mut().find(|(n, _)| *n == info.name) {
            Some((_, total)) => *total += info.dur_ns,
            None => stage_ns.push((info.name.clone(), info.dur_ns)),
        }
    }
    let parts: Vec<String> = stage_ns
        .iter()
        .map(|(n, t)| format!("{n} {}", fmt_duration(*t)))
        .collect();
    let total = trace.span_duration_ns("compile").unwrap_or(0);
    let _ = writeln!(
        out,
        "wall-clock: {} · total {}",
        parts.join(" · "),
        fmt_duration(total)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, Telemetry};

    fn sample() -> Trace {
        let mut t = Telemetry::new();
        let root = t.start_span("compile");
        t.attr(root, "isax", "zol");
        t.attr(root, "core", "VexRiscv");
        let fe = t.start_span("frontend");
        t.end_span(fe);
        let u = t.start_unit_span("unit", Some("setup_zol"));
        let p = t.start_span("problem");
        t.counter(p, metrics::PROBLEM_OPS, 14);
        t.counter(p, metrics::PROBLEM_IFACE_OPS, 5);
        t.end_span(p);
        let s = t.start_span("solve");
        t.counter(s, metrics::SOLVER_PIVOTS, 321);
        t.counter(s, metrics::SOLVER_WORK_USED, 389);
        t.counter(s, metrics::SOLVER_WORK_LIMIT, 4_000_000);
        t.counter(s, metrics::SCHED_STAGES, 2);
        t.counter(s, metrics::SCHED_II, 1);
        t.gauge(s, metrics::SCHED_CHAIN_DEPTH, 2.2);
        t.gauge(s, metrics::SCHED_CHAIN_LIMIT, 5.1);
        t.end_span(s);
        t.attr(u, "mode", "in-pipeline");
        t.attr(u, "scheduler", "ilp");
        t.end_span(u);
        t.end_span(root);
        t.finish()
    }

    #[test]
    fn report_carries_rows_and_totals() {
        let r = render_report(&sample());
        assert!(r.contains("ISAX `zol` on core `VexRiscv`"), "{r}");
        assert!(r.contains("setup_zol"), "{r}");
        assert!(r.contains("321 pivots"), "{r}");
        assert!(r.contains("work 389/4000000"), "{r}");
        assert!(r.contains("in-pipeline"), "{r}");
    }

    #[test]
    fn tree_indents_children() {
        let tree = render_tree(&sample());
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("compile"), "{tree}");
        assert!(lines[1].starts_with("  frontend"), "{tree}");
        assert!(lines[2].starts_with("  unit `setup_zol`"), "{tree}");
        assert!(lines[3].starts_with("    problem"), "{tree}");
    }

    #[test]
    fn durations_format_adaptively() {
        assert_eq!(fmt_duration(17), "17 ns");
        assert_eq!(fmt_duration(1_500), "1.5 µs");
        assert_eq!(fmt_duration(2_500_000), "2.50 ms");
        assert_eq!(fmt_duration(3_000_000_000), "3.00 s");
    }
}
