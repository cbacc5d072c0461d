//! The benchmark's inputs (the Table 3 × Table 4 matrix) and the checks
//! every iteration's outputs must pass.

use eda::TechLibrary;
use longnail::driver::eval_datasheets;
use longnail::{isax_lib, CompiledGraph, CompiledIsax, MatrixCell, MatrixResult};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// Compiled units (instructions plus always-blocks) per ISAX, from Table 3
/// by hand, so the unit-count check does not trust the compiler's own
/// count.
pub const TABLE3_UNITS: [(&str, usize); 8] = [
    ("autoinc", 3),
    ("dotprod", 1),
    ("ijmp", 1),
    ("sbox", 1),
    ("sparkle", 8),
    ("sqrt_tightly", 1),
    ("sqrt_decoupled", 1),
    ("zol", 2),
];

pub fn expected_units(isax: &str) -> Option<usize> {
    TABLE3_UNITS
        .iter()
        .find(|(name, _)| *name == isax)
        .map(|&(_, n)| n)
}

/// `(display name, unit, source)` of every Table 3 ISAX, checked against
/// [`TABLE3_UNITS`].
pub fn isaxes() -> Result<Vec<(String, String, String)>, String> {
    let all = isax_lib::all_isaxes();
    let names: Vec<&str> = all.iter().map(|(n, _, _)| n.as_str()).collect();
    let want: Vec<&str> = TABLE3_UNITS.iter().map(|(n, _)| *n).collect();
    if names != want {
        return Err(format!(
            "builtin ISAXes {names:?} are not Table 3's {want:?}"
        ));
    }
    Ok(all)
}

/// The 8×4 evaluation matrix, ISAX-major.
pub fn matrix_cells(isaxes: &[(String, String, String)]) -> Vec<MatrixCell> {
    let cores = eval_datasheets();
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

pub fn cell_id(isax: &str, core: &str) -> String {
    format!("{isax}@{core}")
}

/// A cell compiled cleanly: no error or fault diagnostics, and exactly
/// Table 3's unit count.
pub fn check_compiled(isax: &str, c: &CompiledIsax) -> Result<(), String> {
    let id = cell_id(isax, &c.core);
    if c.diagnostics.has_errors() || c.diagnostics.has_faults() {
        return Err(format!("{id}: {}", c.diagnostics.render().trim_end()));
    }
    let want = expected_units(isax).ok_or_else(|| format!("{id}: not a Table 3 ISAX"))?;
    if c.graphs.len() != want {
        return Err(format!(
            "{id}: {} unit(s), Table 3 has {want}",
            c.graphs.len()
        ));
    }
    Ok(())
}

/// Checks every cell of a matrix-shaped result and its repeats.
pub fn check_matrix(m: &MatrixResult, repeats: &mut Repeats) -> Result<(), String> {
    for e in &m.entries {
        let c = e
            .outcome
            .as_ref()
            .map_err(|err| format!("{}: {err}", cell_id(&e.isax, &e.core)))?;
        check_compiled(&e.isax, c)?;
        repeats.check(&cell_id(&e.isax, &e.core), c)?;
    }
    Ok(())
}

/// Every repeat of a cell within a run must emit byte-identical Verilog and
/// SCAIE-V config; this holds a digest of the first one seen per cell.
#[derive(Default)]
pub struct Repeats(HashMap<String, u64>);

impl Repeats {
    pub fn check(&mut self, id: &str, c: &CompiledIsax) -> Result<(), String> {
        let mut h = DefaultHasher::new();
        for g in &c.graphs {
            (&g.name, &g.verilog).hash(&mut h);
        }
        c.config.to_yaml().hash(&mut h);
        let digest = h.finish();
        match self.0.get(id) {
            Some(&first) if first != digest => Err(format!(
                "{id}: Verilog or config differs from its first compile"
            )),
            Some(_) => Ok(()),
            None => {
                self.0.insert(id.to_string(), digest);
                Ok(())
            }
        }
    }
}

/// Hardware quality of the compiled cells, the guard that a faster
/// compiler does not emit worse hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// `eda::estimate_module` area summed over the units.
    pub area_um2: f64,
    /// Longest modeled critical path of any unit.
    pub crit_path_ns: f64,
    /// The Figure 7 objective summed over the units.
    pub sched_objective: i64,
}

/// The Figure 7 objective of one scheduled graph: Σ start times plus Σ
/// lifetimes `start(to) - start(from)` over its edges (operands and
/// predicates).
pub fn sched_objective(g: &CompiledGraph) -> i64 {
    let start = |v: ir::ValueId| i64::from(g.schedule.start_time[v.0]);
    g.graph
        .iter()
        .map(|(v, op)| {
            let lifetimes: i64 = op
                .operands
                .iter()
                .chain(op.pred.iter())
                .map(|&u| start(v) - start(u))
                .sum();
            start(v) + lifetimes
        })
        .sum()
}

pub fn quality(c: &CompiledIsax) -> Quality {
    let lib = TechLibrary::new();
    let mut q = Quality::default();
    for g in &c.graphs {
        let est = eda::estimate_module(&lib, &g.built.module);
        q.area_um2 += est.area.total();
        q.crit_path_ns = q.crit_path_ns.max(est.timing.critical_path_ns);
        q.sched_objective += sched_objective(g);
    }
    q
}

/// Quality per distinct cell compiled in a run.
#[derive(Default)]
pub struct QualityLedger(BTreeMap<String, Quality>);

impl QualityLedger {
    /// Records a cell the first time it is seen; repeats are byte-identical
    /// ([`Repeats`]), so once is enough.
    pub fn record(&mut self, id: &str, c: &CompiledIsax) {
        if !self.0.contains_key(id) {
            self.0.insert(id.to_string(), quality(c));
        }
    }

    pub fn record_matrix(&mut self, m: &MatrixResult) {
        for (e, c) in m.compiled() {
            self.record(&cell_id(&e.isax, &e.core), c);
        }
    }

    pub fn cells(&self) -> usize {
        self.0.len()
    }

    pub fn total(&self) -> Quality {
        self.0.values().fold(Quality::default(), |acc, q| Quality {
            area_um2: acc.area_um2 + q.area_um2,
            crit_path_ns: acc.crit_path_ns.max(q.crit_path_ns),
            sched_objective: acc.sched_objective + q.sched_objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_the_builtin_isaxes() {
        let all = isaxes().expect("Table 3 names");
        assert_eq!(matrix_cells(&all).len(), 32);
        assert_eq!(TABLE3_UNITS.iter().map(|(_, n)| n).sum::<usize>(), 18);
    }
}
