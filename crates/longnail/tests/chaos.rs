//! Matrix-level chaos sweep: one injected fault per cell, 32 runs.
//!
//! For every cell of the 8×4 evaluation matrix, a [`FaultPlan`] injects
//! exactly one fault — rotating through contained panics (at rotating
//! stage boundaries), forced parse errors, solver-budget exhaustion, and
//! a poisoned stage-store lock — and the run must degrade gracefully:
//! the faulted cell yields exactly one Error/Fault-severity diagnostic,
//! and the *other 31 cells* produce SystemVerilog and SCAIE-V YAML
//! byte-identical to a clean baseline run. Poisoned-cache cells double as
//! a recovery proof: every other cell, sibling cells of the same ISAX
//! included, goes through the poisoned store and must still compile
//! bit-exactly.
//!
//! The sweep runs on four workers and on one. With one worker the pool
//! runs every cell inline on the calling thread, so the driver's own
//! catcher is all that contains a panic.

use longnail::driver::{builtin_datasheet, eval_datasheets, MatrixResult};
use longnail::isax_lib::{all_isaxes, isax_source};
use longnail::{
    current_stage, matrix_cells, FaultKind, FaultPlan, Longnail, PipelineCache, Severity,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Keeps injected panics (and the store's injected lock poisoning) off
/// stderr for every test in this binary; any other panic still reaches
/// the default hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !pool::panic_message(info.payload()).contains("injected") {
                default_hook(info);
            }
        }));
    });
}

/// The comparable artifacts of one cell: per-unit SystemVerilog plus the
/// SCAIE-V configuration YAML. `None` for failed cells.
fn cell_artifacts(m: &MatrixResult, k: usize) -> Option<(Vec<(String, String)>, String)> {
    m.entries[k].outcome.as_ref().ok().map(|c| {
        let svs = c
            .graphs
            .iter()
            .map(|g| (g.name.clone(), g.verilog.clone()))
            .collect();
        (svs, c.config.to_yaml())
    })
}

#[test]
fn one_injected_fault_per_cell_leaves_the_other_cells_bit_exact() {
    sweep(4);
}

#[test]
fn one_injected_fault_per_cell_on_one_worker() {
    sweep(1);
}

fn sweep(jobs: usize) {
    silence_injected_panics();
    let cells = matrix_cells(&all_isaxes(), &eval_datasheets());
    let compile = |ln: &Longnail| ln.compile_cells(&cells, jobs, &PipelineCache::new());
    let baseline = compile(&Longnail::new());
    assert_eq!(baseline.entries.len(), cells.len());
    assert_eq!(baseline.cell_faults, 0);
    assert_eq!(baseline.errors_recovered, 0);
    for e in &baseline.entries {
        assert!(e.outcome.is_ok(), "baseline {}×{} failed", e.isax, e.core);
    }
    let kinds = [
        FaultKind::Panic,
        FaultKind::ParseError,
        FaultKind::BudgetExhaustion,
        FaultKind::PoisonCache,
    ];
    for k in 0..baseline.entries.len() {
        let unit = baseline.entries[k].unit.clone();
        let core = baseline.entries[k].core.clone();
        let kind = kinds[k % kinds.len()];
        // Panics rotate across eight of the nine stage boundaries over the
        // sweep (all but `rtl`, which ci.sh's chaos run covers); the other
        // kinds have a fixed stage.
        let stage = match kind {
            FaultKind::Panic => telemetry::STAGES[k % telemetry::STAGES.len()],
            FaultKind::ParseError | FaultKind::PoisonCache => "frontend",
            FaultKind::BudgetExhaustion => "solve",
        };
        let mut ln = Longnail::new();
        ln.fault_plan = Some(FaultPlan::single(&unit, &core, kind, stage).unwrap());
        let m = compile(&ln);
        let ctx = format!("{jobs} worker(s), cell {k} ({unit}×{core}, {kind}@{stage})");

        // The faulted cell degrades to exactly one Error/Fault diagnostic.
        match (&m.entries[k].outcome, kind) {
            (Err(f), FaultKind::Panic) => {
                assert_eq!(f.severity, Severity::Fault, "{ctx}");
                assert_eq!(f.stage, stage, "{ctx}: panic attributed to wrong stage");
                assert!(f.message.contains("injected fault"), "{ctx}: {}", f.message);
                assert_eq!(m.cell_faults, 1, "{ctx}");
            }
            (Err(f), FaultKind::PoisonCache) => {
                assert_eq!(f.severity, Severity::Fault, "{ctx}");
                assert_eq!(f.stage, "frontend", "{ctx}");
                assert_eq!(m.cell_faults, 1, "{ctx}");
            }
            (Err(f), FaultKind::ParseError) => {
                assert_eq!(f.severity, Severity::Error, "{ctx}");
                assert_eq!(f.frontend_errors.len(), 1, "{ctx}");
                assert_eq!(f.frontend_errors[0].code, "LN0101", "{ctx}");
                assert_eq!(m.cell_faults, 0, "{ctx}");
                assert!(m.errors_recovered >= 1, "{ctx}");
            }
            (Ok(c), FaultKind::BudgetExhaustion) => {
                let bad: Vec<_> = c
                    .diagnostics
                    .events
                    .iter()
                    .filter(|e| e.severity >= Severity::Error)
                    .collect();
                assert_eq!(bad.len(), 1, "{ctx}: {:?}", c.diagnostics.events);
                assert_eq!(bad[0].stage, "solve", "{ctx}");
                assert_eq!(bad[0].severity, Severity::Error, "{ctx}");
                assert_eq!(m.cell_faults, 0, "{ctx}");
                assert!(m.errors_recovered >= 1, "{ctx}");
            }
            (outcome, _) => panic!(
                "{ctx}: unexpected outcome {:?}",
                outcome.as_ref().map(|c| &c.name)
            ),
        }

        // Every other cell is byte-identical to the clean baseline.
        for j in 0..m.entries.len() {
            if j == k {
                continue;
            }
            let want = cell_artifacts(&baseline, j).expect("baseline cell compiled");
            let got = cell_artifacts(&m, j).unwrap_or_else(|| {
                panic!(
                    "{ctx}: innocent cell {}×{} failed: {:?}",
                    m.entries[j].isax,
                    m.entries[j].core,
                    m.entries[j].outcome.as_ref().err()
                )
            });
            assert_eq!(got, want, "{ctx}: cell {j} artifacts diverged");
        }
    }
}

/// A single-file compile is a one-cell batch, so a fault plan acts on it
/// exactly as on that matrix cell — except that a planned panic unwinds
/// to the caller, at its stage, because `compile` does not contain
/// panics.
#[test]
fn single_file_compile_honours_every_fault_kind() {
    silence_injected_panics();
    let (unit, src) = isax_source("dotprod").unwrap();
    let ds = builtin_datasheet("ORCA").unwrap();
    let compile = |kind: FaultKind, stage: &str| {
        let mut ln = Longnail::new();
        ln.fault_plan = Some(FaultPlan::single(&unit, &ds.core, kind, stage).unwrap());
        catch_unwind(AssertUnwindSafe(|| ln.compile(&src, &unit, &ds)))
    };

    let err = compile(FaultKind::ParseError, "frontend").unwrap().unwrap_err();
    assert_eq!((err.stage, err.severity), ("frontend", Severity::Error));
    let codes: Vec<&str> = err.frontend_errors.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["LN0101"]);

    let err = compile(FaultKind::PoisonCache, "frontend").unwrap().unwrap_err();
    assert_eq!((err.stage, err.severity), ("frontend", Severity::Fault));

    let compiled = compile(FaultKind::BudgetExhaustion, "solve").unwrap().unwrap();
    let bad: Vec<_> = compiled
        .diagnostics
        .events
        .iter()
        .filter(|e| e.severity >= Severity::Error)
        .map(|e| (e.stage, e.severity))
        .collect();
    assert_eq!(bad, [("solve", Severity::Error)]);

    for stage in telemetry::STAGES {
        let payload = compile(FaultKind::Panic, stage).expect_err("compile contains no panic");
        assert!(pool::panic_message(payload.as_ref()).contains("injected fault"));
        assert_eq!(current_stage(), stage, "panic fired at the wrong stage");
    }
}

#[test]
fn a_source_with_independent_errors_reports_them_all_in_one_compile() {
    let src = r#"
import "RV32I.core_desc";
InstructionSet multi extends RV32I {
    instructions {
        lossy {
            encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
            behavior: { X[rd] = X[rs1] + X[rs2]; }
        }
        unknown {
            encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd1 :: rd[4:0] :: 7'b0001011;
            behavior: { X[rd] = (unsigned<32>) nosuch_name; }
        }
        badcall {
            encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd2 :: rd[4:0] :: 7'b0001011;
            behavior: { X[rd] = nosuch_fn(X[rs1]); }
        }
    }
}
"#;
    let ds = builtin_datasheet("ORCA").unwrap();
    let err = Longnail::new().compile(src, "multi", &ds).unwrap_err();
    assert_eq!(err.stage, "frontend");
    assert_eq!(err.severity, Severity::Error);
    assert!(
        err.frontend_errors.len() >= 3,
        "want all three independent errors, got {:?}",
        err.frontend_errors
    );
    for d in &err.frontend_errors {
        assert!(
            d.code.len() == 6 && d.code.starts_with("LN"),
            "uncoded diagnostic: {d}"
        );
    }
    let codes: Vec<&str> = err.frontend_errors.iter().map(|d| d.code).collect();
    for want in [
        coredsl::codes::SEMA_LOSSY_ASSIGN,
        coredsl::codes::SEMA_UNKNOWN_NAME,
        coredsl::codes::SEMA_BAD_CALL,
    ] {
        assert!(codes.contains(&want), "missing {want} in {codes:?}");
    }
    // The summary message mentions the full count, not just the first.
    assert!(err.message.contains("more error(s)"), "{}", err.message);
}
