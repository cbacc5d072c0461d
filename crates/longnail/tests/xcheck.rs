//! Differential X-propagation oracle tests: the full evaluation matrix is
//! clean, and the SystemVerilog emitted for division and dynamic
//! part-selects carries its X-safe forms on every core at -O0 and -O2.

use longnail::driver::{builtin_datasheet, eval_datasheets, EVAL_CORES};
use longnail::{isax_lib, matrix_cells, xcheck_compiled, Longnail, OptLevel, PipelineCache};

#[test]
fn full_evaluation_matrix_is_xcheck_clean() {
    let ln = Longnail::new();
    let cells = matrix_cells(&isax_lib::all_isaxes(), &eval_datasheets());
    let matrix = ln.compile_cells(&cells, 4, &PipelineCache::new());
    let mut cells = 0;
    for (entry, compiled) in matrix.compiled() {
        let report = xcheck_compiled(compiled);
        assert!(
            report.is_clean(),
            "{}×{}: {}\n{}",
            entry.isax,
            entry.core,
            report.summary(),
            report.problems().join("\n")
        );
        // Telemetry carries the per-unit counters.
        let jsonl = report.trace.to_jsonl();
        assert!(jsonl.contains("xcheck.cycles"), "{jsonl}");
        assert!(jsonl.contains("xcheck.mismatches"));
        cells += 1;
    }
    assert_eq!(cells, 32, "all 8 ISAXes x 4 cores must compile");
}

/// An ISAX exercising both division flavors and a dynamic single-bit
/// select (which lowers to `ExtractDyn`): the constructs whose bare
/// SystemVerilog forms (`a / b`, `a % b`, `a[b +: w]`) read X from known
/// inputs.
const XSAFE: &str = r#"
import "RV32I.core_desc";
InstructionSet X_XSAFE extends RV32I {
  instructions {
    xdivu {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b1011011;
      behavior: {
        unsigned<32> q = X[rs1] / X[rs2];
        unsigned<32> r = X[rs1] % X[rs2];
        X[rd] = q ^ r;
      }
    }
    xbitsel {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd1 :: rd[4:0] :: 7'b1011011;
      behavior: {
        unsigned<1> b = X[rs1][X[rs2]];
        X[rd] = b;
      }
    }
  }
}
"#;

/// Whether `line` carries the zero-divisor guard `(<divisor> == N'd0) ?`.
fn guarded(line: &str) -> bool {
    line.split(" == ").skip(1).any(|rest| {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        digits > 0 && rest[digits..].starts_with("'d0) ?")
    })
}

#[test]
fn division_and_dynamic_select_emit_only_x_safe_forms_on_every_core() {
    for level in [OptLevel::O0, OptLevel::O2] {
        let mut ln = Longnail::new();
        ln.opt_level = level;
        for core in EVAL_CORES {
            let cell = format!("{core} at -O{}", level.level());
            let ds = builtin_datasheet(core).unwrap();
            let compiled = ln.compile(XSAFE, "X_XSAFE", &ds).unwrap();
            let lines: Vec<&str> = compiled
                .graphs
                .iter()
                .flat_map(|g| g.verilog.lines())
                .collect();
            let divisions: Vec<&str> = lines
                .iter()
                .copied()
                .filter(|l| l.contains(" / ") || l.contains(" % "))
                .collect();
            assert!(
                divisions.len() >= 2,
                "{cell}: expected `/` and `%`: {lines:#?}"
            );
            for l in &divisions {
                assert!(guarded(l), "{cell}: division without its zero guard: {l}");
            }
            assert!(
                lines.iter().any(|l| l.contains("'(") && l.contains(" >> ")),
                "{cell}: dynamic select is not the bounded shift: {lines:#?}"
            );
            assert!(
                lines.iter().all(|l| !l.contains("+:")),
                "{cell}: indexed part-select emitted: {lines:#?}"
            );
            // The guard and the shift make both constructs total with
            // exactly the interpreter's convention.
            let report = xcheck_compiled(&compiled);
            assert!(
                report.is_clean(),
                "{cell}: {}",
                report.problems().join("\n")
            );
        }
    }
}
