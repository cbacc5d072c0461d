//! Shared helpers for the table/figure regeneration benches.
//!
//! Each `[[bench]]` target with `harness = false` regenerates one table or
//! figure of the paper (see `DESIGN.md` §5 for the index); run them all
//! with `cargo bench -p bench`. None of them times the compiler; that is
//! `compilebench`'s job.

use cores::{descriptor, ExtendedCore};
use eda::report::IsaxInput;
use eda::{evaluate_integration, AsicReport, CoreAsicProfile, TechLibrary};
use longnail::driver::{builtin_datasheet, CompiledIsax};
use longnail::isax_lib;
use longnail::Longnail;
use riscv::asm::Assembler;
use scaiev::integrate::size_interface_logic;
use scaiev::modes::ExecutionMode;

/// Compiles the named Table 3 ISAXes for `core`.
///
/// # Panics
///
/// Panics on any flow error (benches want loud failures).
pub fn compile_isaxes(core: &str, names: &[&str]) -> Vec<CompiledIsax> {
    let ln = Longnail::new();
    let ds = builtin_datasheet(core).expect("known core");
    names
        .iter()
        .map(|name| {
            let (unit, src) = isax_lib::isax_source(name).expect("known ISAX");
            ln.compile(&src, &unit, &ds)
                .unwrap_or_else(|e| panic!("{name} on {core}: {e}"))
        })
        .collect()
}

/// Builds an [`ExtendedCore`] with the named ISAXes and an assembler with
/// their mnemonics registered.
///
/// # Panics
///
/// Panics on any flow error.
pub fn extended_core(core: &str, names: &[&str]) -> (ExtendedCore, Assembler) {
    let compiled = compile_isaxes(core, names);
    let mut asm = Assembler::new();
    for isax in &compiled {
        isax_lib::register_mnemonics(&mut asm, &isax.module).expect("mnemonics");
    }
    let ec = ExtendedCore::new(descriptor(core).expect("known core"), compiled, true);
    (ec, asm)
}

/// Computes a Table 4 cell: the ASIC report for integrating the named
/// ISAXes into `core`.
///
/// # Panics
///
/// Panics on any flow error.
pub fn table4_cell(core: &str, names: &[&str], hazard_handling: bool) -> AsicReport {
    let compiled = compile_isaxes(core, names);
    let lib = TechLibrary::new();
    let profile = CoreAsicProfile::for_core(core).expect("known core");
    let ds = builtin_datasheet(core).expect("known core");
    let configs: Vec<_> = compiled.iter().map(|c| c.config.clone()).collect();
    let iface = size_interface_logic(&configs, &ds, hazard_handling);
    let fwd = matches!(
        descriptor(core).expect("known core").kind,
        cores::CoreKind::Pipeline {
            forwarding_from_wb: true,
            ..
        }
    );
    let inputs: Vec<IsaxInput<'_>> = compiled
        .iter()
        .flat_map(|c| c.graphs.iter())
        .map(|g| IsaxInput {
            module: &g.built.module,
            // A result produced in (or beyond) the write-back stage of a
            // forwarding core joins the forwarding path, unless it commits
            // through the registered decoupled port.
            on_forwarding_path: fwd
                && !g.is_always
                && g.result_stage
                    .map(|s| s + 1 >= descriptor(core).unwrap().wb_stage())
                    .unwrap_or(false),
            registered_commit: g.mode == ExecutionMode::Decoupled,
        })
        .collect();
    evaluate_integration(&lib, &profile, &inputs, &iface)
}

/// The Table 4 row specifications: display name, ISAXes, hazard handling.
pub fn table4_rows() -> Vec<(&'static str, Vec<&'static str>, bool)> {
    vec![
        ("autoinc", vec!["autoinc"], true),
        ("dotprod", vec!["dotprod"], true),
        ("ijmp", vec!["ijmp"], true),
        ("sbox", vec!["sbox"], true),
        ("sparkle", vec!["sparkle"], true),
        ("sqrt_tightly", vec!["sqrt_tightly"], true),
        ("sqrt_decoupled", vec!["sqrt_decoupled"], true),
        ("  without data-hazard handling", vec!["sqrt_decoupled"], false),
        ("zol", vec!["zol"], true),
        ("autoinc+zol", vec!["autoinc", "zol"], true),
    ]
}

/// Formats a signed percentage in the Table 4 style (`+ 20 %` / `- 6 %`).
pub fn fmt_pct(v: f64) -> String {
    if v >= 0.0 {
        format!("+ {:.0} %", v.round())
    } else {
        format!("- {:.0} %", v.abs().round())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_pct_matches_table4_style() {
        assert_eq!(fmt_pct(20.4), "+ 20 %");
        assert_eq!(fmt_pct(0.0), "+ 0 %");
        assert_eq!(fmt_pct(-6.2), "- 6 %");
        assert_eq!(fmt_pct(-0.6), "- 1 %");
    }

    #[test]
    fn table4_rows_cover_every_isax() {
        let rows = table4_rows();
        for (name, _, _) in isax_lib::all_isaxes() {
            assert!(
                rows.iter().any(|(_, isaxes, _)| isaxes.contains(&name.as_str())),
                "Table 4 is missing {name}"
            );
        }
    }
}
