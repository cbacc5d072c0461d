//! Regenerates the paper's §5.4 supporting experiment: "we performed a
//! supporting experiment where we manually added an additional pipeline
//! stage in the ISAX for returning the result. This simplifies timing
//! closure significantly and reduces the ISAX area overhead considerably."
//!
//! The extra stage registers the result before it enters the core, so the
//! ISAX output logic leaves the forwarding path: the synthesis-effort
//! multiplier collapses and fmax recovers, at the cost of one 32-bit
//! register and one cycle of latency.

use bench::compile_isaxes;
use eda::report::IsaxInput;
use eda::{evaluate_integration, CoreAsicProfile, TechLibrary};
use longnail::OptLevel;
use scaiev::integrate::size_interface_logic;

fn main() {
    println!("§5.4 supporting experiment: extra pipeline stage for the result return\n");
    let lib = TechLibrary::new();
    println!(
        "{:<10} {:<28} {:>12} {:>10} {:>9}",
        "core", "variant", "isax µm²", "area ovh", "fmax Δ"
    );
    for core in ["ORCA", "Piccolo"] {
        let compiled = compile_isaxes(core, &["sqrt_tightly"], OptLevel::O0);
        let profile = CoreAsicProfile::for_core(core).unwrap();
        let ds = longnail::driver::builtin_datasheet(core).unwrap();
        let iface = size_interface_logic(
            &[(*compiled[0].config).clone()],
            &ds,
            true,
        );
        let g = compiled[0].graph("sqrt").unwrap();

        // Baseline: the tightly-coupled result drives the core's write-back
        // (and, on ORCA, its forwarding network) combinationally.
        let base = evaluate_integration(
            &lib,
            &profile,
            &[IsaxInput {
                module: &g.built.module,
                on_forwarding_path: core == "ORCA",
                registered_commit: false,
            }],
            &iface,
        );
        // Experiment: one extra stage registers the result first. The module
        // grows by a 32-bit register; the output is no longer combinational
        // into the core.
        let mut registered_module = g.built.module.clone();
        let extra_reg_um2 = lib.ge_to_um2(lib.register_area_ge(32, false));
        let with_stage = evaluate_integration(
            &lib,
            &profile,
            &[IsaxInput {
                module: &registered_module,
                on_forwarding_path: false,
                registered_commit: true,
            }],
            &iface,
        );
        let _ = &mut registered_module;
        let adjusted_area = with_stage.isax_area_um2 + extra_reg_um2;
        let adjusted_pct =
            100.0 * (adjusted_area + with_stage.interface_area_um2) / profile.base_area_um2;
        println!(
            "{:<10} {:<28} {:>12.0} {:>9.0} % {:>8.1} %",
            core,
            "tightly-coupled (baseline)",
            base.isax_area_um2,
            base.area_overhead_pct(),
            base.fmax_delta_pct()
        );
        println!(
            "{:<10} {:<28} {:>12.0} {:>9.0} % {:>8.1} %",
            "",
            "+1 result-return stage",
            adjusted_area,
            adjusted_pct,
            with_stage.fmax_delta_pct()
        );
        assert!(
            adjusted_area <= base.isax_area_um2 + extra_reg_um2 + 1e-6,
            "{core}: the registered variant must not cost more logic"
        );
        assert!(
            with_stage.fmax_mhz >= base.fmax_mhz,
            "{core}: registering the result must not hurt fmax"
        );
    }
    println!(
        "\nRegistering the result removes the timing pressure (and on ORCA the\n\
         forwarding-path coupling), trading one cycle of latency for area and\n\
         frequency — the paper's observation, reproduced structurally."
    );
}
