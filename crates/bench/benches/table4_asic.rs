//! Regenerates Table 4: ASIC area and frequency overheads of each ISAX
//! integrated into each of the four base cores, once for the netlists as
//! built (-O0) and once after the netlist optimizer (-O2), which stands in
//! for the clean-up the paper's commercial synthesis flow applies.
//!
//! Absolute numbers come from this reproduction's 22 nm-class cost model,
//! not the paper's commercial flow; compare *shapes* (which ISAXes are
//! large, where frequency regresses) — see `EXPERIMENTS.md`.

use bench::{fmt_pct, table4_cell, table4_rows};
use eda::CoreAsicProfile;
use longnail::driver::EVAL_CORES;
use longnail::OptLevel;

fn main() {
    println!("Table 4: ASIC results for area and frequency overheads of ISAX");
    println!("when integrated into base cores (reproduction model)");
    for level in [OptLevel::O0, OptLevel::O2] {
        print_table(level);
    }
    println!("\n(area overhead % / fmax delta % relative to the base core)");
}

fn print_table(level: OptLevel) {
    println!("\nnetlists at -O{}:", level.level());
    print!("{:<32}", "");
    for core in EVAL_CORES {
        print!("{:>22}", core);
    }
    println!();
    print!("{:<32}", "Base core (area µm² / MHz)");
    for core in EVAL_CORES {
        let p = CoreAsicProfile::for_core(core).unwrap();
        print!(
            "{:>22}",
            format!("{:.0} / {:.0}", p.base_area_um2, p.base_fmax_mhz)
        );
    }
    println!();
    for (label, isaxes, hazard) in table4_rows() {
        print!("{label:<32}");
        for core in EVAL_CORES {
            let report = table4_cell(core, &isaxes, hazard, level);
            print!(
                "{:>22}",
                format!(
                    "{} / {}",
                    fmt_pct(report.area_overhead_pct()),
                    fmt_pct(report.fmax_delta_pct())
                )
            );
        }
        println!();
    }
}
