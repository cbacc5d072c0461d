//! Sizing of the SCAIE-V-generated interface logic.
//!
//! SCAIE-V tailors the processor integration precisely to the needs of the
//! ISAXes (paper §3): decode comparators, payload multiplexing with static
//! arbitration, custom-register storage with hazard handling, scoreboard
//! logic for decoupled mode, and stall/flush plumbing. This module derives
//! an inventory of that generated logic from the ISAX configuration files —
//! the quantity the ASIC cost model (`eda` crate) turns into area.

use crate::config::IsaxConfig;
use crate::datasheet::VirtualDatasheet;
use crate::modes::ExecutionMode;
use std::collections::{BTreeMap, BTreeSet};

/// Inventory of generated interface logic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterfaceLogicReport {
    /// Total bits of SCAIE-V-instantiated custom-register storage.
    pub custom_reg_bits: u64,
    /// Number of distinct custom registers.
    pub custom_reg_count: usize,
    /// 32-bit decode comparators (one per ISAX instruction).
    pub decode_comparators: usize,
    /// Multiplexer bits for arbitrating payloads into shared write targets.
    pub result_mux_bits: u64,
    /// Scoreboard entries for decoupled hazard handling.
    pub scoreboard_entries: usize,
    /// Stall/flush control signals routed through the pipeline.
    pub stall_flush_signals: usize,
    /// Explicit valid bits (always-mode and conditional updates).
    pub valid_signals: usize,
    /// Functionalities using the RdMem sub-interface (each needs a load
    /// port multiplexed into the core's LSU path).
    pub mem_read_users: usize,
    /// Functionalities using the WrMem sub-interface.
    pub mem_write_users: usize,
    /// Functionalities writing the PC (redirect mux into the fetch stage).
    pub pc_write_users: usize,
    /// Whether any functionality uses the tightly-coupled mode (stall
    /// counter + hold logic).
    pub uses_tightly_coupled: bool,
    /// Whether any functionality uses the decoupled mode.
    pub uses_decoupled: bool,
    /// Whether decoupled hazard handling is generated (the Table 4
    /// "without data-hazard handling" row disables it).
    pub hazard_handling: bool,
}

/// Computes the interface-logic inventory for a set of ISAXes integrated
/// into one core.
pub fn size_interface_logic(
    configs: &[IsaxConfig],
    datasheet: &VirtualDatasheet,
    hazard_handling: bool,
) -> InterfaceLogicReport {
    let mut report = InterfaceLogicReport {
        hazard_handling,
        ..InterfaceLogicReport::default()
    };

    // Custom registers, deduplicated by name across ISAXes.
    let mut reg_widths: BTreeMap<String, (u32, u64)> = BTreeMap::new();
    for config in configs {
        for r in &config.registers {
            reg_widths
                .entry(r.name.clone())
                .or_insert((r.width, r.elements));
        }
    }
    report.custom_reg_count = reg_widths.len();
    report.custom_reg_bits = reg_widths.values().map(|&(w, e)| w as u64 * e).sum();

    // Write-target fan-in for arbitration muxes.
    let mut fan_in: BTreeMap<String, (usize, u64)> = BTreeMap::new(); // target -> (count, width)
    let mut decoupled_instrs: BTreeSet<String> = BTreeSet::new();
    for config in configs {
        for f in &config.functionalities {
            if f.encoding.is_some() {
                report.decode_comparators += 1;
            }
            let mut targets_this_func: BTreeSet<String> = BTreeSet::new();
            let mut counted_rdmem = false;
            let mut counted_wrmem = false;
            let mut counted_wrpc = false;
            for e in &f.schedule {
                if e.has_valid {
                    report.valid_signals += 1;
                }
                match e.interface.as_str() {
                    "RdMem" if !counted_rdmem => {
                        report.mem_read_users += 1;
                        counted_rdmem = true;
                    }
                    "WrMem" if !counted_wrmem => {
                        report.mem_write_users += 1;
                        counted_wrmem = true;
                    }
                    "WrPC" if !counted_wrpc => {
                        report.pc_write_users += 1;
                        counted_wrpc = true;
                    }
                    _ => {}
                }
                match e.mode {
                    ExecutionMode::TightlyCoupled => report.uses_tightly_coupled = true,
                    ExecutionMode::Decoupled => {
                        report.uses_decoupled = true;
                        decoupled_instrs.insert(format!("{}::{}", config.name, f.name));
                    }
                    _ => {}
                }
                let (target, width) = match e.interface.as_str() {
                    "WrRD" => ("WrRD".to_string(), 32),
                    "WrPC" => ("WrPC".to_string(), 32),
                    "WrMem" => ("WrMem".to_string(), 64), // address + data
                    other => {
                        if let Some(reg) = other
                            .strip_prefix("Wr")
                            .and_then(|r| r.strip_suffix(".data"))
                        {
                            let width = reg_widths.get(reg).map(|&(w, _)| w).unwrap_or(32);
                            (format!("Wr{reg}"), width as u64)
                        } else {
                            continue;
                        }
                    }
                };
                if targets_this_func.insert(target.clone()) {
                    let entry = fan_in.entry(target).or_insert((0, width));
                    entry.0 += 1;
                }
            }
        }
    }
    report.result_mux_bits = fan_in
        .values()
        .map(|&(count, width)| (count.saturating_sub(1)) as u64 * width)
        .sum();
    report.scoreboard_entries = if hazard_handling {
        decoupled_instrs.len()
    } else {
        0
    };
    // One stall and one flush signal per pipeline stage SCAIE-V touches.
    report.stall_flush_signals = 2 * datasheet.stages as usize;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Functionality, RegisterRequest, ScheduleEntry};
    use crate::datasheet::VirtualDatasheet;

    fn ds() -> VirtualDatasheet {
        VirtualDatasheet::new("VexRiscv", 5, 4, 3)
    }

    fn entry(interface: &str, mode: ExecutionMode, has_valid: bool) -> ScheduleEntry {
        ScheduleEntry {
            interface: interface.into(),
            stage: 2,
            has_valid,
            mode,
        }
    }

    #[test]
    fn counts_custom_registers_and_decode_logic() {
        let config = IsaxConfig {
            name: "zol".into(),
            registers: vec![
                RegisterRequest {
                    name: "COUNT".into(),
                    width: 32,
                    elements: 1,
                },
                RegisterRequest {
                    name: "HIST".into(),
                    width: 8,
                    elements: 16,
                },
            ],
            functionalities: vec![Functionality {
                name: "setup".into(),
                encoding: Some("0".repeat(32)),
                schedule: vec![entry("WrCOUNT.data", ExecutionMode::InPipeline, false)],
            }],
        };
        let report = size_interface_logic(&[config], &ds(), true);
        assert_eq!(report.custom_reg_count, 2);
        assert_eq!(report.custom_reg_bits, 32 + 128);
        assert_eq!(report.decode_comparators, 1);
        assert_eq!(report.stall_flush_signals, 10);
        // Single writer: no arbitration mux needed.
        assert_eq!(report.result_mux_bits, 0);
    }

    #[test]
    fn shared_targets_need_muxes() {
        let mk = |name: &str| IsaxConfig {
            name: name.into(),
            registers: vec![],
            functionalities: vec![Functionality {
                name: format!("{name}_i"),
                encoding: Some("1".repeat(32)),
                schedule: vec![entry("WrRD", ExecutionMode::InPipeline, false)],
            }],
        };
        let report = size_interface_logic(&[mk("a"), mk("b"), mk("c")], &ds(), true);
        // Three writers into WrRD: two levels of 32-bit muxing.
        assert_eq!(report.result_mux_bits, 64);
    }

    #[test]
    fn decoupled_mode_sizes_the_scoreboard() {
        let config = IsaxConfig {
            name: "sqrt".into(),
            registers: vec![],
            functionalities: vec![Functionality {
                name: "sqrt".into(),
                encoding: Some("1".repeat(32)),
                schedule: vec![entry("WrRD", ExecutionMode::Decoupled, true)],
            }],
        };
        let with = size_interface_logic(std::slice::from_ref(&config), &ds(), true);
        assert_eq!(with.scoreboard_entries, 1);
        assert!(with.uses_decoupled);
        let without = size_interface_logic(&[config], &ds(), false);
        assert_eq!(without.scoreboard_entries, 0);
        assert!(without.uses_decoupled);
    }

    #[test]
    fn tightly_coupled_flag_set() {
        let config = IsaxConfig {
            name: "sqrt".into(),
            registers: vec![],
            functionalities: vec![Functionality {
                name: "sqrt".into(),
                encoding: Some("1".repeat(32)),
                schedule: vec![entry("WrRD", ExecutionMode::TightlyCoupled, false)],
            }],
        };
        let report = size_interface_logic(&[config], &ds(), true);
        assert!(report.uses_tightly_coupled);
        assert!(!report.uses_decoupled);
    }
}
