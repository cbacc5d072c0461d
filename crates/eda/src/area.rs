//! Netlist → cell area, plus SCAIE-V interface-logic area.

use crate::tech::TechLibrary;
use rtl::netlist::{Driver, Module};
use scaiev::integrate::InterfaceLogicReport;

/// Area breakdown of one ISAX module (µm²).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleArea {
    pub combinational_um2: f64,
    pub register_um2: f64,
    pub rom_um2: f64,
}

impl ModuleArea {
    /// Total module area.
    pub fn total(&self) -> f64 {
        self.combinational_um2 + self.register_um2 + self.rom_um2
    }
}

/// Computes the cell area of a module.
pub fn module_area(lib: &TechLibrary, module: &Module) -> ModuleArea {
    let mut area = ModuleArea::default();
    for net in &module.nets {
        match &net.driver {
            Driver::Comb { op, .. } => {
                area.combinational_um2 += lib.ge_to_um2(lib.comb_area_ge(*op, net.width));
            }
            Driver::Reg { enable, .. } => {
                area.register_um2 +=
                    lib.ge_to_um2(lib.register_area_ge(net.width as u64, enable.is_some()));
            }
            Driver::Rom { .. } | Driver::Input { .. } | Driver::Const(_) => {}
        }
    }
    for rom in &module.roms {
        area.rom_um2 +=
            lib.ge_to_um2(lib.rom_area_ge(rom.width as u64 * rom.contents.len() as u64));
    }
    area
}

/// Area of the SCAIE-V-generated interface logic (µm²).
pub fn interface_logic_area(lib: &TechLibrary, report: &InterfaceLogicReport) -> f64 {
    let mut ge = 0.0;
    // Custom-register storage with enable, plus per-register read/write
    // ports with GPR-style hazard handling across the pipeline (§3.2).
    ge += lib.register_area_ge(report.custom_reg_bits, true);
    ge += report.custom_reg_count as f64 * 200.0 + report.custom_reg_bits as f64 * 12.0;
    // Per instruction: a 32-bit decode comparator (mask/match AND-tree)
    // plus operand/valid staging registers SCAIE-V interposes between the
    // pipeline and the ISAX module.
    ge += report.decode_comparators as f64 * (38.0 + 290.0);
    // Payload arbitration muxes.
    ge += report.result_mux_bits as f64 * 2.2;
    // Memory ports: multiplexing ISAX loads/stores into the core's LSU
    // path, with address/data staging and response routing.
    if report.mem_read_users > 0 {
        ge += 1400.0 + 280.0 * (report.mem_read_users - 1) as f64;
    }
    if report.mem_write_users > 0 {
        ge += 1400.0 + 280.0 * (report.mem_write_users - 1) as f64;
    }
    // PC redirect mux into the fetch stage.
    ge += if report.pc_write_users > 0 {
        380.0
    } else {
        0.0
    };
    // Scoreboard: pending-rd tag registers, per-read-port comparators in
    // every operand-read stage, stall tree, commit arbitration.
    ge += report.scoreboard_entries as f64 * 1300.0;
    // Stall/flush routing.
    ge += report.stall_flush_signals as f64 * 9.0;
    // Valid bits and their gating.
    ge += report.valid_signals as f64 * 6.0;
    // Tightly-coupled stall counter + hold register.
    if report.uses_tightly_coupled {
        ge += 110.0;
    }
    // Decoupled commit port into the register file.
    if report.uses_decoupled {
        ge += 700.0;
    }
    lib.ge_to_um2(ge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bits::ApInt;
    use rtl::netlist::{CombOp, Driver, Module, PortDir};

    #[test]
    fn module_area_counts_components() {
        let lib = TechLibrary::new();
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 32);
        let o = m.add_port("o", PortDir::Output, 32);
        let na = m.add_net(Driver::Input { port: a }, 32, "a");
        let sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, na],
                lo: 0,
            },
            32,
            "s",
        );
        let reg = m.add_net(
            Driver::Reg {
                next: sum,
                enable: None,
                init: ApInt::zero(32),
            },
            32,
            "r",
        );
        m.connect_output(o, reg);
        let area = module_area(&lib, &m);
        assert!(area.combinational_um2 > 0.0);
        assert!(area.register_um2 > 0.0);
        assert_eq!(area.rom_um2, 0.0);
        assert!(area.total() > area.combinational_um2);
    }

    #[test]
    fn rom_area_scales_with_contents() {
        let lib = TechLibrary::new();
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        m.roms.push(rtl::netlist::RomData {
            name: "SBOX".into(),
            width: 8,
            contents: vec![ApInt::zero(8); 256],
        });
        let idx = m.add_net(Driver::Const(ApInt::zero(8)), 8, "i");
        let r = m.add_net(Driver::Rom { rom: 0, index: idx }, 8, "r");
        m.connect_output(o, r);
        let area = module_area(&lib, &m);
        // 2048 bits at 0.35 GE = ~717 GE ≈ 107 µm².
        assert!((80.0..150.0).contains(&area.rom_um2), "{}", area.rom_um2);
    }

    #[test]
    fn interface_logic_scales_with_report() {
        let lib = TechLibrary::new();
        let empty = InterfaceLogicReport::default();
        let base = interface_logic_area(&lib, &empty);
        let mut with_regs = empty.clone();
        with_regs.custom_reg_bits = 96;
        with_regs.custom_reg_count = 3;
        with_regs.decode_comparators = 1;
        assert!(interface_logic_area(&lib, &with_regs) > base + 50.0);
    }
}
