//! Table 4-style integration reports.

use crate::area::{interface_logic_area, module_area};
use crate::tech::{CoreAsicProfile, TechLibrary};
use crate::timing::{integration_timing, module_timing, ModuleSituation};
use rtl::netlist::Module;
use scaiev::integrate::InterfaceLogicReport;

/// One ISAX module with its integration situation.
#[derive(Debug, Clone)]
pub struct IsaxInput<'a> {
    pub module: &'a Module,
    /// Result write lands on a stage covered by the core's forwarding
    /// network (in-pipeline / tightly-coupled late writes).
    pub on_forwarding_path: bool,
    /// Result commits through a registered decoupled port (scoreboard).
    pub registered_commit: bool,
}

/// The ASIC evaluation of one core + ISAX-set combination.
#[derive(Debug, Clone, PartialEq)]
pub struct AsicReport {
    /// Core name.
    pub core: String,
    /// Base core area (µm², input calibration).
    pub base_area_um2: f64,
    /// Base core fmax (MHz, input calibration).
    pub base_fmax_mhz: f64,
    /// ISAX module area after synthesis effort (µm²).
    pub isax_area_um2: f64,
    /// SCAIE-V interface-logic area (µm²).
    pub interface_area_um2: f64,
    /// Achieved fmax of the extended core (MHz).
    pub fmax_mhz: f64,
}

impl AsicReport {
    /// Total added area.
    pub fn extension_area_um2(&self) -> f64 {
        self.isax_area_um2 + self.interface_area_um2
    }

    /// Area overhead in percent (Table 4's `+ x %`).
    pub fn area_overhead_pct(&self) -> f64 {
        100.0 * self.extension_area_um2() / self.base_area_um2
    }

    /// Frequency delta in percent (Table 4's `± x %`).
    pub fn fmax_delta_pct(&self) -> f64 {
        100.0 * (self.fmax_mhz - self.base_fmax_mhz) / self.base_fmax_mhz
    }
}

/// Evaluates the integration of a set of ISAX modules into one core.
pub fn evaluate_integration(
    lib: &TechLibrary,
    profile: &CoreAsicProfile,
    isaxes: &[IsaxInput<'_>],
    iface: &InterfaceLogicReport,
) -> AsicReport {
    let situations: Vec<ModuleSituation> = isaxes
        .iter()
        .map(|i| ModuleSituation {
            timing: module_timing(lib, i.module),
            on_forwarding_path: i.on_forwarding_path,
            registered_commit: i.registered_commit,
        })
        .collect();
    let timing = integration_timing(profile, &situations);
    let raw_area: f64 = isaxes
        .iter()
        .map(|i| module_area(lib, i.module).total())
        .sum();
    AsicReport {
        core: profile.name.to_string(),
        base_area_um2: profile.base_area_um2,
        base_fmax_mhz: profile.base_fmax_mhz,
        isax_area_um2: raw_area * timing.effort_multiplier,
        interface_area_um2: interface_logic_area(lib, iface),
        fmax_mhz: timing.fmax_mhz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bits::ApInt;
    use rtl::netlist::{CombOp, Driver, Module, PortDir};

    fn adder_module(width: u32, chain: usize) -> Module {
        let mut m = Module::new("isax");
        let a = m.add_port("a", PortDir::Input, width);
        let o = m.add_port("o", PortDir::Output, width);
        let mut net = m.add_net(Driver::Input { port: a }, width, "a");
        for i in 0..chain {
            net = m.add_net(
                Driver::Comb {
                    op: CombOp::Add,
                    args: vec![net, net],
                    lo: 0,
                },
                width,
                &format!("s{i}"),
            );
        }
        let r = m.add_net(
            Driver::Reg {
                next: net,
                enable: None,
                init: ApInt::zero(width),
            },
            width,
            "r",
        );
        m.connect_output(o, r);
        m
    }

    #[test]
    fn report_percentages_are_consistent() {
        let lib = TechLibrary::new();
        let profile = CoreAsicProfile::for_core("VexRiscv").unwrap();
        let module = adder_module(32, 1);
        let report = evaluate_integration(
            &lib,
            &profile,
            &[IsaxInput {
                module: &module,
                on_forwarding_path: false,
                registered_commit: false,
            }],
            &InterfaceLogicReport::default(),
        );
        assert!(report.area_overhead_pct() > 0.0);
        assert!(report.area_overhead_pct() < 10.0, "tiny ISAX stays small");
        assert_eq!(report.fmax_delta_pct(), 0.0);
        assert!(
            (report.extension_area_um2() - report.isax_area_um2 - report.interface_area_um2).abs()
                < 1e-9
        );
    }

    #[test]
    fn big_isax_on_fast_core_pays_more_area() {
        let lib = TechLibrary::new();
        let orca = CoreAsicProfile::for_core("ORCA").unwrap();
        let piccolo = CoreAsicProfile::for_core("Piccolo").unwrap();
        let module = adder_module(32, 10); // deep chain: timing pressure
        let make = |p: &CoreAsicProfile| {
            evaluate_integration(
                &lib,
                p,
                &[IsaxInput {
                    module: &module,
                    on_forwarding_path: true,
                    registered_commit: false,
                }],
                &InterfaceLogicReport::default(),
            )
        };
        let on_orca = make(&orca);
        let on_piccolo = make(&piccolo);
        // Same RTL costs more absolute µm² on the 1 GHz ORCA than on the
        // 420 MHz Piccolo (synthesis effort), and hurts its fmax more.
        assert!(on_orca.isax_area_um2 > on_piccolo.isax_area_um2);
        assert!(on_orca.fmax_delta_pct() < on_piccolo.fmax_delta_pct());
        // Relative overhead on Piccolo is further shrunk by its 4x base.
        assert!(on_piccolo.area_overhead_pct() < on_orca.area_overhead_pct());
    }
}
