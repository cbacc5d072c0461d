//! Critical-path timing of ISAX modules and the integration frequency /
//! synthesis-effort model.
//!
//! Two structural effects from paper §5.4 are modeled:
//!
//! * **Forwarding-path coupling** — when an ISAX writes its result in the
//!   core's last stage and the core forwards from that stage back into
//!   execution (ORCA), the ISAX's output logic joins the forwarding
//!   critical path, degrading fmax (the dotprod/sparkle regressions).
//! * **Synthesis effort** — when an ISAX stage's combinational delay
//!   exceeds the base cycle, "the synthesis tool ... tries to reach better
//!   timing results by duplicating logic, causing higher area usage";
//!   modeled as an area multiplier growing with the overdrive ratio.

use crate::tech::{CoreAsicProfile, TechLibrary};
use rtl::netlist::{Driver, Module};

/// Fraction of negative slack that survives into the final clock period.
/// Real flows recover most of an overdrawn path by restructuring and
/// duplicating logic (at area cost, see the effort multiplier); the rest
/// shows up as a frequency regression.
const RECOVERY: f64 = 0.35;

/// Timing analysis of one module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleTiming {
    /// Worst register-to-register (or input-to-output) combinational path
    /// delay, ns.
    pub critical_path_ns: f64,
    /// Worst combinational arrival time at any output port, ns (the delay
    /// the ISAX contributes to core paths it feeds).
    pub worst_output_arrival_ns: f64,
}

/// Computes per-net arrival times and the module's critical paths, in one
/// forward pass: the module must lint clean (`rtl::lint_module`), which
/// defines every combinational operand before the net that reads it.
pub fn module_timing(lib: &TechLibrary, module: &Module) -> ModuleTiming {
    let n = module.nets.len();
    let mut arrival = vec![0.0f64; n];
    let mut critical: f64 = 0.0;
    for i in 0..n {
        let net = &module.nets[i];
        arrival[i] = match &net.driver {
            Driver::Input { .. } | Driver::Const(_) | Driver::Reg { .. } => 0.0,
            Driver::Rom { rom, index } => {
                let table = &module.roms[*rom];
                arrival[index.0]
                    + lib.rom_delay_ns(table.width as u64 * table.contents.len() as u64)
            }
            Driver::Comb { op, args, .. } => {
                let input = args.iter().map(|a| arrival[a.0]).fold(0.0f64, f64::max);
                input + lib.comb_delay_ns(*op, net.width)
            }
        };
    }
    // Paths end at register data/enable inputs...
    for net in &module.nets {
        if let Driver::Reg { next, enable, .. } = &net.driver {
            critical = critical.max(arrival[next.0]);
            if let Some(en) = enable {
                critical = critical.max(arrival[en.0]);
            }
        }
    }
    // ...and at output ports.
    let mut worst_out: f64 = 0.0;
    for &(_, net) in &module.outputs {
        worst_out = worst_out.max(arrival[net.0]);
    }
    ModuleTiming {
        critical_path_ns: critical.max(worst_out),
        worst_output_arrival_ns: worst_out,
    }
}

/// Result of integrating a set of ISAX modules into a core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntegrationTiming {
    /// Achievable clock period after integration, ns.
    pub period_ns: f64,
    /// Resulting fmax, MHz.
    pub fmax_mhz: f64,
    /// Area multiplier from synthesis effort under timing pressure.
    pub effort_multiplier: f64,
}

/// Inputs describing one ISAX module's timing situation in the core.
#[derive(Debug, Clone)]
pub struct ModuleSituation {
    pub timing: ModuleTiming,
    /// True if the module's result write lands in a stage covered by the
    /// core's forwarding network (couples output logic into that path).
    pub on_forwarding_path: bool,
    /// True if the result commits through a registered, decoupled port
    /// (scoreboard commit) — exempt from forwarding coupling.
    pub registered_commit: bool,
}

/// Computes the integrated fmax and the synthesis-effort area multiplier
/// for a set of ISAX modules on one core.
pub fn integration_timing(
    profile: &CoreAsicProfile,
    situations: &[ModuleSituation],
) -> IntegrationTiming {
    let t0 = profile.base_period_ns();
    let mut period = t0;
    let mut pressure: f64 = 0.0;
    for s in situations {
        // Internal ISAX paths must close at the core clock; if they cannot,
        // the integrated design slows down (negative slack folded into
        // frequency, §5.3) — softened because the synthesis effort model
        // recovers part of it, as real flows do.
        let internal = s.timing.critical_path_ns;
        if internal > t0 {
            let recovered = t0 + (internal - t0) * RECOVERY;
            period = period.max(recovered);
            pressure = pressure.max(internal / t0 - 1.0);
        }
        // Forwarding coupling: ISAX output logic joins the forwarding path.
        if s.on_forwarding_path && !s.registered_commit {
            let fwd_path = profile.fwd_path_fraction * t0
                + s.timing.worst_output_arrival_ns
                + profile.integration_mux_ns;
            if fwd_path > t0 {
                let recovered = t0 + (fwd_path - t0) * RECOVERY;
                period = period.max(recovered);
                pressure = pressure.max(fwd_path / t0 - 1.0);
            } else {
                // Path still closes, but eats into slack: mild pressure.
                pressure = pressure.max((fwd_path / t0 - 0.85).max(0.0));
            }
        }
    }
    IntegrationTiming {
        period_ns: period,
        fmax_mhz: 1000.0 / period,
        effort_multiplier: 1.0 + profile.effort_slope * pressure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bits::ApInt;
    use rtl::netlist::{CombOp, Driver, Module, PortDir};

    fn chain_module(levels: usize) -> Module {
        let mut m = Module::new("chain");
        let a = m.add_port("a", PortDir::Input, 32);
        let o = m.add_port("o", PortDir::Output, 32);
        let mut net = m.add_net(Driver::Input { port: a }, 32, "a");
        for i in 0..levels {
            net = m.add_net(
                Driver::Comb {
                    op: CombOp::Add,
                    args: vec![net, net],
                    lo: 0,
                },
                32,
                &format!("s{i}"),
            );
        }
        let reg = m.add_net(
            Driver::Reg {
                next: net,
                enable: None,
                init: ApInt::zero(32),
            },
            32,
            "r",
        );
        m.connect_output(o, reg);
        m
    }

    #[test]
    fn deeper_chains_have_longer_paths() {
        let lib = TechLibrary::new();
        let short = module_timing(&lib, &chain_module(1));
        let long = module_timing(&lib, &chain_module(4));
        assert!(long.critical_path_ns > 2.0 * short.critical_path_ns);
        // The register output feeds the port directly: no output arrival.
        assert_eq!(long.worst_output_arrival_ns, 0.0);
    }

    #[test]
    fn slow_isax_degrades_fmax() {
        let lib = TechLibrary::new();
        let profile = CoreAsicProfile::for_core("ORCA").unwrap();
        let slow = ModuleSituation {
            timing: module_timing(&lib, &chain_module(8)),
            on_forwarding_path: false,
            registered_commit: false,
        };
        let it = integration_timing(&profile, &[slow]);
        assert!(it.fmax_mhz < profile.base_fmax_mhz);
        assert!(it.effort_multiplier > 1.0);
    }

    /// Like `chain_module`, but the combinational result drives the output
    /// port directly (an in-pipeline result feeding the forwarding mux).
    fn comb_out_module(levels: usize) -> Module {
        let mut m = chain_module(levels);
        // Rewire the single output to the last comb net instead of the reg.
        let last_comb = rtl::netlist::NetId(m.nets.len() - 2);
        m.outputs.clear();
        let port = m.port("o").unwrap();
        m.connect_output(port, last_comb);
        m
    }

    #[test]
    fn forwarding_coupling_hits_orca_harder_than_piccolo() {
        let lib = TechLibrary::new();
        let timing = module_timing(&lib, &comb_out_module(3));
        let situation = |on_fwd: bool| ModuleSituation {
            timing: timing.clone(),
            on_forwarding_path: on_fwd,
            registered_commit: false,
        };
        let orca = CoreAsicProfile::for_core("ORCA").unwrap();
        let piccolo = CoreAsicProfile::for_core("Piccolo").unwrap();
        let orca_hit = integration_timing(&orca, &[situation(true)]);
        let piccolo_hit = integration_timing(&piccolo, &[situation(true)]);
        let orca_loss = 1.0 - orca_hit.fmax_mhz / orca.base_fmax_mhz;
        let piccolo_loss = 1.0 - piccolo_hit.fmax_mhz / piccolo.base_fmax_mhz;
        assert!(
            orca_loss > piccolo_loss + 0.02,
            "ORCA {orca_loss:.3} vs Piccolo {piccolo_loss:.3}"
        );
    }

    #[test]
    fn registered_commit_avoids_coupling() {
        let lib = TechLibrary::new();
        let timing = module_timing(&lib, &chain_module(3));
        let orca = CoreAsicProfile::for_core("ORCA").unwrap();
        let coupled = integration_timing(
            &orca,
            &[ModuleSituation {
                timing: timing.clone(),
                on_forwarding_path: true,
                registered_commit: false,
            }],
        );
        let registered = integration_timing(
            &orca,
            &[ModuleSituation {
                timing,
                on_forwarding_path: true,
                registered_commit: true,
            }],
        );
        assert!(registered.fmax_mhz >= coupled.fmax_mhz);
    }

    #[test]
    fn fast_isax_keeps_base_frequency() {
        let lib = TechLibrary::new();
        let profile = CoreAsicProfile::for_core("VexRiscv").unwrap();
        let quick = ModuleSituation {
            timing: module_timing(&lib, &chain_module(1)),
            on_forwarding_path: false,
            registered_commit: false,
        };
        let it = integration_timing(&profile, &[quick]);
        assert_eq!(it.fmax_mhz, profile.base_fmax_mhz);
        assert_eq!(it.effort_multiplier, 1.0);
    }
}
