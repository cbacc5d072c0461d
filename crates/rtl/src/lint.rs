//! Netlist lint: the one structural check of a [`Module`].
//!
//! A module lints clean when every driver reads ports, ROMs and nets that
//! exist, with the widths its operator needs; every output port is driven
//! exactly once, at its width; and every combinational operand (a comb
//! operator's argument or a ROM read's index) is defined before the net
//! that reads it. A register's `next` and `enable` may point forward: the
//! register samples them at the clock edge. Everything that walks nets
//! relies on that definition-order rule: [`crate::interp`] and
//! [`crate::xsim`] evaluate in definition order, `eda::timing` computes
//! arrival times in one forward pass, and so does [`comb_depth`]. A
//! combinational cycle needs a forward reference, so the rule rejects
//! every cycle too.
//!
//! [`lint_module`] is the gate in front of the SystemVerilog emitter and
//! the check [`crate::opt`] runs on its input and after every pass. Every
//! violation is collected — a broken netlist produces one report
//! describing all of it, not a panic inside the emitter or an SV file that
//! fails downstream tools. [`lint_module`] and [`comb_depth`] allocate per
//! module, not per net.
//!
//! What it does not do: it checks structure and widths, not behaviour
//! against the CoreDSL source — a netlist that lints clean can still
//! compute the wrong value. [`comb_depth`] counts logic levels, not delay;
//! `eda::timing` models delay. Lint never rewrites a netlist.

use crate::netlist::{CombOp, Driver, Module, NetId, PortDir};
use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintIssue {
    /// Index of the offending net, if net-local.
    pub net: Option<usize>,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for LintIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.net {
            Some(i) => write!(f, "net {i}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for LintIssue {}

/// Expected argument count for a combinational operator.
fn comb_arity(op: CombOp) -> usize {
    match op {
        CombOp::Not
        | CombOp::Replicate
        | CombOp::Extract
        | CombOp::ZExt
        | CombOp::SExt
        | CombOp::Trunc => 1,
        CombOp::Mux => 3,
        _ => 2,
    }
}

/// Lints `module`, collecting every problem that would make the emitted
/// SystemVerilog wrong or unsynthesizable, or that breaks the
/// definition-order rule the simulators and [`comb_depth`] rely on.
///
/// # Errors
///
/// Returns all findings (never an empty list).
pub fn lint_module(module: &Module) -> Result<(), Vec<LintIssue>> {
    let mut issues = Vec::new();
    let n = module.nets.len();
    let mut fail = |net: Option<usize>, message: String| issues.push(LintIssue { net, message });

    for (i, net) in module.nets.iter().enumerate() {
        // Operands past the last net are the driver arms' to report.
        let forward = |a: &&NetId| (i..n).contains(&a.0);
        for a in net.driver.comb_operands().iter().filter(forward) {
            fail(Some(i), format!("reads net {} before it is defined", a.0));
        }
        let w = |id: NetId| module.nets.get(id.0).map(|x| x.width);
        match &net.driver {
            Driver::Input { port } => match module.ports.get(*port) {
                None => fail(Some(i), format!("reads nonexistent port {port}")),
                Some(p) if p.dir != PortDir::Input => {
                    fail(Some(i), format!("reads non-input port `{}`", p.name))
                }
                Some(p) if p.width != net.width => fail(
                    Some(i),
                    format!(
                        "width {} differs from input port `{}` ({} bits)",
                        net.width, p.name, p.width
                    ),
                ),
                Some(_) => {}
            },
            Driver::Const(c) => {
                if c.width() != net.width {
                    fail(
                        Some(i),
                        format!("constant is {} bits, net is {}", c.width(), net.width),
                    );
                }
            }
            Driver::Comb { op, args, lo } => {
                if args.iter().any(|a| a.0 >= n) {
                    fail(Some(i), "references a nonexistent net".into());
                    continue;
                }
                let expected = comb_arity(*op);
                if args.len() != expected {
                    fail(
                        Some(i),
                        format!("{op:?} expects {expected} argument(s), has {}", args.len()),
                    );
                    continue;
                }
                // In range and of the operator's arity (1 to 3), both
                // checked above.
                let mut aw = [0u32; 3];
                for (slot, a) in aw.iter_mut().zip(args) {
                    *slot = module.nets[a.0].width;
                }
                match op {
                    CombOp::Add
                    | CombOp::Sub
                    | CombOp::Mul
                    | CombOp::DivU
                    | CombOp::DivS
                    | CombOp::RemU
                    | CombOp::RemS
                    | CombOp::And
                    | CombOp::Or
                    | CombOp::Xor => {
                        if aw[0] != aw[1] {
                            fail(
                                Some(i),
                                format!("{op:?} operand widths disagree: {} vs {}", aw[0], aw[1]),
                            );
                        }
                        if net.width != aw[0] {
                            fail(
                                Some(i),
                                format!("{op:?} result must be {} bits, is {}", aw[0], net.width),
                            );
                        }
                    }
                    CombOp::Not => {
                        if net.width != aw[0] {
                            fail(
                                Some(i),
                                format!("Not result must be {} bits, is {}", aw[0], net.width),
                            );
                        }
                    }
                    CombOp::Shl | CombOp::ShrU | CombOp::ShrS => {
                        if net.width != aw[0] {
                            fail(
                                Some(i),
                                format!(
                                    "{op:?} result must track its base: {} bits, is {}",
                                    aw[0], net.width
                                ),
                            );
                        }
                    }
                    CombOp::Eq
                    | CombOp::Ne
                    | CombOp::Ult
                    | CombOp::Ule
                    | CombOp::Slt
                    | CombOp::Sle => {
                        if aw[0] != aw[1] {
                            fail(
                                Some(i),
                                format!("{op:?} operand widths disagree: {} vs {}", aw[0], aw[1]),
                            );
                        }
                        if net.width != 1 {
                            fail(
                                Some(i),
                                format!("comparison result must be 1 bit, is {}", net.width),
                            );
                        }
                    }
                    CombOp::Mux => {
                        if aw[0] != 1 {
                            fail(Some(i), format!("mux select must be 1 bit, is {}", aw[0]));
                        }
                        if aw[1] != aw[2] {
                            fail(
                                Some(i),
                                format!("mux arm widths disagree: {} vs {}", aw[1], aw[2]),
                            );
                        }
                        if net.width != aw[1] {
                            fail(
                                Some(i),
                                format!("mux result must be {} bits, is {}", aw[1], net.width),
                            );
                        }
                    }
                    CombOp::Concat => {
                        if net.width != aw[0] + aw[1] {
                            fail(
                                Some(i),
                                format!(
                                    "concat of {} and {} bits must be {} bits, is {}",
                                    aw[0],
                                    aw[1],
                                    aw[0] + aw[1],
                                    net.width
                                ),
                            );
                        }
                    }
                    CombOp::Replicate => {
                        if *lo == 0 {
                            fail(Some(i), "replicate count must be at least 1".into());
                        } else {
                            match lo.checked_mul(aw[0]) {
                                None => fail(
                                    Some(i),
                                    format!(
                                        "replicate x{} of {} bits overflows the width space",
                                        lo, aw[0]
                                    ),
                                ),
                                Some(total) if net.width != total => fail(
                                    Some(i),
                                    format!(
                                        "replicate x{} of {} bits must be {} bits, is {}",
                                        lo, aw[0], total, net.width
                                    ),
                                ),
                                Some(_) => {}
                            }
                        }
                    }
                    CombOp::Extract => {
                        // The emitter prints `base[lo+width-1:lo]`; an
                        // out-of-range part-select is illegal SystemVerilog
                        // even though the interpreter zero-pads.
                        if net.width == 0 {
                            fail(Some(i), "extract must produce a value".into());
                        } else if lo.checked_add(net.width).is_none_or(|hi| hi > aw[0]) {
                            fail(
                                Some(i),
                                format!(
                                    "extract [{}+{}-1:{}] exceeds its {}-bit base",
                                    lo, net.width, lo, aw[0]
                                ),
                            );
                        }
                    }
                    CombOp::ExtractDyn => {
                        if net.width == 0 {
                            fail(Some(i), "extract must produce a value".into());
                        } else if net.width > aw[0] {
                            fail(
                                Some(i),
                                format!(
                                    "dynamic extract of {} bits exceeds its {}-bit base",
                                    net.width, aw[0]
                                ),
                            );
                        }
                    }
                    CombOp::ZExt | CombOp::SExt => {
                        // Equal widths are fine (the emitter aliases them);
                        // only actual narrowing is wrong.
                        if net.width < aw[0] {
                            fail(
                                Some(i),
                                format!(
                                    "{op:?} must not narrow {} bits, target is {}",
                                    aw[0], net.width
                                ),
                            );
                        }
                    }
                    CombOp::Trunc => {
                        if net.width > aw[0] || net.width == 0 {
                            fail(
                                Some(i),
                                format!(
                                    "Trunc must narrow {} bits, target is {}",
                                    aw[0], net.width
                                ),
                            );
                        }
                    }
                }
            }
            Driver::Reg { next, enable, init } => {
                match w(*next) {
                    None => fail(Some(i), "register next references a nonexistent net".into()),
                    Some(nw) if nw != net.width => fail(
                        Some(i),
                        format!("register is {} bits but next is {}", net.width, nw),
                    ),
                    Some(_) => {}
                }
                if let Some(e) = enable {
                    match w(*e) {
                        None => fail(
                            Some(i),
                            "register enable references a nonexistent net".into(),
                        ),
                        Some(1) => {}
                        Some(ew) => {
                            fail(Some(i), format!("register enable must be 1 bit, is {ew}"))
                        }
                    }
                }
                if init.width() != net.width {
                    fail(
                        Some(i),
                        format!(
                            "register init is {} bits, register is {}",
                            init.width(),
                            net.width
                        ),
                    );
                }
            }
            Driver::Rom { rom, index } => {
                match module.roms.get(*rom) {
                    None => fail(Some(i), format!("references nonexistent ROM {rom}")),
                    Some(r) if r.width != net.width => fail(
                        Some(i),
                        format!("ROM `{}` is {} bits, net is {}", r.name, r.width, net.width),
                    ),
                    Some(_) => {}
                }
                if w(*index).is_none() {
                    fail(Some(i), "ROM index references a nonexistent net".into());
                }
            }
        }
    }

    // Output connections: exactly one driver per output port, width match.
    let mut driven = vec![0usize; module.ports.len()];
    for (port, net) in &module.outputs {
        match module.ports.get(*port) {
            None => fail(None, format!("connection to nonexistent port {port}")),
            Some(p) if p.dir != PortDir::Output => fail(
                None,
                format!("connection drives non-output port `{}`", p.name),
            ),
            Some(p) => {
                driven[*port] += 1;
                match module.nets.get(net.0) {
                    None => fail(
                        None,
                        format!("output port `{}` driven by nonexistent net", p.name),
                    ),
                    Some(d) if d.width != p.width => fail(
                        None,
                        format!(
                            "output port `{}` is {} bits but its driver has {}",
                            p.name, p.width, d.width
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }
    }
    for (i, p) in module.ports.iter().enumerate() {
        if p.dir != PortDir::Output {
            continue;
        }
        match driven[i] {
            0 => fail(None, format!("output port `{}` is undriven", p.name)),
            1 => {}
            k => fail(None, format!("output port `{}` driven {k} times", p.name)),
        }
    }

    if issues.is_empty() {
        Ok(())
    } else {
        Err(issues)
    }
}

/// Longest combinational path through the module, counted in logic cells
/// (comb operators and ROM reads; inputs, constants, and registers are
/// depth 0). This is the structural "logic levels" statistic telemetry
/// reports next to the calibrated `eda`-model delay.
///
/// One forward pass, the shape of `eda::timing`'s arrival times: a cell's
/// depth is one more than its deepest operand's, which an earlier net
/// holds.
///
/// # Panics
///
/// If a combinational operand does not precede its user. The module must
/// lint clean; callers run [`lint_module`] first.
pub fn comb_depth(module: &Module) -> u32 {
    let mut depth: Vec<u32> = Vec::with_capacity(module.nets.len());
    for net in &module.nets {
        let operands = net.driver.comb_operands().iter();
        let d = match net.driver {
            Driver::Comb { .. } | Driver::Rom { .. } => {
                1 + operands.map(|a| depth[a.0]).max().unwrap_or(0)
            }
            _ => 0,
        };
        depth.push(d);
    }
    depth.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{NetId, Port};
    use bits::ApInt;

    fn two_input_module() -> (Module, NetId, NetId, usize) {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        (m, na, nb, o)
    }

    #[test]
    fn clean_module_passes() {
        let (mut m, na, nb, o) = two_input_module();
        let sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, nb],
                lo: 0,
            },
            8,
            "sum",
        );
        m.connect_output(o, sum);
        lint_module(&m).unwrap();
    }

    /// `lint_module`'s one finding, if it found exactly one.
    fn only_finding(m: &Module) -> LintIssue {
        match lint_module(m) {
            Err(issues) if issues.len() == 1 => issues[0].clone(),
            other => panic!("expected one finding, got {other:?}"),
        }
    }

    #[test]
    fn detects_comb_cycle_through_forward_references() {
        // a -> x -> y -> x: a loop needs a forward reference, and that
        // forward reference is the one finding.
        let (mut m, na, _nb, o) = two_input_module();
        let x = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, NetId(3)],
                lo: 0,
            },
            8,
            "x",
        );
        let y = m.add_net(
            Driver::Comb {
                op: CombOp::Not,
                args: vec![x],
                lo: 0,
            },
            8,
            "y",
        );
        m.connect_output(o, y);
        assert_eq!(
            only_finding(&m),
            LintIssue {
                net: Some(2),
                message: "reads net 3 before it is defined".into(),
            }
        );
    }

    #[test]
    fn a_net_reading_itself_is_rejected() {
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 1);
        let n = m.add_net(
            Driver::Comb {
                op: CombOp::Not,
                args: vec![NetId(0)],
                lo: 0,
            },
            1,
            "loop",
        );
        m.connect_output(o, n);
        assert_eq!(
            only_finding(&m).to_string(),
            "net 0: reads net 0 before it is defined"
        );
    }

    #[test]
    fn registers_break_cycles() {
        // r -> inc -> r through a register is a counter, not a comb loop:
        // a register's `next` may point forward.
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        let one = m.add_net(Driver::Const(ApInt::from_u64(1, 8)), 8, "one");
        let r = m.add_net(
            Driver::Reg {
                next: NetId(2), // forward reference to `inc`
                enable: None,
                init: ApInt::zero(8),
            },
            8,
            "r",
        );
        m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![r, one],
                lo: 0,
            },
            8,
            "inc",
        );
        m.connect_output(o, r);
        lint_module(&m).unwrap();
    }

    #[test]
    fn a_comb_read_of_a_later_register_is_rejected() {
        // The same counter with the register defined after the `Add` that
        // reads it: evaluating in definition order would read the
        // register before it holds its value.
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        let one = m.add_net(Driver::Const(ApInt::from_u64(1, 8)), 8, "one");
        let inc = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![NetId(2), one],
                lo: 0,
            },
            8,
            "inc",
        );
        let r = m.add_net(
            Driver::Reg {
                next: inc,
                enable: None,
                init: ApInt::zero(8),
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        assert_eq!(
            only_finding(&m),
            LintIssue {
                net: Some(1),
                message: "reads net 2 before it is defined".into(),
            }
        );
    }

    #[test]
    fn connection_to_nonexistent_port_is_rejected() {
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 1);
        let n = m.add_net(Driver::Const(ApInt::zero(1)), 1, "z");
        m.connect_output(o, n);
        m.outputs.push((7, n));
        assert_eq!(
            only_finding(&m).to_string(),
            "connection to nonexistent port 7"
        );
    }

    #[test]
    fn detects_width_mismatches() {
        let (mut m, na, _nb, o) = two_input_module();
        let narrow = m.add_net(Driver::Const(ApInt::zero(4)), 4, "narrow");
        let bad = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, narrow],
                lo: 0,
            },
            8,
            "bad",
        );
        m.connect_output(o, bad);
        let issues = lint_module(&m).unwrap_err();
        assert!(
            issues.iter().any(|i| i.message.contains("widths disagree")),
            "{issues:?}"
        );
    }

    #[test]
    fn detects_out_of_range_extract() {
        let (mut m, na, _nb, o) = two_input_module();
        let ext = m.add_net(
            Driver::Comb {
                op: CombOp::Extract,
                args: vec![na],
                lo: 6, // [6+:4] of an 8-bit base
            },
            4,
            "ext",
        );
        let pad = m.add_net(
            Driver::Comb {
                op: CombOp::ZExt,
                args: vec![ext],
                lo: 0,
            },
            8,
            "pad",
        );
        m.connect_output(o, pad);
        let issues = lint_module(&m).unwrap_err();
        assert!(
            issues
                .iter()
                .any(|i| i.message.contains("exceeds its 8-bit base")),
            "{issues:?}"
        );
    }

    #[test]
    fn huge_replicate_count_reports_instead_of_overflowing() {
        // lo * aw[0] used to be an unchecked u32 multiply: a hostile or
        // generated netlist with a huge count panicked in debug and wrapped
        // (possibly linting clean) in release.
        let (mut m, na, _nb, o) = two_input_module();
        let rep = m.add_net(
            Driver::Comb {
                op: CombOp::Replicate,
                args: vec![na],
                lo: u32::MAX, // u32::MAX * 8 bits overflows
            },
            8,
            "rep",
        );
        m.connect_output(o, rep);
        let issues = lint_module(&m).unwrap_err();
        assert!(
            issues
                .iter()
                .any(|i| i.message.contains("overflows the width space")),
            "{issues:?}"
        );
    }

    #[test]
    fn huge_extract_offset_reports_instead_of_overflowing() {
        let (mut m, na, _nb, o) = two_input_module();
        let ext = m.add_net(
            Driver::Comb {
                op: CombOp::Extract,
                args: vec![na],
                lo: u32::MAX, // lo + width overflows u32
            },
            8,
            "ext",
        );
        m.connect_output(o, ext);
        let issues = lint_module(&m).unwrap_err();
        assert!(
            issues
                .iter()
                .any(|i| i.message.contains("exceeds its 8-bit base")),
            "{issues:?}"
        );
    }

    #[test]
    fn same_width_extends_are_accepted_narrowing_is_not() {
        for op in [CombOp::ZExt, CombOp::SExt] {
            let (mut m, na, _nb, o) = two_input_module();
            let e = m.add_net(
                Driver::Comb {
                    op,
                    args: vec![na],
                    lo: 0,
                },
                8, // same width as the 8-bit source
                "e",
            );
            m.connect_output(o, e);
            lint_module(&m).unwrap_or_else(|e| panic!("{op:?} same-width: {e:?}"));

            if let Driver::Comb { .. } = &m.nets[e.0].driver {
                m.nets[e.0].width = 4; // narrowing extend
            }
            m.nets.push(crate::netlist::Net {
                driver: Driver::Comb {
                    op: CombOp::ZExt,
                    args: vec![e],
                    lo: 0,
                },
                width: 8,
                name: "pad".into(),
            });
            m.outputs[0].1 = NetId(m.nets.len() - 1);
            let issues = lint_module(&m).unwrap_err();
            assert!(
                issues.iter().any(|i| i.message.contains("must not narrow")),
                "{op:?}: {issues:?}"
            );
        }
    }

    #[test]
    fn detects_undriven_and_multiply_driven_outputs() {
        let (mut m, na, nb, o) = two_input_module();
        m.ports.push(Port {
            name: "o2".into(),
            dir: PortDir::Output,
            width: 8,
        });
        m.connect_output(o, na);
        m.connect_output(o, nb); // o twice, o2 never
        let issues = lint_module(&m).unwrap_err();
        assert!(issues.iter().any(|i| i.message.contains("driven 2 times")));
        assert!(issues
            .iter()
            .any(|i| i.message.contains("`o2` is undriven")));
    }

    #[test]
    fn detects_register_shape_problems() {
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        let wide = m.add_net(Driver::Const(ApInt::zero(16)), 16, "wide");
        let r = m.add_net(
            Driver::Reg {
                next: wide,           // 16 bits into an 8-bit register
                enable: Some(wide),   // 16-bit enable
                init: ApInt::zero(4), // 4-bit init
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        let issues = lint_module(&m).unwrap_err();
        assert!(issues.iter().any(|i| i.message.contains("next is 16")));
        assert!(issues
            .iter()
            .any(|i| i.message.contains("enable must be 1 bit")));
        assert!(issues.iter().any(|i| i.message.contains("init is 4 bits")));
    }

    #[test]
    fn comb_depth_counts_logic_levels() {
        let (mut m, na, nb, o) = two_input_module();
        // a+b -> (a+b)^a: two logic levels; the register resets the count.
        let sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, nb],
                lo: 0,
            },
            8,
            "sum",
        );
        let x = m.add_net(
            Driver::Comb {
                op: CombOp::Xor,
                args: vec![sum, na],
                lo: 0,
            },
            8,
            "x",
        );
        let r = m.add_net(
            Driver::Reg {
                next: x,
                enable: None,
                init: ApInt::zero(8),
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        assert_eq!(comb_depth(&m), 2);
    }

    #[test]
    fn comb_depth_of_a_single_cell_is_one() {
        let (mut m, na, nb, o) = two_input_module();
        let sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, nb],
                lo: 0,
            },
            8,
            "sum",
        );
        m.connect_output(o, sum);
        assert_eq!(comb_depth(&m), 1);
    }

    #[test]
    fn collects_all_findings() {
        let (mut m, na, _nb, o) = two_input_module();
        let narrow = m.add_net(Driver::Const(ApInt::zero(4)), 4, "narrow");
        m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, narrow],
                lo: 0,
            },
            8,
            "bad",
        );
        m.connect_output(o, narrow); // also a port-width mismatch
        let issues = lint_module(&m).unwrap_err();
        assert!(issues.len() >= 2, "{issues:?}");
    }
}
