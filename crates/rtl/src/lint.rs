//! Pre-emission netlist lint.
//!
//! [`Module::validate`] checks cheap structural sanity (references in
//! range, outputs connected, topological comb order) and is run by the
//! builder. This lint is the stronger gate in front of the SystemVerilog
//! emitter: per-operator width agreement, register/ROM shape checks,
//! port-connection widths, and a true graph-based combinational-cycle
//! search that works even for netlists whose nets are not in topological
//! order (where the index-order rule of `validate` over-rejects).
//!
//! Every violation is collected — a broken netlist produces one report
//! describing all of it, not a panic inside the emitter or an SV file that
//! fails downstream tools.

use crate::netlist::{CombOp, Driver, Module, PortDir};
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
/// SystemVerilog wrong or unsynthesizable.
///
/// # Errors
///
/// Returns all findings (never an empty list).
pub fn lint_module(module: &Module) -> Result<(), Vec<LintIssue>> {
    let mut issues = Vec::new();
    let n = module.nets.len();
    let mut fail = |net: Option<usize>, message: String| issues.push(LintIssue { net, message });

    for (i, net) in module.nets.iter().enumerate() {
        let w = |id: crate::netlist::NetId| module.nets.get(id.0).map(|x| x.width);
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
                let aw: Vec<u32> = args.iter().map(|&a| w(a).unwrap()).collect();
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
                                format!("{op:?} result must track its base: {} bits, is {}", aw[0], net.width),
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
                                format!("Trunc must narrow {} bits, target is {}", aw[0], net.width),
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
                        None => fail(Some(i), "register enable references a nonexistent net".into()),
                        Some(1) => {}
                        Some(ew) => fail(Some(i), format!("register enable must be 1 bit, is {ew}")),
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
            Some(p) if p.dir != PortDir::Output => {
                fail(None, format!("connection drives non-output port `{}`", p.name))
            }
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

    // Combinational cycles: DFS over comb/ROM argument edges. Registers
    // break cycles (their `next` is sampled at the clock edge). Unlike the
    // index-order rule of `validate`, this accepts acyclic forward
    // references and pinpoints genuine loops.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let comb_args = |i: usize| -> &[crate::netlist::NetId] {
        match &module.nets[i].driver {
            Driver::Comb { args, .. } => args,
            Driver::Rom { index, .. } => std::slice::from_ref(index),
            _ => &[],
        }
    };
    let mut color = vec![Color::White; n];
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        // Iterative DFS: (net, next-arg-index).
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = Color::Grey;
        while let Some(&mut (node, ref mut arg)) = stack.last_mut() {
            let args = comb_args(node);
            if *arg >= args.len() {
                color[node] = Color::Black;
                stack.pop();
                continue;
            }
            let target = args[*arg].0;
            *arg += 1;
            if target >= n {
                continue; // already reported above
            }
            match color[target] {
                Color::White => {
                    color[target] = Color::Grey;
                    stack.push((target, 0));
                }
                Color::Grey => {
                    let cycle: Vec<String> = stack
                        .iter()
                        .skip_while(|(nid, _)| *nid != target)
                        .map(|(nid, _)| {
                            let name = &module.nets[*nid].name;
                            if name.is_empty() {
                                format!("net {nid}")
                            } else {
                                name.clone()
                            }
                        })
                        .collect();
                    fail(
                        Some(node),
                        format!("combinational cycle: {}", cycle.join(" -> ")),
                    );
                }
                Color::Black => {}
            }
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
/// Works on any netlist, topologically ordered or not. A combinational
/// cycle (which [`lint_module`] rejects) has no finite logic depth: every
/// net on or downstream of one saturates to [`u32::MAX`], so the result is
/// `u32::MAX` — an unmissable sentinel — rather than an arbitrary small
/// number that depended on where the traversal happened to enter the loop.
pub fn comb_depth(module: &Module) -> u32 {
    let n = module.nets.len();
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let comb_args = |i: usize| -> Vec<usize> {
        match &module.nets[i].driver {
            Driver::Comb { args, .. } => args.iter().map(|a| a.0).filter(|&a| a < n).collect(),
            Driver::Rom { index, .. } => {
                if index.0 < n {
                    vec![index.0]
                } else {
                    vec![]
                }
            }
            _ => vec![],
        }
    };
    let is_cell = |i: usize| {
        matches!(
            module.nets[i].driver,
            Driver::Comb { .. } | Driver::Rom { .. }
        )
    };
    let mut worst = 0;
    for root in 0..n {
        if depth[root].is_some() {
            continue;
        }
        // Iterative post-order; `visiting` breaks cycles at depth 0.
        let mut visiting = vec![false; n];
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        visiting[root] = true;
        while let Some(&mut (node, ref mut arg)) = stack.last_mut() {
            let args = comb_args(node);
            if *arg >= args.len() {
                // An arg without a depth here is still on the DFS stack —
                // a back edge closing a cycle — so its depth is unbounded:
                // saturate instead of undercounting.
                let input = args
                    .iter()
                    .map(|&a| depth[a].unwrap_or(u32::MAX))
                    .max()
                    .unwrap_or(0);
                let d = input.saturating_add(u32::from(is_cell(node)));
                depth[node] = Some(d);
                worst = worst.max(d);
                visiting[node] = false;
                stack.pop();
                continue;
            }
            let target = args[*arg];
            *arg += 1;
            if depth[target].is_none() && !visiting[target] {
                visiting[target] = true;
                stack.push((target, 0));
            }
        }
    }
    worst
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

    #[test]
    fn detects_comb_cycle_through_forward_references() {
        // a -> x -> y -> x: a genuine loop, expressed with forward
        // references so the index-order rule alone cannot describe it.
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
        let issues = lint_module(&m).unwrap_err();
        assert!(
            issues.iter().any(|i| i.message.contains("combinational cycle")),
            "{issues:?}"
        );
    }

    #[test]
    fn registers_break_cycles() {
        // r -> inc -> r through a register is a counter, not a comb loop.
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        let one = m.add_net(Driver::Const(ApInt::from_u64(1, 8)), 8, "one");
        let r = NetId(2); // forward reference to the register
        let inc = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![r, one],
                lo: 0,
            },
            8,
            "inc",
        );
        m.add_net(
            Driver::Reg {
                next: inc,
                enable: None,
                init: ApInt::zero(8),
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        lint_module(&m).unwrap();
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
            issues.iter().any(|i| i.message.contains("exceeds its 8-bit base")),
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
            issues.iter().any(|i| i.message.contains("exceeds its 8-bit base")),
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
        assert!(issues.iter().any(|i| i.message.contains("`o2` is undriven")));
    }

    #[test]
    fn detects_register_shape_problems() {
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        let wide = m.add_net(Driver::Const(ApInt::zero(16)), 16, "wide");
        let r = m.add_net(
            Driver::Reg {
                next: wide,              // 16 bits into an 8-bit register
                enable: Some(wide),      // 16-bit enable
                init: ApInt::zero(4),    // 4-bit init
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        let issues = lint_module(&m).unwrap_err();
        assert!(issues.iter().any(|i| i.message.contains("next is 16")));
        assert!(issues.iter().any(|i| i.message.contains("enable must be 1 bit")));
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
    fn comb_depth_saturates_on_cycles() {
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 1);
        // Two NOTs feeding each other: a combinational cycle.
        let a = m.add_net(
            Driver::Comb {
                op: CombOp::Not,
                args: vec![NetId(1)],
                lo: 0,
            },
            1,
            "a",
        );
        let b = m.add_net(
            Driver::Comb {
                op: CombOp::Not,
                args: vec![a],
                lo: 0,
            },
            1,
            "b",
        );
        m.connect_output(o, b);
        // Must return (not loop), and a cycle has no finite depth: the
        // saturated sentinel, not an entry-point-dependent small count.
        assert_eq!(comb_depth(&m), u32::MAX);
    }

    #[test]
    fn comb_depth_saturation_does_not_leak_into_acyclic_logic() {
        // A cyclic module and a straight-line module must not interfere:
        // the acyclic one still reports its true depth.
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
