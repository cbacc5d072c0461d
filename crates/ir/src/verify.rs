//! Deep structural verifier for LIL modules.
//!
//! [`Graph::validate`](crate::lil::Graph::validate) checks the coarse SSA
//! invariants the lowering itself relies on (def-before-use, one use per
//! sub-interface, `always`-block restrictions). This module is the
//! compiler's internal safety net on top of that: a full per-operation
//! check of arities, widths, predicate placement, terminator shape, and
//! module-level name resolution, run after every pass that produces or
//! rewrites LIL. A bug upstream (or a hand-constructed graph in a test)
//! surfaces here as a precise [`VerifyError`] instead of a panic or silent
//! miscompile further down the flow.
//!
//! Unlike `validate`, verification collects **all** violations rather than
//! stopping at the first, so one report describes the whole damage.

use crate::lil::{Graph, LilModule, Op, OpKind};
use std::fmt;

/// One violated LIL invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Name of the offending graph (empty for module-level problems).
    pub graph: String,
    /// Index of the offending operation, if the problem is op-local.
    pub op: Option<usize>,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Some(i) => write!(f, "graph `{}`, op {}: {}", self.graph, i, self.message),
            None => write!(f, "graph `{}`: {}", self.graph, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Expected operand count for `kind`, or `None` when variable.
fn arity(kind: &OpKind) -> Option<usize> {
    Some(match kind {
        OpKind::InstrWord
        | OpKind::ReadRs1
        | OpKind::ReadRs2
        | OpKind::ReadPc
        | OpKind::Const(_)
        | OpKind::Sink => 0,
        OpKind::ReadMem
        | OpKind::WriteRd
        | OpKind::WritePc
        | OpKind::ReadCustReg(_)
        | OpKind::RomRead(_)
        | OpKind::Not
        | OpKind::Replicate(_)
        | OpKind::ExtractConst { .. }
        | OpKind::ZExt
        | OpKind::SExt
        | OpKind::Trunc => 1,
        OpKind::WriteMem
        | OpKind::WriteCustReg(_)
        | OpKind::ExtractDyn
        | OpKind::Add
        | OpKind::Sub
        | OpKind::Mul
        | OpKind::DivU
        | OpKind::DivS
        | OpKind::RemU
        | OpKind::RemS
        | OpKind::And
        | OpKind::Or
        | OpKind::Xor
        | OpKind::Shl
        | OpKind::ShrU
        | OpKind::ShrS
        | OpKind::Eq
        | OpKind::Ne
        | OpKind::Ult
        | OpKind::Ule
        | OpKind::Slt
        | OpKind::Sle
        | OpKind::Concat => 2,
        OpKind::Mux => 3,
    })
}

/// An operation's mnemonic, formatted only when a failure message reads it.
struct Mnemonic<'a>(&'a OpKind);

impl fmt::Display for Mnemonic<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.mnemonic())
    }
}

/// Verifies one graph in the context of its module.
///
/// # Errors
///
/// Returns every violated invariant (the list is never empty on `Err`).
pub fn verify_graph(graph: &Graph, module: &LilModule) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    let mut fail = |op: Option<usize>, message: String| {
        errors.push(VerifyError {
            graph: graph.name.clone(),
            op,
            message,
        });
    };

    // The coarse SSA invariants first; without def-before-use the width
    // checks below could index out of bounds, so bail out early.
    if let Err(e) = graph.validate() {
        fail(None, e.message);
        return Err(errors);
    }

    // Terminator shape: exactly one `lil.sink`, in final position.
    match graph.ops.iter().filter(|o| o.kind == OpKind::Sink).count() {
        0 => fail(None, "graph has no lil.sink terminator".into()),
        1 if graph.ops.last().map(|o| &o.kind) != Some(&OpKind::Sink) => {
            fail(None, "lil.sink is not the final operation".into())
        }
        1 => {}
        n => fail(None, format!("graph has {n} lil.sink terminators")),
    }

    let width_of = |op: &Op, i: usize| graph.ops[op.operands[i].0].width;

    for (idx, op) in graph.ops.iter().enumerate() {
        let mn = Mnemonic(&op.kind);
        if let Some(expected) = arity(&op.kind) {
            if op.operands.len() != expected {
                fail(
                    Some(idx),
                    format!(
                        "{mn} expects {expected} operand(s), has {}",
                        op.operands.len()
                    ),
                );
                continue; // width rules below assume the arity holds
            }
        }

        // Predicates: only state writes and the (side-effect-free but
        // stateful) memory read are predicated, always by an i1.
        if let Some(p) = op.pred {
            if !op.kind.is_state_write() && op.kind != OpKind::ReadMem {
                fail(Some(idx), format!("{mn} must not carry a predicate"));
            } else if graph.ops[p.0].width != 1 {
                fail(
                    Some(idx),
                    format!(
                        "predicate of {mn} has width {}, expected i1",
                        graph.ops[p.0].width
                    ),
                );
            }
        }

        // Result-width and operand-width agreement.
        let same_width_binary = |a: u32, b: u32| -> Option<String> {
            (a != b).then(|| format!("{mn} operand widths disagree: i{a} vs i{b}"))
        };
        match &op.kind {
            OpKind::InstrWord | OpKind::ReadRs1 | OpKind::ReadRs2 | OpKind::ReadPc => {
                if op.width != 32 {
                    fail(Some(idx), format!("{mn} must produce i32, has i{}", op.width));
                }
            }
            OpKind::ReadMem => {
                if op.width != 32 {
                    fail(Some(idx), format!("{mn} must produce i32, has i{}", op.width));
                }
                if width_of(op, 0) != 32 {
                    fail(
                        Some(idx),
                        format!("{mn} address must be i32, is i{}", width_of(op, 0)),
                    );
                }
            }
            OpKind::WriteRd | OpKind::WritePc => {
                if width_of(op, 0) != 32 {
                    fail(
                        Some(idx),
                        format!("{mn} value must be i32, is i{}", width_of(op, 0)),
                    );
                }
            }
            OpKind::WriteMem => {
                for (slot, name) in [(0, "address"), (1, "value")] {
                    if width_of(op, slot) != 32 {
                        fail(
                            Some(idx),
                            format!("{mn} {name} must be i32, is i{}", width_of(op, slot)),
                        );
                    }
                }
            }
            OpKind::ReadCustReg(name) => match module.custom_reg(name) {
                None => fail(Some(idx), format!("unknown custom register @{name}")),
                Some(reg) => {
                    if op.width != reg.width {
                        fail(
                            Some(idx),
                            format!(
                                "{mn} produces i{}, register is i{}",
                                op.width, reg.width
                            ),
                        );
                    }
                }
            },
            OpKind::WriteCustReg(name) => match module.custom_reg(name) {
                None => fail(Some(idx), format!("unknown custom register @{name}")),
                Some(reg) => {
                    if width_of(op, 1) != reg.width {
                        fail(
                            Some(idx),
                            format!(
                                "{mn} value is i{}, register is i{}",
                                width_of(op, 1),
                                reg.width
                            ),
                        );
                    }
                }
            },
            OpKind::RomRead(name) => match module.rom(name) {
                None => fail(Some(idx), format!("unknown ROM @{name}")),
                Some(rom) => {
                    if op.width != rom.width {
                        fail(
                            Some(idx),
                            format!("{mn} produces i{}, ROM is i{}", op.width, rom.width),
                        );
                    }
                }
            },
            OpKind::Const(c) => {
                if op.width != c.width() {
                    fail(
                        Some(idx),
                        format!(
                            "constant payload is i{}, op declares i{}",
                            c.width(),
                            op.width
                        ),
                    );
                }
            }
            OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::DivU
            | OpKind::DivS
            | OpKind::RemU
            | OpKind::RemS
            | OpKind::And
            | OpKind::Or
            | OpKind::Xor => {
                if let Some(m) = same_width_binary(width_of(op, 0), width_of(op, 1)) {
                    fail(Some(idx), m);
                }
                if op.width != width_of(op, 0) {
                    fail(
                        Some(idx),
                        format!(
                            "{mn} result must match operand width i{}, has i{}",
                            width_of(op, 0),
                            op.width
                        ),
                    );
                }
            }
            OpKind::Not => {
                if op.width != width_of(op, 0) {
                    fail(
                        Some(idx),
                        format!(
                            "{mn} result must match operand width i{}, has i{}",
                            width_of(op, 0),
                            op.width
                        ),
                    );
                }
            }
            // Shift amounts may be any width; the result tracks the base.
            OpKind::Shl | OpKind::ShrU | OpKind::ShrS => {
                if op.width != width_of(op, 0) {
                    fail(
                        Some(idx),
                        format!(
                            "{mn} result must match base width i{}, has i{}",
                            width_of(op, 0),
                            op.width
                        ),
                    );
                }
            }
            OpKind::Eq | OpKind::Ne | OpKind::Ult | OpKind::Ule | OpKind::Slt | OpKind::Sle => {
                if let Some(m) = same_width_binary(width_of(op, 0), width_of(op, 1)) {
                    fail(Some(idx), m);
                }
                if op.width != 1 {
                    fail(Some(idx), format!("{mn} must produce i1, has i{}", op.width));
                }
            }
            OpKind::Mux => {
                if width_of(op, 0) != 1 {
                    fail(
                        Some(idx),
                        format!("{mn} condition must be i1, is i{}", width_of(op, 0)),
                    );
                }
                if let Some(m) = same_width_binary(width_of(op, 1), width_of(op, 2)) {
                    fail(Some(idx), m);
                }
                if op.width != width_of(op, 1) {
                    fail(
                        Some(idx),
                        format!(
                            "{mn} result must match arm width i{}, has i{}",
                            width_of(op, 1),
                            op.width
                        ),
                    );
                }
            }
            OpKind::Concat => {
                let total = width_of(op, 0) + width_of(op, 1);
                if op.width != total {
                    fail(
                        Some(idx),
                        format!("{mn} must produce i{total}, has i{}", op.width),
                    );
                }
            }
            OpKind::Replicate(n) => {
                if *n == 0 {
                    fail(Some(idx), format!("{mn} count must be at least 1"));
                } else if op.width != n * width_of(op, 0) {
                    fail(
                        Some(idx),
                        format!(
                            "{mn} must produce i{}, has i{}",
                            n * width_of(op, 0),
                            op.width
                        ),
                    );
                }
            }
            OpKind::ExtractConst { .. } | OpKind::ExtractDyn => {
                if op.width == 0 {
                    fail(Some(idx), format!("{mn} must produce a value"));
                }
            }
            OpKind::ZExt | OpKind::SExt => {
                if op.width < width_of(op, 0) {
                    fail(
                        Some(idx),
                        format!(
                            "{mn} cannot narrow i{} to i{}",
                            width_of(op, 0),
                            op.width
                        ),
                    );
                }
            }
            OpKind::Trunc => {
                if op.width > width_of(op, 0) || op.width == 0 {
                    fail(
                        Some(idx),
                        format!(
                            "{mn} must narrow i{} to 1..=i{}, has i{}",
                            width_of(op, 0),
                            width_of(op, 0),
                            op.width
                        ),
                    );
                }
            }
            OpKind::Sink => {
                if op.width != 0 {
                    fail(Some(idx), format!("{mn} must not produce a value"));
                }
            }
        }

        // Value/void discipline: state writes and the sink are the only
        // resultless operations.
        let is_void = op.kind.is_state_write() || op.kind == OpKind::Sink;
        if is_void && op.width != 0 {
            fail(Some(idx), format!("{mn} must have width 0, has i{}", op.width));
        }
        if !is_void && op.width == 0 {
            fail(Some(idx), format!("{mn} must produce a value, has width 0"));
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verifies every graph of `module`, plus module-level consistency
/// (custom-register and ROM shapes).
///
/// # Errors
///
/// Returns the concatenated violations of all graphs.
pub fn verify_module(module: &LilModule) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for reg in &module.custom_regs {
        let needed = if reg.elems <= 1 {
            0
        } else {
            64 - (reg.elems - 1).leading_zeros()
        };
        if reg.addr_width < needed {
            errors.push(VerifyError {
                graph: String::new(),
                op: None,
                message: format!(
                    "custom register @{} has {} elements but only {} address bits",
                    reg.name, reg.elems, reg.addr_width
                ),
            });
        }
    }
    for rom in &module.roms {
        if let Some(bad) = rom.contents.iter().position(|c| c.width() != rom.width) {
            errors.push(VerifyError {
                graph: String::new(),
                op: None,
                message: format!(
                    "ROM @{} element {} has width {}, table is i{}",
                    rom.name,
                    bad,
                    rom.contents[bad].width(),
                    rom.width
                ),
            });
        }
    }
    for graph in &module.graphs {
        if let Err(mut e) = verify_graph(graph, module) {
            errors.append(&mut e);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lil::{GraphKind, Op, ValueId};
    use bits::ApInt;

    fn op(kind: OpKind, operands: Vec<ValueId>, width: u32) -> Op {
        Op {
            kind,
            operands,
            width,
            pred: None,
            in_spawn: false,
        }
    }

    /// A minimal valid instruction graph: rd = rs1 + rs2.
    fn add_graph() -> Graph {
        Graph {
            name: "add".into(),
            kind: GraphKind::Instruction {
                mask: 0x7f,
                match_value: 0x0b,
            },
            ops: vec![
                op(OpKind::ReadRs1, vec![], 32),
                op(OpKind::ReadRs2, vec![], 32),
                op(OpKind::Add, vec![ValueId(0), ValueId(1)], 32),
                op(OpKind::WriteRd, vec![ValueId(2)], 0),
                op(OpKind::Sink, vec![], 0),
            ],
        }
    }

    fn module_with(graph: Graph) -> LilModule {
        LilModule {
            name: "t".into(),
            graphs: vec![graph],
            ..LilModule::default()
        }
    }

    #[test]
    fn accepts_well_formed_graph() {
        let m = module_with(add_graph());
        verify_module(&m).unwrap();
    }

    #[test]
    fn catches_width_mismatch() {
        let mut g = add_graph();
        g.ops[2].width = 16; // add of two i32 declared as i16
        let m = module_with(g);
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("result must match")),
            "{errs:?}"
        );
    }

    #[test]
    fn catches_missing_terminator() {
        let mut g = add_graph();
        g.ops.pop(); // drop the sink
        let m = module_with(g);
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("no lil.sink")),
            "{errs:?}"
        );
    }

    #[test]
    fn catches_arity_violation() {
        let mut g = add_graph();
        g.ops[2].operands.pop(); // add with one operand
        let m = module_with(g);
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("expects 2 operand")),
            "{errs:?}"
        );
    }

    #[test]
    fn catches_bad_predicate() {
        let mut g = add_graph();
        g.ops[3].pred = Some(ValueId(0)); // i32 predicate
        let m = module_with(g);
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("expected i1")),
            "{errs:?}"
        );
        // Predicate on a pure op is also rejected.
        let mut g2 = add_graph();
        g2.ops[2].pred = Some(ValueId(0));
        let errs2 = verify_module(&module_with(g2)).unwrap_err();
        assert!(
            errs2
                .iter()
                .any(|e| e.message.contains("must not carry a predicate")),
            "{errs2:?}"
        );
    }

    #[test]
    fn catches_unknown_register_and_rom() {
        let g = Graph {
            name: "g".into(),
            kind: GraphKind::Instruction {
                mask: 0,
                match_value: 0,
            },
            ops: vec![
                op(OpKind::Const(ApInt::zero(5)), vec![], 5),
                op(OpKind::ReadCustReg("missing".into()), vec![ValueId(0)], 32),
                op(OpKind::RomRead("nope".into()), vec![ValueId(0)], 8),
                op(OpKind::Sink, vec![], 0),
            ],
        };
        let errs = verify_module(&module_with(g)).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown custom register")));
        assert!(errs.iter().any(|e| e.message.contains("unknown ROM")));
    }

    #[test]
    fn collects_multiple_errors() {
        let mut g = add_graph();
        g.ops[2].width = 7;
        g.ops[3].pred = Some(ValueId(0));
        let errs = verify_module(&module_with(g)).unwrap_err();
        assert!(errs.len() >= 2, "wanted all violations, got {errs:?}");
    }

    #[test]
    fn deliberately_corrupted_lowered_graph_is_caught() {
        // Corrupt a graph the same way a buggy rewrite would: retarget an
        // operand to a later (non-dominating) value.
        let mut g = add_graph();
        g.ops[2].operands[0] = ValueId(3);
        let errs = verify_module(&module_with(g)).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("dominate")),
            "{errs:?}"
        );
    }

    #[test]
    fn module_level_shapes_checked() {
        let mut m = module_with(add_graph());
        m.custom_regs.push(crate::lil::CustomReg {
            name: "file".into(),
            width: 32,
            elems: 8,
            addr_width: 2, // needs 3
        });
        m.roms.push(crate::lil::Rom {
            name: "tbl".into(),
            width: 8,
            contents: vec![ApInt::zero(8), ApInt::zero(9)],
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("address bits")));
        assert!(errs.iter().any(|e| e.message.contains("ROM @tbl")));
    }
}
