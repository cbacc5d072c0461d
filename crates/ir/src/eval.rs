//! Evaluator for LIL data-flow graphs.
//!
//! Executes a graph against a [`LilEnv`] providing the SCAIE-V read
//! interfaces, and returns the requested state updates. Used for
//! differential testing against the golden interpreter and by the
//! integrated core simulation before RTL construction.

use crate::lil::{Graph, LilModule, OpKind, ValueId};
use bits::ApInt;
use std::collections::HashMap;

/// Supplies the values read through SCAIE-V sub-interfaces.
pub trait LilEnv {
    /// The 32-bit instruction word.
    fn instr_word(&mut self) -> ApInt;
    /// Value of the GPR selected by the `rs1` field.
    fn read_rs1(&mut self) -> ApInt;
    /// Value of the GPR selected by the `rs2` field.
    fn read_rs2(&mut self) -> ApInt;
    /// The program counter.
    fn read_pc(&mut self) -> ApInt;
    /// A 32-bit word load.
    fn read_mem(&mut self, addr: &ApInt) -> ApInt;
    /// A custom-register element.
    fn read_cust_reg(&mut self, name: &str, index: &ApInt) -> ApInt;
}

/// One architectural-state update requested by a graph evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateUpdate {
    pub kind: UpdateKind,
    /// Address/index for memory and custom-register updates.
    pub addr: Option<ApInt>,
    pub value: ApInt,
}

/// Which interface an update targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateKind {
    /// WrRD — destination GPR write.
    Rd,
    /// WrPC — program-counter write.
    Pc,
    /// WrMem — 32-bit store.
    Mem,
    /// WrCustReg — custom-register write.
    Cust(String),
}

/// Evaluates `graph` against `env`, returning the state updates whose
/// predicates held.
///
/// # Panics
///
/// Panics if the graph is structurally invalid (operand width mismatches);
/// graphs produced by [`crate::lower`] are always valid.
pub fn eval_graph(graph: &Graph, module: &LilModule, env: &mut dyn LilEnv) -> Vec<StateUpdate> {
    let mut values: Vec<Option<ApInt>> = vec![None; graph.ops.len()];
    let mut updates = Vec::new();
    for (id, op) in graph.iter() {
        let val = |v: ValueId| values[v.0].as_ref().expect("operand evaluated");
        let pred_ok = op.pred.is_none_or(|p| !val(p).is_zero());
        let operands: Vec<&ApInt> = op.operands.iter().map(|&v| val(v)).collect();
        let mut update = |kind: UpdateKind, addr: Option<&ApInt>, value: &ApInt| {
            if pred_ok {
                updates.push(StateUpdate {
                    kind,
                    addr: addr.cloned(),
                    value: value.clone(),
                });
            }
            None
        };
        let result = match &op.kind {
            OpKind::InstrWord => Some(env.instr_word()),
            OpKind::ReadRs1 => Some(env.read_rs1()),
            OpKind::ReadRs2 => Some(env.read_rs2()),
            OpKind::ReadPc => Some(env.read_pc()),
            OpKind::ReadMem => Some(if pred_ok {
                env.read_mem(operands[0])
            } else {
                ApInt::zero(32)
            }),
            OpKind::ReadCustReg(name) => Some(env.read_cust_reg(name, operands[0])),
            OpKind::WriteRd => update(UpdateKind::Rd, None, operands[0]),
            OpKind::WritePc => update(UpdateKind::Pc, None, operands[0]),
            OpKind::WriteMem => update(UpdateKind::Mem, Some(operands[0]), operands[1]),
            OpKind::WriteCustReg(name) => update(
                UpdateKind::Cust(name.clone()),
                Some(operands[0]),
                operands[1],
            ),
            OpKind::RomRead(name) => {
                let rom = module.rom(name).expect("ROM exists");
                let idx = operands[0].try_to_u64().unwrap_or(u64::MAX) as usize;
                Some(
                    rom.contents
                        .get(idx)
                        .cloned()
                        .unwrap_or_else(|| ApInt::zero(rom.width)),
                )
            }
            OpKind::Const(c) => Some(c.clone()),
            OpKind::Sink => None,
            kind => Some(eval_op(kind, &operands, op.width).expect("pure operator")),
        };
        values[id.0] = result;
    }
    updates
}

/// Evaluates a pure LIL operator on its operand values at result width
/// `width`. `None` for every operator whose value does not follow from
/// its operands alone: interface reads and writes, ROM reads, constants
/// and sinks. The lowering's constant folder and [`eval_graph`] share
/// it, so a folded constant is exactly what the graph would compute.
pub fn eval_op(kind: &OpKind, c: &[&ApInt], width: u32) -> Option<ApInt> {
    Some(match kind {
        OpKind::Add => c[0].add(c[1]),
        OpKind::Sub => c[0].sub(c[1]),
        OpKind::Mul => c[0].mul(c[1]),
        OpKind::DivU => c[0].udiv(c[1]),
        OpKind::DivS => c[0].sdiv(c[1]),
        OpKind::RemU => c[0].urem(c[1]),
        OpKind::RemS => c[0].srem(c[1]),
        OpKind::And => c[0].and(c[1]),
        OpKind::Or => c[0].or(c[1]),
        OpKind::Xor => c[0].xor(c[1]),
        OpKind::Not => c[0].not(),
        OpKind::Shl => c[0].shl(c[1]),
        OpKind::ShrU => c[0].lshr(c[1]),
        OpKind::ShrS => c[0].ashr(c[1]),
        OpKind::Eq => ApInt::from_bool(c[0] == c[1]),
        OpKind::Ne => ApInt::from_bool(c[0] != c[1]),
        OpKind::Ult => ApInt::from_bool(c[0].ult(c[1])),
        OpKind::Ule => ApInt::from_bool(c[0].ule(c[1])),
        OpKind::Slt => ApInt::from_bool(c[0].slt(c[1])),
        OpKind::Sle => ApInt::from_bool(c[0].sle(c[1])),
        OpKind::Mux => {
            if c[0].is_zero() {
                c[2].clone()
            } else {
                c[1].clone()
            }
        }
        OpKind::Concat => c[0].concat(c[1]),
        OpKind::Replicate(n) => c[0].replicate(*n),
        // Bits past the top of the base read zero.
        OpKind::ExtractConst { lo } => c[0].zext(c[0].width().max(lo + width)).extract(*lo, width),
        OpKind::ExtractDyn => c[0].lshr(c[1]).zext_or_trunc(width),
        OpKind::ZExt => c[0].zext(width),
        OpKind::SExt => c[0].sext(width),
        OpKind::Trunc => c[0].trunc(width),
        OpKind::InstrWord
        | OpKind::ReadRs1
        | OpKind::ReadRs2
        | OpKind::ReadPc
        | OpKind::ReadMem
        | OpKind::WriteRd
        | OpKind::WritePc
        | OpKind::WriteMem
        | OpKind::ReadCustReg(_)
        | OpKind::WriteCustReg(_)
        | OpKind::RomRead(_)
        | OpKind::Const(_)
        | OpKind::Sink => return None,
    })
}

/// A map-backed [`LilEnv`] for tests.
#[derive(Debug, Clone, Default)]
pub struct MapEnv {
    /// Instruction word.
    pub word: u32,
    /// rs1 operand value.
    pub rs1: u32,
    /// rs2 operand value.
    pub rs2: u32,
    /// Program counter.
    pub pc: u32,
    /// Word-addressed test memory (keyed by byte address).
    pub mem: HashMap<u32, u32>,
    /// Custom register values: (name, index) → value.
    pub cust: HashMap<(String, u64), ApInt>,
    /// Widths for custom registers (defaults to 32).
    pub cust_widths: HashMap<String, u32>,
}

impl LilEnv for MapEnv {
    fn instr_word(&mut self) -> ApInt {
        ApInt::from_u64(self.word as u64, 32)
    }

    fn read_rs1(&mut self) -> ApInt {
        ApInt::from_u64(self.rs1 as u64, 32)
    }

    fn read_rs2(&mut self) -> ApInt {
        ApInt::from_u64(self.rs2 as u64, 32)
    }

    fn read_pc(&mut self) -> ApInt {
        ApInt::from_u64(self.pc as u64, 32)
    }

    fn read_mem(&mut self, addr: &ApInt) -> ApInt {
        let a = addr.to_u64() as u32;
        ApInt::from_u64(self.mem.get(&a).copied().unwrap_or(0) as u64, 32)
    }

    fn read_cust_reg(&mut self, name: &str, index: &ApInt) -> ApInt {
        let width = self.cust_widths.get(name).copied().unwrap_or(32);
        self.cust
            .get(&(name.to_string(), index.to_u64()))
            .cloned()
            .unwrap_or_else(|| ApInt::zero(width))
    }
}
