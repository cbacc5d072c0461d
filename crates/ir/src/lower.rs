//! Lowering from the typed CoreDSL AST to LIL data-flow graphs
//! (paper §4.1, step (b) → (c)).
//!
//! The lowering performs, in one pass per instruction / `always`-block:
//!
//! * **loop unrolling** — for-loops with compile-time-evaluable trip counts
//!   are fully unrolled (constant folding happens on the fly),
//! * **function inlining** — pure helper functions are inlined,
//! * **if-conversion** — branches become predicated data-flow with
//!   multiplexers at merge points,
//! * **interface extraction** — accesses to `X`/`PC`/`MEM` are
//!   pattern-matched to the SCAIE-V sub-interfaces (a GPR read indexed by an
//!   encoding field covering instruction bits 19:15 becomes `lil.read_rs1`,
//!   and so on),
//! * **write merging** — state updates are combined so each sub-interface
//!   is used at most once per instruction (paper §3.1),
//! * **spawn flattening** — `spawn` regions are flattened into the graph
//!   with their operations marked for decoupled-mode selection.

use crate::lil::*;
use bits::ApInt;
use coredsl::ast::{BinOp, UnOp};
use coredsl::tast::{
    self, AlwaysBlock, BuiltinReg, Encoding, Expr, ExprKind, Instruction, LValue, Local, RegId,
    Stmt, TypedModule,
};
use coredsl::types::IntType;
use std::collections::HashMap;
use std::fmt;

/// Maximum number of iterations a single loop may unroll to.
pub const MAX_UNROLL: u64 = 4096;

/// Error produced during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Instruction or always-block being lowered.
    pub unit: String,
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering `{}`: {}", self.unit, self.message)
    }
}

impl std::error::Error for LowerError {}

type Result<T> = std::result::Result<T, LowerError>;

/// Lowers a type-checked module into LIL graphs.
///
/// # Errors
///
/// Returns an error for behavior outside the synthesizable subset, e.g.
/// loops without compile-time trip counts, GPR reads not indexed by an
/// `rs1`/`rs2` encoding field, or double use of a sub-interface.
pub fn lower_module(module: &TypedModule) -> Result<LilModule> {
    let mut lil = lower_state(module);
    for instr in &module.instructions {
        lil.graphs.push(lower_instruction(module, instr)?);
    }
    for always in &module.always_blocks {
        lil.graphs.push(lower_always(module, always)?);
    }
    Ok(lil)
}

/// Lowers only the architectural state (ROMs and custom registers),
/// producing a module with no graphs. Drivers that lower instructions
/// individually — so one failing instruction does not abort the others —
/// start from this and append graphs from [`lower_instruction`] /
/// [`lower_always`] themselves.
pub fn lower_state(module: &TypedModule) -> LilModule {
    let mut lil = LilModule {
        name: module.name.clone(),
        ..LilModule::default()
    };
    for reg in &module.registers {
        if reg.is_const {
            let mut contents = reg.init.clone().unwrap_or_default();
            contents.resize(reg.elems as usize, ApInt::zero(reg.ty.width));
            lil.roms.push(Rom {
                name: reg.name.clone(),
                width: reg.ty.width,
                contents,
            });
        } else if reg.is_custom() {
            lil.custom_regs.push(CustomReg {
                name: reg.name.clone(),
                width: reg.ty.width,
                elems: reg.elems,
                addr_width: reg.addr_width(),
            });
        }
    }
    lil
}

/// Lowers a single instruction.
pub fn lower_instruction(module: &TypedModule, instr: &Instruction) -> Result<Graph> {
    let kind = GraphKind::Instruction {
        mask: instr.encoding.mask(),
        match_value: instr.encoding.match_value(),
    };
    let mut ctx = Ctx::new(module, instr.name.clone(), kind, Some(&instr.encoding));
    ctx.push_frame(&instr.locals);
    ctx.lower_block(&instr.behavior)?;
    ctx.finish()
}

/// Lowers a single `always`-block.
pub fn lower_always(module: &TypedModule, always: &AlwaysBlock) -> Result<Graph> {
    let mut ctx = Ctx::new(module, always.name.clone(), GraphKind::Always, None);
    ctx.push_frame(&always.locals);
    ctx.lower_block(&always.behavior)?;
    ctx.finish()
}

/// Key identifying a mergeable write target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum WriteTarget {
    Rd,
    Pc,
    Mem,
    Cust(String),
}

#[derive(Debug, Clone)]
struct PendingWrite {
    target: WriteTarget,
    addr: Option<ValueId>,
    value: ValueId,
    pred: Option<ValueId>,
    in_spawn: bool,
}

/// An inlining frame: maps the active body's `LocalId`s to SSA values.
struct Frame<'a> {
    locals: HashMap<usize, ValueId>,
    table: &'a [Local],
    ret: Option<ValueId>,
}

struct Ctx<'a> {
    module: &'a TypedModule,
    unit: String,
    kind: GraphKind,
    encoding: Option<&'a Encoding>,
    ops: Vec<Op>,
    cse: HashMap<(OpKind, Vec<ValueId>, u32), ValueId>,
    frames: Vec<Frame<'a>>,
    /// Forwarding map for PC and custom-register reads after writes within
    /// the same behavior: (register index, optional address value) → value.
    reg_fwd: HashMap<(usize, Option<ValueId>), ValueId>,
    pending: Vec<PendingWrite>,
    path_pred: Option<ValueId>,
    in_spawn: bool,
    field_cache: HashMap<String, ValueId>,
    instr_word: Option<ValueId>,
    call_stack: Vec<String>,
}

impl<'a> Ctx<'a> {
    fn new(
        module: &'a TypedModule,
        unit: String,
        kind: GraphKind,
        encoding: Option<&'a Encoding>,
    ) -> Self {
        Ctx {
            module,
            unit,
            kind,
            encoding,
            ops: Vec::new(),
            cse: HashMap::new(),
            frames: Vec::new(),
            reg_fwd: HashMap::new(),
            pending: Vec::new(),
            path_pred: None,
            in_spawn: false,
            field_cache: HashMap::new(),
            instr_word: None,
            call_stack: Vec::new(),
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(LowerError {
            unit: self.unit.clone(),
            message: message.into(),
        })
    }

    fn push_frame(&mut self, table: &'a [Local]) {
        self.frames.push(Frame {
            locals: HashMap::new(),
            table,
            ret: None,
        });
    }

    fn frame(&mut self) -> &mut Frame<'a> {
        self.frames.last_mut().expect("active frame")
    }

    fn local_ty(&self, id: usize) -> IntType {
        self.frames.last().expect("active frame").table[id].ty
    }

    // ---- op construction with folding and CSE -----------------------------

    fn push(&mut self, kind: OpKind, operands: Vec<ValueId>, width: u32) -> ValueId {
        // Constant folding.
        if let Some(folded) = self.try_fold(&kind, &operands, width) {
            return self.intern_const(folded);
        }
        // Algebraic simplifications.
        if let Some(simplified) = self.try_simplify(&kind, &operands, width) {
            return simplified;
        }
        let pure = !kind.has_side_effect()
            && !matches!(kind, OpKind::ReadMem | OpKind::Sink)
            && width > 0;
        if pure {
            let key = (kind.clone(), operands.clone(), width);
            if let Some(&v) = self.cse.get(&key) {
                return v;
            }
            let v = self.raw_push(kind, operands, width, None);
            self.cse.insert(key, v);
            v
        } else {
            self.raw_push(kind, operands, width, None)
        }
    }

    fn raw_push(
        &mut self,
        kind: OpKind,
        operands: Vec<ValueId>,
        width: u32,
        pred: Option<ValueId>,
    ) -> ValueId {
        let id = ValueId(self.ops.len());
        self.ops.push(Op {
            kind,
            operands,
            width,
            pred,
            in_spawn: self.in_spawn,
        });
        id
    }

    fn intern_const(&mut self, value: ApInt) -> ValueId {
        let width = value.width();
        let kind = OpKind::Const(value);
        let key = (kind.clone(), Vec::new(), width);
        if let Some(&v) = self.cse.get(&key) {
            return v;
        }
        let v = self.raw_push(kind, Vec::new(), width, None);
        self.cse.insert(key, v);
        v
    }

    fn const_of(&self, v: ValueId) -> Option<&ApInt> {
        match &self.ops[v.0].kind {
            OpKind::Const(c) => Some(c),
            _ => None,
        }
    }

    fn width_of(&self, v: ValueId) -> u32 {
        self.ops[v.0].width
    }

    fn try_fold(&self, kind: &OpKind, operands: &[ValueId], width: u32) -> Option<ApInt> {
        // ROM reads with constant indices fold to the looked-up constant.
        if let OpKind::RomRead(name) = kind {
            let idx = self.const_of(operands[0])?;
            let rom = self.module.registers.iter().find(|r| r.name == *name)?;
            let contents = rom.init.as_ref()?;
            let i = idx.try_to_u64()? as usize;
            return Some(if i < contents.len() {
                contents[i].clone()
            } else {
                ApInt::zero(width)
            });
        }
        let consts: Option<Vec<&ApInt>> = operands.iter().map(|&v| self.const_of(v)).collect();
        crate::eval::eval_op(kind, &consts?, width)
    }

    fn try_simplify(&mut self, kind: &OpKind, operands: &[ValueId], width: u32) -> Option<ValueId> {
        match kind {
            OpKind::ZExt | OpKind::SExt | OpKind::Trunc
                if self.width_of(operands[0]) == width =>
            {
                Some(operands[0])
            }
            OpKind::ExtractConst { lo: 0 } if self.width_of(operands[0]) == width => {
                Some(operands[0])
            }
            OpKind::Mux => match self.const_of(operands[0]) {
                Some(c) if c.is_zero() => Some(operands[2]),
                Some(_) => Some(operands[1]),
                None if operands[1] == operands[2] => Some(operands[1]),
                None => None,
            },
            // Shifts by compile-time constants are pure wiring: rewrite to
            // extract/concat so neither the scheduler nor the area model
            // sees a barrel shifter.
            OpKind::Shl => {
                let c = self.const_of(operands[1])?.try_to_u64()?;
                if c == 0 {
                    return Some(operands[0]);
                }
                if c >= width as u64 {
                    return Some(self.intern_const(ApInt::zero(width)));
                }
                let c = c as u32;
                let low = self.push(
                    OpKind::ExtractConst { lo: 0 },
                    vec![operands[0]],
                    width - c,
                );
                let zeros = self.intern_const(ApInt::zero(c));
                Some(self.push(OpKind::Concat, vec![low, zeros], width))
            }
            OpKind::ShrU => {
                let c = self.const_of(operands[1])?.try_to_u64()?;
                if c == 0 {
                    return Some(operands[0]);
                }
                if c >= width as u64 {
                    return Some(self.intern_const(ApInt::zero(width)));
                }
                let c = c as u32;
                let high = self.push(
                    OpKind::ExtractConst { lo: c },
                    vec![operands[0]],
                    width - c,
                );
                Some(self.push(OpKind::ZExt, vec![high], width))
            }
            OpKind::ShrS => {
                let c = self.const_of(operands[1])?.try_to_u64()?;
                if c == 0 {
                    return Some(operands[0]);
                }
                let c = (c as u32).min(width - 1);
                let high = self.push(
                    OpKind::ExtractConst { lo: c },
                    vec![operands[0]],
                    width - c,
                );
                Some(self.push(OpKind::SExt, vec![high], width))
            }
            // Dynamic extract with constant offset becomes a static extract.
            OpKind::ExtractDyn => {
                let lo = self.const_of(operands[1])?.try_to_u64()? as u32;
                let base = operands[0];
                let bw = self.width_of(base);
                let base = if lo + width > bw {
                    self.push(OpKind::ZExt, vec![base], lo + width)
                } else {
                    base
                };
                Some(self.push(OpKind::ExtractConst { lo }, vec![base], width))
            }
            OpKind::And => {
                if width == 1 {
                    if let Some(c) = self.const_of(operands[0]) {
                        return Some(if c.is_zero() {
                            operands[0]
                        } else {
                            operands[1]
                        });
                    }
                    if let Some(c) = self.const_of(operands[1]) {
                        return Some(if c.is_zero() {
                            operands[1]
                        } else {
                            operands[0]
                        });
                    }
                }
                None
            }
            OpKind::Or => {
                if width == 1 {
                    if let Some(c) = self.const_of(operands[0]) {
                        return Some(if c.is_zero() {
                            operands[1]
                        } else {
                            operands[0]
                        });
                    }
                    if let Some(c) = self.const_of(operands[1]) {
                        return Some(if c.is_zero() {
                            operands[0]
                        } else {
                            operands[1]
                        });
                    }
                }
                // OR of values with disjoint bits is pure wiring: the very
                // common `(x << k) | small` pattern (already lowered to
                // `Concat(x, 0_k) | small`) becomes a concatenation.
                for (a, b) in [(operands[0], operands[1]), (operands[1], operands[0])] {
                    let OpKind::Concat = self.ops[a.0].kind else {
                        continue;
                    };
                    let (hi, lo) = (self.ops[a.0].operands[0], self.ops[a.0].operands[1]);
                    let k = self.width_of(lo);
                    // Low part must be known zero.
                    if !self.const_of(lo).map(|c| c.is_zero()).unwrap_or(false) {
                        continue;
                    }
                    // The other operand must only occupy the low k bits.
                    let small = match &self.ops[b.0].kind {
                        OpKind::Const(c) if c.min_unsigned_width() <= k => {
                            Some(self.intern_const(c.trunc(k)))
                        }
                        OpKind::ZExt if self.width_of(self.ops[b.0].operands[0]) <= k => {
                            let src = self.ops[b.0].operands[0];
                            Some(self.push(OpKind::ZExt, vec![src], k))
                        }
                        _ => None,
                    };
                    if let Some(low) = small {
                        return Some(self.push(OpKind::Concat, vec![hi, low], width));
                    }
                }
                None
            }
            _ => None,
        }
    }

    // ---- width adaptation --------------------------------------------------

    /// Resizes `v` (whose CoreDSL signedness is `signed`) to `width`.
    fn resize(&mut self, v: ValueId, signed: bool, width: u32) -> ValueId {
        let w = self.width_of(v);
        if w == width {
            v
        } else if w < width {
            let kind = if signed { OpKind::SExt } else { OpKind::ZExt };
            self.push(kind, vec![v], width)
        } else {
            self.push(OpKind::Trunc, vec![v], width)
        }
    }

    /// Reduces a value to a 1-bit condition (`!= 0`).
    fn boolify(&mut self, v: ValueId) -> ValueId {
        if self.width_of(v) == 1 {
            return v;
        }
        let zero = self.intern_const(ApInt::zero(self.width_of(v)));
        self.push(OpKind::Ne, vec![v, zero], 1)
    }

    fn and_pred(&mut self, a: Option<ValueId>, b: ValueId) -> ValueId {
        match a {
            None => b,
            Some(a) => self.push(OpKind::And, vec![a, b], 1),
        }
    }

    fn not(&mut self, v: ValueId) -> ValueId {
        self.push(OpKind::Not, vec![v], 1)
    }

    // ---- fields and the instruction word -----------------------------------

    fn instr_word(&mut self) -> ValueId {
        if let Some(v) = self.instr_word {
            return v;
        }
        let v = self.push(OpKind::InstrWord, Vec::new(), 32);
        self.instr_word = Some(v);
        v
    }

    /// Materializes an encoding operand field from the instruction word by
    /// concatenating its segments (gaps are zero-filled).
    fn field_value(&mut self, name: &str) -> Result<ValueId> {
        if let Some(&v) = self.field_cache.get(name) {
            return Ok(v);
        }
        let Some(encoding) = self.encoding else {
            return self.err(format!("field `{name}` referenced outside an instruction"));
        };
        let field = encoding
            .fields
            .iter()
            .find(|f| f.name == name)
            .cloned()
            .ok_or_else(|| LowerError {
                unit: self.unit.clone(),
                message: format!("unknown encoding field `{name}`"),
            })?;
        let mut segments = encoding.field_segments(name);
        segments.sort_by_key(|&(_, field_lo, _)| field_lo);
        let word = self.instr_word();
        // Build from LSB to MSB, concatenating extracted segments with
        // zero padding for gaps.
        let mut acc: Option<ValueId> = None;
        let mut covered = 0u32;
        for (instr_lo, field_lo, len) in segments {
            if field_lo > covered {
                let pad = self.intern_const(ApInt::zero(field_lo - covered));
                acc = Some(match acc {
                    None => pad,
                    Some(a) => self.push(
                        OpKind::Concat,
                        vec![pad, a],
                        field_lo,
                    ),
                });
                covered = field_lo;
            }
            let seg = self.push(OpKind::ExtractConst { lo: instr_lo }, vec![word], len);
            acc = Some(match acc {
                None => seg,
                Some(a) => self.push(OpKind::Concat, vec![seg, a], covered + len),
            });
            covered += len;
        }
        if covered < field.width {
            let pad = self.intern_const(ApInt::zero(field.width - covered));
            acc = Some(match acc {
                None => pad,
                Some(a) => self.push(OpKind::Concat, vec![pad, a], field.width),
            });
        }
        let v = acc.expect("fields have at least one segment");
        self.field_cache.insert(name.to_string(), v);
        Ok(v)
    }

    /// Classifies a GPR access index: it must be an encoding field covering
    /// the standard `rs1`/`rs2`/`rd` bit positions (paper §4.1c).
    fn gpr_port(&self, index: &Expr) -> Option<GprPort> {
        let ExprKind::Field(name) = &index.kind else {
            return None;
        };
        let segments = self.encoding?.field_segments(name);
        if segments.len() != 1 {
            return None;
        }
        match segments[0] {
            (15, 0, 5) => Some(GprPort::Rs1),
            (20, 0, 5) => Some(GprPort::Rs2),
            (7, 0, 5) => Some(GprPort::Rd),
            _ => None,
        }
    }

    // ---- statements ---------------------------------------------------------

    fn lower_block(&mut self, block: &tast::Block) -> Result<()> {
        for (i, stmt) in block.stmts.iter().enumerate() {
            if let Stmt::Spawn { .. } = stmt {
                if i + 1 != block.stmts.len() {
                    return self.err("spawn must be the last statement of its block");
                }
            }
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Decl { local, init } => {
                let value = match init {
                    Some(e) => self.lower_expr(e)?,
                    None => {
                        let ty = self.local_ty(local.0);
                        self.intern_const(ApInt::zero(ty.width))
                    }
                };
                self.frame().locals.insert(local.0, value);
                Ok(())
            }
            Stmt::Assign { target, value } => {
                let v = self.lower_expr(value)?;
                self.lower_assign(target, v)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => self.lower_if(cond, then_block, else_block),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => self.lower_for(init, cond, step, body),
            Stmt::Spawn { body } => {
                if self.kind == GraphKind::Always {
                    return self.err("spawn is not allowed in always-blocks");
                }
                let saved = self.in_spawn;
                self.in_spawn = true;
                let r = self.lower_block(body);
                self.in_spawn = saved;
                r
            }
            Stmt::Call { .. } => {
                // Helper functions are pure, so a void call has no effect.
                Ok(())
            }
            Stmt::Return { value } => {
                if self.frames.len() < 2 {
                    return self.err("return outside of a function");
                }
                let v = match value {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.frame().ret = v;
                Ok(())
            }
        }
    }

    fn lower_if(
        &mut self,
        cond: &Expr,
        then_block: &tast::Block,
        else_block: &tast::Block,
    ) -> Result<()> {
        let c_raw = self.lower_expr(cond)?;
        let c = self.boolify(c_raw);
        if let Some(cv) = self.const_of(c) {
            // Statically resolved branch (common after loop unrolling).
            let taken = !cv.is_zero();
            return self.lower_block(if taken { then_block } else { else_block });
        }
        let saved_locals = self.frame().locals.clone();
        let saved_fwd = self.reg_fwd.clone();
        let outer_pred = self.path_pred;

        self.path_pred = Some(self.and_pred(outer_pred, c));
        self.lower_block(then_block)?;
        let then_locals = std::mem::replace(&mut self.frame().locals, saved_locals.clone());
        let then_fwd = std::mem::replace(&mut self.reg_fwd, saved_fwd.clone());

        let nc = self.not(c);
        self.path_pred = Some(self.and_pred(outer_pred, nc));
        self.lower_block(else_block)?;
        let else_locals = std::mem::take(&mut self.frame().locals);
        let else_fwd = std::mem::take(&mut self.reg_fwd);

        self.path_pred = outer_pred;

        // Merge locals. Sort the key union: HashMap iteration order is
        // seeded per process, and the Mux emission order below decides
        // LIL value numbering — and through it the schedule and the net
        // names in the emitted Verilog, which must be reproducible.
        let mut merged = saved_locals;
        let mut keys: Vec<usize> = then_locals
            .keys()
            .chain(else_locals.keys())
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let t = then_locals.get(&key).copied();
            let e = else_locals.get(&key).copied();
            let base = merged.get(&key).copied();
            let value = match (t, e) {
                (Some(tv), Some(ev)) if tv == ev => tv,
                (Some(tv), Some(ev)) => self.push(OpKind::Mux, vec![c, tv, ev], self.width_of(tv)),
                (Some(tv), None) => match base {
                    Some(b) if b != tv => {
                        self.push(OpKind::Mux, vec![c, tv, b], self.width_of(tv))
                    }
                    _ => tv,
                },
                (None, Some(ev)) => match base {
                    Some(b) if b != ev => {
                        self.push(OpKind::Mux, vec![c, b, ev], self.width_of(ev))
                    }
                    _ => ev,
                },
                (None, None) => continue,
            };
            merged.insert(key, value);
        }
        self.frame().locals = merged;

        // Merge the state-forwarding map: a read after a conditional write
        // must observe the muxed value.
        let mut merged_fwd = saved_fwd;
        let mut fwd_keys: Vec<(usize, Option<ValueId>)> = then_fwd
            .keys()
            .chain(else_fwd.keys())
            .cloned()
            .collect();
        fwd_keys.sort_unstable();
        fwd_keys.dedup();
        for key in fwd_keys {
            let t = then_fwd.get(&key).copied();
            let e = else_fwd.get(&key).copied();
            let base = match merged_fwd.get(&key).copied() {
                Some(b) => Some(b),
                None => self.architectural_read(&key)?,
            };
            let value = match (t, e) {
                (Some(tv), Some(ev)) if tv == ev => tv,
                (Some(tv), Some(ev)) => self.push(OpKind::Mux, vec![c, tv, ev], self.width_of(tv)),
                (Some(tv), None) => match base {
                    Some(b) if b != tv => {
                        self.push(OpKind::Mux, vec![c, tv, b], self.width_of(tv))
                    }
                    _ => tv,
                },
                (None, Some(ev)) => match base {
                    Some(b) if b != ev => {
                        self.push(OpKind::Mux, vec![c, b, ev], self.width_of(ev))
                    }
                    _ => ev,
                },
                (None, None) => continue,
            };
            merged_fwd.insert(key, value);
        }
        self.reg_fwd = merged_fwd;
        Ok(())
    }

    /// Emits the architectural read for a forwarding key (used as the "else"
    /// value when only one branch wrote the register). CSE guarantees the
    /// sub-interface is still used only once.
    fn architectural_read(&mut self, key: &(usize, Option<ValueId>)) -> Result<Option<ValueId>> {
        let reg = &self.module.registers[key.0];
        match reg.builtin {
            Some(BuiltinReg::Pc) => Ok(Some(self.push(OpKind::ReadPc, Vec::new(), 32))),
            None if reg.is_custom() => {
                let addr = key.1.unwrap_or_else(|| {
                    unreachable!("custom register forwarding keys carry an address")
                });
                Ok(Some(self.push(
                    OpKind::ReadCustReg(reg.name.clone()),
                    vec![addr],
                    reg.ty.width,
                )))
            }
            _ => Ok(None),
        }
    }

    fn lower_for(
        &mut self,
        init: &[Stmt],
        cond: &Expr,
        step: &[Stmt],
        body: &tast::Block,
    ) -> Result<()> {
        for s in init {
            self.lower_stmt(s)?;
        }
        let mut iterations = 0u64;
        loop {
            let c = self.lower_expr(cond)?;
            let Some(cv) = self.const_of(c) else {
                return self.err(
                    "loop condition is not compile-time constant; loops are fully unrolled \
                     during synthesis (paper §2.4)",
                );
            };
            if cv.is_zero() {
                break;
            }
            iterations += 1;
            if iterations > MAX_UNROLL {
                return self.err(format!(
                    "loop exceeds the unroll limit of {MAX_UNROLL} iterations"
                ));
            }
            self.lower_block(body)?;
            for s in step {
                self.lower_stmt(s)?;
            }
        }
        Ok(())
    }

    // ---- assignments -----------------------------------------------------------

    fn lower_assign(&mut self, target: &LValue, value: ValueId) -> Result<()> {
        match target {
            LValue::Local(id) => {
                self.frame().locals.insert(id.0, value);
                Ok(())
            }
            LValue::LocalRange {
                local,
                offset,
                width,
            } => {
                let ty = self.local_ty(local.0);
                let old = self.read_local(local.0)?;
                let off = self.lower_expr(offset)?;
                let new = self.insert_bits(old, ty.width, off, value, *width);
                self.frame().locals.insert(local.0, new);
                Ok(())
            }
            LValue::Reg { reg, index } => self.lower_reg_write(*reg, index.as_ref(), value),
            LValue::RegRange { reg, lo, elems } => {
                let r = &self.module.registers[reg.0];
                if r.builtin != Some(BuiltinReg::Mem) {
                    return self.err(format!(
                        "range assignment is only supported for the MEM address space, not `{}`",
                        r.name
                    ));
                }
                if *elems != 4 || r.ty.width != 8 {
                    return self.err(
                        "memory must be accessed as aligned 32-bit words (4-byte ranges) to map \
                         onto the WrMem sub-interface",
                    );
                }
                let addr_raw = self.lower_expr(lo)?;
                let addr = self.resize(addr_raw, false, 32);
                let value = self.resize(value, false, 32);
                self.pend(WriteTarget::Mem, Some(addr), value);
                Ok(())
            }
        }
    }

    fn lower_reg_write(&mut self, reg: RegId, index: Option<&Expr>, value: ValueId) -> Result<()> {
        let r = &self.module.registers[reg.0];
        if r.is_const {
            return self.err(format!("cannot assign to const register `{}`", r.name));
        }
        match r.builtin {
            Some(BuiltinReg::Gpr) => {
                let Some(index) = index else {
                    return self.err("the GPR file `X` must be indexed");
                };
                match self.gpr_port(index) {
                    Some(GprPort::Rd) => {
                        let value = self.resize(value, false, 32);
                        self.pend(WriteTarget::Rd, None, value);
                        Ok(())
                    }
                    _ => self.err(
                        "GPR writes must be indexed by the `rd` encoding field (bits 11:7); \
                         SCAIE-V's WrRD sub-interface has no other write port (Table 1)",
                    ),
                }
            }
            Some(BuiltinReg::Pc) => {
                let value = self.resize(value, false, 32);
                self.pend(WriteTarget::Pc, None, value);
                self.reg_fwd.insert((reg.0, None), value);
                Ok(())
            }
            Some(BuiltinReg::Mem) => {
                self.err("memory must be written as 4-byte ranges (MEM[a+3:a] = value)")
            }
            None => {
                let addr = match index {
                    Some(e) => {
                        let v = self.lower_expr(e)?;
                        self.resize(v, false, r.addr_width().max(1))
                    }
                    None => self.intern_const(ApInt::zero(r.addr_width().max(1))),
                };
                let value = self.resize(value, false, r.ty.width);
                self.pend(WriteTarget::Cust(r.name.clone()), Some(addr), value);
                self.reg_fwd.insert((reg.0, Some(addr)), value);
                Ok(())
            }
        }
    }

    fn pend(&mut self, target: WriteTarget, addr: Option<ValueId>, value: ValueId) {
        let pred = self.path_pred;
        let in_spawn = self.in_spawn;
        self.pending.push(PendingWrite {
            target,
            addr,
            value,
            pred,
            in_spawn,
        });
    }

    /// Replaces bits `[off + width - 1 : off]` of `old` (total width
    /// `total`) with `value`.
    fn insert_bits(
        &mut self,
        old: ValueId,
        total: u32,
        off: ValueId,
        value: ValueId,
        width: u32,
    ) -> ValueId {
        // (old & ~(mask << off)) | (zext(value) << off)
        let mask = ApInt::ones(width).zext(total.max(width));
        let mask = self.intern_const(mask.zext_or_trunc(total));
        let shifted_mask = self.push(OpKind::Shl, vec![mask, off], total);
        let inv = self.push(OpKind::Not, vec![shifted_mask], total);
        let cleared = self.push(OpKind::And, vec![old, inv], total);
        let val_ext = self.resize(value, false, total);
        let val_shifted = self.push(OpKind::Shl, vec![val_ext, off], total);
        self.push(OpKind::Or, vec![cleared, val_shifted], total)
    }

    // ---- expressions -------------------------------------------------------

    fn read_local(&mut self, id: usize) -> Result<ValueId> {
        match self.frames.last().expect("active frame").locals.get(&id) {
            Some(&v) => Ok(v),
            None => {
                let name = self.frames.last().unwrap().table[id].name.clone();
                self.err(format!("local `{name}` read before initialization"))
            }
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<ValueId> {
        match &e.kind {
            ExprKind::Const(c) => Ok(self.intern_const(c.clone())),
            ExprKind::Local(id) => self.read_local(id.0),
            ExprKind::Field(name) => self.field_value(name),
            ExprKind::ReadReg { reg, index } => self.lower_reg_read(*reg, index.as_deref()),
            ExprKind::ReadRegRange { reg, lo, elems } => {
                let r = &self.module.registers[reg.0];
                if r.builtin != Some(BuiltinReg::Mem) {
                    return self.err(format!(
                        "range reads are only supported for the MEM address space, not `{}`",
                        r.name
                    ));
                }
                if *elems != 4 || r.ty.width != 8 {
                    return self.err(
                        "memory must be read as aligned 32-bit words (4-byte ranges) to map onto \
                         the RdMem sub-interface",
                    );
                }
                let addr_raw = self.lower_expr(lo)?;
                let addr = self.resize(addr_raw, false, 32);
                let pred = self.path_pred;
                let in_spawn = self.in_spawn;
                let id = ValueId(self.ops.len());
                self.ops.push(Op {
                    kind: OpKind::ReadMem,
                    operands: vec![addr],
                    width: 32,
                    pred,
                    in_spawn,
                });
                Ok(id)
            }
            ExprKind::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs, e.ty),
            ExprKind::Unary { op, operand } => {
                let v = self.lower_expr(operand)?;
                match op {
                    UnOp::Neg => {
                        let ext = self.resize(v, operand.ty.signed, e.ty.width);
                        let zero = self.intern_const(ApInt::zero(e.ty.width));
                        Ok(self.push(OpKind::Sub, vec![zero, ext], e.ty.width))
                    }
                    UnOp::Not => Ok(self.push(OpKind::Not, vec![v], e.ty.width)),
                    UnOp::LogNot => {
                        let zero = self.intern_const(ApInt::zero(self.width_of(v)));
                        Ok(self.push(OpKind::Eq, vec![v, zero], 1))
                    }
                    UnOp::Plus => Ok(v),
                }
            }
            ExprKind::Cast { operand } => {
                let v = self.lower_expr(operand)?;
                Ok(self.resize(v, operand.ty.signed, e.ty.width))
            }
            ExprKind::Slice {
                base,
                offset,
                width,
            } => {
                let b = self.lower_expr(base)?;
                let off = self.lower_expr(offset)?;
                Ok(self.push(OpKind::ExtractDyn, vec![b, off], *width))
            }
            ExprKind::Concat { hi, lo } => {
                let h = self.lower_expr(hi)?;
                let l = self.lower_expr(lo)?;
                Ok(self.push(OpKind::Concat, vec![h, l], e.ty.width))
            }
            ExprKind::Ternary {
                cond,
                then_val,
                else_val,
            } => {
                let c_raw = self.lower_expr(cond)?;
                let c = self.boolify(c_raw);
                let t = self.lower_expr(then_val)?;
                let t = self.resize(t, then_val.ty.signed, e.ty.width);
                let f = self.lower_expr(else_val)?;
                let f = self.resize(f, else_val.ty.signed, e.ty.width);
                Ok(self.push(OpKind::Mux, vec![c, t, f], e.ty.width))
            }
            ExprKind::Call { callee, args } => self.inline_call(callee, args),
            ExprKind::Poison => {
                self.err("poisoned expression survived semantic analysis (compiler bug)")
            }
        }
    }

    fn lower_reg_read(&mut self, reg: RegId, index: Option<&Expr>) -> Result<ValueId> {
        let r = &self.module.registers[reg.0];
        match r.builtin {
            Some(BuiltinReg::Gpr) => {
                // A GPR read that sequentially follows a GPR write on the
                // same control path would need dynamic rd==rs forwarding,
                // which SCAIE-V does not provide; reject it. Writes on a
                // *different* branch (disjoint predicate) are fine — the
                // read then observes the architectural value on every path
                // where it executes.
                let same_path = |wp: &Option<ValueId>| match (wp, &self.path_pred) {
                    (None, _) | (_, None) => true,
                    (Some(a), Some(b)) => a == b,
                };
                if self
                    .pending
                    .iter()
                    .any(|w| w.target == WriteTarget::Rd && same_path(&w.pred))
                {
                    return self.err(
                        "GPR read after a GPR write within the same instruction is not \
                         synthesizable (the write index is dynamic)",
                    );
                }
                let Some(index) = index else {
                    return self.err("the GPR file `X` must be indexed");
                };
                match self.gpr_port(index) {
                    Some(GprPort::Rs1) => Ok(self.push(OpKind::ReadRs1, Vec::new(), 32)),
                    Some(GprPort::Rs2) => Ok(self.push(OpKind::ReadRs2, Vec::new(), 32)),
                    _ => self.err(
                        "GPR reads must be indexed by the `rs1` (bits 19:15) or `rs2` \
                         (bits 24:20) encoding fields; SCAIE-V provides only the RdRS1/RdRS2 \
                         read ports (Table 1)",
                    ),
                }
            }
            Some(BuiltinReg::Pc) => {
                if let Some(&v) = self.reg_fwd.get(&(reg.0, None)) {
                    return Ok(v);
                }
                Ok(self.push(OpKind::ReadPc, Vec::new(), 32))
            }
            Some(BuiltinReg::Mem) => {
                self.err("memory must be read as 4-byte ranges (MEM[a+3:a])")
            }
            None if r.is_const => {
                let idx = match index {
                    Some(e) => self.lower_expr(e)?,
                    None => self.intern_const(ApInt::zero(1)),
                };
                Ok(self.push(OpKind::RomRead(r.name.clone()), vec![idx], r.ty.width))
            }
            None => {
                let addr = match index {
                    Some(e) => {
                        let v = self.lower_expr(e)?;
                        self.resize(v, false, r.addr_width().max(1))
                    }
                    None => self.intern_const(ApInt::zero(r.addr_width().max(1))),
                };
                if let Some(&v) = self.reg_fwd.get(&(reg.0, Some(addr))) {
                    return Ok(v);
                }
                Ok(self.push(
                    OpKind::ReadCustReg(r.name.clone()),
                    vec![addr],
                    r.ty.width,
                ))
            }
        }
    }

    fn lower_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, ty: IntType) -> Result<ValueId> {
        let l = self.lower_expr(lhs)?;
        let r = self.lower_expr(rhs)?;
        let rw = ty.width;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => {
                let a = self.resize(l, lhs.ty.signed, rw);
                let b = self.resize(r, rhs.ty.signed, rw);
                let kind = match op {
                    BinOp::Add => OpKind::Add,
                    BinOp::Sub => OpKind::Sub,
                    BinOp::Mul => OpKind::Mul,
                    BinOp::And => OpKind::And,
                    BinOp::Or => OpKind::Or,
                    _ => OpKind::Xor,
                };
                Ok(self.push(kind, vec![a, b], rw))
            }
            BinOp::Div => {
                let a = self.resize(l, lhs.ty.signed, rw);
                let b = self.resize(r, rhs.ty.signed, rw);
                let kind = if ty.signed { OpKind::DivS } else { OpKind::DivU };
                Ok(self.push(kind, vec![a, b], rw))
            }
            BinOp::Rem => {
                let ct = lhs.ty.common(rhs.ty);
                let a = self.resize(l, lhs.ty.signed, ct.width);
                let b = self.resize(r, rhs.ty.signed, ct.width);
                let kind = if ct.signed { OpKind::RemS } else { OpKind::RemU };
                let full = self.push(kind, vec![a, b], ct.width);
                Ok(self.resize(full, ct.signed, rw))
            }
            BinOp::Shl => Ok(self.push(OpKind::Shl, vec![l, r], rw)),
            BinOp::Shr => {
                let kind = if lhs.ty.signed {
                    OpKind::ShrS
                } else {
                    OpKind::ShrU
                };
                Ok(self.push(kind, vec![l, r], rw))
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let ct = lhs.ty.common(rhs.ty);
                let a = self.resize(l, lhs.ty.signed, ct.width);
                let b = self.resize(r, rhs.ty.signed, ct.width);
                let (kind, operands) = match (op, ct.signed) {
                    (BinOp::Eq, _) => (OpKind::Eq, vec![a, b]),
                    (BinOp::Ne, _) => (OpKind::Ne, vec![a, b]),
                    (BinOp::Lt, false) => (OpKind::Ult, vec![a, b]),
                    (BinOp::Lt, true) => (OpKind::Slt, vec![a, b]),
                    (BinOp::Le, false) => (OpKind::Ule, vec![a, b]),
                    (BinOp::Le, true) => (OpKind::Sle, vec![a, b]),
                    (BinOp::Gt, false) => (OpKind::Ult, vec![b, a]),
                    (BinOp::Gt, true) => (OpKind::Slt, vec![b, a]),
                    (BinOp::Ge, false) => (OpKind::Ule, vec![b, a]),
                    (BinOp::Ge, true) => (OpKind::Sle, vec![b, a]),
                    _ => unreachable!(),
                };
                Ok(self.push(kind, operands, 1))
            }
            BinOp::LogAnd | BinOp::LogOr => {
                let a = self.boolify(l);
                let b = self.boolify(r);
                let kind = if op == BinOp::LogAnd {
                    OpKind::And
                } else {
                    OpKind::Or
                };
                Ok(self.push(kind, vec![a, b], 1))
            }
            BinOp::Concat => Ok(self.push(OpKind::Concat, vec![l, r], rw)),
        }
    }

    fn inline_call(&mut self, callee: &str, args: &[Expr]) -> Result<ValueId> {
        if self.call_stack.iter().any(|n| n == callee) {
            return self.err(format!("recursive call to function `{callee}`"));
        }
        let module = self.module;
        let func = module.function(callee).ok_or_else(|| LowerError {
            unit: self.unit.clone(),
            message: format!("unknown function `{callee}`"),
        })?;
        let mut arg_values = Vec::new();
        for a in args {
            arg_values.push(self.lower_expr(a)?);
        }
        self.call_stack.push(callee.to_string());
        self.push_frame(&func.locals);
        for (param, value) in func.params.iter().zip(arg_values) {
            self.frame().locals.insert(param.0, value);
        }
        let result = self.lower_block(&func.body);
        let frame = self.frames.pop().expect("function frame");
        self.call_stack.pop();
        result?;
        match frame.ret {
            Some(v) => Ok(v),
            None => self.err(format!(
                "function `{callee}` did not return a value (return must be the last statement)"
            )),
        }
    }

    // ---- finalization ---------------------------------------------------------

    fn finish(mut self) -> Result<Graph> {
        self.merge_pending_writes()?;
        self.raw_push(OpKind::Sink, Vec::new(), 0, None);
        let graph = Graph {
            name: self.unit.clone(),
            kind: self.kind.clone(),
            ops: self.ops,
        };
        let graph = dce(graph);
        graph.validate().map_err(|e| LowerError {
            unit: e.graph,
            message: e.message,
        })?;
        Ok(graph)
    }

    fn merge_pending_writes(&mut self) -> Result<()> {
        let pending = std::mem::take(&mut self.pending);
        // Group by target, preserving program order within each group.
        let mut order: Vec<WriteTarget> = Vec::new();
        let mut groups: HashMap<WriteTarget, Vec<PendingWrite>> = HashMap::new();
        for w in pending {
            if !groups.contains_key(&w.target) {
                order.push(w.target.clone());
            }
            groups.entry(w.target.clone()).or_default().push(w);
        }
        for target in order {
            let writes = groups.remove(&target).expect("group exists");
            let addressed = matches!(target, WriteTarget::Mem) || {
                match &target {
                    WriteTarget::Cust(name) => {
                        // Multi-element custom registers cannot merge writes
                        // to different dynamic indices.
                        self.module
                            .registers
                            .iter()
                            .find(|r| r.name == *name)
                            .map(|r| r.elems > 1)
                            .unwrap_or(false)
                    }
                    _ => false,
                }
            };
            let (value, addr, pred, in_spawn) = if addressed && writes.len() > 1 {
                return self.err(format!(
                    "{} is written more than once; SCAIE-V allows one use of each sub-interface \
                     per instruction",
                    describe_target(&target)
                ));
            } else if writes.len() == 1 {
                let w = &writes[0];
                (w.value, w.addr, w.pred, w.in_spawn)
            } else {
                // Last-write-wins merge for scalar targets.
                let mut acc_value = writes[0].value;
                let mut acc_pred = writes[0].pred;
                let mut in_spawn = writes[0].in_spawn;
                let addr = writes[0].addr;
                for w in &writes[1..] {
                    in_spawn |= w.in_spawn;
                    match w.pred {
                        None => {
                            acc_value = w.value;
                            acc_pred = None;
                        }
                        Some(p) => {
                            let width = self.width_of(acc_value);
                            acc_value =
                                self.push(OpKind::Mux, vec![p, w.value, acc_value], width);
                            acc_pred = acc_pred.map(|p0| self.push(OpKind::Or, vec![p, p0], 1));
                        }
                    }
                }
                (acc_value, addr, acc_pred, in_spawn)
            };
            // always-mode writes carry a mandatory valid bit (paper §3.2):
            // normalize unconditional writes to an explicit true predicate.
            let pred = if self.kind == GraphKind::Always && pred.is_none() {
                Some(self.intern_const(ApInt::one(1)))
            } else {
                pred
            };
            let (kind, operands) = match &target {
                WriteTarget::Rd => (OpKind::WriteRd, vec![value]),
                WriteTarget::Pc => (OpKind::WritePc, vec![value]),
                WriteTarget::Mem => (
                    OpKind::WriteMem,
                    vec![addr.expect("memory writes carry an address"), value],
                ),
                WriteTarget::Cust(name) => (
                    OpKind::WriteCustReg(name.clone()),
                    vec![addr.expect("custom-register writes carry an address"), value],
                ),
            };
            let saved = self.in_spawn;
            self.in_spawn = in_spawn;
            self.raw_push(kind, operands, 0, pred);
            self.in_spawn = saved;
        }
        Ok(())
    }
}

fn describe_target(t: &WriteTarget) -> String {
    match t {
        WriteTarget::Rd => "the WrRD sub-interface".into(),
        WriteTarget::Pc => "the WrPC sub-interface".into(),
        WriteTarget::Mem => "the WrMem sub-interface".into(),
        WriteTarget::Cust(name) => format!("custom register `{name}`"),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GprPort {
    Rs1,
    Rs2,
    Rd,
}

/// Dead-code elimination: keeps only operations transitively reachable from
/// side-effecting operations, then compacts and remaps value ids.
pub fn dce(graph: Graph) -> Graph {
    let n = graph.ops.len();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for (i, op) in graph.ops.iter().enumerate() {
        if op.kind.has_side_effect() {
            live[i] = true;
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        let op = &graph.ops[i];
        for &v in op.operands.iter().chain(op.pred.iter()) {
            if !live[v.0] {
                live[v.0] = true;
                stack.push(v.0);
            }
        }
    }
    let mut remap = vec![usize::MAX; n];
    let mut ops = Vec::new();
    for (i, op) in graph.ops.into_iter().enumerate() {
        if !live[i] {
            continue;
        }
        remap[i] = ops.len();
        let mut op = op;
        for v in op.operands.iter_mut() {
            *v = ValueId(remap[v.0]);
        }
        if let Some(p) = op.pred.as_mut() {
            *p = ValueId(remap[p.0]);
        }
        ops.push(op);
    }
    Graph {
        name: graph.name,
        kind: graph.kind,
        ops,
    }
}
