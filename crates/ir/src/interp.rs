//! Golden-model interpreter for typed CoreDSL behavior.
//!
//! Executes instruction/`always` behavior with *sequential* semantics
//! against an [`ArchState`], exactly as an instruction-set simulator would.
//! This is the reference model that the LIL evaluator ([`crate::eval`]) and
//! the RTL netlist interpreter are differentially tested against, and the
//! hook through which the `riscv` ISS executes custom instructions.

use bits::ApInt;
use coredsl::ast::UnOp;
use coredsl::sema_support::{eval_binary_op, resize_value};
use coredsl::tast::{
    AlwaysBlock, Block, Encoding, Expr, ExprKind, Instruction, LValue, Local, Stmt, TypedModule,
};
use std::collections::HashMap;
use std::fmt;

/// Iteration bound for interpreted loops.
pub const MAX_LOOP_ITERATIONS: u64 = 1 << 20;

/// Architectural state as seen by interpreted behavior.
///
/// Registers are addressed by name and element index; scalar registers use
/// index 0. Implementations must return values of the register's declared
/// width.
pub trait ArchState {
    /// Reads element `index` of register `reg`.
    fn read(&mut self, reg: &str, index: u64) -> ApInt;
    /// Writes element `index` of register `reg`.
    fn write(&mut self, reg: &str, index: u64, value: ApInt);
}

/// Interpreter error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    pub message: String,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for InterpError {}

type Result<T> = std::result::Result<T, InterpError>;

fn err<T>(message: impl Into<String>) -> Result<T> {
    Err(InterpError {
        message: message.into(),
    })
}

/// Decodes the operand-field values of `word` for `encoding`.
///
/// Returns `None` if the word does not match the encoding's fixed bits.
pub fn decode_fields(encoding: &Encoding, word: u32) -> Option<HashMap<String, ApInt>> {
    if word & encoding.mask() != encoding.match_value() {
        return None;
    }
    let mut fields = HashMap::new();
    let word_ap = ApInt::from_u64(word as u64, 32);
    for field in &encoding.fields {
        let mut value = ApInt::zero(field.width);
        for (instr_lo, field_lo, len) in encoding.field_segments(&field.name) {
            let seg = word_ap.extract(instr_lo, len);
            value = value.or(&seg.zext(field.width).shl_bits(field_lo));
        }
        fields.insert(field.name.clone(), value);
    }
    Some(fields)
}

/// A behavior interpreter bound to one module.
#[derive(Debug, Clone, Copy)]
pub struct Interp<'a> {
    module: &'a TypedModule,
}

enum Flow {
    Normal,
    Returned(Option<ApInt>),
}

impl<'a> Interp<'a> {
    /// Creates an interpreter for `module`.
    pub fn new(module: &'a TypedModule) -> Self {
        Interp { module }
    }

    /// Executes instruction `name` on `word` against `state`.
    ///
    /// # Errors
    ///
    /// Returns an error if the instruction is unknown, the word does not
    /// match its encoding, or the behavior is erroneous (e.g. an unbounded
    /// loop or a read of an uninitialized local).
    pub fn exec_instruction(
        &self,
        name: &str,
        word: u32,
        state: &mut dyn ArchState,
    ) -> Result<()> {
        let instr = self
            .module
            .instructions
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| InterpError {
                message: format!("unknown instruction `{name}`"),
            })?;
        self.exec_instruction_def(instr, word, state)
    }

    /// Executes a resolved instruction definition on `word`.
    ///
    /// # Errors
    ///
    /// See [`Interp::exec_instruction`].
    pub fn exec_instruction_def(
        &self,
        instr: &Instruction,
        word: u32,
        state: &mut dyn ArchState,
    ) -> Result<()> {
        let fields = decode_fields(&instr.encoding, word).ok_or_else(|| InterpError {
            message: format!(
                "word {word:#010x} does not match the encoding of `{}`",
                instr.name
            ),
        })?;
        let mut frame = FrameState {
            interp: *self,
            fields,
            locals: HashMap::new(),
            table: &instr.locals,
            state,
        };
        match frame.exec_block(&instr.behavior)? {
            Flow::Normal => Ok(()),
            Flow::Returned(_) => err("return outside of a function"),
        }
    }

    /// Executes one evaluation of a resolved `always`-block.
    ///
    /// # Errors
    ///
    /// Returns an error if the behavior errs.
    pub fn exec_always_def(&self, always: &AlwaysBlock, state: &mut dyn ArchState) -> Result<()> {
        let mut frame = FrameState {
            interp: *self,
            fields: HashMap::new(),
            locals: HashMap::new(),
            table: &always.locals,
            state,
        };
        match frame.exec_block(&always.behavior)? {
            Flow::Normal => Ok(()),
            Flow::Returned(_) => err("return outside of a function"),
        }
    }
}

struct FrameState<'a, 'b> {
    interp: Interp<'a>,
    fields: HashMap<String, ApInt>,
    locals: HashMap<usize, ApInt>,
    table: &'a [Local],
    state: &'b mut dyn ArchState,
}

impl<'a, 'b> FrameState<'a, 'b> {
    fn exec_block(&mut self, block: &Block) -> Result<Flow> {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow> {
        match stmt {
            Stmt::Decl { local, init } => {
                let ty = self.table[local.0].ty;
                let value = match init {
                    Some(e) => self.eval(e)?,
                    None => ApInt::zero(ty.width),
                };
                self.locals.insert(local.0, value);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(value)?;
                self.assign(target, v)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let c = self.eval(cond)?;
                if c.is_zero() {
                    self.exec_block(else_block)
                } else {
                    self.exec_block(then_block)
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                for s in init {
                    if let Flow::Returned(v) = self.exec_stmt(s)? {
                        return Ok(Flow::Returned(v));
                    }
                }
                let mut iterations = 0u64;
                loop {
                    if self.eval(cond)?.is_zero() {
                        break;
                    }
                    iterations += 1;
                    if iterations > MAX_LOOP_ITERATIONS {
                        return err("loop iteration bound exceeded");
                    }
                    if let Flow::Returned(v) = self.exec_block(body)? {
                        return Ok(Flow::Returned(v));
                    }
                    for s in step {
                        if let Flow::Returned(v) = self.exec_stmt(s)? {
                            return Ok(Flow::Returned(v));
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            // The golden model executes spawn bodies inline: decoupling
            // changes timing, not architectural results.
            Stmt::Spawn { body } => self.exec_block(body),
            Stmt::Call { callee, args } => {
                self.call(callee, args)?;
                Ok(Flow::Normal)
            }
            Stmt::Return { value } => {
                let v = match value {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Returned(v))
            }
        }
    }

    fn assign(&mut self, target: &LValue, value: ApInt) -> Result<()> {
        match target {
            LValue::Local(id) => {
                self.locals.insert(id.0, value);
                Ok(())
            }
            LValue::LocalRange {
                local,
                offset,
                width,
            } => {
                let ty = self.table[local.0].ty;
                let old = self
                    .locals
                    .get(&local.0)
                    .cloned()
                    .unwrap_or_else(|| ApInt::zero(ty.width));
                let off = self.eval(offset)?;
                let mask = ApInt::ones(*width).zext_or_trunc(ty.width).shl(&off);
                let cleared = old.and(&mask.not());
                let inserted = value.zext_or_trunc(ty.width).shl(&off);
                self.locals.insert(local.0, cleared.or(&inserted));
                Ok(())
            }
            LValue::Reg { reg, index } => {
                let r = &self.interp.module.registers[reg.0];
                if r.is_const {
                    return err(format!("cannot assign to const register `{}`", r.name));
                }
                let idx = match index {
                    Some(e) => self.eval(e)?.to_u64(),
                    None => 0,
                };
                let name = r.name.clone();
                self.state.write(&name, idx, value);
                Ok(())
            }
            LValue::RegRange { reg, lo, elems } => {
                let r = &self.interp.module.registers[reg.0];
                let elemw = r.ty.width;
                let base = self.eval(lo)?.to_u64();
                let name = r.name.clone();
                for k in 0..*elems {
                    let elem = value.extract(k as u32 * elemw, elemw);
                    self.state.write(&name, base.wrapping_add(k), elem);
                }
                Ok(())
            }
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<ApInt> {
        let v = match &e.kind {
            ExprKind::Const(c) => c.clone(),
            ExprKind::Local(id) => match self.locals.get(&id.0) {
                Some(v) => v.clone(),
                None => {
                    return err(format!(
                        "local `{}` read before initialization",
                        self.table[id.0].name
                    ))
                }
            },
            ExprKind::Field(name) => self
                .fields
                .get(name)
                .cloned()
                .ok_or_else(|| InterpError {
                    message: format!("unknown field `{name}`"),
                })?,
            ExprKind::ReadReg { reg, index } => {
                let r = &self.interp.module.registers[reg.0];
                let idx = match index {
                    Some(e) => self.eval(e)?.to_u64(),
                    None => 0,
                };
                if r.is_const {
                    let contents = r.init.as_ref().expect("const registers are initialized");
                    contents
                        .get(idx as usize)
                        .cloned()
                        .unwrap_or_else(|| ApInt::zero(r.ty.width))
                } else {
                    let name = r.name.clone();
                    self.state.read(&name, idx)
                }
            }
            ExprKind::ReadRegRange { reg, lo, elems } => {
                let r = &self.interp.module.registers[reg.0];
                let elemw = r.ty.width;
                let base = self.eval(lo)?.to_u64();
                let name = r.name.clone();
                let mut acc = ApInt::zero(*elems as u32 * elemw);
                for k in 0..*elems {
                    let elem = self.state.read(&name, base.wrapping_add(k));
                    acc = acc.or(&elem.zext(acc.width()).shl_bits(k as u32 * elemw));
                }
                acc
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = lhs.ty;
                let rt = rhs.ty;
                let lv = self.eval(lhs)?;
                let rv = self.eval(rhs)?;
                let (v, t) = eval_binary_op(*op, &lv, lt, &rv, rt).ok_or_else(|| InterpError {
                    message: format!("unsupported operator {op:?}"),
                })?;
                debug_assert_eq!(t, e.ty, "operator result type mismatch");
                v
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match op {
                    UnOp::Neg => resize_value(&v, operand.ty, e.ty).neg(),
                    UnOp::Not => v.not(),
                    UnOp::LogNot => ApInt::from_bool(v.is_zero()),
                    UnOp::Plus => v,
                }
            }
            ExprKind::Cast { operand } => {
                let v = self.eval(operand)?;
                resize_value(&v, operand.ty, e.ty)
            }
            ExprKind::Slice {
                base,
                offset,
                width,
            } => {
                let b = self.eval(base)?;
                let off = self.eval(offset)?;
                b.lshr(&off).zext_or_trunc(*width)
            }
            ExprKind::Concat { hi, lo } => {
                let h = self.eval(hi)?;
                let l = self.eval(lo)?;
                h.concat(&l)
            }
            ExprKind::Ternary {
                cond,
                then_val,
                else_val,
            } => {
                let c = self.eval(cond)?;
                if c.is_zero() {
                    let v = self.eval(else_val)?;
                    resize_value(&v, else_val.ty, e.ty)
                } else {
                    let v = self.eval(then_val)?;
                    resize_value(&v, then_val.ty, e.ty)
                }
            }
            ExprKind::Call { callee, args } => {
                return self.call(callee, args)?.ok_or_else(|| InterpError {
                    message: format!("void function `{callee}` used as a value"),
                })
            }
            ExprKind::Poison => {
                return err("poisoned expression survived semantic analysis (compiler bug)")
            }
        };
        debug_assert_eq!(
            v.width(),
            e.ty.width,
            "evaluated width mismatch for {:?}",
            e.kind
        );
        Ok(v)
    }

    fn call(&mut self, callee: &str, args: &[Expr]) -> Result<Option<ApInt>> {
        let func = self
            .interp
            .module
            .function(callee)
            .ok_or_else(|| InterpError {
                message: format!("unknown function `{callee}`"),
            })?;
        let mut arg_values = Vec::new();
        for a in args {
            arg_values.push(self.eval(a)?);
        }
        let mut frame = FrameState {
            interp: self.interp,
            fields: HashMap::new(),
            locals: HashMap::new(),
            table: &func.locals,
            state: self.state,
        };
        for (param, value) in func.params.iter().zip(arg_values) {
            frame.locals.insert(param.0, value);
        }
        match frame.exec_block(&func.body)? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => {
                if func.ret.is_some() {
                    err(format!("function `{callee}` did not return a value"))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// A map-backed [`ArchState`] for tests and the golden ISS: registers are
/// pre-sized from the module's declarations and initialized to their declared
/// values (or zero).
#[derive(Debug, Clone, Default)]
pub struct SimpleState {
    widths: HashMap<String, u32>,
    values: HashMap<(String, u64), ApInt>,
}

impl SimpleState {
    /// Creates a state holder sized from `module`'s register declarations.
    pub fn new(module: &TypedModule) -> Self {
        let mut state = SimpleState::default();
        for reg in &module.registers {
            state.widths.insert(reg.name.clone(), reg.ty.width);
            if let Some(init) = &reg.init {
                for (i, v) in init.iter().enumerate() {
                    state
                        .values
                        .insert((reg.name.clone(), i as u64), v.clone());
                }
            }
        }
        state
    }

    /// Directly sets a register element (test setup convenience).
    pub fn set(&mut self, reg: &str, index: u64, value: ApInt) {
        self.values.insert((reg.to_string(), index), value);
    }

    /// Directly reads a register element without going through the trait.
    pub fn get(&self, reg: &str, index: u64) -> ApInt {
        self.values
            .get(&(reg.to_string(), index))
            .cloned()
            .unwrap_or_else(|| ApInt::zero(self.widths.get(reg).copied().unwrap_or(32)))
    }
}

impl ArchState for SimpleState {
    fn read(&mut self, reg: &str, index: u64) -> ApInt {
        self.get(reg, index)
    }

    fn write(&mut self, reg: &str, index: u64, value: ApInt) {
        self.values.insert((reg.to_string(), index), value);
    }
}
