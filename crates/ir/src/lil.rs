//! The LIL ("Longnail Intermediate Language") data-flow IR (paper §4.1c).
//!
//! LIL serves two purposes: it represents each instruction / `always`-block
//! as a flat control-data-flow graph, and it makes the SCAIE-V
//! sub-interfaces explicit operations in the IR so they can be scheduled
//! alongside the rest of the behavior.
//!
//! Graphs are SSA: each operation produces at most one value, identified by
//! its [`ValueId`]; operations are stored in topological (creation) order.

use bits::ApInt;
use std::fmt;

/// Identifies the value produced by the operation at this index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub usize);

/// A lowered ISAX module: one graph per instruction / `always`-block plus
/// the ISAX-internal state requirements handed to SCAIE-V.
#[derive(Debug, Clone, Default)]
pub struct LilModule {
    /// ISAX name.
    pub name: String,
    /// One graph per instruction and per `always`-block.
    pub graphs: Vec<Graph>,
    /// Custom registers SCAIE-V must instantiate (paper §3.1).
    pub custom_regs: Vec<CustomReg>,
    /// Constant registers (ROMs), internalized into the ISAX module.
    pub roms: Vec<Rom>,
}

impl LilModule {
    /// Looks up a graph by name.
    pub fn graph(&self, name: &str) -> Option<&Graph> {
        self.graphs.iter().find(|g| g.name == name)
    }

    /// Looks up a ROM by name.
    pub fn rom(&self, name: &str) -> Option<&Rom> {
        self.roms.iter().find(|r| r.name == name)
    }

    /// Looks up a custom register by name.
    pub fn custom_reg(&self, name: &str) -> Option<&CustomReg> {
        self.custom_regs.iter().find(|r| r.name == name)
    }
}

/// A custom (ISAX-internal) register file to be instantiated by SCAIE-V.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CustomReg {
    pub name: String,
    /// Element data width (DW in Table 1).
    pub width: u32,
    /// Number of elements.
    pub elems: u64,
    /// Address width (AW in Table 1): `ceil(log2(elems))`, 0 for scalars.
    pub addr_width: u32,
}

/// A read-only lookup table internal to the ISAX module.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rom {
    pub name: String,
    /// Element width.
    pub width: u32,
    /// Contents; length gives the element count.
    pub contents: Vec<ApInt>,
}

/// What a graph implements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// An instruction with its 32-bit decode mask/match.
    Instruction {
        /// Fixed-bit mask (1 = bit is compared).
        mask: u32,
        /// Expected values of the fixed bits.
        match_value: u32,
    },
    /// A continuously running `always`-block (paper §2.5).
    Always,
}

/// One flat control-data-flow graph.
///
/// `Hash` covers every field, which is what lets a content digest of the
/// graph key the backend stages that compile it.
#[derive(Debug, Clone, Hash)]
pub struct Graph {
    /// Instruction or `always`-block name.
    pub name: String,
    pub kind: GraphKind,
    /// Operations in topological order; operand [`ValueId`]s always refer to
    /// earlier operations.
    pub ops: Vec<Op>,
}

/// An operation in a LIL graph.
#[derive(Debug, Clone, Hash)]
pub struct Op {
    pub kind: OpKind,
    /// Operand values (producers appear earlier in `ops`).
    pub operands: Vec<ValueId>,
    /// Result width in bits; 0 for operations without a result.
    pub width: u32,
    /// Execution predicate for state-changing interface operations
    /// (Table 1's `i1 pred`); `None` means unconditional.
    pub pred: Option<ValueId>,
    /// True for operations originating inside a `spawn`-block; preserved as
    /// provenance for decoupled-mode selection (paper §4.1c).
    pub in_spawn: bool,
}

/// LIL operation kinds: SCAIE-V sub-interfaces (`lil.*`) and combinational
/// operators (`comb.*`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    // --- SCAIE-V sub-interface operations (Table 1) ---
    /// Read the full 32-bit instruction word.
    InstrWord,
    /// Read the GPR selected by the `rs1` encoding field.
    ReadRs1,
    /// Read the GPR selected by the `rs2` encoding field.
    ReadRs2,
    /// Read the program counter.
    ReadPc,
    /// Load a 32-bit word; operand: address.
    ReadMem,
    /// Write the GPR selected by the `rd` encoding field; operand: value.
    WriteRd,
    /// Write the program counter; operand: new PC.
    WritePc,
    /// Store a 32-bit word; operands: address, value.
    WriteMem,
    /// Read a custom register; operand: index.
    ReadCustReg(String),
    /// Write a custom register; operands: index, value.
    WriteCustReg(String),
    // --- ISAX-internal operations ---
    /// Read an internalized constant table; operand: index.
    RomRead(String),
    /// Constant value.
    Const(ApInt),
    // --- combinational operators (CIRCT `comb` analog) ---
    Add,
    Sub,
    Mul,
    DivU,
    DivS,
    RemU,
    RemS,
    And,
    Or,
    Xor,
    /// Bitwise complement.
    Not,
    Shl,
    ShrU,
    ShrS,
    Eq,
    Ne,
    Ult,
    Ule,
    Slt,
    Sle,
    /// Operands: condition, then-value, else-value.
    Mux,
    /// Operands: high part, low part.
    Concat,
    /// Replicate the operand `n` times.
    Replicate(u32),
    /// Extract `width` bits starting at constant offset `lo`.
    ExtractConst {
        lo: u32,
    },
    /// Extract `width` bits starting at a dynamic offset; operands: base,
    /// offset.
    ExtractDyn,
    ZExt,
    SExt,
    Trunc,
    /// Graph terminator (the `lil.sink` of Figure 5c).
    Sink,
}

impl OpKind {
    /// True for SCAIE-V sub-interface operations.
    pub fn is_interface(&self) -> bool {
        matches!(
            self,
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
        )
    }

    /// True for interface operations that change architectural state.
    pub fn is_state_write(&self) -> bool {
        matches!(
            self,
            OpKind::WriteRd | OpKind::WritePc | OpKind::WriteMem | OpKind::WriteCustReg(_)
        )
    }

    /// True for operations that must be kept even if their result is unused.
    pub fn has_side_effect(&self) -> bool {
        self.is_state_write() || matches!(self, OpKind::Sink)
    }

    /// The `dialect.mnemonic` used by the printer.
    pub fn mnemonic(&self) -> String {
        match self {
            OpKind::InstrWord => "lil.instr_word".into(),
            OpKind::ReadRs1 => "lil.read_rs1".into(),
            OpKind::ReadRs2 => "lil.read_rs2".into(),
            OpKind::ReadPc => "lil.read_pc".into(),
            OpKind::ReadMem => "lil.read_mem".into(),
            OpKind::WriteRd => "lil.write_rd".into(),
            OpKind::WritePc => "lil.write_pc".into(),
            OpKind::WriteMem => "lil.write_mem".into(),
            OpKind::ReadCustReg(r) => format!("lil.read_reg @{r}"),
            OpKind::WriteCustReg(r) => format!("lil.write_reg @{r}"),
            OpKind::RomRead(r) => format!("lil.rom_read @{r}"),
            OpKind::Const(_) => "hw.constant".into(),
            OpKind::Add => "comb.add".into(),
            OpKind::Sub => "comb.sub".into(),
            OpKind::Mul => "comb.mul".into(),
            OpKind::DivU => "comb.divu".into(),
            OpKind::DivS => "comb.divs".into(),
            OpKind::RemU => "comb.modu".into(),
            OpKind::RemS => "comb.mods".into(),
            OpKind::And => "comb.and".into(),
            OpKind::Or => "comb.or".into(),
            OpKind::Xor => "comb.xor".into(),
            OpKind::Not => "comb.not".into(),
            OpKind::Shl => "comb.shl".into(),
            OpKind::ShrU => "comb.shru".into(),
            OpKind::ShrS => "comb.shrs".into(),
            OpKind::Eq => "comb.icmp eq".into(),
            OpKind::Ne => "comb.icmp ne".into(),
            OpKind::Ult => "comb.icmp ult".into(),
            OpKind::Ule => "comb.icmp ule".into(),
            OpKind::Slt => "comb.icmp slt".into(),
            OpKind::Sle => "comb.icmp sle".into(),
            OpKind::Mux => "comb.mux".into(),
            OpKind::Concat => "comb.concat".into(),
            OpKind::Replicate(_) => "comb.replicate".into(),
            OpKind::ExtractConst { .. } => "comb.extract".into(),
            OpKind::ExtractDyn => "comb.extract_dyn".into(),
            OpKind::ZExt => "comb.zext".into(),
            OpKind::SExt => "comb.sext".into(),
            OpKind::Trunc => "comb.trunc".into(),
            OpKind::Sink => "lil.sink".into(),
        }
    }
}

/// Problems detected by [`Graph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    pub graph: String,
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph `{}`: {}", self.graph, self.message)
    }
}

impl std::error::Error for ValidationError {}

impl Graph {
    /// Returns the op producing `v`.
    pub fn op(&self, v: ValueId) -> &Op {
        &self.ops[v.0]
    }

    /// Iterates over `(ValueId, &Op)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Op)> {
        self.ops.iter().enumerate().map(|(i, op)| (ValueId(i), op))
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of SCAIE-V sub-interface operations (the "ifc" column of the
    /// paper's Table 1).
    pub fn interface_op_count(&self) -> usize {
        self.ops.iter().filter(|o| o.kind.is_interface()).count()
    }

    /// Total dependence edges: data operands plus predicate uses.
    pub fn edge_count(&self) -> usize {
        self.ops
            .iter()
            .map(|o| o.operands.len() + usize::from(o.pred.is_some()))
            .sum()
    }

    /// Checks the LIL structural invariants:
    ///
    /// * operands reference earlier operations (topological order),
    /// * each SCAIE-V sub-interface is used at most once (paper §3.1),
    /// * `always`-graphs use no instruction-specific interfaces.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let err = |m: String| {
            Err(ValidationError {
                graph: self.name.clone(),
                message: m,
            })
        };
        let mut iface_counts: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            for &operand in op.operands.iter().chain(op.pred.iter()) {
                if operand.0 >= i {
                    return err(format!(
                        "operand %{} of op {} does not dominate its use",
                        operand.0, i
                    ));
                }
            }
            if op.kind.is_interface() {
                *iface_counts.entry(op.kind.mnemonic()).or_default() += 1;
            }
            if self.kind == GraphKind::Always
                && matches!(
                    op.kind,
                    OpKind::InstrWord | OpKind::ReadRs1 | OpKind::ReadRs2 | OpKind::WriteRd
                ) {
                    return err(format!(
                        "always-block uses instruction-specific interface {}",
                        op.kind.mnemonic()
                    ));
                }
        }
        for (iface, count) in iface_counts {
            if count > 1 {
                return err(format!(
                    "sub-interface {iface} used {count} times; SCAIE-V allows one use per instruction"
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Graph {
    /// Renders the graph in the MLIR-like concrete syntax of Figure 5c.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            GraphKind::Instruction { mask, match_value } => {
                let pattern: String = (0..32u32)
                    .rev()
                    .map(|i| {
                        if mask >> i & 1 == 1 {
                            if match_value >> i & 1 == 1 {
                                '1'
                            } else {
                                '0'
                            }
                        } else {
                            '-'
                        }
                    })
                    .collect();
                writeln!(f, "lil.graph \"{}\" mask \"{}\" {{", self.name, pattern)?;
            }
            GraphKind::Always => writeln!(f, "lil.always \"{}\" {{", self.name)?,
        }
        for (v, op) in self.iter() {
            write!(f, "  ")?;
            if op.width > 0 {
                write!(f, "%{} = ", v.0)?;
            }
            write!(f, "{}", op.kind.mnemonic())?;
            if let OpKind::Const(c) = &op.kind {
                write!(f, " {}", c.to_dec_string())?;
            }
            if let OpKind::Replicate(n) = &op.kind {
                write!(f, " x{n}")?;
            }
            for (i, operand) in op.operands.iter().enumerate() {
                if i == 0 {
                    write!(f, " ")?;
                } else {
                    write!(f, ", ")?;
                }
                write!(f, "%{}", operand.0)?;
            }
            if let OpKind::ExtractConst { lo } = &op.kind {
                write!(f, " from {lo}")?;
            }
            if let Some(p) = op.pred {
                write!(f, " if %{}", p.0)?;
            }
            if op.width > 0 {
                write!(f, " : i{}", op.width)?;
            }
            if op.in_spawn {
                write!(f, " {{spawn}}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "}}")
    }
}
