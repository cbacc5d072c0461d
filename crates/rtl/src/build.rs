//! Construction of a pipelined ISAX hardware module from a scheduled LIL
//! graph (paper §4.5).
//!
//! Each LIL graph becomes one hardware module whose interface operations
//! become input/output ports; the numerical suffix of a port name indicates
//! the pipeline stage in which the interface is active (Figure 5d).
//! Stallable pipeline registers are inserted wherever a value crosses a
//! stage boundary. Longnail infers no controller: the SCAIE-V-generated
//! logic tracks instruction progress and commits results at the right time.

use crate::netlist::{CombOp, Driver, Module, NetId, PortDir, RomData};
use bits::ApInt;
use ir::lil::{Graph, LilModule, OpKind, ValueId};

/// Semantic role of a generated port, so that SCAIE-V / core adapters can
/// wire the module without parsing names.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IfaceSignal {
    /// Input: the 32-bit instruction word.
    InstrWord,
    /// Input: rs1 operand value.
    Rs1Data,
    /// Input: rs2 operand value.
    Rs2Data,
    /// Input: current PC.
    PcData,
    /// Output: load address.
    MemRdAddr,
    /// Output: load predicate.
    MemRdPred,
    /// Input: load result.
    MemRdData,
    /// Output: store address.
    MemWrAddr,
    /// Output: store data.
    MemWrData,
    /// Output: store predicate.
    MemWrPred,
    /// Output: rd write-back data.
    RdData,
    /// Output: rd write-back predicate.
    RdPred,
    /// Output: new PC.
    PcWrData,
    /// Output: PC write predicate (valid bit).
    PcWrPred,
    /// Output: custom-register read index.
    CustRdAddr(String),
    /// Input: custom-register read data.
    CustRdData(String),
    /// Output: custom-register write index.
    CustWrAddr(String),
    /// Output: custom-register write data.
    CustWrData(String),
    /// Output: custom-register write predicate (valid bit).
    CustWrPred(String),
    /// Input: stall of the given stage (gates that stage's pipeline
    /// registers).
    StallIn,
}

impl IfaceSignal {
    /// Canonical port-name stem.
    pub fn stem(&self) -> String {
        match self {
            IfaceSignal::InstrWord => "instr_word".into(),
            IfaceSignal::Rs1Data => "rs1".into(),
            IfaceSignal::Rs2Data => "rs2".into(),
            IfaceSignal::PcData => "pc".into(),
            IfaceSignal::MemRdAddr => "rdmem_addr".into(),
            IfaceSignal::MemRdPred => "rdmem_valid".into(),
            IfaceSignal::MemRdData => "rdmem_data".into(),
            IfaceSignal::MemWrAddr => "wrmem_addr".into(),
            IfaceSignal::MemWrData => "wrmem_data".into(),
            IfaceSignal::MemWrPred => "wrmem_valid".into(),
            IfaceSignal::RdData => "wrrd_data".into(),
            IfaceSignal::RdPred => "wrrd_valid".into(),
            IfaceSignal::PcWrData => "wrpc_data".into(),
            IfaceSignal::PcWrPred => "wrpc_valid".into(),
            IfaceSignal::CustRdAddr(r) => format!("rd{}_addr", r.to_lowercase()),
            IfaceSignal::CustRdData(r) => format!("rd{}_data", r.to_lowercase()),
            IfaceSignal::CustWrAddr(r) => format!("wr{}_addr", r.to_lowercase()),
            IfaceSignal::CustWrData(r) => format!("wr{}_data", r.to_lowercase()),
            IfaceSignal::CustWrPred(r) => format!("wr{}_valid", r.to_lowercase()),
            IfaceSignal::StallIn => "stall_in".into(),
        }
    }
}

/// A generated port with its semantic binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortBinding {
    pub signal: IfaceSignal,
    /// Pipeline stage the signal is active in.
    pub stage: u32,
    /// Port name in the module (`<stem>_<stage>`).
    pub name: String,
    pub dir: PortDir,
    pub width: u32,
}

/// The result of building: the module plus its port bindings.
#[derive(Debug, Clone)]
pub struct BuiltModule {
    pub module: Module,
    pub bindings: Vec<PortBinding>,
    /// Highest stage any port is active in.
    pub max_stage: u32,
}

impl BuiltModule {
    /// Finds the unique binding for a signal regardless of stage.
    pub fn binding_any_stage(&self, signal: &IfaceSignal) -> Option<&PortBinding> {
        self.bindings.iter().find(|b| b.signal == *signal)
    }
}

/// Builds the hardware module for one scheduled graph.
///
/// `start_time[v]` is the scheduled cycle of LIL operation `v`;
/// `read_latency(kind)` gives the result latency of interface reads (from
/// the core's virtual datasheet).
///
/// # Panics
///
/// Panics if `start_time` does not cover the graph (callers always schedule
/// first).
pub fn build_graph_module(
    graph: &Graph,
    lil: &LilModule,
    start_time: &[u32],
    read_latency: &dyn Fn(&OpKind) -> u32,
) -> BuiltModule {
    assert_eq!(start_time.len(), graph.ops.len(), "schedule covers graph");
    let mut b = Builder {
        graph,
        start_time,
        read_latency,
        module: Module::new(&format!("{}_{}", lil.name, graph.name)),
        bindings: Vec::new(),
        defs: vec![None; graph.ops.len()],
        next_stage: Vec::new(),
        stall: Vec::new(),
        not_stall: Vec::new(),
        max_stage: 0,
    };
    b.module.add_port("clk", PortDir::Input, 1);
    b.module.add_port("rst", PortDir::Input, 1);
    for rom in &lil.roms {
        b.module.roms.push(RomData {
            name: rom.name.clone(),
            width: rom.width,
            contents: rom.contents.clone(),
        });
    }
    b.run();
    let max_stage = b.max_stage;
    let module = b.module;
    let bindings = b.bindings;
    debug_assert_eq!(crate::lint::lint_module(&module), Ok(()));
    BuiltModule {
        module,
        bindings,
        max_stage,
    }
}

struct Builder<'a> {
    graph: &'a Graph,
    start_time: &'a [u32],
    read_latency: &'a dyn Fn(&OpKind) -> u32,
    module: Module,
    bindings: Vec<PortBinding>,
    /// Per LIL value: the stage it first becomes available in and its net
    /// there. A constant's net is interned on first use and serves every
    /// stage.
    defs: Vec<Option<(u32, NetId)>>,
    /// Per net: the pipeline register carrying it one stage later. A
    /// value's registers form one unbroken chain from its defining net.
    next_stage: Vec<Option<NetId>>,
    /// stall_in net per stage.
    stall: Vec<Option<NetId>>,
    /// Cached inverted stall per stage (register clock enables).
    not_stall: Vec<Option<NetId>>,
    max_stage: u32,
}

/// The entry at `i`, growing `v` to hold it.
fn slot(v: &mut Vec<Option<NetId>>, i: usize) -> &mut Option<NetId> {
    if v.len() <= i {
        v.resize(i + 1, None);
    }
    &mut v[i]
}

impl<'a> Builder<'a> {
    fn input_port(&mut self, signal: IfaceSignal, stage: u32, width: u32) -> NetId {
        let name = format!("{}_{stage}", signal.stem());
        let port = self.module.add_port(&name, PortDir::Input, width);
        let net = self.module.add_net(Driver::Input { port }, width, &name);
        self.bindings.push(PortBinding {
            signal,
            stage,
            name,
            dir: PortDir::Input,
            width,
        });
        self.max_stage = self.max_stage.max(stage);
        net
    }

    fn output_port(&mut self, signal: IfaceSignal, stage: u32, net: NetId) {
        let width = self.module.nets[net.0].width;
        let name = format!("{}_{stage}", signal.stem());
        let port = self.module.add_port(&name, PortDir::Output, width);
        self.module.connect_output(port, net);
        self.bindings.push(PortBinding {
            signal,
            stage,
            name,
            dir: PortDir::Output,
            width,
        });
        self.max_stage = self.max_stage.max(stage);
    }

    fn stall_net(&mut self, stage: u32) -> NetId {
        if let Some(n) = *slot(&mut self.stall, stage as usize) {
            return n;
        }
        let n = self.input_port(IfaceSignal::StallIn, stage, 1);
        *slot(&mut self.stall, stage as usize) = Some(n);
        n
    }

    fn not_stall_net(&mut self, stage: u32) -> NetId {
        if let Some(n) = *slot(&mut self.not_stall, stage as usize) {
            return n;
        }
        let stall = self.stall_net(stage);
        let n = self.module.add_net(
            Driver::Comb {
                op: CombOp::Not,
                args: vec![stall],
                lo: 0,
            },
            1,
            "",
        );
        *slot(&mut self.not_stall, stage as usize) = Some(n);
        n
    }

    /// Returns the net carrying LIL value `v` in `stage`, inserting
    /// stallable pipeline registers as needed.
    fn value_in_stage(&mut self, v: ValueId, stage: u32) -> NetId {
        let graph = self.graph;
        if let OpKind::Const(c) = &graph.ops[v.0].kind {
            if let Some((_, n)) = self.defs[v.0] {
                return n;
            }
            let name = format!("c{}", v.0);
            let n = self
                .module
                .add_net(Driver::Const(c.clone()), c.width(), &name);
            self.defs[v.0] = Some((0, n));
            return n;
        }
        let (base, mut net) = self.defs[v.0].expect("value availability known");
        assert!(
            stage >= base,
            "value %{} needed in stage {stage} before it exists (stage {base})",
            v.0
        );
        // Follow the value's register chain, extending it where it ends.
        for s in base..stage {
            net = match self.next_stage.get(net.0).copied().flatten() {
                Some(reg) => reg,
                None => {
                    let width = self.module.nets[net.0].width;
                    let not_stall = self.not_stall_net(s);
                    let reg = self.module.add_net(
                        Driver::Reg {
                            next: net,
                            enable: Some(not_stall),
                            init: ApInt::zero(width),
                        },
                        width,
                        &format!("pipe_{}_{}", v.0, s),
                    );
                    *slot(&mut self.next_stage, net.0) = Some(reg);
                    reg
                }
            };
        }
        net
    }

    fn define(&mut self, v: ValueId, stage: u32, net: NetId) {
        self.defs[v.0] = Some((stage, net));
        self.max_stage = self.max_stage.max(stage);
    }

    fn run(&mut self) {
        for (v, op) in self.graph.iter() {
            let stage = self.start_time[v.0];
            let pred_net = op.pred.map(|p| self.value_in_stage(p, stage));
            let operand_nets: Vec<NetId> = op
                .operands
                .iter()
                .map(|&o| self.value_in_stage(o, stage))
                .collect();
            match &op.kind {
                OpKind::Const(_) => { /* interned on demand */ }
                OpKind::InstrWord => {
                    let n = self.input_port(IfaceSignal::InstrWord, stage, 32);
                    self.define(v, stage, n);
                }
                OpKind::ReadRs1 | OpKind::ReadRs2 | OpKind::ReadPc => {
                    let sig = match op.kind {
                        OpKind::ReadRs1 => IfaceSignal::Rs1Data,
                        OpKind::ReadRs2 => IfaceSignal::Rs2Data,
                        _ => IfaceSignal::PcData,
                    };
                    let lat = (self.read_latency)(&op.kind);
                    let n = self.input_port(sig, stage + lat, 32);
                    self.define(v, stage + lat, n);
                }
                OpKind::ReadMem => {
                    self.output_port(IfaceSignal::MemRdAddr, stage, operand_nets[0]);
                    let pred = pred_net.unwrap_or_else(|| {
                        self.module.add_net(Driver::Const(ApInt::one(1)), 1, "true")
                    });
                    self.output_port(IfaceSignal::MemRdPred, stage, pred);
                    let lat = (self.read_latency)(&op.kind);
                    let n = self.input_port(IfaceSignal::MemRdData, stage + lat, 32);
                    self.define(v, stage + lat, n);
                }
                OpKind::ReadCustReg(name) => {
                    self.output_port(
                        IfaceSignal::CustRdAddr(name.clone()),
                        stage,
                        operand_nets[0],
                    );
                    let lat = (self.read_latency)(&op.kind);
                    let n = self.input_port(
                        IfaceSignal::CustRdData(name.clone()),
                        stage + lat,
                        op.width,
                    );
                    self.define(v, stage + lat, n);
                }
                OpKind::WriteRd => {
                    self.emit_write(
                        IfaceSignal::RdData,
                        IfaceSignal::RdPred,
                        stage,
                        operand_nets[0],
                        pred_net,
                    );
                }
                OpKind::WritePc => {
                    self.emit_write(
                        IfaceSignal::PcWrData,
                        IfaceSignal::PcWrPred,
                        stage,
                        operand_nets[0],
                        pred_net,
                    );
                }
                OpKind::WriteMem => {
                    self.output_port(IfaceSignal::MemWrAddr, stage, operand_nets[0]);
                    self.emit_write(
                        IfaceSignal::MemWrData,
                        IfaceSignal::MemWrPred,
                        stage,
                        operand_nets[1],
                        pred_net,
                    );
                }
                OpKind::WriteCustReg(name) => {
                    self.output_port(
                        IfaceSignal::CustWrAddr(name.clone()),
                        stage,
                        operand_nets[0],
                    );
                    self.emit_write(
                        IfaceSignal::CustWrData(name.clone()),
                        IfaceSignal::CustWrPred(name.clone()),
                        stage,
                        operand_nets[1],
                        pred_net,
                    );
                }
                OpKind::RomRead(name) => {
                    let rom = self
                        .module
                        .roms
                        .iter()
                        .position(|r| r.name == *name)
                        .expect("ROM read of a declared ROM");
                    let n = self.module.add_net(
                        Driver::Rom {
                            rom,
                            index: operand_nets[0],
                        },
                        op.width,
                        &format!("rom_{name}"),
                    );
                    self.define(v, stage, n);
                }
                OpKind::Sink => {}
                comb => {
                    let (comb_op, lo) = comb_op_of(comb);
                    let n = self.module.add_net(
                        Driver::Comb {
                            op: comb_op,
                            args: operand_nets,
                            lo,
                        },
                        op.width,
                        "",
                    );
                    self.define(v, stage, n);
                }
            }
        }
    }

    fn emit_write(
        &mut self,
        data_sig: IfaceSignal,
        pred_sig: IfaceSignal,
        stage: u32,
        data: NetId,
        pred: Option<NetId>,
    ) {
        self.output_port(data_sig, stage, data);
        let pred =
            pred.unwrap_or_else(|| self.module.add_net(Driver::Const(ApInt::one(1)), 1, "true"));
        self.output_port(pred_sig, stage, pred);
    }
}

fn comb_op_of(kind: &OpKind) -> (CombOp, u32) {
    match kind {
        OpKind::Add => (CombOp::Add, 0),
        OpKind::Sub => (CombOp::Sub, 0),
        OpKind::Mul => (CombOp::Mul, 0),
        OpKind::DivU => (CombOp::DivU, 0),
        OpKind::DivS => (CombOp::DivS, 0),
        OpKind::RemU => (CombOp::RemU, 0),
        OpKind::RemS => (CombOp::RemS, 0),
        OpKind::And => (CombOp::And, 0),
        OpKind::Or => (CombOp::Or, 0),
        OpKind::Xor => (CombOp::Xor, 0),
        OpKind::Not => (CombOp::Not, 0),
        OpKind::Shl => (CombOp::Shl, 0),
        OpKind::ShrU => (CombOp::ShrU, 0),
        OpKind::ShrS => (CombOp::ShrS, 0),
        OpKind::Eq => (CombOp::Eq, 0),
        OpKind::Ne => (CombOp::Ne, 0),
        OpKind::Ult => (CombOp::Ult, 0),
        OpKind::Ule => (CombOp::Ule, 0),
        OpKind::Slt => (CombOp::Slt, 0),
        OpKind::Sle => (CombOp::Sle, 0),
        OpKind::Mux => (CombOp::Mux, 0),
        OpKind::Concat => (CombOp::Concat, 0),
        OpKind::Replicate(n) => (CombOp::Replicate, *n),
        OpKind::ExtractConst { lo } => (CombOp::Extract, *lo),
        OpKind::ExtractDyn => (CombOp::ExtractDyn, 0),
        OpKind::ZExt => (CombOp::ZExt, 0),
        OpKind::SExt => (CombOp::SExt, 0),
        OpKind::Trunc => (CombOp::Trunc, 0),
        other => unreachable!("not a combinational op: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::lil::{GraphKind, Op};
    use std::fmt::Write as _;

    fn op(kind: OpKind, operands: &[usize], width: u32) -> Op {
        Op {
            kind,
            operands: operands.iter().map(|&v| ValueId(v)).collect(),
            width,
            pred: None,
            in_spawn: false,
        }
    }

    /// One line per port, net and output connection, in creation order.
    fn dump(m: &Module) -> String {
        let mut s = String::new();
        for (i, p) in m.ports.iter().enumerate() {
            writeln!(s, "port {i} {} {:?} {}", p.name, p.dir, p.width).unwrap();
        }
        for (i, net) in m.nets.iter().enumerate() {
            let driver = match &net.driver {
                Driver::Input { port } => format!("input {port}"),
                Driver::Const(c) => format!("const {c:?}"),
                Driver::Comb { op, args, lo } => {
                    let args: Vec<usize> = args.iter().map(|a| a.0).collect();
                    format!("{op:?} {args:?} lo {lo}")
                }
                Driver::Reg { next, enable, init } => {
                    format!(
                        "reg next {} enable {:?} init {init:?}",
                        next.0,
                        enable.map(|e| e.0)
                    )
                }
                Driver::Rom { rom, index } => format!("rom {rom} index {}", index.0),
            };
            writeln!(s, "net {i} `{}` w{} {driver}", net.name, net.width).unwrap();
        }
        for (port, net) in &m.outputs {
            writeln!(s, "out {port} <- {}", net.0).unwrap();
        }
        s
    }

    /// Two values consumed out of stage order: `%3` first in stage 5 and
    /// then in stage 3, `%4` in stage 3 and then stage 4. Their pipeline
    /// registers, the stall ports and the inverted stalls that enable them
    /// are created interleaved, in first-use order; a shared constant is
    /// interned once.
    #[test]
    fn out_of_order_consumers_pin_registers_enables_and_names() {
        let c5 = OpKind::Const(ApInt::from_u64(5, 32));
        let graph = Graph {
            name: "g".into(),
            kind: GraphKind::Instruction {
                mask: 0,
                match_value: 0,
            },
            ops: vec![
                op(OpKind::ReadRs1, &[], 32),     // %0 @1
                op(OpKind::ReadRs2, &[], 32),     // %1 @0
                op(c5, &[], 32),                  // %2
                op(OpKind::Add, &[0, 2], 32),     // %3 @2
                op(OpKind::Xor, &[1, 2], 32),     // %4 @1
                op(OpKind::Not, &[3], 32),        // %5 @5
                op(OpKind::Sub, &[3, 4], 32),     // %6 @3
                op(OpKind::Or, &[4, 2], 32),      // %7 @4
                op(OpKind::WriteRd, &[5], 0),     // %8 @5
                op(OpKind::WriteMem, &[6, 7], 0), // %9 @4
                op(OpKind::Sink, &[], 0),         // %10 @5
            ],
        };
        let lil = LilModule {
            name: "x".into(),
            graphs: vec![graph.clone()],
            ..LilModule::default()
        };
        let start = [1, 0, 0, 2, 1, 5, 3, 4, 5, 4, 5];
        let built = build_graph_module(&graph, &lil, &start, &|_| 0);
        crate::lint::lint_module(&built.module).unwrap();
        assert_eq!(built.max_stage, 5);
        assert_eq!(built.module.name, "x_g");
        let expected = [
            "port 0 clk Input 1",
            "port 1 rst Input 1",
            "port 2 rs1_1 Input 32",
            "port 3 rs2_0 Input 32",
            "port 4 stall_in_1 Input 1",
            "port 5 stall_in_0 Input 1",
            "port 6 stall_in_2 Input 1",
            "port 7 stall_in_3 Input 1",
            "port 8 stall_in_4 Input 1",
            "port 9 wrrd_data_5 Output 32",
            "port 10 wrrd_valid_5 Output 1",
            "port 11 wrmem_addr_4 Output 32",
            "port 12 wrmem_data_4 Output 32",
            "port 13 wrmem_valid_4 Output 1",
            "net 0 `rs1_1` w32 input 2",
            "net 1 `rs2_0` w32 input 3",
            "net 2 `stall_in_1` w1 input 4",
            "net 3 `` w1 Not [2] lo 0",
            "net 4 `pipe_0_1` w32 reg next 0 enable Some(3) init 32'h0",
            "net 5 `c2` w32 const 32'h5",
            "net 6 `` w32 Add [4, 5] lo 0",
            "net 7 `stall_in_0` w1 input 5",
            "net 8 `` w1 Not [7] lo 0",
            "net 9 `pipe_1_0` w32 reg next 1 enable Some(8) init 32'h0",
            "net 10 `` w32 Xor [9, 5] lo 0",
            "net 11 `stall_in_2` w1 input 6",
            "net 12 `` w1 Not [11] lo 0",
            "net 13 `pipe_3_2` w32 reg next 6 enable Some(12) init 32'h0",
            "net 14 `stall_in_3` w1 input 7",
            "net 15 `` w1 Not [14] lo 0",
            "net 16 `pipe_3_3` w32 reg next 13 enable Some(15) init 32'h0",
            "net 17 `stall_in_4` w1 input 8",
            "net 18 `` w1 Not [17] lo 0",
            "net 19 `pipe_3_4` w32 reg next 16 enable Some(18) init 32'h0",
            "net 20 `` w32 Not [19] lo 0",
            "net 21 `pipe_4_1` w32 reg next 10 enable Some(3) init 32'h0",
            "net 22 `pipe_4_2` w32 reg next 21 enable Some(12) init 32'h0",
            "net 23 `` w32 Sub [13, 22] lo 0",
            "net 24 `pipe_4_3` w32 reg next 22 enable Some(15) init 32'h0",
            "net 25 `` w32 Or [24, 5] lo 0",
            "net 26 `true` w1 const 1'h1",
            "net 27 `pipe_6_3` w32 reg next 23 enable Some(15) init 32'h0",
            "net 28 `true` w1 const 1'h1",
            "out 9 <- 20",
            "out 10 <- 26",
            "out 11 <- 27",
            "out 12 <- 25",
            "out 13 <- 28",
        ];
        assert_eq!(dump(&built.module).lines().collect::<Vec<_>>(), expected);
    }
}
