//! End-to-end: CoreDSL → LIL → schedule → netlist → cycle simulation,
//! checked against the golden interpreter.

use bits::ApInt;
use coredsl::Frontend;
use ir::lil::OpKind;
use ir::lower_module;
use rtl::build::{build_graph_module, IfaceSignal};
use rtl::netlist::PortDir;
use rtl::Simulator;
use sched::problem::{LongnailProblem, OperatorType};
use sched::schedule_ilp;
use std::collections::HashMap;

const DOTP: &str = r#"
import "RV32I.core_desc";
InstructionSet X_DOTP extends RV32I {
  instructions {
    dotp {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        signed<32> res = 0;
        for (int i = 0; i < 32; i += 8) {
          signed<16> prod = (signed) X[rs1][i+7:i] * (signed) X[rs2][i+7:i];
          res += prod;
        }
        X[rd] = (unsigned) res;
      }
    }
  }
}
"#;

/// Schedules a LIL graph against a VexRiscv-like 5-stage window set.
fn schedule(graph: &ir::lil::Graph) -> Vec<u32> {
    let mut p = LongnailProblem {
        cycle_time: 3.5,
        ..LongnailProblem::default()
    };
    let mut op_ids = Vec::new();
    let mut type_cache: HashMap<String, sched::problem::OperatorTypeId> = HashMap::new();
    for (_, op) in graph.iter() {
        let key = op.kind.mnemonic();
        let tid = *type_cache.entry(key.clone()).or_insert_with(|| {
            let ot = match &op.kind {
                OpKind::InstrWord => OperatorType::combinational(&key, 0.0).with_window(1, Some(4)),
                OpKind::ReadRs1 | OpKind::ReadRs2 => {
                    OperatorType::combinational(&key, 0.0).with_window(2, Some(4))
                }
                OpKind::WriteRd => OperatorType::combinational(&key, 0.0).with_window(2, None),
                OpKind::Mul => OperatorType::combinational(&key, 2.0),
                OpKind::Const(_) | OpKind::Sink => OperatorType::combinational(&key, 0.0),
                _ => OperatorType::combinational(&key, 0.5),
            };
            p.add_operator_type(ot)
        });
        op_ids.push(p.add_operation(&key, tid));
    }
    for (v, op) in graph.iter() {
        for &operand in op.operands.iter().chain(op.pred.iter()) {
            p.add_dependence(op_ids[operand.0], op_ids[v.0]);
        }
    }
    let sched = schedule_ilp(&mut p).unwrap();
    sched.start_time
}

fn dotp_reference(a: u32, b: u32) -> u32 {
    let mut res: i32 = 0;
    for i in (0..32).step_by(8) {
        let x = ((a >> i) & 0xff) as i8 as i32;
        let y = ((b >> i) & 0xff) as i8 as i32;
        res = res.wrapping_add((x as i16).wrapping_mul(y as i16) as i32);
    }
    res as u32
}

#[test]
fn dotp_netlist_matches_reference_across_pipeline() {
    let module = Frontend::new().compile_str(DOTP, "X_DOTP").unwrap();
    let lil = lower_module(&module).unwrap();
    let graph = lil.graph("dotp").unwrap();
    let start_time = schedule(graph);
    let built = build_graph_module(graph, &lil, &start_time, &|_| 0);
    rtl::lint_module(&built.module).unwrap();

    // Port bindings present.
    let rd_binding = built
        .binding_any_stage(&IfaceSignal::RdData)
        .expect("wrrd data port");
    assert_eq!(rd_binding.dir, PortDir::Output);

    let mut sim = Simulator::new(built.module.clone());
    for (a, b) in [
        (0x01020304u32, 0x05060708u32),
        (0xff80807f, 0x7f808001),
        (0xdeadbeef, 0xcafef00d),
    ] {
        sim.reset();
        let mut inputs = HashMap::new();
        // Hold operand inputs stable while the instruction flows through.
        for binding in &built.bindings {
            match &binding.signal {
                IfaceSignal::Rs1Data => {
                    inputs.insert(binding.name.clone(), ApInt::from_u64(a as u64, 32));
                }
                IfaceSignal::Rs2Data => {
                    inputs.insert(binding.name.clone(), ApInt::from_u64(b as u64, 32));
                }
                IfaceSignal::StallIn => {
                    inputs.insert(binding.name.clone(), ApInt::zero(1));
                }
                _ => {}
            }
        }
        let mut result = None;
        for _cycle in 0..=built.max_stage {
            let outputs = sim.step(&inputs);
            result = Some(outputs[&rd_binding.name].clone());
        }
        assert_eq!(
            result.unwrap().to_u64() as u32,
            dotp_reference(a, b),
            "pipelined netlist result for ({a:#x}, {b:#x})"
        );
    }
}

#[test]
fn emitted_verilog_mentions_stage_suffixed_ports() {
    let module = Frontend::new().compile_str(DOTP, "X_DOTP").unwrap();
    let lil = lower_module(&module).unwrap();
    let graph = lil.graph("dotp").unwrap();
    let start_time = schedule(graph);
    let built = build_graph_module(graph, &lil, &start_time, &|_| 0);
    let sv = rtl::verilog::emit_verilog(&built.module);
    assert!(sv.contains("module X_DOTP_dotp ("));
    // Stage-suffixed interface ports, as in Figure 5d.
    let rs1 = built.binding_any_stage(&IfaceSignal::Rs1Data).unwrap();
    assert!(sv.contains(&rs1.name));
    assert!(rs1.name.starts_with("rs1_"));
    let wr = built.binding_any_stage(&IfaceSignal::RdData).unwrap();
    assert!(sv.contains(&format!("assign {} =", wr.name)));
}

#[test]
fn pipeline_registers_stall_correctly() {
    // Value crossing stages must hold under stall.
    let module = Frontend::new().compile_str(DOTP, "X_DOTP").unwrap();
    let lil = lower_module(&module).unwrap();
    let graph = lil.graph("dotp").unwrap();
    let start_time = schedule(graph);
    let built = build_graph_module(graph, &lil, &start_time, &|_| 0);
    if built
        .bindings
        .iter()
        .all(|b| b.signal != IfaceSignal::StallIn)
    {
        // Schedule fit in a single stage; nothing to stall.
        return;
    }
    let rd_binding = built
        .binding_any_stage(&IfaceSignal::RdData)
        .unwrap()
        .clone();
    let mut sim = Simulator::new(built.module.clone());
    let (a, b) = (0x01010101u32, 0x02020202u32);
    let expect = dotp_reference(a, b);
    let mut inputs = HashMap::new();
    for binding in &built.bindings {
        match &binding.signal {
            IfaceSignal::Rs1Data => {
                inputs.insert(binding.name.clone(), ApInt::from_u64(a as u64, 32));
            }
            IfaceSignal::Rs2Data => {
                inputs.insert(binding.name.clone(), ApInt::from_u64(b as u64, 32));
            }
            IfaceSignal::StallIn => {
                inputs.insert(binding.name.clone(), ApInt::zero(1));
            }
            _ => {}
        }
    }
    // Run the pipeline to completion, then corrupt the inputs while
    // stalling every stage: the result must hold.
    for _ in 0..=built.max_stage {
        sim.step(&inputs);
    }
    for binding in &built.bindings {
        match &binding.signal {
            IfaceSignal::Rs1Data | IfaceSignal::Rs2Data => {
                inputs.insert(binding.name.clone(), ApInt::zero(32));
            }
            IfaceSignal::StallIn => {
                inputs.insert(binding.name.clone(), ApInt::one(1));
            }
            _ => {}
        }
    }
    let outputs = sim.step(&inputs);
    // All stages stalled: pipeline registers held their values. If the
    // final result is produced combinationally from held registers it
    // still matches; with operands zeroed and registers held, a mismatch
    // would indicate broken stall gating.
    let _ = outputs;
    let outputs2 = sim.eval(&inputs);
    assert_eq!(outputs2[&rd_binding.name].to_u64() as u32, {
        // With all pipeline registers frozen, the write-back value must be
        // derived from held state, not from the zeroed operand inputs --
        // unless the write is scheduled in the same stage the operands
        // arrive (fully combinational), in which case zero inputs give 0.
        if start_time[graph
            .iter()
            .find(|(_, op)| op.kind == ir::lil::OpKind::WriteRd)
            .unwrap()
            .0
             .0]
            > 2
        {
            expect
        } else {
            dotp_reference(0, 0)
        }
    });
}
