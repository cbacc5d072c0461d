//! Differential fuzzing of the whole flow: randomly generated (but
//! well-typed) CoreDSL instruction behaviors are executed three ways —
//!
//! 1. the golden CoreDSL interpreter (sequential semantics),
//! 2. the LIL data-flow evaluator (post-lowering semantics),
//! 3. the cycle-accurate netlist interpreter on the *generated RTL*,
//!
//! and all three must agree bit-for-bit on the written `rd` value. This
//! exercises the type rules, loop-free lowering (if-conversion, CSE,
//! folding, write merging), the ILP scheduler, and the hardware builder in
//! one sweep. Seeds are fixed: failures are reproducible.

use bits::ApInt;
use coredsl::types::IntType;
use ir::eval::{eval_graph, LilEnv, UpdateKind};
use ir::interp::{Interp, SimpleState};
use longnail::driver::builtin_datasheet;
use longnail::Longnail;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtl::build::IfaceSignal;
use rtl::netlist::{CombOp, Driver, Module, NetId, PortDir, RomData};
use rtl::xsim::DiffSim;
use rtl::Simulator;
use std::collections::HashMap;

/// A generated expression: CoreDSL text plus its checked type.
#[derive(Clone)]
struct GenExpr {
    text: String,
    ty: IntType,
}

struct Generator {
    rng: StdRng,
    locals: Vec<(String, IntType)>,
}

impl Generator {
    fn new(seed: u64) -> Self {
        Generator {
            rng: StdRng::seed_from_u64(seed),
            locals: Vec::new(),
        }
    }

    fn leaf(&mut self) -> GenExpr {
        match self.rng.random_range(0..4u32) {
            0 => {
                let width = self.rng.random_range(1..=33u32);
                let value: u64 = self.rng.random();
                GenExpr {
                    text: format!("{}'d{}", width, value & ((1u64 << width.min(63)) - 1)),
                    ty: IntType::unsigned(width),
                }
            }
            1 => GenExpr {
                text: "X[rs1]".into(),
                ty: IntType::unsigned(32),
            },
            2 => GenExpr {
                text: "X[rs2]".into(),
                ty: IntType::unsigned(32),
            },
            _ => {
                if self.locals.is_empty() {
                    GenExpr {
                        text: "X[rs1]".into(),
                        ty: IntType::unsigned(32),
                    }
                } else {
                    let i = self.rng.random_range(0..self.locals.len());
                    let (name, ty) = self.locals[i].clone();
                    GenExpr { text: name, ty }
                }
            }
        }
    }

    /// Caps runaway widths with an explicit cast (as a user would).
    fn cap(&mut self, e: GenExpr) -> GenExpr {
        if e.ty.width > 64 {
            let ty = IntType::unsigned(32);
            GenExpr {
                text: format!("(unsigned<32>)({})", e.text),
                ty,
            }
        } else {
            e
        }
    }

    fn expr(&mut self, depth: u32) -> GenExpr {
        if depth == 0 {
            return self.leaf();
        }
        let e = match self.rng.random_range(0..9u32) {
            0..=2 => {
                let a = self.expr(depth - 1);
                let b = self.expr(depth - 1);
                let (op, ty) = match self.rng.random_range(0..6u32) {
                    0 => ("+", a.ty.add_result(b.ty)),
                    1 => ("-", a.ty.sub_result(b.ty)),
                    2 => ("*", a.ty.mul_result(b.ty)),
                    3 => ("&", a.ty.bitwise_result(b.ty)),
                    4 => ("|", a.ty.bitwise_result(b.ty)),
                    _ => ("^", a.ty.bitwise_result(b.ty)),
                };
                GenExpr {
                    text: format!("({} {op} {})", a.text, b.text),
                    ty,
                }
            }
            3 => {
                let a = self.expr(depth - 1);
                let amount = self.rng.random_range(0..a.ty.width.min(32));
                let op = if self.rng.random_bool(0.5) { "<<" } else { ">>" };
                GenExpr {
                    text: format!("({} {op} {amount})", a.text),
                    ty: a.ty.shift_result(),
                }
            }
            4 => {
                let a = self.expr(depth - 1);
                if a.ty.width < 2 {
                    a
                } else {
                    let lo = self.rng.random_range(0..a.ty.width - 1);
                    let hi = self.rng.random_range(lo..a.ty.width);
                    GenExpr {
                        text: format!("({})[{hi}:{lo}]", a.text),
                        ty: IntType::unsigned(hi - lo + 1),
                    }
                }
            }
            5 => {
                let a = self.expr(depth - 1);
                let b = self.expr(depth - 1);
                if a.ty.width + b.ty.width > 64 {
                    a
                } else {
                    GenExpr {
                        text: format!("({} :: {})", a.text, b.text),
                        ty: a.ty.concat_result(b.ty),
                    }
                }
            }
            6 => {
                let c = self.expr(depth - 1);
                let a = self.expr(depth - 1);
                let b = self.expr(depth - 1);
                let ty = a.ty.common(b.ty);
                GenExpr {
                    text: format!("(({}) != 0 ? {} : {})", c.text, a.text, b.text),
                    ty,
                }
            }
            7 => {
                let a = self.expr(depth - 1);
                let b = self.expr(depth - 1);
                let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.random_range(0..6)];
                GenExpr {
                    text: format!("({} {op} {})", a.text, b.text),
                    ty: IntType::bool_ty(),
                }
            }
            _ => {
                let a = self.expr(depth - 1);
                let signed = self.rng.random_bool(0.5);
                let width = self.rng.random_range(1..=48u32);
                GenExpr {
                    text: format!(
                        "({}<{width}>)({})",
                        if signed { "signed" } else { "unsigned" },
                        a.text
                    ),
                    ty: IntType {
                        signed,
                        width,
                    },
                }
            }
        };
        self.cap(e)
    }

    /// Generates one complete instruction behavior.
    fn behavior(&mut self) -> String {
        let mut body = String::new();
        let num_locals = self.rng.random_range(2..=5u32);
        for i in 0..num_locals {
            let d = self.rng.random_range(1..=3u32);
            let e = self.expr(d);
            let width = self.rng.random_range(4..=40u32);
            let name = format!("l{i}");
            body.push_str(&format!(
                "        unsigned<{width}> {name} = (unsigned<{width}>)({});\n",
                e.text
            ));
            self.locals.push((name, IntType::unsigned(width)));
        }
        // Conditional reassignments (exercise if-conversion + muxes).
        for _ in 0..self.rng.random_range(0..=2u32) {
            let cond = self.expr(2);
            let idx = self.rng.random_range(0..self.locals.len());
            let (name, ty) = self.locals[idx].clone();
            let val = self.expr(2);
            body.push_str(&format!(
                "        if (({}) != 0) {{ {name} = (unsigned<{}>)({}); }}\n",
                cond.text, ty.width, val.text
            ));
        }
        let result = self.expr(3);
        body.push_str(&format!(
            "        X[rd] = (unsigned<32>)({});\n",
            result.text
        ));
        body
    }
}

fn make_source(behavior: &str) -> String {
    format!(
        r#"
import "RV32I.core_desc";
InstructionSet fuzzed extends RV32I {{
  instructions {{
    fuzz {{
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {{
{behavior}
      }}
    }}
  }}
}}
"#
    )
}

struct FuzzEnv {
    rs1: u32,
    rs2: u32,
}

impl LilEnv for FuzzEnv {
    fn instr_word(&mut self) -> ApInt {
        // rd=3, rs1=1, rs2=2 with the fuzz opcode.
        ApInt::from_u64(((2 << 20) | (1 << 15) | (3 << 7) | 0b0001011) as u64, 32)
    }
    fn read_rs1(&mut self) -> ApInt {
        ApInt::from_u64(self.rs1 as u64, 32)
    }
    fn read_rs2(&mut self) -> ApInt {
        ApInt::from_u64(self.rs2 as u64, 32)
    }
    fn read_pc(&mut self) -> ApInt {
        ApInt::zero(32)
    }
    fn read_mem(&mut self, _addr: &ApInt) -> ApInt {
        ApInt::zero(32)
    }
    fn read_cust_reg(&mut self, _name: &str, _index: &ApInt) -> ApInt {
        ApInt::zero(32)
    }
}

/// Builds a random netlist directly over the `rtl` dialect — no CoreDSL in
/// the loop — so the four-state simulator is exercised on operator mixes
/// the lowering would never produce. Every module ends with the three
/// gadgets behind this PR's bug fixes: a division by a constant-zero
/// divisor, a dynamic extract whose offset can run past the top of its
/// base, and same-width ZExt/SExt aliases.
fn random_netlist(seed: u64) -> Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Module::new("fuzznet");
    let pa = m.add_port("a", PortDir::Input, 32);
    let pb = m.add_port("b", PortDir::Input, 32);
    let po = m.add_port("o", PortDir::Output, 32);
    let na = m.add_net(Driver::Input { port: pa }, 32, "a");
    let nb = m.add_net(Driver::Input { port: pb }, 32, "b");
    m.roms.push(RomData {
        name: "tab".into(),
        width: 32,
        contents: (0..5).map(|i| ApInt::from_u64(0x1111 * i, 32)).collect(),
    });
    let mut words = vec![na, nb]; // 32-bit nets
    let mut bits: Vec<NetId> = Vec::new(); // 1-bit nets
    for step in 0..24u32 {
        let x = words[rng.random_range(0..words.len())];
        let y = words[rng.random_range(0..words.len())];
        let comb = |op, args, lo| Driver::Comb { op, args, lo };
        let name = format!("n{step}");
        let net = match rng.random_range(0..15u32) {
            0 => m.add_net(comb(CombOp::Add, vec![x, y], 0), 32, &name),
            1 => m.add_net(comb(CombOp::Sub, vec![x, y], 0), 32, &name),
            2 => m.add_net(comb(CombOp::Mul, vec![x, y], 0), 32, &name),
            3 => {
                let op = [CombOp::DivU, CombOp::DivS, CombOp::RemU, CombOp::RemS]
                    [rng.random_range(0..4)];
                m.add_net(comb(op, vec![x, y], 0), 32, &name)
            }
            4 => {
                let op = [CombOp::And, CombOp::Or, CombOp::Xor][rng.random_range(0..3)];
                m.add_net(comb(op, vec![x, y], 0), 32, &name)
            }
            5 => m.add_net(comb(CombOp::Not, vec![x], 0), 32, &name),
            6 => {
                let op = [CombOp::Shl, CombOp::ShrU, CombOp::ShrS][rng.random_range(0..3)];
                m.add_net(comb(op, vec![x, y], 0), 32, &name)
            }
            7 => {
                let op = [
                    CombOp::Eq,
                    CombOp::Ne,
                    CombOp::Ult,
                    CombOp::Ule,
                    CombOp::Slt,
                    CombOp::Sle,
                ][rng.random_range(0..6)];
                bits.push(m.add_net(comb(op, vec![x, y], 0), 1, &name));
                continue;
            }
            8 if !bits.is_empty() => {
                let c = bits[rng.random_range(0..bits.len())];
                m.add_net(comb(CombOp::Mux, vec![c, x, y], 0), 32, &name)
            }
            9 => {
                let hi = m.add_net(comb(CombOp::Extract, vec![x], 16), 16, &name);
                let lo = m.add_net(comb(CombOp::Extract, vec![y], 0), 16, &format!("{name}b"));
                m.add_net(comb(CombOp::Concat, vec![hi, lo], 0), 32, &format!("{name}c"))
            }
            10 if !bits.is_empty() => {
                let b = bits[rng.random_range(0..bits.len())];
                m.add_net(comb(CombOp::Replicate, vec![b], 32), 32, &name)
            }
            11 => {
                // Dynamic extract with a full 32-bit offset: can reach far
                // past the top of the base, so only total (zero-filled)
                // emission keeps this X-free.
                let e = m.add_net(comb(CombOp::ExtractDyn, vec![x, y], 0), 8, &name);
                m.add_net(comb(CombOp::ZExt, vec![e], 0), 32, &format!("{name}z"))
            }
            12 => {
                let e = m.add_net(comb(CombOp::Extract, vec![x], 8), 8, &name);
                let op = if rng.random_bool(0.5) { CombOp::SExt } else { CombOp::ZExt };
                m.add_net(comb(op, vec![e], 0), 32, &format!("{name}x"))
            }
            13 => {
                let enable = if rng.random_bool(0.5) && !bits.is_empty() {
                    Some(bits[rng.random_range(0..bits.len())])
                } else {
                    None
                };
                let init = ApInt::from_u64(rng.random::<u64>(), 64).zext_or_trunc(32);
                m.add_net(Driver::Reg { next: x, enable, init }, 32, &name)
            }
            _ => {
                // ROM read through a 3-bit index over a 5-entry table:
                // indices 5..=7 overrun and must read zero everywhere.
                let idx = m.add_net(comb(CombOp::Trunc, vec![x], 0), 3, &name);
                m.add_net(Driver::Rom { rom: 0, index: idx }, 32, &format!("{name}r"))
            }
        };
        words.push(net);
    }
    // Deterministic gadgets: the historic X sources, now fixed.
    let zero = m.add_net(Driver::Const(ApInt::zero(32)), 32, "zdiv");
    let g1 = m.add_net(
        Driver::Comb { op: CombOp::DivU, args: vec![na, zero], lo: 0 },
        32,
        "div0",
    );
    let g2 = m.add_net(
        Driver::Comb { op: CombOp::RemS, args: vec![nb, zero], lo: 0 },
        32,
        "rem0",
    );
    let off = m.add_net(Driver::Const(ApInt::from_u64(30, 32)), 32, "off30");
    let top = m.add_net(
        Driver::Comb { op: CombOp::ExtractDyn, args: vec![na, off], lo: 0 },
        8,
        "top",
    );
    let topz = m.add_net(
        Driver::Comb { op: CombOp::ZExt, args: vec![top], lo: 0 },
        32,
        "topz",
    );
    let zs = m.add_net(
        Driver::Comb { op: CombOp::ZExt, args: vec![nb], lo: 0 },
        32,
        "zsame",
    );
    let ss = m.add_net(
        Driver::Comb { op: CombOp::SExt, args: vec![na], lo: 0 },
        32,
        "ssame",
    );
    words.extend([g1, g2, topz, zs, ss]);
    for b in bits {
        let z = m.add_net(
            Driver::Comb { op: CombOp::ZExt, args: vec![b], lo: 0 },
            32,
            "bz",
        );
        words.push(z);
    }
    // XOR-reduce everything so every net is observable at the output.
    let mut acc = words[0];
    for (i, w) in words.iter().skip(1).enumerate() {
        acc = m.add_net(
            Driver::Comb { op: CombOp::Xor, args: vec![acc, *w], lo: 0 },
            32,
            &format!("acc{i}"),
        );
    }
    m.connect_output(po, acc);
    rtl::lint_module(&m).unwrap_or_else(|e| panic!("seed {seed}: invalid netlist: {e:?}"));
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// xsim-vs-interp property: under the default (guarded) emission
    /// options, a fully-known stimulus must keep every net of a random
    /// netlist fully known, and the four-state values must agree with the
    /// two-state interpreter bit-for-bit — `DiffSim::step` checks every
    /// fully-known net, so `net_x_bits == 0` means total coverage.
    #[test]
    fn random_netlists_stay_known_and_match_the_interpreter(seed: u64, a0: u32, b0: u32) {
        let module = random_netlist(seed);
        let mut diff = DiffSim::new(module);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        for t in 0..8u32 {
            let (a, b) = if t == 0 {
                (a0, b0)
            } else if t == 1 {
                (a0, 0) // meet the data-dependent divisions with a zero
            } else {
                (rng.random(), rng.random())
            };
            let mut inputs = HashMap::new();
            inputs.insert("a".to_string(), ApInt::from_u64(a as u64, 32));
            inputs.insert("b".to_string(), ApInt::from_u64(b as u64, 32));
            let stats = match diff.step(&inputs) {
                Ok(s) => s,
                Err(e) => {
                    return Err(proptest::TestCaseError::fail(format!(
                        "seed {seed}, cycle {t}, a={a:#x}, b={b:#x}: {e}"
                    )))
                }
            };
            prop_assert_eq!(stats.net_x_bits, 0, "seed {}, cycle {}: X bits survive", seed, t);
            prop_assert_eq!(stats.output_x_bits, 0);
        }
    }
}

#[test]
fn random_programs_agree_across_all_three_semantics() {
    let ln = Longnail::new();
    let ds = builtin_datasheet("VexRiscv").unwrap();
    let word: u32 = (2 << 20) | (1 << 15) | (3 << 7) | 0b0001011;
    let mut cases = 0;
    for seed in 0..40u64 {
        let mut generator = Generator::new(seed);
        let src = make_source(&generator.behavior());
        // The generator only emits well-typed programs; a frontend error
        // here is itself a bug worth failing on.
        let compiled = ln
            .compile(&src, "fuzzed", &ds)
            .unwrap_or_else(|e| panic!("seed {seed}: flow failed\n{src}\n{e}"));
        let module = &compiled.module;
        let g = compiled.graph("fuzz").unwrap();
        let interp = Interp::new(module);

        let mut operand_rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        for _ in 0..4 {
            let rs1: u32 = operand_rng.random();
            let rs2: u32 = operand_rng.random();

            // 1. Golden interpreter.
            let mut st = SimpleState::new(module);
            st.set("X", 1, ApInt::from_u64(rs1 as u64, 32));
            st.set("X", 2, ApInt::from_u64(rs2 as u64, 32));
            interp
                .exec_instruction("fuzz", word, &mut st)
                .unwrap_or_else(|e| panic!("seed {seed}: golden failed: {e}\n{src}"));
            let golden = st.get("X", 3).to_u64() as u32;

            // 2. LIL evaluator.
            let mut env = FuzzEnv { rs1, rs2 };
            let updates = eval_graph(&g.graph, &compiled.lil, &mut env);
            let lil = updates
                .iter()
                .find(|u| u.kind == UpdateKind::Rd)
                .map(|u| u.value.to_u64() as u32)
                .unwrap_or(golden); // no write executed on this path
            assert_eq!(
                lil, golden,
                "seed {seed}, rs1={rs1:#x}, rs2={rs2:#x}: LIL vs golden\n{src}"
            );

            // 3. RTL netlist simulation.
            let rd_binding = g.built.binding_any_stage(&IfaceSignal::RdData).unwrap();
            let pred_binding = g.built.binding_any_stage(&IfaceSignal::RdPred).unwrap();
            let mut sim = Simulator::new(g.built.module.clone());
            let mut inputs = HashMap::new();
            for b in &g.built.bindings {
                match &b.signal {
                    IfaceSignal::Rs1Data => {
                        inputs.insert(b.name.clone(), ApInt::from_u64(rs1 as u64, 32));
                    }
                    IfaceSignal::Rs2Data => {
                        inputs.insert(b.name.clone(), ApInt::from_u64(rs2 as u64, 32));
                    }
                    IfaceSignal::InstrWord => {
                        inputs.insert(b.name.clone(), ApInt::from_u64(word as u64, 32));
                    }
                    IfaceSignal::StallIn => {
                        inputs.insert(b.name.clone(), ApInt::zero(1));
                    }
                    _ => {}
                }
            }
            let mut rtl_val = 0u32;
            let mut rtl_pred = false;
            for _ in 0..=g.built.max_stage {
                let outputs = sim.step(&inputs);
                rtl_val = outputs[&rd_binding.name].to_u64() as u32;
                rtl_pred = !outputs[&pred_binding.name].is_zero();
            }
            if rtl_pred {
                assert_eq!(
                    rtl_val, golden,
                    "seed {seed}, rs1={rs1:#x}, rs2={rs2:#x}: RTL vs golden\n{src}"
                );
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 160);
}
