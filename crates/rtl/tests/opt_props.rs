//! Property tests for the oracle-gated netlist optimizer (DESIGN §16).
//!
//! Random *raw* netlists — not ones produced by the LIL builder, so shapes
//! the pipeline never emits are covered too — are pushed through each
//! individual optimization pass and through the full `-O2` fixpoint
//! pipeline. Every result must
//!
//! 1. still pass `lint_module` (structurally well-formed, width-correct,
//!    every combinational operand defined before its user), and
//! 2. stay lockstep-equal to the input module over 32 cycles of
//!    differential simulation, including the four-state cycles where
//!    `verify_equivalent` knocks input bits to X.
//!
//! A pass that reports no rewrite must also return its input unchanged.

use bits::ApInt;
use proptest::prelude::*;
use rtl::netlist::RomData;
use rtl::verilog::EmitOptions;
use rtl::{
    lint_module, optimize, run_pass, verify_equivalent, CombOp, Driver, Module, NetId, OptLevel,
    Pass, PortDir,
};

/// SplitMix64 — the same generator family the optimizer's own
/// `verify_equivalent` stimulus uses, kept local so the netlist shape for a
/// given seed never changes under the test harness.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn apint(&mut self, width: u32) -> ApInt {
        let mut v = ApInt::zero(width);
        for bit in 0..width {
            if self.next() & 1 == 1 {
                v.set_bit(bit, true);
            }
        }
        v
    }
}

/// Nets available as operands, tracked as `(id, width)`.
struct Pool {
    nets: Vec<(NetId, u32)>,
}

impl Pool {
    /// Any existing net.
    fn any(&self, g: &mut Gen) -> (NetId, u32) {
        self.nets[g.below(self.nets.len() as u64) as usize]
    }

    /// A net of exactly `width` bits; materializes a constant when no
    /// existing net matches so every width request succeeds.
    fn of_width(&mut self, m: &mut Module, g: &mut Gen, width: u32) -> NetId {
        let matching: Vec<NetId> = self
            .nets
            .iter()
            .filter(|(_, w)| *w == width)
            .map(|(id, _)| *id)
            .collect();
        if !matching.is_empty() {
            return matching[g.below(matching.len() as u64) as usize];
        }
        let c = g.apint(width);
        let id = m.add_net(Driver::Const(c), width, "");
        self.nets.push((id, width));
        id
    }

    fn push(&mut self, id: NetId, width: u32) {
        self.nets.push((id, width));
    }
}

/// Builds a random module that `lint_module` accepts by construction:
/// combinational drivers only reference earlier-index nets, every width
/// rule from `lint_module` is respected, and each output port is driven
/// exactly once.
fn random_module(seed: u64) -> Module {
    let mut g = Gen::new(seed);
    let mut m = Module::new("prop");
    let mut pool = Pool { nets: Vec::new() };

    let n_inputs = 1 + g.below(3) as usize;
    for i in 0..n_inputs {
        let w = 1 + g.below(24) as u32;
        let port = m.add_port(&format!("in{i}"), PortDir::Input, w);
        let id = m.add_net(Driver::Input { port }, w, &format!("in{i}"));
        pool.push(id, w);
    }
    for i in 0..2 {
        let w = 1 + g.below(24) as u32;
        let c = g.apint(w);
        let id = m.add_net(Driver::Const(c), w, &format!("c{i}"));
        pool.push(id, w);
    }
    let rom_w = 2 + g.below(10) as u32;
    let rom_len = 2 + g.below(7) as usize;
    m.roms.push(RomData {
        name: "rom0".into(),
        width: rom_w,
        contents: (0..rom_len).map(|_| g.apint(rom_w)).collect(),
    });

    let body = 8 + g.below(28);
    for k in 0..body {
        let (id, w) = match g.below(16) {
            0..=3 => {
                // Same-width binary arithmetic / logic.
                let ops = [
                    CombOp::Add,
                    CombOp::Sub,
                    CombOp::Mul,
                    CombOp::And,
                    CombOp::Or,
                    CombOp::Xor,
                    CombOp::DivU,
                    CombOp::RemU,
                    CombOp::DivS,
                    CombOp::RemS,
                ];
                let op = ops[g.below(ops.len() as u64) as usize];
                let (a, w) = pool.any(&mut g);
                let b = pool.of_width(&mut m, &mut g, w);
                let id = m.add_net(
                    Driver::Comb {
                        op,
                        args: vec![a, b],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            4 => {
                let (a, w) = pool.any(&mut g);
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Not,
                        args: vec![a],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            5 => {
                // Shift: amount may be any width.
                let ops = [CombOp::Shl, CombOp::ShrU, CombOp::ShrS];
                let op = ops[g.below(3) as usize];
                let (a, w) = pool.any(&mut g);
                let (amt, _) = pool.any(&mut g);
                let id = m.add_net(
                    Driver::Comb {
                        op,
                        args: vec![a, amt],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            6 => {
                // Comparison: 1-bit result.
                let ops = [
                    CombOp::Eq,
                    CombOp::Ne,
                    CombOp::Ult,
                    CombOp::Ule,
                    CombOp::Slt,
                    CombOp::Sle,
                ];
                let op = ops[g.below(ops.len() as u64) as usize];
                let (a, w) = pool.any(&mut g);
                let b = pool.of_width(&mut m, &mut g, w);
                let id = m.add_net(
                    Driver::Comb {
                        op,
                        args: vec![a, b],
                        lo: 0,
                    },
                    1,
                    &format!("n{k}"),
                );
                (id, 1)
            }
            7 => {
                let sel = pool.of_width(&mut m, &mut g, 1);
                let (t, w) = pool.any(&mut g);
                let e = pool.of_width(&mut m, &mut g, w);
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Mux,
                        args: vec![sel, t, e],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            8 => {
                let (hi, wh) = pool.any(&mut g);
                let (lo_net, wl) = pool.any(&mut g);
                let w = wh + wl;
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Concat,
                        args: vec![hi, lo_net],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            9 => {
                // Extract: lo + width <= source width.
                let (a, w) = pool.any(&mut g);
                let tw = 1 + g.below(u64::from(w)) as u32;
                let lo = g.below(u64::from(w - tw + 1)) as u32;
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Extract,
                        args: vec![a],
                        lo,
                    },
                    tw,
                    &format!("n{k}"),
                );
                (id, tw)
            }
            10 => {
                // ExtractDyn: result width <= base width.
                let (a, w) = pool.any(&mut g);
                let tw = 1 + g.below(u64::from(w)) as u32;
                let (off, _) = pool.any(&mut g);
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::ExtractDyn,
                        args: vec![a, off],
                        lo: 0,
                    },
                    tw,
                    &format!("n{k}"),
                );
                (id, tw)
            }
            11 => {
                let op = if g.next() & 1 == 0 {
                    CombOp::ZExt
                } else {
                    CombOp::SExt
                };
                let (a, w) = pool.any(&mut g);
                let tw = w + g.below(9) as u32;
                let id = m.add_net(
                    Driver::Comb {
                        op,
                        args: vec![a],
                        lo: 0,
                    },
                    tw,
                    &format!("n{k}"),
                );
                (id, tw)
            }
            12 => {
                let (a, w) = pool.any(&mut g);
                let tw = 1 + g.below(u64::from(w)) as u32;
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Trunc,
                        args: vec![a],
                        lo: 0,
                    },
                    tw,
                    &format!("n{k}"),
                );
                (id, tw)
            }
            13 => {
                // Replicate: keep the result narrow enough to stay cheap.
                let (a, w) = pool.any(&mut g);
                let reps = 1 + g.below((48 / u64::from(w)).max(1)) as u32;
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Replicate,
                        args: vec![a],
                        lo: reps,
                    },
                    reps * w,
                    &format!("n{k}"),
                );
                (id, reps * w)
            }
            14 => {
                let (mut next, mut w) = pool.any(&mut g);
                let enable = if g.next() & 1 == 0 {
                    Some(pool.of_width(&mut m, &mut g, 1))
                } else {
                    None
                };
                let mut init = g.apint(w);
                // A quarter of the registers hold a value whose top half
                // stays zero from reset, which -O2 narrows: twice the
                // width of their source, `ZExt`ed, and an `init` that
                // fits in the bottom half.
                if g.below(4) == 0 {
                    init = init.zext(2 * w);
                    w *= 2;
                    next = m.add_net(
                        Driver::Comb {
                            op: CombOp::ZExt,
                            args: vec![next],
                            lo: 0,
                        },
                        w,
                        &format!("n{k}_wide"),
                    );
                }
                let id = m.add_net(Driver::Reg { next, enable, init }, w, &format!("n{k}"));
                (id, w)
            }
            _ => {
                let (index, _) = pool.any(&mut g);
                let id = m.add_net(Driver::Rom { rom: 0, index }, rom_w, &format!("n{k}"));
                (id, rom_w)
            }
        };
        pool.push(id, w);
    }

    let n_outputs = 1 + g.below(3) as usize;
    for i in 0..n_outputs {
        let (id, w) = pool.any(&mut g);
        let port = m.add_port(&format!("out{i}"), PortDir::Output, w);
        m.connect_output(port, id);
    }

    // Half the registers sample a later net of their width instead, and a
    // later 1-bit enable where there is one: lint allows the forward
    // reference, and every pass that renumbers nets must follow it.
    for r in 0..m.nets.len() {
        if !matches!(m.nets[r].driver, Driver::Reg { .. }) || g.next() & 1 == 0 {
            continue;
        }
        let later = |w: u32| -> Vec<NetId> {
            (r + 1..m.nets.len())
                .filter(|&j| m.nets[j].width == w)
                .map(NetId)
                .collect()
        };
        let (nexts, enables) = (later(m.nets[r].width), later(1));
        if let Driver::Reg { next, enable, .. } = &mut m.nets[r].driver {
            if !nexts.is_empty() {
                *next = nexts[g.below(nexts.len() as u64) as usize];
            }
            if let (Some(e), false) = (enable, enables.is_empty()) {
                *e = enables[g.below(enables.len() as u64) as usize];
            }
        }
    }

    lint_module(&m).expect("random_module produced an invalid netlist");
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generator itself only emits modules the lint accepts — the
    /// properties below compare post-pass lint against this baseline, so
    /// it must hold unconditionally.
    #[test]
    fn generated_modules_are_lint_clean(seed: u64) {
        let m = random_module(seed);
        let lint = lint_module(&m);
        prop_assert!(lint.is_ok(), "seed {seed}: generator emitted lint issues: {:?}", lint.err());
    }

    /// Every individual pass, run alone on a raw netlist, preserves
    /// lint-cleanliness and 32-cycle lockstep behavior (two-valued
    /// equality plus four-state refinement on the X cycles).
    #[test]
    fn each_pass_is_lint_clean_and_lockstep_equal(seed: u64) {
        let m = random_module(seed);
        for pass in Pass::ALL {
            let (out, rewrites) = match run_pass(&m, pass, &EmitOptions) {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError::fail(
                    format!("seed {seed}: pass {} failed: {e}", pass.name()))),
            };
            let lint = lint_module(&out);
            prop_assert!(
                lint.is_ok(),
                "seed {seed}: pass {} ({rewrites} rewrites) left lint issues: {:?}",
                pass.name(),
                lint.err()
            );
            if let Err(e) = verify_equivalent(&m, &out, &EmitOptions, 32) {
                return Err(TestCaseError::fail(
                    format!("seed {seed}: pass {} diverged: {e}", pass.name())));
            }
        }
    }

    /// A pass that reports no rewrite returns its input unchanged, so the
    /// pass manager lints only the output of a pass that rewrote
    /// something. Most passes rewrite a raw netlist, so each also runs on
    /// the -O2 fixpoint, where most report none.
    #[test]
    fn a_pass_without_rewrites_returns_its_input(seed: u64) {
        let raw = random_module(seed);
        let fixpoint = match optimize(&raw, OptLevel::O2) {
            Ok((m, _)) => m,
            Err(e) => return Err(TestCaseError::fail(format!("seed {seed}: -O2 failed: {e}"))),
        };
        for m in [&raw, &fixpoint] {
            for pass in Pass::ALL {
                let (out, rewrites) = match run_pass(m, pass, &EmitOptions) {
                    Ok(r) => r,
                    Err(e) => return Err(TestCaseError::fail(
                        format!("seed {seed}: pass {} failed: {e}", pass.name()))),
                };
                prop_assert!(
                    rewrites > 0 || out == *m,
                    "seed {seed}: pass {} reported no rewrite but changed the module",
                    pass.name()
                );
            }
        }
    }

    /// The full -O2 fixpoint pipeline — all passes iterated to
    /// convergence — satisfies the same contract end to end.
    #[test]
    fn full_o2_is_lint_clean_and_lockstep_equal(seed: u64) {
        let m = random_module(seed);
        let (out, report) = match optimize(&m, OptLevel::O2) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("seed {seed}: -O2 failed: {e}"))),
        };
        let lint = lint_module(&out);
        prop_assert!(lint.is_ok(), "seed {seed}: -O2 output has lint issues: {:?}", lint.err());
        prop_assert_eq!(report.nets_after, out.nets.len());
        if let Err(e) = verify_equivalent(&m, &out, &EmitOptions, 32) {
            return Err(TestCaseError::fail(format!("seed {seed}: -O2 diverged: {e}")));
        }
    }
}
