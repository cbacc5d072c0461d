//! Bitwidth narrowing driven by the value/known planes of [`crate::xsim`].
//!
//! The pass abstractly evaluates the module from reset with the exact
//! four-state operator semantics of the simulator. Inputs and dynamic ROM
//! reads are all-X and constants fully known. Each register starts at its
//! reset value (`init`) and joins in the value of its `next` until nothing
//! changes; the enable only chooses between holding and loading, so the
//! join covers both. Every operator is monotone under refinement (turning
//! an input X bit into a value never changes an already-known output bit),
//! so any bit that comes out *known* holds that value in every cycle of
//! every run that starts from reset, whatever the stimulus. The rewrites:
//!
//! * a combinational or ROM net whose abstract value is fully known is a
//!   constant, and so is a register that never leaves its `init`,
//! * `Add`/`Mul`/`And`/`Or`/`Xor` whose operands provably fit in `t < w`
//!   bits (counting top known-zero bits, with a carry bit for `Add` and
//!   the width sum for `Mul`), and a `Mux` whose two arms do, are
//!   re-emitted at width `t` and the result `ZExt`-patched back to `w` —
//!   extends and truncates are free wiring in the area model while adder,
//!   multiplier and mux area scale with width,
//! * a register whose top bits stay zero becomes a `t`-bit register behind
//!   a `ZExt`, with its `init` and `next` truncated,
//! * `SExt` whose source sign bit is provably zero becomes `ZExt`.
//!
//! Every narrowed operand takes its low `t` bits from [`low`], which reads
//! through a `ZExt`/`SExt` to its source instead of stacking a `Trunc` on
//! the extend.
//!
//! The evaluation runs in definition order, reading each combinational
//! operand from an earlier net, so the pass relies on its input linting
//! clean (the pass manager checks it). A register whose `next` is defined
//! before it joins it within that one sweep. Only registers that read
//! forward are joined after the sweep, and the sweep repeats while one of
//! them loses a known bit; each repeat turns at least one bit X, so the
//! loop ends. A narrowed register keeps reading backward when it did: its
//! `Trunc` goes right before it, and only one that already read forward
//! truncates its `next` after the last net.
//! Narrowing strictly shrinks the computed width each time it fires, so
//! the fixpoint terminates. The pass inserts nets, so it plans every
//! rewrite first and then [`rebuild`]s the module like [`super::strength`].

use super::{comb, rebuild, Rebuilt};
use crate::netlist::{CombOp, Driver, Module, Net, NetId};
use crate::sim::Value;
use crate::xsim::XVal;

/// Abstract per-net values over every run from reset, and the sweeps it
/// took: all-X inputs, exact operators, and each register its `init`
/// joined with every value its `next` takes.
fn abstract_eval(m: &Module) -> (Vec<XVal>, u32) {
    // Each register that reads forward, with its `next` and what it holds
    // so far: its `init`, joined with its `next` after every sweep.
    let mut held: Vec<(NetId, XVal)> = m
        .nets
        .iter()
        .enumerate()
        .filter_map(|(i, net)| match &net.driver {
            Driver::Reg { next, init, .. } if next.0 >= i => {
                Some((*next, XVal::known(init.clone())))
            }
            _ => None,
        })
        .collect();
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        let mut vals: Vec<XVal> = Vec::with_capacity(m.nets.len());
        let mut forward = held.iter();
        for (i, net) in m.nets.iter().enumerate() {
            let v = match &net.driver {
                Driver::Input { .. } => XVal::all_x(net.width),
                Driver::Const(c) => XVal::known(c.clone()),
                Driver::Reg { next, init, .. } if next.0 < i => {
                    XVal::known(init.clone()).merge(&vals[next.0])
                }
                Driver::Reg { .. } => forward.next().expect("held in net order").1.clone(),
                Driver::Rom { rom, index } => XVal::rom(&m.roms[*rom], &vals[index.0]),
                Driver::Comb { op, args, lo } => {
                    XVal::comb(*op, |k| &vals[args[k].0], *lo, net.width)
                }
            };
            vals.push(v);
        }
        let mut lost = false;
        for (next, v) in &mut held {
            let joined = v.merge(&vals[next.0]);
            lost |= joined != *v;
            *v = joined;
        }
        if !lost {
            return (vals, sweeps);
        }
    }
}

/// Number of low bits that can carry information: width minus the run of
/// top bits known to be zero (the bits clear in `value | !known`).
fn live_width(v: &XVal) -> u32 {
    let maybe_one = v.value_plane().or(&v.known_plane().not());
    v.width() - maybe_one.leading_zeros()
}

/// A planned rewrite of one net; its operands are the module's own ids.
enum Rewrite {
    /// Replace the driver.
    Driver(Driver),
    /// Compute the comb operator at width `t` (a mux's select kept whole)
    /// and `ZExt` it back.
    Narrow(u32),
    /// Hold the register in its low `t` bits and `ZExt` it back.
    Reg(u32),
}

fn analyze(m: &Module, vals: &[XVal], i: usize) -> Option<Rewrite> {
    let net = &m.nets[i];
    let w = net.width;
    let live = |a: NetId| live_width(&vals[a.0]);
    match &net.driver {
        Driver::Comb { .. } | Driver::Rom { .. } | Driver::Reg { .. }
            if vals[i].is_fully_known() =>
        {
            Some(Rewrite::Driver(Driver::Const(
                vals[i].value_plane().clone(),
            )))
        }
        Driver::Reg { .. } => {
            let t = live_width(&vals[i]);
            (t < w).then_some(Rewrite::Reg(t))
        }
        Driver::Comb { op, args, .. } => {
            let t = match op {
                CombOp::Add => live(args[0]).max(live(args[1])).saturating_add(1),
                CombOp::Mul => live(args[0]).saturating_add(live(args[1])),
                CombOp::And | CombOp::Or | CombOp::Xor => live(args[0]).max(live(args[1])),
                CombOp::Mux => live(args[1]).max(live(args[2])),
                CombOp::SExt => {
                    let src = &vals[args[0].0];
                    let sw = src.width();
                    let sign_zero =
                        sw < w && src.known_plane().bit(sw - 1) && !src.value_plane().bit(sw - 1);
                    return sign_zero
                        .then(|| Rewrite::Driver(comb(CombOp::ZExt, vec![args[0]], 0)));
                }
                _ => return None,
            }
            .max(1);
            (t < w).then_some(Rewrite::Narrow(t))
        }
        _ => None,
    }
}

/// The low `t` bits of placed net `a` (at least `t` wide), for a narrowed
/// operand: `a` itself at width `t`; through an extend, its source
/// truncated or re-extended to `t`; otherwise a `Trunc` of `a`.
fn low(out: &mut Rebuilt, a: NetId, t: u32, name: &str) -> NetId {
    let net = out.net(a);
    if net.width == t {
        return a;
    }
    if let Driver::Comb {
        op: op @ (CombOp::ZExt | CombOp::SExt),
        args,
        ..
    } = &net.driver
    {
        let (op, src) = (*op, args[0]);
        return if out.net(src).width >= t {
            low(out, src, t, name)
        } else {
            out.push(comb(op, vec![src], 0), t, name)
        };
    }
    out.push(comb(CombOp::Trunc, vec![a], 0), t, name)
}

/// Places register `net`, old net `i`, as a `t`-bit register behind a
/// `ZExt`. If its `next` and `enable` come before it, its `Trunc` goes
/// right before it, so it still reads backward; otherwise its `next` is
/// truncated after the last net.
fn narrow_reg(i: usize, net: Net, t: u32, out: &mut Rebuilt) -> NetId {
    let Driver::Reg { next, enable, init } = net.driver else {
        unreachable!("planned a register rewrite for a non-register")
    };
    let (w, name) = (net.width, &net.name);
    let init = init.trunc(t);
    let reg = if next.0 < i && enable.is_none_or(|e| e.0 < i) {
        let next = low(out, out.map(next), t, name);
        let enable = enable.map(|e| out.map(e));
        out.push(Driver::Reg { next, enable, init }, t, name)
    } else {
        let next = out.append(comb(CombOp::Trunc, vec![next], 0), t, name);
        out.keep(Net {
            driver: Driver::Reg { next, enable, init },
            width: t,
            name: name.clone(),
        })
    };
    out.push(comb(CombOp::ZExt, vec![reg], 0), w, name)
}

pub(super) fn run(m: &mut Module) -> u64 {
    let (vals, _) = abstract_eval(m);
    let mut plan: Vec<Option<Rewrite>> = (0..m.nets.len()).map(|i| analyze(m, &vals, i)).collect();
    let count = plan.iter().flatten().count() as u64;
    if count == 0 {
        return 0;
    }
    rebuild(m, |i, mut net, out| {
        Some(match plan[i].take() {
            None => out.keep(net),
            Some(Rewrite::Driver(driver)) => {
                net.driver = driver;
                out.keep(net)
            }
            Some(Rewrite::Narrow(t)) => {
                let Driver::Comb { op, args, .. } = &net.driver else {
                    unreachable!("planned a narrowing for a non-comb net")
                };
                let (w, name) = (net.width, &net.name);
                let mut args: Vec<NetId> = args.iter().map(|&a| out.map(a)).collect();
                // A mux's select keeps its width; every other operand is
                // narrowed.
                let data = usize::from(*op == CombOp::Mux);
                for a in &mut args[data..] {
                    *a = low(out, *a, t, name);
                }
                let narrow = out.push(comb(*op, args, 0), t, name);
                out.push(comb(CombOp::ZExt, vec![narrow], 0), w, name)
            }
            Some(Rewrite::Reg(t)) => narrow_reg(i, net, t, out),
        })
    });
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::PortDir;
    use bits::ApInt;

    /// Two 8-bit inputs zero-extended to 32, then added/multiplied at 32.
    fn wide_module(op: CombOp) -> Module {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 32);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        let wa = m.add_net(comb(CombOp::ZExt, vec![na], 0), 32, "wa");
        let wb = m.add_net(comb(CombOp::ZExt, vec![nb], 0), 32, "wb");
        let r = m.add_net(comb(op, vec![wa, wb], 0), 32, "r");
        m.connect_output(o, r);
        m
    }

    #[test]
    fn wide_ops_on_narrow_data_shrink() {
        for (op, expect) in [(CombOp::Add, 9), (CombOp::Mul, 16), (CombOp::Xor, 8)] {
            let m = wide_module(op);
            let mut narrowed = m.clone();
            assert_eq!(run(&mut narrowed), 1, "{op:?}");
            crate::lint::lint_module(&narrowed).unwrap();
            let found = narrowed
                .nets
                .iter()
                .find(|n| matches!(&n.driver, Driver::Comb { op: x, .. } if *x == op))
                .unwrap_or_else(|| panic!("{op:?} missing"));
            assert_eq!(found.width, expect, "{op:?}");
            super::super::verify_equivalent(&m, &narrowed, &Default::default(), 24).unwrap();
        }
    }

    #[test]
    fn masked_constants_fold_through_the_planes() {
        // x & 0 is fully known even though x is an input.
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let zero = m.add_net(Driver::Const(ApInt::zero(8)), 8, "z");
        let and = m.add_net(comb(CombOp::And, vec![na, zero], 0), 8, "and");
        m.connect_output(o, and);
        assert_eq!(run(&mut m), 1);
        assert_eq!(m.nets[and.0].driver, Driver::Const(ApInt::zero(8)));
    }

    #[test]
    fn sext_of_provably_positive_value_becomes_zext() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 16);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        // ZExt pads known zeros, so the 12-bit value has a known-zero sign.
        let pad = m.add_net(comb(CombOp::ZExt, vec![na], 0), 12, "pad");
        let sx = m.add_net(comb(CombOp::SExt, vec![pad], 0), 16, "sx");
        m.connect_output(o, sx);
        let mut narrowed = m.clone();
        run(&mut narrowed);
        assert!(
            matches!(
                &narrowed.nets[sx.0].driver,
                Driver::Comb {
                    op: CombOp::ZExt,
                    ..
                }
            ),
            "{:?}",
            narrowed.nets[sx.0].driver
        );
        super::super::verify_equivalent(&m, &narrowed, &Default::default(), 24).unwrap();
    }

    #[test]
    fn already_tight_ops_are_untouched() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        let x = m.add_net(comb(CombOp::Xor, vec![na, nb], 0), 8, "x");
        m.connect_output(o, x);
        let mut out = m.clone();
        assert_eq!(run(&mut out), 0);
        assert_eq!(out, m);
    }

    /// Runs the pass on a copy of `m`; the result must lint and match `m`
    /// from reset for 64 cycles.
    fn narrowed(m: &Module) -> (Module, u64) {
        let mut out = m.clone();
        let count = run(&mut out);
        crate::lint::lint_module(&out).unwrap();
        super::super::verify_equivalent(m, &out, &Default::default(), 64).unwrap();
        (out, count)
    }

    /// Every register of `m` as `(net, width, next)`.
    fn registers(m: &Module) -> Vec<(usize, u32, NetId)> {
        let reg = |(i, n): (usize, &Net)| match n.driver {
            Driver::Reg { next, .. } => Some((i, n.width, next)),
            _ => None,
        };
        m.nets.iter().enumerate().filter_map(reg).collect()
    }

    fn reg(next: NetId, init: u64, width: u32) -> Driver {
        Driver::Reg {
            next,
            enable: None,
            init: ApInt::from_u64(init, width),
        }
    }

    #[test]
    fn pipeline_registers_of_a_narrow_input_narrow_and_read_backward() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 32);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let mut stage = m.add_net(comb(CombOp::ZExt, vec![na], 0), 32, "wide");
        for k in 0..3 {
            stage = m.add_net(reg(stage, 0, 32), 32, &format!("r{k}"));
        }
        m.connect_output(o, stage);
        assert_eq!(
            abstract_eval(&m).1,
            1,
            "backward registers join in one sweep"
        );
        let (out, count) = narrowed(&m);
        assert_eq!(count, 3);
        let regs = registers(&out);
        assert_eq!(regs.len(), 3);
        for (i, width, next) in regs {
            assert_eq!(width, 8, "register {i}");
            assert!(next.0 < i, "register {i} reads net {} forward", next.0);
        }
        // Each narrowed register reads the narrow value, not a `Trunc`.
        assert!(!out.nets.iter().any(|n| matches!(
            n.driver,
            Driver::Comb {
                op: CombOp::Trunc,
                ..
            }
        )));
        assert_eq!(abstract_eval(&out).1, 1);
    }

    #[test]
    fn a_counter_that_reads_forward_narrows_to_its_mask() {
        // r = (r + 1) & 0xF, with the increment defined after r.
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        let r = m.add_net(reg(NetId(4), 0, 8), 8, "r");
        let one = m.add_net(Driver::Const(ApInt::one(8)), 8, "one");
        let inc = m.add_net(comb(CombOp::Add, vec![r, one], 0), 8, "inc");
        let mask = m.add_net(Driver::Const(ApInt::from_u64(0xF, 8)), 8, "mask");
        let wrapped = m.add_net(comb(CombOp::And, vec![inc, mask], 0), 8, "wrapped");
        assert_eq!(wrapped, NetId(4));
        m.connect_output(o, r);
        assert!(
            abstract_eval(&m).1 > 1,
            "a forward register needs a second sweep"
        );
        let (out, _) = narrowed(&m);
        let regs = registers(&out);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].1, 4);
    }

    #[test]
    fn a_register_reset_with_its_top_bit_set_stays_wide() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 4);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 4, "a");
        let wide = m.add_net(comb(CombOp::ZExt, vec![na], 0), 8, "wide");
        let r = m.add_net(reg(wide, 0x80, 8), 8, "r");
        m.connect_output(o, r);
        let (out, count) = narrowed(&m);
        assert_eq!(count, 0);
        assert_eq!(out, m);
    }

    #[test]
    fn a_register_that_keeps_its_reset_value_is_a_constant() {
        let mut m = Module::new("t");
        let en = m.add_port("en", PortDir::Input, 1);
        let o0 = m.add_port("o0", PortDir::Output, 8);
        let o1 = m.add_port("o1", PortDir::Output, 8);
        let nen = m.add_net(Driver::Input { port: en }, 1, "en");
        // Holds itself.
        let held = m.add_net(reg(NetId(1), 5, 8), 8, "held");
        // Loads a constant equal to its reset value when enabled.
        let seven = m.add_net(Driver::Const(ApInt::from_u64(7, 8)), 8, "seven");
        let reloaded = m.add_net(
            Driver::Reg {
                next: seven,
                enable: Some(nen),
                init: ApInt::from_u64(7, 8),
            },
            8,
            "reloaded",
        );
        m.connect_output(o0, held);
        m.connect_output(o1, reloaded);
        let (out, count) = narrowed(&m);
        assert_eq!(count, 2);
        assert_eq!(
            out.nets[held.0].driver,
            Driver::Const(ApInt::from_u64(5, 8))
        );
        assert_eq!(
            out.nets[reloaded.0].driver,
            Driver::Const(ApInt::from_u64(7, 8))
        );
    }

    #[test]
    fn a_mux_narrows_only_when_both_arms_have_zero_top_bits() {
        let mut m = Module::new("t");
        let s = m.add_port("s", PortDir::Input, 1);
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let c = m.add_port("c", PortDir::Input, 32);
        let o0 = m.add_port("o0", PortDir::Output, 32);
        let o1 = m.add_port("o1", PortDir::Output, 32);
        let ns = m.add_net(Driver::Input { port: s }, 1, "s");
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        let nc = m.add_net(Driver::Input { port: c }, 32, "c");
        let wa = m.add_net(comb(CombOp::ZExt, vec![na], 0), 32, "wa");
        let wb = m.add_net(comb(CombOp::ZExt, vec![nb], 0), 32, "wb");
        let both = m.add_net(comb(CombOp::Mux, vec![ns, wa, wb], 0), 32, "both");
        let one = m.add_net(comb(CombOp::Mux, vec![ns, wa, nc], 0), 32, "one");
        m.connect_output(o0, both);
        m.connect_output(o1, one);
        let (out, count) = narrowed(&m);
        assert_eq!(count, 1);
        let muxes: Vec<(u32, &[NetId])> = out
            .nets
            .iter()
            .filter_map(|n| match &n.driver {
                Driver::Comb {
                    op: CombOp::Mux,
                    args,
                    ..
                } => Some((n.width, &args[..])),
                _ => None,
            })
            .collect();
        // The narrowed mux selects between the 8-bit sources themselves.
        assert_eq!(muxes, [(8, &[ns, na, nb][..]), (32, &[ns, wa, nc][..])]);
    }
}
