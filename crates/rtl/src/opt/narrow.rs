//! Bitwidth narrowing driven by the value/known planes of [`crate::xsim`].
//!
//! The pass abstractly evaluates the module once with every input,
//! register, and dynamic ROM read held all-X and constants fully known,
//! using the exact four-state operator semantics of the simulator. Every
//! operator is monotone under refinement (turning an input X bit into a
//! value never changes an already-known output bit), so any bit that
//! comes out *known* in this evaluation holds that value under every
//! concrete stimulus and register state. Three rewrites follow:
//!
//! * a combinational or ROM net whose abstract value is fully known is a
//!   constant,
//! * `Add`/`Mul`/`And`/`Or`/`Xor` whose operands provably fit in `t < w`
//!   bits (counting top known-zero bits, with a carry bit for `Add` and
//!   the width sum for `Mul`) are re-emitted at width `t` behind `Trunc`s
//!   and the result `ZExt`-patched back to `w` — extends and truncates
//!   are free wiring in the area model while adder/multiplier area scales
//!   with width,
//! * `SExt` whose source sign bit is provably zero becomes `ZExt`.
//!
//! The evaluation runs in definition order, reading each operand from an
//! earlier net, so the pass relies on its input linting clean (the pass
//! manager checks it).
//! Narrowing strictly shrinks the computed width each time it fires, so
//! the fixpoint terminates. The pass inserts nets, so it plans every
//! rewrite first and then [`rebuild`]s the module like [`super::strength`].

use super::{comb, rebuild};
use crate::netlist::{CombOp, Driver, Module, NetId};
use crate::xsim::{eval_comb, eval_rom, XVal};

/// Abstract per-net values: all-X at the boundary, exact everywhere else.
fn abstract_eval(m: &Module) -> Vec<XVal> {
    let mut vals: Vec<XVal> = Vec::with_capacity(m.nets.len());
    for net in &m.nets {
        let v = match &net.driver {
            Driver::Input { .. } | Driver::Reg { .. } => XVal::all_x(net.width),
            Driver::Const(c) => XVal::known(c.clone()),
            Driver::Rom { rom, index } => eval_rom(&m.roms[*rom], &vals[index.0]),
            Driver::Comb { op, args, lo } => eval_comb(*op, |k| &vals[args[k].0], *lo, net.width),
        };
        vals.push(v);
    }
    vals
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
    /// Compute `op` at width `t` behind `Trunc`s and `ZExt` it back.
    Narrow(CombOp, NetId, NetId, u32),
}

fn analyze(m: &Module, vals: &[XVal], i: usize) -> Option<Rewrite> {
    let net = &m.nets[i];
    let w = net.width;
    match &net.driver {
        Driver::Comb { .. } | Driver::Rom { .. } if vals[i].is_fully_known() => Some(
            Rewrite::Driver(Driver::Const(vals[i].value_plane().clone())),
        ),
        Driver::Comb { op, args, .. } => match op {
            CombOp::Add | CombOp::Mul | CombOp::And | CombOp::Or | CombOp::Xor => {
                let (a, b) = (args[0], args[1]);
                let (ua, ub) = (live_width(&vals[a.0]), live_width(&vals[b.0]));
                let t = match op {
                    CombOp::Add => ua.max(ub).saturating_add(1),
                    CombOp::Mul => ua.saturating_add(ub),
                    _ => ua.max(ub),
                }
                .max(1);
                (t < w).then_some(Rewrite::Narrow(*op, a, b, t))
            }
            CombOp::SExt => {
                let src = &vals[args[0].0];
                let sw = src.width();
                let sign_zero =
                    sw < w && src.known_plane().bit(sw - 1) && !src.value_plane().bit(sw - 1);
                sign_zero.then(|| Rewrite::Driver(comb(CombOp::ZExt, vec![args[0]], 0)))
            }
            _ => None,
        },
        _ => None,
    }
}

pub(super) fn run(m: &mut Module) -> u64 {
    let vals = abstract_eval(m);
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
            Some(Rewrite::Narrow(op, a, b, t)) => {
                let (w, name) = (net.width, &net.name);
                let ta = out.push(comb(CombOp::Trunc, vec![out.map(a)], 0), t, name);
                let tb = out.push(comb(CombOp::Trunc, vec![out.map(b)], 0), t, name);
                let narrow = out.push(comb(op, vec![ta, tb], 0), t, name);
                out.push(comb(CombOp::ZExt, vec![narrow], 0), w, name)
            }
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
}
