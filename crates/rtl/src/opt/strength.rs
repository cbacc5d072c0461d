//! Strength reduction: `Mul`/`DivU`/`RemU` by constant powers of two.
//!
//! In the area model a `w`-bit multiplier costs `O(w²)` gate equivalents
//! and a divider ~6× that, while `Extract`/`Concat`/`ZExt` are free wiring
//! — so a power-of-two operand turns real arithmetic into wires:
//!
//! * `a * 2^k  → Concat(a[w-k-1:0], 0…0)`   (shift left by wiring)
//! * `a / 2^k  → ZExt(a[w-1:k])`            (shift right by wiring)
//! * `a % 2^k  → ZExt(a[k-1:0])`            (mask by wiring)
//!
//! `k = 0` (multiply/divide by one, remainder by one) belongs to constant
//! folding. This pass inserts nets, so it plans its rewrites in one scan
//! and then [`rebuild`]s the module (new nets are emitted immediately
//! before their user, preserving definition order); when nothing applies
//! the scan is all it costs.
//!
//! Four-state discipline: the wiring forms propagate per-bit X where the
//! original `Mul`/`DivU`/`RemU` X-poisoned the whole word — a strict
//! refinement — and compute identical values on known operands (the
//! divisor `2^k` is never zero, so division guarding does not matter).

use super::{as_const, comb, rebuild};
use crate::netlist::{CombOp, Driver, Module, NetId};
use bits::ApInt;

/// `Some(k)` if `c` is exactly `2^k` with `k > 0`.
fn pow2_exponent(c: &ApInt) -> Option<u32> {
    let mut k = None;
    for (li, &limb) in c.limbs().iter().enumerate() {
        if limb == 0 {
            continue;
        }
        if limb.count_ones() != 1 || k.is_some() {
            return None;
        }
        k = Some(li as u32 * 64 + limb.trailing_zeros());
    }
    k.filter(|&k| k > 0)
}

/// A reducible net's op, value operand, and exponent.
fn reducible(m: &Module, i: usize) -> Option<(CombOp, NetId, u32)> {
    let Driver::Comb { op, args, .. } = &m.nets[i].driver else {
        return None;
    };
    let w = m.nets[i].width;
    match op {
        CombOp::Mul => {
            // Either operand may be the power of two.
            for (value, konst) in [(args[0], args[1]), (args[1], args[0])] {
                if let Some(k) = as_const(m, konst).and_then(pow2_exponent) {
                    if k < w {
                        return Some((CombOp::Mul, value, k));
                    }
                }
            }
            None
        }
        CombOp::DivU | CombOp::RemU => {
            let k = as_const(m, args[1]).and_then(pow2_exponent)?;
            (k < w).then_some((*op, args[0], k))
        }
        _ => None,
    }
}

pub(super) fn run(m: &mut Module) -> u64 {
    let plan: Vec<(usize, (CombOp, NetId, u32))> = (0..m.nets.len())
        .filter_map(|i| reducible(m, i).map(|r| (i, r)))
        .collect();
    if plan.is_empty() {
        return 0;
    }
    let mut plan_iter = plan.iter().peekable();
    rebuild(m, |i, net, out| {
        let Some(&(_, (op, value, k))) = plan_iter.next_if(|&&(j, _)| j == i) else {
            return Some(out.keep(net));
        };
        let (w, name) = (net.width, &net.name);
        let a = out.map(value);
        Some(match op {
            CombOp::Mul => {
                // {a[w-k-1:0], k'b0}
                let low = out.push(comb(CombOp::Extract, vec![a], 0), w - k, name);
                let zeros = out.push(Driver::Const(ApInt::zero(k)), k, "");
                out.push(comb(CombOp::Concat, vec![low, zeros], 0), w, name)
            }
            CombOp::DivU => {
                let high = out.push(comb(CombOp::Extract, vec![a], k), w - k, name);
                out.push(comb(CombOp::ZExt, vec![high], 0), w, name)
            }
            CombOp::RemU => {
                let low = out.push(comb(CombOp::Extract, vec![a], 0), k, name);
                out.push(comb(CombOp::ZExt, vec![low], 0), w, name)
            }
            _ => unreachable!(),
        })
    });
    plan.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Simulator;
    use crate::netlist::PortDir;
    use std::collections::HashMap;

    fn module_with(op: CombOp, konst: u64) -> Module {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let c = m.add_net(Driver::Const(ApInt::from_u64(konst, 8)), 8, "c");
        let r = m.add_net(
            Driver::Comb {
                op,
                args: vec![na, c],
                lo: 0,
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        m
    }

    fn eval(m: &Module, a: u64) -> u64 {
        let mut sim = Simulator::new(m.clone());
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), ApInt::from_u64(a, 8));
        sim.eval(&inputs)["o"].to_u64()
    }

    #[test]
    fn pow2_exponent_detects_only_real_powers() {
        assert_eq!(pow2_exponent(&ApInt::from_u64(8, 32)), Some(3));
        assert_eq!(pow2_exponent(&ApInt::one(32).shl_bits(20)), Some(20));
        assert_eq!(
            pow2_exponent(&ApInt::from_u64(1, 8)),
            None,
            "k=0 is folding's job"
        );
        assert_eq!(pow2_exponent(&ApInt::from_u64(6, 8)), None);
        assert_eq!(pow2_exponent(&ApInt::zero(8)), None);
    }

    #[test]
    fn mul_div_rem_by_pow2_become_wiring() {
        for (op, konst) in [(CombOp::Mul, 8u64), (CombOp::DivU, 4), (CombOp::RemU, 16)] {
            let m = module_with(op, konst);
            let mut reduced = m.clone();
            assert_eq!(run(&mut reduced), 1, "{op:?}");
            crate::lint::lint_module(&reduced).unwrap();
            assert!(
                !reduced.nets.iter().any(|n| matches!(
                    &n.driver,
                    Driver::Comb { op: x, .. } if x == &op
                )),
                "{op:?} survived"
            );
            for a in [0u64, 1, 7, 100, 255] {
                assert_eq!(eval(&m, a), eval(&reduced, a), "{op:?} a={a}");
            }
        }
    }

    #[test]
    fn non_pow2_and_signed_ops_are_left_alone() {
        for (op, konst) in [(CombOp::Mul, 6u64), (CombOp::DivS, 4), (CombOp::RemS, 8)] {
            let m = module_with(op, konst);
            let mut out = m.clone();
            assert_eq!(run(&mut out), 0, "{op:?} by {konst}");
            assert_eq!(out, m);
        }
    }
}
