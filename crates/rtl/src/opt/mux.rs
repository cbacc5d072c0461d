//! Mux-tree flattening.
//!
//! In-place rewrites over `CombOp::Mux` nets (constant selects are
//! handled by constant folding):
//!
//! * identical arms — the select is irrelevant, alias the arm,
//! * same-select nesting — `Mux(c, Mux(c, a, b), e) → Mux(c, a, e)` and
//!   `Mux(c, t, Mux(c, a, b)) → Mux(c, t, b)`, collapsing one level of a
//!   redundant tree per sweep (the fixpoint driver finishes deep trees),
//! * inverted selects — `Mux(Not(c), t, e) → Mux(c, e, t)`,
//! * 1-bit boolean muxes — `Mux(c, 1, 0) → c` and `Mux(c, 0, 1) → Not(c)`.
//!
//! Four-state discipline: identical arms and same-select collapses only
//! widen the known set (the pessimistic arm-merge of an X select can only
//! lose bits relative to the surviving arm); the other rules are exact.

use super::{as_const, Replacements};
use crate::netlist::{CombOp, Driver, Module, NetId};

/// The (cond, then, else) of a mux driver, if `id` is one.
fn mux_parts(m: &Module, id: NetId) -> Option<(NetId, NetId, NetId)> {
    match &m.nets[id.0].driver {
        Driver::Comb {
            op: CombOp::Mux,
            args,
            ..
        } => Some((args[0], args[1], args[2])),
        _ => None,
    }
}

pub(super) fn run(m: &mut Module) -> u64 {
    let mut repl = Replacements::new(m.nets.len());
    let mut rewrites = 0u64;
    for i in 0..m.nets.len() {
        for a in m.nets[i].driver.comb_operands_mut() {
            *a = repl.resolve(*a);
        }
        let width = m.nets[i].width;
        let Some((c, t, e)) = mux_parts(m, NetId(i)) else {
            continue;
        };
        // Identical arms: the select cannot matter.
        if t == e {
            repl.alias(i, t);
            continue;
        }
        // 1-bit boolean muxes.
        if width == 1 {
            let tc = as_const(m, t).map(|v| !v.is_zero());
            let ec = as_const(m, e).map(|v| !v.is_zero());
            match (tc, ec) {
                (Some(true), Some(false)) => {
                    repl.alias(i, c);
                    continue;
                }
                (Some(false), Some(true)) => {
                    m.nets[i].driver = Driver::Comb {
                        op: CombOp::Not,
                        args: vec![c],
                        lo: 0,
                    };
                    rewrites += 1;
                    continue;
                }
                _ => {}
            }
        }
        // Inverted select: swap the arms and use the inner condition.
        if let Driver::Comb {
            op: CombOp::Not,
            args: not_args,
            ..
        } = &m.nets[c.0].driver
        {
            m.nets[i].driver = Driver::Comb {
                op: CombOp::Mux,
                args: vec![not_args[0], e, t],
                lo: 0,
            };
            rewrites += 1;
            continue;
        }
        // Same-select nesting.
        let mut new_t = t;
        let mut new_e = e;
        if let Some((ic, it, _)) = mux_parts(m, t) {
            if ic == c {
                new_t = it;
            }
        }
        if let Some((ic, _, ie)) = mux_parts(m, e) {
            if ic == c {
                new_e = ie;
            }
        }
        if new_t != t || new_e != e {
            m.nets[i].driver = Driver::Comb {
                op: CombOp::Mux,
                args: vec![c, new_t, new_e],
                lo: 0,
            };
            rewrites += 1;
        }
    }
    let aliased = repl.aliased();
    repl.apply(m);
    rewrites + aliased
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::PortDir;
    use bits::ApInt;

    fn harness() -> (Module, NetId, NetId, NetId, usize) {
        let mut m = Module::new("t");
        let c = m.add_port("c", PortDir::Input, 1);
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let nc = m.add_net(Driver::Input { port: c }, 1, "c");
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        (m, nc, na, nb, o)
    }

    fn mux(c: NetId, t: NetId, e: NetId) -> Driver {
        Driver::Comb {
            op: CombOp::Mux,
            args: vec![c, t, e],
            lo: 0,
        }
    }

    #[test]
    fn same_condition_trees_flatten() {
        let (mut m, nc, na, nb, o) = harness();
        let inner = m.add_net(mux(nc, na, nb), 8, "inner");
        let outer = m.add_net(mux(nc, inner, nb), 8, "outer");
        m.connect_output(o, outer);
        assert_eq!(run(&mut m), 1);
        match &m.nets[outer.0].driver {
            Driver::Comb { args, .. } => {
                assert_eq!(args[1], na, "then-arm bypasses the inner mux");
            }
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn identical_arms_drop_the_mux() {
        let (mut m, nc, na, _nb, o) = harness();
        let mx = m.add_net(mux(nc, na, na), 8, "mx");
        let user = m.add_net(
            Driver::Comb {
                op: CombOp::Not,
                args: vec![mx],
                lo: 0,
            },
            8,
            "user",
        );
        m.connect_output(o, user);
        assert_eq!(run(&mut m), 1);
        match &m.nets[user.0].driver {
            Driver::Comb { args, .. } => assert_eq!(args[0], na),
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn inverted_selects_swap_arms_and_boolean_muxes_collapse() {
        let (mut m, nc, na, nb, o) = harness();
        let inv = m.add_net(
            Driver::Comb {
                op: CombOp::Not,
                args: vec![nc],
                lo: 0,
            },
            1,
            "inv",
        );
        let mx = m.add_net(mux(inv, na, nb), 8, "mx");
        let one = m.add_net(Driver::Const(ApInt::one(1)), 1, "one");
        let zero = m.add_net(Driver::Const(ApInt::zero(1)), 1, "zero");
        let boolean = m.add_net(mux(nc, one, zero), 1, "boolean");
        let pad = m.add_net(
            Driver::Comb {
                op: CombOp::ZExt,
                args: vec![boolean],
                lo: 0,
            },
            8,
            "pad",
        );
        let sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![mx, pad],
                lo: 0,
            },
            8,
            "sum",
        );
        m.connect_output(o, sum);
        assert_eq!(run(&mut m), 2);
        match &m.nets[mx.0].driver {
            Driver::Comb { args, .. } => {
                assert_eq!(args[0], nc, "select de-inverted");
                assert_eq!(args[1], nb, "arms swapped");
                assert_eq!(args[2], na);
            }
            d => panic!("{d:?}"),
        }
        match &m.nets[pad.0].driver {
            Driver::Comb { args, .. } => assert_eq!(args[0], nc, "Mux(c,1,0) is c"),
            d => panic!("{d:?}"),
        }
    }
}
