//! Common-subexpression elimination.
//!
//! Forward sweep hash-consing every pure driver — `Comb` (op, canonical
//! args, `lo`, width), `Const` (width, value), and `Rom` (table, index,
//! width) — into a map; a net whose key was already seen is aliased to the
//! first occurrence. Commutative operators sort their argument pair so
//! `a + b` and `b + a` share. Register and input nets are never consed
//! (registers carry state; inputs are distinct ports).

use super::Replacements;
use crate::netlist::{CombOp, Driver, Module, NetId};
use std::collections::HashMap;

#[derive(PartialEq, Eq, Hash)]
enum Key {
    Comb(u8, Vec<NetId>, u32, u32),
    Const(u32, Vec<u64>),
    Rom(usize, NetId, u32),
}

fn commutes(op: CombOp) -> bool {
    matches!(
        op,
        CombOp::Add
            | CombOp::Mul
            | CombOp::And
            | CombOp::Or
            | CombOp::Xor
            | CombOp::Eq
            | CombOp::Ne
    )
}

pub(super) fn run(m: &mut Module) -> u64 {
    let mut repl = Replacements::new(m.nets.len());
    let mut seen: HashMap<Key, NetId> = HashMap::new();
    for i in 0..m.nets.len() {
        for a in m.nets[i].driver.comb_operands_mut() {
            *a = repl.resolve(*a);
        }
        let width = m.nets[i].width;
        let key = match &m.nets[i].driver {
            Driver::Comb { op, args, lo } => {
                let mut canon = args.clone();
                if commutes(*op) && canon[0].0 > canon[1].0 {
                    canon.swap(0, 1);
                }
                Some(Key::Comb(*op as u8, canon, *lo, width))
            }
            Driver::Const(c) => Some(Key::Const(width, c.limbs().to_vec())),
            Driver::Rom { rom, index } => Some(Key::Rom(*rom, *index, width)),
            Driver::Input { .. } | Driver::Reg { .. } => None,
        };
        if let Some(key) = key {
            match seen.get(&key) {
                Some(&first) => repl.alias(i, first),
                None => {
                    seen.insert(key, NetId(i));
                }
            }
        }
    }
    let aliased = repl.aliased();
    repl.apply(m);
    aliased
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::PortDir;
    use bits::ApInt;

    #[test]
    fn duplicate_and_commuted_expressions_share() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        let s1 = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, nb],
                lo: 0,
            },
            8,
            "s1",
        );
        let s2 = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![nb, na], // commuted duplicate
                lo: 0,
            },
            8,
            "s2",
        );
        let x = m.add_net(
            Driver::Comb {
                op: CombOp::Xor,
                args: vec![s1, s2],
                lo: 0,
            },
            8,
            "x",
        );
        m.connect_output(o, x);
        assert_eq!(run(&mut m), 1);
        match &m.nets[x.0].driver {
            Driver::Comb { args, .. } => {
                assert_eq!(args[0], s1);
                assert_eq!(args[1], s1, "commuted add must alias");
            }
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn duplicate_constants_share_but_registers_do_not() {
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        let c1 = m.add_net(Driver::Const(ApInt::from_u64(7, 8)), 8, "c1");
        let c2 = m.add_net(Driver::Const(ApInt::from_u64(7, 8)), 8, "c2");
        let r1 = m.add_net(
            Driver::Reg {
                next: c1,
                enable: None,
                init: ApInt::zero(8),
            },
            8,
            "r1",
        );
        let r2 = m.add_net(
            Driver::Reg {
                next: c2,
                enable: None,
                init: ApInt::zero(8),
            },
            8,
            "r2",
        );
        let sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![r1, r2],
                lo: 0,
            },
            8,
            "sum",
        );
        m.connect_output(o, sum);
        assert_eq!(run(&mut m), 1, "only the constant pair is consed");
        match &m.nets[r2.0].driver {
            Driver::Reg { next, .. } => assert_eq!(*next, c1),
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn different_widths_never_collide() {
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 9);
        let c8 = m.add_net(Driver::Const(ApInt::zero(8)), 8, "c8");
        let c9 = m.add_net(Driver::Const(ApInt::zero(9)), 9, "c9");
        let pad = m.add_net(
            Driver::Comb {
                op: CombOp::ZExt,
                args: vec![c8],
                lo: 0,
            },
            9,
            "pad",
        );
        let or = m.add_net(
            Driver::Comb {
                op: CombOp::Or,
                args: vec![pad, c9],
                lo: 0,
            },
            9,
            "or",
        );
        m.connect_output(o, or);
        run(&mut m);
        crate::lint::lint_module(&m).unwrap();
    }
}
