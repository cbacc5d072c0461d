//! Constant folding and propagation.
//!
//! One forward sweep: every combinational net whose operands are all
//! constants is evaluated with the interpreter's semantics and replaced by
//! `Driver::Const`; constant-index ROM reads become the table word; and a
//! catalog of algebraic identities either aliases the net to an existing
//! operand (`x + 0`, `x & x`, `Mux(1, t, e)`, double negation,
//! extend/truncate chains) or simplifies its driver in place. Aliases only
//! ever point backward, so topological order is preserved; dead originals
//! are swept by DCE.
//!
//! Four-state discipline: every rewrite here either keeps the xsim
//! knownness of the net exactly (identities whose dropped operand is a
//! constant, which is always fully known) or strictly refines it
//! (`x - x → 0` is known even when `x` is X). Known bits never change
//! value: on fully-known operands the interpreter and the four-state
//! simulator compute the same function for every lint-clean operator.

use super::{as_const, Replacements};
use crate::interp::eval_comb;
use crate::netlist::{CombOp, Driver, Module, NetId};
use bits::ApInt;

/// What the analysis decided for one net.
enum Rewrite {
    /// Replace the driver.
    Driver(Driver),
    /// The net is equivalent to an existing (earlier) net.
    Alias(NetId),
}

pub(super) fn run(m: &mut Module) -> u64 {
    let mut repl = Replacements::new(m.nets.len());
    let mut rewrites = 0u64;
    for i in 0..m.nets.len() {
        // Canonicalize this net's backward references first so identity
        // matching sees through earlier aliases.
        match &mut m.nets[i].driver {
            Driver::Comb { args, .. } => {
                for a in args.iter_mut() {
                    *a = repl.resolve(*a);
                }
            }
            Driver::Rom { index, .. } => *index = repl.resolve(*index),
            _ => {}
        }
        let width = m.nets[i].width;
        let decision = match &m.nets[i].driver {
            Driver::Comb { op, args, lo } => analyze_comb(m, *op, args, *lo, width),
            Driver::Rom { rom, index } => as_const(m, *index).map(|idx| {
                let table = &m.roms[*rom];
                let word = idx
                    .try_to_u64()
                    .and_then(|v| usize::try_from(v).ok())
                    .and_then(|k| table.contents.get(k))
                    .cloned()
                    .unwrap_or_else(|| ApInt::zero(table.width));
                Rewrite::Driver(Driver::Const(word))
            }),
            _ => None,
        };
        match decision {
            Some(Rewrite::Driver(d)) if m.nets[i].driver != d => {
                m.nets[i].driver = d;
                rewrites += 1;
            }
            Some(Rewrite::Driver(_)) => {}
            Some(Rewrite::Alias(t)) => {
                debug_assert_eq!(m.nets[t.0].width, width);
                repl.alias(i, t);
            }
            None => {}
        }
    }
    let aliased = repl.aliased();
    repl.apply(m);
    rewrites + aliased
}

/// Alias `id` if its width matches the result width (always true on
/// lint-clean input; the guard keeps garbage netlists from getting worse).
fn alias_if(m: &Module, id: NetId, width: u32) -> Option<Rewrite> {
    (m.nets[id.0].width == width).then_some(Rewrite::Alias(id))
}

fn const_of(width: u32, value: ApInt) -> Option<Rewrite> {
    (value.width() == width).then_some(Rewrite::Driver(Driver::Const(value)))
}

fn analyze_comb(m: &Module, op: CombOp, args: &[NetId], lo: u32, width: u32) -> Option<Rewrite> {
    // Fully-constant operands: evaluate outright. Replicate with count 0
    // or zero-width results would panic in ApInt — leave those for lint.
    let consts: Vec<Option<&ApInt>> = args.iter().map(|&a| as_const(m, a)).collect();
    if !consts.is_empty() && consts.iter().all(Option::is_some) && width > 0 {
        let cargs: Vec<&ApInt> = consts.iter().map(|c| c.unwrap()).collect();
        if fold_is_safe(op, &cargs, lo, width) {
            return const_of(width, eval_comb(op, |k| cargs[k], lo, width));
        }
    }
    let c = |k: usize| consts.get(k).copied().flatten();
    match op {
        CombOp::Add => match (c(0), c(1)) {
            (Some(z), _) if z.is_zero() => alias_if(m, args[1], width),
            (_, Some(z)) if z.is_zero() => alias_if(m, args[0], width),
            _ => None,
        },
        CombOp::Sub => match c(1) {
            Some(z) if z.is_zero() => alias_if(m, args[0], width),
            _ if args[0] == args[1] => const_of(width, ApInt::zero(width)),
            _ => None,
        },
        CombOp::Mul => match (c(0), c(1)) {
            (Some(z), _) | (_, Some(z)) if z.is_zero() => const_of(width, ApInt::zero(width)),
            (Some(one), _) if *one == ApInt::one(one.width()) => alias_if(m, args[1], width),
            (_, Some(one)) if *one == ApInt::one(one.width()) => alias_if(m, args[0], width),
            _ => None,
        },
        CombOp::DivU => match c(1) {
            Some(one) if *one == ApInt::one(one.width()) => alias_if(m, args[0], width),
            _ => None,
        },
        CombOp::RemU => match c(1) {
            Some(one) if *one == ApInt::one(one.width()) => const_of(width, ApInt::zero(width)),
            _ => None,
        },
        CombOp::And => match (c(0), c(1)) {
            (Some(z), _) | (_, Some(z)) if z.is_zero() => const_of(width, ApInt::zero(width)),
            (Some(ones), _) if ones.is_all_ones() => alias_if(m, args[1], width),
            (_, Some(ones)) if ones.is_all_ones() => alias_if(m, args[0], width),
            _ if args[0] == args[1] => alias_if(m, args[0], width),
            _ => None,
        },
        CombOp::Or => match (c(0), c(1)) {
            (Some(z), _) if z.is_zero() => alias_if(m, args[1], width),
            (_, Some(z)) if z.is_zero() => alias_if(m, args[0], width),
            (Some(ones), _) | (_, Some(ones)) if ones.is_all_ones() => {
                const_of(width, ApInt::ones(width))
            }
            _ if args[0] == args[1] => alias_if(m, args[0], width),
            _ => None,
        },
        CombOp::Xor => match (c(0), c(1)) {
            (Some(z), _) if z.is_zero() => alias_if(m, args[1], width),
            (_, Some(z)) if z.is_zero() => alias_if(m, args[0], width),
            _ if args[0] == args[1] => const_of(width, ApInt::zero(width)),
            _ => None,
        },
        CombOp::Not => match &m.nets[args[0].0].driver {
            // Double negation: Not(Not(x)) → x.
            Driver::Comb {
                op: CombOp::Not,
                args: inner,
                ..
            } => alias_if(m, inner[0], width),
            _ => None,
        },
        CombOp::Shl | CombOp::ShrU | CombOp::ShrS => match c(1) {
            Some(z) if z.is_zero() => alias_if(m, args[0], width),
            _ => None,
        },
        CombOp::Eq | CombOp::Ule | CombOp::Sle if args[0] == args[1] && width == 1 => {
            const_of(width, ApInt::one(1))
        }
        CombOp::Ne | CombOp::Ult | CombOp::Slt if args[0] == args[1] && width == 1 => {
            const_of(width, ApInt::zero(1))
        }
        CombOp::Mux => match c(0) {
            Some(cond) if cond.is_zero() => alias_if(m, args[2], width),
            Some(_) => alias_if(m, args[1], width),
            None if args[1] == args[2] => alias_if(m, args[1], width),
            None => None,
        },
        CombOp::ZExt | CombOp::SExt | CombOp::Trunc => {
            let src = args[0];
            if m.nets[src.0].width == width {
                // Degenerate same-width extend/truncate: a plain alias.
                return alias_if(m, src, width);
            }
            // Collapse like-kind chains: ZExt(ZExt(x)) → ZExt(x) etc.
            // (Sound for SExt: extending w1→w2→w3 replicates the same sign
            // bit as w1→w3; for Trunc the outer cut keeps only low bits.)
            match &m.nets[src.0].driver {
                Driver::Comb {
                    op: inner_op,
                    args: inner,
                    ..
                } if *inner_op == op => {
                    let valid = match op {
                        CombOp::Trunc => m.nets[inner[0].0].width >= width,
                        _ => m.nets[inner[0].0].width <= width,
                    };
                    valid.then_some(Rewrite::Driver(Driver::Comb {
                        op,
                        args: vec![inner[0]],
                        lo: 0,
                    }))
                }
                _ => None,
            }
        }
        CombOp::Extract if lo == 0 && m.nets[args[0].0].width == width => {
            alias_if(m, args[0], width)
        }
        _ => None,
    }
}

/// Guards constant evaluation against ApInt panics on garbage shapes the
/// lint would reject (zero replicate counts, out-of-range concat widths).
fn fold_is_safe(op: CombOp, args: &[&ApInt], lo: u32, width: u32) -> bool {
    match op {
        CombOp::Replicate => {
            lo >= 1 && lo.checked_mul(args[0].width()) == Some(width)
        }
        CombOp::Concat => args[0].width() + args[1].width() == width,
        CombOp::ZExt | CombOp::SExt => width >= args[0].width(),
        CombOp::Trunc => width <= args[0].width(),
        CombOp::Extract => lo.checked_add(width).is_some(),
        CombOp::Add
        | CombOp::Sub
        | CombOp::Mul
        | CombOp::DivU
        | CombOp::DivS
        | CombOp::RemU
        | CombOp::RemS
        | CombOp::And
        | CombOp::Or
        | CombOp::Xor => args[0].width() == args[1].width() && args[0].width() == width,
        CombOp::Eq
        | CombOp::Ne
        | CombOp::Ult
        | CombOp::Ule
        | CombOp::Slt
        | CombOp::Sle => args[0].width() == args[1].width() && width == 1,
        CombOp::Not => args[0].width() == width,
        CombOp::Shl | CombOp::ShrU | CombOp::ShrS | CombOp::ExtractDyn => {
            args[0].width() == width || op == CombOp::ExtractDyn
        }
        CombOp::Mux => args[1].width() == width && args[2].width() == width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::PortDir;

    fn harness() -> (Module, NetId, NetId, usize) {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        (m, na, nb, o)
    }

    fn comb(op: CombOp, args: Vec<NetId>, lo: u32) -> Driver {
        Driver::Comb { op, args, lo }
    }

    #[test]
    fn folds_fully_constant_expressions() {
        let (mut m, _na, _nb, o) = harness();
        let c3 = m.add_net(Driver::Const(ApInt::from_u64(3, 8)), 8, "c3");
        let c5 = m.add_net(Driver::Const(ApInt::from_u64(5, 8)), 8, "c5");
        let sum = m.add_net(comb(CombOp::Add, vec![c3, c5], 0), 8, "sum");
        m.connect_output(o, sum);
        assert!(run(&mut m) >= 1);
        assert_eq!(
            m.nets[sum.0].driver,
            Driver::Const(ApInt::from_u64(8, 8))
        );
    }

    #[test]
    fn propagates_through_chains() {
        // (3 + 5) * 2 folds completely in one sweep.
        let (mut m, _na, _nb, o) = harness();
        let c3 = m.add_net(Driver::Const(ApInt::from_u64(3, 8)), 8, "c3");
        let c5 = m.add_net(Driver::Const(ApInt::from_u64(5, 8)), 8, "c5");
        let c2 = m.add_net(Driver::Const(ApInt::from_u64(2, 8)), 8, "c2");
        let sum = m.add_net(comb(CombOp::Add, vec![c3, c5], 0), 8, "sum");
        let prod = m.add_net(comb(CombOp::Mul, vec![sum, c2], 0), 8, "prod");
        m.connect_output(o, prod);
        run(&mut m);
        assert_eq!(
            m.nets[prod.0].driver,
            Driver::Const(ApInt::from_u64(16, 8))
        );
    }

    #[test]
    fn identities_alias_to_operands() {
        let (mut m, na, nb, o) = harness();
        let zero = m.add_net(Driver::Const(ApInt::zero(8)), 8, "z");
        let a0 = m.add_net(comb(CombOp::Add, vec![na, zero], 0), 8, "a0");
        let or = m.add_net(comb(CombOp::Or, vec![a0, nb], 0), 8, "or");
        m.connect_output(o, or);
        run(&mut m);
        // The Or's first operand must now reference `na` directly.
        match &m.nets[or.0].driver {
            Driver::Comb { args, .. } => assert_eq!(args[0], na),
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn same_operand_comparisons_and_xor_become_constants() {
        let (mut m, na, _nb, o) = harness();
        let x = m.add_net(comb(CombOp::Xor, vec![na, na], 0), 8, "x");
        let eq = m.add_net(comb(CombOp::Eq, vec![na, na], 0), 1, "eq");
        let pad = m.add_net(comb(CombOp::ZExt, vec![eq], 0), 8, "pad");
        let sum = m.add_net(comb(CombOp::Add, vec![x, pad], 0), 8, "sum");
        m.connect_output(o, sum);
        run(&mut m);
        assert_eq!(m.nets[x.0].driver, Driver::Const(ApInt::zero(8)));
        assert_eq!(m.nets[eq.0].driver, Driver::Const(ApInt::one(1)));
    }

    #[test]
    fn constant_rom_reads_fold_to_the_table_word() {
        let (mut m, _na, _nb, o) = harness();
        m.roms.push(crate::netlist::RomData {
            name: "tab".into(),
            width: 8,
            contents: vec![ApInt::from_u64(0xaa, 8), ApInt::from_u64(0xbb, 8)],
        });
        let idx = m.add_net(Driver::Const(ApInt::one(8)), 8, "idx");
        let rd = m.add_net(Driver::Rom { rom: 0, index: idx }, 8, "rd");
        m.connect_output(o, rd);
        run(&mut m);
        assert_eq!(m.nets[rd.0].driver, Driver::Const(ApInt::from_u64(0xbb, 8)));
    }

    #[test]
    fn double_negation_cancels() {
        let (mut m, na, _nb, o) = harness();
        let n1 = m.add_net(comb(CombOp::Not, vec![na], 0), 8, "n1");
        let n2 = m.add_net(comb(CombOp::Not, vec![n1], 0), 8, "n2");
        let keep = m.add_net(comb(CombOp::Not, vec![n2], 0), 8, "keep");
        m.connect_output(o, keep);
        run(&mut m);
        match &m.nets[keep.0].driver {
            Driver::Comb { args, .. } => assert_eq!(args[0], na, "Not(Not(Not(a))) -> Not(a)"),
            d => panic!("{d:?}"),
        }
    }
}
