//! `lint_module` and `comb_depth` against straightforward reference
//! versions, on random netlists, valid and broken.
//!
//! The references below allocate freely (a width `Vec` per net, an
//! operand list per net, a fresh DFS stack per root and a collected
//! operand list at every step of the depth walk), which makes them easy to
//! read and slow. The shipped functions must report exactly what they
//! report: the same findings with the same text in the same order and, on
//! every netlist that lints clean (`comb_depth`'s precondition), the same
//! depth. The depth reference walks the operand graph depth-first from
//! every net, where `comb_depth` makes one forward pass.

use bits::ApInt;
use rtl::lint::{comb_depth, lint_module, LintIssue};
use rtl::netlist::{CombOp, Driver, Module, Net, NetId, Port, PortDir, RomData};

// ---- references --------------------------------------------------------

/// Expected argument count for a combinational operator.
fn comb_arity(op: CombOp) -> usize {
    match op {
        CombOp::Not
        | CombOp::Replicate
        | CombOp::Extract
        | CombOp::ZExt
        | CombOp::SExt
        | CombOp::Trunc => 1,
        CombOp::Mux => 3,
        _ => 2,
    }
}

fn reference_lint(module: &Module) -> Result<(), Vec<LintIssue>> {
    let mut issues = Vec::new();
    let n = module.nets.len();
    let mut fail = |net: Option<usize>, message: String| issues.push(LintIssue { net, message });

    for (i, net) in module.nets.iter().enumerate() {
        // Definition order: a comb argument or ROM index that names this
        // net or a later one (nonexistent nets are reported below).
        let operands: Vec<NetId> = match &net.driver {
            Driver::Comb { args, .. } => args.clone(),
            Driver::Rom { index, .. } => vec![*index],
            _ => Vec::new(),
        };
        for a in operands {
            if a.0 >= i && a.0 < n {
                fail(Some(i), format!("reads net {} before it is defined", a.0));
            }
        }
        let w = |id: NetId| module.nets.get(id.0).map(|x| x.width);
        match &net.driver {
            Driver::Input { port } => match module.ports.get(*port) {
                None => fail(Some(i), format!("reads nonexistent port {port}")),
                Some(p) if p.dir != PortDir::Input => {
                    fail(Some(i), format!("reads non-input port `{}`", p.name))
                }
                Some(p) if p.width != net.width => fail(
                    Some(i),
                    format!(
                        "width {} differs from input port `{}` ({} bits)",
                        net.width, p.name, p.width
                    ),
                ),
                Some(_) => {}
            },
            Driver::Const(c) => {
                if c.width() != net.width {
                    fail(
                        Some(i),
                        format!("constant is {} bits, net is {}", c.width(), net.width),
                    );
                }
            }
            Driver::Comb { op, args, lo } => {
                if args.iter().any(|a| a.0 >= n) {
                    fail(Some(i), "references a nonexistent net".into());
                    continue;
                }
                let expected = comb_arity(*op);
                if args.len() != expected {
                    fail(
                        Some(i),
                        format!("{op:?} expects {expected} argument(s), has {}", args.len()),
                    );
                    continue;
                }
                let aw: Vec<u32> = args.iter().map(|&a| w(a).unwrap()).collect();
                match op {
                    CombOp::Add
                    | CombOp::Sub
                    | CombOp::Mul
                    | CombOp::DivU
                    | CombOp::DivS
                    | CombOp::RemU
                    | CombOp::RemS
                    | CombOp::And
                    | CombOp::Or
                    | CombOp::Xor => {
                        if aw[0] != aw[1] {
                            fail(
                                Some(i),
                                format!("{op:?} operand widths disagree: {} vs {}", aw[0], aw[1]),
                            );
                        }
                        if net.width != aw[0] {
                            fail(
                                Some(i),
                                format!("{op:?} result must be {} bits, is {}", aw[0], net.width),
                            );
                        }
                    }
                    CombOp::Not => {
                        if net.width != aw[0] {
                            fail(
                                Some(i),
                                format!("Not result must be {} bits, is {}", aw[0], net.width),
                            );
                        }
                    }
                    CombOp::Shl | CombOp::ShrU | CombOp::ShrS => {
                        if net.width != aw[0] {
                            fail(
                                Some(i),
                                format!(
                                    "{op:?} result must track its base: {} bits, is {}",
                                    aw[0], net.width
                                ),
                            );
                        }
                    }
                    CombOp::Eq
                    | CombOp::Ne
                    | CombOp::Ult
                    | CombOp::Ule
                    | CombOp::Slt
                    | CombOp::Sle => {
                        if aw[0] != aw[1] {
                            fail(
                                Some(i),
                                format!("{op:?} operand widths disagree: {} vs {}", aw[0], aw[1]),
                            );
                        }
                        if net.width != 1 {
                            fail(
                                Some(i),
                                format!("comparison result must be 1 bit, is {}", net.width),
                            );
                        }
                    }
                    CombOp::Mux => {
                        if aw[0] != 1 {
                            fail(Some(i), format!("mux select must be 1 bit, is {}", aw[0]));
                        }
                        if aw[1] != aw[2] {
                            fail(
                                Some(i),
                                format!("mux arm widths disagree: {} vs {}", aw[1], aw[2]),
                            );
                        }
                        if net.width != aw[1] {
                            fail(
                                Some(i),
                                format!("mux result must be {} bits, is {}", aw[1], net.width),
                            );
                        }
                    }
                    CombOp::Concat => {
                        if net.width != aw[0] + aw[1] {
                            fail(
                                Some(i),
                                format!(
                                    "concat of {} and {} bits must be {} bits, is {}",
                                    aw[0],
                                    aw[1],
                                    aw[0] + aw[1],
                                    net.width
                                ),
                            );
                        }
                    }
                    CombOp::Replicate => {
                        if *lo == 0 {
                            fail(Some(i), "replicate count must be at least 1".into());
                        } else {
                            match lo.checked_mul(aw[0]) {
                                None => fail(
                                    Some(i),
                                    format!(
                                        "replicate x{} of {} bits overflows the width space",
                                        lo, aw[0]
                                    ),
                                ),
                                Some(total) if net.width != total => fail(
                                    Some(i),
                                    format!(
                                        "replicate x{} of {} bits must be {} bits, is {}",
                                        lo, aw[0], total, net.width
                                    ),
                                ),
                                Some(_) => {}
                            }
                        }
                    }
                    CombOp::Extract => {
                        // The emitter prints `base[lo+width-1:lo]`; an
                        // out-of-range part-select is illegal SystemVerilog
                        // even though the interpreter zero-pads.
                        if net.width == 0 {
                            fail(Some(i), "extract must produce a value".into());
                        } else if lo.checked_add(net.width).is_none_or(|hi| hi > aw[0]) {
                            fail(
                                Some(i),
                                format!(
                                    "extract [{}+{}-1:{}] exceeds its {}-bit base",
                                    lo, net.width, lo, aw[0]
                                ),
                            );
                        }
                    }
                    CombOp::ExtractDyn => {
                        if net.width == 0 {
                            fail(Some(i), "extract must produce a value".into());
                        } else if net.width > aw[0] {
                            fail(
                                Some(i),
                                format!(
                                    "dynamic extract of {} bits exceeds its {}-bit base",
                                    net.width, aw[0]
                                ),
                            );
                        }
                    }
                    CombOp::ZExt | CombOp::SExt => {
                        // Equal widths are fine (the emitter aliases them);
                        // only actual narrowing is wrong.
                        if net.width < aw[0] {
                            fail(
                                Some(i),
                                format!(
                                    "{op:?} must not narrow {} bits, target is {}",
                                    aw[0], net.width
                                ),
                            );
                        }
                    }
                    CombOp::Trunc => {
                        if net.width > aw[0] || net.width == 0 {
                            fail(
                                Some(i),
                                format!(
                                    "Trunc must narrow {} bits, target is {}",
                                    aw[0], net.width
                                ),
                            );
                        }
                    }
                }
            }
            Driver::Reg { next, enable, init } => {
                match w(*next) {
                    None => fail(Some(i), "register next references a nonexistent net".into()),
                    Some(nw) if nw != net.width => fail(
                        Some(i),
                        format!("register is {} bits but next is {}", net.width, nw),
                    ),
                    Some(_) => {}
                }
                if let Some(e) = enable {
                    match w(*e) {
                        None => fail(
                            Some(i),
                            "register enable references a nonexistent net".into(),
                        ),
                        Some(1) => {}
                        Some(ew) => {
                            fail(Some(i), format!("register enable must be 1 bit, is {ew}"))
                        }
                    }
                }
                if init.width() != net.width {
                    fail(
                        Some(i),
                        format!(
                            "register init is {} bits, register is {}",
                            init.width(),
                            net.width
                        ),
                    );
                }
            }
            Driver::Rom { rom, index } => {
                match module.roms.get(*rom) {
                    None => fail(Some(i), format!("references nonexistent ROM {rom}")),
                    Some(r) if r.width != net.width => fail(
                        Some(i),
                        format!("ROM `{}` is {} bits, net is {}", r.name, r.width, net.width),
                    ),
                    Some(_) => {}
                }
                if w(*index).is_none() {
                    fail(Some(i), "ROM index references a nonexistent net".into());
                }
            }
        }
    }

    // Output connections: exactly one driver per output port, width match.
    let mut driven = vec![0usize; module.ports.len()];
    for (port, net) in &module.outputs {
        match module.ports.get(*port) {
            None => fail(None, format!("connection to nonexistent port {port}")),
            Some(p) if p.dir != PortDir::Output => fail(
                None,
                format!("connection drives non-output port `{}`", p.name),
            ),
            Some(p) => {
                driven[*port] += 1;
                match module.nets.get(net.0) {
                    None => fail(
                        None,
                        format!("output port `{}` driven by nonexistent net", p.name),
                    ),
                    Some(d) if d.width != p.width => fail(
                        None,
                        format!(
                            "output port `{}` is {} bits but its driver has {}",
                            p.name, p.width, d.width
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }
    }
    for (i, p) in module.ports.iter().enumerate() {
        if p.dir != PortDir::Output {
            continue;
        }
        match driven[i] {
            0 => fail(None, format!("output port `{}` is undriven", p.name)),
            1 => {}
            k => fail(None, format!("output port `{}` driven {k} times", p.name)),
        }
    }

    if issues.is_empty() {
        Ok(())
    } else {
        Err(issues)
    }
}

fn reference_depth(module: &Module) -> u32 {
    let n = module.nets.len();
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let comb_args = |i: usize| -> Vec<usize> {
        match &module.nets[i].driver {
            Driver::Comb { args, .. } => args.iter().map(|a| a.0).filter(|&a| a < n).collect(),
            Driver::Rom { index, .. } => {
                if index.0 < n {
                    vec![index.0]
                } else {
                    vec![]
                }
            }
            _ => vec![],
        }
    };
    let is_cell = |i: usize| {
        matches!(
            module.nets[i].driver,
            Driver::Comb { .. } | Driver::Rom { .. }
        )
    };
    let mut worst = 0;
    for root in 0..n {
        if depth[root].is_some() {
            continue;
        }
        // Iterative post-order. The netlist is acyclic, so every operand
        // has its depth by the time its user is finished.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (node, ref mut arg)) = stack.last_mut() {
            let args = comb_args(node);
            if *arg >= args.len() {
                let input = args
                    .iter()
                    .map(|&a| depth[a].expect("operands finish first"))
                    .max()
                    .unwrap_or(0);
                let d = input + u32::from(is_cell(node));
                depth[node] = Some(d);
                worst = worst.max(d);
                stack.pop();
                continue;
            }
            let target = args[*arg];
            *arg += 1;
            if depth[target].is_none() {
                stack.push((target, 0));
            }
        }
    }
    worst
}

// ---- random netlists ---------------------------------------------------

/// SplitMix64: a small deterministic generator for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

const WIDTHS: [u32; 6] = [1, 2, 4, 8, 16, 32];

const OPS: [CombOp; 28] = [
    CombOp::Add,
    CombOp::Sub,
    CombOp::Mul,
    CombOp::DivU,
    CombOp::DivS,
    CombOp::RemU,
    CombOp::RemS,
    CombOp::And,
    CombOp::Or,
    CombOp::Xor,
    CombOp::Not,
    CombOp::Shl,
    CombOp::ShrU,
    CombOp::ShrS,
    CombOp::Eq,
    CombOp::Ne,
    CombOp::Ult,
    CombOp::Ule,
    CombOp::Slt,
    CombOp::Sle,
    CombOp::Mux,
    CombOp::Concat,
    CombOp::Replicate,
    CombOp::Extract,
    CombOp::ExtractDyn,
    CombOp::ZExt,
    CombOp::SExt,
    CombOp::Trunc,
];

/// An earlier net of width `w`, if any.
fn earlier_of_width(rng: &mut Rng, nets: &[Net], w: u32) -> Option<NetId> {
    let fits: Vec<usize> = (0..nets.len()).filter(|&j| nets[j].width == w).collect();
    (!fits.is_empty()).then(|| NetId(fits[rng.below(fits.len())]))
}

/// A well-formed combinational net over earlier nets, or `None` when the
/// operator needs an operand the module does not have yet.
fn comb_net(rng: &mut Rng, nets: &[Net], op: CombOp) -> Option<(Driver, u32)> {
    let a = NetId(rng.below(nets.len()));
    let wa = nets[a.0].width;
    let other = |rng: &mut Rng| NetId(rng.below(nets.len()));
    let (args, lo, width) = match op {
        CombOp::Add
        | CombOp::Sub
        | CombOp::Mul
        | CombOp::DivU
        | CombOp::DivS
        | CombOp::RemU
        | CombOp::RemS
        | CombOp::And
        | CombOp::Or
        | CombOp::Xor => {
            let b = earlier_of_width(rng, nets, wa).unwrap_or(a);
            (vec![a, b], 0, wa)
        }
        CombOp::Not => (vec![a], 0, wa),
        CombOp::Shl | CombOp::ShrU | CombOp::ShrS => (vec![a, other(rng)], 0, wa),
        CombOp::Eq | CombOp::Ne | CombOp::Ult | CombOp::Ule | CombOp::Slt | CombOp::Sle => {
            let b = earlier_of_width(rng, nets, wa).unwrap_or(a);
            (vec![a, b], 0, 1)
        }
        CombOp::Mux => {
            let sel = earlier_of_width(rng, nets, 1)?;
            let b = earlier_of_width(rng, nets, wa).unwrap_or(a);
            (vec![sel, a, b], 0, wa)
        }
        CombOp::Concat => {
            let b = other(rng);
            (vec![a, b], 0, wa + nets[b.0].width)
        }
        CombOp::Replicate => {
            let count = 1 + rng.below(3) as u32;
            (vec![a], count, count * wa)
        }
        CombOp::Extract => {
            let w = 1 + rng.below(wa as usize) as u32;
            let lo = rng.below((wa - w + 1) as usize) as u32;
            (vec![a], lo, w)
        }
        CombOp::ExtractDyn => {
            let w = 1 + rng.below(wa as usize) as u32;
            (vec![a, other(rng)], 0, w)
        }
        CombOp::ZExt | CombOp::SExt => (vec![a], 0, wa + rng.below(9) as u32),
        CombOp::Trunc => (vec![a], 0, 1 + rng.below(wa as usize) as u32),
    };
    // Concats and replicates of concats would otherwise grow without bound.
    (width <= 256).then_some((Driver::Comb { op, args, lo }, width))
}

/// A module that lints clean: every operand earlier (or, for registers,
/// anywhere with a matching width), every width consistent, every output
/// port driven once.
fn valid_module(rng: &mut Rng) -> Module {
    let mut m = Module::new("rand");
    for p in 0..1 + rng.below(6) {
        let dir = if rng.chance(60) {
            PortDir::Input
        } else {
            PortDir::Output
        };
        m.add_port(&format!("p{p}"), dir, rng.pick(&WIDTHS));
    }
    for r in 0..rng.below(3) {
        let width = rng.pick(&WIDTHS);
        let contents = (0..rng.below(5))
            .map(|v| ApInt::from_u64(v as u64 + 3, width))
            .collect();
        m.roms.push(RomData {
            name: format!("rom{r}"),
            width,
            contents,
        });
    }
    let inputs: Vec<usize> = (0..m.ports.len())
        .filter(|&p| m.ports[p].dir == PortDir::Input)
        .collect();
    let target = 1 + rng.below(36);
    while m.nets.len() < target {
        let i = m.nets.len();
        let roll = rng.below(100);
        let (driver, width) = if roll < 12 && !inputs.is_empty() {
            let port = rng.pick(&inputs);
            (Driver::Input { port }, m.ports[port].width)
        } else if roll < 55 && i > 0 {
            let op = rng.pick(&OPS);
            match comb_net(rng, &m.nets, op) {
                Some(net) => net,
                None => continue,
            }
        } else if roll < 67 && i > 0 {
            let next = NetId(rng.below(i));
            let width = m.nets[next.0].width;
            let enable = if rng.chance(50) {
                earlier_of_width(rng, &m.nets, 1)
            } else {
                None
            };
            let init = ApInt::from_u64(rng.next(), width);
            (Driver::Reg { next, enable, init }, width)
        } else if roll < 77 && i > 0 && !m.roms.is_empty() {
            let rom = rng.below(m.roms.len());
            let index = NetId(rng.below(i));
            (Driver::Rom { rom, index }, m.roms[rom].width)
        } else {
            let width = rng.pick(&WIDTHS);
            (Driver::Const(ApInt::from_u64(rng.next(), width)), width)
        };
        let name = match rng.below(4) {
            0 => String::new(),
            k => format!("n{i}_{k}"),
        };
        m.add_net(driver, width, &name);
    }
    // Registers may close loops through later logic of their width.
    let n = m.nets.len();
    for i in 0..n {
        if let Driver::Reg { .. } = m.nets[i].driver {
            if rng.chance(40) {
                let w = m.nets[i].width;
                let later: Vec<usize> = (i..n).filter(|&j| m.nets[j].width == w).collect();
                let pick = later[rng.below(later.len())];
                if let Driver::Reg { next, .. } = &mut m.nets[i].driver {
                    *next = NetId(pick);
                }
            }
        }
    }
    for p in 0..m.ports.len() {
        if m.ports[p].dir != PortDir::Output {
            continue;
        }
        let w = m.ports[p].width;
        let net = match earlier_of_width(rng, &m.nets, w) {
            Some(net) => net,
            None => m.add_net(Driver::Const(ApInt::zero(w)), w, ""),
        };
        m.connect_output(p, net);
    }
    m
}

/// Indices of the combinational nets of `m`.
fn comb_nets(m: &Module) -> Vec<usize> {
    (0..m.nets.len())
        .filter(|&i| matches!(m.nets[i].driver, Driver::Comb { .. }))
        .collect()
}

/// One random defect, of a kind the lint or the depth walk must handle.
fn break_once(rng: &mut Rng, m: &mut Module) {
    let n = m.nets.len();
    let combs = comb_nets(m);
    let i = rng.below(n);
    match rng.below(16) {
        // Forward reference, self-loop, or out-of-range operand.
        0..=2 if !combs.is_empty() => {
            let c = rng.pick(&combs);
            let target = match rng.below(3) {
                0 => c + rng.below(n - c),
                1 => c,
                _ => n + rng.below(3),
            };
            if let Driver::Comb { args, .. } = &mut m.nets[c].driver {
                let k = rng.below(args.len());
                args[k] = NetId(target);
            }
        }
        // A combinational cycle through a forward reference.
        3 if combs.len() >= 2 => {
            let a = rng.pick(&combs);
            let b = rng.pick(&combs);
            let (lo, hi) = (a.min(b), a.max(b));
            for (from, to) in [(lo, hi), (hi, lo)] {
                if let Driver::Comb { args, .. } = &mut m.nets[from].driver {
                    let k = rng.below(args.len());
                    args[k] = NetId(to);
                }
            }
        }
        // Wrong arity.
        4 if !combs.is_empty() => {
            let c = rng.pick(&combs);
            if let Driver::Comb { args, .. } = &mut m.nets[c].driver {
                if args.len() > 1 && rng.chance(50) {
                    args.pop();
                } else {
                    args.push(NetId(rng.below(n)));
                }
            }
        }
        // Width drift.
        5 | 6 => m.nets[i].width = rng.pick(&[0, 1, 3, 8, 33, 64]),
        // Shape edges of `lo`.
        7 if !combs.is_empty() => {
            let c = rng.pick(&combs);
            let op = rng.pick(&[CombOp::Replicate, CombOp::Extract, CombOp::ExtractDyn]);
            if let Driver::Comb { op: o, args, lo } = &mut m.nets[c].driver {
                *o = op;
                args.truncate(if op == CombOp::ExtractDyn { 2 } else { 1 });
                while args.len() < comb_arity(op) {
                    args.push(NetId(rng.below(n)));
                }
                *lo = rng.pick(&[0, 1, 7, 31, u32::MAX / 2, u32::MAX]);
            }
        }
        // Input from a nonexistent or non-input port.
        8 => {
            let port = rng.below(m.ports.len() + 2);
            m.nets[i].driver = Driver::Input { port };
        }
        // ROM edges: nonexistent ROM, nonexistent index net, a ROM of no
        // entries, an index that closes a loop.
        9 => {
            let rom = rng.below(m.roms.len() + 2);
            let index = match rng.below(3) {
                0 => NetId(n + rng.below(2)),
                1 => NetId(i),
                _ => NetId(rng.below(n)),
            };
            if rng.chance(30) {
                m.roms.push(RomData {
                    name: "empty".into(),
                    width: m.nets[i].width,
                    contents: Vec::new(),
                });
            }
            m.nets[i].driver = Driver::Rom { rom, index };
        }
        // Registers: bad next, bad enable, bad init, or one closing a loop
        // onto itself.
        10 => {
            let next = match rng.below(3) {
                0 => NetId(n + rng.below(2)),
                1 => NetId(i),
                _ => NetId(rng.below(n)),
            };
            let enable = match rng.below(3) {
                0 => None,
                1 => Some(NetId(n + rng.below(2))),
                _ => Some(NetId(rng.below(n))),
            };
            let init = ApInt::zero(rng.pick(&WIDTHS));
            m.nets[i].driver = Driver::Reg { next, enable, init };
        }
        // Constant of the wrong width.
        11 => m.nets[i].driver = Driver::Const(ApInt::zero(rng.pick(&WIDTHS))),
        // Output connections: to nothing, to an input, twice, from no net.
        12 => {
            let port = rng.below(m.ports.len() + 2);
            let net = NetId(rng.below(n + 2));
            m.outputs.push((port, net));
        }
        13 if !m.outputs.is_empty() => {
            let k = rng.below(m.outputs.len());
            m.outputs.remove(k);
        }
        14 => m.ports.push(Port {
            name: format!("extra{}", m.ports.len()),
            dir: PortDir::Output,
            width: rng.pick(&WIDTHS),
        }),
        // Names matter to no finding: an edit that leaves the netlist clean.
        _ => m.nets[i].name = String::new(),
    }
}

fn broken_module(rng: &mut Rng) -> Module {
    let mut m = valid_module(rng);
    for _ in 0..1 + rng.below(4) {
        break_once(rng, &mut m);
    }
    m
}

fn describe(m: &Module) -> String {
    let mut s = String::new();
    for (i, net) in m.nets.iter().enumerate() {
        s.push_str(&format!(
            "{i}: {:?} w{} `{}`\n",
            net.driver, net.width, net.name
        ));
    }
    s.push_str(&format!("ports {:?}\noutputs {:?}\n", m.ports, m.outputs));
    s
}

/// Compares the lint of `m` with the reference and, if `m` lints clean,
/// its depth too; returns that depth.
fn check(m: &Module) -> Option<u32> {
    let lint = lint_module(m);
    assert_eq!(lint, reference_lint(m), "lint differs on\n{}", describe(m));
    lint.is_ok().then(|| {
        let depth = comb_depth(m);
        assert_eq!(
            depth,
            reference_depth(m),
            "depth differs on\n{}",
            describe(m)
        );
        depth
    })
}

#[test]
fn valid_netlists_match_the_reference() {
    let mut rng = Rng(0x11a7);
    let mut deep = 0;
    for _ in 0..3000 {
        let m = valid_module(&mut rng);
        let depth = check(&m)
            .unwrap_or_else(|| panic!("a valid netlist must lint clean:\n{}", describe(&m)));
        deep += usize::from(depth >= 3);
    }
    assert!(deep > 100, "only {deep} netlists reach three logic levels");
}

#[test]
fn broken_netlists_match_the_reference() {
    let mut rng = Rng(0xb20c);
    let (mut clean, mut order_findings) = (0, 0);
    for _ in 0..6000 {
        let m = broken_module(&mut rng);
        clean += usize::from(check(&m).is_some());
        if let Err(issues) = lint_module(&m) {
            order_findings += issues
                .iter()
                .filter(|i| i.message.ends_with("before it is defined"))
                .count();
        }
    }
    // The corpus must exercise both outcomes and the definition-order rule.
    assert!(clean > 100, "only {clean} broken netlists lint clean");
    assert!(
        order_findings > 100,
        "only {order_findings} definition-order findings"
    );
}
