//! Oracle-gated netlist optimization (ROADMAP: "An oracle-backed netlist
//! optimization pipeline").
//!
//! A small pass manager drives five rewrites over [`Module`] to a fixpoint:
//!
//! * [`fold`] — constant folding and propagation through every [`CombOp`],
//!   plus algebraic identities (`x+0`, `x&x`, double negation, extend/trunc
//!   chains, constant-index ROM reads),
//! * [`cse`] — common-subexpression elimination over hash-consed
//!   `Driver::Comb`/`Driver::Const`/`Driver::Rom` keys,
//! * [`mux`] — mux-tree flattening (same-condition nesting, identical arms,
//!   inverted selects, 1-bit select muxes),
//! * [`strength`] — strength reduction of `Mul`/`DivU`/`RemU` by powers of
//!   two into free-wiring shifts, masks, and extracts,
//! * [`narrow`] — bitwidth narrowing driven by the value/known planes of
//!   [`crate::xsim`]: an abstract evaluation from reset, with all-X inputs
//!   and each register at its `init` joined with its `next` until nothing
//!   changes (one sweep unless a register reads forward), proves upper
//!   bits dead. Ops and muxes are re-emitted at their live width and users
//!   patched with `ZExt`; a register that never leaves its `init` becomes
//!   a constant, and one whose top bits stay zero a narrower register
//!   behind a `ZExt`.
//!
//! Every pass preserves the two-valued [`crate::interp`] semantics of the
//! output ports exactly on every run that starts from reset, and may only
//! *refine* the four-state [`crate::xsim`] semantics there (an X bit may
//! become known, a known bit never changes value or becomes X; before
//! reset, a narrowed register's top bits read 0 where the original's read
//! X). The pass manager lints its input once and
//! the output of every pass that rewrote something with [`lint_module`]
//! (a pass that reports no rewrite leaves the netlist unchanged), so each
//! pass sees a netlist whose combinational operands precede their users
//! and whose widths agree, and a pass that breaks either is caught at
//! once. The compiler's opt stage then gates the result with
//! [`verify_equivalent`], which runs the original and optimized modules in
//! lockstep on one stimulus (including X bits), since no pass touches a
//! port, and the full matrix re-checks under `lnc --xcheck`.
//!
//! What it does not do:
//!
//! - **Prove equivalence.** The compiler's gate runs [`verify_equivalent`]
//!   over 32 cycles of pseudo-random stimulus, comparing the optimized
//!   netlist with the unoptimized one: a test, not a proof. A rewrite that
//!   is wrong only on inputs the stimulus never draws passes it.
//! - **Check against CoreDSL.** Every check compares one netlist with
//!   another or with the structural rules; nothing here evaluates the
//!   instruction's CoreDSL semantics. An unoptimized netlist that computes
//!   the wrong value yields an optimized one that agrees with it.
//! - **Preserve behaviour from an arbitrary register state.** `narrow`
//!   reasons about the states reachable from reset, so a register forced
//!   to a value it never holds after reset may make the optimized module
//!   behave differently.

use crate::interp::Simulator;
use crate::lint::lint_module;
use crate::netlist::{CombOp, Driver, Module, Net, NetId, PortDir};
use crate::verilog::EmitOptions;
use crate::xsim::{XVal, Xsim};
use bits::ApInt;
use std::collections::BTreeMap;

mod cse;
mod fold;
mod mux;
mod narrow;
mod strength;

/// Optimization effort, mirroring `lnc --opt-level {0,2}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No optimization: the netlist is emitted as built.
    O0,
    /// Every [`Pass`] to a fixpoint.
    O2,
}

impl OptLevel {
    /// Parses a numeric level (the `--opt-level` argument).
    pub fn from_level(level: u8) -> Option<OptLevel> {
        match level {
            0 => Some(OptLevel::O0),
            2 => Some(OptLevel::O2),
            _ => None,
        }
    }

    /// The numeric level.
    pub fn level(self) -> u8 {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O2 => 2,
        }
    }
}

/// The optimizer's revision. It changes whenever -O2 can emit a different
/// netlist for the same input, so that caches keyed on the level alone
/// never serve an earlier optimizer's output. Revision 2 narrows registers
/// and muxes.
pub const REVISION: u32 = 2;

/// What the optimizer did: per-pass rewrite counters (deterministic — the
/// bench and CI compare them against checked-in expectations) and net
/// counts before/after.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Fixpoint iterations executed.
    pub iterations: u32,
    /// Rewrites per pass, accumulated across iterations.
    pub rewrites: BTreeMap<&'static str, u64>,
    /// Net count of the input module.
    pub nets_before: usize,
    /// Net count of the optimized module.
    pub nets_after: usize,
}

impl OptReport {
    /// Total rewrites across all passes.
    pub fn total(&self) -> u64 {
        self.rewrites.values().sum()
    }

    fn record(&mut self, pass: &'static str, count: u64) {
        if count > 0 {
            *self.rewrites.entry(pass).or_insert(0) += count;
        }
    }
}

/// One optimizer pass, individually runnable via [`run_pass`] — property
/// tests drive each pass in isolation as well as the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Constant folding/propagation and algebraic identities.
    Fold,
    /// Common-subexpression elimination.
    Cse,
    /// Mux-tree flattening.
    Mux,
    /// Strength reduction by powers of two.
    Strength,
    /// Bitwidth narrowing via the xsim known planes.
    Narrow,
    /// Dead-net (and dead-ROM) elimination.
    Dce,
}

impl Pass {
    /// Every pass, in pipeline order.
    pub const ALL: [Pass; 6] = [
        Pass::Fold,
        Pass::Cse,
        Pass::Mux,
        Pass::Strength,
        Pass::Narrow,
        Pass::Dce,
    ];

    /// The pass's rewrite-counter key in [`OptReport::rewrites`].
    pub fn name(self) -> &'static str {
        match self {
            Pass::Fold => "fold",
            Pass::Cse => "cse",
            Pass::Mux => "mux",
            Pass::Strength => "strength",
            Pass::Narrow => "narrow",
            Pass::Dce => "dce",
        }
    }
}

/// Runs a single pass once over `module`, returning the rewritten module
/// and its rewrite count. The input and the output are linted exactly as
/// [`optimize`] lints them.
///
/// # Errors
///
/// If `module` fails lint, or the pass produces a netlist that does (an
/// optimizer bug).
///
/// The [`EmitOptions`] marker is accepted and ignored.
pub fn run_pass(module: &Module, pass: Pass, _: &EmitOptions) -> Result<(Module, u64), String> {
    check(module, None)?;
    let mut m = module.clone();
    let count = apply(&mut m, pass)?;
    Ok((m, count))
}

/// Runs `pass` once over `m` in place, lints the result if the pass
/// rewrote anything, and returns the pass's rewrite count.
fn apply(m: &mut Module, pass: Pass) -> Result<u64, String> {
    let count = match pass {
        Pass::Fold => fold::run(m),
        Pass::Cse => cse::run(m),
        Pass::Mux => mux::run(m),
        Pass::Strength => strength::run(m),
        Pass::Narrow => narrow::run(m),
        Pass::Dce => dce(m),
    };
    // A pass that rewrote nothing left its linted input unchanged.
    if count > 0 {
        check(m, Some(pass))?;
    }
    Ok(count)
}

/// Upper bound on fixpoint iterations; convergence is typically reached in
/// two or three. The result is correct (just less optimized) if the cap
/// ever bites.
const MAX_ITERATIONS: u32 = 8;

/// Optimizes `module` at `level`.
///
/// # Errors
///
/// If `module` fails lint, or a pass produces a netlist that does — an
/// optimizer bug, reported so the caller can fall back to the unoptimized
/// module.
pub fn optimize(module: &Module, level: OptLevel) -> Result<(Module, OptReport), String> {
    check(module, None)?;
    let mut report = OptReport {
        nets_before: module.nets.len(),
        nets_after: module.nets.len(),
        ..OptReport::default()
    };
    let mut m = module.clone();
    if level == OptLevel::O0 {
        return Ok((m, report));
    }
    for _ in 0..MAX_ITERATIONS {
        let mut changed = 0;
        for pass in Pass::ALL {
            let count = apply(&mut m, pass)?;
            report.record(pass.name(), count);
            // DCE only sweeps what the other passes orphaned, so its
            // removals do not keep the fixpoint going.
            if pass != Pass::Dce {
                changed += count;
            }
        }
        report.iterations += 1;
        if changed == 0 {
            break;
        }
    }
    report.nets_after = m.nets.len();
    Ok((m, report))
}

/// Lints `m`: the optimizer's input (`after` is `None`) or the output of
/// the pass `after`.
fn check(m: &Module, after: Option<Pass>) -> Result<(), String> {
    lint_module(m).map_err(|issues| {
        let found = issues
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        match after {
            None => format!("input netlist fails lint: {found}"),
            Some(pass) => format!(
                "optimizer pass `{}` broke the netlist: {found}",
                pass.name()
            ),
        }
    })
}

/// Net-reference replacement map built by the in-place passes: aliasing a
/// net redirects every later user to an equivalent, earlier net.
pub(crate) struct Replacements {
    repl: Vec<NetId>,
    count: u64,
}

impl Replacements {
    pub(crate) fn new(nets: usize) -> Replacements {
        Replacements {
            repl: (0..nets).map(NetId).collect(),
            count: 0,
        }
    }

    /// Follows alias chains to the canonical net.
    pub(crate) fn resolve(&self, id: NetId) -> NetId {
        let mut cur = id;
        while self.repl[cur.0] != cur {
            cur = self.repl[cur.0];
        }
        cur
    }

    /// Declares net `from` an alias of (earlier, equal-width) `to`.
    pub(crate) fn alias(&mut self, from: usize, to: NetId) {
        debug_assert!(self.resolve(to).0 < from, "alias must point backward");
        self.repl[from] = to;
        self.count += 1;
    }

    pub(crate) fn aliased(&self) -> u64 {
        self.count
    }

    /// Rewrites every net reference in `m` (comb args, ROM indices,
    /// register next/enable, outputs) through the alias map. Safe for the
    /// forward references registers may hold.
    pub(crate) fn apply(&self, m: &mut Module) {
        for a in m.nets.iter_mut().flat_map(|net| net.driver.operands_mut()) {
            *a = self.resolve(*a);
        }
        for (_, net) in &mut m.outputs {
            *net = self.resolve(*net);
        }
    }
}

/// The constant value driving `id`, if any.
pub(crate) fn as_const(m: &Module, id: NetId) -> Option<&ApInt> {
    match &m.nets[id.0].driver {
        Driver::Const(c) => Some(c),
        _ => None,
    }
}

/// The net list [`rebuild`] is building, and the new id of every old net
/// already emitted.
pub(crate) struct Rebuilt {
    nets: Vec<Net>,
    map: Vec<NetId>,
    /// New ids of the registers [`Rebuilt::keep`] placed, whose `next` and
    /// `enable` are still old ids.
    kept_regs: Vec<usize>,
    /// Nets [`Rebuilt::append`] queued behind the last old net.
    tail: Vec<Net>,
}

impl Rebuilt {
    /// The new id of old net `id`, which precedes the net being emitted.
    pub(crate) fn map(&self, id: NetId) -> NetId {
        self.map[id.0]
    }

    /// The placed net with new id `id`.
    pub(crate) fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0]
    }

    /// Appends a net whose operands, a register's `next` and `enable`
    /// included, are new ids.
    pub(crate) fn push(&mut self, driver: Driver, width: u32, name: &str) -> NetId {
        self.nets.push(Net {
            driver,
            width,
            name: name.to_string(),
        });
        NetId(self.nets.len() - 1)
    }

    /// Moves old net `net` across, reading its combinational operands
    /// through the map. A register's `next` and `enable` stay old ids,
    /// remapped once every net is placed.
    pub(crate) fn keep(&mut self, mut net: Net) -> NetId {
        for a in net.driver.comb_operands_mut() {
            *a = self.map[a.0];
        }
        if matches!(net.driver, Driver::Reg { .. }) {
            self.kept_regs.push(self.nets.len());
        }
        self.nets.push(net);
        NetId(self.nets.len() - 1)
    }

    /// Queues a net to be placed after the last old net. Its operands are
    /// old ids, and so is the id it returns: one past every old net, which
    /// a register moved by [`Rebuilt::keep`] may read.
    pub(crate) fn append(&mut self, driver: Driver, width: u32, name: &str) -> NetId {
        self.tail.push(Net {
            driver,
            width,
            name: name.to_string(),
        });
        NetId(self.map.len() + self.tail.len() - 1)
    }
}

/// Rebuilds `m`'s nets in one forward sweep. `emit` receives each old net
/// by value with its index and places it: it moves the net across with
/// [`Rebuilt::keep`], expands it into new nets with [`Rebuilt::push`] (and
/// [`Rebuilt::append`]), or drops it. It returns the new net that stands
/// for the old one, or `None` for a dropped net, which nothing kept may
/// read. Registers may read forward, so the appended nets, the `next` and
/// `enable` of every kept register and the outputs are remapped once at
/// the end.
pub(crate) fn rebuild(
    m: &mut Module,
    mut emit: impl FnMut(usize, Net, &mut Rebuilt) -> Option<NetId>,
) {
    let old = std::mem::take(&mut m.nets);
    let mut out = Rebuilt {
        nets: Vec::with_capacity(old.len()),
        // A dropped net maps past the end, so a read of it fails lint.
        map: vec![NetId(usize::MAX); old.len()],
        kept_regs: Vec::new(),
        tail: Vec::new(),
    };
    for (i, net) in old.into_iter().enumerate() {
        if let Some(id) = emit(i, net, &mut out) {
            out.map[i] = id;
        }
    }
    let Rebuilt {
        mut nets,
        mut map,
        kept_regs,
        tail,
    } = out;
    for mut net in tail {
        for a in net.driver.operands_mut() {
            *a = map[a.0];
        }
        map.push(NetId(nets.len()));
        nets.push(net);
    }
    for r in kept_regs {
        for a in nets[r].driver.operands_mut() {
            *a = map[a.0];
        }
    }
    m.nets = nets;
    for (_, net) in &mut m.outputs {
        *net = map[net.0];
    }
}

/// A combinational driver.
pub(crate) fn comb(op: CombOp, args: Vec<NetId>, lo: u32) -> Driver {
    Driver::Comb { op, args, lo }
}

/// Dead-net elimination: drops every net not reachable from an output,
/// compacting ids (and ROM tables no surviving net reads). Returns the
/// number of nets removed.
pub(crate) fn dce(m: &mut Module) -> u64 {
    let mut live = vec![false; m.nets.len()];
    let mut stack: Vec<usize> = m.outputs.iter().map(|&(_, id)| id.0).collect();
    while let Some(i) = stack.pop() {
        if !live[i] {
            live[i] = true;
            stack.extend(m.nets[i].driver.operands().map(|a| a.0));
        }
    }
    let removed = live.iter().filter(|&&l| !l).count() as u64;
    if removed > 0 {
        rebuild(m, |i, net, out| live[i].then(|| out.keep(net)));
    }
    removed + compact_roms(m)
}

/// Drops ROM tables no net reads, remapping `Driver::Rom` indices.
fn compact_roms(m: &mut Module) -> u64 {
    let mut used = vec![false; m.roms.len()];
    for net in &m.nets {
        if let Driver::Rom { rom, .. } = &net.driver {
            used[*rom] = true;
        }
    }
    let removed = used.iter().filter(|&&u| !u).count() as u64;
    if removed == 0 {
        return 0;
    }
    let mut map = vec![0usize; m.roms.len()];
    let mut roms = Vec::with_capacity(m.roms.len() - removed as usize);
    for (i, rom) in m.roms.iter().enumerate() {
        if used[i] {
            map[i] = roms.len();
            roms.push(rom.clone());
        }
    }
    m.roms = roms;
    for net in &mut m.nets {
        if let Driver::Rom { rom, .. } = &mut net.driver {
            *rom = map[*rom];
        }
    }
    removed
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A `width`-bit value whose limbs, low to high, are the next
/// `ceil(width / 64)` words of the stream (the top one truncated).
fn rand_apint(state: &mut u64, width: u32) -> ApInt {
    let mut v = ApInt::from_u64(splitmix64(state), width.min(64));
    while v.width() < width {
        let take = (width - v.width()).min(64);
        v = ApInt::from_u64(splitmix64(state), take).concat(&v);
    }
    v
}

/// The runtime half of the oracle gate: drives the original and optimized
/// modules in lockstep over `cycles` cycles of deterministic pseudo-random
/// stimulus, one vector that both read, and checks
///
/// 1. two-valued output equality (the interpreter semantics are the
///    compiler's contract), and
/// 2. four-state output *refinement* under partially-X stimulus: every
///    output bit the original resolves to a known value must be known with
///    the same value in the optimized module (optimization may remove X,
///    never introduce or change it).
///
/// # Errors
///
/// A description of the first divergence, or of ports that differ: the
/// passes rewrite nets and never ports, so the two modules must have
/// identical ones.
///
/// The [`EmitOptions`] marker is accepted and ignored.
pub fn verify_equivalent(
    original: &Module,
    optimized: &Module,
    _: &EmitOptions,
    cycles: u32,
) -> Result<(), String> {
    // The passes rewrite nets, never ports, so both modules read one
    // stimulus vector.
    if optimized.ports != original.ports {
        return Err("optimized module's ports differ from the original's".into());
    }
    // Outputs are compared in port-connection order, so the first
    // divergence reported is the same on every run.
    let outputs = original
        .outputs
        .iter()
        .map(|&(port, net_a)| {
            let name = &original.ports[port].name;
            let net_b = optimized
                .outputs
                .iter()
                .find(|&&(q, _)| q == port)
                .map(|&(_, net)| net)
                .ok_or_else(|| format!("output `{name}` missing from optimized module"))?;
            Ok((name, net_a.0, net_b.0))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut a = GateSide::new(original);
    let mut b = GateSide::new(optimized);
    // One value per port, reused every cycle; the entries of output ports
    // are not read.
    let mut known: Vec<ApInt> = original
        .ports
        .iter()
        .map(|p| ApInt::zero(p.width))
        .collect();
    let mut fourstate: Vec<XVal> = original
        .ports
        .iter()
        .map(|p| XVal::all_x(p.width))
        .collect();
    let mut state = 0x6c6e_6770_7470_0001u64 ^ u64::from(cycles);
    for cycle in 0..cycles {
        for (p, port) in original.ports.iter().enumerate() {
            if port.dir != PortDir::Input {
                continue;
            }
            let value = rand_apint(&mut state, port.width);
            // Every third cycle knocks a pseudo-random subset of bits to X
            // so refinement is exercised, not just the all-known case.
            fourstate[p] = if cycle % 3 == 2 {
                let mask = rand_apint(&mut state, port.width);
                XVal::from_planes(value.and(&mask), mask)
            } else {
                XVal::known(value.clone())
            };
            known[p] = value;
        }
        a.eval(&known, &fourstate);
        b.eval(&known, &fourstate);
        for &(name, net_a, net_b) in &outputs {
            let (va, vb) = (a.interp.net(net_a), b.interp.net(net_b));
            if va != vb {
                return Err(format!(
                    "cycle {cycle}: output `{name}` diverged: original={va:x} optimized={vb:x}"
                ));
            }
        }
        for &(name, net_a, net_b) in &outputs {
            let (va, vb) = (a.xsim.net(net_a), b.xsim.net(net_b));
            let disagree = va.value_plane().xor(vb.value_plane());
            let bad = va.known_plane().and(&vb.known_plane().not().or(&disagree));
            if !bad.is_zero() {
                return Err(format!(
                    "cycle {cycle}: output `{name}` lost known bits under X stimulus: \
                     original={va} optimized={vb}"
                ));
            }
        }
        a.clock();
        b.clock();
    }
    Ok(())
}

/// One module's half of [`verify_equivalent`]: its two-valued and
/// four-state simulators.
struct GateSide {
    interp: Simulator,
    xsim: Xsim,
}

impl GateSide {
    fn new(m: &Module) -> Self {
        let mut xsim = Xsim::new(m.clone());
        xsim.reset();
        GateSide {
            interp: Simulator::new(m.clone()),
            xsim,
        }
    }

    fn eval(&mut self, known: &[ApInt], fourstate: &[XVal]) {
        self.interp.eval_ports(known);
        self.xsim.eval_ports(fourstate);
    }

    fn clock(&mut self) {
        self.interp.clock();
        self.xsim.clock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a, b 16-bit in; builds a little expression DAG with redundancy,
    /// constants, pow-2 multiplies, and a register.
    fn sample_module() -> Module {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 16);
        let b = m.add_port("b", PortDir::Input, 16);
        let o = m.add_port("o", PortDir::Output, 16);
        let na = m.add_net(Driver::Input { port: a }, 16, "a");
        let nb = m.add_net(Driver::Input { port: b }, 16, "b");
        let zero = m.add_net(Driver::Const(ApInt::zero(16)), 16, "zero");
        let four = m.add_net(Driver::Const(ApInt::from_u64(4, 16)), 16, "four");
        // a + 0 — folds to a.
        let a0 = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![na, zero],
                lo: 0,
            },
            16,
            "a0",
        );
        // (a + 0) * 4 — strength-reduces to a shift.
        let m4 = m.add_net(
            Driver::Comb {
                op: CombOp::Mul,
                args: vec![a0, four],
                lo: 0,
            },
            16,
            "m4",
        );
        // b ^ b twice — folds to 0, then both CSE away.
        let x1 = m.add_net(
            Driver::Comb {
                op: CombOp::Xor,
                args: vec![nb, nb],
                lo: 0,
            },
            16,
            "x1",
        );
        let x2 = m.add_net(
            Driver::Comb {
                op: CombOp::Xor,
                args: vec![nb, nb],
                lo: 0,
            },
            16,
            "x2",
        );
        let s1 = m.add_net(
            Driver::Comb {
                op: CombOp::Or,
                args: vec![m4, x1],
                lo: 0,
            },
            16,
            "s1",
        );
        let s2 = m.add_net(
            Driver::Comb {
                op: CombOp::Or,
                args: vec![s1, x2],
                lo: 0,
            },
            16,
            "s2",
        );
        let r = m.add_net(
            Driver::Reg {
                next: s2,
                enable: None,
                init: ApInt::zero(16),
            },
            16,
            "r",
        );
        m.connect_output(o, r);
        lint_module(&m).unwrap();
        m
    }

    #[test]
    fn o0_is_identity() {
        let m = sample_module();
        let (out, report) = optimize(&m, OptLevel::O0).unwrap();
        assert_eq!(out.nets.len(), m.nets.len());
        assert_eq!(report.total(), 0);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn fixpoint_collapses_the_sample_and_stays_equivalent() {
        let m = sample_module();
        let (out, report) = optimize(&m, OptLevel::O2).unwrap();
        lint_module(&out).unwrap();
        assert!(report.total() > 0, "{report:?}");
        assert!(
            out.nets.len() < m.nets.len(),
            "{} -> {}",
            m.nets.len(),
            out.nets.len()
        );
        // The Mul must be gone (strength-reduced to wiring).
        assert!(
            !out.nets.iter().any(|n| matches!(
                n.driver,
                Driver::Comb {
                    op: CombOp::Mul,
                    ..
                }
            )),
            "kept the multiply"
        );
        verify_equivalent(&m, &out, &EmitOptions, 32).unwrap();
    }

    #[test]
    fn counters_are_deterministic() {
        let m = sample_module();
        let (_, r1) = optimize(&m, OptLevel::O2).unwrap();
        let (_, r2) = optimize(&m, OptLevel::O2).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn verify_flags_a_wrong_rewrite() {
        let m = sample_module();
        let mut broken = m.clone();
        // "Optimize" the Or into an And — verify must catch it.
        for net in &mut broken.nets {
            if let Driver::Comb { op, .. } = &mut net.driver {
                if *op == CombOp::Or {
                    *op = CombOp::And;
                }
            }
        }
        let err = verify_equivalent(&m, &broken, &EmitOptions, 32).unwrap_err();
        assert!(
            err.contains("diverged") || err.contains("lost known bits"),
            "{err}"
        );
    }

    /// Three outputs `o0..o2` driven by `a + 1`, `a + 2` and `a + 3`; with
    /// `op` = `Sub` instead, every output diverges from the `Add` original.
    fn three_output_module(op: CombOp) -> Module {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        for k in 0..3u64 {
            let o = m.add_port(&format!("o{k}"), PortDir::Output, 8);
            let c = m.add_net(Driver::Const(ApInt::from_u64(k + 1, 8)), 8, "c");
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
        }
        lint_module(&m).unwrap();
        m
    }

    #[test]
    fn verify_reports_the_first_divergent_output_in_port_order() {
        let original = three_output_module(CombOp::Add);
        let broken = three_output_module(CombOp::Sub);
        let messages: std::collections::BTreeSet<String> = (0..32)
            .map(|_| verify_equivalent(&original, &broken, &EmitOptions, 32).unwrap_err())
            .collect();
        assert_eq!(messages.len(), 1, "{messages:?}");
        let message = messages.first().unwrap();
        assert!(message.contains("output `o0`"), "{message}");
    }

    #[test]
    fn verify_reports_an_output_missing_from_the_optimized_module() {
        let original = three_output_module(CombOp::Add);
        let mut optimized = original.clone();
        // Connections are `(port, net)` pairs; `o1` is port 2.
        optimized.outputs.retain(|&(port, _)| port != 2);
        let err = verify_equivalent(&original, &optimized, &EmitOptions, 32).unwrap_err();
        assert_eq!(err, "output `o1` missing from optimized module");
    }

    #[test]
    fn verify_refuses_a_renamed_or_resized_input_port() {
        // Both modules read one stimulus vector, so a changed port is
        // refused before any cycle runs; matched by name, the renamed `a`
        // would read as a missing input and the resized one as truncated.
        let original = sample_module();
        let mut renamed = original.clone();
        renamed.ports[0].name = "c".into();
        let mut resized = original.clone();
        resized.ports[0].width = 8;
        for optimized in [renamed, resized] {
            let err = verify_equivalent(&original, &optimized, &EmitOptions, 32).unwrap_err();
            assert_eq!(err, "optimized module's ports differ from the original's");
        }
    }

    #[test]
    fn gate_stimulus_stream_is_pinned() {
        // The stream decides which rewrites the gate accepts, so a change
        // to it must be deliberate: each width takes the next
        // `ceil(width / 64)` words as its limbs, low limb first.
        let mut state = 0x6c6e_6770_7470_0001u64 ^ 32;
        let drawn: Vec<String> = [1, 16, 64, 65, 129]
            .iter()
            .map(|&w| format!("{:?}", rand_apint(&mut state, w)))
            .collect();
        assert_eq!(
            drawn,
            [
                "1'h0",
                "16'h9239",
                "64'h4bf3ef601a84b735",
                "65'h152a4788fa010df50",
                "129'h5c3cf1207b042e005c95a36c97459f94",
            ]
        );
        assert_eq!(state, 0x5e2a_353c_6ec3_e0c9);
    }

    #[test]
    fn dce_drops_unreachable_nets_and_roms() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        m.roms.push(crate::netlist::RomData {
            name: "dead".into(),
            width: 8,
            contents: vec![ApInt::zero(8); 4],
        });
        let idx = m.add_net(Driver::Const(ApInt::zero(8)), 8, "idx");
        let _dead_read = m.add_net(Driver::Rom { rom: 0, index: idx }, 8, "dead_read");
        let keep = m.add_net(
            Driver::Comb {
                op: CombOp::Not,
                args: vec![na],
                lo: 0,
            },
            8,
            "keep",
        );
        m.connect_output(o, keep);
        let removed = dce(&mut m);
        assert_eq!(removed, 3, "idx, dead_read, dead rom");
        assert_eq!(m.nets.len(), 2);
        assert!(m.roms.is_empty());
        lint_module(&m).unwrap();
    }

    #[test]
    fn a_module_that_fails_lint_is_refused_before_any_pass_runs() {
        // A counter whose `Add` reads the register defined after it:
        // narrowing's abstract evaluation would index past the values it
        // has computed.
        let mut m = Module::new("t");
        let o = m.add_port("o", PortDir::Output, 8);
        let one = m.add_net(Driver::Const(ApInt::one(8)), 8, "one");
        let inc = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![NetId(2), one],
                lo: 0,
            },
            8,
            "inc",
        );
        let r = m.add_net(
            Driver::Reg {
                next: inc,
                enable: None,
                init: ApInt::zero(8),
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        let err = run_pass(&m, Pass::Narrow, &EmitOptions).unwrap_err();
        assert_eq!(
            err,
            "input netlist fails lint: net 1: reads net 2 before it is defined"
        );
        assert_eq!(optimize(&m, OptLevel::O2).unwrap_err(), err);
    }

    #[test]
    fn opt_level_parses_round_trip() {
        for n in [0, 2] {
            assert_eq!(OptLevel::from_level(n).unwrap().level(), n);
        }
        assert_eq!(OptLevel::from_level(1), None);
        assert_eq!(OptLevel::from_level(3), None);
    }
}
