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
//!   [`crate::xsim`]: an abstract evaluation with all-X inputs/registers
//!   proves upper bits dead, ops are re-emitted at their live width and
//!   users patched with `ZExt` (`-O2` only).
//!
//! Every pass preserves the two-valued [`crate::interp`] semantics of the
//! output ports exactly, and may only *refine* the four-state
//! [`crate::xsim`] semantics (an X bit may become known, a known bit never
//! changes value or becomes X). The pass manager re-validates the netlist
//! after every pass and the pipeline gates the result three ways: the
//! structural lint must stay clean, [`verify_equivalent`] runs the
//! original and optimized modules in lockstep (including X stimulus), and
//! the full matrix re-checks under `lnc --xcheck`.

use crate::interp::Simulator;
use crate::netlist::{Driver, Module, NetId};
use crate::verilog::EmitOptions;
use crate::xsim::{XVal, Xsim};
use bits::ApInt;
use std::collections::BTreeMap;
use std::collections::HashMap;

mod cse;
mod fold;
mod mux;
mod narrow;
mod strength;

/// Optimization effort, mirroring `lnc --opt-level {0,1,2}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No optimization: the netlist is emitted as built.
    O0,
    /// Fold, CSE, mux flattening, strength reduction.
    O1,
    /// `O1` plus bitwidth narrowing.
    O2,
}

impl OptLevel {
    /// Parses a numeric level (the `--opt-level` argument).
    pub fn from_level(level: u8) -> Option<OptLevel> {
        match level {
            0 => Some(OptLevel::O0),
            1 => Some(OptLevel::O1),
            2 => Some(OptLevel::O2),
            _ => None,
        }
    }

    /// The numeric level.
    pub fn level(self) -> u8 {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
        }
    }
}

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
    /// Bitwidth narrowing via the xsim known planes (`-O2`).
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
/// and its rewrite count. The output is re-validated exactly like the
/// pipeline does after every pass.
///
/// # Errors
///
/// If the pass produces a structurally invalid netlist (an optimizer bug).
pub fn run_pass(module: &Module, pass: Pass, opts: &EmitOptions) -> Result<(Module, u64), String> {
    let mut m = module.clone();
    let count = apply(&mut m, pass, opts)?;
    Ok((m, count))
}

/// Runs `pass` once over `m` in place, re-validates the result, and
/// returns the pass's rewrite count.
fn apply(m: &mut Module, pass: Pass, opts: &EmitOptions) -> Result<u64, String> {
    let rebuilt = |m: &mut Module, out: Option<(Module, u64)>| match out {
        Some((rewritten, count)) => {
            *m = rewritten;
            count
        }
        None => 0,
    };
    let count = match pass {
        Pass::Fold => fold::run(m),
        Pass::Cse => cse::run(m),
        Pass::Mux => mux::run(m),
        Pass::Strength => rebuilt(m, strength::run(m)),
        Pass::Narrow => rebuilt(m, narrow::run(m, opts)),
        Pass::Dce => dce(m),
    };
    check(m, pass.name())?;
    Ok(count)
}

/// Upper bound on fixpoint iterations; convergence is typically reached in
/// two or three. The result is correct (just less optimized) if the cap
/// ever bites.
const MAX_ITERATIONS: u32 = 8;

/// Optimizes `module` at `level`. `opts` selects the emission semantics
/// the four-state analyses model (the same options the module will be
/// emitted with).
///
/// # Errors
///
/// If a pass produces a structurally invalid netlist — an optimizer bug,
/// reported so the caller can fall back to the unoptimized module.
pub fn optimize(
    module: &Module,
    level: OptLevel,
    opts: &EmitOptions,
) -> Result<(Module, OptReport), String> {
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
            if pass == Pass::Narrow && level < OptLevel::O2 {
                continue;
            }
            let count = apply(&mut m, pass, opts)?;
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

fn check(m: &Module, pass: &str) -> Result<(), String> {
    m.validate()
        .map_err(|e| format!("optimizer pass `{pass}` broke the netlist: {e}"))
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
        for net in &mut m.nets {
            match &mut net.driver {
                Driver::Comb { args, .. } => {
                    for a in args {
                        *a = self.resolve(*a);
                    }
                }
                Driver::Rom { index, .. } => *index = self.resolve(*index),
                Driver::Reg { next, enable, .. } => {
                    *next = self.resolve(*next);
                    if let Some(e) = enable {
                        *e = self.resolve(*e);
                    }
                }
                Driver::Input { .. } | Driver::Const(_) => {}
            }
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

/// Dead-net elimination: drops every net not reachable from an output,
/// compacting ids (and ROM tables no surviving net reads). Returns the
/// number of nets removed.
pub(crate) fn dce(m: &mut Module) -> u64 {
    let n = m.nets.len();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = m.outputs.iter().map(|&(_, id)| id.0).collect();
    while let Some(i) = stack.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        match &m.nets[i].driver {
            Driver::Comb { args, .. } => stack.extend(args.iter().map(|a| a.0)),
            Driver::Rom { index, .. } => stack.push(index.0),
            Driver::Reg { next, enable, .. } => {
                stack.push(next.0);
                if let Some(e) = enable {
                    stack.push(e.0);
                }
            }
            Driver::Input { .. } | Driver::Const(_) => {}
        }
    }
    let removed = live.iter().filter(|&&l| !l).count() as u64;
    if removed == 0 {
        return compact_roms(m);
    }
    let mut map = vec![NetId(0); n];
    let mut nets = Vec::with_capacity(n - removed as usize);
    for (i, net) in m.nets.iter().enumerate() {
        if live[i] {
            map[i] = NetId(nets.len());
            nets.push(net.clone());
        }
    }
    for net in &mut nets {
        match &mut net.driver {
            Driver::Comb { args, .. } => {
                for a in args {
                    *a = map[a.0];
                }
            }
            Driver::Rom { index, .. } => *index = map[index.0],
            Driver::Reg { next, enable, .. } => {
                *next = map[next.0];
                if let Some(e) = enable {
                    *e = map[e.0];
                }
            }
            Driver::Input { .. } | Driver::Const(_) => {}
        }
    }
    m.nets = nets;
    for (_, net) in &mut m.outputs {
        *net = map[net.0];
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
/// stimulus and checks
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
/// A description of the first divergence.
pub fn verify_equivalent(
    original: &Module,
    optimized: &Module,
    opts: &EmitOptions,
    cycles: u32,
) -> Result<(), String> {
    let mut interp_a = Simulator::new(original.clone());
    let mut interp_b = Simulator::new(optimized.clone());
    let mut xsim_a = Xsim::with_options(original.clone(), *opts);
    let mut xsim_b = Xsim::with_options(optimized.clone(), *opts);
    xsim_a.reset();
    xsim_b.reset();
    let mut state = 0x6c6e_6770_7470_0001u64 ^ u64::from(cycles);
    // Outputs are compared in port-connection order, so the first
    // divergence reported does not depend on hash-map iteration order.
    let outputs = || {
        original
            .outputs
            .iter()
            .map(|&(port, _)| &original.ports[port].name)
    };
    let missing = |name: &str| format!("output `{name}` missing from optimized module");
    for cycle in 0..cycles {
        let mut known = HashMap::new();
        let mut fourstate = HashMap::new();
        for port in &original.ports {
            if port.dir != crate::netlist::PortDir::Input {
                continue;
            }
            let value = rand_apint(&mut state, port.width);
            known.insert(port.name.clone(), value.clone());
            // Every third cycle knocks a pseudo-random subset of bits to X
            // so refinement is exercised, not just the all-known case.
            let mask = if cycle % 3 == 2 {
                rand_apint(&mut state, port.width)
            } else {
                ApInt::ones(port.width)
            };
            fourstate.insert(
                port.name.clone(),
                XVal::from_planes(value.and(&mask), mask),
            );
        }
        let out_a = interp_a.step(&known);
        let out_b = interp_b.step(&known);
        for name in outputs() {
            let (va, vb) = (&out_a[name], out_b.get(name).ok_or_else(|| missing(name))?);
            if va != vb {
                return Err(format!(
                    "cycle {cycle}: output `{name}` diverged: original={va:x} optimized={vb:x}"
                ));
            }
        }
        let x_a = xsim_a.eval_x(&fourstate);
        let x_b = xsim_b.eval_x(&fourstate);
        for name in outputs() {
            let (va, vb) = (&x_a[name], x_b.get(name).ok_or_else(|| missing(name))?);
            let disagree = va.value_plane().xor(vb.value_plane());
            let bad = va
                .known_plane()
                .and(&vb.known_plane().not().or(&disagree));
            if !bad.is_zero() {
                return Err(format!(
                    "cycle {cycle}: output `{name}` lost known bits under X stimulus: \
                     original={va} optimized={vb}"
                ));
            }
        }
        xsim_a.clock();
        xsim_b.clock();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_module;
    use crate::netlist::{CombOp, PortDir};

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
        m.validate().unwrap();
        m
    }

    #[test]
    fn o0_is_identity() {
        let m = sample_module();
        let (out, report) = optimize(&m, OptLevel::O0, &EmitOptions::default()).unwrap();
        assert_eq!(out.nets.len(), m.nets.len());
        assert_eq!(report.total(), 0);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn fixpoint_collapses_the_sample_and_stays_equivalent() {
        let m = sample_module();
        for level in [OptLevel::O1, OptLevel::O2] {
            let (out, report) = optimize(&m, level, &EmitOptions::default()).unwrap();
            out.validate().unwrap();
            lint_module(&out).unwrap();
            assert!(report.total() > 0, "{level:?}: {report:?}");
            assert!(
                out.nets.len() < m.nets.len(),
                "{level:?}: {} -> {}",
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
                "{level:?} kept the multiply"
            );
            verify_equivalent(&m, &out, &EmitOptions::default(), 32).unwrap();
        }
    }

    #[test]
    fn counters_are_deterministic() {
        let m = sample_module();
        let (_, r1) = optimize(&m, OptLevel::O2, &EmitOptions::default()).unwrap();
        let (_, r2) = optimize(&m, OptLevel::O2, &EmitOptions::default()).unwrap();
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
        let err = verify_equivalent(&m, &broken, &EmitOptions::default(), 32).unwrap_err();
        assert!(err.contains("diverged") || err.contains("lost known bits"), "{err}");
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
        m.validate().unwrap();
        m
    }

    #[test]
    fn verify_reports_the_first_divergent_output_in_port_order() {
        let original = three_output_module(CombOp::Add);
        let broken = three_output_module(CombOp::Sub);
        let messages: std::collections::BTreeSet<String> = (0..32)
            .map(|_| {
                verify_equivalent(&original, &broken, &EmitOptions::default(), 32).unwrap_err()
            })
            .collect();
        assert_eq!(messages.len(), 1, "{messages:?}");
        let message = messages.first().unwrap();
        assert!(message.contains("output `o0`"), "{message}");
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
        m.validate().unwrap();
    }

    #[test]
    fn opt_level_parses_round_trip() {
        for n in 0..=2u8 {
            assert_eq!(OptLevel::from_level(n).unwrap().level(), n);
        }
        assert_eq!(OptLevel::from_level(3), None);
    }
}
