//! The cycle-accurate netlist simulation engine, over any value domain.
//!
//! [`Sim`] evaluates a [`Module`] one clock cycle at a time: combinational
//! nets in definition order (a module that lints clean defines every
//! combinational operand before its user), then every register latches.
//! What a net holds, and the rules that depend on it, come from its
//! [`Value`] domain: [`crate::interp`]'s two-valued [`ApInt`] and
//! [`crate::xsim`]'s four-state [`crate::XVal`].
//!
//! The engine is port-indexed: [`Sim::eval_ports`] reads one value per
//! port and leaves every net's value in [`Sim::net_values`]. Constant nets
//! are written once, at construction, and [`Sim::clock`] latches in place,
//! so a cycle allocates nothing for values up to 128 bits. [`Sim::eval`]
//! and [`Sim::step`] are the one name-keyed adapter over it.

use crate::netlist::{CombOp, Driver, Module, RomData};
use bits::ApInt;
use std::collections::HashMap;
use std::fmt;

/// A value domain: what a net holds, and the rules that depend on it.
///
/// Implementations mark [`Value::rom`], [`Value::comb`] and
/// [`Value::latch`] `#[inline]`: [`Sim`] calls them once per net or
/// register from this module, which rustc compiles in another codegen unit
/// than the implementation, and without the attribute each call stays out
/// of line instead of joining the engine's loop.
pub trait Value: Clone + fmt::Debug {
    /// The value of constant `c`: a constant net, or a register at reset.
    fn constant(c: &ApInt) -> Self;
    /// A `width`-bit net before its first evaluation, and a named input
    /// that is missing.
    fn undriven(width: u32) -> Self;
    /// A register whose reset value is `init`, at power-up, before any
    /// reset: by default, its reset value.
    fn power_up(init: &ApInt) -> Self {
        Self::constant(init)
    }
    /// Bit width.
    fn width(&self) -> u32;
    /// Zero-extended or truncated to `width` bits: a named input of another
    /// width than its port.
    fn resize(&self, width: u32) -> Self;
    /// A read of `table` at `index`.
    fn rom(table: &RomData, index: &Self) -> Self;
    /// Operator `op` on the operands `a(0)`, `a(1)`, … to a `width`-bit
    /// result. Operands are read through `a` so the engine evaluates its
    /// nets in place.
    fn comb<'a>(op: CombOp, a: impl Fn(usize) -> &'a Self, lo: u32, width: u32) -> Self
    where
        Self: 'a;
    /// Latches `load` into this register under `enable` (`None`: the
    /// register has no enable and loads every cycle).
    fn latch(&mut self, load: &Self, enable: Option<&Self>);
}

/// A netlist simulator over the value domain `V`.
#[derive(Debug, Clone)]
pub struct Sim<V> {
    module: Module,
    /// Current register values (indexed by net id; `None` for non-regs).
    regs: Vec<Option<V>>,
    /// Net values from the most recent evaluation; constant nets hold their
    /// constant from construction on.
    values: Vec<V>,
}

impl<V: Value> Sim<V> {
    /// Creates a simulator with every register at its [`Value::power_up`]
    /// value.
    pub fn new(module: Module) -> Self {
        let regs = module
            .nets
            .iter()
            .map(|n| match &n.driver {
                Driver::Reg { init, .. } => Some(V::power_up(init)),
                _ => None,
            })
            .collect();
        let values = module
            .nets
            .iter()
            .map(|n| match &n.driver {
                Driver::Const(c) => V::constant(c),
                _ => V::undriven(n.width),
            })
            .collect();
        Sim {
            module,
            regs,
            values,
        }
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Models a completed synchronous reset: every register holds its
    /// `init` value.
    pub fn reset(&mut self) {
        for (reg, net) in self.regs.iter_mut().zip(&self.module.nets) {
            if let Driver::Reg { init, .. } = &net.driver {
                *reg = Some(V::constant(init));
            }
        }
    }

    /// The most recent value of net `i`.
    pub fn net(&self, i: usize) -> &V {
        &self.values[i]
    }

    /// All net values from the most recent evaluation, indexed by net id.
    pub fn net_values(&self) -> &[V] {
        &self.values
    }

    /// Evaluates the combinational fabric with `inputs[p]` on port `p`
    /// (one entry per port, each of its port's width; the entries of
    /// output ports are not read). Does **not** clock the registers.
    pub fn eval_ports(&mut self, inputs: &[V]) {
        debug_assert_eq!(inputs.len(), self.module.ports.len());
        for i in 0..self.module.nets.len() {
            let net = &self.module.nets[i];
            let width = net.width;
            let value = match &net.driver {
                Driver::Const(_) => continue,
                Driver::Input { port } => inputs[*port].clone(),
                Driver::Reg { .. } => self.regs[i].clone().expect("register state"),
                Driver::Rom { rom, index } => {
                    V::rom(&self.module.roms[*rom], &self.values[index.0])
                }
                Driver::Comb { op, args, lo } => {
                    V::comb(*op, |k| &self.values[args[k].0], *lo, width)
                }
            };
            debug_assert_eq!(value.width(), width, "net {i} width mismatch");
            self.values[i] = value;
        }
    }

    /// Latches all registers based on the most recent evaluation. Every
    /// register reads the net values of that evaluation, which latching
    /// leaves untouched, so registers that feed each other swap cleanly.
    pub fn clock(&mut self) {
        for (reg, net) in self.regs.iter_mut().zip(&self.module.nets) {
            if let Driver::Reg { next, enable, .. } = &net.driver {
                let reg = reg.as_mut().expect("register state");
                reg.latch(&self.values[next.0], enable.map(|e| &self.values[e.0]));
            }
        }
    }

    /// Evaluates the combinational fabric for the named input values and
    /// returns the output-port values by name: the name-keyed adapter over
    /// [`Sim::eval_ports`]. A missing input is [`Value::undriven`], and one
    /// of another width is [`Value::resize`]d to its port's. Does **not**
    /// clock the registers.
    pub fn eval(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, V> {
        let ports = named_ports(&self.module, inputs);
        self.eval_ports(&ports);
        self.module
            .outputs
            .iter()
            .map(|&(port, net)| {
                (
                    self.module.ports[port].name.clone(),
                    self.values[net.0].clone(),
                )
            })
            .collect()
    }

    /// Convenience: `eval` then `clock`, returning the sampled outputs.
    pub fn step(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, V> {
        let outputs = self.eval(inputs);
        self.clock();
        outputs
    }
}

/// One value per port of `module` from named inputs, as [`Sim::eval`]
/// reads them.
pub(crate) fn named_ports<V: Value>(module: &Module, inputs: &HashMap<String, ApInt>) -> Vec<V> {
    module
        .ports
        .iter()
        .map(|p| match inputs.get(&p.name) {
            Some(v) => V::constant(v).resize(p.width),
            None => V::undriven(p.width),
        })
        .collect()
}
