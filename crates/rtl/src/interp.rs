//! Cycle-accurate netlist simulation.
//!
//! Evaluates a [`Module`] one clock cycle at a time: combinational nets are
//! computed in definition order (a module that lints clean defines every
//! combinational operand before its user), outputs are sampled, then
//! registers latch. It stands in for the paper's RTL simulation (§5.3) in
//! `tests/rtl_cosim.rs` and `tests/differential_fuzz.rs`; the extended
//! cores in `cores` execute the scheduled LIL graphs, not netlists.

use crate::netlist::{CombOp, Driver, Module};
use bits::ApInt;
use std::collections::HashMap;

/// Evaluates one combinational operator on the operands `a(0)`, `a(1)`,
/// … to a `width`-bit result: the compiler's two-valued reference
/// semantics, shared by [`Simulator::eval_ports`], the whole-word operators
/// of [`crate::xsim`] and the optimizer's constant folding. Operands are
/// read through `a` so the simulator evaluates its nets in place.
pub(crate) fn eval_comb<'a>(
    op: CombOp,
    a: impl Fn(usize) -> &'a ApInt,
    lo: u32,
    width: u32,
) -> ApInt {
    match op {
        CombOp::Add => a(0).add(a(1)),
        CombOp::Sub => a(0).sub(a(1)),
        CombOp::Mul => a(0).mul(a(1)),
        CombOp::DivU => a(0).udiv(a(1)),
        CombOp::DivS => a(0).sdiv(a(1)),
        CombOp::RemU => a(0).urem(a(1)),
        CombOp::RemS => a(0).srem(a(1)),
        CombOp::And => a(0).and(a(1)),
        CombOp::Or => a(0).or(a(1)),
        CombOp::Xor => a(0).xor(a(1)),
        CombOp::Not => a(0).not(),
        CombOp::Shl => a(0).shl(a(1)),
        CombOp::ShrU => a(0).lshr(a(1)),
        CombOp::ShrS => a(0).ashr(a(1)),
        CombOp::Eq => ApInt::from_bool(a(0) == a(1)),
        CombOp::Ne => ApInt::from_bool(a(0) != a(1)),
        CombOp::Ult => ApInt::from_bool(a(0).ult(a(1))),
        CombOp::Ule => ApInt::from_bool(a(0).ule(a(1))),
        CombOp::Slt => ApInt::from_bool(a(0).slt(a(1))),
        CombOp::Sle => ApInt::from_bool(a(0).sle(a(1))),
        CombOp::Mux => {
            if a(0).is_zero() {
                a(2).clone()
            } else {
                a(1).clone()
            }
        }
        CombOp::Concat => a(0).concat(a(1)),
        CombOp::Replicate => a(0).replicate(lo),
        CombOp::Extract => {
            // Bits past the top of the base read zero.
            let base = a(0);
            let need = lo + width;
            if base.width() < need {
                base.zext(need).extract(lo, width)
            } else {
                base.extract(lo, width)
            }
        }
        CombOp::ExtractDyn => a(0).lshr(a(1)).zext_or_trunc(width),
        CombOp::ZExt => a(0).zext(width),
        CombOp::SExt => a(0).sext(width),
        CombOp::Trunc => a(0).trunc(width),
    }
}

/// A netlist simulator instance.
///
/// The evaluation loop is port-indexed: [`Simulator::eval_ports`] reads
/// one value per port and leaves every net's value in
/// [`Simulator::net_values`], where a caller reads its outputs by net id.
/// Constant nets are written once, at construction, and [`Simulator::clock`]
/// latches into the register state in place, so a cycle allocates nothing
/// for values up to 128 bits.
#[derive(Debug, Clone)]
pub struct Simulator {
    module: Module,
    /// Current register values (indexed by net id; `None` for non-regs).
    regs: Vec<Option<ApInt>>,
    /// Net values from the most recent evaluation; constant nets hold their
    /// constant from construction on.
    values: Vec<ApInt>,
}

impl Simulator {
    /// Creates a simulator with all registers at their reset values.
    pub fn new(module: Module) -> Self {
        let regs = module
            .nets
            .iter()
            .map(|n| match &n.driver {
                Driver::Reg { init, .. } => Some(init.clone()),
                _ => None,
            })
            .collect();
        let values = module
            .nets
            .iter()
            .map(|n| match &n.driver {
                Driver::Const(c) => c.clone(),
                _ => ApInt::zero(n.width),
            })
            .collect();
        Simulator {
            module,
            regs,
            values,
        }
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// All net values from the most recent evaluation, indexed by net id.
    pub fn net_values(&self) -> &[ApInt] {
        &self.values
    }

    /// Resets all registers to their initial values.
    pub fn reset(&mut self) {
        for (i, net) in self.module.nets.iter().enumerate() {
            if let Driver::Reg { init, .. } = &net.driver {
                self.regs[i] = Some(init.clone());
            }
        }
    }

    /// Evaluates the combinational fabric with `inputs[p]` on port `p`
    /// (one entry per port, each of its port's width; the entries of
    /// output ports are not read). Does **not** clock the registers.
    pub fn eval_ports(&mut self, inputs: &[ApInt]) {
        debug_assert_eq!(inputs.len(), self.module.ports.len());
        for i in 0..self.module.nets.len() {
            let net = &self.module.nets[i];
            let width = net.width;
            let value = match &net.driver {
                Driver::Const(_) => continue,
                Driver::Input { port } => inputs[*port].clone(),
                Driver::Reg { .. } => self.regs[i].clone().expect("register state"),
                Driver::Rom { rom, index } => self.module.roms[*rom].read(&self.values[index.0]),
                Driver::Comb { op, args, lo } => {
                    eval_comb(*op, |k| &self.values[args[k].0], *lo, width)
                }
            };
            debug_assert_eq!(value.width(), width, "net {i} width mismatch");
            self.values[i] = value;
        }
    }

    /// Evaluates the combinational fabric for the named input values and
    /// returns the output-port values by name: an adapter over
    /// [`Simulator::eval_ports`]. Does **not** clock the registers.
    ///
    /// Missing inputs default to zero; others are zero-extended or
    /// truncated to their port's width.
    pub fn eval(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, ApInt> {
        let ports = two_state_ports(&self.module, inputs);
        self.eval_ports(&ports);
        outputs_by_name(&self.module, &self.values)
    }

    /// Latches all registers based on the most recent evaluation. Every
    /// register reads the net values of that evaluation, which latching
    /// leaves untouched, so registers that feed each other swap cleanly.
    pub fn clock(&mut self) {
        for (i, net) in self.module.nets.iter().enumerate() {
            if let Driver::Reg { next, enable, .. } = &net.driver {
                if enable.is_none_or(|e| !self.values[e.0].is_zero()) {
                    self.regs[i] = Some(self.values[next.0].clone());
                }
            }
        }
    }

    /// Convenience: `eval` then `clock`, returning the sampled outputs.
    pub fn step(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, ApInt> {
        let outputs = self.eval(inputs);
        self.clock();
        outputs
    }
}

/// One value per port of `module` from named inputs: a missing input is
/// zero, and one of another width is zero-extended or truncated.
pub(crate) fn two_state_ports(module: &Module, inputs: &HashMap<String, ApInt>) -> Vec<ApInt> {
    module
        .ports
        .iter()
        .map(|p| {
            inputs
                .get(&p.name)
                .map(|v| v.zext_or_trunc(p.width))
                .unwrap_or_else(|| ApInt::zero(p.width))
        })
        .collect()
}

/// The output-port values of `module` by port name, read from the net
/// values `values` of an evaluation: the result of the name-keyed adapters.
pub(crate) fn outputs_by_name<T: Clone>(module: &Module, values: &[T]) -> HashMap<String, T> {
    module
        .outputs
        .iter()
        .map(|&(port, net)| (module.ports[port].name.clone(), values[net.0].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Driver, Module, NetId, PortDir};

    /// An accumulator: q <= q + in when en.
    fn accumulator() -> Module {
        let mut m = Module::new("acc");
        let inp = m.add_port("in", PortDir::Input, 8);
        let en = m.add_port("en", PortDir::Input, 1);
        let out = m.add_port("q", PortDir::Output, 8);
        let n_in = m.add_net(Driver::Input { port: inp }, 8, "in");
        let n_en = m.add_net(Driver::Input { port: en }, 1, "en");
        // The register comes before the sum that reads it; its `next` may
        // point forward to that sum.
        let n_reg = m.add_net(
            Driver::Reg {
                next: NetId(3),
                enable: Some(n_en),
                init: ApInt::zero(8),
            },
            8,
            "q",
        );
        let n_sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![n_reg, n_in],
                lo: 0,
            },
            8,
            "sum",
        );
        assert_eq!(n_sum, NetId(3));
        m.connect_output(out, n_reg);
        crate::lint::lint_module(&m).unwrap();
        m
    }

    #[test]
    fn accumulator_counts() {
        let mut sim = Simulator::new(accumulator());
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), ApInt::from_u64(3, 8));
        inputs.insert("en".to_string(), ApInt::one(1));
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 0);
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 3);
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 6);
        // Stall: enable low holds the value.
        inputs.insert("en".to_string(), ApInt::zero(1));
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 9);
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 9);
        sim.reset();
        inputs.insert("en".to_string(), ApInt::one(1));
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 0);
    }

    #[test]
    fn missing_inputs_default_to_zero() {
        let mut sim = Simulator::new(accumulator());
        let out = sim.step(&HashMap::new());
        assert_eq!(out["q"].to_u64(), 0);
    }

    #[test]
    fn rom_reads_past_the_end_and_past_u64_yield_zero() {
        let mut m = Module::new("romtest");
        let idx = m.add_port("idx", PortDir::Input, 128);
        let out = m.add_port("word", PortDir::Output, 8);
        let n_idx = m.add_net(Driver::Input { port: idx }, 128, "idx");
        m.roms.push(crate::netlist::RomData {
            name: "tab".into(),
            width: 8,
            contents: vec![ApInt::from_u64(0xaa, 8), ApInt::from_u64(0xbb, 8)],
        });
        let n_rd = m.add_net(
            Driver::Rom {
                rom: 0,
                index: n_idx,
            },
            8,
            "word",
        );
        m.connect_output(out, n_rd);
        let mut sim = Simulator::new(m);

        let read = |sim: &mut Simulator, v: ApInt| {
            let mut inputs = HashMap::new();
            inputs.insert("idx".to_string(), v);
            sim.eval(&inputs)["word"].to_u64()
        };
        assert_eq!(read(&mut sim, ApInt::from_u64(1, 128)), 0xbb);
        // Just past the table: zero.
        assert_eq!(read(&mut sim, ApInt::from_u64(2, 128)), 0);
        // Wider than u64 (would previously saturate to u64::MAX and, on a
        // 32-bit usize, could wrap back into range): zero.
        assert_eq!(read(&mut sim, ApInt::one(128).shl_bits(100)), 0);
    }
}
