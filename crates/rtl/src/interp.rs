//! Cycle-accurate netlist simulation.
//!
//! Evaluates a [`Module`] one clock cycle at a time: combinational nets are
//! computed in definition order (the builder guarantees topological order),
//! outputs are sampled, then registers latch. This is the "RTL simulation"
//! substrate used to verify the extended cores (paper §5.3).

use crate::netlist::{CombOp, Driver, Module};
use bits::ApInt;
use std::collections::HashMap;

/// Evaluates one combinational operator on the operands `a(0)`, `a(1)`,
/// … to a `width`-bit result: the compiler's two-valued reference
/// semantics, shared by [`Simulator::eval`] and the optimizer's constant
/// folding. Operands are read through `a` so the simulator evaluates its
/// nets in place.
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
            let base = a(0);
            let need = lo + width;
            let padded = if base.width() < need {
                base.zext(need)
            } else {
                base.clone()
            };
            padded.extract(lo, width)
        }
        CombOp::ExtractDyn => a(0).lshr(a(1)).zext_or_trunc(width),
        CombOp::ZExt => a(0).zext(width),
        CombOp::SExt => a(0).sext(width),
        CombOp::Trunc => a(0).trunc(width),
    }
}

/// A netlist simulator instance.
#[derive(Debug, Clone)]
pub struct Simulator {
    module: Module,
    /// Current register values (indexed by net id; `None` for non-regs).
    regs: Vec<Option<ApInt>>,
    /// Net values from the most recent evaluation.
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
        let values = module.nets.iter().map(|n| ApInt::zero(n.width)).collect();
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

    /// All net values from the most recent [`Simulator::eval`], indexed by
    /// net id. Used by the differential oracle in [`crate::xsim`].
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

    /// Evaluates the combinational fabric for the given input values and
    /// returns the output-port values. Does **not** clock the registers.
    ///
    /// Missing inputs default to zero.
    pub fn eval(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, ApInt> {
        let port_values: Vec<ApInt> = self
            .module
            .ports
            .iter()
            .map(|p| {
                inputs
                    .get(&p.name)
                    .map(|v| v.zext_or_trunc(p.width))
                    .unwrap_or_else(|| ApInt::zero(p.width))
            })
            .collect();
        for i in 0..self.module.nets.len() {
            let net = &self.module.nets[i];
            let width = net.width;
            let value = match &net.driver {
                Driver::Input { port } => port_values[*port].clone(),
                Driver::Const(c) => c.clone(),
                Driver::Reg { .. } => self.regs[i].clone().expect("register state"),
                Driver::Rom { rom, index } => {
                    let table = &self.module.roms[*rom];
                    // Indices past the table (or past the platform's usize,
                    // which would otherwise wrap on 32-bit targets) read zero.
                    self.values[index.0]
                        .try_to_u64()
                        .and_then(|v| usize::try_from(v).ok())
                        .and_then(|idx| table.contents.get(idx))
                        .cloned()
                        .unwrap_or_else(|| ApInt::zero(table.width))
                }
                Driver::Comb { op, args, lo } => {
                    eval_comb(*op, |k| &self.values[args[k].0], *lo, width)
                }
            };
            debug_assert_eq!(value.width(), width, "net {i} width mismatch");
            self.values[i] = value;
        }
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

    /// Latches all registers based on the most recent [`Simulator::eval`].
    pub fn clock(&mut self) {
        let mut next_values: Vec<(usize, ApInt)> = Vec::new();
        for (i, net) in self.module.nets.iter().enumerate() {
            if let Driver::Reg { next, enable, .. } = &net.driver {
                let en = enable
                    .map(|e| !self.values[e.0].is_zero())
                    .unwrap_or(true);
                if en {
                    next_values.push((i, self.values[next.0].clone()));
                }
            }
        }
        for (i, v) in next_values {
            self.regs[i] = Some(v);
        }
    }

    /// Convenience: `eval` then `clock`, returning the sampled outputs.
    pub fn step(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, ApInt> {
        let outputs = self.eval(inputs);
        self.clock();
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Driver, Module, PortDir};

    /// An accumulator: q <= q + in when en.
    fn accumulator() -> Module {
        let mut m = Module::new("acc");
        let inp = m.add_port("in", PortDir::Input, 8);
        let en = m.add_port("en", PortDir::Input, 1);
        let out = m.add_port("q", PortDir::Output, 8);
        let n_in = m.add_net(Driver::Input { port: inp }, 8, "in");
        let n_en = m.add_net(Driver::Input { port: en }, 1, "en");
        // Forward-declare the register by creating it after its next value?
        // The register's `next` must reference an earlier net, so compute
        // sum after the reg using a placeholder order: reg -> sum.
        // reg net (reads state), then sum = reg + in, then fix reg.next.
        let n_reg = m.add_net(
            Driver::Reg {
                next: NetIdPlaceholder::PLACEHOLDER,
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
        if let Driver::Reg { next, .. } = &mut m.nets[n_reg.0].driver {
            *next = n_sum;
        }
        m.connect_output(out, n_reg);
        m
    }

    struct NetIdPlaceholder;
    impl NetIdPlaceholder {
        const PLACEHOLDER: crate::netlist::NetId = crate::netlist::NetId(0);
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
        let n_rd = m.add_net(Driver::Rom { rom: 0, index: n_idx }, 8, "word");
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
