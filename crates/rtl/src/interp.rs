//! Two-valued netlist simulation: the semantics the compiler believes in.
//!
//! [`Simulator`] runs the [`Sim`] engine over plain [`ApInt`] nets, with
//! the RISC-V division convention, zeros beyond a dynamic part-select and
//! registers born at their reset value. It stands in for the paper's RTL
//! simulation (§5.3) in `tests/rtl_cosim.rs` and
//! `tests/differential_fuzz.rs`; the extended cores in `cores` execute the
//! scheduled LIL graphs, not netlists.

use crate::netlist::{CombOp, RomData};
use crate::sim::{Sim, Value};
use bits::ApInt;

/// The two-valued netlist simulator: the [`Sim`] engine over [`ApInt`].
pub type Simulator = Sim<ApInt>;

/// The two-valued domain: a net not yet driven and a missing named input
/// read zero, registers power up at their reset value, and a register
/// loads whenever its enable is nonzero.
impl Value for ApInt {
    fn constant(c: &ApInt) -> Self {
        c.clone()
    }

    fn undriven(width: u32) -> Self {
        ApInt::zero(width)
    }

    fn width(&self) -> u32 {
        ApInt::width(self)
    }

    fn resize(&self, width: u32) -> Self {
        self.zext_or_trunc(width)
    }

    #[inline]
    fn rom(table: &RomData, index: &Self) -> Self {
        table.read(index)
    }

    /// The compiler's two-valued reference semantics, shared by
    /// [`Simulator`], the whole-word operators of [`crate::xsim`] and the
    /// optimizer's constant folding.
    #[inline]
    fn comb<'a>(op: CombOp, a: impl Fn(usize) -> &'a Self, lo: u32, width: u32) -> Self {
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

    #[inline]
    fn latch(&mut self, load: &Self, enable: Option<&Self>) {
        if enable.is_none_or(|e| !e.is_zero()) {
            *self = load.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Driver, Module, NetId, PortDir};
    use std::collections::HashMap;

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
