//! Four-state (0/1/X per bit) netlist simulation and the differential
//! X-propagation oracle.
//!
//! The two-valued [`crate::interp::Simulator`] implements the semantics the
//! *compiler* believes in (the RISC-V division convention, zeros beyond a
//! dynamic part-select, registers born at their reset value). Synthesis and
//! commercial simulators instead implement the IEEE-1800 semantics of the
//! *emitted SystemVerilog*, in which division by zero, out-of-range indexed
//! part-selects, ambiguous mux selects, and un-reset registers all produce
//! X. [`Xsim`] models that second world: it runs the same [`Sim`] engine
//! as the interpreter, but every net carries a value/known bit-pair over
//! [`ApInt`] ([`XVal`]), and every [`CombOp`] is evaluated with the
//! semantics of the expression [`crate::verilog`] emits for it.
//!
//! [`DiffSim`] drives both simulators in lockstep over the same stimulus
//! and fails on the first cycle where a *fully-known* four-state net
//! disagrees with the two-valued interpreter — pinpointing the net, cycle,
//! and driving operator. X bits reaching outputs under fully-known inputs
//! are counted separately: they are exactly the places where the emitted
//! SystemVerilog would diverge from what `interp` (and the golden model
//! upstream of it) promised. The two halves share the engine's traversal
//! but not their rules: each value is computed by its own domain's
//! operator, ROM and latch semantics.
//!
//! What it does not do:
//!
//! - **Read the printed text.** It evaluates the netlist as
//!   [`crate::verilog`] would print it; only `longnail/tests/xcheck.rs`
//!   checks the emitted text for its guards.
//! - **Model time.** There is no timing, no delta cycle and no Z.
//! - **Invent X.** X enters only through undriven inputs, registers not
//!   yet [`Sim::reset`], and the operator rules above.

use crate::interp::Simulator;
use crate::netlist::{CombOp, Driver, Module, RomData};
use crate::sim::{named_ports, Sim, Value};
use bits::ApInt;
use std::collections::HashMap;
use std::fmt;

/// A four-state vector: per bit, `known` says whether the bit is a real
/// 0/1 (carried in `value`) or X. Invariant: `value & !known == 0` — X
/// positions always carry a zero value bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XVal {
    value: ApInt,
    known: ApInt,
}

impl XVal {
    /// A fully-known value.
    pub fn known(value: ApInt) -> XVal {
        let known = ApInt::ones(value.width());
        XVal { value, known }
    }

    /// An all-X value of the given width.
    pub fn all_x(width: u32) -> XVal {
        XVal {
            value: ApInt::zero(width),
            known: ApInt::zero(width),
        }
    }

    /// Builds from raw planes, forcing the invariant.
    pub fn from_planes(value: ApInt, known: ApInt) -> XVal {
        assert_eq!(value.width(), known.width(), "plane widths differ");
        XVal {
            value: value.and(&known),
            known,
        }
    }

    /// Bit width.
    pub fn width(&self) -> u32 {
        self.value.width()
    }

    /// The 0/1 plane (X positions read 0).
    pub fn value_plane(&self) -> &ApInt {
        &self.value
    }

    /// The known mask (1 = real bit, 0 = X).
    pub fn known_plane(&self) -> &ApInt {
        &self.known
    }

    /// True when no bit is X.
    pub fn is_fully_known(&self) -> bool {
        self.known.is_all_ones()
    }

    /// The two-valued content, if no bit is X.
    pub fn as_known(&self) -> Option<&ApInt> {
        if self.is_fully_known() {
            Some(&self.value)
        } else {
            None
        }
    }

    /// Number of X bits.
    pub fn x_bits(&self) -> u32 {
        let ones: u32 = self.known.limbs().iter().map(|l| l.count_ones()).sum();
        self.width() - ones
    }

    /// Bits `[lo + width - 1 : lo]` as a `width`-bit value, with every bit
    /// past the top X. An in-range window is one `extract` per plane; one
    /// reaching past the top shifts both planes down, and the vacated known
    /// bits read zero.
    fn window(&self, lo: u32, width: u32) -> XVal {
        if lo + width <= self.width() {
            XVal {
                value: self.value.extract(lo, width),
                known: self.known.extract(lo, width),
            }
        } else if lo < self.width() {
            XVal {
                value: self.value.lshr_bits(lo).zext_or_trunc(width),
                known: self.known.lshr_bits(lo).zext_or_trunc(width),
            }
        } else {
            XVal::all_x(width)
        }
    }

    /// Pessimistic merge of two same-width candidates (the IEEE conditional
    /// operator with an ambiguous select): bits where both sides are known
    /// and agree survive, everything else is X.
    pub fn merge(&self, other: &XVal) -> XVal {
        let agree = self
            .known
            .and(&other.known)
            .and(&self.value.xor(&other.value).not());
        XVal {
            value: self.value.and(&agree),
            known: agree,
        }
    }
}

impl fmt::Display for XVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in (0..self.width()).rev() {
            let c = if !self.known.bit(pos) {
                'x'
            } else if self.value.bit(pos) {
                '1'
            } else {
                '0'
            };
            f.write_fmt(format_args!("{c}"))?;
        }
        Ok(())
    }
}

/// The four-state netlist simulator: the [`Sim`] engine over [`XVal`],
/// modelling the SystemVerilog that [`crate::verilog::emit_verilog`]
/// produces.
///
/// Registers power up all-X, exactly like un-reset `always_ff` state in
/// real simulation; [`Sim::reset`] models a completed synchronous reset
/// pulse (every register takes its `init`). Missing named inputs are all-X,
/// where the two-valued interpreter silently assumes zero.
pub type Xsim = Sim<XVal>;

/// The four-state domain: a net not yet driven, a missing named input and
/// a register at power-up are all-X, a resized input's new bits are X, and
/// an X enable merges a register's hold and load pessimistically.
impl Value for XVal {
    fn constant(c: &ApInt) -> Self {
        XVal::known(c.clone())
    }

    fn undriven(width: u32) -> Self {
        XVal::all_x(width)
    }

    fn power_up(init: &ApInt) -> Self {
        XVal::all_x(init.width())
    }

    fn width(&self) -> u32 {
        XVal::width(self)
    }

    fn resize(&self, width: u32) -> Self {
        XVal {
            value: self.value.zext_or_trunc(width),
            known: self.known.zext_or_trunc(width),
        }
    }

    /// The emitter guards out-of-range-capable reads, so a known index
    /// always yields a known word (zero when past the end or the ROM is
    /// empty); an index with any X bit reads all-X.
    #[inline]
    fn rom(table: &RomData, index: &Self) -> Self {
        match index.as_known() {
            Some(idx) => XVal::known(table.read(idx)),
            None => XVal::all_x(table.width),
        }
    }

    /// The IEEE-1800 semantics of the expression the emitter produces for
    /// `op`. Also used by the optimizer's abstract known-bits analysis
    /// (`crate::opt`), which evaluates the fabric from reset with all-X
    /// inputs and each register holding its `init` joined with every value
    /// of its `next`: any bit that comes out known there is known (with the
    /// same value) in every cycle of every run from reset, under every
    /// concrete stimulus, because each operator here is monotone under
    /// refinement of its inputs, and so is [`Value::rom`].
    #[inline]
    fn comb<'a>(op: CombOp, a: impl Fn(usize) -> &'a Self, lo: u32, width: u32) -> Self {
        match op {
            // Arithmetic, shifts, comparisons and the dynamic part-select
            // (emitted as a zero-filled shift): any X in any operand X-poisons
            // the entire result, per the LRM, and known operands compute the
            // two-valued result. That covers `/` and `%`, whose zero-divisor
            // guard makes them total under the ApInt (RISC-V) convention.
            CombOp::Add
            | CombOp::Sub
            | CombOp::Mul
            | CombOp::DivU
            | CombOp::DivS
            | CombOp::RemU
            | CombOp::RemS
            | CombOp::Shl
            | CombOp::ShrU
            | CombOp::ShrS
            | CombOp::ExtractDyn
            | CombOp::Eq
            | CombOp::Ne
            | CombOp::Ult
            | CombOp::Ule
            | CombOp::Slt
            | CombOp::Sle => {
                if a(0).is_fully_known() && a(1).is_fully_known() {
                    XVal::known(ApInt::comb(op, |k| &a(k).value, lo, width))
                } else {
                    XVal::all_x(width)
                }
            }
            CombOp::And => {
                let (x, y) = (a(0), a(1));
                // A known 0 on either side pins the bit regardless of the other.
                let zero_x = x.known.and(&x.value.not());
                let zero_y = y.known.and(&y.value.not());
                let known = x.known.and(&y.known).or(&zero_x).or(&zero_y);
                XVal {
                    value: x.value.and(&y.value),
                    known,
                }
            }
            CombOp::Or => {
                let (x, y) = (a(0), a(1));
                let one_x = x.known.and(&x.value);
                let one_y = y.known.and(&y.value);
                let known = x.known.and(&y.known).or(&one_x).or(&one_y);
                XVal {
                    value: x.value.or(&y.value),
                    known,
                }
            }
            CombOp::Xor => {
                let (x, y) = (a(0), a(1));
                let known = x.known.and(&y.known);
                XVal {
                    value: x.value.xor(&y.value).and(&known),
                    known,
                }
            }
            CombOp::Not => {
                let x = a(0);
                XVal {
                    value: x.value.not().and(&x.known),
                    known: x.known.clone(),
                }
            }
            CombOp::Mux => match a(0).as_known() {
                Some(c) if c.is_zero() => a(2).clone(),
                Some(_) => a(1).clone(),
                None => a(1).merge(a(2)),
            },
            CombOp::Concat => {
                let (x, y) = (a(0), a(1));
                XVal {
                    value: x.value.concat(&y.value),
                    known: x.known.concat(&y.known),
                }
            }
            CombOp::Replicate => {
                let x = a(0);
                XVal {
                    value: x.value.replicate(lo),
                    known: x.known.replicate(lo),
                }
            }
            CombOp::Extract => {
                // `base[lo+width-1:lo]` — bits past the base are X in SV (the
                // lint rejects such netlists; the interpreter zero-pads).
                a(0).window(lo, width)
            }
            CombOp::ZExt => {
                let x = a(0);
                let sw = x.width();
                if width == sw {
                    // Emitted as a plain alias.
                    x.clone()
                } else {
                    XVal {
                        value: x.value.zext(width),
                        known: ApInt::ones(width - sw).concat(&x.known),
                    }
                }
            }
            CombOp::SExt => {
                let x = a(0);
                let sw = x.width();
                if width == sw {
                    x.clone()
                } else if x.known.bit(sw - 1) {
                    XVal {
                        value: x.value.sext(width),
                        known: ApInt::ones(width - sw).concat(&x.known),
                    }
                } else {
                    // Unknown sign bit: the replicated pad is X.
                    XVal {
                        value: x.value.zext(width),
                        known: x.known.zext(width),
                    }
                }
            }
            CombOp::Trunc => {
                let x = a(0);
                XVal {
                    value: x.value.trunc(width),
                    known: x.known.trunc(width),
                }
            }
        }
    }

    #[inline]
    fn latch(&mut self, load: &Self, enable: Option<&Self>) {
        match enable.map(XVal::as_known) {
            Some(Some(en)) if en.is_zero() => {}
            Some(None) => *self = self.merge(load),
            None | Some(Some(_)) => *self = load.clone(),
        }
    }
}

/// A divergence found by the oracle: a cycle where a fully-known
/// four-state net disagrees with the two-valued interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffMismatch {
    /// Cycle number (0-based, counted from the first [`DiffSim::step`]).
    pub cycle: u64,
    /// Offending net index.
    pub net: usize,
    /// Debug name of the net (may be empty).
    pub name: String,
    /// Description of the net's driver (e.g. `DivU`, `Reg`).
    pub driver: String,
    /// The two-valued interpreter's value.
    pub interp: ApInt,
    /// The fully-known four-state value.
    pub xsim: ApInt,
}

impl fmt::Display for DiffMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: net {} `{}` ({}) interp={:x} xsim={:x}",
            self.cycle, self.net, self.name, self.driver, self.interp, self.xsim
        )
    }
}

impl std::error::Error for DiffMismatch {}

/// Per-cycle oracle statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffCycle {
    /// Cycle number of this step (0-based).
    pub cycle: u64,
    /// X bits observed on output ports this cycle. With fully-known
    /// stimulus, any nonzero count means the emitted SystemVerilog can
    /// produce X where the interpreter promises a value.
    pub output_x_bits: u64,
    /// X bits across all nets this cycle.
    pub net_x_bits: u64,
}

/// The differential oracle: the two-valued interpreter and the four-state
/// simulator in lockstep over identical stimulus.
#[derive(Debug, Clone)]
pub struct DiffSim {
    interp: Simulator,
    xsim: Xsim,
    /// The four-state copy of the stimulus [`DiffSim::step_ports`] hands
    /// the four-state half, one value per port, reused every cycle.
    four_state: Vec<XVal>,
    cycle: u64,
}

impl DiffSim {
    /// Builds the pair. The four-state side starts from a completed reset
    /// so both simulators agree on register state.
    pub fn new(module: Module) -> Self {
        let interp = Simulator::new(module.clone());
        let mut xsim = Xsim::new(module);
        xsim.reset();
        Self::from_parts(interp, xsim)
    }

    /// Builds the pair from independently constructed halves. This is the
    /// regression-test hook: handing the four-state side a module that
    /// differs from the interpreter's models an emitter bug, and the
    /// oracle must flag it.
    pub fn from_parts(interp: Simulator, xsim: Xsim) -> Self {
        assert_eq!(
            interp.module().nets.len(),
            xsim.module().nets.len(),
            "differential halves must have the same net count"
        );
        let four_state = xsim
            .module()
            .ports
            .iter()
            .map(|p| XVal::all_x(p.width))
            .collect();
        DiffSim {
            interp,
            xsim,
            four_state,
            cycle: 0,
        }
    }

    /// The two-valued half.
    pub fn interp(&self) -> &Simulator {
        &self.interp
    }

    /// The four-state half.
    pub fn xsim(&self) -> &Xsim {
        &self.xsim
    }

    /// Drives both simulators one cycle with the same fully-known inputs,
    /// `inputs[p]` on port `p` as in [`Sim::eval_ports`], and
    /// compares every net.
    ///
    /// # Errors
    ///
    /// The first net (in definition order) whose fully-known four-state
    /// value differs from the interpreter's.
    pub fn step_ports(&mut self, inputs: &[ApInt]) -> Result<DiffCycle, Box<DiffMismatch>> {
        let mut four_state = std::mem::take(&mut self.four_state);
        for (x, v) in four_state.iter_mut().zip(inputs) {
            *x = XVal::known(v.clone());
        }
        let stats = self.step_with(inputs, &four_state);
        self.four_state = four_state;
        stats
    }

    /// [`DiffSim::step_ports`] with named inputs: a missing input reads
    /// zero in the interpreter and X in the four-state half, as in
    /// [`Sim::eval`].
    ///
    /// # Errors
    ///
    /// As [`DiffSim::step_ports`].
    pub fn step(
        &mut self,
        inputs: &HashMap<String, ApInt>,
    ) -> Result<DiffCycle, Box<DiffMismatch>> {
        let two_state = named_ports(self.interp.module(), inputs);
        let four_state = named_ports(self.xsim.module(), inputs);
        self.step_with(&two_state, &four_state)
    }

    fn step_with(
        &mut self,
        two_state: &[ApInt],
        four_state: &[XVal],
    ) -> Result<DiffCycle, Box<DiffMismatch>> {
        let cycle = self.cycle;
        self.interp.eval_ports(two_state);
        self.xsim.eval_ports(four_state);
        let mut net_x_bits = 0;
        let nets = self.xsim.net_values().iter().zip(self.interp.net_values());
        for (i, (x, expected)) in nets.enumerate() {
            if !x.is_fully_known() {
                net_x_bits += u64::from(x.x_bits());
            } else if x.value != *expected {
                let net = &self.xsim.module().nets[i];
                return Err(Box::new(DiffMismatch {
                    cycle,
                    net: i,
                    name: net.name.clone(),
                    driver: driver_desc(&net.driver),
                    interp: expected.clone(),
                    xsim: x.value.clone(),
                }));
            }
        }
        let outputs = &self.xsim.module().outputs;
        let output_x_bits = outputs
            .iter()
            .map(|&(_, net)| u64::from(self.xsim.net(net.0).x_bits()))
            .sum();
        self.interp.clock();
        self.xsim.clock();
        self.cycle += 1;
        Ok(DiffCycle {
            cycle,
            output_x_bits,
            net_x_bits,
        })
    }
}

/// Short description of a net's driver for oracle reports.
fn driver_desc(d: &Driver) -> String {
    match d {
        Driver::Input { .. } => "Input".into(),
        Driver::Const(_) => "Const".into(),
        Driver::Reg { .. } => "Reg".into(),
        Driver::Rom { .. } => "Rom".into(),
        Driver::Comb { op, .. } => format!("{op:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{NetId, PortDir};

    fn inputs(pairs: &[(&str, u64, u32)]) -> HashMap<String, ApInt> {
        pairs
            .iter()
            .map(|&(n, v, w)| (n.to_string(), ApInt::from_u64(v, w)))
            .collect()
    }

    /// in(a), in(b) -> one comb op -> output.
    fn binop_module(op: CombOp, width: u32, out_width: u32) -> Module {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, width);
        let b = m.add_port("b", PortDir::Input, width);
        let o = m.add_port("o", PortDir::Output, out_width);
        let na = m.add_net(Driver::Input { port: a }, width, "a");
        let nb = m.add_net(Driver::Input { port: b }, width, "b");
        let r = m.add_net(
            Driver::Comb {
                op,
                args: vec![na, nb],
                lo: 0,
            },
            out_width,
            "r",
        );
        m.connect_output(o, r);
        m
    }

    #[test]
    fn known_inputs_evaluate_exactly() {
        let mut sim = Xsim::new(binop_module(CombOp::Add, 8, 8));
        let out = sim.eval(&inputs(&[("a", 5, 8), ("b", 7, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 12);
    }

    #[test]
    fn missing_input_poisons_arithmetic_but_not_masked_logic() {
        // b missing (all-X): a + b is all X; a & b keeps the known zeros
        // of a.
        let mut add = Xsim::new(binop_module(CombOp::Add, 8, 8));
        let out = add.eval(&inputs(&[("a", 5, 8)]));
        assert_eq!(out["o"].x_bits(), 8);

        let mut and = Xsim::new(binop_module(CombOp::And, 8, 8));
        let out = and.eval(&inputs(&[("a", 0b0000_0101, 8)]));
        // Bits where a is 0 are known-0; bits where a is 1 follow X.
        assert_eq!(out["o"].x_bits(), 2);
        assert_eq!(out["o"].value_plane().to_u64(), 0);

        let mut or = Xsim::new(binop_module(CombOp::Or, 8, 8));
        let out = or.eval(&inputs(&[("a", 0b0000_0101, 8)]));
        assert_eq!(out["o"].x_bits(), 6);
        assert_eq!(out["o"].value_plane().to_u64(), 0b0000_0101);
    }

    #[test]
    fn guarded_division_is_total() {
        for op in [CombOp::DivU, CombOp::DivS, CombOp::RemU, CombOp::RemS] {
            let mut sim = Xsim::new(binop_module(op, 8, 8));
            let out = sim.eval(&inputs(&[("a", 100, 8), ("b", 0, 8)]));
            assert!(out["o"].is_fully_known(), "{op:?} by zero");
            let out = sim.eval(&inputs(&[("a", 100, 8), ("b", 7, 8)]));
            assert!(out["o"].is_fully_known(), "{op:?} by nonzero");
        }
    }

    #[test]
    fn mux_with_x_select_merges_agreeing_bits() {
        let mut m = Module::new("t");
        let c = m.add_port("c", PortDir::Input, 1);
        let o = m.add_port("o", PortDir::Output, 4);
        let nc = m.add_net(Driver::Input { port: c }, 1, "c");
        let t = m.add_net(Driver::Const(ApInt::from_u64(0b1010, 4)), 4, "t");
        let e = m.add_net(Driver::Const(ApInt::from_u64(0b1001, 4)), 4, "e");
        let mx = m.add_net(
            Driver::Comb {
                op: CombOp::Mux,
                args: vec![nc, t, e],
                lo: 0,
            },
            4,
            "mx",
        );
        m.connect_output(o, mx);
        let mut sim = Xsim::new(m);
        // Select X: arms agree on bits 3 (1) and 0 (hi arm 0, lo arm 1 —
        // disagree), bit 3 = 1/1 agree, bit 2 = 0/0 agree, bits 1,0 differ.
        let out = sim.eval(&HashMap::new());
        assert_eq!(out["o"].x_bits(), 2);
        assert!(out["o"].known_plane().bit(3) && out["o"].known_plane().bit(2));
        // Known select picks the arm exactly.
        let out = sim.eval(&inputs(&[("c", 1, 1)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0b1010);
    }

    #[test]
    fn comparisons_are_x_pessimistic() {
        let mut sim = Xsim::new(binop_module(CombOp::Eq, 8, 1));
        let out = sim.eval(&inputs(&[("a", 3, 8)]));
        assert_eq!(out["o"].x_bits(), 1);
        let out = sim.eval(&inputs(&[("a", 3, 8), ("b", 3, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 1);
    }

    #[test]
    fn registers_power_up_x_and_reset_known() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let r = m.add_net(
            Driver::Reg {
                next: na,
                enable: None,
                init: ApInt::from_u64(0x5a, 8),
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        let mut sim = Xsim::new(m);
        let out = sim.step(&inputs(&[("a", 1, 8)]));
        assert_eq!(out["o"].x_bits(), 8, "un-reset register reads X");
        sim.reset();
        let out = sim.step(&inputs(&[("a", 1, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0x5a);
        let out = sim.step(&inputs(&[("a", 2, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 1);
    }

    #[test]
    fn x_enable_merges_register_hold_and_load() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 4);
        let en = m.add_port("en", PortDir::Input, 1);
        let o = m.add_port("o", PortDir::Output, 4);
        let na = m.add_net(Driver::Input { port: a }, 4, "a");
        let nen = m.add_net(Driver::Input { port: en }, 1, "en");
        let r = m.add_net(
            Driver::Reg {
                next: na,
                enable: Some(nen),
                init: ApInt::from_u64(0b1100, 4),
            },
            4,
            "r",
        );
        m.connect_output(o, r);
        let mut sim = Xsim::new(m);
        sim.reset();
        // en is X; load value 0b1010 vs hold 0b1100: bit 3 agrees (1),
        // bit 0 agrees (0), bits 2 and 1 disagree -> X.
        sim.step(&inputs(&[("a", 0b1010, 4)]));
        let out = sim.eval(&inputs(&[("a", 0, 4), ("en", 0, 1)]));
        assert_eq!(out["o"].x_bits(), 2);
        assert!(out["o"].known_plane().bit(3) && out["o"].known_plane().bit(0));
    }

    /// Two 4-bit registers wired as a swap (`r0.next = r1`,
    /// `r1.next = r0`) under one enable, starting at `0011` and `0101`.
    fn swap_module() -> Module {
        let mut m = Module::new("swap");
        let en = m.add_port("en", PortDir::Input, 1);
        let o0 = m.add_port("o0", PortDir::Output, 4);
        let o1 = m.add_port("o1", PortDir::Output, 4);
        let n_en = m.add_net(Driver::Input { port: en }, 1, "en");
        let reg = |next, init| Driver::Reg {
            next: NetId(next),
            enable: Some(n_en),
            init: ApInt::from_u64(init, 4),
        };
        let r0 = m.add_net(reg(2, 0b0011), 4, "r0");
        let r1 = m.add_net(reg(1, 0b0101), 4, "r1");
        m.connect_output(o0, r0);
        m.connect_output(o1, r1);
        crate::lint::lint_module(&m).unwrap();
        m
    }

    #[test]
    fn swapped_registers_exchange_on_every_edge() {
        let m = swap_module();
        let mut sim = Simulator::new(m.clone());
        let mut xsim = Xsim::new(m);
        xsim.reset();
        let mut regs = [ApInt::from_u64(0b0011, 4), ApInt::from_u64(0b0101, 4)];
        // Enable high: the values exchange on every edge. Enable low: both
        // hold.
        for (cycle, en) in [1, 1, 1, 0, 0, 1, 0, 1].into_iter().enumerate() {
            let ports = [ApInt::from_u64(en, 1), ApInt::zero(4), ApInt::zero(4)];
            let known = ports.clone().map(XVal::known);
            sim.eval_ports(&ports);
            xsim.eval_ports(&known);
            for (k, reg) in regs.iter().enumerate() {
                let net = k + 1;
                assert_eq!(&sim.net_values()[net], reg, "r{k}, cycle {cycle}");
                assert_eq!(xsim.net(net).as_known(), Some(reg), "r{k}, cycle {cycle}");
            }
            sim.clock();
            xsim.clock();
            if en == 1 {
                regs.swap(0, 1);
            }
        }
        // An X enable merges hold and load: both registers keep the bits
        // on which `0011` and `0101` agree and turn the others X.
        let x_en = [XVal::all_x(1), XVal::all_x(4), XVal::all_x(4)];
        xsim.eval_ports(&x_en);
        xsim.clock();
        xsim.eval_ports(&x_en);
        assert_eq!(xsim.net(1).to_string(), "0xx1");
        assert_eq!(xsim.net(2).to_string(), "0xx1");
    }

    #[test]
    fn bounded_dynamic_extract_is_total() {
        // base is 8 bits, extract 4 from a dynamic offset.
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let off = m.add_port("off", PortDir::Input, 4);
        let o = m.add_port("o", PortDir::Output, 4);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let noff = m.add_net(Driver::Input { port: off }, 4, "off");
        let ex = m.add_net(
            Driver::Comb {
                op: CombOp::ExtractDyn,
                args: vec![na, noff],
                lo: 0,
            },
            4,
            "ex",
        );
        m.connect_output(o, ex);

        let mut sim = Xsim::new(m);
        // Offset 6: bits [9:6] — two bits past the 8-bit base read zero.
        let out = sim.eval(&inputs(&[("a", 0xff, 8), ("off", 6, 4)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0b0011);
        let out = sim.eval(&inputs(&[("a", 0xa5, 8), ("off", 4, 4)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0xa);
    }

    #[test]
    fn sext_with_unknown_sign_bit_pads_x() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 4);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 4, "a");
        let sx = m.add_net(
            Driver::Comb {
                op: CombOp::SExt,
                args: vec![na],
                lo: 0,
            },
            8,
            "sx",
        );
        m.connect_output(o, sx);
        let mut sim = Xsim::new(m);
        let out = sim.eval(&HashMap::new());
        assert_eq!(out["o"].x_bits(), 8);
        let out = sim.eval(&inputs(&[("a", 0b1001, 4)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0b1111_1001);
    }

    #[test]
    fn oracle_passes_clean_module_and_flags_divergent_halves() {
        let m = binop_module(CombOp::Add, 8, 8);
        let mut diff = DiffSim::new(m.clone());
        let stim = inputs(&[("a", 3, 8), ("b", 4, 8)]);
        let report = diff.step(&stim).unwrap();
        assert_eq!(report.output_x_bits, 0);

        // Model an emitter bug: the "SystemVerilog" side computes Sub
        // where the compiler meant Add.
        let mut wrong = m.clone();
        if let Driver::Comb { op, .. } = &mut wrong.nets[2].driver {
            *op = CombOp::Sub;
        }
        let mut diff = DiffSim::from_parts(Simulator::new(m), Xsim::new(wrong));
        let err = diff.step(&stim).unwrap_err();
        assert_eq!(err.net, 2);
        assert_eq!(err.driver, "Sub");
        assert_eq!(err.cycle, 0);
        assert_eq!(err.interp.to_u64(), 7);
        assert_eq!(err.xsim.to_u64(), 0xff);
    }

    #[test]
    fn oracle_counts_x_outputs_from_known_inputs_for_out_of_range_extract() {
        // `a[9:6]` of an 8-bit base: the interpreter zero-pads, the emitted
        // part-select is X in its top two bits (the lint rejects such
        // netlists; the oracle must still count the bits).
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 4);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let ex = m.add_net(
            Driver::Comb {
                op: CombOp::Extract,
                args: vec![na],
                lo: 6,
            },
            4,
            "ex",
        );
        m.connect_output(o, ex);
        let mut diff = DiffSim::new(m);
        let report = diff.step(&inputs(&[("a", 0xff, 8)])).unwrap();
        assert_eq!(report.output_x_bits, 2, "X escapes to an output");
        assert_eq!(diff.xsim().net(ex.0).value_plane().to_u64(), 0b0011);
    }

    #[test]
    fn rom_reads_with_known_index_are_known() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 4);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        m.roms.push(crate::netlist::RomData {
            name: "tab".into(),
            width: 4,
            contents: vec![ApInt::from_u64(3, 4), ApInt::from_u64(9, 4)],
        });
        let rd = m.add_net(Driver::Rom { rom: 0, index: na }, 4, "rd");
        m.connect_output(o, rd);
        let mut sim = Xsim::new(m);
        let out = sim.eval(&inputs(&[("a", 1, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 9);
        // Past the end: the emitted guard reads zero, still known.
        let out = sim.eval(&inputs(&[("a", 200, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0);
        // Unknown index: X word.
        let out = sim.eval(&HashMap::new());
        assert_eq!(out["o"].x_bits(), 4);
    }

    #[test]
    fn values_keep_their_layout() {
        // Every netlist constant and simulator value is one of these, so
        // growing them moves the memory footprint of every compile.
        assert!(std::mem::size_of::<ApInt>() <= 32);
        assert!(std::mem::size_of::<XVal>() <= 64);
    }

    /// Widths at and around the limb and inline-storage boundaries.
    const WIDTHS: [u32; 9] = [1, 7, 63, 64, 65, 127, 128, 129, 200];

    /// A `width`-bit value from `words`, set one bit at a time.
    fn from_words(width: u32, words: &[u64]) -> ApInt {
        let mut v = ApInt::zero(width);
        for i in 0..width {
            v.set_bit(i, words[(i / 64) as usize] >> (i % 64) & 1 == 1);
        }
        v
    }

    /// Four-state planes: `x_words` clear known bits, none when `all_known`.
    fn planes(width: u32, value: &[u64], x_words: &[u64], all_known: bool) -> XVal {
        let x = from_words(width, x_words);
        let known = if all_known {
            ApInt::ones(width)
        } else {
            x.not()
        };
        XVal::from_planes(from_words(width, value), known)
    }

    /// The per-bit definition of `base[lo +: width]` over four-state
    /// planes: bit `i` is the base's bit `lo + i`, and X past the top.
    fn extract_by_bit(x: &XVal, lo: u64, width: u32) -> XVal {
        let mut value = ApInt::zero(width);
        let mut known = ApInt::zero(width);
        for i in 0..width {
            let src = lo.checked_add(u64::from(i));
            if let Some(s) = src.filter(|&s| s < u64::from(x.width())) {
                value.set_bit(i, x.value.bit(s as u32));
                known.set_bit(i, x.known.bit(s as u32));
            }
        }
        XVal { value, known }
    }

    proptest::proptest! {
        #[test]
        fn word_level_extract_matches_the_per_bit_definition(
            (bw, w) in (0usize..9, 0usize..9),
            lo_seed: u32,
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 8),
            all_known: bool,
        ) {
            let (bw, w) = (WIDTHS[bw], WIDTHS[w]);
            // Windows from inside the base to wholly past its top.
            let lo = lo_seed % (bw + 70);
            let x = planes(bw, &words[..4], &words[4..], all_known);
            let got = XVal::comb(CombOp::Extract, |_| &x, lo, w);
            proptest::prop_assert_eq!(got, extract_by_bit(&x, u64::from(lo), w));
        }

        #[test]
        fn word_level_extract_dyn_matches_the_per_bit_definition(
            (bw, w, ow) in (0usize..9, 0usize..9, 0usize..4),
            off_seed: u64,
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 8),
            (base_known, off_known) in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
        ) {
            let (bw, w) = (WIDTHS[bw], WIDTHS[w]);
            // A 70-bit offset with bit 64 set is past any u64 index.
            let ow = [4, 8, 64, 70][ow];
            let off_words = [off_seed % u64::from(bw + 70), off_seed >> 63];
            let x = planes(bw, &words[..4], &words[4..], base_known);
            let off = planes(ow, &off_words, &words[6..], off_known);
            let args = [&x, &off];
            let got = XVal::comb(CombOp::ExtractDyn, |k| args[k], 0, w);
            // A zero-filled shift of a known base by a known offset, and
            // all X otherwise.
            let want = match (x.as_known(), off.as_known()) {
                (Some(_), Some(q)) => {
                    let o = q.try_to_u64().unwrap_or(u64::MAX);
                    XVal::known(extract_by_bit(&x, o, w).value)
                }
                _ => XVal::all_x(w),
            };
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn netid_type_is_reexported_shape() {
        // Sanity: NetId indexes align between interp values and xsim values.
        let m = binop_module(CombOp::Xor, 8, 8);
        let mut diff = DiffSim::new(m);
        diff.step(&inputs(&[("a", 0xf0, 8), ("b", 0x0f, 8)]))
            .unwrap();
        assert_eq!(
            diff.xsim().net(NetId(2).0).as_known().unwrap().to_u64(),
            0xff
        );
        assert_eq!(diff.interp().net_values()[2].to_u64(), 0xff);
    }
}
