//! The X-propagation verify stage (`lnc --xcheck`).
//!
//! For every compiled unit of an ISAX this drives identical, fully-known
//! stimulus through the two-valued interpreter ([`rtl::interp`]) and the
//! four-state simulator ([`rtl::xsim`]) and reports:
//!
//! * **mismatches** — cycles where a fully-known four-state net disagrees
//!   with the interpreter (an emitter/semantics bug, reported with the
//!   offending net, cycle, and driver operator),
//! * **X output bits** — X reaching an output port although every input
//!   was known (the emitted SystemVerilog would behave unpredictably in
//!   exactly the situations the interpreter claims are fine).
//!
//! Oracle protocol: the interpreter ignores the `rst` port (reset happens
//! through [`rtl::Simulator::reset`]) and starts registers at their init
//! values; [`rtl::Xsim`] powers up all-X, so [`DiffSim`] applies
//! [`rtl::Xsim::reset`] before the first cycle — modelling a completed
//! synchronous reset pulse — and the stimulus then holds `rst` low. A
//! clean report is the machine-checked statement that the emitted
//! SystemVerilog, IEEE-1800 X rules included, implements exactly the
//! semantics the compiler verified against the golden model (paper §5.3).

use crate::driver::CompiledIsax;
use bits::ApInt;
use rtl::xsim::DiffSim;
use rtl::{IfaceSignal, PortDir};
use telemetry::{metrics, Telemetry, Trace};

/// Cycles of stimulus per unit.
const CYCLES: u64 = 32;

/// Differential result for one compiled unit.
#[derive(Debug, Clone)]
pub struct XCheckUnit {
    /// Instruction / always-block name.
    pub unit: String,
    /// Cycles actually driven (stops at the first mismatch).
    pub cycles: u64,
    /// Interp/xsim disagreements on fully-known nets (rendered with net,
    /// cycle, and driver op). At most one: checking stops there.
    pub mismatches: Vec<String>,
    /// X bits that reached output ports under fully-known inputs, summed
    /// over all checked cycles.
    pub x_output_bits: u64,
}

impl XCheckUnit {
    /// True when the unit survived with no signal of any kind.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.x_output_bits == 0
    }
}

/// Differential results for one compiled ISAX on one core.
#[derive(Debug, Clone)]
pub struct XCheckReport {
    /// ISAX name.
    pub isax: String,
    /// Core the compilation targeted.
    pub core: String,
    /// One result per compiled unit.
    pub units: Vec<XCheckUnit>,
    /// Telemetry for the check ([`metrics::XCHECK_CYCLES`] and friends).
    pub trace: Trace,
}

impl XCheckReport {
    /// True when every unit is clean.
    pub fn is_clean(&self) -> bool {
        self.units.iter().all(XCheckUnit::is_clean)
    }

    /// Total interp/xsim mismatches.
    pub fn mismatches(&self) -> u64 {
        self.units.iter().map(|u| u.mismatches.len() as u64).sum()
    }

    /// Total X bits that reached outputs.
    pub fn x_output_bits(&self) -> u64 {
        self.units.iter().map(|u| u.x_output_bits).sum()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "xcheck {}@{}: {} unit(s), {} mismatch(es), {} X output bit(s)",
            self.isax,
            self.core,
            self.units.len(),
            self.mismatches(),
            self.x_output_bits()
        )
    }

    /// Every problem as a flat list of display lines.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for u in &self.units {
            for m in &u.mismatches {
                out.push(format!("{}: mismatch: {m}", u.unit));
            }
            if u.x_output_bits > 0 {
                out.push(format!(
                    "{}: {} X bit(s) reached outputs from known inputs",
                    u.unit, u.x_output_bits
                ));
            }
        }
        out
    }
}

/// Deterministic corner-biased stimulus words: zero and one (divide-by-
/// zero and trivial operands), sign boundaries, all-ones, and a couple of
/// mixed patterns. `rs2` is offset so zero divisors land against nonzero
/// dividends too.
const PATTERNS: [u64; 8] = [
    0,
    1,
    0xffff_ffff,
    0x8000_0000,
    0x7fff_ffff,
    0xdead_beef,
    2,
    0x0102_0304,
];

fn pat(t: u64) -> u64 {
    PATTERNS[(t % PATTERNS.len() as u64) as usize]
}

fn apint(v: u64, width: u32) -> ApInt {
    ApInt::from_u64(v, 64).zext_or_trunc(width)
}

/// Runs the differential check over every unit of `isax`.
pub fn xcheck_compiled(isax: &CompiledIsax) -> XCheckReport {
    let mut tel = Telemetry::new();
    let root = tel.start_span("xcheck");
    tel.attr(root, "isax", &isax.name);
    tel.attr(root, "core", &isax.core);
    let mut units = Vec::new();
    for g in &isax.graphs {
        let span = tel.start_unit_span("xcheck_unit", Some(&g.name));
        let module = &g.built.module;
        let feeds = input_signals(g);
        let mut inputs: Vec<ApInt> = module.ports.iter().map(|p| ApInt::zero(p.width)).collect();
        let mut diff = DiffSim::new(module.clone());
        let mut mismatches = Vec::new();
        let mut x_output_bits = 0u64;
        let mut cycles = 0u64;
        for t in 0..CYCLES {
            for &(port, signal) in &feeds {
                inputs[port] = apint(stimulus(g, signal, t), module.ports[port].width);
            }
            match diff.step_ports(&inputs) {
                Ok(stats) => x_output_bits += stats.output_x_bits,
                Err(mm) => {
                    mismatches.push(mm.to_string());
                    cycles = t + 1;
                    break;
                }
            }
            cycles = t + 1;
        }

        tel.counter(span, metrics::XCHECK_CYCLES, cycles);
        tel.counter(span, metrics::XCHECK_MISMATCHES, mismatches.len() as u64);
        tel.counter(span, metrics::XCHECK_X_OUTPUT_BITS, x_output_bits);
        tel.end_span(span);
        units.push(XCheckUnit {
            unit: g.name.clone(),
            cycles,
            mismatches,
            x_output_bits,
        });
    }
    tel.counter(root, metrics::XCHECK_MISMATCHES, units.iter().map(|u| u.mismatches.len() as u64).sum());
    tel.counter(root, metrics::XCHECK_X_OUTPUT_BITS, units.iter().map(|u| u.x_output_bits).sum());
    tel.end_span(root);
    XCheckReport {
        isax: isax.name.clone(),
        core: isax.core.clone(),
        units,
        trace: tel.finish(),
    }
}

/// The interface signal of each input port of a unit's module, by port
/// index. Every input port of the built module has a binding except `clk`
/// and `rst`, which are structural (registers are modelled directly) and
/// stay low, so the oracle's one-time reset stays in effect. All inputs are
/// driven, so no X can enter from outside and any X observed is
/// manufactured by the netlist itself.
fn input_signals(g: &crate::driver::CompiledGraph) -> Vec<(usize, &IfaceSignal)> {
    let module = &g.built.module;
    g.built
        .bindings
        .iter()
        .filter(|b| b.dir == PortDir::Input)
        .filter_map(|b| Some((module.port(&b.name)?, &b.signal)))
        .collect()
}

/// The word an input carrying `signal` sees in cycle `t`.
fn stimulus(g: &crate::driver::CompiledGraph, signal: &IfaceSignal, t: u64) -> u64 {
    match signal {
        // A word that actually decodes as this instruction, with the
        // don't-care bits cycling through the patterns.
        IfaceSignal::InstrWord => u64::from(g.match_value) | (pat(t) & !u64::from(g.mask)),
        IfaceSignal::Rs1Data => pat(t),
        // Offset so zero/one divisors meet interesting dividends.
        IfaceSignal::Rs2Data => pat(t + 3),
        IfaceSignal::PcData => 0x100 + 4 * t,
        IfaceSignal::MemRdData => pat(t + 1),
        IfaceSignal::CustRdData(_) => pat(t + 5),
        // An occasional stall exercises the register-enable paths.
        IfaceSignal::StallIn => u64::from(t % 7 == 5),
        // Remaining inputs (if any) held low.
        _ => 0,
    }
}
