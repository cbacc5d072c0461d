//! Register-transfer-level netlist IR, SystemVerilog export, and netlist
//! simulation (paper §4.1d, §4.5).
//!
//! The analog of CIRCT's `hw`/`comb`/`seq`/`sv` dialect stack:
//!
//! * [`netlist`] — hardware modules with ports, combinational operators,
//!   stallable registers, and internalized ROMs,
//! * [`build`] — constructs a pipelined ISAX module from a scheduled LIL
//!   graph, inserting stallable pipeline registers for intermediate results
//!   where needed; interface operations become input/output ports whose
//!   names carry the active-stage suffix (cf. Figure 5d's `instr_word_2`,
//!   `res_3_data`),
//! * [`lint`] — the one structural check, in front of emission and around
//!   every optimizer pass: operator widths, register and ROM shapes, port
//!   connections, and definition order (every combinational operand
//!   precedes its user), plus the logic-depth statistic
//!   [`lint::comb_depth`],
//! * [`verilog`] — emits the module as SystemVerilog,
//! * [`sim`] — the one cycle-accurate simulation engine: it evaluates the
//!   netlist in definition order and latches its registers, over any
//!   [`sim::Value`] domain,
//! * [`interp`] — the two-valued domain, which executes the netlist cycle
//!   by cycle; `tests/rtl_cosim.rs` and `tests/differential_fuzz.rs` use it
//!   for the "RTL simulation" verification of paper §5.3,
//! * [`xsim`] — the four-state (0/1/X) domain, which re-executes the
//!   netlist under the IEEE-1800 semantics of the emitted SystemVerilog,
//!   plus the differential oracle that checks it against [`interp`],
//! * [`opt`] — oracle-gated netlist optimization passes (constant folding,
//!   CSE, mux flattening, strength reduction, bitwidth narrowing) run at a
//!   fixpoint between module construction and Verilog emission.
//!
//! What it does not do:
//!
//! - **Add semantics in the engine.** [`sim::Sim`] only orders the work:
//!   every value it computes comes from its domain's rules, so the
//!   two-valued and four-state results are as independent as those rules.
//!   `tests/rtl_cosim.rs` and `tests/differential_fuzz.rs` check the shared
//!   traversal against references that do not use it.
//! - **Model time.** There is no timing, no delta cycle and no Z: one
//!   evaluation per cycle, then every register latches at once.
//! - **Drive ports by name.** The engine reads one value per port index;
//!   names are handled only by its adapter ([`sim::Sim::eval`] and
//!   [`sim::Sim::step`]) and by [`xsim::DiffSim::step`].

pub mod build;
pub mod interp;
pub mod lint;
pub mod netlist;
pub mod opt;
pub mod sim;
pub mod verilog;
pub mod xsim;

pub use build::{build_graph_module, BuiltModule, IfaceSignal, PortBinding};
pub use interp::Simulator;
pub use lint::{lint_module, LintIssue};
pub use netlist::{CombOp, Driver, Module, Net, NetId, Port, PortDir};
pub use opt::{optimize, run_pass, verify_equivalent, OptLevel, OptReport, Pass};
pub use xsim::{DiffCycle, DiffMismatch, DiffSim, XVal, Xsim};
