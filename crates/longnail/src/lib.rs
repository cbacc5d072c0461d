//! Longnail: a domain-specific high-level synthesis flow from CoreDSL to
//! SCAIE-V-compatible RTL (paper §4).
//!
//! This crate is the paper's primary contribution — the end-to-end driver
//! tying together the substrates:
//!
//! ```text
//! CoreDSL text ──coredsl──▶ typed AST ──ir::lower──▶ LIL graphs
//!      ──sched (LongnailProblem, Fig. 7 ILP)──▶ schedule
//!      ──rtl::build──▶ pipelined module ──rtl::verilog──▶ SystemVerilog
//!      └─▶ scaiev::IsaxConfig (Fig. 8) for automatic core integration
//! ```
//!
//! * [`driver`] — the [`driver::Longnail`] compiler façade and its
//!   [`driver::CompiledIsax`] output bundle,
//! * [`isax_lib`] — the eight benchmark ISAXes of Table 3 as CoreDSL
//!   sources, plus assembler mnemonics for them,
//! * [`golden`] — the golden-model executor: runs ISAX-extended programs on
//!   the `riscv` ISS via the CoreDSL behavior interpreter (the reference
//!   for §5.3-style verification),
//! * [`xcheck`] — the opt-in differential X-propagation oracle
//!   (`lnc --xcheck`): re-runs every generated netlist under four-state
//!   IEEE-1800 semantics and diffs it against `rtl::interp`.

pub mod diag;
pub mod driver;
pub mod faults;
pub mod golden;
pub mod isax_lib;
pub mod pipeline;
pub mod serve;
pub mod xcheck;

pub use diag::{DiagEvent, Diagnostics, Severity};
pub use driver::{
    current_stage, matrix_cells, CompiledGraph, CompiledIsax, FlowError, Longnail, MatrixCell,
    MatrixEntry, MatrixResult,
};
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use rtl::opt::OptLevel;
pub use pipeline::{cell_key, schema_fingerprint, CellBundle, PipelineCache, StageCacheStats};
pub use xcheck::{xcheck_compiled, XCheckReport, XCheckUnit};
