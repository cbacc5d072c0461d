//! Static scheduling infrastructure (paper §4.2–§4.4).
//!
//! Reimplements CIRCT's extensible scheduling problem model and the
//! *LongnailProblem* defined on top of it (Table 2):
//!
//! * [`problem`] — operations, dependences, operator types, and the three
//!   levels of solution constraints (*Problem* → *ChainingProblem* →
//!   *LongnailProblem*),
//! * [`chain`] — computation of chain-breaking dependences that split
//!   overlong combinational chains against a cycle-time budget,
//! * [`ilp_sched`] — the exact ILP formulation of Figure 7, solved as a
//!   difference system by the `ilp` crate (least optimal schedule, checked
//!   against an optimality certificate),
//! * [`list_sched`] — a fast ASAP list scheduler used as a baseline and for
//!   ablation benchmarks,
//! * [`resilient`] — the budgeted facade over both schedulers: exact ILP
//!   under a deterministic work [`Budget`], degrading to the verified ASAP
//!   fallback instead of failing,
//! * [`stic`] — start-time-in-cycle propagation (the `ChainingProblem`
//!   property computed after scheduling).
//!
//! The graph walks (topological order, chain breakers, STIC, ASAP) read
//! one flat successor or predecessor list per walk, built in dependence
//! order, so they allocate per problem, not per operation.
//!
//! What it does not do: every operator type has unlimited instances, so
//! there is no resource-constrained or modulo scheduling. Each unit is one
//! acyclic graph, and its initiation interval is derived from the schedule
//! afterwards, never optimized. Chaining models one incoming and one
//! outgoing delay per operator type; it is not a timing analysis of the
//! netlist built from the schedule. A schedule is verified against the
//! Table 2 constraint levels only, not against that netlist or the
//! instruction's CoreDSL behavior.

pub mod chain;
pub mod ilp_sched;
pub mod list_sched;
pub mod problem;
pub mod resilient;
pub mod stic;

pub use ilp::{Budget, Exhausted, WorkKind};
pub use ilp_sched::{schedule_ilp, schedule_ilp_with_budget};
pub use list_sched::schedule_asap;
pub use problem::{
    Dependence, LongnailProblem, Operation, OperationId, OperatorType, OperatorTypeId, Schedule,
    ScheduleError,
};
pub use resilient::{schedule_resilient, Degradation, DegradationReason, SchedOutcome};
