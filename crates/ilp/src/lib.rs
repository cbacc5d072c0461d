//! The exact integer solver behind the Figure 7 scheduling ILP.
//!
//! The paper solves the *LongnailProblem* ILP with Cbc via OR-Tools. Every
//! constraint of that model is a difference `t_j − t_i >= c` or a bound,
//! so its LP relaxation is totally unimodular and its dual is a min-cost
//! flow (SDC scheduling, Cong & Zhang, DAC'06). This crate solves exactly
//! that class and nothing more: [`DiffSystem`] minimizes `Σ w_i·t_i` over
//! difference arcs and bounds with a tree-pivoting network simplex in
//! `i64`, returns the *least* optimal point, and checks an optimality
//! certificate before returning it. It has no general LP/ILP model, no
//! floating point, and no branch-and-bound.
//!
//! All work is charged against a deterministic [`Budget`]. The solver
//! reads its graphs through [`Csr`], a flat adjacency list the scheduler's
//! graph walks share.
//!
//! # Examples
//!
//! ```
//! use ilp::{Budget, DiffSystem};
//!
//! // minimize −p + 2c  s.t.  c − p >= 1,  0 <= p,  3 <= c <= 3
//! let mut sys = DiffSystem::new();
//! let p = sys.var(-1, 0, None);
//! let c = sys.var(2, 3, Some(3));
//! sys.arc(p, c, 1);
//! let sol = sys.solve(&Budget::default()).unwrap();
//! assert_eq!(sol.values, vec![2, 3]);
//! assert_eq!(sol.objective, 4);
//! ```

pub mod budget;
pub mod csr;
pub mod difference;

pub use budget::{Budget, Exhausted, WorkKind};
pub use csr::Csr;
pub use difference::{DiffSystem, Solution, SolveError, RELAX_BATCH};
