//! Deterministic work budgets for the solver.
//!
//! A [`Budget`] is a single pool of abstract *work units* shared across
//! every layer touched by one scheduling attempt (chaining-repair rounds,
//! and within each round the solver's propagation batches and tree
//! pivots). Exhaustion is a typed error ([`Exhausted`], surfaced as
//! [`SolveError::Exhausted`](crate::SolveError::Exhausted)), so callers can
//! fall back to a cheaper algorithm instead of crashing.
//!
//! Work is counted, never timed: charges are a deterministic function of the
//! model and the algorithm, so a budget-limited run produces the same result
//! on every machine and every repetition.

use std::cell::Cell;
use std::fmt;

/// One unit of charged solver work. Costs reflect the rough relative
/// expense of each step so a single limit governs all layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// One tree pivot of the difference solver: a subtree shift that
    /// swaps one tight arc for another.
    Pivot,
    /// One branch-and-bound node. Never charged: a difference system's
    /// LP optimum is integral, so the solver never branches. The kind
    /// stays so the `solver.nodes` counter keeps its meaning (always 0).
    Node,
    /// One lazy-constraint repair round (a from-scratch re-solve with the
    /// added chain breakers).
    Round,
    /// One started batch of [`RELAX_BATCH`](crate::RELAX_BATCH) arc
    /// relaxations in the solver's two propagation passes (the ASAP start
    /// and the least-optimum finish).
    Presolve,
}

impl WorkKind {
    /// The work-unit cost of one step of this kind.
    pub const fn cost(self) -> u64 {
        match self {
            WorkKind::Pivot => 1,
            WorkKind::Node => 32,
            WorkKind::Round => 256,
            WorkKind::Presolve => 1,
        }
    }
}

impl fmt::Display for WorkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WorkKind::Pivot => "tree pivot",
            WorkKind::Node => "branch-and-bound node",
            WorkKind::Round => "repair round",
            WorkKind::Presolve => "propagation batch",
        })
    }
}

/// The budget ran out. Carries the accounting state at the point of
/// exhaustion for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// Work units spent when the charge failed.
    pub used: u64,
    /// The budget's limit.
    pub limit: u64,
    /// The kind of work whose charge could not be covered.
    pub at: WorkKind,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solver work budget exhausted at a {} ({} of {} units spent)",
            self.at, self.used, self.limit
        )
    }
}

impl std::error::Error for Exhausted {}

/// A deterministic pool of solver work units.
///
/// Shared by reference across solver layers; interior mutability keeps the
/// call signatures `&Budget` so one budget can thread through nested calls
/// (repair loop → solver) without plumbing `&mut`.
#[derive(Debug)]
pub struct Budget {
    limit: u64,
    used: Cell<u64>,
    /// Completed steps per kind (pivots, nodes, rounds, propagation batches)
    /// — the solver metrics telemetry reads after a solve. A step whose
    /// charge failed is not counted: the counters describe work actually
    /// performed.
    counts: [Cell<u64>; 4],
}

const fn kind_index(kind: WorkKind) -> usize {
    match kind {
        WorkKind::Pivot => 0,
        WorkKind::Node => 1,
        WorkKind::Round => 2,
        WorkKind::Presolve => 3,
    }
}

impl Budget {
    /// The default limit, sized so that every well-formed scheduling model
    /// solves without coming near it. Hitting it indicates a pathological
    /// model, for which callers degrade gracefully.
    pub const DEFAULT_LIMIT: u64 = 4_000_000;

    /// Creates a budget with the given work-unit limit.
    pub fn new(limit: u64) -> Self {
        Budget {
            limit,
            used: Cell::new(0),
            counts: [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)],
        }
    }

    /// A budget that never exhausts.
    pub fn unlimited() -> Self {
        Budget::new(u64::MAX)
    }

    /// Charges one step of `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`Exhausted`] when the charge does not fit; the budget is
    /// left saturated at its limit so later charges also fail.
    pub fn charge(&self, kind: WorkKind) -> Result<(), Exhausted> {
        let used = self.used.get().saturating_add(kind.cost());
        if used > self.limit {
            self.used.set(self.limit);
            return Err(Exhausted {
                used: self.limit,
                limit: self.limit,
                at: kind,
            });
        }
        self.used.set(used);
        let c = &self.counts[kind_index(kind)];
        c.set(c.get() + 1);
        Ok(())
    }

    /// Work units spent so far.
    pub fn used(&self) -> u64 {
        self.used.get()
    }

    /// Completed steps of `kind` charged so far (e.g. tree pivots).
    pub fn count(&self, kind: WorkKind) -> u64 {
        self.counts[kind_index(kind)].get()
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Work units still available.
    pub fn remaining(&self) -> u64 {
        self.limit - self.used.get()
    }

    /// Whether a previous charge has already failed (or exactly consumed
    /// the budget).
    pub fn is_exhausted(&self) -> bool {
        self.used.get() >= self.limit
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::new(Budget::DEFAULT_LIMIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_exhaust() {
        let b = Budget::new(WorkKind::Node.cost() + WorkKind::Pivot.cost());
        assert!(b.charge(WorkKind::Node).is_ok());
        assert_eq!(b.remaining(), WorkKind::Pivot.cost());
        assert!(b.charge(WorkKind::Pivot).is_ok());
        assert!(b.is_exhausted());
        let err = b.charge(WorkKind::Pivot).unwrap_err();
        assert_eq!(err.limit, b.limit());
        assert_eq!(err.at, WorkKind::Pivot);
    }

    #[test]
    fn per_kind_counters_track_completed_steps_only() {
        let b = Budget::new(WorkKind::Node.cost() + 2 * WorkKind::Pivot.cost());
        b.charge(WorkKind::Pivot).unwrap();
        b.charge(WorkKind::Pivot).unwrap();
        b.charge(WorkKind::Node).unwrap();
        // This charge fails: it must not count as performed work.
        assert!(b.charge(WorkKind::Round).is_err());
        assert_eq!(b.count(WorkKind::Pivot), 2);
        assert_eq!(b.count(WorkKind::Node), 1);
        assert_eq!(b.count(WorkKind::Round), 0);
    }

    #[test]
    fn exhaustion_is_sticky() {
        let b = Budget::new(0);
        assert!(b.charge(WorkKind::Pivot).is_err());
        assert!(b.charge(WorkKind::Round).is_err());
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge(WorkKind::Round).unwrap();
        }
        assert!(!b.is_exhausted());
    }

    #[test]
    fn display_is_informative() {
        let b = Budget::new(10);
        let err = b.charge(WorkKind::Node).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("budget exhausted"), "{msg}");
        assert!(msg.contains("branch-and-bound node"), "{msg}");
    }
}
