//! Resilient scheduling facade: exact ILP first, graceful degradation to
//! the ASAP list scheduler when the exact path cannot finish.
//!
//! The ILP of Figure 7 is solved exactly as a difference system, but the
//! lazy chain-breaker loop re-solves it from scratch once per repair
//! round, so a pathological instruction can still cost many rounds and
//! pivots. [`schedule_resilient`] bounds that risk with a deterministic
//! work [`Budget`] and, when the budget runs out (or the exact path fails
//! in a recoverable way, such as a failed optimality certificate), falls
//! back to [`schedule_asap`] — which is
//! linear-time, satisfies the same Table 2 constraint hierarchy, and only
//! sacrifices the register-lifetime term of the objective. The fallback
//! schedule is re-verified against *all* constraint levels before being
//! returned, and the switch is reported as a [`Degradation`] event instead
//! of an error, so one expensive instruction degrades to a slightly larger
//! ISAX module rather than failing the whole compilation.
//!
//! Genuinely infeasible problems (interface windows that cannot be met)
//! fail both schedulers and still surface as [`ScheduleError`]s.

use crate::ilp_sched::schedule_ilp_with_budget;
use crate::list_sched::schedule_asap;
use crate::problem::{LongnailProblem, Schedule, ScheduleError};
use ilp::Budget;
use std::fmt;

/// Why the exact scheduler was abandoned in favor of the fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationReason {
    /// The deterministic work budget ran out mid-search.
    BudgetExhausted(ilp::Exhausted),
    /// The ILP reported infeasible but the ASAP scheduler found a valid
    /// schedule (a lazy-constraint artifact, e.g. breaker-induced
    /// over-constraint).
    IlpInfeasible(String),
    /// The solver's optimality certificate or the schedule's
    /// post-verification failed — an internal fault contained by falling
    /// back.
    IlpFault(String),
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::BudgetExhausted(e) => e.fmt(f),
            DegradationReason::IlpInfeasible(m) => write!(f, "ILP infeasible: {m}"),
            DegradationReason::IlpFault(m) => write!(f, "ILP solution rejected: {m}"),
        }
    }
}

/// Record of one exact → fallback switch.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// What stopped the exact scheduler.
    pub reason: DegradationReason,
    /// Work units spent before giving up.
    pub work_used: u64,
    /// The budget limit in force.
    pub work_limit: u64,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded to ASAP fallback scheduler: {} (work {}/{})",
            self.reason, self.work_used, self.work_limit
        )
    }
}

/// A schedule plus how it was obtained.
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// The verified schedule.
    pub schedule: Schedule,
    /// `Some` when the ASAP fallback produced the schedule.
    pub degradation: Option<Degradation>,
}

impl SchedOutcome {
    /// Whether the exact ILP produced the schedule.
    pub fn is_exact(&self) -> bool {
        self.degradation.is_none()
    }
}

/// Schedules `problem`, degrading gracefully when the exact ILP cannot
/// finish within `budget`.
///
/// The returned schedule — from either path — has been verified against
/// every constraint level of Table 2 (precedence, chaining, interface
/// windows).
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidProblem`] for structurally malformed
/// inputs (no scheduler can help), or the fallback scheduler's error when
/// the problem is genuinely infeasible.
pub fn schedule_resilient(
    problem: &mut LongnailProblem,
    budget: &Budget,
) -> Result<SchedOutcome, ScheduleError> {
    let reason = match schedule_ilp_with_budget(problem, budget) {
        Ok(schedule) => {
            return Ok(SchedOutcome {
                schedule,
                degradation: None,
            })
        }
        // Structural problems affect the fallback identically; don't retry.
        Err(e @ ScheduleError::InvalidProblem(_)) => return Err(e),
        Err(ScheduleError::Exhausted(e)) => DegradationReason::BudgetExhausted(e),
        Err(ScheduleError::Infeasible(m)) => DegradationReason::IlpInfeasible(m),
        Err(ScheduleError::Violation(m)) => DegradationReason::IlpFault(m),
    };
    // Fallback: ASAP with chaining. It ignores the chain-breaker edges the
    // failed ILP attempt may have accumulated, so solver state cannot leak
    // into the fallback. Genuine infeasibility propagates from here.
    let schedule = schedule_asap(problem)?;
    problem.verify(&schedule)?;
    Ok(SchedOutcome {
        schedule,
        degradation: Some(Degradation {
            reason,
            work_used: budget.used(),
            work_limit: budget.limit(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::OperatorType;

    fn chain_problem(n: usize, cycle_time: f64) -> LongnailProblem {
        let mut p = LongnailProblem {
            cycle_time,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let ops: Vec<_> = (0..n)
            .map(|i| p.add_operation(&format!("a{i}"), add))
            .collect();
        for w in ops.windows(2) {
            p.add_dependence(w[0], w[1]);
        }
        p
    }

    #[test]
    fn exact_path_taken_with_ample_budget() {
        let mut p = chain_problem(8, 2.5);
        let budget = Budget::default();
        let out = schedule_resilient(&mut p, &budget).unwrap();
        assert!(out.is_exact());
        p.verify(&out.schedule).unwrap();
    }

    #[test]
    fn tiny_budget_degrades_but_still_verifies() {
        let mut p = chain_problem(8, 2.5);
        let budget = Budget::new(0);
        let out = schedule_resilient(&mut p, &budget).unwrap();
        let deg = out.degradation.expect("zero budget must degrade");
        assert!(matches!(deg.reason, DegradationReason::BudgetExhausted(_)));
        p.verify(&out.schedule).unwrap();
    }

    #[test]
    fn infeasible_windows_still_error() {
        let mut p = LongnailProblem::default();
        let early =
            p.add_operator_type(OperatorType::combinational("early", 0.0).with_window(0, Some(1)));
        let late =
            p.add_operator_type(OperatorType::combinational("late", 0.0).with_window(3, Some(4)));
        let a = p.add_operation("a", late);
        let b = p.add_operation("b", early);
        p.add_dependence(a, b);
        assert!(schedule_resilient(&mut p, &Budget::default()).is_err());
        // Also under an empty budget: exhaustion must not mask
        // infeasibility.
        let mut p2 = LongnailProblem::default();
        let early2 =
            p2.add_operator_type(OperatorType::combinational("early", 0.0).with_window(0, Some(1)));
        let late2 =
            p2.add_operator_type(OperatorType::combinational("late", 0.0).with_window(3, Some(4)));
        let a2 = p2.add_operation("a", late2);
        let b2 = p2.add_operation("b", early2);
        p2.add_dependence(a2, b2);
        assert!(schedule_resilient(&mut p2, &Budget::new(0)).is_err());
    }

    /// mul (1 cycle, 1.0 ns out) -> add (0.7 ns) at 1.6 ns: an add in the
    /// mul's result cycle would complete at 1.7 ns, and the initial
    /// breakers only cover combinational edges, so the exact path needs a
    /// repair round.
    fn mul_feeds_add() -> LongnailProblem {
        let mut p = LongnailProblem {
            cycle_time: 1.6,
            ..LongnailProblem::default()
        };
        let mul = p.add_operator_type(OperatorType::sequential("mul", 1, 1.0));
        let add = p.add_operator_type(OperatorType::combinational("add", 0.7));
        let a = p.add_operation("a", mul);
        let b = p.add_operation("b", add);
        p.add_dependence(a, b);
        p
    }

    #[test]
    fn exhaustion_mid_repair_round_degrades_to_asap() {
        // Measure the full cost, then replay with less: exhaustion lands
        // mid-solve (at `needed - 1`, in the last propagation batch) and
        // the ASAP fallback must still produce a verified schedule. The
        // reduction tree solves in one round; the mul -> add pair takes a
        // repair round, so there exhaustion lands in the second round.
        fn tree_problem() -> LongnailProblem {
            let mut p = LongnailProblem {
                cycle_time: 1.5,
                ..LongnailProblem::default()
            };
            let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
            let leaves: Vec<_> = (0..4)
                .map(|i| p.add_operation(&format!("l{i}"), add))
                .collect();
            let m0 = p.add_operation("m0", add);
            let m1 = p.add_operation("m1", add);
            let root = p.add_operation("root", add);
            p.add_dependence(leaves[0], m0);
            p.add_dependence(leaves[1], m0);
            p.add_dependence(leaves[2], m1);
            p.add_dependence(leaves[3], m1);
            p.add_dependence(m0, root);
            p.add_dependence(m1, root);
            p
        }
        for (build, rounds) in [
            (tree_problem as fn() -> LongnailProblem, 1),
            (mul_feeds_add, 2),
        ] {
            let mut probe = build();
            let full = Budget::unlimited();
            let out = schedule_resilient(&mut probe, &full).unwrap();
            assert!(out.is_exact());
            assert_eq!(full.count(ilp::WorkKind::Round), rounds);
            let needed = full.used();
            for limit in [needed / 2, needed - 1] {
                let mut p = build();
                let budget = Budget::new(limit);
                let out = schedule_resilient(&mut p, &budget).unwrap();
                let deg = out
                    .degradation
                    .expect("a limit below the requirement must degrade");
                assert!(matches!(deg.reason, DegradationReason::BudgetExhausted(_)));
                assert!(deg.work_used <= limit);
                p.verify(&out.schedule).unwrap();
            }
        }
    }

    #[test]
    fn multi_cycle_producer_feeding_a_chain_stays_exact() {
        // The repair must break the sequential edge too, not give up and
        // fall back.
        let mut p = mul_feeds_add();
        let out = schedule_resilient(&mut p, &Budget::default()).unwrap();
        assert!(out.is_exact(), "{:?}", out.degradation);
        assert_eq!(out.schedule.start_time, vec![0, 2]);
    }

    #[test]
    fn degradation_reports_work_accounting() {
        let mut p = chain_problem(6, 2.5);
        let budget = Budget::new(ilp::WorkKind::Round.cost()); // first round only
        let out = schedule_resilient(&mut p, &budget).unwrap();
        let deg = out.degradation.expect("must degrade");
        assert_eq!(deg.work_limit, ilp::WorkKind::Round.cost());
        assert!(deg.work_used <= deg.work_limit);
        assert!(deg.to_string().contains("ASAP fallback"));
    }
}
