//! ASAP list scheduler — the non-ILP baseline.
//!
//! Schedules each operation at the earliest cycle satisfying precedence,
//! its interface window, and the cycle-time budget. Used as a fast
//! comparator for the ILP scheduler in the ablation benchmarks: ASAP
//! minimizes individual start times but ignores the register-lifetime term
//! of the Figure 7 objective.

use crate::problem::{LongnailProblem, Schedule, ScheduleError};
use crate::stic::compute_stic;

/// Computes an ASAP schedule with operator chaining.
///
/// # Errors
///
/// Returns [`ScheduleError::Infeasible`] if an operation cannot start
/// before its window closes, or [`ScheduleError::InvalidProblem`] for
/// malformed inputs.
pub fn schedule_asap(problem: &mut LongnailProblem) -> Result<Schedule, ScheduleError> {
    problem.check()?;
    let order = problem.topological_order()?;
    let n = problem.operations.len();
    let preds = problem.predecessors();
    let mut start = vec![0u32; n];
    let mut finish_in_cycle = vec![0.0f64; n]; // output arrival within start cycle
    let budget = if problem.cycle_time > 0.0 {
        problem.cycle_time
    } else {
        f64::INFINITY
    };
    for &opid in &order {
        let i = opid.0;
        let ot = problem.lot(opid);
        if ot.outgoing_delay > budget {
            return Err(ScheduleError::InvalidProblem(format!(
                "operation `{}` alone exceeds the cycle time",
                problem.operations[i].name
            )));
        }
        let mut cycle = ot.earliest;
        let mut arrival = 0.0f64;
        for &p in preds.of(i) {
            let pot = problem.lot(crate::problem::OperationId(p));
            let ready = start[p] + pot.latency;
            if ready > cycle {
                cycle = ready;
                arrival = 0.0;
            }
            if ready == cycle {
                let contrib = if pot.latency == 0 {
                    if start[p] == cycle {
                        finish_in_cycle[p]
                    } else {
                        0.0
                    }
                } else {
                    pot.outgoing_delay
                };
                if contrib > arrival {
                    arrival = contrib;
                }
            }
        }
        // Chaining: if this op cannot finish within the budget, move to the
        // next cycle where it starts a fresh chain.
        if arrival + ot.outgoing_delay > budget {
            cycle += 1;
            arrival = 0.0;
        }
        if let Some(latest) = ot.latest {
            if cycle > latest {
                return Err(ScheduleError::Infeasible(format!(
                    "`{}` cannot start before cycle {cycle}, but its window closes at {latest}",
                    problem.operations[i].name
                )));
            }
        }
        start[i] = cycle;
        finish_in_cycle[i] = arrival + ot.outgoing_delay;
    }
    let schedule = compute_stic(problem, start)?;
    problem.verify(&schedule)?;
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LongnailProblem, OperatorType};

    #[test]
    fn asap_matches_precedence() {
        let mut p = LongnailProblem {
            cycle_time: 1.5,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let a = p.add_operation("a", add);
        let b = p.add_operation("b", add);
        let c = p.add_operation("c", add);
        p.add_dependence(a, b);
        p.add_dependence(b, c);
        let s = schedule_asap(&mut p).unwrap();
        // 1.0 ns each, 1.5 ns budget: one op per cycle.
        assert_eq!(s.start_time, vec![0, 1, 2]);
    }

    #[test]
    fn asap_respects_windows() {
        let mut p = LongnailProblem::default();
        let iface =
            p.add_operator_type(OperatorType::combinational("rs1", 0.0).with_window(2, Some(4)));
        let comb = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let r = p.add_operation("r", iface);
        let a = p.add_operation("a", comb);
        p.add_dependence(r, a);
        p.cycle_time = 3.5;
        let s = schedule_asap(&mut p).unwrap();
        assert_eq!(s.start_time[0], 2);
    }

    #[test]
    fn asap_detects_window_infeasibility() {
        let mut p = LongnailProblem::default();
        let late =
            p.add_operator_type(OperatorType::combinational("late", 0.0).with_window(3, None));
        let early =
            p.add_operator_type(OperatorType::combinational("early", 0.0).with_window(0, Some(1)));
        let a = p.add_operation("a", late);
        let b = p.add_operation("b", early);
        p.add_dependence(a, b);
        assert!(matches!(
            schedule_asap(&mut p),
            Err(ScheduleError::Infeasible(_))
        ));
    }

    #[test]
    fn asap_never_beats_ilp_on_objective() {
        // Figure-7 objective value of ASAP >= ILP on a fan-in graph.
        use crate::ilp_sched::schedule_ilp;
        let mut p = LongnailProblem {
            cycle_time: 1.5,
            ..LongnailProblem::default()
        };
        let comb = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let iface =
            p.add_operator_type(OperatorType::combinational("late", 0.0).with_window(4, Some(4)));
        let a = p.add_operation("a", comb);
        let b = p.add_operation("b", comb);
        let sink = p.add_operation("sink", iface);
        p.add_dependence(a, sink);
        p.add_dependence(b, sink);
        let objective = |p: &LongnailProblem, s: &Schedule| -> u64 {
            let t: u64 = s.start_time.iter().map(|&x| x as u64).sum();
            let l: u64 = p
                .dependences
                .iter()
                .map(|d| (s.start_time[d.to.0] - s.start_time[d.from.0]) as u64)
                .sum();
            t + l
        };
        let asap = schedule_asap(&mut p.clone()).unwrap();
        let ilp = schedule_ilp(&mut p).unwrap();
        assert!(objective(&p, &asap) >= objective(&p, &ilp));
    }
}
