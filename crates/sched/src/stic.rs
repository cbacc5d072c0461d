//! Start-time-in-cycle (STIC) propagation.
//!
//! After start times are computed, the `ChainingProblem` property
//! `startTimeInCycle` is derived by propagating physical arrival times
//! through combinational chains in topological order (the paper notes this
//! is "computed afterwards by a utility function in CIRCT").

use crate::problem::{LongnailProblem, Schedule, ScheduleError};

/// Computes `start_time_in_cycle` for the given start times.
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidProblem`] if the graph is cyclic.
pub fn compute_stic(
    problem: &LongnailProblem,
    start_time: Vec<u32>,
) -> Result<Schedule, ScheduleError> {
    let order = problem.topological_order()?;
    let n = problem.operations.len();
    let preds = problem.predecessors();
    let mut stic = vec![0.0f64; n];
    for &opid in &order {
        let i = opid.0;
        let mut earliest = 0.0f64;
        for &p in preds.of(i) {
            let pot = &problem.operator_types[problem.operations[p].operator_type.0];
            let arrives = if pot.latency == 0 && start_time[p] == start_time[i] {
                stic[p] + pot.outgoing_delay
            } else if pot.latency > 0 && start_time[p] + pot.latency == start_time[i] {
                pot.outgoing_delay
            } else {
                0.0
            };
            if arrives > earliest {
                earliest = arrives;
            }
        }
        stic[i] = earliest;
    }
    Ok(Schedule {
        start_time,
        start_time_in_cycle: stic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LongnailProblem, OperatorType};

    #[test]
    fn chains_accumulate_within_a_cycle() {
        let mut p = LongnailProblem {
            cycle_time: 3.5,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let a = p.add_operation("a", add);
        let b = p.add_operation("b", add);
        let c = p.add_operation("c", add);
        p.add_dependence(a, b);
        p.add_dependence(b, c);
        let sched = compute_stic(&p, vec![0, 0, 0]).unwrap();
        assert_eq!(sched.start_time_in_cycle, vec![0.0, 1.0, 2.0]);
        p.verify(&sched).unwrap();
    }

    #[test]
    fn cycle_boundary_resets_arrival() {
        let mut p = LongnailProblem {
            cycle_time: 3.5,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let a = p.add_operation("a", add);
        let b = p.add_operation("b", add);
        p.add_dependence(a, b);
        let sched = compute_stic(&p, vec![0, 1]).unwrap();
        // b starts a new cycle: the pipeline register supplies its operand
        // at the start of the cycle.
        assert_eq!(sched.start_time_in_cycle, vec![0.0, 0.0]);
    }

    #[test]
    fn sequential_producer_contributes_output_delay() {
        let mut p = LongnailProblem {
            cycle_time: 3.5,
            ..LongnailProblem::default()
        };
        let mul = p.add_operator_type(OperatorType::sequential("mul", 2, 1.5));
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let m = p.add_operation("m", mul);
        let a = p.add_operation("a", add);
        p.add_dependence(m, a);
        let sched = compute_stic(&p, vec![0, 2]).unwrap();
        assert_eq!(sched.start_time_in_cycle[1], 1.5);
    }
}
