//! Chain-breaking dependence computation.
//!
//! The scheduling model allows zero-latency operator types; without further
//! care, long chains of such operations would all be scheduled into the
//! same time step and evaluated combinationally, breaking timing closure.
//! Following CIRCT's chaining support, we pre-compute *chain-breaking
//! dependences* (`chainBreakers`, constraint C5 of Figure 7): edges whose
//! endpoints must be separated by at least one time step so that no
//! combinational chain exceeds the cycle-time budget.
//!
//! The computation assigns every operation a *pseudo-cycle* via an ASAP
//! pass with operator chaining (earliest-windows honored): an operation
//! starts a new pseudo-cycle when its in-cycle arrival plus its own delay
//! would exceed the budget. A zero-latency dependence crossing a
//! pseudo-cycle boundary becomes a chain breaker when its endpoints
//! genuinely cannot share a cycle. Deriving the breakers from one
//! consistent ASAP timeline keeps the boundaries aligned — per-edge local
//! decisions would let wiring chains (extracts/concats with zero delay)
//! thread through a boundary and smear iterations across stages — and
//! guarantees the ASAP schedule satisfies every breaker, so the ILP's
//! optimum is never worse than the greedy baseline.

use crate::problem::{Dependence, LongnailProblem, ScheduleError};

/// Computes chain-breaking edges for `problem` against its `cycle_time`
/// and stores them in `problem.chain_breakers`.
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidProblem`] if the graph is cyclic, or if
/// a single operation's delay alone exceeds the cycle time (no schedule
/// could fix that).
pub fn compute_chain_breakers(problem: &mut LongnailProblem) -> Result<(), ScheduleError> {
    problem.chain_breakers.clear();
    if problem.cycle_time <= 0.0 {
        return Ok(());
    }
    let budget = problem.cycle_time + 1e-9;
    let order = problem.topological_order()?;
    let n = problem.operations.len();
    let preds = problem.predecessors();
    for (i, op) in problem.operations.iter().enumerate() {
        let ot = &problem.operator_types[op.operator_type.0];
        let delay = ot.incoming_delay.max(ot.outgoing_delay);
        if delay > budget {
            return Err(ScheduleError::InvalidProblem(format!(
                "operation `{}` alone needs {delay:.2} ns, exceeding the cycle time {:.2} ns",
                problem.operations[i].name, problem.cycle_time
            )));
        }
    }
    // ASAP pseudo-cycles with chaining, honoring earliest-windows so the
    // derived breakers are consistent with (and satisfied by) the ASAP
    // list schedule — which makes the ASAP solution feasible for the ILP
    // model, so the exact formulation can never end up worse.
    let mut cycle = vec![0u64; n];
    let mut arrival = vec![0.0f64; n]; // output time within the pseudo-cycle
    for &opid in &order {
        let i = opid.0;
        let ot = problem.lot(opid);
        let mut c = ot.earliest as u64;
        let mut input = 0.0f64;
        for &p in preds.of(i) {
            let pot = &problem.operator_types[problem.operations[p].operator_type.0];
            let (ready_cycle, ready_arrival) = if pot.latency == 0 {
                (cycle[p], arrival[p])
            } else {
                (cycle[p] + pot.latency as u64, pot.outgoing_delay)
            };
            if ready_cycle > c {
                c = ready_cycle;
                input = ready_arrival;
            } else if ready_cycle == c && ready_arrival > input {
                input = ready_arrival;
            }
        }
        if input + ot.outgoing_delay > budget {
            c += 1;
            input = 0.0;
        }
        cycle[i] = c;
        arrival[i] = input + ot.outgoing_delay;
    }
    // A zero-latency dependence crossing a pseudo-cycle boundary breaks
    // only if its endpoints genuinely cannot share a cycle: the source's
    // accumulated chain plus the consumer's own delay must exceed the
    // budget. Crossings caused purely by a predecessor's latency, or fed by
    // delay-free sources, are left unconstrained (the scheduler may legally
    // co-schedule the endpoints in a later cycle); any residual chaining
    // violations are repaired lazily by the ILP driver.
    let breaks = |d: &&Dependence| {
        problem.lot(d.from).latency == 0
            && cycle[d.from.0] < cycle[d.to.0]
            && arrival[d.from.0] + problem.lot(d.to).outgoing_delay > budget
    };
    // Counted first, so the list is allocated once at its exact size.
    let mut breakers = Vec::with_capacity(problem.dependences.iter().filter(breaks).count());
    breakers.extend(problem.dependences.iter().filter(breaks));
    problem.chain_breakers = breakers;
    Ok(())
}

/// Finds chain-breaking edges that would repair the chaining violations of
/// a computed schedule: for every zero-latency operation whose in-cycle
/// completion exceeds the budget, the dependence whose result arrives
/// latest in its start cycle must deliver one cycle later. That is either
/// a same-cycle combinational producer, or a multi-cycle producer whose
/// result lands in that cycle; the breaker's `latency + 1` form (C5)
/// covers both. Returns an empty vector when the schedule already meets
/// the budget (used as a lazy-constraint loop by the ILP driver).
pub fn repair_breakers(
    problem: &LongnailProblem,
    schedule: &crate::problem::Schedule,
) -> Vec<Dependence> {
    if problem.cycle_time <= 0.0 {
        return Vec::new();
    }
    let budget = problem.cycle_time + 1e-9;
    let mut out = Vec::new();
    for (i, op) in problem.operations.iter().enumerate() {
        let ot = &problem.operator_types[op.operator_type.0];
        if ot.latency != 0 || schedule.start_time_in_cycle[i] + ot.outgoing_delay <= budget {
            continue;
        }
        // Break the in-cycle edge with the largest arrival contribution.
        let mut best: Option<(f64, Dependence)> = None;
        for d in &problem.dependences {
            if d.to.0 != i {
                continue;
            }
            let pot = problem.lot(d.from);
            if schedule.start_time[d.from.0] + pot.latency != schedule.start_time[i] {
                continue;
            }
            let contrib = if pot.latency == 0 {
                schedule.start_time_in_cycle[d.from.0] + pot.outgoing_delay
            } else {
                pot.outgoing_delay
            };
            if best.as_ref().map(|(c, _)| contrib > *c).unwrap_or(true) {
                best = Some((contrib, *d));
            }
        }
        if let Some((_, d)) = best {
            if !problem.chain_breakers.contains(&d) && !out.contains(&d) {
                out.push(d);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LongnailProblem, OperatorType};

    #[test]
    fn short_chains_need_no_breakers() {
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
        compute_chain_breakers(&mut p).unwrap();
        // 3 × 1.0 ns fits in 3.5 ns.
        assert!(p.chain_breakers.is_empty());
    }

    #[test]
    fn long_chain_is_broken() {
        let mut p = LongnailProblem {
            cycle_time: 3.5,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let ops: Vec<_> = (0..5)
            .map(|i| p.add_operation(&format!("a{i}"), add))
            .collect();
        for w in ops.windows(2) {
            p.add_dependence(w[0], w[1]);
        }
        compute_chain_breakers(&mut p).unwrap();
        // Chain of 5 × 1.0 ns in a 3.5 ns budget: break after the third op.
        assert_eq!(p.chain_breakers.len(), 1);
        assert_eq!(p.chain_breakers[0].from, ops[2]);
        assert_eq!(p.chain_breakers[0].to, ops[3]);
    }

    #[test]
    fn exact_budget_boundaries_do_not_break_early() {
        // 1.2-unit groups against a 3.6 budget: exactly 3 per cycle; a
        // floating-point 3 × 1.2 = 3.6000000000000005 must not break.
        let mut p = LongnailProblem {
            cycle_time: 3.6,
            ..LongnailProblem::default()
        };
        let op12 = p.add_operator_type(OperatorType::combinational("op", 1.2));
        let ops: Vec<_> = (0..9)
            .map(|i| p.add_operation(&format!("o{i}"), op12))
            .collect();
        for w in ops.windows(2) {
            p.add_dependence(w[0], w[1]);
        }
        compute_chain_breakers(&mut p).unwrap();
        assert_eq!(p.chain_breakers.len(), 2, "{:?}", p.chain_breakers);
        assert_eq!(p.chain_breakers[0].from, ops[2]);
        assert_eq!(p.chain_breakers[1].from, ops[5]);
    }

    #[test]
    fn wiring_cannot_thread_through_a_boundary() {
        // a(1.0) -> b(1.0) -> d(1.0, breaks) and a -> wire(0.0) -> d:
        // the wiring edge must also break, or `d` would be torn between
        // cycles.
        let mut p = LongnailProblem {
            cycle_time: 2.0,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let wire = p.add_operator_type(OperatorType::combinational("wire", 0.0));
        let a = p.add_operation("a", add);
        let b = p.add_operation("b", add);
        let w = p.add_operation("w", wire);
        let d = p.add_operation("d", add);
        p.add_dependence(a, b);
        p.add_dependence(a, w);
        p.add_dependence(b, d);
        p.add_dependence(w, d);
        compute_chain_breakers(&mut p).unwrap();
        // d lands in cycle 1. b->d must break (2.0 + 1.0 > 2.0); the
        // delay-free wiring edge w->d may legally share d's cycle
        // (1.0 + 1.0 <= 2.0), so exactly one breaker results.
        assert_eq!(p.chain_breakers.len(), 1);
        assert_eq!(p.chain_breakers[0].from, b);
    }

    #[test]
    fn sequential_producer_restarts_chain() {
        let mut p = LongnailProblem {
            cycle_time: 2.0,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let mul = p.add_operator_type(OperatorType::sequential("mul", 1, 1.0));
        let a = p.add_operation("a", add);
        let m = p.add_operation("m", mul);
        let b = p.add_operation("b", add);
        p.add_dependence(a, m);
        p.add_dependence(m, b);
        compute_chain_breakers(&mut p).unwrap();
        // a(1.0) -> m: m registers internally, so chain restarts; m -> b is
        // 1.0 + 1.0 = 2.0 <= 2.0. No breakers.
        assert!(p.chain_breakers.is_empty());
    }

    #[test]
    fn oversized_single_op_is_an_error() {
        let mut p = LongnailProblem {
            cycle_time: 1.0,
            ..LongnailProblem::default()
        };
        let big = p.add_operator_type(OperatorType::combinational("big", 2.0));
        p.add_operation("b", big);
        assert!(compute_chain_breakers(&mut p).is_err());
    }

    #[test]
    fn zero_cycle_time_disables_chaining() {
        let mut p = LongnailProblem::default();
        let add = p.add_operator_type(OperatorType::combinational("add", 10.0));
        let a = p.add_operation("a", add);
        let b = p.add_operation("b", add);
        p.add_dependence(a, b);
        compute_chain_breakers(&mut p).unwrap();
        assert!(p.chain_breakers.is_empty());
    }
}
