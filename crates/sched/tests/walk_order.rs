//! Walk-order reference: the scheduler's graph walks on random DAGs with
//! chain breakers, against the per-operation `Vec<Vec<usize>>` adjacency
//! they were first written with. The reference walks below are kept
//! verbatim, so `topological_order` must return exactly their order, and
//! `compute_chain_breakers`, `compute_stic` and `schedule_asap` exactly
//! their results, down to the order of the breakers and the error text.

use proptest::prelude::*;
use sched::problem::{
    Dependence, LongnailProblem, OperationId, OperatorType, Schedule, ScheduleError,
};

fn topological_order_ref(problem: &LongnailProblem) -> Result<Vec<OperationId>, ScheduleError> {
    let n = problem.operations.len();
    let mut indeg = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for d in problem.dependences.iter().chain(&problem.chain_breakers) {
        indeg[d.to.0] += 1;
        succs[d.from.0].push(d.to.0);
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(OperationId(i));
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() != n {
        return Err(ScheduleError::InvalidProblem(
            "dependence graph is cyclic".into(),
        ));
    }
    Ok(order)
}

fn preds_ref(problem: &LongnailProblem) -> Vec<Vec<usize>> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); problem.operations.len()];
    for d in &problem.dependences {
        preds[d.to.0].push(d.from.0);
    }
    preds
}

fn compute_chain_breakers_ref(problem: &mut LongnailProblem) -> Result<(), ScheduleError> {
    problem.chain_breakers.clear();
    if problem.cycle_time <= 0.0 {
        return Ok(());
    }
    let budget = problem.cycle_time + 1e-9;
    let order = topological_order_ref(problem)?;
    let n = problem.operations.len();
    let preds = preds_ref(problem);
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
    let mut cycle = vec![0u64; n];
    let mut arrival = vec![0.0f64; n];
    for &opid in &order {
        let i = opid.0;
        let ot = problem.lot(opid);
        let mut c = ot.earliest as u64;
        let mut input = 0.0f64;
        for &p in &preds[i] {
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
    let mut breakers = Vec::new();
    for d in &problem.dependences {
        let from_ot = problem.lot(d.from);
        let to_ot = problem.lot(d.to);
        if from_ot.latency == 0
            && cycle[d.from.0] < cycle[d.to.0]
            && arrival[d.from.0] + to_ot.outgoing_delay > budget
        {
            breakers.push(Dependence {
                from: d.from,
                to: d.to,
            });
        }
    }
    problem.chain_breakers = breakers;
    Ok(())
}

fn compute_stic_ref(
    problem: &LongnailProblem,
    start_time: Vec<u32>,
) -> Result<Schedule, ScheduleError> {
    let order = topological_order_ref(problem)?;
    let n = problem.operations.len();
    let preds = preds_ref(problem);
    let mut stic = vec![0.0f64; n];
    for &opid in &order {
        let i = opid.0;
        let mut earliest = 0.0f64;
        for &p in &preds[i] {
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

fn schedule_asap_ref(problem: &mut LongnailProblem) -> Result<Schedule, ScheduleError> {
    problem.check()?;
    let order = topological_order_ref(problem)?;
    let n = problem.operations.len();
    let preds = preds_ref(problem);
    let mut start = vec![0u32; n];
    let mut finish_in_cycle = vec![0.0f64; n];
    let budget = if problem.cycle_time > 0.0 {
        problem.cycle_time
    } else {
        f64::INFINITY
    };
    for &opid in &order {
        let i = opid.0;
        let ot = problem.lot(opid).clone();
        if ot.outgoing_delay > budget {
            return Err(ScheduleError::InvalidProblem(format!(
                "operation `{}` alone exceeds the cycle time",
                problem.operations[i].name
            )));
        }
        let mut cycle = ot.earliest;
        let mut arrival = 0.0f64;
        for &p in &preds[i] {
            let pot = problem.lot(OperationId(p)).clone();
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
    let schedule = compute_stic_ref(problem, start)?;
    problem.verify(&schedule)?;
    Ok(schedule)
}

/// A random DAG over `ranks.len()` operations: an edge `(a, b)` is kept
/// when `a` ranks before `b`, so the graph is acyclic but its topological
/// orders are unrelated to the operation indices. Repeated edges stay.
#[derive(Debug, Clone)]
struct RandomDag {
    ops: Vec<(u32, u32, u32, Option<u32>)>, // (latency, delay_tenths, earliest, latest)
    ranks: Vec<u32>,
    edges: Vec<(usize, usize)>,
    breakers: Vec<(usize, usize)>,
    cycle_tenths: u32,
    starts: Vec<u32>,
}

fn random_dag() -> impl Strategy<Value = RandomDag> {
    (1usize..=16).prop_flat_map(|n| {
        let ops = proptest::collection::vec(
            (
                0u32..=2,
                0u32..=12,
                0u32..=3,
                proptest::option::weighted(0.3, 2u32..=12),
            ),
            n,
        );
        let ranks = proptest::collection::vec(0u32..=8, n);
        let pairs = proptest::collection::vec((0usize..n, 0usize..n), 0..=3 * n);
        let breakers = proptest::collection::vec((0usize..n, 0usize..n), 0..=n);
        let starts = proptest::collection::vec(0u32..=4, n);
        (ops, ranks, pairs, breakers, 0u32..=30, starts).prop_map(
            |(ops, ranks, edges, breakers, cycle_tenths, starts)| RandomDag {
                ops,
                ranks,
                edges,
                breakers,
                cycle_tenths,
                starts,
            },
        )
    })
}

fn build(rd: &RandomDag) -> LongnailProblem {
    let mut p = LongnailProblem {
        cycle_time: rd.cycle_tenths as f64 / 10.0,
        ..LongnailProblem::default()
    };
    // Eight operator types shared round-robin, so operations share types.
    for (i, &(latency, delay_tenths, earliest, latest)) in rd.ops.iter().enumerate() {
        let tid = if i < 8 {
            let mut ot =
                OperatorType::sequential(&format!("t{i}"), latency, delay_tenths as f64 / 10.0);
            ot.earliest = earliest;
            ot.latest = latest.map(|l| l.max(earliest));
            p.add_operator_type(ot)
        } else {
            p.operations[i % 8].operator_type
        };
        p.add_operation(&format!("op{i}"), tid);
    }
    let before = |a: usize, b: usize| (rd.ranks[a], a) < (rd.ranks[b], b);
    for &(a, b) in &rd.edges {
        if before(a, b) {
            p.add_dependence(OperationId(a), OperationId(b));
        }
    }
    for &(a, b) in &rd.breakers {
        if before(a, b) {
            p.chain_breakers.push(Dependence {
                from: OperationId(a),
                to: OperationId(b),
            });
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn topological_order_matches_the_reference(rd in random_dag()) {
        let p = build(&rd);
        prop_assert_eq!(p.topological_order(), topological_order_ref(&p));
        // A back edge closes a cycle: both walks reject it alike.
        if let Some(d) = p.dependences.first().copied() {
            let mut cyclic = p.clone();
            cyclic.chain_breakers.push(Dependence { from: d.to, to: d.from });
            prop_assert_eq!(cyclic.topological_order(), topological_order_ref(&cyclic));
        }
    }

    #[test]
    fn chain_breakers_match_the_reference(rd in random_dag()) {
        let mut got = build(&rd);
        let mut want = got.clone();
        let (g, w) = (
            sched::chain::compute_chain_breakers(&mut got),
            compute_chain_breakers_ref(&mut want),
        );
        prop_assert_eq!(g, w);
        prop_assert_eq!(got.chain_breakers, want.chain_breakers);
    }

    #[test]
    fn stic_matches_the_reference(rd in random_dag()) {
        let p = build(&rd);
        let got = sched::stic::compute_stic(&p, rd.starts.clone());
        prop_assert_eq!(got, compute_stic_ref(&p, rd.starts.clone()));
    }

    #[test]
    fn asap_matches_the_reference(rd in random_dag()) {
        let mut got = build(&rd);
        let mut want = got.clone();
        let (g, w) = (sched::schedule_asap(&mut got), schedule_asap_ref(&mut want));
        prop_assert_eq!(g, w);
        // And with the breakers the chain pass derives in place of the
        // random ones.
        let mut got = build(&rd);
        if sched::chain::compute_chain_breakers(&mut got).is_ok() {
            let mut want = got.clone();
            prop_assert_eq!(sched::schedule_asap(&mut got), schedule_asap_ref(&mut want));
        }
    }
}
