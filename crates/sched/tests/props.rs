//! Property-based tests: random scheduling problems through both solvers.

use proptest::prelude::*;
use sched::problem::{LongnailProblem, OperatorType, Schedule};
use sched::{schedule_asap, schedule_ilp};

/// A random DAG: `n` operations, each with edges from a random subset of
/// earlier operations, random operator characteristics, and a random
/// cycle-time budget.
#[derive(Debug, Clone)]
struct RandomProblem {
    ops: Vec<(u32, u32, u32, Option<u32>)>, // (latency, delay_tenths, earliest, latest)
    edges: Vec<(usize, usize)>,
    cycle_tenths: u32,
}

fn random_problem() -> impl Strategy<Value = RandomProblem> {
    (2usize..=14).prop_flat_map(|n| {
        let ops = proptest::collection::vec(
            (
                0u32..=2,                                   // latency
                0u32..=10,                                  // delay in tenths
                0u32..=3,                                   // earliest
                proptest::option::weighted(0.3, 4u32..=20), // latest
            ),
            n,
        );
        let edges =
            proptest::collection::vec((0usize..n, 0usize..n), 0..=2 * n).prop_map(move |pairs| {
                pairs
                    .into_iter()
                    .filter(|(a, b)| a < b) // acyclic by construction
                    .collect::<Vec<_>>()
            });
        (ops, edges, 12u32..=40).prop_map(|(ops, edges, cycle_tenths)| RandomProblem {
            ops,
            edges,
            cycle_tenths,
        })
    })
}

fn build(rp: &RandomProblem) -> LongnailProblem {
    let mut p = LongnailProblem {
        cycle_time: rp.cycle_tenths as f64 / 10.0,
        ..LongnailProblem::default()
    };
    for (i, &(latency, delay_tenths, earliest, latest)) in rp.ops.iter().enumerate() {
        let delay = (delay_tenths as f64 / 10.0).min(rp.cycle_tenths as f64 / 10.0);
        let mut ot = OperatorType::sequential(&format!("t{i}"), latency, delay);
        ot.earliest = earliest;
        ot.latest = latest.map(|l| l.max(earliest));
        let tid = p.add_operator_type(ot);
        p.add_operation(&format!("op{i}"), tid);
    }
    for &(a, b) in &rp.edges {
        p.add_dependence(
            sched::problem::OperationId(a),
            sched::problem::OperationId(b),
        );
    }
    p
}

fn objective(p: &LongnailProblem, s: &Schedule) -> u64 {
    let starts: u64 = s.start_time.iter().map(|&t| t as u64).sum();
    let lifetimes: u64 = p
        .dependences
        .iter()
        .map(|d| (s.start_time[d.to.0] - s.start_time[d.from.0]) as u64)
        .sum();
    starts + lifetimes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whenever the ILP finds a schedule, it satisfies all three constraint
    /// levels of Table 2.
    #[test]
    fn ilp_schedules_verify(rp in random_problem()) {
        let mut p = build(&rp);
        if let Ok(s) = schedule_ilp(&mut p) {
            p.verify(&s).unwrap();
        }
    }

    /// ASAP solutions also verify, and the ILP is never worse on the
    /// Figure 7 objective.
    #[test]
    fn ilp_objective_never_worse_than_asap(rp in random_problem()) {
        let mut p_asap = build(&rp);
        let mut p_ilp = build(&rp);
        // Chain breakers are part of the ILP model; give ASAP the same
        // problem (it handles chaining natively).
        #[allow(clippy::single_match)]
        match (schedule_asap(&mut p_asap), schedule_ilp(&mut p_ilp)) {
            (Ok(a), Ok(i)) => {
                p_asap.verify(&a).unwrap();
                p_ilp.verify(&i).unwrap();
                // The initial breakers are satisfied by the ASAP schedule
                // (they are derived from the same timeline), so the ILP can
                // only be worse when the lazy repair loop added further
                // breakers — constraints ASAP never faced. Compare only
                // when no repair happened.
                let mut p_initial = build(&rp);
                sched::chain::compute_chain_breakers(&mut p_initial).unwrap();
                if p_ilp.chain_breakers.len() == p_initial.chain_breakers.len() {
                    prop_assert!(
                        objective(&p_ilp, &i) <= objective(&p_asap, &a),
                        "ILP {} vs ASAP {}",
                        objective(&p_ilp, &i),
                        objective(&p_asap, &a)
                    );
                }
            }
            // Feasibility may legitimately differ: ASAP is greedy and can
            // miss schedules that require delaying early ops, and chain
            // breakers add constraints ASAP does not have. Either solver
            // failing alone is acceptable; both failing is fine too.
            _ => {}
        }
    }

    /// Makespan lower bound: no schedule beats the critical path.
    #[test]
    fn makespan_respects_critical_path(rp in random_problem()) {
        let mut p = build(&rp);
        if let Ok(s) = schedule_ilp(&mut p) {
            // Longest path in whole cycles (latencies only).
            let n = p.operations.len();
            let mut dist = vec![0u32; n];
            // Edges only go from lower to higher index, so processing them
            // sorted by source is a topological relaxation.
            let mut deps = p.dependences.clone();
            deps.sort_by_key(|d| d.from.0);
            for d in &deps {
                let lat = p.lot(d.from).latency;
                let v = dist[d.from.0] + lat;
                if v > dist[d.to.0] {
                    dist[d.to.0] = v;
                }
            }
            for (i, &d) in dist.iter().enumerate() {
                prop_assert!(
                    s.start_time[i] >= d.max(p.lot(sched::problem::OperationId(i)).earliest)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Resilience: an arbitrarily tiny work budget never panics. The
    /// outcome either verifies against every Table 2 constraint level
    /// (exact or degraded), or the problem is genuinely infeasible — in
    /// which case the ASAP fallback on a fresh copy fails too.
    #[test]
    fn tiny_budget_never_panics_and_fallback_verifies(
        rp in random_problem(),
        limit in 0u64..300,
    ) {
        let mut p = build(&rp);
        match sched::schedule_resilient(&mut p, &sched::Budget::new(limit)) {
            Ok(out) => {
                p.verify(&out.schedule).unwrap();
                if let Some(d) = &out.degradation {
                    prop_assert!(d.work_used <= d.work_limit);
                }
            }
            Err(_) => {
                let mut fresh = build(&rp);
                let fallback = schedule_asap(&mut fresh)
                    .and_then(|s| fresh.verify(&s).map(|_| s));
                prop_assert!(
                    fallback.is_err(),
                    "resilient errored on a problem the fallback solves"
                );
            }
        }
    }

    /// No happy-path change: with the default budget the resilient facade
    /// takes the exact path and returns the identical schedule to the
    /// plain ILP entry point.
    #[test]
    fn default_budget_matches_exact_schedule(rp in random_problem()) {
        let mut p_exact = build(&rp);
        let mut p_res = build(&rp);
        let exact = schedule_ilp(&mut p_exact);
        let resilient = sched::schedule_resilient(&mut p_res, &sched::Budget::default());
        match (exact, resilient) {
            (Ok(a), Ok(out)) => {
                prop_assert!(out.is_exact());
                prop_assert_eq!(&a.start_time, &out.schedule.start_time);
                prop_assert_eq!(
                    &a.start_time_in_cycle,
                    &out.schedule.start_time_in_cycle
                );
            }
            // The ILP can be infeasible (breaker over-constraint) where the
            // fallback still finds a valid schedule; that is a degradation.
            (Err(_), Ok(out)) => prop_assert!(!out.is_exact()),
            (Ok(_), Err(e)) => prop_assert!(
                false,
                "resilient failed where exact succeeded: {}",
                e
            ),
            (Err(_), Err(_)) => {}
        }
    }
}
