//! Property tests: the difference solver against brute-force enumeration
//! of small systems with bounded windows.
//!
//! Every variable has a finite window, so the integer grid is finite and
//! the enumeration sees every feasible point. The solver must agree with
//! it on feasibility, on the optimal objective, and on the tie-break: its
//! answer is the componentwise minimum of all optimal points.

use ilp::{Budget, DiffSystem, SolveError};
use proptest::prelude::*;

/// A small random system: up to 6 variables with windows of width ≤ 3
/// starting in [0, 2], and up to 8 arcs between any two variables (cycles
/// and self-loops included) with gaps in [-3, 3].
#[derive(Debug, Clone)]
struct SmallSystem {
    vars: Vec<(i64, i64, i64)>, // (weight, lower, upper)
    arcs: Vec<(usize, usize, i64)>,
}

fn small_system() -> impl Strategy<Value = SmallSystem> {
    (1usize..=6).prop_flat_map(|n| {
        (
            proptest::collection::vec((-3i64..=3, 0i64..=2, 0i64..=3), n),
            proptest::collection::vec((0usize..n, 0usize..n, -3i64..=3), 0..=8),
        )
            .prop_map(|(vars, arcs)| SmallSystem {
                vars: vars
                    .into_iter()
                    .map(|(w, lower, width)| (w, lower, lower + width))
                    .collect(),
                arcs,
            })
    })
}

fn build(s: &SmallSystem) -> DiffSystem {
    let mut sys = DiffSystem::new();
    for &(w, lower, upper) in &s.vars {
        sys.var(w, lower, Some(upper));
    }
    for &(from, to, gap) in &s.arcs {
        sys.arc(from, to, gap);
    }
    sys
}

/// The exhaustive answer: `None` when no grid point is feasible, else the
/// optimal objective and the componentwise minimum of all optimal points.
/// Every grid point is inside the windows, so only the arcs can reject it.
fn brute_force(s: &SmallSystem) -> Option<(i64, Vec<i64>)> {
    let mut point: Vec<i64> = s.vars.iter().map(|v| v.1).collect();
    let mut best: Option<(i64, Vec<i64>)> = None;
    loop {
        let feasible = s
            .arcs
            .iter()
            .all(|&(from, to, gap)| point[to] - point[from] >= gap);
        if feasible {
            let obj: i64 = s.vars.iter().zip(&point).map(|(v, t)| v.0 * t).sum();
            best = match best {
                Some((b, least)) if b < obj => Some((b, least)),
                Some((b, least)) if b == obj => Some((
                    b,
                    least.iter().zip(&point).map(|(&x, &y)| x.min(y)).collect(),
                )),
                _ => Some((obj, point.clone())),
            };
        }
        // Odometer step over the windows.
        let mut i = 0;
        loop {
            if i == point.len() {
                return best;
            }
            if point[i] < s.vars[i].2 {
                point[i] += 1;
                break;
            }
            point[i] = s.vars[i].1;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn solver_matches_brute_force(s in small_system()) {
        let sys = build(&s);
        match (sys.solve(&Budget::unlimited()), brute_force(&s)) {
            (Ok(sol), Some((best, least))) => {
                prop_assert_eq!(sol.objective, best, "objective (brute force: {})", best);
                prop_assert_eq!(sol.values, least, "not the least optimum");
            }
            (Err(SolveError::Infeasible), None) => {}
            (Ok(sol), None) => {
                prop_assert!(false, "solver found {:?} but the grid has no feasible point", sol.values);
            }
            (Err(e), brute) => {
                prop_assert!(false, "solver said {} but brute force found {:?}", e, brute);
            }
        }
    }

    /// Every limit below what a solve needs — 0, half, and needed − 1 —
    /// fails with a typed `Exhausted`, never a panic or a wrong answer:
    /// the contract the scheduler's ASAP fallback relies on.
    #[test]
    fn budget_exhaustion_is_typed(s in small_system()) {
        let sys = build(&s);
        let full = Budget::unlimited();
        let outcome = sys.solve(&full);
        prop_assume!(outcome.is_ok());
        let needed = full.used();
        prop_assert!(needed > 0);
        for limit in [0, needed / 2, needed - 1] {
            match sys.solve(&Budget::new(limit)) {
                Err(SolveError::Exhausted(e)) => prop_assert_eq!(e.limit, limit),
                other => prop_assert!(false, "limit {limit}: unexpected {other:?}"),
            }
        }
    }
}
