//! The exact solver for difference systems.
//!
//! A [`DiffSystem`] is `minimize Σ w_i·t_i` over integer `t`, subject to
//! per-variable bounds `lower_i <= t_i <= upper_i` and difference arcs
//! `t_j − t_i >= gap`. Its constraint matrix is totally unimodular and
//! the LP dual is a min-cost flow, so the LP optimum is integral and is
//! found exactly in `i64` on a spanning tree of tight arcs.
//!
//! # Algorithm
//!
//! The arcs live on a graph with one node per variable plus a root `r`
//! pinned at `t_r = 0`. Bounds become root arcs: `r → i` with gap
//! `lower_i`, and `i → r` with gap `−upper_i`. The solve runs in four
//! steps:
//!
//! 1. **Start at ASAP.** Longest paths from `r` over the arcs that do not
//!    enter `r` give the least feasible point. If it breaks an upper
//!    bound, or a positive cycle keeps raising it, the system is
//!    infeasible. The first tree is grown from `r` over tight arcs in arc
//!    order (for acyclic systems listed in topological order, that is each
//!    variable's lowest-index tight incoming arc).
//! 2. **Pivot.** A tree arc's flow is the weight of the subtree below it.
//!    While some tree arc carries negative flow, the lowest-index one
//!    leaves: its subtree shifts (up if the arc enters the subtree, down
//!    otherwise) by the least slack among the non-tree arcs the shift
//!    tightens, and that arc enters, lowest index on ties (Bland's rule,
//!    so the pivots cannot cycle). No such arc means the objective is
//!    unbounded.
//! 3. **Least optimum.** With every positive-flow arc held tight, longest
//!    paths are relaxed upward from ASAP until nothing changes. The
//!    optimal set of a difference system is closed under componentwise
//!    min, so this point — the least optimum — is unique: it does not
//!    depend on the pivot order, only on the system.
//! 4. **Certificate.** In `i64`, the flow must be non-negative and meet
//!    every variable's weight, every positive-flow arc must be tight, and
//!    every arc must hold. That proves optimality by complementary
//!    slackness; a failure is a solver fault, reported as
//!    [`SolveError::Uncertified`] rather than returned as an answer.
//!
//! Every pivot is charged as [`WorkKind::Pivot`], and every started
//! batch of [`RELAX_BATCH`] arc relaxations in steps 1 and 3 as
//! [`WorkKind::Presolve`].

use crate::budget::{Budget, Exhausted, WorkKind};
use crate::csr::Csr;
use std::collections::VecDeque;
use std::fmt;

/// Arc relaxations per [`WorkKind::Presolve`] charge.
pub const RELAX_BATCH: u64 = 32;

/// A difference arc: `t[to] − t[from] >= gap`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Arc {
    from: usize,
    to: usize,
    gap: i64,
}

/// Why solving failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No point satisfies the bounds and arcs.
    Infeasible,
    /// The objective decreases without bound over the feasible region.
    Unbounded,
    /// The work budget ran out before the solve finished. The system may
    /// still be feasible; callers should fall back to a cheaper algorithm.
    Exhausted(Exhausted),
    /// The optimality certificate failed: a solver fault, not a property
    /// of the system.
    Uncertified(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("system is infeasible"),
            SolveError::Unbounded => f.write_str("objective is unbounded"),
            SolveError::Exhausted(e) => e.fmt(f),
            SolveError::Uncertified(m) => write!(f, "optimality certificate failed: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<Exhausted> for SolveError {
    fn from(e: Exhausted) -> Self {
        SolveError::Exhausted(e)
    }
}

/// The least optimal point of a [`DiffSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// One value per variable, in declaration order.
    pub values: Vec<i64>,
    /// `Σ w_i·t_i` at `values`.
    pub objective: i64,
}

/// `minimize Σ w_i·t_i` subject to bounds and difference arcs, over
/// integers. Magnitudes must keep every path sum within `i64`.
#[derive(Debug, Clone, Default)]
pub struct DiffSystem {
    weight: Vec<i64>,
    lower: Vec<i64>,
    upper: Vec<Option<i64>>,
    arcs: Vec<Arc>,
}

impl DiffSystem {
    /// An empty system.
    pub fn new() -> Self {
        DiffSystem::default()
    }

    /// Adds a variable with objective weight `weight` and bounds
    /// `lower <= t <= upper` (`None`: no upper bound); returns its index.
    pub fn var(&mut self, weight: i64, lower: i64, upper: Option<i64>) -> usize {
        self.weight.push(weight);
        self.lower.push(lower);
        self.upper.push(upper);
        self.weight.len() - 1
    }

    /// Adds the arc `t[to] − t[from] >= gap`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a declared variable.
    pub fn arc(&mut self, from: usize, to: usize, gap: i64) {
        let n = self.weight.len();
        assert!(
            from < n && to < n,
            "arc {from} -> {to} over {n} variable(s)"
        );
        self.arcs.push(Arc { from, to, gap });
    }

    /// Finds the least optimal point; see the [module docs](self).
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] or [`SolveError::Unbounded`] describe
    /// the system; [`SolveError::Exhausted`] means `budget` ran out first;
    /// [`SolveError::Uncertified`] is a solver fault.
    pub fn solve(&self, budget: &Budget) -> Result<Solution, SolveError> {
        let n = self.weight.len();
        let root = n;
        let arcs = self.graph_arcs();
        let mut meter = Meter {
            budget,
            relaxations: 0,
        };

        // 1. ASAP start: the least feasible point.
        let mut asap = with_root(&self.lower);
        if !meter.relax(&arcs, &[], root, &mut asap)? {
            return Err(SolveError::Infeasible);
        }
        if arcs.iter().any(|a| a.to == root && -asap[a.from] < a.gap) {
            return Err(SolveError::Infeasible);
        }
        let weight = with_root(&self.weight);
        let mut tree = Tree::grow(&arcs, &asap, root);

        // 2. Pivot until every tree arc's flow is non-negative.
        let mut t = asap.clone();
        let mut in_subtree = vec![false; n + 1];
        loop {
            tree.index(&arcs, &weight, root);
            let leaving = (0..n)
                .filter(|&v| tree.flow(&arcs, v) < 0)
                .min_by_key(|&v| tree.parent[v]);
            let Some(v) = leaving else { break };
            budget.charge(WorkKind::Pivot)?;
            let subtree = tree.subtree(v);
            for &u in subtree {
                in_subtree[u] = true;
            }
            // An arc entering the subtree leaves by lifting it; one leaving
            // it, by lowering it. Either way the shift tightens the arcs
            // that cross the cut in the leaving arc's opposite direction.
            let up = arcs[tree.parent[v]].to == v;
            let mut entering: Option<(usize, i64)> = None;
            for (k, a) in arcs.iter().enumerate() {
                let crosses = if up {
                    in_subtree[a.from] && !in_subtree[a.to]
                } else {
                    !in_subtree[a.from] && in_subtree[a.to]
                };
                let slack = t[a.to] - t[a.from] - a.gap;
                if crosses && entering.is_none_or(|(_, s)| slack < s) {
                    entering = Some((k, slack));
                }
            }
            let Some((k, slack)) = entering else {
                return Err(SolveError::Unbounded);
            };
            let shift = if up { slack } else { -slack };
            for &u in subtree {
                t[u] += shift;
                in_subtree[u] = false;
            }
            tree.replace(tree.parent[v], k);
        }
        let mut flow = vec![0i64; arcs.len()];
        for v in 0..n {
            flow[tree.parent[v]] = tree.flow(&arcs, v);
        }

        // 3. Least optimum: hold the positive-flow arcs tight and relax
        //    upward from ASAP. Only tree arcs carry flow, so at most `n`.
        let mut tight = Vec::with_capacity(n);
        tight.extend(
            arcs.iter()
                .zip(&flow)
                .filter(|&(_, &f)| f > 0)
                .map(|(a, _)| Arc {
                    from: a.to,
                    to: a.from,
                    gap: -a.gap,
                }),
        );
        let mut least = asap;
        if !meter.relax(&arcs, &tight, root, &mut least)? {
            return Err(SolveError::Uncertified(
                "the optimal face has no least point".into(),
            ));
        }

        // 4. Certificate.
        certify(&arcs, &flow, &weight, &least, root)?;
        least.pop();
        Ok(Solution {
            objective: self.weight.iter().zip(&least).map(|(w, t)| w * t).sum(),
            values: least,
        })
    }

    /// The solver's arc list: root arcs for the lower bounds, then for the
    /// upper bounds, then the user's arcs in insertion order. Arc indices
    /// into this list are the tie-breaking order.
    fn graph_arcs(&self) -> Vec<Arc> {
        let root = self.weight.len();
        let lower = self.lower.iter().enumerate().map(|(i, &l)| Arc {
            from: root,
            to: i,
            gap: l,
        });
        let upper = self.upper.iter().enumerate().filter_map(|(i, u)| {
            u.map(|u| Arc {
                from: i,
                to: root,
                gap: -u,
            })
        });
        let mut arcs = Vec::with_capacity(2 * root + self.arcs.len());
        arcs.extend(lower.chain(upper).chain(self.arcs.iter().copied()));
        arcs
    }
}

/// `values` with the root's 0 appended, allocated once.
fn with_root(values: &[i64]) -> Vec<i64> {
    let mut v = Vec::with_capacity(values.len() + 1);
    v.extend_from_slice(values);
    v.push(0);
    v
}

/// Charges arc relaxations against the budget in batches.
struct Meter<'a> {
    budget: &'a Budget,
    relaxations: u64,
}

impl Meter<'_> {
    /// Raises `t` to the least point `>= t` that satisfies every arc of
    /// `arcs` and `extra` not entering `root` (longest paths by FIFO label
    /// correcting: a node's out-arcs are relaxed again only after its own
    /// value rose; its out-arcs are one flat list in arc order, `arcs`
    /// then `extra`). Returns `false` if a positive cycle keeps raising `t`:
    /// a value set by a walk of as many arcs as there are nodes repeats a
    /// node, and only a positive cycle can have raised it on the way round.
    fn relax(
        &mut self,
        arcs: &[Arc],
        extra: &[Arc],
        root: usize,
        t: &mut [i64],
    ) -> Result<bool, Exhausted> {
        let nodes = t.len();
        let live = arcs.iter().chain(extra).filter(|a| a.to != root);
        let out = Csr::new(nodes, live.map(|a| (a.from, *a)));
        let mut hops = vec![0usize; nodes];
        let mut queued = vec![true; nodes];
        let mut queue: VecDeque<usize> = std::iter::once(root).chain(0..root).collect();
        while let Some(u) = queue.pop_front() {
            queued[u] = false;
            for a in out.of(u) {
                if self.relaxations.is_multiple_of(RELAX_BATCH) {
                    self.budget.charge(WorkKind::Presolve)?;
                }
                self.relaxations += 1;
                let reach = t[u] + a.gap;
                if reach > t[a.to] {
                    t[a.to] = reach;
                    hops[a.to] = hops[u] + 1;
                    if hops[a.to] >= nodes {
                        return Ok(false);
                    }
                    if !queued[a.to] {
                        queued[a.to] = true;
                        queue.push_back(a.to);
                    }
                }
            }
        }
        Ok(true)
    }
}

/// A spanning tree of tight arcs, rooted at the root node, with the
/// per-node order and subtree weights of its last [`Tree::index`].
struct Tree {
    /// The tree's arcs, one per non-root node.
    arcs: Vec<usize>,
    /// Each node's arc towards the root (unused for the root itself).
    parent: Vec<usize>,
    /// Preorder from the root; a subtree is a contiguous run of it.
    order: Vec<usize>,
    pos: Vec<usize>,
    size: Vec<usize>,
    /// Total weight of each node's subtree.
    demand: Vec<i64>,
    /// Each node's tree arcs; rebuilt in place by every index.
    adjacent: Csr<usize>,
    /// The preorder walk's stack, kept so that indexing allocates nothing.
    stack: Vec<usize>,
}

impl Tree {
    /// Grows the first tree from `root`, attaching each node by the first
    /// tight arc, in arc order, that reaches it from the tree.
    fn grow(arcs: &[Arc], t: &[i64], root: usize) -> Tree {
        let nodes = t.len();
        let mut reached = vec![false; nodes];
        reached[root] = true;
        let mut tree = Vec::with_capacity(nodes - 1);
        while tree.len() + 1 < nodes {
            let before = tree.len();
            for (k, a) in arcs.iter().enumerate() {
                if reached[a.from] && !reached[a.to] && t[a.to] - t[a.from] == a.gap {
                    reached[a.to] = true;
                    tree.push(k);
                }
            }
            assert!(
                tree.len() > before,
                "ASAP point is not spanned by tight arcs"
            );
        }
        Tree {
            arcs: tree,
            parent: vec![usize::MAX; nodes],
            order: Vec::with_capacity(nodes),
            pos: vec![0; nodes],
            size: vec![0; nodes],
            demand: vec![0; nodes],
            adjacent: Csr::default(),
            stack: Vec::with_capacity(nodes),
        }
    }

    /// Recomputes parents, preorder, subtree sizes and subtree weights,
    /// in O(nodes + arcs).
    fn index(&mut self, arcs: &[Arc], weight: &[i64], root: usize) {
        let ends = self
            .arcs
            .iter()
            .flat_map(|&k| [(arcs[k].from, k), (arcs[k].to, k)]);
        self.adjacent.fill(weight.len(), ends);
        self.order.clear();
        self.parent[root] = usize::MAX;
        self.stack.push(root);
        while let Some(v) = self.stack.pop() {
            self.pos[v] = self.order.len();
            self.order.push(v);
            for &k in self.adjacent.of(v).iter().rev() {
                if k != self.parent[v] {
                    let child = if arcs[k].from == v {
                        arcs[k].to
                    } else {
                        arcs[k].from
                    };
                    self.parent[child] = k;
                    self.stack.push(child);
                }
            }
        }
        debug_assert_eq!(self.order.len(), weight.len(), "tree does not span");
        for &v in self.order.iter().rev() {
            self.size[v] = 1;
            self.demand[v] = weight[v];
        }
        for &v in self.order.iter().skip(1).rev() {
            let a = arcs[self.parent[v]];
            let up = if a.to == v { a.from } else { a.to };
            self.size[up] += self.size[v];
            self.demand[up] += self.demand[v];
        }
    }

    /// Flow on `v`'s parent arc: the weight its subtree must receive,
    /// signed by the arc's direction.
    fn flow(&self, arcs: &[Arc], v: usize) -> i64 {
        if arcs[self.parent[v]].to == v {
            self.demand[v]
        } else {
            -self.demand[v]
        }
    }

    /// The nodes of `v`'s subtree.
    fn subtree(&self, v: usize) -> &[usize] {
        &self.order[self.pos[v]..self.pos[v] + self.size[v]]
    }

    fn replace(&mut self, leaving: usize, entering: usize) {
        let slot = self.arcs.iter().position(|&k| k == leaving).unwrap();
        self.arcs[slot] = entering;
    }
}

/// Checks the optimality certificate of `t` in exact integers: `flow` is
/// non-negative, meets every non-root node's weight, and is carried only
/// by tight arcs, and `t` satisfies every arc.
fn certify(
    arcs: &[Arc],
    flow: &[i64],
    weight: &[i64],
    t: &[i64],
    root: usize,
) -> Result<(), SolveError> {
    let fail = |m: String| Err(SolveError::Uncertified(m));
    let mut net = vec![0i64; t.len()];
    for (k, (a, &f)) in arcs.iter().zip(flow).enumerate() {
        let slack = t[a.to] - t[a.from] - a.gap;
        if f < 0 {
            return fail(format!("arc {k} carries negative flow {f}"));
        }
        if slack < 0 {
            return fail(format!("arc {k} is violated by {}", -slack));
        }
        if f > 0 && slack > 0 {
            return fail(format!("arc {k} carries flow {f} but has slack {slack}"));
        }
        net[a.to] += f;
        net[a.from] -= f;
    }
    if t[root] != 0 {
        return fail(format!("the root moved to {}", t[root]));
    }
    match (0..root).find(|&v| net[v] != weight[v]) {
        Some(v) => fail(format!(
            "variable {v} receives flow {} for weight {}",
            net[v], weight[v]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(sys: &DiffSystem) -> Result<Solution, SolveError> {
        sys.solve(&Budget::unlimited())
    }

    #[test]
    fn empty_system_solves() {
        let s = solve(&DiffSystem::new()).unwrap();
        assert!(s.values.is_empty());
        assert_eq!(s.objective, 0);
    }

    #[test]
    fn asap_is_optimal_for_positive_weights() {
        // a -> b -> c with gaps 2 and 1, all weights positive: no pivots.
        let mut sys = DiffSystem::new();
        let a = sys.var(1, 0, None);
        let b = sys.var(1, 1, None);
        let c = sys.var(1, 0, None);
        sys.arc(a, b, 2);
        sys.arc(b, c, 1);
        let budget = Budget::unlimited();
        let s = sys.solve(&budget).unwrap();
        assert_eq!(s.values, vec![0, 2, 3]);
        assert_eq!(s.objective, 5);
        assert_eq!(budget.count(WorkKind::Pivot), 0);
        assert!(budget.count(WorkKind::Presolve) > 0);
    }

    #[test]
    fn negative_weight_pulls_a_producer_to_its_consumers() {
        // The scheduler's lifetime folding: a producer with two consumers
        // pinned at 5 has weight 1 − 2 = −1, so it moves up to them.
        let mut sys = DiffSystem::new();
        let p = sys.var(-1, 0, None);
        let c1 = sys.var(2, 5, Some(5));
        let c2 = sys.var(2, 5, Some(5));
        sys.arc(p, c1, 0);
        sys.arc(p, c2, 0);
        let budget = Budget::unlimited();
        let s = sys.solve(&budget).unwrap();
        assert_eq!(s.values, vec![5, 5, 5]);
        assert_eq!(budget.count(WorkKind::Pivot), 1);
    }

    #[test]
    fn ties_resolve_to_the_least_optimum() {
        // Weight 0 leaves `x` free anywhere in [1, 4]: the least optimum
        // takes 1.
        let mut sys = DiffSystem::new();
        let x = sys.var(0, 1, Some(4));
        let y = sys.var(1, 0, None);
        sys.arc(x, y, 0);
        assert_eq!(solve(&sys).unwrap().values, vec![1, 1]);
    }

    #[test]
    fn broken_upper_bound_is_infeasible() {
        let mut sys = DiffSystem::new();
        let a = sys.var(1, 3, Some(4));
        let b = sys.var(1, 0, Some(1));
        sys.arc(a, b, 0);
        assert_eq!(solve(&sys), Err(SolveError::Infeasible));
    }

    #[test]
    fn positive_cycle_is_infeasible() {
        let mut sys = DiffSystem::new();
        let a = sys.var(1, 0, None);
        let b = sys.var(1, 0, None);
        sys.arc(a, b, 1);
        sys.arc(b, a, 0);
        assert_eq!(solve(&sys), Err(SolveError::Infeasible));
    }

    #[test]
    fn zero_cycles_express_equalities() {
        let mut sys = DiffSystem::new();
        let a = sys.var(1, 2, None);
        let b = sys.var(1, 0, None);
        sys.arc(a, b, 3);
        sys.arc(b, a, -3);
        assert_eq!(solve(&sys).unwrap().values, vec![2, 5]);
    }

    #[test]
    fn unbounded_objective_is_reported() {
        let mut sys = DiffSystem::new();
        let a = sys.var(-1, 0, None);
        let b = sys.var(0, 0, Some(9));
        sys.arc(b, a, 0);
        assert_eq!(solve(&sys), Err(SolveError::Unbounded));
    }

    #[test]
    fn exhaustion_is_typed() {
        let mut sys = DiffSystem::new();
        let a = sys.var(-1, 0, None);
        let b = sys.var(2, 4, Some(4));
        sys.arc(a, b, 1);
        let err = sys.solve(&Budget::new(0)).unwrap_err();
        assert!(matches!(err, SolveError::Exhausted(e) if e.at == WorkKind::Presolve));
    }

    #[test]
    fn certificate_rejects_a_suboptimal_point() {
        let arcs = [Arc {
            from: 1,
            to: 0,
            gap: 0,
        }];
        // Node 0 wants flow 1; the only arc carries 1 but is slack at t.
        let err = certify(&arcs, &[1], &[1, 0], &[2, 0], 1).unwrap_err();
        assert!(matches!(err, SolveError::Uncertified(m) if m.contains("slack")));
    }
}
