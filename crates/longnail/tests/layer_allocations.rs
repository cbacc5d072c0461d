//! SystemVerilog emission, the netlist lint, the scheduler's graph walks,
//! the copy of a scheduling problem, the LIL verifier and a cache replay
//! allocate per module, per problem or per unit, never per net or per
//! operation. A counting allocator checks that `emit_verilog`,
//! `lint_module` and `comb_depth` allocate as often on a module with twice
//! the nets; that `topological_order`, `compute_chain_breakers`,
//! `compute_stic`, `DiffSystem::solve` and `LongnailProblem::clone`
//! allocate as often on a problem with twice the operations; and that
//! `verify_graph` and a warm `compile_cell` allocate as often on a graph
//! with twice the operations.

use bits::ApInt;
use ilp::{Budget, DiffSystem, WorkKind};
use ir::lil::{Graph, GraphKind, LilModule, Op, OpKind, ValueId};
use longnail::driver::builtin_datasheet;
use longnail::{Longnail, PipelineCache};
use rtl::lint::{comb_depth, lint_module};
use rtl::netlist::{CombOp, Driver, Module, NetId, PortDir, RomData};
use rtl::verilog::emit_verilog;
use sched::problem::{LongnailProblem, OperationId, OperatorType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; its allocations are
    // not the ones measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `blocks` copies of a block that uses every driver: inputs, constants,
/// every combinational operator (division included), the three ROM read
/// forms, registers with and without an enable, and unnamed and
/// sanitized net names.
fn netlist(blocks: usize) -> Module {
    let mut m = Module::new("scaled");
    m.add_port("clk", PortDir::Input, 1);
    m.add_port("rst", PortDir::Input, 1);
    let pa = m.add_port("a", PortDir::Input, 32);
    let pb = m.add_port("b", PortDir::Input, 32);
    let pc = m.add_port("c", PortDir::Input, 1);
    let a = m.add_net(Driver::Input { port: pa }, 32, "a");
    let b = m.add_net(Driver::Input { port: pb }, 32, "b");
    let c = m.add_net(Driver::Input { port: pc }, 1, "");
    let binops = [
        CombOp::Add,
        CombOp::Sub,
        CombOp::Mul,
        CombOp::DivU,
        CombOp::DivS,
        CombOp::RemU,
        CombOp::RemS,
        CombOp::And,
        CombOp::Or,
        CombOp::Xor,
        CombOp::Shl,
        CombOp::ShrU,
        CombOp::ShrS,
    ];
    let compares = [
        CombOp::Eq,
        CombOp::Ne,
        CombOp::Ult,
        CombOp::Ule,
        CombOp::Slt,
        CombOp::Sle,
    ];
    for j in 0..blocks {
        let comb = |m: &mut Module, op, args: &[NetId], lo, width, name: &str| {
            let args = args.to_vec();
            m.add_net(Driver::Comb { op, args, lo }, width, name)
        };
        let k = m.add_net(Driver::Const(ApInt::from_u64(j as u64, 32)), 32, "k");
        let mut last = a;
        for op in binops {
            last = comb(&mut m, op, &[last, k], 0, 32, &format!("blk.{j}[{op:?}]"));
        }
        for op in compares {
            comb(&mut m, op, &[last, b], 0, 1, "");
        }
        let not = comb(&mut m, CombOp::Not, &[last], 0, 32, "not");
        let mux = comb(&mut m, CombOp::Mux, &[c, not, b], 0, 32, "mux");
        let cat = comb(&mut m, CombOp::Concat, &[mux, a], 0, 64, "cat");
        comb(&mut m, CombOp::Replicate, &[c], 4, 4, "rep");
        let idx = comb(&mut m, CombOp::Extract, &[cat], 3, 2, "idx");
        comb(&mut m, CombOp::Extract, &[cat], 7, 1, "bit");
        comb(&mut m, CombOp::ExtractDyn, &[cat, idx], 0, 8, "dyn");
        comb(&mut m, CombOp::ZExt, &[idx], 0, 2, "zsame");
        comb(&mut m, CombOp::ZExt, &[idx], 0, 9, "zext");
        comb(&mut m, CombOp::SExt, &[idx], 0, 2, "ssame");
        comb(&mut m, CombOp::SExt, &[idx], 0, 9, "sext");
        comb(&mut m, CombOp::Trunc, &[cat], 0, 16, "trunc");
        comb(&mut m, CombOp::Trunc, &[cat], 0, 1, "");
        let rom = m.roms.len();
        for (name, len) in [("guarded", 3u64), ("full", 4), ("none", 0)] {
            let contents = (0..len).map(|v| ApInt::from_u64(v + 5, 8)).collect();
            m.roms.push(RomData {
                name: name.into(),
                width: 8,
                contents,
            });
        }
        for r in 0..3 {
            m.add_net(
                Driver::Rom {
                    rom: rom + r,
                    index: idx,
                },
                8,
                "rd",
            );
        }
        let next = m.add_net(
            Driver::Reg {
                next: mux,
                enable: Some(c),
                init: ApInt::from_u64(0x5a, 32),
            },
            32,
            "pipe",
        );
        let held = m.add_net(
            Driver::Reg {
                next,
                enable: None,
                init: ApInt::zero(32),
            },
            32,
            "",
        );
        let out = m.add_port(&format!("o{j}"), PortDir::Output, 32);
        m.connect_output(out, held);
    }
    m
}

#[test]
fn emission_allocates_per_module_not_per_net() {
    let (small, large) = (netlist(40), netlist(80));
    assert!(large.nets.len() >= 2 * small.nets.len() - 3);
    let (once, twice) = (
        allocations(|| drop(emit_verilog(&small))),
        allocations(|| drop(emit_verilog(&large))),
    );
    assert!(
        twice <= once,
        "emit_verilog: {} nets allocate {once} times, {} nets {twice}",
        small.nets.len(),
        large.nets.len()
    );
}

#[test]
fn lint_and_depth_allocate_per_module_not_per_net() {
    let (small, large) = (netlist(40), netlist(80));
    let lint = |m: &Module| lint_module(m).expect("the scaled netlist lints clean");
    let depth = |m: &Module| assert!(comb_depth(m) > 1);
    let counts = [
        (
            "lint_module",
            allocations(|| lint(&small)),
            allocations(|| lint(&large)),
        ),
        (
            "comb_depth",
            allocations(|| depth(&small)),
            allocations(|| depth(&large)),
        ),
    ];
    for (layer, once, twice) in counts {
        assert!(
            twice <= once,
            "{layer}: {} nets allocate {once} times, {} nets {twice}",
            small.nets.len(),
            large.nets.len()
        );
    }
}

/// `blocks` copies of a scheduling block: an interface read feeding a
/// chain of adders too long for one cycle (chain breakers) with a
/// multi-cycle multiplier beside it, and an adder with three consumers
/// pinned at a late window (a negative folded weight, so the solver
/// pivots).
fn problem(blocks: usize) -> LongnailProblem {
    let mut p = LongnailProblem {
        cycle_time: 2.5,
        ..LongnailProblem::default()
    };
    let read = p.add_operator_type(
        OperatorType::combinational("lil.read_rs1", 0.0).with_window(1, Some(4)),
    );
    let add = p.add_operator_type(OperatorType::combinational("comb.add", 1.0));
    let mul = p.add_operator_type(OperatorType::sequential("comb.mul", 1, 1.0));
    let sink = p.add_operator_type(
        OperatorType::combinational("lil.write_rd", 0.0).with_window(8, Some(8)),
    );
    for _ in 0..blocks {
        let mut last = p.add_operation("read", read);
        let mut chain = Vec::new();
        for _ in 0..5 {
            let next = p.add_operation("add", add);
            p.add_dependence(last, next);
            chain.push(next);
            last = next;
        }
        let m = p.add_operation("mul", mul);
        p.add_dependence(chain[1], m);
        p.add_dependence(m, last);
        let fan = p.add_operation("fan", add);
        p.add_dependence(last, fan);
        for _ in 0..3 {
            let s = p.add_operation("write", sink);
            p.add_dependence(fan, s);
        }
    }
    p
}

/// The Figure 7 difference system of `p`, with lifetimes folded into the
/// start-time weights.
fn system(p: &LongnailProblem) -> DiffSystem {
    let mut weight = vec![1i64; p.operations.len()];
    for d in &p.dependences {
        weight[d.from.0] -= 1;
        weight[d.to.0] += 1;
    }
    let mut sys = DiffSystem::new();
    for (i, &w) in weight.iter().enumerate() {
        let ot = p.lot(OperationId(i));
        sys.var(w, i64::from(ot.earliest), ot.latest.map(i64::from));
    }
    for d in &p.dependences {
        sys.arc(d.from.0, d.to.0, i64::from(p.lot(d.from).latency));
    }
    for d in &p.chain_breakers {
        sys.arc(d.from.0, d.to.0, i64::from(p.lot(d.from).latency) + 1);
    }
    sys
}

/// Allocations of each walk on `problem(blocks)`, by name.
fn walk_allocations(blocks: usize) -> [(&'static str, u64); 4] {
    let mut p = problem(blocks);
    let topological = allocations(|| drop(p.topological_order()));
    let mut fresh = p.clone();
    let breakers =
        allocations(|| sched::chain::compute_chain_breakers(&mut fresh).expect("chains break"));
    sched::chain::compute_chain_breakers(&mut p).expect("chains break");
    assert!(!p.chain_breakers.is_empty(), "the chains need breakers");
    let starts = sched::schedule_asap(&mut p.clone())
        .expect("ASAP schedules")
        .start_time;
    let stic = allocations(|| drop(sched::stic::compute_stic(&p, starts)));
    let sys = system(&p);
    let budget = Budget::unlimited();
    let solve = allocations(|| drop(sys.solve(&budget).expect("the system solves")));
    assert!(budget.count(WorkKind::Pivot) > 0, "the solve must pivot");
    [
        ("topological_order", topological),
        ("compute_chain_breakers", breakers),
        ("compute_stic", stic),
        ("DiffSystem::solve", solve),
    ]
}

#[test]
fn scheduling_walks_allocate_per_problem_not_per_operation() {
    for ((walk, once), (_, twice)) in walk_allocations(30).into_iter().zip(walk_allocations(60)) {
        assert!(
            twice <= once,
            "{walk}: 30 blocks allocate {once} times, 60 blocks {twice}"
        );
    }
}

#[test]
fn problem_copies_allocate_per_problem_not_per_operation() {
    let (small, large) = (problem(30), problem(60));
    let (once, twice) = (
        allocations(|| drop(small.clone())),
        allocations(|| drop(large.clone())),
    );
    assert!(
        twice <= once,
        "LongnailProblem::clone: {} operations allocate {once} times, {} operations {twice}",
        small.operations.len(),
        large.operations.len()
    );
}

/// An instruction graph whose body is `ops` combinational operations: two
/// register reads feeding a chain of adds, xors and ands, written to `rd`.
fn lil_graph(ops: usize) -> Graph {
    let op = |kind, operands: &[usize], width| Op {
        kind,
        operands: operands.iter().map(|&i| ValueId(i)).collect(),
        width,
        pred: None,
        in_spawn: false,
    };
    let mut graph = Graph {
        name: "chain".into(),
        kind: GraphKind::Instruction {
            mask: 0x7f,
            match_value: 0x0b,
        },
        ops: vec![op(OpKind::ReadRs1, &[], 32), op(OpKind::ReadRs2, &[], 32)],
    };
    let kinds = [OpKind::Add, OpKind::Xor, OpKind::And];
    for i in 0..ops {
        let last = graph.ops.len() - 1;
        graph.ops.push(op(kinds[i % 3].clone(), &[last, 1], 32));
    }
    let last = graph.ops.len() - 1;
    graph.ops.push(op(OpKind::WriteRd, &[last], 0));
    graph.ops.push(op(OpKind::Sink, &[], 0));
    graph
}

#[test]
fn verification_allocates_per_graph_not_per_operation() {
    let module = LilModule {
        name: "m".into(),
        graphs: Vec::new(),
        custom_regs: Vec::new(),
        roms: Vec::new(),
    };
    let (small, large) = (lil_graph(100), lil_graph(200));
    let verify = |g: &Graph| ir::verify_graph(g, &module).expect("the chain verifies");
    let (once, twice) = (
        allocations(|| verify(&small)),
        allocations(|| verify(&large)),
    );
    assert!(
        twice <= once,
        "verify_graph: {} operations allocate {once} times, {} operations {twice}",
        small.len(),
        large.len()
    );
}

/// CoreDSL for one instruction whose behavior is `ops` combinational
/// operations on its two register operands.
fn chain_source(ops: usize) -> String {
    let body: String = (0..ops)
        .map(|i| match i % 3 {
            0 => "        a = a ^ b;\n",
            1 => "        a = a & (b | a);\n",
            _ => "        a = (unsigned<32>)(a + b);\n",
        })
        .collect();
    format!(
        "import \"RV32I.core_desc\";
InstructionSet X_CHAIN extends RV32I {{
  instructions {{
    chain {{
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {{
        unsigned<32> a = X[rs1];
        unsigned<32> b = X[rs2];
{body}        X[rd] = a;
      }}
    }}
  }}
}}
"
    )
}

/// Allocations of a replayed compile of `chain_source(ops)`: the second
/// `compile_cell` on one cache, every stage of which hits.
fn replay_allocations(ops: usize) -> (usize, u64) {
    let ln = Longnail::new();
    let ds = builtin_datasheet("ORCA").expect("builtin core");
    let pipe = PipelineCache::new();
    let src = chain_source(ops);
    let cold = ln
        .compile_cell(&src, "X_CHAIN", &ds, &pipe)
        .expect("the chain compiles");
    assert_eq!(cold.graphs.len(), 1);
    assert!(!cold.diagnostics.has_errors() && !cold.diagnostics.has_faults());
    let before = pipe.stage_stats();
    let count = allocations(|| {
        ln.compile_cell(&src, "X_CHAIN", &ds, &pipe)
            .expect("the chain replays");
    });
    let misses = |stats: &[(String, qcache::StageStats)]| -> u64 {
        stats.iter().map(|(_, s)| s.misses).sum()
    };
    assert_eq!(misses(&pipe.stage_stats()), misses(&before), "the replay recomputed");
    (cold.graphs[0].graph.len(), count)
}

#[test]
fn replay_allocates_per_unit_not_per_operation() {
    let ((small, once), (large, twice)) = (replay_allocations(60), replay_allocations(120));
    assert!(large > small + 100, "{small} and {large} operations");
    assert_eq!(
        once, twice,
        "a replayed compile_cell: {small} operations allocate {once} times, {large} operations {twice}"
    );
}
