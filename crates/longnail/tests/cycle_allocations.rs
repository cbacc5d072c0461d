//! A simulated cycle allocates nothing. The `-O2` oracle gate and
//! `--xcheck` step their simulators for a fixed number of cycles per unit,
//! so an allocation inside the cycle loop is paid on every cycle of every
//! compile. A counting allocator checks that the port-indexed steps of
//! `Simulator`, `Xsim` and `DiffSim`, and `verify_equivalent` as a whole,
//! allocate as often over 2N cycles as over N: set-up allocates, cycles do
//! not. The netlist is Table 3's sqrt, whose 65-bit nets take the two-limb
//! path of every operation.

use bits::ApInt;
use longnail::driver::builtin_datasheet;
use longnail::{isax_lib, Longnail};
use rtl::netlist::Module;
use rtl::opt::{optimize, verify_equivalent, OptLevel};
use rtl::verilog::EmitOptions;
use rtl::{DiffSim, Simulator, XVal, Xsim};
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

/// Cycle `t`'s value on every port: a rotating word, truncated or
/// zero-extended to the port's width.
fn stimulus(m: &Module, t: u32, ports: &mut [ApInt]) {
    for (p, (port, v)) in m.ports.iter().zip(ports).enumerate() {
        let word = 0x9e37_79b9_7f4a_7c15u64.rotate_left(t * 7 + p as u32);
        *v = ApInt::from_u64(word, 64).zext_or_trunc(port.width);
    }
}

fn zeros(m: &Module) -> Vec<ApInt> {
    m.ports.iter().map(|p| ApInt::zero(p.width)).collect()
}

/// The first unit of Table 3's `sqrt_tightly` on VexRiscv, as built.
fn sqrt_module() -> Module {
    let (_, unit, src) = isax_lib::all_isaxes()
        .into_iter()
        .find(|(name, _, _)| name == "sqrt_tightly")
        .expect("sqrt is a builtin ISAX");
    let ds = builtin_datasheet("VexRiscv").expect("builtin core");
    let compiled = Longnail::new()
        .compile(&src, &unit, &ds)
        .expect("sqrt compiles");
    compiled.graphs[0].built.module.clone()
}

fn interp_cycles(m: &Module, cycles: u32) -> u64 {
    let mut ports = zeros(m);
    allocations(|| {
        let mut sim = Simulator::new(m.clone());
        for t in 0..cycles {
            stimulus(m, t, &mut ports);
            sim.eval_ports(&ports);
            sim.clock();
        }
    })
}

fn xsim_cycles(m: &Module, cycles: u32) -> u64 {
    let mut ports = zeros(m);
    let mut four_state: Vec<XVal> = m.ports.iter().map(|p| XVal::all_x(p.width)).collect();
    allocations(|| {
        let mut sim = Xsim::new(m.clone());
        sim.reset();
        for t in 0..cycles {
            stimulus(m, t, &mut ports);
            for (x, v) in four_state.iter_mut().zip(&ports) {
                *x = XVal::known(v.clone());
            }
            sim.eval_ports(&four_state);
            sim.clock();
        }
    })
}

fn diff_cycles(m: &Module, cycles: u32) -> u64 {
    let mut ports = zeros(m);
    allocations(|| {
        let mut diff = DiffSim::new(m.clone());
        for t in 0..cycles {
            stimulus(m, t, &mut ports);
            let stats = diff.step_ports(&ports).expect("interp and xsim agree");
            assert_eq!(stats.output_x_bits, 0);
        }
    })
}

#[test]
fn a_simulated_cycle_allocates_nothing() {
    let m = sqrt_module();
    assert!(
        m.nets.iter().any(|n| n.width > 64),
        "the netlist must carry two-limb nets"
    );
    for (sim, run) in [
        ("Simulator", interp_cycles as fn(&Module, u32) -> u64),
        ("Xsim", xsim_cycles),
        ("DiffSim", diff_cycles),
    ] {
        let (once, twice) = (run(&m, 16), run(&m, 32));
        assert_eq!(
            once, twice,
            "{sim}: 16 cycles allocate {once} times, 32 cycles {twice}"
        );
    }

    let (optimized, _) = optimize(&m, OptLevel::O2).expect("sqrt optimizes");
    let gate = |cycles| {
        allocations(|| {
            verify_equivalent(&m, &optimized, &EmitOptions, cycles).expect("gate passes")
        })
    };
    let (once, twice) = (gate(32), gate(64));
    assert_eq!(
        once, twice,
        "verify_equivalent: 32 cycles allocate {once} times, 64 cycles {twice}"
    );
}
