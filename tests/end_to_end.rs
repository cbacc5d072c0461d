//! Workspace-level end-to-end tests: CoreDSL text → compiled ISAX →
//! integrated core execution, differentially checked against the golden
//! model (paper §5.3's verification methodology).

use cores::{descriptor, ExtendedCore};
use longnail::driver::{builtin_datasheet, EVAL_CORES};
use longnail::golden::GoldenMachine;
use longnail::isax_lib;
use longnail::Longnail;
use proptest::prelude::*;
use riscv::asm::Assembler;

fn machines(core: &str, names: &[&str]) -> (ExtendedCore, GoldenMachine, Assembler) {
    let ln = Longnail::new();
    let ds = builtin_datasheet(core).unwrap();
    let mut asm = Assembler::new();
    let mut compiled = Vec::new();
    let mut modules = Vec::new();
    for name in names {
        let (unit, src) = isax_lib::isax_source(name).unwrap();
        let isax = ln.compile(&src, &unit, &ds).unwrap();
        isax_lib::register_mnemonics(&mut asm, &isax.module).unwrap();
        modules.push((*isax.module).clone());
        compiled.push(isax);
    }
    (
        ExtendedCore::new(descriptor(core).unwrap(), compiled, true),
        GoldenMachine::new(modules),
        asm,
    )
}

#[test]
fn mixed_isax_program_on_every_core() {
    // One program exercising four ISAXes at once, with base-ISA control
    // flow interleaved.
    let program = r#"
        li   a0, 0x800
        li   t0, 0x01020304
        sw   t0, 0(a0)
        li   a1, 0x01020304
        li   a2, 0x04030201
        dotp a3, a1, a2        # SIMD dot product
        aes_sbox a4, a3        # S-box of the low byte
        sqrt a5, a1            # decoupled square root
        li   t1, 3             # independent work overlaps the sqrt
        add  a4, a4, t1
        mv   a6, a5            # dependent: waits on the scoreboard
        ebreak
    "#;
    for core in EVAL_CORES {
        let (mut ec, mut gm, asm) =
            machines(core, &["dotprod", "sbox", "sqrt_decoupled"]);
        let words = asm.assemble(program).unwrap();
        ec.load_program(0, &words);
        gm.load_program(0, &words);
        ec.run(100_000).unwrap();
        gm.run(100_000).unwrap();
        for r in [10, 13, 14, 15, 16] {
            assert_eq!(
                ec.cpu.read_reg(r),
                gm.cpu.read_reg(r),
                "{core}: x{r} mismatch"
            );
        }
        assert!(ec.cycles > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random operands through dotp + alzette on a random core must match
    /// the golden model (and therefore the CoreDSL semantics).
    #[test]
    fn random_operands_match_golden(a: u32, b: u32, core_idx in 0usize..4) {
        let core = EVAL_CORES[core_idx];
        let (mut ec, mut gm, asm) = machines(core, &["dotprod", "sparkle"]);
        let program = format!(
            "li a1, {a}\nli a2, {b}\ndotp a3, a1, a2\nalzette_x0 a4, a1, a2\nalzette_y3 a5, a1, a2\nebreak"
        );
        let words = asm.assemble(&program).unwrap();
        ec.load_program(0, &words);
        gm.load_program(0, &words);
        ec.run(10_000).unwrap();
        gm.run(10_000).unwrap();
        for r in [13, 14, 15] {
            prop_assert_eq!(ec.cpu.read_reg(r), gm.cpu.read_reg(r));
        }
    }

    /// The fixed-point sqrt is correct for random inputs: result is the
    /// floor of sqrt(x) in 16.16 fixed point, to within one ULP.
    #[test]
    fn sqrt_isax_accuracy(x: u32) {
        let (mut ec, _, asm) = machines("VexRiscv", &["sqrt_tightly"]);
        let words = asm
            .assemble(&format!("li a1, {x}\nsqrt a0, a1\nebreak"))
            .unwrap();
        ec.load_program(0, &words);
        ec.run(10_000).unwrap();
        let fixed = ec.cpu.read_reg(10) as u64;
        // fixed = floor(sqrt(x * 2^32)): check fixed^2 <= x*2^32 < (fixed+1)^2.
        let target = (x as u128) << 32;
        prop_assert!((fixed as u128) * (fixed as u128) <= target);
        prop_assert!(((fixed + 1) as u128) * ((fixed + 1) as u128) > target);
    }
}

#[test]
fn decoupled_without_hazard_handling_is_faster_but_wrong() {
    // The Table 4 ablation: dropping hazard handling removes the stalls
    // (cycles strictly not higher) but dependent reads observe stale data.
    let program = "li a0, 0\nli a1, 400\nsqrt a0, a1\nmv a2, a0\nebreak";
    let build = |hazard: bool| {
        let ln = Longnail::new();
        let ds = builtin_datasheet("ORCA").unwrap();
        let (unit, src) = isax_lib::isax_source("sqrt_decoupled").unwrap();
        let compiled = ln.compile(&src, &unit, &ds).unwrap();
        let mut asm = Assembler::new();
        isax_lib::register_mnemonics(&mut asm, &compiled.module).unwrap();
        let words = asm.assemble(program).unwrap();
        let mut ec = ExtendedCore::new(descriptor("ORCA").unwrap(), vec![compiled], hazard);
        ec.load_program(0, &words);
        ec.run(10_000).unwrap();
        ec
    };
    let safe = build(true);
    let unsafe_ = build(false);
    assert_eq!(safe.cpu.read_reg(12), 20 << 16); // sqrt(400) = 20.0
    assert_eq!(unsafe_.cpu.read_reg(12), 0); // stale read
    assert!(unsafe_.cycles <= safe.cycles);
}

#[test]
fn compile_then_integrate_all_pairs_smoke() {
    // Every Table 3 ISAX on every Table 4 core: compile, integrate, run a
    // minimal program, and make sure the machine halts.
    for core in EVAL_CORES {
        for (name, _, _) in isax_lib::all_isaxes() {
            let (mut ec, _, asm) = machines(core, &[name.as_str()]);
            let words = asm.assemble("li a0, 1\nebreak").unwrap();
            ec.load_program(0, &words);
            ec.run(1_000).unwrap();
            assert!(ec.halted(), "{core}/{name} did not halt");
        }
    }
}
