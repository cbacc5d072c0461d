//! Functional verification of the extended cores (paper §5.3):
//! handwritten assembler programs run on every core model and must match
//! the golden ISS + CoreDSL-interpreter reference architecturally.

use cores::{descriptor, ExtendedCore};
use longnail::driver::{builtin_datasheet, EVAL_CORES};
use longnail::golden::GoldenMachine;
use longnail::isax_lib;
use longnail::Longnail;
use riscv::asm::Assembler;

/// Compiles the named ISAXes for `core` and assembles `program` with their
/// mnemonics registered.
fn setup(
    core: &str,
    isax_names: &[&str],
    program: &str,
) -> (ExtendedCore, GoldenMachine, Vec<u32>) {
    let ln = Longnail::new();
    let ds = builtin_datasheet(core).unwrap();
    let mut compiled = Vec::new();
    let mut modules = Vec::new();
    let mut asm = Assembler::new();
    for name in isax_names {
        let (unit, src) = isax_lib::isax_source(name).unwrap();
        let isax = ln.compile(&src, &unit, &ds).unwrap();
        isax_lib::register_mnemonics(&mut asm, &isax.module).unwrap();
        modules.push((*isax.module).clone());
        compiled.push(isax);
    }
    let words = asm.assemble(program).unwrap();
    let mut extended = ExtendedCore::new(descriptor(core).unwrap(), compiled, true);
    extended.load_program(0, &words);
    let mut golden = GoldenMachine::new(modules);
    golden.load_program(0, &words);
    (extended, golden, words)
}

/// Runs both machines and asserts architectural equivalence on the given
/// GPRs and custom registers.
fn check_equivalence(
    core: &str,
    isax_names: &[&str],
    program: &str,
    regs: &[u32],
    cust: &[(&str, u64)],
) -> u64 {
    let (mut extended, mut golden, _) = setup(core, isax_names, program);
    extended.run(100_000).unwrap();
    golden.run(100_000).unwrap();
    for &r in regs {
        assert_eq!(
            extended.cpu.read_reg(r),
            golden.cpu.read_reg(r),
            "{core}: x{r} differs from golden model"
        );
    }
    for &(name, idx) in cust {
        assert_eq!(
            extended.cust_reg(name, idx),
            golden.cust_reg(name, idx),
            "{core}: {name}[{idx}] differs from golden model"
        );
    }
    extended.cycles
}

const DOTP_PROGRAM: &str = r#"
    li a1, 0x01020304
    li a2, 0x85068708
    dotp a0, a1, a2
    dotp a3, a2, a2
    ebreak
"#;

#[test]
fn dotp_verifies_on_all_cores() {
    for core in EVAL_CORES {
        check_equivalence(core, &["dotprod"], DOTP_PROGRAM, &[10, 13], &[]);
    }
}

#[test]
fn sqrt_tightly_verifies_on_all_cores() {
    let program = r#"
        li a1, 1764
        sqrt a0, a1
        li a2, 2
        sqrt a3, a2
        ebreak
    "#;
    for core in EVAL_CORES {
        check_equivalence(core, &["sqrt_tightly"], program, &[10, 13], &[]);
    }
}

#[test]
fn sqrt_decoupled_overlaps_execution() {
    // Independent work after the sqrt should overlap with the decoupled
    // computation; dependent reads must still see the correct value.
    let program = r#"
        li a1, 1764
        sqrt a0, a1
        li t0, 1        # independent: overtakes the sqrt
        li t1, 2
        li t2, 3
        mv a2, a0       # dependent: scoreboard stalls until commit
        ebreak
    "#;
    for core in EVAL_CORES {
        check_equivalence(core, &["sqrt_decoupled"], program, &[10, 12, 5, 6, 7], &[]);
    }
    // The decoupled variant must not be slower than the tightly-coupled
    // one on this mixed program (that is the point of spawning).
    let (mut tight, _, _) = setup("VexRiscv", &["sqrt_tightly"], program);
    let (mut dec, _, _) = setup("VexRiscv", &["sqrt_decoupled"], program);
    tight.run(100_000).unwrap();
    dec.run(100_000).unwrap();
    assert!(
        dec.cycles <= tight.cycles,
        "decoupled {} vs tightly {}",
        dec.cycles,
        tight.cycles
    );
}

#[test]
fn zol_loop_verifies_on_all_cores() {
    let program = r#"
        li   t0, 0
        li   t1, 0
        setup_zol 9, 4    # END_PC = (here) + 8: loop body is two instrs
        addi t0, t0, 1    # START_PC
        addi t1, t1, 2    # END_PC: redirect happens after this one
        ebreak
    "#;
    for core in EVAL_CORES {
        check_equivalence(
            core,
            &["zol"],
            program,
            &[5, 6],
            &[("COUNT", 0), ("START_PC", 0), ("END_PC", 0)],
        );
    }
}

#[test]
fn autoinc_verifies_on_all_cores() {
    let program = r#"
        li   a0, 0x300
        li   t0, 5
        sw   t0, 0(a0)
        li   t0, 6
        sw   t0, 4(a0)
        setup_autoinc a0
        load_inc t1
        load_inc t2
        add  a1, t1, t2
        store_inc a1      # writes 11 to 0x308
        ebreak
    "#;
    for core in EVAL_CORES {
        let (mut extended, mut golden, _) = setup(core, &["autoinc"], program);
        extended.run(100_000).unwrap();
        golden.run(100_000).unwrap();
        assert_eq!(extended.cpu.read_reg(11), 11, "{core}");
        assert_eq!(extended.cpu.read_word(0x308), golden.cpu.read_word(0x308));
        assert_eq!(
            extended.cust_reg("ADDR", 0),
            golden.cust_reg("ADDR", 0),
            "{core}"
        );
    }
}

#[test]
fn sbox_and_sparkle_verify_on_all_cores() {
    let program = r#"
        li a1, 0x53
        aes_sbox a0, a1
        ebreak
    "#;
    for core in EVAL_CORES {
        let cycles = check_equivalence(core, &["sbox"], program, &[10], &[]);
        assert!(cycles > 0);
    }
    let program = r#"
        li a1, 0x12345678
        li a2, 0x9abcdef0
        alzette_x0 a0, a1, a2
        alzette_y0 a3, a1, a2
        ebreak
    "#;
    for core in EVAL_CORES {
        check_equivalence(core, &["sparkle"], program, &[10, 13], &[]);
    }
}

#[test]
fn ijmp_verifies_on_all_cores() {
    let program = r#"
        li   a0, 0x400
        li   t0, dest
        sw   t0, 0(a0)
        ijmp a0
        li   a1, 1
        ebreak
    dest:
        li   a1, 7
        ebreak
    "#;
    for core in EVAL_CORES {
        check_equivalence(core, &["ijmp"], program, &[11], &[]);
    }
}

#[test]
fn combined_autoinc_zol_verifies() {
    let program = r#"
        li   a0, 0x500
        li   t0, 10
        sw   t0, 0(a0)
        li   t0, 20
        sw   t0, 4(a0)
        li   t0, 30
        sw   t0, 8(a0)
        li   a1, 0
        setup_autoinc a0
        setup_zol 2, 4
        load_inc t1
        add  a1, a1, t1
        ebreak
    "#;
    for core in EVAL_CORES {
        check_equivalence(
            core,
            &["autoinc", "zol"],
            program,
            &[11],
            &[("ADDR", 0), ("COUNT", 0)],
        );
    }
}

#[test]
fn zero_overhead_loop_really_is_zero_overhead() {
    // Compare the branch-based loop against the zol loop on VexRiscv: the
    // zol version must save at least the branch penalty per iteration.
    let n = 20;
    let branch_program = format!(
        r#"
        li   t0, 0
        li   t1, {n}
    loop:
        addi t0, t0, 1
        addi t1, t1, -1
        bnez t1, loop
        ebreak
    "#
    );
    let zol_program = format!(
        r#"
        li   t0, 0
        li   t1, {n}
        setup_zol {m}, 2
        addi t0, t0, 1
        ebreak
    "#,
        m = n - 1
    );
    let (mut base, _, _) = setup("VexRiscv", &["zol"], &branch_program);
    base.run(100_000).unwrap();
    let (mut zol, _, _) = setup("VexRiscv", &["zol"], &zol_program);
    zol.run(100_000).unwrap();
    assert_eq!(base.cpu.read_reg(5), n);
    assert_eq!(zol.cpu.read_reg(5), n);
    assert!(
        zol.cycles + 4 * (n as u64) < base.cycles,
        "zol {} vs branch {}",
        zol.cycles,
        base.cycles
    );
}

#[test]
fn hazard_free_ablation_returns_stale_values() {
    // Without hazard handling (Table 4 ablation row), a dependent read
    // right after a decoupled sqrt sees the stale register value.
    let ln = Longnail::new();
    let ds = builtin_datasheet("VexRiscv").unwrap();
    let (unit, src) = isax_lib::isax_source("sqrt_decoupled").unwrap();
    let compiled = ln.compile(&src, &unit, &ds).unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &compiled.module).unwrap();
    let program = asm
        .assemble("li a0, 0\nli a1, 1764\nsqrt a0, a1\nmv a2, a0\nebreak")
        .unwrap();
    let mut unsafe_core = ExtendedCore::new(
        descriptor("VexRiscv").unwrap(),
        vec![compiled.clone()],
        false,
    );
    unsafe_core.load_program(0, &program);
    unsafe_core.run(100_000).unwrap();
    // The dependent `mv` executed before the decoupled commit: stale zero.
    assert_eq!(unsafe_core.cpu.read_reg(12), 0);
    // a0 still receives the result eventually.
    assert_eq!(unsafe_core.cpu.read_reg(10), 42 << 16);
    // With hazard handling the dependent read is correct.
    let mut safe_core = ExtendedCore::new(descriptor("VexRiscv").unwrap(), vec![compiled], true);
    safe_core.load_program(0, &program);
    safe_core.run(100_000).unwrap();
    assert_eq!(safe_core.cpu.read_reg(12), 42 << 16);
    // And the unsafe variant is not slower.
    assert!(unsafe_core.cycles <= safe_core.cycles);
}
