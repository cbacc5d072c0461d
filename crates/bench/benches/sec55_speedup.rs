//! Regenerates the §5.5 case study: summing an n-element integer array on
//! VexRiscv, baseline RV32I vs. the autoinc + zol ISAX combination.
//!
//! The paper reports 18n + 50 cycles for the baseline and 11n + 50 for the
//! ISAX version (>60 % speed-up at ~16 % area). This harness measures both
//! versions at several n on the cycle model, fits the linear coefficients,
//! and prints the comparison.

use bench::extended_core;
use longnail::OptLevel;

fn baseline_program(n: u32, base: u32) -> String {
    format!(
        r#"
        li   a0, {base:#x}     # array pointer
        li   a1, {n}           # element count
        li   a2, 0             # sum
    loop:
        lw   t0, 0(a0)
        add  a2, a2, t0
        addi a0, a0, 4
        addi a1, a1, -1
        bnez a1, loop
        ebreak
    "#
    )
}

fn isax_program(n: u32, base: u32) -> String {
    // The loop body is a single load_inc + add pair under zol control:
    // no pointer increment, no counter decrement, no branch.
    format!(
        r#"
        li   a0, {base:#x}
        li   a2, 0
        setup_autoinc a0
        setup_zol {m}, 4       # body: load_inc + add (8 bytes)
        load_inc t0
        add  a2, a2, t0
        ebreak
    "#,
        m = n - 1
    )
}

/// Runs a program on the extended VexRiscv, returning (cycles, sum).
fn run(program: &str, n: u32, base: u32) -> (u64, u32) {
    let (mut core, asm) = extended_core("VexRiscv", &["autoinc", "zol"]);
    let words = asm.assemble(program).unwrap();
    core.load_program(0, &words);
    for i in 0..n {
        core.cpu.write_word(base + 4 * i, i + 1);
    }
    core.run(10_000_000).unwrap();
    (core.cycles, core.cpu.read_reg(12))
}

fn fit(n1: u32, c1: u64, n2: u32, c2: u64) -> (f64, f64) {
    let slope = (c2 - c1) as f64 / (n2 - n1) as f64;
    let intercept = c1 as f64 - slope * n1 as f64;
    (slope, intercept)
}

fn main() {
    println!("Section 5.5: n-element array sum on VexRiscv\n");
    let base_addr = 0x1000;
    let (n1, n2) = (16u32, 64u32);
    let expect = |n: u32| n * (n + 1) / 2;

    let (bc1, bs1) = run(&baseline_program(n1, base_addr), n1, base_addr);
    let (bc2, bs2) = run(&baseline_program(n2, base_addr), n2, base_addr);
    assert_eq!(bs1, expect(n1), "baseline result wrong");
    assert_eq!(bs2, expect(n2), "baseline result wrong");
    let (bslope, bint) = fit(n1, bc1, n2, bc2);

    let (ic1, is1) = run(&isax_program(n1, base_addr), n1, base_addr);
    let (ic2, is2) = run(&isax_program(n2, base_addr), n2, base_addr);
    assert_eq!(is1, expect(n1), "isax result wrong");
    assert_eq!(is2, expect(n2), "isax result wrong");
    let (islope, iint) = fit(n1, ic1, n2, ic2);

    println!("  baseline RV32I loop:   {bslope:.0}n + {bint:.0} cycles   (paper: 18n + 50)");
    println!("  autoinc+zol ISAXes:    {islope:.0}n + {iint:.0} cycles   (paper: 11n + 50)");
    let speedup = bslope / islope;
    println!(
        "  asymptotic speed-up:   {:.2}x  ({:.0} % faster; paper: >60 %)",
        speedup,
        (speedup - 1.0) * 100.0
    );
    let report = bench::table4_cell("VexRiscv", &["autoinc", "zol"], true, OptLevel::O0);
    println!(
        "  area for the combination on VexRiscv: +{:.0} % (paper: ~16 %)",
        report.area_overhead_pct()
    );
    assert!(speedup >= 1.5, "zol+autoinc must be well over 50% faster");
}
