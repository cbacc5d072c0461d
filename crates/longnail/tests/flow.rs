//! End-to-end flow tests: all Table 3 ISAXes × all Table 4 cores.

use coredsl::Frontend;
use longnail::driver::{builtin_datasheet, EVAL_CORES};
use longnail::golden::GoldenMachine;
use longnail::isax_lib;
use longnail::Longnail;
use riscv::asm::Assembler;
use scaiev::modes::ExecutionMode;

#[test]
fn all_isaxes_compile_for_all_cores() {
    let ln = Longnail::new();
    for core in EVAL_CORES {
        let ds = builtin_datasheet(core).unwrap();
        for (name, unit, src) in isax_lib::all_isaxes() {
            let compiled = ln
                .compile(&src, &unit, &ds)
                .unwrap_or_else(|e| panic!("{name} on {core}: {e}"));
            assert!(!compiled.graphs.is_empty(), "{name} produced no graphs");
            for g in &compiled.graphs {
                assert!(
                    g.verilog.contains("module"),
                    "{name}/{} emitted no Verilog",
                    g.name
                );
                rtl::lint_module(&g.built.module).unwrap();
            }
            // Config round-trips through YAML.
            let yaml = compiled.config.to_yaml();
            let parsed = scaiev::IsaxConfig::from_yaml(&yaml).unwrap();
            assert_eq!(parsed, *compiled.config, "{name} on {core} config YAML");
        }
    }
}

#[test]
fn execution_modes_match_table3_expectations() {
    let ln = Longnail::new();
    let ds = builtin_datasheet("VexRiscv").unwrap();

    let (unit, src) = isax_lib::isax_source("dotprod").unwrap();
    let dotp = ln.compile(&src, &unit, &ds).unwrap();
    assert_eq!(dotp.graph("dotp").unwrap().mode, ExecutionMode::InPipeline);

    let (unit, src) = isax_lib::isax_source("sqrt_tightly").unwrap();
    let sq = ln.compile(&src, &unit, &ds).unwrap();
    let g = sq.graph("sqrt").unwrap();
    assert_eq!(g.mode, ExecutionMode::TightlyCoupled, "{:?}", g.result_stage);
    // The unrolled CORDIC-style root spans far more stages than the
    // 5-stage host pipeline (the paper reports ~10).
    assert!(g.max_stage > 5, "sqrt max stage {}", g.max_stage);

    let (unit, src) = isax_lib::isax_source("sqrt_decoupled").unwrap();
    let sq = ln.compile(&src, &unit, &ds).unwrap();
    let g = sq.graph("sqrt").unwrap();
    assert_eq!(g.mode, ExecutionMode::Decoupled);
    assert!(g.spawn_stage.is_some());

    let (unit, src) = isax_lib::isax_source("zol").unwrap();
    let zol = ln.compile(&src, &unit, &ds).unwrap();
    assert_eq!(zol.graph("zol").unwrap().mode, ExecutionMode::Always);
    assert_eq!(
        zol.graph("setup_zol").unwrap().mode,
        ExecutionMode::InPipeline
    );
    assert_eq!(zol.config.registers.len(), 3);
}

#[test]
fn schedules_respect_core_windows() {
    let ln = Longnail::new();
    for core in EVAL_CORES {
        let ds = builtin_datasheet(core).unwrap();
        let (unit, src) = isax_lib::isax_source("dotprod").unwrap();
        let compiled = ln.compile(&src, &unit, &ds).unwrap();
        let g = compiled.graph("dotp").unwrap();
        for (v, op) in g.graph.iter() {
            if let Some(iface) = longnail::driver::lil_iface_op(&op.kind) {
                let t = ds.timing(&iface).unwrap();
                let st = g.schedule.start_time[v.0];
                assert!(
                    st >= t.earliest,
                    "{core}: {} scheduled at {st} before earliest {}",
                    iface.key(),
                    t.earliest
                );
            }
        }
    }
}

#[test]
fn golden_machine_runs_dotp_program() {
    let (unit, src) = isax_lib::isax_source("dotprod").unwrap();
    let module = Frontend::new()
        .compile_str(&src, &unit)
        .map_err(|e| e.to_string())
        .unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &module).unwrap();
    let program = asm
        .assemble(
            r#"
        li a1, 0x01020304
        li a2, 0x05060708
        dotp a0, a1, a2
        ebreak
    "#,
        )
        .unwrap();
    let mut machine = GoldenMachine::new(vec![module]);
    machine.load_program(0, &program);
    machine.run(100).unwrap();
    // 1*5 + 2*6 + 3*7 + 4*8 = 70
    assert_eq!(machine.cpu.read_reg(10), 70);
}

#[test]
fn golden_machine_zero_overhead_loop() {
    // A loop summing 1..=5 into a0 without any branch instruction: the
    // zol always-block redirects the PC.
    let (unit, src) = isax_lib::isax_source("zol").unwrap();
    let module = Frontend::new()
        .compile_str(&src, &unit)
        .map_err(|e| e.to_string())
        .unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &module).unwrap();
    // setup_zol uimmL=4 (4 extra iterations), uimmS: END_PC = PC + 2*uimmS.
    // setup at address 8; body = single add at 12; END_PC must be 12, so
    // uimmS = 2. After setup: START_PC = 12.
    let program = asm
        .assemble(
            r#"
        li   t0, 0        # occupies addresses 0..8
        setup_zol 4, 2    # at address 8
        addi t0, t0, 1    # loop body at address 12 == END_PC
        ebreak            # at 16
    "#,
        )
        .unwrap();
    let mut machine = GoldenMachine::new(vec![module]);
    machine.load_program(0, &program);
    machine.run(100).unwrap();
    // The body executes once per COUNT value 4,3,2,1 plus the final
    // pass-through when COUNT reaches 0: 5 executions.
    assert_eq!(machine.cpu.read_reg(5), 5);
    assert_eq!(machine.cust_reg("COUNT", 0).to_u64(), 0);
}

#[test]
fn golden_machine_autoinc_stream() {
    let (unit, src) = isax_lib::isax_source("autoinc").unwrap();
    let module = Frontend::new()
        .compile_str(&src, &unit)
        .map_err(|e| e.to_string())
        .unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &module).unwrap();
    let program = asm
        .assemble(
            r#"
        li   a0, 0x100
        li   t0, 11
        sw   t0, 0(a0)
        li   t0, 31
        sw   t0, 4(a0)
        setup_autoinc a0
        load_inc t1
        load_inc t2
        add  a1, t1, t2
        ebreak
    "#,
        )
        .unwrap();
    let mut machine = GoldenMachine::new(vec![module]);
    machine.load_program(0, &program);
    machine.run(100).unwrap();
    assert_eq!(machine.cpu.read_reg(11), 42);
    assert_eq!(machine.cust_reg("ADDR", 0).to_u64(), 0x108);
}

#[test]
fn golden_machine_sqrt_matches_float() {
    let (unit, src) = isax_lib::isax_source("sqrt_decoupled").unwrap();
    let module = Frontend::new()
        .compile_str(&src, &unit)
        .map_err(|e| e.to_string())
        .unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &module).unwrap();
    for (x, expect) in [(4u32, 2.0f64), (2, std::f64::consts::SQRT_2), (144, 12.0)] {
        let program = asm
            .assemble(&format!("li a1, {x}\nsqrt a0, a1\nebreak"))
            .unwrap();
        let mut machine = GoldenMachine::new(vec![module.clone()]);
        machine.load_program(0, &program);
        machine.run(100).unwrap();
        let fixed = machine.cpu.read_reg(10) as f64 / 65536.0;
        assert!(
            (fixed - expect).abs() < 1e-4,
            "sqrt({x}) = {fixed}, expected {expect}"
        );
    }
}

#[test]
fn ijmp_redirects_pc_via_memory() {
    let (unit, src) = isax_lib::isax_source("ijmp").unwrap();
    let module = Frontend::new()
        .compile_str(&src, &unit)
        .map_err(|e| e.to_string())
        .unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &module).unwrap();
    let program = asm
        .assemble(
            r#"
        li   a0, 0x100
        li   t0, target     # target address into memory
        sw   t0, 0(a0)
        ijmp a0
        li   a1, 111        # skipped
        ebreak
    target:
        li   a1, 222
        ebreak
    "#,
        )
        .unwrap();
    let mut machine = GoldenMachine::new(vec![module]);
    machine.load_program(0, &program);
    machine.run(100).unwrap();
    assert_eq!(machine.cpu.read_reg(11), 222);
}

#[test]
fn sbox_lookup_matches_aes() {
    let (unit, src) = isax_lib::isax_source("sbox").unwrap();
    let module = Frontend::new()
        .compile_str(&src, &unit)
        .map_err(|e| e.to_string())
        .unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &module).unwrap();
    for (input, expect) in [(0u32, 0x63u32), (0x53, 0xed), (0xff, 0x16), (0x10, 0xca)] {
        let program = asm
            .assemble(&format!("li a1, {input}\naes_sbox a0, a1\nebreak"))
            .unwrap();
        let mut machine = GoldenMachine::new(vec![module.clone()]);
        machine.load_program(0, &program);
        machine.run(100).unwrap();
        assert_eq!(machine.cpu.read_reg(10), expect, "sbox[{input:#x}]");
    }
}

#[test]
fn sparkle_alzette_reference() {
    // Cross-check the ISAX against a direct Rust transcription.
    fn rotr(x: u32, n: u32) -> u32 {
        x.rotate_right(n)
    }
    fn alzette(mut x: u32, mut y: u32) -> (u32, u32) {
        const C: u32 = 0xb7e15162;
        for (rx, ry) in [(31, 24), (17, 17), (0, 31), (24, 16)] {
            x = x.wrapping_add(rotr(y, rx));
            y ^= rotr(x, ry);
            x ^= C;
        }
        (x, y)
    }
    let (unit, src) = isax_lib::isax_source("sparkle").unwrap();
    let module = Frontend::new()
        .compile_str(&src, &unit)
        .map_err(|e| e.to_string())
        .unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &module).unwrap();
    let (x, y) = (0x12345678u32, 0x9abcdef0u32);
    let program = asm
        .assemble(&format!(
            "li a1, {x}\nli a2, {y}\nalzette_x0 a0, a1, a2\nalzette_y0 a3, a1, a2\nebreak"
        ))
        .unwrap();
    let mut machine = GoldenMachine::new(vec![module]);
    machine.load_program(0, &program);
    machine.run(100).unwrap();
    let (ex, ey) = alzette(x, y);
    assert_eq!(machine.cpu.read_reg(10), ex, "alzette x");
    assert_eq!(machine.cpu.read_reg(13), ey, "alzette y");
}

#[test]
fn combined_autoinc_zol_machine() {
    // The §5.5 case-study combination: both ISAXes active at once.
    let fe = Frontend::new();
    let (unit_a, src_a) = isax_lib::isax_source("autoinc").unwrap();
    let (unit_z, src_z) = isax_lib::isax_source("zol").unwrap();
    let ma = fe.compile_str(&src_a, &unit_a).map_err(|e| e.to_string()).unwrap();
    let mz = fe.compile_str(&src_z, &unit_z).map_err(|e| e.to_string()).unwrap();
    let mut asm = Assembler::new();
    isax_lib::register_mnemonics(&mut asm, &ma).unwrap();
    isax_lib::register_mnemonics(&mut asm, &mz).unwrap();
    // Sum a 4-element array with autoinc loads inside a zero-overhead loop.
    let program = asm
        .assemble(
            r#"
        li   a0, 0x200
        li   t0, 10
        sw   t0, 0(a0)
        li   t0, 20
        sw   t0, 4(a0)
        li   t0, 30
        sw   t0, 8(a0)
        li   t0, 40
        sw   t0, 12(a0)
        li   a1, 0              # sum
        setup_autoinc a0        # address 36
        setup_zol 3, 4          # at 40: END_PC = 40 + 8 = 48; 4 total iters
        load_inc t1             # 44
        add  a1, a1, t1         # 48 == END_PC
        ebreak                  # 52
    "#,
        )
        .unwrap();
    let mut machine = GoldenMachine::new(vec![ma, mz]);
    machine.load_program(0, &program);
    machine.run(1000).unwrap();
    assert_eq!(machine.cpu.read_reg(11), 100);
}
