//! Write your own ISAX: a population-count instruction defined from
//! scratch in CoreDSL, compiled, integrated into a core model, executed,
//! and checked against the golden model — the full user journey of the
//! paper's toolflow in one file.
//!
//! ```sh
//! cargo run --example custom_isax
//! ```

use cores::{descriptor, ExtendedCore};
use longnail::driver::builtin_datasheet;
use longnail::golden::GoldenMachine;
use longnail::isax_lib::register_mnemonics;
use longnail::Longnail;
use riscv::asm::Assembler;

/// A byte-wise population count: adds the set bits of each byte of rs1.
const POPCOUNT: &str = r#"
import "RV32I.core_desc";
InstructionSet xpopcount extends RV32I {
  functions {
    unsigned<4> count_byte(unsigned<8> b) {
      unsigned<4> n = 0;
      for (int i = 0; i < 8; i += 1) {
        n = (unsigned<4>)(n + b[i]);
      }
      return n;
    }
  }
  instructions {
    popcount {
      encoding: 12'd0 :: rs1[4:0] :: 3'b110 :: rd[4:0] :: 7'b0101011;
      behavior: {
        unsigned<32> x = X[rs1];
        unsigned<6> total = 0;
        for (int i = 0; i < 32; i += 8) {
          total = (unsigned<6>)(total + count_byte(X[rs1][i+7:i]));
        }
        X[rd] = (unsigned<32>) total;
      }
    }
  }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ln = Longnail::new();
    let ds = builtin_datasheet("Piccolo").expect("bundled core");

    // Compile and show what came out.
    let compiled = ln.compile(POPCOUNT, "xpopcount", &ds)?;
    let g = compiled.graph("popcount").expect("compiled instruction");
    println!(
        "compiled `popcount` for {}: {} LIL ops across {} stage(s), mode {}",
        ds.core,
        g.graph.len(),
        g.max_stage,
        g.mode
    );
    println!("\ngenerated SystemVerilog (first lines):");
    for line in g.verilog.lines().take(12) {
        println!("  {line}");
    }

    // Assemble a test program using the new mnemonic.
    let module = (*compiled.module).clone();
    let mut asm = Assembler::new();
    register_mnemonics(&mut asm, &module)?;
    let program = asm.assemble(
        r#"
        li a1, 0xdeadbeef
        popcount a0, a1
        ebreak
    "#,
    )?;

    // Run on the cycle-level core model...
    let mut core = ExtendedCore::new(descriptor("Piccolo").unwrap(), vec![compiled], true);
    core.load_program(0, &program);
    core.run(1_000)?;
    // ...and on the golden ISS + CoreDSL interpreter.
    let mut golden = GoldenMachine::new(vec![module]);
    golden.load_program(0, &program);
    golden.run(1_000)?;

    let hw = core.cpu.read_reg(10);
    let gold = golden.cpu.read_reg(10);
    println!("\npopcount(0xdeadbeef) = {hw} (core model) / {gold} (golden model)");
    assert_eq!(hw, gold);
    assert_eq!(hw, 0xdeadbeefu32.count_ones());
    println!("matches u32::count_ones: OK");
    Ok(())
}
