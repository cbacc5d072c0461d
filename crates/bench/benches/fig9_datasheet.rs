//! Regenerates Figure 9: the Longnail ↔ SCAIE-V metadata exchange — the
//! virtual datasheet of the 5-stage VexRiscv core and the exported SCAIE-V
//! configuration file for the ADDI instruction of Figure 5a.

use longnail::driver::builtin_datasheet;
use longnail::Longnail;
use scaiev::VirtualDatasheet;

const ADDI: &str = r#"
import "RV32I.core_desc";
InstructionSet addi_demo extends RV32I {
  instructions {
    ADDI {
      encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0010011;
      behavior: {
        X[rd] = (unsigned<32>)(X[rs1] + (signed<12>)imm);
      }
    }
  }
}
"#;

fn main() {
    let ds = builtin_datasheet("VexRiscv").unwrap();
    println!("Figure 9 (left): virtual datasheet of the 5-stage VexRiscv core");
    println!("----------------------------------------------------------------");
    let yaml = ds.to_yaml();
    print!("{yaml}");
    // The datasheet round-trips through the YAML exchange format.
    let parsed = VirtualDatasheet::from_yaml(&yaml).unwrap();
    assert_eq!(parsed, ds);

    let ln = Longnail::new();
    let compiled = ln.compile(ADDI, "addi_demo", &ds).unwrap();
    println!();
    println!("Figure 9 (right): exported SCAIE-V configuration for ADDI");
    println!("----------------------------------------------------------");
    print!("{}", compiled.config.to_yaml());
    let parsed = scaiev::IsaxConfig::from_yaml(&compiled.config.to_yaml()).unwrap();
    assert_eq!(parsed, *compiled.config);
    println!("\n(both files round-trip through the YAML exchange format)");
}
