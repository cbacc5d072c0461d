//! The benchmark ISAXes of the evaluation (paper Table 3), as CoreDSL
//! sources, plus generic assembler-mnemonic registration so the handwritten
//! verification programs (§5.3) can use them.

use crate::driver::FlowError;
use coredsl::tast::{Encoding, EncodingPiece, TypedModule};
use riscv::asm::{Assembler, Operand};

/// One benchmark ISAX.
#[derive(Debug, Clone, Copy)]
pub struct BenchmarkIsax {
    /// Table 3 row name.
    pub name: &'static str,
    /// CoreDSL `InstructionSet` to elaborate.
    pub unit: &'static str,
    /// CoreDSL source text.
    pub source: &'static str,
    /// What the ISAX demonstrates (Table 3).
    pub demonstrates: &'static str,
}

/// `dotp` — 4×8-bit dot product (Figure 1): loop + bit ranges for SIMD.
pub const DOTPROD: &str = r#"
import "RV32I.core_desc";
InstructionSet X_DOTP extends RV32I {
  instructions {
    dotp {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] ::
                3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        signed<32> res = 0;
        for (int i = 0; i < 32; i += 8) {
          signed<16> prod = (signed) X[rs1][i+7:i] *
                            (signed) X[rs2][i+7:i];
          res += prod;
        }
        X[rd] = (unsigned) res;
      }
    }
  }
}
"#;

/// `zol` — zero-overhead loop (Figure 3): PC and custom-register access in
/// an `always`-block.
pub const ZOL: &str = r#"
import "RV32I.core_desc";
InstructionSet zol extends RV32I {
  architectural_state {
    register unsigned<32> START_PC, END_PC, COUNT;
  }
  instructions {
    setup_zol {
      encoding: uimmL[11:0] :: uimmS[4:0] :: 3'b101
                :: 5'b00000 :: 7'b0001011;
      behavior:
      {
        START_PC = (unsigned<32>)(PC + 4);
        END_PC = (unsigned<32>)(PC + (uimmS :: 1'b0));
        COUNT = uimmL;
      }
    }
  }
  always {
    zol {
      // program counter (`PC`) defined in RV32I
      if (COUNT != 0 && END_PC == PC) {
        PC = START_PC;
        --COUNT;
      }
    }
  }
}
"#;

/// `autoinc` — auto-incrementing load/store with a custom address register.
pub const AUTOINC: &str = r#"
import "RV32I.core_desc";
InstructionSet autoinc extends RV32I {
  architectural_state {
    register unsigned<32> ADDR;
  }
  instructions {
    setup_autoinc {
      encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: 5'b00000 :: 7'b0101011;
      behavior: {
        ADDR = X[rs1];
      }
    }
    load_inc {
      encoding: 12'd1 :: 5'b00000 :: 3'b001 :: rd[4:0] :: 7'b0101011;
      behavior: {
        unsigned<32> a = ADDR;
        X[rd] = MEM[a+3:a];
        ADDR = (unsigned<32>)(a + 4);
      }
    }
    store_inc {
      encoding: 7'd1 :: rs2[4:0] :: 5'b00000 :: 3'b010 :: 5'b00000 :: 7'b0101011;
      behavior: {
        unsigned<32> a = ADDR;
        MEM[a+3:a] = X[rs2];
        ADDR = (unsigned<32>)(a + 4);
      }
    }
  }
}
"#;

/// `ijmp` — read the next PC from memory (PC + main-memory access).
pub const IJMP: &str = r#"
import "RV32I.core_desc";
InstructionSet ijmp extends RV32I {
  instructions {
    ijmp {
      encoding: 12'd0 :: rs1[4:0] :: 3'b011 :: 5'b00000 :: 7'b0001011;
      behavior: {
        unsigned<32> a = X[rs1];
        PC = MEM[a+3:a];
      }
    }
  }
}
"#;

/// `sbox` — AES S-Box lookup from a constant custom register (ROM).
pub const SBOX: &str = r#"
import "RV32I.core_desc";
InstructionSet sbox extends RV32I {
  architectural_state {
    register const unsigned<8> SBOX[256] = {
      0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
      0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
      0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
      0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
      0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
      0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
      0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
      0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
      0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
      0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
      0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
      0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
      0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
      0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
      0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
      0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16
    };
  }
  instructions {
    aes_sbox {
      encoding: 12'd0 :: rs1[4:0] :: 3'b100 :: rd[4:0] :: 7'b0001011;
      behavior: {
        X[rd] = (unsigned<32>) SBOX[X[rs1][7:0]];
      }
    }
  }
}
"#;

/// The four SPARKLE round constants used by the `sparkle` ISAX (one
/// Alzette instance per ARX-box branch).
pub const SPARKLE_RCON: [u32; 4] = [0xb7e15162, 0xbf715880, 0x38b4da56, 0x324e7738];

/// `sparkle` — ARX-boxes from the SPARKLE lightweight-cryptography suite:
/// R-type instructions, bit manipulations, helper functions. One
/// `alzette_x<k>` / `alzette_y<k>` instruction pair per round constant
/// computes the x / y output of a full 4-round Alzette instance.
pub fn sparkle_src() -> String {
    let mut body = String::from(
        r#"
import "RV32I.core_desc";
InstructionSet sparkle extends RV32I {
  functions {
    unsigned<32> rotr(unsigned<32> x, unsigned<5> n) {
      return (unsigned<32>)((x >> n) | (x << (unsigned<5>)(32 - n)));
    }
"#,
    );
    for (k, c) in SPARKLE_RCON.iter().enumerate() {
        body.push_str(&format!(
            r#"
    unsigned<32> alzette{k}_x(unsigned<32> xi, unsigned<32> yi) {{
      unsigned<32> x = xi;
      unsigned<32> y = yi;
      x = (unsigned<32>)(x + rotr(y, 31));
      y = (unsigned<32>)(y ^ rotr(x, 24));
      x = (unsigned<32>)(x ^ {c:#x});
      x = (unsigned<32>)(x + rotr(y, 17));
      y = (unsigned<32>)(y ^ rotr(x, 17));
      x = (unsigned<32>)(x ^ {c:#x});
      x = (unsigned<32>)(x + y);
      y = (unsigned<32>)(y ^ rotr(x, 31));
      x = (unsigned<32>)(x ^ {c:#x});
      x = (unsigned<32>)(x + rotr(y, 24));
      y = (unsigned<32>)(y ^ rotr(x, 16));
      x = (unsigned<32>)(x ^ {c:#x});
      return x;
    }}
    unsigned<32> alzette{k}_y(unsigned<32> xi, unsigned<32> yi) {{
      unsigned<32> x = xi;
      unsigned<32> y = yi;
      x = (unsigned<32>)(x + rotr(y, 31));
      y = (unsigned<32>)(y ^ rotr(x, 24));
      x = (unsigned<32>)(x ^ {c:#x});
      x = (unsigned<32>)(x + rotr(y, 17));
      y = (unsigned<32>)(y ^ rotr(x, 17));
      x = (unsigned<32>)(x ^ {c:#x});
      x = (unsigned<32>)(x + y);
      y = (unsigned<32>)(y ^ rotr(x, 31));
      x = (unsigned<32>)(x ^ {c:#x});
      x = (unsigned<32>)(x + rotr(y, 24));
      y = (unsigned<32>)(y ^ rotr(x, 16));
      return y;
    }}
"#
        ));
    }
    body.push_str("  }\n  instructions {\n");
    for k in 0..SPARKLE_RCON.len() {
        body.push_str(&format!(
            r#"
    alzette_x{k} {{
      encoding: 7'd{f7} :: rs2[4:0] :: rs1[4:0] :: 3'b110 :: rd[4:0] :: 7'b0001011;
      behavior: {{
        X[rd] = alzette{k}_x(X[rs1], X[rs2]);
      }}
    }}
    alzette_y{k} {{
      encoding: 7'd{f7} :: rs2[4:0] :: rs1[4:0] :: 3'b111 :: rd[4:0] :: 7'b0001011;
      behavior: {{
        X[rd] = alzette{k}_y(X[rs1], X[rs2]);
      }}
    }}
"#,
            f7 = 2 + k,
        ));
    }
    body.push_str("  }\n}\n");
    body
}

fn sqrt_body(spawn: bool) -> String {
    let core = r#"
        unsigned<64> rem = 0;
        unsigned<64> root = 0;
        unsigned<64> v = x :: 32'd0;
        for (int i = 0; i < 32; i += 1) {
          rem = (unsigned<64>)((rem << 2) | v[63:62]);
          v = (unsigned<64>)(v << 2);
          root = (unsigned<64>)(root << 1);
          unsigned<64> trial = (unsigned<64>)((root << 1) | 1);
          if (trial <= rem) {
            rem = (unsigned<64>)(rem - trial);
            root = (unsigned<64>)(root | 1);
          }
        }
        X[rd] = (unsigned<32>) root;
"#;
    let (open, close) = if spawn { ("spawn {", "}") } else { ("", "") };
    format!(
        r#"
import "RV32I.core_desc";
InstructionSet {unit} extends RV32I {{
  instructions {{
    sqrt {{
      encoding: 12'd2 :: rs1[4:0] :: 3'b001 :: rd[4:0] :: 7'b0001011;
      behavior: {{
        unsigned<32> x = X[rs1];
        {open}
        {core}
        {close}
      }}
    }}
  }}
}}
"#,
        unit = if spawn { "sqrt_decoupled" } else { "sqrt_tightly" },
        open = open,
        core = core,
        close = close,
    )
}

/// `sqrt_tightly` — 32 unrolled digit-recurrence iterations of a
/// fixed-point square root (result is `sqrt(x)` in 16.16 fixed point),
/// executing via the tightly-coupled interfaces.
pub fn sqrt_tightly_src() -> String {
    sqrt_body(false)
}

/// `sqrt_decoupled` — the same computation wrapped in a `spawn`-block,
/// using the decoupled interfaces with automatic hazard handling.
pub fn sqrt_decoupled_src() -> String {
    sqrt_body(true)
}

/// All Table 3 benchmark ISAXes with static sources.
pub const STATIC_ISAXES: [BenchmarkIsax; 5] = [
    BenchmarkIsax {
        name: "autoinc",
        unit: "autoinc",
        source: AUTOINC,
        demonstrates: "custom register and main memory access",
    },
    BenchmarkIsax {
        name: "dotprod",
        unit: "X_DOTP",
        source: DOTPROD,
        demonstrates: "use of loop and bit ranges to concisely describe SIMD behavior",
    },
    BenchmarkIsax {
        name: "ijmp",
        unit: "ijmp",
        source: IJMP,
        demonstrates: "PC and main memory access",
    },
    BenchmarkIsax {
        name: "sbox",
        unit: "sbox",
        source: SBOX,
        demonstrates: "constant custom register",
    },
    BenchmarkIsax {
        name: "zol",
        unit: "zol",
        source: ZOL,
        demonstrates: "PC and custom register access in always-block",
    },
];

/// Table 3's ISAX names, in the paper's order.
const TABLE3: [&str; 8] = [
    "autoinc",
    "dotprod",
    "ijmp",
    "sbox",
    "sparkle",
    "sqrt_tightly",
    "sqrt_decoupled",
    "zol",
];

/// Returns `(name, unit, source)` for every Table 3 ISAX, including the
/// generated sqrt variants.
pub fn all_isaxes() -> Vec<(String, String, String)> {
    TABLE3
        .iter()
        .map(|&name| {
            let (unit, src) = isax_source(name).expect("Table 3 ISAX");
            (name.to_string(), unit, src)
        })
        .collect()
}

/// Looks up a Table 3 ISAX's `(unit, source)` by name, rendering only
/// that one source.
pub fn isax_source(name: &str) -> Option<(String, String)> {
    let src = match name {
        "sparkle" => sparkle_src(),
        "sqrt_tightly" => sqrt_tightly_src(),
        "sqrt_decoupled" => sqrt_decoupled_src(),
        _ => {
            let b = STATIC_ISAXES.iter().find(|b| b.name == name)?;
            return Some((b.unit.to_string(), b.source.to_string()));
        }
    };
    Some((name.to_string(), src))
}

/// Registers an assembler mnemonic for every instruction of `module`.
///
/// Operand convention: `rd`, `rs1`, `rs2` fields (when present, in that
/// order) come first as registers, followed by the remaining immediate
/// fields in encoding order (MSB-first appearance).
///
/// # Errors
///
/// Returns a [`FlowError`] if an encoding cannot be reconstructed.
pub fn register_mnemonics(asm: &mut Assembler, module: &TypedModule) -> Result<(), FlowError> {
    for instr in &module.instructions {
        let encoding = instr.encoding.clone();
        let order = operand_order(&encoding);
        let mnemonic = instr.name.clone();
        let name = instr.name.clone();
        let expected = order.len();
        let order_for_closure = order.clone();
        asm.register_custom(
            &mnemonic,
            Box::new(move |ops: &[Operand]| {
                if ops.len() != expected {
                    return Err(format!(
                        "`{name}` expects {expected} operands, got {}",
                        ops.len()
                    ));
                }
                let mut word = encoding.match_value();
                for (field, op) in order_for_closure.iter().zip(ops) {
                    let value = match (field.is_reg, op) {
                        (true, Operand::Reg(r)) => *r as u64,
                        (true, Operand::Imm(v)) => *v as u64,
                        (false, Operand::Imm(v)) => *v as u64,
                        (false, Operand::Reg(_)) => {
                            return Err(format!(
                                "operand for field `{}` must be an immediate",
                                field.name
                            ))
                        }
                    };
                    for (instr_lo, field_lo, len) in encoding.field_segments(&field.name) {
                        let mask = if len >= 32 { u32::MAX } else { (1u32 << len) - 1 };
                        let bits = ((value >> field_lo) as u32) & mask;
                        word |= bits << instr_lo;
                    }
                }
                Ok(word)
            }),
        );
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct FieldOrder {
    name: String,
    is_reg: bool,
}

fn operand_order(encoding: &Encoding) -> Vec<FieldOrder> {
    let mut order = Vec::new();
    for reg in ["rd", "rs1", "rs2"] {
        if encoding.fields.iter().any(|f| f.name == reg) {
            order.push(FieldOrder {
                name: reg.to_string(),
                is_reg: true,
            });
        }
    }
    for piece in &encoding.pieces {
        if let EncodingPiece::Field { name, .. } = piece {
            if !["rd", "rs1", "rs2"].contains(&name.as_str())
                && !order.iter().any(|f| f.name == *name)
            {
                order.push(FieldOrder {
                    name: name.clone(),
                    is_reg: false,
                });
            }
        }
    }
    order
}
