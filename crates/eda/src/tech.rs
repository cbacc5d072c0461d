//! The 22 nm-class technology model.
//!
//! Cell areas are expressed in gate equivalents (GE, the area of a NAND2)
//! and converted at a 22 nm-typical 0.15 µm²/GE. Delays are in ns. The
//! constants are calibrated so that a 32-bit adder costs ≈ 26 µm² and
//! ≈ 0.21 ns, in line with published 22FDX standard-cell results — close
//! enough for the *relative* Table 4 shapes this model must reproduce.

use rtl::netlist::CombOp;

/// Area of one gate equivalent in µm².
pub const UM2_PER_GE: f64 = 0.15;

/// The cell library model.
#[derive(Debug, Clone)]
pub struct TechLibrary {
    /// µm² per gate equivalent.
    pub um2_per_ge: f64,
}

impl Default for TechLibrary {
    fn default() -> Self {
        TechLibrary {
            um2_per_ge: UM2_PER_GE,
        }
    }
}

fn log2_ceil(w: u32) -> f64 {
    (w.max(2) as f64).log2().ceil()
}

impl TechLibrary {
    /// Creates the default 22 nm-class library.
    pub fn new() -> Self {
        TechLibrary::default()
    }

    /// Gate-equivalent area of a combinational operator at width `w`.
    pub fn comb_area_ge(&self, op: CombOp, w: u32) -> f64 {
        let w = w as f64;
        match op {
            CombOp::Add | CombOp::Sub => 5.5 * w,
            CombOp::Mul => 2.2 * w * w,
            CombOp::DivU | CombOp::DivS | CombOp::RemU | CombOp::RemS => 14.0 * w * w,
            CombOp::And | CombOp::Or | CombOp::Xor => 1.4 * w,
            CombOp::Not => 0.7 * w,
            CombOp::Shl | CombOp::ShrU | CombOp::ShrS | CombOp::ExtractDyn => {
                2.2 * w * log2_ceil(w as u32)
            }
            CombOp::Eq | CombOp::Ne => 1.6 * w,
            CombOp::Ult | CombOp::Ule | CombOp::Slt | CombOp::Sle => 3.0 * w,
            CombOp::Mux => 2.2 * w,
            // Pure wiring.
            CombOp::Concat
            | CombOp::Replicate
            | CombOp::Extract
            | CombOp::ZExt
            | CombOp::SExt
            | CombOp::Trunc => 0.0,
        }
    }

    /// Propagation delay (ns) of a combinational operator at width `w`.
    pub fn comb_delay_ns(&self, op: CombOp, w: u32) -> f64 {
        match op {
            CombOp::Add | CombOp::Sub => 0.06 + 0.030 * log2_ceil(w),
            CombOp::Mul => 0.12 + 0.055 * log2_ceil(w),
            CombOp::DivU | CombOp::DivS | CombOp::RemU | CombOp::RemS => {
                0.25 * w as f64 * 0.1 + 1.0
            }
            CombOp::And | CombOp::Or | CombOp::Xor => 0.025,
            CombOp::Not => 0.012,
            CombOp::Shl | CombOp::ShrU | CombOp::ShrS | CombOp::ExtractDyn => 0.035 * log2_ceil(w),
            CombOp::Eq | CombOp::Ne => 0.04 + 0.018 * log2_ceil(w),
            CombOp::Ult | CombOp::Ule | CombOp::Slt | CombOp::Sle => 0.05 + 0.026 * log2_ceil(w),
            CombOp::Mux => 0.035,
            CombOp::Concat
            | CombOp::Replicate
            | CombOp::Extract
            | CombOp::ZExt
            | CombOp::SExt
            | CombOp::Trunc => 0.0,
        }
    }

    /// Flip-flop area in GE per bit (with clock-enable mux where used).
    pub fn register_area_ge(&self, bits: u64, with_enable: bool) -> f64 {
        let per_bit = if with_enable { 6.7 } else { 4.5 };
        per_bit * bits as f64
    }

    /// ROM area in GE (NAND-array style).
    pub fn rom_area_ge(&self, bits: u64) -> f64 {
        0.35 * bits as f64
    }

    /// ROM access delay in ns.
    pub fn rom_delay_ns(&self, bits: u64) -> f64 {
        0.12 + 0.02 * (bits.max(2) as f64).log2()
    }

    /// Converts GE to µm².
    pub fn ge_to_um2(&self, ge: f64) -> f64 {
        ge * self.um2_per_ge
    }
}

/// Per-core ASIC integration profile.
///
/// `base_area_um2` and `base_fmax_mhz` are the measured base-core values
/// from Table 4's first row — they calibrate the model and are *inputs*,
/// not reproduced results. The coupling parameters describe
/// microarchitectural structure: how much of the base cycle the forwarding
/// network already consumes (the §5.4 ORCA observation), and how strictly
/// the core's pipeline forces ISAX logic into fixed stage budgets.
#[derive(Debug, Clone)]
pub struct CoreAsicProfile {
    pub name: &'static str,
    /// Base core area, caches excluded (µm², Table 4).
    pub base_area_um2: f64,
    /// Base core fmax (MHz, Table 4).
    pub base_fmax_mhz: f64,
    /// Fraction of the base cycle consumed by the result-forwarding path
    /// that late ISAX writes are muxed into. High for ORCA (WB→EX
    /// forwarding with operands read late), 0 for cores without such a
    /// path into the ISAX result stage.
    pub fwd_path_fraction: f64,
    /// How strongly timing pressure inflates area (synthesis-effort
    /// duplication, §5.4). Dimensionless multiplier slope.
    pub effort_slope: f64,
    /// Fixed interface-plumbing delay added to ISAX result paths (mux +
    /// routing into the core), ns.
    pub integration_mux_ns: f64,
}

impl CoreAsicProfile {
    /// Base clock period in ns.
    pub fn base_period_ns(&self) -> f64 {
        1000.0 / self.base_fmax_mhz
    }

    /// The four evaluation cores (Table 4 base row).
    pub fn for_core(name: &str) -> Option<CoreAsicProfile> {
        Some(match name {
            "ORCA" => CoreAsicProfile {
                name: "ORCA",
                base_area_um2: 6612.0,
                base_fmax_mhz: 996.0,
                // Operands in stage 3, write-back expected in stage 4, and a
                // forwarding path from the last stage back to stage 3 (§5.4):
                // ISAX logic scheduled in the last stage sits on that path.
                fwd_path_fraction: 0.62,
                effort_slope: 1.45,
                integration_mux_ns: 0.07,
            },
            "Piccolo" => CoreAsicProfile {
                name: "Piccolo",
                base_area_um2: 26098.0,
                base_fmax_mhz: 420.0,
                fwd_path_fraction: 0.30,
                effort_slope: 1.0,
                integration_mux_ns: 0.09,
            },
            "PicoRV32" => CoreAsicProfile {
                name: "PicoRV32",
                base_area_um2: 4745.0,
                base_fmax_mhz: 1278.0,
                // FSM-sequenced: no forwarding network; results are
                // registered before entering the core.
                fwd_path_fraction: 0.0,
                effort_slope: 1.1,
                integration_mux_ns: 0.05,
            },
            "VexRiscv" => CoreAsicProfile {
                name: "VexRiscv",
                base_area_um2: 9052.0,
                base_fmax_mhz: 701.0,
                fwd_path_fraction: 0.35,
                effort_slope: 0.9,
                integration_mux_ns: 0.07,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_calibration() {
        let lib = TechLibrary::new();
        let area = lib.ge_to_um2(lib.comb_area_ge(CombOp::Add, 32));
        assert!((20.0..35.0).contains(&area), "32-bit adder {area} µm²");
        let delay = lib.comb_delay_ns(CombOp::Add, 32);
        assert!((0.15..0.3).contains(&delay), "32-bit adder {delay} ns");
    }

    #[test]
    fn multiplier_dominates_adder() {
        let lib = TechLibrary::new();
        assert!(lib.comb_area_ge(CombOp::Mul, 32) > 5.0 * lib.comb_area_ge(CombOp::Add, 32));
        assert!(lib.comb_delay_ns(CombOp::Mul, 32) > lib.comb_delay_ns(CombOp::Add, 32));
    }

    #[test]
    fn wiring_is_free() {
        let lib = TechLibrary::new();
        assert_eq!(lib.comb_area_ge(CombOp::Concat, 64), 0.0);
        assert_eq!(lib.comb_delay_ns(CombOp::ZExt, 64), 0.0);
    }

    #[test]
    fn profiles_match_table4_base_row() {
        let orca = CoreAsicProfile::for_core("ORCA").unwrap();
        assert_eq!(orca.base_area_um2, 6612.0);
        assert_eq!(orca.base_fmax_mhz, 996.0);
        let pico = CoreAsicProfile::for_core("PicoRV32").unwrap();
        assert!((pico.base_period_ns() - 0.7825).abs() < 1e-3);
        assert!(CoreAsicProfile::for_core("bogus").is_none());
    }
}
