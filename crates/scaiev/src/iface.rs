//! SCAIE-V sub-interface operations for a 32-bit host core (Table 1).

use std::fmt;

/// The sub-interface operations. Custom-register interfaces are created on
/// demand per register; `reg` carries the register name, and `AW`/`DW` in
/// the signatures come from the register's declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SubInterfaceOp {
    /// Read the full instruction word (`-> i32`).
    RdInstr,
    /// Read the GPR indicated by the rs1 encoding field (`-> i32`).
    RdRS1,
    /// Read the GPR indicated by the rs2 encoding field (`-> i32`).
    RdRS2,
    /// Read a custom register at an index (`iAW index, i1 pred -> iDW`).
    RdCustReg { reg: String },
    /// Read the program counter (`-> i32`).
    RdPC,
    /// Load a word from main memory (`i32 address, i1 pred -> i32`).
    RdMem,
    /// Write the GPR indicated by the rd encoding field (`i32 value, i1 pred`).
    WrRD,
    /// Submit the index for a custom-register write (`iAW index`).
    WrCustRegAddr { reg: String },
    /// Write a custom register at the submitted index (`iDW value, i1 pred`).
    WrCustRegData { reg: String },
    /// Write the program counter (`i32 newPC, i1 pred`).
    WrPC,
    /// Store a word to main memory (`i32 address, i32 value, i1 pred`).
    WrMem,
    /// Query whether an instruction executes in stage `s` (`-> i1`).
    RdIValid { stage: u32 },
    /// Query whether stage `s` is stalled (`-> i1`).
    RdStall { stage: u32 },
    /// Query whether stage `s` is being flushed (`-> i1`).
    RdFlush { stage: u32 },
    /// Stall stage `s` (`i1 pred`).
    WrStall { stage: u32 },
    /// Flush stages zero to `s` (`i1 pred`).
    WrFlush { stage: u32 },
}

impl SubInterfaceOp {
    /// The datasheet key: per-stage signals share one entry family.
    pub fn key(&self) -> String {
        match self {
            SubInterfaceOp::RdInstr => "RdInstr".into(),
            SubInterfaceOp::RdRS1 => "RdRS1".into(),
            SubInterfaceOp::RdRS2 => "RdRS2".into(),
            SubInterfaceOp::RdCustReg { reg } => format!("Rd{reg}"),
            SubInterfaceOp::RdPC => "RdPC".into(),
            SubInterfaceOp::RdMem => "RdMem".into(),
            SubInterfaceOp::WrRD => "WrRD".into(),
            SubInterfaceOp::WrCustRegAddr { reg } => format!("Wr{reg}.addr"),
            SubInterfaceOp::WrCustRegData { reg } => format!("Wr{reg}.data"),
            SubInterfaceOp::WrPC => "WrPC".into(),
            SubInterfaceOp::WrMem => "WrMem".into(),
            SubInterfaceOp::RdIValid { stage } => format!("RdIValid_{stage}"),
            SubInterfaceOp::RdStall { stage } => format!("RdStall_{stage}"),
            SubInterfaceOp::RdFlush { stage } => format!("RdFlush_{stage}"),
            SubInterfaceOp::WrStall { stage } => format!("WrStall_{stage}"),
            SubInterfaceOp::WrFlush { stage } => format!("WrFlush_{stage}"),
        }
    }

    /// True for operations that mutate architectural state.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            SubInterfaceOp::WrRD
                | SubInterfaceOp::WrCustRegAddr { .. }
                | SubInterfaceOp::WrCustRegData { .. }
                | SubInterfaceOp::WrPC
                | SubInterfaceOp::WrMem
                | SubInterfaceOp::WrStall { .. }
                | SubInterfaceOp::WrFlush { .. }
        )
    }

    /// True for the per-stage stall/flush signals, which are exempt from
    /// the once-per-instruction rule (they may be instantiated per stage).
    pub fn is_per_stage(&self) -> bool {
        matches!(
            self,
            SubInterfaceOp::RdIValid { .. }
                | SubInterfaceOp::RdStall { .. }
                | SubInterfaceOp::RdFlush { .. }
                | SubInterfaceOp::WrStall { .. }
                | SubInterfaceOp::WrFlush { .. }
        )
    }

    /// Parses a datasheet key back into an operation (custom-register keys
    /// resolve to `RdCustReg`/`WrCustReg*`).
    pub fn from_key(key: &str) -> Option<SubInterfaceOp> {
        let fixed = match key {
            "RdInstr" => Some(SubInterfaceOp::RdInstr),
            "RdRS1" => Some(SubInterfaceOp::RdRS1),
            "RdRS2" => Some(SubInterfaceOp::RdRS2),
            "RdPC" => Some(SubInterfaceOp::RdPC),
            "RdMem" => Some(SubInterfaceOp::RdMem),
            "WrRD" => Some(SubInterfaceOp::WrRD),
            "WrPC" => Some(SubInterfaceOp::WrPC),
            "WrMem" => Some(SubInterfaceOp::WrMem),
            _ => None,
        };
        if fixed.is_some() {
            return fixed;
        }
        for (prefix, make) in [
            ("RdIValid_", 0usize),
            ("RdStall_", 1),
            ("RdFlush_", 2),
            ("WrStall_", 3),
            ("WrFlush_", 4),
        ] {
            if let Some(rest) = key.strip_prefix(prefix) {
                let stage: u32 = rest.parse().ok()?;
                return Some(match make {
                    0 => SubInterfaceOp::RdIValid { stage },
                    1 => SubInterfaceOp::RdStall { stage },
                    2 => SubInterfaceOp::RdFlush { stage },
                    3 => SubInterfaceOp::WrStall { stage },
                    _ => SubInterfaceOp::WrFlush { stage },
                });
            }
        }
        if let Some(rest) = key.strip_prefix("Wr") {
            if let Some(reg) = rest.strip_suffix(".addr") {
                return Some(SubInterfaceOp::WrCustRegAddr {
                    reg: reg.to_string(),
                });
            }
            if let Some(reg) = rest.strip_suffix(".data") {
                return Some(SubInterfaceOp::WrCustRegData {
                    reg: reg.to_string(),
                });
            }
        }
        if let Some(reg) = key.strip_prefix("Rd") {
            if !reg.is_empty() {
                return Some(SubInterfaceOp::RdCustReg {
                    reg: reg.to_string(),
                });
            }
        }
        None
    }
}

impl fmt::Display for SubInterfaceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        let ops = [
            SubInterfaceOp::RdInstr,
            SubInterfaceOp::RdRS1,
            SubInterfaceOp::RdRS2,
            SubInterfaceOp::RdPC,
            SubInterfaceOp::RdMem,
            SubInterfaceOp::WrRD,
            SubInterfaceOp::WrPC,
            SubInterfaceOp::WrMem,
            SubInterfaceOp::RdCustReg {
                reg: "COUNT".into(),
            },
            SubInterfaceOp::WrCustRegAddr {
                reg: "COUNT".into(),
            },
            SubInterfaceOp::WrCustRegData {
                reg: "COUNT".into(),
            },
            SubInterfaceOp::RdIValid { stage: 3 },
            SubInterfaceOp::WrStall { stage: 2 },
            SubInterfaceOp::WrFlush { stage: 4 },
        ];
        for op in ops {
            assert_eq!(SubInterfaceOp::from_key(&op.key()), Some(op.clone()));
        }
    }

    #[test]
    fn write_and_per_stage_classification() {
        assert!(SubInterfaceOp::WrRD.is_write());
        assert!(!SubInterfaceOp::RdRS1.is_write());
        assert!(SubInterfaceOp::WrStall { stage: 1 }.is_per_stage());
        assert!(!SubInterfaceOp::WrMem.is_per_stage());
    }
}
