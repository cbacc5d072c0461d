//! The per-core *virtual datasheet* (paper §3.1, Figure 9).
//!
//! For each sub-interface, the datasheet specifies the **latency** and the
//! temporal availability — **earliest** and **latest** time steps relative
//! to time step 0, the instruction-fetch stage. Longnail feeds these
//! windows into the scheduler as the `earliest`/`latest` operator-type
//! properties; `latest = ∞` on `WrRD`/`RdMem`/`WrMem` unlocks the
//! tightly-coupled and decoupled variants.

use crate::iface::SubInterfaceOp;
use crate::yaml::{Doc, Item};
use std::collections::BTreeMap;

/// Timing of one sub-interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Earliest stage the interface may be used in.
    pub earliest: u32,
    /// Latest *native* stage; `None` means unbounded (∞).
    pub latest: Option<u32>,
    /// Result latency in cycles (reads only; 0 for combinational access).
    pub latency: u32,
}

impl Timing {
    /// Convenience constructor.
    pub fn new(earliest: u32, latest: Option<u32>, latency: u32) -> Self {
        Timing {
            earliest,
            latest,
            latency,
        }
    }
}

/// A core's virtual datasheet.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualDatasheet {
    /// Core name (e.g. `"VexRiscv"`).
    pub core: String,
    /// Number of pipeline stages (1 for FSM-sequenced cores).
    pub stages: u32,
    /// Stage in which in-pipeline results are natively written back.
    pub writeback_stage: u32,
    /// Stage of the core's memory access.
    pub memory_stage: u32,
    /// Per-sub-interface timing, keyed by [`SubInterfaceOp::key`].
    pub entries: BTreeMap<String, Timing>,
    /// Target clock period in ns (0.0 = unspecified). Longnail derives its
    /// per-stage chaining budget from this, standing in for the paper's
    /// planned "actual target-specific technology library" (§4.2).
    pub clock_ns: f64,
}

impl VirtualDatasheet {
    /// Creates an empty datasheet.
    pub fn new(core: &str, stages: u32, writeback_stage: u32, memory_stage: u32) -> Self {
        VirtualDatasheet {
            core: core.to_string(),
            stages,
            writeback_stage,
            memory_stage,
            entries: BTreeMap::new(),
            clock_ns: 0.0,
        }
    }

    /// Sets the timing for a sub-interface.
    pub fn set(&mut self, op: SubInterfaceOp, timing: Timing) -> &mut Self {
        self.entries.insert(op.key(), timing);
        self
    }

    /// Looks up the timing for a sub-interface. Custom-register interfaces
    /// fall back to the generic `RdCustReg`/`WrCustReg` entries when no
    /// per-register entry exists (SCAIE-V creates these on demand with
    /// uniform timing).
    pub fn timing(&self, op: &SubInterfaceOp) -> Option<Timing> {
        if let Some(t) = self.entries.get(&op.key()) {
            return Some(*t);
        }
        let generic = match op {
            SubInterfaceOp::RdCustReg { .. } => "RdCustReg",
            SubInterfaceOp::WrCustRegAddr { .. } => "WrCustReg.addr",
            SubInterfaceOp::WrCustRegData { .. } => "WrCustReg.data",
            _ => return None,
        };
        self.entries.get(generic).copied()
    }

    /// Renders the datasheet in the Figure 9 YAML format.
    pub fn to_yaml(&self) -> String {
        let mut doc = Doc::default();
        doc.items.push(Item::Scalar {
            key: "core".into(),
            value: self.core.clone(),
        });
        doc.items.push(Item::Scalar {
            key: "stages".into(),
            value: self.stages.to_string(),
        });
        doc.items.push(Item::Scalar {
            key: "writeback stage".into(),
            value: self.writeback_stage.to_string(),
        });
        doc.items.push(Item::Scalar {
            key: "memory stage".into(),
            value: self.memory_stage.to_string(),
        });
        if self.clock_ns > 0.0 {
            // `{}` prints the shortest representation that round-trips.
            doc.items.push(Item::Scalar {
                key: "clock ns".into(),
                value: format!("{}", self.clock_ns),
            });
        }
        let mut items = Vec::new();
        for (key, t) in &self.entries {
            let mut map = BTreeMap::new();
            map.insert("interface".to_string(), key.clone());
            map.insert("earliest".to_string(), t.earliest.to_string());
            map.insert(
                "latest".to_string(),
                t.latest
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "inf".into()),
            );
            map.insert("latency".to_string(), t.latency.to_string());
            items.push(map);
        }
        doc.items.push(Item::List {
            key: "interfaces".into(),
            items,
        });
        doc.render()
    }

    /// Parses a datasheet from the Figure 9 YAML format.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed entry.
    pub fn from_yaml(text: &str) -> Result<VirtualDatasheet, String> {
        let doc = Doc::parse(text)?;
        let scalar_u32 = |key: &str| -> Result<u32, String> {
            doc.scalar(key)
                .ok_or_else(|| format!("missing `{key}`"))?
                .parse()
                .map_err(|_| format!("invalid `{key}`"))
        };
        let mut ds = VirtualDatasheet::new(
            doc.scalar("core").ok_or("missing `core`")?,
            scalar_u32("stages")?,
            scalar_u32("writeback stage")?,
            scalar_u32("memory stage")?,
        );
        if let Some(c) = doc.scalar("clock ns") {
            ds.clock_ns = c.parse().map_err(|_| "invalid `clock ns`")?;
        }
        for map in doc.list("interfaces").unwrap_or(&[]) {
            let key = map
                .get("interface")
                .ok_or("interface entry lacks a name")?
                .clone();
            let earliest: u32 = map
                .get("earliest")
                .ok_or("missing `earliest`")?
                .parse()
                .map_err(|_| "invalid `earliest`")?;
            let latest = match map.get("latest").map(|s| s.as_str()) {
                None | Some("inf") => None,
                Some(v) => Some(v.parse::<u32>().map_err(|_| "invalid `latest`")?),
            };
            let latency: u32 = map
                .get("latency")
                .map(|s| s.parse().map_err(|_| "invalid `latency`"))
                .transpose()?
                .unwrap_or(0);
            ds.entries
                .insert(key, Timing::new(earliest, latest, latency));
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-stage VexRiscv datasheet excerpt shown in Figure 9.
    pub fn vexriscv_like() -> VirtualDatasheet {
        let mut ds = VirtualDatasheet::new("VexRiscv", 5, 4, 3);
        ds.set(SubInterfaceOp::RdInstr, Timing::new(1, Some(4), 0))
            .set(SubInterfaceOp::RdRS1, Timing::new(2, Some(4), 0))
            .set(SubInterfaceOp::RdRS2, Timing::new(2, Some(4), 0))
            .set(SubInterfaceOp::RdPC, Timing::new(1, Some(4), 0))
            .set(SubInterfaceOp::RdMem, Timing::new(3, None, 1))
            .set(SubInterfaceOp::WrRD, Timing::new(2, None, 0))
            .set(SubInterfaceOp::WrPC, Timing::new(1, Some(4), 0))
            .set(SubInterfaceOp::WrMem, Timing::new(3, None, 0));
        ds
    }

    #[test]
    fn yaml_round_trip() {
        let ds = vexriscv_like();
        let text = ds.to_yaml();
        assert!(text.contains("core: VexRiscv"));
        assert!(text.contains("latest: inf"));
        let parsed = VirtualDatasheet::from_yaml(&text).unwrap();
        assert_eq!(parsed, ds);
    }

    #[test]
    fn custom_register_fallback() {
        let mut ds = vexriscv_like();
        ds.entries
            .insert("RdCustReg".into(), Timing::new(2, Some(4), 0));
        ds.entries
            .insert("WrCustReg.data".into(), Timing::new(2, None, 0));
        let t = ds
            .timing(&SubInterfaceOp::RdCustReg {
                reg: "COUNT".into(),
            })
            .unwrap();
        assert_eq!(t.earliest, 2);
        // A per-register override wins.
        ds.entries
            .insert("RdCOUNT".into(), Timing::new(1, Some(4), 0));
        let t = ds
            .timing(&SubInterfaceOp::RdCustReg {
                reg: "COUNT".into(),
            })
            .unwrap();
        assert_eq!(t.earliest, 1);
    }

    #[test]
    fn missing_fields_error() {
        assert!(VirtualDatasheet::from_yaml("core: X\n").is_err());
    }
}
