//! SCAIE-V: the scalable, adaptive ISA-extension interface generator
//! (paper §3, building on Damian et al., DAC'22).
//!
//! SCAIE-V is the vendor-neutral abstraction between Longnail-generated
//! ISAX hardware and concrete host-core microarchitectures. This crate
//! implements:
//!
//! * [`iface`] — the sub-interface operations of Table 1,
//! * [`datasheet`] — the per-core *virtual datasheet*: earliest/latest
//!   availability and latency of each sub-interface, exchanged as YAML
//!   (Figure 9),
//! * [`config`] — the ISAX configuration file Longnail emits for SCAIE-V
//!   (Figure 8): custom-register requests, encodings, and the computed
//!   interface schedule,
//! * [`modes`] — the execution modes of §3.2 (in-pipeline, tightly-coupled,
//!   decoupled, always) and the post-scheduling selection rule of §4.3,
//! * [`hazard`] — the scoreboard used for automatic data-hazard resolution
//!   in decoupled mode,
//! * [`integrate`] — sizing of the generated interface logic (muxes,
//!   scoreboard, custom register files) consumed by the ASIC cost model.

pub mod config;
pub mod datasheet;
pub mod hazard;
pub mod iface;
pub mod integrate;
pub mod modes;
pub mod yaml;

pub use config::{IsaxConfig, RegisterRequest, ScheduleEntry};
pub use datasheet::{Timing, VirtualDatasheet};
pub use iface::SubInterfaceOp;
pub use modes::ExecutionMode;
