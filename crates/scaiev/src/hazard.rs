//! Data-hazard handling for decoupled execution (paper §3.2).
//!
//! When an instruction enters a `spawn`-block, subsequent instructions may
//! overtake it in the base pipeline. SCAIE-V generates a tailored,
//! lightweight scoreboard that (a) stalls the issue of instructions that
//! read or write a GPR with a pending decoupled write, and (b) stalls the
//! base pipeline for one cycle at decoupled write-back to avoid port
//! conflicts. This module is that scoreboard's behavioral model, used
//! directly by the cycle-level core simulations.

/// A pending decoupled result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWrite {
    /// Tag identifying the in-flight decoupled instruction.
    pub tag: u64,
    /// Destination GPR index (None for non-GPR state, e.g. custom regs,
    /// which SCAIE-V tracks with the same mechanism).
    pub rd: Option<u32>,
    /// Pending custom-register name, if any.
    pub custom: Option<String>,
    /// Cycles remaining until the result is ready to commit.
    pub remaining: u32,
}

/// The scoreboard model.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    pending: Vec<PendingWrite>,
    next_tag: u64,
    /// True when hazard handling is disabled (the paper's "without
    /// data-hazard handling" ablation row in Table 4) — issue is never
    /// blocked and correctness becomes the compiler's/programmer's burden.
    pub hazard_handling: bool,
}

impl Scoreboard {
    /// Creates a scoreboard with hazard handling enabled.
    pub fn new() -> Self {
        Scoreboard {
            hazard_handling: true,
            ..Scoreboard::default()
        }
    }

    /// Creates the ablation variant without hazard detection.
    pub fn without_hazard_handling() -> Self {
        Scoreboard {
            hazard_handling: false,
            ..Scoreboard::default()
        }
    }

    /// Registers a decoupled instruction with `latency` cycles to go.
    /// Returns its tag.
    pub fn dispatch(&mut self, rd: Option<u32>, custom: Option<String>, latency: u32) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.push(PendingWrite {
            tag,
            rd,
            custom,
            remaining: latency,
        });
        tag
    }

    /// True if issuing an instruction reading `rs1`/`rs2` and writing `rd`
    /// must stall due to a pending decoupled write (RAW/WAW on the GPR).
    /// Writes to x0 never conflict.
    pub fn issue_blocked(&self, rs1: Option<u32>, rs2: Option<u32>, rd: Option<u32>) -> bool {
        if !self.hazard_handling {
            return false;
        }
        self.pending.iter().any(|p| {
            p.rd.map(|prd| prd != 0 && (rs1 == Some(prd) || rs2 == Some(prd) || rd == Some(prd)))
                .unwrap_or(false)
        })
    }

    /// True if an instruction touching the named custom register must
    /// stall.
    pub fn custom_blocked(&self, reg: &str) -> bool {
        if !self.hazard_handling {
            return false;
        }
        self.pending
            .iter()
            .any(|p| p.custom.as_deref() == Some(reg))
    }

    /// Advances one cycle; returns the tags whose results become ready this
    /// cycle (they then commit, costing the base pipeline one stall cycle
    /// each for the write-back port, per §3.2).
    pub fn tick(&mut self) -> Vec<u64> {
        let mut ready = Vec::new();
        for p in &mut self.pending {
            if p.remaining == 0 {
                ready.push(p.tag);
            } else {
                p.remaining -= 1;
                if p.remaining == 0 {
                    ready.push(p.tag);
                }
            }
        }
        self.pending.retain(|p| !ready.contains(&p.tag));
        ready
    }

    /// True if any instruction is pending (the pipeline cannot retire the
    /// ISAX context yet).
    pub fn is_busy(&self) -> bool {
        !self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_hazard_blocks_issue() {
        let mut sb = Scoreboard::new();
        sb.dispatch(Some(5), None, 8);
        assert!(sb.issue_blocked(Some(5), None, None)); // RAW
        assert!(sb.issue_blocked(None, Some(5), None)); // RAW via rs2
        assert!(sb.issue_blocked(None, None, Some(5))); // WAW
        assert!(!sb.issue_blocked(Some(4), Some(6), Some(7)));
    }

    #[test]
    fn x0_never_conflicts() {
        let mut sb = Scoreboard::new();
        sb.dispatch(Some(0), None, 4);
        assert!(!sb.issue_blocked(Some(0), None, Some(0)));
    }

    #[test]
    fn results_become_ready_after_latency() {
        let mut sb = Scoreboard::new();
        let tag = sb.dispatch(Some(3), None, 3);
        assert!(sb.tick().is_empty());
        assert!(sb.tick().is_empty());
        assert_eq!(sb.tick(), vec![tag]);
        assert!(!sb.is_busy());
        assert!(!sb.issue_blocked(Some(3), None, None));
    }

    #[test]
    fn zero_latency_dispatch_is_ready_immediately() {
        let mut sb = Scoreboard::new();
        let tag = sb.dispatch(Some(3), None, 0);
        assert_eq!(sb.tick(), vec![tag]);
    }

    #[test]
    fn custom_register_hazards() {
        let mut sb = Scoreboard::new();
        sb.dispatch(None, Some("ACC".into()), 2);
        assert!(sb.custom_blocked("ACC"));
        assert!(!sb.custom_blocked("OTHER"));
        sb.tick();
        sb.tick();
        assert!(!sb.custom_blocked("ACC"));
    }

    #[test]
    fn ablation_disables_blocking() {
        let mut sb = Scoreboard::without_hazard_handling();
        sb.dispatch(Some(5), None, 8);
        assert!(!sb.issue_blocked(Some(5), None, Some(5)));
        assert!(!sb.custom_blocked("ACC"));
        assert!(sb.is_busy());
    }
}
