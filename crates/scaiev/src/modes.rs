//! Execution modes (paper §3.2) and the post-scheduling variant selection
//! rule (paper §4.3).

use crate::datasheet::Timing;
use std::fmt;

/// How an interface use (and, by extension, an instruction) executes
/// relative to the base pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// All interface operations execute during their native availability in
    /// the base core's stages; the instruction behaves as if it were part
    /// of the pipeline.
    InPipeline,
    /// The instruction runs longer than the pipeline; SCAIE-V stalls the
    /// base core until it finishes. Negligible hardware overhead, but the
    /// host core idles.
    TightlyCoupled,
    /// The instruction runs decoupled (requested via `spawn`); SCAIE-V
    /// generates scoreboard logic for hazard-free out-of-order commit.
    Decoupled,
    /// Continuous execution independent of the fetched instruction stream
    /// (`always`-blocks); state updates carry mandatory valid bits and are
    /// exempt from hazard handling.
    Always,
}

impl ExecutionMode {
    /// Parses the lowercase config-file spelling.
    pub fn parse(s: &str) -> Option<ExecutionMode> {
        match s {
            "in-pipeline" => Some(ExecutionMode::InPipeline),
            "tightly-coupled" => Some(ExecutionMode::TightlyCoupled),
            "decoupled" => Some(ExecutionMode::Decoupled),
            "always" => Some(ExecutionMode::Always),
            _ => None,
        }
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecutionMode::InPipeline => "in-pipeline",
            ExecutionMode::TightlyCoupled => "tightly-coupled",
            ExecutionMode::Decoupled => "decoupled",
            ExecutionMode::Always => "always",
        };
        f.write_str(s)
    }
}

/// Selects the sub-interface variant after scheduling (paper §4.3):
///
/// * within the native window → **in-pipeline**;
/// * otherwise, inside a `spawn`-block → **decoupled**;
/// * otherwise → **tightly-coupled**.
///
/// `native_latest` is the stage up to which the core natively supports the
/// interface (the write-back stage for `WrRD`); `timing.latest = None`
/// marks interfaces whose schedule window is unbounded but whose *native*
/// window still ends at `native_latest`.
pub fn select_mode(
    scheduled_stage: u32,
    timing: Timing,
    native_latest: u32,
    in_spawn: bool,
    is_always_block: bool,
) -> ExecutionMode {
    if is_always_block {
        return ExecutionMode::Always;
    }
    let native_end = timing.latest.unwrap_or(native_latest).min(native_latest);
    if scheduled_stage >= timing.earliest && scheduled_stage <= native_end {
        ExecutionMode::InPipeline
    } else if in_spawn {
        ExecutionMode::Decoupled
    } else {
        ExecutionMode::TightlyCoupled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasheet::Timing;

    #[test]
    fn in_window_is_in_pipeline() {
        let t = Timing::new(2, None, 0);
        assert_eq!(
            select_mode(3, t, 4, false, false),
            ExecutionMode::InPipeline
        );
        assert_eq!(select_mode(4, t, 4, true, false), ExecutionMode::InPipeline);
    }

    #[test]
    fn late_spawn_is_decoupled() {
        let t = Timing::new(2, None, 0);
        assert_eq!(select_mode(9, t, 4, true, false), ExecutionMode::Decoupled);
    }

    #[test]
    fn late_without_spawn_is_tightly_coupled() {
        let t = Timing::new(2, None, 0);
        assert_eq!(
            select_mode(9, t, 4, false, false),
            ExecutionMode::TightlyCoupled
        );
    }

    #[test]
    fn always_blocks_always_select_always() {
        let t = Timing::new(0, Some(0), 0);
        assert_eq!(select_mode(0, t, 4, false, true), ExecutionMode::Always);
    }

    #[test]
    fn mode_strings_round_trip() {
        for m in [
            ExecutionMode::InPipeline,
            ExecutionMode::TightlyCoupled,
            ExecutionMode::Decoupled,
            ExecutionMode::Always,
        ] {
            assert_eq!(ExecutionMode::parse(&m.to_string()), Some(m));
        }
        assert_eq!(ExecutionMode::parse("bogus"), None);
    }
}
