//! Deterministic, config-driven fault injection for batch robustness.
//!
//! A [`FaultPlan`] tells the driver to break specific matrix cells on
//! purpose — a forced panic at one of the nine pipeline stage
//! boundaries, a forced parse error, solver-budget exhaustion, or a
//! poisoned frontend slot of the shared stage store — so the graceful-
//! degradation machinery (per-cell isolation, `--keep-going`, partial
//! exit codes) can be exercised and regression-tested without relying on
//! real compiler bugs. Injection is keyed on the `(unit, core)` cell, so
//! a plan breaks exactly the cells it names and nothing else.
//!
//! Plans are parsed from a line-oriented text format (one fault per
//! line), which is what `lnc --fault-plan <path>` reads:
//!
//! ```text
//! # unit@core  kind[@stage]
//! X_DOTP@ORCA        panic@rtl
//! ZolIsax@Piccolo    parse-error
//! SboxIsax@VexRiscv  budget-exhaustion
//! AutoIncIsax@*      poison-cache
//! ```
//!
//! `*` is a wildcard for either coordinate. The stage suffix is only
//! meaningful for `panic` (one of [`telemetry::STAGES`]; default
//! `solve`); the other kinds imply their stage (`parse-error` and
//! `poison-cache` hit the frontend, `budget-exhaustion` hits the
//! solver).

use std::fmt;

/// What kind of failure to inject into a matching cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at a stage-span boundary; exercises per-cell panic
    /// isolation (`Severity::Fault`, exit code 2 territory).
    Panic,
    /// Forced coded parse error from the frontend; exercises the
    /// cache-bypassing error path (`Severity::Error`).
    ParseError,
    /// Solver work budget exhausted before a schedule exists; the cell's
    /// first unit fails with a `solve`-stage error.
    BudgetExhaustion,
    /// The shared frontend-cache entry mutex is genuinely poisoned (a
    /// panic while holding the lock); this cell fails, peers sharing the
    /// entry must recover.
    PoisonCache,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "panic" => FaultKind::Panic,
            "parse-error" => FaultKind::ParseError,
            "budget-exhaustion" => FaultKind::BudgetExhaustion,
            "poison-cache" => FaultKind::PoisonCache,
            _ => return None,
        })
    }

    /// The plan-file spelling of this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::ParseError => "parse-error",
            FaultKind::BudgetExhaustion => "budget-exhaustion",
            FaultKind::PoisonCache => "poison-cache",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One injected fault: which cell, what kind, and (for panics) at which
/// pipeline stage boundary it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// CoreDSL unit name the cell elaborates (`*` matches any).
    pub unit: String,
    /// Target core name (`*` matches any).
    pub core: String,
    /// Stage boundary the fault fires at, one of [`telemetry::STAGES`].
    pub stage: &'static str,
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Whether this fault applies to the `(unit, core)` cell.
    pub fn matches(&self, unit: &str, core: &str) -> bool {
        (self.unit == "*" || self.unit == unit) && (self.core == "*" || self.core == core)
    }
}

/// A deterministic set of faults to inject into one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with a single fault — the shape the chaos tests sweep.
    pub fn single(unit: &str, core: &str, kind: FaultKind, stage: &str) -> Result<Self, String> {
        Ok(FaultPlan {
            faults: vec![FaultSpec {
                unit: unit.to_string(),
                core: core.to_string(),
                stage: canonical_stage(kind, Some(stage))?,
                kind,
            }],
        })
    }

    /// Parses the line-oriented plan format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let cell = parts.next().expect("non-empty line has a first token");
            let Some(kind_spec) = parts.next() else {
                return Err(format!("line {}: expected `unit@core kind[@stage]`", n + 1));
            };
            if parts.next().is_some() {
                return Err(format!("line {}: trailing tokens after the fault kind", n + 1));
            }
            let Some((unit, core)) = cell.split_once('@') else {
                return Err(format!("line {}: cell must be `unit@core`", n + 1));
            };
            if unit.is_empty() || core.is_empty() {
                return Err(format!("line {}: empty unit or core in `{cell}`", n + 1));
            }
            let (kind_str, stage) = match kind_spec.split_once('@') {
                Some((k, s)) => (k, Some(s)),
                None => (kind_spec, None),
            };
            let Some(kind) = FaultKind::parse(kind_str) else {
                return Err(format!(
                    "line {}: unknown fault kind `{kind_str}` (known: panic, \
                     parse-error, budget-exhaustion, poison-cache)",
                    n + 1
                ));
            };
            faults.push(FaultSpec {
                unit: unit.to_string(),
                core: core.to_string(),
                stage: canonical_stage(kind, stage).map_err(|e| format!("line {}: {e}", n + 1))?,
                kind,
            });
        }
        Ok(FaultPlan { faults })
    }

    /// The first fault of `kind` that applies to the `(unit, core)` cell.
    pub fn fault(&self, unit: &str, core: &str, kind: FaultKind) -> Option<&FaultSpec> {
        self.faults
            .iter()
            .find(|f| f.kind == kind && f.matches(unit, core))
    }

    /// Whether a panic is planned for this cell at this stage boundary.
    pub fn panic_at(&self, unit: &str, core: &str, stage: &str) -> bool {
        self.faults
            .iter()
            .any(|f| f.kind == FaultKind::Panic && f.stage == stage && f.matches(unit, core))
    }

    /// Whether *any* fault targets the `(unit, core)` cell. A targeted
    /// cell's backend runs on a private stage store and the persistent
    /// layer skips it: an injected failure must stay in its cell and never
    /// pollute a content-keyed entry a healthy run would later trust.
    pub fn targets_cell(&self, unit: &str, core: &str) -> bool {
        self.faults.iter().any(|f| f.matches(unit, core))
    }
}

/// Resolves the stage a fault fires at: panics take any pipeline stage
/// (defaulting to `solve`); the other kinds have a fixed stage and
/// reject contradictory suffixes.
fn canonical_stage(kind: FaultKind, stage: Option<&str>) -> Result<&'static str, String> {
    let implied = match kind {
        FaultKind::Panic => {
            let want = stage.unwrap_or("solve");
            return telemetry::STAGES
                .iter()
                .find(|s| **s == want)
                .copied()
                .ok_or_else(|| {
                    format!(
                        "`{want}` is not a pipeline stage (known: {})",
                        telemetry::STAGES.join(", ")
                    )
                });
        }
        FaultKind::ParseError | FaultKind::PoisonCache => "frontend",
        FaultKind::BudgetExhaustion => "solve",
    };
    match stage {
        None => Ok(implied),
        Some(s) if s == implied => Ok(implied),
        Some(s) => Err(format!("`{kind}` always fires at `{implied}`, not `{s}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let plan = FaultPlan::parse(
            "# comment\n\
             X_DOTP@ORCA panic@rtl\n\
             \n\
             ZolIsax@Piccolo parse-error\n\
             SboxIsax@VexRiscv budget-exhaustion\n\
             AutoIncIsax@* poison-cache\n",
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(plan.faults[0].kind, FaultKind::Panic);
        assert_eq!(plan.faults[0].stage, "rtl");
        assert_eq!(plan.faults[1].stage, "frontend");
        assert_eq!(plan.faults[2].stage, "solve");
        assert!(plan.faults[3].matches("AutoIncIsax", "PicoRV32"));
        assert!(!plan.faults[3].matches("ZolIsax", "PicoRV32"));
    }

    #[test]
    fn wildcards_and_lookups_match_cells() {
        let plan = FaultPlan::parse("*@ORCA panic@verilog\nU@* budget-exhaustion\n").unwrap();
        assert!(plan.panic_at("anything", "ORCA", "verilog"));
        assert!(!plan.panic_at("anything", "ORCA", "rtl"));
        assert!(!plan.panic_at("anything", "Piccolo", "verilog"));
        assert!(plan.fault("U", "Piccolo", FaultKind::BudgetExhaustion).is_some());
        assert!(plan.fault("V", "Piccolo", FaultKind::BudgetExhaustion).is_none());
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        assert!(FaultPlan::parse("justone\n").unwrap_err().contains("line 1"));
        assert!(FaultPlan::parse("a@b frobnicate\n").unwrap_err().contains("frobnicate"));
        assert!(FaultPlan::parse("a@b panic@nosuch\n")
            .unwrap_err()
            .contains("not a pipeline stage"));
        assert!(FaultPlan::parse("a@b parse-error@rtl\n")
            .unwrap_err()
            .contains("always fires at `frontend`"));
        assert!(FaultPlan::parse("@b panic\n").unwrap_err().contains("empty"));
        assert!(FaultPlan::parse("a@b panic extra\n")
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn default_panic_stage_is_solve() {
        let plan = FaultPlan::parse("u@c panic\n").unwrap();
        assert_eq!(plan.faults[0].stage, "solve");
        assert!(FaultPlan::single("u", "c", FaultKind::Panic, "modes")
            .unwrap()
            .panic_at("u", "c", "modes"));
    }
}
