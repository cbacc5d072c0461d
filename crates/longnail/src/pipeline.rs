//! Query-style incremental pipeline plumbing.
//!
//! Each of the nine telemetry stages (frontend / lower / problem / solve
//! / modes / rtl / opt / verilog / config) is a *query*: a pure function
//! of a content-addressed key. Keys chain Merkle-style —
//!
//! ```text
//! frontend_key = H(unit ‖ source)                    (lower rides along)
//! cfg_key      = H(datasheet ‖ clock ‖ chain ‖ work-limit ‖ config-fp)
//! graph_key    = H(frontend_key ‖ graph-index ‖ graph-name)
//! problem_key  = H("problem" ‖ graph_key ‖ cfg_key)
//! solve_key    = H("solve" ‖ problem_key)
//! modes_key    = H("modes" ‖ solve_key)
//! rtl_key      = H("rtl" ‖ solve_key)
//! opt_key      = H("opt" ‖ rtl_key)                   (above -O0 only)
//! verilog_key  = H("verilog" ‖ opt_key)               (rtl_key at -O0)
//! config_key   = H("config" ‖ frontend_key ‖ cfg_key)
//! cell_key     = H("cell" ‖ frontend_key ‖ cfg_key)
//! ```
//!
//! — so editing one ISAX source flips its `frontend_key` and with it the
//! whole downstream cone for that unit, while every other unit's keys
//! (and cached stage artifacts) survive untouched. The compiler itself
//! is deterministic, which is what lets a stage key hash the upstream
//! *inputs* instead of the upstream artifact bytes: same inputs, same
//! artifact.
//!
//! Cached stage values are [`StageVal`]s: the stage outcome plus a
//! [`Tape`] of the telemetry the computation emitted. A cache hit
//! *replays* the tape onto the live trace, so a warm compilation's trace
//! is byte-identical (after [`telemetry::Trace::stripped`]) to a cold
//! one — the determinism contract holds by construction, not by luck.

use crate::diag::Diagnostics;
use qcache::{digest, Digest, DiskCache, Sha256, StageStats, Store};
use scaiev::datasheet::VirtualDatasheet;
use std::io;
use std::path::Path;
use telemetry::{SpanId, Telemetry};

/// Bump when the serialized shape of any cached artifact changes; the
/// on-disk schema fingerprint derives from it, so stale caches written
/// by older revisions self-invalidate instead of being trusted.
const SCHEMA_REV: u32 = 1;

/// The on-disk schema fingerprint: the first 8 bytes of a SHA-256 over
/// the crate version, schema revision, and the run's canonical config
/// fingerprint ([`crate::Longnail::config_fingerprint`]). Folding the
/// config in means an artifact written at one `--opt-level` can never be
/// mistaken for another level's, even if a key collision were engineered
/// — the entry self-invalidates at load.
pub fn schema_fingerprint(config: &str) -> u64 {
    let d = digest(
        format!("longnail/{}/schema/{SCHEMA_REV}/{config}", env!("CARGO_PKG_VERSION")).as_bytes(),
    );
    u64::from_le_bytes(d.0[..8].try_into().expect("a SHA-256 digest has 32 bytes"))
}

/// Shared cache state for the whole pipeline: the in-memory exactly-once
/// stage store, plus an optional persistent layer (`--cache-dir`).
///
/// A fresh instance per run reproduces the pre-incremental behavior
/// exactly (the frontend artifact is still shared across cells). Reusing
/// one instance across runs — `lnc serve`, warm matrix recompiles, the
/// bench harness — is what makes recompilation incremental.
#[derive(Default)]
pub struct PipelineCache {
    store: Store,
    disk: Option<DiskCache>,
}

impl PipelineCache {
    /// In-memory only.
    pub fn new() -> Self {
        PipelineCache::default()
    }

    /// In-memory store backed by a persistent cell-artifact cache rooted
    /// at `dir` (created if absent), fingerprinted by
    /// [`schema_fingerprint`] over `config` — the run's canonical config
    /// fingerprint ([`crate::Longnail::config_fingerprint`]).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn with_disk(dir: &Path, config: &str) -> io::Result<Self> {
        Ok(PipelineCache {
            store: Store::new(),
            disk: Some(DiskCache::new(dir, schema_fingerprint(config))?),
        })
    }

    /// The in-memory stage store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The persistent layer, when configured.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Snapshot of every stage's in-memory counters, sorted by stage.
    pub fn stage_stats(&self) -> Vec<(String, StageStats)> {
        self.store
            .all_stats()
            .into_iter()
            .map(|(s, c)| (s.to_string(), c))
            .collect()
    }
}

/// Per-stage cache counters observed during one run (deltas, not
/// lifetime totals — a [`PipelineCache`] outlives runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Stage name ([`telemetry::STAGES`], plus `cell` for the disk layer).
    pub stage: String,
    pub hits: u64,
    pub misses: u64,
    pub waits: u64,
}

/// Content-address of the core-independent frontend + lowering artifact.
pub fn frontend_key(unit: &str, src: &str) -> Digest {
    Sha256::new()
        .chain(b"longnail.frontend\0")
        .chain(unit.as_bytes())
        .chain(b"\0")
        .chain(src.as_bytes())
        .finalize()
}

/// Content-address of everything core- and option-shaped that feeds the
/// backend: the virtual datasheet (its YAML rendering plus the exact
/// clock bits, which the YAML omits when unset), the chaining budget,
/// the solver work limit, and the canonical config fingerprint (opt
/// level + emission options — [`crate::Longnail::config_fingerprint`]).
/// Every downstream stage key chains from this one, so flipping
/// `--opt-level` flips the whole backend cone — the historic bug this
/// guards against served `-O0` artifacts to a `-O2` run from a shared
/// cache dir.
pub fn core_config_key(
    ds: &VirtualDatasheet,
    chain_depth: f64,
    work_limit: u64,
    config: &str,
) -> Digest {
    Sha256::new()
        .chain(b"longnail.coreconfig\0")
        .chain(ds.core.as_bytes())
        .chain(b"\0")
        .chain(ds.to_yaml().as_bytes())
        .chain(&ds.clock_ns.to_bits().to_le_bytes())
        .chain(&chain_depth.to_bits().to_le_bytes())
        .chain(&work_limit.to_le_bytes())
        .chain(b"\0")
        .chain(config.as_bytes())
        .finalize()
}

/// Scope key of one LIL graph within a frontend artifact.
pub(crate) fn graph_scope_key(frontend: &Digest, index: usize, name: &str) -> Digest {
    Sha256::new()
        .chain(b"longnail.graph\0")
        .chain(&frontend.0)
        .chain(&(index as u64).to_le_bytes())
        .chain(name.as_bytes())
        .finalize()
}

/// Chains a stage key from its upstream keys, domain-separated by stage
/// name.
pub(crate) fn derive(stage: &str, parts: &[&Digest]) -> Digest {
    let mut h = Sha256::new()
        .chain(b"longnail.stage\0")
        .chain(stage.as_bytes())
        .chain(b"\0");
    for p in parts {
        h = h.chain(&p.0);
    }
    h.finalize()
}

/// Content-address of a whole matrix cell's artifact bundle — what the
/// persistent layer stores under stage `cell`.
pub fn cell_key(
    unit: &str,
    src: &str,
    ds: &VirtualDatasheet,
    chain_depth: f64,
    work_limit: u64,
    config: &str,
) -> Digest {
    derive(
        "cell",
        &[
            &frontend_key(unit, src),
            &core_config_key(ds, chain_depth, work_limit, config),
        ],
    )
}

/// One telemetry operation a stage computation emitted, recorded so a
/// cache hit can replay it instead of recomputing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TapeOp {
    /// Counter on the stage span.
    Counter(&'static str, u64),
    /// Gauge on the stage span.
    Gauge(&'static str, f64),
    /// Attribute on the enclosing unit span.
    UnitAttr(&'static str, String),
    /// Warning diagnostic attributed to `(stage, current unit)`.
    Warn(&'static str, String),
}

/// Ordered telemetry ops of one stage computation. Replayed identically
/// on hit and miss, which is what keeps warm traces byte-identical to
/// cold ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Tape {
    ops: Vec<TapeOp>,
}

impl Tape {
    pub(crate) fn counter(&mut self, name: &'static str, value: u64) {
        self.ops.push(TapeOp::Counter(name, value));
    }

    pub(crate) fn gauge(&mut self, name: &'static str, value: f64) {
        self.ops.push(TapeOp::Gauge(name, value));
    }

    pub(crate) fn unit_attr(&mut self, name: &'static str, value: String) {
        self.ops.push(TapeOp::UnitAttr(name, value));
    }

    pub(crate) fn warn(&mut self, stage: &'static str, message: String) {
        self.ops.push(TapeOp::Warn(stage, message));
    }

    /// Plays the tape onto a live compilation: counters and gauges target
    /// the open stage span, attributes the enclosing unit span, warnings
    /// the diagnostics sink (attributed to `unit`).
    pub(crate) fn replay(
        &self,
        tel: &mut Telemetry,
        stage_span: SpanId,
        unit_span: SpanId,
        diagnostics: &mut Diagnostics,
        unit: &str,
    ) {
        for op in &self.ops {
            match op {
                TapeOp::Counter(name, v) => tel.counter(stage_span, name, *v),
                TapeOp::Gauge(name, v) => tel.gauge(stage_span, name, *v),
                TapeOp::UnitAttr(name, v) => tel.attr(unit_span, name, v),
                TapeOp::Warn(stage, msg) => {
                    diagnostics.warn(stage, Some(unit), None, msg.clone());
                }
            }
        }
    }
}

/// A cached stage computation: its outcome (errors are cached too — a
/// deterministically failing stage fails identically warm) plus the
/// telemetry tape recorded up to the point the computation returned.
#[derive(Debug, Clone)]
pub(crate) struct StageVal<T> {
    pub outcome: Result<T, crate::driver::FlowError>,
    pub tape: Tape,
}

/// The serialized artifact bundle of one matrix cell: exactly the files
/// `lnc --matrix` writes into the cell's output directory, by name.
/// Stored under the `cell` stage of the persistent layer; a warm run
/// writes these bytes verbatim, which makes cold/warm byte-identity hold
/// by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellBundle {
    /// `(file name, file contents)` in write order.
    pub files: Vec<(String, String)>,
}

impl CellBundle {
    /// Appends a file to the bundle.
    pub fn push(&mut self, name: impl Into<String>, contents: impl Into<String>) {
        self.files.push((name.into(), contents.into()));
    }

    /// Finds a file's contents by name.
    pub fn file(&self, name: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
    }

    /// Serializes the bundle (length-prefixed records, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.files.len() as u32).to_le_bytes());
        for (name, contents) in &self.files {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(contents.len() as u64).to_le_bytes());
            out.extend_from_slice(contents.as_bytes());
        }
        out
    }

    /// Deserializes a bundle; `None` on any truncation, bound overflow,
    /// invalid UTF-8, or trailing garbage (defense in depth behind the
    /// disk layer's checksum).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let end = pos.checked_add(n)?;
            if end > bytes.len() {
                return None;
            }
            let s = &bytes[*pos..end];
            *pos = end;
            Some(s)
        };
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let mut files = Vec::new();
        for _ in 0..count {
            let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            let name = std::str::from_utf8(take(&mut pos, name_len)?).ok()?.to_string();
            let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let len = usize::try_from(len).ok()?;
            let contents = std::str::from_utf8(take(&mut pos, len)?).ok()?.to_string();
            files.push((name, contents));
        }
        if pos != bytes.len() {
            return None;
        }
        Some(CellBundle { files })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_key_separates_unit_and_source() {
        // The NUL separator means ("ab", "c") and ("a", "bc") differ.
        assert_ne!(frontend_key("ab", "c"), frontend_key("a", "bc"));
        assert_eq!(frontend_key("u", "src"), frontend_key("u", "src"));
        assert_ne!(frontend_key("u", "src"), frontend_key("u", "src "));
    }

    #[test]
    fn config_key_tracks_every_backend_input() {
        let ds = crate::driver::builtin_datasheet("ORCA").unwrap();
        let base = core_config_key(&ds, 6.0, 1000, "opt=0");
        assert_eq!(base, core_config_key(&ds, 6.0, 1000, "opt=0"));
        assert_ne!(base, core_config_key(&ds, 7.0, 1000, "opt=0"), "chain depth");
        assert_ne!(base, core_config_key(&ds, 6.0, 1001, "opt=0"), "work limit");
        assert_ne!(base, core_config_key(&ds, 6.0, 1000, "opt=2"), "opt level");
        let mut faster = ds.clone();
        faster.clock_ns = ds.clock_ns * 0.5;
        assert_ne!(base, core_config_key(&faster, 6.0, 1000, "opt=0"), "clock");
        let other = crate::driver::builtin_datasheet("Piccolo").unwrap();
        assert_ne!(base, core_config_key(&other, 6.0, 1000, "opt=0"), "datasheet");
    }

    #[test]
    fn stage_keys_chain() {
        let fe = frontend_key("u", "s");
        let ds = crate::driver::builtin_datasheet("ORCA").unwrap();
        let cfg = core_config_key(&ds, 6.0, 1000, "opt=0");
        let p = derive("problem", &[&graph_scope_key(&fe, 0, "g"), &cfg]);
        let s = derive("solve", &[&p]);
        assert_ne!(p, s, "stage tag separates domains");
        let fe2 = frontend_key("u", "s2");
        let p2 = derive("problem", &[&graph_scope_key(&fe2, 0, "g"), &cfg]);
        assert_ne!(p, p2, "source edit invalidates the downstream cone");
        let cfg2 = core_config_key(&ds, 6.0, 1000, "opt=2");
        let p3 = derive("problem", &[&graph_scope_key(&fe, 0, "g"), &cfg2]);
        assert_ne!(p, p3, "opt level flips the whole backend cone");
    }

    #[test]
    fn cell_key_separates_opt_levels() {
        let ds = crate::driver::builtin_datasheet("ORCA").unwrap();
        let k0 = cell_key("u", "s", &ds, 6.0, 1000, "opt=0");
        let k2 = cell_key("u", "s", &ds, 6.0, 1000, "opt=2");
        assert_ne!(k0, k2, "shared cache dirs must never cross-serve levels");
        assert_eq!(k0, cell_key("u", "s", &ds, 6.0, 1000, "opt=0"));
    }

    #[test]
    fn bundle_roundtrips() {
        let mut b = CellBundle::default();
        b.push("a.sv", "module a; endmodule\n");
        b.push("x.yaml", "name: x\n");
        b.push("empty", "");
        let bytes = b.to_bytes();
        assert_eq!(CellBundle::from_bytes(&bytes), Some(b.clone()));
        assert_eq!(b.file("x.yaml"), Some("name: x\n"));
        assert_eq!(b.file("nope"), None);
    }

    #[test]
    fn bundle_rejects_mangled_bytes() {
        let mut b = CellBundle::default();
        b.push("a.sv", "contents");
        let bytes = b.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(CellBundle::from_bytes(&bytes[..cut]), None, "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(CellBundle::from_bytes(&trailing), None, "trailing byte");
        let mut huge = bytes;
        // Claim a 4 GiB name: must fail cleanly, not allocate or panic.
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(CellBundle::from_bytes(&huge), None, "bogus length");
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(schema_fingerprint("opt=0"), schema_fingerprint("opt=0"));
        assert_ne!(schema_fingerprint("opt=0"), 0);
        assert_ne!(
            schema_fingerprint("opt=0"),
            schema_fingerprint("opt=2"),
            "config folds into the on-disk fingerprint"
        );
    }
}
