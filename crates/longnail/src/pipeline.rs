//! Query-style incremental pipeline plumbing.
//!
//! Each of the nine telemetry stages (frontend / lower / problem / solve
//! / modes / rtl / opt / verilog / config) is a *query*: a pure function
//! of a content-addressed key. Each key covers exactly the value its
//! stage consumes —
//!
//! ```text
//! frontend_key = H(unit ‖ source)                    keys frontend and lower
//! cfg_key      = H(datasheet fields ‖ chain ‖ work-limit ‖ config-fp)
//! lil_ctx      = H(module name ‖ ROMs ‖ custom registers)
//! graph_digest = H(lil_ctx ‖ graph)                  (one per LIL graph)
//! module_digest = H(lil_ctx ‖ graph_digest…)
//! unit_key     = H("unit" ‖ graph_digest ‖ cfg_key)
//!                keys problem, solve, modes, rtl, opt and verilog alike
//! config_key   = H("config" ‖ module_digest ‖ cfg_key)
//! cell_key     = H("cell" ‖ frontend_key ‖ cfg_key)
//! ```
//!
//! — so the backend is cut off early: `frontend` and `lower` rerun on
//! any edit to an ISAX source, but the digests `lower` produces
//! ([`lil_digests`]) change only for the LIL graphs the edit changed. A
//! comment or a reformat recomputes no backend stage at all; an edit to
//! one instruction recomputes that unit's cone (and the ISAX's `config`)
//! on every core, while every other unit's keys and cached stage
//! artifacts survive. The compiler itself is deterministic, which is
//! what lets a stage key hash the upstream *inputs* instead of the
//! upstream artifact bytes: same inputs, same artifact. Source positions
//! never enter a backend value: a unit's diagnostics take their span from
//! the live frontend, so a replayed failure still points at the edited
//! source's lines. (The lowering diagnostics on `lower`'s tape carry
//! spans, but `lower` is keyed by the source text itself.)
//!
//! Cached stage values are [`StageVal`]s: the stage outcome plus a
//! [`Tape`] of the telemetry the computation emitted. The store holds
//! each behind an `Arc`, so a cache hit shares the value instead of
//! copying it, and *replays* the tape onto the live trace: a warm
//! compilation's trace is byte-identical (after
//! [`telemetry::Trace::stripped`]) to a cold one — the determinism
//! contract holds by construction, not by luck.

use crate::diag::{DiagEvent, Diagnostics, Severity};
use coredsl::error::Span;
use ir::lil::LilModule;
use qcache::{digest, Digest, DiskCache, Sha256, StageStats, Store};
use scaiev::datasheet::VirtualDatasheet;
use std::hash::Hash;
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
/// exactly (`frontend` and `lower` are still shared across cells). Reusing
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

    /// In-memory store backed by a persistent cell-artifact cache whose
    /// entries live at `<dir>/cell/<key-hex>.bin` (created if absent),
    /// fingerprinted by [`schema_fingerprint`] over `config` — the run's
    /// canonical config fingerprint
    /// ([`crate::Longnail::config_fingerprint`]).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn with_disk(dir: &Path, config: &str) -> io::Result<Self> {
        Ok(PipelineCache {
            store: Store::new(),
            disk: Some(DiskCache::new(dir.join("cell"), schema_fingerprint(config))?),
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
/// backend: every field of the virtual datasheet (core, stages,
/// write-back and memory stage, the exact clock bits, and each
/// interface's name, earliest, latest or ∞, and latency), the chaining
/// budget, the solver work limit, and the canonical config fingerprint
/// (opt level — [`crate::Longnail::config_fingerprint`]).
/// Every backend stage key derives from this one, so flipping
/// `--opt-level` flips the whole backend cone — the historic bug this
/// guards against served `-O0` artifacts to a `-O2` run from a shared
/// cache dir.
///
/// The fields are streamed as explicit little-endian bytes, strings and
/// the entry list length-prefixed and `latest` tagged (∞ is tag 0), never
/// through a derived `Hash`: this key reaches disk inside [`cell_key`].
pub fn core_config_key(
    ds: &VirtualDatasheet,
    chain_depth: f64,
    work_limit: u64,
    config: &str,
) -> Digest {
    let text = |h: Sha256, s: &str| h.chain(&(s.len() as u64).to_le_bytes()).chain(s.as_bytes());
    let mut h = text(Sha256::new().chain(b"longnail.coreconfig\0"), &ds.core)
        .chain(&ds.stages.to_le_bytes())
        .chain(&ds.writeback_stage.to_le_bytes())
        .chain(&ds.memory_stage.to_le_bytes())
        .chain(&ds.clock_ns.to_bits().to_le_bytes())
        .chain(&(ds.entries.len() as u64).to_le_bytes());
    for (name, t) in &ds.entries {
        h = text(h, name)
            .chain(&t.earliest.to_le_bytes())
            .chain(&[u8::from(t.latest.is_some())])
            .chain(&t.latest.unwrap_or(0).to_le_bytes())
            .chain(&t.latency.to_le_bytes());
    }
    let h = h
        .chain(&chain_depth.to_bits().to_le_bytes())
        .chain(&work_limit.to_le_bytes());
    text(h, config).finalize()
}

/// Content digests of a lowered module: `(graph_digests, module_digest)`.
/// `graph_digests[i]` roots the backend keys of `lil.graphs[i]`, and
/// `module_digest` roots the `config` key.
///
/// Each digest covers the graph (or every graph) plus the module context
/// the backend reads besides it: the name, which prefixes every Verilog
/// module; every ROM, which `rtl` copies into each module; and the custom
/// registers, which `config` lists. The values are streamed through their
/// derived `Hash`, so a field added to a LIL type later is keyed without
/// anyone remembering to. Std `Hash` streams are only stable within one
/// build: these digests key the in-memory store and must never reach disk.
pub(crate) fn lil_digests(lil: &LilModule) -> (Vec<Digest>, Digest) {
    let mut cx = Sha256::new().chain(b"longnail.lil\0");
    lil.name.hash(&mut cx);
    lil.roms.hash(&mut cx);
    lil.custom_regs.hash(&mut cx);
    let cx = cx.finalize();
    let graphs: Vec<Digest> = lil
        .graphs
        .iter()
        .map(|g| {
            let mut h = Sha256::new().chain(&cx.0);
            g.hash(&mut h);
            h.finalize()
        })
        .collect();
    let module = graphs
        .iter()
        .fold(Sha256::new().chain(&cx.0), |h, d| h.chain(&d.0))
        .finalize();
    (graphs, module)
}

/// Derives a key from its parts, domain-separated by `stage`.
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
#[derive(Debug)]
pub(crate) enum TapeOp {
    /// Counter on the stage span.
    Counter(&'static str, u64),
    /// Gauge on the stage span.
    Gauge(&'static str, f64),
    /// Attribute on the enclosing unit span (the stage span outside one).
    Attr(&'static str, String),
    /// Diagnostic the computation raised, with its severity, stage, unit
    /// and source span; replay re-stamps its trace span. Boxed:
    /// diagnostics are rare, and the other ops stay small.
    Diag(Box<DiagEvent>),
}

/// Ordered telemetry ops of one stage computation. Replayed identically
/// on hit and miss, which is what keeps warm traces byte-identical to
/// cold ones.
#[derive(Debug, Default)]
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

    pub(crate) fn attr(&mut self, name: &'static str, value: String) {
        self.ops.push(TapeOp::Attr(name, value));
    }

    pub(crate) fn diag(
        &mut self,
        severity: Severity,
        stage: &'static str,
        unit: Option<&str>,
        span: Option<Span>,
        message: String,
    ) {
        self.ops.push(TapeOp::Diag(Box::new(DiagEvent {
            severity,
            stage,
            unit: unit.map(str::to_owned),
            span,
            trace_span: None,
            message,
        })));
    }

    /// Plays the tape onto a live compilation: counters and gauges go to
    /// the stage span `span`, attributes and diagnostics to `target` (the
    /// enclosing unit span inside a unit, the stage span outside one).
    pub(crate) fn replay(
        &self,
        tel: &mut Telemetry,
        span: SpanId,
        target: SpanId,
        diagnostics: &mut Diagnostics,
    ) {
        diagnostics.set_trace_span(Some(target.0));
        for op in &self.ops {
            match op {
                TapeOp::Counter(name, v) => tel.counter(span, name, *v),
                TapeOp::Gauge(name, v) => tel.gauge(span, name, *v),
                TapeOp::Attr(name, v) => tel.attr(target, name, v),
                TapeOp::Diag(event) => diagnostics.push_event((**event).clone()),
            }
        }
    }
}

/// A cached stage computation: its outcome (errors are cached too — a
/// deterministically failing stage fails identically warm) plus the
/// telemetry tape recorded up to the point the computation returned.
#[derive(Debug)]
pub(crate) struct StageVal<T> {
    pub outcome: Result<T, crate::driver::FlowError>,
    pub tape: Tape,
}

impl<T> StageVal<T> {
    /// The computed value, or a copy of the cached failure.
    pub(crate) fn value(&self) -> Result<&T, crate::driver::FlowError> {
        self.outcome.as_ref().map_err(Clone::clone)
    }
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
        type Edit = fn(&mut VirtualDatasheet);
        let edits: [(&str, Edit); 7] = [
            ("stages", |d| d.stages += 1),
            ("write-back stage", |d| d.writeback_stage += 1),
            ("memory stage", |d| d.memory_stage += 1),
            ("latest bounded → ∞", |d| {
                d.entries.get_mut("RdRS1").unwrap().latest = None
            }),
            ("latest ∞ → bounded", |d| {
                d.entries.get_mut("RdMem").unwrap().latest = Some(0)
            }),
            ("latency", |d| {
                d.entries.get_mut("RdMem").unwrap().latency += 1
            }),
            ("added entry", |d| {
                d.entries
                    .insert("RdCustReg.extra".into(), scaiev::Timing::new(1, None, 0));
            }),
        ];
        for (what, edit) in edits {
            let mut edited = ds.clone();
            edit(&mut edited);
            assert_ne!(base, core_config_key(&edited, 6.0, 1000, "opt=0"), "{what}");
        }
    }

    #[test]
    fn unit_key_covers_the_graph_and_the_config() {
        let ds = crate::driver::builtin_datasheet("ORCA").unwrap();
        let cfg = core_config_key(&ds, 6.0, 1000, "opt=0");
        let graph = digest(b"graph");
        let unit = derive("unit", &[&graph, &cfg]);
        assert_eq!(unit, derive("unit", &[&graph, &cfg]));
        assert_ne!(unit, derive("config", &[&graph, &cfg]), "tag separates domains");
        let edited = derive("unit", &[&digest(b"edited graph"), &cfg]);
        assert_ne!(unit, edited, "a changed graph invalidates its unit");
        let cfg2 = core_config_key(&ds, 6.0, 1000, "opt=2");
        assert_ne!(unit, derive("unit", &[&graph, &cfg2]), "opt level flips every unit");
    }

    /// A module with one instance of every field the digests must cover.
    fn sample_lil() -> LilModule {
        use bits::ApInt;
        use ir::lil::{CustomReg, Graph, GraphKind, Op, OpKind, Rom, ValueId};
        let op = |kind, operands: &[usize], width| Op {
            kind,
            operands: operands.iter().map(|&i| ValueId(i)).collect(),
            width,
            pred: None,
            in_spawn: false,
        };
        let insn = Graph {
            name: "insn".into(),
            kind: GraphKind::Instruction {
                mask: 0x7f,
                match_value: 0x0b,
            },
            ops: vec![
                op(OpKind::ReadRs1, &[], 32),
                op(OpKind::Const(ApInt::from_u64(5, 32)), &[], 32),
                op(OpKind::Add, &[0, 1], 32),
                op(OpKind::RomRead("T".into()), &[2], 8),
                op(OpKind::WriteRd, &[3], 0),
                op(OpKind::Sink, &[], 0),
            ],
        };
        let always = Graph {
            name: "tick".into(),
            kind: GraphKind::Always,
            ops: vec![op(OpKind::ReadPc, &[], 32), op(OpKind::Sink, &[], 0)],
        };
        LilModule {
            name: "m".into(),
            graphs: vec![insn, always],
            custom_regs: vec![CustomReg {
                name: "R".into(),
                width: 32,
                elems: 1,
                addr_width: 0,
            }],
            roms: vec![Rom {
                name: "T".into(),
                width: 8,
                contents: (0..4).map(|i| ApInt::from_u64(i, 8)).collect(),
            }],
        }
    }

    /// Key completeness: changing any one field the backend reads changes
    /// the digests that key it. A field of the first graph changes that
    /// graph's digest and the module's, and leaves the other graph's
    /// alone; a field of the module context changes every digest.
    #[test]
    fn every_lil_field_is_keyed() {
        use bits::ApInt;
        use ir::lil::{GraphKind, OpKind, ValueId};
        type Edit = fn(&mut LilModule);
        let graph_edits: [(&str, Edit); 8] = [
            ("const payload", |m| {
                m.graphs[0].ops[1].kind = OpKind::Const(ApInt::from_u64(6, 32))
            }),
            ("operand", |m| m.graphs[0].ops[2].operands.reverse()),
            ("width", |m| m.graphs[0].ops[2].width = 33),
            ("pred", |m| m.graphs[0].ops[4].pred = Some(ValueId(0))),
            ("in_spawn", |m| m.graphs[0].ops[4].in_spawn = true),
            ("graph name", |m| m.graphs[0].name = "insn2".into()),
            ("mask", |m| {
                m.graphs[0].kind = GraphKind::Instruction {
                    mask: 0xff,
                    match_value: 0x0b,
                }
            }),
            ("match", |m| {
                m.graphs[0].kind = GraphKind::Instruction {
                    mask: 0x7f,
                    match_value: 0x0f,
                }
            }),
        ];
        let context_edits: [(&str, Edit); 5] = [
            ("rom name", |m| m.roms[0].name = "U".into()),
            ("rom width", |m| m.roms[0].width = 9),
            ("rom element", |m| {
                m.roms[0].contents[3] = ApInt::from_u64(7, 8)
            }),
            ("custom register", |m| m.custom_regs[0].elems = 2),
            ("module name", |m| m.name = "n".into()),
        ];
        let base = sample_lil();
        let (graphs, module) = lil_digests(&base);
        assert_eq!(
            lil_digests(&base),
            (graphs.clone(), module),
            "deterministic"
        );
        assert_ne!(graphs[0], graphs[1]);
        for (what, edit) in graph_edits {
            let mut m = sample_lil();
            edit(&mut m);
            let (g, md) = lil_digests(&m);
            assert_ne!(g[0], graphs[0], "{what}: graph digest");
            assert_eq!(g[1], graphs[1], "{what}: other graph untouched");
            assert_ne!(md, module, "{what}: module digest");
        }
        for (what, edit) in context_edits {
            let mut m = sample_lil();
            edit(&mut m);
            let (g, md) = lil_digests(&m);
            assert!(
                g.iter().zip(&graphs).all(|(a, b)| a != b),
                "{what}: graph digests"
            );
            assert_ne!(md, module, "{what}: module digest");
        }
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
