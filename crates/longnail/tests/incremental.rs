//! Incremental-pipeline integration tests: the whole-pipeline stage
//! cache must make warm recompiles pure replay, recompute after an edit
//! only the units whose LIL graphs changed, and reproduce the cold
//! artifacts byte for byte — and the persistent layer must detect (and
//! silently recompute past) corrupted or truncated entries instead of
//! trusting them.

use longnail::driver::builtin_datasheet;
use longnail::serve::{probe_cell, store_cell};
use longnail::{isax_lib, matrix_cells, Longnail, MatrixCell, PipelineCache};
use std::collections::HashMap;
use std::path::PathBuf;

/// Same representative slice as `tests/matrix.rs` — small enough to
/// recompile once per edit.
fn small_isaxes() -> Vec<(String, String, String)> {
    isax_lib::all_isaxes()
        .into_iter()
        .filter(|(name, _, _)| matches!(name.as_str(), "dotprod" | "zol" | "sqrt_tightly"))
        .collect()
}

fn small_cores() -> Vec<scaiev::datasheet::VirtualDatasheet> {
    ["ORCA", "Piccolo"]
        .iter()
        .map(|c| builtin_datasheet(c).unwrap())
        .collect()
}

/// Per-stage `(misses, hits)` of one run (deltas, via the fresh-pipe or
/// stage_stats contract of `compile_cells`).
fn mix(m: &longnail::MatrixResult) -> HashMap<String, (u64, u64)> {
    m.stage_stats
        .iter()
        .map(|s| (s.stage.clone(), (s.misses, s.hits)))
        .collect()
}

/// Asserts both runs produced byte-identical deterministic artifacts:
/// Verilog, SCAIE-V YAML, and the stripped telemetry trace per cell.
fn assert_byte_identical(a: &longnail::MatrixResult, b: &longnail::MatrixResult) {
    assert_eq!(a.entries.len(), b.entries.len());
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        let cell = format!("{}_{}", ea.isax, ea.core);
        let (ca, cb) = (ea.outcome.as_ref().unwrap(), eb.outcome.as_ref().unwrap());
        assert_eq!(ca.config.to_yaml(), cb.config.to_yaml(), "{cell} yaml");
        assert_eq!(ca.graphs.len(), cb.graphs.len(), "{cell} units");
        for (ga, gb) in ca.graphs.iter().zip(&cb.graphs) {
            assert_eq!(ga.verilog, gb.verilog, "{cell} verilog {}", ga.name);
        }
        assert_eq!(
            ca.trace.stripped().to_jsonl(),
            cb.trace.stripped().to_jsonl(),
            "{cell} stripped trace"
        );
    }
}

/// A hit hands out what the store holds: the cores of one source share one
/// typed module and one LIL graph per unit, and a warm cell shares its
/// schedules, built modules and config with the cold cell.
#[test]
fn cache_hits_share_the_stored_values() {
    use std::sync::Arc;
    let ln = Longnail::new();
    let pipe = PipelineCache::new();
    let (unit, src) = isax_lib::isax_source("zol").unwrap();
    let compile = |core: &str| {
        let ds = builtin_datasheet(core).unwrap();
        ln.compile_cell(&src, &unit, &ds, &pipe).unwrap()
    };
    let (orca, piccolo) = (compile("ORCA"), compile("Piccolo"));
    assert!(Arc::ptr_eq(&orca.module, &piccolo.module), "typed module");
    assert_eq!(orca.graphs.len(), 2);
    assert_eq!(orca.graphs.len(), piccolo.graphs.len());
    for (a, b) in orca.graphs.iter().zip(&piccolo.graphs) {
        assert!(std::ptr::eq(&*a.graph, &*b.graph), "graph of `{}`", a.name);
    }
    let warm = compile("ORCA");
    assert!(Arc::ptr_eq(&orca.config, &warm.config), "config");
    for (cold, warm) in orca.graphs.iter().zip(&warm.graphs) {
        assert!(Arc::ptr_eq(&cold.schedule, &warm.schedule), "schedule of `{}`", cold.name);
        assert!(Arc::ptr_eq(&cold.built, &warm.built), "module of `{}`", cold.name);
    }
}

#[test]
fn warm_no_change_recompile_is_pure_replay() {
    let ln = Longnail::new();
    let (isaxes, cores) = (small_isaxes(), small_cores());
    let pipe = PipelineCache::new();
    let cells = matrix_cells(&isaxes, &cores);
    let cold = ln.compile_cells(&cells, 2, &pipe);
    let warm = ln.compile_cells(&cells, 2, &pipe);
    let warm_mix = mix(&warm);
    for stage in telemetry::STAGES {
        if stage == "opt" {
            // The opt stage only exists at --opt-level >= 1; this matrix
            // compiles at the default -O0, where it is skipped entirely.
            continue;
        }
        let &(misses, hits) = warm_mix.get(stage).unwrap_or(&(0, 0));
        assert_eq!(misses, 0, "warm `{stage}` recomputed");
        assert!(hits > 0, "warm `{stage}` saw no lookups");
    }
    assert_byte_identical(&cold, &warm);
}

/// Asserts the per-stage `(misses, hits)` of a warm run after one source
/// edit: one frontend (and lower) miss among `cells` lookups, `recomputed`
/// misses among the `units` lookups of every backend stage (`opt` only
/// when it ran), and `configs` config misses.
fn assert_mix(
    m: &longnail::MatrixResult,
    cells: u64,
    units: u64,
    recomputed: u64,
    configs: u64,
    opt: bool,
) {
    let got = mix(m);
    let at = |stage: &str| got.get(stage).copied().unwrap_or((0, 0));
    assert_eq!(at("frontend"), (1, cells - 1), "frontend");
    assert_eq!(at("lower"), (1, cells - 1), "lower");
    for stage in ["problem", "solve", "modes", "rtl", "verilog"] {
        assert_eq!(at(stage), (recomputed, units - recomputed), "stage {stage}");
    }
    let opt_mix = if opt {
        (recomputed, units - recomputed)
    } else {
        (0, 0)
    };
    assert_eq!(at("opt"), opt_mix, "stage opt");
    assert_eq!(at("config"), (configs, cells - configs), "config");
}

/// Unit lookups of a run: one per compiled unit of every cell.
fn unit_count(m: &longnail::MatrixResult) -> u64 {
    m.compiled().map(|(_, c)| c.graphs.len() as u64).sum()
}

/// Warm-compiles `edited` on `pipe` (which holds a cold compile of the
/// unedited sources) and checks the result byte for byte against a cold
/// compile of the same edited sources on a fresh cache.
fn warm_edit(
    ln: &Longnail,
    edited: &[(String, String, String)],
    cores: &[scaiev::datasheet::VirtualDatasheet],
    pipe: &PipelineCache,
) -> longnail::MatrixResult {
    let cells = matrix_cells(edited, cores);
    let warm = ln.compile_cells(&cells, 2, pipe);
    let fresh = ln.compile_cells(&cells, 2, &PipelineCache::new());
    assert_byte_identical(&fresh, &warm);
    warm
}

/// A comment changes the source, so the frontend reruns, but no LIL graph:
/// every backend stage and `config` replays. At the top of the file the
/// comment also shifts every line the frontend saw.
#[test]
fn comment_edit_recomputes_only_the_frontend() {
    let ln = Longnail::new();
    let (isaxes, cores) = (small_isaxes(), small_cores());
    let pipe = PipelineCache::new();
    let cold = ln.compile_cells(&matrix_cells(&isaxes, &cores), 2, &pipe);
    let (cells, units) = (cold.entries.len() as u64, unit_count(&cold));
    for edit_idx in 0..isaxes.len() {
        for at_top in [false, true] {
            let mut edited = isaxes.clone();
            let comment = format!("// edit {edit_idx} {at_top}\n");
            let src = &mut edited[edit_idx].2;
            if at_top {
                src.insert_str(0, &comment);
            } else {
                src.push_str(&comment);
            }
            let warm = warm_edit(&ln, &edited, &cores, &pipe);
            assert_mix(&warm, cells, units, 0, 0, false);
        }
    }
}

/// Swaps the operands of one of SPARKLE's eight instructions (the bench
/// gate makes the same edit), which changes that unit's LIL graph only.
fn swap_alzette_x0_operands(isaxes: &mut [(String, String, String)]) {
    let sparkle = isaxes
        .iter_mut()
        .find(|(name, _, _)| name == "sparkle")
        .expect("sparkle is a builtin ISAX");
    let edited = sparkle.2.replacen(
        "alzette0_x(X[rs1], X[rs2])",
        "alzette0_x(X[rs2], X[rs1])",
        1,
    );
    assert_ne!(edited, sparkle.2, "the edit applies");
    sparkle.2 = edited;
}

/// Editing one instruction recomputes that unit on every core, plus the
/// ISAX's `config`; the other seven SPARKLE units and every other ISAX
/// replay. At -O0 on the 8×4 matrix that is 4m/68h on every backend stage
/// and 4m/28h on `config`; SPARKLE's row alone at -O2 covers `opt`.
#[test]
fn semantic_edit_recomputes_one_unit_per_core() {
    let cores = longnail::driver::eval_datasheets();
    let n = cores.len() as u64;
    let sparkle: Vec<_> = isax_lib::all_isaxes()
        .into_iter()
        .filter(|(name, _, _)| name == "sparkle")
        .collect();
    let o2 = Longnail::new().with_opt_level(longnail::OptLevel::O2);
    for (ln, isaxes) in [(Longnail::new(), isax_lib::all_isaxes()), (o2, sparkle)] {
        let pipe = PipelineCache::new();
        let cold = ln.compile_cells(&matrix_cells(&isaxes, &cores), 2, &pipe);
        let mut edited = isaxes.clone();
        swap_alzette_x0_operands(&mut edited);
        let warm = warm_edit(&ln, &edited, &cores, &pipe);
        let opt = ln.opt_level != longnail::OptLevel::O0;
        let (cells, units) = (cold.entries.len() as u64, unit_count(&cold));
        assert_mix(&warm, cells, units, n, n, opt);
    }
}

/// A cached failure replays with the live source positions: its key is the
/// graph, not the text, so shifting every line still hits `problem`, and
/// the diagnostic points at the shifted line exactly as a cold compile of
/// the shifted source does.
#[test]
fn cached_failure_replays_with_live_spans() {
    let ln = Longnail::new();
    let (_, unit, src) = isax_lib::all_isaxes()
        .into_iter()
        .find(|(name, _, _)| name == "dotprod")
        .unwrap();
    let mut ds = builtin_datasheet("ORCA").unwrap();
    ds.entries.remove("RdRS1").expect("ORCA has RdRS1");
    let pipe = PipelineCache::new();
    let cold = ln.compile_cell(&src, &unit, &ds, &pipe).unwrap();
    assert!(cold.graphs.is_empty(), "dotp cannot read rs1");
    let shifted = format!("\n{src}");
    let before = pipe.store().stage_stats("problem");
    let warm = ln.compile_cell(&shifted, &unit, &ds, &pipe).unwrap();
    let after = pipe.store().stage_stats("problem");
    assert_eq!(
        (after.misses - before.misses, after.hits - before.hits),
        (0, 1),
        "the cached failure replays"
    );
    let fresh = ln
        .compile_cell(&shifted, &unit, &ds, &PipelineCache::new())
        .unwrap();
    let line = |c: &longnail::CompiledIsax| {
        let e = c.diagnostics.events.first().expect("one error");
        e.span.expect("the unit's span").line
    };
    assert_eq!(line(&warm), line(&cold) + 1, "one line lower");
    assert_eq!(warm.diagnostics.render(), fresh.diagnostics.render());
    assert_eq!(
        warm.trace.stripped().to_jsonl(),
        fresh.trace.stripped().to_jsonl()
    );
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("longnail-inc-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn corrupted_or_truncated_disk_entries_are_recomputed() {
    let root = tmp_root("corrupt");
    let ln = Longnail::new();
    let (name, unit, src) = isax_lib::all_isaxes()
        .into_iter()
        .find(|(n, _, _)| n == "dotprod")
        .unwrap();
    let cell = MatrixCell {
        isax: name,
        unit,
        src,
        datasheet: builtin_datasheet("ORCA").unwrap(),
    };
    let pipe = PipelineCache::with_disk(&root, &ln.config_fingerprint()).unwrap();
    let disk = pipe.disk().unwrap();
    let compiled = ln
        .compile_cell(&cell.src, &cell.unit, &cell.datasheet, &pipe)
        .unwrap();
    assert!(store_cell(disk, &ln, &cell, &compiled).unwrap());
    let clean = probe_cell(disk, &ln, &cell).expect("stored bundle probes back");
    assert!(clean.files.iter().any(|(n, _)| n.ends_with(".sv")));

    let entry_path = {
        let mut found = None;
        for f in std::fs::read_dir(root.join("cell")).unwrap() {
            let p = f.unwrap().path();
            if p.extension().is_some_and(|e| e == "bin") {
                found = Some(p);
            }
        }
        found.expect("one stored cell entry")
    };
    let pristine = std::fs::read(&entry_path).unwrap();

    // Flip one payload byte: the checksum must reject the entry.
    let mut mangled = pristine.clone();
    let mid = pristine.len() / 2;
    mangled[mid] ^= 0x40;
    std::fs::write(&entry_path, &mangled).unwrap();
    assert!(probe_cell(disk, &ln, &cell).is_none(), "bit flip trusted");

    // Truncate mid-payload: rejected too.
    std::fs::write(&entry_path, &pristine[..mid]).unwrap();
    assert!(probe_cell(disk, &ln, &cell).is_none(), "truncation trusted");
    assert!(disk.stats().invalid >= 2, "defects not counted");

    // Recompute-and-store heals the entry with identical contents.
    assert!(store_cell(disk, &ln, &cell, &compiled).unwrap());
    assert_eq!(probe_cell(disk, &ln, &cell), Some(clean));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn failed_compiles_are_never_served_from_disk() {
    let root = tmp_root("failures");
    let ln = Longnail::new();
    let cell = MatrixCell {
        isax: "broken".into(),
        unit: "Broken".into(),
        src: "InstructionSet Broken { instructions { bad { encoding: 7'd0; } } }".into(),
        datasheet: builtin_datasheet("ORCA").unwrap(),
    };
    let pipe = PipelineCache::with_disk(&root, &ln.config_fingerprint()).unwrap();
    let disk = pipe.disk().unwrap();
    match ln.compile_cell(&cell.src, &cell.unit, &cell.datasheet, &pipe) {
        Err(_) => {}
        Ok(compiled) => {
            // Unit-level failure path: diagnostics carry the errors; the
            // bundle must still be refused.
            assert!(compiled.diagnostics.has_errors());
            assert!(!store_cell(disk, &ln, &cell, &compiled).unwrap());
        }
    }
    assert!(probe_cell(disk, &ln, &cell).is_none());
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression for the cache-key completeness bug: the optimization level
/// must be part of both the content key and the persistent schema
/// fingerprint. Compiling -O0 into a cache dir and then -O2 against the
/// *same* dir must not serve the -O0 bundle to the -O2 run — and both
/// levels' bundles must coexist, each probing back its own bytes.
#[test]
fn opt_level_is_part_of_the_cell_cache_key() {
    let root = tmp_root("optlevel");
    let ln0 = Longnail::new();
    let mut ln2 = Longnail::new();
    ln2.opt_level = longnail::OptLevel::O2;
    assert_ne!(ln0.config_fingerprint(), ln2.config_fingerprint());
    let (name, unit, src) = isax_lib::all_isaxes()
        .into_iter()
        .find(|(n, _, _)| n == "dotprod")
        .unwrap();
    let cell = MatrixCell {
        isax: name,
        unit,
        src,
        datasheet: builtin_datasheet("ORCA").unwrap(),
    };
    // The content keys themselves must already differ.
    let key0 = longnail::cell_key(
        &cell.unit, &cell.src, &cell.datasheet,
        ln0.chain_depth, ln0.work_limit, &ln0.config_fingerprint(),
    );
    let key2 = longnail::cell_key(
        &cell.unit, &cell.src, &cell.datasheet,
        ln2.chain_depth, ln2.work_limit, &ln2.config_fingerprint(),
    );
    assert_ne!(key0, key2, "opt level not folded into the cell key");

    // -O0 run populates the shared dir.
    let pipe0 = PipelineCache::with_disk(&root, &ln0.config_fingerprint()).unwrap();
    let c0 = ln0
        .compile_cell(&cell.src, &cell.unit, &cell.datasheet, &pipe0)
        .unwrap();
    assert!(store_cell(pipe0.disk().unwrap(), &ln0, &cell, &c0).unwrap());

    // The -O2 run against the same dir must MISS (compile, not serve).
    let pipe2 = PipelineCache::with_disk(&root, &ln2.config_fingerprint()).unwrap();
    assert!(
        probe_cell(pipe2.disk().unwrap(), &ln2, &cell).is_none(),
        "-O2 probe served a -O0 bundle"
    );
    let c2 = ln2
        .compile_cell(&cell.src, &cell.unit, &cell.datasheet, &pipe2)
        .unwrap();
    assert!(store_cell(pipe2.disk().unwrap(), &ln2, &cell, &c2).unwrap());

    // Both levels now coexist: each probes back exactly its own bytes.
    let b0 = probe_cell(pipe0.disk().unwrap(), &ln0, &cell).expect("-O0 bundle still present");
    let b2 = probe_cell(pipe2.disk().unwrap(), &ln2, &cell).expect("-O2 bundle present");
    assert_eq!(b0, longnail::serve::cell_bundle(&c0), "-O0 bytes");
    assert_eq!(b2, longnail::serve::cell_bundle(&c2), "-O2 bytes");
    let _ = std::fs::remove_dir_all(&root);
}

/// A cache directory written by an -O2 compiler from before the optimizer
/// narrowed registers holds wider netlists under the config `opt=2`. The
/// optimizer's revision is part of the -O2 fingerprint, so this compiler
/// misses such a bundle, by key and by schema, while -O0 keeps `opt=0` and
/// with it every -O0 cache directory.
#[test]
fn an_earlier_optimizers_o2_bundle_is_a_miss() {
    let root = tmp_root("optrev");
    assert_eq!(Longnail::new().config_fingerprint(), "opt=0");
    let ln2 = Longnail::new().with_opt_level(longnail::OptLevel::O2);
    let (name, unit, src) = isax_lib::all_isaxes()
        .into_iter()
        .find(|(n, _, _)| n == "dotprod")
        .unwrap();
    let cell = MatrixCell {
        isax: name,
        unit,
        src,
        datasheet: builtin_datasheet("ORCA").unwrap(),
    };
    let key = |config: &str| {
        longnail::cell_key(
            &cell.unit,
            &cell.src,
            &cell.datasheet,
            ln2.chain_depth,
            ln2.work_limit,
            config,
        )
    };
    // What the earlier compiler stored: an -O2 bundle under `opt=2`.
    let old = PipelineCache::with_disk(&root, "opt=2").unwrap();
    let compiled = ln2
        .compile_cell(&cell.src, &cell.unit, &cell.datasheet, &old)
        .unwrap();
    let bundle = longnail::serve::cell_bundle(&compiled).to_bytes();
    let old_disk = old.disk().unwrap();
    old_disk.store(&key("opt=2"), &bundle).unwrap();
    assert!(old_disk.load(&key("opt=2")).is_some());

    let new = PipelineCache::with_disk(&root, &ln2.config_fingerprint()).unwrap();
    let disk = new.disk().unwrap();
    assert!(
        probe_cell(disk, &ln2, &cell).is_none(),
        "an earlier optimizer's bundle was served"
    );
    assert_eq!(disk.stats().misses, 1);
    // Moved under the new key, the entry still carries the old schema.
    let path = |config: &str| root.join("cell").join(format!("{}.bin", key(config).to_hex()));
    std::fs::copy(path("opt=2"), path(&ln2.config_fingerprint())).unwrap();
    assert!(probe_cell(disk, &ln2, &cell).is_none(), "stale schema trusted");
    assert_eq!(disk.stats().invalid, 1);
    std::fs::remove_dir_all(&root).unwrap();
}
