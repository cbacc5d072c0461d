//! The Longnail ↔ SCAIE-V metadata exchange (paper §4.6): virtual
//! datasheets and ISAX configuration files round-trip through their YAML
//! formats for every ISAX × core combination, and the schedules they carry
//! respect the datasheet windows.

use longnail::driver::{builtin_datasheet, EVAL_CORES};
use longnail::isax_lib;
use longnail::Longnail;
use scaiev::iface::SubInterfaceOp;
use scaiev::modes::ExecutionMode;
use scaiev::{IsaxConfig, VirtualDatasheet};

#[test]
fn datasheets_round_trip_for_all_cores() {
    for core in EVAL_CORES {
        let ds = builtin_datasheet(core).unwrap();
        let parsed = VirtualDatasheet::from_yaml(&ds.to_yaml()).unwrap();
        assert_eq!(parsed, ds, "{core}");
        // Datasheets must cover every fixed sub-interface of Table 1.
        for key in [
            "RdInstr", "RdRS1", "RdRS2", "RdPC", "RdMem", "WrRD", "WrPC", "WrMem",
            "RdCustReg", "WrCustReg.addr", "WrCustReg.data",
        ] {
            let op = SubInterfaceOp::from_key(key).unwrap();
            assert!(ds.timing(&op).is_some(), "{core} lacks {key}");
        }
        assert!(ds.clock_ns > 0.0);
    }
}

#[test]
fn configs_round_trip_for_all_isaxes_and_cores() {
    let ln = Longnail::new();
    for core in EVAL_CORES {
        let ds = builtin_datasheet(core).unwrap();
        for (name, unit, src) in isax_lib::all_isaxes() {
            let compiled = ln.compile(&src, &unit, &ds).unwrap();
            let yaml = compiled.config.to_yaml();
            let parsed = IsaxConfig::from_yaml(&yaml).unwrap();
            assert_eq!(parsed, *compiled.config, "{core}/{name}");
            // Every scheduled stage respects the datasheet's earliest time,
            // and every encoding is a 32-character pattern.
            for f in &compiled.config.functionalities {
                if let Some(enc) = &f.encoding {
                    assert_eq!(enc.len(), 32, "{core}/{name}/{}", f.name);
                    assert!(enc.chars().all(|c| matches!(c, '0' | '1' | '-')));
                }
                for e in &f.schedule {
                    let op = SubInterfaceOp::from_key(&e.interface)
                        .unwrap_or_else(|| panic!("bad interface key {}", e.interface));
                    if f.is_always() {
                        assert_eq!(e.stage, 0, "{core}/{name}: always uses stage 0");
                        if op.is_write() && e.interface.ends_with(".data")
                            || matches!(op, SubInterfaceOp::WrPC | SubInterfaceOp::WrRD | SubInterfaceOp::WrMem)
                        {
                            assert!(e.has_valid, "{core}/{name}: {} lacks valid", e.interface);
                        }
                    } else if let Some(t) = ds.timing(&op) {
                        assert!(
                            e.stage >= t.earliest,
                            "{core}/{name}/{}: {} at stage {} before earliest {}",
                            f.name,
                            e.interface,
                            e.stage,
                            t.earliest
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn custom_register_requests_match_declarations() {
    let ln = Longnail::new();
    let ds = builtin_datasheet("VexRiscv").unwrap();
    let (unit, src) = isax_lib::isax_source("zol").unwrap();
    let compiled = ln.compile(&src, &unit, &ds).unwrap();
    let mut names: Vec<&str> = compiled
        .config
        .registers
        .iter()
        .map(|r| r.name.as_str())
        .collect();
    names.sort_unstable();
    assert_eq!(names, vec!["COUNT", "END_PC", "START_PC"]);
    for r in &compiled.config.registers {
        assert_eq!(r.width, 32);
        assert_eq!(r.elements, 1);
    }
    // Constant registers (ROMs) are internalized, not requested (§4.5).
    let (unit, src) = isax_lib::isax_source("sbox").unwrap();
    let compiled = ln.compile(&src, &unit, &ds).unwrap();
    assert!(compiled.config.registers.is_empty());
    assert_eq!(compiled.lil.roms.len(), 1);
}

#[test]
fn mode_selection_summary_matches_section_4_3() {
    // In-pipeline when the write fits the native window, decoupled only
    // from spawn, tightly-coupled otherwise.
    let ln = Longnail::new();
    let ds = builtin_datasheet("VexRiscv").unwrap();
    let expectations = [
        ("dotprod", ExecutionMode::InPipeline),
        ("sbox", ExecutionMode::InPipeline),
        ("sqrt_tightly", ExecutionMode::TightlyCoupled),
        ("sqrt_decoupled", ExecutionMode::Decoupled),
    ];
    for (name, expected) in expectations {
        let (unit, src) = isax_lib::isax_source(name).unwrap();
        let compiled = ln.compile(&src, &unit, &ds).unwrap();
        let mode = compiled.instructions().next().unwrap().mode;
        assert_eq!(mode, expected, "{name}");
    }
}
