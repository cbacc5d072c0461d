//! Elaboration: import resolution, `InstructionSet` inheritance, `Core`
//! composition, and parameter assignment (paper §2.2).
//!
//! Elaboration flattens the modular description into a single [`SemaInput`]
//! — base-ISA state first, then each extension in inheritance order — and
//! hands it to [`crate::sema`] for type checking.

use crate::ast::{CoreDef, IsaDef};
use crate::error::{codes, Diagnostic, Result, Span};
use crate::parser::parse_all;
use crate::prelude_src;
use crate::sema::{analyze_all, SemaInput};
use crate::tast::TypedModule;
use std::collections::{HashMap, HashSet};

/// A compile with full recovery: the module built from every unit that
/// survived, plus all parse, elaboration, and semantic errors found in a
/// single pass.
#[derive(Debug)]
pub struct CompileOutput {
    /// The elaborated module; `None` only when elaboration could not even
    /// identify or flatten the requested unit. When `Some` but [`errors`]
    /// is non-empty, the module holds the subset that checked cleanly.
    ///
    /// [`errors`]: CompileOutput::errors
    pub module: Option<TypedModule>,
    /// Every recorded diagnostic, in discovery order (parse first, then
    /// elaboration, then semantic analysis).
    pub errors: Vec<Diagnostic>,
}

/// The CoreDSL frontend: owns the import namespace and drives
/// parse → elaborate → analyze.
///
/// # Examples
///
/// ```
/// use coredsl::Frontend;
///
/// let src = r#"
/// import "RV32I.core_desc";
/// InstructionSet nopext extends RV32I {
///     instructions {
///         custom_nop {
///             encoding: 25'd0 :: 7'b0001011;
///             behavior: { }
///         }
///     }
/// }
/// "#;
/// let module = Frontend::new().compile_str(src, "nopext").unwrap();
/// // The RV32I base state (X, PC, MEM) is visible after elaboration:
/// assert!(module.register("X").is_some());
/// assert!(module.register("PC").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Frontend {
    sources: HashMap<String, String>,
}

impl Default for Frontend {
    fn default() -> Self {
        Self::new()
    }
}

impl Frontend {
    /// Creates a frontend with the built-in `RV32I.core_desc` prelude
    /// registered.
    pub fn new() -> Self {
        let mut sources = HashMap::new();
        sources.insert(
            prelude_src::RV32I_IMPORT.to_string(),
            prelude_src::RV32I.to_string(),
        );
        Frontend { sources }
    }

    /// Registers an importable source under `name` (the string used in
    /// `import "<name>";`). Replaces any previous source of that name.
    pub fn add_source(&mut self, name: &str, text: &str) -> &mut Self {
        self.sources.insert(name.to_string(), text.to_string());
        self
    }

    /// Compiles a root description: parses `src` (and, transitively, its
    /// imports), then elaborates and type-checks the requested unit.
    ///
    /// `unit` names the `InstructionSet` or `Core` to elaborate. As a
    /// convenience, if `unit` does not match any definition but the root
    /// source defines exactly one instruction set or core, that definition
    /// is elaborated (so callers can pass a display name).
    ///
    /// # Errors
    ///
    /// Returns the first parse, elaboration, or type error. Use
    /// [`Frontend::compile_str_all`] to see every error in one pass.
    pub fn compile_str(&self, src: &str, unit: &str) -> Result<TypedModule> {
        let mut out = self.compile_str_all(src, unit);
        if let Some(first) = out.errors.drain(..).next() {
            return Err(first);
        }
        out.module.ok_or_else(|| {
            Diagnostic::new(Span::default(), "elaboration produced no module")
        })
    }

    /// Compiles a root description with recovery: every parse,
    /// elaboration, and semantic error is accumulated instead of stopping
    /// at the first, and the module is built from everything that checked
    /// cleanly. See [`Frontend::compile_str`] for the unit-name rules.
    pub fn compile_str_all(&self, src: &str, unit: &str) -> CompileOutput {
        let mut errors = Vec::new();
        let mut world = World::default();
        world.load_description_all(src, "<root>", self, &mut errors);
        let root_sets: Vec<String> = world.root_units.clone();
        let target = if world.isa_defs.contains_key(unit) || world.core_defs.contains_key(unit) {
            Some(unit.to_string())
        } else if root_sets.len() == 1 {
            Some(root_sets[0].clone())
        } else {
            errors.push(Diagnostic::coded(
                codes::ELAB_NO_UNIT,
                Span::default(),
                format!(
                    "no InstructionSet or Core named `{unit}` (root defines: {})",
                    root_sets.join(", ")
                ),
            ));
            None
        };
        let module = target.and_then(|target| match world.flatten(&target) {
            Err(e) => {
                errors.push(e);
                None
            }
            Ok(mut input) => {
                // Give the module the caller-facing name.
                if !unit.is_empty() {
                    input.name = unit.to_string();
                }
                let out = analyze_all(input);
                errors.extend(out.errors);
                Some(out.module)
            }
        });
        CompileOutput { module, errors }
    }
}

/// The set of all parsed definitions reachable from the root file.
#[derive(Default)]
struct World {
    isa_defs: HashMap<String, IsaDef>,
    core_defs: HashMap<String, CoreDef>,
    loaded: HashSet<String>,
    /// Units defined in the *root* file, in order.
    root_units: Vec<String>,
}

impl World {
    /// Parses `src` and loads its definitions and imports, recording every
    /// error instead of stopping: an unresolvable import costs that import,
    /// a duplicate definition keeps the first one, and a parse error keeps
    /// whatever the parser recovered.
    fn load_description_all(
        &mut self,
        src: &str,
        name: &str,
        fe: &Frontend,
        errors: &mut Vec<Diagnostic>,
    ) {
        let parsed = parse_all(src);
        errors.extend(parsed.errors.into_iter().map(|d| d.in_source(name)));
        let desc = parsed.description;
        for import in &desc.imports {
            if !self.loaded.insert(import.clone()) {
                continue; // already loaded (diamond imports are fine)
            }
            match fe.sources.get(import) {
                None => errors.push(
                    Diagnostic::coded(
                        codes::ELAB_UNKNOWN_IMPORT,
                        Span::default(),
                        format!("cannot resolve import {import:?}"),
                    )
                    .in_source(name),
                ),
                Some(text) => {
                    // Clone to satisfy the borrow checker; sources are small.
                    let text = text.clone();
                    self.load_description_all(&text, import, fe, errors);
                }
            }
        }
        let is_root = name == "<root>";
        for isa in desc.instruction_sets {
            if is_root {
                self.root_units.push(isa.name.clone());
            }
            if self.isa_defs.contains_key(&isa.name) {
                errors.push(
                    Diagnostic::coded(
                        codes::ELAB_DUPLICATE_DEF,
                        isa.span,
                        format!("InstructionSet `{}` defined more than once", isa.name),
                    )
                    .in_source(name),
                );
                continue;
            }
            self.isa_defs.insert(isa.name.clone(), isa);
        }
        for core in desc.cores {
            if is_root {
                self.root_units.push(core.name.clone());
            }
            if self.core_defs.contains_key(&core.name) {
                errors.push(
                    Diagnostic::coded(
                        codes::ELAB_DUPLICATE_DEF,
                        core.span,
                        format!("Core `{}` defined more than once", core.name),
                    )
                    .in_source(name),
                );
                continue;
            }
            self.core_defs.insert(core.name.clone(), core);
        }
    }

    /// Produces the inheritance chain of an instruction set, base first.
    fn chain(&self, name: &str) -> Result<Vec<&IsaDef>> {
        let mut chain = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = Some(name.to_string());
        while let Some(n) = cur {
            if !seen.insert(n.clone()) {
                return Err(Diagnostic::coded(
                    codes::ELAB_EXTENDS_CYCLE,
                    Span::default(),
                    format!("inheritance cycle involving `{n}`"),
                ));
            }
            let def = self.isa_defs.get(&n).ok_or_else(|| {
                Diagnostic::coded(
                    codes::ELAB_NO_UNIT,
                    Span::default(),
                    format!("unknown InstructionSet `{n}`"),
                )
            })?;
            chain.push(def);
            cur = def.extends.clone();
        }
        chain.reverse();
        Ok(chain)
    }

    /// Flattens the named unit into a [`SemaInput`].
    fn flatten(&self, name: &str) -> Result<SemaInput> {
        let mut input = SemaInput {
            name: name.to_string(),
            ..SemaInput::default()
        };
        let mut merged: Vec<&IsaDef> = Vec::new();
        let mut seen = HashSet::new();
        if let Some(core) = self.core_defs.get(name) {
            for provided in &core.provides {
                for def in self.chain(provided)? {
                    if seen.insert(def.name.clone()) {
                        merged.push(def);
                    }
                }
            }
            // The core's own body contributes parameter assignments and
            // possibly additional state/instructions.
            for decl in &core.body.state {
                if decl.storage == crate::ast::StorageClass::Param {
                    if let Some(crate::ast::Initializer::Single(e)) = &decl.init {
                        input
                            .param_overrides
                            .push((decl.name.clone(), e.clone()));
                        continue;
                    }
                }
                input.state.push((decl.clone(), core.name.clone()));
            }
            self.merge_bodies(&merged, &mut input);
            input
                .instructions
                .extend(core.body.instructions.iter().cloned());
            input
                .always_blocks
                .extend(core.body.always_blocks.iter().cloned());
            input.functions.extend(core.body.functions.iter().cloned());
        } else {
            for def in self.chain(name)? {
                if seen.insert(def.name.clone()) {
                    merged.push(def);
                }
            }
            self.merge_bodies(&merged, &mut input);
        }
        Ok(input)
    }

    fn merge_bodies(&self, defs: &[&IsaDef], input: &mut SemaInput) {
        for def in defs {
            for decl in &def.body.state {
                input.state.push((decl.clone(), def.name.clone()));
            }
            input
                .instructions
                .extend(def.body.instructions.iter().cloned());
            input
                .always_blocks
                .extend(def.body.always_blocks.iter().cloned());
            input.functions.extend(def.body.functions.iter().cloned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tast::BuiltinReg;

    const DOTP: &str = r#"
import "RV32I.core_desc";
InstructionSet X_DOTP extends RV32I {
  instructions {
    dotp {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        signed<32> res = 0;
        for (int i = 0; i < 32; i += 8) {
          signed<16> prod = (signed) X[rs1][i+7:i] * (signed) X[rs2][i+7:i];
          res += prod;
        }
        X[rd] = (unsigned) res;
      }
    }
  }
}
"#;

    #[test]
    fn compiles_figure1_dotprod() {
        let module = Frontend::new().compile_str(DOTP, "X_DOTP").unwrap();
        assert_eq!(module.name, "X_DOTP");
        let (_, x) = module.register("X").unwrap();
        assert_eq!(x.builtin, Some(BuiltinReg::Gpr));
        assert_eq!(x.elems, 32);
        assert_eq!(module.instructions.len(), 1);
        let dotp = &module.instructions[0];
        assert_eq!(dotp.encoding.pattern_string().len(), 32);
        assert_eq!(
            dotp.encoding.pattern_string(),
            "0000000----------000-----0001011"
        );
        // rd, rs1, rs2 fields present:
        let names: Vec<_> = dotp.encoding.fields.iter().map(|f| &f.name).collect();
        assert!(names.contains(&&"rs1".to_string()));
        assert!(names.contains(&&"rd".to_string()));
    }

    #[test]
    fn xlen_parameter_is_resolved() {
        let module = Frontend::new()
            .compile_str("import \"RV32I.core_desc\";\nInstructionSet e extends RV32I { }", "e")
            .unwrap();
        let (name, _, value) = &module.params[0];
        assert_eq!(name, "XLEN");
        assert_eq!(value.to_u64(), 32);
    }

    #[test]
    fn unknown_import_is_an_error() {
        let err = Frontend::new()
            .compile_str("import \"nope.core_desc\";\nInstructionSet e { }", "e")
            .unwrap_err();
        assert!(err.message.contains("cannot resolve import"));
    }

    #[test]
    fn unknown_base_set_is_an_error() {
        let err = Frontend::new()
            .compile_str("InstructionSet e extends NOPE { }", "e")
            .unwrap_err();
        assert!(err.message.contains("unknown InstructionSet"));
    }

    #[test]
    fn inheritance_cycles_are_detected() {
        let src = "InstructionSet a extends b { } InstructionSet b extends a { }";
        let err = Frontend::new().compile_str(src, "a").unwrap_err();
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn lossy_assignment_is_rejected() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet bad extends RV32I {
  instructions {
    i {
      encoding: 12'd0 :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        unsigned<4> u4 = 0;
        unsigned<5> u5 = 0;
        u4 = u5;
      }
    }
  }
}
"#;
        let err = Frontend::new().compile_str(src, "bad").unwrap_err();
        assert!(err.message.contains("lose information"), "{err}");
    }

    #[test]
    fn sign_discarding_assignment_is_rejected() {
        let src = r#"
InstructionSet bad {
  instructions {
    i {
      encoding: 12'd0 :: 5'd0 :: 3'd0 :: 5'd0 :: 7'b0001011;
      behavior: {
        signed<4> s4 = 0;
        unsigned<4> u4 = 0;
        u4 = s4;
      }
    }
  }
}
"#;
        let err = Frontend::new().compile_str(src, "bad").unwrap_err();
        assert!(err.message.contains("lose information"), "{err}");
    }

    #[test]
    fn explicit_cast_permits_narrowing() {
        let src = r#"
InstructionSet ok {
  instructions {
    i {
      encoding: 12'd0 :: 5'd0 :: 3'd0 :: 5'd0 :: 7'b0001011;
      behavior: {
        unsigned<5> u5 = 17;
        signed<4> s4 = 3;
        unsigned<4> u4 = (unsigned<4>)(u5 + s4);
      }
    }
  }
}
"#;
        assert!(Frontend::new().compile_str(src, "ok").is_ok());
    }

    #[test]
    fn core_definition_composes_sets() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet ext1 extends RV32I {
  architectural_state { register unsigned<32> ACC; }
}
Core MyCore provides ext1 {
  architectural_state { unsigned int XLEN = 32; }
}
"#;
        let module = Frontend::new().compile_str(src, "MyCore").unwrap();
        assert!(module.register("ACC").is_some());
        assert!(module.register("X").is_some());
    }

    #[test]
    fn zol_figure3_compiles() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet zol extends RV32I {
  architectural_state {
    register unsigned<32> START_PC, END_PC, COUNT;
  }
  instructions {
    setup_zol {
      encoding: uimmL[11:0] :: uimmS[4:0] :: 3'b101 :: 5'b00000 :: 7'b0001011;
      behavior: {
        START_PC = (unsigned<32>)(PC + 4);
        END_PC = (unsigned<32>)(PC + (uimmS :: 1'b0));
        COUNT = uimmL;
      }
    }
  }
  always {
    zol {
      if (COUNT != 0 && END_PC == PC) {
        PC = START_PC;
        --COUNT;
      }
    }
  }
}
"#;
        let module = Frontend::new().compile_str(src, "zol").unwrap();
        assert_eq!(module.always_blocks.len(), 1);
        let (_, count) = module.register("COUNT").unwrap();
        assert!(count.is_custom());
        assert_eq!(count.addr_width(), 0);
        let (_, x) = module.register("X").unwrap();
        assert!(!x.is_custom());
        assert_eq!(x.addr_width(), 5);
    }

    #[test]
    fn functions_must_be_pure() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet bad extends RV32I {
  functions {
    unsigned<32> peek() { return PC; }
  }
}
"#;
        let err = Frontend::new().compile_str(src, "bad").unwrap_err();
        assert!(err.message.contains("architectural state"), "{err}");
    }

    #[test]
    fn independent_errors_are_all_reported_in_one_pass() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet multi extends RV32I {
  instructions {
    a {
      encoding: 12'd0 :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        unsigned<4> u4 = 0;
        unsigned<5> u5 = 0;
        u4 = u5;
        X[rd] = nosuch;
      }
    }
    b {
      encoding: 12'd0 :: rs1[4:0] :: 3'd1 :: rd[4:0] :: 7'b0001011;
      behavior: {
        X[rd] = missing(X[rs1]);
      }
    }
  }
}
"#;
        let out = Frontend::new().compile_str_all(src, "multi");
        let seen: Vec<&str> = out.errors.iter().map(|e| e.code).collect();
        assert!(seen.contains(&codes::SEMA_LOSSY_ASSIGN), "{seen:?}");
        assert!(seen.contains(&codes::SEMA_UNKNOWN_NAME), "{seen:?}");
        assert!(seen.contains(&codes::SEMA_BAD_CALL), "{seen:?}");
        assert!(out.errors.len() >= 3, "{:?}", out.errors);
        // Both instructions had errors, so neither survives — but the
        // module itself does.
        assert_eq!(out.module.unwrap().instructions.len(), 0);
    }

    #[test]
    fn poisoned_declarations_do_not_cascade() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet p extends RV32I {
  instructions {
    i {
      encoding: 12'd0 :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        unsigned<8> v = nosuch;
        unsigned<8> w = v + 1;
        X[rd] = (unsigned<32>) w;
      }
    }
  }
}
"#;
        let out = Frontend::new().compile_str_all(src, "p");
        // Exactly the declaration error; uses of `v` are poisoned, not
        // re-reported.
        assert_eq!(out.errors.len(), 1, "{:?}", out.errors);
        assert_eq!(out.errors[0].code, codes::SEMA_UNKNOWN_NAME);
    }

    #[test]
    fn clean_units_survive_alongside_broken_ones() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet mix extends RV32I {
  instructions {
    bad {
      encoding: 12'd0 :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: { X[rd] = nosuch; }
    }
    good {
      encoding: 12'd0 :: rs1[4:0] :: 3'd1 :: rd[4:0] :: 7'b0001011;
      behavior: { X[rd] = X[rs1]; }
    }
  }
}
"#;
        let out = Frontend::new().compile_str_all(src, "mix");
        assert_eq!(out.errors.len(), 1, "{:?}", out.errors);
        let module = out.module.unwrap();
        assert_eq!(module.instructions.len(), 1);
        assert_eq!(module.instructions[0].name, "good");
    }

    #[test]
    fn parse_and_sema_errors_accumulate_across_stages() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet s extends RV32I {
  instructions {
    broken {
      encoding: 12'd0 :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: { X[rd] = ; }
    }
    lossy {
      encoding: 12'd0 :: rs1[4:0] :: 3'd1 :: rd[4:0] :: 7'b0001011;
      behavior: {
        unsigned<4> u4 = 0;
        unsigned<5> u5 = 0;
        u4 = u5;
      }
    }
  }
}
"#;
        let out = Frontend::new().compile_str_all(src, "s");
        assert!(
            out.errors.iter().any(|e| e.code.starts_with("LN01")),
            "expected a parse error: {:?}",
            out.errors
        );
        assert!(
            out.errors
                .iter()
                .any(|e| e.code == codes::SEMA_LOSSY_ASSIGN),
            "expected the sema error too: {:?}",
            out.errors
        );
    }

    #[test]
    fn mem_range_load_types_as_32bit() {
        let src = r#"
import "RV32I.core_desc";
InstructionSet lw extends RV32I {
  instructions {
    loadw {
      encoding: 12'd0 :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        unsigned<32> addr = X[rs1];
        X[rd] = MEM[addr+3:addr];
      }
    }
  }
}
"#;
        let module = Frontend::new().compile_str(src, "lw").unwrap();
        assert_eq!(module.instructions.len(), 1);
    }
}
