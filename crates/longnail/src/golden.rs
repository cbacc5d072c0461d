//! Golden-model execution of ISAX-extended programs.
//!
//! Combines the `riscv` ISS with the CoreDSL behavior interpreter
//! (`ir::interp`): base instructions execute natively, ISAX words dispatch
//! into their CoreDSL behavior, and `always`-blocks are evaluated once per
//! retired instruction against the fetch PC — the architectural reference
//! that the cycle-level core simulations (paper §5.3 verification) are
//! compared against.

use bits::ApInt;
use coredsl::tast::TypedModule;
use ir::interp::{decode_fields, ArchState, Interp};
use riscv::iss::{Cpu, CustomExecutor, IssError, StepOutcome};
use std::collections::HashMap;

/// Architectural state of one or more integrated ISAXes plus the base CPU.
#[derive(Debug)]
pub struct GoldenMachine {
    /// The base-ISA CPU (GPRs, PC, memory).
    pub cpu: Cpu,
    isaxes: Vec<TypedModule>,
    cust: CustRegs,
}

/// The custom registers of the integrated ISAXes: every element written so
/// far, by register name and index. The golden model and the cycle-level
/// cores (`cores::exec`) keep their state in one, so both read the same
/// value for an element nothing has written yet.
#[derive(Debug)]
pub struct CustRegs {
    values: HashMap<String, HashMap<u64, ApInt>>,
    /// Declared widths of custom registers.
    widths: HashMap<String, u32>,
}

impl CustRegs {
    /// Registers of the declared `(name, width)` pairs, nothing written.
    pub fn new(widths: impl IntoIterator<Item = (String, u32)>) -> Self {
        CustRegs {
            values: HashMap::new(),
            widths: widths.into_iter().collect(),
        }
    }

    /// Element `index` of register `name`. One never written reads zero
    /// at the register's declared width, or 32 bits if it is undeclared.
    pub fn read(&self, name: &str, index: u64) -> ApInt {
        self.values
            .get(name)
            .and_then(|m| m.get(&index))
            .cloned()
            .unwrap_or_else(|| ApInt::zero(self.widths.get(name).copied().unwrap_or(32)))
    }

    /// Writes element `index` of register `name`.
    pub fn write(&mut self, name: &str, index: u64, value: ApInt) {
        self.values
            .entry(name.to_string())
            .or_default()
            .insert(index, value);
    }
}

impl GoldenMachine {
    /// Creates a machine with the given ISAXes integrated.
    pub fn new(isaxes: Vec<TypedModule>) -> Self {
        let cust = CustRegs::new(
            isaxes
                .iter()
                .flat_map(|module| &module.registers)
                .filter(|reg| reg.builtin.is_none())
                .map(|reg| (reg.name.clone(), reg.ty.width)),
        );
        GoldenMachine {
            cpu: Cpu::new(),
            isaxes,
            cust,
        }
    }

    /// Loads a program and points the PC at it.
    pub fn load_program(&mut self, base: u32, words: &[u32]) {
        self.cpu.load_program(base, words);
    }

    /// Reads a custom register (zero if never written).
    pub fn cust_reg(&self, name: &str, index: u64) -> ApInt {
        self.cust.read(name, index)
    }

    /// Executes one instruction (plus one evaluation of every
    /// `always`-block).
    ///
    /// # Errors
    ///
    /// Propagates ISS and interpreter errors.
    pub fn step(&mut self) -> Result<StepOutcome, IssError> {
        let pc = self.cpu.pc;
        let outcome = {
            let mut hook = GoldenHook {
                isaxes: &self.isaxes,
                cust: &mut self.cust,
                instr_pc: pc,
            };
            self.cpu.step(Some(&mut hook))?
        };
        if outcome == StepOutcome::Halted {
            return Ok(outcome);
        }
        // Evaluate always-blocks against the fetch PC of the retired
        // instruction. An always-block's PC update redirects the next fetch
        // unless the instruction itself already jumped (static arbitration:
        // explicit control flow wins).
        let default_next = pc.wrapping_add(4);
        for i in 0..self.isaxes.len() {
            let module = self.isaxes[i].clone();
            let interp = Interp::new(&module);
            for always in &module.always_blocks {
                let mut pending_pc = None;
                {
                    let mut bridge = Bridge {
                        cpu: &mut self.cpu,
                        cust: &mut self.cust,
                        pc_value: pc,
                        pc_write: Some(&mut pending_pc),
                    };
                    interp
                        .exec_always_def(always, &mut bridge)
                        .map_err(|e| IssError {
                            pc,
                            message: format!("always `{}`: {e}", always.name),
                        })?;
                }
                if let Some(new_pc) = pending_pc {
                    if self.cpu.pc == default_next {
                        self.cpu.pc = new_pc;
                    }
                }
            }
        }
        Ok(outcome)
    }

    /// Runs until halt or `max_steps`.
    ///
    /// # Errors
    ///
    /// Propagates step errors, or reports step exhaustion.
    pub fn run(&mut self, max_steps: u64) -> Result<(), IssError> {
        for _ in 0..max_steps {
            if self.step()? == StepOutcome::Halted {
                return Ok(());
            }
        }
        Err(IssError {
            pc: self.cpu.pc,
            message: format!("program did not halt within {max_steps} steps"),
        })
    }
}

/// CustomExecutor dispatching unknown words into ISAX behaviors.
struct GoldenHook<'a> {
    isaxes: &'a [TypedModule],
    cust: &'a mut CustRegs,
    instr_pc: u32,
}

impl<'a> CustomExecutor for GoldenHook<'a> {
    fn execute(&mut self, word: u32, cpu: &mut Cpu) -> Result<bool, IssError> {
        for module in self.isaxes {
            for instr in &module.instructions {
                if decode_fields(&instr.encoding, word).is_none() {
                    continue;
                }
                let interp = Interp::new(module);
                let mut bridge = Bridge {
                    cpu,
                    cust: self.cust,
                    pc_value: self.instr_pc,
                    pc_write: None,
                };
                interp
                    .exec_instruction_def(instr, word, &mut bridge)
                    .map_err(|e| IssError {
                        pc: self.instr_pc,
                        message: format!("isax `{}`: {e}", instr.name),
                    })?;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Bridges the CoreDSL interpreter's [`ArchState`] onto the ISS state.
struct Bridge<'a, 'b> {
    cpu: &'a mut Cpu,
    cust: &'a mut CustRegs,
    /// Value returned for PC reads (the executing instruction's PC, or the
    /// fetch PC for always-blocks).
    pc_value: u32,
    /// When set, PC writes are captured here instead of applied directly
    /// (always-block arbitration).
    pc_write: Option<&'b mut Option<u32>>,
}

impl<'a, 'b> ArchState for Bridge<'a, 'b> {
    fn read(&mut self, reg: &str, index: u64) -> ApInt {
        match reg {
            "X" => ApInt::from_u64(self.cpu.read_reg(index as u32 & 31) as u64, 32),
            "PC" => ApInt::from_u64(self.pc_value as u64, 32),
            "MEM" => ApInt::from_u64(self.cpu.read_byte(index as u32) as u64, 8),
            custom => self.cust.read(custom, index),
        }
    }

    fn write(&mut self, reg: &str, index: u64, value: ApInt) {
        match reg {
            "X" => self.cpu.write_reg(index as u32 & 31, value.to_u64() as u32),
            "PC" => {
                let v = value.to_u64() as u32;
                match &mut self.pc_write {
                    Some(slot) => **slot = Some(v),
                    None => self.cpu.pc = v,
                }
            }
            "MEM" => self.cpu.write_byte(index as u32, value.to_u64() as u8),
            custom => self.cust.write(custom, index, value),
        }
    }
}
