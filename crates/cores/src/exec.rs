//! Cycle-level execution of ISAX-extended cores.
//!
//! [`ExtendedCore`] runs an RV32I program with one or more compiled ISAXes
//! integrated, tracking a cycle count through a per-instruction timing
//! model parameterized by the core descriptor:
//!
//! * base instructions: 1 cycle (pipelined) or the FSM's per-class counts,
//!   plus memory wait and taken-branch flush penalties,
//! * **in-pipeline** ISAXes flow with the pipeline,
//! * **tightly-coupled** ISAXes stall the core for the stages exceeding
//!   write-back (§3.2),
//! * **decoupled** ISAXes issue and retire in the background; the SCAIE-V
//!   scoreboard stalls dependent instructions (RAW/WAW on `rd`, custom-reg
//!   conflicts) and each background commit steals one write-back cycle,
//! * **`always`-blocks** evaluate once per retired instruction at zero
//!   cycle cost (that is their point) and may redirect the next fetch,
//!   losing arbitration to explicit control flow (§3.3).
//!
//! Architectural ISAX semantics come from evaluating the scheduled LIL
//! graphs — the same data-flow the generated hardware implements. The
//! simplification relative to full RTL co-simulation: decoupled bodies
//! capture their operands at issue (as the hardware pipelines them in) and
//! compute results immediately, which is observationally equivalent unless
//! untracked state (memory) changes mid-flight.

use bits::ApInt;
use ir::eval::{eval_graph, LilEnv, StateUpdate, UpdateKind};
use longnail::driver::{CompiledGraph, CompiledIsax};
use longnail::golden::CustRegs;
use riscv::decode::DecodedInstr;
use riscv::iss::{Cpu, IssError, StepOutcome};
use scaiev::hazard::Scoreboard;
use scaiev::modes::ExecutionMode;

use crate::descriptor::{CoreDescriptor, CoreKind};

/// An ISAX-extended core with cycle accounting.
pub struct ExtendedCore {
    /// Core descriptor.
    pub desc: CoreDescriptor,
    /// Base-ISA architectural state.
    pub cpu: Cpu,
    isaxes: Vec<CompiledIsax>,
    cust: CustRegs,
    scoreboard: Scoreboard,
    /// In-flight decoupled results: (tag, updates to apply at commit).
    in_flight: Vec<(u64, Vec<StateUpdate>, u32)>,
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    halted: bool,
}

impl ExtendedCore {
    /// Creates a core with the given ISAXes integrated.
    pub fn new(desc: CoreDescriptor, isaxes: Vec<CompiledIsax>, hazard_handling: bool) -> Self {
        let cust = CustRegs::new(
            isaxes
                .iter()
                .flat_map(|isax| &isax.lil.custom_regs)
                .map(|reg| (reg.name.clone(), reg.width)),
        );
        ExtendedCore {
            cycles: desc.startup_cycles,
            desc,
            cpu: Cpu::new(),
            isaxes,
            cust,
            scoreboard: if hazard_handling {
                Scoreboard::new()
            } else {
                Scoreboard::without_hazard_handling()
            },
            in_flight: Vec::new(),
            instret: 0,
            halted: false,
        }
    }

    /// Loads a program and resets the PC.
    pub fn load_program(&mut self, base: u32, words: &[u32]) {
        self.cpu.load_program(base, words);
    }

    /// Reads a custom register.
    pub fn cust_reg(&self, name: &str, index: u64) -> ApInt {
        self.cust.read(name, index)
    }

    /// True once the program executed `ebreak`/`ecall`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Runs to completion (halt) or `max_steps` retired instructions.
    ///
    /// # Errors
    ///
    /// Propagates illegal-instruction and ISAX-evaluation errors.
    pub fn run(&mut self, max_steps: u64) -> Result<(), IssError> {
        for _ in 0..max_steps {
            self.step()?;
            if self.halted {
                // Drain in-flight decoupled work (the pipeline waits for
                // outstanding ISAXes before the final commit).
                let mut guard = 0;
                while self.scoreboard.is_busy() {
                    self.advance_cycles(1);
                    guard += 1;
                    assert!(guard < 1_000_000, "decoupled work never completed");
                }
                return Ok(());
            }
        }
        Err(IssError {
            pc: self.cpu.pc,
            message: format!("program did not halt within {max_steps} instructions"),
        })
    }

    /// Executes one instruction (and one evaluation of each always-block).
    ///
    /// # Errors
    ///
    /// Propagates illegal-instruction and ISAX-evaluation errors.
    pub fn step(&mut self) -> Result<(), IssError> {
        if self.halted {
            return Ok(());
        }
        let pc = self.cpu.pc;
        let word = self.cpu.read_word(pc);

        // Match ISAX instructions first (registration order = priority).
        let isax_match = self.isaxes.iter().enumerate().find_map(|(i, isax)| {
            isax.graphs
                .iter()
                .position(|g| !g.is_always && (word & g.mask) == g.match_value)
                .map(|j| (i, j))
        });

        if let Some((isax_idx, graph_idx)) = isax_match {
            self.step_isax(pc, word, isax_idx, graph_idx)?;
        } else {
            self.step_base(pc, word)?;
        }

        // always-blocks observe the fetch PC of the retired instruction and
        // may redirect the next fetch unless the instruction explicitly
        // jumped (static arbitration: first write wins per target).
        if !self.halted {
            self.run_always_blocks(pc)?;
        }
        Ok(())
    }

    fn step_base(&mut self, pc: u32, word: u32) -> Result<(), IssError> {
        let decoded = riscv::decode(word);
        // Scoreboard: RAW/WAW against pending decoupled writes.
        let (rs1, rs2, rd) = decoded_regs(&decoded);
        self.stall_until_clear(rs1, rs2, rd, &[]);
        match self.cpu.step(None)? {
            StepOutcome::Halted => {
                self.halted = true;
                self.instret += 1;
                self.advance_cycles(1);
                return Ok(());
            }
            StepOutcome::Retired => {}
        }
        self.instret += 1;
        let mut cost = match self.desc.kind {
            CoreKind::Pipeline { .. } => 1,
            CoreKind::Fsm {
                alu_cycles,
                mem_cycles,
                branch_cycles,
            } => match decoded {
                DecodedInstr::Load { .. } | DecodedInstr::Store { .. } => mem_cycles,
                DecodedInstr::Jal { .. }
                | DecodedInstr::Jalr { .. }
                | DecodedInstr::Branch { .. } => branch_cycles,
                _ => alu_cycles,
            },
        };
        if matches!(
            decoded,
            DecodedInstr::Load { .. } | DecodedInstr::Store { .. }
        ) {
            cost += self.desc.memory_wait;
        }
        if self.cpu.pc != pc.wrapping_add(4) {
            cost += self.desc.branch_penalty;
        }
        self.advance_cycles(cost);
        Ok(())
    }

    fn step_isax(
        &mut self,
        pc: u32,
        word: u32,
        isax_idx: usize,
        graph_idx: usize,
    ) -> Result<(), IssError> {
        let graph = self.isaxes[isax_idx].graphs[graph_idx].clone();
        // Hazards: the rd this instruction writes, its rs operands, and any
        // custom registers it touches.
        let rs1 = Some(word >> 15 & 31);
        let rs2 = Some(word >> 20 & 31);
        let rd = Some(word >> 7 & 31);
        let touched: Vec<String> = self.isaxes[isax_idx]
            .lil
            .custom_regs
            .iter()
            .map(|r| r.name.clone())
            .collect();
        self.stall_until_clear(rs1, rs2, rd, &touched);

        // Evaluate the compiled data-flow graph against core state.
        let updates = {
            let mut env = CoreEnv {
                cpu: &mut self.cpu,
                cust: &self.cust,
                word,
                pc,
            };
            eval_graph(&graph.graph, &self.isaxes[isax_idx].lil, &mut env)
        };

        self.instret += 1;
        let default_next = pc.wrapping_add(4);
        self.cpu.pc = default_next;

        let uses_mem = graph_uses_mem(&graph);
        let mut cost = match self.desc.kind {
            CoreKind::Pipeline { .. } => 1,
            CoreKind::Fsm { alu_cycles, .. } => alu_cycles + graph.max_stage as u64,
        };
        if uses_mem {
            cost += self.desc.memory_wait;
        }

        match graph.mode {
            ExecutionMode::InPipeline | ExecutionMode::Always => {
                self.apply_updates_with_rd(&updates, word >> 7 & 31);
            }
            ExecutionMode::TightlyCoupled => {
                // The core stalls until the ISAX finishes (§3.2).
                let extra = graph.max_stage.saturating_sub(self.desc.wb_stage()) as u64;
                cost += extra;
                self.apply_updates_with_rd(&updates, word >> 7 & 31);
            }
            ExecutionMode::Decoupled => {
                // Split: pre-spawn updates commit at issue; spawn updates
                // commit in the background via the scoreboard.
                let issue_stage = graph.spawn_stage.unwrap_or(self.desc.wb_stage());
                let latency = graph.max_stage.saturating_sub(issue_stage).max(1);
                let (now, deferred) = split_spawn_updates(&graph, updates);
                self.apply_updates_with_rd(&now, word >> 7 & 31);
                if !deferred.is_empty() {
                    let writes_rd = deferred.iter().any(|u| u.kind == UpdateKind::Rd);
                    let custom = deferred.iter().find_map(|u| match &u.kind {
                        UpdateKind::Cust(name) => Some(name.clone()),
                        _ => None,
                    });
                    let tag = self.scoreboard.dispatch(
                        if writes_rd { rd } else { None },
                        custom,
                        latency,
                    );
                    let rd_idx = word >> 7 & 31;
                    self.in_flight.push((tag, deferred, rd_idx));
                }
            }
        }
        if self.cpu.pc != default_next {
            cost += self.desc.branch_penalty;
        }
        self.advance_cycles(cost);
        Ok(())
    }

    fn run_always_blocks(&mut self, pc: u32) -> Result<(), IssError> {
        let default_next = self.cpu.pc;
        let mut pc_claimed = false;
        for isax_idx in 0..self.isaxes.len() {
            for graph_idx in 0..self.isaxes[isax_idx].graphs.len() {
                if !self.isaxes[isax_idx].graphs[graph_idx].is_always {
                    continue;
                }
                let graph = self.isaxes[isax_idx].graphs[graph_idx].clone();
                let updates = {
                    let mut env = CoreEnv {
                        cpu: &mut self.cpu,
                        cust: &self.cust,
                        word: 0,
                        pc,
                    };
                    eval_graph(&graph.graph, &self.isaxes[isax_idx].lil, &mut env)
                };
                for u in updates {
                    match u.kind {
                        UpdateKind::Pc => {
                            // Always-mode PC writes redirect the next fetch,
                            // but explicit control flow from the retired
                            // instruction wins, and only the first
                            // always-writer is granted (static priority).
                            if self.cpu.pc == pc.wrapping_add(4)
                                && default_next == pc.wrapping_add(4)
                                && !pc_claimed
                            {
                                self.cpu.pc = u.value.to_u64() as u32;
                                pc_claimed = true;
                            }
                        }
                        _ => self.apply_updates(&[u]),
                    }
                }
            }
        }
        Ok(())
    }

    fn stall_until_clear(
        &mut self,
        rs1: Option<u32>,
        rs2: Option<u32>,
        rd: Option<u32>,
        custom: &[String],
    ) {
        let mut guard = 0;
        while self.scoreboard.issue_blocked(rs1, rs2, rd)
            || custom.iter().any(|c| self.scoreboard.custom_blocked(c))
        {
            self.advance_cycles(1);
            guard += 1;
            assert!(guard < 1_000_000, "scoreboard deadlock");
        }
    }

    /// Applies updates including `rd` writes for the instruction whose rd
    /// field index is `rd_idx`.
    fn apply_updates_with_rd(&mut self, updates: &[StateUpdate], rd_idx: u32) {
        for u in updates {
            match &u.kind {
                UpdateKind::Rd => self.cpu.write_reg(rd_idx, u.value.to_u64() as u32),
                _ => self.apply_updates(std::slice::from_ref(u)),
            }
        }
    }

    /// Applies updates that cannot target `rd` (always-blocks, deferred
    /// non-rd commits).
    fn apply_updates(&mut self, updates: &[StateUpdate]) {
        for u in updates {
            match &u.kind {
                UpdateKind::Rd => {
                    unreachable!("Rd updates go through apply_updates_with_rd")
                }
                UpdateKind::Pc => self.cpu.pc = u.value.to_u64() as u32,
                UpdateKind::Mem => {
                    let addr = u.addr.as_ref().expect("memory address").to_u64() as u32;
                    self.cpu.write_word(addr, u.value.to_u64() as u32);
                }
                UpdateKind::Cust(name) => {
                    let idx = u.addr.as_ref().map(|a| a.to_u64()).unwrap_or(0);
                    self.cust.write(name, idx, u.value.clone());
                }
            }
        }
    }

    /// Advances the clock, ticking the scoreboard and committing decoupled
    /// results as they become ready (each costs one extra write-back cycle,
    /// §3.2).
    fn advance_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.cycles += 1;
            let ready = self.scoreboard.tick();
            for tag in ready {
                if let Some(pos) = self.in_flight.iter().position(|(t, _, _)| *t == tag) {
                    let (_, updates, rd) = self.in_flight.remove(pos);
                    for u in &updates {
                        match &u.kind {
                            UpdateKind::Rd => self.cpu.write_reg(rd, u.value.to_u64() as u32),
                            _ => self.apply_updates(std::slice::from_ref(u)),
                        }
                    }
                    // One stall cycle for the write-back port conflict.
                    self.cycles += 1;
                }
            }
        }
    }
}

/// Extracts decoded source/destination registers for hazard checks.
fn decoded_regs(d: &DecodedInstr) -> (Option<u32>, Option<u32>, Option<u32>) {
    match *d {
        DecodedInstr::Lui { rd, .. } | DecodedInstr::Auipc { rd, .. } => (None, None, Some(rd)),
        DecodedInstr::Jal { rd, .. } => (None, None, Some(rd)),
        DecodedInstr::Jalr { rd, rs1, .. } => (Some(rs1), None, Some(rd)),
        DecodedInstr::Branch { rs1, rs2, .. } => (Some(rs1), Some(rs2), None),
        DecodedInstr::Load { rd, rs1, .. } => (Some(rs1), None, Some(rd)),
        DecodedInstr::Store { rs1, rs2, .. } => (Some(rs1), Some(rs2), None),
        DecodedInstr::OpImm { rd, rs1, .. } => (Some(rs1), None, Some(rd)),
        DecodedInstr::Op { rd, rs1, rs2, .. } => (Some(rs1), Some(rs2), Some(rd)),
        _ => (None, None, None),
    }
}

fn graph_uses_mem(graph: &CompiledGraph) -> bool {
    graph.graph.ops.iter().any(|op| {
        matches!(
            op.kind,
            ir::lil::OpKind::ReadMem | ir::lil::OpKind::WriteMem
        )
    })
}

/// Splits evaluated updates into issue-time and spawn-deferred sets.
fn split_spawn_updates(
    graph: &CompiledGraph,
    updates: Vec<StateUpdate>,
) -> (Vec<StateUpdate>, Vec<StateUpdate>) {
    // Map update targets back to graph write ops to read their spawn flag.
    let mut now = Vec::new();
    let mut deferred = Vec::new();
    for u in updates {
        let in_spawn = graph
            .graph
            .ops
            .iter()
            .find(|op| match (&op.kind, &u.kind) {
                (ir::lil::OpKind::WriteRd, UpdateKind::Rd) => true,
                (ir::lil::OpKind::WritePc, UpdateKind::Pc) => true,
                (ir::lil::OpKind::WriteMem, UpdateKind::Mem) => true,
                (ir::lil::OpKind::WriteCustReg(a), UpdateKind::Cust(b)) => a == b,
                _ => false,
            })
            .map(|op| op.in_spawn)
            .unwrap_or(false);
        if in_spawn {
            deferred.push(u);
        } else {
            now.push(u);
        }
    }
    (now, deferred)
}

/// Bridges the LIL evaluator onto core state.
struct CoreEnv<'a> {
    cpu: &'a mut Cpu,
    cust: &'a CustRegs,
    word: u32,
    pc: u32,
}

impl<'a> LilEnv for CoreEnv<'a> {
    fn instr_word(&mut self) -> ApInt {
        ApInt::from_u64(self.word as u64, 32)
    }

    fn read_rs1(&mut self) -> ApInt {
        ApInt::from_u64(self.cpu.read_reg(self.word >> 15 & 31) as u64, 32)
    }

    fn read_rs2(&mut self) -> ApInt {
        ApInt::from_u64(self.cpu.read_reg(self.word >> 20 & 31) as u64, 32)
    }

    fn read_pc(&mut self) -> ApInt {
        ApInt::from_u64(self.pc as u64, 32)
    }

    fn read_mem(&mut self, addr: &ApInt) -> ApInt {
        ApInt::from_u64(self.cpu.read_word(addr.to_u64() as u32) as u64, 32)
    }

    fn read_cust_reg(&mut self, name: &str, index: &ApInt) -> ApInt {
        self.cust.read(name, index.to_u64())
    }
}
