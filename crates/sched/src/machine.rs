//! The machine: an SMT core plus an OS process table.

use vds_smtsim::core::{
    Core, CoreConfig, RunOutcome, SavedContext, Thread, ThreadId, ThreadState, Trap,
};
use vds_smtsim::isa::Instr;
use vds_smtsim::program::Program;

/// The program parked in an empty hardware context: a lone `halt`.
fn idle_program() -> Program {
    Program::from_instrs(&[Instr::Halt])
}

/// Identifies a process in the machine's process table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Switched out, runnable.
    Ready,
    /// Resident on the given hardware thread.
    Resident(ThreadId),
    /// Ended its current round (`yield`); resumable.
    Yielded,
    /// Ran `halt`.
    Halted,
    /// Took a trap.
    Trapped(Trap),
}

/// What happened when a process was run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcOutcome {
    /// The process ended a round.
    Yielded,
    /// The process halted.
    Halted,
    /// The process trapped.
    Trapped(Trap),
    /// The cycle budget expired first.
    Budget,
}

#[derive(Debug)]
struct ProcEntry {
    name: String,
    /// Saved context while switched out; `None` while resident.
    ctx: Option<SavedContext>,
    state: ProcState,
    cycles_used: u64,
    dispatches: u64,
}

/// A processor with an OS on top: process table, dispatch, context-switch
/// accounting.
#[derive(Debug)]
pub struct Machine {
    core: Core,
    procs: Vec<ProcEntry>,
    resident: Vec<Option<ProcId>>,
    ctx_switch_cycles: u32,
    switches: u64,
}

impl Machine {
    /// Build a machine. `ctx_switch_cycles` is the paper's `c`, in cycles.
    pub fn new(cfg: CoreConfig, ctx_switch_cycles: u32) -> Self {
        let n = cfg.max_threads;
        let mut core = Core::new(cfg);
        // park an idle halted program in every hardware context
        let idle = idle_program();
        for _ in 0..n {
            core.add_thread(&idle, 1);
        }
        // drive each idle thread to Halted so contexts are quiescent
        core.run_until_all_blocked(16);
        Machine {
            core,
            procs: Vec::new(),
            resident: vec![None; n],
            ctx_switch_cycles,
            switches: 0,
        }
    }

    /// The underlying core (read access — counters, caches, cycles).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable core access (fault injection).
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Total machine cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.core.cycles()
    }

    /// Number of context switches performed (dispatches that displaced a
    /// different process or filled an empty context).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of hardware contexts.
    pub fn hw_threads(&self) -> usize {
        self.resident.len()
    }

    /// Create a process from a program with a private `dmem_words`-word
    /// address space. The process starts switched out, `Ready`.
    pub fn spawn(&mut self, name: impl Into<String>, prog: &Program, dmem_words: usize) -> ProcId {
        assert!(
            prog.data.len() <= dmem_words,
            "data image exceeds address space"
        );
        let mut dmem = prog.data.clone();
        dmem.resize(dmem_words, 0);
        self.procs.push(ProcEntry {
            name: name.into(),
            ctx: Some(SavedContext {
                regs: [0; 16],
                pc: prog.entry,
                prog: prog.clone(),
                dmem,
                state: ThreadState::Ready,
            }),
            state: ProcState::Ready,
            cycles_used: 0,
            dispatches: 0,
        });
        ProcId(self.procs.len() - 1)
    }

    /// Process state.
    pub fn state(&self, pid: ProcId) -> ProcState {
        self.procs[pid.0].state
    }

    /// Process name.
    pub fn name(&self, pid: ProcId) -> &str {
        &self.procs[pid.0].name
    }

    /// Cycles consumed while this process was running (shared cycles on an
    /// SMT machine count for every resident process).
    pub fn cycles_used(&self, pid: ProcId) -> u64 {
        self.procs[pid.0].cycles_used
    }

    /// Which process is resident on a hardware thread.
    pub fn resident_on(&self, hw: ThreadId) -> Option<ProcId> {
        self.resident[hw.0]
    }

    /// Read a resident or switched-out process's architectural state via a
    /// callback (registers, memory) — used for snapshots and comparisons.
    pub fn with_state<R>(&self, pid: ProcId, f: impl FnOnce(&[u32; 16], u32, &[u32]) -> R) -> R {
        match self.procs[pid.0].state {
            ProcState::Resident(hw) => {
                let t: &Thread = self.core.thread(hw);
                f(&t.regs, t.pc, &t.dmem)
            }
            _ => {
                let ctx = self.procs[pid.0].ctx.as_ref().expect("switched out");
                f(&ctx.regs, ctx.pc, &ctx.dmem)
            }
        }
    }

    /// Mutate a process's architectural state (fault injection). The
    /// closure receives `(regs, pc, dmem, text)`.
    pub fn with_state_mut<R>(
        &mut self,
        pid: ProcId,
        f: impl FnOnce(&mut [u32; 16], &mut u32, &mut [u32], &mut [u32]) -> R,
    ) -> R {
        match self.procs[pid.0].state {
            ProcState::Resident(hw) => {
                let t = self.core.thread_mut(hw);
                f(&mut t.regs, &mut t.pc, &mut t.dmem, &mut t.prog.text)
            }
            _ => {
                let ctx = self.procs[pid.0].ctx.as_mut().expect("switched out");
                f(
                    &mut ctx.regs,
                    &mut ctx.pc,
                    &mut ctx.dmem,
                    &mut ctx.prog.text,
                )
            }
        }
    }

    /// Replace a process's full context (rollback to a checkpoint).
    /// The process must be switched out.
    pub fn replace_context(&mut self, pid: ProcId, ctx: SavedContext) {
        let p = &mut self.procs[pid.0];
        assert!(
            !matches!(p.state, ProcState::Resident(_)),
            "cannot replace the context of a resident process"
        );
        p.ctx = Some(ctx);
        p.state = ProcState::Ready;
    }

    /// Take a process's saved context (it must be switched out).
    pub fn clone_context(&self, pid: ProcId) -> SavedContext {
        match self.procs[pid.0].state {
            ProcState::Resident(hw) => {
                let t = self.core.thread(hw);
                SavedContext {
                    regs: t.regs,
                    pc: t.pc,
                    prog: t.prog.clone(),
                    dmem: t.dmem.clone(),
                    state: t.state,
                }
            }
            _ => {
                let ctx = self.procs[pid.0].ctx.as_ref().expect("ctx present");
                SavedContext {
                    regs: ctx.regs,
                    pc: ctx.pc,
                    prog: ctx.prog.clone(),
                    dmem: ctx.dmem.clone(),
                    state: ctx.state,
                }
            }
        }
    }

    /// Dispatch `pid` onto hardware thread `hw`.
    ///
    /// * If `pid` is already resident there, this just resumes it after a
    ///   yield (no switch cost — same process continues).
    /// * Otherwise the currently resident process (if any) is switched
    ///   out, the new one switched in, and the hardware thread is parked
    ///   for the context-switch cost.
    ///
    /// # Panics
    /// Panics if the process has halted or trapped, or is resident on a
    /// *different* hardware thread.
    pub fn dispatch(&mut self, pid: ProcId, hw: ThreadId) {
        match self.procs[pid.0].state {
            ProcState::Halted => panic!("cannot dispatch a halted process"),
            ProcState::Trapped(_) => panic!("cannot dispatch a trapped process"),
            ProcState::Resident(cur) => {
                assert_eq!(cur, hw, "process resident on another hardware thread");
                // resume after yield
                if self.core.thread(hw).state == ThreadState::Yielded {
                    self.core.resume(hw);
                }
                return;
            }
            ProcState::Ready | ProcState::Yielded => {}
        }

        // switch out whoever is there
        if let Some(old) = self.resident[hw.0] {
            self.switch_out(old, hw);
        }

        let p = &mut self.procs[pid.0];
        let mut incoming = p.ctx.take().expect("non-resident process has a context");
        // a yielded process resumes at the instruction after its yield
        incoming.state = ThreadState::Ready;
        let _displaced = self.core.swap_context(hw, incoming);
        self.core.park_thread(hw, self.ctx_switch_cycles);
        self.switches += 1;
        p.state = ProcState::Resident(hw);
        p.dispatches += 1;
        self.resident[hw.0] = Some(pid);
    }

    fn switch_out(&mut self, pid: ProcId, hw: ThreadId) {
        let t_state = self.core.thread(hw).state;
        let idle = SavedContext {
            regs: [0; 16],
            pc: 0,
            prog: idle_program(),
            dmem: vec![0; 1],
            state: ThreadState::Halted,
        };
        let outgoing = self.core.swap_context(hw, idle);
        let p = &mut self.procs[pid.0];
        p.ctx = Some(outgoing);
        p.state = match t_state {
            ThreadState::Yielded => ProcState::Yielded,
            ThreadState::Halted => ProcState::Halted,
            ThreadState::Trapped(tr) => ProcState::Trapped(tr),
            _ => ProcState::Ready,
        };
        self.resident[hw.0] = None;
    }

    /// Explicitly switch a process out of its hardware thread.
    pub fn preempt(&mut self, pid: ProcId) {
        if let ProcState::Resident(hw) = self.procs[pid.0].state {
            self.switch_out(pid, hw);
        }
    }

    /// Run the machine until the process on `hw` yields/halts/traps or
    /// the budget expires. Other resident processes execute concurrently.
    pub fn run_hw_until_block(&mut self, hw: ThreadId, budget: u64) -> ProcOutcome {
        let pid = self.resident[hw.0].expect("no process resident");
        let start = self.core.cycles();
        let out = self.core.run_until_thread_blocks(hw, budget);
        self.procs[pid.0].cycles_used += self.core.cycles() - start;
        match out {
            RunOutcome::AllYielded => {
                self.procs[pid.0].state = ProcState::Resident(hw);
                ProcOutcome::Yielded
            }
            RunOutcome::AllHalted => {
                self.switch_out(pid, hw);
                ProcOutcome::Halted
            }
            RunOutcome::Trapped(_, trap) => {
                self.switch_out(pid, hw);
                ProcOutcome::Trapped(trap)
            }
            RunOutcome::CycleBudgetExhausted => ProcOutcome::Budget,
        }
    }

    /// Run until *every* hardware thread with a resident process blocks
    /// (each yields, halts or traps), or the budget expires. Returns the
    /// per-hardware-thread outcomes (`None` for empty contexts).
    pub fn run_all_until_block(&mut self, budget: u64) -> Vec<Option<ProcOutcome>> {
        let deadline = self.core.cycles() + budget;
        let hws: Vec<ThreadId> = (0..self.resident.len()).map(ThreadId).collect();
        let mut outcomes: Vec<Option<ProcOutcome>> = vec![None; hws.len()];
        loop {
            let mut all_blocked = true;
            for &hw in &hws {
                if self.resident[hw.0].is_none() {
                    continue;
                }
                let st = self.core.thread(hw).state;
                match st {
                    ThreadState::Yielded => {
                        outcomes[hw.0] = Some(ProcOutcome::Yielded);
                    }
                    ThreadState::Halted | ThreadState::Trapped(_) => {
                        // settle bookkeeping via run_hw (already blocked)
                        let o = self.run_hw_until_block(hw, 0);
                        outcomes[hw.0] = Some(match o {
                            ProcOutcome::Budget => unreachable!("thread already blocked"),
                            other => other,
                        });
                    }
                    _ => all_blocked = false,
                }
            }
            if all_blocked {
                return outcomes;
            }
            if self.core.cycles() >= deadline {
                for (hw, o) in outcomes.iter_mut().enumerate() {
                    if o.is_none() && self.resident[hw].is_some() {
                        *o = Some(ProcOutcome::Budget);
                    }
                }
                return outcomes;
            }
            self.core.run_until_any_blocks(deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vds_smtsim::asm::assemble;
    use vds_smtsim::kernels;

    #[test]
    fn idle_program_is_an_assembled_halt() {
        assert_eq!(idle_program(), assemble("halt\n").unwrap());
    }

    fn two_round_prog() -> Program {
        assemble(
            r#"
                addi r1, r1, 1
                st   r1, 0(r0)
                yield
                addi r1, r1, 1
                st   r1, 0(r0)
                yield
                halt
            "#,
        )
        .unwrap()
    }

    #[test]
    fn spawn_dispatch_run() {
        let mut m = Machine::new(CoreConfig::default(), 10);
        let p = m.spawn("v1", &two_round_prog(), 8);
        assert_eq!(m.state(p), ProcState::Ready);
        m.dispatch(p, ThreadId(0));
        assert_eq!(m.state(p), ProcState::Resident(ThreadId(0)));
        assert_eq!(
            m.run_hw_until_block(ThreadId(0), 100_000),
            ProcOutcome::Yielded
        );
        m.with_state(p, |_, _, dmem| assert_eq!(dmem[0], 1));
    }

    #[test]
    fn yield_resume_same_process_no_switch_cost() {
        let mut m = Machine::new(CoreConfig::default(), 10);
        let p = m.spawn("v1", &two_round_prog(), 8);
        m.dispatch(p, ThreadId(0));
        let s0 = m.switches();
        m.run_hw_until_block(ThreadId(0), 100_000);
        m.dispatch(p, ThreadId(0)); // resume, same process
        assert_eq!(m.switches(), s0, "no context switch for a resume");
        assert_eq!(
            m.run_hw_until_block(ThreadId(0), 100_000),
            ProcOutcome::Yielded
        );
        m.with_state(p, |_, _, dmem| assert_eq!(dmem[0], 2));
    }

    #[test]
    fn alternating_processes_pay_switches() {
        let mut m = Machine::new(CoreConfig::single_threaded(), 25);
        let a = m.spawn("v1", &two_round_prog(), 8);
        let b = m.spawn("v2", &two_round_prog(), 8);
        m.dispatch(a, ThreadId(0));
        m.run_hw_until_block(ThreadId(0), 100_000);
        m.dispatch(b, ThreadId(0));
        m.run_hw_until_block(ThreadId(0), 100_000);
        m.dispatch(a, ThreadId(0));
        m.run_hw_until_block(ThreadId(0), 100_000);
        assert_eq!(m.switches(), 3);
        assert_eq!(m.state(a), ProcState::Resident(ThreadId(0)));
        assert_eq!(m.state(b), ProcState::Yielded);
        m.with_state(a, |_, _, d| assert_eq!(d[0], 2));
        m.with_state(b, |_, _, d| assert_eq!(d[0], 1));
    }

    #[test]
    fn context_switch_cost_is_visible_in_cycles() {
        let run_with_cost = |c: u32| {
            let mut m = Machine::new(CoreConfig::single_threaded(), c);
            let a = m.spawn("a", &two_round_prog(), 8);
            let b = m.spawn("b", &two_round_prog(), 8);
            for _ in 0..2 {
                m.dispatch(a, ThreadId(0));
                m.run_hw_until_block(ThreadId(0), 100_000);
                m.dispatch(b, ThreadId(0));
                m.run_hw_until_block(ThreadId(0), 100_000);
            }
            m.cycles()
        };
        let cheap = run_with_cost(0);
        let costly = run_with_cost(100);
        assert!(costly >= cheap + 300, "cheap={cheap} costly={costly}");
    }

    #[test]
    fn two_processes_in_parallel_on_smt() {
        let k = kernels::vecsum(64, 2);
        let prog = k.program();
        let mut m = Machine::new(CoreConfig::default(), 10);
        let a = m.spawn("v1", &prog, k.dmem_words);
        let b = m.spawn("v2", &prog, k.dmem_words);
        m.dispatch(a, ThreadId(0));
        m.dispatch(b, ThreadId(1));
        let outs = m.run_all_until_block(10_000_000);
        assert_eq!(outs[0], Some(ProcOutcome::Yielded));
        assert_eq!(outs[1], Some(ProcOutcome::Yielded));
        let da = m.with_state(a, |_, _, d| d[k.out_addr as usize]);
        let db = m.with_state(b, |_, _, d| d[k.out_addr as usize]);
        assert_eq!(da, db, "identical versions produce identical rounds");
    }

    #[test]
    fn trap_reported_and_process_removed() {
        let bad = assemble("li r1, 999\nld r2, 0(r1)\nhalt\n").unwrap();
        let mut m = Machine::new(CoreConfig::default(), 5);
        let p = m.spawn("bad", &bad, 8);
        m.dispatch(p, ThreadId(0));
        match m.run_hw_until_block(ThreadId(0), 100_000) {
            ProcOutcome::Trapped(Trap::AccessViolation { addr }) => assert_eq!(addr, 999),
            other => panic!("{other:?}"),
        }
        assert!(matches!(m.state(p), ProcState::Trapped(_)));
        assert_eq!(m.resident_on(ThreadId(0)), None);
    }

    #[test]
    fn rollback_via_replace_context() {
        let mut m = Machine::new(CoreConfig::default(), 5);
        let p = m.spawn("v", &two_round_prog(), 8);
        let fresh = m.clone_context(p);
        m.dispatch(p, ThreadId(0));
        m.run_hw_until_block(ThreadId(0), 100_000);
        m.preempt(p);
        m.with_state(p, |_, _, d| assert_eq!(d[0], 1));
        m.replace_context(p, fresh);
        m.with_state(p, |_, _, d| assert_eq!(d[0], 0, "rolled back"));
        m.dispatch(p, ThreadId(0));
        m.run_hw_until_block(ThreadId(0), 100_000);
        m.with_state(p, |_, _, d| assert_eq!(d[0], 1, "replays round 1"));
    }

    #[test]
    fn text_rewritten_through_with_state_mut_takes_effect() {
        // The path vds-fault's text sites use, on a resident and on a
        // switched-out process: the rewritten word runs on its next
        // fetch, and an illegal word traps at its pc.
        let prog = assemble("loop:\naddi r1, r1, 1\nyield\njal r0, loop\n").unwrap();
        let add100 = assemble("addi r1, r1, 100\n").unwrap().text[0];
        let mut m = Machine::new(CoreConfig::default(), 5);
        let p = m.spawn("v", &prog, 8);
        let hw = ThreadId(0);
        m.dispatch(p, hw);
        assert_eq!(m.run_hw_until_block(hw, 1000), ProcOutcome::Yielded);
        m.with_state_mut(p, |_, _, _, text| text[0] = add100); // resident
        m.dispatch(p, hw);
        assert_eq!(m.run_hw_until_block(hw, 1000), ProcOutcome::Yielded);
        m.with_state(p, |regs, _, _| assert_eq!(regs[1], 101));
        m.preempt(p);
        m.with_state_mut(p, |_, _, _, text| text[0] = add100 + 1); // switched out
        m.dispatch(p, hw);
        assert_eq!(m.run_hw_until_block(hw, 1000), ProcOutcome::Yielded);
        m.with_state(p, |regs, _, _| assert_eq!(regs[1], 202));
        m.with_state_mut(p, |_, _, _, text| text[0] = 63 << 26);
        m.dispatch(p, hw);
        assert_eq!(
            m.run_hw_until_block(hw, 1000),
            ProcOutcome::Trapped(Trap::IllegalInstruction { pc: 0 })
        );
    }

    #[test]
    fn with_state_mut_reaches_resident_and_saved() {
        let mut m = Machine::new(CoreConfig::default(), 5);
        let p = m.spawn("v", &two_round_prog(), 8);
        m.with_state_mut(p, |regs, _, _, _| regs[5] = 77); // switched out
        m.dispatch(p, ThreadId(0));
        m.with_state(p, |regs, _, _| assert_eq!(regs[5], 77));
        m.with_state_mut(p, |_, _, dmem, _| dmem[3] = 9); // resident
        m.with_state(p, |_, _, dmem| assert_eq!(dmem[3], 9));
    }
}
