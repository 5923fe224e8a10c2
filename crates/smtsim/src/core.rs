//! The SMT core: thread contexts, shared functional units, shared caches,
//! cycle-by-cycle execution.
//!
//! ## Pipeline model
//!
//! In-order, architecturally-atomic execution: each cycle, threads are
//! considered in a deterministic priority order (round-robin rotation or
//! ICOUNT); a thread issues at most one instruction per cycle, subject to
//!
//! * total issue width,
//! * a free functional unit of the required class (multi-cycle ops reserve
//!   their unit),
//! * instruction-cache hit (miss parks the thread for the memory latency),
//! * not being parked by a previous data-cache miss, multi-cycle op or
//!   branch-mispredict flush.
//!
//! This is far simpler than a real out-of-order SMT pipeline, but it
//! produces the behaviour the paper's model needs: a single thread leaves
//! issue slots and stall cycles unused; a second thread fills them;
//! co-run time is `2αt` with α somewhere in `(½, 1)` depending on how the
//! workloads collide on units and caches.
//!
//! ## Faults
//!
//! The core carries optional **permanent functional-unit faults**
//! ([`FuFault`]): results computed on a specific unit get a bit forced.
//! Because diverse program versions schedule work onto units differently,
//! a single faulty unit corrupts them differently — the property the VDS
//! diversity argument relies on. Transient faults are injected from
//! outside by mutating [`Thread::regs`], [`Thread::dmem`] or program text
//! (see `vds-fault`).

use crate::branch::{Predictor, PredictorKind};
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::encode::decode;
use crate::isa::{FuClass, Instr, Reg};
use crate::perf::{StallCause, ThreadCounters};
use crate::program::Program;

/// Identifies a hardware thread context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

/// Why a thread stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Load/store outside the thread's address space. The paper's system
    /// model: "an access to the data of another version … leads to an
    /// access violation which is signaled as a fault but leaves the other
    /// version's data unchanged."
    AccessViolation {
        /// Offending word address.
        addr: u32,
    },
    /// Fetched word does not decode (corrupted program memory).
    IllegalInstruction {
        /// Instruction index.
        pc: u32,
    },
    /// Control flow left the text section.
    PcOutOfRange {
        /// Offending instruction index.
        pc: u32,
    },
}

/// Scheduling state of a hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Can issue.
    Ready,
    /// Parked until the given cycle (cache miss, multi-cycle op, flush).
    StalledUntil(u64),
    /// Executed `yield` — end of a VDS round; host must resume it.
    Yielded,
    /// Executed `halt`.
    Halted,
    /// Took a trap; host decides what to do.
    Trapped(Trap),
}

/// Fetch/issue priority policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchPolicy {
    /// Rotate thread priority every cycle.
    #[default]
    RoundRobin,
    /// Prefer the thread with the fewest retired instructions (a crude,
    /// deterministic stand-in for ICOUNT).
    ICount,
}

/// A permanent hardware fault pinned to one functional unit: bit
/// `bit` of every result computed on that unit is forced to `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuFault {
    /// Functional-unit class.
    pub class: FuClass,
    /// Unit index within the class.
    pub unit: usize,
    /// Which result bit is stuck.
    pub bit: u8,
    /// Stuck-at value.
    pub value: bool,
}

impl FuFault {
    /// Apply the fault to a result value.
    #[inline]
    pub fn corrupt(&self, result: u32) -> u32 {
        if self.value {
            result | (1 << self.bit)
        } else {
            result & !(1 << self.bit)
        }
    }
}

/// Core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Hardware thread contexts (the paper's machine: 2).
    pub max_threads: usize,
    /// Instructions issued per cycle across all threads.
    pub issue_width: usize,
    /// Single-cycle ALUs.
    pub num_alu: usize,
    /// Multi-cycle multiply/divide units.
    pub num_mul: usize,
    /// Load/store units.
    pub num_mem: usize,
    /// Branch units.
    pub num_branch: usize,
    /// Shared instruction cache.
    pub icache: CacheConfig,
    /// Shared data cache.
    pub dcache: CacheConfig,
    /// Main-memory latency in cycles (applied to I/D misses).
    pub mem_latency: u32,
    /// Extra cycles a load stalls its thread even on a D-cache hit
    /// (load-use delay).
    pub load_use_delay: u32,
    /// Cycles a store miss stalls its thread (write-allocate fill;
    /// cheaper than a load miss thanks to the store buffer).
    pub store_miss_latency: u32,
    /// Branch mispredict flush penalty in cycles.
    pub mispredict_penalty: u32,
    /// Branch predictor per thread.
    pub predictor: PredictorKind,
    /// Thread priority policy.
    pub fetch_policy: FetchPolicy,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            max_threads: 2,
            issue_width: 2,
            num_alu: 2,
            num_mul: 1,
            num_mem: 1,
            num_branch: 1,
            icache: CacheConfig {
                sets: 128,
                ways: 2,
                line_words: 8,
            },
            dcache: CacheConfig::small(),
            mem_latency: 20,
            load_use_delay: 1,
            store_miss_latency: 4,
            mispredict_penalty: 3,
            predictor: PredictorKind::default(),
            fetch_policy: FetchPolicy::RoundRobin,
        }
    }
}

impl CoreConfig {
    /// A configuration approximating a *conventional* (1-context)
    /// processor of the same microarchitecture.
    pub fn single_threaded() -> Self {
        CoreConfig {
            max_threads: 1,
            ..CoreConfig::default()
        }
    }

    /// A wider SMT core with `n` contexts (for the §5 boosted variants).
    pub fn with_threads(n: usize) -> Self {
        CoreConfig {
            max_threads: n,
            ..CoreConfig::default()
        }
    }
}

/// A hardware thread context and its private architectural state.
#[derive(Debug, Clone)]
pub struct Thread {
    /// General registers; `regs[0]` is kept at zero after every step.
    pub regs: [u32; Reg::COUNT],
    /// Next instruction index.
    pub pc: u32,
    /// The program this context executes.
    pub prog: Program,
    /// Private data memory (word-addressed address space).
    pub dmem: Vec<u32>,
    /// Scheduling state.
    pub state: ThreadState,
    /// Performance counters.
    pub counters: ThreadCounters,
    predictor: Predictor,
    stall_cause: StallCause,
    /// Fill-buffer: a completed I-cache miss for this pc is delivered to
    /// the pipeline even if the line has been evicted again meanwhile.
    /// Without this, N > ways fetch streams aliasing one set livelock by
    /// mutually evicting each other's lines — real front-ends keep the
    /// in-flight line in a fill buffer for exactly this reason.
    fetch_fill: Option<u32>,
    /// Decode cache indexed by pc: a word seen there and its strict
    /// decode (`None` for an illegal word). A hit requires the fetched
    /// word to equal the cached one, so text rewritten by fault
    /// injection or a context switch is decoded afresh on its next
    /// fetch. Never longer than the longest text this context has run.
    decoded: Vec<(u32, Option<Instr>)>,
}

impl Thread {
    fn new(prog: &Program, dmem_words: usize, predictor: PredictorKind) -> Self {
        assert!(
            prog.data.len() <= dmem_words,
            "data image ({} words) exceeds address space ({} words)",
            prog.data.len(),
            dmem_words
        );
        let mut dmem = prog.data.clone();
        dmem.resize(dmem_words, 0);
        Thread {
            regs: [0; Reg::COUNT],
            pc: prog.entry,
            prog: prog.clone(),
            dmem,
            state: ThreadState::Ready,
            counters: ThreadCounters::default(),
            predictor: Predictor::new(predictor),
            stall_cause: StallCause::Parked,
            fetch_fill: None,
            decoded: Vec::new(),
        }
    }

    /// Strict decode of `word`, fetched at `pc` (which must lie inside
    /// the text), through the decode cache.
    #[inline]
    fn decode_at(&mut self, pc: usize, word: u32) -> Option<Instr> {
        if pc >= self.decoded.len() {
            // grow to the text, predecoding the words now there
            let text = &self.prog.text[self.decoded.len()..];
            self.decoded
                .extend(text.iter().map(|&w| (w, decode(w).ok())));
        }
        match self.decoded[pc] {
            (w, instr) if w == word => instr,
            _ => {
                let instr = decode(word).ok();
                self.decoded[pc] = (word, instr);
                instr
            }
        }
    }

    /// `true` if the thread may still make progress on its own.
    #[inline]
    pub fn is_live(&self) -> bool {
        matches!(
            self.state,
            ThreadState::Ready | ThreadState::StalledUntil(_)
        )
    }

    /// 128-bit digest of the thread's architectural state (registers, pc,
    /// data memory) — the same quantity a VDS comparison round hashes, in
    /// canonical order. Micro-architectural state (caches, predictor,
    /// counters) is deliberately excluded: two contexts that agree
    /// architecturally must digest equal even if they took different
    /// timing paths. Used by the checkpoint layer and the flight-recorder
    /// journal.
    pub fn state_digest(&self) -> vds_obs::Digest128 {
        let mut d = vds_obs::Digester128::new();
        d.push_words(&self.regs);
        d.push_word(self.pc);
        d.push_words(&self.dmem);
        d.finish()
    }
}

/// Saved architectural state for OS-level context switching
/// (`vds-sched`). Caches and predictors deliberately stay behind —
/// the pollution a context switch causes is part of the model.
#[derive(Debug, Clone)]
pub struct SavedContext {
    /// Register file.
    pub regs: [u32; Reg::COUNT],
    /// Program counter.
    pub pc: u32,
    /// Program image.
    pub prog: Program,
    /// Data memory.
    pub dmem: Vec<u32>,
    /// Scheduling state at save time.
    pub state: ThreadState,
}

/// Outcome of [`Core::run_until_all_blocked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every thread halted.
    AllHalted,
    /// No thread can issue; at least one yielded (others halted/yielded).
    AllYielded,
    /// A thread trapped (execution of the others stops too so the host
    /// can react; the paper's fault model allows a fault to stop the
    /// whole processor).
    Trapped(ThreadId, Trap),
    /// The cycle budget ran out first.
    CycleBudgetExhausted,
}

#[derive(Debug, Clone, Copy)]
struct FuReservation {
    class: FuClass,
    unit: usize,
    until: u64,
}

/// A closed pipeline window of one hardware thread: the cycle range from
/// the thread becoming runnable to it parking (yield / halt / trap /
/// context switch), with the instructions it issued and retired inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineWindow {
    /// Hardware thread index.
    pub thread: usize,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Last cycle of the window.
    pub end_cycle: u64,
    /// Cycles in which the thread issued an instruction.
    pub issued: u64,
    /// Instructions retired during the window.
    pub retired: u64,
}

/// Cap on recorded pipeline windows (drops are counted, not silent).
const MAX_WINDOWS: usize = 16_384;

/// The simultaneous multithreaded core.
#[derive(Debug, Clone)]
pub struct Core {
    cfg: CoreConfig,
    threads: Vec<Thread>,
    icache: Cache,
    dcache: Cache,
    cycle: u64,
    reservations: Vec<FuReservation>,
    faults: Vec<FuFault>,
    rr_offset: usize,
    record_windows: bool,
    windows: Vec<PipelineWindow>,
    /// Per-thread open window: (start_cycle, issued-at-start,
    /// retired-at-start) counter snapshots.
    open_windows: Vec<Option<(u64, u64, u64)>>,
    windows_dropped: u64,
    /// ICOUNT priority order, reused across [`Core::step`] calls so the
    /// hot per-cycle loop allocates nothing.
    order_scratch: Vec<usize>,
    /// Functional units claimed in the current cycle.
    used: Vec<(FuClass, usize)>,
    /// How often a thread has left the live states (yield, halt or
    /// trap) in [`Core::step`]. Between two such events no thread state
    /// a host can act on changes, so the run loops look at the states
    /// only when this moves.
    blocks: u64,
}

impl Core {
    /// Build a core with no threads.
    pub fn new(cfg: CoreConfig) -> Self {
        assert!(cfg.max_threads >= 1);
        assert!(cfg.issue_width >= 1);
        assert!(cfg.num_alu >= 1 && cfg.num_mul >= 1 && cfg.num_mem >= 1 && cfg.num_branch >= 1);
        let icache = Cache::new(cfg.icache);
        let dcache = Cache::new(cfg.dcache);
        Core {
            cfg,
            threads: Vec::new(),
            icache,
            dcache,
            cycle: 0,
            reservations: Vec::new(),
            faults: Vec::new(),
            rr_offset: 0,
            record_windows: false,
            windows: Vec::new(),
            open_windows: Vec::new(),
            windows_dropped: 0,
            order_scratch: Vec::new(),
            used: Vec::new(),
            blocks: 0,
        }
    }

    /// Enable or disable pipeline-window span recording (off by default;
    /// the windows feed [`Core::export_spans`]).
    pub fn set_window_recording(&mut self, on: bool) {
        self.record_windows = on;
    }

    #[inline]
    fn open_window(&mut self, tid: usize) {
        if self.open_windows.len() < self.threads.len() {
            self.open_windows.resize(self.threads.len(), None);
        }
        if self.open_windows[tid].is_none() {
            let c = &self.threads[tid].counters;
            self.open_windows[tid] = Some((self.cycle, c.issued_cycles, c.retired));
        }
    }

    fn close_window(&mut self, tid: usize) {
        let Some(open) = self.open_windows.get_mut(tid) else {
            return;
        };
        let Some((start, issued0, retired0)) = open.take() else {
            return;
        };
        if self.windows.len() >= MAX_WINDOWS {
            self.windows_dropped += 1;
            return;
        }
        let c = &self.threads[tid].counters;
        self.windows.push(PipelineWindow {
            thread: tid,
            start_cycle: start,
            end_cycle: self.cycle,
            issued: c.issued_cycles - issued0,
            retired: c.retired - retired0,
        });
    }

    /// Configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Install a thread running `prog` with a `dmem_words`-word private
    /// address space. Returns its id.
    ///
    /// # Panics
    /// Panics if all hardware contexts are occupied.
    pub fn add_thread(&mut self, prog: &Program, dmem_words: usize) -> ThreadId {
        assert!(
            self.threads.len() < self.cfg.max_threads,
            "no free hardware context (max {})",
            self.cfg.max_threads
        );
        self.threads
            .push(Thread::new(prog, dmem_words, self.cfg.predictor));
        ThreadId(self.threads.len() - 1)
    }

    /// Immutable access to a thread.
    pub fn thread(&self, id: ThreadId) -> &Thread {
        &self.threads[id.0]
    }

    /// Windowed counter snapshots of every installed thread, in thread
    /// order: the cycle-accounting view at the current cycle, suitable
    /// for differential α attribution (`vds_obs::alpha`). Snapshots can
    /// be taken mid-run and subtracted to scope a ledger to a window.
    pub fn counter_snapshots(&self) -> Vec<vds_obs::alpha::CycleSnapshot> {
        self.threads.iter().map(|t| t.counters.snapshot()).collect()
    }

    /// Mutable access to a thread (fault injection, host fix-ups).
    pub fn thread_mut(&mut self, id: ThreadId) -> &mut Thread {
        &mut self.threads[id.0]
    }

    /// Number of installed threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Install a permanent functional-unit fault.
    pub fn inject_fu_fault(&mut self, fault: FuFault) {
        self.faults.push(fault);
    }

    /// Remove all permanent faults.
    pub fn clear_fu_faults(&mut self) {
        self.faults.clear();
    }

    /// Shared I-cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// Shared D-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Flush core state into a metrics registry: total cycles, per-thread
    /// counters under `smt.thread<i>.*`, and shared cache hit/miss/conflict
    /// counts under `smt.icache.*` / `smt.dcache.*`.
    pub fn export_metrics<R: vds_obs::Record>(&self, rec: &mut R) {
        rec.count("smt.cycles", self.cycle);
        for (i, t) in self.threads.iter().enumerate() {
            t.counters.export_metrics(rec, &format!("smt.thread{i}"));
        }
        for (name, stats) in [
            ("icache", self.icache.stats()),
            ("dcache", self.dcache.stats()),
        ] {
            rec.count(&format!("smt.{name}.hits"), stats.hits);
            rec.count(&format!("smt.{name}.misses"), stats.misses);
            rec.count(
                &format!("smt.{name}.thread_conflicts"),
                stats.thread_conflicts,
            );
            rec.gauge(&format!("smt.{name}.hit_rate"), stats.hit_rate());
        }
    }

    /// Export recorded pipeline windows as spans (component `"smt"`, one
    /// lane per hardware thread). Still-open windows are clamped to the
    /// current cycle without being consumed.
    pub fn export_spans<R: vds_obs::Record>(&self, rec: &mut R) {
        let window_fields = |issued: u64, retired: u64| {
            vec![
                ("issued", vds_obs::Value::from(issued)),
                ("retired", vds_obs::Value::from(retired)),
            ]
        };
        for w in &self.windows {
            rec.record_span(vds_obs::SpanRecord {
                begin: w.start_cycle as f64,
                end: w.end_cycle as f64,
                component: "smt",
                name: "pipeline",
                tid: w.thread as u32,
                fields: window_fields(w.issued, w.retired),
            });
        }
        for (tid, open) in self.open_windows.iter().enumerate() {
            if let Some((start, issued0, retired0)) = open {
                let c = &self.threads[tid].counters;
                rec.record_span(vds_obs::SpanRecord {
                    begin: *start as f64,
                    end: self.cycle as f64,
                    component: "smt",
                    name: "pipeline",
                    tid: tid as u32,
                    fields: window_fields(c.issued_cycles - issued0, c.retired - retired0),
                });
            }
        }
        if self.windows_dropped > 0 {
            rec.count("smt.windows_dropped", self.windows_dropped);
        }
    }

    /// Park a thread for `cycles` cycles (the OS layer uses this to
    /// charge context-switch overhead to the hardware thread).
    ///
    /// # Panics
    /// Panics if the thread has halted or trapped.
    pub fn park_thread(&mut self, id: ThreadId, cycles: u32) {
        let t = &mut self.threads[id.0];
        assert!(
            matches!(
                t.state,
                ThreadState::Ready | ThreadState::StalledUntil(_) | ThreadState::Yielded
            ),
            "cannot park a thread in state {:?}",
            t.state
        );
        t.state = ThreadState::StalledUntil(self.cycle + u64::from(cycles));
        t.stall_cause = StallCause::Parked;
    }

    /// Resume a yielded thread.
    ///
    /// # Panics
    /// Panics if the thread is not in [`ThreadState::Yielded`].
    pub fn resume(&mut self, id: ThreadId) {
        let t = &mut self.threads[id.0];
        assert_eq!(
            t.state,
            ThreadState::Yielded,
            "resume() requires a yielded thread"
        );
        t.state = ThreadState::Ready;
    }

    /// Save a thread's architectural state and replace it with another
    /// (the OS context switch). Returns the previous context. The incoming
    /// context's `state` is restored as saved.
    pub fn swap_context(&mut self, id: ThreadId, incoming: SavedContext) -> SavedContext {
        if self.record_windows {
            self.close_window(id.0);
        }
        let t = &mut self.threads[id.0];
        let outgoing = SavedContext {
            regs: t.regs,
            pc: t.pc,
            prog: std::mem::take(&mut t.prog),
            dmem: std::mem::take(&mut t.dmem),
            state: t.state,
        };
        t.regs = incoming.regs;
        t.pc = incoming.pc;
        t.prog = incoming.prog;
        t.dmem = incoming.dmem;
        t.state = incoming.state;
        t.fetch_fill = None; // the fill buffer belongs to the old stream
        outgoing
    }

    fn free_unit(&self, class: FuClass) -> Option<usize> {
        let count = match class {
            FuClass::Alu => self.cfg.num_alu,
            FuClass::MulDiv => self.cfg.num_mul,
            FuClass::Mem => self.cfg.num_mem,
            FuClass::Branch => self.cfg.num_branch,
            FuClass::None => return Some(0),
        };
        (0..count).find(|&u| {
            !self
                .reservations
                .iter()
                .any(|r| r.class == class && r.unit == u && r.until > self.cycle)
                && !self.used.contains(&(class, u))
        })
    }

    fn corrupt(&self, class: FuClass, unit: usize, result: u32) -> u32 {
        let mut v = result;
        for f in &self.faults {
            if f.class == class && f.unit == unit {
                v = f.corrupt(v);
            }
        }
        v
    }

    /// Advance one cycle. Returns `true` if any thread issued.
    ///
    /// This is the only issue path; [`Core::advance`] and the run loops
    /// only add skipping of cycles in which no thread can issue.
    pub fn step(&mut self) -> bool {
        self.cycle += 1;
        if !self.reservations.is_empty() {
            let now = self.cycle;
            self.reservations.retain(|r| r.until > now);
        }
        let n = self.threads.len();
        // Round-robin priority rotates by one thread per cycle (a mask,
        // not a division, for power-of-two thread counts); ICOUNT orders
        // by retired instructions, ties by thread index.
        let start = if n.is_power_of_two() {
            self.rr_offset & (n - 1)
        } else {
            self.rr_offset % n.max(1)
        };
        self.rr_offset = self.rr_offset.wrapping_add(1);
        self.used.clear();
        let mut issued = 0usize;
        match self.cfg.fetch_policy {
            FetchPolicy::RoundRobin => {
                for tid in (start..n).chain(0..start) {
                    issued += usize::from(self.issue_slot(tid, issued));
                }
            }
            FetchPolicy::ICount => {
                let mut order = std::mem::take(&mut self.order_scratch);
                order.clear();
                order.extend(0..n);
                order.sort_by_key(|&i| (self.threads[i].counters.retired, i));
                for &tid in &order {
                    issued += usize::from(self.issue_slot(tid, issued));
                }
                self.order_scratch = order;
            }
        }
        issued > 0
    }

    /// Thread `tid`'s turn in the current cycle, `issued` instructions
    /// having issued before it. Books the cycle to the thread and returns
    /// `true` if it issued.
    #[inline]
    fn issue_slot(&mut self, tid: usize, issued: usize) -> bool {
        let cycle = self.cycle;
        self.threads[tid].counters.cycles += 1;
        if self.record_windows {
            // a window is open exactly while the thread is live
            let live = self.threads[tid].is_live();
            let open = matches!(self.open_windows.get(tid), Some(Some(_)));
            if live && !open {
                self.open_window(tid);
            } else if !live && open {
                self.close_window(tid);
            }
        }
        let t = &mut self.threads[tid];
        match t.state {
            ThreadState::Ready => {}
            ThreadState::StalledUntil(until) if cycle >= until => t.state = ThreadState::Ready,
            ThreadState::StalledUntil(_) => {
                t.counters.stall(t.stall_cause);
                return false;
            }
            ThreadState::Yielded | ThreadState::Halted | ThreadState::Trapped(_) => {
                t.counters.stall(StallCause::Parked);
                return false;
            }
        }

        if issued >= self.cfg.issue_width {
            t.counters.stall(StallCause::Width);
            return false;
        }

        // fetch
        let pc = t.pc;
        let Some(&word) = t.prog.text.get(pc as usize) else {
            t.state = ThreadState::Trapped(Trap::PcOutOfRange { pc });
            self.blocks += 1;
            // The trap-transition cycle is neither an issue nor a
            // cause-specific stall; book it as parked so the
            // conservation invariant (issued + stalls + parked ==
            // cycles) holds on trapping runs too.
            t.counters.stall(StallCause::Parked);
            return false;
        };
        let fill_hit = t.fetch_fill.take() == Some(pc);
        if !fill_hit && !self.icache.access(tid as u8, pc) {
            // the line arrives after the memory latency and is held
            // in the fill buffer, immune to eviction by siblings
            self.threads[tid].fetch_fill = Some(pc);
            self.stall(tid, self.cfg.mem_latency, StallCause::ICache);
            // no issue happened this cycle, so count it as stalled
            self.threads[tid].counters.stall(StallCause::ICache);
            return false;
        }
        let t = &mut self.threads[tid];
        let Some(instr) = t.decode_at(pc as usize, word) else {
            t.state = ThreadState::Trapped(Trap::IllegalInstruction { pc });
            self.blocks += 1;
            // Same conservation bookkeeping as the fetch trap.
            t.counters.stall(StallCause::Parked);
            return false;
        };

        // functional unit
        let class = instr.fu_class();
        let Some(unit) = self.free_unit(class) else {
            self.threads[tid].counters.stall(StallCause::FuBusy);
            return false;
        };
        if class != FuClass::None {
            self.used.push((class, unit));
            let lat = instr.fu_latency();
            if lat > 1 {
                self.reservations.push(FuReservation {
                    class,
                    unit,
                    until: cycle + u64::from(lat),
                });
            }
        }

        self.threads[tid].counters.issued_cycles += 1;
        self.execute(tid, &instr, class, unit);
        let t = &mut self.threads[tid];
        t.regs[0] = 0;
        if !t.is_live() {
            self.blocks += 1;
        }
        true
    }

    /// Advance by one [`Core::step`] or, when no thread is ready to
    /// issue, by the whole stretch of cycles before the earliest wake-up,
    /// never past `deadline`. A skipped stretch books exactly what
    /// stepping through it would: thread cycles, the stall cause (or
    /// `parked`) of every thread, the round-robin rotation, pipeline
    /// windows and functional-unit reservation expiry. Always advances
    /// at least one cycle.
    fn step_or_skip(&mut self, deadline: u64) {
        match self.idle_horizon() {
            Some(last) if last.min(deadline) > self.cycle + 1 && self.windows_settled() => {
                self.skip_idle(last.min(deadline));
            }
            _ => {
                self.step();
            }
        }
    }

    /// Step (skipping idle stretches) until a thread yields, halts or
    /// traps, or until `deadline`. No other thread-state change is
    /// visible to a host, so a run loop that acts on thread states only
    /// needs to look at them after this returns.
    pub fn run_until_any_blocks(&mut self, deadline: u64) {
        let blocks = self.blocks;
        while self.cycle < deadline && self.blocks == blocks {
            self.step_or_skip(deadline);
        }
    }

    /// Advance exactly `cycles` cycles: the same as that many
    /// [`Core::step`] calls, with idle stretches skipped.
    pub fn advance(&mut self, cycles: u64) {
        let target = self.cycle + cycles;
        while self.cycle < target {
            self.step_or_skip(target);
        }
    }

    /// The last cycle before any thread can issue again (the cycle
    /// before the earliest wake-up), or `None` if a thread is ready now.
    fn idle_horizon(&self) -> Option<u64> {
        let mut wake = u64::MAX;
        for t in &self.threads {
            match t.state {
                ThreadState::Ready => return None,
                ThreadState::StalledUntil(until) => wake = wake.min(until),
                ThreadState::Yielded | ThreadState::Halted | ThreadState::Trapped(_) => {}
            }
        }
        Some(wake.saturating_sub(1))
    }

    /// `true` if an idle cycle would not touch the pipeline windows:
    /// every stalled thread already has an open window and every parked
    /// one a closed window.
    fn windows_settled(&self) -> bool {
        !self.record_windows
            || self.threads.iter().enumerate().all(|(i, t)| {
                let open = matches!(self.open_windows.get(i), Some(Some(_)));
                open == matches!(t.state, ThreadState::StalledUntil(_))
            })
    }

    /// Book the idle cycles up to and including `to` in one move. Only
    /// valid when no thread is ready, none wakes before `to + 1` and the
    /// windows are settled (see [`Core::step_or_skip`]).
    fn skip_idle(&mut self, to: u64) {
        let n = to - self.cycle;
        self.cycle = to;
        self.rr_offset = self.rr_offset.wrapping_add(n as usize);
        if !self.reservations.is_empty() {
            self.reservations.retain(|r| r.until > to);
        }
        for t in &mut self.threads {
            t.counters.cycles += n;
            let cause = match t.state {
                ThreadState::StalledUntil(_) => t.stall_cause,
                _ => StallCause::Parked,
            };
            t.counters.stall_for(cause, n);
        }
    }

    /// Park the thread; the stall cycles themselves are counted in
    /// [`Core::step`] while the thread sits in `StalledUntil`.
    fn stall(&mut self, tid: usize, cycles: u32, cause: StallCause) {
        let t = &mut self.threads[tid];
        t.state = ThreadState::StalledUntil(self.cycle + u64::from(cycles));
        t.stall_cause = cause;
    }

    #[inline]
    fn reg(&self, tid: usize, r: Reg) -> u32 {
        self.threads[tid].regs[r.idx()]
    }

    #[inline]
    fn set_reg(&mut self, tid: usize, r: Reg, v: u32) {
        self.threads[tid].regs[r.idx()] = v;
    }

    fn execute(&mut self, tid: usize, instr: &Instr, class: FuClass, unit: usize) {
        self.threads[tid].counters.retired += 1;
        let pc = self.threads[tid].pc;
        let mut next_pc = pc + 1;
        match *instr {
            Instr::Nop => {}
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(tid, rs1), self.reg(tid, rs2));
                let v = self.corrupt(class, unit, v);
                self.set_reg(tid, rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = op.apply(self.reg(tid, rs1), imm);
                let v = self.corrupt(class, unit, v);
                self.set_reg(tid, rd, v);
            }
            Instr::Lui { rd, imm } => {
                let v = self.corrupt(class, unit, u32::from(imm) << 16);
                self.set_reg(tid, rd, v);
            }
            Instr::Mul { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(tid, rs1), self.reg(tid, rs2));
                let v = self.corrupt(class, unit, v);
                self.set_reg(tid, rd, v);
                // blocking in-order: the thread waits for its own result
                self.stall(tid, instr.fu_latency() - 1, StallCause::FuBusy);
            }
            Instr::Ld { rd, rs1, imm } => {
                self.threads[tid].counters.loads += 1;
                let addr = self.reg(tid, rs1).wrapping_add(imm as u32);
                if addr as usize >= self.threads[tid].dmem.len() {
                    self.threads[tid].state = ThreadState::Trapped(Trap::AccessViolation { addr });
                    return;
                }
                let v = self.threads[tid].dmem[addr as usize];
                let v = self.corrupt(class, unit, v);
                self.set_reg(tid, rd, v);
                let hit = self.dcache.access(tid as u8, addr);
                if hit {
                    if self.cfg.load_use_delay > 0 {
                        self.stall(tid, self.cfg.load_use_delay, StallCause::DCache);
                    }
                } else {
                    self.stall(tid, self.cfg.mem_latency, StallCause::DCache);
                }
            }
            Instr::St { rs2, rs1, imm } => {
                self.threads[tid].counters.stores += 1;
                let addr = self.reg(tid, rs1).wrapping_add(imm as u32);
                if addr as usize >= self.threads[tid].dmem.len() {
                    self.threads[tid].state = ThreadState::Trapped(Trap::AccessViolation { addr });
                    return;
                }
                let v = self.corrupt(class, unit, self.reg(tid, rs2));
                self.threads[tid].dmem[addr as usize] = v;
                let hit = self.dcache.access(tid as u8, addr);
                if !hit && self.cfg.store_miss_latency > 0 {
                    self.stall(tid, self.cfg.store_miss_latency, StallCause::DCache);
                }
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                self.threads[tid].counters.branches += 1;
                let taken = cond.holds(self.reg(tid, rs1), self.reg(tid, rs2));
                let correct = self.threads[tid].predictor.update(pc, taken);
                if taken {
                    next_pc = target;
                }
                if !correct {
                    self.threads[tid].counters.mispredicts += 1;
                    if self.cfg.mispredict_penalty > 0 {
                        self.stall(tid, self.cfg.mispredict_penalty, StallCause::BranchFlush);
                    }
                }
            }
            Instr::Jal { rd, target } => {
                let link = self.corrupt(class, unit, pc + 1);
                self.set_reg(tid, rd, link);
                next_pc = target;
            }
            Instr::Jalr { rd, rs1, imm } => {
                let dest = self.reg(tid, rs1).wrapping_add(imm as u32);
                let link = self.corrupt(class, unit, pc + 1);
                self.set_reg(tid, rd, link);
                next_pc = dest;
            }
            Instr::Yield => {
                self.threads[tid].state = ThreadState::Yielded;
            }
            Instr::Halt => {
                self.threads[tid].state = ThreadState::Halted;
                return; // pc frozen at the halt
            }
        }
        self.threads[tid].pc = next_pc;
    }

    /// Run until no thread can make progress or `max_cycles` elapse.
    pub fn run_until_all_blocked(&mut self, max_cycles: u64) -> RunOutcome {
        let deadline = self.cycle + max_cycles;
        loop {
            let (mut live, mut yielded) = (false, false);
            for (i, t) in self.threads.iter().enumerate() {
                match t.state {
                    ThreadState::Trapped(trap) => return RunOutcome::Trapped(ThreadId(i), trap),
                    ThreadState::Ready | ThreadState::StalledUntil(_) => live = true,
                    ThreadState::Yielded => yielded = true,
                    ThreadState::Halted => {}
                }
            }
            if !live {
                return if yielded {
                    RunOutcome::AllYielded
                } else {
                    RunOutcome::AllHalted
                };
            }
            if self.cycle >= deadline {
                return RunOutcome::CycleBudgetExhausted;
            }
            self.run_until_any_blocks(deadline);
        }
    }

    /// Run until the *given* thread yields, halts or traps (other threads
    /// keep executing concurrently — this is how the VDS engine runs one
    /// round of one version on an SMT machine).
    pub fn run_until_thread_blocks(&mut self, id: ThreadId, max_cycles: u64) -> RunOutcome {
        let deadline = self.cycle + max_cycles;
        loop {
            match self.threads[id.0].state {
                ThreadState::Yielded => return RunOutcome::AllYielded,
                ThreadState::Halted => return RunOutcome::AllHalted,
                ThreadState::Trapped(trap) => return RunOutcome::Trapped(id, trap),
                _ => {}
            }
            if self.cycle >= deadline {
                return RunOutcome::CycleBudgetExhausted;
            }
            self.run_until_any_blocks(deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_program(src: &str) -> Core {
        let prog = assemble(src).unwrap();
        let mut core = Core::new(CoreConfig::default());
        core.add_thread(&prog, 256);
        let out = core.run_until_all_blocked(1_000_000);
        assert_eq!(out, RunOutcome::AllHalted, "program did not halt");
        core
    }

    #[test]
    fn arithmetic_program() {
        let core = run_program(
            r#"
            addi r1, r0, 6
            addi r2, r0, 7
            mul  r3, r1, r2
            halt
            "#,
        );
        assert_eq!(core.thread(ThreadId(0)).regs[3], 42);
    }

    #[test]
    fn state_digest_reflects_architectural_state_only() {
        let a = run_program("addi r1, r0, 6\nhalt\n");
        let b = run_program("addi r1, r0, 6\nhalt\n");
        assert_eq!(
            a.thread(ThreadId(0)).state_digest(),
            b.thread(ThreadId(0)).state_digest()
        );
        let c = run_program("addi r1, r0, 7\nhalt\n");
        assert_ne!(
            a.thread(ThreadId(0)).state_digest(),
            c.thread(ThreadId(0)).state_digest()
        );
        // micro-architectural divergence (counters) must not affect it
        let mut d = run_program("addi r1, r0, 6\nhalt\n");
        let t = d.thread_mut(ThreadId(0));
        t.counters = ThreadCounters::default();
        assert_eq!(
            a.thread(ThreadId(0)).state_digest(),
            d.thread(ThreadId(0)).state_digest()
        );
    }

    #[test]
    fn loop_sums_correctly() {
        let core = run_program(
            r#"
                addi r1, r0, 100
                addi r2, r0, 0
            loop:
                add  r2, r2, r1
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
            "#,
        );
        assert_eq!(core.thread(ThreadId(0)).regs[2], 5050);
    }

    #[test]
    fn memory_roundtrip() {
        let core = run_program(
            r#"
            .data
            buf: .space 4
            .text
                li  r1, 123
                st  r1, buf(r0)
                ld  r2, buf(r0)
                halt
            "#,
        );
        assert_eq!(core.thread(ThreadId(0)).regs[2], 123);
    }

    #[test]
    fn jal_and_jalr_call_return() {
        let core = run_program(
            r#"
                jal  r15, func
                st   r3, 0(r0)
                halt
            func:
                addi r3, r0, 9
                jalr r0, r15, 0
            "#,
        );
        assert_eq!(core.thread(ThreadId(0)).dmem[0], 9);
    }

    #[test]
    fn metrics_export_flushes_counters() {
        let core = run_program(
            r#"
                addi r1, r0, 10
            loop:
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
            "#,
        );
        let mut rec = vds_obs::Recorder::new();
        core.export_metrics(&mut rec);
        let reg = rec.registry();
        assert_eq!(reg.counter("smt.cycles"), core.cycles());
        assert_eq!(
            reg.counter("smt.thread0.retired"),
            core.thread(ThreadId(0)).counters.retired
        );
        assert!(reg.counter("smt.thread0.branches") >= 10);
        assert!(reg.gauge_value("smt.thread0.ipc").unwrap() > 0.0);
        assert_eq!(
            reg.counter("smt.icache.hits") + reg.counter("smt.icache.misses"),
            core.icache_stats().accesses()
        );
    }

    #[test]
    fn pipeline_windows_are_recorded_and_exported() {
        let prog = assemble("addi r1, r0, 1\nyield\naddi r1, r1, 1\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        core.set_window_recording(true);
        let t = core.add_thread(&prog, 16);
        core.run_until_all_blocked(1000);
        core.step(); // parked cycle closes the yield window
        core.resume(t);
        core.run_until_all_blocked(1000);
        let mut rec = vds_obs::Recorder::new();
        core.export_spans(&mut rec);
        assert!(rec.spans().len() >= 2, "spans: {}", rec.spans().len());
        let total_retired: u64 = rec
            .spans()
            .records()
            .flat_map(|s| s.fields.iter())
            .filter(|(k, _)| *k == "retired")
            .map(|(_, v)| match v {
                vds_obs::Value::U64(n) => *n,
                _ => 0,
            })
            .sum();
        assert_eq!(total_retired, core.thread(t).counters.retired);
        for s in rec.spans().records() {
            assert!(s.end >= s.begin);
            assert_eq!(s.component, "smt");
        }
    }

    #[test]
    fn yield_parks_and_resume_continues() {
        let prog = assemble("addi r1, r0, 1\nyield\naddi r1, r1, 1\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllYielded);
        assert_eq!(core.thread(t).regs[1], 1);
        core.resume(t);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllHalted);
        assert_eq!(core.thread(t).regs[1], 2);
    }

    #[test]
    fn access_violation_traps_without_corrupting_others() {
        let bad = assemble("li r1, 9999\nld r2, 0(r1)\nhalt\n").unwrap();
        let good = assemble("addi r1, r0, 5\nst r1, 0(r0)\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let tb = core.add_thread(&bad, 16);
        let tg = core.add_thread(&good, 16);
        let out = core.run_until_all_blocked(10_000);
        match out {
            RunOutcome::Trapped(id, Trap::AccessViolation { addr }) => {
                assert_eq!(id, tb);
                assert_eq!(addr, 9999);
            }
            other => panic!("expected access violation, got {other:?}"),
        }
        // The good thread's memory is untouched by the bad access.
        let _ = tg;
    }

    #[test]
    fn illegal_instruction_traps() {
        let prog = assemble("nop\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        core.thread_mut(t).prog.text[0] = 63 << 26;
        match core.run_until_all_blocked(1000) {
            RunOutcome::Trapped(_, Trap::IllegalInstruction { pc }) => assert_eq!(pc, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rewritten_text_is_decoded_afresh() {
        // The decode cache must not replay a stale word: a fault that
        // rewrites an already-executed instruction takes effect on the
        // next fetch, and an illegal word still traps there.
        let prog = assemble("loop:\naddi r1, r1, 1\nyield\njal r0, loop\n").unwrap();
        let add100 = assemble("addi r1, r1, 100\n").unwrap().text[0];
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllYielded);
        assert_eq!(core.thread(t).regs[1], 1);
        core.thread_mut(t).prog.text[0] = add100;
        core.resume(t);
        assert_eq!(core.run_until_all_blocked(1000), RunOutcome::AllYielded);
        assert_eq!(core.thread(t).regs[1], 101, "the new word executed");
        core.thread_mut(t).prog.text[0] = 63 << 26;
        core.resume(t);
        assert_eq!(
            core.run_until_all_blocked(1000),
            RunOutcome::Trapped(t, Trap::IllegalInstruction { pc: 0 })
        );
    }

    #[test]
    fn pc_out_of_range_traps() {
        let prog = assemble("jal r0, 100\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        core.add_thread(&prog, 16);
        match core.run_until_all_blocked(1000) {
            RunOutcome::Trapped(_, Trap::PcOutOfRange { pc }) => assert_eq!(pc, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn r0_stays_zero() {
        let core = run_program("addi r0, r0, 42\nhalt\n");
        assert_eq!(core.thread(ThreadId(0)).regs[0], 0);
    }

    #[test]
    fn two_threads_run_concurrently_and_finish_faster_than_serial() {
        let src = r#"
                addi r1, r0, 2000
            loop:
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
        "#;
        let prog = assemble(src).unwrap();

        let mut solo = Core::new(CoreConfig::default());
        solo.add_thread(&prog, 16);
        solo.run_until_all_blocked(10_000_000);
        let t_solo = solo.cycles();

        let mut pair = Core::new(CoreConfig::default());
        pair.add_thread(&prog, 16);
        pair.add_thread(&prog, 16);
        pair.run_until_all_blocked(10_000_000);
        let t_pair = pair.cycles();

        assert!(t_pair < 2 * t_solo, "co-run {t_pair} vs 2×solo {t_solo}");
        assert!(t_pair >= t_solo, "co-run cannot beat a single copy");
        let alpha = t_pair as f64 / (2.0 * t_solo as f64);
        assert!((0.5..=1.0).contains(&alpha), "alpha={alpha}");
    }

    #[test]
    fn mul_occupies_unit_and_stalls_owner() {
        // Two threads that both hammer the single multiplier: heavy
        // contention, alpha near 1.
        let src = r#"
                addi r1, r0, 300
                addi r2, r0, 3
            loop:
                mul  r3, r2, r2
                mul  r4, r3, r2
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
        "#;
        let prog = assemble(src).unwrap();
        let mut solo = Core::new(CoreConfig::default());
        solo.add_thread(&prog, 16);
        solo.run_until_all_blocked(10_000_000);
        let t_solo = solo.cycles();

        let mut pair = Core::new(CoreConfig::default());
        pair.add_thread(&prog, 16);
        pair.add_thread(&prog, 16);
        pair.run_until_all_blocked(10_000_000);
        let alpha = pair.cycles() as f64 / (2.0 * t_solo as f64);
        assert!(alpha > 0.75, "mul-bound pair should contend, alpha={alpha}");
    }

    #[test]
    fn permanent_fu_fault_corrupts_results() {
        let prog = assemble("addi r1, r0, 0\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        core.inject_fu_fault(FuFault {
            class: FuClass::Alu,
            unit: 0,
            bit: 3,
            value: true,
        });
        core.run_until_all_blocked(1000);
        assert_eq!(core.thread(t).regs[1], 8, "bit 3 stuck at 1");
    }

    #[test]
    fn fault_on_unit_1_spares_single_issue_stream() {
        // With one thread and RoundRobin priority, consecutive dependent
        // ALU ops all land on unit 0; a fault on unit 1 never fires.
        let prog = assemble("addi r1, r0, 1\naddi r1, r1, 1\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, 16);
        core.inject_fu_fault(FuFault {
            class: FuClass::Alu,
            unit: 1,
            bit: 7,
            value: true,
        });
        core.run_until_all_blocked(1000);
        assert_eq!(core.thread(t).regs[1], 2);
    }

    #[test]
    fn counters_accumulate() {
        let core = run_program(
            r#"
                addi r1, r0, 10
            loop:
                subi r1, r1, 1
                bne  r1, r0, loop
                halt
            "#,
        );
        let c = core.thread(ThreadId(0)).counters;
        assert_eq!(c.retired, 1 + 20 + 1);
        assert_eq!(c.branches, 10);
        assert!(c.cycles >= c.retired);
        assert!(c.ipc() > 0.0 && c.ipc() <= 1.0);
    }

    #[test]
    fn swap_context_roundtrip() {
        let p1 = assemble("addi r1, r0, 1\nyield\naddi r1, r1, 10\nhalt\n").unwrap();
        let p2 = assemble("addi r2, r0, 2\nhalt\n").unwrap();
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&p1, 16);
        core.run_until_all_blocked(1000); // p1 yields
        let saved1 = SavedContext {
            regs: [0; 16],
            pc: 0,
            prog: p2,
            dmem: vec![0; 16],
            state: ThreadState::Ready,
        };
        let saved_p1 = core.swap_context(t, saved1);
        assert_eq!(saved_p1.regs[1], 1);
        core.run_until_all_blocked(1000); // p2 halts
        assert_eq!(core.thread(t).regs[2], 2);
        // switch back and finish p1
        let mut back = saved_p1;
        back.state = ThreadState::Ready; // host resumes after yield
        core.swap_context(t, back);
        core.run_until_all_blocked(1000);
        assert_eq!(core.thread(t).regs[1], 11);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = r#"
                addi r1, r0, 500
            loop:
                mul r2, r1, r1
                st  r2, 0(r0)
                ld  r3, 0(r0)
                subi r1, r1, 1
                bne r1, r0, loop
                halt
        "#;
        let prog = assemble(src).unwrap();
        let run = || {
            let mut core = Core::new(CoreConfig::default());
            core.add_thread(&prog, 64);
            core.add_thread(&prog, 64);
            core.run_until_all_blocked(10_000_000);
            (core.cycles(), core.thread(ThreadId(0)).regs[2])
        };
        assert_eq!(run(), run());
    }
}
