//! The micro-architectural VDS engine.
//!
//! Everything the abstract backend parameterises is *executed* here:
//! versions are diversified programs (`vds-diversity`) over the workload
//! of [`crate::workload`], running as OS processes (`vds-sched`) on the
//! cycle-level SMT core (`vds-smtsim`); state comparison uses digests
//! (`vds-checkpoint`); faults are injected with `vds-fault`. Time is
//! measured in machine cycles — `t`, `c`, `t'` and `α` all emerge.
//!
//! ## Execution models
//!
//! * **Conventional** ([`Scheme::Conventional`]): one hardware context;
//!   versions 1 and 2 alternate rounds with real context switches;
//!   recovery replays version 3 alone (stop-and-retry).
//! * **SMT** (`SmtDeterministic` / `SmtProbabilistic` / `SmtPredictive`):
//!   two hardware contexts; the versions' rounds run simultaneously;
//!   during recovery, hardware thread 0 replays version 3 from the
//!   checkpoint while hardware thread 1 executes the scheme's
//!   roll-forward segments, truly in parallel on the simulated core.
//!
//! Rounds across threads proceed in lock-step (the engine compares states
//! at the common round boundary, as the paper's model does).
//!
//! ## State transplants
//!
//! All recovery choreography relies on the workload's memory-resident
//! invariant: at a round boundary, any version can be started from any
//! state image via a canonical context (zeroed registers, `pc` at the
//! version's round entry, the image as data memory). This mirrors the
//! defined comparison-and-exchange states of real virtual duplex systems.

use crate::config::{Scheme, Victim};
use crate::report::RunReport;
use crate::workload;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use vds_checkpoint::digest::digest_words;
use vds_fault::model::FaultKind;
use vds_obs::journal::{Action as JournalAction, RoundEntry, Verdict as JournalVerdict};
use vds_obs::{obs_end_span, obs_event, obs_span, obs_span_on};
use vds_obs::{NoopRecorder, Record, Recorder};
use vds_sched::{Machine, ProcId, ProcOutcome};
use vds_smtsim::core::{CoreConfig, SavedContext, ThreadId, ThreadState};
use vds_smtsim::program::Program;

/// Configuration of a micro VDS run.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Recovery scheme. The 1–2-thread schemes plus the §5 3-thread
    /// boosted probabilistic variant are supported; the 5-thread boosted
    /// deterministic variant lives on the abstract backend.
    pub scheme: Scheme,
    /// Checkpoint interval in rounds.
    pub s: u32,
    /// OS context-switch cost in cycles (the paper's `c`).
    pub ctx_switch_cycles: u32,
    /// State-comparison cost in cycles (the paper's `t'`).
    pub cmp_cycles: u32,
    /// Checkpoint-write cost in cycles.
    pub ckpt_cycles: u32,
    /// Pick accuracy for the probabilistic/predictive schemes when no
    /// trap evidence exists.
    pub p_correct: f64,
    /// Seed for version diversification and pick draws.
    pub seed: u64,
    /// Core configuration (derived from the scheme by [`MicroConfig::new`]).
    pub core: CoreConfig,
    /// Round budget baked into the workload program (must comfortably
    /// exceed the target plus replays).
    pub workload_rounds: u32,
    /// Run *diverse* versions (the VDS design). Disable to run three
    /// identical copies — the ablation that shows why diversity matters
    /// for permanent faults (they then corrupt all versions alike and
    /// escape detection).
    pub diversity: bool,
}

impl MicroConfig {
    /// Sensible defaults for a scheme.
    pub fn new(scheme: Scheme, s: u32) -> Self {
        assert!(
            matches!(
                scheme,
                Scheme::Conventional
                    | Scheme::SmtDeterministic
                    | Scheme::SmtProbabilistic
                    | Scheme::SmtPredictive
                    | Scheme::SmtBoosted3
            ),
            "micro backend supports the 1–3-thread schemes, got {scheme:?}"
        );
        let core = match scheme {
            Scheme::Conventional => CoreConfig::single_threaded(),
            Scheme::SmtBoosted3 => CoreConfig::with_threads(3),
            _ => CoreConfig::default(),
        };
        MicroConfig {
            scheme,
            s,
            ctx_switch_cycles: 40,
            cmp_cycles: 30,
            ckpt_cycles: 120,
            p_correct: 0.5,
            seed: 2024,
            core,
            workload_rounds: 1_000_000,
            diversity: true,
        }
    }
}

/// A one-shot fault to inject during the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroFault {
    /// Inject during round `at_round` (1-based, within the first
    /// checkpoint interval).
    pub at_round: u32,
    /// Which active version is hit.
    pub victim: Victim,
    /// What kind of fault.
    pub kind: FaultKind,
}

/// Per-round cycle budget guard.
const ROUND_BUDGET: u64 = 5_000_000;

struct Micro<R> {
    cfg: MicroConfig,
    m: Machine,
    progs: [Program; 3],
    entries: [u32; 3],
    procs: [ProcId; 3],
    /// Version indices of the currently active pair and the spare.
    active: [usize; 2],
    spare: usize,
    ckpt_img: Vec<u32>,
    rounds_since: u32,
    rng: SmallRng,
    fault: Option<MicroFault>,
    fault_pending: bool,
    /// Trap evidence observed in the current round, by active-slot index.
    trap_evidence: Option<usize>,
    report: RunReport,
    rec: R,
    /// Flight-recorder entry for the round in flight; the action and
    /// committed count are finalised by [`Micro::journal_finish`] once the
    /// engine loop has decided what to do with the round.
    pending: Option<RoundEntry>,
    /// Canonical spec of the fault injected this round, if any.
    injected_spec: Option<String>,
    /// Lifecycle state of the injected one-shot fault while no comparison
    /// has caught it yet; cleared on detection, classified masked/escaped
    /// at end of run if still set.
    outstanding: Option<OutstandingFault>,
    /// Monotonic count of executed normal rounds (never reset by
    /// checkpoints or rollbacks) — the round-denominated clock that
    /// detection latency is measured on. Matches the journal's lane-local
    /// entry ordinals, since every executed round journals one entry.
    rounds_executed: u64,
}

/// The injected fault's lifecycle bookkeeping between injection and
/// detection (or end of run).
#[derive(Debug, Clone, Copy)]
struct OutstandingFault {
    /// [`Micro::rounds_executed`] at injection time.
    injected_at_exec: u64,
    /// Machine cycle time at injection.
    injected_time: f64,
    /// The injector reported the flip architecturally masked (r0 /
    /// out-of-range site): no state changed, so the fault can never be
    /// detected nor corrupt the output.
    masked_on_arrival: bool,
}

#[derive(Debug, Clone)]
struct Seg {
    version: usize,
    start_img: Vec<u32>,
    rounds: u32,
}

impl Micro<Recorder> {
    #[cfg(test)]
    fn new(cfg: MicroConfig, fault: Option<MicroFault>) -> Self {
        Self::with_recorder(cfg, fault, Recorder::disabled())
    }
}

impl<R: Record> Micro<R> {
    fn with_recorder(cfg: MicroConfig, fault: Option<MicroFault>, rec: R) -> Self {
        let base = workload::build(cfg.workload_rounds);
        let progs = if cfg.diversity {
            [
                vds_diversity::diversify(&base, 1, cfg.seed),
                vds_diversity::diversify(&base, 2, cfg.seed),
                vds_diversity::diversify(&base, 3, cfg.seed),
            ]
        } else {
            [base.clone(), base.clone(), base.clone()]
        };
        let entries = [
            workload::round_entry(&progs[0]),
            workload::round_entry(&progs[1]),
            workload::round_entry(&progs[2]),
        ];
        let mut m = Machine::new(cfg.core.clone(), cfg.ctx_switch_cycles);
        if R::ENABLED && rec.is_active() {
            m.core_mut().set_window_recording(true);
        }
        let procs = [
            m.spawn("v1", &progs[0], workload::DMEM_WORDS),
            m.spawn("v2", &progs[1], workload::DMEM_WORDS),
            m.spawn("v3", &progs[2], workload::DMEM_WORDS),
        ];
        let ckpt_img = progs[0].data.clone();
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0xD1CE);
        Micro {
            cfg,
            m,
            progs,
            entries,
            procs,
            active: [0, 1],
            spare: 2,
            ckpt_img,
            rounds_since: 0,
            rng,
            fault,
            fault_pending: fault.is_some(),
            trap_evidence: None,
            report: RunReport::default(),
            rec,
            pending: None,
            injected_spec: None,
            outstanding: None,
            rounds_executed: 0,
        }
    }

    fn canonical(&self, version: usize, img: &[u32]) -> SavedContext {
        let mut dmem = img.to_vec();
        dmem.resize(workload::DMEM_WORDS, 0);
        SavedContext {
            regs: [0; 16],
            pc: self.entries[version],
            prog: self.progs[version].clone(),
            dmem,
            state: ThreadState::Ready,
        }
    }

    fn dmem_of(&self, version: usize) -> Vec<u32> {
        self.m.with_state(self.procs[version], |_, _, d| d.to_vec())
    }

    fn window_digest(img: &[u32]) -> vds_checkpoint::digest::StateDigest {
        let w = workload::STATE_WINDOW;
        digest_words(&img[w.start as usize..w.end as usize])
    }

    /// [`Self::window_digest`] of a resident version, digesting the state
    /// window in place. The per-round comparison runs twice per round for
    /// the whole mission, so copying the full data memory (as
    /// [`Self::dmem_of`] does) just to hash a small window dominated the
    /// simulation profile at sweep/campaign scale.
    fn window_digest_of(&self, version: usize) -> vds_checkpoint::digest::StateDigest {
        let w = workload::STATE_WINDOW;
        self.m.with_state(self.procs[version], |_, _, d| {
            digest_words(&d[w.start as usize..w.end as usize])
        })
    }

    /// Charge flat overhead cycles (comparison, checkpoint, vote).
    fn burn(&mut self, cycles: u32) {
        self.m.core_mut().advance(u64::from(cycles));
    }

    /// Inject the pending one-shot fault if this is its round.
    fn maybe_inject(&mut self, i: u32) {
        if !self.fault_pending {
            return;
        }
        let Some(f) = self.fault else { return };
        if f.at_round != i {
            return;
        }
        self.fault_pending = false;
        self.report.faults_injected += 1;
        let version = self.active[f.victim.index()];
        if self.rec.journal_enabled() {
            self.injected_spec = Some(format!(
                "{}@v{}",
                f.kind.spec_string(),
                f.victim.index() + 1
            ));
        }
        let effect = vds_fault::inject::inject(&mut self.m, self.procs[version], &f.kind);
        let t = self.m.cycles() as f64;
        self.outstanding = Some(OutstandingFault {
            injected_at_exec: self.rounds_executed,
            injected_time: t,
            masked_on_arrival: effect == vds_fault::inject::InjectionEffect::Masked,
        });
        obs_event!(
            self.rec, t, "micro", "fault_injected",
            "round" => i, "version" => version,
        );
    }

    /// Stash the flight-recorder entry for round `i`: digests of both
    /// active versions at the comparison point, the comparator verdict and
    /// the scheduler decision. The action defaults to `commit`; the engine
    /// loop (or recovery) upgrades it before [`Micro::journal_finish`].
    ///
    /// `digests` lets the comparator hand over the window digests it
    /// already computed this round; `None` (trap/hang paths, where no
    /// comparison ran) digests both versions here.
    fn journal_stash(
        &mut self,
        i: u32,
        sim_time: f64,
        verdict: JournalVerdict,
        digests: Option<(vds_obs::Digest128, vds_obs::Digest128)>,
    ) {
        if !self.rec.journal_enabled() {
            return;
        }
        let (a, b) = (self.active[0], self.active[1]);
        let (d1, d2) = match digests {
            Some(pair) => pair,
            None => (self.window_digest_of(a), self.window_digest_of(b)),
        };
        let sched = if self.cfg.scheme == Scheme::Conventional {
            format!("alternate[v{},v{}]", a + 1, b + 1)
        } else {
            format!("coschedule[v{},v{}]", a + 1, b + 1)
        };
        let fault = self.injected_spec.take();
        // micro runs inject at most one fault, so its lane-local fault id
        // is always 0
        let fault_id = fault.as_ref().map(|_| 0);
        self.pending = Some(RoundEntry {
            seq: 0,
            lane: 0,
            round: u64::from(i),
            committed: 0,
            sim_time,
            d1,
            d2,
            verdict,
            sched,
            action: JournalAction::Commit,
            rollforward: 0,
            fault,
            fault_id,
            fault_outcome: None,
        });
    }

    /// Credit a comparison/trap detection at time `t` to the outstanding
    /// injected fault, closing its latency window.
    fn note_detection(&mut self, t: f64) {
        if let Some(o) = self.outstanding.take() {
            self.report.faults_detected += 1;
            self.report.detect_latency_rounds_sum += self.rounds_executed - o.injected_at_exec;
            self.report.detect_latency_time_sum += t - o.injected_time;
        }
    }

    /// Upgrade the pending journal entry's action (checkpoint, recovery,
    /// rollback, shutdown).
    fn journal_action(&mut self, action: JournalAction, rollforward: u32) {
        if let Some(p) = self.pending.as_mut() {
            p.action = action;
            p.rollforward = rollforward;
        }
    }

    /// Finalise and push the pending journal entry with the post-action
    /// committed-round count.
    fn journal_finish(&mut self) {
        if let Some(mut p) = self.pending.take() {
            p.committed = self.report.committed_rounds;
            self.rec.journal_push(p);
        }
    }

    /// Run one normal round of the active pair. Returns `Some(i)` on a
    /// detection (mismatch or trap) at round `i`.
    fn normal_round(&mut self) -> Option<u32> {
        let i = self.rounds_since + 1;
        self.rounds_executed += 1;
        self.trap_evidence = None;
        let start_cycles = self.m.cycles();
        let round_g = obs_span!(self.rec, "micro", "round", start_cycles as f64);
        let (a, b) = (self.active[0], self.active[1]);

        // the injected fault lands "during" the round: before execution,
        // so crashes and text corruption manifest in this round
        self.maybe_inject(i);

        // A version that exhausts the round cycle budget has hung (e.g. a
        // program-memory fault turned its loop infinite); a real VDS
        // detects this with a watchdog timer. Treat it like a crash:
        // detection with evidence, and preempt the hung process so
        // recovery can rebuild it.
        let mut hung: Vec<usize> = Vec::new();
        if self.cfg.scheme == Scheme::Conventional {
            // both versions complete their round even if the other
            // trapped, so the vote compares states at a common round
            for (slot, v) in [(0usize, a), (1usize, b)] {
                if self.trap_evidence == Some(slot) {
                    continue;
                }
                let g = obs_span!(self.rec, "micro", "compute", self.m.cycles() as f64);
                self.m.dispatch(self.procs[v], ThreadId(0));
                match self.m.run_hw_until_block(ThreadId(0), ROUND_BUDGET) {
                    ProcOutcome::Yielded => {}
                    ProcOutcome::Trapped(_) => {
                        self.trap_evidence = Some(slot);
                    }
                    ProcOutcome::Budget => {
                        hung.push(slot);
                        self.m.preempt(self.procs[v]);
                    }
                    other => panic!("normal round: unexpected {other:?}"),
                }
                obs_end_span!(self.rec, g, self.m.cycles() as f64, "version" => v);
            }
        } else {
            let g0 = obs_span_on!(self.rec, 0, "micro", "compute", self.m.cycles() as f64);
            let g1 = obs_span_on!(self.rec, 1, "micro", "compute", self.m.cycles() as f64);
            self.m.dispatch(self.procs[a], ThreadId(0));
            self.m.dispatch(self.procs[b], ThreadId(1));
            let outs = self.m.run_all_until_block(ROUND_BUDGET);
            let t_done = self.m.cycles() as f64;
            obs_end_span!(self.rec, g0, t_done, "version" => a);
            obs_end_span!(self.rec, g1, t_done, "version" => b);
            for (slot, hw) in [(0usize, 0usize), (1, 1)] {
                match outs[hw] {
                    Some(ProcOutcome::Yielded) => {}
                    Some(ProcOutcome::Trapped(_)) => {
                        self.trap_evidence = Some(slot);
                    }
                    Some(ProcOutcome::Budget) | None => {
                        hung.push(slot);
                        self.m.preempt(self.procs[self.active[slot]]);
                    }
                    other => panic!("normal round: unexpected {other:?}"),
                }
            }
        }
        if hung.len() == 1 && self.trap_evidence.is_none() {
            self.trap_evidence = Some(hung[0]);
        }
        self.report.time_normal += (self.m.cycles() - start_cycles) as f64;

        // comparison
        let cmp_g = obs_span!(self.rec, "micro", "compare", self.m.cycles() as f64);
        self.burn(self.cfg.cmp_cycles);
        self.report.time_normal += f64::from(self.cfg.cmp_cycles);
        let t = self.m.cycles() as f64;
        obs_end_span!(self.rec, cmp_g, t);
        if self.trap_evidence.is_some() || !hung.is_empty() {
            self.report.detections += 1;
            let verdict = if hung.is_empty() {
                JournalVerdict::Trap
            } else {
                JournalVerdict::Hang
            };
            self.note_detection(t);
            self.journal_stash(i, t, verdict, None);
            obs_event!(self.rec, t, "micro", "detect", "round" => i, "evidence" => "trap");
            obs_end_span!(self.rec, round_g, t, "round" => i, "outcome" => "detect");
            return Some(i);
        }
        let da = self.window_digest_of(a);
        let db = self.window_digest_of(b);
        if da != db {
            self.report.detections += 1;
            self.note_detection(t);
            self.journal_stash(i, t, JournalVerdict::Mismatch, Some((da, db)));
            obs_event!(self.rec, t, "micro", "detect", "round" => i, "evidence" => "mismatch");
            obs_end_span!(self.rec, round_g, t, "round" => i, "outcome" => "detect");
            Some(i)
        } else {
            self.rounds_since = i;
            self.report.committed_rounds += 1;
            self.journal_stash(i, t, JournalVerdict::Match, Some((da, db)));
            obs_event!(self.rec, t, "micro", "round", "round" => i, "comparison" => "match");
            obs_end_span!(self.rec, round_g, t, "round" => i, "outcome" => "commit");
            None
        }
    }

    fn take_checkpoint(&mut self) {
        let g = obs_span!(self.rec, "micro", "checkpoint", self.m.cycles() as f64);
        self.burn(self.cfg.ckpt_cycles);
        obs_end_span!(self.rec, g, self.m.cycles() as f64);
        self.report.time_checkpoint += f64::from(self.cfg.ckpt_cycles);
        self.ckpt_img = self.dmem_of(self.active[0]);
        self.rounds_since = 0;
        self.report.checkpoints += 1;
        let t = self.m.cycles() as f64;
        obs_event!(self.rec, t, "micro", "checkpoint", "number" => self.report.checkpoints);
    }

    /// Run a list of named segments plans, one per hardware thread,
    /// collecting each segment's end image. `Err(())` on a trap. Each
    /// plan is recorded as a span (`"retry"` / `"rollforward"`) on its
    /// hardware thread's lane.
    #[allow(clippy::type_complexity)]
    fn run_segments_parallel(
        &mut self,
        plans: Vec<(ThreadId, &'static str, Vec<Seg>)>,
    ) -> Vec<Result<Vec<Vec<u32>>, ()>> {
        struct PlanState {
            hw: ThreadId,
            segs: Vec<Seg>,
            idx: usize,
            done_rounds: u32,
            images: Vec<Vec<u32>>,
            failed: bool,
            guard: Option<vds_obs::SpanGuard>,
        }
        let mut states: Vec<PlanState> = plans
            .into_iter()
            .map(|(hw, name, segs)| {
                let guard = if segs.is_empty() {
                    None
                } else {
                    Some(obs_span_on!(
                        self.rec,
                        hw.0 as u32,
                        "micro",
                        name,
                        self.m.cycles() as f64
                    ))
                };
                PlanState {
                    hw,
                    segs,
                    idx: 0,
                    done_rounds: 0,
                    images: Vec::new(),
                    failed: false,
                    guard,
                }
            })
            .collect();

        // start the first segment of every plan
        for st in &mut states {
            if let Some(seg) = st.segs.first() {
                let ctx = self.canonical(seg.version, &seg.start_img);
                self.m.preempt(self.procs[seg.version]);
                self.m.replace_context(self.procs[seg.version], ctx);
                self.m.dispatch(self.procs[seg.version], st.hw);
            }
        }

        loop {
            let live = states.iter().any(|st| !st.failed && st.idx < st.segs.len());
            if !live {
                break;
            }
            let outs = self.m.run_all_until_block(ROUND_BUDGET);
            for st in &mut states {
                if st.failed || st.idx >= st.segs.len() {
                    continue;
                }
                let seg_version = st.segs[st.idx].version;
                match outs[st.hw.0] {
                    Some(ProcOutcome::Yielded) => {
                        st.done_rounds += 1;
                        if st.done_rounds >= st.segs[st.idx].rounds {
                            // segment complete: capture image, advance
                            self.m.preempt(self.procs[seg_version]);
                            st.images.push(self.dmem_of(seg_version));
                            st.idx += 1;
                            st.done_rounds = 0;
                            if let Some(next) = st.segs.get(st.idx) {
                                let ctx = self.canonical(next.version, &next.start_img);
                                self.m.preempt(self.procs[next.version]);
                                self.m.replace_context(self.procs[next.version], ctx);
                                self.m.dispatch(self.procs[next.version], st.hw);
                            } else if let Some(g) = st.guard.take() {
                                obs_end_span!(self.rec, g, self.m.cycles() as f64);
                            }
                        } else {
                            // next round of the same segment
                            self.m.dispatch(self.procs[seg_version], st.hw);
                        }
                    }
                    Some(ProcOutcome::Trapped(_)) => {
                        st.failed = true;
                    }
                    Some(ProcOutcome::Budget) => {
                        // hung during recovery execution (watchdog): the
                        // segment's plan fails, like a trap
                        self.m.preempt(self.procs[seg_version]);
                        st.failed = true;
                    }
                    None => {} // nothing resident on this hw anymore
                    other => panic!("segment run: unexpected {other:?}"),
                }
                if st.failed {
                    if let Some(g) = st.guard.take() {
                        obs_end_span!(self.rec, g, self.m.cycles() as f64, "outcome" => "failed");
                    }
                }
            }
        }
        let end = self.m.cycles() as f64;
        for st in &mut states {
            if let Some(g) = st.guard.take() {
                obs_end_span!(self.rec, g, end);
            }
        }
        states
            .into_iter()
            .map(|st| if st.failed { Err(()) } else { Ok(st.images) })
            .collect()
    }

    /// Decide which active slot we *guess* is fault-free.
    fn guess_good_slot(&mut self) -> usize {
        if let Some(trapped_slot) = self.trap_evidence {
            return 1 - trapped_slot; // the partner of the crashed one
        }
        // Without ground truth, model pick accuracy: the engine knows the
        // injected victim (by construction of the experiment) and draws a
        // correct pick with probability p.
        let victim_slot = self
            .fault
            .map(|f| f.victim.index())
            .unwrap_or_else(|| usize::from(self.rng.gen::<bool>()));
        if self.rng.gen::<f64>() < self.cfg.p_correct {
            1 - victim_slot
        } else {
            victim_slot
        }
    }

    /// Recovery for a detection at round `i`.
    fn recover(&mut self, i: u32) {
        let start_cycles = self.m.cycles();
        let recovery_g = obs_span!(self.rec, "micro", "recovery", start_cycles as f64);
        let (a, b) = (self.active[0], self.active[1]);
        self.m.preempt(self.procs[a]);
        self.m.preempt(self.procs[b]);
        let p_img = self.dmem_of(a);
        let q_img = self.dmem_of(b);
        let x = (self.cfg.scheme.rollforward_intent(i).floor() as u32).min(self.cfg.s - i);
        // Only schemes that actually gamble on a state draw a pick, and
        // only for a non-zero window: a zero-length roll-forward
        // (⌊i/4⌋ = 0 at i < 4, or i = s) is pure stop-and-retry and must
        // not consume scheme bookkeeping — not even an RNG draw, or the
        // fault-seed stream would diverge between cells that differ only
        // in checkpoint distance.
        let needs_pick = x > 0
            && matches!(
                self.cfg.scheme,
                Scheme::SmtProbabilistic | Scheme::SmtPredictive | Scheme::SmtBoosted3
            );
        let guess_slot = if needs_pick {
            self.guess_good_slot()
        } else {
            0
        };
        let guess_img = if guess_slot == 0 { &p_img } else { &q_img };

        let retry_plan = vec![Seg {
            version: self.spare,
            start_img: self.ckpt_img.clone(),
            rounds: i,
        }];

        let mut plans = vec![(ThreadId(0), "retry", retry_plan)];
        if self.cfg.scheme != Scheme::Conventional && x > 0 {
            match self.cfg.scheme {
                Scheme::SmtProbabilistic => plans.push((
                    ThreadId(1),
                    "rollforward",
                    vec![
                        Seg {
                            version: b,
                            start_img: guess_img.clone(),
                            rounds: x,
                        },
                        Seg {
                            version: a,
                            start_img: guess_img.clone(),
                            rounds: x,
                        },
                    ],
                )),
                Scheme::SmtDeterministic => plans.push((
                    ThreadId(1),
                    "rollforward",
                    vec![
                        Seg {
                            version: b,
                            start_img: p_img.clone(),
                            rounds: x,
                        },
                        Seg {
                            version: a,
                            start_img: p_img.clone(),
                            rounds: x,
                        },
                        Seg {
                            version: a,
                            start_img: q_img.clone(),
                            rounds: x,
                        },
                        Seg {
                            version: b,
                            start_img: q_img.clone(),
                            rounds: x,
                        },
                    ],
                )),
                Scheme::SmtPredictive => plans.push((
                    ThreadId(1),
                    "rollforward",
                    vec![Seg {
                        version: self.active[guess_slot],
                        start_img: guess_img.clone(),
                        rounds: x,
                    }],
                )),
                Scheme::SmtBoosted3 => {
                    // §5: versions 1 and 2 roll forward a full i rounds
                    // each, in their own hardware threads, from the
                    // picked state — detection retained via T = U
                    plans.push((
                        ThreadId(1),
                        "rollforward",
                        vec![Seg {
                            version: a,
                            start_img: guess_img.clone(),
                            rounds: x,
                        }],
                    ));
                    plans.push((
                        ThreadId(2),
                        "rollforward",
                        vec![Seg {
                            version: b,
                            start_img: guess_img.clone(),
                            rounds: x,
                        }],
                    ));
                }
                _ => unreachable!(),
            }
        }

        let mut results = self.run_segments_parallel(plans);
        let retry_result = results.remove(0);
        let rf_results = results; // 0, 1 or 2 roll-forward plans

        // majority vote
        let vote_g = obs_span!(self.rec, "micro", "vote", self.m.cycles() as f64);
        self.burn(2 * self.cfg.cmp_cycles);
        obs_end_span!(self.rec, vote_g, self.m.cycles() as f64);

        let vote = match &retry_result {
            Err(()) => None, // fault (trap) during retry
            Ok(images) => {
                let s_img = images.last().expect("retry end image");
                let ds = Self::window_digest(s_img);
                if ds == Self::window_digest(&p_img) {
                    Some((1usize, s_img.clone())) // V2 (slot 1) faulty
                } else if ds == Self::window_digest(&q_img) {
                    Some((0usize, s_img.clone()))
                } else {
                    None
                }
            }
        };

        match vote {
            Some((faulty_slot, s_img)) => {
                self.report.recoveries_ok += 1;
                let good_slot = 1 - faulty_slot;
                let good_version = self.active[good_slot];
                let faulty_version = self.active[faulty_slot];
                let good_img = if good_slot == 0 { &p_img } else { &q_img };

                // resolve the roll-forward
                let mut progress = 0u32;
                let mut adopted: Option<Vec<u32>> = None;
                if x > 0 && self.cfg.scheme == Scheme::SmtBoosted3 {
                    // two parallel single-segment plans: T from thread 1,
                    // U from thread 2
                    match (rf_results.first(), rf_results.get(1)) {
                        (Some(Ok(ia)), Some(Ok(ib))) if ia.len() == 1 && ib.len() == 1 => {
                            let (t, u) = (&ia[0], &ib[0]);
                            let picked_good = guess_slot == good_slot;
                            if Self::window_digest(t) != Self::window_digest(u) {
                                self.report.rollforward_discards += 1;
                            } else if picked_good {
                                self.report.rollforward_hits += 1;
                                progress = x;
                                adopted = Some(t.clone());
                            } else {
                                self.report.rollforward_misses += 1;
                            }
                        }
                        _ => {
                            // a trap/hang in either roll-forward thread
                            self.report.rollforward_discards += 1;
                        }
                    }
                } else if x > 0 && self.cfg.scheme != Scheme::Conventional {
                    let rf_result = rf_results.into_iter().next();
                    match (self.cfg.scheme, rf_result) {
                        (Scheme::SmtProbabilistic, Some(Ok(images))) if images.len() == 2 => {
                            let t = &images[0];
                            let u = &images[1];
                            let picked_good = guess_slot == good_slot;
                            if Self::window_digest(t) != Self::window_digest(u) {
                                self.report.rollforward_discards += 1;
                            } else if picked_good {
                                self.report.rollforward_hits += 1;
                                progress = x;
                                adopted = Some(t.clone());
                            } else {
                                self.report.rollforward_misses += 1;
                            }
                        }
                        (Scheme::SmtDeterministic, Some(Ok(images))) if images.len() == 4 => {
                            // images: T (v2 from P), U (v1 from P),
                            //         V (v1 from Q), W (v2 from Q)
                            let (first, second) = if good_slot == 0 {
                                (&images[0], &images[1]) // pair from P
                            } else {
                                (&images[2], &images[3]) // pair from Q
                            };
                            if Self::window_digest(first) == Self::window_digest(second) {
                                self.report.rollforward_hits += 1;
                                progress = x;
                                adopted = Some(first.clone());
                            } else {
                                self.report.rollforward_discards += 1;
                            }
                        }
                        (Scheme::SmtPredictive, Some(Ok(images))) if images.len() == 1 => {
                            if guess_slot == good_slot {
                                self.report.rollforward_hits += 1;
                                progress = x;
                                adopted = Some(images[0].clone());
                            } else {
                                self.report.rollforward_misses += 1;
                            }
                        }
                        (_, Some(Err(()))) => {
                            // trap during roll-forward: discard it
                            self.report.rollforward_discards += 1;
                        }
                        _ => {}
                    }
                }

                // form the new VDS: the fault-free version plus the spare
                let resume_img = adopted.unwrap_or_else(|| {
                    if progress > 0 {
                        unreachable!()
                    }
                    // the replay state and the good state agree; use S
                    let _ = good_img;
                    s_img
                });
                let old_spare = self.spare;
                self.spare = faulty_version;
                self.active = [good_version, old_spare];
                for v in self.active {
                    let ctx = self.canonical(v, &resume_img);
                    self.m.preempt(self.procs[v]);
                    self.m.replace_context(self.procs[v], ctx);
                }
                self.rounds_since = i + progress;
                self.report.committed_rounds += 1 + u64::from(progress);
                self.journal_action(JournalAction::Recover, progress);
                let t = self.m.cycles() as f64;
                obs_event!(
                    self.rec, t, "micro", "recovery",
                    "round" => i,
                    "scheme" => self.cfg.scheme.name(),
                    "rollforward_progress" => progress,
                );
                if self.rounds_since >= self.cfg.s {
                    self.take_checkpoint();
                }
            }
            None => {
                // three differing states: resort to rollback
                self.journal_action(JournalAction::Rollback, 0);
                self.report.rollbacks += 1;
                // An underflow here would mean a double-billed rollback;
                // refuse to clamp it silently (see the abstract engine).
                match self.report.committed_rounds.checked_sub(u64::from(i - 1)) {
                    Some(v) => self.report.committed_rounds = v,
                    None => {
                        debug_assert!(
                            false,
                            "committed_rounds underflow: {} - {} during rollback",
                            self.report.committed_rounds,
                            i - 1
                        );
                        vds_obs::log_error!(
                            "core.micro",
                            "committed_rounds underflow: {} - {} during rollback",
                            self.report.committed_rounds,
                            i - 1
                        );
                        self.report.committed_rounds = 0;
                    }
                }
                self.rounds_since = 0;
                let t = self.m.cycles() as f64;
                obs_event!(
                    self.rec, t, "micro", "rollback",
                    "round" => i, "rounds_lost" => i - 1,
                );
                let img = self.ckpt_img.clone();
                for slot in [0usize, 1] {
                    let v = self.active[slot];
                    let ctx = self.canonical(v, &img);
                    self.m.preempt(self.procs[v]);
                    self.m.replace_context(self.procs[v], ctx);
                }
            }
        }
        self.trap_evidence = None;
        self.report.time_recovery += (self.m.cycles() - start_cycles) as f64;
        obs_end_span!(self.rec, recovery_g, self.m.cycles() as f64, "round" => i);
    }
}

/// Run a micro VDS until `target_rounds` rounds are committed.
pub fn run_micro(cfg: &MicroConfig, fault: Option<MicroFault>, target_rounds: u64) -> RunReport {
    run_micro_with_state(cfg, fault, target_rounds).0
}

/// [`run_micro`], additionally returning the final data-memory image of
/// the first active version (for output-correctness audits against
/// [`crate::workload::oracle`]).
pub fn run_micro_with_state(
    cfg: &MicroConfig,
    fault: Option<MicroFault>,
    target_rounds: u64,
) -> (RunReport, Vec<u32>) {
    // Monomorphized against the zero-sized sink: the uninstrumented
    // entry point pays nothing for the instrumentation below.
    let (report, img, _) = run_micro_engine(cfg, fault, target_rounds, NoopRecorder);
    (report, img)
}

/// [`run_micro`], recording metrics and a bounded event trace: round /
/// detection / checkpoint / recovery / rollback events at cycle time, the
/// report mirrored under `vds.*`, and the SMT core's cycle-level counters
/// (per-thread stalls, cache hits/misses) under `smt.*`.
pub fn run_micro_recorded(
    cfg: &MicroConfig,
    fault: Option<MicroFault>,
    target_rounds: u64,
) -> (RunReport, Recorder) {
    let (report, _, rec) = run_micro_engine(cfg, fault, target_rounds, Recorder::new());
    (report, rec)
}

/// [`run_micro_recorded`] plus the final data-memory image, for callers
/// (e.g. the CLI) that want both metrics and an oracle verdict.
pub fn run_micro_recorded_with_state(
    cfg: &MicroConfig,
    fault: Option<MicroFault>,
    target_rounds: u64,
) -> (RunReport, Vec<u32>, Recorder) {
    run_micro_engine(cfg, fault, target_rounds, Recorder::new())
}

/// [`run_micro_recorded_with_state`] with a caller-supplied recorder, so
/// the CLI can honour `--trace-capacity` and other ring-size overrides.
pub fn run_micro_with_recorder(
    cfg: &MicroConfig,
    fault: Option<MicroFault>,
    target_rounds: u64,
    rec: Recorder,
) -> (RunReport, Vec<u32>, Recorder) {
    run_micro_engine(cfg, fault, target_rounds, rec)
}

fn run_micro_engine<R: Record>(
    cfg: &MicroConfig,
    fault: Option<MicroFault>,
    target_rounds: u64,
    rec: R,
) -> (RunReport, Vec<u32>, R) {
    let mut e = Micro::with_recorder(cfg.clone(), fault, rec);
    // Fail-safe watchdog: a *permanent* fault in a shared functional unit
    // corrupts every round of every version — detectable (diversity!) but
    // not tolerable on a single processor. When the system stops making
    // forward progress it shuts down fail-safe, exactly as the paper's
    // flow charts terminate.
    let mut last_committed = 0u64;
    let mut stalled_iterations = 0u32;
    while e.report.committed_rounds < target_rounds {
        match e.normal_round() {
            None => {
                if e.rounds_since >= cfg.s {
                    e.take_checkpoint();
                    e.journal_action(JournalAction::Checkpoint, 0);
                }
            }
            Some(i) => e.recover(i),
        }
        if e.report.committed_rounds > last_committed {
            last_committed = e.report.committed_rounds;
            stalled_iterations = 0;
        } else {
            stalled_iterations += 1;
            if stalled_iterations > 64 {
                e.report.shutdown = true;
                let t = e.m.cycles() as f64;
                obs_event!(e.rec, t, "micro", "shutdown");
                e.journal_action(JournalAction::Shutdown, 0);
                e.journal_finish();
                break;
            }
        }
        e.journal_finish();
    }
    e.report.total_time = e.m.cycles() as f64;
    let img = e.dmem_of(e.active[0]);
    // classify a fault no comparison ever caught: output still correct
    // (corruption overwritten or architecturally masked) → masked;
    // output wrong and undetected → escaped (silent data corruption)
    if let Some(o) = e.outstanding.take() {
        let (k, state) = workload::oracle(e.report.committed_rounds as u32);
        let window = &img[workload::ADDR_STATE as usize
            ..(workload::ADDR_STATE + workload::STATE_WORDS) as usize];
        let correct = img[workload::ADDR_ROUND as usize] == k && window == &state[..];
        let outcome = if o.masked_on_arrival || correct {
            e.report.faults_masked += 1;
            "masked"
        } else {
            e.report.faults_escaped += 1;
            "escaped"
        };
        e.rec.journal_resolve_fault(0, outcome);
    }
    let mut rec = e.rec;
    e.report.export_metrics(&mut rec, "vds");
    e.m.core().export_metrics(&mut rec);
    e.m.core().export_spans(&mut rec);
    rec.rollup_spans();
    (e.report, img, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vds_fault::model::FaultSite;

    fn fault_mem(at_round: u32, victim: Victim) -> MicroFault {
        MicroFault {
            at_round,
            victim,
            // flip a state word (address 4 is S[2]) — always detectable
            kind: FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 7 }),
        }
    }

    #[test]
    fn fault_free_run_commits_and_checkpoints() {
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 5);
        let r = run_micro(&cfg, None, 12);
        assert_eq!(r.committed_rounds, 12);
        assert_eq!(r.detections, 0);
        assert_eq!(r.checkpoints, 2); // after rounds 5 and 10
        assert!(r.total_time > 0.0);
    }

    #[test]
    fn final_state_matches_oracle_fault_free() {
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 5);
        let mut e = Micro::new(cfg.clone(), None);
        for _ in 0..7 {
            assert_eq!(e.normal_round(), None);
            if e.rounds_since >= cfg.s {
                e.take_checkpoint();
            }
        }
        let (k, state) = workload::oracle(7);
        let img = e.dmem_of(e.active[0]);
        assert_eq!(img[workload::ADDR_ROUND as usize], k);
        assert_eq!(
            &img[workload::ADDR_STATE as usize
                ..(workload::ADDR_STATE + workload::STATE_WORDS) as usize],
            &state[..]
        );
    }

    #[test]
    fn smt_processes_rounds_faster_than_conventional() {
        let smt = run_micro(&MicroConfig::new(Scheme::SmtProbabilistic, 10), None, 30);
        let conv = run_micro(&MicroConfig::new(Scheme::Conventional, 10), None, 30);
        let gain = conv.total_time / smt.total_time;
        assert!(
            gain > 1.1 && gain < 2.1,
            "measured normal-processing gain {gain}"
        );
    }

    #[test]
    fn memory_fault_detected_and_recovered_all_schemes() {
        for scheme in [
            Scheme::Conventional,
            Scheme::SmtDeterministic,
            Scheme::SmtProbabilistic,
            Scheme::SmtPredictive,
        ] {
            let cfg = MicroConfig::new(scheme, 10);
            let r = run_micro(&cfg, Some(fault_mem(4, Victim::V2)), 25);
            assert_eq!(r.committed_rounds, 25, "{scheme:?}");
            assert_eq!(r.detections, 1, "{scheme:?}");
            assert_eq!(r.recoveries_ok, 1, "{scheme:?}: {r}");
            assert_eq!(r.rollbacks, 0, "{scheme:?}");
            // fault lifecycle: caught in the injection round itself
            assert_eq!(r.faults_detected, 1, "{scheme:?}");
            assert_eq!(r.faults_masked, 0, "{scheme:?}");
            assert_eq!(r.faults_escaped, 0, "{scheme:?}");
            assert_eq!(r.detect_latency_rounds_sum, 0, "{scheme:?}");
            assert!((r.coverage() - 1.0).abs() < 1e-12, "{scheme:?}");
        }
    }

    #[test]
    fn recovered_state_is_correct_after_fault() {
        // After recovery the computation must continue *correctly*: final
        // state equals the oracle despite the mid-run corruption.
        let cfg = MicroConfig::new(Scheme::SmtDeterministic, 8);
        let mut e = Micro::new(cfg.clone(), Some(fault_mem(3, Victim::V1)));
        let target = 14u64;
        while e.report.committed_rounds < target {
            match e.normal_round() {
                None => {
                    if e.rounds_since >= cfg.s {
                        e.take_checkpoint();
                    }
                }
                Some(i) => e.recover(i),
            }
        }
        let committed = e.report.committed_rounds as u32;
        let (_, state) = workload::oracle(committed);
        let img = e.dmem_of(e.active[0]);
        assert_eq!(img[workload::ADDR_ROUND as usize], committed);
        assert_eq!(
            &img[workload::ADDR_STATE as usize
                ..(workload::ADDR_STATE + workload::STATE_WORDS) as usize],
            &state[..],
            "post-recovery state wrong"
        );
    }

    #[test]
    fn early_round_fault_is_pure_stop_and_retry() {
        // ⌊i/4⌋ = 0 for i ∈ {1,2,3} (deterministic) and ⌊i/2⌋ = 0 for
        // i = 1 (probabilistic): zero-length roll-forward windows carry
        // no scheme bookkeeping at all — no hits, misses or discards.
        let cases: [(Scheme, &[u32]); 2] = [
            (Scheme::SmtDeterministic, &[1, 2, 3]),
            (Scheme::SmtProbabilistic, &[1]),
        ];
        for (scheme, rounds) in cases {
            for &i in rounds {
                let cfg = MicroConfig::new(scheme, 10);
                let r = run_micro(&cfg, Some(fault_mem(i, Victim::V1)), 15);
                assert_eq!(r.committed_rounds, 15, "{scheme:?} i={i}");
                assert_eq!(r.detections, 1, "{scheme:?} i={i}: {r}");
                assert_eq!(r.recoveries_ok, 1, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_hits, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_misses, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_discards, 0, "{scheme:?} i={i}: {r}");
            }
        }
    }

    #[test]
    fn probabilistic_hit_rolls_forward() {
        let mut cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        cfg.p_correct = 1.0;
        let r = run_micro(&cfg, Some(fault_mem(6, Victim::V1)), 20);
        assert_eq!(r.rollforward_hits, 1, "{r}");
        assert_eq!(r.rollforward_misses, 0);
        let mut cfg2 = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        cfg2.p_correct = 0.0;
        let r2 = run_micro(&cfg2, Some(fault_mem(6, Victim::V1)), 20);
        assert_eq!(r2.rollforward_hits, 0, "{r2}");
        assert_eq!(r2.rollforward_misses, 1);
        // a miss costs wall time relative to a hit
        assert!(r2.total_time >= r.total_time);
    }

    #[test]
    fn deterministic_progress_is_guaranteed() {
        // regardless of p_correct, the deterministic scheme progresses
        for p in [0.0, 1.0] {
            let mut cfg = MicroConfig::new(Scheme::SmtDeterministic, 12);
            cfg.p_correct = p;
            let r = run_micro(&cfg, Some(fault_mem(8, Victim::V2)), 20);
            assert_eq!(r.rollforward_hits, 1, "p={p}: {r}");
        }
    }

    #[test]
    fn boosted3_recovers_with_full_progress_on_three_hardware_threads() {
        let mut cfg = MicroConfig::new(Scheme::SmtBoosted3, 10);
        cfg.p_correct = 1.0;
        let r = run_micro(&cfg, Some(fault_mem(6, Victim::V1)), 25);
        assert_eq!(r.committed_rounds, 25);
        assert_eq!(r.recoveries_ok, 1, "{r}");
        assert_eq!(r.rollforward_hits, 1, "{r}");
        // progress is min(i, s−i) = min(6, 4) = 4, larger than the
        // 2-thread probabilistic scheme's min(i/2, s−i) = 3
        let mut cfg2 = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        cfg2.p_correct = 1.0;
        let r2 = run_micro(&cfg2, Some(fault_mem(6, Victim::V1)), 25);
        assert_eq!(r2.rollforward_hits, 1);
        // The boosted variant buys more roll-forward progress but pays
        // 3-way contention on a 2-wide core during recovery (the α₃ > α₂
        // effect of the analytic model) — measurably slower here, but
        // bounded. This is the §5 trade made concrete.
        assert!(
            r.total_time <= r2.total_time * 1.6,
            "boost3 {} vs prob {}",
            r.total_time,
            r2.total_time
        );
    }

    #[test]
    fn boosted3_final_state_correct() {
        let cfg = MicroConfig::new(Scheme::SmtBoosted3, 8);
        let (r, img) = run_micro_with_state(&cfg, Some(fault_mem(4, Victim::V2)), 18);
        assert_eq!(r.committed_rounds, 18);
        let (_, want) = workload::oracle(18);
        assert_eq!(
            &img[workload::ADDR_STATE as usize
                ..(workload::ADDR_STATE + workload::STATE_WORDS) as usize],
            &want[..]
        );
    }

    #[test]
    fn crash_fault_gives_evidence_and_perfect_pick() {
        let mut cfg = MicroConfig::new(Scheme::SmtPredictive, 10);
        cfg.p_correct = 0.0; // only evidence can save the pick
        let f = MicroFault {
            at_round: 5,
            victim: Victim::V2,
            kind: FaultKind::CrashVersion,
        };
        let r = run_micro(&cfg, Some(f), 20);
        assert_eq!(r.detections, 1);
        assert_eq!(r.recoveries_ok, 1, "{r}");
        assert_eq!(r.rollforward_hits, 1, "evidence should make the pick: {r}");
    }

    #[test]
    fn text_fault_detected() {
        // corrupt an instruction word of V1: either an illegal-
        // instruction trap or a state mismatch; both must recover
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        let f = MicroFault {
            at_round: 3,
            victim: Victim::V1,
            kind: FaultKind::Transient(FaultSite::Text { index: 5, bit: 27 }),
        };
        let r = run_micro(&cfg, Some(f), 15);
        assert_eq!(r.committed_rounds, 15);
        assert!(r.detections >= 1, "{r}");
        // text corruption is permanent for this incarnation of the
        // process; recovery replaces the program image via the canonical
        // context, so the run completes
        assert_eq!(r.rollbacks, 0, "{r}");
    }

    #[test]
    fn masked_register_fault_goes_undetected() {
        // registers are dead at round boundaries in this workload: a
        // register flip injected at the boundary must be masked
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        let f = MicroFault {
            at_round: 4,
            victim: Victim::V1,
            kind: FaultKind::Transient(FaultSite::Register { reg: 5, bit: 3 }),
        };
        let r = run_micro(&cfg, Some(f), 15);
        assert_eq!(r.committed_rounds, 15);
        assert_eq!(r.detections, 0, "boundary register faults are dead: {r}");
        // lifecycle accounting keeps the undetected-but-harmless fault
        // out of both the detected and escaped buckets
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.faults_detected, 0);
        assert_eq!(r.faults_masked, 1, "{r}");
        assert_eq!(r.faults_escaped, 0, "{r}");
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn masked_fault_outcome_is_stamped_on_the_journal_entry() {
        use vds_obs::JournalHeader;
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        let f = MicroFault {
            at_round: 4,
            victim: Victim::V1,
            kind: FaultKind::Transient(FaultSite::Register { reg: 5, bit: 3 }),
        };
        let mut rec = Recorder::new();
        rec.enable_journal(JournalHeader::new(
            "micro",
            cfg.scheme.name(),
            cfg.seed,
            cfg.s,
            15,
        ));
        let (r, _, rec) = run_micro_with_recorder(&cfg, Some(f), 15, rec);
        assert_eq!(r.faults_masked, 1);
        let entry = rec
            .journal()
            .entries()
            .iter()
            .find(|e| e.fault.is_some())
            .expect("fault-bearing entry");
        assert_eq!(entry.fault_id, Some(0));
        assert_eq!(entry.fault_outcome.as_deref(), Some("masked"));
        // forensics over the journal agrees with the engine accounting
        let t = vds_obs::ForensicsTracker::for_journal(rec.journal()).unwrap();
        let rep = t.report();
        assert_eq!(rep.injected, 1);
        assert_eq!(rep.masked, 1);
        assert_eq!(rep.detected, 0);
        assert!(rep.escapes.is_empty());
    }

    #[test]
    fn recorded_micro_run_exports_metrics_and_trace() {
        let cfg = MicroConfig::new(Scheme::SmtDeterministic, 10);
        let (r, rec) = run_micro_recorded(&cfg, Some(fault_mem(4, Victim::V2)), 15);
        let reg = rec.registry();
        assert_eq!(reg.counter("vds.committed_rounds"), r.committed_rounds);
        assert_eq!(reg.counter("vds.detections"), 1);
        assert_eq!(reg.counter("smt.cycles"), r.total_time as u64);
        assert!(reg.counter("smt.thread0.retired") > 0);
        // byte-identical exports across two runs (fixed seed)
        let (_, rec2) = run_micro_recorded(&cfg, Some(fault_mem(4, Victim::V2)), 15);
        assert_eq!(rec.registry().to_csv(), rec2.registry().to_csv());
        assert_eq!(rec.trace().to_jsonl(), rec2.trace().to_jsonl());
        assert_eq!(rec.spans().to_chrome_json(), rec2.spans().to_chrome_json());
        assert_eq!(rec.spans().to_folded(), rec2.spans().to_folded());
        // hot-path events and spans only exist with the `obs` macros in
        if cfg!(feature = "obs") {
            let events: Vec<&str> = rec.trace().records().map(|e| e.event).collect();
            assert!(events.contains(&"fault_injected"));
            assert!(events.contains(&"detect"));
            assert!(events.contains(&"recovery"));
            assert!(events.contains(&"round"));
            // span layer: every phase shows up, exports are deterministic,
            // and the rollups landed in the registry
            let names: Vec<&str> = rec.spans().records().map(|s| s.name).collect();
            for phase in [
                "round",
                "compute",
                "compare",
                "checkpoint",
                "recovery",
                "retry",
            ] {
                assert!(names.contains(&phase), "missing span {phase}: {names:?}");
            }
            assert!(rec.spans().records().any(|s| s.component == "smt"));
            assert!(reg.summary("span.micro.round.total").is_some());
            assert!(reg.summary("span.micro.compare.self").is_some());
        } else {
            assert!(rec.trace().is_empty());
        }
    }

    #[test]
    fn journaled_micro_run_records_every_round() {
        use vds_obs::{Journal, JournalHeader};
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        let run = || {
            let mut rec = Recorder::new();
            rec.enable_journal(
                JournalHeader::new("micro", cfg.scheme.name(), cfg.seed, cfg.s, 15)
                    .with_meta("fault", "transient:mem:4:7@v2"),
            );
            run_micro_with_recorder(&cfg, Some(fault_mem(4, Victim::V2)), 15, rec)
        };
        let (r, _, rec) = run();
        let j = rec.journal();
        assert!(j.is_enabled());
        // one entry per executed round; a successful recovery commits
        // 1 + rollforward rounds in its single entry, so with no
        // rollbacks: executed rounds = committed − salvaged progress
        let salvaged: u64 = j.entries().iter().map(|e| u64::from(e.rollforward)).sum();
        assert_eq!(r.rollbacks, 0, "{r}");
        assert_eq!(j.len() as u64 + salvaged, r.committed_rounds);
        assert_eq!(j.divergences(), r.detections);
        assert_eq!(j.entries().last().unwrap().committed, r.committed_rounds);
        assert_eq!(r.committed_rounds, 15);
        // the injected fault is stamped on exactly one entry
        let faults: Vec<_> = j.entries().iter().filter_map(|e| e.fault.clone()).collect();
        assert_eq!(faults, vec!["transient:mem:4:7@v2".to_string()]);
        // the detection round carries a non-commit action
        let detect = j
            .entries()
            .iter()
            .find(|e| e.verdict != JournalVerdict::Match)
            .expect("detection entry");
        assert_eq!(detect.round, 4);
        assert_ne!(detect.d1, detect.d2);
        assert!(matches!(
            detect.action,
            JournalAction::Recover | JournalAction::Rollback
        ));
        // checkpoints show up as actions on interval boundaries
        assert!(j
            .entries()
            .iter()
            .any(|e| e.action == JournalAction::Checkpoint));
        // byte-identical journals for a fixed seed, lossless round trip
        let (_, _, rec2) = run();
        assert_eq!(j.to_jsonl(), rec2.journal().to_jsonl());
        let back = Journal::from_jsonl(&j.to_jsonl()).expect("parse");
        assert_eq!(back.entries(), j.entries());
        // disabled journal keeps the run journal-free
        let (_, plain) = run_micro_recorded(&cfg, Some(fault_mem(4, Victim::V2)), 15);
        assert!(plain.journal().is_empty());
    }

    #[test]
    fn deterministic_runs_reproduce() {
        let cfg = MicroConfig::new(Scheme::SmtDeterministic, 10);
        let a = run_micro(&cfg, Some(fault_mem(7, Victim::V1)), 25);
        let b = run_micro(&cfg, Some(fault_mem(7, Victim::V1)), 25);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.committed_rounds, b.committed_rounds);
    }
}
