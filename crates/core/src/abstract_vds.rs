//! The abstract-timing VDS engine.
//!
//! Implements the paper's execution models exactly at the level its
//! equations live at: rounds of length `t`, context switches `c`,
//! comparisons `t'`, SMT co-run stretch `α`, checkpoint interval `s`.
//! Faults are stochastic (or placed) state corruptions; recovery follows
//! the §3.1 / §3.2 / §4 / §5 schemes including every edge in the
//! Figures 2–3 flow charts: fault during retry, fault during
//! roll-forward, resort to rollback, fail-safe shutdown.
//!
//! The integral nature of rounds is respected: a roll-forward of `i/4`
//! rounds really advances `⌊i/4⌋` (clamped at the checkpoint horizon) —
//! the paper explicitly waves this away ("we do not consider the detail
//! that i/2 may not be an integer"); validation tests account for it.

use crate::config::{FaultModel, Scheme, Victim};
use crate::report::RunReport;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use vds_analytic::multithread::alpha_k;
use vds_analytic::Params;
use vds_desim::time::SimTime;
use vds_desim::trace::{SpanKind, Timeline};
use vds_obs::journal::{Action as JournalAction, RoundEntry, Verdict as JournalVerdict};
use vds_obs::{digest_words128, obs_event, NoopRecorder, Record, Recorder};
use vds_predictor::{FaultPredictor, Suspect};

/// Configuration of an abstract VDS run.
#[derive(Debug, Clone)]
pub struct AbstractConfig {
    /// Timing parameters (the paper's `t`, `c`, `t'`, `α`, `s`).
    pub params: Params,
    /// Recovery scheme.
    pub scheme: Scheme,
    /// Probability of picking the fault-free state/version correctly in
    /// the probabilistic/predictive schemes when no predictor and no
    /// crash evidence is available (the paper's `p`).
    pub p_correct: f64,
    /// Time to write a checkpoint (the paper's equations ignore it; keep
    /// 0 to reproduce them, raise it for the E12 trade-off study).
    pub checkpoint_cost: f64,
    /// Time to restore state from the checkpoint on rollback.
    pub restore_cost: f64,
    /// Record a [`Timeline`] (Figure 1) — costs memory, off by default.
    pub record_timeline: bool,
    /// Fail-safe shutdown after this many consecutive rollbacks without
    /// progress (the flow charts' terminal state).
    pub max_consecutive_rollbacks: u32,
}

impl AbstractConfig {
    /// Defaults: paper-faithful zero overheads beyond `params`,
    /// `p = 0.5`, no timeline.
    pub fn new(params: Params, scheme: Scheme) -> Self {
        AbstractConfig {
            params,
            scheme,
            p_correct: 0.5,
            checkpoint_cost: 0.0,
            restore_cost: 0.0,
            record_timeline: false,
            max_consecutive_rollbacks: 32,
        }
    }
}

/// Measured facts about a single recovery incident (for per-incident
/// validation against Eqs. 6–12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incident {
    /// Round at which the fault was detected.
    pub i: u32,
    /// Wall time of the recovery (retry + roll-forward + vote).
    pub recovery_time: f64,
    /// Rounds of roll-forward progress that survived.
    pub progress: u32,
    /// Whether the majority vote succeeded (false ⇒ rollback).
    pub vote_ok: bool,
}

struct Engine<'a, R> {
    cfg: &'a AbstractConfig,
    rng: SmallRng,
    clock: f64,
    /// Confirmed rounds since the last checkpoint (the paper's `i − 1`
    /// at detection time).
    round_in_interval: u32,
    corrupt: [bool; 2],
    crash: Option<Victim>,
    consecutive_rollbacks: u32,
    oneshot_fired: bool,
    timeline: Timeline,
    report: RunReport,
    rec: R,
    /// Flight-recorder entry for the round in flight (see the micro
    /// engine's equivalent): finalised by [`Engine::journal_finish`].
    pending: Option<RoundEntry>,
    /// Lane-local ordinal of the next fault-bearing journal entry — the
    /// forensics `fault_id` (stable across reruns because entries are
    /// journalled in execution order).
    next_fault_id: u64,
    /// Normal rounds attempted so far, faulted or not (the livelock
    /// guard's count).
    attempts: u64,
}

/// Per-version-round corruption draw under `fm`.
fn draw(
    rng: &mut SmallRng,
    oneshot_fired: &mut bool,
    fm: &FaultModel,
    victim: Victim,
    round_1based: u32,
) -> bool {
    match *fm {
        FaultModel::None => false,
        FaultModel::OneShot { round, victim: v } => {
            if !*oneshot_fired && round == round_1based && v == victim {
                *oneshot_fired = true;
                true
            } else {
                false
            }
        }
        FaultModel::PerRound { q }
        | FaultModel::PerRoundWithCrashes { q, .. }
        | FaultModel::Mission { q, .. } => rng.gen::<f64>() < q,
    }
}

impl<'a, R: Record> Engine<'a, R> {
    fn with_recorder(cfg: &'a AbstractConfig, seed: u64, rec: R) -> Self {
        Engine {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            clock: 0.0,
            round_in_interval: 0,
            corrupt: [false, false],
            crash: None,
            consecutive_rollbacks: 0,
            oneshot_fired: false,
            timeline: Timeline::new(),
            report: RunReport::default(),
            rec,
            pending: None,
            next_fault_id: 0,
            attempts: 0,
        }
    }

    /// Stash the flight-recorder entry for round `i`, compared at `clock`
    /// with `committed` rounds committed. The abstract engine has no
    /// architectural state to hash, so per-version digests are
    /// synthesised from the versions' logical round state (round,
    /// committed count, corruption) — fault-free versions agree, a
    /// corrupted version diverges, exactly like the micro digests.
    fn journal_stash(
        &mut self,
        i: u32,
        clock: f64,
        committed: u64,
        verdict: JournalVerdict,
        fault: Option<String>,
    ) {
        if !self.rec.journal_enabled() {
            return;
        }
        let dig = |slot: u32, corrupt: bool| {
            digest_words128(&[
                i,
                committed as u32,
                (committed >> 32) as u32,
                if corrupt { slot + 1 } else { 0 },
            ])
        };
        let sched = if self.is_smt() {
            "coschedule[v1,v2]"
        } else {
            "alternate[v1,v2]"
        };
        let fault_id = fault.as_ref().map(|_| {
            let id = self.next_fault_id;
            self.next_fault_id += 1;
            id
        });
        self.pending = Some(RoundEntry {
            seq: 0,
            lane: 0,
            round: u64::from(i),
            committed: 0,
            sim_time: clock,
            d1: dig(0, self.corrupt[0]),
            d2: dig(1, self.corrupt[1]),
            verdict,
            sched: sched.to_string(),
            action: JournalAction::Commit,
            rollforward: 0,
            fault,
            fault_id,
            fault_outcome: None,
        });
    }

    /// Upgrade the pending journal entry's action.
    fn journal_action(&mut self, action: JournalAction, rollforward: u32) {
        if let Some(p) = self.pending.as_mut() {
            p.action = action;
            p.rollforward = rollforward;
        }
    }

    /// Finalise and push the pending journal entry with the post-action
    /// committed-round count.
    fn journal_finish(&mut self, committed: u64) {
        if let Some(mut p) = self.pending.take() {
            p.committed = committed;
            self.rec.journal_push(p);
        }
    }

    /// Journal hook of a committed fault-free round `i` (compared at
    /// `clock`), including the checkpoint it may close.
    fn journal_commit(&mut self, i: u32, clock: f64, committed: u64, checkpoint: bool) {
        self.journal_stash(i, clock, committed, JournalVerdict::Match, None);
        if checkpoint {
            self.journal_action(JournalAction::Checkpoint, 0);
        }
        self.journal_finish(committed);
    }

    /// Record a timeline span starting at `at`. The label is a closure so
    /// hot call sites don't pay for `format!` allocations when no
    /// timeline is kept — it runs only when `record_timeline` is set.
    /// The recording itself is out of line: inlined, it costs the
    /// stretch loop its register-resident locals (about 3× per round).
    fn span(
        &mut self,
        lane: usize,
        at: f64,
        dur: f64,
        kind: SpanKind,
        label: impl FnOnce() -> String,
    ) {
        if self.cfg.record_timeline {
            self.record_span(lane, at, dur, kind, label());
        }
    }

    #[cold]
    #[inline(never)]
    fn record_span(&mut self, lane: usize, at: f64, dur: f64, kind: SpanKind, label: String) {
        self.timeline.record(
            lane,
            SimTime::from_secs(at),
            SimTime::from_secs(at + dur),
            kind,
            label,
        );
    }

    fn is_smt(&self) -> bool {
        self.cfg.scheme != Scheme::Conventional
    }

    /// Debit rolled-back rounds from the committed count. An underflow
    /// here means the recovery paths double-billed a rollback; clamping
    /// would silently corrupt every downstream aggregate (journal
    /// committed counts, sweep cells, campaign summaries), so it is
    /// logged as an error and asserted in debug builds.
    fn debit_committed(&mut self, lost: u64, cause: &str) {
        match self.report.committed_rounds.checked_sub(lost) {
            Some(v) => self.report.committed_rounds = v,
            None => {
                debug_assert!(
                    false,
                    "committed_rounds underflow: {} - {lost} during {cause}",
                    self.report.committed_rounds
                );
                vds_obs::log_error!(
                    "core.abstract",
                    "committed_rounds underflow: {} - {} during {}",
                    self.report.committed_rounds,
                    lost,
                    cause
                );
                self.report.committed_rounds = 0;
            }
        }
    }

    /// Classify a drawn corruption: silent, crash (detected with
    /// evidence) or whole-processor stop.
    fn classify_corruption(&mut self, fm: &FaultModel, victim: Victim) -> bool {
        match *fm {
            FaultModel::PerRoundWithCrashes { crash_fraction, .. } => {
                if self.rng.gen::<f64>() < crash_fraction {
                    self.crash = Some(victim);
                }
                false
            }
            FaultModel::Mission {
                crash_fraction,
                stop_fraction,
                ..
            } => {
                let r = self.rng.gen::<f64>();
                if r < stop_fraction {
                    true // processor stop
                } else {
                    if r < stop_fraction + crash_fraction {
                        self.crash = Some(victim);
                    }
                    false
                }
            }
            _ => false,
        }
    }

    /// Corruption probability over `n` executed rounds of one version
    /// during recovery phases.
    fn recovery_corruption(&mut self, fm: &FaultModel, rounds: u32) -> bool {
        let q = match *fm {
            FaultModel::PerRound { q }
            | FaultModel::PerRoundWithCrashes { q, .. }
            | FaultModel::Mission { q, .. } => q,
            _ => return false,
        };
        if rounds == 0 || q == 0.0 {
            return false;
        }
        let p_any = 1.0 - (1.0 - q).powi(rounds as i32);
        self.rng.gen::<f64>() < p_any
    }

    /// Run normal rounds, and the checkpoints that close intervals, until
    /// a fault draw hits, `target` rounds are committed, or the attempt
    /// count passes `max_attempts` (a fail-safe shutdown). Returns the
    /// round whose draw hit and whether V1's draw was the one.
    ///
    /// The engine's hot state lives in locals for the whole stretch and
    /// is written back once. Per-round instrumentation runs as hooks that
    /// take these values explicitly, each guarded by `journal_enabled`,
    /// `is_active` (inside `obs_event!`) or `record_timeline` (inside
    /// [`Engine::span`]); under [`NoopRecorder`] the first two are
    /// constant `false`, so the loop is the arithmetic, the draws and the
    /// counters alone. The clock additions, their order and the draw
    /// order (V1, then V2) are those of one round at a time.
    fn stretch(&mut self, fm: &FaultModel, target: u64, max_attempts: u64) -> Option<(u32, bool)> {
        let p = self.cfg.params;
        let smt = self.is_smt();
        let smt_dur = 2.0 * p.alpha * p.t;
        let checkpoint_cost = self.cfg.checkpoint_cost;
        let mut clock = self.clock;
        let mut time_normal = self.report.time_normal;
        let mut time_checkpoint = self.report.time_checkpoint;
        let mut checkpoints = self.report.checkpoints;
        let mut committed = self.report.committed_rounds;
        let mut round_in_interval = self.round_in_interval;
        let mut attempts = self.attempts;
        let mut rng = self.rng.clone();
        let mut oneshot_fired = self.oneshot_fired;
        let mut faulted = None;
        while committed < target {
            attempts += 1;
            if attempts > max_attempts {
                self.report.shutdown = true;
                break;
            }
            let i = round_in_interval + 1;
            let start = clock;
            if smt {
                self.span(0, clock, smt_dur, SpanKind::Round, || format!("V1 R{i}"));
                self.span(1, clock, smt_dur, SpanKind::Round, || format!("V2 R{i}"));
                clock += smt_dur;
            } else {
                self.span(0, clock, p.t, SpanKind::Round, || format!("V1 R{i}"));
                clock += p.t;
                self.span(0, clock, p.c, SpanKind::ContextSwitch, String::new);
                clock += p.c;
                self.span(0, clock, p.t, SpanKind::Round, || format!("V2 R{i}"));
                clock += p.t;
                self.span(0, clock, p.c, SpanKind::ContextSwitch, String::new);
                clock += p.c;
            }
            self.span(0, clock, p.t_cmp, SpanKind::Compare, || "cmp".to_string());
            clock += p.t_cmp;
            time_normal += clock - start;
            // fault draws: each version-round is exposed independently;
            // V2 is drawn here only when V1's draw missed, otherwise after
            // V1's classification in `faulted_round`
            let v1 = draw(&mut rng, &mut oneshot_fired, fm, Victim::V1, i);
            if v1 || draw(&mut rng, &mut oneshot_fired, fm, Victim::V2, i) {
                faulted = Some((i, v1));
                break;
            }
            round_in_interval = i;
            committed += 1;
            let checkpoint = round_in_interval >= p.s;
            if self.rec.journal_enabled() {
                self.journal_commit(i, clock, committed, checkpoint);
            }
            obs_event!(
                self.rec, clock, "vds", "round",
                "round" => u64::from(i), "comparison" => "match",
            );
            if checkpoint {
                let start = clock;
                self.span(0, clock, checkpoint_cost, SpanKind::Checkpoint, || {
                    "ckpt".to_string()
                });
                clock += checkpoint_cost;
                time_checkpoint += clock - start;
                checkpoints += 1;
                round_in_interval = 0;
                obs_event!(self.rec, clock, "vds", "checkpoint", "number" => checkpoints);
            }
        }
        if committed != self.report.committed_rounds {
            self.consecutive_rollbacks = 0;
        }
        self.clock = clock;
        self.report.time_normal = time_normal;
        self.report.time_checkpoint = time_checkpoint;
        self.report.checkpoints = checkpoints;
        self.report.committed_rounds = committed;
        self.round_in_interval = round_in_interval;
        self.attempts = attempts;
        self.rng = rng;
        self.oneshot_fired = oneshot_fired;
        faulted
    }

    /// The rest of round `i` after a fault draw hit (`v1`: V1's draw hit;
    /// otherwise V2's did): classify the corruptions, note them for the
    /// flight recorder, then either roll back from a processor stop
    /// (`None`) or detect and [`Engine::recover`].
    #[cold]
    #[inline(never)]
    fn faulted_round(
        &mut self,
        fm: &FaultModel,
        i: u32,
        v1: bool,
        predictor: &mut Option<&mut dyn FaultPredictor>,
    ) -> Option<Incident> {
        let mut stopped = false;
        let mut drawn = [Victim::V1; 2];
        let mut n = 0;
        for v in [Victim::V1, Victim::V2] {
            let hit = match v {
                Victim::V1 => v1,
                // V2's draw was taken in the loop only if V1's missed,
                // and then it hit
                Victim::V2 => !v1 || draw(&mut self.rng, &mut self.oneshot_fired, fm, v, i),
            };
            if hit {
                self.report.faults_injected += 1;
                self.corrupt[v.index()] = true;
                stopped |= self.classify_corruption(fm, v);
                drawn[n] = v;
                n += 1;
            }
        }
        let drawn = &drawn[..n];

        // canonical fault note for the flight recorder, e.g.
        // `corrupt@v1`, `crash@v2`, `stop@v1+v2`
        let fault_note = self.rec.journal_enabled().then(|| {
            let kind = if stopped {
                "stop"
            } else if self.crash.is_some() {
                "crash"
            } else {
                "corrupt"
            };
            let victims: Vec<String> = drawn
                .iter()
                .map(|v| format!("v{}", v.index() + 1))
                .collect();
            format!("{kind}@{}", victims.join("+"))
        });

        // every corruption drawn in a normal round is caught by this
        // round's own comparison (or the stop watchdog): zero-latency
        // detection in both the round and sim-time denominations
        self.report.faults_detected += n as u64;

        let (clock, committed) = (self.clock, self.report.committed_rounds);
        if stopped {
            self.journal_stash(i, clock, committed, JournalVerdict::Hang, fault_note);
            // the whole processor stopped: all volatile state is gone;
            // only the stable-storage checkpoint survives
            self.report.processor_stops += 1;
            self.report.detections += 1;
            self.report.rollbacks += 1;
            let lost = u64::from(self.round_in_interval);
            self.debit_committed(lost, "processor stop");
            self.round_in_interval = 0;
            self.corrupt = [false, false];
            self.crash = None;
            self.clock += self.cfg.restore_cost;
            self.consecutive_rollbacks += 1;
            obs_event!(
                self.rec, self.clock, "vds", "processor_stop",
                "round" => u64::from(i), "rounds_lost" => lost,
            );
            if self.consecutive_rollbacks > self.cfg.max_consecutive_rollbacks {
                self.report.shutdown = true;
                obs_event!(self.rec, self.clock, "vds", "shutdown");
                self.journal_action(JournalAction::Shutdown, 0);
            } else {
                self.journal_action(JournalAction::Rollback, 0);
            }
            return None;
        }

        self.report.detections += 1;
        let verdict = if self.crash.is_some() {
            JournalVerdict::Trap
        } else {
            JournalVerdict::Mismatch
        };
        self.journal_stash(i, clock, committed, verdict, fault_note);
        obs_event!(
            self.rec, clock, "vds", "detect",
            "round" => u64::from(i),
            "v1_corrupt" => self.corrupt[0],
            "v2_corrupt" => self.corrupt[1],
            "crash_evidence" => self.crash.is_some(),
        );
        Some(self.recover(i, fm, predictor))
    }

    /// One [`Engine::stretch`] and, if a draw hit, its faulted round,
    /// journalled. Returns the incident when a recovery ran.
    fn advance(
        &mut self,
        fm: &FaultModel,
        target: u64,
        max_attempts: u64,
        predictor: &mut Option<&mut dyn FaultPredictor>,
    ) -> Option<Incident> {
        let (i, v1) = self.stretch(fm, target, max_attempts)?;
        let incident = self.faulted_round(fm, i, v1, predictor);
        self.journal_finish(self.report.committed_rounds);
        incident
    }

    fn take_checkpoint(&mut self) {
        let start = self.clock;
        self.span(
            0,
            start,
            self.cfg.checkpoint_cost,
            SpanKind::Checkpoint,
            || "ckpt".to_string(),
        );
        self.clock += self.cfg.checkpoint_cost;
        self.report.time_checkpoint += self.clock - start;
        self.report.checkpoints += 1;
        self.round_in_interval = 0;
        obs_event!(
            self.rec, self.clock, "vds", "checkpoint",
            "number" => self.report.checkpoints,
        );
    }

    /// Recovery wall time of the configured scheme for a fault at round
    /// `i` (the retry + roll-forward window plus the vote).
    fn recovery_time(&self, i: u32) -> f64 {
        let p = &self.cfg.params;
        let i_f = f64::from(i);
        match self.cfg.scheme {
            Scheme::Conventional => i_f * p.t + 2.0 * p.t_cmp,
            Scheme::SmtDeterministic | Scheme::SmtProbabilistic | Scheme::SmtPredictive => {
                2.0 * i_f * p.alpha * p.t + 2.0 * p.t_cmp
            }
            Scheme::SmtBoosted3 => i_f * 3.0 * alpha_k(p.alpha, 3) * p.t + 2.0 * p.t_cmp,
            Scheme::SmtBoosted5 => i_f * 5.0 * alpha_k(p.alpha, 5) * p.t + 2.0 * p.t_cmp,
        }
    }

    /// Integral roll-forward progress attempted for a fault at round `i`.
    fn rollforward_rounds(&self, i: u32) -> u32 {
        let intent = self.cfg.scheme.rollforward_intent(i).floor() as u32;
        intent.min(self.cfg.params.s - i)
    }

    /// Decide whether the pick hits the fault-free state. Crash evidence
    /// wins; otherwise an attached predictor, otherwise Bernoulli(p).
    fn pick_correct(
        &mut self,
        faulty: Victim,
        predictor: &mut Option<&mut dyn FaultPredictor>,
    ) -> bool {
        if let Some(crashed) = self.crash {
            // evidence: the crashed version is the faulty one
            return crashed == faulty;
        }
        if let Some(pred) = predictor {
            let guess = pred.predict();
            let actual = match faulty {
                Victim::V1 => Suspect::V1,
                Victim::V2 => Suspect::V2,
            };
            pred.update(actual);
            return guess == actual;
        }
        self.rng.gen::<f64>() < self.cfg.p_correct
    }

    /// Run the recovery for a detection at round `i`. Returns the
    /// incident record.
    fn recover(
        &mut self,
        i: u32,
        fm: &FaultModel,
        predictor: &mut Option<&mut dyn FaultPredictor>,
    ) -> Incident {
        let start = self.clock;
        let rec_time = self.recovery_time(i);
        self.span(0, start, rec_time, SpanKind::Retry, || {
            format!("V3 R1..R{i}")
        });
        if self.is_smt() && self.rollforward_rounds(i) > 0 {
            // A zero-length window (⌊i/4⌋ = 0 for i < 4, or i = s) is pure
            // stop-and-retry: the second hardware thread has nothing to
            // execute, so no roll-forward appears on the timeline.
            self.span(1, start, rec_time, SpanKind::RollForward, || {
                "roll-forward".to_string()
            });
        }
        self.clock += rec_time;
        self.span(0, self.clock, self.cfg.params.t_cmp, SpanKind::Vote, || {
            "vote".to_string()
        });
        // (vote time is part of rec_time's 2t'; span is illustrative)

        // does a further fault hit the retry (V3 executes i rounds)?
        let retry_corrupt = self.recovery_corruption(fm, i);
        if retry_corrupt {
            self.report.faults_injected += 1;
            // a corrupted retry always fails the majority vote below —
            // the fault is detected by the vote itself
            self.report.faults_detected += 1;
        }

        let both_corrupt = self.corrupt[0] && self.corrupt[1];
        let vote_ok = !retry_corrupt && !both_corrupt;

        let mut progress = 0u32;
        if vote_ok {
            self.report.recoveries_ok += 1;
            // the faulty version (exactly one corrupt flag set)
            let faulty = if self.corrupt[0] {
                Victim::V1
            } else {
                Victim::V2
            };

            // round i itself is now confirmed (the vote produced a good
            // state at round i)
            self.round_in_interval = i;
            self.report.committed_rounds += 1;

            // roll-forward resolution
            let x = self.rollforward_rounds(i);
            if x > 0 && self.cfg.scheme != Scheme::Conventional {
                let rf_exec_rounds = match self.cfg.scheme {
                    Scheme::SmtDeterministic => 4 * x,
                    Scheme::SmtProbabilistic => 2 * x,
                    Scheme::SmtPredictive => x,
                    Scheme::SmtBoosted3 => 2 * x,
                    Scheme::SmtBoosted5 => 4 * x,
                    Scheme::Conventional => 0,
                };
                let rf_corrupt = self.recovery_corruption(fm, rf_exec_rounds);
                if rf_corrupt {
                    self.report.faults_injected += 1;
                }
                let hit = if self.cfg.scheme.progress_guaranteed() {
                    true
                } else {
                    self.pick_correct(faulty, predictor)
                };
                if self.cfg.scheme.detects_during_rollforward() {
                    if rf_corrupt {
                        self.report.rollforward_discards += 1;
                        // the roll-forward comparison caught it
                        self.report.faults_detected += 1;
                    } else if hit {
                        self.report.rollforward_hits += 1;
                        progress = x;
                    } else {
                        self.report.rollforward_misses += 1;
                    }
                } else {
                    // predictive: no comparisons during roll-forward
                    if hit {
                        self.report.rollforward_hits += 1;
                        progress = x;
                        if rf_corrupt {
                            // adopted, and nothing will ever detect it
                            self.report.silent_corruptions += 1;
                            self.report.faults_escaped += 1;
                        }
                    } else {
                        self.report.rollforward_misses += 1;
                        if rf_corrupt {
                            // the corrupted state was discarded unseen:
                            // the corruption never entered the system
                            self.report.faults_masked += 1;
                        }
                    }
                }
            }
            self.round_in_interval += progress;
            self.report.committed_rounds += u64::from(progress);
            self.corrupt = [false, false];
            self.crash = None;
            self.consecutive_rollbacks = 0;
            self.journal_action(JournalAction::Recover, progress);
            obs_event!(
                self.rec, self.clock, "vds", "recovery",
                "round" => u64::from(i),
                "scheme" => self.cfg.scheme.name(),
                "rollforward_progress" => u64::from(progress),
            );
            if self.round_in_interval >= self.cfg.params.s {
                self.take_checkpoint();
            }
        } else {
            // three different states (or two corrupt versions): resort to
            // rollback — every round since the checkpoint is lost.
            self.report.rollbacks += 1;
            self.debit_committed(u64::from(i - 1), "rollback");
            self.round_in_interval = 0;
            self.corrupt = [false, false];
            self.crash = None;
            self.clock += self.cfg.restore_cost;
            self.consecutive_rollbacks += 1;
            obs_event!(
                self.rec, self.clock, "vds", "rollback",
                "round" => u64::from(i),
                "rounds_lost" => u64::from(i - 1),
                "consecutive" => u64::from(self.consecutive_rollbacks),
            );
            if self.consecutive_rollbacks > self.cfg.max_consecutive_rollbacks {
                self.report.shutdown = true;
                obs_event!(self.rec, self.clock, "vds", "shutdown");
                self.journal_action(JournalAction::Shutdown, 0);
            } else {
                self.journal_action(JournalAction::Rollback, 0);
            }
        }
        self.report.time_recovery += self.clock - start;
        Incident {
            i,
            recovery_time: rec_time,
            progress,
            vote_ok,
        }
    }
}

/// Run a VDS until `target_rounds` rounds are committed (or a fail-safe
/// shutdown occurs).
pub fn run(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
) -> RunReport {
    run_with_predictor(cfg, fault_model, target_rounds, seed, None)
}

/// [`run`], recording metrics and a bounded event trace into a fresh
/// [`Recorder`]: per-round / detection / checkpoint / recovery /
/// rollback events at simulated time, plus the report mirrored under
/// `vds.*` and per-phase simulated-time gauges.
pub fn run_recorded(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
) -> (RunReport, Recorder) {
    run_engine(cfg, fault_model, target_rounds, seed, None, Recorder::new())
}

/// [`run`], with a caller-supplied [`Recorder`] (which may have the
/// flight-recorder journal enabled — every executed round is then
/// journalled with synthetic per-version digests).
pub fn run_with_recorder(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
    rec: Recorder,
) -> (RunReport, Recorder) {
    run_engine(cfg, fault_model, target_rounds, seed, None, rec)
}

/// [`run`], with an optional fault-version predictor supplying the picks
/// of the probabilistic/predictive schemes.
pub fn run_with_predictor(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
    predictor: Option<&mut dyn FaultPredictor>,
) -> RunReport {
    // Monomorphized against the zero-sized sink: the uninstrumented
    // entry points pay nothing for the instrumentation below.
    run_engine(
        cfg,
        fault_model,
        target_rounds,
        seed,
        predictor,
        NoopRecorder,
    )
    .0
}

fn run_engine<R: Record>(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
    mut predictor: Option<&mut dyn FaultPredictor>,
    rec: R,
) -> (RunReport, R) {
    cfg.params.validate();
    assert!((0.0..=1.0).contains(&cfg.p_correct));
    let mut e = Engine::with_recorder(cfg, seed, rec);
    // Livelock guard: at high fault rates with a long checkpoint interval,
    // late-interval recoveries are almost always corrupted themselves and
    // the system thrashes between roll-backs without ever completing an
    // interval. A real system's watchdog would declare the mission lost;
    // we bound the attempts and report a fail-safe shutdown.
    let max_attempts = 64 * target_rounds + 100_000;
    while e.report.committed_rounds < target_rounds && !e.report.shutdown {
        e.advance(&fault_model, target_rounds, max_attempts, &mut predictor);
    }
    e.report.total_time = e.clock;
    let mut rec = e.rec;
    if cfg.record_timeline {
        if rec.is_active() {
            e.timeline.export_spans(&mut rec, cfg.scheme.name());
        }
        e.report.timeline = Some(e.timeline);
    }
    e.report.export_metrics(&mut rec, "vds");
    crate::conformance::export_metrics(&mut rec, "vds", cfg, &e.report);
    rec.rollup_spans();
    (e.report, rec)
}

/// Simulate exactly one recovery incident at round `i` (victim fixed,
/// pick forced if given) and return its measured facts. Used by the
/// per-incident validation of Eqs. (6)–(12).
pub fn simulate_incident(
    cfg: &AbstractConfig,
    i: u32,
    victim: Victim,
    force_pick_correct: Option<bool>,
) -> Incident {
    assert!(i >= 1 && i <= cfg.params.s);
    let mut cfg = cfg.clone();
    if let Some(hit) = force_pick_correct {
        cfg.p_correct = if hit { 1.0 } else { 0.0 };
    }
    let fm = FaultModel::OneShot { round: i, victim };
    let mut e = Engine::with_recorder(&cfg, 1, NoopRecorder);
    // run through the fault-free prefix into the fault's recovery
    let incident = e
        .advance(&fm, u64::MAX, u64::MAX, &mut None)
        .expect("a one-shot fault is detected and recovered");
    assert_eq!(incident.i, i, "one-shot fault must be detected at round i");
    incident
}

#[cfg(test)]
mod tests {
    use super::*;
    use vds_analytic::timing;

    fn cfg(scheme: Scheme) -> AbstractConfig {
        AbstractConfig::new(Params::paper_default(), scheme)
    }

    // ---- normal processing (Eq. 1, 3, 4) ----

    #[test]
    fn fault_free_round_times_match_equations() {
        let p = Params::paper_default();
        let n = 40;
        let conv = run(&cfg(Scheme::Conventional), FaultModel::None, n, 1);
        let smt = run(&cfg(Scheme::SmtProbabilistic), FaultModel::None, n, 1);
        assert_eq!(conv.committed_rounds, n);
        let t1 = conv.total_time / n as f64;
        let t2 = smt.total_time / n as f64;
        assert!((t1 - timing::t1_round(&p)).abs() < 1e-9, "conv {t1}");
        assert!((t2 - timing::tht2_round(&p)).abs() < 1e-9, "smt {t2}");
        // Eq. (4)
        let g = t1 / t2;
        assert!((g - timing::g_round_exact(&p)).abs() < 1e-9);
    }

    #[test]
    fn checkpoints_every_s_rounds() {
        let mut c = cfg(Scheme::Conventional);
        c.checkpoint_cost = 1.0;
        let r = run(&c, FaultModel::None, 100, 1);
        assert_eq!(r.checkpoints, 5); // s = 20
        assert!((r.time_checkpoint - 5.0).abs() < 1e-9);
    }

    // ---- single incidents (Eqs. 2, 5, 6, 9, 10, 11) ----

    #[test]
    fn conventional_recovery_time_is_eq2() {
        let p = Params::paper_default();
        for i in [1u32, 7, 20] {
            let inc = simulate_incident(&cfg(Scheme::Conventional), i, Victim::V1, None);
            assert!(
                (inc.recovery_time - timing::t1_corr(&p, i)).abs() < 1e-9,
                "i={i}"
            );
            assert!(inc.vote_ok);
            assert_eq!(inc.progress, 0);
        }
    }

    #[test]
    fn smt_recovery_time_is_eq5() {
        let p = Params::paper_default();
        for i in [1u32, 7, 20] {
            let inc = simulate_incident(&cfg(Scheme::SmtDeterministic), i, Victim::V2, None);
            assert!(
                (inc.recovery_time - timing::tht2_corr(&p, i)).abs() < 1e-9,
                "i={i}"
            );
        }
    }

    #[test]
    fn deterministic_progress_is_quarter_clamped() {
        // s = 20: i=8 → 2; i=18 → min(4, 2) = 2; i=20 → 0; i=3 → 0
        for (i, want) in [(8u32, 2u32), (18, 2), (20, 0), (3, 0), (16, 4)] {
            let inc = simulate_incident(&cfg(Scheme::SmtDeterministic), i, Victim::V1, None);
            assert_eq!(inc.progress, want, "i={i}");
        }
    }

    #[test]
    fn early_round_recovery_is_pure_stop_and_retry() {
        // ⌊i/4⌋ = 0 for i ∈ {1,2,3} (deterministic) and ⌊i/2⌋ = 0 for
        // i = 1 (probabilistic): the roll-forward window has zero length,
        // so recovery is pure stop-and-retry — no hits, no misses, no
        // discards, and nothing on the second hardware thread's timeline.
        let cases: [(Scheme, &[u32]); 2] = [
            (Scheme::SmtDeterministic, &[1, 2, 3]),
            (Scheme::SmtProbabilistic, &[1]),
        ];
        for (scheme, rounds) in cases {
            for &i in rounds {
                let inc = simulate_incident(&cfg(scheme), i, Victim::V1, None);
                assert_eq!(inc.progress, 0, "{scheme:?} i={i}");
                assert!(inc.vote_ok, "{scheme:?} i={i}");
                let mut c = cfg(scheme);
                c.record_timeline = true;
                let fm = FaultModel::OneShot {
                    round: i,
                    victim: Victim::V2,
                };
                let r = run(&c, fm, 30, 1);
                assert_eq!(r.rollforward_hits, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_misses, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_discards, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.detections, 1, "{scheme:?} i={i}: {r}");
                assert_eq!(r.recoveries_ok, 1, "{scheme:?} i={i}: {r}");
                let tl = r.timeline.expect("timeline requested");
                assert!(
                    !tl.spans().iter().any(|s| s.kind == SpanKind::RollForward),
                    "{scheme:?} i={i}: zero-length window must not record a \
                     roll-forward span"
                );
            }
        }
        // sanity: a non-zero window still records the roll-forward span
        let mut c = cfg(Scheme::SmtDeterministic);
        c.record_timeline = true;
        let r = run(
            &c,
            FaultModel::OneShot {
                round: 8,
                victim: Victim::V2,
            },
            30,
            1,
        );
        assert!(r
            .timeline
            .unwrap()
            .spans()
            .iter()
            .any(|s| s.kind == SpanKind::RollForward));
    }

    #[test]
    fn probabilistic_progress_depends_on_pick() {
        let hit = simulate_incident(&cfg(Scheme::SmtProbabilistic), 10, Victim::V1, Some(true));
        assert_eq!(hit.progress, 5);
        let miss = simulate_incident(&cfg(Scheme::SmtProbabilistic), 10, Victim::V1, Some(false));
        assert_eq!(miss.progress, 0);
        // same wall time either way (Eq. 5 doesn't depend on the pick)
        assert_eq!(hit.recovery_time, miss.recovery_time);
    }

    #[test]
    fn predictive_progress_is_full_i_clamped() {
        for (i, want) in [(5u32, 5u32), (10, 10), (14, 6), (20, 0)] {
            let inc = simulate_incident(&cfg(Scheme::SmtPredictive), i, Victim::V2, Some(true));
            assert_eq!(inc.progress, want, "i={i}");
        }
        let miss = simulate_incident(&cfg(Scheme::SmtPredictive), 10, Victim::V2, Some(false));
        assert_eq!(miss.progress, 0);
    }

    #[test]
    fn measured_incident_gain_matches_eq10_and_eq11() {
        // G_hit(i) = (T1_corr + progress·T1_round) / THT2_corr with
        // integral progress; compare to the analytic forms evaluated with
        // the same integral progress.
        let p = Params::paper_default();
        for i in 1..=20u32 {
            let inc = simulate_incident(&cfg(Scheme::SmtPredictive), i, Victim::V1, Some(true));
            let g_meas = (timing::t1_corr(&p, i) + f64::from(inc.progress) * timing::t1_round(&p))
                / inc.recovery_time;
            let x = f64::from(i).min(f64::from(p.s - i)).floor();
            let g_expect =
                (timing::t1_corr(&p, i) + x * timing::t1_round(&p)) / timing::tht2_corr(&p, i);
            assert!((g_meas - g_expect).abs() < 1e-9, "i={i}");
            // miss: Eq. (11)
            let miss = simulate_incident(&cfg(Scheme::SmtPredictive), i, Victim::V1, Some(false));
            let l_meas = timing::t1_corr(&p, i) / miss.recovery_time;
            let l_expect = vds_analytic::predictive::l_miss_exact(&p, i);
            assert!((l_meas - l_expect).abs() < 1e-9, "i={i} miss");
        }
    }

    // ---- long runs ----

    #[test]
    fn fault_free_long_run_throughputs_ratio_is_g_round() {
        let p = Params::paper_default();
        let n = 1000;
        let conv = run(&cfg(Scheme::Conventional), FaultModel::None, n, 3);
        let smt = run(&cfg(Scheme::SmtPredictive), FaultModel::None, n, 3);
        let ratio = smt.throughput() / conv.throughput();
        assert!((ratio - timing::g_round_exact(&p)).abs() < 1e-6);
    }

    #[test]
    fn faulty_run_recovers_and_completes() {
        let r = run(
            &cfg(Scheme::SmtProbabilistic),
            FaultModel::PerRound { q: 0.02 },
            2_000,
            7,
        );
        assert_eq!(r.committed_rounds, 2_000);
        assert!(r.faults_injected > 20, "faults={}", r.faults_injected);
        assert!(r.detections > 0);
        assert!(r.recoveries_ok > 0);
        assert!(!r.shutdown);
        assert!(r.time_recovery > 0.0);
        // lifecycle conservation: every injected fault is classified
        assert_eq!(
            r.faults_detected + r.faults_masked + r.faults_escaped,
            r.faults_injected,
            "{r}"
        );
    }

    #[test]
    fn detecting_schemes_have_no_silent_corruptions() {
        for scheme in [
            Scheme::Conventional,
            Scheme::SmtDeterministic,
            Scheme::SmtProbabilistic,
            Scheme::SmtBoosted3,
            Scheme::SmtBoosted5,
        ] {
            let r = run(&cfg(scheme), FaultModel::PerRound { q: 0.05 }, 500, 11);
            assert_eq!(r.silent_corruptions, 0, "{:?}", scheme);
            // detecting schemes never let a fault escape, and every
            // injected fault ends up in exactly one lifecycle bucket
            assert_eq!(r.faults_escaped, 0, "{:?}", scheme);
            assert_eq!(
                r.faults_detected + r.faults_masked + r.faults_escaped,
                r.faults_injected,
                "{scheme:?}: {r}"
            );
        }
    }

    #[test]
    fn predictive_scheme_can_silently_adopt_under_heavy_faults() {
        let r = run(
            &cfg(Scheme::SmtPredictive),
            FaultModel::PerRound { q: 0.08 },
            5_000,
            13,
        );
        assert!(
            r.silent_corruptions > 0,
            "expected some silent adoptions: {r}"
        );
        // silent adoptions are exactly the escaped class here
        assert_eq!(r.faults_escaped, r.silent_corruptions, "{r}");
        assert_eq!(
            r.faults_detected + r.faults_masked + r.faults_escaped,
            r.faults_injected,
            "{r}"
        );
    }

    #[test]
    fn double_faults_force_rollback() {
        // q high enough that both versions get corrupted in one round
        // reasonably often, but below the regime where consecutive
        // rollbacks can trip the fail-safe shutdown for unlucky seeds
        let r = run(
            &cfg(Scheme::SmtDeterministic),
            FaultModel::PerRound { q: 0.15 },
            500,
            17,
        );
        assert!(r.rollbacks > 0, "{r}");
        assert_eq!(r.committed_rounds, 500);
    }

    #[test]
    fn crash_evidence_makes_predictive_picks_perfect() {
        let mut c = cfg(Scheme::SmtPredictive);
        c.p_correct = 0.0; // without evidence, every pick would miss
        let r = run(
            &c,
            FaultModel::PerRoundWithCrashes {
                q: 0.03,
                crash_fraction: 1.0,
            },
            2_000,
            19,
        );
        assert!(r.rollforward_hits > 0, "{r}");
        assert_eq!(r.rollforward_misses, 0, "evidence never misses: {r}");
    }

    #[test]
    fn predictor_hook_drives_picks() {
        use vds_predictor::predictors::LastOutcome;
        // faults always hit V2; last-outcome converges to predicting V2
        let mut pred = LastOutcome::default();
        let mut c = cfg(Scheme::SmtPredictive);
        c.p_correct = 0.0; // would always miss without the predictor
        let mut total_hits = 0;
        let mut total = 0;
        // repeated one-shot incidents, predictor persists across runs
        for k in 0..50 {
            let r = run_with_predictor(
                &c,
                FaultModel::OneShot {
                    round: 5,
                    victim: Victim::V2,
                },
                30,
                k,
                Some(&mut pred),
            );
            total_hits += r.rollforward_hits;
            total += r.rollforward_hits + r.rollforward_misses;
        }
        assert!(total >= 50);
        assert!(
            total_hits as f64 / total as f64 > 0.9,
            "hits {total_hits}/{total}"
        );
    }

    #[test]
    fn shutdown_after_persistent_rollbacks() {
        let mut c = cfg(Scheme::Conventional);
        c.max_consecutive_rollbacks = 3;
        // q = 0.9: almost every round double-faults, votes keep failing
        let r = run(&c, FaultModel::PerRound { q: 0.9 }, 10_000, 23);
        assert!(r.shutdown, "{r}");
        assert!(r.committed_rounds < 10_000);
    }

    #[test]
    fn timeline_records_figure1_shape() {
        let mut c = cfg(Scheme::SmtProbabilistic);
        c.record_timeline = true;
        let r = run(
            &c,
            FaultModel::OneShot {
                round: 4,
                victim: Victim::V2,
            },
            10,
            1,
        );
        let tl = r.timeline.expect("timeline requested");
        assert_eq!(tl.lanes(), 2, "SMT timeline has two hardware threads");
        let art = tl.render_ascii(80);
        assert!(art.contains("T0"));
        assert!(art.contains("r"), "retry visible: \n{art}");
        // conventional: one lane
        let mut cc = cfg(Scheme::Conventional);
        cc.record_timeline = true;
        let rc = run(&cc, FaultModel::None, 5, 1);
        assert_eq!(rc.timeline.unwrap().lanes(), 1);
    }

    #[test]
    fn processor_stops_roll_back_from_stable_storage() {
        let r = run(
            &cfg(Scheme::SmtProbabilistic),
            FaultModel::Mission {
                q: 0.02,
                crash_fraction: 0.2,
                stop_fraction: 0.3,
            },
            3_000,
            31,
        );
        assert_eq!(r.committed_rounds, 3_000);
        assert!(r.processor_stops > 0, "{r}");
        assert!(r.rollbacks >= r.processor_stops, "{r}");
        // the invariant detections = recoveries + rollbacks still holds
        assert_eq!(r.detections, r.recoveries_ok + r.rollbacks);
    }

    #[test]
    fn stop_storm_forces_failsafe_shutdown() {
        let mut c = cfg(Scheme::Conventional);
        c.max_consecutive_rollbacks = 4;
        let r = run(
            &c,
            FaultModel::Mission {
                q: 0.95,
                crash_fraction: 0.0,
                stop_fraction: 1.0,
            },
            1_000,
            37,
        );
        assert!(r.shutdown, "{r}");
    }

    #[test]
    fn recorded_run_mirrors_report_and_traces_events() {
        let c = cfg(Scheme::SmtProbabilistic);
        let fm = FaultModel::PerRound { q: 0.05 };
        let (r, rec) = run_recorded(&c, fm, 200, 5);
        let reg = rec.registry();
        assert_eq!(reg.counter("vds.committed_rounds"), r.committed_rounds);
        assert_eq!(reg.counter("vds.detections"), r.detections);
        assert_eq!(reg.counter("vds.checkpoints"), r.checkpoints);
        assert_eq!(reg.gauge_value("vds.time.total"), Some(r.total_time));
        // hot-path events only exist with the `obs` macros compiled in
        if cfg!(feature = "obs") {
            let events: Vec<&str> = rec.trace().records().map(|e| e.event).collect();
            assert!(events.contains(&"round"));
            assert!(events.contains(&"detect"));
            assert!(events.contains(&"checkpoint"));
        } else {
            assert!(rec.trace().is_empty());
        }
        // plain run and recorded run agree on the simulation itself
        let plain = run(&c, fm, 200, 5);
        assert_eq!(plain.total_time, r.total_time);
        assert_eq!(plain.committed_rounds, r.committed_rounds);
        // and two recorded runs export byte-identical metrics
        let (_, rec2) = run_recorded(&c, fm, 200, 5);
        assert_eq!(rec.registry().to_csv(), rec2.registry().to_csv());
        assert_eq!(rec.trace().to_jsonl(), rec2.trace().to_jsonl());
    }

    #[test]
    fn runs_are_deterministic() {
        let c = cfg(Scheme::SmtProbabilistic);
        let a = run(&c, FaultModel::PerRound { q: 0.05 }, 500, 99);
        let b = run(&c, FaultModel::PerRound { q: 0.05 }, 500, 99);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.rollforward_hits, b.rollforward_hits);
    }

    #[test]
    fn journaled_run_records_every_executed_round() {
        use vds_obs::journal::JournalHeader;
        let c = cfg(Scheme::SmtProbabilistic);
        let fm = FaultModel::PerRound { q: 0.05 };
        let journaled = || {
            let mut rec = Recorder::new();
            rec.enable_journal(JournalHeader::new(
                "abstract",
                Scheme::SmtProbabilistic.name(),
                5,
                c.params.s,
                200,
            ));
            run_with_recorder(&c, fm, 200, 5, rec)
        };
        let (r, rec) = journaled();
        let j = rec.journal();
        assert!(r.detections > 0, "fixture must exercise recovery: {r}");
        assert!(!j.is_empty());
        // every executed round got exactly one entry; committed counts only
        // drop across rollbacks, and the last one matches the report
        let mut last_committed = 0;
        for e in j.entries() {
            if e.committed < last_committed {
                assert!(
                    matches!(e.action, JournalAction::Rollback | JournalAction::Shutdown),
                    "{e:?}"
                );
            }
            last_committed = e.committed;
            assert_eq!(e.lane, 0);
        }
        assert_eq!(last_committed, r.committed_rounds);
        assert_eq!(j.divergences(), r.detections + r.processor_stops);
        // a fault-free matching round has agreeing synthetic digests; a
        // mismatch entry has diverging ones
        let clean = j
            .entries()
            .iter()
            .find(|e| e.verdict == JournalVerdict::Match)
            .unwrap();
        assert_eq!(clean.d1, clean.d2);
        let bad = j
            .entries()
            .iter()
            .find(|e| e.verdict == JournalVerdict::Mismatch)
            .unwrap();
        assert_ne!(bad.d1, bad.d2);
        assert!(bad.fault.is_some());
        assert!(matches!(
            bad.action,
            JournalAction::Recover | JournalAction::Rollback
        ));
        // fault-bearing entries carry consecutive lane-local fault ids
        let ids: Vec<u64> = j
            .entries()
            .iter()
            .filter(|e| e.fault.is_some())
            .map(|e| e.fault_id.expect("fault entry has an id"))
            .collect();
        assert!(!ids.is_empty());
        assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
        // forensics over the journal sees every fault event as detected
        // in its own round (zero latency), with nothing escaped
        let tracker = vds_obs::ForensicsTracker::for_journal(j).unwrap();
        let rep = tracker.report();
        assert_eq!(rep.injected, ids.len() as u64);
        assert_eq!(rep.detected, ids.len() as u64);
        assert!(rep.escapes.is_empty());
        // byte-identical across runs, and round-trips through JSONL
        let (_, rec2) = journaled();
        assert_eq!(j.to_jsonl(), rec2.journal().to_jsonl());
        let parsed = vds_obs::Journal::from_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(&parsed, j);
        assert!(parsed.first_divergence(rec2.journal()).is_none());
        // disabled journal stays empty
        let (_, plain) = run_recorded(&c, fm, 200, 5);
        assert!(plain.journal().is_empty());
    }
}
