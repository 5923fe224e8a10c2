//! The four closed-loop batch workloads. Each job is one user path run to
//! completion; the next job starts only after it returns.
//!
//! Every job's inputs derive from `(seed, job index)`. A run cycles over
//! the seed's first [`Prepared::det_jobs`] jobs, so what it attempts, what
//! fails and the simulated statistics repeat exactly for a fixed seed
//! whatever the host's speed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use vds_core::Scheme;
use vds_fault::campaign::{run_campaign_journaled, TrialResult};
use vds_obs::conformance::{DEFAULT_TOLERANCE, DEFAULT_WINDOW};
use vds_obs::{ConformanceTracker, Digest128, ForensicsTracker, Journal, Recorder};
use vds_sweep::grid::{Backend, GridSpec};
use vds_sweep::{engine, export};

use crate::trace::Ctx;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = [
    "grid-abstract",
    "campaign-micro",
    "campaign-vm",
    "journal-audit",
];

/// Programs the VM campaigns run.
pub const VM_PROGRAMS: [&str; 4] = ["checksum", "sort", "matmul", "strhash"];

/// Label a trial gets when the engine panicked inside it.
pub const PANIC_LABEL: &str = "panic";

/// Simulated cycles a micro trial reaches only when a version ran into
/// the engine's per-round watchdog (`ROUND_BUDGET` in
/// `crates/core/src/micro_vds.rs`); a normal trial takes ≈ 10⁴.
pub const WATCHDOG_CYCLES: u64 = 5_000_000;

/// Input sizes. [`Size::full`] is what the benchmark measures;
/// [`Size::tiny`] keeps tests and the traced run's coverage jobs short.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Host seconds of untimed jobs before anything is timed. On the
    /// 2-vCPU VM it was tuned on, the first ~2.5 s of load after an idle
    /// spell ran ~30 % faster than the sustained speed.
    pub warmup_secs: f64,
    /// Committed rounds per grid cell.
    pub grid_rounds: u64,
    /// Trials per micro campaign.
    pub micro_trials: u64,
    /// Trials per VM campaign (one campaign per program).
    pub vm_trials: u64,
    /// Trials per VM campaign whose journal journal-audit reads.
    pub audit_vm_trials: u64,
    /// Target rounds per micro trial.
    pub micro_rounds: u64,
    /// Target rounds per VM trial.
    pub vm_rounds: u64,
    /// Jobs a run cycles over, per workload: their first pass gives the
    /// operations attempted and failed and the simulated statistics, and
    /// gets the expensive output checks. Sized so the statistics and the
    /// rates vary little from seed to seed.
    pub grid_det_jobs: u64,
    pub micro_det_jobs: u64,
    pub vm_det_jobs: u64,
}

impl Size {
    pub fn full() -> Size {
        Size {
            warmup_secs: 3.0,
            grid_rounds: 50_000,
            micro_trials: 16,
            vm_trials: 24,
            audit_vm_trials: 256,
            micro_rounds: 40,
            vm_rounds: 24,
            grid_det_jobs: 64,
            micro_det_jobs: 128,
            vm_det_jobs: 64,
        }
    }

    pub fn tiny() -> Size {
        Size {
            warmup_secs: 0.0,
            grid_rounds: 400,
            micro_trials: 8,
            vm_trials: 3,
            audit_vm_trials: 3,
            micro_rounds: 12,
            vm_rounds: 8,
            grid_det_jobs: 1,
            micro_det_jobs: 1,
            vm_det_jobs: 1,
        }
    }
}

/// SplitMix64 step: the seed of job `j` of a run seeded `seed`.
pub fn mix(seed: u64, j: u64) -> u64 {
    let mut z = seed
        .wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one job did. Everything except host time is simulated and
/// repeats exactly for a fixed seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOut {
    /// Batch operations attempted: sweep cells, campaign trials or
    /// audited journals.
    pub ops: u64,
    /// Operations that panicked or failed an output check.
    pub failed: u64,
    /// Output-check failures (a subset of `failed`).
    pub check_failures: u64,
    /// Committed VDS rounds (audited round entries on journal-audit).
    pub rounds: u64,
    /// Σ `RunReport.total_time` in the backend's unit: abstract time,
    /// cycles (micro) or interpreted instructions (VM).
    pub sim_time: f64,
    /// Journal entries encoded (campaigns), audited (journal-audit) or
    /// export records written (grid: one CSV and one JSONL row per cell).
    pub entries: u64,
    /// Fault coverage numerator and denominator.
    pub cov_num: f64,
    pub cov_den: f64,
    /// Σ |measured G − closed-form G| and its sample count.
    pub resid_num: f64,
    pub resid_den: f64,
    /// Baseline memo hits of the sweep (grid only).
    pub memo_hits: u64,
    /// Bytes of encoded journal (campaigns only).
    pub journal_bytes: u64,
    /// Micro trials that ran into the engine's watchdog.
    pub watchdog_trials: u64,
    /// Fault outcome labels, in a fixed order.
    pub labels: Vec<(String, u64)>,
}

impl JobOut {
    /// Add another job's output to this one.
    pub fn absorb(&mut self, o: JobOut) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.check_failures += o.check_failures;
        self.rounds += o.rounds;
        self.sim_time += o.sim_time;
        self.entries += o.entries;
        self.cov_num += o.cov_num;
        self.cov_den += o.cov_den;
        self.resid_num += o.resid_num;
        self.resid_den += o.resid_den;
        self.memo_hits += o.memo_hits;
        self.journal_bytes += o.journal_bytes;
        self.watchdog_trials += o.watchdog_trials;
        self.labels.extend(o.labels);
    }

    fn fail_check(&mut self, what: &str) {
        eprintln!("vdsbench: output check failed: {what}");
        self.check_failures += 1;
        self.failed += 1;
    }

    /// 128-bit digest of the simulated statistics, so a host-only change
    /// can show it left them identical.
    pub fn sim_digest(&self) -> Digest128 {
        let mut d = vds_obs::Digester128::new();
        let text = format!(
            "{}|{}|{}|{}|{:e}|{}|{:e}|{:e}|{:e}|{:e}|{}|{}|{}|{:?}",
            self.ops,
            self.failed,
            self.check_failures,
            self.rounds,
            self.sim_time,
            self.entries,
            self.cov_num,
            self.cov_den,
            self.resid_num,
            self.resid_den,
            self.memo_hits,
            self.journal_bytes,
            self.watchdog_trials,
            self.labels
        );
        d.push_bytes(text.as_bytes());
        d.finish()
    }
}

/// Inputs a workload prepares once per run (the timed set-up).
pub enum Prepared {
    Grid(Grid),
    Campaign(Campaigns),
    Audit(Audit),
}

impl Prepared {
    /// Set the workload up: build its inputs and the reference outputs
    /// the timed jobs are checked against.
    pub fn setup(
        workload: &str,
        seed: u64,
        size: Size,
        workers: usize,
    ) -> Result<Prepared, String> {
        Ok(match workload {
            "grid-abstract" => Prepared::Grid(Grid::setup(seed, size, workers)),
            "campaign-micro" => Prepared::Campaign(Campaigns::setup(false, seed, size, workers)),
            "campaign-vm" => Prepared::Campaign(Campaigns::setup(true, seed, size, workers)),
            "journal-audit" => Prepared::Audit(Audit::setup(seed, size, workers)),
            other => {
                return Err(format!(
                    "unknown workload `{other}` (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
        })
    }

    /// How many leading jobs give the simulated statistics. The audit
    /// reads the same journals in every job, so one is enough.
    pub fn det_jobs(&self) -> u64 {
        match self {
            Prepared::Grid(g) => g.size.grid_det_jobs,
            Prepared::Campaign(c) if c.vm => c.size.vm_det_jobs,
            Prepared::Campaign(c) => c.size.micro_det_jobs,
            Prepared::Audit(_) => 1,
        }
    }

    /// Checks made once after the timed loop; returns how many failed.
    pub fn post_check(&self) -> u64 {
        match self {
            Prepared::Campaign(c) => {
                let n = c.worker_mismatches();
                if n > 0 {
                    eprintln!("vdsbench: output check failed: {n} campaign journals differ between 1 and 2 workers");
                }
                n
            }
            _ => 0,
        }
    }

    /// Run job `j` (the timed part) and check its outputs; `deep` adds
    /// the expensive checks. Returns the job's output and the host time
    /// of its timed part.
    pub fn job(&self, ctx: Ctx<'_>, j: u64, deep: bool) -> (JobOut, f64) {
        match self {
            Prepared::Grid(g) => g.job(ctx, j),
            Prepared::Campaign(c) => c.job(ctx, j, deep),
            Prepared::Audit(a) => a.job(ctx),
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// grid-abstract
// ---------------------------------------------------------------------------

/// `run_sweep` over an abstract-backend grid, then both exports.
pub struct Grid {
    seed: u64,
    size: Size,
    workers: usize,
    /// Job 0's exports at one worker.
    reference: (String, String),
}

impl Grid {
    /// The grid of job `j`: α × s × four schemes × q (0 and positive).
    pub fn spec(seed: u64, size: Size, j: u64) -> GridSpec {
        GridSpec {
            alphas: vec![0.55, 0.6, 0.65, 0.7, 0.8],
            s_values: vec![5, 10, 20, 40],
            schemes: vec![
                Scheme::Conventional,
                Scheme::SmtDeterministic,
                Scheme::SmtProbabilistic,
                Scheme::SmtPredictive,
            ],
            qs: vec![0.0, 0.01],
            backend: Backend::Abstract,
            rounds: size.grid_rounds,
            base_seed: mix(seed, j),
            program: "checksum".to_string(),
        }
    }

    fn setup(seed: u64, size: Size, workers: usize) -> Grid {
        let spec = Grid::spec(seed, size, 0);
        let out = engine::run_sweep(&spec, 1, None, &Default::default(), None);
        let reference = (export::to_csv(&out.results), export::to_jsonl(&out.results));
        Grid {
            seed,
            size,
            workers,
            reference,
        }
    }

    /// Run one sweep at `workers` and export it, recording spans.
    pub fn sweep(
        ctx: Ctx<'_>,
        spec: &GridSpec,
        workers: usize,
    ) -> (engine::SweepOutcome, (String, String)) {
        let cells = spec.cell_count();
        let out = ctx.span_items("sweep.run", |_| {
            (
                engine::run_sweep(spec, workers, None, &Default::default(), None),
                cells,
            )
        });
        let exports = ctx.span_items("sweep.export", |_| {
            (
                (export::to_csv(&out.results), export::to_jsonl(&out.results)),
                2 * cells,
            )
        });
        (out, exports)
    }

    fn job(&self, ctx: Ctx<'_>, j: u64) -> (JobOut, f64) {
        let spec = Grid::spec(self.seed, self.size, j);
        let ((out, exports), secs) = timed(|| Grid::sweep(ctx, &spec, self.workers));
        let mut o = JobOut {
            ops: out.results.len() as u64,
            entries: 2 * out.results.len() as u64,
            memo_hits: out.baseline_memo_hits,
            ..JobOut::default()
        };
        for r in &out.results {
            o.rounds += r.committed_rounds;
            o.sim_time += r.total_time;
            o.resid_num += r.residual.abs();
            o.resid_den += 1.0;
            if r.cell.q > 0.0 {
                o.cov_num += r.coverage;
                o.cov_den += 1.0;
            }
            if r.committed_rounds != r.cell.rounds && !r.shutdown {
                o.fail_check(&format!(
                    "cell {} committed {} of {} rounds",
                    r.cell.index, r.committed_rounds, r.cell.rounds
                ));
            }
        }
        o.labels.push((
            "shutdown".into(),
            out.results.iter().filter(|r| r.shutdown).count() as u64,
        ));
        if j == 0 && exports != self.reference {
            o.fail_check("grid exports differ between 1 and 2 workers");
        }
        (o, secs)
    }
}

// ---------------------------------------------------------------------------
// campaign-micro / campaign-vm
// ---------------------------------------------------------------------------

/// One journaled fault campaign and its encoded journal.
pub struct CampaignRun {
    pub out: JobOut,
    /// The campaign's merged recorder; it holds the journal.
    pub rec: Recorder,
    pub jsonl: String,
}

/// Run one journaled campaign of `trials` trials at `workers`, each trial
/// under `catch_unwind` so an engine panic fails that trial only, then
/// encode the merged journal.
pub fn campaign(
    ctx: Ctx<'_>,
    program: Option<&str>,
    trials: u64,
    target_rounds: u64,
    base_seed: u64,
    workers: usize,
) -> CampaignRun {
    use vds_bench::live;
    // the scheme `vds serve` runs by default, on either platform
    let scheme = Scheme::SmtProbabilistic;
    let header = match program {
        Some(p) => {
            live::vm_campaign_journal_header_for(p, scheme, trials, base_seed, target_rounds)
        }
        None => live::campaign_journal_header_for(scheme, trials, base_seed, target_rounds),
    };
    // per-trial simulated time, summed in trial order afterwards so the
    // float total does not depend on scheduling
    let sim_times: Vec<Mutex<f64>> = (0..trials).map(|_| Mutex::new(0.0)).collect();
    let (report, rec) = ctx.span_items("campaign.run", |c| {
        let r = run_campaign_journaled("bench", trials, workers, None, &header, |i, rec| {
            // the span's items are the trial's simulated time
            c.span_items("campaign.trial", |_| {
                let mut run = Recorder::new();
                run.enable_journal(header.clone());
                let res = catch_unwind(AssertUnwindSafe(|| match program {
                    Some(p) => live::vm_campaign_trial_for(
                        p,
                        scheme,
                        i,
                        base_seed,
                        target_rounds,
                        &mut run,
                    ),
                    None => live::campaign_trial_for(scheme, i, base_seed, target_rounds, &mut run),
                }));
                match res {
                    Ok(t) => {
                        let total = run.registry().gauge_value("vds.time.total").unwrap_or(0.0);
                        *sim_times[i as usize].lock().expect("trial slot poisoned") = total;
                        rec.merge_registry(run.registry());
                        rec.adopt_journal(run.journal(), i);
                        (t, total as u64)
                    }
                    Err(_) => (TrialResult::labelled(PANIC_LABEL), 0),
                }
            })
        });
        (r, trials)
    });
    let journal = rec.journal();
    let jsonl = ctx.span_items("journal.encode", |_| {
        (journal.to_jsonl(), journal.len() as u64)
    });
    let reg = rec.registry();
    let (injected, detected, masked, escaped) = (
        reg.counter("faults.injected"),
        reg.counter("faults.detected"),
        reg.counter("faults.masked"),
        reg.counter("faults.escaped"),
    );
    let windows = reg.gauge_value("conformance.windows").unwrap_or(0.0);
    let sim_times: Vec<f64> = sim_times
        .into_iter()
        .map(|m| m.into_inner().expect("trial slot poisoned"))
        .collect();
    let mut out = JobOut {
        ops: trials,
        failed: report.count(PANIC_LABEL),
        rounds: reg.counter("vds.committed_rounds"),
        sim_time: sim_times.iter().sum(),
        watchdog_trials: if program.is_none() {
            sim_times
                .iter()
                .filter(|&&t| t >= WATCHDOG_CYCLES as f64)
                .count() as u64
        } else {
            0
        },
        entries: journal.len() as u64,
        journal_bytes: jsonl.len() as u64,
        cov_num: (detected + masked) as f64,
        cov_den: injected as f64,
        resid_num: reg
            .gauge_value("conformance.mean_abs_residual")
            .unwrap_or(0.0)
            * windows,
        resid_den: windows,
        labels: report.counts.iter().map(|(l, c)| (l.clone(), *c)).collect(),
        ..JobOut::default()
    };
    if detected + masked + escaped != injected {
        out.fail_check(&format!(
            "forensics conservation: {detected} + {masked} + {escaped} != {injected}"
        ));
    }
    CampaignRun { out, rec, jsonl }
}

/// Journaled fault campaigns: one micro campaign per job, or one VM
/// campaign per seed program per job.
pub struct Campaigns {
    vm: bool,
    seed: u64,
    size: Size,
    workers: usize,
}

impl Campaigns {
    /// What `vds serve` does before its campaign: measure the α ledger
    /// it publishes on `/alpha`.
    fn setup(vm: bool, seed: u64, size: Size, workers: usize) -> Campaigns {
        let ledger = vds_smtsim::alpha::measured_alpha(&vds_smtsim::CoreConfig::default(), 2);
        std::hint::black_box(ledger.map(|(_, report)| report.to_json()).ok());
        Campaigns::new(vm, seed, size, workers)
    }

    /// The campaigns without the set-up's α ledger.
    pub fn new(vm: bool, seed: u64, size: Size, workers: usize) -> Campaigns {
        Campaigns {
            vm,
            seed,
            size,
            workers,
        }
    }

    /// Job 0's journals at one and at two workers must be byte-identical;
    /// returns the number of journals that differ.
    pub fn worker_mismatches(&self) -> u64 {
        let a = Campaigns {
            workers: 1,
            ..*self
        }
        .runs(Ctx::off(), 0);
        let b = Campaigns {
            workers: 2,
            ..*self
        }
        .runs(Ctx::off(), 0);
        a.iter().zip(&b).filter(|(x, y)| x.jsonl != y.jsonl).count() as u64
    }

    /// Job `j`'s campaigns: one micro campaign, or one per VM program.
    pub fn runs(&self, ctx: Ctx<'_>, j: u64) -> Vec<CampaignRun> {
        let base = mix(self.seed, j);
        if self.vm {
            VM_PROGRAMS
                .iter()
                .map(|p| {
                    campaign(
                        ctx,
                        Some(p),
                        self.size.vm_trials,
                        self.size.vm_rounds,
                        base,
                        self.workers,
                    )
                })
                .collect()
        } else {
            vec![campaign(
                ctx,
                None,
                self.size.micro_trials,
                self.size.micro_rounds,
                base,
                self.workers,
            )]
        }
    }

    fn job(&self, ctx: Ctx<'_>, j: u64, deep: bool) -> (JobOut, f64) {
        let (runs, secs) = timed(|| self.runs(ctx, j));
        let mut o = JobOut::default();
        for r in runs {
            let mut out = r.out;
            if deep {
                match Journal::from_jsonl(&r.jsonl) {
                    Ok(back) => {
                        if let Some(d) = r.rec.journal().first_divergence(&back) {
                            out.fail_check(&format!(
                                "journal round trip diverges at lane {} round {} ({})",
                                d.lane, d.round, d.field
                            ));
                        }
                    }
                    Err(e) => out.fail_check(&format!("journal does not parse back: {e}")),
                }
            }
            o.absorb(out);
        }
        (o, secs)
    }
}

// ---------------------------------------------------------------------------
// journal-audit
// ---------------------------------------------------------------------------

/// One journal to audit and the divergence planted in its copy.
struct Audited {
    text: String,
    planted: String,
    expect: (u64, u64),
    sim_time: f64,
}

/// The read side: parse, diff against a copy with one planted divergent
/// entry, and the forensics and conformance reports.
pub struct Audit {
    journals: Vec<Audited>,
}

impl Audit {
    fn setup(seed: u64, size: Size, workers: usize) -> Audit {
        let base = mix(seed, u64::MAX);
        let mut runs = vec![campaign(
            Ctx::off(),
            None,
            size.micro_trials,
            size.micro_rounds,
            base,
            workers,
        )];
        for p in VM_PROGRAMS {
            runs.push(campaign(
                Ctx::off(),
                Some(p),
                size.audit_vm_trials,
                size.vm_rounds,
                base,
                workers,
            ));
        }
        let journals = runs
            .into_iter()
            .enumerate()
            .map(|(k, r)| {
                let mut copy = r.rec.journal().clone();
                let mut entries = copy.entries().to_vec();
                // in the journal's last sixteenth, so the diff always scans
                // most of it whatever the seed
                let tail = (entries.len() as u64 / 16).max(1);
                let at = entries.len() - 1 - (mix(seed, k as u64) % tail) as usize;
                entries[at].d2.mix ^= 1;
                let expect = (entries[at].lane, entries[at].round);
                copy = Journal::enabled(
                    copy.header()
                        .expect("campaign journals carry a header")
                        .clone(),
                );
                for e in entries {
                    copy.push(e);
                }
                // Simulated time the journal covers, each lane's last stamp.
                // VM journals only: a micro trial that hangs until the
                // engine's watchdog covers some 500 normal trials' cycles,
                // which would make the figure swing with the seed.
                let mut lanes = std::collections::BTreeMap::new();
                if k > 0 {
                    for e in r.rec.journal().entries() {
                        lanes.insert(e.lane, e.sim_time);
                    }
                }
                Audited {
                    text: r.jsonl,
                    planted: copy.to_jsonl(),
                    expect,
                    sim_time: lanes.values().sum(),
                }
            })
            .collect();
        Audit { journals }
    }

    fn job(&self, ctx: Ctx<'_>) -> (JobOut, f64) {
        let mut o = JobOut::default();
        let mut secs = 0.0;
        for a in &self.journals {
            let ((parsed, div, forensics, conformance), s) = timed(|| {
                let parse = |text: &str| {
                    ctx.span_items("journal.parse", |_| {
                        let j = Journal::from_jsonl(text);
                        let n = j.as_ref().map_or(0, |j| j.len() as u64);
                        (j, n)
                    })
                };
                let (x, y) = (parse(&a.text), parse(&a.planted));
                let (Ok(x), Ok(y)) = (x, y) else {
                    return (None, None, None, None);
                };
                let n = x.len() as u64;
                let div = ctx.span_items("journal.diff", |_| (x.first_divergence(&y), n));
                let f = ctx.span_items("forensics", |_| {
                    (ForensicsTracker::for_journal(&x).map(|t| t.report()), n)
                });
                let c = ctx.span_items("conformance", |_| {
                    (
                        ConformanceTracker::for_journal(&x, DEFAULT_WINDOW, DEFAULT_TOLERANCE)
                            .map(|t| t.report()),
                        n,
                    )
                });
                (Some(x), div, Some(f), Some(c))
            });
            secs += s;
            o.ops += 1;
            let Some(x) = parsed else {
                o.fail_check("audited journal does not parse");
                continue;
            };
            let n = x.len() as u64;
            o.entries += n;
            o.rounds += n;
            o.sim_time += a.sim_time;
            match div {
                Some(d) if (d.lane, d.round) == a.expect => {}
                other => o.fail_check(&format!(
                    "planted divergence at {:?} reported as {:?}",
                    a.expect,
                    other.map(|d| (d.lane, d.round))
                )),
            }
            match forensics {
                Some(Ok(r)) => {
                    o.cov_num += (r.detected + r.masked) as f64;
                    o.cov_den += r.injected as f64;
                    o.labels.push(("escaped".into(), r.escaped));
                    if r.detected + r.masked + r.escaped != r.injected {
                        o.fail_check("forensics conservation on the audited journal");
                    }
                }
                _ => o.fail_check("forensics report refused the journal"),
            }
            match conformance {
                Some(Ok(r)) => {
                    o.resid_num += r.mean_abs_residual * r.windows as f64;
                    o.resid_den += r.windows as f64;
                }
                _ => o.fail_check("conformance report refused the journal"),
            }
        }
        (o, secs)
    }
}
