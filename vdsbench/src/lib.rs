//! External benchmark of the VDS simulator.
//!
//! One run sets a workload up repeatedly (see [`SETUP_SECS`]) and cycles over
//! the seed's fixed jobs in a closed loop for the requested seconds. The
//! untraced run reports the end-to-end metrics; the traced run repeats
//! every job under spans and reports per-layer metrics, the wall-time
//! attribution and the layer probes. See `NOTES.md` beside this crate for the metric map.

pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::time::Instant;

use stats::{median, quantile};
use trace::{self_times, Ctx, Span, Tracer, UNATTRIBUTED};
use workloads::{Campaigns, JobOut, Prepared, Size, WATCHDOG_CYCLES};

/// A run sets its workload up before its timed loop and again after it,
/// each time at least [`SETUP_REPS`] times and until [`SETUP_SECS`] have
/// passed; `setup_s` is the median of all of them. Two spells, a run
/// apart, follow the host's speed as the timed loop sees it.
pub const SETUP_REPS: usize = 3;
pub const SETUP_SECS: f64 = 1.0;

/// Jobs the traced run repeats at two workers for `campaign.busy_frac`.
const BUSY_JOBS: u64 = 4;

/// Span names whose wall-time share the traced run reports.
const LAYERS: [&str; 9] = [
    "sweep.run",
    "sweep.export",
    "campaign.run",
    "campaign.trial",
    "journal.encode",
    "journal.parse",
    "journal.diff",
    "forensics",
    "conformance",
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted and failed: each of the seed's jobs counted
    /// once however often the run repeated it, plus the traced run's side
    /// jobs and probes and every failed output check.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The simulated outputs of the deterministic jobs.
    pub sim: JobOut,
    /// Spans as JSON lines (traced run only).
    pub spans: Option<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Worker threads a workload runs with. The sweep uses two, or one on a
/// one-core host. Campaigns and the audit's set-up run one: at two
/// workers on a two-core host, co-scheduled noise spread campaign
/// throughput by 9–13 % from run to run, against under 2 % at one.
/// The traced run watches parallel scaling instead: `campaign.busy_frac`
/// comes from campaigns run at two workers, and the
/// `sweep.cells_per_s.w1`/`.w2` probes time the sweep at one and two.
pub fn workers_for(workload: &str) -> usize {
    if workload == "grid-abstract" {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    } else {
        1
    }
}

struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workers = workers_for(&opts.workload);
    let warm = Prepared::setup(&opts.workload, opts.seed, opts.size, workers)?;
    let warm_start = Instant::now();
    for j in 0.. {
        if warm_start.elapsed().as_secs_f64() >= opts.size.warmup_secs {
            break;
        }
        warm.job(Ctx::off(), j % warm.det_jobs(), false);
    }
    drop(warm);
    let mut setup_s = Vec::new();
    let prepared = setups(opts, workers, &mut setup_s)?;

    // the timed jobs' spans, and those of the tiny jobs that cover layers
    // the workload does not call; one run id for both
    let run_id = workloads::mix(opts.seed, 0x7ACE);
    let (tracer, side) = (Tracer::new(run_id), Tracer::new(run_id));
    // `det`: the first pass over the seed's jobs, each operation once;
    // `total`: that plus the side jobs and every check failure
    let mut det = JobOut::default();
    let mut total = JobOut::default();
    // work (ops, rounds, simulated time, entries) and host time of the
    // jobs the end-to-end rates cover, over every pass: all but the micro
    // jobs that hold a watchdog trial, whose count swings with the seed
    // (see NOTES.md)
    let (mut work, mut work_secs) = ([0.0f64; 4], 0.0);
    let mut slowdown = Vec::new();
    let key = |o: &JobOut| {
        (
            o.ops,
            o.failed,
            o.rounds,
            o.sim_time,
            o.entries,
            o.labels.clone(),
        )
    };
    // per job of the first pass: its outputs, and whether the rates
    // cover it
    let mut first_pass = Vec::new();
    let mut rated: Vec<bool> = Vec::new();
    let start = Instant::now();
    let mut j = 0;
    // The loop cycles over the seed's fixed jobs, so what a run attempts
    // and which operations fail depend on the seed alone, not on how many
    // jobs the host's speed fits into `--seconds`. Passes after the first
    // repeat it for timing and must reproduce its outputs; untraced, they
    // skip the jobs the rates leave out.
    let det_jobs = prepared.det_jobs();
    while j < det_jobs || start.elapsed().as_secs_f64() < opts.seconds {
        let (deep, k) = (j < det_jobs, j % det_jobs);
        j += 1;
        if !deep && !opts.trace && !rated[k as usize] {
            continue;
        }
        let (out, secs) = prepared.job(Ctx::off(), k, deep);
        if out.watchdog_trials == 0 {
            let units = [
                out.ops as f64,
                out.rounds as f64,
                out.sim_time,
                out.entries as f64,
            ];
            for (w, u) in work.iter_mut().zip(units) {
                *w += u;
            }
            work_secs += secs;
        }
        let mut differs = Vec::new();
        if opts.trace {
            let (traced, traced_secs) = Ctx::on(&tracer).span("job", |c| prepared.job(c, k, false));
            slowdown.push(traced_secs / secs);
            if key(&traced) != key(&out) {
                differs.push("when traced");
            }
        }
        if deep {
            rated.push(out.watchdog_trials == 0);
            first_pass.push(key(&out));
            det.absorb(out.clone());
            total.absorb(out);
        } else if key(&out) != first_pass[k as usize] {
            differs.push("from its first pass");
        }
        for how in differs {
            total.check_failures += 1;
            total.failed += 1;
            eprintln!("vdsbench: output check failed: job {k} differs {how}");
        }
    }
    let post = prepared.post_check();
    drop(prepared);
    setups(opts, workers, &mut setup_s)?;
    total.check_failures += post;
    total.failed += post;

    let mut m = Metrics(Vec::new());
    if opts.trace {
        traced_metrics(
            &mut m,
            opts,
            &tracer,
            &side,
            &det,
            &mut slowdown,
            &mut total,
        );
    } else {
        let [ops, rounds, sim_time, entries] = work.map(|w| ratio(w, work_secs));
        m.push("setup_s", median(&mut setup_s), "s");
        m.push("cells_per_s", ops, "cells/s");
        m.push("trials_per_s", ops, "trials/s");
        m.push("sim_rounds_per_s", rounds, "rounds/s");
        m.push("sim_cycles_per_s", sim_time, "cycles/s");
        m.push("entries_per_s", entries, "entries/s");
        m.push("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB");
        m.push(
            "ok_ratio",
            1.0 - ratio(det.failed as f64, det.ops as f64),
            "frac",
        );
        m.push("fault_coverage", ratio(det.cov_num, det.cov_den), "frac");
        m.push("g_residual_abs", ratio(det.resid_num, det.resid_den), "G");
    }
    Ok(Outcome {
        correct: total.check_failures == 0,
        attempted: total.ops,
        failed: total.failed,
        metrics: m.0,
        sim: det,
        spans: opts.trace.then(|| tracer.to_jsonl() + &side.to_jsonl()),
    })
}

/// One spell of set-ups (see [`SETUP_SECS`]), each timed into `times`
/// after the previous one is freed (two alive at once would raise the
/// memory high-water mark); returns the last.
fn setups(opts: &Options, workers: usize, times: &mut Vec<f64>) -> Result<Prepared, String> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let p = Prepared::setup(&opts.workload, opts.seed, opts.size, workers)?;
        times.push(t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_REPS && start.elapsed().as_secs_f64() >= SETUP_SECS {
            return Ok(p);
        }
    }
}

/// Per-layer metrics of a traced run, including the layer probes.
fn traced_metrics(
    m: &mut Metrics,
    opts: &Options,
    tracer: &Tracer,
    side: &Tracer,
    det: &JobOut,
    slowdown: &mut [f64],
    total: &mut JobOut,
) {
    let main = tracer.spans();
    let wall: f64 = main
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::secs)
        .sum();
    let shares = self_times(&main);
    let attributed: f64 = shares.values().sum();
    if (attributed - wall).abs() > 1e-6 * wall.max(1.0) {
        total.check_failures += 1;
        total.failed += 1;
        eprintln!("vdsbench: output check failed: attribution {attributed} s != wall {wall} s");
    }
    m.push("trace.wall_s", wall, "s");
    m.push("trace.overhead_frac", median(slowdown) - 1.0, "frac");
    for name in LAYERS.iter().chain([&UNATTRIBUTED]) {
        let share = ratio(shares.get(name).copied().unwrap_or(0.0), wall);
        m.push(&format!("share.{name}"), share, "frac");
    }

    // layers this workload does not call get their numbers from a tiny
    // traced job of a workload that does
    let covered = |name: &str| main.iter().any(|s| s.name == name);
    let mut grid_out = (opts.workload == "grid-abstract").then(|| det.clone());
    let mut campaign_out = opts.workload.starts_with("campaign-").then(|| det.clone());
    for (name, workload) in [
        ("sweep.run", "grid-abstract"),
        ("campaign.trial", "campaign-micro"),
        ("journal.parse", "journal-audit"),
    ] {
        if covered(name) {
            continue;
        }
        let p = Prepared::setup(workload, opts.seed, Size::tiny(), workers_for(workload))
            .expect("built-in workload");
        let (out, _) = Ctx::on(side).span("job", |c| p.job(c, 1, true));
        total.absorb(out.clone());
        match workload {
            "grid-abstract" => grid_out = Some(out),
            "campaign-micro" => campaign_out = Some(out),
            _ => {}
        }
    }
    let mut spans = main;
    spans.extend(side.spans());
    let named = |name: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == name).collect() };
    let per_item = |name: &str| {
        let (items, secs) = named(name)
            .iter()
            .fold((0u64, 0.0), |(n, t), s| (n + s.items, t + s.secs()));
        ratio(items as f64, secs)
    };
    let durations = |name: &str| named(name).iter().map(|s| s.secs()).collect::<Vec<f64>>();

    m.push("sweep.run_s", median(&mut durations("sweep.run")), "s");
    m.push(
        "sweep.export_s",
        median(&mut durations("sweep.export")),
        "s",
    );
    let grid = grid_out.unwrap_or_default();
    m.push(
        "sweep.memo_hit_ratio",
        ratio(grid.memo_hits as f64, grid.ops as f64),
        "frac",
    );
    let mut trials = durations("campaign.trial");
    m.push("campaign.trial_s.p50", quantile(&mut trials, 0.5), "s");
    m.push("campaign.trial_s.p99", quantile(&mut trials, 0.99), "s");
    // micro trials that ran into the engine's watchdog: rare, but each
    // costs some 200 normal trials of host time, and the end-to-end rates
    // leave their jobs out
    let (mut dog, mut all) = (Vec::new(), 0.0);
    if opts.workload != "campaign-vm" {
        for s in named("campaign.trial") {
            all += s.secs();
            if s.items >= WATCHDOG_CYCLES {
                dog.push(s.secs());
            }
        }
    }
    let dog_total = dog.iter().fold(0.0, |t, s| t + s);
    m.push("campaign.watchdog_trial_s", median(&mut dog), "s");
    m.push(
        "campaign.watchdog_time_share",
        ratio(dog_total, all),
        "frac",
    );
    m.push("campaign.busy_frac", busy_frac(opts), "frac");
    m.push(
        "journal.encode_entries_per_s",
        per_item("journal.encode"),
        "entries/s",
    );
    let campaign = campaign_out.unwrap_or_default();
    m.push(
        "journal.bytes_per_entry",
        ratio(campaign.journal_bytes as f64, campaign.entries as f64),
        "B/entry",
    );
    for (metric, span) in [
        ("journal.parse_entries_per_s", "journal.parse"),
        ("journal.diff_entries_per_s", "journal.diff"),
        ("forensics.entries_per_s", "forensics"),
        ("conformance.entries_per_s", "conformance"),
    ] {
        m.push(metric, per_item(span), "entries/s");
    }
    m.push(
        "fail_ratio",
        ratio(det.failed as f64, det.ops as f64),
        "frac",
    );

    let mut probe_failures = 0;
    for (name, value, unit) in probes::run_all(opts.seed, &mut probe_failures) {
        m.push(name, value, unit);
    }
    total.check_failures += probe_failures;
    total.failed += probe_failures;
}

/// Σ trial time ÷ (workers × campaign wall) of [`BUSY_JOBS`] jobs of the
/// workload's campaigns (micro campaigns on the other workloads, at the
/// tiny size) run at two workers: the share of the workers' time spent
/// in trials. The spans are kept apart from the attributed ones, whose
/// children never overlap.
fn busy_frac(opts: &Options) -> f64 {
    let vm = opts.workload == "campaign-vm";
    let size = if opts.workload.starts_with("campaign-") {
        opts.size
    } else {
        Size::tiny()
    };
    let tracer = Tracer::new(0);
    let campaigns = Campaigns::new(vm, opts.seed, size, 2);
    for j in 0..BUSY_JOBS {
        campaigns.runs(Ctx::on(&tracer), j);
    }
    let spans = tracer.spans();
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    };
    ratio(total("campaign.trial"), 2.0 * total("campaign.run"))
}
