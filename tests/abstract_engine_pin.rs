//! Output pin for the abstract-timing VDS engine.
//!
//! One FNV digest is folded over everything the abstract engine produces,
//! so a change to its round loop that moves a single floating-point bit,
//! a random draw, a journal entry or an event fails here:
//!
//! * `RunReport` fields as raw bits for all six schemes under all five
//!   fault models, with zero and non-zero checkpoint/restore costs;
//! * the two fail-safe exits: the `max_consecutive_rollbacks` shutdown
//!   and the `max_attempts` livelock guard;
//! * a predictor-driven run;
//! * a journaled run's JSONL;
//! * a recorded run with a timeline: its span export, event trace and
//!   registry;
//! * the CSV, JSONL and registry exports of a small sweep grid of the
//!   shape `vdsbench`'s `grid-abstract` workload runs.

use vds::analytic::Params;
use vds::core::abstract_vds::{
    run, run_recorded, run_with_predictor, run_with_recorder, AbstractConfig,
};
use vds::core::{FaultModel, RunReport, Scheme, Victim};
use vds::obs::journal::JournalHeader;
use vds::obs::Recorder;
use vds::predictor::predictors::LastOutcome;
use vds::sweep::engine::run_sweep;
use vds::sweep::export;
use vds::sweep::grid::{Backend, GridSpec};

/// 64-bit FNV-1a, fed length-prefixed byte strings so that boundaries
/// count.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, part: &[u8]) {
        for &b in (part.len() as u64).to_le_bytes().iter().chain(part) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Every scalar field of a report; `f64`s by their bit patterns.
    fn report(&mut self, r: &RunReport) {
        for w in [
            r.total_time.to_bits(),
            r.committed_rounds,
            r.faults_injected,
            r.faults_detected,
            r.faults_masked,
            r.faults_escaped,
            r.detect_latency_rounds_sum,
            r.detect_latency_time_sum.to_bits(),
            r.detections,
            r.recoveries_ok,
            r.rollbacks,
            r.processor_stops,
            r.rollforward_hits,
            r.rollforward_misses,
            r.rollforward_discards,
            r.silent_corruptions,
            r.checkpoints,
            r.time_normal.to_bits(),
            r.time_recovery.to_bits(),
            r.time_checkpoint.to_bits(),
            u64::from(r.shutdown),
        ] {
            self.word(w);
        }
    }
}

const FAULT_MODELS: [FaultModel; 5] = [
    FaultModel::None,
    FaultModel::OneShot {
        round: 7,
        victim: Victim::V2,
    },
    FaultModel::PerRound { q: 0.02 },
    FaultModel::PerRoundWithCrashes {
        q: 0.03,
        crash_fraction: 0.4,
    },
    FaultModel::Mission {
        q: 0.02,
        crash_fraction: 0.2,
        stop_fraction: 0.2,
    },
];

fn reports_digest(h: &mut Fnv) {
    let params = [Params::paper_default(), Params::with_beta(0.6, 0.05, 9)];
    for (pi, p) in params.into_iter().enumerate() {
        for scheme in Scheme::ALL {
            for (fi, fm) in FAULT_MODELS.into_iter().enumerate() {
                for (ck, rs) in [(0.0, 0.0), (0.7, 1.3)] {
                    let mut c = AbstractConfig::new(p, scheme);
                    c.checkpoint_cost = ck;
                    c.restore_cost = rs;
                    c.p_correct = 0.6;
                    let seed = 1000 + 100 * pi as u64 + 10 * fi as u64;
                    h.report(&run(&c, fm, 400, seed));
                }
            }
        }
    }
}

fn failsafe_digest(h: &mut Fnv) {
    // consecutive-rollback shutdown: late-interval recoveries at q = 0.3
    // keep failing their votes
    let mut c = AbstractConfig::new(Params::with_beta(0.65, 0.1, 40), Scheme::SmtProbabilistic);
    c.max_consecutive_rollbacks = 3;
    c.restore_cost = 0.5;
    let r = run(&c, FaultModel::PerRound { q: 0.3 }, 10_000, 23);
    assert!(r.shutdown && r.committed_rounds < 10_000, "{r}");
    assert!(r.recoveries_ok > 0 && r.time_normal > 100.0, "{r}");
    h.report(&r);

    // livelock guard: recoveries keep succeeding (so the rollback streak
    // never trips) but no interval of s = 40 ever completes at q = 0.5
    let mut c = AbstractConfig::new(Params::with_beta(0.65, 0.1, 40), Scheme::SmtDeterministic);
    c.max_consecutive_rollbacks = u32::MAX;
    let r = run(&c, FaultModel::PerRound { q: 0.5 }, 1_000, 29);
    assert!(r.shutdown && r.committed_rounds < 1_000, "{r}");
    h.report(&r);
}

fn predictor_digest(h: &mut Fnv) {
    let mut pred = LastOutcome::default();
    let mut c = AbstractConfig::new(Params::paper_default(), Scheme::SmtPredictive);
    c.p_correct = 0.0;
    for seed in 0..4 {
        let r = run_with_predictor(
            &c,
            FaultModel::PerRoundWithCrashes {
                q: 0.02,
                crash_fraction: 0.3,
            },
            1_000,
            seed,
            Some(&mut pred),
        );
        h.report(&r);
    }
}

fn journal_digest(h: &mut Fnv) {
    for scheme in [Scheme::Conventional, Scheme::SmtProbabilistic] {
        let c = AbstractConfig::new(Params::paper_default(), scheme);
        let fm = FaultModel::Mission {
            q: 0.03,
            crash_fraction: 0.3,
            stop_fraction: 0.1,
        };
        let mut rec = Recorder::new();
        rec.enable_journal(JournalHeader::new("abstract", scheme.name(), 5, 20, 300));
        let (r, rec) = run_with_recorder(&c, fm, 300, 5, rec);
        h.report(&r);
        h.bytes(rec.journal().to_jsonl().as_bytes());
    }
}

fn timeline_digest(h: &mut Fnv) {
    for scheme in [Scheme::Conventional, Scheme::SmtDeterministic] {
        let mut c = AbstractConfig::new(Params::with_beta(0.7, 0.1, 6), scheme);
        c.record_timeline = true;
        c.checkpoint_cost = 0.25;
        let (r, rec) = run_recorded(&c, FaultModel::PerRound { q: 0.04 }, 60, 3);
        h.report(&r);
        h.bytes(r.timeline.expect("timeline requested").to_tsv().as_bytes());
        h.bytes(rec.spans().to_chrome_json().as_bytes());
        h.bytes(rec.trace().to_jsonl().as_bytes());
        h.bytes(rec.registry().to_csv().as_bytes());
    }
}

fn sweep_digest(h: &mut Fnv) {
    let spec = GridSpec {
        alphas: vec![0.55, 0.65, 0.8],
        s_values: vec![5, 20, 40],
        schemes: vec![
            Scheme::Conventional,
            Scheme::SmtDeterministic,
            Scheme::SmtProbabilistic,
            Scheme::SmtPredictive,
        ],
        qs: vec![0.0, 0.01],
        backend: Backend::Abstract,
        rounds: 400,
        base_seed: 21,
        program: "checksum".to_string(),
    };
    let out = run_sweep(&spec, 1, None, &Default::default(), None);
    h.bytes(export::to_csv(&out.results).as_bytes());
    h.bytes(export::to_jsonl(&out.results).as_bytes());
    h.bytes(out.registry.to_csv().as_bytes());
}

/// Pinned digest per build configuration: with the `obs` feature off the
/// hot-path event macros compile to nothing, so the recorded run's event
/// trace is empty.
const DIGEST: u64 = if cfg!(feature = "obs") {
    0x95a3_9039_4b55_c082
} else {
    0xf091_b94f_7780_aa49
};

#[test]
fn abstract_engine_outputs_are_pinned() {
    let mut h = Fnv::new();
    reports_digest(&mut h);
    failsafe_digest(&mut h);
    predictor_digest(&mut h);
    journal_digest(&mut h);
    timeline_digest(&mut h);
    sweep_digest(&mut h);
    assert_eq!(h.0, DIGEST, "abstract engine output drifted: {:#018x}", h.0);
}
