//! Timing pins: the simulated *timing* of the cycle-level core must not
//! drift, not just its architectural results.
//!
//! `cli/tests/feature_matrix.rs` pins architectural state digests, which
//! a change to stall accounting, cache replacement or issue order could
//! leave intact. The pins here cover what such a change would move:
//!
//! * a journaled micro fault campaign (the `vds serve --once` path): its
//!   journal JSONL carries each round's `sim_time`, and its merged
//!   registry CSV carries the `smt.*` stall counters, cache statistics
//!   and span rollups;
//! * the α-ledger report of `vds alpha 2`, built from per-cause stall
//!   deltas of every kernel pair.
//!
//! The campaign digest is the same at one and at two workers.

use vds_bench::live;
use vds_core::Scheme;
use vds_fault::campaign::run_campaign_journaled;
use vds_smtsim::CoreConfig;

/// 64-bit FNV-1a over a sequence of byte strings (each one
/// length-prefixed so that boundaries count).
fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for part in parts {
        for b in (part.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in *part {
            eat(b);
        }
    }
    h
}

/// Digest of a 16-trial smt-prob journaled micro campaign at `workers`.
fn campaign_digest(workers: usize) -> u64 {
    let (trials, seed, rounds) = (16, 7, 40);
    let scheme = Scheme::SmtProbabilistic;
    let header = live::campaign_journal_header_for(scheme, trials, seed, rounds);
    let (report, rec) = run_campaign_journaled("pin", trials, workers, None, &header, |i, rec| {
        live::campaign_trial_for(scheme, i, seed, rounds, rec)
    });
    assert_eq!(report.trials, trials);
    let jsonl = rec.journal().to_jsonl();
    let csv = rec.registry().to_csv();
    assert!(jsonl.contains("\"sim_time\""), "journal lacks sim_time");
    assert!(
        csv.contains("smt.thread0.stall.dcache"),
        "registry lacks smt.*"
    );
    fnv64(&[jsonl.as_bytes(), csv.as_bytes()])
}

/// Pinned campaign digest per build configuration: with the `obs`
/// feature off the hot-path metric macros compile to nothing, so the
/// registry CSV holds fewer rows (the journal is the same in both).
const CAMPAIGN_DIGEST: u64 = if cfg!(feature = "obs") {
    0x0e5c_a65c_2c7f_02c1
} else {
    0x7faa_6471_014b_c4c9
};

/// Pinned digest of `measured_alpha(&CoreConfig::default(), 2)`'s report.
const ALPHA_DIGEST: u64 = 0x5664_2a32_d896_445d;

#[test]
fn micro_campaign_timing_is_pinned_at_one_and_two_workers() {
    let w1 = campaign_digest(1);
    let w2 = campaign_digest(2);
    assert_eq!(w1, w2, "campaign digest depends on the worker count");
    assert_eq!(w1, CAMPAIGN_DIGEST, "campaign timing drifted: {w1:#018x}");
}

#[test]
fn alpha_ledger_report_is_pinned() {
    let (alpha, report) = vds_smtsim::alpha::measured_alpha(&CoreConfig::default(), 2).unwrap();
    assert!((0.5..=1.0).contains(&alpha));
    let d = fnv64(&[report.to_json().as_bytes()]);
    assert_eq!(d, ALPHA_DIGEST, "alpha ledger drifted: {d:#018x}");
}
