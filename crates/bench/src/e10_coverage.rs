//! E10 — fault-injection coverage on the micro platform.
//!
//! Runs a campaign of randomized faults (transient register / memory /
//! text flips, version crashes, permanent functional-unit faults) against
//! the *real* VDS (diversified programs on the cycle-level machine) and
//! classifies every trial by detection and by **output correctness**
//! against the pure-Rust oracle. The same campaign with diversity
//! disabled demonstrates the paper's core assumption: permanent faults
//! corrupt identical versions identically and escape detection.

use crate::Report;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::fmt::Write as _;
use vds_core::micro_vds::{run_micro_with_state, MicroConfig, MicroFault};
use vds_core::workload;
use vds_core::{Scheme, Victim};
use vds_fault::campaign::{run_campaign, run_campaign_recorded_as, CampaignReport, TrialResult};
use vds_fault::model::{sample_fu_fault, sample_transient_site, FaultKind};
use vds_obs::Recorder;

/// One randomized trial.
fn trial(seed: u64, diversity: bool, target_rounds: u64) -> TrialResult {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE);
    let mut cfg = MicroConfig::new(Scheme::SmtProbabilistic, 8);
    cfg.seed = 1000 + seed; // varies the version diversification too
    cfg.diversity = diversity;
    let victim = if rng.gen() { Victim::V1 } else { Victim::V2 };
    let at_round = rng.gen_range(1..=cfg.s);
    let text_len = workload::fault_text_span();
    let kind = match rng.gen_range(0..10u32) {
        0..=5 => FaultKind::Transient(sample_transient_site(
            &mut rng,
            workload::DMEM_WORDS as u32,
            text_len,
        )),
        6 | 7 => FaultKind::PermanentFu(sample_fu_fault(&mut rng, 2, 1)),
        8 => FaultKind::CrashVersion,
        _ => FaultKind::Transient(sample_transient_site(&mut rng, 8, 4)),
    };
    let fault = MicroFault {
        at_round,
        victim,
        kind,
    };
    let (r, img) = run_micro_with_state(&cfg, Some(fault), target_rounds);
    let kind_tag = match kind {
        FaultKind::Transient(_) => "transient",
        FaultKind::PermanentFu(_) => "permanent",
        FaultKind::CrashVersion => "crash",
        FaultKind::ProcessorStop => "stop",
    };
    // A fail-safe shutdown is a *safe* outcome: the fault was detected
    // and the system stopped rather than emit wrong results (this is how
    // untolerable permanent faults must end on a single processor).
    if r.shutdown {
        return TrialResult::with_value(
            format!("{kind_tag}/failsafe-shutdown/output-ok"),
            r.detections as f64,
        );
    }
    let (_, want_state) = workload::oracle(r.committed_rounds as u32);
    let got = &img
        [workload::ADDR_STATE as usize..(workload::ADDR_STATE + workload::STATE_WORDS) as usize];
    let correct =
        got == &want_state[..] && img[workload::ADDR_ROUND as usize] == r.committed_rounds as u32;
    let detect_tag = if r.detections == 0 {
        "undetected"
    } else if r.rollbacks > 0 {
        "rollback"
    } else {
        "recovered"
    };
    let correct_tag = if correct { "output-ok" } else { "OUTPUT-WRONG" };
    TrialResult::with_value(
        format!("{kind_tag}/{detect_tag}/{correct_tag}"),
        r.detections as f64,
    )
}

/// Run the campaign with and without diversity.
pub fn campaign(
    trials: u64,
    workers: usize,
    target_rounds: u64,
) -> (CampaignReport, CampaignReport) {
    let with = run_campaign(trials, workers, |i| trial(i, true, target_rounds));
    let without = run_campaign(trials, workers, |i| trial(i, false, target_rounds));
    (with, without)
}

/// [`campaign`] with metrics: both campaigns' registries merged into one
/// recorder under `with_diversity.*` / `no_diversity.*` (content is
/// worker-count invariant).
pub fn campaign_recorded(
    trials: u64,
    workers: usize,
    target_rounds: u64,
) -> (CampaignReport, CampaignReport, Recorder) {
    let (with, rec_with) = run_campaign_recorded_as("campaign-div", trials, workers, |i, _| {
        trial(i, true, target_rounds)
    });
    let (without, rec_without) =
        run_campaign_recorded_as("campaign-ident", trials, workers, |i, _| {
            trial(i, false, target_rounds)
        });
    let mut rec = Recorder::new();
    rec.merge_prefixed(rec_with.registry(), "with_diversity");
    rec.merge_prefixed(rec_without.registry(), "no_diversity");
    rec.merge_spans(&rec_with);
    rec.merge_spans(&rec_without);
    (with, without, rec)
}

/// Silent-failure rate: trials that went undetected AND produced wrong
/// output.
pub fn silent_wrong_rate(r: &CampaignReport) -> f64 {
    let silent: u64 = r
        .counts
        .iter()
        .filter(|(l, _)| l.contains("undetected") && l.contains("OUTPUT-WRONG"))
        .map(|(_, c)| *c)
        .sum();
    silent as f64 / r.trials.max(1) as f64
}

/// Detected-or-harmless rate (coverage in the dependability sense).
pub fn coverage(r: &CampaignReport) -> f64 {
    1.0 - silent_wrong_rate(r)
}

/// Regenerate the coverage tables.
pub fn report(trials: u64, workers: usize) -> Report {
    let (with, without, rec) = campaign_recorded(trials, workers, 16);
    let mut text = String::new();
    let _ = writeln!(text, "diversified versions ({} trials):", with.trials);
    let _ = write!(text, "{with}");
    let _ = writeln!(
        text,
        "coverage (detected or output still correct): {:.2}%",
        100.0 * coverage(&with)
    );
    let _ = writeln!(
        text,
        "\nidentical versions — diversity DISABLED ({} trials):",
        without.trials
    );
    let _ = write!(text, "{without}");
    let _ = writeln!(
        text,
        "coverage: {:.2}%   silent wrong output: {:.2}%  (diversity's raison d'être: {:.2}% with diversity)",
        100.0 * coverage(&without),
        100.0 * silent_wrong_rate(&without),
        100.0 * silent_wrong_rate(&with),
    );
    let _ = writeln!(
        text,
        "\nreading the failure modes:\n\
         * crash/recovered — trap evidence identifies the victim; always healed.\n\
         * permanent/failsafe-shutdown — a stuck unit corrupts every round;\n\
           detectable but not tolerable on one processor: the watchdog stops\n\
           the system safely (the flow charts' terminal state).\n\
         * transient or permanent …/OUTPUT-WRONG — almost all trace back to\n\
           corruption of the *read-only table*, which lies outside the\n\
           comparison window: it stays latent until it poisons a checkpoint,\n\
           after which the majority vote itself replays the corrupt\n\
           trajectory. This is precisely the gap the paper's \"error\n\
           detecting codes for data in the memory\" assumption closes —\n\
           see `vds_fault::memory::ProtectedMemory` (SEC-DED + scrubbing)\n\
           for the substrate that would catch these at the first read.\n\
         * transient/undetected/output-ok — architecturally masked flips\n\
           (dead registers at round boundaries, unread words)."
    );
    let mut csv = String::from("diversity,label,count\n");
    for (set, name) in [(&with, "on"), (&without, "off")] {
        for (l, c) in &set.counts {
            let _ = writeln!(csv, "{name},{l},{c}");
        }
    }
    let (metrics, _, spans) = rec.into_parts();
    Report {
        id: "E10",
        title: "Fault-injection coverage on the micro platform",
        text,
        data: vec![("coverage.csv".into(), csv)],
        metrics,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Campaigns are expensive in debug builds; tests run small ones and
    // the binary runs the full 400-trial version.

    #[test]
    fn transient_memory_faults_are_covered_with_diversity() {
        // 16 trials is small enough for sampling noise to cross the 0.2
        // threshold; 48 keeps the check meaningful at tolerable cost
        let (with, _) = campaign(48, 8, 10);
        assert_eq!(with.trials, 48);
        // with diversity, silent wrong output should be rare
        assert!(
            silent_wrong_rate(&with) < 0.2,
            "silent rate {} too high:\n{with}",
            silent_wrong_rate(&with)
        );
    }

    #[test]
    fn campaign_deterministic() {
        let (a, _) = campaign(8, 1, 10);
        let (b, _) = campaign(8, 4, 10);
        assert_eq!(a.counts, b.counts);
    }
}
