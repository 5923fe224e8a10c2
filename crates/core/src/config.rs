//! VDS scheme selection and fault plans.

/// Which recovery scheme (and hence which processor architecture and
/// execution model) the VDS uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// §3.1 — conventional processor, versions alternate with context
    /// switches; recovery is plain stop-and-retry.
    Conventional,
    /// §3.2 — 2-way SMT, deterministic roll-forward: `i/4` rounds of each
    /// version from each candidate state (guaranteed progress, fault
    /// detection retained).
    SmtDeterministic,
    /// §3.2 — 2-way SMT, probabilistic roll-forward: pick one candidate
    /// state, run both versions `i/2` rounds from it (progress with
    /// probability of a correct pick; fault detection retained).
    SmtProbabilistic,
    /// §4 — 2-way SMT, prediction-guided roll-forward: continue one
    /// version a full `i` rounds with **no comparisons** (maximal
    /// progress on a hit, nothing on a miss, and faults during the
    /// roll-forward go undetected).
    SmtPredictive,
    /// §5 — 3-thread boosted probabilistic: versions 1 and 2 each roll
    /// forward `i` rounds in their own threads (from the picked state)
    /// while version 3 retries; detection retained.
    SmtBoosted3,
    /// §5 — 5-thread boosted deterministic: both versions from both
    /// states, `i` rounds each; guaranteed progress with detection.
    SmtBoosted5,
}

impl Scheme {
    /// Hardware threads the scheme needs during recovery.
    pub fn threads_needed(self) -> u32 {
        match self {
            Scheme::Conventional => 1,
            Scheme::SmtDeterministic | Scheme::SmtProbabilistic | Scheme::SmtPredictive => 2,
            Scheme::SmtBoosted3 => 3,
            Scheme::SmtBoosted5 => 5,
        }
    }

    /// `true` if state comparisons run during roll-forward (a fault there
    /// is detected and the roll-forward discarded).
    pub fn detects_during_rollforward(self) -> bool {
        !matches!(self, Scheme::SmtPredictive | Scheme::Conventional)
    }

    /// Intended roll-forward length for a fault at round `i` (before the
    /// checkpoint-horizon clamp). Zero for the conventional scheme.
    pub fn rollforward_intent(self, i: u32) -> f64 {
        let i = f64::from(i);
        match self {
            Scheme::Conventional => 0.0,
            Scheme::SmtDeterministic => i / 4.0,
            Scheme::SmtProbabilistic => i / 2.0,
            Scheme::SmtPredictive | Scheme::SmtBoosted3 | Scheme::SmtBoosted5 => i,
        }
    }

    /// Whether the roll-forward progress is guaranteed (deterministic
    /// variants) rather than conditional on a correct pick.
    pub fn progress_guaranteed(self) -> bool {
        matches!(self, Scheme::SmtDeterministic | Scheme::SmtBoosted5)
    }

    /// All schemes, for sweep experiments.
    pub const ALL: [Scheme; 6] = [
        Scheme::Conventional,
        Scheme::SmtDeterministic,
        Scheme::SmtProbabilistic,
        Scheme::SmtPredictive,
        Scheme::SmtBoosted3,
        Scheme::SmtBoosted5,
    ];

    /// Short identifier for reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Conventional => "conventional",
            Scheme::SmtDeterministic => "smt-det",
            Scheme::SmtProbabilistic => "smt-prob",
            Scheme::SmtPredictive => "smt-pred",
            Scheme::SmtBoosted3 => "smt-boost3",
            Scheme::SmtBoosted5 => "smt-boost5",
        }
    }
}

/// Which active version a fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// Version 1.
    V1,
    /// Version 2.
    V2,
}

impl Victim {
    /// Index 0/1.
    pub fn index(self) -> usize {
        match self {
            Victim::V1 => 0,
            Victim::V2 => 1,
        }
    }

    /// The other version.
    pub fn other(self) -> Victim {
        match self {
            Victim::V1 => Victim::V2,
            Victim::V2 => Victim::V1,
        }
    }
}

/// When and where faults strike (abstract backend).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// No faults: pure normal-processing timing.
    None,
    /// Exactly one silent state corruption, at round `round`
    /// (1-based within the first checkpoint interval) of version
    /// `victim`. Used for the per-incident gain experiments.
    OneShot {
        /// Round 1..=s at which the corruption lands.
        round: u32,
        /// Corrupted version.
        victim: Victim,
    },
    /// Every executed round (normal, retry or roll-forward) corrupts the
    /// executing version with probability `q`. In a normal round each
    /// version is drawn independently (V1, then V2), so both can be hit
    /// in one round, which counts as two injected faults. The long-run
    /// stochastic model.
    PerRound {
        /// Per-round corruption probability.
        q: f64,
    },
    /// Like `PerRound`, but a corruption is a *crash* with probability
    /// `crash_fraction` — crashes carry perfect evidence of the victim
    /// (the paper's §4 "e.g. in the case of a crash fault").
    PerRoundWithCrashes {
        /// Per-round corruption probability.
        q: f64,
        /// Fraction of corruptions that crash the version.
        crash_fraction: f64,
    },
    /// The full mission mix: per-round corruptions that are silent,
    /// crashes, or **processor stops** ("a fault is able to stop … the
    /// entire processor. In the latter case, recovery is only possible
    /// by rollback"). A stop loses all volatile state; the VDS restarts
    /// both versions from the last stable-storage checkpoint.
    Mission {
        /// Per-round corruption probability.
        q: f64,
        /// Fraction of corruptions that crash one version.
        crash_fraction: f64,
        /// Fraction of corruptions that stop the whole processor.
        stop_fraction: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_properties() {
        assert_eq!(Scheme::Conventional.threads_needed(), 1);
        assert_eq!(Scheme::SmtBoosted5.threads_needed(), 5);
        assert!(Scheme::SmtDeterministic.detects_during_rollforward());
        assert!(!Scheme::SmtPredictive.detects_during_rollforward());
        assert!(Scheme::SmtDeterministic.progress_guaranteed());
        assert!(!Scheme::SmtProbabilistic.progress_guaranteed());
        assert!(Scheme::SmtBoosted5.progress_guaranteed());
    }

    #[test]
    fn rollforward_intents_match_paper() {
        assert_eq!(Scheme::SmtDeterministic.rollforward_intent(8), 2.0);
        assert_eq!(Scheme::SmtProbabilistic.rollforward_intent(8), 4.0);
        assert_eq!(Scheme::SmtPredictive.rollforward_intent(8), 8.0);
        assert_eq!(Scheme::Conventional.rollforward_intent(8), 0.0);
    }

    #[test]
    fn victim_helpers() {
        assert_eq!(Victim::V1.other(), Victim::V2);
        assert_eq!(Victim::V2.index(), 1);
    }
}
