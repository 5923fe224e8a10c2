//! The benchmark's own checks, at a tiny input size.

use vdsbench::trace::Ctx;
use vdsbench::workloads::{campaign, JobOut, Prepared, Size, PANIC_LABEL, WORKLOADS};
use vdsbench::{run, Options};

fn job(workload: &str, seed: u64, workers: usize) -> JobOut {
    let p = Prepared::setup(workload, seed, Size::tiny(), workers).expect("known workload");
    let (out, secs) = p.job(Ctx::off(), 0, true);
    assert!(secs > 0.0);
    out
}

/// The simulated counters: rounds, simulated time, journal entries, fault
/// labels and failed operations.
fn counters(o: &JobOut) -> (u64, u64, u64, String, u64, u64) {
    (
        o.ops,
        o.rounds,
        o.entries,
        format!("{:?}|{:e}", o.labels, o.sim_time),
        o.failed,
        o.check_failures,
    )
}

#[test]
fn deterministic_counters_repeat_across_runs_and_worker_counts() {
    for w in WORKLOADS {
        let a = job(w, 3, 2);
        assert_eq!(counters(&a), counters(&job(w, 3, 2)), "{w}: second run");
        assert_eq!(counters(&a), counters(&job(w, 3, 1)), "{w}: one worker");
        assert_eq!(a.sim_digest(), job(w, 3, 1).sim_digest(), "{w}: digest");
        assert!(a.ops > 0 && a.entries > 0, "{w}: did no work");
        assert_eq!(a.check_failures, 0, "{w}: output checks");
    }
}

#[test]
fn a_different_seed_changes_the_generated_inputs() {
    for w in WORKLOADS {
        assert_ne!(
            job(w, 3, 2).sim_digest(),
            job(w, 4, 2).sim_digest(),
            "{w}: seeds 3 and 4 gave identical outputs"
        );
    }
}

/// The metric names and units `BENCHMARK.json` declares, per section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("string closes");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty());
        for w in WORKLOADS {
            let out = run(&Options {
                workload: w.to_string(),
                seed: 5,
                seconds: 0.01,
                trace,
                size: Size::tiny(),
            })
            .expect("run");
            assert!(out.correct, "{w} trace={trace}: output checks failed");
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{w} trace={trace}");
            let json = out.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert!(out.attempted > 0);
        }
    }
}

#[test]
fn what_a_run_attempts_and_fails_does_not_depend_on_its_length() {
    for w in WORKLOADS {
        let counts = |seconds: f64| {
            let mut size = Size::tiny();
            size.micro_det_jobs = 3;
            let out = run(&Options {
                workload: w.to_string(),
                seed: 6,
                seconds,
                trace: false,
                size,
            })
            .expect("run");
            assert!(out.correct, "{w}: output checks failed at {seconds} s");
            (out.attempted, out.failed)
        };
        assert_eq!(counts(0.01), counts(0.5), "{w}");
    }
}

#[test]
fn an_engine_panic_fails_its_trial_and_the_campaign_goes_on() {
    // Seed 4 is one at which `vds serve --once --trials 200` hits the
    // micro engine's `normal round: unexpected Some(Halted)` panic. The
    // campaign must finish, with that trial counted as failed.
    let run = campaign(Ctx::off(), None, 200, 40, 4, 2);
    let panics = run
        .out
        .labels
        .iter()
        .find(|(l, _)| l == PANIC_LABEL)
        .map_or(0, |(_, n)| *n);
    assert_eq!(run.out.ops, 200);
    assert_eq!(run.out.failed, panics);
    assert!(
        panics >= 1,
        "the known engine panic no longer fires at seed 4"
    );
    assert_eq!(run.out.check_failures, 0);
}
