//! Fixed-size layer probes, each timing one layer's public call in the
//! layer's own physical unit. They run in the traced run only.

use std::hint::black_box;
use std::time::Instant;

use vds_analytic::Params;
use vds_core::abstract_vds::{self, AbstractConfig};
use vds_core::{FaultModel, Scheme};
use vds_smtsim::{alpha, kernels, Core, CoreConfig, RunOutcome};
use vds_sweep::grid::GridSpec;

use crate::stats::median;
use crate::trace::Ctx;
use crate::workloads::{Grid, Size, VM_PROGRAMS};

/// Host seconds each probe spends measuring.
const PROBE_SECS: f64 = 0.25;

/// Call `f` until [`PROBE_SECS`] have passed (at least three times) and
/// return the median of `units / seconds` over the calls.
fn rate(mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < PROBE_SECS {
        let t = Instant::now();
        let units = black_box(f());
        rates.push(units as f64 / t.elapsed().as_secs_f64());
    }
    median(&mut rates)
}

/// Every probe's metric, as `(name, value, unit)`. `checks_failed` counts
/// probe outputs that were wrong.
pub fn run_all(seed: u64, checks_failed: &mut u64) -> Vec<(&'static str, f64, &'static str)> {
    let cfg = CoreConfig::default();
    let matmul = kernels::matmul(6, 1);
    let prog = matmul.program();
    let mut m = Vec::new();

    // the α stamp run_sweep pays once per call
    let stamp = 1.0
        / rate(|| {
            let l = alpha::measure_ledger(&cfg, &matmul, &matmul).expect("matmul runs");
            u64::from(l.t_pair > 0)
        });
    m.push(("sweep.alpha_stamp_s", stamp, "s"));

    m.push((
        "smtsim.cycles_per_s",
        rate(|| {
            alpha::run_pair(&cfg, (&prog, matmul.dmem_words), (&prog, matmul.dmem_words))
                .expect("matmul pair runs")
        }),
        "cycles/s",
    ));
    m.push((
        "smtsim.ipc",
        pair_ipc(&cfg, &prog, matmul.dmem_words),
        "instrs/cycle",
    ));

    let abs_cfg = AbstractConfig::new(
        Params::with_beta(0.65, vds_sweep::engine::BETA, 20),
        Scheme::SmtProbabilistic,
    );
    m.push((
        "core.abstract.rounds_per_s",
        rate(|| {
            abstract_vds::run(&abs_cfg, FaultModel::PerRound { q: 0.01 }, 20_000, seed)
                .committed_rounds
        }),
        "rounds/s",
    ));

    m.push((
        "analytic.evals_per_s",
        rate(|| {
            let mut n = 0;
            for a in 0..50 {
                for s in [5, 10, 20, 40] {
                    let p = Params::with_beta(0.5 + a as f64 * 0.01, 0.1, s);
                    for name in ["smt-det", "smt-prob", "smt-pred"] {
                        black_box(vds_analytic::schemes::gbar(name, &p, 0.5));
                        n += 1;
                    }
                    black_box(vds_analytic::timing::g_round_exact(&p));
                    n += 1;
                }
            }
            n
        }),
        "evals/s",
    ));

    let programs: Vec<_> = VM_PROGRAMS
        .iter()
        .map(|p| {
            let sp = vds_vm::seed_program(p).expect("seed program exists");
            (sp.name, sp.assembled(), sp.initial_dmem(seed))
        })
        .collect();
    m.push((
        "vm.instrs_per_s",
        rate(|| {
            let mut steps = 0;
            for (_, prog, mem) in &programs {
                let mut vm = vds_vm::Vm::with_mem(mem.clone());
                for round in 1..=8 {
                    steps += vds_vm::run_round(&mut vm, prog, round, None).steps;
                }
            }
            steps
        }),
        "instrs/s",
    ));

    let mut index = 0u32;
    m.push((
        "diversity.variants_per_s",
        rate(|| {
            for (name, base, mem) in &programs {
                index += 1;
                let variant = vds_diversity::vm::diversify_vm(base, index, seed);
                if vds_diversity::vm::check_vm_equivalence(base, &variant, mem, 4).is_err() {
                    *checks_failed += 1;
                    eprintln!("vdsbench: probe check failed: variant {index} of {name}");
                }
            }
            programs.len() as u64
        }),
        "variants/s",
    ));

    let window: Vec<u32> = (0..vds_vm::DMEM_WORDS as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9) ^ seed as u32)
        .collect();
    m.push((
        "digest.bytes_per_s",
        rate(|| {
            for _ in 0..64 {
                black_box(vds_obs::digest_words128(black_box(&window)));
            }
            64 * 4 * window.len() as u64
        }),
        "bytes/s",
    ));

    // sweep scaling on a small grid, with the worker-invariance check
    let spec = GridSpec {
        rounds: 2_000,
        ..Grid::spec(seed, Size::full(), 0)
    };
    let mut exports = Vec::new();
    for (name, workers) in [("sweep.cells_per_s.w1", 1), ("sweep.cells_per_s.w2", 2)] {
        let mut first = None;
        m.push((
            name,
            rate(|| {
                let (_, e) = Grid::sweep(Ctx::off(), &spec, workers);
                first.get_or_insert(e);
                spec.cell_count()
            }),
            "cells/s",
        ));
        exports.push(first);
    }
    if exports[0] != exports[1] {
        *checks_failed += 1;
        eprintln!("vdsbench: probe check failed: sweep exports differ across workers");
    }
    m
}

/// Simulated instructions per cycle of the matmul self-pair, summed over
/// both hardware threads. A simulated statistic: it must not move.
fn pair_ipc(cfg: &CoreConfig, prog: &vds_smtsim::Program, dmem: usize) -> f64 {
    let mut cfg = cfg.clone();
    cfg.max_threads = cfg.max_threads.max(2);
    let mut core = Core::new(cfg);
    let threads = [core.add_thread(prog, dmem), core.add_thread(prog, dmem)];
    loop {
        match core.run_until_all_blocked(u64::MAX / 4) {
            RunOutcome::AllHalted => break,
            RunOutcome::AllYielded => {
                for t in threads {
                    if core.thread(t).state == vds_smtsim::core::ThreadState::Yielded {
                        core.resume(t);
                    }
                }
            }
            other => panic!("matmul self-pair did not halt: {other:?}"),
        }
    }
    let retired: u64 = threads
        .iter()
        .map(|&t| core.thread(t).counters.retired)
        .sum();
    retired as f64 / core.cycles() as f64
}
