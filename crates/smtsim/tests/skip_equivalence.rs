//! The fast run loops must be indistinguishable from single-stepping.
//!
//! `Core::run_until_all_blocked`, `run_until_thread_blocks`,
//! `run_until_any_blocks` and `advance` skip idle stretches (no thread
//! ready) in one move and look at thread states only when a thread
//! blocks. These properties drive two cores through the same random
//! script — kernel pairs, parks, resumes, context swaps and text
//! rewrites, with window recording on or off under both fetch policies —
//! one core through the fast loops and one through reference loops
//! built from `Core::step` alone, and require every observable to match
//! after every operation: cycle count, run outcomes, per-thread counters
//! and architectural state, pipeline windows (closed and still open, as
//! exported spans), cache statistics and the exported metrics.

use proptest::prelude::*;
use vds_smtsim::cache::CacheConfig;
use vds_smtsim::core::{
    Core, CoreConfig, FetchPolicy, RunOutcome, SavedContext, ThreadId, ThreadState,
};
use vds_smtsim::kernels::{self, Kernel};

fn kernel_for(pick: u64) -> Kernel {
    let size = (pick >> 8) % 64;
    let n = 8 + size as u32;
    match pick % 6 {
        0 => kernels::vecsum(n, 2),
        1 => kernels::crc(n, 2),
        2 => kernels::matmul(2 + (size % 4) as u32, 2),
        3 => {
            // pchase rejects lengths divisible by 7 (its stride trick)
            let len = 64 + size as u32;
            kernels::pchase(if len.is_multiple_of(7) { len + 1 } else { len }, n, 2)
        }
        4 => kernels::bsort(4 + (size % 8) as u32, 2),
        _ => kernels::control(n, 2),
    }
}

fn config_for(shape: u64) -> CoreConfig {
    let mut cfg = CoreConfig {
        issue_width: 1 + (shape % 3) as usize,
        mem_latency: 3 + ((shape >> 2) % 40) as u32,
        mispredict_penalty: ((shape >> 8) % 5) as u32,
        store_miss_latency: ((shape >> 11) % 6) as u32,
        ..CoreConfig::default()
    };
    if (shape >> 14).is_multiple_of(3) {
        cfg.dcache = CacheConfig::tiny();
        cfg.icache = CacheConfig::tiny();
    }
    cfg.fetch_policy = if (shape >> 16).is_multiple_of(2) {
        FetchPolicy::RoundRobin
    } else {
        FetchPolicy::ICount
    };
    cfg
}

/// Reference `run_until_all_blocked`: per-cycle checks, `step()` only.
fn ref_run_all(core: &mut Core, max_cycles: u64) -> RunOutcome {
    let deadline = core.cycles() + max_cycles;
    loop {
        for i in 0..core.thread_count() {
            if let ThreadState::Trapped(trap) = core.thread(ThreadId(i)).state {
                return RunOutcome::Trapped(ThreadId(i), trap);
            }
        }
        let states: Vec<ThreadState> = (0..core.thread_count())
            .map(|i| core.thread(ThreadId(i)).state)
            .collect();
        if !states
            .iter()
            .any(|s| matches!(s, ThreadState::Ready | ThreadState::StalledUntil(_)))
        {
            return if states.contains(&ThreadState::Yielded) {
                RunOutcome::AllYielded
            } else {
                RunOutcome::AllHalted
            };
        }
        if core.cycles() >= deadline {
            return RunOutcome::CycleBudgetExhausted;
        }
        core.step();
    }
}

/// Reference `run_until_thread_blocks`.
fn ref_run_thread(core: &mut Core, id: ThreadId, max_cycles: u64) -> RunOutcome {
    let deadline = core.cycles() + max_cycles;
    loop {
        match core.thread(id).state {
            ThreadState::Yielded => return RunOutcome::AllYielded,
            ThreadState::Halted => return RunOutcome::AllHalted,
            ThreadState::Trapped(trap) => return RunOutcome::Trapped(id, trap),
            _ => {}
        }
        if core.cycles() >= deadline {
            return RunOutcome::CycleBudgetExhausted;
        }
        core.step();
    }
}

/// Reference `run_until_any_blocks`: step until a live thread blocks.
fn ref_run_any(core: &mut Core, deadline: u64) {
    let blocked = |core: &Core| {
        (0..core.thread_count())
            .filter(|&i| !core.thread(ThreadId(i)).is_live())
            .count()
    };
    let before = blocked(core);
    while core.cycles() < deadline {
        core.step();
        if blocked(core) > before {
            return;
        }
    }
}

/// Everything a host can observe, rendered comparably.
fn observe(core: &Core) -> String {
    let mut rec = vds_obs::Recorder::new();
    core.export_metrics(&mut rec);
    core.export_spans(&mut rec);
    let spans: Vec<_> = rec.spans().records().cloned().collect();
    let threads: Vec<_> = (0..core.thread_count())
        .map(|i| {
            let t = core.thread(ThreadId(i));
            (t.state, t.pc, t.regs, t.counters, t.state_digest())
        })
        .collect();
    format!(
        "cycles={} threads={threads:?} spans={spans:?} i$={:?} d$={:?}\n{}",
        core.cycles(),
        core.icache_stats(),
        core.dcache_stats(),
        rec.registry().to_csv()
    )
}

/// Apply one scripted operation to both cores; `fast` runs through the
/// skipping loops, `reference` through `step()`.
fn apply(op: u64, fast: &mut Core, reference: &mut Core, kernels: &[Kernel; 3]) {
    let n = fast.thread_count();
    let t = ThreadId(((op >> 4) % n as u64) as usize);
    let arg = op >> 12;
    let budget = 1 + arg % 3_000;
    match op % 8 {
        0 | 1 => {
            let a = fast.run_until_all_blocked(budget);
            let b = ref_run_all(reference, budget);
            assert_eq!(a, b, "run_until_all_blocked outcome");
        }
        2 => {
            let a = fast.run_until_thread_blocks(t, budget);
            let b = ref_run_thread(reference, t, budget);
            assert_eq!(a, b, "run_until_thread_blocks outcome");
        }
        3 => {
            let deadline = fast.cycles() + budget;
            fast.run_until_any_blocks(deadline);
            ref_run_any(reference, deadline);
        }
        4 => {
            let cycles = arg % 300;
            fast.advance(cycles);
            for _ in 0..cycles {
                reference.step();
            }
        }
        5 => {
            // park (the OS charging a context switch) or resume a yield
            match fast.thread(t).state {
                ThreadState::Yielded if arg.is_multiple_of(2) => {
                    fast.resume(t);
                    reference.resume(t);
                }
                ThreadState::Ready | ThreadState::StalledUntil(_) | ThreadState::Yielded => {
                    let cycles = (arg % 200) as u32;
                    fast.park_thread(t, cycles);
                    reference.park_thread(t, cycles);
                }
                ThreadState::Halted | ThreadState::Trapped(_) => {}
            }
        }
        6 => {
            // context switch to a fresh instance of a (maybe) different kernel
            let k = &kernels[(arg % 3) as usize];
            let prog = k.program();
            let mut dmem = prog.data.clone();
            dmem.resize(k.dmem_words, 0);
            let state = if arg.is_multiple_of(5) {
                ThreadState::Yielded
            } else {
                ThreadState::Ready
            };
            for core in [&mut *fast, &mut *reference] {
                core.swap_context(
                    t,
                    SavedContext {
                        regs: [0; 16],
                        pc: prog.entry,
                        prog: prog.clone(),
                        dmem: dmem.clone(),
                        state,
                    },
                );
            }
        }
        _ => {
            // rewrite a text word: another word of the same text (a
            // valid instruction) or an arbitrary, usually illegal, word
            let len = fast.thread(t).prog.text.len();
            let idx = (arg % len as u64) as usize;
            let word = if arg.is_multiple_of(3) {
                (arg >> 8) as u32
            } else {
                fast.thread(t).prog.text[((arg >> 8) % len as u64) as usize]
            };
            fast.thread_mut(t).prog.text[idx] = word;
            reference.thread_mut(t).prog.text[idx] = word;
        }
    }
}

proptest! {
    #[test]
    fn fast_loops_equal_single_stepping(
        shape in any::<u64>(),
        picks in (any::<u64>(), any::<u64>(), any::<u64>()),
        record_windows in any::<bool>(),
        ops in prop::collection::vec(any::<u64>(), 4..24),
    ) {
        let kernels = [kernel_for(picks.0), kernel_for(picks.1), kernel_for(picks.2)];
        let cfg = config_for(shape);
        let mut fast = Core::new(cfg.clone());
        let mut reference = Core::new(cfg);
        for core in [&mut fast, &mut reference] {
            core.set_window_recording(record_windows);
            core.add_thread(&kernels[0].program(), kernels[0].dmem_words);
            core.add_thread(&kernels[1].program(), kernels[1].dmem_words);
        }
        for (i, &op) in ops.iter().enumerate() {
            apply(op, &mut fast, &mut reference, &kernels);
            prop_assert_eq!(
                observe(&fast),
                observe(&reference),
                "diverged after op {} ({:#x}) of {:x?}",
                i,
                op,
                ops
            );
        }
    }

    #[test]
    fn idle_skips_book_like_steps_with_three_threads(
        shape in any::<u64>(),
        parks in prop::collection::vec(0u32..400, 3..4),
        cycles in 0u64..2_000,
    ) {
        // Every thread parked for a different time: the skip must stop at
        // each wake-up in turn and book the stalls in between.
        let k = kernel_for(shape);
        let mut cfg = config_for(shape);
        cfg.max_threads = 3;
        let mut fast = Core::new(cfg.clone());
        let mut reference = Core::new(cfg);
        for core in [&mut fast, &mut reference] {
            core.set_window_recording(shape.is_multiple_of(2));
            for (i, &p) in parks.iter().enumerate() {
                let t = core.add_thread(&k.program(), k.dmem_words);
                core.park_thread(t, p);
                if i == 2 {
                    core.thread_mut(t).state = ThreadState::Yielded;
                }
            }
        }
        fast.advance(cycles);
        for _ in 0..cycles {
            reference.step();
        }
        prop_assert_eq!(observe(&fast), observe(&reference));
    }
}
