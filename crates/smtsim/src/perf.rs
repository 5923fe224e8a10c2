//! Per-thread performance counters.

/// Why a thread could not issue in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting on an instruction-cache miss.
    ICache,
    /// Waiting on a data-cache miss.
    DCache,
    /// Required functional unit busy (taken by another thread or a
    /// multi-cycle op).
    FuBusy,
    /// Issue width exhausted by higher-priority threads.
    Width,
    /// Recovering from a branch mispredict.
    BranchFlush,
    /// Thread is parked (yielded/halted) — not really a stall, counted
    /// separately for utilisation accounting.
    Parked,
}

/// Counters for one hardware thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles during which the thread existed (parked or not).
    pub cycles: u64,
    /// Cycles the thread issued an instruction.
    pub issued_cycles: u64,
    /// Stall cycles: instruction cache.
    pub stall_icache: u64,
    /// Stall cycles: data cache.
    pub stall_dcache: u64,
    /// Stall cycles: functional-unit contention.
    pub stall_fu: u64,
    /// Stall cycles: issue-width contention.
    pub stall_width: u64,
    /// Stall cycles: branch mispredict flush.
    pub stall_branch: u64,
    /// Cycles parked on `yield`/`halt`.
    pub parked: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

impl ThreadCounters {
    /// Record a stall of the given cause.
    #[inline]
    pub fn stall(&mut self, cause: StallCause) {
        self.stall_for(cause, 1);
    }

    /// Record `cycles` stall cycles of the given cause.
    #[inline]
    pub fn stall_for(&mut self, cause: StallCause, cycles: u64) {
        let slot = match cause {
            StallCause::ICache => &mut self.stall_icache,
            StallCause::DCache => &mut self.stall_dcache,
            StallCause::FuBusy => &mut self.stall_fu,
            StallCause::Width => &mut self.stall_width,
            StallCause::BranchFlush => &mut self.stall_branch,
            StallCause::Parked => &mut self.parked,
        };
        *slot += cycles;
    }

    /// Instructions per (active, non-parked) cycle.
    pub fn ipc(&self) -> f64 {
        let active = self.cycles.saturating_sub(self.parked);
        if active == 0 {
            0.0
        } else {
            self.retired as f64 / active as f64
        }
    }

    /// Fraction of the thread's lifetime cycles it issued an instruction
    /// (0.0 before the first cycle). Unlike [`ThreadCounters::ipc`] this
    /// includes parked cycles, so it is the hardware-thread utilisation a
    /// live dashboard wants: how much of the core's time this thread
    /// actually used.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued_cycles as f64 / self.cycles as f64
        }
    }

    /// Branch prediction accuracy (1.0 when no branches ran).
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Total stall cycles across causes (excluding parked).
    pub fn total_stalls(&self) -> u64 {
        self.stall_icache + self.stall_dcache + self.stall_fu + self.stall_width + self.stall_branch
    }

    /// Copy the cycle-accounting fields into an obs-side
    /// [`vds_obs::alpha::CycleSnapshot`] for differential α attribution.
    ///
    /// The snapshot obeys the conservation invariant
    /// `issued_cycles + stall_* + parked == cycles` (proptested in
    /// `tests/conservation.rs`), which is what makes ledger attribution
    /// exact.
    pub fn snapshot(&self) -> vds_obs::alpha::CycleSnapshot {
        vds_obs::alpha::CycleSnapshot {
            cycles: self.cycles,
            issued_cycles: self.issued_cycles,
            stall_icache: self.stall_icache,
            stall_dcache: self.stall_dcache,
            stall_fu: self.stall_fu,
            stall_width: self.stall_width,
            stall_branch: self.stall_branch,
            parked: self.parked,
        }
    }

    /// Flush every counter into a metrics registry under
    /// `<prefix>.<counter>` (e.g. `smt.thread0.retired`), plus derived
    /// `ipc` and `branch_accuracy` gauges. End-of-run export: generic
    /// over the facade, never feature-gated.
    pub fn export_metrics<R: vds_obs::Record>(&self, rec: &mut R, prefix: &str) {
        for (field, v) in [
            ("retired", self.retired),
            ("cycles", self.cycles),
            ("issued_cycles", self.issued_cycles),
            ("stall.icache", self.stall_icache),
            ("stall.dcache", self.stall_dcache),
            ("stall.fu", self.stall_fu),
            ("stall.width", self.stall_width),
            ("stall.branch", self.stall_branch),
            ("parked", self.parked),
            ("branches", self.branches),
            ("mispredicts", self.mispredicts),
            ("loads", self.loads),
            ("stores", self.stores),
        ] {
            rec.count(&format!("{prefix}.{field}"), v);
        }
        rec.gauge(&format!("{prefix}.ipc"), self.ipc());
        rec.gauge(&format!("{prefix}.utilization"), self.utilization());
        rec.gauge(&format!("{prefix}.branch_accuracy"), self.branch_accuracy());
    }
}

impl std::fmt::Display for ThreadCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retired={} cycles={} ipc={:.3} stalls[i$={} d$={} fu={} width={} br={}] parked={} bacc={:.3}",
            self.retired,
            self.cycles,
            self.ipc(),
            self.stall_icache,
            self.stall_dcache,
            self.stall_fu,
            self.stall_width,
            self.stall_branch,
            self.parked,
            self.branch_accuracy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_ignores_parked_cycles() {
        let mut c = ThreadCounters {
            retired: 50,
            cycles: 200,
            ..Default::default()
        };
        c.parked = 100;
        assert!((c.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ipc_of_empty_thread_is_zero() {
        assert_eq!(ThreadCounters::default().ipc(), 0.0);
    }

    #[test]
    fn stall_routing() {
        let mut c = ThreadCounters::default();
        c.stall(StallCause::ICache);
        c.stall(StallCause::DCache);
        c.stall(StallCause::DCache);
        c.stall(StallCause::FuBusy);
        c.stall(StallCause::Width);
        c.stall(StallCause::BranchFlush);
        c.stall(StallCause::Parked);
        assert_eq!(c.stall_icache, 1);
        assert_eq!(c.stall_dcache, 2);
        assert_eq!(c.total_stalls(), 6);
        assert_eq!(c.parked, 1);
    }

    #[test]
    fn utilization_counts_parked_time_against_the_thread() {
        let c = ThreadCounters {
            cycles: 200,
            issued_cycles: 50,
            parked: 100,
            ..Default::default()
        };
        assert!((c.utilization() - 0.25).abs() < 1e-12);
        assert_eq!(ThreadCounters::default().utilization(), 0.0);
        let mut rec = vds_obs::Recorder::new();
        c.export_metrics(&mut rec, "smt.thread0");
        assert_eq!(
            rec.registry().gauge_value("smt.thread0.utilization"),
            Some(0.25)
        );
    }

    #[test]
    fn branch_accuracy() {
        let c = ThreadCounters {
            branches: 10,
            mispredicts: 2,
            ..Default::default()
        };
        assert!((c.branch_accuracy() - 0.8).abs() < 1e-12);
        assert_eq!(ThreadCounters::default().branch_accuracy(), 1.0);
    }
}
