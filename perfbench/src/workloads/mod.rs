//! The four workloads. Each drives the simulator's public API for one
//! fixed, seed-generated input and reports its virtual-time outputs as
//! digest cells, the counters its calls returned, and host timings.

pub mod churn;
pub mod lu;
pub mod migrate;
pub mod tier;

use crate::digest::Cell;
use crate::host;
use crate::trace::Tracer;
use numa_migrate::stats::{Counter, Counters};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["lu", "migrate", "churn", "tier"];

/// Workloads whose outputs do not depend on the seed (it only orders
/// their cells).
pub const SEED_FREE_OUTPUTS: [&str; 1] = ["lu"];

/// Counters whose sum is the pass's simulated work ("sim events").
pub const SIM_EVENT_COUNTERS: [Counter; 5] = [
    Counter::LocalAccesses,
    Counter::RemoteAccesses,
    Counter::PagesMovedSyscall,
    Counter::PagesMovedFault,
    Counter::PagesMovedProcess,
];

/// Simulated events in `c`: counted accesses plus pages moved by every
/// migration path.
pub fn sim_events(c: &Counters) -> u64 {
    SIM_EVENT_COUNTERS.iter().map(|&k| c.get(k)).sum()
}

/// Layer facts a pass reports besides its counters: what the sharded
/// engine and the machines said about themselves.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Micro-ops the engine ran on its lookahead fast path.
    pub fastpath_micros: u64,
    /// Largest page-table slab count seen.
    pub pt_slabs: u64,
    /// Sharded engine: barrier windows run and skipped.
    pub windows: u64,
    /// See [`Facts::windows`].
    pub windows_skipped: u64,
    /// Sharded engine: frame-ledger refills granted and denied.
    pub ledger_grants: u64,
    /// See [`Facts::ledger_grants`].
    pub ledger_denials: u64,
    /// Sharded engine: windows that flushed every tenant's caches.
    pub flush_windows: u64,
    /// Sharded engine: host workers, and the wall and CPU ns of the call.
    pub shard_workers: u64,
    /// See [`Facts::shard_workers`].
    pub shard_wall_ns: u64,
    /// See [`Facts::shard_workers`].
    pub shard_cpu_ns: u64,
}

/// Everything one pass over a workload's input produced.
pub struct Pass {
    /// Virtual-time outputs, checked against the expected digest.
    pub cells: Vec<Cell>,
    /// Engine and kernel counters of every machine the pass ran.
    pub counters: Counters,
    /// Layer facts.
    pub facts: Facts,
    /// Host ns spent setting up before the first timed call (plus, on
    /// `churn`, the tenant builds the sharded engine runs lazily).
    pub setup_ns: u64,
    /// Host wall ns from the first timed call to the end of the pass.
    pub wall_ns: u64,
    /// Process CPU ns over the same interval.
    pub cpu_ns: u64,
    /// The timed interval cut into its cells or phases, in the order the
    /// pass ran them: the wall and CPU ns of each. They sum to `wall_ns`
    /// and `cpu_ns`.
    pub laps: Vec<Lap>,
    /// The timed interval on the tracer's clock.
    pub timed_from_ns: u64,
    /// See [`Pass::timed_from_ns`].
    pub timed_to_ns: u64,
    /// Broken invariants the workload found, whatever the seed.
    pub problems: Vec<String>,
}

/// Wall and CPU ns of one cell or phase of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// Host wall ns.
    pub wall_ns: u64,
    /// Process CPU ns.
    pub cpu_ns: u64,
}

/// Splits a pass into its set-up and timed intervals, and the timed
/// interval into laps.
pub struct PassClock {
    setup_from: u64,
    timed_from: Option<(u64, u64)>,
    lap_from: (u64, u64),
    laps: Vec<Lap>,
}

impl PassClock {
    /// Set-up starts now.
    pub fn start(tr: &Tracer) -> PassClock {
        PassClock {
            setup_from: tr.now_ns(),
            timed_from: None,
            lap_from: (0, 0),
            laps: Vec::new(),
        }
    }

    /// Set-up is over; the first timed call follows.
    pub fn timed(&mut self, tr: &Tracer) {
        let now = (tr.now_ns(), host::cpu_ns());
        self.timed_from = Some(now);
        self.lap_from = now;
    }

    /// A cell or phase of the timed interval is over.
    pub fn lap(&mut self, tr: &Tracer) {
        let now = (tr.now_ns(), host::cpu_ns());
        self.laps.push(Lap {
            wall_ns: now.0 - self.lap_from.0,
            cpu_ns: now.1 - self.lap_from.1,
        });
        self.lap_from = now;
    }

    /// The pass is over.
    pub fn finish(
        mut self,
        tr: &Tracer,
        cells: Vec<Cell>,
        counters: Counters,
        facts: Facts,
    ) -> Pass {
        let (from, cpu_from) = self.timed_from.expect("PassClock::timed called");
        self.lap(tr);
        let (to, cpu_to) = self.lap_from;
        let mut cells = cells;
        cells.push(events_cell(&counters));
        Pass {
            cells,
            counters,
            facts,
            setup_ns: from - self.setup_from,
            wall_ns: to - from,
            cpu_ns: cpu_to - cpu_from,
            laps: self.laps,
            timed_from_ns: from,
            timed_to_ns: to,
            problems: Vec::new(),
        }
    }
}

/// The pass-wide cell: the sim-event counters and their sum.
fn events_cell(c: &Counters) -> Cell {
    Cell::new("events")
        .field("local_accesses", c.get(Counter::LocalAccesses))
        .field("remote_accesses", c.get(Counter::RemoteAccesses))
        .field("pages_moved_syscall", c.get(Counter::PagesMovedSyscall))
        .field("pages_moved_fault", c.get(Counter::PagesMovedFault))
        .field("pages_moved_process", c.get(Counter::PagesMovedProcess))
        .field("sim_events", sim_events(c))
}

/// Run one pass of workload `name` on the inputs of `seed`.
pub fn run(name: &str, seed: u64, tr: &Tracer) -> Pass {
    match name {
        "lu" => lu::run(seed, tr),
        "migrate" => migrate::run(seed, tr),
        "churn" => churn::run(seed, tr),
        "tier" => tier::run(seed, tr),
        other => panic!("unknown workload {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_events_is_the_sum_of_the_five_counters() {
        let mut c = Counters::new();
        for (i, k) in SIM_EVENT_COUNTERS.iter().enumerate() {
            c.add(*k, 10u64.pow(i as u32));
        }
        // Counters outside the five do not count.
        c.add(Counter::CacheHits, 1_000_000);
        c.add(Counter::TierPromotions, 1_000_000);
        assert_eq!(sim_events(&c), 11_111);
        let cell = events_cell(&c);
        let parts: u64 = cell.fields[..5].iter().map(|f| f.1).sum();
        assert_eq!(cell.fields[5], ("sim_events", parts));
    }
}
