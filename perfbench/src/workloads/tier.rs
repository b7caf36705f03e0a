//! `tier`: tiered promotion and the pressure ladder on `Tiered4p2`, the
//! only workload that reaches the `tier` crate and `kernel::pressure`.
//!
//! * capacity rounds: 4 readers scan a slow-resident hot set, then a
//!   `TierDaemon::wake` → `Machine::run` promotion round (and the same
//!   rounds without the daemon), as `tiering::capacity_sweep` runs them;
//! * transactional vs stop-the-world promotion under seeded writers, as
//!   `tiering::mechanism` runs it;
//! * the `pressure` sweep's cases: the `tier` strategy driven here
//!   (`ReclaimDaemon::wake` → `Machine::run`), the `sync` and
//!   `next_touch` strategies through `pressure::execute`.
//!
//! The code for the first three repeats the experiments' code with a
//! span around each call; tests pin it to the experiments' results.

use super::{Facts, Pass, PassClock};
use crate::digest::Cell;
use crate::trace::Tracer;
use numa_migrate::experiments::{chaos, pressure};
use numa_migrate::kernel::{KernelConfig, PressureSettings, WatchdogConfig};
use numa_migrate::machine::{Machine, MemAccessKind, Op, RunResult, ThreadSpec};
use numa_migrate::rt::Buffer;
use numa_migrate::sim::{FaultPlan, Splitmix64};
use numa_migrate::stats::{Counter, Counters};
use numa_migrate::tier::{ReclaimDaemon, ThresholdPolicy, TierDaemon};
use numa_migrate::topology::{presets, CoreId, CostModel, NodeId};
use numa_migrate::vm::{MemPolicy, VirtAddr, PAGE_SIZE};
use std::sync::Arc;

/// Hot-set sizes of the capacity rounds (the `tiering` quick sweep).
pub const HOT_PAGES: [u64; 3] = [1024, 4096, 8192];
/// DRAM pages per fast node on the capacity machine.
pub const DRAM_PAGES_PER_NODE: u64 = 512;
/// Read-then-promote rounds per capacity cell.
pub const ROUNDS: usize = 4;
/// Writer counts of the mechanism comparison.
pub const WRITERS: [usize; 2] = [1, 4];
/// Pages promoted under the writers, and the hot prefix they hammer.
pub const MECH_PAGES: u64 = 256;
/// See [`MECH_PAGES`].
pub const MECH_HOT: u64 = 64;
/// Store passes each writer makes over the hot prefix.
const WRITER_PASSES: usize = 40;
/// Occupancies of the pressure cases (the `pressure` quick sweep).
pub const OCCUPANCIES: [u32; 5] = [60, 75, 90, 100, 105];
const SLOW_NODE: NodeId = NodeId(4);

/// `Machine::run` in a span; the run's engine counters are added to
/// `eng`.
fn run_span(
    tr: &Tracer,
    eng: &mut Counters,
    m: &mut Machine,
    threads: Vec<ThreadSpec>,
) -> RunResult {
    let r = tr.span(
        "machine.run",
        |r: &RunResult| super::lu::accesses(&r.stats.counters),
        |_| m.run(threads, &[]),
    );
    eng.merge(&r.stats.counters);
    r
}

/// `pages` pages first-touched into the slow tier, with contention,
/// caches and heat reset for the timed phase.
fn slow_resident(tr: &Tracer, mut m: Machine, pages: u64) -> (Machine, VirtAddr) {
    let addr = m.alloc(pages * PAGE_SIZE, MemPolicy::Bind(SLOW_NODE));
    let op = Op::write(addr, pages * PAGE_SIZE, MemAccessKind::Stream);
    run_span(
        tr,
        &mut Counters::new(),
        &mut m,
        vec![ThreadSpec::scripted(CoreId(0), vec![op])],
    );
    m.reset_contention();
    m.flush_caches();
    m.heat.clear();
    (m, addr)
}

fn capacity_machine(tr: &Tracer) -> Machine {
    tr.span(
        "machine.new",
        |_| 1,
        |_| {
            let topo = presets::tiered_4p2_with(
                CostModel::default(),
                DRAM_PAGES_PER_NODE * PAGE_SIZE,
                1 << 30,
            );
            Machine::new(Arc::new(topo), KernelConfig::tiered())
        },
    )
}

/// One capacity cell: reader time (plus daemon time when `tiered`) over
/// [`ROUNDS`] rounds, and the promotions made.
fn capacity(
    tr: &Tracer,
    eng: &mut Counters,
    m: &mut Machine,
    addr: VirtAddr,
    hot: u64,
    tiered: bool,
) -> (u64, u64) {
    let mut daemon = TierDaemon::new(
        Box::new(ThresholdPolicy {
            promote_min: 4,
            demote_max: 0,
            max_moves: usize::MAX,
        }),
        true,
    );
    daemon.batch = usize::MAX;
    let mut total_ns = 0;
    for _ in 0..ROUNDS {
        m.flush_caches();
        m.reset_contention();
        let readers = (0..4u16)
            .map(|n| {
                let core = m.topology().cores_of_node(NodeId(n))[0];
                let op = Op::read(addr, hot * PAGE_SIZE, MemAccessKind::Random);
                ThreadSpec::scripted(core, vec![op])
            })
            .collect();
        total_ns += run_span(tr, eng, m, readers).makespan.ns();
        if tiered {
            let ops = tr.span(
                "tier.daemon_wake",
                |ops: &Vec<Op>| ops.len() as u64,
                |_| daemon.wake(m),
            );
            if !ops.is_empty() {
                let spec = ThreadSpec::scripted(CoreId(0), ops);
                total_ns += run_span(tr, eng, m, vec![spec]).makespan.ns();
            }
            m.decay_heat();
        }
    }
    (total_ns, m.kernel.counters.get(Counter::TierPromotions))
}

/// One mechanism cell: writers hammer the hot prefix while core 15
/// promotes the buffer. Returns the writers' completion time.
fn mechanism(
    tr: &Tracer,
    eng: &mut Counters,
    m: &mut Machine,
    addr: VirtAddr,
    writers: usize,
    seed: u64,
    txn: bool,
) -> (u64, RunResult) {
    let mut specs: Vec<ThreadSpec> = (0..writers)
        .map(|w| {
            let core = m.topology().cores_of_node(NodeId((w % 4) as u16))[w / 4];
            let mut order: Vec<u64> = (0..MECH_HOT).collect();
            Splitmix64::new(seed ^ (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .shuffle(&mut order);
            let ops = (0..WRITER_PASSES)
                .flat_map(|_| {
                    order
                        .iter()
                        .map(|&p| Op::write(addr + p * PAGE_SIZE, 64, MemAccessKind::Random))
                })
                .collect();
            ThreadSpec::scripted(core, ops)
        })
        .collect();
    let vpns = (0..MECH_PAGES)
        .map(|p| (addr + p * PAGE_SIZE).vpn())
        .collect();
    specs.push(ThreadSpec::scripted(
        CoreId(15),
        vec![Op::TierMigrate {
            pages: vpns,
            dest: NodeId(0),
            transactional: txn,
        }],
    ));
    let r = run_span(tr, eng, m, specs);
    let writer_ns = r.thread_end[..writers]
        .iter()
        .map(|t| t.ns())
        .max()
        .unwrap_or(0);
    (writer_ns, r)
}

/// The `pressure` sweep's tiered machine: DRAM shrunk to
/// `pressure::FRAMES_PER_NODE`, the whole pressure ladder on, a tight
/// watchdog, chaos injection at the sweep's rate.
fn pressure_machine(tr: &Tracer, seed: u64) -> Machine {
    tr.span(
        "machine.new",
        |_| 1,
        |_| {
            let settings = PressureSettings {
                watchdog: Some(WatchdogConfig {
                    window_ns: 50_000,
                    min_retries: 6,
                }),
                ..PressureSettings::enabled()
            };
            let topo = presets::tiered_4p2_with(
                CostModel::default(),
                pressure::FRAMES_PER_NODE * PAGE_SIZE,
                pressure::SLOW_FRAMES_PER_NODE * PAGE_SIZE,
            );
            let config = KernelConfig {
                pressure: settings,
                ..KernelConfig::tiered()
            };
            let mut m = Machine::new(Arc::new(topo), config);
            let nodes: Vec<NodeId> = m.topology().node_ids().collect();
            for n in nodes {
                m.frames
                    .set_watermarks(n, pressure::LOW_WATERMARK, pressure::MIN_WATERMARK);
            }
            m.kernel
                .set_fault_plan(FaultPlan::chaos(seed, pressure::INJECT_PPM));
            m
        },
    )
}

/// The `tier` strategy of a pressure case: populate past the watermarks,
/// one `kreclaimd` wake-up, then every thread streams its neighbour's
/// set. Fields match `pressure::PressureRow`.
fn reclaim_case(tr: &Tracer, eng: &mut Counters, m: &mut Machine, bufs: &[Buffer]) -> [u64; 8] {
    let cores = [CoreId(0), CoreId(4), CoreId(8), CoreId(12)];
    let populate = cores
        .iter()
        .zip(bufs)
        .map(|(c, b)| {
            ThreadSpec::scripted(*c, vec![Op::write(b.addr, b.len, MemAccessKind::Stream)])
        })
        .collect();
    let mut makespan_ns = run_span(tr, eng, m, populate).makespan.ns();
    let mut daemon = ReclaimDaemon::new(32, true);
    let ops = tr.span(
        "tier.reclaim_wake",
        |ops: &Vec<Op>| ops.len() as u64,
        |_| daemon.wake(m),
    );
    if !ops.is_empty() {
        makespan_ns += run_span(tr, eng, m, vec![ThreadSpec::scripted(CoreId(0), ops)])
            .makespan
            .ns();
    }
    let stream = cores
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let next = &bufs[(i + 1) % 4];
            ThreadSpec::scripted(
                *c,
                vec![Op::read(next.addr, next.len, MemAccessKind::Stream)],
            )
        })
        .collect();
    makespan_ns += run_span(tr, eng, m, stream).makespan.ns();
    let c = &m.kernel.counters;
    [
        makespan_ns,
        c.get(Counter::PagesMovedSyscall)
            + c.get(Counter::PagesMovedFault)
            + c.get(Counter::TierDemotions)
            + c.get(Counter::TierPromotions),
        c.get(Counter::PagesReclaimed) + c.get(Counter::TierDemotions),
        c.get(Counter::PagesEvacuated),
        c.get(Counter::OomKills),
        c.get(Counter::WatchdogFirings),
        c.get(Counter::MigrationsDegraded),
        c.get(Counter::MigrationRetries),
    ]
}

const PRESSURE_FIELDS: [&str; 8] = [
    "makespan_ns",
    "moved",
    "reclaimed",
    "evacuated",
    "oom_kills",
    "watchdog_firings",
    "degraded",
    "retried",
];

fn pressure_cell(strategy: &str, occ: u32, values: [u64; 8]) -> Cell {
    PRESSURE_FIELDS.iter().zip(values).fold(
        Cell::new(format!("pressure.{strategy}.occ{occ}")),
        |c, (k, v)| c.field(k, v),
    )
}

/// One pass over every cell, with the seed's writer orders and fault
/// plans.
pub fn run(seed: u64, tr: &Tracer) -> Pass {
    let mut clock = PassClock::start(tr);
    let mut cap = Vec::new();
    for hot in HOT_PAGES {
        for tiered in [true, false] {
            let (m, addr) = slow_resident(tr, capacity_machine(tr), hot);
            cap.push((hot, tiered, m, addr));
        }
    }
    let mut mech = Vec::new();
    for writers in WRITERS {
        for txn in [true, false] {
            let m = tr.span("machine.new", |_| 1, |_| Machine::tiered_4p2());
            let (m, addr) = slow_resident(tr, m, MECH_PAGES);
            mech.push((writers, txn, m, addr));
        }
    }
    let reclaim: Vec<(u32, Machine, Vec<Buffer>)> = OCCUPANCIES
        .iter()
        .map(|&occ| {
            let mut m = pressure_machine(tr, seed);
            let pages = pressure::FRAMES_PER_NODE * u64::from(occ) / 100;
            let bufs = (0..4)
                .map(|_| {
                    tr.span(
                        "rt.alloc",
                        |_| 1,
                        |_| Buffer::alloc(&mut m, pages * PAGE_SIZE),
                    )
                })
                .collect();
            (occ, m, bufs)
        })
        .collect();
    clock.timed(tr);

    let mut cells = Vec::new();
    let mut counters = Counters::new();
    let mut facts = Facts::default();
    let mut absorb = |m: &Machine, counters: &mut Counters| {
        counters.merge(&m.kernel.counters);
        facts.fastpath_micros += m.fastpath_micros;
        facts.pt_slabs = facts.pt_slabs.max(m.space.page_table.stats().slabs);
    };
    for (hot, tiered, mut m, addr) in cap {
        let kind = if tiered { "tiered" } else { "static" };
        tr.set_cell(cells.len());
        let (ns, promotions) = capacity(tr, &mut counters, &mut m, addr, hot, tiered);
        cells.push(
            Cell::new(format!("capacity.hot{hot}.{kind}"))
                .field("reader_ns", ns)
                .field("promotions", promotions),
        );
        absorb(&m, &mut counters);
        clock.lap(tr);
    }
    for (writers, txn, mut m, addr) in mech {
        tr.set_cell(cells.len());
        let (writer_ns, r) = mechanism(tr, &mut counters, &mut m, addr, writers, seed, txn);
        let mut all = m.kernel.counters.clone();
        all.merge(&r.stats.counters);
        cells.push(
            Cell::new(format!(
                "mechanism.w{writers}.{}",
                if txn { "txn" } else { "stw" }
            ))
            .field("writer_ns", writer_ns)
            .field("txn_commits", all.get(Counter::TierTxnCommits))
            .field("txn_aborts", all.get(Counter::TierTxnAborts))
            .field("stw_stalls", all.get(Counter::TierStwStalls))
            .field("promoted", all.get(Counter::TierPromotions)),
        );
        absorb(&m, &mut counters);
        clock.lap(tr);
    }
    let mut problems = Vec::new();
    for (occ, mut m, bufs) in reclaim {
        tr.set_cell(cells.len());
        let values = reclaim_case(tr, &mut counters, &mut m, &bufs);
        cells.push(pressure_cell("tier", occ, values));
        absorb(&m, &mut counters);
        // The audit `pressure::execute` asserts for its own cases.
        for p in chaos::check_invariants(&m) {
            problems.push(format!("tier: seed {seed}: pressure.tier.occ{occ}: {p}"));
        }
        clock.lap(tr);
    }
    for strategy in ["sync", "next_touch"] {
        for occ in OCCUPANCIES {
            tr.set_cell(cells.len());
            let row = tr.span(
                "core.pressure_case",
                |_| 1,
                |_| pressure::execute(strategy, occ, seed),
            );
            cells.push(pressure_cell(
                strategy,
                occ,
                [
                    row.makespan_ns,
                    row.moved,
                    row.reclaimed,
                    row.evacuated,
                    row.oom_kills,
                    row.watchdog_firings,
                    row.degraded,
                    row.retried,
                ],
            ));
            clock.lap(tr);
        }
    }
    let mut pass = clock.finish(tr, cells, counters, facts);
    pass.problems = problems;
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_migrate::experiments::tiering;

    #[test]
    fn capacity_rounds_match_the_tiering_experiment() {
        let tr = Tracer::new(false);
        let want = &tiering::capacity_sweep(&[1024], DRAM_PAGES_PER_NODE, ROUNDS)[0];
        for tiered in [true, false] {
            let (mut m, addr) = slow_resident(&tr, capacity_machine(&tr), 1024);
            let got = capacity(&tr, &mut Counters::new(), &mut m, addr, 1024, tiered);
            let ns = if tiered {
                want.tiered_ns
            } else {
                want.static_ns
            };
            assert_eq!(got.0, ns, "tiered={tiered}");
        }
    }

    #[test]
    fn mechanism_runs_match_the_tiering_experiment() {
        let tr = Tracer::new(false);
        let want = &tiering::mechanism(&[4], MECH_PAGES, MECH_HOT, 3)[0];
        let mut got = Vec::new();
        for txn in [true, false] {
            let (mut m, addr) = slow_resident(&tr, Machine::tiered_4p2(), MECH_PAGES);
            got.push(mechanism(&tr, &mut Counters::new(), &mut m, addr, 4, 3, txn).0);
        }
        assert_eq!(got, [want.txn_writer_ns, want.stw_writer_ns]);
    }

    #[test]
    fn reclaim_cases_match_the_pressure_experiment() {
        let tr = Tracer::new(false);
        for occ in [90, 105] {
            let want = pressure::execute("tier", occ, 5);
            let mut m = pressure_machine(&tr, 5);
            let pages = pressure::FRAMES_PER_NODE * u64::from(occ) / 100;
            let bufs: Vec<Buffer> = (0..4)
                .map(|_| Buffer::alloc(&mut m, pages * PAGE_SIZE))
                .collect();
            let got = reclaim_case(&tr, &mut Counters::new(), &mut m, &bufs);
            assert_eq!(
                got,
                [
                    want.makespan_ns,
                    want.moved,
                    want.reclaimed,
                    want.evacuated,
                    want.oom_kills,
                    want.watchdog_firings,
                    want.degraded,
                    want.retried,
                ],
                "occupancy {occ}"
            );
        }
    }
}
