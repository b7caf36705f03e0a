//! `migrate`: the paper's migration microbenchmarks, driven straight
//! through `Kernel`'s public syscalls on one large address space:
//!
//! 1. patched `move_pages` ping-pong in 512-page batches across the four
//!    nodes, [`ROUNDS`] times over the whole buffer;
//! 2. one whole-process `migrate_pages` under a node derangement;
//! 3. `madvise_next_touch` over the buffer, then `Kernel::handle_fault`
//!    called directly from remote cores (a fault storm, no scheduler);
//! 4. a short 4-thread `Machine::run` next-touch phase (the Figure 7
//!    contention shape);
//! 5. a `PageTable::walk_range` residency walk, which is also the output
//!    check: every page must sit where the plan put it;
//! 6. `munmap`.
//!
//! `kernel` and `vm` do nearly all the work; the per-touch cost model and
//! the ready queue almost none. The un-patched quadratic `move_pages` is
//! left out: its host scan is the modelled bug, not a path to make fast.

use super::{Facts, Pass, PassClock};
use crate::digest::Cell;
use crate::trace::Tracer;
use numa_migrate::kernel::FaultResolution;
use numa_migrate::machine::{MemAccessKind, Op, ThreadSpec};
use numa_migrate::rt::{setup, Buffer};
use numa_migrate::sim::{SimTime, Splitmix64};
use numa_migrate::stats::{Breakdown, Counter, Counters};
use numa_migrate::topology::{CoreId, NodeId};
use numa_migrate::vm::{PageRange, PAGE_SIZE};
use numa_migrate::NumaSystem;

/// Pages in the buffer (1 GiB of 4 KiB pages).
pub const PAGES: usize = 262_144;
/// Pages per `move_pages` call, and the block that moves as one.
pub const BATCH: usize = 512;
/// `move_pages` passes over the whole buffer.
pub const ROUNDS: usize = 4;
/// Faults per timed batch of the storm: one fault takes well under a
/// microsecond, too short to time alone.
pub const FAULT_BATCH: usize = 4_096;
/// Pages the 4-thread next-touch phase migrates.
pub const THREAD_PAGES: usize = 65_536;
/// Pages per timed `walk_range` call.
pub const WALK_CHUNK: usize = 65_536;
const NODES: u64 = 4;

/// The seed-generated input: every destination, and where each page must
/// end up.
struct Plan {
    /// Destination node of each batch, per `move_pages` round.
    moves: Vec<Vec<u16>>,
    /// `migrate_pages` target of each source node.
    derangement: [u16; 4],
    /// Faulting core of each batch-sized block in the storm.
    storm_cores: Vec<CoreId>,
    /// The node whose four cores run the threaded phase.
    thread_node: u16,
    /// Final node of every page.
    expected: Vec<u16>,
}

fn other_node(rng: &mut Splitmix64, cur: u16) -> u16 {
    ((u64::from(cur) + 1 + rng.below(NODES - 1)) % NODES) as u16
}

fn plan(seed: u64) -> Plan {
    let mut rng = Splitmix64::new(seed);
    let blocks = PAGES / BATCH;
    let mut block_node = vec![0u16; blocks];
    let moves = (0..ROUNDS)
        .map(|_| {
            block_node
                .iter_mut()
                .map(|n| {
                    *n = other_node(&mut rng, *n);
                    *n
                })
                .collect()
        })
        .collect();
    let mut derangement = [0u16, 1, 2, 3];
    while derangement
        .iter()
        .enumerate()
        .any(|(i, &n)| usize::from(n) == i)
    {
        rng.shuffle(&mut derangement);
    }
    block_node
        .iter_mut()
        .for_each(|n| *n = derangement[usize::from(*n)]);
    let storm_cores = block_node
        .iter_mut()
        .map(|n| {
            *n = other_node(&mut rng, *n);
            CoreId(*n * 4 + rng.below(4) as u16)
        })
        .collect();
    let thread_node = rng.below(NODES) as u16;
    let mut expected: Vec<u16> = block_node
        .iter()
        .flat_map(|&n| std::iter::repeat_n(n, BATCH))
        .collect();
    expected[..THREAD_PAGES].fill(thread_node);
    Plan {
        moves,
        derangement,
        storm_cores,
        thread_node,
        expected,
    }
}

/// One pass over the seed's plan.
pub fn run(seed: u64, tr: &Tracer) -> Pass {
    let mut clock = PassClock::start(tr);
    let plan = plan(seed);
    let mut m = tr.span("core.build_machine", |_| 1, |_| NumaSystem::new().build());
    let bytes = PAGES as u64 * PAGE_SIZE;
    let buf = tr.span("rt.alloc", |_| 1, |_| Buffer::alloc(&mut m, bytes));
    tr.span(
        "rt.populate",
        |_| PAGES as u64,
        |_| setup::populate_on_node(&mut m, &buf, NodeId(0)),
    );
    let addrs = buf.page_addrs();
    clock.timed(tr);

    let mut problems = Vec::new();
    let mut now = SimTime::ZERO;
    let mut counters = Counters::new();

    // 1. move_pages ping-pong.
    let (mut calls, mut moved) = (0u64, 0u64);
    for round in &plan.moves {
        for (chunk, &dest) in addrs.chunks(BATCH).zip(round) {
            let core = CoreId(dest * 4);
            let dests = vec![NodeId(dest); chunk.len()];
            let r = tr.span(
                "kernel.move_pages",
                |_| chunk.len() as u64,
                |_| {
                    m.kernel.move_pages(
                        &mut m.space,
                        &mut m.frames,
                        &mut m.tlb,
                        now,
                        core,
                        chunk,
                        &dests,
                    )
                },
            );
            let r = r.expect("move_pages over a mapped, populated buffer");
            now = r.outcome.end;
            calls += 1;
            moved += r.moved;
        }
    }
    let mut cells = vec![Cell::new("move_pages")
        .field("calls", calls)
        .field("moved", moved)
        .field("end_ns", now.ns())];

    clock.lap(tr);

    // 2. migrate_pages: every node to its image under the derangement.
    let from = [0u16, 1, 2, 3].map(NodeId);
    let to = plan.derangement.map(NodeId);
    let r = tr.span(
        "kernel.migrate_pages",
        |_| PAGES as u64,
        |_| {
            m.kernel.migrate_pages(
                &mut m.space,
                &mut m.frames,
                &mut m.tlb,
                now,
                CoreId(0),
                &from,
                &to,
            )
        },
    );
    let r = r.expect("migrate_pages with matching node sets");
    now = r.outcome.end;
    cells.push(
        Cell::new("migrate_pages")
            .field("moved", r.moved)
            .field("end_ns", now.ns()),
    );

    clock.lap(tr);

    // 3. Mark everything next-touch, then fault it in from remote cores.
    now = madvise(tr, &mut m, now, buf.page_range());
    let (mut faults, mut storm_moved, mut unresolved) = (0u64, 0u64, 0u64);
    let mut b = Breakdown::new();
    let blocks_per_batch = FAULT_BATCH / BATCH;
    for (batch, cores) in addrs
        .chunks(FAULT_BATCH)
        .zip(plan.storm_cores.chunks(blocks_per_batch))
    {
        tr.span(
            "kernel.handle_fault",
            |_| batch.len() as u64,
            |_| {
                for (block, &core) in batch.chunks(BATCH).zip(cores) {
                    for &addr in block {
                        let r = m.kernel.handle_fault(
                            &mut m.space,
                            &mut m.frames,
                            &mut m.tlb,
                            now,
                            core,
                            addr,
                            false,
                            &mut b,
                        );
                        faults += 1;
                        match r {
                            FaultResolution::Resolved { end, migrated, .. } => {
                                now = end;
                                storm_moved += u64::from(migrated);
                            }
                            _ => unresolved += 1,
                        }
                    }
                }
            },
        );
    }
    cells.push(
        Cell::new("nt_storm")
            .field("faults", faults)
            .field("moved", storm_moved)
            .field("unresolved", unresolved)
            .field("end_ns", now.ns()),
    );

    clock.lap(tr);

    // 4. Four threads of one node touch the marked head of the buffer.
    madvise(
        tr,
        &mut m,
        now,
        PageRange::new(
            buf.page_range().start_vpn,
            buf.page_range().start_vpn + THREAD_PAGES as u64,
        ),
    );
    m.reset_contention();
    let chunk = (THREAD_PAGES / 4) as u64 * PAGE_SIZE;
    let threads = (0..4u16)
        .map(|t| {
            let core = CoreId(plan.thread_node * 4 + t);
            let op = Op::read(
                buf.addr + u64::from(t) * chunk,
                chunk,
                MemAccessKind::Stream,
            );
            ThreadSpec::scripted(core, vec![op])
        })
        .collect();
    let faults_before = m.kernel.counters.get(Counter::PagesMovedFault);
    let r = tr.span(
        "machine.run",
        |r: &numa_migrate::machine::RunResult| super::lu::accesses(&r.stats.counters),
        |_| m.run(threads, &[]),
    );
    counters.merge(&r.stats.counters);
    cells.push(
        Cell::new("nt_threads")
            .field("makespan_ns", r.makespan.ns())
            .field(
                "local_accesses",
                r.stats.counters.get(Counter::LocalAccesses),
            )
            .field(
                "remote_accesses",
                r.stats.counters.get(Counter::RemoteAccesses),
            )
            .field(
                "moved",
                m.kernel.counters.get(Counter::PagesMovedFault) - faults_before,
            ),
    );

    clock.lap(tr);

    // 5. Residency walk: the output check of every phase above.
    let base = buf.page_range().start_vpn;
    let (mut hist, mut walked, mut misplaced) = ([0u64; 4], 0u64, 0u64);
    for start in (0..PAGES).step_by(WALK_CHUNK) {
        let range = PageRange::new(base + start as u64, base + (start + WALK_CHUNK) as u64);
        tr.span(
            "vm.walk_range",
            |n: &u64| *n,
            |_| {
                let mut n = 0u64;
                for (vpn, pte) in m.space.page_table.walk_range(range) {
                    let node = m.frames.node_of(pte.frame).0;
                    hist[usize::from(node)] += 1;
                    misplaced += u64::from(plan.expected[(vpn - base) as usize] != node);
                    n += 1;
                }
                walked += n;
                n
            },
        );
    }
    let pt_slabs = m.space.page_table.stats().slabs;
    cells.push(
        Cell::new("residency")
            .field("node0", hist[0])
            .field("node1", hist[1])
            .field("node2", hist[2])
            .field("node3", hist[3])
            .field("walked", walked)
            .field("misplaced", misplaced),
    );

    clock.lap(tr);

    // 6. Tear down.
    let r = tr.span(
        "kernel.munmap",
        |_| PAGES as u64,
        |_| {
            m.kernel.munmap(
                &mut m.space,
                &mut m.frames,
                &mut m.tlb,
                now,
                CoreId(0),
                buf.addr,
            )
        },
    );
    now = r.expect("munmap of a live mapping").end;
    let k = &m.kernel.counters;
    cells.push(
        Cell::new("kernel")
            .field("munmap_end_ns", now.ns())
            .field("next_touch_faults", k.get(Counter::NextTouchFaults))
            .field(
                "pages_marked_next_touch",
                k.get(Counter::PagesMarkedNextTouch),
            )
            .field("tlb_shootdowns", k.get(Counter::TlbShootdowns))
            .field("frames_freed", k.get(Counter::FramesFreed))
            .field("frames_live", m.frames.live_total()),
    );
    counters.merge(k);
    let facts = Facts {
        fastpath_micros: m.fastpath_micros,
        pt_slabs,
        ..Facts::default()
    };

    let want_moved = (ROUNDS * PAGES) as u64;
    for (ok, what) in [
        (
            moved == want_moved,
            format!("move_pages moved {moved} of {want_moved} pages"),
        ),
        (
            unresolved == 0,
            format!("{unresolved} storm faults did not resolve"),
        ),
        (
            walked == PAGES as u64,
            format!("residency walk saw {walked} of {PAGES} pages"),
        ),
        (
            misplaced == 0,
            format!("{misplaced} pages are not where the plan put them"),
        ),
        (
            m.frames.live_total() == 0,
            "munmap left frames live".to_string(),
        ),
    ] {
        if !ok {
            problems.push(format!("migrate: seed {seed}: {what}"));
        }
    }
    let mut pass = clock.finish(tr, cells, counters, facts);
    pass.problems = problems;
    pass
}

fn madvise(
    tr: &Tracer,
    m: &mut numa_migrate::machine::Machine,
    now: SimTime,
    range: PageRange,
) -> SimTime {
    let r = tr.span(
        "kernel.madvise_next_touch",
        |_| range.end_vpn - range.start_vpn,
        |_| {
            m.kernel
                .madvise_next_touch(&mut m.space, &mut m.tlb, now, CoreId(0), range)
        },
    );
    r.expect("kernel next-touch is on in the paper's kernel")
        .end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_always_moves_every_block_and_is_seeded() {
        let a = plan(7);
        for (prev, next) in std::iter::once(&vec![0u16; PAGES / BATCH])
            .chain(&a.moves)
            .zip(&a.moves)
        {
            assert!(prev.iter().zip(next).all(|(p, n)| p != n && *n < 4));
        }
        assert!(a
            .derangement
            .iter()
            .enumerate()
            .all(|(i, &n)| usize::from(n) != i));
        assert_eq!(a.expected.len(), PAGES);
        assert!(a.expected[..THREAD_PAGES]
            .iter()
            .all(|&n| n == a.thread_node));
        let b = plan(7);
        assert_eq!((a.moves, a.storm_cores), (b.moves, b.storm_cores));
        assert_ne!(plan(8).moves, plan(7).moves);
    }
}
