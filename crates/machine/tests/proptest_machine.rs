//! Property-based tests for the machine engine: determinism, clock
//! monotonicity and placement invariants under randomized workloads.

use numa_machine::{Machine, MemAccessKind, Op, ThreadSpec};
use numa_topology::{CoreId, NodeId};
use numa_vm::{MemPolicy, VirtAddr, PAGE_SIZE};
use proptest::prelude::*;

/// A randomized multi-threaded workload over one shared buffer.
fn build_workload(
    m: &mut Machine,
    ops_per_thread: &[Vec<(u8, u64)>],
) -> (Vec<ThreadSpec>, VirtAddr) {
    let buf = m.alloc(64 * PAGE_SIZE, MemPolicy::FirstTouch);
    let ncores = m.topology().core_count() as u16;
    let specs = ops_per_thread
        .iter()
        .enumerate()
        .map(|(i, raw)| {
            let ops: Vec<Op> = raw
                .iter()
                .map(|(kind, arg)| match kind % 4 {
                    0 => Op::ComputeNs(arg % 10_000 + 1),
                    1 => Op::write(
                        buf + (arg % 60) * PAGE_SIZE,
                        2 * PAGE_SIZE,
                        MemAccessKind::Stream,
                    ),
                    2 => Op::read(
                        buf + (arg % 60) * PAGE_SIZE,
                        PAGE_SIZE,
                        MemAccessKind::Blocked,
                    ),
                    _ => Op::MadviseNextTouch {
                        range: numa_vm::PageRange::covering(
                            buf + (arg % 32) * PAGE_SIZE,
                            PAGE_SIZE,
                        ),
                    },
                })
                .collect();
            ThreadSpec::scripted(CoreId((i as u16 * 5) % ncores), ops)
        })
        .collect();
    (specs, buf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identical workloads produce bit-identical results: makespan,
    /// per-thread ends, full breakdown and counters.
    #[test]
    fn engine_is_deterministic(
        workload in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u64>()), 0..15),
            1..6,
        )
    ) {
        let run = || {
            let mut m = Machine::opteron_4p();
            let (specs, _) = build_workload(&mut m, &workload);
            let r = m.run(specs, &[]);
            (r.makespan, r.thread_end.clone(), r.stats.breakdown,
             m.kernel.counters.clone())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
    }

    /// Fault injection off must mean *off*: running with no injector at
    /// all, with an empty plan installed, and with a rate-0 chaos plan
    /// installed must produce bit-identical results — makespan, thread
    /// ends, breakdown and counters. This pins the disabled/vacuous fast
    /// path: consults at a decision point may never perturb timing,
    /// accounting or placement unless a fault actually fires.
    #[test]
    fn vacuous_fault_plans_are_byte_identical(
        workload in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u64>()), 0..12),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        use numa_sim::FaultPlan;
        let run = |plan: Option<FaultPlan>| {
            let mut m = Machine::opteron_4p();
            if let Some(plan) = plan {
                m.kernel.set_fault_plan(plan);
            }
            let (mut specs, buf) = build_workload(&mut m, &workload);
            // Exercise the syscall decision points too: one thread batch-
            // migrates half the buffer and then does a process-level
            // migration, so MovePagesCopy and MigratePagesCopy consult.
            let pages: Vec<_> = (0..32).map(|p| buf + p * PAGE_SIZE).collect();
            let n = pages.len();
            specs.push(ThreadSpec::scripted(
                CoreId(6),
                vec![
                    Op::MovePages { pages, dest: vec![NodeId(2); n] },
                    Op::MigratePages { from: vec![NodeId(0)], to: vec![NodeId(3)] },
                ],
            ));
            let r = m.run(specs, &[]);
            let placement: Vec<_> = (0..64)
                .map(|p| m.page_node(buf + p * PAGE_SIZE))
                .collect();
            (r.makespan, r.thread_end.clone(), r.stats.breakdown,
             m.kernel.counters.clone(), placement)
        };
        let disabled = run(None);
        let empty = run(Some(FaultPlan::new(seed)));
        let rate_zero = run(Some(FaultPlan::chaos(seed, 0)));
        prop_assert_eq!(&disabled, &empty, "empty plan diverged from no injector");
        prop_assert_eq!(&disabled, &rate_zero, "rate-0 plan diverged from no injector");
    }

    /// With *disjoint* footprints, a rival thread can only contend for
    /// shared resources, never help — so thread 0's end time with a rival
    /// is at least its solo end time. (With a shared buffer this is
    /// legitimately false: the rival may absorb thread 0's first-touch
    /// faults.)
    #[test]
    fn contention_never_speeds_up_disjoint_threads(
        solo_ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..12,),
        rival_ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..12,),
    ) {
        let build_disjoint = |m: &mut Machine, per_thread: &[Vec<(u8, u64)>]| -> Vec<ThreadSpec> {
            per_thread
                .iter()
                .enumerate()
                .map(|(i, raw)| {
                    let buf = m.alloc(64 * PAGE_SIZE, MemPolicy::FirstTouch);
                    let ops: Vec<Op> = raw
                        .iter()
                        .map(|(kind, arg)| match kind % 3 {
                            0 => Op::ComputeNs(arg % 10_000 + 1),
                            1 => Op::write(
                                buf + (arg % 60) * PAGE_SIZE,
                                2 * PAGE_SIZE,
                                MemAccessKind::Stream,
                            ),
                            _ => Op::read(
                                buf + (arg % 60) * PAGE_SIZE,
                                PAGE_SIZE,
                                MemAccessKind::Blocked,
                            ),
                        })
                        .collect();
                    // Same node so they genuinely contend.
                    ThreadSpec::scripted(CoreId(i as u16 % 4), ops)
                })
                .collect()
        };
        let solo_end = {
            let mut m = Machine::opteron_4p();
            let specs = build_disjoint(&mut m, std::slice::from_ref(&solo_ops));
            m.run(specs, &[]).thread_end[0]
        };
        let contended_end = {
            let mut m = Machine::opteron_4p();
            let specs = build_disjoint(&mut m, &[solo_ops.clone(), rival_ops.clone()]);
            m.run(specs, &[]).thread_end[0]
        };
        prop_assert!(
            contended_end >= solo_end,
            "a disjoint rival cannot make thread 0 faster: {contended_end:?} < {solo_end:?}"
        );
    }

    /// After any workload, the VM invariants hold and every mapped page
    /// is backed by a live frame.
    #[test]
    fn vm_invariants_after_random_runs(
        workload in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u64>()), 0..12),
            1..5,
        )
    ) {
        let mut m = Machine::opteron_4p();
        let (specs, _) = build_workload(&mut m, &workload);
        m.run(specs, &[]);
        m.space.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("vm invariant: {e}"))
        })?;
        let mapped = m.space.page_table.len() as u64;
        prop_assert_eq!(m.frames.live_total(), mapped, "one live frame per mapping");
        for (vpn, pte) in m.space.page_table.iter() {
            prop_assert!(m.frames.get(pte.frame).is_some(), "vpn {} dangling", vpn);
        }
    }

    /// First-touch placement: whatever the interleaving, every page of a
    /// first-touch buffer ends on the node of some thread that wrote it.
    #[test]
    fn first_touch_lands_on_a_toucher(core_picks in proptest::collection::vec(0u16..16, 1..5)) {
        let mut m = Machine::opteron_4p();
        let buf = m.alloc(8 * PAGE_SIZE, MemPolicy::FirstTouch);
        let toucher_nodes: Vec<NodeId> = core_picks
            .iter()
            .map(|c| m.topology().node_of_core(CoreId(*c)))
            .collect();
        let specs: Vec<ThreadSpec> = core_picks
            .iter()
            .map(|c| {
                ThreadSpec::scripted(
                    CoreId(*c),
                    vec![Op::write(buf, 8 * PAGE_SIZE, MemAccessKind::Stream)],
                )
            })
            .collect();
        m.run(specs, &[]);
        for p in 0..8u64 {
            let node = m.page_node(buf + p * PAGE_SIZE).unwrap();
            prop_assert!(
                toucher_nodes.contains(&node),
                "page {} on {:?}, touchers {:?}",
                p, node, toucher_nodes
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Internal consistency of the engine redesign: for a *single* thread
    /// (no concurrency to interleave), executing an access through the
    /// micro-op scheduler must cost exactly the same as the atomic
    /// convenience path — the expansion may not change single-thread
    /// semantics.
    #[test]
    fn micro_op_path_equals_atomic_path_single_thread(
        accesses in proptest::collection::vec((0u64..60, 1u64..3, any::<bool>()), 1..10)
    ) {
        use numa_machine::RunStats;
        use numa_sim::SimTime;

        // Through the engine (micro-ops).
        let engine_ns = {
            let mut m = Machine::opteron_4p();
            let buf = m.alloc(64 * PAGE_SIZE, MemPolicy::FirstTouch);
            let ops: Vec<Op> = accesses
                .iter()
                .map(|(page, pages, write)| Op::Access {
                    addr: buf + page * PAGE_SIZE,
                    bytes: pages * PAGE_SIZE,
                    traffic: pages * PAGE_SIZE,
                    write: *write,
                    kind: MemAccessKind::Blocked,
                })
                .collect();
            m.run(vec![ThreadSpec::scripted(CoreId(5), ops)], &[])
                .makespan
                .ns()
        };

        // Atomic path, same machine state evolution.
        let atomic_ns = {
            let mut m = Machine::opteron_4p();
            let buf = m.alloc(64 * PAGE_SIZE, MemPolicy::FirstTouch);
            let mut stats = RunStats::default();
            let mut t = SimTime::ZERO;
            for (page, pages, write) in &accesses {
                t = m.exec_access(
                    0,
                    CoreId(5),
                    t,
                    buf + page * PAGE_SIZE,
                    pages * PAGE_SIZE,
                    pages * PAGE_SIZE,
                    *write,
                    MemAccessKind::Blocked,
                    &mut stats,
                );
            }
            t.ns()
        };
        prop_assert_eq!(engine_ns, atomic_ns);
    }
}
