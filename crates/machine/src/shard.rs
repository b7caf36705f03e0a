//! Sharded deterministic execution: many tenant machines in parallel.
//!
//! A *tenant* is one complete simulated process — its own address space,
//! page tables, frame allocator, kernel locks and caches — so tenants
//! share no mappings by construction (the shard partitioning rule: a
//! shard boundary may only separate processes, never threads of one
//! process). A *shard* is a group of tenants executed serially by one
//! worker; tenant `t` belongs to shard `t % shards`, and shard `s` runs
//! on worker `s % jobs`.
//!
//! Execution advances in fixed virtual-time windows (see
//! [`numa_sim::WindowClock`]): within a window every worker advances its
//! tenants independently through [`Machine::run_until`]; at the window
//! barrier all cross-tenant coupling is reconciled:
//!
//! * **frame capacity** — tenants draw refills from a shared
//!   [`FrameLedger`] and yield spare capacity back; the ledger is served
//!   in tenant-id order (deposits first, then requests), so the sequence
//!   of grants and denials — and therefore every downstream allocation
//!   failure — never depends on how tenants were packed into shards;
//! * **L3 thrash** — per-window cache-miss deltas are *summed* (a
//!   commutative fold) and compared against a limit; crossing it flushes
//!   every running tenant's caches, modelling machine-wide LLC pollution;
//! * **progress** — the minimum next-event time across all tenants (a
//!   global, packing-invariant quantity) drives window advancement,
//!   jumping over empty windows without extra barrier rounds.
//!
//! A tenant retires in the window it drains: it publishes that window's
//! summary (its final ledger deposit included), then its outcome is
//! taken and its machine dropped, so later rounds cost only what the
//! live tenants cost. Summaries go into one reused buffer per worker, so
//! a round allocates nothing per tenant.
//!
//! Because every coupling is applied at fixed window boundaries in an
//! order keyed on tenant id (never shard or worker id), the run's output
//! — makespans, breakdowns, counters, trace order — is byte-identical
//! for any `shards` × `jobs` combination, including `shards = 1`, which
//! executes exactly today's single-threaded engine schedule per tenant.

use crate::engine::{EngineRun, RunResult, RunStats, ThreadSpec};
use crate::Machine;
use numa_sim::{merge_streams, SimTime, TraceEvent, WindowClock};
use numa_stats::{Counter, Counters};
use numa_topology::{NodeId, Topology};
use std::sync::{Arc, Barrier, Mutex};

/// One tenant's machine and workload, produced by the builder closure
/// *inside* a worker thread (a [`Machine`] is intentionally not `Send`:
/// it never crosses threads, only its plain-data results do).
pub struct TenantRun {
    /// The tenant's private simulated host.
    pub machine: Machine,
    /// Its simulated threads.
    pub threads: Vec<ThreadSpec>,
    /// Barrier team sizes for [`crate::Op::Barrier`] ops.
    pub barrier_sizes: Vec<usize>,
}

/// Shared frame-capacity pool configuration (the cross-tenant memory
/// pressure model). All quantities are frames per NUMA node.
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// Unassigned frames pooled per node at start (on top of the initial
    /// per-tenant slices).
    pub pool_frames_per_node: u64,
    /// Capacity each tenant's allocator starts with on every node.
    pub initial_frames_per_node: u64,
    /// A tenant with fewer free frames than this on a node requests a
    /// refill at the next barrier.
    pub low_free_frames: u64,
    /// Frames requested per refill.
    pub refill_frames: u64,
    /// Free-frame headroom a tenant keeps; surplus above it is yielded
    /// back to the pool at barriers (so munmapped memory recycles).
    pub keep_free_frames: u64,
}

/// Orchestrator configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards the tenant set is partitioned into (≥ 1).
    pub shards: usize,
    /// Worker threads (≥ 1; effective workers = min(jobs, shards)).
    pub jobs: usize,
    /// Window width override in ns; `None` derives it from the
    /// topology's conservative lookahead
    /// ([`Topology::min_cross_node_latency_ns`] ×
    /// [`numa_sim::WINDOW_LOOKAHEAD_MULTIPLE`]).
    pub window_ns: Option<u64>,
    /// Shared frame-capacity pool; `None` leaves every tenant on its
    /// preset bank capacities (no memory coupling).
    pub ledger: Option<LedgerConfig>,
    /// Machine-wide cache-miss-per-window limit; crossing it flushes all
    /// tenant caches at the barrier. 0 disables the thrash model.
    pub thrash_miss_limit: u64,
    /// Per-tenant trace buffer capacity (0 = tracing off).
    pub trace_capacity: usize,
}

impl ShardConfig {
    /// Single shard, single worker, no cross-tenant coupling — the
    /// configuration provably equivalent to running each tenant's
    /// [`Machine::run`] back to back.
    pub fn serial() -> Self {
        ShardConfig {
            shards: 1,
            jobs: 1,
            window_ns: None,
            ledger: None,
            thrash_miss_limit: 0,
            trace_capacity: 0,
        }
    }
}

/// Result of a sharded run: per-tenant results plus the deterministic
/// fold of everything cross-tenant, all independent of `shards`/`jobs`.
#[derive(Debug, Clone)]
pub struct ShardedRunResult {
    /// Maximum tenant makespan.
    pub makespan: SimTime,
    /// Barrier rounds executed.
    pub windows: u64,
    /// Empty windows jumped without a barrier round.
    pub windows_skipped: u64,
    /// Window width used, in ns.
    pub window_ns: u64,
    /// Per-tenant makespans, indexed by tenant id.
    pub tenant_makespans: Vec<SimTime>,
    /// Per-tenant engine results, indexed by tenant id.
    pub tenants: Vec<RunResult>,
    /// Engine stats folded over tenants in tenant-id order.
    pub stats: RunStats,
    /// Kernel counters folded over tenants in tenant-id order.
    pub kernel_counters: Counters,
    /// Satisfied ledger refill requests.
    pub ledger_grants: u64,
    /// Requests granted less than they asked (the pressure signal).
    pub ledger_denials: u64,
    /// Capacity returns to the pool.
    pub ledger_yields: u64,
    /// Windows that tripped the thrash limit and flushed all caches.
    pub flush_windows: u64,
    /// Merged trace, `(tenant_id, event)` ordered by
    /// `(time, tenant_id, emission order)`.
    pub trace: Vec<(usize, TraceEvent)>,
}

/// One tenant's entry in its worker's window buffer.
struct TenantSummary {
    id: usize,
    /// Next pending event time; `None` in the window the tenant drained.
    next_event: Option<SimTime>,
    /// Engine cache misses incurred this window.
    misses_delta: u64,
}

/// What one worker publishes at a window barrier: an entry per tenant it
/// ran this window, in ascending tenant id, and — with the ledger on —
/// `nodes` request and deposit slots per entry. The leader overwrites
/// each request slot with its grant, which the worker applies before its
/// next window. The buffer is reused across windows, so once it has grown
/// a barrier round allocates nothing per tenant, and each worker takes
/// its buffer's lock once per window.
#[derive(Default)]
struct WindowBuf {
    summaries: Vec<TenantSummary>,
    /// Refill wanted per node, replaced by the grant at the barrier.
    requests: Vec<u64>,
    /// Capacity already yielded per node (worker-side), to deposit.
    deposits: Vec<u64>,
}

/// Barrier-round state shared by all workers. Only ever touched by the
/// barrier leader between the two waits, and read-only by everyone after
/// the second wait, so one mutex suffices.
struct SharedState {
    clock: WindowClock,
    ledger: Option<numa_vm::FrameLedger>,
    flush: bool,
    stop: bool,
    flush_windows: u64,
}

/// Plain-data outcome a worker ships back for one tenant.
struct TenantOutcome {
    tenant: usize,
    result: RunResult,
    kernel_counters: Counters,
    trace: Vec<TraceEvent>,
}

/// A tenant resident on a worker, from its build until the window it
/// drains in; then it retires into a [`TenantOutcome`] and its machine is
/// dropped.
struct LiveTenant {
    id: usize,
    machine: Machine,
    run: EngineRun,
    last_misses: u64,
}

impl LiveTenant {
    fn retire(self: Box<Self>) -> TenantOutcome {
        TenantOutcome {
            tenant: self.id,
            result: self.run.finish(),
            kernel_counters: self.machine.kernel.counters.clone(),
            trace: self.machine.trace.snapshot(),
        }
    }
}

/// Run `tenant_count` tenants built by `build` (called with the tenant
/// id, from worker threads) under the windowed-barrier schedule.
///
/// `topo` supplies the lookahead for the default window width; tenants
/// are expected to be built over the same topology (same latency
/// matrix), which every provided workload does.
pub fn run_sharded<F>(
    topo: &Arc<Topology>,
    tenant_count: usize,
    cfg: &ShardConfig,
    build: F,
) -> ShardedRunResult
where
    F: Fn(usize) -> TenantRun + Sync,
{
    let shards = cfg.shards.max(1);
    let jobs = cfg.jobs.max(1);
    let width = cfg
        .window_ns
        .unwrap_or_else(|| WindowClock::width_for_lookahead(topo.min_cross_node_latency_ns()))
        .max(1);
    let nodes = topo.node_count();

    if tenant_count == 0 {
        return ShardedRunResult {
            makespan: SimTime::ZERO,
            windows: 0,
            windows_skipped: 0,
            window_ns: width,
            tenant_makespans: Vec::new(),
            tenants: Vec::new(),
            stats: RunStats::default(),
            kernel_counters: Counters::new(),
            ledger_grants: 0,
            ledger_denials: 0,
            ledger_yields: 0,
            flush_windows: 0,
            trace: Vec::new(),
        };
    }

    // Worker packing never reaches the output (all cross-tenant merges key
    // on tenant id), so clamp to the host like `threadpool::par_map` does:
    // workers beyond the CPU count only add barrier convoying.
    let workers = jobs
        .min(shards)
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1);
    let shared = Mutex::new(SharedState {
        clock: WindowClock::new(width),
        ledger: cfg
            .ledger
            .as_ref()
            .map(|l| numa_vm::FrameLedger::new(vec![l.pool_frames_per_node; nodes])),
        flush: false,
        stop: false,
        flush_windows: 0,
    });
    let window_bufs: Vec<Mutex<WindowBuf>> = (0..workers).map(|_| Mutex::default()).collect();
    let barrier = Barrier::new(workers);
    let outcomes: Mutex<Vec<TenantOutcome>> = Mutex::new(Vec::with_capacity(tenant_count));
    let build = &build;
    let shared = &shared;
    let window_bufs = &window_bufs;
    let barrier = &barrier;
    let outcomes = &outcomes;
    let ledger_cfg = cfg.ledger.clone();
    let thrash_limit = cfg.thrash_miss_limit;
    let trace_capacity = cfg.trace_capacity;

    std::thread::scope(|scope| {
        for me in 0..workers {
            let ledger_cfg = ledger_cfg.clone();
            scope.spawn(move || {
                // Tenants whose shard lands on this worker, ascending id.
                // Boxed so retiring one mid-list shifts pointers, not
                // whole machines.
                let mut mine: Vec<Box<LiveTenant>> = (0..tenant_count)
                    .filter(|t| (t % shards) % workers == me)
                    .map(|id| {
                        let TenantRun {
                            mut machine,
                            threads,
                            barrier_sizes,
                        } = build(id);
                        if let Some(l) = &ledger_cfg {
                            for n in 0..nodes {
                                machine
                                    .frames
                                    .set_capacity(NodeId(n as u16), l.initial_frames_per_node);
                            }
                        }
                        if trace_capacity > 0 {
                            machine.enable_trace(trace_capacity);
                        }
                        let run = machine.start_run(threads, &barrier_sizes);
                        Box::new(LiveTenant {
                            id,
                            machine,
                            run,
                            last_misses: 0,
                        })
                    })
                    .collect();
                let mut done: Vec<TenantOutcome> = Vec::with_capacity(mine.len());

                let mut horizon = SimTime(width);
                loop {
                    {
                        let mut buf = window_bufs[me].lock().expect("no worker panicked");
                        let WindowBuf {
                            summaries,
                            requests,
                            deposits,
                        } = &mut *buf;
                        // Apply last window's grants. Its entries that
                        // still had an event pending are exactly the live
                        // tenants, in the same order (the others retired).
                        let grants = summaries
                            .iter()
                            .zip(requests.chunks(nodes))
                            .filter(|(s, _)| s.next_event.is_some());
                        for ((s, grant), tenant) in grants.zip(mine.iter_mut()) {
                            debug_assert_eq!(s.id, tenant.id);
                            for (n, &g) in grant.iter().enumerate() {
                                if g > 0 {
                                    tenant.machine.frames.grant_capacity(NodeId(n as u16), g);
                                }
                            }
                        }
                        summaries.clear();
                        requests.clear();
                        deposits.clear();

                        // Live tenants are compacted to the front, in
                        // order; those that drained this window end up
                        // behind them and retire.
                        let mut live = 0;
                        for i in 0..mine.len() {
                            let LiveTenant {
                                id,
                                machine,
                                run,
                                last_misses,
                            } = &mut *mine[i];
                            let next = machine.run_until(run, Some(horizon));
                            let misses = run.stats().counters.get(Counter::CacheMisses);
                            summaries.push(TenantSummary {
                                id: *id,
                                next_event: next,
                                misses_delta: misses - *last_misses,
                            });
                            *last_misses = misses;
                            if let Some(l) = &ledger_cfg {
                                // A drained tenant hands back all its spare
                                // headroom; a running one keeps its
                                // configured cushion.
                                let keep = if next.is_none() {
                                    0
                                } else {
                                    l.keep_free_frames
                                };
                                for n in 0..nodes {
                                    let node = NodeId(n as u16);
                                    let free = machine.frames.free_on(node);
                                    deposits.push(if free > keep {
                                        machine.frames.yield_capacity(node, free - keep)
                                    } else {
                                        0
                                    });
                                    let low = next.is_some()
                                        && machine.frames.free_on(node) < l.low_free_frames;
                                    requests.push(if low { l.refill_frames } else { 0 });
                                }
                            }
                            if next.is_some() {
                                mine.swap(live, i);
                                live += 1;
                            }
                        }
                        done.extend(mine.drain(live..).map(|t| t.retire()));
                    }

                    if barrier.wait().is_leader() {
                        let mut sh = shared.lock().unwrap();
                        let sh = &mut *sh;
                        let mut bufs: Vec<_> = window_bufs
                            .iter()
                            .map(|b| (b.lock().expect("no worker panicked"), 0usize))
                            .collect();
                        let mut min_next: Option<SimTime> = None;
                        let mut miss_sum = 0u64;
                        // Miss sums, the next-event minimum and deposits
                        // are commutative, so any buffer order will do.
                        // Deposits go first, so capacity freed this window
                        // is grantable this window.
                        for (buf, _) in &bufs {
                            for s in &buf.summaries {
                                miss_sum += s.misses_delta;
                                if let Some(p) = s.next_event {
                                    min_next = Some(min_next.map_or(p, |m| m.min(p)));
                                }
                            }
                            if let Some(ledger) = &mut sh.ledger {
                                for (i, &d) in buf.deposits.iter().enumerate() {
                                    ledger.deposit(NodeId((i % nodes) as u16), d);
                                }
                            }
                        }
                        // Requests strictly in tenant-id order — a merge of
                        // the workers' ascending buffers: the grant
                        // sequence must not depend on packing.
                        if let Some(ledger) = &mut sh.ledger {
                            while let Some((_, b)) = bufs
                                .iter()
                                .enumerate()
                                .filter_map(|(b, (buf, i))| {
                                    buf.summaries.get(*i).map(|s| (s.id, b))
                                })
                                .min()
                            {
                                let (buf, i) = &mut bufs[b];
                                for (n, slot) in
                                    buf.requests[*i * nodes..][..nodes].iter_mut().enumerate()
                                {
                                    if *slot > 0 {
                                        *slot = ledger.request(NodeId(n as u16), *slot);
                                    }
                                }
                                *i += 1;
                            }
                        }
                        sh.flush = thrash_limit > 0 && miss_sum >= thrash_limit;
                        if sh.flush {
                            sh.flush_windows += 1;
                        }
                        match min_next {
                            None => sh.stop = true,
                            Some(m) => sh.clock.skip_to(m),
                        }
                    }
                    barrier.wait();

                    {
                        let sh = shared.lock().unwrap();
                        if sh.stop {
                            break;
                        }
                        horizon = sh.clock.horizon();
                        if sh.flush {
                            for tenant in &mut mine {
                                tenant.machine.flush_caches();
                            }
                        }
                    }
                }
                outcomes.lock().unwrap().append(&mut done);
            });
        }
    });

    let mut done = std::mem::take(&mut *outcomes.lock().unwrap());
    done.sort_by_key(|o| o.tenant);
    debug_assert_eq!(done.len(), tenant_count);

    // Fold everything in tenant-id order — float sums in the breakdown
    // are order-sensitive, so the order must be packing-invariant.
    let mut stats = RunStats::default();
    let mut kernel_counters = Counters::new();
    let mut makespan = SimTime::ZERO;
    let mut tenant_makespans = Vec::with_capacity(tenant_count);
    let mut trace_runs: Vec<Vec<(usize, TraceEvent)>> = Vec::with_capacity(tenant_count);
    let mut tenants = Vec::with_capacity(tenant_count);
    for o in done {
        stats.breakdown.merge(&o.result.stats.breakdown);
        stats.counters.merge(&o.result.stats.counters);
        kernel_counters.merge(&o.kernel_counters);
        makespan = makespan.max(o.result.makespan);
        tenant_makespans.push(o.result.makespan);
        trace_runs.push(o.trace.into_iter().map(|e| (o.tenant, e)).collect());
        tenants.push(o.result);
    }
    let trace = merge_streams(trace_runs, |(_, e)| e.at);

    let sh = shared.lock().unwrap();
    ShardedRunResult {
        makespan,
        windows: sh.clock.windows(),
        windows_skipped: sh.clock.skipped(),
        window_ns: width,
        tenant_makespans,
        tenants,
        stats,
        kernel_counters,
        ledger_grants: sh.ledger.as_ref().map_or(0, |l| l.grants()),
        ledger_denials: sh.ledger.as_ref().map_or(0, |l| l.denials()),
        ledger_yields: sh.ledger.as_ref().map_or(0, |l| l.yields()),
        flush_windows: sh.flush_windows,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemAccessKind, Op};
    use numa_vm::MemPolicy;

    fn tenant(id: usize) -> TenantRun {
        let mut machine = Machine::two_node();
        let buf = machine.alloc(16 * numa_vm::PAGE_SIZE, MemPolicy::FirstTouch);
        let pages = 4 + (id % 4) as u64;
        let threads = vec![ThreadSpec::scripted(
            numa_topology::CoreId((id % 2) as u16),
            vec![
                Op::ComputeNs(50 * (id as u64 + 1)),
                Op::write(buf, pages * numa_vm::PAGE_SIZE, MemAccessKind::Stream),
                Op::read(buf, pages * numa_vm::PAGE_SIZE, MemAccessKind::Random),
                Op::Munmap { addr: buf },
            ],
        )];
        TenantRun {
            machine,
            threads,
            barrier_sizes: Vec::new(),
        }
    }

    fn fingerprint(r: &ShardedRunResult) -> (u64, Vec<u64>, String, Vec<(usize, u64)>) {
        (
            r.makespan.ns(),
            r.tenant_makespans.iter().map(|t| t.ns()).collect(),
            format!("{:?}{:?}", r.stats.breakdown, r.stats.counters),
            r.trace.iter().map(|(t, e)| (*t, e.at.ns())).collect(),
        )
    }

    #[test]
    fn sharded_equals_serial_runs() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let n = 6;
        let sharded = run_sharded(&topo, n, &ShardConfig::serial(), tenant);
        // Reference: each tenant run monolithically.
        for id in 0..n {
            let TenantRun {
                mut machine,
                threads,
                barrier_sizes,
            } = tenant(id);
            let r = machine.run(threads, &barrier_sizes);
            assert_eq!(r.makespan, sharded.tenant_makespans[id], "tenant {id}");
            assert_eq!(
                format!("{:?}", r.stats.breakdown),
                format!("{:?}", sharded.tenants[id].stats.breakdown),
                "tenant {id} breakdown"
            );
        }
    }

    #[test]
    fn output_invariant_across_shards_and_jobs() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let n = 9;
        let cfg = |shards, jobs| ShardConfig {
            shards,
            jobs,
            window_ns: None,
            ledger: Some(LedgerConfig {
                pool_frames_per_node: 64,
                initial_frames_per_node: 8,
                low_free_frames: 4,
                refill_frames: 8,
                keep_free_frames: 16,
            }),
            thrash_miss_limit: 64,
            trace_capacity: 256,
        };
        let base = fingerprint(&run_sharded(&topo, n, &cfg(1, 1), tenant));
        for (s, j) in [(2, 1), (3, 2), (8, 4), (9, 9), (16, 3)] {
            let r = run_sharded(&topo, n, &cfg(s, j), tenant);
            assert_eq!(base, fingerprint(&r), "shards={s} jobs={j}");
        }
    }

    #[test]
    fn ledger_pressure_grants_and_recycles() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let cfg = ShardConfig {
            shards: 2,
            jobs: 2,
            window_ns: None,
            ledger: Some(LedgerConfig {
                // Initial slices cover the largest single-window touch
                // burst (7 pages) so refills stay watermark-driven; the
                // multitenant workload additionally enables the OOM-kill
                // policy so outright exhaustion degrades, not panics.
                pool_frames_per_node: 32,
                initial_frames_per_node: 8,
                low_free_frames: 4,
                refill_frames: 4,
                keep_free_frames: 6,
            }),
            thrash_miss_limit: 0,
            trace_capacity: 0,
        };
        let r = run_sharded(&topo, 4, &cfg, tenant);
        assert!(r.ledger_grants > 0, "tiny initial slices force refills");
        assert!(r.ledger_yields > 0, "munmap returns capacity");
        assert!(r.windows > 0);
    }

    #[test]
    fn empty_tenant_set() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let r = run_sharded(&topo, 0, &ShardConfig::serial(), tenant);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.windows, 0);
    }

    /// A tenant whose compute span grows geometrically with its id, so
    /// the tenant set drains across some 140 windows (25 µs to 926 µs)
    /// rather than in one: most barrier rounds run with some tenants
    /// already retired.
    fn staggered_tenant(id: usize) -> TenantRun {
        let mut machine = Machine::two_node();
        let buf = machine.alloc(16 * numa_vm::PAGE_SIZE, MemPolicy::FirstTouch);
        let pages = 2 + (id % 5) as u64;
        let threads = vec![ThreadSpec::scripted(
            numa_topology::CoreId((id % 2) as u16),
            vec![
                Op::write(buf, pages * numa_vm::PAGE_SIZE, MemAccessKind::Stream),
                Op::ComputeNs(400 * 3u64.pow((id % 8) as u32)),
                Op::read(buf, pages * numa_vm::PAGE_SIZE, MemAccessKind::Random),
                Op::ComputeNs(1_000 * id as u64),
                Op::write(buf, pages * numa_vm::PAGE_SIZE, MemAccessKind::Random),
                Op::Munmap { addr: buf },
            ],
        )];
        TenantRun {
            machine,
            threads,
            barrier_sizes: Vec::new(),
        }
    }

    fn staggered_cfg(shards: usize, jobs: usize, ledger: LedgerConfig) -> ShardConfig {
        ShardConfig {
            shards,
            jobs,
            window_ns: None,
            ledger: Some(ledger),
            thrash_miss_limit: 6,
            trace_capacity: 512,
        }
    }

    /// FNV-1a over the merged trace's `(tenant, event)` lines.
    fn trace_digest(trace: &[(usize, TraceEvent)]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (t, e) in trace {
            for b in format!("{t} {e}\n").bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Recorded before drained tenants retired mid-run (when every tenant
    /// stayed resident until the last window): ledger grants, denials and
    /// yields, flush windows, per-tenant makespans, merged trace length
    /// and digest.
    const STAGGERED_RECORD: (u64, u64, u64, u64, [u64; 12], usize, u64) = (
        15,
        80,
        34,
        7,
        [
            25160, 55580, 75040, 99300, 137960, 126960, 332140, 926120, 93900, 111760, 50920, 75180,
        ],
        497,
        0x1164_0e8a_bb1b_3576,
    );

    #[test]
    fn staggered_drains_match_recorded_run() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let ledger = LedgerConfig {
            pool_frames_per_node: 4,
            initial_frames_per_node: 6,
            low_free_frames: 5,
            refill_frames: 3,
            keep_free_frames: 6,
        };
        for shards in [1, 3, 8] {
            for jobs in [1, 2] {
                let cfg = staggered_cfg(shards, jobs, ledger.clone());
                let r = run_sharded(&topo, 12, &cfg, staggered_tenant);
                let makespans: Vec<u64> = r.tenant_makespans.iter().map(|t| t.ns()).collect();
                let got = (
                    r.ledger_grants,
                    r.ledger_denials,
                    r.ledger_yields,
                    r.flush_windows,
                    makespans.try_into().expect("12 tenants"),
                    r.trace.len(),
                    trace_digest(&r.trace),
                );
                assert_eq!(got, STAGGERED_RECORD, "shards={shards} jobs={jobs}");
            }
        }
    }

    #[test]
    fn drained_tenant_deposits_exactly_once() {
        // No refills and a cushion no tenant can exceed: the only ledger
        // traffic is each tenant's final deposit when it drains, one per
        // node (every node still has its whole slice free after munmap).
        let topo = Arc::new(numa_topology::presets::two_node());
        let hoard = LedgerConfig {
            pool_frames_per_node: 0,
            initial_frames_per_node: 8,
            low_free_frames: 0,
            refill_frames: 0,
            keep_free_frames: u64::MAX,
        };
        for shards in [1, 3, 8] {
            for jobs in [1, 2] {
                let cfg = staggered_cfg(shards, jobs, hoard.clone());
                let r = run_sharded(&topo, 12, &cfg, staggered_tenant);
                assert_eq!(r.ledger_grants, 0);
                assert_eq!(r.ledger_yields, 12 * 2, "shards={shards} jobs={jobs}");
            }
        }
    }
}
