//! `churn`: multitenant tenant churn on the sharded engine, with the
//! default `TenantProfile` (workload seed from `--seed`), the frame ledger
//! on, 8 shards, and one host worker per CPU up to the shard count.
//!
//! Tenant builds, barrier rounds and ledger reconciliation dominate while
//! each tenant touches only 3–6 pages: thousands of one-thread machines,
//! the opposite shape from `lu` and `migrate`. The sharded engine builds
//! tenants lazily on its workers, so the builds cannot precede the timed
//! call; the pass times each build and reports their sum as set-up.

use super::{Facts, Pass, PassClock};
use crate::digest::Cell;
use crate::host;
use crate::trace::Tracer;
use numa_migrate::experiments::multitenant;
use numa_migrate::machine::run_sharded;
use numa_migrate::rt::tenant::{build_tenant, TenantProfile};
use numa_migrate::stats::{Counter, Counters};
use numa_migrate::topology::presets;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tenant processes per pass. The count sets the regime (ledger denials
/// and flush windows grow with it), so it is fixed here and recorded.
pub const TENANTS: usize = 4_000;
/// Shards the tenants are packed into.
pub const SHARDS: usize = 8;
/// Cohorts the digest folds tenants into (tenant id modulo this).
pub const COHORTS: usize = 10;

/// One pass: every tenant of the seed's profile, to completion.
pub fn run(seed: u64, tr: &Tracer) -> Pass {
    let mut clock = PassClock::start(tr);
    let topo = Arc::new(presets::opteron_4p());
    let profile = TenantProfile {
        seed,
        ..TenantProfile::default()
    };
    let workers = host::nproc().min(SHARDS);
    let cfg = multitenant::config(SHARDS, workers);
    let build_ns = AtomicU64::new(0);
    clock.timed(tr);

    let (wall0, cpu0) = (Instant::now(), host::cpu_ns());
    let r = tr.span(
        "machine.run_sharded",
        |_| TENANTS as u64,
        |parent| {
            run_sharded(&topo, TENANTS, &cfg, |id| {
                let t0 = Instant::now();
                let tenant = tr.child(
                    "rt.build_tenant",
                    parent,
                    |_| 1,
                    |_| build_tenant(&topo, id, &profile),
                );
                build_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                tenant
            })
        },
    );
    let facts = Facts {
        windows: r.windows,
        windows_skipped: r.windows_skipped,
        ledger_grants: r.ledger_grants,
        ledger_denials: r.ledger_denials,
        flush_windows: r.flush_windows,
        shard_workers: workers as u64,
        shard_wall_ns: wall0.elapsed().as_nanos() as u64,
        shard_cpu_ns: host::cpu_ns() - cpu0,
        ..Facts::default()
    };

    let mut cells: Vec<Cell> = (0..COHORTS)
        .map(|c| {
            let mut sum = [0u64; 5];
            for t in r.tenants.iter().skip(c).step_by(COHORTS) {
                let e = &t.stats.counters;
                sum[0] += 1;
                sum[1] += t.makespan.ns();
                sum[2] = sum[2].max(t.makespan.ns());
                sum[3] += e.get(Counter::LocalAccesses);
                sum[4] += e.get(Counter::RemoteAccesses);
            }
            Cell::new(format!("cohort{c}"))
                .field("tenants", sum[0])
                .field("makespan_sum_ns", sum[1])
                .field("makespan_max_ns", sum[2])
                .field("local_accesses", sum[3])
                .field("remote_accesses", sum[4])
        })
        .collect();
    let k = &r.kernel_counters;
    cells.push(
        Cell::new("shard")
            .field("makespan_ns", r.makespan.ns())
            .field("window_ns", r.window_ns)
            .field("windows", r.windows)
            .field("windows_skipped", r.windows_skipped)
            .field("ledger_grants", r.ledger_grants)
            .field("ledger_denials", r.ledger_denials)
            .field("ledger_yields", r.ledger_yields)
            .field("flush_windows", r.flush_windows)
            .field("frames_freed", k.get(Counter::FramesFreed))
            .field("oom_kills", k.get(Counter::OomKills))
            .field("tlb_shootdowns", k.get(Counter::TlbShootdowns)),
    );
    let mut counters = Counters::new();
    counters.merge(&r.stats.counters);
    counters.merge(k);
    let mut pass = clock.finish(tr, cells, counters, facts);
    pass.setup_ns += build_ns.into_inner();
    if r.tenants.len() != TENANTS {
        pass.problems.push(format!(
            "churn: seed {seed}: {} of {TENANTS} tenants reported",
            r.tenants.len()
        ));
    }
    pass
}
