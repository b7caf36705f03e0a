//! Per-layer metrics of one traced pass, named after the crates.
//!
//! Times are span self time; counts come from the counters the calls
//! returned. Every workload reports every metric; a layer the workload
//! does not reach reads 0.

use crate::stats;
use crate::trace::{self, Span};
use crate::workloads::{lu::accesses, Pass};
use numa_migrate::stats::Counter;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("apps.run_lu.busy_s", "s"),
    ("apps.run_lu.ns_per_access.static.bs64", "ns/access"),
    ("apps.run_lu.ns_per_access.static.bs128", "ns/access"),
    ("apps.run_lu.ns_per_access.static.bs512", "ns/access"),
    ("apps.run_lu.ns_per_access.next_touch.bs64", "ns/access"),
    ("apps.run_lu.ns_per_access.next_touch.bs128", "ns/access"),
    ("apps.run_lu.ns_per_access.next_touch.bs512", "ns/access"),
    ("machine.run.calls", "count"),
    ("machine.run.busy_s", "s"),
    ("machine.run.ns_per_access", "ns/access"),
    ("machine.accesses", "count"),
    ("machine.fastpath_micros", "count"),
    ("machine.remote_ratio", "ratio"),
    ("machine.cache_hit_ratio", "ratio"),
    ("machine.shard.busy_s", "s"),
    ("machine.shard.windows", "count"),
    ("machine.shard.windows_skipped", "count"),
    ("machine.shard.ns_per_window", "ns/window"),
    ("machine.shard.ledger_grants", "count"),
    ("machine.shard.ledger_denials", "count"),
    ("machine.shard.ledger_grant_ratio", "ratio"),
    ("machine.shard.flush_windows", "count"),
    ("machine.shard.worker_utilisation", "ratio"),
    ("kernel.move_pages.calls", "count"),
    ("kernel.move_pages.busy_s", "s"),
    ("kernel.move_pages.ns_per_page", "ns/page"),
    ("kernel.move_pages.p50_us", "us"),
    ("kernel.move_pages.tail_us", "us"),
    ("kernel.migrate_pages.busy_s", "s"),
    ("kernel.migrate_pages.ns_per_page", "ns/page"),
    ("kernel.madvise_next_touch.busy_s", "s"),
    ("kernel.madvise_next_touch.ns_per_page", "ns/page"),
    ("kernel.handle_fault.busy_s", "s"),
    ("kernel.handle_fault.ns_per_fault", "ns/fault"),
    ("kernel.munmap.busy_s", "s"),
    ("kernel.munmap.ns_per_page", "ns/page"),
    ("kernel.next_touch_faults", "count"),
    ("kernel.pages_moved_fault", "count"),
    ("kernel.pages_moved_syscall", "count"),
    ("kernel.tlb_shootdowns", "count"),
    ("kernel.fault_migrate_ratio", "ratio"),
    ("kernel.tier_txn_commit_ratio", "ratio"),
    ("vm.walk_range.busy_s", "s"),
    ("vm.walk_range.ns_per_pte", "ns/pte"),
    ("vm.pt_slabs", "count"),
    ("rt.populate.busy_s", "s"),
    ("rt.populate.ns_per_page", "ns/page"),
    ("rt.build_tenant.calls", "count"),
    ("rt.build_tenant.busy_s", "s"),
    ("tier.daemon_wake.calls", "count"),
    ("tier.daemon_wake.busy_s", "s"),
    ("tier.reclaim_wake.calls", "count"),
    ("tier.reclaim_wake.busy_s", "s"),
    ("tier.promotions", "count"),
    ("tier.demotions", "count"),
    ("tier.pages_reclaimed", "count"),
    ("core.build_machine.busy_s", "s"),
    ("layer.apps.self_s", "s"),
    ("layer.machine.self_s", "s"),
    ("layer.kernel.self_s", "s"),
    ("layer.vm.self_s", "s"),
    ("layer.rt.self_s", "s"),
    ("layer.tier.self_s", "s"),
    ("layer.core.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.empty_span_ns", "ns"),
    ("trace.timer_overhead_s", "s"),
    ("trace.untraced_share", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Layers self time is charged to: the workspace crates the workloads
/// call.
const LAYERS: [&str; 7] = ["apps", "machine", "kernel", "vm", "rt", "tier", "core"];

/// Calls, self ns, work units and span durations of one span name.
#[derive(Default)]
struct Agg {
    calls: u64,
    self_ns: u64,
    units: u64,
    durs_us: Vec<f64>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of one traced pass (all but `trace.overhead_s`,
/// which needs the untraced passes too). `empty_span_ns` is the measured
/// cost of one empty span.
pub fn metrics(pass: &Pass, spans: &[Span], empty_span_ns: f64) -> BTreeMap<String, f64> {
    let self_ns = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut lu_class: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&self_ns) {
        let a = by_name.entry(s.name).or_default();
        a.calls += 1;
        a.self_ns += own;
        a.units += s.units;
        a.durs_us.push((s.end_ns - s.start_ns) as f64 / 1e3);
        *by_layer.entry(s.layer()).or_default() += own;
        if s.name == "apps.run_lu" {
            // Cell names are `<strategy>.n<n>.bs<bs>`.
            let cell = &pass.cells[s.cell as usize].name;
            let (strategy, rest) = cell.split_once('.').unwrap_or((cell, ""));
            let bs = rest.rsplit('.').next().unwrap_or("");
            let c = lu_class.entry(format!("{strategy}.{bs}")).or_default();
            c.0 += own;
            c.1 += s.units;
        }
    }
    let empty = Agg::default();
    let agg = |name: &str| by_name.get(name).unwrap_or(&empty);
    let busy_s = |name: &str| agg(name).self_ns as f64 / 1e9;
    let per_unit = |name: &str| ratio(agg(name).self_ns, agg(name).units);

    let c = &pass.counters;
    let f = &pass.facts;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("apps.run_lu.busy_s", busy_s("apps.run_lu"));
    for (class, (ns, units)) in &lu_class {
        put(
            &format!("apps.run_lu.ns_per_access.{class}"),
            ratio(*ns, *units),
        );
    }
    put("machine.run.calls", agg("machine.run").calls as f64);
    put("machine.run.busy_s", busy_s("machine.run"));
    put("machine.run.ns_per_access", per_unit("machine.run"));
    put("machine.accesses", accesses(c) as f64);
    put("machine.fastpath_micros", f.fastpath_micros as f64);
    put(
        "machine.remote_ratio",
        ratio(c.get(Counter::RemoteAccesses), accesses(c)),
    );
    let (hits, misses) = (c.get(Counter::CacheHits), c.get(Counter::CacheMisses));
    put("machine.cache_hit_ratio", ratio(hits, hits + misses));
    put("machine.shard.busy_s", busy_s("machine.run_sharded"));
    put("machine.shard.windows", f.windows as f64);
    put("machine.shard.windows_skipped", f.windows_skipped as f64);
    put(
        "machine.shard.ns_per_window",
        ratio(agg("machine.run_sharded").self_ns, f.windows),
    );
    put("machine.shard.ledger_grants", f.ledger_grants as f64);
    put("machine.shard.ledger_denials", f.ledger_denials as f64);
    put(
        "machine.shard.ledger_grant_ratio",
        ratio(f.ledger_grants, f.ledger_grants + f.ledger_denials),
    );
    put("machine.shard.flush_windows", f.flush_windows as f64);
    put(
        "machine.shard.worker_utilisation",
        ratio(f.shard_cpu_ns, f.shard_wall_ns * f.shard_workers),
    );
    let mp = agg("kernel.move_pages");
    put("kernel.move_pages.calls", mp.calls as f64);
    put("kernel.move_pages.busy_s", busy_s("kernel.move_pages"));
    put(
        "kernel.move_pages.ns_per_page",
        per_unit("kernel.move_pages"),
    );
    put(
        "kernel.move_pages.p50_us",
        stats::percentile(&mp.durs_us, 50.0),
    );
    put(
        "kernel.move_pages.tail_us",
        stats::tail(&mp.durs_us).map_or(0.0, |(_, v)| v),
    );
    for (call, unit) in [
        ("migrate_pages", "page"),
        ("madvise_next_touch", "page"),
        ("handle_fault", "fault"),
        ("munmap", "page"),
    ] {
        let name = format!("kernel.{call}");
        put(&format!("{name}.busy_s"), busy_s(&name));
        put(&format!("{name}.ns_per_{unit}"), per_unit(&name));
    }
    put(
        "kernel.next_touch_faults",
        c.get(Counter::NextTouchFaults) as f64,
    );
    put(
        "kernel.pages_moved_fault",
        c.get(Counter::PagesMovedFault) as f64,
    );
    put(
        "kernel.pages_moved_syscall",
        c.get(Counter::PagesMovedSyscall) as f64,
    );
    put(
        "kernel.tlb_shootdowns",
        c.get(Counter::TlbShootdowns) as f64,
    );
    put(
        "kernel.fault_migrate_ratio",
        ratio(
            c.get(Counter::PagesMovedFault),
            c.get(Counter::NextTouchFaults),
        ),
    );
    let (commits, aborts) = (
        c.get(Counter::TierTxnCommits),
        c.get(Counter::TierTxnAborts),
    );
    put(
        "kernel.tier_txn_commit_ratio",
        ratio(commits, commits + aborts),
    );
    put("vm.walk_range.busy_s", busy_s("vm.walk_range"));
    put("vm.walk_range.ns_per_pte", per_unit("vm.walk_range"));
    put("vm.pt_slabs", f.pt_slabs as f64);
    put("rt.populate.busy_s", busy_s("rt.populate"));
    put("rt.populate.ns_per_page", per_unit("rt.populate"));
    put("rt.build_tenant.calls", agg("rt.build_tenant").calls as f64);
    put("rt.build_tenant.busy_s", busy_s("rt.build_tenant"));
    for call in ["daemon_wake", "reclaim_wake"] {
        let name = format!("tier.{call}");
        put(&format!("{name}.calls"), agg(&name).calls as f64);
        put(&format!("{name}.busy_s"), busy_s(&name));
    }
    put("tier.promotions", c.get(Counter::TierPromotions) as f64);
    put("tier.demotions", c.get(Counter::TierDemotions) as f64);
    put(
        "tier.pages_reclaimed",
        c.get(Counter::PagesReclaimed) as f64,
    );
    put("core.build_machine.busy_s", busy_s("core.build_machine"));
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        put(&format!("layer.{layer}.self_s"), ns as f64 / 1e9);
    }
    put("trace.spans", spans.len() as f64);
    put("trace.empty_span_ns", empty_span_ns);
    put(
        "trace.timer_overhead_s",
        spans.len() as f64 * empty_span_ns / 1e9,
    );
    put(
        "trace.untraced_share",
        trace::uncovered_share(spans, pass.timed_from_ns, pass.timed_to_ns),
    );
    // Metrics this workload does not reach read 0.
    for (name, _) in PER_LAYER {
        m.entry(name.to_string()).or_insert(0.0);
    }
    m
}
