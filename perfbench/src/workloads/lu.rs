//! `lu`: the Table 1 blocked LU, static interleave and kernel next-touch,
//! on `table1::quick_cases()` — one fresh machine per cell, exactly as
//! the `table1` binary builds them. The engine and the per-touch access
//! model do almost all the work, across both block-size regimes. The seed
//! only shuffles the order the eight cells run in; their outputs do not
//! depend on it.

use super::{Facts, Pass, PassClock};
use crate::digest::Cell;
use crate::trace::Tracer;
use numa_migrate::apps::lu::{run_lu, LuConfig};
use numa_migrate::experiments::table1;
use numa_migrate::rt::MigrationStrategy;
use numa_migrate::sim::Splitmix64;
use numa_migrate::stats::{Counter, Counters};
use numa_migrate::topology::NodeId;
use numa_migrate::NumaSystem;

/// The two Table 1 policies, with the names cells and metrics use.
pub const STRATEGIES: [(MigrationStrategy, &str); 2] = [
    (MigrationStrategy::Static, "static"),
    (MigrationStrategy::KernelNextTouch, "next_touch"),
];

/// Name of the cell for one (strategy, n, bs).
pub fn cell_name(strategy: &str, n: u64, bs: u64) -> String {
    format!("{strategy}.n{n}.bs{bs}")
}

/// One pass: every (case, strategy) cell in seed order.
pub fn run(seed: u64, tr: &Tracer) -> Pass {
    let mut cells: Vec<(u64, u64, MigrationStrategy, &str)> = table1::quick_cases()
        .into_iter()
        .flat_map(|(n, bs)| STRATEGIES.map(|(s, name)| (n, bs, s, name)))
        .collect();
    Splitmix64::new(seed).shuffle(&mut cells);

    let mut clock = PassClock::start(tr);
    let machines: Vec<_> = (0..cells.len())
        .map(|i| {
            tr.set_cell(i);
            tr.span("core.build_machine", |_| 1, |_| NumaSystem::new().build())
        })
        .collect();
    clock.timed(tr);

    let mut out = Vec::new();
    let mut counters = Counters::new();
    let mut facts = Facts::default();
    for (i, ((n, bs, strategy, name), mut m)) in cells.into_iter().zip(machines).enumerate() {
        tr.set_cell(i);
        let r = tr.span(
            "apps.run_lu",
            |r: &numa_migrate::apps::lu::LuResult| accesses(&r.stats.counters),
            |_| run_lu(&mut m, &LuConfig::sweep(n, bs, strategy)),
        );
        let (e, k) = (&r.stats.counters, &r.kernel_counters);
        counters.merge(e);
        counters.merge(k);
        facts.fastpath_micros += m.fastpath_micros;
        facts.pt_slabs = facts.pt_slabs.max(m.space.page_table.stats().slabs);
        let mut cell = Cell::new(cell_name(name, n, bs))
            .field("makespan_ns", r.time.ns())
            .field("local_accesses", e.get(Counter::LocalAccesses))
            .field("remote_accesses", e.get(Counter::RemoteAccesses))
            .field("cache_hits", e.get(Counter::CacheHits))
            .field("cache_misses", e.get(Counter::CacheMisses))
            .field("next_touch_faults", k.get(Counter::NextTouchFaults))
            .field("pages_moved_fault", k.get(Counter::PagesMovedFault))
            .field("tlb_shootdowns", k.get(Counter::TlbShootdowns));
        for node in 0..4u16 {
            const RESIDENT: [&str; 4] = [
                "frames_node0",
                "frames_node1",
                "frames_node2",
                "frames_node3",
            ];
            cell = cell.field(RESIDENT[node as usize], m.frames.live_on(NodeId(node)));
        }
        out.push(cell);
        clock.lap(tr);
    }
    clock.finish(tr, out, counters, facts)
}

/// Counted accesses (local + remote) in engine counters.
pub fn accesses(c: &Counters) -> u64 {
    c.get(Counter::LocalAccesses) + c.get(Counter::RemoteAccesses)
}

/// Virtual seconds of the cell named `cell` in a pass, formatted the way
/// the `table1` binary prints them, for the cross-check against the
/// committed `results/table1.json`.
pub fn table1_rows(cells: &[Cell]) -> Vec<[String; 4]> {
    let secs = |name: &str| -> String {
        let ns = cells
            .iter()
            .find(|c| c.name == name)
            .and_then(|c| c.fields.iter().find(|f| f.0 == "makespan_ns"))
            .map_or(0, |f| f.1);
        numa_bench::secs(ns as f64 / 1e9)
    };
    table1::quick_cases()
        .into_iter()
        .map(|(n, bs)| {
            [
                format!("{}k x {}k", n / 1024, n / 1024),
                format!("{bs} x {bs}"),
                secs(&cell_name("static", n, bs)),
                secs(&cell_name("next_touch", n, bs)),
            ]
        })
        .collect()
}

/// Compare LU cells against the committed Table 1 quick results; one
/// message per differing entry.
pub fn check_table1(cells: &[Cell], table1_json: &str) -> Vec<String> {
    let doc = match numa_migrate::stats::Json::parse(table1_json) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("lu: results/table1.json does not parse: {e}")],
    };
    let committed: Vec<Vec<&str>> = doc
        .get("tables")
        .and_then(|t| t.as_arr())
        .and_then(|t| t.first())
        .and_then(|t| t.get("rows"))
        .and_then(|r| r.as_arr())
        .unwrap_or(&[])
        .iter()
        .map(|row| {
            row.as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str())
                .collect()
        })
        .collect();
    let ours = table1_rows(cells);
    if committed.len() != ours.len() {
        return vec![format!(
            "lu: results/table1.json has {} rows, the benchmark runs {}",
            committed.len(),
            ours.len()
        )];
    }
    let mut out = Vec::new();
    for (row, want) in ours.iter().zip(&committed) {
        for (col, got) in row.iter().enumerate() {
            if want.get(col) != Some(&got.as_str()) {
                out.push(format!(
                    "lu: table1 row {} x {}, column {col}: results/table1.json has {:?}, the benchmark computed {got:?}",
                    row[0],
                    row[1],
                    want.get(col)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_cells(static_ns: u64) -> Vec<Cell> {
        table1::quick_cases()
            .into_iter()
            .flat_map(|(n, bs)| {
                [
                    Cell::new(cell_name("static", n, bs)).field("makespan_ns", static_ns),
                    Cell::new(cell_name("next_touch", n, bs)).field("makespan_ns", 2 * static_ns),
                ]
            })
            .collect()
    }

    #[test]
    fn table1_rows_format_like_the_binary() {
        let rows = table1_rows(&fake_cells(330_000_000));
        assert_eq!(
            rows[0],
            ["2k x 2k", "64 x 64", "0.33 s", "0.66 s"].map(String::from)
        );
    }

    #[test]
    fn table1_check_names_the_differing_entry() {
        let json = r#"{"tables":[{"rows":[
            ["2k x 2k","64 x 64","0.33 s","0.66 s","x"],
            ["2k x 2k","128 x 128","0.33 s","0.66 s","x"],
            ["4k x 4k","512 x 512","0.33 s","0.66 s","x"],
            ["8k x 8k","512 x 512","0.33 s","0.67 s","x"]]}]}"#;
        let msgs = check_table1(&fake_cells(330_000_000), json);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].contains("8k x 8k") && msgs[0].contains("0.67 s"),
            "{msgs:?}"
        );
    }
}
