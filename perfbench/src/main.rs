//! The simulator's host-time benchmark of record.
//!
//! ```text
//! perfbench --workload <lu|migrate|churn|tier|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record        # print the expected digests of the default seed
//! ```
//!
//! Each run first replays the default seed and checks every cell against
//! `expected.txt` (this also warms the process up), then repeats passes
//! over the inputs of `--seed` for `--seconds`, checking that every pass
//! reproduces the first one. `lu`, whose outputs do not depend on the
//! seed, checks every pass against `expected.txt` instead. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it is a report with the host fingerprint,
//! quartiles, sample counts and any failure messages. See README.md.

mod calib;
mod digest;
mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use numa_migrate::stats::Json;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Lap, Pass};

/// The seed whose digests `expected.txt` stores.
const DEFAULT_SEED: u64 = 0;
/// The documented hold-out seed: no digest is stored for it, so it is
/// checked, like every non-default seed, for run-to-run equality.
const HOLDOUT_SEED: u64 = 7;
/// Expected digests of the default seed.
const EXPECTED: &str = include_str!("../expected.txt");
/// The committed Table 1 quick results the `lu` cells must reproduce.
const TABLE1_JSON: &str = include_str!("../../results/table1.json");
/// Passes each measured kind (untraced, traced) gets at least.
const MIN_PASSES: usize = 3;
/// No pass starts after this many seconds, whatever `--seconds` says.
const MAX_SECONDS: f64 = 120.0;
/// Failure messages printed in a report.
const MAX_MESSAGES: usize = 20;

/// End-to-end metrics and their units.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_events_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--record" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = num()?,
            "--seconds" => out.seconds = num()?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload != "all" && !workloads::NAMES.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?} or all, not {:?}",
            workloads::NAMES,
            out.workload
        ));
    }
    Ok(Some(out))
}

/// Cells attempted and failed, with the messages of the failures.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Check {
    fn compare(&mut self, workload: &str, want: &digest::Digest, got: &digest::Digest) {
        self.attempted += want.len().max(got.len()) as u64;
        for m in digest::diff(workload, want, got) {
            self.failed += 1;
            m.messages.into_iter().for_each(|msg| self.note(msg));
        }
    }

    fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(message);
    }

    /// Keep each distinct message once: a moved field fails every pass.
    fn note(&mut self, message: String) {
        if !self.messages.contains(&message) {
            self.messages.push(message);
        }
    }
}

/// Run one pass, turning a panic into a failed cell.
fn guarded(workload: &str, seed: u64, tr: &Tracer, check: &mut Check) -> Option<Pass> {
    let pass = catch_unwind(AssertUnwindSafe(|| workloads::run(workload, seed, tr)));
    match pass {
        Ok(pass) => {
            for p in &pass.problems {
                check.fail(p.clone());
            }
            Some(pass)
        }
        Err(e) => {
            let what = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            check.fail(format!("{workload}: seed {seed}: pass panicked: {what}"));
            None
        }
    }
}

/// Seconds of each lap of `pass`, read by `f`.
fn lap_secs(pass: &Pass, f: fn(&Lap) -> u64) -> Vec<f64> {
    pass.laps.iter().map(|l| f(l) as f64 / 1e9).collect()
}

/// A metric's reported value beside the median, quartiles and tail of its
/// per-pass samples, for the report.
fn summary(value: f64, samples: &[f64], unit: &str) -> Json {
    let q = stats::quartiles(samples);
    let mut j = Json::obj()
        .set("value", value)
        .set("median", stats::median(samples))
        .set("unit", unit)
        .set("n", samples.len())
        .set("q1", q[0])
        .set("q3", q[2]);
    j = match stats::tail(samples) {
        Some((p, v)) => j.set("tail_pct", p).set("tail", v),
        None => j.set("tail_pct", Json::Null).set("tail", Json::Null),
    };
    j
}

/// One workload's measurement: the report line and the result object.
struct Outcome {
    report: Json,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn measure(workload: &str, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let load_before = host::loadavg();
    let mut check = Check::default();
    let expected = digest::parse(EXPECTED).expect("expected.txt parses");
    let want = expected.get(workload).cloned().unwrap_or_default();

    // Every pass must reproduce the first one. Where the outputs do not
    // depend on the seed, the first one is the stored digest; otherwise a
    // pass of the default seed is checked against the stored digest first.
    let mut first: Option<digest::Digest> = None;
    if workloads::SEED_FREE_OUTPUTS.contains(&workload) {
        first = Some(want.clone());
    } else if let Some(pass) = guarded(workload, DEFAULT_SEED, &Tracer::new(false), &mut check) {
        check.compare(workload, &want, &digest::digest(&pass.cells));
    }

    let empty_span_ns = if traced {
        trace::empty_span_ns(20)
    } else {
        0.0
    };
    let mut plain: Vec<Pass> = Vec::new();
    let mut layer_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut traced_laps: Vec<Vec<f64>> = Vec::new();
    let mut ref_units: Vec<f64> = Vec::new();
    let (mut ref_ns, mut pass_ns) = (0u64, 0u64);
    let start = Instant::now();
    for i in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = plain.len() >= MIN_PASSES && (!traced || traced_laps.len() >= MIN_PASSES);
        if (elapsed >= seconds as f64 && enough) || elapsed >= MAX_SECONDS {
            break;
        }
        let tracing = traced && i % 2 == 1;
        let tr = Tracer::new(tracing);
        let Some(pass) = guarded(workload, seed, &tr, &mut check) else {
            break;
        };
        if workload == "lu" && i == 0 {
            for m in workloads::lu::check_table1(&pass.cells, TABLE1_JSON) {
                check.fail(m);
            }
        }
        let got = digest::digest(&pass.cells);
        match &first {
            None => {
                check.attempted += got.len() as u64;
                first = Some(got);
            }
            Some(reference) => check.compare(workload, reference, &got),
        }
        // Reference units after every pass, one twentieth of the time.
        pass_ns += pass.wall_ns;
        loop {
            let ns = calib::unit_ns();
            ref_units.push(ns as f64 / 1e9);
            ref_ns += ns;
            if ref_ns * 20 >= pass_ns {
                break;
            }
        }
        if tracing {
            traced_laps.push(lap_secs(&pass, |l| l.wall_ns));
            for (k, v) in layers::metrics(&pass, &tr.into_spans(), empty_span_ns) {
                layer_samples.entry(k).or_default().push(v);
            }
        } else {
            plain.push(pass);
        }
    }

    // Times are those of a quiet pass (see `stats::quiet_pass`), rescaled
    // to the reference speed (see `calib`): the host is shared, and the
    // median pass moves with its neighbours' load.
    let slowdown = stats::fastest_tenth(&ref_units) / calib::REFERENCE_S;
    let secs =
        |f: fn(&Pass) -> u64| -> Vec<f64> { plain.iter().map(|p| f(p) as f64 / 1e9).collect() };
    let laps =
        |f: fn(&Lap) -> u64| -> Vec<Vec<f64>> { plain.iter().map(|p| lap_secs(p, f)).collect() };
    let wall = secs(|p| p.wall_ns);
    let quiet_wall_s = stats::quiet_pass(&laps(|l| l.wall_ns));
    let wall_s = quiet_wall_s / slowdown;
    let setup = secs(|p| p.setup_ns);
    let events = plain
        .last()
        .map_or(0, |p| workloads::sim_events(&p.counters)) as f64;
    let rss = host::peak_rss_mib();
    let values = [
        (wall_s, wall.clone()),
        (
            stats::quiet_pass(&laps(|l| l.cpu_ns)) / slowdown,
            secs(|p| p.cpu_ns),
        ),
        (stats::fastest_tenth(&setup) / slowdown, setup),
        (events / wall_s, wall.iter().map(|w| events / w).collect()),
        (rss, vec![rss]),
    ];
    let samples: Vec<(&str, &str, f64, Vec<f64>)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, v))| (name, unit, value, v))
        .collect();
    if traced {
        let overhead = stats::quiet_pass(&traced_laps) - quiet_wall_s;
        layer_samples.insert("trace.overhead_s".into(), vec![overhead]);
    }

    let mut metrics = Vec::new();
    let mut report_metrics = Json::obj();
    if traced {
        for (name, unit) in layers::PER_LAYER {
            let s = layer_samples.get(name).cloned().unwrap_or_default();
            let median = stats::median(&s);
            metrics.push((name.to_string(), median, unit.to_string()));
            report_metrics = report_metrics.set(name, summary(median, &s, unit));
        }
    } else {
        for (name, unit, value, _) in &samples {
            metrics.push((name.to_string(), *value, unit.to_string()));
        }
    }
    for (name, unit, value, s) in &samples {
        report_metrics = report_metrics.set(format!("e2e.{name}"), summary(*value, s, unit));
    }

    let failed_frac = if check.attempted == 0 {
        1.0
    } else {
        check.failed as f64 / check.attempted as f64
    };
    let loads = |l: [f64; 3]| Json::Arr(l.iter().map(|&v| Json::F64(v)).collect());
    let report = Json::obj()
        .set("workload", workload)
        .set("seed", seed)
        .set("default_seed", DEFAULT_SEED)
        .set("holdout_seed", HOLDOUT_SEED)
        .set("trace", traced)
        .set("seconds", seconds)
        .set(
            "host",
            Json::obj()
                .set("cpu_model", host::cpu_model())
                .set("nproc", host::nproc())
                .set("loadavg_before", loads(load_before))
                .set("loadavg_after", loads(host::loadavg()))
                .set("reference_units", ref_units.len())
                .set(
                    "reference_s",
                    summary(slowdown * calib::REFERENCE_S, &ref_units, "s"),
                )
                .set("slowdown", slowdown),
        )
        .set("quiet_wall_s", quiet_wall_s)
        .set("passes_untraced", plain.len())
        .set("passes_traced", traced_laps.len())
        .set("sim_events", events)
        .set(
            "wall_s_samples",
            Json::Arr(wall.iter().map(|&w| Json::F64(w)).collect()),
        )
        .set("failed_frac", failed_frac)
        .set(
            "failures",
            Json::Arr(
                check
                    .messages
                    .iter()
                    .take(MAX_MESSAGES)
                    .map(|m| Json::from(m.as_str()))
                    .collect(),
            ),
        )
        .set("metrics", report_metrics);
    Outcome {
        report,
        correct: check.failed == 0 && check.attempted > 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> Json {
    let m = metrics.iter().fold(Json::obj(), |j, (name, v, unit)| {
        j.set(
            name.clone(),
            Json::obj().set("value", *v).set("unit", unit.as_str()),
        )
    });
    Json::obj()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", m)
}

fn record() {
    println!("# Expected virtual-time digests for seed {DEFAULT_SEED}: <workload> <cell> <field> <value>.");
    println!("# Regenerate with `perfbench --record` only when a model change is intended.");
    for w in workloads::NAMES {
        let pass = workloads::run(w, DEFAULT_SEED, &Tracer::new(false));
        print!("{}", digest::render(w, &digest::digest(&pass.cells)));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            record();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let o = measure(&args.workload, args.seed, args.seconds, args.trace);
    for m in o
        .report
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        eprintln!("perfbench: FAILED {}", m.as_str().unwrap_or(""));
    }
    println!("{}", o.report);
    println!(
        "{}",
        result_line(o.correct, o.attempted, o.failed, &o.metrics)
    );
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a process of its own so that each reports its
/// own peak resident set; the last line folds their results, with metric
/// names prefixed by the workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in workloads::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("benchmark child process starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(result) = Json::parse(last) else {
            eprintln!("perfbench: {w} printed no result");
            return ExitCode::FAILURE;
        };
        let num = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
        correct &= result.get("correct") == Some(&Json::Bool(true));
        attempted += num("attempted");
        failed += num("failed");
        if let Some(Json::Obj(pairs)) = result.get("metrics") {
            for (name, m) in pairs {
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                metrics.push((format!("{w}.{name}"), value, unit));
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's manifest, which names the metrics this binary prints.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_printed_metrics() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), own(&layers::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, workloads::NAMES);
    }

    #[test]
    fn stored_lu_digest_reproduces_committed_table1() {
        let expected = digest::parse(EXPECTED).expect("expected.txt parses");
        let cells: Vec<digest::Cell> = expected["lu"]
            .iter()
            .filter_map(|(name, fields)| {
                let ns = *fields.get("makespan_ns")?;
                Some(digest::Cell::new(name.clone()).field("makespan_ns", ns))
            })
            .collect();
        assert_eq!(
            workloads::lu::check_table1(&cells, TABLE1_JSON),
            Vec::<String>::new()
        );
    }

    #[test]
    fn stored_digests_cover_every_workload() {
        let expected = digest::parse(EXPECTED).expect("expected.txt parses");
        let stored: Vec<&str> = expected.keys().map(String::as_str).collect();
        let mut names = workloads::NAMES.to_vec();
        names.sort_unstable();
        assert_eq!(stored, names);
    }
}
