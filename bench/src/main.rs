//! The repo's wall-clock benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! generates the workload's inputs from the seed, builds the system under
//! test (three times; `setup_s` is the median), runs an untimed fixed-count
//! warm-up, measures for `--seconds`, checks the answers, and prints a
//! readable report followed by one JSON line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics, measured
//! from decorators around the program's public seams (see `trace.rs`), and
//! writes the span buffer to `bench/out/<workload>.trace.json`. README.md
//! says why these workloads and what every metric means.

mod harness;
mod mine_dbscan;
mod mine_knn_xtree;
mod mining;
mod serve_scan;
mod speed;
mod stats;
mod store_mixed;
mod trace;

use harness::{Outcome, RunConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A workload: its name and entry point.
type Workload = (&'static str, fn(&RunConfig) -> Outcome);

const WORKLOADS: [Workload; 4] = [
    ("mine_knn_xtree", mine_knn_xtree::run),
    ("mine_dbscan", mine_dbscan::run),
    ("serve_scan", serve_scan::run),
    ("store_mixed", store_mixed::run),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("metric.busy_share", "share"),
    ("metric.distances_per_op", "count"),
    ("metric.ns_per_distance", "ns"),
    ("metric.isolated_ns_per_distance", "ns"),
    ("index.busy_share", "share"),
    ("index.pages_planned_per_op", "count"),
    ("storage.busy_share", "share"),
    ("storage.logical_reads_per_op", "count"),
    ("storage.physical_reads_per_op", "count"),
    ("storage.buffer_hit_ratio", "share"),
    ("core.self_share", "share"),
    ("core.avoid_tries_per_op", "count"),
    ("core.avoided_share", "share"),
    ("core.batch_speedup", "ratio"),
    ("mining.queries_per_pass", "count"),
    ("mining.clusters", "count"),
    ("server.wait_ms_p50", "ms"),
    ("server.execute_ms_p50", "ms"),
    ("server.execute_busy_share", "share"),
    ("server.outside_execute_share", "share"),
    ("server.batch_size_mean_open", "count"),
    ("server.batch_size_mean_closed", "count"),
    ("front.reply_ms_p50", "ms"),
    ("client.send_lag_ms_p95", "ms"),
    ("client.achieved_over_offered", "ratio"),
    ("store.mutation_share", "share"),
    ("store.insert_ms_p50", "ms"),
    ("store.delete_ms_p50", "ms"),
    ("store.read_block_ms_p50", "ms"),
    ("store.checkpoint_ms_p50", "ms"),
    ("store.fsyncs_per_mutation", "count"),
    ("store.wal_bytes_per_mutation", "B"),
    ("store.disk_bytes_per_user_byte", "ratio"),
    ("store.reopen_s", "s"),
    ("store.replayed_records", "count"),
    ("trace.share_sum", "share"),
    ("trace.overhead_share", "share"),
];

/// The names of the layer shares that add up to `trace.share_sum`.
const SHARES: [&str; 6] = [
    "metric.busy_share",
    "index.busy_share",
    "storage.busy_share",
    "core.self_share",
    "server.outside_execute_share",
    "store.mutation_share",
];

/// This package's directory; `out/` below it holds traces and the store's
/// files.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| w.0 == value).copied(),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u32>().ok().filter(|s| (1..=60).contains(s)),
            "--trace" => trace = ["0", "1"].iter().position(|t| t == value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok((
            workload,
            RunConfig {
                seed,
                seconds: f64::from(seconds),
                trace: trace == 1,
            },
        )),
        _ => Err("an argument is missing or out of range".into()),
    }
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
fn commit() -> String {
    let git = bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".into(),
        hash => hash.chars().take(12).collect(),
    }
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    trace::epoch();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ((name, run), cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir: PathBuf = bench_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let mut outcome = run(&cfg);

    let share_sum: f64 = SHARES.iter().filter_map(|s| outcome.layers.get(s)).sum();
    if cfg.trace {
        outcome.layers.insert("trace.share_sum", share_sum);
        let path = out_dir.join(format!("{name}.trace.json"));
        if let Err(e) = std::fs::write(&path, outcome.spans.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("trace: {} spans in {}", outcome.spans.len(), path.display());
    }

    let end_to_end = [
        ("setup_s", "s", outcome.setup_s),
        ("ops_per_s", "1/s", outcome.ops_per_s),
        (
            "latency_p50_ms",
            "ms",
            stats::quantile(&outcome.latency_ms, 0.50),
        ),
        (
            "latency_p95_ms",
            "ms",
            stats::quantile(&outcome.latency_ms, 0.95),
        ),
        ("rss_peak_mb", "MB", outcome.rss_peak_mb),
    ];
    let per_layer: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            (
                *name,
                *unit,
                outcome.layers.get(name).copied().unwrap_or(0.0),
            )
        })
        .collect();

    println!("workload: {name}");
    println!(
        "provenance: cores={} kernel={} commit={} seed={} fingerprint={:016x} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        mq_metric::kernel::active().name(),
        commit(),
        cfg.seed,
        outcome.fingerprint,
        cfg.seconds,
        u8::from(cfg.trace),
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "operations: attempted={} failed={} latency_samples={}",
        outcome.attempted,
        outcome.failed,
        outcome.latency_ms.len()
    );
    println!(
        "speed: probe {:.4} ms (reference {} ms); as measured, before the correction: \
         ops_per_s {:.4} latency_p50_ms {:.4} latency_p95_ms {:.4}",
        outcome.probe_ms,
        speed::REFERENCE_PROBE_NS / 1e6,
        outcome.raw_ops_per_s,
        stats::quantile(&outcome.raw_latency_ms, 0.50),
        stats::quantile(&outcome.raw_latency_ms, 0.95),
    );
    for (name, unit, value) in &end_to_end {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    if cfg.trace {
        for (name, unit, value) in &per_layer {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
    }

    let metrics = if cfg.trace {
        json_metrics(&per_layer)
    } else {
        json_metrics(&end_to_end)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_in_any_order_and_reject_junk() {
        let ((name, _), cfg) = parse_args(&args(
            "--seed 9 --trace 1 --workload store_mixed --seconds 3",
        ))
        .unwrap();
        assert_eq!(
            (name, cfg.seed, cfg.seconds, cfg.trace),
            ("store_mixed", 9, 3.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 3 --trace 0",
            "--workload serve_scan --seed 1 --seconds 0 --trace 0",
            "--workload serve_scan --seed 1 --seconds 3 --trace 2",
            "--workload serve_scan --seed 1 --seconds 3",
            "--workload serve_scan --seed 1 --seconds 3 --trace",
            "--workload serve_scan --seed -1 --seconds 3 --trace 0",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` and this file must list the same metrics and
    /// workloads, or the driver refuses the output.
    #[test]
    fn benchmark_json_lists_what_this_program_prints() {
        let json = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(json.contains(&entry), "{entry}");
        }
        for (name, unit) in [
            ("setup_s", "s"),
            ("ops_per_s", "1/s"),
            ("latency_p50_ms", "ms"),
            ("latency_p95_ms", "ms"),
            ("rss_peak_mb", "MB"),
        ] {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(json.contains(&entry), "{entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), PER_LAYER.len() + 5);
        for (name, _) in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\":")),
                "{name}"
            );
        }
        assert_eq!(json.matches("\"why\":").count(), WORKLOADS.len());
        for share in SHARES {
            assert!(PER_LAYER.iter().any(|(name, _)| *name == share));
        }
    }

    #[test]
    fn metrics_serialize_as_one_json_object() {
        let json = json_metrics(&[("a_s", "s", 1.5), ("b", "1/s", f64::NAN)]);
        assert_eq!(
            json,
            "{\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"1/s\"}}"
        );
    }
}
