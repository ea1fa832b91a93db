//! End-to-end latency SLO harness: an in-process `mq` server under
//! seed-deterministic open-loop and closed-loop client load.
//!
//! The rig is the full production path — TCP loopback, the batching
//! scheduler, the paged engine with avoidance — driven by `mq-loadgen`:
//!
//! * **open loop** — Poisson arrivals at an offered rate with Zipf
//!   hot-key skew, latency measured from each request's *intended* start
//!   (coordinated-omission-safe);
//! * **closed loop** — N concurrent sessions with think time, latency
//!   per round trip.
//!
//! Each mode's workload plan is materialized **twice** and the two
//! fingerprints asserted equal: the offered request stream is provably a
//! pure function of the seed, so two runs of this binary with the same
//! seed compare latency under identical load. Results (p50/p95/p99/p999,
//! achieved-vs-offered throughput, error/timeout/retry counts, the
//! server-side batching window) go to `BENCH_server.json`.
//!
//! A third run drives the **overload** path: a ramp plan steps the
//! offered rate past a deliberately small admission bound (`--max-queue`
//! territory), asserting that saturation
//! produces typed `Overloaded` rejections — never transport errors — and
//! that the latency of *admitted* requests stays bounded while the queue
//! sheds load.
//!
//! Flags/env: `--smoke` shrinks the database and request counts for CI;
//! `--assert-slo` exits non-zero when a run has transport errors or its
//! p99 exceeds the bound — and refuses to run at all on a 1-core host,
//! where client threads and server workers time-slice one core and any
//! bound would assert scheduling noise (run without the flag there; the
//! JSON records `cores`). `MQ_BENCH_N` overrides the object count,
//! `MQ_SEED` the seed, `MQ_LOAD_REQUESTS`/`MQ_LOAD_QPS`/
//! `MQ_LOAD_SESSIONS`/`MQ_LOAD_THINK_MS`/`MQ_LOAD_CONNECTIONS` the load
//! shape, `MQ_SLO_P99_MS` the (deliberately generous) p99 bound,
//! `MQ_OVERLOAD_QUEUE` the overload run's admission bound, and
//! `MQ_OVERLOAD_END_QPS` the top of its ramp.

use mq_bench::setup::{env_u64, env_usize};
use mq_core::QueryType;
use mq_datagen::image_histograms;
use mq_front::FrontServer;
use mq_index::LinearScan;
use mq_loadgen::{run, Mode, RequestPlan, RunOptions, RunReport, WorkloadSpec};
use mq_obs::Recorder;
use mq_server::{ServerConfig, SingleEngineBackend};
use mq_storage::{Dataset, PageLayout, PagedDatabase};
use std::time::Duration;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Materializes the spec twice and proves the stream is seed-pure.
fn plan_twice(spec: &WorkloadSpec) -> RequestPlan {
    let a = RequestPlan::materialize(spec);
    let b = RequestPlan::materialize(spec);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "request stream is not a pure function of the seed"
    );
    assert_eq!(a.encode(), b.encode());
    a
}

fn check_slo(report: &RunReport, slo_p99: f64, label: &str) -> Vec<String> {
    let mut violations = Vec::new();
    if report.errors > 0 || report.timeouts > 0 {
        violations.push(format!(
            "{label}: {} transport errors, {} timeouts (SLO requires zero)",
            report.errors, report.timeouts
        ));
    }
    if report.ok as usize != report.requests {
        violations.push(format!(
            "{label}: only {}/{} requests succeeded",
            report.ok, report.requests
        ));
    }
    if report.p99 > slo_p99 {
        violations.push(format!(
            "{label}: p99 {:.1} ms exceeds the {:.1} ms bound",
            report.p99 * 1e3,
            slo_p99 * 1e3
        ));
    }
    violations
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let assert_slo = std::env::args().any(|a| a == "--assert-slo");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if assert_slo && cores == 1 {
        eprintln!(
            "error: --assert-slo requires a multi-core host; this container has 1 core, where \
             client threads and server workers can only take turns on the existing core and a \
             latency bound would assert scheduling noise. Run without --assert-slo to still \
             produce BENCH_server.json (it records cores={cores} for readers)."
        );
        std::process::exit(2);
    }

    let n = env_usize("MQ_BENCH_N", if smoke { 2_000 } else { 10_000 });
    let seed = env_u64("MQ_SEED", 20000203);
    let requests = env_usize("MQ_LOAD_REQUESTS", if smoke { 300 } else { 3_000 });
    let offered_qps = env_f64("MQ_LOAD_QPS", if smoke { 400.0 } else { 1_000.0 });
    let sessions = env_usize("MQ_LOAD_SESSIONS", 4);
    let think_ms = env_u64("MQ_LOAD_THINK_MS", 1);
    let connections = env_usize("MQ_LOAD_CONNECTIONS", 4);
    let slo_p99 = env_f64("MQ_SLO_P99_MS", 250.0) / 1e3;

    // The Fig. 7/8 image workload behind the full server stack.
    let objects = image_histograms(n, seed);
    let dim = objects[0].dim();
    // Hot query pool: 32 database objects, Zipf-skewed below so batching
    // and triangle-inequality reuse see recurring queries.
    let pool: Vec<_> = (0..32).map(|i| objects[i * n / 32].clone()).collect();
    let ds = Dataset::new(objects);
    let db = PagedDatabase::pack(&ds, PageLayout::PAPER);
    let scan = LinearScan::new(db.page_count());
    let recorder = Recorder::enabled();
    let config = ServerConfig::default()
        .with_max_batch(8)
        .with_max_wait(Duration::from_millis(2));
    let backend = SingleEngineBackend::new(db, Box::new(scan), 0.0, config.engine);
    let server =
        FrontServer::bind_with_recorder("127.0.0.1:0", Box::new(backend), &config, &recorder)
            .expect("bind loopback server");
    let addr = server.local_addr().to_string();

    println!(
        "bench_server: {n} objects, {dim}-d, {requests} requests/mode, seed {seed}, {cores} cores"
    );

    let opts = RunOptions {
        connections,
        ..RunOptions::default()
    };
    let qtype = QueryType::knn(10);

    let open_plan = plan_twice(&WorkloadSpec {
        mode: Mode::Open { offered_qps },
        requests,
        qtype,
        pool: pool.clone(),
        skew: 0.8,
        seed,
    });
    let open = run(&open_plan, &addr, &opts);
    println!("{}", open.summary());

    let closed_plan = plan_twice(&WorkloadSpec {
        mode: Mode::Closed {
            sessions,
            think: Duration::from_millis(think_ms),
        },
        requests,
        qtype,
        pool,
        skew: 0.8,
        seed,
    });
    let closed = run(&closed_plan, &addr, &opts);
    println!("{}", closed.summary());

    assert!(
        server.drain(Duration::from_secs(10)),
        "server did not drain after both runs"
    );

    // Overload run: a fresh server with a small per-collection queue
    // bound, rammed past capacity by a step-rate ramp with more
    // concurrent connections than queue slots. Saturation must
    // surface as typed Overloaded rejections (shed at admission, before
    // any distance work), while the requests that *were* admitted keep a
    // bounded p99.
    let overload_queue = env_usize("MQ_OVERLOAD_QUEUE", 8);
    let overload_end_qps = env_f64("MQ_OVERLOAD_END_QPS", if smoke { 2_000.0 } else { 4_000.0 });
    let overload_requests = env_usize("MQ_OVERLOAD_REQUESTS", if smoke { 400 } else { 2_000 });
    let overload_objects = image_histograms(n, seed);
    let overload_pool: Vec<_> = (0..32)
        .map(|i| overload_objects[i * n / 32].clone())
        .collect();
    let overload_db = PagedDatabase::pack(&Dataset::new(overload_objects), PageLayout::PAPER);
    let overload_scan = LinearScan::new(overload_db.page_count());
    let overload_recorder = Recorder::enabled();
    let overload_config = ServerConfig::default()
        .with_max_batch(8)
        .with_max_wait(Duration::from_millis(2))
        .with_max_queue(overload_queue);
    let overload_backend = SingleEngineBackend::new(
        overload_db,
        Box::new(overload_scan),
        0.0,
        overload_config.engine,
    );
    let overload_server = FrontServer::bind_with_recorder(
        "127.0.0.1:0",
        Box::new(overload_backend),
        &overload_config,
        &overload_recorder,
    )
    .expect("bind overload server");
    let overload_addr = overload_server.local_addr().to_string();
    let overload_plan = plan_twice(&WorkloadSpec {
        mode: Mode::Ramp {
            start_qps: offered_qps / 4.0,
            end_qps: overload_end_qps,
            steps: 4,
        },
        requests: overload_requests,
        qtype,
        pool: overload_pool,
        skew: 0.8,
        seed,
    });
    let overload_opts = RunOptions {
        // More in-flight client requests than queue slots, so the depth
        // bound genuinely engages.
        connections: (overload_queue * 3).max(connections),
        ..RunOptions::default()
    };
    let overload = run(&overload_plan, &overload_addr, &overload_opts);
    println!("{}", overload.summary());
    assert!(
        overload_server.drain(Duration::from_secs(10)),
        "overload server did not drain"
    );
    assert!(
        overload.rejected > 0,
        "the overload ramp (to {overload_end_qps} qps against a {overload_queue}-deep queue) \
         never tripped admission control"
    );
    assert_eq!(
        (overload.ok + overload.rejected) as usize,
        overload.requests,
        "every overload request must end as an answer or a typed rejection, never a transport \
         error ({} errors, {} timeouts)",
        overload.errors,
        overload.timeouts,
    );
    // Post-drain ledger: the scheduler only ever counted admitted queries.
    let overload_metrics = overload_server.metrics();
    assert_eq!(
        overload_metrics.queries, overload.ok,
        "scheduler query counter must equal the admitted (answered) count — rejected requests \
         never reach the engine"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"server_load\",\n");
    json.push_str(&format!(
        "  \"config\": {{ \"db\": \"image-histograms\", \"objects\": {n}, \"dim\": {dim}, \
         \"requests\": {requests}, \"offered_qps\": {offered_qps}, \"sessions\": {sessions}, \
         \"think_ms\": {think_ms}, \"connections\": {connections}, \"knn\": 10, \
         \"skew\": 0.8, \"seed\": {seed}, \"smoke\": {smoke}, \"cores\": {cores}, \
         \"slo_p99_ms\": {} }},\n",
        slo_p99 * 1e3
    ));
    json.push_str(&format!(
        "  \"overload_config\": {{ \"frontend\": \"event\", \"max_queue\": {overload_queue}, \
         \"requests\": {overload_requests}, \"ramp_end_qps\": {overload_end_qps}, \
         \"connections\": {} }},\n",
        overload_opts.connections
    ));
    json.push_str(&format!("  \"open\": {},\n", open.to_json()));
    json.push_str(&format!("  \"closed\": {},\n", closed.to_json()));
    json.push_str(&format!("  \"overload\": {}\n", overload.to_json()));
    json.push_str("}\n");
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("wrote BENCH_server.json");

    if assert_slo {
        let mut violations = check_slo(&open, slo_p99, "open");
        violations.extend(check_slo(&closed, slo_p99, "closed"));
        // Overload: transport must stay clean and *admitted* requests
        // (the only ones in the latency histogram) must stay under the
        // bound even while the ramp sheds load.
        if overload.errors > 0 || overload.timeouts > 0 {
            violations.push(format!(
                "overload: {} transport errors, {} timeouts (rejections must be typed)",
                overload.errors, overload.timeouts
            ));
        }
        if overload.p99 > slo_p99 {
            violations.push(format!(
                "overload: admitted p99 {:.1} ms exceeds the {:.1} ms bound — the queue bound \
                 failed to keep admitted latency flat under saturation",
                overload.p99 * 1e3,
                slo_p99 * 1e3
            ));
        }
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("SLO violation: {v}");
            }
            std::process::exit(1);
        }
        println!(
            "SLO assertion passed: p99 open {:.1} ms / closed {:.1} ms / overload-admitted \
             {:.1} ms within {:.0} ms, zero errors, {} typed rejections under overload",
            open.p99 * 1e3,
            closed.p99 * 1e3,
            overload.p99 * 1e3,
            slo_p99 * 1e3,
            overload.rejected,
        );
    }
}
