//! The CLI subcommands.

use crate::args::Args;
use mq_core::{CostModel, EngineOptions, QueryEngine, QueryType, StatsProbe};
use mq_datagen::{
    classification_query_ids, embeddings, image_histograms, tycho_like, uniform_vectors,
};
use mq_index::{LinearScan, MTree, MTreeConfig, SimilarityIndex, XTree, XTreeConfig};
use mq_metric::{CountingMetric, Euclidean, Metric, ObjectId, Vector, VectorMetric};
use mq_storage::{Dataset, PageLayout, PageStore, PagedDatabase, SimulatedDisk, VectorCodec};
use mq_vafile::{VaConfig, VaFile};
use std::sync::Arc;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

pub fn generate(args: &Args) -> CmdResult {
    args.reject_unknown(&["kind", "n", "seed", "out"])?;
    let kind = args.string_or("kind", "tycho");
    let n: usize = args.parse_or("n", 10_000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let out = args.required("out")?;
    // Writing into a live store would truncate its segment in place and
    // leave its cluster partitions stale.
    if std::fs::read_dir(out).is_ok_and(|mut entries| entries.next().is_some()) {
        return Err(format!("--out {out} is not empty; generate writes a new database").into());
    }
    let objects = match kind.as_str() {
        "tycho" => tycho_like(n, seed),
        "image" => image_histograms(n, seed),
        "embeddings" => embeddings(n, seed),
        other => return Err(format!("unknown --kind '{other}' (tycho|image|embeddings)").into()),
    };
    let dim = objects.first().map(|v| v.dim()).unwrap_or(0);
    let ds = Dataset::new(objects);
    let db = PagedDatabase::pack(&ds, Default::default());
    let pages = db.page_count();
    // A checkpointed store with an empty WAL; dropping it releases the lock.
    mq_store::FilePageStore::create(out, db, VectorCodec, 1)?;
    println!("wrote {out}: {n} {kind} objects, {dim}-d, {pages} pages of 32 KB");
    Ok(())
}

/// Loads a database directory read-only (see [`mq_store::load`]).
fn load_dir(path: &str) -> Result<PagedDatabase<Vector>, Box<dyn std::error::Error>> {
    Ok(mq_store::load(path, &VectorCodec).map_err(|e| format!("cannot load {path}: {e}"))?)
}

/// [`load_dir`] on the first positional argument.
fn load(args: &Args) -> Result<PagedDatabase<Vector>, Box<dyn std::error::Error>> {
    let path = args
        .positional
        .first()
        .ok_or("missing database directory argument")?;
    load_dir(path)
}

pub fn info(args: &Args) -> CmdResult {
    args.reject_unknown(&[])?;
    let db = load(args)?;
    let ds = db.to_dataset()?;
    let dim = ds.object(ObjectId(0)).dim();
    println!("objects     : {}", ds.len());
    println!("dimensions  : {dim}");
    println!(
        "data pages  : {} ({} KB blocks)",
        db.page_count(),
        db.layout().block_bytes / 1024
    );
    println!("avg fill    : {:.1} %", db.avg_fill() * 100.0);
    Ok(())
}

fn parse_qtype(args: &Args) -> Result<QueryType, Box<dyn std::error::Error>> {
    let range = || -> Result<f64, Box<dyn std::error::Error>> {
        let eps: f64 = args.parse_or("range", 1.0)?;
        // QueryType::range asserts on NaN; turn it into a CLI error here.
        // Negative values are fine (dot-product score thresholds).
        if eps.is_nan() {
            return Err("--range must not be NaN".into());
        }
        Ok(eps)
    };
    match (args.has("knn"), args.has("range")) {
        (true, false) => Ok(QueryType::knn(args.parse_or("knn", 10)?)),
        (false, true) => Ok(QueryType::range(range()?)),
        (true, true) => Ok(QueryType::bounded_knn(args.parse_or("knn", 10)?, range()?)),
        (false, false) => Err("one of --knn or --range is required".into()),
    }
}

/// Parses `--metric` (default euclidean) against the registered names.
fn parse_metric(args: &Args) -> Result<VectorMetric, Box<dyn std::error::Error>> {
    let raw = args.string_or("metric", "euclidean");
    VectorMetric::parse(&raw).ok_or_else(|| {
        format!(
            "unknown --metric '{raw}' (expected one of {})",
            VectorMetric::NAMES.join("|")
        )
        .into()
    })
}

/// Resolves the index choice for a metric: tree and VA-file page bounds
/// are Euclidean geometry, so every other metric must run on a sequential
/// scan. The default flips from `default_index` to `scan` accordingly; an
/// explicit incompatible `--index` is an error rather than a silent
/// wrong-answer run.
fn resolve_index_for_metric(
    args: &Args,
    metric: VectorMetric,
    default_index: &str,
) -> Result<String, Box<dyn std::error::Error>> {
    if metric == VectorMetric::Euclidean {
        return Ok(args.string_or("index", default_index));
    }
    let which = args.string_or("index", "scan");
    if which != "scan" {
        return Err(format!(
            "--metric {} requires --index scan: the {which} index prunes with \
             Euclidean page bounds",
            metric.name()
        )
        .into());
    }
    Ok(which)
}

/// The one place the CLI turns engine flags into [`EngineOptions`]
/// (`mq serve`), starting from the server's defaults.
fn parse_engine_options(args: &Args) -> Result<EngineOptions, Box<dyn std::error::Error>> {
    let defaults = mq_server::ServerConfig::default().engine;
    Ok(EngineOptions {
        avoidance: avoidance(args),
        prefetch_depth: args.parse_or("prefetch-depth", defaults.prefetch_depth)?,
        fault_policy: mq_core::FaultPolicy::new(
            args.parse_or("retry-budget", defaults.fault_policy.retry_budget)?,
        ),
    })
}

/// §5.2 avoidance is on unless `--no-avoidance` is given.
fn avoidance(args: &Args) -> bool {
    !args.has("no-avoidance")
}

/// An access method plus the database laid out for it.
type IndexedDb = (Box<dyn SimilarityIndex<Vector>>, PagedDatabase<Vector>);

/// Checks that `which` names a page-level access method — the ones
/// [`build_index`] builds and `mq batch` / `mq serve` run. `vafile` is not
/// one: it is `mq query`'s object-level filter-and-refine path.
fn check_index_name(which: &str) -> Result<(), String> {
    match which {
        "scan" | "xtree" | "mtree" => Ok(()),
        "vafile" => Err(
            "--index vafile is the filter-and-refine path of 'mq query'; \
             this command takes --index scan|xtree|mtree"
                .into(),
        ),
        other => Err(format!(
            "unknown --index '{other}' (scan|xtree|mtree, and vafile on 'mq query')"
        )),
    }
}

/// Builds the selected access method over a freshly laid-out database.
fn build_index(
    ds: &Dataset<Vector>,
    layout: PageLayout,
    which: &str,
) -> Result<IndexedDb, Box<dyn std::error::Error>> {
    check_index_name(which)?;
    match which {
        "scan" => {
            let db = PagedDatabase::pack(ds, layout);
            Ok((Box::new(LinearScan::new(db.page_count())), db))
        }
        "xtree" => {
            let (tree, db) = XTree::bulk_load(
                ds,
                XTreeConfig {
                    layout,
                    ..Default::default()
                },
            );
            Ok((Box::new(tree), db))
        }
        "mtree" => {
            let (tree, db) = MTree::insert_load(
                ds,
                Euclidean,
                MTreeConfig {
                    layout,
                    ..Default::default()
                },
            );
            Ok((Box::new(tree), db))
        }
        _ => unreachable!("check_index_name admits only the three names above"),
    }
}

pub fn query(args: &Args) -> CmdResult {
    args.reject_unknown(&["object", "knn", "range", "index", "metric"])?;
    let stored = load(args)?;
    let ds = stored.to_dataset()?;
    let qtype = parse_qtype(args)?;
    let object_id: u32 = args.parse_or("object", 0)?;
    if object_id as usize >= ds.len() {
        return Err(format!("--object {object_id} out of range").into());
    }
    let q = ds.object(ObjectId(object_id)).clone();
    let metric_choice = parse_metric(args)?;
    let which = resolve_index_for_metric(args, metric_choice, "xtree")?;
    let dim = q.dim();
    let model = CostModel::paper_1999(dim);
    let metric = CountingMetric::new(metric_choice);

    let (answers, stats) = if which == "vafile" {
        let (va, data_db) = VaFile::build(
            &ds,
            VaConfig {
                layout: stored.layout(),
                ..Default::default()
            },
        );
        let disk = SimulatedDisk::new(data_db, 0.10);
        let probe = StatsProbe::start(&disk, metric.counter(), Default::default());
        let (answers, va_stats) = va.similarity_query(&disk, &metric, &q, &qtype);
        let mut stats = probe.finish(&disk, Default::default());
        stats.io += va.approx_disk().stats();
        stats.dist_calcs += va_stats.bound_computations;
        (answers, stats)
    } else {
        let (index, db) = build_index(&ds, stored.layout(), &which)?;
        let disk = SimulatedDisk::new(db, 0.10);
        let engine = QueryEngine::new(&disk, &*index, metric.clone());
        let probe = StatsProbe::start(&disk, metric.counter(), Default::default());
        let answers = engine.similarity_query(&q, &qtype);
        (answers, probe.finish(&disk, Default::default()))
    };

    println!(
        "{qtype} for O{object_id} via {which} ({} distance):",
        metric_choice.name()
    );
    for a in answers.as_slice() {
        println!("  {}  distance {:.6}", a.id, a.distance);
    }
    println!(
        "\ncost: {} page reads, {} distance calculations, modeled {:.4} s",
        stats.io.physical_reads,
        stats.dist_calcs,
        model.total_seconds(&stats)
    );
    Ok(())
}

pub fn batch(args: &Args) -> CmdResult {
    args.reject_unknown(&[
        "queries",
        "m",
        "knn",
        "range",
        "index",
        "metric",
        "seed",
        "no-avoidance",
    ])?;
    let stored = load(args)?;
    let ds = stored.to_dataset()?;
    let metric_choice = parse_metric(args)?;
    let which = resolve_index_for_metric(args, metric_choice, "scan")?;
    check_index_name(&which)?;
    let qtype = parse_qtype(args)?;
    let n_queries: usize = args.parse_or("queries", 100)?;
    let m: usize = args.parse_or("m", 10)?;
    let seed: u64 = args.parse_or("seed", 1)?;
    let avoidance = avoidance(args);

    let (index, db) = build_index(&ds, stored.layout(), &which)?;
    let dim = db.object(ObjectId(0)).dim();
    let model = CostModel::paper_1999(dim);
    let disk = SimulatedDisk::new(db, 0.10);
    let metric = CountingMetric::new(metric_choice);
    let engine = QueryEngine::new(&disk, &*index, metric.clone()).with_options(EngineOptions {
        avoidance,
        ..EngineOptions::default()
    });

    let ids = classification_query_ids(ds.len(), n_queries.min(ds.len()), seed);
    let queries: Vec<(Vector, QueryType)> = ids
        .iter()
        .map(|id| (ds.object(*id).clone(), qtype))
        .collect();

    disk.cold_restart();
    metric.counter().reset();
    let probe = StatsProbe::start(&disk, metric.counter(), Default::default());
    for (q, t) in &queries {
        let _ = engine.similarity_query(q, t);
    }
    let singles = probe.finish(&disk, Default::default());

    disk.cold_restart();
    metric.counter().reset();
    let probe = StatsProbe::start(&disk, metric.counter(), Default::default());
    let mut avoided = 0u64;
    for block in queries.chunks(m) {
        let mut session = engine.new_session(block.to_vec());
        engine.run_to_completion(&mut session);
        avoided += session.avoidance_stats().avoided;
    }
    let multiple = probe.finish(&disk, Default::default());

    println!(
        "{n_queries} x {qtype} via {which} ({} distance, avoidance {}):",
        metric_choice.name(),
        if avoidance { "on" } else { "off" },
    );
    println!(
        "  singles      : {:>9} page reads, {:>11} distance calcs, modeled {:>9.3} s",
        singles.io.physical_reads,
        singles.dist_calcs,
        model.total_seconds(&singles)
    );
    println!(
        "  blocks of {m:>3}: {:>9} page reads, {:>11} distance calcs, modeled {:>9.3} s",
        multiple.io.physical_reads,
        multiple.dist_calcs,
        model.total_seconds(&multiple)
    );
    println!(
        "  speed-up {:.2}x, {} distance calculations avoided",
        model.total_seconds(&singles) / model.total_seconds(&multiple),
        avoided
    );
    Ok(())
}

/// Parses a `--store` value: `sim` (default) or `file:<DIR>`.
fn parse_store(args: &Args) -> Result<mq_server::StoreChoice, Box<dyn std::error::Error>> {
    use mq_server::StoreChoice;
    let raw = args.string_or("store", "sim");
    match raw.as_str() {
        "sim" => Ok(StoreChoice::Sim),
        s => match s.strip_prefix("file:") {
            Some(dir) if !dir.is_empty() => Ok(StoreChoice::File(dir.into())),
            _ => Err(format!("unknown --store '{s}' (expected sim or file:<DIR>)").into()),
        },
    }
}

/// Parses a `--quota RATE:BURST` value into a per-tenant token-bucket
/// configuration (both halves positive finite floats).
fn parse_quota(args: &Args) -> Result<Option<mq_server::QuotaConfig>, Box<dyn std::error::Error>> {
    if !args.has("quota") {
        return Ok(None);
    }
    let raw = args.required("quota")?;
    let (rate, burst) = raw
        .split_once(':')
        .ok_or_else(|| format!("cannot parse --quota '{raw}' (expected RATE:BURST)"))?;
    let rate: f64 = rate
        .parse()
        .map_err(|_| format!("cannot parse --quota rate '{rate}'"))?;
    let burst: f64 = burst
        .parse()
        .map_err(|_| format!("cannot parse --quota burst '{burst}'"))?;
    if !(rate > 0.0 && rate.is_finite() && burst > 0.0 && burst.is_finite()) {
        return Err(format!("--quota '{raw}': rate and burst must be positive").into());
    }
    Ok(Some(mq_server::QuotaConfig { rate, burst }))
}

pub fn serve(args: &Args) -> CmdResult {
    use mq_front::FrontServer;
    use mq_obs::{Recorder, Registry};
    use mq_server::{build_backend_with_recorder, ServerConfig, StoreChoice};
    args.reject_unknown(&[
        "addr",
        "index",
        "metric",
        "store",
        "max-batch",
        "cluster",
        "prefetch-depth",
        "workers",
        "retry-budget",
        "no-avoidance",
        "timeout-ms",
        "max-queue",
        "quota",
        "drain-timeout-s",
        "log-interval-s",
    ])?;
    // Deleted ids are refused by the backend where a layout is rebuilt,
    // and served as they are from a file store.
    let stored = load(args)?;
    let addr = args.string_or("addr", "127.0.0.1:7878");
    let metric = parse_metric(args)?;
    let which = resolve_index_for_metric(args, metric, "xtree")?;
    // A typo fails here, by name, before anything is built or bound.
    check_index_name(&which)?;
    let store = parse_store(args)?;
    let max_batch: usize = args.parse_or("max-batch", 16)?;
    let servers: usize = args.parse_or("cluster", 1)?;
    if servers == 0 {
        return Err("--cluster must be at least 1 (1 is the single engine)".into());
    }
    let workers: usize = args.parse_or("workers", 1)?;
    // 0 = no timeout: idle connections stay open indefinitely.
    let timeout_ms: u64 = args.parse_or("timeout-ms", 0)?;
    // 0 = unbounded queue (no depth-based admission control).
    let max_queue: usize = args.parse_or("max-queue", 0)?;
    let quota = parse_quota(args)?;
    let drain_timeout_s: u64 = args.parse_or("drain-timeout-s", 30)?;

    let mut config = ServerConfig::default()
        .with_max_batch(max_batch)
        .with_servers(servers)
        .with_engine(parse_engine_options(args)?)
        .with_workers(workers)
        .with_read_timeout((timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)))
        .with_store(store.clone())
        .with_metric(metric)
        .with_max_queue(max_queue)
        .with_quota(quota);
    // The file store serves its recovered page layout as-is, by a
    // sequential scan. The tree bulk-loaders would repack — an explicit
    // request for one is an error, while the implicit default (xtree)
    // quietly falls back to the scan.
    let which = match (&store, which.as_str()) {
        (StoreChoice::File(_), "scan") => which,
        (StoreChoice::File(_), other) if args.has("index") => {
            return Err(format!(
                "--store file:<DIR> serves the recovered page layout; --index {other} \
                 would repack it (supported: scan)"
            )
            .into())
        }
        (StoreChoice::File(_), _) => "scan".to_string(),
        _ => which,
    };

    let log_interval_s: u64 = args.parse_or("log-interval-s", 60)?;

    let layout = stored.layout();
    let which_owned = which.clone();
    let registry = Arc::new(Registry::new());
    let recorder = Recorder::new(Arc::clone(&registry));
    let backend = build_backend_with_recorder(&stored, &config, 0.10, &recorder, move |ds| {
        build_index(ds, layout, &which_owned).expect("index name checked before serving")
    })?;
    // A file store that already exists is served with the partition
    // count found on disk, whatever --cluster says.
    let served = backend.store_dirs().len();
    if served > 0 {
        config.servers = served;
    }

    // Latch SIGTERM/Ctrl-C before the listener goes up so a signal at
    // any point takes the graceful-drain path below.
    mq_front::signals::install();

    let server = FrontServer::bind_with_recorder(addr.as_str(), backend, &config, &recorder)?;
    println!(
        "mq-server listening on {} ({} objects via {which}, event frontend)",
        server.local_addr(),
        stored.object_count(),
    );
    println!("config: {}", config.describe());
    println!("metrics: scrape with `mq stats {}`", server.local_addr());
    println!("press Ctrl-C (or send SIGTERM) to drain and stop");
    // Periodic one-line heartbeat with the headline service counters,
    // polling the signal latch between prints so a drain starts within
    // ~100ms of the signal rather than at the next heartbeat.
    let interval = std::time::Duration::from_secs(log_interval_s.max(1));
    let tick = std::time::Duration::from_millis(100);
    let mut last = registry.snapshot();
    let mut since_heartbeat = std::time::Duration::ZERO;
    while !mq_front::signals::triggered() {
        std::thread::sleep(tick);
        since_heartbeat += tick;
        if since_heartbeat < interval {
            continue;
        }
        since_heartbeat = std::time::Duration::ZERO;
        let now = registry.snapshot();
        let delta = now.delta(&last);
        let m = server.metrics();
        println!(
            "served {} queries in {} batches (max {}): +{} queries, \
             +{} distance calcs ({} avoided) in the last {}s",
            m.queries,
            m.batches,
            m.max_batch_size,
            delta.value("mq_server_queries_total") as u64,
            delta.value("mq_core_distance_calculations_total{outcome=\"performed\"}") as u64,
            delta.value("mq_core_distance_calculations_total{outcome=\"avoided\"}") as u64,
            interval.as_secs(),
        );
        last = now;
    }

    // Graceful drain: stop accepting, let every in-flight query answer,
    // then checkpoint file-backed stores so the next start recovers from
    // a clean segment instead of replaying the WAL.
    let in_flight = server.in_flight();
    println!("signal received: draining {in_flight} in-flight queries, no longer accepting");
    server.begin_drain();
    let drained = server.drain(std::time::Duration::from_secs(drain_timeout_s.max(1)));
    if !drained {
        eprintln!(
            "warning: {} queries still in flight after {drain_timeout_s}s drain timeout",
            server.in_flight()
        );
    }
    let m = server.metrics();
    // The store dirs every collection's backend serves, collected before
    // the drop releases the single-writer locks.
    let dirs = server.registry().store_dirs();
    drop(server);
    for dir in &dirs {
        let mut s: mq_store::FilePageStore<Vector, VectorCodec> =
            mq_store::FilePageStore::open(dir, VectorCodec, 1)?;
        s.checkpoint()?;
        println!("checkpointed {}", dir.display());
    }
    println!(
        "served {} queries in {} batches; drained {}, exiting",
        m.queries,
        m.batches,
        if drained { "clean" } else { "with stragglers" },
    );
    if drained {
        Ok(())
    } else {
        Err("drain timed out with queries still in flight".into())
    }
}

pub fn stats(args: &Args) -> CmdResult {
    use mq_server::{RetryConfig, RetryingClient};
    args.reject_unknown(&["addr", "retries", "connect-timeout-ms", "timeout-ms"])?;
    let addr = args
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| args.string_or("addr", "127.0.0.1:7878"));
    let retries: u32 = args.parse_or("retries", 3)?;
    let connect_timeout_ms: u64 = args.parse_or("connect-timeout-ms", 2000)?;
    let timeout_ms: u64 = args.parse_or("timeout-ms", 10_000)?;
    let config = RetryConfig::default()
        .with_max_retries(retries)
        .with_connect_timeout(std::time::Duration::from_millis(connect_timeout_ms.max(1)))
        .with_read_timeout((timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)));
    let mut client = RetryingClient::new(addr, config);
    let text = client.metrics()?;
    if text.is_empty() {
        println!("# no metrics: the server is running without observability");
    } else {
        print!("{text}");
    }
    Ok(())
}

/// The durable store directory of an `insert`/`delete` invocation:
/// positional `<STOREDIR>` or `--store file:<DIR>`.
fn store_dir(args: &Args) -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    if let Some(dir) = args.positional.first() {
        return Ok(dir.into());
    }
    match parse_store(args)? {
        mq_server::StoreChoice::File(dir) => Ok(dir),
        mq_server::StoreChoice::Sim => {
            Err("this command needs a durable store: pass <STOREDIR> or --store file:<DIR>".into())
        }
    }
}

/// Refuses offline mutation of a clustered store's partition: the local
/// store would accept it, but the cluster's persisted global-id mapping
/// would no longer cover the partition and every reopen would fail.
fn reject_partition_member(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(manifest) = mq_store::PartitionManifest::load(dir)? {
        return Err(format!(
            "{} is partition {} of a {}-way cluster store; offline mutation would \
             desynchronize the cluster's global-id mapping",
            dir.display(),
            manifest.partition,
            manifest.parts
        )
        .into());
    }
    Ok(())
}

/// Parses a comma-separated `--vector` into a finite [`Vector`].
fn parse_vector(raw: &str) -> Result<Vector, Box<dyn std::error::Error>> {
    let components: Vec<f32> = raw
        .split(',')
        .map(|c| c.trim().parse::<f32>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("cannot parse --vector '{raw}' (comma-separated floats)"))?;
    if components.is_empty() {
        return Err("--vector must have at least one component".into());
    }
    if components.iter().any(|c| !c.is_finite()) {
        return Err(format!("--vector components must be finite, got '{raw}'").into());
    }
    Ok(Vector::new(components))
}

pub fn insert(args: &Args) -> CmdResult {
    use mq_store::FilePageStore;
    args.reject_unknown(&["store", "vector", "checkpoint"])?;
    let dir = store_dir(args)?;
    reject_partition_member(&dir)?;
    let object = parse_vector(args.required("vector")?)?;
    // Offline single-writer mutation: nothing else may serve this
    // directory while the WAL is appended and the frame rewritten.
    let mut store: FilePageStore<Vector, VectorCodec> = FilePageStore::open(&dir, VectorCodec, 1)?;
    let id = store.insert(object)?;
    let (page, _slot) = store.database().locate(id);
    if args.has("checkpoint") {
        store.checkpoint()?;
    }
    let stats = store.store_stats();
    println!(
        "inserted {id} into {} (page {}); wal {} B, {} appends, {} fsyncs, {} checkpoints",
        dir.display(),
        page.0,
        store.wal_bytes(),
        stats.wal_appends,
        stats.fsyncs,
        stats.checkpoints,
    );
    Ok(())
}

pub fn delete(args: &Args) -> CmdResult {
    use mq_store::FilePageStore;
    args.reject_unknown(&["store", "object", "checkpoint"])?;
    let dir = store_dir(args)?;
    reject_partition_member(&dir)?;
    let id: u32 = args.required("object")?.parse().map_err(|_| {
        format!(
            "cannot parse --object '{}' (object id)",
            args.string_or("object", "")
        )
    })?;
    let mut store: FilePageStore<Vector, VectorCodec> = FilePageStore::open(&dir, VectorCodec, 1)?;
    let page = store.delete(ObjectId(id))?;
    if args.has("checkpoint") {
        store.checkpoint()?;
    }
    let stats = store.store_stats();
    println!(
        "deleted object {id} from {} (page {}); {} live objects remain; wal {} B, {} appends, {} fsyncs",
        dir.display(),
        page.0,
        store.database().live_object_count(),
        store.wal_bytes(),
        stats.wal_appends,
        stats.fsyncs,
    );
    Ok(())
}

pub fn client(args: &Args) -> CmdResult {
    use mq_server::{RetryConfig, RetryingClient};
    args.reject_unknown(&[
        "addr",
        "retries",
        "connect-timeout-ms",
        "timeout-ms",
        "collection",
        "tenant",
        "stats",
        "vector",
        "knn",
        "range",
    ])?;
    let addr = args.string_or("addr", "127.0.0.1:7878");
    let retries: u32 = args.parse_or("retries", 3)?;
    let connect_timeout_ms: u64 = args.parse_or("connect-timeout-ms", 2000)?;
    // 0 = no read timeout: wait for the reply however long it takes.
    let timeout_ms: u64 = args.parse_or("timeout-ms", 10_000)?;
    let config = RetryConfig::default()
        .with_max_retries(retries)
        .with_connect_timeout(std::time::Duration::from_millis(connect_timeout_ms.max(1)))
        .with_read_timeout((timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)));
    let mut client = RetryingClient::new(addr, config);

    let collection = args.string_or("collection", "");
    let tenant = args.string_or("tenant", "");

    if args.has("stats") {
        let m = client.stats_for(&collection)?;
        println!("queries served : {}", m.queries);
        println!("batches flushed: {}", m.batches);
        println!("largest batch  : {}", m.max_batch_size);
        println!("totals         : {}", m.totals);
        println!("record         : {}", m.totals.to_record());
        return Ok(());
    }

    let raw = args.required("vector")?;
    let components: Vec<f32> = raw
        .split(',')
        .map(|c| c.trim().parse::<f32>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("cannot parse --vector '{raw}' (comma-separated floats)"))?;
    if components.is_empty() {
        return Err("--vector must have at least one component".into());
    }
    if components.iter().any(|c| !c.is_finite()) {
        return Err(format!("--vector components must be finite, got '{raw}'").into());
    }
    let qtype = parse_qtype(args)?;
    let q = Vector::new(components);

    let reply = client.query_in(&collection, &tenant, &q, &qtype)?;
    println!(
        "{qtype} answered in batch #{} of {} queries:",
        reply.batch_id, reply.batch_size
    );
    if client.retries_performed() > 0 {
        println!(
            "(recovered after {} transport retries)",
            client.retries_performed()
        );
    }
    for a in &reply.answers {
        println!("  {}  distance {:.6}", a.id, a.distance);
    }
    println!("\nbatch cost: {}", reply.stats);
    println!("record    : {}", reply.stats.to_record());
    Ok(())
}

/// `mq collection create|drop|list`: manage a running server's named
/// collections over the wire.
pub fn collection(args: &Args) -> CmdResult {
    use mq_server::{RetryConfig, RetryingClient};
    args.reject_unknown(&[
        "addr",
        "retries",
        "connect-timeout-ms",
        "timeout-ms",
        "name",
        "dim",
        "metric",
        "source",
    ])?;
    let action = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("list");
    let addr = args.string_or("addr", "127.0.0.1:7878");
    let retries: u32 = args.parse_or("retries", 3)?;
    let connect_timeout_ms: u64 = args.parse_or("connect-timeout-ms", 2000)?;
    let timeout_ms: u64 = args.parse_or("timeout-ms", 10_000)?;
    let config = RetryConfig::default()
        .with_max_retries(retries)
        .with_connect_timeout(std::time::Duration::from_millis(connect_timeout_ms.max(1)))
        .with_read_timeout((timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)));
    let mut client = RetryingClient::new(addr, config);

    match action {
        "create" => {
            let name = args.required("name")?;
            let dim: u32 = args.parse_or("dim", 0)?;
            let metric = args.string_or("metric", "euclidean");
            let source = args.string_or("source", "");
            if source.is_empty() && dim == 0 {
                return Err(
                    "collection create needs --dim <D> (empty collection) or --source <DIR> \
                     (server-side database directory)"
                        .into(),
                );
            }
            let ack = client.create_collection(name, dim, &metric, &source)?;
            println!("{ack}");
        }
        "drop" => {
            let name = args.required("name")?;
            let ack = client.drop_collection(name)?;
            println!("{ack}");
        }
        "list" => {
            let infos = client.list_collections()?;
            println!(
                "{:<24} {:>6} {:>10} {:>10}  metric",
                "collection", "dim", "objects", "in-flight"
            );
            for c in infos {
                println!(
                    "{:<24} {:>6} {:>10} {:>10}  {}",
                    c.name, c.dim, c.objects, c.in_flight, c.metric
                );
            }
        }
        other => {
            return Err(format!("unknown collection action '{other}' (create|drop|list)").into())
        }
    }
    Ok(())
}

pub fn dbscan(args: &Args) -> CmdResult {
    args.reject_unknown(&["eps", "min-pts", "batch"])?;
    let stored = load(args)?;
    let eps: f64 = args.parse_or("eps", 0.1)?;
    let min_pts: usize = args.parse_or("min-pts", 5)?;
    let batch: usize = args.parse_or("batch", 0)?;

    let ds = stored.to_dataset()?;
    let (tree, db) = XTree::bulk_load(
        &ds,
        XTreeConfig {
            layout: stored.layout(),
            ..Default::default()
        },
    );
    let dim = db.object(ObjectId(0)).dim();
    let model = CostModel::paper_1999(dim);
    let disk = SimulatedDisk::new(db, 0.10);
    let metric = CountingMetric::new(Euclidean);
    let engine = QueryEngine::new(&disk, &tree, metric.clone());

    let algo = mq_mining::Dbscan::new(eps, min_pts);
    let probe = StatsProbe::start(&disk, metric.counter(), Default::default());
    let result = if batch > 0 {
        algo.run_multiple(&engine, batch)
    } else {
        algo.run_single(&engine)
    };
    let stats = probe.finish(&disk, Default::default());

    println!(
        "DBSCAN(eps = {eps}, min_pts = {min_pts}) {}:",
        if batch > 0 {
            format!("with multiple queries (batch {batch})")
        } else {
            "with single queries".into()
        }
    );
    println!(
        "  clusters: {}   noise: {}   queries: {}",
        result.clusters,
        result.noise_count(),
        result.queries
    );
    println!(
        "  cost: {} page reads, {} distance calcs, modeled {:.2} s",
        stats.io.physical_reads,
        stats.dist_calcs,
        model.total_seconds(&stats)
    );
    // Cluster size histogram (top 10).
    let mut sizes: Vec<usize> = vec![0; result.clusters as usize];
    for l in &result.labels {
        if let mq_mining::Label::Cluster(c) = l {
            sizes[*c as usize] += 1;
        }
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("  largest clusters: {:?}", &sizes[..sizes.len().min(10)]);
    Ok(())
}

/// `mq loadgen <ADDR>`: replay a seed-deterministic workload against a
/// running server and print the client-side latency report.
pub fn loadgen(args: &Args) -> CmdResult {
    use mq_loadgen::{run, Mode, RequestPlan, RunOptions, WorkloadSpec};
    args.reject_unknown(&[
        "mode",
        "ramp",
        "rate",
        "sessions",
        "think-ms",
        "requests",
        "seed",
        "knn",
        "range",
        "skew",
        "pool",
        "queries-from",
        "dim",
        "connections",
        "collection",
        "tenant",
        "out",
    ])?;

    let addr = args
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let requests: usize = args.parse_or("requests", 1_000)?;
    let seed: u64 = args.parse_or("seed", 7)?;
    let skew: f64 = args.parse_or("skew", 0.8)?;
    let pool_n: usize = args.parse_or("pool", 32)?;
    if pool_n == 0 {
        return Err("--pool must be at least 1".into());
    }
    let qtype = parse_qtype(args)?;
    // `--ramp start:end:steps` is a step-rate open-loop profile; it
    // overrides `--mode`.
    let mode = if args.has("ramp") {
        let raw = args.required("ramp")?;
        let parts: Vec<&str> = raw.split(':').collect();
        let bad = || format!("cannot parse --ramp '{raw}' (expected START_QPS:END_QPS:STEPS)");
        if parts.len() != 3 {
            return Err(bad().into());
        }
        let start_qps: f64 = parts[0].parse().map_err(|_| bad())?;
        let end_qps: f64 = parts[1].parse().map_err(|_| bad())?;
        let steps: usize = parts[2].parse().map_err(|_| bad())?;
        if !(start_qps > 0.0 && end_qps > 0.0 && steps > 0) {
            return Err(format!("--ramp '{raw}': rates and steps must be positive").into());
        }
        Mode::Ramp {
            start_qps,
            end_qps,
            steps,
        }
    } else {
        match args.string_or("mode", "open").as_str() {
            "open" => Mode::Open {
                offered_qps: args.parse_or("rate", 500.0)?,
            },
            "closed" => Mode::Closed {
                sessions: args.parse_or("sessions", 4)?,
                think: std::time::Duration::from_millis(args.parse_or("think-ms", 1)?),
            },
            other => return Err(format!("unknown --mode '{other}' (open|closed)").into()),
        }
    };

    // Query pool: objects sampled evenly from a saved database (so the
    // server computes real distances against its own data), or synthetic
    // uniform vectors when no database is at hand.
    let pool: Vec<Vector> = if args.has("queries-from") {
        let ds = load_dir(args.required("queries-from")?)?.to_dataset()?;
        let n = ds.len();
        if n == 0 {
            return Err("--queries-from database is empty".into());
        }
        let take = pool_n.min(n);
        (0..take)
            .map(|i| ds.object(ObjectId((i * n / take) as u32)).clone())
            .collect()
    } else {
        let dim: usize = args.parse_or("dim", 3)?;
        uniform_vectors(pool_n, dim, seed ^ 0xF00D)
    };

    let plan = RequestPlan::materialize(&WorkloadSpec {
        mode,
        requests,
        qtype,
        pool,
        skew,
        seed,
    });
    let opts = RunOptions {
        connections: args.parse_or("connections", 4)?,
        collection: args.string_or("collection", ""),
        tenant: args.string_or("tenant", ""),
        ..RunOptions::default()
    };
    println!(
        "replaying {requests} requests against {addr} (stream fingerprint {:016x})",
        plan.fingerprint()
    );
    let report = run(&plan, &addr, &opts);
    println!("{}", report.summary());
    if let Some(w) = &report.server {
        let wait = w
            .queue_wait_p99
            .map(|s| format!(", queue-wait p99 {:.2} ms", s * 1e3))
            .unwrap_or_default();
        println!(
            "  server window: {:.0} queries in {:.0} batches (mean {:.2}/batch{wait})",
            w.queries, w.batches, w.mean_batch_size
        );
    }
    if args.has("out") {
        let path = args.required("out")?;
        std::fs::write(path, format!("{}\n", report.to_json()))?;
        println!("wrote {path}");
    }
    // Typed Overloaded rejections are the server's admission control
    // working as designed, not failures; only transport errors and
    // timeouts make the run exit nonzero.
    if (report.ok + report.rejected) as usize != requests {
        return Err(format!(
            "{} of {requests} requests failed ({} errors, {} timeouts)",
            requests as u64 - report.ok - report.rejected,
            report.errors,
            report.timeouts
        )
        .into());
    }
    Ok(())
}
