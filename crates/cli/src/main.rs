#![forbid(unsafe_code)]
//! `mq` — command-line front end for the multiple-similarity-query
//! engine.
//!
//! ```text
//! mq generate --kind tycho|image|embeddings --n 50000 --seed 7 --out db
//! mq info db
//! mq query db --object 42 --knn 10 [--index scan|xtree|mtree|vafile]
//!             [--metric euclidean|manhattan|cosine|dot]
//! mq batch db --queries 100 --m 50 --knn 10 [--index ...] [--metric ...]
//! mq dbscan db --eps 0.3 --min-pts 5 [--batch 64]
//! ```
//!
//! A database is an `mq-store` directory (`segment.mqsg` + `wal.mqwl`):
//! `generate` writes one checkpointed, the readers load it read-only, and
//! `insert`/`delete` mutate it in place.

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
mquery — multiple similarity queries for mining in metric databases (ICDE 2000)

USAGE:
  mq generate --kind tycho|image|embeddings --n <N> [--seed <S>] --out <DIR>
      Generate a synthetic database and save it as a durable store
      directory (segment.mqsg + an empty wal.mqwl) — the one database
      format every command below reads. <DIR> must be missing or empty.
      Reading commands load it read-only, replaying any WAL records
      without writing.
      --kind embeddings produces clustered unit-norm 32-d vectors (a
      retrieval-embedding workload for the cosine/dot metrics).

  mq info <DIR>
      Show object/page statistics of a saved database.

  mq query <DIR> --object <ID> (--knn <K> | --range <EPS>)
                [--index scan|xtree|mtree|vafile]
                [--metric euclidean|manhattan|cosine|dot]
      Run one similarity query and print answers plus cost counters.
      --index vafile is the VA-file's object-level filter-and-refine
      scan and exists on this command only. Non-Euclidean metrics
      require --index scan (tree and VA-file bounds are Euclidean
      geometry).

  mq batch <DIR> --queries <N> --m <M> (--knn <K> | --range <EPS>)
                [--index scan|xtree|mtree] [--metric ...] [--seed <S>]
                [--no-avoidance]
      Run N random queries in blocks of M and compare against singles.

  mq dbscan <DIR> --eps <EPS> --min-pts <P> [--batch <M>]
      Density-based clustering with single or multiple queries.

      info, query, batch and dbscan address objects 0..n and refuse a
      directory with deleted ids; serve one with --store file:<DIR>.

  mq serve <DIR> [--addr 127.0.0.1:7878] [--index scan|xtree|mtree]
                [--metric euclidean|manhattan|cosine|dot]
                [--store sim|file:<DIR>] [--max-batch <M>]
                [--cluster <S>] [--prefetch-depth <D>] [--workers <W>]
                [--retry-budget <R>]
                [--no-avoidance] [--timeout-ms <MS>]
                [--max-queue <N>] [--quota <RATE:BURST>]
                [--drain-timeout-s <S>] [--log-interval-s <S>]
      Serve the database over TCP, batching concurrent client queries
      into multiple similarity queries run on a shared-nothing cluster
      of S servers (--cluster, default 1: the single engine; the data is
      declustered round-robin and the answers merged): an idle scheduler takes
      whatever is queued, up to --max-batch (the paper's m), and runs it
      at once; nothing waits on a timer. --store file:<DIR> serves
      from a durable page store in DIR (created from the database on
      first start, recovered from segment + WAL afterwards; DIR may be
      the database directory itself; DIR/part-<i> per server when S > 1;
      an existing store keeps the partition count found on disk, which
      the config: line reports). --prefetch-depth stages pages ahead
      of evaluation; --workers sets the number of scheduler threads
      taking and executing batches. --metric selects the distance the engines
      evaluate (non-Euclidean metrics require --index scan); clients
      receive distances under the server's configured metric — e.g.
      serve an embeddings database with --metric cosine --index scan.
      A file store serves its recovered layout by a sequential scan
      (trees would repack it and are refused). One readiness-polled event-loop
      thread serves every connection; --timeout-ms closes connections
      idle for longer (0 = never). --max-queue bounds in-flight queries
      per collection and --quota installs a per-tenant token bucket;
      both reject with a typed Overloaded{retry_after_ms} reply instead
      of queueing unboundedly. SIGTERM or Ctrl-C drains gracefully: stop
      accepting, answer every in-flight query (up to --drain-timeout-s),
      checkpoint every store directory served, exit 0.

  mq collection create --name <NAME> (--dim <D> | --source <DIR>)
                [--metric euclidean|manhattan|cosine|dot] [--addr <ADDR>]
  mq collection drop --name <NAME> [--addr <ADDR>]
  mq collection list [--addr <ADDR>]
      Manage a running server's named collections. Each collection is an
      isolated dataset + metric + scheduler; queries address one with
      `mq client --collection`. create --source loads a server-side
      database directory; --dim starts the collection empty. drop is refused
      while the collection has queries in flight.

  mq insert <STOREDIR> --vector 1.0,2.0,... [--checkpoint]
      Append one object to a durable file store: WAL append + fsync,
      then an atomic page rewrite. Offline single-writer — stop any
      server on the directory first.

  mq delete <STOREDIR> --object <ID> [--checkpoint]
      Tombstone one object in a durable file store (same WAL protocol;
      ids are never reused).

  mq client [--addr 127.0.0.1:7878] --vector 1.0,2.0,... (--knn <K> | --range <EPS>)
                [--collection <NAME>] [--tenant <ID>]
  mq client [--addr 127.0.0.1:7878] --stats [--collection <NAME>]
      Query a running server, or fetch its batching counters. Answer
      distances use the server's configured --metric (euclidean,
      manhattan, cosine, or dot); under dot the \"distances\" are negated
      inner products, so --range accepts negative thresholds.
      --collection addresses a named collection (default: the server's
      default collection); --tenant labels the request for per-tenant
      quota accounting.

  mq loadgen [<ADDR>] [--mode open|closed | --ramp <START:END:STEPS>]
                [--rate <QPS>] [--sessions <N>]
                [--think-ms <MS>] [--requests <N>] [--seed <S>]
                (--knn <K> | --range <EPS>) [--skew <THETA>] [--pool <N>]
                [--queries-from <DIR> | --dim <D>] [--connections <C>]
                [--collection <NAME>] [--tenant <ID>] [--out <FILE>]
      Replay a seed-deterministic workload against a running server and
      report client-side latency (p50/p95/p99/p999, achieved vs offered
      throughput, errors/timeouts/retries) plus the server's batching
      window. --mode open offers Poisson arrivals at --rate with Zipf
      --skew over a --pool of hot query objects; --mode closed runs
      --sessions concurrent clients with --think-ms between replies.
      The same --seed replays the byte-identical request stream.
      --ramp steps the offered rate from START to END qps across STEPS
      equal request budgets and reports per-step ok/rejected/p99 plus
      the saturation knee (the first step that saw typed Overloaded
      rejections or delivered under 90% of its budget). --queries-from
      samples the pool from a saved database; --out writes the report
      as JSON.

  mq stats [<ADDR>] [--addr 127.0.0.1:7878]
      Scrape a running server's metric registry (Prometheus text
      exposition): distance calculations performed vs. avoided, buffer
      and prefetch hit ratios, batch-size and queue-wait histograms,
      per-partition cluster counters.

Every command rejects an option it does not read; --no-avoidance,
--checkpoint and --stats are switches and take no value.

The MQ_SIMD environment variable (off|avx2|neon|auto, default auto) pins
the distance-kernel tier; every tier returns bit-identical distances.
";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "info" => commands::info(&args),
        "query" => commands::query(&args),
        "batch" => commands::batch(&args),
        "dbscan" => commands::dbscan(&args),
        "serve" => commands::serve(&args),
        "collection" => commands::collection(&args),
        "insert" => commands::insert(&args),
        "delete" => commands::delete(&args),
        "client" => commands::client(&args),
        "loadgen" => commands::loadgen(&args),
        "stats" => commands::stats(&args),
        "" | "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'").into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
