//! End-to-end tests of the `mq` binary: generate → info → query → batch →
//! dbscan against a real temp database directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mq"))
        .args(args)
        .output()
        .expect("failed to launch mq binary")
}

/// A path under the test root with nothing at it yet.
fn tmpdir(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join("mq-cli-tests");
    std::fs::create_dir_all(&root).unwrap();
    let path = root.join(name);
    std::fs::remove_dir_all(&path).ok();
    std::fs::remove_file(&path).ok();
    path
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_info_query_roundtrip() {
    let db = tmpdir("roundtrip");
    let db_str = db.to_str().unwrap();

    let gen = mq(&[
        "generate", "--kind", "image", "--n", "800", "--seed", "5", "--out", db_str,
    ]);
    assert!(
        gen.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    assert!(stdout(&gen).contains("800 image objects"));

    let info = mq(&["info", db_str]);
    assert!(info.status.success());
    let text = stdout(&info);
    assert!(text.contains("objects     : 800"));
    assert!(text.contains("dimensions  : 64"));

    for index in ["scan", "xtree", "mtree", "vafile"] {
        let q = mq(&[
            "query", db_str, "--object", "7", "--knn", "4", "--index", index,
        ]);
        assert!(q.status.success(), "query via {index} failed");
        let text = stdout(&q);
        assert!(
            text.contains("O7  distance 0.000000"),
            "{index}: self not first\n{text}"
        );
        assert!(text.contains("page reads"), "{index}: no cost line");
    }
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn batch_reports_speedup() {
    let db = tmpdir("batch");
    let db_str = db.to_str().unwrap();
    assert!(
        mq(&["generate", "--kind", "tycho", "--n", "1500", "--out", db_str])
            .status
            .success()
    );
    let out = mq(&[
        "batch",
        db_str,
        "--queries",
        "30",
        "--m",
        "15",
        "--knn",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("singles"));
    assert!(text.contains("blocks of"));
    assert!(text.contains("speed-up"));
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn dbscan_runs_in_both_modes() {
    let db = tmpdir("dbscan");
    let db_str = db.to_str().unwrap();
    assert!(
        mq(&["generate", "--kind", "image", "--n", "600", "--out", db_str])
            .status
            .success()
    );
    let single = mq(&["dbscan", db_str, "--eps", "0.05", "--min-pts", "4"]);
    assert!(single.status.success());
    let multi = mq(&[
        "dbscan",
        db_str,
        "--eps",
        "0.05",
        "--min-pts",
        "4",
        "--batch",
        "32",
    ]);
    assert!(multi.status.success());
    // Same clustering summary line regardless of mode.
    let line = |o: &Output| {
        stdout(o)
            .lines()
            .find(|l| l.contains("clusters:"))
            .unwrap()
            .trim()
            .to_string()
    };
    assert_eq!(line(&single), line(&multi));
    std::fs::remove_dir_all(&db).ok();
}

/// Every file in `dir` with its bytes.
fn snapshot(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Runs `mq` and requires it to succeed.
fn mq_ok(args: &[&str]) -> Output {
    let out = mq(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    out
}

#[test]
fn readers_replay_offline_inserts_without_writing() {
    let db = tmpdir("inserted");
    let db_str = db.to_str().unwrap();
    mq_ok(&["generate", "--kind", "tycho", "--n", "500", "--out", db_str]);
    mq_ok(&["insert", db_str, "--vector", &vec!["0.4"; 20].join(",")]);

    // The insert is still only in the WAL: info replays it read-only.
    let before = snapshot(&db);
    let info = stdout(&mq_ok(&["info", db_str]));
    assert!(info.contains("objects     : 501"), "{info}");
    assert_eq!(snapshot(&db), before, "info wrote to the database");
    assert!(!db.join("lock.mqlk").exists());
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn deleted_ids_are_refused_with_a_pointer_to_the_file_store() {
    let db = tmpdir("deleted");
    let db_str = db.to_str().unwrap();
    mq_ok(&["generate", "--kind", "tycho", "--n", "500", "--out", db_str]);
    mq_ok(&["delete", db_str, "--object", "0"]);
    for args in [
        vec!["info", db_str],
        vec!["batch", db_str, "--queries", "4", "--m", "2", "--knn", "3"],
    ] {
        let out = mq(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("deleted") && stderr.contains("--store file:"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn helpful_errors() {
    let no_cmd = mq(&["frobnicate"]);
    assert!(!no_cmd.status.success());
    assert!(String::from_utf8_lossy(&no_cmd.stderr).contains("unknown command"));

    let missing = mq(&["info", "/nonexistent/nope"]);
    assert!(!missing.status.success());

    // A database is a directory: a regular file (such as a database saved
    // in the retired single-file .mqdb container) is refused by path.
    let legacy = tmpdir("legacy.mqdb");
    std::fs::write(&legacy, b"MQDB\x01\x00").unwrap();
    let refused = mq(&["info", legacy.to_str().unwrap()]);
    assert_eq!(refused.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains(legacy.to_str().unwrap()), "{stderr}");
    // Nor does generate write over one.
    let over = mq(&["generate", "--n", "10", "--out", legacy.to_str().unwrap()]);
    assert_eq!(over.status.code(), Some(1));
    std::fs::remove_file(&legacy).ok();
    // Nor into a directory that holds anything, such as a live store: an
    // empty one is fine.
    let occupied = tmpdir("occupied");
    let occupied_str = occupied.to_str().unwrap();
    std::fs::create_dir(&occupied).unwrap();
    assert!(mq(&["generate", "--n", "10", "--out", occupied_str])
        .status
        .success());
    let again = mq(&["generate", "--n", "20", "--out", occupied_str]);
    assert_eq!(again.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(stderr.contains("not empty"), "{stderr}");
    assert!(stdout(&mq(&["info", occupied_str])).contains("objects     : 10"));
    std::fs::remove_dir_all(&occupied).ok();

    let bad_opt = mq(&["generate", "--n"]);
    assert!(!bad_opt.status.success());
    assert!(String::from_utf8_lossy(&bad_opt.stderr).contains("missing value"));

    let help = mq(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("USAGE"));
}

#[test]
fn switches_and_retired_options() {
    let db = tmpdir("switches");
    let db_str = db.to_str().unwrap();
    assert!(
        mq(&["generate", "--kind", "tycho", "--n", "600", "--out", db_str])
            .status
            .success()
    );
    let stderr = |o: &Output| String::from_utf8_lossy(&o.stderr).into_owned();

    // A valueless switch works as the last argument and in the middle.
    let batch = ["batch", db_str, "--queries", "10", "--m", "5"];
    let last = mq(&[&batch[..], &["--knn", "3", "--no-avoidance"]].concat());
    assert!(last.status.success(), "{}", stderr(&last));
    assert!(stdout(&last).contains("avoidance off"));
    let middle = mq(&[&batch[..], &["--no-avoidance", "--knn", "3"]].concat());
    assert!(middle.status.success(), "{}", stderr(&middle));
    assert_eq!(stdout(&last), stdout(&middle));

    // A misspelt option stops the run instead of running on the default.
    let typo = mq(&[
        "query", db_str, "--object", "1", "--knn", "3", "--indx", "scan",
    ]);
    assert!(!typo.status.success());
    assert!(
        stderr(&typo).contains("unknown option --indx"),
        "{}",
        stderr(&typo)
    );

    // So do the options this CLI used to read.
    for retired in ["threads", "event"] {
        let serve = mq(&[
            "serve",
            db_str,
            "--addr",
            "127.0.0.1:0",
            "--frontend",
            retired,
        ]);
        assert!(!serve.status.success());
        assert!(
            stderr(&serve).contains("unknown option --frontend"),
            "{}",
            stderr(&serve)
        );
    }
    for (option, value) in [
        ("--threads", "2"),
        ("--leader", "nearest"),
        ("--max-wait-ms", "5"),
    ] {
        let serve = mq(&["serve", db_str, "--addr", "127.0.0.1:0", option, value]);
        assert_eq!(serve.status.code(), Some(1), "{option}");
        assert!(
            stderr(&serve).contains(&format!("unknown option {option}")),
            "{}",
            stderr(&serve)
        );
    }
    // `--index vafile` is `mq query`'s filter-and-refine path only: `batch`
    // and `serve` refuse it by name, on either store, before anything is
    // built or bound — as they do a misspelt index.
    let store = tmpdir("switches-store");
    let store_arg = format!("file:{}", store.display());
    let serve = ["serve", db_str, "--addr", "127.0.0.1:0"];
    let refuse = |base: &[&str], extra: &[&str], needles: [&str; 2]| {
        let out = mq(&[base, extra].concat());
        assert!(!out.status.success(), "{extra:?}");
        for needle in needles {
            assert!(stderr(&out).contains(needle), "{extra:?}: {}", stderr(&out));
        }
        assert!(!stdout(&out).contains("listening"), "{extra:?}");
    };
    let vafile = ["--index vafile", "mq query"];
    refuse(&batch, &["--knn", "3", "--index", "vafile"], vafile);
    refuse(&serve, &["--index", "vafile"], vafile);
    refuse(
        &serve,
        &["--store", &store_arg, "--index", "vafile"],
        vafile,
    );
    refuse(
        &serve,
        &["--index", "xtreee"],
        ["unknown --index", "xtreee"],
    );
    assert!(!store.exists(), "a refused serve must not create its store");
    // The kernel tier is pinned by MQ_SIMD alone; the flag is gone.
    let query = ["query", db_str, "--object", "1", "--knn", "3"];
    refuse(
        &query,
        &["--simd", "off"],
        ["unknown option --simd", "mq query"],
    );
    let hnsw = mq(&[
        "query", db_str, "--object", "1", "--knn", "3", "--approx", "hnsw:64",
    ]);
    assert!(!hnsw.status.success());
    assert!(
        stderr(&hnsw).contains("unknown approx tier"),
        "{}",
        stderr(&hnsw)
    );
    std::fs::remove_dir_all(&db).ok();
}

/// Runs `mq serve` until it is listening, sends it SIGTERM, and returns
/// everything it printed through the graceful drain.
fn serve_then_sigterm(args: &[&str]) -> Output {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mq"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to launch mq binary");
    let mut lines = BufReader::new(child.stdout.take().unwrap());
    let mut printed = String::new();
    loop {
        let mut line = String::new();
        if lines.read_line(&mut line).unwrap() == 0 {
            break; // exited before listening
        }
        printed.push_str(&line);
        if line.starts_with("mq-server listening") {
            let pid = child.id().to_string();
            let kill = Command::new("kill").args(["-TERM", &pid]).status();
            assert!(kill.expect("run kill").success());
            break;
        }
    }
    lines.read_to_string(&mut printed).unwrap();
    let mut stderr = Vec::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_end(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    Output {
        status,
        stdout: printed.into_bytes(),
        stderr,
    }
}

#[test]
fn drain_checkpoints_every_store_the_backend_serves() {
    let db = tmpdir("drain-db");
    let db_str = db.to_str().unwrap();
    assert!(mq(&["generate", "--n", "600", "--out", db_str])
        .status
        .success());
    let checkpointed = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter(|l| l.starts_with("checkpointed "))
            .map(str::to_string)
            .collect()
    };
    let serve = |store: &Path, extra: &[&str]| {
        let store_arg = format!("file:{}", store.display());
        let base = [
            "serve",
            db_str,
            "--addr",
            "127.0.0.1:0",
            "--store",
            &store_arg,
        ];
        let out = serve_then_sigterm(&[&base[..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{extra:?}: {stderr}");
        out
    };

    // One server: the store is the directory itself.
    let single = tmpdir("drain-single");
    let out = serve(&single, &[]);
    assert_eq!(
        checkpointed(&out),
        vec![format!("checkpointed {}", single.display())]
    );
    assert!(
        stdout(&out).contains("config: servers=1 "),
        "{}",
        stdout(&out)
    );

    // A 3-partition store keeps its three partitions whatever --cluster
    // says on restart, and every one of them is checkpointed at drain.
    let cluster = tmpdir("drain-cluster");
    let parts: Vec<String> = (0..3)
        .map(|p| {
            format!(
                "checkpointed {}",
                cluster.join(format!("part-{p}")).display()
            )
        })
        .collect();
    for servers in ["3", "2", "4", "1"] {
        let out = serve(&cluster, &["--cluster", servers]);
        assert_eq!(checkpointed(&out), parts, "--cluster {servers}");
        assert!(
            stdout(&out).contains("config: servers=3 "),
            "--cluster {servers}: {}",
            stdout(&out)
        );
    }

    let zero = mq(&["serve", db_str, "--addr", "127.0.0.1:0", "--cluster", "0"]);
    assert_eq!(zero.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&zero.stderr);
    assert!(stderr.contains("--cluster must be at least 1"), "{stderr}");
    assert!(!stdout(&zero).contains("listening"));
    for dir in [&db, &single, &cluster] {
        std::fs::remove_dir_all(dir).ok();
    }
}
