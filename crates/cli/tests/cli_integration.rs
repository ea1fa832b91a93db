//! End-to-end tests of the `mq` binary: generate → info → query → batch →
//! dbscan against a real temp file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mq"))
        .args(args)
        .output()
        .expect("failed to launch mq binary")
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mq-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_info_query_roundtrip() {
    let db = tmpfile("roundtrip.mqdb");
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
    std::fs::remove_file(&db).ok();
}

#[test]
fn batch_reports_speedup() {
    let db = tmpfile("batch.mqdb");
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
    std::fs::remove_file(&db).ok();
}

#[test]
fn dbscan_runs_in_both_modes() {
    let db = tmpfile("dbscan.mqdb");
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
    std::fs::remove_file(&db).ok();
}

#[test]
fn helpful_errors() {
    let no_cmd = mq(&["frobnicate"]);
    assert!(!no_cmd.status.success());
    assert!(String::from_utf8_lossy(&no_cmd.stderr).contains("unknown command"));

    let missing = mq(&["info", "/nonexistent/nope.mqdb"]);
    assert!(!missing.status.success());

    let bad_opt = mq(&["generate", "--n"]);
    assert!(!bad_opt.status.success());
    assert!(String::from_utf8_lossy(&bad_opt.stderr).contains("missing value"));

    let help = mq(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("USAGE"));
}

#[test]
fn switches_and_retired_options() {
    let db = tmpfile("switches.mqdb");
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
    let store = tmpfile("switches-store");
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
    std::fs::remove_file(&db).ok();
}
