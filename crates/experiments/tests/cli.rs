//! The `experiments` binary's argument and result-file handling, driven as
//! a subprocess: exit codes and messages are the contract `scripts/ci.sh`
//! relies on.

use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(cwd: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn experiments")
}

/// A fresh scratch directory per test (tests run on parallel threads).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gstm-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn a_flag_without_its_value_is_rejected_by_every_command() {
    let dir = scratch("flags");
    // `check --seed` used to run seed 7 silently, `block-smoke --seed` seed 11.
    for (args, flag) in [
        (&["check", "--tiny", "--seed"][..], "--seed"),
        (&["recover", "--tiny", "--seed"], "--seed"),
        (&["block-smoke", "--seed"], "--seed"),
        (&["check", "--threads", "--tiny"], "--threads"),
        (&["cell", "--tiny", "--bench"], "--bench"),
    ] {
        let out = experiments(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("{flag} requires an argument")), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
    let out = experiments(&dir, &["block-smoke", "--seed", "-3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed requires a non-negative"));
    // A zero worker count used to panic in the executor (exit 101) after
    // the reference line was printed.
    for threads in ["0", "2,0"] {
        let out = experiments(&dir, &["block-smoke", "--threads", threads]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {err}");
        assert!(err.contains("block-smoke: bad thread count \"0\""), "--threads {threads}: {err}");
        assert!(out.stdout.is_empty(), "--threads {threads} must not run anything");
    }
    assert!(!dir.join("results").exists(), "a rejected command line leaves nothing behind");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn an_out_of_range_count_is_rejected_before_any_run() {
    let dir = scratch("ranges");
    // A thread count past u16::MAX used to panic in `StmConfig::new`
    // (exit 101); `block-smoke --requests 0` ran every lane and then failed
    // its own comparison (exit 1); `check`/`recover` ran 2 threads for
    // `--threads 0|1` and `recover` 1 request for `--requests 0`, exit 0;
    // `check --ops 0` ran every cell and reported each as a violation.
    for (args, message) in [
        (
            &["check", "--tiny", "--threads", "70000", "--ops", "1"][..],
            "--threads must be in 2..=65535, got 70000",
        ),
        (
            &["recover", "--tiny", "--threads", "70000", "--requests", "1", "--no-cache"],
            "--threads must be in 2..=65535, got 70000",
        ),
        (
            &["check", "--tiny", "--threads", "1", "--ops", "1"],
            "--threads must be in 2..=65535, got 1",
        ),
        (
            &["check", "--tiny", "--threads", "0", "--ops", "1"],
            "--threads must be in 2..=65535, got 0",
        ),
        (
            &["recover", "--tiny", "--threads", "1", "--requests", "1", "--no-cache"],
            "--threads must be in 2..=65535, got 1",
        ),
        (
            &["recover", "--tiny", "--requests", "0", "--no-cache"],
            "recover: --requests must be at least 1, got 0",
        ),
        (&["check", "--tiny", "--ops", "0"], "check: --ops must be at least 1, got 0"),
        (&["block-smoke", "--requests", "0"], "block-smoke: --requests must be at least 1, got 0"),
    ] {
        let out = experiments(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
    assert!(!dir.join("results").exists(), "a rejected command line leaves nothing behind");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// The deleted `bench*` commands and the deleted online-retrain study exit
/// 2 with the usage line and write nothing.
#[test]
fn the_deleted_bench_commands_are_unknown() {
    let dir = scratch("unknown");
    for cmd in [
        "bench",
        "bench-pipeline",
        "bench-wal",
        "bench-mvcc",
        "bench-adaptive",
        "bench-block",
        "bench-check",
        "serve-adaptive",
    ] {
        let out = experiments(&dir, &[cmd, "--tiny", "--cache-dir", "cache"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"), "{cmd}");
        assert!(out.stdout.is_empty(), "{cmd}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "an unknown command writes nothing: {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// A single-output command prints exactly the block `all` prints under the
/// same header: both render from one list of the paper's outputs.
#[test]
fn a_single_output_command_prints_its_block_of_all() {
    let dir = scratch("single");
    let stdout = |command: &str| {
        let out = experiments(&dir, &[command, "--tiny", "--cache-dir", "cache"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command}: {err}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let all = stdout("all");
    // Every output opens with its one `== … ==` header line.
    let starts: Vec<usize> = all
        .match_indices("== ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || all.as_bytes()[i - 1] == b'\n')
        .collect();
    assert_eq!(starts.len(), 16, "{all}");
    for command in ["table3", "fig7", "fig12", "serve"] {
        let single = stdout(command);
        let header = single.lines().next().expect("a header line");
        let at: Vec<usize> = (0..starts.len())
            .filter(|&i| all[starts[i]..].lines().next() == Some(header))
            .collect();
        assert_eq!(at.len(), 1, "{command}: `{header}` heads one block of all");
        let end = starts.get(at[0] + 1).copied().unwrap_or(all.len());
        assert_eq!(single, &all[starts[at[0]]..end], "{command}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// `scripts/ci.sh` diffs `results/{check,recover,…}.txt` against the
/// committed tables, so a result file that cannot be written must fail the
/// command instead of passing on the stale copy.
#[test]
fn an_unwritable_result_file_fails_the_command() {
    let dir = scratch("results");
    // `results` is a regular file: no `<out_dir>/<id>.txt` can be created.
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    for (args, file) in [
        (&["table2", "--tiny", "--no-cache"][..], "table2.txt"),
        (&["check", "--tiny", "--threads", "2", "--ops", "1"], "check.txt"),
        (&["recover", "--tiny", "--requests", "1", "--no-cache"], "recover.txt"),
        (&["train-model", "--tiny", "--no-cache"], "kmeans-2t.gtsa"),
    ] {
        let out = experiments(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        let path = std::path::Path::new("results").join(file);
        assert!(err.contains(&format!("cannot write {}: ", path.display())), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// A `--metrics` dump that cannot be written fails like a result file:
/// exit 1 naming the path, not the usage error's exit 2.
#[test]
fn an_unwritable_metrics_file_fails_the_command() {
    let dir = scratch("metrics");
    std::fs::write(dir.join("blocked"), "not a directory").unwrap();
    let args = ["cell", "--bench", "kmeans", "--tiny", "--no-cache", "--metrics", "blocked/m.txt"];
    let out = experiments(&dir, &args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let path = std::path::Path::new("blocked").join("m.txt");
    assert!(err.contains(&format!("cannot write {}: ", path.display())), "{err}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// A model file `inspect-model` cannot read, missing or corrupt, exits 1
/// naming the path instead of panicking.
#[test]
fn an_unreadable_model_file_fails_inspect_model() {
    let dir = scratch("models");
    let missing = dir.join("missing.gtsa");
    // One header byte flipped: the magic no longer reads `GTSA`.
    let corrupt = dir.join("corrupt.gtsa");
    let trained = gstm_experiments::study::synthetic_trained(2);
    let mut bytes = gstm_model::serialize::to_bytes(&trained.tsa);
    bytes[0] ^= 0x01;
    std::fs::write(&corrupt, bytes).unwrap();
    for model in [&missing, &corrupt] {
        let model = model.to_str().expect("utf-8 scratch path");
        let out = experiments(&dir, &["inspect-model", model]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{model}: {err}");
        assert!(err.contains(&format!("cannot read model {model}: ")), "{model}: {err}");
        assert!(!err.contains("panicked"), "{model}: {err}");
        assert!(out.stdout.is_empty(), "{model}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
