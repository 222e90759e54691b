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
    assert!(!dir.join("results").exists(), "a rejected command line leaves nothing behind");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn the_deleted_bench_commands_are_unknown() {
    let dir = scratch("unknown");
    for suffix in ["", "-pipeline", "-wal", "-mvcc", "-adaptive", "-block", "-check"] {
        let cmd = &format!("bench{suffix}");
        let out = experiments(&dir, &[cmd, "--tiny"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"), "{cmd}");
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
    ] {
        let out = experiments(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        let path = std::path::Path::new("results").join(file);
        assert!(err.contains(&format!("cannot write {}", path.display())), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
