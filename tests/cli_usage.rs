//! Usage errors and stdout handling of the `iupdater` binary: malformed
//! numbers and flags a command does not take must exit with status 2
//! instead of silently running on defaults; a reader that closes stdout
//! early ends a command quietly with status 0, and a failed write to
//! stdout exits with status 1.

use std::process::{Command, Output, Stdio};

/// Runs the binary on a whitespace-separated argument line.
fn iupdater(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iupdater"))
        .args(args.split_whitespace())
        .output()
        .expect("iupdater binary runs")
}

fn assert_usage_error(args: &str, needle: &str) {
    let out = iupdater(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
    assert!(out.stdout.is_empty(), "{args} printed a result");
    assert!(stderr.contains(needle), "{args}: {stderr}");
}

#[test]
fn malformed_numbers_are_usage_errors() {
    assert_usage_error("survey --env office --seed abc", "--seed");
    assert_usage_error("survey --env office --day soon", "--day");
    assert_usage_error("survey --env office --samples -3", "--samples");
    for day in ["nan", "inf", "-inf"] {
        assert_usage_error(&format!("survey --env office --day {day}"), "--day");
        assert_usage_error(
            &format!("update --env office --prior db.txt --day {day}"),
            "--day",
        );
        assert_usage_error(
            &format!("localize --env office --db db.txt --cell 3 --day {day}"),
            "--day",
        );
    }
    assert_usage_error(
        "serve --envs office --days 5 --queries-per-cell many",
        "--queries-per-cell",
    );
    assert_usage_error(
        "batch --envs office --days 5 --rebase-every x",
        "--rebase-every",
    );
}

#[test]
fn flags_a_command_does_not_take_are_usage_errors() {
    assert_usage_error(
        "batch --envs office --days 5 --sweep-order red-black",
        "batch does not take --sweep-order",
    );
    assert_usage_error(
        "survey --env office --sede 7",
        "survey does not take --sede",
    );
}

#[test]
fn well_formed_flags_still_run() {
    let out = iupdater("survey --env office --seed 7 --day 0.5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(out.stdout.starts_with(b"iupdater-fingerprint v1"));
}

/// `iupdater snapshot … | head` with the reader gone before the result
/// is written: the write fails with a closed pipe, which must end the
/// command with status 0 and nothing on stderr, not a panic.
#[test]
fn a_closed_stdout_exits_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_iupdater"))
        .args("snapshot --envs office --days 5 --seed 7".split_whitespace())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("iupdater binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("iupdater exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

/// Any other write error is the command's failure: a full device makes
/// the write fail, which must exit with status 1 and say why.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_stdout_write_is_an_error() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens for writing");
    let out = Command::new(env!("CARGO_BIN_EXE_iupdater"))
        .args("survey --env office --seed 7".split_whitespace())
        .stdout(full)
        .output()
        .expect("iupdater binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write the result to stdout"),
        "{stderr}"
    );
}
