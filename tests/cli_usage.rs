//! Usage errors of the `iupdater` binary: malformed numbers and flags a
//! command does not take must exit with status 2 instead of silently
//! running on defaults.

use std::process::{Command, Output};

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
