//! The `iupdater` command-line tool: survey, update, localize and
//! inspect fingerprint databases on a simulated deployment. All logic
//! lives in [`iupdater::cli`]; this binary only parses arguments and
//! does file I/O.
//!
//! A command's result goes to stdout in one write. A reader that closes
//! stdout early (`iupdater snapshot … | head`) ends the command quietly
//! with status 0; any other write error is reported with status 1.

use std::collections::BTreeMap;
use std::fs;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::str::FromStr;

use iupdater::cli;

/// A checked command line: the `--flag value` pairs plus every numeric
/// flag, parsed.
struct Args {
    flags: BTreeMap<String, String>,
    seed: u64,
    day: f64,
    samples: usize,
    queries_per_cell: usize,
    rebase_every: Option<usize>,
}

/// Collects `--flag value` pairs for `command`. A flag the command does
/// not take, a stray positional argument, or a malformed number
/// (including a non-finite `--day`) is an error, never a silent default.
/// Unknown commands pass through for `main` to report.
fn parse_args(command: &str, args: impl Iterator<Item = String>) -> Result<Args, String> {
    let takes: Option<&[&str]> = match command {
        "survey" => Some(&["env", "seed", "day", "samples"]),
        "update" => Some(&["env", "prior", "seed", "day", "samples"]),
        "localize" => Some(&["env", "db", "cell", "seed", "day"]),
        "info" => Some(&["db"]),
        "batch" => Some(&[
            "envs",
            "days",
            "seed",
            "samples",
            "snapshot-dir",
            "rebase-every",
        ]),
        "serve" => Some(&["envs", "days", "seed", "samples", "queries-per-cell"]),
        "snapshot" => Some(&["envs", "days", "seed", "samples"]),
        "restore" => Some(&["snapshot", "days", "samples"]),
        _ => None,
    };
    let mut flags = BTreeMap::new();
    let mut key: Option<String> = None;
    for a in args {
        if let Some(stripped) = a.strip_prefix("--") {
            if takes.is_some_and(|t| !t.contains(&stripped)) {
                return Err(format!("{command} does not take --{stripped}"));
            }
            key = Some(stripped.to_string());
            flags.entry(stripped.to_string()).or_default();
        } else if let Some(k) = key.take() {
            flags.insert(k, a);
        } else {
            return Err(format!("unexpected argument '{a}'"));
        }
    }
    fn number<T: FromStr>(
        flags: &BTreeMap<String, String>,
        name: &str,
    ) -> Result<Option<T>, String> {
        flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} must be a number, got '{v}'"))
            })
            .transpose()
    }
    let day: f64 = number(&flags, "day")?.unwrap_or(0.0);
    if !day.is_finite() {
        return Err(format!("--day must be a finite number, got '{day}'"));
    }
    Ok(Args {
        seed: number(&flags, "seed")?.unwrap_or(42),
        day,
        samples: number(&flags, "samples")?.unwrap_or(5),
        queries_per_cell: number(&flags, "queries-per-cell")?.unwrap_or(4),
        rebase_every: number(&flags, "rebase-every")?,
        flags,
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{}", cli::usage());
        return ExitCode::from(2);
    };
    let Args {
        flags,
        seed,
        day,
        samples,
        queries_per_cell,
        rebase_every,
    } = match parse_args(&command, args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let get = |name: &str| flags.get(name).cloned();

    let result = match command.as_str() {
        "survey" => {
            let Some(env) = get("env") else {
                eprintln!("survey requires --env");
                return ExitCode::from(2);
            };
            cli::cmd_survey(&env, seed, day, samples)
        }
        "update" => {
            let (Some(env), Some(prior_path)) = (get("env"), get("prior")) else {
                eprintln!("update requires --env and --prior");
                return ExitCode::from(2);
            };
            match fs::read_to_string(&prior_path) {
                Ok(prior) => {
                    cli::cmd_update(&env, seed, &prior, day, samples).map(|(db, summary)| {
                        eprintln!("{summary}");
                        db
                    })
                }
                Err(e) => {
                    eprintln!("cannot read {prior_path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        "localize" => {
            let (Some(env), Some(db_path), Some(cell)) = (get("env"), get("db"), get("cell"))
            else {
                eprintln!("localize requires --env, --db and --cell");
                return ExitCode::from(2);
            };
            let Ok(cell) = cell.parse::<usize>() else {
                eprintln!("--cell must be an integer");
                return ExitCode::from(2);
            };
            match fs::read_to_string(&db_path) {
                Ok(db) => cli::cmd_localize(&env, seed, &db, cell, day),
                Err(e) => {
                    eprintln!("cannot read {db_path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        "info" => {
            let Some(db_path) = get("db") else {
                eprintln!("info requires --db");
                return ExitCode::from(2);
            };
            match fs::read_to_string(&db_path) {
                Ok(db) => cli::cmd_info(&db),
                Err(e) => {
                    eprintln!("cannot read {db_path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        "batch" => {
            let (Some(envs), Some(days)) = (get("envs"), get("days")) else {
                eprintln!("batch requires --envs and --days (comma-separated lists)");
                return ExitCode::from(2);
            };
            let snapshot_dir = get("snapshot-dir").map(std::path::PathBuf::from);
            cli::cmd_batch(
                &envs,
                seed,
                &days,
                samples,
                snapshot_dir.as_deref(),
                rebase_every,
            )
        }
        "serve" => {
            let (Some(envs), Some(days)) = (get("envs"), get("days")) else {
                eprintln!("serve requires --envs and --days (comma-separated lists)");
                return ExitCode::from(2);
            };
            cli::cmd_serve(&envs, seed, &days, samples, queries_per_cell).map(|(snap, report)| {
                eprint!("{report}");
                snap
            })
        }
        "snapshot" => {
            let Some(envs) = get("envs") else {
                eprintln!("snapshot requires --envs (comma-separated list)");
                return ExitCode::from(2);
            };
            let days = get("days").unwrap_or_default();
            cli::cmd_snapshot(&envs, seed, &days, samples)
        }
        "restore" => {
            let Some(snap_path) = get("snapshot") else {
                eprintln!("restore requires --snapshot <snap file>");
                return ExitCode::from(2);
            };
            let days = get("days").unwrap_or_default();
            match fs::read_to_string(&snap_path) {
                Ok(text) => cli::cmd_restore(&text, &days, samples).map(|(snap, report)| {
                    eprint!("{report}");
                    snap
                }),
                Err(e) => {
                    eprintln!("cannot read {snap_path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        "help" | "--help" | "-h" => Ok(format!("{}\n", cli::usage())),
        other => {
            eprintln!("unknown command '{other}'\n\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(text) => emit(&text),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

/// Writes a command's result through one locked stdout handle. A closed
/// pipe means the reader has taken all it wants, so it exits 0 without
/// a message; any other write error is the command's failure.
fn emit(text: &str) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write the result to stdout: {e}");
            ExitCode::from(1)
        }
    }
}
