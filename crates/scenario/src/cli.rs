//! The `toto` command line: the one front end for every run.
//!
//! ```text
//! toto run <builtin | file.toml> [--seeds N] [--threads T]
//!          [--hours H] [--out DIR] [--trace]
//! ```
//!
//! `run` takes a built-in scenario name ([`NAMED_SCENARIOS`]) or a
//! scenario TOML file. Everything a run studies — densities, chaos plan,
//! region, seed — lives in the scenario file; the flags only say how to
//! execute it.
//!
//! Exit codes: 0 on success; 1 when a run ran but failed (a job failed,
//! the K-S oracle gate rejected the workload, a chaos invariant oracle
//! fired, or artifacts could not be written); 2 on bad input (usage,
//! flag values, an unreadable or malformed scenario). Bad input never
//! panics.

use crate::builtin::{builtin, NAMED_SCENARIOS};
use crate::doc::ScenarioDoc;
use crate::error::ScenarioError;
use crate::runner::{run, RunOptions};
use toto::experiment::run_end;
use toto_fleet::StderrProgress;

const USAGE: &str = "usage: toto run <builtin | file.toml> [--seeds N] [--threads T] \
                     [--hours H] [--out DIR] [--trace]";

/// A resolved scenario: its source text plus where it came from.
#[derive(Clone, Debug)]
pub struct ResolvedScenario {
    /// The scenario source text (TOML).
    pub source: String,
    /// The validated document.
    pub doc: ScenarioDoc,
}

/// Resolve a scenario argument: a built-in name ([`NAMED_SCENARIOS`]) or
/// a path to a `.toml` scenario file.
pub fn resolve(name_or_path: &str) -> Result<ResolvedScenario, ScenarioError> {
    let source = match builtin(name_or_path) {
        Some(text) => text.to_string(),
        None => std::fs::read_to_string(name_or_path).map_err(|e| ScenarioError::Io {
            path: name_or_path.to_string(),
            message: format!(
                "{e} (not a built-in scenario either; built-ins: {})",
                NAMED_SCENARIOS.join(", ")
            ),
        })?,
    };
    let doc = ScenarioDoc::parse(&source)?;
    Ok(ResolvedScenario { source, doc })
}

/// Parsed `toto run` arguments.
struct RunArgs {
    target: String,
    seeds: u64,
    threads: usize,
    hours: Option<u64>,
    out: String,
    trace: bool,
}

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        target: String::new(),
        seeds: 1,
        threads: std::thread::available_parallelism().map_or(4, usize::from),
        hours: None,
        out: "results".to_string(),
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        let integer = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: not an integer: {v:?}"))
        };
        match arg.as_str() {
            "--seeds" => args.seeds = integer(value()?)?,
            "--threads" => args.threads = integer(value()?)? as usize,
            "--hours" => args.hours = Some(integer(value()?)?),
            "--out" => args.out = value()?.clone(),
            "--trace" => args.trace = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            target if args.target.is_empty() => args.target = target.to_string(),
            extra => {
                return Err(format!(
                    "unexpected argument {extra:?}: run takes one scenario"
                ));
            }
        }
    }
    if args.target.is_empty() {
        return Err(format!(
            "run needs a scenario; built-ins: {}",
            NAMED_SCENARIOS.join(", ")
        ));
    }
    if args.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    if let Some(hours) = args.hours {
        if hours == 0 {
            return Err("--hours must be positive".to_string());
        }
        run_end(hours).map_err(|e| format!("--hours: {e}"))?;
    }
    Ok(args)
}

fn fail(code: i32, err: impl std::fmt::Display) -> i32 {
    eprintln!("toto: {err}");
    code
}

fn run_command(argv: &[String]) -> i32 {
    let args = match parse_run_args(argv) {
        Ok(args) => args,
        Err(e) => return fail(2, format!("{e}\n{USAGE}")),
    };
    let options = RunOptions {
        threads: args.threads.max(1),
        seeds: args.seeds,
        out: args.out,
    };
    let mut resolved = match resolve(&args.target) {
        Ok(resolved) => resolved,
        Err(e) => return fail(2, e),
    };
    resolved.doc.hours = args.hours.or(resolved.doc.hours);
    resolved.doc.trace |= args.trace;
    match run(&resolved.doc, &resolved.source, &options, &StderrProgress) {
        Ok(summary) => {
            println!(
                "{}: {} completed, {} failed, {} oracle families fitted -> {}",
                summary.fleet_name,
                summary.completed,
                summary.failed,
                summary.oracle_families,
                summary.dir.display()
            );
            if summary.chaos_violations > 0 {
                println!("chaos oracle violations: {}", summary.chaos_violations);
            }
            i32::from(summary.failed > 0 || summary.chaos_violations > 0)
        }
        Err(e @ (ScenarioError::Parse(_) | ScenarioError::Invalid { .. })) => fail(2, e),
        Err(e) => fail(1, e),
    }
}

/// Run the `toto` command line on `argv` (without the program name) and
/// return the process exit code.
pub fn main(argv: &[String]) -> i32 {
    match argv.first().map(String::as_str) {
        Some("run") => run_command(&argv[1..]),
        Some("help" | "--help" | "-h") => {
            println!(
                "{USAGE}\nbuilt-in scenarios: {}",
                NAMED_SCENARIOS.join(", ")
            );
            0
        }
        Some(other) => fail(2, format!("unknown command {other:?}\n{USAGE}")),
        None => fail(2, USAGE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let args = parse_run_args(&argv(&[
            "density_sweep",
            "--seeds",
            "3",
            "--threads",
            "2",
            "--hours",
            "24",
            "--out",
            "/tmp/x",
            "--trace",
        ]))
        .expect("parses");
        assert_eq!(args.target, "density_sweep");
        assert_eq!(args.seeds, 3);
        assert_eq!(args.threads, 2);
        assert_eq!(args.hours, Some(24));
        assert_eq!(args.out, "/tmp/x");
        assert!(args.trace);
    }

    #[test]
    fn missing_scenario_extra_arguments_and_zero_seeds_are_rejected() {
        for bad in [
            &[][..],
            &["a", "b"][..],
            &["density_sweep", "--seeds", "0"][..],
        ] {
            assert!(parse_run_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn resolve_prefers_builtins_and_reports_unknowns() {
        let resolved = resolve("density_sweep").expect("builtin resolves");
        assert_eq!(resolved.doc.name, "density-sweep");
        let err = resolve("no_such_scenario_anywhere").unwrap_err();
        match err {
            ScenarioError::Io { message, .. } => {
                assert!(message.contains("built-ins"), "{message}")
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
