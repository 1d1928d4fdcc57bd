//! `benchtrack`: run one workload of the Toto benchmark, or compare two
//! sets of runs.
//!
//! ```text
//! benchtrack --workload NAME --seed N --seconds S --trace 0|1 [--json PATH]
//! benchtrack --compare BASE.jsonl HEAD.jsonl
//! ```
//!
//! A run prints one line per metric and, as its last line, one JSON
//! object: `{"attempted": .., "correct": .., "failed": .., "metrics":
//! {name: {"unit": .., "value": ..}}}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer profile. `--json PATH`
//! also appends the object, with the workload, seed and trace flag, to
//! PATH for `--compare`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use toto_benchtrack::compare::{compare, parse_runs};
use toto_benchtrack::run::{run, Outcome};
use toto_benchtrack::workloads::{find, WORKLOADS};
use toto_fleet::Json;

const USAGE: &str =
    "usage: benchtrack --workload NAME --seed N --seconds S --trace 0|1 [--json PATH]\n\
                     \x20      benchtrack --compare BASE.jsonl HEAD.jsonl";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<PathBuf>,
}

enum Command {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv {
            [_, base, head] => Ok(Command::Compare(base.into(), head.into())),
            _ => Err("--compare takes two result files".to_string()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut json) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        json,
    }))
}

fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .readings
        .iter()
        .map(|r| {
            (
                r.name,
                Json::obj(vec![
                    ("value", Json::Num(r.value)),
                    ("unit", Json::Str(r.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Uint(outcome.attempted)),
        ("failed", Json::Uint(outcome.failed())),
        ("metrics", Json::obj(metrics)),
    ])
}

/// `Json::render` pretty-prints; strings never hold raw newlines, so
/// joining the trimmed lines gives the same document on one line.
fn one_line(json: &Json) -> String {
    json.render().lines().map(str::trim_start).collect()
}

fn bench(args: &RunArgs) -> Result<(), String> {
    let workload = find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?}; workloads: {}",
            args.workload,
            names.join(", ")
        )
    })?;
    let work = PathBuf::from(".bench_work");
    let root = work.join(format!("{}", std::process::id()));
    let result = run(workload, args.seed, args.seconds, args.trace, &root);
    let _ = std::fs::remove_dir_all(&root);
    // Fails, harmlessly, while another run still has its directory there.
    let _ = std::fs::remove_dir(&work);
    let outcome = result?;
    for failure in &outcome.failures {
        eprintln!("benchtrack: check failed: {failure}");
    }
    for r in &outcome.readings {
        if r.n > 1 {
            println!(
                "{:<34} {:>16.6} {:<9} q1={:.6} q3={:.6} n={}",
                r.name, r.value, r.unit, r.q1, r.q3, r.n
            );
        } else {
            println!("{:<34} {:>16.6} {}", r.name, r.value, r.unit);
        }
    }
    let json = result_json(&outcome);
    if let Some(path) = &args.json {
        let Json::Obj(mut pairs) = json.clone() else {
            unreachable!("result_json builds an object")
        };
        pairs.push(("workload".to_string(), Json::Str(workload.name.to_string())));
        pairs.push(("seed".to_string(), Json::Uint(args.seed)));
        pairs.push(("trace".to_string(), Json::Bool(args.trace)));
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", one_line(&Json::Obj(pairs))))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    println!("{}", one_line(&json));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("benchtrack: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Run(args) => match bench(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchtrack: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Compare(base, head) => {
            let read = |p: &PathBuf| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{}: {e}", p.display()))
                    .and_then(|t| parse_runs(&t))
            };
            match read(&base).and_then(|b| Ok((b, read(&head)?))) {
                Ok((b, h)) => match compare(&b, &h) {
                    Ok((table, reject)) => {
                        print!("{table}");
                        if reject {
                            ExitCode::FAILURE
                        } else {
                            ExitCode::SUCCESS
                        }
                    }
                    Err(e) => {
                        eprintln!("benchtrack: {e}");
                        ExitCode::FAILURE
                    }
                },
                Err(e) => {
                    eprintln!("benchtrack: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
