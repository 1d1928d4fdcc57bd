//! `toto` — run a built-in scenario or a scenario TOML file.
//!
//! ```text
//! toto run <builtin | file.toml> [--seeds N] [--threads T]
//!          [--hours H] [--out DIR] [--trace]
//! ```
//!
//! See [`toto_scenario::cli`] for the command reference and exit codes.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(toto_scenario::cli::main(&argv));
}
