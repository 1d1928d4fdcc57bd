//! `toto` — run any scenario or `<Scenario>` XML spec, or emit a spec.
//!
//! ```text
//! toto run <builtin | file.toml | spec.xml> [--seeds N] [--threads T]
//!          [--hours H] [--out DIR] [--trace]
//! toto emit [density]
//! ```
//!
//! See [`toto_scenario::cli`] for the command reference and exit codes.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(toto_scenario::cli::main(&argv));
}
