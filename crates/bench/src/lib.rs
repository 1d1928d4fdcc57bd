//! Experiment drivers for the Toto reproduction.
//!
//! One binary per table/figure of the paper lives in `src/bin/`. This
//! library holds what they share: command-line conventions
//! ([`BenchArgs`]), running the four-density study as a parallel fleet,
//! rendering aligned text tables, and the PLB fixtures `benchtrack` times.

use toto::experiment::{run_end, ExperimentOverrides, ExperimentResult};
use toto_fleet::{FleetExecutor, FleetPlan, StderrProgress};
use toto_spec::ScenarioSpec;

pub mod fixtures;

/// The paper's four density levels (§5.2).
pub const DENSITIES: [u32; 4] = [100, 110, 120, 140];

/// The shared command-line surface of every experiment driver.
///
/// All drivers accept the same flags, parsed once here instead of ad hoc
/// per binary:
///
/// ```text
/// --hours N     simulated duration override (default: the paper's 144)
/// --threads T   fleet worker threads (default: all available cores)
/// --seed S      root seed override for drivers that take one
/// --out DIR     run-artifact directory for drivers that persist results
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// `--hours N`; `None` means each driver's default (usually 144).
    pub hours: Option<u64>,
    /// `--threads T`; defaults to all available cores.
    pub threads: usize,
    /// `--seed S`; `None` means the driver's built-in seed.
    pub seed: Option<u64>,
    /// `--out DIR`; `None` means the driver's default (usually `results`).
    pub out: Option<String>,
}

/// The usage line printed when a driver rejects its flags.
const USAGE: &str = "usage: <driver> [--hours N] [--threads T] [--seed S] [--out DIR]";

impl BenchArgs {
    /// Parse from the process arguments; on a malformed flag, print the
    /// error and the usage line to stderr and exit 2.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parse from an explicit argument list (testable seam).
    pub fn parse_from(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = BenchArgs {
            hours: None,
            threads: default_threads(),
            seed: None,
            out: None,
        };
        let mut iter = argv.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or(format!("{flag} requires a value"));
            match flag.as_str() {
                "--hours" => args.hours = Some(integer(&flag, value()?)?),
                "--threads" => args.threads = integer(&flag, value()?)?,
                "--seed" => args.seed = Some(integer(&flag, value()?)?),
                "--out" => args.out = Some(value()?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if let Some(hours) = args.hours {
            run_end(hours).map_err(|e| format!("--hours: {e}"))?;
        }
        Ok(args)
    }

    /// `--hours` with a driver-supplied default.
    pub fn hours_or(&self, default: u64) -> u64 {
        self.hours.unwrap_or(default)
    }

    /// A fleet executor sized by `--threads`.
    pub fn executor(&self) -> FleetExecutor {
        FleetExecutor::new(self.threads)
    }
}

fn integer<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: not an integer: {value:?}"))
}

/// All available cores (the fleet default).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// The §5 density study as a fleet plan: one job per density level on
/// the gen5 stage ring. Scenario seeds are the paper's fixed defaults
/// (pinned, not derived) so results are identical to the historical
/// serial driver run by run.
pub fn density_study_plan(duration_hours: Option<u64>) -> FleetPlan {
    let mut plan = FleetPlan::new(0);
    for &density in &DENSITIES {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(density);
        if let Some(h) = duration_hours {
            scenario.duration_hours = h;
        }
        plan.add_pinned(
            format!("density-{density}"),
            scenario,
            ExperimentOverrides::default(),
        );
    }
    plan
}

/// Run the full §5 density study: four 6-day experiments, executed as a
/// parallel fleet on all available cores (the four jobs are mutually
/// independent; per-experiment determinism is unchanged).
///
/// `duration_hours` overrides the 144-hour default (the figure binaries
/// accept `--hours N` for quick runs). Results come back in density
/// order, exactly as the historical serial loop produced them.
pub fn run_density_study(duration_hours: Option<u64>) -> Vec<ExperimentResult> {
    run_density_study_on(duration_hours, default_threads())
}

/// [`run_density_study`] with an explicit worker count.
pub fn run_density_study_on(duration_hours: Option<u64>, threads: usize) -> Vec<ExperimentResult> {
    let plan = density_study_plan(duration_hours);
    let report = FleetExecutor::new(threads).run(plan.jobs(), &StderrProgress);
    report
        .jobs
        .into_iter()
        .map(|job| match job.outcome {
            toto_fleet::JobOutcome::Completed(out) => out.result,
            other => panic!(
                "density job {} did not complete: {}",
                job.label,
                other.status()
            ),
        })
        .collect()
}

/// Render rows as a fixed-width text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        out.push_str(&"-".repeat(widths[i]));
        out.push_str("  ");
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].starts_with("1  "));
    }

    #[test]
    fn densities_match_paper() {
        assert_eq!(DENSITIES, [100, 110, 120, 140]);
    }

    #[test]
    fn bench_args_parse_all_flags() {
        let args = BenchArgs::parse_from(
            [
                "--hours",
                "12",
                "--threads",
                "3",
                "--seed",
                "7",
                "--out",
                "tmp",
            ]
            .map(String::from),
        )
        .expect("valid flags");
        assert_eq!(args.hours, Some(12));
        assert_eq!(args.threads, 3);
        assert_eq!(args.seed, Some(7));
        assert_eq!(args.out.as_deref(), Some("tmp"));
        assert_eq!(args.hours_or(144), 12);
    }

    #[test]
    fn bench_args_defaults() {
        let args = BenchArgs::parse_from(Vec::new()).expect("no flags");
        assert_eq!(args.hours, None);
        assert_eq!(args.hours_or(144), 144);
        assert!(args.threads >= 1);
    }

    #[test]
    fn bench_args_reject_typos() {
        let err = BenchArgs::parse_from(["--hour", "12"].map(String::from));
        assert_eq!(err, Err("unknown flag \"--hour\"".to_string()));
        let err = BenchArgs::parse_from(["--hours", "twelve"].map(String::from));
        assert!(err.unwrap_err().contains("--hours"));
        let err = BenchArgs::parse_from(["--out".to_string()]);
        assert_eq!(err, Err("--out requires a value".to_string()));
    }

    #[test]
    fn bench_args_reject_hours_past_the_clock() {
        let err = BenchArgs::parse_from(["--hours", "18446744073709551615"].map(String::from));
        assert!(err.unwrap_err().contains("overflows the simulated clock"));
    }

    #[test]
    fn density_plan_keeps_paper_seeds() {
        let plan = density_study_plan(Some(6));
        let defaults = ScenarioSpec::gen5_stage_cluster(120);
        let job = &plan.jobs()[2];
        assert_eq!(job.scenario.density_percent, 120);
        assert_eq!(job.scenario.population_seed, defaults.population_seed);
        assert_eq!(job.scenario.model_seed, defaults.model_seed);
        assert_eq!(job.scenario.plb_seed, defaults.plb_seed);
        assert_eq!(job.scenario.duration_hours, 6);
    }
}
