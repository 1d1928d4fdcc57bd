//! Experiment drivers for the Toto reproduction.
//!
//! The drivers live in `src/bin/`: `density_study` prints every artifact
//! of the paper's §5 density study, the others one table, figure, study
//! or ablation each. This library holds what they share: command-line
//! conventions ([`BenchArgs`]), running the four-density study as a
//! parallel fleet and checking the paper's claims on it
//! ([`density_claims`]), rendering aligned text tables, and the PLB
//! fixtures `benchtrack` times.

use toto::defaults::gen5_model_set;
use toto::experiment::{run_end, ExperimentOverrides, ExperimentResult};
use toto_fleet::{FleetExecutor, FleetPlan, FleetReport, JobOutcome, JobReport, StderrProgress};
use toto_spec::model::{HourlyTable, ModelSetSpec};
use toto_spec::{EditionKind, ResourceKind, ScenarioSpec};

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
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// `--hours N`; `None` means each driver's default (usually 144).
    pub hours: Option<u64>,
    /// `--threads T`; defaults to all available cores.
    pub threads: usize,
}

/// The usage line printed when a driver rejects its flags.
const USAGE: &str = "usage: <driver> [--hours N] [--threads T]";

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
        };
        let mut iter = argv.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or(format!("{flag} requires a value"));
            match flag.as_str() {
                "--hours" => args.hours = Some(integer(&flag, value()?)?),
                "--threads" => args.threads = integer(&flag, value()?)?,
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
/// parallel fleet on `threads` workers (the four jobs are mutually
/// independent; per-experiment determinism is unchanged).
///
/// `duration_hours` overrides the 144-hour default (`density_study`
/// accepts `--hours N` for quick runs). Results come back in density
/// order, exactly as the historical serial loop produced them.
pub fn run_density_study(duration_hours: Option<u64>, threads: usize) -> Vec<ExperimentResult> {
    let plan = density_study_plan(duration_hours);
    let report = FleetExecutor::new(threads).run(plan.jobs(), &StderrProgress);
    outputs(report).into_iter().map(|out| out.result).collect()
}

/// The gen5 model set for `scenario` with its CPU-usage model replaced
/// by a diurnal utilization mix: weekdays peak at `utilization_peak` of
/// the reservation with spread `sigma`, weekends at 0.6 of both. The
/// utilization mixes of `study_density_throttling`.
pub fn cpu_mix_models(scenario: &ScenarioSpec, utilization_peak: f64, sigma: f64) -> ModelSetSpec {
    let mut models = gen5_model_set(scenario.model_seed, scenario.report_period_secs);
    for m in &mut models.models {
        if m.resource == ResourceKind::Cpu {
            let mut t = HourlyTable::constant(0.0, 0.0);
            for h in 0..24 {
                let diurnal = 0.25
                    + 0.75 * (0.5 + 0.5 * ((h as f64 - 14.0) / 24.0 * std::f64::consts::TAU).cos());
                let mu = utilization_peak * diurnal;
                t.cells[0][h] = (mu, sigma);
                t.cells[1][h] = (mu * 0.6, sigma * 0.7);
            }
            m.steady.hourly = t;
        }
    }
    models
}

/// Every job's output in submission order. A driver's jobs are expected
/// to complete, so a failed or cancelled job panics with its label.
pub fn outputs<O>(report: FleetReport<O>) -> Vec<O> {
    let output = |job: JobReport<O>| match job.outcome {
        JobOutcome::Completed(out) => out,
        other => panic!("{} did not complete: {}", job.label, other.status()),
    };
    report.jobs.into_iter().map(output).collect()
}

/// The paper's shape claims about the density study (EXPERIMENTS.md),
/// each judged on one study's four results in density order. Every
/// claim is named with the artifact it belongs to.
pub fn density_claims(results: &[ExperimentResult]) -> Vec<(&'static str, bool)> {
    let [r100, r110, r120, r140] = results else {
        panic!("one result per density level, got {}", results.len());
    };
    let others = [r100, r110, r120];
    let pairwise = |ok: &dyn Fn(&ExperimentResult, &ExperimentResult) -> bool| {
        results.windows(2).all(|w| ok(&w[0], &w[1]))
    };
    // Bootstrap places big databases first, and "big" is relative to the
    // density-scaled core capacity, so only the placement order differs.
    let population = |r: &ExperimentResult| {
        let mut dbs: Vec<(usize, f64)> = r.bootstrap.services.iter().map(|s| (s.2, s.3)).collect();
        dbs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        dbs
    };
    let disk_percent =
        |r: &ExperimentResult| format!("{:.0}", r.bootstrap.disk_utilization * 100.0);
    let first_redirect = |r: &ExperimentResult| r.first_redirect_hour.unwrap_or(u64::MAX);
    let moved = |r: &ExperimentResult| r.telemetry.failed_over_cores(None);
    let moved_bc =
        |r: &ExperimentResult| r.telemetry.failed_over_cores(Some(EditionKind::PremiumBc));
    let revenue = |r: &ExperimentResult| r.revenue.adjusted();
    let penalty = |r: &ExperimentResult| r.revenue.penalty;
    vec![
        (
            "Table 3: identical population across densities",
            results.iter().all(|r| population(r) == population(r100)),
        ),
        (
            "Table 3: free cores strictly increasing with density",
            pairwise(&|a, b| a.bootstrap.free_cores < b.bootstrap.free_cores),
        ),
        (
            "Table 3: disk pinned at 77 %",
            results.iter().all(|r| disk_percent(r) == "77"),
        ),
        (
            "Figures 2 and 12(a): reserved cores rise strictly with density",
            pairwise(&|a, b| a.final_reserved_cores < b.final_reserved_cores),
        ),
        (
            "Figure 10: first redirects come no earlier as density rises",
            pairwise(&|a, b| first_redirect(a) <= first_redirect(b)),
        ),
        (
            "Figure 10: six-day redirect totals fall strictly with density",
            pairwise(&|a, b| a.redirect_count > b.redirect_count),
        ),
        (
            "Figure 11: end-of-run disk strictly ordered by density",
            pairwise(&|a, b| a.final_disk_gb < b.final_disk_gb),
        ),
        (
            "Figure 12(b): 140 % fails over more cores than every other run combined",
            moved(r140) > others.iter().map(|r| moved(r)).sum::<f64>(),
        ),
        (
            "Figure 12(b): 140 % fails over the most Premium/BC cores",
            others.iter().all(|r| moved_bc(r140) > moved_bc(r)),
        ),
        (
            "Figure 14: adjusted revenue rises 100 → 110 → 120 % and falls at 140 %",
            revenue(r100) < revenue(r110)
                && revenue(r110) < revenue(r120)
                && revenue(r140) < revenue(r120),
        ),
        (
            "Figure 14: the 140 % penalty is more than 60× every other run's",
            others.iter().all(|r| penalty(r140) > 60.0 * penalty(r)),
        ),
    ]
}

/// Render rows as a fixed-width text table with a header rule.
pub fn render_table(headers: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", h.as_ref(), w = widths[i]));
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
        let args = BenchArgs::parse_from(["--hours", "12", "--threads", "3"].map(String::from))
            .expect("valid flags");
        assert_eq!(args.hours, Some(12));
        assert_eq!(args.threads, 3);
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
        let err = BenchArgs::parse_from(["--seed", "7"].map(String::from));
        assert_eq!(err, Err("unknown flag \"--seed\"".to_string()));
        let err = BenchArgs::parse_from(["--hours".to_string()]);
        assert_eq!(err, Err("--hours requires a value".to_string()));
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

    #[test]
    fn bursty_mix_throttling_is_pinned_bitwise() {
        // The 140 % row of `study_density_throttling`'s bursty mix
        // (results/study_density_throttling.txt prints 343 and 34). No
        // golden snapshot throttles, and this run does, so its bits pin
        // the order of every float operation in `NodeGovernor::govern`
        // and in the governance pass that sums its passes.
        let scenario = ScenarioSpec::gen5_stage_cluster(140);
        let overrides = ExperimentOverrides {
            models: Some(cpu_mix_models(&scenario, 1.2, 0.6)),
            ..ExperimentOverrides::default()
        };
        let r = toto::DensityExperiment::new(scenario, overrides).run();
        let throttled = r.telemetry.cpu_throttling.last_value().unwrap_or(0.0);
        assert_eq!(throttled.to_bits(), 0x4075_6aeb_0cf1_1858, "{throttled}");
        assert_eq!(r.telemetry.contended_governance_passes, 34);
    }

    /// Figure 7's K-S rows as `(model family, accepted, cells)`.
    fn ks_rows(text: &str) -> Vec<(&str, u32, u32)> {
        text.lines()
            .filter_map(|line| {
                let (head, _) = line.split_once(" cells > ")?;
                let (accepted, cells) = head.rsplit(' ').next()?.split_once('/')?;
                let family = line.split_whitespace().next()?;
                Some((family, accepted.parse().ok()?, cells.parse().ok()?))
            })
            .collect()
    }

    /// Figure 13's Wilcoxon rows as `(insignificant, rows)`.
    fn wilcoxon_verdicts(text: &str) -> (usize, usize) {
        let verdicts: Vec<&str> = text
            .lines()
            .filter(|line| line.starts_with("disk: ") || line.starts_with("cores: "))
            .filter_map(|line| line.split_whitespace().last())
            .collect();
        let insignificant = verdicts.iter().filter(|&&v| v == "insignificant").count();
        (insignificant, verdicts.len())
    }

    #[test]
    fn the_pinned_fig07_and_fig13_keep_the_paper_claims() {
        // Figure 7: only Premium/BC model cells ever fail the K-S test.
        let fig07 = include_str!("../../../results/fig07_ks_validation.txt");
        let rows = ks_rows(fig07);
        assert_eq!(rows.len(), 8, "two editions × create/drop × day kinds");
        let short = |rows: &[(&str, u32, u32)]| {
            rows.iter()
                .filter(|&&(_, accepted, cells)| accepted < cells)
                .map(|&(family, _, _)| family.to_string())
                .collect::<Vec<_>>()
        };
        assert!(short(&rows).iter().all(|f| f == "PremiumBc"), "{rows:?}");
        // The predicate can fail: a short Standard/GP row breaks it.
        let broken = fig07.replacen("24/24 cells", "23/24 cells", 1);
        assert!(short(&ks_rows(&broken)).contains(&"StandardGp".to_string()));
        // Figure 13: at least 5 of the 6 pairwise Wilcoxon tests find no
        // significant difference between PLB seeds (the paper's 5/6).
        let fig13 = include_str!("../../../results/fig13_nondeterminism.txt");
        let (insignificant, total) = wilcoxon_verdicts(fig13);
        assert_eq!(total, 6);
        assert!(insignificant >= 5, "{insignificant}/{total} insignificant");
        let broken = fig13.replacen("insignificant", "significant", 2);
        assert_eq!(wilcoxon_verdicts(&broken), (4, 6));
    }

    #[test]
    fn the_pinned_density_study_keeps_every_paper_claim() {
        let mut results = run_density_study(None, default_threads());
        let holding = |results: &[ExperimentResult]| -> Vec<&str> {
            density_claims(results)
                .into_iter()
                .filter_map(|(claim, holds)| holds.then_some(claim))
                .collect()
        };
        let all: Vec<&str> = density_claims(&results).into_iter().map(|c| c.0).collect();
        assert_eq!(holding(&results), all);
        // The claims can fail: read backwards, the study keeps only the
        // two that do not depend on the density order.
        results.reverse();
        assert_eq!(holding(&results), [all[0], all[2]]);
    }
}
