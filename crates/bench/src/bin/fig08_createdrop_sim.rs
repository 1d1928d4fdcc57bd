//! Figure 8: region-level validation of the Create/Drop DB models — the
//! trained models are executed 100 times and compared with the production
//! trace: (a) net creates, (b) creates, (c) drops. The paper's check: the
//! simulated envelope brackets the trace and the mean of the 100 runs
//! nearly overlaps it.

use toto_bench::{outputs, render_table, BenchArgs};
use toto_fleet::{FleetTask, StderrProgress};
use toto_models::createdrop::CreateDropModel;
use toto_models::training::train_hourly_table;
use toto_simcore::rng::DetRng;
use toto_simcore::time::{SimDuration, SimTime};
use toto_spec::EditionKind;
use toto_telemetry::synth::{RegionProfile, SynthConfig, TraceGenerator};

/// One of the 100 model executions: samples a week of hourly creates and
/// drops under this run's fixed seed. Pure function of `(model, run)`, so
/// the fleet can run all 100 on any number of threads with identical
/// output.
struct SampleRun<'m> {
    model: &'m CreateDropModel,
    edition: EditionKind,
    week_hours: usize,
    run: u64,
}

impl FleetTask for SampleRun<'_> {
    type Output = (Vec<f64>, Vec<f64>);

    fn label(&self) -> String {
        format!("sample-run-{:03}", self.run)
    }

    fn seed(&self) -> u64 {
        1000 + self.run
    }

    fn run(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = DetRng::seed_from_u64(self.seed());
        let mut creates = vec![0.0f64; self.week_hours];
        let mut drops = vec![0.0f64; self.week_hours];
        for h in 0..self.week_hours {
            let t = SimTime::ZERO + SimDuration::from_hours(h as u64);
            creates[h] = self.model.sample_creates(self.edition, t, &mut rng) as f64;
            drops[h] = self.model.sample_drops(self.edition, t, &mut rng) as f64;
        }
        (creates, drops)
    }
}

fn main() {
    let args = BenchArgs::parse();
    let gen = TraceGenerator::new(SynthConfig {
        seed: 7,
        region: RegionProfile::region1(),
    });
    // Train on 8 weeks, validate against a 1-week window of the trace.
    let edition = EditionKind::StandardGp;
    let creates = gen.hourly_creates(edition, 8);
    let drops = gen.hourly_drops(edition, 8);
    let (create_table, _) = train_hourly_table(&creates);
    let (drop_table, _) = train_hourly_table(&drops);
    let model = CreateDropModel::new(
        [create_table.clone(), create_table],
        [drop_table.clone(), drop_table],
    );

    // The 100 model executions run as a fleet: seeds 1000..1100 exactly
    // as the historical serial loop used, one task per run.
    let week_hours = 7 * 24;
    let runs = 100;
    let tasks: Vec<SampleRun> = (0..runs as u64)
        .map(|run| SampleRun {
            model: &model,
            edition,
            week_hours,
            run,
        })
        .collect();
    let report = args.executor().run(&tasks, &StderrProgress);
    let (sim_creates, sim_drops): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
        outputs(report).into_iter().unzip();

    println!("Figure 8 — production trace vs 100 simulated runs (daily totals)\n");
    let mut rows = Vec::new();
    for day in 0..7 {
        let hours = day * 24..(day + 1) * 24;
        let prod_c: f64 = creates[hours.clone()].iter().map(|o| o.value).sum();
        let prod_d: f64 = drops[hours.clone()].iter().map(|o| o.value).sum();
        let sims_c: Vec<f64> = sim_creates
            .iter()
            .map(|run| run[hours.clone()].iter().sum::<f64>())
            .collect();
        let sims_d: Vec<f64> = sim_drops
            .iter()
            .map(|run| run[hours.clone()].iter().sum::<f64>())
            .collect();
        let mean_c = sims_c.iter().sum::<f64>() / runs as f64;
        let mean_d = sims_d.iter().sum::<f64>() / runs as f64;
        let (min_c, max_c) = minmax(&sims_c);
        let (min_d, max_d) = minmax(&sims_d);
        rows.push(vec![
            format!("{day}"),
            format!("{prod_c:.0}"),
            format!("{mean_c:.0} [{min_c:.0},{max_c:.0}]"),
            format!("{prod_d:.0}"),
            format!("{mean_d:.0} [{min_d:.0},{max_d:.0}]"),
            format!("{:.0}", prod_c - prod_d),
            format!("{:.0}", mean_c - mean_d),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "day",
                "prod creates",
                "sim creates mean [min,max]",
                "prod drops",
                "sim drops mean [min,max]",
                "prod net",
                "sim net mean"
            ],
            &rows
        )
    );
    // The envelope should bracket the trace on most days.
    println!("(trace day totals are from the training region; the mean of 100 runs");
    println!(" should track them closely, as in the paper's Figure 8)");
}

fn minmax(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}
