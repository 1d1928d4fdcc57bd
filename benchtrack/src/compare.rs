//! `benchtrack --compare BASE HEAD`: judge an A/B of two commits from
//! the result files their runs appended to (`--json PATH`).
//!
//! For each workload and end-to-end metric it prints both sides'
//! medians and quartiles, how many position-matched pairs the head won,
//! and a verdict against the metric's bound from `BENCHMARK.json`:
//!
//! * `unresolved`: either side's spread (IQR ÷ median) exceeds the
//!   bound, unless every head run beats every base run;
//! * `worse`: the head median is worse than the base median by more
//!   than the bound;
//! * `improved`: the head won at least nine tenths of the pairs and
//!   the medians differ by more than the base's own IQR;
//! * `unchanged`: none of these.

use crate::metrics::Better;
use crate::{quartiles, ratio};
use std::collections::BTreeMap;
use toto_fleet::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end metric's regression bound from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the base median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end bounds `BENCHMARK.json` declares.
pub fn bounds() -> Result<Vec<Bound>, String> {
    let json = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("end_to_end entry without {key}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                better: Better::parse(field("better")?.as_str().unwrap_or(""))
                    .ok_or("better is neither lower nor higher")?,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The outcome of one (workload, metric) comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The head is better, by the pair and spread rule.
    Improved,
    /// The head is worse by more than the bound.
    Worse,
    /// Within the bound, and no resolved gain.
    Unchanged,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides' quartiles, the pair wins and the verdict.
#[derive(Clone, Debug)]
pub struct Judgement {
    /// Base q1, median, q3.
    pub base: [f64; 3],
    /// Head q1, median, q3.
    pub head: [f64; 3],
    /// Position-matched pairs the head won (ties count for neither).
    pub wins: usize,
    /// Position-matched pairs.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge `head` against `base` for a metric with direction `better`
/// and regression bound `bound`. `None` when either side is empty.
pub fn judge(base: &[f64], head: &[f64], better: Better, bound: f64) -> Option<Judgement> {
    let b = quartiles(base)?;
    let h = quartiles(head)?;
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|(&bv, &hv)| beats(hv, bv))
        .count();
    let spread = |q: [f64; 3]| ratio(q[2] - q[0], q[1].abs());
    let worse_by = match better {
        Better::Lower => ratio(h[1] - b[1], b[1].abs()),
        Better::Higher => ratio(b[1] - h[1], b[1].abs()),
    };
    let dominates = head.iter().all(|&hv| base.iter().all(|&bv| beats(hv, bv)));
    let verdict = if (spread(b) > bound || spread(h) > bound) && !dominates {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && wins * 10 >= pairs * 9 && (h[1] - b[1]).abs() > b[2] - b[0] {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some(Judgement {
        base: b,
        head: h,
        wins,
        pairs,
        verdict,
    })
}

/// One end-to-end run as `--json` appends it.
#[derive(Clone, Debug)]
pub struct RunLine {
    /// Workload name.
    pub workload: String,
    /// Whether every output check passed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parse a `--json` results file, keeping end-to-end runs only.
pub fn parse_runs(text: &str) -> Result<Vec<RunLine>, String> {
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let json = Json::parse(line).map_err(|e| bad(&e))?;
        if json.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let Some(Json::Obj(pairs)) = json.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        let metrics = pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| bad("metric without value"))
            })
            .collect::<Result<_, _>>()?;
        runs.push(RunLine {
            workload: json
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("no workload"))?
                .to_string(),
            correct: json.get("correct") == Some(&Json::Bool(true)),
            metrics,
        });
    }
    Ok(runs)
}

/// `x` with six significant digits.
fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    let decimals = (5 - magnitude).max(0) as usize;
    format!("{x:.decimals$}")
}

/// Compare two result sets. Returns the rendered table and whether the
/// head should be rejected: any `worse` verdict, or more incorrect runs
/// than the base.
pub fn compare(base: &[RunLine], head: &[RunLine]) -> Result<(String, bool), String> {
    let bounds = bounds()?;
    let mut reject = false;
    let mut out = String::new();
    let incorrect = |runs: &[RunLine]| runs.iter().filter(|r| !r.correct).count();
    out.push_str(&format!(
        "runs: base {} ({} incorrect), head {} ({} incorrect)\n",
        base.len(),
        incorrect(base),
        head.len(),
        incorrect(head)
    ));
    reject |= incorrect(head) > incorrect(base);
    out.push_str(&format!(
        "{:<14} {:<22} {:>36} {:>36} {:>6}  {}\n",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict"
    ));
    let workloads: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
    for workload in workloads {
        let side = |runs: &[RunLine], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for b in &bounds {
            let Some(j) = judge(
                &side(base, &b.name),
                &side(head, &b.name),
                b.better,
                b.bound,
            ) else {
                continue;
            };
            reject |= j.verdict == Verdict::Worse;
            let q = |q: [f64; 3]| format!("{} [{}, {}]", sig(q[1]), sig(q[0]), sig(q[2]));
            out.push_str(&format!(
                "{:<14} {:<22} {:>36} {:>36} {:>6}  {} (bound {:.0}%)\n",
                workload,
                b.name,
                q(j.base),
                q(j.head),
                format!("{}/{}", j.wins, j.pairs),
                j.verdict.as_str(),
                b.bound * 100.0
            ));
        }
    }
    Ok((out, reject))
}
