//! `BENCHMARK.json` and the code declare the same benchmark.

use std::collections::BTreeSet;
use toto_benchtrack::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use toto_benchtrack::workloads::WORKLOADS;
use toto_fleet::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn str_of<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn keys(json: &Json) -> Vec<&str> {
    match json {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    }
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn declared(entries: &[Json], extra: &[&str]) -> Vec<(String, String, Better)> {
    entries
        .iter()
        .map(|m| {
            let mut expected = vec!["better", "name", "unit"];
            expected.extend(extra);
            expected.sort();
            assert_eq!(keys(m), expected, "metric entry keys");
            (
                str_of(m, "name").to_string(),
                str_of(m, "unit").to_string(),
                Better::parse(str_of(m, "better")).expect("better is lower or higher"),
            )
        })
        .collect()
}

fn in_code<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Vec<(String, String, Better)> {
    metrics
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better))
        .collect()
}

#[test]
fn top_level_shape_matches_the_contract() {
    let json = manifest();
    assert_eq!(
        keys(&json),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths: Vec<&str> = list(&json, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchtrack"]);
    let command: Vec<&str> = list(&json, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    assert!(command.contains(&"benchtrack/Cargo.toml"));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    let seconds = json
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

#[test]
fn workloads_match_the_code() {
    let json = manifest();
    let names: Vec<&str> = list(&json, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_of(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            str_of(w, "name")
        })
        .collect();
    let code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, code);
}

#[test]
fn metrics_match_the_code_both_ways() {
    let json = manifest();
    let e2e = list(&json, "end_to_end");
    assert_eq!(declared(e2e, &["bound"]), in_code(END_TO_END.iter()));
    let layer = list(&json, "per_layer");
    assert_eq!(
        declared(layer, &[]),
        in_code(PER_LAYER.iter().map(|m| &m.metric))
    );
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layer.len()));

    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER.iter().map(|m| &m.metric)) {
        assert!(is_name(m.name), "bad metric name {}", m.name);
        assert!(is_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "duplicate metric {}", m.name);
    }
    for w in WORKLOADS {
        assert!(
            is_name(w.name) && seen.insert(w.name),
            "bad workload name {}",
            w.name
        );
    }
}

#[test]
fn bounds_are_in_range_and_setup_has_the_largest() {
    let json = manifest();
    let bounds: Vec<(&str, f64)> = list(&json, "end_to_end")
        .iter()
        .map(|m| {
            (
                str_of(m, "name"),
                m.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect();
    assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s")
        .1;
    assert!(bounds.iter().all(|(_, b)| *b <= setup));
    let setup_metric = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (setup_metric.unit, setup_metric.better),
        ("s", Better::Lower)
    );
}

#[test]
fn every_layer_metric_targets_a_real_metric_and_workload() {
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for m in PER_LAYER {
        match m.moves {
            Some((metric, workload)) => {
                assert!(
                    e2e.contains(metric),
                    "{} moves unknown {metric}",
                    m.metric.name
                );
                assert!(
                    workloads.contains(workload),
                    "{} on unknown {workload}",
                    m.metric.name
                );
            }
            None => assert!(
                m.metric.name.starts_with("profile."),
                "{} has no target",
                m.metric.name
            ),
        }
    }
}
