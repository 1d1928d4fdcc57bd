//! The A/B verdict rule of `benchtrack --compare`.

use toto_benchtrack::compare::{bounds, compare, judge, parse_runs, Verdict};
use toto_benchtrack::metrics::Better;

fn around(center: f64, jitter: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| center * (1.0 + jitter * ((i % 3) as f64 - 1.0)))
        .collect()
}

#[test]
fn a_clear_gain_is_improved() {
    let base = around(10.0, 0.01, 10);
    let head = around(8.0, 0.01, 10);
    let j = judge(&base, &head, Better::Lower, 0.1).expect("both sides");
    assert_eq!(j.verdict, Verdict::Improved);
    assert_eq!((j.wins, j.pairs), (10, 10));
    // The same numbers read as a throughput are a regression.
    let j = judge(&base, &head, Better::Higher, 0.1).expect("both sides");
    assert_eq!(j.verdict, Verdict::Worse);
    assert_eq!(j.wins, 0);
}

#[test]
fn a_change_within_the_bound_is_unchanged() {
    let base = around(10.0, 0.01, 10);
    let head = around(10.5, 0.01, 10);
    let j = judge(&base, &head, Better::Lower, 0.1).expect("both sides");
    assert_eq!(j.verdict, Verdict::Unchanged);
}

#[test]
fn a_small_consistent_gain_needs_nine_tenths_of_the_pairs() {
    let base = around(10.0, 0.01, 10);
    let mut head = around(9.7, 0.01, 10);
    assert_eq!(
        judge(&base, &head, Better::Lower, 0.1)
            .expect("both")
            .verdict,
        Verdict::Improved
    );
    // Two lost pairs drop the win rate to 8/10.
    head[0] = 11.0;
    head[1] = 11.0;
    assert_eq!(
        judge(&base, &head, Better::Lower, 0.1)
            .expect("both")
            .verdict,
        Verdict::Unchanged
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_head_dominates() {
    let base = around(10.0, 0.2, 10);
    let head = around(10.0, 0.2, 10);
    assert_eq!(
        judge(&base, &head, Better::Lower, 0.1)
            .expect("both")
            .verdict,
        Verdict::Unresolved
    );
    let head = around(5.0, 0.01, 10);
    assert_eq!(
        judge(&base, &head, Better::Lower, 0.1)
            .expect("both")
            .verdict,
        Verdict::Improved
    );
}

#[test]
fn an_empty_side_has_no_verdict() {
    assert!(judge(&[], &[1.0], Better::Lower, 0.1).is_none());
}

#[test]
fn result_files_round_trip_into_a_table() {
    let line = |wall: f64, trace: bool| {
        format!(
            "{{\"attempted\": 4,\"correct\": true,\"failed\": 0,\"metrics\": {{\"wall_s\": {{\"unit\": \"s\",\"value\": {wall}}}}},\"seed\": 1,\"trace\": {trace},\"workload\": \"ladder\"}}"
        )
    };
    let base = parse_runs(&[line(2.0, false), line(2.1, false), line(9.0, true)].join("\n"))
        .expect("parses");
    assert_eq!(base.len(), 2, "profile runs are skipped");
    let head = parse_runs(&[line(3.0, false), line(3.1, false)].join("\n")).expect("parses");
    let (table, reject) = compare(&base, &head).expect("bounds load");
    assert!(table.contains("ladder") && table.contains("wall_s") && table.contains("worse"));
    assert!(reject);
    assert!(parse_runs("not json").is_err());
}

#[test]
fn bounds_come_from_the_manifest() {
    let b = bounds().expect("BENCHMARK.json is embedded");
    assert!(b.iter().any(|b| b.name == "wall_s"));
    assert!(b.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
}
