//! Every workload, shortened to one simulated hour and one seed
//! replica, completes both kinds of run with every output check passing
//! and every declared metric reported.

use std::path::PathBuf;
use toto_benchtrack::metrics::{END_TO_END, PER_LAYER};
use toto_benchtrack::run::run;
use toto_benchtrack::workloads::{Workload, WORKLOADS};

fn tiny(name: &str) -> Workload {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("a workload");
    Workload {
        hours: 1,
        replicas: 1,
        ..*w
    }
}

fn check(name: &str) {
    let w = tiny(name);
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{name}"));
    for profile in [false, true] {
        let outcome = run(&w, 7, 0, profile, &root).expect("the run completes");
        assert!(
            outcome.failures.is_empty(),
            "{name}: {:?}",
            outcome.failures
        );
        assert_eq!(outcome.failed(), 0);
        assert!(outcome.attempted > 0);
        let names: Vec<&str> = outcome.readings.iter().map(|r| r.name).collect();
        let expected: Vec<&str> = if profile {
            PER_LAYER.iter().map(|m| m.metric.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(names, expected, "{name}");
        for r in &outcome.readings {
            assert!(r.value.is_finite() && r.value >= 0.0, "{name}: {r:?}");
            if !profile {
                assert!(
                    r.value > 0.0,
                    "{name}: end-to-end metrics are never 0: {r:?}"
                );
            }
        }
        if profile {
            let coverage = outcome
                .readings
                .iter()
                .find(|r| r.name == "profile.coverage")
                .expect("coverage")
                .value;
            assert!(coverage >= 0.95, "{name}: coverage {coverage}");
        }
    }
    assert!(!root.exists(), "artifacts are deleted after each pass");
}

#[test]
fn ladder() {
    check("ladder");
}

#[test]
fn smoke_traced() {
    check("smoke_traced");
}

#[test]
fn boot_1k() {
    check("boot_1k");
}

#[test]
fn storm_smoke() {
    check("storm_smoke");
}
