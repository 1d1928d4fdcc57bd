//! Parser fixtures: malformed scenario files must fail with *typed*
//! errors that name the offending line or key — never a panic, never a
//! silently-ignored knob. The fixtures live on disk so they exercise the
//! same path a user's hand-written scenario file takes.

use toto_scenario::{ScenarioDoc, ScenarioError};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"))
}

#[test]
fn unknown_key_is_rejected_with_its_line_number() {
    let err = ScenarioDoc::parse(&fixture("unknown_key.toml")).unwrap_err();
    match err {
        ScenarioError::Invalid { message } => {
            assert!(message.contains("densitys"), "{message}");
            assert!(message.contains("line 9"), "{message}");
        }
        other => panic!("expected Invalid, got {other}"),
    }
}

#[test]
fn unknown_section_is_rejected_by_name() {
    let err = ScenarioDoc::parse(&fixture("unknown_section.toml")).unwrap_err();
    match err {
        ScenarioError::Invalid { message } => {
            assert!(message.contains("workloads"), "{message}");
        }
        other => panic!("expected Invalid, got {other}"),
    }
}

#[test]
fn malformed_value_is_a_parse_error_with_a_line() {
    let err = ScenarioDoc::parse(&fixture("malformed_syntax.toml")).unwrap_err();
    match err {
        ScenarioError::Parse(e) => assert_eq!(e.line, 4),
        other => panic!("expected Parse, got {other}"),
    }
}

#[test]
fn out_of_domain_density_is_rejected() {
    let err = ScenarioDoc::parse(&fixture("out_of_domain.toml")).unwrap_err();
    match err {
        ScenarioError::Invalid { message } => {
            assert!(message.contains("9000"), "{message}");
        }
        other => panic!("expected Invalid, got {other}"),
    }
}

#[test]
fn every_fixture_error_displays_without_panicking() {
    for name in [
        "unknown_key.toml",
        "unknown_section.toml",
        "malformed_syntax.toml",
        "out_of_domain.toml",
    ] {
        let err = ScenarioDoc::parse(&fixture(name)).unwrap_err();
        assert!(!err.to_string().is_empty(), "{name} renders a message");
    }
}
