//! The scenario TOML reader never panics: every truncation of each
//! built-in scenario, and a fixed set of seeded 1–3-byte overwrites drawn
//! from a TOML-ish alphabet, either parse or fail with a
//! `ScenarioError`. A sample of the mutated documents that still parse is
//! also lowered through `compile`, which must not panic either.

use toto_scenario::{builtin, compile, ScenarioDoc, NAMED_SCENARIOS};

/// Bytes that keep a mutation close to TOML: structure, numbers, quotes,
/// line breaks and a few letters.
const ALPHABET: &[u8] = b"[]=\".,#-+_eE0123456789 \n\tabtrufsl";

/// Overwrites per built-in scenario.
const MUTATIONS: usize = 3_000;

/// Mutated documents per built-in that still parse and are compiled.
const COMPILED: usize = 60;

fn source(name: &str) -> &'static str {
    builtin(name).unwrap_or_else(|| panic!("{name} is a built-in"))
}

#[test]
fn every_truncation_parses_or_fails_typed() {
    for name in NAMED_SCENARIOS {
        let text = source(name);
        assert!(ScenarioDoc::parse(text).is_ok(), "{name} parses whole");
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            // A typed error or a document; a panic fails the test.
            let _ = ScenarioDoc::parse(&text[..cut]);
        }
    }
}

#[test]
fn seeded_overwrites_parse_or_fail_typed() {
    // A fixed-seed LCG: the same overwrites every run.
    let mut state: u64 = 42;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 16
    };
    for name in NAMED_SCENARIOS {
        let text = source(name).as_bytes();
        let mut compiled = 0;
        for _ in 0..MUTATIONS {
            let mut damaged = text.to_vec();
            for _ in 0..=next() % 3 {
                let at = (next() % damaged.len() as u64) as usize;
                damaged[at] = ALPHABET[(next() % ALPHABET.len() as u64) as usize];
            }
            // An overwrite inside a multi-byte character leaves invalid
            // UTF-8, which a scenario file read as a string cannot hold.
            let Ok(damaged) = String::from_utf8(damaged) else {
                continue;
            };
            let Ok(doc) = ScenarioDoc::parse(&damaged) else {
                continue;
            };
            if compiled < COMPILED && damaged.as_bytes() != text {
                compiled += 1;
                let _ = compile(&doc);
            }
        }
    }
}
