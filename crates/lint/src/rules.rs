//! The rule engine: token-sequence matchers for D001–D003, R001–R002,
//! the parse-layer rules D005–D006, plus the suppression-policing meta
//! rules L001/L002. The flow-aware rules D004 and T001 are produced by
//! `reach` over the workspace call graph and merged in through
//! [`scan_file_with`].
//!
//! | Rule | Contract it enforces |
//! |------|----------------------|
//! | D001 | No `std::collections::HashMap`/`HashSet` in sim-path crates — iteration order is randomized per process, so any map iteration that reaches an artifact breaks byte-identical reproduction. Use `BTreeMap`/`BTreeSet` or `toto_simcore::collections::DetHashMap`. |
//! | D002 | No wall-clock (`Instant::now`, `SystemTime`, `chrono`) outside the fleet executor and bench harnesses — simulation code must read `SimTime` only. |
//! | D003 | No ambient RNG (`thread_rng`, `rand::random`, `from_entropy`) — every stream must derive from `toto_simcore::rng` seeds. |
//! | D004 | No wall-clock / ambient RNG / std hash collection *transitively reachable* from a sim-path `pub fn`, even through crates the per-file rules exempt (see `reach`). |
//! | D005 | No duplicate string-literal SeedTree child labels within one function body — `.child("x", 0)` twice yields correlated streams. |
//! | D006 | No `==`/`!=` against float literals and no `partial_cmp` in sim-path library code — use `total_cmp` or an explicit epsilon. |
//! | R001 | No `.unwrap()` / `.expect("…")` in non-test library code of sim-path crates; vetted invariant expects are exempted via `lint.toml` `[[allow]]` entries. |
//! | R002 | Every `pub fn` in the configured files that takes `&mut` cluster state must contain a `debug_assert!`-based invariant check. |
//! | T001 | Every `pub fn` mutator matched by the R002 path set must emit (or transitively reach) a `toto_trace::` event (see `reach`). |
//! | L001 | A suppression comment naming an unknown rule is an error (a typo would otherwise silently disable nothing). |
//! | L002 | A suppression comment that suppresses nothing is reported (stale allows accumulate otherwise). |

use crate::config::{Config, Level, KNOWN_RULES};
use crate::lexer::{Token, TokenKind};
use crate::parse::parse_file;
use crate::Diagnostic;

/// True if `path` equals `prefix` or sits below it.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    match path.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('/') || prefix.ends_with('/'),
        None => false,
    }
}

/// True for paths under a `tests/`, `examples/`, or `benches/` directory.
pub fn is_test_file(path: &str) -> bool {
    ["tests", "examples", "benches"]
        .iter()
        .any(|d| path.starts_with(&format!("{d}/")) || path.contains(&format!("/{d}/")))
}

/// True for library source: under `src/`, excluding binaries and build
/// scripts. This is the file set the call graph is built over.
pub fn is_lib_code(path: &str) -> bool {
    !is_test_file(path)
        && (path.starts_with("src/") || path.contains("/src/"))
        && !path.contains("/bin/")
        && !path.ends_with("/main.rs")
        && !path.ends_with("build.rs")
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

/// `tokens[i..]` starts with `::`.
fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    i + 1 < tokens.len() && is_punct(&tokens[i], ":") && is_punct(&tokens[i + 1], ":")
}

/// A raw finding before severity/suppression processing.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl Finding {
    fn at(rule: &'static str, t: &Token, message: String) -> Finding {
        Finding {
            rule,
            line: t.line,
            col: t.col,
            message,
        }
    }
}

/// After a `<head> :: <seg> ::` path prefix, report every target ident —
/// either directly (`…::HashMap`) or inside a use-group (`…::{…}`).
fn flag_path_targets(
    tokens: &[Token],
    after: usize,
    targets: &[&str],
    mut report: impl FnMut(&Token),
) {
    if after >= tokens.len() {
        return;
    }
    if tokens[after].kind == TokenKind::Ident {
        if targets.contains(&tokens[after].text.as_str()) {
            report(&tokens[after]);
        }
    } else if is_punct(&tokens[after], "{") {
        let mut depth = 1usize;
        let mut j = after + 1;
        while j < tokens.len() && depth > 0 {
            if is_punct(&tokens[j], "{") {
                depth += 1;
            } else if is_punct(&tokens[j], "}") {
                depth -= 1;
            } else if tokens[j].kind == TokenKind::Ident
                && targets.contains(&tokens[j].text.as_str())
            {
                report(&tokens[j]);
            }
            j += 1;
        }
    }
}

fn rule_d001(tokens: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if is_ident(&tokens[i], "std")
            && is_path_sep(tokens, i + 1)
            && i + 3 < tokens.len()
            && is_ident(&tokens[i + 3], "collections")
            && is_path_sep(tokens, i + 4)
        {
            flag_path_targets(tokens, i + 6, &["HashMap", "HashSet"], |t| {
                findings.push(Finding::at(
                    "D001",
                    t,
                    format!(
                        "std::collections::{} iterates in a process-randomized order; \
                         use BTreeMap/BTreeSet or toto_simcore::collections::Det{}",
                        t.text, t.text
                    ),
                ));
            });
        }
    }
}

fn rule_d002(tokens: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        // `Instant::now(…)` / `SystemTime::now(…)` anywhere.
        if (is_ident(t, "Instant") || is_ident(t, "SystemTime"))
            && is_path_sep(tokens, i + 1)
            && i + 3 < tokens.len()
            && is_ident(&tokens[i + 3], "now")
        {
            findings.push(Finding::at(
                "D002",
                t,
                format!(
                    "{}::now() reads the wall clock; simulation code must use SimTime \
                     (wall-clock is allowed only in the fleet executor)",
                    t.text
                ),
            ));
        }
        // `std::time::{Instant, SystemTime}` imports or inline paths.
        if is_ident(t, "std")
            && is_path_sep(tokens, i + 1)
            && i + 3 < tokens.len()
            && is_ident(&tokens[i + 3], "time")
            && is_path_sep(tokens, i + 4)
        {
            flag_path_targets(tokens, i + 6, &["Instant", "SystemTime"], |t| {
                findings.push(Finding::at(
                    "D002",
                    t,
                    format!(
                        "std::time::{} is wall-clock state; simulation code must use SimTime",
                        t.text
                    ),
                ));
            });
        }
        // Any chrono usage.
        if is_ident(t, "chrono") {
            findings.push(Finding::at(
                "D002",
                t,
                "chrono reads wall-clock/calendar state; simulation code must use SimTime"
                    .to_string(),
            ));
        }
    }
}

fn rule_d003(tokens: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if is_ident(t, "thread_rng") || is_ident(t, "from_entropy") {
            findings.push(Finding::at(
                "D003",
                t,
                format!(
                    "{}() draws OS entropy; all randomness must derive from \
                     toto_simcore::rng seed trees",
                    t.text
                ),
            ));
        }
        if is_ident(t, "rand")
            && is_path_sep(tokens, i + 1)
            && i + 3 < tokens.len()
            && is_ident(&tokens[i + 3], "random")
        {
            findings.push(Finding::at(
                "D003",
                t,
                "rand::random() draws from the ambient thread RNG; all randomness \
                 must derive from toto_simcore::rng seed trees"
                    .to_string(),
            ));
        }
    }
}

/// The gated D001/D002/D003 findings for a file, before allow filtering.
/// Shared between the per-file scan and `reach`'s escaped-sink test so
/// the two can never disagree about what the base rules report.
pub fn base_findings(path: &str, tokens: &[Token], config: &Config) -> Vec<Finding> {
    let sim_path = config.sim_path.iter().any(|p| path_has_prefix(path, p));
    let on = |rule: &str| config.level(rule) != Level::Off;
    let mut findings = Vec::new();
    if sim_path && on("D001") {
        rule_d001(tokens, &mut findings);
    }
    if on("D002")
        && !config
            .d002_allowed_paths
            .iter()
            .any(|p| path_has_prefix(path, p))
    {
        rule_d002(tokens, &mut findings);
    }
    if on("D003") {
        rule_d003(tokens, &mut findings);
    }
    findings
}

fn rule_r001(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if in_test[i] || !is_punct(&tokens[i], ".") {
            continue;
        }
        let Some(name) = tokens.get(i + 1) else {
            continue;
        };
        if is_ident(name, "unwrap")
            && tokens.get(i + 2).is_some_and(|t| is_punct(t, "("))
            && tokens.get(i + 3).is_some_and(|t| is_punct(t, ")"))
        {
            findings.push(Finding::at(
                "R001",
                name,
                ".unwrap() panics without context in sim-path library code; return a \
                 typed error or add a vetted [[allow]] entry to lint.toml"
                    .to_string(),
            ));
        }
        // Only `.expect(` with a string-literal argument is Option/Result
        // expect; `self.expect_byte(b'=')`-style parser methods are not.
        if is_ident(name, "expect")
            && tokens.get(i + 2).is_some_and(|t| is_punct(t, "("))
            && tokens.get(i + 3).is_some_and(|t| t.kind == TokenKind::Str)
        {
            findings.push(Finding::at(
                "R001",
                name,
                ".expect(\"…\") panics in sim-path library code; return a typed error \
                 or add a vetted [[allow]] entry to lint.toml"
                    .to_string(),
            ));
        }
    }
}

fn rule_r002(tokens: &[Token], in_test: &[bool], config: &Config, findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < tokens.len() {
        if in_test[i] || !is_ident(&tokens[i], "pub") {
            i += 1;
            continue;
        }
        // Skip an optional visibility argument: `pub(crate)`, `pub(super)`.
        let mut j = i + 1;
        if j < tokens.len() && is_punct(&tokens[j], "(") {
            let mut depth = 1usize;
            j += 1;
            while j < tokens.len() && depth > 0 {
                if is_punct(&tokens[j], "(") {
                    depth += 1;
                } else if is_punct(&tokens[j], ")") {
                    depth -= 1;
                }
                j += 1;
            }
        }
        if j >= tokens.len() || !is_ident(&tokens[j], "fn") {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(j + 1) else {
            break;
        };
        // Find the parameter list (skipping generics on the fn name).
        let mut k = j + 2;
        while k < tokens.len() && !is_punct(&tokens[k], "(") {
            if is_punct(&tokens[k], "{") || is_punct(&tokens[k], ";") {
                break;
            }
            k += 1;
        }
        if k >= tokens.len() || !is_punct(&tokens[k], "(") {
            i = j + 1;
            continue;
        }
        let params_start = k;
        let mut depth = 1usize;
        k += 1;
        while k < tokens.len() && depth > 0 {
            if is_punct(&tokens[k], "(") {
                depth += 1;
            } else if is_punct(&tokens[k], ")") {
                depth -= 1;
            }
            k += 1;
        }
        let params_end = k; // one past the closing `)`
        let takes_mut_state = (params_start..params_end.saturating_sub(1)).any(|p| {
            is_punct(&tokens[p], "&")
                && tokens.get(p + 1).is_some_and(|t| is_ident(t, "mut"))
                && tokens.get(p + 2).is_some_and(|t| {
                    t.kind == TokenKind::Ident && config.r002_mut_state_types.contains(&t.text)
                })
        });
        // Find the body: the next `{` before any `;` (a `;` means a trait
        // method declaration with no body).
        let mut b = params_end;
        while b < tokens.len() && !is_punct(&tokens[b], "{") && !is_punct(&tokens[b], ";") {
            b += 1;
        }
        if !takes_mut_state || b >= tokens.len() || is_punct(&tokens[b], ";") {
            i = params_end;
            continue;
        }
        let body_start = b;
        let mut depth = 0usize;
        let mut has_invariant_check = false;
        while b < tokens.len() {
            if is_punct(&tokens[b], "{") {
                depth += 1;
            } else if is_punct(&tokens[b], "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tokens[b].kind == TokenKind::Ident
                && tokens[b].text.starts_with("debug_assert")
            {
                has_invariant_check = true;
            }
            b += 1;
        }
        if !has_invariant_check {
            let types = config.r002_mut_state_types.join("/");
            findings.push(Finding::at(
                "R002",
                name,
                format!(
                    "pub fn {} mutates {types} state but contains no debug_assert!-based \
                     invariant check; add one or a vetted allow",
                    name.text
                ),
            ));
        }
        i = body_start + 1;
    }
}

/// D005: within one function body, two `.child(…)`/`.child_rng(…)` calls
/// whose string-literal label *and* index-argument text are identical
/// derive the same seed — correlated streams. Same label with different
/// indices (`.child("node", i)` in a loop) is the intended idiom and is
/// not flagged.
fn rule_d005(parsed: &crate::parse::ParsedFile, findings: &mut Vec<Finding>) {
    let tokens = &parsed.lexed.tokens;
    for def in &parsed.fns {
        if def.in_test {
            continue;
        }
        let Some((s, e)) = def.body_inner() else {
            continue;
        };
        let mut seen: std::collections::BTreeMap<(String, String), usize> =
            std::collections::BTreeMap::new();
        let mut i = s;
        while i + 3 < e.min(tokens.len()) {
            let is_child = is_punct(&tokens[i], ".")
                && (is_ident(&tokens[i + 1], "child") || is_ident(&tokens[i + 1], "child_rng"))
                && is_punct(&tokens[i + 2], "(")
                && tokens[i + 3].kind == TokenKind::Str;
            if !is_child {
                i += 1;
                continue;
            }
            let label = tokens[i + 3].text.clone();
            // Collect the remaining argument text up to the matching `)`.
            let mut depth = 1usize;
            let mut j = i + 4;
            let mut index_text = String::new();
            while j < tokens.len() && depth > 0 {
                if is_punct(&tokens[j], "(") {
                    depth += 1;
                } else if is_punct(&tokens[j], ")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if !index_text.is_empty() {
                    index_text.push(' ');
                }
                index_text.push_str(&tokens[j].text);
                j += 1;
            }
            let key = (label.clone(), index_text);
            match seen.get(&key) {
                Some(&first_line) => findings.push(Finding::at(
                    "D005",
                    &tokens[i + 3],
                    format!(
                        "duplicate SeedTree child label {label} with identical index \
                         (first derived at line {first_line}); reusing a (label, index) \
                         pair yields correlated random streams — use a distinct label \
                         or index",
                    ),
                )),
                None => {
                    seen.insert(key, tokens[i + 3].line);
                }
            }
            i = j;
        }
    }
}

/// A numeric literal that is a float: has a fractional part, an
/// exponent, or an explicit f32/f64 suffix. Radix-prefixed literals
/// (`0x1E`) are integers regardless of the letters they contain.
fn is_float_literal(text: &str) -> bool {
    let bytes = text.as_bytes();
    if bytes.len() > 1
        && bytes[0] == b'0'
        && matches!(bytes[1], b'x' | b'X' | b'o' | b'O' | b'b' | b'B')
    {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains('e')
        || text.contains('E')
}

/// D006: float comparison in sim-path library code. Flags `==`/`!=`
/// where either adjacent operand is a float literal, and any
/// `.partial_cmp(` call. Use `total_cmp` or an explicit epsilon; the
/// deliberate exact-zero guards carry inline allows.
fn rule_d006(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if in_test[i] {
            continue;
        }
        // `.partial_cmp(` — a call, not the `fn partial_cmp` definition.
        if is_punct(&tokens[i], ".")
            && tokens
                .get(i + 1)
                .is_some_and(|t| is_ident(t, "partial_cmp"))
            && tokens.get(i + 2).is_some_and(|t| is_punct(t, "("))
        {
            findings.push(Finding::at(
                "D006",
                &tokens[i + 1],
                "partial_cmp on floats is None-prone and ordering-fragile in sim code; \
                 use total_cmp for a total order"
                    .to_string(),
            ));
        }
        // `== <float>` / `<float> ==` / `!= <float>` / `<float> !=`.
        let op = if is_punct(&tokens[i], "=") && tokens.get(i + 1).is_some_and(|t| is_punct(t, "="))
        {
            Some("==")
        } else if is_punct(&tokens[i], "!") && tokens.get(i + 1).is_some_and(|t| is_punct(t, "=")) {
            Some("!=")
        } else {
            None
        };
        let Some(op) = op else {
            continue;
        };
        let float_operand = |t: Option<&Token>| {
            t.is_some_and(|t| t.kind == TokenKind::Num && is_float_literal(&t.text))
        };
        if float_operand(i.checked_sub(1).and_then(|p| tokens.get(p)))
            || float_operand(tokens.get(i + 2))
        {
            findings.push(Finding::at(
                "D006",
                &tokens[i],
                format!(
                    "float compared with `{op}`; exact float equality is \
                     representation-fragile in sim code — use total_cmp, an explicit \
                     epsilon, or an inline allow for a deliberate exact guard"
                ),
            ));
        }
    }
}

/// Lint one file's source with pre-computed workspace-level findings
/// (D004/T001 from `reach`) merged in, so file-level `[[allow]]`
/// entries, inline suppressions, and the L001/L002 meta rules apply
/// uniformly to every rule. `path` is the workspace-relative path
/// (forward slashes) used for crate-class decisions and in diagnostics.
pub fn scan_file_with(
    path: &str,
    source: &str,
    config: &Config,
    extra: &[Finding],
) -> Vec<Diagnostic> {
    let parsed = parse_file(source);
    let tokens = &parsed.lexed.tokens;
    let in_test = &parsed.in_test;
    let lines: Vec<&str> = source.lines().collect();

    let sim_path = config.sim_path.iter().any(|p| path_has_prefix(path, p));
    let lib_code = is_lib_code(path);

    let mut findings = base_findings(path, tokens, config);
    let on = |rule: &str| config.level(rule) != Level::Off;
    if sim_path && on("D005") {
        rule_d005(&parsed, &mut findings);
    }
    if sim_path && lib_code && on("D006") {
        rule_d006(tokens, in_test, &mut findings);
    }
    if sim_path && lib_code && on("R001") {
        rule_r001(tokens, in_test, &mut findings);
    }
    if on("R002") && config.r002_paths.iter().any(|p| path_has_prefix(path, p)) {
        rule_r002(tokens, in_test, config, &mut findings);
    }
    findings.extend(extra.iter().cloned());

    // File-level exemptions from lint.toml.
    findings.retain(|f| {
        !config
            .allow
            .iter()
            .any(|a| a.rule == f.rule && path_has_prefix(path, &a.path))
    });

    // Inline suppressions: an allow comment covers diagnostics on its own
    // line and on the line directly below it.
    let mut used = vec![false; parsed.lexed.allows.len()];
    findings.retain(|f| {
        let mut suppressed = false;
        for (idx, a) in parsed.lexed.allows.iter().enumerate() {
            if (a.line == f.line || a.line + 1 == f.line) && a.rules.iter().any(|r| r == f.rule) {
                used[idx] = true;
                suppressed = true;
            }
        }
        !suppressed
    });

    // L001: unknown rule named in a suppression. L002: suppression that
    // suppressed nothing (only reported when all its rules are known —
    // unknown ids are already an L001).
    for (idx, a) in parsed.lexed.allows.iter().enumerate() {
        let unknown: Vec<&String> = a
            .rules
            .iter()
            .filter(|r| !KNOWN_RULES.contains(&r.as_str()))
            .collect();
        if !unknown.is_empty() {
            if config.level("L001") != Level::Off {
                findings.push(Finding {
                    rule: "L001",
                    line: a.line,
                    col: a.col,
                    message: format!(
                        "suppression names unknown rule{} {}; known rules: {}",
                        if unknown.len() > 1 { "s" } else { "" },
                        unknown
                            .iter()
                            .map(|r| format!("{r:?}"))
                            .collect::<Vec<_>>()
                            .join(", "),
                        KNOWN_RULES.join(", ")
                    ),
                });
            }
        } else if !used[idx] && config.level("L002") != Level::Off {
            findings.push(Finding {
                rule: "L002",
                line: a.line,
                col: a.col,
                message: format!(
                    "suppression allow({}) matches no diagnostic; remove it",
                    a.rules.join(", ")
                ),
            });
        }
    }

    let mut diagnostics: Vec<Diagnostic> = findings
        .into_iter()
        .map(|f| Diagnostic {
            rule: f.rule.to_string(),
            level: config.level(f.rule),
            file: path.to_string(),
            line: f.line,
            col: f.col,
            message: f.message,
            snippet: lines
                .get(f.line.saturating_sub(1))
                .map(|l| l.trim_end().to_string())
                .unwrap_or_default(),
        })
        .collect();
    diagnostics
        .sort_by(|a, b| (a.line, a.rule.as_str(), a.col).cmp(&(b.line, b.rule.as_str(), b.col)));
    diagnostics
}

/// Lint one file's source with the per-file rules only (no workspace
/// analysis). `path` is the workspace-relative path.
pub fn scan_file(path: &str, source: &str, config: &Config) -> Vec<Diagnostic> {
    scan_file_with(path, source, config, &[])
}
