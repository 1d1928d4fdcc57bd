//! Flow-aware analyses over the workspace call graph.
//!
//! **D004 — sim-path reachability.** The per-file rules D001–D003 have
//! deliberate blind spots: D001 applies only to sim-path crates, D002
//! has allowed paths (the fleet executor), and any site can be
//! inline-allowed. A nondeterminism source in a helper crate that is
//! *called from* a sim path escapes all of them. D004 closes the gap:
//! it seeds from every `pub fn` in sim-path library code, walks the
//! conservative call graph, and reports any reachable function that
//! lexically touches wall-clock, ambient RNG, or std hash collections —
//! printing the full call chain (`core::run → fleet::helper →
//! Instant::now`). A sink the base rules already actively report is
//! skipped, so nothing is double-flagged.
//!
//! **T001 — trace coverage.** Every `pub` mutator matched by the R002
//! path set must be visible to `trace_tool diff`: its body must emit a
//! `toto_trace::` event, or transitively call a function that does
//! (e.g. `balance → execute_move → toto_trace::emit`). Mutators that
//! ship without trace coverage are invisible to replay diffing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, Workspace};
use crate::config::{Config, Level};
use crate::lexer::{Token, TokenKind};
use crate::parse::ParsedFile;
use crate::rules::{base_findings, path_has_prefix, Finding};

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    i + 1 < tokens.len() && is_punct(&tokens[i], ":") && is_punct(&tokens[i + 1], ":")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SinkKind {
    WallClock,
    Rng,
    Hash,
}

struct Sink {
    kind: SinkKind,
    line: usize,
    col: usize,
    /// Display form for the chain tail, e.g. `Instant::now()`.
    desc: String,
    /// The base rule that would report this site when active.
    base_rule: &'static str,
}

/// Idents the file imports from `std::collections` (`HashMap`,
/// `HashSet`), so a bare `HashMap::new()` in a body can be attributed
/// to std.
fn std_hash_imports(tokens: &[Token]) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    for i in 0..tokens.len() {
        if is_ident(&tokens[i], "std")
            && is_path_sep(tokens, i + 1)
            && i + 3 < tokens.len()
            && is_ident(&tokens[i + 3], "collections")
            && is_path_sep(tokens, i + 4)
        {
            // Direct target or use-group.
            let after = i + 6;
            if after >= tokens.len() {
                continue;
            }
            if tokens[after].kind == TokenKind::Ident {
                if matches!(tokens[after].text.as_str(), "HashMap" | "HashSet") {
                    out.insert(tokens[after].text.as_str());
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
                        && matches!(tokens[j].text.as_str(), "HashMap" | "HashSet")
                    {
                        out.insert(tokens[j].text.as_str());
                    }
                    j += 1;
                }
            }
        }
    }
    out
}

/// Lexical nondeterminism sinks inside one fn body.
fn sinks_in_body(
    tokens: &[Token],
    range: (usize, usize),
    hash_imports: &BTreeSet<&str>,
) -> Vec<Sink> {
    let (start, end) = range;
    let mut out = Vec::new();
    for i in start..end.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime"
                if is_path_sep(tokens, i + 1)
                    && i + 3 < tokens.len()
                    && is_ident(&tokens[i + 3], "now") =>
            {
                out.push(Sink {
                    kind: SinkKind::WallClock,
                    line: t.line,
                    col: t.col,
                    desc: format!("{}::now()", t.text),
                    base_rule: "D002",
                });
            }
            "chrono" => out.push(Sink {
                kind: SinkKind::WallClock,
                line: t.line,
                col: t.col,
                desc: "chrono".to_string(),
                base_rule: "D002",
            }),
            "thread_rng" | "from_entropy" => out.push(Sink {
                kind: SinkKind::Rng,
                line: t.line,
                col: t.col,
                desc: format!("{}()", t.text),
                base_rule: "D003",
            }),
            "rand"
                if is_path_sep(tokens, i + 1)
                    && i + 3 < tokens.len()
                    && is_ident(&tokens[i + 3], "random") =>
            {
                out.push(Sink {
                    kind: SinkKind::Rng,
                    line: t.line,
                    col: t.col,
                    desc: "rand::random()".to_string(),
                    base_rule: "D003",
                });
            }
            name @ ("HashMap" | "HashSet")
                if hash_imports.contains(name)
                    || (i >= 3
                        && is_path_sep(tokens, i - 2)
                        && is_ident(&tokens[i - 3], "collections")) =>
            {
                out.push(Sink {
                    kind: SinkKind::Hash,
                    line: t.line,
                    col: t.col,
                    desc: format!("std::collections::{name}"),
                    base_rule: "D001",
                });
            }
            _ => {}
        }
    }
    out
}

/// Base-rule findings that survive file-level `[[allow]]` entries and
/// inline suppressions — i.e. sites the base rules *actively report*.
/// D004 skips those; it only owns sites that escaped.
fn covered_sites(
    path: &str,
    parsed: &ParsedFile,
    config: &Config,
) -> BTreeSet<(&'static str, usize, usize)> {
    let mut findings = base_findings(path, &parsed.lexed.tokens, config);
    findings.retain(|f| {
        !config
            .allow
            .iter()
            .any(|a| a.rule == f.rule && path_has_prefix(path, &a.path))
    });
    findings.retain(|f| {
        !parsed.lexed.allows.iter().any(|a| {
            (a.line == f.line || a.line + 1 == f.line) && a.rules.iter().any(|r| r == f.rule)
        })
    });
    findings
        .into_iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect()
}

/// `&mut <Type>` with `Type` in the configured state-type set, anywhere
/// in a parameter-list token range.
fn takes_mut_state(tokens: &[Token], params: (usize, usize), types: &[String]) -> bool {
    let (s, e) = params;
    (s..e.min(tokens.len()).saturating_sub(2)).any(|p| {
        is_punct(&tokens[p], "&")
            && is_ident(&tokens[p + 1], "mut")
            && tokens
                .get(p + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident && types.contains(&t.text))
    })
}

/// Run the flow-aware analyses; returns extra findings keyed by
/// workspace-relative path, ready to merge into the per-file scan.
pub fn analyze(
    ws: &Workspace,
    graph: &CallGraph,
    config: &Config,
) -> BTreeMap<String, Vec<Finding>> {
    let mut out: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let n = ws.fns.len();

    if config.level("D004") != Level::Off {
        let covered: Vec<BTreeSet<(&'static str, usize, usize)>> = ws
            .files
            .iter()
            .map(|(path, parsed, _)| covered_sites(path, parsed, config))
            .collect();
        let hash_imports: Vec<BTreeSet<&str>> = ws
            .files
            .iter()
            .map(|(_, parsed, _)| std_hash_imports(&parsed.lexed.tokens))
            .collect();

        // BFS from every sim-path pub entry point, recording parents so
        // a full chain can be printed at each sink.
        let mut parent: Vec<usize> = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        for id in 0..n {
            let def = ws.fn_def(id);
            let path = ws.fn_file(id);
            let sim = config.sim_path.iter().any(|p| path_has_prefix(path, p));
            if sim && def.is_pub && !def.in_test && def.body.is_some() {
                visited[id] = true;
                parent[id] = id;
                queue.push_back(id);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &c in &graph.edges[f] {
                if !visited[c] && !ws.fn_def(c).in_test {
                    visited[c] = true;
                    parent[c] = f;
                    queue.push_back(c);
                }
            }
        }

        for (id, _) in visited.iter().enumerate().filter(|&(_, &v)| v) {
            let def = ws.fn_def(id);
            let Some(body) = def.body_inner() else {
                continue;
            };
            let fi = ws.fns[id].0;
            for sink in sinks_in_body(ws.fn_tokens(id), body, &hash_imports[fi]) {
                let escaped = match sink.kind {
                    // D001 flags the import, not the use site: the sink
                    // escaped only if the file has no active D001 report.
                    SinkKind::Hash => !covered[fi].iter().any(|(r, _, _)| *r == "D001"),
                    _ => !covered[fi].contains(&(sink.base_rule, sink.line, sink.col)),
                };
                if !escaped {
                    continue;
                }
                let mut chain = vec![id];
                while parent[*chain.last().unwrap()] != *chain.last().unwrap() {
                    chain.push(parent[*chain.last().unwrap()]);
                }
                chain.reverse();
                let rendered: Vec<String> = chain.iter().map(|&f| ws.fn_qualified(f)).collect();
                let (what, advice) = match sink.kind {
                    SinkKind::WallClock => (
                        "wall-clock read",
                        "sim-reachable code must read SimTime only",
                    ),
                    SinkKind::Rng => (
                        "ambient RNG",
                        "all randomness must derive from toto_simcore::rng seed trees",
                    ),
                    SinkKind::Hash => (
                        "randomized-order hash collection",
                        "use BTreeMap/BTreeSet or toto_simcore::collections::DetHashMap",
                    ),
                };
                out.entry(ws.fn_file(id).to_string())
                    .or_default()
                    .push(Finding {
                        rule: "D004",
                        line: sink.line,
                        col: sink.col,
                        message: format!(
                            "{what} reachable from sim path: {} → {}; {advice}",
                            rendered.join(" → "),
                            sink.desc
                        ),
                    });
            }
        }
    }

    if config.level("T001") != Level::Off {
        // Fns whose body lexically mentions `toto_trace` emit directly;
        // backward fixpoint marks everything that reaches an emitter.
        let mut emits = vec![false; n];
        for (id, e) in emits.iter_mut().enumerate() {
            if let Some((s, en)) = ws.fn_def(id).body_inner() {
                let tokens = ws.fn_tokens(id);
                *e = (s..en.min(tokens.len())).any(|i| is_ident(&tokens[i], "toto_trace"));
            }
        }
        loop {
            let mut changed = false;
            for id in 0..n {
                if !emits[id] && graph.edges[id].iter().any(|&c| emits[c]) {
                    emits[id] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (id, _) in emits.iter().enumerate().filter(|&(_, &e)| !e) {
            let def = ws.fn_def(id);
            let path = ws.fn_file(id);
            if !def.is_pub
                || def.in_test
                || def.body.is_none()
                || !config.r002_paths.iter().any(|p| path_has_prefix(path, p))
                || !takes_mut_state(ws.fn_tokens(id), def.params, &config.r002_mut_state_types)
            {
                continue;
            }
            let name_tok = &ws.fn_tokens(id)[def.name_tok];
            let types = config.r002_mut_state_types.join("/");
            out.entry(path.to_string()).or_default().push(Finding {
                rule: "T001",
                line: name_tok.line,
                col: name_tok.col,
                message: format!(
                    "pub fn {} mutates {types} state but neither emits a toto_trace:: \
                     event nor calls anything that does; untraced mutators are invisible \
                     to trace_tool diff",
                    def.name
                ),
            });
        }
    }

    for findings in out.values_mut() {
        findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> BTreeMap<String, Vec<Finding>> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let deps: BTreeMap<String, Vec<String>> = deps
            .iter()
            .map(|(f, ts)| {
                (
                    f.to_string(),
                    ts.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
                )
            })
            .collect();
        let config = Config {
            sim_path: vec!["crates/simcore".into(), "crates/core".into()],
            // Make `fleet` a D002-allowed zone so its wall-clock sites
            // escape the base rule — the exact scenario D004 exists to
            // cover.
            d002_allowed_paths: vec!["crates/fleet".into()],
            ..Config::default()
        };
        let ws = Workspace::build(&sources, &deps);
        let graph = CallGraph::build(&ws);
        analyze(&ws, &graph, &config)
    }

    #[test]
    fn d004_reports_cross_crate_chain() {
        let out = run(
            &[
                ("crates/core/src/lib.rs", "pub fn run() { helper_tick(); }"),
                (
                    "crates/fleet/src/lib.rs",
                    "pub fn helper_tick() { let _ = Instant::now(); }",
                ),
            ],
            &[("core", &["fleet"])],
        );
        let findings = &out["crates/fleet/src/lib.rs"];
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "D004");
        assert!(
            findings[0]
                .message
                .contains("core::run → fleet::helper_tick → Instant::now()"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn d004_skips_sites_the_base_rules_already_report() {
        // Instant::now in a sim-path file is an active D002 error — D004
        // must not double-report it.
        let out = run(
            &[(
                "crates/core/src/lib.rs",
                "pub fn run() { let _ = Instant::now(); }",
            )],
            &[],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn d004_owns_inline_allowed_base_sites() {
        // An inline allow silences D002 but the site is still reachable
        // nondeterminism: D004 takes over.
        let out = run(
            &[(
                "crates/core/src/lib.rs",
                "pub fn run() {\n    // toto-lint: allow(D002)\n    let _ = Instant::now();\n}",
            )],
            &[],
        );
        assert_eq!(out["crates/core/src/lib.rs"].len(), 1);
    }

    #[test]
    fn d004_ignores_unreachable_sinks() {
        let out = run(
            &[
                ("crates/core/src/lib.rs", "pub fn run() {}"),
                (
                    "crates/fleet/src/lib.rs",
                    "pub fn never_called() { let _ = Instant::now(); }",
                ),
            ],
            &[("core", &["fleet"])],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn t001_flags_untraced_mutator_and_accepts_transitive_emit() {
        let out = run(
            &[(
                "crates/fabric/src/plb.rs",
                "pub fn silent(c: &mut Cluster) { c.bump(); }\n\
                 pub fn traced(c: &mut Cluster) { record(c); }\n\
                 fn record(_c: &mut Cluster) { toto_trace::emit(); }\n",
            )],
            &[],
        );
        let findings = &out["crates/fabric/src/plb.rs"];
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "T001");
        assert!(findings[0].message.contains("silent"));
    }
}
