//! The `must-pair` analysis and the whole-workspace pipeline that runs
//! it together with the dataflow passes and the escape audit.
//!
//! # Must-pair
//!
//! Every library function that calls a pin primitive (`pin`,
//! `pin_run`, `pin_slice` — resolved by name to their definitions in
//! `crates/mem`) must reach a release (`unpin*`, `reap`) or transfer
//! custody to a pinned ledger (`push_back`) on every non-panic exit.
//! The check is a CFG-lite linear scan over the function's token
//! stream: the statement containing the pin call is atomic (its own
//! `?` is the no-pin failure path); after it, any `return` or `?`
//! before a release token leaks the pin, as does falling off the end
//! of the body. Panic exits (`expect`/`unwrap`/`panic!`) are exempt —
//! a panic tears down the whole simulated world.

use crate::graph::{GraphFile, Pass, SymbolGraph};
use crate::lexer::{scrub, test_lines, tokenize, Allows};
use crate::parse::parse_file;
use crate::rules::{Diagnostic, FileKind};
use std::collections::BTreeMap;

/// Pin primitives and where they must be defined for a call to count.
const PIN_FNS: &[&str] = &["pin", "pin_run", "pin_slice"];
const PIN_HOME_CRATES: &[&str] = &["mem", "core"];
/// Tokens that discharge the obligation: direct release, batched reap,
/// or custody transfer into a pinned ledger that reap later drains.
const RELEASE_FNS: &[&str] = &["unpin", "unpin_run", "unpin_slice", "reap", "push_back"];

/// The `must-pair` pass: pins must be released on all non-panic paths.
#[derive(Debug, Default)]
pub struct MustPairPass;

impl Pass for MustPairPass {
    fn rule(&self) -> &'static str {
        "must-pair"
    }

    fn run(&self, graph: &SymbolGraph) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for f in &graph.files {
            if f.kind != FileKind::Library {
                continue;
            }
            for g in &f.symbols.fns {
                if PIN_FNS.contains(&g.name.as_str()) {
                    continue; // the primitives themselves
                }
                if let Some(d) = check_fn_pairing(graph, f, g) {
                    out.push(d);
                }
            }
        }
        out
    }
}

fn check_fn_pairing(
    graph: &SymbolGraph,
    file: &GraphFile,
    g: &crate::parse::FnSym,
) -> Option<Diagnostic> {
    let body = &g.body;
    // Locate the first pin-primitive call, tracking brace depth.
    let mut brace = 0i32;
    let mut pin_at = None;
    for (i, t) in body.iter().enumerate() {
        match t.text.as_str() {
            "{" => brace += 1,
            "}" => brace -= 1,
            _ => {}
        }
        if t.is_ident
            && PIN_FNS.contains(&t.text.as_str())
            && body.get(i + 1).map(|n| n.text.as_str()) == Some("(")
            && (i == 0 || body[i - 1].text != "fn")
            && !file.test_lines.contains(&t.line)
            && graph.defines_fn_in(&t.text, PIN_HOME_CRATES)
        {
            pin_at = Some((i, t.line, brace));
            break;
        }
    }
    let (pin_idx, pin_line, pin_brace) = pin_at?;
    // The pin's own statement (to the `;` at paren depth 0, back at the
    // pin's brace depth) is atomic: a `?` inside it is the pin *failing*,
    // not a leak.
    let (mut par, mut brace) = (0i32, pin_brace);
    let mut i = pin_idx;
    while i < body.len() {
        match body[i].text.as_str() {
            "(" | "[" => par += 1,
            ")" | "]" => par -= 1,
            "{" => brace += 1,
            "}" => brace -= 1,
            ";" if par <= 0 && brace <= pin_brace => break,
            _ => {}
        }
        i += 1;
    }
    // After the statement: any exit before a release leaks the pin.
    for t in &body[(i + 1).min(body.len())..] {
        if t.is_ident && RELEASE_FNS.contains(&t.text.as_str()) {
            return None; // released / custody transferred
        }
        let exit = match t.text.as_str() {
            "return" => Some("`return`"),
            "?" => Some("`?`"),
            _ => None,
        };
        if let Some(exit) = exit {
            return Some(Diagnostic {
                rule: "must-pair",
                file: file.symbols.rel.clone(),
                line: t.line,
                message: format!(
                    "`{}` pins pages at line {pin_line} but {exit} exits before any \
                     unpin/reap/ledger hand-off",
                    g.name
                ),
            });
        }
    }
    Some(Diagnostic {
        rule: "must-pair",
        file: file.symbols.rel.clone(),
        line: g.end_line,
        message: format!(
            "`{}` pins pages at line {pin_line} but falls off the end of the function \
             without any unpin/reap/ledger hand-off",
            g.name
        ),
    })
}

/// One in-memory source file for [`analyze`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path (drives crate attribution and classification).
    pub rel: String,
    /// Rule-subset classification.
    pub kind: FileKind,
    /// Full source text.
    pub text: String,
}

/// Output of [`analyze`].
#[derive(Debug, Default)]
pub struct Analysis {
    /// Suppression-filtered diagnostics from every pass plus the stale
    /// escape audit, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Total `cdna-check: allow` annotations found.
    pub allow_count: usize,
    /// Resolved call edges in the symbol graph (statistics).
    pub call_edges: usize,
}

/// Runs the complete pipeline over in-memory sources: symbol-graph
/// passes, allow suppression with "used" accounting, and the stale
/// escape audit.
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let mut graph_files: Vec<GraphFile> = Vec::new();
    let mut per_file_allows: BTreeMap<String, (Allows, Vec<bool>)> = BTreeMap::new();
    let mut allow_count = 0usize;
    for f in files {
        let scrubbed = scrub(&f.text);
        let tokens = tokenize(&scrubbed.masked);
        graph_files.push(GraphFile {
            symbols: parse_file(&f.rel, &tokens),
            kind: f.kind,
            test_lines: test_lines(&tokens),
        });
        allow_count += scrubbed.allows.count();
        let used = vec![false; scrubbed.allows.count()];
        per_file_allows.insert(f.rel.clone(), (scrubbed.allows, used));
    }

    let graph = SymbolGraph::build(graph_files);
    let passes: [&dyn Pass; 3] = [
        &MustPairPass,
        &crate::taint::GuestTaintPass,
        &crate::locks::LockOrderPass,
    ];
    let raw = crate::graph::run_passes(&graph, &passes);

    // Apply allows, crediting the entry that fired.
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for d in raw {
        if let Some((allows, used)) = per_file_allows.get_mut(&d.file) {
            if let Some(idx) = allows.match_entry(d.rule, d.line) {
                used[idx] = true;
                continue;
            }
        }
        diagnostics.push(d);
    }

    // An escape is an expectation, like `#[expect]`: one that
    // suppresses nothing is reported under the rule it names. That
    // includes escapes of rules retired to compiler lints, which can
    // never fire again. Unknown names are skipped; whatever they meant
    // to hide is still reported.
    for (rel, (allows, used)) in &per_file_allows {
        for (entry, _) in allows
            .entries()
            .iter()
            .zip(used)
            .filter(|(_, used)| !**used)
        {
            let Some(rule) = crate::rules::known_rule(&entry.rule) else {
                continue;
            };
            let escape = format!(
                "`allow{}({rule})`",
                if entry.file_wide { "-file" } else { "" }
            );
            let message = match crate::rules::replacement(rule) {
                Some(gate) => format!(
                    "{escape} names a retired rule now enforced by {gate}; remove \
                     the escape (lint exceptions are `#[expect(<lint>, reason = \"…\")]`)"
                ),
                None => format!("{escape} suppresses no diagnostic; remove the stale escape"),
            };
            diagnostics.push(Diagnostic {
                rule,
                file: rel.clone(),
                line: entry.line,
                message,
            });
        }
    }

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis {
        diagnostics,
        allow_count,
        call_edges: graph.call_edge_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel: rel.into(),
            kind: FileKind::Library,
            text: text.into(),
        }
    }

    fn rules_of(a: &Analysis) -> Vec<(&'static str, u32)> {
        a.diagnostics.iter().map(|d| (d.rule, d.line)).collect()
    }

    /// A tiny workspace where `pin_run` exists in `mem`, so calls to it
    /// resolve and the must-pair obligation attaches.
    fn pin_defs() -> SourceFile {
        lib(
            "crates/mem/src/pool.rs",
            "//! Doc.\n/// Doc.\npub fn pin_run(s: u32, l: u32) {}\n/// Doc.\npub fn unpin_run(s: u32, l: u32) {}\n",
        )
    }

    #[test]
    fn leaked_pin_on_early_return_fires() {
        let src = "//! Doc.\nfn leak(m: &mut M) -> Result<(), E> {\n    m.pin_run(s, l)?;\n    if bad {\n        return Err(E::Nope);\n    }\n    m.unpin_run(s, l);\n    Ok(())\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)]);
        assert_eq!(rules_of(&a), [("must-pair", 5)], "{:?}", a.diagnostics);
    }

    #[test]
    fn paired_pin_is_clean_and_panic_exits_exempt() {
        let src = "//! Doc.\nfn ok(m: &mut M) -> Result<(), E> {\n    m.pin_run(s, l)?;\n    let r = table.get(k).expect(\"present\");\n    m.unpin_run(s, l);\n    Ok(())\n}\nfn ledger(m: &mut M) -> Result<(), E> {\n    m.pin_run(s, l)?;\n    pinned.push_back((s, l));\n    Ok(())\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)]);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn fall_through_leak_fires_and_unresolved_pin_does_not() {
        // `pin_run` resolves (defined in mem) → leak at end of fn.
        let src = "//! Doc.\nfn leak(m: &mut M) {\n    m.pin_run(s, l);\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)]);
        assert_eq!(rules_of(&a), [("must-pair", 4)], "{:?}", a.diagnostics);
        // Without a workspace definition the name does not resolve and
        // no obligation attaches.
        let a = analyze(&[lib("crates/core/src/x.rs", src)]);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn stale_escapes_are_reported_under_their_rule() {
        // The first escape covers the real leak on line 4; the second
        // suppresses nothing; the third and fourth name retired rules,
        // one replaced by a lint and one by the jobs-equality gates.
        let src = "//! Doc.\nfn leak(m: &mut M) {\n    m.pin_run(s, l);\n} // cdna-check: allow(must-pair): fixture\nfn f() {\n    y(); // cdna-check: allow(must-pair): stale\n    x.unwrap(); // cdna-check: allow(panic): retired\n    w.number_f64(ms); // cdna-check: allow(clock-purity): retired\n}\n";
        let a = analyze(&[pin_defs(), lib("crates/core/src/x.rs", src)]);
        assert_eq!(
            rules_of(&a),
            [("must-pair", 6), ("panic", 7), ("clock-purity", 8)],
            "{:?}",
            a.diagnostics
        );
        assert!(a.diagnostics[1].message.contains("clippy::unwrap_used"));
        let clock = crate::rules::replacement("clock-purity").unwrap_or_default();
        assert!(clock.contains("perf-smoke"), "{clock}");
        assert!(
            a.diagnostics[2].message.contains(clock),
            "{:?}",
            a.diagnostics[2]
        );
        assert_eq!(a.allow_count, 4);
    }
}
