//! Property tests for the analyzer's lexer on adversarial inputs: forbidden
//! tokens hidden in raw strings, block comments, and `#[cfg(test)]` modules
//! whose strings look brace-unbalanced must never surface as code — i.e.
//! zero false positives for the passes built on top.

use analysis::lexer::{FileModel, TokKind};
use proptest::prelude::*;

/// Words every pass treats as offensive when they appear as *code*.
const FORBIDDEN: [&str; 6] = ["unsafe", "f64", "f32", "unwrap", "expect", "panic"];

/// Fragments the generators splice into strings and comments. Each is
/// legal inside a plain `"…"` literal, a `r##"…"##` raw string (no `"#`
/// runs), and a block comment (no `*/` or `/*` runs).
const PAYLOAD: [&str; 12] = [
    "unsafe ",
    "f64 ",
    "f32;",
    "unwrap()",
    "expect(",
    "panic!",
    "todo!",
    "}}} ",
    "{{{ ",
    "' ",
    "DESIGN.md ",
    " xanalyze: begin-allow(float)",
];

/// Splices payload fragments by index; the proptest shim gives us index
/// vectors, the table keeps every sample legal in all three contexts.
fn splice(picks: &[usize]) -> String {
    picks.iter().map(|&i| PAYLOAD[i % PAYLOAD.len()]).collect()
}

/// Idents of `model` whose text is in [`FORBIDDEN`].
fn forbidden_idents(model: &FileModel) -> Vec<(String, bool)> {
    model
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == TokKind::Ident && FORBIDDEN.contains(&t.text.as_str()))
        .map(|(i, t)| (t.text.clone(), model.in_test[i]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Raw strings swallow everything — including quote-hash runs shorter
    /// than the delimiter and marker-comment syntax.
    #[test]
    fn raw_strings_hide_forbidden_words(
        picks in prop::collection::vec(0usize..PAYLOAD.len(), 0usize..8),
        hashes in 2usize..5,
    ) {
        let guts = splice(&picks);
        let fence = "#".repeat(hashes);
        let src = format!(
            "pub fn carrier() -> usize {{\n    let s = r{fence}\"{guts}\"{fence};\n    s.len()\n}}\n"
        );
        let model = FileModel::build(&src);
        prop_assert_eq!(forbidden_idents(&model), vec![]);
        // The literal must lex as exactly one string token…
        let strs = model.tokens.iter().filter(|t| t.kind == TokKind::Str).count();
        prop_assert_eq!(strs, 1);
        // …and the code after it must survive (no runaway literal).
        prop_assert!(model.tokens.iter().any(|t| t.text == "len"));
    }

    /// Nested block comments never leak their contents into code, and the
    /// lexer resurfaces afterwards.
    #[test]
    fn block_comments_hide_forbidden_words(
        picks in prop::collection::vec(0usize..PAYLOAD.len(), 0usize..8),
        inner in prop::collection::vec(0usize..PAYLOAD.len(), 0usize..4),
    ) {
        let outer = splice(&picks);
        let nested = splice(&inner);
        let src = format!(
            "/* {outer} /* nested: {nested} */ tail: {outer} */\npub fn sentinel() {{}}\n"
        );
        let model = FileModel::build(&src);
        prop_assert_eq!(forbidden_idents(&model), vec![]);
        prop_assert!(model.tokens.iter().any(|t| t.text == "sentinel"));
    }

    /// Brace-looking strings inside a `#[cfg(test)]` module do not bend
    /// the test span: floats inside stay test-exempt, code after the
    /// module is plain code again.
    #[test]
    fn cfg_test_spans_survive_unbalanced_looking_strings(
        picks in prop::collection::vec(0usize..PAYLOAD.len(), 0usize..8),
        escapes in 0usize..4,
    ) {
        let guts = splice(&picks).replace('"', "");
        let tricky: String = "\\\"".repeat(escapes) + &guts + "}}} {{{";
        let src = format!(
            "#[cfg(test)]\nmod tests {{\n    const W: &str = \"{tricky}\";\n    fn probe() {{ let x = 1.5f64; let _ = W.len(); x as i64; }}\n}}\npub fn outside() {{ let works = 1; }}\n"
        );
        let model = FileModel::build(&src);
        // Every forbidden ident (the f64) is inside the test span.
        for (word, in_test) in forbidden_idents(&model) {
            prop_assert!(in_test, "`{}` leaked out of the cfg(test) span", word);
        }
        // And the code after the module is *not* swallowed by the span.
        let outside = model
            .tokens
            .iter()
            .position(|t| t.text == "works")
            .expect("sentinel after the module must lex");
        prop_assert!(!model.in_test[outside], "test span leaked past its closing brace");
    }

    /// Char literals and lifetimes never merge with neighbouring tokens:
    /// a quoted brace is not a scope brace, `'a` is a lifetime, `'a'` is
    /// a char.
    #[test]
    fn chars_and_lifetimes_do_not_confuse_scopes(
        reps in 1usize..6,
    ) {
        let chars = "let c = ('{', '}', '\\'', 'a');".repeat(reps);
        let src = format!(
            "pub fn f<'a>(x: &'a [u8]) -> &'a [u8] {{ {chars} x }}\npub fn g() {{ let balanced = 2; }}\n"
        );
        let model = FileModel::build(&src);
        let braces: i64 = model
            .tokens
            .iter()
            .map(|t| match t.kind {
                TokKind::Punct('{') => 1,
                TokKind::Punct('}') => -1,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(braces, 0, "quoted braces must not count as scope braces");
        let lifetimes = model.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        prop_assert_eq!(lifetimes, 3, "the three `'a` positions are lifetimes");
        let chars_found = model.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        prop_assert_eq!(chars_found, 4 * reps, "each quoted char is one literal");
    }
}

/// The allow-marker pass names share one grammar. These properties pin it
/// for the service-era names (`alloc`, `width`) alongside `float`.
const MARKER_PASSES: [&str; 3] = ["alloc", "float", "width"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A `begin-allow(p) — why` / `end-allow(p)` pair covers exactly its
    /// line span for every registered pass name, even with forbidden-
    /// looking callables hidden in raw strings in between — and never
    /// covers any *other* pass name.
    #[test]
    fn allow_regions_cover_exact_lines_for_each_pass(
        pass_idx in 0usize..MARKER_PASSES.len(),
        pre in 0usize..5,
        mid in 1usize..5,
    ) {
        let pass = MARKER_PASSES[pass_idx];
        let filler = "    let filler = 0;\n".repeat(pre);
        let guts = "    let s = r#\"buf.push(v); x as u32; 1.5f64\"#;\n".repeat(mid);
        let src = format!(
            "pub fn f() {{\n{filler}    // xanalyze: begin-allow({pass}) — proptest reason\n{guts}    // xanalyze: end-allow({pass})\n    let after = 1;\n}}\n"
        );
        let model = FileModel::build(&src);
        prop_assert!(model.marker_errors.is_empty(), "{:?}", model.marker_errors);
        prop_assert_eq!(model.allow_regions.len(), 1);
        let (region_pass, start, end, has_reason) = {
            let r = &model.allow_regions[0];
            (r.pass.clone(), r.start_line, r.end_line, r.has_reason)
        };
        prop_assert_eq!(region_pass, pass);
        prop_assert!(has_reason, "justification after the marker must register");
        let begin = 2 + pre as u32;
        let close = begin + mid as u32 + 1;
        prop_assert_eq!((start, end), (begin, close));
        for line in begin..=close {
            prop_assert!(model.allowed(pass, line));
        }
        prop_assert!(!model.allowed(pass, begin - 1));
        prop_assert!(!model.allowed(pass, close + 1));
        for other in MARKER_PASSES {
            if other != pass {
                prop_assert!(!model.allowed(other, begin), "region leaked to pass `{}`", other);
            }
        }
    }

    /// Marker syntax hidden in raw strings, or merely *mentioned*
    /// mid-sentence in prose comments, is not a marker: no regions, no
    /// errors, and nothing becomes allowed.
    #[test]
    fn marker_lookalikes_are_not_markers(
        pass_idx in 0usize..MARKER_PASSES.len(),
        hashes in 1usize..4,
    ) {
        let pass = MARKER_PASSES[pass_idx];
        let fence = "#".repeat(hashes);
        let src = format!(
            "pub fn f() -> usize {{\n    // prose that mentions xanalyze: begin-allow({pass}) mid-sentence\n    let s = r{fence}\"// xanalyze: begin-allow({pass}) — hidden in a raw string\"{fence};\n    s.len()\n}}\n"
        );
        let model = FileModel::build(&src);
        prop_assert!(model.allow_regions.is_empty(), "{:?}", model.allow_regions);
        prop_assert!(model.marker_errors.is_empty(), "{:?}", model.marker_errors);
        for line in 1..=5u32 {
            prop_assert!(!model.allowed(pass, line));
        }
    }

    /// Unbalanced markers are grammar errors: an orphan `end-allow` opens
    /// nothing, and an unclosed `begin-allow` is reported once but still
    /// honoured to end-of-file (one error, not a cascade of findings).
    #[test]
    fn unbalanced_markers_are_reported(
        pass_idx in 0usize..MARKER_PASSES.len(),
        orphan_end in 0usize..2,
    ) {
        let orphan_end = orphan_end == 1;
        let pass = MARKER_PASSES[pass_idx];
        let src = if orphan_end {
            format!("pub fn f() {{\n    // xanalyze: end-allow({pass})\n    let x = 1;\n}}\n")
        } else {
            format!("pub fn f() {{\n    // xanalyze: begin-allow({pass}) — justified\n    let x = 1;\n}}\n")
        };
        let model = FileModel::build(&src);
        prop_assert_eq!(model.marker_errors.len(), 1, "{:?}", model.marker_errors);
        if orphan_end {
            prop_assert!(model.allow_regions.is_empty());
            prop_assert!(model.marker_errors[0].message.contains("without a matching"));
        } else {
            prop_assert!(model.marker_errors[0].message.contains("never closed"));
            // Honoured to EOF: the rest of the file is covered.
            prop_assert!(model.allowed(pass, 3));
            prop_assert!(model.allowed(pass, 4000));
        }
    }
}

/// A `;` inside an array type in a signature does not end the item: the
/// fn still names its body (so registered scopes cover it), and a bodyless
/// declaration still clears the pending name.
#[test]
fn array_types_in_signatures_keep_the_fn_scope() {
    let src = "trait T {\n    fn decl(&self, x: [u8; 2]);\n}\n\
               fn kernel<const W: usize>(row: &[i64; W], out: &mut [i64; W]) {\n    \
               let probe = row[0];\n}\n";
    let model = FileModel::build(src);
    let probe = model
        .tokens
        .iter()
        .position(|t| t.text == "probe")
        .expect("probe token");
    assert_eq!(model.enclosing_fn[probe].as_deref(), Some("kernel"));
    assert!(
        !model
            .enclosing_fn
            .iter()
            .flatten()
            .any(|name| name == "decl"),
        "a bodyless declaration names no scope"
    );
}
