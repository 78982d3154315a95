//! Fixture-based negative tests: each invariant pass must catch its
//! deliberately seeded violation at the exact `file:line`, and the
//! adversarial clean fixture must produce zero findings.
//!
//! The fixtures live under `tests/fixtures/` and are never compiled —
//! `xanalyze` consumes them as text, exactly like CI consumes the tree.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;

use analysis::{analyze, CheckConfig, Finding, Pass};

/// A config rooted at `tests/fixtures/<name>` with the fixture layout:
/// `src/hot.rs` and `src/casts.rs` are the hot path (hot.rs is
/// float-allowlisted), `src/dispatch.rs` is the audited unsafe file with
/// `dispatch` and `dispatch_narrow` as the registered sites, `src/loops.rs`
/// holds the registered per-sample scopes `push`/`tick`/`drain`,
/// `src/worker.rs` is worker scope (with `events` as the one unbounded
/// channel), and `src/codec.rs` is the schema-mirrored codec file. The
/// seeded tree defines no `dispatch_narrow` or `drain` body, so those two
/// registrations are stale.
fn fixture_config(name: &str) -> CheckConfig {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    assert!(root.is_dir(), "missing fixture {name}");
    CheckConfig {
        root,
        scan_dirs: vec!["src".into()],
        skip_prefixes: vec![],
        hot_paths: vec!["src/hot.rs".into(), "src/casts.rs".into()],
        float_allow_files: vec!["src/hot.rs".into()],
        unsafe_files: vec!["src/dispatch.rs".into()],
        dispatch_sites: vec![
            ("src/dispatch.rs".into(), "dispatch".into()),
            ("src/dispatch.rs".into(), "dispatch_narrow".into()),
        ],
        design_doc: "../DESIGN.md".into(),
        alloc_scopes: vec![
            ("src/loops.rs".into(), "push".into()),
            ("src/loops.rs".into(), "tick".into()),
            ("src/loops.rs".into(), "drain".into()),
        ],
        alloc_allow_files: vec!["src/loops.rs".into()],
        width_allow_files: vec!["src/casts.rs".into()],
        worker_files: vec!["src/worker.rs".into()],
        unbounded_send_receivers: vec!["events".into()],
        codec_files: vec!["src/codec.rs".into()],
    }
}

fn run(name: &str) -> Vec<Finding> {
    analyze(&fixture_config(name)).expect("fixture analysis must not error")
}

/// Asserts exactly one finding of `pass` at `file:line`.
fn assert_hit(findings: &[Finding], pass: Pass, file: &str, line: u32) {
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.pass == pass && f.file == file && f.line == line)
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {pass:?} finding at {file}:{line}, got {findings:#?}"
    );
}

#[test]
fn seeded_float_violations_are_reported_with_file_and_line() {
    let findings = run("seeded");
    assert_hit(&findings, Pass::Float, "src/hot.rs", 7); // x as f64
    assert_hit(&findings, Pass::Float, "src/hot.rs", 12); // 0.5 literal
}

#[test]
fn seeded_panic_violations_are_reported_with_file_and_line() {
    let findings = run("seeded");
    assert_hit(&findings, Pass::Panic, "src/hot.rs", 17); // unwrap()
    assert_hit(&findings, Pass::Panic, "src/hot.rs", 22); // panic!
}

#[test]
fn seeded_unsafe_violations_are_reported_with_file_and_line() {
    let findings = run("seeded");
    // The #[target_feature] kernel lacks a SAFETY comment…
    assert_hit(&findings, Pass::Unsafe, "src/dispatch.rs", 6);
    // …a commented unsafe block still may not call the kernel from an
    // unregistered fn…
    assert_hit(&findings, Pass::Unsafe, "src/dispatch.rs", 19);
    // …and a plain unsafe block without a SAFETY comment is flagged.
    assert_hit(&findings, Pass::Unsafe, "src/dispatch.rs", 23);
}

#[test]
fn seeded_stale_design_reference_is_reported_with_file_and_line() {
    let findings = run("seeded");
    assert_hit(&findings, Pass::DocRef, "src/hot.rs", 27); // §9 unresolved
}

#[test]
fn seeded_alloc_violations_are_reported_with_file_and_line() {
    let findings = run("seeded");
    assert_hit(&findings, Pass::Alloc, "src/loops.rs", 12); // buf.push
    assert_hit(&findings, Pass::Alloc, "src/loops.rs", 13); // Box::new
    assert_hit(&findings, Pass::Alloc, "src/loops.rs", 18); // format!
    assert_hit(&findings, Pass::Alloc, "src/loops.rs", 22); // reserve
}

#[test]
fn seeded_stale_registrations_are_reported_at_file_level() {
    let findings = run("seeded");
    // `dispatch_narrow` appears only in a comment, and `drain` only as a
    // test fn: neither is a body the registration can cover.
    assert_hit(&findings, Pass::Unsafe, "src/dispatch.rs", 0);
    assert_hit(&findings, Pass::Alloc, "src/loops.rs", 0);
}

#[test]
fn seeded_blocking_violations_are_reported_with_file_and_line() {
    let findings = run("seeded");
    assert_hit(&findings, Pass::Blocking, "src/worker.rs", 10); // reply.send
    assert_hit(&findings, Pass::Blocking, "src/worker.rs", 15); // rx.recv
    assert_hit(&findings, Pass::Blocking, "src/worker.rs", 19); // let guard
    assert_hit(&findings, Pass::Blocking, "src/worker.rs", 25); // lock across encode()
}

#[test]
fn seeded_cast_violations_are_reported_with_file_and_line() {
    let findings = run("seeded");
    assert_hit(&findings, Pass::Cast, "src/casts.rs", 6); // x as u32
    assert_hit(&findings, Pass::Cast, "src/casts.rs", 10); // i128 chain as i64
}

#[test]
fn seeded_schema_violations_are_reported_with_file_and_line() {
    let findings = run("seeded");
    // The deliberately reordered snapshot field: step 1 writes i64 but
    // reads u32.
    assert_hit(&findings, Pass::Schema, "src/codec.rs", 13);
    // The writer's trailing field the reader never takes.
    assert_hit(&findings, Pass::Schema, "src/codec.rs", 20);
    // `open` never checks VERSION (reported at its first body line).
    assert_hit(&findings, Pass::Schema, "src/codec.rs", 32);
}

#[test]
fn seeded_fixture_reports_nothing_else() {
    // The seeded tree contains exactly the violations asserted above —
    // in particular nothing from the #[cfg(test)] modules, the registered
    // dispatch site, the allow regions, or the trailing prose comments.
    let findings = run("seeded");
    assert_eq!(
        findings.len(),
        23,
        "unexpected extra findings: {findings:#?}"
    );
}

#[test]
fn adversarial_clean_fixture_produces_zero_findings() {
    let findings = run("clean");
    assert!(
        findings.is_empty(),
        "clean fixture must not trip any pass: {findings:#?}"
    );
}

#[test]
fn the_real_tree_is_clean() {
    // The same self-check CI runs: every invariant holds on the actual
    // workspace. A regression in the hot path fails `cargo test`, not
    // just the dedicated CI step.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let findings = analyze(&CheckConfig::workspace(root)).expect("workspace analysis");
    assert!(
        findings.is_empty(),
        "workspace invariants violated: {findings:#?}"
    );
}
