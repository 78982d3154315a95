//! The eight invariant passes and the workspace walker that drives them.
//!
//! Every pass consumes [`crate::lexer::FileModel`]s, so none of them can
//! be fooled by keywords inside strings, raw strings, comments, or
//! `#[cfg(test)]` modules — the exact failure modes of `grep`-based
//! enforcement. See `DESIGN.md` §10 for the original rule catalogue and
//! §13 for the service-era passes (alloc-freedom, blocking-discipline,
//! cast-audit, schema-drift).

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{is_float_literal, FileModel, TokKind};
use crate::report::{Finding, Pass};

/// What to check and where. [`CheckConfig::workspace`] is the in-tree
/// instance; fixture tests build bespoke ones.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Workspace root; all other paths are relative to it.
    pub root: PathBuf,
    /// Directories (relative) to walk for `*.rs` files.
    pub scan_dirs: Vec<String>,
    /// Relative path prefixes to skip (fixtures, build output).
    pub skip_prefixes: Vec<String>,
    /// Hot-path modules: exact relative files, or directory prefixes
    /// ending in `/`. Scope of the float-freedom and panic-freedom passes.
    pub hot_paths: Vec<String>,
    /// Files permitted to carry `xanalyze: begin-allow(float)` regions.
    pub float_allow_files: Vec<String>,
    /// Files permitted to contain `unsafe` at all.
    pub unsafe_files: Vec<String>,
    /// Registered runtime-dispatch sites: the only `(file, fn)` bodies
    /// allowed to invoke a `#[target_feature]` function. An entry whose
    /// fn matches no non-test body in its file is itself a finding.
    pub dispatch_sites: Vec<(String, String)>,
    /// The design document (relative) whose `§N` headings anchor doc refs.
    pub design_doc: String,
    /// Registered per-sample scopes for the alloc-freedom pass: every fn
    /// named `.1` in file `.0` (free fn or method, any impl) is covered.
    /// An entry whose fn matches no non-test body in its file is itself a
    /// finding.
    pub alloc_scopes: Vec<(String, String)>,
    /// Files permitted to carry `xanalyze: begin-allow(alloc)` regions.
    pub alloc_allow_files: Vec<String>,
    /// Files permitted to carry `xanalyze: begin-allow(width)` regions.
    pub width_allow_files: Vec<String>,
    /// Shard-worker-scope files: every non-test fn in them is held to the
    /// blocking discipline (no bounded sends, no blocking receives, no
    /// lock guards outliving one statement or spanning a codec call).
    pub worker_files: Vec<String>,
    /// Receiver identifiers naming unbounded channels — the only `.send`
    /// targets legal from worker scope (e.g. `events`).
    pub unbounded_send_receivers: Vec<String>,
    /// Files whose encode/decode fn pairs the schema-drift pass mirrors,
    /// and whose `seal`/`open` fns must reference the `VERSION` constant.
    pub codec_files: Vec<String>,
}

impl CheckConfig {
    /// The configuration for this repository: hot-path set, audited
    /// `unsafe` files, and registered dispatch sites as established by
    /// PRs 5 and 6.
    #[must_use]
    pub fn workspace(root: PathBuf) -> Self {
        const HOT: &str = "crates/pan-tompkins/src/";
        Self {
            root,
            scan_dirs: vec![
                "crates".into(),
                "src".into(),
                "tests".into(),
                "examples".into(),
            ],
            skip_prefixes: vec!["crates/analysis/tests/fixtures".into(), "target".into()],
            hot_paths: vec![
                format!("{HOT}decision.rs"),
                format!("{HOT}threshold.rs"),
                format!("{HOT}streaming.rs"),
                format!("{HOT}lane.rs"),
                format!("{HOT}fir.rs"),
                format!("{HOT}engine.rs"),
                format!("{HOT}snapshot.rs"),
                format!("{HOT}stages/"),
                // PR 9: the session hub's shard workers sit on the same
                // hot path as the detector — float- and panic-free.
                "crates/service/src/".to_string(),
            ],
            float_allow_files: vec![format!("{HOT}threshold.rs")],
            unsafe_files: vec![format!("{HOT}lane.rs")],
            dispatch_sites: vec![(format!("{HOT}lane.rs"), "run_at".to_string())],
            design_doc: "DESIGN.md".into(),
            // PR 10: the per-sample loops of the service era. Streaming
            // push (a one-lane bank push) + the per-sample tail ingest,
            // the decision tail, the lane stage kernels, and the shard
            // workers' tick path may not allocate.
            alloc_scopes: [
                (format!("{HOT}streaming.rs"), "push"),
                (format!("{HOT}streaming.rs"), "ingest"),
                (format!("{HOT}streaming.rs"), "ingest_batch"),
                (format!("{HOT}threshold.rs"), "push"),
                (format!("{HOT}lane.rs"), "push_impl"),
                (format!("{HOT}lane.rs"), "stage_block"),
                (format!("{HOT}lane.rs"), "run"),
                (format!("{HOT}lane.rs"), "run_at"),
                (format!("{HOT}lane.rs"), "run_avx512"),
                (format!("{HOT}lane.rs"), "run_avx2"),
                (format!("{HOT}lane.rs"), "run_baseline"),
                (format!("{HOT}lane.rs"), "tick"),
                (format!("{HOT}lane.rs"), "blocks"),
                (format!("{HOT}lane.rs"), "block"),
                (format!("{HOT}lane.rs"), "mac"),
                (format!("{HOT}lane.rs"), "accumulate"),
                (format!("{HOT}lane.rs"), "product"),
                // The time walks of one-lane banks and the helpers both
                // walks share. Their scratch is the thread's, reused
                // across blocks (audited allow regions).
                (format!("{HOT}lane.rs"), "run_walk"),
                (format!("{HOT}lane.rs"), "time_walk"),
                (format!("{HOT}lane.rs"), "window_chain"),
                (format!("{HOT}lane.rs"), "add_counts"),
                (format!("{HOT}lane.rs"), "rescale_block"),
                (format!("{HOT}lane.rs"), "square"),
                (format!("{HOT}lane.rs"), "square_lane"),
                (format!("{HOT}lane.rs"), "square_row"),
                ("crates/service/src/shard.rs".to_string(), "tick"),
                ("crates/service/src/shard.rs".to_string(), "tick_bank"),
                ("crates/service/src/shard.rs".to_string(), "tick_solos"),
                ("crates/service/src/shard.rs".to_string(), "ingest_solo"),
                ("crates/service/src/shard.rs".to_string(), "next_sample"),
            ]
            .into_iter()
            .map(|(f, s)| (f, s.to_string()))
            .collect(),
            alloc_allow_files: vec![
                format!("{HOT}streaming.rs"),
                format!("{HOT}threshold.rs"),
                format!("{HOT}lane.rs"),
                "crates/service/src/shard.rs".to_string(),
            ],
            width_allow_files: vec![],
            worker_files: vec!["crates/service/src/shard.rs".to_string()],
            unbounded_send_receivers: vec!["events".to_string()],
            codec_files: vec![
                format!("{HOT}snapshot.rs"),
                format!("{HOT}streaming.rs"),
                format!("{HOT}threshold.rs"),
                format!("{HOT}lane.rs"),
            ],
        }
    }

    fn is_hot(&self, rel: &str) -> bool {
        self.hot_paths.iter().any(|h| {
            if h.ends_with('/') {
                rel.starts_with(h.as_str())
            } else {
                rel == h
            }
        })
    }
}

/// One analysed source file.
struct SourceFile {
    rel: String,
    model: FileModel,
}

/// Runs all eight passes over the configured tree and returns every
/// finding, sorted by pass, file, line.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree; a missing
/// design document is a *finding*, not an error.
pub fn analyze(config: &CheckConfig) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for dir in &config.scan_dirs {
        let abs = config.root.join(dir);
        if abs.is_dir() {
            walk(&abs, &mut |p| files.push(p.to_path_buf()))?;
        }
    }
    files.sort();

    let mut sources = Vec::new();
    for path in files {
        let rel = match path.strip_prefix(&config.root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if config
            .skip_prefixes
            .iter()
            .any(|s| rel.starts_with(s.as_str()))
        {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        sources.push(SourceFile {
            rel,
            model: FileModel::build(&src),
        });
    }

    let mut findings = Vec::new();
    marker_hygiene(config, &sources, &mut findings);
    float_freedom(config, &sources, &mut findings);
    unsafe_audit(config, &sources, &mut findings);
    panic_freedom(config, &sources, &mut findings);
    doc_refs(config, &sources, &mut findings);
    alloc_freedom(config, &sources, &mut findings);
    blocking_discipline(config, &sources, &mut findings);
    cast_audit(config, &sources, &mut findings);
    schema_drift(config, &sources, &mut findings);

    findings.sort_by(|a, b| {
        (a.pass, &a.file, a.line, &a.message).cmp(&(b.pass, &b.file, b.line, &b.message))
    });
    Ok(findings)
}

/// Recursively collects `*.rs` files under `dir`, skipping hidden
/// directories.
fn walk(dir: &Path, out: &mut dyn FnMut(&Path)) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if name.to_string_lossy().starts_with('.') {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out(&path);
        }
    }
    Ok(())
}

/// Marker comments must be well formed wherever they appear: known pass
/// name, justification text, balanced begin/end, and only in files that
/// are allowlisted to carry them.
fn marker_hygiene(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    for f in sources {
        for err in &f.model.marker_errors {
            out.push(Finding::new(
                Pass::Allowlist,
                &f.rel,
                err.line,
                err.message.clone(),
            ));
        }
        for region in &f.model.allow_regions {
            let allow_files = match region.pass.as_str() {
                "float" => &config.float_allow_files,
                "alloc" => &config.alloc_allow_files,
                "width" => &config.width_allow_files,
                other => {
                    out.push(Finding::new(
                        Pass::Allowlist,
                        &f.rel,
                        region.start_line,
                        format!("unknown allow pass `{other}` (known: alloc, float, width)"),
                    ));
                    continue;
                }
            };
            if !allow_files.iter().any(|p| p == &f.rel) {
                out.push(Finding::new(
                    Pass::Allowlist,
                    &f.rel,
                    region.start_line,
                    format!(
                        "allow({}) region in a file not on the {} allowlist",
                        region.pass, region.pass
                    ),
                ));
            }
            if !region.has_reason {
                out.push(Finding::new(
                    Pass::Allowlist,
                    &f.rel,
                    region.start_line,
                    format!(
                        "begin-allow({}) marker carries no justification",
                        region.pass
                    ),
                ));
            }
        }
    }
}

/// Pass 1: no `f32`/`f64` type tokens and no float literals in hot-path
/// code outside test spans and explicit allow regions.
fn float_freedom(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    for f in sources {
        if !config.is_hot(&f.rel) {
            continue;
        }
        let m = &f.model;
        for (i, t) in m.tokens.iter().enumerate() {
            if m.in_test[i] || m.in_attr[i] {
                continue;
            }
            let offence = match t.kind {
                TokKind::Ident if t.text == "f64" || t.text == "f32" => {
                    Some(format!("`{}` type in hot-path code", t.text))
                }
                TokKind::Number if is_float_literal(&t.text) => {
                    Some(format!("float literal `{}` in hot-path code", t.text))
                }
                _ => None,
            };
            if let Some(msg) = offence {
                if !m.allowed("float", t.line) {
                    out.push(Finding::new(Pass::Float, &f.rel, t.line, msg));
                }
            }
        }
    }
}

/// Pass 2: `unsafe` only in audited files, always under an adjacent
/// `// SAFETY:` comment; `#[target_feature]` functions invoked only from
/// registered dispatch sites.
fn unsafe_audit(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    stale_registrations(
        &config.dispatch_sites,
        "dispatch site",
        Pass::Unsafe,
        sources,
        out,
    );
    // All #[target_feature] fn definitions across the tree.
    let mut tf_fns: Vec<(String, String, usize)> = Vec::new(); // (name, file, token idx)
    for f in sources {
        for (tf, idx) in &f.model.target_feature_fns {
            tf_fns.push((tf.name.clone(), f.rel.clone(), *idx));
        }
    }

    for f in sources {
        let m = &f.model;
        let audited = config.unsafe_files.iter().any(|p| p == &f.rel);
        for (i, t) in m.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == "unsafe" && !m.in_attr[i] {
                if !audited {
                    out.push(Finding::new(
                        Pass::Unsafe,
                        &f.rel,
                        t.line,
                        "`unsafe` outside the audited file allowlist".to_string(),
                    ));
                }
                if !has_safety_comment(m, i) {
                    out.push(Finding::new(
                        Pass::Unsafe,
                        &f.rel,
                        t.line,
                        "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                    ));
                }
            }
            // Calls to #[target_feature] functions.
            if m.in_attr[i] {
                continue;
            }
            for (name, def_file, def_idx) in &tf_fns {
                if &t.text != name || (&f.rel == def_file && i == *def_idx) {
                    continue;
                }
                let site_ok = m.enclosing_fn[i].as_deref().is_some_and(|enc| {
                    config
                        .dispatch_sites
                        .iter()
                        .any(|(sf, sfn)| sf == &f.rel && sfn == enc)
                });
                if !site_ok {
                    out.push(Finding::new(
                        Pass::Unsafe,
                        &f.rel,
                        t.line,
                        format!(
                            "`{name}` is `#[target_feature]`; only registered dispatch \
                             sites may reference it"
                        ),
                    ));
                }
            }
        }
    }
}

/// Reports every registered `(file, fn)` entry whose fn has no non-test
/// body in its file (reported at line 0 of that file). Registrations match
/// by name, so a renamed or deleted fn would otherwise drop its entry's
/// coverage without a trace.
fn stale_registrations(
    entries: &[(String, String)],
    what: &str,
    pass: Pass,
    sources: &[SourceFile],
    out: &mut Vec<Finding>,
) {
    for (file, name) in entries {
        let defined = sources.iter().filter(|f| &f.rel == file).any(|f| {
            // A fn body's closing brace is enclosed by the fn itself, so
            // even an empty body leaves one token naming it.
            let m = &f.model;
            m.enclosing_fn
                .iter()
                .zip(&m.in_test)
                .any(|(enc, &test)| !test && enc.as_deref() == Some(name.as_str()))
        });
        if !defined {
            out.push(Finding::new(
                pass,
                file,
                0,
                format!("registered {what} `{name}` matches no fn in this file"),
            ));
        }
    }
}

/// Is there a `// SAFETY:` comment directly above token `i` (skipping
/// other tokens on the same line, attributes, and earlier lines of the
/// same comment block)?
fn has_safety_comment(m: &FileModel, i: usize) -> bool {
    has_comment_above(m, i, "SAFETY:")
}

/// Is there a comment containing `needle` directly above token `i`
/// (skipping other tokens on the same line, attributes, and earlier
/// lines of the same comment block)?
fn has_comment_above(m: &FileModel, i: usize, needle: &str) -> bool {
    let line = m.tokens[i].line;
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &m.tokens[j];
        if t.line == line && !t.is_comment() {
            continue; // e.g. the match-arm pattern before `=> unsafe`.
        }
        if m.in_attr[j] {
            continue; // attributes may sit between the comment and the item
        }
        if t.is_comment() {
            if t.text.contains(needle) {
                return true;
            }
            continue; // earlier lines of a multi-line comment block
        }
        return false;
    }
    false
}

/// Is there a comment containing `needle` later on token `i`'s line
/// (the idiomatic trailing `// WIDTH: …` spot)?
fn has_trailing_comment(m: &FileModel, i: usize, needle: &str) -> bool {
    let line = m.tokens[i].line;
    m.tokens[i + 1..]
        .iter()
        .take_while(|t| t.line == line)
        .any(|t| t.is_comment() && t.text.contains(needle))
}

/// Pass 3: no panicking macros or `unwrap()`/`expect()` in non-test
/// hot-path code.
fn panic_freedom(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    for f in sources {
        if !config.is_hot(&f.rel) {
            continue;
        }
        let m = &f.model;
        for (i, t) in m.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident || m.in_test[i] || m.in_attr[i] {
                continue;
            }
            let next = next_code_token(m, i);
            let offence = match t.text.as_str() {
                "unwrap" | "expect" if next == Some('(') => {
                    Some(format!("`{}()` on the hot path", t.text))
                }
                "panic" | "todo" | "unimplemented" if next == Some('!') => {
                    Some(format!("`{}!` on the hot path", t.text))
                }
                _ => None,
            };
            if let Some(msg) = offence {
                out.push(Finding::new(Pass::Panic, &f.rel, t.line, msg));
            }
        }
    }
}

/// The first non-comment token after `i`, as a single punct char if it is
/// one.
fn next_code_token(m: &FileModel, i: usize) -> Option<char> {
    next_code_idx(m, i).map(|j| match m.tokens[j].kind {
        TokKind::Punct(c) => c,
        _ => '\0',
    })
}

/// Index of the first non-comment token after `i`.
fn next_code_idx(m: &FileModel, i: usize) -> Option<usize> {
    m.tokens[i + 1..]
        .iter()
        .position(|t| !t.is_comment())
        .map(|off| i + 1 + off)
}

/// Index of the first non-comment token before `i`.
fn prev_code_idx(m: &FileModel, i: usize) -> Option<usize> {
    m.tokens[..i].iter().rposition(|t| !t.is_comment())
}

/// Pass 4: every `DESIGN.md §N` reference in comments or strings resolves
/// to a real heading of the design document.
fn doc_refs(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    let doc_path = config.root.join(&config.design_doc);
    let headings = match fs::read_to_string(&doc_path) {
        Ok(text) => design_headings(&text),
        Err(_) => {
            out.push(Finding::new(
                Pass::DocRef,
                &config.design_doc,
                0,
                "design document not found; §-references cannot resolve".to_string(),
            ));
            return;
        }
    };

    for f in sources {
        // Merge adjacent line comments into blocks so an anchor like
        // "DESIGN.md" on one `//!` line still governs a `§N` on the next.
        let mut blocks: Vec<(u32, String)> = Vec::new();
        for t in &f.model.tokens {
            match t.kind {
                TokKind::Comment { block: false, .. } => {
                    if let Some((start, text)) = blocks.last_mut() {
                        let prev_end = *start + text.bytes().filter(|&b| b == b'\n').count() as u32;
                        if t.line == prev_end + 1 {
                            text.push('\n');
                            text.push_str(&t.text);
                            continue;
                        }
                    }
                    blocks.push((t.line, t.text.clone()));
                }
                TokKind::Comment { block: true, .. } | TokKind::Str => {
                    blocks.push((t.line, t.text.clone()));
                }
                _ => {}
            }
        }
        for (start_line, text) in &blocks {
            check_refs(&f.rel, *start_line, text, &headings, out);
        }
    }
}

/// Extracts the set of `§N` heading numbers from the design document.
fn design_headings(text: &str) -> BTreeSet<u32> {
    let mut numbers = BTreeSet::new();
    for line in text.lines() {
        if !line.starts_with('#') {
            continue;
        }
        if let Some(at) = line.find('§') {
            let digits: String = line[at + '§'.len_utf8()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if let Ok(n) = digits.parse() {
                numbers.insert(n);
            }
        }
    }
    numbers
}

/// Scans one comment block or string literal for `§` references whose
/// nearest preceding anchor is `DESIGN.md`, and reports unresolved ones.
fn check_refs(
    rel: &str,
    start_line: u32,
    text: &str,
    headings: &BTreeSet<u32>,
    out: &mut Vec<Finding>,
) {
    // Anchors that can claim a following §-reference. Only DESIGN.md refs
    // are checkable; "paper"-anchored ones cite the source paper.
    const ANCHORS: [&str; 5] = ["DESIGN.md", "paper", "Paper", "PAPERS.md", "EXPERIMENTS.md"];
    let mut search = 0usize;
    while let Some(off) = text[search..].find('§') {
        let at = search + off;
        search = at + '§'.len_utf8();
        let digits: String = text[search..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if digits.is_empty() {
            continue;
        }
        let after = &text[search + digits.len()..];
        let subsection = after.starts_with('.')
            && after[1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit());
        let anchor = ANCHORS
            .iter()
            .filter_map(|a| text[..at].rfind(a).map(|p| (p, *a)))
            .max_by_key(|(p, _)| *p)
            .map(|(_, a)| a);
        if anchor != Some("DESIGN.md") {
            continue;
        }
        let line = start_line + text[..at].bytes().filter(|&b| b == b'\n').count() as u32;
        let number: u32 = digits.parse().unwrap_or(u32::MAX);
        if subsection {
            out.push(Finding::new(
                Pass::DocRef,
                rel,
                line,
                format!("`DESIGN.md §{digits}.…` has a subsection; DESIGN.md headings are flat"),
            ));
        } else if !headings.contains(&number) {
            out.push(Finding::new(
                Pass::DocRef,
                rel,
                line,
                format!("`DESIGN.md §{digits}` does not match any heading"),
            ));
        }
    }
}

/// Method names whose call allocates (or may allocate) on the heap.
/// `Vec::new`/`String::new` are absent on purpose: they are const and
/// allocation-free until first growth.
const ALLOC_CALLS: [&str; 16] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "with_capacity",
    "reserve",
    "reserve_exact",
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "clone",
    "extend",
    "extend_from_slice",
    "resize",
    "append",
];

/// Pass 5: registered per-sample scopes never allocate. Every fn named in
/// [`CheckConfig::alloc_scopes`] (free fn or method, every impl in the
/// file) is scanned for allocating calls, `format!`/`vec!`, and
/// `Box::new`; `// xanalyze: begin-allow(alloc) — why` regions exempt
/// amortized growth with a recorded justification.
///
/// The check is lexical, per registered body: a nested *named* fn opens
/// its own scope (register it too if it is hot), and callees are not
/// chased — register each fn on the per-sample path.
fn alloc_freedom(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    stale_registrations(
        &config.alloc_scopes,
        "per-sample scope",
        Pass::Alloc,
        sources,
        out,
    );
    for f in sources {
        let scopes: Vec<&str> = config
            .alloc_scopes
            .iter()
            .filter(|(file, _)| file == &f.rel)
            .map(|(_, s)| s.as_str())
            .collect();
        if scopes.is_empty() {
            continue;
        }
        let m = &f.model;
        for (i, t) in m.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident || m.in_test[i] || m.in_attr[i] {
                continue;
            }
            let Some(enc) = m.enclosing_fn[i].as_deref() else {
                continue;
            };
            if !scopes.contains(&enc) {
                continue;
            }
            let next = next_code_token(m, i);
            let name = t.text.as_str();
            let offence = if ALLOC_CALLS.contains(&name) && next == Some('(') {
                Some(format!(
                    "`{name}()` allocates in registered per-sample scope `{enc}`"
                ))
            } else if (name == "format" || name == "vec") && next == Some('!') {
                Some(format!(
                    "`{name}!` allocates in registered per-sample scope `{enc}`"
                ))
            } else if name == "Box" && is_path_call(m, i, "new") {
                Some(format!(
                    "`Box::new` allocates in registered per-sample scope `{enc}`"
                ))
            } else {
                None
            };
            if let Some(msg) = offence {
                if !m.allowed("alloc", t.line) {
                    out.push(Finding::new(Pass::Alloc, &f.rel, t.line, msg));
                }
            }
        }
    }
}

/// Does `Ident :: method (` follow token `i` (e.g. `Box::new(…)`)?
fn is_path_call(m: &FileModel, i: usize, method: &str) -> bool {
    let Some(c1) = next_code_idx(m, i) else {
        return false;
    };
    let Some(c2) = next_code_idx(m, c1) else {
        return false;
    };
    let Some(name) = next_code_idx(m, c2) else {
        return false;
    };
    m.tokens[c1].kind == TokKind::Punct(':')
        && m.tokens[c2].kind == TokKind::Punct(':')
        && m.tokens[name].kind == TokKind::Ident
        && m.tokens[name].text == method
        && next_code_token(m, name) == Some('(')
}

/// Codec entry points a worker must not call under a lock: holding a
/// shard lock across (de)serialization stalls every peer on the shard.
const CODEC_CALLS: [&str; 8] = [
    "encode",
    "decode",
    "snapshot",
    "restore",
    "snapshot_lane",
    "restore_lane",
    "seal",
    "open",
];

/// Pass 6: shard-worker blocking discipline. In worker files, fn bodies
/// may not call bounded-channel `send` (only registered unbounded
/// receivers such as `events`), may not call blocking `recv`
/// (`try_recv`/`recv_timeout`/`recv_deadline` are fine — they are
/// different identifiers), and may take locks only as single-statement
/// temporaries that do not span a snapshot-codec call.
fn blocking_discipline(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    const LOCK_CALLS: [&str; 2] = ["lock", "lock_alloc"];
    for f in sources {
        if !config.worker_files.iter().any(|p| p == &f.rel) {
            continue;
        }
        let m = &f.model;
        for (i, t) in m.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident || m.in_test[i] || m.in_attr[i] {
                continue;
            }
            if m.enclosing_fn[i].is_none() {
                continue;
            }
            if next_code_token(m, i) != Some('(') {
                continue;
            }
            match t.text.as_str() {
                "send" => {
                    let recv = receiver_ident(m, i);
                    let unbounded = recv
                        .is_some_and(|r| config.unbounded_send_receivers.iter().any(|u| u == r));
                    if !unbounded {
                        let who = recv.unwrap_or("<unknown>");
                        out.push(Finding::new(
                            Pass::Blocking,
                            &f.rel,
                            t.line,
                            format!(
                                "`{who}.send()` from worker scope; only registered unbounded \
                                 channels may be sent without backpressure risk (use `try_send`)"
                            ),
                        ));
                    }
                }
                "recv" => {
                    out.push(Finding::new(
                        Pass::Blocking,
                        &f.rel,
                        t.line,
                        "blocking `recv()` in worker scope; use `try_recv` or `recv_timeout`"
                            .to_string(),
                    ));
                }
                lock if LOCK_CALLS.contains(&lock) => {
                    if statement_has_let_before(m, i) {
                        out.push(Finding::new(
                            Pass::Blocking,
                            &f.rel,
                            t.line,
                            format!(
                                "`{lock}()` guard bound by `let` in worker scope; hold locks \
                                 only as single-statement temporaries"
                            ),
                        ));
                    }
                    if let Some(codec) = codec_call_in_statement_after(m, i) {
                        out.push(Finding::new(
                            Pass::Blocking,
                            &f.rel,
                            t.line,
                            format!("`{lock}()` held across snapshot-codec call `{codec}()`"),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

/// The identifier before `.` before token `i` (the method receiver), if
/// the call is a plain `recv.method(…)` form.
fn receiver_ident(m: &FileModel, i: usize) -> Option<&str> {
    let mut j = i;
    let mut dot = false;
    while j > 0 {
        j -= 1;
        let t = &m.tokens[j];
        if t.is_comment() {
            continue;
        }
        if !dot {
            if t.kind == TokKind::Punct('.') {
                dot = true;
                continue;
            }
            return None;
        }
        return match t.kind {
            TokKind::Ident => Some(&t.text),
            _ => None,
        };
    }
    None
}

/// Does a `let` open the statement containing token `i`?
fn statement_has_let_before(m: &FileModel, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &m.tokens[j];
        match t.kind {
            TokKind::Punct(';' | '{' | '}') => return false,
            TokKind::Ident if t.text == "let" => return true,
            _ => {}
        }
    }
    false
}

/// The first snapshot-codec call between token `i` and the end of its
/// statement (`;` or a block brace), if any.
fn codec_call_in_statement_after(m: &FileModel, i: usize) -> Option<&str> {
    for j in i + 1..m.tokens.len() {
        let t = &m.tokens[j];
        match t.kind {
            TokKind::Punct(';' | '{' | '}') => return None,
            TokKind::Ident
                if CODEC_CALLS.contains(&t.text.as_str()) && next_code_token(m, j) == Some('(') =>
            {
                return Some(&t.text);
            }
            _ => {}
        }
    }
    None
}

/// Pass 7: truncating `as` casts on hot-path files carry an adjacent
/// `// WIDTH:` justification (trailing on the cast's line, on the line
/// above, or via an `allow(width)` region). Casts to sub-64-bit integer
/// types always truncate lexically; casts to 64-bit types are flagged
/// only when the statement mentions `i128`/`u128` (the chained-narrowing
/// case type inference hides). Widths are judged for the 64-bit targets
/// this workspace supports.
fn cast_audit(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    const NARROW: [&str; 6] = ["i8", "u8", "i16", "u16", "i32", "u32"];
    const WIDE: [&str; 4] = ["i64", "u64", "isize", "usize"];
    for f in sources {
        if !config.is_hot(&f.rel) {
            continue;
        }
        let m = &f.model;
        for (i, t) in m.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident || t.text != "as" || m.in_test[i] || m.in_attr[i] {
                continue;
            }
            let Some(j) = next_code_idx(m, i) else {
                continue;
            };
            let ty = &m.tokens[j];
            if ty.kind != TokKind::Ident {
                continue;
            }
            let narrow = NARROW.contains(&ty.text.as_str());
            let chained = WIDE.contains(&ty.text.as_str()) && statement_mentions_128(m, i);
            if !(narrow || chained) {
                continue;
            }
            if m.allowed("width", t.line)
                || has_comment_above(m, i, "WIDTH:")
                || has_trailing_comment(m, j, "WIDTH:")
            {
                continue;
            }
            out.push(Finding::new(
                Pass::Cast,
                &f.rel,
                t.line,
                format!(
                    "truncating `as {}` cast without an adjacent `// WIDTH:` justification",
                    ty.text
                ),
            ));
        }
    }
}

/// Does the statement containing token `i` mention a 128-bit integer
/// type or literal suffix before `i`?
fn statement_mentions_128(m: &FileModel, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &m.tokens[j];
        match t.kind {
            TokKind::Punct(';' | '{' | '}') => return false,
            TokKind::Ident if t.text == "i128" || t.text == "u128" => return true,
            TokKind::Number if t.text.ends_with("i128") || t.text.ends_with("u128") => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// One contiguous non-test fn body in a codec file, with its linearized
/// codec operations.
struct CodecFn {
    name: String,
    line: u32,
    /// Normalized `(op, line)` sequence: `put_x`/`take_x` → `x`,
    /// `take_len` → `usize`, `_iter` variants folded, nested
    /// `encode(`/`decode(` calls → one `nested encode/decode` step.
    ops: Vec<(String, u32)>,
    writes: bool,
    reads: bool,
    mentions_version: bool,
}

/// Pass 8: snapshot schema symmetry. In each registered codec file, every
/// writer fn (calls `put_*` or a nested `encode`) is paired, in source
/// order, with the reader fn (calls `take_*` or a nested `decode`) at the
/// same position, and their linearized call sequences must match step for
/// step — write order, field count, and nesting. `seal`/`open` must both
/// reference the `VERSION` constant. Convention the linearization relies
/// on: encode/decode halves alternate in the file, and `match` arms
/// appear in the same order on both sides.
fn schema_drift(config: &CheckConfig, sources: &[SourceFile], out: &mut Vec<Finding>) {
    for f in sources {
        if !config.codec_files.iter().any(|p| p == &f.rel) {
            continue;
        }
        let m = &f.model;
        let mut fns: Vec<CodecFn> = Vec::new();
        let mut current: Option<String> = None;
        for (i, t) in m.tokens.iter().enumerate() {
            let Some(name) = m.enclosing_fn[i].as_deref().filter(|_| !m.in_test[i]) else {
                current = None;
                continue;
            };
            if current.as_deref() != Some(name) {
                fns.push(CodecFn {
                    name: name.to_string(),
                    line: t.line,
                    ops: Vec::new(),
                    writes: false,
                    reads: false,
                    mentions_version: false,
                });
                current = Some(name.to_string());
            }
            if t.kind != TokKind::Ident || m.in_attr[i] {
                continue;
            }
            let Some(fi) = fns.last_mut() else {
                continue;
            };
            if t.text == "VERSION" {
                fi.mentions_version = true;
            }
            if next_code_token(m, i) != Some('(') {
                continue;
            }
            // `put_*`/`take_*` count as codec steps only as free-fn/path
            // calls or methods on a conventional codec binding — so an
            // ordinary method that merely starts with `take_` (e.g.
            // `state.take_result()`, `tails[lane].take_result()`) is not
            // mistaken for a field read.
            let codec_recv = match prev_code_idx(m, i) {
                Some(p) if m.tokens[p].kind == TokKind::Punct('.') => matches!(
                    receiver_ident(m, i),
                    Some("w" | "r" | "writer" | "reader" | "self")
                ),
                _ => true, // free fn or `Writer::put_x(…)` path call
            };
            if let Some(field) = t.text.strip_prefix("put_").filter(|_| codec_recv) {
                fi.writes = true;
                fi.ops.push((normalize_field(field), t.line));
            } else if let Some(field) = t.text.strip_prefix("take_").filter(|_| codec_recv) {
                fi.reads = true;
                fi.ops.push((normalize_field(field), t.line));
            } else if t.text == "encode" {
                fi.writes = true;
                fi.ops.push(("nested encode/decode".to_string(), t.line));
            } else if t.text == "decode" {
                fi.reads = true;
                fi.ops.push(("nested encode/decode".to_string(), t.line));
            }
        }

        for fi in &fns {
            if (fi.name == "seal" || fi.name == "open") && !fi.mentions_version {
                out.push(Finding::new(
                    Pass::Schema,
                    &f.rel,
                    fi.line,
                    format!(
                        "`{}` does not reference the snapshot `VERSION` constant",
                        fi.name
                    ),
                ));
            }
        }

        // Vocabulary fns (`put_*`/`take_*` definitions) and fns that both
        // write and read (round-trip helpers) are not codec halves.
        let half = |fi: &&CodecFn| {
            !fi.name.starts_with("put_") && !fi.name.starts_with("take_") && !fi.ops.is_empty()
        };
        let writers: Vec<&CodecFn> = fns
            .iter()
            .filter(half)
            .filter(|fi| fi.writes && !fi.reads)
            .collect();
        let readers: Vec<&CodecFn> = fns
            .iter()
            .filter(half)
            .filter(|fi| fi.reads && !fi.writes)
            .collect();
        if writers.len() != readers.len() {
            let list = |v: &[&CodecFn]| {
                v.iter()
                    .map(|fi| fi.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push(Finding::new(
                Pass::Schema,
                &f.rel,
                0,
                format!(
                    "codec file has {} writer fn(s) [{}] but {} reader fn(s) [{}]; \
                     every encode half needs its decode half",
                    writers.len(),
                    list(&writers),
                    readers.len(),
                    list(&readers)
                ),
            ));
            continue;
        }
        for (w, r) in writers.iter().zip(&readers) {
            compare_halves(w, r, &f.rel, out);
        }
    }
}

/// `put_len`/`take_len` move a `usize`; `_iter` writers emit the same
/// bytes as their slice counterparts.
fn normalize_field(field: &str) -> String {
    let base = field.strip_suffix("_iter").unwrap_or(field);
    if base == "len" {
        "usize".to_string()
    } else {
        base.to_string()
    }
}

/// Reports the first divergence between one writer/reader pair.
fn compare_halves(w: &CodecFn, r: &CodecFn, rel: &str, out: &mut Vec<Finding>) {
    let n = w.ops.len().min(r.ops.len());
    for k in 0..n {
        if w.ops[k].0 != r.ops[k].0 {
            out.push(Finding::new(
                Pass::Schema,
                rel,
                r.ops[k].1,
                format!(
                    "schema drift between `{}` and `{}`: step {} writes `{}` but reads `{}`",
                    w.name,
                    r.name,
                    k + 1,
                    w.ops[k].0,
                    r.ops[k].0
                ),
            ));
            return;
        }
    }
    if w.ops.len() != r.ops.len() {
        let (line, message) = if w.ops.len() > r.ops.len() {
            (
                w.ops[n].1,
                format!(
                    "`{}` writes {} step(s) but `{}` reads only {}",
                    w.name,
                    w.ops.len(),
                    r.name,
                    r.ops.len()
                ),
            )
        } else {
            (
                r.ops[n].1,
                format!(
                    "`{}` reads {} step(s) but `{}` writes only {}",
                    r.name,
                    r.ops.len(),
                    w.name,
                    w.ops.len()
                ),
            )
        };
        out.push(Finding::new(Pass::Schema, rel, line, message));
    }
}
