//! A hand-rolled Rust surface lexer plus the light structural analysis the
//! invariant passes need.
//!
//! This is *not* a parser: it tokenises well enough to answer "is this
//! `unsafe` an identifier in code, or three words inside a raw string?"
//! with zero false positives on the constructs that trip naive greps:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string literals with escapes, raw strings (`r"…"`, `r#"…"#`, any
//!   hash depth), byte/C-string variants (`b"…"`, `br#"…"#`, `c"…"`,
//!   `cr#"…"#`);
//! * char literals vs lifetimes (`'a'` is a char, `'a` is a lifetime) and
//!   byte chars (`b'x'`);
//! * raw identifiers (`r#type`);
//! * numeric literals, including float forms (`1.0`, `2e5`, `1f64`) while
//!   leaving range expressions (`0..10`) and tuple/method access (`x.0`,
//!   `1.max(2)`) integral.
//!
//! On top of the token stream, [`FileModel::build`] computes per-token
//! context by brace matching: whether a token sits inside a
//! `#[cfg(test)]`-gated item body, inside an attribute, and which named
//! `fn` body encloses it. It also records `#[target_feature]` function
//! definitions and `// xanalyze: begin-allow(<pass>)` comment regions.

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, prefix stripped).
    Ident,
    /// Numeric literal (integer or float; the text disambiguates).
    Number,
    /// Lifetime such as `'a` or `'static`.
    Lifetime,
    /// String, raw-string, byte-string, or C-string literal (full text).
    Str,
    /// Char or byte-char literal.
    Char,
    /// A comment; `doc` is true for `///` / `//!` / `/**` / `/*!` forms.
    Comment {
        /// `/* … */` rather than `// …`.
        block: bool,
        /// Documentation comment.
        doc: bool,
    },
    /// Any other single character (punctuation, braces, …).
    Punct(char),
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What was lexed.
    pub kind: TokKind,
    /// The raw text (for comments and strings: the full literal).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Token {
    /// True for comment tokens.
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::Comment { .. })
    }

    /// The 1-based line of the token's last character (comments and
    /// strings can span lines).
    #[must_use]
    pub fn end_line(&self) -> u32 {
        self.line + self.text.bytes().filter(|&b| b == b'\n').count() as u32
    }
}

/// Lexes `src` into tokens. Never fails: unterminated literals swallow the
/// rest of the file, which is the most conservative behaviour for a
/// checker (nothing after them is mistaken for code).
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line, String::new()),
                '\'' => self.char_or_lifetime(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ if c == '_' || c.is_alphabetic() => self.ident_or_prefixed(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        // `////…` dividers count as plain comments, like rustdoc treats them.
        let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
        self.push(TokKind::Comment { block: false, doc }, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        let doc = (text.starts_with("/**") && text != "/**/" && !text.starts_with("/***"))
            || text.starts_with("/*!");
        self.push(TokKind::Comment { block: true, doc }, text, line);
    }

    /// Consumes a `"…"` literal; `text` already holds any prefix (`b`, `c`).
    fn string(&mut self, line: u32, mut text: String) {
        text.push('"');
        self.bump();
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// Consumes `r##"…"##` with `hashes` opening hashes already seen;
    /// `text` holds the prefix (`r`, `br`, `cr`) plus those hashes.
    fn raw_string(&mut self, line: u32, mut text: String, hashes: usize) {
        text.push('"');
        self.bump();
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '"' {
                let mut n = 0;
                while n < hashes && self.peek(n) == Some('#') {
                    n += 1;
                }
                if n == hashes {
                    for _ in 0..hashes {
                        text.push('#');
                        self.bump();
                    }
                    break;
                }
            }
        }
        self.push(TokKind::Str, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'` then ident-start: lifetime unless the ident run is one
        // character long and immediately closed by `'` (a char literal).
        if let Some(c1) = self.peek(1) {
            if c1 == '_' || c1.is_alphabetic() {
                let mut n = 2;
                while self
                    .peek(n)
                    .is_some_and(|c| c == '_' || c.is_alphanumeric())
                {
                    n += 1;
                }
                if self.peek(n) != Some('\'') {
                    let mut text = String::new();
                    for _ in 0..n {
                        text.push(self.bump().unwrap_or('\0'));
                    }
                    self.push(TokKind::Lifetime, text, line);
                    return;
                }
            }
        }
        // Char literal: `'x'`, `'\''`, `'\u{1F600}'`, …
        let mut text = String::new();
        text.push(self.bump().unwrap_or('\0'));
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokKind::Char, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the literal; `0..10` and `1.max(2)` stop it.
                text.push(c);
                self.bump();
            } else if (c == '+' || c == '-')
                && matches!(text.chars().last(), Some('e' | 'E'))
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                // Exponent sign: `1e-3`.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Number, text, line);
    }

    fn ident_or_prefixed(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Literal prefixes: the ident run stops right before `"`, `#`, `'`.
        match (text.as_str(), self.peek(0)) {
            ("r" | "br" | "cr", Some('"')) => self.raw_string(line, text, 0),
            ("b" | "c", Some('"')) => self.string(line, text),
            ("r" | "br" | "cr", Some('#')) => {
                let mut hashes = 0;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some('"') {
                    let mut t = text;
                    for _ in 0..hashes {
                        t.push('#');
                        self.bump();
                    }
                    self.raw_string(line, t, hashes);
                } else if text == "r" && hashes == 1 {
                    // Raw identifier `r#type`: emit the bare name.
                    self.bump();
                    let mut name = String::new();
                    while let Some(c) = self.peek(0) {
                        if c == '_' || c.is_alphanumeric() {
                            name.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokKind::Ident, name, line);
                } else {
                    self.push(TokKind::Ident, text, line);
                }
            }
            ("b", Some('\'')) => {
                // Byte char `b'x'`: reuse the char path (never a lifetime).
                let mut t = text;
                t.push('\'');
                self.bump();
                while let Some(c) = self.bump() {
                    t.push(c);
                    match c {
                        '\\' => {
                            if let Some(esc) = self.bump() {
                                t.push(esc);
                            }
                        }
                        '\'' => break,
                        _ => {}
                    }
                }
                self.push(TokKind::Char, t, line);
            }
            _ => self.push(TokKind::Ident, text, line),
        }
    }
}

/// A float-typed numeric literal: has a fraction, an exponent, or an
/// explicit `f32`/`f64` suffix. Hex/octal/binary literals are never
/// floats (`0xf64` is an integer).
#[must_use]
pub fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x")
        || text.starts_with("0X")
        || text.starts_with("0b")
        || text.starts_with("0o")
    {
        return false;
    }
    if text.contains('.') || text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    // An exponent only makes a float when everything before the `e` is
    // numeric and a (possibly signed) digit follows — `1e5` yes,
    // `0usize` no.
    text.char_indices().any(|(i, c)| {
        matches!(c, 'e' | 'E')
            && i > 0
            && text[..i].chars().all(|d| d.is_ascii_digit() || d == '_')
            && text[i + 1..]
                .trim_start_matches(['+', '-'])
                .chars()
                .next()
                .is_some_and(|d| d.is_ascii_digit())
    })
}

/// A `// xanalyze: begin-allow(<pass>) … end-allow(<pass>)` region.
#[derive(Debug, Clone)]
pub struct AllowRegion {
    /// The pass name inside the parentheses (e.g. `float`).
    pub pass: String,
    /// First line covered (the `begin-allow` marker line).
    pub start_line: u32,
    /// Last line covered (the `end-allow` marker line), or `u32::MAX` for
    /// an unterminated region (reported as a finding by the driver).
    pub end_line: u32,
    /// Whether the begin marker carried a non-empty justification after
    /// the closing parenthesis.
    pub has_reason: bool,
}

/// A `#[target_feature]` function definition.
#[derive(Debug, Clone)]
pub struct TargetFeatureFn {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
}

/// Marker-comment problems found while building the model (dangling
/// `end-allow`, unterminated `begin-allow`).
#[derive(Debug, Clone)]
pub struct MarkerError {
    /// 1-based line of the offending marker.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Tokens plus the per-token structural context the passes consume.
#[derive(Debug)]
pub struct FileModel {
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Per token: inside a `#[cfg(test)]`-gated item body.
    pub in_test: Vec<bool>,
    /// Per token: part of an attribute (`#[…]` / `#![…]`).
    pub in_attr: Vec<bool>,
    /// Per token: name of the innermost enclosing `fn`, if any.
    pub enclosing_fn: Vec<Option<String>>,
    /// `xanalyze` allow regions declared in comments.
    pub allow_regions: Vec<AllowRegion>,
    /// `#[target_feature]` function definitions (token index of the name).
    pub target_feature_fns: Vec<(TargetFeatureFn, usize)>,
    /// Malformed allow markers.
    pub marker_errors: Vec<MarkerError>,
}

impl FileModel {
    /// Lexes `src` and computes the structural context.
    #[must_use]
    pub fn build(src: &str) -> Self {
        let tokens = lex(src);
        let n = tokens.len();
        let mut in_test = vec![false; n];
        let mut in_attr = vec![false; n];
        let mut enclosing_fn: Vec<Option<String>> = vec![None; n];

        // Brace-matched scopes. Each open brace records whether it started
        // a `#[cfg(test)]` item body and/or a named fn body.
        struct Scope {
            test: bool,
            fn_name: Option<String>,
        }
        let mut scopes: Vec<Scope> = Vec::new();
        // Set once `#[cfg(test)]` is seen, cleared by `;` (bodyless item)
        // or consumed by the next `{`.
        let mut pending_test = false;
        // Set by `#[target_feature(...)]`, consumed by the next `fn`.
        let mut pending_target_feature = false;
        // Set when `fn` is seen; the next ident is the function's name.
        let mut awaiting_fn_name = false;
        // The most recent fn name, consumed by its body's `{` (cleared by
        // `;` for bodyless trait methods / declarations).
        let mut pending_fn: Option<String> = None;
        // Open `(`/`[` outside attributes: a `;` nested in them (an array
        // type `[i64; W]` in a signature) does not end an item.
        let mut nesting = 0usize;

        let mut target_feature_fns = Vec::new();

        let mut i = 0;
        while i < n {
            let test_now = scopes.iter().any(|s| s.test);
            in_test[i] = test_now;
            enclosing_fn[i] = scopes.iter().rev().find_map(|s| s.fn_name.clone());

            match tokens[i].kind {
                TokKind::Punct('#') => {
                    // Attribute: `#[…]` or `#![…]`, brackets matched.
                    let mut j = i + 1;
                    if j < n && tokens[j].kind == TokKind::Punct('!') {
                        j += 1;
                    }
                    if j < n && tokens[j].kind == TokKind::Punct('[') {
                        let mut depth = 0usize;
                        let mut idents: Vec<&str> = Vec::new();
                        let mut k = j;
                        while k < n {
                            match tokens[k].kind {
                                TokKind::Punct('[') => depth += 1,
                                TokKind::Punct(']') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                TokKind::Ident => idents.push(&tokens[k].text),
                                _ => {}
                            }
                            k += 1;
                        }
                        let end = k.min(n - 1);
                        let fn_ctx = enclosing_fn[i].clone();
                        for t in i..=end {
                            in_attr[t] = true;
                            in_test[t] = test_now;
                            enclosing_fn[t] = fn_ctx.clone();
                        }
                        if idents.first() == Some(&"cfg") && idents.contains(&"test") {
                            pending_test = true;
                        }
                        if idents.contains(&"target_feature") {
                            pending_target_feature = true;
                        }
                        i = end + 1;
                        continue;
                    }
                }
                TokKind::Ident => {
                    let text = tokens[i].text.as_str();
                    if awaiting_fn_name {
                        pending_fn = Some(text.to_string());
                        awaiting_fn_name = false;
                        if pending_target_feature {
                            target_feature_fns.push((
                                TargetFeatureFn {
                                    name: text.to_string(),
                                    line: tokens[i].line,
                                },
                                i,
                            ));
                            pending_target_feature = false;
                        }
                    } else if text == "fn" {
                        awaiting_fn_name = true;
                    }
                }
                TokKind::Punct('{') => {
                    scopes.push(Scope {
                        test: pending_test,
                        fn_name: pending_fn.take(),
                    });
                    pending_test = false;
                }
                TokKind::Punct('}') => {
                    scopes.pop();
                }
                TokKind::Punct('(' | '[') => nesting += 1,
                TokKind::Punct(')' | ']') => nesting = nesting.saturating_sub(1),
                TokKind::Punct(';') if nesting == 0 => {
                    // An item ended without a body: `#[cfg(test)] use …;`,
                    // `fn f();`. Only clear outside any expression — a `;`
                    // inside a body belongs to a statement, but pendings
                    // from the item level were consumed by the body brace
                    // already, so clearing is always safe here.
                    pending_test = false;
                    pending_fn = None;
                }
                _ => {}
            }
            i += 1;
        }

        let (allow_regions, marker_errors) = collect_allow_regions(&tokens);

        Self {
            tokens,
            in_test,
            in_attr,
            enclosing_fn,
            allow_regions,
            target_feature_fns,
            marker_errors,
        }
    }

    /// True if `line` falls inside an allow region for `pass`.
    #[must_use]
    pub fn allowed(&self, pass: &str, line: u32) -> bool {
        self.allow_regions
            .iter()
            .any(|r| r.pass == pass && r.start_line <= line && line <= r.end_line)
    }
}

/// Scans comment tokens for `xanalyze: begin-allow(p)` / `end-allow(p)`
/// markers and pairs them into regions.
fn collect_allow_regions(tokens: &[Token]) -> (Vec<AllowRegion>, Vec<MarkerError>) {
    let mut open: Vec<AllowRegion> = Vec::new();
    let mut done: Vec<AllowRegion> = Vec::new();
    let mut errors: Vec<MarkerError> = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        if let Some((pass, rest)) = marker(&t.text, "begin-allow(") {
            open.push(AllowRegion {
                pass,
                start_line: t.line,
                end_line: u32::MAX,
                has_reason: !rest.trim_matches(['-', '—', ':', ' ']).trim().is_empty(),
            });
        } else if let Some((pass, _)) = marker(&t.text, "end-allow(") {
            match open.iter().rposition(|r| r.pass == pass) {
                Some(idx) => {
                    let mut r = open.remove(idx);
                    r.end_line = t.end_line();
                    done.push(r);
                }
                None => errors.push(MarkerError {
                    line: t.line,
                    message: format!("end-allow({pass}) without a matching begin-allow"),
                }),
            }
        }
    }
    for r in open {
        errors.push(MarkerError {
            line: r.start_line,
            message: format!("begin-allow({}) never closed by end-allow", r.pass),
        });
        done.push(r); // Still honoured to EOF so one error, not a cascade.
    }
    (done, errors)
}

/// Extracts `(pass, trailing-text)` from a marker comment. Markers must
/// open the comment (`// xanalyze: begin-allow(float) — why`): prose that
/// merely *mentions* the marker syntax mid-sentence is not a marker.
fn marker(comment: &str, kind: &str) -> Option<(String, String)> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches(['!', '*'])
        .trim_start();
    let rest = body.strip_prefix("xanalyze:")?.trim_start();
    let body = rest.strip_prefix(kind)?;
    let close = body.find(')')?;
    Some((
        body[..close].trim().to_string(),
        body[close + 1..].to_string(),
    ))
}
