//! The OISA invariant rules: ids, findings, and the per-file rules.
//!
//! Each per-file rule walks the token stream of one [`SourceFile`] and
//! pushes [`Finding`]s — machine-readable `(rule, path, line, col,
//! message)` records. Rules see real tokens (comments, strings and
//! lifetimes are already resolved by [`crate::lexer`]) and skip
//! `#[cfg(test)]` / `#[test]` regions via the file's test mask.
//!
//! The four flow-aware rules (lock-order, panic-reachability,
//! determinism-taint, crate-layering) need the whole workspace at
//! once; they live in [`crate::flow`] but share the [`Finding`] type
//! and the [`ALL_RULES`] catalogue defined here.
//!
//! The rule catalogue (ids, rationale, how to allowlist) lives in
//! `crates/lint/README.md`; keep the two in sync.

use crate::lexer::{self, Token, TokenKind};

/// `unsafe` blocks/fns/impls need a nearby `// SAFETY:` comment (or a
/// `# Safety` doc section).
pub const RULE_UNSAFE: &str = "unsafe-needs-safety";
/// No wall-clock or ambient-entropy calls in deterministic compute
/// paths.
pub const RULE_WALLCLOCK: &str = "deterministic-no-wallclock";
/// No float `==`/`!=` or float text formatting on the wire/merge path;
/// floats cross as `to_bits`/`from_bits`.
pub const RULE_FLOAT_WIRE: &str = "float-bit-exact-wire";
/// Wire message tags must be unique.
pub const RULE_TAG_REGISTRY: &str = "wire-tag-registry";
/// `thread::spawn` only in the scheduler, the backend and serving.
pub const RULE_BARE_SPAWN: &str = "no-bare-spawn";
/// No cycle in the global lock-acquisition-order graph (propagated
/// through the call graph).
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// No call-graph path from a serving/backend entry point to
/// `panic!` / `.unwrap()` / `.expect(` in non-test library code.
pub const RULE_PANIC: &str = "panic-reachability";
/// Wall-clock / entropy values must not flow into wire encoding or
/// `NoiseSource` keys and counters.
pub const RULE_TAINT: &str = "determinism-taint";
/// `use` declarations must respect the crate/module dependency DAG.
pub const RULE_LAYERING: &str = "crate-layering";

/// Every rule id, in reporting order.
pub const ALL_RULES: &[&str] = &[
    RULE_UNSAFE,
    RULE_WALLCLOCK,
    RULE_FLOAT_WIRE,
    RULE_TAG_REGISTRY,
    RULE_BARE_SPAWN,
    RULE_LOCK_ORDER,
    RULE_PANIC,
    RULE_TAINT,
    RULE_LAYERING,
];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit
/// (doc-comment `# Safety` sections on the item count too).
const SAFETY_COMMENT_WINDOW: u32 = 16;

/// Files whose **whole token stream** (non-test) must stay free of
/// wall-clock and ambient-entropy identifiers.
const WALLCLOCK_SCOPE_PREFIXES: &[&str] = &["crates/optics/src/"];
const WALLCLOCK_SCOPE_FILES: &[&str] = &[
    "crates/device/src/noise.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/wire.rs",
];
/// Identifiers that betray a wall-clock or ambient-entropy dependency.
/// Serving, TCP, the supervisor and the bench binaries are *not* in
/// scope — timeouts and latency stats legitimately need clocks there.
const WALLCLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "thread_rng", "from_entropy"];

/// The wire codec and the shard-merge path: floats must travel and
/// compare as bit patterns.
const FLOAT_WIRE_SCOPE: &[&str] = &["crates/core/src/wire.rs", "crates/core/src/backend/mod.rs"];

/// Paths allowed to call `thread::spawn`.
const SPAWN_ALLOWED: &[&str] = &["crates/core/src/scheduler.rs", "crates/core/src/serving.rs"];
const SPAWN_ALLOWED_PREFIXES: &[&str] = &["crates/core/src/backend/"];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

/// One lexed file ready for rule checks.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Parallel to `tokens`: true for tokens inside test-only regions.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Lexes `source` and computes the test mask.
    #[must_use]
    pub fn parse(path: &str, source: &str) -> Self {
        let tokens = lexer::lex(source);
        let test_mask = lexer::test_mask(&tokens);
        Self {
            path: path.to_string(),
            tokens,
            test_mask,
        }
    }

    /// Indices of non-comment tokens — the stream patterns match over.
    pub(crate) fn significant(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| self.tokens[i].kind != TokenKind::Comment)
            .collect()
    }
}

/// Runs every rule over one file.
#[must_use]
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let sig = file.significant();
    let mut out = Vec::new();
    unsafe_needs_safety(file, &sig, &mut out);
    no_wallclock(file, &sig, &mut out);
    float_bit_exact_wire(file, &sig, &mut out);
    wire_tag_registry(file, &sig, &mut out);
    no_bare_spawn(file, &sig, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

pub(crate) fn finding(
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    col: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        path: file.path.clone(),
        line,
        col,
        message,
    }
}

// ---------------------------------------------------------------------
// Rule 1: unsafe-needs-safety
// ---------------------------------------------------------------------

fn unsafe_needs_safety(file: &SourceFile, sig: &[usize], out: &mut Vec<Finding>) {
    let comments: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Comment
                && (t.text.contains("SAFETY:") || t.text.contains("# Safety"))
        })
        .collect();
    for &i in sig {
        let t = &file.tokens[i];
        if file.test_mask[i] || !t.is(TokenKind::Ident, "unsafe") {
            continue;
        }
        let (line, col) = (t.line, t.col);
        let documented = comments
            .iter()
            .any(|c| c.end_line() >= line.saturating_sub(SAFETY_COMMENT_WINDOW) && c.line <= line);
        if !documented {
            out.push(finding(
                file,
                RULE_UNSAFE,
                line,
                col,
                format!(
                    "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section) \
                     within the preceding {SAFETY_COMMENT_WINDOW} lines"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: deterministic-no-wallclock
// ---------------------------------------------------------------------

fn wallclock_scope(path: &str) -> bool {
    WALLCLOCK_SCOPE_FILES.contains(&path)
        || WALLCLOCK_SCOPE_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn no_wallclock(file: &SourceFile, sig: &[usize], out: &mut Vec<Finding>) {
    if !wallclock_scope(&file.path) {
        return;
    }
    for &i in sig {
        let t = &file.tokens[i];
        if file.test_mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if WALLCLOCK_IDENTS.contains(&t.text.as_str()) {
            out.push(finding(
                file,
                RULE_WALLCLOCK,
                t.line,
                t.col,
                format!(
                    "`{}` in a deterministic compute path — results must be a pure \
                     function of (config, seed, counter), never of the clock",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: float-bit-exact-wire
// ---------------------------------------------------------------------

fn float_bit_exact_wire(file: &SourceFile, sig: &[usize], out: &mut Vec<Finding>) {
    if !FLOAT_WIRE_SCOPE.contains(&file.path.as_str()) {
        return;
    }
    for (p, &i) in sig.iter().enumerate() {
        let t = &file.tokens[i];
        if file.test_mask[i] {
            continue;
        }
        if t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=") {
            let float_neighbour = [p.checked_sub(1), Some(p + 1)]
                .into_iter()
                .flatten()
                .filter_map(|q| sig.get(q))
                .any(|&q| file.tokens[q].kind == TokenKind::Float);
            if float_neighbour {
                out.push(finding(
                    file,
                    RULE_FLOAT_WIRE,
                    t.line,
                    t.col,
                    format!(
                        "float `{}` comparison on the wire/merge path — compare \
                         `to_bits()` values instead",
                        t.text
                    ),
                ));
            }
        }
        if t.kind == TokenKind::StrLit && has_float_format_spec(&t.text) {
            out.push(finding(
                file,
                RULE_FLOAT_WIRE,
                t.line,
                t.col,
                "float text-formatting spec in a wire/merge-path string — floats must \
                 cross as `to_bits`/`from_bits`, never as decimal text"
                    .to_string(),
            ));
        }
    }
}

/// True when a format string contains a `{…:…}` spec with a precision
/// (`.`) or exponent (`e`/`E`) component — the float-formatting shapes.
/// `{:#018x}`-style integer specs pass.
fn has_float_format_spec(text: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2; // escaped literal brace
                continue;
            }
            let mut j = i + 1;
            let mut colon = None;
            while j < chars.len() && chars[j] != '}' {
                if chars[j] == ':' && colon.is_none() {
                    colon = Some(j);
                }
                j += 1;
            }
            if let Some(c) = colon {
                let spec: String = chars[c + 1..j.min(chars.len())].iter().collect();
                if spec.contains('.') || spec.contains('e') || spec.contains('E') {
                    return true;
                }
            }
            i = j;
        }
        i += 1;
    }
    false
}

// ---------------------------------------------------------------------
// Rule 4: wire-tag-registry
// ---------------------------------------------------------------------

fn wire_tag_registry(file: &SourceFile, sig: &[usize], out: &mut Vec<Finding>) {
    if !file.path.ends_with("wire.rs") {
        return;
    }
    let tok = |p: usize| sig.get(p).map(|&i| &file.tokens[i]);
    // Tag definitions: `TAG_X : u8 = <int>`.
    let mut defs: Vec<(String, String, u32, u32)> = Vec::new();
    for p in 0..sig.len() {
        let (Some(name), Some(colon), Some(ty), Some(eq), Some(value)) =
            (tok(p), tok(p + 1), tok(p + 2), tok(p + 3), tok(p + 4))
        else {
            continue;
        };
        if name.kind == TokenKind::Ident
            && name.text.starts_with("TAG_")
            && colon.is(TokenKind::Punct, ":")
            && ty.is(TokenKind::Ident, "u8")
            && eq.is(TokenKind::Punct, "=")
            && value.kind == TokenKind::Int
        {
            defs.push((name.text.clone(), value.text.clone(), name.line, name.col));
        }
    }
    for (a, def) in defs.iter().enumerate() {
        if defs[..a].iter().any(|d| d.1 == def.1) {
            out.push(finding(
                file,
                RULE_TAG_REGISTRY,
                def.2,
                def.3,
                format!("message tag `{}` reuses value {}", def.0, def.1),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 5: no-bare-spawn
// ---------------------------------------------------------------------

fn spawn_allowed(path: &str) -> bool {
    SPAWN_ALLOWED.contains(&path) || SPAWN_ALLOWED_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn no_bare_spawn(file: &SourceFile, sig: &[usize], out: &mut Vec<Finding>) {
    if spawn_allowed(&file.path) {
        return;
    }
    for p in 0..sig.len() {
        let i = sig[p];
        if file.test_mask[i] {
            continue;
        }
        let t = &file.tokens[i];
        if t.is(TokenKind::Ident, "thread")
            && sig
                .get(p + 1)
                .is_some_and(|&q| file.tokens[q].is(TokenKind::Punct, "::"))
            && sig
                .get(p + 2)
                .is_some_and(|&q| file.tokens[q].is(TokenKind::Ident, "spawn"))
        {
            out.push(finding(
                file,
                RULE_BARE_SPAWN,
                t.line,
                t.col,
                "`thread::spawn` outside the scheduler/backend/serving layer — route \
                 parallelism through the scheduler so shutdown, panic containment and \
                 determinism stay centralized"
                    .to_string(),
            ));
        }
    }
}

/// Library scope: `src/` trees, excluding binaries and `main.rs`.
/// Shared with the panic-reachability rule in [`crate::flow`].
pub(crate) fn lib_scope(path: &str) -> bool {
    let in_lib =
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"));
    in_lib && !path.contains("/bin/") && !path.ends_with("/main.rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check_file(&SourceFile::parse(path, src))
    }

    #[test]
    fn unsafe_without_safety_comment_fires() {
        let f = run(
            "crates/device/src/x.rs",
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_UNSAFE);
    }

    #[test]
    fn unsafe_with_safety_comment_is_quiet() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller passes a valid pointer.\n    unsafe { *p }\n}";
        assert!(run("crates/device/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_doc_section_counts() {
        let src = "/// # Safety\n/// Caller must …\npub unsafe fn f() {}";
        assert!(run("crates/device/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_never_fires() {
        let src = "// unsafe unsafe unsafe\npub fn f() -> &'static str { \"unsafe\" }";
        assert!(run("crates/device/src/x.rs", src).is_empty());
    }

    #[test]
    fn wallclock_in_scope_fires_and_out_of_scope_is_quiet() {
        let src = "pub fn t() { let _ = std::time::Instant::now(); }";
        let hits = run("crates/optics/src/vom.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_WALLCLOCK);
        assert!(run("crates/core/src/serving.rs", src).is_empty());
    }

    #[test]
    fn float_eq_on_wire_path_fires() {
        let src = "pub fn eq(x: f64) -> bool { x == 1.5 }";
        let hits = run("crates/core/src/backend/mod.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_FLOAT_WIRE);
        assert!(run("crates/nn/src/conv.rs", src).is_empty(), "out of scope");
    }

    #[test]
    fn float_format_spec_fires_but_hex_spec_does_not() {
        let float = r#"pub fn s(x: f64) -> String { format!("{x:.3}") }"#;
        assert_eq!(run("crates/core/src/backend/mod.rs", float).len(), 1);
        let hex = r#"pub fn s(x: u64) -> String { format!("{x:#018x}") }"#;
        assert!(run("crates/core/src/backend/mod.rs", hex).is_empty());
    }

    #[test]
    fn bits_comparison_is_quiet() {
        let src = "pub fn eq(a: f64, b: f64) -> bool { a.to_bits() == b.to_bits() }";
        assert!(run("crates/core/src/wire.rs", src).is_empty());
    }

    #[test]
    fn tag_registry_checks_uniqueness() {
        let dup = "const TAG_A: u8 = 1;\nconst TAG_B: u8 = 1;";
        let hits = run("crates/core/src/wire.rs", dup);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].rule == RULE_TAG_REGISTRY && hits[0].message.contains("reuses"));
        let good = "const TAG_A: u8 = 1;\nconst TAG_B: u8 = 2;";
        assert!(run("crates/core/src/wire.rs", good).is_empty());
    }

    #[test]
    fn spawn_outside_allowed_layer_fires() {
        let src = "pub fn go() { std::thread::spawn(|| {}); }";
        let hits = run("crates/nn/src/train.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_BARE_SPAWN);
        assert!(run("crates/core/src/backend/tcp.rs", src).is_empty());
        assert!(run("crates/core/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn command_spawn_is_not_thread_spawn() {
        let src = "pub fn go() { std::process::Command::new(\"x\").spawn().ok(); }";
        assert!(run("crates/nn/src/train.rs", src).is_empty());
    }

    #[test]
    fn lib_scope_excludes_bins_mains_and_examples() {
        assert!(lib_scope("crates/nn/src/train.rs"));
        assert!(lib_scope("src/lib.rs"));
        assert!(!lib_scope("crates/bench/src/bin/perf_json.rs"));
        assert!(!lib_scope("examples/quickstart.rs"));
        assert!(!lib_scope("crates/lint/src/main.rs"));
    }

    #[test]
    fn findings_carry_columns() {
        let f = run(
            "crates/optics/src/x.rs",
            "pub fn t() {\n    let _ = std::time::Instant::now();\n}",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].col, 24, "column of `Instant`");
    }
}
