//! The `dead-pub` rule: public API that nothing outside its crate
//! names.
//!
//! A *subject* is a bare-`pub` `fn` (free function or inherent method)
//! or `const` in the non-test library source of a library crate:
//! `crates/<d>/src/**`, minus each crate's `src/bin/` and minus the
//! tool crates `crates/lint` and `crates/bench`. A subject is a finding
//! when its name appears nowhere outside that crate's library source:
//!
//! * not as an identifier in any other file the rule reads — other
//!   crates, the crate's own `src/bin/`, `tests/` and `benches/` (each
//!   builds as a crate of its own), the facade `src/`, `examples/`, the
//!   root `tests/` and `oisabench/{src,tests}` — test code included;
//! * not in any doc comment but the subject's own: doctests compile as
//!   outside crates, and an intra-doc link to a narrowed item fails
//!   `cargo doc -D warnings`.
//!
//! Matching is by name alone, so one use of a name keeps every subject
//! of that name: the rule can miss a dead item but never flags a live
//! one. Types, traits, fields, statics and `pub use` are out of scope;
//! without type resolution the rule cannot tell when a type appears in
//! a public signature, and narrowing such a type breaks the build.

use std::collections::{HashMap, HashSet};

use crate::graph::crate_of;
use crate::lexer::{Token, TokenKind};
use crate::parser::{self, Item, ItemKind};
use crate::rules::{finding, lib_scope, Finding, SourceFile, RULE_DEAD_PUB};

/// Crates that are tools, not libraries: their items are never
/// subjects.
const TOOL_CRATES: &[&str] = &["crates/lint/", "crates/bench/"];

/// Keywords that may sit between an item's doc comment and its `fn` /
/// `const` keyword.
const MODIFIERS: &[&str] = &["pub", "const", "unsafe", "async", "extern", "default"];

/// One public item under check, with the finding it becomes when
/// nothing outside its crate names it.
struct Subject {
    name: String,
    krate: String,
    finding: Finding,
}

/// Runs the rule over `files`: every walked file plus the
/// reference-only ones. Subjects come from library paths; every file
/// contributes names.
#[must_use]
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut subjects = Vec::new();
    // (file, comment token) -> the name of the subject it documents.
    let mut own_docs: HashMap<(usize, usize), String> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        if subject_file(&file.path) {
            let items = parser::parse_items(&file.tokens);
            collect_subjects(fi, file, &items, None, &mut subjects, &mut own_docs);
        }
    }

    // name -> home crate of each file naming it; `None` for a file
    // outside every library's source, and for a doc mention.
    let homes: Vec<Option<String>> = files.iter().map(|f| home(&f.path)).collect();
    let mut uses: HashMap<&str, HashSet<Option<&str>>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (ti, t) in file.tokens.iter().enumerate() {
            match t.kind {
                TokenKind::Ident => {
                    let name = t.text.strip_prefix("r#").unwrap_or(&t.text);
                    uses.entry(name).or_default().insert(homes[fi].as_deref());
                }
                TokenKind::Comment if is_doc(&t.text) => {
                    let own = own_docs.get(&(fi, ti)).map(String::as_str);
                    for word in doc_words(&t.text).filter(|w| Some(*w) != own) {
                        uses.entry(word).or_default().insert(None);
                    }
                }
                _ => {}
            }
        }
    }

    subjects
        .into_iter()
        .filter(|s| {
            let outside = |h: &Option<&str>| *h != Some(s.krate.as_str());
            !uses
                .get(s.name.as_str())
                .is_some_and(|h| h.iter().any(outside))
        })
        .map(|s| s.finding)
        .collect()
}

/// True for a library crate's non-test, non-binary source file.
fn subject_file(path: &str) -> bool {
    path.starts_with("crates/")
        && lib_scope(path)
        && !TOOL_CRATES.iter().any(|t| path.starts_with(t))
}

/// The library crate whose source `path` is, or `None` for a file that
/// builds as a crate of its own (bins, tests, benches, examples,
/// oisabench).
fn home(path: &str) -> Option<String> {
    lib_scope(path).then(|| crate_of(path))
}

fn collect_subjects(
    fi: usize,
    file: &SourceFile,
    items: &[Item],
    self_type: Option<&str>,
    out: &mut Vec<Subject>,
    own_docs: &mut HashMap<(usize, usize), String>,
) {
    for item in items {
        let keyword = match item.kind {
            ItemKind::Fn => "fn",
            ItemKind::Const => "const",
            ItemKind::Impl => {
                let ty = item.self_type.as_deref();
                collect_subjects(fi, file, &item.children, ty, out, own_docs);
                continue;
            }
            ItemKind::Mod | ItemKind::MacroDef => {
                collect_subjects(fi, file, &item.children, None, out, own_docs);
                continue;
            }
            _ => continue,
        };
        if !item.public || file.test_mask.get(item.start).copied().unwrap_or(true) {
            continue;
        }
        for doc in outer_docs(&file.tokens, item.start) {
            own_docs.insert((fi, doc), item.name.clone());
        }
        let qual = self_type.map_or_else(|| item.name.clone(), |t| format!("{t}::{}", item.name));
        let krate = crate_of(&file.path);
        let message = format!(
            "`pub {keyword} {qual}` is named nowhere outside {krate}'s library source; \
             narrow it to `pub(crate)` or private, or delete it"
        );
        out.push(Subject {
            name: item.name.clone(),
            finding: finding(file, RULE_DEAD_PUB, item.line, item.col, message),
            krate,
        });
    }
}

/// Raw indices of the outer doc comments attached to the item whose
/// keyword sits at `start`: walks back over modifiers, visibility,
/// attributes and comments.
fn outer_docs(tokens: &[Token], start: usize) -> Vec<usize> {
    let mut docs = Vec::new();
    let mut i = start;
    while i > 0 {
        i -= 1;
        let t = &tokens[i];
        match t.kind {
            TokenKind::Comment => {
                if is_outer_doc(&t.text) {
                    docs.push(i);
                }
            }
            TokenKind::Ident if MODIFIERS.contains(&t.text.as_str()) => {}
            TokenKind::StrLit => {} // an `extern "C"` ABI
            TokenKind::Punct if t.text == "]" => {
                // An attribute: back to its `[`, then past its `#`.
                let mut depth = 0usize;
                loop {
                    if tokens[i].is(TokenKind::Punct, "]") {
                        depth += 1;
                    } else if tokens[i].is(TokenKind::Punct, "[") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if i == 0 {
                        return docs;
                    }
                    i -= 1;
                }
                if i == 0 || !tokens[i - 1].is(TokenKind::Punct, "#") {
                    break;
                }
                i -= 1;
            }
            _ => break,
        }
    }
    docs
}

/// `///` or `/** */`: documents the item that follows.
fn is_outer_doc(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
}

/// Any doc comment: outer, or inner `//!` / `/*! */`.
fn is_doc(text: &str) -> bool {
    is_outer_doc(text) || text.starts_with("//!") || text.starts_with("/*!")
}

/// The identifier-shaped words of a comment's text.
fn doc_words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| {
            w.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/optics/src/probe.rs";
    const ITEM: &str = "/// Scales a weight.\npub fn scale_weight(x: u32) -> u32 { x }\n";

    fn findings(sources: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src))
            .collect();
        check(&files)
    }

    #[test]
    fn a_name_from_outside_the_library_source_keeps_the_item() {
        for outside in [
            (
                "oisabench/src/fleet.rs",
                "fn f() { probe::scale_weight(1); }",
            ),
            ("tests/program.rs", "fn t() { scale_weight(1); }"),
            (
                "crates/optics/src/bin/x.rs",
                "fn main() { scale_weight(1); }",
            ),
            ("crates/bench/benches/x.rs", "fn b() { scale_weight(1); }"),
            ("crates/core/src/lib.rs", "fn g() { scale_weight(1); }"),
            (
                "crates/optics/src/arm.rs",
                "/// Built on [`crate::probe::scale_weight`].\npub(crate) fn g() {}",
            ),
        ] {
            let got = findings(&[(LIB, ITEM), outside]);
            assert!(got.is_empty(), "named from {}: {got:?}", outside.0);
        }
    }

    #[test]
    fn a_name_from_the_own_crate_or_own_doc_alone_is_a_finding() {
        for own in [
            ("crates/optics/src/arm.rs", "fn g() { scale_weight(1); }"),
            (
                "crates/optics/src/arm.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::scale_weight(1); }\n}",
            ),
            (
                LIB,
                "/// See [`scale_weight`].\n#[must_use]\npub fn scale_weight(x: u32) -> u32 { x }",
            ),
        ] {
            let sources: &[(&str, &str)] = if own.0 == LIB {
                &[own]
            } else {
                &[(LIB, ITEM), own]
            };
            let got = findings(sources);
            assert_eq!(got.len(), 1, "named only from {}: {got:?}", own.0);
            assert_eq!(got[0].rule, RULE_DEAD_PUB);
            assert!(got[0].message.contains("`pub fn scale_weight`"));
        }
    }

    #[test]
    fn subjects_are_bare_pub_fns_and_consts_in_library_code() {
        let src = "pub(crate) fn narrow() {}\nfn private() {}\npub struct S;\n\
                   impl S {\n    pub fn method(&self) {}\n    pub const LIMIT: u8 = 1;\n}\n\
                   #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        let got = findings(&[(LIB, src)]);
        let messages: Vec<&str> = got.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(got.len(), 2, "{messages:?}");
        assert!(messages[0].contains("`pub fn S::method`"));
        assert!(messages[1].contains("`pub const S::LIMIT`"));
        for tool in [
            "crates/lint/src/x.rs",
            "crates/bench/src/x.rs",
            "crates/core/src/bin/w.rs",
        ] {
            assert!(
                findings(&[(tool, "pub fn unused() {}")]).is_empty(),
                "{tool}"
            );
        }
    }

    #[test]
    fn macro_templates_expose_their_methods() {
        let src =
            "macro_rules! quantity {\n    ($name:ident) => {\n        impl $name {\n            \
                   pub fn as_kilo(self) -> f64 { 0.0 }\n        }\n    };\n}\n";
        let got = findings(&[("crates/units/src/quantity.rs", src)]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("`pub fn name::as_kilo`"));
    }
}
