//! A lightweight recursive-descent parser over the token stream.
//!
//! [`parse_items`] recovers just enough structure for flow-aware
//! rules: items (`fn`/`impl`/`mod`/`use`/`struct`/`enum`/`const`/…)
//! with token spans and bare-`pub` visibility, bodies as brace trees
//! (children of `impl`, `mod` and `macro_rules!` blocks are parsed
//! recursively), expanded `use` paths, and
//! call-site extraction ([`extract_calls`]) distinguishing free,
//! path-qualified, method and macro calls.
//!
//! Like the lexer, the parser is **total**: malformed input degrades
//! to fewer or truncated items, never a panic — a linter must keep
//! walking the rest of the file. It is also deliberately approximate:
//! it does not build an expression AST, resolve generics, or expand
//! macros. The flow rules in [`crate::flow`] document the
//! false-negative classes this buys.

use crate::lexer::{Token, TokenKind};

/// What kind of item a parsed [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A `fn` (free, impl method, or nested in a `mod`).
    Fn,
    /// An `impl` block; `self_type` names the implementing type.
    Impl,
    /// An inline `mod name { … }`.
    Mod,
    /// An out-of-line `mod name;` declaration.
    ModDecl,
    /// A `use` declaration; `use_paths` holds the expanded paths.
    Use,
    /// A `struct` definition.
    Struct,
    /// An `enum` definition.
    Enum,
    /// A `trait` definition (default method bodies are not descended).
    Trait,
    /// A `const` item (not a `const fn`, which parses as [`Fn`]).
    Const,
    /// A `static` item.
    Static,
    /// A `type` alias.
    TypeAlias,
    /// A `macro_rules!` definition; its expansions parse as children.
    MacroDef,
}

/// One parsed item with its raw-token span.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item kind.
    pub kind: ItemKind,
    /// Item name (`impl` blocks use the self type; `use` items the
    /// first expanded path).
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// 1-based column of the introducing keyword.
    pub col: u32,
    /// Raw token index of the introducing keyword.
    pub start: usize,
    /// Raw token index of the closing `}` / `;` (inclusive).
    pub end: usize,
    /// Raw token indices of the body braces `{ … }`, when the item has
    /// a body (`fn`, inline `mod`, `impl`, `trait`, `macro_rules!`).
    pub body: Option<(usize, usize)>,
    /// Items parsed inside the body (`impl`, inline `mod` and
    /// `macro_rules!` only).
    pub children: Vec<Item>,
    /// For [`ItemKind::Use`]: every expanded path, `::`-joined, with
    /// `as` renames dropped (the original path is what layering cares
    /// about).
    pub use_paths: Vec<String>,
    /// For [`ItemKind::Impl`]: the implementing type's last path
    /// segment (`impl Trait for Type` resolves to `Type`).
    pub self_type: Option<String>,
    /// True when the item is declared bare `pub` — not `pub(crate)`,
    /// `pub(super)` or `pub(in …)`.
    pub public: bool,
}

/// How a call site invokes its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// Bare `name(…)`.
    Free,
    /// Path-qualified `a::b::name(…)`; `path` holds every segment.
    Path,
    /// Method `.name(…)` on some receiver.
    Method,
    /// Macro `name!(…)` / `name![…]` / `name!{…}`.
    Macro,
}

/// One call-like site inside a body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// How the call is written.
    pub kind: CallKind,
    /// Path segments; a [`CallKind::Method`] or [`CallKind::Free`]
    /// call has exactly one.
    pub path: Vec<String>,
    /// 1-based line of the called name.
    pub line: u32,
    /// 1-based column of the called name.
    pub col: u32,
    /// Raw token index of the called name.
    pub at: usize,
    /// Raw token indices of the argument delimiters (inclusive).
    pub args: (usize, usize),
}

impl CallSite {
    /// Last path segment — the called name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.path.last().map_or("", |s| s.as_str())
    }
}

/// Parses the item tree of a whole file's token stream.
#[must_use]
pub fn parse_items(tokens: &[Token]) -> Vec<Item> {
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::Comment)
        .collect();
    let p = Parser { tokens, sig: &sig };
    p.items_in(0, sig.len())
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "match", "return", "loop", "as", "move", "ref", "mut",
    "let", "impl", "where", "unsafe", "dyn", "break", "continue", "await", "fn",
];

struct Parser<'a> {
    tokens: &'a [Token],
    /// Indices of non-comment tokens; all positions below are indices
    /// into this slice unless named `raw`.
    sig: &'a [usize],
}

impl Parser<'_> {
    fn tok(&self, p: usize) -> Option<&Token> {
        self.sig.get(p).map(|&i| &self.tokens[i])
    }

    fn is_punct(&self, p: usize, text: &str) -> bool {
        self.tok(p).is_some_and(|t| t.is(TokenKind::Punct, text))
    }

    fn is_ident(&self, p: usize, text: &str) -> bool {
        self.tok(p).is_some_and(|t| t.is(TokenKind::Ident, text))
    }

    fn ident_text(&self, p: usize) -> Option<&str> {
        self.tok(p)
            .and_then(|t| (t.kind == TokenKind::Ident).then_some(t.text.as_str()))
    }

    /// Sig position of the punct matching `open` at `open_pos`
    /// (depth-aware); clamps to `hi - 1` when unbalanced.
    fn match_pair(&self, open_pos: usize, open: &str, close: &str, hi: usize) -> usize {
        let mut depth = 0usize;
        let mut p = open_pos;
        while p < hi {
            if self.is_punct(p, open) {
                depth += 1;
            } else if self.is_punct(p, close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return p;
                }
            }
            p += 1;
        }
        hi.saturating_sub(1)
    }

    /// Skips a `<…>` generic-argument list starting at `open_pos`,
    /// returning the position just past the closing `>`. `->` arrows
    /// inside (`Fn(A) -> B` bounds) do not close the list.
    fn skip_generics(&self, open_pos: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        let mut p = open_pos;
        while p < hi {
            if self.is_punct(p, "<") {
                depth += 1;
            } else if self.is_punct(p, ">") && !self.is_punct(p.wrapping_sub(1), "-") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return p + 1;
                }
            } else if self.is_punct(p, ";") || self.is_punct(p, "{") {
                return p; // malformed: bail before the body
            }
            p += 1;
        }
        hi
    }

    /// Parses all items in sig range `[lo, hi)`.
    fn items_in(&self, lo: usize, hi: usize) -> Vec<Item> {
        let mut out = Vec::new();
        let mut p = lo;
        // Bare `pub` seen since the last item, through modifiers.
        let mut public = false;
        while p < hi {
            // Attributes `#[…]` / `#![…]`: skip.
            if self.is_punct(p, "#") {
                let open = if self.is_punct(p + 1, "[") {
                    Some(p + 1)
                } else if self.is_punct(p + 1, "!") && self.is_punct(p + 2, "[") {
                    Some(p + 2)
                } else {
                    None
                };
                if let Some(o) = open {
                    p = self.match_pair(o, "[", "]", hi) + 1;
                    continue;
                }
            }
            // Visibility `pub` / `pub(crate)` / `pub(in path)`: note
            // whether it is bare, then skip it.
            if self.is_ident(p, "pub") {
                public = !self.is_punct(p + 1, "(");
                p = if public {
                    p + 1
                } else {
                    self.match_pair(p + 1, "(", ")", hi) + 1
                };
                continue;
            }
            let Some(kw) = self.ident_text(p) else {
                public = false;
                p += 1;
                continue;
            };
            let (mut item, next) = match kw {
                // Modifiers that precede `fn` / `impl` / `trait`.
                "unsafe" | "async" => {
                    p += 1;
                    continue;
                }
                "extern" => {
                    p += 1;
                    if self.tok(p).is_some_and(|t| t.kind == TokenKind::StrLit) {
                        p += 1; // ABI string
                    }
                    continue;
                }
                "const" | "static" if self.is_ident(p + 1, "fn") => {
                    p += 1;
                    continue;
                }
                "fn" => self.parse_fn(p, hi),
                "impl" => self.parse_impl(p, hi),
                "mod" => self.parse_mod(p, hi),
                "use" => self.parse_use(p, hi),
                "struct" | "enum" | "trait" | "type" | "const" | "static" => {
                    self.parse_named(p, kw, hi)
                }
                "macro_rules" => self.parse_macro_def(p, hi),
                _ => {
                    public = false;
                    p += 1;
                    continue;
                }
            };
            item.public = std::mem::take(&mut public);
            out.push(item);
            p = next;
        }
        out
    }

    fn item_at(&self, kind: ItemKind, name: String, start_pos: usize, end_pos: usize) -> Item {
        let t = &self.tokens[self.sig[start_pos]];
        Item {
            kind,
            name,
            line: t.line,
            col: t.col,
            start: self.sig[start_pos],
            end: self.sig[end_pos.min(self.sig.len() - 1)],
            body: None,
            children: Vec::new(),
            use_paths: Vec::new(),
            self_type: None,
            public: false,
        }
    }

    /// `fn name …` at `p`: the body is the first top-level `{` after
    /// the signature; a top-level `;` first means a body-less trait
    /// method declaration.
    fn parse_fn(&self, p: usize, hi: usize) -> (Item, usize) {
        let name = self.ident_text(p + 1).unwrap_or("").to_string();
        let mut q = p + 2;
        let mut depth = 0usize; // parens + brackets in the signature
        while q < hi {
            if self.is_punct(q, "(") || self.is_punct(q, "[") {
                depth += 1;
            } else if self.is_punct(q, ")") || self.is_punct(q, "]") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && self.is_punct(q, ";") {
                let item = self.item_at(ItemKind::Fn, name, p, q);
                return (item, q + 1);
            } else if depth == 0 && self.is_punct(q, "{") {
                let close = self.match_pair(q, "{", "}", hi);
                let mut item = self.item_at(ItemKind::Fn, name, p, close);
                item.body = Some((self.sig[q], self.sig[close.min(self.sig.len() - 1)]));
                return (item, close + 1);
            }
            q += 1;
        }
        (self.item_at(ItemKind::Fn, name, p, hi - 1), hi)
    }

    /// `impl [<…>] Type { … }` or `impl [<…>] Trait for Type { … }`.
    fn parse_impl(&self, p: usize, hi: usize) -> (Item, usize) {
        let mut q = p + 1;
        if self.is_punct(q, "<") {
            q = self.skip_generics(q, hi);
        }
        // Walk the type path(s) up to the body; the self type is the
        // last path ident seen after `for` (or overall when no `for`).
        let mut self_type: Option<String> = None;
        while q < hi && !self.is_punct(q, "{") && !self.is_ident(q, "where") {
            if self.is_ident(q, "for") {
                self_type = None; // restart: the real self type follows
                q += 1;
                continue;
            }
            if self.is_punct(q, "<") {
                q = self.skip_generics(q, hi);
                continue;
            }
            if let Some(name) = self.ident_text(q) {
                if name != "dyn" && name != "crate" && name != "self" && name != "super" {
                    self_type = Some(name.to_string());
                }
            }
            q += 1;
        }
        // Skip a where-clause if present.
        while q < hi && !self.is_punct(q, "{") {
            q += 1;
        }
        if q >= hi {
            let mut item = self.item_at(ItemKind::Impl, String::new(), p, hi - 1);
            item.self_type = self_type;
            return (item, hi);
        }
        let close = self.match_pair(q, "{", "}", hi);
        let name = self_type.clone().unwrap_or_default();
        let mut item = self.item_at(ItemKind::Impl, name, p, close);
        item.self_type = self_type;
        item.body = Some((self.sig[q], self.sig[close.min(self.sig.len() - 1)]));
        item.children = self.items_in(q + 1, close);
        (item, close + 1)
    }

    /// `mod name;` or `mod name { … }` (children parsed recursively).
    fn parse_mod(&self, p: usize, hi: usize) -> (Item, usize) {
        let name = self.ident_text(p + 1).unwrap_or("").to_string();
        if self.is_punct(p + 2, ";") {
            return (self.item_at(ItemKind::ModDecl, name, p, p + 2), p + 3);
        }
        if self.is_punct(p + 2, "{") {
            let close = self.match_pair(p + 2, "{", "}", hi);
            let mut item = self.item_at(ItemKind::Mod, name, p, close);
            item.body = Some((self.sig[p + 2], self.sig[close.min(self.sig.len() - 1)]));
            item.children = self.items_in(p + 3, close);
            return (item, close + 1);
        }
        (self.item_at(ItemKind::ModDecl, name, p, p + 1), p + 2)
    }

    /// `use tree;` — expands groups and drops `as` renames.
    fn parse_use(&self, p: usize, hi: usize) -> (Item, usize) {
        let mut end = p + 1;
        while end < hi && !self.is_punct(end, ";") {
            end += 1;
        }
        let mut paths = Vec::new();
        self.expand_use_tree(p + 1, end, &mut Vec::new(), &mut paths);
        let name = paths.first().cloned().unwrap_or_default();
        let mut item = self.item_at(ItemKind::Use, name, p, end.min(hi - 1));
        item.use_paths = paths;
        (item, end + 1)
    }

    /// Expands one use tree in sig range `[lo, hi)` onto `prefix`.
    fn expand_use_tree(&self, lo: usize, hi: usize, prefix: &mut [String], out: &mut Vec<String>) {
        let mut segs: Vec<String> = Vec::new();
        let mut p = lo;
        while p < hi {
            if self.is_punct(p, "{") {
                // Group: split the interior on top-level commas and
                // recurse with prefix + segs.
                let close = self.match_pair(p, "{", "}", hi);
                let mut joined: Vec<String> = prefix.to_owned();
                joined.extend(segs.iter().cloned());
                let mut arm_lo = p + 1;
                let mut depth = 0usize;
                for q in p + 1..close {
                    if self.is_punct(q, "{") {
                        depth += 1;
                    } else if self.is_punct(q, "}") {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && self.is_punct(q, ",") {
                        self.expand_use_tree(arm_lo, q, &mut joined, out);
                        arm_lo = q + 1;
                    }
                }
                if arm_lo < close {
                    self.expand_use_tree(arm_lo, close, &mut joined, out);
                }
                return;
            }
            if self.is_ident(p, "as") {
                break; // rename: the original path is already complete
            }
            if self.is_punct(p, "*") {
                segs.push("*".to_string());
                p += 1;
                continue;
            }
            if let Some(name) = self.ident_text(p) {
                segs.push(name.to_string());
            }
            p += 1;
        }
        if !segs.is_empty() || !prefix.is_empty() {
            let mut joined = prefix.to_owned();
            joined.append(&mut segs);
            out.push(joined.join("::"));
        }
    }

    /// `struct` / `enum` / `trait` / `type` / `const` / `static`: name
    /// follows the keyword (after optional `mut` for `static`); span
    /// ends at the first top-level `;` or the matching `}`.
    fn parse_named(&self, p: usize, kw: &str, hi: usize) -> (Item, usize) {
        let kind = match kw {
            "struct" => ItemKind::Struct,
            "enum" => ItemKind::Enum,
            "trait" => ItemKind::Trait,
            "type" => ItemKind::TypeAlias,
            "const" => ItemKind::Const,
            _ => ItemKind::Static,
        };
        let name_pos = if kw == "static" && self.is_ident(p + 1, "mut") {
            p + 2
        } else {
            p + 1
        };
        let name = self.ident_text(name_pos).unwrap_or("").to_string();
        let mut q = name_pos + 1;
        let mut depth = 0usize; // parens, brackets, generics
        while q < hi {
            if self.is_punct(q, "(") || self.is_punct(q, "[") {
                depth += 1;
            } else if self.is_punct(q, ")") || self.is_punct(q, "]") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && self.is_punct(q, ";") {
                return (self.item_at(kind, name, p, q), q + 1);
            } else if depth == 0 && self.is_punct(q, "{") {
                let close = self.match_pair(q, "{", "}", hi);
                let mut item = self.item_at(kind, name, p, close);
                if kind == ItemKind::Trait {
                    item.body = Some((self.sig[q], self.sig[close.min(self.sig.len() - 1)]));
                }
                return (item, close + 1);
            }
            q += 1;
        }
        (self.item_at(kind, name, p, hi - 1), hi)
    }

    /// `macro_rules ! name { … }`. The rules' expansions are parsed as
    /// children, so an `impl $name { pub fn … }` template shows its
    /// methods; matchers and metavariables parse as noise.
    fn parse_macro_def(&self, p: usize, hi: usize) -> (Item, usize) {
        let name = self.ident_text(p + 2).unwrap_or("").to_string();
        let mut q = p + 2;
        while q < hi && !self.is_punct(q, "{") {
            q += 1;
        }
        if q >= hi {
            return (self.item_at(ItemKind::MacroDef, name, p, hi - 1), hi);
        }
        let close = self.match_pair(q, "{", "}", hi);
        let mut item = self.item_at(ItemKind::MacroDef, name, p, close);
        item.body = Some((self.sig[q], self.sig[close.min(self.sig.len() - 1)]));
        item.children = self.items_in(q + 1, close);
        (item, close + 1)
    }
}

/// Extracts every call-like site in the raw token range
/// `[start, end]` (typically an [`Item::body`] span).
///
/// Over-approximations, by design: tuple-struct constructors and
/// patterns (`Some(x)`) register as calls; turbofish paths lose their
/// qualifier. Neither harms the flow rules, which only act on resolved
/// workspace functions and known sink/source names.
#[must_use]
pub fn extract_calls(tokens: &[Token], start: usize, end: usize) -> Vec<CallSite> {
    let hi = end.min(tokens.len().saturating_sub(1));
    let sig: Vec<usize> = (start..=hi)
        .filter(|&i| i < tokens.len() && tokens[i].kind != TokenKind::Comment)
        .collect();
    let tok = |p: usize| sig.get(p).map(|&i| &tokens[i]);
    let is_punct = |p: usize, s: &str| tok(p).is_some_and(|t| t.is(TokenKind::Punct, s));
    let mut out = Vec::new();
    for p in 0..sig.len() {
        let i = sig[p];
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // Macro call: `name ! (…)` / `![…]` / `!{…}`.
        if is_punct(p + 1, "!") {
            let delim = [("(", ")"), ("[", "]"), ("{", "}")]
                .into_iter()
                .find(|(o, _)| is_punct(p + 2, o));
            if let Some((open, close)) = delim {
                let close_pos = match_in(tokens, &sig, p + 2, open, close);
                out.push(CallSite {
                    kind: CallKind::Macro,
                    path: vec![t.text.clone()],
                    line: t.line,
                    col: t.col,
                    at: i,
                    args: (sig[p + 2], sig[close_pos]),
                });
            }
            continue;
        }
        if !is_punct(p + 1, "(") {
            continue;
        }
        let close_pos = match_in(tokens, &sig, p + 1, "(", ")");
        let args = (sig[p + 1], sig[close_pos]);
        let prev = p.checked_sub(1).and_then(tok);
        if prev.is_some_and(|pt| pt.is(TokenKind::Punct, ".")) {
            out.push(CallSite {
                kind: CallKind::Method,
                path: vec![t.text.clone()],
                line: t.line,
                col: t.col,
                at: i,
                args,
            });
            continue;
        }
        if prev.is_some_and(|pt| pt.is(TokenKind::Punct, "::")) {
            // Walk back over `seg :: seg :: … :: name`.
            let mut path = vec![t.text.clone()];
            let mut q = p;
            while q >= 2
                && is_punct(q - 1, "::")
                && tok(q - 2).is_some_and(|s| s.kind == TokenKind::Ident)
            {
                path.insert(0, tokens[sig[q - 2]].text.clone());
                q -= 2;
            }
            out.push(CallSite {
                kind: CallKind::Path,
                path,
                line: t.line,
                col: t.col,
                at: i,
                args,
            });
            continue;
        }
        if prev.is_some_and(|pt| pt.is(TokenKind::Ident, "fn"))
            || NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            continue;
        }
        out.push(CallSite {
            kind: CallKind::Free,
            path: vec![t.text.clone()],
            line: t.line,
            col: t.col,
            at: i,
            args,
        });
    }
    out
}

/// Sig position of the punct matching `open` at `open_pos` within this
/// call-extraction slice; clamps to the last position when unbalanced.
fn match_in(tokens: &[Token], sig: &[usize], open_pos: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut p = open_pos;
    while p < sig.len() {
        let t = &tokens[sig[p]];
        if t.is(TokenKind::Punct, open) {
            depth += 1;
        } else if t.is(TokenKind::Punct, close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return p;
            }
        }
        p += 1;
    }
    sig.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<Item> {
        parse_items(&lex(src))
    }

    #[test]
    fn top_level_items_are_found_with_names() {
        let src = "pub struct A { x: u8 }\npub enum B { C }\nconst K: u8 = 1;\nstatic S: u8 = 2;\ntype T = u8;\npub fn f() { g(); }\nfn g() {}\n";
        let got = items(src);
        let names: Vec<(ItemKind, &str)> = got.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            names,
            vec![
                (ItemKind::Struct, "A"),
                (ItemKind::Enum, "B"),
                (ItemKind::Const, "K"),
                (ItemKind::Static, "S"),
                (ItemKind::TypeAlias, "T"),
                (ItemKind::Fn, "f"),
                (ItemKind::Fn, "g"),
            ]
        );
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let got = items("pub const fn k() -> u8 { 1 }");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, ItemKind::Fn);
        assert_eq!(got[0].name, "k");
        assert!(got[0].body.is_some());
    }

    #[test]
    fn impl_blocks_resolve_self_type_and_children() {
        let src = "impl<T: Clone> Display for Engine<T> {\n    fn fmt(&self) {}\n}\nimpl Engine<u8> {\n    pub fn submit(&self) {}\n    fn inner(&self) {}\n}";
        let got = items(src);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].self_type.as_deref(), Some("Engine"));
        assert_eq!(got[0].children.len(), 1);
        assert_eq!(got[1].self_type.as_deref(), Some("Engine"));
        let methods: Vec<&str> = got[1].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(methods, vec!["submit", "inner"]);
    }

    #[test]
    fn nested_mods_recurse() {
        let src = "mod outer {\n    mod inner {\n        fn leaf() {}\n    }\n    fn mid() {}\n}\nmod decl;";
        let got = items(src);
        assert_eq!(got[0].kind, ItemKind::Mod);
        assert_eq!(got[0].children[0].kind, ItemKind::Mod);
        assert_eq!(got[0].children[0].children[0].name, "leaf");
        assert_eq!(got[0].children[1].name, "mid");
        assert_eq!(got[1].kind, ItemKind::ModDecl);
        assert_eq!(got[1].name, "decl");
    }

    #[test]
    fn use_trees_expand_groups_and_drop_renames() {
        let src = "use std::sync::{Arc, Mutex};\nuse crate::wire::{self, encode as enc};\nuse oisa_device::noise::*;";
        let got = items(src);
        assert_eq!(got[0].use_paths, vec!["std::sync::Arc", "std::sync::Mutex"]);
        assert_eq!(
            got[1].use_paths,
            vec!["crate::wire::self", "crate::wire::encode"]
        );
        assert_eq!(got[2].use_paths, vec!["oisa_device::noise::*"]);
    }

    #[test]
    fn spans_cover_the_item_and_do_not_overlap() {
        let src = "fn a() { b(); }\nfn b() {}\nstruct S;\n";
        let toks = lex(src);
        let got = parse_items(&toks);
        assert_eq!(got.len(), 3);
        for w in got.windows(2) {
            assert!(w[0].end < w[1].start, "items overlap");
        }
        for item in &got {
            assert!(item.end < toks.len());
            assert_eq!(toks[item.start].line, item.line);
            assert_eq!(toks[item.start].col, item.col);
        }
    }

    #[test]
    fn call_extraction_distinguishes_kinds() {
        let src =
            "fn f() { g(); self.h(); wire::encode(x); a::b::c(); assert_eq!(1, 1); if x { } }";
        let toks = lex(src);
        let got = parse_items(&toks);
        let (b0, b1) = got[0].body.unwrap();
        let calls = extract_calls(&toks, b0, b1);
        let tags: Vec<(CallKind, String)> =
            calls.iter().map(|c| (c.kind, c.path.join("::"))).collect();
        assert_eq!(
            tags,
            vec![
                (CallKind::Free, "g".into()),
                (CallKind::Method, "h".into()),
                (CallKind::Path, "wire::encode".into()),
                (CallKind::Path, "a::b::c".into()),
                (CallKind::Macro, "assert_eq".into()),
            ]
        );
    }

    #[test]
    fn fn_declarations_are_not_calls_and_args_span_delimiters() {
        let src = "fn f(x: u8) { h(x + 1); }";
        let toks = lex(src);
        let got = parse_items(&toks);
        let (b0, b1) = got[0].body.unwrap();
        let calls = extract_calls(&toks, b0, b1);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name(), "h");
        assert_eq!(toks[calls[0].args.0].text, "(");
        assert_eq!(toks[calls[0].args.1].text, ")");
        assert!(calls[0].args.1 > calls[0].args.0);
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "mod m {",
            "use a::{b, ;",
            "struct",
            "impl<T for {}",
            "macro_rules!",
            "fn f() { g(; }",
        ] {
            let _ = items(src);
        }
    }

    #[test]
    fn trait_methods_without_bodies_parse() {
        let src = "pub trait Backend {\n    fn run_job(&self) -> u8;\n    fn stop(&self) {}\n}";
        let got = items(src);
        assert_eq!(got[0].kind, ItemKind::Trait);
        assert_eq!(got[0].name, "Backend");
    }
}
