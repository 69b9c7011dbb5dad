//! The four flow-aware workspace rules.
//!
//! These rules need every file at once: they run over the parsed
//! [`Workspace`] (item trees + approximate call graph) instead of one
//! token stream. [`check_workspace_files`] is the single entry point;
//! [`crate::collect_findings`] feeds it the whole tree, the
//! self-test feeds it one fixture file as a virtual workspace.
//!
//! * **lock-order** — per-function `Mutex` acquisition orders,
//!   propagated through the call graph; any cycle in the global
//!   lock-class graph is a potential deadlock.
//! * **panic-reachability** — no call-graph path from a
//!   serving/backend entry point may reach `panic!` / `.unwrap()` /
//!   `.expect(` in non-test library code.
//! * **determinism-taint** — wall-clock / entropy sources taint
//!   values; a tainted value flowing into `wire::encode*` or a
//!   `NoiseSource` key/counter breaks replay determinism.
//! * **crate-layering** — `use` declarations must respect the crate
//!   dependency DAG, and `wire.rs` must not import backend/serving.
//!
//! Every analysis here **over-approximates the call graph** and
//! **under-approximates dataflow**; `crates/lint/README.md` documents
//! the known false-negative classes per rule.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::graph::{bfs_parents, crate_of, find_cycle, FnInfo, Workspace};
use crate::lexer::TokenKind;
use crate::parser::{CallKind, Item, ItemKind};
use crate::rules::{
    finding, lib_scope, Finding, SourceFile, RULE_LAYERING, RULE_LOCK_ORDER, RULE_PANIC, RULE_TAINT,
};

/// Runs all four workspace rules over `files`.
#[must_use]
pub fn check_workspace_files(files: &[SourceFile]) -> Vec<Finding> {
    let ws = Workspace::build(files);
    let mut out = Vec::new();
    lock_order(&ws, &mut out);
    panic_reachability(&ws, &mut out);
    determinism_taint(&ws, &mut out);
    layering(&ws, &mut out);
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    out
}

// ---------------------------------------------------------------------
// Rule: lock-order
// ---------------------------------------------------------------------

/// One `.lock()` acquisition inside a function body.
struct Acquisition {
    /// Lock class: the last receiver identifier (`self.shared.queue
    /// .lock()` → `queue`).
    class: String,
    /// Raw token index of the `lock` identifier.
    at: usize,
    line: u32,
    col: u32,
    /// For `let guard = recv.lock().unwrap();` bindings: raw token
    /// index the guard is held through (scope close or `drop`).
    /// `None` for statement temporaries, which release at the `;`.
    held_until: Option<usize>,
}

/// Per-function lock facts.
struct LockFacts {
    acqs: Vec<Acquisition>,
    /// Classes acquired anywhere in the body (held or transient) —
    /// the unit of call-graph propagation.
    acquired: BTreeSet<String>,
}

/// Method names that keep a lock-call statement a *guard binding*
/// when chained after `.lock()`.
const GUARD_CHAIN: &[&str] = &["unwrap", "expect"];

fn lock_facts(file: &SourceFile, f: &FnInfo) -> LockFacts {
    let mut facts = LockFacts {
        acqs: Vec::new(),
        acquired: BTreeSet::new(),
    };
    let Some((b0, b1)) = f.body else {
        return facts;
    };
    let toks = &file.tokens;
    let sig: Vec<usize> = (b0..=b1.min(toks.len().saturating_sub(1)))
        .filter(|&i| toks[i].kind != TokenKind::Comment)
        .collect();
    let is_p = |p: usize, s: &str| sig.get(p).is_some_and(|&i| toks[i].is(TokenKind::Punct, s));
    let is_i = |p: usize, s: &str| sig.get(p).is_some_and(|&i| toks[i].is(TokenKind::Ident, s));
    let ident = |p: usize| {
        sig.get(p)
            .and_then(|&i| (toks[i].kind == TokenKind::Ident).then(|| toks[i].text.as_str()))
    };
    // Matching close position (in sig space) for an opener at `p`.
    let close_of = |p: usize, open: &str, close: &str| {
        let mut depth = 0usize;
        let mut q = p;
        while q < sig.len() {
            if is_p(q, open) {
                depth += 1;
            } else if is_p(q, close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return q;
                }
            }
            q += 1;
        }
        sig.len().saturating_sub(1)
    };
    // Brace pairs, for "held until the enclosing scope closes".
    let mut brace_pairs: Vec<(usize, usize)> = Vec::new();
    {
        let mut stack = Vec::new();
        for q in 0..sig.len() {
            if is_p(q, "{") {
                stack.push(q);
            } else if is_p(q, "}") {
                if let Some(o) = stack.pop() {
                    brace_pairs.push((o, q));
                }
            }
        }
    }
    let enclosing_close = |p: usize| {
        brace_pairs
            .iter()
            .filter(|&&(o, c)| o < p && p < c)
            .map(|&(_, c)| c)
            .min()
            .unwrap_or(sig.len().saturating_sub(1))
    };

    for p in 0..sig.len() {
        if !(is_i(p, "lock") && is_p(p.wrapping_sub(1), ".") && is_p(p + 1, "(")) {
            continue;
        }
        // Lock class: walk back over the receiver chain to the last
        // plain identifier (`queues[w].lock()` jumps the index).
        let mut r = p.wrapping_sub(1); // the `.`
        let class = loop {
            let Some(prev) = r.checked_sub(1) else {
                break "?".to_string();
            };
            if is_p(prev, "]") || is_p(prev, ")") {
                // Jump backwards over the bracketed group.
                let (open, close) = if is_p(prev, "]") {
                    ("[", "]")
                } else {
                    ("(", ")")
                };
                let mut depth = 0usize;
                let mut q = prev;
                loop {
                    if is_p(q, close) {
                        depth += 1;
                    } else if is_p(q, open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    let Some(n) = q.checked_sub(1) else { break };
                    q = n;
                }
                r = q;
                continue;
            }
            if let Some(name) = ident(prev) {
                break name.to_string();
            }
            break "?".to_string();
        };
        facts.acquired.insert(class.clone());
        // Heldness: `let [mut] name = …lock()[.unwrap()|.expect(…)]* ;`
        let paren_close = close_of(p + 1, "(", ")");
        let mut q = paren_close + 1;
        while is_p(q, ".") && ident(q + 1).is_some_and(|n| GUARD_CHAIN.contains(&n)) {
            if is_p(q + 2, "(") {
                q = close_of(q + 2, "(", ")") + 1;
            } else {
                q += 2;
            }
        }
        let ends_stmt = is_p(q, ";");
        // Statement start: scan back to the nearest `;`/`{`/`}`.
        let mut s = p;
        while let Some(prev) = s.checked_sub(1) {
            if is_p(prev, ";") || is_p(prev, "{") || is_p(prev, "}") {
                break;
            }
            s = prev;
        }
        let bound_name = if is_i(s, "let") {
            let name_pos = if is_i(s + 1, "mut") { s + 2 } else { s + 1 };
            (is_p(name_pos + 1, "=")).then(|| ident(name_pos)).flatten()
        } else {
            None
        };
        let held_until = match (ends_stmt, bound_name) {
            (true, Some(name)) => {
                let scope_close = enclosing_close(p);
                // An explicit `drop(name)` releases early.
                let mut until = scope_close;
                for d in p..scope_close {
                    if is_i(d, "drop")
                        && is_p(d + 1, "(")
                        && ident(d + 2) == Some(name)
                        && is_p(d + 3, ")")
                    {
                        until = d;
                        break;
                    }
                }
                Some(sig[until])
            }
            _ => None,
        };
        let t = &toks[sig[p]];
        facts.acqs.push(Acquisition {
            class,
            at: sig[p],
            line: t.line,
            col: t.col,
            held_until,
        });
    }
    facts
}

/// Call-site names that are lock plumbing, not propagation targets.
const LOCK_PLUMBING: &[&str] = &["lock", "unwrap", "expect", "drop"];

fn lock_order(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let facts: Vec<LockFacts> = ws
        .fns
        .iter()
        .map(|f| lock_facts(&ws.files[f.file], f))
        .collect();
    // Transitive lock set per fn: classes it (or any callee) acquires.
    let mut trans: Vec<BTreeSet<String>> = facts.iter().map(|f| f.acquired.clone()).collect();
    loop {
        let mut changed = false;
        for i in 0..ws.fns.len() {
            for &callee in &ws.calls[i] {
                if callee == i {
                    continue;
                }
                let add: Vec<String> = trans[callee]
                    .iter()
                    .filter(|c| !trans[i].contains(*c))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    trans[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Global edge map: held class → acquired class, with the first
    // location that witnesses the edge.
    let mut edges: BTreeMap<(String, String), (usize, u32, u32)> = BTreeMap::new();
    let mut witness = |a: &str, b: &str, file: usize, line: u32, col: u32| {
        edges
            .entry((a.to_string(), b.to_string()))
            .or_insert((file, line, col));
    };
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let fa = &facts[i];
        // Direct nesting: a later acquisition while a guard is held.
        for acq in &fa.acqs {
            for held in &fa.acqs {
                if held.at < acq.at
                    && held.held_until.is_some_and(|u| acq.at <= u)
                    && held.class != acq.class
                {
                    witness(&held.class, &acq.class, f.file, acq.line, acq.col);
                }
            }
        }
        // Calls made while holding: held class → callee's whole
        // transitive lock set.
        for (si, site) in f.sites.iter().enumerate() {
            if LOCK_PLUMBING.contains(&site.name()) {
                continue;
            }
            let held: Vec<&Acquisition> = fa
                .acqs
                .iter()
                .filter(|a| a.at < site.at && a.held_until.is_some_and(|u| site.at <= u))
                .collect();
            if held.is_empty() {
                continue;
            }
            for &callee in &ws.site_calls[i][si] {
                for class in &trans[callee] {
                    for h in &held {
                        if h.class != *class {
                            witness(&h.class, class, f.file, site.line, site.col);
                        }
                    }
                }
            }
        }
    }
    // Cycle detection over lock classes.
    let classes: Vec<&String> = {
        let mut set = BTreeSet::new();
        for (a, b) in edges.keys() {
            set.insert(a);
            set.insert(b);
        }
        set.into_iter().collect()
    };
    let id_of = |c: &String| classes.binary_search(&c).unwrap_or(0);
    let mut adj = vec![Vec::new(); classes.len()];
    for (a, b) in edges.keys() {
        adj[id_of(a)].push(id_of(b));
    }
    if let Some(cycle) = find_cycle(&adj) {
        let names: Vec<&str> = cycle.iter().map(|&i| classes[i].as_str()).collect();
        // Report at the witness of the cycle's first edge.
        let key = (names[0].to_string(), names[1].to_string());
        let &(file, line, col) = edges.get(&key).unwrap_or(&(0, 1, 1));
        out.push(finding(
            &ws.files[file],
            RULE_LOCK_ORDER,
            line,
            col,
            format!(
                "lock-order cycle: {} — two threads taking these locks in \
                 opposite orders can deadlock; establish one global order",
                names.join(" \u{2192} ")
            ),
        ));
    }
}

// ---------------------------------------------------------------------
// Rule: panic-reachability
// ---------------------------------------------------------------------

/// Qualified names that are serving/backend entry points.
const ENTRY_QUALS: &[&str] = &[
    "ServingEngine::new",
    "ServingEngine::with_backend",
    "ServingEngine::submit",
    "ServingEngine::try_submit",
    "ServingEngine::stats",
    "ServingEngine::shutdown",
    "FrameHandle::wait",
    "FrameHandle::try_take",
];

/// Any fn with these names (on any backend impl) is an entry point.
const ENTRY_NAMES: &[&str] = &["run_job", "run_program"];

/// Any fn whose name starts with this prefix is an entry point.
const ENTRY_PREFIX: &str = "serve_worker";

/// Macros that abort at runtime.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn is_entry(f: &FnInfo) -> bool {
    ENTRY_QUALS.contains(&f.qual().as_str())
        || ENTRY_NAMES.contains(&f.name.as_str())
        || f.name.starts_with(ENTRY_PREFIX)
}

fn panic_reachability(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let entries = ws.fns_matching(is_entry);
    let parent = bfs_parents(&ws.calls, &entries, |i| ws.fns[i].is_test);
    for (i, f) in ws.fns.iter().enumerate() {
        if parent[i].is_none() || f.is_test || !lib_scope(&ws.files[f.file].path) {
            continue;
        }
        let entry_path = call_path(ws, &parent, i);
        for site in &f.sites {
            let panics = match site.kind {
                CallKind::Method => matches!(site.name(), "unwrap" | "expect"),
                CallKind::Macro => PANIC_MACROS.contains(&site.name()),
                _ => false,
            };
            if !panics {
                continue;
            }
            let what = match site.kind {
                CallKind::Macro => format!("`{}!`", site.name()),
                _ => format!("`.{}(`", site.name()),
            };
            out.push(finding(
                &ws.files[f.file],
                RULE_PANIC,
                site.line,
                site.col,
                format!(
                    "{what} reachable from entry point via {entry_path} — return a \
                     typed `OisaError` (or allowlist with a proof of infallibility)"
                ),
            ));
        }
    }
}

/// Renders the BFS call path from the entry to `target`, e.g.
/// `ServingEngine::submit → enqueue`.
fn call_path(ws: &Workspace<'_>, parent: &[Option<usize>], target: usize) -> String {
    let mut chain = vec![target];
    let mut cur = target;
    while let Some(p) = parent[cur] {
        if p == cur || chain.len() >= 8 {
            break;
        }
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain
        .iter()
        .map(|&i| format!("`{}`", ws.fns[i].qual()))
        .collect::<Vec<_>>()
        .join(" \u{2192} ")
}

// ---------------------------------------------------------------------
// Rule: determinism-taint
// ---------------------------------------------------------------------

/// Method names on `NoiseSource` (and the optics epoch plumbing) whose
/// arguments must be replay-deterministic.
const TAINT_SINK_METHODS: &[&str] = &[
    "stream",
    "slot_stream",
    "begin_epoch",
    "reserve_epochs",
    "advance_to_epoch",
    "seeded",
];

fn determinism_taint(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    // Direct taint: the body calls a wall-clock / entropy source.
    let direct: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| {
            f.body
                .is_some_and(|(b0, b1)| has_source_call(&ws.files[f.file], b0, b1))
        })
        .collect();
    // A fn is tainted when it or any transitive callee is directly
    // tainted (its return value *may* derive from the source).
    let mut tainted = direct.clone();
    loop {
        let mut changed = false;
        for i in 0..ws.fns.len() {
            if tainted[i] {
                continue;
            }
            if ws.calls[i].iter().any(|&c| tainted[c]) {
                tainted[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let tainted_names: HashSet<&str> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|&(i, _)| tainted[i])
        .map(|(_, f)| f.name.as_str())
        .collect();
    for f in &ws.fns {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file];
        // Local taint: `let name = <source or tainted call> …;`
        let locals = tainted_locals(file, f, &tainted_names);
        for site in &f.sites {
            let is_sink = match site.kind {
                CallKind::Path => {
                    let qual = site.path.get(site.path.len().wrapping_sub(2));
                    qual.is_some_and(|q| {
                        (q == "wire" && site.name().starts_with("encode")) || q == "NoiseSource"
                    })
                }
                CallKind::Method => TAINT_SINK_METHODS.contains(&site.name()),
                _ => false,
            };
            if !is_sink {
                continue;
            }
            if let Some(why) = arg_taint(file, site.args, &tainted_names, &locals) {
                out.push(finding(
                    file,
                    RULE_TAINT,
                    site.line,
                    site.col,
                    format!(
                        "wall-clock/entropy-tainted value ({why}) flows into \
                         `{}` — deterministic paths must be a pure function of \
                         (config, seed, counter)",
                        site.path.join("::")
                    ),
                ));
            }
        }
    }
}

/// Does the raw token range contain a taint-source call
/// (`Instant::now`, `SystemTime::now`, `thread_rng()`,
/// `from_entropy()`)?
fn has_source_call(file: &SourceFile, b0: usize, b1: usize) -> bool {
    source_in(file, b0, b1).is_some()
}

fn source_in(file: &SourceFile, b0: usize, b1: usize) -> Option<&'static str> {
    let toks = &file.tokens;
    let hi = b1.min(toks.len().saturating_sub(1));
    let sig: Vec<usize> = (b0..=hi)
        .filter(|&i| toks[i].kind != TokenKind::Comment)
        .collect();
    for p in 0..sig.len() {
        let t = &toks[sig[p]];
        if t.kind != TokenKind::Ident || file.test_mask[sig[p]] {
            continue;
        }
        let nxt = |q: usize, s: &str| sig.get(q).is_some_and(|&i| toks[i].is(TokenKind::Punct, s));
        let nxt_i =
            |q: usize, s: &str| sig.get(q).is_some_and(|&i| toks[i].is(TokenKind::Ident, s));
        match t.text.as_str() {
            "Instant" if nxt(p + 1, "::") && nxt_i(p + 2, "now") => return Some("Instant::now"),
            "SystemTime" if nxt(p + 1, "::") && nxt_i(p + 2, "now") => {
                return Some("SystemTime::now")
            }
            "thread_rng" if nxt(p + 1, "(") => return Some("thread_rng"),
            "from_entropy" => return Some("from_entropy"),
            _ => {}
        }
    }
    None
}

/// Names of `let` bindings in `f` whose initializer contains a source
/// call or a call to a tainted fn.
fn tainted_locals(file: &SourceFile, f: &FnInfo, tainted_names: &HashSet<&str>) -> Vec<String> {
    let mut out = Vec::new();
    let Some((b0, b1)) = f.body else {
        return out;
    };
    let toks = &file.tokens;
    let hi = b1.min(toks.len().saturating_sub(1));
    let sig: Vec<usize> = (b0..=hi)
        .filter(|&i| toks[i].kind != TokenKind::Comment)
        .collect();
    for p in 0..sig.len() {
        if !toks[sig[p]].is(TokenKind::Ident, "let") {
            continue;
        }
        let name_pos = if toks
            .get(sig.get(p + 1).copied().unwrap_or(usize::MAX))
            .is_some_and(|t| t.is(TokenKind::Ident, "mut"))
        {
            p + 2
        } else {
            p + 1
        };
        let Some(&ni) = sig.get(name_pos) else {
            continue;
        };
        if toks[ni].kind != TokenKind::Ident {
            continue;
        }
        if !sig
            .get(name_pos + 1)
            .is_some_and(|&i| toks[i].is(TokenKind::Punct, "="))
        {
            continue;
        }
        // Initializer: up to the terminating `;` at this nesting.
        let mut depth = 0usize;
        let mut q = name_pos + 2;
        let start_raw = sig.get(q).copied();
        let mut end_raw = start_raw;
        while q < sig.len() {
            let t = &toks[sig[q]];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            end_raw = Some(sig[q]);
            q += 1;
        }
        if let (Some(s), Some(e)) = (start_raw, end_raw) {
            if arg_taint(file, (s, e), tainted_names, &[]).is_some() {
                out.push(toks[ni].text.clone());
            }
        }
    }
    out
}

/// Is anything in the raw range tainted: a direct source call, a call
/// to a tainted fn, or a tainted local mentioned by name?
fn arg_taint(
    file: &SourceFile,
    range: (usize, usize),
    tainted_names: &HashSet<&str>,
    locals: &[String],
) -> Option<String> {
    if let Some(src) = source_in(file, range.0, range.1) {
        return Some(format!("`{src}`"));
    }
    let toks = &file.tokens;
    let hi = range.1.min(toks.len().saturating_sub(1));
    let sig: Vec<usize> = (range.0..=hi)
        .filter(|&i| toks[i].kind != TokenKind::Comment)
        .collect();
    for p in 0..sig.len() {
        let t = &toks[sig[p]];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let followed_by_paren = sig
            .get(p + 1)
            .is_some_and(|&i| toks[i].is(TokenKind::Punct, "("));
        if followed_by_paren && tainted_names.contains(t.text.as_str()) {
            return Some(format!("via `{}()`", t.text));
        }
        if !followed_by_paren && locals.iter().any(|l| l == &t.text) {
            return Some(format!("via local `{}`", t.text));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Rule: crate-layering
// ---------------------------------------------------------------------

/// The intended crate DAG: each crate may `use` only these workspace
/// crates. Mirrors the `Cargo.toml` dependency edges; the facade
/// (`oisa`), the bench crate and examples may use everything.
const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("oisa_units", &[]),
    ("oisa_spice", &["oisa_units"]),
    ("oisa_memory", &["oisa_units"]),
    ("oisa_device", &["oisa_units", "oisa_spice"]),
    ("oisa_sensor", &["oisa_units", "oisa_device", "oisa_spice"]),
    ("oisa_optics", &["oisa_units", "oisa_device"]),
    ("oisa_nn", &["oisa_device", "oisa_optics"]),
    ("oisa_datasets", &["oisa_nn"]),
    ("oisa_baselines", &["oisa_units", "oisa_memory"]),
    (
        "oisa_core",
        &[
            "oisa_units",
            "oisa_device",
            "oisa_sensor",
            "oisa_optics",
            "oisa_memory",
            "oisa_nn",
        ],
    ),
    ("oisa_lint", &[]),
];

/// Module prefixes `wire.rs` must never import: the codec is below the
/// backend/serving layer and must stay link-order clean.
const WIRE_FORBIDDEN: &[&str] = &["crate::backend", "crate::serving", "crate::scheduler"];

fn layering(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        let crate_name = crate_of(&file.path);
        let allowed = CRATE_DEPS
            .iter()
            .find(|(c, _)| *c == crate_name)
            .map(|(_, deps)| *deps);
        let is_wire = file.path.ends_with("core/src/wire.rs");
        let mut uses: Vec<&Item> = Vec::new();
        collect_uses(&ws.items[fi], &mut uses);
        for item in uses {
            // Test-only imports answer to dev-dependencies, not the
            // runtime DAG.
            if file.test_mask.get(item.start).copied().unwrap_or(false) {
                continue;
            }
            for path in &item.use_paths {
                let first = path.split("::").next().unwrap_or("");
                if let Some(allowed) = allowed {
                    if first.starts_with("oisa_")
                        && first != crate_name
                        && !allowed.contains(&first)
                    {
                        out.push(finding(
                            file,
                            RULE_LAYERING,
                            item.line,
                            item.col,
                            format!(
                                "`{crate_name}` must not import `{first}` — the crate \
                                 DAG allows only {{{}}}",
                                allowed.join(", ")
                            ),
                        ));
                    }
                }
                if is_wire {
                    if let Some(bad) = WIRE_FORBIDDEN
                        .iter()
                        .find(|p| path == *p || path.starts_with(&format!("{p}::")))
                    {
                        out.push(finding(
                            file,
                            RULE_LAYERING,
                            item.line,
                            item.col,
                            format!(
                                "`wire.rs` must not import `{bad}` — the codec sits \
                                 below the backend/serving layer"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

fn collect_uses<'i>(items: &'i [Item], out: &mut Vec<&'i Item>) {
    for item in items {
        if item.kind == ItemKind::Use {
            out.push(item);
        }
        collect_uses(&item.children, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(specs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = specs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        check_workspace_files(&files)
    }

    #[test]
    fn lock_inversion_across_fns_is_a_cycle() {
        let src = "pub fn a(s: &S) {\n    let q = s.queue.lock().expect(\"p\");\n    let st = s.stats.lock().expect(\"p\");\n    let _ = (q, st);\n}\npub fn b(s: &S) {\n    let st = s.stats.lock().expect(\"p\");\n    let q = s.queue.lock().expect(\"p\");\n    let _ = (q, st);\n}";
        let f = check(&[("crates/core/src/lk.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_ORDER);
        assert!(f[0].message.contains("queue") && f[0].message.contains("stats"));
    }

    #[test]
    fn consistent_order_and_transients_are_quiet() {
        // Same order in both fns; the steal loop's statement-scoped
        // temporary (scheduler idiom) must not count as held.
        let src = "pub fn a(s: &S) {\n    let q = s.queue.lock().expect(\"p\");\n    let st = s.stats.lock().expect(\"p\");\n    let _ = (q, st);\n}\npub fn steal(s: &S, w: usize) {\n    let item = s.queues[w].lock().expect(\"p\").pop_front();\n    let st = s.stats.lock().expect(\"p\");\n    let _ = (item, st);\n}";
        let f = check(&[("crates/core/src/lk.rs", src)]);
        assert!(f.iter().all(|x| x.rule != RULE_LOCK_ORDER), "{f:?}");
    }

    #[test]
    fn lock_edges_propagate_through_calls() {
        let src = "pub fn outer(s: &S) {\n    let q = s.queue.lock().expect(\"p\");\n    helper(s);\n    let _ = q;\n}\nfn helper(s: &S) {\n    let st = s.stats.lock().expect(\"p\");\n    let _ = st;\n}\npub fn other(s: &S) {\n    let st = s.stats.lock().expect(\"p\");\n    let q = s.queue.lock().expect(\"p\");\n    let _ = (st, q);\n}";
        let f = check(&[("crates/core/src/lk.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_ORDER);
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "pub fn a(s: &S) {\n    let q = s.queue.lock().expect(\"p\");\n    drop(q);\n    let st = s.stats.lock().expect(\"p\");\n    let _ = st;\n}\npub fn b(s: &S) {\n    let st = s.stats.lock().expect(\"p\");\n    drop(st);\n    let q = s.queue.lock().expect(\"p\");\n    let _ = q;\n}";
        let f = check(&[("crates/core/src/lk.rs", src)]);
        assert!(f.iter().all(|x| x.rule != RULE_LOCK_ORDER), "{f:?}");
    }

    #[test]
    fn panic_reachable_from_entry_fires_and_unreachable_does_not() {
        let src = "pub fn serve_worker_x(v: Option<u8>) -> u8 {\n    helper(v)\n}\nfn helper(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\nfn unreachable_helper(v: Option<u8>) -> u8 {\n    v.unwrap()\n}";
        let f = check(&[("crates/core/src/pc.rs", src)]);
        let panics: Vec<_> = f.iter().filter(|x| x.rule == RULE_PANIC).collect();
        assert_eq!(panics.len(), 1, "{f:?}");
        assert!(panics[0].message.contains("serve_worker_x"));
        assert_eq!(panics[0].line, 5);
    }

    #[test]
    fn panic_reachable_only_through_run_program_fires() {
        let src = "pub fn run_program(v: Option<u8>) -> u8 {\n    stage(v)\n}\nfn stage(v: Option<u8>) -> u8 {\n    v.expect(\"p\")\n}";
        let f = check(&[("crates/core/src/rp.rs", src)]);
        let panics: Vec<_> = f.iter().filter(|x| x.rule == RULE_PANIC).collect();
        assert_eq!(panics.len(), 1, "{f:?}");
        assert!(panics[0].message.contains("run_program"), "{f:?}");
        assert_eq!(panics[0].line, 5);
    }

    #[test]
    fn panic_in_test_code_is_exempt() {
        let src = "pub fn serve_worker_x() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); serve_worker_x(); }\n}";
        let f = check(&[("crates/core/src/pc.rs", src)]);
        assert!(f.iter().all(|x| x.rule != RULE_PANIC), "{f:?}");
    }

    #[test]
    fn taint_flows_through_locals_into_wire_encode() {
        let src = "pub fn snapshot(buf: &mut Vec<u8>) {\n    let t = stamp();\n    wire::encode_header(buf, t);\n}\nfn stamp() -> u64 {\n    let _ = std::time::Instant::now();\n    7\n}";
        let f = check(&[("crates/core/src/tn.rs", src)]);
        let taints: Vec<_> = f.iter().filter(|x| x.rule == RULE_TAINT).collect();
        assert_eq!(taints.len(), 1, "{f:?}");
        assert!(taints[0].message.contains("encode_header"));
    }

    #[test]
    fn counter_arguments_to_sinks_are_quiet() {
        let src = "pub fn snapshot(buf: &mut Vec<u8>, epoch: u64) {\n    wire::encode_header(buf, epoch);\n}\npub fn stats_only() {\n    let t = std::time::Instant::now();\n    let _ = t;\n}";
        let f = check(&[("crates/core/src/tn.rs", src)]);
        assert!(f.iter().all(|x| x.rule != RULE_TAINT), "{f:?}");
    }

    #[test]
    fn layering_violation_fires_and_allowed_deps_are_quiet() {
        let bad = check(&[(
            "crates/device/src/ly.rs",
            "use oisa_core::serving::ServingEngine;\npub fn f() {}",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, RULE_LAYERING);
        let good = check(&[(
            "crates/device/src/ly.rs",
            "use oisa_units::Volts;\nuse oisa_spice::Model;\npub fn f() {}",
        )]);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn wire_must_not_import_backend_or_serving() {
        let f = check(&[(
            "crates/core/src/wire.rs",
            "use crate::backend::LocalBackend;\nconst TAG_A: u8 = 1;",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LAYERING);
        assert!(f[0].message.contains("crate::backend"));
    }
}
