//! # oisa-lint — the in-tree invariant checker
//!
//! A dependency-free static-analysis pass over the OISA workspace. A
//! small Rust lexer ([`lexer`]) resolves comments, strings, raw
//! strings and lifetimes so the rule engine ([`rules`]) matches real
//! tokens, never raw text. On top, a recursive-descent parser
//! ([`parser`]) recovers items, bodies and call sites, and a
//! workspace model ([`graph`]) resolves an approximate cross-crate
//! call graph — the flow rules ([`flow`]) analyze lock-acquisition
//! order, panic reachability from serving entry points,
//! wall-clock/entropy taint into the wire codec, and crate layering,
//! alongside the five per-file rules (unsafe hygiene, counter-based
//! determinism, bit-exact float transport, unique wire tags,
//! centralized thread spawning). The tenth rule, [`dead_pub`], reports
//! library API that nothing outside its crate names.
//!
//! ## Quickstart
//!
//! ```text
//! cargo run --release -p oisa_lint --bin oisa-lint            # human output
//! cargo run --release -p oisa_lint --bin oisa-lint -- --json  # CI artifact
//! cargo run --release -p oisa_lint --bin oisa-lint -- self-test
//! ```
//!
//! Run from anywhere inside the workspace: the binary ascends from the
//! current directory until it finds `lint-allow.toml` (override with
//! `--root <dir>` / `--allow <file>`). Exit code 0 means clean, 1 means
//! non-allowlisted findings, 2 means the tool itself failed (bad
//! allowlist, unreadable tree).
//!
//! ## Interpreting findings
//!
//! Each finding is `path:line:col: [rule-id] message`. First try to fix the
//! code — that is always preferred. When a violation is genuinely
//! intended (e.g. a lock-poison `expect` that *should* crash the
//! process), add a justified entry to `lint-allow.toml`:
//!
//! ```toml
//! [[allow]]
//! rule = "panic-reachability"
//! path = "crates/core/src/serving.rs"
//! max = 20    # budget: the count may only go down
//! justification = "lock-poison expects: a poisoned registry means a crashed worker"
//! ```
//!
//! `line = N` pins a single finding instead of a budget. Stale entries
//! (matching nothing) are warnings, so ratchets tighten naturally. The
//! full rule catalogue lives in `crates/lint/README.md`.

// No unsafe: this crate must stay entirely safe Rust, as every crate
// in the workspace does.
#![forbid(unsafe_code)]

pub mod allowlist;
pub mod dead_pub;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod selftest;

use std::fs;
use std::path::{Path, PathBuf};

use allowlist::{Allowlist, Applied};
use rules::{Finding, SourceFile};

/// Top-level directories a lint run walks, relative to the workspace
/// root. Shims are deliberately out of scope: they emulate external
/// crates and follow those crates' idioms, not ours.
pub const WALK_ROOTS: &[&str] = &["crates", "src", "examples"];

/// Directories only the `dead-pub` rule reads, and only for the names
/// they use: the root integration tests and the benchmark build
/// against the library crates, but no other rule checks them.
pub const REFERENCE_ROOTS: &[&str] = &["tests", "oisabench/src", "oisabench/tests"];

/// Directory names never descended into.
const SKIP_DIR_NAMES: &[&str] = &["target", ".git"];

/// Workspace-relative directory prefixes never descended into. The
/// lint fixtures intentionally violate every rule.
const SKIP_DIR_PREFIXES: &[&str] = &["crates/lint/fixtures"];

/// Collects every `.rs` file in scope, workspace-relative and sorted.
pub fn source_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    files_under(root, WALK_ROOTS)
}

/// Collects every `.rs` file under [`REFERENCE_ROOTS`], workspace-relative
/// and sorted.
pub fn reference_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    files_under(root, REFERENCE_ROOTS)
}

fn files_under(root: &Path, tops: &[&str]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = relative(root, &path);
        if path.is_dir() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if SKIP_DIR_NAMES.contains(&name.as_ref())
                || SKIP_DIR_PREFIXES.iter().any(|p| rel == *p)
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if rel.ends_with(".rs") {
            out.push(PathBuf::from(rel));
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated form of `path`.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lexes, parses and rule-checks every in-scope file under `root`,
/// reading the [`REFERENCE_ROOTS`] for `dead-pub` too.
pub fn collect_findings(root: &Path) -> Result<Vec<Finding>, String> {
    let read = |paths: Vec<PathBuf>| -> Result<Vec<SourceFile>, String> {
        paths
            .iter()
            .map(|rel| {
                let abs = root.join(rel);
                let source =
                    fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
                Ok(SourceFile::parse(&rel.to_string_lossy(), &source))
            })
            .collect()
    };
    let files = read(source_files(root)?)?;
    let refs = read(reference_files(root)?)?;
    Ok(check_sources(files, refs))
}

/// Runs every rule: the per-file rules on each token stream, the flow
/// rules ([`flow`]) once over `files`, and [`dead_pub`] over `files`
/// plus the reference-only `refs`. Findings come back sorted.
#[must_use]
pub fn check_sources(mut files: Vec<SourceFile>, refs: Vec<SourceFile>) -> Vec<Finding> {
    let mut findings: Vec<Finding> = files.iter().flat_map(rules::check_file).collect();
    findings.extend(flow::check_workspace_files(&files));
    files.extend(refs);
    findings.extend(dead_pub::check(&files));
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    findings
}

/// Full run: walk, check, subtract the allowlist at `allow_path`.
pub fn check_workspace(root: &Path, allow_path: &Path) -> Result<Applied, String> {
    let text = fs::read_to_string(allow_path)
        .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
    let allow = Allowlist::parse(&text)?;
    Ok(allow.apply(collect_findings(root)?))
}

/// Ascends from `start` to the first directory containing
/// `lint-allow.toml` — the workspace root for lint purposes.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("lint-allow.toml").is_file() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
