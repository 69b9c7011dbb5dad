//! The repo-pinning test: the full rule set over the whole workspace
//! must report zero non-allowlisted findings — and no stale allowlist
//! headroom, so budgets can only ratchet down.

use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn workspace_is_clean_under_all_rules() {
    let root = workspace_root();
    let applied = oisa_lint::check_workspace(root, &root.join("lint-allow.toml"))
        .expect("lint run must complete");
    let rendered = oisa_lint::report::human(&applied);
    assert!(
        applied.active.is_empty(),
        "non-allowlisted lint findings:\n{rendered}"
    );
    assert!(
        applied.stale.is_empty(),
        "stale allowlist entries (ratchet the budgets down):\n{rendered}"
    );
}

#[test]
fn the_walk_actually_covers_the_workspace() {
    // Guard against a silent walker regression reporting "clean"
    // because it visited nothing.
    let files = oisa_lint::source_files(workspace_root()).expect("walk must complete");
    assert!(
        files.len() >= 40,
        "suspiciously few files walked: {}",
        files.len()
    );
    let as_str: Vec<String> = files
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    for must_see in [
        "crates/core/src/wire.rs",
        "crates/device/src/noise.rs",
        "crates/optics/src/arm.rs",
        "src/lib.rs",
    ] {
        assert!(as_str.iter().any(|p| p == must_see), "missing {must_see}");
    }
    assert!(
        !as_str.iter().any(|p| p.contains("crates/lint/fixtures")),
        "the fixtures directory must never be walked"
    );
}

#[test]
fn embedded_fixture_selftest_passes() {
    if let Err(report) = oisa_lint::selftest::run() {
        panic!("{report}");
    }
}
