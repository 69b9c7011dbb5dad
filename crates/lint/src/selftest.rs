//! `oisa-lint self-test`: proves every rule fires on a bad fixture and
//! stays quiet on the matching good fixture.
//!
//! Fixtures live in `crates/lint/fixtures/` (embedded at compile time,
//! so the binary self-tests from any working directory). Each is
//! checked under a *virtual* workspace path that puts it in the rule's
//! scope — the fixtures directory itself is never walked by a normal
//! run. Per-file **and** workspace rules all run on every fixture: the
//! workspace rules see the fixture as a one-file virtual workspace, and
//! any stray finding from another rule fails the case. The `dead-pub`
//! cases add an outside file that names the fixture's live API, so the
//! other fixtures keep their items `pub(crate)`.

use crate::check_sources;
use crate::rules::{self as r, SourceFile};

struct Case {
    /// Fixture file name, for reporting.
    name: &'static str,
    /// Embedded fixture source.
    source: &'static str,
    /// Virtual path that places the fixture in the rule's scope.
    virtual_path: &'static str,
    /// Rule expected to fire (all cases must trip *only* this rule).
    rule: &'static str,
    /// Exact number of findings expected.
    expect: usize,
    /// Reference-only files `(virtual path, source)` that `dead-pub`
    /// reads for names.
    refs: &'static [(&'static str, &'static str)],
}

/// The outside half of the `dead-pub` cases: a benchmark file naming
/// the API it uses.
const DEAD_PUB_OUTSIDE: &[(&str, &str)] = &[(
    "oisabench/src/lint_fixture.rs",
    include_str!("../fixtures/dead_pub_outside.rs"),
)];

const CASES: &[Case] = &[
    Case {
        name: "unsafe_bad.rs",
        source: include_str!("../fixtures/unsafe_bad.rs"),
        virtual_path: "crates/device/src/lint_fixture.rs",
        rule: r::RULE_UNSAFE,
        expect: 1,
        refs: &[],
    },
    Case {
        name: "unsafe_good.rs",
        source: include_str!("../fixtures/unsafe_good.rs"),
        virtual_path: "crates/device/src/lint_fixture.rs",
        rule: r::RULE_UNSAFE,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "wallclock_bad.rs",
        source: include_str!("../fixtures/wallclock_bad.rs"),
        virtual_path: "crates/optics/src/lint_fixture.rs",
        rule: r::RULE_WALLCLOCK,
        // Two clock types, each named in the `use` and at a call site.
        expect: 4,
        refs: &[],
    },
    Case {
        name: "wallclock_good.rs",
        source: include_str!("../fixtures/wallclock_good.rs"),
        virtual_path: "crates/optics/src/lint_fixture.rs",
        rule: r::RULE_WALLCLOCK,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "float_wire_bad.rs",
        source: include_str!("../fixtures/float_wire_bad.rs"),
        virtual_path: "crates/core/src/backend/mod.rs",
        rule: r::RULE_FLOAT_WIRE,
        // One float `==`, one `{x:.6}` format spec.
        expect: 2,
        refs: &[],
    },
    Case {
        name: "float_wire_good.rs",
        source: include_str!("../fixtures/float_wire_good.rs"),
        virtual_path: "crates/core/src/backend/mod.rs",
        rule: r::RULE_FLOAT_WIRE,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "tags_bad.rs",
        source: include_str!("../fixtures/tags_bad.rs"),
        virtual_path: "crates/core/src/wire.rs",
        rule: r::RULE_TAG_REGISTRY,
        // One value collision.
        expect: 1,
        refs: &[],
    },
    Case {
        name: "tags_good.rs",
        source: include_str!("../fixtures/tags_good.rs"),
        virtual_path: "crates/core/src/wire.rs",
        rule: r::RULE_TAG_REGISTRY,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "spawn_bad.rs",
        source: include_str!("../fixtures/spawn_bad.rs"),
        virtual_path: "crates/nn/src/lint_fixture.rs",
        rule: r::RULE_BARE_SPAWN,
        expect: 1,
        refs: &[],
    },
    Case {
        name: "spawn_good.rs",
        source: include_str!("../fixtures/spawn_good.rs"),
        virtual_path: "crates/core/src/backend/lint_fixture.rs",
        rule: r::RULE_BARE_SPAWN,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "lock_order_bad.rs",
        source: include_str!("../fixtures/lock_order_bad.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_LOCK_ORDER,
        // One cycle in the queue/stats order graph.
        expect: 1,
        refs: &[],
    },
    Case {
        name: "lock_order_good.rs",
        source: include_str!("../fixtures/lock_order_good.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_LOCK_ORDER,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "panic_bad.rs",
        source: include_str!("../fixtures/panic_bad.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_PANIC,
        // One `.unwrap()` two call edges below the entry point.
        expect: 1,
        refs: &[],
    },
    Case {
        name: "panic_good.rs",
        source: include_str!("../fixtures/panic_good.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_PANIC,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "taint_bad.rs",
        source: include_str!("../fixtures/taint_bad.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_TAINT,
        // One tainted local reaching `wire::encode_header`.
        expect: 1,
        refs: &[],
    },
    Case {
        name: "taint_good.rs",
        source: include_str!("../fixtures/taint_good.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_TAINT,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "layering_bad.rs",
        source: include_str!("../fixtures/layering_bad.rs"),
        virtual_path: "crates/device/src/lint_fixture.rs",
        rule: r::RULE_LAYERING,
        expect: 1,
        refs: &[],
    },
    Case {
        name: "layering_good.rs",
        source: include_str!("../fixtures/layering_good.rs"),
        virtual_path: "crates/device/src/lint_fixture.rs",
        rule: r::RULE_LAYERING,
        expect: 0,
        refs: &[],
    },
    Case {
        name: "dead_pub_bad.rs",
        source: include_str!("../fixtures/dead_pub_bad.rs"),
        virtual_path: "crates/optics/src/lint_fixture.rs",
        rule: r::RULE_DEAD_PUB,
        // One fn named only in its own doc and crate, one const named
        // only in its own crate.
        expect: 2,
        refs: DEAD_PUB_OUTSIDE,
    },
    Case {
        name: "dead_pub_good.rs",
        source: include_str!("../fixtures/dead_pub_good.rs"),
        virtual_path: "crates/optics/src/lint_fixture.rs",
        rule: r::RULE_DEAD_PUB,
        expect: 0,
        refs: DEAD_PUB_OUTSIDE,
    },
];

/// Runs every fixture case. `Ok(report)` when all pass; `Err(report)`
/// listing the failures otherwise.
pub fn run() -> Result<String, String> {
    let mut report = String::new();
    let mut failures = 0usize;
    let mut fired: Vec<&'static str> = Vec::new();
    for case in CASES {
        let file = SourceFile::parse(case.virtual_path, case.source);
        let refs = case
            .refs
            .iter()
            .map(|(path, source)| SourceFile::parse(path, source))
            .collect();
        let findings = check_sources(vec![file], refs);
        let (hits, strays): (Vec<_>, Vec<_>) =
            findings.into_iter().partition(|f| f.rule == case.rule);
        let ok = hits.len() == case.expect && strays.is_empty();
        if ok {
            if case.expect > 0 {
                fired.push(case.rule);
            }
            report.push_str(&format!(
                "ok   {:<20} {} x{}\n",
                case.name, case.rule, case.expect
            ));
        } else {
            failures += 1;
            report.push_str(&format!(
                "FAIL {:<20} expected {} x{}, got x{}; {} stray finding(s)\n",
                case.name,
                case.rule,
                case.expect,
                hits.len(),
                strays.len()
            ));
            for f in hits.iter().chain(strays.iter()) {
                report.push_str(&format!(
                    "       {}:{}:{} [{}] {}\n",
                    f.path, f.line, f.col, f.rule, f.message
                ));
            }
        }
    }
    // Defense in depth: every rule in the catalogue must have fired on
    // at least one bad fixture.
    for rule in r::ALL_RULES {
        if !fired.contains(rule) {
            failures += 1;
            report.push_str(&format!("FAIL no fixture exercises rule `{rule}`\n"));
        }
    }
    report.push_str(&format!(
        "self-test: {} case(s), {} failure(s)\n",
        CASES.len(),
        failures
    ));
    if failures == 0 {
        Ok(report)
    } else {
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        if let Err(report) = super::run() {
            panic!("{report}");
        }
    }
}
