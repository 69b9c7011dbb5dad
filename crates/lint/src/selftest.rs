//! `oisa-lint self-test`: proves every rule fires on a bad fixture and
//! stays quiet on the matching good fixture.
//!
//! Fixtures live in `crates/lint/fixtures/` (embedded at compile time,
//! so the binary self-tests from any working directory). Each is
//! checked under a *virtual* workspace path that puts it in the rule's
//! scope — the fixtures directory itself is never walked by a normal
//! run. Per-file **and** workspace (flow) rules both run on every
//! fixture: the flow rules see the fixture as a one-file virtual
//! workspace, and any stray finding from another rule fails the case.

use crate::rules::{self, SourceFile};
use crate::{flow, rules as r};

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
}

const CASES: &[Case] = &[
    Case {
        name: "unsafe_bad.rs",
        source: include_str!("../fixtures/unsafe_bad.rs"),
        virtual_path: "crates/device/src/lint_fixture.rs",
        rule: r::RULE_UNSAFE,
        expect: 1,
    },
    Case {
        name: "unsafe_good.rs",
        source: include_str!("../fixtures/unsafe_good.rs"),
        virtual_path: "crates/device/src/lint_fixture.rs",
        rule: r::RULE_UNSAFE,
        expect: 0,
    },
    Case {
        name: "wallclock_bad.rs",
        source: include_str!("../fixtures/wallclock_bad.rs"),
        virtual_path: "crates/optics/src/lint_fixture.rs",
        rule: r::RULE_WALLCLOCK,
        // Two clock types, each named in the `use` and at a call site.
        expect: 4,
    },
    Case {
        name: "wallclock_good.rs",
        source: include_str!("../fixtures/wallclock_good.rs"),
        virtual_path: "crates/optics/src/lint_fixture.rs",
        rule: r::RULE_WALLCLOCK,
        expect: 0,
    },
    Case {
        name: "float_wire_bad.rs",
        source: include_str!("../fixtures/float_wire_bad.rs"),
        virtual_path: "crates/core/src/backend/mod.rs",
        rule: r::RULE_FLOAT_WIRE,
        // One float `==`, one `{x:.6}` format spec.
        expect: 2,
    },
    Case {
        name: "float_wire_good.rs",
        source: include_str!("../fixtures/float_wire_good.rs"),
        virtual_path: "crates/core/src/backend/mod.rs",
        rule: r::RULE_FLOAT_WIRE,
        expect: 0,
    },
    Case {
        name: "tags_bad.rs",
        source: include_str!("../fixtures/tags_bad.rs"),
        virtual_path: "crates/core/src/wire.rs",
        rule: r::RULE_TAG_REGISTRY,
        // One value collision.
        expect: 1,
    },
    Case {
        name: "tags_good.rs",
        source: include_str!("../fixtures/tags_good.rs"),
        virtual_path: "crates/core/src/wire.rs",
        rule: r::RULE_TAG_REGISTRY,
        expect: 0,
    },
    Case {
        name: "spawn_bad.rs",
        source: include_str!("../fixtures/spawn_bad.rs"),
        virtual_path: "crates/nn/src/lint_fixture.rs",
        rule: r::RULE_BARE_SPAWN,
        expect: 1,
    },
    Case {
        name: "spawn_good.rs",
        source: include_str!("../fixtures/spawn_good.rs"),
        virtual_path: "crates/core/src/backend/lint_fixture.rs",
        rule: r::RULE_BARE_SPAWN,
        expect: 0,
    },
    Case {
        name: "lock_order_bad.rs",
        source: include_str!("../fixtures/lock_order_bad.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_LOCK_ORDER,
        // One cycle in the queue/stats order graph.
        expect: 1,
    },
    Case {
        name: "lock_order_good.rs",
        source: include_str!("../fixtures/lock_order_good.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_LOCK_ORDER,
        expect: 0,
    },
    Case {
        name: "panic_bad.rs",
        source: include_str!("../fixtures/panic_bad.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_PANIC,
        // One `.unwrap()` two call edges below the entry point.
        expect: 1,
    },
    Case {
        name: "panic_good.rs",
        source: include_str!("../fixtures/panic_good.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_PANIC,
        expect: 0,
    },
    Case {
        name: "taint_bad.rs",
        source: include_str!("../fixtures/taint_bad.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_TAINT,
        // One tainted local reaching `wire::encode_header`.
        expect: 1,
    },
    Case {
        name: "taint_good.rs",
        source: include_str!("../fixtures/taint_good.rs"),
        virtual_path: "crates/core/src/lint_fixture.rs",
        rule: r::RULE_TAINT,
        expect: 0,
    },
    Case {
        name: "layering_bad.rs",
        source: include_str!("../fixtures/layering_bad.rs"),
        virtual_path: "crates/device/src/lint_fixture.rs",
        rule: r::RULE_LAYERING,
        expect: 1,
    },
    Case {
        name: "layering_good.rs",
        source: include_str!("../fixtures/layering_good.rs"),
        virtual_path: "crates/device/src/lint_fixture.rs",
        rule: r::RULE_LAYERING,
        expect: 0,
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
        let mut findings = rules::check_file(&file);
        findings.extend(flow::check_workspace_files(std::slice::from_ref(&file)));
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
    for rule in rules::ALL_RULES {
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
