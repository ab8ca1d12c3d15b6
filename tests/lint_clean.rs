//! The live workspace must be `sos-lint`-clean: zero findings, and
//! every allow in effect must suppress something and carry a reason.
//! This is the same gate CI runs via the binary; failing here means a
//! new violation (or a stale allow) slipped into production code.

use sos_lint::{lint_workspace, Config};
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root, &Config::sos_defaults()).expect("workspace scan");
    assert!(
        report.files_linted > 50,
        "scan looks wrong: only {} files linted",
        report.files_linted
    );
    assert!(
        report.is_clean(),
        "sos-lint found {} violation(s):\n{}",
        report.findings.len(),
        sos_lint::report::render_text(&report)
    );
    // The report is the audit trail for the escape hatch: every allow
    // was parsed with a non-empty reason (parse rejects empty ones) and
    // suppressed at least one finding (stale ones fail is_clean above).
    for allow in &report.allows {
        assert!(!allow.reason.is_empty(), "{}:{}", allow.file, allow.line);
        assert!(allow.suppressed > 0, "{}:{}", allow.file, allow.line);
    }
    // The escape hatch is a ratchet: a rule's allowed findings may fall
    // below its ceiling (lower the ceiling then), never rise above it.
    for (rule, ceiling) in ALLOW_CEILINGS {
        let allowed: u32 = report
            .allows
            .iter()
            .filter(|a| a.rules.iter().any(|r| r == rule))
            .map(|a| a.suppressed)
            .sum();
        assert!(
            allowed <= ceiling,
            "{rule}: {allowed} allowed findings, ceiling {ceiling}"
        );
    }
}

/// Allowed findings per rule at this commit (the scoreboard's "allow
/// counts" line).
const ALLOW_CEILINGS: [(&str, u32); 5] = [
    ("no-panic", 8),
    ("no-wallclock", 0),
    ("no-hash-order", 0),
    ("no-narrow-cast", 5),
    ("no-unbounded-prealloc", 1),
];
