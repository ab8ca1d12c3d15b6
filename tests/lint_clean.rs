//! The live workspace must be `sos-lint`-clean: zero findings, and
//! every allow in effect must suppress something and carry a reason.
//! This is the same gate CI runs via the binary; failing here means a
//! new violation (or a stale allow) slipped into production code.
//! Beside it, three checks of the same kind: the scoreboard, and two on
//! files `sos-lint` does not read, the workspace manifests and the
//! changelog.

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
    ("no-panic", 5),
    ("no-wallclock", 0),
    ("no-hash-order", 0),
    ("no-narrow-cast", 5),
    ("no-unbounded-prealloc", 1),
];

/// The scoreboard's ceilings: non-test lines of code and public items.
/// Like the allows, a ratchet: a PR that grows either number raises the
/// constant in its own diff.
const SCOREBOARD_CEILINGS: (usize, usize) = (16_915, 1_078);

/// The scoreboard, counted over `crates/*/src` and `src`: in each file,
/// the lines before the first `#[cfg(test)]` that are neither blank nor
/// comments, and among them the public items (`pub fn`, `pub struct`,
/// `pub enum`, `pub trait`, `pub const`, `pub static`, `pub type`,
/// `pub mod`, `pub use`).
#[test]
fn scoreboard_stays_under_its_ceilings() {
    fn rust_files(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    const KINDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let (mut loc, mut public) = (0, 0);
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source file");
        let code = text
            .lines()
            .map(str::trim)
            .take_while(|line| !line.starts_with("#[cfg(test)]"))
            .filter(|line| !line.is_empty() && !line.starts_with("//"));
        for line in code {
            loc += 1;
            let kind = line.strip_prefix("pub ").and_then(|rest| {
                rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
            });
            if kind.is_some_and(|word| KINDS.contains(&word)) {
                public += 1;
            }
        }
    }
    assert!(files.len() > 100, "scan looks wrong: {} files", files.len());
    let (loc_ceiling, public_ceiling) = SCOREBOARD_CEILINGS;
    assert!(
        loc <= loc_ceiling,
        "{loc} non-test LOC, ceiling {loc_ceiling}"
    );
    assert!(
        public <= public_ceiling,
        "{public} public items, ceiling {public_ceiling}"
    );
}

/// A vendored stand-in exists for its dependents: one that no member's
/// manifest names through `workspace = true` builds on every
/// `cargo build` and serves nobody.
#[test]
fn every_vendored_crate_has_a_dependent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |dir: &str| {
        std::fs::read_to_string(root.join(dir).join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("{dir}/Cargo.toml: {e}"))
    };
    let workspace = read(".");
    // The quoted strings of the root manifest's `members = [ … ]`.
    let members: Vec<&str> = workspace
        .split_once("\nmembers = [")
        .and_then(|(_, rest)| rest.split(']').next())
        .map(|body| body.split('"').skip(1).step_by(2).collect())
        .unwrap_or_default();
    let vendored: Vec<&str> = members
        .iter()
        .filter_map(|dir| dir.strip_prefix("vendor/"))
        .collect();
    assert!(
        !vendored.is_empty(),
        "members parse looks wrong: {members:?}"
    );
    let manifests: Vec<String> = members.iter().map(|dir| read(dir)).collect();
    for name in vendored {
        let edge = format!("{name} = {{ workspace = true");
        assert!(
            std::iter::once(&workspace)
                .chain(&manifests)
                .any(|text| text.lines().any(|l| l.starts_with(&edge))),
            "vendor/{name} is a workspace member nothing depends on"
        );
    }
}

/// ROADMAP item 9's cap on a changelog entry, from the PR that set it.
#[test]
fn changelog_entries_stay_under_the_cap() {
    const CAP: usize = 1500;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let log = std::fs::read_to_string(root.join("CHANGES.md")).expect("CHANGES.md");
    let mut capped = 0;
    for line in log.lines() {
        let number = line
            .strip_prefix("PR ")
            .and_then(|rest| rest.split_once(':'))
            .and_then(|(n, _)| n.parse::<u32>().ok());
        if let Some(n) = number.filter(|n| *n >= 23) {
            capped += 1;
            let len = line.chars().count();
            assert!(len <= CAP, "PR {n}: {len} characters, cap {CAP}");
        }
    }
    assert!(capped > 0, "no `PR n:` line with n >= 23 found");
}
