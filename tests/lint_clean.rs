//! The live workspace must be `sos-lint`-clean: zero findings, and
//! every allow in effect must suppress something and carry a reason.
//! This is the same gate CI runs via the binary; failing here means a
//! new violation (or a stale allow) slipped into production code.
//! Beside it, four checks of the same kind: the scoreboard, and three on
//! files `sos-lint` does not read, the workspace manifests, the
//! changelog and the documents.

use sos_lint::{lint_workspace, Config};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

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
    ("no-unbounded-prealloc", 0),
];

/// The scoreboard's ceilings: non-test lines of code and public items.
/// Like the allows, a ratchet: a PR that grows either number raises the
/// constant in its own diff.
const SCOREBOARD_CEILINGS: (usize, usize) = (17_005, 1_080);

/// The scoreboard, counted over `crates/*/src` and `src`: in each file,
/// the lines before the first `#[cfg(test)]` that are neither blank nor
/// comments, and among them the public items (`pub fn`, `pub struct`,
/// `pub enum`, `pub trait`, `pub const`, `pub static`, `pub type`,
/// `pub mod`, `pub use`).
#[test]
fn scoreboard_stays_under_its_ceilings() {
    const KINDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = source_files(root);
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

/// Every `.rs` file under `crates/*/src` and `src`.
fn source_files(root: &Path) -> Vec<PathBuf> {
    fn rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
}

/// Every name a workspace path may be built from, by a line scan of
/// `crates/*/src` and `src`: the crates (`sos`, `sos_crypto`, ...), the
/// modules a file or a `mod` line declares, every `fn`, `struct`,
/// `enum`, `trait`, `type`, `const`, `static`, `union` and
/// `macro_rules!` name, every `use ... as` alias, and every line that
/// opens with a capitalised name and a `,`, `(`, `{` or `=` (enum
/// variants, and some expressions: the index errs on the side of
/// knowing a name).
fn symbol_index(root: &Path) -> BTreeSet<String> {
    const QUALIFIERS: [&str; 9] = [
        "pub", "crate", "super", "in", "self", "async", "unsafe", "extern", "C",
    ];
    const ITEMS: [&str; 11] = [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "mut",
        "mod",
        "union",
        "macro_rules",
    ];
    let mut index = BTreeSet::from(["sos".to_string()]);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = krate.expect("crate entry").path().join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        if let Some(name) = text.lines().find_map(|l| l.strip_prefix("name = ")) {
            index.insert(name.trim_matches('"').replace('-', "_"));
        }
    }
    for file in source_files(root) {
        let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        index.insert(stem.to_string());
        for line in std::fs::read_to_string(&file).expect("source").lines() {
            let line = line.trim();
            let words: Vec<&str> = line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect();
            let mut rest = words.iter().skip_while(|w| QUALIFIERS.contains(w));
            let mut rest = rest.by_ref().skip_while(|w| ITEMS.contains(w)).peekable();
            let declared = words.iter().any(|w| ITEMS.contains(w))
                && words.iter().position(|w| ITEMS.contains(w))
                    == words.iter().position(|w| !QUALIFIERS.contains(w));
            if let Some(name) = rest.peek().filter(|_| declared) {
                index.insert(name.to_string());
            }
            if line.starts_with("use ") || line.starts_with("pub use ") {
                let aliases = words.windows(2).filter(|w| w[0] == "as");
                index.extend(aliases.map(|w| w[1].to_string()));
            }
            if let Some(first) = words.first().filter(|w| line.starts_with(**w)) {
                let after = line[first.len()..].chars().next();
                let capitalised = first.starts_with(|c: char| c.is_ascii_uppercase());
                if capitalised && after.is_none_or(|c| ",({ =".contains(c)) {
                    index.insert(first.to_string());
                }
            }
        }
    }
    index
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

/// What `README.md` and `docs/*.md` tell a reader to run or open must
/// exist: every `repro <command>` (a match arm of the binary),
/// `--example <name>`, `--bench <name>`, repo-relative path in code,
/// relative link, and Rust path into the workspace (`a::b::c` whose
/// first segment is a workspace name: every segment must be one, see
/// `symbol_index`). Code is what lies between backticks: a fence's
/// three open a span its closing three end.
#[test]
fn documents_name_only_what_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repro = std::fs::read_to_string(root.join("crates/experiments/src/bin/repro.rs"))
        .expect("repro source");
    let symbols = symbol_index(root);
    let docs = std::fs::read_dir(root.join("docs")).expect("docs/");
    let documents = docs
        .map(|entry| entry.expect("docs entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "md"))
        .chain([root.join("README.md")]);
    const ROOTS: [&str; 6] = ["crates", "docs", "examples", "src", "tests", "vendor"];
    let trim = |token: &str| {
        token
            .trim_matches(|c| "`'\"()[],;.".contains(c))
            .to_string()
    };
    // Every name checked, and whether it exists.
    let mut named: Vec<(String, bool)> = Vec::new();
    for document in documents {
        let text = std::fs::read_to_string(&document).expect("document");
        let pieces: Vec<&str> = text.split('`').collect();
        for code in pieces.iter().skip(1).step_by(2) {
            let tokens: Vec<String> = code.split_whitespace().map(trim).collect();
            for (i, token) in tokens.iter().enumerate() {
                let next = tokens.get(i + 1).cloned().unwrap_or_default();
                // `Fe::invert(0)`, `TraceError::{A, B}`: the path before
                // the first character no path holds.
                let path = token
                    .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .next()
                    .unwrap_or("");
                let segments: Vec<&str> = path.split("::").filter(|s| !s.is_empty()).collect();
                if path.contains("::") && symbols.contains(segments[0]) {
                    let known = segments.iter().all(|s| symbols.contains(*s));
                    named.push((path.to_string(), known));
                }
                match token.as_str() {
                    "repro" => {
                        // Skip `--` and every flag with its value.
                        let mut j = i + 1;
                        while tokens.get(j).is_some_and(|t| t.starts_with("--")) {
                            j += if tokens[j] == "--" { 1 } else { 2 };
                        }
                        let command = tokens.get(j).map_or("", String::as_str);
                        if !command.is_empty() && command.chars().all(|c| c.is_ascii_alphanumeric())
                        {
                            let arm = repro.contains(&format!("\"{command}\" =>"));
                            named.push((format!("repro {command}"), arm));
                        }
                    }
                    "--example" => {
                        let file = root.join(format!("examples/{next}.rs"));
                        let exists = file.exists() || root.join("examples").join(&next).is_dir();
                        named.push((format!("--example {next}"), exists));
                    }
                    "--bench" => {
                        let file = root.join(format!("crates/bench/benches/{next}.rs"));
                        named.push((format!("--bench {next}"), file.exists()));
                    }
                    path if ROOTS.contains(&path.split('/').next().unwrap_or(""))
                        && path.contains('/')
                        && !path.contains(|c| "*{<$".contains(c)) =>
                    {
                        // A `file.rs:123` location names the file.
                        let file = path.split(':').next().unwrap_or(path);
                        named.push((path.to_string(), root.join(file).exists()));
                    }
                    _ => {}
                }
            }
        }
        let base = document.parent().unwrap_or(root);
        let prose = pieces.iter().step_by(2);
        for link in prose.flat_map(|p| p.split("](").skip(1)) {
            let target = link.split(')').next().unwrap_or("");
            let file = target.split('#').next().unwrap_or("");
            let exists = file.contains("://") || base.join(file).exists();
            named.push((target.to_string(), exists));
        }
    }
    assert!(named.len() > 50, "scan looks wrong: {named:?}");
    let missing: Vec<_> = named.iter().filter(|(_, exists)| !exists).collect();
    assert!(missing.is_empty(), "named but missing: {missing:?}");
}
