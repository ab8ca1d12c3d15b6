//! The rules. Each is grounded in a bug class this repository has
//! already paid for; the README "Static analysis" section carries the
//! full rationale and the PR that motivated each rule.

use crate::config::Config;
use crate::lexer::{Tok, TokKind};

/// Stable rule identifiers (also the names used in `allow(...)`).
pub const RULE_NO_PANIC: &str = "no-panic";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_WALLCLOCK: &str = "no-wallclock";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_HASH_ORDER: &str = "no-hash-order";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_NARROW_CAST: &str = "no-narrow-cast";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_UNBOUNDED_PREALLOC: &str = "no-unbounded-prealloc";
/// Meta-rule for malformed or unused `sos-lint: allow(...)` comments.
pub const RULE_ALLOW: &str = "allow";

/// Every real (allowable) rule id, in report order.
pub const ALL_RULES: [&str; 5] = [
    RULE_NO_PANIC,
    RULE_NO_WALLCLOCK,
    RULE_NO_HASH_ORDER,
    RULE_NO_NARROW_CAST,
    RULE_NO_UNBOUNDED_PREALLOC,
];

/// One rule violation, before allow-suppression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`ALL_RULES`] or [`RULE_ALLOW`]).
    pub rule: &'static str,
    /// Path relative to the scan root, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human explanation with the fix direction.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// Everything the rules need to know about one production file.
pub struct FileCtx<'a> {
    /// Path relative to the scan root.
    pub rel_path: &'a str,
    /// Short crate name (`core`, `net`, ..., or `root`).
    pub crate_name: &'a str,
    /// Full token stream, comments included.
    pub toks: &'a [Tok<'a>],
    /// Indices into `toks` of non-comment tokens.
    pub code: &'a [usize],
    /// Source split into lines (for excerpts).
    pub lines: &'a [&'a str],
    /// Line ranges (inclusive) belonging to `#[cfg(test)]` / `#[test]`
    /// items.
    pub test_ranges: &'a [(u32, u32)],
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: self.rel_path.to_string(),
            line,
            message,
            excerpt: self.excerpt(line),
        }
    }

    /// The code token at `code[i + off]`, if any.
    fn code_tok(&self, i: usize, off: isize) -> Option<&Tok<'_>> {
        let j = i.checked_add_signed(off)?;
        Some(&self.toks[*self.code.get(j)?])
    }
}

/// Runs every applicable rule over one file.
pub fn run_rules(ctx: &FileCtx<'_>, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let wire_file = Config::path_matches(ctx.rel_path, &cfg.wire_files);
    if wire_file || cfg.panic_crates.iter().any(|c| c == ctx.crate_name) {
        no_panic(ctx, &mut out);
    }
    if !cfg
        .wallclock_exempt_crates
        .iter()
        .any(|c| c == ctx.crate_name)
    {
        no_wallclock(ctx, &mut out);
    }
    if Config::path_matches(ctx.rel_path, &cfg.ordered_output_files) {
        no_hash_order(ctx, &mut out);
    }
    if wire_file {
        no_narrow_cast(ctx, &mut out);
        no_unbounded_prealloc(ctx, &mut out);
    }
    out
}

/// R1 — decode/forward paths must return errors, not abort the process.
/// Motivated by PR 4 (panicking trace ingestion on malformed input).
/// Applies to the panic-free crates and to every wire file wherever it
/// lives: the shared byte reader sits in `sos-sim`, which is not one.
fn no_panic(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    for (i, &ti) in ctx.code.iter().enumerate() {
        let t = &ctx.toks[ti];
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let prev_dot = ctx.code_tok(i, -1).is_some_and(|p| p.text == ".");
        let next = ctx.code_tok(i, 1).map(|n| n.text);
        if (t.text == "unwrap" || t.text == "expect") && prev_dot && next == Some("(") {
            out.push(ctx.finding(
                RULE_NO_PANIC,
                t.line,
                format!(
                    "`.{}()` in production code of sos-{} — return the crate error type instead",
                    t.text, ctx.crate_name
                ),
            ));
        } else if PANIC_MACROS.contains(&t.text) && next == Some("!") {
            out.push(ctx.finding(
                RULE_NO_PANIC,
                t.line,
                format!(
                    "`{}!` in production code of sos-{} — return the crate error type instead",
                    t.text, ctx.crate_name
                ),
            ));
        }
    }
}

/// R2 — replay determinism: wall-clock reads outside sos-obs/sos-bench
/// would make record→replay byte-identity unreproducible.
fn no_wallclock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (i, &ti) in ctx.code.iter().enumerate() {
        let t = &ctx.toks[ti];
        if t.kind != TokKind::Ident
            || (t.text != "Instant" && t.text != "SystemTime")
            || ctx.in_test(t.line)
        {
            continue;
        }
        let sep = ctx.code_tok(i, 1).map(|n| n.text) == Some(":")
            && ctx.code_tok(i, 2).map(|n| n.text) == Some(":");
        let is_now = ctx.code_tok(i, 3).map(|n| n.text) == Some("now");
        if sep && is_now {
            out.push(ctx.finding(
                RULE_NO_WALLCLOCK,
                t.line,
                format!(
                    "`{}::now` outside sos-obs/sos-bench — wall-clock reads break \
                     deterministic replay; take time from SimTime/the timeline",
                    t.text
                ),
            ));
        }
    }
}

/// R3 — hash-iteration order must never feed frames or reports: two
/// runs of the same timeline would emit different bytes.
fn no_hash_order(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for &ti in ctx.code {
        let t = &ctx.toks[ti];
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.in_test(t.line)
        {
            out.push(ctx.finding(
                RULE_NO_HASH_ORDER,
                t.line,
                format!(
                    "`{}` in an ordered-output file — iteration order leaks into \
                     encoded frames/reports; use BTreeMap/BTreeSet or sort explicitly",
                    t.text
                ),
            ));
        }
    }
}

/// Width in bits of an integer type name, or `None` when not an
/// integer type. `usize`/`isize` are treated as 64-bit: the repo
/// targets 64-bit hosts (revisit before any 32-bit port).
fn int_width(name: &str) -> Option<u32> {
    Some(match name {
        "u8" | "i8" => 8,
        "u16" | "i16" => 16,
        "u32" | "i32" => 32,
        "u64" | "i64" | "usize" | "isize" => 64,
        "u128" | "i128" => 128,
        _ => return None,
    })
}

/// Calls whose result has a known width when they appear in a cast
/// operand (wire reads, lengths, and time extractors).
fn source_width(name: &str) -> Option<u32> {
    Some(match name {
        "u8" => 8,
        "u16" => 16,
        "u32" | "bits" => 32,
        "u64" | "varint" | "len" | "wire_size" | "capacity" | "as_millis" | "as_secs" => 64,
        _ => return None,
    })
}

/// R4 — the PR 5 saturation class: a cast on a wire- or time-derived
/// value that silently narrows (or truncates a float) corrupts frames
/// instead of erroring. Heuristic: the rule inspects the cast's own
/// source line for reads of known width (`.varint()`, `.len()`,
/// `uNN::from_le_bytes`, cursor `.u16()`...) and float producers
/// (`.round()`, `f64`); cross-line dataflow is out of scope — the
/// `clippy.toml` gate and code review carry the rest.
fn no_narrow_cast(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (i, &ti) in ctx.code.iter().enumerate() {
        let t = &ctx.toks[ti];
        if t.kind != TokKind::Ident || t.text != "as" || ctx.in_test(t.line) {
            continue;
        }
        let Some(target) = ctx.code_tok(i, 1) else {
            continue;
        };
        let Some(target_width) = int_width(target.text) else {
            continue;
        };
        // Operand heuristic: code tokens on the same physical line
        // before the `as`.
        let mut max_src_width = 0u32;
        let mut float_src = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let Some(p) = ctx.code_tok(j, 0) else { break };
            if p.line != t.line {
                break;
            }
            if p.kind != TokKind::Ident {
                continue;
            }
            let called = ctx.code_tok(j, 1).map(|n| n.text) == Some("(");
            match p.text {
                "round" | "trunc" | "ceil" | "floor" if called => float_src = true,
                "f64" | "f32" => float_src = true,
                "from_le_bytes" | "from_be_bytes" => {
                    // Width comes from the `uNN ::` path prefix (the
                    // `::` lexes as two `:` puncts, so 3 tokens back).
                    if let Some(w) = ctx
                        .code_tok(j, -3)
                        .and_then(|q| int_width(q.text).filter(|_| q.line == t.line))
                    {
                        max_src_width = max_src_width.max(w);
                    }
                }
                _ if called => {
                    if let Some(w) = source_width(p.text) {
                        max_src_width = max_src_width.max(w);
                    }
                }
                _ => {}
            }
        }
        if float_src {
            out.push(ctx.finding(
                RULE_NO_NARROW_CAST,
                t.line,
                format!(
                    "float → `{}` cast in a wire/adapter file truncates and saturates \
                     silently — guard the range first (see exact_millis_from_secs)",
                    target.text
                ),
            ));
        } else if max_src_width > target_width {
            out.push(ctx.finding(
                RULE_NO_NARROW_CAST,
                t.line,
                format!(
                    "cast narrows a {max_src_width}-bit wire/length value to `{}` — \
                     use a checked conversion that returns the codec's error",
                    target.text
                ),
            ));
        }
    }
}

/// R5 — the hostile-length class: preallocating from a wire-read count
/// without a visible cap lets a 5-byte header demand gigabytes.
/// An allocation passes when its argument shows a bound on the same
/// call: a `.min(...)`, a `MAX_`/`BUDGET`/`CAP` constant, a `.len()`
/// of a buffer already in memory, or literal-only arithmetic.
fn no_unbounded_prealloc(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const ALLOC_CALLS: [&str; 3] = ["with_capacity", "reserve", "resize"];
    for (i, &ti) in ctx.code.iter().enumerate() {
        let t = &ctx.toks[ti];
        if t.kind != TokKind::Ident
            || !ALLOC_CALLS.contains(&t.text)
            || ctx.in_test(t.line)
            || ctx.code_tok(i, 1).map(|n| n.text) != Some("(")
        {
            continue;
        }
        // Collect the argument tokens to the matching close paren.
        let mut depth = 0usize;
        let mut bounded = false;
        let mut literal_only = true;
        let mut j = i + 1;
        while let Some(p) = ctx.code_tok(j, 0) {
            match (p.kind, p.text) {
                (TokKind::Punct, "(") => depth += 1,
                (TokKind::Punct, ")") => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                (TokKind::Ident, name) => {
                    literal_only = false;
                    let called = ctx.code_tok(j, 1).map(|n| n.text) == Some("(");
                    if (called && (name == "min" || name == "len" || name == "capacity"))
                        || name.starts_with("MAX_")
                        || name.contains("BUDGET")
                        || name.contains("CAP")
                    {
                        bounded = true;
                    }
                }
                (TokKind::Number, _) | (TokKind::Punct, _) => {}
                _ => literal_only = false,
            }
            j += 1;
        }
        if !bounded && !literal_only {
            out.push(ctx.finding(
                RULE_NO_UNBOUNDED_PREALLOC,
                t.line,
                format!(
                    "`{}` from a non-literal size with no visible cap in a wire/adapter \
                     file — clamp with `.min(...)` or a MAX_ constant before allocating",
                    t.text
                ),
            ));
        }
    }
}
