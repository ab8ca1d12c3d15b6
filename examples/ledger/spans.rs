//! The ledger's own spans: one record per call into a layer, kept in
//! memory and written out when the run ends.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span that
//! caused it, and a request id (scheme or encounter index). A layer's
//! *self* time is its span minus the part its child spans cover; the
//! root's self time is the wall no span explains, reported as
//! `ledger.unattributed_share`. With tracing off `enter`/`exit` cost
//! one branch and read no clock.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// At most this many spans are written to the trace file (all of them
/// are still aggregated); the file says how many were left out.
const MAX_WRITTEN: usize = 200_000;

#[derive(Clone, Copy, Debug)]
struct Rec {
    name: &'static str,
    req: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every recorded span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    pub fn mean_ns(&self) -> f64 {
        self.mean_us() * 1e3
    }
}

/// An open span; hand it back to [`Spans::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Token(u32);

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    recs: Vec<Rec>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: stats::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Drops every record (a new traced repetition starts clean).
    pub fn clear(&mut self) {
        self.recs.clear();
        self.open.clear();
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u32) -> Token {
        if !self.on {
            return Token(NO_PARENT);
        }
        let id = self.recs.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.recs.push(Rec {
            name,
            req,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Token(id)
    }

    #[inline]
    pub fn exit(&mut self, token: Token) {
        if token.0 == NO_PARENT {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        // Spans nest strictly: the token being closed is the innermost.
        debug_assert_eq!(self.open.last(), Some(&token.0));
        self.open.pop();
        self.recs[token.0 as usize].end_ns = end_ns;
    }

    /// A leaf span around one call into a layer.
    #[inline]
    pub fn call<O>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> O) -> O {
        let token = self.enter(name, req);
        let out = f();
        self.exit(token);
        out
    }

    /// Totals per span name, with self time = span − direct children.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for rec in &self.recs {
            if rec.parent != NO_PARENT {
                child_ns[rec.parent as usize] += rec.end_ns - rec.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (rec, covered) in self.recs.iter().zip(&child_ns) {
            let total = rec.end_ns - rec.start_ns;
            let agg = out.entry(rec.name).or_default();
            agg.calls += 1;
            agg.total_ns += total;
            agg.self_ns += total.saturating_sub(*covered);
        }
        out
    }

    /// Writes the spans as one JSON document: a header, then one array
    /// row per span `[id, parent, "name", req, start_ns, end_ns]`
    /// (`parent` −1 for a root).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.recs.len().min(MAX_WRITTEN);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"spans_written\":{written},",
            self.recs.len()
        )?;
        writeln!(
            out,
            "\"columns\":[\"id\",\"parent\",\"name\",\"req\",\"start_ns\",\"end_ns\"],\"spans\":["
        )?;
        for (id, rec) in self.recs.iter().take(written).enumerate() {
            let parent = if rec.parent == NO_PARENT {
                -1
            } else {
                i64::from(rec.parent)
            };
            let comma = if id + 1 == written { "" } else { "," };
            writeln!(
                out,
                "[{id},{parent},\"{}\",{},{},{}]{comma}",
                rec.name, rec.req, rec.start_ns, rec.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
