//! `trace_codec`: the researcher's import path over a 200-node × 28-day
//! synthetic trace: both codecs in both directions, a CONN-log import
//! through the sanitizer, and the analytics pass. The only workload
//! `sos-trace` dominates; writes (encode) sit beside reads (decode) of
//! the same format.

use super::{Counts, Layers, Rep, Traced, Workload};
use crate::spans::Spans;
use crate::stats::{self, Fingerprint};
use crate::sut;
use std::fmt::Write as _;

const NODES: usize = 200;
const DAYS: u64 = 28;
/// Five nodes to a community: about half a million transitions.
const COMMUNITIES: usize = 40;

/// Passes over the trace per repetition: two encodes, two decodes, one
/// import, one analytics.
const PASSES: u64 = 6;

pub struct TraceCodec {
    trace: sut::Trace,
    /// The ledger's own CONN rendering of the trace: what a published
    /// corpus of it would look like.
    conn: String,
    gen_events_per_s: f64,
    binary_len: usize,
}

/// `<time_s> CONN <a> <b> <up|down>` per transition, 1-based device ids
/// as the iMote corpora have them.
fn render_conn(trace: &sut::Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 28);
    for t in sut::transitions(trace) {
        let _ = writeln!(
            out,
            "{}.{:03} CONN {} {} {}",
            t.millis / 1000,
            t.millis % 1000,
            t.a + 1,
            t.b + 1,
            if t.up { "up" } else { "down" }
        );
    }
    out
}

impl Workload for TraceCodec {
    const NAME: &'static str = "trace_codec";

    fn setup(seed: u64) -> TraceCodec {
        let (trace, gen) = stats::timed(|| sut::social_trace(NODES, DAYS, COMMUNITIES, seed));
        TraceCodec {
            gen_events_per_s: trace.len() as f64 / gen.as_secs_f64(),
            conn: render_conn(&trace),
            trace,
            binary_len: 0,
        }
    }

    fn fingerprint_inputs(&self, fp: &mut Fingerprint) {
        fp.str(&self.conn);
    }

    fn rep(&mut self, _observed: bool, spans: &mut Spans) -> Rep {
        let events = self.trace.len() as u64;
        let mut counts = Counts {
            contacts: events * PASSES,
            ..Counts::default()
        };
        let mut fp = Fingerprint::default();
        let mut survived = 0u64;

        let root = spans.enter("ledger.rep", 0);
        let start = stats::now();
        let binary = spans.call("trace.binary_encode", 0, || sut::to_binary(&self.trace));
        let from_binary = spans.call("trace.binary_decode", 0, || sut::from_binary(&binary));
        let text = spans.call("trace.text_encode", 0, || sut::to_text(&self.trace));
        let from_text = spans.call("trace.text_decode", 0, || sut::from_text(&text));
        let imported = spans.call("trace.import", 0, || sut::import_conn(self.conn.as_bytes()));
        let (nodes, contacts) = spans.call("trace.analytics", 0, || sut::analytics(&self.trace));
        let wall = start.elapsed();
        spans.exit(root);

        self.binary_len = binary.len();
        fp.bytes(&binary).str(&text).u64(contacts as u64);
        for (what, decoded) in [("binary", from_binary), ("text", from_text)] {
            let same = decoded.as_ref().is_ok_and(|t| *t == self.trace);
            survived += if same { events } else { 0 };
            counts.check(same, || match decoded {
                Ok(_) => format!("{what} round trip changed the trace"),
                Err(e) => format!("{what} decode: {e}"),
            });
        }
        match imported {
            Ok((trace, accounts, repairs)) => {
                survived += trace.len() as u64;
                fp.u64(trace.len() as u64).u64(repairs as u64);
                // The import loses distances, which a CONN log never
                // had; transitions and population must survive.
                let same = trace.len() as u64 == events && trace.node_count() == nodes;
                counts.check(same && accounts && repairs == 0, || {
                    format!(
                        "import kept {} of {events} events, {repairs} repairs, accounts: {accounts}",
                        trace.len()
                    )
                });
            }
            Err(e) => {
                counts.attempted += 1;
                counts.fail(format!("import: {e}"));
            }
        }
        counts.check(nodes == NODES && contacts as u64 * 2 == events, || {
            format!("analytics saw {nodes} nodes and {contacts} contacts over {events} events")
        });
        counts.delivery_ratio = survived as f64 / (3 * events) as f64;
        counts.seal(fp);
        Rep {
            wall,
            counts,
            latencies_ns: Vec::new(),
        }
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers, _checks: &mut Counts) {
        let events = self.trace.len() as f64;
        let lines = self.conn.lines().count() as f64;
        for (metric, span) in [
            ("trace.binary_encode_ns_per_event", "trace.binary_encode"),
            ("trace.binary_decode_ns_per_event", "trace.binary_decode"),
            ("trace.text_encode_ns_per_event", "trace.text_encode"),
            ("trace.text_decode_ns_per_event", "trace.text_decode"),
        ] {
            out.insert(metric, traced.span(span).mean_ns() / events);
        }
        out.insert(
            "trace.import_ns_per_line",
            traced.span("trace.import").mean_ns() / lines,
        );
        out.insert(
            "trace.analytics_ms",
            traced.span("trace.analytics").mean_us() / 1e3,
        );
        out.insert("trace.gen_events_per_s", self.gen_events_per_s);
        out.insert(
            "trace.binary_bytes_per_event",
            self.binary_len as f64 / events,
        );
    }
}
