//! Trace characterization: the encounter-level statistics the DTN
//! literature uses to compare workloads.
//!
//! Given any [`ContactTrace`] — recorded, replayed, imported, or
//! synthetic — this module computes contact-duration and
//! inter-contact-time distributions (the CCDF of inter-contact times
//! is *the* fingerprint of opportunistic-network datasets) and the
//! aggregate contact graph, fed into `sos-graph`'s metrics so a trace
//! can be compared against the paper's Fig. 4a social structure.

use crate::pair_table::PairTable;
use crate::record::ContactTrace;
use sos_graph::{GraphMetrics, Undirected};
use sos_sim::metrics::Cdf;
use sos_sim::world::ContactPhase;
use sos_sim::SimTime;
use std::fmt::Write as _;

/// What the one pass of [`TraceAnalytics::compute`] remembers of a
/// pair: when its open contact began, when its last closed one ended.
#[derive(Clone, Copy, Default)]
struct PairHistory {
    open_since: Option<SimTime>,
    last_end: Option<SimTime>,
}

/// Summary statistics of an encounter timeline.
#[derive(Clone, Debug)]
pub struct TraceAnalytics {
    /// Population size.
    pub nodes: usize,
    /// Closed contacts (intervals) in the trace.
    pub contacts: usize,
    /// Distinct pairs that ever met.
    pub unique_pairs: usize,
    /// Sum of all contact durations, hours.
    pub total_contact_hours: f64,
    /// Contact durations, minutes.
    pub duration_mins: Cdf,
    /// Per-pair gaps between consecutive meetings, hours.
    pub intercontact_hours: Cdf,
    /// Distance metrics of the aggregate contact graph (edge = the
    /// pair met at least once).
    pub graph: GraphMetrics,
    /// Undirected density of the aggregate contact graph.
    pub graph_density: f64,
    /// Transitivity (global clustering) of the aggregate contact graph.
    pub graph_transitivity: f64,
    /// Trace span: timestamp of the last event, hours.
    pub span_hours: f64,
}

impl TraceAnalytics {
    /// Computes every statistic from a trace. Contacts still open at
    /// the last event are closed there (matching the recorder's window
    /// semantics).
    pub fn compute(trace: &ContactTrace) -> TraceAnalytics {
        let end = trace.end_time();
        let mut durations = Vec::with_capacity(trace.len() / 2);
        let mut gaps = Vec::new();
        let mut total_ms = 0u64;
        // One contact: its duration, and the gap since the pair's
        // previous one. A pair's contacts follow each other in event
        // order, so "previous" is simply the last one closed; both
        // sample lists are sorted by `Cdf`, so the order in which
        // pairs contribute to them does not reach the result.
        let mut contact = |history: &mut PairHistory, start: SimTime, end: SimTime| {
            let length = (end - start).as_millis();
            durations.push(length as f64 / 60_000.0);
            total_ms += length;
            if let Some(previous) = history.last_end {
                gaps.push((start - previous).as_millis() as f64 / 3.6e6);
            }
            history.last_end = Some(end);
        };
        let mut pairs: PairTable<PairHistory> = PairTable::new();
        for ev in trace.events() {
            let history = pairs.slot(ev.a, ev.b);
            match ev.phase {
                ContactPhase::Up => history.open_since = Some(ev.time),
                ContactPhase::Down => {
                    if let Some(start) = history.open_since.take() {
                        contact(history, start, ev.time);
                    }
                }
            }
        }
        // Ascending by pair, as the aggregate graph has always been
        // built; contacts still open are closed at the last event.
        let mut graph = Undirected::new(trace.node_count());
        for ((a, b), mut history) in pairs.sorted() {
            graph.add_edge(a, b);
            if let Some(start) = history.open_since {
                contact(&mut history, start, end);
            }
        }

        TraceAnalytics {
            nodes: trace.node_count(),
            contacts: durations.len(),
            unique_pairs: pairs.len(),
            total_contact_hours: total_ms as f64 / 3.6e6,
            duration_mins: Cdf::from_samples(durations),
            intercontact_hours: Cdf::from_samples(gaps),
            graph: GraphMetrics::compute(&graph),
            graph_density: graph.density(),
            graph_transitivity: graph.transitivity(),
            span_hours: (end - SimTime::ZERO).as_hours_f64(),
        }
    }

    /// The inter-contact-time CCDF `P(gap > x)` evaluated at `xs`
    /// (hours) — the standard log-log plot of DTN trace papers.
    pub fn intercontact_ccdf(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter()
            .map(|&x| (x, self.intercontact_hours.fraction_gt(x)))
            .collect()
    }

    /// A multi-line human-readable summary.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} nodes over {:.1} h",
            self.nodes, self.span_hours
        );
        let _ = writeln!(
            out,
            "contacts: {} across {} pairs ({:.1} contact-hours total)",
            self.contacts, self.unique_pairs, self.total_contact_hours
        );
        if !self.duration_mins.is_empty() {
            let _ = writeln!(
                out,
                "contact duration mins: p50 {:.1}  p90 {:.1}  p99 {:.1}",
                self.duration_mins.quantile(0.50),
                self.duration_mins.quantile(0.90),
                self.duration_mins.quantile(0.99),
            );
        }
        if !self.intercontact_hours.is_empty() {
            let _ = writeln!(
                out,
                "inter-contact hours:   p50 {:.2}  p90 {:.2}  p99 {:.2}",
                self.intercontact_hours.quantile(0.50),
                self.intercontact_hours.quantile(0.90),
                self.intercontact_hours.quantile(0.99),
            );
            let _ = writeln!(out, "inter-contact CCDF (hours: P(gap > x)):");
            for (x, p) in self.intercontact_ccdf(&[0.5, 1.0, 2.0, 4.0, 8.0, 24.0]) {
                let _ = writeln!(out, "  > {x:5.1} h : {p:.3}");
            }
        }
        let _ = writeln!(
            out,
            "contact graph: density {:.3}, transitivity {:.3}, avg path {:.2}, \
             diameter {}, connected {}",
            self.graph_density,
            self.graph_transitivity,
            self.graph.average_shortest_path,
            self.graph.diameter,
            self.graph.connected,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_sim::world::{ContactEvent, ContactPhase};

    fn ev(t_mins: u64, a: usize, b: usize, phase: ContactPhase) -> ContactEvent {
        ContactEvent {
            time: SimTime::from_mins(t_mins),
            a,
            b,
            phase,
            distance_m: 10.0,
        }
    }

    fn triangle_trace() -> ContactTrace {
        use ContactPhase::{Down, Up};
        // 0-1 meet twice (gap 2 h), 1-2 and 0-2 once each.
        ContactTrace::new(
            3,
            Some(60.0),
            vec![
                ev(0, 0, 1, Up),
                ev(10, 0, 1, Down),
                ev(20, 1, 2, Up),
                ev(50, 1, 2, Down),
                ev(60, 0, 2, Up),
                ev(75, 0, 2, Down),
                ev(130, 0, 1, Up),
                ev(145, 0, 1, Down),
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_and_distributions() {
        let a = TraceAnalytics::compute(&triangle_trace());
        assert_eq!(a.nodes, 3);
        assert_eq!(a.contacts, 4);
        assert_eq!(a.unique_pairs, 3);
        // Durations: 10, 30, 15, 15 minutes.
        assert_eq!(a.duration_mins.len(), 4);
        assert!((a.duration_mins.quantile(1.0) - 30.0).abs() < 1e-9);
        assert!((a.total_contact_hours - 70.0 / 60.0).abs() < 1e-9);
        // One gap: 0-1 down at 10 min, next up at 130 min → 2 h.
        assert_eq!(a.intercontact_hours.len(), 1);
        assert!((a.intercontact_hours.quantile(0.5) - 2.0).abs() < 1e-9);
        // CCDF: everything above 1 h, nothing above 4 h.
        let ccdf = a.intercontact_ccdf(&[1.0, 4.0]);
        assert_eq!(ccdf[0].1, 1.0);
        assert_eq!(ccdf[1].1, 0.0);
    }

    #[test]
    fn aggregate_graph_is_the_triangle() {
        let a = TraceAnalytics::compute(&triangle_trace());
        assert!((a.graph_density - 1.0).abs() < 1e-9);
        assert!((a.graph_transitivity - 1.0).abs() < 1e-9);
        assert_eq!(a.graph.diameter, 1);
        assert!(a.graph.connected);
    }

    #[test]
    fn report_renders() {
        let report = TraceAnalytics::compute(&triangle_trace()).report();
        assert!(report.contains("3 nodes"));
        assert!(report.contains("inter-contact CCDF"));
        assert!(report.contains("density 1.000"));
    }

    #[test]
    fn empty_trace_analytics_do_not_panic() {
        let trace = ContactTrace::new(4, None, Vec::new()).unwrap();
        let a = TraceAnalytics::compute(&trace);
        assert_eq!(a.contacts, 0);
        assert!(a.report().contains("4 nodes"));
    }
}
