//! Synthetic social traces: community structure plus diurnal
//! schedules, generated directly at the encounter level.
//!
//! The paper's deployment is a *social* network — ten students with
//! dense friendship cliques meeting on campus by day and at homes by
//! evening. This generator reproduces that shape without any
//! geometry: nodes belong to communities, intra-community pairs meet
//! often, inter-community pairs rarely, meetings happen inside a
//! diurnal activity window (the paper notes participants are asleep —
//! stationary and isolated — 5–8 h/day), and weekends damp the campus
//! contact rate. Meetings per pair arrive as a Poisson process with
//! exponentially distributed durations, the standard model whose
//! heavy-tailed inter-contact times match measured DTN traces.
//!
//! Everything is a pure function of `(config, seed)`.

use crate::error::TraceError;
use crate::record::{ContactTrace, Packed};
use rand::{Rng, SeedableRng};
use sos_sim::world::{ContactEvent, ContactPhase};
use sos_sim::SimTime;

/// Configuration for [`generate_social_trace`], defaulting to the
/// shape of the paper's deployment (10 nodes, 7 days, tight cliques).
#[derive(Clone, Debug)]
pub struct SocialTraceConfig {
    /// Population size.
    pub nodes: usize,
    /// Trace length in days.
    pub days: u64,
    /// Number of communities (round-robin membership).
    pub communities: usize,
    /// Expected meetings per day for a same-community pair.
    pub intra_contacts_per_day: f64,
    /// Expected meetings per day for a cross-community pair.
    pub inter_contacts_per_day: f64,
    /// Mean meeting duration, minutes (exponential, floored at 1 min).
    pub mean_contact_mins: f64,
    /// Daily activity window start, hour of day.
    pub active_start_hour: f64,
    /// Daily activity window end, hour of day.
    pub active_end_hour: f64,
    /// Weekend multiplier on the intra-community (campus) rate; days 5
    /// and 6 of each week are the weekend.
    pub weekend_factor: f64,
    /// Communication range stamped into the trace metadata; contact
    /// distances are drawn within it.
    pub range_m: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SocialTraceConfig {
    fn default() -> Self {
        SocialTraceConfig {
            nodes: 10,
            days: 7,
            communities: 3,
            intra_contacts_per_day: 4.0,
            inter_contacts_per_day: 0.4,
            mean_contact_mins: 20.0,
            active_start_hour: 8.0,
            active_end_hour: 23.0,
            weekend_factor: 0.5,
            range_m: 60.0,
            seed: 7,
        }
    }
}

/// Draws from `Exp(mean)` via inversion; `u ∈ [0, 1)`.
fn exp_sample<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() * mean
}

/// Generates a community-structured, diurnal encounter trace.
///
/// Returns [`TraceError`] only for degenerate configurations (zero
/// nodes — the timeline itself is valid by construction).
pub fn generate_social_trace(cfg: &SocialTraceConfig) -> Result<ContactTrace, TraceError> {
    let communities = cfg.communities.max(1);
    let mut events: Vec<Packed> = Vec::new();
    let window_start_ms = (cfg.active_start_hour.clamp(0.0, 24.0) * 3.6e6) as u64;
    let window_end_ms = (cfg.active_end_hour.clamp(0.0, 24.0) * 3.6e6) as u64;
    let window_ms = window_end_ms.saturating_sub(window_start_ms).max(1);

    for a in 0..cfg.nodes {
        for b in (a + 1)..cfg.nodes {
            // Each pair gets its own RNG stream so the trace is stable
            // under population growth (adding node n never reshuffles
            // the meetings of pairs below it).
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                cfg.seed ^ (a as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (b as u64) << 17,
            );
            let same = (a % communities) == (b % communities);
            let base_rate = if same {
                cfg.intra_contacts_per_day
            } else {
                cfg.inter_contacts_per_day
            };
            if base_rate <= 0.0 {
                continue;
            }
            // `cursor` is the earliest the next meeting may start;
            // it enforces strict up/down alternation per pair.
            let mut cursor = 0u64;
            for day in 0..cfg.days {
                let weekend = day % 7 >= 5;
                let rate = if weekend && same {
                    base_rate * cfg.weekend_factor.max(0.0)
                } else {
                    base_rate
                };
                if rate <= 0.0 {
                    continue;
                }
                let day_ms = day * 86_400_000;
                let mean_gap_ms = window_ms as f64 / rate;
                let mut t = day_ms + window_start_ms;
                loop {
                    t = t.saturating_add(exp_sample(&mut rng, mean_gap_ms) as u64);
                    if t >= day_ms + window_end_ms {
                        break;
                    }
                    let start = t.max(cursor);
                    if start >= day_ms + window_end_ms {
                        break; // backlog pushed past today's window
                    }
                    let duration_ms =
                        (exp_sample(&mut rng, cfg.mean_contact_mins) * 60_000.0) as u64;
                    let end = start + duration_ms.max(60_000);
                    let distance = rng.gen_range(1.0..cfg.range_m.max(2.0) * 0.9);
                    for (time, phase, distance_m) in [
                        (start, ContactPhase::Up, distance),
                        (end, ContactPhase::Down, cfg.range_m.max(distance)),
                    ] {
                        let ev = ContactEvent {
                            time: SimTime::from_millis(time),
                            a,
                            b,
                            phase,
                            distance_m,
                        };
                        events.push(Packed::pack(events.len(), ev)?);
                    }
                    // Next meeting strictly after this one ends.
                    cursor = end + 60_000;
                    t = t.max(end);
                }
            }
        }
    }

    // Merge pair streams into one timeline. A pair's transitions are at
    // least a minute apart, so no two events share (time, a, b) and an
    // unstable sort on it is the stable one (separate pairs may share
    // a time — "simultaneous up/down" in codec terms).
    events.sort_unstable_by_key(|p| (p.event().time, p.event().a, p.event().b));
    ContactTrace::from_packed(cfg.nodes, Some(cfg.range_m), None, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::TraceAnalytics;

    #[test]
    fn default_trace_is_valid_and_deterministic() {
        let cfg = SocialTraceConfig::default();
        let a = generate_social_trace(&cfg).unwrap();
        let b = generate_social_trace(&cfg).unwrap();
        assert_eq!(a, b, "pure function of (config, seed)");
        assert!(!a.is_empty());
        assert_eq!(a.node_count(), 10);
        // A week of 4-meetings/day cliques: hundreds of contacts.
        let contacts = a.len() / 2;
        assert!(contacts > 100, "only {contacts} contacts");
    }

    #[test]
    fn seeds_change_the_timeline() {
        let a = generate_social_trace(&SocialTraceConfig::default()).unwrap();
        let b = generate_social_trace(&SocialTraceConfig {
            seed: 8,
            ..SocialTraceConfig::default()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn community_structure_shows_in_contact_counts() {
        let cfg = SocialTraceConfig {
            nodes: 12,
            communities: 3,
            ..SocialTraceConfig::default()
        };
        let trace = generate_social_trace(&cfg).unwrap();
        let mut intra = 0u64;
        let mut inter = 0u64;
        for ev in trace
            .events()
            .iter()
            .filter(|e| e.phase == ContactPhase::Up)
        {
            if ev.a % 3 == ev.b % 3 {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        // 3 communities of 4: 18 intra pairs vs 48 inter pairs, but the
        // 10x rate gap must still dominate.
        assert!(
            intra > inter,
            "communities should dominate: intra {intra} vs inter {inter}"
        );
    }

    #[test]
    fn diurnal_window_is_respected_for_meeting_starts() {
        let cfg = SocialTraceConfig::default();
        let trace = generate_social_trace(&cfg).unwrap();
        for ev in trace
            .events()
            .iter()
            .filter(|e| e.phase == ContactPhase::Up)
        {
            let h = ev.time.hour_of_day();
            assert!(
                (cfg.active_start_hour..cfg.active_end_hour).contains(&h),
                "meeting starts at {h:.2}h"
            );
        }
    }

    #[test]
    fn sized_like_the_deployment_feeds_analytics() {
        let trace = generate_social_trace(&SocialTraceConfig::default()).unwrap();
        let analytics = TraceAnalytics::compute(&trace);
        assert_eq!(analytics.nodes, 10);
        assert!(analytics.graph.connected, "a week should connect everyone");
    }

    /// The keys the merge sorts on never tie, so its unstable sort
    /// orders the timeline exactly as a stable one would.
    #[test]
    fn merged_keys_strictly_increase() {
        let trace = generate_social_trace(&SocialTraceConfig {
            nodes: 30,
            days: 14,
            ..SocialTraceConfig::default()
        })
        .unwrap();
        let keys: Vec<_> = trace.events().map(|ev| (ev.time, ev.a, ev.b)).collect();
        assert!(keys.len() > 1_000, "only {} events", keys.len());
        assert!(keys.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn empty_population_is_a_valid_empty_trace() {
        let trace = generate_social_trace(&SocialTraceConfig {
            nodes: 0,
            ..SocialTraceConfig::default()
        })
        .unwrap();
        assert!(trace.is_empty());
    }
}
