//! Deterministic world provisioning shared by every transport.
//!
//! A run — in-process [`mesh`](crate::mesh) or multi-process TCP
//! ([`daemon`](crate::daemon) + [`broker`](crate::broker)) — is a pure
//! function of `(trace, plan)`. Every process therefore rebuilds the
//! *entire* population from the same seed (cloud CA, signing keys,
//! handles, subscriptions, post workload) and then hosts only its
//! assigned slice: certificates issued on one host validate on every
//! other because the issuing CA is byte-identical everywhere.

use crate::proto::InVivoError;
use crate::runtime::{ad_period, NodeConfig, NodeRuntime};
use alleyoop::app::AlleyOopApp;
use rand::{Rng, SeedableRng};
use sos_core::routing::SchemeKind;
use sos_sim::{SimDuration, SimTime};
use sos_trace::corpora::{self, CorpusFormat};
use sos_trace::{codec_binary, codec_text, ContactTrace, TraceError};
use std::collections::BTreeSet;

/// Everything that parameterizes a lockstep run besides the trace.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Routing scheme under test.
    pub scheme: SchemeKind,
    /// Master seed; identities, subscriptions, the post workload, and
    /// every node's session randomness derive from it.
    pub seed: u64,
    /// Unique posts, spread uniformly over nodes and the first 90% of
    /// the trace span.
    pub total_posts: usize,
    /// Advertisement broadcast period.
    pub ad_interval: SimDuration,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            scheme: SchemeKind::InterestBased,
            seed: 7,
            total_posts: 40,
            ad_interval: SimDuration::from_secs(60),
        }
    }
}

/// The follow digraph an imported trace implies: `followers[a]` lists
/// the nodes following `a`, namely every node that ever shared a
/// contact with `a` (mutual follows on the aggregate contact graph).
pub fn followers_from_trace(trace: &ContactTrace) -> Vec<Vec<usize>> {
    // Dedup via a pair set: hub nodes in full-size corpora have large
    // degrees, so a per-interval Vec::contains scan would go quadratic.
    let pairs: BTreeSet<(usize, usize)> = trace
        .intervals(trace.end_time())
        .iter()
        .map(|iv| (iv.a, iv.b))
        .collect();
    let mut followers: Vec<Vec<usize>> = vec![Vec::new(); trace.node_count()];
    for (a, b) in pairs {
        followers[a].push(b);
        followers[b].push(a);
    }
    for list in &mut followers {
        list.sort_unstable();
    }
    followers
}

/// Refuses a trace [`provision_apps`] would panic on. The two edges
/// that take a trace from outside the process — the broker's file and
/// a daemon's `Assign` — ask this before they provision.
pub(crate) fn require_population(trace: &ContactTrace) -> Result<(), InVivoError> {
    let n = trace.node_count();
    if n < 2 {
        return Err(InVivoError::Protocol(format!(
            "a run needs at least 2 nodes, the trace has {n}"
        )));
    }
    Ok(())
}

/// Builds the full population for a `(trace, plan)` run: one app per
/// trace node, signed up against the deterministic cloud CA, subscribed
/// along [`followers_from_trace`].
///
/// # Panics
///
/// Panics if the trace has fewer than 2 nodes (no study to host).
pub fn provision_apps(trace: &ContactTrace, plan: &RunPlan) -> Vec<AlleyOopApp> {
    let n = trace.node_count();
    assert!(n >= 2, "a run needs at least 2 nodes, got {n}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(plan.seed);
    let handles = (0..n).map(|i| format!("{i}-{}", trace.node_label(i).unwrap_or("node")));
    let mut apps =
        AlleyOopApp::sign_up_fleet("Corpus Root CA", plan.seed, handles, plan.scheme, &mut rng);

    let followers = followers_from_trace(trace);
    for (author, subs) in followers.iter().enumerate() {
        let author_user = apps[author].user_id();
        for &follower in subs {
            apps[follower].follow(author_user);
        }
    }
    apps
}

/// The node's advertisement phase offset: nodes staggered uniformly
/// across the interval (the simulation driver's formula).
pub fn ad_phase(ad_interval: SimDuration, node: usize, n: usize) -> SimDuration {
    SimDuration::from_millis(ad_interval.as_millis() * node as u64 / (n as u64).max(1))
}

/// The advertisement boundaries of `node` — `ad_phase + k · ad_period`
/// — that fall inside one window during which it has a peer,
/// ascending: `start` inclusive (a contact-up on a boundary is applied
/// before the wake), `stop` exclusive (so is a contact-down), and none
/// after `end`.
///
/// Both pacers prune their wakes with this — the simulation driver per
/// node window, [`build_schedule`](crate::lockstep::build_schedule) per
/// contact interval — and they differ in one place, a contact still
/// open at `end`. The driver leaves it unclosed (`stop = None`): an
/// advertisement due exactly at `end` is sent and counted even though
/// its frames arrive too late. The lockstep schedule closes it at `end`
/// (`stop = Some(end)`), so nothing ticks there: a tick would run
/// exchange rounds that deliver.
pub fn ad_boundaries(
    ad_interval: SimDuration,
    node: usize,
    n: usize,
    start: SimTime,
    stop: Option<SimTime>,
    end: SimTime,
) -> impl Iterator<Item = SimTime> {
    let period = ad_period(ad_interval).as_millis();
    let phase = ad_phase(ad_interval, node, n).as_millis();
    let first = phase + start.as_millis().saturating_sub(phase).div_ceil(period) * period;
    std::iter::successors(Some(first), move |t| t.checked_add(period))
        .map(SimTime::from_millis)
        .take_while(move |&t| t <= end && stop.is_none_or(|stop| t < stop))
}

/// The seed of a node's session randomness in a lockstep run; every
/// process derives the same stream for the same node.
pub(crate) fn node_seed(seed: u64, node: usize) -> u64 {
    seed ^ 0x6e6f_6465 ^ ((node as u64) << 32 | node as u64)
}

/// Wraps a provisioned app in a runtime configured for lockstep runs.
pub fn provision_runtime(app: AlleyOopApp, node: usize, n: usize, plan: &RunPlan) -> NodeRuntime {
    NodeRuntime::new(
        app,
        NodeConfig {
            ad_interval: plan.ad_interval,
            ad_phase: ad_phase(plan.ad_interval, node, n),
        },
    )
}

/// The deterministic post workload: `total_posts` posts uniform over
/// nodes and the first 90% of the trace span, sorted by time, numbered
/// 1.. in schedule order (the driver's global post counter semantics).
pub fn post_schedule(trace: &ContactTrace, plan: &RunPlan) -> Vec<(SimTime, usize, u64)> {
    let n = trace.node_count();
    let horizon = trace.end_time().as_millis() * 9 / 10;
    let mut post_rng = rand::rngs::StdRng::seed_from_u64(plan.seed ^ 0xbeef);
    let mut posts: Vec<(SimTime, usize)> = (0..plan.total_posts)
        .map(|_| {
            let at = SimTime::from_millis(post_rng.gen_range(0..horizon.max(1)));
            let node = post_rng.gen_range(0..n);
            (at, node)
        })
        .collect();
    posts.sort_by_key(|(t, _)| *t);
    posts
        .into_iter()
        .enumerate()
        .map(|(k, (at, node))| (at, node, k as u64 + 1))
        .collect()
}

/// Loads a contact trace from raw bytes, sniffing the format: the
/// native `# sos-trace v1` text codec, the native binary codec, or a
/// CRAWDAD/ONE `CONN` log (run through the sanitizer importer).
///
/// # Errors
///
/// The underlying codec's [`TraceError`] when no format accepts the
/// bytes.
pub fn load_trace_bytes(bytes: &[u8]) -> Result<ContactTrace, TraceError> {
    if bytes.starts_with(b"# sos-trace") {
        return codec_text::from_text(&String::from_utf8_lossy(bytes));
    }
    match corpora::import_bytes(CorpusFormat::Crawdad, bytes) {
        Ok(imported) => Ok(imported.trace),
        Err(conn_err) => codec_binary::from_binary(bytes).map_err(|_| conn_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> ContactTrace {
        use sos_sim::world::{ContactEvent, ContactPhase};
        let events = vec![
            ContactEvent {
                time: SimTime::from_secs(100),
                a: 0,
                b: 1,
                phase: ContactPhase::Up,
                distance_m: 5.0,
            },
            ContactEvent {
                time: SimTime::from_secs(700),
                a: 0,
                b: 1,
                phase: ContactPhase::Down,
                distance_m: 5.0,
            },
        ];
        ContactTrace::new_labeled(
            3,
            None,
            Some(vec!["a".into(), "b".into(), "c".into()]),
            events,
        )
        .expect("valid trace")
    }

    #[test]
    fn provisioning_is_deterministic_across_calls() {
        let trace = tiny_trace();
        let plan = RunPlan::default();
        let a = provision_apps(&trace, &plan);
        let b = provision_apps(&trace, &plan);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.user_id(), y.user_id());
            assert_eq!(x.handle(), y.handle());
            assert_eq!(x.following(), y.following());
        }
        assert_eq!(post_schedule(&trace, &plan), post_schedule(&trace, &plan));
    }

    #[test]
    fn trace_sniffing_round_trips_native_text() {
        let trace = tiny_trace();
        let text = codec_text::to_text(&trace);
        let reloaded = load_trace_bytes(text.as_bytes()).expect("text reload");
        assert_eq!(reloaded.node_count(), 3);
        assert_eq!(reloaded.events(), trace.events());
        let bin = codec_binary::to_binary(&trace);
        let reloaded = load_trace_bytes(&bin).expect("binary reload");
        assert_eq!(reloaded.events(), trace.events());
    }

    mod boundaries {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Over one node's windows, the helper picks out exactly the
            /// boundaries a brute-force filter of *every* boundary up to
            /// `end` keeps by "has a peer at `t`" — `Up` inclusive,
            /// `Down` exclusive — with a last window that is never
            /// closed (the driver's reading) or closed at `end` (the
            /// lockstep schedule's).
            #[test]
            fn helper_equals_filtering_every_boundary(
                interval_ms in 0u64..40,
                node in 0usize..6,
                end_ms in 0u64..1_500,
                edges in prop::collection::vec(0u64..1_600, 0..9),
                close_at_end in any::<bool>(),
            ) {
                let (n, interval) = (6, SimDuration::from_millis(interval_ms));
                let end = SimTime::from_millis(end_ms);
                // Sorted edges pair up into windows; equal edges make
                // empty ones, an odd one out dangles.
                let mut edges = edges;
                edges.sort_unstable();
                let windows: Vec<(SimTime, Option<SimTime>)> = edges
                    .chunks(2)
                    .map(|w| {
                        let stop = w.get(1).map(|&ms| SimTime::from_millis(ms));
                        let stop = stop.or(close_at_end.then_some(end));
                        (SimTime::from_millis(w[0]), stop)
                    })
                    .collect();

                let helper: Vec<SimTime> = windows
                    .iter()
                    .flat_map(|&(start, stop)| ad_boundaries(interval, node, n, start, stop, end))
                    .collect();

                let period = ad_period(interval).as_millis();
                let phase = ad_phase(interval, node, n).as_millis();
                let brute: Vec<SimTime> = (0..)
                    .map(|k| SimTime::from_millis(phase + k * period))
                    .take_while(|&t| t <= end)
                    .filter(|&t| {
                        windows
                            .iter()
                            .any(|&(start, stop)| start <= t && stop.is_none_or(|stop| t < stop))
                    })
                    .collect();
                prop_assert_eq!(helper, brute);
            }
        }
    }

    #[test]
    fn phases_stagger_across_interval() {
        let iv = SimDuration::from_secs(60);
        assert_eq!(ad_phase(iv, 0, 8).as_millis(), 0);
        assert_eq!(ad_phase(iv, 4, 8).as_millis(), 30_000);
        assert!(ad_phase(iv, 7, 8) < iv);
        assert_ne!(node_seed(7, 0), node_seed(7, 1));
    }
}
