//! Deterministic world provisioning shared by every transport.
//!
//! A run — in-process [`mesh`](crate::mesh) or multi-process TCP
//! ([`daemon`](crate::daemon) + [`broker`](crate::broker)) — is a pure
//! function of `(trace, plan)`. Every process therefore rebuilds the
//! *entire* population from the same seed (cloud CA, signing keys,
//! handles, subscriptions, post workload) and then hosts only its
//! assigned slice: certificates issued on one host validate on every
//! other because the issuing CA is byte-identical everywhere.
//!
//! The [`schedule`] of a run is built here too, once, for both planes:
//! the simulation driver in `sos-experiments` settles its air up to each
//! step, and the lockstep conductor walks the steps over
//! [`build_schedule`](crate::lockstep::build_schedule); either way a
//! [`Host`](crate::host::Host) applies each [`Step`]. Its doc holds the
//! one end-of-run rule. The advertisement cadence lives here and nowhere
//! else: a runtime keeps no clock and advertises when the host applying
//! a step's wakes says so.

use crate::proto::InVivoError;
use alleyoop::app::AlleyOopApp;
use rand::{Rng, SeedableRng};
use sos_core::routing::SchemeKind;
use sos_sim::world::{ContactEvent, ContactPhase};
use sos_sim::{EncounterSource, SimDuration, SimTime};
use sos_trace::corpora::{self, CorpusFormat};
use sos_trace::{codec_binary, codec_text, ContactTrace, TraceError};
use std::collections::{BTreeMap, BTreeSet};

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

/// Refuses an advertisement interval under 1 ms, which the schedule
/// would floor to 1 ms (see [`ad_period`]) and so not run as asked. The
/// broker asks this when it binds, before it accepts a daemon; the
/// daemons never see an interval, only the steps built from it.
pub(crate) fn require_ad_interval(ad_interval: SimDuration) -> Result<(), InVivoError> {
    if ad_interval.as_millis() == 0 {
        return Err(InVivoError::Protocol(
            "advertisement interval must be at least 1 ms".into(),
        ));
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

/// The advertisement period a run actually uses: `ad_interval` floored
/// at 1 ms. A zero interval (which the control codec can carry) would
/// otherwise never move an advertisement boundary past the last one,
/// and [`ad_boundaries`] would yield it forever.
pub(crate) fn ad_period(ad_interval: SimDuration) -> SimDuration {
    SimDuration::from_millis(ad_interval.as_millis().max(1))
}

/// The node's advertisement phase offset: nodes staggered uniformly
/// across the interval, so simultaneous session collisions are rare.
pub(crate) fn ad_phase(ad_interval: SimDuration, node: usize, n: usize) -> SimDuration {
    SimDuration::from_millis(ad_interval.as_millis() * node as u64 / (n as u64).max(1))
}

/// One moment of a run's [`schedule`]. Within a step the order is
/// fixed: the encounter transitions first (an advertisement on the
/// instant a contact comes up reaches the new peer, one on the instant
/// it goes down does not), then the posts, then the wakes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Step {
    /// The source's contact transitions at this time, in source order,
    /// as `(a, b, up)`: `up` is the distance the `a`–`b` contact came up
    /// at, which a transport may freeze link quality at, or `None` when
    /// it went down.
    pub encounters: Vec<(usize, usize, Option<f64>)>,
    /// Posts at this time: `(author node, post number)`, numbered 1..
    /// in schedule order.
    pub posts: Vec<(usize, u64)>,
    /// The nodes due to advertise at this time with a peer to hear
    /// them, ascending.
    pub wakes: Vec<usize>,
}

/// A stretch of the run during which a node has at least one peer:
/// from the instant its peer set stops being empty to the instant it is
/// empty again, or to the end of the run; exclusive either way.
type Window = (SimTime, SimTime);

/// The time-ordered steps of a run over `source` until `end`: every
/// contact transition up to `end` (stably sorted by time, so the source
/// may list them in any order), the `posts` up to `end` as `(time,
/// author node)`, in any order, and the advertisement wakes.
///
/// A node wakes only on the boundaries of its cadence — its phase
/// (nodes staggered across the interval) plus a multiple of the
/// interval, floored at 1 ms — that fall inside a window during
/// which it has a peer: a boundary outside every window finds the
/// advertiser alone, and the runtime emits nothing there. Windows mean
/// what the runtime's peer set means: a contact-up on a boundary admits
/// it, a contact-down on it excludes it, and a repeated `Up` or a
/// `Down` for a closed pair changes nothing.
///
/// **End of the run.** A window still open at `end` closes there,
/// exclusive, so nothing wakes at `end`: frames sent on the last
/// instant could never arrive, and a wake there would only count
/// traffic (in the driver) or run exchange rounds past the run (in
/// lockstep). Contact transitions and posts at `end` are still applied.
pub fn schedule(
    source: &impl EncounterSource,
    end: SimTime,
    posts: impl IntoIterator<Item = (SimTime, usize)>,
    ad_interval: SimDuration,
) -> Vec<(SimTime, Step)> {
    let n = source.node_count();
    let mut events = source.encounter_events(SimTime::ZERO, end);
    events.retain(|ev| ev.time <= end);
    events.sort_by_key(|ev| ev.time);
    let mut steps: BTreeMap<SimTime, Step> = BTreeMap::new();
    // Node-major, so every step's wakes come out ascending.
    for (node, node_windows) in windows(&events, n, end).into_iter().enumerate() {
        for (start, stop) in node_windows {
            for t in ad_boundaries(ad_interval, node, n, start, stop) {
                steps.entry(t).or_default().wakes.push(node);
            }
        }
    }
    for ev in events {
        let up = (ev.phase == ContactPhase::Up).then_some(ev.distance_m);
        let step = steps.entry(ev.time).or_default();
        step.encounters.push((ev.a, ev.b, up));
    }
    let mut posts: Vec<(SimTime, usize)> = posts.into_iter().filter(|&(at, _)| at <= end).collect();
    posts.sort_by_key(|&(at, _)| at);
    for (k, (at, node)) in posts.into_iter().enumerate() {
        let number = k as u64 + 1;
        steps.entry(at).or_default().posts.push((node, number));
    }
    steps.into_iter().collect()
}

/// Per node, the windows during which it has a peer, in time order,
/// from time-sorted `events`: one opens when the set of *distinct*
/// peers goes 0 → 1 and closes when it goes 1 → 0, or at `end`.
fn windows(events: &[ContactEvent], n: usize, end: SimTime) -> Vec<Vec<Window>> {
    let mut peers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut windows: Vec<Vec<Window>> = vec![Vec::new(); n];
    for ev in events {
        let up = ev.phase == ContactPhase::Up;
        for (node, peer) in [(ev.a, ev.b), (ev.b, ev.a)] {
            if up {
                if peers[node].insert(peer) && peers[node].len() == 1 {
                    windows[node].push((ev.time, end));
                }
            } else if peers[node].remove(&peer) && peers[node].is_empty() {
                if let Some(open) = windows[node].last_mut() {
                    open.1 = ev.time;
                }
            }
        }
    }
    windows
}

/// The advertisement boundaries of `node` — `ad_phase + k · ad_period`
/// — in `[start, stop)`, ascending.
fn ad_boundaries(
    ad_interval: SimDuration,
    node: usize,
    n: usize,
    start: SimTime,
    stop: SimTime,
) -> impl Iterator<Item = SimTime> {
    let period = ad_period(ad_interval).as_millis();
    let phase = ad_phase(ad_interval, node, n).as_millis();
    let first = phase + start.as_millis().saturating_sub(phase).div_ceil(period) * period;
    std::iter::successors(Some(first), move |t| t.checked_add(period))
        .map(SimTime::from_millis)
        .take_while(move |&t| t < stop)
}

/// The seed of a node's session randomness, in a lockstep run and in a
/// simulated study alike; every process derives the same stream for the
/// same node.
pub fn node_seed(seed: u64, node: usize) -> u64 {
    seed ^ 0x6e6f_6465 ^ ((node as u64) << 32 | node as u64)
}

/// The text of post number `number` by the user `handle`, on both
/// planes.
pub fn post_text(number: u64, handle: &str) -> String {
    format!("post #{number} by {handle}")
}

/// The deterministic post workload as `(time, author node)`:
/// `total_posts` posts uniform over nodes and the first 90% of the
/// trace span, sorted by time (the [`schedule`] numbers them).
pub fn post_schedule(trace: &ContactTrace, plan: &RunPlan) -> Vec<(SimTime, usize)> {
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
        assert!(reloaded.events().eq(trace.events()));
        let bin = codec_binary::to_binary(&trace);
        let reloaded = load_trace_bytes(&bin).expect("binary reload");
        assert!(reloaded.events().eq(trace.events()));
    }

    mod boundaries {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Over one node's windows, the helper picks out exactly the
            /// boundaries a brute-force filter of *every* boundary up to
            /// `end` keeps by "has a peer at `t`" — `Up` inclusive,
            /// `Down` exclusive — with a last window closed at `end`.
            #[test]
            fn helper_equals_filtering_every_boundary(
                interval_ms in 0u64..40,
                node in 0usize..6,
                end_ms in 0u64..1_500,
                edges in prop::collection::vec(0u64..1_600, 0..9),
            ) {
                let (n, interval) = (6, SimDuration::from_millis(interval_ms));
                let end = SimTime::from_millis(end_ms);
                // Sorted edges pair up into windows; equal edges make
                // empty ones, an odd one out dangles to `end`.
                let mut edges = edges;
                edges.sort_unstable();
                let windows: Vec<Window> = edges
                    .chunks(2)
                    .map(|w| {
                        let stop = w.get(1).map_or(end, |&ms| SimTime::from_millis(ms));
                        (SimTime::from_millis(w[0]), stop.min(end))
                    })
                    .collect();

                let helper: Vec<SimTime> = windows
                    .iter()
                    .flat_map(|&(start, stop)| ad_boundaries(interval, node, n, start, stop))
                    .collect();

                let period = ad_period(interval).as_millis();
                let phase = ad_phase(interval, node, n).as_millis();
                let every: Vec<SimTime> = (0..)
                    .map(|k| SimTime::from_millis(phase + k * period))
                    .take_while(|&t| t <= end)
                    .collect();
                let brute: Vec<SimTime> = every
                    .into_iter()
                    .filter(|&t| windows.iter().any(|&(start, stop)| start <= t && t < stop))
                    .collect();
                prop_assert_eq!(helper, brute);
            }
        }
    }

    /// A timeline handed over as listed: unvalidated, unsorted.
    struct Raw(usize, Vec<ContactEvent>);

    impl EncounterSource for Raw {
        fn node_count(&self) -> usize {
            self.0
        }

        fn encounter_events(&self, _start: SimTime, _end: SimTime) -> Vec<ContactEvent> {
            self.1.clone()
        }
    }

    fn ev(secs: u64, a: usize, b: usize, up: bool) -> ContactEvent {
        ContactEvent {
            time: SimTime::from_secs(secs),
            a,
            b,
            phase: if up {
                ContactPhase::Up
            } else {
                ContactPhase::Down
            },
            distance_m: 5.0,
        }
    }

    /// `(time in seconds, node)` of every wake of the 60 s schedule of
    /// `events` over `n` nodes until `end_secs`.
    fn wakes(n: usize, events: Vec<ContactEvent>, end_secs: u64) -> Vec<(u64, usize)> {
        let end = SimTime::from_secs(end_secs);
        schedule(&Raw(n, events), end, [], SimDuration::from_secs(60))
            .into_iter()
            .flat_map(|(t, step)| step.wakes.into_iter().map(move |node| (t.as_secs(), node)))
            .collect()
    }

    #[test]
    fn windows_follow_what_the_runtime_peer_sets_will_hold() {
        let mut events = vec![
            ev(100, 0, 1, true),
            ev(150, 0, 1, true),  // repeated `Up`: opens nothing
            ev(160, 0, 2, false), // `Down` for a closed pair: closes nothing
            ev(200, 1, 2, true),  // node 1's contacts overlap
            ev(300, 0, 1, false),
            ev(300, 0, 3, true), // node 0: last peer out, next in, one instant
            ev(400, 1, 2, false),
            ev(500, 2, 4, true),
            ev(500, 2, 4, false), // zero length
            ev(450, 0, 3, false), // listed late, applied on time
            ev(600, 3, 4, true),  // never closed: closed at the end
        ];
        // The schedule's own sort, which the windows are read after.
        events.sort_by_key(|ev| ev.time);
        let secs = |start, stop| (SimTime::from_secs(start), SimTime::from_secs(stop));
        assert_eq!(
            windows(&events, 6, SimTime::from_secs(1_000)),
            vec![
                vec![secs(100, 300), secs(300, 450)],
                vec![secs(100, 400)],
                vec![secs(200, 400), secs(500, 500)],
                vec![secs(300, 450), secs(600, 1_000)],
                vec![secs(500, 500), secs(600, 1_000)],
                vec![],
            ]
        );
    }

    #[test]
    fn wakes_are_scheduled_inside_windows_only() {
        // Two nodes, 60 s period, phases 0 and 30 s; together 90–200 s
        // out of a day: node 0 is due at 120 and 180, node 1 at 90
        // (the `Up` admits it) and 150, and at 210 neither is.
        let events = vec![ev(90, 0, 1, true), ev(200, 0, 1, false)];
        assert_eq!(
            wakes(2, events, 86_400),
            vec![(90, 1), (120, 0), (150, 1), (180, 0)]
        );
    }

    /// The 1 ms floor: a zero interval gives every node phase 0 and a
    /// boundary on every millisecond, so a one-second contact wakes both
    /// ends a thousand times, on whole milliseconds inside the window,
    /// and the schedule comes back.
    #[test]
    fn a_zero_interval_wakes_every_millisecond_inside_windows() {
        let events = vec![ev(1, 0, 1, true), ev(2, 0, 1, false)];
        let steps = schedule(
            &Raw(3, events),
            SimTime::from_secs(5),
            [],
            SimDuration::ZERO,
        );
        let wakes: Vec<(u64, Vec<usize>)> = (steps.into_iter())
            .filter(|(_, step)| !step.wakes.is_empty())
            .map(|(t, step)| (t.as_millis(), step.wakes))
            .collect();
        let every_ms: Vec<(u64, Vec<usize>)> = (1_000..2_000).map(|ms| (ms, vec![0, 1])).collect();
        assert_eq!(wakes, every_ms);
    }

    /// The end rule: a contact still open at the end is closed *at* the
    /// end, exclusive, so nobody wakes there, even an advertiser in
    /// contact that is due exactly then; what happens at the end is
    /// still applied.
    #[test]
    fn a_contact_dangling_at_the_end_does_not_tick_there() {
        // The run ends at 240 s = 4 · 60 s, a boundary of node 0
        // (phase 0), whose second contact with node 1 is never closed.
        let events = vec![
            ev(100, 0, 1, true),
            ev(130, 0, 1, false),
            ev(150, 0, 1, true),
            ev(240, 2, 3, true),
        ];
        let steps = schedule(
            &Raw(4, events),
            SimTime::from_secs(240),
            [(SimTime::from_secs(240), 3)],
            SimDuration::from_secs(60),
        );
        let (last_time, last) = steps.last().expect("a non-empty schedule");
        assert_eq!(*last_time, SimTime::from_secs(240));
        assert_eq!(
            (last.encounters.len(), last.posts.as_slice()),
            (1, &[(3, 1)][..])
        );
        assert!(last.wakes.is_empty(), "frames sent at the end never arrive");
        // Node 0 at 120 in the first contact, then at 180 — and not at
        // 240; node 1 (phase 15 s) at 195.
        let wakes: Vec<(u64, usize)> = (steps.iter())
            .flat_map(|(t, s)| s.wakes.iter().map(|&node| (t.as_secs(), node)))
            .collect();
        assert_eq!(wakes, vec![(120, 0), (180, 0), (195, 1)]);
    }

    #[test]
    fn posts_are_numbered_in_time_order_and_wakes_ascend() {
        // A 2 ms cadence over 3 nodes staggers them at 0, 0 and 1 ms, so
        // nodes 0 and 1 share every even boundary. The post listed first
        // is the later one, and is numbered second.
        let up = |ms, a, b| ContactEvent {
            time: SimTime::from_millis(ms),
            a,
            b,
            phase: ContactPhase::Up,
            distance_m: 5.0,
        };
        let steps = schedule(
            &Raw(3, vec![up(2, 1, 2), up(2, 0, 1)]),
            SimTime::from_millis(4),
            [(SimTime::from_millis(3), 2), (SimTime::from_millis(2), 0)],
            SimDuration::from_millis(2),
        );
        let at_2 = Step {
            encounters: vec![(1, 2, Some(5.0)), (0, 1, Some(5.0))],
            posts: vec![(0, 1)],
            wakes: vec![0, 1],
        };
        let at_3 = Step {
            encounters: vec![],
            posts: vec![(2, 2)],
            wakes: vec![2],
        };
        assert_eq!(
            steps,
            vec![
                (SimTime::from_millis(2), at_2),
                (SimTime::from_millis(3), at_3)
            ]
        );
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
