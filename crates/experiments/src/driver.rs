//! The discrete-event driver: runs AlleyOop apps over a radio [`Air`]
//! according to an encounter timeline, and records every metric the
//! paper's evaluation reports.
//!
//! This is the substitute for physics: where the paper had ten iPhones
//! radiating over Bluetooth and peer-to-peer WiFi, we have an
//! [`EncounterSource`] timeline, per-bearer latency/bandwidth/loss,
//! and seeded randomness.
//!
//! **One engine:** the driver is the lockstep plane's round engine,
//! [`sos_node::host::Host`], hosting every node, plus an observer. The
//! host applies each step of the one [`sos_node::provision::schedule`]
//! — contact transitions, then posts, then `advertise` on the wakes —
//! and lands frames in its air's rounds, in `(to, from, send number)`
//! order. Between steps the driver settles the air up to the next one;
//! the lockstep conductor instead runs one round at a time until a step
//! is quiet. On an instant air ([`Medium::Instant`]) the two are one
//! run, so a study computes exactly the
//! [`run_mesh`](sos_node::mesh::run_mesh) run of the same
//! `(trace, plan)`: delivered set, per-node stats and frame count
//! (`tests/plane_differential.rs`). A radio air ([`Medium::Radio`]) adds
//! bearer selection by distance, latency, serialization and loss. The
//! driver's own part is the observer, a [`Watch`] on the host: the
//! metrics of each landed frame's events, taken as it lands, the
//! Fig. 4b map and the contact journal lines.
//!
//! **Determinism rule:** the driver derives *everything* from the
//! encounter timeline and the study seed — connectivity comes from
//! `ContactUp` / `ContactDown` events, and each contact's link quality is
//! frozen at its up-distance. Positions are consulted only for the
//! Fig. 4b map overlay, never for behavior. Two sources emitting the
//! same timeline therefore produce byte-identical runs, which is what
//! makes `sos-trace` record→replay exact (see `experiments::replay`).
//! Node `i` draws its session randomness from its own stream,
//! [`sos_node::provision::node_seed`] of the study seed, and the air
//! draws each directed link's losses from that link's own stream under a
//! sibling seed. A draw therefore moves only what its node or its link
//! does, and a frame more or less on one link shifts no other link's
//! losses. Frames cross the air as typed values, so a study pays no
//! codec cost: the air costs a frame by [`sos_net::Frame::wire_size`].
//! A node wakes only on the boundaries of its cadence that find it with
//! a peer, so a run costs what its contacts warrant, not what its span
//! does: on the paper-shaped week of ten phones, 87 % of all boundaries
//! find the advertiser alone.
//!
//! **One study plane:** every driver-based experiment (field study,
//! replay, corpus, density) is a builder that provisions a [`Study`];
//! [`run_study`] is the only way to drive one: it builds the schedule,
//! hosts the apps, attaches the observer, runs and totals, and many
//! studies are one `sos_engine::run_replicas` over it. What comes back
//! is always a [`StudyRun`], and the numbers every table reports are its
//! [`RunSummary`].

use crate::observe::RunObserver;
use alleyoop::app::AlleyOopApp;
use sos_core::message::MessageKind;
use sos_core::middleware::{SosEvent, SosStats};
use sos_core::routing::SchemeKind;
use sos_net::{Air, Medium};
use sos_node::host::{Host, Watch};
use sos_node::provision::schedule;
use sos_obs::journal::ObsEvent;
use sos_obs::{Histogram, JournalEntry, JournalHandle, Registry};
use sos_sim::metrics::{DelayRecorder, DeliveryRecorder};
use sos_sim::{EncounterSource, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Where on the map something happened (for Fig. 4b).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapEvent {
    /// X coordinate, metres.
    pub x: f64,
    /// Y coordinate, metres.
    pub y: f64,
    /// What happened.
    pub kind: MapEventKind,
}

/// The two colours of Fig. 4b.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapEventKind {
    /// A message was created here (blue in the paper).
    Created,
    /// A message was received here via D2D (red in the paper).
    Disseminated,
}

/// Everything measured during a run.
///
/// `PartialEq` exists for the byte-identity gates: an instrumented
/// replay must compare equal to an uninstrumented one.
#[derive(Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Unique messages posted.
    pub posts: u64,
    /// Delay records for every delivery to an interested subscriber.
    pub delays: DelayRecorder,
    /// Per-subscription delivery bookkeeping.
    pub delivery: DeliveryRecorder,
    /// Map events for Fig. 4b.
    pub map: Vec<MapEvent>,
    /// Total frames transmitted (any type).
    pub frames_sent: u64,
    /// Frames lost on the air.
    pub frames_lost: u64,
    /// Security alerts raised by any node.
    pub security_alerts: u64,
}

/// A provisioned study: everything a scenario decides, and all
/// [`run_study`] needs. Scenarios only fill this in.
pub struct Study<S: EncounterSource> {
    /// The routing scheme the apps were signed up with.
    pub scheme: SchemeKind,
    /// The scenario seed the inputs below were derived from, and the
    /// root of the run's randomness: node `i` draws its session
    /// randomness from the stream `provision::node_seed(seed, i)`, as on
    /// every plane, and the air its losses from streams under a sibling
    /// seed.
    pub seed: u64,
    /// One app per node of `source`, subscriptions already wired.
    pub apps: Vec<AlleyOopApp>,
    /// The encounter timeline.
    pub source: S,
    /// `followers[author]` = node indices subscribed to `author`.
    pub followers: Vec<Vec<usize>>,
    /// The post workload as `(time, author node)`; the schedule sorts it
    /// by time and numbers it in that order.
    pub posts: Vec<(SimTime, usize)>,
    /// Advertisement broadcast period per node.
    pub ad_interval: SimDuration,
    /// The air frames cross: radio, with or without infrastructure WiFi,
    /// or instant, where the run is the lockstep mesh's.
    pub air: Medium,
    /// When the run stops.
    pub end: SimTime,
}

/// Everything a driver-based study produced, whatever the scenario.
#[derive(Debug)]
pub struct StudyRun {
    /// The scheme that was run.
    pub scheme: SchemeKind,
    /// The scenario seed that was run.
    pub seed: u64,
    /// Per-run measurements.
    pub metrics: RunMetrics,
    /// Middleware counters summed over `apps`.
    pub totals: SosStats,
    /// The final applications (feeds, local databases), one per node.
    pub apps: Vec<AlleyOopApp>,
}

impl StudyRun {
    /// Total user-to-user transfers (paper §VI-B: 967 with IB). Counts
    /// received bundles, i.e. successful D2D message transfers.
    pub fn transfers(&self) -> u64 {
        self.totals.bundles_received
    }

    /// Fraction of interested deliveries that arrived in one hop
    /// (paper: 0.826).
    pub fn one_hop_fraction(&self) -> f64 {
        self.metrics.delays.fraction_one_hop()
    }

    /// The row every comparison table prints for this run.
    pub fn summary(&self) -> RunSummary {
        let cdf = self.metrics.delays.cdf_all_hours();
        RunSummary {
            deliveries: self.metrics.delays.len() as f64,
            transfers: self.transfers() as f64,
            one_hop_fraction: self.one_hop_fraction(),
            median_delay_hours: (!cdf.is_empty()).then(|| cdf.quantile(0.5)),
            delivery_ratio: self.metrics.delivery.overall_ratio(),
        }
    }
}

/// What a comparison table says about one run. Plain data, so it can
/// cross `sos_engine::run_replicas`' worker threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSummary {
    /// Deliveries to interested subscribers.
    pub deliveries: f64,
    /// Total user-to-user transfers (cost).
    pub transfers: f64,
    /// Fraction of deliveries at one hop.
    pub one_hop_fraction: f64,
    /// Median delivery delay in hours (`None` if nothing was delivered).
    pub median_delay_hours: Option<f64>,
    /// Overall delivery ratio across subscriptions.
    pub delivery_ratio: f64,
}

impl RunSummary {
    /// Transfers per delivery (lower is better; infinite when nothing
    /// was delivered).
    pub fn overhead(&self) -> f64 {
        if self.deliveries == 0.0 {
            f64::INFINITY
        } else {
            self.transfers / self.deliveries
        }
    }
}

/// Runs a provisioned study to its end: the schedule's steps in time
/// order, each after every frame due before it and before any frame
/// due at its instant. Frames due at the end are delivered; later ones
/// never arrive. With `obs`, every node's stat cells are adopted into
/// its registry and its lifecycle events flow into its journal, with
/// the contact transitions, the `driver/delivery_delay_ms` histogram
/// and the air's `driver/frame_bytes` one; the run itself is
/// byte-identical to the blind one.
///
/// # Panics
///
/// Panics if the apps, the source and the follower map disagree on the
/// node count.
pub fn run_study<S: EncounterSource>(study: Study<S>, obs: Option<&RunObserver>) -> StudyRun {
    let n = study.apps.len();
    assert_eq!(n, study.source.node_count(), "node count mismatch");
    assert_eq!(n, study.followers.len(), "follower map mismatch");
    let steps = schedule(&study.source, study.end, study.posts, study.ad_interval);
    let user_index = (study.apps.iter().enumerate())
        .map(|(i, app)| (app.user_id(), i))
        .collect();
    if let Some(o) = obs {
        for (i, app) in study.apps.iter().enumerate() {
            (app.middleware()).register_metrics(&o.registry, &format!("node{i}/sos"));
        }
    }
    let mut recorder = Recorder {
        source: study.source,
        followers: study.followers,
        user_index,
        metrics: RunMetrics::default(),
        obs: obs.map(|o| {
            let delay_ms = o.registry.histogram("driver/delivery_delay_ms");
            (o.journal.clone(), delay_ms)
        }),
    };
    let frame_bytes = obs.map(|o| o.registry.histogram("driver/frame_bytes"));
    let (seed, journal) = (study.seed, obs.map(|o| &o.journal));
    let air = Air::new(study.air, seed ^ LOSS, frame_bytes);
    let mut host = Host::new(study.apps, seed, air, (0, 1), journal);
    // By value: each step's lists go as soon as it has run.
    for (now, step) in steps {
        host.settle(now, &mut recorder);
        host.apply(now, &step, &mut recorder);
    }
    host.settle(study.end + SimDuration::from_millis(1), &mut recorder);
    let mut metrics = recorder.metrics;
    (metrics.frames_sent, metrics.frames_lost) = host.totals();
    if let Some(o) = obs {
        export_metrics(&o.registry, &metrics);
    }
    let apps = host.into_apps();
    StudyRun {
        scheme: study.scheme,
        seed,
        totals: aggregate_stats(&apps),
        metrics,
        apps,
    }
}

/// What the study seed is XORed with to seed the air's loss streams, a
/// sibling of the node streams' `node_seed(seed, i)` ("loss" where they
/// have "node"). The air mixes each directed link `(s, d)` in as
/// `s << 32 | d`, which keeps every link's stream apart from every
/// node's below 2^25 nodes.
const LOSS: u64 = 0x6c6f_7373;

/// The driver's observer on the host: the recorders, and the Fig. 4b
/// map's source of positions.
///
/// Generic over [`EncounterSource`], so the same driver runs on the
/// naive `World` scan, on `sos-engine`'s grid-indexed kernel, or on
/// a `sos-trace` recorded/synthetic trace replay.
struct Recorder<S: EncounterSource> {
    source: S,
    /// `followers[author]` = the follower node indices of `author`.
    followers: Vec<Vec<usize>>,
    user_index: BTreeMap<sos_crypto::UserId, usize>,
    metrics: RunMetrics,
    /// With an observer: the journal the contact transitions go to, and
    /// the delivery delays (interested subscribers only), milliseconds.
    obs: Option<(JournalHandle, Histogram)>,
}

impl<S: EncounterSource> Recorder<S> {
    /// Puts `kind` on the Fig. 4b map where `node` is at `now`, if the
    /// source knows.
    fn mark(&mut self, node: usize, now: SimTime, kind: MapEventKind) {
        if let Some(pos) = self.source.node_position(node, now) {
            let (x, y) = (pos.x, pos.y);
            self.metrics.map.push(MapEvent { x, y, kind });
        }
    }
}

impl<S: EncounterSource> Watch for Recorder<S> {
    fn contact(&mut self, now: SimTime, a: usize, b: usize, up: bool) {
        let Some((journal, _)) = &self.obs else {
            return;
        };
        let (a, b) = (a as u32, b as u32);
        let event = if up {
            ObsEvent::ContactUp { a, b }
        } else {
            ObsEvent::ContactDown { a, b }
        };
        journal.push(JournalEntry {
            time: now,
            node: a,
            event,
        });
    }

    fn post(&mut self, now: SimTime, node: usize) {
        self.metrics.posts += 1;
        self.mark(node, now, MapEventKind::Created);
        for &follower in &self.followers[node] {
            self.metrics.delivery.expect_delivery(follower, node);
        }
    }

    fn events(&mut self, node: usize, events: Vec<(SimTime, SosEvent)>) {
        for (now, event) in events {
            match event {
                SosEvent::MessageReceived {
                    id,
                    kind: MessageKind::Post,
                    created_at,
                    hops,
                    ..
                } => {
                    let Some(&author_idx) = self.user_index.get(&id.author) else {
                        continue;
                    };
                    self.mark(node, now, MapEventKind::Disseminated);
                    if self.followers[author_idx].contains(&node) {
                        self.metrics.delays.record(created_at, now, hops);
                        self.metrics.delivery.delivered(node, author_idx);
                        if let Some((_, delay_ms)) = &self.obs {
                            delay_ms.record(now.since(created_at).as_millis());
                        }
                    }
                }
                SosEvent::SecurityAlert { .. } => self.metrics.security_alerts += 1,
                _ => {}
            }
        }
    }
}

/// Mirrors the final [`RunMetrics`] totals into the registry
/// (`driver/...` counters), so a registry snapshot is a complete
/// picture of the run without consulting the returned value.
fn export_metrics(r: &Registry, metrics: &RunMetrics) {
    r.counter("driver/posts").add(metrics.posts);
    r.counter("driver/frames_sent").add(metrics.frames_sent);
    r.counter("driver/frames_lost").add(metrics.frames_lost);
    r.counter("driver/security_alerts")
        .add(metrics.security_alerts);
    r.counter("driver/deliveries")
        .add(metrics.delays.len() as u64);
}

/// Sums middleware stats over a slice of applications
/// (via [`SosStats::merge`], so new counters are never dropped).
pub(crate) fn aggregate_stats(apps: &[AlleyOopApp]) -> SosStats {
    let mut total = SosStats::default();
    for app in apps {
        total.merge(&app.middleware().stats());
    }
    total
}
