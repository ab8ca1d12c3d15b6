//! The discrete-event driver: moves frames between AlleyOop apps
//! over a radio [`Air`] according to an encounter timeline, and records
//! every metric the paper's evaluation reports.
//!
//! This is the substitute for physics: where the paper had ten iPhones
//! radiating over Bluetooth and peer-to-peer WiFi, we have an
//! [`EncounterSource`] timeline, per-bearer latency/bandwidth/loss,
//! and seeded randomness.
//!
//! **Determinism rule:** the driver derives *everything* from the
//! encounter timeline and the study seed — connectivity comes from
//! `ContactUp` / `ContactDown` events, and each contact's link quality is
//! frozen at its up-distance. Positions are consulted only for the
//! Fig. 4b map overlay, never for behavior. Two sources emitting the
//! same timeline therefore produce byte-identical runs, which is what
//! makes `sos-trace` record→replay exact (see `experiments::replay`).
//! The randomness is the lockstep plane's: node `i` draws its session
//! randomness from its own stream, [`sos_node::provision::node_seed`] of
//! the study seed, as a lockstep `Host` gives it, and the air draws each
//! directed link's losses from that link's own stream under a sibling
//! seed. A draw therefore moves only what its node or its link does, and
//! a frame more or less on one link shifts no other link's losses.
//!
//! **One schedule:** a run walks the steps of
//! [`sos_node::provision::schedule`] — contact transitions, posts and
//! advertisement wakes — the one schedule the lockstep conductor walks
//! too, under its one end-of-run rule; only frames in flight wait on the
//! air between them. The schedule is the one owner of the advertisement
//! cadence: each wake is an exact boundary of its node, and the driver
//! just calls that node's `advertise`. A node wakes only on the
//! boundaries of its cadence that find it with a peer, so a run costs
//! what its contacts warrant, not what its span does: on the
//! paper-shaped week of ten phones, 87 % of all boundaries find the
//! advertiser alone.
//!
//! **Sans-I/O split:** the middleware loop itself — session
//! lifecycles, advertisement broadcasts, peer connectivity — lives in
//! [`sos_node::runtime::NodeRuntime`], the same state machine the
//! in-vivo TCP daemons run, and which keeps no clock and no cadence.
//! The physics the paper's field study had for free — bearer selection
//! by distance, loss, serialization delay, and in-order delivery per
//! directed link — lives in [`sos_net::Air`], the one medium the
//! unit-test pumps move frames through too; the driver only tells it of
//! contact transitions and hands it each node's frames. Frames cross the
//! boundary as typed values (`push_frame` / `poll_frames`), so the
//! driver pays no codec cost: the air costs a frame by
//! [`sos_net::Frame::wire_size`], which is computed from the frame's
//! fields, not by encoding it. The air lands one instant's frames as
//! rounds in `(to, from, send number)` order, the order a lockstep
//! `Host` decodes a round in, so on an instant air
//! ([`Medium::Instant`]) a study computes exactly the lockstep
//! [`run_mesh`](sos_node::mesh::run_mesh) run of the same
//! `(trace, plan)`: delivered set, per-node stats and frame count
//! (`tests/plane_differential.rs`). A radio air
//! ([`Medium::Radio`]) adds latency, serialization and loss to that.
//!
//! **One study plane:** every driver-based experiment (field study,
//! replay, corpus, density) is a builder that provisions a [`Study`];
//! [`run_study`] is the only way to drive one: it builds the schedule,
//! wires the driver, attaches the observer, runs and totals, and many
//! studies are one `sos_engine::run_replicas` over it. What comes back
//! is always a [`StudyRun`], and the numbers every table reports are its
//! [`RunSummary`].

use crate::observe::RunObserver;
use alleyoop::app::AlleyOopApp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_core::message::MessageKind;
use sos_core::middleware::{SosEvent, SosStats};
use sos_core::routing::SchemeKind;
use sos_net::{Air, Medium, PeerId};
use sos_node::provision::{node_seed, post_text, schedule, Step};
use sos_node::runtime::NodeRuntime;
use sos_obs::journal::ObsEvent;
use sos_obs::{Histogram, JournalEntry, JournalHandle, NodeObs, Registry};
use sos_sim::metrics::{DelayRecorder, DeliveryRecorder};
use sos_sim::{ContactEvent, ContactPhase, EncounterSource, SimDuration, SimTime};
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
    /// randomness from the stream `provision::node_seed(seed, i)`, as in
    /// a lockstep `Host`, and the air its losses from streams under a
    /// sibling seed.
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

/// Runs a provisioned study to its end. With `obs`, every node's stat
/// cells are adopted into its registry and lifecycle events flow into
/// its journal; the run itself is byte-identical to the blind one.
pub fn run_study<S: EncounterSource>(study: Study<S>, obs: Option<&RunObserver>) -> StudyRun {
    let (scheme, seed) = (study.scheme, study.seed);
    let mut driver = Driver::provision(study);
    if let Some(o) = obs {
        driver.attach_observer(&o.registry, &o.journal);
    }
    let (metrics, apps) = driver.run();
    StudyRun {
        scheme,
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

/// The simulation driver: apps + encounter source + recorders.
///
/// Generic over [`EncounterSource`], so the same driver runs on the
/// naive `World` scan, on `sos-engine`'s grid-indexed kernel, or on
/// a `sos-trace` recorded/synthetic trace replay.
struct Driver<C: EncounterSource> {
    /// One sans-I/O runtime per node: the middleware loop the in-vivo
    /// daemons run verbatim. Their peer sets are the connectivity truth
    /// for advertisements and deliveries.
    nodes: Vec<NodeRuntime>,
    /// Node `i`'s session randomness, the stream a lockstep `Host` gives
    /// it.
    streams: Vec<StdRng>,
    source: C,
    /// follower sets: `follows[author] = set of follower node indices`.
    followers: Vec<Vec<usize>>,
    user_index: BTreeMap<sos_crypto::UserId, usize>,
    /// The steps of the run's schedule, walked in order by [`Self::run`].
    schedule: Vec<(SimTime, Step)>,
    air: Medium,
    /// The study seed, whose sibling [`LOSS`] seeds the air's loss
    /// streams.
    seed: u64,
    end: SimTime,
    metrics: RunMetrics,
    obs: Option<DriverObs>,
}

/// The driver's own observability wiring (see [`Driver::attach_observer`]).
#[derive(Clone, Debug)]
struct DriverObs {
    registry: Registry,
    journal: JournalHandle,
    /// Delivery delays (interested subscribers only), milliseconds.
    delay_ms: Histogram,
}

impl<C: EncounterSource> Driver<C> {
    /// Wires a driver for `study`: one runtime and one session stream
    /// per app, and the study's schedule.
    ///
    /// # Panics
    ///
    /// Panics if the apps, the source and the follower map disagree on
    /// the node count.
    fn provision(study: Study<C>) -> Driver<C> {
        let n = study.apps.len();
        assert_eq!(n, study.source.node_count(), "node count mismatch");
        assert_eq!(n, study.followers.len(), "follower map mismatch");
        let schedule = schedule(&study.source, study.end, study.posts, study.ad_interval);
        let user_index = (study.apps.iter().enumerate())
            .map(|(i, app)| (app.user_id(), i))
            .collect();
        Driver {
            nodes: study.apps.into_iter().map(NodeRuntime::new).collect(),
            streams: (0..n)
                .map(|i| StdRng::seed_from_u64(node_seed(study.seed, i)))
                .collect(),
            source: study.source,
            followers: study.followers,
            user_index,
            schedule,
            air: study.air,
            seed: study.seed,
            end: study.end,
            metrics: RunMetrics::default(),
            obs: None,
        }
    }

    /// Attaches observability to the whole run: every node's middleware
    /// gets a journal scope (events attributed by node index) and its
    /// live stat cells registered as `node<i>/sos/...`, while the driver
    /// itself journals contact transitions and feeds the
    /// `driver/delivery_delay_ms` histogram, and its air the
    /// `driver/frame_bytes` one.
    /// Purely passive: an observed run is byte-identical to a blind one.
    fn attach_observer(&mut self, registry: &Registry, journal: &JournalHandle) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let mw = node.app_mut().middleware_mut();
            mw.attach_obs(NodeObs::new(i as u32, journal.clone()));
            mw.register_metrics(registry, &format!("node{i}/sos"));
        }
        self.obs = Some(DriverObs {
            registry: registry.clone(),
            journal: journal.clone(),
            delay_ms: registry.histogram("driver/delivery_delay_ms"),
        });
    }

    /// Runs the simulation to the end and returns the metrics and the
    /// final applications (whose local databases hold every feed).
    ///
    /// The schedule's steps run in time order, each one after every
    /// frame due before it and before any frame due at its instant:
    /// its contact transitions, then its posts, then its wakes. Frames
    /// due at the end are delivered; later ones never arrive.
    fn run(mut self) -> (RunMetrics, Vec<AlleyOopApp>) {
        let obs = self.obs.as_ref();
        let frame_bytes = obs.map(|o| o.registry.histogram("driver/frame_bytes"));
        let mut air = Air::new(self.air, self.seed ^ LOSS, frame_bytes);
        for (now, step) in std::mem::take(&mut self.schedule) {
            self.deliver_before(&mut air, now);
            for ev in step.encounters {
                let _span = sos_obs::profile::span("driver/contact");
                self.on_contact(&mut air, ev, now);
            }
            for (node, number) in step.posts {
                let _span = sos_obs::profile::span("driver/post");
                self.on_post(node, number, now);
            }
            for node in step.wakes {
                let _span = sos_obs::profile::span("driver/advertise");
                // An ad boundary with a peer in range, by construction of
                // the schedule: one copy to each such peer, ascending.
                self.nodes[node].advertise(now);
                let frames = self.nodes[node].poll_frames();
                air.send(now, PeerId(node as u32), frames);
            }
        }
        self.deliver_before(&mut air, self.end + SimDuration::from_millis(1));
        (self.metrics.frames_sent, self.metrics.frames_lost) = air.totals();
        self.export_metrics();
        let apps = self.nodes.into_iter().map(NodeRuntime::into_app).collect();
        (self.metrics, apps)
    }

    /// Delivers, in air order, every frame due before `t`. The runtime's
    /// gate drops a frame whose contact closed while it was in flight.
    fn deliver_before(&mut self, air: &mut Air, t: SimTime) {
        air.settle(t, |now, src, dst, frame| {
            let _span = sos_obs::profile::span("driver/deliver");
            let node = dst.0 as usize;
            if !self.nodes[node].push_frame(src, frame, now, &mut self.streams[node]) {
                return Vec::new();
            }
            self.collect_app_events(node);
            self.nodes[node].poll_frames()
        });
    }

    /// A contact transition: an `Up` opens the link, frozen at its
    /// distance, a `Down` closes it; the journal and both ends' runtimes
    /// learn of it.
    fn on_contact(&mut self, air: &mut Air, ev: ContactEvent, now: SimTime) {
        let (a, b) = (PeerId(ev.a as u32), PeerId(ev.b as u32));
        let up = ev.phase == ContactPhase::Up;
        if let Some(obs) = &self.obs {
            let (a, b) = (a.0, b.0);
            let event = if up {
                ObsEvent::ContactUp { a, b }
            } else {
                ObsEvent::ContactDown { a, b }
            };
            obs.journal.push(JournalEntry {
                time: now,
                node: a,
                event,
            });
        }
        air.contact(a, b, up.then_some(ev.distance_m));
        for (node, peer) in [(ev.a, b), (ev.b, a)] {
            if up {
                self.nodes[node].on_encounter_up(peer);
            } else {
                self.nodes[node].on_encounter_down(peer);
            }
        }
    }

    /// Mirrors the final [`RunMetrics`] totals into the registry
    /// (`driver/...` counters), so a registry snapshot is a complete
    /// picture of the run without consulting the returned value.
    fn export_metrics(&self) {
        let Some(obs) = &self.obs else { return };
        let r = &obs.registry;
        r.counter("driver/posts").add(self.metrics.posts);
        r.counter("driver/frames_sent")
            .add(self.metrics.frames_sent);
        r.counter("driver/frames_lost")
            .add(self.metrics.frames_lost);
        r.counter("driver/security_alerts")
            .add(self.metrics.security_alerts);
        r.counter("driver/deliveries")
            .add(self.metrics.delays.len() as u64);
    }

    fn on_post(&mut self, node: usize, number: u64, now: SimTime) {
        let text = post_text(number, self.nodes[node].app().handle());
        self.nodes[node].post(&text, now);
        self.metrics.posts += 1;
        self.mark(node, now, MapEventKind::Created);
        for &follower in &self.followers[node] {
            self.metrics.delivery.expect_delivery(follower, node);
        }
    }

    /// Puts `kind` on the Fig. 4b map where `node` is at `now`, if the
    /// source knows.
    fn mark(&mut self, node: usize, now: SimTime, kind: MapEventKind) {
        if let Some(pos) = self.source.node_position(node, now) {
            let (x, y) = (pos.x, pos.y);
            self.metrics.map.push(MapEvent { x, y, kind });
        }
    }

    fn collect_app_events(&mut self, node: usize) {
        for (now, event) in self.nodes[node].take_events() {
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
                        if let Some(obs) = &self.obs {
                            obs.delay_ms.record(now.since(created_at).as_millis());
                        }
                    }
                }
                SosEvent::SecurityAlert { .. } => self.metrics.security_alerts += 1,
                _ => {}
            }
        }
    }
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
