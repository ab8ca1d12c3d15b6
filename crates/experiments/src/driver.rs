//! The discrete-event driver: moves frames between AlleyOop apps
//! according to an encounter timeline and link models, and records
//! every metric the paper's evaluation reports.
//!
//! This is the substitute for physics: where the paper had ten iPhones
//! radiating over Bluetooth and peer-to-peer WiFi, we have an
//! [`EncounterSource`] timeline, per-bearer latency/bandwidth/loss,
//! and a seeded RNG.
//!
//! **Determinism rule:** the driver derives *everything* from the
//! encounter timeline — connectivity comes from `ContactUp` /
//! `ContactDown` events, and each contact's link quality is frozen at
//! its up-distance. Positions are consulted only for the Fig. 4b map
//! overlay, never for behavior. Two sources emitting the same timeline
//! therefore produce byte-identical runs, which is what makes
//! `sos-trace` record→replay exact (see `experiments::replay`).
//!
//! **Wakes follow contacts:** a node is woken for an advertisement only
//! on the boundaries of its cadence that fall inside a window during
//! which it has a peer — the rule the lockstep schedule has always had
//! (`sos_node::provision::ad_boundaries`, shared with it). A boundary
//! outside every window found the advertiser alone: the runtime emitted
//! no frame, so nothing was drawn from the RNG that link loss and the
//! middleware share, and nothing was journaled. Leaving those wakes out
//! of the queue is therefore invisible in every output, and the wakes
//! that remain are enqueued in the order they always were (after the
//! contacts, node by node, time ascending), so equal-time events still
//! pop in the same order. A run costs what its contacts warrant, not
//! what its span does: on the paper-shaped week of ten phones, 87 % of
//! all boundaries find the advertiser alone.
//! Windows mean what the runtime's peer set means — a contact-up on a
//! boundary admits it, a contact-down on it excludes it — and a contact
//! still open at the end of the run stays open *through* the end: the
//! advertisement due at that last instant is sent and counted, though
//! its frames arrive too late. (The lockstep schedule closes such a
//! contact *at* the end instead; see `sos_node::lockstep`.)
//!
//! **Sans-I/O split:** the middleware loop itself — session
//! lifecycles, advertisement cadence, peer connectivity — lives in
//! [`sos_node::runtime::NodeRuntime`], the same state machine the
//! in-vivo TCP daemons run. The driver is a thin client that adds the
//! physics the paper's field study had for free: link selection by
//! distance, loss, serialization delay, and in-order delivery per
//! directed link. Frames cross the boundary as typed values
//! (`push_frame` / `poll_frames`) with the driver's one shared RNG, so
//! the driver pays no codec cost — the link model costs a frame by
//! [`Frame::wire_size`], which is computed from the frame's fields, not
//! by encoding it; and the runtime's peer set is the only record of who
//! is connected to whom — the driver keeps just the distance each open
//! contact was frozen at.
//!
//! **One study plane:** every driver-based experiment (field study,
//! replay, corpus, density) is a builder that provisions a [`Study`];
//! [`run_study`] is the one place that wires the driver, attaches the
//! observer, schedules the posts, runs and totals, and many studies are
//! one `sos_engine::run_replicas` over it. What comes back is always a
//! [`StudyRun`], and the numbers every table reports are its
//! [`RunSummary`] (or their [`RunSummary::mean`]).

use crate::observe::RunObserver;
use alleyoop::app::AlleyOopApp;
use rand::SeedableRng;
use sos_core::message::MessageKind;
use sos_core::middleware::{SosEvent, SosStats};
use sos_core::routing::SchemeKind;
use sos_net::{Frame, LinkModel, PeerId};
use sos_node::provision::{ad_boundaries, ad_phase};
use sos_node::runtime::{NodeConfig, NodeRuntime};
use sos_obs::journal::ObsEvent;
use sos_obs::{Histogram, JournalEntry, JournalHandle, NodeObs, Registry};
use sos_sim::metrics::{DelayRecorder, DeliveryRecorder};
use sos_sim::{EncounterSource, EventQueue, SimDuration, SimTime, World};
use std::collections::{BTreeMap, BTreeSet};

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

/// Driver events.
#[derive(Debug)]
// Deliver(Frame) dominates by design. `Box<Frame>` (48 B queue entries,
// one allocation per delivery) was timed against this on `study_replay`
// once the queue held ~14 k entries instead of ~101 k: a tie (-3.5 %
// median, 10 of 14 pairs, inside the quartiles), so the frame stays inline.
#[allow(clippy::large_enum_variant)]
enum Event {
    /// `node` broadcasts its advertisement to everyone in range.
    Advertise(usize),
    /// A frame arrives at `dst` (sent by `src` earlier).
    Deliver {
        src: usize,
        dst: usize,
        frame: Frame,
    },
    /// `node` authors a post.
    Post { node: usize },
    /// A contact opened; the pair can exchange frames at the given
    /// link distance until it closes.
    ContactUp { a: usize, b: usize, distance_m: f64 },
    /// A contact closed; both ends lose the peer.
    ContactDown { a: usize, b: usize },
}

/// A stretch of the run during which a node has at least one peer:
/// from the instant its peer set stops being empty to the instant it
/// is empty again (`None`: never, within the timeline).
type Window = (SimTime, Option<SimTime>);

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Advertisement broadcast period per node.
    pub ad_interval: SimDuration,
    /// Whether infrastructure WiFi is available (extends range).
    pub infra_available: bool,
    /// RNG seed for link loss and middleware randomness.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            ad_interval: SimDuration::from_secs(60),
            infra_available: false,
            seed: 7,
        }
    }
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
    /// Frames lost to the link model.
    pub frames_lost: u64,
    /// Security alerts raised by any node.
    pub security_alerts: u64,
}

/// A provisioned study: everything a scenario decides, and all
/// [`run_study`] needs. Scenarios only fill this in.
pub struct Study<S: EncounterSource> {
    /// The routing scheme the apps were signed up with.
    pub scheme: SchemeKind,
    /// The scenario seed the inputs below were derived from.
    pub seed: u64,
    /// One app per node of `source`, subscriptions already wired.
    pub apps: Vec<AlleyOopApp>,
    /// The encounter timeline.
    pub source: S,
    /// `followers[author]` = node indices subscribed to `author`.
    pub followers: Vec<Vec<usize>>,
    /// The post workload as `(time, author node)`, in scheduling order.
    pub posts: Vec<(SimTime, usize)>,
    /// Link and advertisement parameters (and the driver's own seed).
    pub driver: DriverConfig,
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

/// What a comparison table says about one run — or, the counts being
/// `f64`, about the mean of several (see [`RunSummary::mean`]). Plain
/// data, so it can cross `sos_engine::run_replicas`' worker threads.
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
    /// The mean of `runs`, number by number (the median delay over the
    /// runs that delivered anything), so its
    /// [`overhead`](RunSummary::overhead) is mean transfers per mean
    /// delivery.
    pub fn mean(runs: &[RunSummary]) -> RunSummary {
        let mean = |of: fn(&RunSummary) -> Option<f64>| {
            let values: Vec<f64> = runs.iter().filter_map(of).collect();
            (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
        };
        RunSummary {
            deliveries: mean(|s| Some(s.deliveries)).unwrap_or(0.0),
            transfers: mean(|s| Some(s.transfers)).unwrap_or(0.0),
            one_hop_fraction: mean(|s| Some(s.one_hop_fraction)).unwrap_or(0.0),
            median_delay_hours: mean(|s| s.median_delay_hours),
            delivery_ratio: mean(|s| Some(s.delivery_ratio)).unwrap_or(0.0),
        }
    }

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
    let mut driver = Driver::new(
        study.apps,
        study.source,
        study.followers,
        study.driver,
        study.end,
    );
    if let Some(o) = obs {
        driver.attach_observer(&o.registry, &o.journal);
    }
    for (at, node) in study.posts {
        driver.schedule_post(at, node);
    }
    let (metrics, apps) = driver.run();
    StudyRun {
        scheme: study.scheme,
        seed: study.seed,
        totals: aggregate_stats(&apps),
        metrics,
        apps,
    }
}

/// The simulation driver: apps + encounter source + queue + recorders.
///
/// Generic over [`EncounterSource`], so the same driver runs on the
/// naive [`World`] scan, on `sos-engine`'s grid-indexed kernel, or on
/// a `sos-trace` recorded/synthetic trace replay.
pub struct Driver<C: EncounterSource = World> {
    /// One sans-I/O runtime per node: the middleware loop the in-vivo
    /// daemons run verbatim. Their peer sets are the connectivity truth
    /// for advertisements and deliveries.
    nodes: Vec<NodeRuntime>,
    source: C,
    /// follower sets: `follows[author] = set of follower node indices`.
    followers: Vec<Vec<usize>>,
    user_index: BTreeMap<sos_crypto::UserId, usize>,
    queue: EventQueue<Event>,
    /// The up-distance each open contact was frozen at, by normalized
    /// `(lo, hi)` pair: what [`Self::transmit`] picks the bearer from.
    links: BTreeMap<(usize, usize), f64>,
    /// Last scheduled arrival per directed `(src, dst)` pair: the MPC
    /// substrate is a reliable *ordered* byte stream, so a small frame
    /// (shorter serialization delay) must never overtake a large one
    /// sent earlier on the same link — the session layer's strictly
    /// increasing sequence numbers depend on it.
    in_flight: BTreeMap<(usize, usize), SimTime>,
    rng: rand::rngs::StdRng,
    config: DriverConfig,
    end: SimTime,
    metrics: RunMetrics,
    obs: Option<DriverObs>,
}

/// The driver's own observability wiring (see [`Driver::attach_observer`]).
#[derive(Clone, Debug)]
struct DriverObs {
    registry: Registry,
    journal: JournalHandle,
    /// Wire sizes of every transmitted frame.
    frame_bytes: Histogram,
    /// Delivery delays (interested subscribers only), milliseconds.
    delay_ms: Histogram,
}

impl<C: EncounterSource> Driver<C> {
    /// Creates a driver.
    ///
    /// `followers[a]` lists the node indices subscribed to node `a`'s
    /// user; the driver uses it to register delivery expectations.
    ///
    /// # Panics
    ///
    /// Panics if `apps` and the world disagree on the node count.
    pub fn new(
        apps: Vec<AlleyOopApp>,
        source: C,
        followers: Vec<Vec<usize>>,
        config: DriverConfig,
        end: SimTime,
    ) -> Driver<C> {
        assert_eq!(apps.len(), source.node_count(), "node count mismatch");
        assert_eq!(apps.len(), followers.len(), "follower map mismatch");
        let user_index = apps
            .iter()
            .enumerate()
            .map(|(i, app)| (app.user_id(), i))
            .collect();
        let rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let n = apps.len();
        let nodes = apps
            .into_iter()
            .enumerate()
            .map(|(i, app)| {
                NodeRuntime::new(
                    app,
                    NodeConfig {
                        ad_interval: config.ad_interval,
                        ad_phase: ad_phase(config.ad_interval, i, n),
                    },
                )
            })
            .collect();
        Driver {
            nodes,
            source,
            followers,
            user_index,
            queue: EventQueue::new(),
            links: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            rng,
            config,
            end,
            metrics: RunMetrics::default(),
            obs: None,
        }
    }

    /// Attaches observability to the whole run: every node's middleware
    /// gets a journal scope (events attributed by node index) and its
    /// live stat cells registered as `node<i>/sos/...`, while the driver
    /// itself journals contact transitions and feeds the
    /// `driver/frame_bytes` and `driver/delivery_delay_ms` histograms.
    /// Purely passive: an observed run is byte-identical to a blind one.
    pub fn attach_observer(&mut self, registry: &Registry, journal: &JournalHandle) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let mw = node.app_mut().middleware_mut();
            mw.attach_obs(NodeObs::new(i as u32, journal.clone()));
            mw.register_metrics(registry, &format!("node{i}/sos"));
        }
        self.obs = Some(DriverObs {
            registry: registry.clone(),
            journal: journal.clone(),
            frame_bytes: registry.histogram("driver/frame_bytes"),
            delay_ms: registry.histogram("driver/delivery_delay_ms"),
        });
    }

    /// Journals a driver-level (contact) event.
    fn note_contact(&self, now: SimTime, a: usize, b: usize, up: bool) {
        if let Some(obs) = &self.obs {
            let (a, b) = (a as u32, b as u32);
            obs.journal.push(JournalEntry {
                time: now,
                node: a,
                event: if up {
                    ObsEvent::ContactUp { a, b }
                } else {
                    ObsEvent::ContactDown { a, b }
                },
            });
        }
    }

    /// Enqueues a driver event. Every driver schedule is at or after
    /// the queue clock by construction — contacts, advertisements, and
    /// posts are laid out before the run starts (clock zero), and
    /// deliveries arrive at `now` plus a non-negative latency — so
    /// [`sos_sim::SimError::SchedulePast`] is unreachable here.
    fn enqueue(&mut self, at: SimTime, event: Event) {
        self.queue
            .schedule(at, event)
            // sos-lint: allow(no-panic) reason="all driver event times are >= the queue clock by construction (see doc comment)"
            .expect("driver events are never scheduled into the past");
    }

    /// Schedules a post by `node` at `at`.
    pub fn schedule_post(&mut self, at: SimTime, node: usize) {
        self.enqueue(at, Event::Post { node });
    }

    /// Schedules each node's advertisement wakes, node-major and time
    /// ascending, on the boundaries (phase-staggered across the
    /// interval, the same offset the node's runtime was configured
    /// with) that fall inside one of its `windows`.
    fn schedule_advertisements(&mut self, windows: &[Vec<Window>]) {
        let (interval, n, end) = (self.config.ad_interval, self.nodes.len(), self.end);
        for (node, node_windows) in windows.iter().enumerate() {
            for &(start, stop) in node_windows {
                for t in ad_boundaries(interval, node, n, start, stop, end) {
                    self.enqueue(t, Event::Advertise(node));
                }
            }
        }
    }

    /// Schedules the entire encounter timeline: contact-up events open
    /// links (freezing the link distance for the contact's lifetime),
    /// contact-down events close them and break sessions.
    ///
    /// Scheduled *before* the advertisements so that at equal
    /// timestamps the FIFO queue applies the transition first — an ad
    /// broadcast on the tick a contact comes up reaches the new peer,
    /// and one on the tick it goes down does not, matching the
    /// geometric sampling semantics this replaces.
    ///
    /// Returns, per node, the windows during which it has a peer, in
    /// time order: what its runtime's peer set will hold once the queue
    /// has applied these events. A window opens when the set of
    /// *distinct* peers goes 0 → 1 and closes when it goes 1 → 0 (a
    /// repeated `Up`, or a `Down` for a closed pair, changes nothing,
    /// as in [`NodeRuntime::on_encounter_up`]); one still open at the
    /// end of the timeline has no close.
    fn schedule_contacts(&mut self) -> Vec<Vec<Window>> {
        let mut events = self.source.encounter_events(SimTime::ZERO, self.end);
        // The queue applies equal-time events in scheduling order, so a
        // stable sort by time is the order it will apply these in,
        // whatever order the source listed them in.
        events.sort_by_key(|ev| ev.time);
        let n = self.nodes.len();
        let mut peers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut windows: Vec<Vec<Window>> = vec![Vec::new(); n];
        for ev in events {
            let up = ev.phase == sos_sim::ContactPhase::Up;
            for (node, peer) in [(ev.a, ev.b), (ev.b, ev.a)] {
                if up {
                    if peers[node].insert(peer) && peers[node].len() == 1 {
                        windows[node].push((ev.time, None));
                    }
                } else if peers[node].remove(&peer) && peers[node].is_empty() {
                    if let Some(open) = windows[node].last_mut() {
                        open.1 = Some(ev.time);
                    }
                }
            }
            let event = if up {
                Event::ContactUp {
                    a: ev.a,
                    b: ev.b,
                    distance_m: ev.distance_m,
                }
            } else {
                Event::ContactDown { a: ev.a, b: ev.b }
            };
            self.enqueue(ev.time, event);
        }
        windows
    }

    /// Runs the simulation to the end and returns the metrics and the
    /// final applications (whose local databases hold every feed).
    pub fn run(mut self) -> (RunMetrics, Vec<AlleyOopApp>) {
        let windows = self.schedule_contacts();
        self.schedule_advertisements(&windows);
        while let Some((now, event)) = self.queue.pop() {
            if now > self.end {
                break;
            }
            match event {
                Event::Advertise(node) => {
                    let _span = sos_obs::profile::span("driver/advertise");
                    self.on_advertise(node, now);
                }
                Event::Deliver { src, dst, frame } => {
                    let _span = sos_obs::profile::span("driver/deliver");
                    self.on_deliver(src, dst, frame, now);
                }
                Event::Post { node } => {
                    let _span = sos_obs::profile::span("driver/post");
                    self.on_post(node, now);
                }
                Event::ContactUp { a, b, distance_m } => {
                    let _span = sos_obs::profile::span("driver/contact");
                    self.links.insert(pair(a, b), distance_m);
                    self.note_contact(now, a, b, true);
                    self.nodes[a].on_encounter_up(PeerId(b as u32));
                    self.nodes[b].on_encounter_up(PeerId(a as u32));
                }
                Event::ContactDown { a, b } => {
                    let _span = sos_obs::profile::span("driver/contact");
                    self.links.remove(&pair(a, b));
                    self.note_contact(now, a, b, false);
                    self.nodes[a].on_encounter_down(PeerId(b as u32));
                    self.nodes[b].on_encounter_down(PeerId(a as u32));
                }
            }
        }
        self.export_metrics();
        let apps = self.nodes.into_iter().map(NodeRuntime::into_app).collect();
        (self.metrics, apps)
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

    /// An advertisement wake: the runtime advances to `now` (an exact
    /// ad boundary by construction of [`Self::schedule_advertisements`])
    /// and emits the broadcast to its in-range peers, ascending. The
    /// driver then gives each copy its physics.
    fn on_advertise(&mut self, node: usize, now: SimTime) {
        self.nodes[node].advance_to(now);
        for (to, frame) in self.nodes[node].poll_frames() {
            self.transmit(node, to.0 as usize, frame, now);
        }
    }

    fn transmit(&mut self, src: usize, dst: usize, frame: Frame, now: SimTime) {
        let Some(&distance) = self.links.get(&pair(src, dst)) else {
            return; // contact closed before transmission
        };
        let Some(link) = LinkModel::for_distance(distance, self.config.infra_available) else {
            return; // up-distance beyond every available bearer
        };
        self.metrics.frames_sent += 1;
        if let Some(obs) = &self.obs {
            obs.frame_bytes.record(frame.wire_size() as u64);
        }
        if link.should_drop(&mut self.rng) {
            self.metrics.frames_lost += 1;
            return;
        }
        let delay = link.delay_for(frame.wire_size());
        // In-order delivery per directed link (see `in_flight`): clamp
        // the arrival to no earlier than the previous frame's; equal
        // times pop FIFO, preserving the send order.
        let mut arrival = now + delay;
        let slot = self.in_flight.entry((src, dst)).or_insert(arrival);
        if arrival < *slot {
            arrival = *slot;
        }
        *slot = arrival;
        self.enqueue(arrival, Event::Deliver { src, dst, frame });
    }

    fn on_deliver(&mut self, src: usize, dst: usize, frame: Frame, now: SimTime) {
        // The runtime's gate drops a frame whose contact closed while it
        // was in flight.
        if !self.nodes[dst].push_frame(PeerId(src as u32), frame, now, &mut self.rng) {
            return;
        }
        self.collect_app_events(dst);
        for (to, f) in self.nodes[dst].poll_frames() {
            self.transmit(dst, to.0 as usize, f, now);
        }
    }

    fn on_post(&mut self, node: usize, now: SimTime) {
        let n = self.metrics.posts + 1;
        let text = format!("post #{n} by {}", self.nodes[node].app().handle());
        self.nodes[node].post(&text, now);
        self.metrics.posts += 1;
        if let Some(pos) = self.source.node_position(node, now) {
            self.metrics.map.push(MapEvent {
                x: pos.x,
                y: pos.y,
                kind: MapEventKind::Created,
            });
        }
        for &follower in &self.followers[node] {
            self.metrics.delivery.expect_delivery(follower, node);
        }
    }

    fn collect_app_events(&mut self, node: usize) {
        let events = self.nodes[node].take_events();
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
                    let interested = self.followers[author_idx].contains(&node);
                    if let Some(pos) = self.source.node_position(node, now) {
                        self.metrics.map.push(MapEvent {
                            x: pos.x,
                            y: pos.y,
                            kind: MapEventKind::Disseminated,
                        });
                    }
                    if interested {
                        self.metrics.delays.record(created_at, now, hops);
                        self.metrics.delivery.delivered(node, author_idx);
                        if let Some(obs) = &self.obs {
                            obs.delay_ms.record(now.since(created_at).as_millis());
                        }
                    }
                }
                SosEvent::SecurityAlert { .. } => {
                    self.metrics.security_alerts += 1;
                }
                _ => {}
            }
        }
    }
}

/// The normalized `(lo, hi)` key of the `a`–`b` contact.
fn pair(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Sums middleware stats over a slice of applications
/// (via [`SosStats::merge`], so new counters are never dropped).
pub fn aggregate_stats(apps: &[AlleyOopApp]) -> SosStats {
    let mut total = SosStats::default();
    for app in apps {
        total.merge(&app.middleware().stats());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_node::provision::{provision_apps, RunPlan};
    use sos_sim::world::{ContactEvent, ContactPhase};
    use sos_trace::ContactTrace;

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

    /// A driver over `events` for `n` strangers (nobody follows anybody,
    /// nobody posts: advertisements are all that moves), advertising
    /// every 60 s until `end_secs`.
    fn driver(n: usize, events: Vec<ContactEvent>, end_secs: u64) -> Driver<Raw> {
        let plan = RunPlan::default();
        let population = ContactTrace::new(n, None, vec![ev(0, 0, 1, true)]).expect("valid trace");
        Driver::new(
            provision_apps(&population, &plan),
            Raw(n, events),
            vec![Vec::new(); n],
            DriverConfig::default(),
            SimTime::from_secs(end_secs),
        )
    }

    fn secs(start: u64, stop: Option<u64>) -> Window {
        (SimTime::from_secs(start), stop.map(SimTime::from_secs))
    }

    #[test]
    fn the_mean_delay_skips_runs_that_delivered_nothing() {
        let run = |deliveries: f64, median_delay_hours: Option<f64>| RunSummary {
            deliveries,
            transfers: 2.0 * deliveries,
            one_hop_fraction: 1.0,
            median_delay_hours,
            delivery_ratio: 0.5,
        };
        let mean = RunSummary::mean(&[run(4.0, Some(1.0)), run(0.0, None), run(2.0, Some(3.0))]);
        assert_eq!(mean, run(2.0, Some(2.0)));
        assert_eq!(RunSummary::mean(&[run(0.0, None)]), run(0.0, None));
    }

    #[test]
    fn windows_follow_what_the_runtime_peer_sets_will_hold() {
        let events = vec![
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
            ev(600, 3, 4, true),  // never closed
        ];
        let windows = driver(6, events, 1_000).schedule_contacts();
        assert_eq!(
            windows,
            vec![
                vec![secs(100, Some(300)), secs(300, Some(450))],
                vec![secs(100, Some(400))],
                vec![secs(200, Some(400)), secs(500, Some(500))],
                vec![secs(300, Some(450)), secs(600, None)],
                vec![secs(500, Some(500)), secs(600, None)],
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
        let mut d = driver(2, events, 86_400);
        let windows = d.schedule_contacts();
        d.schedule_advertisements(&windows);
        let mut wakes = Vec::new();
        while let Some((at, event)) = d.queue.pop() {
            if let Event::Advertise(node) = event {
                wakes.push((at.as_secs(), node));
            }
        }
        assert_eq!(wakes, vec![(90, 1), (120, 0), (150, 1), (180, 0)]);
    }

    /// The one point where the driver and the lockstep schedule read a
    /// window differently: a contact still open at the end stays open
    /// *through* it, so an advertiser due exactly at the end sends, and
    /// the frame counts although it arrives too late. (The other side
    /// is `a_contact_dangling_at_the_end_does_not_tick_there` in
    /// `sos_node::lockstep`.)
    #[test]
    fn a_contact_dangling_through_the_end_advertises_at_the_end() {
        // Node 0 is due at 60 and 120 = the end; node 1 at 30 and 90.
        let (metrics, _) = driver(2, vec![ev(10, 0, 1, true)], 120).run();
        assert_eq!(metrics.frames_sent, 4);
    }
}
