//! The sans-I/O node runtime: one node's complete middleware loop —
//! session lifecycles, advertisement cadence, peer connectivity — as a
//! pure state machine with frames at the edge and time always injected.
//!
//! There is one frame surface — [`push_frame`](NodeRuntime::push_frame)
//! in, [`poll_frames`](NodeRuntime::poll_frames) out — and the caller
//! injects both the time and the randomness of every call. The
//! simulation driver (`sos_experiments::driver`, downstream of this
//! crate) passes its one shared RNG; the lockstep `Host` (`host.rs`)
//! behind the mesh and the TCP daemon passes each node's own seeded
//! stream and owns the wire codec, so the runtime never sees bytes.
//!
//! Nothing here reads a wall clock: [`advance_to`](NodeRuntime::advance_to)
//! is the only way time moves, so the no-wallclock lint holds for in-vivo
//! builds exactly as for simulation.

use alleyoop::app::AlleyOopApp;
use rand::RngCore;
use sos_core::message::MessageId;
use sos_core::middleware::{SosEvent, SosStats};
use sos_net::{Frame, PeerId};
use sos_sim::{SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// The advertisement period a run actually uses: `ad_interval` floored
/// at 1 ms. A zero interval (which the control codec can carry) would
/// otherwise never move an advertisement boundary past `now`, and every
/// loop that steps by the interval — here, in the lockstep schedule, in
/// the simulation driver — would spin forever.
pub fn ad_period(ad_interval: SimDuration) -> SimDuration {
    SimDuration::from_millis(ad_interval.as_millis().max(1))
}

/// Runtime configuration: the advertisement cadence.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Advertisement broadcast period (floored by [`ad_period`]).
    pub ad_interval: SimDuration,
    /// Phase offset of the first advertisement (stagger nodes across
    /// the interval so simultaneous session collisions are rare).
    pub ad_phase: SimDuration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            ad_interval: SimDuration::from_secs(60),
            ad_phase: SimDuration::from_millis(0),
        }
    }
}

/// One node's transport-agnostic middleware loop.
///
/// Owns the [`AlleyOopApp`] (and through it the `Sos` middleware and
/// every `SessionEndpoint`), the set of peers an encounter currently
/// connects, the outbox of frames awaiting the transport, and the
/// advertisement schedule. All methods are synchronous and
/// deterministic; the transport decides *when* to call them.
pub struct NodeRuntime {
    app: AlleyOopApp,
    /// Peers inside an open contact, ascending — the emission order for
    /// advertisement broadcasts, and the only record of connectivity:
    /// the frame gate in [`push_frame`](Self::push_frame) reads it.
    peers: BTreeSet<u32>,
    /// Frames awaiting the transport, in emission order.
    outbox: VecDeque<(PeerId, Frame)>,
    /// Application events drained from the middleware, stamped with the
    /// injected time they were processed at.
    events: VecDeque<(SimTime, SosEvent)>,
    clock: SimTime,
    next_ad: SimTime,
    ad_interval: SimDuration,
}

impl NodeRuntime {
    /// Wraps an app in a runtime.
    pub fn new(app: AlleyOopApp, config: NodeConfig) -> NodeRuntime {
        NodeRuntime {
            app,
            peers: BTreeSet::new(),
            outbox: VecDeque::new(),
            events: VecDeque::new(),
            clock: SimTime::ZERO,
            next_ad: SimTime::ZERO + config.ad_phase,
            ad_interval: ad_period(config.ad_interval),
        }
    }

    /// An encounter opened: `peer` is now reachable. Idempotent.
    pub fn on_encounter_up(&mut self, peer: PeerId) {
        self.peers.insert(peer.0);
    }

    /// An encounter closed: the middleware tears down any session with
    /// `peer` (journaling the `out_of_range` cause) and the peer leaves
    /// the reachable set. Idempotent.
    pub fn on_encounter_down(&mut self, peer: PeerId) {
        if self.peers.remove(&peer.0) {
            self.app.middleware_mut().on_peer_lost(peer);
        }
    }

    /// Whether `peer` is inside an open encounter.
    pub fn in_contact(&self, peer: PeerId) -> bool {
        self.peers.contains(&peer.0)
    }

    /// Advances the injected clock and emits the advertisement broadcast
    /// if `now` lands exactly on an ad boundary (`phase + k·interval`)
    /// and any peer is in range. Boundaries strictly before `now` that were
    /// never visited are dropped, not emitted late: the pacer (driver
    /// tick or broker step) owns the decision to wake the node on a
    /// boundary. Pacers wake a node only while it has a peer, so `now`
    /// may be days past the last visit: the boundaries in between are
    /// stepped over arithmetically, not one by one.
    pub fn advance_to(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
        if self.next_ad > now {
            return;
        }
        let interval = self.ad_interval.as_millis();
        let skipped = now.since(self.next_ad).as_millis() / interval;
        let last = self.next_ad + SimDuration::from_millis(skipped * interval);
        if last == now && !self.peers.is_empty() {
            let ad = self.app.middleware().advertisement(now);
            for &p in &self.peers {
                self.outbox
                    .push_back((PeerId(p), Frame::Advertisement(ad.clone())));
            }
        }
        self.next_ad = last + self.ad_interval;
    }

    /// Feeds `frame` from `peer` through the middleware at `now` with
    /// the caller's RNG, queueing replies on the outbox and application
    /// events (stamped `now`) on the event buffer. Returns `false`
    /// (frame dropped) when no open encounter connects the peer — the
    /// contact closed while the frame was in flight.
    pub fn push_frame<R: RngCore>(
        &mut self,
        peer: PeerId,
        frame: Frame,
        now: SimTime,
        rng: &mut R,
    ) -> bool {
        if !self.peers.contains(&peer.0) {
            return false;
        }
        self.clock = self.clock.max(now);
        let replies = self
            .app
            .middleware_mut()
            .handle_frame(peer, frame, now, rng);
        for event in self.app.process_events_at(now) {
            self.events.push_back((now, event));
        }
        self.outbox.extend(replies);
        true
    }

    /// Drains the outbox in emission order.
    pub fn poll_frames(&mut self) -> Vec<(PeerId, Frame)> {
        self.outbox.drain(..).collect()
    }

    /// Drains buffered application events with the injected time each
    /// was processed at.
    pub fn take_events(&mut self) -> Vec<(SimTime, SosEvent)> {
        self.events.drain(..).collect()
    }

    /// Authors a post at `now` (advancing the clock).
    pub fn post(&mut self, text: &str, now: SimTime) -> MessageId {
        self.clock = self.clock.max(now);
        self.app.post(text, now)
    }

    /// The wrapped application.
    pub fn app(&self) -> &AlleyOopApp {
        &self.app
    }

    /// Mutable application access (observer attachment, subscriptions).
    pub fn app_mut(&mut self) -> &mut AlleyOopApp {
        &mut self.app
    }

    /// Unwraps the application (end of run).
    pub fn into_app(self) -> AlleyOopApp {
        self.app
    }

    /// The middleware's live counters.
    pub fn stats(&self) -> SosStats {
        self.app.middleware().stats()
    }

    /// The injected clock's current value.
    pub fn now(&self) -> SimTime {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alleyoop::cloud::Cloud;
    use rand::SeedableRng;
    use sos_core::routing::SchemeKind;
    use sos_obs::journal::ObsEvent;
    use sos_obs::{JournalHandle, NodeObs};

    fn two_nodes(scheme: SchemeKind) -> (NodeRuntime, NodeRuntime) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut cloud = Cloud::new("Test Root CA", [9u8; 32]);
        let mut mk = |i: u32, handle: &str| {
            let app = AlleyOopApp::sign_up(
                &mut cloud,
                PeerId(i),
                handle,
                scheme,
                SimTime::ZERO,
                &mut rng,
            )
            .expect("unique handles");
            NodeRuntime::new(
                app,
                NodeConfig {
                    ad_interval: SimDuration::from_secs(60),
                    ad_phase: SimDuration::from_millis(u64::from(i) * 100),
                },
            )
        };
        (mk(0, "alice"), mk(1, "bob"))
    }

    /// Shuttles frames between two runtimes (nodes 0 and 1) over an
    /// instant air until it is quiet, each frame crossing the wire codec
    /// the way the lockstep host carries it. After `budget` frames have
    /// landed, replies stay in their sender's outbox. Returns the frames
    /// that landed.
    fn pump(a: &mut NodeRuntime, b: &mut NodeRuntime, budget: u64) -> u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let now = a.now().max(b.now());
        let mut air = sos_net::Air::instant();
        air.send(now, PeerId(0), a.poll_frames(), &mut rng);
        air.send(now, PeerId(1), b.poll_frames(), &mut rng);
        let mut landed = 0;
        air.settle(
            now + SimDuration::from_millis(1),
            &mut rng,
            |_, src, dst, frame, rng| {
                let to = if dst == PeerId(0) { &mut *a } else { &mut *b };
                let frame = Frame::decode(&frame.encode()).expect("own frames decode");
                let now = to.now();
                to.push_frame(src, frame, now, rng);
                landed += 1;
                if landed < budget {
                    to.poll_frames()
                } else {
                    Vec::new()
                }
            },
        )
    }

    #[test]
    fn bytes_surface_runs_a_full_sync_session() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        let bob_user = bob.app().user_id();
        let alice_user = alice.app().user_id();
        alice.app_mut().follow(bob_user);
        bob.app_mut().follow(alice_user);

        alice.post("hello in vivo", SimTime::from_secs(10));
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));

        // Alice's phase-0 boundary at t=60 emits the ad; the session
        // handshake, browse, and transfer all cross as encoded frames.
        alice.advance_to(SimTime::from_secs(60));
        bob.advance_to(SimTime::from_secs(60));
        pump(&mut alice, &mut bob, u64::MAX);

        assert_eq!(bob.stats().bundles_received, 1);
        let delivered: Vec<_> = bob
            .take_events()
            .into_iter()
            .filter(|(_, e)| matches!(e, SosEvent::MessageReceived { .. }))
            .collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(bob.app().feed().len(), 1);
    }

    #[test]
    fn ads_skip_when_alone_and_boundaries_never_fire_late() {
        let (mut alice, _) = two_nodes(SchemeKind::Epidemic);
        // No peers: boundary visited, nothing emitted.
        alice.advance_to(SimTime::from_secs(60));
        assert!(alice.poll_frames().is_empty());
        // Peer appears after boundaries 120/180 were skipped over:
        // advancing to a non-boundary time emits nothing retroactively.
        alice.on_encounter_up(PeerId(1));
        alice.advance_to(SimTime::from_secs(190));
        assert!(alice.poll_frames().is_empty());
        // The next exact boundary fires.
        alice.advance_to(SimTime::from_secs(240));
        let out = alice.poll_frames();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Frame::Advertisement(_)));
    }

    #[test]
    fn zero_ad_interval_still_advances() {
        let (alice, _) = two_nodes(SchemeKind::Epidemic);
        let mut alice = NodeRuntime::new(
            alice.into_app(),
            NodeConfig {
                ad_interval: SimDuration::from_millis(0),
                ad_phase: SimDuration::from_millis(0),
            },
        );
        alice.on_encounter_up(PeerId(1));
        // Floored to 1 ms: every millisecond is a boundary, `now` is one
        // of them, and the call returns.
        alice.advance_to(SimTime::from_millis(250));
        assert_eq!(alice.poll_frames().len(), 1);
        assert_eq!(alice.now(), SimTime::from_millis(250));
    }

    /// A runtime with one peer in range, advertising every `interval`
    /// from `phase`.
    fn lone_advertiser(interval: SimDuration, phase: SimDuration) -> NodeRuntime {
        let (alice, _) = two_nodes(SchemeKind::Epidemic);
        let mut alice = NodeRuntime::new(
            alice.into_app(),
            NodeConfig {
                ad_interval: interval,
                ad_phase: phase,
            },
        );
        alice.on_encounter_up(PeerId(1));
        alice
    }

    #[test]
    fn a_month_of_idle_boundaries_is_jumped_not_stepped() {
        let month = SimDuration::from_hours(30 * 24);
        // At the 1 ms floor a zero interval gets, a month is 2.6e9
        // boundaries: stepping them one by one takes seconds per wake.
        let mut floor = lone_advertiser(SimDuration::ZERO, SimDuration::ZERO);
        let wake = SimTime::ZERO + month;
        floor.advance_to(wake);
        assert_eq!(floor.poll_frames().len(), 1, "every millisecond is due");
        assert_eq!(floor.next_ad, wake + SimDuration::from_millis(1));

        // At a real period the wake must land on a boundary to fire:
        // 1 ms either side of `phase + k · 60 s` emits nothing, and
        // leaves the next boundary where it belongs.
        let minute = SimDuration::from_secs(60);
        let phase = SimDuration::from_millis(17_500);
        let boundary = SimTime::ZERO + phase + month;
        for (offset, fires) in [(0, false), (1, true), (2, false)] {
            let mut alice = lone_advertiser(minute, phase);
            let now = SimTime::from_millis(boundary.as_millis() - 1 + offset);
            alice.advance_to(now);
            assert_eq!(alice.poll_frames().len(), usize::from(fires), "{now:?}");
            let next = if offset == 0 {
                boundary
            } else {
                boundary + minute
            };
            assert_eq!(alice.next_ad, next, "{now:?}");
        }
    }

    mod cadence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The arithmetic catch-up against the loop it replaced —
            /// one step per boundary, firing only when the boundary is
            /// `now` and a peer is present — over wakes up to 10 000
            /// periods apart, on and off boundaries, alone and not.
            #[test]
            fn catch_up_equals_stepping_every_boundary(
                interval_ms in 0u64..5_000,
                phase_ms in 0u64..5_000,
                wakes in prop::collection::vec((0u64..=10_000, 0u64..3, any::<bool>()), 1..12),
            ) {
                let interval = SimDuration::from_millis(interval_ms);
                let mut alice = lone_advertiser(interval, SimDuration::from_millis(phase_ms));
                let period = ad_period(interval);
                let mut next_ad = SimTime::from_millis(phase_ms);
                let mut now = SimTime::ZERO;
                for (periods, nudge_ms, alone) in wakes {
                    // Mostly a whole number of periods on from the last
                    // wake, sometimes a millisecond or two past that.
                    now += SimDuration::from_millis(periods * period.as_millis() + nudge_ms);
                    if alone {
                        alice.on_encounter_down(PeerId(1));
                    } else {
                        alice.on_encounter_up(PeerId(1));
                    }
                    let mut fired = 0;
                    while next_ad <= now {
                        if next_ad == now && !alone {
                            fired += 1;
                        }
                        next_ad += period;
                    }
                    alice.advance_to(now);
                    prop_assert_eq!(alice.poll_frames().len(), fired);
                    prop_assert_eq!(alice.next_ad, next_ad);
                }
            }
        }
    }

    #[test]
    fn frames_outside_contact_are_dropped() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        alice.post("news", SimTime::from_secs(1));
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));
        alice.advance_to(SimTime::from_secs(60));
        let out = alice.poll_frames();
        assert_eq!(out.len(), 1);

        // Contact closes at bob before the ad arrives: dropped, nothing
        // handled, nothing queued.
        bob.on_encounter_down(PeerId(0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (_, ad) = out.into_iter().next().expect("one ad");
        assert!(!bob.push_frame(PeerId(0), ad.clone(), SimTime::from_secs(60), &mut rng));
        assert!(bob.poll_frames().is_empty());
        assert_eq!(bob.stats().sessions_initiated, 0);

        // Back in contact, the same frame is handled.
        bob.on_encounter_up(PeerId(0));
        assert!(bob.push_frame(PeerId(0), ad, SimTime::from_secs(60), &mut rng));
        assert_eq!(bob.stats().sessions_initiated, 1);
    }

    #[test]
    fn encounter_down_journals_out_of_range_via_middleware() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        let journal = JournalHandle::new();
        bob.app_mut()
            .middleware_mut()
            .attach_obs(NodeObs::new(1, journal.clone()));
        alice.post("x", SimTime::from_secs(1));
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));
        alice.advance_to(SimTime::from_secs(60));
        bob.advance_to(SimTime::from_secs(60));

        // Ad → bob's handshake init → alice's handshake reply: bob now
        // holds an established session and has a request queued for
        // alice. The contact tears before that request leaves.
        assert_eq!(pump(&mut alice, &mut bob, 3), 3);
        assert_eq!(bob.stats().sessions_initiated, 1);
        assert_eq!(bob.stats().bundles_received, 0, "torn before any transfer");

        bob.on_encounter_down(PeerId(0));

        assert!(!bob.in_contact(PeerId(0)));
        let closes: Vec<_> = journal
            .snapshot()
            .entries()
            .filter_map(|e| match e.event {
                ObsEvent::SessionClose { peer, reason } => Some((e.node, peer, reason)),
                _ => None,
            })
            .collect();
        assert_eq!(closes, vec![(1, 0, "out_of_range")]);
    }
}
