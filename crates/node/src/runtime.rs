//! The sans-I/O node runtime: one node's complete middleware loop —
//! session lifecycles, advertisement broadcasts, peer connectivity — as
//! a pure state machine with frames at the edge and time always
//! injected.
//!
//! There is one frame surface — [`push_frame`](NodeRuntime::push_frame)
//! in, its replies and [`advertise`](NodeRuntime::advertise)'s broadcast
//! out — and the caller injects both the time and the randomness of
//! every call. There is one
//! caller too: the round engine, [`Host`](crate::host::Host), which gives
//! node `i` its own stream, seeded by
//! [`provision::node_seed`](crate::provision::node_seed), and moves typed
//! frames over a `sos_net::Air`, so the runtime never sees bytes.
//!
//! The runtime keeps no clock and no cadence: the host says when it
//! [`advertise`](NodeRuntime::advertise)s, on the wakes of
//! [`provision::schedule`](crate::provision::schedule), the one owner of
//! the advertisement cadence. Nothing here reads a wall clock, so the
//! no-wallclock lint holds for in-vivo builds exactly as for
//! simulation.

use alleyoop::app::AlleyOopApp;
use rand::RngCore;
use sos_core::message::MessageId;
use sos_core::middleware::SosEvent;
use sos_net::{Frame, PeerId};
use sos_sim::SimTime;
use std::collections::{BTreeSet, VecDeque};

/// One node's transport-agnostic middleware loop.
///
/// Owns the [`AlleyOopApp`] (and through it the `Sos` middleware and
/// every `SessionEndpoint`), the set of peers an encounter currently
/// connects. All methods are synchronous and deterministic; the
/// transport decides *when* to call them, and takes the frames each call
/// emits from its return value.
pub(crate) struct NodeRuntime {
    app: AlleyOopApp,
    /// Peers inside an open contact, ascending — the emission order for
    /// advertisement broadcasts, and the only record of connectivity:
    /// the frame gate in [`push_frame`](Self::push_frame) reads it.
    peers: BTreeSet<u32>,
    /// Application events drained from the middleware, stamped with the
    /// injected time they were processed at.
    events: VecDeque<(SimTime, SosEvent)>,
}

impl NodeRuntime {
    /// Wraps an app in a runtime.
    pub(crate) fn new(app: AlleyOopApp) -> NodeRuntime {
        NodeRuntime {
            app,
            peers: BTreeSet::new(),
            events: VecDeque::new(),
        }
    }

    /// An encounter opened: `peer` is now reachable. Idempotent.
    pub(crate) fn on_encounter_up(&mut self, peer: PeerId) {
        self.peers.insert(peer.0);
    }

    /// An encounter closed: the middleware tears down any session with
    /// `peer` (journaling the `out_of_range` cause) and the peer leaves
    /// the reachable set. Idempotent.
    pub(crate) fn on_encounter_down(&mut self, peer: PeerId) {
        if self.peers.remove(&peer.0) {
            self.app.middleware_mut().on_peer_lost(peer);
        }
    }

    /// The advertisement broadcast of `now`: one `Frame::Advertisement`
    /// per peer in range, ascending, and nothing when the node is alone.
    /// Whether `now` is one of the node's advertisement boundaries is the
    /// caller's to know.
    pub(crate) fn advertise(&mut self, now: SimTime) -> Vec<(PeerId, Frame)> {
        if self.peers.is_empty() {
            return Vec::new();
        }
        let ad = self.app.middleware().advertisement(now);
        let copy = |&peer: &u32| (PeerId(peer), Frame::Advertisement(ad.clone()));
        self.peers.iter().map(copy).collect()
    }

    /// Feeds `frame` from `peer` through the middleware at `now` with
    /// the caller's RNG, queueing application events (stamped `now`) on
    /// the event buffer, and returns the replies in emission order.
    /// Returns `None` (frame dropped) when no open encounter connects
    /// the peer — the contact closed while the frame was in flight.
    pub(crate) fn push_frame<R: RngCore>(
        &mut self,
        peer: PeerId,
        frame: Frame,
        now: SimTime,
        rng: &mut R,
    ) -> Option<Vec<(PeerId, Frame)>> {
        if !self.peers.contains(&peer.0) {
            return None;
        }
        let replies = self
            .app
            .middleware_mut()
            .handle_frame(peer, frame, now, rng);
        for event in self.app.process_events_at(now) {
            self.events.push_back((now, event));
        }
        Some(replies)
    }

    /// Drains buffered application events with the injected time each
    /// was processed at.
    pub(crate) fn take_events(&mut self) -> Vec<(SimTime, SosEvent)> {
        self.events.drain(..).collect()
    }

    /// Authors a post at `now`.
    pub(crate) fn post(&mut self, text: &str, now: SimTime) -> MessageId {
        self.app.post(text, now)
    }

    /// The wrapped application.
    pub(crate) fn app(&self) -> &AlleyOopApp {
        &self.app
    }

    /// Unwraps the application (end of run).
    pub(crate) fn into_app(self) -> AlleyOopApp {
        self.app
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
    use sos_sim::SimDuration;

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
            NodeRuntime::new(app)
        };
        (mk(0, "alice"), mk(1, "bob"))
    }

    /// Shuttles frames between two runtimes (nodes 0 and 1) over an
    /// instant air at `now` until it is quiet, starting from `sent`, which
    /// node 0 emitted, each frame crossing the wire codec the way a frame
    /// between two processes does. After `budget` frames have landed,
    /// replies never leave. Returns the frames that landed.
    fn pump(
        a: &mut NodeRuntime,
        b: &mut NodeRuntime,
        now: SimTime,
        sent: Vec<(PeerId, Frame)>,
        budget: u64,
    ) -> u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let mut air = sos_net::Air::instant();
        air.send(now, PeerId(0), sent);
        let mut landed = 0;
        air.settle(now + SimDuration::from_millis(1), |now, src, dst, frame| {
            let to = if dst == PeerId(0) { &mut *a } else { &mut *b };
            let frame = Frame::decode(&frame.encode()).expect("own frames decode");
            let replies = to.push_frame(src, frame, now, &mut rng);
            landed += 1;
            if landed < budget {
                replies.unwrap_or_default()
            } else {
                Vec::new()
            }
        })
    }

    #[test]
    fn bytes_surface_runs_a_full_sync_session() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        let bob_user = bob.app().user_id();
        let alice_user = alice.app().user_id();
        alice.app.follow(bob_user);
        bob.app.follow(alice_user);

        alice.post("hello in vivo", SimTime::from_secs(10));
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));

        // Alice advertises at t=60; the session handshake, browse, and
        // transfer all cross as encoded frames.
        let now = SimTime::from_secs(60);
        let ads = alice.advertise(now);
        pump(&mut alice, &mut bob, now, ads, u64::MAX);

        assert_eq!(bob.app.middleware().stats().bundles_received, 1);
        let delivered: Vec<_> = bob
            .take_events()
            .into_iter()
            .filter(|(_, e)| matches!(e, SosEvent::MessageReceived { .. }))
            .collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(bob.app().feed().len(), 1);
    }

    #[test]
    fn ads_skip_when_alone() {
        let (mut alice, _) = two_nodes(SchemeKind::Epidemic);
        // No peers: nothing emitted.
        assert!(alice.advertise(SimTime::from_secs(60)).is_empty());
        // In range of two: one copy each, ascending by peer.
        alice.on_encounter_up(PeerId(2));
        alice.on_encounter_up(PeerId(1));
        let out = alice.advertise(SimTime::from_secs(120));
        let to: Vec<PeerId> = out.iter().map(|&(peer, _)| peer).collect();
        assert_eq!(to, [PeerId(1), PeerId(2)]);
        assert!(out
            .iter()
            .all(|(_, frame)| matches!(frame, Frame::Advertisement(_))));
    }

    #[test]
    fn frames_outside_contact_are_dropped() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        alice.post("news", SimTime::from_secs(1));
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));
        let out = alice.advertise(SimTime::from_secs(60));
        assert_eq!(out.len(), 1);

        // Contact closes at bob before the ad arrives: dropped, nothing
        // handled, nothing queued.
        bob.on_encounter_down(PeerId(0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (_, ad) = out.into_iter().next().expect("one ad");
        let dropped = bob.push_frame(PeerId(0), ad.clone(), SimTime::from_secs(60), &mut rng);
        assert!(dropped.is_none());
        assert_eq!(bob.app.middleware().stats().sessions_initiated, 0);

        // Back in contact, the same frame is handled.
        bob.on_encounter_up(PeerId(0));
        let handled = bob.push_frame(PeerId(0), ad, SimTime::from_secs(60), &mut rng);
        assert!(handled.is_some());
        assert_eq!(bob.app.middleware().stats().sessions_initiated, 1);
    }

    #[test]
    fn encounter_down_journals_out_of_range_via_middleware() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        let journal = JournalHandle::new();
        bob.app
            .middleware_mut()
            .attach_obs(NodeObs::new(1, journal.clone()));
        alice.post("x", SimTime::from_secs(1));
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));
        let now = SimTime::from_secs(60);
        let ads = alice.advertise(now);

        // Ad → bob's handshake init → alice's handshake reply: bob now
        // holds an established session and a request for alice, which
        // the pump holds back. The contact tears before it leaves.
        assert_eq!(pump(&mut alice, &mut bob, now, ads, 3), 3);
        assert_eq!(bob.app.middleware().stats().sessions_initiated, 1);
        assert_eq!(
            bob.app.middleware().stats().bundles_received,
            0,
            "torn before any transfer"
        );

        bob.on_encounter_down(PeerId(0));

        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let invite = Frame::Invite { from: PeerId(0) };
        assert!(
            bob.push_frame(PeerId(0), invite, now, &mut rng).is_none(),
            "out of contact"
        );
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
