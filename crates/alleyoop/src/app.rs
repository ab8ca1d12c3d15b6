//! The AlleyOop Social application: the overlay at the top of Fig. 1.
//!
//! Owns the user-facing state (handle, feed, follows) and embeds its own
//! SOS middleware instance (§III: per-application instance, no daemon).
//! The application is "responsible for providing a user interface and
//! storing data to local or online storage systems" — here the interface
//! is programmatic (used by examples, tests and the repro harness), and
//! storage is the [`LocalDb`] plus cloud sync when online.

use crate::cloud::{Cloud, CloudError};
use crate::db::{LocalDb, PendingAction, ReceivedPost};
use sos_core::message::{MessageId, MessageKind};
use sos_core::middleware::{Sos, SosEvent};
use sos_core::routing::SchemeKind;
use sos_crypto::ca::Validator;
use sos_crypto::ed25519::SigningKey;
use sos_crypto::x25519::AgreementKey;
use sos_crypto::{DeviceIdentity, UserId};
use sos_net::PeerId;
use sos_sim::SimTime;

/// One AlleyOop Social installation on one device.
#[derive(Debug)]
pub struct AlleyOopApp {
    sos: Sos,
    db: LocalDb,
    handle: String,
    online: bool,
}

impl AlleyOopApp {
    /// The one-time signup flow of Fig. 2a: generate keys on-device,
    /// register with the cloud, receive the certificate and CA root, and
    /// assemble the middleware. Requires Internet — afterwards the app
    /// is fully functional offline.
    ///
    /// # Errors
    ///
    /// Propagates [`CloudError`] when the identifier is already taken.
    pub fn sign_up<R: rand::RngCore>(
        cloud: &mut Cloud,
        peer_id: PeerId,
        handle: &str,
        scheme: SchemeKind,
        now: SimTime,
        rng: &mut R,
    ) -> Result<AlleyOopApp, CloudError> {
        let user_id = UserId::from_str_padded(handle);
        let signing = SigningKey::generate(rng);
        let agreement = AgreementKey::generate(rng);
        let certificate = cloud.sign_up(
            user_id,
            handle,
            signing.verifying_key(),
            *agreement.public(),
            now.as_secs(),
        )?;
        let validator = Validator::new(cloud.root_certificate().clone());
        let identity = DeviceIdentity::new(user_id, signing, agreement, certificate, validator);
        Ok(AlleyOopApp {
            sos: Sos::new(peer_id, identity, scheme),
            db: LocalDb::new(),
            handle: handle.to_string(),
            online: false,
        })
    }

    /// Signs a whole study population up at once: a fresh [`Cloud`]
    /// named `ca_name` whose CA key is `seed` (little-endian, zero
    /// padded), then one [`sign_up`](Self::sign_up) per handle in order
    /// — `PeerId(i)` for the `i`-th, at [`SimTime::ZERO`], two key
    /// draws from `rng` each. The cloud is dropped afterwards: a study
    /// meets its infrastructure once (Fig. 2a).
    ///
    /// # Panics
    ///
    /// Panics if two handles pad to the same [`UserId`]; callers format
    /// handles from the node index.
    pub fn sign_up_fleet<R: rand::RngCore>(
        ca_name: &str,
        seed: u64,
        handles: impl IntoIterator<Item = String>,
        scheme: SchemeKind,
        rng: &mut R,
    ) -> Vec<AlleyOopApp> {
        let mut ca_seed = [0u8; 32];
        ca_seed[..8].copy_from_slice(&seed.to_le_bytes());
        let mut cloud = Cloud::new(ca_name, ca_seed);
        (0u32..)
            .zip(handles)
            .map(|(i, handle)| {
                AlleyOopApp::sign_up(&mut cloud, PeerId(i), &handle, scheme, SimTime::ZERO, rng)
                    .expect("fleet handles are unique")
            })
            .collect()
    }

    /// The user's handle.
    pub fn handle(&self) -> &str {
        &self.handle
    }

    /// The user's 10-byte id.
    pub fn user_id(&self) -> UserId {
        self.sos.user_id()
    }

    /// The device's transport peer id.
    pub fn peer_id(&self) -> PeerId {
        self.sos.peer_id()
    }

    /// Immutable access to the embedded middleware.
    pub fn middleware(&self) -> &Sos {
        &self.sos
    }

    /// Mutable middleware access for the network driver (frame I/O).
    pub fn middleware_mut(&mut self) -> &mut Sos {
        &mut self.sos
    }

    /// The local database.
    pub fn db(&self) -> &LocalDb {
        &self.db
    }

    /// Sets Internet availability (driven by the scenario; D2D
    /// dissemination works either way).
    pub fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Publishes a post: saved to the local database first (§V), then
    /// available for D2D dissemination immediately.
    pub fn post(&mut self, text: &str, now: SimTime) -> MessageId {
        let id = self
            .sos
            .post(MessageKind::Post, text.as_bytes().to_vec(), now)
            .expect("post text within size limits");
        self.db.insert_post(ReceivedPost {
            id,
            text: text.to_string(),
            created_at: now,
            received_at: now,
            hops: 0,
        });
        id
    }

    /// Sends an end-to-end encrypted direct message. The ciphertext
    /// rides the same opportunistic dissemination as posts (forwarders
    /// see only a sealed box); only the holder of the certificate's
    /// agreement key can read it.
    ///
    /// The recipient certificate is typically learned offline, from any
    /// bundle the recipient authored (forwarders relay originator
    /// certificates, Fig. 3b) — see [`AlleyOopApp::known_certificate`].
    ///
    /// Note: the message is authored by *this* user, so under
    /// interest-based routing it reaches the recipient via the sender's
    /// subscribers — the recipient should follow the sender (as friends
    /// do), or the app can be switched to epidemic for DM-heavy use.
    pub fn send_direct<R: rand::RngCore>(
        &mut self,
        rng: &mut R,
        recipient: &sos_crypto::Certificate,
        text: &str,
        now: SimTime,
    ) -> MessageId {
        let sealed = sos_crypto::sealed::seal(rng, &recipient.x25519_public, text.as_bytes())
            .expect("recipient certificate carries a valid agreement key");
        let mut payload = Vec::with_capacity(10 + sealed.len());
        payload.extend_from_slice(recipient.subject.as_bytes());
        payload.extend_from_slice(&sealed);
        self.sos
            .post(MessageKind::Direct, payload, now)
            .expect("sealed DM within size limits")
    }

    /// The best certificate this device knows for `user`: its own, or
    /// one attached to any stored bundle authored by `user`.
    pub fn known_certificate(&self, user: &UserId) -> Option<sos_crypto::Certificate> {
        if user == &self.user_id() {
            return Some(self.sos.identity().certificate().clone());
        }
        self.sos
            .store()
            .iter()
            .find(|b| &b.message.id.author == user)
            .map(|b| sos_crypto::Certificate::clone(&b.author_certificate))
    }

    /// The decrypted direct-message inbox, oldest first.
    pub fn inbox(&self) -> &[crate::db::DirectMessage] {
        self.db.inbox()
    }

    /// Follows `user`: subscribes the routing layer and queues the
    /// action for cloud sync.
    pub fn follow(&mut self, user: UserId) {
        self.sos.subscribe(user);
        self.db.queue_action(PendingAction::Follow(user));
    }

    /// Unfollows `user`.
    pub fn unfollow(&mut self, user: &UserId) {
        self.sos.unsubscribe(user);
        self.db.queue_action(PendingAction::Unfollow(*user));
    }

    /// Users this account follows.
    pub fn following(&self) -> Vec<UserId> {
        self.sos.subscriptions().iter().copied().collect()
    }

    fn apply_received(&mut self, event: &SosEvent, received_at: SimTime) {
        let SosEvent::MessageReceived {
            id,
            kind,
            payload,
            created_at,
            hops,
            ..
        } = event
        else {
            return;
        };
        match kind {
            MessageKind::Post => {
                self.db.insert_post(ReceivedPost {
                    id: *id,
                    text: String::from_utf8_lossy(payload).into_owned(),
                    created_at: *created_at,
                    received_at,
                    hops: *hops,
                });
            }
            MessageKind::Direct => {
                // Addressed DMs: first 10 bytes name the recipient; the
                // rest is a sealed box only that recipient can open.
                if payload.len() > 10 && payload[..10] == self.user_id().as_bytes()[..] {
                    if let Ok(plain) = self.sos.identity().open_sealed(&payload[10..]) {
                        self.db.push_direct(crate::db::DirectMessage {
                            from: id.author,
                            text: String::from_utf8_lossy(&plain).into_owned(),
                            created_at: *created_at,
                            received_at,
                        });
                    }
                }
            }
            MessageKind::Follow | MessageKind::Unfollow => {}
        }
    }

    /// Drains middleware events, applying received posts and direct
    /// messages to the local database stamped as received at `now` (the
    /// driver knows "now"; the middleware event does not carry it).
    /// Returns the raw events for callers that track deliveries or
    /// security alerts.
    pub fn process_events_at(&mut self, now: SimTime) -> Vec<SosEvent> {
        let events = self.sos.poll_events();
        for event in &events {
            self.apply_received(event, now);
        }
        events
    }

    /// The user's feed: posts from followed users (and their own),
    /// newest first.
    pub fn feed(&self) -> Vec<&ReceivedPost> {
        let me = self.user_id();
        let mut posts: Vec<&ReceivedPost> = self
            .db
            .all_posts()
            .filter(|p| p.id.author == me || self.sos.subscriptions().contains(&p.id.author))
            .collect();
        posts.sort_by_key(|p| std::cmp::Reverse(p.created_at));
        posts
    }

    /// Synchronizes with the cloud: pushes queued follow actions and
    /// pulls the latest revocation list. No-op when offline (§V:
    /// "synchronizes the action with the cloud when the Internet becomes
    /// available").
    pub fn sync_with_cloud(&mut self, cloud: &mut Cloud, now: SimTime) {
        if !self.online {
            return;
        }
        let me = self.user_id();
        for action in self.db.drain_actions() {
            match action {
                PendingAction::Follow(user) => {
                    let _ = cloud.record_follow(me, user);
                }
                PendingAction::Unfollow(user) => {
                    cloud.record_unfollow(me, user);
                }
            }
        }
        let crl = cloud.revocation_list(now.as_secs());
        self.sos.identity_mut().validator_mut().install_crl(crl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sos_net::Frame;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn two_apps() -> (Cloud, AlleyOopApp, AlleyOopApp) {
        let mut cloud = Cloud::new("AlleyOop CA", [42u8; 32]);
        let mut r = rng(1);
        let alice = AlleyOopApp::sign_up(
            &mut cloud,
            PeerId(0),
            "alice",
            SchemeKind::InterestBased,
            SimTime::ZERO,
            &mut r,
        )
        .unwrap();
        let bob = AlleyOopApp::sign_up(
            &mut cloud,
            PeerId(1),
            "bob",
            SchemeKind::InterestBased,
            SimTime::ZERO,
            &mut r,
        )
        .unwrap();
        (cloud, alice, bob)
    }

    /// Exchange frames between two apps over an instant air until it is
    /// quiet, `b` browsing `a`'s advertisement.
    fn pump(a: &mut AlleyOopApp, b: &mut AlleyOopApp, now: SimTime) {
        let mut r = rng(9);
        let (a_id, b_id) = (a.peer_id(), b.peer_id());
        let ad = Frame::Advertisement(a.middleware().advertisement(now));
        let mut air = sos_net::Air::instant();
        air.send(now, a_id, [(b_id, ad)]);
        air.settle(
            now + sos_sim::SimDuration::from_millis(1),
            |at, src, dst, frame| {
                let target = if dst == a_id { &mut *a } else { &mut *b };
                target.middleware_mut().handle_frame(src, frame, at, &mut r)
            },
        );
    }

    #[test]
    fn signup_post_follow_deliver() {
        let (_cloud, mut alice, mut bob) = two_apps();
        bob.follow(alice.user_id());
        alice.post("first post!", SimTime::from_secs(10));
        pump(&mut alice, &mut bob, SimTime::from_secs(20));
        bob.process_events_at(SimTime::from_secs(20));
        let feed = bob.feed();
        assert_eq!(feed.len(), 1);
        assert_eq!(feed[0].text, "first post!");
        assert_eq!(feed[0].hops, 1);
        assert_eq!(feed[0].delay().as_secs(), 10);
    }

    #[test]
    fn own_posts_in_feed() {
        let (_cloud, mut alice, _) = two_apps();
        alice.post("hello", SimTime::from_secs(5));
        assert_eq!(alice.feed().len(), 1);
        assert_eq!(alice.feed()[0].hops, 0);
    }

    #[test]
    fn duplicate_user_id_rejected() {
        let mut cloud = Cloud::new("AlleyOop CA", [42u8; 32]);
        let mut r = rng(2);
        let _alice = AlleyOopApp::sign_up(
            &mut cloud,
            PeerId(0),
            "alice",
            SchemeKind::Epidemic,
            SimTime::ZERO,
            &mut r,
        )
        .unwrap();
        let err = AlleyOopApp::sign_up(
            &mut cloud,
            PeerId(1),
            "alice",
            SchemeKind::Epidemic,
            SimTime::ZERO,
            &mut r,
        )
        .unwrap_err();
        assert_eq!(err, CloudError::UserIdTaken);
    }

    #[test]
    fn cloud_sync_pushes_follows_and_pulls_crl() {
        let (mut cloud, alice, mut bob) = two_apps();
        bob.follow(alice.user_id());
        assert_eq!(bob.db().pending_action_count(), 1);
        // Offline: sync is a no-op.
        bob.sync_with_cloud(&mut cloud, SimTime::from_secs(1));
        assert_eq!(bob.db().pending_action_count(), 1);
        // Online: actions flush and the cloud learns the edge.
        bob.set_online(true);
        bob.sync_with_cloud(&mut cloud, SimTime::from_secs(2));
        assert_eq!(bob.db().pending_action_count(), 0);
        assert!(cloud.follows_of(&bob.user_id()).contains(&alice.user_id()));
    }

    #[test]
    fn revoked_peer_rejected_after_crl_sync() {
        let (mut cloud, mut alice, mut bob) = two_apps();
        bob.follow(alice.user_id());
        // Alice's key is compromised; the cloud revokes her.
        cloud.revoke_user(&alice.user_id()).unwrap();
        // Bob syncs the CRL while online.
        bob.set_online(true);
        bob.sync_with_cloud(&mut cloud, SimTime::from_secs(1));
        // Alice posts and tries to deliver to Bob: handshake must fail.
        alice.post("evil post", SimTime::from_secs(2));
        pump(&mut alice, &mut bob, SimTime::from_secs(3));
        bob.process_events_at(SimTime::from_secs(3));
        assert_eq!(bob.feed().len(), 0, "no content from revoked identity");
        assert!(bob.middleware().stats().security_rejections > 0);
    }

    #[test]
    fn direct_message_end_to_end() {
        let (_cloud, mut alice, mut bob) = two_apps();
        let mut r = rng(44);
        // Bob follows alice, so her (sealed) DMs reach him under IB.
        bob.follow(alice.user_id());
        // Alice learns bob's certificate from... her own cloud-era copy
        // is not modelled; bob posts once so his certificate circulates.
        alice.follow(bob.user_id());
        bob.post("hello world", SimTime::from_secs(1));
        pump(&mut bob, &mut alice, SimTime::from_secs(2));
        alice.process_events_at(SimTime::from_secs(2));
        let bob_cert = alice
            .known_certificate(&bob.user_id())
            .expect("learned from bob's bundle");

        // Alice DMs bob through the DTN.
        alice.send_direct(
            &mut r,
            &bob_cert,
            "secret rendezvous",
            SimTime::from_secs(10),
        );
        pump(&mut alice, &mut bob, SimTime::from_secs(11));
        bob.process_events_at(SimTime::from_secs(11));
        assert_eq!(bob.inbox().len(), 1);
        assert_eq!(bob.inbox()[0].text, "secret rendezvous");
        assert_eq!(bob.inbox()[0].from, alice.user_id());
        // The DM is not in the public feed.
        assert!(bob.feed().iter().all(|p| p.text != "secret rendezvous"));
    }

    #[test]
    fn direct_message_unreadable_by_forwarders() {
        let (_cloud, mut alice, mut bob) = two_apps();
        let mut r = rng(45);
        alice.follow(bob.user_id());
        bob.follow(alice.user_id());
        bob.post("x", SimTime::from_secs(1));
        pump(&mut bob, &mut alice, SimTime::from_secs(2));
        alice.process_events_at(SimTime::from_secs(2));
        let bob_cert = alice.known_certificate(&bob.user_id()).unwrap();

        // Alice switches to epidemic so ANY device would carry the DM —
        // carriers see only the sealed box. Assert the two ends of the
        // property: the addressee decrypts; a non-addressee (here the
        // sender herself, lacking the recipient key) cannot.
        alice.middleware_mut().set_scheme(SchemeKind::Epidemic);
        alice.send_direct(&mut r, &bob_cert, "for bob only", SimTime::from_secs(5));
        pump(&mut alice, &mut bob, SimTime::from_secs(6));
        bob.process_events_at(SimTime::from_secs(6));
        assert_eq!(bob.inbox().len(), 1);
        assert!(
            alice.inbox().is_empty(),
            "sender cannot decrypt own sealed DM"
        );
    }

    #[test]
    fn unfollow_stops_future_pulls() {
        let (_cloud, mut alice, mut bob) = two_apps();
        bob.follow(alice.user_id());
        alice.post("one", SimTime::from_secs(1));
        pump(&mut alice, &mut bob, SimTime::from_secs(2));
        bob.process_events_at(SimTime::from_secs(2));
        assert_eq!(bob.feed().len(), 1);
        bob.unfollow(&alice.user_id());
        alice.post("two", SimTime::from_secs(3));
        pump(&mut alice, &mut bob, SimTime::from_secs(4));
        bob.process_events_at(SimTime::from_secs(4));
        // Feed no longer lists alice (subscription gone) and the second
        // post was never pulled.
        assert_eq!(bob.feed().len(), 0);
        assert_eq!(bob.middleware().store().latest_for(&alice.user_id()), 1);
    }

    /// The loop `scenario::build_apps`, `density::density_study` and
    /// `provision::provision_apps` each spelled out before
    /// [`AlleyOopApp::sign_up_fleet`] replaced it, kept as its reference.
    fn spelled_out(
        ca_name: &str,
        seed: u64,
        handles: &[String],
        rng: &mut impl rand::RngCore,
    ) -> Vec<AlleyOopApp> {
        let mut cloud = Cloud::new(ca_name, {
            let mut s = [0u8; 32];
            s[..8].copy_from_slice(&seed.to_le_bytes());
            s
        });
        (0..handles.len())
            .map(|i| {
                AlleyOopApp::sign_up(
                    &mut cloud,
                    PeerId(i as u32),
                    &handles[i],
                    SchemeKind::InterestBased,
                    SimTime::ZERO,
                    rng,
                )
                .expect("unique handles")
            })
            .collect()
    }

    #[test]
    fn fleet_sign_up_equals_the_loop_it_replaces() {
        use rand::RngCore;
        // A corpus trace's handles with and without device labels.
        let labelled = ["0-3f2a", "1-9c41", "2-00b7"].map(String::from);
        let unlabelled = ["0-node", "1-node", "2-node", "3-node"].map(String::from);
        for (seed, handles) in [(20170605u64, &labelled[..]), (7, &unlabelled[..])] {
            let (mut r_loop, mut r_fleet) = (rng(seed), rng(seed));
            let by_loop = spelled_out("Corpus Root CA", seed, handles, &mut r_loop);
            let fleet = AlleyOopApp::sign_up_fleet(
                "Corpus Root CA",
                seed,
                handles.iter().cloned(),
                SchemeKind::InterestBased,
                &mut r_fleet,
            );
            assert_eq!(fleet.len(), handles.len());
            for (a, b) in by_loop.iter().zip(&fleet) {
                assert_eq!(
                    (a.user_id(), a.peer_id(), a.handle()),
                    (b.user_id(), b.peer_id(), b.handle())
                );
                let cert = |app: &AlleyOopApp| app.middleware().identity().certificate().to_bytes();
                assert_eq!(cert(a), cert(b));
            }
            assert_eq!(
                r_loop.next_u64(),
                r_fleet.next_u64(),
                "same RNG position afterwards"
            );
        }
    }
}
