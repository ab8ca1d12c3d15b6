//! Delivery under store eviction: the scenario the gap-aware (v2) sync
//! protocol exists for.
//!
//! A capacity-constrained relay shuttles between an author and a
//! subscriber who never meet the author until late. The relay's cap
//! evicts the oldest messages between visits, so the subscriber
//! accumulates only the newest window of each relay visit — its store
//! develops *holes* in the author's sequence while its latest watermark
//! looks current. Under the v1 watermark protocol those holes were
//! permanent (`latest == advertised latest` suppresses the session);
//! under v2 the subscriber's ranged request re-fetches exactly the
//! missing middles at the first direct encounter with the author.
//!
//! The scenario runs end-to-end through the real middleware: plain-text
//! advertisements, certificate handshakes, encrypted session frames,
//! batched bundle transfer.

use crate::observe::RunObserver;
use rand::SeedableRng;
use sos_core::middleware::{Sos, SosConfig};
use sos_core::routing::SchemeKind;
use sos_core::MessageKind;
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::ed25519::SigningKey;
use sos_crypto::x25519::AgreementKey;
use sos_crypto::{DeviceIdentity, UserId};
use sos_net::{Air, Frame, PeerId};
use sos_sim::{SimDuration, SimTime};

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct EvictionStudyConfig {
    /// Messages the author posts per relay round.
    pub posts_per_round: u64,
    /// Relay rounds (author → relay → subscriber) before the subscriber
    /// finally meets the author.
    pub rounds: u64,
    /// The relay's `max_stored_bundles` cap; anything below
    /// `posts_per_round` forces holes downstream.
    pub relay_capacity: usize,
    /// RNG seed for the session handshakes.
    pub seed: u64,
}

impl Default for EvictionStudyConfig {
    fn default() -> Self {
        EvictionStudyConfig {
            posts_per_round: 20,
            rounds: 3,
            relay_capacity: 8,
            seed: 7,
        }
    }
}

/// What the scenario measures.
#[derive(Clone, Debug, PartialEq)]
pub struct EvictionOutcome {
    /// Total messages the author posted.
    pub posts: u64,
    /// Unique author messages at the subscriber after the relay rounds
    /// (before ever meeting the author).
    pub delivered_via_relay: u64,
    /// The subscriber's holes in the author's sequence at that point.
    pub holes_before_heal: Vec<(u64, u64)>,
    /// Unique author messages at the subscriber after one direct
    /// encounter with the author. With the gap-aware protocol this
    /// equals `posts`; under the v1 watermark it stayed at
    /// `delivered_via_relay` forever.
    pub delivered_final: u64,
    /// Bundles transferred across all encounters (both hops).
    pub bundles_transferred: u64,
    /// Encrypted sync payload frames across all encounters (requests +
    /// batched bundle frames + done markers).
    pub sync_frames: u64,
}

impl EvictionOutcome {
    /// Delivery ratio after the healing encounter.
    pub fn final_ratio(&self) -> f64 {
        self.delivered_final as f64 / self.posts as f64
    }

    /// A human-readable report table.
    pub fn format_report(&self) -> String {
        let mut s = String::new();
        s.push_str("delivery under eviction (gap-aware v2 sync)\n");
        s.push_str(&format!("  posts by author        {:>6}\n", self.posts));
        s.push_str(&format!(
            "  via capped relay       {:>6}  (holes: {:?})\n",
            self.delivered_via_relay, self.holes_before_heal
        ));
        s.push_str(&format!(
            "  after author encounter {:>6}  (ratio {:.2})\n",
            self.delivered_final,
            self.final_ratio()
        ));
        s.push_str(&format!(
            "  bundles transferred    {:>6}  in {} sync frames\n",
            self.bundles_transferred, self.sync_frames
        ));
        s
    }
}

fn identity(ca: &mut CertificateAuthority, seed: u8, name: &str) -> DeviceIdentity {
    let signing = SigningKey::from_seed([seed; 32]);
    let agreement = AgreementKey::from_secret([seed.wrapping_add(50); 32]);
    let uid = UserId::from_str_padded(name);
    let cert = ca.issue(uid, name, signing.verifying_key(), *agreement.public(), 0);
    DeviceIdentity::new(
        uid,
        signing,
        agreement,
        cert,
        Validator::new(ca.root_certificate().clone()),
    )
}

/// Runs one full encounter — `browser` sees `advertiser`'s broadcast,
/// optionally connects, syncs, and both sides close — on an instant
/// [`Air`] until it is quiet. Returns the number of frames exchanged
/// after the advertisement.
///
/// # Panics
///
/// Panics on a frame storm (a protocol loop), which would be a bug.
pub fn encounter<R: rand::RngCore>(
    advertiser: &mut Sos,
    browser: &mut Sos,
    now: SimTime,
    rng: &mut R,
) -> u64 {
    let ad_from = advertiser.peer_id();
    let ad = Frame::Advertisement(advertiser.advertisement(now));
    let replies = browser.handle_frame(ad_from, ad, now, rng);
    let mut air = Air::instant();
    air.send(now, browser.peer_id(), replies);
    let until = now + SimDuration::from_millis(1);
    air.settle(until, |at, src, dst, frame| {
        if dst == ad_from {
            advertiser.handle_frame(src, frame, at, rng)
        } else {
            browser.handle_frame(src, frame, at, rng)
        }
    })
}

/// Runs the scenario. With `obs`, the three nodes' counters land in
/// the observer's registry (as `node{0,1,2}/sos/…`) and every
/// session/bundle/evict event lands in its journal — the
/// flight-recorder example's entry point — without changing the run.
pub fn run_eviction_study(
    config: &EvictionStudyConfig,
    obs: Option<&RunObserver>,
) -> EvictionOutcome {
    let mut ca = CertificateAuthority::new("Eviction Root", [42u8; 32], 0, u64::MAX);
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut author = Sos::new(
        PeerId(0),
        identity(&mut ca, 10, "author"),
        SchemeKind::Epidemic,
    );
    let mut relay = Sos::with_config(
        PeerId(1),
        identity(&mut ca, 20, "relay"),
        SchemeKind::Epidemic,
        SosConfig {
            max_stored_bundles: Some(config.relay_capacity),
            ..SosConfig::default()
        },
    );
    let mut subscriber = Sos::new(
        PeerId(2),
        identity(&mut ca, 30, "subscriber"),
        SchemeKind::Epidemic,
    );
    if let Some(o) = obs {
        for (i, node) in [&mut author, &mut relay, &mut subscriber]
            .into_iter()
            .enumerate()
        {
            node.attach_obs(sos_obs::NodeObs::new(i as u32, o.journal.clone()));
            node.register_metrics(&o.registry, &format!("node{i}/sos"));
        }
    }
    let author_id = author.user_id();
    subscriber.subscribe(author_id);

    let mut posted = 0u64;
    let mut t = SimTime::ZERO;
    for _ in 0..config.rounds {
        for _ in 0..config.posts_per_round {
            posted += 1;
            t += SimDuration::from_secs(10);
            author
                .post(MessageKind::Post, posted.to_le_bytes().to_vec(), t)
                // sos-lint: allow(no-panic) reason="experiment setup: 8-byte payloads cannot exceed MAX_PAYLOAD; a post failure is a harness bug"
                .expect("post");
        }
        // Relay visits the author, then carries the (capped) window to
        // the subscriber.
        t += SimDuration::from_mins(10);
        encounter(&mut author, &mut relay, t, &mut rng);
        relay.maintain(t);
        t += SimDuration::from_mins(10);
        encounter(&mut relay, &mut subscriber, t, &mut rng);
    }

    let delivered_via_relay = subscriber.store().bundles_after(&author_id, 0).len() as u64;
    let holes_before_heal = subscriber.store().holes_for(&author_id);

    // The subscriber finally meets the author: the gap-aware request
    // re-fetches every hole in one encounter.
    t += SimDuration::from_mins(10);
    encounter(&mut author, &mut subscriber, t, &mut rng);
    let delivered_final = subscriber.store().bundles_after(&author_id, 0).len() as u64;

    let stats = [author.stats(), relay.stats(), subscriber.stats()];
    EvictionOutcome {
        posts: posted,
        delivered_via_relay,
        holes_before_heal,
        delivered_final,
        bundles_transferred: stats.iter().map(|s| s.bundles_sent).sum(),
        sync_frames: stats.iter().map(|s| s.sync_frames_sent).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_cap_creates_holes_and_author_heals_them() {
        let config = EvictionStudyConfig::default();
        let outcome = run_eviction_study(&config, None);
        assert_eq!(outcome.posts, 60);
        assert!(
            outcome.delivered_via_relay < outcome.posts,
            "the capped relay must lose messages: {} of {}",
            outcome.delivered_via_relay,
            outcome.posts
        );
        assert!(
            !outcome.holes_before_heal.is_empty(),
            "eviction must create holes"
        );
        // The core claim (fails under the v1 watermark protocol): one
        // direct encounter recovers every hole.
        assert_eq!(
            outcome.delivered_final, outcome.posts,
            "gap-aware sync must heal all holes"
        );
        assert_eq!(outcome.final_ratio(), 1.0);
        // Batching: far fewer sync frames than bundles moved.
        assert!(
            outcome.sync_frames < outcome.bundles_transferred / 2,
            "batched frames ({}) must undercut bundles ({}) by ≥2x",
            outcome.sync_frames,
            outcome.bundles_transferred
        );
    }

    #[test]
    fn uncapped_relay_needs_no_healing() {
        let config = EvictionStudyConfig {
            relay_capacity: 10_000,
            ..EvictionStudyConfig::default()
        };
        let outcome = run_eviction_study(&config, None);
        assert_eq!(outcome.delivered_via_relay, outcome.posts);
        assert!(outcome.holes_before_heal.is_empty());
        assert_eq!(outcome.delivered_final, outcome.posts);
    }
}
