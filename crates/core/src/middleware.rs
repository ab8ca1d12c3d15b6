//! The SOS middleware facade: one instance per application
//! (paper §III: "a separate instance of the SOS middleware is intended to
//! run within each mobile application as opposed to a daemon").
//!
//! [`Sos`] composes the three fixed layers of Fig. 1 — the ad hoc
//! manager, the message manager (implemented here), and the modular
//! routing manager — and exposes the application-facing APIs the paper
//! lists (§III-A): sending/receiving data, surrounding-user
//! notification, routing protocol selection, and security enforcement.
//!
//! The interface is sans-IO: a driver (the discrete-event simulator, or
//! a real radio glue layer) feeds frames in via [`Sos::handle_frame`] and
//! transmits the frames returned. All state transitions are synchronous
//! and deterministic given the RNG.

use crate::adhoc::{AdHocManager, Browse};
use crate::error::{BundleRejection, SosError};
use crate::message::{Bundle, MessageId, MessageKind, SosMessage, MAX_PAYLOAD};
use crate::routing::{RoutingContext, RoutingScheme, SchemeKind};
use crate::store::{InsertOutcome, MessageStore};
use crate::sync::{AuthorWant, BundleBatch, SyncMsg};
use sos_crypto::bounded::FifoMap;
use sos_crypto::{CertError, Certificate, DeviceIdentity, UserId};
use sos_net::frame::DisconnectReason;
use sos_net::session::SessionEvent;
use sos_net::{Advertisement, Frame, HandshakeInit, HandshakeResponse, NetError, PeerId};
use sos_obs::journal::ObsEvent;
use sos_obs::{Counter, NodeObs, Registry};
use sos_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// Middleware configuration.
#[derive(Clone, Debug)]
pub struct SosConfig {
    /// Maximum bundles served in one session (keeps encounters short;
    /// the remainder is fetched at the next encounter).
    pub max_bundles_per_session: usize,
    /// Age limit for *carried* bundles (the device's own messages are
    /// never expired); `None` keeps gossip forever.
    pub bundle_ttl: Option<sos_sim::SimDuration>,
    /// Capacity cap on the store (own messages protected); oldest
    /// carried bundles are evicted first. `None` = unbounded.
    pub max_stored_bundles: Option<usize>,
}

impl Default for SosConfig {
    fn default() -> Self {
        SosConfig {
            max_bundles_per_session: 200,
            bundle_ttl: None,
            max_stored_bundles: None,
        }
    }
}

/// How long a fruitless browse (session that yielded zero new bundles)
/// suppresses re-connecting to the same peer while neither side's
/// summary changed. Gap-aware wants make peers with unhealable holes
/// (e.g. fleet-wide TTL expiry of an author's early messages) register
/// as news forever; without this backoff every encounter would re-run a
/// full handshake to transfer nothing. One retry per window still heals
/// holes the plain-text advertisement cannot reveal.
const FUTILE_RETRY_BACKOFF: sos_sim::SimDuration = sos_sim::SimDuration::from_mins(30);

/// Peers a node remembers a fruitless browse for. Past it the oldest
/// mark is forgotten, which costs that peer one early retry.
const FUTILE_CAP: usize = 4096;

/// The browse state a fruitless session is remembered by: retrying is
/// pointless until one of the two summaries changes or the backoff
/// expires.
#[derive(Debug)]
struct FutileMark {
    /// The peer's advertised summary when we browsed.
    ad_summary: BTreeMap<UserId, u64>,
    /// Our own sync summary when the session closed empty.
    my_summary: BTreeMap<UserId, u64>,
    /// When the fruitless session closed.
    at: SimTime,
}

/// Counters describing a node's dissemination activity; the repro
/// harness aggregates these into the paper's §VI numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SosStats {
    /// Messages authored locally.
    pub posts: u64,
    /// Bundles served to peers (user-to-user transfers, sender side).
    pub bundles_sent: u64,
    /// Bundles received from peers (transfer receiver side).
    pub bundles_received: u64,
    /// Received bundles that were duplicates.
    pub bundles_duplicate: u64,
    /// Bundles rejected by the security layer (bad certificate,
    /// signature, or tampering).
    pub security_rejections: u64,
    /// Sessions this node initiated.
    pub sessions_initiated: u64,
    /// Sessions this node accepted as responder.
    pub sessions_accepted: u64,
    /// Sessions (either role) this node established from a resumption
    /// ticket instead of the full certificate handshake.
    pub sessions_resumed: u64,
    /// Resumptions this node offered that the peer could not match
    /// (unknown, stale or used-up ticket); each fell back to the full
    /// handshake inside the same session.
    pub resume_misses: u64,
    /// Sync requests served.
    pub requests_served: u64,
    /// Encrypted sync payload frames sent (requests, batched bundle
    /// frames, done markers) — the per-encounter frame count the batched
    /// v2 protocol exists to shrink.
    pub sync_frames_sent: u64,
    /// Security alerts surfaced to the application
    /// ([`SosEvent::SecurityAlert`]): every rejection *plus* author
    /// equivocation, matching what the experiment driver counts as
    /// `security_alerts` — previously the middleware had no alert
    /// counter at all, so the two layers could not be reconciled.
    pub security_alerts: u64,
}

/// Declares the live cells behind [`SosStats`] from its field list, so
/// a counter is named once for the cells, the snapshot, the registry and
/// the fleet sum.
macro_rules! stat_cells {
    ($($name:ident),* $(,)?) => {
        impl SosStats {
            /// Adds another node's counters field-by-field (used by the
            /// experiment drivers to aggregate fleets; keeping the sum
            /// here means a new counter cannot be silently dropped from
            /// aggregates).
            pub fn merge(&mut self, other: &SosStats) {
                $(self.$name += other.$name;)*
            }
        }

        /// The live cells behind [`SosStats`]: lock-free [`Counter`]s
        /// that can be adopted by a [`Registry`] (per-node named views)
        /// while the middleware keeps incrementing the very same cells
        /// — the "registry-backed view" that lets [`Sos::stats`] keep
        /// returning the plain [`SosStats`] value type.
        #[derive(Clone, Debug, Default)]
        struct StatCells {
            $($name: Counter,)*
        }

        impl StatCells {
            fn snapshot(&self) -> SosStats {
                SosStats { $($name: self.$name.get(),)* }
            }

            fn register_in(&self, registry: &Registry, prefix: &str) {
                $(registry.register_counter(&format!("{prefix}/{}", stringify!($name)), &self.$name);)*
            }
        }
    };
}

stat_cells!(
    posts,
    bundles_sent,
    bundles_received,
    bundles_duplicate,
    security_rejections,
    sessions_initiated,
    sessions_accepted,
    sessions_resumed,
    resume_misses,
    requests_served,
    sync_frames_sent,
    security_alerts,
);

/// Why a session ends: what [`Sos::end_session`] is told.
enum Teardown {
    /// The peer left radio range: no goodbye, and nothing to record
    /// unless a session was open.
    OutOfRange,
    /// The peer said goodbye; the ad hoc manager dropped the slot.
    Goodbye(DisconnectReason),
    /// The session layer refused a frame and dropped the slot; the peer
    /// is told why.
    Failed(NetError),
    /// The exchange is complete.
    Done,
    /// The peer's sync payload did not decode.
    Malformed,
    /// Our own send path failed.
    SendFailed,
}

impl Teardown {
    fn reason(&self) -> DisconnectReason {
        match self {
            Teardown::OutOfRange => DisconnectReason::OutOfRange,
            Teardown::Goodbye(reason) => *reason,
            Teardown::Failed(e) => DisconnectReason::for_error(e),
            Teardown::Done => DisconnectReason::Done,
            Teardown::Malformed | Teardown::SendFailed => DisconnectReason::ProtocolError,
        }
    }
}

/// True for the handshake frames of a resumed (ticket) exchange.
fn is_resumed_form(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::HandshakeInit(HandshakeInit::Resume { .. })
            | Frame::HandshakeResponse(HandshakeResponse::Resume { .. })
    )
}

/// Events surfaced to the overlay application (§III-A: applications are
/// "responsible for handling data once it has been received and
/// decrypted").
#[derive(Clone, Debug)]
pub enum SosEvent {
    /// A secure session was established with an authenticated user.
    SessionEstablished {
        /// Transport-level peer.
        peer: PeerId,
        /// Authenticated user behind the peer.
        user: UserId,
    },
    /// A verified message arrived (first copy only).
    MessageReceived {
        /// The message id (author + number).
        id: MessageId,
        /// Action kind.
        kind: MessageKind,
        /// Application payload: the stored bundle's own allocation.
        payload: Arc<[u8]>,
        /// Creation time at the author.
        created_at: SimTime,
        /// D2D hops this copy travelled (1 = directly from the author).
        hops: u32,
        /// The peer that delivered it.
        from: PeerId,
        /// Whether this node stored the bundle for further forwarding.
        carried: bool,
    },
    /// A peer or bundle failed security validation and was rejected
    /// (paper §IV: detect identity, verify source, ensure integrity).
    SecurityAlert {
        /// The offending transport peer.
        peer: PeerId,
        /// Human-readable reason.
        detail: String,
    },
    /// A session ended (completed, out of range, or failed).
    SessionClosed {
        /// The transport peer.
        peer: PeerId,
    },
}

/// One per-application middleware instance.
pub struct Sos {
    config: SosConfig,
    adhoc: AdHocManager,
    store: MessageStore,
    scheme: Box<dyn RoutingScheme>,
    scheme_kind: SchemeKind,
    subscriptions: BTreeSet<UserId>,
    /// Peers whose last browse yielded nothing, with the state it
    /// happened under (see [`FUTILE_RETRY_BACKOFF`]). Unlike a browse
    /// record, it outlives the session.
    futile: FifoMap<PeerId, FutileMark>,
    events: VecDeque<SosEvent>,
    stats: StatCells,
    /// Journal scope, when a driver attached one ([`Sos::attach_obs`]).
    obs: Option<NodeObs>,
    /// Latest sim time seen by any entry point — the timestamp for
    /// events whose trigger carries no clock ([`Sos::on_peer_lost`]).
    now_hint: SimTime,
}

impl std::fmt::Debug for Sos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sos")
            .field("peer", &self.adhoc.peer_id())
            .field("user", self.adhoc.identity().user_id())
            .field("scheme", &self.scheme_kind)
            .field("stored", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl Sos {
    /// Creates a middleware instance for a device.
    pub fn new(peer_id: PeerId, identity: DeviceIdentity, scheme: SchemeKind) -> Sos {
        Sos {
            config: SosConfig::default(),
            adhoc: AdHocManager::new(peer_id, identity),
            store: MessageStore::new(),
            scheme: scheme.build(),
            scheme_kind: scheme,
            subscriptions: BTreeSet::new(),
            futile: FifoMap::new(FUTILE_CAP),
            events: VecDeque::new(),
            stats: StatCells::default(),
            obs: None,
            now_hint: SimTime::ZERO,
        }
    }

    /// Creates an instance with a custom configuration.
    pub fn with_config(
        peer_id: PeerId,
        identity: DeviceIdentity,
        scheme: SchemeKind,
        config: SosConfig,
    ) -> Sos {
        let mut sos = Sos::new(peer_id, identity, scheme);
        sos.config = config;
        sos
    }

    /// This device's transport peer id.
    pub fn peer_id(&self) -> PeerId {
        self.adhoc.peer_id()
    }

    /// This device's user id.
    pub fn user_id(&self) -> UserId {
        *self.adhoc.identity().user_id()
    }

    /// The active routing scheme.
    pub fn scheme_kind(&self) -> SchemeKind {
        self.scheme_kind
    }

    /// Switches the routing scheme at runtime (the paper's demo lets
    /// users "toggle between DTN routing schemes inside the
    /// application"). Stored messages are kept; in-flight sessions finish
    /// under the old scheme's decisions already made.
    pub fn set_scheme(&mut self, kind: SchemeKind) {
        self.scheme = kind.build();
        self.scheme_kind = kind;
    }

    /// Replaces the scheme with a custom implementation (the researcher
    /// API of the modular routing layer); [`Sos::scheme_kind`] becomes
    /// [`SchemeKind::Custom`] with the scheme's name.
    pub fn set_custom_scheme(&mut self, scheme: Box<dyn RoutingScheme>) {
        self.scheme_kind = SchemeKind::Custom(scheme.name());
        self.scheme = scheme;
    }

    /// Declares interest in `user`'s messages (driven by the overlay's
    /// follow actions).
    pub fn subscribe(&mut self, user: UserId) {
        self.subscriptions.insert(user);
    }

    /// Removes interest in `user`.
    pub fn unsubscribe(&mut self, user: &UserId) {
        self.subscriptions.remove(user);
    }

    /// Current subscriptions.
    pub fn subscriptions(&self) -> &BTreeSet<UserId> {
        &self.subscriptions
    }

    /// Read access to the local message store.
    pub fn store(&self) -> &MessageStore {
        &self.store
    }

    /// Activity counters (a snapshot of the live registry-backed cells).
    pub fn stats(&self) -> SosStats {
        self.stats.snapshot()
    }

    /// Attaches a journal scope: from now on the middleware records
    /// structured [`ObsEvent`]s (session lifecycle, bundle outcomes,
    /// evictions, want/serve decisions) into the scope's shared journal.
    /// Observation is passive — it never changes middleware behavior.
    pub fn attach_obs(&mut self, obs: NodeObs) {
        self.obs = Some(obs);
    }

    /// The attached journal scope, if any.
    pub fn obs(&self) -> Option<&NodeObs> {
        self.obs.as_ref()
    }

    /// Adopts this node's live stat cells into `registry` under
    /// `prefix` (e.g. `node3/sos`): the registry snapshot then sees
    /// every subsequent increment without copying or polling.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.stats.register_in(registry, prefix);
    }

    /// Records a journal event when a scope is attached.
    #[inline]
    fn note(&self, time: SimTime, event: ObsEvent) {
        if let Some(obs) = &self.obs {
            obs.record(time, event);
        }
    }

    /// The device identity (certificate and validator state).
    pub fn identity(&self) -> &DeviceIdentity {
        self.adhoc.identity()
    }

    /// Mutable identity access (e.g. installing a fresher CRL while
    /// online).
    pub fn identity_mut(&mut self) -> &mut DeviceIdentity {
        self.adhoc.identity_mut()
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.adhoc.session_count()
    }

    /// Drains pending application events.
    pub fn poll_events(&mut self) -> Vec<SosEvent> {
        self.events.drain(..).collect()
    }

    /// Authors and signs a new message, storing it locally for
    /// dissemination (§V: "saves the action to the local database",
    /// then disseminates via the routing protocol).
    ///
    /// # Errors
    ///
    /// [`SosError::PayloadTooLarge`] beyond [`MAX_PAYLOAD`].
    pub fn post(
        &mut self,
        kind: MessageKind,
        payload: Vec<u8>,
        now: SimTime,
    ) -> Result<MessageId, SosError> {
        self.now_hint = self.now_hint.max(now);
        if payload.len() > MAX_PAYLOAD {
            return Err(SosError::PayloadTooLarge {
                size: payload.len(),
            });
        }
        let me = self.user_id();
        let number = self.store.latest_for(&me) + 1;
        let identity = self.adhoc.identity();
        let id = MessageId { author: me, number };
        let message = SosMessage {
            id,
            created_at: now,
            kind,
            signature: identity.sign(&SosMessage::signing_bytes(&id, now, kind, &payload)),
            payload: payload.into(),
        };
        let mut bundle = Bundle::new(message, identity.certificate().clone());
        bundle.copies = self.scheme.initial_copies();
        let outcome = self.store.insert(bundle);
        debug_assert_eq!(outcome, InsertOutcome::New);
        self.stats.posts.inc();
        self.note(
            now,
            ObsEvent::BundlePost {
                author: sos_obs::author_tag(me.as_bytes()),
                seq: number,
            },
        );
        Ok(MessageId { author: me, number })
    }

    /// Builds the current plain-text advertisement (§V-A), filtered by
    /// the routing scheme's advertise policy.
    pub fn advertisement(&self, now: SimTime) -> Advertisement {
        let full = self.store.summary();
        let me = self.user_id();
        let ctx = RoutingContext {
            me: &me,
            subscriptions: &self.subscriptions,
            summary: &full,
            now,
        };
        let filtered = self
            .store
            .summary_filtered(|b| self.scheme.should_advertise(&ctx, b));
        Advertisement {
            peer: self.adhoc.peer_id(),
            user_id: me,
            summary: filtered,
        }
    }

    /// Notifies the middleware that `peer` left radio range without a
    /// goodbye; any session with it is dropped (the message manager
    /// "knows what messages were not transferred" — unsynced bundles are
    /// simply re-requested at the next encounter thanks to the summary
    /// mechanism).
    pub fn on_peer_lost(&mut self, peer: PeerId) {
        // This entry point carries no clock; the hint from the last
        // frame/post/maintain call is the session's last live time.
        self.end_session(peer, Teardown::OutOfRange, self.now_hint, &mut Vec::new());
    }

    /// The one place a session ends. Drops the slot, and the browse
    /// record in it. Sends the goodbye: always on a failed frame (the
    /// slot is already gone), never to a peer out of range, otherwise
    /// when a slot was open. Then journals the one `SessionClose` and
    /// surfaces the one app event: [`SosEvent::SecurityAlert`] on a
    /// security failure, else [`SosEvent::SessionClosed`]. A peer out of
    /// range with no session open leaves no record.
    fn end_session(
        &mut self,
        peer: PeerId,
        cause: Teardown,
        now: SimTime,
        out: &mut Vec<(PeerId, Frame)>,
    ) {
        let reason = cause.reason();
        let bye = self.adhoc.close(peer, reason);
        match &cause {
            Teardown::OutOfRange if bye.is_none() => return,
            Teardown::OutOfRange => {}
            Teardown::Failed(_) => out.push((peer, Frame::Disconnect { reason })),
            _ => out.extend(bye.map(|bye| (peer, bye))),
        }
        let tag = match cause {
            Teardown::SendFailed => "send_failure",
            _ => reason.as_tag(),
        };
        self.note(
            now,
            ObsEvent::SessionClose {
                peer: peer.0,
                reason: tag,
            },
        );
        let event = match cause {
            Teardown::Failed(e) if reason == DisconnectReason::SecurityFailure => {
                self.stats.security_rejections.inc();
                self.stats.security_alerts.inc();
                SosEvent::SecurityAlert {
                    peer,
                    detail: e.to_string(),
                }
            }
            _ => SosEvent::SessionClosed { peer },
        };
        self.events.push_back(event);
    }

    /// Runs store maintenance: expires carried bundles past the TTL and
    /// enforces the capacity cap (own messages are never evicted).
    /// Returns the number of bundles evicted. Invoked automatically on
    /// frame handling when limits are configured; also callable by
    /// applications (e.g. on a low-storage warning).
    pub fn maintain(&mut self, now: SimTime) -> usize {
        self.now_hint = self.now_hint.max(now);
        let me = self.user_id();
        let mut evicted = 0;
        if let Some(ttl) = self.config.bundle_ttl {
            let cutoff = SimTime::from_millis(now.as_millis().saturating_sub(ttl.as_millis()));
            let ids = self
                .store
                .evict_older_than_reporting(cutoff, |b| b.message.id.author == me);
            evicted += ids.len();
            self.note_evictions(now, &ids, "ttl");
        }
        if let Some(max) = self.config.max_stored_bundles {
            let ids = self
                .store
                .evict_to_capacity_reporting(max, |b| b.message.id.author == me);
            evicted += ids.len();
            self.note_evictions(now, &ids, "capacity");
        }
        if evicted > 0 {
            self.note(now, ObsEvent::StoreEvict { count: evicted });
        }
        evicted
    }

    /// Journals one [`ObsEvent::BundleEvict`] per evicted id (when a
    /// scope is attached) — the per-copy record delivery forensics needs
    /// to distinguish "all custodians evicted" from "never forwarded".
    fn note_evictions(&self, now: SimTime, ids: &[MessageId], cause: &'static str) {
        if self.obs.is_none() {
            return;
        }
        for id in ids {
            self.note(
                now,
                ObsEvent::BundleEvict {
                    author: sos_obs::author_tag(id.author.as_bytes()),
                    seq: id.number,
                    cause,
                },
            );
        }
    }

    /// Feeds one received frame through the middleware, returning the
    /// frames to transmit in response (as `(destination, frame)` pairs).
    pub fn handle_frame<R: rand::RngCore>(
        &mut self,
        from: PeerId,
        frame: Frame,
        now: SimTime,
        rng: &mut R,
    ) -> Vec<(PeerId, Frame)> {
        self.now_hint = self.now_hint.max(now);
        if self.config.bundle_ttl.is_some() || self.config.max_stored_bundles.is_some() {
            self.maintain(now);
        }
        let mut out = Vec::new();
        match frame {
            Frame::Advertisement(ad) => self.on_advertisement(from, &ad, now, rng, &mut out),
            Frame::Invite { .. } => {
                // The explicit invite is folded into HandshakeInit in this
                // implementation; accept silently.
            }
            other => self.on_session_frame(from, other, now, rng, &mut out),
        }
        out
    }

    fn routing_ctx<'a>(
        me: &'a UserId,
        subscriptions: &'a BTreeSet<UserId>,
        summary: &'a BTreeMap<UserId, u64>,
        now: SimTime,
    ) -> RoutingContext<'a> {
        RoutingContext {
            me,
            subscriptions,
            summary,
            now,
        }
    }

    fn on_advertisement<R: rand::RngCore>(
        &mut self,
        from: PeerId,
        ad: &Advertisement,
        now: SimTime,
        rng: &mut R,
        out: &mut Vec<(PeerId, Frame)>,
    ) {
        let me = self.user_id();
        // Browse with the *contiguous-prefix* summary, not the raw
        // latest: a node holding {5} of an author with {1..4} evicted
        // reports watermark 0 here, so a peer advertising latest 5 still
        // registers as news and the ranged request re-fetches the hole.
        let summary = self.store.sync_summary();
        let ctx = Self::routing_ctx(&me, &self.subscriptions, &summary, now);
        let interests = self.scheme.interests(&ctx, ad);
        if interests.is_empty() || self.adhoc.has_session(from) {
            return;
        }
        // Skip peers whose last browse under identical summaries came
        // back empty — unhealable holes would otherwise trigger a
        // fruitless handshake at every single encounter.
        if let Some(mark) = self.futile.get(&from) {
            if mark.ad_summary == ad.summary
                && mark.my_summary == summary
                && now.since(mark.at) < FUTILE_RETRY_BACKOFF
            {
                return;
            }
        }
        let browse = Browse {
            interests,
            ad_summary: ad.summary.clone(),
            ..Browse::default()
        };
        match self.adhoc.connect(from, browse, rng) {
            Ok(frame) => {
                self.stats.sessions_initiated.inc();
                self.note(
                    now,
                    ObsEvent::SessionOpen {
                        peer: from.0,
                        initiated: true,
                        resumed: is_resumed_form(&frame),
                    },
                );
                out.push((from, frame));
            }
            Err(_) => {
                // Session slot raced into existence; retry at next ad.
            }
        }
    }

    fn on_session_frame<R: rand::RngCore>(
        &mut self,
        from: PeerId,
        frame: Frame,
        now: SimTime,
        rng: &mut R,
        out: &mut Vec<(PeerId, Frame)>,
    ) {
        let was_init = matches!(frame, Frame::HandshakeInit(_));
        let resumed = is_resumed_form(&frame);
        match self.adhoc.on_frame(from, frame, now.as_secs(), rng) {
            Ok(SessionEvent::Reply(reply)) => {
                match reply {
                    // Our ticket missed; the session carries on in full.
                    Frame::HandshakeInit(_) => self.stats.resume_misses.inc(),
                    // The peer's ticket missed: nothing opened yet.
                    Frame::HandshakeResponse(HandshakeResponse::Miss) => {}
                    _ => {
                        self.stats.sessions_accepted.inc();
                        if resumed {
                            self.stats.sessions_resumed.inc();
                        }
                        self.note(
                            now,
                            ObsEvent::SessionOpen {
                                peer: from.0,
                                initiated: false,
                                resumed,
                            },
                        );
                    }
                }
                out.push((from, reply));
            }
            Ok(SessionEvent::Established(cert)) => {
                if resumed {
                    self.stats.sessions_resumed.inc();
                }
                let user = cert.subject;
                self.events
                    .push_back(SosEvent::SessionEstablished { peer: from, user });
                self.send_request(from, now, out);
            }
            Ok(SessionEvent::Payload(bytes)) => {
                self.on_sync_payload(from, &bytes, now, out);
            }
            Ok(SessionEvent::Closed(reason)) => {
                self.end_session(from, Teardown::Goodbye(reason), now, out);
            }
            Ok(SessionEvent::None) => {}
            Err(NetError::NotConnected) => {
                // A frame for a session we no longer have (e.g. it raced
                // with our teardown). Never answer: replying to unknown-
                // session frames with Disconnect would let two closed
                // endpoints bounce Disconnects forever.
            }
            Err(NetError::UnexpectedHandshake) => {
                // Our session with this peer stays as it is. An init is
                // a collision (both sides connected at once): tell the
                // peer to retry later. A response nobody asked for is a
                // duplicate or a forgery and gets no answer.
                if was_init {
                    out.push((
                        from,
                        Frame::Disconnect {
                            reason: DisconnectReason::ProtocolError,
                        },
                    ));
                }
            }
            Err(e) => self.end_session(from, Teardown::Failed(e), now, out),
        }
    }

    /// After our initiated session is established: request the authors we
    /// picked at advertisement time (Fig. 2b "requests Alice's message"),
    /// as gap-aware range sets — the peer serves exactly what our held
    /// ranges are missing, holes included.
    fn send_request(&mut self, peer: PeerId, now: SimTime, out: &mut Vec<(PeerId, Frame)>) {
        let interests = self
            .adhoc
            .browse_mut(peer)
            .map(|browse| std::mem::take(&mut browse.interests))
            .unwrap_or_default();
        if interests.is_empty() {
            self.end_session(peer, Teardown::Done, now, out);
            return;
        }
        let wants: Vec<AuthorWant> = interests
            .into_iter()
            .map(|author| AuthorWant {
                have: self.store.ranges_for(&author),
                author,
            })
            .collect();
        let authors = wants.len();
        let requests = SyncMsg::requests(wants);
        self.note(
            now,
            ObsEvent::WantSent {
                peer: peer.0,
                authors,
                chunks: requests.len(),
            },
        );
        // The advertiser answers every Request frame with its own Done;
        // remember how many to expect so a chunked (multi-frame) request
        // is not torn down after the first chunk's Done.
        if let Some(browse) = self.adhoc.browse_mut(peer) {
            browse.dones = requests.len();
        }
        for msg in requests {
            // `requests` chunks to the wire limits, so encode cannot
            // reject; treat a failure like any other broken send.
            let sent = msg
                .encode()
                .ok()
                .and_then(|payload| self.adhoc.send_payload(peer, &payload).ok());
            let Some(frame) = sent else {
                self.end_session(peer, Teardown::SendFailed, now, out);
                return;
            };
            self.stats.sync_frames_sent.inc();
            out.push((peer, frame));
        }
    }

    fn on_sync_payload(
        &mut self,
        from: PeerId,
        bytes: &[u8],
        now: SimTime,
        out: &mut Vec<(PeerId, Frame)>,
    ) {
        let Ok(msg) = SyncMsg::decode(bytes) else {
            self.end_session(from, Teardown::Malformed, now, out);
            return;
        };
        match msg {
            SyncMsg::Request { wants } => self.serve_request(from, &wants, now, out),
            SyncMsg::Bundles(bundles) => self.receive_frame(from, bundles, now),
            SyncMsg::Done => {
                if let Some(browse) = self.adhoc.browse_mut(from) {
                    // One Done arrives per Request frame we sent; close
                    // only on the last, or a chunked request would lose
                    // every chunk after the first.
                    if browse.dones > 1 {
                        browse.dones -= 1;
                        return;
                    }
                    // Remember a browse that gained nothing, so identical
                    // conditions do not re-trigger a session every
                    // encounter (see FUTILE_RETRY_BACKOFF).
                    if browse.gain == 0 {
                        let mark = FutileMark {
                            ad_summary: std::mem::take(&mut browse.ad_summary),
                            my_summary: self.store.sync_summary(),
                            at: now,
                        };
                        self.futile.insert(from, mark);
                    } else {
                        self.futile.remove(&from);
                    }
                }
                self.end_session(from, Teardown::Done, now, out);
            }
        }
    }

    /// Advertiser side of Fig. 2b: serve the complement of the
    /// requester's held ranges, packed into size-budgeted batch frames,
    /// then signal completion.
    fn serve_request(
        &mut self,
        from: PeerId,
        wants: &[AuthorWant],
        now: SimTime,
        out: &mut Vec<(PeerId, Frame)>,
    ) {
        let _span = sos_obs::profile::span("core/serve_request");
        self.stats.requests_served.inc();
        let sent_before = self.stats.bundles_sent.get();
        let frames_before = self.stats.sync_frames_sent.get();
        let peer_user = self.adhoc.peer_user(from);
        let me = self.user_id();
        let summary = self.store.summary();
        // Demand observation first, for every requested author — even
        // the ones the session cap below keeps us from serving this
        // time — so demand-tracking schemes see the full interest.
        if let Some(user) = &peer_user {
            for want in wants {
                self.scheme.on_peer_request(user, &want.author, now);
            }
        }
        let mut to_send: Vec<MessageId> = Vec::new();
        let ctx = Self::routing_ctx(&me, &self.subscriptions, &summary, now);
        'wants: for want in wants {
            for bundle in self.store.bundles_missing_from(&want.author, &want.have) {
                // The advertise policy gates the serve path too: a
                // bundle the scheme hides (e.g. an exhausted
                // spray-and-wait copy) must not leak just because the
                // peer asked broadly.
                if !self.scheme.should_advertise(&ctx, bundle) {
                    continue;
                }
                if to_send.len() >= self.config.max_bundles_per_session {
                    break 'wants;
                }
                to_send.push(bundle.message.id);
            }
        }
        // `on_serve` mutates copy budgets as each batch is built, so a
        // failed flush burns at most the current batch's budgets without
        // delivery — the budget analogue of losing the frame tail;
        // ranged wants re-fetch the bundles themselves next encounter.
        // A failed send closes the session and ends the serve, instead
        // of leaving the peer idling for a `Done` that will never come.
        let mut batch = BundleBatch::default();
        for id in to_send {
            let Some(stored) = self.store.get_mut(&id) else {
                continue;
            };
            let granted_copies = self.scheme.on_serve(stored);
            if !batch.fits(stored.wire_size_with(granted_copies))
                && !Self::send_batch(&mut self.adhoc, &self.stats, from, &mut batch, out)
            {
                self.end_session(from, Teardown::SendFailed, now, out);
                return;
            }
            batch.push(stored, granted_copies);
        }
        if batch.len() > 0 && !Self::send_batch(&mut self.adhoc, &self.stats, from, &mut batch, out)
        {
            self.end_session(from, Teardown::SendFailed, now, out);
            return;
        }
        let done = SyncMsg::encode_done();
        match self.adhoc.send_payload(from, &done) {
            Ok(frame) => {
                self.stats.sync_frames_sent.inc();
                out.push((from, frame));
                self.note(
                    now,
                    ObsEvent::Served {
                        peer: from.0,
                        bundles: (self.stats.bundles_sent.get() - sent_before) as usize,
                        frames: (self.stats.sync_frames_sent.get() - frames_before) as usize,
                    },
                );
            }
            Err(_) => self.end_session(from, Teardown::SendFailed, now, out),
        }
    }

    /// Sends `batch` as one bundle frame, which empties it; false if the
    /// send path failed. It borrows only what sending needs, so the
    /// serve loop can hold a stored bundle across it.
    fn send_batch(
        adhoc: &mut AdHocManager,
        stats: &StatCells,
        peer: PeerId,
        batch: &mut BundleBatch,
        out: &mut Vec<(PeerId, Frame)>,
    ) -> bool {
        let count = batch.len() as u64;
        let Ok(frame) = adhoc.send_payload(peer, batch.finish()) else {
            return false;
        };
        stats.bundles_sent.add(count);
        stats.sync_frames_sent.inc();
        out.push((peer, frame));
        true
    }

    /// Receives one frame's bundles: the signatures of everything that
    /// would reach the signature check are verified as one batch, then
    /// [`Sos::receive_bundle`] consumes the bundles in frame order, so
    /// stats, journal entries, events and rejection causes come out
    /// exactly as if each bundle had arrived in a frame of its own.
    fn receive_frame(&mut self, from: PeerId, bundles: Vec<Bundle>, now: SimTime) {
        let verified = self.verify_frame(&bundles, now);
        // `RoutingContext::summary` for `should_carry`: built at the
        // frame's first accepted bundle and bumped per insert, not
        // rescanned from the whole store for every bundle.
        let mut summary = None;
        for (bundle, verified) in bundles.into_iter().zip(verified) {
            self.receive_bundle(from, bundle, verified, &mut summary, now);
        }
    }

    /// The frame pre-pass: `true` at `i` means `bundles[i].verify(..)`
    /// is known to return `Ok(())` now. Bundles the per-bundle path
    /// would not signature-check anyway (content-equal to a held copy,
    /// or failing an envelope check) are left `false`, as is the whole
    /// frame when the batch does not verify — `receive_bundle` then
    /// verifies serially and finds which bundle is bad, so a hostile
    /// frame costs at most one batch plus the serial checks.
    ///
    /// A frame carries few authors, so each distinct certificate is
    /// validated once, at its first bundle that reaches the check, and
    /// its verdict reused for the rest: clock and CRL are fixed for the
    /// frame, so the memo answers what a repeated call would.
    fn verify_frame(&self, bundles: &[Bundle], now: SimTime) -> Vec<bool> {
        let _span = sos_obs::profile::span("core/verify_frame");
        let validator = self.adhoc.identity().validator();
        let mut validated: Vec<(&Certificate, Result<(), CertError>)> = Vec::new();
        // The candidates' signed strings, back to back in one buffer.
        let mut signed = Vec::new();
        let candidates: Vec<(usize, Range<usize>)> = bundles
            .iter()
            .enumerate()
            .filter(|(_, b)| {
                let held_equal = self
                    .store
                    .get(&b.message.id)
                    .is_some_and(|held| b.content_matches(held));
                !held_equal
                    && b.check_envelope(|cert| {
                        if let Some((_, verdict)) = validated.iter().find(|(c, _)| *c == cert) {
                            return verdict.clone();
                        }
                        let verdict = validator.validate(cert, now.as_secs());
                        validated.push((cert, verdict.clone()));
                        verdict
                    })
                    .is_ok()
            })
            .map(|(i, b)| {
                let (m, start) = (&b.message, signed.len());
                SosMessage::append_signing_bytes(
                    &mut signed,
                    &m.id,
                    m.created_at,
                    m.kind,
                    &m.payload,
                );
                (i, start..signed.len())
            })
            .collect();
        let items: Vec<_> = candidates
            .iter()
            .map(|(i, range)| {
                let b = &bundles[*i];
                (
                    &b.author_certificate.ed25519_public,
                    &signed[range.clone()],
                    &b.message.signature,
                )
            })
            .collect();
        let mut verified = vec![false; bundles.len()];
        if sos_crypto::ed25519::verify_batch(&items) {
            for (i, _) in &candidates {
                verified[*i] = true;
            }
        }
        verified
    }

    /// `Bundle::verify`, skipped when the frame pre-pass already proved it.
    fn verify_unless(
        &self,
        verified: bool,
        bundle: &Bundle,
        now: SimTime,
    ) -> Result<(), BundleRejection> {
        if verified {
            return Ok(());
        }
        bundle.verify(self.adhoc.identity().validator(), now.as_secs())
    }

    /// Counts and journals a duplicate of a held bundle.
    fn note_duplicate(&mut self, from: PeerId, id: MessageId, now: SimTime) {
        self.stats.bundles_duplicate.inc();
        let author = sos_obs::author_tag(id.author.as_bytes());
        self.note(
            now,
            ObsEvent::BundleDuplicate {
                from: from.0,
                author,
                seq: id.number,
            },
        );
    }

    /// Counts and journals a rejected bundle and alerts the application.
    fn reject(
        &mut self,
        from: PeerId,
        id: MessageId,
        cause: &'static str,
        detail: String,
        now: SimTime,
    ) {
        self.stats.security_rejections.inc();
        self.stats.security_alerts.inc();
        let author = sos_obs::author_tag(id.author.as_bytes());
        self.note(
            now,
            ObsEvent::BundleReject {
                from: from.0,
                author,
                seq: id.number,
                cause,
            },
        );
        self.events
            .push_back(SosEvent::SecurityAlert { peer: from, detail });
    }

    /// Receiver side: deduplicate against the store, verify (§IV) only
    /// what is actually new, store per the routing scheme, and surface
    /// to the application.
    ///
    /// Dedup runs **before** verification: a duplicate whose content
    /// matches the held (already verified) copy only needs the hop-count
    /// merge, not four scalar multiplications — with PR 2's ~200-bundle
    /// batched encounters this is the difference between crypto being
    /// the dominant per-encounter cost and a rounding error. The merge
    /// is guarded by content equality, so a forged bundle reusing a
    /// stored id cannot poison hop counts without passing the full
    /// verification itself.
    ///
    /// `verified` is the frame pre-pass's verdict ([`Sos::verify_frame`]):
    /// when set, the full `Bundle::verify` is already known to pass and
    /// is not repeated. `summary` is the frame's lazily built
    /// `author → latest held` dictionary.
    fn receive_bundle(
        &mut self,
        from: PeerId,
        mut bundle: Bundle,
        verified: bool,
        summary: &mut Option<BTreeMap<UserId, u64>>,
        now: SimTime,
    ) {
        let _span = sos_obs::profile::span("core/receive_bundle");
        self.stats.bundles_received.inc();
        let id = bundle.message.id;
        let author = sos_obs::author_tag(id.author.as_bytes());
        if let Some(held) = self.store.get(&id) {
            if bundle.content_matches(held) {
                self.note_duplicate(from, id, now);
                // Same signed bytes we already verified. A duplicate
                // that arrived over a shorter path still improves what
                // we know (and relay) about the message: keep the
                // minimum hop count.
                bundle.hops += 1;
                self.store.insert(bundle);
                return;
            }
            // Same id, different bytes: the full verification must run
            // to classify what we got — and only a certificate-renewal
            // duplicate may still touch the stored copy.
            let same_message = bundle.message == held.message;
            let (detail, cause) = match self.verify_unless(verified, &bundle, now) {
                Ok(()) if same_message => {
                    // The identical signed message wrapped in a
                    // *different but valid* certificate for the same
                    // author (e.g. a renewal): a legitimate duplicate.
                    // Merge the hop count, and keep whichever envelope
                    // lives longer — a copy stuck with the expiring
                    // certificate would be rejected as a forgery by
                    // every peer once it lapses.
                    self.note_duplicate(from, id, now);
                    bundle.hops += 1;
                    if let Some(held) = self.store.get_mut(&id) {
                        held.hops = held.hops.min(bundle.hops);
                        if bundle.author_certificate.not_after > held.author_certificate.not_after {
                            held.author_certificate = bundle.author_certificate;
                        }
                    }
                    return;
                }
                // Validly signed divergent content is the *author*
                // equivocating; the relay is an honest messenger and
                // must not be penalized for it.
                Ok(()) => (
                    format!(
                        "author equivocation: two valid contents for message {}/{}",
                        id.author.display(),
                        id.number
                    ),
                    "equivocation",
                ),
                Err(rejection) => {
                    // A forgery: the delivering peer relayed tampered
                    // bytes, so its trust takes the hit.
                    if let Some(user) = self.adhoc.peer_user(from) {
                        self.scheme.on_security_incident(&user, now);
                    }
                    (rejection.to_string(), "forged_duplicate")
                }
            };
            self.reject(from, id, cause, detail, now);
            return;
        }
        if let Err(rejection) = self.verify_unless(verified, &bundle, now) {
            if let Some(user) = self.adhoc.peer_user(from) {
                self.scheme.on_security_incident(&user, now);
            }
            self.reject(from, id, "verify_failed", rejection.to_string(), now);
            return;
        }
        bundle.hops += 1;
        if let Some(browse) = self.adhoc.browse_mut(from) {
            browse.gain += 1;
        }
        let me = self.user_id();
        let summary = summary.get_or_insert_with(|| self.store.summary());
        let ctx = Self::routing_ctx(&me, &self.subscriptions, summary, now);
        let carried = self.scheme.should_carry(&ctx, &bundle);
        let interested = self.subscriptions.contains(&id.author) || id.author == me;
        let event = SosEvent::MessageReceived {
            id,
            kind: bundle.message.kind,
            payload: Arc::clone(&bundle.message.payload),
            created_at: bundle.message.created_at,
            hops: bundle.hops,
            from,
            carried,
        };
        let hops = bundle.hops;
        let stored = carried || interested;
        if stored {
            self.store.insert(bundle);
            // The id was not held (checked on entry), so the author's
            // latest can only have grown to this number.
            let latest = summary.entry(id.author).or_insert(0);
            *latest = (*latest).max(id.number);
            #[cfg(test)]
            assert_eq!(*summary, self.store.summary(), "bumped summary drifted");
        }
        self.note(
            now,
            ObsEvent::BundleAccept {
                from: from.0,
                author,
                seq: id.number,
                hops,
                stored,
                carried: self.store.len(),
            },
        );
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sos_crypto::ca::{CertificateAuthority, Validator};
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::x25519::AgreementKey;
    use sos_obs::{GlobalTimeline, Provenance};
    use std::sync::Arc;

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

    fn node(
        ca: &mut CertificateAuthority,
        idx: u32,
        seed: u8,
        name: &str,
        kind: SchemeKind,
    ) -> Sos {
        Sos::new(PeerId(idx), identity(ca, seed, name), kind)
    }

    /// Delivers `initial`, sent by `a`, and every reply between the two
    /// nodes over an instant air until it is quiet.
    fn pump(a: &mut Sos, b: &mut Sos, initial: Vec<(PeerId, Frame)>, now: SimTime, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a_id = a.peer_id();
        let mut air = sos_net::Air::instant();
        air.send(now, a_id, initial);
        air.settle(
            now + sos_sim::SimDuration::from_millis(1),
            |at, src, dst, frame| {
                let target = if dst == a_id { &mut *a } else { &mut *b };
                target.handle_frame(src, frame, at, &mut rng)
            },
        );
    }

    /// Runs a full advertisement → session → sync exchange from `b`
    /// browsing `a`'s advertisement.
    fn browse(a: &mut Sos, b: &mut Sos, now: SimTime) {
        let ad = Frame::Advertisement(a.advertisement(now));
        pump(a, b, vec![(b.peer_id(), ad)], now, 7);
    }

    fn uid(s: &str) -> UserId {
        UserId::from_str_padded(s)
    }

    #[test]
    fn duplicate_bundle_lowers_stored_hop_count() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut bob = node(&mut ca, 1, 10, "bob", SchemeKind::Epidemic);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let alice = uid("alice");
        let cert = ca.issue(alice, "alice", sk.verifying_key(), *ak.public(), 0);
        let msg = SosMessage::create(
            &sk,
            alice,
            1,
            SimTime::from_secs(1),
            MessageKind::Post,
            b"hello".to_vec(),
        );
        let id = msg.id;
        let mut far = Bundle::new(msg, cert);
        far.hops = 5;
        let near = {
            let mut b = far.clone();
            b.hops = 0;
            b
        };

        // First copy arrives over a long path: stored with hops 5+1.
        bob.receive_frame(PeerId(9), vec![far], SimTime::from_secs(2));
        assert_eq!(bob.store.get(&id).unwrap().hops, 6);

        // The same bundle straight from the author must lower the
        // stored count through the *middleware* duplicate path, not
        // just via MessageStore::insert in isolation.
        bob.receive_frame(PeerId(9), vec![near], SimTime::from_secs(3));
        assert_eq!(bob.stats().bundles_duplicate, 1);
        assert_eq!(bob.store.get(&id).unwrap().hops, 1);
        assert_eq!(bob.store.len(), 1);
    }

    /// A forged bundle reusing a stored message id (here: tampered
    /// payload, hop count dropped to zero) must not lower the stored hop
    /// count — the merge is guarded by content equality — and must be
    /// reported as a security incident, not a duplicate.
    #[test]
    fn forged_duplicate_cannot_poison_hop_count() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut bob = node(&mut ca, 1, 10, "bob", SchemeKind::Epidemic);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let alice = uid("alice");
        let cert = ca.issue(alice, "alice", sk.verifying_key(), *ak.public(), 0);
        let msg = SosMessage::create(
            &sk,
            alice,
            1,
            SimTime::from_secs(1),
            MessageKind::Post,
            b"genuine".to_vec(),
        );
        let id = msg.id;
        let mut genuine = Bundle::new(msg, cert);
        genuine.hops = 5;
        bob.receive_frame(PeerId(9), vec![genuine.clone()], SimTime::from_secs(2));
        assert_eq!(bob.store.get(&id).unwrap().hops, 6);

        let mut forged = genuine.clone();
        forged.message.payload = b"forgery".to_vec().into();
        forged.hops = 0;
        bob.receive_frame(PeerId(9), vec![forged], SimTime::from_secs(3));
        assert_eq!(bob.store.get(&id).unwrap().hops, 6, "hop count poisoned");
        assert_eq!(&*bob.store.get(&id).unwrap().message.payload, b"genuine");
        assert_eq!(bob.stats().security_rejections, 1);
        assert_eq!(bob.stats().bundles_duplicate, 0, "forgery is not a dup");
    }

    /// Duplicates are recognised *before* verification runs: a byte-equal
    /// copy arriving after the author's certificate expired still merges
    /// its (lower) hop count, where the old verify-first order would
    /// have rejected it — proof that the dedup path skips the crypto.
    #[test]
    fn byte_equal_duplicate_skips_verification() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        ca.default_validity_secs = 100;
        let mut bob = node(&mut ca, 1, 10, "bob", SchemeKind::Epidemic);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let alice = uid("alice");
        let cert = ca.issue(alice, "alice", sk.verifying_key(), *ak.public(), 0);
        let msg = SosMessage::create(
            &sk,
            alice,
            1,
            SimTime::from_secs(1),
            MessageKind::Post,
            b"hello".to_vec(),
        );
        let id = msg.id;
        let mut far = Bundle::new(msg, cert);
        far.hops = 5;
        let near = {
            let mut b = far.clone();
            b.hops = 0;
            b
        };
        // First copy arrives within the certificate's validity.
        bob.receive_frame(PeerId(9), vec![far], SimTime::from_secs(50));
        assert_eq!(bob.store.get(&id).unwrap().hops, 6);
        // Second copy arrives long after expiry: verification would
        // reject it, but the content-equal dedup path never runs it.
        bob.receive_frame(PeerId(9), vec![near], SimTime::from_secs(10_000));
        assert_eq!(bob.stats().bundles_duplicate, 1);
        assert_eq!(bob.stats().security_rejections, 0);
        assert_eq!(bob.store.get(&id).unwrap().hops, 1, "merge still applies");
    }

    /// The same signed message wrapped in a *different but valid*
    /// certificate for the same author (a renewal) is a legitimate
    /// duplicate: the hop merge applies and no alert fires.
    #[test]
    fn renewed_certificate_duplicate_still_merges() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut bob = node(&mut ca, 1, 10, "bob", SchemeKind::Epidemic);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let alice = uid("alice");
        let cert_v1 = ca.issue(alice, "alice", sk.verifying_key(), *ak.public(), 0);
        let cert_v2 = ca.issue(alice, "alice", sk.verifying_key(), *ak.public(), 1);
        assert_ne!(cert_v1, cert_v2, "distinct serials/validity");
        let msg = SosMessage::create(
            &sk,
            alice,
            1,
            SimTime::from_secs(1),
            MessageKind::Post,
            b"same bytes".to_vec(),
        );
        let id = msg.id;
        let mut old_env = Bundle::new(msg.clone(), cert_v1);
        old_env.hops = 5;
        let new_env = Bundle::new(msg, cert_v2);

        bob.receive_frame(PeerId(9), vec![old_env], SimTime::from_secs(2));
        assert_eq!(bob.store.get(&id).unwrap().hops, 6);
        bob.receive_frame(PeerId(9), vec![new_env.clone()], SimTime::from_secs(3));
        assert_eq!(bob.stats().bundles_duplicate, 1);
        assert_eq!(bob.stats().security_rejections, 0);
        assert_eq!(bob.store.get(&id).unwrap().hops, 1, "merge applies");
        // The stored copy upgraded to the longer-lived envelope, so it
        // keeps relaying after the original certificate expires.
        assert_eq!(
            bob.store.get(&id).unwrap().author_certificate,
            new_env.author_certificate,
            "envelope upgraded to the renewal"
        );
    }

    /// The author's held bundles share one certificate, so the renewal
    /// upgrade must replace the merged bundle's `Arc`, not the shared
    /// certificate behind it: its neighbours keep the old one.
    #[test]
    fn renewal_upgrade_replaces_only_the_merged_bundles_certificate() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut bob = node(&mut ca, 1, 10, "bob", SchemeKind::Epidemic);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let alice = uid("alice");
        let cert_v1 = ca.issue(alice, "alice", sk.verifying_key(), *ak.public(), 0);
        let cert_v2 = ca.issue(alice, "alice", sk.verifying_key(), *ak.public(), 1);
        let held: Vec<Bundle> = (1..=3)
            .map(|n| {
                let msg = SosMessage::create(
                    &sk,
                    alice,
                    n,
                    SimTime::from_secs(n),
                    MessageKind::Post,
                    b"post".to_vec(),
                );
                Bundle::new(msg, cert_v1.clone())
            })
            .collect();
        let payload = SyncMsg::Bundles(held.clone()).encode().unwrap();
        let SyncMsg::Bundles(decoded) = SyncMsg::decode(&payload).unwrap() else {
            unreachable!("a bundle batch decodes to one");
        };
        bob.receive_frame(PeerId(9), decoded, SimTime::from_secs(5));
        let stored = |bob: &Sos, n: usize| bob.store.get(&held[n].message.id).unwrap().clone();
        assert!(Arc::ptr_eq(
            &stored(&bob, 0).author_certificate,
            &stored(&bob, 2).author_certificate
        ));

        let renewal = Bundle::new(held[1].message.clone(), cert_v2.clone());
        bob.receive_frame(PeerId(9), vec![renewal], SimTime::from_secs(6));
        assert_eq!(bob.stats().bundles_duplicate, 1);
        assert_eq!(*stored(&bob, 1).author_certificate, cert_v2, "upgraded");
        for n in [0, 2] {
            assert_eq!(*stored(&bob, n).author_certificate, cert_v1, "untouched");
        }
        assert!(Arc::ptr_eq(
            &stored(&bob, 0).author_certificate,
            &stored(&bob, 2).author_certificate
        ));
    }

    /// Two *validly signed* contents under one message id (author
    /// equivocation) keep the first copy and surface an alert.
    #[test]
    fn author_equivocation_detected() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut bob = node(&mut ca, 1, 10, "bob", SchemeKind::Epidemic);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let alice = uid("alice");
        let cert = ca.issue(alice, "alice", sk.verifying_key(), *ak.public(), 0);
        let make = |payload: &[u8]| {
            let msg = SosMessage::create(
                &sk,
                alice,
                1,
                SimTime::from_secs(1),
                MessageKind::Post,
                payload.to_vec(),
            );
            Bundle::new(msg, cert.clone())
        };
        bob.receive_frame(PeerId(9), vec![make(b"version one")], SimTime::from_secs(2));
        bob.receive_frame(PeerId(9), vec![make(b"version two")], SimTime::from_secs(3));
        let id = MessageId {
            author: alice,
            number: 1,
        };
        assert_eq!(
            &*bob.store.get(&id).unwrap().message.payload,
            b"version one"
        );
        assert_eq!(bob.stats().security_rejections, 1);
        let alerts: Vec<String> = bob
            .poll_events()
            .into_iter()
            .filter_map(|e| match e {
                SosEvent::SecurityAlert { detail, .. } => Some(detail),
                _ => None,
            })
            .collect();
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].contains("equivocation"), "got: {}", alerts[0]);
    }

    #[test]
    fn post_assigns_sequential_numbers() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let id1 = alice
            .post(MessageKind::Post, b"one".to_vec(), SimTime::ZERO)
            .unwrap();
        let id2 = alice
            .post(MessageKind::Post, b"two".to_vec(), SimTime::ZERO)
            .unwrap();
        assert_eq!(id1.number, 1);
        assert_eq!(id2.number, 2);
        assert_eq!(alice.store().len(), 2);
        assert_eq!(alice.stats().posts, 2);
    }

    #[test]
    fn oversized_post_rejected() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let err = alice
            .post(MessageKind::Post, vec![0; MAX_PAYLOAD + 1], SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SosError::PayloadTooLarge { .. }));
    }

    #[test]
    fn advertisement_reflects_store() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        alice
            .post(MessageKind::Post, b"x".to_vec(), SimTime::ZERO)
            .unwrap();
        alice
            .post(MessageKind::Post, b"y".to_vec(), SimTime::ZERO)
            .unwrap();
        let ad = alice.advertisement(SimTime::ZERO);
        assert_eq!(ad.latest_for(&uid("alice")), Some(2));
    }

    #[test]
    fn interest_based_end_to_end_delivery() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::InterestBased);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::InterestBased);
        bob.subscribe(uid("alice"));

        let t = SimTime::from_secs(100);
        alice
            .post(MessageKind::Post, b"hello followers".to_vec(), t)
            .unwrap();
        browse(&mut alice, &mut bob, t);

        let events = bob.poll_events();
        let received: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                SosEvent::MessageReceived {
                    id, payload, hops, ..
                } => Some((id.author, payload.clone(), *hops)),
                _ => None,
            })
            .collect();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].0, uid("alice"));
        assert_eq!(&*received[0].1, b"hello followers");
        assert_eq!(received[0].2, 1, "direct from author = 1 hop");
        assert_eq!(bob.store().latest_for(&uid("alice")), 1);
        assert_eq!(bob.stats().bundles_received, 1);
        assert_eq!(alice.stats().bundles_sent, 1);
        // Sessions are cleaned up.
        assert_eq!(alice.session_count(), 0);
        assert_eq!(bob.session_count(), 0);
    }

    /// A received payload is decoded once: the stored bundle and the
    /// `MessageReceived` event the app polls share that one allocation.
    #[test]
    fn a_received_payload_is_one_allocation_for_store_and_event() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::InterestBased);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::InterestBased);
        bob.subscribe(uid("alice"));
        let t = SimTime::from_secs(100);
        let id = alice
            .post(MessageKind::Post, b"shared".to_vec(), t)
            .unwrap();
        browse(&mut alice, &mut bob, t);

        let stored = Arc::clone(&bob.store().get(&id).unwrap().message.payload);
        let events = bob.poll_events();
        let delivered: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                SosEvent::MessageReceived { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.len(), 1);
        assert!(Arc::ptr_eq(delivered[0], &stored), "one allocation");
        assert_eq!(&*stored, b"shared");
    }

    #[test]
    fn interest_based_ignores_unsubscribed_content() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::InterestBased);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::InterestBased);
        // bob does NOT subscribe to alice.
        alice
            .post(MessageKind::Post, b"x".to_vec(), SimTime::ZERO)
            .unwrap();
        browse(&mut alice, &mut bob, SimTime::ZERO);
        assert_eq!(bob.store().len(), 0);
        assert_eq!(bob.stats().bundles_received, 0);
        assert_eq!(bob.stats().sessions_initiated, 0, "no connection at all");
    }

    #[test]
    fn epidemic_pulls_everything() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        alice
            .post(MessageKind::Post, b"x".to_vec(), SimTime::ZERO)
            .unwrap();
        browse(&mut alice, &mut bob, SimTime::ZERO);
        assert_eq!(
            bob.store().len(),
            1,
            "epidemic carries without subscription"
        );
    }

    #[test]
    fn two_hop_forwarding_via_common_subscriber() {
        // Fig. 3b: Alice -> Bob -> Carol, all IB, Bob and Carol follow Alice.
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::InterestBased);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::InterestBased);
        let mut carol = node(&mut ca, 2, 30, "carol", SchemeKind::InterestBased);
        bob.subscribe(uid("alice"));
        carol.subscribe(uid("alice"));

        let t = SimTime::from_secs(10);
        alice
            .post(MessageKind::Post, b"multi hop".to_vec(), t)
            .unwrap();
        browse(&mut alice, &mut bob, t);
        assert_eq!(bob.store().latest_for(&uid("alice")), 1);

        // Later, Bob (the forwarder) meets Carol; Alice is far away.
        // Carol's first sighting of the forwarded news starts the
        // forwarder-selection holdoff (Fig. 3a); she pulls from Bob only
        // once the author has failed to appear for the holdoff window.
        let t2 = SimTime::from_secs(1000);
        browse(&mut bob, &mut carol, t2);
        assert_eq!(
            carol.store().latest_for(&uid("alice")),
            0,
            "holdoff: no pull from forwarder yet"
        );
        let t3 = t2 + sos_sim::SimDuration::from_hours(3);
        browse(&mut bob, &mut carol, t3);
        let events = carol.poll_events();
        let got = events.iter().find_map(|e| match e {
            SosEvent::MessageReceived { id, hops, .. } => Some((id.author, *hops)),
            _ => None,
        });
        let (author, hops) = got.expect("carol received alice's message via bob");
        assert_eq!(author, uid("alice"));
        assert_eq!(hops, 2, "two D2D transfers");
    }

    #[test]
    fn duplicate_suppression_on_second_encounter() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::InterestBased);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::InterestBased);
        bob.subscribe(uid("alice"));
        alice
            .post(MessageKind::Post, b"x".to_vec(), SimTime::ZERO)
            .unwrap();
        browse(&mut alice, &mut bob, SimTime::ZERO);
        assert_eq!(bob.store().len(), 1);
        // Second encounter: bob's summary now matches, no new session.
        let before = bob.stats().sessions_initiated;
        browse(&mut alice, &mut bob, SimTime::from_secs(60));
        assert_eq!(
            bob.stats().sessions_initiated,
            before,
            "no news, no session"
        );
        assert_eq!(bob.stats().bundles_duplicate, 0);
    }

    #[test]
    fn scheme_switch_at_runtime() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::InterestBased);
        assert_eq!(bob.scheme_kind(), SchemeKind::InterestBased);
        bob.set_scheme(SchemeKind::Epidemic);
        assert_eq!(bob.scheme_kind(), SchemeKind::Epidemic);
    }

    #[test]
    fn forged_bundle_rejected_with_alert() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        // Alice posts, then we tamper with her stored bundle's payload
        // to simulate a corrupted/malicious forwarder.
        alice
            .post(MessageKind::Post, b"genuine".to_vec(), SimTime::ZERO)
            .unwrap();
        let id = MessageId {
            author: uid("alice"),
            number: 1,
        };
        alice.store.get_mut(&id).unwrap().message.payload = b"tampered".to_vec().into();
        browse(&mut alice, &mut bob, SimTime::ZERO);
        assert_eq!(bob.store().len(), 0, "tampered bundle not stored");
        assert_eq!(bob.stats().security_rejections, 1);
        let alerts = bob
            .poll_events()
            .into_iter()
            .filter(|e| matches!(e, SosEvent::SecurityAlert { .. }))
            .count();
        assert_eq!(alerts, 1);
    }

    #[test]
    fn peer_lost_cleans_sessions() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        alice
            .post(MessageKind::Post, b"x".to_vec(), SimTime::ZERO)
            .unwrap();
        // Bob starts a session but the peer vanishes before the reply.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ad = alice.advertisement(SimTime::ZERO);
        let out = bob.handle_frame(
            alice.peer_id(),
            Frame::Advertisement(ad),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(bob.session_count(), 1);
        bob.on_peer_lost(alice.peer_id());
        assert_eq!(bob.session_count(), 0);
        // Retry works after loss.
        let ad = alice.advertisement(SimTime::ZERO);
        let out = bob.handle_frame(
            alice.peer_id(),
            Frame::Advertisement(ad),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.len(), 1, "can reconnect after peer loss");
    }

    #[test]
    fn ttl_maintenance_expires_carried_gossip_only() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = Sos::with_config(
            PeerId(1),
            identity(&mut ca, 20, "bob"),
            SchemeKind::Epidemic,
            SosConfig {
                bundle_ttl: Some(sos_sim::SimDuration::from_hours(24)),
                ..SosConfig::default()
            },
        );
        // Bob authors one message and carries one of alice's.
        bob.post(MessageKind::Post, b"mine".to_vec(), SimTime::ZERO)
            .unwrap();
        alice
            .post(MessageKind::Post, b"gossip".to_vec(), SimTime::ZERO)
            .unwrap();
        browse(&mut alice, &mut bob, SimTime::from_secs(60));
        assert_eq!(bob.store().len(), 2);
        // Two days later, maintenance drops alice's stale bundle but not
        // bob's own.
        let evicted = bob.maintain(SimTime::from_hours(48));
        assert_eq!(evicted, 1);
        assert_eq!(bob.store().len(), 1);
        assert_eq!(bob.store().latest_for(&uid("bob")), 1);
        assert_eq!(bob.store().latest_for(&uid("alice")), 0);
    }

    #[test]
    fn capacity_cap_enforced_on_frame_handling() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = Sos::with_config(
            PeerId(1),
            identity(&mut ca, 20, "bob"),
            SchemeKind::Epidemic,
            SosConfig {
                max_stored_bundles: Some(5),
                ..SosConfig::default()
            },
        );
        for i in 0..10 {
            alice
                .post(MessageKind::Post, vec![i], SimTime::from_secs(i as u64))
                .unwrap();
        }
        browse(&mut alice, &mut bob, SimTime::from_secs(100));
        // All ten transferred; a later frame triggers maintenance.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ad = alice.advertisement(SimTime::from_secs(200));
        bob.handle_frame(
            alice.peer_id(),
            Frame::Advertisement(ad),
            SimTime::from_secs(200),
            &mut rng,
        );
        assert!(
            bob.store().len() <= 5,
            "cap enforced, got {}",
            bob.store().len()
        );
    }

    /// The headline gap-aware regression (fails under the v1 watermark
    /// protocol): a subscriber that held `{5}` after TTL eviction of
    /// `{1..4}` must re-fetch the hole from a peer still carrying it.
    /// Under v1, `latest_for == 5` matched the advertised latest, so the
    /// subscriber never reconnected and the middles were lost forever.
    #[test]
    fn ttl_eviction_hole_recovered_at_next_encounter() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::InterestBased);
        let mut bob = Sos::with_config(
            PeerId(1),
            identity(&mut ca, 20, "bob"),
            SchemeKind::InterestBased,
            SosConfig {
                bundle_ttl: Some(sos_sim::SimDuration::from_hours(24)),
                ..SosConfig::default()
            },
        );
        bob.subscribe(uid("alice"));
        for n in 1..=4u64 {
            alice
                .post(MessageKind::Post, vec![n as u8], SimTime::from_secs(n))
                .unwrap();
        }
        alice
            .post(MessageKind::Post, vec![5], SimTime::from_hours(12))
            .unwrap();

        // First encounter at 13 h: everything within TTL, bob syncs 1..5.
        browse(&mut alice, &mut bob, SimTime::from_hours(13));
        assert_eq!(bob.store().ranges_for(&uid("alice")), vec![(1, 5)]);
        bob.poll_events();

        // At 30 h, maintenance expires 1..4 (created ≈ 0 s) but keeps 5
        // (created 12 h): the store now holds exactly the hole shape.
        bob.maintain(SimTime::from_hours(30));
        assert_eq!(bob.store().ranges_for(&uid("alice")), vec![(5, 5)]);
        assert_eq!(bob.store().holes_for(&uid("alice")), vec![(1, 4)]);
        assert_eq!(
            bob.store().latest_for(&uid("alice")),
            5,
            "v1 watermark blind spot"
        );

        // Next encounter: the ranged request re-fetches exactly 1..4 and
        // delivers them to the application again.
        browse(&mut alice, &mut bob, SimTime::from_hours(30));
        let recovered: Vec<u64> = bob
            .poll_events()
            .iter()
            .filter_map(|e| match e {
                SosEvent::MessageReceived { id, .. } => Some(id.number),
                _ => None,
            })
            .collect();
        assert_eq!(
            recovered,
            vec![1, 2, 3, 4],
            "hole re-fetched at next encounter"
        );
        assert_eq!(bob.stats().bundles_received, 9, "5 initial + 4 recovered");
        assert_eq!(
            bob.stats().bundles_duplicate,
            0,
            "nothing re-served needlessly"
        );
    }

    /// Capacity eviction at a *forwarder* punches holes into what
    /// downstream subscribers can pull; the ranged protocol lets them
    /// heal the hole directly from the author later.
    #[test]
    fn forwarder_eviction_hole_healed_from_author() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut carol = Sos::with_config(
            PeerId(2),
            identity(&mut ca, 30, "carol"),
            SchemeKind::Epidemic,
            SosConfig {
                max_stored_bundles: Some(2),
                ..SosConfig::default()
            },
        );
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        for n in 1..=5u64 {
            alice
                .post(MessageKind::Post, vec![n as u8], SimTime::from_secs(n))
                .unwrap();
        }
        // Carol relays but her cap keeps only the newest two.
        browse(&mut alice, &mut carol, SimTime::from_secs(100));
        carol.maintain(SimTime::from_secs(101));
        assert_eq!(carol.store().ranges_for(&uid("alice")), vec![(4, 5)]);
        // Bob (unconstrained) meets only carol first: he ends up with the
        // tail and a hole.
        browse(&mut carol, &mut bob, SimTime::from_secs(200));
        assert_eq!(bob.store().ranges_for(&uid("alice")), vec![(4, 5)]);
        assert_eq!(bob.store().latest_for(&uid("alice")), 5);
        // Meeting the author later: under v1 the matching watermark (5)
        // would suppress the session; the ranged request heals the hole.
        browse(&mut alice, &mut bob, SimTime::from_secs(300));
        assert_eq!(
            bob.store().ranges_for(&uid("alice")),
            vec![(1, 5)],
            "missing middles recovered from the author"
        );
    }

    /// Satellite regression: the serve path must honour the scheme's
    /// advertise policy. An exhausted spray-and-wait copy
    /// (`copies == Some(1)`) hidden from advertisements used to leak
    /// anyway when a broad request matched it.
    #[test]
    fn serve_path_respects_advertise_policy() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::SprayAndWait);
        let mut dave = node(&mut ca, 3, 40, "dave", SchemeKind::Epidemic);
        // Bob carries two of carol's bundles: #1 exhausted, #2 sprayable.
        let mut exhausted = crate::routing::testutil::bundle_from("carol", 1);
        exhausted.copies = Some(1);
        let mut sprayable = crate::routing::testutil::bundle_from("carol", 2);
        sprayable.copies = Some(4);
        bob.store.insert(exhausted);
        bob.store.insert(sprayable);
        // Bob's advertisement already hides #1 but shows carol@2; dave's
        // broad pull (empty have set) must not leak #1 off the serve path.
        let ad = bob.advertisement(SimTime::ZERO);
        assert_eq!(ad.latest_for(&uid("carol")), Some(2));
        browse(&mut bob, &mut dave, SimTime::ZERO);
        let got: Vec<u64> = dave
            .store()
            .bundles_after(&uid("carol"), 0)
            .iter()
            .map(|b| b.message.id.number)
            .collect();
        assert_eq!(got, vec![2], "exhausted copy must not leak");
        assert_eq!(bob.stats().bundles_sent, 1);
    }

    /// Bundles are batched into size-budgeted frames: a 60-message sync
    /// takes a handful of payload frames, not one per bundle.
    #[test]
    fn serve_batches_bundles_under_budget() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        for n in 0..60u64 {
            alice
                .post(MessageKind::Post, vec![n as u8; 16], SimTime::from_secs(n))
                .unwrap();
        }
        browse(&mut alice, &mut bob, SimTime::from_secs(100));
        assert_eq!(bob.store().len(), 60, "full transfer");
        assert_eq!(alice.stats().bundles_sent, 60);
        assert!(
            alice.stats().sync_frames_sent <= 5,
            "60 bundles must travel in a few batched frames, got {}",
            alice.stats().sync_frames_sent
        );
    }

    /// Satellite regression: a send failure while serving must close the
    /// session (ProtocolError) and surface SessionClosed instead of
    /// leaving the browser idling for a Done that never comes.
    #[test]
    fn serve_send_failure_closes_session() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        alice
            .post(MessageKind::Post, b"x".to_vec(), SimTime::ZERO)
            .unwrap();
        // A request arrives attributed to a peer with no session: every
        // send_payload fails, which must not early-return silently.
        let wants = [AuthorWant {
            author: uid("alice"),
            have: vec![],
        }];
        let mut out = Vec::new();
        alice.serve_request(PeerId(9), &wants, SimTime::ZERO, &mut out);
        assert!(out.is_empty(), "no session ⇒ nothing to transmit");
        assert!(
            alice
                .poll_events()
                .iter()
                .any(|e| matches!(e, SosEvent::SessionClosed { peer } if *peer == PeerId(9))),
            "failure surfaced as SessionClosed"
        );
    }

    /// A duplicate (or forged — it is unauthenticated) `HandshakeResponse`
    /// reaching an initiator whose session is already up used to remove
    /// the live slot silently: no `SessionClose`, request state leaked,
    /// and the bundles already on their way undecryptable.
    #[test]
    fn unsolicited_handshake_response_leaves_the_session_and_its_journal_intact() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        let journal = sos_obs::journal::JournalHandle::new();
        alice.attach_obs(NodeObs::new(0, journal.clone()));
        bob.attach_obs(NodeObs::new(1, journal.clone()));
        alice
            .post(MessageKind::Post, b"hello".to_vec(), SimTime::ZERO)
            .unwrap();
        let now = SimTime::from_secs(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ad = Frame::Advertisement(alice.advertisement(now));
        let init = bob.handle_frame(alice.peer_id(), ad, now, &mut rng);
        let resp = alice.handle_frame(bob.peer_id(), init[0].1.clone(), now, &mut rng);
        let request = bob.handle_frame(alice.peer_id(), resp[0].1.clone(), now, &mut rng);
        assert!(matches!(request[0].1, Frame::Data { .. }));

        // The response arrives a second time, mid-session.
        let out = bob.handle_frame(alice.peer_id(), resp[0].1.clone(), now, &mut rng);
        assert!(out.is_empty(), "no answer to an unsolicited response");
        let dones = bob.adhoc.browse_mut(alice.peer_id()).map(|b| b.dones);
        assert_eq!(dones, Some(1), "the established browse is still there");

        // The request is still served, and what comes back decrypts.
        pump(&mut bob, &mut alice, request, now, 99);
        assert_eq!(bob.store.len(), 1, "the bundle arrived");
        assert_eq!((bob.session_count(), alice.session_count()), (0, 0));
        assert!(bob.adhoc.browse_mut(alice.peer_id()).is_none());
        let walk = Provenance::build(&GlobalTimeline::merge([&journal.snapshot()]));
        assert_eq!(walk.violations, []);
        assert_eq!(walk.open_sessions.len(), 0, "no open without its close");
        assert_eq!(bob.stats().security_alerts, 0);
    }

    /// The miss path, end to end: after a lost resumed response the next
    /// meeting falls back to the full handshake inside one session — no
    /// `Disconnect`, no `SessionClose` but the final "done", no alert,
    /// one `SessionOpen` a side — and the meeting after resumes again.
    #[test]
    fn ticket_miss_falls_back_quietly_inside_one_session() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        let journal = sos_obs::journal::JournalHandle::new();
        alice.attach_obs(NodeObs::new(0, journal.clone()));
        bob.attach_obs(NodeObs::new(1, journal.clone()));
        let post = |alice: &mut Sos, at: u64| {
            let body = at.to_le_bytes().to_vec();
            alice
                .post(MessageKind::Post, body, SimTime::from_secs(at))
                .unwrap();
        };
        post(&mut alice, 1);
        browse(&mut alice, &mut bob, SimTime::from_secs(2));
        assert_eq!((bob.store.len(), bob.stats().sessions_resumed), (1, 0));

        // Second meeting: resumed, but alice's response is lost and the
        // contact ends. She has ratcheted; bob has not.
        post(&mut alice, 3);
        let now = SimTime::from_secs(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ad = Frame::Advertisement(alice.advertisement(now));
        let init = bob.handle_frame(alice.peer_id(), ad, now, &mut rng);
        assert!(is_resumed_form(&init[0].1));
        let _lost = alice.handle_frame(bob.peer_id(), init[0].1.clone(), now, &mut rng);
        alice.on_peer_lost(bob.peer_id());
        bob.on_peer_lost(alice.peer_id());
        let walk = Provenance::build(&GlobalTimeline::merge([&journal.snapshot()]));
        assert_eq!(walk.violations, []);
        assert_eq!(walk.open_sessions.len(), 0);

        // Third meeting: Miss → full, all in one session.
        let before = journal.snapshot().entries().count();
        browse(&mut alice, &mut bob, SimTime::from_secs(5));
        assert_eq!(bob.store.len(), 2, "the fallback session delivered");
        assert_eq!(
            (bob.stats().resume_misses, alice.stats().resume_misses),
            (1, 0)
        );
        let snapshot = journal.snapshot();
        let third: Vec<_> = snapshot.entries().skip(before).collect();
        let opens = third
            .iter()
            .filter(|e| matches!(e.event, ObsEvent::SessionOpen { .. }));
        assert_eq!(opens.count(), 2, "one open a side");
        assert!(third.iter().all(|e| !matches!(
            e.event,
            ObsEvent::SessionClose { reason, .. } if reason != "done"
        )));
        let walk = Provenance::build(&GlobalTimeline::merge([&journal.snapshot()]));
        assert_eq!(walk.violations, []);
        assert_eq!(walk.open_sessions.len(), 0);
        assert_eq!(
            bob.stats().security_alerts + alice.stats().security_alerts,
            0
        );

        // Fourth meeting: the fallback left fresh tickets behind.
        post(&mut alice, 6);
        browse(&mut alice, &mut bob, SimTime::from_secs(7));
        assert_eq!(bob.store.len(), 3);
        assert_eq!(
            (bob.stats().sessions_resumed, alice.stats().sessions_resumed),
            (1, 2),
            "alice also counts the resumption whose response was lost"
        );
    }

    /// An unhealable hole (both peers hold `{5}`, `{1..4}` gone
    /// fleet-wide) must not cause a handshake storm: after one fruitless
    /// browse, identical conditions suppress reconnection until the
    /// backoff expires — and a retry after the backoff still heals the
    /// hole once the peer actually has the middles.
    #[test]
    fn futile_browse_backs_off_then_retries_and_heals() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        let tail = crate::routing::testutil::bundle_from("xauthor", 5);
        alice.store.insert(tail.clone());
        bob.store.insert(tail);

        // First encounter: bob sees latest 5, holds prefix 0 → browses —
        // and gains nothing, because alice has the identical hole.
        let t = SimTime::from_secs(1000);
        browse(&mut alice, &mut bob, t);
        assert_eq!(bob.stats().sessions_initiated, 1);
        assert_eq!(bob.stats().bundles_received, 0, "fruitless by design");

        // Same conditions a minute later: suppressed.
        browse(
            &mut alice,
            &mut bob,
            t + sos_sim::SimDuration::from_secs(60),
        );
        assert_eq!(
            bob.stats().sessions_initiated,
            1,
            "futile browse must not repeat while nothing changed"
        );

        // Alice later obtains the missing middles (the plain-text ad
        // cannot show this — latest stays 5); after the backoff, bob's
        // retry heals the hole.
        for n in 1..=4 {
            alice
                .store
                .insert(crate::routing::testutil::bundle_from("xauthor", n));
        }
        browse(
            &mut alice,
            &mut bob,
            t + sos_sim::SimDuration::from_mins(31),
        );
        assert_eq!(bob.stats().sessions_initiated, 2, "backoff expired");
        assert_eq!(
            bob.store().ranges_for(&uid("xauthor")),
            vec![(1, 5)],
            "retry healed the hole"
        );
    }

    /// A payload tagged 1 or 2 (what a peer speaking a watermark
    /// dialect would send) is malformed like any other unknown tag: the
    /// session closes with a protocol error and nothing is served.
    #[test]
    fn unknown_sync_tags_close_the_session_with_a_protocol_error() {
        for payload in [vec![1u8, 0, 0], vec![2u8]] {
            let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
            let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
            let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
            alice
                .post(MessageKind::Post, vec![7], SimTime::ZERO)
                .unwrap();
            // Establish a real session bob → alice.
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let init = bob
                .adhoc
                .connect(alice.peer_id(), Browse::default(), &mut rng)
                .unwrap();
            let reply = match alice.adhoc.on_frame(bob.peer_id(), init, 0, &mut rng) {
                Ok(SessionEvent::Reply(f)) => f,
                other => panic!("{other:?}"),
            };
            assert!(matches!(
                bob.adhoc.on_frame(alice.peer_id(), reply, 0, &mut rng),
                Ok(SessionEvent::Established(_))
            ));
            alice.poll_events();

            let mut out = Vec::new();
            alice.on_sync_payload(bob.peer_id(), &payload, SimTime::ZERO, &mut out);
            assert_eq!(alice.stats().requests_served, 0, "tag {}", payload[0]);
            assert_eq!(alice.stats().bundles_sent, 0);
            assert!(
                matches!(
                    out.as_slice(),
                    [(
                        peer,
                        Frame::Disconnect {
                            reason: DisconnectReason::ProtocolError
                        }
                    )] if *peer == bob.peer_id()
                ),
                "tag {}: {out:?}",
                payload[0]
            );
            assert!(alice
                .poll_events()
                .iter()
                .any(|e| matches!(e, SosEvent::SessionClosed { peer } if *peer == bob.peer_id())));
        }
    }

    /// The browsing side of an unknown sync tag: the protocol error
    /// closes bob's session and takes his browse record with it, and
    /// the next honest browse still delivers.
    #[test]
    fn undecodable_payload_leaves_no_browse_state_behind() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        let journal = sos_obs::journal::JournalHandle::new();
        alice.attach_obs(NodeObs::new(0, journal.clone()));
        bob.attach_obs(NodeObs::new(1, journal.clone()));
        alice
            .post(MessageKind::Post, b"hello".to_vec(), SimTime::ZERO)
            .unwrap();
        let now = SimTime::from_secs(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ad = Frame::Advertisement(alice.advertisement(now));
        let init = bob.handle_frame(alice.peer_id(), ad, now, &mut rng);
        let resp = alice.handle_frame(bob.peer_id(), init[0].1.clone(), now, &mut rng);
        bob.handle_frame(alice.peer_id(), resp[0].1.clone(), now, &mut rng);
        assert!(bob.adhoc.browse_mut(alice.peer_id()).is_some());

        let junk = alice.adhoc.send_payload(bob.peer_id(), &[1, 0, 0]).unwrap();
        let out = bob.handle_frame(alice.peer_id(), junk, now, &mut rng);
        assert!(matches!(
            out.as_slice(),
            [(
                _,
                Frame::Disconnect {
                    reason: DisconnectReason::ProtocolError
                }
            )]
        ));
        assert!(journal.snapshot().to_jsonl().contains("protocol_error"));
        assert!(bob.adhoc.browse_mut(alice.peer_id()).is_none());
        assert_eq!(bob.session_count(), 0);
        alice.handle_frame(bob.peer_id(), out[0].1.clone(), now, &mut rng);

        browse(&mut alice, &mut bob, SimTime::from_secs(2));
        assert_eq!(bob.store.len(), 1, "the second browse delivered");
        let walk = Provenance::build(&GlobalTimeline::merge([&journal.snapshot()]));
        assert_eq!(walk.violations, []);
        assert_eq!(walk.open_sessions.len(), 0);
    }

    /// A chunked (multi-frame) request is answered with one Done per
    /// chunk; the browser must keep the session open until the last one
    /// or every chunk after the first is lost.
    #[test]
    fn chunked_request_waits_for_all_dones() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        // Establish a real session bob → alice, in which bob sent a
        // two-chunk request (simulated): two Dones expected.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let browse = Browse {
            dones: 2,
            ..Browse::default()
        };
        let init = bob
            .adhoc
            .connect(alice.peer_id(), browse, &mut rng)
            .unwrap();
        let reply = match alice.adhoc.on_frame(bob.peer_id(), init, 0, &mut rng) {
            Ok(SessionEvent::Reply(f)) => f,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            bob.adhoc.on_frame(alice.peer_id(), reply, 0, &mut rng),
            Ok(SessionEvent::Established(_))
        ));
        let done = SyncMsg::Done.encode().unwrap();
        let mut out = Vec::new();
        bob.on_sync_payload(alice.peer_id(), &done, SimTime::ZERO, &mut out);
        assert!(out.is_empty(), "first Done must not tear the session down");
        assert_eq!(bob.session_count(), 1, "chunk 2's bundles can still land");
        bob.on_sync_payload(alice.peer_id(), &done, SimTime::ZERO, &mut out);
        assert_eq!(bob.session_count(), 0, "last Done closes");
        assert_eq!(out.len(), 1, "goodbye sent once");
        let closed = bob
            .poll_events()
            .iter()
            .filter(|e| matches!(e, SosEvent::SessionClosed { .. }))
            .count();
        assert_eq!(closed, 1, "one SessionClosed for the whole exchange");
    }

    #[test]
    fn own_messages_never_pulled() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = node(&mut ca, 0, 10, "alice", SchemeKind::Epidemic);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        alice
            .post(MessageKind::Post, b"x".to_vec(), SimTime::ZERO)
            .unwrap();
        browse(&mut alice, &mut bob, SimTime::ZERO);
        // Bob now carries alice's message; alice must not re-pull it.
        let before = alice.stats().sessions_initiated;
        browse(&mut bob, &mut alice, SimTime::from_secs(60));
        assert_eq!(alice.stats().sessions_initiated, before);
        assert_eq!(alice.stats().bundles_duplicate, 0);
    }

    // -----------------------------------------------------------------
    // One `Bundles` frame ⇔ the same bundles in frames of one
    // -----------------------------------------------------------------

    /// Epidemic-like scheme that writes down what the middleware tells
    /// it: the summary each `should_carry` saw, and every incident.
    struct Recorder(std::sync::Arc<std::sync::Mutex<Vec<String>>>);

    impl RoutingScheme for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn interests(&mut self, ctx: &RoutingContext<'_>, ad: &Advertisement) -> Vec<UserId> {
            ad.users_with_news(ctx.summary)
        }
        fn should_carry(&mut self, ctx: &RoutingContext<'_>, bundle: &Bundle) -> bool {
            let line = format!("carry {:?} seeing {:?}", bundle.message.id, ctx.summary);
            self.0.lock().unwrap().push(line);
            *bundle.message.payload != *NOT_CARRIED
        }
        fn on_security_incident(&mut self, peer_user: &UserId, now: SimTime) {
            let line = format!("incident {} at {now:?}", peer_user.display());
            self.0.lock().unwrap().push(line);
        }
    }

    /// The one payload [`Recorder`] refuses to carry.
    const NOT_CARRIED: &[u8] = b"not carried";

    /// Everything a delivery can leave behind, rendered comparable.
    #[derive(Debug, PartialEq)]
    struct Aftermath {
        store: Vec<Bundle>,
        stats: SosStats,
        journal: String,
        events: Vec<String>,
        scheme_calls: Vec<String>,
    }

    impl Aftermath {
        fn stored(&self, like: &Bundle) -> &Bundle {
            let held = self.store.iter().find(|b| b.message.id == like.message.id);
            held.expect("bundle is stored")
        }

        /// The journaled events, in order.
        fn journaled(&self) -> Vec<ObsEvent> {
            let entries = self.journal.lines().map(sos_obs::JournalEntry::from_jsonl);
            entries
                .map(|e| e.expect("journal lines parse").event)
                .collect()
        }
    }

    /// An author outside the network: signs bundles for the frames.
    struct Author {
        sk: SigningKey,
        uid: UserId,
        cert: sos_crypto::Certificate,
    }

    impl Author {
        fn new(ca: &mut CertificateAuthority, seed: u8, name: &str, issued_at: u64) -> Author {
            let sk = SigningKey::from_seed([seed; 32]);
            let ak = AgreementKey::from_secret([seed.wrapping_add(1); 32]);
            let uid = uid(name);
            let cert = ca.issue(uid, name, sk.verifying_key(), *ak.public(), issued_at);
            Author { sk, uid, cert }
        }

        fn bundle(&self, number: u64, payload: &[u8]) -> Bundle {
            let msg = SosMessage::create(
                &self.sk,
                self.uid,
                number,
                SimTime::from_secs(number),
                MessageKind::Post,
                payload.to_vec(),
            );
            Bundle::new(msg, self.cert.clone())
        }
    }

    /// Delivers `preload` (one frame) and then `frame` — whole when
    /// `batched`, else one bundle per frame — to a fresh receiver that
    /// holds an open session with the relay, and collects the aftermath.
    fn deliver(
        ca: &mut CertificateAuthority,
        preload: &[Bundle],
        frame: &[Bundle],
        now: SimTime,
        batched: bool,
    ) -> Aftermath {
        let mut relay = node(ca, 0, 10, "relay", SchemeKind::Epidemic);
        let mut bob = node(ca, 1, 20, "bob", SchemeKind::Epidemic);
        let calls = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        bob.set_custom_scheme(Box::new(Recorder(calls.clone())));
        let journal = sos_obs::journal::JournalHandle::new();
        bob.attach_obs(NodeObs::new(1, journal.clone()));

        // Open a session and stop before the relay answers the request,
        // so the relay's user is chargeable for what "it" delivers.
        relay
            .post(MessageKind::Post, b"bait".to_vec(), SimTime::ZERO)
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ad = Frame::Advertisement(relay.advertisement(now));
        let init = bob.handle_frame(relay.peer_id(), ad, now, &mut rng);
        let resp = relay.handle_frame(bob.peer_id(), init[0].1.clone(), now, &mut rng);
        bob.handle_frame(relay.peer_id(), resp[0].1.clone(), now, &mut rng);
        assert_eq!(bob.adhoc.peer_user(relay.peer_id()), Some(uid("relay")));

        bob.receive_frame(relay.peer_id(), preload.to_vec(), now);
        if batched {
            bob.receive_frame(relay.peer_id(), frame.to_vec(), now);
        } else {
            for bundle in frame {
                bob.receive_frame(relay.peer_id(), vec![bundle.clone()], now);
            }
        }
        let scheme_calls = calls.lock().unwrap().clone();
        Aftermath {
            store: bob.store.iter().cloned().collect(),
            stats: bob.stats(),
            journal: journal.snapshot().to_jsonl(),
            events: bob.poll_events().iter().map(|e| format!("{e:?}")).collect(),
            scheme_calls,
        }
    }

    /// Asserts the two deliveries are indistinguishable and returns one.
    fn assert_frame_equals_singles(
        ca: &mut CertificateAuthority,
        preload: &[Bundle],
        frame: &[Bundle],
        now: SimTime,
    ) -> Aftermath {
        let whole = deliver(ca, preload, frame, now, true);
        let singles = deliver(ca, preload, frame, now, false);
        assert_eq!(whole, singles);
        whole
    }

    /// Twelve valid bundles of two authors: enough of each for the
    /// frame to be checked as one batch.
    fn twelve(alice: &Author, carol: &Author) -> Vec<Bundle> {
        (1..=12u64)
            .map(|n| {
                let who = if n % 3 == 0 { carol } else { alice };
                who.bundle(n, format!("post {n}").as_bytes())
            })
            .collect()
    }

    #[test]
    fn frame_of_valid_bundles_equals_singles() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let (alice, carol) = (
            Author::new(&mut ca, 2, "alice", 0),
            Author::new(&mut ca, 4, "carol", 0),
        );
        let frame = twelve(&alice, &carol);
        let got = assert_frame_equals_singles(&mut ca, &[], &frame, SimTime::from_secs(20));
        assert_eq!(got.store.len(), 12);
        assert_eq!(got.stats.bundles_received, 12);
        assert_eq!(got.stats.security_rejections, 0);
        // Each should_carry saw the store as it stood before its insert.
        assert_eq!(got.scheme_calls.len(), 12);
        assert!(got.scheme_calls[0].ends_with("seeing {}"));
    }

    #[test]
    fn frame_with_a_forgery_in_the_middle_equals_singles() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let (alice, carol) = (
            Author::new(&mut ca, 2, "alice", 0),
            Author::new(&mut ca, 4, "carol", 0),
        );
        let mut frame = twelve(&alice, &carol);
        frame[6].message.payload = b"tampered in transit".to_vec().into();
        let got = assert_frame_equals_singles(&mut ca, &[], &frame, SimTime::from_secs(20));
        assert_eq!(got.store.len(), 11, "everything but the forgery lands");
        assert_eq!(got.stats.security_rejections, 1);
        assert!(got.journal.contains("verify_failed"));
        let incidents: Vec<_> = got
            .scheme_calls
            .iter()
            .filter(|c| c.starts_with("incident relay"))
            .collect();
        assert_eq!(incidents.len(), 1, "the sender is charged, once");
        // The alert sits between the deliveries of bundles 6 and 8.
        let alert = got
            .events
            .iter()
            .position(|e| e.starts_with("SecurityAlert"))
            .unwrap();
        let received = |e: &String| e.starts_with("MessageReceived");
        assert_eq!(
            got.events[..alert].iter().filter(|e| received(e)).count(),
            6
        );
        assert_eq!(
            got.events[alert..].iter().filter(|e| received(e)).count(),
            5
        );
    }

    /// 67 bundles of one author's backlog: a frame large enough for
    /// `verify_batch` to split across cores (from 40), with the forgery
    /// in the last sub-batch — a worker's, not the caller's.
    #[test]
    fn forked_frame_with_a_late_forgery_equals_singles() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let alice = Author::new(&mut ca, 2, "alice", 0);
        let mut frame: Vec<Bundle> = (1..=67u64)
            .map(|n| alice.bundle(n, format!("backlog {n}").as_bytes()))
            .collect();
        frame[60].message.payload = b"tampered in transit".to_vec().into();
        let got = assert_frame_equals_singles(&mut ca, &[], &frame, SimTime::from_secs(100));
        assert_eq!(got.store.len(), 66, "everything but the forgery lands");
        assert_eq!(got.stats.bundles_received, 67);
        assert_eq!(got.stats.security_rejections, 1);
        assert_eq!(got.journal.matches("verify_failed").count(), 1);
        let alert = got
            .events
            .iter()
            .position(|e| e.starts_with("SecurityAlert"))
            .unwrap();
        let received = |e: &String| e.starts_with("MessageReceived");
        assert_eq!(
            got.events[..alert].iter().filter(|e| received(e)).count(),
            60
        );
    }

    #[test]
    fn frame_repeating_an_id_equals_singles() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let (alice, carol) = (
            Author::new(&mut ca, 2, "alice", 0),
            Author::new(&mut ca, 4, "carol", 0),
        );
        let mut frame = twelve(&alice, &carol);
        // The same signed bytes again, over a shorter path ...
        let mut again = frame[1].clone();
        frame[1].hops = 4;
        again.hops = 1;
        frame.insert(8, again);
        // ... and a different validly signed content under a used id.
        frame.push(alice.bundle(2, b"second thoughts"));
        let got = assert_frame_equals_singles(&mut ca, &[], &frame, SimTime::from_secs(20));
        assert_eq!(got.store.len(), 12);
        assert_eq!(got.stats.bundles_duplicate, 1);
        let merged = got.stored(&frame[1]).hops;
        assert_eq!(merged, 2, "the in-frame duplicate merged hops");
        assert!(got.journal.contains("equivocation"));
    }

    #[test]
    fn frame_diverging_from_held_bundles_equals_singles() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let (alice, carol) = (
            Author::new(&mut ca, 2, "alice", 0),
            Author::new(&mut ca, 4, "carol", 0),
        );
        let held = twelve(&alice, &carol);
        let renewed = Author {
            cert: ca.issue(
                alice.uid,
                "alice",
                alice.sk.verifying_key(),
                *AgreementKey::from_secret([3u8; 32]).public(),
                1,
            ),
            sk: alice.sk.clone(),
            uid: alice.uid,
        };
        let mut frame = vec![
            // Equivocation: validly signed other content for a held id.
            alice.bundle(1, b"a different story"),
            // Renewed certificate around the identical signed message.
            Bundle::new(held[1].message.clone(), renewed.cert.clone()),
            // Forged duplicate: a held id with tampered bytes.
            {
                let mut forged = held[3].clone();
                forged.message.payload = b"poison".to_vec().into();
                forged.hops = 0;
                forged
            },
            // A plain content-equal duplicate.
            held[4].clone(),
        ];
        // And enough fresh bundles that the frame is worth a batch.
        frame.extend((13..=20u64).map(|n| carol.bundle(n, b"fresh")));
        let got = assert_frame_equals_singles(&mut ca, &held, &frame, SimTime::from_secs(30));
        assert_eq!(got.store.len(), 20);
        assert_eq!(got.stats.bundles_duplicate, 2, "renewal + plain duplicate");
        assert_eq!(got.stats.security_rejections, 2, "equivocation + forgery");
        assert!(got.journal.contains("equivocation"));
        assert!(got.journal.contains("forged_duplicate"));
        assert_eq!(*got.stored(&held[1]).author_certificate, renewed.cert);
        assert_eq!(got.stored(&held[3]).message, held[3].message);
        let incidents = got
            .scheme_calls
            .iter()
            .filter(|c| c.starts_with("incident"));
        assert_eq!(incidents.count(), 1, "only the forgery charges the relay");
    }

    /// A held bundle arriving again, byte for byte, over a shorter path:
    /// journaled as a duplicate from the relay that delivered it (node
    /// 0), not from the receiver, and its hop count merged down to the
    /// new path's.
    #[test]
    fn a_content_equal_duplicate_names_its_relay_and_merges_hops() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let (alice, carol) = (
            Author::new(&mut ca, 2, "alice", 0),
            Author::new(&mut ca, 4, "carol", 0),
        );
        let mut held = twelve(&alice, &carol);
        held[4].hops = 6;
        let mut again = held[4].clone();
        again.hops = 1;
        let got = assert_frame_equals_singles(&mut ca, &held, &[again], SimTime::from_secs(30));
        assert_eq!(got.stats.bundles_duplicate, 1);
        assert_eq!(got.stored(&held[4]).hops, 2, "min(6 + 1, 1 + 1)");
        let duplicates: Vec<(u32, u64)> = (got.journaled().into_iter())
            .filter_map(|e| match e {
                ObsEvent::BundleDuplicate { from, seq, .. } => Some((from, seq)),
                _ => None,
            })
            .collect();
        assert_eq!(duplicates, [(0, held[4].message.id.number)]);
    }

    /// A valid bundle the scheme refuses to carry, from an author the
    /// receiver does not follow, is accepted (surfaced to the
    /// application) but not stored, and journaled as such; the carried
    /// one beside it is stored.
    #[test]
    fn an_uncarried_bundle_is_journaled_as_accepted_unstored() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let alice = Author::new(&mut ca, 2, "alice", 0);
        let frame = [alice.bundle(1, NOT_CARRIED), alice.bundle(2, b"carried")];
        let got = assert_frame_equals_singles(&mut ca, &[], &frame, SimTime::from_secs(30));
        let held: Vec<u64> = got.store.iter().map(|b| b.message.id.number).collect();
        assert_eq!(held, [2]);
        let accepts: Vec<(u64, bool)> = (got.journaled().into_iter())
            .filter_map(|e| match e {
                ObsEvent::BundleAccept { seq, stored, .. } => Some((seq, stored)),
                _ => None,
            })
            .collect();
        assert_eq!(accepts, [(1, false), (2, true)]);
        let received = got
            .events
            .iter()
            .filter(|e| e.starts_with("MessageReceived"));
        let carried: Vec<bool> = received.map(|e| e.contains("carried: true")).collect();
        assert_eq!(carried, [false, true]);
    }

    #[test]
    fn frame_with_an_expired_author_equals_singles() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let (alice, carol) = (
            Author::new(&mut ca, 2, "alice", 0),
            Author::new(&mut ca, 4, "carol", 0),
        );
        let year = std::mem::replace(&mut ca.default_validity_secs, 100);
        let lapsed = Author::new(&mut ca, 6, "dave", 0);
        ca.default_validity_secs = year;
        let mut frame = twelve(&alice, &carol);
        frame.insert(5, lapsed.bundle(1, b"from beyond"));
        frame.insert(9, lapsed.bundle(2, b"still beyond"));
        let got = assert_frame_equals_singles(&mut ca, &[], &frame, SimTime::from_secs(5_000));
        assert_eq!(got.store.len(), 12, "the valid authors are unaffected");
        assert_eq!(got.stats.security_rejections, 2);
        assert_eq!(got.journal.matches("verify_failed").count(), 2);
        let alerts: Vec<_> = got
            .events
            .iter()
            .filter(|e| e.starts_with("SecurityAlert"))
            .collect();
        assert_eq!(alerts.len(), 2);
        assert!(alerts.iter().all(|a| a.contains("originator certificate")));
    }

    /// The frame pre-pass against its definition, bundle by bundle:
    /// marked verified exactly when not content-equal to a held copy and
    /// `check_envelope` passes. Validating each certificate once per
    /// frame changes how many checks run, never what they answer —
    /// across interleaved authors, an expired certificate of an author
    /// whose current one is also in the frame, a revoked certificate, a
    /// subject mismatch, a number-0 bundle and held duplicates.
    #[test]
    fn frame_pre_pass_matches_per_bundle_envelope_checks() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let (alice, carol) = (
            Author::new(&mut ca, 2, "alice", 0),
            Author::new(&mut ca, 4, "carol", 0),
        );
        // Alice again, under an earlier certificate that has expired:
        // same subject, same key, another verdict.
        let year = std::mem::replace(&mut ca.default_validity_secs, 100);
        let lapsed = Author {
            cert: ca.issue(
                alice.uid,
                "alice",
                alice.sk.verifying_key(),
                *AgreementKey::from_secret([3u8; 32]).public(),
                0,
            ),
            sk: alice.sk.clone(),
            uid: alice.uid,
        };
        ca.default_validity_secs = year;
        let revoked = Author::new(&mut ca, 8, "erin", 0);
        let mallory = Author::new(&mut ca, 12, "mallory", 0);
        ca.revoke(revoked.cert.serial);
        let mut bob = node(&mut ca, 1, 20, "bob", SchemeKind::Epidemic);
        let crl = ca.revocation_list(10);
        assert!(bob.identity_mut().validator_mut().install_crl(crl));
        let held = [alice.bundle(1, b"held"), carol.bundle(1, b"held")];
        for bundle in &held {
            bob.store.insert(bundle.clone());
        }
        // Alice's message number 5, signed by Mallory under her own
        // certificate: valid signature, valid certificate, wrong subject.
        let mismatch = Bundle::new(
            SosMessage::create(
                &mallory.sk,
                alice.uid,
                5,
                SimTime::from_secs(5),
                MessageKind::Post,
                b"in alice's name".to_vec(),
            ),
            mallory.cert.clone(),
        );
        let mut farther = held[1].clone();
        farther.hops = 3;
        let frame = vec![
            alice.bundle(2, b"a"),
            carol.bundle(2, b"b"),
            alice.bundle(3, b"a again"),
            lapsed.bundle(6, b"expired"),
            alice.bundle(4, b"between the lapsed"),
            lapsed.bundle(7, b"expired again"),
            revoked.bundle(1, b"revoked"),
            carol.bundle(3, b"between the revoked"),
            revoked.bundle(2, b"revoked again"),
            mismatch,
            alice.bundle(0, b"number zero"),
            held[0].clone(),
            farther,
            mallory.bundle(1, b"mallory as herself"),
            carol.bundle(4, b"last"),
        ];
        let now = SimTime::from_secs(5_000);
        let per_bundle: Vec<bool> = frame
            .iter()
            .map(|b| {
                let held_equal = bob
                    .store
                    .get(&b.message.id)
                    .is_some_and(|held| b.content_matches(held));
                let validator = bob.adhoc.identity().validator();
                !held_equal
                    && b.check_envelope(|cert| validator.validate(cert, now.as_secs()))
                        .is_ok()
            })
            .collect();
        // The fixtures do what they claim: only the plain bundles of
        // alice (under her current certificate), carol and mallory pass.
        let pass = [0, 1, 2, 4, 7, 13, 14];
        let expected: Vec<bool> = (0..frame.len()).map(|i| pass.contains(&i)).collect();
        assert_eq!(per_bundle, expected);
        assert_eq!(bob.verify_frame(&frame, now), per_bundle);
        // Again with every passing certificate now cached, and in the
        // reverse order, where the failures come first.
        assert_eq!(bob.verify_frame(&frame, now), per_bundle);
        let reversed: Vec<Bundle> = frame.iter().rev().cloned().collect();
        let flipped: Vec<bool> = per_bundle.iter().rev().copied().collect();
        assert_eq!(bob.verify_frame(&reversed, now), flipped);
    }
}
