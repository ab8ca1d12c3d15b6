//! The ad hoc manager (paper §III-D): owns the device identity and the
//! per-peer secure sessions, wrapping the Multipeer-Connectivity-style
//! substrate.
//!
//! "The ad hoc manager is responsible for viewing discovered peers,
//! establishing D2D connections, encrypting connections, encrypting data
//! from end-to-end, generating keys, validating certificates, as well as
//! signing and verifying data sent and received." It is one of the blue
//! layers of Fig. 1: applications and routing schemes cannot reach the
//! key material it holds.
//!
//! A session slot also carries what the message manager still owes the
//! session it initiated (a `Browse`), so that record is dropped with
//! the slot on every path that ends the session.

use sos_crypto::bounded::FifoMap;
use sos_crypto::{DeviceIdentity, UserId};
use sos_net::frame::DisconnectReason;
use sos_net::session::{SessionEndpoint, SessionEvent, SessionState};
use sos_net::{Frame, HandshakeResponse, NetError, PeerId, Ticket};
use std::collections::{BTreeMap, HashMap};

/// Peers whose resumption ticket a device keeps (about 330 bytes each);
/// past it the pair met longest ago pays one full handshake again.
const TICKET_CAP: usize = 256;

/// The message manager's record of a browse: a session this node
/// initiated after an advertisement. Responder slots have none.
#[derive(Debug, Default)]
pub(crate) struct Browse {
    /// Authors picked at advertisement time, until the request goes out.
    pub(crate) interests: Vec<UserId>,
    /// The peer's advertised summary when we browsed.
    pub(crate) ad_summary: BTreeMap<UserId, u64>,
    /// `Done` frames still expected: one per Request frame sent (a
    /// chunked request gets one Done per chunk from the server).
    pub(crate) dones: usize,
    /// New bundles gained so far.
    pub(crate) gain: u64,
}

/// Per-peer session bookkeeping.
#[derive(Debug)]
struct SessionCtx {
    endpoint: SessionEndpoint,
    peer_user: Option<UserId>,
    browse: Option<Browse>,
}

/// The ad hoc manager: identity, one session slot per peer, and the
/// resumption ticket of every peer it has authenticated before.
///
/// Sessions are serial per peer: while one is open, new invitations from
/// the same peer are refused and retried at the next advertisement.
#[derive(Debug)]
pub struct AdHocManager {
    peer_id: PeerId,
    identity: DeviceIdentity,
    sessions: HashMap<PeerId, SessionCtx>,
    /// What the last handshake with each peer left behind
    /// (`sos_net::handshake`): a session with a ticket holder opens
    /// without certificates, signatures or Diffie–Hellman.
    tickets: FifoMap<PeerId, Ticket>,
}

impl AdHocManager {
    /// Creates the manager for a device.
    pub fn new(peer_id: PeerId, identity: DeviceIdentity) -> AdHocManager {
        AdHocManager {
            peer_id,
            identity,
            sessions: HashMap::new(),
            tickets: FifoMap::new(TICKET_CAP),
        }
    }

    /// This device's peer id.
    pub fn peer_id(&self) -> PeerId {
        self.peer_id
    }

    /// The device identity (certificate, keys, validator).
    pub fn identity(&self) -> &DeviceIdentity {
        &self.identity
    }

    /// Mutable identity access (CRL installation when online).
    pub fn identity_mut(&mut self) -> &mut DeviceIdentity {
        &mut self.identity
    }

    /// True if a session slot exists for `peer` (any state).
    pub fn has_session(&self, peer: PeerId) -> bool {
        self.sessions.contains_key(&peer)
    }

    /// The authenticated user behind `peer`, once known.
    pub fn peer_user(&self, peer: PeerId) -> Option<UserId> {
        self.sessions.get(&peer).and_then(|s| s.peer_user)
    }

    /// Number of open session slots.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The browse record of our session with `peer`, if we initiated it.
    pub(crate) fn browse_mut(&mut self, peer: PeerId) -> Option<&mut Browse> {
        self.sessions.get_mut(&peer)?.browse.as_mut()
    }

    /// Initiates a secure session with `peer` (Fig. 2b connection
    /// request) that carries `browse`, returning the handshake frame to
    /// transmit.
    ///
    /// # Errors
    ///
    /// [`NetError::UnexpectedHandshake`] if a session already exists.
    pub(crate) fn connect<R: rand::RngCore>(
        &mut self,
        peer: PeerId,
        browse: Browse,
        rng: &mut R,
    ) -> Result<Frame, NetError> {
        if self.sessions.contains_key(&peer) {
            return Err(NetError::UnexpectedHandshake);
        }
        let mut endpoint = SessionEndpoint::new();
        let frame = endpoint.connect(&self.identity, self.tickets.get(&peer), rng)?;
        self.sessions.insert(
            peer,
            SessionCtx {
                endpoint,
                peer_user: None,
                browse: Some(browse),
            },
        );
        Ok(frame)
    }

    /// Feeds a session-layer frame from `peer` through its session.
    /// Creates a responder session on an incoming `HandshakeInit`.
    ///
    /// An error that tears the session down also removes its slot, so a
    /// later encounter can retry from scratch. An error the endpoint
    /// merely refuses (a handshake frame in the wrong state, data before
    /// the keys exist) leaves the slot as it was: such frames are
    /// unauthenticated and must not end a live session.
    ///
    /// # Errors
    ///
    /// Propagates certificate, signature, ordering and state errors.
    pub fn on_frame<R: rand::RngCore>(
        &mut self,
        peer: PeerId,
        frame: Frame,
        now_secs: u64,
        rng: &mut R,
    ) -> Result<SessionEvent, NetError> {
        if matches!(frame, Frame::HandshakeInit(_)) {
            if self.sessions.contains_key(&peer) {
                // Session collision: refuse; peer retries after ours ends.
                return Err(NetError::UnexpectedHandshake);
            }
            self.sessions.insert(
                peer,
                SessionCtx {
                    endpoint: SessionEndpoint::new(),
                    peer_user: None,
                    browse: None,
                },
            );
        }
        let ctx = self.sessions.get_mut(&peer).ok_or(NetError::NotConnected)?;
        let held = self.tickets.get(&peer);
        let result = ctx
            .endpoint
            .on_frame(&self.identity, frame, held, now_secs, rng);
        if let Some(ticket) = ctx.endpoint.take_ticket() {
            ctx.peer_user = Some(ticket.certificate().subject);
            self.tickets.insert(peer, ticket);
        }
        match &result {
            // The peer missed the ticket we offered: it is stale.
            Ok(SessionEvent::Reply(Frame::HandshakeInit(_))) => {
                self.tickets.remove(&peer);
            }
            // We missed the peer's: no session came of it yet.
            Ok(SessionEvent::Reply(Frame::HandshakeResponse(HandshakeResponse::Miss)))
            | Ok(SessionEvent::Closed(_)) => {
                self.sessions.remove(&peer);
            }
            Err(_) if ctx.endpoint.state() == SessionState::Disconnected => {
                self.sessions.remove(&peer);
            }
            _ => {}
        }
        result
    }

    /// Encrypts `payload` for `peer` over the established session.
    ///
    /// # Errors
    ///
    /// [`NetError::NotConnected`] without an established session.
    pub fn send_payload(&mut self, peer: PeerId, payload: &[u8]) -> Result<Frame, NetError> {
        let ctx = self.sessions.get_mut(&peer).ok_or(NetError::NotConnected)?;
        ctx.endpoint.send_payload(payload)
    }

    /// Closes the session with `peer`, returning the notification frame
    /// if a session existed.
    pub fn close(&mut self, peer: PeerId, reason: DisconnectReason) -> Option<Frame> {
        self.sessions
            .remove(&peer)
            .map(|mut ctx| ctx.endpoint.close(reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_crypto::ca::{CertificateAuthority, Validator};
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::x25519::AgreementKey;
    use sos_net::HandshakeInit;

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

    fn managers() -> (AdHocManager, AdHocManager) {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        (
            AdHocManager::new(PeerId(0), identity(&mut ca, 10, "alice")),
            AdHocManager::new(PeerId(1), identity(&mut ca, 20, "bob")),
        )
    }

    #[test]
    fn connect_and_exchange() {
        let (mut alice, mut bob) = managers();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);

        let init = bob.connect(PeerId(0), Browse::default(), &mut rng).unwrap();
        let reply = match alice.on_frame(PeerId(1), init, 0, &mut rng).unwrap() {
            SessionEvent::Reply(f) => f,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            bob.on_frame(PeerId(0), reply, 0, &mut rng).unwrap(),
            SessionEvent::Established(_)
        ));
        // Bob's side is shown connected by the payload sent below.
        assert!(alice.send_payload(PeerId(1), b"").is_ok());
        assert_eq!(
            alice.peer_user(PeerId(1)),
            Some(UserId::from_str_padded("bob"))
        );

        let data = bob.send_payload(PeerId(0), b"hi").unwrap();
        match alice.on_frame(PeerId(1), data, 0, &mut rng).unwrap() {
            SessionEvent::Payload(p) => assert_eq!(p, b"hi"),
            other => panic!("{other:?}"),
        }
    }

    /// Runs `from`'s connection request to `to` until it is established,
    /// returning the handshake frames that crossed, in order.
    fn open(from: &mut AdHocManager, to: &mut AdHocManager, rng: &mut StdRng) -> Vec<Frame> {
        let mut frame = from.connect(to.peer_id(), Browse::default(), rng).unwrap();
        let mut crossed = Vec::new();
        loop {
            crossed.push(frame.clone());
            let (rx, tx) = if crossed.len() % 2 == 1 {
                (&mut *to, from.peer_id())
            } else {
                (&mut *from, to.peer_id())
            };
            match rx.on_frame(tx, frame, 0, rng).unwrap() {
                SessionEvent::Reply(next) => frame = next,
                SessionEvent::Established(_) => return crossed,
                other => panic!("{other:?}"),
            }
        }
    }

    fn hang_up(a: &mut AdHocManager, b: &mut AdHocManager) {
        a.close(b.peer_id(), DisconnectReason::Done);
        b.close(a.peer_id(), DisconnectReason::Done);
    }

    fn is_resume_init(frame: &Frame) -> bool {
        matches!(frame, Frame::HandshakeInit(HandshakeInit::Resume { .. }))
    }

    #[test]
    fn second_meeting_resumes_and_authenticates_the_same_user() {
        let (mut alice, mut bob) = managers();
        let mut rng = StdRng::seed_from_u64(6);
        let first = open(&mut bob, &mut alice, &mut rng);
        assert!(!is_resume_init(&first[0]));
        let users = (alice.peer_user(PeerId(1)), bob.peer_user(PeerId(0)));
        hang_up(&mut alice, &mut bob);

        // Either side may initiate the resumed session.
        let second = open(&mut alice, &mut bob, &mut rng);
        assert_eq!(second.len(), 2);
        assert!(is_resume_init(&second[0]));
        assert_eq!(
            (alice.peer_user(PeerId(1)), bob.peer_user(PeerId(0))),
            users
        );
        assert_eq!(users.0, Some(UserId::from_str_padded("bob")));
        let data = alice.send_payload(PeerId(1), b"again").unwrap();
        match bob.on_frame(PeerId(0), data, 0, &mut rng).unwrap() {
            SessionEvent::Payload(p) => assert_eq!(p, b"again"),
            other => panic!("{other:?}"),
        }
    }

    /// A resumed response lost on the air leaves the responder one
    /// ratchet step ahead. The next meeting is a `Miss`, answered inside
    /// the same session slot by a full handshake, and the one after
    /// resumes again.
    #[test]
    fn lost_resume_response_heals_by_miss_then_full_then_resumes_again() {
        let (mut alice, mut bob) = managers();
        let mut rng = StdRng::seed_from_u64(7);
        open(&mut bob, &mut alice, &mut rng);
        hang_up(&mut alice, &mut bob);

        let init = bob.connect(PeerId(0), Browse::default(), &mut rng).unwrap();
        assert!(is_resume_init(&init));
        let _lost = alice.on_frame(PeerId(1), init, 0, &mut rng).unwrap();
        hang_up(&mut alice, &mut bob);

        let healed = open(&mut bob, &mut alice, &mut rng);
        assert!(is_resume_init(&healed[0]));
        assert_eq!(healed[1], Frame::HandshakeResponse(HandshakeResponse::Miss));
        assert!(matches!(
            healed[2],
            Frame::HandshakeInit(HandshakeInit::Full { .. })
        ));
        assert_eq!(healed.len(), 4);
        assert!(alice.send_payload(PeerId(1), b"").is_ok());
        assert!(bob.send_payload(PeerId(0), b"").is_ok());
        hang_up(&mut alice, &mut bob);

        let resumed = open(&mut alice, &mut bob, &mut rng);
        assert!(is_resume_init(&resumed[0]) && resumed.len() == 2);
    }

    /// A `Miss` is not a session: the responder keeps no slot for it and
    /// its own ticket is not touched by an offer it cannot match.
    #[test]
    fn missed_offer_leaves_no_slot_and_no_trace_on_the_responder() {
        let (mut alice, mut bob) = managers();
        let mut rng = StdRng::seed_from_u64(8);
        open(&mut bob, &mut alice, &mut rng);
        hang_up(&mut alice, &mut bob);
        let stale = bob.connect(PeerId(0), Browse::default(), &mut rng).unwrap();
        hang_up(&mut alice, &mut bob);
        open(&mut bob, &mut alice, &mut rng); // both ratchet past `stale`
        hang_up(&mut alice, &mut bob);

        let held = *alice.tickets.get(&PeerId(1)).unwrap().id();
        match alice.on_frame(PeerId(1), stale, 0, &mut rng).unwrap() {
            SessionEvent::Reply(Frame::HandshakeResponse(HandshakeResponse::Miss)) => {}
            other => panic!("{other:?}"),
        }
        assert!(!alice.has_session(PeerId(1)));
        assert_eq!(*alice.tickets.get(&PeerId(1)).unwrap().id(), held);
        // The live generation still resumes afterwards.
        assert!(is_resume_init(&open(&mut bob, &mut alice, &mut rng)[0]));
    }

    /// A forged proof under a live ticket id fails the session but not
    /// the ticket: the genuine holder still resumes next time.
    #[test]
    fn forged_proof_on_a_live_ticket_fails_the_session_and_keeps_the_ticket() {
        let (mut alice, mut bob) = managers();
        let mut rng = StdRng::seed_from_u64(9);
        open(&mut bob, &mut alice, &mut rng);
        hang_up(&mut alice, &mut bob);

        let mut forged = bob.connect(PeerId(0), Browse::default(), &mut rng).unwrap();
        if let Frame::HandshakeInit(HandshakeInit::Resume { mac, .. }) = &mut forged {
            mac[0] ^= 1;
        }
        let err = alice.on_frame(PeerId(1), forged, 0, &mut rng).unwrap_err();
        assert_eq!(err, NetError::BadResumeProof);
        assert!(!alice.has_session(PeerId(1)));
        hang_up(&mut alice, &mut bob);

        let init = bob.connect(PeerId(0), Browse::default(), &mut rng).unwrap();
        let mut reply = match alice.on_frame(PeerId(1), init, 0, &mut rng).unwrap() {
            SessionEvent::Reply(f) => f,
            other => panic!("{other:?}"),
        };
        if let Frame::HandshakeResponse(HandshakeResponse::Resume { confirm, .. }) = &mut reply {
            confirm[0] ^= 1;
        }
        let err = bob.on_frame(PeerId(0), reply, 0, &mut rng).unwrap_err();
        assert_eq!(err, NetError::BadResumeProof);
        assert!(!bob.has_session(PeerId(0)));
        assert!(bob.tickets.get(&PeerId(0)).is_some());
    }

    #[test]
    fn ticket_table_evicts_first_in_first_out_at_the_cap() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut hub = AdHocManager::new(PeerId(0), identity(&mut ca, 1, "hub"));
        let mut spoke = AdHocManager::new(PeerId(1), identity(&mut ca, 2, "spoke"));
        let mut rng = StdRng::seed_from_u64(10);
        // One real ticket, then the same peer under TICKET_CAP other
        // ids: the table is keyed by peer, not by who the peer is.
        for id in 1..=u32::try_from(TICKET_CAP).unwrap() + 1 {
            spoke.peer_id = PeerId(id);
            spoke.tickets.remove(&PeerId(0));
            assert!(!is_resume_init(&open(&mut spoke, &mut hub, &mut rng)[0]));
            hub.close(PeerId(id), DisconnectReason::Done);
            spoke.close(PeerId(0), DisconnectReason::Done);
            // A re-met peer keeps its age: 2 is refreshed, never moved.
            if id == 2 {
                assert!(is_resume_init(&open(&mut spoke, &mut hub, &mut rng)[0]));
                hub.close(PeerId(id), DisconnectReason::Done);
                spoke.close(PeerId(0), DisconnectReason::Done);
            }
        }
        assert!(hub.tickets.get(&PeerId(1)).is_none(), "the oldest went");
        assert!(hub.tickets.get(&PeerId(2)).is_some());
        assert!(hub
            .tickets
            .get(&PeerId(u32::try_from(TICKET_CAP).unwrap() + 1))
            .is_some());
    }

    /// Handshake frames are unauthenticated; one that arrives in the
    /// wrong state must not be able to end an established session.
    #[test]
    fn unsolicited_handshake_frames_leave_an_established_session_alone() {
        let (mut alice, mut bob) = managers();
        let mut rng = StdRng::seed_from_u64(11);
        let crossed = open(&mut bob, &mut alice, &mut rng);
        let stray_init = AdHocManager::new(PeerId(1), bob.identity.clone())
            .connect(PeerId(0), Browse::default(), &mut rng)
            .unwrap();
        for (to_bob, stray) in [
            (true, crossed[1].clone()), // duplicate response
            (true, Frame::HandshakeResponse(HandshakeResponse::Miss)),
            (false, stray_init), // init on a live slot
        ] {
            let (rx, tx) = if to_bob {
                (&mut bob, PeerId(0))
            } else {
                (&mut alice, PeerId(1))
            };
            let err = rx.on_frame(tx, stray, 0, &mut rng).unwrap_err();
            assert_eq!(err, NetError::UnexpectedHandshake);
            assert!(rx.has_session(tx));
        }
        // Both sessions are still established: payloads cross both ways.
        let data = bob.send_payload(PeerId(0), b"still here").unwrap();
        match alice.on_frame(PeerId(1), data, 0, &mut rng).unwrap() {
            SessionEvent::Payload(p) => assert_eq!(p, b"still here"),
            other => panic!("{other:?}"),
        }
        let data = alice.send_payload(PeerId(1), b"so am I").unwrap();
        match bob.on_frame(PeerId(0), data, 0, &mut rng).unwrap() {
            SessionEvent::Payload(p) => assert_eq!(p, b"so am I"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn collision_refused() {
        let (mut alice, mut bob) = managers();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let _ = alice
            .connect(PeerId(1), Browse::default(), &mut rng)
            .unwrap();
        // Bob's init arrives while Alice already initiated to him.
        let bob_init = bob.connect(PeerId(0), Browse::default(), &mut rng).unwrap();
        assert_eq!(
            alice
                .on_frame(PeerId(1), bob_init, 0, &mut rng)
                .unwrap_err(),
            NetError::UnexpectedHandshake
        );
        // Alice's original (initiator) session survives the refusal.
        assert!(alice.has_session(PeerId(1)));
    }

    #[test]
    fn error_clears_session_for_retry() {
        let (mut alice, _) = managers();
        let mut evil_ca = CertificateAuthority::new("Root", [9u8; 32], 0, u64::MAX);
        let mut mallory = AdHocManager::new(PeerId(2), identity(&mut evil_ca, 30, "mallory"));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let init = mallory
            .connect(PeerId(0), Browse::default(), &mut rng)
            .unwrap();
        assert!(alice.on_frame(PeerId(2), init, 0, &mut rng).is_err());
        assert!(!alice.has_session(PeerId(2)), "failed session removed");
    }

    #[test]
    fn close_emits_goodbye() {
        let (mut alice, mut bob) = managers();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let init = bob.connect(PeerId(0), Browse::default(), &mut rng).unwrap();
        let _ = alice.on_frame(PeerId(1), init, 0, &mut rng).unwrap();
        let bye = alice.close(PeerId(1), DisconnectReason::Done).unwrap();
        assert!(matches!(bye, Frame::Disconnect { .. }));
        assert!(alice.close(PeerId(1), DisconnectReason::Done).is_none());
    }
}
