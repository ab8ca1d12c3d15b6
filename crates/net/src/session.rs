//! The per-peer session state machine the ad hoc manager drives.
//!
//! Wraps the handshake and session crypto behind a single object with a
//! frame-in / frame-out interface, so the middleware's ad hoc manager
//! (and tests) never touch key material directly — mirroring the paper's
//! rule that the blue layers of Fig. 1 are closed to modification.

use crate::error::NetError;
use crate::frame::{DisconnectReason, Frame};
use crate::handshake::{HandshakeResponse, Initiator, Responder, SessionCrypto, Ticket};
use sos_crypto::cert::Certificate;
use sos_crypto::DeviceIdentity;

/// Connection lifecycle states, mirroring `MCSessionState` plus the
/// explicit handshake we layer on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// No connection attempt yet.
    Idle,
    /// We sent a `HandshakeInit` and await the response.
    Connecting,
    /// Secure session established.
    Connected,
    /// Torn down (peer out of range, security failure, or done).
    Disconnected,
}

/// What a processed frame means for the caller.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Reply(Frame) dominates by design
pub enum SessionEvent {
    /// Send this reply frame to the peer.
    Reply(Frame),
    /// The secure session is now established with the given peer
    /// certificate; any queued transfers may start.
    Established(Box<Certificate>),
    /// A decrypted application payload arrived.
    Payload(Vec<u8>),
    /// The session ended.
    Closed(DisconnectReason),
    /// Nothing to do.
    None,
}

/// One endpoint of a (possibly in-progress) secure session.
#[derive(Debug)]
pub struct SessionEndpoint {
    state: SessionState,
    initiator: Option<Initiator>,
    crypto: Option<SessionCrypto>,
    /// What the handshake left for the pair's next meeting, until the
    /// caller collects it ([`SessionEndpoint::take_ticket`]).
    ticket: Option<Ticket>,
}

impl SessionEndpoint {
    /// Creates an idle endpoint (responder side until `connect` is
    /// called).
    pub fn new() -> SessionEndpoint {
        SessionEndpoint {
            state: SessionState::Idle,
            initiator: None,
            crypto: None,
            ticket: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Hands over the ticket the handshake that just connected this
    /// endpoint produced (once): the authenticated peer certificate and
    /// the secret the pair's next session can resume from.
    pub fn take_ticket(&mut self) -> Option<Ticket> {
        self.ticket.take()
    }

    /// Starts a handshake as initiator, returning the frame to send —
    /// resumed from `ticket`, the caller's ticket for this peer, when it
    /// has one.
    ///
    /// # Errors
    ///
    /// [`NetError::UnexpectedHandshake`] if not idle.
    pub fn connect<R: rand::RngCore>(
        &mut self,
        identity: &DeviceIdentity,
        ticket: Option<&Ticket>,
        rng: &mut R,
    ) -> Result<Frame, NetError> {
        if self.state != SessionState::Idle {
            return Err(NetError::UnexpectedHandshake);
        }
        let _span = sos_obs::profile::span("net/handshake");
        let (init, msg) = Initiator::start(identity, ticket, rng);
        self.initiator = Some(init);
        self.state = SessionState::Connecting;
        Ok(Frame::HandshakeInit(msg))
    }

    /// Feeds an incoming frame through the state machine; `ticket` is
    /// the caller's ticket for this peer, consulted when the frame is a
    /// resumed `HandshakeInit`.
    ///
    /// A handshake frame in the wrong state is refused without touching
    /// the session: it is unauthenticated, so it must not be able to end
    /// an established one.
    ///
    /// On security failures the session transitions to `Disconnected`
    /// and the error is returned so the caller can log/count it; the
    /// caller should send a `Disconnect` frame if it wants to notify the
    /// peer.
    ///
    /// # Errors
    ///
    /// Certificate/signature/crypto errors and protocol violations.
    pub fn on_frame<R: rand::RngCore>(
        &mut self,
        identity: &DeviceIdentity,
        frame: Frame,
        ticket: Option<&Ticket>,
        now_secs: u64,
        rng: &mut R,
    ) -> Result<SessionEvent, NetError> {
        match frame {
            Frame::HandshakeInit(init) => {
                if self.state != SessionState::Idle {
                    return Err(NetError::UnexpectedHandshake);
                }
                let _span = sos_obs::profile::span("net/handshake");
                match Responder::respond(identity, &init, ticket, now_secs, rng) {
                    Ok((response, accepted)) => {
                        // A `Miss` leaves the endpoint idle: the peer
                        // starts over with a full init.
                        if let Some((crypto, ticket)) = accepted {
                            self.crypto = Some(crypto);
                            self.ticket = Some(ticket);
                            self.state = SessionState::Connected;
                        }
                        Ok(SessionEvent::Reply(Frame::HandshakeResponse(response)))
                    }
                    Err(e) => {
                        self.state = SessionState::Disconnected;
                        Err(e)
                    }
                }
            }
            Frame::HandshakeResponse(resp) => {
                if self.state != SessionState::Connecting {
                    return Err(NetError::UnexpectedHandshake);
                }
                let _span = sos_obs::profile::span("net/handshake");
                // Connecting state implies a stored initiator; if the
                // invariant is ever broken, fail the handshake instead
                // of taking the process down.
                let Some(init) = self.initiator.take() else {
                    self.state = SessionState::Disconnected;
                    return Err(NetError::UnexpectedHandshake);
                };
                if matches!(resp, HandshakeResponse::Miss) && init.resuming() {
                    // Our ticket is unknown or stale over there: same
                    // session, full handshake.
                    let (init, msg) = Initiator::start(identity, None, rng);
                    self.initiator = Some(init);
                    return Ok(SessionEvent::Reply(Frame::HandshakeInit(msg)));
                }
                match init.finish(identity, &resp, now_secs) {
                    Ok((crypto, ticket)) => {
                        let peer_cert = Box::new(ticket.certificate().clone());
                        self.crypto = Some(crypto);
                        self.ticket = Some(ticket);
                        self.state = SessionState::Connected;
                        Ok(SessionEvent::Established(peer_cert))
                    }
                    Err(e) => {
                        self.state = SessionState::Disconnected;
                        Err(e)
                    }
                }
            }
            Frame::Data { seq, ciphertext } => {
                let _span = sos_obs::profile::span("net/payload_open");
                let crypto = self.crypto.as_mut().ok_or(NetError::NotConnected)?;
                match crypto.open(seq, b"", &ciphertext) {
                    Ok(payload) => Ok(SessionEvent::Payload(payload)),
                    Err(e) => {
                        // Sequence gap or tag failure: the link dropped or
                        // an attacker injected; tear down (the message
                        // manager will re-sync on the next encounter).
                        self.state = SessionState::Disconnected;
                        Err(e)
                    }
                }
            }
            Frame::Disconnect { reason } => {
                self.state = SessionState::Disconnected;
                Ok(SessionEvent::Closed(reason))
            }
            Frame::Advertisement(_) | Frame::Invite { .. } => {
                // Discovery traffic is not session traffic.
                Ok(SessionEvent::None)
            }
        }
    }

    /// Encrypts an application payload for the peer.
    ///
    /// # Errors
    ///
    /// [`NetError::NotConnected`] before the handshake completes.
    pub fn send_payload(&mut self, payload: &[u8]) -> Result<Frame, NetError> {
        if self.state != SessionState::Connected {
            return Err(NetError::NotConnected);
        }
        let _span = sos_obs::profile::span("net/payload_seal");
        let crypto = self.crypto.as_mut().ok_or(NetError::NotConnected)?;
        let (seq, ciphertext) = crypto.seal(b"", payload);
        Ok(Frame::Data { seq, ciphertext })
    }

    /// Marks the session closed locally and produces the notification
    /// frame for the peer.
    pub fn close(&mut self, reason: DisconnectReason) -> Frame {
        self.state = SessionState::Disconnected;
        Frame::Disconnect { reason }
    }
}

impl Default for SessionEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sos_crypto::ca::{CertificateAuthority, Validator};
    use sos_crypto::cert::UserId;
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::x25519::AgreementKey;

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

    fn pair() -> (DeviceIdentity, DeviceIdentity) {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        (identity(&mut ca, 10, "alice"), identity(&mut ca, 20, "bob"))
    }

    #[test]
    fn end_to_end_session() {
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut bob_ep = SessionEndpoint::new();
        let mut alice_ep = SessionEndpoint::new();

        // Bob connects to Alice.
        let init = bob_ep.connect(&bob, None, &mut rng).unwrap();
        assert_eq!(bob_ep.state(), SessionState::Connecting);

        let reply = match alice_ep.on_frame(&alice, init, None, 0, &mut rng).unwrap() {
            SessionEvent::Reply(f) => f,
            other => panic!("expected reply, got {other:?}"),
        };
        assert_eq!(alice_ep.state(), SessionState::Connected);

        match bob_ep.on_frame(&bob, reply, None, 0, &mut rng).unwrap() {
            SessionEvent::Established(cert) => {
                assert_eq!(cert.subject, *alice.user_id());
            }
            other => panic!("expected established, got {other:?}"),
        }
        assert_eq!(bob_ep.state(), SessionState::Connected);

        // Encrypted payload both ways.
        let data = bob_ep.send_payload(b"ping").unwrap();
        match alice_ep.on_frame(&alice, data, None, 0, &mut rng).unwrap() {
            SessionEvent::Payload(p) => assert_eq!(p, b"ping"),
            other => panic!("{other:?}"),
        }
        let data = alice_ep.send_payload(b"pong").unwrap();
        match bob_ep.on_frame(&bob, data, None, 0, &mut rng).unwrap() {
            SessionEvent::Payload(p) => assert_eq!(p, b"pong"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cannot_send_before_connected() {
        let mut ep = SessionEndpoint::new();
        assert_eq!(ep.send_payload(b"x").unwrap_err(), NetError::NotConnected);
    }

    #[test]
    fn disconnect_closes_both_ends() {
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut bob_ep = SessionEndpoint::new();
        let mut alice_ep = SessionEndpoint::new();
        let init = bob_ep.connect(&bob, None, &mut rng).unwrap();
        let reply = match alice_ep.on_frame(&alice, init, None, 0, &mut rng).unwrap() {
            SessionEvent::Reply(f) => f,
            _ => unreachable!(),
        };
        bob_ep.on_frame(&bob, reply, None, 0, &mut rng).unwrap();

        let bye = bob_ep.close(DisconnectReason::Done);
        match alice_ep.on_frame(&alice, bye, None, 0, &mut rng).unwrap() {
            SessionEvent::Closed(DisconnectReason::Done) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(alice_ep.state(), SessionState::Disconnected);
        assert_eq!(bob_ep.state(), SessionState::Disconnected);
    }

    #[test]
    fn lost_frame_tears_session_down() {
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut bob_ep = SessionEndpoint::new();
        let mut alice_ep = SessionEndpoint::new();
        let init = bob_ep.connect(&bob, None, &mut rng).unwrap();
        let reply = match alice_ep.on_frame(&alice, init, None, 0, &mut rng).unwrap() {
            SessionEvent::Reply(f) => f,
            _ => unreachable!(),
        };
        bob_ep.on_frame(&bob, reply, None, 0, &mut rng).unwrap();

        let _lost = bob_ep.send_payload(b"frame0").unwrap();
        let second = bob_ep.send_payload(b"frame1").unwrap();
        let err = alice_ep
            .on_frame(&alice, second, None, 0, &mut rng)
            .unwrap_err();
        assert!(matches!(err, NetError::OutOfOrder { .. }));
        assert_eq!(alice_ep.state(), SessionState::Disconnected);
    }

    #[test]
    fn impostor_rejected_and_session_failed() {
        let (alice, _) = pair();
        let mut evil_ca = CertificateAuthority::new("Root", [9u8; 32], 0, u64::MAX);
        let mallory = identity(&mut evil_ca, 7, "bob");
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut mallory_ep = SessionEndpoint::new();
        let mut alice_ep = SessionEndpoint::new();
        let init = mallory_ep.connect(&mallory, None, &mut rng).unwrap();
        let err = alice_ep
            .on_frame(&alice, init, None, 0, &mut rng)
            .unwrap_err();
        assert!(matches!(err, NetError::Certificate(_)));
        assert_eq!(alice_ep.state(), SessionState::Disconnected);
    }

    /// Every teardown path ends in `Disconnected` and classifies as its
    /// own cause: local close, remote disconnect, security failure and
    /// protocol error.
    #[test]
    fn each_teardown_cause_is_classified() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);

        // Local close: done.
        let (alice, bob) = pair();
        let mut ep = SessionEndpoint::new();
        let bye = ep.close(DisconnectReason::Done);
        assert_eq!(
            bye,
            Frame::Disconnect {
                reason: DisconnectReason::Done
            }
        );
        assert_eq!(ep.state(), SessionState::Disconnected);

        // Remote disconnect carries the peer's stated reason.
        let mut ep = SessionEndpoint::new();
        let bye = Frame::Disconnect {
            reason: DisconnectReason::OutOfRange,
        };
        assert!(matches!(
            ep.on_frame(&alice, bye, None, 0, &mut rng),
            Ok(SessionEvent::Closed(DisconnectReason::OutOfRange))
        ));
        assert_eq!(ep.state(), SessionState::Disconnected);

        // Security failure: impostor certificate on handshake.
        let mut evil_ca = CertificateAuthority::new("Root", [9u8; 32], 0, u64::MAX);
        let mallory = identity(&mut evil_ca, 7, "bob");
        let mut mallory_ep = SessionEndpoint::new();
        let mut alice_ep = SessionEndpoint::new();
        let init = mallory_ep.connect(&mallory, None, &mut rng).unwrap();
        let err = alice_ep
            .on_frame(&alice, init, None, 0, &mut rng)
            .unwrap_err();
        assert_eq!(
            DisconnectReason::for_error(&err),
            DisconnectReason::SecurityFailure
        );
        assert_eq!(alice_ep.state(), SessionState::Disconnected);

        // Protocol error: sequence gap on an established session.
        let mut bob_ep = SessionEndpoint::new();
        let mut alice_ep = SessionEndpoint::new();
        let init = bob_ep.connect(&bob, None, &mut rng).unwrap();
        let reply = match alice_ep.on_frame(&alice, init, None, 0, &mut rng).unwrap() {
            SessionEvent::Reply(f) => f,
            _ => unreachable!(),
        };
        bob_ep.on_frame(&bob, reply, None, 0, &mut rng).unwrap();
        let _lost = bob_ep.send_payload(b"frame0").unwrap();
        let second = bob_ep.send_payload(b"frame1").unwrap();
        let err = alice_ep
            .on_frame(&alice, second, None, 0, &mut rng)
            .unwrap_err();
        assert_eq!(
            DisconnectReason::for_error(&err),
            DisconnectReason::ProtocolError
        );
        assert_eq!(alice_ep.state(), SessionState::Disconnected);
    }

    #[test]
    fn double_connect_rejected() {
        let (_, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut ep = SessionEndpoint::new();
        ep.connect(&bob, None, &mut rng).unwrap();
        assert_eq!(
            ep.connect(&bob, None, &mut rng).unwrap_err(),
            NetError::UnexpectedHandshake
        );
    }
}
