//! Wire codec for everything that crosses the air: advertisements,
//! invitations, handshake messages, encrypted data, disconnects.
//!
//! A compact hand-rolled binary format (tag byte + length-prefixed
//! fields). Only [`Frame::Data`] payloads are encrypted; discovery
//! traffic is plain text per the paper's design.

use crate::advertisement::Advertisement;
use crate::error::NetError;
use crate::handshake::{HandshakeInit, HandshakeResponse};
use crate::peer::PeerId;
use sos_crypto::cert::Certificate;
use sos_crypto::Signature;
use sos_sim::codec::{Count, Reader, Writer, NO_CAP};

/// Size budget, in encoded bundle bytes, for one batched sync payload
/// (`SyncMsg::Bundles`). The message manager packs served bundles into a
/// frame until the next bundle would cross this budget, then starts a
/// new frame; a bundle larger than the budget still travels alone (the
/// budget bounds batching, not bundle size). Chosen well above the
/// typical post (a few hundred bytes with certificate) so a 200-bundle
/// session fits in a handful of frames, and well below what a short
/// Bluetooth contact can flush, preserving lose-only-the-tail behaviour
/// at batch granularity.
pub const SYNC_BATCH_BUDGET: usize = 32 * 1024;

/// Why a session was torn down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisconnectReason {
    /// Radios moved out of range.
    OutOfRange,
    /// The peer failed security validation.
    SecurityFailure,
    /// The transfer completed and the session is no longer needed.
    Done,
    /// A protocol error (bad frame, sequence gap).
    ProtocolError,
}

impl DisconnectReason {
    /// The canonical teardown classification for a transport-layer
    /// error: security rejections (bad certificate, bad signature, bad
    /// resumption proof, bad tag) are [`SecurityFailure`](DisconnectReason::SecurityFailure),
    /// everything else (malformed frames, sequence gaps, state-machine
    /// violations) is [`ProtocolError`](DisconnectReason::ProtocolError).
    ///
    /// When a frame fails, the middleware's journal tag and the goodbye
    /// it sends both derive from this one mapping, so simulation and
    /// in-vivo transports report teardown causes identically.
    pub fn for_error(e: &NetError) -> DisconnectReason {
        match e {
            NetError::Certificate(_)
            | NetError::Crypto(_)
            | NetError::BadHandshakeSignature
            | NetError::BadResumeProof => DisconnectReason::SecurityFailure,
            _ => DisconnectReason::ProtocolError,
        }
    }

    /// The journal's stable tag vocabulary for this reason.
    pub fn as_tag(self) -> &'static str {
        match self {
            DisconnectReason::OutOfRange => "out_of_range",
            DisconnectReason::SecurityFailure => "security_failure",
            DisconnectReason::Done => "done",
            DisconnectReason::ProtocolError => "protocol_error",
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            DisconnectReason::OutOfRange => 0,
            DisconnectReason::SecurityFailure => 1,
            DisconnectReason::Done => 2,
            DisconnectReason::ProtocolError => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, NetError> {
        Ok(match b {
            0 => DisconnectReason::OutOfRange,
            1 => DisconnectReason::SecurityFailure,
            2 => DisconnectReason::Done,
            3 => DisconnectReason::ProtocolError,
            _ => return Err(NetError::BadFrame),
        })
    }
}

/// A frame on the simulated air interface.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Plain-text discovery broadcast (§V-A).
    Advertisement(Advertisement),
    /// Connection invitation from a browser to an advertiser.
    Invite {
        /// The inviting device.
        from: PeerId,
    },
    /// First handshake message.
    HandshakeInit(HandshakeInit),
    /// Second handshake message.
    HandshakeResponse(HandshakeResponse),
    /// Encrypted session payload.
    Data {
        /// Strictly increasing per-direction sequence number.
        seq: u64,
        /// AEAD ciphertext plus tag.
        ciphertext: Vec<u8>,
    },
    /// Session teardown notification.
    Disconnect {
        /// Why the session ended.
        reason: DisconnectReason,
    },
}

const TAG_ADVERTISEMENT: u8 = 1;
const TAG_INVITE: u8 = 2;
const TAG_HS_INIT: u8 = 3;
const TAG_HS_RESP: u8 = 4;
const TAG_DATA: u8 = 5;
const TAG_DISCONNECT: u8 = 6;
// The resumed handshake forms have tags of their own, so a full
// handshake's frames are byte-for-byte what they were before resumption.
const TAG_HS_RESUME_INIT: u8 = 7;
const TAG_HS_RESUME_RESP: u8 = 8;
const TAG_HS_MISS: u8 = 9;

/// The body both full handshake messages share under their own tags.
fn read_full_handshake(
    r: &mut Reader<'_>,
) -> Result<(Box<Certificate>, [u8; 32], Signature), NetError> {
    let certificate =
        Certificate::from_bytes(r.bytes16(NO_CAP)?).map_err(|_| NetError::BadFrame)?;
    Ok((Box::new(certificate), r.array()?, Signature(r.array()?)))
}

impl Frame {
    /// The frame's layout, written once: on a `Vec<u8>` it is
    /// [`Frame::encode`], on a [`Count`] it is [`Frame::wire_size`].
    fn write(&self, w: &mut impl Writer) {
        match self {
            Frame::Advertisement(ad) => {
                w.u8(TAG_ADVERTISEMENT);
                ad.write(w);
            }
            Frame::Invite { from } => {
                w.u8(TAG_INVITE);
                w.u32(from.0);
            }
            // Both full messages share one layout under their own tags.
            Frame::HandshakeInit(HandshakeInit::Full {
                certificate,
                ephemeral_public,
                signature,
            })
            | Frame::HandshakeResponse(HandshakeResponse::Full {
                certificate,
                ephemeral_public,
                signature,
            }) => {
                let is_init = matches!(self, Frame::HandshakeInit(_));
                w.u8(if is_init { TAG_HS_INIT } else { TAG_HS_RESP });
                w.len16(certificate.encoded_len());
                certificate.write(|b| w.bytes(b));
                w.bytes(ephemeral_public);
                w.bytes(signature.as_bytes());
            }
            Frame::HandshakeInit(HandshakeInit::Resume {
                ticket_id,
                nonce,
                mac,
            }) => {
                w.u8(TAG_HS_RESUME_INIT);
                w.bytes(ticket_id);
                w.bytes(nonce);
                w.bytes(mac);
            }
            Frame::HandshakeResponse(HandshakeResponse::Resume { nonce, confirm }) => {
                w.u8(TAG_HS_RESUME_RESP);
                w.bytes(nonce);
                w.bytes(confirm);
            }
            Frame::HandshakeResponse(HandshakeResponse::Miss) => w.u8(TAG_HS_MISS),
            Frame::Data { seq, ciphertext } => {
                w.u8(TAG_DATA);
                w.u64(*seq);
                w.bytes32(ciphertext);
            }
            Frame::Disconnect { reason } => {
                w.u8(TAG_DISCONNECT);
                w.u8(reason.to_byte());
            }
        }
    }

    /// Encodes the frame for transmission.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        self.write(&mut buf);
        buf
    }

    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] for truncated, oversized, unknown or
    /// non-canonical input (anything [`Frame::encode`] cannot produce).
    pub fn decode(bytes: &[u8]) -> Result<Frame, NetError> {
        let mut r = Reader::new(bytes);
        let frame = match r.u8()? {
            TAG_ADVERTISEMENT => Frame::Advertisement(Advertisement::read(&mut r)?),
            TAG_INVITE => Frame::Invite {
                from: PeerId(r.u32()?),
            },
            TAG_HS_INIT => {
                let (certificate, ephemeral_public, signature) = read_full_handshake(&mut r)?;
                Frame::HandshakeInit(HandshakeInit::Full {
                    certificate,
                    ephemeral_public,
                    signature,
                })
            }
            TAG_HS_RESP => {
                let (certificate, ephemeral_public, signature) = read_full_handshake(&mut r)?;
                Frame::HandshakeResponse(HandshakeResponse::Full {
                    certificate,
                    ephemeral_public,
                    signature,
                })
            }
            TAG_HS_RESUME_INIT => Frame::HandshakeInit(HandshakeInit::Resume {
                ticket_id: r.array()?,
                nonce: r.array()?,
                mac: r.array()?,
            }),
            TAG_HS_RESUME_RESP => Frame::HandshakeResponse(HandshakeResponse::Resume {
                nonce: r.array()?,
                confirm: r.array()?,
            }),
            TAG_HS_MISS => Frame::HandshakeResponse(HandshakeResponse::Miss),
            TAG_DATA => Frame::Data {
                seq: r.u64()?,
                ciphertext: r.bytes32(NO_CAP)?.to_vec(),
            },
            TAG_DISCONNECT => Frame::Disconnect {
                reason: DisconnectReason::from_byte(r.u8()?)?,
            },
            _ => return Err(NetError::BadFrame),
        };
        r.finish()?;
        Ok(frame)
    }

    /// The length of [`Frame::encode`] in bytes (what the link model
    /// costs a transmission by): the same layout run on a byte counter,
    /// so nothing is copied and, for every form without a certificate,
    /// nothing is allocated.
    pub fn wire_size(&self) -> usize {
        Count::of(|w| self.write(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sos_crypto::ca::{CertificateAuthority, Validator};
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::x25519::AgreementKey;
    use sos_crypto::{DeviceIdentity, UserId};

    fn identity() -> DeviceIdentity {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let signing = SigningKey::from_seed([2u8; 32]);
        let agreement = AgreementKey::from_secret([3u8; 32]);
        let uid = UserId::from_str_padded("alice");
        let cert = ca.issue(
            uid,
            "Alice",
            signing.verifying_key(),
            *agreement.public(),
            0,
        );
        DeviceIdentity::new(
            uid,
            signing,
            agreement,
            cert,
            Validator::new(ca.root_certificate().clone()),
        )
    }

    #[test]
    fn advertisement_roundtrip() {
        let mut ad = Advertisement::new(PeerId(9), UserId::from_str_padded("alice"));
        ad.insert(UserId::from_str_padded("bob"), 17);
        ad.insert(UserId::from_str_padded("carol"), 3);
        let frame = Frame::Advertisement(ad);
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn invite_roundtrip() {
        let frame = Frame::Invite { from: PeerId(3) };
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn handshake_roundtrip() {
        let id = identity();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (_, init) = crate::handshake::Initiator::start(&id, None, &mut rng);
        let frame = Frame::HandshakeInit(init);
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn resumed_handshake_forms_roundtrip_at_exactly_one_length() {
        let forms = [
            Frame::HandshakeInit(HandshakeInit::Resume {
                ticket_id: [1; 16],
                nonce: [2; 32],
                mac: [3; 32],
            }),
            Frame::HandshakeResponse(HandshakeResponse::Resume {
                nonce: [4; 32],
                confirm: [5; 32],
            }),
            Frame::HandshakeResponse(HandshakeResponse::Miss),
        ];
        for (frame, size) in forms.iter().zip([81, 65, 1]) {
            let mut bytes = frame.encode();
            assert_eq!(bytes.len(), size);
            assert_eq!(&Frame::decode(&bytes).unwrap(), frame);
            for cut in 0..bytes.len() {
                assert!(Frame::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            bytes.push(0);
            assert_eq!(Frame::decode(&bytes).unwrap_err(), NetError::BadFrame);
        }
    }

    #[test]
    fn data_roundtrip() {
        let frame = Frame::Data {
            seq: 42,
            ciphertext: vec![1, 2, 3, 4, 5],
        };
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn disconnect_roundtrip() {
        for reason in [
            DisconnectReason::OutOfRange,
            DisconnectReason::SecurityFailure,
            DisconnectReason::Done,
            DisconnectReason::ProtocolError,
        ] {
            let frame = Frame::Disconnect { reason };
            assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(Frame::decode(&[]).unwrap_err(), NetError::BadFrame);
        assert_eq!(Frame::decode(&[99]).unwrap_err(), NetError::BadFrame);
        assert_eq!(
            Frame::decode(&[TAG_DATA, 1]).unwrap_err(),
            NetError::BadFrame
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::Invite { from: PeerId(1) }.encode();
        bytes.push(0);
        assert_eq!(Frame::decode(&bytes).unwrap_err(), NetError::BadFrame);
    }

    #[test]
    fn truncation_anywhere_rejected() {
        let frame = Frame::Data {
            seq: 7,
            ciphertext: vec![9; 20],
        };
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            assert!(
                Frame::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// A certificate whose two variable-length fields are `name` and
    /// `issuer` (unsigned: sizes do not look at the signature).
    fn cert_named(name: &str, issuer: &str) -> Box<Certificate> {
        let mut cert = identity().certificate().clone();
        cert.display_name = name.to_string();
        cert.issuer = issuer.to_string();
        Box::new(cert)
    }

    /// An advertisement carrying `authors` dictionary entries.
    fn ad_of(authors: usize) -> Frame {
        let mut ad = Advertisement::new(PeerId(7), UserId::from_str_padded("alice"));
        for i in 0..authors {
            let mut user = [0u8; 10];
            user[..8].copy_from_slice(&(i as u64).to_be_bytes());
            ad.insert(UserId(user), i as u64);
        }
        Frame::Advertisement(ad)
    }

    #[test]
    fn wire_size_is_the_encoded_length_at_the_extremes() {
        let mut frames = vec![
            Frame::Invite { from: PeerId(3) },
            Frame::HandshakeResponse(HandshakeResponse::Miss),
            // One author past the u16 count field: the dictionary is
            // truncated on the wire, and the size says so.
            ad_of(0),
            ad_of(1),
            ad_of(usize::from(u16::MAX) + 1),
        ];
        for len in [0, 1, 64 * 1024] {
            frames.push(Frame::Data {
                seq: u64::MAX,
                ciphertext: vec![0xa5; len],
            });
        }
        for byte in 0..4 {
            let reason = DisconnectReason::from_byte(byte).unwrap();
            frames.push(Frame::Disconnect { reason });
        }
        for frame in &frames {
            assert_eq!(frame.wire_size(), frame.encode().len(), "{frame:?}");
        }
        let capped = ad_of(usize::from(u16::MAX) + 1);
        assert_eq!(capped.wire_size(), ad_of(usize::from(u16::MAX)).wire_size());
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// All nine wire forms, with every variable-length field
            /// varied: the computed size is the encoded length.
            #[test]
            fn wire_size_is_the_encoded_length(
                names in ("[a-zA-Z0-9 é✓]{0,60}", "[a-zA-Z0-9 é✓]{0,60}"),
                seq in any::<u64>(),
                payload in prop::collection::vec(any::<u8>(), 0..2048),
                authors in 0usize..40,
                fill in any::<u8>(),
            ) {
                let full = |init: bool| {
                    let certificate = cert_named(&names.0, &names.1);
                    let ephemeral_public = [fill; 32];
                    let signature = Signature([fill; 64]);
                    if init {
                        Frame::HandshakeInit(HandshakeInit::Full {
                            certificate,
                            ephemeral_public,
                            signature,
                        })
                    } else {
                        Frame::HandshakeResponse(HandshakeResponse::Full {
                            certificate,
                            ephemeral_public,
                            signature,
                        })
                    }
                };
                let forms = [
                    ad_of(authors),
                    Frame::Invite { from: PeerId(u32::from(fill)) },
                    full(true),
                    full(false),
                    Frame::HandshakeInit(HandshakeInit::Resume {
                        ticket_id: [fill; 16],
                        nonce: [fill; 32],
                        mac: [fill; 32],
                    }),
                    Frame::HandshakeResponse(HandshakeResponse::Resume {
                        nonce: [fill; 32],
                        confirm: [fill; 32],
                    }),
                    Frame::HandshakeResponse(HandshakeResponse::Miss),
                    Frame::Data { seq, ciphertext: payload },
                    Frame::Disconnect {
                        reason: DisconnectReason::from_byte(fill % 4).unwrap(),
                    },
                ];
                for frame in &forms {
                    prop_assert_eq!(frame.wire_size(), frame.encode().len());
                }
            }

            /// Arbitrary bytes from the air must never panic the
            /// decoder — they either parse or return BadFrame.
            #[test]
            fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
                let _ = Frame::decode(&bytes);
            }

            /// The resumed handshake tags, which random first bytes
            /// rarely hit: fixed layouts, so exactly one body length
            /// decodes and every other one is a BadFrame.
            #[test]
            fn resumed_tags_accept_exactly_one_length(
                tag in TAG_HS_RESUME_INIT..=TAG_HS_MISS,
                body in prop::collection::vec(any::<u8>(), 0..100),
            ) {
                let want = [80, 64, 0][usize::from(tag - TAG_HS_RESUME_INIT)];
                let bytes = [&[tag][..], &body].concat();
                prop_assert_eq!(Frame::decode(&bytes).is_ok(), body.len() == want);
            }

            /// Valid frames survive bit flips without panicking, and a
            /// flipped encoding never silently decodes into the same
            /// frame with a different meaning for Data frames.
            #[test]
            fn bitflip_never_panics(seq in any::<u64>(),
                                    payload in prop::collection::vec(any::<u8>(), 0..64),
                                    flip_byte in 0usize..32,
                                    flip_bit in 0u8..8) {
                let frame = Frame::Data { seq, ciphertext: payload };
                let mut bytes = frame.encode();
                let idx = flip_byte % bytes.len();
                bytes[idx] ^= 1 << flip_bit;
                let _ = Frame::decode(&bytes);
            }
        }
    }
}
