//! Canonical decoding: what a decoder accepts, its encoder can produce.
//! For every binary codec, take a valid encoding, damage it — flip
//! bits, overwrite, insert and drop bytes, cut it short — and whatever
//! still decodes must re-encode to exactly the damaged bytes. A decoder
//! that normalises (a flag byte read as `!= 0`, dictionary entries in
//! any order, a padded varint) would let two byte strings mean one
//! message, and a relay would forward something other than it received.

use proptest::prelude::*;
use sos::core::sync::{AuthorWant, SyncMsg};
use sos::core::{Bundle, MessageKind, SosMessage, SosStats};
use sos::crypto::ca::CertificateAuthority;
use sos::crypto::cert::Certificate;
use sos::crypto::ed25519::SigningKey;
use sos::crypto::x25519::AgreementKey;
use sos::crypto::{Signature, UserId};
use sos::net::{
    encode_wire, Advertisement, DisconnectReason, Frame, HandshakeInit, HandshakeResponse, PeerId,
    WireReader,
};
use sos::node::proto::{Msg, Report};
use sos::sim::world::{ContactEvent, ContactPhase};
use sos::sim::SimTime;
use sos::trace::{codec_binary, ContactTrace};

/// One edit of a byte string: `(kind, position, value)`.
type Edit = (u8, usize, u8);

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u8..7, 0usize..4096, any::<u8>()), 1..4)
}

fn damage(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for &(kind, pos, value) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = pos % bytes.len();
        match kind {
            0 | 1 => bytes[at] ^= 1 << (value % 8),
            2 => bytes[at] = value,
            3 => bytes.insert(at, value),
            4 => drop(bytes.remove(at)),
            5 => bytes.truncate(at),
            // What padding a varint looks like: a continuation bit,
            // then a zero byte.
            _ => {
                bytes[at] |= 0x80;
                bytes.insert(at + 1, 0);
            }
        }
    }
    bytes
}

fn uid(n: u8) -> UserId {
    UserId([n; 10])
}

fn certificate(name: &str) -> (Certificate, SigningKey) {
    let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
    let signing = SigningKey::from_seed([2u8; 32]);
    let agreement = AgreementKey::from_secret([3u8; 32]);
    let cert = ca.issue(
        uid(1),
        name,
        signing.verifying_key(),
        *agreement.public(),
        0,
    );
    (cert, signing)
}

fn bundle(number: u64, payload: Vec<u8>, copies: Option<u32>) -> Bundle {
    let (cert, signing) = certificate("Alice");
    let message = SosMessage::create(
        &signing,
        uid(1),
        number,
        SimTime::from_millis(5_000),
        MessageKind::Post,
        payload,
    );
    let mut bundle = Bundle::new(message, cert);
    bundle.copies = copies;
    bundle
}

/// The nine frame forms, sized by `n`.
fn frames(n: u8, blob: &[u8]) -> Vec<Frame> {
    let (cert, _) = certificate("Alice ✓");
    let mut ad = Advertisement::new(PeerId(u32::from(n)), uid(n));
    // Keys that differ in their last byte only: most flips in a key
    // put it out of order.
    for author in 0..n % 6 {
        let mut key = [0u8; 10];
        key[9] = author;
        ad.insert(UserId(key), u64::from(author) + 1);
    }
    vec![
        Frame::Advertisement(ad),
        Frame::Invite {
            from: PeerId(u32::from(n)),
        },
        Frame::HandshakeInit(HandshakeInit::Full {
            certificate: Box::new(cert.clone()),
            ephemeral_public: [n; 32],
            signature: Signature([n; 64]),
        }),
        Frame::HandshakeResponse(HandshakeResponse::Full {
            certificate: Box::new(cert),
            ephemeral_public: [n; 32],
            signature: Signature([n; 64]),
        }),
        Frame::HandshakeInit(HandshakeInit::Resume {
            ticket_id: [n; 16],
            nonce: [n; 32],
            mac: [n; 32],
        }),
        Frame::HandshakeResponse(HandshakeResponse::Resume {
            nonce: [n; 32],
            confirm: [n; 32],
        }),
        Frame::HandshakeResponse(HandshakeResponse::Miss),
        Frame::Data {
            seq: u64::from(n),
            ciphertext: blob.to_vec(),
        },
        Frame::Disconnect {
            reason: DisconnectReason::Done,
        },
    ]
}

/// The nine control messages, tag 11 in each of its three report
/// kinds.
fn msgs(n: u8, blob: &[u8]) -> Vec<Msg> {
    let text = || format!("host-{n}:é");
    vec![
        Msg::Assign {
            proc_index: 1,
            num_procs: 3,
            scheme: n % 5,
            seed: u64::from(n),
            trace_text: "# sos-trace v1\n".into(),
        },
        Msg::Step {
            now_ms: u64::from(n),
            encounters: vec![(0, u32::from(n), n.is_multiple_of(2)), (3, 4, true)],
            posts: vec![(2, 9)],
            wakes: (0..u32::from(n % 5)).collect(),
        },
        Msg::Process,
        Msg::ProcessAck { emitted: 4 },
        Msg::Finish,
        Msg::Report(Report::Stats {
            node: u32::from(n),
            stats: SosStats {
                posts: u64::from(n),
                security_alerts: u64::MAX - u64::from(n),
                ..SosStats::default()
            },
        }),
        Msg::Report(Report::Delivered {
            node: u32::from(n),
            author: uid(n),
            number: u64::from(n) + 1,
        }),
        Msg::Report(Report::Journal { line: text() }),
        Msg::ReportDone {
            frames: u64::from(n) * 1_000,
            journal_dropped: u64::from(n),
        },
        Msg::Shutdown,
        Msg::Data {
            from: 1,
            to: 2,
            seq: 77,
            frame: blob.to_vec(),
        },
    ]
}

fn trace(n: u8, labeled: bool) -> ContactTrace {
    let ev = |t_ms, a, b, phase| ContactEvent {
        time: SimTime::from_millis(t_ms),
        a,
        b,
        phase,
        distance_m: f64::from(n) / 7.0,
    };
    let far = 120 + usize::from(n % 16);
    ContactTrace::new_labeled(
        far + 1,
        n.is_multiple_of(2).then_some(60.0),
        labeled.then(|| (0..=far).map(|i| format!("d{i}")).collect()),
        vec![
            ev(0, 0, 1, ContactPhase::Up),
            ev(u64::from(n) * 1_000, 0, 1, ContactPhase::Down),
            ev(1 << 40, 3, far, ContactPhase::Up),
        ],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame(n in any::<u8>(), blob in prop::collection::vec(any::<u8>(), 0..48), edits in arb_edits()) {
        for frame in frames(n, &blob) {
            let bytes = damage(frame.encode(), &edits);
            if let Ok(decoded) = Frame::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }
    }

    #[test]
    fn stream_framing(blob in prop::collection::vec(any::<u8>(), 0..48), edits in arb_edits()) {
        let mut stream = encode_wire(&blob).unwrap();
        stream.extend_from_slice(&encode_wire(b"second").unwrap());
        let stream = damage(stream, &edits);
        let mut reader = WireReader::new();
        reader.push_bytes(&stream);
        let mut consumed = Vec::new();
        while let Ok(Some(msg)) = reader.next_message() {
            consumed.extend_from_slice(&encode_wire(&msg).unwrap());
        }
        prop_assert!(stream.starts_with(&consumed));
    }

    #[test]
    fn control_message(n in any::<u8>(), blob in prop::collection::vec(any::<u8>(), 0..48), edits in arb_edits()) {
        for msg in msgs(n, &blob) {
            let bytes = damage(msg.encode(), &edits);
            if let Ok(decoded) = Msg::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }
    }

    #[test]
    fn sync_message(n in any::<u8>(), blob in prop::collection::vec(any::<u8>(), 0..48), edits in arb_edits()) {
        let request = SyncMsg::Request {
            wants: (0..n % 4)
                .map(|i| AuthorWant {
                    author: uid(i),
                    have: (0..u64::from(n % 3)).map(|k| (10 * k + 1, 10 * k + 5)).collect(),
                })
                .collect(),
        };
        let bundles = SyncMsg::Bundles(vec![
            bundle(u64::from(n) + 1, blob.clone(), None),
            bundle(u64::from(n) + 2, blob, Some(u32::from(n))),
        ]);
        for msg in [request, bundles, SyncMsg::Done] {
            let bytes = damage(msg.encode().unwrap(), &edits);
            if let Ok(decoded) = SyncMsg::decode(&bytes) {
                prop_assert_eq!(decoded.encode().unwrap(), bytes);
            }
        }
    }

    #[test]
    fn bundle_and_certificate(n in any::<u8>(), blob in prop::collection::vec(any::<u8>(), 0..48), edits in arb_edits()) {
        for copies in [None, Some(u32::from(n))] {
            let bytes = damage(bundle(u64::from(n) + 1, blob.clone(), copies).encode(), &edits);
            if let Ok(decoded) = Bundle::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }
        let bytes = damage(certificate("Alice ✓").0.to_bytes(), &edits);
        if let Ok(decoded) = Certificate::from_bytes(&bytes) {
            prop_assert_eq!(decoded.encoded_len(), bytes.len());
            prop_assert_eq!(decoded.to_bytes(), bytes);
        }
    }

    #[test]
    fn binary_trace(n in any::<u8>(), edits in arb_edits()) {
        for labeled in [false, true] {
            let bytes = damage(codec_binary::to_binary(&trace(n, labeled)), &edits);
            if let Ok(decoded) = codec_binary::from_binary(&bytes) {
                prop_assert_eq!(codec_binary::to_binary(&decoded), bytes);
            }
        }
    }
}

/// The two decoders that used to normalise, and the padded varint the
/// trace format used to accept: each now refuses what its encoder
/// never writes.
#[test]
fn the_known_violators_are_rejected() {
    let step = Msg::Step {
        now_ms: 1,
        encounters: vec![(1, 2, true)],
        posts: vec![],
        wakes: vec![],
    };
    let mut bytes = step.encode();
    // Tag, time, count, two ids: then the `up` flag.
    bytes[1 + 8 + 4 + 4 + 4] = 2;
    assert!(Msg::decode(&bytes).is_err());
    // Retired tags: per-event schedule messages (4, 5), the data
    // plane's address exchange and barrier (1, 6, 7).
    for tag in [1, 4, 5, 6, 7] {
        bytes[0] = tag;
        assert!(Msg::decode(&bytes).is_err(), "retired tag {tag}");
        assert!(Msg::decode(&[tag]).is_err(), "retired tag {tag} alone");
    }

    let mut ad = Advertisement::new(PeerId(1), uid(9));
    ad.insert(uid(1), 5).insert(uid(2), 6);
    let bytes = Frame::Advertisement(ad).encode();
    // Header: tag, peer, user id, count; then two 18-byte entries.
    let (head, entries) = bytes.split_at(1 + 4 + 10 + 2);
    let swapped = [head, &entries[18..], &entries[..18]].concat();
    assert!(Frame::decode(&swapped).is_err(), "descending authors");
    let repeated = [head, &entries[..18], &entries[..18]].concat();
    assert!(Frame::decode(&repeated).is_err(), "a repeated author");
    assert!(Frame::decode(&bytes).is_ok());

    let good = codec_binary::to_binary(&ContactTrace::new(2, None, Vec::new()).unwrap());
    // magic, flags, nodes = 2, count = 0: pad the count to two bytes.
    let mut padded = good.clone();
    *padded.last_mut().unwrap() = 0x80;
    padded.push(0);
    assert!(codec_binary::from_binary(&padded).is_err());
    assert!(codec_binary::from_binary(&good).is_ok());
}
