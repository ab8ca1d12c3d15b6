//! # sos-crypto
//!
//! The cryptographic substrate of the SOS middleware reproduction
//! ([Baker et al., ICDCS 2017](https://arxiv.org/abs/1703.08947)).
//!
//! The paper layers a conventional PKI over Apple's Multipeer
//! Connectivity: a one-time signup issues each device an X.509-style
//! certificate; afterwards devices validate peers, establish encrypted
//! sessions, and sign/verify forwarded messages entirely offline. This
//! crate provides every primitive that design needs, implemented from
//! scratch and validated against RFC test vectors:
//!
//! * [`sha2`] — SHA-256 / SHA-512 (FIPS 180-4)
//! * [`hmac`], [`hkdf`] — HMAC (RFC 2104) and HKDF (RFC 5869)
//! * [`chacha20`], [`poly1305`], [`aead`] — ChaCha20-Poly1305 (RFC 8439)
//! * [`field25519`], [`x25519`] — Curve25519 Diffie–Hellman (RFC 7748)
//! * [`scalar`], [`ed25519`] — Ed25519 signatures (RFC 8032)
//! * [`cert`], [`ca`], [`keystore`] — certificates, the CA of the
//!   one-time infrastructure requirement, and device identities
//! * [`sealed`] — sealed boxes for end-to-end encrypted direct messages
//! * [`bounded`] — the FIFO-bounded map behind every cache and ticket
//!   table in the workspace
//!
//! ## Quickstart
//!
//! ```
//! use sos_crypto::ca::{CertificateAuthority, Validator};
//! use sos_crypto::cert::UserId;
//! use sos_crypto::ed25519::SigningKey;
//! use sos_crypto::x25519::AgreementKey;
//!
//! // The one-time infrastructure requirement (paper Fig. 2a):
//! let mut ca = CertificateAuthority::new("AlleyOop Root CA", [7; 32], 0, u64::MAX);
//! let signing = SigningKey::from_seed([1; 32]);
//! let agreement = AgreementKey::from_secret([2; 32]);
//! let cert = ca.issue(
//!     UserId::from_str_padded("alice"),
//!     "Alice",
//!     signing.verifying_key(),
//!     *agreement.public(),
//!     0,
//! );
//! // Every device ships with the root certificate and can now validate
//! // peers with no infrastructure at all:
//! let validator = Validator::new(ca.root_certificate().clone());
//! assert!(validator.validate(&cert, 10).is_ok());
//! ```
//!
//! ## Security caveats
//!
//! This is a **research reproduction**, not an audited cryptography
//! library. In particular, scalar multiplication and field arithmetic are
//! *not constant-time* (data-dependent branches and variable-time swaps),
//! so the implementation is susceptible to timing side channels. That is
//! an accepted trade-off for a simulation artifact; do not reuse this
//! crate to protect real data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod bounded;
pub mod ca;
pub mod cert;
pub mod chacha20;
pub mod ed25519;
pub mod error;
pub mod field25519;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod keystore;
pub mod poly1305;
pub mod scalar;
pub mod sealed;
pub mod sha2;
pub mod x25519;

pub use ca::{CertificateAuthority, RevocationList, Validator};
pub use cert::{Certificate, UserId};
pub use ed25519::{Signature, SigningKey, VerifyingKey};
pub use error::{CertError, CryptoError};
pub use keystore::DeviceIdentity;
pub use x25519::AgreementKey;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn aead_roundtrip(key in prop::array::uniform32(any::<u8>()),
                          nonce in prop::array::uniform12(any::<u8>()),
                          aad in prop::collection::vec(any::<u8>(), 0..64),
                          msg in prop::collection::vec(any::<u8>(), 0..512)) {
            let sealed = crate::aead::seal(&key, &nonce, &aad, &msg);
            let opened = crate::aead::open(&key, &nonce, &aad, &sealed).unwrap();
            prop_assert_eq!(opened, msg);
        }

        #[test]
        fn aead_tamper_any_byte_fails(key in prop::array::uniform32(any::<u8>()),
                                      msg in prop::collection::vec(any::<u8>(), 1..64),
                                      flip_bit in 0usize..8) {
            let nonce = [0u8; 12];
            let mut sealed = crate::aead::seal(&key, &nonce, b"", &msg);
            let idx = msg.len() / 2; // flip a ciphertext byte
            sealed[idx] ^= 1 << flip_bit;
            prop_assert!(crate::aead::open(&key, &nonce, b"", &sealed).is_err());
        }

        #[test]
        fn sign_verify_roundtrip(seed in prop::array::uniform32(any::<u8>()),
                                 msg in prop::collection::vec(any::<u8>(), 0..256)) {
            let sk = crate::ed25519::SigningKey::from_seed(seed);
            let sig = sk.sign(&msg);
            prop_assert!(sk.verifying_key().verify(&msg, &sig));
        }

        #[test]
        fn x25519_commutes(a in prop::array::uniform32(any::<u8>()),
                           b in prop::array::uniform32(any::<u8>())) {
            let ka = crate::x25519::AgreementKey::from_secret(a);
            let kb = crate::x25519::AgreementKey::from_secret(b);
            prop_assert_eq!(ka.agree(kb.public()), kb.agree(ka.public()));
        }

        #[test]
        fn field_mul_commutes(a in prop::array::uniform32(any::<u8>()),
                              b in prop::array::uniform32(any::<u8>())) {
            let mut a = a; a[31] &= 0x7f;
            let mut b = b; b[31] &= 0x7f;
            let fa = crate::field25519::Fe::from_bytes(&a);
            let fb = crate::field25519::Fe::from_bytes(&b);
            prop_assert_eq!(fa.mul(&fb), fb.mul(&fa));
        }

        #[test]
        fn field_inverse(a in prop::array::uniform32(any::<u8>())) {
            let mut a = a; a[31] &= 0x7f;
            let fa = crate::field25519::Fe::from_bytes(&a);
            prop_assume!(!fa.is_zero());
            prop_assert_eq!(fa.mul(&fa.invert()), crate::field25519::Fe::ONE);
        }

        #[test]
        fn scalar_mul_associative(a in prop::array::uniform32(any::<u8>()),
                                  b in prop::array::uniform32(any::<u8>()),
                                  c in prop::array::uniform32(any::<u8>())) {
            use crate::scalar::Scalar;
            let sa = Scalar::from_bytes_mod_order(&a);
            let sb = Scalar::from_bytes_mod_order(&b);
            let sc = Scalar::from_bytes_mod_order(&c);
            prop_assert_eq!(sa.mul(&sb).mul(&sc), sa.mul(&sb.mul(&sc)));
        }

        #[test]
        fn hex_roundtrip(data in prop::collection::vec(any::<u8>(), 0..128)) {
            let s = crate::hex::encode(&data);
            prop_assert_eq!(crate::hex::decode(&s).unwrap(), data);
        }

        #[test]
        fn cert_roundtrip_arbitrary_names(name in "[a-zA-Z0-9 ]{0,40}") {
            use crate::cert::{Certificate, UserId};
            use crate::ed25519::{Signature, SigningKey};
            let sk = SigningKey::from_seed([5; 32]);
            let mut cert = Certificate {
                serial: 1,
                subject: UserId::from_str_padded("x"),
                display_name: name,
                ed25519_public: sk.verifying_key(),
                x25519_public: [0; 32],
                issuer: "I".into(),
                not_before: 0,
                not_after: 10,
                signature: Signature([0; 64]),
            };
            cert.signature = sk.sign(&cert.tbs_bytes());
            let parsed = Certificate::from_bytes(&cert.to_bytes()).unwrap();
            prop_assert_eq!(parsed, cert);
        }
    }
}
