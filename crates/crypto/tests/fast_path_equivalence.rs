//! Property tests pinning every windowed/precomputed fast path to the
//! naive double-and-add oracles it replaced (ISSUE 3 tentpole): the
//! fixed-window basepoint table, the 4-bit sliding-window variable-base
//! multiplication, the Straus/Shamir interleaved double-scalar
//! multiplication, the prepared/cached verification flavours (the
//! read-only `verify_without_admission` on its hit and miss paths), the
//! validator's certificate cache, and (ISSUE 14) the fixed-base X25519
//! public-key derivation against the Montgomery ladder.
//!
//! Random inputs come from proptest; the edge scalars the recodings are
//! most likely to mishandle (0, 1, ℓ−1, ℓ, 2²⁵⁶−1) are exercised
//! deterministically below.

use proptest::prelude::*;
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::cert::UserId;
use sos_crypto::ed25519::{
    basepoint_table, EdwardsPoint, FixedWindowTable, PreparedVerifyingKey, Signature, SigningKey,
};
use sos_crypto::scalar::Scalar;
use sos_crypto::x25519::{x25519, x25519_base, AgreementKey, BASEPOINT};

/// ℓ − 1 as canonical little-endian bytes.
fn l_minus_one_bytes() -> [u8; 32] {
    let l: [u64; 4] = [
        0x5812631a5cf5d3ec, // low limb of ℓ, minus one
        0x14def9dea2f79cd6,
        0x0000000000000000,
        0x1000000000000000,
    ];
    let mut out = [0u8; 32];
    for (i, limb) in l.iter().enumerate() {
        out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// ℓ itself as raw little-endian bytes (non-canonical input).
fn l_bytes() -> [u8; 32] {
    let mut out = l_minus_one_bytes();
    out[0] += 1;
    out
}

/// The edge scalars of the satellite checklist, as reduced scalars.
fn edge_scalars() -> Vec<Scalar> {
    vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_canonical_bytes(&l_minus_one_bytes()).expect("ℓ−1 is canonical"),
        Scalar::from_bytes_mod_order(&l_bytes()),  // ℓ → 0
        Scalar::from_bytes_mod_order(&[0xff; 32]), // 2²⁵⁶ − 1, reduced
    ]
}

/// A "random-looking" subgroup point derived from a seed scalar.
fn subgroup_point(seed: u64) -> EdwardsPoint {
    EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(seed | 1))
}

#[test]
fn edge_scalars_basepoint_table() {
    for s in edge_scalars() {
        let fast = basepoint_table().mul(&s);
        let naive = EdwardsPoint::basepoint().mul_scalar_naive(&s);
        assert!(fast.equals(&naive), "basepoint table diverges on {s:?}");
    }
}

#[test]
fn edge_scalars_sliding_window() {
    let p = subgroup_point(0xdead_beef);
    for s in edge_scalars() {
        let fast = p.mul_scalar(&s);
        let naive = p.mul_scalar_naive(&s);
        assert!(fast.equals(&naive), "sliding window diverges on {s:?}");
    }
}

#[test]
fn edge_scalars_double_scalar() {
    let a = subgroup_point(0x5051_e5e5);
    for s in edge_scalars() {
        for k in edge_scalars() {
            let fast = EdwardsPoint::double_scalar_mul_basepoint(&s, &k, &a);
            let naive = EdwardsPoint::basepoint()
                .mul_scalar_naive(&s)
                .add(&a.mul_scalar_naive(&k));
            assert!(fast.equals(&naive), "Straus diverges on s={s:?} k={k:?}");
        }
    }
}

#[test]
fn non_canonical_byte_inputs_reduce_like_subgroup_order() {
    // ℓ·B = identity and (2²⁵⁶−1)·B = ((2²⁵⁶−1) mod ℓ)·B: the naive
    // raw-bytes ladder on non-canonical inputs must agree with the fast
    // paths on the reduced scalar (B generates the order-ℓ subgroup).
    for raw in [l_bytes(), [0xffu8; 32]] {
        let naive = EdwardsPoint::basepoint().mul_bytes(&raw);
        let fast = basepoint_table().mul(&Scalar::from_bytes_mod_order(&raw));
        assert!(fast.equals(&naive));
    }
}

/// The fixed-base public key against the ladder oracle, byte for byte.
fn assert_base_matches_ladder(k: &[u8; 32]) {
    assert_eq!(
        x25519_base(k),
        x25519(k, &BASEPOINT),
        "fixed-base and ladder public keys differ for k = {k:02x?}"
    );
}

#[test]
fn x25519_base_matches_ladder_on_rfc7748_keys() {
    // RFC 7748 §6.1: both secret keys and the public keys they must give.
    for (secret, public) in [
        (
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
        ),
        (
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
        ),
    ] {
        let k = sos_crypto::hex::decode_array::<32>(secret).expect("hex");
        assert_base_matches_ladder(&k);
        assert_eq!(sos_crypto::hex::encode(&x25519_base(&k)), public);
    }
}

#[test]
fn x25519_base_matches_ladder_on_edge_scalars() {
    // Clamping turns all-zero into 2^254 and all-0xff into 2^255 − 8:
    // the smallest and largest scalars either path ever multiplies by.
    assert_base_matches_ladder(&[0u8; 32]);
    assert_base_matches_ladder(&[0xffu8; 32]);
    // Every single-bit k, including the eight bits clamping discards.
    for bit in 0..256 {
        let mut k = [0u8; 32];
        k[bit / 8] = 1 << (bit % 8);
        assert_base_matches_ladder(&k);
    }
    // ℓ and ℓ − 1 as raw bytes: `k mod ℓ` must happen after clamping,
    // not instead of it.
    assert_base_matches_ladder(&l_bytes());
    assert_base_matches_ladder(&l_minus_one_bytes());
}

#[test]
fn agreement_is_symmetric_across_fixed_base_and_ladder_keys() {
    // Alice's public key comes from the fixed-base path, Bob's from the
    // ladder; both directions of the exchange must meet.
    let alice = AgreementKey::from_secret([0xa1; 32]);
    let bob_secret = [0xb0; 32];
    let bob_public = x25519(&bob_secret, &BASEPOINT);
    let shared = alice.agree(&bob_public).expect("contributory");
    assert_eq!(shared, x25519(&bob_secret, alice.public()));
    assert_eq!(
        Some(shared),
        AgreementKey::from_secret(bob_secret).agree(alice.public())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn x25519_base_matches_ladder(k in prop::array::uniform32(any::<u8>())) {
        prop_assert_eq!(x25519_base(&k), x25519(&k, &BASEPOINT));
    }
}

proptest! {
    #[test]
    fn basepoint_table_matches_naive(bytes in prop::array::uniform32(any::<u8>())) {
        let s = Scalar::from_bytes_mod_order(&bytes);
        let fast = basepoint_table().mul(&s);
        let naive = EdwardsPoint::basepoint().mul_scalar_naive(&s);
        prop_assert!(fast.equals(&naive));
    }

    #[test]
    fn sliding_window_matches_naive(bytes in prop::array::uniform32(any::<u8>()),
                                    point_seed in any::<u64>()) {
        let s = Scalar::from_bytes_mod_order(&bytes);
        let p = subgroup_point(point_seed);
        prop_assert!(p.mul_scalar(&s).equals(&p.mul_scalar_naive(&s)));
    }

    #[test]
    fn fixed_window_table_matches_naive(bytes in prop::array::uniform32(any::<u8>()),
                                        point_seed in any::<u64>()) {
        let s = Scalar::from_bytes_mod_order(&bytes);
        let p = subgroup_point(point_seed);
        let table = FixedWindowTable::new(&p);
        prop_assert!(table.mul(&s).equals(&p.mul_scalar_naive(&s)));
    }

    #[test]
    fn double_scalar_matches_naive(sb in prop::array::uniform32(any::<u8>()),
                                   kb in prop::array::uniform32(any::<u8>()),
                                   point_seed in any::<u64>()) {
        let s = Scalar::from_bytes_mod_order(&sb);
        let k = Scalar::from_bytes_mod_order(&kb);
        let a = subgroup_point(point_seed);
        let fast = EdwardsPoint::double_scalar_mul_basepoint(&s, &k, &a);
        let naive = EdwardsPoint::basepoint()
            .mul_scalar_naive(&s)
            .add(&a.mul_scalar_naive(&k));
        prop_assert!(fast.equals(&naive));
    }

    #[test]
    fn verify_flavours_agree_on_valid_and_corrupt(seed in prop::array::uniform32(any::<u8>()),
                                                  msg in prop::collection::vec(any::<u8>(), 0..128),
                                                  flip in 0usize..512) {
        let sk = SigningKey::from_seed(seed);
        let vk = sk.verifying_key();
        let prepared = PreparedVerifyingKey::new(&vk).expect("derived keys decompress");
        let sig = sk.sign(&msg);
        // The read-only flavour first, while the key is most likely
        // absent from the cache (its one-shot miss path), and again after
        // `verify` has admitted it (its hit path).
        prop_assert!(vk.verify_without_admission(&msg, &sig));
        prop_assert!(vk.verify(&msg, &sig));
        prop_assert!(vk.verify_without_admission(&msg, &sig));
        prop_assert!(vk.verify_uncached(&msg, &sig));
        prop_assert!(vk.verify_naive(&msg, &sig));
        prop_assert!(prepared.verify(&msg, &sig));
        // Corrupt one signature bit; every flavour must agree on the
        // verdict (the one cofactored predicate holds or it does not).
        let mut bad = Signature(*sig.as_bytes());
        bad.0[flip / 8] ^= 1 << (flip % 8);
        let naive = vk.verify_naive(&msg, &bad);
        prop_assert_eq!(vk.verify(&msg, &bad), naive);
        prop_assert_eq!(vk.verify_without_admission(&msg, &bad), naive);
        prop_assert_eq!(vk.verify_uncached(&msg, &bad), naive);
        prop_assert_eq!(prepared.verify(&msg, &bad), naive);
        // The honest signature under another key: refused by every
        // flavour, the read-only one on its miss path (checked before
        // `verify` can admit that key; no other case derives it, barring
        // a seed collision).
        let mut other_seed = seed;
        other_seed[0] ^= 0x80;
        let other = SigningKey::from_seed(other_seed).verifying_key();
        let naive = other.verify_naive(&msg, &sig);
        prop_assert!(!naive);
        prop_assert_eq!(other.verify_without_admission(&msg, &sig), naive);
        prop_assert_eq!(other.verify_uncached(&msg, &sig), naive);
        prop_assert_eq!(other.verify(&msg, &sig), naive);
    }

    #[test]
    fn cert_cache_matches_fresh_validator(issued_at in 0u64..1_000,
                                          validity in 1u64..10_000,
                                          probe in prop::collection::vec(0u64..20_000, 1..6)) {
        let mut ca = CertificateAuthority::new("Root", [42u8; 32], 0, u64::MAX);
        ca.default_validity_secs = validity;
        let sk = SigningKey::from_seed([1u8; 32]);
        let ak = AgreementKey::from_secret([2u8; 32]);
        let cert = ca.issue(
            UserId::from_str_padded("alice"),
            "Alice",
            sk.verifying_key(),
            *ak.public(),
            issued_at,
        );
        let cached = Validator::new(ca.root_certificate().clone());
        for now in probe {
            let fresh = Validator::new(ca.root_certificate().clone());
            prop_assert_eq!(cached.validate(&cert, now), fresh.validate(&cert, now));
        }
    }
}
