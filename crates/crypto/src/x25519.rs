//! X25519 Diffie–Hellman key agreement (RFC 7748).
//!
//! ## Two multiplications, two algorithms
//!
//! A key agreement multiplies a point only the peer chose, so
//! [`x25519`] walks the 255-step Montgomery ladder of RFC 7748 §5: five
//! multiplications and four squarings per scalar bit, nothing
//! precomputable. A *public key* multiplies the one fixed base point
//! `u = 9`, and for a fixed point the doublings can be paid once, ahead
//! of time. [`x25519_base`] therefore does not run the ladder. It
//! computes the same point on the birationally equivalent Edwards curve,
//! where [`crate::ed25519::basepoint_table`] already holds every
//! `j·256^i·B` (`1 ≤ j ≤ 128`), and maps the result back:
//!
//! ```text
//! (x, y) on edwards25519  ↦  u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y)
//! ```
//!
//! The Ed25519 base point `B` (`y = 4/5`) is the image of `u = 9` under
//! this map, and the map is a group homomorphism, so
//! `u([k]B) = X25519(k, 9)` for every `k` — at most 32 mixed additions
//! and one inversion instead of 255 ladder steps (ring's
//! `x25519_ge_scalarmult_base` does exactly this, over a radix-16
//! table).
//!
//! * **`k mod ℓ` is sound.** The table multiplies by canonical scalars.
//!   A clamped `k` lies in `[2^254, 2^255)`, above `ℓ ≈ 2^252`, but `B`
//!   has order `ℓ`, so `[k]B = [k mod ℓ]B`. (The ladder needs no such
//!   step and would not survive it: an arbitrary `u` may have a
//!   component of order 8, which is what clamping's low three zero bits
//!   are for.)
//! * **The neutral element.** `(0, 1)` has `Z − Y = 0`; with
//!   `Fe::invert(0) = 0` it maps to `u = 0`, which is also how the
//!   ladder encodes the point at infinity. No clamped scalar reaches it
//!   (`8ℓ > 2^255` is the smallest non-zero multiple of `ℓ` divisible by
//!   8), so the case needs no branch, only agreement — and the two
//!   functions agree.
//!
//! The ladder stays the only variable-base path and is the oracle the
//! fixed-base path is tested against
//! (`tests/fast_path_equivalence.rs`): every public key, hence every
//! certificate, handshake frame and session key, is bit-identical to
//! what the ladder produced.

use crate::ed25519::basepoint_table;
use crate::field25519::Fe;
use crate::scalar::Scalar;

/// The u-coordinate of the X25519 base point.
pub const BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: multiplies the point with u-coordinate `u` by the
/// clamped scalar `k`, using the Montgomery ladder.
pub fn x25519(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(*k);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = false;

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        // Limb bounds (`field25519` header): x1..z3 are parsed bytes,
        // products or squares, hence reduced; each `add` below sums two
        // reduced elements and feeds a `mul` or `square` directly.
        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);
    x2.mul(&z2.invert()).to_bytes()
}

/// Computes the public key for a secret scalar: `X25519(k, 9)`, through
/// the doubling-free Edwards basepoint table (module header).
pub fn x25519_base(k: &[u8; 32]) -> [u8; 32] {
    let k = Scalar::from_bytes_mod_order(&clamp(*k));
    basepoint_table().mul(&k).to_montgomery_u()
}

/// An X25519 key pair for key agreement.
#[derive(Clone)]
pub struct AgreementKey {
    secret: [u8; 32],
    public: [u8; 32],
}

impl std::fmt::Debug for AgreementKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AgreementKey(pub={})", crate::hex::encode(&self.public))
    }
}

impl AgreementKey {
    /// Derives a key pair from 32 secret bytes.
    pub fn from_secret(secret: [u8; 32]) -> AgreementKey {
        let public = x25519_base(&secret);
        AgreementKey { secret, public }
    }

    /// Generates a fresh key pair.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> AgreementKey {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        AgreementKey::from_secret(secret)
    }

    /// The public u-coordinate.
    pub fn public(&self) -> &[u8; 32] {
        &self.public
    }

    /// Computes the shared secret with a peer's public key.
    ///
    /// Returns `None` if the result is the all-zero point (non-contributory
    /// key exchange with a low-order public key), which callers must treat
    /// as a handshake failure.
    pub fn agree(&self, peer_public: &[u8; 32]) -> Option<[u8; 32]> {
        let shared = x25519(&self.secret, peer_public);
        if shared == [0u8; 32] {
            None
        } else {
            Some(shared)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let k = hex::decode_array::<32>(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let k = hex::decode_array::<32>(
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    // RFC 7748 §5.2 iteration test, 1 iteration.
    #[test]
    fn rfc7748_iterate_once() {
        let k = BASEPOINT;
        let u = BASEPOINT;
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman test.
    #[test]
    fn rfc7748_dh() {
        let alice_sk = hex::decode_array::<32>(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        )
        .unwrap();
        let bob_sk = hex::decode_array::<32>(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        )
        .unwrap();
        let alice = AgreementKey::from_secret(alice_sk);
        let bob = AgreementKey::from_secret(bob_sk);
        assert_eq!(
            hex::encode(alice.public()),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(bob.public()),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let s1 = alice.agree(bob.public()).unwrap();
        let s2 = bob.agree(alice.public()).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(
            hex::encode(&s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn low_order_point_rejected() {
        let alice = AgreementKey::from_secret([3u8; 32]);
        // u = 0 is a low-order point; agreement must fail.
        assert!(alice.agree(&[0u8; 32]).is_none());
    }

    #[test]
    fn agreement_is_symmetric_for_random_keys() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..4 {
            let a = AgreementKey::generate(&mut rng);
            let b = AgreementKey::generate(&mut rng);
            assert_eq!(a.agree(b.public()), b.agree(a.public()));
        }
    }
}
