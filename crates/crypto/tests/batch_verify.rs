//! `verify_batch` ⇔ serial verification (ISSUE 13 tentpole): every
//! flavour decides the one cofactored predicate of the `ed25519` module
//! header, so the random-linear-combination check, the four serial
//! flavours and the naive oracle must hand out the same verdict on
//! every input — honest, corrupted, or crafted by a key holder to sit
//! exactly where a cofactorless check and a combination would part
//! ways.
//!
//! The differential tests draw batches from a pool of honestly signed
//! messages and corrupt them; the adversarial tests build fixed vectors
//! (small-order `R` and `A`, mixed-order `R`, malformed `s` and `R`) and
//! re-check each inside a thousand different batches, i.e. under a
//! thousand different coefficient draws, and inside batches large
//! enough to be split across cores.

use proptest::prelude::*;
use sos_crypto::ed25519::{
    verify_batch, EdwardsPoint, PreparedVerifyingKey, Signature, SigningKey, VerifyingKey,
};
use sos_crypto::scalar::Scalar;
use sos_crypto::sha2::{sha512, Sha512};
use std::sync::OnceLock;

/// Smallest size `verify_batch` checks as a combination (its private
/// crossover); the sizes below sit on both sides of it.
const CROSSOVER: usize = 4;
/// Smallest sub-batch `verify_batch` gives a core of its own (its
/// private `PAR_MIN`): a batch of `n` is checked as `min(cores, n /
/// PAR_MIN)` contiguous sub-batches.
const PAR_MIN: usize = 20;
const POOL_AUTHORS: usize = 16;
const POOL_PER_AUTHOR: usize = 201;
/// Batches each adversarial vector is re-checked in.
const TRANSCRIPTS: usize = 1_000;

#[derive(Clone)]
struct Signed {
    key: VerifyingKey,
    msg: Vec<u8>,
    sig: Signature,
}

fn author_seed(author: usize) -> [u8; 32] {
    let mut seed = [0x42u8; 32];
    seed[0] = author as u8;
    seed
}

/// Honest signatures: `pool()[author][i]`.
fn pool() -> &'static Vec<Vec<Signed>> {
    static POOL: OnceLock<Vec<Vec<Signed>>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..POOL_AUTHORS)
            .map(|author| {
                let sk = SigningKey::from_seed(author_seed(author));
                (0..POOL_PER_AUTHOR)
                    .map(|i| {
                        let msg = format!("author {author} message {i}").into_bytes();
                        Signed {
                            key: sk.verifying_key(),
                            sig: sk.sign(&msg),
                            msg,
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

/// `n` honest signatures spread round-robin over `authors` authors.
fn honest_batch(n: usize, authors: usize) -> Vec<Signed> {
    (0..n)
        .map(|i| pool()[i % authors][i / authors].clone())
        .collect()
}

fn batch_verdict(batch: &[Signed]) -> bool {
    let items: Vec<_> = batch
        .iter()
        .map(|s| (&s.key, s.msg.as_slice(), &s.sig))
        .collect();
    verify_batch(&items)
}

/// Asserts batch == all(verify) == all(verify_naive) and returns it.
fn agreed_verdict(batch: &[Signed], what: &str) -> bool {
    let serial = batch.iter().all(|s| s.key.verify(&s.msg, &s.sig));
    let naive = batch.iter().all(|s| s.key.verify_naive(&s.msg, &s.sig));
    assert_eq!(serial, naive, "{what}: verify vs verify_naive");
    assert_eq!(batch_verdict(batch), serial, "{what}: batch vs serial");
    serial
}

#[derive(Clone, Copy, Debug)]
enum Corruption {
    SignatureBit(usize),
    MessageByte,
    WrongKey,
}

fn corrupt(item: &mut Signed, how: Corruption) {
    match how {
        Corruption::SignatureBit(bit) => item.sig.0[(bit / 8) % 64] ^= 1 << (bit % 8),
        Corruption::MessageByte => item.msg.push(0),
        Corruption::WrongKey => {
            // Another pool author's key: decompressible, just not the signer's.
            let other = pool().iter().find(|a| a[0].key != item.key);
            item.key = other.expect("pool has several authors")[0].key;
        }
    }
}

#[test]
fn valid_and_corrupted_batches_agree_at_every_size() {
    let sizes = [
        0,
        1,
        CROSSOVER - 1,
        CROSSOVER,
        CROSSOVER + 1,
        PAR_MIN - 1,
        PAR_MIN,
        2 * PAR_MIN - 1,
        2 * PAR_MIN + 1,
        67,
        200,
        201,
    ];
    for n in sizes {
        for authors in [1, 3, POOL_AUTHORS] {
            let batch = honest_batch(n, authors.min(n.max(1)));
            assert!(
                agreed_verdict(&batch, &format!("valid n={n} authors={authors}")),
                "honest batch must verify"
            );
            if n == 0 {
                continue;
            }
            // However many sub-batches a batch is split into, 0 is in the
            // first, n / 2 in a middle one (the last of two) and n − 1 in
            // the last.
            for (at, how) in [
                (0, Corruption::SignatureBit(3)),
                (n / 2, Corruption::SignatureBit(300)),
                (n - 1, Corruption::MessageByte),
                (n / 3, Corruption::WrongKey),
            ] {
                let mut bad = batch.clone();
                corrupt(&mut bad[at], how);
                assert!(
                    !agreed_verdict(&bad, &format!("n={n} authors={authors} {how:?}@{at}")),
                    "corrupted batch must fail"
                );
            }
        }
    }
}

#[test]
fn duplicates_inside_a_batch_agree() {
    for n in [CROSSOVER, 67] {
        // The same triple many times over, then with one copy corrupted.
        let one = pool()[2][7].clone();
        let mut batch = vec![one; n];
        assert!(agreed_verdict(&batch, "all-duplicates"));
        // Duplicates among distinct items, two authors.
        let mut mixed = honest_batch(n, 2);
        mixed[n - 1] = mixed[0].clone();
        mixed[n / 2] = mixed[0].clone();
        assert!(agreed_verdict(&mixed, "some duplicates"));
        corrupt(&mut batch[n / 2], Corruption::SignatureBit(77));
        assert!(!agreed_verdict(&batch, "one corrupted duplicate"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random batches with replacement (so duplicates occur), random
    /// author spread, at most one corruption.
    #[test]
    fn batch_matches_serial_and_naive(picks in prop::collection::vec((0usize..POOL_AUTHORS, 0usize..POOL_PER_AUTHOR), 0..24),
                                      authors in 1usize..6,
                                      corrupt_at in any::<u64>(),
                                      kind in 0u8..4,
                                      bit in 0usize..512) {
        let mut batch: Vec<Signed> = picks
            .iter()
            .map(|&(a, i)| pool()[a % authors][i].clone())
            .collect();
        let mut expect = true;
        if kind > 0 && !batch.is_empty() {
            let at = (corrupt_at % batch.len() as u64) as usize;
            let how = match kind {
                1 => Corruption::SignatureBit(bit),
                2 => Corruption::MessageByte,
                _ => Corruption::WrongKey,
            };
            corrupt(&mut batch[at], how);
            expect = false;
        }
        prop_assert_eq!(agreed_verdict(&batch, "random batch"), expect);
    }
}

// ---------------------------------------------------------------------
// Adversarial vectors
// ---------------------------------------------------------------------

/// ℓ as little-endian bytes.
fn l_bytes() -> [u8; 32] {
    let l: [u64; 4] = [
        0x5812631a5cf5d3ed,
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

/// The 8 small-order points `[i]T`, `T` of order 8, found by clearing
/// the prime-order part of arbitrary curve points (`[ℓ]P`).
fn torsion_points() -> Vec<EdwardsPoint> {
    let identity = EdwardsPoint::identity();
    let t8 = (2u8..)
        .filter_map(|y| {
            let mut enc = [0u8; 32];
            enc[0] = y;
            let t = EdwardsPoint::decompress(&enc)?.mul_bytes(&l_bytes());
            // Order exactly 8: [4]T is not yet the identity.
            (!t.double().double().equals(&identity)).then_some(t)
        })
        .next()
        .expect("a point with a full 8-torsion component exists");
    let mut points = vec![identity];
    for i in 1..8 {
        points.push(points[i - 1].add(&t8));
    }
    assert!(points[7].add(&t8).equals(&identity), "T has order 8");
    points
}

#[test]
fn torsion_encodings_are_the_known_eight() {
    let mut got: Vec<String> = torsion_points()
        .iter()
        .map(|p| sos_crypto::hex::encode(&p.compress()))
        .collect();
    got.sort();
    let mut known = vec![
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    ];
    known.sort_unstable();
    assert_eq!(got, known);
}

/// The secret scalar behind `SigningKey::from_seed(seed)` (RFC 8032
/// §5.1.5), which the crafted signatures below need.
fn secret_scalar(seed: &[u8; 32]) -> Scalar {
    let h = sha512(seed);
    let mut a = [0u8; 32];
    a.copy_from_slice(&h[..32]);
    a[0] &= 248;
    a[31] &= 127;
    a[31] |= 64;
    Scalar::from_bytes_mod_order(&a)
}

fn challenge(r_enc: &[u8; 32], key: &VerifyingKey, msg: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r_enc);
    h.update(key.as_bytes());
    h.update(msg);
    Scalar::from_bytes_mod_order(&h.finalize())
}

fn signature(r_enc: &[u8; 32], s: &[u8; 32]) -> Signature {
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(r_enc);
    sig[32..].copy_from_slice(s);
    Signature(sig)
}

/// What only the key holder can make: `R` is whatever encoding they
/// like, `s = r + k·a` for the `k` that encoding yields.
fn key_holder_signature(seed: &[u8; 32], r: &Scalar, r_enc: [u8; 32], msg: &[u8]) -> Signed {
    let key = SigningKey::from_seed(*seed).verifying_key();
    let k = challenge(&r_enc, &key, msg);
    let s = k.muladd(&secret_scalar(seed), r);
    Signed {
        key,
        msg: msg.to_vec(),
        sig: signature(&r_enc, &s.to_bytes()),
    }
}

/// Asserts that all five flavours give `expect` for `vector`:
/// the four serial ones directly, `verify_batch` with the vector at a
/// moving position among ever-different honest companions of one other
/// author (a different transcript, hence different `z`, every time), and
/// `verify_batch` once more with the vector first, in the middle and
/// last of a batch large enough to fork.
fn assert_same_verdict_everywhere(vector: &Signed, expect: bool, what: &str) {
    let Signed { key, msg, sig } = vector;
    assert_eq!(key.verify(msg, sig), expect, "{what}: verify");
    assert_eq!(key.verify_uncached(msg, sig), expect, "{what}: uncached");
    assert_eq!(key.verify_naive(msg, sig), expect, "{what}: naive");
    match PreparedVerifyingKey::new(key) {
        Some(prepared) => assert_eq!(prepared.verify(msg, sig), expect, "{what}: prepared"),
        None => assert!(!expect, "{what}: undecompressible key cannot verify"),
    }
    let companions = &pool()[1];
    for t in 0..TRANSCRIPTS {
        // (first companion, stride) is different for every t, so no two
        // batches hash alike.
        let (first, stride) = (t % POOL_PER_AUTHOR, 1 + t / POOL_PER_AUTHOR);
        let mut batch: Vec<Signed> = (0..CROSSOVER - 1)
            .map(|j| companions[(first + j * stride) % POOL_PER_AUTHOR].clone())
            .collect();
        batch.insert(t % CROSSOVER, vector.clone());
        assert_eq!(batch_verdict(&batch), expect, "{what}: batch #{t}");
    }
    let forking = 2 * PAR_MIN + 1;
    for at in [0, forking / 2, forking - 1] {
        let mut batch = companions[..forking - 1].to_vec();
        batch.insert(at, vector.clone());
        assert_eq!(batch_verdict(&batch), expect, "{what}: forked batch @{at}");
    }
}

const CRAFT_SEED: [u8; 32] = [0x5a; 32];

#[test]
fn small_order_r_signed_by_the_key_holder() {
    // R = T alone (r = 0), s = k·a: the residue [s]B − [k]A − R is −T.
    // A cofactorless check rejects all but T = O; a combination would
    // pass them whenever z kills T. The one predicate accepts all 8.
    for (i, t) in torsion_points().iter().enumerate() {
        let v = key_holder_signature(&CRAFT_SEED, &Scalar::ZERO, t.compress(), b"small-order R");
        assert_same_verdict_everywhere(&v, true, &format!("R = [{i}]T"));
    }
}

#[test]
fn small_order_r_with_an_unrelated_s_is_rejected() {
    for (i, t) in torsion_points().iter().enumerate() {
        let v = Signed {
            key: SigningKey::from_seed(CRAFT_SEED).verifying_key(),
            msg: b"small-order R, no key".to_vec(),
            sig: signature(&t.compress(), &Scalar::from_u64(7 + i as u64).to_bytes()),
        };
        assert_same_verdict_everywhere(&v, false, &format!("R = [{i}]T, s = junk"));
    }
}

#[test]
fn mixed_order_r_signed_by_the_key_holder() {
    // R = [r]B + T: indistinguishable from an honest R without a
    // cofactor clearing; orders 8, 4 and 2.
    let r = Scalar::from_bytes_mod_order(&sha512(b"nonce"));
    let rb = EdwardsPoint::basepoint().mul_scalar(&r);
    let torsion = torsion_points();
    for i in [1usize, 2, 4, 7] {
        let r_enc = rb.add(&torsion[i]).compress();
        let v = key_holder_signature(&CRAFT_SEED, &r, r_enc, b"mixed-order R");
        assert_same_verdict_everywhere(&v, true, &format!("R = [r]B + [{i}]T"));
    }
}

#[test]
fn small_order_public_keys() {
    // A = T: [8][k]A vanishes, so (R = [r]B, s = r) satisfies the
    // equation for any message, and s = r + 1 never does.
    let r = Scalar::from_bytes_mod_order(&sha512(b"another nonce"));
    let r_enc = EdwardsPoint::basepoint().mul_scalar(&r).compress();
    for (i, t) in torsion_points().iter().enumerate() {
        let key = VerifyingKey(t.compress());
        let good = Signed {
            key,
            msg: b"anything at all".to_vec(),
            sig: signature(&r_enc, &r.to_bytes()),
        };
        assert_same_verdict_everywhere(&good, true, &format!("A = [{i}]T"));
        if i % 4 == 1 {
            let bad = Signed {
                sig: signature(&r_enc, &r.add(&Scalar::ONE).to_bytes()),
                ..good
            };
            assert_same_verdict_everywhere(&bad, false, &format!("A = [{i}]T, s off by one"));
        }
    }
}

#[test]
fn malformed_s_and_r_are_rejected_everywhere() {
    let honest = pool()[0][0].clone();

    // s + ℓ: the same residue class, a non-canonical encoding.
    let mut s_plus_l = [0u8; 32];
    let mut carry = 0u16;
    for (i, out) in s_plus_l.iter_mut().enumerate() {
        let sum = honest.sig.0[32 + i] as u16 + l_bytes()[i] as u16 + carry;
        *out = sum as u8;
        carry = sum >> 8;
    }
    assert_eq!(carry, 0, "s + ℓ < 2^256");
    let mut r_enc = [0u8; 32];
    r_enc.copy_from_slice(&honest.sig.0[..32]);
    let v = Signed {
        sig: signature(&r_enc, &s_plus_l),
        ..honest.clone()
    };
    assert_same_verdict_everywhere(&v, false, "s + ℓ");

    // Non-canonical R: y = p + c names the small-order points y = 0 and
    // y = 1 a second time (a lenient decoder would accept s = k·a for
    // them, as in `small_order_r_signed_by_the_key_holder`); the other
    // c are here for completeness.
    for c in [0u8, 1, 2, 18] {
        for sign in [0u8, 0x80] {
            let mut enc = [0xffu8; 32];
            enc[0] = 0xed + c;
            enc[31] = 0x7f | sign;
            let v = key_holder_signature(&CRAFT_SEED, &Scalar::ZERO, enc, b"non-canonical R");
            assert_same_verdict_everywhere(&v, false, &format!("R: y = p + {c}, sign {sign}"));
        }
    }

    // Undecompressible R: "negative zero" (x = 0 with the sign bit) and
    // a y that is on no curve point.
    let mut negative_zero = [0u8; 32];
    negative_zero[0] = 1;
    negative_zero[31] = 0x80;
    let off_curve = (2u8..)
        .map(|y| {
            let mut enc = [0u8; 32];
            enc[0] = y;
            enc
        })
        .find(|enc| EdwardsPoint::decompress(enc).is_none())
        .expect("about half of all y are off the curve");
    for (enc, what) in [(negative_zero, "negative zero"), (off_curve, "off curve")] {
        let v = key_holder_signature(&CRAFT_SEED, &Scalar::ZERO, enc, b"no such R");
        assert_same_verdict_everywhere(&v, false, &format!("R: {what}"));
    }
}
