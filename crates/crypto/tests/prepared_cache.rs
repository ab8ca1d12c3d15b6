//! Behaviour of the process-wide prepared-key cache at and across its
//! cap (ISSUE 14): a full cache gives up its single oldest entry per
//! newcomer instead of emptying itself.
//!
//! The cache is one per process, so this file is its own test binary and
//! holds exactly one `#[test]`: nothing else may verify a signature
//! while the counts below are taken.

use sos_crypto::ed25519::{
    clear_prepared_cache, prepared_cache_builds, prepared_cache_len, verify_batch, Signature,
    SigningKey, VerifyingKey,
};

/// The cap is private to the crate; it is pinned here so that changing
/// it is a visible decision (the ledger's `encounter_churn` workload is
/// sized as 1.5× this number).
const CAP: usize = 256;
const EXTRA: usize = 64;

struct Author {
    sk: SigningKey,
    key: VerifyingKey,
    msg: Vec<u8>,
    sig: Signature,
}

fn author(i: usize) -> Author {
    let mut seed = [0x5au8; 32];
    seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
    let sk = SigningKey::from_seed(seed);
    let msg = format!("post of author {i}").into_bytes();
    let sig = sk.sign(&msg);
    Author {
        key: sk.verifying_key(),
        sk,
        msg,
        sig,
    }
}

/// Verifies `a`'s signature through the cache and reports whether that
/// was a hit (no table built).
fn verify_is_hit(a: &Author) -> bool {
    let before = prepared_cache_builds();
    assert!(a.key.verify(&a.msg, &a.sig), "valid signature refused");
    prepared_cache_builds() == before
}

#[test]
fn a_full_cache_evicts_one_victim_in_insertion_order() {
    let authors: Vec<Author> = (0..CAP + EXTRA).map(author).collect();
    clear_prepared_cache();
    assert_eq!(prepared_cache_len(), 0);

    // Fill to the cap, then push EXTRA more through the boundary: the
    // length climbs to CAP and stays there, every first sight is a miss.
    for (i, a) in authors.iter().enumerate() {
        assert!(!verify_is_hit(a), "author {i} was never seen before");
        assert_eq!(prepared_cache_len(), (i + 1).min(CAP));
    }

    // The CAP most recently inserted keys all survived (the old
    // clear-when-full policy kept only the last EXTRA of them) …
    for (i, a) in authors.iter().enumerate().skip(EXTRA) {
        assert!(verify_is_hit(a), "author {i} should still be cached");
    }
    // … a forged signature by a cached author is refused without a build …
    let before = prepared_cache_builds();
    let mut forged = authors[CAP].sig;
    forged.0[3] ^= 0x40;
    assert!(!authors[CAP].key.verify(&authors[CAP].msg, &forged));
    assert_eq!(prepared_cache_builds(), before);
    // … and the EXTRA oldest are exactly the ones that went. Each of
    // these misses re-inserts its key and evicts the then-oldest entry:
    // authors EXTRA..2·EXTRA, in that order.
    for (i, a) in authors.iter().enumerate().take(EXTRA) {
        assert!(!verify_is_hit(a), "author {i} should have been evicted");
        assert_eq!(prepared_cache_len(), CAP);
    }
    for (i, a) in authors.iter().enumerate().take(2 * EXTRA).skip(EXTRA) {
        assert!(!verify_is_hit(a), "author {i} was the FIFO victim");
    }
    // Hits never refreshed anyone's age: the second sweep above evicted
    // authors 2·EXTRA..3·EXTRA, and everything younger is still a hit.
    for (i, a) in authors.iter().enumerate().skip(3 * EXTRA) {
        assert!(verify_is_hit(a), "author {i} is younger than every victim");
    }

    // A key that names no curve point is refused, builds nothing and
    // takes no slot, on a full cache as on an empty one.
    let off_curve = (0..=255u8)
        .map(|b0| {
            let mut bytes = [0u8; 32];
            bytes[0] = b0;
            bytes[1] = 0x5a;
            VerifyingKey(bytes)
        })
        .find(|vk| sos_crypto::ed25519::EdwardsPoint::decompress(&vk.0).is_none())
        .expect("some encoding is off-curve");
    let before = prepared_cache_builds();
    assert!(!off_curve.verify(b"m", &Signature([1u8; 64])));
    assert_eq!(prepared_cache_builds(), before);
    assert_eq!(prepared_cache_len(), CAP);

    // `verify_batch` draws its per-author tables from the same cache:
    // a batch over one cached and one evicted author accepts, costs one
    // build, and keeps the cache at its cap; a forgery in it fails.
    let cached = &authors[CAP + EXTRA - 1];
    let evicted = &authors[2 * EXTRA];
    let second = |a: &Author, tag: u8| {
        let msg = vec![tag; 40];
        let sig = a.sk.sign(&msg);
        (msg, sig)
    };
    let more: Vec<(Vec<u8>, Signature)> = (0..4u8)
        .flat_map(|t| [second(cached, t), second(evicted, t)])
        .collect();
    let mut items: Vec<(&VerifyingKey, &[u8], &Signature)> = more
        .iter()
        .enumerate()
        .map(|(n, (msg, sig))| {
            let a = if n % 2 == 0 { cached } else { evicted };
            (&a.key, msg.as_slice(), sig)
        })
        .collect();
    let before = prepared_cache_builds();
    assert!(verify_batch(&items), "eight honest signatures, two authors");
    assert_eq!(prepared_cache_builds(), before + 1);
    assert_eq!(prepared_cache_len(), CAP);
    items[5].2 = &forged;
    assert!(!verify_batch(&items));
    assert_eq!(prepared_cache_len(), CAP);

    // Clearing still empties it, and the next sight of anyone is a miss.
    clear_prepared_cache();
    assert_eq!(prepared_cache_len(), 0);
    assert!(!verify_is_hit(cached));
    assert_eq!(prepared_cache_len(), 1);
}
