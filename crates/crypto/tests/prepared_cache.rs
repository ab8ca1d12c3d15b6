//! Behaviour of the process-wide prepared-key cache at and across its
//! cap: below it every first sight builds a table; a full cache admits
//! by second chance — a miss looks at the oldest entry, requeues it and
//! declines the newcomer (checked without a table) when that entry was
//! hit since it was queued, and evicts it for the newcomer's table
//! otherwise. `verify_batch` always takes tables, one per distinct key
//! however many cores it splits the batch across.
//! `verify_without_admission` never builds or inserts: a miss is checked
//! one-shot, and a hit marks its entry as any hit does. A full cache
//! holds `CAP` tables of 15 360 bytes each (3.75 MiB).
//!
//! The cache is one per process, so this file is its own test binary and
//! holds exactly one `#[test]`: nothing else may verify a signature
//! while the counts below are taken.

use sos_crypto::ed25519::{
    clear_prepared_cache, one_shot_verifies, prepared_cache_builds, prepared_cache_len,
    verify_batch, PreparedVerifyingKey, Signature, SigningKey, VerifyingKey,
};

/// The cap is private to the crate; it is pinned here so that changing
/// it is a visible decision (the ledger's `encounter_churn` workload is
/// sized as 1.5× this number).
const CAP: usize = 256;

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

/// Verifies `sig` by `a` over its message through the cache, asserts the
/// verdict, and returns how many tables that built.
fn builds(a: &Author, sig: &Signature, valid: bool) -> u64 {
    let before = prepared_cache_builds();
    assert_eq!(a.key.verify(&a.msg, sig), valid, "wrong verdict");
    prepared_cache_builds() - before
}

/// `builds` for `a`'s honest signature.
fn honest(a: &Author) -> u64 {
    builds(a, &a.sig, true)
}

/// Verifies `sig` by `a` through `verify_without_admission`, asserts the
/// verdict and that nothing was built or inserted, and returns how many
/// one-shot verifications that ran.
fn read_only(a: &Author, sig: &Signature, valid: bool) -> u64 {
    let (builds, len, one_shots) = (
        prepared_cache_builds(),
        prepared_cache_len(),
        one_shot_verifies(),
    );
    let verdict = a.key.verify_without_admission(&a.msg, sig);
    assert_eq!(verdict, valid, "wrong verdict");
    assert_eq!(
        prepared_cache_builds(),
        builds,
        "the read-only flavour built"
    );
    assert_eq!(prepared_cache_len(), len, "the read-only flavour inserted");
    one_shot_verifies() - one_shots
}

#[test]
fn a_full_cache_admits_newcomers_by_second_chance() {
    let authors: Vec<Author> = (0..CAP + 2).map(author).collect();
    let (newcomer, late) = (&authors[CAP], &authors[CAP + 1]);
    let mut forged = newcomer.sig;
    forged.0[3] ^= 0x40;
    let mut forged_late = late.sig;
    forged_late.0[3] ^= 0x40;
    clear_prepared_cache();
    assert_eq!(prepared_cache_len(), 0);

    // The read-only flavour neither builds nor inserts, even into an
    // empty cache: honest and forged signatures are checked one-shot.
    assert_eq!(read_only(newcomer, &newcomer.sig, true), 1);
    assert_eq!(read_only(newcomer, &forged, false), 1);
    assert_eq!(prepared_cache_len(), 0);

    // Below the cap every first sight builds, and the length climbs to
    // CAP. Queue: 0, 1, …, CAP − 1, none marked.
    for (i, a) in authors.iter().enumerate().take(CAP) {
        assert_eq!(honest(a), 1, "author {i} was never seen before");
        assert_eq!(prepared_cache_len(), i + 1);
    }
    // What the full cache's tables hold (a table built outside the
    // cache, so nothing above is counted twice).
    let builds_before = prepared_cache_builds();
    let table = PreparedVerifyingKey::new(&authors[0].key).expect("decompresses");
    assert_eq!(CAP * table.table_bytes(), 3_932_160, "3.75 MiB");
    assert_eq!(prepared_cache_builds(), builds_before);
    assert_eq!(prepared_cache_len(), CAP);

    // A hit marks the oldest entry; the newcomer is then declined: no
    // table, the length stays CAP, the signature still verifies. The
    // marked entry is requeued unmarked. Queue: 1, …, CAP − 1, 0.
    assert_eq!(honest(&authors[0]), 0);
    assert_eq!(honest(newcomer), 0, "declined: checked without a table");
    assert_eq!(prepared_cache_len(), CAP);

    // The newcomer's second try meets an unmarked oldest entry (1),
    // which is evicted for its table. Queue: 2, …, CAP − 1, 0, CAP.
    assert_eq!(honest(newcomer), 1);
    assert_eq!(prepared_cache_len(), CAP);
    // 1 is gone: seeing it again builds, evicting 2 in turn.
    // Queue: 3, …, CAP − 1, 0, CAP, 1.
    assert_eq!(honest(&authors[1]), 1, "author 1 was the victim");
    assert_eq!(prepared_cache_len(), CAP);

    // A forgery by a cached author is refused on the hit path …
    assert_eq!(builds(newcomer, &forged, false), 0);
    // … and by a newcomer on the declined path (3, the oldest, marked
    // by a hit first, is requeued). Queue: 4, …, CAP − 1, 0, CAP, 1, 3.
    assert_eq!(honest(&authors[3]), 0);
    assert_eq!(builds(late, &forged_late, false), 0);
    assert_eq!(prepared_cache_len(), CAP);

    // The second chance kept author 0 through two newcomers.
    assert_eq!(honest(&authors[0]), 0);

    // A key that names no curve point is refused and builds nothing;
    // the oldest entry (4) is unmarked, so nothing is requeued either.
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

    // `verify_batch` draws its per-author tables from the same cache and
    // always takes them: with the oldest entry (4) marked, a batch over
    // one cached author (0) and one absent one (`late`) accepts, builds
    // exactly the missing table and keeps the cache at its cap; a
    // forgery in it fails.
    assert_eq!(honest(&authors[4]), 0);
    let cached = &authors[0];
    let second = |a: &Author, tag: u8| {
        let msg = vec![tag; 40];
        let sig = a.sk.sign(&msg);
        (msg, sig)
    };
    let more: Vec<(Vec<u8>, Signature)> = (0..4u8)
        .flat_map(|t| [second(cached, t), second(late, t)])
        .collect();
    let mut items: Vec<(&VerifyingKey, &[u8], &Signature)> = more
        .iter()
        .enumerate()
        .map(|(n, (msg, sig))| {
            let a = if n % 2 == 0 { cached } else { late };
            (&a.key, msg.as_slice(), sig)
        })
        .collect();
    let before = prepared_cache_builds();
    assert!(verify_batch(&items), "eight honest signatures, two authors");
    assert_eq!(prepared_cache_builds(), before + 1);
    assert_eq!(prepared_cache_len(), CAP);
    assert_eq!(honest(late), 0, "the batch's table serves verify too");
    items[5].2 = &forged;
    assert!(!verify_batch(&items));
    assert_eq!(prepared_cache_len(), CAP);

    // A batch large enough to be split across cores resolves each
    // distinct key once, before it forks: a cold author's 80 signatures
    // build one table, not one per sub-batch.
    let cold = author(CAP + 2);
    let signed: Vec<(Vec<u8>, Signature)> = (0..80u8).map(|t| second(&cold, t)).collect();
    let items: Vec<(&VerifyingKey, &[u8], &Signature)> = signed
        .iter()
        .map(|(msg, sig)| (&cold.key, msg.as_slice(), sig))
        .collect();
    let before = prepared_cache_builds();
    assert!(verify_batch(&items), "eighty honest signatures, one author");
    assert_eq!(prepared_cache_builds(), before + 1, "one build per key");
    assert_eq!(prepared_cache_len(), CAP);

    // The two batches' inserts evicted 4 and 5, so the oldest entry is
    // now 6, unmarked. A read-only hit on it costs no one-shot check and
    // marks it like any hit: a newcomer is then declined (checked
    // one-shot, nothing built) while 6 is requeued and stays cached.
    let (six, newcomer) = (&authors[6], author(CAP + 3));
    assert_eq!(read_only(six, &six.sig, true), 0, "6 is cached");
    let one_shots = one_shot_verifies();
    assert_eq!(honest(&newcomer), 0, "declined: 6 was marked");
    assert_eq!(one_shot_verifies(), one_shots + 1);
    assert_eq!(read_only(six, &six.sig, true), 0, "6 kept its table");
    // The next oldest, 7, was never hit: the newcomer's second try
    // evicts it, and a read-only check of 7 is then a one-shot miss that
    // builds nothing back.
    assert_eq!(honest(&newcomer), 1);
    assert_eq!(read_only(&authors[7], &authors[7].sig, true), 1);
    assert_eq!(prepared_cache_len(), CAP);

    // Clearing still empties it, and the next sight of anyone builds.
    clear_prepared_cache();
    assert_eq!(prepared_cache_len(), 0);
    assert_eq!(honest(cached), 1);
    assert_eq!(prepared_cache_len(), 1);
}
