//! Direct probes of single operations, run in the traced phase on the
//! workload's own keys, certificates and bundles. They size the layers
//! the system's spans do not reach; they are not part of any timed
//! repetition.

use crate::stats::mean_ns;
use crate::sut;
use crate::workloads::Layers;
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(30);

/// `crypto.*`: the operations an encounter is made of.
pub fn crypto(identity: &sut::Identity, peer: &sut::Identity, out: &mut Layers) {
    let probe = sut::CryptoProbe::new(identity, peer);
    out.insert("crypto.sign_us", mean_ns(20, WINDOW, || probe.sign()) / 1e3);
    out.insert(
        "crypto.verify_us",
        mean_ns(20, WINDOW, || probe.verify()) / 1e3,
    );
    out.insert(
        "crypto.verify_cold_us",
        mean_ns(20, WINDOW, || probe.verify_cold()) / 1e3,
    );
    out.insert(
        "crypto.x25519_agree_us",
        mean_ns(20, WINDOW, || probe.agree()) / 1e3,
    );
    out.insert(
        "crypto.cert_validate_us",
        mean_ns(20, WINDOW, || probe.cert_validate()) / 1e3,
    );
    out.insert(
        "crypto.cert_validate_cold_us",
        mean_ns(20, WINDOW, || probe.cert_validate_cold()) / 1e3,
    );
    let plaintext = vec![0x3c; sut::SYNC_BATCH_BYTES];
    let sealed = probe.seal(&plaintext);
    let mib = sut::SYNC_BATCH_BYTES as f64 / (1024.0 * 1024.0);
    out.insert(
        "crypto.aead_seal_mib_s",
        mib / (mean_ns(20, WINDOW, || probe.seal(&plaintext)) / 1e9),
    );
    out.insert(
        "crypto.aead_open_mib_s",
        mib / (mean_ns(20, WINDOW, || probe.open(&sealed)) / 1e9),
    );
}

/// `core.store_*`: writes beside reads at two store sizes.
pub fn store(identity: &sut::Identity, out: &mut Layers) {
    const NAMES: [(u64, [&str; 3]); 2] = [
        (
            200,
            [
                "core.store_insert_ns.200",
                "core.store_sync_summary_us.200",
                "core.store_missing_from_us.200",
            ],
        ),
        (
            10_000,
            [
                "core.store_insert_ns.10000",
                "core.store_sync_summary_us.10000",
                "core.store_missing_from_us.10000",
            ],
        ),
    ];
    for (count, [insert, summary, missing]) in NAMES {
        let probe = sut::StoreProbe::new(identity, count);
        // Insert takes the bundle by value: subtract the clone's share.
        let with_clone = mean_ns(3, WINDOW, || probe.insert_all());
        let clone_only = mean_ns(3, WINDOW, || probe.clone_all());
        out.insert(
            insert,
            (with_clone - clone_only).max(0.0) / probe.len() as f64,
        );
        out.insert(summary, mean_ns(5, WINDOW, || probe.sync_summary()) / 1e3);
        out.insert(
            missing,
            mean_ns(5, WINDOW, || probe.missing_from_half()) / 1e3,
        );
    }
}

/// `net.wire_*`: length-prefix framing over the frames of one encounter.
pub fn wire(frames: &[Vec<u8>], out: &mut Layers) {
    if frames.is_empty() {
        return;
    }
    let n = frames.len() as f64;
    out.insert(
        "net.wire_encode_ns",
        mean_ns(20, WINDOW, || {
            frames
                .iter()
                .map(|f| sut::wire_encode(f).len())
                .sum::<usize>()
        }) / n,
    );
    let stream: Vec<u8> = frames.iter().flat_map(|f| sut::wire_encode(f)).collect();
    out.insert(
        "net.wire_read_ns",
        mean_ns(20, WINDOW, || sut::wire_read(&stream)) / n,
    );
}

/// `node.proto_*`: the daemon⇄daemon data message at a typical frame
/// size.
pub fn proto(out: &mut Layers) {
    let encoded = sut::proto_sample(400);
    let decode = mean_ns(50, WINDOW, || sut::proto_decode(&encoded));
    let both = mean_ns(50, WINDOW, || sut::proto_roundtrip(&encoded));
    out.insert("node.proto_decode_ns", decode);
    out.insert("node.proto_encode_ns", (both - decode).max(0.0));
}
