//! `encounter_bulk` and `encounter_churn`: closed loop, one client,
//! `Sos::handle_frame` pumped by the ledger with every frame taken
//! through `Frame::encode` → `Frame::decode`, as over the air.
//!
//! The two share every layer for opposite purposes. Bulk moves 200
//! bundles per handshake, so verify/sync/store do the work; churn moves
//! one bundle per handshake among more identities than the prepared-key
//! cache holds, so connection set-up does.

use super::{middleware_layers, Counts, Layers, Rep, Traced, Workload};
use crate::spans::Spans;
use crate::stats::{self, Fingerprint, SplitMix};
use crate::{probes, sut};
use std::collections::{BTreeSet, VecDeque};

const PAYLOAD: usize = 140;

/// Bulk: the per-session serve cap, so one encounter is one full batch.
const BULK_BACKLOG: u64 = 200;
const BULK_ENCOUNTERS: u32 = 200;

/// Churn: 1.5× the 256-entry prepared-key cache.
const CHURN_NODES: u32 = 384;
const CHURN_ENCOUNTERS: u32 = 2_000;

/// Span names, by frame kind (ad, hs_init, hs_resp, data, disconnect);
/// each but the last `HANDLE` is also the per-layer metric its mean
/// becomes.
const DECODE: [&str; 5] = [
    "net.frame_decode_ns.ad",
    "net.frame_decode_ns.hs_init",
    "net.frame_decode_ns.hs_resp",
    "net.frame_decode_ns.data",
    "net.frame_decode_ns.disconnect",
];
const ENCODE: [&str; 5] = [
    "net.frame_encode_ns.ad",
    "net.frame_encode_ns.hs_init",
    "net.frame_encode_ns.hs_resp",
    "net.frame_encode_ns.data",
    "net.frame_encode_ns.disconnect",
];
const HANDLE: [&str; 5] = [
    "core.hf_ad_us",
    "core.hf_handshake_us",
    "core.hf_handshake_us",
    "core.hf_payload_us",
    "core.hf_disconnect_us",
];

/// What the air carried during one repetition.
#[derive(Default)]
struct Air {
    frames: u64,
    bytes: u64,
    decode_failures: u64,
    /// The encoded frames of the first encounter, for the wire probe.
    sample: Vec<Vec<u8>>,
}

/// One encounter: `browser` hears `advertiser`'s advertisement and the
/// pair exchange frames until the air is quiet.
fn encounter(
    advertiser: &mut sut::Node,
    browser: &mut sut::Node,
    req: u32,
    rng: &mut sut::Rng,
    air: &mut Air,
    spans: &mut Spans,
) {
    let secs = 1_000 + u64::from(req);
    let whole = spans.enter("ledger.encounter", req);
    let (adv, br) = (sut::peer_of(advertiser), sut::peer_of(browser));
    let ad = spans.call("core.advertisement_us", req, || {
        sut::advertisement(advertiser, secs)
    });
    let bytes = spans.call(ENCODE[0], req, || sut::frame_encode(&ad));
    let mut queue: VecDeque<(sut::Peer, sut::Peer, usize, Vec<u8>)> = VecDeque::new();
    queue.push_back((adv, br, 0, bytes));
    while let Some((src, dst, kind, bytes)) = queue.pop_front() {
        air.frames += 1;
        air.bytes += bytes.len() as u64;
        let frame = match spans.call(DECODE[kind], req, || sut::frame_decode(&bytes)) {
            Ok(frame) => frame,
            Err(_) => {
                air.decode_failures += 1;
                continue;
            }
        };
        if req == 0 {
            air.sample.push(bytes);
        }
        let target = if dst == adv {
            &mut *advertiser
        } else {
            &mut *browser
        };
        let replies = spans.call(HANDLE[kind], req, || {
            sut::handle_frame(target, src, frame, secs, rng)
        });
        for (to, reply) in replies {
            let kind = sut::frame_kind(&reply);
            let bytes = spans.call(ENCODE[kind], req, || sut::frame_encode(&reply));
            queue.push_back((dst, to, kind, bytes));
        }
    }
    spans.exit(whole);
}

fn payloads(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut gen = SplitMix(seed);
    (0..count)
        .map(|_| {
            let mut p = vec![0u8; PAYLOAD];
            gen.fill(&mut p);
            p
        })
        .collect()
}

/// The per-layer metrics both encounter workloads derive the same way.
fn encounter_layers(
    traced: &Traced<'_>,
    identities: (&sut::Identity, &sut::Identity),
    sample: &[Vec<u8>],
    out: &mut Layers,
) {
    for name in ENCODE.iter().chain(&DECODE) {
        out.insert(name, traced.span(name).mean_ns());
    }
    for name in [
        "core.hf_ad_us",
        "core.hf_handshake_us",
        "core.hf_payload_us",
        "core.advertisement_us",
        "core.post_us",
    ] {
        out.insert(name, traced.span(name).mean_us());
    }
    middleware_layers(
        traced.profile,
        traced.traced_wall_s,
        traced,
        identities,
        out,
    );
    probes::wire(sample, out);
}

/// Folds the end-of-repetition node stats, what the air carried and (on
/// an observed repetition) what the journal saw into `counts`.
fn close_rep<'a>(
    mut counts: Counts,
    nodes: impl Iterator<Item = &'a sut::Node>,
    air: &Air,
    journal: Option<&sut::Journal>,
) -> Counts {
    for node in nodes {
        let s = sut::stats_of(node);
        counts.bundles += sut::accepted(&s);
        counts.bundles_received += s.bundles_received;
        counts.duplicates += s.bundles_duplicate;
        counts.sessions_opened += s.sessions_initiated;
        counts.attempted += s.bundles_received + s.sessions_initiated;
        counts.check(s.security_rejections + s.security_alerts == 0, || {
            format!(
                "{} bundles rejected, {} security alerts",
                s.security_rejections, s.security_alerts
            )
        });
    }
    counts.frames = air.frames;
    counts.attempted += air.frames;
    counts.check(air.decode_failures == 0, || {
        format!("{} frames failed to decode", air.decode_failures)
    });
    if let Some(journal) = journal {
        let sessions = sut::journal_sessions(journal);
        counts.observed_only.wire_bytes = air.bytes;
        counts.observed_only.add(&sessions);
        counts.check(sessions.journal_dropped == 0, || {
            format!("journal dropped {} entries", sessions.journal_dropped)
        });
        // One browser, one advertiser: no handshake can collide here,
        // so every abnormal close is a failure.
        counts.check(sessions.refused + sessions.broken == 0, || {
            format!(
                "{} sessions closed abnormally",
                sessions.refused + sessions.broken
            )
        });
    }
    counts
}

// ---------------------------------------------------------------- bulk

pub struct Bulk {
    seed: u64,
    author: sut::Identity,
    subscribers: Vec<sut::Identity>,
    backlog: Vec<Vec<u8>>,
    sample: Vec<Vec<u8>>,
}

impl Bulk {
    /// A fresh author holding the signed backlog.
    fn author(&self, spans: &mut Spans) -> sut::Node {
        let mut author = sut::new_node(0, &self.author, sut::Scheme::Epidemic);
        for (n, payload) in self.backlog.iter().enumerate() {
            spans.call("core.post_us", n as u32, || {
                sut::post(&mut author, payload.clone(), n as u64)
            });
        }
        author
    }
}

impl Workload for Bulk {
    const NAME: &'static str = "encounter_bulk";
    const OBSERVABLE: bool = true;

    fn setup(seed: u64) -> Bulk {
        let mut ca = sut::new_ca(seed);
        let bulk = Bulk {
            seed,
            author: sut::new_identity(&mut ca, seed, 0),
            subscribers: (1..=BULK_ENCOUNTERS)
                .map(|i| sut::new_identity(&mut ca, seed, i))
                .collect(),
            backlog: payloads(seed, BULK_BACKLOG as usize),
            sample: Vec::new(),
        };
        // Posting the backlog is set-up work; every repetition repeats
        // it on a fresh author outside its timed section.
        std::hint::black_box(bulk.author(&mut Spans::new(false)));
        bulk
    }

    fn fingerprint_inputs(&self, fp: &mut Fingerprint) {
        fp.u64(self.subscribers.len() as u64);
        for payload in &self.backlog {
            fp.bytes(payload);
        }
    }

    fn rep(&mut self, observed: bool, spans: &mut Spans) -> Rep {
        let journal = sut::Journal::with_capacity(1 << 20);
        let mut author = self.author(spans);
        let mut subscribers: Vec<sut::Node> = self
            .subscribers
            .iter()
            .zip(1u32..)
            .map(|(identity, i)| {
                let mut node = sut::new_node(i, identity, sut::Scheme::Epidemic);
                sut::follow(&mut node, &self.author);
                node
            })
            .collect();
        if observed {
            sut::attach_journal(&mut author, 0, &journal);
            for (node, i) in subscribers.iter_mut().zip(1u32..) {
                sut::attach_journal(node, i, &journal);
            }
        }
        let mut rng = sut::rng(self.seed);
        let mut air = Air::default();
        let mut latencies_ns = Vec::with_capacity(subscribers.len());

        let root = spans.enter("ledger.rep", 0);
        let start = stats::now();
        for (req, subscriber) in subscribers.iter_mut().enumerate() {
            let t = stats::now();
            encounter(
                &mut author,
                subscriber,
                req as u32,
                &mut rng,
                &mut air,
                spans,
            );
            latencies_ns.push(t.elapsed().as_nanos() as u64);
        }
        let wall = start.elapsed();
        spans.exit(root);

        let mut counts = Counts {
            contacts: u64::from(BULK_ENCOUNTERS),
            ..Counts::default()
        };
        let mut held = 0u64;
        for subscriber in &subscribers {
            // Full signature checks on the observed repetition; the
            // blind ones are timed back to back and check the counts.
            let (stored, valid) = if observed {
                sut::verify_store(subscriber, 2_000)
            } else {
                let accepted = sut::accepted(&sut::stats_of(subscriber));
                (accepted, accepted)
            };
            held += stored;
            counts.check(stored == BULK_BACKLOG && valid == BULK_BACKLOG, || {
                format!("subscriber holds {stored} bundles, {valid} valid; want {BULK_BACKLOG}")
            });
        }
        counts.delivery_ratio = held as f64 / (BULK_BACKLOG * u64::from(BULK_ENCOUNTERS)) as f64;
        let mut counts = close_rep(
            counts,
            subscribers.iter().chain([&author]),
            &air,
            observed.then_some(&journal),
        );
        counts.seal(*Fingerprint::default().u64(air.bytes));
        if observed {
            self.sample = air.sample;
        }
        Rep {
            wall,
            counts,
            latencies_ns,
        }
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers, _checks: &mut Counts) {
        encounter_layers(
            traced,
            (&self.author, &self.subscribers[0]),
            &self.sample,
            out,
        );
        probes::store(&self.author, out);
        let mut author = self.author(&mut Spans::new(false));
        out.insert(
            "core.maintain_us",
            stats::mean_ns(50, std::time::Duration::from_millis(10), || {
                sut::maintain(&mut author, 3_000)
            }) / 1e3,
        );
    }
}

// --------------------------------------------------------------- churn

pub struct Churn {
    seed: u64,
    identities: Vec<sut::Identity>,
    posts: Vec<Vec<u8>>,
    /// `(browser, advertiser)` per encounter.
    meetings: Vec<(u32, u32)>,
    /// Distinct ordered pairs: each owes exactly one bundle.
    first_meetings: u64,
    sample: Vec<Vec<u8>>,
}

impl Workload for Churn {
    const NAME: &'static str = "encounter_churn";
    const OBSERVABLE: bool = true;

    fn setup(seed: u64) -> Churn {
        let mut ca = sut::new_ca(seed);
        let identities = (0..CHURN_NODES)
            .map(|i| sut::new_identity(&mut ca, seed, i))
            .collect();
        let mut gen = SplitMix(seed ^ 0x6d65_6574);
        let meetings: Vec<(u32, u32)> = (0..CHURN_ENCOUNTERS)
            .map(|_| {
                let browser = gen.below(u64::from(CHURN_NODES)) as u32;
                let step = 1 + gen.below(u64::from(CHURN_NODES) - 1) as u32;
                (browser, (browser + step) % CHURN_NODES)
            })
            .collect();
        let first_meetings = meetings.iter().collect::<BTreeSet<_>>().len() as u64;
        Churn {
            seed,
            identities,
            posts: payloads(seed, CHURN_NODES as usize),
            meetings,
            first_meetings,
            sample: Vec::new(),
        }
    }

    fn fingerprint_inputs(&self, fp: &mut Fingerprint) {
        for payload in &self.posts {
            fp.bytes(payload);
        }
        for &(b, a) in &self.meetings {
            fp.u64(u64::from(b) << 32 | u64::from(a));
        }
    }

    fn rep(&mut self, observed: bool, spans: &mut Spans) -> Rep {
        let journal = sut::Journal::with_capacity(1 << 20);
        let mut nodes: Vec<sut::Node> = self
            .identities
            .iter()
            .zip(0u32..)
            .map(|(identity, i)| {
                let mut node = sut::new_node(i, identity, sut::Scheme::Direct);
                for author in &self.identities {
                    sut::follow(&mut node, author);
                }
                if observed {
                    sut::attach_journal(&mut node, i, &journal);
                }
                let payload = self.posts[i as usize].clone();
                spans.call("core.post_us", i, || sut::post(&mut node, payload, 1));
                node
            })
            .collect();
        let mut rng = sut::rng(self.seed);
        let mut air = Air::default();
        let mut latencies_ns = Vec::with_capacity(self.meetings.len());

        let root = spans.enter("ledger.rep", 0);
        let start = stats::now();
        for (req, &(browser, advertiser)) in self.meetings.iter().enumerate() {
            let (b, a) = (browser as usize, advertiser as usize);
            // Two distinct nodes of one Vec, mutably.
            let (low, high) = nodes.split_at_mut(b.max(a));
            let (browser, advertiser) = if b < a {
                (&mut low[b], &mut high[0])
            } else {
                (&mut high[0], &mut low[a])
            };
            let t = stats::now();
            encounter(advertiser, browser, req as u32, &mut rng, &mut air, spans);
            latencies_ns.push(t.elapsed().as_nanos() as u64);
        }
        let wall = start.elapsed();
        spans.exit(root);

        let counts = Counts {
            contacts: u64::from(CHURN_ENCOUNTERS),
            ..Counts::default()
        };
        let mut counts = close_rep(counts, nodes.iter(), &air, observed.then_some(&journal));
        // Each first meeting owes exactly one bundle; a repeat owes none.
        let delivered = counts.bundles;
        counts.check(delivered == self.first_meetings, || {
            format!(
                "{delivered} bundles delivered over {} first meetings",
                self.first_meetings
            )
        });
        counts.delivery_ratio = delivered as f64 / self.first_meetings as f64;
        counts.seal(*Fingerprint::default().u64(air.bytes));
        if observed {
            self.sample = air.sample;
        }
        Rep {
            wall,
            counts,
            latencies_ns,
        }
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers, _checks: &mut Counts) {
        encounter_layers(
            traced,
            (&self.identities[0], &self.identities[1]),
            &self.sample,
            out,
        );
    }
}
