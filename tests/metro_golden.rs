//! Golden digests of the metropolis scenario, pinned at the commit
//! *before* the reduced scheme evaluators became one (offer, want)
//! exchange rule over a node-major bit grid and reproduced by it: the
//! evaluator may change how it folds a contact, never what a run
//! returns.
//!
//! Each constant is the digest of one observed run's whole
//! [`MetroOutcome`] — every field of every `SchemeMetrics`, the delay
//! quantiles by `to_bits` — and of its `metro_report` bytes. Every
//! configuration runs on one shard and on four, against the same
//! constant. 24 posts fill one word of a have-row; 130 posts fill three
//! (the last one partly) and run with a shorter partner ring and an odd
//! spray budget.

use sos::experiments::metropolis::{
    metro_report, run_metropolis_observed, MetroConfig, MetroOutcome,
};
use sos::experiments::observe::RunObserver;

/// `(seed, population)`.
const CITIES: [(u64, usize); 3] = [(7, 240), (11, 400), (20_170_605, 600)];

/// FNV-1a over length-prefixed parts, so part boundaries count.
struct Digest(u64);

impl Digest {
    fn part(&mut self, part: &[u8]) {
        for &byte in (part.len() as u64).to_le_bytes().iter().chain(part) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.part(&v.to_le_bytes());
    }
}

fn digest(outcome: &MetroOutcome, report: &str) -> String {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.u64(outcome.nodes as u64);
    d.u64(outcome.districts as u64);
    d.u64(outcome.posts as u64);
    d.u64(outcome.contacts);
    d.u64(outcome.events);
    d.u64(outcome.schemes.len() as u64);
    for s in &outcome.schemes {
        d.part(s.scheme.name().as_bytes());
        d.u64(s.delivered as u64);
        d.u64(s.targets as u64);
        d.u64(s.transfers);
        for q in [s.delay_p50_h, s.delay_p90_h] {
            // `None` and `Some(0.0)` must differ.
            d.u64(u64::from(q.is_some()));
            d.u64(q.map_or(0, f64::to_bits));
        }
    }
    d.part(report.as_bytes());
    format!("{:016x}", d.0)
}

/// Runs `base` per city on 1 and 4 shards and compares each digest with
/// the pinned row, printing the whole computed row on a mismatch.
fn assert_pinned(scenario: &str, pinned: [&str; 3], base: impl Fn(usize) -> MetroConfig) {
    for (shards, threads) in [(1, 1), (4, 2)] {
        let computed: Vec<String> = CITIES
            .iter()
            .map(|&(seed, nodes)| {
                let cfg = MetroConfig {
                    days: 1,
                    seed,
                    shards,
                    threads,
                    ..base(nodes)
                };
                let observer = RunObserver::new();
                let outcome = run_metropolis_observed(&cfg, Some(&observer));
                assert!(outcome.contacts > 0, "{scenario}: an idle city");
                let epidemic = &outcome.schemes[0];
                assert!(epidemic.delivered > 0, "{scenario}: nothing delivered");
                digest(&outcome, &metro_report(&outcome, &observer.finish()))
            })
            .collect();
        assert_eq!(
            computed, pinned,
            "{scenario}, {shards} shard(s): a metropolis run no longer returns what it did \
             (cities {CITIES:?})"
        );
    }
}

#[test]
fn one_word_rows_are_pinned() {
    assert_pinned(
        "24 posts",
        ["1cbc0892aa28af45", "561b3dd736a46590", "43af17df8662230d"],
        |nodes| MetroConfig {
            posts: 24,
            ..MetroConfig::for_nodes(nodes)
        },
    );
}

#[test]
fn three_word_rows_are_pinned() {
    assert_pinned(
        "130 posts",
        ["bd84ec533f7d6538", "81fbdcc9eb153fb2", "f7e7e2de6aa6724c"],
        |nodes| MetroConfig {
            posts: 130,
            recent_partners: 2,
            spray_copies: 5,
            ..MetroConfig::for_nodes(nodes)
        },
    );
}
