//! The million-node metropolis scenario (scaling evaluation).
//!
//! The paper's field study covers ten nodes; its companion platform
//! exists to answer "what happens at city scale". This module is that
//! experiment: a districts-and-transit metropolis population
//! ([`sos_sim::mobility::Metropolis`]) streamed through the sharded
//! contact kernel ([`sos_engine::ShardedContactEngine`]), all five
//! built-in routing schemes evaluated *in one pass* over the stream.
//!
//! The full middleware stack (stores, sync frames, crypto) costs too
//! much per node to carry to 10⁶ nodes, so the schemes run on a
//! *reduced model*: a node-major bit grid — per node one contiguous
//! block holding its subscription mask and one have-row per scheme — on
//! which a contact moves, a word at a time,
//!
//! ```text
//! fresh = have[from] & offer(from) & want(to) & !have[to]
//! ```
//!
//! and a scheme is one row of the table `RULES` naming its two masks:
//!
//! | scheme              | offer(from)        | want(to)                  |
//! |---------------------|--------------------|---------------------------|
//! | epidemic            | all                | all                       |
//! | interest-predictive | all                | `subs[to] ∪ subs[ring(to)]` |
//! | interest-based      | all                | `subs[to]`                |
//! | direct              | authored by `from` | `subs[to]`                |
//!
//! Spray-and-wait keeps sparse copy counters beside its have-row: a
//! holder of `c` copies serves a subscriber for free and hands anyone
//! else `c / 2` of them while `c ≥ 2`.
//!
//! # What each mask reduces
//!
//! The table is the reduced model's specification, written against
//! [`sos_core::routing::RoutingScheme`]:
//!
//! * `want(to)` is `interests(ctx, ad)`, the receiver's browse decision
//!   over an advertisement listing `from`'s holdings, and `& !have[to]`
//!   is the `users_with_news` filter every scheme starts from.
//! * `offer(from)` is what a holder lets others pull later: everything
//!   `should_carry` let it keep and `should_advertise` still lists.
//!   Direct's `should_carry` is `false` and its `interests` pull from
//!   the author alone, so its offer is "authored by `from`".
//! * Spray-and-wait's halving is `on_serve`, its budget
//!   `initial_copies`.
//!
//! The unit tests hold the table, decision by decision, to `Epidemic`,
//! `Direct` and `InterestBased` without holdoff, and the word-level
//! fold to a per-post reference.
//!
//! # Divergences from the middleware
//!
//! The model diverges from `sos_core::routing` in ways known to move
//! scheme rankings (Moreira & Mendes, *Impact of Human Behavior on
//! Social Opportunistic Forwarding*). Against the table, for ROADMAP's
//! run-level differential harness:
//!
//! * every mask is per *post*; the middleware subscribes, advertises
//!   and pulls per *author*;
//! * interest-based's `want` has no 2 h forwarder holdoff;
//! * interest-predictive's `want` adds the subscriptions of a ring of
//!   the last `recent_partners` (4) partners, where the middleware adds
//!   authors whose decayed request-demand score passes a threshold, and
//!   its `offer` is everything held, where `should_carry` applies the
//!   same score;
//! * spray-and-wait serves subscribers without spending copy budget and
//!   a holder of one copy serves nobody else, where `on_serve` hands out
//!   terminal copies and `should_advertise` hides an exhausted bundle;
//! * no TTL, store capacity, advertisement cadence, handshake refusals
//!   or link loss.
//!
//! Contacts are folded in stream order, so a run is deterministic for
//! its seed and — the sharded kernel's stream being byte-identical at
//! any shard count — independent of `shards`/`threads`.

use crate::observe::{RunObservation, RunObserver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_core::routing::SchemeKind;
use sos_engine::{ShardConfig, ShardedContactEngine};
use sos_obs::{JournalEntry, ObsEvent};
use sos_sim::mobility::{Metropolis, MetropolisConfig};
use sos_sim::{ContactPhase, SimDuration, SimTime};

/// What a holder lets a peer pull.
#[derive(Clone, Copy, Debug)]
enum Offer {
    All,
    /// Only the posts `from` wrote itself.
    Authored,
}

/// What a node pulls from a peer's holdings.
#[derive(Clone, Copy, Debug)]
enum Want {
    All,
    Subscribed,
    /// Its own subscriptions and those of its recent partners.
    SubscribedOrRing,
}

/// The reduced model, one row per scheme in report order: its two
/// masks, or `None` for spray-and-wait's copy counters (module docs).
#[rustfmt::skip]
const RULES: [(SchemeKind, Option<(Offer, Want)>); 5] = [
    (SchemeKind::Epidemic,           Some((Offer::All,      Want::All))),
    (SchemeKind::InterestPredictive, Some((Offer::All,      Want::SubscribedOrRing))),
    (SchemeKind::InterestBased,      Some((Offer::All,      Want::Subscribed))),
    (SchemeKind::SprayAndWait,       None),
    (SchemeKind::Direct,             Some((Offer::Authored, Want::Subscribed))),
];

/// The five built-in schemes the scenario compares, in report order.
pub const METRO_SCHEMES: [SchemeKind; 5] =
    [RULES[0].0, RULES[1].0, RULES[2].0, RULES[3].0, RULES[4].0];

/// Configuration of one metropolis run.
#[derive(Clone, Debug)]
pub struct MetroConfig {
    /// Population size.
    pub nodes: usize,
    /// Simulated days (the mobility window is `days × 24 h`).
    pub days: u64,
    /// Number of posts injected over the first half of the window.
    pub posts: usize,
    /// Subscribers drawn per post (author excluded).
    pub subscribers_per_post: usize,
    /// Probability a subscriber is drawn from the author's home
    /// district instead of city-wide (interest locality).
    pub local_bias: f64,
    /// Initial copy budget per post for spray-and-wait.
    pub spray_copies: u32,
    /// Ring-buffer size of recent partners remembered per node by the
    /// interest-predictive scheme.
    pub recent_partners: usize,
    /// Scenario seed (mobility, post times, authorship, subscribers).
    pub seed: u64,
    /// Contact-detection tick.
    pub tick: SimDuration,
    /// Radio range, metres.
    pub range_m: f64,
    /// Shard count for the contact kernel (0 = one per core).
    pub shards: usize,
    /// Epoch length in ticks for the boundary-handoff protocol.
    pub epoch_ticks: u64,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

impl MetroConfig {
    /// A config scaled to `nodes`: the district grid grows with the
    /// population (via [`MetropolisConfig::for_population`]) and the
    /// post corpus grows as `nodes / 200` so workload per node stays
    /// roughly constant from 10 k to 1 M.
    pub fn for_nodes(nodes: usize) -> MetroConfig {
        MetroConfig {
            nodes,
            days: 2,
            posts: (nodes / 200).max(16),
            subscribers_per_post: 20,
            local_bias: 0.7,
            spray_copies: 8,
            recent_partners: 4,
            seed: 7,
            tick: SimDuration::from_secs(30),
            range_m: 60.0,
            shards: 0,
            epoch_ticks: 32,
            threads: 0,
        }
    }
}

/// Per-scheme delivery metrics from one run.
#[derive(Clone, Debug, PartialEq)]
pub struct SchemeMetrics {
    /// The routing scheme.
    pub scheme: SchemeKind,
    /// `(post, subscriber)` pairs that received their post.
    pub delivered: usize,
    /// Total `(post, subscriber)` pairs.
    pub targets: usize,
    /// User-to-user transfers performed (cost).
    pub transfers: u64,
    /// Median delivery delay, hours (`None` when nothing delivered).
    pub delay_p50_h: Option<f64>,
    /// 90th-percentile delivery delay, hours.
    pub delay_p90_h: Option<f64>,
}

impl SchemeMetrics {
    /// Delivered fraction of all `(post, subscriber)` targets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.targets == 0 {
            0.0
        } else {
            self.delivered as f64 / self.targets as f64
        }
    }
}

/// Outcome of one metropolis run.
#[derive(Clone, Debug, PartialEq)]
pub struct MetroOutcome {
    /// Population size.
    pub nodes: usize,
    /// Districts in the city grid.
    pub districts: usize,
    /// Posts injected.
    pub posts: usize,
    /// Contact-up transitions observed.
    pub contacts: u64,
    /// Total contact transitions (up + down).
    pub events: u64,
    /// Per-scheme metrics, in [`METRO_SCHEMES`] order.
    pub schemes: Vec<SchemeMetrics>,
}

/// Rows of a node's block: the subscription mask, a have-row per rule.
const ROWS: usize = 1 + RULES.len();

/// An empty slot of a partner ring.
const NO_PARTNER: u32 = u32::MAX;

/// The positions of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let at = word.trailing_zeros() as usize;
        (word != 0).then(|| {
            word &= word - 1;
            at
        })
    })
}

/// What one scheme has moved so far.
#[derive(Default)]
struct Tally {
    transfers: u64,
    /// One delay (ms) per delivered `(post, subscriber)` pair.
    delays: Vec<u64>,
}

/// The reduced model's whole state: the post corpus, the node-major bit
/// grid, and what the two stateful schemes keep beside it.
struct Evaluator {
    /// Author and injection time per post, times ascending.
    authors: Vec<u32>,
    times: Vec<SimTime>,
    /// Total `(post, subscriber)` pairs.
    targets: usize,
    /// Words per row.
    words: usize,
    /// `nodes × ROWS × words`.
    bits: Vec<u64>,
    /// Per node, bit `i` set once it holds anything under `RULES[i]`:
    /// most have-rows stay empty, and two empty rows exchange nothing.
    live: Vec<u8>,
    /// Interest-predictive: `ring_cap` recent partners per node, oldest
    /// first, padded with [`NO_PARTNER`].
    ring: Vec<u32>,
    ring_cap: usize,
    /// Spray-and-wait: sparse `(post, copies)` per node, sorted by post.
    copies: Vec<Vec<(u32, u32)>>,
    spray_copies: u32,
    tallies: [Tally; RULES.len()],
}

impl Evaluator {
    /// An evaluator for posts injected at `times` (ascending), with no
    /// author or subscriber yet.
    fn new(nodes: usize, times: Vec<SimTime>, recent_partners: usize, spray_copies: u32) -> Self {
        let words = times.len().div_ceil(64);
        let ring_cap = recent_partners.max(1);
        Evaluator {
            authors: Vec::with_capacity(times.len()),
            times,
            targets: 0,
            words,
            bits: vec![0; nodes * ROWS * words],
            live: vec![0; nodes],
            ring: vec![NO_PARTNER; nodes * ring_cap],
            ring_cap,
            copies: vec![Vec::new(); nodes],
            spray_copies: spray_copies.max(1),
            tallies: Default::default(),
        }
    }

    /// Draws the corpus: injection times over the first half of the
    /// window (so late posts still have time to propagate), then per
    /// post an author and its subscribers.
    fn generate(cfg: &MetroConfig, metro: &Metropolis, rng: &mut StdRng) -> Evaluator {
        let nodes = cfg.nodes;
        let horizon = SimTime::from_hours(24 * cfg.days).as_millis() / 2;
        let mut times: Vec<SimTime> = (0..cfg.posts)
            .map(|_| SimTime::from_millis(rng.gen_range(0..horizon.max(1))))
            .collect();
        times.sort_unstable();
        let mut eval = Evaluator::new(nodes, times, cfg.recent_partners, cfg.spray_copies);
        for m in 0..cfg.posts {
            let author = rng.gen_range(0..nodes) as u32;
            eval.authors.push(author);
            let local = metro.district_members(metro.home_district(author as usize));
            let mut drawn = 0;
            // Bounded attempts so tiny populations cannot loop forever
            // when the district has fewer members than requested.
            for _ in 0..cfg.subscribers_per_post * 8 {
                if drawn == cfg.subscribers_per_post {
                    break;
                }
                let cand = if rng.gen_bool(cfg.local_bias.clamp(0.0, 1.0)) && !local.is_empty() {
                    local[rng.gen_range(0..local.len())]
                } else {
                    rng.gen_range(0..nodes) as u32
                };
                if cand != author && eval.subscribe(cand as usize, m) {
                    drawn += 1;
                }
            }
        }
        eval
    }

    /// Index of word `w` of `node`'s `row`.
    fn at(&self, node: usize, row: usize, w: usize) -> usize {
        (node * ROWS + row) * self.words + w
    }

    fn subs(&self, node: usize, w: usize) -> u64 {
        self.bits[self.at(node, 0, w)]
    }

    /// Subscribes `node` to post `m`; `false` if it already was.
    fn subscribe(&mut self, node: usize, m: usize) -> bool {
        let (at, bit) = (self.at(node, 0, m / 64), 1u64 << (m % 64));
        let fresh = self.bits[at] & bit == 0;
        self.bits[at] |= bit;
        self.targets += usize::from(fresh);
        fresh
    }

    /// The author publishes post `m` under every scheme.
    fn inject(&mut self, m: usize) {
        let author = self.authors[m] as usize;
        for row in 1..ROWS {
            let at = self.at(author, row, m / 64);
            self.bits[at] |= 1 << (m % 64);
        }
        self.live[author] = !0;
        // Posts are injected in time order, not id order.
        let list = &mut self.copies[author];
        let at = list.partition_point(|&(p, _)| p < m as u32);
        list.insert(at, (m as u32, self.spray_copies));
    }

    /// One contact between `a` and `b` at `t`, folded over both blocks
    /// once: every scheme, both directions. A post only moves to a node
    /// that lacks it and nothing one side gains is news to the other,
    /// so both directions read the same two words.
    fn contact(&mut self, a: usize, b: usize, t: SimTime) {
        let live = self.live[a] | self.live[b];
        for (i, (_, masks)) in RULES.iter().enumerate() {
            if live >> i & 1 == 0 {
                continue;
            }
            for w in 0..self.words {
                let (ha, hb) = (
                    self.bits[self.at(a, 1 + i, w)],
                    self.bits[self.at(b, 1 + i, w)],
                );
                for (from, to, news) in [(a, b, ha & !hb), (b, a, hb & !ha)] {
                    if news == 0 {
                        continue;
                    }
                    match *masks {
                        Some((offer, want)) => {
                            let fresh = self.admit(offer, want, from, to, w, news);
                            self.take(i, to, w, fresh, t);
                        }
                        None => self.spray(i, from, to, w, news, t),
                    }
                }
            }
        }
        self.remember(a, b as u32);
        self.remember(b, a as u32);
    }

    /// The part of `news` (word `w` of what `from` holds and `to`
    /// lacks) that `from` offers and `to` wants.
    fn admit(&self, offer: Offer, want: Want, from: usize, to: usize, w: usize, news: u64) -> u64 {
        let wanted = news
            & match want {
                Want::All => !0,
                Want::Subscribed => self.subs(to, w),
                // Prefetch what recently-met nodes subscribe to, so a
                // later contact with them can deliver at one hop.
                Want::SubscribedOrRing => self.ring[to * self.ring_cap..][..self.ring_cap]
                    .iter()
                    .take_while(|&&p| p != NO_PARTNER)
                    .fold(self.subs(to, w), |acc, &p| acc | self.subs(p as usize, w)),
            };
        match offer {
            Offer::All => wanted,
            // Authorship is kept per post, not as a sixth row: the few
            // wanted bits are checked one by one.
            Offer::Authored => set_bits(wanted)
                .filter(|k| self.authors[w * 64 + k] as usize == from)
                .fold(0, |fresh, k| fresh | 1 << k),
        }
    }

    /// Node `to` stores the posts `fresh` of word `w` under scheme `i`
    /// at `t`: each is a transfer, and a delivery where `to` subscribes.
    fn take(&mut self, i: usize, to: usize, w: usize, fresh: u64, t: SimTime) {
        if fresh == 0 {
            return;
        }
        let at = self.at(to, 1 + i, w);
        self.bits[at] |= fresh;
        self.live[to] |= 1 << i;
        let delivered = fresh & self.subs(to, w);
        let tally = &mut self.tallies[i];
        tally.transfers += u64::from(fresh.count_ones());
        for k in set_bits(delivered) {
            let published = self.times[w * 64 + k].as_millis();
            tally.delays.push(t.as_millis().saturating_sub(published));
        }
    }

    /// Spray-and-wait `from → to` over `news`: a subscriber is served
    /// for free and receives no budget; anyone else takes half of a
    /// budget that can still be halved.
    fn spray(&mut self, i: usize, from: usize, to: usize, w: usize, news: u64, t: SimTime) {
        for k in 0..self.copies[from].len() {
            let (m, c) = self.copies[from][k];
            let bit = 1u64 << (m % 64);
            if m as usize / 64 != w || news & bit == 0 {
                continue;
            }
            if self.subs(to, w) & bit == 0 {
                if c < 2 {
                    continue;
                }
                let give = c / 2;
                self.copies[from][k].1 = c - give;
                let list = &mut self.copies[to];
                let at = list.partition_point(|&(p, _)| p < m);
                list.insert(at, (m, give));
            }
            self.take(i, to, w, bit, t);
        }
    }

    /// Puts `partner` on `node`'s ring unless it is there, pushing the
    /// oldest partner out of a full ring.
    fn remember(&mut self, node: usize, partner: u32) {
        let ring = &mut self.ring[node * self.ring_cap..][..self.ring_cap];
        // Padding follows the partners, so a hit is `partner` itself or
        // the first free slot.
        match ring.iter().position(|&p| p == partner || p == NO_PARTNER) {
            Some(at) => ring[at] = partner,
            None => {
                ring.copy_within(1.., 0);
                ring[self.ring_cap - 1] = partner;
            }
        }
    }

    fn metrics(mut self) -> Vec<SchemeMetrics> {
        let targets = self.targets;
        let of = |(&(scheme, _), tally): (&(SchemeKind, _), &mut Tally)| {
            let delays = &mut tally.delays;
            delays.sort_unstable();
            let quantile = |q: f64| -> Option<f64> {
                let last = delays.len().checked_sub(1)?;
                let at = ((last as f64 * q).round() as usize).min(last);
                Some(delays[at] as f64 / 3_600_000.0)
            };
            SchemeMetrics {
                scheme,
                delivered: delays.len(),
                targets,
                transfers: tally.transfers,
                delay_p50_h: quantile(0.5),
                delay_p90_h: quantile(0.9),
            }
        };
        RULES.iter().zip(&mut self.tallies).map(of).collect()
    }
}

/// Runs the metropolis scenario once, blind: generates the city and
/// its population, streams the sharded contact kernel over the full
/// window, and evaluates all five schemes in that single pass.
pub fn run_metropolis(cfg: &MetroConfig) -> MetroOutcome {
    run_metropolis_observed(cfg, None)
}

/// [`run_metropolis`], optionally with a [`RunObserver`] attached: the
/// merged contact stream is journaled (attributed to the lower node of
/// each edge), run totals land in the registry as `metro/*` counters,
/// and per-scheme delivery/transfer counters land under
/// `metro/<scheme>/*`.
///
/// Observation is passive — the returned outcome is byte-identical to
/// the blind run — and the captured journal inherits the sharded
/// kernel's stream guarantee, so the observed report is shard-count
/// invariant. At metropolis scale the default journal ring overflows;
/// that is reported honestly via [`sos_obs::Journal::dropped`] (size
/// the ring with [`RunObserver::with_journal_capacity`] to keep the
/// whole stream).
pub fn run_metropolis_observed(cfg: &MetroConfig, observer: Option<&RunObserver>) -> MetroOutcome {
    assert!(cfg.nodes >= 2, "metropolis needs at least two nodes");
    assert!(cfg.days > 0, "metropolis needs a non-empty window");
    assert!(cfg.posts > 0, "metropolis needs posts to route");
    let mcfg = MetropolisConfig {
        days: cfg.days,
        ..MetropolisConfig::for_population(cfg.nodes)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let metro = Metropolis::new(mcfg, cfg.nodes, &mut rng);
    let mut eval = Evaluator::generate(cfg, &metro, &mut rng);
    let districts = metro.district_count();
    let set = metro.generate_all(cfg.seed);
    let engine = ShardedContactEngine::new(
        set,
        cfg.range_m,
        cfg.tick,
        ShardConfig {
            shards: cfg.shards,
            epoch_ticks: cfg.epoch_ticks,
            threads: cfg.threads,
        },
    );
    let end = SimTime::from_hours(24 * cfg.days);

    let mut cursor = 0usize;
    let (mut contacts, mut events) = (0u64, 0u64);
    let journal = observer.map(|o| o.journal.clone());
    engine.for_each_epoch(SimTime::ZERO, end, |epoch| {
        for ev in epoch {
            events += 1;
            while cursor < eval.times.len() && eval.times[cursor] <= ev.time {
                eval.inject(cursor);
                cursor += 1;
            }
            if ev.phase == ContactPhase::Up {
                contacts += 1;
                eval.contact(ev.a, ev.b, ev.time);
            }
            if let Some(journal) = &journal {
                let (a, b) = (ev.a as u32, ev.b as u32);
                journal.push(JournalEntry {
                    time: ev.time,
                    node: a,
                    event: match ev.phase {
                        ContactPhase::Up => ObsEvent::ContactUp { a, b },
                        ContactPhase::Down => ObsEvent::ContactDown { a, b },
                    },
                });
            }
        }
    });

    let outcome = MetroOutcome {
        nodes: cfg.nodes,
        districts,
        posts: eval.times.len(),
        contacts,
        events,
        schemes: eval.metrics(),
    };
    if let Some(observer) = observer {
        let registry = &observer.registry;
        registry.counter("metro/contacts").add(outcome.contacts);
        registry.counter("metro/events").add(outcome.events);
        registry.counter("metro/posts").add(outcome.posts as u64);
        for s in &outcome.schemes {
            let prefix = format!("metro/{}", s.scheme.name());
            registry
                .counter(&format!("{prefix}/delivered"))
                .add(s.delivered as u64);
            registry
                .counter(&format!("{prefix}/transfers"))
                .add(s.transfers);
        }
    }
    outcome
}

/// Renders the observed METRO-REPORT: run totals, the per-scheme table,
/// `metro/*` registry counters, and the journal summary.
///
/// Wall-clock self-profile data is deliberately excluded, so the
/// rendered bytes are deterministic — equal across repeat runs and
/// across contact-kernel shard counts.
pub fn metro_report(outcome: &MetroOutcome, observation: &RunObservation) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== METRO-REPORT {} nodes, {} districts ===\n",
        outcome.nodes, outcome.districts
    ));
    out.push_str(&format!(
        "posts {}  contact-ups {}  transitions {}\n\n",
        outcome.posts, outcome.contacts, outcome.events
    ));
    out.push_str(&crate::report::metro_table(std::slice::from_ref(outcome)));
    out.push_str("\nmetro counters:\n");
    for (name, v) in &observation.metrics.counters {
        if name.starts_with("metro/") {
            out.push_str(&format!("    {name:<32} {v}\n"));
        }
    }
    out.push('\n');
    out.push_str(&crate::report::journal_summary(&observation.journal));
    out
}

/// Runs the scenario at each population in `populations`, scaling the
/// city and post corpus with [`MetroConfig::for_nodes`] while keeping
/// `base`'s window, seed, kernel, and scheme parameters.
pub fn metropolis_sweep(base: &MetroConfig, populations: &[usize]) -> Vec<MetroOutcome> {
    populations
        .iter()
        .map(|&nodes| {
            let scaled = MetroConfig::for_nodes(nodes);
            run_metropolis(&MetroConfig {
                nodes,
                posts: scaled.posts,
                ..base.clone()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sos_core::routing::{InterestBased, RoutingContext, RoutingScheme};
    use sos_core::{Bundle, MessageKind, SosMessage};
    use sos_crypto::ca::CertificateAuthority;
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::x25519::AgreementKey;
    use sos_crypto::UserId;
    use sos_net::{Advertisement, PeerId};
    use std::collections::{BTreeMap, BTreeSet};

    fn tiny() -> MetroConfig {
        MetroConfig {
            nodes: 240,
            days: 1,
            posts: 24,
            seed: 11,
            ..MetroConfig::for_nodes(240)
        }
    }

    #[test]
    fn runs_end_to_end_and_orders_schemes() {
        let out = run_metropolis(&tiny());
        assert_eq!(out.schemes.len(), METRO_SCHEMES.len());
        assert!(out.contacts > 0, "a district should produce contacts");
        let by = |k: SchemeKind| {
            out.schemes
                .iter()
                .find(|s| s.scheme == k)
                .map(|s| (s.delivered, s.transfers))
                .unwrap_or((0, 0))
        };
        let (epi_d, epi_t) = by(SchemeKind::Epidemic);
        let (ib_d, ib_t) = by(SchemeKind::InterestBased);
        let (ip_d, ip_t) = by(SchemeKind::InterestPredictive);
        let (dir_d, dir_t) = by(SchemeKind::Direct);
        // Epidemic floods: it can never deliver less, nor transfer
        // less, than interest-based on the same encounters.
        assert!(epi_d >= ib_d && epi_t >= ib_t);
        // Predictive is interest-based plus prefetching: supersets both.
        assert!(ip_d >= ib_d && ip_t >= ib_t);
        // Direct is the floor: author-to-subscriber only.
        assert!(ib_d >= dir_d && ib_t >= dir_t);
        assert!(epi_d > 0, "epidemic should deliver something in a day");
    }

    #[test]
    fn outcome_is_independent_of_shard_count() {
        // The sharded kernel's stream is byte-identical at any K, and
        // the scheme evaluation is a deterministic fold over it — so
        // metrics must match exactly across shard counts.
        let base = tiny();
        let one = run_metropolis(&MetroConfig {
            shards: 1,
            threads: 1,
            ..base.clone()
        });
        let four = run_metropolis(&MetroConfig {
            shards: 4,
            threads: 2,
            ..base.clone()
        });
        assert_eq!(one, four);
    }

    #[test]
    fn observed_run_is_passive_and_report_is_shard_count_invariant() {
        let base = tiny();
        let blind = run_metropolis(&base);

        let run_observed = |shards: usize, threads: usize| {
            let observer = RunObserver::new();
            let outcome = run_metropolis_observed(
                &MetroConfig {
                    shards,
                    threads,
                    ..base.clone()
                },
                Some(&observer),
            );
            let observation = observer.finish();
            let report = metro_report(&outcome, &observation);
            (outcome, observation, report)
        };
        let (one, obs_one, report_one) = run_observed(1, 1);
        let (four, _, report_four) = run_observed(4, 2);

        // Observation is passive and the stream is shard-invariant.
        assert_eq!(blind, one);
        assert_eq!(one, four);
        // The merged contact stream is byte-identical at any K, so the
        // observed report must match to the byte.
        assert_eq!(report_one, report_four);
        assert!(report_one.contains("METRO-REPORT"));
        assert!(report_one.contains("metro/contacts"));
        // The journal saw exactly the contact transitions (ring
        // permitting — drops are reported, not hidden).
        let journal = &obs_one.journal;
        assert_eq!(journal.len() as u64 + journal.dropped(), one.events);
        assert_eq!(obs_one.metrics.counters["metro/contacts"], one.contacts);
        // Counters are the whole registry surface of a metropolis run.
        assert!(obs_one.metrics.histograms.is_empty());
    }

    #[test]
    fn sweep_runs_each_population() {
        let outcomes = metropolis_sweep(&tiny(), &[240, 480]);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].nodes, 240);
        assert_eq!(outcomes[1].nodes, 480);
        // Post corpus comes from `for_nodes` scaling (floored at 16).
        assert_eq!(outcomes[0].posts, MetroConfig::for_nodes(240).posts);
        assert_eq!(outcomes[1].posts, MetroConfig::for_nodes(480).posts);
        let table = crate::report::metro_table(&outcomes);
        assert!(table.contains("  epidemic  "), "{table}");
    }

    /// The per-post rule the mask rule replaced, kept as its reference:
    /// one have-set per scheme per node, walked a post at a time, the
    /// subscribers looked up per post.
    struct Reference {
        authors: Vec<u32>,
        times: Vec<SimTime>,
        /// Subscriber nodes per post.
        subs: Vec<BTreeSet<usize>>,
        /// `have[scheme][node]`.
        have: Vec<Vec<BTreeSet<usize>>>,
        copies: Vec<BTreeMap<usize, u32>>,
        recent: Vec<Vec<usize>>,
        recent_cap: usize,
        spray_copies: u32,
        transfers: Vec<u64>,
        /// Delays in hours per scheme.
        delays: Vec<Vec<f64>>,
    }

    impl Reference {
        fn inject(&mut self, m: usize) {
            let author = self.authors[m] as usize;
            for have in &mut self.have {
                have[author].insert(m);
            }
            self.copies[author].insert(m, self.spray_copies);
        }

        fn hand_over(&mut self, i: usize, to: usize, m: usize, t: SimTime) {
            if self.have[i][to].insert(m) {
                self.transfers[i] += 1;
                if self.subs[m].contains(&to) {
                    let ms = t.as_millis() - self.times[m].as_millis();
                    self.delays[i].push(ms as f64 / 3_600_000.0);
                }
            }
        }

        fn exchange(&mut self, i: usize, from: usize, to: usize, t: SimTime) {
            let held: Vec<usize> = self.have[i][from].iter().copied().collect();
            for m in held {
                let subscribed = self.subs[m].contains(&to);
                let hand_over = match METRO_SCHEMES[i] {
                    SchemeKind::Epidemic => true,
                    SchemeKind::InterestBased => subscribed,
                    SchemeKind::Direct => subscribed && self.authors[m] as usize == from,
                    SchemeKind::InterestPredictive => {
                        let ring = &self.recent[to];
                        subscribed || ring.iter().any(|r| self.subs[m].contains(r))
                    }
                    SchemeKind::SprayAndWait => match self.copies[from].get(&m).copied() {
                        None => false,
                        Some(_) if subscribed => true,
                        Some(c) if c >= 2 && !self.have[i][to].contains(&m) => {
                            self.copies[from].insert(m, c - c / 2);
                            self.copies[to].insert(m, c / 2);
                            true
                        }
                        Some(_) => false,
                    },
                    SchemeKind::Custom(name) => panic!("{name} is not a metropolis scheme"),
                };
                if hand_over {
                    self.hand_over(i, to, m, t);
                }
            }
        }

        /// Both directions, lower-indexed call first, then the rings.
        fn contact(&mut self, a: usize, b: usize, t: SimTime) {
            for i in 0..METRO_SCHEMES.len() {
                self.exchange(i, a, b, t);
                self.exchange(i, b, a, t);
            }
            for (node, partner) in [(a, b), (b, a)] {
                let ring = &mut self.recent[node];
                if !ring.contains(&partner) {
                    if ring.len() == self.recent_cap {
                        ring.remove(0);
                    }
                    ring.push(partner);
                }
            }
        }

        fn metrics(mut self) -> Vec<SchemeMetrics> {
            let targets = self.subs.iter().map(BTreeSet::len).sum();
            let of = |(i, &scheme): (usize, &SchemeKind)| {
                let delays = &mut self.delays[i];
                delays.sort_unstable_by(f64::total_cmp);
                let quantile = |q: f64| {
                    let at = ((delays.len().max(1) - 1) as f64 * q).round() as usize;
                    delays.get(at).copied()
                };
                SchemeMetrics {
                    scheme,
                    delivered: delays.len(),
                    targets,
                    transfers: self.transfers[i],
                    delay_p50_h: quantile(0.5),
                    delay_p90_h: quantile(0.9),
                }
            };
            METRO_SCHEMES.iter().enumerate().map(of).collect()
        }
    }

    /// The posts `node` holds under scheme `i`, read off the grid.
    fn holdings(eval: &Evaluator, i: usize, node: usize) -> BTreeSet<usize> {
        (0..eval.times.len())
            .filter(|m| eval.bits[eval.at(node, 1 + i, m / 64)] >> (m % 64) & 1 == 1)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random streams — repeated pairs, equal timestamps, posts
        /// injected mid-stream — folded by the mask rule and by the
        /// per-post reference: same metrics, same final state.
        #[test]
        fn mask_rule_matches_the_per_post_reference(
            seed in any::<u64>(),
            nodes in 2usize..=48,
            posts in 1usize..=200,
            contacts in 0usize..=3000,
            recent_partners in 1usize..=6,
            spray_copies in 1u32..=16,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // About one step in three shares its timestamp with the last.
            let end = contacts as u64 * 20_000;
            let mut times: Vec<SimTime> = (0..posts)
                .map(|_| SimTime::from_millis(rng.gen_range(0..=end)))
                .collect();
            times.sort_unstable();
            let mut eval = Evaluator::new(nodes, times.clone(), recent_partners, spray_copies);
            let mut subs = vec![BTreeSet::new(); posts];
            for (m, subscribers) in subs.iter_mut().enumerate() {
                let author = rng.gen_range(0..nodes);
                eval.authors.push(author as u32);
                for _ in 0..rng.gen_range(0..8) {
                    let node = rng.gen_range(0..nodes);
                    if node != author {
                        assert_eq!(eval.subscribe(node, m), subscribers.insert(node));
                    }
                }
            }
            let mut reference = Reference {
                authors: eval.authors.clone(),
                times,
                subs,
                have: vec![vec![BTreeSet::new(); nodes]; METRO_SCHEMES.len()],
                copies: vec![BTreeMap::new(); nodes],
                recent: vec![Vec::new(); nodes],
                recent_cap: recent_partners,
                spray_copies,
                transfers: vec![0; METRO_SCHEMES.len()],
                delays: vec![Vec::new(); METRO_SCHEMES.len()],
            };

            // A few nodes meet again and again; the rest now and then.
            let crowd = nodes.min(6);
            let (mut now, mut cursor) = (0u64, 0usize);
            for _ in 0..contacts {
                now += [0u64, 15_000, 45_000][rng.gen_range(0..3usize)];
                let t = SimTime::from_millis(now);
                while cursor < posts && reference.times[cursor] <= t {
                    eval.inject(cursor);
                    reference.inject(cursor);
                    cursor += 1;
                }
                let pool = if rng.gen_bool(0.5) { crowd } else { nodes };
                let (a, b) = (rng.gen_range(0..pool), rng.gen_range(0..pool));
                if a != b {
                    eval.contact(a.min(b), a.max(b), t);
                    reference.contact(a.min(b), a.max(b), t);
                }
            }

            for (i, scheme) in METRO_SCHEMES.iter().enumerate() {
                for (node, expected) in reference.have[i].iter().enumerate() {
                    let held = holdings(&eval, i, node);
                    prop_assert_eq!(&held, expected, "{} at node {}", scheme, node);
                }
            }
            for node in 0..nodes {
                let copies: BTreeMap<usize, u32> =
                    eval.copies[node].iter().map(|&(m, c)| (m as usize, c)).collect();
                prop_assert_eq!(&copies, &reference.copies[node], "copies at node {}", node);
                let ring: Vec<usize> = eval.ring[node * eval.ring_cap..][..eval.ring_cap]
                    .iter()
                    .take_while(|&&p| p != NO_PARTNER)
                    .map(|&p| p as usize)
                    .collect();
                prop_assert_eq!(&ring, &reference.recent[node], "ring of node {}", node);
            }
            prop_assert_eq!(eval.metrics(), reference.metrics());
        }
    }

    /// A signed post by `author`, as `should_carry` wants to see one.
    fn bundle_from(author: UserId) -> Bundle {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let cert = ca.issue(author, "author", sk.verifying_key(), *ak.public(), 0);
        let post = MessageKind::Post;
        let msg = SosMessage::create(&sk, author, 1, SimTime::ZERO, post, b"x".to_vec());
        Bundle::new(msg, cert)
    }

    /// Decision-level differential against `sos_core::routing`, in a
    /// universe where per-post and per-author subscriptions coincide:
    /// three authors with one post each, `from` one of them, `to` a
    /// fourth user, every subscription set of `to` and every holding
    /// set of both.
    ///
    /// Covered: `Epidemic`, `Direct`, `InterestBased` without holdoff.
    /// Not covered, each for the divergence that prevents it:
    ///
    /// * interest-predictive — a partner ring here, a decayed
    ///   request-demand score with a threshold there;
    /// * spray-and-wait — free deliveries to subscribers and no wait
    ///   phase here, `on_serve` budgets and `should_advertise` there.
    #[test]
    fn table_decides_what_the_middleware_schemes_decide() {
        const TO: usize = 3;
        let users: Vec<UserId> = ["alice", "bob", "carol", "dave"]
            .iter()
            .map(|name| UserId::from_str_padded(name))
            .collect();
        let bundles: Vec<Bundle> = users[..TO].iter().map(|&u| bundle_from(u)).collect();
        let set_of = |mask: u64| (0..TO).filter(move |m| mask >> m & 1 == 1);
        let real = |scheme: SchemeKind| -> Box<dyn RoutingScheme> {
            match scheme {
                SchemeKind::InterestBased => {
                    Box::new(InterestBased::with_holdoff(SimDuration::ZERO))
                }
                other => other.build(),
            }
        };
        let covered = [
            SchemeKind::Epidemic,
            SchemeKind::Direct,
            SchemeKind::InterestBased,
        ];
        for (i, &(kind, masks)) in RULES.iter().enumerate() {
            let Some((offer, want)) = masks.filter(|_| covered.contains(&kind)) else {
                continue;
            };
            let mut scheme = real(kind);
            for from in 0..TO {
                for (subs, held, mine) in (0..1u64 << (3 * TO)).map(|n| (n & 7, n >> 3 & 7, n >> 6))
                {
                    let mut eval = Evaluator::new(TO + 1, vec![SimTime::ZERO; TO], 4, 8);
                    eval.authors = (0..TO as u32).collect();
                    for m in set_of(subs) {
                        eval.subscribe(TO, m);
                    }
                    let at = eval.at(from, 1 + i, 0);
                    eval.bits[at] = held;
                    let at = eval.at(TO, 1 + i, 0);
                    eval.bits[at] = mine;
                    let fresh = eval.admit(offer, want, from, TO, 0, held & !mine);

                    let subscriptions = set_of(subs).map(|m| users[m]).collect();
                    let summary = set_of(mine).map(|m| (users[m], 1)).collect();
                    let ctx = RoutingContext {
                        me: &users[TO],
                        subscriptions: &subscriptions,
                        summary: &summary,
                        now: SimTime::ZERO,
                    };
                    let mut ad = Advertisement::new(PeerId(from as u32), users[from]);
                    for m in set_of(held) {
                        ad.insert(users[m], 1);
                    }
                    let mut pulled = scheme.interests(&ctx, &ad);
                    pulled.sort_unstable();
                    let case = format!(
                        "{kind}: {from} → to, subs {subs:03b}, held {held:03b}, mine {mine:03b}"
                    );
                    assert_eq!(
                        set_of(fresh).map(|m| users[m]).collect::<Vec<_>>(),
                        pulled,
                        "{case}"
                    );

                    // What `to` took it offers later exactly where the
                    // real scheme carries it.
                    eval.take(i, TO, 0, fresh, SimTime::ZERO);
                    let offered = eval.admit(offer, Want::All, TO, from, 0, fresh);
                    for m in set_of(fresh) {
                        let carried = scheme.should_carry(&ctx, &bundles[m]);
                        assert_eq!(offered >> m & 1 == 1, carried, "{case}, post {m}");
                    }
                }
            }
        }
    }
}
