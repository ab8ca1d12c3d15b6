//! The million-node metropolis scenario (scaling evaluation).
//!
//! The paper's field study covers ten nodes; its companion platform
//! exists to answer "what happens at city scale". This module is that
//! experiment: a districts-and-transit metropolis population
//! ([`sos_sim::mobility::Metropolis`]) streamed through the sharded
//! contact kernel ([`sos_engine::ShardedContactEngine`]), with all five
//! built-in routing schemes evaluated *in one pass* over the contact
//! stream.
//!
//! The full middleware stack (stores, sync frames, crypto) costs too
//! much per node to carry to 10⁶ nodes, so the schemes run on a
//! reduced state machine that keeps exactly what delivery/delay/cost
//! metrics need: one have-bitset per node per scheme, per-node
//! subscription lists, and (for spray-and-wait) sparse copy counters.
//! The exchange rules are a *reduced model*, not a mirror of
//! `sos_core::routing`: epidemic floods, direct waits for the author,
//! interest-based pulls subscribed posts, interest-predictive
//! additionally prefetches what recent partners subscribe to, and
//! spray-and-wait hands off half its copies — but they diverge from
//! the middleware in ways known to move scheme rankings (Moreira &
//! Mendes, *Impact of Human Behavior on Social Opportunistic
//! Forwarding*). The named divergences, which are the specification
//! for ROADMAP's differential harness:
//!
//! * subscriptions are per *post* here and per *author* in the
//!   middleware;
//! * interest-based has no 2 h forwarder holdoff;
//! * interest-predictive prefetches for a ring of the last
//!   `recent_partners` (4) partners, where the middleware keeps a
//!   decayed request-demand score with a threshold;
//! * spray-and-wait deliveries to subscribers do not spend copy
//!   budget, and there is no `should_advertise` wait phase;
//! * no TTL, store capacity, advertisement cadence, handshake refusals
//!   or link loss;
//! * `TrustAware` is absent.
//!
//! Contacts are processed in stream order and both directions of a
//! contact exchange sequentially (lower node first), so the whole
//! evaluation is deterministic for a given seed and — because the
//! sharded kernel's stream is byte-identical at any shard count —
//! independent of `shards`/`threads`.

use crate::observe::{RunObservation, RunObserver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_core::routing::SchemeKind;
use sos_engine::{ShardConfig, ShardedContactEngine};
use sos_obs::{JournalEntry, ObsEvent};
use sos_sim::mobility::{Metropolis, MetropolisConfig};
use sos_sim::{ContactPhase, SimDuration, SimTime};

/// The five built-in schemes the scenario compares, in report order.
pub const METRO_SCHEMES: [SchemeKind; 5] = [
    SchemeKind::Epidemic,
    SchemeKind::InterestPredictive,
    SchemeKind::InterestBased,
    SchemeKind::SprayAndWait,
    SchemeKind::Direct,
];

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

/// The post corpus: authorship, injection times (ascending), and
/// subscriber sets, plus the per-node inverse index.
struct Posts {
    authors: Vec<u32>,
    times: Vec<SimTime>,
    /// Sorted subscriber node ids per post.
    subs: Vec<Vec<u32>>,
    /// Sorted post ids each node subscribes to.
    sub_of: Vec<Vec<u32>>,
    targets: usize,
}

impl Posts {
    fn generate(cfg: &MetroConfig, metro: &Metropolis, rng: &mut StdRng) -> Posts {
        let nodes = cfg.nodes;
        // Injection times fill the first half of the window so late
        // posts still have time to propagate; sorted so the run loop
        // can inject with a single cursor.
        let horizon = SimTime::from_hours(24 * cfg.days).as_millis() / 2;
        let mut times: Vec<SimTime> = (0..cfg.posts)
            .map(|_| SimTime::from_millis(rng.gen_range(0..horizon.max(1))))
            .collect();
        times.sort_unstable();
        let mut authors = Vec::with_capacity(cfg.posts);
        let mut subs = Vec::with_capacity(cfg.posts);
        let mut sub_of = vec![Vec::new(); nodes];
        for m in 0..cfg.posts {
            let author = rng.gen_range(0..nodes) as u32;
            let local = metro.district_members(metro.home_district(author as usize));
            let mut set: Vec<u32> = Vec::with_capacity(cfg.subscribers_per_post);
            // Bounded attempts so tiny populations cannot loop forever
            // when the district has fewer members than requested.
            for _ in 0..cfg.subscribers_per_post * 8 {
                if set.len() == cfg.subscribers_per_post {
                    break;
                }
                let cand = if rng.gen_bool(cfg.local_bias.clamp(0.0, 1.0)) && !local.is_empty() {
                    local[rng.gen_range(0..local.len())]
                } else {
                    rng.gen_range(0..nodes) as u32
                };
                if cand == author {
                    continue;
                }
                if let Err(at) = set.binary_search(&cand) {
                    set.insert(at, cand);
                }
            }
            for &s in &set {
                sub_of[s as usize].push(m as u32);
            }
            authors.push(author);
            subs.push(set);
        }
        let targets = subs.iter().map(Vec::len).sum();
        Posts {
            authors,
            times,
            subs,
            sub_of,
            targets,
        }
    }

    fn len(&self) -> usize {
        self.authors.len()
    }
}

/// A flat `nodes × posts` bitset: word-addressed so the epidemic
/// exchange is a per-word union instead of a per-post loop.
struct BitGrid {
    words_per_node: usize,
    bits: Vec<u64>,
}

impl BitGrid {
    fn new(nodes: usize, posts: usize) -> BitGrid {
        let words_per_node = posts.div_ceil(64);
        BitGrid {
            words_per_node,
            bits: vec![0; nodes * words_per_node],
        }
    }

    fn has(&self, node: usize, post: u32) -> bool {
        let w = node * self.words_per_node + post as usize / 64;
        self.bits[w] >> (post % 64) & 1 == 1
    }

    /// Sets the bit; returns `true` if it was newly set.
    fn set(&mut self, node: usize, post: u32) -> bool {
        let w = node * self.words_per_node + post as usize / 64;
        let mask = 1u64 << (post % 64);
        let fresh = self.bits[w] & mask == 0;
        self.bits[w] |= mask;
        fresh
    }

    fn words(&self, node: usize) -> &[u64] {
        &self.bits[node * self.words_per_node..(node + 1) * self.words_per_node]
    }
}

/// One scheme's full state over the population.
struct SchemeState {
    kind: SchemeKind,
    have: BitGrid,
    /// Spray-and-wait only: sparse `(post, copies)` per node, sorted
    /// by post id.
    copies: Vec<Vec<(u32, u32)>>,
    /// Interest-predictive only: recent-partner ring per node.
    recent: Vec<Vec<u32>>,
    /// Delivery time (ms, `u64::MAX` = undelivered) per post per
    /// subscriber rank, mirroring `Posts::subs`.
    delivered: Vec<Vec<u64>>,
    spray_copies: u32,
    recent_cap: usize,
    transfers: u64,
    deliveries: usize,
}

impl SchemeState {
    fn new(kind: SchemeKind, cfg: &MetroConfig, posts: &Posts) -> SchemeState {
        let snw = kind == SchemeKind::SprayAndWait;
        let ip = kind == SchemeKind::InterestPredictive;
        SchemeState {
            kind,
            have: BitGrid::new(cfg.nodes, posts.len()),
            copies: vec![Vec::new(); if snw { cfg.nodes } else { 0 }],
            recent: vec![Vec::new(); if ip { cfg.nodes } else { 0 }],
            delivered: posts.subs.iter().map(|s| vec![u64::MAX; s.len()]).collect(),
            spray_copies: cfg.spray_copies.max(1),
            recent_cap: cfg.recent_partners.max(1),
            transfers: 0,
            deliveries: 0,
        }
    }

    /// The author publishes post `m`.
    fn inject(&mut self, posts: &Posts, m: u32) {
        let author = posts.authors[m as usize] as usize;
        self.have.set(author, m);
        if self.kind == SchemeKind::SprayAndWait {
            // Posts are injected in time order, not id order, so keep
            // the per-node copy list sorted by id for lookups.
            let list = &mut self.copies[author];
            if let Err(at) = list.binary_search_by_key(&m, |&(p, _)| p) {
                list.insert(at, (m, self.spray_copies));
            }
        }
    }

    /// Node `to` newly stores post `m` at `t`: record the delivery if
    /// `to` subscribes to it.
    fn record(&mut self, posts: &Posts, to: usize, m: u32, t: SimTime) {
        if let Ok(rank) = posts.subs[m as usize].binary_search(&(to as u32)) {
            let slot = &mut self.delivered[m as usize][rank];
            if *slot == u64::MAX {
                *slot = t.as_millis();
                self.deliveries += 1;
            }
        }
    }

    /// Gives `to` a copy of `m` if it lacks one; counts the transfer.
    fn hand_over(&mut self, posts: &Posts, to: usize, m: u32, t: SimTime) {
        if self.have.set(to, m) {
            self.transfers += 1;
            self.record(posts, to, m, t);
        }
    }

    /// One directed exchange `from → to` at `t`. `scratch` is a
    /// reusable word buffer for the epidemic union.
    fn exchange(
        &mut self,
        posts: &Posts,
        from: usize,
        to: usize,
        t: SimTime,
        scratch: &mut Vec<u64>,
    ) {
        match self.kind {
            SchemeKind::Epidemic => {
                scratch.clear();
                scratch.extend_from_slice(self.have.words(from));
                let base = to * self.have.words_per_node;
                for (w, &s) in scratch.iter().enumerate() {
                    let fresh = s & !self.have.bits[base + w];
                    if fresh == 0 {
                        continue;
                    }
                    self.have.bits[base + w] |= fresh;
                    self.transfers += u64::from(fresh.count_ones());
                    let mut bits = fresh;
                    while bits != 0 {
                        let m = (w * 64) as u32 + bits.trailing_zeros();
                        self.record(posts, to, m, t);
                        bits &= bits - 1;
                    }
                }
            }
            SchemeKind::Direct => {
                for i in 0..posts.sub_of[to].len() {
                    let m = posts.sub_of[to][i];
                    if posts.authors[m as usize] as usize == from && self.have.has(from, m) {
                        self.hand_over(posts, to, m, t);
                    }
                }
            }
            SchemeKind::InterestBased => {
                for i in 0..posts.sub_of[to].len() {
                    let m = posts.sub_of[to][i];
                    if self.have.has(from, m) {
                        self.hand_over(posts, to, m, t);
                    }
                }
            }
            SchemeKind::InterestPredictive => {
                for i in 0..posts.sub_of[to].len() {
                    let m = posts.sub_of[to][i];
                    if self.have.has(from, m) {
                        self.hand_over(posts, to, m, t);
                    }
                }
                // Prefetch what recently-met nodes subscribe to, so a
                // later contact with them can deliver at one hop
                // (opportunistic caching on predicted encounters).
                for r in 0..self.recent[to].len() {
                    let partner = self.recent[to][r] as usize;
                    for i in 0..posts.sub_of[partner].len() {
                        let m = posts.sub_of[partner][i];
                        if self.have.has(from, m) {
                            self.hand_over(posts, to, m, t);
                        }
                    }
                }
            }
            SchemeKind::SprayAndWait => {
                for i in 0..self.copies[from].len() {
                    let (m, c) = self.copies[from][i];
                    if c == 0 {
                        continue;
                    }
                    let subscribed = posts.subs[m as usize].binary_search(&(to as u32)).is_ok();
                    if subscribed {
                        // Direct delivery to an interested node keeps
                        // the copy budget intact.
                        self.hand_over(posts, to, m, t);
                    } else if c >= 2 && !self.have.has(to, m) {
                        // Binary spray: hand half the budget onward.
                        let give = c / 2;
                        self.copies[from][i].1 = c - give;
                        let list = &mut self.copies[to];
                        if let Err(at) = list.binary_search_by_key(&m, |&(p, _)| p) {
                            list.insert(at, (m, give));
                        }
                        self.hand_over(posts, to, m, t);
                    }
                }
            }
            SchemeKind::Custom(_) => {}
        }
    }

    /// Both directions of one contact, lower-indexed node first, then
    /// the recent-partner rings update (IP only).
    fn contact(&mut self, posts: &Posts, a: usize, b: usize, t: SimTime, scratch: &mut Vec<u64>) {
        self.exchange(posts, a, b, t, scratch);
        self.exchange(posts, b, a, t, scratch);
        if self.kind == SchemeKind::InterestPredictive {
            self.remember(a, b as u32);
            self.remember(b, a as u32);
        }
    }

    fn remember(&mut self, node: usize, partner: u32) {
        let ring = &mut self.recent[node];
        if ring.contains(&partner) {
            return;
        }
        if ring.len() == self.recent_cap {
            ring.remove(0);
        }
        ring.push(partner);
    }

    fn metrics(self, posts: &Posts) -> SchemeMetrics {
        let mut delays: Vec<f64> = Vec::with_capacity(self.deliveries);
        for (m, ranks) in self.delivered.iter().enumerate() {
            let published = posts.times[m].as_millis();
            for &at in ranks {
                if at != u64::MAX {
                    delays.push((at.saturating_sub(published)) as f64 / 3_600_000.0);
                }
            }
        }
        delays.sort_unstable_by(f64::total_cmp);
        let quantile = |q: f64| -> Option<f64> {
            if delays.is_empty() {
                None
            } else {
                let at = ((delays.len() - 1) as f64 * q).round() as usize;
                Some(delays[at.min(delays.len() - 1)])
            }
        };
        SchemeMetrics {
            scheme: self.kind,
            delivered: self.deliveries,
            targets: posts.targets,
            transfers: self.transfers,
            delay_p50_h: quantile(0.5),
            delay_p90_h: quantile(0.9),
        }
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
    let posts = Posts::generate(cfg, &metro, &mut rng);
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

    let mut states: Vec<SchemeState> = METRO_SCHEMES
        .iter()
        .map(|&kind| SchemeState::new(kind, cfg, &posts))
        .collect();
    let mut scratch: Vec<u64> = Vec::new();
    let mut cursor = 0usize;
    let (mut contacts, mut events) = (0u64, 0u64);
    let journal = observer.map(|o| o.journal.clone());
    engine.for_each_epoch(SimTime::ZERO, end, |epoch| {
        for ev in epoch {
            events += 1;
            while cursor < posts.len() && posts.times[cursor] <= ev.time {
                for st in &mut states {
                    st.inject(&posts, cursor as u32);
                }
                cursor += 1;
            }
            if ev.phase == ContactPhase::Up {
                contacts += 1;
                for st in &mut states {
                    st.contact(&posts, ev.a, ev.b, ev.time, &mut scratch);
                }
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
        posts: posts.len(),
        contacts,
        events,
        schemes: states.into_iter().map(|s| s.metrics(&posts)).collect(),
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
    out.push_str(&format!(
        "\njournal: {} entrie(s) retained, {} dropped\n",
        observation.journal.len(),
        observation.journal.dropped()
    ));
    for (kind, n) in observation.journal.counts_by_kind() {
        out.push_str(&format!("    {kind:<18} {n}\n"));
    }
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
}
