//! The one adapter between the ledger and the system under test.
//!
//! Every call into an `sos-*` crate is made here, through the widest
//! existing entry point of each family: `run_corpus_study_full`,
//! `Broker`/`run_daemon`/`run_mesh`, `Sos::handle_frame`,
//! `run_metropolis`, and the trace codec pairs. No other ledger file
//! names a crate of the system, so a refactor that renames a symbol
//! listed in README.md ("Pinned public symbols") edits this file only.
//! None of ROADMAP's deletion candidates is used: no sync v1, no
//! `_on`/`_with`/`_observed` entry point, no `GridContactEngine`.

use rand::SeedableRng;
use sos_core::routing::SchemeKind;
use sos_core::{Bundle, MessageKind, MessageStore, Sos, SosMessage, SosStats};
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::ed25519::SigningKey;
use sos_crypto::x25519::AgreementKey;
use sos_crypto::{aead, Certificate, DeviceIdentity, Signature, UserId};
use sos_engine::{ShardConfig, ShardedContactEngine};
use sos_experiments::corpus::{run_corpus_study_full, CorpusStudyConfig};
use sos_experiments::metropolis::{run_metropolis, MetroConfig};
use sos_experiments::observe::RunObserver;
use sos_experiments::report::{follower_destinations, scheme_traits};
use sos_net::{encode_wire, Frame, PeerId, WireReader};
use sos_node::broker::{Broker, BrokerConfig};
use sos_node::daemon::run_daemon;
use sos_node::lockstep::build_schedule;
use sos_node::mesh::run_mesh;
use sos_node::proto::Msg;
use sos_node::provision::{followers_from_trace, provision_apps, RunPlan};
use sos_obs::{
    profile, GlobalTimeline, JournalEntry, JournalHandle, NodeObs, ObsEvent, Provenance,
};
use sos_sim::mobility::metropolis::{Metropolis, MetropolisConfig};
use sos_sim::mobility::TrajectorySet;
use sos_sim::{ContactPhase, SimDuration, SimTime};
use sos_trace::corpora::{import_bytes, CorpusFormat};
use sos_trace::{
    codec_binary, codec_text, generate_social_trace, ContactTrace, SocialTraceConfig,
    TraceAnalytics,
};
use std::collections::{BTreeMap, BTreeSet};

pub type Trace = ContactTrace;
pub type Node = Sos;
pub type Identity = DeviceIdentity;
pub type Ca = CertificateAuthority;
pub type AirFrame = Frame;
pub type Peer = PeerId;
pub type Rng = rand::rngs::StdRng;
pub type Journal = JournalHandle;
pub type City = TrajectorySet;
pub type Stats = SosStats;

pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

// ------------------------------------------------------------- profile

/// Switches the system's own `sos_obs::profile` spans on or off.
pub fn profile_enable(on: bool) {
    profile::set_enabled(on);
}

/// Drains this thread's `sos_obs::profile` spans as
/// `name → (calls, total seconds)`. The spans are inclusive.
pub fn profile_take() -> BTreeMap<&'static str, (f64, f64)> {
    profile::take()
        .stages
        .into_iter()
        .map(|(name, s)| (name, (s.calls as f64, s.total.as_secs_f64())))
        .collect()
}

// --------------------------------------------------------------- trace

/// The paper-shaped social trace, or any other population of the same
/// generator.
pub fn social_trace(nodes: usize, days: u64, communities: usize, seed: u64) -> Trace {
    generate_social_trace(&SocialTraceConfig {
        nodes,
        days,
        communities,
        seed,
        ..SocialTraceConfig::default()
    })
    .expect("a population of two or more nodes is a valid configuration")
}

/// Total time any pair spends in contact, seconds.
pub fn contact_seconds(trace: &Trace) -> u64 {
    trace
        .intervals(trace.end_time())
        .iter()
        .map(|iv| (iv.end - iv.start).as_secs())
        .sum()
}

/// One contact transition, as the ledger's CONN rendering needs it.
pub struct Transition {
    pub millis: u64,
    pub a: usize,
    pub b: usize,
    pub up: bool,
}

pub fn transitions(trace: &Trace) -> impl Iterator<Item = Transition> + '_ {
    trace.events().iter().map(|ev| Transition {
        millis: ev.time.as_millis(),
        a: ev.a,
        b: ev.b,
        up: ev.phase == ContactPhase::Up,
    })
}

pub fn to_binary(trace: &Trace) -> Vec<u8> {
    codec_binary::to_binary(trace)
}

pub fn from_binary(bytes: &[u8]) -> Result<Trace, String> {
    codec_binary::from_binary(bytes).map_err(|e| e.to_string())
}

pub fn to_text(trace: &Trace) -> String {
    codec_text::to_text(trace)
}

pub fn from_text(text: &str) -> Result<Trace, String> {
    codec_text::from_text(text).map_err(|e| e.to_string())
}

/// Imports a CONN log through the sanitizer. Returns the trace, whether
/// the import report accounts for every line, and the repairs it made.
pub fn import_conn(bytes: &[u8]) -> Result<(Trace, bool, usize), String> {
    let corpus = import_bytes(CorpusFormat::Crawdad, bytes).map_err(|e| e.to_string())?;
    let s = &corpus.report.sanitize;
    let repairs = s.self_contacts_dropped
        + s.duplicate_ups_dropped
        + s.orphan_downs_dropped
        + s.dangling_contacts_closed
        + s.out_of_order_events;
    Ok((
        corpus.trace,
        corpus.report.accounts_for_everything(),
        repairs,
    ))
}

/// `(nodes, contacts)` from the analytics pass.
pub fn analytics(trace: &Trace) -> (usize, usize) {
    let a = TraceAnalytics::compute(trace);
    (a.nodes, a.contacts)
}

// --------------------------------------------------------------- study

pub const SCHEMES: [SchemeKind; 5] = SchemeKind::ALL;

pub fn scheme_name(scheme: usize) -> &'static str {
    SCHEMES[scheme].name()
}

/// The `(trace, plan)` parameters both the in-process study and the
/// lockstep transports take.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub posts: usize,
    pub ad_secs: u64,
}

/// A run observer with a journal large enough that nothing is dropped.
pub struct Observer(RunObserver);

impl Observer {
    pub fn new() -> Observer {
        Observer(RunObserver::with_journal_capacity(1 << 20))
    }
}

/// What one scheme's study produced, blind or observed.
#[derive(Clone, Debug, Default)]
pub struct StudyRun {
    pub posts: u64,
    pub stats: Stats,
    pub frames: u64,
    pub frames_lost: u64,
    pub delivery_ratio: f64,
    /// Simulated delivery delays to interested subscribers, ms.
    pub delays_ms: Vec<u64>,
    /// Bundles held per node at the end (the delivered set's shape).
    pub stored: Vec<u64>,
}

pub fn run_study(trace: &Trace, plan: Plan, scheme: usize, obs: Option<&Observer>) -> StudyRun {
    let config = CorpusStudyConfig {
        seed: plan.seed,
        total_posts: plan.posts,
        scheme: SCHEMES[scheme],
        ad_interval: SimDuration::from_secs(plan.ad_secs),
    };
    let run = run_corpus_study_full(trace, &config, obs.map(|o| &o.0));
    let mut stats = Stats::default();
    for app in &run.apps {
        stats.merge(&app.middleware().stats());
    }
    StudyRun {
        posts: run.metrics.posts,
        stats,
        frames: run.metrics.frames_sent,
        frames_lost: run.metrics.frames_lost,
        delivery_ratio: run.metrics.delivery.overall_ratio(),
        delays_ms: run
            .metrics
            .delays
            .records()
            .iter()
            .map(|r| r.delay().as_millis())
            .collect(),
        stored: run
            .apps
            .iter()
            .map(|app| app.middleware().store().len() as u64)
            .collect(),
    }
}

/// What a journal says about the sessions of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sessions {
    pub journal_entries: u64,
    pub journal_dropped: u64,
    pub opened: u64,
    /// Closed with `protocol_error`: in a study, a handshake collision
    /// the responder refused by design (retried at the next
    /// advertisement); anywhere else, a broken exchange.
    pub refused: u64,
    /// Closed with `security_failure` or `send_failure`.
    pub broken: u64,
    /// Requests served with at least one bundle.
    pub fruitful: u64,
}

fn sessions<'a>(entries: impl Iterator<Item = &'a JournalEntry>, dropped: u64) -> Sessions {
    let mut s = Sessions {
        journal_dropped: dropped,
        ..Sessions::default()
    };
    for entry in entries {
        s.journal_entries += 1;
        match entry.event {
            ObsEvent::SessionOpen { .. } => s.opened += 1,
            ObsEvent::SessionClose { reason, .. } => match reason {
                "done" | "out_of_range" | "peer_lost" => {}
                "protocol_error" => s.refused += 1,
                _ => s.broken += 1,
            },
            ObsEvent::Served { bundles, .. } if bundles > 0 => s.fruitful += 1,
            _ => {}
        }
    }
    s
}

/// The sessions of a journal shared by the nodes of an encounter run.
pub fn journal_sessions(journal: &Journal) -> Sessions {
    let snapshot = journal.snapshot();
    sessions(snapshot.entries(), snapshot.dropped())
}

/// The sessions of a lockstep run's JSONL journal; a line that does not
/// parse counts as a broken session.
pub fn jsonl_sessions(lines: &[String]) -> Sessions {
    let entries: Vec<JournalEntry> = lines
        .iter()
        .filter_map(|l| JournalEntry::from_jsonl(l))
        .collect();
    let mut s = sessions(entries.iter(), 0);
    s.broken += (lines.len() - entries.len()) as u64;
    s
}

/// What an observed study's telemetry adds to its [`StudyRun`].
#[derive(Debug)]
pub struct Observed {
    /// Every encoded frame byte the driver transmitted.
    pub wire_bytes: u64,
    pub sessions: Sessions,
    journal: sos_obs::Journal,
}

pub fn observed(obs: &Observer) -> Observed {
    let observation = obs.0.finish();
    Observed {
        wire_bytes: observation
            .metrics
            .histograms
            .get("driver/frame_bytes")
            .map_or(0, |h| h.sum),
        sessions: sessions(observation.journal.entries(), observation.journal.dropped()),
        journal: observation.journal,
    }
}

/// Merges the journal into its canonical global timeline.
pub fn timeline(observed: &Observed) -> GlobalTimeline {
    GlobalTimeline::merge([&observed.journal])
}

pub fn provenance(timeline: &GlobalTimeline) -> Provenance {
    Provenance::build(timeline)
}

/// Delivery forensics for one scheme: `(authored, delivered, accounts
/// for everything)`.
pub fn classify(prov: &Provenance, trace: &Trace, scheme: usize) -> (u64, u64, bool) {
    let destinations = follower_destinations(&followers_from_trace(trace));
    let forensics = prov.classify(&destinations, scheme_traits(SCHEMES[scheme]));
    (
        forensics.authored() as u64,
        forensics.delivered() as u64,
        forensics.accounts_for_everything(),
    )
}

// ---------------------------------------------------------- encounters

/// Identity seeds derive from the workload seed, so every run of one
/// seed signs with the same keys.
pub fn new_ca(seed: u64) -> Ca {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    CertificateAuthority::new("Ledger Root CA", bytes, 0, u64::MAX)
}

pub fn new_identity(ca: &mut Ca, seed: u64, index: u32) -> Identity {
    let mut key_seed = [0u8; 32];
    key_seed[..8].copy_from_slice(&seed.to_le_bytes());
    key_seed[8..12].copy_from_slice(&index.to_le_bytes());
    let signing = SigningKey::from_seed(key_seed);
    key_seed[12] = 1;
    let agreement = AgreementKey::from_secret(key_seed);
    let name = format!("u{index}");
    let uid = UserId::from_str_padded(&name);
    let cert = ca.issue(uid, &name, signing.verifying_key(), *agreement.public(), 0);
    DeviceIdentity::new(
        uid,
        signing,
        agreement,
        cert,
        Validator::new(ca.root_certificate().clone()),
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Epidemic,
    Direct,
}

pub fn new_node(index: u32, identity: &Identity, scheme: Scheme) -> Node {
    let kind = match scheme {
        Scheme::Epidemic => SchemeKind::Epidemic,
        Scheme::Direct => SchemeKind::Direct,
    };
    Sos::new(PeerId(index), identity.clone(), kind)
}

pub fn follow(node: &mut Node, author: &Identity) {
    node.subscribe(*author.user_id());
}

pub fn attach_journal(node: &mut Node, index: u32, journal: &Journal) {
    node.attach_obs(NodeObs::new(index, journal.clone()));
}

pub fn post(node: &mut Node, payload: Vec<u8>, secs: u64) {
    node.post(MessageKind::Post, payload, SimTime::from_secs(secs))
        .expect("a 140-byte payload is under MAX_PAYLOAD");
}

pub fn advertisement(node: &Node, secs: u64) -> AirFrame {
    Frame::Advertisement(node.advertisement(SimTime::from_secs(secs)))
}

pub fn handle_frame(
    node: &mut Node,
    from: Peer,
    frame: AirFrame,
    secs: u64,
    rng: &mut Rng,
) -> Vec<(Peer, AirFrame)> {
    node.handle_frame(from, frame, SimTime::from_secs(secs), rng)
}

pub fn maintain(node: &mut Node, secs: u64) -> usize {
    node.maintain(SimTime::from_secs(secs))
}

pub fn peer_of(node: &Node) -> Peer {
    node.peer_id()
}

pub fn stats_of(node: &Node) -> Stats {
    node.stats()
}

/// Bundles accepted as new: received, not duplicate, not rejected.
pub fn accepted(stats: &Stats) -> u64 {
    stats.bundles_received - stats.bundles_duplicate - stats.security_rejections
}

/// `(bundles held, bundles that pass Bundle::verify)` of a node's store.
pub fn verify_store(node: &Node, secs: u64) -> (u64, u64) {
    let validator = node.identity().validator();
    let mut ok = 0;
    for bundle in node.store().iter() {
        if bundle.verify(validator, secs).is_ok() {
            ok += 1;
        }
    }
    (node.store().len() as u64, ok)
}

/// Frame kinds in the order the per-kind codec metrics are named: ad,
/// hs_init, hs_resp, data, disconnect.
pub fn frame_kind(frame: &AirFrame) -> usize {
    match frame {
        Frame::Advertisement(_) | Frame::Invite { .. } => 0,
        Frame::HandshakeInit(_) => 1,
        Frame::HandshakeResponse(_) => 2,
        Frame::Data { .. } => 3,
        Frame::Disconnect { .. } => 4,
    }
}

pub fn frame_encode(frame: &AirFrame) -> Vec<u8> {
    frame.encode()
}

pub fn frame_decode(bytes: &[u8]) -> Result<AirFrame, String> {
    Frame::decode(bytes).map_err(|e| e.to_string())
}

pub fn wire_encode(payload: &[u8]) -> Vec<u8> {
    encode_wire(payload).expect("an encoded frame is far below MAX_WIRE_FRAME")
}

/// Feeds `stream` to a fresh `WireReader` and pulls every message out;
/// returns how many arrived.
pub fn wire_read(stream: &[u8]) -> usize {
    let mut reader = WireReader::new();
    reader.push_bytes(stream);
    let mut n = 0;
    while let Ok(Some(msg)) = reader.next_message() {
        std::hint::black_box(msg);
        n += 1;
    }
    n
}

// ------------------------------------------------------------ in vivo

fn run_plan(plan: Plan, scheme: usize) -> RunPlan {
    RunPlan {
        scheme: SCHEMES[scheme],
        seed: plan.seed,
        total_posts: plan.posts,
        ad_interval: SimDuration::from_secs(plan.ad_secs),
    }
}

/// A lockstep run's outcome in the shape both transports report.
#[derive(Clone, Debug, PartialEq)]
pub struct Lockstep {
    pub delivered: BTreeSet<(u32, String, u64)>,
    pub stats: Vec<Stats>,
    pub journal: Vec<String>,
    pub posts: u64,
    pub rounds: u64,
}

/// The in-process oracle; also returns the frames it moved, which the
/// socket run (byte-equal by assertion) moved too.
pub fn mesh(trace: &Trace, plan: Plan, scheme: usize) -> Result<(Lockstep, u64), String> {
    let out = run_mesh(trace, &run_plan(plan, scheme)).map_err(|e| e.to_string())?;
    Ok((
        Lockstep {
            delivered: out.delivered,
            stats: out.stats,
            journal: out.journal,
            posts: out.posts,
            rounds: out.rounds,
        },
        out.frames,
    ))
}

/// Broker plus `daemons` daemons on threads of this process, over TCP
/// loopback. Every thread is joined before this returns.
pub fn tcp(trace: &Trace, plan: Plan, scheme: usize, daemons: usize) -> Result<Lockstep, String> {
    let broker = Broker::bind(BrokerConfig {
        listen: "127.0.0.1:0".into(),
        num_procs: daemons,
        plan: run_plan(plan, scheme),
    })
    .map_err(|e| format!("bind broker: {e}"))?;
    let addr = broker
        .local_addr()
        .map_err(|e| format!("broker addr: {e}"))?
        .to_string();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..daemons)
            .map(|_| scope.spawn(|| run_daemon(&addr)))
            .collect();
        let result = broker.run(trace);
        let mut errors = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(format!("daemon: {e}")),
                Err(_) => errors.push("daemon thread panicked".into()),
            }
        }
        let out = result.map_err(|e| format!("broker: {e}"))?;
        if !errors.is_empty() {
            return Err(errors.join("; "));
        }
        Ok(Lockstep {
            delivered: out.delivered,
            stats: out.stats,
            journal: out.journal,
            posts: out.posts,
            rounds: out.rounds,
        })
    })
}

/// Provisions the whole population; returns each node's author tag (as
/// the delivered set prints it) and who follows whom.
pub fn provision(trace: &Trace, plan: Plan, scheme: usize) -> (Vec<String>, Vec<Vec<usize>>) {
    let apps = provision_apps(trace, &run_plan(plan, scheme));
    let authors = apps
        .iter()
        .map(|app| sos_node::proto::author_hex(app.user_id().as_bytes()))
        .collect();
    (authors, followers_from_trace(trace))
}

/// Steps in the lockstep schedule.
pub fn schedule_len(trace: &Trace, plan: Plan, scheme: usize) -> usize {
    build_schedule(trace, &run_plan(plan, scheme)).len()
}

/// A data-plane control message of `frame_len` payload bytes, encoded.
pub fn proto_sample(frame_len: usize) -> Vec<u8> {
    Msg::Data {
        from: 3,
        to: 7,
        seq: 41,
        frame: vec![0xa5; frame_len],
    }
    .encode()
}

pub fn proto_roundtrip(bytes: &[u8]) -> Vec<u8> {
    Msg::decode(bytes)
        .expect("a message this file encoded decodes")
        .encode()
}

pub fn proto_decode(bytes: &[u8]) -> bool {
    Msg::decode(bytes).is_ok()
}

// ---------------------------------------------------------- metropolis

#[derive(Clone, Debug, PartialEq)]
pub struct Metro {
    pub events: u64,
    pub contacts: u64,
    pub posts: u64,
    /// Per scheme: `(delivered, targets, transfers, p50 delay hours)`.
    pub schemes: Vec<(u64, u64, u64, Option<f64>)>,
}

fn metro_config(nodes: usize, seed: u64, shards: usize, threads: usize) -> MetroConfig {
    MetroConfig {
        days: 1,
        seed,
        shards,
        threads,
        ..MetroConfig::for_nodes(nodes)
    }
}

pub fn metropolis(nodes: usize, seed: u64, shards: usize, threads: usize) -> Metro {
    let out = run_metropolis(&metro_config(nodes, seed, shards, threads));
    Metro {
        events: out.events,
        contacts: out.contacts,
        posts: out.posts as u64,
        schemes: out
            .schemes
            .iter()
            .map(|s| {
                (
                    s.delivered as u64,
                    s.targets as u64,
                    s.transfers,
                    s.delay_p50_h,
                )
            })
            .collect(),
    }
}

/// The city `run_metropolis` builds for the same `(nodes, seed)`: same
/// generator, same draws.
pub fn city(nodes: usize, seed: u64) -> City {
    let mcfg = MetropolisConfig {
        days: 1,
        ..MetropolisConfig::for_population(nodes)
    };
    let mut rng = rng(seed);
    Metropolis::new(mcfg, nodes, &mut rng).generate_all(seed)
}

pub fn city_waypoints(city: &City) -> u64 {
    city.waypoint_count() as u64
}

/// The contact kernel alone over a city: transitions emitted.
pub fn kernel_only(city: City, nodes: usize, seed: u64) -> u64 {
    let cfg = metro_config(nodes, seed, 1, 1);
    let engine = ShardedContactEngine::new(
        city,
        cfg.range_m,
        cfg.tick,
        ShardConfig {
            shards: cfg.shards,
            epoch_ticks: cfg.epoch_ticks,
            threads: cfg.threads,
        },
    );
    let mut events = 0u64;
    engine.for_each_epoch(SimTime::ZERO, SimTime::from_hours(24), |epoch| {
        events += epoch.len() as u64;
    });
    events
}

/// Sum of every node's x at `hour`: one movement step.
pub fn positions(city: &City, hour: u64) -> f64 {
    let t = SimTime::from_hours(hour);
    (0..city.node_count())
        .map(|node| city.position_at(node, t).x)
        .sum()
}

// -------------------------------------------------------------- probes

/// The crypto operations an encounter is made of, on one workload's own
/// key material.
pub struct CryptoProbe {
    identity: Identity,
    peer_cert: Certificate,
    message: Vec<u8>,
    signature: Signature,
    key: [u8; 32],
}

impl CryptoProbe {
    pub fn new(identity: &Identity, peer: &Identity) -> CryptoProbe {
        let message = vec![0x5a; 140 + 40];
        CryptoProbe {
            signature: identity.sign(&message),
            identity: identity.clone(),
            peer_cert: peer.certificate().clone(),
            message,
            key: [7; 32],
        }
    }

    pub fn sign(&self) -> Signature {
        self.identity.sign(&self.message)
    }

    pub fn verify(&self) -> bool {
        self.identity
            .verifying_key()
            .verify(&self.message, &self.signature)
    }

    pub fn verify_cold(&self) -> bool {
        self.identity
            .verifying_key()
            .verify_uncached(&self.message, &self.signature)
    }

    pub fn agree(&self) -> Option<[u8; 32]> {
        self.identity.agree(&self.peer_cert.x25519_public)
    }

    pub fn cert_validate(&self) -> bool {
        self.identity
            .validator()
            .validate(&self.peer_cert, 1)
            .is_ok()
    }

    pub fn cert_validate_cold(&self) -> bool {
        Validator::new(self.identity.validator().root().clone())
            .validate(&self.peer_cert, 1)
            .is_ok()
    }

    pub fn seal(&self, plaintext: &[u8]) -> Vec<u8> {
        aead::seal(&self.key, &aead::counter_nonce(1, 1), b"ledger", plaintext)
    }

    pub fn open(&self, sealed: &[u8]) -> bool {
        aead::open(&self.key, &aead::counter_nonce(1, 1), b"ledger", sealed).is_ok()
    }
}

/// Bytes in one sync batch: the AEAD probes seal this much.
pub const SYNC_BATCH_BYTES: usize = sos_net::SYNC_BATCH_BUDGET;

/// A message store holding `count` signed bundles of one author, built
/// through `MessageStore::insert`, with the bundles kept for re-insert.
pub struct StoreProbe {
    store: MessageStore,
    author: UserId,
    bundles: Vec<Bundle>,
}

impl StoreProbe {
    pub fn new(identity: &Identity, count: u64) -> StoreProbe {
        let author = *identity.user_id();
        let mut key_seed = [9u8; 32];
        key_seed[..10].copy_from_slice(author.as_bytes());
        // Store operations never look at signatures, so the probe signs
        // with a key of its own and borrows the identity's certificate.
        let signer = SigningKey::from_seed(key_seed);
        let bundles: Vec<Bundle> = (1..=count)
            .map(|n| {
                Bundle::new(
                    SosMessage::create(
                        &signer,
                        author,
                        n,
                        SimTime::from_secs(n),
                        MessageKind::Post,
                        vec![n as u8; 140],
                    ),
                    identity.certificate().clone(),
                )
            })
            .collect();
        let mut store = MessageStore::new();
        for bundle in &bundles {
            store.insert(bundle.clone());
        }
        StoreProbe {
            store,
            author,
            bundles,
        }
    }

    /// Inserts every bundle into an empty store; returns how many.
    pub fn insert_all(&self) -> usize {
        let mut store = MessageStore::new();
        for bundle in &self.bundles {
            store.insert(bundle.clone());
        }
        store.len()
    }

    /// Clones every bundle: the part of `insert_all` that is not insert.
    pub fn clone_all(&self) -> usize {
        self.bundles.iter().map(|b| b.clone().wire_size()).sum()
    }

    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    pub fn sync_summary(&self) -> usize {
        self.store.sync_summary().len()
    }

    /// What a peer holding the first half would be served.
    pub fn missing_from_half(&self) -> usize {
        let half = self.bundles.len() as u64 / 2;
        self.store
            .bundles_missing_from(&self.author, &[(1, half)])
            .len()
    }
}
