//! The six workloads. Each makes its inputs from the seed, runs one
//! repetition of fixed work at a time through [`crate::sut`], and checks
//! its own outputs; failures are counted, never skipped.

pub mod encounter;
pub mod in_vivo_tcp;
pub mod metropolis_day;
pub mod study_replay;
pub mod trace_codec;

use crate::spans::{Agg, Spans};
use crate::stats::Fingerprint;
use crate::{probes, sut};
use std::collections::BTreeMap;
use std::time::Duration;

/// The deterministic result of one repetition. Every field but
/// `observed_only` must repeat exactly between repetitions of one
/// input, observed or blind; `digest` covers them.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Contact transitions (or encounters, or trace events) consumed.
    pub contacts: u64,
    /// Bundles verified and stored as new.
    pub bundles: u64,
    /// Frames handled.
    pub frames: u64,
    /// Deliveries made ÷ deliveries the workload expects.
    pub delivery_ratio: f64,
    /// Median simulated delivery delay, seconds (0 where none exists).
    pub delay_p50_s: f64,
    pub sessions_opened: u64,
    pub bundles_received: u64,
    pub duplicates: u64,
    /// BSP rounds (lockstep transports only).
    pub rounds: u64,
    /// FNV-1a over everything above plus the workload's finer outcome
    /// (delivered sets, per-node stores, decoded traces).
    pub digest: u64,
    /// Operations attempted and failed in this repetition.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub observed_only: ObservedOnly,
}

/// What only an observed repetition (journal and registry attached) can
/// count.
#[derive(Clone, Debug, Default)]
pub struct ObservedOnly {
    /// Every encoded frame byte, advertisements and handshakes included.
    pub wire_bytes: u64,
    pub journal_entries: u64,
    pub journal_dropped: u64,
    /// Sessions closed with `protocol_error`, `security_failure` or
    /// `send_failure`.
    pub sessions_failed: u64,
    /// Sessions that moved at least one bundle.
    pub sessions_fruitful: u64,
}

impl ObservedOnly {
    /// Adds what a journal says about a run's sessions.
    pub fn add(&mut self, s: &crate::sut::Sessions) {
        self.journal_entries += s.journal_entries;
        self.journal_dropped += s.journal_dropped;
        self.sessions_failed += s.refused + s.broken;
        self.sessions_fruitful += s.fruitful;
    }
}

impl Counts {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts one checked operation; records it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Folds the repeatable fields into `digest`, on top of whatever
    /// finer outcome the workload already hashed into `fp`.
    pub fn seal(&mut self, mut fp: Fingerprint) {
        fp.u64(self.contacts)
            .u64(self.bundles)
            .u64(self.frames)
            .u64(self.delivery_ratio.to_bits())
            .u64(self.delay_p50_s.to_bits())
            .u64(self.sessions_opened)
            .u64(self.bundles_received)
            .u64(self.duplicates)
            .u64(self.rounds);
        self.digest = fp.value();
    }
}

/// One repetition: the wall time of its timed section and what it did.
#[derive(Debug, Default)]
pub struct Rep {
    pub wall: Duration,
    pub counts: Counts,
    /// Encounter latencies, advertisement in → air quiet, ns.
    pub latencies_ns: Vec<u64>,
}

/// What the traced phase hands a workload to derive its per-layer
/// metrics from.
pub struct Traced<'a> {
    /// Median walls of the blind and traced repetitions as timed, s.
    pub blind_wall_s: f64,
    pub traced_wall_s: f64,
    /// The ledger's spans over the last traced repetition.
    pub spans: &'a BTreeMap<&'static str, Agg>,
    /// The system's own `sos_obs::profile` spans, per traced repetition.
    pub profile: &'a Profile,
    /// The reference (observed) repetition's counts.
    pub reference: &'a Counts,
}

impl Traced<'_> {
    /// A system span's inclusive seconds ÷ the traced wall.
    pub fn profile_share(&self, name: &str) -> f64 {
        self.profile
            .get(name)
            .map_or(0.0, |p| p.1 / self.traced_wall_s)
    }

    pub fn span(&self, name: &str) -> Agg {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

/// The system's own spans, per repetition: `name → (calls, seconds)`,
/// inclusive.
pub type Profile = BTreeMap<&'static str, (f64, f64)>;

/// The per-layer metrics every middleware workload derives the same
/// way: the system's `net/*` and `core/*` spans (shares are of
/// `profile_wall_s`, the wall of the run that recorded them), the
/// run's counts, and the crypto probes on two of its own identities.
pub fn middleware_layers(
    profile: &Profile,
    profile_wall_s: f64,
    traced: &Traced<'_>,
    identities: (&sut::Identity, &sut::Identity),
    out: &mut Layers,
) {
    let us = |name: &str| match profile.get(name) {
        Some(&(calls, secs)) if calls > 0.0 => secs / calls * 1e6,
        _ => 0.0,
    };
    let handshake = profile.get("net/handshake").copied().unwrap_or_default();
    out.insert("net.handshake_us", us("net/handshake"));
    out.insert("net.handshake_calls", handshake.0);
    out.insert("net.handshake_share", handshake.1 / profile_wall_s);
    out.insert("net.payload_seal_us", us("net/payload_seal"));
    out.insert("net.payload_open_us", us("net/payload_open"));
    out.insert("core.receive_bundle_us", us("core/receive_bundle"));
    out.insert("core.serve_request_us", us("core/serve_request"));
    let counts = traced.reference;
    out.insert("net.frames", counts.frames as f64);
    out.insert("net.bytes", counts.observed_only.wire_bytes as f64);
    out.insert("net.sessions_opened", counts.sessions_opened as f64);
    out.insert(
        "net.sessions_failed",
        counts.observed_only.sessions_failed as f64,
    );
    probes::crypto(identities.0, identities.1, out);
    let verify_us = out.get("crypto.verify_us").copied().unwrap_or(0.0);
    out.insert(
        "crypto.verify_share",
        counts.bundles as f64 * verify_us / 1e6 / traced.blind_wall_s,
    );
}

/// Per-layer metric values by name; anything a workload does not set
/// reads 0 ("this layer did no work here").
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Whether the system can run this workload with its journal and
    /// registry attached, which is what an observed repetition costs.
    const OBSERVABLE: bool = false;

    /// Everything before the first repetition: input generation,
    /// provisioning, backlogs, oracles. Timed as `setup_s`.
    fn setup(seed: u64) -> Self;

    /// One repetition of the workload's fixed work. `observed` attaches
    /// the system's journal/registry where it has one; spans are
    /// recorded when `spans` is on.
    fn rep(&mut self, observed: bool, spans: &mut Spans) -> Rep;

    /// Hashes the generated inputs, so the fingerprint covers them.
    fn fingerprint_inputs(&self, fp: &mut Fingerprint);

    /// Direct probes and derived per-layer metrics (traced runs only);
    /// checks made on the way are counted in `checks`.
    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers, checks: &mut Counts);
}
