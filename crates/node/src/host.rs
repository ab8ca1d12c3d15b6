//! The round engine: the one place a run of the SOS middleware is made.
//!
//! A [`Host`] holds the runtimes of the nodes it hosts, each with its own
//! session randomness ([`node_seed`] of the run's seed), and one
//! [`Air`] every frame among them crosses. It applies the steps of the
//! one [`schedule`](crate::provision::schedule) — each step's contact
//! transitions, then its posts, then `advertise` on its wakes — and lands
//! frames in the air's rounds, in the air's one `(to, from, send number)`
//! order. Three planes are this engine:
//!
//! - the simulation driver (`sos_experiments::driver`): a `Host` of every
//!   node on a radio or an instant air, settled up to each step, with a
//!   [`Watch`] that records the paper's metrics;
//! - the in-process [`mesh`](crate::mesh): a `Host` of every node on an
//!   instant air, landing one round at a time under the
//!   [`lockstep`](crate::lockstep) conductor;
//! - a TCP [`daemon`](crate::daemon): a `Host` of the nodes
//!   `i % num_procs == proc_index` under the same conductor.
//!
//! Hosted frames cross the air as typed values and never meet the codec.
//! Only a frame to a node another process hosts is encoded. It leaves
//! with its sender's emission number as its `seq` (the daemon sends it
//! to the broker, which relays it to the receiving daemon), and the
//! receiving host lands it on its air by that number ([`Air::land`]), so
//! a pair's frames keep their order whatever order they arrive in.
//! Any sharding of the population therefore computes the byte-identical
//! run, which is the whole cross-process determinism contract.
//!
//! A host knows no cadence: a node advertises when a step wakes it and
//! at no other time. Its profile spans keep the names the simulation
//! driver gave them (`driver/contact`, `driver/post`, `driver/advertise`,
//! `driver/deliver`), which the perf ledger's layer shares read.

use crate::proto::Report;
use crate::provision::{node_seed, post_text, Step};
use crate::runtime::NodeRuntime;
use alleyoop::app::AlleyOopApp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_core::middleware::SosEvent;
use sos_crypto::UserId;
use sos_net::{Air, Frame, NetError, PeerId};
use sos_obs::{JournalHandle, NodeObs};
use sos_sim::{SimDuration, SimTime};

/// One encoded frame between processes: `(from, to, seq, frame bytes)`.
pub(crate) type WireFrame = (u32, u32, u64, Vec<u8>);

/// What the hosted nodes hold at the end of a run: the report a daemon
/// streams home, entry by entry, after `Finish`.
pub(crate) struct Reports {
    /// Per hosted node, ascending, its stats and then every bundle it
    /// stores; after them the hosted nodes' journal lines, in the order
    /// events happened here.
    pub(crate) entries: Vec<Report>,
    /// Frames landed across all rounds (dropped ones included): each is
    /// counted by the air it lands on.
    pub(crate) frames: u64,
    /// Journal entries the process's ring dropped before the lines in
    /// `entries`.
    pub(crate) journal_dropped: u64,
}

/// What a caller sees of the run a [`Host`] makes, as the host makes
/// it. Every hook does nothing by default, and `()` watches nothing.
pub trait Watch {
    /// The `a`–`b` contact came up (`up`) or went down at `now`, before
    /// either end's runtime learns of it.
    fn contact(&mut self, _now: SimTime, _a: usize, _b: usize, _up: bool) {}

    /// Hosted node `node` has just authored a post at `now`.
    fn post(&mut self, _now: SimTime, _node: usize) {}

    /// The events hosted node `node` raised handling one landed frame,
    /// each stamped with the time the frame landed.
    fn events(&mut self, _node: usize, _events: Vec<(SimTime, SosEvent)>) {}
}

impl Watch for () {}

/// The bundles `app` stores, as `(author, number)`: what a run delivered
/// to it, on every plane.
pub fn delivered(app: &AlleyOopApp) -> impl Iterator<Item = (UserId, u64)> + '_ {
    let store = app.middleware().store().iter();
    store.map(|bundle| (bundle.message.id.author, bundle.message.id.number))
}

/// The round engine; see the module documentation.
pub struct Host {
    /// The medium every hosted frame crosses.
    air: Air,
    /// The hosted runtimes, apart from the air so that it can hand them
    /// each frame it lands.
    nodes: Hosted,
    /// The time of the last step: lockstep rounds land at it, and so do
    /// frames from other processes.
    now: SimTime,
    /// The ring the hosted nodes journal into, if they do.
    journal: Option<JournalHandle>,
}

/// The hosted runtimes and the frames that leave them for other
/// processes.
struct Hosted {
    /// By node: its runtime and session randomness if it is hosted here.
    runtimes: Vec<Option<(NodeRuntime, StdRng)>>,
    /// Frames emitted so far, hosted and remote: a remote frame's `seq`
    /// is its place in this count.
    emitted: u64,
    /// Frames to other processes, encoded, awaiting the caller.
    remote: Vec<WireFrame>,
}

impl Hosted {
    /// Node `node`'s runtime and randomness, if it is hosted here.
    fn get(&mut self, node: usize) -> Option<&mut (NodeRuntime, StdRng)> {
        self.runtimes.get_mut(node)?.as_mut()
    }

    /// Counts the frames `from` emitted and encodes those to nodes hosted
    /// elsewhere into `remote`; returns the rest, for the air.
    fn route(&mut self, from: u32, mut frames: Vec<(PeerId, Frame)>) -> Vec<(PeerId, Frame)> {
        let (runtimes, emitted, remote) = (&self.runtimes, &mut self.emitted, &mut self.remote);
        frames.retain(|(to, frame)| {
            let hosted = matches!(runtimes.get(to.0 as usize), Some(Some(_)));
            if !hosted {
                remote.push((from, to.0, *emitted, frame.encode()));
            }
            *emitted += 1;
            hosted
        });
        frames
    }

    /// Hands a landed frame to its runtime, its events to `watch`, and
    /// returns the replies that stay on this host's air. The runtime's
    /// gate drops a frame whose contact closed while it was in flight.
    fn land(
        &mut self,
        at: SimTime,
        src: PeerId,
        dst: PeerId,
        frame: Frame,
        watch: &mut impl Watch,
    ) -> Vec<(PeerId, Frame)> {
        let _span = sos_obs::profile::span("driver/deliver");
        let node = dst.0 as usize;
        let Some((rt, rng)) = self.get(node) else {
            return Vec::new();
        };
        let Some(replies) = rt.push_frame(src, frame, at, rng) else {
            return Vec::new();
        };
        watch.events(node, rt.take_events());
        self.route(dst.0, replies)
    }
}

impl Host {
    /// Hosts the nodes `i % num_procs == proc_index` of the population
    /// `apps` (all of them on `(0, 1)`), node `i` drawing its session
    /// randomness from `node_seed(seed, i)`; their frames cross `air`.
    /// With `journal`, the hosted nodes journal into it and the reports
    /// carry its lines.
    pub fn new(
        apps: Vec<AlleyOopApp>,
        seed: u64,
        air: Air,
        (proc_index, num_procs): (usize, usize),
        journal: Option<&JournalHandle>,
    ) -> Host {
        let runtimes = (apps.into_iter().enumerate())
            .map(|(i, mut app)| {
                (i % num_procs == proc_index).then(|| {
                    if let Some(journal) = journal {
                        let obs = NodeObs::new(i as u32, journal.clone());
                        app.middleware_mut().attach_obs(obs);
                    }
                    let rng = StdRng::seed_from_u64(node_seed(seed, i));
                    (NodeRuntime::new(app), rng)
                })
            })
            .collect();
        Host {
            air,
            nodes: Hosted {
                runtimes,
                emitted: 0,
                remote: Vec::new(),
            },
            now: SimTime::ZERO,
            journal: journal.cloned(),
        }
    }

    /// Applies one schedule step at `now` to the hosted nodes it names,
    /// in the step's order: each contact transition (to `watch`, then
    /// the air, then both ends' runtimes), each post (authored through
    /// [`post_text`], then told to `watch`), then each wake, whose node
    /// advertises and puts its frames on the air.
    pub fn apply(&mut self, now: SimTime, step: &Step, watch: &mut impl Watch) {
        self.now = now;
        for &(a, b, up) in &step.encounters {
            let _span = sos_obs::profile::span("driver/contact");
            watch.contact(now, a, b, up.is_some());
            let (peer_a, peer_b) = (PeerId(a as u32), PeerId(b as u32));
            self.air.contact(peer_a, peer_b, up);
            for (node, peer) in [(a, peer_b), (b, peer_a)] {
                match self.nodes.get(node) {
                    Some((rt, _)) if up.is_some() => rt.on_encounter_up(peer),
                    Some((rt, _)) => rt.on_encounter_down(peer),
                    None => {}
                }
            }
        }
        for &(node, number) in &step.posts {
            let _span = sos_obs::profile::span("driver/post");
            if let Some((rt, _)) = self.nodes.get(node) {
                let text = post_text(number, rt.app().handle());
                rt.post(&text, now);
                watch.post(now, node);
            }
        }
        for &node in &step.wakes {
            let _span = sos_obs::profile::span("driver/advertise");
            if let Some((rt, _)) = self.nodes.get(node) {
                let frames = rt.advertise(now);
                let frames = self.nodes.route(node as u32, frames);
                self.air.send(now, PeerId(node as u32), frames);
            }
        }
    }

    /// Lands every frame due before `until`, round after round
    /// ([`Air::settle`]); a step runs after the frames due before it and
    /// before those due at its instant.
    pub fn settle(&mut self, until: SimTime, watch: &mut impl Watch) {
        let land = |at, src, dst, frame| self.nodes.land(at, src, dst, frame, watch);
        self.air.settle(until, land);
    }

    /// Lands one round at the last step's time ([`Air::round`]) and
    /// returns the frames that round emitted, to this air and to other
    /// processes: none means the step is quiescent here.
    pub(crate) fn round(&mut self) -> u64 {
        let (emitted, until) = (self.nodes.emitted, self.now + SimDuration::from_millis(1));
        let mut land = |at, src, dst, frame| self.nodes.land(at, src, dst, frame, &mut ());
        self.air.round(until, &mut land);
        self.nodes.emitted - emitted
    }

    /// Queues a frame that arrived from another process for the next
    /// round, in its pair's order by its `seq`. Returns `false`, queueing
    /// nothing, if its destination is not hosted here.
    ///
    /// # Errors
    ///
    /// The codec's error if the frame does not decode.
    pub(crate) fn accept(&mut self, (from, to, seq, bytes): WireFrame) -> Result<bool, NetError> {
        if self.nodes.get(to as usize).is_none() {
            return Ok(false);
        }
        let frame = Frame::decode(&bytes)?;
        (self.air).land(self.now, PeerId(from), PeerId(to), frame, seq);
        Ok(true)
    }

    /// The frames to other processes emitted since the last call, for
    /// the caller to deliver to their hosts' [`Host::accept`] before the
    /// next round: a daemon sends them to the broker, which relays them.
    pub(crate) fn take_remote(&mut self) -> Vec<WireFrame> {
        std::mem::take(&mut self.nodes.remote)
    }

    /// Frames this host's air carried, and how many of them it lost.
    pub fn totals(&self) -> (u64, u64) {
        self.air.totals()
    }

    /// The hosted apps, ascending by node.
    pub fn into_apps(self) -> Vec<AlleyOopApp> {
        let runtimes = self.nodes.runtimes.into_iter().flatten();
        runtimes.map(|(rt, _)| rt.into_app()).collect()
    }

    /// The end-of-run reports of the hosted nodes.
    pub(crate) fn reports(&self) -> Reports {
        let mut entries = Vec::new();
        for (node, hosted) in (0u32..).zip(&self.nodes.runtimes) {
            let Some((rt, _)) = hosted else { continue };
            let stats = rt.app().middleware().stats();
            entries.push(Report::Stats { node, stats });
            let stored = delivered(rt.app());
            entries.extend(stored.map(|(author, number)| Report::Delivered {
                node,
                author,
                number,
            }));
        }
        let journal = self.journal.as_ref().map(JournalHandle::snapshot);
        let lines = journal.iter().flat_map(|j| j.entries());
        entries.extend(lines.map(|entry| Report::Journal {
            line: entry.to_jsonl(),
        }));
        Reports {
            entries,
            frames: self.air.totals().0,
            journal_dropped: journal.map_or(0, |j| j.dropped()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::{conduct, Fleet, Outcome};
    use crate::proto::{author_hex, InVivoError};
    use crate::provision::{load_trace_bytes, provision_apps, RunPlan};
    use sos_core::routing::SchemeKind;
    use sos_obs::{GlobalTimeline, Provenance, Rule};
    use sos_trace::ContactTrace;
    use std::collections::BTreeSet;

    /// K hosts in one address space — the conductor's seam with plain
    /// queues where the daemons have sockets. Frames a host emits for
    /// another reach it only after every host has finished the step or
    /// round that emitted them, which is what the broker's relay
    /// guarantees, and in reverse order: a pair's order must
    /// come from the frames' `seq`, not from the order they arrive in.
    struct Shards(Vec<Host>);

    impl Shards {
        fn deliver(&mut self) -> Result<(), InVivoError> {
            let remote: Vec<WireFrame> = self.0.iter_mut().flat_map(Host::take_remote).collect();
            for frame in remote.into_iter().rev() {
                let proc = frame.1 as usize % self.0.len();
                assert!(self.0[proc].accept(frame)?, "misrouted frame");
            }
            Ok(())
        }
    }

    impl Fleet for Shards {
        fn step(&mut self, now: SimTime, step: &Step) -> Result<(), InVivoError> {
            self.0.iter_mut().for_each(|h| h.apply(now, step, &mut ()));
            self.deliver()
        }

        fn round(&mut self) -> Result<u64, InVivoError> {
            let emitted = self.0.iter_mut().map(Host::round).sum();
            self.deliver()?;
            Ok(emitted)
        }

        fn finish(&mut self) -> Result<Vec<Reports>, InVivoError> {
            Ok(self.0.iter().map(Host::reports).collect())
        }
    }

    /// The folded outcome of a run on `k` hosts, each journaling into a
    /// ring of `ring` entries (`None`: the default ring).
    fn run_on_rings(
        trace: &ContactTrace,
        plan: &RunPlan,
        k: usize,
        ring: Option<usize>,
    ) -> Outcome {
        let hosts = (0..k).map(|i| {
            let journal = ring.map_or_else(JournalHandle::new, JournalHandle::with_capacity);
            let apps = provision_apps(trace, plan);
            Host::new(apps, plan.seed, Air::instant(), (i, k), Some(&journal))
        });
        conduct(&mut Shards(hosts.collect()), trace, plan).expect("lockstep run")
    }

    /// The folded outcome of a run on `k` hosts.
    fn run_sharded(trace: &ContactTrace, plan: &RunPlan, k: usize) -> Outcome {
        run_on_rings(trace, plan, k, None)
    }

    /// The provenance of an outcome's journal.
    fn provenance(outcome: &Outcome) -> Provenance {
        Provenance::build(&GlobalTimeline::merge([&outcome.to_journal()]))
    }

    /// An outcome's journal breaks no invariant, and the custody it
    /// records is the delivered set.
    fn assert_sound(outcome: &Outcome, cell: &str) {
        let provenance = provenance(outcome);
        assert_eq!(provenance.violations, [], "{cell}");
        let custody: BTreeSet<(u32, String, u64)> = (provenance.paths.iter())
            .flat_map(|(key, path)| {
                let author = author_hex(&key.author.to_le_bytes()[..10]);
                (path.custody.iter()).map(move |&node| (node, author.clone(), key.seq))
            })
            .collect();
        assert_eq!(custody, outcome.delivered, "{cell}");
    }

    /// Seven nodes, every pair in contact at once: each advertiser is
    /// answered by six peers in the same round, so the order frames
    /// reach one runtime — the thing the air's round order fixes —
    /// shows in that node's journal. (`haggle_mini` never overlaps two
    /// contacts of one node, so on it alone any order passes: the test
    /// was run with the sort removed to find that out.)
    fn clique() -> ContactTrace {
        use sos_sim::world::{ContactEvent, ContactPhase};
        let pairs = (0..7).flat_map(|a| (a + 1..7).map(move |b| (a, b)));
        let at = |secs, phase| {
            move |(a, b)| ContactEvent {
                time: SimTime::from_secs(secs),
                a,
                b,
                phase,
                distance_m: 5.0,
            }
        };
        let ups = pairs.clone().map(at(10, ContactPhase::Up));
        let downs = pairs.map(at(130, ContactPhase::Down));
        ContactTrace::new(7, None, ups.chain(downs).collect()).expect("valid trace")
    }

    #[test]
    fn outcome_is_invariant_to_how_nodes_are_sharded() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../trace/tests/fixtures/haggle_mini.conn"
        );
        let bytes = std::fs::read(path).expect("fixture");
        let haggle = load_trace_bytes(&bytes).expect("fixture imports");
        let long_cadence = SimDuration::from_secs(600);
        let short_cadence = SimDuration::from_secs(60);
        for (trace, ad_interval) in [(haggle, long_cadence), (clique(), short_cadence)] {
            for scheme in [SchemeKind::Epidemic, SchemeKind::SprayAndWait] {
                let plan = RunPlan {
                    scheme,
                    total_posts: 12,
                    ad_interval,
                    ..RunPlan::default()
                };
                let one = run_sharded(&trace, &plan, 1);
                assert!(
                    one.stats.iter().any(|s| s.bundles_received > 0),
                    "{scheme}: bundles must move"
                );
                assert_sound(&one, &format!("{scheme}, K = 1"));
                for k in [2, 3] {
                    let sharded = run_sharded(&trace, &plan, k);
                    assert_sound(&sharded, &format!("{scheme}, K = {k}"));
                    assert_eq!(sharded, one, "{scheme}, K = {k}");
                }
            }
        }
    }

    /// A ring too small for the run drops entries, and the count reaches
    /// the outcome on every sharding: its journal reads as incomplete,
    /// one `complete` violation ahead of whatever the truncation breaks.
    #[test]
    fn an_overflowing_journal_ring_reaches_the_outcome() {
        let plan = RunPlan {
            total_posts: 12,
            ad_interval: SimDuration::from_secs(60),
            ..RunPlan::default()
        };
        let whole = run_sharded(&clique(), &plan, 1);
        assert_eq!(whole.journal_dropped, 0);
        for k in [1, 2] {
            let outcome = run_on_rings(&clique(), &plan, k, Some(100));
            let lines = outcome.journal.len() as u64;
            assert_eq!(lines, 100 * k as u64, "K = {k}: every ring is full");
            assert_eq!(outcome.journal_dropped + lines, whole.journal.len() as u64);
            let violations = provenance(&outcome).violations;
            let complete = violations.iter().filter(|v| v.rule == Rule::Complete);
            assert_eq!(complete.count(), 1, "K = {k}");
            assert_eq!(violations[0].rule, Rule::Complete, "K = {k}");
        }
    }
}
