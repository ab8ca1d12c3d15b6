//! The per-process round engine of a lockstep run: the runtimes one
//! process hosts, each node's own seeded randomness, the wire codec at
//! the edge, and the exchange-round buffer.
//!
//! A [`Host`] that hosts every node *is* the in-process
//! [`mesh`](crate::mesh); a [`Host`] that hosts the nodes
//! `i % num_procs == proc_index` plus sockets for the frames
//! [`Flushed::remote`] names is the TCP [`daemon`](crate::daemon).
//! Either way a frame is encoded when it leaves a runtime, carries the
//! next sequence number of its `(from, to)` directed pair, and is
//! decoded, in `(to, from, seq)` order, when its round is processed.
//! That order does not depend on which process hosts which node, which
//! is the whole cross-process determinism contract: any sharding of
//! the population computes the byte-identical run.
//!
//! A `Host` knows no schedule and no cadence: it executes the
//! conductor's steps, each one [`Msg::Step`] naming an instant's
//! contact transitions, posts and wakes, and applies the share that
//! names its hosted nodes. A node advertises when a step wakes it and
//! at no other time.

use crate::proto::{Msg, Report};
use crate::provision::{node_seed, post_text, provision_apps, RunPlan};
use crate::runtime::NodeRuntime;
use rand::SeedableRng;
use sos_net::{Frame, NetError, PeerId};
use sos_obs::{JournalHandle, NodeObs};
use sos_sim::SimTime;
use sos_trace::ContactTrace;
use std::collections::BTreeMap;

/// One encoded frame in flight: `(from, to, seq, frame bytes)`.
pub(crate) type WireFrame = (u32, u32, u64, Vec<u8>);

/// What one drain of the hosted outboxes produced.
#[derive(Default)]
pub(crate) struct Flushed {
    /// Frames emitted, local and remote.
    pub(crate) emitted: u64,
    /// The emitted frames addressed to nodes another process hosts; the
    /// caller owns getting them there before the next round. Frames to
    /// hosted nodes are already in the round buffer.
    pub(crate) remote: Vec<WireFrame>,
}

/// What the hosted nodes hold at the end of a run: the report a daemon
/// streams home, entry by entry, after `Finish`.
pub(crate) struct Reports {
    /// Per hosted node, ascending, its stats and then every bundle it
    /// stores; after them the hosted nodes' journal lines, in the order
    /// events happened here.
    pub(crate) entries: Vec<Report>,
    /// Frames processed across all rounds (dropped ones included).
    pub(crate) frames: u64,
    /// Journal entries the process's ring dropped before the lines in
    /// `entries`.
    pub(crate) journal_dropped: u64,
}

/// The round engine; see the module documentation.
pub(crate) struct Host {
    /// Hosted runtimes with their session randomness, by node index.
    nodes: BTreeMap<u32, (NodeRuntime, rand::rngs::StdRng)>,
    /// Shared journal behind every hosted node's `NodeObs`.
    journal: JournalHandle,
    /// Next sequence number per `(from, to)` directed pair.
    seqs: BTreeMap<(u32, u32), u64>,
    /// Frames awaiting the next round.
    buffer: Vec<WireFrame>,
    /// Frames processed across all rounds (dropped ones included).
    frames: u64,
    /// The time of the last step: every frame of its rounds is handled
    /// at it.
    now: SimTime,
}

impl Host {
    /// Provisions the whole population of `(trace, plan)` — the same CA
    /// everywhere, so certificates issued in one process validate in
    /// every other — and keeps the slice process `proc_index` of
    /// `num_procs` hosts. The hosted nodes journal into `journal`'s
    /// ring; what it drops is reported with the lines it keeps.
    pub(crate) fn new(
        trace: &ContactTrace,
        plan: &RunPlan,
        proc_index: usize,
        num_procs: usize,
        journal: JournalHandle,
    ) -> Host {
        let nodes = provision_apps(trace, plan)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % num_procs == proc_index)
            .map(|(i, mut app)| {
                app.middleware_mut()
                    .attach_obs(NodeObs::new(i as u32, journal.clone()));
                let rng = rand::rngs::StdRng::seed_from_u64(node_seed(plan.seed, i));
                (i as u32, (NodeRuntime::new(app), rng))
            })
            .collect();
        Host {
            nodes,
            journal,
            seqs: BTreeMap::new(),
            buffer: Vec::new(),
            frames: 0,
            now: SimTime::ZERO,
        }
    }

    /// Applies one [`Msg::Step`] to the nodes it names that are hosted
    /// here, in the step's order: the contact transitions, the posts,
    /// then `advertise` on the hosted wakes. When the step wakes anyone
    /// the outboxes drain and their frames are returned; otherwise
    /// nothing is. The step's time is kept: its rounds run at it.
    /// `None`, nothing done, for any other message.
    pub(crate) fn apply(&mut self, msg: &Msg) -> Option<Flushed> {
        let Msg::Step {
            now_ms,
            encounters,
            posts,
            wakes,
        } = msg
        else {
            return None;
        };
        self.now = SimTime::from_millis(*now_ms);
        for &(a, b, up) in encounters {
            for (node, peer) in [(a, b), (b, a)] {
                if let Some((rt, _)) = self.nodes.get_mut(&node) {
                    if up {
                        rt.on_encounter_up(PeerId(peer));
                    } else {
                        rt.on_encounter_down(PeerId(peer));
                    }
                }
            }
        }
        for &(node, number) in posts {
            if let Some((rt, _)) = self.nodes.get_mut(&node) {
                let text = post_text(number, rt.app().handle());
                rt.post(&text, self.now);
            }
        }
        if wakes.is_empty() {
            return Some(Flushed::default());
        }
        for node in wakes {
            if let Some((rt, _)) = self.nodes.get_mut(node) {
                rt.advertise(self.now);
            }
        }
        Some(self.flush())
    }

    /// Drains every hosted outbox, ascending by node: each frame is
    /// encoded and numbered; frames to hosted nodes join the round
    /// buffer, the rest are handed back.
    fn flush(&mut self) -> Flushed {
        let mut flushed = Flushed::default();
        let out: Vec<(u32, PeerId, Frame)> = self
            .nodes
            .iter_mut()
            .flat_map(|(&from, (rt, _))| {
                let frames = rt.poll_frames().into_iter();
                frames.map(move |(to, frame)| (from, to, frame))
            })
            .collect();
        for (from, PeerId(to), frame) in out {
            let seq = self.seqs.entry((from, to)).or_insert(0);
            let wire = (from, to, *seq, frame.encode());
            *seq += 1;
            flushed.emitted += 1;
            if self.nodes.contains_key(&to) {
                self.buffer.push(wire);
            } else {
                flushed.remote.push(wire);
            }
        }
        flushed
    }

    /// Queues a frame that arrived from another process for the next
    /// round. Returns `false`, queueing nothing, if its destination is
    /// not hosted here.
    pub(crate) fn accept(&mut self, frame: WireFrame) -> bool {
        let hosted = self.nodes.contains_key(&frame.1);
        if hosted {
            self.buffer.push(frame);
        }
        hosted
    }

    /// Runs one exchange round at the last step's time: the buffered
    /// frames are decoded and fed to their runtimes in `(to, from, seq)`
    /// order, then the replies are drained. A frame whose contact closed
    /// while it was in flight is dropped, exactly as the simulation drops
    /// it.
    ///
    /// # Errors
    ///
    /// The codec's error if a frame does not decode — a bug in the
    /// sending process, not an input condition.
    pub(crate) fn process_round(&mut self) -> Result<Flushed, NetError> {
        self.buffer
            .sort_by_key(|&(from, to, seq, _)| (to, from, seq));
        let round = std::mem::take(&mut self.buffer);
        self.frames += round.len() as u64;
        for (from, to, _seq, bytes) in round {
            let frame = Frame::decode(&bytes)?;
            if let Some((rt, rng)) = self.nodes.get_mut(&to) {
                rt.push_frame(PeerId(from), frame, self.now, rng);
            }
        }
        Ok(self.flush())
    }

    /// The end-of-run reports of the hosted nodes.
    pub(crate) fn reports(&mut self) -> Reports {
        let mut entries = Vec::new();
        for (&node, (rt, _)) in &mut self.nodes {
            rt.take_events();
            let stats = rt.stats();
            entries.push(Report::Stats { node, stats });
            for bundle in rt.app().middleware().store().iter() {
                let id = &bundle.message.id;
                entries.push(Report::Delivered {
                    node,
                    author: id.author,
                    number: id.number,
                });
            }
        }
        let journal = self.journal.snapshot();
        for entry in journal.entries() {
            entries.push(Report::Journal {
                line: entry.to_jsonl(),
            });
        }
        Reports {
            entries,
            frames: self.frames,
            journal_dropped: journal.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::{conduct, Fleet, Outcome};
    use crate::proto::{author_hex, InVivoError};
    use crate::provision::load_trace_bytes;
    use sos_core::routing::SchemeKind;
    use sos_obs::{GlobalTimeline, Provenance, Rule};
    use sos_sim::SimDuration;
    use std::collections::BTreeSet;

    /// K hosts in one address space — the conductor's seam with plain
    /// queues where the daemons have sockets. Frames a host reports as
    /// remote reach their host's round buffer only after every host has
    /// finished the step that emitted them, which is what the broker's
    /// collect barrier guarantees.
    struct Shards(Vec<Host>);

    impl Shards {
        fn deliver(&mut self, flushed: Vec<Flushed>) -> u64 {
            let mut emitted = 0;
            for f in flushed {
                emitted += f.emitted;
                for frame in f.remote {
                    let proc = frame.1 as usize % self.0.len();
                    assert!(self.0[proc].accept(frame), "misrouted frame");
                }
            }
            emitted
        }
    }

    impl Fleet for Shards {
        fn step(&mut self, msg: &Msg) -> Result<(), InVivoError> {
            let flushed = self.0.iter_mut().filter_map(|h| h.apply(msg)).collect();
            self.deliver(flushed);
            Ok(())
        }

        fn round(&mut self) -> Result<u64, InVivoError> {
            let flushed = (self.0.iter_mut())
                .map(Host::process_round)
                .collect::<Result<_, _>>()?;
            Ok(self.deliver(flushed))
        }

        fn finish(&mut self) -> Result<Vec<Reports>, InVivoError> {
            Ok(self.0.iter_mut().map(Host::reports).collect())
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
        let journal = || ring.map_or_else(JournalHandle::new, JournalHandle::with_capacity);
        let hosts = (0..k).map(|i| Host::new(trace, plan, i, k, journal()));
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
    /// reach one runtime — the thing the `(to, from, seq)` sort fixes —
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
