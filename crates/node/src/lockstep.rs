//! The lockstep (bulk-synchronous) schedule every in-vivo transport
//! follows.
//!
//! Real sockets introduce real races: two peers browsing the same
//! advertiser would otherwise interleave nondeterministically, and a
//! spray-and-wait copy budget handed out in a different order is a
//! different run. The broker therefore walks a deterministic schedule
//! of **steps** derived purely from `(trace, plan)` — each one
//! instant's encounter transitions, post injections and advertisement
//! wakes — and after each step that wakes anyone drives frame exchange
//! in barrier-synchronized **rounds**: everything sent in round *r* is
//! delivered and processed before round *r+1* begins. Every host lands
//! a round in its air's one `(to, from, send number)` order, a frame
//! from another process placed by its sender's number, and that order
//! is invariant to how nodes are sharded across processes — so a
//! 2-process TCP run, a 16-process run, and the in-process
//! [`mesh`](crate::mesh) all produce the byte-identical outcome.
//!
//! The steps are the one [`schedule`] the simulation driver walks
//! too, and the only place that decides who advertises when.
//! Advertisement boundaries where the advertiser has no open contact
//! are pruned from it (nothing could be emitted — the runtime skips
//! ads when alone), which keeps the step count proportional to contact
//! time instead of trace length, and a contact still open at the
//! trace's end wakes nobody there (the end rule is in that function's
//! doc).
//!
//! The walk over that schedule is written once, `conduct`, against
//! the crate-private `Fleet` seam: the mesh's one [`Host`] and the
//! broker's socket fleet are its two transports. The mesh applies each
//! step as it is; the socket fleet sends it whole, wakes included, as
//! one [`Msg::Step`](crate::proto::Msg::Step), which each daemon turns
//! back into the step, and each round as one `Process`. The daemons
//! answer both with their frames for other processes, which the broker
//! relays before its next command, so each daemon's one FIFO connection
//! is its round barrier. The result path is written once too: every
//! process's end-of-run reports go through one fold into the one
//! [`Outcome`] both transports return.
//!
//! [`Host`]: crate::host::Host

use crate::host::Reports;
use crate::proto::{author_hex, InVivoError, Report};
use crate::provision::{post_schedule, schedule, RunPlan, Step};
use sos_core::middleware::SosStats;
use sos_obs::{Journal, JournalEntry};
use sos_sim::SimTime;
use sos_trace::ContactTrace;
use std::collections::BTreeSet;

/// The `(time → step)` schedule of a `(trace, plan)` run: the one
/// [`schedule`] over the whole trace and its [`post_schedule`]. A step
/// runs exchange rounds only when it wakes an advertiser.
pub fn build_schedule(trace: &ContactTrace, plan: &RunPlan) -> Vec<(SimTime, Step)> {
    schedule(
        trace,
        trace.end_time(),
        post_schedule(trace, plan),
        plan.ad_interval,
    )
}

/// Everything a lockstep run produces, whichever transport carried it:
/// [`run_mesh`](crate::mesh::run_mesh) and
/// [`Broker::run`](crate::broker::Broker::run) both return it, so a
/// socket run matches the in-process one when the two are `==`.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Every stored bundle: `(holding node, author hex, post number)`.
    pub delivered: BTreeSet<(u32, String, u64)>,
    /// Per-node middleware counters, by node index.
    pub stats: Vec<SosStats>,
    /// Journal JSONL lines, grouped by node in ascending node order and,
    /// within a node, in the order that node emitted them: each node
    /// runs in one process, so every sharding and the socket run return
    /// the same lines in the same order, and the lines merge into a
    /// timeline whose sessions still open before they close.
    pub journal: Vec<String>,
    /// Journal entries the processes' rings dropped before the lines in
    /// `journal`: nonzero means the record is not the whole run.
    pub journal_dropped: u64,
    /// Posts injected by the schedule.
    pub posts: u64,
    /// Frames processed across all rounds and processes.
    pub frames: u64,
    /// Exchange rounds run across all steps.
    pub rounds: u64,
}

impl Outcome {
    /// The journal lines as one [`Journal`], with the entries the rings
    /// dropped counted, so that [`Provenance::build`] over it reports a
    /// truncated record as its `complete` violation. A line that does
    /// not parse (the fold refuses them, so only a line edited since)
    /// is left out.
    ///
    /// [`Provenance::build`]: sos_obs::Provenance::build
    pub fn to_journal(&self) -> Journal {
        let entries = self
            .journal
            .iter()
            .filter_map(|l| JournalEntry::from_jsonl(l));
        let mut journal = Journal::with_capacity(self.journal.len());
        entries.for_each(|entry| journal.push(entry));
        journal.count_dropped(self.journal_dropped);
        journal
    }
}

/// Rounds a single step may run before the exchange is declared
/// divergent. A sync session between two nodes needs a handful of
/// rounds; hitting this cap means a protocol loop, and the run aborts
/// with an error instead of spinning.
pub(crate) const MAX_ROUNDS_PER_STEP: u64 = 10_000;

/// The whole node population as the conductor sees it: something that
/// applies a schedule step wherever the nodes it names are hosted, runs
/// one barrier-synchronized exchange round at a time, and at the end
/// hands back what every process holds.
pub(crate) trait Fleet {
    /// Applies one schedule step wherever the nodes it names are hosted.
    fn step(&mut self, now: SimTime, step: &Step) -> Result<(), InVivoError>;

    /// One exchange round: every frame emitted so far lands and is
    /// processed everywhere. Returns how many frames that emitted.
    fn round(&mut self) -> Result<u64, InVivoError>;

    /// Ends the run: the reports of every process, one each.
    fn finish(&mut self) -> Result<Vec<Reports>, InVivoError>;
}

/// Walks the schedule of `(trace, plan)` over `fleet`: each step goes
/// out whole, and a step that wakes anyone is followed by exchange
/// rounds until one emits nothing. Then folds the fleet's reports into
/// the outcome.
///
/// # Errors
///
/// The fleet's own failures, [`InVivoError::Protocol`] for a step whose
/// rounds never quiesce, or reports [`fold`] refuses.
pub(crate) fn conduct<F: Fleet>(
    fleet: &mut F,
    trace: &ContactTrace,
    plan: &RunPlan,
) -> Result<Outcome, InVivoError> {
    let mut posts = 0u64;
    let mut rounds = 0u64;
    'steps: for (now, step) in build_schedule(trace, plan) {
        posts += step.posts.len() as u64;
        fleet.step(now, &step)?;
        if step.wakes.is_empty() {
            continue;
        }
        for _ in 0..MAX_ROUNDS_PER_STEP {
            rounds += 1;
            if fleet.round()? == 0 {
                continue 'steps;
            }
        }
        return Err(InVivoError::Protocol(format!(
            "exchange rounds at t={}ms exceeded {MAX_ROUNDS_PER_STEP}",
            now.as_millis()
        )));
    }
    fold(trace.node_count(), posts, rounds, fleet.finish()?)
}

/// Folds the reports of every process of a `node_count`-node run into
/// its outcome — the one place an outcome is assembled. Every node must
/// report its stats exactly once across the fleet, and only nodes of the
/// population may report: a node missing, reported twice or unknown is
/// a protocol violation, not a row of zeros, a silent overwrite or a
/// stray entry. So is a journal line that does not parse. Journal lines
/// are ordered stably by their node, keeping each node's own order, and
/// the entries each process's ring dropped are summed.
pub(crate) fn fold(
    node_count: usize,
    posts: u64,
    rounds: u64,
    reports: Vec<Reports>,
) -> Result<Outcome, InVivoError> {
    let violation = |what: String| Err(InVivoError::Protocol(what));
    let mut stats: Vec<Option<SosStats>> = vec![None; node_count];
    let mut delivered = BTreeSet::new();
    let mut journal = Vec::new();
    let (mut frames, mut journal_dropped) = (0, 0);
    for process in reports {
        frames += process.frames;
        journal_dropped += process.journal_dropped;
        for entry in process.entries {
            match entry {
                Report::Stats { node, stats: s } => {
                    let Some(slot) = stats.get_mut(node as usize) else {
                        return violation(format!("stats for unknown node {node}"));
                    };
                    if slot.replace(s).is_some() {
                        return violation(format!("stats for node {node} reported twice"));
                    }
                }
                Report::Delivered {
                    node,
                    author,
                    number,
                } => {
                    if node as usize >= node_count {
                        return violation(format!("delivered entry for unknown node {node}"));
                    }
                    delivered.insert((node, author_hex(author.as_bytes()), number));
                }
                Report::Journal { line } => {
                    let Some(entry) = JournalEntry::from_jsonl(&line) else {
                        return violation(format!("unparseable journal line {line:?}"));
                    };
                    if entry.node as usize >= node_count {
                        return violation(format!("journal line for unknown node {}", entry.node));
                    }
                    journal.push((entry.node, line));
                }
            }
        }
    }
    let stats = (stats.into_iter().enumerate())
        .map(|(node, s)| {
            s.ok_or_else(|| InVivoError::Protocol(format!("no stats for node {node}")))
        })
        .collect::<Result<Vec<SosStats>, InVivoError>>()?;
    journal.sort_by_key(|&(node, _)| node);
    Ok(Outcome {
        delivered,
        stats,
        journal: journal.into_iter().map(|(_, line)| line).collect(),
        journal_dropped,
        posts,
        frames,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_sim::world::{ContactEvent, ContactPhase};
    use sos_sim::SimDuration;
    use std::collections::BTreeMap;

    fn trace() -> ContactTrace {
        let mk = |time, a, b, up| ContactEvent {
            time: SimTime::from_secs(time),
            a,
            b,
            phase: if up {
                ContactPhase::Up
            } else {
                ContactPhase::Down
            },
            distance_m: 5.0,
        };
        ContactTrace::new(
            4,
            None,
            vec![
                mk(100, 0, 1, true),
                mk(130, 0, 1, false),
                mk(200, 2, 3, true),
            ],
        )
        .expect("valid trace")
    }

    #[test]
    fn ticks_only_where_the_advertiser_has_contact() {
        let plan = RunPlan {
            ad_interval: SimDuration::from_secs(60),
            ..RunPlan::default()
        };
        let schedule = build_schedule(&trace(), &plan);
        let tick_times: Vec<u64> = schedule
            .iter()
            .filter(|(_, s)| !s.wakes.is_empty())
            .map(|(t, _)| t.as_secs())
            .collect();
        // Node 0 (phase 0s) has a boundary at 120s inside [100, 130);
        // node 1 (phase 15s) has none inside it. The dangling 2–3
        // contact runs to trace end (200s): node 2's phase-30s
        // boundaries 210/270... exceed end (200s was the last event),
        // but 200..=200 admits none — except a boundary exactly at a
        // contact start is included when it exists.
        assert!(tick_times.contains(&120), "tick times: {tick_times:?}");
        assert!(
            tick_times.iter().all(|&t| t == 120 || t >= 200),
            "no ticks while everyone is alone: {tick_times:?}"
        );
    }

    /// A step as `build_schedule` built it before the one schedule
    /// replaced it: contact transitions as `(a, b, up)`, posts, and
    /// whether it ticks.
    #[derive(Debug, Default, PartialEq)]
    struct FormerStep {
        encounters: Vec<(usize, usize, bool)>,
        posts: Vec<(usize, u64)>,
        tick: bool,
    }

    /// `build_schedule` as it stood before the boundary arithmetic moved
    /// to `provision`: per contact interval of the trace, closed at its
    /// end. The reference the proptest below holds the one schedule to.
    fn build_schedule_reference(
        trace: &ContactTrace,
        plan: &RunPlan,
    ) -> Vec<(SimTime, FormerStep)> {
        use crate::provision::{ad_period, ad_phase};
        let mut steps: BTreeMap<SimTime, FormerStep> = BTreeMap::new();
        let end = trace.end_time();
        for ev in trace.events() {
            if ev.time > end {
                continue;
            }
            steps.entry(ev.time).or_default().encounters.push((
                ev.a,
                ev.b,
                ev.phase == ContactPhase::Up,
            ));
        }
        for (k, (at, node)) in post_schedule(trace, plan).into_iter().enumerate() {
            steps
                .entry(at)
                .or_default()
                .posts
                .push((node, k as u64 + 1));
        }
        let n = trace.node_count();
        let interval = ad_period(plan.ad_interval).as_millis();
        let mut ticks: BTreeSet<SimTime> = BTreeSet::new();
        for iv in trace.intervals(end) {
            for node in [iv.a, iv.b] {
                let phase = ad_phase(plan.ad_interval, node, n).as_millis();
                let start = iv.start.as_millis();
                let k = (start.saturating_sub(phase)).div_ceil(interval);
                let mut t = phase + k * interval;
                while t < iv.end.as_millis() && t <= end.as_millis() {
                    ticks.insert(SimTime::from_millis(t));
                    t += interval;
                }
            }
        }
        for t in ticks {
            steps.entry(t).or_default().tick = true;
        }
        steps.into_iter().collect()
    }

    mod schedule {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random small traces — contacts of random length, some
            /// left open, periods down to the 1 ms floor — schedule
            /// exactly as they did.
            #[test]
            fn build_schedule_equals_its_former_body(
                contacts in prop::collection::vec((0usize..5, 1usize..5, 0u64..900, 0u64..400), 1..10),
                ad_interval_ms in 0u64..120,
                total_posts in 0usize..6,
            ) {
                // Per pair: contacts laid end to end, each opening a
                // gap after the previous one closed; a zero length
                // leaves the pair's last contact open.
                let mut free_from: BTreeMap<(usize, usize), Option<u64>> = BTreeMap::new();
                let mut events = Vec::new();
                for (a, step, gap_ms, len_ms) in contacts {
                    let pair = (a, (a + step) % 6);
                    let pair = (pair.0.min(pair.1), pair.0.max(pair.1));
                    if pair.0 == pair.1 {
                        continue;
                    }
                    let Some(free) = *free_from.entry(pair).or_insert(Some(0)) else {
                        continue; // left open: nothing may follow it
                    };
                    let mk = |ms, phase| ContactEvent {
                        time: SimTime::from_millis(ms),
                        a: pair.0,
                        b: pair.1,
                        phase,
                        distance_m: 5.0,
                    };
                    let up = free + gap_ms;
                    events.push(mk(up, ContactPhase::Up));
                    if len_ms == 0 {
                        free_from.insert(pair, None);
                    } else {
                        events.push(mk(up + len_ms, ContactPhase::Down));
                        free_from.insert(pair, Some(up + len_ms + 1));
                    }
                }
                prop_assume!(!events.is_empty());
                events.sort_by_key(|ev| ev.time);
                let trace = ContactTrace::new(6, None, events).expect("valid trace");
                let plan = RunPlan {
                    ad_interval: SimDuration::from_millis(ad_interval_ms),
                    total_posts,
                    ..RunPlan::default()
                };
                let schedule: Vec<(SimTime, FormerStep)> = build_schedule(&trace, &plan)
                    .into_iter()
                    .map(|(t, step)| {
                        let encounters = (step.encounters.iter())
                            .map(|&(a, b, up)| (a, b, up.is_some()))
                            .collect();
                        let tick = !step.wakes.is_empty();
                        (t, FormerStep { encounters, posts: step.posts, tick })
                    })
                    .collect();
                prop_assert_eq!(schedule, build_schedule_reference(&trace, &plan));
            }
        }
    }

    /// A journal line of `node` at `secs`.
    fn line(node: u32, secs: u64) -> String {
        JournalEntry {
            time: SimTime::from_secs(secs),
            node,
            event: sos_obs::ObsEvent::StoreEvict { count: 1 },
        }
        .to_jsonl()
    }

    /// One process's reports: stats for `nodes` (node `i` with
    /// `posts = i + 1`), a stored bundle for each of `holders`, two
    /// journal lines per node, emitted at 5 s then at 3 s and
    /// interleaved across the nodes, and `frames` processed (and as
    /// many journal entries dropped, so that the sums agree too).
    fn reports(nodes: &[u32], holders: &[u32], frames: u64) -> Reports {
        let stats = nodes.iter().map(|&node| Report::Stats {
            node,
            stats: SosStats {
                posts: u64::from(node) + 1,
                ..SosStats::default()
            },
        });
        let delivered = holders.iter().map(|&node| Report::Delivered {
            node,
            author: sos_crypto::UserId([0xab; 10]),
            number: 1,
        });
        let journal = [5, 3].into_iter().flat_map(|secs| {
            (nodes.iter()).map(move |&node| Report::Journal {
                line: line(node, secs),
            })
        });
        Reports {
            entries: stats.chain(delivered).chain(journal).collect(),
            frames,
            journal_dropped: frames,
        }
    }

    #[test]
    fn every_node_reports_stats_exactly_once() {
        let two_processes = vec![reports(&[1], &[1], 5), reports(&[0], &[0, 1], 7)];
        let outcome = fold(2, 3, 4, two_processes).expect("complete reports");
        let posts: Vec<u64> = outcome.stats.iter().map(|s| s.posts).collect();
        assert_eq!(posts, [1, 2]);
        let author = "ab".repeat(10);
        let held: Vec<(u32, &str, u64)> = (outcome.delivered.iter())
            .map(|(node, by, number)| (*node, by.as_str(), *number))
            .collect();
        assert_eq!(held, [(0, author.as_str(), 1), (1, author.as_str(), 1)]);
        // By node, each node's lines in the order it emitted them (not
        // sorted as text, which would put 3 s first), whatever process
        // hosted it.
        let by_node = [line(0, 5), line(0, 3), line(1, 5), line(1, 3)];
        assert_eq!(outcome.journal, by_node);
        let one_process = fold(2, 3, 4, vec![reports(&[0, 1], &[0, 1, 1], 12)]);
        assert_eq!(one_process.expect("complete reports"), outcome);
        assert_eq!((outcome.posts, outcome.frames, outcome.rounds), (3, 12, 4));
        assert_eq!(outcome.journal_dropped, 12);
        assert_eq!(outcome.to_journal().dropped(), 12);
        assert_eq!(outcome.to_journal().to_jsonl(), by_node.join("\n") + "\n");

        let with_line = |line: String| {
            let mut process = reports(&[0, 1], &[], 0);
            process.entries.push(Report::Journal { line });
            vec![process]
        };
        for (processes, violation) in [
            (
                vec![reports(&[0, 1], &[], 0), reports(&[1], &[], 0)],
                "stats for node 1 reported twice",
            ),
            (vec![reports(&[0], &[], 0)], "no stats for node 1"),
            (
                vec![reports(&[0, 1, 2], &[], 0)],
                "stats for unknown node 2",
            ),
            (
                vec![reports(&[0, 1], &[2], 0)],
                "delivered entry for unknown node 2",
            ),
            (with_line(line(2, 1)), "journal line for unknown node 2"),
            (
                with_line("line of 0".into()),
                r#"unparseable journal line "line of 0""#,
            ),
        ] {
            match fold(2, 0, 0, processes) {
                Err(InVivoError::Protocol(what)) => assert_eq!(what, violation),
                other => panic!("expected {violation:?}, got {other:?}"),
            }
        }
    }

    /// A fleet whose every round emits a frame: the first wake (node 0's
    /// boundary at 120 s, inside its 100–130 s contact) never quiesces.
    struct Chatter;

    impl Fleet for Chatter {
        fn step(&mut self, _: SimTime, _: &Step) -> Result<(), InVivoError> {
            Ok(())
        }

        fn round(&mut self) -> Result<u64, InVivoError> {
            Ok(1)
        }

        fn finish(&mut self) -> Result<Vec<Reports>, InVivoError> {
            panic!("a run whose step never quiesced has nothing to report")
        }
    }

    #[test]
    fn the_conductor_names_a_tick_that_never_quiesces() {
        let plan = RunPlan {
            ad_interval: SimDuration::from_secs(60),
            ..RunPlan::default()
        };
        match conduct(&mut Chatter, &trace(), &plan) {
            Err(InVivoError::Protocol(what)) => {
                assert_eq!(what, "exchange rounds at t=120000ms exceeded 10000");
            }
            other => panic!("expected the stall, got {other:?}"),
        }
    }

    #[test]
    fn encounters_and_posts_merge_in_time_order() {
        let plan = RunPlan {
            total_posts: 5,
            ..RunPlan::default()
        };
        let schedule = build_schedule(&trace(), &plan);
        let times: Vec<SimTime> = schedule.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        let posts: u64 = schedule.iter().map(|(_, s)| s.posts.len() as u64).sum();
        assert_eq!(posts, 5);
        // Post numbering is the global schedule order, 1-based.
        let numbers: Vec<u64> = schedule
            .iter()
            .flat_map(|(_, s)| s.posts.iter().map(|&(_, n)| n))
            .collect();
        assert_eq!(numbers, (1..=5).collect::<Vec<_>>());
    }
}
