//! The in-process reference transport: one `Host` hosting every
//! node, conducted by the same [`lockstep`](crate::lockstep) walk the
//! broker runs over sockets.
//!
//! This is the oracle the loopback test compares a real-socket run
//! against: same provisioning, same schedule, same round engine — so
//! the delivered set, per-node stats, and journal must match
//! byte-for-byte.

use crate::host::Host;
use crate::lockstep::{conduct, Fleet, MAX_ROUNDS_PER_TICK};
use crate::proto::{author_hex, Msg};
use crate::provision::RunPlan;
use sos_core::middleware::SosStats;
use sos_net::NetError;
use sos_sim::SimTime;
use sos_trace::ContactTrace;
use std::collections::BTreeSet;

/// Mesh transport failures.
#[derive(Debug)]
pub enum MeshError {
    /// A tick's exchange rounds did not quiesce within the lockstep
    /// round cap.
    RoundsExhausted {
        /// The tick that diverged.
        at: SimTime,
    },
    /// A locally produced frame failed to decode on the receiving
    /// side — impossible unless the codec round-trip is broken.
    Frame(NetError),
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::RoundsExhausted { at } => write!(
                f,
                "exchange rounds at t={}ms exceeded {MAX_ROUNDS_PER_TICK}",
                at.as_millis()
            ),
            MeshError::Frame(e) => write!(f, "frame rejected in-process: {e}"),
        }
    }
}

impl std::error::Error for MeshError {}

/// Everything a lockstep run produces, in transport-comparable form.
#[derive(Debug)]
pub struct MeshOutcome {
    /// Every stored bundle: `(holding node, author hex, post number)`.
    pub delivered: BTreeSet<(u32, String, u64)>,
    /// Per-node middleware counters, by node index.
    pub stats: Vec<SosStats>,
    /// Journal JSONL lines, sorted (socket runs interleave processes'
    /// lines arbitrarily; the sorted multiset is the invariant).
    pub journal: Vec<String>,
    /// Posts injected.
    pub posts: u64,
    /// Frames exchanged across all rounds.
    pub frames: u64,
    /// Exchange rounds run across all ticks.
    pub rounds: u64,
}

/// A host of every node is a whole fleet: nothing it emits is remote.
impl Fleet for Host {
    type Error = MeshError;

    fn stalled(at: SimTime) -> MeshError {
        MeshError::RoundsExhausted { at }
    }

    fn event(&mut self, msg: &Msg) -> Result<(), MeshError> {
        self.apply(msg);
        Ok(())
    }

    fn round(&mut self) -> Result<u64, MeshError> {
        Ok(self.process_round().map_err(MeshError::Frame)?.emitted)
    }
}

/// Runs the full lockstep protocol in-process and reports the outcome.
///
/// # Errors
///
/// [`MeshError::RoundsExhausted`] if a tick never quiesces;
/// [`MeshError::Frame`] if a frame the mesh itself produced fails to
/// decode (a codec bug, not an input condition).
pub fn run_mesh(trace: &ContactTrace, plan: &RunPlan) -> Result<MeshOutcome, MeshError> {
    let mut host = Host::new(trace, plan, 0, 1);
    let (posts, rounds) = conduct(&mut host, trace, plan)?;
    let reports = host.reports();
    let mut journal: Vec<String> = reports.journal.iter().map(|e| e.to_jsonl()).collect();
    journal.sort();
    Ok(MeshOutcome {
        delivered: reports
            .delivered
            .into_iter()
            .map(|(node, author, number)| (node, author_hex(author.as_bytes()), number))
            .collect(),
        stats: reports.stats.into_iter().map(|(_, s)| s).collect(),
        journal,
        posts,
        frames: reports.frames,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provision::{post_schedule, provision_apps};
    use sos_core::routing::SchemeKind;
    use sos_sim::world::{ContactEvent, ContactPhase};
    use sos_sim::SimDuration;

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
            3,
            None,
            vec![
                mk(50, 0, 1, true),
                mk(400, 0, 1, false),
                mk(500, 1, 2, true),
                mk(900, 1, 2, false),
            ],
        )
        .expect("valid trace")
    }

    #[test]
    fn epidemic_mesh_relays_across_the_gap() {
        let plan = RunPlan {
            scheme: SchemeKind::Epidemic,
            // The fewest posts for which the seeded workload has node 0
            // author one inside its only contact (asserted below).
            total_posts: 12,
            ad_interval: SimDuration::from_secs(60),
            ..RunPlan::default()
        };
        let trace = trace();
        // Precondition: node 0 authors something while it can still
        // hand it to node 1 (their only contact closes at 400 s).
        assert!(
            post_schedule(&trace, &plan)
                .iter()
                .any(|&(at, node, _)| node == 0 && at < SimTime::from_secs(400)),
            "node 0 must post before 400 s"
        );
        let author = author_hex(provision_apps(&trace, &plan)[0].user_id().as_bytes());

        let outcome = run_mesh(&trace, &plan).expect("mesh run");
        assert_eq!(outcome.posts, 12);
        // Nodes 0 and 2 never meet, and 0–1 closes before 1–2 opens:
        // whatever node 2 holds of node 0's went through node 1's store.
        assert!(
            outcome
                .delivered
                .iter()
                .any(|(node, by, _)| *node == 2 && *by == author),
            "node 2 holds nothing authored by node 0: {:?}",
            outcome.delivered
        );
    }

    #[test]
    fn mesh_runs_are_deterministic() {
        let plan = RunPlan {
            scheme: SchemeKind::SprayAndWait,
            total_posts: 5,
            ..RunPlan::default()
        };
        let a = run_mesh(&trace(), &plan).expect("run a");
        let b = run_mesh(&trace(), &plan).expect("run b");
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.journal, b.journal);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.rounds, b.rounds);
    }
}
