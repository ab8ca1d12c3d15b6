//! The in-process reference transport: one [`Host`] hosting every node
//! on an instant air, conducted by the same
//! [`lockstep`](crate::lockstep) walk the broker runs over sockets.
//!
//! This is the oracle the loopback test compares a real-socket run
//! against: same provisioning, same schedule, same round engine, same
//! report fold — so the two [`Outcome`]s must be equal, field for
//! field. It is also the simulation driver's run on an instant air:
//! the driver is this engine settled up to each step instead of
//! conducted round by round.

use crate::host::{Host, Reports};
use crate::lockstep::{conduct, Fleet, Outcome};
use crate::proto::InVivoError;
use crate::provision::{provision_apps, RunPlan, Step};
use sos_net::Air;
use sos_obs::JournalHandle;
use sos_sim::SimTime;
use sos_trace::ContactTrace;

/// A host of every node is a whole fleet: nothing it emits is remote.
impl Fleet for Host {
    fn step(&mut self, now: SimTime, step: &Step) -> Result<(), InVivoError> {
        self.apply(now, step, &mut ());
        Ok(())
    }

    fn round(&mut self) -> Result<u64, InVivoError> {
        Ok(Host::round(self))
    }

    fn finish(&mut self) -> Result<Vec<Reports>, InVivoError> {
        Ok(vec![self.reports()])
    }
}

/// Runs the full lockstep protocol in-process and reports the outcome.
///
/// # Errors
///
/// [`InVivoError::Protocol`] if a step's rounds never quiesce. No frame
/// of an in-process run crosses the codec, so none can fail to decode.
pub fn run_mesh(trace: &ContactTrace, plan: &RunPlan) -> Result<Outcome, InVivoError> {
    let apps = provision_apps(trace, plan);
    let journal = JournalHandle::new();
    let mut host = Host::new(apps, plan.seed, Air::instant(), (0, 1), Some(&journal));
    conduct(&mut host, trace, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::author_hex;
    use crate::provision::post_schedule;
    use sos_core::routing::SchemeKind;
    use sos_sim::world::{ContactEvent, ContactPhase};
    use sos_sim::{SimDuration, SimTime};

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
                .any(|&(at, node)| node == 0 && at < SimTime::from_secs(400)),
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
        assert_eq!(a, b);
    }
}
