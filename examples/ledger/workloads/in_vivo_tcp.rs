//! `in_vivo_tcp`: the first two days of the `study_replay` shape,
//! epidemic, conducted by a broker over two daemons on TCP loopback,
//! checked against the in-process mesh run during set-up.
//!
//! The daemons are threads of this process, not OS processes, and the
//! traffic crosses the host's loopback interface, not a link: the
//! numbers size the transport and lockstep code, not a network. Two
//! daemons, not three: on a 2-core box a third measures the scheduler.

use super::study_replay::{shaped_trace, AD_SECS};
use super::{middleware_layers, Counts, Layers, Rep, Traced, Workload};
use crate::spans::Spans;
use crate::stats::{self, Fingerprint};
use crate::{probes, sut};

const DAEMONS: usize = 2;
/// Two of the study's seven days, with its post rate: a socket run pays
/// a loopback round trip per lockstep round, ~10x the mesh's time.
const DAYS: u64 = 2;
const POSTS: usize = 74;
/// `SchemeKind::ALL[0]`.
const EPIDEMIC: usize = 0;

pub struct InVivoTcp {
    trace: sut::Trace,
    plan: sut::Plan,
    oracle: sut::Lockstep,
    oracle_frames: u64,
    /// Author tag → node, and who follows each node.
    authors: Vec<String>,
    followers: Vec<Vec<usize>>,
    identities: (sut::Identity, sut::Identity),
    provision_ms: f64,
    mesh_wall_s: f64,
}

impl InVivoTcp {
    /// Deliveries to interested followers, and how many were owed.
    fn deliveries(&self, run: &sut::Lockstep) -> (u64, u64) {
        // Every post an author made is held by the author itself.
        let mut owed = 0u64;
        let mut made = 0u64;
        for (node, author, _) in &run.delivered {
            let Some(origin) = self.authors.iter().position(|a| a == author) else {
                continue;
            };
            if origin == *node as usize {
                owed += self.followers[origin].len() as u64;
            } else if self.followers[origin].contains(&(*node as usize)) {
                made += 1;
            }
        }
        (made, owed)
    }
}

impl Workload for InVivoTcp {
    const NAME: &'static str = "in_vivo_tcp";

    fn setup(seed: u64) -> InVivoTcp {
        let trace = shaped_trace(seed, DAYS);
        let plan = sut::Plan {
            seed,
            posts: POSTS,
            ad_secs: AD_SECS,
        };
        let ((authors, followers), provision) =
            stats::timed(|| sut::provision(&trace, plan, EPIDEMIC));
        let (mesh, mesh_wall) = stats::timed(|| sut::mesh(&trace, plan, EPIDEMIC));
        let (oracle, oracle_frames) = mesh.expect("the in-process mesh oracle runs to the end");
        let mut ca = sut::new_ca(seed);
        InVivoTcp {
            identities: (
                sut::new_identity(&mut ca, seed, 0),
                sut::new_identity(&mut ca, seed, 1),
            ),
            trace,
            plan,
            oracle,
            oracle_frames,
            authors,
            followers,
            provision_ms: provision.as_secs_f64() * 1e3,
            mesh_wall_s: mesh_wall.as_secs_f64(),
        }
    }

    fn fingerprint_inputs(&self, fp: &mut Fingerprint) {
        fp.bytes(&sut::to_binary(&self.trace));
    }

    fn rep(&mut self, _observed: bool, spans: &mut Spans) -> Rep {
        let root = spans.enter("ledger.rep", 0);
        let (result, wall) = stats::timed(|| {
            spans.call("node.tcp", 0, || {
                sut::tcp(&self.trace, self.plan, EPIDEMIC, DAEMONS)
            })
        });
        spans.exit(root);

        let mut counts = Counts::default();
        let mut fp = Fingerprint::default();
        match result {
            Err(e) => {
                counts.attempted += 1;
                counts.fail(format!("in-vivo run: {e}"));
            }
            Ok(run) => {
                // Byte-equal to the oracle by the checks below, so the
                // oracle's frame count is this run's too.
                counts.frames = self.oracle_frames;
                counts.contacts = self.trace.len() as u64;
                counts.rounds = run.rounds;
                for s in &run.stats {
                    counts.bundles += sut::accepted(s);
                    counts.bundles_received += s.bundles_received;
                    counts.duplicates += s.bundles_duplicate;
                    counts.sessions_opened += s.sessions_initiated;
                    counts.attempted += s.bundles_received + s.sessions_initiated;
                    counts.check(s.security_rejections + s.security_alerts == 0, || {
                        format!("{} bundles rejected", s.security_rejections)
                    });
                }
                let (made, owed) = self.deliveries(&run);
                counts.delivery_ratio = made as f64 / owed.max(1) as f64;
                counts.check(run.delivered == self.oracle.delivered, || {
                    "delivered set differs from the mesh oracle".into()
                });
                counts.check(run.stats == self.oracle.stats, || {
                    "per-node stats differ from the mesh oracle".into()
                });
                counts.check(run.journal == self.oracle.journal, || {
                    "journal differs from the mesh oracle".into()
                });
                counts.check(
                    run.posts == self.oracle.posts && run.rounds == self.oracle.rounds,
                    || "posts or rounds differ from the mesh oracle".into(),
                );
                let sessions = sut::jsonl_sessions(&run.journal);
                counts.observed_only.add(&sessions);
                counts.check(sessions.broken == 0, || {
                    format!("{} sessions broke", sessions.broken)
                });
                for (node, author, number) in &run.delivered {
                    fp.u64(u64::from(*node)).str(author).u64(*number);
                }
            }
        }
        counts.seal(fp);
        Rep {
            wall,
            counts,
            latencies_ns: Vec::new(),
        }
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers, _checks: &mut Counts) {
        let counts = traced.reference;
        // The mesh is this thread's twin of the socket run: its system
        // spans stand in for the daemons', whose threads keep their own.
        sut::profile_enable(true);
        let _ = sut::profile_take();
        let _ = std::hint::black_box(sut::mesh(&self.trace, self.plan, EPIDEMIC));
        sut::profile_enable(false);
        let profile = sut::profile_take();
        // The mesh wall is the untraced one measured during set-up.
        let mesh_wall_s = self.mesh_wall_s;
        middleware_layers(
            &profile,
            traced.blind_wall_s,
            traced,
            (&self.identities.0, &self.identities.1),
            out,
        );

        out.insert("node.provision_ms", self.provision_ms);
        let (steps, schedule) =
            stats::timed(|| sut::schedule_len(&self.trace, self.plan, EPIDEMIC));
        std::hint::black_box(steps);
        out.insert("node.schedule_ms", schedule.as_secs_f64() * 1e3);
        out.insert("node.mesh_wall_s", mesh_wall_s);
        out.insert("node.tcp_wall_s", traced.blind_wall_s);
        out.insert("node.tcp_over_mesh", traced.blind_wall_s / mesh_wall_s);
        out.insert("node.rounds", counts.rounds as f64);
        out.insert(
            "node.frames_per_round",
            counts.frames as f64 / counts.rounds.max(1) as f64,
        );
        out.insert(
            "node.round_us",
            (traced.blind_wall_s - mesh_wall_s) / counts.rounds.max(1) as f64 * 1e6,
        );
        probes::proto(out);
    }
}
