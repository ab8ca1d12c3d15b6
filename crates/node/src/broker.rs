//! The `sos-broker`: conducts an in-vivo run across N `sos-node`
//! processes.
//!
//! The broker owns no middleware state. Its daemons are the socket
//! fleet the [`lockstep`](crate::lockstep) conductor walks the schedule
//! over, each on one connection, the broker at the centre of the star.
//! Each schedule step — its encounter transitions, posts and
//! advertisement wakes — is one `Msg::Step` broadcast, and one exchange
//! round is one `Process` broadcast. Every daemon answers a step with
//! wakes and every `Process` with the frames it encoded for other
//! processes, as `Msg::Data`, then a `ProcessAck`; the broker checks
//! each answer and relays every frame to the daemon hosting its
//! destination, ahead of that daemon's next command. Each connection's
//! FIFO order is the round barrier: no frame is in flight when a round
//! begins.
//!
//! At the end each daemon streams its typed reports (stats, stored
//! bundles, journal lines, frames processed) home, and the conductor
//! folds them into the same [`Outcome`] [`run_mesh`](crate::mesh::run_mesh)
//! returns.

use crate::host::Reports;
use crate::lockstep::{conduct, Fleet, Outcome};
use crate::proto::{scheme_to_byte, InVivoError, Msg, MsgStream};
use crate::provision::{require_ad_interval, require_population, RunPlan, Step};
use sos_sim::SimTime;
use sos_trace::{codec_text, ContactTrace};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// Accept-loop polls (at [`ACCEPT_POLL_SLEEP`] each) while waiting for
/// daemons to connect.
const MAX_ACCEPT_POLLS: u64 = 60_000;

/// Sleep between accept polls.
const ACCEPT_POLL_SLEEP: Duration = Duration::from_millis(5);

/// Broker parameters.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Address to listen for daemon connections on.
    pub listen: String,
    /// Daemons to wait for before starting the run.
    pub num_procs: usize,
    /// The run parameters, shipped to every daemon in `Assign`.
    pub plan: RunPlan,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            listen: "127.0.0.1:0".into(),
            num_procs: 2,
            plan: RunPlan::default(),
        }
    }
}

/// A bound broker: create with [`Broker::bind`], learn the port from
/// [`Broker::local_addr`], hand it to the daemons, then [`Broker::run`].
#[derive(Debug)]
pub struct Broker {
    listener: TcpListener,
    config: BrokerConfig,
}

impl Broker {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// [`InVivoError::Io`] if the address cannot be bound, or
    /// [`InVivoError::Protocol`] for a zero-process configuration or an
    /// advertisement interval under 1 ms (which the schedule would floor
    /// to 1 ms, so the run would not be the one asked for).
    pub fn bind(config: BrokerConfig) -> Result<Broker, InVivoError> {
        if config.num_procs == 0 {
            return Err(InVivoError::Protocol("num_procs must be >= 1".into()));
        }
        require_ad_interval(config.plan.ad_interval)?;
        let listener = TcpListener::bind(config.listen.as_str())?;
        Ok(Broker { listener, config })
    }

    /// The bound address daemons should connect to.
    ///
    /// # Errors
    ///
    /// [`InVivoError::Io`] if the socket's address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr, InVivoError> {
        Ok(self.listener.local_addr()?)
    }

    /// Conducts the full run and gathers the outcome.
    ///
    /// # Errors
    ///
    /// [`InVivoError`] when daemons fail to connect in time or violate
    /// the protocol, or a socket fails.
    pub fn run(self, trace: &ContactTrace) -> Result<Outcome, InVivoError> {
        require_population(trace)?;
        let mut fleet = SocketFleet {
            daemons: self.accept_daemons(trace)?,
            node_count: trace.node_count(),
        };
        let outcome = conduct(&mut fleet, trace, &self.config.plan)?;
        broadcast(&mut fleet.daemons, &Msg::Shutdown)?;
        Ok(outcome)
    }

    /// Waits (bounded) for `num_procs` connections, sending each its
    /// assignment (trace inline, native text) as it arrives.
    fn accept_daemons(&self, trace: &ContactTrace) -> Result<Vec<MsgStream>, InVivoError> {
        let (plan, num_procs) = (&self.config.plan, self.config.num_procs);
        let scheme = scheme_to_byte(plan.scheme).ok_or_else(|| {
            InVivoError::Protocol(format!(
                "scheme {:?} has no wire encoding (custom schemes cannot run in vivo)",
                plan.scheme
            ))
        })?;
        let trace_text = codec_text::to_text(trace);
        self.listener.set_nonblocking(true)?;
        let mut daemons = Vec::with_capacity(num_procs);
        let mut polls = 0u64;
        while daemons.len() < num_procs {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
                    let mut control = MsgStream::new(stream);
                    control.send(&Msg::Assign {
                        proc_index: daemons.len() as u32,
                        num_procs: num_procs as u32,
                        scheme,
                        seed: plan.seed,
                        trace_text: trace_text.clone(),
                    })?;
                    daemons.push(control);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    polls += 1;
                    if polls > MAX_ACCEPT_POLLS {
                        return Err(InVivoError::Protocol(format!(
                            "only {}/{num_procs} daemons connected",
                            daemons.len(),
                        )));
                    }
                    std::thread::sleep(ACCEPT_POLL_SLEEP);
                }
                Err(e) => return Err(InVivoError::Io(e)),
            }
        }
        Ok(daemons)
    }
}

/// Sends `msg` on every daemon's connection.
fn broadcast(daemons: &mut [MsgStream], msg: &Msg) -> Result<(), InVivoError> {
    for control in daemons.iter_mut() {
        control.send(msg)?;
    }
    Ok(())
}

/// The daemons as the conductor's fleet: every schedule step and every
/// round is a broadcast, answered when it can emit, and the end a
/// `Finish` answered by each daemon's report stream.
struct SocketFleet {
    daemons: Vec<MsgStream>,
    /// Nodes in the population: a frame for any other is refused.
    node_count: usize,
}

impl SocketFleet {
    /// Reads every daemon's answer to the command just broadcast — its
    /// frames for other processes, then its `ProcessAck` — and, once all
    /// have answered, relays each frame to the daemon hosting its
    /// destination. Returns the frames the daemons emitted. (Relaying
    /// to a daemon still writing its answer could fill both directions
    /// of its connection at once, and neither end would read.)
    fn relay(&mut self) -> Result<u64, InVivoError> {
        let (mut frames, mut emitted) = (Vec::new(), 0);
        for control in &mut self.daemons {
            loop {
                match control.recv()? {
                    data @ Msg::Data { to, .. } if (to as usize) < self.node_count => {
                        frames.push((to as usize, data));
                    }
                    Msg::Data { to, .. } => {
                        return Err(InVivoError::Protocol(format!(
                            "Data for node {to}, outside the {}-node population",
                            self.node_count
                        )))
                    }
                    Msg::ProcessAck { emitted: e } => {
                        emitted += e;
                        break;
                    }
                    other => {
                        return Err(InVivoError::Protocol(format!(
                            "expected Data or ProcessAck, got {other:?}"
                        )))
                    }
                }
            }
        }
        let procs = self.daemons.len();
        for (to, data) in frames {
            self.daemons[to % procs].send(&data)?;
        }
        Ok(emitted)
    }
}

impl Fleet for SocketFleet {
    fn step(&mut self, now: SimTime, step: &Step) -> Result<(), InVivoError> {
        let contact =
            |&(a, b, up): &(usize, usize, Option<f64>)| (a as u32, b as u32, up.is_some());
        let post = |&(node, number): &(usize, u64)| (node as u32, number);
        let msg = Msg::Step {
            now_ms: now.as_millis(),
            encounters: step.encounters.iter().map(contact).collect(),
            posts: step.posts.iter().map(post).collect(),
            wakes: step.wakes.iter().map(|&node| node as u32).collect(),
        };
        broadcast(&mut self.daemons, &msg)?;
        // A step that wakes nobody emits nothing, and is not answered.
        if !step.wakes.is_empty() {
            self.relay()?;
        }
        Ok(())
    }

    fn round(&mut self) -> Result<u64, InVivoError> {
        broadcast(&mut self.daemons, &Msg::Process)?;
        self.relay()
    }

    fn finish(&mut self) -> Result<Vec<Reports>, InVivoError> {
        broadcast(&mut self.daemons, &Msg::Finish)?;
        let streams = self.daemons.iter_mut().map(|control| {
            let mut entries = Vec::new();
            loop {
                match control.recv()? {
                    Msg::Report(entry) => entries.push(entry),
                    Msg::ReportDone {
                        frames,
                        journal_dropped,
                    } => {
                        return Ok(Reports {
                            entries,
                            frames,
                            journal_dropped,
                        })
                    }
                    other => {
                        return Err(InVivoError::Protocol(format!(
                            "expected Report, got {other:?}"
                        )))
                    }
                }
            }
        });
        streams.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_sim::SimDuration;

    /// A zero advertisement interval would run floored to 1 ms, not as
    /// asked, so the broker refuses it before it accepts anyone, instead
    /// of conducting a run nobody asked for.
    #[test]
    fn a_plan_every_daemon_would_refuse_is_refused_at_bind() {
        let config = BrokerConfig {
            plan: RunPlan {
                ad_interval: SimDuration::ZERO,
                ..RunPlan::default()
            },
            ..BrokerConfig::default()
        };
        match Broker::bind(config) {
            Err(InVivoError::Protocol(what)) => {
                assert_eq!(what, "advertisement interval must be at least 1 ms");
            }
            other => panic!("expected the refusal, got {other:?}"),
        }
    }

    /// A daemon's answer is input from another process: a frame for a
    /// node outside the population, or a message that is no answer, is a
    /// protocol violation that names it, and nothing of that answer is
    /// relayed — not even the good frame ahead of it.
    #[test]
    fn a_misbehaving_daemon_is_refused_and_relays_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = std::net::TcpStream::connect(listener.local_addr().expect("addr"));
        let mut daemon = MsgStream::new(stream.expect("connect"));
        let (stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut fleet = SocketFleet {
            daemons: vec![MsgStream::new(stream)],
            node_count: 4,
        };
        let data = |to| Msg::Data {
            from: 0,
            to,
            seq: 1,
            frame: vec![7],
        };

        // A well-formed answer: its frame comes back after the command.
        daemon.send(&data(3)).expect("send");
        daemon.send(&Msg::ProcessAck { emitted: 2 }).expect("send");
        assert_eq!(fleet.round().expect("a good answer"), 2);
        assert_eq!(daemon.recv().expect("command"), Msg::Process);
        assert_eq!(daemon.recv().expect("relayed"), data(3));

        for (bad, named) in [(data(4), "Data for node 4"), (Msg::Finish, "Finish")] {
            daemon.send(&data(3)).expect("send");
            daemon.send(&bad).expect("send");
            match fleet.round() {
                Err(InVivoError::Protocol(what)) => assert!(what.contains(named), "{what}"),
                other => panic!("{named}: expected a violation, got {other:?}"),
            }
            assert_eq!(daemon.recv().expect("command"), Msg::Process);
        }
        drop(fleet);
        match daemon.recv() {
            Err(InVivoError::Protocol(what)) => assert!(what.contains("closed"), "{what}"),
            other => panic!("nothing may follow the commands, got {other:?}"),
        }
    }
}
