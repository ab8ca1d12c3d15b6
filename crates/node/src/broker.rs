//! The `sos-broker`: conducts an in-vivo run across N `sos-node`
//! processes.
//!
//! The broker owns no middleware state. Its daemons are the socket
//! fleet the [`lockstep`](crate::lockstep) conductor walks the schedule
//! over: each schedule step — its encounter transitions, posts and
//! advertisement wakes — is one `Msg::Step` broadcast on one control
//! connection per daemon, and one exchange round is
//!
//! 1. `Collect` until the cumulative remote sent/received counters
//!    balance (nothing in flight anywhere);
//! 2. `Process` everywhere, summing what the daemons emitted.
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

/// Collect-barrier retries per round before the broker declares the
/// fleet wedged (each retry sleeps [`COLLECT_RETRY_SLEEP`]).
const MAX_COLLECT_RETRIES: u64 = 20_000;

/// Sleep between collect retries while frames drain through loopback.
const COLLECT_RETRY_SLEEP: Duration = Duration::from_millis(1);

/// Accept-loop polls (at [`ACCEPT_POLL_SLEEP`] each) while waiting for
/// daemons to connect.
const MAX_ACCEPT_POLLS: u64 = 60_000;

/// Sleep between accept polls.
const ACCEPT_POLL_SLEEP: Duration = Duration::from_millis(5);

/// Broker parameters.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Address to listen for daemon control connections on.
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
    /// Binds the control listener.
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

    /// The bound control address daemons should connect to.
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
    /// [`InVivoError`] when daemons fail to connect in time, violate
    /// the protocol, or a barrier never converges.
    pub fn run(self, trace: &ContactTrace) -> Result<Outcome, InVivoError> {
        require_population(trace)?;
        let mut daemons = self.accept_daemons()?;
        self.assign(trace, &mut daemons)?;
        let mut fleet = SocketFleet { daemons, now_ms: 0 };
        let outcome = conduct(&mut fleet, trace, &self.config.plan)?;
        broadcast(&mut fleet.daemons, &Msg::Shutdown)?;
        Ok(outcome)
    }

    /// Waits (bounded) for `num_procs` control connections + `Hello`s.
    fn accept_daemons(&self) -> Result<Vec<(MsgStream, String)>, InVivoError> {
        self.listener.set_nonblocking(true)?;
        let mut daemons = Vec::with_capacity(self.config.num_procs);
        let mut polls = 0u64;
        while daemons.len() < self.config.num_procs {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
                    let mut control = MsgStream::new(stream);
                    match control.recv()? {
                        Msg::Hello { data_addr } => daemons.push((control, data_addr)),
                        other => {
                            return Err(InVivoError::Protocol(format!(
                                "expected Hello, got {other:?}"
                            )))
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    polls += 1;
                    if polls > MAX_ACCEPT_POLLS {
                        return Err(InVivoError::Protocol(format!(
                            "only {}/{} daemons connected",
                            daemons.len(),
                            self.config.num_procs
                        )));
                    }
                    std::thread::sleep(ACCEPT_POLL_SLEEP);
                }
                Err(e) => return Err(InVivoError::Io(e)),
            }
        }
        Ok(daemons)
    }

    /// Ships every daemon its assignment (trace inline, native text).
    fn assign(
        &self,
        trace: &ContactTrace,
        daemons: &mut [(MsgStream, String)],
    ) -> Result<(), InVivoError> {
        let plan = &self.config.plan;
        let scheme = scheme_to_byte(plan.scheme).ok_or_else(|| {
            InVivoError::Protocol(format!(
                "scheme {:?} has no wire encoding (custom schemes cannot run in vivo)",
                plan.scheme
            ))
        })?;
        let trace_text = codec_text::to_text(trace);
        let hosts: Vec<String> = daemons.iter().map(|(_, addr)| addr.clone()).collect();
        for (i, (control, _)) in daemons.iter_mut().enumerate() {
            control.send(&Msg::Assign {
                proc_index: i as u32,
                num_procs: hosts.len() as u32,
                scheme,
                seed: plan.seed,
                trace_text: trace_text.clone(),
                hosts: hosts.clone(),
            })?;
        }
        Ok(())
    }
}

/// Sends `msg` on every control connection.
fn broadcast(daemons: &mut [(MsgStream, String)], msg: &Msg) -> Result<(), InVivoError> {
    for (control, _) in daemons.iter_mut() {
        control.send(msg)?;
    }
    Ok(())
}

/// The daemons as the conductor's fleet: every schedule step is a
/// broadcast, every round a collect barrier plus a `Process`, and the
/// end a `Finish` answered by each daemon's report stream.
struct SocketFleet {
    daemons: Vec<(MsgStream, String)>,
    /// The last step, for naming a barrier that never converges.
    now_ms: u64,
}

impl Fleet for SocketFleet {
    fn step(&mut self, now: SimTime, step: &Step) -> Result<(), InVivoError> {
        self.now_ms = now.as_millis();
        let contact =
            |&(a, b, up): &(usize, usize, Option<f64>)| (a as u32, b as u32, up.is_some());
        let post = |&(node, number): &(usize, u64)| (node as u32, number);
        let msg = Msg::Step {
            now_ms: self.now_ms,
            encounters: step.encounters.iter().map(contact).collect(),
            posts: step.posts.iter().map(post).collect(),
            wakes: step.wakes.iter().map(|&node| node as u32).collect(),
        };
        broadcast(&mut self.daemons, &msg)
    }

    fn round(&mut self) -> Result<u64, InVivoError> {
        // Collect barrier: cumulative remote sent == received means no
        // frame is still inside a socket buffer or reader thread.
        let mut retries = 0u64;
        loop {
            broadcast(&mut self.daemons, &Msg::Collect)?;
            let mut sent = 0u64;
            let mut recv = 0u64;
            for (control, _) in self.daemons.iter_mut() {
                match control.recv()? {
                    Msg::CollectAck { sent: s, recv: r } => {
                        sent += s;
                        recv += r;
                    }
                    other => {
                        return Err(InVivoError::Protocol(format!(
                            "expected CollectAck, got {other:?}"
                        )))
                    }
                }
            }
            if sent == recv {
                break;
            }
            retries += 1;
            if retries > MAX_COLLECT_RETRIES {
                return Err(InVivoError::Protocol(format!(
                    "collect barrier never converged at t={}ms ({sent} sent, {recv} received)",
                    self.now_ms
                )));
            }
            std::thread::sleep(COLLECT_RETRY_SLEEP);
        }

        broadcast(&mut self.daemons, &Msg::Process)?;
        let mut emitted = 0u64;
        for (control, _) in self.daemons.iter_mut() {
            match control.recv()? {
                Msg::ProcessAck { emitted: e } => emitted += e,
                other => {
                    return Err(InVivoError::Protocol(format!(
                        "expected ProcessAck, got {other:?}"
                    )))
                }
            }
        }
        Ok(emitted)
    }

    fn finish(&mut self) -> Result<Vec<Reports>, InVivoError> {
        broadcast(&mut self.daemons, &Msg::Finish)?;
        let streams = self.daemons.iter_mut().map(|(control, _)| {
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
}
