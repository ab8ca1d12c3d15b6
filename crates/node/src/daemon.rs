//! The `sos-node` daemon: one OS process hosting a slice of the node
//! population — a [`Host`] of the nodes `i % num_procs == proc_index`
//! on an instant air — on one thread and one socket, its connection to
//! the broker, obeying the broker's lockstep conducting. The daemon
//! itself is only that socket: every message maps to one `Host` call.
//!
//! The connection is strictly serial. The daemon answers a `Step` that
//! wakes anyone, and every `Process`, with the frames the host encoded
//! for other processes, each a [`Msg::Data`], then a `ProcessAck`; the
//! broker relays each frame to the daemon hosting its destination ahead
//! of that daemon's next command, so TCP's FIFO order is the round
//! barrier: a round's frames are all in the host before the next round
//! lands. Each frame lands on the host's air by its `seq`, its sender's
//! emission number, so the order frames arrive in never reaches the
//! run: a socket run reproduces the in-process mesh exactly.
//!
//! No wall clock and no cadence anywhere: virtual time and the nodes
//! due to advertise arrive in `Step` messages, and hang protection is
//! a socket read timeout, not `Instant::now`.

use crate::host::Host;
use crate::proto::{scheme_from_byte, InVivoError, Msg, MsgStream};
use crate::provision::{load_trace_bytes, provision_apps, require_population, RunPlan};
use sos_net::Air;
use sos_obs::JournalHandle;
use std::net::TcpStream;
use std::time::Duration;

/// Read timeout on the broker connection: a broker silent this long
/// means the run is dead and the daemon should exit instead of hanging
/// CI.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(120);

/// Builds the hosted slice from the broker's [`Msg::Assign`]; any
/// other message is a protocol violation.
fn build_host(assign: Msg) -> Result<Host, InVivoError> {
    let Msg::Assign {
        proc_index,
        num_procs,
        scheme,
        seed,
        trace_text,
    } = assign
    else {
        return Err(InVivoError::Protocol(format!(
            "expected Assign, got {assign:?}"
        )));
    };
    let scheme = scheme_from_byte(scheme)
        .ok_or_else(|| InVivoError::Protocol(format!("unknown scheme byte {scheme}")))?;
    let trace = load_trace_bytes(trace_text.as_bytes()).map_err(InVivoError::Trace)?;
    require_population(&trace)?;
    // A host provisions from the scheme and seed alone; the workload
    // and the cadence reach it step by step.
    let plan = RunPlan {
        scheme,
        seed,
        ..RunPlan::default()
    };
    let (proc_index, num_procs) = (proc_index as usize, num_procs as usize);
    if proc_index >= num_procs {
        return Err(InVivoError::Protocol(format!(
            "process index {proc_index} of {num_procs} processes"
        )));
    }
    let (apps, journal) = (provision_apps(&trace, &plan), JournalHandle::new());
    let shard = (proc_index, num_procs);
    Ok(Host::new(apps, seed, Air::instant(), shard, Some(&journal)))
}

/// Answers a command: the frames the host encoded for other processes,
/// then the ack that ends the answer.
fn answer(control: &mut MsgStream, host: &mut Host, emitted: u64) -> Result<(), InVivoError> {
    for (from, to, seq, frame) in host.take_remote() {
        control.send(&Msg::Data {
            from,
            to,
            seq,
            frame,
        })?;
    }
    control.send(&Msg::ProcessAck { emitted })
}

/// Runs one daemon process to completion: connect to the broker at
/// `broker_addr`, follow the lockstep protocol, exit on `Shutdown`.
///
/// # Errors
///
/// Any [`InVivoError`]: broker unreachable, protocol violation, socket
/// failure, or trace rejection.
pub fn run_daemon(broker_addr: &str) -> Result<(), InVivoError> {
    let control = TcpStream::connect(broker_addr)?;
    control.set_nodelay(true)?;
    control.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    let mut control = MsgStream::new(control);
    let mut host = build_host(control.recv()?)?;

    loop {
        let msg = control.recv()?;
        if let Some((now, step)) = msg.to_step() {
            host.apply(now, &step, &mut ());
            if !step.wakes.is_empty() {
                answer(&mut control, &mut host, 0)?;
            }
            continue;
        }
        match msg {
            Msg::Data {
                from,
                to,
                seq,
                frame,
            } => {
                if !host.accept((from, to, seq, frame))? {
                    return Err(InVivoError::Protocol(format!(
                        "data frame for node {to}, which this process does not host"
                    )));
                }
            }
            Msg::Process => {
                let emitted = host.round();
                answer(&mut control, &mut host, emitted)?;
            }
            Msg::Finish => {
                let reports = host.reports();
                for entry in reports.entries {
                    control.send(&Msg::Report(entry))?;
                }
                control.send(&Msg::ReportDone {
                    frames: reports.frames,
                    journal_dropped: reports.journal_dropped,
                })?;
            }
            Msg::Shutdown => return Ok(()),
            other => {
                return Err(InVivoError::Protocol(format!(
                    "unexpected message {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Broker, BrokerConfig};
    use sos_trace::{codec_text, ContactTrace};

    fn assign_trace(trace: &ContactTrace) -> Msg {
        Msg::Assign {
            proc_index: 0,
            num_procs: 1,
            scheme: 0,
            seed: 7,
            trace_text: codec_text::to_text(trace),
        }
    }

    #[test]
    fn a_one_node_trace_is_refused_at_both_outside_edges() {
        let lonely = ContactTrace::new(1, None, Vec::new()).expect("one node is a valid trace");
        let refusals = [
            build_host(assign_trace(&lonely)).map(|_| ()),
            // Refused before the broker waits for any daemon.
            Broker::bind(BrokerConfig::default())
                .and_then(|broker| broker.run(&lonely))
                .map(|_| ()),
        ];
        for refusal in refusals {
            match refusal {
                Err(InVivoError::Protocol(what)) => assert!(what.contains("2 nodes"), "{what}"),
                Err(other) => panic!("wrong refusal: {other}"),
                Ok(()) => panic!("a one-node trace must be refused"),
            }
        }
    }
}
