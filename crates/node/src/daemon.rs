//! The `sos-node` daemon: one OS process hosting a slice of the node
//! population — a [`Host`] of the nodes `i % num_procs == proc_index`
//! on an instant air — exchanging real middleware frames over TCP and
//! obeying the broker's lockstep conducting. The daemon itself is only
//! sockets: every control message maps to one `Host` call, and the
//! frames the host encodes for other processes ride the data plane.
//!
//! Two planes:
//!
//! * **control** — a single connection to the broker; strictly
//!   serial command/ack, so TCP's FIFO ordering sequences the run.
//! * **data** — daemon⇄daemon connections carrying [`Msg::Data`]
//!   frames. A listener thread accepts, per-connection reader threads
//!   decode and forward onto an `mpsc` channel, and the main loop
//!   drains that channel **only** at `Collect` — frames that arrive
//!   mid-round wait for the next barrier. Each frame lands on the host's
//!   air by its `seq`, its sender's emission number, so the order the
//!   connections deliver frames in never reaches the run: a socket run
//!   reproduces the in-process mesh exactly.
//!
//! No wall clock and no cadence anywhere: virtual time and the nodes
//! due to advertise arrive in `Step` messages, and hang protection is
//! socket read timeouts, not `Instant::now`.

use crate::host::{Host, WireFrame};
use crate::proto::{scheme_from_byte, InVivoError, Msg, MsgStream};
use crate::provision::{load_trace_bytes, provision_apps, require_population, RunPlan};
use sos_net::Air;
use sos_obs::JournalHandle;
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Read timeout on the control plane: a broker silent this long means
/// the run is dead and the daemon should exit instead of hanging CI.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(120);

/// The state a daemon holds between `Assign` and `Finish`: its slice
/// of the population and the sockets to the other slices.
struct World {
    /// The round engine over the hosted nodes.
    host: Host,
    /// Data addresses of every process; never empty (`build_world`
    /// checks it against the process count).
    hosts: Vec<String>,
    /// Cached outbound data connections, by remote process index.
    dials: BTreeMap<usize, MsgStream>,
    /// Cumulative frames sent to *other* processes.
    sent_remote: u64,
    /// Cumulative frames received from *other* processes.
    recv_remote: u64,
}

impl World {
    /// Puts the frames the host encoded for other processes on their
    /// data connections.
    fn ship(&mut self) -> Result<(), InVivoError> {
        for frame in self.host.take_remote() {
            self.send_data(frame)?;
        }
        Ok(())
    }

    /// Ships one frame to the process hosting its destination, dialing
    /// (and caching) the data connection on first use.
    fn send_data(&mut self, (from, to, seq, frame): WireFrame) -> Result<(), InVivoError> {
        let proc = to as usize % self.hosts.len();
        if !self.dials.contains_key(&proc) {
            let stream = TcpStream::connect(self.hosts[proc].as_str())?;
            stream.set_nodelay(true)?;
            self.dials.insert(proc, MsgStream::new(stream));
        }
        let data = Msg::Data {
            from,
            to,
            seq,
            frame,
        };
        if let Some(stream) = self.dials.get_mut(&proc) {
            stream.send(&data)?;
        }
        self.sent_remote += 1;
        Ok(())
    }
}

/// Builds the hosted world from the broker's [`Msg::Assign`]; any
/// other message is a protocol violation.
fn build_world(assign: Msg) -> Result<World, InVivoError> {
    let Msg::Assign {
        proc_index,
        num_procs,
        scheme,
        seed,
        trace_text,
        hosts,
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
    let num_procs = num_procs as usize;
    let proc_index = proc_index as usize;
    if proc_index >= num_procs || hosts.len() != num_procs {
        return Err(InVivoError::Protocol(format!(
            "process index {proc_index} and {} data addresses for {num_procs} processes",
            hosts.len()
        )));
    }
    let (apps, journal) = (provision_apps(&trace, &plan), JournalHandle::new());
    let shard = (proc_index, num_procs);
    Ok(World {
        host: Host::new(apps, seed, Air::instant(), shard, Some(&journal)),
        hosts,
        dials: BTreeMap::new(),
        sent_remote: 0,
        recv_remote: 0,
    })
}

/// Accept loop + per-connection readers for the data plane; every
/// decoded [`Msg::Data`] is forwarded to `tx`.
fn spawn_data_plane(listener: TcpListener, tx: mpsc::Sender<WireFrame>) {
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { break };
            let tx = tx.clone();
            std::thread::spawn(move || read_data_conn(stream, &tx));
        }
    });
}

/// Reads one data connection until it closes or breaks, forwarding its
/// frames: a malformed peer poisons only its own connection.
fn read_data_conn(stream: TcpStream, tx: &mpsc::Sender<WireFrame>) {
    let mut stream = MsgStream::new(stream);
    while let Ok(Msg::Data {
        from,
        to,
        seq,
        frame,
    }) = stream.recv()
    {
        if tx.send((from, to, seq, frame)).is_err() {
            return;
        }
    }
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

    let data_listener = TcpListener::bind("127.0.0.1:0")?;
    let data_addr = data_listener.local_addr()?.to_string();
    let (tx, rx) = mpsc::channel::<WireFrame>();
    spawn_data_plane(data_listener, tx);

    control.send(&Msg::Hello { data_addr })?;
    let mut world = build_world(control.recv()?)?;

    loop {
        let msg = control.recv()?;
        if let Some((now, step)) = msg.to_step() {
            world.host.apply(now, &step, &mut ());
            world.ship()?;
            continue;
        }
        match msg {
            Msg::Collect => {
                while let Ok(frame) = rx.try_recv() {
                    let to = frame.1;
                    if !world.host.accept(frame)? {
                        return Err(InVivoError::Protocol(format!(
                            "data frame for node {to}, which this process does not host"
                        )));
                    }
                    world.recv_remote += 1;
                }
                control.send(&Msg::CollectAck {
                    sent: world.sent_remote,
                    recv: world.recv_remote,
                })?;
            }
            Msg::Process => {
                let emitted = world.host.round();
                world.ship()?;
                control.send(&Msg::ProcessAck { emitted })?;
            }
            Msg::Finish => {
                let reports = world.host.reports();
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
                    "unexpected control message {other:?}"
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
            hosts: vec!["127.0.0.1:1".into()],
        }
    }

    #[test]
    fn a_one_node_trace_is_refused_at_both_outside_edges() {
        let lonely = ContactTrace::new(1, None, Vec::new()).expect("one node is a valid trace");
        let refusals = [
            build_world(assign_trace(&lonely)).map(|_| ()),
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
