//! The broker⇄daemon control protocol and the daemon⇄daemon data
//! protocol, hand-rolled over [`sos_net::wire`] length-prefixed
//! framing.
//!
//! Decoding follows the frame codec's robustness rules: arbitrary
//! bytes never panic, truncated messages fail with
//! [`NetError::BadFrame`], trailing bytes are rejected.

use sos_core::middleware::SosStats;
use sos_core::routing::SchemeKind;
use sos_net::{encode_wire, NetError, WireReader, MAX_WIRE_FRAME};
use sos_sim::codec::{Reader, Writer};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;

/// A message on a broker⇄daemon control connection or a daemon⇄daemon
/// data connection.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Daemon → broker, first message: where this process accepts data
    /// connections.
    Hello {
        /// The daemon's data listener address (`host:port`).
        data_addr: String,
    },
    /// Broker → daemon: the run assignment. Node `i` is hosted by
    /// process `i % num_procs`; the daemon rebuilds the full world from
    /// `(trace_text, plan)` and keeps its share.
    Assign {
        /// This process's index.
        proc_index: u32,
        /// Total participating processes.
        num_procs: u32,
        /// Routing scheme (see [`scheme_to_byte`]).
        scheme: u8,
        /// Master seed.
        seed: u64,
        /// Posts in the workload.
        total_posts: u64,
        /// Advertisement period, milliseconds.
        ad_interval_ms: u64,
        /// The full trace in the native text codec.
        trace_text: String,
        /// Data addresses of every process, indexed by process.
        hosts: Vec<String>,
    },
    /// Broker → daemon: a contact transition for (possibly) one of the
    /// daemon's nodes.
    Encounter {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
        /// Up (true) or down.
        up: bool,
    },
    /// Broker → daemon: node authors post number `number` at `now_ms`.
    Post {
        /// Authoring node.
        node: u32,
        /// Global 1-based post number.
        number: u64,
        /// Virtual time, milliseconds.
        now_ms: u64,
    },
    /// Broker → daemon: advance every hosted runtime to `now_ms`
    /// (emitting due advertisements) and flush outboxes.
    Tick {
        /// Virtual time, milliseconds.
        now_ms: u64,
    },
    /// Broker → daemon: drain received data frames into the round
    /// buffer and report cumulative counters.
    Collect,
    /// Daemon → broker: cumulative remote frames sent / received.
    CollectAck {
        /// Frames sent to other processes since the start of the run.
        sent: u64,
        /// Frames received from other processes.
        recv: u64,
    },
    /// Broker → daemon: process the round buffer in `(to, from, seq)`
    /// order, then flush.
    Process,
    /// Daemon → broker: frames (local + remote) emitted by this round.
    ProcessAck {
        /// Emission count (0 everywhere ⇒ the step is quiescent).
        emitted: u64,
    },
    /// Broker → daemon: the run is over; stream the per-node reports.
    Finish,
    /// Daemon → broker: one report line (see [`ReportKind`]).
    Report {
        /// What the line describes.
        kind: u8,
        /// The line payload.
        line: String,
    },
    /// Daemon → broker: report stream complete.
    ReportDone,
    /// Broker → daemon: exit cleanly.
    Shutdown,
    /// Daemon ⇄ daemon: one middleware frame from `from` to `to`, with
    /// the per-directed-pair sequence number that fixes processing
    /// order inside a round.
    Data {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Per-`(from, to)` sequence number.
        seq: u64,
        /// The encoded middleware [`Frame`](sos_net::Frame).
        frame: Vec<u8>,
    },
}

/// In-vivo transport failures (both sides of both planes).
#[derive(Debug)]
pub enum InVivoError {
    /// A socket operation failed (includes read timeouts on a hung
    /// peer).
    Io(std::io::Error),
    /// Bytes on a connection did not frame or decode.
    Codec(NetError),
    /// The peer violated the control protocol (wrong message, early
    /// close, barrier that never converged).
    Protocol(String),
    /// The assigned trace did not load.
    Trace(sos_trace::TraceError),
}

impl std::fmt::Display for InVivoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InVivoError::Io(e) => write!(f, "socket error: {e}"),
            InVivoError::Codec(e) => write!(f, "wire error: {e}"),
            InVivoError::Protocol(what) => write!(f, "protocol violation: {what}"),
            InVivoError::Trace(e) => write!(f, "trace rejected: {e}"),
        }
    }
}

impl std::error::Error for InVivoError {}

impl From<std::io::Error> for InVivoError {
    fn from(e: std::io::Error) -> InVivoError {
        InVivoError::Io(e)
    }
}

impl From<NetError> for InVivoError {
    fn from(e: NetError) -> InVivoError {
        InVivoError::Codec(e)
    }
}

/// A blocking message pipe: [`Msg`]s over a `TcpStream` in
/// [`sos_net::wire`] length-prefixed framing.
#[derive(Debug)]
pub struct MsgStream {
    stream: TcpStream,
    reader: WireReader,
}

impl MsgStream {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> MsgStream {
        MsgStream {
            stream,
            reader: WireReader::new(),
        }
    }

    /// The underlying stream (for timeouts / shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Writes one message.
    ///
    /// # Errors
    ///
    /// [`InVivoError::Codec`] if the encoded message exceeds the wire
    /// cap, [`InVivoError::Io`] on socket failure.
    pub fn send(&mut self, msg: &Msg) -> Result<(), InVivoError> {
        let framed = encode_wire(&msg.encode())?;
        self.stream.write_all(&framed)?;
        Ok(())
    }

    /// Blocks until one complete message arrives.
    ///
    /// # Errors
    ///
    /// [`InVivoError::Protocol`] on clean close mid-stream,
    /// [`InVivoError::Codec`] on malformed bytes, [`InVivoError::Io`]
    /// on socket failure (including a configured read timeout).
    pub fn recv(&mut self) -> Result<Msg, InVivoError> {
        loop {
            if let Some(payload) = self.reader.next_message()? {
                return Ok(Msg::decode(&payload)?);
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(InVivoError::Protocol(
                    "connection closed mid-message".into(),
                ));
            }
            self.reader.push_bytes(&chunk[..n]);
        }
    }
}

/// Report line kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportKind {
    /// A per-node stats line ([`stats_line`]).
    Stats,
    /// A delivered-bundle line ([`delivered_line`]).
    Delivered,
    /// A journal JSONL line.
    Journal,
}

impl ReportKind {
    /// Wire byte for the kind.
    pub fn to_byte(self) -> u8 {
        match self {
            ReportKind::Stats => 0,
            ReportKind::Delivered => 1,
            ReportKind::Journal => 2,
        }
    }

    /// Parses the wire byte.
    pub fn from_byte(b: u8) -> Option<ReportKind> {
        match b {
            0 => Some(ReportKind::Stats),
            1 => Some(ReportKind::Delivered),
            2 => Some(ReportKind::Journal),
            _ => None,
        }
    }
}

/// Maps a built-in scheme to its wire byte (custom schemes cannot
/// travel: each process instantiates schemes from the byte).
pub fn scheme_to_byte(scheme: SchemeKind) -> Option<u8> {
    SchemeKind::ALL
        .iter()
        .position(|&s| s == scheme)
        .map(|i| i as u8)
}

/// Inverse of [`scheme_to_byte`].
pub fn scheme_from_byte(b: u8) -> Option<SchemeKind> {
    SchemeKind::ALL.get(b as usize).copied()
}

const TAG_HELLO: u8 = 1;
const TAG_ASSIGN: u8 = 2;
const TAG_ENCOUNTER: u8 = 3;
const TAG_POST: u8 = 4;
const TAG_TICK: u8 = 5;
const TAG_COLLECT: u8 = 6;
const TAG_COLLECT_ACK: u8 = 7;
const TAG_PROCESS: u8 = 8;
const TAG_PROCESS_ACK: u8 = 9;
const TAG_FINISH: u8 = 10;
const TAG_REPORT: u8 = 11;
const TAG_REPORT_DONE: u8 = 12;
const TAG_SHUTDOWN: u8 = 13;
const TAG_DATA: u8 = 14;

/// Hosts in one [`Msg::Assign`]: a count above it is refused before a
/// vector is sized for it.
const MAX_FLEET: usize = 4096;

/// A length-prefixed UTF-8 field. A message arrives through
/// [`sos_net::wire`], so no field of it is longer than a wire frame —
/// and a field that long cannot leave either: `encode_wire` refuses to
/// frame the message before any socket sees the bytes.
fn read_string(r: &mut Reader<'_>) -> Result<String, NetError> {
    let bytes = r.bytes32(MAX_WIRE_FRAME)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| NetError::BadFrame)
}

impl Msg {
    /// Serializes the message (excluding the wire length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Hello { data_addr } => {
                out.u8(TAG_HELLO);
                out.bytes32(data_addr.as_bytes());
            }
            Msg::Assign {
                proc_index,
                num_procs,
                scheme,
                seed,
                total_posts,
                ad_interval_ms,
                trace_text,
                hosts,
            } => {
                out.u8(TAG_ASSIGN);
                out.u32(*proc_index);
                out.u32(*num_procs);
                out.u8(*scheme);
                out.u64(*seed);
                out.u64(*total_posts);
                out.u64(*ad_interval_ms);
                out.bytes32(trace_text.as_bytes());
                let count = out.len32(hosts.len());
                for host in &hosts[..count] {
                    out.bytes32(host.as_bytes());
                }
            }
            Msg::Encounter { a, b, up } => {
                out.u8(TAG_ENCOUNTER);
                out.u32(*a);
                out.u32(*b);
                out.u8(u8::from(*up));
            }
            Msg::Post {
                node,
                number,
                now_ms,
            } => {
                out.u8(TAG_POST);
                out.u32(*node);
                out.u64(*number);
                out.u64(*now_ms);
            }
            Msg::Tick { now_ms } => {
                out.u8(TAG_TICK);
                out.u64(*now_ms);
            }
            Msg::Collect => out.u8(TAG_COLLECT),
            Msg::CollectAck { sent, recv } => {
                out.u8(TAG_COLLECT_ACK);
                out.u64(*sent);
                out.u64(*recv);
            }
            Msg::Process => out.u8(TAG_PROCESS),
            Msg::ProcessAck { emitted } => {
                out.u8(TAG_PROCESS_ACK);
                out.u64(*emitted);
            }
            Msg::Finish => out.u8(TAG_FINISH),
            Msg::Report { kind, line } => {
                out.u8(TAG_REPORT);
                out.u8(*kind);
                out.bytes32(line.as_bytes());
            }
            Msg::ReportDone => out.u8(TAG_REPORT_DONE),
            Msg::Shutdown => out.u8(TAG_SHUTDOWN),
            Msg::Data {
                from,
                to,
                seq,
                frame,
            } => {
                out.u8(TAG_DATA);
                out.u32(*from);
                out.u32(*to);
                out.u64(*seq);
                out.bytes32(frame);
            }
        }
        out
    }

    /// Parses one message.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] on unknown tags, truncation, bad UTF-8,
    /// a flag byte other than 0 or 1, or trailing bytes;
    /// [`NetError::FrameTooLarge`] on a field longer than a wire frame.
    pub fn decode(bytes: &[u8]) -> Result<Msg, NetError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_HELLO => Msg::Hello {
                data_addr: read_string(&mut r)?,
            },
            TAG_ASSIGN => {
                let proc_index = r.u32()?;
                let num_procs = r.u32()?;
                let scheme = r.u8()?;
                let seed = r.u64()?;
                let total_posts = r.u64()?;
                let ad_interval_ms = r.u64()?;
                let trace_text = read_string(&mut r)?;
                // A host is at least its length prefix.
                let count = r.count32(4)?;
                if count > MAX_FLEET {
                    return Err(NetError::BadFrame);
                }
                let mut hosts = Vec::with_capacity(count.min(MAX_FLEET));
                for _ in 0..count {
                    hosts.push(read_string(&mut r)?);
                }
                Msg::Assign {
                    proc_index,
                    num_procs,
                    scheme,
                    seed,
                    total_posts,
                    ad_interval_ms,
                    trace_text,
                    hosts,
                }
            }
            TAG_ENCOUNTER => Msg::Encounter {
                a: r.u32()?,
                b: r.u32()?,
                up: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(NetError::BadFrame),
                },
            },
            TAG_POST => Msg::Post {
                node: r.u32()?,
                number: r.u64()?,
                now_ms: r.u64()?,
            },
            TAG_TICK => Msg::Tick { now_ms: r.u64()? },
            TAG_COLLECT => Msg::Collect,
            TAG_COLLECT_ACK => Msg::CollectAck {
                sent: r.u64()?,
                recv: r.u64()?,
            },
            TAG_PROCESS => Msg::Process,
            TAG_PROCESS_ACK => Msg::ProcessAck { emitted: r.u64()? },
            TAG_FINISH => Msg::Finish,
            TAG_REPORT => Msg::Report {
                kind: r.u8()?,
                line: read_string(&mut r)?,
            },
            TAG_REPORT_DONE => Msg::ReportDone,
            TAG_SHUTDOWN => Msg::Shutdown,
            TAG_DATA => Msg::Data {
                from: r.u32()?,
                to: r.u32()?,
                seq: r.u64()?,
                frame: r.bytes32(MAX_WIRE_FRAME)?.to_vec(),
            },
            _ => return Err(NetError::BadFrame),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Renders one node's stats as a stable `key=value` report line.
pub fn stats_line(node: u32, s: &SosStats) -> String {
    format!(
        "node={node} posts={} bundles_sent={} bundles_received={} bundles_duplicate={} \
         security_rejections={} sessions_initiated={} sessions_accepted={} sessions_resumed={} \
         resume_misses={} requests_served={} sync_frames_sent={} security_alerts={}",
        s.posts,
        s.bundles_sent,
        s.bundles_received,
        s.bundles_duplicate,
        s.security_rejections,
        s.sessions_initiated,
        s.sessions_accepted,
        s.sessions_resumed,
        s.resume_misses,
        s.requests_served,
        s.sync_frames_sent,
        s.security_alerts,
    )
}

/// Parses a [`stats_line`]: `node` and each of the twelve counters
/// exactly once, in any order. A missing, repeated or unknown key is
/// `None`, so a report that lost or doubled a counter cannot pass for
/// one whose counter is 0.
pub fn parse_stats_line(line: &str) -> Option<(u32, SosStats)> {
    let mut node = None;
    let mut s = SosStats::default();
    let mut seen = BTreeSet::new();
    for field in line.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        let v: u64 = value.parse().ok()?;
        if !seen.insert(key) {
            return None;
        }
        match key {
            "node" => node = Some(u32::try_from(v).ok()?),
            "posts" => s.posts = v,
            "bundles_sent" => s.bundles_sent = v,
            "bundles_received" => s.bundles_received = v,
            "bundles_duplicate" => s.bundles_duplicate = v,
            "security_rejections" => s.security_rejections = v,
            "sessions_initiated" => s.sessions_initiated = v,
            "sessions_accepted" => s.sessions_accepted = v,
            "sessions_resumed" => s.sessions_resumed = v,
            "resume_misses" => s.resume_misses = v,
            "requests_served" => s.requests_served = v,
            "sync_frames_sent" => s.sync_frames_sent = v,
            "security_alerts" => s.security_alerts = v,
            _ => return None,
        }
    }
    // Thirteen distinct known keys: `node` and all twelve counters.
    (seen.len() == 13).then_some((node?, s))
}

/// Lowercase hex of an author id, the delivered-line key.
pub fn author_hex(author: &[u8]) -> String {
    let mut hex = String::with_capacity(author.len() * 2);
    for b in author {
        use std::fmt::Write;
        let _ = write!(hex, "{b:02x}");
    }
    hex
}

/// Renders a stored bundle as a stable delivered-set report line.
pub fn delivered_line(node: u32, author: &[u8], number: u64) -> String {
    format!("node={node} author={} number={number}", author_hex(author))
}

/// Parses a [`delivered_line`] into `(node, author_hex, number)`.
pub fn parse_delivered_line(line: &str) -> Option<(u32, String, u64)> {
    let mut node = None;
    let mut author = None;
    let mut number = None;
    for field in line.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "node" => node = value.parse().ok(),
            "author" => author = Some(value.to_string()),
            "number" => number = value.parse().ok(),
            _ => return None,
        }
    }
    Some((node?, author?, number?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let msgs = vec![
            Msg::Hello {
                data_addr: "127.0.0.1:4321".into(),
            },
            Msg::Assign {
                proc_index: 1,
                num_procs: 3,
                scheme: 0,
                seed: 7,
                total_posts: 12,
                ad_interval_ms: 60_000,
                trace_text: "# sos-trace v1\n".into(),
                hosts: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            },
            Msg::Encounter {
                a: 0,
                b: 5,
                up: true,
            },
            Msg::Post {
                node: 2,
                number: 9,
                now_ms: 1234,
            },
            Msg::Tick { now_ms: 60_000 },
            Msg::Collect,
            Msg::CollectAck { sent: 10, recv: 9 },
            Msg::Process,
            Msg::ProcessAck { emitted: 4 },
            Msg::Finish,
            Msg::Report {
                kind: ReportKind::Stats.to_byte(),
                line: "node=0 posts=1".into(),
            },
            Msg::ReportDone,
            Msg::Shutdown,
            Msg::Data {
                from: 1,
                to: 2,
                seq: 77,
                frame: vec![1, 2, 3],
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert_eq!(Msg::decode(&bytes).expect("round trip"), msg);
            // Trailing bytes rejected.
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(Msg::decode(&longer).is_err());
            // Truncations never panic.
            for cut in 0..bytes.len() {
                let _ = Msg::decode(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn stats_and_delivered_lines_round_trip() {
        let s = SosStats {
            posts: 1,
            bundles_sent: 2,
            bundles_received: 3,
            bundles_duplicate: 4,
            security_rejections: 5,
            sessions_initiated: 6,
            sessions_accepted: 7,
            requests_served: 8,
            sync_frames_sent: 9,
            security_alerts: 10,
            sessions_resumed: 11,
            resume_misses: 12,
        };
        let line = stats_line(3, &s);
        let (node, parsed) = parse_stats_line(&line).expect("parse");
        assert_eq!(node, 3);
        assert_eq!(parsed, s);
        // Field order is free; completeness is not.
        let reversed: Vec<&str> = line.split_whitespace().rev().collect();
        assert_eq!(parse_stats_line(&reversed.join(" ")), Some((3, s)));

        let line = delivered_line(4, &[0xab; 10], 17);
        let (node, author, number) = parse_delivered_line(&line).expect("parse");
        assert_eq!(node, 4);
        assert_eq!(author, "ab".repeat(10));
        assert_eq!(number, 17);
    }

    #[test]
    fn stats_lines_carry_every_counter_exactly_once() {
        let full = stats_line(3, &SosStats::default());
        assert!(parse_stats_line(&full).is_some());
        // A dropped counter does not read as 0.
        assert_eq!(parse_stats_line("node=3 posts=1"), None);
        let fields: Vec<&str> = full.split_whitespace().collect();
        assert_eq!(fields.len(), 13, "node and twelve counters");
        for (i, field) in fields.iter().enumerate() {
            let (key, _) = field.split_once('=').expect("key=value");
            let mut dropped = fields.clone();
            dropped.remove(i);
            assert_eq!(parse_stats_line(&dropped.join(" ")), None, "{key} dropped");
            // A repeated key does not overwrite the first.
            assert_eq!(
                parse_stats_line(&format!("{full} {key}=9")),
                None,
                "{key} repeated"
            );
        }
        assert_eq!(parse_stats_line(&format!("{full} gossip=1")), None);
    }

    #[test]
    fn scheme_bytes_cover_all_builtins() {
        for &scheme in &SchemeKind::ALL {
            let b = scheme_to_byte(scheme).expect("builtin");
            assert_eq!(scheme_from_byte(b), Some(scheme));
        }
        assert_eq!(scheme_from_byte(200), None);
        assert_eq!(scheme_to_byte(SchemeKind::Custom("x")), None);
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary control/data bytes never panic the decoder.
            #[test]
            fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
                let _ = Msg::decode(&bytes);
            }
        }
    }
}
