//! The broker⇄daemon protocol, hand-rolled over [`sos_net::wire`]
//! length-prefixed framing. It is the only protocol in vivo: each
//! daemon's one socket is its connection to the broker, and a frame
//! between processes rides it as a [`Msg::Data`] the broker relays.
//!
//! The protocol carries no schedule logic: `Assign` hands a daemon its
//! slot, the scheme, the seed and the trace to provision from, and each
//! step of the run then arrives whole as one [`Msg::Step`] — its time,
//! contact transitions, posts and the nodes it wakes — so a daemon never
//! re-derives the workload or the advertisement cadence.
//!
//! Decoding follows the frame codec's robustness rules: arbitrary
//! bytes never panic, truncated messages fail with
//! [`NetError::BadFrame`], trailing bytes are rejected.

use crate::provision::Step;
use sos_core::middleware::SosStats;
use sos_core::routing::SchemeKind;
use sos_crypto::UserId;
use sos_net::{encode_wire, NetError, WireReader, MAX_WIRE_FRAME};
use sos_sim::codec::{Reader, Writer};
use sos_sim::SimTime;
use std::io::{Read, Write};
use std::net::TcpStream;

/// A message on a broker⇄daemon connection.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Broker → daemon, first message: the run assignment. Node `i` is
    /// hosted by process `i % num_procs`; the daemon rebuilds the full
    /// world from `(trace_text, plan)` and keeps its share.
    Assign {
        /// This process's index.
        proc_index: u32,
        /// Total participating processes.
        num_procs: u32,
        /// Routing scheme: its index in
        /// [`SchemeKind::ALL`](sos_core::routing::SchemeKind::ALL).
        scheme: u8,
        /// Master seed.
        seed: u64,
        /// The full trace in the native text codec.
        trace_text: String,
    },
    /// Broker → daemon: one step of the run's schedule, whole. The
    /// daemon applies it to its hosted nodes in a fixed order: the
    /// contact transitions, then the posts, then `advertise` on the
    /// hosted nodes in `wakes` and, when `wakes` is not empty, a flush.
    Step {
        /// Virtual time, milliseconds.
        now_ms: u64,
        /// Contact transitions `(a, b, up)`, in schedule order.
        encounters: Vec<(u32, u32, bool)>,
        /// Posts `(author node, global 1-based post number)`.
        posts: Vec<(u32, u64)>,
        /// The nodes that advertise at `now_ms`, ascending.
        wakes: Vec<u32>,
    },
    /// Broker → daemon: land one round, in the host's air order
    /// `(to, from, send number)`.
    Process,
    /// Daemon → broker: the end of its answer to a `Process` or to a
    /// `Step` with wakes, after that command's frames for other
    /// processes as [`Msg::Data`].
    ProcessAck {
        /// Frames (local + remote) the round emitted; 0 everywhere ⇒ the
        /// step is quiescent. A step's answer carries 0: rounds follow
        /// every step with wakes.
        emitted: u64,
    },
    /// Broker → daemon: the run is over; stream the per-node reports.
    Finish,
    /// Daemon → broker: one entry of the end-of-run report.
    Report(Report),
    /// Daemon → broker: report stream complete.
    ReportDone {
        /// Frames this process processed across all rounds (dropped
        /// ones included).
        frames: u64,
        /// Journal entries this process's ring dropped: the streamed
        /// lines are its tail only when nonzero.
        journal_dropped: u64,
    },
    /// Broker → daemon: exit cleanly.
    Shutdown,
    /// One middleware frame from `from` to `to` between processes, with
    /// the number that fixes its place among its pair's frames in a
    /// round: daemon → broker in an answer, then broker → the daemon
    /// hosting `to`, ahead of its next command.
    Data {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// The sender's order: its emission number in the sending
        /// process, increasing along each `(from, to)` pair.
        seq: u64,
        /// The encoded middleware [`Frame`](sos_net::Frame).
        frame: Vec<u8>,
    },
}

/// One entry of a process's end-of-run report, streamed after
/// [`Msg::Finish`]; on the wire, a kind byte after the tag selects it.
#[derive(Clone, Debug, PartialEq)]
pub enum Report {
    /// Kind 0: a hosted node's middleware counters.
    Stats {
        /// The hosted node.
        node: u32,
        /// Its counters, as twelve `u64`s in declaration order.
        stats: SosStats,
    },
    /// Kind 1: one bundle a hosted node stores.
    Delivered {
        /// The holding node.
        node: u32,
        /// The bundle's author.
        author: UserId,
        /// The author's post number.
        number: u64,
    },
    /// Kind 2: one journal JSONL line of the hosted nodes.
    Journal {
        /// The line, without its newline.
        line: String,
    },
}

/// In-vivo transport failures (both ends of a connection).
#[derive(Debug)]
pub enum InVivoError {
    /// A socket operation failed (includes read timeouts on a hung
    /// peer).
    Io(std::io::Error),
    /// Bytes on a connection did not frame or decode.
    Codec(NetError),
    /// The peer violated the protocol (wrong message, a frame for a
    /// node outside the population, early close).
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

/// Maps a built-in scheme to its wire byte (custom schemes cannot
/// travel: each process instantiates schemes from the byte).
pub(crate) fn scheme_to_byte(scheme: SchemeKind) -> Option<u8> {
    SchemeKind::ALL
        .iter()
        .position(|&s| s == scheme)
        .map(|i| i as u8)
}

/// Inverse of [`scheme_to_byte`].
pub(crate) fn scheme_from_byte(b: u8) -> Option<SchemeKind> {
    SchemeKind::ALL.get(b as usize).copied()
}

// Tags 1, 4, 5, 6 and 7 are retired: they decode as nothing.
const TAG_ASSIGN: u8 = 2;
const TAG_STEP: u8 = 3;
const TAG_PROCESS: u8 = 8;
const TAG_PROCESS_ACK: u8 = 9;
const TAG_FINISH: u8 = 10;
const TAG_REPORT: u8 = 11;
const TAG_REPORT_DONE: u8 = 12;
const TAG_SHUTDOWN: u8 = 13;
const TAG_DATA: u8 = 14;

const REPORT_STATS: u8 = 0;
const REPORT_DELIVERED: u8 = 1;
const REPORT_JOURNAL: u8 = 2;

/// A length-prefixed UTF-8 field. A message arrives through
/// [`sos_net::wire`], so no field of it is longer than a wire frame —
/// and a field that long cannot leave either: `encode_wire` refuses to
/// frame the message before any socket sees the bytes.
fn read_string(r: &mut Reader<'_>) -> Result<String, NetError> {
    let bytes = r.bytes32(MAX_WIRE_FRAME)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| NetError::BadFrame)
}

/// A flag byte: 0 or 1, nothing else.
fn read_flag(r: &mut Reader<'_>) -> Result<bool, NetError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(NetError::BadFrame),
    }
}

/// The twelve counters of a stats report, in declaration order.
fn write_stats(out: &mut Vec<u8>, s: &SosStats) {
    for counter in [
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
    ] {
        out.u64(counter);
    }
}

/// Inverse of [`write_stats`].
fn read_stats(r: &mut Reader<'_>) -> Result<SosStats, NetError> {
    Ok(SosStats {
        posts: r.u64()?,
        bundles_sent: r.u64()?,
        bundles_received: r.u64()?,
        bundles_duplicate: r.u64()?,
        security_rejections: r.u64()?,
        sessions_initiated: r.u64()?,
        sessions_accepted: r.u64()?,
        sessions_resumed: r.u64()?,
        resume_misses: r.u64()?,
        requests_served: r.u64()?,
        sync_frames_sent: r.u64()?,
        security_alerts: r.u64()?,
    })
}

impl Msg {
    /// The schedule step a [`Msg::Step`] carries, at its time, as a
    /// daemon applies it; `None` for any other message. Its contacts come
    /// up at no distance: the instant air of a lockstep run links a pair
    /// at any.
    pub(crate) fn to_step(&self) -> Option<(SimTime, Step)> {
        let Msg::Step {
            now_ms,
            encounters,
            posts,
            wakes,
        } = self
        else {
            return None;
        };
        let contact = |&(a, b, up): &(u32, u32, bool)| (a as usize, b as usize, up.then_some(0.0));
        let post = |&(node, number): &(u32, u64)| (node as usize, number);
        let step = Step {
            encounters: encounters.iter().map(contact).collect(),
            posts: posts.iter().map(post).collect(),
            wakes: wakes.iter().map(|&node| node as usize).collect(),
        };
        Some((SimTime::from_millis(*now_ms), step))
    }

    /// Serializes the message (excluding the wire length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Assign {
                proc_index,
                num_procs,
                scheme,
                seed,
                trace_text,
            } => {
                out.u8(TAG_ASSIGN);
                out.u32(*proc_index);
                out.u32(*num_procs);
                out.u8(*scheme);
                out.u64(*seed);
                out.bytes32(trace_text.as_bytes());
            }
            Msg::Step {
                now_ms,
                encounters,
                posts,
                wakes,
            } => {
                out.u8(TAG_STEP);
                out.u64(*now_ms);
                let count = out.len32(encounters.len());
                for &(a, b, up) in &encounters[..count] {
                    out.u32(a);
                    out.u32(b);
                    out.u8(u8::from(up));
                }
                let count = out.len32(posts.len());
                for &(node, number) in &posts[..count] {
                    out.u32(node);
                    out.u64(number);
                }
                let count = out.len32(wakes.len());
                for &node in &wakes[..count] {
                    out.u32(node);
                }
            }
            Msg::Process => out.u8(TAG_PROCESS),
            Msg::ProcessAck { emitted } => {
                out.u8(TAG_PROCESS_ACK);
                out.u64(*emitted);
            }
            Msg::Finish => out.u8(TAG_FINISH),
            Msg::Report(report) => {
                out.u8(TAG_REPORT);
                match report {
                    Report::Stats { node, stats } => {
                        out.u8(REPORT_STATS);
                        out.u32(*node);
                        write_stats(&mut out, stats);
                    }
                    Report::Delivered {
                        node,
                        author,
                        number,
                    } => {
                        out.u8(REPORT_DELIVERED);
                        out.u32(*node);
                        out.bytes(author.as_bytes());
                        out.u64(*number);
                    }
                    Report::Journal { line } => {
                        out.u8(REPORT_JOURNAL);
                        out.bytes32(line.as_bytes());
                    }
                }
            }
            Msg::ReportDone {
                frames,
                journal_dropped,
            } => {
                out.u8(TAG_REPORT_DONE);
                out.u64(*frames);
                out.u64(*journal_dropped);
            }
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
    /// [`NetError::BadFrame`] on unknown tags or report kinds,
    /// truncation, bad UTF-8, a flag byte other than 0 or 1, or trailing
    /// bytes;
    /// [`NetError::FrameTooLarge`] on a field longer than a wire frame.
    pub fn decode(bytes: &[u8]) -> Result<Msg, NetError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_ASSIGN => Msg::Assign {
                proc_index: r.u32()?,
                num_procs: r.u32()?,
                scheme: r.u8()?,
                seed: r.u64()?,
                trace_text: read_string(&mut r)?,
            },
            TAG_STEP => {
                let now_ms = r.u64()?;
                let count = r.count32(4 + 4 + 1)?;
                let encounters = (0..count)
                    .map(|_| -> Result<_, NetError> {
                        Ok((r.u32()?, r.u32()?, read_flag(&mut r)?))
                    })
                    .collect::<Result<_, _>>()?;
                let count = r.count32(4 + 8)?;
                let posts = (0..count)
                    .map(|_| -> Result<_, NetError> { Ok((r.u32()?, r.u64()?)) })
                    .collect::<Result<_, _>>()?;
                let count = r.count32(4)?;
                let wakes = (0..count).map(|_| r.u32()).collect::<Result<_, _>>()?;
                Msg::Step {
                    now_ms,
                    encounters,
                    posts,
                    wakes,
                }
            }
            TAG_PROCESS => Msg::Process,
            TAG_PROCESS_ACK => Msg::ProcessAck { emitted: r.u64()? },
            TAG_FINISH => Msg::Finish,
            TAG_REPORT => Msg::Report(match r.u8()? {
                REPORT_STATS => Report::Stats {
                    node: r.u32()?,
                    stats: read_stats(&mut r)?,
                },
                REPORT_DELIVERED => Report::Delivered {
                    node: r.u32()?,
                    author: UserId(r.array()?),
                    number: r.u64()?,
                },
                REPORT_JOURNAL => Report::Journal {
                    line: read_string(&mut r)?,
                },
                _ => return Err(NetError::BadFrame),
            }),
            TAG_REPORT_DONE => Msg::ReportDone {
                frames: r.u64()?,
                journal_dropped: r.u64()?,
            },
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

/// Lowercase hex of an author id, as an outcome's delivered set keys it.
pub fn author_hex(author: &[u8]) -> String {
    let mut hex = String::with_capacity(author.len() * 2);
    for b in author {
        use std::fmt::Write;
        let _ = write!(hex, "{b:02x}");
    }
    hex
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let msgs = vec![
            Msg::Assign {
                proc_index: 1,
                num_procs: 3,
                scheme: 0,
                seed: 7,
                trace_text: "# sos-trace v1\n".into(),
            },
            Msg::Step {
                now_ms: 60_000,
                encounters: vec![(0, 5, true), (1, 2, false)],
                posts: vec![(2, 9)],
                wakes: vec![0, 5],
            },
            Msg::Step {
                now_ms: 0,
                encounters: vec![],
                posts: vec![],
                wakes: vec![],
            },
            Msg::Process,
            Msg::ProcessAck { emitted: 4 },
            Msg::Finish,
            Msg::Report(Report::Stats {
                node: 0,
                stats: SosStats {
                    posts: 1,
                    ..SosStats::default()
                },
            }),
            Msg::Report(Report::Delivered {
                node: 1,
                author: UserId([7; 10]),
                number: 2,
            }),
            Msg::Report(Report::Journal { line: "{}".into() }),
            Msg::ReportDone {
                frames: 41,
                journal_dropped: 3,
            },
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

    /// A stats report is the node and twelve counters in declaration
    /// order, each at a fixed place; one cut short by any byte — a lost
    /// counter — does not decode at all, let alone as a 0.
    #[test]
    fn stats_lines_carry_every_counter_exactly_once() {
        let stats = SosStats {
            posts: 1,
            bundles_sent: 2,
            bundles_received: 3,
            bundles_duplicate: 4,
            security_rejections: 5,
            sessions_initiated: 6,
            sessions_accepted: 7,
            sessions_resumed: 8,
            resume_misses: 9,
            requests_served: 10,
            sync_frames_sent: 11,
            security_alerts: 12,
        };
        let msg = Msg::Report(Report::Stats { node: 3, stats });
        let bytes = msg.encode();
        assert_eq!(bytes[..6], [TAG_REPORT, REPORT_STATS, 3, 0, 0, 0]);
        let counters: Vec<u64> = bytes[6..]
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        assert_eq!(counters, (1..=12).collect::<Vec<u64>>());
        assert_eq!(Msg::decode(&bytes).expect("round trip"), msg);
        for cut in 0..bytes.len() {
            assert!(Msg::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Delivered and journal reports decode to what was sent, at their
    /// fixed lengths, and a report kind past the last is refused.
    #[test]
    fn stats_and_delivered_lines_round_trip() {
        let delivered = Report::Delivered {
            node: 4,
            author: UserId([0xab; 10]),
            number: 17,
        };
        let journal = Report::Journal {
            line: r#"{"t":1}"#.into(),
        };
        for (report, len) in [(delivered, 1 + 1 + 4 + 10 + 8), (journal, 1 + 1 + 4 + 7)] {
            let msg = Msg::Report(report);
            let bytes = msg.encode();
            assert_eq!(bytes.len(), len, "{msg:?}");
            assert_eq!(Msg::decode(&bytes).expect("round trip"), msg);
        }

        let mut unknown = Msg::Report(Report::Stats {
            node: 0,
            stats: SosStats::default(),
        })
        .encode();
        unknown[1] = 3;
        assert!(Msg::decode(&unknown).is_err(), "no report kind 3");
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

    /// Tags 4 and 5 carried per-event schedule messages before one
    /// `Step` (tag 3) replaced them, and tags 1, 6 and 7 the data plane's
    /// address exchange and barrier before frames rode the broker's
    /// connections; they decode as nothing now.
    #[test]
    fn retired_tags_are_refused() {
        for tag in [1, 4, 5, 6, 7] {
            for len in 0..32 {
                let bytes: Vec<u8> = std::iter::once(tag).chain([0; 32]).take(1 + len).collect();
                assert!(
                    matches!(Msg::decode(&bytes), Err(NetError::BadFrame)),
                    "tag {tag}, {len} bytes"
                );
            }
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary bytes never panic the decoder.
            #[test]
            fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
                let _ = Msg::decode(&bytes);
            }

            /// Any step — empty lists, long ones, any ids and times —
            /// decodes to itself, and one byte short it does not decode.
            #[test]
            fn steps_round_trip(
                now_ms in any::<u64>(),
                encounters in prop::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..300),
                posts in prop::collection::vec((any::<u32>(), any::<u64>()), 0..300),
                wakes in prop::collection::vec(any::<u32>(), 0..300),
            ) {
                let msg = Msg::Step { now_ms, encounters, posts, wakes };
                let bytes = msg.encode();
                prop_assert_eq!(Msg::decode(&bytes).expect("round trip"), msg);
                prop_assert!(Msg::decode(&bytes[..bytes.len() - 1]).is_err());
            }
        }
    }
}
