//! The air: the one medium every harness moves frames through — the
//! round engine `sos_node::host::Host` behind the simulation driver and
//! the lockstep plane, the two-node encounter helper and the unit-test
//! pumps alike.
//!
//! Multipeer Connectivity gave the paper's phones a reliable, in-order
//! stream per peer over Bluetooth, peer-to-peer WiFi or infrastructure
//! WiFi. A radio air ([`Medium::Radio`]) stands in for it: an open
//! contact's bearer is frozen at its up-distance, each frame costs that
//! bearer's latency plus its serialization time and may be lost, and
//! frames on one directed link never overtake each other. Each directed
//! link draws its losses from its own stream, seeded from the air's loss
//! seed, so traffic on one link never moves the losses on another. An
//! instant air ([`Air::instant`]) links every pair with no latency, no
//! loss and no draw.
//!
//! Frames land in rounds ([`Air::round`]): every frame due at one
//! instant is a round, delivered in `(to, from, send number)` order, and
//! replies that land at that same instant — only an instant air's do —
//! form the next round. This is the one round order in the workspace: a
//! `Host` lands every frame through it, in a study and in a lockstep run
//! alike, and a frame from another process takes its place in it by its
//! sender's number ([`Air::land`]). Any sharding of a lockstep run, and
//! the study on an instant air, compute one run because of it, so no
//! hash order may reach this file.

use crate::{Frame, PeerId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use sos_obs::Histogram;
use sos_sim::radio::RadioTech;
use sos_sim::{EventQueue, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Frames one [`Air::settle`] may deliver before it calls the exchange
/// a storm: a protocol loop, never a real encounter or the frames
/// between two steps of a study.
const STORM: u64 = 100_000;

/// What links a pair on an [`Air`]: the one choice a harness makes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Medium {
    /// Every pair on an instant link: zero latency, no loss, no draw.
    #[default]
    Instant,
    /// MPC bearers: a pair is linked only while in contact, over the
    /// best bearer for its up-distance.
    Radio {
        /// Whether infrastructure WiFi is there to extend the bearers'
        /// reach.
        infra: bool,
    },
}

/// The medium frames cross between devices. The default is an instant
/// air ([`Air::instant`]).
#[derive(Debug, Default)]
pub struct Air {
    medium: Medium,
    /// The seed every directed link's loss stream derives from.
    loss_seed: u64,
    /// Each open contact's bearer on a radio air, by normalized
    /// `(lo, hi)` pair.
    bearers: BTreeMap<(PeerId, PeerId), RadioTech>,
    /// Each directed link's loss stream, from the first frame it carries
    /// on a radio air.
    loss: BTreeMap<(PeerId, PeerId), StdRng>,
    /// Per directed link with frames in flight: the latest arrival
    /// scheduled on it, and the number of the frame sent last on it. A
    /// small frame (shorter serialization delay) never lands before a
    /// large one sent ahead of it on the same link, since the session
    /// layer's strictly increasing sequence numbers depend on it. A slot
    /// goes when its last frame lands: a later send arrives at least a
    /// bearer's latency after that, so the slot could never bind again.
    order: BTreeMap<(PeerId, PeerId), (SimTime, u64)>,
    /// Frames in flight, each with its number, by arrival time.
    queue: EventQueue<(PeerId, PeerId, Frame, u64)>,
    /// Wire sizes of every carried frame, if observed.
    frame_bytes: Option<Histogram>,
    /// Frames carried, and how many of them were lost.
    totals: (u64, u64),
}

impl Air {
    /// An air in which every pair sits on an instant link: zero latency,
    /// no loss, and no draw.
    pub fn instant() -> Air {
        Air::default()
    }

    /// An air of `medium` whose directed links draw their losses from
    /// streams seeded by `loss_seed`. With `frame_bytes`, every carried
    /// frame's wire size is recorded there.
    pub fn new(medium: Medium, loss_seed: u64, frame_bytes: Option<Histogram>) -> Air {
        let mut air = Air::default();
        (air.medium, air.loss_seed, air.frame_bytes) = (medium, loss_seed, frame_bytes);
        air
    }

    /// A contact transition on a radio air: `Some(distance)` opens the
    /// `a`–`b` contact on the best bearer for that distance (on none, if
    /// it is beyond them all), `None` closes it. An instant air links
    /// every pair and ignores this.
    pub fn contact(&mut self, a: PeerId, b: PeerId, up_distance_m: Option<f64>) {
        let Medium::Radio { infra } = self.medium else {
            return;
        };
        match up_distance_m.and_then(|d| RadioTech::best_for_distance(d, infra)) {
            Some(tech) => self.bearers.insert(pair(a, b), tech),
            None => self.bearers.remove(&pair(a, b)),
        };
    }

    /// Puts `frames`, each `(to, frame)`, on the air from `src` at `now`,
    /// in order. A frame to a peer `src` has no bearer to is neither
    /// carried nor counted. On a radio air each carried frame draws once
    /// for loss from its directed link's stream.
    ///
    /// # Panics
    ///
    /// If `now` is before the last frame this air delivered: frames leave
    /// no earlier than the instant being processed.
    pub fn send(
        &mut self,
        now: SimTime,
        src: PeerId,
        frames: impl IntoIterator<Item = (PeerId, Frame)>,
    ) {
        for (dst, frame) in frames {
            let bearer = self.bearers.get(&pair(src, dst)).copied();
            if bearer.is_none() && self.medium != Medium::Instant {
                continue; // no open contact, or none in reach
            }
            if let Some(h) = &self.frame_bytes {
                h.record(frame.wire_size() as u64);
            }
            let mut arrival = now;
            if let Some(tech) = bearer {
                let seed = self.loss_seed ^ (u64::from(src.0) << 32 | u64::from(dst.0));
                let stream =
                    (self.loss.entry((src, dst))).or_insert_with(|| StdRng::seed_from_u64(seed));
                if stream.gen_bool(tech.loss_probability()) {
                    self.totals.0 += 1;
                    self.totals.1 += 1;
                    continue;
                }
                arrival += crate::link::delay(tech, frame.wire_size());
            }
            // In order per directed link (see `order`): never before the
            // frame sent ahead; equal times land by send number, its place
            // among the frames carried.
            let number = self.totals.0 + 1;
            let slot = self.order.entry((src, dst)).or_insert((arrival, number));
            *slot = (slot.0.max(arrival), number);
            let at = slot.0;
            self.land(at, src, dst, frame, number);
        }
    }

    /// Queues a frame sent from `src` to `dst` as frame `number` to land
    /// at `at`, counted as carried and never drawn for. [`Air::send`]
    /// lands what it carries through here, numbered in send order; a
    /// frame from another process lands with its sender's number. A
    /// round orders a pair's frames by their numbers, so they land in the
    /// order they were sent, whatever order they came in.
    ///
    /// # Panics
    ///
    /// If `at` is before the last frame this air delivered.
    pub fn land(&mut self, at: SimTime, src: PeerId, dst: PeerId, frame: Frame, number: u64) {
        self.totals.0 += 1;
        self.queue
            .schedule(at, (src, dst, frame, number))
            // sos-lint: allow(no-panic) reason="frames leave at or after the instant being processed, never behind the last delivery (see # Panics)"
            .expect("frames are never sent into the past");
    }

    /// Lands one round: every frame due at the earliest instant before
    /// `until`, in `(to, from, send number)` order (see the module
    /// documentation). `deliver(at, src, dst, frame)` hands one over and
    /// returns `dst`'s replies, which go back on the air from `dst` at
    /// `at`. Returns the frames landed: 0 when none is due.
    pub fn round<F>(&mut self, until: SimTime, deliver: &mut F) -> u64
    where
        F: FnMut(SimTime, PeerId, PeerId, Frame) -> Vec<(PeerId, Frame)>,
    {
        let Some((at, first)) = self.queue.pop_before(until) else {
            return 0;
        };
        // Time counts whole milliseconds: the instant ends before `next`.
        let next = at + SimDuration::from_millis(1);
        let rest = std::iter::from_fn(|| self.queue.pop_before(next).map(|(_, f)| f));
        let mut round: Vec<_> = std::iter::once(first).chain(rest).collect();
        round.sort_by_key(|&(src, dst, _, number)| (dst, src, number));
        let landed = round.len() as u64;
        for (src, dst, frame, number) in round {
            if self.order.get(&(src, dst)) == Some(&(at, number)) {
                self.order.remove(&(src, dst)); // the link's last frame
            }
            let replies = deliver(at, src, dst, frame);
            self.send(at, dst, replies);
        }
        landed
    }

    /// Lands every frame due before `until`, one [`Air::round`] after
    /// another. Returns the frames delivered.
    ///
    /// # Panics
    ///
    /// On a frame storm: more than 100 000 frames in one call.
    pub fn settle<F>(&mut self, until: SimTime, mut deliver: F) -> u64
    where
        F: FnMut(SimTime, PeerId, PeerId, Frame) -> Vec<(PeerId, Frame)>,
    {
        let mut delivered = 0;
        while let landed @ 1.. = self.round(until, &mut deliver) {
            delivered += landed;
            assert!(delivered <= STORM, "frame storm: {delivered} frames");
        }
        delivered
    }

    /// Frames carried so far, and how many of them were lost.
    pub fn totals(&self) -> (u64, u64) {
        self.totals
    }
}

/// The normalized `(lo, hi)` key of the `a`–`b` contact.
fn pair(a: PeerId, b: PeerId) -> (PeerId, PeerId) {
    (a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DisconnectReason;
    use std::collections::BTreeSet;

    const A: PeerId = PeerId(0);
    const B: PeerId = PeerId(1);
    const C: PeerId = PeerId(2);

    fn data(seq: u64, bytes: usize) -> Frame {
        Frame::Data {
            seq,
            ciphertext: vec![0; bytes],
        }
    }

    fn radio(infra: bool, loss_seed: u64) -> Air {
        Air::new(Medium::Radio { infra }, loss_seed, None)
    }

    /// Settles everything, returning `(at, src, dst, seq)` per delivered
    /// data frame; nothing replies.
    fn landed(air: &mut Air) -> Vec<(SimTime, PeerId, PeerId, u64)> {
        let mut out = Vec::new();
        air.settle(SimTime::from_hours(1), |at, src, dst, frame| {
            if let Frame::Data { seq, .. } = frame {
                out.push((at, src, dst, seq));
            }
            Vec::new()
        });
        out
    }

    #[test]
    fn a_frame_costs_its_bearers_latency_plus_serialization() {
        let mut air = radio(true, 4);
        air.contact(A, B, Some(5.0)); // peer-to-peer WiFi: 8 ms, 3 MB/s
        air.contact(A, C, Some(80.0)); // infrastructure WiFi: 15 ms, 1.5 MB/s
        let (small, large) = (data(1, 10), data(2, 1_000_000));
        let (s, l) = (small.wire_size() as f64, large.wire_size() as f64);
        let now = SimTime::from_secs(1);
        air.send(now, A, [(B, large.clone()), (C, small), (C, large)]);
        air.send(now, A, [(B, data(3, 10))]);
        assert_eq!(air.totals(), (4, 0), "this seed loses nothing");
        let ms = |latency: u64, bytes: f64, bps: f64| {
            now + SimDuration::from_millis(latency + (bytes / bps * 1000.0).ceil() as u64)
        };
        let landed = landed(&mut air);
        let at =
            |seq: u64, dst: PeerId| landed.iter().find(|l| l.3 == seq && l.2 == dst).unwrap().0;
        assert_eq!(
            at(2, B),
            ms(8, l, 3_000_000.0),
            "1 MB over p2p WiFi: ~0.34 s"
        );
        assert_eq!(at(1, C), ms(15, s, 1_500_000.0));
        assert_eq!(at(2, C), ms(15, l, 1_500_000.0), "1 MB via the AP: ~0.68 s");
        // The small frame sent after the large one on A -> B waits for it.
        assert_eq!(at(3, B), at(2, B));
    }

    #[test]
    fn bearer_is_chosen_by_up_distance() {
        let mut air = radio(true, 0);
        air.contact(B, A, Some(5.0));
        assert_eq!(air.bearers[&(A, B)], RadioTech::PeerToPeerWifi);
        // Re-opened out of reach: the old bearer does not linger.
        air.contact(A, B, Some(200.0));
        assert!(air.bearers.is_empty());
    }

    #[test]
    fn small_frames_never_overtake_on_their_own_link_only() {
        let mut air = radio(false, 3);
        air.contact(A, B, Some(5.0));
        air.contact(A, C, Some(5.0));
        let now = SimTime::from_secs(1);
        air.send(now, A, [(B, data(1, 300_000)), (B, data(2, 10))]);
        air.send(now, A, [(C, data(3, 10))]);
        assert_eq!(air.totals(), (3, 0), "this seed loses nothing");
        let order: Vec<u64> = landed(&mut air).iter().map(|l| l.3).collect();
        assert_eq!(order, [3, 1, 2], "the small frame to C lands first");
    }

    #[test]
    fn unlinked_frames_are_neither_counted_nor_drawn_for() {
        let mut air = Air::new(Medium::Radio { infra: true }, 5, Some(Histogram::new()));
        air.contact(A, C, Some(500.0)); // beyond every bearer
        air.contact(A, B, Some(5.0));
        air.contact(A, B, None); // closed again
        air.send(SimTime::ZERO, A, [(B, data(1, 10)), (C, data(2, 10))]);
        assert_eq!(air.totals(), (0, 0));
        assert!(air.loss.is_empty(), "no link drew");
        assert!(landed(&mut air).is_empty());
    }

    /// The sequence numbers of the frames A sends B, `0..1000`, that are
    /// lost on the way, with a frame to C sent ahead of each when `busy`.
    fn lost_on_a_to_b(busy: bool) -> BTreeSet<u64> {
        let mut air = radio(false, 11);
        air.contact(A, B, Some(5.0));
        air.contact(A, C, Some(5.0));
        for seq in 0..1000 {
            let to_c = busy.then(|| (C, data(seq, 1)));
            air.send(
                SimTime::ZERO,
                A,
                to_c.into_iter().chain([(B, data(seq, 1))]),
            );
        }
        let mut lost: BTreeSet<u64> = (0..1000).collect();
        for (_, _, dst, seq) in landed(&mut air) {
            if dst == B {
                lost.remove(&seq);
            }
        }
        lost
    }

    #[test]
    fn loss_on_a_link_ignores_traffic_on_other_links() {
        let quiet = lost_on_a_to_b(false);
        assert!(!quiet.is_empty(), "1 000 frames lose some");
        assert_eq!(lost_on_a_to_b(true), quiet);
    }

    /// `rounds` ping-pongs between A and B, then a disconnect.
    fn rally(air: &mut Air, rounds: u64) -> u64 {
        air.send(SimTime::ZERO, A, [(B, data(0, 32))]);
        air.settle(SimTime::from_hours(1), |_, src, _, frame| match frame {
            Frame::Data { seq, .. } if seq < rounds => vec![(src, data(seq + 1, 32))],
            Frame::Data { .. } => vec![(
                src,
                Frame::Disconnect {
                    reason: DisconnectReason::Done,
                },
            )],
            _ => Vec::new(),
        })
    }

    #[test]
    fn an_instant_air_draws_nothing_and_lands_in_lockstep_rounds() {
        let mut air = Air::instant();
        assert_eq!(rally(&mut air, 50), 52);
        assert_eq!(air.totals(), (52, 0));
        assert!(air.loss.is_empty(), "no link drew");
        // One instant's frames land in `(to, from, send number)` order,
        // and the reply to frame 1 waits for the next round.
        air.send(SimTime::ZERO, A, [(B, data(1, 9)), (C, data(2, 1))]);
        air.send(SimTime::ZERO, C, [(A, data(3, 5))]);
        let mut order = Vec::new();
        air.settle(SimTime::from_secs(1), |_, _, _, frame| {
            let Frame::Data { seq, .. } = frame else {
                return Vec::new();
            };
            order.push(seq);
            if seq == 1 {
                vec![(A, data(4, 1))]
            } else {
                Vec::new()
            }
        });
        assert_eq!(order, [3, 1, 2, 4]);
        // One round at a time, and a frame from another process takes its
        // place among its pair's frames by its sender's number, whatever
        // order it came in.
        air.land(SimTime::ZERO, C, B, data(6, 1), 9);
        air.land(SimTime::ZERO, C, B, data(5, 1), 8);
        air.send(SimTime::ZERO, A, [(B, data(7, 1))]);
        let mut order = Vec::new();
        let mut note = |_, _, _, frame| {
            if let Frame::Data { seq, .. } = frame {
                order.push(seq);
            }
            Vec::new()
        };
        assert_eq!(air.round(SimTime::from_secs(1), &mut note), 3);
        assert_eq!(air.round(SimTime::from_secs(1), &mut note), 0);
        assert_eq!(order, [7, 5, 6]);
        assert_eq!(air.totals(), (59, 0), "landed frames count as carried");
    }

    #[test]
    #[should_panic(expected = "frame storm")]
    fn an_echo_loop_trips_the_storm_guard() {
        let mut air = Air::instant();
        air.send(SimTime::ZERO, A, [(B, data(0, 1))]);
        air.settle(SimTime::from_secs(1), |_, src, _, frame| vec![(src, frame)]);
    }

    #[test]
    fn a_settled_air_holds_no_link_order_state() {
        let mut air = radio(false, 2);
        air.contact(A, B, Some(5.0));
        air.send(SimTime::ZERO, B, [(A, data(0, 5_000)), (A, data(1, 10))]);
        assert_eq!(air.order[&(B, A)].1, 2, "two frames in flight on B -> A");
        rally(&mut air, 20);
        assert!(air.order.is_empty(), "{:?}", air.order);
        assert!(air.queue.is_empty());
    }

    #[test]
    fn loss_rate_is_plausible() {
        let mut air = radio(false, 1);
        air.contact(A, B, Some(5.0));
        air.send(SimTime::ZERO, A, (0..10_000).map(|i| (B, data(i, 1))));
        let (sent, lost) = air.totals();
        assert_eq!(sent, 10_000);
        // Expect ~1% ± generous tolerance.
        assert!((50..200).contains(&lost), "lost = {lost}");
    }
}
