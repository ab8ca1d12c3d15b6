//! The routing manager (paper §III-B): a modular layer of opportunistic
//! schemes above the message manager.
//!
//! "Routing in SOS is designed for modularity, permitting additional DTN
//! routing schemes to be developed on top of the message manager [...]
//! enabling applications to dynamically change based on user preference."
//!
//! A scheme is a [`RoutingScheme`] trait object the middleware consults
//! at three points, mirroring the APIs the paper exposes to researchers:
//!
//! 1. **Browse** — an advertisement arrived: which advertised authors do
//!    we pull ([`RoutingScheme::interests`])? A non-empty answer triggers
//!    a connection request (Fig. 2b).
//! 2. **Carry** — a new bundle was received and verified: do we keep
//!    re-advertising it to others, i.e. become a forwarder (Fig. 3a,
//!    [`RoutingScheme::should_carry`])?
//! 3. **Serve** — a peer pulls a bundle from us: adjust per-copy state
//!    such as spray budgets ([`RoutingScheme::on_serve`]).
//!
//! Schemes never see key material or sessions; the blue layers of Fig. 1
//! are closed to them. Both of the paper's schemes are under 100 lines
//! here too.
//!
//! Five schemes are built in ([`SchemeKind::ALL`]), and every one of
//! them runs in the studies, sweeps and goldens; anything else is a
//! researcher's own, installed with `Sos::set_custom_scheme`
//! (`examples/custom_scheme.rs`).

pub mod direct;
pub mod epidemic;
pub mod interest_based;
pub mod interest_predictive;
pub mod spray_and_wait;

pub use direct::Direct;
pub use epidemic::Epidemic;
pub use interest_based::InterestBased;
pub use interest_predictive::InterestPredictive;
pub use spray_and_wait::SprayAndWait;

use crate::message::Bundle;
use sos_crypto::UserId;
use sos_net::Advertisement;
use sos_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Read-only view of the node state a scheme may consult.
#[derive(Debug)]
pub struct RoutingContext<'a> {
    /// This device's user id.
    pub me: &'a UserId,
    /// Authors this device's user subscribes to (from the application).
    pub subscriptions: &'a BTreeSet<UserId>,
    /// `author → latest number held` for everything stored locally.
    pub summary: &'a BTreeMap<UserId, u64>,
    /// Current simulation time.
    pub now: SimTime,
}

/// A pluggable DTN routing scheme.
pub trait RoutingScheme: Send {
    /// A short stable name ("epidemic", "interest-based", ...).
    fn name(&self) -> &'static str;

    /// Given a peer's advertisement, the advertised authors whose
    /// messages this node wants to pull. Returning an empty list means
    /// "do not connect".
    fn interests(&mut self, ctx: &RoutingContext<'_>, ad: &Advertisement) -> Vec<UserId>;

    /// After receiving and verifying `bundle`, should this node carry it
    /// (store it for re-advertisement to others)? Bundles the node's own
    /// user subscribes to are always *delivered* to the application;
    /// this only controls forwarding.
    fn should_carry(&mut self, ctx: &RoutingContext<'_>, bundle: &Bundle) -> bool;

    /// The copy budget to stamp on bundles this node authors (`None` =
    /// unlimited replication).
    fn initial_copies(&self) -> Option<u32> {
        None
    }

    /// Called when this node serves `bundle` to a peer; returns the
    /// budget to hand the receiving copy (spray-and-wait halves it) or
    /// `None` for schemes without budgets. Implementations may mutate
    /// internal state.
    fn on_serve(&mut self, bundle: &mut Bundle) -> Option<u32> {
        let _ = bundle;
        None
    }

    /// Whether a stored bundle should currently be advertised. Default:
    /// always (epidemic/IB); spray-and-wait stops advertising exhausted
    /// copies.
    fn should_advertise(&self, ctx: &RoutingContext<'_>, bundle: &Bundle) -> bool {
        let _ = (ctx, bundle);
        true
    }

    /// Observation hook: `peer_user` requested `author`'s messages from
    /// us — evidence of interest in `author` in this neighbourhood.
    fn on_peer_request(&mut self, peer_user: &UserId, author: &UserId, now: SimTime) {
        let _ = (peer_user, author, now);
    }

    /// Security hook: a bundle or handshake from `peer_user` failed
    /// validation. A trust-maintaining scheme would demote the peer
    /// here; no built-in scheme does, and the default ignores it (the
    /// message manager already discarded the offending data).
    fn on_security_incident(&mut self, peer_user: &UserId, now: SimTime) {
        let _ = (peer_user, now);
    }
}

/// The built-in schemes, for configuration and the routing-selection API
/// the middleware exposes to applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Gratuitous replication to every encountered node [Vahdat 2000].
    Epidemic,
    /// The paper's interest-based (IB) scheme: replicate only along
    /// subscriptions.
    InterestBased,
    /// Direct delivery: only author → subscriber transfers (baseline).
    Direct,
    /// Binary spray-and-wait with a configurable copy budget (extension).
    SprayAndWait,
    /// Interest-predictive carrying: IB plus opportunistic caching for
    /// authors that are in demand nearby (extension).
    InterestPredictive,
    /// A researcher-provided scheme installed with
    /// [`crate::middleware::Sos::set_custom_scheme`]; carries the
    /// scheme's reported name.
    Custom(&'static str),
}

impl SchemeKind {
    /// All built-in kinds (custom schemes are not enumerable).
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::Epidemic,
        SchemeKind::InterestBased,
        SchemeKind::Direct,
        SchemeKind::SprayAndWait,
        SchemeKind::InterestPredictive,
    ];

    /// Instantiates a built-in scheme with default parameters.
    ///
    /// # Panics
    ///
    /// Panics for [`SchemeKind::Custom`]: custom schemes are constructed
    /// by the caller and installed via `Sos::set_custom_scheme`.
    pub fn build(&self) -> Box<dyn RoutingScheme> {
        match self {
            SchemeKind::Epidemic => Box::new(Epidemic::new()),
            SchemeKind::InterestBased => Box::new(InterestBased::new()),
            SchemeKind::Direct => Box::new(Direct::new()),
            SchemeKind::SprayAndWait => Box::new(SprayAndWait::new(8)),
            SchemeKind::InterestPredictive => Box::new(InterestPredictive::new()),
            SchemeKind::Custom(name) => {
                // sos-lint: allow(no-panic) reason="documented API-misuse panic (# Panics above); custom schemes are installed via Sos::set_custom_scheme, never built here"
                panic!("custom scheme {name:?} must be installed via Sos::set_custom_scheme")
            }
        }
    }

    /// The scheme's stable name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Epidemic => "epidemic",
            SchemeKind::InterestBased => "interest-based",
            SchemeKind::Direct => "direct",
            SchemeKind::SprayAndWait => "spray-and-wait",
            SchemeKind::InterestPredictive => "interest-predictive",
            SchemeKind::Custom(name) => name,
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::message::{Bundle, MessageKind, SosMessage};
    use sos_crypto::ca::CertificateAuthority;
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::x25519::AgreementKey;
    use sos_net::PeerId;

    /// Builds a bundle authored by `author` with the given number.
    pub fn bundle_from(author: &str, number: u64) -> Bundle {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let uid = UserId::from_str_padded(author);
        let cert = ca.issue(uid, author, sk.verifying_key(), *ak.public(), 0);
        let msg = SosMessage::create(
            &sk,
            uid,
            number,
            SimTime::ZERO,
            MessageKind::Post,
            b"x".to_vec(),
        );
        Bundle::new(msg, cert)
    }

    /// Builds an advertisement from `peer_user` carrying the listed
    /// `(author, latest)` entries.
    pub fn ad(peer_user: &str, entries: &[(&str, u64)]) -> Advertisement {
        let mut ad = Advertisement::new(PeerId(1), UserId::from_str_padded(peer_user));
        for (author, latest) in entries {
            ad.insert(UserId::from_str_padded(author), *latest);
        }
        ad
    }

    /// A context owning its collections for ergonomic tests.
    pub struct OwnedCtx {
        pub me: UserId,
        pub subscriptions: BTreeSet<UserId>,
        pub summary: BTreeMap<UserId, u64>,
        pub now: SimTime,
    }

    impl OwnedCtx {
        pub fn new(me: &str, subs: &[&str], summary: &[(&str, u64)]) -> OwnedCtx {
            OwnedCtx {
                me: UserId::from_str_padded(me),
                subscriptions: subs.iter().map(|s| UserId::from_str_padded(s)).collect(),
                summary: summary
                    .iter()
                    .map(|(a, n)| (UserId::from_str_padded(a), *n))
                    .collect(),
                now: SimTime::ZERO,
            }
        }

        pub fn ctx(&self) -> RoutingContext<'_> {
            RoutingContext {
                me: &self.me,
                subscriptions: &self.subscriptions,
                summary: &self.summary,
                now: self.now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_buildable_with_unique_names() {
        let mut names = std::collections::HashSet::new();
        for kind in SchemeKind::ALL {
            let scheme = kind.build();
            assert_eq!(scheme.name(), kind.name());
            assert!(names.insert(scheme.name()), "duplicate name");
        }
    }
}
