//! The plain-text advertisement of §V-A.
//!
//! "Mobile devices roam freely advertising and browsing for basic
//! information in plain-text to assist other AlleyOop Social enabled
//! devices with making the decision of whether or not to request a
//! connection. [...] a plain-text key/value dictionary consisting of
//! UserID/MessageNumber. The key field in the dictionary is a 10 byte
//! unique user identification string. The value field of the dictionary
//! is the latest MessageNumber that the advertising device has for the
//! particular UserID."

use crate::peer::PeerId;
use serde::{Deserialize, Serialize};
use sos_crypto::UserId;
use std::collections::BTreeMap;

/// A broadcast advertisement: which users' messages this device carries,
/// and up to which message number. Deliberately unencrypted — it contains
/// no message content, only availability (the paper accepts this
/// metadata exposure to enable connection decisions without a session).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Advertisement {
    /// The advertising device.
    pub peer: PeerId,
    /// The advertising device's own user id.
    pub user_id: UserId,
    /// `UserID → latest MessageNumber` carried by the advertiser.
    pub summary: BTreeMap<UserId, u64>,
}

impl Advertisement {
    /// Creates an advertisement.
    pub fn new(peer: PeerId, user_id: UserId) -> Advertisement {
        Advertisement {
            peer,
            user_id,
            summary: BTreeMap::new(),
        }
    }

    /// Sets the latest message number carried for `user`.
    pub fn insert(&mut self, user: UserId, latest: u64) -> &mut Self {
        self.summary.insert(user, latest);
        self
    }

    /// The advertised latest message number for `user`, if any.
    pub fn latest_for(&self, user: &UserId) -> Option<u64> {
        self.summary.get(user).copied()
    }

    /// The users for which the advertiser has something newer than
    /// `mine` claims to hold. This is the browser-side connection
    /// decision of Fig. 2b, before any session exists.
    pub fn users_with_news(&self, mine: &BTreeMap<UserId, u64>) -> Vec<UserId> {
        self.summary
            .iter()
            .filter(|(user, &theirs)| mine.get(*user).copied().unwrap_or(0) < theirs)
            .map(|(user, _)| *user)
            .collect()
    }

    /// Wire size in bytes of the plain-text dictionary (10-byte key +
    /// 8-byte value per entry, plus the advertiser header), used by the
    /// link model to cost discovery traffic: what
    /// [`Frame::encode`](crate::Frame::encode) writes after the frame's
    /// tag byte, which keeps only the first 65 535 entries of a larger
    /// dictionary.
    pub fn wire_size(&self) -> usize {
        4 + 10 + 2 + self.summary.len().min(usize::from(u16::MAX)) * 18
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(s: &str) -> UserId {
        UserId::from_str_padded(s)
    }

    #[test]
    fn news_detection() {
        let mut ad = Advertisement::new(PeerId(1), uid("alice"));
        ad.insert(uid("alice"), 5).insert(uid("bob"), 3);

        let mut mine = BTreeMap::new();
        mine.insert(uid("alice"), 5); // up to date
        mine.insert(uid("bob"), 1); // stale
        let news = ad.users_with_news(&mine);
        assert_eq!(news, vec![uid("bob")]);
    }

    #[test]
    fn unknown_user_is_news() {
        let mut ad = Advertisement::new(PeerId(1), uid("alice"));
        ad.insert(uid("carol"), 1);
        let news = ad.users_with_news(&BTreeMap::new());
        assert_eq!(news, vec![uid("carol")]);
    }

    #[test]
    fn zero_messages_is_not_news() {
        let mut ad = Advertisement::new(PeerId(1), uid("alice"));
        ad.insert(uid("carol"), 0);
        assert!(ad.users_with_news(&BTreeMap::new()).is_empty());
    }

    #[test]
    fn wire_size_grows_linearly() {
        let mut ad = Advertisement::new(PeerId(1), uid("a"));
        let base = ad.wire_size();
        ad.insert(uid("b"), 1);
        assert_eq!(ad.wire_size(), base + 18);
        // The frame adds its tag byte to exactly this.
        let framed = crate::Frame::Advertisement(ad.clone());
        assert_eq!(framed.encode().len(), 1 + ad.wire_size());
    }
}
