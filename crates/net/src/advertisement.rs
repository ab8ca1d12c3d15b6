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

use crate::error::NetError;
use crate::peer::PeerId;
use sos_crypto::UserId;
use sos_sim::codec::{Count, Reader, Writer};
use std::collections::BTreeMap;

/// A broadcast advertisement: which users' messages this device carries,
/// and up to which message number. Deliberately unencrypted — it contains
/// no message content, only availability (the paper accepts this
/// metadata exposure to enable connection decisions without a session).
#[derive(Clone, Debug, PartialEq, Eq)]
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

    /// The dictionary's layout (what a [`Frame`](crate::Frame) carries
    /// after its tag byte): advertiser header, a `u16` count, then
    /// 10-byte key + 8-byte value per entry in ascending key order. A
    /// summary holds one entry per known author; past the `u16` field
    /// the first 65 535 are kept rather than letting the count wrap.
    /// Dropped authors are re-requested at later encounters — sync still
    /// converges.
    pub(crate) fn write(&self, w: &mut impl Writer) {
        w.u32(self.peer.0);
        w.bytes(self.user_id.as_bytes());
        let count = w.len16(self.summary.len());
        for (user, latest) in self.summary.iter().take(count) {
            w.bytes(user.as_bytes());
            w.u64(*latest);
        }
    }

    /// Reads what [`Advertisement::write`] wrote, and only that: keys
    /// out of order or repeated are malformed, never silently merged.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Advertisement, NetError> {
        let mut ad = Advertisement::new(PeerId(r.u32()?), UserId(r.array()?));
        let mut prev = None;
        for _ in 0..r.count16(10 + 8)? {
            let user = UserId(r.array()?);
            if prev >= Some(user) {
                return Err(NetError::BadFrame);
            }
            prev = Some(user);
            ad.summary.insert(user, r.u64()?);
        }
        Ok(ad)
    }

    /// Wire size in bytes of the plain-text dictionary, used by the
    /// link model to cost discovery traffic: the encoder run on a byte
    /// counter.
    pub fn wire_size(&self) -> usize {
        Count::of(|w| self.write(w))
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
