//! The on-device database (paper §V: "saves the action to the local
//! database on the mobile device" before any dissemination).

use sos_core::message::MessageId;
use sos_crypto::UserId;
use sos_sim::SimTime;
use std::collections::BTreeMap;

/// A post as stored on the receiving device, with the delivery metadata
/// the evaluation measures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceivedPost {
    /// The message id (author + number).
    pub id: MessageId,
    /// Post body.
    pub text: String,
    /// When the author created it.
    pub created_at: SimTime,
    /// When this device received it (equals `created_at` for own posts).
    pub received_at: SimTime,
    /// D2D hops the delivered copy travelled (0 for own posts).
    pub hops: u32,
}

impl ReceivedPost {
    /// The delivery delay experienced by this device.
    pub fn delay(&self) -> sos_sim::SimDuration {
        self.received_at - self.created_at
    }
}

/// A queued action awaiting cloud synchronization (§V: actions sync
/// "when the Internet becomes available").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PendingAction {
    /// Follow `user`.
    Follow(UserId),
    /// Unfollow `user`.
    Unfollow(UserId),
}

/// A decrypted direct message in the inbox.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectMessage {
    /// The sender.
    pub from: UserId,
    /// Decrypted text.
    pub text: String,
    /// When the sender created it.
    pub created_at: SimTime,
    /// When this device received and decrypted it.
    pub received_at: SimTime,
}

/// The local database: received posts, the direct-message inbox, and
/// the outbound action queue.
#[derive(Clone, Debug, Default)]
pub struct LocalDb {
    posts: BTreeMap<MessageId, ReceivedPost>,
    inbox: Vec<DirectMessage>,
    pending_actions: Vec<PendingAction>,
}

impl LocalDb {
    /// Creates an empty database.
    pub fn new() -> LocalDb {
        LocalDb::default()
    }

    /// Inserts a post if absent; returns whether it was new.
    pub fn insert_post(&mut self, post: ReceivedPost) -> bool {
        if self.posts.contains_key(&post.id) {
            return false;
        }
        self.posts.insert(post.id, post);
        true
    }

    /// All posts by `author`, ascending by number.
    pub fn posts_by(&self, author: &UserId) -> Vec<&ReceivedPost> {
        self.posts
            .range(
                MessageId {
                    author: *author,
                    number: 0,
                }..=MessageId {
                    author: *author,
                    number: u64::MAX,
                },
            )
            .map(|(_, p)| p)
            .collect()
    }

    /// All stored posts.
    pub fn all_posts(&self) -> impl Iterator<Item = &ReceivedPost> {
        self.posts.values()
    }

    /// Number of stored posts.
    pub fn post_count(&self) -> usize {
        self.posts.len()
    }

    /// Appends a decrypted direct message to the inbox.
    pub fn push_direct(&mut self, dm: DirectMessage) {
        self.inbox.push(dm);
    }

    /// The direct-message inbox, oldest first.
    pub fn inbox(&self) -> &[DirectMessage] {
        &self.inbox
    }

    /// Queues an action for the next cloud sync.
    pub fn queue_action(&mut self, action: PendingAction) {
        self.pending_actions.push(action);
    }

    /// Takes all pending actions (called when the device goes online).
    pub fn drain_actions(&mut self) -> Vec<PendingAction> {
        std::mem::take(&mut self.pending_actions)
    }

    /// Number of unsynced actions.
    pub fn pending_action_count(&self) -> usize {
        self.pending_actions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(s: &str) -> UserId {
        UserId::from_str_padded(s)
    }

    fn post(author: &str, number: u64, created_s: u64, received_s: u64) -> ReceivedPost {
        ReceivedPost {
            id: MessageId {
                author: uid(author),
                number,
            },
            text: format!("{author}#{number}"),
            created_at: SimTime::from_secs(created_s),
            received_at: SimTime::from_secs(received_s),
            hops: 1,
        }
    }

    #[test]
    fn insert_and_dedup() {
        let mut db = LocalDb::new();
        assert!(db.insert_post(post("alice", 1, 0, 10)));
        assert!(!db.insert_post(post("alice", 1, 0, 99)), "duplicate");
        assert_eq!(db.post_count(), 1);
    }

    #[test]
    fn posts_by_author_is_scoped_and_ordered() {
        let mut db = LocalDb::new();
        db.insert_post(post("bob", 2, 0, 1));
        db.insert_post(post("alice", 2, 0, 1));
        db.insert_post(post("alice", 1, 0, 1));
        let got: Vec<u64> = db
            .posts_by(&uid("alice"))
            .iter()
            .map(|p| p.id.number)
            .collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn delay_computation() {
        let p = post("alice", 1, 100, 4000);
        assert_eq!(p.delay().as_secs(), 3900);
    }

    #[test]
    fn action_queue_drains() {
        let mut db = LocalDb::new();
        db.queue_action(PendingAction::Follow(uid("bob")));
        db.queue_action(PendingAction::Unfollow(uid("carol")));
        assert_eq!(db.pending_action_count(), 2);
        let drained = db.drain_actions();
        assert_eq!(drained.len(), 2);
        assert_eq!(db.pending_action_count(), 0);
    }
}
