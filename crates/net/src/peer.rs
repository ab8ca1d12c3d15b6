//! Peer identifiers.

/// Identifies a physical device in the neighbourhood, analogous to
/// MPC's `MCPeerID`. Distinct from the 10-byte application-level
/// [`sos_crypto::UserId`]: the advertisement binds the two together.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PeerId(pub u32);

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

impl From<u32> for PeerId {
    fn from(v: u32) -> PeerId {
        PeerId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_display() {
        assert!(PeerId(1) < PeerId(2));
        assert_eq!(PeerId(7).to_string(), "peer7");
    }
}
