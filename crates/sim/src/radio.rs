//! The three bearers of Apple's Multipeer Connectivity and their modelled
//! ranges and link characteristics.
//!
//! Apple does not publish MPC radio parameters (the paper notes "the
//! company does not disclose specific details on how MPC works"), so we
//! use typical figures for the underlying technologies.

/// A device-to-device bearer available to the ad hoc manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RadioTech {
    /// Bluetooth personal area network (~10 m). Modelled but never
    /// selected: peer-to-peer WiFi out-ranges and out-runs it, so
    /// [`best_for_distance`](RadioTech::best_for_distance) never returns
    /// it.
    Bluetooth,
    /// Peer-to-peer WiFi / AWDL (~60 m line of sight).
    PeerToPeerWifi,
    /// Both devices on the same infrastructure WiFi network (~100 m
    /// effective radius around an access point).
    InfrastructureWifi,
}

impl RadioTech {
    /// All bearers, strongest range last.
    pub const ALL: [RadioTech; 3] = [
        RadioTech::Bluetooth,
        RadioTech::PeerToPeerWifi,
        RadioTech::InfrastructureWifi,
    ];

    /// Nominal communication range in metres.
    pub fn range_m(&self) -> f64 {
        match self {
            RadioTech::Bluetooth => 10.0,
            RadioTech::PeerToPeerWifi => 60.0,
            RadioTech::InfrastructureWifi => 100.0,
        }
    }

    /// Nominal application-layer throughput in bytes/second.
    pub fn bandwidth_bps(&self) -> f64 {
        match self {
            RadioTech::Bluetooth => 125_000.0,            // ~1 Mbit/s
            RadioTech::PeerToPeerWifi => 3_000_000.0,     // ~24 Mbit/s
            RadioTech::InfrastructureWifi => 1_500_000.0, // shared AP
        }
    }

    /// One-way frame latency in milliseconds.
    pub fn latency_ms(&self) -> u64 {
        match self {
            RadioTech::Bluetooth => 40,
            RadioTech::PeerToPeerWifi => 8,
            RadioTech::InfrastructureWifi => 15,
        }
    }

    /// Frame loss probability on an established link.
    pub fn loss_probability(&self) -> f64 {
        match self {
            RadioTech::Bluetooth => 0.02,
            RadioTech::PeerToPeerWifi => 0.01,
            RadioTech::InfrastructureWifi => 0.005,
        }
    }

    /// The best (highest-bandwidth) bearer usable at `distance_m`, if any.
    ///
    /// Mirrors MPC behaviour: the framework silently picks a transport,
    /// and nearby devices get p2p WiFi. Bluetooth is modelled but never
    /// selected: within its 10 m, p2p WiFi is also in range and has the
    /// higher bandwidth.
    pub fn best_for_distance(distance_m: f64, infra_available: bool) -> Option<RadioTech> {
        let mut best: Option<RadioTech> = None;
        for tech in RadioTech::ALL {
            if tech == RadioTech::InfrastructureWifi && !infra_available {
                continue;
            }
            if distance_m <= tech.range_m() {
                best = match best {
                    Some(b) if b.bandwidth_bps() >= tech.bandwidth_bps() => Some(b),
                    _ => Some(tech),
                };
            }
        }
        best
    }

    /// The maximum D2D range with the given infrastructure availability.
    pub fn max_range_m(infra_available: bool) -> f64 {
        if infra_available {
            RadioTech::InfrastructureWifi.range_m()
        } else {
            RadioTech::PeerToPeerWifi.range_m()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_ordered() {
        assert!(RadioTech::Bluetooth.range_m() < RadioTech::PeerToPeerWifi.range_m());
        assert!(RadioTech::PeerToPeerWifi.range_m() < RadioTech::InfrastructureWifi.range_m());
    }

    #[test]
    fn best_bearer_selection() {
        // Very close: p2p wifi wins on bandwidth.
        assert_eq!(
            RadioTech::best_for_distance(5.0, false),
            Some(RadioTech::PeerToPeerWifi)
        );
        // 80 m: only infrastructure reaches, and only if available.
        assert_eq!(
            RadioTech::best_for_distance(80.0, true),
            Some(RadioTech::InfrastructureWifi)
        );
        assert_eq!(RadioTech::best_for_distance(80.0, false), None);
        // Out of range entirely.
        assert_eq!(RadioTech::best_for_distance(500.0, true), None);
    }

    #[test]
    fn max_range() {
        assert_eq!(RadioTech::max_range_m(false), 60.0);
        assert_eq!(RadioTech::max_range_m(true), 100.0);
    }
}
