//! Node-density comparison — reproducing the paper's §VI-B discussion:
//!
//! "Note the low density due to real people being able to operate freely
//! in a large city area (88 km²) [...] DTN simulations typically model
//! 50 to 100 nodes in a constrained simulation space ranging between
//! 0.25 km² - 4 km². [...] The results at such a low density provide
//! promising insight into delay tolerant social networks and suggest
//! further investigations at higher densities are needed."
//!
//! This experiment runs the same SOS stack under conventional
//! simulation conditions (many nodes, small area, random waypoint) and
//! under the field study's density, quantifying how strongly density
//! drives delivery ratio and delay — the gap the paper warns about when
//! extrapolating simulation results to reality. [`density_study`]
//! provisions one point; `repro density` runs two
//! [`conventional`](DensityConfig::conventional) points and the
//! [`field_study`](DensityConfig::field_study) one side by side.

use crate::driver::Study;
use alleyoop::app::AlleyOopApp;
use rand::{Rng, SeedableRng};
use sos_core::routing::SchemeKind;
use sos_net::Medium;
use sos_sim::geo::Bounds;
use sos_sim::mobility::random_waypoint::RandomWaypoint;
use sos_sim::radio::RadioTech;
use sos_sim::{SimDuration, SimTime, World};

/// One density point to evaluate.
#[derive(Clone, Debug)]
pub struct DensityConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Square simulation area, km².
    pub area_km2: f64,
    /// Simulated duration in hours.
    pub hours: u64,
    /// Total posts across all nodes.
    pub posts: usize,
    /// Number of users each node follows (random subset).
    pub follows_per_node: usize,
    /// Routing scheme.
    pub scheme: SchemeKind,
    /// Seed.
    pub seed: u64,
}

impl DensityConfig {
    /// A conventional DTN-simulation setup: `nodes` pedestrians in a
    /// small square area with random-waypoint mobility.
    pub fn conventional(nodes: usize, area_km2: f64, seed: u64) -> DensityConfig {
        DensityConfig {
            nodes,
            area_km2,
            hours: 12,
            posts: 120,
            follows_per_node: 4,
            scheme: SchemeKind::InterestBased,
            seed,
        }
    }

    /// The field study's density: 10 nodes over 88 km², posting 40.
    pub fn field_study(seed: u64) -> DensityConfig {
        DensityConfig {
            posts: 40,
            ..DensityConfig::conventional(10, 88.0, seed)
        }
    }
}

/// One density point: `cfg.nodes` random-waypoint pedestrians in a
/// square of `cfg.area_km2`, each following `cfg.follows_per_node`
/// others at random.
pub fn density_study(cfg: &DensityConfig) -> Study<World> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut apps = AlleyOopApp::sign_up_fleet(
        "Density CA",
        cfg.seed,
        (0..cfg.nodes).map(|i| format!("d{i:03}")),
        cfg.scheme,
        &mut rng,
    );

    // Random follow graph: each node follows `follows_per_node` others.
    let mut followers: Vec<Vec<usize>> = vec![Vec::new(); cfg.nodes];
    for i in 0..cfg.nodes {
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < cfg.follows_per_node.min(cfg.nodes - 1) {
            let j = rng.gen_range(0..cfg.nodes);
            if j != i {
                chosen.insert(j);
            }
        }
        for j in chosen {
            let uid = apps[j].user_id();
            apps[i].follow(uid);
            followers[j].push(i);
        }
    }

    // Random-waypoint pedestrians in a square of the requested area.
    let side_m = (cfg.area_km2.max(1e-6)).sqrt() * 1000.0;
    let bounds = Bounds::new(side_m, side_m);
    let rwp = RandomWaypoint::pedestrian(bounds);
    let trajectories: Vec<_> = (0..cfg.nodes)
        .map(|i| {
            let mut trng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ ((i as u64 + 1) * 7919));
            rwp.generate(&mut trng, SimDuration::from_hours(cfg.hours))
        })
        .collect();
    let source = World::new(
        trajectories,
        RadioTech::max_range_m(false),
        SimDuration::from_secs(30),
    );

    let end = SimTime::from_hours(cfg.hours);
    let mut post_rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdead);
    let posts = (0..cfg.posts)
        .map(|_| {
            let node = post_rng.gen_range(0..cfg.nodes);
            let at = SimTime::from_millis(post_rng.gen_range(0..end.as_millis() * 3 / 4));
            (at, node)
        })
        .collect();
    Study {
        scheme: cfg.scheme,
        seed: cfg.seed,
        apps,
        source,
        followers,
        posts,
        ad_interval: SimDuration::from_secs(60),
        air: Medium::Radio { infra: false },
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_study;
    use crate::report::summary_table;
    use sos_sim::EncounterSource;

    #[test]
    fn density_drives_delivery() {
        let dense = run_study(
            density_study(&DensityConfig::conventional(30, 0.25, 3)),
            None,
        );
        let sparse = run_study(density_study(&DensityConfig::field_study(3)), None);
        let (dense, sparse) = (dense.summary(), sparse.summary());
        assert!(
            dense.delivery_ratio > sparse.delivery_ratio,
            "dense {} <= sparse {}",
            dense.delivery_ratio,
            sparse.delivery_ratio
        );
        assert!(dense.deliveries > 0.0);
    }

    #[test]
    fn outcome_fields_consistent() {
        let cfg = DensityConfig::conventional(20, 1.0, 5);
        let study = density_study(&cfg);
        assert_eq!(study.apps.len(), 20);
        assert_eq!(study.source.node_count(), 20);
        assert_eq!(study.posts.len(), cfg.posts);
        let s = run_study(study, None).summary();
        assert!(s.delivery_ratio >= 0.0 && s.delivery_ratio <= 1.0);
    }

    #[test]
    fn table_renders() {
        let cfg = DensityConfig::conventional(10, 1.0, 1);
        let summary = run_study(density_study(&cfg), None).summary();
        let table = summary_table("nodes", &[(vec![cfg.nodes.to_string()], summary)]);
        assert!(table.starts_with("nodes  deliveries"), "{table}");
        assert_eq!(table.lines().count(), 2, "{table}");
    }
}
