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
//! extrapolating simulation results to reality.

use crate::driver::{run_study, DriverConfig, RunSummary, Study, StudyRun};
use crate::observe::RunObserver;
use alleyoop::app::AlleyOopApp;
use rand::{Rng, SeedableRng};
use sos_core::routing::SchemeKind;
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
}

/// One row of the density comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct DensityOutcome {
    /// Number of nodes.
    pub nodes: usize,
    /// Area in km².
    pub area_km2: f64,
    /// What the run at that density delivered.
    pub summary: RunSummary,
}

impl DensityOutcome {
    /// Summarises `run`, the result of [`run_density`] on `cfg`.
    pub fn new(cfg: &DensityConfig, run: &StudyRun) -> DensityOutcome {
        DensityOutcome {
            nodes: cfg.nodes,
            area_km2: cfg.area_km2,
            summary: run.summary(),
        }
    }

    /// Node density per km².
    pub fn density_per_km2(&self) -> f64 {
        self.nodes as f64 / self.area_km2
    }
}

/// Runs one density point, optionally observed.
pub fn run_density(cfg: &DensityConfig, obs: Option<&RunObserver>) -> StudyRun {
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
    let study = Study {
        scheme: cfg.scheme,
        seed: cfg.seed,
        apps,
        source,
        followers,
        posts,
        driver: DriverConfig {
            ad_interval: SimDuration::from_secs(60),
            infra_available: false,
            seed: cfg.seed ^ 0xd5,
        },
        end,
    };
    run_study(study, obs)
}

/// The sweep the `repro density` command runs: two conventional setups
/// and one field-study-density setup.
pub fn standard_sweep(seed: u64) -> Vec<DensityOutcome> {
    [
        DensityConfig::conventional(50, 1.0, seed),
        DensityConfig::conventional(50, 4.0, seed),
        DensityConfig {
            // The field study's density: 10 nodes over 88 km².
            nodes: 10,
            area_km2: 88.0,
            hours: 12,
            posts: 40,
            follows_per_node: 4,
            scheme: SchemeKind::InterestBased,
            seed,
        },
    ]
    .iter()
    .map(|cfg| DensityOutcome::new(cfg, &run_density(cfg, None)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_drives_delivery() {
        let dense = run_density(&DensityConfig::conventional(30, 0.25, 3), None).summary();
        let sparse = run_density(
            &DensityConfig {
                nodes: 10,
                area_km2: 88.0,
                hours: 12,
                posts: 40,
                follows_per_node: 4,
                scheme: SchemeKind::InterestBased,
                seed: 3,
            },
            None,
        )
        .summary();
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
        let o = DensityOutcome::new(&cfg, &run_density(&cfg, None));
        assert_eq!(o.nodes, 20);
        assert!((o.density_per_km2() - 20.0).abs() < 1e-9);
        assert!(o.summary.delivery_ratio >= 0.0 && o.summary.delivery_ratio <= 1.0);
    }

    #[test]
    fn table_renders() {
        let cfg = DensityConfig::conventional(10, 1.0, 1);
        let rows = vec![DensityOutcome::new(&cfg, &run_density(&cfg, None))];
        let table = crate::report::density_table(&rows);
        assert!(table.contains("density"));
    }
}
