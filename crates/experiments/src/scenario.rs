//! The Gainesville field-study scenario (paper §VI): ten students, seven
//! days, an ~11 km × 8 km area, 259 unique posts, Interest-Based
//! routing, and the reconstructed Fig. 4a social graph.
//!
//! This module only provisions: the ten apps, the Fig. 4a follower
//! lists, the mobility and the post schedule, all pure functions of a
//! [`FieldStudyConfig`], which [`field_study`] gathers into a [`Study`]
//! over any encounter source. Running, observing and summarising are
//! [`run_study`]'s; [`run_field_study`] is the blind run on the
//! scenario's own mobility.

use crate::driver::{run_study, Study, StudyRun};
use crate::social;
use alleyoop::app::AlleyOopApp;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sos_core::routing::SchemeKind;
use sos_engine::{ShardConfig, ShardedContactEngine};
use sos_net::Medium;
use sos_sim::mobility::schedule::{DailySchedule, ScheduleConfig};
use sos_sim::mobility::trace::Trajectory;
use sos_sim::radio::RadioTech;
use sos_sim::{EncounterSource, SimDuration, SimTime, World};

/// Scenario configuration, defaulting to the published field study.
#[derive(Clone, Debug)]
pub struct FieldStudyConfig {
    /// Master seed; the whole run is a pure function of this.
    pub seed: u64,
    /// Simulated days (7 in the study).
    pub days: u64,
    /// Total unique posts (259 in the study).
    pub total_posts: usize,
    /// Routing scheme under test (IB in the study).
    pub scheme: SchemeKind,
    /// Mobility model parameters.
    pub schedule: ScheduleConfig,
    /// Advertisement period.
    pub ad_interval: SimDuration,
    /// Contact-detection sampling period.
    pub contact_tick: SimDuration,
    /// Whether infrastructure WiFi assists D2D range.
    pub infra_available: bool,
    /// Forwarder-selection holdoff for Interest-Based routing, minutes
    /// (`None` = scheme default).
    pub ib_holdoff_mins: Option<u64>,
}

impl Default for FieldStudyConfig {
    fn default() -> Self {
        // Mobility and routing parameters calibrated against §VI (the
        // sweep is documented in EXPERIMENTS.md): moderate campus
        // attendance with strong clique clustering, long best-friend
        // evening visits, and a 7-hour forwarder-selection holdoff
        // together reproduce the paper's transfer volume, heavy-tailed
        // delays and 1-hop-dominant delivery mix.
        let schedule = ScheduleConfig {
            weekday_attendance: 0.6,
            weekend_attendance: 0.15,
            social_visit_prob: 0.8,
            visit_minutes_min: 120,
            visit_minutes_max: 240,
            campus_buildings: 8,
            preference_strength: 0.9,
            ..ScheduleConfig::default()
        };
        FieldStudyConfig {
            seed: 2,
            days: 7,
            total_posts: 259,
            scheme: SchemeKind::InterestBased,
            schedule,
            ad_interval: SimDuration::from_secs(60),
            contact_tick: SimDuration::from_secs(30),
            infra_available: false,
            ib_holdoff_mins: Some(420),
        }
    }
}

/// Builds the ten apps, signs them up with the cloud (the one-time
/// infrastructure requirement), and wires subscriptions from the
/// reconstructed digraph.
fn build_apps(config: &FieldStudyConfig, rng: &mut rand::rngs::StdRng) -> Vec<AlleyOopApp> {
    let mut apps = AlleyOopApp::sign_up_fleet(
        "AlleyOop Root CA",
        config.seed,
        (0..social::NODES).map(|i| format!("node-{i}")),
        config.scheme,
        rng,
    );
    // Subscriptions: follower -> followee edges of Fig. 4a.
    for (follower, followee) in social::field_study_digraph().edges() {
        let followee_user = apps[followee].user_id();
        apps[follower].follow(followee_user);
    }
    // Custom IB holdoff, if requested.
    if let (Some(mins), SchemeKind::InterestBased) = (config.ib_holdoff_mins, config.scheme) {
        for app in &mut apps {
            app.middleware_mut().set_custom_scheme(Box::new(
                sos_core::routing::InterestBased::with_holdoff(sos_sim::SimDuration::from_mins(
                    mins,
                )),
            ));
        }
    }
    apps
}

/// Generates the post workload: `total_posts` posts spread uniformly
/// over nodes and days, at waking hours (9:00–23:00).
fn post_schedule(config: &FieldStudyConfig) -> Vec<(SimTime, usize)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0xbeef);
    let mut posts = Vec::with_capacity(config.total_posts);
    for _ in 0..config.total_posts {
        let node = rng.gen_range(0..social::NODES);
        let day = rng.gen_range(0..config.days);
        let hour = rng.gen_range(9.0..23.0f64);
        let at = SimTime::from_millis(day * 86_400_000 + (hour * 3_600_000.0) as u64);
        posts.push((at, node));
    }
    posts.sort_by_key(|(t, _)| *t);
    // Shuffle ties deterministically so same-time posts do not always
    // favour low node indices.
    posts.shuffle(&mut rng);
    posts.sort_by_key(|(t, _)| *t);
    posts
}

/// The field study's mobility, reproduced standalone: the exact
/// trajectories a run with this `config` drives — useful for recording
/// the scenario's encounter timeline (`experiments::replay`) without
/// running it.
pub fn field_study_trajectories(config: &FieldStudyConfig) -> Vec<Trajectory> {
    // Homes and schedules are drawn from the master stream after the
    // apps' draws, so the apps are built (and dropped) to reach them.
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    build_apps(config, &mut rng);
    let mut sched_cfg = config.schedule.clone();
    sched_cfg.days = config.days;
    let buildings = sched_cfg.campus_buildings;
    let mut schedule = DailySchedule::new(sched_cfg, social::NODES, &mut rng);
    schedule.set_building_preferences(social::building_preferences(buildings));
    schedule.set_friends(social::friend_lists());
    schedule.generate_all(config.seed ^ 0xfeed)
}

/// The [`World`] a `run_field_study(config)` call simulates on.
pub fn field_study_world(config: &FieldStudyConfig) -> World {
    World::new(
        field_study_trajectories(config),
        RadioTech::max_range_m(config.infra_available),
        config.contact_tick,
    )
}

/// The field study's follower lists: `followers[author]` = node
/// indices subscribed to `author`'s posts (the destination sets
/// delivery forensics classifies against).
pub fn field_study_followers() -> Vec<Vec<usize>> {
    let graph = social::field_study_digraph();
    (0..social::NODES)
        .map(|author| graph.predecessors(author).to_vec())
        .collect()
}

/// The single-loop grid kernel over the same mobility: the timeline of
/// [`field_study_world`], found without the O(n²) scan.
pub fn field_study_engine(config: &FieldStudyConfig) -> ShardedContactEngine {
    ShardedContactEngine::from_trajectories(
        &field_study_trajectories(config),
        RadioTech::max_range_m(config.infra_available),
        config.contact_tick,
        ShardConfig::SINGLE,
    )
}

/// The complete field study on an arbitrary [`EncounterSource`]: the
/// scenario's own [`field_study_world`], its [`field_study_engine`], or
/// a recorded (or imported, or synthetic) `sos_trace::ContactTrace`.
///
/// Everything except the encounter timeline is a pure function of
/// `config`, so two sources with the same timeline yield
/// byte-identical runs.
pub fn field_study<S: EncounterSource>(config: &FieldStudyConfig, source: S) -> Study<S> {
    // Apps are a pure function of the seed's stream prefix, so these
    // are the apps the mobility of `field_study_trajectories` follows.
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    Study {
        scheme: config.scheme,
        seed: config.seed,
        apps: build_apps(config, &mut rng),
        source,
        followers: field_study_followers(),
        posts: post_schedule(config),
        ad_interval: config.ad_interval,
        air: Medium::Radio {
            infra: config.infra_available,
        },
        end: SimTime::from_hours(config.days * 24),
    }
}

/// Runs the complete field study, blind, on the naive [`World`]
/// contact scan over its own mobility.
pub fn run_field_study(config: &FieldStudyConfig) -> StudyRun {
    run_study(field_study(config, field_study_world(config)), None)
}

/// A reduced-size scenario for fast tests: 2 days, 40 posts, smaller
/// area so contacts are plentiful.
pub fn small_test_config(seed: u64, scheme: SchemeKind) -> FieldStudyConfig {
    let mut cfg = FieldStudyConfig {
        seed,
        days: 2,
        total_posts: 40,
        scheme,
        ..FieldStudyConfig::default()
    };
    cfg.schedule.weekday_attendance = 1.0;
    cfg.schedule.weekend_attendance = 1.0;
    cfg.schedule.campus_buildings = 2;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_field_study_delivers_messages() {
        let cfg = small_test_config(11, SchemeKind::InterestBased);
        let outcome = run_field_study(&cfg);
        assert_eq!(outcome.metrics.posts, 40);
        assert!(
            outcome.transfers() > 20,
            "expected some D2D transfers, got {}",
            outcome.transfers()
        );
        assert!(
            !outcome.metrics.delays.is_empty(),
            "expected interested deliveries"
        );
        assert_eq!(outcome.metrics.security_alerts, 0);
        // Everyone posted to at least someone: the delivery recorder has
        // live subscriptions.
        assert!(outcome.metrics.delivery.subscription_count() > 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_test_config(5, SchemeKind::InterestBased);
        let a = run_field_study(&cfg);
        let b = run_field_study(&cfg);
        assert_eq!(a.transfers(), b.transfers());
        assert_eq!(a.metrics.posts, b.metrics.posts);
        assert_eq!(a.metrics.frames_sent, b.metrics.frames_sent);
        assert_eq!(
            a.metrics.delays.records().len(),
            b.metrics.delays.records().len()
        );
    }

    #[test]
    fn epidemic_produces_at_least_as_many_transfers_as_ib() {
        let ib = run_field_study(&small_test_config(3, SchemeKind::InterestBased));
        let epi = run_field_study(&small_test_config(3, SchemeKind::Epidemic));
        assert!(
            epi.transfers() >= ib.transfers(),
            "epidemic {} < IB {}",
            epi.transfers(),
            ib.transfers()
        );
    }

    #[test]
    fn direct_never_meaningfully_exceeds_ib_deliveries() {
        // IB's forwarder-selection holdoff can defer a handful of
        // multi-hop deliveries past the end of a short scenario, so
        // allow a small slack rather than strict dominance.
        let ib = run_field_study(&small_test_config(3, SchemeKind::InterestBased));
        let direct = run_field_study(&small_test_config(3, SchemeKind::Direct));
        assert!(
            direct.metrics.delays.len() <= ib.metrics.delays.len() + 10,
            "direct {} >> IB {}",
            direct.metrics.delays.len(),
            ib.metrics.delays.len()
        );
        // Direct deliveries are all 1-hop by construction.
        assert!(direct.one_hop_fraction() >= 0.999 || direct.metrics.delays.is_empty());
    }

    #[test]
    fn grid_engine_field_study_matches_naive_world_run() {
        // End-to-end equivalence: the full middleware stack over the
        // grid engine produces byte-identical metrics to the naive
        // World scan, because the contact streams are identical.
        let cfg = small_test_config(5, SchemeKind::InterestBased);
        let naive = run_field_study(&cfg);
        let grid = run_study(field_study(&cfg, field_study_engine(&cfg)), None);
        assert_eq!(naive.metrics, grid.metrics);
        assert_eq!(naive.totals, grid.totals);
    }

    #[test]
    fn epidemic_transfers_most_on_every_seed_on_the_grid_engine() {
        let schemes = [
            SchemeKind::InterestBased,
            SchemeKind::Epidemic,
            SchemeKind::Direct,
        ];
        let seeds = [11, 12];
        let jobs: Vec<(u64, SchemeKind)> = seeds
            .iter()
            .flat_map(|&seed| schemes.map(|scheme| (seed, scheme)))
            .collect();
        let runs = sos_engine::run_replicas(jobs, 2, |_, (seed, scheme)| {
            let cfg = small_test_config(seed, scheme);
            run_study(field_study(&cfg, field_study_engine(&cfg)), None).summary()
        });
        for (seed, runs) in seeds.iter().zip(runs.chunks(schemes.len())) {
            for (scheme, run) in schemes.iter().zip(runs) {
                assert!(
                    run.transfers > 0.0,
                    "seed {seed}: {scheme:?} made no transfers"
                );
            }
            // Epidemic floods; it can never transfer less than IB, nor
            // than Direct, on identical encounters.
            assert!(runs[1].transfers >= runs[0].transfers, "seed {seed}");
            assert!(runs[1].transfers >= runs[2].transfers, "seed {seed}");
            let rows: Vec<_> = schemes
                .iter()
                .zip(runs)
                .map(|(scheme, run)| (vec![scheme.name().to_string()], *run))
                .collect();
            let table = crate::report::summary_table("scheme", &rows);
            assert!(table.contains("\nepidemic "), "{table}");
        }
    }
}
