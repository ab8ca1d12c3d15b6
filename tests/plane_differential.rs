//! The two planes that drive `NodeRuntime`, run against each other.
//!
//! A corpus study is `(trace, RunPlan)`, the input `run_mesh` takes,
//! and both planes walk the one `sos_node::provision::schedule` of that
//! input under one randomness model: node `i` draws its session
//! randomness from the stream `provision::node_seed(seed, i)` on either.
//! On an instant air the driver lands the frames of one instant in
//! rounds, each in `(to, from, send number)` order, which is the order a
//! lockstep `Host` decodes a round in. So on an instant air a study *is*
//! the mesh run: the same delivered set `(node, author, number)`, the
//! same per-node `SosStats` and the same frame count, for every scheme
//! and seed below.
//!
//! On a radio air the driver adds two divergences of its own:
//!
//! - **link loss**: each directed link drops frames from its own loss
//!   stream; the mesh never loses one;
//! - **serialization delay past a contact-down**: the driver's frames
//!   take time on the air, and one still in flight when its contact
//!   closes is dropped, where a lockstep round delivers everything sent
//!   before the next schedule step.
//!
//! For four schemes a dropped frame can only take deliveries away, so
//! the radio run must deliver a subset of the mesh's set. Spray-and-wait
//! hands out a bounded copy budget: a copy that a lost or late frame
//! keeps from one peer is spent on another, so the radio run may hold
//! bundles the mesh does not. That excess is printed per cell, not
//! bounded; the instant-air equality is what holds the two planes
//! together. The mesh's own excess is printed too: it is what link loss
//! and delay cost.

use sos::core::middleware::SosStats;
use sos::core::routing::SchemeKind;
use sos::experiments::corpus::{corpus_study, CorpusStudyConfig};
use sos::experiments::driver::{run_study, StudyRun};
use sos::experiments::replay::delivered_set;
use sos::net::Medium;
use sos::node::mesh::run_mesh;
use sos::sim::world::{ContactEvent, ContactPhase};
use sos::sim::{SimDuration, SimTime};
use sos::trace::corpora::{import_bytes, CorpusFormat};
use sos::trace::ContactTrace;
use std::path::PathBuf;

/// The first seed of every golden, and the ledger's.
const SEEDS: [u64; 2] = [7, 20_170_605];

fn fixture(name: &str, format: CorpusFormat) -> ContactTrace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/trace/tests/fixtures")
        .join(name);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    import_bytes(format, &bytes).expect("fixture imports").trace
}

/// Seven nodes, every pair in contact for 30 ms from 10 s. Under
/// [`CLIQUE_AD_INTERVAL`] nodes 0–2, 3–4 and 5–6 share their
/// advertisement instants, so one round carries several advertisers'
/// sessions to one node and sessions collide, which the corpus fixtures,
/// one advertiser per instant, never do.
fn clique() -> ContactTrace {
    let pairs = (0..7).flat_map(|a| (a + 1..7).map(move |b| (a, b)));
    let at = |ms, phase| {
        move |(a, b)| ContactEvent {
            time: SimTime::from_millis(ms),
            a,
            b,
            phase,
            distance_m: 5.0,
        }
    };
    let ups = pairs.clone().map(at(10_000, ContactPhase::Up));
    let downs = pairs.map(at(10_030, ContactPhase::Down));
    ContactTrace::new(7, None, ups.chain(downs).collect()).expect("valid trace")
}

/// The clique's advertisement interval: node `i`'s phase is
/// `3 i / 7` ms, rounded down.
const CLIQUE_AD_INTERVAL: SimDuration = SimDuration::from_millis(3);

/// Every plan of the differential: each scheme at each seed, with
/// `total_posts` posts advertised every `ad_interval`.
fn plans(total_posts: usize, ad_interval: SimDuration) -> impl Iterator<Item = CorpusStudyConfig> {
    SchemeKind::ALL.into_iter().flat_map(move |scheme| {
        SEEDS.map(|seed| CorpusStudyConfig {
            scheme,
            seed,
            total_posts,
            ad_interval,
        })
    })
}

/// The corpus fixtures' plans: 40 posts, 60 s advertisements.
fn fixture_plans() -> impl Iterator<Item = CorpusStudyConfig> {
    plans(40, SimDuration::from_secs(60))
}

/// The corpus study of `(trace, plan)`, run on `air`.
fn driver_run(trace: &ContactTrace, plan: &CorpusStudyConfig, air: Medium) -> StudyRun {
    let mut study = corpus_study(trace, plan);
    study.air = air;
    run_study(study, None)
}

/// Runs every scheme and seed of `trace` on the instant air and on the
/// mesh, and requires the two runs to be one.
fn assert_instant_air_is_the_mesh(
    name: &str,
    trace: &ContactTrace,
    plans: impl Iterator<Item = CorpusStudyConfig>,
) {
    for plan in plans {
        let cell = format!("{name}, {:?}, seed {}", plan.scheme, plan.seed);
        let driver = driver_run(trace, &plan, Medium::Instant);
        let mesh = run_mesh(trace, &plan).expect("mesh run");
        assert!(mesh.frames > 0, "{cell}: an idle run");
        assert_eq!(
            delivered_set(&driver),
            mesh.delivered,
            "{cell}: delivered sets"
        );
        let stats: Vec<SosStats> = (driver.apps.iter())
            .map(|app| app.middleware().stats())
            .collect();
        assert_eq!(stats, mesh.stats, "{cell}: per-node stats");
        assert_eq!(driver.metrics.frames_sent, mesh.frames, "{cell}: frames");
        assert_eq!(
            driver.metrics.frames_lost, 0,
            "{cell}: an instant air loses nothing"
        );
    }
}

/// Runs every scheme and seed of one fixture on the radio air and on the
/// mesh, and holds the driver's stores inside the mesh's delivered set,
/// spray-and-wait excepted.
fn assert_radio_air_is_within_the_mesh(name: &str, format: CorpusFormat) {
    let trace = fixture(name, format);
    for plan in fixture_plans() {
        let cell = format!("{name}, {:?}, seed {}", plan.scheme, plan.seed);
        let driver = delivered_set(&driver_run(&trace, &plan, Medium::Radio { infra: false }));
        let mesh = run_mesh(&trace, &plan).expect("mesh run").delivered;
        let driver_only = driver.difference(&mesh).count();
        let mesh_only = mesh.difference(&driver).count();
        println!(
            "{cell}: radio {}, mesh {}, radio only {driver_only}, mesh only {mesh_only}",
            driver.len(),
            mesh.len()
        );
        if plan.scheme != SchemeKind::SprayAndWait {
            assert_eq!(
                driver_only, 0,
                "{cell}: the radio run holds {driver_only} bundles the mesh does not"
            );
        }
    }
}

/// haggle_mini is also the in-vivo trace.
#[test]
fn haggle_driver_is_the_mesh_on_an_instant_air() {
    let trace = fixture("haggle_mini.conn", CorpusFormat::Crawdad);
    assert_instant_air_is_the_mesh("haggle_mini.conn", &trace, fixture_plans());
}

#[test]
fn reality_driver_is_the_mesh_on_an_instant_air() {
    let trace = fixture("reality_mini.txt", CorpusFormat::RealityMining);
    assert_instant_air_is_the_mesh("reality_mini.txt", &trace, fixture_plans());
}

#[test]
fn sassy_driver_is_the_mesh_on_an_instant_air() {
    let trace = fixture("sassy_mini.csv", CorpusFormat::Sassy);
    assert_instant_air_is_the_mesh("sassy_mini.csv", &trace, fixture_plans());
}

#[test]
fn clique_driver_is_the_mesh_on_an_instant_air() {
    assert_instant_air_is_the_mesh("clique", &clique(), plans(12, CLIQUE_AD_INTERVAL));
}

#[test]
fn haggle_driver_stores_are_within_the_mesh() {
    assert_radio_air_is_within_the_mesh("haggle_mini.conn", CorpusFormat::Crawdad);
}

#[test]
fn reality_driver_stores_are_within_the_mesh() {
    assert_radio_air_is_within_the_mesh("reality_mini.txt", CorpusFormat::RealityMining);
}

/// The mesh's largest excess is here (interest-based and direct, seed
/// 7: 35 bundles).
#[test]
fn sassy_driver_stores_are_within_the_mesh() {
    assert_radio_air_is_within_the_mesh("sassy_mini.csv", CorpusFormat::Sassy);
}
