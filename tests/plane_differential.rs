//! The two planes that drive `NodeRuntime`, run against each other.
//!
//! A corpus study is `(trace, RunPlan)`, the input `run_mesh` takes,
//! and both walk the one `sos_node::provision::schedule` of that input.
//! So the simulation driver's final stores should be the lockstep
//! mesh's delivered set, `(node, author, number)`, up to three named
//! divergences, all on the driver's side:
//!
//! - **link loss**: the driver drops frames by its bearer model, the
//!   mesh never does;
//! - **serialization delay past a contact-down**: the driver's frames
//!   take time on the air, and one still in flight when its contact
//!   closes is dropped, where a lockstep round delivers everything sent
//!   before the next schedule step;
//! - **the spray copy order**: spray-and-wait hands out a bounded copy
//!   budget, and the order in which frames arrive within one instant —
//!   by link delay in the driver, by `(to, from, seq)` in the mesh —
//!   decides which peers receive a copy, so the driver may hold a
//!   bundle the mesh does not.
//!
//! Every scheme but spray-and-wait must therefore deliver a subset of
//! the mesh's set; spray-and-wait may exceed it by at most
//! [`SPRAY_EXCESS_BOUND`] bundles per run. The mesh's own excess is
//! reported, not bounded: it is what link loss and delay cost.

use sos::core::routing::SchemeKind;
use sos::experiments::corpus::{run_corpus_study_full, CorpusStudyConfig};
use sos::node::mesh::run_mesh;
use sos::node::proto::author_hex;
use sos::sim::SimDuration;
use sos::trace::corpora::{import_bytes, CorpusFormat};
use sos::trace::ContactTrace;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The most bundles a spray-and-wait driver run held that its mesh run
/// did not, over every cell below (measured: 1, on reality_mini, seed 7).
const SPRAY_EXCESS_BOUND: usize = 1;

/// The seeds of the spray exception and of the mesh's largest excess
/// (seed 99 agrees on every cell; it is left out to keep the test fast).
const SEEDS: [u64; 2] = [7, 20_170_605];

fn fixture(name: &str, format: CorpusFormat) -> ContactTrace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/trace/tests/fixtures")
        .join(name);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    import_bytes(format, &bytes).expect("fixture imports").trace
}

/// Every bundle the driver's nodes hold at the end of the study.
fn driver_stores(trace: &ContactTrace, plan: &CorpusStudyConfig) -> BTreeSet<(u32, String, u64)> {
    let run = run_corpus_study_full(trace, plan, None);
    let mut held = BTreeSet::new();
    for (node, app) in run.apps.iter().enumerate() {
        for bundle in app.middleware().store().iter() {
            let id = bundle.message.id;
            held.insert((node as u32, author_hex(id.author.as_bytes()), id.number));
        }
    }
    held
}

/// Runs every scheme and seed of one fixture on both planes and holds
/// the driver's stores to the mesh's delivered set.
fn assert_planes_agree(name: &str, format: CorpusFormat) {
    let trace = fixture(name, format);
    for scheme in SchemeKind::ALL {
        for seed in SEEDS {
            let plan = CorpusStudyConfig {
                scheme,
                seed,
                total_posts: 40,
                ad_interval: SimDuration::from_secs(60),
            };
            let driver = driver_stores(&trace, &plan);
            let mesh = run_mesh(&trace, &plan).expect("mesh run").delivered;
            let driver_only = driver.difference(&mesh).count();
            println!(
                "{name}, {scheme:?}, seed {seed}: driver {}, mesh {}, driver only {driver_only}",
                driver.len(),
                mesh.len()
            );
            let bound = if scheme == SchemeKind::SprayAndWait {
                SPRAY_EXCESS_BOUND
            } else {
                0
            };
            assert!(
                driver_only <= bound,
                "{name}, {scheme:?}, seed {seed}: the driver holds {driver_only} bundles \
                 the mesh does not (bound {bound})"
            );
        }
    }
}

/// haggle_mini is also the in-vivo trace; the mesh's largest excess is
/// here (spray-and-wait, seed 20170605: 242 bundles against 283).
#[test]
fn haggle_driver_stores_are_within_the_mesh() {
    assert_planes_agree("haggle_mini.conn", CorpusFormat::Crawdad);
}

/// The one cell where the driver holds more: spray-and-wait, seed 7.
#[test]
fn reality_driver_stores_are_within_the_mesh() {
    assert_planes_agree("reality_mini.txt", CorpusFormat::RealityMining);
}

#[test]
fn sassy_driver_stores_are_within_the_mesh() {
    assert_planes_agree("sassy_mini.csv", CorpusFormat::Sassy);
}
