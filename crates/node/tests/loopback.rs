//! Satellite acceptance: a **real-socket** run reproduces the
//! in-process run exactly.
//!
//! Two `sos-node` daemons launched as genuine OS processes exchange
//! middleware frames over TCP loopback, each frame relayed by the
//! broker that conducts them in lockstep, on the imported `haggle_mini`
//! CRAWDAD fixture. For both a flooding and a quota scheme, and for a
//! flooding scheme on three processes, the whole outcome — delivered set,
//! every node's `SosStats`, the journal (as a sorted line multiset),
//! posts, rounds and frames — must equal the in-process [`run_mesh`]
//! oracle: the paper's in-vivo claim made checkable, simulation and
//! deployment run the same middleware, byte for byte.

use sos_core::routing::SchemeKind;
use sos_node::broker::{Broker, BrokerConfig};
use sos_node::mesh::run_mesh;
use sos_node::provision::{load_trace_bytes, RunPlan};
use sos_node::Outcome;
use sos_sim::SimDuration;
use sos_trace::ContactTrace;
use std::path::PathBuf;
use std::process::{Child, Command};

fn haggle_trace() -> ContactTrace {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../trace/tests/fixtures/haggle_mini.conn");
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    load_trace_bytes(&bytes).expect("fixture imports")
}

/// Launches `procs` real daemon processes against a bound broker and
/// conducts the run.
fn run_in_vivo(trace: &ContactTrace, plan: RunPlan, procs: usize) -> Outcome {
    let broker = Broker::bind(BrokerConfig {
        listen: "127.0.0.1:0".into(),
        num_procs: procs,
        plan,
    })
    .expect("bind broker");
    let addr = broker.local_addr().expect("broker addr").to_string();

    let children: Vec<Child> = (0..procs)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_sos-node"))
                .arg("--broker")
                .arg(&addr)
                .spawn()
                .expect("spawn sos-node")
        })
        .collect();

    let outcome = broker.run(trace);
    for mut child in children {
        let status = child.wait().expect("daemon exit status");
        assert!(status.success(), "daemon exited with {status}");
    }
    outcome.expect("in-vivo run")
}

#[test]
fn two_process_loopback_reproduces_the_mesh_exactly() {
    let trace = haggle_trace();
    for scheme in [SchemeKind::Epidemic, SchemeKind::SprayAndWait] {
        let plan = RunPlan {
            scheme,
            seed: 7,
            total_posts: 12,
            // A long cadence bounds the lockstep tick count so two
            // schemes' socket runs stay well inside CI budgets.
            ad_interval: SimDuration::from_secs(600),
        };

        let mesh = run_mesh(&trace, &plan).expect("mesh oracle");
        assert!(
            !mesh.delivered.is_empty(),
            "{scheme}: oracle run must deliver bundles"
        );
        assert!(mesh.posts > 0);

        let vivo = run_in_vivo(&trace, plan, 2);
        assert_eq!(
            vivo, mesh,
            "{scheme}: outcome diverged between sockets and mesh"
        );
    }
}

/// Three processes: a daemon's frames now go to two different
/// processes, each relayed by the broker to the one hosting its
/// destination, and the outcome is still the mesh's.
#[test]
fn three_process_loopback_reproduces_the_mesh_exactly() {
    let trace = haggle_trace();
    let plan = RunPlan {
        scheme: SchemeKind::Epidemic,
        seed: 7,
        total_posts: 12,
        ad_interval: SimDuration::from_secs(600),
    };
    let mesh = run_mesh(&trace, &plan).expect("mesh oracle");
    assert!(
        !mesh.delivered.is_empty(),
        "oracle run must deliver bundles"
    );
    let vivo = run_in_vivo(&trace, plan, 3);
    assert_eq!(vivo, mesh, "outcome diverged between 3 processes and mesh");
}
