//! CI smoke for the in-vivo transport: a broker conducting **three
//! real `sos-node` OS processes** over TCP loopback on the committed
//! `haggle_mini` corpus, checked against the in-process mesh oracle.
//!
//! ```sh
//! cargo build --release -p sos-node   # the daemon binaries
//! cargo run --release --example in_vivo
//! ```
//!
//! Wall time is bounded by construction: every blocking edge in the
//! broker and daemons carries a read timeout or a retry cap, so a hung
//! or killed peer surfaces as a named error here instead of a stuck CI
//! job. The run must shut down cleanly (all daemons exit zero after
//! `Shutdown`) and deliver bundles, its whole outcome — delivered
//! set, per-node stats, journal, posts, rounds and frames — must equal
//! `run_mesh` on the same plan, and the fleet's journal, merged into one
//! timeline, must break no invariant `Provenance::build` checks.

use sos_core::routing::SchemeKind;
use sos_node::broker::{Broker, BrokerConfig};
use sos_node::mesh::run_mesh;
use sos_node::provision::{load_trace_bytes, RunPlan};
use sos_obs::{GlobalTimeline, Provenance};
use sos_sim::SimDuration;
use std::path::PathBuf;
use std::process::{Child, Command};

const PROCS: usize = 3;

/// The sibling `sos-node` binary: examples land in
/// `target/<profile>/examples/`, the workspace's binaries one level up.
fn daemon_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(|examples| examples.parent())
        .ok_or("example binary has no target dir")?;
    let daemon = dir.join("sos-node");
    if !daemon.exists() {
        return Err(format!(
            "{} not built — run `cargo build -p sos-node` (matching profile) first",
            daemon.display()
        ));
    }
    Ok(daemon)
}

fn main() -> Result<(), String> {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/trace/tests/fixtures/haggle_mini.conn");
    let bytes = std::fs::read(&fixture).map_err(|e| format!("{}: {e}", fixture.display()))?;
    let trace = load_trace_bytes(&bytes).map_err(|e| format!("{}: {e}", fixture.display()))?;

    let plan = RunPlan {
        scheme: SchemeKind::Epidemic,
        seed: 7,
        total_posts: 12,
        ad_interval: SimDuration::from_secs(600),
    };

    // In-process oracle first: the same NodeRuntime fleet, no sockets.
    let mesh = run_mesh(&trace, &plan).map_err(|e| format!("mesh oracle: {e}"))?;

    let daemon = daemon_exe()?;
    let broker = Broker::bind(BrokerConfig {
        listen: "127.0.0.1:0".into(),
        num_procs: PROCS,
        plan,
    })
    .map_err(|e| format!("bind broker: {e}"))?;
    let addr = broker
        .local_addr()
        .map_err(|e| format!("broker addr: {e}"))?;
    println!(
        "in_vivo: conducting {} nodes across {PROCS} sos-node processes on {addr}",
        trace.node_count()
    );

    let mut children: Vec<Child> = Vec::new();
    for _ in 0..PROCS {
        children.push(
            Command::new(&daemon)
                .arg("--broker")
                .arg(addr.to_string())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", daemon.display()))?,
        );
    }

    let result = broker.run(&trace);
    if result.is_err() {
        // Don't leave orphans behind a failed conductor; the daemons'
        // own read timeouts would reap them eventually, CI need not wait.
        for child in &mut children {
            let _ = child.kill();
        }
    }
    for mut child in children {
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("sos-node exited with {status}"));
        }
    }
    let vivo = result.map_err(|e| format!("in-vivo run: {e}"))?;

    print!("{}", sos_experiments::report::in_vivo_report(&vivo));

    if vivo.delivered.is_empty() {
        return Err("in-vivo run delivered nothing".into());
    }
    if vivo != mesh {
        return Err("in-vivo outcome diverged from the in-process mesh".into());
    }
    let violations = Provenance::build(&GlobalTimeline::merge([&vivo.to_journal()])).violations;
    if let Some(first) = violations.first() {
        let n = violations.len();
        return Err(format!("{n} invariant violation(s), the first: {first}"));
    }
    println!(
        "in_vivo: OK — {} deliveries over real sockets, byte-equal to the in-process mesh, 0 violations",
        vivo.delivered.len()
    );
    Ok(())
}
