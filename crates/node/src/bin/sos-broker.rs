//! Conducts an in-vivo run: feeds encounter events from a contact
//! trace to N `sos-node` daemon processes, each on one TCP connection
//! to the broker, relays the frames they send one another, and prints
//! the outcome.
//!
//! ```text
//! # daemons started by hand:
//! sos-broker --listen 127.0.0.1:7700 --procs 3 --trace fixture.conn
//!
//! # or let the broker spawn its own fleet on loopback:
//! sos-broker --procs 3 --trace fixture.conn --spawn
//! ```

use sos_core::routing::SchemeKind;
use sos_node::broker::{Broker, BrokerConfig};
use sos_node::provision::{load_trace_bytes, RunPlan};
use sos_sim::SimDuration;
use std::process::ExitCode;

struct Args {
    listen: String,
    procs: usize,
    trace: String,
    scheme: SchemeKind,
    posts: usize,
    seed: u64,
    ad_secs: u64,
    spawn: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        listen: "127.0.0.1:0".into(),
        procs: 2,
        trace: String::new(),
        scheme: SchemeKind::InterestBased,
        posts: 40,
        seed: 7,
        ad_secs: 60,
        spawn: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--listen" => out.listen = value("--listen")?,
            "--procs" => {
                out.procs = value("--procs")?
                    .parse()
                    .map_err(|e| format!("--procs: {e}"))?
            }
            "--trace" => out.trace = value("--trace")?,
            "--scheme" => {
                let name = value("--scheme")?;
                out.scheme = SchemeKind::ALL
                    .into_iter()
                    .find(|s| s.name() == name)
                    .ok_or_else(|| format!("unknown scheme `{name}`"))?;
            }
            "--posts" => {
                out.posts = value("--posts")?
                    .parse()
                    .map_err(|e| format!("--posts: {e}"))?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--ad-secs" => {
                out.ad_secs = value("--ad-secs")?
                    .parse()
                    .map_err(|e| format!("--ad-secs: {e}"))?
            }
            "--spawn" => out.spawn = true,
            "--help" | "-h" => {
                println!(
                    "usage: sos-broker --trace FILE [--procs N] [--listen HOST:PORT] \
                     [--scheme NAME] [--posts N] [--seed S] [--ad-secs S] [--spawn]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.trace.is_empty() {
        return Err("missing --trace FILE".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sos-broker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bytes = std::fs::read(&args.trace).map_err(|e| format!("{}: {e}", args.trace))?;
    let trace = load_trace_bytes(&bytes).map_err(|e| format!("{}: {e}", args.trace))?;

    let config = BrokerConfig {
        listen: args.listen.clone(),
        num_procs: args.procs,
        plan: RunPlan {
            scheme: args.scheme,
            seed: args.seed,
            total_posts: args.posts,
            ad_interval: SimDuration::from_secs(args.ad_secs),
        },
    };
    let broker = Broker::bind(config).map_err(|e| e.to_string())?;
    let addr = broker.local_addr().map_err(|e| e.to_string())?;
    println!(
        "sos-broker: conducting {} nodes / {} processes on {addr} ({}, {} posts)",
        trace.node_count(),
        args.procs,
        args.scheme,
        args.posts,
    );

    let mut children = Vec::new();
    if args.spawn {
        let exe = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("sos-node");
        for _ in 0..args.procs {
            let child = std::process::Command::new(&exe)
                .arg("--broker")
                .arg(addr.to_string())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            children.push(child);
        }
    }

    let result = broker.run(&trace);
    for mut child in children {
        let _ = child.wait();
    }
    let outcome = result.map_err(|e| e.to_string())?;

    println!(
        "sos-broker: {} posts, {} rounds, {} bundle deliveries, {} journal lines ({} dropped)",
        outcome.posts,
        outcome.rounds,
        outcome.delivered.len(),
        outcome.journal.len(),
        outcome.journal_dropped,
    );
    for (node, stats) in outcome.stats.iter().enumerate() {
        println!(
            "  node {node}: sent={} recv={} dup={} sessions={}",
            stats.bundles_sent,
            stats.bundles_received,
            stats.bundles_duplicate,
            stats.sessions_initiated + stats.sessions_accepted,
        );
    }
    if outcome.delivered.is_empty() {
        return Err("run completed with zero deliveries".into());
    }
    Ok(())
}
