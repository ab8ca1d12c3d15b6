//! `repro` — regenerates every figure and table of the paper's
//! evaluation (§VI) from the simulated field study, and the extension
//! studies built on the same driver.
//!
//! Usage:
//!
//! ```text
//! repro [--seed N] [--days N] [--posts N] [--scheme NAME]
//!       [--attend P] [--wknd P] [--visit P] [--pref S]
//!       [--holdoff MINS] [--visit-mins MINS] [--nodes N,N,..] <command>
//!
//! calibration flags (mobility and routing parameters of the scenario):
//!   --attend P         weekday campus attendance probability
//!   --wknd P           weekend campus attendance probability
//!   --visit P          evening social-visit probability
//!   --pref S           building-preference strength
//!   --holdoff MINS     interest-based forwarder holdoff, minutes
//!   --visit-mins MINS  longest social visit (shortest is half of it)
//!   --nodes N,N,..     metro populations (default 1200,2400)
//!
//! commands:
//!   fig4a      social relationship digraph statistics
//!   fig4b      message generation/dissemination map
//!   fig4c      delivery delay CDFs (1-hop vs All)
//!   fig4d      per-subscription delivery ratio CDF
//!   text       §VI text metrics (259 messages, 967 transfers, ...)
//!   key        one-line key metrics (calibration sweeps)
//!   ablation   routing-scheme comparison: a one-seed sweep (extension)
//!   density    conventional-sim vs field-study density (extension)
//!   eviction   a capped relay's holes healed by ranged wants, observed
//!   corpus     every scheme on each committed corpus fixture, observed:
//!              import report, analytics, comparison, why messages
//!              died, and the --scheme PATH-REPORT
//!   replay     the field study recorded, round-tripped through the
//!              binary codec and replayed; the tape's analytics
//!   metro      the sharded-kernel city, five schemes per population
//!   all        every figure above, fig4a to text
//! ```

#![forbid(unsafe_code)]

use sos_core::routing::SchemeKind;
use sos_engine::run_replicas;
use sos_experiments::corpus::{corpus_study, CorpusStudyConfig};
use sos_experiments::density::{density_study, DensityConfig};
use sos_experiments::driver::{run_study, StudyRun};
use sos_experiments::eviction::{run_eviction_study, EvictionStudyConfig};
use sos_experiments::metropolis::{metropolis_sweep, MetroConfig};
use sos_experiments::observe::RunObserver;
use sos_experiments::replay::record_field_study_trace;
use sos_experiments::report;
use sos_experiments::scenario::{
    field_study, field_study_engine, run_field_study, FieldStudyConfig,
};
use sos_obs::{DropCause, Violation};
use sos_trace::corpora::{import_bytes, CorpusFormat};
use sos_trace::{codec_binary, TraceAnalytics};
use std::num::{NonZeroU64, NonZeroUsize};

/// A committed corpus fixture, built into the binary: `corpus` reads
/// no file.
macro_rules! fixture {
    ($file:literal, $format:ident) => {
        (
            $file,
            CorpusFormat::$format,
            include_bytes!(concat!("../../../trace/tests/fixtures/", $file)),
        )
    };
}

fn parse_scheme(name: &str) -> Option<SchemeKind> {
    SchemeKind::ALL.into_iter().find(|k| k.name() == name)
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--seed N] [--days N] [--posts N] [--scheme NAME] \
         [--attend P] [--wknd P] [--visit P] [--pref S] [--holdoff MINS] [--visit-mins MINS] \
         [--nodes N,N,..] \
         <fig4a|fig4b|fig4c|fig4d|text|key|ablation|density|eviction|corpus|replay|metro|all>"
    );
    eprintln!(
        "schemes: {}",
        SchemeKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// The value after a flag, parsed; a missing or malformed one is a
/// usage error.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

/// A committed input that does not load is a broken build, not a usage
/// error.
fn fail(what: &str, error: impl std::fmt::Display) -> ! {
    eprintln!("repro: {what}: {error}");
    std::process::exit(1);
}

/// Reports the record's broken invariants on stderr and exits 1 if
/// there are any.
fn require_sound(what: &str, violations: &[Violation]) {
    if let Some(first) = violations.first() {
        fail(
            what,
            format!("{} violation(s), the first: {first}", violations.len()),
        );
    }
}

/// One observed eviction study: its outcome, its journal counted by
/// kind, why things were dropped, and the invariants its record breaks.
fn eviction(seed: u64) {
    let config = EvictionStudyConfig {
        seed,
        ..EvictionStudyConfig::default()
    };
    let observer = RunObserver::new();
    let outcome = run_eviction_study(&config, Some(&observer));
    let observation = observer.finish();
    let journal = &observation.journal;
    let violations = observation.provenance().violations;
    print!(
        "{}\n{}\n{}violations: {}\n",
        outcome.format_report(),
        report::journal_summary(journal),
        report::drop_cause_breakdown(journal),
        violations.len()
    );
    require_sound("eviction", &violations);
}

/// Per committed fixture: the import report, the analytics, and one
/// observed run per scheme, compared, root-caused and, for `--scheme`,
/// traced bundle by bundle.
fn corpus(config: &FieldStudyConfig) {
    let fixtures: [(&str, CorpusFormat, &[u8]); 3] = [
        fixture!("haggle_mini.conn", Crawdad),
        fixture!("reality_mini.txt", RealityMining),
        fixture!("sassy_mini.csv", Sassy),
    ];
    for (file, format, bytes) in fixtures {
        let corpus = import_bytes(format, bytes).unwrap_or_else(|e| fail(file, e));
        let trace = &corpus.trace;
        let followers = sos_node::provision::followers_from_trace(trace);
        let destinations = report::follower_destinations(&followers);
        let runs = run_replicas(SchemeKind::ALL.to_vec(), 0, |_, scheme| {
            let plan = CorpusStudyConfig {
                scheme,
                seed: config.seed,
                total_posts: config.total_posts,
                ad_interval: config.ad_interval,
            };
            let observer = RunObserver::new();
            let run = run_study(corpus_study(trace, &plan), Some(&observer));
            let observation = observer.finish();
            let traits = report::scheme_traits(scheme);
            let provenance = observation.provenance();
            let forensics = provenance.classify(&destinations, traits);
            let causes = forensics.cause_counts();
            let count = |cause| {
                causes
                    .iter()
                    .find(|(c, _)| *c == cause)
                    .map_or(0, |(_, n)| *n)
            };
            let died: Vec<u64> = std::iter::once(forensics.delivered() as u64)
                .chain(DropCause::ALL.map(count))
                .chain([provenance.violations.len() as u64])
                .collect();
            let path = (scheme == config.scheme)
                .then(|| report::path_report(file, &observation, &followers, scheme, 3));
            let run = (vec![scheme.name().to_string()], run.summary());
            (run, died, path, provenance.violations)
        });
        // Why messages died: one column per scheme, one row per verdict
        // that occurred under any of them, and the invariants broken.
        let verdicts = std::iter::once("delivered")
            .chain(DropCause::ALL.map(|c| c.label()))
            .chain(["violations"]);
        let last = DropCause::ALL.len() + 1;
        let died: Vec<Vec<String>> = verdicts
            .enumerate()
            .filter(|&(k, _)| k == 0 || k == last || runs.iter().any(|r| r.1[k] > 0))
            .map(|(k, verdict)| {
                let counts = runs.iter().map(|r| r.1[k].to_string());
                std::iter::once(verdict.to_string()).chain(counts).collect()
            })
            .collect();
        let schemes: Vec<&str> = SchemeKind::ALL.iter().map(|k| k.name()).collect();
        let summaries: Vec<_> = runs.iter().map(|r| r.0.clone()).collect();
        let path: String = runs.iter().filter_map(|r| r.2.as_deref()).collect();
        print!(
            "=== {file} ===\n{}{}\n{}\nwhy messages died:\n{}\n{path}\n",
            corpus.report.summary(),
            TraceAnalytics::compute(trace).report(),
            report::summary_table("scheme", &summaries),
            report::table(&format!("verdict {}", schemes.join(" ")), &died),
        );
        let violations: Vec<Violation> = runs.into_iter().flat_map(|r| r.3).collect();
        require_sound(file, &violations);
    }
}

/// The field study's tape, round-tripped through the binary codec and
/// replayed: the replay's summary and the tape's analytics.
fn replay(config: &FieldStudyConfig) {
    let tape = record_field_study_trace(config);
    let binary = codec_binary::to_binary(&tape);
    let reloaded = codec_binary::from_binary(&binary).unwrap_or_else(|e| fail("tape", e));
    let run = run_study(field_study(config, reloaded), None);
    print!(
        "tape: {} events over {} nodes, {} bytes in the binary codec\n{}\
         delay quantiles, h (All): {}\n\n{}",
        tape.len(),
        tape.node_count(),
        binary.len(),
        report::summary_table(
            "replayed",
            &[(vec![config.scheme.name().to_string()], run.summary())]
        ),
        report::delay_quantiles_line(&run.metrics.delays.cdf_all_hours()),
        TraceAnalytics::compute(&tape).report(),
    );
}

/// The metropolis sweep over `populations` at repro's days and seed.
fn metro(config: &FieldStudyConfig, populations: &[usize]) {
    let base = MetroConfig {
        days: config.days,
        seed: config.seed,
        ..MetroConfig::for_nodes(populations[0])
    };
    let outcomes = metropolis_sweep(&base, populations);
    print!("{}", report::metro_table(&outcomes));
}

fn main() {
    let mut config = FieldStudyConfig::default();
    let mut populations = vec![1_200, 2_400];
    let mut command: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => config.seed = value(&mut args),
            "--days" => config.days = value::<NonZeroU64>(&mut args).get(),
            "--posts" => config.total_posts = value(&mut args),
            "--scheme" => {
                let name: String = value(&mut args);
                config.scheme = parse_scheme(&name).unwrap_or_else(|| usage());
            }
            "--attend" => config.schedule.weekday_attendance = value(&mut args),
            "--wknd" => config.schedule.weekend_attendance = value(&mut args),
            "--visit" => config.schedule.social_visit_prob = value(&mut args),
            "--pref" => config.schedule.preference_strength = value(&mut args),
            "--holdoff" => config.ib_holdoff_mins = Some(value(&mut args)),
            "--visit-mins" => {
                let v: u64 = value(&mut args);
                config.schedule.visit_minutes_min = v / 2;
                config.schedule.visit_minutes_max = v;
            }
            "--nodes" => {
                let list: String = value(&mut args);
                populations = list
                    .split(',')
                    .map(|n| n.parse().ok().map(NonZeroUsize::get))
                    .collect::<Option<_>>()
                    .unwrap_or_else(|| usage());
            }
            cmd if !cmd.starts_with('-') && command.is_none() => command = Some(cmd.to_string()),
            _ => usage(),
        }
    }
    // The command picks the renderer before anything runs: a typo costs
    // no simulated week, and Fig. 4a, a property of the follow graph
    // alone, needs none.
    let render: fn(&StudyRun) -> String = match command.as_deref().unwrap_or("all") {
        "fig4a" => {
            println!("{}", report::fig4a());
            return;
        }
        "ablation" => {
            eprintln!(
                "running ablation over {} schemes (seed {}) ...",
                SchemeKind::ALL.len(),
                config.seed
            );
            let rows = run_replicas(SchemeKind::ALL.to_vec(), 0, |_, scheme| {
                let cfg = FieldStudyConfig {
                    scheme,
                    ..config.clone()
                };
                let run = run_study(field_study(&cfg, field_study_engine(&cfg)), None);
                (vec![scheme.name().to_string()], run.summary())
            });
            println!("Routing-scheme ablation (same scenario, same seed)");
            println!("{}", report::summary_table("scheme", &rows));
            return;
        }
        "density" => {
            eprintln!("running density sweep (seed {}) ...", config.seed);
            let points = vec![
                DensityConfig::conventional(50, 1.0, config.seed),
                DensityConfig::conventional(50, 4.0, config.seed),
                DensityConfig::field_study(config.seed),
            ];
            let rows = run_replicas(points, 0, |_, cfg| {
                let label = vec![
                    cfg.nodes.to_string(),
                    format!("{:.2}", cfg.area_km2),
                    format!("{:.2}", cfg.nodes as f64 / cfg.area_km2),
                ];
                (label, run_study(density_study(&cfg), None).summary())
            });
            println!(
                "Density comparison (paper §VI-B): conventional simulation vs field-study density"
            );
            print!(
                "{}",
                report::summary_table("nodes area(km²) density(/km²)", &rows)
            );
            println!("expected: delivery ratio rises and delay collapses with density —");
            println!("the gap between lab simulations and the paper's in-vivo deployment.\n");
            return;
        }
        "eviction" => return eviction(config.seed),
        "corpus" => return corpus(&config),
        "replay" => return replay(&config),
        "metro" => return metro(&config, &populations),
        "fig4b" => |run| report::fig4b(run, 66, 24),
        "fig4c" => report::fig4c,
        "fig4d" => report::fig4d,
        "text" => report::text_metrics,
        "key" => report::key_line,
        "all" => report::full_report,
        _ => usage(),
    };
    eprintln!(
        "running field study: {} days, {} posts, scheme {}, seed {} ...",
        config.days, config.total_posts, config.scheme, config.seed
    );
    println!("{}", render(&run_field_study(&config)));
}
