//! `repro` — regenerates every figure and table of the paper's
//! evaluation (§VI) from the simulated field study.
//!
//! Usage:
//!
//! ```text
//! repro [--seed N] [--days N] [--posts N] [--scheme NAME]
//!       [--attend P] [--wknd P] [--visit P] [--pref S]
//!       [--holdoff MINS] [--visit-mins MINS] <command>
//!
//! calibration flags (mobility and routing parameters of the scenario):
//!   --attend P         weekday campus attendance probability
//!   --wknd P           weekend campus attendance probability
//!   --visit P          evening social-visit probability
//!   --pref S           building-preference strength
//!   --holdoff MINS     interest-based forwarder holdoff, minutes
//!   --visit-mins MINS  longest social visit (shortest is half of it)
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
//!   all        every figure above
//! ```

#![forbid(unsafe_code)]

use sos_core::routing::SchemeKind;
use sos_engine::run_replicas;
use sos_experiments::density::{density_study, DensityConfig};
use sos_experiments::driver::{run_study, StudyRun};
use sos_experiments::report;
use sos_experiments::scenario::{
    field_study, field_study_engine, run_field_study, FieldStudyConfig,
};
use std::num::NonZeroU64;

fn parse_scheme(name: &str) -> Option<SchemeKind> {
    SchemeKind::ALL.into_iter().find(|k| k.name() == name)
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--seed N] [--days N] [--posts N] [--scheme NAME] \
         [--attend P] [--wknd P] [--visit P] [--pref S] [--holdoff MINS] [--visit-mins MINS] \
         <fig4a|fig4b|fig4c|fig4d|text|key|ablation|density|all>"
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

fn main() {
    let mut config = FieldStudyConfig::default();
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
