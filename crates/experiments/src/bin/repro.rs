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
use sos_experiments::scenario::{run_field_study, FieldStudyConfig};
use sos_experiments::{report, sweep};

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = FieldStudyConfig::default();
    let mut command: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                config.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--days" => {
                config.days = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--posts" => {
                config.total_posts = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scheme" => {
                let name = iter.next().unwrap_or_else(|| usage());
                config.scheme = parse_scheme(&name).unwrap_or_else(|| usage());
            }
            "--attend" => {
                config.schedule.weekday_attendance = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--wknd" => {
                config.schedule.weekend_attendance = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--visit" => {
                config.schedule.social_visit_prob = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--pref" => {
                config.schedule.preference_strength = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--holdoff" => {
                config.ib_holdoff_mins = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--visit-mins" => {
                let v: u64 = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                config.schedule.visit_minutes_min = v / 2;
                config.schedule.visit_minutes_max = v;
            }
            cmd if !cmd.starts_with('-') && command.is_none() => command = Some(cmd.to_string()),
            _ => usage(),
        }
    }
    let command = command.unwrap_or_else(|| "all".to_string());

    if command == "ablation" {
        eprintln!(
            "running ablation over {} schemes (seed {}) ...",
            SchemeKind::ALL.len(),
            config.seed
        );
        let cells = sweep::scheme_sweep(&config, &SchemeKind::ALL, &[config.seed], 0);
        println!("Routing-scheme ablation (same scenario, same seed)");
        println!("{}", report::sweep_table(&cells));
        return;
    }
    if command == "density" {
        eprintln!("running density sweep (seed {}) ...", config.seed);
        let rows = sos_experiments::density::standard_sweep(config.seed);
        println!("{}", report::density_table(&rows));
        return;
    }

    eprintln!(
        "running field study: {} days, {} posts, scheme {}, seed {} ...",
        config.days, config.total_posts, config.scheme, config.seed
    );
    let outcome = run_field_study(&config);
    let output = match command.as_str() {
        "fig4a" => report::fig4a(),
        "fig4b" => report::fig4b(&outcome, 66, 24),
        "fig4c" => report::fig4c(&outcome),
        "fig4d" => report::fig4d(&outcome),
        "text" => report::text_metrics(&outcome),
        "key" => report::key_line(&outcome),
        "all" => report::full_report(&outcome),
        _ => usage(),
    };
    println!("{output}");
}
