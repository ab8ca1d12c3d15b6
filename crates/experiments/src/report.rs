//! Report formatting: regenerates each figure's data series, prints
//! paper-vs-measured comparisons, and renders every comparison table —
//! runs side by side through [`summary_table`], the metropolis through
//! [`metro_table`] — on the one aligned [`table`] renderer.

use crate::driver::{aggregate_stats, MapEventKind, RunMetrics, RunSummary, StudyRun};
use crate::metropolis::MetroOutcome;
use crate::observe::RunObservation;
use crate::social;
use alleyoop::app::AlleyOopApp;
use sos_core::routing::SchemeKind;
use sos_obs::{Journal, SchemeTraits};
use sos_sim::metrics::Cdf;
use std::collections::BTreeMap;

/// Paper-published values for §VI, used in the comparison tables.
mod paper {
    /// Undirected density of the social graph.
    pub(super) const DENSITY: f64 = 0.64;
    /// Average shortest path length.
    pub(super) const AVG_PATH: f64 = 1.3;
    /// Diameter.
    pub(super) const DIAMETER: usize = 2;
    /// Radius.
    pub(super) const RADIUS: usize = 1;
    /// Transitivity.
    pub(super) const TRANSITIVITY: f64 = 0.80;
    /// Directed subscriptions.
    pub(super) const SUBSCRIPTIONS: usize = 46;
    /// Unique messages posted.
    pub(super) const UNIQUE_MESSAGES: u64 = 259;
    /// User-to-user transfers with IB routing.
    pub(super) const TRANSFERS: u64 = 967;
    /// Fraction of deliveries at one hop.
    pub(super) const ONE_HOP_FRACTION: f64 = 0.826;
    /// Delay CDF reference points: (hours, all-hops fraction, 1-hop fraction).
    pub(super) const DELAY_POINTS: [(f64, f64, f64); 2] = [(24.0, 0.43, 0.44), (94.0, 0.90, 0.92)];
    /// Fraction of messages delivered within 94 h.
    pub(super) const WITHIN_94H: f64 = 0.93;
    /// Delivery-ratio reference points (all hops): fraction of
    /// subscriptions with ratio above the threshold.
    pub(super) const DELIVERY_ABOVE_080_ALL: f64 = 0.30;
    /// Fraction of subscriptions above 0.70 (all hops).
    pub(super) const DELIVERY_ABOVE_070_ALL: f64 = 0.50;
}

/// Renders the Fig. 4a table: paper vs measured social-graph metrics
/// (the reconstructed graph is the same for every run).
pub fn fig4a() -> String {
    let s = social::field_study_report();
    let mut out = String::new();
    out.push_str("Fig. 4a — social relationship digraph (10 active users)\n");
    out.push_str("metric                     paper    measured\n");
    out.push_str(&format!(
        "nodes                      10       {}\n",
        s.nodes
    ));
    out.push_str(&format!(
        "subscriptions              {}       {}\n",
        paper::SUBSCRIPTIONS,
        s.subscriptions
    ));
    out.push_str(&format!(
        "density (undirected)       {:.2}     {:.3}\n",
        paper::DENSITY,
        s.density
    ));
    out.push_str(&format!(
        "avg shortest path          {:.1}      {:.2}\n",
        paper::AVG_PATH,
        s.average_shortest_path
    ));
    out.push_str(&format!(
        "diameter                   {}        {}\n",
        paper::DIAMETER,
        s.diameter
    ));
    out.push_str(&format!(
        "radius                     {}        {}\n",
        paper::RADIUS,
        s.radius
    ));
    out.push_str(&format!(
        "center nodes               6,7      {}\n",
        s.center
            .iter()
            .map(|c| (c + 1).to_string()) // paper numbers nodes from 1
            .collect::<Vec<_>>()
            .join(",")
    ));
    out.push_str(&format!(
        "transitivity               {:.2}     {:.3}\n",
        paper::TRANSITIVITY,
        s.transitivity
    ));
    out
}

/// Renders the Fig. 4b ASCII density map: message generation (`o`) and
/// dissemination (`x`) over the ~11 km × 8 km plane.
pub fn fig4b(outcome: &StudyRun, cols: usize, rows: usize) -> String {
    let map = &outcome.metrics.map;
    let (width, height) = (11_000.0f64, 8_000.0f64);
    let mut created = vec![vec![0u32; cols]; rows];
    let mut relayed = vec![vec![0u32; cols]; rows];
    for ev in map {
        let c = ((ev.x / width) * cols as f64).min(cols as f64 - 1.0) as usize;
        let r = ((ev.y / height) * rows as f64).min(rows as f64 - 1.0) as usize;
        match ev.kind {
            MapEventKind::Created => created[r][c] += 1,
            MapEventKind::Disseminated => relayed[r][c] += 1,
        }
    }
    let mut out = String::new();
    out.push_str("Fig. 4b — message generation (o) and dissemination (x) map\n");
    out.push_str(&format!(
        "area 11 km x 8 km; {} created (blue in paper), {} disseminated (red)\n",
        map.iter()
            .filter(|e| e.kind == MapEventKind::Created)
            .count(),
        map.iter()
            .filter(|e| e.kind == MapEventKind::Disseminated)
            .count()
    ));
    for r in (0..rows).rev() {
        out.push('|');
        for c in 0..cols {
            let ch = match (created[r][c], relayed[r][c]) {
                (0, 0) => ' ',
                (_, 0) => 'o',
                (0, _) => 'x',
                (_, _) => '*',
            };
            out.push(ch);
        }
        out.push_str("|\n");
    }
    out
}

/// `p50/p90/p99` of a delay CDF in hours, `-` when empty — the
/// at-a-glance summary that makes trace runs comparable without
/// reading whole CDF curves.
pub fn delay_quantiles_line(cdf: &Cdf) -> String {
    if cdf.is_empty() {
        return "p50 -       p90 -       p99 -".to_string();
    }
    format!(
        "p50 {:<7.2} p90 {:<7.2} p99 {:<7.2}",
        cdf.quantile(0.50),
        cdf.quantile(0.90),
        cdf.quantile(0.99)
    )
}

fn cdf_series_lines(cdf: &Cdf, label: &str) -> String {
    let xs: Vec<f64> = (0..=12).map(|i| i as f64 * 14.0).collect();
    let mut out = format!("  {label} (n={}):\n", cdf.len());
    for (x, f) in cdf.series(&xs) {
        out.push_str(&format!("    <= {x:5.0} h : {f:.3}\n"));
    }
    out
}

/// Renders Fig. 4c: delivery-delay CDFs for "1-hop" and "All".
pub fn fig4c(outcome: &StudyRun) -> String {
    let all = outcome.metrics.delays.cdf_all_hours();
    let one = outcome.metrics.delays.cdf_one_hop_hours();
    let mut out = String::new();
    out.push_str("Fig. 4c — delivery delay CDF\n");
    out.push_str("checkpoint            paper(All) meas(All) paper(1hop) meas(1hop)\n");
    for (hours, p_all, p_one) in paper::DELAY_POINTS {
        out.push_str(&format!(
            "<= {hours:3.0} h              {:.2}       {:.3}     {:.2}        {:.3}\n",
            p_all,
            all.fraction_le(hours),
            p_one,
            one.fraction_le(hours)
        ));
    }
    out.push_str(&cdf_series_lines(&all, "All hops"));
    out.push_str(&cdf_series_lines(&one, "1-hop"));
    out
}

/// Renders Fig. 4d: the per-subscription delivery-ratio CDF.
pub fn fig4d(outcome: &StudyRun) -> String {
    let delivery = &outcome.metrics.delivery;
    let cdf = delivery.ratio_cdf();
    let mut out = String::new();
    out.push_str("Fig. 4d — per-subscription delivery ratio\n");
    out.push_str(&format!(
        "subscriptions with >= 1 expected message: {}\n",
        delivery.subscription_count()
    ));
    out.push_str(&format!(
        "fraction of subs with ratio > 0.80 (All): paper {:.2}, measured {:.3}\n",
        paper::DELIVERY_ABOVE_080_ALL,
        delivery.fraction_above(0.80)
    ));
    out.push_str(&format!(
        "fraction of subs with ratio > 0.70 (All): paper {:.2}, measured {:.3}\n",
        paper::DELIVERY_ABOVE_070_ALL,
        delivery.fraction_above(0.70)
    ));
    out.push_str("ratio CDF:\n");
    for i in 0..=10 {
        let x = i as f64 / 10.0;
        out.push_str(&format!("    <= {x:.1} : {:.3}\n", cdf.fraction_le(x)));
    }
    out.push_str(&format!(
        "overall delivery ratio: {:.3}\n",
        delivery.overall_ratio()
    ));
    out
}

/// Renders the §VI text metrics: message counts, transfers, hop mix.
pub fn text_metrics(outcome: &StudyRun) -> String {
    let m = &outcome.metrics;
    let all = m.delays.cdf_all_hours();
    let mut out = String::new();
    out.push_str("§VI text metrics\n");
    out.push_str("metric                         paper    measured\n");
    out.push_str(&format!(
        "unique messages posted         {}      {}\n",
        paper::UNIQUE_MESSAGES,
        m.posts
    ));
    out.push_str(&format!(
        "user-to-user transfers (IB)    {}      {}\n",
        paper::TRANSFERS,
        outcome.transfers()
    ));
    out.push_str(&format!(
        "subscriptions                  {}       {}\n",
        paper::SUBSCRIPTIONS,
        social::field_study_report().subscriptions
    ));
    out.push_str(&format!(
        "1-hop delivery fraction        {:.3}    {:.3}\n",
        paper::ONE_HOP_FRACTION,
        outcome.one_hop_fraction()
    ));
    out.push_str(&format!(
        "delivered within 94 h          {:.2}     {:.3}\n",
        paper::WITHIN_94H,
        all.fraction_le(94.0)
    ));
    out.push_str(&format!(
        "delay quantiles, h (All)       -        {}\n",
        delay_quantiles_line(&all)
    ));
    out.push_str(&format!(
        "delay quantiles, h (1-hop)     -        {}\n",
        delay_quantiles_line(&outcome.metrics.delays.cdf_one_hop_hours())
    ));
    out.push_str(&format!(
        "frames sent / lost             -        {} / {}\n",
        m.frames_sent, m.frames_lost
    ));
    out.push_str(&format!(
        "security rejections            0*       {}\n",
        outcome.totals.security_rejections
    ));
    out.push_str(&format!(
        "security alerts                0*       {}\n",
        m.security_alerts
    ));
    out.push_str("(* the paper reports no security incidents in the study)\n");
    out
}

/// Renders `header` (column titles, whitespace-separated) over `rows`
/// as an aligned text table: every column is as wide as its widest
/// cell, label columns are left-aligned and number columns (whose cells
/// all parse as numbers, `-` or blank) right-aligned, two spaces apart.
pub fn table(header: &str, rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.split_whitespace().map(str::to_string).collect();
    let columns: Vec<(usize, bool)> = (0..header.len())
        .map(|c| {
            let cells = || rows.iter().filter_map(move |r| r.get(c));
            let width = cells().chain([&header[c]]).map(|s| s.chars().count());
            let label = cells().any(|s| !(s.is_empty() || s == "-" || s.parse::<f64>().is_ok()));
            (width.max().unwrap_or(0), label)
        })
        .collect();
    let mut out = String::new();
    for row in std::iter::once(&header).chain(rows) {
        let cells: Vec<String> = row
            .iter()
            .zip(&columns)
            .map(|(cell, &(width, label))| {
                if label {
                    format!("{cell:<width$}")
                } else {
                    format!("{cell:>width$}")
                }
            })
            .collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// A delay in hours as a table cell, `-` when nothing was delivered.
fn hours_cell(hours: Option<f64>) -> String {
    hours.map_or("-".to_string(), |h| format!("{h:.2}"))
}

/// The columns every run comparison shares, after its own label cells.
const SUMMARY_COLUMNS: &str = "deliveries transfers overhead 1-hop ratio median-delay-h";

/// Runs side by side: one row per `(label cells, summary)`, under the
/// `labels` column titles and the columns every run comparison shares
/// (deliveries, transfers, overhead, 1-hop, ratio, median delay). The
/// counts print as integers when every row's are whole (single runs)
/// and with one decimal otherwise (means over seeds).
pub fn summary_table(labels: &str, rows: &[(Vec<String>, RunSummary)]) -> String {
    let decimals = usize::from(
        rows.iter()
            .any(|(_, s)| s.deliveries.fract() != 0.0 || s.transfers.fract() != 0.0),
    );
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, s)| {
            let mut row = label.clone();
            row.extend([
                format!("{:.decimals$}", s.deliveries),
                format!("{:.decimals$}", s.transfers),
                format!("{:.2}", s.overhead()),
                format!("{:.3}", s.one_hop_fraction),
                format!("{:.3}", s.delivery_ratio),
                hours_cell(s.median_delay_hours),
            ]);
            row
        })
        .collect();
    table(&format!("{labels} {SUMMARY_COLUMNS}"), &cells)
}

/// The metropolis comparison: one block of scheme rows per population.
pub fn metro_table(outcomes: &[MetroOutcome]) -> String {
    let mut rows = Vec::new();
    for o in outcomes {
        for (i, s) in o.schemes.iter().enumerate() {
            // The population's own columns print once per block.
            let head = |v: String| if i == 0 { v } else { String::new() };
            rows.push(vec![
                head(o.nodes.to_string()),
                head(o.districts.to_string()),
                head(o.contacts.to_string()),
                s.scheme.name().to_string(),
                s.delivered.to_string(),
                format!("{:.3}", s.delivery_ratio()),
                s.transfers.to_string(),
                hours_cell(s.delay_p50_h),
                hours_cell(s.delay_p90_h),
            ]);
        }
    }
    table(
        "nodes districts contacts scheme delivered ratio transfers p50-h p90-h",
        &rows,
    )
}

/// Per-node middleware counters, one row per app — the per-scheme ×
/// per-node view of a run.
pub fn per_node_table(apps: &[AlleyOopApp]) -> String {
    let stats: Vec<sos_core::middleware::SosStats> =
        apps.iter().map(|app| app.middleware().stats()).collect();
    stats_table(&stats)
}

/// [`per_node_table`] over bare counter slices — the form an in-vivo
/// broker hands back, where the apps live in other OS processes and
/// only their [`SosStats`](sos_core::middleware::SosStats) come home.
pub fn stats_table(stats: &[sos_core::middleware::SosStats]) -> String {
    let mut out = String::new();
    out.push_str("node   posts   sent   recv    dup    rej  alert  s_ini  s_acc  served frames\n");
    for (i, s) in stats.iter().enumerate() {
        out.push_str(&format!(
            "{i:<5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6}\n",
            s.posts,
            s.bundles_sent,
            s.bundles_received,
            s.bundles_duplicate,
            s.security_rejections,
            s.security_alerts,
            s.sessions_initiated,
            s.sessions_accepted,
            s.requests_served,
            s.sync_frames_sent,
        ));
    }
    let mut total = sos_core::middleware::SosStats::default();
    for s in stats {
        total.merge(s);
    }
    out.push_str(&format!(
        "total {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6}\n",
        total.posts,
        total.bundles_sent,
        total.bundles_received,
        total.bundles_duplicate,
        total.security_rejections,
        total.security_alerts,
        total.sessions_initiated,
        total.sessions_accepted,
        total.requests_served,
        total.sync_frames_sent,
    ));
    out
}

/// Renders an `IN-VIVO-REPORT` for a real-socket run: the header line,
/// the per-node counter table, and the delivered set, all derived from
/// deterministically ordered collections so two runs of the same plan
/// diff clean.
pub fn in_vivo_report(outcome: &sos_node::Outcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "IN-VIVO-REPORT nodes={} posts={} rounds={} deliveries={} journal_lines={}\n",
        outcome.stats.len(),
        outcome.posts,
        outcome.rounds,
        outcome.delivered.len(),
        outcome.journal.len(),
    ));
    out.push_str(&stats_table(&outcome.stats));
    out.push_str("delivered:\n");
    for (node, author, number) in &outcome.delivered {
        out.push_str(&format!("    node {node} <- author {author} #{number}\n"));
    }
    out
}

/// Why things were dropped or closed, read off the event journal:
/// bundle-reject causes, session-close reasons, store evictions.
pub fn drop_cause_breakdown(journal: &Journal) -> String {
    let mut out = String::new();
    out.push_str("bundle-reject causes:\n");
    let rejects = journal.reject_causes();
    if rejects.is_empty() {
        out.push_str("    (none)\n");
    }
    for (cause, n) in rejects {
        out.push_str(&format!("    {cause:<18} {n}\n"));
    }
    out.push_str("session-close reasons:\n");
    let closes = journal.close_reasons();
    if closes.is_empty() {
        out.push_str("    (none)\n");
    }
    for (reason, n) in closes {
        out.push_str(&format!("    {reason:<18} {n}\n"));
    }
    out.push_str(&format!(
        "store evictions: {} bundle(s)\n",
        journal.evicted_total()
    ));
    out
}

/// The journal footer line every observed report carries.
fn journal_line(journal: &Journal) -> String {
    format!(
        "journal: {} entrie(s) retained, {} dropped\n",
        journal.len(),
        journal.dropped()
    )
}

/// The journal footer line (entries retained and dropped) followed by
/// the retained entries counted by kind.
pub fn journal_summary(journal: &Journal) -> String {
    let mut out = journal_line(journal);
    for (kind, n) in journal.counts_by_kind() {
        out.push_str(&format!("    {kind:<18} {n}\n"));
    }
    out
}

/// The complete RUN-REPORT for one observed run: aggregate counters,
/// per-node table, drop causes, delay quantiles, journal summary, and
/// — when profiling was on — the self-profile table.
pub fn run_report(
    title: &str,
    metrics: &RunMetrics,
    apps: &[AlleyOopApp],
    observation: &RunObservation,
) -> String {
    let totals = aggregate_stats(apps);
    let all = metrics.delays.cdf_all_hours();
    let journal = &observation.journal;
    let mut out = String::new();
    out.push_str(&format!("=== RUN-REPORT {title} ===\n"));
    out.push_str(&format!(
        "posts {}  frames {} sent / {} lost  alerts {}  rejections {}  deliveries {}\n\n",
        metrics.posts,
        metrics.frames_sent,
        metrics.frames_lost,
        metrics.security_alerts,
        totals.security_rejections,
        metrics.delays.len(),
    ));
    out.push_str("per-node middleware counters:\n");
    out.push_str(&per_node_table(apps));
    let opened = totals.sessions_initiated + totals.sessions_accepted;
    out.push_str(&format!(
        "sessions resumed from a ticket: {} of {opened} opened ({:.1} %), {} ticket miss(es)\n",
        totals.sessions_resumed,
        100.0 * totals.sessions_resumed as f64 / opened.max(1) as f64,
        totals.resume_misses,
    ));
    out.push('\n');
    out.push_str(&drop_cause_breakdown(journal));
    out.push('\n');
    out.push_str(&format!(
        "delay quantiles, h (All):   {}\n",
        delay_quantiles_line(&all)
    ));
    out.push_str(&format!(
        "delay quantiles, h (1-hop): {}\n\n",
        delay_quantiles_line(&metrics.delays.cdf_one_hop_hours())
    ));
    out.push_str(&journal_summary(journal));
    let histograms = &observation.metrics.histograms;
    if !histograms.is_empty() {
        out.push_str("\nregistry histograms:\n");
        for (name, snap) in histograms {
            let fmt = |q: Option<u64>| q.map_or("-".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "    {name:<26} n={:<7} mean={:<9.1} p50<={:<7} p90<={:<7} p99<={:<7} max={}\n",
                snap.count,
                snap.mean().unwrap_or(0.0),
                fmt(snap.p50),
                fmt(snap.p90),
                fmt(snap.p99),
                snap.max,
            ));
        }
    }
    out.push_str("\nself-profile:\n");
    if observation.profile.is_empty() {
        out.push_str("    (profiling disabled)\n");
    } else {
        out.push_str(&observation.profile.table());
    }
    out
}

/// The forensics-relevant traits of a routing scheme (the obs layer
/// cannot see [`SchemeKind`], so the mapping lives here).
pub fn scheme_traits(scheme: SchemeKind) -> SchemeTraits {
    match scheme {
        SchemeKind::Direct => SchemeTraits {
            spray_limited: false,
            direct_only: true,
        },
        SchemeKind::SprayAndWait => SchemeTraits {
            spray_limited: true,
            direct_only: false,
        },
        SchemeKind::Epidemic
        | SchemeKind::InterestBased
        | SchemeKind::InterestPredictive
        | SchemeKind::Custom(_) => SchemeTraits::default(),
    }
}

/// Converts the driver's follower lists (`followers[author_node]` =
/// indices that subscribe to that node's posts) into the
/// origin-node → destination-nodes map
/// [`sos_obs::Provenance::classify`] consumes.
pub fn follower_destinations(followers: &[Vec<usize>]) -> BTreeMap<u32, Vec<u32>> {
    followers
        .iter()
        .enumerate()
        .map(|(origin, subs)| {
            (origin as u32, {
                let mut dests: Vec<u32> = subs.iter().map(|s| *s as u32).collect();
                dests.sort_unstable();
                dests.dedup();
                dests
            })
        })
        .collect()
}

/// Nearest-rank quantile over an ascending-sorted slice (`0` when
/// empty) — integer, so report bytes are platform-stable.
fn quantile_nearest(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn quantile_line(label: &str, values: &mut [u64]) -> String {
    values.sort_unstable();
    format!(
        "    {label:<10} n={:<6} p50={:<8} p90={:<8} p99={:<8} max={}\n",
        values.len(),
        quantile_nearest(values, 0.50),
        quantile_nearest(values, 0.90),
        quantile_nearest(values, 0.99),
        values.last().copied().unwrap_or(0),
    )
}

/// The PATH-REPORT for one observed run: the per-scheme delivery
/// forensics breakdown, hop-count and wait-vs-transfer path-latency
/// waterfall quantiles, and the top-`top_k` slowest delivered paths.
///
/// Everything rendered here is derived from the canonical global
/// timeline, so the report is byte-identical across record→replay and
/// across contact-engine shard counts.
pub fn path_report(
    title: &str,
    observation: &RunObservation,
    followers: &[Vec<usize>],
    scheme: SchemeKind,
    top_k: usize,
) -> String {
    let provenance = observation.provenance();
    let destinations = follower_destinations(followers);
    let forensics = provenance.classify(&destinations, scheme_traits(scheme));

    let mut out = String::new();
    out.push_str(&format!(
        "=== PATH-REPORT {title} (scheme={scheme:?}) ===\n"
    ));
    out.push_str(&journal_line(&observation.journal));
    out.push_str(&format!(
        "bundles authored {}  delivered {}  undelivered {}\n",
        forensics.authored(),
        forensics.delivered(),
        forensics.undelivered()
    ));
    out.push_str(&format!(
        "delivery obligations reached: {} / {}\n\n",
        forensics.reached, forensics.targets
    ));

    out.push_str("why messages died:\n");
    let causes = forensics.cause_counts();
    if causes.is_empty() {
        out.push_str("    (every bundle reached every destination)\n");
    }
    for (cause, n) in &causes {
        out.push_str(&format!("    {:<20} {n}\n", cause.label()));
    }
    out.push('\n');

    // Per-(bundle, destination) delivered-path samples, walked in key
    // order so the report bytes are deterministic.
    let mut hops: Vec<u64> = Vec::new();
    let mut totals: Vec<u64> = Vec::new();
    let mut waits: Vec<u64> = Vec::new();
    let mut transfers: Vec<u64> = Vec::new();
    let mut slowest: Vec<(u64, String)> = Vec::new();
    for (key, path) in &provenance.paths {
        let Some(origin) = path.origin else { continue };
        let Some(dests) = destinations.get(&origin) else {
            continue;
        };
        for &dest in dests {
            if dest == origin {
                continue;
            }
            let Some(latency) = path.latency_ms_to(dest) else {
                continue;
            };
            let Some(chain) = path.path_to(dest) else {
                continue;
            };
            let (mut wait, mut transfer) = (0u64, 0u64);
            for node in chain.iter().skip(1) {
                if let Some(arrival) = path.arrivals.get(node) {
                    wait += arrival.wait_ms;
                    transfer += arrival.transfer_ms;
                }
            }
            hops.push((chain.len() - 1) as u64);
            totals.push(latency);
            waits.push(wait);
            transfers.push(transfer);
            let rendered = chain
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(" -> ");
            slowest.push((
                latency,
                format!(
                    "{key} to node {dest}: {latency} ms ({} hop(s), wait {wait} / transfer {transfer}): {rendered}"
                , chain.len() - 1),
            ));
        }
    }
    out.push_str("delivered-path quantiles:\n");
    out.push_str(&quantile_line("hops", &mut hops));
    out.push_str("path-latency waterfall, ms:\n");
    out.push_str(&quantile_line("total", &mut totals));
    out.push_str(&quantile_line("wait", &mut waits));
    out.push_str(&quantile_line("transfer", &mut transfers));
    out.push('\n');

    out.push_str(&format!("top-{top_k} slowest delivered paths:\n"));
    // Ties broken by the rendered line (which embeds the bundle key),
    // keeping the selection deterministic.
    slowest.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    if slowest.is_empty() {
        out.push_str("    (no delivered paths)\n");
    }
    for (rank, (_, line)) in slowest.iter().take(top_k).enumerate() {
        out.push_str(&format!("    {}. {line}\n", rank + 1));
    }
    out
}

/// One-line key metrics, used for calibration sweeps:
/// `transfers 1hop d24 d94 ratio subs>0.8 subs>0.7`.
pub fn key_line(outcome: &StudyRun) -> String {
    let all = outcome.metrics.delays.cdf_all_hours();
    let d = &outcome.metrics.delivery;
    let mut hops = [0usize; 3];
    for r in outcome.metrics.delays.records() {
        hops[(r.hops.min(3) as usize) - 1] += 1;
    }
    let (p50, p90, p99) = if all.is_empty() {
        ("-".to_string(), "-".to_string(), "-".to_string())
    } else {
        (
            format!("{:.2}", all.quantile(0.50)),
            format!("{:.2}", all.quantile(0.90)),
            format!("{:.2}", all.quantile(0.99)),
        )
    };
    format!(
        "seed={} transfers={} one_hop={:.3} d24={:.3} d94={:.3} p50={p50} p90={p90} p99={p99} ratio={:.3} gt08={:.3} gt07={:.3} hops(1/2/3+)={}/{}/{}",
        outcome.seed,
        outcome.transfers(),
        outcome.one_hop_fraction(),
        all.fraction_le(24.0),
        all.fraction_le(94.0),
        d.overall_ratio(),
        d.fraction_above(0.80),
        d.fraction_above(0.70),
        hops[0],
        hops[1],
        hops[2],
    )
}

/// The full report: every figure plus the run parameters.
pub fn full_report(outcome: &StudyRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== SOS field-study reproduction (scheme={}, seed={}) ===\n\n",
        outcome.scheme, outcome.seed
    ));
    out.push_str(&fig4a());
    out.push('\n');
    out.push_str(&fig4b(outcome, 66, 24));
    out.push('\n');
    out.push_str(&fig4c(outcome));
    out.push('\n');
    out.push_str(&fig4d(outcome));
    out.push('\n');
    out.push_str(&text_metrics(outcome));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_study;
    use crate::observe::RunObserver;
    use crate::scenario::{
        field_study, field_study_followers, field_study_world, run_field_study, small_test_config,
    };
    use sos_core::routing::SchemeKind;

    #[test]
    fn path_report_renders_and_forensics_account_for_every_post() {
        let cfg = small_test_config(3, SchemeKind::Epidemic);
        let observer = RunObserver::new();
        let outcome = run_study(field_study(&cfg, field_study_world(&cfg)), Some(&observer));
        let observation = observer.finish();
        let followers = field_study_followers();
        let report = path_report("field-study", &observation, &followers, cfg.scheme, 5);
        assert!(report.contains("PATH-REPORT"));
        assert!(report.contains("why messages died"));
        assert!(report.contains("path-latency waterfall"));
        assert!(report.contains("slowest delivered paths"));

        let provenance = observation.provenance();
        let forensics = provenance.classify(
            &follower_destinations(&followers),
            scheme_traits(cfg.scheme),
        );
        assert_eq!(forensics.authored() as u64, outcome.totals.posts);
        assert_eq!(provenance.violations, []);
        assert_eq!(forensics.truncated, 0);
    }

    #[test]
    fn table_aligns_labels_left_and_numbers_right() {
        let rows = [
            vec!["epidemic".to_string(), "12".into(), "-".into()],
            vec!["interest-based".to_string(), "7".into(), "1.50".into()],
        ];
        assert_eq!(
            table("scheme n delay-h", &rows),
            "scheme           n  delay-h\n\
             epidemic        12        -\n\
             interest-based   7     1.50\n"
        );
    }

    #[test]
    fn summary_table_prints_whole_counts_bare_and_means_to_one_decimal() {
        let summary = |deliveries: f64| RunSummary {
            deliveries,
            transfers: 2.0 * deliveries,
            one_hop_fraction: 0.5,
            median_delay_hours: None,
            delivery_ratio: 0.25,
        };
        let row = |label: &str, deliveries: f64| (vec![label.to_string()], summary(deliveries));
        assert_eq!(
            summary_table("scheme", &[row("direct", 3.0)]),
            "scheme  deliveries  transfers  overhead  1-hop  ratio  median-delay-h\n\
             direct           3          6      2.00  0.500  0.250               -\n"
        );
        let means = summary_table("scheme", &[row("direct", 3.0), row("epidemic", 4.5)]);
        assert!(
            means.contains("\ndirect           3.0        6.0  "),
            "{means}"
        );
    }

    #[test]
    fn scheme_traits_match_scheme_semantics() {
        assert!(scheme_traits(SchemeKind::Direct).direct_only);
        assert!(scheme_traits(SchemeKind::SprayAndWait).spray_limited);
        let plain = scheme_traits(SchemeKind::Epidemic);
        assert!(!plain.direct_only && !plain.spray_limited);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let vals = [10u64, 20, 30, 40, 50];
        assert_eq!(quantile_nearest(&vals, 0.50), 30);
        assert_eq!(quantile_nearest(&vals, 0.90), 50);
        assert_eq!(quantile_nearest(&[], 0.50), 0);
    }

    #[test]
    fn reports_render_without_panicking() {
        let outcome = run_field_study(&small_test_config(2, SchemeKind::InterestBased));
        let report = full_report(&outcome);
        assert!(report.contains("Fig. 4a"));
        assert!(report.contains("Fig. 4b"));
        assert!(report.contains("Fig. 4c"));
        assert!(report.contains("Fig. 4d"));
        assert!(report.contains("unique messages"));
    }

    #[test]
    fn delay_quantile_summaries_render() {
        let outcome = run_field_study(&small_test_config(2, SchemeKind::InterestBased));
        let text = text_metrics(&outcome);
        assert!(text.contains("delay quantiles, h (All)"));
        assert!(text.contains("delay quantiles, h (1-hop)"));
        let key = key_line(&outcome);
        assert!(key.contains("p50=") && key.contains("p90=") && key.contains("p99="));
        // An empty CDF renders dashes instead of panicking.
        assert!(delay_quantiles_line(&Cdf::from_samples(vec![])).contains("p50 -"));
        // Quantiles are ordered on a real CDF.
        let all = outcome.metrics.delays.cdf_all_hours();
        if !all.is_empty() {
            assert!(all.quantile(0.50) <= all.quantile(0.90));
            assert!(all.quantile(0.90) <= all.quantile(0.99));
        }
    }

    #[test]
    fn fig4b_grid_dimensions() {
        let outcome = run_field_study(&small_test_config(2, SchemeKind::InterestBased));
        let map = fig4b(&outcome, 40, 10);
        let grid_rows = map.lines().filter(|l| l.starts_with('|')).count();
        assert_eq!(grid_rows, 10);
    }
}
