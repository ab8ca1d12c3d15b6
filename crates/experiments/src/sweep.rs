//! Parallel routing-scheme sweeps on the contact kernel — the
//! comparison the paper's companion platform calls for (§III-B
//! motivates the modular routing manager precisely so such comparisons
//! are easy).
//!
//! Every `(scheme, seed)` replica is an independent field-study run
//! whose contact detection is `sos-engine`'s grid-indexed event-driven
//! kernel as a single loop ([`ShardConfig::SINGLE`]: the sweep's
//! parallelism is across replicas, not inside one), and replicas
//! execute across threads via [`sos_engine::run_replicas`]. Per-scheme
//! cells aggregate means over seeds, giving Fig. 4-style comparisons
//! (epidemic vs. interest-based vs. spray-and-wait vs. direct) with
//! seed noise averaged out; with one seed a sweep is the routing-scheme
//! ablation `repro ablation` prints. The cells render through
//! [`report::sweep_table`](crate::report::sweep_table).

use crate::driver::RunSummary;
use crate::scenario::{field_study_trajectories, run_field_study_with, FieldStudyConfig};
use sos_core::routing::SchemeKind;
use sos_engine::{run_replicas, ShardConfig, ShardedContactEngine};
use sos_sim::radio::RadioTech;

/// One `(scheme, seed)` replica (plain data so it can cross the
/// worker-thread boundary cheaply).
#[derive(Clone, Copy, Debug)]
pub struct ReplicaOutcome {
    /// The routing scheme.
    pub scheme: SchemeKind,
    /// The seed.
    pub seed: u64,
    /// What the replica delivered.
    pub summary: RunSummary,
}

/// Per-scheme aggregate over all seeds.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The routing scheme.
    pub scheme: SchemeKind,
    /// One outcome per seed, in seed order.
    pub replicas: Vec<ReplicaOutcome>,
}

impl SweepCell {
    /// The mean of the replicas' summaries, number by number (the
    /// median delay over the seeds that delivered anything), so its
    /// [`overhead`](RunSummary::overhead) is mean transfers per mean
    /// delivery.
    pub fn mean(&self) -> RunSummary {
        let mean = |of: fn(&RunSummary) -> Option<f64>| {
            let values: Vec<f64> = self
                .replicas
                .iter()
                .filter_map(|r| of(&r.summary))
                .collect();
            (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
        };
        RunSummary {
            deliveries: mean(|s| Some(s.deliveries)).unwrap_or(0.0),
            transfers: mean(|s| Some(s.transfers)).unwrap_or(0.0),
            one_hop_fraction: mean(|s| Some(s.one_hop_fraction)).unwrap_or(0.0),
            median_delay_hours: mean(|s| s.median_delay_hours),
            delivery_ratio: mean(|s| Some(s.delivery_ratio)).unwrap_or(0.0),
        }
    }
}

/// The single-loop kernel over `config`'s field-study mobility: the
/// timeline of `field_study_world(config)`, found without the O(n²)
/// scan.
fn single_loop(config: &FieldStudyConfig) -> ShardedContactEngine {
    ShardedContactEngine::from_trajectories(
        &field_study_trajectories(config),
        RadioTech::max_range_m(config.infra_available),
        config.contact_tick,
        ShardConfig::SINGLE,
    )
}

/// Runs one `(scheme, seed)` replica on the single-loop kernel.
pub fn run_replica(base: &FieldStudyConfig, scheme: SchemeKind, seed: u64) -> ReplicaOutcome {
    let cfg = FieldStudyConfig {
        scheme,
        seed,
        ..base.clone()
    };
    ReplicaOutcome {
        scheme,
        seed,
        summary: run_field_study_with(&cfg, single_loop(&cfg), None).summary(),
    }
}

/// Runs `schemes × seeds` replicas across `threads` workers (0 = one
/// per core) and aggregates per scheme.
pub fn scheme_sweep(
    base: &FieldStudyConfig,
    schemes: &[SchemeKind],
    seeds: &[u64],
    threads: usize,
) -> Vec<SweepCell> {
    let jobs: Vec<(SchemeKind, u64)> = schemes
        .iter()
        .flat_map(|&scheme| seeds.iter().map(move |&seed| (scheme, seed)))
        .collect();
    let outcomes = run_replicas(jobs, threads, |_, (scheme, seed)| {
        run_replica(base, scheme, seed)
    });
    schemes
        .iter()
        .map(|&scheme| SweepCell {
            scheme,
            replicas: outcomes
                .iter()
                .filter(|r| r.scheme == scheme)
                .copied()
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_field_study, small_test_config};

    #[test]
    fn sweep_runs_end_to_end_on_grid_engine() {
        let base = small_test_config(11, SchemeKind::InterestBased);
        let cells = scheme_sweep(
            &base,
            &[
                SchemeKind::InterestBased,
                SchemeKind::Epidemic,
                SchemeKind::Direct,
            ],
            &[11, 12],
            2,
        );
        assert_eq!(cells.len(), 3);
        for cell in &cells {
            assert_eq!(cell.replicas.len(), 2);
            assert!(
                cell.mean().transfers > 0.0,
                "{:?} made no transfers",
                cell.scheme
            );
        }
        // Epidemic floods; it can never transfer less than IB, nor than
        // Direct, on identical encounters.
        assert!(cells[1].mean().transfers >= cells[0].mean().transfers);
        assert!(cells[1].mean().transfers >= cells[2].mean().transfers);
        let table = crate::report::sweep_table(&cells);
        assert!(table.contains("\nepidemic "), "{table}");
    }

    #[test]
    fn grid_engine_replica_matches_naive_world_run() {
        // End-to-end equivalence: the full middleware stack over the
        // grid engine produces byte-identical metrics to the naive
        // World scan, because the contact streams are identical.
        let cfg = small_test_config(5, SchemeKind::InterestBased);
        let naive = run_field_study(&cfg);
        let grid = run_field_study_with(&cfg, single_loop(&cfg), None);
        assert_eq!(naive.metrics, grid.metrics);
        assert_eq!(naive.totals, grid.totals);
    }
}
