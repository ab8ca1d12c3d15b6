//! `metropolis_day`: one simulated day of a 10 000-node city through
//! `run_metropolis` on one shard and one thread: sim mobility, the
//! engine's contact kernel and the reduced scheme evaluators, with zero
//! crypto/core/net. Every middleware optimisation must read "no change"
//! here; every engine or `metropolis.rs` refactor is judged here.

use super::{Counts, Layers, Rep, Traced, Workload};
use crate::spans::Spans;
use crate::stats::{self, Fingerprint};
use crate::sut;

const NODES: usize = 10_000;

pub struct MetropolisDay {
    seed: u64,
    /// The city `run_metropolis` will generate again for itself; kept
    /// for the kernel-only pass and the movement probe.
    city: sut::City,
    city_gen_ms: f64,
}

fn counts_of(run: &sut::Metro) -> Counts {
    let mut counts = Counts {
        contacts: run.events,
        ..Counts::default()
    };
    let mut fp = Fingerprint::default();
    fp.u64(run.contacts).u64(run.posts);
    let (mut delivered, mut targets) = (0u64, 0u64);
    let mut p50_hours = Vec::new();
    for &(d, t, transfers, p50) in &run.schemes {
        delivered += d;
        targets += t;
        fp.u64(d).u64(t).u64(transfers);
        p50_hours.extend(p50);
    }
    counts.delivery_ratio = delivered as f64 / targets.max(1) as f64;
    // The evaluators keep no pooled delay records: the mean of the
    // schemes' own medians stands in for the pooled median.
    if !p50_hours.is_empty() {
        counts.delay_p50_s = p50_hours.iter().sum::<f64>() / p50_hours.len() as f64 * 3600.0;
    }
    counts.check(run.events > 0 && targets > 0, || {
        format!("{} transitions, {targets} delivery targets", run.events)
    });
    counts.attempted += targets;
    counts.seal(fp);
    counts
}

impl Workload for MetropolisDay {
    const NAME: &'static str = "metropolis_day";

    fn setup(seed: u64) -> MetropolisDay {
        let (city, gen) = stats::timed(|| sut::city(NODES, seed));
        MetropolisDay {
            seed,
            city,
            city_gen_ms: gen.as_secs_f64() * 1e3,
        }
    }

    fn fingerprint_inputs(&self, fp: &mut Fingerprint) {
        fp.u64(sut::city_waypoints(&self.city))
            .u64(sut::positions(&self.city, 12).to_bits());
    }

    fn rep(&mut self, _observed: bool, spans: &mut Spans) -> Rep {
        let root = spans.enter("ledger.rep", 0);
        let (run, wall) = stats::timed(|| {
            spans.call("experiments.run_metropolis", 0, || {
                sut::metropolis(NODES, self.seed, 1, 1)
            })
        });
        spans.exit(root);
        Rep {
            wall,
            counts: counts_of(&run),
            latencies_ns: Vec::new(),
        }
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers, checks: &mut Counts) {
        let epoch: f64 = [
            "engine/epoch_partition",
            "engine/epoch_step",
            "engine/epoch_merge",
            "engine/epoch_handoff",
        ]
        .iter()
        .map(|s| traced.profile.get(s).map_or(0.0, |p| p.1))
        .sum();
        for (metric, span) in [
            ("engine.partition_share", "engine/epoch_partition"),
            ("engine.step_share", "engine/epoch_step"),
            ("engine.merge_share", "engine/epoch_merge"),
            ("engine.handoff_share", "engine/epoch_handoff"),
        ] {
            let secs = traced.profile.get(span).map_or(0.0, |p| p.1);
            out.insert(metric, if epoch > 0.0 { secs / epoch } else { 0.0 });
        }

        let (events, kernel) =
            stats::timed(|| sut::kernel_only(self.city.clone(), NODES, self.seed));
        let kernel_s = kernel.as_secs_f64();
        out.insert("engine.kernel_contacts_per_s", events as f64 / kernel_s);
        out.insert(
            "experiments.metro_scheme_share",
            (traced.blind_wall_s - kernel_s - self.city_gen_ms / 1e3) / traced.blind_wall_s,
        );

        // Two strips on as many threads as the box has, up to two: the
        // outcome must not depend on the shard count.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let (k2, k2_wall) = stats::timed(|| sut::metropolis(NODES, self.seed, 2, threads));
        out.insert(
            "engine.k2_over_k1",
            k2_wall.as_secs_f64() / traced.blind_wall_s,
        );
        checks.check(counts_of(&k2).digest == traced.reference.digest, || {
            "two shards gave another outcome than one".into()
        });

        out.insert("sim.city_gen_ms", self.city_gen_ms);
        let step = stats::mean_ns(3, std::time::Duration::from_millis(30), || {
            sut::positions(&self.city, 12)
        });
        out.insert("sim.position_ns_per_node", step / NODES as f64);
    }
}
