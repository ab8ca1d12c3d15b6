//! The metrics registry: named monotonic counters and log-bucketed
//! histograms.
//!
//! Handles ([`Counter`], [`Histogram`]) are `Arc`-shared
//! atomic cells: incrementing is a single relaxed atomic op, no lock is
//! taken on any hot path, and handles stay valid (and cheap) whether or
//! not they are registered. The [`Registry`] itself is only consulted
//! for registration and for [`Registry::snapshot`] — both cold paths.
//!
//! All cells use relaxed ordering: metrics are written from the
//! (single-threaded) event loops and read after a run completes, so no
//! cross-thread ordering is required, only atomicity.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// A monotonic counter: a shared `u64` cell incremented without locks.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a detached counter (not registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`, and bucket 64 tops out at
/// `u64::MAX`.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram of `u64` samples with quantile extraction.
///
/// Recording is lock-free (three relaxed atomic adds and an atomic
/// max). Quantiles are resolved to the **upper bound of the bucket**
/// holding the nearest-rank sample, so any reported quantile is within
/// one power-of-two bucket of the exact order statistic — the property
/// the oracle tests in `tests/histogram_props.rs` pin down.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Creates a detached histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The largest value bucket `i` holds.
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=63 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let cells = &*self.0;
        cells.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
        cells.count.fetch_add(1, Relaxed);
        // Wrapping on overflow; the sum only feeds the (informational)
        // mean in the snapshot table.
        cells.sum.fetch_add(v, Relaxed);
        cells.max.fetch_max(v, Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// Folds another histogram's buckets into this one (bucket-wise
    /// addition; `max` takes the larger). Merging is associative and
    /// commutative up to the merged snapshot.
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..BUCKETS {
            let n = other.0.buckets[i].load(Relaxed);
            if n > 0 {
                self.0.buckets[i].fetch_add(n, Relaxed);
            }
        }
        self.0.count.fetch_add(other.0.count.load(Relaxed), Relaxed);
        self.0.sum.fetch_add(other.0.sum.load(Relaxed), Relaxed);
        self.0.max.fetch_max(other.0.max.load(Relaxed), Relaxed);
    }

    /// The value at quantile `q ∈ [0, 1]` (nearest-rank, resolved to
    /// the containing bucket's upper bound); `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.0.buckets[i].load(Relaxed);
            if seen >= rank {
                return Some(Self::bucket_upper(i));
            }
        }
        Some(u64::MAX) // unreachable unless counts raced; stay total
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let buckets = (0..BUCKETS)
            .filter_map(|i| {
                let n = self.0.buckets[i].load(Relaxed);
                (n > 0).then_some((Self::bucket_upper(i), n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.0.sum.load(Relaxed),
            max: self.0.max.load(Relaxed),
            buckets,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Non-empty buckets as `(bucket upper bound, sample count)`.
    pub buckets: Vec<(u64, u64)>,
    /// Median (bucket-resolved), `None` when empty.
    pub p50: Option<u64>,
    /// 90th percentile (bucket-resolved).
    pub p90: Option<u64>,
    /// 99th percentile (bucket-resolved).
    pub p99: Option<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A name → metric map. Cloning shares the underlying map, so one
/// registry can be handed to every node of a run and snapshotted once
/// at the end.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().expect("registry lock");
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Returns the counter registered under `name`, creating it if
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it if
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Adopts an existing counter cell under `name` (the registry and
    /// the owner share the same cell afterwards) — how pre-existing
    /// stat structs become registry-backed views without moving their
    /// cells.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        let mut map = self.metrics.lock().expect("registry lock");
        map.insert(name.to_string(), Metric::Counter(counter.clone()));
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().expect("registry lock");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as an aligned text table (counters one per
    /// line, histograms as count/mean/p50/p90/p99/max).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<44} {v:>12}");
        }
        for (name, h) in &self.histograms {
            let mean = h.mean().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {name:<44} n={} mean={mean:.1} p50={} p90={} p99={} max={}",
                h.count,
                h.p50.unwrap_or(0),
                h.p90.unwrap_or(0),
                h.p99.unwrap_or(0),
                h.max,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("a/hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same cell.
        assert_eq!(reg.counter("a/hits").get(), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a/hits"], 5);
        assert!(snap.table().contains("a/hits"));
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.histogram("x");
    }

    #[test]
    fn adopted_cell_is_shared() {
        let reg = Registry::new();
        let mine = Counter::new();
        mine.add(3);
        reg.register_counter("node0/posts", &mine);
        mine.inc();
        assert_eq!(reg.snapshot().counters["node0/posts"], 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);

        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        // Rank 3 of 5 at q=0.5 is the sample 3 → bucket upper 3.
        assert_eq!(h.quantile(0.5), Some(3));
        // q=1.0 lands in 1000's bucket [512, 1023].
        assert_eq!(h.quantile(1.0), Some(1023));
        let snap = h.snapshot();
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.mean(), Some(1106.0 / 5.0));
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(500);
        b.record(0);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.max, 500);
        assert_eq!(snap.buckets.len(), 3);
    }
}
