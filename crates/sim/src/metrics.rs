//! Measurement recorders matching the paper's evaluation outputs:
//! delivery-delay CDFs split by hop count (Fig. 4c) and per-subscription
//! delivery ratios (Fig. 4d).

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// An empirical cumulative distribution over `f64` samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn from_samples(mut samples: Vec<f64>) -> Cdf {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples `> x`.
    pub fn fraction_gt(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        1.0 - self.fraction_le(x)
    }

    /// The value at quantile `q` in `[0, 1]` (nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty cdf");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Evaluates the CDF at each of `xs`, returning `(x, F(x))` pairs —
    /// the series plotted in the paper's figures.
    pub fn series(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, self.fraction_le(x))).collect()
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }
}

/// One recorded delivery: a message reached an interested subscriber.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeliveryRecord {
    /// When the originator created the message.
    pub created: SimTime,
    /// When this subscriber received it.
    pub delivered: SimTime,
    /// Number of D2D hops the delivered copy travelled (1 = direct from
    /// the originator).
    pub hops: u32,
}

impl DeliveryRecord {
    /// Delivery delay.
    pub fn delay(&self) -> SimDuration {
        self.delivered - self.created
    }
}

/// Records delays for Fig. 4c: CDFs of delivery delay for "1-hop" copies
/// and for "All" copies.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DelayRecorder {
    records: Vec<DeliveryRecord>,
}

impl DelayRecorder {
    /// Creates an empty recorder.
    pub fn new() -> DelayRecorder {
        DelayRecorder::default()
    }

    /// Records one delivery.
    pub fn record(&mut self, created: SimTime, delivered: SimTime, hops: u32) {
        self.records.push(DeliveryRecord {
            created,
            delivered,
            hops,
        });
    }

    /// All records.
    pub fn records(&self) -> &[DeliveryRecord] {
        &self.records
    }

    /// Number of recorded deliveries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Delay CDF in hours over all deliveries ("All" in Fig. 4c).
    pub fn cdf_all_hours(&self) -> Cdf {
        Cdf::from_samples(
            self.records
                .iter()
                .map(|r| r.delay().as_hours_f64())
                .collect(),
        )
    }

    /// Delay CDF in hours over 1-hop deliveries only.
    pub fn cdf_one_hop_hours(&self) -> Cdf {
        Cdf::from_samples(
            self.records
                .iter()
                .filter(|r| r.hops <= 1)
                .map(|r| r.delay().as_hours_f64())
                .collect(),
        )
    }

    /// Fraction of deliveries that arrived in exactly one hop
    /// (0.826 in the field study).
    pub fn fraction_one_hop(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let one = self.records.iter().filter(|r| r.hops <= 1).count();
        one as f64 / self.records.len() as f64
    }
}

/// Records per-subscription delivery ratios for Fig. 4d.
///
/// A subscription is a directed follow edge; its delivery ratio is the
/// fraction of the followee's messages that reached the follower.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeliveryRecorder {
    /// (follower, followee) → (delivered, expected)
    counts: BTreeMap<(usize, usize), (u64, u64)>,
}

impl DeliveryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> DeliveryRecorder {
        DeliveryRecorder::default()
    }

    /// Registers that `followee` published a message `follower` wants.
    pub fn expect_delivery(&mut self, follower: usize, followee: usize) {
        self.counts.entry((follower, followee)).or_insert((0, 0)).1 += 1;
    }

    /// Registers that one such message was delivered.
    pub fn delivered(&mut self, follower: usize, followee: usize) {
        self.counts.entry((follower, followee)).or_insert((0, 0)).0 += 1;
    }

    /// Per-subscription delivery ratios in `(follower, followee)` order
    /// (subscriptions with zero expected messages are skipped).
    pub fn ratios(&self) -> Vec<f64> {
        (self.counts.values())
            .filter(|&&(_, e)| e != 0)
            .map(|&(d, e)| d as f64 / e as f64)
            .collect()
    }

    /// CDF over subscription delivery ratios (the Fig. 4d curve).
    pub fn ratio_cdf(&self) -> Cdf {
        Cdf::from_samples(self.ratios())
    }

    /// Fraction of subscriptions whose ratio exceeds `threshold`
    /// (the paper reports 0.30 of subscriptions > 0.80, etc.).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        let ratios = self.ratios();
        if ratios.is_empty() {
            return 0.0;
        }
        ratios.iter().filter(|r| **r > threshold).count() as f64 / ratios.len() as f64
    }

    /// Number of subscriptions with at least one expected message.
    pub fn subscription_count(&self) -> usize {
        self.ratios().len()
    }

    /// Total delivered / total expected over all subscriptions.
    pub fn overall_ratio(&self) -> f64 {
        let (d, e) = self
            .counts
            .values()
            .fold((0u64, 0u64), |acc, v| (acc.0 + v.0, acc.1 + v.1));
        if e == 0 {
            0.0
        } else {
            d as f64 / e as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_le(0.5), 0.0);
        assert_eq!(cdf.fraction_le(2.0), 0.5);
        assert_eq!(cdf.fraction_le(10.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(4.0));
        assert_eq!(cdf.mean(), Some(2.5));
    }

    #[test]
    fn cdf_is_monotone() {
        let cdf = Cdf::from_samples(vec![5.0, 1.0, 3.0, 3.0, 2.0]);
        let series = cdf.series(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        for w in series.windows(2) {
            assert!(w[0].1 <= w[1].1, "CDF must be monotone: {series:?}");
        }
    }

    #[test]
    fn cdf_empty() {
        let cdf = Cdf::from_samples(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_le(1.0), 0.0);
        assert_eq!(cdf.mean(), None);
    }

    #[test]
    fn cdf_drops_nans() {
        let cdf = Cdf::from_samples(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn delay_recorder_splits_hops() {
        let mut rec = DelayRecorder::new();
        rec.record(SimTime::ZERO, SimTime::from_hours(1), 1);
        rec.record(SimTime::ZERO, SimTime::from_hours(2), 1);
        rec.record(SimTime::ZERO, SimTime::from_hours(10), 3);
        assert_eq!(rec.cdf_all_hours().len(), 3);
        assert_eq!(rec.cdf_one_hop_hours().len(), 2);
        assert!((rec.fraction_one_hop() - 2.0 / 3.0).abs() < 1e-12);
        assert!((rec.cdf_all_hours().fraction_le(2.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn delivery_recorder_ratios() {
        let mut rec = DeliveryRecorder::new();
        // Subscription (1 follows 2): 4 expected, 3 delivered.
        for _ in 0..4 {
            rec.expect_delivery(1, 2);
        }
        for _ in 0..3 {
            rec.delivered(1, 2);
        }
        // Subscription (3 follows 2): 2 expected, 2 delivered.
        rec.expect_delivery(3, 2);
        rec.expect_delivery(3, 2);
        rec.delivered(3, 2);
        rec.delivered(3, 2);
        let ratios = rec.ratios();
        assert_eq!(ratios, vec![0.75, 1.0]);
        assert_eq!(rec.subscription_count(), 2);
        assert!((rec.fraction_above(0.8) - 0.5).abs() < 1e-12);
        assert!((rec.overall_ratio() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn delivery_recorder_empty_subscription_skipped() {
        let mut rec = DeliveryRecorder::new();
        rec.delivered(0, 1); // delivered without expectation (late expect)
        assert!(rec.ratios().is_empty() || !rec.ratios()[0].is_infinite());
    }
}
