//! Span-style self-profiling: scoped timers around named pipeline
//! stages, aggregated into a calls/total/mean/max table.
//!
//! Profiling is **globally gated** by [`set_enabled`]: when disabled
//! (the default), [`span`] returns an inert guard whose construction
//! and drop cost one relaxed atomic load — cheap enough to leave in
//! the hot paths permanently. When enabled, each span records its
//! wall-clock duration into a thread-local table drained by [`take`].
//!
//! Durations are wall-clock and therefore *not* deterministic; call
//! **counts** are. Profiles feed the human-readable RUN-REPORT table
//! only and are never part of byte-identity comparisons.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static STAGES: RefCell<BTreeMap<&'static str, StageStats>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Turns profiling on or off for every thread (spans started while
/// disabled record nothing).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether profiling is currently enabled.
fn is_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Starts a span for `stage`. The returned guard records the elapsed
/// wall-clock time into the current thread's profile when dropped —
/// or nothing at all if profiling is disabled.
#[inline]
// The span profiler is one of the two sanctioned wall-clock readers
// (see clippy.toml `disallowed-methods`): it measures real elapsed
// time and never feeds simulation behavior.
#[allow(clippy::disallowed_methods)]
pub fn span(stage: &'static str) -> Span {
    Span {
        stage,
        start: is_enabled().then(Instant::now),
    }
}

/// Drains and returns the current thread's accumulated profile.
pub fn take() -> Profile {
    STAGES.with(|s| Profile {
        stages: std::mem::take(&mut *s.borrow_mut()),
    })
}

/// An active span guard; see [`span`].
#[must_use = "a span records on drop; binding it to _ discards the measurement"]
#[derive(Debug)]
pub struct Span {
    stage: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            STAGES.with(|s| {
                s.borrow_mut()
                    .entry(self.stage)
                    .or_default()
                    .record(elapsed);
            });
        }
    }
}

/// Aggregated timings for one named stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage ran.
    pub calls: u64,
    /// Total time spent in the stage.
    pub total: Duration,
    /// Longest single call.
    pub max: Duration,
}

impl StageStats {
    /// Folds one call's duration in.
    pub fn record(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.total += elapsed;
        self.max = self.max.max(elapsed);
    }

    /// Mean time per call (zero when never called).
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / self.calls as u32
        }
    }

    /// Folds another stage's stats in.
    pub fn merge(&mut self, other: &StageStats) {
        self.calls += other.calls;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

/// An aggregated self-profile: per-stage [`StageStats`] keyed by stage
/// name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Stats per stage, ordered by stage name.
    pub stages: BTreeMap<&'static str, StageStats>,
}

impl Profile {
    /// `true` when no stage recorded anything.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Folds another profile in (stage-wise merge).
    pub fn merge(&mut self, other: &Profile) {
        for (stage, stats) in &other.stages {
            self.stages.entry(stage).or_default().merge(stats);
        }
    }

    /// Renders the profile as an aligned text table
    /// (stage / calls / total / mean / max).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>12} {:>12} {:>12}",
            "stage", "calls", "total", "mean", "max"
        );
        for (stage, s) in &self.stages {
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>12} {:>12} {:>12}",
                stage,
                s.calls,
                fmt_duration(s.total),
                fmt_duration(s.mean()),
                fmt_duration(s.max),
            );
        }
        out
    }
}

fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The enable flag is process-wide and `cargo test` runs tests on
    /// parallel threads: every test that depends on its value holds this
    /// lock for as long as it does. (Recovered when poisoned, so one
    /// failing test does not fail the others.)
    fn flag_lock() -> MutexGuard<'static, ()> {
        static FLAG: Mutex<()> = Mutex::new(());
        FLAG.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _flag = flag_lock();
        set_enabled(false);
        let _ = take(); // drain anything a prior test left behind
        {
            let _s = span("test/noop");
        }
        assert!(take().is_empty());
    }

    #[test]
    fn enabled_spans_aggregate() {
        let _flag = flag_lock();
        set_enabled(true);
        let _ = take();
        for _ in 0..3 {
            let _s = span("test/stage");
        }
        set_enabled(false);
        let p = take();
        let s = p.stages["test/stage"];
        assert_eq!(s.calls, 3);
        assert!(s.max >= s.mean());
        assert!(p.table().contains("test/stage"));
    }

    #[test]
    fn merge_sums_calls() {
        let mut a = Profile::default();
        a.stages.insert(
            "x",
            StageStats {
                calls: 2,
                total: Duration::from_micros(10),
                max: Duration::from_micros(6),
            },
        );
        let mut b = Profile::default();
        b.stages.insert(
            "x",
            StageStats {
                calls: 1,
                total: Duration::from_micros(20),
                max: Duration::from_micros(20),
            },
        );
        a.merge(&b);
        let s = a.stages["x"];
        assert_eq!(s.calls, 3);
        assert_eq!(s.total, Duration::from_micros(30));
        assert_eq!(s.max, Duration::from_micros(20));
        assert_eq!(s.mean(), Duration::from_micros(10));
    }
}
