//! The shared measurement recorder + `BENCH_*.json` emitter every bench
//! target uses (previously each bench hand-rolled an identical copy).
//!
//! Conventions, kept exactly as the original per-bench emitters had
//! them:
//!
//! * `SOS_BENCH_SMOKE=1` shrinks the sampling window from 300 ms to
//!   20 ms and skips the JSON write — the tracked files record the perf
//!   trajectory across PRs from full-window runs only;
//! * at least 5 timed iterations always run, even when one call
//!   overruns the window, so gates asserted on means stay stable on
//!   shared runners;
//! * the JSON lands at the workspace root as
//!   `BENCH_<suite>.json` with the `{"smoke":…,"unit":…,"measurements":…}`
//!   shape.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// True when `SOS_BENCH_SMOKE` is set (CI smoke runs).
pub fn smoke() -> bool {
    std::env::var_os("SOS_BENCH_SMOKE").is_some()
}

/// Per-measurement sampling window (shrunk in smoke mode).
pub fn window() -> Duration {
    if smoke() {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(300)
    }
}

/// Times `f` adaptively against [`window`] and returns the mean
/// nanoseconds per call, running at least `min_iters` timed iterations
/// (clamped to ≥ 1).
// sos-bench is one of the two sanctioned wall-clock readers (see
// clippy.toml `disallowed-methods`): timing is its whole job.
#[allow(clippy::disallowed_methods)]
pub fn time_mean<O, F: FnMut() -> O>(min_iters: u64, mut f: F) -> f64 {
    let warm = Instant::now();
    std::hint::black_box(f());
    let once = warm.elapsed().max(Duration::from_nanos(1));
    let iters =
        (window().as_nanos() / once.as_nanos()).clamp(min_iters.max(1) as u128, 1_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Times one call of `f`, returning (nanoseconds, output): for
/// workloads that run milliseconds to seconds per call, where a single
/// timed call is the whole budget and the caller takes its own median.
// The other sanctioned wall-clock read in this crate (see `time_mean`).
#[allow(clippy::disallowed_methods)]
pub fn time_once<O>(f: impl FnOnce() -> O) -> (f64, O) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64() * 1e9, out)
}

/// Formats mean nanoseconds the way the bench output always has.
pub fn pretty_ns(mean: f64) -> String {
    if mean < 1e3 {
        format!("{mean:.0} ns")
    } else if mean < 1e6 {
        format!("{:.2} µs", mean / 1e3)
    } else {
        format!("{:.2} ms", mean / 1e6)
    }
}

/// How a gate holds its value to its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// A timing ratio that must not rise above the bound.
    AtMost,
    /// A timing ratio that must not fall below the bound.
    AtLeast,
    /// A count that must not rise above the bound: exact on any
    /// machine, so its verdict prints first.
    CountAtMost,
}

/// One bench target's named measurements, flushed to
/// `BENCH_<suite>.json` at the end of the run, and its gates' verdicts.
pub struct Suite {
    suite: &'static str,
    results: Mutex<Vec<(String, f64)>>,
    /// `(name, value, gate, bound)` per gate, in the order judged.
    gates: Mutex<Vec<(String, f64, Gate, f64)>>,
}

impl Suite {
    /// A named suite; `suite` becomes the `BENCH_<suite>.json` stem.
    pub const fn new(suite: &'static str) -> Suite {
        Suite {
            suite,
            results: Mutex::new(Vec::new()),
            gates: Mutex::new(Vec::new()),
        }
    }

    /// Records `value` under `name` as a gate held to `bound` the way
    /// `gate` says. [`Suite::finish`] gives the verdict, so a gate that
    /// fails leaves every later one judged.
    pub fn gate(&self, name: &str, value: f64, gate: Gate, bound: f64) {
        self.record(name, value);
        let entry = (name.to_string(), value, gate, bound);
        self.gates.lock().unwrap().push(entry);
    }

    /// Ends the run: writes the JSON as [`Suite::write_json`] does, then
    /// prints every gate's verdict, the counts first, and panics, failing
    /// the run, if any gate failed.
    pub fn finish(&self, unit: &str) {
        self.write_json(unit);
        let mut gates = self.gates.lock().unwrap().clone();
        gates.sort_by_key(|&(_, _, gate, _)| gate != Gate::CountAtMost);
        println!("gates ({}):", gates.len());
        let failed: Vec<String> = (gates.into_iter())
            .filter_map(|(name, value, gate, bound)| {
                let (op, pass) = match gate {
                    Gate::AtLeast => (">=", value >= bound),
                    Gate::AtMost | Gate::CountAtMost => ("<=", value <= bound),
                };
                let verdict = if pass { "pass" } else { "FAIL" };
                println!("  {name:<40} {value:>12.4} {op} {bound:<10} {verdict}");
                (!pass).then_some(name)
            })
            .collect();
        assert!(failed.is_empty(), "gates failed: {}", failed.join(", "));
    }

    /// Times `f` (≥ 5 iterations), prints the standard line, records
    /// the mean under `name`, and returns it.
    pub fn measure<O, F: FnMut() -> O>(&self, name: &str, f: F) -> f64 {
        let mean = time_mean(5, f);
        println!("{name:<50} time: {:<12}", pretty_ns(mean));
        self.record(name, mean);
        mean
    }

    /// Records a derived value (a rate, ratio, or gate) under `name`.
    pub fn record(&self, name: &str, value: f64) {
        self.results.lock().unwrap().push((name.to_string(), value));
    }

    /// Writes every recorded measurement to `BENCH_<suite>.json` at the
    /// workspace root; in smoke mode prints a notice and writes nothing.
    pub fn write_json(&self, unit: &str) {
        if smoke() {
            println!(
                "smoke mode: skipping BENCH_{}.json (full runs only)",
                self.suite
            );
            return;
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{}.json", self.suite));
        let results = self.results.lock().unwrap();
        let mut out = String::from("{\n");
        out.push_str("  \"smoke\": false,\n");
        out.push_str(&format!(
            "  \"unit\": \"{unit}\",\n  \"measurements\": {{\n"
        ));
        for (i, (name, mean)) in results.iter().enumerate() {
            let comma = if i + 1 == results.len() { "" } else { "," };
            // Ratios and gates live below 10 (a size computed instead
            // of encoded reads 1e-4 of the encode); a tenth is too
            // coarse for them and finer than needed for nanoseconds.
            let digits = if mean.abs() < 10.0 { 6 } else { 1 };
            out.push_str(&format!("    \"{name}\": {mean:.digits$}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}
