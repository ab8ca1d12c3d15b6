//! Clock, order statistics, fingerprint hash and memory reads shared by
//! every workload.

use std::time::{Duration, Instant};

/// The ledger's one wall-clock read.
// The ledger measures real elapsed time; like `sos_bench::emit` it is a
// sanctioned wall-clock reader (see clippy.toml `disallowed-methods`).
// Nothing read here feeds the system under test.
#[allow(clippy::disallowed_methods)]
#[inline]
pub fn now() -> Instant {
    Instant::now()
}

/// Runs `f` once and returns its result with the elapsed wall time.
pub fn timed<O>(f: impl FnOnce() -> O) -> (O, Duration) {
    let start = now();
    let out = f();
    (out, start.elapsed())
}

/// Mean nanoseconds per call of `f` over at least `min_iters` calls and
/// at least `window` of wall time (one untimed call first, so lazy
/// tables and caches are filled).
pub fn mean_ns<O>(min_iters: u32, window: Duration, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f());
    let start = now();
    let mut iters = 0u32;
    while iters < min_iters || start.elapsed() < window {
        std::hint::black_box(f());
        iters += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// What the two reference kernels of [`slowdown`] take on the box the
/// baselines come from at its better moments (the first decile of a
/// minute of samples).
const NOMINAL_COMPUTE_S: f64 = 0.0150;
const NOMINAL_MEMORY_S: f64 = 0.0180;

/// How many times slower than nominal the machine runs right now: the
/// geometric mean of two fixed kernels of the ledger's own, one
/// arithmetic-bound (a splitmix64 sum) and one latency-bound (a random
/// walk over a 4 MiB ring), each against its nominal time.
///
/// The ledger runs on a few cores of a shared host whose speed swings by
/// a factor of 1.5 for tens of seconds at a time (400 s of back-to-back
/// `study_replay` repetitions of one input read 1.94 s to 3.60 s), which
/// no run of a minute can average away. The kernels see the same
/// neighbours as the repetition beside them and none of the system under
/// test, so dividing a timing by the slowdown around it takes the host's
/// share out and leaves the program's: on that box the medians of 15 s
/// windows spread 24 % between quartiles as timed and 6 % at nominal
/// speed.
pub fn slowdown() -> f64 {
    use std::sync::OnceLock;
    const RING: usize = 1 << 20;
    static NEXT: OnceLock<Vec<u32>> = OnceLock::new();
    // One random cycle through every slot, so that a walk cannot be
    // prefetched.
    let next = NEXT.get_or_init(|| {
        let mut order: Vec<u32> = (0..RING as u32).collect();
        let mut rng = SplitMix(0x5eed);
        for i in (1..RING).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut next = vec![0u32; RING];
        for (i, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(i + 1) % RING];
        }
        next
    });
    let (_, compute) = timed(|| {
        let mut rng = SplitMix(1);
        let mut sum = 0u64;
        for _ in 0..12_000_000 {
            sum = sum.wrapping_add(rng.next());
        }
        std::hint::black_box(sum)
    });
    let (_, memory) = timed(|| {
        let mut at = 0u32;
        for _ in 0..400_000 {
            at = next[at as usize];
        }
        std::hint::black_box(at)
    });
    ((compute.as_secs_f64() / NOMINAL_COMPUTE_S) * (memory.as_secs_f64() / NOMINAL_MEMORY_S)).sqrt()
}

/// The machine's speed, sampled between the ledger's activities.
pub struct Pace {
    last: f64,
}

impl Pace {
    pub fn start() -> Pace {
        slowdown(); // builds the ring, warms both kernels
        Pace { last: slowdown() }
    }

    /// Runs `f`, samples the machine after it, and returns `f`'s result
    /// with the slowdown over it: the mean of the samples on either side.
    pub fn over<O>(&mut self, f: impl FnOnce() -> O) -> (O, f64) {
        let before = self.last;
        let out = f();
        self.last = slowdown();
        (out, (before + self.last) / 2.0)
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the same "exclusive" rule as Python's
/// `statistics.quantiles(values, n=4)`; both equal the single value
/// when fewer than two are given.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// FNV-1a over the deterministic counts of a run: equal code and seed
/// must give an equal fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A splitmix64 stream: the ledger's own generator for inputs that no
/// generator of the system makes (payload bytes, meeting order).
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2⁶⁴, so the modulo bias is nil).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
