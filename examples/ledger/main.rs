//! The perf ledger: six end-to-end workloads over the real stack, with
//! per-layer attribution. See README.md beside this file.
//!
//! ```sh
//! ledger --workload <name|all> [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! ledger --check-repeat [--seed N] [--seconds S]
//! ledger --print-manifest
//! ```
//!
//! The last line of a single-workload run is one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; the process
//! exits non-zero when any operation failed.

mod metrics;
mod probes;
mod spans;
mod stats;
mod sut;
mod workloads;

use metrics::{Better, EndToEnd, END_TO_END, NOT_IN_MANIFEST, PER_LAYER, WORKLOADS};
use spans::Spans;
use stats::Pace;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Counts, Layers, Traced, Workload};

/// The seed the committed baselines were recorded with (baselines.json
/// also holds one run of a second seed, to show nothing is tuned to
/// this one).
const DEFAULT_SEED: u64 = 20_170_605;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 20;

/// Set-up runs in slices of at least one run and `SETUP_SLICE` of wall
/// time: `SETUP_FIRST_SLICES` of them before the reference repetition and
/// one after every blind repetition, so that the samples span the whole
/// run and not one moment of the machine. `setup_s` is their median.
///
/// Every timing the ledger reports end to end is at nominal machine
/// speed: what was timed, divided by the [`stats::slowdown`] sampled on
/// either side of it.
const SETUP_SLICE: Duration = Duration::from_millis(100);
const SETUP_FIRST_SLICES: usize = 3;

/// Timed repetitions per phase, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: f64::from(DEFAULT_SECONDS),
        traced: false,
        check_repeat: false,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value("0 or 1")? == "1",
            "--traced" => args.traced = true,
            "--check-repeat" => args.check_repeat = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything one workload run measured.
struct Report {
    workload: &'static str,
    fingerprint: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// End-to-end metrics that apply to the workload, by name.
    end_to_end: BTreeMap<&'static str, f64>,
    /// Quartiles and sample counts behind the timed ones.
    notes: Vec<String>,
    layers: Layers,
    trace_file: Option<std::path::PathBuf>,
}

/// The three ways a repetition is run. End-to-end timings come from
/// blind ones only.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// No observer, no spans, no profile.
    Blind,
    /// The system's journal and registry attached, where it has them.
    Observed,
    /// The ledger's spans and the system's `sos_obs::profile` spans on.
    Traced,
}

/// One workload being measured: its inputs, the reference outcome every
/// repetition must reproduce, and the running tallies.
struct Bench<W: Workload> {
    w: W,
    spans: Spans,
    reference: Counts,
    tally: Counts,
    pace: Pace,
    /// Repetition walls at nominal machine speed, by [`Kind`].
    walls: [Vec<f64>; 3],
    /// The same as timed (what the per-layer timings, which are as
    /// timed too, are shares of), and the slowdown over each blind one.
    as_timed: [Vec<f64>; 3],
    blind_slowdown: Vec<f64>,
    latencies_ns: Vec<u64>,
    /// `sos_obs::profile` totals over the traced repetitions.
    profile: workloads::Profile,
}

impl<W: Workload> Bench<W> {
    /// Runs one repetition and checks it against the reference.
    fn rep(&mut self, kind: Kind) {
        let traced = kind == Kind::Traced;
        self.spans.clear();
        self.spans.set_on(traced);
        sut::profile_enable(traced);
        let (rep, slowdown) = self
            .pace
            .over(|| self.w.rep(kind == Kind::Observed, &mut self.spans));
        sut::profile_enable(false);
        if traced {
            for (name, (calls, secs)) in sut::profile_take() {
                let total = self.profile.entry(name).or_default();
                total.0 += calls;
                total.1 += secs;
            }
        }
        fold(&mut self.tally, &rep.counts);
        let (got, want) = (rep.counts.digest, self.reference.digest);
        self.tally.check(got == want, || {
            format!("repetition outcome {got:016x} differs from the reference {want:016x}")
        });
        let wall = rep.wall.as_secs_f64();
        self.walls[kind as usize].push(wall / slowdown);
        self.as_timed[kind as usize].push(wall);
        if kind == Kind::Blind {
            self.blind_slowdown.push(slowdown);
            self.latencies_ns.extend(
                rep.latencies_ns
                    .iter()
                    .map(|&ns| (ns as f64 / slowdown) as u64),
            );
        }
    }
}

fn fold(tally: &mut Counts, rep: &Counts) {
    tally.attempted += rep.attempted;
    tally.failed += rep.failed;
    for f in &rep.failures {
        if tally.failures.len() < 8 {
            tally.failures.push(f.clone());
        }
    }
}

/// Sets up for one slice, timing each set-up into `setups` (at nominal
/// machine speed); returns the last one's inputs.
fn setup_slice<W: Workload>(seed: u64, setups: &mut Vec<f64>, pace: &mut Pace) -> W {
    let mut slice = Vec::new();
    let (w, slowdown) = pace.over(|| {
        let started = stats::now();
        loop {
            let (w, took) = stats::timed(|| W::setup(seed));
            slice.push(took.as_secs_f64());
            if started.elapsed() >= SETUP_SLICE {
                return w;
            }
        }
    });
    setups.extend(slice.iter().map(|took| took / slowdown));
    w
}

fn run<W: Workload>(args: &Args) -> Report {
    let mut notes = Vec::new();

    // Set-up, several times over; the last one's inputs are used.
    let mut pace = Pace::start();
    let mut setups = Vec::new();
    let mut w = setup_slice::<W>(args.seed, &mut setups, &mut pace);
    for _ in 1..SETUP_FIRST_SLICES {
        w = setup_slice::<W>(args.seed, &mut setups, &mut pace);
    }

    // The reference repetition: observed where the system can be, it
    // fills caches and fixes the deterministic counts.
    let mut spans = Spans::new(false);
    let (first, slowdown) = pace.over(|| w.rep(true, &mut spans));
    let mut tally = Counts::default();
    fold(&mut tally, &first.counts);
    let mut bench = Bench {
        w,
        spans,
        reference: first.counts,
        tally,
        pace,
        walls: [
            Vec::new(),
            vec![first.wall.as_secs_f64() / slowdown],
            Vec::new(),
        ],
        as_timed: Default::default(),
        blind_slowdown: Vec::new(),
        latencies_ns: Vec::new(),
        profile: BTreeMap::new(),
    };

    // Measure for `--seconds` of the clock on the wall: blind
    // repetitions, and in a traced run an observed and a traced one after
    // each, so that the three kinds see the same drift of the machine.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = stats::now();
    while bench.walls[Kind::Blind as usize].len() < MIN_REPS || started.elapsed() < budget {
        bench.rep(Kind::Blind);
        setup_slice::<W>(args.seed, &mut setups, &mut bench.pace);
        if args.traced {
            if W::OBSERVABLE {
                bench.rep(Kind::Observed);
            }
            bench.rep(Kind::Traced);
        }
    }

    let Bench {
        mut w,
        spans,
        reference,
        mut tally,
        walls,
        as_timed,
        blind_slowdown,
        mut latencies_ns,
        mut profile,
        ..
    } = bench;
    let [blind, observed, traced] = walls;
    let wall_s = stats::median(&blind);
    let (q1, q3) = stats::quartiles(&blind);
    notes.push(format!(
        "wall_s: median of {} repetitions at nominal machine speed, quartiles {q1:.4} .. {q3:.4}; each: {blind:.3?}",
        blind.len()
    ));
    let [blind_as_timed, _, traced_as_timed] = as_timed;
    notes.push(format!(
        "   as timed: median {:.4}, each: {blind_as_timed:.3?}; the machine's slowdown over each: {blind_slowdown:.3?}",
        stats::median(&blind_as_timed)
    ));
    notes.push(format!(
        "setup_s: median of {} set-ups at nominal machine speed, spread over the run",
        setups.len()
    ));

    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("setup_s", stats::median(&setups));
    e2e.insert("wall_s", wall_s);
    e2e.insert("contacts_per_s", reference.contacts as f64 / wall_s);
    e2e.insert("bundles_per_s", reference.bundles as f64 / wall_s);
    e2e.insert("frames_per_s", reference.frames as f64 / wall_s);
    e2e.insert("delivery_ratio", reference.delivery_ratio);
    e2e.insert("delay_p50_s", reference.delay_p50_s);
    e2e.insert(
        "wire_bytes_per_bundle",
        reference.observed_only.wire_bytes as f64 / reference.bundles.max(1) as f64,
    );
    latencies_ns.sort_unstable();
    let percentile_us = |p: f64| stats::percentile(&latencies_ns, p) as f64 / 1e3;
    if !latencies_ns.is_empty() {
        e2e.insert("encounter_p50_us", percentile_us(0.50));
        e2e.insert("encounter_p95_us", percentile_us(0.95));
        notes.push(format!(
            "encounter_p50_us, encounter_p95_us: over {} encounters",
            latencies_ns.len()
        ));
    }

    let mut layers = Layers::new();
    let mut trace_file = None;
    if args.traced {
        for total in profile.values_mut() {
            total.0 /= traced.len() as f64;
            total.1 /= traced.len() as f64;
        }
        let aggregate = spans.aggregate();

        let path = trace_path(W::NAME);
        match spans.write_json(&path, W::NAME, args.seed) {
            Ok(()) => trace_file = Some(path),
            Err(e) => {
                tally.attempted += 1;
                tally.fail(format!("write {}: {e}", path.display()));
            }
        }

        // Spans and probes are as timed, so the walls they are shares
        // of are too; the overheads compare nominal-speed medians.
        let ctx = Traced {
            blind_wall_s: stats::median(&blind_as_timed),
            traced_wall_s: stats::median(&traced_as_timed),
            spans: &aggregate,
            profile: &profile,
            reference: &reference,
        };
        w.layers(&ctx, &mut layers, &mut tally);

        // `ledger.*` spans are the ledger's own structure (repetition,
        // encounter); their self time is the wall no layer span covers.
        let own_ns: u64 = aggregate
            .iter()
            .filter(|(name, _)| name.starts_with("ledger."))
            .map(|(_, agg)| agg.self_ns)
            .sum();
        layers.insert(
            "ledger.unattributed_share",
            own_ns as f64 / ctx.span("ledger.rep").total_ns.max(1) as f64,
        );
        layers.insert("ledger.encounter_p99_us", percentile_us(0.99));
        if W::OBSERVABLE {
            layers.insert(
                "obs.observer_overhead_pct",
                (stats::median(&observed) / wall_s - 1.0) * 100.0,
            );
        }
        layers.insert(
            "obs.trace_overhead_pct",
            (stats::median(&traced) / wall_s - 1.0) * 100.0,
        );
        let seen = &reference.observed_only;
        layers.insert("obs.journal_entries", seen.journal_entries as f64);
        layers.insert("obs.journal_dropped", seen.journal_dropped as f64);
        if reference.bundles_received > 0 {
            layers.insert(
                "core.duplicate_ratio",
                reference.duplicates as f64 / reference.bundles_received as f64,
            );
        }
        if reference.sessions_opened > 0 {
            layers.insert(
                "core.fruitful_session_ratio",
                seen.sessions_fruitful as f64 / reference.sessions_opened as f64,
            );
        }
        notes.push(format!(
            "traced: {} blind, {} observed and {} traced repetitions, interleaved; spans of the last traced one",
            blind.len(),
            observed.len(),
            traced.len()
        ));
    }

    let mut fp = stats::Fingerprint::default();
    fp.str(W::NAME).u64(args.seed);
    w.fingerprint_inputs(&mut fp);
    fp.u64(reference.digest);

    e2e.insert(
        "fail_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    e2e.insert("peak_rss_mib", stats::peak_rss_mib());
    e2e.retain(|name, _| {
        END_TO_END
            .iter()
            .any(|m| m.name == *name && m.applies(W::NAME))
    });

    Report {
        workload: W::NAME,
        fingerprint: fp.value(),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        failures: tally.failures,
        end_to_end: e2e,
        notes,
        layers,
        trace_file,
    }
}

/// `<target dir>/ledger/<workload>.trace.json`, where the target dir is
/// `CARGO_TARGET_DIR` when set and `target` otherwise.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("ledger")
        .join(format!("{workload}.trace.json"))
}

fn print_report(report: &Report, args: &Args) {
    println!(
        "== {} seed {} fingerprint {:016x} ({}) ==",
        report.workload,
        args.seed,
        report.fingerprint,
        if args.traced {
            "traced run: per-layer metrics"
        } else {
            "tracing off: end-to-end metrics"
        }
    );
    if report.workload == "in_vivo_tcp" {
        println!("   traffic crossed the host's loopback interface, not a link; daemons are threads of this process");
    }
    for m in END_TO_END.iter().filter(|m| m.applies(report.workload)) {
        let value = report.end_to_end.get(m.name).copied().unwrap_or(0.0);
        println!(
            "  e2e   {:<34} {:>18.6} {:<6} ({} is better, bound {:.0} %)",
            m.name,
            value,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    if args.traced {
        for m in &PER_LAYER {
            let value = report.layers.get(m.name).copied().unwrap_or(0.0);
            println!(
                "  layer {:<34} {:>18.6} {:<6} -> {}",
                m.name, value, m.unit, m.moves
            );
        }
        if let Some(path) = &report.trace_file {
            println!("   spans written to {}", path.display());
        }
    }
    for note in &report.notes {
        println!("   {note}");
    }
    println!(
        "   operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    for failure in &report.failures {
        println!("   FAILED: {failure}");
    }
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contract's last line: every `end_to_end` metric of
/// `BENCHMARK.json` with tracing off, every `per_layer` one with it on.
fn result_line(report: &Report, args: &Args) -> String {
    let field = |name: &str, unit: &str, value: Option<&f64>| {
        format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value.copied().unwrap_or(0.0))
        )
    };
    let end_to_end = |everywhere: bool| {
        END_TO_END
            .iter()
            .filter(move |m| m.everywhere() == everywhere)
            .map(|m| field(m.name, m.unit, report.end_to_end.get(m.name)))
    };
    let fields: Vec<String> = if args.traced {
        PER_LAYER
            .iter()
            .map(|m| field(m.name, m.unit, report.layers.get(m.name)))
            .chain(end_to_end(false))
            .collect()
    } else {
        end_to_end(true).collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(",")
    )
}

fn print_manifest() {
    let entry = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        let bound = bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"{bound}}}",
            better.as_str()
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|(name, _)| *name != NOT_IN_MANIFEST)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .filter(|m| m.everywhere())
        .map(|m| entry(m.name, m.unit, m.better, Some(m.bound)))
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| entry(m.name, m.unit, m.better, None))
        .chain(
            END_TO_END
                .iter()
                .filter(|m| !m.everywhere())
                .map(|m| entry(m.name, m.unit, m.better, None)),
        )
        .collect();
    println!("{{");
    println!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"examples/ledger/Cargo.toml\", \"--\"],"
    );
    println!("  \"paths\": [\"examples/ledger\"],");
    println!("  \"run_seconds\": {DEFAULT_SECONDS},");
    println!("  \"workloads\": [\n{}\n  ],", workloads.join(",\n"));
    println!("  \"end_to_end\": [\n{}\n  ],", e2e.join(",\n"));
    println!("  \"per_layer\": [\n{}\n  ]", layers.join(",\n"));
    println!("}}");
}

fn run_named(args: &Args) -> Option<Report> {
    Some(match args.workload.as_str() {
        "study_replay" => run::<workloads::study_replay::StudyReplay>(args),
        "encounter_bulk" => run::<workloads::encounter::Bulk>(args),
        "encounter_churn" => run::<workloads::encounter::Churn>(args),
        "in_vivo_tcp" => run::<workloads::in_vivo_tcp::InVivoTcp>(args),
        "metropolis_day" => run::<workloads::metropolis_day::MetropolisDay>(args),
        "trace_codec" => run::<workloads::trace_codec::TraceCodec>(args),
        _ => return None,
    })
}

// ------------------------------------------------- all / check-repeat

/// One child run of this executable: its echoed output parsed back into
/// `metric → value` for the end-to-end lines, plus fingerprint and exit.
struct Child {
    end_to_end: BTreeMap<String, f64>,
    fingerprint: String,
    ok: bool,
}

/// Each workload runs in a process of its own, one at a time, so that
/// `peak_rss_mib` is per workload.
fn spawn(workload: &str, args: &Args) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut child = Child {
        end_to_end: BTreeMap::new(),
        fingerprint: String::new(),
        ok: output.status.success(),
    };
    for line in stdout.lines() {
        if line.starts_with('{') {
            continue; // the machine line; `all` prints the tables
        }
        println!("{line}");
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("e2e") => {
                if let (Some(name), Some(Ok(v))) = (tokens.next(), tokens.next().map(str::parse)) {
                    child.end_to_end.insert(name.to_string(), v);
                }
            }
            Some("==") => {
                child.fingerprint = tokens.nth(4).unwrap_or("").to_string();
            }
            _ => {}
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Ok(child)
}

fn run_all(args: &Args) -> Result<Vec<(&'static str, Child)>, String> {
    WORKLOADS
        .iter()
        .map(|(name, _)| spawn(name, args).map(|c| (*name, c)))
        .collect()
}

/// By how much `second` is worse than `first`, as a share of `first`.
fn worse_by(m: &EndToEnd, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match m.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs the full set twice and compares: timings within each metric's
/// bound in either direction, counts and fingerprints identical.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let first = run_all(args)?;
    let second = run_all(args)?;
    let mut ok = true;
    println!("== repeatability: two full sets, seed {} ==", args.seed);
    println!(
        "  {:<16} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "first", "second", "change"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let same_print = a.fingerprint == b.fingerprint && !a.fingerprint.is_empty();
        ok &= same_print && a.ok && b.ok;
        println!(
            "  {:<16} {:<24} {:>16} {:>16} {:>9}  {}",
            name,
            "fingerprint",
            a.fingerprint,
            b.fingerprint,
            "",
            if same_print { "same" } else { "DIFFERS" }
        );
        for m in END_TO_END.iter().filter(|m| m.applies(name)) {
            let (x, y) = (
                a.end_to_end.get(m.name).copied().unwrap_or(f64::NAN),
                b.end_to_end.get(m.name).copied().unwrap_or(f64::NAN),
            );
            let change = worse_by(m, x, y);
            let pass = if m.timing {
                worse_by(m, x, y) <= m.bound && worse_by(m, y, x) <= m.bound
            } else {
                x == y
            };
            ok &= pass;
            println!(
                "  {:<16} {:<24} {:>16.6} {:>16.6} {:>+8.2}%  {}",
                name,
                m.name,
                x,
                y,
                change * 100.0,
                if pass {
                    "ok"
                } else if m.timing {
                    "OUTSIDE BOUND"
                } else {
                    "COUNT DIFFERS"
                }
            );
        }
    }
    println!(
        "repeatability: {}",
        if ok { "both sets agree" } else { "FAILED" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print_manifest();
        return ExitCode::SUCCESS;
    }
    if args.check_repeat {
        return match check_repeat(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(children) if children.iter().all(|(_, c)| c.ok) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(report) = run_named(&args) else {
        eprintln!(
            "ledger: unknown workload {:?}; one of {:?} or all",
            args.workload,
            WORKLOADS.map(|w| w.0)
        );
        return ExitCode::from(2);
    };
    print_report(&report, &args);
    println!("{}", result_line(&report, &args));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
