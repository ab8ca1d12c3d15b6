//! Rule scoping: which crates and files each rule applies to.
//!
//! The defaults encode this repository's layout and bug history; they
//! are data, not code, so a future crate only needs a line here (and
//! the README table) to opt in.

/// Scoping configuration for a lint run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates whose production code must be panic-free (`no-panic`).
    /// Short names: the `<name>` of `crates/<name>`, or `"root"` for
    /// the umbrella crate's own `src/`.
    pub panic_crates: Vec<String>,
    /// Crates allowed to read the wall clock (`no-wallclock` skips
    /// them): observability and benchmarking by design.
    pub wallclock_exempt_crates: Vec<String>,
    /// Path substrings of files whose output must be deterministic
    /// (`no-hash-order`): wire encoders and report/journal renderers.
    pub ordered_output_files: Vec<String>,
    /// Path substrings of wire codec / corpus adapter files
    /// (`no-narrow-cast` + `no-unbounded-prealloc`, and `no-panic`
    /// whatever crate they are in).
    pub wire_files: Vec<String>,
}

impl Config {
    /// The scoping for this workspace (see README "Static analysis").
    pub fn sos_defaults() -> Config {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect();
        Config {
            // The protocol crates (R1 motivation: PR 4 made malformed
            // trace ingestion return errors; nothing must regress it),
            // the experiment harness that CI smoke-runs, and sos-lint
            // itself (the gate must not be able to take CI down).
            // node joins: its runtime and transports sit on the live
            // frame path (arbitrary socket bytes in vivo), so decode
            // and forward must return errors, never abort.
            panic_crates: s(&[
                "core",
                "net",
                "trace",
                "crypto",
                "experiments",
                "lint",
                "node",
            ]),
            // sos-obs owns the span profiler, sos-bench owns timing.
            wallclock_exempt_crates: s(&["obs", "bench"]),
            // Frame/bundle encoders, trace codecs + the recorder that
            // feeds them, everything that renders RUN-REPORTs or
            // BENCH-JSON, and the contact kernel end to end — the tick
            // loop, the grid whose hash-keyed cells feed it and the
            // stream merge: the stream must be
            // byte-identical for every shard count, and only the tick
            // loop's per-tick sort stands between bucket order and the
            // output, so no hash-iteration order may join it.
            ordered_output_files: s(&[
                "/codec_",
                "/frame.rs",
                "/message.rs",
                "/sync.rs",
                "/advertisement.rs",
                "/record.rs",
                "/report.rs",
                "/journal.rs",
                "/emit.rs",
                "/shard.rs",
                "/tick.rs",
                "/grid.rs",
                // The in-vivo control protocol carries the end-of-run
                // reports (stats / delivered / journal) that
                // cross-process comparisons check for equality.
                "/proto.rs",
                // The round engine: it holds the hosted runtimes by
                // node and encodes the frames bound for other
                // processes, so no hash order may reach it.
                "/host.rs",
                // The air: its one round order, `(to, from, send
                // number)`, is the determinism contract of the driver
                // and of every lockstep sharding, so no hash order may
                // reach it.
                "/air.rs",
                // The metropolis generator and evaluator: METRO-REPORT
                // is byte-compared across shard counts.
                "/metropolis.rs",
                // The trace pipeline's pair table and its heaviest
                // reader: the table's slot order is the one way hash
                // order could now reach a timeline, a label list or an
                // analytics report, so neither file may hold a second,
                // std hash container beside it.
                "/pair_table.rs",
                "/analytics.rs",
                // The Fig. 4d recorder: its per-subscription ratios
                // come out in key order, which the study goldens pin.
                "/sim/src/metrics.rs",
                // Provenance: verdicts, violations and the PATH-REPORT
                // built on them are report output, in walk and key
                // order.
                "/provenance.rs",
            ]),
            // Everything that parses or emits wire bytes or imports
            // foreign corpora (R4/R5 motivation: the PR 5 `as u64`
            // saturation and hostile-length allocation classes).
            wire_files: s(&[
                "/codec_",
                "/corpora/",
                "/frame.rs",
                "/message.rs",
                "/sync.rs",
                "/handshake.rs",
                "/session.rs",
                "/advertisement.rs",
                // The length-prefixed socket framing and the broker⇄
                // daemon control codec parse bytes straight off TCP.
                "/wire.rs",
                "/proto.rs",
                // The bounded reader / counting writer all of the above
                // parse and emit through, and the certificate codec
                // (sos-crypto keeps its own reader: no workspace
                // dependency).
                "/codec.rs",
                "/cert.rs",
            ]),
        }
    }

    /// True when `rel_path` matches any pattern in `pats`.
    pub(crate) fn path_matches(rel_path: &str, pats: &[String]) -> bool {
        // Normalize so patterns anchored at a path component (`/x.rs`)
        // also match a file at the scan root.
        let slashed = format!("/{rel_path}");
        pats.iter().any(|p| slashed.contains(p.as_str()))
    }
}
