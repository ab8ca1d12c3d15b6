//! The ledger's names: workloads, end-to-end metrics and per-layer
//! metrics, each with unit, direction, bound and the prediction it was
//! chosen for. `BENCHMARK.json` is this file printed by
//! `--print-manifest`; README.md is its glossary.

pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "study_replay",
        "paper-shaped study (10 nodes, 7 days, 259 posts) through the whole in-process stack for all five schemes: every layer works, none dominates",
    ),
    (
        "encounter_bulk",
        "200 bundles per handshake, so verify/sync/store do the work: a batch-verify or store change shows here and not on encounter_churn",
    ),
    (
        "encounter_churn",
        "one bundle per handshake among 384 identities (1.5x the prepared-key cache): handshake and browse fast path, the opposite use of bulk's layers",
    ),
    (
        "in_vivo_tcp",
        "two days of the study shape over broker + 2 daemon threads on TCP loopback, checked against run_mesh: transport and lockstep dominate, not crypto",
    ),
    (
        "metropolis_day",
        "10k-node city day: sim mobility, contact kernel and reduced scheme evaluators with zero crypto/core/net, so middleware changes must read no change",
    ),
    (
        "trace_codec",
        "200-node 28-day trace through both codecs, CONN import and analytics: the only place sos-trace dominates, writes beside reads of one format",
    ),
];

/// The one workload `BENCHMARK.json` leaves out, though `--workload all`
/// and `--check-repeat` run it like the others. Its wall is set by how
/// fast the host wakes a thread blocked on a loopback socket (~0.3 ms
/// per lockstep round, three threads on two cores), and on the box the
/// baselines come from that swings between 1.5 s and 3.5 s per
/// repetition from one minute to the next: ten runs spread 10–21 %
/// between their quartiles, too near the 25 % a bound may be for a gate
/// that must not reject unchanged code.
pub const NOT_IN_MANIFEST: &str = "in_vivo_tcp";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse.
    /// Timings carry 25 %, the most a bound may be: on the 2-core box
    /// the baselines come from, the machine's own speed swings by up to
    /// 1.5x for tens of seconds at a time. The ledger divides that out
    /// as far as its reference kernels see it (`stats::slowdown`), and
    /// what is left still spreads ten 20 s runs of one commit by several
    /// percent between their quartiles (README.md). A tighter bound
    /// would reject unchanged code.
    pub bound: f64,
    /// Workloads that report it; empty means all six.
    pub on: &'static [&'static str],
    /// A wall-clock measurement (checked within `bound` by
    /// `--check-repeat`) rather than a count (which must repeat exactly).
    pub timing: bool,
}

impl EndToEnd {
    pub fn applies(&self, workload: &str) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }

    /// Reported on every workload, so the driver can bound it: these are
    /// the `end_to_end` entries of `BENCHMARK.json`. The others are
    /// printed beside them on their own workloads, gated by
    /// `--check-repeat`, and listed in the manifest under `per_layer`.
    pub fn everywhere(&self) -> bool {
        self.on.is_empty() && self.name != "fail_share"
    }
}

const MIDDLEWARE: &[&str] = &[
    "study_replay",
    "encounter_bulk",
    "encounter_churn",
    "in_vivo_tcp",
];
const ENCOUNTERS: &[&str] = &["encounter_bulk", "encounter_churn"];

/// The twelve end-to-end metrics. Timings are measured with tracing off.
pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        on: &[],
        timing: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        on: &[],
        timing: true,
    },
    EndToEnd {
        name: "contacts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        on: &[],
        timing: true,
    },
    EndToEnd {
        name: "delivery_ratio",
        unit: "ratio",
        better: Higher,
        // A count: exact for one seed. Across seeds the 10k-node city's
        // ratio spreads 7 % between quartiles, hence a timing's bound.
        bound: 0.25,
        on: &[],
        timing: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        on: &[],
        timing: true,
    },
    EndToEnd {
        name: "fail_share",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        on: &[],
        timing: false,
    },
    EndToEnd {
        name: "bundles_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        on: MIDDLEWARE,
        timing: true,
    },
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        on: MIDDLEWARE,
        timing: true,
    },
    EndToEnd {
        name: "encounter_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        on: ENCOUNTERS,
        timing: true,
    },
    EndToEnd {
        name: "encounter_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        on: ENCOUNTERS,
        timing: true,
    },
    EndToEnd {
        name: "wire_bytes_per_bundle",
        unit: "B",
        better: Lower,
        bound: 0.0,
        on: &["study_replay", "encounter_bulk", "encounter_churn"],
        timing: false,
    },
    EndToEnd {
        name: "delay_p50_s",
        unit: "sim_s",
        better: Lower,
        bound: 0.0,
        on: &["study_replay", "metropolis_day"],
        timing: false,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `metric@workload` this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const BULK: &str = "bundles_per_s@encounter_bulk";
const CHURN: &str = "encounter_p50_us@encounter_churn";
const STUDY: &str = "wall_s@study_replay";
const TCP: &str = "wall_s@in_vivo_tcp";
const TCP_FRAMES: &str = "frames_per_s@in_vivo_tcp";
const METRO: &str = "contacts_per_s@metropolis_day";
const CODEC: &str = "contacts_per_s@trace_codec";
const NOTHING: &str = "nothing end to end";

/// Per-layer metrics, from the `--trace 1` run. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [Layer; 87] = [
    // crypto: direct probes on the workload's own keys and bundles.
    layer("crypto.sign_us", "us", Lower, "setup_s@encounter_bulk"),
    layer("crypto.verify_us", "us", Lower, BULK),
    layer("crypto.verify_cold_us", "us", Lower, BULK),
    layer("crypto.x25519_agree_us", "us", Lower, CHURN),
    layer("crypto.cert_validate_us", "us", Lower, CHURN),
    layer("crypto.cert_validate_cold_us", "us", Lower, CHURN),
    layer("crypto.aead_seal_mib_s", "MiB/s", Higher, BULK),
    layer("crypto.aead_open_mib_s", "MiB/s", Higher, BULK),
    layer("crypto.verify_share", "ratio", Lower, BULK),
    // net: the system's own spans, the pump's codec spans, counts.
    layer("net.handshake_us", "us", Lower, CHURN),
    layer("net.handshake_calls", "count", Lower, CHURN),
    layer("net.handshake_share", "ratio", Lower, STUDY),
    layer("net.payload_seal_us", "us", Lower, BULK),
    layer("net.payload_open_us", "us", Lower, BULK),
    layer("net.frame_encode_ns.ad", "ns", Lower, TCP_FRAMES),
    layer("net.frame_encode_ns.hs_init", "ns", Lower, TCP_FRAMES),
    layer("net.frame_encode_ns.hs_resp", "ns", Lower, TCP_FRAMES),
    layer("net.frame_encode_ns.data", "ns", Lower, TCP_FRAMES),
    layer("net.frame_encode_ns.disconnect", "ns", Lower, TCP_FRAMES),
    layer("net.frame_decode_ns.ad", "ns", Lower, TCP_FRAMES),
    layer("net.frame_decode_ns.hs_init", "ns", Lower, TCP_FRAMES),
    layer("net.frame_decode_ns.hs_resp", "ns", Lower, TCP_FRAMES),
    layer("net.frame_decode_ns.data", "ns", Lower, TCP_FRAMES),
    layer("net.frame_decode_ns.disconnect", "ns", Lower, TCP_FRAMES),
    layer("net.wire_encode_ns", "ns", Lower, TCP_FRAMES),
    layer("net.wire_read_ns", "ns", Lower, TCP_FRAMES),
    layer("net.frames", "count", Lower, "frames_per_s@encounter_bulk"),
    layer(
        "net.bytes",
        "B",
        Lower,
        "wire_bytes_per_bundle@encounter_bulk",
    ),
    layer("net.sessions_opened", "count", Lower, CHURN),
    layer(
        "net.sessions_failed",
        "count",
        Lower,
        "fail_share@study_replay",
    ),
    // core: handle_frame by inbound kind, the system's spans, probes.
    layer("core.hf_ad_us", "us", Lower, STUDY),
    layer("core.hf_handshake_us", "us", Lower, CHURN),
    layer("core.hf_payload_us", "us", Lower, BULK),
    layer("core.receive_bundle_us", "us", Lower, BULK),
    layer("core.serve_request_us", "us", Lower, BULK),
    layer("core.post_us", "us", Lower, "setup_s@encounter_bulk"),
    layer("core.advertisement_us", "us", Lower, STUDY),
    layer("core.maintain_us", "us", Lower, BULK),
    layer("core.store_insert_ns.200", "ns", Lower, BULK),
    layer("core.store_insert_ns.10000", "ns", Lower, BULK),
    layer("core.store_sync_summary_us.200", "us", Lower, BULK),
    layer("core.store_sync_summary_us.10000", "us", Lower, BULK),
    layer("core.store_missing_from_us.200", "us", Lower, BULK),
    layer("core.store_missing_from_us.10000", "us", Lower, BULK),
    layer(
        "core.duplicate_ratio",
        "ratio",
        Lower,
        "bundles_per_s@study_replay",
    ),
    layer(
        "core.fruitful_session_ratio",
        "ratio",
        Higher,
        "wire_bytes_per_bundle@encounter_churn",
    ),
    // node: provisioning, lockstep, the socket plane against the mesh.
    layer("node.provision_ms", "ms", Lower, "setup_s@in_vivo_tcp"),
    layer("node.schedule_ms", "ms", Lower, TCP),
    layer("node.mesh_wall_s", "s", Lower, "setup_s@in_vivo_tcp"),
    layer("node.tcp_wall_s", "s", Lower, TCP),
    layer("node.tcp_over_mesh", "ratio", Lower, TCP),
    layer("node.rounds", "count", Lower, TCP),
    layer("node.frames_per_round", "ratio", Higher, TCP),
    layer("node.round_us", "us", Lower, TCP),
    layer("node.proto_encode_ns", "ns", Lower, TCP),
    layer("node.proto_decode_ns", "ns", Lower, TCP),
    // experiments: the four driver spans are disjoint siblings.
    layer("experiments.advertise_share", "ratio", Lower, STUDY),
    layer("experiments.deliver_share", "ratio", Lower, STUDY),
    layer("experiments.post_share", "ratio", Lower, STUDY),
    layer("experiments.contact_share", "ratio", Lower, STUDY),
    layer("experiments.unattributed_share", "ratio", Lower, STUDY),
    layer(
        "experiments.metro_scheme_share",
        "ratio",
        Lower,
        "wall_s@metropolis_day",
    ),
    // engine / sim
    layer("engine.kernel_contacts_per_s", "1/s", Higher, METRO),
    layer("engine.partition_share", "ratio", Lower, METRO),
    layer("engine.step_share", "ratio", Lower, METRO),
    layer("engine.merge_share", "ratio", Lower, METRO),
    layer("engine.handoff_share", "ratio", Lower, METRO),
    layer("engine.k2_over_k1", "ratio", Lower, METRO),
    layer("sim.city_gen_ms", "ms", Lower, "setup_s@metropolis_day"),
    layer("sim.position_ns_per_node", "ns", Lower, METRO),
    // trace
    layer("trace.binary_encode_ns_per_event", "ns", Lower, CODEC),
    layer("trace.binary_decode_ns_per_event", "ns", Lower, CODEC),
    layer("trace.text_encode_ns_per_event", "ns", Lower, CODEC),
    layer("trace.text_decode_ns_per_event", "ns", Lower, CODEC),
    layer("trace.import_ns_per_line", "ns", Lower, CODEC),
    layer("trace.analytics_ms", "ms", Lower, CODEC),
    layer(
        "trace.gen_events_per_s",
        "1/s",
        Higher,
        "setup_s@trace_codec",
    ),
    layer("trace.binary_bytes_per_event", "B", Lower, CODEC),
    // obs: should move nothing end to end; the <= 5 % guarantee.
    layer("obs.timeline_merge_ms", "ms", Lower, NOTHING),
    layer("obs.provenance_build_ms", "ms", Lower, NOTHING),
    layer("obs.classify_ms", "ms", Lower, NOTHING),
    layer("obs.journal_entries", "count", Lower, NOTHING),
    layer(
        "obs.journal_dropped",
        "count",
        Lower,
        "fail_share@study_replay",
    ),
    layer("obs.observer_overhead_pct", "%", Lower, NOTHING),
    layer("obs.trace_overhead_pct", "%", Lower, NOTHING),
    // ledger: what no span explains, and the tail the samples allow.
    layer(
        "ledger.unattributed_share",
        "ratio",
        Lower,
        "wall_s@every workload",
    ),
    layer("ledger.encounter_p99_us", "us", Lower, CHURN),
];
