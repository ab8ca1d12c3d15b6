//! # sos — Secure Opportunistic Schemes middleware, reproduced in Rust
//!
//! Umbrella crate for the reproduction of Baker, Starke, Hill-Jarrett &
//! McNair, *"In Vivo Evaluation of the Secure Opportunistic Schemes
//! Middleware using a Delay Tolerant Social Network"* (ICDCS 2017,
//! arXiv:1703.08947).
//!
//! Re-exports every workspace crate under one roof; the builder demos
//! in `examples/` and the cross-crate integration tests in `tests/`
//! build against this crate. The paper's results and the extension
//! studies print from one binary, `repro`.
//!
//! | Crate | Contents |
//! |---|---|
//! | [`crypto`] | SHA-2, HMAC, HKDF, ChaCha20-Poly1305, X25519, Ed25519, certificates, CA |
//! | [`graph`] | social-graph analytics (density, diameter, transitivity, ...) |
//! | [`sim`] | discrete-event kernel, mobility models, radio ranges, metric recorders |
//! | [`engine`] | spatial-grid contact engine, event-driven kernel, batch scenario runner |
//! | [`trace`] | contact-trace record/replay: codecs, synthetic social traces, analytics |
//! | [`net`] | MPC-style discovery, sessions, framing, authenticated handshake |
//! | [`obs`] | observability: metrics registry, event journal, span profiler |
//! | [`core`] | the SOS middleware: ad hoc / message / routing managers |
//! | [`social`] | AlleyOop Social: accounts, posts, follows, feeds, cloud |
//! | [`node`] | sans-I/O node runtime, deterministic provisioning, lockstep mesh / TCP daemon / broker |
//! | [`experiments`] | the §VI field-study scenario and the `repro` harness |
//!
//! ## Where to start
//!
//! * `cargo run --example quickstart` — two phones, one secure D2D post.
//! * `cargo run --release -p sos-experiments --bin repro -- all` — the
//!   full 7-day Gainesville reproduction: every figure of the
//!   evaluation, paper-vs-measured. `repro eviction`, `corpus`,
//!   `replay` and `metro` print the extension studies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use alleyoop as social;
pub use sos_core as core;
pub use sos_crypto as crypto;
pub use sos_engine as engine;
pub use sos_experiments as experiments;
pub use sos_graph as graph;
pub use sos_net as net;
pub use sos_node as node;
pub use sos_obs as obs;
pub use sos_sim as sim;
pub use sos_trace as trace;
