//! # autoac-serve
//!
//! Online attribute-completion and inference serving for trained AutoAC
//! models: a zero-dependency HTTP/1.1 server over `std::net` with a
//! fixed worker pool, a per-checkpoint logits table, and atomic
//! checkpoint hot-reload.
//!
//! AutoAC is transductive, so a checkpoint's node logits are a constant.
//! Loading a checkpoint runs its one full-graph forward and keeps the
//! `(N, C)` logits table; the model itself is dropped. Every classify
//! request is then a row lookup on the worker that parsed it, and a
//! reload costs one forward on the worker that handles it (see [`host`]).
//!
//! ## Endpoints
//!
//! | route              | method | purpose                                        |
//! |--------------------|--------|------------------------------------------------|
//! | `/v1/classify`     | POST   | node ids → logits + argmax labels (table rows) |
//! | `/v1/attrs`        | POST   | node ids → completed attribute rows            |
//! | `/healthz`         | GET    | liveness + loaded-checkpoint identity          |
//! | `/metrics`         | GET    | Prometheus exposition text (obs registry, SLO gauges, exemplars) |
//! | `/slo`             | GET    | burn-rate SLO status (fast + slow windows)     |
//! | `/debug/traces`    | GET    | slowest request timelines as JSON              |
//! | `/admin/reload`    | POST   | build a new checkpoint's table and swap it in (same graph only) |
//! | `/admin/shutdown`  | POST   | graceful shutdown                              |
//! | `/admin/flight`    | POST   | dump the flight-recorder ring to disk          |
//!
//! ## Determinism contract
//!
//! Every classify response row is **bitwise-identical** to the matching
//! row of `InferenceModel::logits()` for the checkpoint named in its
//! `ckpt` field: the table *is* that matrix, copied once. The forward
//! reads a materialized constant attribute block and reseeds its RNG from
//! the checkpoint's `infer_seed`, so the table is the same across restarts
//! too. The integration tests and `scripts/verify.sh` compare served
//! bodies against bodies built from direct `logits()` rows.
//!
//! ```no_run
//! use autoac_core::{train_serve_state, ServeTrainSpec};
//! use autoac_serve::{Client, ServeConfig, Server};
//!
//! let (state, _) = train_serve_state(&ServeTrainSpec::default()).unwrap();
//! let server = Server::start(state, &ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.post("/v1/classify", r#"{"nodes":[0,1,2]}"#).unwrap();
//! println!("{}", reply.text());
//! server.stop();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod host;
pub mod http;
pub mod server;
pub mod trace;

/// Serializes unit tests that touch process-global trace state (the
/// `set_trace_force` switch shared by every test thread).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
pub use client::{Client, Response};
pub use host::{ModelHost, SharedView};
pub use server::{signals, ServeConfig, Server, ServerHandle, MAX_NODES_PER_REQUEST};
pub use trace::{
    set_trace_force, tracing_enabled, Timeline, TraceIds, TraceStore, TRACE_STORE_CAPACITY,
};
