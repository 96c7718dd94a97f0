//! # rvhpc-serve
//!
//! A networked prediction service over the `rvhpc-core` engine — the
//! paper's question ("what would benchmark X do on machine Y at N
//! threads?") answered over the wire with predictable tail latency.
//!
//! * [`proto`] — the newline-delimited JSON protocol: a total, strict
//!   request parser that lowers wire requests onto engine
//!   [`Query`](rvhpc_core::engine::Query)/[`Plan`](rvhpc_core::engine::Plan)s
//!   (presets plus custom-machine what-if descriptors) and structured
//!   error replies.
//! * [`batch`] — sharded workers: bounded admission queues, one
//!   persistent [`rvhpc_parallel::Pool`] per shard, concurrent requests
//!   merged into single engine batches (identical queries dedup to one
//!   computation).
//! * [`server`] — the nonblocking reactor: readiness-polled
//!   ([`poll`], epoll on Linux) per-core acceptor shards, incremental
//!   NDJSON frame reads into per-connection buffers (no hard connection
//!   cap, no thread per connection), per-request deadlines, server
//!   counters (accepted / rejected-at-admission / deadline-expired /
//!   cache hit rate per connection) exported through the
//!   `rvhpc-metrics/1` writer, and graceful drain on SIGTERM/ctrl-C or
//!   an admin `quit` request.
//! * [`poll`] — the thin readiness-polling layer the reactor stands on
//!   (epoll; Linux only) and the crate's every foreign call, plus a
//!   loopback-socket waker for cross-thread completion delivery.
//! * [`cluster`] — horizontal sharding: a seeded consistent-hash ring
//!   over cache-key fingerprints and the router mode (`serve --route
//!   node1,node2,...`) that relays raw request lines to ring owners
//!   with node-kill failover.
//! * [`loadgen`] — the measuring client: replays deterministic request
//!   mixes at a target rate and reports throughput and p50/p95/p99
//!   latency via [`rvhpc_obs::LatencyHistogram`].
//! * [`client`] — the self-healing client: [`client::RetryClient`]
//!   reconnects through drops, retries transient server errors with
//!   capped-exponential seeded-jitter backoff, and honours load-shed
//!   `retry_after_ms` hints; used by the load generator's `--retry`
//!   mode and the chaos e2e suite.
//!
//! Fault injection (`rvhpc_faults`) threads through [`batch`] (worker
//! panics, shard stalls) and [`server`] (torn writes, connection drops,
//! corrupted replies, queue-saturation bursts); recovery counters are
//! exported in a gated `faults` metrics section.
//!
//! The service is dependency-free by construction (std networking, the
//! workspace's own JSON model) — see DESIGN.md §8.

pub mod batch;
pub(crate) mod client;
pub mod cluster;
pub mod loadgen;
pub mod poll;
pub mod proto;
pub mod server;

pub use batch::{AdmissionError, Batcher, Job, JobResult};
pub use client::{ClientConfig, ClientError, ClientStats, RetryClient};
pub use cluster::{Ring, Router, RouterConfig};
pub use loadgen::{ClassMix, ClassReport, LoadReport, LoadgenConfig, Mix, SweepSpec};
pub use proto::{parse_request, ErrorKind, PredictRequest, Priority, ProtoError, Request};
pub use server::{
    drain_requested, install_signal_drain, request_drain, reset_drain, Server, ServerConfig,
};
