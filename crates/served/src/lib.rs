//! `served` — the `gensor serve` daemon and its client.
//!
//! A long-running compilation service in front of the shared
//! [`schedcache::ScheduleCache`]: clients send operators over a
//! Unix-domain socket and get compiled kernels back, so every process on
//! a machine shares one cache, one single-flight domain, and one
//! persistent store. See DESIGN.md §8 for the wire protocol, admission
//! control, and drain semantics.
//!
//! Layers:
//! * [`endpoint`] — the transport layer: Unix-socket or TCP
//!   (`tcp://host:port`) addresses, listeners, and streams.
//! * [`proto`] — versioned, length-prefixed JSON frames.
//! * [`server`] — accept loop, inline hits, admitted misses on parked
//!   build threads shared process-wide, admission gate, graceful drain.
//! * [`client`] — blocking client with retries, plus the per-peer
//!   transport [`Breaker`] the cache fabric routes around. The
//!   [`simgpu::Tuner`] over daemons is `fabric::FabricClient`.
//! * [`metrics`] — server counters and latency percentiles.

pub mod client;
pub mod endpoint;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{Breaker, BreakerConfig, BreakerState, Client, ClientConfig, ClientError};
pub use endpoint::{Endpoint, Listener, Stream};
pub use metrics::ServeStats;
pub use proto::{
    ErrKind, FrameError, Request, Response, WireEntry, WireEvent, WireKernel, WireOutcome,
    MAX_PULL_KEYS, PROTO_VERSION,
};
pub use server::{DrainReport, MethodRegistry, Server, ServerConfig, ServerHandle};
