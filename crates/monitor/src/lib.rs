//! # dsbn-monitor — continuous distributed monitoring runtimes
//!
//! The continuous distributed monitoring model of the paper (§I, \[12\],
//! \[20\]):  `k` sites each observe a local stream; a coordinator, which
//! receives no input of its own, cooperates with the sites to maintain
//! global statistics and answer queries, with communication as the cost
//! metric.
//!
//! Two runtimes execute the counter protocols of `dsbn-counters`:
//!
//! - [`sim::CounterArray`] — deterministic single-threaded simulation with
//!   instantaneous delivery; drives the paper's simulated experiments.
//! - [`cluster::run_cluster`] — a live runtime with one OS thread per site
//!   and a coordinator thread over a pluggable [`transport::Transport`]
//!   (in-process links by default, Unix-domain sockets via
//!   [`transport::UdsTransport`]; the stand-in for the paper's EC2
//!   cluster; see DESIGN.md §3/§6), with chunked cross-event ingest
//!   (`EventChunk` slabs on bounded feed lanes, one blocking inbox per
//!   site, multi-event wire packets with one report per counter on the
//!   up channel, flush-before-control coalescing), the
//!   `dsbn_counters::wire` frame encoding on every link, and a
//!   deterministic quiescence handshake at shutdown (no wall-clock drain
//!   timeouts). Decode failures surface as typed
//!   [`transport::ClusterError`]s, never panics.
//!
//! Plus [`partition`] (uniform / round-robin / Zipf event routing),
//! [`metrics::MessageStats`] (paper-convention message accounting), and
//! [`snapshot`] — epoch-consistent [`snapshot::CounterSnapshot`]s the
//! coordinator mints at settlements and publishes through the RCU
//! [`snapshot::SnapshotHub`], so query threads read a Definition-2-
//! consistent state concurrently with ingest (DESIGN.md §7).

pub mod cluster;
pub mod metrics;
pub mod partition;
pub mod sim;
pub mod snapshot;
pub mod transport;

pub use cluster::{
    run_cluster, run_cluster_on, ChurnReport, ClusterConfig, ClusterReport, SiteFault,
};
pub use dsbn_datagen::{chunk_events, EventChunk};
pub use metrics::MessageStats;
pub use partition::{Partitioner, SiteAssigner};
pub use sim::CounterArray;
pub use snapshot::{CounterSnapshot, SnapshotHub};
#[cfg(unix)]
pub use transport::UdsTransport;
pub use transport::{
    ChannelTransport, ClusterError, DownLane, DownPacket, DownSender, Fabric, LinkClosed,
    Transport, UpPacket, UpSender,
};
