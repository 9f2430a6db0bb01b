//! The only file that names a `dsbn_*` crate. Everything the benchmark
//! calls in the program under test is re-exported here, so a PR that moves
//! or renames one of these items breaks exactly this file — and needs a
//! benchmark PR first (see README.md, "Public surface").

#[cfg(test)]
pub use dsbn_bayes::sprinkler_network;
pub use dsbn_bayes::{BayesianNetwork, NetworkSpec};
pub use dsbn_core::algorithms::per_counter_eps;
pub use dsbn_core::{
    allocate, build_tracker, run_cluster_tracker, ClusterTrackerRun, CounterLayout, CptEvaluator,
    CptSnapshot, ExactReads, Scheme, SnapshotHub, SnapshotServer, TrackerConfig,
};
pub use dsbn_counters::msg::UpMsg;
pub use dsbn_counters::protocol::SingleCounterSim;
pub use dsbn_counters::wire::{encode_event, visit_packet};
pub use dsbn_counters::HyzProtocol;
pub use dsbn_datagen::{EventChunk, TrainingStream};
pub use dsbn_monitor::{CounterArray, MessageStats, SiteAssigner};

/// What [`build_tracker`] returns; the harness calls its methods only and
/// never names a variant.
pub type Tracker = dsbn_core::AnyTracker;
