//! # dsbn-core — distributed streaming MLE approximation
//!
//! The paper's contribution (Zhang, Tirthapura & Cormode, *Learning
//! Graphical Models from a Distributed Stream*, ICDE 2018): continuously
//! maintain the parameters of a Bayesian network over a stream of events
//! partitioned across `k` sites, keeping the maintained joint distribution
//! within `e^{±eps}` of the exact MLE (Definition 2) while communicating
//! exponentially less than exact maintenance.
//!
//! - [`allocation`] — the BASELINE / UNIFORM / NONUNIFORM error-budget
//!   schemes (§IV-C/D/E), including the Lagrange closed form of Eq. 7/8 and
//!   a numeric solver that validates it.
//! - [`layout`] — dense counter addressing for the `A_i(x, u)` / `A_i(u)`
//!   counter banks.
//! - [`tracker`] — Algorithms 1–3: INIT / UPDATE / QUERY over any counter
//!   protocol, plus Markov-blanket classification (§V). The one tracker:
//!   the paper's is its never-rolling case, epoch decay its general one.
//! - [`algorithms`] — one-call constructors for EXACTMLE / BASELINE /
//!   UNIFORM / NONUNIFORM.
//! - [`cluster`] — the same trackers on the live threaded cluster runtime
//!   ([`cluster::run_cluster_tracker`]): UPDATE on site threads, QUERY at
//!   the coordinator (Figs. 7–8).
//! - [`snapshot`] — the pure read path split from ingest: the shared
//!   [`snapshot::CptEvaluator`] every tracker's query methods delegate
//!   to, and the frozen query-ready [`snapshot::CptSnapshot`].
//! - [`serve`] — the concurrent query-serving layer:
//!   [`serve::SnapshotServer`] answers classify/posterior/QUERY traffic
//!   from epoch-consistent snapshots, lock-free, while a cluster run
//!   ingests (DESIGN.md §7).
//! - [`median`] — median-of-instances delta-amplification (Theorem 1).
//! - [`decay`] — time-decayed tracking (the paper's future work (2)):
//!   the centralized [`decay::DecayedMle`] baseline and the
//!   [`decay::EpochDecayConfig`] that turns the tracker above — sim or
//!   cluster — into the *distributed* epoch-ring tracker
//!   ([`TrackerConfig::with_decay`]).
//! - [`evaluate`] — §VI metrics (error to truth, error to MLE,
//!   classification error rate).
//!
//! ## Quick start
//!
//! ```
//! use dsbn_core::{build_tracker, Scheme, TrackerConfig};
//! use dsbn_bayes::sprinkler_network;
//! use dsbn_datagen::TrainingStream;
//!
//! let net = sprinkler_network();
//! let mut tracker = build_tracker(&net, &TrackerConfig::new(Scheme::NonUniform)
//!     .with_eps(0.1)
//!     .with_k(8));
//! tracker.train(TrainingStream::new(&net, 42), 10_000);
//! let p = tracker.query(&[1, 0, 1, 1]);
//! assert!(p > 0.0 && p < 1.0);
//! println!("P ~= {p}, messages = {}", tracker.stats().total());
//! ```

pub mod algorithms;
pub mod allocation;
pub mod cluster;
pub mod decay;
pub mod evaluate;
pub mod layout;
pub mod median;
pub mod serve;
pub mod snapshot;
pub mod tracker;

pub use algorithms::{build_deterministic_tracker, build_tracker, AnyTracker, TrackerConfig};
pub use allocation::{allocate, gamma_exponent, EpsAllocation, Scheme};
pub use cluster::{run_cluster_tracker, ClusterModel, ClusterTrackerRun};
pub use decay::{DecayConfig, DecayedMle, EpochDecayConfig};
pub use dsbn_monitor::SnapshotHub;
pub use evaluate::{
    classification_error_rate, errors_to_truth, query_errors, sampled_kl, ErrorSummary,
};
pub use layout::CounterLayout;
pub use median::{instances_for_delta, MedianTracker};
pub use serve::SnapshotServer;
pub use snapshot::{CounterReads, CptEvaluator, CptSnapshot, ExactReads};
pub use tracker::{BnTracker, Smoothing};
