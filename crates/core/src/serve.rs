//! The concurrent query-serving layer: classify/posterior/QUERY traffic
//! answered from epoch-consistent snapshots while ingest runs.
//!
//! A [`SnapshotServer`] sits between the monitor layer's
//! [`SnapshotHub`] (where a cluster coordinator publishes
//! [`dsbn_monitor::CounterSnapshot`]s at settlements — see
//! `TrackerConfig::with_publish` / `with_decay`) and any number
//! of query threads. It resolves each published counter snapshot into a
//! query-ready [`CptSnapshot`] exactly once (per sequence number) and
//! caches the result in a second RCU cell, so the reader hot path is two
//! lock-free loads — no lock held, no message sent, no coordination with
//! ingest whatsoever:
//!
//! ```text
//! hub.load()  ──seq unchanged──▶ resolved.load()  ──▶ evaluate
//!      └──seq advanced──▶ resolve reads ──▶ resolved.store ──▶ evaluate
//! ```
//!
//! The resolve step is idempotent — it is a pure function of the
//! published snapshot — so concurrent resolvers racing on `store` are
//! benign: every stored value for a given sequence is identical, and a
//! stale store (a resolver delayed past the next settlement) heals on the
//! next read, which re-resolves because the cached sequence no longer
//! matches the hub's. Shared-`&self` querying means one server handle can
//! be borrowed by N reader threads (`thread::scope`) with zero
//! per-query allocation beyond the query itself.

use crate::layout::CounterLayout;
use crate::snapshot::{CptEvaluator, CptSnapshot};
use crate::tracker::Smoothing;
use arc_swap::ArcSwap;
use dsbn_bayes::BayesianNetwork;
use dsbn_monitor::SnapshotHub;
use std::sync::Arc;

/// Serves queries from the latest published counter snapshot: the read
/// half of the split read/ingest pipeline (DESIGN.md §7).
pub struct SnapshotServer {
    structure: BayesianNetwork,
    layout: CounterLayout,
    smoothing: Smoothing,
    /// Per-epoch decay for resolved reads; `1.0` serves cumulative counts.
    lambda: f64,
    hub: SnapshotHub,
    /// Resolve cache, keyed by the snapshot's publish sequence.
    resolved: ArcSwap<CptSnapshot>,
}

impl SnapshotServer {
    /// A server for cumulative reads (`settled + open` per counter): what
    /// a run with decay disabled or `lambda = 1` (`with_snapshot_every`)
    /// reads.
    pub fn new(net: &BayesianNetwork, smoothing: Smoothing, hub: SnapshotHub) -> Self {
        Self::with_decay(net, smoothing, hub, 1.0)
    }

    /// A server resolving with the run's `lambda`
    /// (`TrackerConfig::decay.lambda`): `lambda^age`-decayed reads over the
    /// settled epoch ring, cumulative at `lambda = 1`.
    pub fn with_decay(
        net: &BayesianNetwork,
        smoothing: Smoothing,
        hub: SnapshotHub,
        lambda: f64,
    ) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0,1], got {lambda}");
        let layout = CounterLayout::new(net);
        let resolved =
            ArcSwap::from_pointee(CptSnapshot::resolve(&hub.load(), layout.n_counters(), lambda));
        SnapshotServer { structure: net.clone(), layout, smoothing, lambda, hub, resolved }
    }

    /// The network structure served.
    pub fn structure(&self) -> &BayesianNetwork {
        &self.structure
    }

    /// Counter addressing.
    pub fn layout(&self) -> &CounterLayout {
        &self.layout
    }

    /// The smoothing mode.
    pub fn smoothing(&self) -> Smoothing {
        self.smoothing
    }

    /// Publish sequence of the snapshot currently served (`0` = nothing
    /// published yet; queries then answer from the uniform prior).
    pub fn seq(&self) -> u64 {
        self.hub.seq()
    }

    /// The current query-ready snapshot: two RCU loads on the hot path; a
    /// resolve + store only on the first read after a new settlement.
    pub fn snapshot(&self) -> Arc<CptSnapshot> {
        let current = self.hub.load();
        let cached = self.resolved.load_full();
        if cached.seq == current.seq {
            return cached;
        }
        let fresh = Arc::new(CptSnapshot::resolve(&current, self.layout.n_counters(), self.lambda));
        self.resolved.store(Arc::clone(&fresh));
        fresh
    }

    /// The pure evaluator over a snapshot obtained from
    /// [`Self::snapshot`] — for callers batching several queries against
    /// one consistent state.
    pub fn evaluator<'a>(&'a self, snap: &'a CptSnapshot) -> CptEvaluator<'a, CptSnapshot> {
        CptEvaluator::new(&self.structure, &self.layout, snap, self.smoothing)
    }

    /// Classify `target` given full evidence in `x` against the latest
    /// snapshot (§V).
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        let snap = self.snapshot();
        self.evaluator(&snap).classify(target, x)
    }

    /// Posterior over `target` given full evidence, latest snapshot.
    pub fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
        let snap = self.snapshot();
        self.evaluator(&snap).posterior(target, x)
    }

    /// `log P~[x]` against the latest snapshot (Algorithm 3).
    pub fn log_query(&self, x: &[usize]) -> f64 {
        let snap = self.snapshot();
        self.evaluator(&snap).log_query(x)
    }

    /// `P~[x]` against the latest snapshot.
    pub fn query(&self, x: &[usize]) -> f64 {
        self.log_query(x).exp()
    }
}

impl std::fmt::Debug for SnapshotServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotServer")
            .field("network", &self.structure.name())
            .field("seq", &self.seq())
            .field("lambda", &self.lambda)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{build_tracker, TrackerConfig};
    use crate::allocation::Scheme;
    use crate::cluster::run_cluster_tracker;
    use dsbn_bayes::sprinkler_network;
    use dsbn_datagen::TrainingStream;

    #[test]
    fn fresh_server_answers_from_the_uniform_prior() {
        let net = sprinkler_network();
        let server = SnapshotServer::new(&net, Smoothing::Pseudocount(0.5), SnapshotHub::new());
        assert_eq!(server.seq(), 0);
        let mut x = vec![0usize, 0, 0, 0];
        let p = server.posterior(2, &mut x);
        assert!((p[0] - 0.5).abs() < 1e-12 && (p[1] - 0.5).abs() < 1e-12);
        assert!(server.log_query(&[0, 0, 0, 0]).is_finite());
    }

    #[test]
    fn final_snapshot_queries_equal_the_end_of_run_model() {
        // The acceptance anchor at unit scale: a cluster run publishing to
        // a hub must leave the server answering byte-identically to the
        // ClusterModel the run returned.
        let net = sprinkler_network();
        let hub = SnapshotHub::new();
        let tc =
            TrackerConfig::new(Scheme::ExactMle).with_k(3).with_seed(11).with_publish(hub.clone());
        let server = SnapshotServer::new(&net, tc.smoothing, hub);
        let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 5).take(4_000))
            .expect("cluster run failed");
        assert_eq!(server.seq(), 1);
        assert!(server.snapshot().finalized);
        for x in TrainingStream::new(&net, 8).take(25) {
            assert_eq!(server.log_query(&x).to_bits(), run.model.log_query(&x).to_bits());
        }
        let mut x = vec![1usize, 0, 0, 1];
        let mut x2 = x.clone();
        assert_eq!(server.classify(2, &mut x), run.model.classify(2, &mut x2));
    }

    #[test]
    fn resolve_cache_returns_the_same_snapshot_until_a_new_publish() {
        let net = sprinkler_network();
        let hub = SnapshotHub::new();
        let tc = TrackerConfig::new(Scheme::ExactMle)
            .with_k(2)
            .with_seed(3)
            .with_snapshot_every(500)
            .with_publish(hub.clone());
        let server = SnapshotServer::new(&net, tc.smoothing, hub);
        let before = server.snapshot();
        assert_eq!(before.seq, 0);
        // Cached: identical Arc until the hub advances.
        assert!(Arc::ptr_eq(&before, &server.snapshot()));
        run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 5).take(2_000))
            .expect("cluster run failed");
        let after = server.snapshot();
        assert!(after.seq > before.seq);
        assert!(after.finalized);
        assert!(Arc::ptr_eq(&after, &server.snapshot()));
    }

    #[test]
    fn a_reused_hub_keeps_counting_up() {
        // Two runs on one hub, one server. The resolve cache is keyed by
        // publish sequence, so a second run that restarted the sequence
        // would end on a number the server has already cached and leave it
        // serving the first run's model.
        let net = sprinkler_network();
        let hub = SnapshotHub::new();
        let tc = TrackerConfig::new(Scheme::ExactMle)
            .with_k(2)
            .with_snapshot_every(500)
            .with_publish(hub.clone());
        let server = SnapshotServer::new(&net, tc.smoothing, hub.clone());
        let run = |stream_seed| {
            run_cluster_tracker(&net, &tc, TrainingStream::new(&net, stream_seed).take(2_000))
                .expect("cluster run failed")
                .model
        };
        let probe = [1usize, 0, 1, 1];
        let first = run(5);
        let seq_after_first = hub.seq();
        assert_eq!(server.log_query(&probe).to_bits(), first.log_query(&probe).to_bits());
        let second = run(77);
        assert!(hub.seq() > seq_after_first, "sequence restarted: {}", hub.seq());
        assert_ne!(first.log_query(&probe).to_bits(), second.log_query(&probe).to_bits());
        assert_eq!(server.log_query(&probe).to_bits(), second.log_query(&probe).to_bits());
    }

    #[test]
    fn sim_tracker_snapshot_freezes_live_answers() {
        let net = sprinkler_network();
        let mut t = build_tracker(&net, &TrackerConfig::new(Scheme::NonUniform).with_k(4));
        t.train(TrainingStream::new(&net, 21), 10_000);
        let (snap, layout, smoothing) = match &t {
            crate::AnyTracker::Randomized(t) => (t.snapshot(), t.layout(), t.smoothing()),
            _ => unreachable!(),
        };
        let eval = CptEvaluator::new(&net, layout, &snap, smoothing);
        for x in TrainingStream::new(&net, 22).take(25) {
            assert_eq!(eval.log_query(&x).to_bits(), t.log_query(&x).to_bits());
        }
        assert_eq!(snap.events, 10_000);
        assert!(snap.exact.is_some());
    }
}
