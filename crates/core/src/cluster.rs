//! The full tracker on the threaded cluster runtime.
//!
//! [`run_cluster_tracker`] lifts Algorithms 1–3 onto
//! [`dsbn_monitor::run_cluster`]: the same [`TrackerConfig`] that drives
//! [`crate::build_tracker`] on the synchronous simulator here drives a live
//! k-site cluster — INIT picks the per-counter protocols from the scheme's
//! error-budget allocation, UPDATE (the event → `2n` counter-ids mapping of
//! Algorithm 2) runs on the site threads, and QUERY (Algorithm 3) is
//! answered at the coordinator from the final counter estimates via
//! [`ClusterModel`]. With [`TrackerConfig::decay`] rolling, epoch rolls
//! travel as `Frame::EpochRoll` broadcasts (the cluster's boundaries are
//! approximate — within channel depth of `B` — while every settlement and
//! the per-epoch oracle stay exact) and the model reads by the same
//! `epoch_read` rule as the simulator tracker.
//!
//! This is the paper's Fig. 7–8 configuration: the headline experiments
//! measure BASELINE/UNIFORM/NONUNIFORM running live on a cluster, not bare
//! counters.

use crate::algorithms::TrackerConfig;
use crate::allocation::Scheme;
use crate::decay::EpochDecayConfig;
use crate::layout::CounterLayout;
use crate::snapshot::{epoch_read, CptEvaluator};
use crate::tracker::Smoothing;
use dsbn_bayes::classify::CpdSource;
use dsbn_bayes::network::Assignment;
use dsbn_bayes::BayesianNetwork;
use dsbn_counters::protocol::CounterProtocol;
use dsbn_counters::ExactProtocol;
use dsbn_monitor::{chunk_events, run_cluster, ClusterConfig, ClusterError, ClusterReport};

/// The model a cluster run leaves behind at the coordinator: a queryable
/// snapshot of the final counter reads — the open epoch's estimates
/// combined with the settled epochs by the run's decay rule — with the
/// same smoothing rules as [`crate::BnTracker`].
///
/// Also carries the exact oracle (reconstructed from site states at
/// shutdown — not visible to a real coordinator) so tests and experiments
/// can check Definition 2's `e^{±eps}` band directly via
/// [`ClusterModel::exact_log_query`].
#[derive(Debug, Clone)]
pub struct ClusterModel {
    structure: BayesianNetwork,
    layout: CounterLayout,
    /// Coordinator reads: the read rule over the open epoch's estimates.
    estimates: Vec<f64>,
    /// Oracle reads: the same rule over the open epoch's exact counts.
    exact_reads: Vec<f64>,
    exact_totals: Vec<u64>,
    smoothing: Smoothing,
}

impl ClusterModel {
    /// The network structure the model maintains parameters for.
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

    /// The pure read-only evaluator over the final coordinator estimates —
    /// every query method below is a thin delegation to it.
    pub fn evaluator(&self) -> CptEvaluator<'_, [f64]> {
        CptEvaluator::new(&self.structure, &self.layout, self.estimates.as_slice(), self.smoothing)
    }

    /// Coordinator estimates for one CPD entry: `(A_i(x, u), A_i(u))`.
    pub fn counter_pair(&self, i: usize, value: usize, u: usize) -> (f64, f64) {
        self.evaluator().counter_pair(i, value, u)
    }

    /// Exact global count of counter `id` over all epochs (test oracle).
    pub fn exact_total(&self, id: usize) -> u64 {
        self.exact_totals[id]
    }

    /// `log P~[x]` — QUERY (Algorithm 3) at the coordinator.
    pub fn log_query(&self, x: &[usize]) -> f64 {
        self.evaluator().log_query(x)
    }

    /// `P~[x]` (prefer [`Self::log_query`] for large `n`).
    pub fn query(&self, x: &[usize]) -> f64 {
        self.evaluator().query(x)
    }

    /// `log P^[x]` of the *exact (epoch-decayed) MLE* over the same
    /// stream, computed from the oracle counts with identical smoothing —
    /// the reference of Definition 2, so
    /// `|log_query(x) - exact_log_query(x)| <= eps` is exactly the paper's
    /// `e^{±eps}` guarantee (closed epochs are settled exactly; the gap is
    /// the open epoch's). Delegates to the same evaluator and the same
    /// read rule as the estimates, so the reference can never drift from
    /// the tracked model's.
    pub fn exact_log_query(&self, x: &[usize]) -> f64 {
        CptEvaluator::new(
            &self.structure,
            &self.layout,
            self.exact_reads.as_slice(),
            self.smoothing,
        )
        .log_query(x)
    }

    /// Classify `target` given full evidence in `x` (the entry at `target`
    /// is ignored), using the tracked parameters (§V).
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        self.evaluator().classify(target, x)
    }

    /// Posterior over `target` given full evidence.
    pub fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
        self.evaluator().posterior(target, x)
    }
}

impl CpdSource for ClusterModel {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        self.evaluator().cond_prob(i, value, u)
    }
}

/// Everything a cluster-tracker run produces: the queryable coordinator
/// model plus the runtime/communication report.
#[derive(Debug, Clone)]
pub struct ClusterTrackerRun {
    /// QUERY-able final model (Algorithm 3 at the coordinator).
    pub model: ClusterModel,
    /// Runtime, message, packet, and byte accounting.
    pub report: ClusterReport,
}

/// Run the full tracker for `config.scheme` over a live threaded cluster.
///
/// The same `TrackerConfig` accepted by [`crate::build_tracker`] runs
/// unchanged here: `k`, `seed`, `partitioner`, `eps`, and `smoothing` all
/// carry over, with events routed to site threads by the partitioner and
/// the `2n` counter increments of Algorithm 2 executed on-site. A
/// `faults` schedule injects seeded site crash/rejoin churn; the returned
/// report's `churn` section accounts for every kill, revive, and lost
/// event. A rolling `decay` settles an epoch every `boundary` events;
/// each settlement is also a mid-stream snapshot mint when `publish` is
/// set.
///
/// Fails with a typed [`ClusterError`] (never a panic or a hung join) when
/// a packet fails to decode, the transport errors, or a `config` value is
/// out of range (e.g. `chunk: 0`) — the last before any event is pulled.
pub fn run_cluster_tracker<I>(
    net: &BayesianNetwork,
    config: &TrackerConfig,
    events: I,
) -> Result<ClusterTrackerRun, ClusterError>
where
    I: Iterator<Item = Assignment>,
{
    let decay =
        EpochDecayConfig::new(config.decay.lambda, config.decay.boundary, config.decay.ring);
    let layout = CounterLayout::new(net);
    let mut cluster = ClusterConfig::new(config.k, config.seed).with_chunk(config.chunk);
    cluster.partitioner = config.partitioner;
    cluster.faults = config.faults.clone();
    if decay.rolls() {
        cluster = cluster.with_epochs(decay.boundary, decay.ring);
    }
    if let Some(hub) = &config.publish {
        cluster = cluster.with_publish(hub.clone());
    }
    let report = match config.scheme {
        Scheme::ExactMle => {
            let protocols = vec![ExactProtocol; layout.n_counters()];
            run_with(&protocols, &cluster, &layout, events)?
        }
        scheme => {
            let protocols = crate::algorithms::hyz_protocols(net, &layout, scheme, config.eps);
            run_with(&protocols, &cluster, &layout, events)?
        }
    };
    // With rolling on, `report.estimates` and `open_epoch_exact_totals`
    // cover only the open epoch; without it they pass through verbatim.
    let read = |open: f64, c: usize| {
        epoch_read(decay.lambda, open, &report.settled_totals, &report.epoch_estimates, c)
    };
    let n = layout.n_counters();
    let model = ClusterModel {
        structure: net.clone(),
        estimates: (0..n).map(|c| read(report.estimates[c], c)).collect(),
        exact_reads: (0..n).map(|c| read(report.open_epoch_exact_totals[c] as f64, c)).collect(),
        exact_totals: report.exact_totals.clone(),
        smoothing: config.smoothing,
        layout,
    };
    Ok(ClusterTrackerRun { model, report })
}

fn run_with<P, I>(
    protocols: &[P],
    cluster: &ClusterConfig,
    layout: &CounterLayout,
    events: I,
) -> Result<ClusterReport, ClusterError>
where
    P: CounterProtocol + Sync,
    I: Iterator<Item = Assignment>,
{
    // Transport the per-event stream to the driver in chunk-sized groups;
    // the driver re-chunks per destination site, so `cluster.chunk` is
    // what governs the wire behavior. `chunk_events` asserts its size, so
    // a zero is clamped here and left for `run_cluster`'s config check to
    // refuse — typed, and before it pulls the first group.
    run_cluster(protocols, cluster, chunk_events(events, cluster.chunk.max(1)), |chunk, ids| {
        layout.map_chunk(chunk, ids)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::build_tracker;
    use dsbn_bayes::sprinkler_network;
    use dsbn_datagen::TrainingStream;

    #[test]
    fn exact_cluster_tracker_equals_sim_tracker() {
        // With exact counters the maintained counts depend only on the
        // event multiset, so the cluster tracker must agree with the
        // simulator tracker bit-for-bit on the same stream.
        let net = sprinkler_network();
        let m = 5_000u64;
        let tc = TrackerConfig::new(Scheme::ExactMle).with_k(4).with_seed(3);
        let mut sim = build_tracker(&net, &tc);
        sim.train(TrainingStream::new(&net, 17), m);
        let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 17).take(m as usize))
            .expect("cluster run failed");
        assert_eq!(run.report.events, m);
        let layout = run.model.layout();
        for i in 0..layout.n_vars() {
            for u in 0..layout.parent_configs(i) {
                for v in 0..layout.cardinality(i) {
                    let (num, den) = run.model.counter_pair(i, v, u);
                    assert_eq!(
                        num,
                        run.model.exact_total(layout.family_id(i, v, u) as usize) as f64
                    );
                    assert_eq!(den, run.model.exact_total(layout.parent_id(i, u) as usize) as f64);
                    let d = (run.model.cond_prob(i, v, u) - sim.cond_prob(i, v, u)).abs();
                    assert!(d < 1e-12, "cpd ({i},{v},{u}) differs by {d}");
                }
            }
        }
        // QUERY at the coordinator matches the sim tracker exactly.
        for x in TrainingStream::new(&net, 99).take(20) {
            let d = (run.model.log_query(&x) - sim.log_query(&x)).abs();
            assert!(d < 1e-12, "log query differs by {d}");
            // And the exact-MLE reference is the model itself here.
            assert!((run.model.log_query(&x) - run.model.exact_log_query(&x)).abs() < 1e-12);
        }
    }

    #[test]
    fn randomized_cluster_tracker_stays_in_band() {
        let net = sprinkler_network();
        let m = 40_000usize;
        let eps = 0.1;
        let tc = TrackerConfig::new(Scheme::NonUniform).with_k(5).with_eps(eps).with_seed(1);
        let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 23).take(m))
            .expect("cluster run failed");
        assert_eq!(run.report.events, m as u64);
        // Sublinear communication compared to exact maintenance (2 n m).
        assert!(run.report.stats.total() < 2 * 4 * m as u64);
        // Definition 2 band against the exact MLE on the same stream.
        for x in TrainingStream::new(&net, 7).take(50) {
            let gap = (run.model.log_query(&x) - run.model.exact_log_query(&x)).abs();
            assert!(gap < 3.0 * eps, "query band violated: {gap}");
        }
    }

    #[test]
    fn zero_chunk_is_a_typed_config_error_before_any_event_is_pulled() {
        let net = sprinkler_network();
        let tc = TrackerConfig { chunk: 0, ..TrackerConfig::new(Scheme::ExactMle).with_k(2) };
        let events = std::iter::from_fn(|| -> Option<Assignment> { panic!("event pulled") });
        let err = run_cluster_tracker(&net, &tc, events).unwrap_err();
        assert!(
            matches!(&err, ClusterError::Protocol { context: "cluster config", detail }
                if detail.contains("chunk")),
            "got {err:?}"
        );
    }

    #[test]
    fn cluster_model_classifies_and_gives_posteriors() {
        let net = sprinkler_network();
        let tc = TrackerConfig::new(Scheme::Uniform).with_k(3).with_eps(0.1).with_seed(2);
        let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 31).take(30_000))
            .expect("cluster run failed");
        let mut x = vec![1usize, 0, 0, 1];
        let p = run.model.posterior(2, &mut x);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[1] > p[0], "rain should dominate given wet grass: {p:?}");
        assert_eq!(run.model.classify(2, &mut x), 1);
    }
}
