//! Time-decayed parameter tracking (the paper's future work (2)).
//!
//! "Consider time-decay models which give higher weight to more recent
//! stream instances." Two implementations live here:
//!
//! - [`DecayedMle`] — centralized per-event exponential decay: an event
//!   observed `d` ticks ago contributes `lambda^d` to its counters. It
//!   sees every event (like EXACTMLE), so it quantifies the *accuracy*
//!   benefit of decay with no communication story.
//! - [`EpochDecayConfig`] — **distributed** decay via the epoch-ring
//!   scheme (`dsbn_monitor::cluster`, DESIGN.md §5), set through
//!   [`crate::TrackerConfig::with_decay`] on the one tracker
//!   ([`crate::build_tracker`] / [`crate::run_cluster_tracker`]). Decay
//!   can't be pushed into the counters directly — the HYZ estimator of
//!   Lemma 4 needs counts to be non-decreasing — so the stream is cut
//!   into epochs of `B` events; within an epoch the unmodified monotone
//!   protocols run (Lemma 4 holds per epoch), each roll closes its epoch
//!   with a *settlement* (every site reports its exact per-epoch counts —
//!   the terminal sync HYZ already ends every round with), the
//!   coordinator keeps a ring of the last `K` settled epochs, and a
//!   decayed count is the `lambda^age`-weighted ring sum plus the open
//!   epoch's live estimate. Closed epochs are thus exact; the `e^{±eps}`
//!   band comes from the open epoch. Communication stays far below
//!   forwarding: per roll, one `EpochRoll` broadcast plus `k`
//!   settlement/ack packets (a `Cumulative` frame per nonzero counter),
//!   and each epoch's counters pay the usual
//!   `O((sqrt(k)/eps + k) log B)`. The paper's tracker is the degenerate
//!   case: one open epoch that never rolls.
//!
//! Under concept drift the decayed models converge to the post-drift
//! distribution at a rate set by the half-life, while the plain MLE stays
//! polluted by pre-drift mass (see `exp_ablation_decay`).

use crate::layout::CounterLayout;
use crate::snapshot::{CounterReads, CptEvaluator};
use crate::tracker::Smoothing;
use dsbn_bayes::classify::CpdSource;
use dsbn_bayes::BayesianNetwork;
use serde::{Deserialize, Serialize};

/// Exponential decay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecayConfig {
    /// Per-event decay factor `lambda` in `(0, 1]`; 1 disables decay.
    pub lambda: f64,
    /// Smoothing for conditional estimates.
    pub smoothing: Smoothing,
}

impl DecayConfig {
    /// Configure via half-life: after `half_life` events a count's weight
    /// has halved.
    pub fn with_half_life(half_life: f64, smoothing: Smoothing) -> Self {
        assert!(half_life > 0.0, "half-life must be positive");
        DecayConfig { lambda: (-std::f64::consts::LN_2 / half_life).exp(), smoothing }
    }
}

/// Centralized exponentially decayed MLE.
pub struct DecayedMle {
    structure: BayesianNetwork,
    layout: CounterLayout,
    counts: Vec<f64>,
    last_tick: Vec<u64>,
    ln_lambda: f64,
    tick: u64,
    smoothing: Smoothing,
    ids_buf: Vec<u32>,
}

impl DecayedMle {
    /// Build over a network structure.
    pub fn new(structure: &BayesianNetwork, config: DecayConfig) -> Self {
        assert!(
            config.lambda > 0.0 && config.lambda <= 1.0,
            "lambda must be in (0,1], got {}",
            config.lambda
        );
        let layout = CounterLayout::new(structure);
        let n = layout.n_counters();
        DecayedMle {
            structure: structure.clone(),
            layout,
            counts: vec![0.0; n],
            last_tick: vec![0; n],
            ln_lambda: config.lambda.ln(),
            tick: 0,
            smoothing: config.smoothing,
            ids_buf: Vec::new(),
        }
    }

    /// Events observed.
    pub fn events(&self) -> u64 {
        self.tick
    }

    /// The tracked structure.
    pub fn structure(&self) -> &BayesianNetwork {
        &self.structure
    }

    /// Observe one event (counts of all other counters implicitly decay).
    pub fn observe(&mut self, x: &[usize]) {
        self.tick += 1;
        let mut ids = std::mem::take(&mut self.ids_buf);
        self.layout.map_event(x, &mut ids);
        for &id in &ids {
            let id = id as usize;
            let dt = self.tick - self.last_tick[id];
            self.counts[id] = self.counts[id] * (self.ln_lambda * dt as f64).exp() + 1.0;
            self.last_tick[id] = self.tick;
        }
        self.ids_buf = ids;
    }

    /// A counter's decayed value as of the current tick.
    pub fn decayed_count(&self, id: usize) -> f64 {
        let dt = self.tick - self.last_tick[id];
        self.counts[id] * (self.ln_lambda * dt as f64).exp()
    }

    /// The pure read-only evaluator over the decayed counts.
    pub fn evaluator(&self) -> CptEvaluator<'_, Self> {
        CptEvaluator::new(&self.structure, &self.layout, self, self.smoothing)
    }

    /// `log P~[x]` under the decayed model — the shared Algorithm 3 in log
    /// space, like every other tracker.
    pub fn log_query(&self, x: &[usize]) -> f64 {
        self.evaluator().log_query(x)
    }

    /// Classify under the decayed model.
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        self.evaluator().classify(target, x)
    }
}

impl CounterReads for DecayedMle {
    fn read(&self, id: usize) -> f64 {
        self.decayed_count(id)
    }
}

impl CpdSource for DecayedMle {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        self.evaluator().cond_prob(i, value, u)
    }
}

/// Epoch-ring decay configuration for the distributed tracker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochDecayConfig {
    /// Per-*epoch* decay factor `lambda` in `(0, 1]`: a closed epoch of
    /// age `a` is weighted `lambda^a`; the open epoch is weighted 1.
    /// `lambda = 1` reads are cumulative over *all* closed epochs.
    pub lambda: f64,
    /// Epoch length `B` in events. `u64::MAX` never rolls — with
    /// `lambda = 1` that is exactly the undecayed tracker.
    pub boundary: u64,
    /// Closed epochs retained in the ring, `K >= 1`. With `lambda < 1`
    /// older epochs are dropped from reads; their weight `lambda^K`
    /// bounds the truncation error.
    pub ring: usize,
}

impl EpochDecayConfig {
    /// Validated constructor.
    pub fn new(lambda: f64, boundary: u64, ring: usize) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0,1], got {lambda}");
        assert!(boundary >= 1, "epoch boundary must be >= 1");
        assert!(ring >= 1, "epoch ring must be >= 1");
        EpochDecayConfig { lambda, boundary, ring }
    }

    /// Decay disabled: one open epoch forever, no reweighting — the
    /// paper's tracker, and the default.
    pub fn disabled() -> Self {
        EpochDecayConfig { lambda: 1.0, boundary: u64::MAX, ring: 1 }
    }

    /// Configure via half-life measured in epochs.
    pub fn with_half_life_epochs(half_life: f64, boundary: u64, ring: usize) -> Self {
        assert!(half_life > 0.0, "half-life must be positive");
        Self::new((-std::f64::consts::LN_2 / half_life).exp(), boundary, ring)
    }

    /// The per-event decay factor a [`DecayedMle`] needs to match this
    /// epoch-granular decay in expectation: `lambda^(1/B)`.
    pub fn per_event_lambda(&self) -> f64 {
        self.lambda.powf(1.0 / self.boundary as f64)
    }

    /// Whether rolling ever happens.
    pub fn rolls(&self) -> bool {
        self.boundary != u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_tracker, run_cluster_tracker, Scheme, TrackerConfig};
    use dsbn_bayes::{sprinkler_network, Cpt, Dag, Variable};
    use dsbn_datagen::{DriftingStream, TrainingStream};

    fn coin(p_one: f64) -> BayesianNetwork {
        let variables = vec![Variable::with_cardinality("X", 2).unwrap()];
        let cpts = vec![Cpt::new(0, 2, vec![], vec![1.0 - p_one, p_one]).unwrap()];
        BayesianNetwork::new("coin", variables, Dag::new(1), cpts).unwrap()
    }

    #[test]
    fn lambda_one_matches_plain_mle() {
        let net = sprinkler_network();
        let mut d = DecayedMle::new(&net, DecayConfig { lambda: 1.0, smoothing: Smoothing::None });
        let events: Vec<_> = TrainingStream::new(&net, 3).take(3000).collect();
        let mut count_s1_c1 = 0u64;
        let mut count_c1 = 0u64;
        for x in &events {
            d.observe(x);
            if x[0] == 1 {
                count_c1 += 1;
                if x[1] == 1 {
                    count_s1_c1 += 1;
                }
            }
        }
        let mle = count_s1_c1 as f64 / count_c1 as f64;
        assert!((d.cond_prob(1, 1, 1) - mle).abs() < 1e-9);
    }

    #[test]
    fn half_life_config() {
        let c = DecayConfig::with_half_life(1000.0, Smoothing::None);
        assert!((c.lambda.powf(1000.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be in (0,1]")]
    fn bad_lambda_rejected() {
        let net = sprinkler_network();
        let _ = DecayedMle::new(&net, DecayConfig { lambda: 1.5, smoothing: Smoothing::None });
    }

    #[test]
    fn decayed_model_adapts_to_drift_faster_than_plain() {
        let before = coin(0.9);
        let after = coin(0.1);
        let cfg = DecayConfig::with_half_life(500.0, Smoothing::Pseudocount(0.5));
        let mut decayed = DecayedMle::new(&before, cfg);
        let mut plain = DecayedMle::new(
            &before,
            DecayConfig { lambda: 1.0, smoothing: Smoothing::Pseudocount(0.5) },
        );
        let stream = DriftingStream::new(&[(&before, 20_000), (&after, 5_000)], 7);
        for x in stream.take(25_000) {
            decayed.observe(&x);
            plain.observe(&x);
        }
        // After the drift, truth is P(X=1) = 0.1.
        let p_decayed = decayed.cond_prob(0, 1, 0);
        let p_plain = plain.cond_prob(0, 1, 0);
        assert!((p_decayed - 0.1).abs() < 0.05, "decayed {p_decayed}");
        // Plain MLE is still dominated by the 20k pre-drift events.
        assert!(p_plain > 0.6, "plain {p_plain}");
    }

    #[test]
    fn decayed_counts_shrink_over_time() {
        let net = coin(1.0);
        let mut d = DecayedMle::new(&net, DecayConfig { lambda: 0.99, smoothing: Smoothing::None });
        d.observe(&[1]);
        let c0 = d.decayed_count(d.layout.family_id(0, 1, 0) as usize);
        for _ in 0..100 {
            d.observe(&[1]);
        }
        // Steady state ~ 1/(1-lambda) = 100.
        let c1 = d.decayed_count(d.layout.family_id(0, 1, 0) as usize);
        assert!(c0 <= 1.0 + 1e-12);
        assert!(c1 > 50.0 && c1 < 100.5, "steady state {c1}");
    }

    #[test]
    fn classify_under_decay() {
        let net = sprinkler_network();
        let mut d =
            DecayedMle::new(&net, DecayConfig::with_half_life(5000.0, Smoothing::Pseudocount(0.5)));
        for x in TrainingStream::new(&net, 2).take(20_000) {
            d.observe(&x);
        }
        let mut x = vec![1usize, 0, 0, 1];
        assert_eq!(d.classify(2, &mut x), 1);
    }

    #[test]
    fn epoch_decay_config_shapes() {
        let c = EpochDecayConfig::new(0.5, 1000, 8);
        assert!((c.per_event_lambda().powf(1000.0) - 0.5).abs() < 1e-12);
        assert!(c.rolls());
        let d = EpochDecayConfig::disabled();
        assert!(!d.rolls());
        assert_eq!(d.lambda, 1.0);
        let h = EpochDecayConfig::with_half_life_epochs(4.0, 100, 4);
        assert!((h.lambda.powf(4.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be in (0,1]")]
    fn epoch_decay_bad_lambda_rejected() {
        let _ = EpochDecayConfig::new(0.0, 100, 4);
    }

    #[test]
    fn distributed_decayed_tracker_adapts_to_drift() {
        // Same drift scenario as the centralized test above, but the
        // decayed model is now maintained *distributed*: exact counters
        // per epoch over 4 sites, ring-decayed at the coordinator.
        let before = coin(0.9);
        let after = coin(0.1);
        let tc = TrackerConfig::new(Scheme::ExactMle).with_k(4).with_seed(9);
        let decay = EpochDecayConfig::new(0.5, 1_000, 16); // half-life 1 epoch
        let mut decayed = build_tracker(&before, &tc.clone().with_decay(decay));
        let mut plain = build_tracker(&before, &tc);
        let stream = DriftingStream::new(&[(&before, 20_000), (&after, 5_000)], 7);
        for x in stream.take(25_000) {
            decayed.observe(&x);
            plain.observe(&x);
        }
        assert_eq!(decayed.epochs(), 25);
        assert_eq!(plain.epochs(), 0);
        let p_decayed = decayed.cond_prob(0, 1, 0);
        let p_plain = plain.cond_prob(0, 1, 0);
        assert!((p_decayed - 0.1).abs() < 0.05, "decayed {p_decayed}");
        assert!(p_plain > 0.6, "plain {p_plain}");
    }

    #[test]
    fn decayed_tracker_estimates_match_oracle_exactly_for_exact_scheme() {
        // With exact counters the open epoch's estimate equals its exact
        // total, so the decayed query must equal the decayed-oracle query
        // to the bit.
        let net = sprinkler_network();
        let tc = TrackerConfig::new(Scheme::ExactMle)
            .with_k(3)
            .with_seed(5)
            .with_decay(EpochDecayConfig::new(0.7, 500, 8));
        let mut t = build_tracker(&net, &tc);
        t.train(TrainingStream::new(&net, 11), 4_200);
        assert_eq!(t.epochs(), 8);
        for x in TrainingStream::new(&net, 13).take(20) {
            assert_eq!(t.log_query(&x).to_bits(), t.exact_log_query(&x).to_bits());
        }
    }

    #[test]
    fn decayed_cluster_run_exact_scheme_matches_oracle() {
        let net = sprinkler_network();
        let tc = TrackerConfig::new(Scheme::ExactMle)
            .with_k(3)
            .with_seed(2)
            .with_decay(EpochDecayConfig::new(0.6, 1_000, 6));
        let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 21).take(5_500))
            .expect("cluster run failed");
        assert_eq!(run.report.events, 5_500);
        assert_eq!(run.report.epochs, 5);
        // Exact counters: closed-epoch estimates equal the per-epoch exact
        // totals, so decayed queries equal the oracle to the bit.
        for x in TrainingStream::new(&net, 23).take(20) {
            assert_eq!(run.model.log_query(&x).to_bits(), run.model.exact_log_query(&x).to_bits());
        }
    }
}
