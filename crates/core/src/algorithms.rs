//! Algorithm constructors: EXACTMLE, BASELINE, UNIFORM, NONUNIFORM
//! (Algorithm 1's INIT with the scheme-specific `epsfnA`/`epsfnB`), plus the
//! deterministic-counter variants used by the counter ablation.

use crate::allocation::{allocate, EpsAllocation, Scheme};
use crate::decay::EpochDecayConfig;
use crate::layout::CounterLayout;
use crate::tracker::{BnTracker, Smoothing};
use dsbn_bayes::classify::CpdSource;
use dsbn_bayes::network::Assignment;
use dsbn_bayes::BayesianNetwork;
use dsbn_counters::protocol::CounterProtocol;
use dsbn_counters::{DeterministicProtocol, ExactProtocol, HyzProtocol};
use dsbn_monitor::{MessageStats, Partitioner, SiteFault, SnapshotHub};

/// Common tracker parameters (paper defaults: `eps = 0.1`, `k = 30`,
/// uniform random routing).
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    /// Which algorithm builds the tracker.
    pub scheme: Scheme,
    /// Overall approximation factor `eps` (ignored by EXACTMLE).
    pub eps: f64,
    /// Number of sites `k`.
    pub k: usize,
    /// RNG seed (site routing + counter randomness).
    pub seed: u64,
    /// Event routing.
    pub partitioner: Partitioner,
    /// Conditional-probability smoothing.
    pub smoothing: Smoothing,
    /// Cluster ingest chunk size: events per driver → site send and per
    /// site packet flush (`dsbn_monitor::ClusterConfig::chunk`). Ignored
    /// by the synchronous simulator, whose internal training chunks are
    /// bit-identical at any size. `1` is the per-event pipeline.
    pub chunk: usize,
    /// Snapshot publish hub for the cluster runtime: when set, the
    /// coordinator publishes epoch-consistent counter snapshots here at
    /// every settlement and the driver publishes the finalized state at
    /// shutdown, for concurrent query serving through
    /// [`crate::serve::SnapshotServer`]. Ignored by the synchronous
    /// simulator (freeze a [`crate::BnTracker`] via
    /// [`crate::BnTracker::snapshot`] instead).
    pub publish: Option<SnapshotHub>,
    /// Epoch-ring decay (`crate::decay`): every `boundary` events the open
    /// epoch closes with an exact settlement — on the cluster also a
    /// mid-stream snapshot mint point — and reads weight closed epochs by
    /// `lambda^age`. [`EpochDecayConfig::disabled`] — the default — never
    /// rolls: the paper's tracker, minting only the final snapshot.
    pub decay: EpochDecayConfig,
    /// Site crash/rejoin fault schedule for the cluster runtime
    /// (`dsbn_monitor::ClusterConfig::faults`): each [`SiteFault`] kills a
    /// site once its local stream passes `kill_at` events and optionally
    /// revives it at `revive_at`. Empty — the default — runs fault-free.
    /// Build seeded random schedules with [`SiteFault::schedule`]. Ignored
    /// by the synchronous simulator.
    pub faults: Vec<SiteFault>,
}

/// Epoch-ring capacity behind [`TrackerConfig::with_snapshot_every`]: its
/// `lambda = 1` reads are cumulative and never touch the ring, so a short
/// one suffices.
const SNAPSHOT_RING: usize = 8;

impl TrackerConfig {
    /// Paper defaults for a given scheme.
    pub fn new(scheme: Scheme) -> Self {
        TrackerConfig {
            scheme,
            eps: 0.1,
            k: 30,
            seed: 1,
            partitioner: Partitioner::UniformRandom,
            smoothing: Smoothing::default(),
            chunk: 256,
            publish: None,
            decay: EpochDecayConfig::disabled(),
            faults: Vec::new(),
        }
    }

    /// Builder-style overrides.
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Set the number of sites.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the partitioner.
    pub fn with_partitioner(mut self, p: Partitioner) -> Self {
        self.partitioner = p;
        self
    }

    /// Set the smoothing mode.
    pub fn with_smoothing(mut self, s: Smoothing) -> Self {
        self.smoothing = s;
        self
    }

    /// Set the cluster ingest chunk size (events per channel send / packet
    /// flush; `1` is the per-event pipeline).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Publish counter snapshots to `hub` during cluster runs (see
    /// [`Self::publish`]).
    pub fn with_publish(mut self, hub: SnapshotHub) -> Self {
        self.publish = Some(hub);
        self
    }

    /// Roll epochs per `decay` (see [`Self::decay`]).
    pub fn with_decay(mut self, decay: EpochDecayConfig) -> Self {
        self.decay = decay;
        self
    }

    /// Mint a mid-stream snapshot every `every` events with no decay
    /// semantics: shorthand for a `lambda = 1` epoch roll, whose reads are
    /// the cumulative `settled + open` counts.
    pub fn with_snapshot_every(self, every: u64) -> Self {
        self.with_decay(EpochDecayConfig::new(1.0, every, SNAPSHOT_RING))
    }

    /// Inject a site crash/rejoin schedule into cluster runs (see
    /// [`Self::faults`]).
    pub fn with_faults(mut self, faults: Vec<SiteFault>) -> Self {
        self.faults = faults;
        self
    }
}

/// A tracker built by any of the paper's algorithms (plus the
/// deterministic-counter ablation variant), with a uniform interface.
pub enum AnyTracker {
    /// Exact counters (EXACTMLE).
    Exact(BnTracker<ExactProtocol>),
    /// Randomized HYZ counters (BASELINE / UNIFORM / NONUNIFORM).
    Randomized(BnTracker<HyzProtocol>),
    /// Deterministic threshold counters with the same allocation
    /// (ablation only — not part of the paper's algorithm suite).
    Deterministic(BnTracker<DeterministicProtocol>),
}

/// Per-counter error budgets in layout order for an approximate scheme.
pub fn per_counter_eps(layout: &CounterLayout, alloc: &EpsAllocation) -> Vec<f64> {
    layout.per_counter(&alloc.family_eps, &alloc.parent_eps)
}

/// One HYZ protocol instance per counter under `scheme`'s error-budget
/// allocation — the INIT step the simulator and cluster constructors
/// share, so a change to the allocation plumbing lands in exactly one
/// place.
pub(crate) fn hyz_protocols(
    net: &BayesianNetwork,
    layout: &CounterLayout,
    scheme: Scheme,
    eps: f64,
) -> Vec<HyzProtocol> {
    let alloc = allocate(scheme, net, eps);
    per_counter_eps(layout, &alloc).into_iter().map(HyzProtocol::new).collect()
}

/// INIT (Algorithm 1) over explicit per-counter protocols: everything but
/// the protocols comes from `config`.
fn tracker_over<P: CounterProtocol>(
    net: &BayesianNetwork,
    protocols: Vec<P>,
    config: &TrackerConfig,
) -> BnTracker<P> {
    BnTracker::new(net, protocols, config.k, config.partitioner, config.seed, config.smoothing)
        .with_decay(config.decay)
}

/// Build a tracker per the paper's Algorithm 1 with the scheme's
/// `epsfnA`/`epsfnB`.
pub fn build_tracker(net: &BayesianNetwork, config: &TrackerConfig) -> AnyTracker {
    let layout = CounterLayout::new(net);
    match config.scheme {
        Scheme::ExactMle => {
            AnyTracker::Exact(tracker_over(net, vec![ExactProtocol; layout.n_counters()], config))
        }
        scheme => AnyTracker::Randomized(tracker_over(
            net,
            hyz_protocols(net, &layout, scheme, config.eps),
            config,
        )),
    }
}

/// Ablation: the same allocation driving deterministic threshold counters
/// instead of randomized ones. Panics for [`Scheme::ExactMle`].
pub fn build_deterministic_tracker(net: &BayesianNetwork, config: &TrackerConfig) -> AnyTracker {
    let layout = CounterLayout::new(net);
    let alloc = allocate(config.scheme, net, config.eps);
    let protocols: Vec<DeterministicProtocol> =
        per_counter_eps(&layout, &alloc).into_iter().map(DeterministicProtocol::new).collect();
    AnyTracker::Deterministic(tracker_over(net, protocols, config))
}

macro_rules! delegate {
    ($self:ident, $t:ident => $body:expr) => {
        match $self {
            AnyTracker::Exact($t) => $body,
            AnyTracker::Randomized($t) => $body,
            AnyTracker::Deterministic($t) => $body,
        }
    };
}

impl AnyTracker {
    /// Observe one event (UPDATE).
    pub fn observe(&mut self, x: &[usize]) {
        delegate!(self, t => t.observe(x))
    }

    /// Feed `m` events from a stream.
    pub fn train<I: Iterator<Item = Assignment>>(&mut self, stream: I, m: u64) {
        delegate!(self, t => t.train(stream, m))
    }

    /// Observe a whole pre-built [`dsbn_datagen::EventChunk`] (the bulk
    /// UPDATE path: one `map_chunk` sweep, then the per-event counter
    /// sweeps — bit-identical to observing each event).
    pub fn observe_chunk(&mut self, chunk: &dsbn_datagen::EventChunk) {
        delegate!(self, t => t.observe_chunk(chunk))
    }

    /// `log P~[x]` (QUERY in log space).
    pub fn log_query(&self, x: &[usize]) -> f64 {
        delegate!(self, t => t.log_query(x))
    }

    /// `P~[x]` (QUERY).
    pub fn query(&self, x: &[usize]) -> f64 {
        delegate!(self, t => t.query(x))
    }

    /// `log P^[x]` of the exact (epoch-decayed) MLE over the same stream
    /// — the reference of Definition 2 (oracle).
    pub fn exact_log_query(&self, x: &[usize]) -> f64 {
        delegate!(self, t => t.exact_log_query(x))
    }

    /// Classify `target` given evidence `x` (§V).
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        delegate!(self, t => t.classify(target, x))
    }

    /// Posterior distribution over `target` given full evidence in `x`.
    pub fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
        delegate!(self, t => t.posterior(target, x))
    }

    /// Counter estimates for one CPD entry: `(A_i(x, u), A_i(u))`.
    pub fn counter_pair(&self, i: usize, value: usize, u: usize) -> (f64, f64) {
        delegate!(self, t => t.counter_pair(i, value, u))
    }

    /// Exact global count of a family counter (test oracle).
    pub fn exact_family_count(&self, i: usize, value: usize, u: usize) -> u64 {
        delegate!(self, t => t.exact_family_count(i, value, u))
    }

    /// Exact global count of a parent counter (test oracle).
    pub fn exact_parent_count(&self, i: usize, u: usize) -> u64 {
        delegate!(self, t => t.exact_parent_count(i, u))
    }

    /// Communication so far.
    pub fn stats(&self) -> MessageStats {
        delegate!(self, t => t.stats())
    }

    /// Events observed.
    pub fn events(&self) -> u64 {
        delegate!(self, t => t.events())
    }

    /// Epochs closed (always 0 with decay disabled).
    pub fn epochs(&self) -> u64 {
        delegate!(self, t => t.epochs())
    }

    /// The network structure tracked.
    pub fn structure(&self) -> &BayesianNetwork {
        delegate!(self, t => t.structure())
    }
}

impl CpdSource for AnyTracker {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        delegate!(self, t => t.cond_prob(i, value, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsbn_bayes::{sprinkler_network, NetworkSpec};
    use dsbn_datagen::TrainingStream;

    #[test]
    fn all_schemes_build_and_train() {
        let net = sprinkler_network();
        for scheme in Scheme::ALL {
            let mut t = build_tracker(&net, &TrackerConfig::new(scheme).with_k(4).with_eps(0.2));
            t.train(TrainingStream::new(&net, 5), 2000);
            assert_eq!(t.events(), 2000);
            let x = vec![1usize, 0, 1, 1];
            let q = t.query(&x);
            assert!(q.is_finite() && q > 0.0, "{}: query {q}", scheme.name());
        }
    }

    #[test]
    fn approximate_schemes_cut_communication() {
        // At 50K events on ALARM the paper's Table III reports roughly a 9x
        // gap between EXACTMLE and BASELINE and ~11x for UNIFORM /
        // NONUNIFORM; assert the same ordering with slack. (At very small m
        // all algorithms cost alike — Fig. 6 — so m must be large enough.)
        let net = NetworkSpec::alarm().generate(1).unwrap();
        let m = 50_000u64;
        let stream = || TrainingStream::new(&net, 2);
        let mut totals = Vec::new();
        for scheme in Scheme::ALL {
            let mut t = build_tracker(&net, &TrackerConfig::new(scheme).with_k(10));
            t.train(stream(), m);
            totals.push((scheme, t.stats().total()));
        }
        let exact = totals[0].1;
        assert_eq!(exact, 2 * 37 * m); // Lemma 5
        let baseline = totals[1].1;
        let uniform = totals[2].1;
        let nonuniform = totals[3].1;
        // With strictly Lemma-4-faithful counters, per-counter budgets of
        // ~1e-3 leave many ALARM counters exact at 50K events; savings are
        // modest here and grow with m (Fig. 6, `exp_fig6`). For n=37
        // the BASELINE and UNIFORM budgets are within 15% of each other
        // (3n = 111 vs 16 sqrt(n) = 97), matching Table III's near-parity.
        assert!(baseline < exact, "baseline {baseline} vs exact {exact}");
        assert!(uniform < baseline, "uniform {uniform} vs baseline {baseline}");
        assert!(
            (nonuniform as f64) < 1.2 * uniform as f64,
            "non-uniform {nonuniform} vs uniform {uniform}"
        );
    }

    #[test]
    fn communication_grows_sublinearly_with_stream() {
        // The core claim of Fig. 6: EXACTMLE grows linearly in m while the
        // randomized schemes grow logarithmically once counters leave the
        // exact phase. Use a small network so counters accumulate large
        // counts quickly.
        let net = sprinkler_network();
        let cfg = TrackerConfig::new(Scheme::Uniform).with_k(5).with_eps(0.1);
        let mut t = build_tracker(&net, &cfg);
        let mut stream = TrainingStream::new(&net, 8);
        let m = 100_000u64;
        t.train(&mut stream, m);
        let first = t.stats().total();
        t.train(&mut stream, m);
        let second = t.stats().total() - first;
        // Doubling the stream must cost far less than the first half.
        assert!(
            (second as f64) < 0.25 * first as f64,
            "second half {second} vs first half {first}"
        );
        // And the whole run is much cheaper than exact (2 n m per half).
        assert!(t.stats().total() < 2 * 4 * 2 * m / 4);
    }

    #[test]
    fn approximate_query_close_to_exact_mle() {
        let net = sprinkler_network();
        let m = 40_000u64;
        let mut exact = build_tracker(&net, &TrackerConfig::new(Scheme::ExactMle).with_k(5));
        let mut nonuni =
            build_tracker(&net, &TrackerConfig::new(Scheme::NonUniform).with_k(5).with_eps(0.1));
        // Identical streams (same seed).
        exact.train(TrainingStream::new(&net, 9), m);
        nonuni.train(TrainingStream::new(&net, 9), m);
        let x = vec![1usize, 0, 1, 1];
        let le = exact.log_query(&x);
        let ln = nonuni.log_query(&x);
        // e^{-eps} <= P~/P^ <= e^{eps} within noise; allow 3 eps.
        assert!((le - ln).abs() < 0.3, "log ratio {}", (le - ln).abs());
    }

    #[test]
    fn deterministic_ablation_builds() {
        let net = sprinkler_network();
        let mut t = build_deterministic_tracker(
            &net,
            &TrackerConfig::new(Scheme::NonUniform).with_k(4).with_eps(0.2),
        );
        t.train(TrainingStream::new(&net, 4), 5000);
        let x = vec![0usize, 1, 0, 1];
        assert!(t.query(&x) > 0.0);
        assert!(t.stats().total() < 2 * 4 * 5000);
    }

    #[test]
    #[should_panic(expected = "does not allocate")]
    fn deterministic_exact_rejected() {
        let net = sprinkler_network();
        let _ = build_deterministic_tracker(&net, &TrackerConfig::new(Scheme::ExactMle));
    }

    #[test]
    fn posterior_through_any_tracker() {
        let net = sprinkler_network();
        let mut t = build_tracker(&net, &TrackerConfig::new(Scheme::ExactMle).with_k(3));
        t.train(TrainingStream::new(&net, 7), 20_000);
        let mut x = vec![1usize, 0, 0, 1];
        let p = t.posterior(2, &mut x);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[1] > p[0], "rain should dominate given wet grass: {p:?}");
        assert_eq!(t.classify(2, &mut x), 1);
    }

    #[test]
    fn config_builders() {
        let c = TrackerConfig::new(Scheme::Uniform)
            .with_eps(0.25)
            .with_k(12)
            .with_seed(99)
            .with_partitioner(Partitioner::RoundRobin)
            .with_smoothing(Smoothing::None)
            .with_chunk(64);
        assert_eq!(c.eps, 0.25);
        assert_eq!(c.k, 12);
        assert_eq!(c.seed, 99);
        assert_eq!(c.partitioner, Partitioner::RoundRobin);
        assert_eq!(c.smoothing, Smoothing::None);
        assert_eq!(c.chunk, 64);
    }
}
