//! The streaming MLE tracker (Algorithms 1–3 of the paper).
//!
//! A [`BnTracker`] owns one distributed counter per CPD entry and per
//! parent configuration (via [`crate::layout::CounterLayout`]), routes each
//! observed event to a site, increments the event's `2n` counters
//! (UPDATE, Algorithm 2), and answers joint-probability queries from the
//! counter estimates (QUERY, Algorithm 3).
//!
//! It is also the epoch-ring tracker of [`crate::decay`]: the paper's
//! tracker is the one whose single open epoch never rolls
//! ([`EpochDecayConfig::disabled`], the default). With a finite boundary
//! every `B`-th event closes the epoch with an exact settlement, and reads
//! combine the open epoch's live estimate with the settled epochs by the
//! one read rule of [`crate::snapshot::epoch_read`].

use crate::decay::EpochDecayConfig;
use crate::layout::CounterLayout;
use crate::snapshot::{epoch_read, CounterReads, CptEvaluator, CptSnapshot};
use dsbn_bayes::classify::CpdSource;
use dsbn_bayes::network::Assignment;
use dsbn_bayes::BayesianNetwork;
use dsbn_counters::protocol::CounterProtocol;
use dsbn_datagen::EventChunk;
use dsbn_monitor::{CounterArray, MessageStats, Partitioner, SiteAssigner};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Events per internal training chunk: [`BnTracker::train`] maps this
/// many events' counter ids in one bulk CSR sweep before sweeping the
/// counter arrays. Chunking is an internal batching of deterministic work
/// — routing and protocol randomness are drawn per event in stream order
/// — so any chunk size is bit-for-bit identical to the per-event pipeline
/// (`tests/chunked_equivalence.rs`).
const TRAIN_CHUNK: usize = 256;

/// How conditional probabilities are read off the counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Smoothing {
    /// Raw Algorithm 3 ratio `A_i(x,u) / A_i(u)`; falls back to `1/J_i`
    /// when the denominator estimate is not positive.
    None,
    /// Jeffreys-style pseudocounts: `(A_i(x,u) + a) / (A_i(u) + a J_i)`.
    /// Applied identically to the exact and approximate trackers so the
    /// error-to-MLE metric isolates approximation error (§VI-B).
    Pseudocount(f64),
}

impl Default for Smoothing {
    fn default() -> Self {
        Smoothing::Pseudocount(0.5)
    }
}

/// A continuously maintained approximate-MLE model over a distributed
/// stream, generic in the counter protocol.
pub struct BnTracker<P: CounterProtocol> {
    /// Structure (CPTs unused — the tracker never sees ground truth).
    structure: BayesianNetwork,
    layout: CounterLayout,
    array: CounterArray<P>,
    assigner: SiteAssigner,
    rng: SmallRng,
    smoothing: Smoothing,
    decay: EpochDecayConfig,
    /// Exact settled count of every closed epoch, summed per counter: a
    /// roll ends with the sites' exact settlement, so only the open epoch
    /// is a live protocol estimate. Never truncated, unlike `closed`.
    settled: Vec<f64>,
    /// The last `decay.ring` closed epochs' settled counts, oldest first,
    /// epoch-major (the `CounterSnapshot::closed` shape). Empty until the
    /// first roll, so a never-rolling tracker pays nothing for it.
    closed: Vec<Vec<f64>>,
    epochs: u64,
    ids_buf: Vec<u32>,
    events: u64,
}

impl<P: CounterProtocol> BnTracker<P> {
    /// Build a tracker over `k` sites with one protocol instance per
    /// counter, in [`CounterLayout`] id order (use
    /// [`CounterLayout::per_counter`] to expand a per-variable allocation).
    pub fn new(
        structure: &BayesianNetwork,
        protocols: Vec<P>,
        k: usize,
        partitioner: Partitioner,
        seed: u64,
        smoothing: Smoothing,
    ) -> Self {
        let layout = CounterLayout::new(structure);
        assert_eq!(
            protocols.len(),
            layout.n_counters(),
            "one protocol instance per counter required"
        );
        BnTracker {
            structure: structure.clone(),
            array: CounterArray::new(protocols, k),
            settled: vec![0.0; layout.n_counters()],
            layout,
            assigner: SiteAssigner::new(partitioner, k),
            rng: SmallRng::seed_from_u64(seed),
            smoothing,
            decay: EpochDecayConfig::disabled(),
            closed: Vec::new(),
            epochs: 0,
            ids_buf: Vec::new(),
            events: 0,
        }
    }

    /// Roll epochs per `decay` (set before the first event). Routing and
    /// protocol randomness are untouched, so until the first boundary the
    /// tracker is bit-for-bit the never-rolling one.
    pub fn with_decay(mut self, decay: EpochDecayConfig) -> Self {
        assert_eq!(self.events, 0, "set the decay configuration before observing events");
        self.decay = EpochDecayConfig::new(decay.lambda, decay.boundary, decay.ring);
        self
    }

    /// The network structure the tracker maintains parameters for.
    pub fn structure(&self) -> &BayesianNetwork {
        &self.structure
    }

    /// Counter addressing.
    pub fn layout(&self) -> &CounterLayout {
        &self.layout
    }

    /// Events observed so far (all epochs).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Epochs closed so far (always 0 with decay disabled).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Communication so far, cumulative across epochs (paper message
    /// accounting; roll control frames count bytes only).
    pub fn stats(&self) -> MessageStats {
        self.array.stats()
    }

    /// The smoothing mode.
    pub fn smoothing(&self) -> Smoothing {
        self.smoothing
    }

    /// Observe one event: route it to a site (uniformly at random by
    /// default, per §VI-A) and increment its `2n` counters (Algorithm 2).
    pub fn observe(&mut self, x: &[usize]) {
        let site = self.assigner.assign(&mut self.rng);
        self.observe_at(site, x);
    }

    /// Observe an event at an explicit site: the `2n` counter updates of
    /// Algorithm 2 run as one batched sweep over the site's state
    /// ([`CounterArray::observe_event`]), accounted as a single bundled
    /// wire packet.
    pub fn observe_at(&mut self, site: usize, x: &[usize]) {
        debug_assert!(self.structure.check_assignment(x).is_ok());
        let mut ids = std::mem::take(&mut self.ids_buf);
        self.layout.map_event(x, &mut ids);
        self.array.observe_event(site, &ids, &mut self.rng);
        self.ids_buf = ids;
        self.events += 1;
        if self.events.is_multiple_of(self.decay.boundary) {
            self.roll_epoch();
        }
    }

    /// Observe a whole [`EventChunk`]: one bulk CSR sweep maps every
    /// event's `2n` counter ids into a reused scratch buffer
    /// ([`CounterLayout::map_chunk`]), then the counter array sweeps the
    /// flat id slab event by event ([`CounterArray::observe_chunk`]) —
    /// routing and protocol randomness interleave per event exactly as in
    /// [`Self::observe`], so the result is bit-for-bit the per-event
    /// pipeline's. An epoch boundary inside the chunk splits the slab
    /// there (mapping is layout-only, so the upfront sweep is unaffected
    /// by the roll's state reset); with decay disabled the boundary is
    /// never reached and the whole slab is one bulk call.
    pub fn observe_chunk(&mut self, chunk: &EventChunk) {
        if chunk.is_empty() {
            return;
        }
        let mut ids = std::mem::take(&mut self.ids_buf);
        self.layout.map_chunk(chunk, &mut ids);
        let stride = 2 * self.layout.n_vars();
        let mut rest = ids.as_slice();
        while !rest.is_empty() {
            let to_boundary = self.decay.boundary - self.events % self.decay.boundary;
            let take = to_boundary.min((rest.len() / stride) as u64);
            let (piece, tail) = rest.split_at(take as usize * stride);
            self.array.observe_chunk(&mut self.assigner, piece, stride, &mut self.rng);
            self.events += take;
            if take == to_boundary {
                self.roll_epoch();
            }
            rest = tail;
        }
        self.ids_buf = ids;
    }

    /// Feed `m` events from a stream, in internal chunks of
    /// `TRAIN_CHUNK` events (bit-identical to observing each event
    /// individually; the chunking only amortizes per-event mapping costs).
    pub fn train<I: Iterator<Item = Assignment>>(&mut self, stream: I, m: u64) {
        let mut stream = stream.take(m as usize);
        let mut chunk = EventChunk::with_capacity(self.layout.n_vars(), TRAIN_CHUNK);
        loop {
            chunk.clear();
            while chunk.len() < TRAIN_CHUNK {
                match stream.next() {
                    Some(x) => {
                        debug_assert!(self.structure.check_assignment(&x).is_ok());
                        chunk.push(&x);
                    }
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }
            self.observe_chunk(&chunk);
        }
    }

    /// Close the open epoch. Settlement: the epoch enters the books as
    /// its exact total — what the sites' `Cumulative` settlement sums to,
    /// returned by [`CounterArray::roll_epoch`], which also accounts the
    /// byte cost of the exchange.
    fn roll_epoch(&mut self) {
        let totals: Vec<f64> =
            self.array.roll_epoch(self.epochs as u32).into_iter().map(|t| t as f64).collect();
        for (settled, total) in self.settled.iter_mut().zip(&totals) {
            *settled += total;
        }
        if self.closed.len() == self.decay.ring {
            self.closed.remove(0);
        }
        self.closed.push(totals);
        self.epochs += 1;
    }

    /// The read of counter `id` given its open-epoch value `open` — the
    /// live estimate for the tracked model, the exact count for the oracle.
    fn read_with(&self, open: f64, id: usize) -> f64 {
        epoch_read(self.decay.lambda, open, &self.settled, &self.closed, id)
    }

    /// Exact global count of counter `id` over the whole stream (test
    /// oracle; a real coordinator cannot observe the open epoch's part).
    fn exact_total(&self, id: usize) -> u64 {
        self.settled[id] as u64 + self.array.exact_total(id)
    }

    /// The pure read-only evaluator over this tracker's live counter
    /// estimates — all query methods below are thin delegations to it.
    pub fn evaluator(&self) -> CptEvaluator<'_, Self> {
        CptEvaluator::new(&self.structure, &self.layout, self, self.smoothing)
    }

    /// Freeze the current counter reads (and the exact oracle) into an
    /// immutable query-ready [`CptSnapshot`] — the simulator-side analogue
    /// of a coordinator settlement mint. Queries evaluated against the
    /// snapshot are bit-identical to live queries at the freeze point.
    pub fn snapshot(&self) -> CptSnapshot {
        let n = self.layout.n_counters();
        CptSnapshot {
            seq: 0,
            events: self.events,
            epochs: self.epochs,
            finalized: true,
            reads: (0..n).map(|c| self.read(c)).collect(),
            exact: Some((0..n).map(|c| self.exact_total(c)).collect()),
        }
    }

    /// Counter estimates for one CPD entry: `(A_i(x, u), A_i(u))`.
    pub fn counter_pair(&self, i: usize, value: usize, u: usize) -> (f64, f64) {
        self.evaluator().counter_pair(i, value, u)
    }

    /// `log P~[x]` — Algorithm 3, computed in log space for stability on
    /// networks with hundreds of variables.
    pub fn log_query(&self, x: &[usize]) -> f64 {
        self.evaluator().log_query(x)
    }

    /// `P~[x]` (prefer [`Self::log_query`] for large `n`).
    pub fn query(&self, x: &[usize]) -> f64 {
        self.evaluator().query(x)
    }

    /// `log P^[x]` of the exact (epoch-decayed) MLE over the same stream,
    /// with identical smoothing and the identical read rule — the
    /// reference of Definition 2. Closed epochs are settled exactly, so
    /// the gap to this oracle is the open epoch's Lemma-4 estimation error.
    pub fn exact_log_query(&self, x: &[usize]) -> f64 {
        let oracle = |id: usize| self.read_with(self.array.exact_total(id) as f64, id);
        CptEvaluator::new(&self.structure, &self.layout, &oracle, self.smoothing).log_query(x)
    }

    /// Classify `target` given full evidence in `x` (the entry at `target` is ignored),
    /// using the tracked parameters (§V).
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        self.evaluator().classify(target, x)
    }

    /// Posterior over `target` given full evidence.
    pub fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
        self.evaluator().posterior(target, x)
    }

    /// Exact global count of a family counter (test oracle).
    pub fn exact_family_count(&self, i: usize, value: usize, u: usize) -> u64 {
        self.exact_total(self.layout.family_id(i, value, u) as usize)
    }

    /// Exact global count of a parent counter (test oracle).
    pub fn exact_parent_count(&self, i: usize, u: usize) -> u64 {
        self.exact_total(self.layout.parent_id(i, u) as usize)
    }
}

impl<P: CounterProtocol> CounterReads for BnTracker<P> {
    fn read(&self, id: usize) -> f64 {
        self.read_with(self.array.estimate(id), id)
    }
}

impl<P: CounterProtocol> CpdSource for BnTracker<P> {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        self.evaluator().cond_prob(i, value, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsbn_bayes::sprinkler_network;
    use dsbn_counters::ExactProtocol;
    use dsbn_datagen::TrainingStream;

    fn exact_tracker(k: usize, smoothing: Smoothing) -> BnTracker<ExactProtocol> {
        let net = sprinkler_network();
        let layout = CounterLayout::new(&net);
        BnTracker::new(
            &net,
            vec![ExactProtocol; layout.n_counters()],
            k,
            Partitioner::UniformRandom,
            7,
            smoothing,
        )
    }

    #[test]
    fn exact_tracker_reproduces_offline_mle() {
        let net = sprinkler_network();
        let mut t = exact_tracker(3, Smoothing::None);
        let events: Vec<_> = TrainingStream::new(&net, 1).take(2000).collect();
        // Offline counts.
        let mut fam = std::collections::HashMap::new();
        let mut par = std::collections::HashMap::new();
        for x in &events {
            t.observe(x);
            for i in 0..4 {
                let u = net.parent_config_of(i, x);
                *fam.entry((i, x[i], u)).or_insert(0u64) += 1;
                *par.entry((i, u)).or_insert(0u64) += 1;
            }
        }
        for (&(i, v, u), &c) in &fam {
            let (num, den) = t.counter_pair(i, v, u);
            assert_eq!(num, c as f64);
            assert_eq!(den, par[&(i, u)] as f64);
            // MLE ratio matches Lemma 2.
            let mle = c as f64 / par[&(i, u)] as f64;
            assert!((t.cond_prob(i, v, u) - mle).abs() < 1e-12);
        }
        assert_eq!(t.events(), 2000);
    }

    #[test]
    fn query_is_product_of_ratios() {
        let net = sprinkler_network();
        let mut t = exact_tracker(2, Smoothing::None);
        for x in TrainingStream::new(&net, 3).take(5000) {
            t.observe(&x);
        }
        let x = vec![1usize, 0, 1, 1];
        let mut expect = 1.0;
        for i in 0..4 {
            let u = net.parent_config_of(i, &x);
            let (num, den) = t.counter_pair(i, x[i], u);
            expect *= num / den;
        }
        assert!((t.query(&x) - expect).abs() < 1e-12);
        assert!((t.log_query(&x) - expect.ln()).abs() < 1e-9);
    }

    #[test]
    fn exact_tracker_message_cost_is_2nm() {
        // Lemma 5 / Table III accounting: 2 n m messages.
        let net = sprinkler_network();
        let mut t = exact_tracker(5, Smoothing::default());
        for x in TrainingStream::new(&net, 5).take(500) {
            t.observe(&x);
        }
        assert_eq!(t.stats().total(), 2 * 4 * 500);
    }

    #[test]
    fn learned_model_approaches_ground_truth() {
        let net = sprinkler_network();
        let mut t = exact_tracker(4, Smoothing::Pseudocount(0.5));
        for x in TrainingStream::new(&net, 11).take(50_000) {
            t.observe(&x);
        }
        // Check a few CPD entries against ground truth.
        // P(Sprinkler=on | Cloudy=yes) = 0.1.
        let p = t.cond_prob(1, 1, 1);
        assert!((p - 0.1).abs() < 0.02, "p={p}");
        // P(Rain=yes | Cloudy=no) = 0.2.
        let p = t.cond_prob(2, 1, 0);
        assert!((p - 0.2).abs() < 0.02, "p={p}");
    }

    #[test]
    fn smoothing_handles_unseen_configurations() {
        let t = exact_tracker(2, Smoothing::Pseudocount(1.0));
        // Nothing observed: every conditional must be uniform.
        for i in 0..4 {
            for u in 0..t.layout().parent_configs(i) {
                for v in 0..t.layout().cardinality(i) {
                    assert!((t.cond_prob(i, v, u) - 0.5).abs() < 1e-12);
                }
            }
        }
        // Raw mode falls back to uniform too (denominator zero).
        let t = exact_tracker(2, Smoothing::None);
        assert_eq!(t.cond_prob(3, 1, 2), 0.5);
    }

    #[test]
    fn classification_against_ground_truth_labels() {
        let net = sprinkler_network();
        let mut t = exact_tracker(3, Smoothing::Pseudocount(0.5));
        for x in TrainingStream::new(&net, 13).take(30_000) {
            t.observe(&x);
        }
        // The tracker's classifier must agree with the ground-truth
        // classifier on (almost) all evidence patterns.
        let mut agree = 0;
        let mut total = 0;
        for bits in 0..16usize {
            let x: Vec<usize> = (0..4).map(|b| (bits >> b) & 1).collect();
            for target in 0..4 {
                let mut xa = x.clone();
                let mut xb = x.clone();
                let a = t.classify(target, &mut xa);
                let b = dsbn_bayes::classify::classify(&net, &net, target, &mut xb);
                total += 1;
                if a == b {
                    agree += 1;
                }
            }
        }
        assert!(agree * 10 >= total * 9, "agreement {agree}/{total}");
    }

    #[test]
    fn observe_at_specific_site() {
        let mut t = exact_tracker(4, Smoothing::None);
        t.observe_at(2, &[0, 0, 0, 0]);
        assert_eq!(t.events(), 1);
        assert_eq!(t.exact_parent_count(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "one protocol instance per counter")]
    fn wrong_protocol_count_rejected() {
        let net = sprinkler_network();
        let _ = BnTracker::new(
            &net,
            vec![ExactProtocol; 3],
            2,
            Partitioner::UniformRandom,
            1,
            Smoothing::None,
        );
    }
}
