//! Training streams.
//!
//! [`TrainingStream`] is a seeded, infinite iterator of events sampled from
//! a ground-truth network (the paper's §VI-A training data). A
//! [`DriftingStream`] switches the generating network at chosen points,
//! and [`DriftWorkload`] packages a whole changepoint scenario — the phase
//! networks, their schedule, and per-position ground truth — as a reusable
//! workload source for the concept-drift experiments (the time-decay
//! ablation, the drift equivalence suites; future work (2) of the paper).

use crate::chunk::EventChunk;
use dsbn_bayes::generate::redraw_cpts;
use dsbn_bayes::network::Assignment;
use dsbn_bayes::{AncestralSampler, BayesianNetwork, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeded iterator of training events from one network.
#[derive(Debug, Clone)]
pub struct TrainingStream {
    sampler: AncestralSampler,
    rng: StdRng,
}

impl TrainingStream {
    /// Stream events from `net` deterministically under `seed`.
    pub fn new(net: &BayesianNetwork, seed: u64) -> Self {
        TrainingStream { sampler: AncestralSampler::new(net), rng: StdRng::seed_from_u64(seed) }
    }

    /// Sample the next event into `out` without allocating.
    pub fn next_into(&mut self, out: &mut Assignment) {
        self.sampler.sample_into(&mut self.rng, out);
    }

    /// Mint `total` events as [`EventChunk`]s of at most `chunk` events,
    /// sampling straight into each chunk's flat slab — no per-event `Vec`
    /// is ever allocated (one reused scratch assignment backs the
    /// sampler). Event values and order are identical to the per-event
    /// iterator under the same seed.
    pub fn chunks(self, chunk: usize, total: u64) -> TrainingChunks {
        assert!(chunk >= 1, "chunk size must be >= 1");
        TrainingChunks { stream: self, chunk, remaining: total, scratch: Vec::new() }
    }
}

/// Chunk-minting iterator over a [`TrainingStream`]; see
/// [`TrainingStream::chunks`].
#[derive(Debug, Clone)]
pub struct TrainingChunks {
    stream: TrainingStream,
    chunk: usize,
    remaining: u64,
    scratch: Assignment,
}

impl Iterator for TrainingChunks {
    type Item = EventChunk;

    fn next(&mut self) -> Option<EventChunk> {
        if self.remaining == 0 {
            return None;
        }
        let n = (self.remaining.min(self.chunk as u64)) as usize;
        let mut out = EventChunk::with_capacity(self.stream.sampler.n_vars(), n);
        for _ in 0..n {
            self.stream.next_into(&mut self.scratch);
            out.push(&self.scratch);
        }
        self.remaining -= n as u64;
        Some(out)
    }
}

impl Iterator for TrainingStream {
    type Item = Assignment;

    fn next(&mut self) -> Option<Assignment> {
        Some(self.sampler.sample(&mut self.rng))
    }
}

/// A stream whose generating distribution changes over time: phase `i`
/// produces `len_i` events from network `i`, then moves on; the final
/// network streams forever.
#[derive(Debug, Clone)]
pub struct DriftingStream {
    phases: Vec<(AncestralSampler, u64)>,
    current: usize,
    emitted_in_phase: u64,
    rng: StdRng,
}

/// Shared phase validation: all networks must have the same variable
/// count *and identical per-variable cardinalities* — otherwise events
/// from one phase would be invalid assignments for trackers built on
/// another phase's structure. Panics on empty input or mismatches.
fn validate_phases<'a>(mut nets: impl Iterator<Item = &'a BayesianNetwork>) {
    let first = nets.next().expect("need at least one phase");
    let n = first.n_vars();
    for net in nets {
        assert_eq!(net.n_vars(), n, "phase networks must share dimensions");
        for i in 0..n {
            assert_eq!(
                net.cardinality(i),
                first.cardinality(i),
                "phase networks must share dimensions: variable {i} cardinality differs"
            );
        }
    }
}

impl DriftingStream {
    /// `phases` pairs each network with the number of events it generates
    /// (use [`dsbn_bayes::generate::redraw_cpts`] to build pure parameter
    /// drifts). Panics per `validate_phases`.
    pub fn new(phases: &[(&BayesianNetwork, u64)], seed: u64) -> Self {
        validate_phases(phases.iter().map(|(net, _)| *net));
        DriftingStream {
            phases: phases.iter().map(|(net, len)| (AncestralSampler::new(net), *len)).collect(),
            current: 0,
            emitted_in_phase: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Index of the phase currently generating events.
    pub fn phase(&self) -> usize {
        self.current
    }
}

impl Iterator for DriftingStream {
    type Item = Assignment;

    fn next(&mut self) -> Option<Assignment> {
        while self.current + 1 < self.phases.len()
            && self.emitted_in_phase >= self.phases[self.current].1
        {
            self.current += 1;
            self.emitted_in_phase = 0;
        }
        self.emitted_in_phase += 1;
        let sampler = &self.phases[self.current].0;
        Some(sampler.sample(&mut self.rng))
    }
}

/// A reusable changepoint scenario: the phase networks and their schedule,
/// independent of any particular stream seed.
///
/// Where [`DriftingStream`] is one seeded iterator, a `DriftWorkload` owns
/// the ground truth — it can mint fresh streams for a seed sweep
/// ([`DriftWorkload::stream`]), report where the changepoints fall, and
/// answer which network generated the event at a given stream position
/// (the "current truth" an adaptation metric compares against).
#[derive(Debug, Clone)]
pub struct DriftWorkload {
    phases: Vec<(BayesianNetwork, u64)>,
}

impl DriftWorkload {
    /// Build from explicit phases (network, events it generates). The
    /// final network streams forever. Panics like [`DriftingStream::new`]
    /// on empty input or mismatched variable counts/cardinalities.
    pub fn new(phases: Vec<(BayesianNetwork, u64)>) -> Self {
        validate_phases(phases.iter().map(|(net, _)| net));
        DriftWorkload { phases }
    }

    /// A pure parameter drift: `n_phases` phases of `phase_len` events on
    /// the *same structure and domains* — phase 0 is `base`, each later
    /// phase redraws every CPT (Dirichlet `alpha`, probability `floor`, as
    /// in [`redraw_cpts`]) under a phase-salted seed. This is the
    /// changepoint workload of `exp_ablation_decay` and the drift
    /// equivalence suites.
    pub fn parameter_drift(
        base: &BayesianNetwork,
        n_phases: usize,
        phase_len: u64,
        alpha: f64,
        floor: f64,
        seed: u64,
    ) -> Result<Self> {
        assert!(n_phases >= 1, "need at least one phase");
        let mut phases = vec![(base.clone(), phase_len)];
        for i in 1..n_phases {
            let salt = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            phases.push((redraw_cpts(base, alpha, floor, salt)?, phase_len));
        }
        Ok(DriftWorkload { phases })
    }

    /// The phases (network, scheduled events).
    pub fn phases(&self) -> &[(BayesianNetwork, u64)] {
        &self.phases
    }

    /// A fresh seeded stream of this scenario.
    pub fn stream(&self, seed: u64) -> DriftingStream {
        let refs: Vec<(&BayesianNetwork, u64)> = self.phases.iter().map(|(n, m)| (n, *m)).collect();
        DriftingStream::new(&refs, seed)
    }

    /// Stream positions (0-based event indices) at which the generating
    /// network changes: the first event of each phase after the first.
    pub fn changepoints(&self) -> Vec<u64> {
        let mut points = Vec::with_capacity(self.phases.len().saturating_sub(1));
        let mut at = 0u64;
        for (_, len) in &self.phases[..self.phases.len() - 1] {
            at += len;
            points.push(at);
        }
        points
    }

    /// Total scheduled events (the final phase streams forever beyond it).
    pub fn scripted_events(&self) -> u64 {
        self.phases.iter().map(|(_, m)| m).sum()
    }

    /// The network generating the event at stream position `index` — the
    /// "current truth" for adaptation metrics.
    pub fn network_at(&self, index: u64) -> &BayesianNetwork {
        let mut remaining = index;
        for (net, len) in &self.phases[..self.phases.len() - 1] {
            if remaining < *len {
                return net;
            }
            remaining -= len;
        }
        &self.phases[self.phases.len() - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsbn_bayes::sprinkler_network;
    use dsbn_bayes::{Cpt, Dag, Variable};

    #[test]
    fn stream_is_deterministic() {
        let net = sprinkler_network();
        let a: Vec<_> = TrainingStream::new(&net, 5).take(20).collect();
        let b: Vec<_> = TrainingStream::new(&net, 5).take(20).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TrainingStream::new(&net, 6).take(20).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn chunk_minting_matches_per_event_stream() {
        let net = sprinkler_network();
        let m = 103u64;
        for chunk in [1usize, 7, 32, 256] {
            let minted: Vec<Vec<u32>> = TrainingStream::new(&net, 4)
                .chunks(chunk, m)
                .flat_map(|c| c.iter().map(|e| e.to_vec()).collect::<Vec<_>>())
                .collect();
            let direct: Vec<Vec<u32>> = TrainingStream::new(&net, 4)
                .take(m as usize)
                .map(|e| e.iter().map(|&v| v as u32).collect())
                .collect();
            assert_eq!(minted, direct, "chunk size {chunk}");
        }
        // Chunk shapes: full chunks then a remainder.
        let sizes: Vec<usize> =
            TrainingStream::new(&net, 4).chunks(25, m).map(|c| c.len()).collect();
        assert_eq!(sizes, vec![25, 25, 25, 25, 3]);
    }

    #[test]
    fn next_into_matches_iterator() {
        let net = sprinkler_network();
        let mut s1 = TrainingStream::new(&net, 9);
        let mut s2 = TrainingStream::new(&net, 9);
        let mut buf = Vec::new();
        for _ in 0..10 {
            s1.next_into(&mut buf);
            assert_eq!(Some(buf.clone()), s2.next());
        }
    }

    fn biased_coin(p_one: f64) -> BayesianNetwork {
        let variables = vec![Variable::with_cardinality("X", 2).unwrap()];
        let dag = Dag::new(1);
        let cpts = vec![Cpt::new(0, 2, vec![], vec![1.0 - p_one, p_one]).unwrap()];
        BayesianNetwork::new("coin", variables, dag, cpts).unwrap()
    }

    #[test]
    fn drifting_stream_switches_distribution() {
        let heads = biased_coin(0.95);
        let tails = biased_coin(0.05);
        let stream = DriftingStream::new(&[(&heads, 2000), (&tails, 2000)], 3);
        let events: Vec<_> = stream.take(4000).collect();
        let ones_first: usize = events[..2000].iter().map(|e| e[0]).sum();
        let ones_second: usize = events[2000..].iter().map(|e| e[0]).sum();
        assert!(ones_first > 1800, "first phase ones {ones_first}");
        assert!(ones_second < 200, "second phase ones {ones_second}");
    }

    #[test]
    fn final_phase_streams_forever() {
        let net = biased_coin(0.5);
        let mut stream = DriftingStream::new(&[(&net, 3)], 1);
        for _ in 0..100 {
            assert!(stream.next().is_some());
        }
        assert_eq!(stream.phase(), 0);
    }

    #[test]
    #[should_panic(expected = "share dimensions")]
    fn mismatched_phases_rejected() {
        let a = biased_coin(0.5);
        let b = sprinkler_network();
        let _ = DriftingStream::new(&[(&a, 10), (&b, 10)], 0);
    }

    #[test]
    fn workload_schedule_and_truth() {
        let w = DriftWorkload::new(vec![(biased_coin(0.9), 100), (biased_coin(0.1), 50)]);
        assert_eq!(w.changepoints(), vec![100]);
        assert_eq!(w.scripted_events(), 150);
        // Truth switches exactly at the changepoint; the last phase
        // extends forever.
        assert_eq!(w.network_at(99).joint_log_prob(&[1]), (0.9f64).ln());
        assert_eq!(w.network_at(100).joint_log_prob(&[1]), (0.1f64).ln());
        assert_eq!(w.network_at(10_000).joint_log_prob(&[1]), (0.1f64).ln());
    }

    #[test]
    fn workload_streams_are_seeded_and_match_drifting_stream() {
        let w = DriftWorkload::new(vec![(biased_coin(0.95), 200), (biased_coin(0.05), 200)]);
        let a: Vec<_> = w.stream(3).take(400).collect();
        let b: Vec<_> = w.stream(3).take(400).collect();
        assert_eq!(a, b);
        let (h, t) = (biased_coin(0.95), biased_coin(0.05));
        let direct: Vec<_> = DriftingStream::new(&[(&h, 200), (&t, 200)], 3).take(400).collect();
        assert_eq!(a, direct);
        assert_ne!(a, w.stream(4).take(400).collect::<Vec<_>>());
    }

    #[test]
    fn parameter_drift_keeps_structure_and_changes_distribution() {
        let base = sprinkler_network();
        let w = DriftWorkload::parameter_drift(&base, 3, 1_000, 0.8, 0.01, 7).unwrap();
        assert_eq!(w.phases().len(), 3);
        assert_eq!(w.changepoints(), vec![1_000, 2_000]);
        for (net, _) in w.phases() {
            assert_eq!(net.n_vars(), base.n_vars());
            for i in 0..base.n_vars() {
                assert_eq!(net.cardinality(i), base.cardinality(i));
            }
        }
        // Phase 0 is the base itself; later phases are redrawn (and the
        // redraws differ from each other — distinct salts).
        let x = vec![1usize, 0, 1, 1];
        assert_eq!(w.phases()[0].0.joint_log_prob(&x), base.joint_log_prob(&x));
        assert_ne!(w.phases()[1].0.joint_log_prob(&x), base.joint_log_prob(&x));
        assert_ne!(w.phases()[1].0.joint_log_prob(&x), w.phases()[2].0.joint_log_prob(&x));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_workload_rejected() {
        let _ = DriftWorkload::new(vec![]);
    }
}
