//! The pure read path: QUERY (Algorithm 3), Markov-blanket classification
//! (§V), and smoothing, split from ingest.
//!
//! Every tracker in this crate answers queries the same way: per-counter
//! reads are paired into `(A_i(x,u), A_i(u))` by the
//! [`CounterLayout`], smoothed into conditional probabilities, and
//! multiplied (in log space) along the network structure. What differs
//! between trackers is only *where the reads come from* — live protocol
//! estimates, a frozen slab, or the exact oracle — and how a counter's
//! open epoch combines with its settled ones is one rule, [`epoch_read`].
//!
//! [`CptEvaluator`] captures that shared logic once, generic over a
//! [`CounterReads`] source; the trackers' query methods and every
//! exact-oracle "view" delegate here. [`CptSnapshot`] is the frozen form:
//! per-counter reads resolved out of a monitor-layer
//! [`CounterSnapshot`] at a settlement, so query threads can serve
//! classify/posterior traffic from an immutable value with no access to
//! tracker state at all ([`crate::serve::SnapshotServer`]).

use crate::layout::CounterLayout;
use crate::tracker::Smoothing;
use dsbn_bayes::classify::{classify as mb_classify, posterior as mb_posterior, CpdSource};
use dsbn_bayes::BayesianNetwork;
use dsbn_monitor::CounterSnapshot;

/// A source of per-counter reads in [`CounterLayout`] id order.
///
/// The one point of variation between the trackers' read paths: live
/// coordinator estimates, frozen slabs, `lambda^age`-decayed ring sums,
/// and exact-oracle totals all present as this.
pub trait CounterReads {
    /// The read of counter `id`.
    fn read(&self, id: usize) -> f64;
}

impl CounterReads for [f64] {
    fn read(&self, id: usize) -> f64 {
        self[id]
    }
}

/// Reads computed on the fly — how an oracle view (exact counts through
/// the tracked model's read rule) presents as a read source without a
/// dedicated adaptor type.
impl<F: Fn(usize) -> f64> CounterReads for F {
    fn read(&self, id: usize) -> f64 {
        self(id)
    }
}

/// Exact-oracle totals as counter reads — the reference side of
/// Definition 2, read through the identical smoothing and query path as
/// the estimates so the reference can never drift from the tracked
/// model's read rules.
pub struct ExactReads<'a>(pub &'a [u64]);

impl CounterReads for ExactReads<'_> {
    fn read(&self, id: usize) -> f64 {
        self.0[id] as f64
    }
}

/// The one epoch read rule: counter `c`'s read from its open-epoch value
/// `open` (a live estimate, or the exact count for an oracle), the
/// never-truncating settled sum `settled`, and the retained closed-epoch
/// ring `closed` (oldest first, epoch-major — the [`CounterSnapshot`]
/// shape). Live trackers, [`crate::ClusterModel`], the exact oracles, and
/// [`CptSnapshot::resolve`] all read through here.
///
/// - No closed epoch: `open` verbatim, bit for bit — a tracker that never
///   rolls is the paper's tracker.
/// - `lambda >= 1`: the *cumulative* count `settled[c] + open`, however
///   many epochs the ring has dropped — no decay means no forgetting.
/// - `lambda < 1`: `open + sum_a lambda^a * closed[age a]`, the most
///   recently closed epoch at age 1; epochs beyond the ring are dropped,
///   their weight `lambda^K` bounding the truncation error.
#[inline]
pub fn epoch_read(lambda: f64, open: f64, settled: &[f64], closed: &[Vec<f64>], c: usize) -> f64 {
    if closed.is_empty() {
        open
    } else if lambda >= 1.0 {
        settled[c] + open
    } else {
        let mut total = open;
        let mut weight = 1.0;
        for epoch in closed.iter().rev() {
            weight *= lambda;
            total += weight * epoch[c];
        }
        total
    }
}

/// Smoothed conditional probability from a `(A_i(x,u), A_i(u))` counter
/// pair over a `J_i`-ary variable — the one place probabilities are read
/// off counters, shared by every tracker.
pub(crate) fn smoothed_cond_prob(num: f64, den: f64, j: f64, smoothing: Smoothing) -> f64 {
    match smoothing {
        Smoothing::None => {
            if den <= 0.0 {
                1.0 / j
            } else {
                (num / den).max(0.0)
            }
        }
        Smoothing::Pseudocount(a) => (num.max(0.0) + a) / (den.max(0.0) + a * j),
    }
}

/// `log P~[x]` over any conditional-probability source — Algorithm 3 in
/// log space.
pub(crate) fn log_query_via<S: CpdSource>(layout: &CounterLayout, src: &S, x: &[usize]) -> f64 {
    let mut lp = 0.0;
    for i in 0..layout.n_vars() {
        let u = layout.parent_config_of(i, x);
        lp += src.cond_prob(i, x[i], u).ln();
    }
    lp
}

/// The pure read-only query evaluator: Algorithm 3 and Markov-blanket
/// classification over a structure, a layout, a smoothing mode, and any
/// [`CounterReads`] source. Borrow-only and a few pointers wide — build
/// one per query. All tracker query methods delegate here, so the read
/// path is byte-identical no matter which tracker (or frozen snapshot)
/// the reads come from.
pub struct CptEvaluator<'a, R: CounterReads + ?Sized> {
    structure: &'a BayesianNetwork,
    layout: &'a CounterLayout,
    reads: &'a R,
    smoothing: Smoothing,
}

impl<'a, R: CounterReads + ?Sized> CptEvaluator<'a, R> {
    /// Evaluator over `reads` (in `layout` id order).
    pub fn new(
        structure: &'a BayesianNetwork,
        layout: &'a CounterLayout,
        reads: &'a R,
        smoothing: Smoothing,
    ) -> Self {
        CptEvaluator { structure, layout, reads, smoothing }
    }

    /// Counter reads for one CPD entry: `(A_i(x, u), A_i(u))`.
    pub fn counter_pair(&self, i: usize, value: usize, u: usize) -> (f64, f64) {
        let num = self.reads.read(self.layout.family_id(i, value, u) as usize);
        let den = self.reads.read(self.layout.parent_id(i, u) as usize);
        (num, den)
    }

    /// `log P~[x]` — QUERY (Algorithm 3) in log space.
    pub fn log_query(&self, x: &[usize]) -> f64 {
        debug_assert!(self.structure.check_assignment(x).is_ok());
        log_query_via(self.layout, self, x)
    }

    /// `P~[x]` (prefer [`Self::log_query`] for large `n`).
    pub fn query(&self, x: &[usize]) -> f64 {
        self.log_query(x).exp()
    }

    /// Classify `target` given full evidence in `x` (the entry at `target`
    /// is ignored) — §V.
    pub fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        mb_classify(self.structure, self, target, x)
    }

    /// Posterior over `target` given full evidence.
    pub fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
        mb_posterior(self.structure, self, target, x)
    }
}

impl<R: CounterReads + ?Sized> CpdSource for CptEvaluator<'_, R> {
    fn cond_prob(&self, i: usize, value: usize, u: usize) -> f64 {
        let (num, den) = self.counter_pair(i, value, u);
        smoothed_cond_prob(num, den, self.layout.cardinality(i) as f64, self.smoothing)
    }
}

/// A query-ready frozen CPT state: per-counter reads resolved out of a
/// monitor-layer [`CounterSnapshot`] (or frozen off a live tracker via
/// [`crate::BnTracker::snapshot`]). Immutable — query threads evaluate
/// against it with no access to tracker or coordinator state.
#[derive(Debug, Clone, PartialEq)]
pub struct CptSnapshot {
    /// Publish sequence of the underlying counter snapshot (`0` = the
    /// empty pre-publish state).
    pub seq: u64,
    /// Events represented (settled lower bound for mid-stream mints).
    pub events: u64,
    /// Closed epochs at mint time.
    pub epochs: u64,
    /// Minted at the run's terminal settlement rather than mid-stream.
    pub finalized: bool,
    /// Resolved per-counter reads, layout id order: cumulative
    /// (`settled + open`) or `lambda^age`-decayed, per [`Self::resolve`].
    pub reads: Vec<f64>,
    /// Exact per-counter totals (final snapshots only — the test oracle).
    pub exact: Option<Vec<u64>>,
}

impl CptSnapshot {
    /// Resolve a counter-layer snapshot into query-ready reads, each by
    /// [`epoch_read`] — the rule [`crate::ClusterModel`] reads by, so a
    /// final snapshot resolved with the run's `lambda` is bit-identical to
    /// the end-of-run model.
    ///
    /// The empty pre-publish snapshot (`seq == 0`) resolves to all-zero
    /// reads — smoothing turns those into uniform conditionals, so a
    /// server is queryable before the first settlement.
    pub fn resolve(snap: &CounterSnapshot, n_counters: usize, lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0,1], got {lambda}");
        let reads: Vec<f64> = if snap.seq == 0 {
            vec![0.0; n_counters]
        } else {
            assert_eq!(
                snap.open.len(),
                n_counters,
                "counter snapshot does not match the network layout"
            );
            (0..n_counters)
                .map(|c| epoch_read(lambda, snap.open[c], &snap.settled, &snap.closed, c))
                .collect()
        };
        CptSnapshot {
            seq: snap.seq,
            events: snap.events,
            epochs: snap.epochs,
            finalized: snap.finalized,
            reads,
            exact: snap.exact.clone(),
        }
    }
}

impl CounterReads for CptSnapshot {
    fn read(&self, id: usize) -> f64 {
        self.reads[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsbn_bayes::sprinkler_network;

    fn snap_with(open: Vec<f64>, closed: Vec<Vec<f64>>, epochs: u64) -> CounterSnapshot {
        let n = open.len();
        let mut s = CounterSnapshot::empty();
        s.seq = 1;
        s.epochs = epochs;
        s.settled = vec![0.0; n];
        for e in &closed {
            for (c, v) in e.iter().enumerate() {
                s.settled[c] += v;
            }
        }
        s.open = open;
        s.closed = closed;
        s
    }

    #[test]
    fn resolve_cumulative_with_no_epochs_is_the_open_slab_verbatim() {
        let open = vec![2.5, 0.0, 7.25];
        let snap = snap_with(open.clone(), vec![], 0);
        let cpt = CptSnapshot::resolve(&snap, 3, 1.0);
        for (r, o) in cpt.reads.iter().zip(&open) {
            assert_eq!(r.to_bits(), o.to_bits());
        }
    }

    #[test]
    fn resolve_decayed_matches_epoch_ring_read() {
        let closed = vec![vec![100.0, 3.0], vec![10.0, 5.0]];
        let snap = snap_with(vec![1.0, 2.0], closed.clone(), 2);
        let lambda = 0.5;
        let cpt = CptSnapshot::resolve(&snap, 2, lambda);
        for c in 0..2 {
            // The reference read: `open + Σ_a λ^a · closed[age a]`, the
            // newest closed epoch at age 1.
            let mut total = snap.open[c];
            let mut weight = 1.0;
            for e in closed.iter().rev() {
                weight *= lambda;
                total += weight * e[c];
            }
            assert_eq!(cpt.reads[c].to_bits(), total.to_bits());
        }
        // Cumulative read covers settled mass beyond the ring too.
        let cum = CptSnapshot::resolve(&snap, 2, 1.0);
        assert_eq!(cum.reads[0], 111.0);
    }

    #[test]
    fn empty_snapshot_resolves_to_uniform_conditionals() {
        let net = sprinkler_network();
        let layout = CounterLayout::new(&net);
        let cpt = CptSnapshot::resolve(&CounterSnapshot::empty(), layout.n_counters(), 1.0);
        let eval = CptEvaluator::new(&net, &layout, &cpt, Smoothing::Pseudocount(0.5));
        for i in 0..layout.n_vars() {
            for u in 0..layout.parent_configs(i) {
                for v in 0..layout.cardinality(i) {
                    assert!((eval.cond_prob(i, v, u) - 0.5).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn evaluator_reads_slices_and_oracles_identically() {
        let net = sprinkler_network();
        let layout = CounterLayout::new(&net);
        let n = layout.n_counters();
        let totals: Vec<u64> = (0..n as u64).map(|c| 10 * c + 1).collect();
        let floats: Vec<f64> = totals.iter().map(|&t| t as f64).collect();
        let via_slice =
            CptEvaluator::new(&net, &layout, floats.as_slice(), Smoothing::Pseudocount(0.5));
        let oracle = ExactReads(&totals);
        let via_oracle = CptEvaluator::new(&net, &layout, &oracle, Smoothing::Pseudocount(0.5));
        let x = vec![1usize, 0, 1, 1];
        assert_eq!(via_slice.log_query(&x).to_bits(), via_oracle.log_query(&x).to_bits());
        let (num, den) = via_slice.counter_pair(1, 1, 0);
        assert_eq!((num, den), via_oracle.counter_pair(1, 1, 0));
    }

    #[test]
    #[should_panic(expected = "does not match the network layout")]
    fn resolve_rejects_mismatched_layout() {
        let snap = snap_with(vec![1.0, 2.0], vec![], 0);
        let _ = CptSnapshot::resolve(&snap, 5, 1.0);
    }
}
