//! Correctness: is every event accounted for, and does the model keep the
//! paper's promises on inputs it has not seen.

use crate::inputs::Inputs;
use crate::spec::BUDGET_MIN_COUNT;
use crate::surface::{
    allocate, per_counter_eps, ClusterTrackerRun, CounterLayout, CptEvaluator, ExactReads, Tracker,
};

/// Per-counter state of a finished run, in layout id order.
pub struct Readout {
    /// What the coordinator believes, over the whole stream.
    pub estimates: Vec<f64>,
    /// What really arrived (an oracle no coordinator sees).
    pub exact: Vec<u64>,
    /// The same two for the open epoch alone, where settlements closed
    /// earlier epochs: a closed epoch is settled exactly, so only here is
    /// the protocol still estimating.
    pub open: Option<(Vec<f64>, Vec<u64>)>,
}

impl Readout {
    pub fn of_tracker(tracker: &Tracker, layout: &CounterLayout) -> Readout {
        let n = layout.n_counters();
        let (mut estimates, mut exact) = (vec![0.0; n], vec![0u64; n]);
        for i in 0..layout.n_vars() {
            for u in 0..layout.parent_configs(i) {
                let parent = layout.parent_id(i, u) as usize;
                exact[parent] = tracker.exact_parent_count(i, u);
                for v in 0..layout.cardinality(i) {
                    let family = layout.family_id(i, v, u) as usize;
                    (estimates[family], estimates[parent]) = tracker.counter_pair(i, v, u);
                    exact[family] = tracker.exact_family_count(i, v, u);
                }
            }
        }
        Readout { estimates, exact, open: None }
    }

    pub fn of_cluster(run: &ClusterTrackerRun) -> Readout {
        let r = &run.report;
        // With settlements on, `estimates` covers the open epoch only.
        if r.epochs > 0 {
            let estimates = r.settled_totals.iter().zip(&r.estimates).map(|(s, e)| s + e).collect();
            let open = Some((r.estimates.clone(), r.open_epoch_exact_totals.clone()));
            Readout { estimates, exact: r.exact_totals.clone(), open }
        } else {
            Readout { estimates: r.estimates.clone(), exact: r.exact_totals.clone(), open: None }
        }
    }
}

/// The error budget each counter was given (`allocate`, then
/// `per_counter_eps`), as INIT computes it.
pub fn counter_budgets(inp: &Inputs, layout: &CounterLayout) -> Vec<f64> {
    per_counter_eps(layout, &allocate(inp.cfg.scheme, &inp.net, inp.cfg.eps))
}

/// Variables whose exact parent counts do not add up to `m`: each event
/// must have touched exactly one parent configuration of each variable.
pub fn variables_miscounted(layout: &CounterLayout, exact: &[u64], m: u64) -> u64 {
    (0..layout.n_vars())
        .filter(|&i| {
            let seen: u64 =
                (0..layout.parent_configs(i)).map(|u| exact[layout.parent_id(i, u) as usize]).sum();
            seen != m
        })
        .count() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// RMS over the open epoch's well-filled counters of
    /// `(estimate - exact) / (eps_c * exact)`.
    pub eps_budget_used: f64,
    pub eps_budget_worst: f64,
    pub logp_err_mean: f64,
    pub logp_err_max: f64,
    /// Held-out queries answered non-finitely or outside `e^{±band}`.
    pub queries_failed: u64,
}

/// Definition 2 on the held-out queries, and how much of each counter's
/// budget the run spent. `band` is `eps`; a unit test narrows it to show
/// that the check bites.
pub fn accuracy(
    inp: &Inputs,
    layout: &CounterLayout,
    budgets: &[f64],
    out: &Readout,
    band: f64,
) -> Accuracy {
    let (mut sum_sq, mut worst, mut filled) = (0.0f64, 0.0f64, 0u64);
    let (estimates, exact) =
        out.open.as_ref().map_or((&out.estimates, &out.exact), |(e, x)| (e, x));
    for ((&est, &exact), &eps_c) in estimates.iter().zip(exact).zip(budgets) {
        if exact >= BUDGET_MIN_COUNT {
            let used = (est - exact as f64) / (eps_c * exact as f64);
            sum_sq += used * used;
            worst = worst.max(used.abs());
            filled += 1;
        }
    }
    let smoothing = inp.cfg.smoothing;
    let model = CptEvaluator::new(&inp.net, layout, out.estimates.as_slice(), smoothing);
    let oracle = ExactReads(&out.exact);
    let mle = CptEvaluator::new(&inp.net, layout, &oracle, smoothing);
    let (mut sum, mut max, mut failed) = (0.0f64, 0.0f64, 0u64);
    for x in &inp.queries {
        let err = (model.log_query(x) - mle.log_query(x)).abs();
        if err.is_finite() {
            sum += err;
            max = max.max(err);
        }
        // A NaN error (a non-finite answer) fails the band too.
        if err.is_nan() || err > band {
            failed += 1;
        }
    }
    Accuracy {
        eps_budget_used: (sum_sq / filled.max(1) as f64).sqrt(),
        eps_budget_worst: worst,
        logp_err_mean: sum / inp.queries.len() as f64,
        logp_err_max: max,
        queries_failed: failed,
    }
}
