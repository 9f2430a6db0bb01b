//! One untraced ingest run and what it brings back, for either runtime.

use crate::checks::Readout;
use crate::inputs::Inputs;
use crate::report::peak_rss_mb;
use crate::spec::Size;
use crate::stats::sorted;
use crate::surface::{CounterLayout, MessageStats, Tracker};
use std::hint::black_box;
use std::time::Instant;

/// The facts of one pass: one ingest of the whole stream from a fresh INIT,
/// from the first event handed in until the final model has answered a
/// query, and the query samples taken on that model.
pub struct Ingest {
    pub wall_s: f64,
    /// The pass's wall time piece by piece, in stream order, wherever the
    /// harness hands the stream in in pieces: a chunk each on the simulator,
    /// the one call on the cluster. Piece `j` is the same work in every pass
    /// of a run.
    pub pieces_ms: Vec<f64>,
    /// `VmHWM` when ingest ended, before the harness's own query samples
    /// and analysis could add to it.
    pub rss_mb: f64,
    /// Events the program says it saw.
    pub events_seen: u64,
    pub stats: MessageStats,
    pub readout: Readout,
    /// Freshness samples: hand-in of a batch's last event until a reader
    /// can load a model that covers it.
    pub lag_ms: Vec<f64>,
    /// Latency samples, one query each, the held-out queries in turn: sample
    /// `i` timed query `i % HELD_OUT_QUERIES`.
    pub query_us: Vec<f64>,
    /// How late the paced generator handed each event in (paced runs only).
    pub late_ms: Vec<f32>,
    pub cluster: Option<ClusterFacts>,
}

impl Ingest {
    /// The paced generator's lateness per event, ascending.
    pub fn late_sorted(&self) -> Vec<f64> {
        sorted(&self.late_ms.iter().map(|&ms| f64::from(ms)).collect::<Vec<_>>())
    }
}

/// What only the threaded runtime reports.
#[derive(Debug, Clone, Copy)]
pub struct ClusterFacts {
    pub wall_s: f64,
    pub coordinator_busy_s: f64,
    pub flush_epochs: u64,
    pub epochs: u64,
    pub published: u64,
    pub resolve_faults: u64,
}

/// Latency of `answer` in µs, one sample per query, over the held-out
/// queries in turn.
pub fn query_latency(
    queries: &[Vec<usize>],
    samples: usize,
    mut answer: impl FnMut(&[usize]) -> f64,
) -> Vec<f64> {
    queries
        .iter()
        .cycle()
        .take(samples)
        .map(|x| {
            let t = Instant::now();
            black_box(answer(black_box(x)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The simulator workloads: replay the pool through `observe_chunk`, then
/// query the quiescent tracker.
pub fn sim_ingest(
    inp: &Inputs,
    layout: &CounterLayout,
    tracker: &mut Tracker,
    size: &Size,
) -> Ingest {
    // One clock read per chunk boundary.
    let mut pieces_ms = Vec::with_capacity(inp.pool.len() * inp.replays as usize);
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..inp.replays {
        for chunk in &inp.pool {
            tracker.observe_chunk(chunk);
            let now = Instant::now();
            pieces_ms.push((now - last).as_secs_f64() * 1e3);
            last = now;
        }
    }
    black_box(tracker.log_query(&inp.queries[0]));
    let wall_s = t0.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    Ingest {
        wall_s,
        rss_mb,
        events_seen: tracker.events(),
        stats: tracker.stats(),
        readout: Readout::of_tracker(tracker, layout),
        // The simulator is synchronous: a chunk's events are readable the
        // moment `observe_chunk` returns, so a chunk's freshness lag is the
        // call's duration.
        lag_ms: pieces_ms.clone(),
        pieces_ms,
        query_us: query_latency(&inp.queries, size.query_samples, |x| tracker.log_query(x)),
        late_ms: Vec::new(),
        cluster: None,
    }
}
