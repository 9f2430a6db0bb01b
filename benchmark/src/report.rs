//! From the facts of a run to named metrics, the result files and the
//! result line.

use crate::checks::Accuracy;
use crate::inputs::{Inputs, SetupTimes};
use crate::json::Json;
use crate::layers::Wire;
use crate::run::Ingest;
use crate::spec::{Runtime, Size, Workload, END_TO_END, HELD_OUT_QUERIES, PER_LAYER};
use crate::stats::{highest_supported, median, percentile, quiet_per_group, sorted};
use crate::surface::{CounterLayout, MessageStats};
use crate::trace::Tracer;
use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Failed operations, by the check that caught them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// Events the program lost or invented.
    pub events_unaccounted: u64,
    /// Held-out queries non-finite or outside `e^{±eps}` of the exact MLE.
    pub queries_out_of_band: u64,
    /// 1 when the run returned `ClusterError`.
    pub cluster_error: u64,
    /// 1 when the paced generator handed in more than `LATE_SHARE` of its
    /// events more than `LATE_LIMIT_MS` after they were due.
    pub generator_late: u64,
    /// 1 when a paced run's achieved rate missed `SERVE_RATE_PER_S` by more
    /// than `RATE_TOLERANCE`.
    pub rate_not_held: u64,
    /// Simulator passes whose counts differ from the first pass's: the passes
    /// of a run must be the same work for their timings to be compared.
    pub passes_differ: u64,
    /// Traced runs: the staged pipeline's counts differ from the tracker's.
    pub staged_mismatch: u64,
    /// Traced runs: the layers' self times miss the staged run by over 5%.
    pub layers_do_not_sum: u64,
}

impl Failures {
    fn by_check(&self) -> [(&'static str, u64); 8] {
        [
            ("events_unaccounted", self.events_unaccounted),
            ("queries_out_of_band", self.queries_out_of_band),
            ("cluster_error", self.cluster_error),
            ("generator_late", self.generator_late),
            ("rate_not_held", self.rate_not_held),
            ("passes_differ", self.passes_differ),
            ("staged_mismatch", self.staged_mismatch),
            ("layers_do_not_sum", self.layers_do_not_sum),
        ]
    }

    pub fn total(&self) -> u64 {
        self.by_check().iter().map(|(_, n)| n).sum()
    }

    fn to_json(self) -> Json {
        self.by_check().into_iter().fold(Json::obj(), |doc, (check, n)| doc.field(check, n))
    }
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One series of samples from every pass, pass after pass.
fn pooled(passes: &[Ingest], series: fn(&Ingest) -> &[f64]) -> Vec<f64> {
    passes.iter().flat_map(|p| series(p).iter().copied()).collect()
}

/// The wall time a pass takes while the host leaves it alone: piece by
/// piece, each piece's quiet value across the run's identical passes. Every
/// piece of the stream counts, at what it costs undisturbed.
pub fn quiet_wall_s(passes: &[Ingest]) -> f64 {
    let pieces = pooled(passes, |p| &p.pieces_ms);
    quiet_per_group(&pieces, passes[0].pieces_ms.len()).iter().sum::<f64>() / 1e3
}

/// The freshness samples of a pass, each at its quiet value across the
/// passes, ascending.
pub fn quiet_lag_ms(passes: &[Ingest]) -> Vec<f64> {
    sorted(&quiet_per_group(&pooled(passes, |p| &p.lag_ms), passes[0].lag_ms.len()))
}

/// The nine end-to-end metrics, in declaration order, over the passes of a
/// run and the accuracy of each. Timings are quiet values over the
/// repetitions of identical work; counts, which the host does not disturb
/// and thread timing moves either way, are the median pass's.
pub fn end_to_end(passes: &[Ingest], acc: &[Accuracy], setup_s: f64, m: u64) -> Vec<Metric> {
    // Each held-out query's quiet value over its repetitions, then the
    // percentile across the queries.
    let per_query = sorted(&quiet_per_group(&pooled(passes, |p| &p.query_us), HELD_OUT_QUERIES));
    let per_event = |count: fn(&Ingest) -> u64| {
        median(&passes.iter().map(|p| count(p) as f64 / m as f64).collect::<Vec<_>>())
    };
    let values = [
        ("setup_s", setup_s),
        ("ingest_events_per_s", m as f64 / quiet_wall_s(passes)),
        ("messages_per_event", per_event(|p| p.stats.total())),
        ("wire_bytes_per_event", per_event(|p| p.stats.bytes)),
        ("eps_budget_used", median(&acc.iter().map(|a| a.eps_budget_used).collect::<Vec<_>>())),
        ("query_p50_us", percentile(&per_query, 0.5)),
        ("query_p99_us", percentile(&per_query, 0.99)),
        ("snapshot_lag_ms_p50", percentile(&quiet_lag_ms(passes), 0.5)),
        // The first pass's: later ones also hold the harness's own samples.
        ("peak_rss_mb", passes[0].rss_mb),
    ];
    named(values.into_iter(), END_TO_END.iter().map(|d| (d.name, d.unit)))
}

/// The row of a run that returned `ClusterError`: what was measured before
/// the run, and nothing else (an unmeasured metric is absent, never zero).
pub fn without_a_run(setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    END_TO_END
        .iter()
        .filter_map(|d| {
            let value = match d.name {
                "setup_s" => setup_s,
                "peak_rss_mb" => rss_mb,
                _ => return None,
            };
            Some(Metric { name: d.name, value, unit: d.unit })
        })
        .collect()
}

/// Pair measured values with the declared names and units; both tables are
/// in declaration order, and a slip in either is a bug here.
fn named<'a>(
    values: impl Iterator<Item = (&'a str, f64)>,
    declared: impl Iterator<Item = (&'static str, &'static str)>,
) -> Vec<Metric> {
    values
        .zip(declared)
        .map(|((measured, value), (name, unit))| {
            assert_eq!(measured, name, "metric tables out of step");
            Metric { name, value, unit }
        })
        .collect()
}

/// What the traced run and the isolated replays measured.
pub struct Probes {
    pub setup: SetupTimes,
    pub allocate_s: f64,
    /// Wall time of the staged ingest, spans and all.
    pub staged_s: f64,
    /// Wall time of the traced run of the workload's own runtime (the
    /// staged ingest on the simulator workloads).
    pub traced_wall_s: f64,
    pub staged_stats: MessageStats,
    pub single_counter_ns: f64,
    pub wire: Wire,
    pub resolve_us: f64,
    pub read_queries: u64,
    /// Self time per span name, seconds.
    pub own: BTreeMap<&'static str, f64>,
}

/// Every per-layer metric, in declaration order. A layer that does not run
/// on a workload (the cluster on a simulator workload) did no work and
/// took no time: its metrics read 0. Counts and the runtime's own report
/// are those of the run's fastest pass, `acc` its accuracy.
pub fn per_layer(
    w: &Workload,
    inp: &Inputs,
    layout: &CounterLayout,
    size: &Size,
    passes: &[Ingest],
    acc: &Accuracy,
    p: &Probes,
) -> Vec<Metric> {
    let run = &passes[fastest(passes)];
    let wall_s = quiet_wall_s(passes);
    let query_us = pooled(passes, |p| &p.query_us);
    let m = inp.events() as f64;
    let touches_per_event = inp.touches_per_event() as f64;
    let touches = m * touches_per_event;
    let own_s = |name: &str| p.own.get(name).copied().unwrap_or(0.0);
    let (map_s, sweep_s) = (own_s("core.layout.map_chunk"), own_s("monitor.sim.observe_chunk"));
    let (map_ns, sweep_ns) = (map_s * 1e9 / m, sweep_s * 1e9 / m);
    let per_read = |name: &str| own_s(name) * 1e9 / p.read_queries as f64;
    let lag = quiet_lag_ms(passes);
    let late = run.late_sorted();
    let n_counters = layout.n_counters() as f64;

    // The runtime's own numbers, and what is left of an event's wall time
    // once the layers it crosses are priced by their replays. The wire
    // replay ships every touch; this run shipped `bytes` of that.
    let wall_ns = wall_s * 1e9 / m;
    let shipped = run.stats.bytes as f64 / m / p.wire.bytes_per_event;
    let layers_ns =
        map_ns + sweep_ns + shipped * (p.wire.encode_ns_per_event + p.wire.decode_ns_per_event);
    let c = run.cluster;
    let cluster = |f: fn(&crate::run::ClusterFacts) -> f64| c.as_ref().map_or(0.0, f);
    let stat = |x: u64| if c.is_some() { x as f64 } else { 0.0 };
    let packets = stat(run.stats.packets);
    let per_packet = |x: f64| if packets > 0.0 { x / packets } else { 0.0 };
    let layer_sum = match w.runtime {
        // Do the spans of the staged run account for the staged run?
        Runtime::Sim => (map_s + sweep_s) / p.staged_s,
        // How much of an event's wall time the replayed layers explain.
        Runtime::Cluster | Runtime::Serve => layers_ns / wall_ns,
    };

    let values = [
        ("bayes.generate.net_build_s", p.setup.net_build_s),
        ("datagen.stream.mint_ns_per_event", p.setup.mint_s * 1e9 / size.pool as f64),
        ("core.allocation.allocate_s", p.allocate_s),
        ("core.algorithms.init_s", p.setup.init_s),
        ("core.layout.map_ns_per_event", map_ns),
        ("core.layout.map_ns_per_touch", map_ns / touches_per_event),
        ("monitor.sim.sweep_ns_per_event", sweep_ns),
        ("monitor.sim.sweep_ns_per_touch", sweep_ns / touches_per_event),
        ("monitor.sim.touches", touches),
        ("monitor.sim.up_messages", p.staged_stats.up_messages as f64),
        ("monitor.sim.down_messages", p.staged_stats.down_messages as f64),
        ("monitor.sim.broadcasts", p.staged_stats.broadcasts as f64),
        ("monitor.sim.messages_per_touch", p.staged_stats.total() as f64 / touches),
        ("counters.hyz.single_counter_ns_per_increment", p.single_counter_ns),
        ("counters.wire.encode_ns_per_event", p.wire.encode_ns_per_event),
        ("counters.wire.decode_ns_per_event", p.wire.decode_ns_per_event),
        ("counters.wire.exact_bytes_per_event", p.wire.bytes_per_event),
        ("monitor.cluster.wall_s", cluster(|c| c.wall_s)),
        ("monitor.cluster.coordinator_busy_s", cluster(|c| c.coordinator_busy_s)),
        ("monitor.cluster.busy_share", cluster(|c| c.coordinator_busy_s / c.wall_s)),
        ("monitor.cluster.packets", packets),
        ("monitor.cluster.events_per_packet", per_packet(m)),
        ("monitor.cluster.bytes_per_packet", per_packet(run.stats.bytes as f64)),
        ("monitor.cluster.up_messages", stat(run.stats.up_messages)),
        ("monitor.cluster.down_messages", stat(run.stats.down_messages)),
        ("monitor.cluster.broadcasts", stat(run.stats.broadcasts)),
        ("monitor.cluster.flush_epochs", cluster(|c| c.flush_epochs as f64)),
        ("monitor.cluster.epochs", cluster(|c| c.epochs as f64)),
        (
            "monitor.cluster.residual_ns_per_event",
            if c.is_some() { wall_ns - layers_ns } else { 0.0 },
        ),
        ("monitor.snapshot.published", cluster(|c| c.published as f64)),
        ("monitor.snapshot.lag_ms_p80", percentile(&lag, 0.8)),
        ("monitor.snapshot.lag_ms_max", lag[lag.len() - 1]),
        ("core.snapshot.resolve_us", p.resolve_us),
        ("core.snapshot.resolve_ns_per_counter", p.resolve_us * 1e3 / n_counters),
        ("core.serve.snapshot_load_ns", per_read("core.serve.snapshot")),
        ("core.serve.log_query_ns", per_read("core.serve.log_query")),
        ("core.serve.classify_ns", per_read("core.serve.classify")),
        ("core.serve.resolve_faults", cluster(|c| c.resolve_faults as f64)),
        ("core.serve.queries", query_us.len() as f64),
        ("core.serve.query_p99_plain_us", percentile(&sorted(&query_us), 0.99)),
        ("core.evaluate.logp_err_mean", acc.logp_err_mean),
        ("core.evaluate.logp_err_max", acc.logp_err_max),
        ("core.evaluate.eps_budget_worst", acc.eps_budget_worst),
        (
            "bench.generator_late_ms_p99",
            if late.is_empty() { 0.0 } else { percentile(&late, 0.99) },
        ),
        // Like with like: one traced pass against the untraced passes as they
        // ran, the host's share in both.
        (
            "bench.trace_overhead_frac",
            p.traced_wall_s / median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()) - 1.0,
        ),
        ("bench.layer_sum_frac", layer_sum),
    ];
    named(values.into_iter(), PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)))
}

/// The pass with the shortest wall time.
pub fn fastest(passes: &[Ingest]) -> usize {
    (0..passes.len())
        .min_by(|&a, &b| passes[a].wall_s.total_cmp(&passes[b].wall_s))
        .expect("a pass")
}

/// The head of a result file: what ran, at what size, with how many
/// samples behind the percentiles.
pub fn head(args: &Args, size: &Size, m: u64, query_samples: usize, lag_samples: usize) -> Json {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let queries = HELD_OUT_QUERIES.min(query_samples);
    Json::obj()
        .field("workload", args.workload.name)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        // A quick run is a smoke test: never comparable, never claimable.
        .field("quick", args.quick)
        // Per pass; the run makes `passes` identical ones.
        .field("events", m)
        .field("pool", size.pool)
        .field("replays", size.replays)
        .field("passes", size.rounds)
        .field("setups", (size.rounds + 1) * size.setups_per_group)
        .field("threads_available", threads)
        // Sample counts, and for each the highest percentile that still
        // has ten samples beyond it (null: not even the median has). The
        // query percentiles are taken across the held-out queries.
        .field(
            "samples",
            Json::obj()
                .field("query", query_samples as u64)
                .field("queries", queries as u64)
                .field("query_highest_percentile", supported(queries))
                .field("snapshot_lag", lag_samples as u64)
                .field("snapshot_lag_highest_percentile", supported(lag_samples)),
        )
}

/// A result file: the head, then the failures and the metrics.
pub fn finish(head: Json, metrics: &[Metric], failures: &Failures) -> Json {
    head.field("ops_failed", failures.total())
        .field("failures", failures.to_json())
        .field("metrics", metrics_json(metrics))
}

/// A traced result file: also the self times and every span.
pub fn with_trace(doc: Json, t: &Tracer, own: &BTreeMap<&'static str, f64>) -> Json {
    let (names, spans) = t.to_json();
    let columns = ["name", "start_ns", "end_ns", "parent", "chunk"];
    doc.field(
        "self_time_s",
        Json::Obj(own.iter().map(|(k, &v)| ((*k).to_owned(), v.into())).collect()),
    )
    .field("span_columns", Json::Arr(columns.into_iter().map(Json::from).collect()))
    .field("span_names", names)
    .field("spans", spans)
}

fn supported(samples: usize) -> Json {
    highest_supported(samples).map_or(Json::Null, Json::Num)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), Json::obj().field("value", m.value).field("unit", m.unit)))
            .collect(),
    )
}

pub fn write(dir: &Path, file: &str, doc: Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Print every metric by name with its unit, then the result line. Returns
/// whether the run was correct.
pub fn print(metrics: &[Metric], attempted: u64, failures: &Failures) -> bool {
    for m in metrics {
        println!("{:<46} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let correct = failures.total() == 0;
    if !correct {
        eprintln!("FAILED: {failures:?}");
    }
    let line = Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failures.total())
        .field("metrics", metrics_json(metrics));
    println!("{}", line.compact());
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::Readout;

    fn pass(wall_s: f64, pieces_ms: &[f64], up_messages: u64, query_us: &[f64]) -> Ingest {
        Ingest {
            wall_s,
            pieces_ms: pieces_ms.to_vec(),
            rss_mb: wall_s,
            events_seen: 4,
            stats: MessageStats { up_messages, ..MessageStats::default() },
            readout: Readout { estimates: Vec::new(), exact: Vec::new(), open: None },
            lag_ms: pieces_ms.to_vec(),
            query_us: query_us.to_vec(),
            late_ms: Vec::new(),
            cluster: None,
        }
    }

    /// Timings are read piece by piece off the pass that piece went fastest
    /// in; counts are the median pass's; memory is the first pass's.
    #[test]
    fn passes_are_read_as_one_quiet_pass() {
        let passes = [
            pass(9.0, &[1.0, 5.0, 3.0], 8, &[2.0, 7.0]),
            pass(8.0, &[2.0, 2.0, 4.0], 4, &[3.0, 6.0]),
            pass(10.0, &[3.0, 4.0, 3.0], 12, &[4.0, 5.0]),
        ];
        assert_eq!(quiet_wall_s(&passes), (1.0 + 2.0 + 3.0) / 1e3);
        assert_eq!(quiet_lag_ms(&passes), vec![1.0, 2.0, 3.0]);
        assert_eq!(fastest(&passes), 1);
        let accuracy = |eps_budget_used| Accuracy {
            eps_budget_used,
            eps_budget_worst: 0.0,
            logp_err_mean: 0.0,
            logp_err_max: 0.0,
            queries_failed: 0,
        };
        let metrics = end_to_end(&passes, &[accuracy(0.3), accuracy(0.1), accuracy(0.2)], 0.5, 4);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("ingest_events_per_s"), 4.0 / 0.006);
        assert_eq!(value("messages_per_event"), 2.0);
        assert_eq!(value("eps_budget_used"), 0.2);
        assert_eq!(value("snapshot_lag_ms_p50"), 2.0);
        assert_eq!(value("peak_rss_mb"), 9.0);
        // The passes' query samples are one series (here shorter than one
        // turn through the held-out queries, so every sample is its own query).
        assert_eq!((value("query_p50_us"), value("query_p99_us")), (4.0, 7.0));
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}
