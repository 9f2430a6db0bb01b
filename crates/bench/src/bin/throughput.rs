//! UPDATE-pipeline throughput bench: drives the *same* trackers the
//! experiments use — the synchronous simulator ([`dsbn_core::build_tracker`])
//! and the threaded cluster ([`dsbn_core::run_cluster_tracker`]) — over
//! seeded streams and emits machine-readable JSON under `results/`, so the
//! hot path's performance trajectory is measurable PR over PR.
//!
//! ```sh
//! cargo run --release -p dsbn-bench --bin throughput               # full
//! cargo run --release -p dsbn-bench --bin throughput -- --quick   # CI
//! ```
//!
//! Flags: `--nets sprinkler,alarm` `--schemes exact,baseline,uniform,non-uniform`
//! `--m <sim events>` `--cluster-m <cluster events>` `--k` `--eps` `--seed`
//! `--runs <medians over N>` `--chunk 1,16,256` (cluster ingest chunk-size
//! sweep) `--coord-workers 1,2,4` (coordinator shard-worker sweep; `1` keeps
//! all counter state on the coordinator thread) `--churn <faults>` (inject
//! a seeded crash/rejoin schedule of up to that many site faults into
//! every cluster run — throughput under churn, DESIGN.md §8; `0`, the
//! default, runs fault-free) `--out <results/<out>.json>` `--quick` `--check` (exit
//! non-zero unless every events/s is finite and positive and, fault-free,
//! the EXACTMLE rows of one (network, chunk) agree in messages and bytes
//! across `--coord-workers`).
//!
//! Throughput figures reported per (network, scheme):
//!
//! - `sim`: wall-clock events/s of the UPDATE loop over a pre-materialized
//!   stream (pure tracker cost, no sampling in the timed region).
//! - `cluster`, once per `--chunk` entry: events/s against the
//!   coordinator's busy window (`ClusterReport::throughput`, the paper's
//!   Fig. 8 metric) plus the whole-run wall time. `chunk = 1` is the
//!   per-event pipeline; larger chunks exercise the cross-event ingest
//!   batching (one channel send / one packet / one decode per chunk).
//!
//! Every (record, configuration) runs one untimed warmup before the timed
//! medians, so cold caches and thread spin-up never pollute the figures.
//!
//! Byte figures come from `MessageStats::bytes` (wire-frame accounting), so
//! `bytes / events` exposes the per-event framing cost the event-batched
//! pipeline amortizes (chunking coalesces packets but never changes bytes).

use dsbn_bayes::BayesianNetwork;
use dsbn_bench::json::Json;
use dsbn_bench::{json, resolve_networks, Args, LatencyRecorder};
use dsbn_core::{build_tracker, run_cluster_tracker, Scheme, TrackerConfig};
use dsbn_datagen::TrainingStream;
use dsbn_monitor::SiteFault;
use std::time::Instant;

/// One runtime measurement.
struct Record {
    network: String,
    scheme: &'static str,
    runtime: &'static str,
    /// Cluster ingest chunk size; `None` for the simulator (whose internal
    /// chunking is bit-identical at any size and not a knob here).
    chunk: Option<u64>,
    /// Coordinator shard workers (`1` = all counter state on the
    /// coordinator thread); `None` for the simulator. Recorded even when
    /// sharding cannot speed anything up (e.g. a 1-CPU container), so the
    /// sweep documents the machine it ran on.
    coord_workers: Option<u64>,
    events: u64,
    secs: f64,
    events_per_sec: f64,
    messages: u64,
    packets: u64,
    bytes: u64,
    /// Churn accounting of the last run (cluster runs with `--churn` only):
    /// `(kills, revives, events_lost)`.
    churn: Option<(u64, u64, u64)>,
}

impl Record {
    fn to_json(&self) -> Json {
        let bytes_per_event =
            if self.events == 0 { f64::NAN } else { self.bytes as f64 / self.events as f64 };
        let mut obj = Json::obj()
            .field("network", Json::Str(self.network.clone()))
            .field("scheme", Json::Str(self.scheme.into()))
            .field("runtime", Json::Str(self.runtime.into()));
        if let Some(chunk) = self.chunk {
            obj = obj.field("chunk", Json::UInt(chunk));
        }
        if let Some(w) = self.coord_workers {
            obj = obj.field("coord_workers", Json::UInt(w));
        }
        obj = obj
            .field("events", Json::UInt(self.events))
            .field("secs", Json::Num(self.secs))
            .field("events_per_sec", Json::Num(self.events_per_sec))
            .field("messages", Json::UInt(self.messages))
            .field("packets", Json::UInt(self.packets))
            .field("bytes", Json::UInt(self.bytes))
            .field("bytes_per_event", Json::Num(bytes_per_event));
        if let Some((kills, revives, events_lost)) = self.churn {
            obj = obj
                .field("kills", Json::UInt(kills))
                .field("revives", Json::UInt(revives))
                .field("events_lost", Json::UInt(events_lost));
        }
        obj
    }
}

/// Median of a non-empty slice via the shared [`LatencyRecorder`]
/// nearest-rank percentile (identical to the old `values[len / 2]` pick
/// at the odd run counts this bench uses; even counts take the lower
/// middle instead of the upper).
fn median(values: &[f64]) -> f64 {
    let mut rec = LatencyRecorder::new();
    for &v in values {
        rec.record(v);
    }
    rec.percentile(0.5)
}

fn sim_record(
    net: &BayesianNetwork,
    scheme: Scheme,
    m: u64,
    k: usize,
    eps: f64,
    seed: u64,
    runs: usize,
) -> Record {
    let events: Vec<Vec<usize>> = TrainingStream::new(net, seed).take(m as usize).collect();
    let mut secs = Vec::with_capacity(runs);
    let mut last = None;
    // Every repeat uses the same seed: runs sample *timing* noise over an
    // identical workload, so the traffic tallies below correspond to every
    // timed run, not just the last one. Iteration 0 is an untimed warmup.
    for run in 0..=runs {
        let tc = TrackerConfig::new(scheme).with_k(k).with_eps(eps).with_seed(seed);
        let mut tracker = build_tracker(net, &tc);
        let start = Instant::now();
        for x in &events {
            tracker.observe(x);
        }
        if run > 0 {
            secs.push(start.elapsed().as_secs_f64());
        }
        last = Some(tracker.stats());
    }
    let stats = last.expect("at least one run");
    let secs = median(&secs);
    Record {
        network: net.name().to_owned(),
        scheme: scheme.name(),
        runtime: "sim",
        chunk: None,
        coord_workers: None,
        events: m,
        secs,
        events_per_sec: if secs > 0.0 { m as f64 / secs } else { f64::NAN },
        messages: stats.total(),
        packets: stats.packets,
        bytes: stats.bytes,
        churn: None,
    }
}

#[allow(clippy::too_many_arguments)]
fn cluster_record(
    net: &BayesianNetwork,
    scheme: Scheme,
    m: u64,
    k: usize,
    eps: f64,
    seed: u64,
    runs: usize,
    chunk: usize,
    coord_workers: usize,
    churn_faults: usize,
) -> Record {
    // Pre-materialize the stream outside the measured window, exactly as
    // `sim_record` does ("pure tracker cost, no sampling in the timed
    // region"): ancestral sampling costs ~0.6 µs/event on ALARM, which on
    // a small machine would otherwise dominate the coordinator's busy
    // window and measure the generator, not the pipeline.
    let events: Vec<Vec<usize>> = TrainingStream::new(net, seed).take(m as usize).collect();
    let mut rates = Vec::with_capacity(runs);
    let mut walls = Vec::with_capacity(runs);
    let mut last = None;
    // Same seed per repeat (see sim_record): the cluster's message tallies
    // still vary slightly across runs with thread interleaving, but the
    // workload and protocol randomness are held fixed. Iteration 0 is an
    // untimed warmup (thread spin-up, first-touch allocation).
    for run in 0..=runs {
        let mut tc = TrackerConfig::new(scheme)
            .with_k(k)
            .with_eps(eps)
            .with_seed(seed)
            .with_chunk(chunk)
            .with_coord_workers(coord_workers);
        if churn_faults > 0 {
            tc = tc.with_faults(SiteFault::schedule(k, m, churn_faults, seed));
        }
        let run_out =
            run_cluster_tracker(net, &tc, events.iter().cloned()).expect("cluster run failed");
        if run > 0 {
            rates.push(run_out.report.throughput());
            walls.push(run_out.report.wall_time.as_secs_f64());
        }
        last = Some(run_out.report);
    }
    let report = last.expect("at least one run");
    Record {
        network: net.name().to_owned(),
        scheme: scheme.name(),
        runtime: "cluster",
        chunk: Some(chunk as u64),
        coord_workers: Some(coord_workers as u64),
        events: report.events,
        secs: median(&walls),
        events_per_sec: median(&rates),
        messages: report.stats.total(),
        packets: report.stats.packets,
        bytes: report.stats.bytes,
        churn: (churn_faults > 0).then_some((
            report.churn.kills,
            report.churn.revives,
            report.churn.events_lost,
        )),
    }
}

fn parse_schemes(names: &[String]) -> Vec<Scheme> {
    names
        .iter()
        .map(|name| {
            Scheme::ALL.into_iter().find(|s| s.name() == name.to_ascii_lowercase()).unwrap_or_else(
                || {
                    eprintln!(
                        "error: unknown scheme {name:?} (exact|baseline|uniform|non-uniform)"
                    );
                    std::process::exit(2);
                },
            )
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let default_nets: &[&str] = if quick { &["sprinkler"] } else { &["sprinkler", "alarm"] };
    let nets = resolve_networks(&args.get_list("nets", default_nets), args.get("net-seed", 1u64));
    let schemes =
        parse_schemes(&args.get_list("schemes", &["exact", "baseline", "uniform", "non-uniform"]));
    let m: u64 = args.get("m", if quick { 50_000 } else { 200_000 });
    let cluster_m: u64 = args.get("cluster-m", if quick { 20_000 } else { 100_000 });
    let k: usize = args.get("k", if quick { 4 } else { 8 });
    let eps: f64 = args.get("eps", 0.1);
    let seed: u64 = args.get("seed", 1);
    let runs: usize = args.get("runs", if quick { 1 } else { 3 });
    let chunks: Vec<usize> = args
        .get_list("chunk", &["1", "16", "256"])
        .iter()
        .map(|s| {
            s.parse::<usize>().ok().filter(|&c| c >= 1).unwrap_or_else(|| {
                eprintln!("error: bad chunk size {s:?} (want integers >= 1)");
                std::process::exit(2);
            })
        })
        .collect();
    let coord_workers: Vec<usize> = args
        .get_list("coord-workers", &["1"])
        .iter()
        .map(|s| {
            s.parse::<usize>().ok().filter(|&w| w >= 1).unwrap_or_else(|| {
                eprintln!("error: bad coord-workers count {s:?} (want integers >= 1)");
                std::process::exit(2);
            })
        })
        .collect();
    let churn: usize = args.get("churn", 0usize);
    let out = args.get_str("out", "throughput");

    let mut records = Vec::new();
    for net in &nets {
        for &scheme in &schemes {
            eprintln!("measuring {} / {} (sim) ...", net.name(), scheme.name());
            records.push(sim_record(net, scheme, m, k, eps, seed, runs));
            for &chunk in &chunks {
                for &workers in &coord_workers {
                    eprintln!(
                        "measuring {} / {} (cluster, chunk {chunk}, coord workers {workers}) ...",
                        net.name(),
                        scheme.name()
                    );
                    records.push(cluster_record(
                        net, scheme, cluster_m, k, eps, seed, runs, chunk, workers, churn,
                    ));
                }
            }
        }
    }

    let doc = Json::obj()
        .field("bench", Json::Str("throughput".into()))
        .field("quick", Json::Bool(quick))
        .field("m", Json::UInt(m))
        .field("cluster_m", Json::UInt(cluster_m))
        .field("k", Json::UInt(k as u64))
        .field("eps", Json::Num(eps))
        .field("seed", Json::UInt(seed))
        .field("runs", Json::UInt(runs as u64))
        .field("churn", Json::UInt(churn as u64))
        .field("chunks", Json::Arr(chunks.iter().map(|&c| Json::UInt(c as u64)).collect()))
        .field(
            "coord_workers",
            Json::Arr(coord_workers.iter().map(|&w| Json::UInt(w as u64)).collect()),
        )
        .field("records", Json::Arr(records.iter().map(Record::to_json).collect()));
    let path = json::emit(&doc, &out);

    // Human-readable summary alongside the JSON.
    let mut table = dsbn_bench::Table::new(
        "UPDATE throughput",
        &[
            "network",
            "scheme",
            "runtime",
            "chunk",
            "workers",
            "events",
            "events/s",
            "messages",
            "bytes/event",
        ],
    );
    for r in &records {
        let bpe = if r.events == 0 { f64::NAN } else { r.bytes as f64 / r.events as f64 };
        table.row(&[
            r.network.clone(),
            r.scheme.into(),
            r.runtime.into(),
            r.chunk.map_or_else(|| "-".into(), |c| c.to_string()),
            r.coord_workers.map_or_else(|| "-".into(), |w| w.to_string()),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
            r.messages.to_string(),
            format!("{bpe:.1}"),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("(json: {})", path.display());

    if args.has("check") {
        let bad: Vec<String> = records
            .iter()
            .filter(|r| !(r.events_per_sec.is_finite() && r.events_per_sec > 0.0))
            .map(|r| format!("{}/{}/{}", r.network, r.scheme, r.runtime))
            .collect();
        if !bad.is_empty() {
            eprintln!("error: non-finite or zero events/s for: {}", bad.join(", "));
            std::process::exit(1);
        }
        // EXACTMLE never broadcasts, so a fault-free run's traffic is a
        // function of the stream alone: the rows of one (network, chunk)
        // must agree across coordinator worker counts, or the worker path
        // miscounts. (Under --churn revives land asynchronously and the
        // tallies legitimately vary.)
        let exact = || {
            records.iter().filter(|r| r.scheme == Scheme::ExactMle.name() && r.runtime == "cluster")
        };
        let drifted: Vec<String> = exact()
            .filter(|r| {
                exact().any(|o| {
                    (&o.network, o.chunk) == (&r.network, r.chunk)
                        && (o.messages, o.bytes) != (r.messages, r.bytes)
                })
            })
            .map(|r| format!("{}/chunk {:?}/workers {:?}", r.network, r.chunk, r.coord_workers))
            .collect();
        if churn == 0 && !drifted.is_empty() {
            eprintln!(
                "error: exact messages/bytes differ across coord_workers: {}",
                drifted.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!("check ok: all {} throughput figures finite and positive", records.len());
        if churn == 0 {
            eprintln!("check ok: exact messages/bytes equal across coord_workers");
        }
    }
}
