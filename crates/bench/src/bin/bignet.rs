//! Big-network hot-path bench: the per-event cost at 500–5000 variables,
//! where the Algorithm-2 id mapping and the `2n` counter touches dominate.
//! (The committed `results/bignet.json` is the archived PR 9 record, which
//! also timed the since-deleted pre-stride Horner mapping; this bench
//! writes the same records without the `mapping` axis.)
//!
//! ```sh
//! cargo run --release -p dsbn-bench --bin bignet             # full sweep
//! cargo run --release -p dsbn-bench --bin bignet -- --quick  # CI (500-var)
//! ```
//!
//! Flags: `--nets big500,big1500,munin-stress,big5000` `--schemes
//! exact,non-uniform` `--touches <sim counter-touch budget>`
//! `--cluster-touches <cluster budget>` `--k` `--eps` `--seed` `--runs`
//! `--chunk` `--out <results/<out>.json>` `--quick` `--check` (exit
//! non-zero unless every events/s is finite and positive).
//!
//! The per-event cost is `2n` counter touches, so event budgets are set in
//! *touches* and divided by `2n` per network: each preset does comparable
//! total work and the events/s figures expose the per-variable constant.
//! Three runtimes per preset: `map` is the id-mapping kernel in isolation
//! (`map_chunk` only); `sim` drives
//! [`dsbn_core::AnyTracker::observe_chunk`] over pre-built [`EventChunk`]s (no
//! sampling or re-chunking in the timed region); `cluster` is the
//! end-to-end threaded pipeline, whose throughput on a 1-CPU container is
//! scheduler-noisy — compare within this file only.

use dsbn_bayes::BayesianNetwork;
use dsbn_bench::json::Json;
use dsbn_bench::{json, resolve_networks, Args, LatencyRecorder};
use dsbn_core::{build_tracker, run_cluster_tracker, Scheme, TrackerConfig};
use dsbn_datagen::{EventChunk, TrainingStream};
use std::time::Instant;

/// One runtime measurement.
struct Record {
    network: String,
    n_vars: u64,
    n_counters: u64,
    scheme: &'static str,
    runtime: &'static str,
    events: u64,
    secs: f64,
    events_per_sec: f64,
    messages: u64,
    bytes: u64,
}

impl Record {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("network", Json::Str(self.network.clone()))
            .field("n_vars", Json::UInt(self.n_vars))
            .field("n_counters", Json::UInt(self.n_counters))
            .field("scheme", Json::Str(self.scheme.into()))
            .field("runtime", Json::Str(self.runtime.into()))
            .field("events", Json::UInt(self.events))
            .field("secs", Json::Num(self.secs))
            .field("events_per_sec", Json::Num(self.events_per_sec))
            .field("messages", Json::UInt(self.messages))
            .field("bytes", Json::UInt(self.bytes))
    }

    /// The (network, scheme, runtime) cell this record measures.
    fn cell(&self) -> String {
        format!("{}/{}/{}", self.network, self.scheme, self.runtime)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut rec = LatencyRecorder::new();
    for &v in values {
        rec.record(v);
    }
    rec.percentile(0.5)
}

/// Events for a touch budget on an `n`-variable network (2n touches per
/// event), floored so tiny budgets still measure something.
fn events_for(touches: u64, n_vars: usize) -> u64 {
    (touches / (2 * n_vars as u64)).max(512)
}

/// Materialize `m` seeded events into 256-event slabs outside any timed
/// region.
fn materialize_chunks(net: &BayesianNetwork, seed: u64, m: u64) -> Vec<EventChunk> {
    let mut chunks = Vec::new();
    let mut stream = TrainingStream::new(net, seed).take(m as usize);
    loop {
        let mut chunk = EventChunk::with_capacity(net.n_vars(), 256);
        while chunk.len() < 256 {
            match stream.next() {
                Some(x) => chunk.push(&x),
                None => break,
            }
        }
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    chunks
}

/// The mapping kernel in isolation: `map_chunk` over the slabs, no counter
/// sweep — measured without the protocol work that dominates (and noises
/// up) the end-to-end rows.
fn map_record(net: &BayesianNetwork, m: u64, seed: u64, runs: usize) -> Record {
    let chunks = materialize_chunks(net, seed, m);
    let layout = dsbn_core::CounterLayout::new(net);
    let mut secs = Vec::with_capacity(runs);
    let mut ids = Vec::new();
    for run in 0..=runs {
        let start = Instant::now();
        for chunk in &chunks {
            layout.map_chunk(chunk, &mut ids);
            std::hint::black_box(ids.last().copied());
        }
        if run > 0 {
            secs.push(start.elapsed().as_secs_f64());
        }
    }
    let secs = median(&secs);
    Record {
        network: net.name().to_owned(),
        n_vars: net.n_vars() as u64,
        n_counters: layout.n_counters() as u64,
        scheme: "-",
        runtime: "map",
        events: m,
        secs,
        events_per_sec: if secs > 0.0 { m as f64 / secs } else { f64::NAN },
        messages: 0,
        bytes: 0,
    }
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
    // Pre-chunk the stream outside the timed region: the timed loop is
    // exactly map_chunk + observe_chunk, the 2n-touch hot path.
    let chunks = materialize_chunks(net, seed, m);
    let mut secs = Vec::with_capacity(runs);
    let mut last = None;
    // Same seed per repeat; iteration 0 is an untimed warmup.
    for run in 0..=runs {
        let tc = TrackerConfig::new(scheme).with_k(k).with_eps(eps).with_seed(seed);
        let mut tracker = build_tracker(net, &tc);
        let start = Instant::now();
        for chunk in &chunks {
            tracker.observe_chunk(chunk);
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
        n_vars: net.n_vars() as u64,
        n_counters: dsbn_core::CounterLayout::new(net).n_counters() as u64,
        scheme: scheme.name(),
        runtime: "sim",
        events: m,
        secs,
        events_per_sec: if secs > 0.0 { m as f64 / secs } else { f64::NAN },
        messages: stats.total(),
        bytes: stats.bytes,
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
) -> Record {
    let events: Vec<Vec<usize>> = TrainingStream::new(net, seed).take(m as usize).collect();
    let mut rates = Vec::with_capacity(runs);
    let mut walls = Vec::with_capacity(runs);
    let mut last = None;
    for run in 0..=runs {
        let tc =
            TrackerConfig::new(scheme).with_k(k).with_eps(eps).with_seed(seed).with_chunk(chunk);
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
        n_vars: net.n_vars() as u64,
        n_counters: dsbn_core::CounterLayout::new(net).n_counters() as u64,
        scheme: scheme.name(),
        runtime: "cluster",
        events: report.events,
        secs: median(&walls),
        events_per_sec: median(&rates),
        messages: report.stats.total(),
        bytes: report.stats.bytes,
    }
}

fn parse_schemes(names: &[String]) -> Vec<Scheme> {
    names
        .iter()
        .map(|name| {
            Scheme::parse(name).unwrap_or_else(|| {
                eprintln!("error: unknown scheme {name:?} (exact|baseline|uniform|non-uniform)");
                std::process::exit(2);
            })
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let default_nets: &[&str] =
        if quick { &["big500"] } else { &["big500", "big1500", "munin-stress", "big5000"] };
    let nets = resolve_networks(&args.get_list("nets", default_nets), args.get("net-seed", 1u64));
    let schemes = parse_schemes(&args.get_list("schemes", &["exact", "non-uniform"]));
    // Counter-touch budgets (events = touches / 2n per net).
    let touches: u64 = args.get("touches", if quick { 4_000_000 } else { 40_000_000 });
    let cluster_touches: u64 =
        args.get("cluster-touches", if quick { 2_000_000 } else { 10_000_000 });
    let k: usize = args.get("k", if quick { 4 } else { 8 });
    let eps: f64 = args.get("eps", 0.1);
    let seed: u64 = args.get("seed", 1);
    let runs: usize = args.get("runs", if quick { 1 } else { 3 });
    let chunk: usize = args.get("chunk", 256usize);
    let out = args.get_str("out", "bignet");

    let mut records = Vec::new();
    for net in &nets {
        let m = events_for(touches, net.n_vars());
        let cm = events_for(cluster_touches, net.n_vars());
        eprintln!("measuring {} / map kernel ({m} events) ...", net.name());
        records.push(map_record(net, m, seed, runs.max(5)));
        for &scheme in &schemes {
            eprintln!("measuring {} / {} (sim, {m} events) ...", net.name(), scheme.name());
            records.push(sim_record(net, scheme, m, k, eps, seed, runs));
            eprintln!("measuring {} / {} (cluster, {cm} events) ...", net.name(), scheme.name());
            records.push(cluster_record(net, scheme, cm, k, eps, seed, runs, chunk));
        }
    }

    let doc = Json::obj()
        .field("bench", Json::Str("bignet".into()))
        .field("quick", Json::Bool(quick))
        .field("touches", Json::UInt(touches))
        .field("cluster_touches", Json::UInt(cluster_touches))
        .field("k", Json::UInt(k as u64))
        .field("eps", Json::Num(eps))
        .field("seed", Json::UInt(seed))
        .field("runs", Json::UInt(runs as u64))
        .field("chunk", Json::UInt(chunk as u64))
        .field("records", Json::Arr(records.iter().map(Record::to_json).collect()));
    let path = json::emit(&doc, &out);

    let mut table = dsbn_bench::Table::new(
        "Big-network hot path",
        &["network", "n", "counters", "scheme", "runtime", "events", "events/s"],
    );
    for r in &records {
        table.row(&[
            r.network.clone(),
            r.n_vars.to_string(),
            r.n_counters.to_string(),
            r.scheme.into(),
            r.runtime.into(),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("(json: {})", path.display());

    if args.has("check") {
        let bad: Vec<String> = records
            .iter()
            .filter(|r| !(r.events_per_sec.is_finite() && r.events_per_sec > 0.0))
            .map(Record::cell)
            .collect();
        if !bad.is_empty() {
            for cell in &bad {
                eprintln!("error: {cell}: non-finite or zero events/s");
            }
            std::process::exit(1);
        }
        eprintln!("check ok: {} records finite and positive", records.len());
    }
}
