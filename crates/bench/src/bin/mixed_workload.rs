//! MIXED-workload bench: serve classify/QUERY traffic *while* the cluster
//! ingests at full rate — the split read/ingest pipeline of DESIGN.md §7,
//! measured. One cluster run ([`dsbn_core::run_cluster_tracker`]) with
//! epoch settlements publishing to a [`dsbn_core::SnapshotHub`] ingests a
//! seeded stream to completion while `R` reader threads hammer a shared
//! [`dsbn_core::SnapshotServer`]; the bench records ingest events/s,
//! aggregate queries/s, and per-query latency percentiles into
//! `results/mixed_workload.json`.
//!
//! ```sh
//! cargo run --release -p dsbn-bench --bin mixed_workload              # full
//! cargo run --release -p dsbn-bench --bin mixed_workload -- --quick  # CI
//! ```
//!
//! Flags: `--net alarm` `--scheme non-uniform` `--m <events>` `--k`
//! `--eps` `--seed` `--readers <R>` `--snapshot-every <events/epoch>`
//! `--chunk` `--coord-workers` `--out <results/<out>.json>` `--quick`
//! `--check` (exit non-zero unless both rates are finite and positive,
//! the latency percentiles are sane, at least one snapshot was published,
//! and the final served answers are byte-identical to the end-of-run
//! model — the PR's acceptance anchor, under concurrency).
//!
//! The reader hot path is lock-free — two RCU loads per query, no lock
//! held, no message sent, no coordination with ingest (see
//! `dsbn_core::SnapshotServer`) — so queries/s should hold up while
//! ingest saturates the coordinator. That is the claim this bench pins
//! with numbers. Readers time `snapshot()` + evaluate together, so the
//! latency figures include the once-per-settlement resolve fault that one
//! reader absorbs when a new epoch lands.

use dsbn_bench::json::Json;
use dsbn_bench::{json, resolve_networks, Args, LatencyRecorder, Table};
use dsbn_core::{run_cluster_tracker, Scheme, SnapshotHub, SnapshotServer, TrackerConfig};
use dsbn_datagen::TrainingStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// What one reader thread brings home.
struct ReaderOut {
    queries: u64,
    /// Per-query latency in microseconds.
    latency: LatencyRecorder,
    /// Distinct snapshot sequences this reader served from; `> 1` means
    /// the reader really followed settlements mid-stream rather than
    /// answering from one frozen state the whole run.
    seqs_seen: u64,
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let net_name = args.get_str("net", if quick { "sprinkler" } else { "alarm" });
    let nets = resolve_networks(std::slice::from_ref(&net_name), args.get("net-seed", 1u64));
    let net = &nets[0];
    let scheme_name = args.get_str("scheme", "non-uniform");
    let scheme = Scheme::ALL
        .into_iter()
        .find(|s| s.name() == scheme_name.to_ascii_lowercase())
        .unwrap_or_else(|| {
            eprintln!("error: unknown scheme {scheme_name:?} (exact|baseline|uniform|non-uniform)");
            std::process::exit(2);
        });
    let m: u64 = args.get("m", if quick { 40_000 } else { 300_000 });
    let k: usize = args.get("k", if quick { 3 } else { 8 });
    let eps: f64 = args.get("eps", 0.1);
    let seed: u64 = args.get("seed", 1);
    let readers: usize = args.get("readers", if quick { 2 } else { 4 });
    let settle_every: u64 = args.get("snapshot-every", if quick { 2_000 } else { 10_000 });
    let chunk: usize = args.get("chunk", 64);
    let coord_workers: usize = args.get("coord-workers", 1);
    let out = args.get_str("out", "mixed_workload");

    // Pre-materialize both workloads outside every measured window: the
    // ingest stream (as `throughput` does) and a pool of query points the
    // readers cycle through, so neither side samples in the hot loop.
    let events: Vec<Vec<usize>> = TrainingStream::new(net, seed).take(m as usize).collect();
    let queries: Vec<Vec<usize>> =
        TrainingStream::new(net, seed ^ 0x9e37_79b9).take(1024).collect();

    let hub = SnapshotHub::new();
    let tc = TrackerConfig::new(scheme)
        .with_k(k)
        .with_eps(eps)
        .with_seed(seed)
        .with_chunk(chunk)
        .with_coord_workers(coord_workers)
        .with_snapshot_every(settle_every)
        .with_publish(hub.clone());
    let server = SnapshotServer::new(net, tc.smoothing, hub.clone());

    eprintln!(
        "mixed workload: {} / {} — {m} events, {readers} readers, settlement every \
         {settle_every} events ...",
        net.name(),
        scheme.name()
    );

    let stop = AtomicBool::new(false);
    let mut outs: Vec<ReaderOut> = Vec::new();
    let mut run = None;
    let mut ingest_wall = 0.0f64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let (server, stop, queries) = (&server, &stop, &queries);
                scope.spawn(move || {
                    let mut latency = LatencyRecorder::new();
                    let mut n = 0u64;
                    let mut seqs_seen = 0u64;
                    let mut last_seq = u64::MAX;
                    // Offset per reader so threads don't walk the pool in
                    // lockstep. Do-while shape: every reader answers at
                    // least one query even if ingest finishes instantly.
                    let mut i = r;
                    loop {
                        let x = &queries[i % queries.len()];
                        i += 1;
                        let t0 = Instant::now();
                        let snap = server.snapshot();
                        let logp = server.evaluator(&snap).log_query(x);
                        latency.record(t0.elapsed().as_secs_f64() * 1e6);
                        n += 1;
                        assert!(logp.is_finite(), "non-finite answer under serving");
                        if snap.seq != last_seq {
                            last_seq = snap.seq;
                            seqs_seen += 1;
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    ReaderOut { queries: n, latency, seqs_seen }
                })
            })
            .collect();

        let start = Instant::now();
        let res =
            run_cluster_tracker(net, &tc, events.iter().cloned()).expect("cluster run failed");
        ingest_wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        run = Some(res);
        for h in handles {
            outs.push(h.join().expect("reader thread panicked"));
        }
    });
    let run = run.expect("ingest ran");
    let report = &run.report;

    let total_queries: u64 = outs.iter().map(|o| o.queries).sum();
    let mut latency = LatencyRecorder::new();
    for o in &outs {
        latency.merge(&o.latency);
    }
    let max_seqs_seen = outs.iter().map(|o| o.seqs_seen).max().unwrap_or(0);
    // Queries/s over the ingest window: the rate sustained *while* the
    // pipeline was busy, which is the figure that matters for co-located
    // serving (readers idle-spin a few extra queries during join; those
    // land in the latency sample but not in this rate's denominator).
    let qps = if ingest_wall > 0.0 { total_queries as f64 / ingest_wall } else { f64::NAN };
    let ingest_rate = report.throughput();
    let final_seq = hub.seq();

    // The acceptance anchor, checked live: after the run, the server must
    // answer byte-identically to the end-of-run cluster model.
    let final_bitwise = TrainingStream::new(net, seed ^ 0x51)
        .take(16)
        .all(|x| server.log_query(&x).to_bits() == run.model.log_query(&x).to_bits());

    let doc = Json::obj()
        .field("bench", Json::Str("mixed_workload".into()))
        .field("quick", Json::Bool(quick))
        .field("network", Json::Str(net.name().to_owned()))
        .field("scheme", Json::Str(scheme.name().into()))
        .field("m", Json::UInt(m))
        .field("k", Json::UInt(k as u64))
        .field("eps", Json::Num(eps))
        .field("seed", Json::UInt(seed))
        .field("readers", Json::UInt(readers as u64))
        .field("snapshot_every", Json::UInt(settle_every))
        .field("chunk", Json::UInt(chunk as u64))
        .field("coord_workers", Json::UInt(coord_workers as u64))
        .field(
            "ingest",
            Json::obj()
                .field("events", Json::UInt(report.events))
                .field("epochs", Json::UInt(report.epochs))
                .field("snapshots_published", Json::UInt(final_seq))
                .field("wall_secs", Json::Num(ingest_wall))
                .field("events_per_sec", Json::Num(ingest_rate)),
        )
        .field(
            "queries",
            Json::obj()
                .field("total", Json::UInt(total_queries))
                .field("per_sec", Json::Num(qps))
                .field("max_seqs_seen", Json::UInt(max_seqs_seen))
                .field("latency_us", latency.to_json()),
        )
        .field("final_snapshot_bitwise", Json::Bool(final_bitwise));
    let path = json::emit(&doc, &out);

    let mut table = Table::new(
        "mixed workload (ingest + serve)",
        &[
            "network",
            "scheme",
            "readers",
            "ingest ev/s",
            "queries/s",
            "p50 us",
            "p99 us",
            "snapshots",
        ],
    );
    table.row(&[
        net.name().to_owned(),
        scheme.name().into(),
        readers.to_string(),
        format!("{ingest_rate:.0}"),
        format!("{qps:.0}"),
        format!("{:.1}", latency.percentile(0.5)),
        format!("{:.1}", latency.percentile(0.99)),
        final_seq.to_string(),
    ]);
    println!("{}", table.to_markdown());
    println!("(json: {})", path.display());

    if args.has("check") {
        let p50 = latency.percentile(0.5);
        let p99 = latency.percentile(0.99);
        let mut bad: Vec<&str> = Vec::new();
        if !(ingest_rate.is_finite() && ingest_rate > 0.0) {
            bad.push("ingest events/s not finite/positive");
        }
        if !(qps.is_finite() && qps > 0.0) {
            bad.push("queries/s not finite/positive");
        }
        if !(p50.is_finite() && p99.is_finite() && p50 <= p99) {
            bad.push("latency percentiles not sane");
        }
        if final_seq == 0 {
            bad.push("no snapshot ever published");
        }
        if max_seqs_seen < 2 {
            bad.push("readers never observed a mid-stream settlement");
        }
        if !final_bitwise {
            bad.push("final served answers differ from the end-of-run model");
        }
        if !bad.is_empty() {
            eprintln!("error: mixed workload check failed: {}", bad.join("; "));
            std::process::exit(1);
        }
        eprintln!(
            "check ok: {total_queries} queries at {qps:.0}/s against {final_seq} snapshots, \
             final answers byte-identical"
        );
    }
}
