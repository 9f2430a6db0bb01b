//! The threaded-runtime workloads: feed `run_cluster_tracker` from the
//! pool, unpaced or on an open-loop schedule, with an optional reader
//! thread querying the published snapshots beside ingest.

use crate::checks::Readout;
use crate::inputs::{Inputs, Served};
use crate::pace::due_ns;
use crate::report::peak_rss_mb;
use crate::run::{query_latency, ClusterFacts, Ingest};
use crate::spec::{Size, CHUNK, READER_BATCH, READER_PAUSE_US, SERVE_RATE_PER_S};
use crate::surface::{run_cluster_tracker, EventChunk, SnapshotServer};
use crate::trace::{Span, Tracer, NONE};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The driver's event iterator: the pool, replayed, one `Assignment` per
/// event as the public cluster API takes them.
struct Feed<'a> {
    pool: &'a [EventChunk],
    total: u64,
    handed: u64,
    at: (usize, usize),
    /// Events per second of the open-loop schedule; `None` hands events in
    /// as fast as the runtime takes them.
    rate: Option<u64>,
    /// When the first event was handed in: the schedule's zero, shared
    /// with the reader so it can date each epoch's last event.
    start: &'a OnceLock<Instant>,
    late_ms: Vec<f32>,
    last_handed: Option<Instant>,
    /// One span per [`CHUNK`] calls (the grain `chunk_events` pulls at).
    tracer: Option<Tracer>,
    open: u32,
}

impl Iterator for Feed<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.handed == self.total {
            return None;
        }
        let in_chunk = self.handed % CHUNK as u64;
        if let (Some(t), 0) = (&mut self.tracer, in_chunk) {
            self.open = t.open("bench.feed.next", NONE, (self.handed / CHUNK as u64) as u32);
        }
        let start = *self.start.get_or_init(Instant::now);
        if let Some(rate) = self.rate {
            // Timed from the due time: a stall here makes every later
            // event late too, and that shows.
            let due = Duration::from_nanos(due_ns(self.handed, rate));
            let mut now = start.elapsed();
            if now < due {
                std::thread::sleep(due - now);
                now = start.elapsed();
            }
            self.late_ms.push((now - due).as_secs_f32() * 1e3);
        }
        let (chunk, event) = self.at;
        let x = self.pool[chunk].event(event).iter().map(|&v| v as usize).collect();
        self.at = if event + 1 < self.pool[chunk].len() {
            (chunk, event + 1)
        } else {
            ((chunk + 1) % self.pool.len(), 0)
        };
        self.handed += 1;
        if self.handed == self.total {
            self.last_handed = Some(Instant::now());
        }
        if let Some(t) = &mut self.tracer {
            if in_chunk + 1 == CHUNK as u64 || self.handed == self.total {
                t.close(self.open);
            }
        }
        Some(x)
    }
}

struct ReaderOut {
    query_us: Vec<f64>,
    lag_ms: Vec<f64>,
    resolve_faults: u64,
    tracer: Option<Tracer>,
}

/// A closed loop of one client: [`READER_BATCH`] queries against the
/// latest snapshot, a pause, again, until ingest has ended.
fn reader(
    server: &SnapshotServer,
    queries: &[Vec<usize>],
    size: &Size,
    start: &OnceLock<Instant>,
    stop: &AtomicBool,
    mut tracer: Option<Tracer>,
) -> ReaderOut {
    let mut out =
        ReaderOut { query_us: Vec::new(), lag_ms: Vec::new(), resolve_faults: 0, tracer: None };
    let mut next = queries.iter().cycle();
    let (mut seq, mut covered, mut epoch) = (0u64, 0u64, 1u64);
    for batch in 0u32.. {
        // Read before the batch, so the batch after ingest ends still runs.
        let stopping = stop.load(Ordering::Acquire);
        let batch_span = tracer.as_mut().map(|t| t.open("core.serve.batch", NONE, batch));
        for x in next.by_ref().take(READER_BATCH) {
            // Which snapshot is current, looked up outside the timed
            // queries; after the pause this is the load that finds a new
            // settlement and resolves it.
            let loading = tracer.as_ref().map(Tracer::now_ns);
            let snap = server.snapshot();
            if snap.seq != seq {
                if let (Some(t), Some(start_ns)) = (&mut tracer, loading) {
                    let end_ns = t.now_ns();
                    t.push(Span {
                        name: "core.snapshot.resolve",
                        start_ns,
                        end_ns,
                        parent: batch_span.unwrap(),
                        chunk: batch,
                    });
                }
                out.resolve_faults += 1;
                seq = snap.seq;
                if !snap.finalized {
                    covered = snap.events;
                }
            }
            // `SnapshotServer::log_query` loads the latest snapshot itself
            // and is compiled in the library, not inlined into this crate.
            let t = Instant::now();
            black_box(server.log_query(black_box(x)));
            out.query_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if let (Some(t), Some(id)) = (&mut tracer, batch_span) {
            t.close(id);
        }
        // Freshness: from the due time of an epoch's last event to this
        // reader first holding a snapshot that covers the epoch.
        if let Some(start) = start.get() {
            let now = start.elapsed();
            while covered >= epoch * size.snapshot_every {
                let due =
                    Duration::from_nanos(due_ns(epoch * size.snapshot_every - 1, SERVE_RATE_PER_S));
                out.lag_ms.push(now.saturating_sub(due).as_secs_f64() * 1e3);
                epoch += 1;
            }
        }
        if stopping {
            break;
        }
        std::thread::sleep(Duration::from_micros(READER_PAUSE_US));
    }
    out.tracer = tracer;
    out
}

/// One cluster run. `served.serve` paces the driver and starts the reader;
/// with a `tracer` the run is recorded as spans under `monitor.cluster.run`.
pub fn ingest(
    size: &Size,
    inp: &Inputs,
    served: &Served,
    tracer: Option<&mut Tracer>,
) -> Result<Ingest, String> {
    let Served { cfg, hub, server, serve } = served;
    let start = OnceLock::new();
    let stop = AtomicBool::new(false);
    let mut feed = Feed {
        pool: &inp.pool,
        total: inp.events(),
        handed: 0,
        at: (0, 0),
        rate: serve.then_some(SERVE_RATE_PER_S),
        start: &start,
        late_ms: Vec::new(),
        last_handed: None,
        tracer: tracer.as_ref().map(|t| t.fork()),
        open: NONE,
    };
    let reader_tracer = tracer.as_ref().map(|t| t.fork());
    let (result, t0, returned, wall_s, mut read) = std::thread::scope(|s| {
        let reading = serve
            .then(|| s.spawn(|| reader(server, &inp.queries, size, &start, &stop, reader_tracer)));
        let t0 = Instant::now();
        let result = run_cluster_tracker(&inp.net, cfg, &mut feed);
        let returned = Instant::now();
        if let Ok(run) = &result {
            black_box(run.model.log_query(&inp.queries[0]));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        (result, t0, returned, wall_s, reading.map(|r| r.join().expect("reader thread panicked")))
    });
    let rss_mb = peak_rss_mb();
    let run = result.map_err(|e| format!("run_cluster_tracker failed: {e}"))?;
    let report = &run.report;

    if let Some(t) = tracer {
        let busy = report.coordinator_busy.as_nanos() as u64;
        let (start_ns, end_ns) = (t.at(t0), t.at(returned));
        let root = t.push(Span {
            name: "monitor.cluster.run",
            start_ns,
            end_ns,
            parent: NONE,
            chunk: NONE,
        });
        // Derived: the report gives the coordinator's busy time but not
        // when it began; it is placed so that it ends with the run.
        t.push(Span {
            name: "monitor.cluster.coordinator_busy",
            start_ns: end_ns.saturating_sub(busy).max(start_ns),
            end_ns,
            parent: root,
            chunk: NONE,
        });
        t.absorb(feed.tracer.take().expect("a traced feed"), root);
        if let Some(r) = &mut read {
            t.absorb(r.tracer.take().expect("a traced reader"), root);
        }
    }
    let resolve_faults = read.as_ref().map_or(0, |r| r.resolve_faults);
    // The final model is readable when the call returns: the one freshness
    // sample of a run without mid-stream snapshots (or too short for one).
    let handed = feed.last_handed.expect("the feed was drained");
    let final_lag = returned.saturating_duration_since(handed).as_secs_f64() * 1e3;
    let (query_us, lag_ms) = match read {
        Some(r) if !r.lag_ms.is_empty() => (r.query_us, r.lag_ms),
        Some(r) => (r.query_us, vec![final_lag]),
        None => {
            let answer = |x: &[usize]| run.model.log_query(x);
            (query_latency(&inp.queries, size.query_samples, answer), vec![final_lag])
        }
    };
    Ok(Ingest {
        wall_s,
        pieces_ms: vec![wall_s * 1e3],
        rss_mb,
        events_seen: report.events,
        stats: report.stats,
        readout: Readout::of_cluster(&run),
        lag_ms,
        query_us,
        late_ms: feed.late_ms,
        cluster: Some(ClusterFacts {
            wall_s: report.wall_time.as_secs_f64(),
            coordinator_busy_s: report.coordinator_busy.as_secs_f64(),
            flush_epochs: report.flush_epochs,
            epochs: report.epochs,
            published: hub.seq(),
            resolve_faults,
        }),
    })
}
