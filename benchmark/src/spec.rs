//! What the benchmark runs and what it reports: the workload table and the
//! two metric tables. `BENCHMARK.json` at the repo root declares the same
//! names; a unit test keeps the two from drifting apart.

/// How a workload drives the program under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// `build_tracker` on the synchronous simulator, one thread.
    Sim,
    /// `run_cluster_tracker`, driver unpaced (a closed loop of one).
    Cluster,
    /// The cluster with mid-stream snapshots, the driver paced open-loop
    /// and one reader thread querying beside ingest.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub net: &'static str,
    pub runtime: Runtime,
    /// Sites.
    pub k: usize,
    /// Events materialised during set-up, in chunks of [`CHUNK`].
    pub pool: u64,
    /// How often a pass replays the pool. A pass is a fixed count of events,
    /// so that every count repeats.
    pub replays: u64,
    /// Identical passes in a run of [`RUN_SECONDS`], each from a fresh INIT on
    /// the same inputs: every timing is read off the repetitions the host left
    /// alone (`stats::quiet`). `--seconds` scales this count and never the
    /// size of a pass — except on [`Runtime::Serve`], which runs one pass and
    /// scales its length (a paced pass cannot make up a host stall in flush
    /// and teardown, so it is kept long).
    pub rounds: u64,
    /// Turns through the held-out queries after each pass's ingest, one
    /// latency sample per query and turn. Over a run they last over two
    /// seconds and are spread over its whole length, because a query's quiet
    /// value needs a twentieth of its repetitions undisturbed and the host's
    /// slow stretches last up to seconds (in one phase of 0.4 s, 4 runs of 10
    /// on `alarm-cluster` lay wholly inside one and read 1.55x).
    /// [`Runtime::Serve`] samples beside ingest for as long as ingest lasts.
    pub query_turns: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "alarm-sim",
        why: "Paper regime: ALARM, k=30, a stream long enough that 95% of counter touches are silent, so the site sweep's no-report path does the work; deterministic.",
        net: "alarm",
        runtime: Runtime::Sim,
        k: 30,
        pool: 262_144,
        replays: 32,
        rounds: 4,
        query_turns: 750,
    },
    Workload {
        name: "big500-sim",
        why: "Same sweep, other regime: 22531 shallow counters, most touches still report, so the report/broadcast cascade, the id map and slab cache misses carry the cost.",
        net: "big500",
        runtime: Runtime::Sim,
        k: 8,
        pool: 16_384,
        replays: 8,
        rounds: 3,
        query_turns: 80,
    },
    Workload {
        name: "alarm-cluster",
        why: "The threaded runtime on the alarm-sim protocol: encode, channels, decode/apply, sync round trips, flush, teardown; the gap to alarm-sim is the runtime's cost.",
        net: "alarm",
        runtime: Runtime::Cluster,
        k: 8,
        pool: 262_144,
        replays: 8,
        rounds: 3,
        query_turns: 1_300,
    },
    Workload {
        name: "alarm-serve",
        why: "Reads beside writes below saturation: k=4, open-loop 100k events/s, a snapshot every 50k events, one reader; measures freshness, query latency under ingest, the price of serving.",
        net: "alarm",
        runtime: Runtime::Serve,
        k: 4,
        pool: 262_144,
        replays: 8,
        rounds: 1,
        query_turns: 0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The presets are golden-pinned at this seed; `--seed` never reaches the
/// network.
pub const NET_SEED: u64 = 1;
pub const EPS: f64 = 0.1;
/// Events per pool chunk, per cluster packet flush and per traced span.
pub const CHUNK: usize = 256;
/// The run length `BENCHMARK.json` declares and the sizes above are for.
pub const RUN_SECONDS: u64 = 20;
/// Set-ups per run at least, in equal groups before each pass and after the
/// last so that they too are spread over the run; `setup_s` is their quiet
/// value.
pub const SETUP_REPEATS: u64 = 9;
pub const HELD_OUT_QUERIES: usize = 1000;
/// Queries a reader makes between two sleeps of [`READER_PAUSE_US`].
pub const READER_BATCH: usize = 64;
pub const READER_PAUSE_US: u64 = 200;
pub const SERVE_RATE_PER_S: u64 = 100_000;
pub const SERVE_SNAPSHOT_EVERY: u64 = 50_000;
/// The paced generator has failed when more than [`LATE_SHARE`] of its
/// events were handed in later than this after they were due.
pub const LATE_LIMIT_MS: f64 = 50.0;
/// A generator that cannot hold its schedule is late on most events. One
/// stall of the whole VM by the host (0.1 to 0.3 s, seen in 3 runs of 56) is
/// late on 2.4 % at most, and is the host's failure, not the program's.
pub const LATE_SHARE: f64 = 0.05;
/// A paced run has failed when its achieved rate is further than this
/// share from [`SERVE_RATE_PER_S`]: it is saturated, and its backlog drains
/// after the last event. The median run is within 0.0006; the tolerance is
/// the one host stall of 0.3 s that a ten-second run cannot make up for when
/// it falls into flush and teardown (one run of 50 read 98 061 that way).
pub const RATE_TOLERANCE: f64 = 0.03;
/// Counters with fewer exact arrivals are left out of `eps_budget_used`:
/// Lemma 4 bounds the relative error, which is meaningless near zero.
pub const BUDGET_MIN_COUNT: u64 = 1000;
pub const SINGLE_COUNTER_INCREMENTS: u64 = 10_000_000;
pub const RESOLVE_REPEATS: u64 = 1000;
/// `--quick` divides every size by this.
pub const QUICK_DIVISOR: u64 = 64;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The counts, `eps_budget_used`, `setup_s` and `peak_rss_mb` keep the
/// bounds ISSUE 11 gave them. The timings are bounded at 0.25, the widest a
/// bound may be: a quiet value sees past what the host does for part of a
/// run, not past minutes in which every repetition is slowed, and three runs
/// of ten inside such minutes spread `ingest_events_per_s` by 0.20 (README,
/// "Where this differs").
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "ingest_events_per_s", unit: "events/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "messages_per_event", unit: "msgs", better: "lower", bound: 0.05 },
    EndToEnd { name: "wire_bytes_per_event", unit: "B", better: "lower", bound: 0.05 },
    EndToEnd { name: "eps_budget_used", unit: "ratio", better: "lower", bound: 0.25 },
    EndToEnd { name: "query_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "query_p99_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "snapshot_lag_ms_p50", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15 },
];

/// `(name, unit, better)`; the name's prefix is the module measured.
pub const PER_LAYER: [(&str, &str, &str); 46] = [
    ("bayes.generate.net_build_s", "s", "lower"),
    ("datagen.stream.mint_ns_per_event", "ns", "lower"),
    ("core.allocation.allocate_s", "s", "lower"),
    ("core.algorithms.init_s", "s", "lower"),
    ("core.layout.map_ns_per_event", "ns", "lower"),
    ("core.layout.map_ns_per_touch", "ns", "lower"),
    ("monitor.sim.sweep_ns_per_event", "ns", "lower"),
    ("monitor.sim.sweep_ns_per_touch", "ns", "lower"),
    ("monitor.sim.touches", "count", "lower"),
    ("monitor.sim.up_messages", "count", "lower"),
    ("monitor.sim.down_messages", "count", "lower"),
    ("monitor.sim.broadcasts", "count", "lower"),
    ("monitor.sim.messages_per_touch", "ratio", "lower"),
    ("counters.hyz.single_counter_ns_per_increment", "ns", "lower"),
    ("counters.wire.encode_ns_per_event", "ns", "lower"),
    ("counters.wire.decode_ns_per_event", "ns", "lower"),
    ("counters.wire.exact_bytes_per_event", "B", "lower"),
    ("monitor.cluster.wall_s", "s", "lower"),
    ("monitor.cluster.coordinator_busy_s", "s", "lower"),
    ("monitor.cluster.busy_share", "ratio", "lower"),
    ("monitor.cluster.packets", "count", "lower"),
    ("monitor.cluster.events_per_packet", "ratio", "higher"),
    ("monitor.cluster.bytes_per_packet", "B", "higher"),
    ("monitor.cluster.up_messages", "count", "lower"),
    ("monitor.cluster.down_messages", "count", "lower"),
    ("monitor.cluster.broadcasts", "count", "lower"),
    ("monitor.cluster.flush_epochs", "count", "lower"),
    ("monitor.cluster.epochs", "count", "lower"),
    ("monitor.cluster.residual_ns_per_event", "ns", "lower"),
    ("monitor.snapshot.published", "count", "higher"),
    ("monitor.snapshot.lag_ms_p80", "ms", "lower"),
    ("monitor.snapshot.lag_ms_max", "ms", "lower"),
    ("core.snapshot.resolve_us", "us", "lower"),
    ("core.snapshot.resolve_ns_per_counter", "ns", "lower"),
    ("core.serve.snapshot_load_ns", "ns", "lower"),
    ("core.serve.log_query_ns", "ns", "lower"),
    ("core.serve.classify_ns", "ns", "lower"),
    ("core.serve.resolve_faults", "count", "lower"),
    ("core.serve.queries", "count", "higher"),
    ("core.serve.query_p99_plain_us", "us", "lower"),
    ("core.evaluate.logp_err_mean", "ratio", "lower"),
    ("core.evaluate.logp_err_max", "ratio", "lower"),
    ("core.evaluate.eps_budget_worst", "ratio", "lower"),
    ("bench.generator_late_ms_p99", "ms", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.layer_sum_frac", "ratio", "higher"),
];

/// Sizes of one run, all fixed counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub pool: u64,
    /// Replays of the pool per pass.
    pub replays: u64,
    /// Passes per run.
    pub rounds: u64,
    /// Timed set-ups before each pass (which runs on the last of them) and
    /// after the last pass.
    pub setups_per_group: u64,
    pub snapshot_every: u64,
    /// Per pass: whole turns through the held-out queries, so that the
    /// passes' samples in a row are still one series of the queries in turn.
    pub query_samples: usize,
    pub single_counter_increments: u64,
}

impl Size {
    pub fn of(w: &Workload, seconds: u64, quick: bool) -> Size {
        let div = if quick { QUICK_DIVISOR } else { 1 };
        let scaled = |n: u64| (n * seconds / RUN_SECONDS).max(1);
        let (replays, rounds) = match w.runtime {
            Runtime::Serve => (scaled(w.replays), w.rounds),
            Runtime::Sim | Runtime::Cluster => (w.replays, scaled(w.rounds)),
        };
        Size {
            pool: w.pool / div,
            replays,
            rounds,
            setups_per_group: SETUP_REPEATS.div_ceil(rounds + 1),
            snapshot_every: SERVE_SNAPSHOT_EVERY / div,
            query_samples: (w.query_turns / div as usize).max(w.query_turns.min(1))
                * HELD_OUT_QUERIES,
            single_counter_increments: SINGLE_COUNTER_INCREMENTS / div,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::highest_supported;

    fn name_ok(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(legal)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(name_ok(name), "{name:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            let legal = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(legal),
                "unit {unit:?}"
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is one line of at most 200",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(!name_ok("µs") && !name_ok("-x") && !name_ok("a b") && name_ok("alarm-sim"));
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; these tables
    /// are what the harness reports. They must say the same.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| match doc.get(key) {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |row: &Json, key: &str| match row.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let declared: Vec<_> =
            rows("workloads").iter().map(|r| (text(r, "name"), text(r, "why"))).collect();
        let ours: Vec<_> =
            WORKLOADS.iter().map(|w| (w.name.to_owned(), w.why.to_owned())).collect();
        assert_eq!(declared, ours);
        let declared: Vec<_> = rows("end_to_end")
            .iter()
            .map(|r| {
                (
                    text(r, "name"),
                    text(r, "unit"),
                    text(r, "better"),
                    r.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned(), m.bound))
            .collect();
        assert_eq!(declared, ours);
        let declared: Vec<_> = rows("per_layer")
            .iter()
            .map(|r| (text(r, "name"), text(r, "unit"), text(r, "better")))
            .collect();
        let ours: Vec<_> =
            PER_LAYER.iter().map(|m| (m.0.to_owned(), m.1.to_owned(), m.2.to_owned())).collect();
        assert_eq!(declared, ours);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));
    }

    /// At full size each reported percentile keeps ten samples beyond it, and
    /// each quiet value has repetitions to be read from.
    #[test]
    fn full_size_sample_counts_support_the_reported_percentiles() {
        // Query percentiles are taken across the held-out queries.
        assert!(highest_supported(HELD_OUT_QUERIES) >= Some(0.99));
        for w in &WORKLOADS {
            let size = Size::of(w, RUN_SECONDS, false);
            assert!((size.rounds + 1) * size.setups_per_group >= SETUP_REPEATS, "{}", w.name);
            if w.runtime == Runtime::Serve {
                let settlements = (size.pool * size.replays / size.snapshot_every) as usize;
                assert!(highest_supported(settlements) >= Some(0.5), "{settlements} settlements");
                assert_eq!(size.rounds, 1);
            } else {
                // A query's quiet value is the fastest twentieth of its
                // repetitions after ingest; a timing of ingest has a
                // repetition per pass.
                assert!(
                    size.rounds as usize * size.query_samples >= 200 * HELD_OUT_QUERIES,
                    "{}: too few repetitions of a query for its fastest twentieth",
                    w.name
                );
                assert!(size.rounds >= 3, "{}", w.name);
            }
        }
        // --quick shrinks every size and nothing to zero.
        let quick = Size::of(&WORKLOADS[1], RUN_SECONDS, true);
        assert_eq!((quick.pool, quick.replays, quick.rounds), (256, 8, 3));
        assert_eq!(quick.query_samples, HELD_OUT_QUERIES);
        assert!(quick.snapshot_every > 0);
        assert_eq!(Size::of(&WORKLOADS[3], RUN_SECONDS, true).query_samples, 0);
        // --seconds picks the number of passes, never the size of one; the
        // one paced pass gets longer instead.
        let half = Size::of(&WORKLOADS[0], RUN_SECONDS / 2, false);
        assert_eq!((half.replays, half.rounds, half.setups_per_group), (32, 2, 3));
        assert_eq!(Size::of(&WORKLOADS[0], 1, false).rounds, 1);
        let half = Size::of(&WORKLOADS[3], RUN_SECONDS / 2, false);
        assert_eq!((half.replays, half.rounds, half.setups_per_group), (4, 1, 5));
        assert_eq!(Size::of(&WORKLOADS[3], 1, false).replays, 1);
    }
}
