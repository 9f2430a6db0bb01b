//! Single layers, timed from outside by calling their public functions:
//! the staged ingest pipeline the traced run drives by hand, and the
//! isolated replays that price a layer on the workload's own events.

use crate::inputs::Inputs;
use crate::spec::{CHUNK, READER_BATCH, RESOLVE_REPEATS};
use crate::surface::{
    encode_event, visit_packet, CounterArray, CounterLayout, CptSnapshot, HyzProtocol,
    MessageStats, SingleCounterSim, SiteAssigner, SnapshotHub, SnapshotServer, UpMsg,
};
use crate::trace::{Tracer, NONE};
use bytes::BytesMut;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub struct Staged {
    pub stats: MessageStats,
    pub estimates: Vec<f64>,
    /// The span that covers the whole staged ingest.
    pub root: u32,
}

/// The tracker's ingest taken apart into its two layers, one span per
/// layer per chunk: `CounterLayout::map_chunk`, then
/// `CounterArray::observe_chunk` on the mapped ids. Built exactly as
/// `BnTracker::new` builds its own — the same budgets, assigner and
/// `SmallRng` seed — so on the simulator workloads its counts must equal
/// the untraced tracker's bit for bit.
pub fn staged_ingest(
    inp: &Inputs,
    layout: &CounterLayout,
    budgets: &[f64],
    t: &mut Tracer,
) -> Staged {
    let k = inp.cfg.k;
    let mut array =
        CounterArray::new(budgets.iter().map(|&eps| HyzProtocol::new(eps)).collect(), k);
    let mut assigner = SiteAssigner::new(inp.cfg.partitioner, k);
    let mut rng = SmallRng::seed_from_u64(inp.cfg.seed);
    let stride = 2 * layout.n_vars();
    let mut ids = Vec::new();
    let root = t.open("bench.staged.ingest", NONE, NONE);
    let mut chunk_no = 0;
    for _ in 0..inp.replays {
        for chunk in &inp.pool {
            t.span("core.layout.map_chunk", root, chunk_no, || layout.map_chunk(chunk, &mut ids));
            t.span("monitor.sim.observe_chunk", root, chunk_no, || {
                array.observe_chunk(&mut assigner, &ids, stride, &mut rng)
            });
            chunk_no += 1;
        }
    }
    t.close(root);
    Staged {
        stats: array.stats(),
        estimates: (0..layout.n_counters()).map(|c| array.estimate(c)).collect(),
        root,
    }
}

/// One HYZ counter alone, arrivals dealt round-robin to `k` sites: the
/// protocol's arithmetic with its whole state in cache. ns per increment.
pub fn single_counter_ns(k: usize, eps: f64, increments: u64, seed: u64) -> f64 {
    let mut sim = SingleCounterSim::new(HyzProtocol::new(eps), k);
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = Instant::now();
    for i in 0..increments {
        sim.increment((i % k as u64) as usize, &mut rng);
    }
    black_box(sim.estimate());
    t.elapsed().as_nanos() as f64 / increments as f64
}

pub struct Wire {
    pub encode_ns_per_event: f64,
    pub decode_ns_per_event: f64,
    /// What the exact scheme would ship: every touch an increment.
    pub bytes_per_event: f64,
}

/// The pool's mapped ids as all-increment batches through `encode_event`
/// and back through `visit_packet`, one multi-event packet per chunk as
/// the cluster's sites build them.
pub fn wire_replay(inp: &Inputs, layout: &CounterLayout) -> Wire {
    let stride = 2 * layout.n_vars();
    let mut ids = Vec::new();
    let mut batches: Vec<Vec<(u32, UpMsg)>> = vec![Vec::new(); CHUNK];
    let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
    let (mut events, mut bytes, mut items) = (0u64, 0u64, 0u64);
    for chunk in &inp.pool {
        layout.map_chunk(chunk, &mut ids);
        for (batch, event_ids) in batches.iter_mut().zip(ids.chunks_exact(stride)) {
            batch.extend(event_ids.iter().map(|&id| (id, UpMsg::Increment)));
        }
        let mut packet = BytesMut::with_capacity(chunk.len() * (8 + 5 * stride));
        let t = Instant::now();
        for batch in &mut batches[..chunk.len()] {
            bytes += encode_event(batch, &mut packet) as u64;
        }
        encode += t.elapsed();
        let packet = packet.freeze();
        let t = Instant::now();
        visit_packet(packet, |item| {
            black_box(item);
            items += 1;
        })
        .expect("a packet the encoder wrote decodes");
        decode += t.elapsed();
        events += chunk.len() as u64;
    }
    assert_eq!(items, events * stride as u64, "the decoder saw every encoded update");
    Wire {
        encode_ns_per_event: encode.as_nanos() as f64 / events as f64,
        decode_ns_per_event: decode.as_nanos() as f64 / events as f64,
        bytes_per_event: bytes as f64 / events as f64,
    }
}

/// `CptSnapshot::resolve` on the hub's current snapshot, µs per call.
pub fn resolve_us(hub: &SnapshotHub, n_counters: usize) -> f64 {
    let snap = hub.load();
    let t = Instant::now();
    for _ in 0..RESOLVE_REPEATS {
        black_box(CptSnapshot::resolve(black_box(&snap), n_counters, 1.0));
    }
    t.elapsed().as_secs_f64() * 1e6 / RESOLVE_REPEATS as f64
}

/// The read path on a quiescent model, its three calls timed apart, a span
/// per call per batch of [`READER_BATCH`] queries. `answer` and `classify`
/// are the model's own `log_query` and `classify`: entry points compiled
/// in the library, so the numbers do not move with how this crate happens
/// to inline the generic `CptEvaluator` they all share. The snapshot load
/// exists only where a `server` does (and its cost is then also inside
/// each of the server's answers).
pub fn read_path(
    inp: &Inputs,
    server: Option<&SnapshotServer>,
    answer: impl Fn(&[usize]) -> f64,
    classify: impl Fn(usize, &mut [usize]) -> usize,
    batches: u32,
    t: &mut Tracer,
) {
    let mut rng = SmallRng::seed_from_u64(inp.cfg.seed);
    let mut next = inp.queries.iter().cycle();
    let root = t.open("bench.read_path", NONE, NONE);
    for batch in 0..batches {
        let xs: Vec<&Vec<usize>> = next.by_ref().take(READER_BATCH).collect();
        if let Some(server) = server {
            t.span("core.serve.snapshot", root, batch, || {
                for _ in &xs {
                    black_box(server.snapshot());
                }
            });
        }
        t.span("core.serve.log_query", root, batch, || {
            for x in &xs {
                black_box(answer(black_box(x)));
            }
        });
        let mut scratch: Vec<(usize, Vec<usize>)> =
            xs.iter().map(|x| (rng.gen_range(0..inp.net.n_vars()), (*x).clone())).collect();
        t.span("core.serve.classify", root, batch, || {
            for (target, x) in &mut scratch {
                black_box(classify(*target, x));
            }
        });
    }
    t.close(root);
}
