//! Microbenchmark: Algorithm-2 id mapping and the sim counter sweep at
//! small (ALARM, n=37) through big-network (n=500, n=5000) scale.
//!
//! Two kernels per network size:
//!
//! - `map_chunk` — the stride-table mapping.
//! - `observe_chunk` — mapping plus the full per-event counter sweep on
//!   the exact tracker (the end-to-end sim UPDATE hot path).
//!
//! Throughput is reported in *events*; one event touches `2n` counters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsbn_bayes::{BayesianNetwork, NetworkSpec};
use dsbn_core::{build_tracker, CounterLayout, Scheme, TrackerConfig};
use dsbn_datagen::{EventChunk, TrainingStream};
use std::hint::black_box;

const CHUNK: usize = 256;

fn net_for(name: &str) -> BayesianNetwork {
    match name {
        "alarm" => NetworkSpec::alarm().generate(1).unwrap(),
        other => NetworkSpec::by_name(other).unwrap().generate(1).unwrap(),
    }
}

fn sample_chunk(net: &BayesianNetwork) -> EventChunk {
    let mut chunk = EventChunk::with_capacity(net.n_vars(), CHUNK);
    for x in TrainingStream::new(net, 7).take(CHUNK) {
        chunk.push(&x);
    }
    chunk
}

fn bench_map_chunk(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_chunk");
    group.sample_size(10);
    group.throughput(Throughput::Elements(CHUNK as u64));
    for name in ["alarm", "big500", "big5000"] {
        let net = net_for(name);
        let chunk = sample_chunk(&net);
        let mut ids = Vec::new();
        let layout = CounterLayout::new(&net);
        group.bench_function(BenchmarkId::new("strided", name), |b| {
            b.iter(|| {
                layout.map_chunk(black_box(&chunk), &mut ids);
                black_box(ids.last().copied())
            })
        });
    }
    group.finish();
}

fn bench_observe_chunk(c: &mut Criterion) {
    let mut group = c.benchmark_group("observe_chunk");
    group.sample_size(10);
    group.throughput(Throughput::Elements(CHUNK as u64));
    for name in ["alarm", "big500", "big5000"] {
        let net = net_for(name);
        let chunk = sample_chunk(&net);
        let mut tracker = build_tracker(&net, &TrackerConfig::new(Scheme::ExactMle).with_k(8));
        group.bench_function(BenchmarkId::new("strided", name), |b| {
            b.iter(|| tracker.observe_chunk(black_box(&chunk)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_map_chunk, bench_observe_chunk);
criterion_main!(benches);
