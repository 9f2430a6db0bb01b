//! Set-up: everything a run needs before the first event is handed in.
//! The program under test receives only what is made here.

use crate::spec::{Runtime, Size, Workload, CHUNK, EPS, HELD_OUT_QUERIES, NET_SEED};
use crate::surface::{
    build_tracker, BayesianNetwork, EventChunk, NetworkSpec, Scheme, SnapshotHub, SnapshotServer,
    Tracker, TrackerConfig, TrainingStream,
};
use std::time::Instant;

/// The generated inputs of one run.
pub struct Inputs {
    pub net: BayesianNetwork,
    /// The event pool, replayed `replays` times.
    pub pool: Vec<EventChunk>,
    pub replays: u64,
    /// Held-out assignments: drawn from the same network, never ingested.
    pub queries: Vec<Vec<usize>>,
    pub cfg: TrackerConfig,
}

impl Inputs {
    pub fn events(&self) -> u64 {
        self.pool.iter().map(|c| c.len() as u64).sum::<u64>() * self.replays
    }

    /// Counter touches per event: Algorithm 2 increments `2n` counters.
    pub fn touches_per_event(&self) -> u64 {
        2 * self.net.n_vars() as u64
    }
}

/// The program under test after INIT, ready for its first event.
pub enum Program {
    Sim(Tracker),
    Cluster(Served),
}

/// A cluster run's configuration, the hub it publishes to and the server
/// that reads the hub.
pub struct Served {
    pub cfg: TrackerConfig,
    pub hub: SnapshotHub,
    pub server: SnapshotServer,
    /// [`Runtime::Serve`]: mid-stream snapshots, a paced driver, a reader.
    pub serve: bool,
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub net_build_s: f64,
    pub mint_s: f64,
    pub init_s: f64,
    pub total_s: f64,
}

pub fn make_inputs(w: &Workload, size: &Size, seed: u64, times: &mut SetupTimes) -> Inputs {
    let t = Instant::now();
    let net = NetworkSpec::by_name(w.net)
        .unwrap_or_else(|| panic!("no network preset named {}", w.net))
        .generate(NET_SEED)
        .expect("a preset generates");
    times.net_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let pool: Vec<EventChunk> = TrainingStream::new(&net, seed).chunks(CHUNK, size.pool).collect();
    times.mint_s = t.elapsed().as_secs_f64();

    // A stream the pool's seed cannot collide with.
    let queries =
        TrainingStream::new(&net, seed ^ 0x9e37_79b9_7f4a_7c15).take(HELD_OUT_QUERIES).collect();
    let cfg = TrackerConfig::new(Scheme::NonUniform)
        .with_eps(EPS)
        .with_k(w.k)
        .with_seed(seed)
        .with_chunk(CHUNK);
    Inputs { net, pool, replays: size.replays, queries, cfg }
}

/// INIT (Algorithm 1) for the workload's runtime.
pub fn init(w: &Workload, size: &Size, inp: &Inputs) -> Program {
    match w.runtime {
        Runtime::Sim => Program::Sim(build_tracker(&inp.net, &inp.cfg)),
        Runtime::Cluster | Runtime::Serve => Program::Cluster(init_cluster(w, size, inp)),
    }
}

pub fn init_cluster(w: &Workload, size: &Size, inp: &Inputs) -> Served {
    let serve = w.runtime == Runtime::Serve;
    let hub = SnapshotHub::new();
    let mut cfg = inp.cfg.clone().with_publish(hub.clone());
    if serve {
        cfg = cfg.with_snapshot_every(size.snapshot_every);
    }
    let server = SnapshotServer::new(&inp.net, cfg.smoothing, hub.clone());
    Served { cfg, hub, server, serve }
}

/// One complete set-up, timed.
pub fn setup(w: &Workload, size: &Size, seed: u64) -> (Inputs, Program, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let inp = make_inputs(w, size, seed, &mut times);
    let t_init = Instant::now();
    let program = init(w, size, &inp);
    times.init_s = t_init.elapsed().as_secs_f64();
    times.total_s = t.elapsed().as_secs_f64();
    (inp, program, times)
}
