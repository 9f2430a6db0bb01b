//! Ablation C (the paper's future work (2)): time-decayed tracking under
//! concept drift — centralized *and* distributed.
//!
//! The generating distribution switches mid-stream (fresh CPTs on the same
//! structure, a [`DriftWorkload`] parameter drift); we track the mean
//! error to the *current* ground truth for
//!
//! - (a) the plain cumulative MLE,
//! - (b) exponentially decayed MLEs at several half-lives (centralized,
//!   per-event decay),
//! - (c) the distributed epoch-ring tracker ([`dsbn_core::build_tracker`]
//!   with [`TrackerConfig::with_decay`]) on the simulator (exact and
//!   NONUNIFORM counters), and
//! - (d) the same tracker live on the threaded cluster
//!   ([`dsbn_core::run_cluster_tracker`]).
//!
//! The expected picture: before the drift the plain MLE is best (it uses
//! all data); after the drift it stays polluted by pre-drift mass while
//! decayed models re-converge at a rate set by their half-life — and the
//! distributed epoch-ring models match the centralized decayed accuracy
//! while communicating far less than forwarding every event, which is
//! what maintaining a centralized decayed MLE would require. The `wire`
//! section of the JSON pins that comparison: messages and bytes for the
//! NONUNIFORM epoch tracker vs the forward-everything (exact) epoch
//! tracker on the same stream.
//!
//! Usage:
//!   cargo run --release -p dsbn-bench --bin exp_ablation_decay
//!
//! Options: --m 100000 (events per phase) --seed --half-lives 5000,20000
//!   --nets sprinkler,alarm --eps 0.2 --k 5 --lambda 0.5 (per epoch)
//!   --boundary m/4 --ring 16 --quick (sprinkler only, m=20000)
//!   --out ablation_decay (JSON under results/)

use dsbn_bayes::BayesianNetwork;
use dsbn_bench::json::Json;
use dsbn_bench::output::fmt;
use dsbn_bench::{json, resolve_networks, Args, Table};
use dsbn_core::{
    build_tracker, run_cluster_tracker, DecayConfig, DecayedMle, EpochDecayConfig, Scheme,
    Smoothing, TrackerConfig,
};
use dsbn_datagen::{generate_queries, DriftWorkload, QueryConfig};
use dsbn_monitor::MessageStats;

/// Mean absolute log error (nats) to the post-drift truth: additive over
/// factors, so it stays interpretable for 37-variable joints.
fn mean_err(
    log_query: impl Fn(&[usize]) -> f64,
    truth: &BayesianNetwork,
    queries: &[Vec<usize>],
) -> f64 {
    let sum: f64 = queries.iter().map(|q| (log_query(q) - truth.joint_log_prob(q)).abs()).sum();
    sum / queries.len() as f64
}

struct Record {
    net: String,
    model: String,
    events: u64,
    err: f64,
    stats: Option<MessageStats>,
}

impl Record {
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("net", Json::Str(self.net.clone()))
            .field("model", Json::Str(self.model.clone()))
            .field("events", Json::UInt(self.events))
            .field("mean_abs_log_err", Json::Num(self.err));
        if let Some(s) = self.stats {
            j = j
                .field("messages", Json::UInt(s.total()))
                .field("bytes", Json::UInt(s.bytes))
                .field("bytes_per_event", Json::Num(s.bytes as f64 / self.events as f64));
        }
        j
    }
}

#[allow(clippy::too_many_arguments)]
fn run_net(
    net: &BayesianNetwork,
    m: u64,
    seed: u64,
    half_lives: &[f64],
    eps: f64,
    k: usize,
    decay: &EpochDecayConfig,
    records: &mut Vec<Record>,
    wire: &mut Vec<Json>,
) {
    let workload = DriftWorkload::parameter_drift(net, 2, m, 0.8, 0.01, seed ^ 0xd21f7)
        .expect("drift generation");
    let after = &workload.phases()[1].0;
    let queries =
        generate_queries(after, &QueryConfig { n_queries: 300, ..Default::default() }, seed);
    let smoothing = Smoothing::Pseudocount(0.5);

    // Centralized models (per-event decay) and distributed sim trackers
    // (epoch-ring decay), all fed the same stream in lockstep.
    let mut plain = DecayedMle::new(net, DecayConfig { lambda: 1.0, smoothing });
    let mut decayed: Vec<(f64, DecayedMle)> = half_lives
        .iter()
        .map(|&h| (h, DecayedMle::new(net, DecayConfig::with_half_life(h, smoothing))))
        .collect();
    let tc_exact = TrackerConfig::new(Scheme::ExactMle)
        .with_k(k)
        .with_seed(seed)
        .with_smoothing(smoothing)
        .with_decay(*decay);
    let tc_hyz = TrackerConfig::new(Scheme::NonUniform)
        .with_k(k)
        .with_eps(eps)
        .with_seed(seed)
        .with_smoothing(smoothing)
        .with_decay(*decay);
    let mut dist_exact = build_tracker(net, &tc_exact);
    let mut dist_hyz = build_tracker(net, &tc_hyz);

    let checkpoints: Vec<u64> = vec![m / 2, m, m + m / 10, m + m / 2, 2 * m];
    let mut position = 0u64;
    let mut iter = workload.stream(seed).take((2 * m) as usize);
    for &cp in &checkpoints {
        while position < cp {
            let x = iter.next().expect("stream long enough");
            plain.observe(&x);
            for (_, d) in decayed.iter_mut() {
                d.observe(&x);
            }
            dist_exact.observe(&x);
            dist_hyz.observe(&x);
            position += 1;
        }
        let mut push = |model: String, err: f64, stats: Option<MessageStats>| {
            records.push(Record { net: net.name().to_owned(), model, events: cp, err, stats });
        };
        push("plain-mle".into(), mean_err(|q| plain.log_query(q), after, &queries), None);
        for (h, d) in &decayed {
            push(format!("decay-hl-{h}"), mean_err(|q| d.log_query(q), after, &queries), None);
        }
        push(
            "dist-epoch-exact-sim".into(),
            mean_err(|q| dist_exact.log_query(q), after, &queries),
            Some(dist_exact.stats()),
        );
        push(
            "dist-epoch-non-uniform-sim".into(),
            mean_err(|q| dist_hyz.log_query(q), after, &queries),
            Some(dist_hyz.stats()),
        );
    }

    // The same epoch trackers live on the threaded cluster (final models).
    let total = 2 * m;
    let fwd = run_cluster_tracker(net, &tc_exact, workload.stream(seed).take(total as usize))
        .expect("cluster run failed");
    let hyz = run_cluster_tracker(net, &tc_hyz, workload.stream(seed).take(total as usize))
        .expect("cluster run failed");
    records.push(Record {
        net: net.name().to_owned(),
        model: "dist-epoch-exact-cluster".into(),
        events: total,
        err: mean_err(|q| fwd.model.log_query(q), after, &queries),
        stats: Some(fwd.report.stats),
    });
    records.push(Record {
        net: net.name().to_owned(),
        model: "dist-epoch-non-uniform-cluster".into(),
        events: total,
        err: mean_err(|q| hyz.model.log_query(q), after, &queries),
        stats: Some(hyz.report.stats),
    });

    // Wire comparison: epoch-ring NONUNIFORM vs forwarding every event
    // (the exact epoch tracker — what a remotely maintained centralized
    // decayed MLE would cost), cluster accounting.
    wire.push(
        Json::obj()
            .field("net", Json::Str(net.name().to_owned()))
            .field("events", Json::UInt(total))
            .field("epochs", Json::UInt(hyz.report.epochs))
            .field("forward_messages", Json::UInt(fwd.report.stats.total()))
            .field("epoch_messages", Json::UInt(hyz.report.stats.total()))
            .field(
                "message_ratio",
                Json::Num(hyz.report.stats.total() as f64 / fwd.report.stats.total() as f64),
            )
            .field("forward_bytes", Json::UInt(fwd.report.stats.bytes))
            .field("epoch_bytes", Json::UInt(hyz.report.stats.bytes))
            .field(
                "byte_ratio",
                Json::Num(hyz.report.stats.bytes as f64 / fwd.report.stats.bytes as f64),
            ),
    );
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let m: u64 = args.get("m", if quick { 20_000 } else { 100_000 });
    let seed: u64 = args.get("seed", 1);
    let eps: f64 = args.get("eps", 0.2);
    let k: usize = args.get("k", 5);
    let lambda: f64 = args.get("lambda", 0.5);
    let boundary: u64 = args.get("boundary", m / 4);
    let ring: usize = args.get("ring", 16);
    let half_lives: Vec<f64> = args
        .get_list("half-lives", &["5000", "20000"])
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let default_nets: &[&str] = if quick { &["sprinkler"] } else { &["sprinkler", "alarm"] };
    let nets = resolve_networks(&args.get_list("nets", default_nets), args.get("net-seed", 1u64));
    let out = args.get_str("out", "ablation_decay");
    let decay = EpochDecayConfig::new(lambda, boundary, ring);

    let mut records = Vec::new();
    let mut wire = Vec::new();
    for net in &nets {
        eprintln!("drifting {} ({} events/phase) ...", net.name(), m);
        run_net(net, m, seed, &half_lives, eps, k, &decay, &mut records, &mut wire);
    }

    let doc = Json::obj()
        .field("bench", Json::Str("ablation_decay".into()))
        .field("quick", Json::Bool(quick))
        .field("m_per_phase", Json::UInt(m))
        .field("seed", Json::UInt(seed))
        .field("eps", Json::Num(eps))
        .field("k", Json::UInt(k as u64))
        .field("lambda_epoch", Json::Num(lambda))
        .field("boundary", Json::UInt(boundary))
        .field("ring", Json::UInt(ring as u64))
        .field(
            "epoch_half_life_events",
            Json::Num(boundary as f64 * std::f64::consts::LN_2 / (1.0 / lambda).ln()),
        )
        .field("records", Json::Arr(records.iter().map(Record::to_json).collect()))
        .field("wire", Json::Arr(wire));
    let path = json::emit(&doc, &out);

    let mut table = Table::new(
        format!("Ablation C: drift at event {m}; mean error to the POST-drift truth"),
        &["net", "model", "events seen", "mean |log err| (nats)", "messages", "bytes"],
    );
    for r in &records {
        let (msgs, bytes) = match r.stats {
            Some(s) => (s.total().to_string(), s.bytes.to_string()),
            None => ("-".into(), "-".into()),
        };
        table.row(&[
            r.net.clone(),
            r.model.clone(),
            r.events.to_string(),
            fmt::err(r.err),
            msgs,
            bytes,
        ]);
    }
    table.emit("ablation_decay");
    println!("(json: {})", path.display());
}
