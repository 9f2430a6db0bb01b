//! The sharded coordinator must be indistinguishable from the
//! single-thread coordinator it parallelizes: under a shared seed the
//! sharded runs (K = 1, 2, 4) produce *bit-identical* estimates, exact
//! totals, paper-convention message counts, and wire bytes — for the raw
//! counter runtime and for the full tracker (whose shard plan follows the
//! `CounterLayout` block boundaries). The same pinning runs over the
//! Unix-domain-socket transport, whose envelope overhead is deliberately
//! excluded from accounting, so every figure is transport-invariant.
//! Mirrors `tests/chunked_equivalence.rs`, which pins the ingest batching
//! this PR builds on.

use dsbn::bayes::{sprinkler_network, BayesianNetwork, NetworkSpec};
use dsbn::core::{run_cluster_tracker, CounterLayout, Scheme, TrackerConfig};
use dsbn::counters::ExactProtocol;
use dsbn::datagen::TrainingStream;
#[cfg(unix)]
use dsbn::monitor::UdsTransport;
use dsbn::monitor::{
    run_cluster, run_cluster_on, ChannelTransport, ClusterConfig, ClusterError, ClusterReport,
    LinkClosed, Transport, UpPacket, UpSender,
};

fn net_by_name(name: &str) -> BayesianNetwork {
    match name {
        "sprinkler" => sprinkler_network(),
        "alarm" => NetworkSpec::alarm().generate(1).expect("alarm generation"),
        other => panic!("unknown net {other}"),
    }
}

/// Raw counter runtime with exact counters (every figure deterministic
/// under threading): sharded K = 1, 2, 4 vs the single-thread coordinator.
fn assert_sharded_equals_single_thread(net_name: &str, m: u64) {
    let net = net_by_name(net_name);
    let layout = CounterLayout::new(&net);
    let protocols = vec![ExactProtocol; layout.n_counters()];
    let run = |config: ClusterConfig| {
        let events = TrainingStream::new(&net, 7).chunks(32, m);
        run_cluster(&protocols, &config, events, |chunk, ids| layout.map_chunk(chunk, ids))
            .expect("cluster run failed")
    };
    let single = run(ClusterConfig::new(4, 11).with_chunk(32));
    assert_eq!(single.events, m);
    for workers in [1usize, 2, 4] {
        // Both shard plans: the layout's block-aligned starts (what the
        // tracker uses) and the even default.
        let starts = layout.shard_starts(workers);
        for plan in [Some(starts), None] {
            let sharded = run(ClusterConfig::new(4, 11)
                .with_chunk(32)
                .with_sharded_coordinator(workers, plan.clone()));
            let tag = format!("{net_name} workers {workers} plan {:?}", plan.is_some());
            assert_eq!(sharded.events, m, "{tag}");
            assert_eq!(sharded.estimates, single.estimates, "{tag}");
            assert_eq!(sharded.exact_totals, single.exact_totals, "{tag}");
            assert_eq!(sharded.stats.up_messages, single.stats.up_messages, "{tag}");
            assert_eq!(sharded.stats.down_messages, single.stats.down_messages, "{tag}");
            assert_eq!(sharded.stats.broadcasts, single.stats.broadcasts, "{tag}");
            assert_eq!(sharded.stats.bytes, single.stats.bytes, "{tag}");
            assert_eq!(sharded.stats.packets, single.stats.packets, "{tag}");
        }
    }
}

#[test]
fn sharded_coordinator_is_bit_identical_sprinkler() {
    assert_sharded_equals_single_thread("sprinkler", 10_000);
}

#[test]
fn sharded_coordinator_is_bit_identical_alarm() {
    assert_sharded_equals_single_thread("alarm", 2_000);
}

/// The full tracker through `run_cluster_tracker` with
/// `TrackerConfig::with_coord_workers`: the exact scheme stays bit-for-bit
/// across coordinator shapes (the shard plan cuts on the layout's
/// per-variable block boundaries).
#[test]
fn sharded_tracker_is_bit_identical_to_single_thread() {
    let net = net_by_name("alarm");
    let m = 3_000usize;
    let run = |workers: usize| {
        let tc = TrackerConfig::new(Scheme::ExactMle)
            .with_k(4)
            .with_seed(3)
            .with_chunk(64)
            .with_coord_workers(workers);
        run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 17).take(m))
            .expect("cluster run failed")
    };
    let single = run(1);
    let layout = single.model.layout().clone();
    for workers in [2usize, 4] {
        let sharded = run(workers);
        assert_eq!(sharded.report.events, m as u64, "workers {workers}");
        for c in 0..layout.n_counters() {
            assert_eq!(
                sharded.model.exact_total(c),
                single.model.exact_total(c),
                "workers {workers}: counter {c} totals"
            );
        }
        for i in 0..layout.n_vars() {
            for u in 0..layout.parent_configs(i) {
                for v in 0..layout.cardinality(i) {
                    let (num, den) = sharded.model.counter_pair(i, v, u);
                    let (sn, sd) = single.model.counter_pair(i, v, u);
                    assert_eq!(num.to_bits(), sn.to_bits(), "workers {workers}: ({i},{v},{u})");
                    assert_eq!(den.to_bits(), sd.to_bits(), "workers {workers}: ({i},{u})");
                }
            }
        }
        assert_eq!(sharded.report.stats, single.report.stats, "workers {workers}: stats");
    }
}

/// Randomized schemes are interleaving-dependent, so the sharded tracker is
/// pinned statistically: exact totals match the event stream and the
/// Definition 2 band holds against the same-stream exact MLE.
#[test]
fn sharded_randomized_tracker_stays_in_band() {
    let net = sprinkler_network();
    let m = 40_000usize;
    let eps = 0.1;
    for workers in [2usize, 4] {
        let tc = TrackerConfig::new(Scheme::NonUniform)
            .with_k(5)
            .with_eps(eps)
            .with_seed(1)
            .with_chunk(64)
            .with_coord_workers(workers);
        let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 23).take(m))
            .expect("cluster run failed");
        assert_eq!(run.report.events, m as u64);
        assert!(run.report.stats.total() < 2 * 4 * m as u64, "workers {workers}: not sublinear");
        for x in TrainingStream::new(&net, 7).take(50) {
            let gap = (run.model.log_query(&x) - run.model.exact_log_query(&x)).abs();
            assert!(gap < 3.0 * eps, "workers {workers}: query band violated: {gap}");
        }
    }
}

/// Run the raw exact pipeline over a transport and return the report.
#[cfg(unix)]
fn run_exact_on<T: Transport>(
    transport: &T,
    net: &BayesianNetwork,
    layout: &CounterLayout,
    config: &ClusterConfig,
    m: u64,
) -> ClusterReport {
    let protocols = vec![ExactProtocol; layout.n_counters()];
    let events = TrainingStream::new(net, 7).chunks(32, m);
    run_cluster_on(transport, &protocols, config, events, |chunk, ids| layout.map_chunk(chunk, ids))
        .expect("cluster run failed")
}

/// The Unix-domain-socket transport runs the identical protocol: every
/// accounted figure (estimates, totals, logical messages, packets, *and
/// bytes* — envelopes are excluded by design) matches the in-process
/// channel transport, for both coordinator shapes.
#[cfg(unix)]
#[test]
fn uds_transport_matches_channels_bit_for_bit() {
    let net = sprinkler_network();
    let layout = CounterLayout::new(&net);
    let m = 5_000u64;
    for workers in [0usize, 2] {
        // workers = 0 => single-thread coordinator.
        let mut config = ClusterConfig::new(3, 11).with_chunk(32);
        if workers > 0 {
            config = config.with_sharded_coordinator(workers, Some(layout.shard_starts(workers)));
        }
        let chan = run_exact_on(&ChannelTransport, &net, &layout, &config, m);
        let uds = run_exact_on(&UdsTransport, &net, &layout, &config, m);
        let tag = format!("workers {workers}");
        assert_eq!(uds.events, chan.events, "{tag}");
        assert_eq!(uds.estimates, chan.estimates, "{tag}");
        assert_eq!(uds.exact_totals, chan.exact_totals, "{tag}");
        assert_eq!(uds.stats.up_messages, chan.stats.up_messages, "{tag}");
        assert_eq!(uds.stats.down_messages, chan.stats.down_messages, "{tag}");
        assert_eq!(uds.stats.bytes, chan.stats.bytes, "{tag}: envelope bytes must not leak");
        assert_eq!(uds.stats.packets, chan.stats.packets, "{tag}");
    }
}

/// A transport whose up links truncate the last byte of every update
/// payload: proves third-party `Transport` impls slot in, and that a
/// corrupted link surfaces as a typed error from `run_cluster_on` instead
/// of a panic or a hang.
struct TruncatingTransport;

struct TruncatingUp(<ChannelTransport as Transport>::UpTx);

impl UpSender for TruncatingUp {
    fn send(&mut self, pkt: UpPacket) -> Result<(), LinkClosed> {
        let pkt = match pkt {
            UpPacket::Updates { site, payload } if !payload.is_empty() => {
                let cut = payload.slice(0..payload.len() - 1);
                UpPacket::Updates { site, payload: cut }
            }
            other => other,
        };
        UpSender::send(&mut self.0, pkt)
    }
}

impl Transport for TruncatingTransport {
    type UpTx = TruncatingUp;
    type DownTx = <ChannelTransport as Transport>::DownTx;

    fn connect(
        &self,
        k: usize,
        capacity: usize,
    ) -> Result<dsbn::monitor::Fabric<Self::UpTx, Self::DownTx>, ClusterError> {
        let fabric = ChannelTransport.connect(k, capacity)?;
        Ok(dsbn::monitor::Fabric {
            site_ups: fabric.site_ups.into_iter().map(TruncatingUp).collect(),
            driver_up: fabric.driver_up,
            coord_rx: fabric.coord_rx,
            coord_downs: fabric.coord_downs,
            site_downs: fabric.site_downs,
            pumps: fabric.pumps,
        })
    }
}

#[test]
fn corrupting_transport_fails_the_run_with_a_typed_error() {
    let net = sprinkler_network();
    let layout = CounterLayout::new(&net);
    let protocols = vec![ExactProtocol; layout.n_counters()];
    // The local bank returns the error directly; shard workers route it
    // through `WorkerReply::Fault`.
    for config in [
        ClusterConfig::new(3, 11).with_chunk(16),
        ClusterConfig::new(3, 11).with_chunk(16).with_sharded_coordinator(2, None),
    ] {
        let events = TrainingStream::new(&net, 7).chunks(16, 1_000);
        let err =
            run_cluster_on(&TruncatingTransport, &protocols, &config, events, |chunk, ids| {
                layout.map_chunk(chunk, ids)
            })
            .unwrap_err();
        match err {
            ClusterError::Wire { source: dsbn::counters::wire::WireError::Truncated, .. } => {}
            other => panic!("expected a truncated-wire error, got {other:?}"),
        }
    }
}

/// Epoch rolling composes with the sharded coordinator. Per-epoch
/// *boundaries* are interleaving-dependent (a roll broadcast races queued
/// events, so where an event lands is timing — the legacy epoch suite pins
/// this), but every deterministic figure must match the single-thread run,
/// every closed epoch must settle exactly against its own oracle, and the
/// ring drop count must be reported, not silent.
#[test]
fn sharded_epoch_rolls_match_single_thread() {
    let net = sprinkler_network();
    let layout = CounterLayout::new(&net);
    let protocols = vec![ExactProtocol; layout.n_counters()];
    let run = |config: ClusterConfig| {
        let events = TrainingStream::new(&net, 5).chunks(16, 6_000);
        run_cluster(&protocols, &config, events, |chunk, ids| layout.map_chunk(chunk, ids))
            .expect("cluster run failed")
    };
    let single = run(ClusterConfig::new(3, 9).with_chunk(16).with_epochs(1_000, 4));
    assert_eq!(single.epochs, 6);
    assert_eq!(single.dropped_epochs, 2, "6 closed epochs in a ring of 4");
    let sharded = run(ClusterConfig::new(3, 9)
        .with_chunk(16)
        .with_epochs(1_000, 4)
        .with_sharded_coordinator(2, Some(layout.shard_starts(2))));
    assert_eq!(sharded.epochs, single.epochs);
    assert_eq!(sharded.dropped_epochs, single.dropped_epochs);
    // Cumulative totals are stream properties, independent of epoch
    // attribution and coordinator shape.
    assert_eq!(sharded.exact_totals, single.exact_totals);
    // Closed epochs settle exactly against this run's own oracle, and the
    // retained windows line up with it.
    assert_eq!(sharded.epoch_estimates.len(), 4);
    for (est, exact) in sharded.epoch_estimates.iter().zip(&sharded.epoch_exact_totals) {
        for (e, &t) in est.iter().zip(exact) {
            assert_eq!(*e, t as f64, "sharded closed epoch drifted from its oracle");
        }
    }
    // The final estimates cover the open epoch and agree with its oracle.
    for (e, &t) in sharded.estimates.iter().zip(&sharded.open_epoch_exact_totals) {
        assert_eq!(*e, t as f64);
    }
}
