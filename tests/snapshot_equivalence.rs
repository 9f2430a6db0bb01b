//! The serving layer must be invisible in the numbers: a snapshot minted
//! at the final settlement answers *byte-identically* to the end-of-run
//! model — across networks, schemes, transports (in-process channels and
//! Unix domain sockets), the decayed tracker, and the synchronous simulator.
//! Mid-stream snapshots are epoch-consistent cuts: whole events only for
//! the exact scheme, inside the Lemma 4 band for randomized schemes, with
//! monotone publish sequences. Companion to `tests/transport_equivalence.rs`
//! (which pins the write path this read path snapshots).

use dsbn::bayes::{sprinkler_network, BayesianNetwork, NetworkSpec};
use dsbn::core::{
    build_tracker, run_cluster_tracker, AnyTracker, CounterLayout, CptEvaluator, EpochDecayConfig,
    Scheme, SnapshotHub, SnapshotServer, TrackerConfig,
};
use dsbn::datagen::TrainingStream;
use dsbn::monitor::CounterSnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Pace a stream so settlements are spread over wall time: sleep briefly
/// at every `boundary` crossing, giving a polling observer time to catch
/// mid-stream publishes. Purely a scheduling aid — the event sequence is
/// unchanged.
fn paced(
    events: impl Iterator<Item = Vec<usize>>,
    boundary: usize,
) -> impl Iterator<Item = Vec<usize>> {
    events.enumerate().map(move |(i, x)| {
        if i > 0 && i % boundary == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        x
    })
}

fn net_by_name(name: &str) -> BayesianNetwork {
    match name {
        "sprinkler" => sprinkler_network(),
        "alarm" => NetworkSpec::alarm().generate(1).expect("alarm generation"),
        other => panic!("unknown net {other}"),
    }
}

/// Assert the server answers byte-identically to the finished model on a
/// seeded query batch (log-queries, classification, posteriors).
fn assert_server_matches_model(
    tag: &str,
    net: &BayesianNetwork,
    server: &SnapshotServer,
    log_query: impl Fn(&[usize]) -> f64,
    classify: impl Fn(usize, &mut [usize]) -> usize,
) {
    for x in TrainingStream::new(net, 77).take(25) {
        assert_eq!(
            server.log_query(&x).to_bits(),
            log_query(&x).to_bits(),
            "{tag}: served log-query drifted from the end-of-run model"
        );
    }
    for target in 0..net.n_vars() {
        let mut a: Vec<usize> = TrainingStream::new(net, 78).next().unwrap();
        let mut b = a.clone();
        assert_eq!(
            server.classify(target, &mut a),
            classify(target, &mut b),
            "{tag}: served classification drifted"
        );
    }
}

/// The core acceptance anchor: every (network, scheme) leaves the server
/// byte-identical to the `ClusterModel` the run returned — with no epochs
/// configured, the final snapshot's open counts *are* the report estimates
/// verbatim.
#[test]
fn final_snapshot_serves_the_end_of_run_model_bitwise() {
    for (net_name, m) in [("sprinkler", 4_000usize), ("alarm", 1_200)] {
        let net = net_by_name(net_name);
        for scheme in Scheme::ALL {
            let hub = SnapshotHub::new();
            let tc = TrackerConfig::new(scheme)
                .with_k(4)
                .with_seed(3)
                .with_chunk(64)
                .with_publish(hub.clone());
            let server = SnapshotServer::new(&net, tc.smoothing, hub.clone());
            let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 17).take(m))
                .expect("cluster run failed");
            let tag = format!("{net_name}/{}", scheme.name());
            assert_eq!(hub.seq(), 1, "{tag}: exactly one (final) publish");
            let snap = server.snapshot();
            assert!(snap.finalized, "{tag}");
            assert_eq!(snap.events, m as u64, "{tag}");
            assert_server_matches_model(
                &tag,
                &net,
                &server,
                |x| run.model.log_query(x),
                |t, x| run.model.classify(t, x),
            );
        }
    }
}

/// With epoch settlements enabled the final cumulative reads are
/// `settled + open` — still byte-identical to the end-of-run model, and
/// the publish sequence counts every settlement plus the final flush.
#[test]
fn final_snapshot_with_epochs_is_bitwise_and_seq_counts_settlements() {
    let net = sprinkler_network();
    let m = 6_000usize;
    for scheme in Scheme::ALL {
        let hub = SnapshotHub::new();
        let tc = TrackerConfig::new(scheme)
            .with_k(3)
            .with_seed(9)
            .with_chunk(32)
            .with_snapshot_every(1_000)
            .with_publish(hub.clone());
        let server = SnapshotServer::new(&net, tc.smoothing, hub.clone());
        let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 17).take(m))
            .expect("cluster run failed");
        let tag = scheme.name();
        assert!(run.report.epochs > 0, "{tag}: settlements must have happened");
        assert_eq!(hub.seq(), run.report.epochs + 1, "{tag}: one publish per settlement");
        let snap = hub.load();
        assert!(snap.finalized, "{tag}");
        assert_eq!(snap.exact.as_deref(), Some(run.report.exact_totals.as_slice()), "{tag}");
        assert_server_matches_model(
            tag,
            &net,
            &server,
            |x| run.model.log_query(x),
            |t, x| run.model.classify(t, x),
        );
    }
}

/// Poll a hub while a run is in flight, collecting every distinct publish
/// the poller manages to observe (ArcSwap keeps only the latest, so this
/// is a sample of the settlements, not necessarily all of them).
fn collect_snapshots(hub: &SnapshotHub, stop: &AtomicBool) -> Vec<Arc<CounterSnapshot>> {
    let mut seen = Vec::new();
    let mut last = 0u64;
    loop {
        let done = stop.load(Ordering::Acquire);
        let snap = hub.load();
        if snap.seq != last {
            last = snap.seq;
            seen.push(snap);
        }
        if done {
            return seen;
        }
        std::thread::yield_now();
    }
}

/// Mid-stream snapshots under the exact scheme are whole-event cuts:
/// mints happen only between packets at settlements, and packets carry
/// whole events, so for every variable the family counts sum exactly to
/// their parent count — in every observed snapshot, not just the final
/// one. Sequences ascend, closed-epoch counts track the sequence, and the
/// exact oracle rides only the final snapshot.
#[test]
fn exact_mid_stream_snapshots_are_whole_event_cuts() {
    let net = sprinkler_network();
    let layout = CounterLayout::new(&net);
    let every = 500u64;
    let m = 20_000usize;
    let hub = SnapshotHub::new();
    let tc = TrackerConfig::new(Scheme::ExactMle)
        .with_k(3)
        .with_seed(5)
        .with_chunk(32)
        .with_snapshot_every(every)
        .with_publish(hub.clone());
    let stop = AtomicBool::new(false);
    let (run, seen) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| collect_snapshots(&hub, &stop));
        let events = paced(TrainingStream::new(&net, 13).take(m), every as usize);
        let run = run_cluster_tracker(&net, &tc, events).expect("cluster run failed");
        stop.store(true, Ordering::Release);
        (run, poller.join().expect("poller panicked"))
    });
    assert!(seen.len() >= 3, "poller observed only {} snapshots", seen.len());
    let mut last_seq = 0u64;
    for snap in &seen {
        assert!(snap.seq > last_seq, "publish sequence must ascend");
        last_seq = snap.seq;
        if snap.finalized {
            assert_eq!(snap.seq, run.report.epochs + 1);
            assert_eq!(snap.events, m as u64);
            assert!(snap.exact.is_some(), "final snapshot carries the oracle");
        } else {
            assert_eq!(snap.epochs, snap.seq, "one settlement per publish");
            assert_eq!(snap.events, snap.epochs * every);
            assert!(snap.exact.is_none(), "no oracle before the flush");
        }
        for i in 0..layout.n_vars() {
            for u in 0..layout.parent_configs(i) {
                let family: f64 = (0..layout.cardinality(i))
                    .map(|v| snap.cumulative(layout.family_id(i, v, u) as usize))
                    .sum();
                let parent = snap.cumulative(layout.parent_id(i, u) as usize);
                assert_eq!(
                    family, parent,
                    "seq {} cut variable {i} config {u} mid-event",
                    snap.seq
                );
            }
        }
    }
    assert!(seen.last().unwrap().finalized, "final publish observed");
}

/// Mid-stream snapshots under a randomized scheme split cleanly along the
/// settlement line: the *settled* component is exact (epoch settlements
/// ship each site's exact per-epoch counts, whatever the scheme), so its
/// family sums, parent counts, and cross-variable totals agree exactly —
/// while the *open* component is a live Lemma 4 estimate, pinned only to
/// be finite, non-negative, and to serve finite probabilities. A
/// single-instance HYZ counter misses its `eps` band with constant
/// probability (that is what Theorem 1's median amplification is for), so
/// nothing sharper is a sound assertion here.
#[test]
fn randomized_mid_stream_snapshots_stay_in_the_eps_band() {
    let net = sprinkler_network();
    let layout = CounterLayout::new(&net);
    let eps = 0.1;
    let hub = SnapshotHub::new();
    let tc = TrackerConfig::new(Scheme::Uniform)
        .with_k(5)
        .with_eps(eps)
        .with_seed(1)
        .with_chunk(32)
        .with_snapshot_every(1_000)
        .with_publish(hub.clone());
    let server = SnapshotServer::new(&net, tc.smoothing, hub.clone());
    let stop = AtomicBool::new(false);
    let m = 30_000usize;
    let (_run, seen, served) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| collect_snapshots(&hub, &stop));
        // A live reader: every mid-stream answer must be a usable
        // probability, never NaN/inf, no matter which settlement it lands
        // on.
        let reader = scope.spawn(|| {
            let queries: Vec<Vec<usize>> = TrainingStream::new(&net, 3).take(64).collect();
            let mut served = 0u64;
            let mut i = 0usize;
            loop {
                let logp = server.log_query(&queries[i % queries.len()]);
                assert!(logp.is_finite(), "mid-stream answer not finite");
                assert!(logp <= 0.0, "mid-stream answer not a probability");
                served += 1;
                i += 1;
                if stop.load(Ordering::Acquire) {
                    return served;
                }
            }
        });
        let events = paced(TrainingStream::new(&net, 23).take(m), 1_000);
        let run = run_cluster_tracker(&net, &tc, events).expect("cluster run failed");
        stop.store(true, Ordering::Release);
        (run, poller.join().expect("poller panicked"), reader.join().expect("reader panicked"))
    });
    assert!(served > 0);
    assert!(seen.len() >= 3, "poller observed only {} snapshots", seen.len());
    for snap in seen.iter().filter(|s| !s.finalized) {
        // Settled component: exact whole-event counts, scheme-independent.
        let settled_totals: Vec<f64> = (0..layout.n_vars())
            .map(|i| {
                (0..layout.parent_configs(i))
                    .map(|u| {
                        let p = layout.parent_id(i, u) as usize;
                        let family: f64 = (0..layout.cardinality(i))
                            .map(|v| snap.settled[layout.family_id(i, v, u) as usize])
                            .sum();
                        assert_eq!(
                            family, snap.settled[p],
                            "seq {}: settled cut variable {i} config {u} mid-event",
                            snap.seq
                        );
                        snap.settled[p]
                    })
                    .sum()
            })
            .collect();
        assert!(settled_totals[0] > 0.0, "seq {}: empty settlement published", snap.seq);
        for (i, &t) in settled_totals.iter().enumerate() {
            assert_eq!(
                t, settled_totals[0],
                "seq {}: settled totals disagree across variables ({i})",
                snap.seq
            );
        }
        // Open component: a live randomized estimate — sane, not exact.
        for c in 0..layout.n_counters() {
            let open = snap.open[c];
            assert!(open.is_finite() && open >= 0.0, "seq {}: bad open read {open}", snap.seq);
            assert!(snap.cumulative(c) >= snap.settled[c], "seq {}", snap.seq);
        }
    }
}

/// A decayed run's settlements serve the same way: a server resolving
/// with the run's `lambda` answers byte-identically to the returned model
/// (both read by the one epoch read rule).
#[test]
fn decayed_final_snapshot_matches_the_decayed_model_bitwise() {
    let net = sprinkler_network();
    let decay = EpochDecayConfig::new(0.8, 500, 6);
    for scheme in [Scheme::ExactMle, Scheme::NonUniform] {
        let hub = SnapshotHub::new();
        let tc = TrackerConfig::new(scheme)
            .with_k(3)
            .with_eps(0.1)
            .with_seed(7)
            .with_chunk(32)
            .with_decay(decay)
            .with_publish(hub.clone());
        let server = SnapshotServer::with_decay(&net, tc.smoothing, hub.clone(), decay.lambda);
        let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 29).take(8_000))
            .expect("decayed cluster run failed");
        let tag = format!("decayed {}", scheme.name());
        assert!(run.report.epochs > 0, "{tag}");
        assert_eq!(hub.seq(), run.report.epochs + 1, "{tag}");
        assert_server_matches_model(
            &tag,
            &net,
            &server,
            |x| run.model.log_query(x),
            |t, x| run.model.classify(t, x),
        );
    }
}

/// The simulator freezes the same way: `BnTracker::snapshot()` is a
/// sequence-zero, finalized `CptSnapshot` whose evaluator answers
/// byte-identically to the live tracker, for every scheme's protocol —
/// never rolling, and rolling with `lambda < 1`.
#[test]
fn sim_tracker_snapshot_is_bitwise_frozen_for_every_scheme() {
    let net = sprinkler_network();
    for decay in [EpochDecayConfig::disabled(), EpochDecayConfig::new(0.8, 1_500, 4)] {
        for scheme in Scheme::ALL {
            let tc = TrackerConfig::new(scheme).with_k(4).with_seed(2).with_decay(decay);
            let mut t = build_tracker(&net, &tc);
            t.train(TrainingStream::new(&net, 21), 10_000);
            let (snap, layout, smoothing) = match &t {
                AnyTracker::Exact(t) => (t.snapshot(), t.layout(), t.smoothing()),
                AnyTracker::Randomized(t) => (t.snapshot(), t.layout(), t.smoothing()),
                AnyTracker::Deterministic(t) => (t.snapshot(), t.layout(), t.smoothing()),
            };
            let tag = format!("{} / {decay:?}", scheme.name());
            assert_eq!(snap.events, 10_000, "{tag}");
            assert_eq!(snap.epochs, if decay.rolls() { 6 } else { 0 }, "{tag}");
            assert!(snap.finalized, "{tag}");
            let exact = snap.exact.as_ref().expect("a frozen tracker carries its oracle");
            assert_eq!(exact[layout.parent_id(0, 0) as usize], 10_000, "{tag}: whole stream");
            let eval = CptEvaluator::new(&net, layout, &snap, smoothing);
            for x in TrainingStream::new(&net, 22).take(50) {
                assert_eq!(
                    eval.log_query(&x).to_bits(),
                    t.log_query(&x).to_bits(),
                    "{tag}: frozen simulator answers drifted"
                );
            }
        }
    }
}

/// Snapshots are transport-invariant: the raw exact pipeline over Unix
/// domain sockets publishes a final snapshot byte-identical to the one the
/// in-process channel transport publishes.
#[cfg(unix)]
#[test]
fn uds_final_snapshot_matches_channels_bit_for_bit() {
    use dsbn::counters::ExactProtocol;
    use dsbn::monitor::{run_cluster_on, ChannelTransport, ClusterConfig, UdsTransport};

    let net = sprinkler_network();
    let layout = CounterLayout::new(&net);
    let protocols = vec![ExactProtocol; layout.n_counters()];
    let m = 5_000u64;
    let run = |uds: bool| -> Arc<CounterSnapshot> {
        let hub = SnapshotHub::new();
        let config =
            ClusterConfig::new(3, 11).with_chunk(32).with_epochs(500, 8).with_publish(hub.clone());
        let events = TrainingStream::new(&net, 7).chunks(32, m);
        let report = if uds {
            run_cluster_on(&UdsTransport, &protocols, &config, events, |chunk, ids| {
                layout.map_chunk(chunk, ids)
            })
        } else {
            run_cluster_on(&ChannelTransport, &protocols, &config, events, |chunk, ids| {
                layout.map_chunk(chunk, ids)
            })
        }
        .expect("cluster run failed");
        let snap = hub.load();
        assert!(snap.finalized);
        assert_eq!(snap.events, report.events);
        assert_eq!(snap.exact.as_deref(), Some(report.exact_totals.as_slice()));
        for c in 0..layout.n_counters() {
            assert_eq!(
                snap.cumulative(c).to_bits(),
                (report.settled_totals[c] + report.estimates[c]).to_bits(),
                "cumulative reads must be settled + open"
            );
        }
        snap
    };
    let chan = run(false);
    let uds = run(true);
    assert_eq!(uds.seq, chan.seq);
    assert_eq!(uds.events, chan.events);
    assert_eq!(uds.epochs, chan.epochs);
    // The settled/open *split* is timing-dependent — which events a
    // site had ingested when a roll reached it varies with delivery
    // timing, on either transport — but the cumulative count per
    // counter is a property of the event multiset: bit-identical.
    for c in 0..layout.n_counters() {
        assert_eq!(uds.cumulative(c).to_bits(), chan.cumulative(c).to_bits(), "counter {c}");
    }
    assert_eq!(uds.exact, chan.exact);
}
