//! The stride-table id mapping must be indistinguishable from the plain
//! Horner walk over the parent lists. The independent walk is the one
//! `dsbn_bayes` already has (`BayesianNetwork::parent_config_of`): every id
//! `map_event` / `map_event_u32` / `map_chunk` produce equals
//! `family_id(i, x[i], u)` / `parent_id(i, u)` for the walked `u`, and the
//! counts the simulator and the live cluster book under those ids equal a
//! tally over the walked ids — on the tiny fixture, ALARM, and a
//! 500-variable big-network preset. Also pins the big-network presets
//! themselves: seeded generation is golden-stable (same seed, same DAG,
//! same counter space), fan-in stays bounded, and `map_chunk` stays
//! equivalent to per-event `map_event` at 500 variables.

use dsbn::bayes::{sprinkler_network, BayesianNetwork, NetworkSpec};
use dsbn::core::{build_tracker, run_cluster_tracker, CounterLayout, Scheme, TrackerConfig};
use dsbn::datagen::{EventChunk, TrainingStream};

fn net_by_name(name: &str) -> BayesianNetwork {
    match name {
        "sprinkler" => sprinkler_network(),
        "alarm" => NetworkSpec::alarm().generate(1).expect("alarm generation"),
        other => NetworkSpec::by_name(other)
            .unwrap_or_else(|| panic!("unknown net {other}"))
            .generate(1)
            .expect("big-net generation"),
    }
}

/// The `2n` ids of event `x` by the independent walk, in Algorithm-2 order.
fn walked_ids(net: &BayesianNetwork, layout: &CounterLayout, x: &[usize]) -> Vec<u32> {
    (0..net.n_vars())
        .flat_map(|i| {
            let u = net.parent_config_of(i, x);
            [layout.family_id(i, x[i], u), layout.parent_id(i, u)]
        })
        .collect()
}

/// The first `m` events of stream seed `seed`: every mapping entry point
/// must agree with the walk id for id, and the returned per-counter tally
/// of the walked ids is what any exact ledger over the stream must hold.
fn walk_and_tally(net: &BayesianNetwork, seed: u64, m: usize) -> Vec<u64> {
    let layout = CounterLayout::new(net);
    let mut tally = vec![0u64; layout.n_counters()];
    let mut chunk = EventChunk::with_capacity(net.n_vars(), 64);
    let (mut walked, mut ids) = (Vec::new(), Vec::new());
    for x in TrainingStream::new(net, seed).take(m) {
        let expect = walked_ids(net, &layout, &x);
        for &id in &expect {
            tally[id as usize] += 1;
        }
        layout.map_event(&x, &mut ids);
        assert_eq!(ids, expect, "{}: map_event", net.name());
        let x32: Vec<u32> = x.iter().map(|&v| v as u32).collect();
        layout.map_event_u32(&x32, &mut ids);
        assert_eq!(ids, expect, "{}: map_event_u32", net.name());
        chunk.push(&x);
        walked.extend(expect);
        if chunk.len() == 64 {
            layout.map_chunk(&chunk, &mut ids);
            assert_eq!(ids, walked, "{}: map_chunk", net.name());
            chunk.clear();
            walked.clear();
        }
    }
    layout.map_chunk(&chunk, &mut ids);
    assert_eq!(ids, walked, "{}: map_chunk (tail)", net.name());
    tally
}

/// Sim: the tracker's exact ledger after `m` events is the walked tally.
fn assert_sim_books_walked_ids(scheme: Scheme, net_name: &str, m: usize) {
    let net = net_by_name(net_name);
    let tally = walk_and_tally(&net, 3, m);
    let tc = TrackerConfig::new(scheme).with_k(5).with_seed(23).with_eps(0.1);
    let mut tracker = build_tracker(&net, &tc);
    tracker.train(TrainingStream::new(&net, 3), m as u64);
    let layout = CounterLayout::new(&net);
    for i in 0..layout.n_vars() {
        for u in 0..layout.parent_configs(i) {
            assert_eq!(
                tracker.exact_parent_count(i, u),
                tally[layout.parent_id(i, u) as usize],
                "{net_name}/{}: parent total ({i},{u})",
                scheme.name()
            );
            for v in 0..layout.cardinality(i) {
                assert_eq!(
                    tracker.exact_family_count(i, v, u),
                    tally[layout.family_id(i, v, u) as usize],
                    "{net_name}/{}: family total ({i},{v},{u})",
                    scheme.name()
                );
            }
        }
    }
}

#[test]
fn sim_strided_is_bit_identical_sprinkler_all_schemes() {
    for scheme in Scheme::ALL {
        assert_sim_books_walked_ids(scheme, "sprinkler", 20_000);
    }
}

#[test]
fn sim_strided_is_bit_identical_alarm() {
    for scheme in [Scheme::ExactMle, Scheme::NonUniform] {
        assert_sim_books_walked_ids(scheme, "alarm", 5_000);
    }
}

#[test]
fn sim_strided_is_bit_identical_big500() {
    for scheme in [Scheme::ExactMle, Scheme::NonUniform] {
        assert_sim_books_walked_ids(scheme, "big500", 1_500);
    }
}

/// Cluster: the site threads map each delivered chunk themselves, so one
/// live run's exact ledger must be the walked tally too — whatever the
/// scheme, since the multiset of increments each counter receives is fixed
/// by the stream. With exact counters the coordinator's estimates are the
/// same numbers.
fn assert_cluster_books_walked_ids(scheme: Scheme, net_name: &str, m: usize) {
    let net = net_by_name(net_name);
    let tally = walk_and_tally(&net, 7, m);
    let tc = TrackerConfig::new(scheme).with_k(4).with_seed(11).with_eps(0.2).with_chunk(64);
    let run = run_cluster_tracker(&net, &tc, TrainingStream::new(&net, 7).take(m))
        .expect("cluster run failed");
    assert_eq!(run.report.events, m as u64, "{net_name}: events");
    let layout = run.model.layout();
    for (id, &count) in tally.iter().enumerate() {
        assert_eq!(run.model.exact_total(id), count, "{net_name}: exact total, counter {id}");
    }
    if scheme == Scheme::ExactMle {
        for i in 0..layout.n_vars() {
            for u in 0..layout.parent_configs(i) {
                for v in 0..layout.cardinality(i) {
                    let walked = (
                        tally[layout.family_id(i, v, u) as usize] as f64,
                        tally[layout.parent_id(i, u) as usize] as f64,
                    );
                    assert_eq!(
                        run.model.counter_pair(i, v, u),
                        walked,
                        "{net_name}: ({i},{v},{u})"
                    );
                }
            }
        }
    }
}

#[test]
fn cluster_exact_strided_is_bit_identical_sprinkler() {
    assert_cluster_books_walked_ids(Scheme::ExactMle, "sprinkler", 4_000);
}

#[test]
fn cluster_exact_strided_is_bit_identical_alarm() {
    assert_cluster_books_walked_ids(Scheme::ExactMle, "alarm", 2_000);
}

#[test]
fn cluster_exact_strided_is_bit_identical_big500() {
    assert_cluster_books_walked_ids(Scheme::ExactMle, "big500", 1_000);
}

#[test]
fn cluster_nonuniform_exact_ledgers_agree_big500() {
    assert_cluster_books_walked_ids(Scheme::NonUniform, "big500", 1_000);
}

/// FNV-1a over the DAG's parent lists + domain cardinalities — a cheap
/// structural fingerprint for the golden-determinism pin.
fn structure_hash(net: &BayesianNetwork) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for i in 0..net.n_vars() {
        mix(net.cardinality(i) as u64);
        mix(u64::MAX); // delimiter between variables
        for &p in net.dag().parents(i) {
            mix(p as u64);
        }
    }
    h
}

/// Same seed, same preset → the same DAG bit for bit and the same counter
/// space, twice over and against golden values recorded when the presets
/// landed (a silent generator change would shift every downstream result).
#[test]
fn big_presets_are_golden_deterministic() {
    let goldens: [(&str, u64, usize); 3] = [
        ("big500", 0x7cf6e05da496f60a, 22531),
        ("big1500", 0x6e5de68a7017fbe2, 66606),
        ("munin-stress", 0x416abf0ab1c4a3a7, 239231),
    ];
    for (name, hash, n_counters) in goldens {
        let a = net_by_name(name);
        let b = net_by_name(name);
        assert_eq!(structure_hash(&a), structure_hash(&b), "{name}: regeneration diverged");
        assert_eq!(structure_hash(&a), hash, "{name}: DAG drifted from golden");
        assert_eq!(
            CounterLayout::new(&a).n_counters(),
            n_counters,
            "{name}: counter space drifted from golden"
        );
        // A different seed must actually produce a different network.
        let other = NetworkSpec::by_name(name).unwrap().generate(2).unwrap();
        assert_ne!(structure_hash(&a), structure_hash(&other), "{name}: seed ignored");
    }
}

/// The bounded-fan-in contract the stride table's width dispatch relies on.
#[test]
fn big_presets_keep_fan_in_bounded() {
    for (name, max_parents) in [("big500", 3), ("big1500", 3), ("munin-stress", 4)] {
        let net = net_by_name(name);
        for i in 0..net.n_vars() {
            assert!(
                net.dag().parents(i).len() <= max_parents,
                "{name}: variable {i} has fan-in {}",
                net.dag().parents(i).len()
            );
        }
    }
}

/// `map_chunk` ≡ per-event `map_event` at 500 variables.
#[test]
fn map_chunk_matches_map_event_big500() {
    let net = net_by_name("big500");
    let mut chunk = EventChunk::with_capacity(net.n_vars(), 64);
    for x in TrainingStream::new(&net, 5).take(64) {
        chunk.push(&x);
    }
    let layout = CounterLayout::new(&net);
    let mut bulk = Vec::new();
    layout.map_chunk(&chunk, &mut bulk);
    let mut per_event = Vec::new();
    let mut ids = Vec::new();
    for ev in chunk.iter() {
        layout.map_event_u32(ev, &mut ids);
        per_event.extend_from_slice(&ids);
    }
    assert_eq!(bulk, per_event);
}
