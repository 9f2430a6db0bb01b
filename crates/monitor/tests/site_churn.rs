//! Site crash/rejoin fault tolerance (DESIGN.md §8).
//!
//! The load-bearing contract pinned here: for every counter `c` and any
//! protocol, `exact_totals[c] + churn.lost_counts[c]` equals the
//! full-stream count bit-for-bit — crashes *forget* exactly what they
//! wiped, never more, never less — and no injected fault or worker panic
//! ever escapes `run_cluster` as anything but a typed [`ClusterError`].

use dsbn_counters::{CounterProtocol, DownMsg, ExactProtocol, HyzProtocol, UpMsg};
use dsbn_monitor::{
    chunk_events, run_cluster, run_cluster_on, ClusterConfig, ClusterError, ClusterReport,
    Partitioner, SiteFault, Transport,
};
use rand::Rng;

const N_COUNTERS: usize = 3;

/// Synthetic stream: event `i` increments counter `i % N_COUNTERS`.
fn events(m: u64) -> impl Iterator<Item = Vec<usize>> {
    (0..m).map(|i| vec![(i % N_COUNTERS as u64) as usize])
}

fn map_event(chunk: &dsbn_datagen::EventChunk, ids: &mut Vec<u32>) {
    ids.clear();
    ids.extend(chunk.iter().map(|ev| ev[0] % N_COUNTERS as u32));
}

/// Full-stream per-counter truth, independent of routing and churn.
fn truth(m: u64) -> Vec<u64> {
    let mut t = vec![0u64; N_COUNTERS];
    for i in 0..m {
        t[(i % N_COUNTERS as u64) as usize] += 1;
    }
    t
}

fn run_exact_on<T: Transport>(
    transport: &T,
    config: &ClusterConfig,
    m: u64,
) -> Result<ClusterReport, ClusterError> {
    let protocols = vec![ExactProtocol; N_COUNTERS];
    run_cluster_on(transport, &protocols, config, chunk_events(events(m), 64), map_event)
}

fn run_exact(config: &ClusterConfig, m: u64) -> ClusterReport {
    let protocols = vec![ExactProtocol; N_COUNTERS];
    run_cluster(&protocols, config, chunk_events(events(m), 64), map_event)
        .expect("cluster run failed")
}

/// `exact_totals[c] + lost_counts[c]` must equal the full-stream count.
fn assert_reconciles(report: &ClusterReport, m: u64, ctx: &str) {
    assert_eq!(report.events, m, "{ctx}: driver event count");
    for (c, &full) in truth(m).iter().enumerate() {
        assert_eq!(
            report.exact_totals[c] + report.churn.lost_counts[c],
            full,
            "{ctx}: counter {c}: surviving {} + lost {} != full-stream {full}",
            report.exact_totals[c],
            report.churn.lost_counts[c],
        );
    }
}

#[test]
fn schedule_is_seeded_distinct_and_bounded() {
    let a = SiteFault::schedule(6, 10_000, 4, 42);
    let b = SiteFault::schedule(6, 10_000, 4, 42);
    assert_eq!(a, b, "same seed must give the same schedule");
    assert!(!a.is_empty() && a.len() <= 4);
    let mut sites: Vec<usize> = a.iter().map(|f| f.site).collect();
    sites.sort_unstable();
    sites.dedup();
    assert_eq!(sites.len(), a.len(), "fault targets must be distinct sites");
    for f in &a {
        assert!(f.site < 6);
        assert!(f.kill_at >= 2_500 && f.kill_at < 5_000, "kill in the middle half");
        if let Some(r) = f.revive_at {
            assert!(r > f.kill_at);
        }
    }
    // Never schedules more faults than k - 1 (one site always survives).
    assert!(SiteFault::schedule(3, 1_000, 10, 7).len() <= 2);
    assert_ne!(a, SiteFault::schedule(6, 10_000, 4, 43), "seed must matter");
}

#[test]
fn exact_totals_reconcile_after_kill_and_rejoin() {
    let m = 60_000u64;
    let faults = vec![
        // Killed mid-stream, revived later: loses its unsettled counts
        // plus everything routed to it while down.
        SiteFault { site: 1, kill_at: m / 4, revive_at: Some(m / 2) },
        // Killed for good: down until shutdown.
        SiteFault { site: 2, kill_at: m / 3, revive_at: None },
    ];
    let config = ClusterConfig::new(4, 9).with_chunk(64).with_faults(faults);
    let report = run_exact(&config, m);
    assert_eq!(report.churn.kills, 2);
    assert_eq!(report.churn.revives, 1);
    assert_eq!(report.churn.faults_injected(), 3);
    assert!(report.churn.events_lost > 0, "a dead site must have lost arrivals");
    assert!(
        report.churn.lost_counts.iter().sum::<u64>() > 0,
        "crashes must have wiped some counts"
    );
    // Downtime is measured at the site: both crashed sites were down for a
    // while, the survivors never.
    assert!(report.churn.site_downtime[1] > std::time::Duration::ZERO);
    assert!(report.churn.site_downtime[2] > std::time::Duration::ZERO);
    assert_eq!(report.churn.site_downtime[0], std::time::Duration::ZERO);
    assert_eq!(report.churn.site_downtime[3], std::time::Duration::ZERO);
    // The identity, and exactness of what survived: the exact protocol's
    // estimates equal the surviving totals bit-for-bit.
    assert_reconciles(&report, m, "kill+rejoin");
    for c in 0..N_COUNTERS {
        assert_eq!(report.estimates[c], report.exact_totals[c] as f64);
    }
}

#[test]
fn fault_free_runs_report_zero_churn() {
    let report = run_exact(&ClusterConfig::new(3, 5).with_chunk(32), 5_000);
    assert_eq!(report.churn.kills, 0);
    assert_eq!(report.churn.revives, 0);
    assert_eq!(report.churn.events_lost, 0);
    assert_eq!(report.churn.partial_final_packets, 0);
    assert!(report.churn.lost_counts.iter().all(|&v| v == 0));
    assert_reconciles(&report, 5_000, "fault-free");
}

#[test]
fn torn_final_packet_is_discarded_and_attributed() {
    // A site dying mid-chunk tears its buffered packet mid-frame: the
    // coordinator must receive the truncated prefix, attribute it to the
    // dead site, and discard it whole — applying it would double-count
    // against the site's wiped (and loss-accounted) local state.
    let m = 40_000u64;
    let faults = vec![SiteFault { site: 0, kill_at: m / 4, revive_at: None }];
    let config = ClusterConfig::new(3, 11).with_chunk(64).with_faults(faults);
    let report = run_exact(&config, m);
    assert_eq!(report.churn.kills, 1);
    assert!(report.churn.partial_final_packets >= 1, "the crash must tear a packet");
    assert!(report.churn.partial_bytes_discarded > 0);
    assert_reconciles(&report, m, "torn packet");
}

#[test]
fn identity_holds_across_partitioners_and_seeds() {
    let m = 20_000u64;
    for partitioner in [
        Partitioner::UniformRandom,
        Partitioner::RoundRobin,
        Partitioner::Zipf { theta: 1.0 },
        Partitioner::Skewed { hot: 0.6, cold: 0.01 },
        Partitioner::Bursty { period: 64, burst: 16 },
    ] {
        for seed in [1u64, 7, 23] {
            let mut config = ClusterConfig::new(5, seed)
                .with_chunk(32)
                .with_faults(SiteFault::schedule(5, m, 3, seed));
            config.partitioner = partitioner;
            let report = run_exact(&config, m);
            assert_reconciles(&report, m, &format!("{partitioner:?} seed {seed}"));
        }
    }
}

#[test]
fn skewed_churn_loses_most_at_the_hot_site() {
    // Crashing the hot site wipes the largest unsettled state; crashing
    // the near-idle one barely moves the ledger. Both reconcile.
    let m = 30_000u64;
    let base = ClusterConfig::new(4, 3).with_chunk(64);
    let mut lost = Vec::new();
    for site in [0usize, 3] {
        let mut config =
            base.clone().with_faults(vec![SiteFault { site, kill_at: m / 2, revive_at: None }]);
        config.partitioner = Partitioner::Skewed { hot: 0.7, cold: 0.005 };
        let report = run_exact(&config, m);
        assert_reconciles(&report, m, &format!("skewed kill of site {site}"));
        lost.push(report.churn.lost_counts.iter().sum::<u64>() + report.churn.events_lost);
    }
    assert!(
        lost[0] > lost[1],
        "hot-site crash must cost more than the near-idle one ({} vs {})",
        lost[0],
        lost[1]
    );
}

#[test]
fn hyz_estimates_track_surviving_counts_under_churn() {
    // The HYZ protocol's Lemma 4 band is stated against the *surviving*
    // count: a crash forgets the dead site's unsettled contribution on
    // both sides of the comparison, so the relative band holds against
    // `exact_totals` (widened for asynchronous transition noise).
    let m = 120_000u64;
    let eps = 0.1;
    let faults = vec![
        SiteFault { site: 0, kill_at: m / 4, revive_at: Some(m / 2) },
        SiteFault { site: 3, kill_at: m / 3, revive_at: None },
    ];
    let config = ClusterConfig::new(5, 17).with_chunk(64).with_faults(faults);
    let protocols: Vec<HyzProtocol> = (0..N_COUNTERS).map(|_| HyzProtocol::new(eps)).collect();
    let report = run_cluster(&protocols, &config, chunk_events(events(m), 64), map_event)
        .expect("cluster run failed");
    assert_eq!(report.churn.kills, 2);
    assert_reconciles(&report, m, "hyz churn");
    for c in 0..N_COUNTERS {
        let total = report.exact_totals[c];
        assert!(total > 10_000, "counter {c} too small to band-check");
        let rel = (report.estimates[c] - total as f64).abs() / total as f64;
        assert!(rel < 3.0 * eps, "counter {c}: estimate off by {rel} under churn");
    }
}

#[test]
fn epoch_rolling_reconciles_under_churn() {
    // Settlements are the durable checkpoints: counts settled before a
    // crash survive it, and the per-epoch oracle stays consistent (every
    // site observes every roll, dead ones as all-zero snapshots).
    let m = 24_000u64;
    let faults = vec![SiteFault { site: 1, kill_at: m / 3, revive_at: Some(2 * m / 3) }];
    let config = ClusterConfig::new(3, 29).with_chunk(32).with_epochs(m / 4, 8).with_faults(faults);
    let report = run_exact(&config, m);
    assert_eq!(report.churn.kills, 1);
    assert_eq!(report.churn.revives, 1);
    assert_reconciles(&report, m, "epoch rolling");
    // Epoch oracle consistency: settled epochs plus the open epoch add up
    // to the surviving totals.
    for c in 0..N_COUNTERS {
        let settled: u64 = report.epoch_exact_totals.iter().map(|e| e[c]).sum();
        assert_eq!(settled + report.open_epoch_exact_totals[c], report.exact_totals[c]);
    }
}

#[test]
fn seeded_schedule_reconciles_at_a_coarse_chunk() {
    let m = 30_000u64;
    let config =
        ClusterConfig::new(4, 77).with_chunk(64).with_faults(SiteFault::schedule(4, m, 2, 77));
    let report = run_exact(&config, m);
    assert!(report.churn.kills >= 1);
    assert_reconciles(&report, m, "seed 77");
}

#[cfg(unix)]
#[test]
fn uds_transport_reconciles_under_churn() {
    let m = 20_000u64;
    let config = ClusterConfig::new(3, 13).with_chunk(64).with_faults(vec![SiteFault {
        site: 2,
        kill_at: m / 4,
        revive_at: Some(m / 2),
    }]);
    let report =
        run_exact_on(&dsbn_monitor::UdsTransport, &config, m).expect("uds cluster run failed");
    assert_eq!(report.churn.kills, 1);
    assert_eq!(report.churn.revives, 1);
    assert_reconciles(&report, m, "uds transport");
}

#[test]
fn seeded_schedules_never_escape_as_panics() {
    // Sweep seeded fault schedules; every run must come back `Ok` with a
    // balanced ledger — no injected fault may wedge a quorum loop or
    // escape as a panic.
    let m = 10_000u64;
    for seed in 0..8u64 {
        let config = ClusterConfig::new(4, seed)
            .with_chunk(16)
            .with_faults(SiteFault::schedule(4, m, 3, seed));
        let report = run_exact(&config, m);
        assert_reconciles(&report, m, &format!("seed {seed}"));
    }
}

// --- worker panics must surface as typed errors, never hangs or unwinds ---

/// An exact-ish counter whose *site* panics after `limit` local arrivals:
/// regression for site-thread panics being silently swallowed (the old
/// runtime discarded the poisoned join and hung or under-reported).
#[derive(Clone, Copy)]
struct SitePanicProtocol {
    limit: u64,
}

impl CounterProtocol for SitePanicProtocol {
    type Site = u64;
    type Coord = u64;

    fn new_site(&self) -> u64 {
        0
    }
    fn new_coord(&self, _k: usize) -> u64 {
        0
    }
    fn increment<R: Rng + ?Sized>(&self, site: &mut u64, _rng: &mut R) -> Option<UpMsg> {
        *site += 1;
        assert!(*site <= self.limit, "injected site panic");
        Some(UpMsg::Increment)
    }
    fn handle_down<R: Rng + ?Sized>(
        &self,
        _site: &mut u64,
        _msg: DownMsg,
        _rng: &mut R,
    ) -> Option<UpMsg> {
        None
    }
    fn handle_up(&self, coord: &mut u64, _site_id: usize, _msg: UpMsg) -> Option<DownMsg> {
        *coord += 1;
        None
    }
    fn estimate(&self, coord: &u64) -> f64 {
        *coord as f64
    }
    fn site_local_count(&self, site: &u64) -> u64 {
        *site
    }
}

/// The mirror image: the *coordinator-side* `handle_up` panics after
/// `limit` deliveries, on the coordinator thread.
#[derive(Clone, Copy)]
struct CoordPanicProtocol {
    limit: u64,
}

impl CounterProtocol for CoordPanicProtocol {
    type Site = u64;
    type Coord = u64;

    fn new_site(&self) -> u64 {
        0
    }
    fn new_coord(&self, _k: usize) -> u64 {
        0
    }
    fn increment<R: Rng + ?Sized>(&self, site: &mut u64, _rng: &mut R) -> Option<UpMsg> {
        *site += 1;
        Some(UpMsg::Increment)
    }
    fn handle_down<R: Rng + ?Sized>(
        &self,
        _site: &mut u64,
        _msg: DownMsg,
        _rng: &mut R,
    ) -> Option<UpMsg> {
        None
    }
    fn handle_up(&self, coord: &mut u64, _site_id: usize, _msg: UpMsg) -> Option<DownMsg> {
        *coord += 1;
        assert!(*coord <= self.limit, "injected coordinator panic");
        None
    }
    fn estimate(&self, coord: &u64) -> f64 {
        *coord as f64
    }
    fn site_local_count(&self, site: &u64) -> u64 {
        *site
    }
}

fn expect_worker_panicked(result: Result<ClusterReport, ClusterError>, role_fragment: &str) {
    match result {
        Err(ClusterError::WorkerPanicked { role }) => {
            assert!(
                role.contains(role_fragment),
                "expected role containing {role_fragment:?}, got {role:?}"
            );
        }
        Err(other) => panic!("expected WorkerPanicked, got {other:?}"),
        Ok(_) => panic!("a panicking worker must fail the run"),
    }
}

#[test]
fn site_panic_surfaces_as_typed_error() {
    let protocols = vec![SitePanicProtocol { limit: 500 }; N_COUNTERS];
    let result = run_cluster(
        &protocols,
        &ClusterConfig::new(3, 1).with_chunk(16),
        chunk_events(events(20_000), 16),
        map_event,
    );
    expect_worker_panicked(result, "site ");
}

#[test]
fn coordinator_panic_surfaces_as_typed_error() {
    let protocols = vec![CoordPanicProtocol { limit: 500 }; N_COUNTERS];
    let result = run_cluster(
        &protocols,
        &ClusterConfig::new(3, 2).with_chunk(16),
        chunk_events(events(20_000), 16),
        map_event,
    );
    expect_worker_panicked(result, "coordinator");
}

#[test]
fn panic_during_churn_still_surfaces_as_typed_error() {
    // A worker panic and injected faults in the same run: the typed error
    // must still win over a hang, whichever lands first.
    let m = 20_000u64;
    let protocols = vec![SitePanicProtocol { limit: 1_000 }; N_COUNTERS];
    let result = run_cluster(
        &protocols,
        &ClusterConfig::new(3, 4).with_chunk(16).with_faults(SiteFault::schedule(3, m, 2, 4)),
        chunk_events(events(m), 16),
        map_event,
    );
    expect_worker_panicked(result, "site ");
}
