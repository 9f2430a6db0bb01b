//! Deterministic threshold counter (Keralapura, Cormode & Ramamirtham,
//! SIGMOD 2006 — reference \[22\] of the paper).
//!
//! Each site reports its cumulative local count whenever it has grown by a
//! factor `(1 + eps)` since the last report. The coordinator sums the last
//! reports; each site's unreported remainder is at most `eps` times its
//! local count, so the estimate satisfies
//! `(1 - eps) * C <= estimate <= C`.
//!
//! Per-site message cost is `O(1/eps + log_{1+eps} T)`, so the total cost is
//! `O(k * log T / eps)` — worse than the randomized HYZ counter's
//! `O(sqrt(k)/eps * log T)` for large `k`. The protocol exists here as the
//! deterministic ablation baseline (`exp_ablation_counters`).

use crate::msg::{DownMsg, UpMsg};
use crate::protocol::CounterProtocol;
use rand::Rng;

/// Deterministic `(1+eps)`-threshold counter protocol.
#[derive(Debug, Clone, Copy)]
pub struct DeterministicProtocol {
    eps: f64,
}

impl DeterministicProtocol {
    /// `eps` is the per-counter relative error; must be in `(0, 1)`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        DeterministicProtocol { eps }
    }

    /// The protocol's relative error parameter.
    pub fn eps(&self) -> f64 {
        self.eps
    }
}

/// Site state.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetSite {
    local: u64,
    reported: u64,
}

/// Coordinator state.
#[derive(Debug, Clone)]
pub struct DetCoord {
    last: Vec<u64>,
    sum: u64,
}

impl CounterProtocol for DeterministicProtocol {
    type Site = DetSite;
    type Coord = DetCoord;

    fn new_site(&self) -> DetSite {
        DetSite::default()
    }

    fn new_coord(&self, k: usize) -> DetCoord {
        DetCoord { last: vec![0; k], sum: 0 }
    }

    #[inline]
    fn increment<R: Rng + ?Sized>(&self, site: &mut DetSite, _rng: &mut R) -> Option<UpMsg> {
        site.local += 1;
        let threshold = (site.reported as f64 * (1.0 + self.eps)).floor() as u64;
        if site.local > threshold.max(site.reported) {
            site.reported = site.local;
            Some(UpMsg::Cumulative { value: site.local })
        } else {
            None
        }
    }

    fn handle_down<R: Rng + ?Sized>(
        &self,
        _site: &mut DetSite,
        _msg: DownMsg,
        _rng: &mut R,
    ) -> Option<UpMsg> {
        None // never broadcasts
    }

    #[inline]
    fn accepts(&self, msg: &UpMsg) -> bool {
        matches!(msg, UpMsg::Cumulative { .. })
    }

    fn handle_up(&self, coord: &mut DetCoord, site_id: usize, msg: UpMsg) -> Option<DownMsg> {
        // Reports are monotone per site; out-of-order delivery in the
        // cluster runtime is handled by ignoring regressions. A kind
        // `accepts` refuses is ignored.
        if let UpMsg::Cumulative { value } = msg {
            if value > coord.last[site_id] {
                coord.sum += value - coord.last[site_id];
                coord.last[site_id] = value;
            }
        }
        None
    }

    #[inline]
    fn estimate(&self, coord: &DetCoord) -> f64 {
        coord.sum as f64
    }

    fn site_local_count(&self, site: &DetSite) -> u64 {
        site.local
    }

    fn site_crashed(&self, coord: &mut DetCoord, site_id: usize) -> Option<DownMsg> {
        // Forget the crashed site's last cumulative report (its counts are
        // wiped site-side). Zeroing `last` also re-arms the monotonicity
        // guard: after a rejoin the site's fresh cumulative reports start
        // small again and must not read as regressions.
        coord.sum -= coord.last[site_id];
        coord.last[site_id] = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SingleCounterSim;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "eps must be in (0,1)")]
    fn rejects_bad_eps() {
        let _ = DeterministicProtocol::new(1.5);
    }

    #[test]
    fn estimate_within_relative_error() {
        let mut rng = StdRng::seed_from_u64(3);
        let eps = 0.1;
        let mut sim = SingleCounterSim::new(DeterministicProtocol::new(eps), 5);
        for _ in 0..20_000u64 {
            let s = rng.gen_range(0..5);
            sim.increment(s, &mut rng);
            let c = sim.exact_total() as f64;
            let est = sim.estimate();
            assert!(est <= c + 1e-9, "over-estimate {est} > {c}");
            assert!(est >= (1.0 - eps) * c - 1e-9, "under-estimate {est} < (1-eps){c}");
        }
    }

    #[test]
    fn cost_is_logarithmic_per_site() {
        let mut rng = StdRng::seed_from_u64(4);
        let eps = 0.1;
        let k = 4;
        let mut sim = SingleCounterSim::new(DeterministicProtocol::new(eps), k);
        let m = 100_000u64;
        for i in 0..m {
            sim.increment((i % k as u64) as usize, &mut rng);
        }
        // Per site: ~1/eps early reports + log_{1+eps}(m/k) threshold hits.
        let per_site = 1.0 / eps + ((m / k as u64) as f64).ln() / (1.0 + eps).ln();
        let bound = (k as f64) * per_site * 1.5 + 10.0;
        assert!((sim.messages as f64) < bound, "messages {} exceed bound {bound}", sim.messages);
        // And it must be much less than the exact counter's m messages.
        assert!(sim.messages < m / 50);
    }

    #[test]
    fn single_site_degenerate_case() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = SingleCounterSim::new(DeterministicProtocol::new(0.5), 1);
        for _ in 0..1000 {
            sim.increment(0, &mut rng);
        }
        let c = sim.exact_total() as f64;
        assert!(sim.estimate() >= 0.5 * c && sim.estimate() <= c);
    }

    #[test]
    fn crash_forgets_last_report_and_rearms_guard() {
        let proto = DeterministicProtocol::new(0.2);
        let mut coord = proto.new_coord(2);
        proto.handle_up(&mut coord, 0, UpMsg::Cumulative { value: 100 });
        proto.handle_up(&mut coord, 1, UpMsg::Cumulative { value: 40 });
        assert_eq!(proto.estimate(&coord), 140.0);
        assert_eq!(proto.site_crashed(&mut coord, 1), None);
        assert_eq!(proto.estimate(&coord), 100.0);
        // Post-rejoin the fresh site reports small cumulative values; the
        // zeroed guard accepts them instead of treating them as stale.
        assert_eq!(proto.catch_up(&coord), None);
        proto.handle_up(&mut coord, 1, UpMsg::Cumulative { value: 3 });
        assert_eq!(proto.estimate(&coord), 103.0);
    }

    #[test]
    fn a_last_cumulative_supersedes_the_earlier_ones() {
        // What the cluster's supersede rule relies on: the coordinator keeps
        // a site's largest cumulative count, so sending only the last of
        // `c1 < … < cn` leaves it in the same state, bit for bit.
        let proto = DeterministicProtocol::new(0.2);
        let cumulative = |value| UpMsg::Cumulative { value };
        let mut every = proto.new_coord(3);
        for (site, value) in [(0, 10), (1, 5), (0, 11), (0, 13), (0, 20)] {
            assert_eq!(proto.handle_up(&mut every, site, cumulative(value)), None);
        }
        let mut last = proto.new_coord(3);
        for (site, value) in [(1, 5), (0, 20)] {
            assert_eq!(proto.handle_up(&mut last, site, cumulative(value)), None);
        }
        assert_eq!(proto.estimate(&every).to_bits(), proto.estimate(&last).to_bits());
        assert_eq!((every.last, every.sum), (last.last, last.sum));
    }

    #[test]
    fn a_kind_it_does_not_accept_is_ignored() {
        // Debug and release alike: no panic, no state change.
        let proto = DeterministicProtocol::new(0.2);
        let mut coord = proto.new_coord(2);
        proto.handle_up(&mut coord, 0, UpMsg::Cumulative { value: 10 });
        let refused = [
            UpMsg::Increment,
            UpMsg::Report { round: 0, value: 9 },
            UpMsg::SyncReply { round: 0, value: 50 },
        ];
        for msg in refused {
            assert!(!proto.accepts(&msg));
            assert_eq!(proto.handle_up(&mut coord, 0, msg), None);
        }
        assert_eq!((coord.last, coord.sum), (vec![10, 0], 10));
    }

    #[test]
    fn stale_regression_ignored() {
        let proto = DeterministicProtocol::new(0.2);
        let mut coord = proto.new_coord(2);
        proto.handle_up(&mut coord, 0, UpMsg::Cumulative { value: 10 });
        proto.handle_up(&mut coord, 0, UpMsg::Cumulative { value: 7 }); // stale
        assert_eq!(proto.estimate(&coord), 10.0);
        proto.handle_up(&mut coord, 1, UpMsg::Cumulative { value: 5 });
        assert_eq!(proto.estimate(&coord), 15.0);
    }
}
