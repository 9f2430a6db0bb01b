//! The strawman exact counter (§IV-A): every arrival is forwarded to the
//! coordinator, giving an exact count at a communication cost linear in the
//! stream length (Lemma 5).

use crate::msg::{DownMsg, UpMsg};
use crate::protocol::CounterProtocol;
use rand::Rng;

/// Exact distributed counter protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactProtocol;

/// Site state: the local count (kept only for auditing).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSite {
    local: u64,
}

/// Coordinator state: the exact count, attributed per site so a site crash
/// can forget exactly the crashed site's (wiped) contribution. The global
/// estimate is the sum — an integer-exact fold, so attribution changes
/// nothing on the no-fault path.
#[derive(Debug, Clone, Default)]
pub struct ExactCoord {
    per_site: Vec<u64>,
}

impl CounterProtocol for ExactProtocol {
    type Site = ExactSite;
    type Coord = ExactCoord;

    fn new_site(&self) -> ExactSite {
        ExactSite::default()
    }

    fn new_coord(&self, k: usize) -> ExactCoord {
        ExactCoord { per_site: vec![0; k] }
    }

    #[inline]
    fn increment<R: Rng + ?Sized>(&self, site: &mut ExactSite, _rng: &mut R) -> Option<UpMsg> {
        site.local += 1;
        Some(UpMsg::Increment)
    }

    fn handle_down<R: Rng + ?Sized>(
        &self,
        _site: &mut ExactSite,
        _msg: DownMsg,
        _rng: &mut R,
    ) -> Option<UpMsg> {
        None // the exact protocol never broadcasts
    }

    #[inline]
    fn accepts(&self, msg: &UpMsg) -> bool {
        matches!(msg, UpMsg::Increment)
    }

    fn handle_up(&self, coord: &mut ExactCoord, site_id: usize, msg: UpMsg) -> Option<DownMsg> {
        // Only an `Increment` is an arrival; a kind `accepts` refuses is
        // ignored.
        if msg == UpMsg::Increment {
            coord.per_site[site_id] += 1;
        }
        None
    }

    #[inline]
    fn estimate(&self, coord: &ExactCoord) -> f64 {
        coord.per_site.iter().sum::<u64>() as f64
    }

    fn site_local_count(&self, site: &ExactSite) -> u64 {
        site.local
    }

    fn site_crashed(&self, coord: &mut ExactCoord, site_id: usize) -> Option<DownMsg> {
        // Fail-stop semantics: the site's unsettled local counts are gone,
        // so the delivered increments they backed are forgotten too — the
        // coordinator's total stays bit-for-bit equal to the surviving
        // sites' exact counts (the reconciliation identity the churn suite
        // pins). Idempotent: the slot is simply zero on a repeat.
        coord.per_site[site_id] = 0;
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
    fn always_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sim = SingleCounterSim::new(ExactProtocol, 7);
        for _ in 0..5000 {
            let s = rng.gen_range(0..7);
            sim.increment(s, &mut rng);
        }
        assert_eq!(sim.estimate(), 5000.0);
        assert_eq!(sim.messages, 5000);
    }

    #[test]
    fn sweep_emits_an_increment_at_every_position() {
        use crate::protocol::sweep;
        let mut rng = StdRng::seed_from_u64(3);
        let protocols = [ExactProtocol; 2];
        let mut block = [ExactSite::default(); 2];
        let ids = [1u32, 0, 1, 1];
        for done in 0..ids.len() {
            let hit = sweep(&protocols, &mut block, &ids[done..], &mut rng);
            assert_eq!(hit, Some((0, UpMsg::Increment)));
        }
        assert_eq!(sweep(&protocols, &mut block, &[], &mut rng), None);
        assert_eq!((block[0].local, block[1].local), (1, 3));
    }

    #[test]
    fn crash_forgets_exactly_the_dead_sites_share() {
        let proto = ExactProtocol;
        let mut coord = proto.new_coord(3);
        for (site, n) in [(0usize, 5u64), (1, 7), (2, 11)] {
            for _ in 0..n {
                assert_eq!(proto.handle_up(&mut coord, site, UpMsg::Increment), None);
            }
        }
        assert_eq!(proto.estimate(&coord), 23.0);
        assert_eq!(proto.site_crashed(&mut coord, 1), None);
        assert_eq!(proto.estimate(&coord), 16.0);
        // Idempotent; no catch-up (a rejoining site counts from 0).
        assert_eq!(proto.site_crashed(&mut coord, 1), None);
        assert_eq!(proto.catch_up(&coord), None);
        assert_eq!(proto.estimate(&coord), 16.0);
        proto.handle_up(&mut coord, 1, UpMsg::Increment);
        assert_eq!(proto.estimate(&coord), 17.0);
    }

    #[test]
    fn only_an_increment_counts() {
        // Debug and release alike: a kind `accepts` refuses neither panics
        // nor counts as an arrival.
        let proto = ExactProtocol;
        let mut coord = proto.new_coord(1);
        let refused = [
            UpMsg::Report { round: 0, value: 9 },
            UpMsg::Cumulative { value: 7 },
            UpMsg::SyncReply { round: 0, value: 5 },
        ];
        for msg in refused {
            assert!(!proto.accepts(&msg));
            assert_eq!(proto.handle_up(&mut coord, 0, msg), None);
        }
        assert_eq!(proto.estimate(&coord), 0.0);
        proto.handle_up(&mut coord, 0, UpMsg::Increment);
        assert_eq!(proto.estimate(&coord), 1.0);
    }

    #[test]
    fn cost_is_linear_in_stream() {
        let mut rng = StdRng::seed_from_u64(2);
        for &m in &[10u64, 100, 1000] {
            let mut sim = SingleCounterSim::new(ExactProtocol, 3);
            for i in 0..m {
                sim.increment((i % 3) as usize, &mut rng);
            }
            assert_eq!(sim.messages, m);
        }
    }
}
