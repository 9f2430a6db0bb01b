//! Randomized distributed counter of Huang, Yi & Zhang (PODS 2012) — the
//! `DistCounter(eps, delta)` primitive of Lemma 4.
//!
//! ## Protocol
//!
//! Execution proceeds in *rounds*. At the start of round `r` the coordinator
//! knows the exact global count `S0` (collected by a sync). Within the
//! round, each site reports its number of arrivals since the sync, sending
//! a report on each arrival independently with probability
//! `p = min(1, sqrt(k) / (eps * S0))`.
//!
//! The coordinator estimates each site's within-round arrivals with
//! `r_i + 1/p - 1` where `r_i` is the last reported value (`0` when no
//! report was received) — an estimator that is *exactly unbiased*: if the
//! site saw `c` arrivals, the last report happened at arrival `t` with
//! probability `p(1-p)^{c-t}`, and
//! `sum_t p(1-p)^{c-t} (t + 1/p - 1) = c`.
//! The estimator's variance is at most `(1-p)/p^2 < 1/p^2` per site, so the
//! global estimate `S0 + sum_i (r_i + 1/p - 1)` has variance at most
//! `k/p^2 <= (eps * S0)^2 <= (eps * C)^2` — exactly the `Var[A] <= (eps C)^2`
//! guarantee of Lemma 4.
//!
//! When the estimate reaches `2 * S0` the coordinator closes the round: it
//! broadcasts a `SyncRequest`, sites answer with their exact cumulative
//! counts, and the coordinator opens the next round with the new `S0` and
//! `p`. Messages are tagged with round numbers so stale reports from an
//! asynchronous network are discarded rather than corrupting the estimate.
//!
//! Expected messages per round: `p * S0 ~ sqrt(k)/eps` reports plus `3k` for
//! the sync/new-round exchange, over `log2 T` rounds — the
//! `O((sqrt(k)/eps + k) log T)` of Lemma 4.
//!
//! ## Implementation notes
//!
//! Sites draw the *gap to the next report* from a geometric distribution
//! (`1 + floor(ln U / ln(1-p))`) instead of flipping a coin per arrival, so
//! an increment is branch-plus-decrement in the common case. Between a
//! site's `SyncReply` and the corresponding `NewRound` the site is *muted*
//! (it counts arrivals but does not report); arrival counts accumulated
//! while muted are carried into the next round's reports, so nothing is
//! lost under asynchronous delivery.
//!
//! The coordinator keeps the round's sums in integers: each site's last
//! report `r_i` (a `u64`), their sum, and the number `n` of sites that
//! reported, so the estimate is `(S0 + sum_i r_i) + n (1/p - 1)` — the
//! estimator above, unchanged; only its arithmetic left a running f64
//! sum. It depends only on each site's last report, never on the order or
//! number of earlier ones, so a runtime that ships a site's last report
//! alone (the cluster's supersede rule) leaves the coordinator
//! bit-identical at every `p`.

use crate::msg::{DownMsg, UpMsg};
use crate::protocol::CounterProtocol;
use rand::Rng;

/// The randomized HYZ counter protocol.
#[derive(Debug, Clone, Copy)]
pub struct HyzProtocol {
    eps: f64,
}

impl HyzProtocol {
    /// `eps` is the relative standard-deviation target of Lemma 4
    /// (`Var[A] <= (eps C)^2`). Must be in `(0, 1)`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        HyzProtocol { eps }
    }

    /// The error parameter.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    fn sampling_probability(&self, k: usize, s0: u64) -> f64 {
        if s0 == 0 {
            return 1.0;
        }
        ((k as f64).sqrt() / (self.eps * s0 as f64)).min(1.0)
    }
}

/// Draw the arrival gap until the next report: `1 + Geometric(p)` failures,
/// parameterized by `ln(1 - p)` — constant within a round and cached in
/// [`HyzSite`], so the gap draw on the increment hot path costs one `ln`
/// and one division instead of two `ln`s.
///
/// `ln_1mp < 0` for every `p` a coordinator sends: `sampling_probability`
/// is at least `1 / s0`, and `1 - p` rounds below 1 while `s0 < 2^54`. A
/// `NewRound` off the wire may carry any `p`; one `<= 2^-54` or NaN makes
/// `ln_1mp` `>= 0` or NaN, the saturating cast below yields 0, and the gap
/// is 1 — every arrival reports, as at `p = 1` — in every profile.
fn draw_gap<R: Rng + ?Sized>(rng: &mut R, ln_1mp: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let g = (u.ln() / ln_1mp).floor();
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        1 + g as u64
    }
}

/// Per-site state.
#[derive(Debug, Clone, Copy)]
pub struct HyzSite {
    /// Exact local arrival count since the counter was created.
    cumulative: u64,
    /// Arrivals since this site's last sync reply.
    in_round: u64,
    /// Round this site believes is current.
    round: u32,
    /// Current sampling probability.
    p: f64,
    /// `ln(1 - p)`, cached when `p` is set: every report and every
    /// round-resample draws a geometric gap from it, and `p` only changes
    /// on `NewRound` — so the log is paid once per round per site instead
    /// of once per draw. Meaningful only while `p < 1`.
    ln_1mp: f64,
    /// Arrivals remaining until the next report (valid when `p < 1`).
    skip: u64,
    /// Muted between `SyncReply` and `NewRound`.
    muted: bool,
}

/// Coordinator state.
#[derive(Debug, Clone)]
pub struct HyzCoord {
    k: usize,
    round: u32,
    p: f64,
    /// `1/p - 1`, cached when the round opens: the per-report estimator
    /// correction sits on the UPDATE hot path (one per received report),
    /// and `p` is constant within a round, so the division is paid once
    /// per round instead of once per message.
    correction: f64,
    /// Exact global count at the last sync.
    s0: u64,
    /// Per-site last report `r_i` this round; 0 when none came (a report
    /// carries at least one arrival).
    last: Vec<u64>,
    /// `last.iter().sum()`, modulo 2^64: exact whenever the true sum fits,
    /// and a forged report near `u64::MAX` neither panics in debug nor
    /// outlives the report that supersedes it.
    last_sum: u64,
    /// Sites with a report this round: `last` entries that are nonzero.
    n_reported: usize,
    /// `(s0 + last_sum) + n_reported · correction`, recomputed whenever a
    /// term changes: a simulator query reads every counter it touches
    /// live, so a read must cost one load, not two conversions and a
    /// multiply.
    estimate: f64,
    /// Close the round when the estimate reaches this.
    threshold: f64,
    /// A sync is in flight.
    syncing: bool,
    replied: Vec<bool>,
    /// Per-site cumulative count at the last completed sync (the site's
    /// *anchor* inside `s0`): `s0 == synced.iter().sum()` after every sync.
    /// Kept per site — rather than as one running accumulator — so a site
    /// crash can subtract exactly that site's share; the `u64` sum is
    /// order-independent, so the no-fault path is bit-identical.
    synced: Vec<u64>,
    n_replies: usize,
}

impl HyzCoord {
    /// Current round number (diagnostics).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Current sampling probability (diagnostics).
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl HyzProtocol {
    /// Close the in-flight sync and open the next round. Shared by the
    /// quorum-completing `SyncReply` and by a crash that removes the last
    /// outstanding site from the quorum.
    fn open_next_round(&self, coord: &mut HyzCoord) -> DownMsg {
        coord.s0 = coord.synced.iter().sum();
        coord.round += 1;
        coord.p = self.sampling_probability(coord.k, coord.s0);
        coord.correction = 1.0 / coord.p - 1.0;
        coord.threshold = 2.0 * coord.s0 as f64;
        coord.last.fill(0);
        coord.last_sum = 0;
        coord.n_reported = 0;
        coord.syncing = false;
        Self::refresh(coord);
        DownMsg::NewRound { round: coord.round, p: coord.p }
    }

    /// Make `value` site `site_id`'s last report of the round (0: none).
    fn set_last(coord: &mut HyzCoord, site_id: usize, value: u64) {
        let prev = std::mem::replace(&mut coord.last[site_id], value);
        coord.last_sum = coord.last_sum.wrapping_sub(prev).wrapping_add(value);
        coord.n_reported = coord.n_reported + usize::from(value > 0) - usize::from(prev > 0);
        Self::refresh(coord);
    }

    /// Recompute the stored estimate from the integer sums.
    fn refresh(coord: &mut HyzCoord) {
        coord.estimate = coord.s0.wrapping_add(coord.last_sum) as f64
            + coord.n_reported as f64 * coord.correction;
    }
}

impl CounterProtocol for HyzProtocol {
    type Site = HyzSite;
    type Coord = HyzCoord;

    fn new_site(&self) -> HyzSite {
        HyzSite {
            cumulative: 0,
            in_round: 0,
            round: 0,
            p: 1.0,
            ln_1mp: f64::NEG_INFINITY,
            skip: 0,
            muted: false,
        }
    }

    fn new_coord(&self, k: usize) -> HyzCoord {
        assert!(k > 0);
        let t0 = ((k as f64).sqrt() / self.eps).max(2.0);
        HyzCoord {
            k,
            round: 0,
            p: 1.0,
            correction: 0.0,
            s0: 0,
            last: vec![0; k],
            last_sum: 0,
            n_reported: 0,
            estimate: 0.0,
            threshold: t0,
            syncing: false,
            replied: vec![false; k],
            synced: vec![0; k],
            n_replies: 0,
        }
    }

    #[inline]
    fn increment<R: Rng + ?Sized>(&self, site: &mut HyzSite, rng: &mut R) -> Option<UpMsg> {
        site.cumulative += 1;
        site.in_round += 1;
        if site.muted {
            return None;
        }
        if site.p >= 1.0 {
            return Some(UpMsg::Report { round: site.round, value: site.in_round });
        }
        if site.skip > 1 {
            site.skip -= 1;
            return None;
        }
        site.skip = draw_gap(rng, site.ln_1mp);
        Some(UpMsg::Report { round: site.round, value: site.in_round })
    }

    fn handle_down<R: Rng + ?Sized>(
        &self,
        site: &mut HyzSite,
        msg: DownMsg,
        rng: &mut R,
    ) -> Option<UpMsg> {
        match msg {
            DownMsg::SyncRequest { round } => {
                if round != site.round || site.muted {
                    return None; // stale or duplicate
                }
                site.muted = true;
                site.in_round = 0;
                Some(UpMsg::SyncReply { round, value: site.cumulative })
            }
            DownMsg::NewRound { round, p } => {
                if round <= site.round {
                    return None; // stale
                }
                site.round = round;
                site.p = p;
                site.ln_1mp = (1.0 - p).ln();
                site.muted = false;
                // `in_round` is NOT reset here: it already counts arrivals
                // since the sync reply, which belong to the new round. Under
                // asynchronous delivery the mute window can span many
                // arrivals, and if the stream ends before the next local
                // arrival they would never trigger a report — leaving the
                // coordinator short by the whole window, arbitrarily far
                // outside the Lemma 4 band. Replay the pending arrivals
                // through the same per-arrival sampling filter now (lazily,
                // so the estimator stays exactly unbiased) and emit the
                // report the replay would have sent last.
                let pending = site.in_round;
                if p >= 1.0 {
                    return if pending > 0 {
                        Some(UpMsg::Report { round, value: pending })
                    } else {
                        None
                    };
                }
                let mut pos = 0u64;
                let mut last_report_at = 0u64;
                loop {
                    let gap = draw_gap(rng, site.ln_1mp);
                    if gap > pending - pos {
                        site.skip = gap - (pending - pos);
                        break;
                    }
                    pos += gap;
                    last_report_at = pos;
                }
                if last_report_at > 0 {
                    Some(UpMsg::Report { round, value: last_report_at })
                } else {
                    None
                }
            }
        }
    }

    #[inline]
    fn accepts(&self, msg: &UpMsg) -> bool {
        matches!(msg, UpMsg::Report { .. } | UpMsg::SyncReply { .. })
    }

    fn handle_up(&self, coord: &mut HyzCoord, site_id: usize, msg: UpMsg) -> Option<DownMsg> {
        match msg {
            UpMsg::Report { round, value } => {
                if coord.syncing || round != coord.round {
                    return None; // stale
                }
                Self::set_last(coord, site_id, value);
                if coord.estimate >= coord.threshold {
                    coord.syncing = true;
                    coord.n_replies = 0;
                    coord.replied.fill(false);
                    return Some(DownMsg::SyncRequest { round: coord.round });
                }
                None
            }
            UpMsg::SyncReply { round, value } => {
                if !coord.syncing || round != coord.round || coord.replied[site_id] {
                    return None;
                }
                coord.replied[site_id] = true;
                coord.synced[site_id] = value;
                coord.n_replies += 1;
                if coord.n_replies < coord.k {
                    return None;
                }
                // All live sites answered: open the next round.
                Some(self.open_next_round(coord))
            }
            // A kind `accepts` refuses: ignored.
            UpMsg::Increment | UpMsg::Cumulative { .. } => None,
        }
    }

    #[inline]
    fn estimate(&self, coord: &HyzCoord) -> f64 {
        coord.estimate
    }

    fn site_local_count(&self, site: &HyzSite) -> u64 {
        site.cumulative
    }

    fn site_crashed(&self, coord: &mut HyzCoord, site_id: usize) -> Option<DownMsg> {
        if !coord.syncing {
            // `s0 == synced.iter().sum()` since the last sync: subtract
            // exactly this site's anchor so `s0` becomes the survivors'
            // exact count at that sync. The threshold and `p` keep their
            // round-start values — the round simply closes later relative
            // to the shrunken base (the quantified degradation under
            // churn; see the monitor crate's DESIGN.md §8).
            coord.s0 = coord.s0.saturating_sub(coord.synced[site_id]);
        }
        // Drop the site's anchor (from `s0` above, or from the round base
        // being collected) and forget its within-round contribution: its
        // unreported arrivals were never at the coordinator and its
        // reported ones are wiped site-side, so the estimate must track
        // the survivors.
        coord.synced[site_id] = 0;
        Self::set_last(coord, site_id, 0);
        if coord.syncing && !coord.replied[site_id] {
            coord.replied[site_id] = true;
            coord.n_replies += 1;
            if coord.n_replies == coord.k {
                // The crash removed the last outstanding reply: the sync
                // completes over the survivors instead of wedging.
                return Some(self.open_next_round(coord));
            }
        }
        None
    }

    fn catch_up(&self, coord: &HyzCoord) -> Option<DownMsg> {
        // A fresh site starts at round 0 with p = 1: past round 0 it needs
        // the open round so its reports carry the live tag and the next
        // `SyncRequest` is not stale at it.
        (coord.round > 0).then_some(DownMsg::NewRound { round: coord.round, p: coord.p })
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
        let _ = HyzProtocol::new(0.0);
    }

    #[test]
    fn exact_below_first_threshold() {
        // While p == 1 every arrival is reported: the estimate is exact.
        let eps = 0.1;
        let k = 4;
        let mut sim = SingleCounterSim::new(HyzProtocol::new(eps), k);
        let mut rng = StdRng::seed_from_u64(1);
        let t0 = (k as f64).sqrt() / eps; // 20
        for i in 0..(t0 as u64 - 1) {
            sim.increment((i % k as u64) as usize, &mut rng);
            assert_eq!(sim.estimate(), sim.exact_total() as f64);
        }
    }

    #[test]
    fn unbiased_over_trials() {
        let eps = 0.2;
        let k = 5;
        let c: u64 = 5_000;
        let trials = 300;
        let mut sum = 0.0;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..trials {
            let mut sim = SingleCounterSim::new(HyzProtocol::new(eps), k);
            for _ in 0..c {
                let s = rng.gen_range(0..k);
                sim.increment(s, &mut rng);
            }
            assert_eq!(sim.exact_total(), c);
            sum += sim.estimate();
        }
        let mean = sum / trials as f64;
        // Standard error of the mean <= eps*C/sqrt(trials) ~ 58; allow 4x.
        let tol = 4.0 * eps * c as f64 / (trials as f64).sqrt();
        assert!((mean - c as f64).abs() < tol, "mean {mean} deviates from {c} by more than {tol}");
    }

    #[test]
    fn variance_within_lemma4_bound() {
        let eps = 0.2;
        let k = 5;
        let c: u64 = 4_000;
        let trials = 300;
        let mut rng = StdRng::seed_from_u64(7);
        let mut sq = 0.0;
        for _ in 0..trials {
            let mut sim = SingleCounterSim::new(HyzProtocol::new(eps), k);
            for _ in 0..c {
                let s = rng.gen_range(0..k);
                sim.increment(s, &mut rng);
            }
            let d = sim.estimate() - c as f64;
            sq += d * d;
        }
        let var = sq / trials as f64;
        let bound = (eps * c as f64).powi(2);
        // Sampling noise on a variance estimate over 300 trials is ~±16%;
        // allow a 1.5x margin.
        assert!(var <= 1.5 * bound, "empirical var {var} exceeds bound {bound}");
    }

    #[test]
    fn communication_is_sublinear() {
        let eps = 0.1;
        let k = 10;
        let mut rng = StdRng::seed_from_u64(3);
        let mut sim = SingleCounterSim::new(HyzProtocol::new(eps), k);
        let m: u64 = 200_000;
        let mut at_half = 0;
        for i in 0..m {
            if i == m / 2 {
                at_half = sim.messages;
            }
            let s = rng.gen_range(0..k);
            sim.increment(s, &mut rng);
        }
        // Far fewer messages than the exact counter's m.
        assert!(sim.messages < m / 10, "messages {} not sublinear", sim.messages);
        // Doubling the stream adds roughly one more round (~sqrt(k)/eps +
        // 3k messages), not a proportional amount.
        let second_half = sim.messages - at_half;
        let round_cost = (k as f64).sqrt() / eps + 3.0 * k as f64;
        assert!(
            (second_half as f64) < 6.0 * round_cost,
            "second half cost {second_half} not logarithmic (round ~{round_cost})"
        );
    }

    #[test]
    fn estimate_tracks_continuously() {
        // At *every* prefix the estimate must stay within a few eps of the
        // truth (Chebyshev at 5 sigma under the Lemma 4 variance bound).
        let eps = 0.1;
        let k = 6;
        let mut rng = StdRng::seed_from_u64(11);
        let mut sim = SingleCounterSim::new(HyzProtocol::new(eps), k);
        for i in 1..=100_000u64 {
            let s = rng.gen_range(0..k);
            sim.increment(s, &mut rng);
            if i % 1000 == 0 {
                let rel = (sim.estimate() - i as f64).abs() / i as f64;
                assert!(rel < 5.0 * eps, "at {i}: relative error {rel}");
            }
        }
    }

    #[test]
    fn stale_report_discarded() {
        let proto = HyzProtocol::new(0.1);
        let mut coord = proto.new_coord(2);
        coord.round = 3;
        coord.p = 0.5;
        let before = proto.estimate(&coord);
        assert_eq!(proto.handle_up(&mut coord, 0, UpMsg::Report { round: 2, value: 10 }), None);
        assert_eq!(proto.estimate(&coord), before);
    }

    #[test]
    fn duplicate_sync_replies_ignored() {
        let proto = HyzProtocol::new(0.1);
        let mut coord = proto.new_coord(3);
        coord.syncing = true;
        assert_eq!(proto.handle_up(&mut coord, 0, UpMsg::SyncReply { round: 0, value: 5 }), None);
        assert_eq!(proto.handle_up(&mut coord, 0, UpMsg::SyncReply { round: 0, value: 5 }), None);
        assert_eq!(coord.n_replies, 1);
        assert_eq!(proto.handle_up(&mut coord, 1, UpMsg::SyncReply { round: 0, value: 5 }), None);
        // Final reply finalizes the round and broadcasts the new p.
        let out = proto.handle_up(&mut coord, 2, UpMsg::SyncReply { round: 0, value: 5 });
        assert!(matches!(out, Some(DownMsg::NewRound { round: 1, .. })));
        assert_eq!(coord.s0, 15);
        assert!(!coord.syncing);
    }

    #[test]
    fn muted_site_keeps_counting() {
        let proto = HyzProtocol::new(0.1);
        let mut site = proto.new_site();
        let mut rng = StdRng::seed_from_u64(1);
        // Two arrivals, then a sync.
        assert!(proto.increment(&mut site, &mut rng).is_some());
        assert!(proto.increment(&mut site, &mut rng).is_some());
        let reply = proto.handle_down(&mut site, DownMsg::SyncRequest { round: 0 }, &mut rng);
        assert_eq!(reply, Some(UpMsg::SyncReply { round: 0, value: 2 }));
        // Muted: arrivals counted but unreported.
        assert_eq!(proto.increment(&mut site, &mut rng), None);
        assert_eq!(proto.site_local_count(&site), 3);
        // New round un-mutes; the arrival that happened while muted is
        // reported immediately (a catch-up report) so it is never stranded
        // if the stream ends here.
        assert_eq!(
            proto.handle_down(&mut site, DownMsg::NewRound { round: 1, p: 1.0 }, &mut rng),
            Some(UpMsg::Report { round: 1, value: 1 })
        );
        let up = proto.increment(&mut site, &mut rng);
        assert_eq!(up, Some(UpMsg::Report { round: 1, value: 2 }));
    }

    #[test]
    fn unmute_replays_muted_arrivals_through_sampler() {
        // A large muted backlog must surface in the next round's reports
        // even with no further arrivals (the end-of-stream case the cluster
        // runtime's quiescence handshake exposes). With sampling, the
        // catch-up report must appear with probability 1 - (1-p)^pending
        // and carry a value <= pending.
        let proto = HyzProtocol::new(0.1);
        let mut rng = StdRng::seed_from_u64(77);
        let pending = 10_000u64;
        let p = 0.01;
        let mut reported = 0u64;
        let trials = 200;
        for _ in 0..trials {
            let mut site = proto.new_site();
            for _ in 0..pending {
                let _ = proto.increment(&mut site, &mut rng);
            }
            let _ = proto.handle_down(&mut site, DownMsg::SyncRequest { round: 0 }, &mut rng);
            // Muted backlog.
            for _ in 0..pending {
                assert_eq!(proto.increment(&mut site, &mut rng), None);
            }
            match proto.handle_down(&mut site, DownMsg::NewRound { round: 1, p }, &mut rng) {
                Some(UpMsg::Report { round: 1, value }) => {
                    assert!(value >= 1 && value <= pending, "value {value}");
                    reported += 1;
                }
                None => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        // 1 - (1-0.01)^10000 ~ 1: essentially every trial must report.
        assert!(reported >= trials - 1, "only {reported}/{trials} caught up");
    }

    #[test]
    fn stale_new_round_ignored_by_site() {
        let proto = HyzProtocol::new(0.1);
        let mut site = proto.new_site();
        let mut rng = StdRng::seed_from_u64(2);
        site.round = 5;
        site.p = 0.25;
        assert_eq!(
            proto.handle_down(&mut site, DownMsg::NewRound { round: 4, p: 1.0 }, &mut rng),
            None
        );
        assert_eq!(site.p, 0.25);
        assert_eq!(site.round, 5);
    }

    #[test]
    fn single_site_works() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sim = SingleCounterSim::new(HyzProtocol::new(0.3), 1);
        for _ in 0..50_000 {
            sim.increment(0, &mut rng);
        }
        let rel = (sim.estimate() - 50_000.0).abs() / 50_000.0;
        assert!(rel < 1.0, "relative error {rel}");
        assert!(sim.messages < 20_000);
    }

    #[test]
    fn skewed_site_distribution_still_tracks() {
        // Paper future-work (1): skew across sites. The counter itself is
        // already robust to skew; verify.
        let eps = 0.1;
        let k = 8;
        let mut rng = StdRng::seed_from_u64(21);
        let mut sim = SingleCounterSim::new(HyzProtocol::new(eps), k);
        let m = 100_000u64;
        for _ in 0..m {
            // 90% of traffic on site 0.
            let s = if rng.gen_bool(0.9) { 0 } else { rng.gen_range(1..k) };
            sim.increment(s, &mut rng);
        }
        let rel = (sim.estimate() - m as f64).abs() / m as f64;
        assert!(rel < 5.0 * eps, "relative error {rel}");
    }

    #[test]
    fn crash_completes_pending_sync_over_survivors() {
        let proto = HyzProtocol::new(0.1);
        let mut coord = proto.new_coord(3);
        coord.syncing = true;
        assert_eq!(proto.handle_up(&mut coord, 0, UpMsg::SyncReply { round: 0, value: 7 }), None);
        assert_eq!(proto.handle_up(&mut coord, 1, UpMsg::SyncReply { round: 0, value: 5 }), None);
        // Site 2 dies with its reply outstanding: the sync must complete
        // over the two survivors instead of wedging forever.
        let out = proto.site_crashed(&mut coord, 2);
        assert!(matches!(out, Some(DownMsg::NewRound { round: 1, .. })), "{out:?}");
        assert_eq!(coord.s0, 12);
        assert!(!coord.syncing);
        // Idempotent.
        assert_eq!(proto.site_crashed(&mut coord, 2), None);
    }

    #[test]
    fn crash_forgets_anchor_and_contribution() {
        let proto = HyzProtocol::new(0.1);
        let mut coord = proto.new_coord(2);
        // Complete a sync so both sites hold anchors inside s0.
        coord.syncing = true;
        let _ = proto.handle_up(&mut coord, 0, UpMsg::SyncReply { round: 0, value: 30 });
        let out = proto.handle_up(&mut coord, 1, UpMsg::SyncReply { round: 0, value: 10 });
        assert!(matches!(out, Some(DownMsg::NewRound { round: 1, .. })));
        assert_eq!(coord.s0, 40);
        // A within-round report from site 1, then its crash: both its
        // anchor and its round contribution must vanish from the estimate.
        let _ = proto.handle_up(&mut coord, 1, UpMsg::Report { round: 1, value: 4 });
        assert!(proto.estimate(&coord) > 40.0);
        assert_eq!(proto.site_crashed(&mut coord, 1), None);
        assert_eq!(coord.s0, 30);
        let est = proto.estimate(&coord);
        // Survivor anchor only, plus site 0's (empty) contribution.
        assert!((est - 30.0).abs() < 1e-9, "estimate {est}");
    }

    /// A `k = 4` coordinator in round 1 with `s0 = 64`: `p = 2 / (0.5 ·
    /// 64) = 1/16`.
    fn coord_at_round_one(proto: &HyzProtocol) -> HyzCoord {
        let mut coord = proto.new_coord(4);
        coord.syncing = true;
        for site in 0..4 {
            let _ = proto.handle_up(&mut coord, site, UpMsg::SyncReply { round: 0, value: 16 });
        }
        assert_eq!((coord.round, coord.p, coord.threshold), (1, 1.0 / 16.0, 128.0));
        coord
    }

    #[test]
    fn a_last_report_supersedes_the_earlier_ones_of_its_round() {
        // What the cluster's supersede rule relies on: the coordinator keeps
        // only a site's last in-round report, so a site that sends only the
        // last of `r1 < … < rn` leaves it in the same state, bit for bit.
        let proto = HyzProtocol::new(0.5);
        let report = |value| UpMsg::Report { round: 1, value };
        let mut every = coord_at_round_one(&proto);
        for (site, value) in [(0, 1), (1, 3), (0, 4), (0, 7), (0, 10)] {
            assert_eq!(proto.handle_up(&mut every, site, report(value)), None);
        }
        let mut last = coord_at_round_one(&proto);
        for (site, value) in [(1, 3), (0, 10)] {
            assert_eq!(proto.handle_up(&mut last, site, report(value)), None);
        }
        assert_eq!(proto.estimate(&every).to_bits(), proto.estimate(&last).to_bits());
        assert_eq!(every.last, last.last);
    }

    #[test]
    fn supersede_is_bit_exact_at_a_non_dyadic_p() {
        // Anchors 17/18/19 put k = 3 in round 1 at s0 = 54, so p =
        // sqrt(3) / (0.3 · 54) and the correction 1/p − 1 are inexact in
        // f64. Over random interleavings of rising per-site reports, the
        // estimate after every report must equal, bit for bit, that of a
        // coordinator fed only each site's last report so far.
        let proto = HyzProtocol::new(0.3);
        let fresh = || {
            let mut coord = proto.new_coord(3);
            coord.syncing = true;
            for (site, value) in [(0, 17), (1, 18), (2, 19)] {
                let _ = proto.handle_up(&mut coord, site, UpMsg::SyncReply { round: 0, value });
            }
            assert_eq!((coord.round, coord.s0, coord.threshold), (1, 54, 108.0));
            coord
        };
        let report = |value| UpMsg::Report { round: 1, value };
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for sequence in 0..2_000 {
            let mut every = fresh();
            let mut latest = [0u64; 3];
            // At most 12 reports rising by 1 or 2: the estimate stays
            // below 54 + 24 + 3 · 8.36 < 108, so no sync opens.
            for _ in 0..rng.gen_range(1..=12) {
                let site = rng.gen_range(0..3);
                latest[site] += rng.gen_range(1..=2u64);
                assert_eq!(proto.handle_up(&mut every, site, report(latest[site])), None);
                let mut last = fresh();
                for (site, &value) in latest.iter().enumerate().filter(|(_, &v)| v > 0) {
                    assert_eq!(proto.handle_up(&mut last, site, report(value)), None);
                }
                assert_eq!(
                    proto.estimate(&every).to_bits(),
                    proto.estimate(&last).to_bits(),
                    "sequence {sequence}, latest {latest:?}"
                );
            }
        }
    }

    #[test]
    fn catch_up_fast_forwards_a_fresh_site() {
        let proto = HyzProtocol::new(0.5);
        // Round 0: a fresh site is already there.
        assert_eq!(proto.catch_up(&proto.new_coord(4)), None);
        let coord = coord_at_round_one(&proto);
        let catch_up = proto.catch_up(&coord);
        assert_eq!(catch_up, Some(DownMsg::NewRound { round: 1, p: 1.0 / 16.0 }));
        // A fresh site adopts the round (nothing pending to replay) and
        // answers that round's sync.
        let mut rng = StdRng::seed_from_u64(4);
        let mut site = proto.new_site();
        assert_eq!(proto.handle_down(&mut site, catch_up.unwrap(), &mut rng), None);
        assert_eq!((site.round, site.p), (1, 1.0 / 16.0));
        assert_eq!(
            proto.handle_down(&mut site, DownMsg::SyncRequest { round: 1 }, &mut rng),
            Some(UpMsg::SyncReply { round: 1, value: 0 })
        );
    }

    #[test]
    fn a_kind_it_does_not_accept_is_ignored() {
        // Debug and release alike: no panic, no state change.
        let proto = HyzProtocol::new(0.5);
        let mut coord = coord_at_round_one(&proto);
        let _ = proto.handle_up(&mut coord, 1, UpMsg::Report { round: 1, value: 3 });
        let before = proto.estimate(&coord);
        for msg in [UpMsg::Increment, UpMsg::Cumulative { value: 1_000 }] {
            assert!(!proto.accepts(&msg));
            assert_eq!(proto.handle_up(&mut coord, 0, msg), None);
        }
        assert_eq!(proto.estimate(&coord).to_bits(), before.to_bits());
        assert_eq!(coord.last, vec![0, 3, 0, 0]);
    }

    #[test]
    fn a_forged_report_near_u64_max_does_not_outlive_its_successor() {
        // Wire-valid bytes can carry any value. The integer sums wrap
        // instead of panicking in debug, and the next report supersedes
        // the forged one exactly.
        let proto = HyzProtocol::new(0.5);
        let mut clean = coord_at_round_one(&proto);
        let mut forged = coord_at_round_one(&proto);
        let _ = proto.handle_up(&mut forged, 0, UpMsg::Report { round: 1, value: u64::MAX });
        for coord in [&mut clean, &mut forged] {
            assert_eq!(proto.handle_up(coord, 0, UpMsg::Report { round: 1, value: 5 }), None);
        }
        assert_eq!(proto.estimate(&forged).to_bits(), proto.estimate(&clean).to_bits());
        assert_eq!(proto.estimate(&clean), 64.0 + 5.0 + 15.0);
    }

    #[test]
    fn a_site_sent_an_unreachable_p_reports_every_arrival() {
        // A `NewRound` off the wire can carry any f64. Where `ln(1 − p)`
        // is not negative the gap is 1 in debug and release alike.
        let proto = HyzProtocol::new(0.5);
        let mut rng = StdRng::seed_from_u64(8);
        for p in [0.0, -0.5, f64::NAN, 2f64.powi(-60)] {
            let mut site = proto.new_site();
            assert_eq!(
                proto.handle_down(&mut site, DownMsg::NewRound { round: 1, p }, &mut rng),
                None
            );
            for value in 1..=5 {
                let up = proto.increment(&mut site, &mut rng);
                assert_eq!(up, Some(UpMsg::Report { round: 1, value }), "p = {p}");
            }
        }
    }

    #[test]
    fn a_superseded_crossing_opens_the_same_sync() {
        // Site 0's report of 31 crosses the threshold (64 + 18 + 46 = 128);
        // the sequential path opens the sync there and drops the 40 as
        // stale, the superseding path opens it on the 40. Same request, and
        // once the sync completes the two coordinators agree bit for bit.
        let proto = HyzProtocol::new(0.5);
        let report = |value| UpMsg::Report { round: 1, value };
        let sync = Some(DownMsg::SyncRequest { round: 1 });
        let mut every = coord_at_round_one(&proto);
        let _ = proto.handle_up(&mut every, 1, report(3));
        assert_eq!(proto.handle_up(&mut every, 0, report(10)), None);
        assert_eq!(proto.handle_up(&mut every, 0, report(31)), sync);
        assert_eq!(proto.handle_up(&mut every, 0, report(40)), None);
        let mut last = coord_at_round_one(&proto);
        let _ = proto.handle_up(&mut last, 1, report(3));
        assert_eq!(proto.handle_up(&mut last, 0, report(40)), sync);
        let mut opened = Vec::new();
        for coord in [&mut every, &mut last] {
            for (site, value) in [(0, 60), (1, 20), (2, 16), (3, 16)] {
                if let Some(down) =
                    proto.handle_up(coord, site, UpMsg::SyncReply { round: 1, value })
                {
                    opened.push(down);
                }
            }
        }
        assert_eq!(opened, vec![DownMsg::NewRound { round: 2, p: 2.0 / (0.5 * 112.0) }; 2]);
        assert_eq!(proto.estimate(&every).to_bits(), proto.estimate(&last).to_bits());
    }

    #[test]
    fn gap_distribution_is_geometric() {
        let mut rng = StdRng::seed_from_u64(5);
        let p: f64 = 0.25;
        let ln_1mp = (1.0 - p).ln();
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let g = draw_gap(&mut rng, ln_1mp);
            assert!(g >= 1);
            sum += g as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0 / p).abs() < 0.05, "mean gap {mean} vs {}", 1.0 / p);
    }
}
