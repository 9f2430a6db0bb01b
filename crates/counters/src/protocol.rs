//! The distributed counter protocol abstraction.
//!
//! A *distributed counter* tracks the total number of events observed across
//! `k` sites, with the current estimate held at a coordinator. Protocols are
//! written as pure state machines — site state, coordinator state, and the
//! messages of [`crate::msg`] — so the same protocol code runs under the
//! synchronous simulator and the asynchronous threaded cluster runtime in
//! `dsbn-monitor`.

use crate::msg::{DownMsg, UpMsg};
use rand::Rng;

/// A distributed counting protocol as a pair of state machines.
///
/// Contract expected by the runtimes:
/// - [`increment`](Self::increment) is called on a site for each local
///   arrival and may emit one up message.
/// - Every emitted [`UpMsg`] is eventually delivered to the coordinator via
///   [`handle_up`](Self::handle_up), which may emit a broadcast.
/// - Every broadcast is delivered to *all* sites via
///   [`handle_down`](Self::handle_down), each of which may reply.
/// - [`estimate`](Self::estimate) may be read at any time.
pub trait CounterProtocol {
    /// Per-site state.
    type Site;
    /// Coordinator state.
    type Coord;

    /// Fresh site state.
    fn new_site(&self) -> Self::Site;

    /// Fresh coordinator state for `k` sites.
    fn new_coord(&self, k: usize) -> Self::Coord;

    /// Record one arrival at a site; optionally emit an up message.
    fn increment<R: Rng + ?Sized>(&self, site: &mut Self::Site, rng: &mut R) -> Option<UpMsg>;

    /// Deliver a broadcast to a site; optionally emit a reply.
    fn handle_down<R: Rng + ?Sized>(
        &self,
        site: &mut Self::Site,
        msg: DownMsg,
        rng: &mut R,
    ) -> Option<UpMsg>;

    /// Deliver an up message from `site_id` to the coordinator; optionally
    /// emit a broadcast. Runtimes deliver only kinds the protocol
    /// [`accepts`](Self::accepts).
    fn handle_up(&self, coord: &mut Self::Coord, site_id: usize, msg: UpMsg) -> Option<DownMsg>;

    /// Whether `msg` is a kind of up message this protocol's sites send —
    /// the kinds [`handle_up`](Self::handle_up) is written for. The cluster
    /// coordinator checks every message it decodes against this and fails
    /// the run on any other kind, since wire-valid bytes from a transport
    /// can carry one. The default takes every kind.
    fn accepts(&self, _msg: &UpMsg) -> bool {
        true
    }

    /// The coordinator's current estimate of the global count.
    fn estimate(&self, coord: &Self::Coord) -> f64;

    /// The exact count a site has seen locally (for tests and sync audits).
    fn site_local_count(&self, site: &Self::Site) -> u64;

    /// A site crashed (fail-stop): all of its unsettled local state is gone
    /// and no further message from it will arrive until it rejoins with
    /// fresh state. The coordinator must *forget* the site's unsettled
    /// contribution so the estimate tracks the surviving counts, and must
    /// stop waiting on the site in any reply quorum — a crash may therefore
    /// complete an in-flight collective step, in which case the completing
    /// broadcast is returned. Must be idempotent: the runtime calls it at
    /// the crash and again after each broadcast while the site stays dead,
    /// which is how a quorum opened by that broadcast learns not to wait on
    /// the site. The default is a no-op for protocols with no per-site
    /// coordinator state and no reply quorums.
    fn site_crashed(&self, _coord: &mut Self::Coord, _site_id: usize) -> Option<DownMsg> {
        None
    }

    /// The broadcast that fast-forwards a site rejoining with *fresh*
    /// state (`new_site`) into the coordinator's current round, or `None`
    /// when a fresh site is already there. The runtime delivers it to the
    /// rejoining site only, ahead of any later broadcast on the same FIFO
    /// link. The default is `None`.
    fn catch_up(&self, _coord: &Self::Coord) -> Option<DownMsg> {
        None
    }
}

/// Export the estimates of a per-counter protocol bank (one instance per
/// counter, as the multi-counter runtimes hold them — the NONUNIFORM
/// scheme gives every counter its own error budget) into a caller-owned
/// slab: `out[c] = protocols[c].estimate(&coords[c])`. The slab export the
/// snapshot-minting layer in `dsbn-monitor` drives: a bounded linear sweep
/// over the flat coordinator state, never a per-query walk.
pub fn snapshot_into<P: CounterProtocol>(protocols: &[P], coords: &[P::Coord], out: &mut [f64]) {
    assert_eq!(protocols.len(), coords.len(), "protocol/coord bank length mismatch");
    assert_eq!(coords.len(), out.len(), "snapshot slab length mismatch");
    for ((o, p), c) in out.iter_mut().zip(protocols).zip(coords) {
        *o = p.estimate(c);
    }
}

/// The site half of UPDATE, over one site's state block (`block[c]` is the
/// site's state for counter `c`, one protocol instance per counter): touch
/// `ids` in order and stop at the first touch that emits, returning its
/// position in `ids` and the message. The caller handles the message out
/// of line and resumes at `ids[pos + 1..]`, so the silent touches — the
/// common case once a counter's report probability has dropped — stay in
/// this one tight loop. Both runtimes in `dsbn-monitor` drive their site
/// state through it, which is what keeps their touch order and RNG draws
/// identical. `#[inline]`: where most touches emit (shallow counters), the
/// caller re-enters once per touch, and an out-of-line call there measured
/// a tenth off the simulator's throughput.
#[inline]
pub fn sweep<P: CounterProtocol, R: Rng + ?Sized>(
    protocols: &[P],
    block: &mut [P::Site],
    ids: &[u32],
    rng: &mut R,
) -> Option<(usize, UpMsg)> {
    for (pos, &id) in ids.iter().enumerate() {
        let c = id as usize;
        if let Some(up) = protocols[c].increment(&mut block[c], rng) {
            return Some((pos, up));
        }
    }
    None
}

/// Settle or wipe one site's state block: `visit(c, count)` every counter
/// whose local count is nonzero, in id order, and leave every state fresh
/// ([`CounterProtocol::new_site`]). An epoch roll visits to settle the
/// counts, a crash visits to write them off.
pub fn drain<P: CounterProtocol>(
    protocols: &[P],
    block: &mut [P::Site],
    mut visit: impl FnMut(usize, u64),
) {
    assert_eq!(protocols.len(), block.len(), "protocol/site block length mismatch");
    for (c, (p, site)) in protocols.iter().zip(block).enumerate() {
        let local = p.site_local_count(site);
        if local > 0 {
            visit(c, local);
        }
        *site = p.new_site();
    }
}

/// A single-counter synchronous test harness: `k` sites and one coordinator
/// with instantaneous message delivery. Counts messages with the paper's
/// convention (broadcast = `k` messages). The full multi-counter runtime
/// lives in `dsbn-monitor`; this harness exists so counter protocols can be
/// tested and benchmarked in isolation.
pub struct SingleCounterSim<P: CounterProtocol> {
    protocol: P,
    sites: Vec<P::Site>,
    coord: P::Coord,
    /// Total messages, paper convention.
    pub messages: u64,
    /// Up messages only.
    pub up_messages: u64,
    /// Broadcast count (each contributing `k` to `messages`).
    pub broadcasts: u64,
}

impl<P: CounterProtocol> SingleCounterSim<P> {
    /// Build a harness over `k` sites.
    pub fn new(protocol: P, k: usize) -> Self {
        assert!(k > 0, "need at least one site");
        let sites = (0..k).map(|_| protocol.new_site()).collect();
        let coord = protocol.new_coord(k);
        SingleCounterSim { protocol, sites, coord, messages: 0, up_messages: 0, broadcasts: 0 }
    }

    /// Number of sites.
    pub fn k(&self) -> usize {
        self.sites.len()
    }

    /// Deliver an up message and run any triggered broadcast cascade to
    /// quiescence.
    fn deliver_up<R: Rng + ?Sized>(&mut self, site_id: usize, msg: UpMsg, rng: &mut R) {
        self.messages += 1;
        self.up_messages += 1;
        let mut pending_down = self.protocol.handle_up(&mut self.coord, site_id, msg);
        while let Some(down) = pending_down.take() {
            self.broadcasts += 1;
            self.messages += self.sites.len() as u64;
            let mut replies = Vec::new();
            for (sid, site) in self.sites.iter_mut().enumerate() {
                if let Some(up) = self.protocol.handle_down(site, down, rng) {
                    replies.push((sid, up));
                }
            }
            for (sid, up) in replies {
                self.messages += 1;
                self.up_messages += 1;
                if let Some(d) = self.protocol.handle_up(&mut self.coord, sid, up) {
                    // At most one cascade level is ever pending in the
                    // provided protocols; keep the last.
                    pending_down = Some(d);
                }
            }
        }
    }

    /// One arrival at `site_id`.
    pub fn increment<R: Rng + ?Sized>(&mut self, site_id: usize, rng: &mut R) {
        if let Some(up) = self.protocol.increment(&mut self.sites[site_id], rng) {
            self.deliver_up(site_id, up, rng);
        }
    }

    /// Coordinator estimate.
    pub fn estimate(&self) -> f64 {
        self.protocol.estimate(&self.coord)
    }

    /// Exact total across sites (test oracle).
    pub fn exact_total(&self) -> u64 {
        self.sites.iter().map(|s| self.protocol.site_local_count(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactProtocol;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn harness_counts_messages() {
        let mut sim = SingleCounterSim::new(ExactProtocol, 4);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..100 {
            sim.increment(i % 4, &mut rng);
        }
        assert_eq!(sim.estimate(), 100.0);
        assert_eq!(sim.exact_total(), 100);
        assert_eq!(sim.messages, 100);
        assert_eq!(sim.up_messages, 100);
        assert_eq!(sim.broadcasts, 0);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_rejected() {
        let _ = SingleCounterSim::new(ExactProtocol, 0);
    }

    #[test]
    fn sweep_and_resume_is_bit_identical_to_looping() {
        // 500 touches of one randomized counter, sampling at p = 0.05:
        // sweep-and-resume must emit the same messages at the same
        // positions as the per-touch loop, end in the same local count,
        // and leave the rng at the same draw.
        use crate::msg::DownMsg;
        let protocols = [crate::hyz::HyzProtocol::new(0.3)];
        let proto = &protocols[0];
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut block = [proto.new_site()];
        let mut site_b = proto.new_site();
        let round = DownMsg::NewRound { round: 1, p: 0.05 };
        proto.handle_down(&mut block[0], round, &mut rng_a);
        proto.handle_down(&mut site_b, round, &mut rng_b);
        let ids = [0u32; 500];
        let mut swept = Vec::new();
        let mut done = 0;
        while let Some((pos, up)) = sweep(&protocols, &mut block, &ids[done..], &mut rng_a) {
            swept.push((done + pos, up));
            done += pos + 1;
        }
        let mut looped = Vec::new();
        for pos in 0..ids.len() {
            if let Some(up) = proto.increment(&mut site_b, &mut rng_b) {
                looped.push((pos, up));
            }
        }
        assert!(swept.len() > 5 && swept.len() < 100, "{} reports", swept.len());
        assert_eq!(swept, looped);
        assert_eq!(proto.site_local_count(&block[0]), 500);
        assert_eq!(proto.site_local_count(&site_b), 500);
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    /// Touch counters `0..n` of a fresh block `touches[c]` times each
    /// (skipping counter 1), drain it, and check the visits and the reset.
    fn check_drain<P: CounterProtocol>(protocols: Vec<P>)
    where
        P::Site: std::fmt::Debug,
    {
        let mut rng = StdRng::seed_from_u64(5);
        let mut block: Vec<P::Site> = protocols.iter().map(|p| p.new_site()).collect();
        let touches = [40u64, 0, 7, 1];
        for (c, &t) in touches.iter().enumerate() {
            let ids = vec![c as u32; t as usize];
            let mut rest = ids.as_slice();
            while let Some((pos, _)) = sweep(&protocols, &mut block, rest, &mut rng) {
                rest = &rest[pos + 1..];
            }
        }
        let nonzero: Vec<(usize, u64)> = (0..block.len())
            .map(|c| (c, protocols[c].site_local_count(&block[c])))
            .filter(|&(_, v)| v > 0)
            .collect();
        assert_eq!(nonzero, vec![(0, 40), (2, 7), (3, 1)]);
        let mut visited = Vec::new();
        drain(&protocols, &mut block, |c, v| visited.push((c, v)));
        assert_eq!(visited, nonzero);
        for (p, site) in protocols.iter().zip(&block) {
            assert_eq!(format!("{site:?}"), format!("{:?}", p.new_site()));
        }
        drain(&protocols, &mut block, |c, v| panic!("fresh block visited {c} = {v}"));
    }

    #[test]
    fn drain_visits_nonzero_counts_and_leaves_the_block_fresh() {
        check_drain(vec![ExactProtocol; 4]);
        check_drain(vec![crate::deterministic::DeterministicProtocol::new(0.2); 4]);
        check_drain((1..=4).map(|i| crate::hyz::HyzProtocol::new(0.1 * i as f64)).collect());
    }

    #[test]
    fn snapshot_into_matches_estimate_loop() {
        use crate::hyz::HyzProtocol;
        // A heterogeneous bank (per-counter eps, NONUNIFORM-style): the
        // free-function export must equal estimate() per counter, bitwise.
        let protocols: Vec<HyzProtocol> =
            (1..=5).map(|i| HyzProtocol::new(0.1 * i as f64)).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let mut sites: Vec<_> = protocols.iter().map(|p| p.new_site()).collect();
        let mut coords: Vec<_> = protocols.iter().map(|p| p.new_coord(1)).collect();
        for i in 0..3_000usize {
            let c = i % 5;
            if let Some(up) = protocols[c].increment(&mut sites[c], &mut rng) {
                let mut down = protocols[c].handle_up(&mut coords[c], 0, up);
                while let Some(d) = down.take() {
                    if let Some(reply) = protocols[c].handle_down(&mut sites[c], d, &mut rng) {
                        down = protocols[c].handle_up(&mut coords[c], 0, reply);
                    }
                }
            }
        }
        let mut out = vec![0.0; 5];
        super::snapshot_into(&protocols, &coords, &mut out);
        for c in 0..5 {
            assert_eq!(out[c].to_bits(), protocols[c].estimate(&coords[c]).to_bits());
        }
    }
}
