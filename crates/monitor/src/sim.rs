//! Synchronous multi-counter simulator.
//!
//! [`CounterArray`] manages an array of independent distributed counters
//! (one per tracked statistic — the `A_i(x, u)` and `A_i(u)` of the paper)
//! across `k` simulated sites and one coordinator, with instantaneous
//! message delivery and paper-convention message accounting. This is the
//! runtime behind the "simulated stream monitoring system" experiments
//! (Figs. 1–6, 9–11, Tables II–III).
//!
//! The UPDATE hot path is event-batched: [`CounterArray::observe_event`]
//! takes all the counter ids one event triggers (the `2n` ids of
//! Algorithm 2) and sweeps them over the site's block of one contiguous
//! state slab with [`dsbn_counters::protocol::sweep`] — the same kernel
//! the cluster's site threads run (DESIGN.md §3.4), as
//! [`dsbn_counters::protocol::drain`] is the one settle-and-reset pass of
//! an epoch roll — accounting the triggered up messages as one
//! bundled wire packet ([`dsbn_counters::wire::bundle_len`]) exactly as
//! the cluster runtime ships them via
//! [`dsbn_counters::wire::encode_event`]. Message *counts* keep the
//! paper's one-message-per-counter-update convention; only the byte tally
//! reflects the amortized batch framing.

use crate::metrics::MessageStats;
use dsbn_counters::msg::UpMsg;
use dsbn_counters::protocol::{drain, sweep, CounterProtocol};
use rand::Rng;

/// An array of independent distributed counters sharing `k` sites.
///
/// Each counter may use a different protocol instance (the NONUNIFORM
/// algorithm assigns a different error parameter to every counter), but all
/// instances must be of the same protocol *type* `P`.
pub struct CounterArray<P: CounterProtocol> {
    protocols: Vec<P>,
    /// Site states in one contiguous slab, indexed `site * n_counters + c`:
    /// one event's `2n` updates sweep within a single site block instead of
    /// chasing a `Vec<Vec<_>>` spine.
    sites: Vec<P::Site>,
    coords: Vec<P::Coord>,
    stats: MessageStats,
    k: usize,
}

impl<P: CounterProtocol> CounterArray<P> {
    /// Build one counter per protocol instance, over `k` sites.
    pub fn new(protocols: Vec<P>, k: usize) -> Self {
        assert!(k > 0, "need at least one site");
        let mut sites = Vec::with_capacity(k * protocols.len());
        for _ in 0..k {
            sites.extend(protocols.iter().map(|p| p.new_site()));
        }
        let coords = protocols.iter().map(|p| p.new_coord(k)).collect();
        CounterArray { protocols, sites, coords, stats: MessageStats::default(), k }
    }

    /// Number of counters.
    pub fn n_counters(&self) -> usize {
        self.protocols.len()
    }

    /// Number of sites.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Message statistics so far.
    pub fn stats(&self) -> MessageStats {
        self.stats
    }

    /// One event at `site`: increment every counter in `ids` (Algorithm 2's
    /// `2n` updates) in one pass over the site's state block, with
    /// synchronous delivery of triggered protocol messages. The up messages
    /// the event triggers are accounted as one bundled wire frame — the
    /// same per-event packet the cluster runtime sends.
    pub fn observe_event<R: Rng + ?Sized>(&mut self, site: usize, ids: &[u32], rng: &mut R) {
        // In the flat slab an out-of-range counter id would land in a
        // *neighboring site's* block instead of panicking like the old
        // nested-Vec indexing did — check it explicitly.
        self.check_ids(ids);
        self.sweep_event(site, ids, rng);
    }

    /// Reject any counter id outside the slab's per-site block width.
    #[inline]
    fn check_ids(&self, ids: &[u32]) {
        let n = self.protocols.len();
        for &id in ids {
            assert!((id as usize) < n, "counter id {id} out of range ({n} counters)");
        }
    }

    /// The event sweep proper — callers have already validated `ids`
    /// (per-event via [`Self::observe_event`], or once per chunk slab via
    /// [`Self::observe_chunk`]). The touches run in the shared
    /// [`sweep`] kernel over this site's block of the slab; it returns at
    /// each touch that emits, because delivering the message needs *every*
    /// site's block (a broadcast reaches them all), which the kernel's
    /// borrow of one block rules out — so the cascade runs here, out of
    /// line, and the sweep resumes after the hit.
    fn sweep_event<R: Rng + ?Sized>(&mut self, site: usize, ids: &[u32], rng: &mut R) {
        use dsbn_counters::wire::{bundle_len, frame_len, Frame};
        debug_assert!(site < self.k, "site {site} out of range");
        let n = self.protocols.len();
        // Batch framing decomposes per message class (`wire::bundle_len`),
        // so the bundled packet is accounted from three scalars with no
        // batch materialized.
        let mut n_inc = 0usize;
        let mut n_rep = 0usize;
        let mut rep_bytes = 0usize;
        let mut rest = ids;
        while let Some((pos, up)) =
            sweep(&self.protocols, &mut self.sites[site * n..][..n], rest, rng)
        {
            let id = rest[pos];
            rest = &rest[pos + 1..];
            self.stats.up_messages += 1;
            if matches!(up, UpMsg::Increment) {
                n_inc += 1;
            } else {
                n_rep += 1;
                rep_bytes += frame_len(&Frame::Up { counter: id, msg: up });
            }
            // Deliver the update — and any broadcast cascade —
            // immediately, exactly as the per-increment path would:
            // bundling is an accounting construct here, not a delay.
            self.deliver_up(site, id as usize, up, rng);
        }
        self.stats.bytes += bundle_len(n_inc, n_rep, rep_bytes) as u64;
    }

    /// One arrival for counter `c` at site `site`, with synchronous
    /// delivery of any triggered protocol messages. Equivalent to a
    /// single-counter [`Self::observe_event`].
    pub fn increment<R: Rng + ?Sized>(&mut self, site: usize, c: usize, rng: &mut R) {
        self.observe_event(site, &[c as u32], rng);
    }

    /// A whole chunk of events in one call: `ids` holds the pre-mapped
    /// counter ids of consecutive events, `stride` per event (the `2n` of
    /// Algorithm 2 — callers reuse one flat scratch buffer across chunks
    /// instead of re-allocating per event). Each event is routed by
    /// `assigner` and swept by [`Self::observe_event`] *in stream order*,
    /// drawing from the same `rng` for routing and protocol randomness —
    /// exactly the interleaving of the per-event pipeline, so chunked and
    /// per-event runs stay bit-for-bit identical
    /// (`tests/chunked_equivalence.rs`).
    pub fn observe_chunk<R: Rng + ?Sized>(
        &mut self,
        assigner: &mut crate::partition::SiteAssigner,
        ids: &[u32],
        stride: usize,
        rng: &mut R,
    ) {
        assert!(stride > 0, "id stride must be >= 1");
        assert!(ids.len().is_multiple_of(stride), "ids not a whole number of events");
        // One validation pass over the whole slab up front, so the
        // per-event sweep (2n touches per event on a big network) runs
        // without a bounds check per id.
        self.check_ids(ids);
        for event_ids in ids.chunks_exact(stride) {
            let site = assigner.assign(rng);
            self.sweep_event(site, event_ids, rng);
        }
    }

    /// Deliver one up message for counter `c` to the coordinator and run
    /// any triggered broadcast cascade to quiescence. Cascade replies are
    /// individual sends (one site, one reply) and are accounted as single
    /// frames, matching the cluster's reply packets.
    fn deliver_up<R: Rng + ?Sized>(&mut self, site: usize, c: usize, up: UpMsg, rng: &mut R) {
        use dsbn_counters::wire::{frame_len, Frame};
        let n = self.protocols.len();
        let proto = &self.protocols[c];
        let cid = c as u32;
        let mut pending = proto.handle_up(&mut self.coords[c], site, up);
        while let Some(down) = pending.take() {
            self.stats.broadcasts += 1;
            self.stats.down_messages += self.k as u64;
            self.stats.bytes +=
                (self.k * frame_len(&Frame::Down { counter: cid, msg: down })) as u64;
            for sid in 0..self.k {
                if let Some(reply) = proto.handle_down(&mut self.sites[sid * n + c], down, rng) {
                    self.stats.up_messages += 1;
                    self.stats.bytes += frame_len(&Frame::Up { counter: cid, msg: reply }) as u64;
                    if let Some(d) = proto.handle_up(&mut self.coords[c], sid, reply) {
                        pending = Some(d);
                    }
                }
            }
        }
    }

    /// Close the current epoch (epoch-ring decay, DESIGN.md §5): reset
    /// every counter's site and coordinator state to fresh so the next
    /// epoch counts from zero, and account the roll control exchange
    /// exactly as the cluster runtime ships it — one
    /// [`dsbn_counters::wire::Frame::EpochRoll`] broadcast down to each
    /// site, and from each site the *settlement* (one `Cumulative` frame
    /// per counter with a nonzero local count — the epoch's terminal sync)
    /// followed by its `EpochAck`. Returns the closed epoch's settled
    /// per-counter totals — what those `Cumulative` frames sum to; the
    /// caller owns the ring. Message statistics are cumulative across
    /// epochs; like the cluster's lifecycle envelopes, roll control frames
    /// count bytes but are not counter-update messages.
    pub fn roll_epoch(&mut self, epoch: u32) -> Vec<u64> {
        use dsbn_counters::wire::{frame_len, Frame};
        let n = self.protocols.len();
        let mut totals = vec![0u64; n];
        let mut bytes = self.k
            * (frame_len(&Frame::EpochRoll { epoch }) + frame_len(&Frame::EpochAck { epoch }));
        for s in 0..self.k {
            drain(&self.protocols, &mut self.sites[s * n..][..n], |c, value| {
                totals[c] += value;
                bytes += frame_len(&Frame::Up { counter: 0, msg: UpMsg::Cumulative { value } });
            });
        }
        self.stats.bytes += bytes as u64;
        for (c, p) in self.protocols.iter().enumerate() {
            self.coords[c] = p.new_coord(self.k);
        }
        totals
    }

    /// Coordinator estimate for counter `c`.
    #[inline]
    pub fn estimate(&self, c: usize) -> f64 {
        self.protocols[c].estimate(&self.coords[c])
    }

    /// Exact global count for counter `c` (test/metric oracle; a real
    /// coordinator cannot observe this).
    pub fn exact_total(&self, c: usize) -> u64 {
        let n = self.protocols.len();
        (0..self.k).map(|s| self.protocols[c].site_local_count(&self.sites[s * n + c])).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsbn_counters::{DeterministicProtocol, ExactProtocol, HyzProtocol};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn independent_counters_do_not_interfere() {
        let mut arr = CounterArray::new(vec![ExactProtocol; 3], 2);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..5 {
            arr.increment(0, 0, &mut rng);
        }
        for _ in 0..9 {
            arr.increment(1, 2, &mut rng);
        }
        assert_eq!(arr.estimate(0), 5.0);
        assert_eq!(arr.estimate(1), 0.0);
        assert_eq!(arr.estimate(2), 9.0);
        assert_eq!(arr.stats().total(), 14);
    }

    #[test]
    fn heterogeneous_eps_per_counter() {
        // NONUNIFORM-style: different error budget per counter.
        let protos = vec![HyzProtocol::new(0.05), HyzProtocol::new(0.4)];
        let mut arr = CounterArray::new(protos, 4);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..40_000u64 {
            arr.increment((i % 4) as usize, 0, &mut rng);
            arr.increment(((i + 1) % 4) as usize, 1, &mut rng);
        }
        for c in 0..2 {
            assert_eq!(arr.exact_total(c), 40_000);
            let rel = (arr.estimate(c) - 40_000.0).abs() / 40_000.0;
            let eps = if c == 0 { 0.05 } else { 0.4 };
            assert!(rel < 5.0 * eps, "counter {c}: rel err {rel}");
        }
    }

    #[test]
    fn mixed_protocol_accuracy_and_cost_ordering() {
        let m = 50_000u64;
        let k = 5;
        let mut rng = StdRng::seed_from_u64(2);

        let mut exact = CounterArray::new(vec![ExactProtocol], k);
        let mut det = CounterArray::new(vec![DeterministicProtocol::new(0.1)], k);
        let mut hyz = CounterArray::new(vec![HyzProtocol::new(0.1)], k);
        for i in 0..m {
            let s = (i % k as u64) as usize;
            exact.increment(s, 0, &mut rng);
            det.increment(s, 0, &mut rng);
            hyz.increment(s, 0, &mut rng);
        }
        assert_eq!(exact.stats().total(), m);
        assert!(det.stats().total() < m / 20);
        assert!(hyz.stats().total() < m / 20);
        assert_eq!(exact.estimate(0), m as f64);
    }

    #[test]
    fn empty_array_is_fine() {
        let arr: CounterArray<ExactProtocol> = CounterArray::new(vec![], 3);
        assert_eq!(arr.n_counters(), 0);
        assert_eq!(arr.stats().total(), 0);
    }

    #[test]
    fn observe_event_matches_sequential_increments_bit_for_bit() {
        // The batched path must be indistinguishable from looping
        // `increment` — same estimates, totals, and message counts, with
        // identical rng consumption — for a randomized protocol.
        let protos = || vec![HyzProtocol::new(0.2); 6];
        let mut batched = CounterArray::new(protos(), 3);
        let mut looped = CounterArray::new(protos(), 3);
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let events: Vec<(usize, Vec<u32>)> =
            (0..20_000).map(|i| (i % 3, vec![(i % 6) as u32, ((i + 1) % 6) as u32])).collect();
        for (site, ids) in &events {
            batched.observe_event(*site, ids, &mut rng_a);
            for &id in ids {
                looped.increment(*site, id as usize, &mut rng_b);
            }
        }
        for c in 0..6 {
            assert_eq!(batched.estimate(c).to_bits(), looped.estimate(c).to_bits(), "counter {c}");
            assert_eq!(batched.exact_total(c), looped.exact_total(c), "counter {c}");
        }
        let (a, b) = (batched.stats(), looped.stats());
        assert_eq!(a.up_messages, b.up_messages);
        assert_eq!(a.down_messages, b.down_messages);
        assert_eq!(a.broadcasts, b.broadcasts);
        // Bytes differ by design: the batched path accounts each event's
        // updates as one bundled frame.
        assert!(a.bytes <= b.bytes);
    }

    #[test]
    fn observe_chunk_matches_per_event_loop_bit_for_bit() {
        // Chunk sweeping must route and draw from the rng in exactly the
        // per-event order: assign, observe, assign, observe, ... — for a
        // randomized protocol this pins the whole interleaving.
        use crate::partition::{Partitioner, SiteAssigner};
        let protos = || vec![HyzProtocol::new(0.2); 6];
        let mut chunked = CounterArray::new(protos(), 3);
        let mut looped = CounterArray::new(protos(), 3);
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let mut asg_a = SiteAssigner::new(Partitioner::UniformRandom, 3);
        let mut asg_b = SiteAssigner::new(Partitioner::UniformRandom, 3);
        let stride = 2;
        let ids: Vec<u32> = (0..20_000u32).flat_map(|i| [i % 6, (i + 1) % 6]).collect();
        chunked.observe_chunk(&mut asg_a, &ids, stride, &mut rng_a);
        for event_ids in ids.chunks_exact(stride) {
            let site = asg_b.assign(&mut rng_b);
            looped.observe_event(site, event_ids, &mut rng_b);
        }
        for c in 0..6 {
            assert_eq!(chunked.estimate(c).to_bits(), looped.estimate(c).to_bits(), "counter {c}");
            assert_eq!(chunked.exact_total(c), looped.exact_total(c), "counter {c}");
        }
        assert_eq!(chunked.stats(), looped.stats());
    }

    #[test]
    fn roll_epoch_resets_counts_and_accounts_control_bytes() {
        let k = 3;
        let mut arr = CounterArray::new(vec![ExactProtocol; 2], k);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            arr.observe_event(1, &[0, 1], &mut rng);
        }
        let before = arr.stats();
        assert_eq!(arr.roll_epoch(0), vec![10, 10]);
        // Fresh epoch: estimates and exact totals start over.
        assert_eq!(arr.estimate(0), 0.0);
        assert_eq!(arr.exact_total(1), 0);
        // Control exchange: one 5-byte EpochRoll down + one 5-byte EpochAck
        // up per site, plus the settlement — a 13-byte Cumulative frame per
        // nonzero (site, counter), here both counters at site 1 only.
        // Message counts (counter updates) are unchanged.
        let after = arr.stats();
        assert_eq!(after.bytes, before.bytes + (k as u64) * 10 + 2 * 13);
        assert_eq!(after.total(), before.total());
        // The new epoch counts normally.
        arr.observe_event(0, &[0], &mut rng);
        assert_eq!(arr.estimate(0), 1.0);
    }

    #[test]
    fn observe_event_bytes_use_batch_framing() {
        // Eight exact counters per event (a sprinkler-sized 2n): the
        // bundled frame costs a 5-byte header + 4 bytes per id, vs 8 x 5
        // for per-update singles — the same packet the cluster ships.
        let mut arr = CounterArray::new(vec![ExactProtocol; 8], 2);
        let mut rng = StdRng::seed_from_u64(3);
        let ids: Vec<u32> = (0..8).collect();
        for _ in 0..100 {
            arr.observe_event(0, &ids, &mut rng);
        }
        assert_eq!(arr.stats().up_messages, 800);
        assert_eq!(arr.stats().bytes, 100 * (5 + 8 * 4));
        assert_eq!(arr.estimate(0), 100.0);
        assert_eq!(arr.estimate(7), 100.0);
    }
}
