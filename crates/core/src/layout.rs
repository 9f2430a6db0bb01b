//! Flat counter addressing for a Bayesian network.
//!
//! A tracker maintains two counter groups per variable `i` (Algorithm 1):
//! family counters `A_i(x_i, u)` — one per CPD entry — and parent counters
//! `A_i(u)` — one per parent configuration. [`CounterLayout`] assigns every
//! counter a dense `u32` id:
//!
//! ```text
//! [ var 0 families | var 0 parents | var 1 families | var 1 parents | ... ]
//! ```
//!
//! and maps an event to the `2n` ids it increments (Algorithm 2). The
//! layout is self-contained (it copies the structure out of the network) so
//! it can be shared with site threads in the cluster runtime.
//!
//! # The stride table (big-network hot path)
//!
//! On large networks (500–5000 variables) the id mapping *is* the per-event
//! cost: every event touches `2n` counters, and deriving each variable's
//! parent-configuration index `u` is the inner loop. The classic form is a
//! Horner walk over the sorted parent list,
//!
//! ```text
//! u = (((x[p0]) · J_{p1} + x[p1]) · J_{p2} + x[p2]) ...
//! ```
//!
//! which costs two dependent indirections per parent slot (`parent_flat[s]`
//! to find the parent, then `cards[parent]` to find its radix) and forms a
//! serial multiply–add dependency chain. The layout instead precomputes a
//! flat **stride table**: per parent slot, the pair `(parent, multiplier)`
//! with `M_j = Π_{l > j} J_{p_l}`, so that
//!
//! ```text
//! u = Σ_j x[p_j] · M_j
//! ```
//!
//! — the exact same integer (associativity is exact over the naturals), but
//! computed as an independent fused multiply–add per slot over one
//! contiguous slab, with the common fan-in widths dispatched without the
//! inner loop at all (0 parents: `u = 0`; 1 parent: `u = x[p]`, the
//! multiplier is 1 by construction; 2 parents: one multiply–add). All the
//! per-variable state the kernel needs (slot start, width, cardinality,
//! block offsets) lives in one packed `VarPlan` record so a variable
//! costs one sequential cache line, not five scattered array loads.
//!
//! The independent check is the Horner walk that already exists in
//! `dsbn_bayes` ([`BayesianNetwork::parent_config_of`]): the unit tests
//! here and `tests/bignet_equivalence.rs` pin every mapped id against it.

use dsbn_bayes::BayesianNetwork;
use dsbn_datagen::EventChunk;
use serde::{Deserialize, Serialize};

/// Per-variable record of the stride-table mapping: everything the
/// Algorithm-2 kernel needs for one variable, packed so the per-event sweep
/// reads one contiguous 20-byte record per variable instead of five
/// scattered arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct VarPlan {
    /// First parent slot: this variable's `(parent, multiplier)` pairs are
    /// `stride[2 * slot ..][.. 2 * width]`.
    slot: u32,
    /// Fan-in width (number of parents).
    width: u32,
    /// Cardinality `J_i`.
    card: u32,
    /// Offset of the family block.
    family_offset: u32,
    /// Offset of the parent block.
    parent_offset: u32,
}

/// Dense counter addressing for one network structure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterLayout {
    /// Cardinality `J_i` per variable.
    cards: Vec<u32>,
    /// Offset of variable `i`'s family block.
    family_offset: Vec<u32>,
    /// Offset of variable `i`'s parent block.
    parent_offset: Vec<u32>,
    /// Parent-configuration count `K_i`.
    parent_configs: Vec<u32>,
    n_counters: u32,
    /// Interleaved `(parent, multiplier)` pairs in CSR form over the
    /// sorted parent lists (slot `s` is `stride[2s], stride[2s+1]`).
    stride: Vec<u32>,
    /// Packed per-variable kernel records, in variable order.
    plans: Vec<VarPlan>,
}

impl CounterLayout {
    /// Extract the layout from a network's structure.
    pub fn new(net: &BayesianNetwork) -> Self {
        let n = net.n_vars();
        let mut cards = Vec::with_capacity(n);
        let mut parent_flat = Vec::new();
        let mut parent_start = Vec::with_capacity(n + 1);
        let mut family_offset = Vec::with_capacity(n);
        let mut parent_offset = Vec::with_capacity(n);
        let mut parent_configs = Vec::with_capacity(n);
        let mut next: u64 = 0;
        parent_start.push(0);
        for i in 0..n {
            let j = net.cardinality(i) as u64;
            let k = net.parent_configs(i) as u64;
            cards.push(j as u32);
            parent_flat.extend(net.dag().parents(i).iter().map(|&p| p as u32));
            parent_start.push(parent_flat.len() as u32);
            family_offset.push(next as u32);
            next += j * k;
            parent_offset.push(next as u32);
            next += k;
            parent_configs.push(k as u32);
            assert!(next <= u32::MAX as u64, "counter space exceeds u32");
        }
        // Build the stride table: per parent slot the mixed-radix
        // multiplier M_j = Π_{l > j} J_{p_l} (so the last slot's multiplier
        // is 1), interleaved with the parent index.
        let mut stride = vec![0u32; 2 * parent_flat.len()];
        let mut plans = Vec::with_capacity(n);
        for i in 0..n {
            let s = parent_start[i] as usize;
            let e = parent_start[i + 1] as usize;
            let mut mult: u64 = 1;
            for j in (s..e).rev() {
                let p = parent_flat[j];
                stride[2 * j] = p;
                debug_assert!(mult <= parent_configs[i] as u64);
                stride[2 * j + 1] = mult as u32;
                mult *= cards[p as usize] as u64;
            }
            debug_assert_eq!(mult, parent_configs[i] as u64);
            plans.push(VarPlan {
                slot: s as u32,
                width: (e - s) as u32,
                card: cards[i],
                family_offset: family_offset[i],
                parent_offset: parent_offset[i],
            });
        }
        CounterLayout {
            cards,
            family_offset,
            parent_offset,
            parent_configs,
            n_counters: next as u32,
            stride,
            plans,
        }
    }

    /// Total number of counters (`sum_i J_i K_i + K_i`).
    pub fn n_counters(&self) -> usize {
        self.n_counters as usize
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.cards.len()
    }

    /// Cardinality `J_i`.
    #[inline]
    pub fn cardinality(&self, i: usize) -> usize {
        self.cards[i] as usize
    }

    /// Parent-configuration count `K_i`.
    #[inline]
    pub fn parent_configs(&self, i: usize) -> usize {
        self.parent_configs[i] as usize
    }

    /// The strided parent-configuration index of variable `i`, where
    /// `get(v)` reads the event's value of variable `v` — the single
    /// Algorithm-2 inner kernel both the `usize` and `u32` event paths
    /// monomorphize (the pre-stride code kept one copy per element type).
    #[inline(always)]
    fn stride_config<G: Fn(usize) -> usize>(&self, plan: &VarPlan, get: &G) -> usize {
        let s = 2 * plan.slot as usize;
        // Width specialization: 0/1/2-parent variables (the overwhelming
        // majority under a bounded-fan-in DAG) skip the slot loop. The
        // trailing multiplier is 1 by construction, so width 1 is a pure
        // load and width 2 a single multiply–add.
        match plan.width {
            0 => 0,
            1 => get(self.stride[s] as usize),
            2 => {
                get(self.stride[s] as usize) * self.stride[s + 1] as usize
                    + get(self.stride[s + 2] as usize)
            }
            w => {
                let mut u = 0usize;
                for pair in self.stride[s..s + 2 * w as usize].chunks_exact(2) {
                    u += get(pair[0] as usize) * pair[1] as usize;
                }
                u
            }
        }
    }

    /// Parent configuration index of variable `i` under assignment `x`
    /// (same convention as [`dsbn_bayes::Cpt::parent_config_index`]).
    #[inline]
    pub fn parent_config_of(&self, i: usize, x: &[usize]) -> usize {
        self.stride_config(&self.plans[i], &|v: usize| x[v])
    }

    /// Id of family counter `A_i(x_i, u)`.
    #[inline]
    pub fn family_id(&self, i: usize, value: usize, u: usize) -> u32 {
        debug_assert!(value < self.cards[i] as usize);
        debug_assert!(u < self.parent_configs[i] as usize);
        self.family_offset[i] + (u * self.cards[i] as usize + value) as u32
    }

    /// Id of parent counter `A_i(u)`.
    #[inline]
    pub fn parent_id(&self, i: usize, u: usize) -> u32 {
        debug_assert!(u < self.parent_configs[i] as usize);
        self.parent_offset[i] + u as u32
    }

    /// The strided Algorithm-2 kernel for one event: write the `2n` ids
    /// into `out` (callers size it; `out.len() == 2 * n_vars`). Writing
    /// through a pre-sized slice instead of `push` keeps the store stream
    /// free of capacity checks — the loop body is a handful of loads, one
    /// or two multiply–adds, and two sequential stores per variable.
    #[inline(always)]
    fn event_ids_into<G: Fn(usize) -> usize>(&self, get: G, out: &mut [u32]) {
        debug_assert_eq!(out.len(), 2 * self.plans.len());
        for (i, (plan, pair)) in self.plans.iter().zip(out.chunks_exact_mut(2)).enumerate() {
            let u = self.stride_config(plan, &get);
            let xi = get(i);
            debug_assert!(xi < plan.card as usize, "value out of range");
            pair[0] = plan.family_offset + (u * plan.card as usize + xi) as u32;
            pair[1] = plan.parent_offset + u as u32;
        }
    }

    /// Algorithm 2: the `2n` counter ids incremented by event `x`, written
    /// into `out`.
    pub fn map_event(&self, x: &[usize], out: &mut Vec<u32>) {
        debug_assert_eq!(x.len(), self.n_vars());
        out.clear();
        out.resize(2 * self.n_vars(), 0);
        self.event_ids_into(|v| x[v], out);
    }

    /// [`Self::map_event`] for an event already in `u32` form (the cluster
    /// runtime's [`EventChunk`] slab representation).
    pub fn map_event_u32(&self, x: &[u32], out: &mut Vec<u32>) {
        debug_assert_eq!(x.len(), self.n_vars());
        out.clear();
        out.resize(2 * self.n_vars(), 0);
        self.event_ids_into(|v| x[v] as usize, out);
    }

    /// Bulk Algorithm 2 over a whole [`EventChunk`]: one stride-table sweep
    /// writes every event's `2n` counter ids into the caller's scratch
    /// buffer, back to back (fixed stride `2 * n_vars`, so event `e`'s ids
    /// are `out[e * 2n .. (e + 1) * 2n]`). Ids are identical to per-event
    /// [`Self::map_event`] calls in event order; the chunk sweep sizes the
    /// output once and streams plan records, event values, and output ids
    /// linearly — the kernel's working set (plans + stride table) stays
    /// cache-resident across the chunk's events.
    pub fn map_chunk(&self, chunk: &EventChunk, out: &mut Vec<u32>) {
        out.clear();
        if chunk.is_empty() {
            return;
        }
        assert_eq!(chunk.n_vars(), self.n_vars(), "chunk width must match the layout");
        let n2 = 2 * self.n_vars();
        out.resize(n2 * chunk.len(), 0);
        for (ev, ids) in chunk.iter().zip(out.chunks_exact_mut(n2)) {
            self.event_ids_into(|v| ev[v] as usize, ids);
        }
    }

    /// Build the per-counter value vector `f(counter) -> value` from
    /// per-variable family/parent values, in layout order. Used to assign
    /// per-counter error budgets from an
    /// [`crate::allocation::EpsAllocation`].
    pub fn per_counter<T: Copy>(&self, family: &[T], parent: &[T]) -> Vec<T> {
        assert_eq!(family.len(), self.n_vars());
        assert_eq!(parent.len(), self.n_vars());
        let mut out = Vec::with_capacity(self.n_counters());
        for i in 0..self.n_vars() {
            let jk = self.cards[i] as usize * self.parent_configs[i] as usize;
            out.extend(std::iter::repeat_n(family[i], jk));
            out.extend(std::iter::repeat_n(parent[i], self.parent_configs[i] as usize));
        }
        debug_assert_eq!(out.len(), self.n_counters());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsbn_bayes::{sprinkler_network, NetworkSpec};

    #[test]
    fn sprinkler_layout_shape() {
        let net = sprinkler_network();
        let l = CounterLayout::new(&net);
        // Families: 2 + 4 + 4 + 8 = 18; parents: 1 + 2 + 2 + 4 = 9.
        assert_eq!(l.n_counters(), 27);
        assert_eq!(l.n_vars(), 4);
        // Block boundaries are disjoint and ordered.
        assert_eq!(l.family_id(0, 0, 0), 0);
        assert_eq!(l.parent_id(0, 0), 2);
        assert_eq!(l.family_id(1, 0, 0), 3);
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let net = NetworkSpec::alarm().generate(1).unwrap();
        let l = CounterLayout::new(&net);
        let mut seen = vec![false; l.n_counters()];
        for i in 0..l.n_vars() {
            for u in 0..l.parent_configs(i) {
                for v in 0..l.cardinality(i) {
                    let id = l.family_id(i, v, u) as usize;
                    assert!(!seen[id], "duplicate id {id}");
                    seen[id] = true;
                }
                let id = l.parent_id(i, u) as usize;
                assert!(!seen[id], "duplicate id {id}");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "ids not dense");
    }

    #[test]
    fn map_event_gives_2n_consistent_ids() {
        let net = sprinkler_network();
        let l = CounterLayout::new(&net);
        let x = vec![1usize, 0, 1, 1];
        let mut ids = Vec::new();
        l.map_event(&x, &mut ids);
        assert_eq!(ids.len(), 8);
        // WetGrass (var 3): parents (S=0, R=1) -> u = 0*2+1 = 1.
        assert_eq!(l.parent_config_of(3, &x), 1);
        assert_eq!(ids[6], l.family_id(3, 1, 1));
        assert_eq!(ids[7], l.parent_id(3, 1));
    }

    #[test]
    fn map_chunk_matches_per_event_mapping() {
        let net = NetworkSpec::alarm().generate(1).unwrap();
        let l = CounterLayout::new(&net);
        let sampler = dsbn_bayes::AncestralSampler::new(&net);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let events: Vec<Vec<usize>> = (0..64).map(|_| sampler.sample(&mut rng)).collect();
        let mut chunk = EventChunk::with_capacity(l.n_vars(), events.len());
        for x in &events {
            chunk.push(x);
        }
        let mut bulk = Vec::new();
        l.map_chunk(&chunk, &mut bulk);
        assert_eq!(bulk.len(), 2 * l.n_vars() * events.len());
        let mut single = Vec::new();
        let mut single_u32 = Vec::new();
        for (e, x) in events.iter().enumerate() {
            l.map_event(x, &mut single);
            let ids = &bulk[e * 2 * l.n_vars()..(e + 1) * 2 * l.n_vars()];
            assert_eq!(ids, &single[..], "event {e}");
            // The u32 path agrees too.
            let x32: Vec<u32> = x.iter().map(|&v| v as u32).collect();
            l.map_event_u32(&x32, &mut single_u32);
            assert_eq!(single_u32, single, "event {e} (u32)");
        }
        // Empty chunk: no ids, no panic.
        l.map_chunk(&EventChunk::new(), &mut bulk);
        assert!(bulk.is_empty());
    }

    #[test]
    fn strided_mapping_matches_reference_bit_for_bit() {
        // The stride-table kernel against the independent Horner walk in
        // `dsbn_bayes` (`BayesianNetwork::parent_config_of`), on networks
        // with the full width mix (0/1/2/3+ parents and inflated domains):
        // every id of every event identical, on the usize path, the u32
        // path, and the chunk path.
        use rand::SeedableRng;
        for net in [
            sprinkler_network(),
            NetworkSpec::alarm().generate(2).unwrap(),
            dsbn_bayes::new_alarm(4).unwrap(),
            NetworkSpec::munin_stress().generate(1).unwrap(),
        ] {
            let layout = CounterLayout::new(&net);
            let sampler = dsbn_bayes::AncestralSampler::new(&net);
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let events: Vec<Vec<usize>> = (0..32).map(|_| sampler.sample(&mut rng)).collect();
            let mut chunk = EventChunk::with_capacity(net.n_vars(), events.len());
            let mut walked = Vec::new();
            let mut ids = Vec::new();
            for x in &events {
                chunk.push(x);
                let from = walked.len();
                for i in 0..net.n_vars() {
                    let u = net.parent_config_of(i, x);
                    walked.push(layout.family_id(i, x[i], u));
                    walked.push(layout.parent_id(i, u));
                }
                layout.map_event(x, &mut ids);
                assert_eq!(ids, walked[from..], "{} usize path", net.name());
                let x32: Vec<u32> = x.iter().map(|&v| v as u32).collect();
                layout.map_event_u32(&x32, &mut ids);
                assert_eq!(ids, walked[from..], "{} u32 path", net.name());
            }
            layout.map_chunk(&chunk, &mut ids);
            assert_eq!(ids, walked, "{} chunk path", net.name());
        }
    }

    #[test]
    fn parent_config_matches_network() {
        let net = NetworkSpec::hepar2().generate(2).unwrap();
        let l = CounterLayout::new(&net);
        let sampler = dsbn_bayes::AncestralSampler::new(&net);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let x = sampler.sample(&mut rng);
            for i in 0..net.n_vars() {
                assert_eq!(l.parent_config_of(i, &x), net.parent_config_of(i, &x));
            }
        }
    }

    #[test]
    fn per_counter_expansion() {
        let net = sprinkler_network();
        let l = CounterLayout::new(&net);
        let fam = vec![1.0, 2.0, 3.0, 4.0];
        let par = vec![10.0, 20.0, 30.0, 40.0];
        let v = l.per_counter(&fam, &par);
        assert_eq!(v.len(), 27);
        assert_eq!(v[l.family_id(2, 1, 0) as usize], 3.0);
        assert_eq!(v[l.parent_id(2, 1) as usize], 30.0);
        assert_eq!(v[l.family_id(0, 1, 0) as usize], 1.0);
        assert_eq!(v[l.parent_id(3, 3) as usize], 40.0);
    }
}
