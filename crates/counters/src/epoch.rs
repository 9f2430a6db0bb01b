//! Epoch-ring machinery for distributed time-decay tracking.
//!
//! The paper leaves time-decay models as future work (2); the obstacle is
//! that the HYZ estimator of Lemma 4 requires counts to be non-decreasing,
//! which exponential decay violates. The epoch-ring scheme sidesteps it:
//! the stream is cut into *epochs* of `B` events; within an epoch every
//! counter runs an unmodified monotone protocol (exact / deterministic /
//! HYZ — Lemma 4 applies per epoch), and when an epoch closes the
//! coordinator freezes the current estimates into a ring of the last `K`
//! closed epochs. A decayed count is then read as the `lambda^age`-weighted
//! sum over the ring plus the open epoch — no protocol ever sees a
//! decreasing count, and the only extra communication is one
//! [`crate::wire::Frame::EpochRoll`] broadcast plus `k` acks per roll.
//!
//! The ring itself is held epoch-major by its owners (the tracker, the
//! cluster coordinator, `CounterSnapshot`) and read through
//! `dsbn_core::snapshot::epoch_read`. What lives here is [`EpochRoller`] —
//! the coordinator-side roll state machine: which sites have acknowledged
//! the in-flight roll, and therefore whether an arriving update still
//! belongs to the closing epoch. It is what makes the roll safe under
//! asynchronous delivery (see the `is_stale` invariant below and
//! DESIGN.md §5).

/// Coordinator-side epoch-roll state machine.
///
/// A roll proceeds as a handshake: the coordinator broadcasts
/// `EpochRoll { epoch }` down every (FIFO) site channel and keeps serving
/// traffic; each site resets its per-epoch counter state on receipt and
/// answers `EpochAck { epoch }` on its (FIFO) up path. Until a site's ack
/// arrives, any update from that site was sent *before* it rolled and
/// belongs to the closing epoch ([`EpochRoller::is_stale`]); once all `k`
/// acks are in, no closing-epoch traffic can still be in flight and the
/// epoch's coordinator states can be frozen into the ring.
///
/// Rolls serialize: a roll requested while one is in flight is queued and
/// started by [`EpochRoller::finish`]. The struct is protocol-agnostic —
/// the caller owns the two coordinator state sets (closing + open) and
/// routes updates by `is_stale`.
#[derive(Debug, Clone)]
pub struct EpochRoller {
    acked: Vec<bool>,
    n_acked: usize,
    rolling: bool,
    queued: u64,
    epochs_closed: u32,
    /// Crashed sites: pre-acked in every roll (they can never answer, and
    /// their per-epoch counts are wiped anyway) until marked live again.
    dead: Vec<bool>,
}

impl EpochRoller {
    /// Roller for `k` sites; epoch 0 is open, nothing in flight.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one site");
        EpochRoller {
            acked: vec![false; k],
            n_acked: 0,
            rolling: false,
            queued: 0,
            epochs_closed: 0,
            dead: vec![false; k],
        }
    }

    /// A roll was requested. Returns `Some(epoch)` — the epoch to close,
    /// which the caller must broadcast as `EpochRoll { epoch }` — when the
    /// roll starts now; `None` when one is already in flight (the request
    /// is queued and surfaces from [`Self::finish`]).
    ///
    /// Dead sites are pre-acked, so the caller must check
    /// [`Self::all_acked`] after broadcasting: with every live site already
    /// accounted for (e.g. all sites dead) the roll is complete on arrival.
    pub fn request(&mut self) -> Option<u32> {
        if self.rolling {
            self.queued += 1;
            return None;
        }
        self.rolling = true;
        self.n_acked = 0;
        for (a, d) in self.acked.iter_mut().zip(&self.dead) {
            *a = *d;
            self.n_acked += *d as usize;
        }
        Some(self.epochs_closed)
    }

    /// Mark `site` crashed: it is excluded from the in-flight roll (if any)
    /// and pre-acked in every future roll until [`Self::mark_live`].
    /// Returns `true` when removing the site completed the in-flight roll —
    /// the caller must then freeze and [`Self::finish`], exactly as for a
    /// completing [`Self::ack`]. Idempotent.
    pub fn mark_dead(&mut self, site: usize) -> bool {
        self.dead[site] = true;
        if self.rolling && !self.acked[site] {
            self.acked[site] = true;
            self.n_acked += 1;
            return self.n_acked == self.acked.len();
        }
        false
    }

    /// Mark `site` live again after a rejoin. An in-flight roll keeps its
    /// pre-ack (the site rolled as dead — its settlement is an exact zero);
    /// the next roll waits on it normally.
    pub fn mark_live(&mut self, site: usize) {
        self.dead[site] = false;
    }

    /// All acks (including dead-site pre-acks) are in for the in-flight
    /// roll. `false` when no roll is in flight.
    pub fn all_acked(&self) -> bool {
        self.rolling && self.n_acked == self.acked.len()
    }

    /// Record `EpochAck { epoch }` from `site`. Returns `true` when this
    /// ack completes the roll — the caller must then freeze the closing
    /// coordinator states into the ring and call [`Self::finish`].
    pub fn ack(&mut self, site: usize, epoch: u32) -> bool {
        debug_assert!(self.rolling, "ack with no roll in flight");
        debug_assert_eq!(epoch, self.epochs_closed, "ack for a different epoch");
        if !self.acked[site] {
            self.acked[site] = true;
            self.n_acked += 1;
        }
        self.n_acked == self.acked.len()
    }

    /// Complete the in-flight roll. Returns `Some(next_epoch)` when a
    /// queued request starts immediately (broadcast it), `None` otherwise.
    pub fn finish(&mut self) -> Option<u32> {
        debug_assert!(self.rolling && self.n_acked == self.acked.len());
        self.rolling = false;
        self.epochs_closed += 1;
        if self.queued > 0 {
            self.queued -= 1;
            self.request()
        } else {
            None
        }
    }

    /// Whether an update arriving now from `site` belongs to the *closing*
    /// epoch: a roll is in flight and this site has not acked it yet. The
    /// FIFO channel discipline makes this exact — a site's post-roll
    /// updates can only arrive after its ack.
    pub fn is_stale(&self, site: usize) -> bool {
        self.rolling && !self.acked[site]
    }

    /// A roll is in flight.
    pub fn rolling(&self) -> bool {
        self.rolling
    }

    /// Epochs fully closed so far.
    pub fn epochs_closed(&self) -> u32 {
        self.epochs_closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roller_handshake_and_staleness() {
        let mut roller = EpochRoller::new(3);
        assert!(!roller.rolling());
        assert_eq!(roller.request(), Some(0));
        // Everybody is stale until they ack.
        assert!(roller.is_stale(0) && roller.is_stale(2));
        assert!(!roller.ack(1, 0));
        assert!(!roller.is_stale(1));
        assert!(roller.is_stale(0));
        assert!(!roller.ack(0, 0));
        assert!(roller.ack(2, 0));
        assert_eq!(roller.finish(), None);
        assert_eq!(roller.epochs_closed(), 1);
        assert!(!roller.is_stale(0));
    }

    #[test]
    fn roller_queues_overlapping_requests() {
        let mut roller = EpochRoller::new(2);
        assert_eq!(roller.request(), Some(0));
        assert_eq!(roller.request(), None); // queued
        assert!(!roller.ack(0, 0));
        assert!(roller.ack(1, 0));
        // Finishing starts the queued roll immediately.
        assert_eq!(roller.finish(), Some(1));
        assert!(roller.rolling());
        assert!(!roller.ack(0, 1));
        assert!(roller.ack(1, 1));
        assert_eq!(roller.finish(), None);
        assert_eq!(roller.epochs_closed(), 2);
    }

    #[test]
    fn dead_site_completes_inflight_roll() {
        let mut roller = EpochRoller::new(3);
        assert_eq!(roller.request(), Some(0));
        assert!(!roller.ack(0, 0));
        assert!(!roller.ack(1, 0));
        // Site 2 crashes with its ack outstanding: the roll completes.
        assert!(roller.mark_dead(2));
        assert!(roller.all_acked());
        assert_eq!(roller.finish(), None);
        assert_eq!(roller.epochs_closed(), 1);
        // Idempotent while already dead and not rolling.
        assert!(!roller.mark_dead(2));
    }

    #[test]
    fn dead_site_preacked_in_future_rolls() {
        let mut roller = EpochRoller::new(3);
        assert!(!roller.mark_dead(1));
        assert_eq!(roller.request(), Some(0));
        // The dead slot is pre-acked and its (impossible) updates are not
        // attributed to the closing epoch.
        assert!(!roller.is_stale(1));
        assert!(roller.is_stale(0) && roller.is_stale(2));
        assert!(!roller.ack(0, 0));
        assert!(roller.ack(2, 0));
        assert_eq!(roller.finish(), None);
        // After rejoin the next roll waits on it again.
        roller.mark_live(1);
        assert_eq!(roller.request(), Some(1));
        assert!(roller.is_stale(1));
        assert!(!roller.all_acked());
    }

    #[test]
    fn all_dead_roll_completes_on_request() {
        let mut roller = EpochRoller::new(2);
        roller.mark_dead(0);
        roller.mark_dead(1);
        assert_eq!(roller.request(), Some(0));
        // No ack can ever arrive; the caller's post-broadcast check sees
        // the roll already complete.
        assert!(roller.all_acked());
        assert_eq!(roller.finish(), None);
        assert_eq!(roller.epochs_closed(), 1);
    }

    #[test]
    fn duplicate_acks_ignored() {
        let mut roller = EpochRoller::new(2);
        roller.request();
        assert!(!roller.ack(0, 0));
        assert!(!roller.ack(0, 0));
        assert!(roller.ack(1, 0));
    }
}
