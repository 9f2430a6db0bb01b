//! Live threaded cluster runtime.
//!
//! Stands in for the paper's AWS EC2 deployment (§VI-A): one OS thread per
//! site plus a coordinator, communicating over a pluggable [`Transport`]
//! (in-process links by default, Unix-domain sockets via
//! [`crate::transport::UdsTransport`]) with genuinely asynchronous,
//! possibly out-of-order message delivery — exactly the conditions the
//! round-tagged counter protocols are built for. See DESIGN.md for the
//! thread/channel topology and shutdown protocol, and DESIGN.md §6 for the
//! transport abstraction.
//!
//! Ingest is *chunked end to end* (DESIGN.md §2–§3): the driver re-chunks
//! the incoming [`EventChunk`] stream into per-site chunks of
//! [`ClusterConfig::chunk`] events, so one feed push carries a whole slab
//! of events instead of one heap-allocated `Vec` each; a site blocks on one
//! inbox for chunks and broadcasts alike, sweeps each event's counters with
//! [`dsbn_counters::protocol::sweep`] — the kernel the simulator runs too
//! (DESIGN.md §3.4) — and accumulates the events' increments, plus at most
//! one report per counter (a later one supersedes the pending one), into
//! one multi-event packet, flushed at the chunk boundary or on size; the
//! coordinator decodes each packet in one allocation-free pass. Control
//! traffic (sync replies, flush acks, epoch settlements) always *forces a
//! flush first*, which keeps the FIFO attribution and quiescence arguments
//! of DESIGN.md §3/§5 intact. `chunk = 1` — the default — is the per-event
//! pipeline as a degenerate case.
//!
//! There is one coordinator thread (DESIGN.md §6.2), as in the paper's
//! deployment: it keeps everything order-sensitive — accounting, broadcast
//! fan-out, flush quiescence, epoch settlement — and applies every update
//! to the per-counter open-epoch state itself, in transport arrival order.
//!
//! [`MessageStats::bytes`] measures frame bytes that actually crossed a
//! link; `MessageStats::packets` counts the physical bundled sends (so
//! chunking lowers `packets`, and — through supersede — the reports that
//! leave a site, but never an increment). Transport envelope overhead (UDS
//! length prefixes) is never counted, so accounting is
//! transport-invariant.
//!
//! A run ends with a deterministic *quiescence handshake* (DESIGN.md §3.2)
//! instead of a wall-clock drain: after every site has exhausted its
//! stream, the coordinator repeatedly issues `Flush(epoch)` barriers down
//! the (FIFO) down lanes and waits for all `k` acks; an epoch during
//! which the coordinator issued no new broadcast proves that no reply can
//! still be in flight, so shutdown never races in-flight sync traffic and
//! never depends on timing.
//!
//! Every decode path is panic-free: malformed packets, out-of-range
//! counter ids, and misplaced frames surface as a typed
//! [`ClusterError`] from [`run_cluster`] / [`run_cluster_on`] instead of
//! killing a thread and hanging the join — a prerequisite for feeding the
//! runtime from a real socket.
//!
//! Used by `exp_fig7_8` (training runtime and throughput vs. number of
//! sites) and by `dsbn_core`'s `run_cluster_tracker`, which layers the
//! paper's full UPDATE/QUERY tracker logic on top of this runtime.

use crate::metrics::MessageStats;
use crate::partition::{Partitioner, SiteAssigner};
use crate::snapshot::{CounterSnapshot, SnapshotHub};
use crate::transport::{
    site_inbox, ChannelTransport, ClusterError, DownPacket, DownSender, Fabric, SiteFeed,
    SiteInbox, SiteInput, Transport, UpPacket, UpSender,
};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver};
use dsbn_counters::msg::{DownMsg, UpMsg};
use dsbn_counters::protocol::{drain, snapshot_into, sweep, CounterProtocol};
use dsbn_counters::wire::{encode, encode_event, frame_len, visit_packet, Frame, WireItem};
use dsbn_datagen::EventChunk;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One injected site fault (fail-stop model, DESIGN.md §8): the stream
/// driver kills `site` once it has streamed `kill_at` events and — when
/// `revive_at` is set — revives it with *fresh* protocol state once it has
/// streamed `revive_at` events. A crash wipes all of the site's unsettled
/// local counts (epoch settlements are the durable checkpoints bounding
/// the loss); arrivals routed to the site while it is down are lost and
/// accounted in [`ChurnReport`]. Kill points are driver-side event counts
/// and land *exactly*: the kill order rides the driver→site feed lane
/// in-band (FIFO with the arrivals), so the site crashes after ingesting
/// precisely the events routed to it before `kill_at` — every scheduled
/// kill fires, on every interleaving. Revives detour through the
/// coordinator (the catch-up payload comes from its protocol states) and
/// land asynchronously, like every other cluster boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteFault {
    /// Which site to kill.
    pub site: usize,
    /// Kill after the driver has streamed this many events.
    pub kill_at: u64,
    /// Revive after the driver has streamed this many events (must be
    /// `> kill_at`); `None` keeps the site down for the rest of the run.
    pub revive_at: Option<u64>,
}

impl SiteFault {
    /// A seeded churn schedule: up to `faults` kill/revive faults over an
    /// `events`-long stream, each targeting a *distinct* site (so at least
    /// one site always survives), with kills spread over the middle half
    /// of the stream, revives following after roughly an eighth to a
    /// quarter of it, and about one kill in four left permanent.
    pub fn schedule(k: usize, events: u64, faults: usize, seed: u64) -> Vec<SiteFault> {
        assert!(k > 1, "a churn schedule needs at least two sites");
        assert!(events >= 8, "a churn schedule needs at least eight events");
        let n = faults.min(k - 1);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x00c4_a54f);
        let mut sites: Vec<usize> = (0..k).collect();
        // Partial Fisher-Yates: the first n entries are distinct targets.
        for i in 0..n {
            let j = rng.gen_range(i..k);
            sites.swap(i, j);
        }
        (0..n)
            .map(|i| {
                let kill_at = rng.gen_range(events / 4..events / 2);
                let revive_at = if rng.gen_range(0..4u32) == 0 {
                    None
                } else {
                    Some(kill_at + rng.gen_range(events / 8..events / 4))
                };
                SiteFault { site: sites[i], kill_at, revive_at }
            })
            .collect()
    }
}

/// Churn section of a [`ClusterReport`]: what the injected faults cost.
/// The load-bearing reconciliation identity — pinned by the churn suite —
/// is that for every counter `c`, `exact_totals[c] + lost_counts[c]`
/// equals the full-stream count bit-for-bit, for any protocol.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnReport {
    /// Site crashes confirmed by the coordinator (`Crashed` markers).
    pub kills: u64,
    /// Rejoins the coordinator performed (`Revive` handshakes sent).
    pub revives: u64,
    /// Events discarded on arrival at a dead (or crashing) site without
    /// ever being ingested. Counts ingested-then-wiped by crashes are in
    /// `lost_counts` only.
    pub events_lost: u64,
    /// Per-counter increments lost to churn: counts wiped by a crash
    /// (unsettled local state) plus counts of events discarded while dead.
    pub lost_counts: Vec<u64>,
    /// Per-site cumulative downtime (crash to revive, or to shutdown for
    /// sites that never rejoined), measured at the site.
    pub site_downtime: Vec<Duration>,
    /// Crashes whose final in-flight packet was torn mid-flush (a nonempty
    /// truncated prefix reached the coordinator and was discarded).
    pub partial_final_packets: u64,
    /// Bytes of those torn prefixes, attributed to the dead site and
    /// discarded whole — applying a prefix would double-count against the
    /// site's wiped (and loss-accounted) local state.
    pub partial_bytes_discarded: u64,
}

impl ChurnReport {
    /// Total fault-injection actions the run carried out.
    pub fn faults_injected(&self) -> u64 {
        self.kills + self.revives
    }
}

/// Chunks a driver → site link holds: the in-flight event bound is
/// `FEED_DEPTH * chunk` per site, so the driver is paced by the slowest
/// site instead of handing it the whole stream.
const FEED_DEPTH: usize = 4;

/// Packets per site the coordinator's up inbox holds (`UP_DEPTH * k + 1`,
/// the one for the driver). A packet carries up to a chunk of events, so
/// this depth is the coordinator's feedback lag counted in events.
const UP_DEPTH: usize = 4;

/// A site flushes its accumulated update packet once it reaches this many
/// bytes, even mid-chunk (bounds buffering; the packet also always flushes
/// at a chunk boundary and before any control frame).
const FLUSH_BYTES: usize = 64 * 1024;

/// Cluster runtime configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of sites (coordinator excluded), `k`.
    pub k: usize,
    /// Base RNG seed (per-site RNGs derive from it).
    pub seed: u64,
    /// How events are routed to sites.
    pub partitioner: Partitioner,
    /// Events per driver → site chunk (cross-event ingest batching). `1` —
    /// the default — is the per-event pipeline as a degenerate case: every
    /// event travels as its own chunk and flushes its own packet.
    pub chunk: usize,
    /// Epoch-ring decay (DESIGN.md §5): close an epoch after every this
    /// many streamed events. `None` — the default, and the paper's setting
    /// — runs the whole stream as one open epoch; every pre-epoch code
    /// path is exactly this degenerate case.
    pub epoch_boundary: Option<u64>,
    /// Closed epochs retained at the coordinator (ring capacity `K`).
    /// Ignored unless `epoch_boundary` is set.
    pub epoch_ring: usize,
    /// Snapshot publish hub (DESIGN.md §7). When set, the coordinator
    /// mints a [`CounterSnapshot`] at every epoch settlement (so enable
    /// epoch rolling to get mid-stream snapshots) and the driver publishes
    /// the final quiescent state — with the exact oracle attached — after
    /// the run. `None` — the default — publishes nothing.
    pub publish: Option<SnapshotHub>,
    /// Injected site faults (DESIGN.md §8), fired by the stream driver at
    /// their event thresholds. Empty — the default — injects nothing, and
    /// every fault path is exactly dead code.
    pub faults: Vec<SiteFault>,
}

impl ClusterConfig {
    /// Paper defaults: uniform random routing, per-event chunks, no epoch
    /// rolling.
    pub fn new(k: usize, seed: u64) -> Self {
        ClusterConfig {
            k,
            seed,
            partitioner: Partitioner::UniformRandom,
            chunk: 1,
            epoch_boundary: None,
            epoch_ring: 8,
            publish: None,
            faults: Vec::new(),
        }
    }

    /// Batch `chunk` events per driver → site send (and per site packet
    /// flush).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Enable epoch rolling every `boundary` events with a `ring`-deep
    /// closed-epoch ring.
    pub fn with_epochs(mut self, boundary: u64, ring: usize) -> Self {
        self.epoch_boundary = Some(boundary);
        self.epoch_ring = ring;
        self
    }

    /// Publish counter snapshots to `hub`: one per epoch settlement plus
    /// the final quiescent state (see [`SnapshotHub`]).
    pub fn with_publish(mut self, hub: SnapshotHub) -> Self {
        self.publish = Some(hub);
        self
    }

    /// Inject the given site faults (e.g. from [`SiteFault::schedule`]).
    pub fn with_faults(mut self, faults: Vec<SiteFault>) -> Self {
        self.faults = faults;
        self
    }
}

/// Result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Message statistics (paper accounting + packets + wire bytes).
    pub stats: MessageStats,
    /// Wall-clock window from the coordinator's first update packet to
    /// its last (the paper's runtime metric, Fig. 7). Despite the name it
    /// is not busy time: the time the coordinator spends waiting on its
    /// inbox inside the window is included.
    pub coordinator_busy: Duration,
    /// Wall-clock time of the whole run, including thread setup/teardown.
    pub wall_time: Duration,
    /// Number of events streamed.
    pub events: u64,
    /// Flush epochs the quiescence handshake needed (≥ 1; more than one
    /// means a broadcast cascade was still settling at end-of-stream).
    pub flush_epochs: u64,
    /// Final coordinator estimates, one per counter. With epoch rolling
    /// these cover only the *open* (last, partial) epoch.
    pub estimates: Vec<f64>,
    /// Exact per-counter totals of the *surviving* counts, reconstructed
    /// from site states at shutdown (an oracle for accuracy metrics; not
    /// visible to a real coordinator). Cumulative across all epochs. With
    /// no injected faults this is the whole stream; under churn the
    /// crash-lost counts live in [`ChurnReport::lost_counts`], and
    /// `exact_totals[c] + churn.lost_counts[c]` is the full-stream count.
    pub exact_totals: Vec<u64>,
    /// Stream epochs closed by `EpochRoll` (0 when rolling is disabled).
    pub epochs: u64,
    /// Closed epochs that fell off the retention ring (`epochs` minus the
    /// retained `epoch_estimates.len()`): these counts are gone from the
    /// coordinator, which a decay consumer must know rather than silently
    /// reading a shorter ring.
    pub dropped_epochs: u64,
    /// Ring of closed-epoch coordinator estimates, oldest first, at most
    /// `ClusterConfig::epoch_ring` entries; each inner vector has one
    /// estimate per counter, frozen when the epoch's roll completed.
    pub epoch_estimates: Vec<Vec<f64>>,
    /// Exact per-epoch totals for the same retained epochs (oracle,
    /// reconstructed from per-site snapshots taken at each site's roll) —
    /// same shape as `epoch_estimates`.
    pub epoch_exact_totals: Vec<Vec<u64>>,
    /// Exact totals of the open epoch only (oracle; equals `exact_totals`
    /// when rolling is disabled).
    pub open_epoch_exact_totals: Vec<u64>,
    /// Cumulative settled counts across *all* closed epochs (each roll's
    /// settlement is exact, so this is coordinator-visible, unlike the
    /// oracles above), one per counter. All zeros when rolling is
    /// disabled. `settled_totals[c] + estimates[c]` is the cumulative
    /// whole-stream read of counter `c` — the ring may have dropped old
    /// epochs, this never does.
    pub settled_totals: Vec<f64>,
    /// What the injected faults cost (all-zero without faults).
    pub churn: ChurnReport,
}

impl ClusterReport {
    /// Events per second over the [`Self::coordinator_busy`] window
    /// (Fig. 8) — the span from the first update packet to the last, idle
    /// gaps included, so it is not a rate per second of busy time.
    ///
    /// Returns `f64::NAN` when the busy window is below the clock's
    /// resolution (e.g. an empty or near-instant run): reporting `0.0`
    /// events/sec for a run that processed events would be a lie.
    pub fn throughput(&self) -> f64 {
        let secs = self.coordinator_busy.as_secs_f64();
        if secs <= 0.0 {
            return f64::NAN;
        }
        self.events as f64 / secs
    }
}

/// A site's books, handed back to the driver at exit: the inputs of the
/// exact oracles and the site's half of the churn ledger. The epoch oracle
/// is bounded — the report needs the sum over all closed epochs and the
/// last `ring_cap` of them, never the whole history.
struct SiteLedger {
    site_id: usize,
    /// Local counts of the open epoch, drained from the states at exit.
    open: Vec<u64>,
    /// Per-counter sum of every closed epoch's local counts.
    closed_sum: Vec<u64>,
    /// Rolls this site observed, live or dead.
    rolls: u64,
    /// The last `ring_cap` closed epochs' local counts, oldest first.
    ring: VecDeque<Vec<u64>>,
    ring_cap: usize,
    /// Per-counter increments lost to churn (wiped at crashes, discarded
    /// while dead) — the site's half of the reconciliation identity.
    lost: Vec<u64>,
    /// Events discarded on arrival without being ingested.
    events_lost: u64,
    /// Cumulative downtime over all outages.
    downtime: Duration,
}

impl SiteLedger {
    /// Record one closed epoch's local counts.
    fn close_epoch(&mut self, snap: Vec<u64>) {
        add_into(&mut self.closed_sum, &snap);
        if self.ring.len() == self.ring_cap {
            self.ring.pop_front();
        }
        self.ring.push_back(snap);
        self.rolls += 1;
    }
}

/// `into[c] += from[c]` — the per-counter ledger fold.
fn add_into(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// Per-site-thread state: the protocol site states plus the chunked send
/// path — one open packet that accumulates the events' updates and
/// flushes on size, at chunk boundaries, and (always) before any control
/// frame leaves the site. The flush-before-control rule is what keeps the
/// per-site FIFO attribution arguments (quiescence, epoch settlement —
/// DESIGN.md §3.2/§5.1) valid under coalescing: no update can linger in a
/// local buffer while an ack that must follow it goes out.
///
/// Generic over the transport's up-sending half `U`, so the same loop runs
/// over a channel or a socket.
struct SiteWorker<'a, P: CounterProtocol, F, U: UpSender> {
    protocols: &'a [P],
    map_event: &'a F,
    up_tx: U,
    states: Vec<P::Site>,
    ledger: SiteLedger,
    rng: SmallRng,
    /// Scratch: the current chunk's counter ids, back to back at a fixed
    /// per-event stride (the layout's `map_chunk` slab).
    ids: Vec<u32>,
    /// Scratch: the current event's increments, or a broadcast's replies.
    batch: Vec<(u32, UpMsg)>,
    /// The open packet's encoded bytes: every event's increments, in
    /// order (reused across flushes).
    pkt: BytesMut,
    /// The open packet's reports — at most one `Report` / `Cumulative` per
    /// counter, encoded behind the increments when the packet closes. A
    /// later one for the same counter *supersedes* the pending one: the
    /// coordinator keeps only a site's last in-round report (HYZ) or its
    /// largest cumulative count (deterministic), so the superseded one
    /// carries nothing it would use (DESIGN.md §4).
    reports: Vec<(u32, UpMsg)>,
    /// `slot[c]` is one past counter `c`'s index in `reports`, 0 for none.
    slot: Vec<u32>,
    /// Encoded size of `reports`, counted toward [`FLUSH_BYTES`].
    report_bytes: usize,
    /// A `Kill` arrived: crash mid-way through the next chunk (tearing the
    /// in-flight packet) or at end-of-stream, whichever comes first.
    dying: bool,
    /// Crashed: discard events and broadcasts, never ack a barrier, wait
    /// for `Revive`.
    dead: bool,
    /// When the current outage started (set at the crash).
    down_since: Option<Instant>,
}

impl<'a, P, F, U> SiteWorker<'a, P, F, U>
where
    P: CounterProtocol,
    F: Fn(&EventChunk, &mut Vec<u32>),
    U: UpSender,
{
    /// A live site with fresh protocol states, keeping the last `ring_cap`
    /// epochs in its oracle.
    fn new(
        site_id: usize,
        protocols: &'a [P],
        map_event: &'a F,
        up_tx: U,
        seed: u64,
        ring_cap: usize,
    ) -> Self {
        let n = protocols.len();
        SiteWorker {
            protocols,
            map_event,
            up_tx,
            states: protocols.iter().map(|p| p.new_site()).collect(),
            ledger: SiteLedger {
                site_id,
                open: vec![0; n],
                closed_sum: vec![0; n],
                rolls: 0,
                ring: VecDeque::new(),
                ring_cap,
                lost: vec![0; n],
                events_lost: 0,
                downtime: Duration::ZERO,
            },
            rng: SmallRng::seed_from_u64(seed ^ (site_id as u64).wrapping_mul(0x9e37_79b9)),
            ids: Vec::new(),
            batch: Vec::new(),
            pkt: BytesMut::new(),
            reports: Vec::new(),
            slot: vec![0; n],
            report_bytes: 0,
            dying: false,
            dead: false,
            down_since: None,
        }
    }

    /// Add one update an event produced to the open packet: a `Report` or
    /// `Cumulative` replaces the one pending for its counter, anything
    /// else joins the event's batch.
    fn push_update(&mut self, counter: u32, up: UpMsg) {
        if !matches!(up, UpMsg::Report { .. } | UpMsg::Cumulative { .. }) {
            self.batch.push((counter, up));
            return;
        }
        let new_len = frame_len(&Frame::Up { counter, msg: up });
        let slot = &mut self.slot[counter as usize];
        if *slot == 0 {
            self.reports.push((counter, up));
            *slot = self.reports.len() as u32;
            self.report_bytes += new_len;
        } else {
            let old = std::mem::replace(&mut self.reports[*slot as usize - 1].1, up);
            self.report_bytes =
                self.report_bytes + new_len - frame_len(&Frame::Up { counter, msg: old });
        }
    }

    /// Close the open packet into `pkt`: the pending reports, then `batch`
    /// (a broadcast's replies — so a reply never precedes a report of its
    /// own round).
    fn seal(&mut self) {
        for &(counter, msg) in &self.reports {
            self.slot[counter as usize] = 0;
            encode(&Frame::Up { counter, msg }, &mut self.pkt);
        }
        self.reports.clear();
        self.report_bytes = 0;
        encode_event(&mut self.batch, &mut self.pkt);
    }

    /// Seal and send the open packet, if any. Returns `false` when the up
    /// link is gone (the run is over).
    fn flush(&mut self) -> bool {
        self.seal();
        if self.pkt.is_empty() {
            return true;
        }
        let payload = Bytes::copy_from_slice(&self.pkt);
        self.pkt.clear();
        self.up_tx.send(UpPacket::Updates { site: self.ledger.site_id, payload }).is_ok()
    }

    /// Report an unrecoverable error up (so the coordinator aborts the run
    /// with it) and stop this site. Always returns `false`.
    fn fault(&mut self, error: ClusterError) -> bool {
        let _ = self.up_tx.send(UpPacket::Fault { site: self.ledger.site_id, error });
        false
    }

    /// Take one delivered chunk: run UPDATE for events `[0, keep)`,
    /// coalescing their wire encodings into the packet buffer, and write
    /// events `[keep, len)` off into the loss ledger un-ingested (each id
    /// of the mapped slab is exactly one lost increment). A live site keeps
    /// the whole chunk, a dead one nothing; a site holding a kill order
    /// keeps the first half with `hold` set — every flush suppressed, so
    /// the updates pile up in the buffer — and then [`Self::crash`]es,
    /// tearing the buffered packet mid-frame: the deterministic
    /// reproduction of a site dying mid-flush.
    ///
    /// Unless held, the packet flushes on the size threshold (pending
    /// reports included) and at the chunk boundary — never per report: the
    /// coordinator sees a site's reports at most one chunk late (DESIGN.md
    /// §4). Control traffic flushes it first wherever it is produced
    /// (flush-before-control).
    fn ingest(&mut self, chunk: &EventChunk, keep: usize, hold: bool) -> bool {
        if chunk.is_empty() {
            return hold || self.flush();
        }
        // Map the whole chunk in one sweep (the layout's stride-table bulk
        // kernel), then walk the id slab at its fixed per-event stride —
        // the `2n` of Algorithm 2 under a layout mapping; test doubles may
        // emit fewer. The scratch is taken out of `self` for the duration
        // so mid-loop flushes can borrow the worker.
        let mut ids = std::mem::take(&mut self.ids);
        (self.map_event)(chunk, &mut ids);
        if !ids.len().is_multiple_of(chunk.len()) {
            let detail = format!(
                "{} counter ids for {} events: not a fixed per-event stride",
                ids.len(),
                chunk.len()
            );
            self.ids = ids;
            return self.fault(ClusterError::Protocol { context: "map_event", detail });
        }
        let stride = ids.len() / chunk.len();
        let mut ok = true;
        for e in 0..keep {
            let mut rest = &ids[e * stride..(e + 1) * stride];
            while let Some((pos, up)) = sweep(self.protocols, &mut self.states, rest, &mut self.rng)
            {
                self.push_update(rest[pos], up);
                rest = &rest[pos + 1..];
            }
            encode_event(&mut self.batch, &mut self.pkt);
            if !hold && self.pkt.len() + self.report_bytes >= FLUSH_BYTES && !self.flush() {
                ok = false;
                break;
            }
        }
        for &cid in &ids[keep * stride..] {
            self.ledger.lost[cid as usize] += 1;
        }
        self.ledger.events_lost += (chunk.len() - keep) as u64;
        self.ids = ids;
        ok && (hold || self.flush())
    }

    /// Execute the crash (fail-stop): send the torn prefix of whatever was
    /// still unflushed as the `Crashed` marker's partial payload — the
    /// *last* packet on this site's FIFO up link, so the coordinator has
    /// applied everything the site delivered when it learns of the death —
    /// then wipe all protocol state into the loss ledger and go dark.
    fn crash(&mut self) -> bool {
        self.seal();
        let partial = Bytes::copy_from_slice(&self.pkt[..self.pkt.len() / 2]);
        self.pkt.clear();
        let lost = &mut self.ledger.lost;
        drain(self.protocols, &mut self.states, |c, count| lost[c] += count);
        self.dying = false;
        self.dead = true;
        self.down_since = Some(Instant::now());
        self.up_tx.send(UpPacket::Crashed { site: self.ledger.site_id, partial }).is_ok()
    }

    /// Come back from the dead with the protocol states already fresh
    /// (wiped at the crash): close the outage ledger and fast-forward into
    /// the current protocol rounds via the coordinator's catch-up frames —
    /// FIFO delivery on the down link guarantees they precede any
    /// broadcast sent after the rejoin.
    fn revive(&mut self, catchup: Bytes) -> bool {
        if !self.dead {
            return true; // never sent by our coordinator; a no-op is safe
        }
        self.dead = false;
        if let Some(t) = self.down_since.take() {
            self.ledger.downtime += t.elapsed();
        }
        self.handle_data(catchup)
    }

    /// Close an epoch at this site: flush everything produced before the
    /// roll (buffered updates and replies — per-site FIFO then guarantees
    /// the coordinator sees all of the closing epoch's traffic before the
    /// ack), snapshot the exact per-epoch deltas (states were fresh at the
    /// previous roll, so the local count *is* the delta), reset, and send
    /// the settlement control packet: one `Cumulative` frame per nonzero
    /// counter — the epoch's terminal sync — followed by the ack. A dead
    /// site only records an all-zero epoch (its counts were wiped into the
    /// loss ledger at the crash, or discarded on arrival): the per-epoch
    /// oracle needs every site to observe every roll exactly once.
    fn roll_epoch(&mut self, epoch: u32) -> bool {
        if self.dead {
            self.ledger.close_epoch(vec![0; self.protocols.len()]);
            return true;
        }
        if !self.flush() {
            return false;
        }
        // The packet buffer is empty after the flush; borrow it for the
        // control packet.
        let mut snap = vec![0u64; self.protocols.len()];
        let pkt = &mut self.pkt;
        drain(self.protocols, &mut self.states, |c, value| {
            snap[c] = value;
            encode(&Frame::Up { counter: c as u32, msg: UpMsg::Cumulative { value } }, pkt);
        });
        encode(&Frame::EpochAck { epoch }, &mut self.pkt);
        self.ledger.close_epoch(snap);
        let payload = Bytes::copy_from_slice(&self.pkt);
        self.pkt.clear();
        self.up_tx.send(UpPacket::Control { site: self.ledger.site_id, payload }).is_ok()
    }

    /// Handle one down packet; returns `false` when the run is over (link
    /// gone) or this site faulted (the fault is forwarded up first).
    fn handle_down(&mut self, pkt: DownPacket) -> bool {
        match pkt {
            DownPacket::Data(payload) => self.handle_data(payload),
            // The down link is FIFO, so by the time the barrier is read
            // every earlier broadcast has been handled and its replies
            // sent — the flush below pushes anything still buffered onto
            // the (per-site FIFO) up link ahead of this ack. A dead site
            // never acks: the coordinator stopped expecting it when the
            // `Crashed` marker (which preceded this barrier) arrived.
            DownPacket::Flush(epoch) => {
                if self.dead {
                    return true;
                }
                if !self.flush() {
                    return false;
                }
                self.up_tx.send(UpPacket::FlushAck { epoch }).is_ok()
            }
            // The transport substrate failed on our down link: forward the
            // fault up so the coordinator aborts, and stop.
            DownPacket::Fault(error) => self.fault(error),
            DownPacket::Revive(catchup) => self.revive(catchup),
        }
    }

    /// Decode and apply one broadcast-data payload (a down packet's, or a
    /// rejoin catch-up's — same frames, same rules). A dead site decodes
    /// the packet too, but discards every broadcast in it.
    fn handle_data(&mut self, payload: Bytes) -> bool {
        let mut ok = true;
        let mut err: Option<ClusterError> = None;
        let res = visit_packet(payload, |item| {
            if !ok || err.is_some() {
                return;
            }
            match item {
                WireItem::Down { .. } if self.dead => {}
                WireItem::Down { counter, msg } => {
                    let c = counter as usize;
                    if c >= self.protocols.len() {
                        err = Some(ClusterError::Protocol {
                            context: "down packet",
                            detail: format!(
                                "counter {counter} out of range ({} counters)",
                                self.protocols.len()
                            ),
                        });
                        return;
                    }
                    if let Some(reply) =
                        self.protocols[c].handle_down(&mut self.states[c], msg, &mut self.rng)
                    {
                        self.batch.push((counter, reply));
                    }
                }
                WireItem::EpochRoll { epoch } => ok = self.roll_epoch(epoch),
                WireItem::Up { .. } | WireItem::EpochAck { .. } => {
                    err = Some(ClusterError::Protocol {
                        context: "down packet",
                        detail: "up frame on a down link".into(),
                    });
                }
            }
        });
        if let Some(e) = err {
            return self.fault(e);
        }
        if let Err(source) = res {
            return self.fault(ClusterError::Wire {
                context: "down packet",
                site: Some(self.ledger.site_id),
                source,
            });
        }
        if !ok {
            return false;
        }
        if self.batch.is_empty() {
            return true;
        }
        // Sync replies are time-critical control traffic: the flush
        // encodes them behind whatever is already buffered and ships it.
        self.flush()
    }
}

/// Coordinator-side site lifecycle under fault injection (DESIGN.md §8).
/// `Dying` is the in-flight window between the kill order going down and
/// the site's terminal `Crashed` marker coming back up: updates from a
/// dying site are still applied normally (and forgotten wholesale when the
/// marker lands). FIFO on the driver and site links guarantees no site is
/// still `Dying` once every stream has closed, which is what keeps the
/// phase-2 flush-barrier accounting (`alive_sites` expected acks) exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteStatus {
    Alive,
    Dying,
    Dead,
}

/// The coordinator (DESIGN.md §6.2): one struct on one thread, as in the
/// paper's deployment. It owns every counter's open-epoch `P::Coord`
/// state, the down links, the epoch-roll handshake and settlement ring
/// (§5), the site roster (§8) and all accounting, and handles packets in
/// transport arrival order. A broadcast is issued inside the update
/// packet that triggered it, and a roll never starts inside one, so no
/// broadcast of a closing epoch can follow its `EpochRoll` down the links.
struct Coord<'a, P: CounterProtocol, D: DownSender> {
    protocols: &'a [P],
    k: usize,
    /// `coords[c]` is counter `c`'s open-epoch state.
    coords: Vec<P::Coord>,
    down_txs: Vec<D>,
    stats: MessageStats,
    /// Which sites have acked the in-flight roll. A dead site is pre-acked
    /// in every roll: it can never answer, and its per-epoch counts were
    /// wiped at the crash.
    acked: Vec<bool>,
    /// A roll is in flight: it closes epoch `epochs_closed`.
    rolling: bool,
    /// Roll requests that arrived while one was in flight (rolls
    /// serialize; each starts when the one before it settles).
    queued: u64,
    /// Epochs fully closed so far.
    epochs_closed: u32,
    /// Per-counter settlement accumulator for the closing epoch: each
    /// site's ack carries its exact per-epoch counts (the terminal sync
    /// that closes the epoch, mirroring how HYZ anchors every round).
    settle: Vec<u64>,
    ring_cap: usize,
    /// Settled closed-epoch counts, oldest first, capped at `ring_cap`.
    closed_estimates: VecDeque<Vec<f64>>,
    /// Cumulative settled counts across *all* closed epochs — unlike the
    /// ring it never truncates, so `settled_cum + open` is always the
    /// whole-stream cumulative read (what a snapshot's readers see).
    settled_cum: Vec<f64>,
    /// Broadcasts issued since the last flush barrier went out; a
    /// completed flush epoch with zero of these proves quiescence.
    downs_since_flush: u64,
    /// Snapshot publish hub; `None` mints nothing.
    hub: Option<SnapshotHub>,
    /// Events per epoch (0 when rolling is disabled); only used to stamp
    /// the approximate `events` field on mid-stream snapshots.
    boundary: u64,
    /// The site roster: per-site fault-injection lifecycle, all `Alive` on
    /// a clean run. The one record of which sites are dead.
    status: Vec<SiteStatus>,
    /// Revive orders that arrived while the kill was still in flight
    /// (site `Dying`): applied as soon as the `Crashed` marker lands.
    pending_revive: Vec<bool>,
    /// Kills, revives and torn final packets; the driver adds the sites'
    /// loss ledgers after the run.
    churn: ChurnReport,
    /// Arrival of the first and the last update packet.
    busy: Option<(Instant, Instant)>,
}

impl<'a, P: CounterProtocol, D: DownSender> Coord<'a, P, D> {
    fn new(
        protocols: &'a [P],
        k: usize,
        ring_cap: usize,
        down_txs: Vec<D>,
        hub: Option<SnapshotHub>,
        boundary: u64,
    ) -> Self {
        let n = protocols.len();
        Coord {
            protocols,
            k,
            coords: protocols.iter().map(|p| p.new_coord(k)).collect(),
            down_txs,
            stats: MessageStats::default(),
            acked: vec![false; k],
            rolling: false,
            queued: 0,
            epochs_closed: 0,
            settle: vec![0; n],
            ring_cap,
            closed_estimates: VecDeque::new(),
            settled_cum: vec![0.0; n],
            downs_since_flush: 0,
            hub,
            boundary,
            status: vec![SiteStatus::Alive; k],
            pending_revive: vec![false; k],
            churn: ChurnReport::default(),
            busy: None,
        }
    }

    /// Sites still expected to ack flush barriers: everything not `Dead`.
    /// Barriers only go out in phase 2, where FIFO guarantees no site is
    /// `Dying` (see the phase-1/phase-2 comments at the call sites).
    fn alive_sites(&self) -> usize {
        self.status.iter().filter(|s| **s != SiteStatus::Dead).count()
    }

    /// Whether an update arriving now from `site` belongs to the *closing*
    /// epoch: a roll is in flight and the site has not acked it. Per-site
    /// FIFO makes this exact — a site's post-roll updates can only arrive
    /// after its ack.
    fn is_stale(&self, site: usize) -> bool {
        self.rolling && !self.acked[site]
    }

    /// Driver fault injection. A kill only marks the site dying: the kill
    /// itself rides the driver→site feed lane in-band (`SiteFeed::Kill`,
    /// FIFO with the arrivals — exact kill points), and the marker here
    /// sequences revives, deferring any that arrive before the site's
    /// terminal `Crashed` marker does; a kill for a site already dying or
    /// dead is a no-op (fail-stop). A revive rejoins a dead site now,
    /// defers the rejoin while the kill is still in flight (FIFO forbids
    /// reviving a site that has not finished dying), and is a no-op for a
    /// site that never died.
    fn handle_inject(&mut self, site: usize, kill: bool) -> Result<(), ClusterError> {
        if site >= self.k {
            return Err(ClusterError::Protocol {
                context: "fault injection",
                detail: format!("fault for unknown site {site} (k = {})", self.k),
            });
        }
        match (kill, self.status[site]) {
            (true, SiteStatus::Alive) => self.status[site] = SiteStatus::Dying,
            (false, SiteStatus::Dead) => self.rejoin(site),
            (false, SiteStatus::Dying) => self.pending_revive[site] = true,
            _ => {}
        }
        Ok(())
    }

    /// One multi-event update packet from `site`, decoded in a single
    /// allocation-free pass; every broadcast an update triggers is issued
    /// on the spot. A `stale` packet comes from a site that has not yet
    /// acked the in-flight roll: it was sent before the site rolled and
    /// belongs to the *closing* epoch. Its updates are counted but
    /// dropped, because the site's settlement — its exact per-epoch
    /// counts, carried by the ack that follows them — supersedes anything
    /// they could contribute. A closing epoch cannot keep running its
    /// protocol: a sync is a global barrier, and sites already in the new
    /// epoch would answer a cross-epoch sync as stale, wedging it forever.
    ///
    /// An up message of a kind the counter's protocol does not take
    /// ([`CounterProtocol::accepts`]) is a protocol error: the bytes are
    /// wire-valid, and `handle_up` would miscount or drop it.
    fn handle_updates(&mut self, site: usize, payload: Bytes) -> Result<(), ClusterError> {
        let now = Instant::now();
        self.busy = Some((self.busy.map_or(now, |(first, _)| first), now));
        if site >= self.k {
            return Err(ClusterError::Protocol {
                context: "up packet",
                detail: format!("packet from unknown site {site} (k = {})", self.k),
            });
        }
        self.stats.packets += 1;
        self.stats.bytes += payload.len() as u64;
        // Acks only arrive in control packets, so staleness is a property
        // of the whole packet.
        let stale = self.is_stale(site);
        let protocols = self.protocols;
        let mut err: Option<ClusterError> = None;
        let res = visit_packet(payload, |item| {
            if err.is_some() {
                return;
            }
            let detail = match item {
                WireItem::Up { counter, msg } => match protocols.get(counter as usize) {
                    Some(p) if p.accepts(&msg) => {
                        self.stats.up_messages += 1;
                        if !stale {
                            if let Some(down) =
                                p.handle_up(&mut self.coords[counter as usize], site, msg)
                            {
                                self.issue_broadcast(counter, down);
                            }
                        }
                        return;
                    }
                    Some(_) => {
                        format!("{msg:?} from site {site}: not a kind counter {counter} takes")
                    }
                    None => {
                        format!("counter {counter} out of range ({} counters)", protocols.len())
                    }
                },
                WireItem::Down { .. } | WireItem::EpochRoll { .. } => {
                    format!("down frame from site {site} on the up path")
                }
                WireItem::EpochAck { .. } => {
                    format!("epoch ack from site {site} outside a control packet")
                }
            };
            err = Some(ClusterError::Protocol { context: "up packet", detail });
        });
        if let Some(e) = err {
            return Err(e);
        }
        res.map_err(|source| ClusterError::Wire { context: "up packet", site: Some(site), source })
    }

    /// One control packet from `site`: the site's settlement — exact
    /// per-epoch counts as `Cumulative` frames for its nonzero counters —
    /// followed by its `Frame::EpochAck`. Bytes count, packet/message
    /// tallies do not (lifecycle traffic, DESIGN.md §4). The ack that
    /// completes a roll settles it on the spot ([`Self::settle_rolls`]).
    fn handle_control(&mut self, site: usize, payload: Bytes) -> Result<(), ClusterError> {
        if site >= self.k {
            return Err(ClusterError::Protocol {
                context: "control packet",
                detail: format!("packet from unknown site {site} (k = {})", self.k),
            });
        }
        self.stats.bytes += payload.len() as u64;
        let mut err: Option<ClusterError> = None;
        let res = visit_packet(payload, |item| {
            if err.is_some() {
                return;
            }
            let detail = match item {
                WireItem::Up { counter, msg: UpMsg::Cumulative { value } } => {
                    let n = self.settle.len();
                    match self.settle.get_mut(counter as usize) {
                        Some(s) => {
                            *s += value;
                            return;
                        }
                        None => {
                            format!("settlement for counter {counter} out of range ({n} counters)")
                        }
                    }
                }
                // Transport-reachable: a confused peer can ack an epoch
                // that is not closing, so this is checked, not asserted.
                WireItem::EpochAck { epoch } if self.rolling && epoch == self.epochs_closed => {
                    self.ack(site);
                    return;
                }
                WireItem::EpochAck { epoch } => {
                    format!("unexpected epoch ack {epoch} from site {site}")
                }
                other => format!("non-control frame {other:?} in a control packet"),
            };
            err = Some(ClusterError::Protocol { context: "control packet", detail });
        });
        if let Some(e) = err {
            return Err(e);
        }
        res.map_err(|source| ClusterError::Wire {
            context: "control packet",
            site: Some(site),
            source,
        })
    }

    /// The site's terminal `Crashed` marker arrived (the last packet on
    /// its FIFO up link — everything the site delivered is already
    /// applied). Account the torn final packet, if any: the site died
    /// mid-flush, so the truncated prefix is attributed to it and
    /// discarded whole — its updates came from local state that was wiped
    /// into the site's loss ledger, so applying even the decodable part
    /// would double-count. Then complete any roll the site was the last
    /// holdout of (settled *before* forgetting, exactly as its own ack
    /// would have — the settlement reflects what every site actually
    /// reported), forget the dead site in every open-epoch counter, and
    /// apply a revive that arrived while the kill was still in flight.
    fn handle_crashed(&mut self, site: usize, partial: Bytes) -> Result<(), ClusterError> {
        if site >= self.k {
            return Err(ClusterError::Protocol {
                context: "crash marker",
                detail: format!("crash marker from unknown site {site} (k = {})", self.k),
            });
        }
        if self.status[site] == SiteStatus::Dead {
            return Err(ClusterError::Protocol {
                context: "crash marker",
                detail: format!("site {site} crashed twice without a revive"),
            });
        }
        self.status[site] = SiteStatus::Dead;
        self.churn.kills += 1;
        if !partial.is_empty() {
            self.churn.partial_final_packets += 1;
            self.churn.partial_bytes_discarded += partial.len() as u64;
        }
        if self.rolling {
            self.ack(site);
        }
        self.forget(site);
        if self.pending_revive[site] {
            self.rejoin(site);
        }
        Ok(())
    }

    /// Forget a crashed site's contribution in every open-epoch counter; a
    /// broadcast the forget triggers (e.g. HYZ completing a sync the dead
    /// site was the last holdout of) is issued on the spot.
    fn forget(&mut self, site: usize) {
        for c in 0..self.coords.len() {
            if let Some(down) = self.protocols[c].site_crashed(&mut self.coords[c], site) {
                self.issue_broadcast(c as u32, down);
            }
        }
    }

    /// Re-admit a dead site, then send the revive order with its catch-up
    /// payload: each counter's [`CounterProtocol::catch_up`] frame, so the
    /// returning site re-INITs its protocols mid-round. FIFO on the down
    /// link orders the catch-up ahead of every later broadcast, so the
    /// site can never observe round `r + 1` before `r`.
    fn rejoin(&mut self, site: usize) {
        self.churn.revives += 1;
        self.status[site] = SiteStatus::Alive;
        self.pending_revive[site] = false;
        let mut buf = BytesMut::new();
        for (c, (p, coord)) in self.protocols.iter().zip(&self.coords).enumerate() {
            if let Some(msg) = p.catch_up(coord) {
                encode(&Frame::Down { counter: c as u32, msg }, &mut buf);
            }
        }
        self.stats.bytes += buf.len() as u64;
        let _ = self.down_txs[site].send(DownPacket::Revive(buf.freeze()));
    }

    /// The driver crossed an epoch boundary: start closing the epoch now,
    /// or queue the request behind the roll in flight.
    fn request_roll(&mut self) {
        if self.rolling {
            self.queued += 1;
        } else {
            self.start_roll();
            self.settle_rolls();
        }
    }

    /// Begin closing epoch `epochs_closed`, at exactly this point in the
    /// packet sequence: pre-ack the dead sites, swap in fresh per-counter
    /// state (the old is superseded by the incoming settlements; the dead
    /// sites' absence reaches it with its first broadcast), then broadcast
    /// `EpochRoll` (a control frame: bytes only, and it counts toward
    /// `downs_since_flush` so the quiescence handshake waits for the acks
    /// it will trigger).
    fn start_roll(&mut self) {
        self.rolling = true;
        for (a, s) in self.acked.iter_mut().zip(&self.status) {
            *a = *s == SiteStatus::Dead;
        }
        for (coord, p) in self.coords.iter_mut().zip(self.protocols) {
            *coord = p.new_coord(self.k);
        }
        self.downs_since_flush += 1;
        let mut buf = BytesMut::new();
        encode(&Frame::EpochRoll { epoch: self.epochs_closed }, &mut buf);
        self.send_down_all(buf.freeze());
    }

    /// Count `site` in for the in-flight roll (a repeat changes nothing)
    /// and settle the roll if that completed it.
    fn ack(&mut self, site: usize) {
        self.acked[site] = true;
        self.settle_rolls();
    }

    /// Settle the in-flight roll once every site has acked (dead sites
    /// pre-acked): freeze the settlement, mint, then start a queued roll —
    /// in that order, so the snapshot holds the epoch just settled and the
    /// open estimates still belong to the epoch its readers see as open
    /// (DESIGN.md §7.2). A roll that starts with every site dead is
    /// complete at once, so this loops.
    fn settle_rolls(&mut self) {
        while self.rolling && self.acked.iter().all(|&a| a) {
            self.close_epoch();
            self.mint();
            if self.queued > 0 {
                self.queued -= 1;
                self.start_roll();
            }
        }
    }

    /// Every site acked: freeze the summed settlements into the ring (and
    /// the never-truncating cumulative accumulator) and close the epoch.
    fn close_epoch(&mut self) {
        let settled: Vec<f64> = self.settle.iter().map(|&v| v as f64).collect();
        self.settle.fill(0);
        for (cum, &s) in self.settled_cum.iter_mut().zip(&settled) {
            *cum += s;
        }
        if self.closed_estimates.len() == self.ring_cap {
            self.closed_estimates.pop_front();
        }
        self.closed_estimates.push_back(settled);
        self.rolling = false;
        self.epochs_closed += 1;
    }

    /// The open-epoch estimate of every counter, in id order.
    fn estimates(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.coords.len()];
        snapshot_into(self.protocols, &self.coords, &mut out);
        out
    }

    /// Mint and publish a [`CounterSnapshot`] of the current state. Called
    /// only at epoch settlements — the one mid-stream moment the state is
    /// Definition-2-consistent (DESIGN.md §7). No-op without a hub.
    fn mint(&self) {
        let Some(hub) = &self.hub else { return };
        let epochs = self.epochs_closed as u64;
        hub.publish(CounterSnapshot {
            // The hub's own next number, as `publish_final` takes it: a hub
            // reused across runs never repeats one its readers have cached.
            seq: hub.seq() + 1,
            events: epochs * self.boundary,
            epochs,
            finalized: false,
            open: self.estimates(),
            settled: self.settled_cum.clone(),
            closed: self.closed_estimates.iter().cloned().collect(),
            exact: None,
        });
    }

    /// Send an encoded down payload to every site, accounting its bytes
    /// once per receiving site.
    fn send_down_all(&mut self, payload: Bytes) {
        self.stats.bytes += (self.k * payload.len()) as u64;
        for tx in &mut self.down_txs {
            let _ = tx.send(DownPacket::Data(payload.clone()));
        }
    }

    /// Issue one protocol broadcast (`Frame::Down`) to every site, with
    /// the paper's accounting: one logical broadcast, `k` down messages.
    /// Then re-deliver each dead site's absence to the counter
    /// ([`CounterProtocol::site_crashed`], idempotent), so a reply quorum
    /// the broadcast opened never waits on a site that cannot answer; a
    /// broadcast that completes is issued in turn.
    fn issue_broadcast(&mut self, counter: u32, msg: DownMsg) {
        let c = counter as usize;
        let mut next = Some(msg);
        while let Some(msg) = next.take() {
            self.stats.broadcasts += 1;
            self.stats.down_messages += self.k as u64;
            self.downs_since_flush += 1;
            let mut buf = BytesMut::new();
            encode(&Frame::Down { counter, msg }, &mut buf);
            self.send_down_all(buf.freeze());
            for site in 0..self.k {
                if self.status[site] == SiteStatus::Dead {
                    let down = self.protocols[c].site_crashed(&mut self.coords[c], site);
                    next = next.or(down);
                }
            }
        }
    }

    /// Send a flush barrier down every site link.
    fn send_flush(&mut self, epoch: u64) {
        for tx in &mut self.down_txs {
            let _ = tx.send(DownPacket::Flush(epoch));
        }
    }
}

/// The coordinator loop, in two phases. Returns the coordinator's half of
/// the [`ClusterReport`], its fields moved out of the `Coord`; the driver
/// fills in the event count and the sites' oracles and loss ledgers.
fn run_coordinator<P: CounterProtocol, D: DownSender>(
    mut c: Coord<'_, P, D>,
    up_rx: Receiver<UpPacket>,
) -> Result<ClusterReport, ClusterError> {
    let bad = |detail: String| ClusterError::Protocol { context: "coordinator", detail };
    // Phase 1: serve traffic until every site reports end-of-stream.
    // Every RollRequest is enqueued by the driver before it closes the
    // feed lanes, so all of them are dequeued before the k-th Done
    // (FIFO merged inbox).
    let mut done = 0usize;
    while done < c.k {
        match up_rx.recv() {
            Ok(UpPacket::Updates { site, payload }) => c.handle_updates(site, payload)?,
            Ok(UpPacket::Control { site, payload }) => c.handle_control(site, payload)?,
            Ok(UpPacket::Crashed { site, partial }) => c.handle_crashed(site, partial)?,
            Ok(UpPacket::Inject { site, kill }) => c.handle_inject(site, kill)?,
            Ok(UpPacket::RollRequest) => c.request_roll(),
            Ok(UpPacket::Done) => done += 1,
            Ok(UpPacket::FlushAck { epoch }) => {
                return Err(bad(format!("flush ack (epoch {epoch}) before any flush barrier")))
            }
            Ok(UpPacket::Fault { error, .. }) => return Err(error),
            Err(_) => break, // every sender is gone
        }
    }
    // Phase 2: quiescence handshake. Repeat flush epochs until one
    // completes with no broadcast issued during it — then no reply can be
    // in flight and the run state is final. Terminates because with no new
    // arrivals a broadcast cascade is finite (sync request -> replies ->
    // new round -> silence), and every in-flight epoch roll completes
    // within one flush epoch (its acks precede the flush acks on the FIFO
    // up paths).
    let mut flush_epoch = 0u64;
    loop {
        flush_epoch += 1;
        c.downs_since_flush = 0;
        c.send_flush(flush_epoch);
        // Dead sites never ack a barrier (their `Crashed` marker — the
        // last packet on their FIFO up link — preceded every `Done`, so
        // the roster is final before the first barrier goes out; `Inject`
        // markers likewise all precede the driver-channel close, so no
        // site is still `Dying` here and the expectation cannot change
        // mid-epoch).
        let expected = c.alive_sites();
        let mut acks = 0usize;
        while acks < expected {
            match up_rx.recv() {
                Ok(UpPacket::Updates { site, payload }) => c.handle_updates(site, payload)?,
                Ok(UpPacket::Control { site, payload }) => c.handle_control(site, payload)?,
                Ok(UpPacket::FlushAck { epoch }) if epoch == flush_epoch => acks += 1,
                Ok(UpPacket::FlushAck { epoch }) => {
                    return Err(bad(format!(
                        "flush ack for epoch {epoch} during epoch {flush_epoch}"
                    )))
                }
                Ok(UpPacket::Crashed { site, .. }) => {
                    return Err(bad(format!("crash marker from site {site} after end of stream")))
                }
                Ok(UpPacket::Inject { .. }) => {
                    return Err(bad("fault injection after end of stream".into()))
                }
                Ok(UpPacket::RollRequest) => {
                    return Err(bad("roll request after end of stream".into()))
                }
                Ok(UpPacket::Done) => return Err(bad("done after all streams closed".into())),
                Ok(UpPacket::Fault { error, .. }) => return Err(error),
                Err(_) => break, // all sites gone; nothing in flight
            }
        }
        if c.downs_since_flush == 0 {
            break;
        }
    }
    if c.rolling {
        return Err(bad("quiescent with an epoch roll still open".into()));
    }
    let estimates = c.estimates();
    let Coord { stats, epochs_closed, closed_estimates, settled_cum, churn, busy, .. } = c;
    Ok(ClusterReport {
        stats,
        coordinator_busy: busy.map_or(Duration::ZERO, |(first, last)| last.duration_since(first)),
        flush_epochs: flush_epoch,
        estimates,
        epochs: epochs_closed as u64,
        epoch_estimates: closed_estimates.into(),
        settled_totals: settled_cum,
        churn,
        // The driver's half, filled in by `run_cluster_on`.
        wall_time: Duration::ZERO,
        events: 0,
        exact_totals: Vec::new(),
        dropped_epochs: 0,
        epoch_exact_totals: Vec::new(),
        open_epoch_exact_totals: Vec::new(),
    })
}

/// Check a [`ClusterConfig`] — the one gate every public field passes
/// before a thread is spawned or an event pulled.
fn check_config(config: &ClusterConfig) -> Result<(), ClusterError> {
    let bad = |detail: String| ClusterError::Protocol { context: "cluster config", detail };
    if config.k == 0 {
        return Err(bad("need at least one site".into()));
    }
    if config.chunk == 0 {
        return Err(bad("chunk must be >= 1".into()));
    }
    if config.epoch_boundary.is_some_and(|b| b == 0 || config.epoch_ring == 0) {
        return Err(bad("epoch boundary and ring must be >= 1".into()));
    }
    for f in &config.faults {
        if f.site >= config.k {
            return Err(bad(format!("fault targets site {} but k = {}", f.site, config.k)));
        }
        if let Some(r) = f.revive_at.filter(|&r| r <= f.kill_at) {
            return Err(bad(format!("site {} revive_at {r} <= kill_at {}", f.site, f.kill_at)));
        }
    }
    Ok(())
}

/// One site thread's serve loop, extracted so the spawn site can wrap it
/// in `catch_unwind` and turn an escaped panic — e.g. from a
/// caller-supplied protocol or `map_event` — into a typed in-band
/// [`ClusterError::WorkerPanicked`] instead of a silently discarded join.
/// The inbox is dropped on the way out, which releases a driver blocked on
/// the site's full feed lane.
fn run_site<P, F, U>(worker: &mut SiteWorker<'_, P, F, U>, inbox: SiteInbox)
where
    P: CounterProtocol,
    F: Fn(&EventChunk, &mut Vec<u32>),
    U: UpSender,
{
    while let Some(input) = inbox.recv() {
        let ok = match input {
            SiteInput::Down(pkt) => worker.handle_down(pkt),
            SiteInput::Feed(SiteFeed::Chunk(chunk)) => {
                if worker.dead {
                    worker.ingest(&chunk, 0, false)
                } else if worker.dying {
                    worker.ingest(&chunk, chunk.len().div_ceil(2), true) && worker.crash()
                } else {
                    worker.ingest(&chunk, chunk.len(), false)
                }
            }
            // The in-band kill order: arm the crash. It lands half-way
            // through the next chunk (tearing its packet mid-frame) or at
            // end-of-stream, whichever comes first; a site already dead has
            // nothing left to kill (fail-stop).
            SiteInput::Feed(SiteFeed::Kill) => {
                worker.dying = !worker.dead;
                true
            }
            // Stream finished. A site still holding a kill order crashes
            // here, with an empty partial packet (every chunk flushed at its
            // boundary), so the coordinator always gets the terminal
            // `Crashed` marker before this site's `Done` — the FIFO
            // invariant phase 2 relies on. Then announce, and keep serving
            // broadcasts and flush barriers until the coordinator closes
            // the down lane.
            SiteInput::End => {
                (!worker.dying || worker.crash()) && worker.up_tx.send(UpPacket::Done).is_ok()
            }
        };
        if !ok {
            return;
        }
    }
}

/// Run a chunked stream through the cluster over the default in-process
/// channel transport. See [`run_cluster_on`] for the parameters; this is
/// `run_cluster_on(&ChannelTransport, ...)`.
pub fn run_cluster<P, F, I>(
    protocols: &[P],
    config: &ClusterConfig,
    events: I,
    map_event: F,
) -> Result<ClusterReport, ClusterError>
where
    P: CounterProtocol + Sync,
    F: Fn(&EventChunk, &mut Vec<u32>) + Sync,
    I: Iterator<Item = EventChunk>,
{
    run_cluster_on(&ChannelTransport, protocols, config, events, map_event)
}

/// Run a chunked stream through the cluster over `transport`.
///
/// * `protocols` — one protocol instance per counter.
/// * `events` — the training stream as [`EventChunk`]s, consumed on the
///   caller thread (use [`dsbn_datagen::chunk_events`] or
///   [`dsbn_datagen::TrainingStream::chunks`] to produce them; incoming
///   chunk granularity is transport-only — the driver re-chunks per site
///   by [`ClusterConfig::chunk`], which is what governs wire behavior).
/// * `map_event` — maps a whole per-site chunk to the counter ids its
///   events increment, back to back at a fixed per-event stride (the
///   tracker's UPDATE logic, e.g. `CounterLayout::map_chunk` writing each
///   event's 2n family/parent counters of Algorithm 2); called on site
///   threads, once per delivered chunk rather than once per event.
///
/// Fails with a typed [`ClusterError`] — never a panic or a hung join —
/// when a packet fails to decode, a frame arrives where the protocol
/// forbids it, or the transport substrate errors.
pub fn run_cluster_on<T, P, F, I>(
    transport: &T,
    protocols: &[P],
    config: &ClusterConfig,
    events: I,
    map_event: F,
) -> Result<ClusterReport, ClusterError>
where
    T: Transport,
    P: CounterProtocol + Sync,
    F: Fn(&EventChunk, &mut Vec<u32>) + Sync,
    I: Iterator<Item = EventChunk>,
{
    check_config(config)?;
    let (k, ring_cap) = (config.k, config.epoch_ring);
    let start = Instant::now();

    let (mut inboxes, mut down_lanes, mut feeds) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..k {
        let (inbox, down_lane, feed) = site_inbox(FEED_DEPTH);
        inboxes.push(inbox);
        down_lanes.push(down_lane);
        feeds.push(feed);
    }
    let Fabric { site_ups, driver_up, coord_rx, coord_downs, pumps } =
        transport.connect(down_lanes, UP_DEPTH * k + 1)?;
    let (state_tx, state_rx) = unbounded::<SiteLedger>();

    let result = std::thread::scope(|scope| {
        // --- site threads ---
        for (site_id, (up_tx, inbox)) in site_ups.into_iter().zip(inboxes).enumerate() {
            let state_tx = state_tx.clone();
            let map_event = &map_event;
            let seed = config.seed;
            scope.spawn(move || {
                let mut worker =
                    SiteWorker::new(site_id, protocols, map_event, up_tx, seed, ring_cap);
                // A panic out of the serve loop (protocol or `map_event`
                // code is caller-supplied) becomes an in-band typed fault,
                // so the coordinator aborts the run with it instead of the
                // driver discarding a poisoned join.
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_site(&mut worker, inbox);
                }))
                .is_err();
                if panicked {
                    let _ = worker.up_tx.send(UpPacket::Fault {
                        site: site_id,
                        error: ClusterError::WorkerPanicked { role: format!("site {site_id}") },
                    });
                }
                if let Some(t) = worker.down_since.take() {
                    worker.ledger.downtime += t.elapsed();
                }
                let open = &mut worker.ledger.open;
                drain(protocols, &mut worker.states, |c, count| open[c] = count);
                let _ = state_tx.send(worker.ledger);
            });
        }
        drop(state_tx);

        // --- coordinator thread ---
        let hub = config.publish.clone();
        let boundary = config.epoch_boundary.unwrap_or(0);
        let coord_handle = scope.spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let coord = Coord::new(protocols, k, ring_cap, coord_downs, hub, boundary);
                run_coordinator(coord, coord_rx)
            }))
            .unwrap_or_else(|_| Err(ClusterError::WorkerPanicked { role: "coordinator".into() }))
        });

        // --- driver: feed events from the caller thread ---
        // Incoming chunks are re-chunked per destination site: each event
        // is routed by the partitioner and appended to that site's pending
        // chunk, which ships when it reaches `config.chunk` events. One
        // feed push thus carries a whole slab of events; `chunk = 1`
        // degenerates to one push per event. A full feed lane blocks the
        // driver: it is paced by the slowest site.
        let mut assigner = SiteAssigner::new(config.partitioner, k);
        let mut driver_rng = SmallRng::seed_from_u64(config.seed ^ 0xd1f7);
        // Flatten the fault schedule into event-ordered injections. Every
        // injection rides the driver's up link as an `Inject` marker —
        // FIFO against `RollRequest`s and ahead of the channel close, so
        // the coordinator handles every one of them in phase 1 — and a
        // kill *additionally* rides the target site's feed lane as an
        // in-band `SiteFeed::Kill` (after flushing the site's pending
        // chunk), so the crash lands at the exact kill point regardless
        // of scheduling: the site crashes after ingesting precisely the
        // events routed to it first. The up-link `Inject` is enqueued
        // before the in-band marker, so the coordinator always observes
        // the injection (`Dying`) before the site's terminal `Crashed`
        // marker — revives that arrive mid-crash defer correctly.
        let mut injections: Vec<(u64, usize, bool)> = Vec::new();
        for f in &config.faults {
            injections.push((f.kill_at, f.site, true));
            if let Some(r) = f.revive_at {
                injections.push((r, f.site, false));
            }
        }
        injections.sort_unstable();
        let mut next_inject = 0usize;
        let mut n_events = 0u64;
        let mut builders: Vec<EventChunk> = (0..k).map(|_| EventChunk::new()).collect();
        // Send a site's pending chunk (if any) and start its next one;
        // `false` when the site has left (its inbox is gone).
        let ship = |site: usize, builder: &mut EventChunk| {
            if builder.is_empty() {
                return true;
            }
            let next = EventChunk::with_capacity(builder.n_vars(), config.chunk);
            feeds[site].send(SiteFeed::Chunk(std::mem::replace(builder, next))).is_ok()
        };
        // Fire one injection (see above); `false` when a link is gone.
        let inject = |site: usize, kill: bool, builder: &mut EventChunk| {
            driver_up.send(UpPacket::Inject { site, kill }).is_ok()
                && (!kill || (ship(site, builder) && feeds[site].send(SiteFeed::Kill).is_ok()))
        };
        // The stream loop runs caller code (`events.next()`), so it is
        // guarded like every other role: a panic in it must still reach the
        // link close below, or the scope waits forever on sites that wait
        // on those links.
        let driver_panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            'stream: for chunk in events {
                for ev in chunk.iter() {
                    let site = assigner.assign(&mut driver_rng);
                    builders[site].push_u32(ev);
                    n_events += 1;
                    if builders[site].len() >= config.chunk && !ship(site, &mut builders[site]) {
                        break 'stream;
                    }
                    while next_inject < injections.len() && injections[next_inject].0 <= n_events {
                        let (_, site, kill) = injections[next_inject];
                        next_inject += 1;
                        if !inject(site, kill, &mut builders[site]) {
                            break 'stream;
                        }
                    }
                    // The driver is the only party that sees the global event
                    // count, so it requests epoch rolls — after flushing every
                    // pending chunk, so all boundary events are on their way
                    // first. The roll broadcast may still overtake events
                    // queued on the feed lanes (the down lane is served
                    // first), so cluster epoch boundaries are approximate —
                    // `B ± O(k · FEED_DEPTH · chunk)` — while the per-epoch
                    // exact oracle stays exact (sites snapshot at their own
                    // roll).
                    if let Some(b) = config.epoch_boundary {
                        if n_events.is_multiple_of(b) {
                            for (site, builder) in builders.iter_mut().enumerate() {
                                if !ship(site, builder) {
                                    break 'stream;
                                }
                            }
                            if driver_up.send(UpPacket::RollRequest).is_err() {
                                break 'stream;
                            }
                        }
                    }
                }
            }
            for (site, builder) in builders.iter_mut().enumerate() {
                let _ = ship(site, builder);
            }
            // Injections scheduled past the stream's end still fire rather
            // than silently vanishing when the stream is shorter than their
            // thresholds; they precede the driver-channel close, keeping them
            // in phase 1 — and a late kill's in-band marker precedes the
            // feed-lane close, so the site crashes at end-of-stream (with
            // nothing buffered, an empty partial). Every scheduled kill lands.
            for &(_, site, kill) in &injections[next_inject..] {
                let _ = inject(site, kill, &mut builders[site]);
            }
        }))
        .is_err();
        drop(driver_up);
        drop(feeds); // end-of-stream on every site's feed lane

        // A coordinator panic is converted to a typed error inside the
        // thread; a panicked join here (out-of-memory in the unwind path,
        // say) gets the same typed error instead of a driver panic.
        let mut out = coord_handle
            .join()
            .map_err(|_| ClusterError::WorkerPanicked { role: "coordinator".into() })??;
        if driver_panicked {
            return Err(ClusterError::WorkerPanicked { role: "driver".into() });
        }

        // Reconstruct the exact oracles from what the sites counted: the
        // cumulative per-counter totals, the retained epochs' totals (from
        // the snapshots each site took at its last rolls), and the open
        // epoch's. Epochs beyond the ring are *reported* as dropped, not
        // silently truncated.
        let n_counters = protocols.len();
        let retained = (out.epochs as usize).min(config.epoch_ring);
        debug_assert_eq!(retained, out.epoch_estimates.len());
        let mut epoch_exact_totals = vec![vec![0u64; n_counters]; retained];
        let mut open_epoch_exact_totals = vec![0u64; n_counters];
        let mut exact_totals = vec![0u64; n_counters];
        let churn = &mut out.churn;
        churn.lost_counts = vec![0; n_counters];
        churn.site_downtime = vec![Duration::ZERO; k];
        for fin in state_rx.iter() {
            // Every site observes every roll exactly once (dead sites
            // record an all-zero epoch per roll they slept through), so
            // the sites' rings line up epoch for epoch.
            if fin.rolls != out.epochs {
                return Err(ClusterError::Protocol {
                    context: "epoch oracle",
                    detail: format!(
                        "site {} observed {} epoch rolls, the coordinator closed {}",
                        fin.site_id, fin.rolls, out.epochs
                    ),
                });
            }
            for (totals, snap) in epoch_exact_totals.iter_mut().zip(&fin.ring) {
                add_into(totals, snap);
            }
            add_into(&mut exact_totals, &fin.closed_sum);
            add_into(&mut open_epoch_exact_totals, &fin.open);
            add_into(&mut churn.lost_counts, &fin.lost);
            churn.events_lost += fin.events_lost;
            churn.site_downtime[fin.site_id] = fin.downtime;
        }
        add_into(&mut exact_totals, &open_epoch_exact_totals);

        Ok(ClusterReport {
            events: n_events,
            exact_totals,
            dropped_epochs: out.epochs - retained as u64,
            epoch_exact_totals,
            open_epoch_exact_totals,
            ..out
        })
    });
    // Transport pump threads hold the far ends of the links; everything
    // they bridge was dropped when the scope closed, so they are finishing
    // now — join them before returning (error or not).
    let mut pump_panicked = false;
    for p in pumps {
        if p.join().is_err() {
            pump_panicked = true;
        }
    }
    let mut report = result?;
    // A clean-looking run whose pump thread panicked still failed: the
    // report may silently miss traffic the pump dropped mid-unwind.
    if pump_panicked {
        return Err(ClusterError::WorkerPanicked { role: "transport pump".into() });
    }
    report.wall_time = start.elapsed();
    // Terminal snapshot: the coordinator has joined (no racing mid-stream
    // mint), the report carries the reconstructed exact oracle, and the
    // flush handshake proved this state is the run's final word.
    if let Some(hub) = &config.publish {
        hub.publish_final(&report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LinkClosed;
    use dsbn_counters::wire::WireError;
    use dsbn_counters::{DeterministicProtocol, ExactProtocol, HyzProtocol};
    use dsbn_datagen::chunk_events;

    /// Route each event to counter 0 or 1 by the parity of its first value
    /// — a miniature tracker in the chunk-mapping form (stride 1).
    fn tiny_map(chunk: &EventChunk, ids: &mut Vec<u32>) {
        ids.clear();
        ids.extend(chunk.iter().map(|ev| ev[0] % 2));
    }

    /// Every event hits counter 0 (stride 1).
    fn all_zero(chunk: &EventChunk, ids: &mut Vec<u32>) {
        ids.clear();
        ids.resize(chunk.len(), 0);
    }

    /// Every event hits counters 0..8 — a sprinkler-sized `2n` (stride 8).
    fn wide8(chunk: &EventChunk, ids: &mut Vec<u32>) {
        ids.clear();
        for _ in 0..chunk.len() {
            ids.extend(0..8u32);
        }
    }

    /// `run_cluster` + unwrap: these tests feed well-formed streams, so an
    /// `Err` is itself a failure.
    fn run_ok<P, F, I>(
        protocols: &[P],
        config: &ClusterConfig,
        events: I,
        map_event: F,
    ) -> ClusterReport
    where
        P: CounterProtocol + Sync,
        F: Fn(&EventChunk, &mut Vec<u32>) + Sync,
        I: Iterator<Item = EventChunk>,
    {
        run_cluster(protocols, config, events, map_event).expect("cluster run failed")
    }

    #[test]
    fn exact_protocol_counts_everything() {
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(3, 9);
        let events = (0..1000u64).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 16), tiny_map);
        assert_eq!(report.events, 1000);
        assert_eq!(report.estimates[0], 500.0);
        assert_eq!(report.estimates[1], 500.0);
        assert_eq!(report.exact_totals, vec![500, 500]);
        assert_eq!(report.stats.up_messages, 1000);
        // Default chunk = 1: one packet per event regardless of how the
        // caller grouped the incoming stream.
        assert_eq!(report.stats.packets, 1000);
    }

    #[test]
    fn wire_bytes_measure_actual_transport() {
        // ExactProtocol never broadcasts, so every byte on the wire is an
        // event's bundled up packet. Single-update events are below the
        // UpBatch break-even, so they ship as plain 5-byte Increment
        // frames: the tally is exactly 5 per update.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(3, 9);
        let events = (0..1000u64).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 1), tiny_map);
        let inc = frame_len(&Frame::Up { counter: 0, msg: UpMsg::Increment }) as u64;
        assert_eq!(report.stats.bytes, report.stats.up_messages * inc);
        assert_eq!(report.stats.broadcasts, 0);
    }

    #[test]
    fn up_batch_amortizes_frame_headers_on_wide_events() {
        // Eight exact counters per event (a sprinkler-sized 2n): the batch
        // frame replaces 8 x 5 = 40 bytes with a 5-byte header + 4 per id.
        let protocols = vec![ExactProtocol; 8];
        let config = ClusterConfig::new(3, 13);
        let m = 500u64;
        let events = (0..m).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 8), wide8);
        assert_eq!(report.stats.up_messages, 8 * m);
        assert_eq!(report.stats.packets, m);
        let batch =
            frame_len(&Frame::UpBatch { increments: (0..8).collect(), reports: vec![] }) as u64;
        assert_eq!(batch, 5 + 8 * 4);
        assert_eq!(report.stats.bytes, m * batch);
        let singles = report.stats.up_messages * 5;
        assert!(report.stats.bytes < singles, "{} !< {singles}", report.stats.bytes);
    }

    #[test]
    fn chunked_transport_coalesces_packets_not_bytes() {
        // The same exact run at chunk sizes 1 and 64: identical logical
        // messages, estimates, totals, and *bytes* (the multi-event packet
        // is the concatenation of the same encode_event sections); only
        // the physical packet count drops — by roughly the chunk factor.
        let protocols = vec![ExactProtocol; 8];
        let m = 4_000u64;
        let events = || (0..m).map(|_| vec![0usize]);
        let per_event =
            run_ok(&protocols, &ClusterConfig::new(3, 13), chunk_events(events(), 16), wide8);
        let chunked = run_ok(
            &protocols,
            &ClusterConfig::new(3, 13).with_chunk(64),
            chunk_events(events(), 16),
            wide8,
        );
        assert_eq!(chunked.estimates, per_event.estimates);
        assert_eq!(chunked.exact_totals, per_event.exact_totals);
        assert_eq!(chunked.stats.up_messages, per_event.stats.up_messages);
        assert_eq!(chunked.stats.down_messages, per_event.stats.down_messages);
        assert_eq!(chunked.stats.bytes, per_event.stats.bytes);
        assert_eq!(per_event.stats.packets, m);
        assert!(
            chunked.stats.packets * 32 <= per_event.stats.packets,
            "chunked packets {} not amortized vs {}",
            chunked.stats.packets,
            per_event.stats.packets
        );
    }

    #[test]
    fn size_threshold_bounds_packet_growth() {
        // A 4096-event chunk of 37-byte events is ~150 KB of `UpBatch`
        // sections, over twice the flush threshold: the site flushes
        // mid-chunk, every packet stays within one event of the threshold,
        // and nothing is lost.
        let protocols = vec![ExactProtocol; 8];
        let (k, chunk) = (2usize, 4096usize);
        let config = ClusterConfig::new(k, 5).with_chunk(chunk);
        let m = 20_000u64;
        let events = (0..m).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 64), wide8);
        assert_eq!(report.exact_totals[0], m);
        assert_eq!(report.stats.bytes, m * 37);
        let packets = report.stats.packets;
        assert!(
            packets * (FLUSH_BYTES as u64 + 37) >= report.stats.bytes,
            "{packets} packets carry {} bytes: some packet outgrew the threshold",
            report.stats.bytes
        );
        // More packets than delivered chunks (at most one partial per
        // site): the threshold, not the chunk boundary, cut them.
        let chunks = (m as usize).div_ceil(chunk) + k;
        assert!(packets as usize > chunks, "packets {packets} <= chunks {chunks}");
    }

    #[test]
    fn hyz_protocol_under_asynchrony() {
        let protocols = vec![HyzProtocol::new(0.1)];
        let config = ClusterConfig::new(4, 11);
        let m = 50_000u64;
        let events = (0..m).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 32), all_zero);
        assert_eq!(report.exact_totals[0], m);
        let rel = (report.estimates[0] - m as f64).abs() / m as f64;
        // Asynchronous delivery adds transient error on top of the eps
        // guarantee; it must still land well within a few eps.
        assert!(rel < 0.5, "relative error {rel}");
        assert!(report.stats.up_messages < m / 5, "messages {}", report.stats.up_messages);
        assert!(report.stats.packets <= report.stats.up_messages);
        // Broadcast accounting stays exact under threading.
        assert_eq!(report.stats.down_messages, report.stats.broadcasts * 4);
    }

    #[test]
    fn hyz_protocol_with_chunked_ingest_stays_in_band() {
        // Coalescing delays reports (they sit in the site buffer until a
        // flush), which the round-tagged protocol absorbs like any other
        // asynchrony; the quiescence handshake still flushes everything
        // out, so the final estimate stays in band for every seed.
        for seed in 0..8u64 {
            let protocols = vec![HyzProtocol::new(0.2)];
            let config = ClusterConfig::new(4, seed).with_chunk(64);
            let m = 30_000u64;
            let events = (0..m).map(|_| vec![0usize]);
            let report = run_ok(&protocols, &config, chunk_events(events, 64), all_zero);
            assert_eq!(report.exact_totals[0], m, "seed {seed}");
            let rel = (report.estimates[0] - m as f64).abs() / m as f64;
            assert!(rel < 1.0, "seed {seed}: relative error {rel}");
            assert!(report.stats.packets <= report.stats.up_messages);
        }
    }

    #[test]
    fn quiescence_handshake_completes_inflight_rounds() {
        // Aggressive rounds right up to the end of the stream: the old
        // fixed-timeout drain could cut a sync short; the handshake must
        // always leave the coordinator outside a sync (its estimate is
        // anchored at the last completed round, never mid-collection).
        for seed in 0..20u64 {
            let protocols = vec![HyzProtocol::new(0.5)];
            let config = ClusterConfig::new(5, seed).with_chunk(16);
            let m = 3_000u64;
            let events = (0..m).map(|_| vec![0usize]);
            let report = run_ok(&protocols, &config, chunk_events(events, 16), all_zero);
            assert_eq!(report.exact_totals[0], m);
            // At least one full flush epoch always runs.
            assert!(report.flush_epochs >= 1, "seed {seed}");
            let rel = (report.estimates[0] - m as f64).abs() / m as f64;
            assert!(rel < 2.5, "seed {seed}: relative error {rel}");
        }
    }

    #[test]
    fn epoch_rolls_partition_the_stream_exactly() {
        // Exact counters: a closed epoch's frozen estimate must equal its
        // exact per-epoch total (FIFO attribution makes the roll lossless),
        // and all epochs plus the open one must sum to the whole stream.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(3, 17).with_epochs(250, 8);
        let m = 1000u64;
        let events = (0..m).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 8), tiny_map);
        assert_eq!(report.events, m);
        assert_eq!(report.epochs, 4);
        assert_eq!(report.dropped_epochs, 0, "ring of 8 holds all 4 epochs");
        assert_eq!(report.epoch_estimates.len(), 4);
        assert_eq!(report.epoch_exact_totals.len(), 4);
        for (est, exact) in report.epoch_estimates.iter().zip(&report.epoch_exact_totals) {
            for (e, &t) in est.iter().zip(exact) {
                assert_eq!(*e, t as f64, "closed-epoch estimate drifted from exact");
            }
        }
        // Every event hits exactly one of the two counters; epoch sizes
        // are approximate (roll broadcasts can overtake queued events) but
        // the cumulative total across counters is exact.
        let all: u64 = report.epoch_exact_totals.iter().flatten().sum::<u64>()
            + report.open_epoch_exact_totals.iter().sum::<u64>();
        assert_eq!(all, m);
        assert_eq!(report.exact_totals, vec![500, 500]);
        // The final estimates cover the open epoch only.
        assert_eq!(report.estimates[0], report.open_epoch_exact_totals[0] as f64);
    }

    #[test]
    fn epoch_rolls_settle_exactly_under_chunked_ingest() {
        // The flush-before-control rule: a site must push every buffered
        // update of the closing epoch onto the wire *before* its
        // settlement/ack, or FIFO attribution breaks and the settled
        // epochs drift. Exact counters make any drift visible as a hard
        // mismatch.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(3, 29).with_epochs(250, 8).with_chunk(32);
        let m = 1000u64;
        let events = (0..m).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 32), tiny_map);
        assert_eq!(report.events, m);
        assert_eq!(report.epochs, 4);
        assert_eq!(report.dropped_epochs, 0);
        for (est, exact) in report.epoch_estimates.iter().zip(&report.epoch_exact_totals) {
            for (e, &t) in est.iter().zip(exact) {
                assert_eq!(*e, t as f64, "closed-epoch estimate drifted under chunking");
            }
        }
        let all: u64 = report.epoch_exact_totals.iter().flatten().sum::<u64>()
            + report.open_epoch_exact_totals.iter().sum::<u64>();
        assert_eq!(all, m);
        assert_eq!(report.exact_totals, vec![500, 500]);
        assert_eq!(report.estimates[0], report.open_epoch_exact_totals[0] as f64);
    }

    #[test]
    fn epoch_ring_caps_retained_epochs() {
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(2, 7).with_epochs(100, 2);
        let events = (0..700u64).map(|i| vec![usize::from(i % 7 < 3)]);
        let report = run_ok(&protocols, &config, chunk_events(events, 4), tiny_map);
        assert_eq!(report.epochs, 7);
        // Only the last `ring` epochs are retained, estimates and oracle
        // alike, and they stay aligned; the 5 that fell off the ring are
        // *reported* dropped, never silently truncated.
        assert_eq!(report.dropped_epochs, 5);
        assert_eq!(report.epoch_estimates.len(), 2);
        assert_eq!(report.epoch_exact_totals.len(), 2);
        for (est, exact) in report.epoch_estimates.iter().zip(&report.epoch_exact_totals) {
            for (e, &t) in est.iter().zip(exact) {
                assert_eq!(*e, t as f64);
            }
        }
        // Cumulative totals still cover all 7 epochs — more than three
        // rings' worth, so the sites' bounded oracles have long since
        // dropped the early snapshots and only their running sum holds.
        assert_eq!(report.exact_totals, vec![400, 300]);
    }

    #[test]
    fn hub_publishes_settlements_and_the_final_state() {
        // The coordinator mints a snapshot at every epoch settlement and
        // the driver publishes the finalized state after the quiescence
        // handshake. Exact counters make the contract checkable hard: every
        // cumulative read of the final snapshot must equal the oracle, and
        // must be bit-identical to `settled_totals + estimates`.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let hub = SnapshotHub::new();
        let config = ClusterConfig::new(3, 9).with_epochs(250, 8).with_publish(hub.clone());
        let events = (0..1000u64).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 16), tiny_map);
        let snap = hub.load();
        assert!(snap.finalized);
        assert_eq!(snap.epochs, report.epochs);
        // One mint per settlement, plus the final publish.
        assert_eq!(snap.seq, report.epochs + 1);
        assert_eq!(snap.events, report.events);
        assert_eq!(snap.exact.as_deref(), Some(report.exact_totals.as_slice()));
        assert_eq!(snap.closed.len(), report.epoch_estimates.len());
        for c in 0..protocols.len() {
            assert_eq!(snap.cumulative(c), report.exact_totals[c] as f64);
            assert_eq!(
                snap.cumulative(c).to_bits(),
                (report.settled_totals[c] + report.estimates[c]).to_bits(),
            );
        }
        // Without epoch rolling only the final state is published, and its
        // cumulative read is the end-of-run estimate verbatim.
        let protocols = vec![ExactProtocol, ExactProtocol];
        let hub = SnapshotHub::new();
        let config = ClusterConfig::new(3, 9).with_publish(hub.clone());
        let events = (0..500u64).map(|i| vec![(i % 2) as usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 16), tiny_map);
        let snap = hub.load();
        assert_eq!(snap.seq, 1);
        assert!(snap.finalized);
        for c in 0..protocols.len() {
            assert_eq!(snap.cumulative(c).to_bits(), report.estimates[c].to_bits());
        }
    }

    #[test]
    fn hyz_epoch_rolls_terminate_and_settle_exactly() {
        // Randomized counters under epoch rolling: every run must terminate
        // (rolls complete through the quiescence handshake even when they
        // land at end-of-stream), and because a roll closes its epoch with
        // the sites' exact settlement, every closed epoch's ring entry
        // must equal that epoch's exact total — for a *randomized*
        // protocol, under real thread interleaving and chunked ingest.
        for seed in 0..8u64 {
            let protocols = vec![HyzProtocol::new(0.2)];
            let config = ClusterConfig::new(4, seed).with_epochs(4_000, 4).with_chunk(32);
            let m = 16_000u64;
            let events = (0..m).map(|_| vec![0usize]);
            let report = run_ok(&protocols, &config, chunk_events(events, 32), all_zero);
            assert_eq!(report.exact_totals[0], m, "seed {seed}");
            assert_eq!(report.epochs, 4, "seed {seed}");
            for (e, (est, exact)) in
                report.epoch_estimates.iter().zip(&report.epoch_exact_totals).enumerate()
            {
                assert_eq!(est[0], exact[0] as f64, "seed {seed} epoch {e}: not settled");
            }
            // The open epoch's estimate is a live Lemma-4 estimate.
            if report.open_epoch_exact_totals[0] > 1_000 {
                let t = report.open_epoch_exact_totals[0] as f64;
                let rel = (report.estimates[0] - t).abs() / t;
                assert!(rel < 1.0, "seed {seed}: open epoch rel err {rel}");
            }
        }
    }

    #[test]
    fn round_robin_partitioner_balances() {
        let protocols = vec![ExactProtocol];
        let mut config = ClusterConfig::new(5, 1);
        config.partitioner = Partitioner::RoundRobin;
        let events = (0..500u64).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 10), all_zero);
        assert_eq!(report.estimates[0], 500.0);
    }

    #[test]
    fn empty_stream_terminates() {
        let protocols = vec![ExactProtocol];
        let config = ClusterConfig::new(2, 3);
        let report =
            run_ok(&protocols, &config, std::iter::empty::<EventChunk>(), |_, ids| ids.clear());
        assert_eq!(report.events, 0);
        assert_eq!(report.estimates[0], 0.0);
        assert_eq!(report.stats.total(), 0);
        // No events -> busy window is empty -> throughput is undefined,
        // not zero.
        assert!(report.throughput().is_nan());
    }

    #[test]
    fn single_site_cluster() {
        let protocols = vec![HyzProtocol::new(0.2)];
        let config = ClusterConfig::new(1, 5).with_chunk(8);
        let events = (0..10_000u64).map(|_| vec![0usize]);
        let report = run_ok(&protocols, &config, chunk_events(events, 8), all_zero);
        assert_eq!(report.exact_totals[0], 10_000);
        let rel = (report.estimates[0] - 10_000.0).abs() / 10_000.0;
        assert!(rel < 1.0, "rel {rel}");
    }

    // ---- decode/protocol error paths (no panic reachable from bytes) ----

    /// Everything a lone coordinator sent one site, in order.
    type Tape = Vec<DownPacket>;

    impl DownSender for Tape {
        fn send(&mut self, pkt: DownPacket) -> Result<(), LinkClosed> {
            self.push(pkt);
            Ok(())
        }
    }

    /// A coordinator whose down links only record, so the tests can drive
    /// it packet by packet, no threads.
    fn lone_coord<P: CounterProtocol>(protocols: &[P], k: usize) -> Coord<'_, P, Tape> {
        Coord::new(protocols, k, 8, vec![Tape::new(); k], None, 0)
    }

    #[test]
    fn corrupt_up_packet_is_a_typed_wire_error() {
        let protocols = vec![ExactProtocol, ExactProtocol];
        let mut coord = lone_coord(&protocols, 2);
        let err = coord.handle_updates(0, Bytes::copy_from_slice(&[42, 0, 0])).unwrap_err();
        match err {
            ClusterError::Wire { site: Some(0), source: WireError::BadTag(42), .. } => {}
            other => panic!("expected BadTag(42), got {other:?}"),
        }
    }

    #[test]
    fn truncated_up_packet_is_a_typed_wire_error() {
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 0, msg: UpMsg::Increment }, &mut buf);
        let cut = buf.freeze().slice(0..2); // mid-frame
        let mut coord = lone_coord(&protocols, 1);
        let err = coord.handle_updates(0, cut).unwrap_err();
        match err {
            ClusterError::Wire { site: Some(0), source: WireError::Truncated, .. } => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_counter_is_a_protocol_error() {
        let protocols = vec![ExactProtocol, ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 7, msg: UpMsg::Increment }, &mut buf);
        let mut coord = lone_coord(&protocols, 1);
        let err = coord.handle_updates(0, buf.freeze()).unwrap_err();
        assert!(
            matches!(&err, ClusterError::Protocol { detail, .. } if detail.contains("counter 7")),
            "expected out-of-range protocol error, got {err:?}"
        );
    }

    #[test]
    fn down_frame_on_the_up_path_is_a_protocol_error() {
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Down { counter: 0, msg: DownMsg::SyncRequest { round: 1 } }, &mut buf);
        let mut coord = lone_coord(&protocols, 1);
        let err = coord.handle_updates(0, buf.freeze()).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol { .. }), "got {err:?}");
    }

    #[test]
    fn packet_from_unknown_site_is_a_protocol_error() {
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 0, msg: UpMsg::Increment }, &mut buf);
        let mut coord = lone_coord(&protocols, 2);
        let err = coord.handle_updates(5, buf.freeze()).unwrap_err();
        assert!(
            matches!(&err, ClusterError::Protocol { detail, .. } if detail.contains("site 5")),
            "got {err:?}"
        );
    }

    #[test]
    fn unexpected_epoch_ack_is_a_protocol_error() {
        // An ack while no roll is in flight must surface as a typed error,
        // not trip an assertion.
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::EpochAck { epoch: 3 }, &mut buf);
        let mut coord = lone_coord(&protocols, 2);
        let err = coord.handle_control(0, buf.freeze()).unwrap_err();
        assert!(
            matches!(&err, ClusterError::Protocol { detail, .. }
                if detail.contains("unexpected epoch ack")),
            "got {err:?}"
        );
    }

    #[test]
    fn non_control_frame_in_a_control_packet_is_a_protocol_error() {
        let protocols = vec![ExactProtocol];
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 0, msg: UpMsg::Increment }, &mut buf);
        let mut coord = lone_coord(&protocols, 1);
        let err = coord.handle_control(0, buf.freeze()).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol { .. }), "got {err:?}");
    }

    /// One update packet carrying `msg` for counter 0.
    fn up_packet(msg: UpMsg) -> Bytes {
        let mut buf = BytesMut::new();
        encode(&Frame::Up { counter: 0, msg }, &mut buf);
        buf.freeze()
    }

    #[test]
    fn an_up_message_of_the_wrong_kind_is_a_protocol_error() {
        // Wire-valid bytes can carry any kind of up message. An exact
        // counter fed a `Report` and a `Cumulative` used to count each as
        // one arrival in release (estimate 2) and panic in debug.
        let protocols = vec![ExactProtocol];
        let mut coord = lone_coord(&protocols, 1);
        for msg in [UpMsg::Report { round: 0, value: 1_000_000 }, UpMsg::Cumulative { value: 7 }] {
            let err = coord.handle_updates(0, up_packet(msg)).unwrap_err();
            assert!(
                matches!(&err, ClusterError::Protocol { context: "up packet", detail }
                    if detail.contains("not a kind")),
                "got {err:?}"
            );
        }
        assert_eq!(coord.estimates(), vec![0.0]);
        assert_eq!(coord.stats.up_messages, 0);
    }

    /// `takes` apply cleanly and every one of `refuses` is a protocol error.
    fn check_kinds<P: CounterProtocol>(protocols: &[P], takes: &[UpMsg], refuses: &[UpMsg]) {
        let mut coord = lone_coord(protocols, 2);
        for &msg in takes {
            assert!(coord.handle_updates(0, up_packet(msg)).is_ok(), "{msg:?} refused");
        }
        for &msg in refuses {
            let err = coord.handle_updates(0, up_packet(msg)).unwrap_err();
            assert!(
                matches!(err, ClusterError::Protocol { context: "up packet", .. }),
                "{msg:?}: got {err:?}"
            );
        }
    }

    #[test]
    fn each_scheme_refuses_the_kinds_its_sites_never_send() {
        let inc = UpMsg::Increment;
        let cum = UpMsg::Cumulative { value: 3 };
        let report = UpMsg::Report { round: 0, value: 1 };
        let reply = UpMsg::SyncReply { round: 0, value: 1 };
        check_kinds(&[ExactProtocol], &[inc], &[cum, report, reply]);
        check_kinds(&[HyzProtocol::new(0.1)], &[report, reply], &[inc, cum]);
        check_kinds(&[DeterministicProtocol::new(0.1)], &[cum], &[inc, report, reply]);
    }

    // ---- the epoch roll and the site roster, driven without threads ----

    /// `site` acks the roll of `epoch` with an empty settlement.
    fn ack<P: CounterProtocol>(coord: &mut Coord<'_, P, Tape>, site: usize, epoch: u32) {
        let mut buf = BytesMut::new();
        encode(&Frame::EpochAck { epoch }, &mut buf);
        coord.handle_control(site, buf.freeze()).expect("a well-formed ack");
    }

    /// `site`'s terminal `Crashed` marker, with no torn packet.
    fn crash<P: CounterProtocol>(coord: &mut Coord<'_, P, Tape>, site: usize) {
        coord.handle_crashed(site, Bytes::new()).expect("a first crash");
    }

    #[test]
    fn roll_handshake_and_staleness() {
        let protocols = vec![ExactProtocol];
        let mut coord = lone_coord(&protocols, 3);
        coord.request_roll();
        assert!(coord.rolling);
        // Everybody is stale until they ack: an update is counted, but
        // the settlement that follows it carries its count.
        assert!((0..3).all(|s| coord.is_stale(s)));
        coord.handle_updates(0, up_packet(UpMsg::Increment)).unwrap();
        assert_eq!((coord.stats.up_messages, coord.estimates()[0]), (1, 0.0));
        ack(&mut coord, 1, 0);
        assert!(!coord.is_stale(1) && coord.is_stale(0));
        coord.handle_updates(1, up_packet(UpMsg::Increment)).unwrap();
        assert_eq!((coord.stats.up_messages, coord.estimates()[0]), (2, 1.0));
        ack(&mut coord, 0, 0);
        assert!(coord.rolling);
        ack(&mut coord, 2, 0);
        assert!(!coord.rolling);
        assert_eq!(coord.epochs_closed, 1);
        assert!(!coord.is_stale(0));
    }

    #[test]
    fn overlapping_roll_requests_queue() {
        let protocols = vec![ExactProtocol];
        let mut coord = lone_coord(&protocols, 2);
        coord.request_roll();
        coord.request_roll(); // queued
        ack(&mut coord, 0, 0);
        ack(&mut coord, 1, 0);
        // Settling starts the queued roll at once.
        assert_eq!(coord.epochs_closed, 1);
        assert!(coord.rolling);
        ack(&mut coord, 0, 1);
        ack(&mut coord, 1, 1);
        assert_eq!(coord.epochs_closed, 2);
        assert!(!coord.rolling);
    }

    #[test]
    fn a_crash_completes_the_roll_in_flight() {
        let protocols = vec![ExactProtocol];
        let mut coord = lone_coord(&protocols, 3);
        coord.request_roll();
        ack(&mut coord, 0, 0);
        ack(&mut coord, 1, 0);
        // Site 2 crashes with its ack outstanding: the roll completes.
        crash(&mut coord, 2);
        assert!(!coord.rolling);
        assert_eq!(coord.epochs_closed, 1);
        // A second crash without a revive is refused, not forgotten twice.
        let err = coord.handle_crashed(2, Bytes::new()).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol { context: "crash marker", .. }));
    }

    #[test]
    fn a_dead_site_is_preacked_in_later_rolls() {
        let protocols = vec![ExactProtocol];
        let mut coord = lone_coord(&protocols, 3);
        crash(&mut coord, 1);
        coord.request_roll();
        // The dead slot is pre-acked, so its (impossible) updates are not
        // attributed to the closing epoch.
        assert!(!coord.is_stale(1));
        assert!(coord.is_stale(0) && coord.is_stale(2));
        ack(&mut coord, 0, 0);
        ack(&mut coord, 2, 0);
        assert_eq!(coord.epochs_closed, 1);
        // After the rejoin the next roll waits on it again.
        coord.rejoin(1);
        coord.request_roll();
        assert!(coord.is_stale(1));
        ack(&mut coord, 0, 1);
        ack(&mut coord, 2, 1);
        assert!(coord.rolling);
    }

    #[test]
    fn an_all_dead_roll_completes_on_request() {
        let protocols = vec![ExactProtocol];
        let mut coord = lone_coord(&protocols, 2);
        crash(&mut coord, 0);
        crash(&mut coord, 1);
        // No ack can ever arrive; the roll settles as it starts.
        coord.request_roll();
        assert!(!coord.rolling);
        assert_eq!(coord.epochs_closed, 1);
    }

    #[test]
    fn duplicate_acks_are_ignored() {
        let protocols = vec![ExactProtocol];
        let mut coord = lone_coord(&protocols, 2);
        coord.request_roll();
        ack(&mut coord, 0, 0);
        ack(&mut coord, 0, 0);
        assert!(coord.rolling);
        ack(&mut coord, 1, 0);
        assert!(!coord.rolling);
    }

    #[test]
    fn a_site_revived_after_a_roll_settles_must_ack_the_next() {
        let protocols = vec![ExactProtocol];
        let mut coord = lone_coord(&protocols, 3);
        coord.request_roll();
        ack(&mut coord, 0, 0);
        // Site 2 dies mid-roll; site 1 is still outstanding.
        crash(&mut coord, 2);
        assert!(coord.rolling);
        ack(&mut coord, 1, 0);
        assert_eq!(coord.epochs_closed, 1);
        // The driver's revive finds the site dead and rejoins it.
        coord.handle_inject(2, false).unwrap();
        assert_eq!(coord.alive_sites(), 3);
        coord.request_roll();
        ack(&mut coord, 0, 1);
        ack(&mut coord, 1, 1);
        assert!(coord.rolling && coord.is_stale(2), "the roll must wait for site 2");
        ack(&mut coord, 2, 1);
        assert!(!coord.rolling);
        assert_eq!(coord.epochs_closed, 2);
    }

    #[test]
    fn a_roll_settled_by_a_crash_mints_the_epoch_it_settled() {
        // Whichever event completes a roll — the last ack or the last
        // holdout's crash — the snapshot minted at the settlement holds
        // the epoch just settled. A crash-completed roll used to mint
        // before freezing the settlement: `epochs` one short and the
        // epoch's settled counts missing until the next mint.
        let protocols = vec![ExactProtocol];
        for by_crash in [false, true] {
            let hub = SnapshotHub::new();
            let mut coord = lone_coord(&protocols, 2);
            coord.hub = Some(hub.clone());
            coord.boundary = 100;
            coord.request_roll();
            let mut buf = BytesMut::new();
            encode(&Frame::Up { counter: 0, msg: UpMsg::Cumulative { value: 5 } }, &mut buf);
            encode(&Frame::EpochAck { epoch: 0 }, &mut buf);
            coord.handle_control(0, buf.freeze()).unwrap();
            if by_crash {
                crash(&mut coord, 1);
            } else {
                ack(&mut coord, 1, 0);
            }
            let snap = hub.load();
            assert_eq!((snap.seq, snap.epochs, snap.events), (1, 1, 100), "by_crash {by_crash}");
            assert_eq!(snap.settled, vec![5.0], "by_crash {by_crash}");
            assert_eq!(snap.closed, vec![vec![5.0]], "by_crash {by_crash}");
        }
    }

    /// The last broadcast on `site`'s down link.
    fn last_broadcast<P: CounterProtocol>(coord: &Coord<'_, P, Tape>, site: usize) -> DownMsg {
        let Some(DownPacket::Data(payload)) = coord.down_txs[site].last() else {
            panic!("no broadcast last on site {site}'s link");
        };
        let mut down = None;
        visit_packet(payload.clone(), |item| {
            if let WireItem::Down { msg, .. } = item {
                down = Some(msg);
            }
        })
        .unwrap();
        down.unwrap()
    }

    /// `site` reports rising counts on counter 0 until the report that
    /// opens the counter's sync.
    fn report_until_sync(coord: &mut Coord<'_, HyzProtocol, Tape>, site: usize) {
        let round = coord.coords[0].round();
        let broadcasts = coord.stats.broadcasts;
        for value in 1..1_000 {
            coord.handle_updates(site, up_packet(UpMsg::Report { round, value })).unwrap();
            if coord.stats.broadcasts > broadcasts {
                assert_eq!(last_broadcast(coord, site), DownMsg::SyncRequest { round });
                return;
            }
        }
        panic!("no sync opened");
    }

    /// `site` answers counter 0's open sync with its count `value`.
    fn reply(coord: &mut Coord<'_, HyzProtocol, Tape>, site: usize, value: u64) {
        let round = coord.coords[0].round();
        coord.handle_updates(site, up_packet(UpMsg::SyncReply { round, value })).unwrap();
    }

    #[test]
    fn a_sync_opened_while_a_site_is_dead_completes_without_it() {
        let protocols = [HyzProtocol::new(0.9)];
        let mut coord = lone_coord(&protocols, 3);
        crash(&mut coord, 1);
        report_until_sync(&mut coord, 0);
        reply(&mut coord, 0, 50);
        assert_eq!(coord.coords[0].round(), 0, "the sync must wait on site 2");
        reply(&mut coord, 2, 3);
        let p = coord.coords[0].p();
        assert_eq!(last_broadcast(&coord, 0), DownMsg::NewRound { round: 1, p });
        assert_eq!(coord.estimates(), vec![53.0]);
    }

    #[test]
    fn a_site_dead_across_a_roll_does_not_wedge_the_first_sync_of_the_new_epoch() {
        let protocols = [HyzProtocol::new(0.9)];
        let mut coord = lone_coord(&protocols, 3);
        crash(&mut coord, 1);
        coord.request_roll();
        ack(&mut coord, 0, 0);
        ack(&mut coord, 2, 0);
        assert_eq!((coord.rolling, coord.epochs_closed), (false, 1));
        // The new epoch's state is fresh: the dead site's absence reaches
        // it with the sync request.
        report_until_sync(&mut coord, 2);
        reply(&mut coord, 0, 4);
        reply(&mut coord, 2, 6);
        assert_eq!(coord.coords[0].round(), 1);
        assert_eq!(coord.estimates(), vec![10.0]);
    }

    #[test]
    fn a_revive_catches_each_counter_up_to_its_round() {
        // Counter 0 reaches round 1 and counter 1 stays at round 0.
        let protocols = [HyzProtocol::new(0.5), HyzProtocol::new(0.5)];
        let mut coord = lone_coord(&protocols, 2);
        // A revive at round 0 carries nothing: a fresh site is there.
        crash(&mut coord, 1);
        let bytes = coord.stats.bytes;
        coord.handle_inject(1, false).unwrap();
        assert!(matches!(coord.down_txs[1].last(), Some(DownPacket::Revive(b)) if b.is_empty()));
        assert_eq!(coord.stats.bytes, bytes);
        report_until_sync(&mut coord, 0);
        reply(&mut coord, 0, 3);
        reply(&mut coord, 1, 0);
        let (round, p) = (coord.coords[0].round(), coord.coords[0].p());
        assert_eq!((round, coord.coords[1].round()), (1, 0));
        // Past round 0 the payload is one `NewRound` frame per such
        // counter, the open round's `(round, p)`, counted in the bytes.
        crash(&mut coord, 1);
        let bytes = coord.stats.bytes;
        coord.handle_inject(1, false).unwrap();
        let mut want = BytesMut::new();
        encode(&Frame::Down { counter: 0, msg: DownMsg::NewRound { round, p } }, &mut want);
        assert!(
            matches!(coord.down_txs[1].last(), Some(DownPacket::Revive(b)) if b[..] == want[..]),
            "{:?}",
            coord.down_txs[1].last()
        );
        assert_eq!(coord.stats.bytes, bytes + want.len() as u64);
        // The rejoined site is back in the quorum: the next sync waits on it.
        report_until_sync(&mut coord, 0);
        reply(&mut coord, 0, 9);
        assert_eq!(coord.coords[0].round(), 1, "the sync must wait on the rejoined site");
        reply(&mut coord, 1, 0);
        assert_eq!(coord.coords[0].round(), 2);
    }

    #[test]
    fn invalid_fault_schedule_is_a_typed_config_error() {
        // Reachable through `TrackerConfig::faults`: an `Err`, not a panic.
        let protocols = vec![ExactProtocol];
        let fault = SiteFault { site: 9, kill_at: 10, revive_at: None };
        let bad_fault = ClusterConfig::new(4, 1).with_faults(vec![fault]);
        // Likewise `TrackerConfig::chunk`; the builders assert nothing, so
        // `check_config` is the one gate.
        let zero_chunk = ClusterConfig::new(4, 1).with_chunk(0);
        for (config, needle) in [(bad_fault, "site 9"), (zero_chunk, "chunk")] {
            let events = (0..10u64).map(|_| vec![0usize]);
            let err =
                run_cluster(&protocols, &config, chunk_events(events, 4), all_zero).unwrap_err();
            assert!(
                matches!(&err, ClusterError::Protocol { context: "cluster config", detail }
                    if detail.contains(needle)),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn driver_panic_is_a_typed_error_not_a_hang() {
        // The event source is caller code that runs on the driver. When it
        // panics mid-stream the run must still close its links and return a
        // typed error. The run sits on a helper thread so that a hang fails
        // this test at the timeout; the passing path never waits for it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut chunks = chunk_events((0..8u64).map(|_| vec![0usize]), 4);
            let events =
                std::iter::from_fn(move || Some(chunks.next().expect("injected source panic")));
            let config = ClusterConfig::new(2, 1).with_chunk(4);
            let _ = tx.send(run_cluster(&[ExactProtocol], &config, events, all_zero));
        });
        let result = rx.recv_timeout(Duration::from_secs(60)).expect("run hung");
        assert!(
            matches!(&result, Err(ClusterError::WorkerPanicked { role }) if role == "driver"),
            "got {result:?}"
        );
    }

    #[test]
    fn corrupt_down_packet_faults_the_site() {
        // A site that receives garbage reports a typed fault *up* (so the
        // coordinator aborts the whole run) and stops, instead of
        // panicking its thread and hanging the join.
        let protocols = vec![ExactProtocol];
        let map = |_: &EventChunk, ids: &mut Vec<u32>| ids.clear();
        let (up_tx, up_rx) = unbounded::<UpPacket>();
        let mut site = SiteWorker::new(0, &protocols, &map, up_tx, 1, 8);
        let alive = site.handle_down(DownPacket::Data(Bytes::copy_from_slice(&[42])));
        assert!(!alive, "a faulted site must stop");
        match up_rx.try_recv().expect("fault must be forwarded up") {
            UpPacket::Fault {
                site: 0,
                error: ClusterError::Wire { source: WireError::BadTag(42), .. },
            } => {}
            other => panic!("expected forwarded wire fault, got {other:?}"),
        }
    }

    #[test]
    fn ingest_sweeps_a_prefix_and_writes_off_the_rest() {
        // The same 7-event chunk taken dead (keep 0), dying (first half,
        // flushes held) and live (all of it): per counter, what was swept
        // into the local counts plus what went to the loss ledger is the
        // chunk's tally, and only the held case leaves bytes unsent.
        let protocols = vec![ExactProtocol; 2];
        let mut chunk = EventChunk::new();
        for i in 0..7usize {
            chunk.push(&[i]);
        }
        let tally = [4u64, 3]; // tiny_map: even events hit counter 0
        for (keep, hold) in [(0usize, false), (4, true), (7, false)] {
            let (up_tx, up_rx) = unbounded::<UpPacket>();
            let mut site = SiteWorker::new(0, &protocols, &tiny_map, up_tx, 1, 8);
            assert!(site.ingest(&chunk, keep, hold));
            assert_eq!(site.ledger.events_lost, (7 - keep) as u64, "keep {keep}");
            assert_eq!(site.pkt.is_empty(), !hold, "keep {keep}");
            assert_eq!(up_rx.try_recv().is_ok(), keep == 7, "keep {keep}");
            assert!(up_rx.try_recv().is_err(), "keep {keep}: more than one packet");
            let mut swept = [0u64; 2];
            drain(&protocols, &mut site.states, |c, count| swept[c] = count);
            assert_eq!(swept.iter().sum::<u64>(), keep as u64, "keep {keep}");
            for c in 0..2 {
                assert_eq!(swept[c] + site.ledger.lost[c], tally[c], "keep {keep} counter {c}");
            }
        }
    }

    #[test]
    fn ragged_map_event_is_a_typed_error() {
        // A `map_event` whose slab is not a whole number of events — one id
        // too many, or fewer ids than events (stride 0) — used to drop the
        // trailing ids silently in release (an `Ok` run missing
        // increments) and panic the site in debug.
        fn one_extra(chunk: &EventChunk, ids: &mut Vec<u32>) {
            tiny_map(chunk, ids);
            ids.push(1);
        }
        fn one_short(chunk: &EventChunk, ids: &mut Vec<u32>) {
            tiny_map(chunk, ids);
            ids.truncate(1);
        }
        let protocols = vec![ExactProtocol, ExactProtocol];
        let config = ClusterConfig::new(2, 3).with_chunk(8);
        for map in [one_extra as fn(&EventChunk, &mut Vec<u32>), one_short] {
            let events = (0..100u64).map(|i| vec![(i % 2) as usize]);
            let err = run_cluster(&protocols, &config, chunk_events(events, 8), map).unwrap_err();
            assert!(
                matches!(&err, ClusterError::Protocol { context: "map_event", .. }),
                "got {err:?}"
            );
        }
    }

    /// Counters `0..6` forward every arrival as an `Increment` (exact);
    /// the rest report their local count on every arrival, like HYZ at
    /// `p = 1`. One chunk then carries both kinds of update.
    #[derive(Clone, Copy)]
    struct Mixed {
        reports: bool,
    }

    impl CounterProtocol for Mixed {
        type Site = u64;
        type Coord = ();
        fn new_site(&self) -> u64 {
            0
        }
        fn new_coord(&self, _k: usize) {}
        fn increment<R: Rng + ?Sized>(&self, site: &mut u64, _rng: &mut R) -> Option<UpMsg> {
            *site += 1;
            Some(if self.reports {
                UpMsg::Report { round: 0, value: *site }
            } else {
                UpMsg::Increment
            })
        }
        fn handle_down<R: Rng + ?Sized>(
            &self,
            _: &mut u64,
            _: DownMsg,
            _: &mut R,
        ) -> Option<UpMsg> {
            None
        }
        fn handle_up(&self, _: &mut (), _: usize, _: UpMsg) -> Option<DownMsg> {
            None
        }
        fn estimate(&self, _: &()) -> f64 {
            0.0
        }
        fn site_local_count(&self, site: &u64) -> u64 {
            *site
        }
    }

    #[test]
    fn a_packet_carries_one_report_per_counter_and_every_increment() {
        // Ten events touching counters 0..8: counters 6 and 7 report on
        // every touch, so each has ten reports in the chunk; the packet
        // carries the last of each (value 10) behind the events'
        // increments, which are encoded exactly as `encode_event` encodes
        // each event's batch.
        let mut protocols = vec![Mixed { reports: false }; 6];
        protocols.extend([Mixed { reports: true }; 2]);
        let mut chunk = EventChunk::new();
        for _ in 0..10 {
            chunk.push(&[0]);
        }
        let (up_tx, up_rx) = unbounded::<UpPacket>();
        let mut site = SiteWorker::new(0, &protocols, &wide8, up_tx, 1, 8);
        assert!(site.ingest(&chunk, 10, false));
        let Ok(UpPacket::Updates { payload, .. }) = up_rx.try_recv() else {
            panic!("expected one update packet");
        };
        assert!(up_rx.try_recv().is_err(), "more than one packet");
        let mut expect = BytesMut::new();
        for _ in 0..10 {
            encode_event(&mut (0..6).map(|c| (c, UpMsg::Increment)).collect(), &mut expect);
        }
        for counter in [6, 7] {
            encode(&Frame::Up { counter, msg: UpMsg::Report { round: 0, value: 10 } }, &mut expect);
        }
        assert_eq!(payload[..], expect[..]);
        assert!(site.reports.is_empty() && site.slot.iter().all(|&s| s == 0));
    }

    #[test]
    fn a_packet_past_the_u16_batch_prefix_round_trips() {
        // 70 000 counters, each reporting once in one event: more pending
        // reports than an `UpBatch` section can count, so they ship as
        // plain frames and every one decodes.
        let n = 70_000u32;
        let protocols = vec![HyzProtocol::new(0.1); n as usize];
        let all = |chunk: &EventChunk, ids: &mut Vec<u32>| {
            ids.clear();
            for _ in 0..chunk.len() {
                ids.extend(0..n);
            }
        };
        let mut chunk = EventChunk::new();
        chunk.push(&[0]);
        let (up_tx, up_rx) = unbounded::<UpPacket>();
        let mut site = SiteWorker::new(0, &protocols, &all, up_tx, 1, 8);
        assert!(site.ingest(&chunk, 1, false));
        let Ok(UpPacket::Updates { payload, .. }) = up_rx.try_recv() else {
            panic!("expected one update packet");
        };
        assert!(up_rx.try_recv().is_err(), "more than one packet");
        let mut seen = 0u32;
        visit_packet(payload, |item| {
            let report = UpMsg::Report { round: 0, value: 1 };
            assert_eq!(item, WireItem::Up { counter: seen, msg: report });
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, n);
    }

    #[test]
    fn transport_fault_on_the_down_link_is_forwarded_up() {
        let protocols = vec![ExactProtocol];
        let map = |_: &EventChunk, ids: &mut Vec<u32>| ids.clear();
        let (up_tx, up_rx) = unbounded::<UpPacket>();
        let mut site = SiteWorker::new(0, &protocols, &map, up_tx, 1, 8);
        let substrate = ClusterError::Transport("socket torn".into());
        assert!(!site.handle_down(DownPacket::Fault(substrate.clone())));
        match up_rx.try_recv().expect("fault must be forwarded up") {
            UpPacket::Fault { site: 0, error } => assert_eq!(error, substrate),
            other => panic!("expected forwarded transport fault, got {other:?}"),
        }
    }
}
