//! Transport abstraction for the cluster runtime.
//!
//! The cluster's thread/channel topology (DESIGN.md §1) has three link
//! classes: per-site *up* links into one merged coordinator inbox, per-site
//! *down* links for broadcasts, and the in-process control plane the stream
//! driver uses (roll requests ride the same merged inbox, event chunks and
//! kill orders each site's feed). [`Transport`] abstracts how the up/down
//! links are realized while keeping the receive ends fixed: the
//! coordinator drains one merged channel, and each site blocks on ONE
//! inbox with two lanes under one lock — the coordinator's down lane,
//! unbounded and served first, and the driver's feed lane, bounded —
//! whatever carries the bytes underneath.
//!
//! Two implementations ship:
//!
//! - [`ChannelTransport`] — the in-process default: the links *are* the
//!   receive ends (one bounded MPSC channel up; down, the coordinator
//!   pushes straight into each site's [`DownLane`]), zero extra copies or
//!   threads.
//! - [`UdsTransport`] — every site⇄coordinator link is a Unix-domain
//!   socket pair carrying the envelope codec below, with per-link pump
//!   threads bridging socket and receive end. The frame payloads cross a
//!   real kernel byte stream, proving the `dsbn_counters::wire` codec (and
//!   the runtime's error handling) works cross-process; byte/packet
//!   accounting is identical because [`crate::MessageStats`] counts frame
//!   payloads, not envelope overhead.
//!
//! # Envelope codec (UDS)
//!
//! Sockets are byte streams, so packets travel in length-delimited
//! envelopes (all integers little-endian):
//!
//! ```text
//! up   := kind u8
//!   0 Updates      u32 len, len payload bytes (wire frames)
//!   1 Control      u32 len, len payload bytes (wire frames)
//!   3 Done
//!   4 FlushAck     u64 epoch
//!   5 Fault        u32 len, len UTF-8 error description
//!   6 Crashed      u32 len, len payload bytes (torn final packet)
//!   (2 and 7 are unassigned: roll requests and fault injections are the
//!    driver's control plane and only ever ride its in-process sender)
//! down := kind u8
//!   0 Data         u32 len, len payload bytes (wire frames)
//!   1 Flush        u64 epoch
//!   2 Fault        u32 len, len UTF-8 error description
//!   4 Revive       u32 len, len payload bytes (catch-up wire frames)
//!   (3 is unassigned: kills ride the driver's in-process event feed)
//! ```
//!
//! A site's identity is its connection — site ids never travel in the
//! envelope; the coordinator-side pump stamps the id of the link the bytes
//! arrived on, so a confused or malicious peer cannot impersonate another
//! site. Payload lengths are capped at [`MAX_PAYLOAD`]; anything larger is
//! a decode fault. Pumps never panic on garbage: a decode failure becomes
//! an in-band [`UpPacket::Fault`] / [`DownPacket::Fault`] that aborts the
//! run with a typed [`ClusterError`].

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use dsbn_counters::wire::WireError;
use dsbn_datagen::EventChunk;
use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Why a cluster run failed. Replaces the old panicking decode paths: any
/// malformed packet, protocol violation, or transport fault surfaces as a
/// typed error from `run_cluster` instead of killing a thread and hanging
/// the join.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A packet failed to decode (`dsbn_counters::wire`).
    Wire {
        /// Which packet class was being decoded.
        context: &'static str,
        /// Originating site, when attributable.
        site: Option<usize>,
        /// The underlying codec error.
        source: WireError,
    },
    /// A well-formed frame arrived where the protocol forbids it (e.g. a
    /// down frame on the up path, an epoch ack with no roll in flight).
    Protocol {
        /// Which handler rejected it.
        context: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The transport substrate failed (socket error, envelope garbage,
    /// pump disconnect).
    Transport(String),
    /// A runtime thread panicked. Surfaced as a typed error instead of
    /// propagating the panic (or worse, silently swallowing it at join).
    WorkerPanicked {
        /// Which thread died: `"coordinator"`, `"site 3"`, `"driver"`,
        /// `"transport pump"`.
        role: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Wire { context, site: Some(s), source } => {
                write!(f, "corrupt {context} from site {s}: {source}")
            }
            ClusterError::Wire { context, site: None, source } => {
                write!(f, "corrupt {context}: {source}")
            }
            ClusterError::Protocol { context, detail } => {
                write!(f, "protocol violation in {context}: {detail}")
            }
            ClusterError::Transport(msg) => write!(f, "transport fault: {msg}"),
            ClusterError::WorkerPanicked { role } => {
                write!(f, "worker panicked: {role}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Wire { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The peer end of a link is gone; the run is shutting down (or aborting).
/// Not an error to report — senders treat it as "stop".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClosed;

/// Site → coordinator traffic.
#[derive(Debug, Clone)]
pub enum UpPacket {
    /// A multi-event packet: the concatenated wire encodings
    /// (`encode_event` sections) of every update a site produced since its
    /// last flush — event updates and broadcast replies alike.
    Updates {
        /// Originating site.
        site: usize,
        /// Concatenated wire frames.
        payload: Bytes,
    },
    /// Wire-encoded control traffic (settlement + `Frame::EpochAck`):
    /// accounted in bytes but not in packet/message tallies.
    Control {
        /// Originating site.
        site: usize,
        /// Concatenated wire frames.
        payload: Bytes,
    },
    /// The driver crossed an epoch boundary: initiate an epoch roll. Sent
    /// by the stream driver, which is the only party that sees the global
    /// event count.
    RollRequest,
    /// The site has exhausted its event stream.
    Done,
    /// The site has processed every down packet sent before `Flush(epoch)`
    /// and forwarded all replies they produced (quiescence handshake).
    FlushAck {
        /// Flush epoch being acknowledged.
        epoch: u64,
    },
    /// The site (or its transport link) hit an unrecoverable error; the
    /// coordinator must abort the run with this error.
    Fault {
        /// Faulting site.
        site: usize,
        /// What went wrong.
        error: ClusterError,
    },
    /// The site crashed (fail-stop, injected fault). Sent *last* on the
    /// site's FIFO up link, so everything the site delivered before dying
    /// has already been applied when the coordinator learns of the crash.
    /// `partial` carries whatever prefix of the final in-flight packet the
    /// crash tore off mid-flush — the coordinator attributes and discards
    /// it (applying a prefix would break exact reconciliation; the wiped
    /// site's loss accounting already covers those updates).
    Crashed {
        /// The crashed site.
        site: usize,
        /// Torn prefix of the final unflushed packet (possibly empty).
        partial: Bytes,
    },
    /// Fault-injection command from the stream driver (the only party that
    /// sees the global event count): kill or revive `site`. Like
    /// [`UpPacket::RollRequest`] it rides only the driver's in-process
    /// [`Fabric::driver_up`]; no site link encodes or decodes either, so a
    /// peer on a site's socket cannot kill a site or roll an epoch.
    Inject {
        /// Target site.
        site: usize,
        /// `true` to kill, `false` to revive.
        kill: bool,
    },
}

/// Coordinator → site traffic.
#[derive(Debug, Clone)]
pub enum DownPacket {
    /// Wire-encoded broadcast frames.
    Data(Bytes),
    /// Quiescence barrier: ack after everything before it is handled.
    Flush(u64),
    /// The transport link from the coordinator failed; the site forwards
    /// the fault up (so the coordinator aborts) and stops.
    Fault(ClusterError),
    /// Revive a crashed site with fresh protocol state. The payload is the
    /// catch-up broadcast (concatenated down wire frames) that
    /// fast-forwards the fresh state into the current protocol rounds;
    /// FIFO ordering on the down link puts it ahead of any later
    /// broadcast.
    Revive(Bytes),
}

/// Site-side sending half of an up link.
pub trait UpSender {
    /// Deliver one packet to the coordinator's merged inbox.
    fn send(&mut self, pkt: UpPacket) -> Result<(), LinkClosed>;
}

/// Coordinator-side sending half of one site's down link.
pub trait DownSender {
    /// Deliver one packet to the site.
    fn send(&mut self, pkt: DownPacket) -> Result<(), LinkClosed>;
}

impl UpSender for Sender<UpPacket> {
    fn send(&mut self, pkt: UpPacket) -> Result<(), LinkClosed> {
        Sender::send(self, pkt).map_err(|_| LinkClosed)
    }
}

/// What the driver feeds a site: event slabs, or the in-band kill marker.
/// Riding the same FIFO lane as the arrivals makes a fault schedule's kill
/// point *exact* — the site crashes after ingesting precisely the events
/// routed to it before `kill_at`, on every interleaving — where a kill
/// detoured through the coordinator's down link would race the site
/// draining its feed (a fast site could finish its whole stream before the
/// order round-tripped, and the kill would silently miss).
#[derive(Debug)]
pub(crate) enum SiteFeed {
    Chunk(EventChunk),
    Kill,
}

/// One item a site takes from its inbox.
#[derive(Debug)]
pub(crate) enum SiteInput {
    /// From the coordinator.
    Down(DownPacket),
    /// From the driver.
    Feed(SiteFeed),
    /// The driver closed the feed and every item in it has been taken;
    /// delivered once, after which only down packets follow.
    End,
}

/// A site's inbox state: both lanes under one lock, so one blocking
/// [`SiteInbox::recv`] serves them in priority order without polling.
struct Lanes {
    down: VecDeque<DownPacket>,
    feed: VecDeque<SiteFeed>,
    /// The coordinator side ([`DownLane`]) is alive.
    down_open: bool,
    /// The driver side ([`Feeder`]) is alive.
    feed_open: bool,
    /// [`SiteInput::End`] has been handed out.
    ended: bool,
    /// The site dropped its [`SiteInbox`]: every push fails.
    site_gone: bool,
}

struct Inbox {
    lanes: Mutex<Lanes>,
    feed_depth: usize,
    /// Signalled when an item arrives or a sender side closes.
    ready: Condvar,
    /// Signalled when the feed lane frees a slot or the site leaves.
    space: Condvar,
}

impl Inbox {
    fn lock(&self) -> MutexGuard<'_, Lanes> {
        // A poisoned lock means a thread panicked holding it; every
        // critical section here is a queue operation that leaves the lanes
        // consistent, so the state is still valid.
        self.lanes.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A new site inbox whose feed lane holds `feed_depth` items: the site's
/// receive end, the coordinator's down lane, and the driver's feed lane.
pub(crate) fn site_inbox(feed_depth: usize) -> (SiteInbox, DownLane, Feeder) {
    let inbox = Arc::new(Inbox {
        lanes: Mutex::new(Lanes {
            down: VecDeque::new(),
            feed: VecDeque::new(),
            down_open: true,
            feed_open: true,
            ended: false,
            site_gone: false,
        }),
        feed_depth,
        ready: Condvar::new(),
        space: Condvar::new(),
    });
    (SiteInbox(Arc::clone(&inbox)), DownLane(Arc::clone(&inbox)), Feeder(inbox))
}

/// A site's receive end of its inbox.
pub(crate) struct SiteInbox(Arc<Inbox>);

impl SiteInbox {
    /// Block until there is something to do: a down packet (always served
    /// first — the coordinator's broadcasts and barriers never wait behind
    /// queued chunks), else the next feed item, else — once the driver has
    /// closed the feed and it is drained — [`SiteInput::End`], once.
    /// `None` when the coordinator side is gone and its lane drained: the
    /// run is over, whatever the feed still holds.
    pub(crate) fn recv(&self) -> Option<SiteInput> {
        let mut lanes = self.0.lock();
        loop {
            if let Some(pkt) = lanes.down.pop_front() {
                return Some(SiteInput::Down(pkt));
            }
            if !lanes.down_open {
                return None;
            }
            if let Some(item) = lanes.feed.pop_front() {
                drop(lanes);
                self.0.space.notify_one();
                return Some(SiteInput::Feed(item));
            }
            if !lanes.feed_open && !lanes.ended {
                lanes.ended = true;
                return Some(SiteInput::End);
            }
            lanes = self.0.ready.wait(lanes).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for SiteInbox {
    fn drop(&mut self) {
        self.0.lock().site_gone = true;
        self.0.space.notify_one();
    }
}

/// The coordinator → site lane of a site's inbox: unbounded, so a push
/// never blocks — the coordinator must never wait on a site, or a site
/// blocked on its own up-send would deadlock with it (DESIGN.md §1). The
/// coordinator holds it directly under [`ChannelTransport`]; a transport
/// that crosses a socket hands it to the pump that reads the site's end.
/// Dropping it closes the lane: the site stops once it has drained it.
pub struct DownLane(Arc<Inbox>);

impl DownSender for DownLane {
    fn send(&mut self, pkt: DownPacket) -> Result<(), LinkClosed> {
        let mut lanes = self.0.lock();
        if lanes.site_gone {
            return Err(LinkClosed);
        }
        lanes.down.push_back(pkt);
        drop(lanes);
        self.0.ready.notify_one();
        Ok(())
    }
}

impl Drop for DownLane {
    fn drop(&mut self) {
        self.0.lock().down_open = false;
        self.0.ready.notify_one();
    }
}

/// The driver → site lane of a site's inbox, bounded at its depth: the
/// driver blocks while it is full, so it is paced by the site. Dropping it
/// is end-of-stream.
pub(crate) struct Feeder(Arc<Inbox>);

impl Feeder {
    /// Queue one feed item, waiting for a free slot; `Err` once the site
    /// has dropped its inbox (it stopped — the run is aborting).
    pub(crate) fn send(&self, item: SiteFeed) -> Result<(), LinkClosed> {
        let mut lanes = self.0.lock();
        while !lanes.site_gone && lanes.feed.len() >= self.0.feed_depth {
            lanes = self.0.space.wait(lanes).unwrap_or_else(|e| e.into_inner());
        }
        if lanes.site_gone {
            return Err(LinkClosed);
        }
        lanes.feed.push_back(item);
        drop(lanes);
        self.0.ready.notify_one();
        Ok(())
    }

    /// [`Self::send`] without the wait: hands the item back when the lane
    /// is full or the site is gone.
    #[cfg(test)]
    fn try_send(&self, item: SiteFeed) -> Result<(), SiteFeed> {
        let mut lanes = self.0.lock();
        if lanes.site_gone || lanes.feed.len() >= self.0.feed_depth {
            return Err(item);
        }
        lanes.feed.push_back(item);
        Ok(())
    }
}

impl Drop for Feeder {
    fn drop(&mut self) {
        self.0.lock().feed_open = false;
        self.0.ready.notify_one();
    }
}

/// The connected link fabric for one run: what `run_cluster_on` wires into
/// its threads. The coordinator's receive end is a channel (transports
/// that cross a process or socket boundary pump into it, as they pump into
/// the sites' [`DownLane`]s); send ends are the transport's own types.
pub struct Fabric<U, D> {
    /// Per-site up senders, moved into the site threads.
    pub site_ups: Vec<U>,
    /// The driver's in-process control-plane sender into the merged inbox
    /// (roll requests must be ordered against the driver's own event
    /// feeds, so they never cross a foreign transport).
    pub driver_up: Sender<UpPacket>,
    /// The coordinator's merged inbox (all sites + driver).
    pub coord_rx: Receiver<UpPacket>,
    /// Per-site down senders, moved into the coordinator thread.
    pub coord_downs: Vec<D>,
    /// Transport pump threads to join after the run's thread scope exits
    /// (they terminate once both ends of their links are dropped).
    pub pumps: Vec<JoinHandle<()>>,
}

/// How the cluster's site⇄coordinator links are realized.
pub trait Transport {
    /// Site-side up sending half.
    type UpTx: UpSender + Send;
    /// Coordinator-side down sending half.
    type DownTx: DownSender + Send;

    /// Build the link fabric for one site per entry of `down_lanes`:
    /// `coord_downs[i]` must deliver, in order, into `down_lanes[i]` —
    /// site `i`'s inbox. A lane never blocks, so neither may the
    /// coordinator's send: it must never wait on a site, or a site blocked
    /// on its own up-send would deadlock with it. `up_depth` bounds the
    /// merged up inbox (backpressure).
    fn connect(
        &self,
        down_lanes: Vec<DownLane>,
        up_depth: usize,
    ) -> Result<Fabric<Self::UpTx, Self::DownTx>, ClusterError>;
}

/// The in-process default: the up link is a bounded channel, and the
/// coordinator pushes straight into each site's inbox.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelTransport;

impl Transport for ChannelTransport {
    type UpTx = Sender<UpPacket>;
    type DownTx = DownLane;

    fn connect(
        &self,
        down_lanes: Vec<DownLane>,
        up_depth: usize,
    ) -> Result<Fabric<Self::UpTx, Self::DownTx>, ClusterError> {
        assert!(!down_lanes.is_empty(), "need at least one site");
        let (up_tx, up_rx) = bounded::<UpPacket>(up_depth);
        Ok(Fabric {
            site_ups: down_lanes.iter().map(|_| up_tx.clone()).collect(),
            driver_up: up_tx,
            coord_rx: up_rx,
            coord_downs: down_lanes,
            pumps: Vec::new(),
        })
    }
}

/// Largest envelope payload a pump will accept. Anything bigger is treated
/// as a corrupt length prefix (the runtime's flush threshold keeps real
/// packets orders of magnitude smaller).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Unix-domain-socket transport: each site gets one socket pair up and one
/// down, with pump threads bridging the coordinator-side up reads and the
/// site-side down reads into the runtime's channels. See the module docs
/// for the envelope codec and fault behavior.
#[cfg(unix)]
#[derive(Debug, Clone, Copy, Default)]
pub struct UdsTransport;

#[cfg(unix)]
/// Site-side up sender writing envelopes straight to the socket.
pub struct UdsUpSender {
    stream: UnixStream,
}

#[cfg(unix)]
/// Coordinator-side down sender writing envelopes straight to the socket.
pub struct UdsDownSender {
    stream: UnixStream,
}

#[cfg(unix)]
fn write_all(stream: &mut UnixStream, buf: &[u8]) -> Result<(), LinkClosed> {
    stream.write_all(buf).map_err(|_| LinkClosed)
}

#[cfg(unix)]
fn push_len_payload(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

#[cfg(unix)]
impl UpSender for UdsUpSender {
    fn send(&mut self, pkt: UpPacket) -> Result<(), LinkClosed> {
        let mut out = Vec::new();
        match pkt {
            UpPacket::Updates { payload, .. } => {
                out.push(0);
                push_len_payload(&mut out, &payload);
            }
            UpPacket::Control { payload, .. } => {
                out.push(1);
                push_len_payload(&mut out, &payload);
            }
            // The driver's control plane has no envelope: a site link
            // refuses to carry it.
            UpPacket::RollRequest | UpPacket::Inject { .. } => return Err(LinkClosed),
            UpPacket::Done => out.push(3),
            UpPacket::FlushAck { epoch } => {
                out.push(4);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            UpPacket::Fault { error, .. } => {
                out.push(5);
                push_len_payload(&mut out, error.to_string().as_bytes());
            }
            UpPacket::Crashed { partial, .. } => {
                out.push(6);
                push_len_payload(&mut out, &partial);
            }
        }
        write_all(&mut self.stream, &out)
    }
}

#[cfg(unix)]
impl DownSender for UdsDownSender {
    fn send(&mut self, pkt: DownPacket) -> Result<(), LinkClosed> {
        let mut out = Vec::new();
        match pkt {
            DownPacket::Data(payload) => {
                out.push(0);
                push_len_payload(&mut out, &payload);
            }
            DownPacket::Flush(epoch) => {
                out.push(1);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            DownPacket::Fault(error) => {
                out.push(2);
                push_len_payload(&mut out, error.to_string().as_bytes());
            }
            DownPacket::Revive(payload) => {
                out.push(4);
                push_len_payload(&mut out, &payload);
            }
        }
        write_all(&mut self.stream, &out)
    }
}

/// One decoded envelope, or clean end-of-stream.
enum Envelope<T> {
    Packet(T),
    Eof,
}

/// Read exactly `buf.len()` bytes; `Ok(false)` on clean EOF at the first
/// byte, `Err` on mid-envelope truncation or I/O failure.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated envelope"));
        }
        filled += n;
    }
    Ok(true)
}

fn read_payload<R: Read>(r: &mut R, what: &str) -> Result<Bytes, String> {
    let mut len4 = [0u8; 4];
    if !read_exact_or_eof(r, &mut len4).map_err(|e| format!("{what}: {e}"))? {
        return Err(format!("{what}: truncated length prefix"));
    }
    let len = u32::from_le_bytes(len4) as usize;
    if len > MAX_PAYLOAD {
        return Err(format!("{what}: payload length {len} exceeds cap {MAX_PAYLOAD}"));
    }
    let mut payload = vec![0u8; len];
    if !read_exact_or_eof(r, &mut payload).map_err(|e| format!("{what}: {e}"))? {
        return Err(format!("{what}: truncated payload"));
    }
    Ok(Bytes::from(payload))
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, String> {
    let mut b = [0u8; 8];
    match read_exact_or_eof(r, &mut b) {
        Ok(true) => Ok(u64::from_le_bytes(b)),
        Ok(false) => Err(format!("{what}: truncated")),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Decode one up envelope from a coordinator-side socket reader. `site` is
/// the link identity the bytes arrived on (never trusted from the wire).
fn read_up_envelope<R: Read>(r: &mut R, site: usize) -> Result<Envelope<UpPacket>, String> {
    let mut kind = [0u8; 1];
    match read_exact_or_eof(r, &mut kind) {
        Ok(false) => return Ok(Envelope::Eof),
        Ok(true) => {}
        Err(e) => return Err(format!("up envelope: {e}")),
    }
    let pkt = match kind[0] {
        0 => UpPacket::Updates { site, payload: read_payload(r, "up updates envelope")? },
        1 => UpPacket::Control { site, payload: read_payload(r, "up control envelope")? },
        3 => UpPacket::Done,
        4 => UpPacket::FlushAck { epoch: read_u64(r, "up flush-ack envelope")? },
        5 => {
            let msg = read_payload(r, "up fault envelope")?;
            let msg = String::from_utf8_lossy(&msg).into_owned();
            UpPacket::Fault { site, error: ClusterError::Transport(msg) }
        }
        6 => UpPacket::Crashed { site, partial: read_payload(r, "up crashed envelope")? },
        other => return Err(format!("up envelope: unknown kind {other}")),
    };
    Ok(Envelope::Packet(pkt))
}

/// Decode one down envelope from a site-side socket reader.
fn read_down_envelope<R: Read>(r: &mut R) -> Result<Envelope<DownPacket>, String> {
    let mut kind = [0u8; 1];
    match read_exact_or_eof(r, &mut kind) {
        Ok(false) => return Ok(Envelope::Eof),
        Ok(true) => {}
        Err(e) => return Err(format!("down envelope: {e}")),
    }
    let pkt = match kind[0] {
        0 => DownPacket::Data(read_payload(r, "down data envelope")?),
        1 => DownPacket::Flush(read_u64(r, "down flush envelope")?),
        2 => {
            let msg = read_payload(r, "down fault envelope")?;
            let msg = String::from_utf8_lossy(&msg).into_owned();
            DownPacket::Fault(ClusterError::Transport(msg))
        }
        4 => DownPacket::Revive(read_payload(r, "down revive envelope")?),
        other => return Err(format!("down envelope: unknown kind {other}")),
    };
    Ok(Envelope::Packet(pkt))
}

#[cfg(unix)]
impl Transport for UdsTransport {
    type UpTx = UdsUpSender;
    type DownTx = UdsDownSender;

    fn connect(
        &self,
        down_lanes: Vec<DownLane>,
        up_depth: usize,
    ) -> Result<Fabric<Self::UpTx, Self::DownTx>, ClusterError> {
        let k = down_lanes.len();
        assert!(k > 0, "need at least one site");
        let sock = |what: &str| {
            UnixStream::pair().map_err(|e| ClusterError::Transport(format!("{what}: {e}")))
        };
        // The merged inbox stays bounded: a pump blocked forwarding into a
        // full inbox stops reading its socket, the kernel buffer fills,
        // and the site's writes block — the same backpressure as the
        // in-process bounded channel, stretched over the socket hop.
        let (up_tx, up_rx) = bounded::<UpPacket>(up_depth);
        let mut site_ups = Vec::with_capacity(k);
        let mut coord_downs = Vec::with_capacity(k);
        let mut pumps = Vec::with_capacity(2 * k);
        for (site, mut lane) in down_lanes.into_iter().enumerate() {
            let (site_up, coord_up) = sock("up socket pair")?;
            let (coord_down, site_down) = sock("down socket pair")?;
            site_ups.push(UdsUpSender { stream: site_up });
            coord_downs.push(UdsDownSender { stream: coord_down });

            // Coordinator-side up pump: socket → merged inbox, stamping
            // the link's site id. Garbage becomes an in-band Fault; either
            // way the pump exits and drops its inbox sender.
            let tx = up_tx.clone();
            pumps.push(std::thread::spawn(move || {
                let mut r = BufReader::new(coord_up);
                loop {
                    match read_up_envelope(&mut r, site) {
                        Ok(Envelope::Eof) => break,
                        Ok(Envelope::Packet(pkt)) => {
                            if tx.send(pkt).is_err() {
                                break;
                            }
                        }
                        Err(msg) => {
                            let _ = tx.send(UpPacket::Fault {
                                site,
                                error: ClusterError::Transport(msg),
                            });
                            break;
                        }
                    }
                }
            }));

            // Site-side down pump: socket → the site's down lane. The lane
            // never blocks, which preserves the coordinator-never-blocks
            // invariant across the hop: the pump drains the socket
            // unconditionally, so a coordinator write can only wait for
            // the pump to catch up, never on the site's progress.
            pumps.push(std::thread::spawn(move || {
                let mut r = BufReader::new(site_down);
                loop {
                    match read_down_envelope(&mut r) {
                        Ok(Envelope::Eof) => break,
                        Ok(Envelope::Packet(pkt)) => {
                            if lane.send(pkt).is_err() {
                                break;
                            }
                        }
                        Err(msg) => {
                            let _ = lane.send(DownPacket::Fault(ClusterError::Transport(msg)));
                            break;
                        }
                    }
                }
            }));
        }
        Ok(Fabric { site_ups, driver_up: up_tx, coord_rx: up_rx, coord_downs, pumps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_error_displays_context() {
        let e = ClusterError::Wire {
            context: "up packet",
            site: Some(3),
            source: WireError::Truncated,
        };
        assert!(e.to_string().contains("up packet"));
        assert!(e.to_string().contains("site 3"));
        let e = ClusterError::Protocol { context: "coordinator", detail: "done twice".into() };
        assert!(e.to_string().contains("done twice"));
        let e = ClusterError::WorkerPanicked { role: "site 3".into() };
        assert!(e.to_string().contains("worker panicked: site 3"));
    }

    /// `k` site inboxes, wired like a run wires them: the receive ends, the
    /// feed lanes (held so `recv` never reports end-of-stream) and the down
    /// lanes a transport connects.
    fn inboxes(k: usize) -> (Vec<SiteInbox>, Vec<Feeder>, Vec<DownLane>) {
        let (mut ends, mut feeds, mut lanes) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..k {
            let (end, lane, feed) = site_inbox(4);
            ends.push(end);
            feeds.push(feed);
            lanes.push(lane);
        }
        (ends, feeds, lanes)
    }

    /// The next input, which must be a down packet.
    fn down(inbox: &SiteInbox) -> DownPacket {
        match inbox.recv() {
            Some(SiteInput::Down(pkt)) => pkt,
            other => panic!("expected a down packet, got {other:?}"),
        }
    }

    fn chunk_of(n: usize) -> SiteFeed {
        let mut chunk = EventChunk::new();
        for i in 0..n {
            chunk.push(&[i]);
        }
        SiteFeed::Chunk(chunk)
    }

    #[test]
    fn inbox_serves_the_down_lane_before_queued_feed_items() {
        let (inbox, mut lane, feed) = site_inbox(4);
        feed.send(chunk_of(1)).unwrap();
        feed.send(SiteFeed::Kill).unwrap();
        lane.send(DownPacket::Flush(1)).unwrap();
        assert!(matches!(down(&inbox), DownPacket::Flush(1)));
        assert!(matches!(inbox.recv(), Some(SiteInput::Feed(SiteFeed::Chunk(c))) if c.len() == 1));
        lane.send(DownPacket::Flush(2)).unwrap();
        assert!(matches!(down(&inbox), DownPacket::Flush(2)));
        assert!(matches!(inbox.recv(), Some(SiteInput::Feed(SiteFeed::Kill))));
        // The coordinator gone ends the run, whatever the feed still holds.
        feed.send(chunk_of(3)).unwrap();
        drop(lane);
        assert!(inbox.recv().is_none());
    }

    #[test]
    fn feed_lane_refuses_a_push_at_its_depth() {
        let (inbox, mut lane, feed) = site_inbox(2);
        assert!(feed.try_send(SiteFeed::Kill).is_ok());
        assert!(feed.try_send(chunk_of(1)).is_ok());
        assert!(feed.try_send(SiteFeed::Kill).is_err(), "a third item at depth 2");
        assert!(matches!(inbox.recv(), Some(SiteInput::Feed(SiteFeed::Kill))));
        assert!(feed.try_send(SiteFeed::Kill).is_ok(), "the take freed a slot");
        // The down lane has no depth: the coordinator never waits on a site.
        for epoch in 0..1000 {
            lane.send(DownPacket::Flush(epoch)).unwrap();
        }
    }

    #[test]
    fn a_driver_blocked_on_a_full_feed_is_released_when_the_site_leaves() {
        // Whether the driver blocks before or after the site leaves, its
        // send returns `Err` instead of waiting forever.
        let (inbox, _lane, feed) = site_inbox(1);
        feed.send(SiteFeed::Kill).unwrap();
        let driver = std::thread::spawn(move || feed.send(SiteFeed::Kill));
        drop(inbox);
        assert_eq!(driver.join().unwrap(), Err(LinkClosed));
    }

    #[test]
    fn end_of_stream_follows_the_drained_feed_and_the_down_lane_outlives_it() {
        let (inbox, mut lane, feed) = site_inbox(4);
        feed.send(chunk_of(2)).unwrap();
        feed.send(SiteFeed::Kill).unwrap();
        drop(feed);
        assert!(matches!(inbox.recv(), Some(SiteInput::Feed(SiteFeed::Chunk(_)))));
        assert!(matches!(inbox.recv(), Some(SiteInput::Feed(SiteFeed::Kill))));
        assert!(matches!(inbox.recv(), Some(SiteInput::End)));
        // After the one `End`, the site keeps serving the coordinator...
        lane.send(DownPacket::Flush(3)).unwrap();
        assert!(matches!(down(&inbox), DownPacket::Flush(3)));
        // ...until it drops the lane: what the lane holds is still served.
        lane.send(DownPacket::Flush(4)).unwrap();
        drop(lane);
        assert!(matches!(down(&inbox), DownPacket::Flush(4)));
        assert!(inbox.recv().is_none());
    }

    #[test]
    fn channel_transport_round_trips_packets() {
        let (ends, _feeds, lanes) = inboxes(2);
        let fabric = ChannelTransport.connect(lanes, 8).unwrap();
        let Fabric { site_ups, driver_up, coord_rx, mut coord_downs, pumps } = fabric;
        assert!(pumps.is_empty());
        site_ups[1].send(UpPacket::Done).unwrap();
        driver_up.send(UpPacket::RollRequest).unwrap();
        assert!(matches!(coord_rx.recv().unwrap(), UpPacket::Done));
        assert!(matches!(coord_rx.recv().unwrap(), UpPacket::RollRequest));
        coord_downs[0].send(DownPacket::Flush(7)).unwrap();
        assert!(matches!(down(&ends[0]), DownPacket::Flush(7)));
    }

    #[cfg(unix)]
    #[test]
    fn uds_transport_round_trips_every_envelope_kind() {
        let (ends, feeds, lanes) = inboxes(2);
        let fabric = UdsTransport.connect(lanes, 8).unwrap();
        let Fabric { mut site_ups, driver_up: _d, coord_rx, mut coord_downs, pumps } = fabric;
        let payload = Bytes::from(vec![1u8, 2, 3]);
        site_ups[0].send(UpPacket::Updates { site: 0, payload: payload.clone() }).unwrap();
        site_ups[0].send(UpPacket::Control { site: 0, payload: payload.clone() }).unwrap();
        site_ups[1].send(UpPacket::FlushAck { epoch: 42 }).unwrap();
        site_ups[1].send(UpPacket::Done).unwrap();
        site_ups[0]
            .send(UpPacket::Fault {
                site: 0,
                error: ClusterError::Protocol { context: "x", detail: "y".into() },
            })
            .unwrap();
        site_ups[1].send(UpPacket::Crashed { site: 1, partial: payload.clone() }).unwrap();
        // The merged inbox interleaves links arbitrarily; collect and sort.
        let mut got = Vec::new();
        for _ in 0..6 {
            got.push(coord_rx.recv().unwrap());
        }
        let find = |pred: &dyn Fn(&UpPacket) -> bool| got.iter().any(pred);
        assert!(find(
            &|p| matches!(p, UpPacket::Updates { site: 0, payload: pl } if pl[..] == [1, 2, 3])
        ));
        assert!(find(&|p| matches!(p, UpPacket::Control { site: 0, .. })));
        assert!(find(&|p| matches!(p, UpPacket::FlushAck { epoch: 42 })));
        assert!(find(&|p| matches!(p, UpPacket::Done)));
        // Faults arrive as Transport (the description crossed as UTF-8),
        // stamped with the *link's* site id.
        assert!(find(
            &|p| matches!(p, UpPacket::Fault { site: 0, error: ClusterError::Transport(m) } if m.contains("y"))
        ));
        // Crashed is stamped with the *link's* id.
        assert!(find(
            &|p| matches!(p, UpPacket::Crashed { site: 1, partial } if partial[..] == [1, 2, 3])
        ));
        // The driver's control plane never crosses a site link: the sender
        // refuses it, and the old kinds 2 (RollRequest) and 7 (Inject)
        // written raw are decode faults — a peer on site 1's socket cannot
        // roll an epoch or kill site 0. A fault ends the link's pump, so
        // each link takes one.
        assert_eq!(site_ups[0].send(UpPacket::RollRequest), Err(LinkClosed));
        assert_eq!(site_ups[1].send(UpPacket::Inject { site: 0, kill: true }), Err(LinkClosed));
        site_ups[0].stream.write_all(&[2u8]).unwrap();
        site_ups[1].stream.write_all(&[7u8, 1, 0, 0, 0, 0]).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                coord_rx.recv().unwrap(),
                UpPacket::Fault { error: ClusterError::Transport(m), .. } if m.contains("unknown kind")
            ));
        }

        coord_downs[1].send(DownPacket::Data(payload.clone())).unwrap();
        coord_downs[1].send(DownPacket::Flush(9)).unwrap();
        coord_downs[1].send(DownPacket::Revive(payload.clone())).unwrap();
        coord_downs[1].send(DownPacket::Fault(ClusterError::Transport("boom".into()))).unwrap();
        assert!(matches!(down(&ends[1]), DownPacket::Data(pl) if pl[..] == [1, 2, 3]));
        assert!(matches!(down(&ends[1]), DownPacket::Flush(9)));
        assert!(matches!(down(&ends[1]), DownPacket::Revive(pl) if pl[..] == [1, 2, 3]));
        assert!(matches!(
            down(&ends[1]),
            DownPacket::Fault(ClusterError::Transport(m)) if m.contains("boom")
        ));
        // Kind 3 is unassigned on the down link: a decode fault, like any
        // other garbage.
        coord_downs[1].stream.write_all(&[3u8]).unwrap();
        assert!(matches!(
            down(&ends[1]),
            DownPacket::Fault(ClusterError::Transport(m)) if m.contains("unknown kind 3")
        ));

        drop(site_ups);
        drop(coord_downs);
        drop(coord_rx);
        drop(ends);
        drop(feeds);
        for p in pumps {
            p.join().unwrap();
        }
    }

    #[cfg(unix)]
    #[test]
    fn uds_garbage_becomes_fault_not_panic() {
        // Feed raw garbage into the coordinator-side up pump.
        let (ends, feeds, lanes) = inboxes(1);
        let fabric = UdsTransport.connect(lanes, 8).unwrap();
        let Fabric { site_ups, driver_up, coord_rx, coord_downs, pumps } = fabric;
        let mut raw = {
            // Reach the raw socket through the sender we were handed.
            let UdsUpSender { stream } = site_ups.into_iter().next().unwrap();
            stream
        };
        raw.write_all(&[99u8]).unwrap(); // unknown envelope kind
        match coord_rx.recv().unwrap() {
            UpPacket::Fault { site: 0, error: ClusterError::Transport(msg) } => {
                assert!(msg.contains("unknown kind 99"), "{msg}");
            }
            other => panic!("expected fault, got {other:?}"),
        }
        drop(raw);
        drop(driver_up);
        drop(coord_downs);
        drop(coord_rx);
        drop(ends);
        drop(feeds);
        for p in pumps {
            p.join().unwrap();
        }
    }

    #[cfg(unix)]
    #[test]
    fn uds_oversized_length_prefix_is_rejected() {
        let (ends, feeds, lanes) = inboxes(1);
        let fabric = UdsTransport.connect(lanes, 8).unwrap();
        let Fabric { site_ups, driver_up, coord_rx, coord_downs, pumps } = fabric;
        let mut raw = {
            let UdsUpSender { stream } = site_ups.into_iter().next().unwrap();
            stream
        };
        // Updates envelope claiming a ~4 GiB payload.
        raw.write_all(&[0u8]).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        match coord_rx.recv().unwrap() {
            UpPacket::Fault { error: ClusterError::Transport(msg), .. } => {
                assert!(msg.contains("exceeds cap"), "{msg}");
            }
            other => panic!("expected fault, got {other:?}"),
        }
        drop(raw);
        drop(driver_up);
        drop(coord_downs);
        drop(coord_rx);
        drop(ends);
        drop(feeds);
        for p in pumps {
            p.join().unwrap();
        }
    }

    #[cfg(unix)]
    #[test]
    fn uds_truncated_envelope_is_a_fault_on_site_side_too() {
        let (ends, feeds, lanes) = inboxes(1);
        let fabric = UdsTransport.connect(lanes, 8).unwrap();
        let Fabric { site_ups, driver_up, coord_rx, coord_downs, pumps } = fabric;
        let mut raw = {
            let UdsDownSender { stream } = coord_downs.into_iter().next().unwrap();
            stream
        };
        raw.write_all(&[0u8, 9, 0]).unwrap(); // Data envelope, cut mid-length
        drop(raw); // EOF mid-envelope => truncation fault
        match down(&ends[0]) {
            DownPacket::Fault(ClusterError::Transport(msg)) => {
                assert!(msg.contains("truncated"), "{msg}");
            }
            other => panic!("expected fault, got {other:?}"),
        }
        drop(site_ups);
        drop(driver_up);
        drop(coord_rx);
        drop(ends);
        drop(feeds);
        for p in pumps {
            p.join().unwrap();
        }
    }
}
