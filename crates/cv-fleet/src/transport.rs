//! The transport boundary: how coordinator↔member traffic actually travels.
//!
//! Everything a [`Fleet`](crate::Fleet) exchanges with its members —
//! presentations, invariant uploads, patch pushes, bootstrap snapshots, delta
//! syncs, acks — is an [`Envelope`] (the `cv-store` versioned wire format) sent
//! through a [`Transport`]. Three backends ship:
//!
//! * [`InProcessTransport`] — per-peer FIFO queues; no serialization, an
//!   envelope fans out by `Arc` refcount. Member inboxes are a `Vec` indexed by
//!   node id and [`Transport::recv_into`] drains one into the caller's buffer,
//!   so delivering a page is a push and a drain. The default, byte-identical to
//!   the pre-transport fleet.
//! * [`SocketTransport`] — a loopback TCP pair; every envelope is encoded,
//!   length-framed, crosses a real kernel socket, and is decoded on the other
//!   side. Lossless and ordered, so a fleet on it writes the same
//!   [`BatchLog`](crate::BatchLog) as the in-process path (the determinism CI
//!   job diffs the two).
//! * [`ChaosTransport`] — wraps another backend and, from a seeded
//!   deterministic RNG, drops, duplicates, and delays (hence reorders)
//!   envelopes, and drops everything crossing a partition boundary set through
//!   [`ChaosControls`]. Same seed, same faults — chaos runs are reproducible.
//!
//! Delivery is made reliable *above* the transport: receivers deduplicate by
//! `(to, from, epoch, seq)` ([`DedupeWindow`], one hash insert per envelope)
//! so retransmits and duplicates are no-ops, and senders retransmit unacked
//! envelopes, in seq order, with capped exponential backoff. The fleet's acked
//! exchange stamps one exchange's envelopes with contiguous seqs, so its
//! pending set is an array of ack flags indexed by `seq - first`, and it drains
//! every inbox through [`Transport::recv_into`] into one buffer: a patch push to
//! N members costs array operations and the envelopes, not map and set
//! operations and an allocation per inbox. [`SequencedApplier`] is the
//! executable model of that application layer — any permutation-with-duplicates
//! of an envelope stream folds to the same invariant database and net patch plan
//! as in-order exactly-once delivery (proven by proptest in
//! `tests/transport_stream.rs`).

use crate::shard::ShardedInvariantStore;
use cv_core::{NetPatchState, PatchPlan};
use cv_inference::InvariantDatabase;
use cv_store::{Envelope, EnvelopePayload};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// A transport endpoint: a member's node id, or [`COORDINATOR`].
pub type PeerId = u32;

/// The coordinator's peer id (members are their node ids; node ids never reach
/// `u32::MAX` — the engine would exhaust memory long before).
pub const COORDINATOR: PeerId = u32::MAX;

/// Deepest tier a coordinator peer id can name: ids in
/// `(COORDINATOR - MAX_TIER_PEERS) ..= COORDINATOR` are reserved for the
/// coordinator side of the tree (the root plus up to 64 tiers of intermediate
/// coordinators), far above any member node id.
pub const MAX_TIER_PEERS: u32 = 64;

/// The peer id of the tier-`tier` coordinator endpoint (tier 1 = directly
/// under the root). `tier_peer(0)` is the root itself, [`COORDINATOR`].
pub fn tier_peer(tier: u32) -> PeerId {
    debug_assert!(
        tier <= MAX_TIER_PEERS,
        "tier {tier} beyond the reserved id range"
    );
    COORDINATOR - tier
}

/// True when `peer` is a coordinator-side endpoint (the root or a tier
/// coordinator) rather than a member node.
pub fn is_coordinator_side(peer: PeerId) -> bool {
    peer >= COORDINATOR - MAX_TIER_PEERS
}

/// Cumulative delivery accounting a transport reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Envelopes handed to `send` (chaos counts the originals, not the copies).
    pub sent: u64,
    /// Envelopes handed back out of `recv`.
    pub delivered: u64,
    /// Envelopes the chaos plane dropped outright.
    pub dropped: u64,
    /// Envelopes the chaos plane queued twice.
    pub duplicated: u64,
    /// Envelopes dropped because an endpoint was partitioned.
    pub partition_dropped: u64,
}

impl TransportStats {
    /// The counters accumulated since `base` (both read from the same
    /// transport, `base` earlier).
    pub fn since(&self, base: &TransportStats) -> TransportStats {
        TransportStats {
            sent: self.sent - base.sent,
            delivered: self.delivered - base.delivered,
            dropped: self.dropped - base.dropped,
            duplicated: self.duplicated - base.duplicated,
            partition_dropped: self.partition_dropped - base.partition_dropped,
        }
    }

    /// True if every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == TransportStats::default()
    }
}

/// Send/recv of [`Envelope`]s between the coordinator and the members.
///
/// Time is logical: [`Transport::tick`] advances delivery one step (releases
/// due delayed envelopes, pumps socket buffers). A lossless backend delivers
/// everything sent after [`Transport::flush_ticks`] ticks; a lossy one may
/// drop envelopes forever — reliability is the application layer's job.
pub trait Transport {
    /// Queue one envelope toward `envelope.to`.
    fn send(&mut self, envelope: Envelope);

    /// Advance logical time one step.
    fn tick(&mut self);

    /// Drain everything currently deliverable to `peer`.
    fn recv(&mut self, peer: PeerId) -> Vec<Envelope>;

    /// [`Transport::recv`] appended to `out`: the same envelopes in the same
    /// order, for a caller that drains many inboxes through one buffer.
    fn recv_into(&mut self, peer: PeerId, out: &mut Vec<Envelope>) {
        out.extend(self.recv(peer));
    }

    /// Backend name (for traces and bench records).
    fn name(&self) -> &'static str;

    /// True if this backend can drop envelopes or partition peers — the fleet
    /// then tracks per-member divergence and runs the resync plane.
    fn is_lossy(&self) -> bool {
        false
    }

    /// Ticks after which everything sent (and not lost) has been delivered.
    fn flush_ticks(&self) -> u32 {
        1
    }

    /// Cumulative delivery accounting.
    fn stats(&self) -> TransportStats;
}

// ---------------------------------------------------------------------------
// In-process backend
// ---------------------------------------------------------------------------

/// Per-peer FIFO queues in process memory: the seed's function-call exchange
/// expressed as a [`Transport`]. Nothing is serialized; large payloads move by
/// `Arc` refcount. A member's inbox is found by indexing with its node id, so the
/// inboxes take room up to the highest member id addressed; the few
/// coordinator-side peers live in a map.
#[derive(Debug, Default)]
pub struct InProcessTransport {
    members: Vec<VecDeque<Envelope>>,
    coordinators: BTreeMap<PeerId, VecDeque<Envelope>>,
    stats: TransportStats,
}

impl InProcessTransport {
    /// An empty transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for InProcessTransport {
    fn send(&mut self, envelope: Envelope) {
        self.stats.sent += 1;
        let peer = envelope.to;
        if is_coordinator_side(peer) {
            self.coordinators
                .entry(peer)
                .or_default()
                .push_back(envelope);
        } else {
            let index = peer as usize;
            if index >= self.members.len() {
                self.members.resize_with(index + 1, VecDeque::new);
            }
            self.members[index].push_back(envelope);
        }
    }

    fn tick(&mut self) {}

    fn recv(&mut self, peer: PeerId) -> Vec<Envelope> {
        let mut out = Vec::new();
        self.recv_into(peer, &mut out);
        out
    }

    fn recv_into(&mut self, peer: PeerId, out: &mut Vec<Envelope>) {
        let inbox = if is_coordinator_side(peer) {
            self.coordinators.get_mut(&peer)
        } else {
            self.members.get_mut(peer as usize)
        };
        if let Some(queue) = inbox {
            self.stats.delivered += queue.len() as u64;
            out.extend(queue.drain(..));
        }
    }

    fn name(&self) -> &'static str {
        "inprocess"
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Loopback-socket backend
// ---------------------------------------------------------------------------

/// An outgoing byte buffer with a read cursor (so flushing is O(written), not
/// O(buffer) per write call).
#[derive(Debug, Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.is_empty() {
            self.buf.clear();
            self.pos = 0;
        }
    }
}

/// A loopback TCP pair: the coordinator's end and the members' shared end.
/// Every envelope is encoded into the versioned `cv-store` container, framed
/// with a `u32` length, written through the kernel, read back on the other
/// end, and decoded into the per-peer inbox. Lossless and ordered — but the
/// bytes really do leave the process's address space.
#[derive(Debug)]
pub struct SocketTransport {
    /// The coordinator's socket (writes member-bound traffic, receives
    /// coordinator-bound traffic).
    coord_end: TcpStream,
    /// The members' shared socket (the simulation multiplexes every member
    /// onto one loopback connection; the multi-process backend is the
    /// ROADMAP follow-up).
    member_end: TcpStream,
    out_coord: OutBuf,
    out_member: OutBuf,
    in_coord: Vec<u8>,
    in_member: Vec<u8>,
    inboxes: BTreeMap<PeerId, VecDeque<Envelope>>,
    stats: TransportStats,
}

impl SocketTransport {
    /// Open a connected loopback pair.
    pub fn new() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let member_end = TcpStream::connect(listener.local_addr()?)?;
        let (coord_end, _) = listener.accept()?;
        for stream in [&coord_end, &member_end] {
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
        }
        Ok(SocketTransport {
            coord_end,
            member_end,
            out_coord: OutBuf::default(),
            out_member: OutBuf::default(),
            in_coord: Vec::new(),
            in_member: Vec::new(),
            inboxes: BTreeMap::new(),
            stats: TransportStats::default(),
        })
    }

    /// Flush pending writes and drain readable bytes until quiescent: all
    /// queued frames written and every byte the kernel has for us parsed into
    /// inboxes. Loopback guarantees progress — a blocked write means the peer
    /// buffer holds data, which the same loop reads.
    fn pump(&mut self) {
        let mut idle_spins = 0u32;
        loop {
            let mut progress = false;
            progress |= flush_stream(&mut self.coord_end, &mut self.out_coord);
            progress |= flush_stream(&mut self.member_end, &mut self.out_member);
            progress |= drain_stream(&mut self.member_end, &mut self.in_member);
            progress |= drain_stream(&mut self.coord_end, &mut self.in_coord);
            progress |= parse_frames(&mut self.in_member, &mut self.inboxes, &mut self.stats);
            progress |= parse_frames(&mut self.in_coord, &mut self.inboxes, &mut self.stats);
            if progress {
                idle_spins = 0;
                continue;
            }
            if self.out_coord.is_empty() && self.out_member.is_empty() {
                break;
            }
            // Writes pending but nothing moved: let the kernel catch up.
            idle_spins += 1;
            assert!(
                idle_spins < 1_000_000,
                "socket transport made no progress with writes pending"
            );
            std::thread::yield_now();
        }
    }
}

/// Write as much of `out` as the socket accepts. Returns true on any progress.
fn flush_stream(stream: &mut TcpStream, out: &mut OutBuf) -> bool {
    let mut progress = false;
    while !out.is_empty() {
        match stream.write(out.pending()) {
            Ok(0) => panic!("loopback peer closed mid-write"),
            Ok(n) => {
                out.consume(n);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("loopback write failed: {e}"),
        }
    }
    progress
}

/// Read everything currently available. Returns true on any progress.
fn drain_stream(stream: &mut TcpStream, into: &mut Vec<u8>) -> bool {
    let mut progress = false;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => panic!("loopback peer closed mid-read"),
            Ok(n) => {
                into.extend_from_slice(&chunk[..n]);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("loopback read failed: {e}"),
        }
    }
    progress
}

/// Slice complete `u32`-length-framed envelopes off the front of `buf` into
/// the inboxes. A partial frame stays buffered for the next pump.
fn parse_frames(
    buf: &mut Vec<u8>,
    inboxes: &mut BTreeMap<PeerId, VecDeque<Envelope>>,
    stats: &mut TransportStats,
) -> bool {
    let mut consumed = 0usize;
    while buf.len() - consumed >= 4 {
        let header = &buf[consumed..consumed + 4];
        let frame_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if buf.len() - consumed - 4 < frame_len {
            break;
        }
        let frame = &buf[consumed + 4..consumed + 4 + frame_len];
        // A decode failure here is a transport bug (loopback TCP does not
        // corrupt), so it fails loudly instead of being dropped.
        let envelope = Envelope::decode(frame).expect("loopback frame must decode");
        stats.delivered += 1;
        inboxes.entry(envelope.to).or_default().push_back(envelope);
        consumed += 4 + frame_len;
    }
    if consumed > 0 {
        buf.drain(..consumed);
        true
    } else {
        false
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, envelope: Envelope) {
        self.stats.sent += 1;
        let bytes = envelope.encode();
        let out = if envelope.to == COORDINATOR {
            &mut self.out_member
        } else {
            &mut self.out_coord
        };
        out.push(&(bytes.len() as u32).to_le_bytes());
        out.push(&bytes);
    }

    fn tick(&mut self) {
        self.pump();
    }

    fn recv(&mut self, peer: PeerId) -> Vec<Envelope> {
        self.pump();
        match self.inboxes.get_mut(&peer) {
            Some(queue) => queue.drain(..).collect(),
            None => Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        "socket"
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Chaos backend
// ---------------------------------------------------------------------------

/// Fault rates for a [`ChaosTransport`], all driven by one seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// RNG seed: same seed, same faults, same run.
    pub seed: u64,
    /// Per-mille probability an envelope is dropped outright.
    pub drop_per_mille: u16,
    /// Per-mille probability an envelope is queued twice.
    pub dup_per_mille: u16,
    /// Maximum delivery delay in ticks (each envelope copy draws a uniform
    /// delay in `0..=delay_ticks`, which reorders within that window).
    pub delay_ticks: u16,
}

impl ChaosConfig {
    /// No faults (partitions via [`ChaosControls`] still work).
    pub fn lossless(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_ticks: 0,
        }
    }

    /// The ISSUE's headline mix: drop 10%, duplicate 5%, reorder within a
    /// 3-tick window.
    pub fn standard(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 100,
            dup_per_mille: 50,
            delay_ticks: 3,
        }
    }

    /// Override the drop rate (per mille).
    pub fn with_drop_per_mille(mut self, v: u16) -> Self {
        self.drop_per_mille = v;
        self
    }

    /// Override the duplication rate (per mille).
    pub fn with_dup_per_mille(mut self, v: u16) -> Self {
        self.dup_per_mille = v;
        self
    }

    /// Override the reorder/delay window (ticks).
    pub fn with_delay_ticks(mut self, v: u16) -> Self {
        self.delay_ticks = v;
        self
    }
}

#[derive(Debug, Default)]
struct ChaosShared {
    partitioned: BTreeSet<PeerId>,
    partition_dropped: u64,
}

/// A cloneable handle into a [`ChaosTransport`]'s partition plane: tests (and
/// [`Fleet::partition_members`](crate::Fleet::partition_members)) cut node
/// sets off and heal them while the transport is owned by the fleet.
#[derive(Debug, Clone, Default)]
pub struct ChaosControls(Arc<Mutex<ChaosShared>>);

impl ChaosControls {
    /// Cut `peers` off: every envelope to or from them is dropped until
    /// [`ChaosControls::heal`].
    pub fn partition(&self, peers: &[PeerId]) {
        self.0.lock().partitioned.extend(peers.iter().copied());
    }

    /// Reconnect every partitioned peer.
    pub fn heal(&self) {
        self.0.lock().partitioned.clear();
    }

    /// True if `peer` is currently cut off.
    pub fn is_partitioned(&self, peer: PeerId) -> bool {
        self.0.lock().partitioned.contains(&peer)
    }

    /// Peers currently cut off.
    pub fn partitioned_count(&self) -> usize {
        self.0.lock().partitioned.len()
    }

    /// Envelopes dropped at a partition boundary so far.
    pub fn partition_dropped(&self) -> u64 {
        self.0.lock().partition_dropped
    }
}

/// Deterministic fault injection around any inner [`Transport`]: drops,
/// duplicates, and delays (reorders) envelopes from a seeded splitmix64
/// stream, and drops everything crossing the [`ChaosControls`] partition
/// boundary. Fleet send order is deterministic, so the RNG stream — and
/// therefore the whole fault schedule — replays exactly under the same seed.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    config: ChaosConfig,
    rng_state: u64,
    now: u64,
    next_order: u64,
    /// Delayed envelopes keyed by (release tick, insertion order).
    pending: BTreeMap<(u64, u64), Envelope>,
    controls: ChaosControls,
    sent: u64,
    dropped: u64,
    duplicated: u64,
}

impl ChaosTransport {
    /// Wrap `inner` with the faults in `config`.
    pub fn new(inner: Box<dyn Transport>, config: ChaosConfig) -> Self {
        ChaosTransport {
            inner,
            config,
            // splitmix64 handles seed 0 fine, but offset it anyway so the
            // "obvious" seeds 0 and 1 give unrelated streams.
            rng_state: config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66_D1CE_4E5B,
            now: 0,
            next_order: 0,
            pending: BTreeMap::new(),
            controls: ChaosControls::default(),
            sent: 0,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// The partition-control handle.
    pub fn controls(&self) -> ChaosControls {
        self.controls.clone()
    }

    /// splitmix64: tiny, seedable, and plenty random for fault injection —
    /// deliberately inlined so the chaos schedule never depends on an external
    /// RNG crate's version.
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn roll(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.next_u64() % 1000 < u64::from(per_mille)
    }

    fn queue(&mut self, envelope: Envelope) {
        let delay = if self.config.delay_ticks > 0 {
            self.next_u64() % (u64::from(self.config.delay_ticks) + 1)
        } else {
            0
        };
        if delay == 0 {
            self.inner.send(envelope);
        } else {
            let key = (self.now + delay, self.next_order);
            self.next_order += 1;
            self.pending.insert(key, envelope);
        }
    }
}

impl Transport for ChaosTransport {
    fn send(&mut self, envelope: Envelope) {
        self.sent += 1;
        {
            let mut shared = self.controls.0.lock();
            if shared.partitioned.contains(&envelope.from)
                || shared.partitioned.contains(&envelope.to)
            {
                shared.partition_dropped += 1;
                return;
            }
        }
        if self.roll(self.config.drop_per_mille) {
            self.dropped += 1;
            return;
        }
        let duplicate = self.roll(self.config.dup_per_mille);
        if duplicate {
            self.duplicated += 1;
            self.queue(envelope.clone());
        }
        self.queue(envelope);
    }

    fn tick(&mut self) {
        self.now += 1;
        let due: Vec<(u64, u64)> = self
            .pending
            .range(..=(self.now, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            if let Some(envelope) = self.pending.remove(&key) {
                self.inner.send(envelope);
            }
        }
        self.inner.tick();
    }

    fn recv(&mut self, peer: PeerId) -> Vec<Envelope> {
        self.inner.recv(peer)
    }

    fn recv_into(&mut self, peer: PeerId, out: &mut Vec<Envelope>) {
        self.inner.recv_into(peer, out)
    }

    fn name(&self) -> &'static str {
        "chaos"
    }

    fn is_lossy(&self) -> bool {
        true
    }

    fn flush_ticks(&self) -> u32 {
        u32::from(self.config.delay_ticks) + 2
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            // Logical sends at the chaos boundary, deliveries at the sink.
            sent: self.sent,
            delivered: self.inner.stats().delivered,
            dropped: self.dropped,
            duplicated: self.duplicated,
            partition_dropped: self.controls.partition_dropped(),
        }
    }
}

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// Which transport a [`FleetConfig`](crate::FleetConfig) builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Per-peer in-process queues (the default; no serialization).
    #[default]
    InProcess,
    /// A loopback TCP pair; every envelope crosses a real kernel socket.
    Socket,
    /// [`ChaosTransport`] over in-process queues with the given fault config.
    Chaos(ChaosConfig),
}

impl TransportKind {
    /// Backend name (for bench records and traces).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::InProcess => "inprocess",
            TransportKind::Socket => "socket",
            TransportKind::Chaos(_) => "chaos",
        }
    }

    /// Instantiate the backend (and the chaos controls, when applicable).
    pub(crate) fn build(self) -> (Box<dyn Transport>, Option<ChaosControls>) {
        match self {
            TransportKind::InProcess => (Box::new(InProcessTransport::new()), None),
            TransportKind::Socket => (
                Box::new(SocketTransport::new().expect("loopback socket pair")),
                None,
            ),
            TransportKind::Chaos(config) => {
                let chaos = ChaosTransport::new(Box::new(InProcessTransport::new()), config);
                let controls = chaos.controls();
                (Box::new(chaos), Some(controls))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Application-layer idempotence
// ---------------------------------------------------------------------------

/// The receiver-side idempotence filter: remembers every `(to, from, epoch,
/// seq)` it has accepted, one hash set of `(to, from, seq)` per epoch, so a
/// duplicate or retransmit is identified by one hash lookup. Retiring epochs
/// drops their sets whole, without looking at their keys; the newest retired
/// set is kept, emptied, for the next epoch, which then starts at the size an
/// epoch last reached instead of growing into it.
#[derive(Debug, Default)]
pub struct DedupeWindow {
    seen: BTreeMap<u64, HashSet<(PeerId, PeerId, u64)>>,
    spare: HashSet<(PeerId, PeerId, u64)>,
    /// Duplicates rejected so far (the duplicate-suppression counter).
    suppressed: u64,
}

impl DedupeWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// True exactly once per distinct `(to, from, epoch, seq)`: the first
    /// offer is fresh, every later identical offer is a suppressed duplicate.
    pub fn accept(&mut self, envelope: &Envelope) -> bool {
        let fresh = self
            .seen
            .entry(envelope.epoch)
            .or_insert_with(|| std::mem::take(&mut self.spare))
            .insert((envelope.to, envelope.from, envelope.seq));
        if !fresh {
            self.suppressed += 1;
        }
        fresh
    }

    /// Duplicates suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Forget keys from epochs before `floor` (their senders can no longer
    /// retransmit them — the fleet only retransmits within an epoch).
    pub fn retire_below(&mut self, floor: u64) {
        let kept = self.seen.split_off(&floor);
        if let Some(mut newest) = std::mem::replace(&mut self.seen, kept)
            .into_values()
            .next_back()
        {
            newest.clear();
            self.spare = newest;
        }
    }
}

/// The executable model of the coordinator's apply discipline: deduplicate by
/// `(to, from, epoch, seq)`, stash state-bearing payloads keyed by their
/// sequence position, and fold them in key order. Because the fold order is a
/// function of the *keys* — never of arrival order — any
/// permutation-with-duplicates of an envelope stream yields the same
/// [`InvariantDatabase`] and the same net [`PatchPlan`] as in-order
/// exactly-once delivery. `tests/transport_stream.rs` proves it by proptest;
/// the live [`Fleet`](crate::Fleet) applies uploads and pushes with the same
/// discipline (dedupe, then seq-ordered fold).
#[derive(Debug)]
pub struct SequencedApplier {
    dedupe: DedupeWindow,
    shard_count: usize,
    /// Uploads keyed by (epoch, seq, from) — the coordinator's merge order.
    uploads: BTreeMap<(u64, u64, PeerId), Arc<InvariantDatabase>>,
    /// Patch plans keyed by (epoch, seq) — the push order.
    plans: BTreeMap<(u64, u64), Arc<PatchPlan>>,
}

impl SequencedApplier {
    /// An empty applier merging uploads through `shard_count` store shards.
    pub fn new(shard_count: usize) -> Self {
        SequencedApplier {
            dedupe: DedupeWindow::new(),
            shard_count,
            uploads: BTreeMap::new(),
            plans: BTreeMap::new(),
        }
    }

    /// Offer one envelope. Returns true if it was fresh (first delivery);
    /// duplicates are no-ops. Non-state payloads (pages, acks, sync blobs) are
    /// accepted but carry no folded state.
    pub fn offer(&mut self, envelope: &Envelope) -> bool {
        if !self.dedupe.accept(envelope) {
            return false;
        }
        match &envelope.payload {
            EnvelopePayload::Upload { invariants, .. } => {
                self.uploads.insert(
                    (envelope.epoch, envelope.seq, envelope.from),
                    Arc::clone(invariants),
                );
            }
            EnvelopePayload::PatchPush(plan) => {
                self.plans
                    .insert((envelope.epoch, envelope.seq), Arc::clone(plan));
            }
            _ => {}
        }
        true
    }

    /// Fold every accepted upload, in key order, through the sharded store —
    /// the coordinator's merge.
    pub fn database(&self) -> InvariantDatabase {
        let mut store = ShardedInvariantStore::new(self.shard_count);
        let databases: Vec<InvariantDatabase> =
            self.uploads.values().map(|db| (**db).clone()).collect();
        store.merge_uploads(&databases);
        store.snapshot()
    }

    /// Fold every accepted patch plan, in key order, into a net configuration
    /// — the member's apply.
    pub fn net_plan(&self) -> PatchPlan {
        let mut net = NetPatchState::new();
        for plan in self.plans.values() {
            net.apply(plan);
        }
        net.to_plan()
    }

    /// Duplicates suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.dedupe.suppressed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(from: PeerId, to: PeerId, epoch: u64, seq: u64) -> Envelope {
        Envelope {
            from,
            to,
            epoch,
            seq,
            payload: EnvelopePayload::Page(vec![seq as u32]),
        }
    }

    #[test]
    fn in_process_is_fifo_per_peer() {
        let mut t = InProcessTransport::new();
        t.send(page(COORDINATOR, 1, 1, 0));
        t.send(page(COORDINATOR, 2, 1, 1));
        t.send(page(COORDINATOR, 1, 1, 2));
        t.tick();
        let got = t.recv(1);
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(t.recv(1), vec![]);
        assert_eq!(t.recv(2).len(), 1);
        assert_eq!(t.stats().sent, 3);
        assert_eq!(t.stats().delivered, 3);
    }

    #[test]
    fn socket_round_trips_both_directions() {
        let mut t = SocketTransport::new().expect("loopback");
        t.send(page(COORDINATOR, 5, 1, 0));
        t.send(page(5, COORDINATOR, 1, 1));
        for _ in 0..t.flush_ticks() {
            t.tick();
        }
        let to_member = t.recv(5);
        assert_eq!(to_member.len(), 1);
        assert_eq!(to_member[0].seq, 0);
        let to_coord = t.recv(COORDINATOR);
        assert_eq!(to_coord.len(), 1);
        assert_eq!(to_coord[0].seq, 1);
        assert_eq!(t.stats().delivered, 2);
    }

    #[test]
    fn socket_survives_payloads_larger_than_kernel_buffers() {
        let mut t = SocketTransport::new().expect("loopback");
        let big = Envelope {
            from: COORDINATOR,
            to: 1,
            epoch: 1,
            seq: 0,
            payload: EnvelopePayload::Snapshot(Arc::new(vec![0xCD; 8 * 1024 * 1024])),
        };
        t.send(big.clone());
        t.tick();
        let got = t.recv(1);
        assert_eq!(got, vec![big]);
    }

    #[test]
    fn chaos_same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut t = ChaosTransport::new(
                Box::new(InProcessTransport::new()),
                ChaosConfig::standard(seed),
            );
            let mut delivered = Vec::new();
            for i in 0..200u64 {
                t.send(page(COORDINATOR, (i % 7) as PeerId, 1, i));
            }
            for _ in 0..t.flush_ticks() {
                t.tick();
            }
            for peer in 0..7 {
                delivered.extend(t.recv(peer).into_iter().map(|e| (e.to, e.seq)));
            }
            (delivered, t.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds, different schedules");
        let (_, stats) = run(42);
        assert!(stats.dropped > 0, "10% drop over 200 sends must drop some");
    }

    #[test]
    fn chaos_partition_cuts_both_directions_until_heal() {
        let mut t = ChaosTransport::new(
            Box::new(InProcessTransport::new()),
            ChaosConfig::lossless(1),
        );
        let controls = t.controls();
        controls.partition(&[3]);
        t.send(page(COORDINATOR, 3, 1, 0));
        t.send(page(3, COORDINATOR, 1, 1));
        t.send(page(COORDINATOR, 4, 1, 2));
        t.tick();
        assert_eq!(t.recv(3), vec![]);
        assert_eq!(t.recv(COORDINATOR), vec![]);
        assert_eq!(t.recv(4).len(), 1);
        assert_eq!(controls.partition_dropped(), 2);
        controls.heal();
        t.send(page(COORDINATOR, 3, 1, 3));
        t.tick();
        assert_eq!(t.recv(3).len(), 1);
    }

    #[test]
    fn dedupe_accepts_once_and_counts_suppression() {
        let mut w = DedupeWindow::new();
        let env = page(COORDINATOR, 1, 5, 9);
        assert!(w.accept(&env));
        assert!(!w.accept(&env));
        assert!(!w.accept(&env));
        assert_eq!(w.suppressed(), 2);
        // Same seq, different epoch or sender: distinct messages.
        assert!(w.accept(&page(COORDINATOR, 1, 6, 9)));
        assert!(w.accept(&page(2, 1, 5, 9)));
        w.retire_below(6);
        // Retired keys would be re-accepted — the sender no longer retransmits
        // them, so the window need not remember.
        assert!(w.accept(&env));
    }
}
