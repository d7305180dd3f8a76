//! The parcelport layer: moving halo rows, migrated rows and reduction
//! partials between ranks, in-process or across OS processes.
//!
//! The locality layer (see [`crate::locality`]) schedules *who* talks to
//! whom and *when* (dependency-table records, dirty bits, wait-sets); this
//! module owns *how* the bytes move. A [`Transport`] carries *messages* —
//! `(kind, src, dst, seq)`-addressed byte payloads in the canonical
//! row-major wire encoding — and hands receivers a [`Delivery`]: a
//! [`SharedFuture`] that completes when the payload is present, so receive
//! nodes stay reactive (they *gate on* arrival instead of blocking a
//! worker mid-body).
//!
//! Two implementations:
//!
//! * [`InProcessTransport`] — all ranks in one process. Delivery is a
//!   match-table handoff on the sending thread, with no modelled latency.
//!   Overlap is tested by holding messages in flight instead: the
//!   held-link tests in `tests/transport.rs` wrap this transport, keep one
//!   message kind back until they release it, and assert what the schedule
//!   ran in the meantime.
//! * [`ProcessTransport`] — each rank (or group of ranks) is its own OS
//!   process; peers are connected over a full mesh of Unix-domain sockets
//!   established through a filesystem rendezvous directory. Latency is
//!   real wire latency.
//!
//! # Message addressing
//!
//! Messages are matched by `(kind, src, dst, seq)` where `seq` is the
//! per-`(kind, src → dst)` stream counter of the sending or receiving
//! process. There is no header negotiation: every process runs the same
//! program over its own ranks (SPMD), so the *k*-th message opened from
//! `src` to `dst` on the sender side is matched with the *k*-th receive
//! posted on the receiver side because both sides take numbers at the
//! same program points. The locality layer guarantees this by taking every
//! scheduling decision (dirty-bit transitions) from state that each
//! process holds identically, whatever the process layout.
//!
//! The counters are not the transport's: each process's locality group
//! owns them, in a crate-private `Comm` with the transport and its ranks'
//! scheduling hooks. Every message is opened by `Comm::open`, the one
//! place that rule lives: it takes the message's **one** sequence number,
//! arms a [`SendGuard`] when `src` is hosted here and posts the receive
//! when `dst` is. A message whose two ends share a process therefore
//! shares one number between its halves; advancing the counter once per
//! side would give them different numbers and the receive would never
//! match.
//!
//! # Abandonment
//!
//! A sender that panics (or whose upstream kernel panicked, skipping the
//! gather node) would leave the matching receive waiting forever. The
//! send path therefore travels under a [`SendGuard`]: if the guard is
//! dropped without sending, it sends the *abandonment* marker (a
//! [`Transport::send`] with no payload, a flagged frame on the wire), so
//! the receiver's [`Delivery`] completes with no payload and the receive
//! node degrades to a diagnostic no-op — the original panic, not a
//! secondary "sender dropped" panic, is what propagates to the fence. A socket peer that disappears entirely
//! (process death) abandons every outstanding and future delivery from
//! that rank.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use hpx_rt::SharedFuture;

use crate::world::CommHooks;

// ---------------------------------------------------------------------------
// Wire scalars
// ---------------------------------------------------------------------------

/// A scalar with a fixed-width, endian-stable wire encoding — the
/// serialization contract every [`crate::types::OpType`] satisfies so dat
/// rows and reduction partials can cross process boundaries. All integers
/// and floats travel little-endian; `usize`/`isize` are widened to
/// 64 bits; `bool` is one byte (`0`/`1`).
pub trait WireScalar: Copy + Send + Sync + 'static {
    /// Encoded width in bytes (fixed per type, platform-independent).
    const WIRE_SIZE: usize;
    /// Appends the little-endian encoding of `self` to `out`.
    fn write_wire(self, out: &mut Vec<u8>);
    /// Decodes from the first [`Self::WIRE_SIZE`] bytes of `bytes`.
    fn read_wire(bytes: &[u8]) -> Self;
}

macro_rules! impl_wire_le {
    ($($t:ty),+) => {$(
        impl WireScalar for $t {
            const WIRE_SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_wire(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_wire(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes[..Self::WIRE_SIZE].try_into().unwrap())
            }
        }
    )+};
}
impl_wire_le!(f32, f64, i8, i16, i32, i64, u8, u16, u32, u64);

impl WireScalar for usize {
    const WIRE_SIZE: usize = 8;
    #[inline]
    fn write_wire(self, out: &mut Vec<u8>) {
        (self as u64).write_wire(out);
    }
    #[inline]
    fn read_wire(bytes: &[u8]) -> Self {
        let v = u64::read_wire(bytes);
        usize::try_from(v).expect("wire usize overflows the platform word")
    }
}

impl WireScalar for isize {
    const WIRE_SIZE: usize = 8;
    #[inline]
    fn write_wire(self, out: &mut Vec<u8>) {
        (self as i64).write_wire(out);
    }
    #[inline]
    fn read_wire(bytes: &[u8]) -> Self {
        let v = i64::read_wire(bytes);
        isize::try_from(v).expect("wire isize overflows the platform word")
    }
}

impl WireScalar for bool {
    const WIRE_SIZE: usize = 1;
    #[inline]
    fn write_wire(self, out: &mut Vec<u8>) {
        out.push(self as u8);
    }
    #[inline]
    fn read_wire(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

/// Encodes a scalar slice into the canonical wire byte stream.
pub(crate) fn encode_scalars<T: WireScalar>(vals: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * T::WIRE_SIZE);
    for &v in vals {
        v.write_wire(&mut out);
    }
    out
}

/// Decodes a canonical wire byte stream back into scalars.
///
/// # Panics
///
/// If `bytes` is not a whole number of encoded scalars.
pub(crate) fn decode_scalars<T: WireScalar>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(
        bytes.len() % T::WIRE_SIZE,
        0,
        "wire payload of {} bytes is not a whole number of {}-byte scalars",
        bytes.len(),
        T::WIRE_SIZE
    );
    bytes.chunks_exact(T::WIRE_SIZE).map(T::read_wire).collect()
}

// ---------------------------------------------------------------------------
// Messages and deliveries
// ---------------------------------------------------------------------------

/// What a message carries — part of the match key, so halo traffic,
/// reduction partials and migrated rows between the same pair of ranks
/// never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Halo rows (canonical row-major dat rows).
    Halo = 0,
    /// Reduction partials (a `Global`'s value vector).
    Reduce = 1,
    /// Row migration during a live repartition (canonical row-major dat
    /// rows, like [`MsgKind::Halo`], but on a separate sequence stream so
    /// in-flight halo traffic and migration moves never collide).
    Migrate = 2,
}

impl MsgKind {
    fn from_u8(v: u8) -> Option<MsgKind> {
        match v {
            0 => Some(MsgKind::Halo),
            1 => Some(MsgKind::Reduce),
            2 => Some(MsgKind::Migrate),
            _ => None,
        }
    }
}

/// `(kind, src, dst, seq)` — the full match key of one message.
type Key = (MsgKind, u32, u32, u64);

/// One matched incoming message: a completion future plus the payload it
/// guards. `ready()` completes when the message arrived (or was
/// abandoned); `take()` then yields the payload — `None` means the sender
/// abandoned the exchange and the receiver should degrade gracefully.
pub struct Delivery {
    ready: SharedFuture<()>,
    payload: Arc<Mutex<Option<Vec<u8>>>>,
}

impl Delivery {
    /// Completes when the payload is present or the exchange was
    /// abandoned. Schedule receive nodes *after* this future; never block
    /// on it from inside a node body.
    pub fn ready(&self) -> &SharedFuture<()> {
        &self.ready
    }

    /// Takes the payload out (call only after [`Delivery::ready`] is
    /// done). `None` = abandoned exchange.
    pub fn take(&self) -> Option<Vec<u8>> {
        self.payload.lock().take()
    }
}

impl std::fmt::Debug for Delivery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Delivery")
            .field("ready", &self.ready.is_ready())
            .finish()
    }
}

/// The rendezvous table matching posted receives with arrived messages,
/// in either arrival order.
#[derive(Default)]
struct MatchTable {
    slots: Mutex<HashMap<Key, Slot>>,
    /// Ranks whose link died (socket EOF): all their messages, present and
    /// future, are abandoned.
    dead: Mutex<Vec<u32>>,
}

enum Slot {
    /// Message arrived before the receive was posted. `None` = abandoned.
    Arrived(Option<Vec<u8>>),
    /// Receive posted before the message arrived.
    Expected(hpx_rt::Promise<()>, Arc<Mutex<Option<Vec<u8>>>>),
}

impl MatchTable {
    /// An incoming message (payload `None` = abandonment marker).
    fn deliver(&self, key: Key, payload: Option<Vec<u8>>) {
        if let Err(e) = self.try_deliver(key, payload) {
            panic!("transport: {e}");
        }
    }

    /// [`MatchTable::deliver`], reporting a repeated key instead of
    /// panicking (the table keeps the first message).
    fn try_deliver(&self, key: Key, payload: Option<Vec<u8>>) -> Result<(), String> {
        let promise = {
            let mut slots = self.slots.lock();
            match slots.remove(&key) {
                None => {
                    slots.insert(key, Slot::Arrived(payload));
                    return Ok(());
                }
                Some(Slot::Expected(promise, cell)) => {
                    *cell.lock() = payload;
                    promise
                }
                Some(first @ Slot::Arrived(_)) => {
                    slots.insert(key, first);
                    return Err(format!(
                        "duplicate message for {key:?} — sequence counters desynced"
                    ));
                }
            }
        };
        // Fulfill outside the table lock: completion callbacks may re-enter
        // the transport (e.g. a dependent node posting the next receive).
        promise.set_value(());
        Ok(())
    }

    /// Posts a receive for `key`.
    fn expect(&self, key: Key) -> Delivery {
        let mut slots = self.slots.lock();
        match slots.remove(&key) {
            Some(Slot::Arrived(payload)) => Delivery {
                ready: hpx_rt::ready(()),
                payload: Arc::new(Mutex::new(payload)),
            },
            Some(Slot::Expected(..)) => {
                panic!("transport: duplicate receive for {key:?} — sequence counters desynced")
            }
            None => {
                if self.dead.lock().contains(&key.1) {
                    return Delivery {
                        ready: hpx_rt::ready(()),
                        payload: Arc::new(Mutex::new(None)),
                    };
                }
                let (promise, future) = hpx_rt::channel::<()>();
                let cell = Arc::new(Mutex::new(None));
                slots.insert(key, Slot::Expected(promise, Arc::clone(&cell)));
                Delivery {
                    ready: future,
                    payload: cell,
                }
            }
        }
    }

    /// The link to `src` died: complete every outstanding receive from it
    /// as abandoned, and abandon all future ones.
    fn fail_peer(&self, src: u32) {
        self.dead.lock().push(src);
        let drained: Vec<Slot> = {
            let mut slots = self.slots.lock();
            let keys: Vec<Key> = slots
                .keys()
                .filter(|k| k.1 == src && matches!(slots[k], Slot::Expected(..)))
                .copied()
                .collect();
            keys.into_iter().filter_map(|k| slots.remove(&k)).collect()
        };
        for slot in drained {
            if let Slot::Expected(promise, _cell) = slot {
                promise.set_value(());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The Transport trait
// ---------------------------------------------------------------------------

/// How bytes move between ranks — the parcelport under the locality
/// layer. Implementations must be fully asynchronous on the receive side
/// ([`Transport::recv`] returns immediately; arrival is signalled through
/// the [`Delivery`]'s future) and must not occupy a runtime worker while
/// modelling or incurring latency on the send side. Each process serves
/// one locality group from it: the group numbers the messages.
pub trait Transport: Send + Sync + 'static {
    /// Total number of ranks in the job (across all processes).
    fn nranks(&self) -> usize;

    /// The contiguous range of global rank ids hosted by *this* process.
    fn local_ranks(&self) -> Range<usize>;

    /// Sends `payload` as message `(kind, src, dst, seq)`; `None` is the
    /// abandonment marker, and the receiver's [`Delivery`] completes with
    /// no payload (see module docs). Must not block a runtime worker for
    /// the link's latency, real or modelled.
    fn send(&self, kind: MsgKind, src: usize, dst: usize, seq: u64, payload: Option<Vec<u8>>);

    /// Posts a receive for message `(kind, src, dst, seq)`; `dst` must be
    /// a local rank.
    fn recv(&self, kind: MsgKind, src: usize, dst: usize, seq: u64) -> Delivery;
}

/// Per-`(kind, src → dst)` stream counters of one process.
#[derive(Default)]
pub(crate) struct SeqCounters {
    next: Mutex<HashMap<(MsgKind, u32, u32), u64>>,
}

impl SeqCounters {
    /// The next sequence number of the `(kind, src → dst)` stream.
    pub(crate) fn next(&self, kind: MsgKind, src: usize, dst: usize) -> u64 {
        let mut map = self.next.lock();
        let c = map.entry((kind, src as u32, dst as u32)).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }
}

/// What one process's ranks share to talk to their peers: the transport,
/// this process's sequence counters and each hosted rank's [`CommHooks`]
/// in local order. The locality group owns it; its halo rings, the row
/// mover and migration share it.
pub(crate) struct Comm {
    transport: Arc<dyn Transport>,
    seqs: SeqCounters,
    local: Range<usize>,
    hooks: Vec<CommHooks>,
}

impl Comm {
    /// `hooks[i]` schedules for rank `transport.local_ranks().start + i`.
    pub(crate) fn new(transport: Arc<dyn Transport>, hooks: Vec<CommHooks>) -> Self {
        Comm {
            local: transport.local_ranks(),
            transport,
            seqs: SeqCounters::default(),
            hooks,
        }
    }

    /// Total number of ranks in the job.
    pub(crate) fn nranks(&self) -> usize {
        self.transport.nranks()
    }

    /// The global ids of the ranks hosted by this process.
    pub(crate) fn local_ranks(&self) -> Range<usize> {
        self.local.clone()
    }

    /// The scheduling hooks of the locally hosted rank `rank` (global id).
    pub(crate) fn hooks(&self, rank: usize) -> &CommHooks {
        &self.hooks[rank - self.local.start]
    }

    /// Opens message `(kind, src → dst)`: takes its one sequence number
    /// (see module docs), arms a [`SendGuard`] when `src` is hosted here
    /// and posts the receive when `dst` is.
    pub(crate) fn open(
        &self,
        kind: MsgKind,
        src: usize,
        dst: usize,
    ) -> (Option<SendGuard>, Option<Delivery>) {
        let seq = self.seqs.next(kind, src, dst);
        let guard = self.local.contains(&src).then(|| SendGuard {
            transport: Arc::clone(&self.transport),
            kind,
            src,
            dst,
            seq,
            armed: true,
        });
        let delivery = self
            .local
            .contains(&dst)
            .then(|| self.transport.recv(kind, src, dst, seq));
        (guard, delivery)
    }
}

/// Arms abandonment for one outgoing message: `Comm::open` creates it when the
/// message is *scheduled*; move it into the send node and consume it with
/// [`SendGuard::send`] when the payload is ready. If the node is skipped
/// (upstream panic) or dies before sending, the guard's drop delivers the
/// abandonment marker so the matching receive completes as a no-op instead
/// of waiting forever or double-panicking.
pub struct SendGuard {
    transport: Arc<dyn Transport>,
    kind: MsgKind,
    src: usize,
    dst: usize,
    seq: u64,
    armed: bool,
}

impl SendGuard {
    /// Sends the payload and disarms the guard.
    pub fn send(mut self, payload: Vec<u8>) {
        self.armed = false;
        hpx_rt::static_counter!("op2.transport.msgs_sent").fetch_add(1, Ordering::Relaxed);
        hpx_rt::static_counter!("op2.transport.bytes_sent")
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.transport
            .send(self.kind, self.src, self.dst, self.seq, Some(payload));
    }
}

impl Drop for SendGuard {
    fn drop(&mut self) {
        if self.armed {
            hpx_rt::static_counter!("op2.transport.sends_abandoned")
                .fetch_add(1, Ordering::Relaxed);
            self.transport
                .send(self.kind, self.src, self.dst, self.seq, None);
        }
    }
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// All ranks in one process: delivery is a match-table handoff on the
/// sending thread.
pub struct InProcessTransport {
    nranks: usize,
    table: MatchTable,
}

impl InProcessTransport {
    /// An in-process transport between `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks >= 1, "a transport needs at least one rank");
        InProcessTransport {
            nranks,
            table: MatchTable::default(),
        }
    }
}

impl Transport for InProcessTransport {
    fn nranks(&self) -> usize {
        self.nranks
    }

    fn local_ranks(&self) -> Range<usize> {
        0..self.nranks
    }

    fn send(&self, kind: MsgKind, src: usize, dst: usize, seq: u64, payload: Option<Vec<u8>>) {
        self.table
            .deliver((kind, src as u32, dst as u32, seq), payload);
    }

    fn recv(&self, kind: MsgKind, src: usize, dst: usize, seq: u64) -> Delivery {
        assert!(dst < self.nranks, "recv for out-of-range rank {dst}");
        self.table.expect((kind, src as u32, dst as u32, seq))
    }
}

impl std::fmt::Debug for InProcessTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcessTransport")
            .field("nranks", &self.nranks)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Multi-process transport over Unix-domain sockets
// ---------------------------------------------------------------------------

/// Frame magic: `"OP2H"`.
const FRAME_MAGIC: u32 = 0x4F50_3248;
/// Flag bit: the frame is an abandonment marker (no payload follows).
const FLAG_ABANDONED: u8 = 1;
/// Frame header size: magic(4) kind(1) flags(1) pad(2) src(4) dst(4)
/// seq(8) len(8).
const FRAME_HEADER: usize = 32;

fn encode_frame(kind: MsgKind, flags: u8, src: u32, dst: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(FRAME_HEADER + payload.len());
    f.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    f.push(kind as u8);
    f.push(flags);
    f.extend_from_slice(&[0u8; 2]);
    f.extend_from_slice(&src.to_le_bytes());
    f.extend_from_slice(&dst.to_le_bytes());
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// Each rank its own OS process, full mesh of Unix-domain sockets.
///
/// Rendezvous: every process binds `rank{r}.sock` in a shared directory,
/// *connects* to every lower rank (retrying while the peer's socket
/// appears — rank 0's socket is the first every process dials) and
/// *accepts* from every higher rank, which identifies itself with a hello
/// frame. One reader thread per peer drains frames into the match table;
/// sends are frame writes under a per-peer lock (payloads are halo-sized,
/// well under the socket buffer). A peer whose stream hits EOF or carries
/// a frame this rank cannot accept is failed: its outstanding and future
/// deliveries complete as abandoned.
pub struct ProcessTransport {
    nranks: usize,
    rank: usize,
    table: Arc<MatchTable>,
    peers: Vec<Option<Mutex<UnixStream>>>,
    /// Rendezvous socket path, unlinked on drop.
    sock_path: PathBuf,
}

fn retry_connect(path: &Path, timeout: Duration) -> std::io::Result<UnixStream> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("rendezvous with {} timed out: {e}", path.display()),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

impl ProcessTransport {
    /// Joins the job as `rank` of `nranks`, rendezvousing through `dir`
    /// (created if missing). Blocks until the full peer mesh is up; every
    /// participating process must call this with the same `dir` and
    /// `nranks`.
    pub fn connect_unix(dir: &Path, rank: usize, nranks: usize) -> std::io::Result<Self> {
        assert!(rank < nranks, "rank {rank} out of range for {nranks} ranks");
        std::fs::create_dir_all(dir)?;
        let sock_path = dir.join(format!("rank{rank}.sock"));
        let _ = std::fs::remove_file(&sock_path);
        let listener = UnixListener::bind(&sock_path)?;

        let mut streams: Vec<Option<UnixStream>> = (0..nranks).map(|_| None).collect();
        // Dial every lower rank (their listeners bind before they dial
        // upward, so retrying on "not yet bound" cannot deadlock).
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut s = retry_connect(
                &dir.join(format!("rank{peer}.sock")),
                Duration::from_secs(30),
            )?;
            let mut hello = Vec::with_capacity(8);
            hello.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
            hello.extend_from_slice(&(rank as u32).to_le_bytes());
            s.write_all(&hello)?;
            *slot = Some(s);
        }
        // Accept every higher rank; the hello frame says who dialed.
        for _ in rank + 1..nranks {
            let (mut s, _) = listener.accept()?;
            let mut hello = [0u8; 8];
            s.read_exact(&mut hello)?;
            let magic = u32::from_le_bytes(hello[0..4].try_into().unwrap());
            let peer = u32::from_le_bytes(hello[4..8].try_into().unwrap()) as usize;
            if magic != FRAME_MAGIC || peer <= rank || peer >= nranks || streams[peer].is_some() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad hello from peer (magic {magic:#x}, claimed rank {peer})"),
                ));
            }
            streams[peer] = Some(s);
        }
        drop(listener);

        let table = Arc::new(MatchTable::default());
        for (peer, s) in streams.iter().enumerate() {
            if let Some(s) = s {
                let reader = s.try_clone()?;
                let table = Arc::clone(&table);
                std::thread::Builder::new()
                    .name(format!("op2-net-r{rank}p{peer}"))
                    .spawn(move || reader_loop(reader, peer as u32, rank as u32, table))
                    .expect("spawn transport reader thread");
            }
        }
        Ok(ProcessTransport {
            nranks,
            rank,
            table,
            peers: streams.into_iter().map(|s| s.map(Mutex::new)).collect(),
            sock_path,
        })
    }

    /// This process's global rank id.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

fn reader_loop(mut stream: UnixStream, peer: u32, my_rank: u32, table: Arc<MatchTable>) {
    if let Err(e) = read_frames(&mut stream, peer, my_rank, &table) {
        eprintln!("op2-transport: rank {my_rank} drops its link from rank {peer}: {e}");
    }
    table.fail_peer(peer);
}

/// Delivers `peer`'s frames until its stream ends (`Ok`) or carries one
/// this rank cannot accept (`Err`: bad magic or kind, misrouted, repeated
/// key, short payload). The payload is read as it arrives, never allocated
/// from the header's `len` up front.
fn read_frames(
    stream: &mut impl Read,
    peer: u32,
    my_rank: u32,
    table: &MatchTable,
) -> Result<(), String> {
    loop {
        let mut hdr = [0u8; FRAME_HEADER];
        if stream.read_exact(&mut hdr).is_err() {
            return Ok(()); // EOF or error: the peer is gone
        }
        let word = |at: usize| u32::from_le_bytes(hdr[at..at + 4].try_into().unwrap());
        let long = |at: usize| u64::from_le_bytes(hdr[at..at + 8].try_into().unwrap());
        let (magic, src, dst, seq, len) = (word(0), word(8), word(12), long(16), long(24));
        if magic != FRAME_MAGIC {
            return Err(format!("corrupt frame (magic {magic:#x})"));
        }
        let kind =
            MsgKind::from_u8(hdr[4]).ok_or_else(|| format!("unknown message kind {}", hdr[4]))?;
        if (src, dst) != (peer, my_rank) {
            return Err(format!("frame {src}->{dst} on the link {peer}->{my_rank}"));
        }
        let payload = if hdr[5] & FLAG_ABANDONED != 0 {
            None
        } else {
            let mut buf = Vec::new();
            let got = (&mut *stream).take(len).read_to_end(&mut buf);
            if got.map_or(true, |n| (n as u64) < len) {
                return Err(format!("short payload ({} of {len} bytes)", buf.len()));
            }
            Some(buf)
        };
        table.try_deliver((kind, src, dst, seq), payload)?;
    }
}

impl Transport for ProcessTransport {
    fn nranks(&self) -> usize {
        self.nranks
    }

    fn local_ranks(&self) -> Range<usize> {
        self.rank..self.rank + 1
    }

    fn send(&self, kind: MsgKind, src: usize, dst: usize, seq: u64, payload: Option<Vec<u8>>) {
        assert_eq!(src, self.rank, "send from non-local rank {src}");
        if dst == self.rank {
            self.table
                .deliver((kind, src as u32, dst as u32, seq), payload);
            return;
        }
        let flags = if payload.is_some() { 0 } else { FLAG_ABANDONED };
        let bytes = payload.as_deref().unwrap_or_default();
        let frame = encode_frame(kind, flags, src as u32, dst as u32, seq, bytes);
        let stream = self.peers[dst]
            .as_ref()
            .unwrap_or_else(|| panic!("no link from rank {} to rank {dst}", self.rank));
        if let Err(e) = stream.lock().write_all(&frame) {
            // The peer is gone; its reader thread will fail the inbound
            // side. Dropping the payload mirrors a dead network peer.
            eprintln!(
                "op2-transport: rank {} -> {dst} send failed: {e}",
                self.rank
            );
        }
    }

    fn recv(&self, kind: MsgKind, src: usize, dst: usize, seq: u64) -> Delivery {
        assert_eq!(dst, self.rank, "recv for non-local rank {dst}");
        self.table.expect((kind, src as u32, dst as u32, seq))
    }
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        // Shut the write sides down so peer readers see EOF promptly.
        for s in self.peers.iter().flatten() {
            let _ = s.lock().shutdown(std::net::Shutdown::Both);
        }
        let _ = std::fs::remove_file(&self.sock_path);
    }
}

impl std::fmt::Debug for ProcessTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessTransport")
            .field("rank", &self.rank)
            .field("nranks", &self.nranks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn wire_scalars_round_trip() {
        assert_eq!(
            decode_scalars::<f64>(&encode_scalars(&[1.5f64, -2.25])),
            [1.5, -2.25]
        );
        assert_eq!(
            decode_scalars::<bool>(&encode_scalars(&[true, false])),
            [true, false]
        );
        assert_eq!(decode_scalars::<usize>(&encode_scalars(&[7usize])), [7]);
        assert_eq!(
            encode_scalars(&[7usize]).len(),
            8,
            "usize is widened to 64 bits on the wire"
        );
        assert_eq!(decode_scalars::<i8>(&encode_scalars(&[-3i8, 5])), [-3, 5]);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn decode_rejects_ragged_payloads() {
        let _ = decode_scalars::<f64>(&[0u8; 12]);
    }

    #[test]
    fn in_process_matches_either_order() {
        let t = InProcessTransport::new(2);
        // Send before recv.
        t.send(MsgKind::Halo, 0, 1, 0, Some(vec![1, 2, 3]));
        let d = t.recv(MsgKind::Halo, 0, 1, 0);
        assert!(d.ready().is_ready());
        assert_eq!(d.take(), Some(vec![1, 2, 3]));
        // Recv before send.
        let d = t.recv(MsgKind::Halo, 0, 1, 1);
        assert!(!d.ready().is_ready());
        t.send(MsgKind::Halo, 0, 1, 1, Some(vec![9]));
        d.ready().wait();
        assert_eq!(d.take(), Some(vec![9]));
    }

    #[test]
    fn dropped_send_guard_abandons_the_exchange() {
        let comm = Comm::new(Arc::new(InProcessTransport::new(2)), Vec::new());
        let (guard, d) = comm.open(MsgKind::Halo, 0, 1);
        drop(guard);
        let d = d.expect("rank 1 is hosted here");
        d.ready().wait();
        assert_eq!(d.take(), None, "abandoned delivery carries no payload");
    }

    #[test]
    fn seq_counters_are_per_stream() {
        let seqs = SeqCounters::default();
        assert_eq!(seqs.next(MsgKind::Halo, 0, 1), 0);
        assert_eq!(seqs.next(MsgKind::Halo, 0, 1), 1);
        assert_eq!(seqs.next(MsgKind::Halo, 1, 0), 0);
        assert_eq!(seqs.next(MsgKind::Reduce, 0, 1), 0);
    }

    #[test]
    fn socket_transport_full_mesh_round_trip() {
        let dir = std::env::temp_dir().join(format!("op2-tp-test-{}", std::process::id()));
        let n = 3;
        // No rank drops its transport while a peer still reads from it.
        let all_read = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            for rank in 0..n {
                let dir = dir.clone();
                let all_read = &all_read;
                s.spawn(move || {
                    let t = ProcessTransport::connect_unix(&dir, rank, n).unwrap();
                    let seqs = SeqCounters::default();
                    // Everyone sends its rank id to every peer...
                    for dst in 0..n {
                        if dst != rank {
                            let seq = seqs.next(MsgKind::Halo, rank, dst);
                            t.send(MsgKind::Halo, rank, dst, seq, Some(vec![rank as u8]));
                        }
                    }
                    // ...and checks what arrives.
                    for src in 0..n {
                        if src != rank {
                            let seq = seqs.next(MsgKind::Halo, src, rank);
                            let d = t.recv(MsgKind::Halo, src, rank, seq);
                            d.ready().wait();
                            assert_eq!(d.take(), Some(vec![src as u8]));
                        }
                    }
                    all_read.wait();
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rank 0 of a two-rank socket job faces a raw stream posing as rank 1:
    /// a valid hello, then `frames`, then (if `close`) EOF. The receive
    /// rank 0 posted from rank 1 must complete as abandoned — the reader
    /// fails the peer instead of dying with it.
    fn bad_peer_abandons_receives(tag: &str, frames: &[Vec<u8>], close: bool) {
        let dir = std::env::temp_dir().join(format!("op2-tp-bad-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::thread::scope(|s| {
            let rank0 = s.spawn(|| ProcessTransport::connect_unix(&dir, 0, 2).unwrap());
            let mut raw = retry_connect(&dir.join("rank0.sock"), Duration::from_secs(30)).unwrap();
            let mut hello = FRAME_MAGIC.to_le_bytes().to_vec();
            hello.extend_from_slice(&1u32.to_le_bytes());
            raw.write_all(&hello).unwrap();
            let t = rank0.join().unwrap();
            let d = t.recv(MsgKind::Halo, 1, 0, 0);
            for f in frames {
                raw.write_all(f).unwrap();
            }
            if close {
                raw.shutdown(std::net::Shutdown::Both).unwrap();
            }
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !d.ready().is_ready() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{tag}: the receive from the bad peer hangs"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(d.take(), None, "{tag}: abandoned, no payload");
            drop(raw);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn frame_from_1(seq: u64) -> Vec<u8> {
        encode_frame(MsgKind::Halo, 0, 1, 0, seq, &[1, 2, 3])
    }

    #[test]
    fn bad_frame_magic_fails_the_peer() {
        let mut f = frame_from_1(0);
        f[0] ^= 0xff;
        bad_peer_abandons_receives("magic", &[f], false);
    }

    #[test]
    fn unknown_frame_kind_fails_the_peer() {
        let mut f = frame_from_1(0);
        f[4] = 9;
        bad_peer_abandons_receives("kind", &[f], false);
    }

    #[test]
    fn misrouted_frame_fails_the_peer() {
        let f = encode_frame(MsgKind::Halo, 0, 0, 0, 0, &[1, 2, 3]);
        bad_peer_abandons_receives("src", &[f], false);
    }

    #[test]
    fn repeated_frame_key_fails_the_peer() {
        bad_peer_abandons_receives("dup", &[frame_from_1(5), frame_from_1(5)], false);
    }

    #[test]
    fn oversized_frame_len_is_not_allocated_up_front() {
        let mut f = frame_from_1(0);
        f.truncate(FRAME_HEADER);
        f[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        bad_peer_abandons_receives("len", &[f], true);
    }

    /// xorshift64*: every fuzz case reproduces from the seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// A valid stream from rank 1 to rank 0 (every kind, an abandonment
    /// marker, payloads of 0 to 40 bytes) and where its frames start.
    fn valid_stream() -> (Vec<u8>, Vec<usize>) {
        let kinds = [MsgKind::Halo, MsgKind::Reduce, MsgKind::Migrate];
        let (mut bytes, mut starts) = (Vec::new(), Vec::new());
        for (seq, kind) in kinds.into_iter().cycle().take(6).enumerate() {
            let payload: Vec<u8> = (0..seq * 8).map(|b| b as u8).collect();
            starts.push(bytes.len());
            bytes.extend(encode_frame(kind, 0, 1, 0, seq as u64, &payload));
        }
        starts.push(bytes.len());
        bytes.extend(encode_frame(MsgKind::Halo, FLAG_ABANDONED, 1, 0, 99, &[]));
        (bytes, starts)
    }

    #[test]
    fn frame_decoder_survives_seeded_byte_mutations() {
        let (valid, starts) = valid_stream();
        assert_eq!(
            read_frames(&mut &valid[..], 1, 0, &MatchTable::default()),
            Ok(())
        );
        let mut rng = Rng(0x5EED_0000_0000_0001);
        let (mut ok, mut err) = (0usize, 0usize);
        for case in 0..20_000 {
            let mut bytes = valid.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                let byte = rng.next() as u8;
                match rng.below(5) {
                    0 => bytes[at] = byte,
                    1 => bytes[at] ^= 1 << rng.below(8),
                    2 => bytes.insert(at, byte),
                    3 => {
                        bytes.remove(at);
                    }
                    // One byte of a header field (kind, flags, src, dst,
                    // seq, len) of a frame at its original offset.
                    _ => {
                        let field = [4, 5, 8, 12, 16, 24, 31][rng.below(7)];
                        let start = starts[rng.below(starts.len())];
                        if let Some(b) = bytes.get_mut(start + field) {
                            *b = byte;
                        }
                    }
                }
            }
            bytes.truncate(bytes.len() - rng.below(8));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                read_frames(&mut &bytes[..], 1, 0, &MatchTable::default())
            }));
            match outcome {
                Ok(Ok(())) => ok += 1,
                Ok(Err(_)) => err += 1,
                Err(_) => panic!("case {case}: read_frames panicked on {bytes:?}"),
            }
        }
        assert!(ok > 0 && err > 0, "ok={ok} err={err}");
    }

    #[test]
    fn frame_len_past_the_end_of_the_stream_is_an_error() {
        let mut f = frame_from_1(0);
        f[24..32].copy_from_slice(&4u64.to_le_bytes());
        let res = read_frames(&mut &f[..], 1, 0, &MatchTable::default());
        assert_eq!(res, Err("short payload (3 of 4 bytes)".into()));
        f.truncate(FRAME_HEADER);
        f[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        let res = read_frames(&mut &f[..], 1, 0, &MatchTable::default());
        assert!(res.unwrap_err().starts_with("short payload (0 of"));
    }

    #[test]
    fn dead_socket_peer_abandons_outstanding_receives() {
        let dir = std::env::temp_dir().join(format!("op2-tp-dead-{}", std::process::id()));
        std::thread::scope(|s| {
            let h0 = s.spawn({
                let dir = dir.clone();
                move || {
                    let t = ProcessTransport::connect_unix(&dir, 0, 2).unwrap();
                    let d = t.recv(MsgKind::Halo, 1, 0, 0);
                    // Peer 1 exits without sending: the delivery must
                    // complete as abandoned, not hang.
                    d.ready().wait();
                    assert_eq!(d.take(), None);
                    // Future receives from the dead peer are abandoned too.
                    let d2 = t.recv(MsgKind::Halo, 1, 0, 1);
                    assert!(d2.ready().is_ready());
                    assert_eq!(d2.take(), None);
                }
            });
            s.spawn({
                let dir = dir.clone();
                move || {
                    let t = ProcessTransport::connect_unix(&dir, 1, 2).unwrap();
                    drop(t);
                }
            });
            h0.join().unwrap();
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
