//! The parcelport layer: moving halo rows, migrated rows, reduction
//! partials and control messages between ranks, in-process or across OS
//! processes.
//!
//! The locality layer (see [`crate::locality`]) schedules *who* talks to
//! whom and *when* (epoch-table dependencies, dirty bits, wait-sets); this
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
//!   match-table handoff; [`InProcessTransport::with_delay`] models link
//!   latency by **rescheduling** delivery onto the shared
//!   [`hpx_rt::timing::defer`] timer thread, never by sleeping on a
//!   runtime worker (a `thread::sleep` inside the gather node would steal
//!   the very compute the overlap benches claim to overlap). It is the
//!   only way to inject latency.
//! * [`ProcessTransport`] — each rank (or group of ranks) is its own OS
//!   process; peers are connected over a full mesh of Unix-domain sockets
//!   established through a filesystem rendezvous directory. Latency is
//!   real wire latency.
//!
//! # Message addressing and SPMD symmetry
//!
//! Messages are matched by `(kind, src, dst, seq)` where `seq` comes from
//! [`Transport::next_seq`], a per-`(kind, src → dst)` counter. There is no
//! header negotiation: both endpoints of a distributed pair run the same
//! program (SPMD), so the *k*-th halo exchange scheduled from `src` to
//! `dst` on the sender side is matched with the *k*-th receive posted on
//! the receiver side because both sides advanced the same counter at the
//! same program points. The locality layer guarantees this symmetry by
//! making its scheduling decisions (dirty-bit transitions, reachability
//! cuts) from process-local state *identically on every rank* whenever the
//! transport is not [`Transport::all_local`].
//!
//! Every message is opened by `open`, the one place that rule lives: it
//! takes the message's **one** sequence number, arms a [`SendGuard`] when
//! `src` is hosted here and posts the receive when `dst` is. A message
//! whose two ends share a process therefore shares one number between its
//! halves; advancing the counter once per side would give them different
//! numbers and the receive would never match.
//!
//! # Abandonment
//!
//! A sender that panics (or whose upstream kernel panicked, skipping the
//! gather node) would leave the matching receive waiting forever. The
//! send path therefore travels under a [`SendGuard`]: if the guard is
//! dropped without sending, an *abandonment* marker is delivered (or a
//! flagged frame is sent) so the receiver's [`Delivery`] completes with no
//! payload and the receive node degrades to a diagnostic no-op — the
//! original panic, not a secondary "sender dropped" panic, is what
//! propagates to the fence. A socket peer that disappears entirely
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
pub fn encode_scalars<T: WireScalar>(vals: &[T]) -> Vec<u8> {
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
pub fn decode_scalars<T: WireScalar>(bytes: &[u8]) -> Vec<T> {
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
/// reduction partials and control messages between the same pair of ranks
/// never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Halo rows (canonical row-major dat rows).
    Halo = 0,
    /// Reduction partials (a `Global`'s value vector).
    Reduce = 1,
    /// Control traffic (barrier arrivals/releases).
    Ctrl = 2,
    /// Row migration during a live repartition (canonical row-major dat
    /// rows, like [`MsgKind::Halo`], but on a separate sequence stream so
    /// in-flight halo traffic and migration moves never collide).
    Migrate = 3,
}

impl MsgKind {
    fn from_u8(v: u8) -> Option<MsgKind> {
        match v {
            0 => Some(MsgKind::Halo),
            1 => Some(MsgKind::Reduce),
            2 => Some(MsgKind::Ctrl),
            3 => Some(MsgKind::Migrate),
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
                ready: SharedFuture::ready(()),
                payload: Arc::new(Mutex::new(payload)),
            },
            Some(Slot::Expected(..)) => {
                panic!("transport: duplicate receive for {key:?} — sequence counters desynced")
            }
            None => {
                if self.dead.lock().contains(&key.1) {
                    return Delivery {
                        ready: SharedFuture::ready(()),
                        payload: Arc::new(Mutex::new(None)),
                    };
                }
                let (promise, future) = hpx_rt::channel::<()>();
                let cell = Arc::new(Mutex::new(None));
                slots.insert(key, Slot::Expected(promise, Arc::clone(&cell)));
                Delivery {
                    ready: future.share(),
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
/// modelling or incurring latency on the send side.
pub trait Transport: Send + Sync + 'static {
    /// Total number of ranks in the job (across all processes).
    fn nranks(&self) -> usize;

    /// The contiguous range of global rank ids hosted by *this* process.
    fn local_ranks(&self) -> Range<usize>;

    /// Next sequence number of the `(kind, src → dst)` stream. Both
    /// endpoints must advance this at the same program points (see module
    /// docs on SPMD symmetry).
    fn next_seq(&self, kind: MsgKind, src: usize, dst: usize) -> u64;

    /// Sends `payload` as message `(kind, src, dst, seq)`. Must not block
    /// a runtime worker for the link's latency, real or modelled.
    fn send(&self, kind: MsgKind, src: usize, dst: usize, seq: u64, payload: Vec<u8>);

    /// Marks message `(kind, src, dst, seq)` as abandoned: the receiver's
    /// [`Delivery`] completes with no payload (see module docs).
    fn send_abandoned(&self, kind: MsgKind, src: usize, dst: usize, seq: u64);

    /// Posts a receive for message `(kind, src, dst, seq)`; `dst` must be
    /// a local rank.
    fn recv(&self, kind: MsgKind, src: usize, dst: usize, seq: u64) -> Delivery;

    /// True when every rank lives in this process — the locality layer
    /// uses process-global shortcuts (map-reachability cuts, immediate
    /// barriers) only then.
    fn all_local(&self) -> bool {
        self.local_ranks() == (0..self.nranks())
    }
}

/// Per-`(kind, src → dst)` stream counters (shared helper of both
/// implementations).
#[derive(Default)]
struct SeqCounters {
    next: Mutex<HashMap<(MsgKind, u32, u32), u64>>,
}

impl SeqCounters {
    fn next(&self, kind: MsgKind, src: usize, dst: usize) -> u64 {
        let mut map = self.next.lock();
        let c = map.entry((kind, src as u32, dst as u32)).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }
}

/// Opens message `(kind, src → dst)`: takes its one sequence number (see
/// module docs), arms a [`SendGuard`] when `src` is hosted here and posts
/// the receive when `dst` is. The only caller of [`Transport::next_seq`].
pub(crate) fn open(
    transport: &Arc<dyn Transport>,
    kind: MsgKind,
    src: usize,
    dst: usize,
) -> (Option<SendGuard>, Option<Delivery>) {
    let local = transport.local_ranks();
    let seq = transport.next_seq(kind, src, dst);
    let guard = local.contains(&src).then(|| SendGuard {
        transport: Arc::clone(transport),
        kind,
        src,
        dst,
        seq,
        armed: true,
    });
    let delivery = local
        .contains(&dst)
        .then(|| transport.recv(kind, src, dst, seq));
    (guard, delivery)
}

/// Arms abandonment for one outgoing message: `open` creates it when the
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
            .send(self.kind, self.src, self.dst, self.seq, payload);
    }
}

impl Drop for SendGuard {
    fn drop(&mut self) {
        if self.armed {
            hpx_rt::static_counter!("op2.transport.sends_abandoned")
                .fetch_add(1, Ordering::Relaxed);
            self.transport
                .send_abandoned(self.kind, self.src, self.dst, self.seq);
        }
    }
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// All ranks in one process: delivery is a match-table handoff on the
/// sending thread, and an injected link delay *reschedules* delivery onto
/// the shared timer thread ([`hpx_rt::timing::defer`]) — no runtime worker
/// sleeps, so overlap measurements under injected latency do not lose a
/// worker per in-flight message.
pub struct InProcessTransport {
    nranks: usize,
    /// Injected latency of every message.
    delay: Option<Duration>,
    table: Arc<MatchTable>,
    seqs: SeqCounters,
}

impl InProcessTransport {
    /// A zero-latency in-process transport between `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        Self::with_delay(nranks, None)
    }

    /// An in-process transport injecting `delay` on every message (halo
    /// rows, reduction partials, control and migration traffic alike).
    pub fn with_delay(nranks: usize, delay: Option<Duration>) -> Self {
        assert!(nranks >= 1, "a transport needs at least one rank");
        InProcessTransport {
            nranks,
            delay,
            table: Arc::new(MatchTable::default()),
            seqs: SeqCounters::default(),
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

    fn next_seq(&self, kind: MsgKind, src: usize, dst: usize) -> u64 {
        self.seqs.next(kind, src, dst)
    }

    fn send(&self, kind: MsgKind, src: usize, dst: usize, seq: u64, payload: Vec<u8>) {
        let key = (kind, src as u32, dst as u32, seq);
        match self.delay {
            Some(d) => {
                let table = Arc::clone(&self.table);
                hpx_rt::timing::defer(d, move || table.deliver(key, Some(payload)));
            }
            None => self.table.deliver(key, Some(payload)),
        }
    }

    fn send_abandoned(&self, kind: MsgKind, src: usize, dst: usize, seq: u64) {
        // Abandonment skips the injected delay: it exists to unblock the
        // receiver promptly on a failure path.
        self.table
            .deliver((kind, src as u32, dst as u32, seq), None);
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
            .field("delay", &self.delay)
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
    seqs: SeqCounters,
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
            seqs: SeqCounters::default(),
            sock_path,
        })
    }

    /// This process's global rank id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    fn write_frame(&self, dst: usize, frame: &[u8]) {
        if dst == self.rank {
            return; // self-sends short-circuit through the table
        }
        let stream = self.peers[dst]
            .as_ref()
            .unwrap_or_else(|| panic!("no link from rank {} to rank {dst}", self.rank));
        if let Err(e) = stream.lock().write_all(frame) {
            // The peer is gone; its reader thread will fail the inbound
            // side. Dropping the payload mirrors a dead network peer.
            eprintln!(
                "op2-transport: rank {} -> {dst} send failed: {e}",
                self.rank
            );
        }
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
    stream: &mut UnixStream,
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

    fn next_seq(&self, kind: MsgKind, src: usize, dst: usize) -> u64 {
        self.seqs.next(kind, src, dst)
    }

    fn send(&self, kind: MsgKind, src: usize, dst: usize, seq: u64, payload: Vec<u8>) {
        assert_eq!(src, self.rank, "send from non-local rank {src}");
        if dst == self.rank {
            self.table
                .deliver((kind, src as u32, dst as u32, seq), Some(payload));
            return;
        }
        let frame = encode_frame(kind, 0, src as u32, dst as u32, seq, &payload);
        self.write_frame(dst, &frame);
    }

    fn send_abandoned(&self, kind: MsgKind, src: usize, dst: usize, seq: u64) {
        if dst == self.rank {
            self.table
                .deliver((kind, src as u32, dst as u32, seq), None);
            return;
        }
        let frame = encode_frame(kind, FLAG_ABANDONED, src as u32, dst as u32, seq, &[]);
        self.write_frame(dst, &frame);
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

// ---------------------------------------------------------------------------
// Collective helpers
// ---------------------------------------------------------------------------

/// A whole-job rendezvous: returns once every rank of the job has entered
/// the barrier, or its peer died. All-local transports return immediately
/// (the caller holds every rank already); distributed ones run an
/// arrive/release `gather_broadcast` of empty payloads. Call from a
/// non-worker thread (it blocks).
pub fn barrier(transport: &Arc<dyn Transport>) {
    if !transport.all_local() {
        gather_broadcast(transport, |_| Vec::new(), |_| Vec::new());
    }
}

/// A blocking star through rank 0 over [`MsgKind::Ctrl`] messages: every
/// rank `r` contributes `up(r)`, rank 0 folds the contributions (in rank
/// order, `None` for one a dead peer abandoned) with `root`, and every
/// rank returns the folded payload — `None` on a rank whose copy was
/// abandoned. Ranks hosted with rank 0 read it directly; only the others
/// receive it. Every process must call this at the same program point
/// (SPMD). Call from a non-worker thread (it blocks).
pub(crate) fn gather_broadcast(
    transport: &Arc<dyn Transport>,
    up: impl Fn(usize) -> Vec<u8>,
    root: impl FnOnce(Vec<Option<Vec<u8>>>) -> Vec<u8>,
) -> Option<Vec<u8>> {
    let n = transport.nranks();
    let local = transport.local_ranks();
    let hosts_root = local.contains(&0);
    let mut arrivals = Vec::new();
    for r in (1..n).filter(|r| hosts_root || local.contains(r)) {
        let (guard, delivery) = open(transport, MsgKind::Ctrl, r, 0);
        if let Some(guard) = guard {
            guard.send(up(r));
        }
        arrivals.extend(delivery);
    }
    if hosts_root {
        // Armed before `root` runs: a panicking fold abandons the
        // broadcast instead of stranding the other processes' ranks.
        let down: Vec<SendGuard> = (1..n)
            .filter(|s| !local.contains(s))
            .filter_map(|s| open(transport, MsgKind::Ctrl, 0, s).0)
            .collect();
        let mut parts = vec![Some(up(0))];
        for d in arrivals {
            d.ready().wait();
            parts.push(d.take());
        }
        let total = root(parts);
        for guard in down {
            guard.send(total.clone());
        }
        return Some(total);
    }
    let mut total = Some(Vec::new());
    for r in local {
        let d = open(transport, MsgKind::Ctrl, 0, r)
            .1
            .expect("rank r is hosted here");
        d.ready().wait();
        total = total.and(d.take());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

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
        t.send(MsgKind::Halo, 0, 1, 0, vec![1, 2, 3]);
        let d = t.recv(MsgKind::Halo, 0, 1, 0);
        assert!(d.ready().is_ready());
        assert_eq!(d.take(), Some(vec![1, 2, 3]));
        // Recv before send.
        let d = t.recv(MsgKind::Halo, 0, 1, 1);
        assert!(!d.ready().is_ready());
        t.send(MsgKind::Halo, 0, 1, 1, vec![9]);
        d.ready().wait();
        assert_eq!(d.take(), Some(vec![9]));
    }

    #[test]
    fn in_process_delay_defers_off_thread() {
        let t = InProcessTransport::with_delay(2, Some(Duration::from_millis(15)));
        let t0 = std::time::Instant::now();
        t.send(MsgKind::Halo, 0, 1, 0, vec![4]);
        // The send returned immediately; delivery lands later via the
        // timer thread.
        assert!(t0.elapsed() < Duration::from_millis(15));
        let d = t.recv(MsgKind::Halo, 0, 1, 0);
        d.ready().wait();
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert_eq!(d.take(), Some(vec![4]));
    }

    #[test]
    fn dropped_send_guard_abandons_the_exchange() {
        let t: Arc<dyn Transport> = Arc::new(InProcessTransport::new(2));
        let (guard, d) = open(&t, MsgKind::Halo, 0, 1);
        drop(guard);
        let d = d.expect("rank 1 is hosted here");
        d.ready().wait();
        assert_eq!(d.take(), None, "abandoned delivery carries no payload");
    }

    #[test]
    fn seq_counters_are_per_stream() {
        let t = InProcessTransport::new(3);
        assert_eq!(t.next_seq(MsgKind::Halo, 0, 1), 0);
        assert_eq!(t.next_seq(MsgKind::Halo, 0, 1), 1);
        assert_eq!(t.next_seq(MsgKind::Halo, 1, 0), 0);
        assert_eq!(t.next_seq(MsgKind::Reduce, 0, 1), 0);
    }

    #[test]
    fn socket_transport_full_mesh_round_trip() {
        let dir = std::env::temp_dir().join(format!("op2-tp-test-{}", std::process::id()));
        let n = 3;
        std::thread::scope(|s| {
            for rank in 0..n {
                let dir = dir.clone();
                s.spawn(move || {
                    let t = ProcessTransport::connect_unix(&dir, rank, n).unwrap();
                    // Everyone sends its rank id to every peer...
                    for dst in 0..n {
                        if dst != rank {
                            let seq = t.next_seq(MsgKind::Halo, rank, dst);
                            t.send(MsgKind::Halo, rank, dst, seq, vec![rank as u8]);
                        }
                    }
                    // ...and checks what arrives.
                    for src in 0..n {
                        if src != rank {
                            let seq = t.next_seq(MsgKind::Halo, src, rank);
                            let d = t.recv(MsgKind::Halo, src, rank, seq);
                            d.ready().wait();
                            assert_eq!(d.take(), Some(vec![src as u8]));
                        }
                    }
                    let t: Arc<dyn Transport> = Arc::new(t);
                    barrier(&t);
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
