//! Multi-locality sharding: rank contexts and asynchronous halo exchange
//! over a pluggable [`Transport`].
//!
//! The paper's endgame (§VI: "HPX can run distributed") is OP2 loops over
//! a *partitioned* mesh where halo communication hides behind futures
//! instead of bulk-synchronous MPI exchanges. This module provides the
//! runtime side of that design:
//!
//! * a [`LocalityGroup`] holds one [`Op2`] context per **locally hosted
//!   rank**. Under the default [`InProcessTransport`] all ranks live in
//!   one process and share a single worker pool, so their tasks interleave
//!   like HPX localities on one node; under a [`ProcessTransport`](crate::transport::ProcessTransport) each OS
//!   process hosts its slice of the ranks and peers exchange real bytes
//!   over Unix-domain sockets.
//! * each sharded dat is declared with [`Op2::decl_dat_halo`]: its owned
//!   rows first, then **halo mirror rows** for the remote-owned elements
//!   its loops reach, grouped contiguously by owner rank.
//! * [`exchange`] refreshes the halo: for every (sender, receiver) pair it
//!   schedules a **send node** (gathers the exported rows once their
//!   writers finish, hands them to the transport) and a **receive node**
//!   (gated on the transport's [`Delivery`], scatters into the halo rows).
//!   Only the halves whose rank is locally hosted are scheduled; the
//!   group's sequence counters match them with the peer's halves.
//! * [`LocalityGroup::allreduce`] moves reduction partials over the same
//!   transport: a star through rank 0, whatever the process layout. It is
//!   the only collective: [`LocalityGroup::barrier`] and
//!   [`crate::rebalance::agree_rank_busy`] are allreduces too.
//!
//! The group's [`Transport`] is the only way halo rows, migrated rows and
//! partials move between ranks. One row mover (`move_rows`) schedules
//! every row move — [`exchange`], the implicit halo refresh and
//! [`crate::rebalance::migrate_rows`] — as one message each, even when
//! both ends share a process.
//!
//! The crucial property is *what the receive node registers as*: a
//! mutating access record over the halo rows in the dat's dependency table
//! (see `dat.rs`) — a one-node version of what a local loop leaves
//! there. A subsequent `par_loop` whose indirect arguments reach halo
//! blocks therefore gates **only the nodes that touch the halo** on the
//! receive future, through the ordinary footprint resolution; its interior
//! nodes carry no such edge and start immediately. Halo blocks are just
//! remote-fed blocks, and communication overlaps interior compute with no
//! global barrier per loop. The held-link tests in `tests/transport.rs`
//! assert this exactly: with the halo message held in the link, every
//! interior element of the consumer runs and no boundary element does.
//!
//! # Implicit communication: the dirty-bit protocol
//!
//! OP2's contract is that access descriptors fully describe a loop's data
//! movement — which is what lets the runtime insert communication for the
//! user. [`LocalityGroup::link_halo`] restores that contract at distributed
//! scale: it ties the per-rank shards of one logical dat into a `HaloRing`
//! carrying the [`HaloSpec`] and one **dirty bit per (importer, exporter)
//! pair**. From then on no manual [`exchange`] call is needed; `par_loop`
//! submission drives the state machine, with one rule for every process
//! layout:
//!
//! * **Write ⇒ stale.** A loop with a *mutating* argument on a linked dat
//!   (any of `OP_WRITE`/`OP_RW`/`OP_INC`, direct or indirect — the owned
//!   rows are the authoritative copies) marks **every** exporting pair
//!   stale. Every process runs the same program over its own ranks (SPMD),
//!   so every rank runs this mutating loop on its shard; a process cannot
//!   observe a remote mutation, only mirror it. Bits start stale at link
//!   time (the peers have never been fed).
//! * **Stale read ⇒ exchange.** A loop submitted later with an *indirect*
//!   argument that reads the dat (`OP_READ`/`OP_RW` through a map) on rank
//!   `r` schedules, for each stale pair it concerns, the [`exchange`]
//!   gather/send and receive/scatter nodes into the dataflow graph —
//!   *before* the loop's own nodes are built, so its boundary blocks gate
//!   on the receive through the ordinary access records while interior
//!   blocks start immediately — and clears the bit. The pairs it concerns
//!   are `r`'s imports (received, and sent too when the exporter is hosted
//!   in this process) and `r`'s exports to importers hosted in *other*
//!   processes (sent only: the importer's own read, at the same program
//!   point in its process, posts the receive and clears the same bit).
//!   Each pair is thus opened exactly once per process that hosts one of
//!   its ends, so the per-stream sequence counters stay aligned without
//!   header negotiation, and an all-local group sends exactly the halo
//!   messages the same job sends across processes.
//! * **Clean read ⇒ skip.** A read of an up-to-date import schedules
//!   nothing (counted in [`HaloStats::skipped_clean`]): redundant
//!   exchanges of a manually scheduled program simply disappear.
//!
//! Nothing in the rule looks at a rank's private map contents: whether a
//! map reaches a peer's halo is invisible to the exporting process, so a
//! cut on it would desynchronize the two ends.
//!
//! `OP_INC` deliberately does not trigger a refresh: increments are
//! computed without reading the target, and partition-boundary work is
//! executed redundantly by both ranks (OP2's exec-halo), so increments
//! into halo mirrors are dead values. All receives of one refresh share a
//! generation — sibling records never supersede each other, and adjacent
//! peers' import ranges may share a dependency block; a refresh
//! superseding an in-flight older receive chains behind it through the
//! ordinary collect-then-record discipline, so no dependency is lost.
//!
//! # Wire format
//!
//! Transports move rows in one encoding, the dats' own row-major one:
//!
//! * a [`MsgKind::Halo`] or [`MsgKind::Migrate`] payload is the moved rows
//!   in source-list order, each row `dim` scalars **row-major**, every scalar
//!   little-endian fixed-width (`usize`/`isize` widened to 64 bits,
//!   `bool` one byte — see [`crate::transport::WireScalar`]); the gather
//!   appends whole rows and the scatter copies them back in place.
//! * a [`MsgKind::Reduce`] payload is a `Global`'s `dim` partial values,
//!   same scalar encoding (a barrier's is one zero `f64`).
//! * multi-process framing (Unix-domain sockets): a 32-byte header
//!   `magic u32 | kind u8 | flags u8 | pad u16 | src u32 | dst u32 |
//!   seq u64 | len u64` (little-endian), then `len` payload bytes; flag
//!   bit 0 marks an **abandoned** exchange (no payload follows).
//!   Messages are matched by `(kind, src, dst, seq)` where `seq` is the
//!   per-`(kind, src → dst)` stream counter the group keeps (see
//!   [`crate::transport`]).
//!
//! ```
//! use op2_core::locality::{exchange, HaloSpec, LocalityGroup};
//! use op2_core::Op2Config;
//!
//! // Two ranks; rank 0 mirrors rank 1's first two rows.
//! let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
//! let c0 = group.rank(0).decl_set(4, "cells");
//! let c1 = group.rank(1).decl_set(4, "cells");
//! let q0 = group.rank(0).decl_dat_halo(&c0, 1, "q", vec![0.0f64; 6], 2);
//! let q1 = group.rank(1).decl_dat(&c1, 1, "q", vec![7.0, 8.0, 0.0, 0.0]);
//!
//! let mut spec = HaloSpec::empty(2);
//! spec.export_rows[1][0] = vec![0, 1];
//! spec.import_range[0][1] = 4..6;
//! spec.validate().unwrap();
//!
//! let recvs = exchange(&group, &[q0.clone(), q1], &spec);
//! recvs[0][1].wait();
//! assert_eq!(&q0.snapshot()[4..6], &[7.0, 8.0]);
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use hpx_rt::{schedule_after, Runtime, SharedFuture};

use crate::config::Op2Config;
use crate::dat::{Dat, Footprint};
use crate::gbl::{Global, ReducedFuture, Reducible};
use crate::transport::{
    decode_scalars, encode_scalars, Comm, Delivery, InProcessTransport, MsgKind, SendGuard,
    Transport,
};
use crate::types::{next_loop_gen, OpType};
use crate::world::{CommHooks, Op2};

/// A group of ranks on one runtime, wired to their peers through a
/// [`Transport`] (see module docs). Under the default in-process transport
/// the group hosts *every* rank; under a multi-process transport it hosts
/// the local slice and [`LocalityGroup::rank`] accepts only those ids.
pub struct LocalityGroup {
    /// Contexts of the locally hosted ranks; index `i` is global rank
    /// `local_ranks().start + i`.
    ranks: Vec<Op2>,
    comm: Arc<Comm>,
}

impl LocalityGroup {
    /// Creates `nranks` contexts with `config` on a shared runtime, all in
    /// this process (an [`InProcessTransport`]).
    pub fn new(config: Op2Config, nranks: usize) -> Self {
        assert!(nranks >= 1, "a locality group needs at least one rank");
        Self::with_transport(config, Arc::new(InProcessTransport::new(nranks)))
    }

    /// Creates one context per *locally hosted* rank of `transport`, all
    /// sharing one runtime. This is the distributed entry point: every
    /// participating process builds its own group over its
    /// [`ProcessTransport`](crate::transport::ProcessTransport) and runs the same program (SPMD).
    pub fn with_transport(config: Op2Config, transport: Arc<dyn Transport>) -> Self {
        let local = transport.local_ranks();
        assert!(
            !local.is_empty(),
            "a locality group needs at least one rank"
        );
        let rt = Arc::new(Runtime::with_name(config.threads, "op2-locality"));
        // Every rank world measures the busy time of each loop — the
        // imbalance signal the live-repartition path reads.
        let ranks: Vec<Op2> = local
            .map(|_| Op2::rank_world(config.clone(), Arc::clone(&rt)))
            .collect();
        let hooks = ranks.iter().map(Op2::comm_hooks).collect();
        LocalityGroup {
            ranks,
            comm: Arc::new(Comm::new(transport, hooks)),
        }
    }

    /// Total number of ranks in the job (across all processes).
    pub fn nranks(&self) -> usize {
        self.comm.nranks()
    }

    /// The global ids of the ranks hosted by this group.
    pub fn local_ranks(&self) -> Range<usize> {
        self.comm.local_ranks()
    }

    /// What the group's ranks share to talk to their peers.
    pub(crate) fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The context of one locally hosted rank (global id).
    ///
    /// # Panics
    ///
    /// If rank `r` is not hosted by this process.
    pub fn rank(&self, r: usize) -> &Op2 {
        assert!(
            self.local_ranks().contains(&r),
            "rank {r} is not hosted here (local ranks {:?})",
            self.local_ranks()
        );
        &self.ranks[r - self.local_ranks().start]
    }

    /// All locally hosted rank contexts; index `i` is global rank
    /// `local_ranks().start + i`.
    pub fn ranks(&self) -> &[Op2] {
        &self.ranks
    }

    /// Fences every locally hosted rank — the process-level global
    /// synchronization point.
    pub fn fence(&self) {
        for r in &self.ranks {
            r.fence();
        }
    }

    /// A whole-job rendezvous: an allreduce ([`LocalityGroup::allreduce`])
    /// of one zero per hosted rank, waited on through its `done()`.
    /// Returns once every rank of the job entered, or once a dead peer
    /// abandoned the reduction; that failure then surfaces at the next
    /// [`LocalityGroup::fence`], as for any failed allreduce. Every process
    /// must call this at the same program point (SPMD). Call from a
    /// non-worker thread (it blocks).
    pub fn barrier(&self) {
        // `f64`, the one element type every allreduce caller already
        // instantiates: a `u64` allreduce puts a second copy of the whole
        // machinery in each binary, and that alone slowed the unrelated
        // 4k-cell airfoil solve by ~10 % through code layout (2 vCPUs).
        let zeros: Vec<Global<f64>> = self
            .ranks
            .iter()
            .map(|_| Global::sum(1, "barrier"))
            .collect();
        self.allreduce(&zeros).done().wait();
    }

    /// Ties the per-rank shards of one logical dat into a `HaloRing` so
    /// all halo communication becomes **implicit**: loops that mutate a
    /// shard mark every exporting pair stale, loops that read a shard
    /// through a map schedule the stale exchanges automatically (see the
    /// module-level dirty-bit protocol). Every import starts stale, so the
    /// first reader is fed unconditionally.
    ///
    /// `dats[i]` must be local rank `local_ranks().start + i`'s shard
    /// (declared with [`crate::Op2::decl_dat_halo`] on the matching
    /// [`LocalityGroup::rank`]), and each shard can belong to at most one
    /// ring. The spec is global; under a distributed transport every
    /// process links with the same spec.
    pub fn link_halo<T: OpType>(&self, dats: &[Dat<T>], spec: &HaloSpec) {
        let n = spec.nranks;
        assert_eq!(self.nranks(), n, "spec rank count matches the group");
        let local = self.local_ranks();
        assert_eq!(dats.len(), local.len(), "one dat shard per local rank");
        spec.validate().expect("halo spec invalid");
        for (i, d) in dats.iter().enumerate() {
            d.assert_writable("a halo link");
            let r = local.start + i;
            for s in 0..n {
                let range = &spec.import_range[r][s];
                assert!(
                    range.is_empty()
                        || (range.start >= d.set().size() && range.end <= d.total_rows()),
                    "link_halo: rank {r} import range {range:?} outside the halo region of dat '{}'",
                    d.name()
                );
            }
        }
        let mut dirty = vec![false; n * n];
        for dst in 0..n {
            for src in 0..n {
                dirty[dst * n + src] = dst != src && !spec.import_range[dst][src].is_empty();
            }
        }
        let ring = Arc::new(HaloRing {
            spec: spec.clone(),
            shards: dats.iter().map(Dat::inner_weak).collect(),
            comm: Arc::clone(&self.comm),
            dirty: Mutex::new(dirty),
            pair_exchanges: AtomicU64::new(0),
            refresh_calls: AtomicU64::new(0),
            skipped_clean: AtomicU64::new(0),
        });
        for (i, d) in dats.iter().enumerate() {
            d.attach_halo_ring(local.start + i, Arc::clone(&ring));
        }
    }

    /// Schedules an **asynchronous cross-rank allreduce** of the per-rank
    /// globals (`globals[i]` is local rank `local_ranks().start + i`'s
    /// shard of one logical reduction, e.g. the per-rank Airfoil `rms`):
    /// each rank contributes its fully finalized value, and the combined
    /// result becomes a [`ReducedFuture`] — nothing blocks the submitting
    /// thread.
    ///
    /// One star over the group's [`Transport`], whatever the process
    /// layout: every rank `r != 0` schedules a **send node**, gated on
    /// exactly that rank's outstanding incrementing loops (its `Global`
    /// wait-set), that sends its partial to rank 0 as a [`MsgKind::Reduce`]
    /// message. Rank 0's **root node** gates on its own wait-set and every
    /// partial's delivery, folds them with `tree_combine` and sends the
    /// total to the ranks its process does not host; ranks hosted with
    /// rank 0 read the shared value. A rank whose update finished early
    /// contributes immediately while slower ranks are still computing, and
    /// the whole reduce overlaps the next iteration's interior compute
    /// instead of draining every rank's pipeline the way a host-side
    /// `get_scalar` sum does. The fold order is fixed by rank index, so the
    /// floating-point result is deterministic and transport-independent for
    /// a given rank count.
    ///
    /// Every message travels under a [`SendGuard`]: a send or root node
    /// skipped by an upstream panic (or panicking on an abandoned partial)
    /// abandons its messages, and the ranks waiting on them panic instead
    /// of hanging. The nodes are tracked per rank, so
    /// [`LocalityGroup::fence`] makes the future ready.
    ///
    /// # Panics
    ///
    /// If `globals.len()` differs from the number of locally hosted
    /// ranks, or the globals disagree on `dim` or reduction operator.
    pub fn allreduce<T: Reducible>(&self, globals: &[Global<T>]) -> ReducedFuture<T> {
        assert_eq!(
            globals.len(),
            self.ranks.len(),
            "one global shard per locally hosted rank"
        );
        let dim = globals[0].dim();
        let op = globals[0].op();
        let local = self.local_ranks();
        for (g, r) in globals.iter().zip(local.clone()) {
            assert_eq!(g.dim(), dim, "rank {r}: allreduce dim mismatch");
            assert_eq!(g.op(), op, "rank {r}: allreduce operator mismatch");
        }
        hpx_rt::static_counter!("op2.reduce.allreduces").fetch_add(1, Ordering::Relaxed);
        hpx_rt::static_counter!("op2.reduce.contributions")
            .fetch_add(globals.len() as u64, Ordering::Relaxed);

        let n = self.nranks();
        let hosts_root = local.contains(&0);
        let comm = &self.comm;
        let (promise, value) = hpx_rt::channel::<Vec<T>>();
        let mut nodes: Vec<SharedFuture<()>> = Vec::new();

        // Up: every partial but rank 0's own crosses the transport.
        let mut partials: Vec<(usize, Delivery)> = Vec::new();
        for r in (1..n).filter(|r| hosts_root || local.contains(r)) {
            let (guard, delivery) = comm.open(MsgKind::Reduce, r, 0);
            if let Some(guard) = guard {
                let g = &globals[r - local.start];
                nodes.push(
                    self.schedule_read(r, g, Vec::new(), move |v| guard.send(encode_scalars(&v))),
                );
            }
            partials.extend(delivery.map(|d| (r, d)));
        }
        if hosts_root {
            // The guards are armed here, not inside the node: a root node
            // skipped by an upstream panic drops them and so abandons the
            // broadcast instead of stranding the other processes' ranks.
            let down: Vec<SendGuard> = (1..n)
                .filter(|s| !local.contains(s))
                .filter_map(|s| comm.open(MsgKind::Reduce, 0, s).0)
                .collect();
            let arrivals = partials.iter().map(|(_, d)| d.ready().clone()).collect();
            nodes.push(self.schedule_read(0, &globals[0], arrivals, move |own| {
                let mut parts = vec![own];
                for (s, d) in &partials {
                    let bytes = d.take().unwrap_or_else(|| {
                        panic!("allreduce: contribution from rank {s} was abandoned")
                    });
                    parts.push(decode_scalars(&bytes));
                }
                let total = tree_combine(parts, op);
                let bytes = encode_scalars(&total);
                for guard in down {
                    guard.send(bytes.clone());
                }
                promise.set_value(total);
            }));
        } else {
            // Down: the first local rank's receive fulfills `value`.
            let mut promise = Some(promise);
            for r in local.clone() {
                let d = comm
                    .open(MsgKind::Reduce, 0, r)
                    .1
                    .expect("r is hosted here");
                let p = promise.take();
                let hooks = comm.hooks(r);
                let node = schedule_after(hooks.runtime(), &[d.ready().clone()], move || {
                    let bytes = d
                        .take()
                        .unwrap_or_else(|| panic!("allreduce: total from rank 0 was abandoned"));
                    if let Some(p) = p {
                        p.set_value(decode_scalars(&bytes));
                    }
                });
                hooks.track(node.clone());
                nodes.push(node);
            }
        }
        // `value` is set inside one of the nodes above, so gating `done`
        // on all of them preserves the ReducedFuture invariant.
        let rt = self.ranks[0].runtime_arc();
        let done = schedule_after(&rt, &nodes, || ());
        let hooks0 = comm.hooks(local.start).clone();
        hooks0.track(done.clone());
        ReducedFuture::from_parts(value, done, rt, hooks0)
    }

    /// Schedules `body` on local rank `r` with the finalized value of
    /// `g`, after `g`'s wait-set and `extra`. The node joins `g`'s
    /// wait-set, so a later reset/set/incrementing loop orders after this
    /// read (the discipline of [`Global::reduce_async`]), and `r`'s fence.
    fn schedule_read<T: Reducible>(
        &self,
        r: usize,
        g: &Global<T>,
        extra: Vec<SharedFuture<()>>,
        body: impl FnOnce(Vec<T>) + Send + 'static,
    ) -> SharedFuture<()> {
        let hooks = self.comm.hooks(r);
        let mut deps = g.pending_snapshot();
        deps.extend(extra);
        let read = g.clone();
        let node = schedule_after(hooks.runtime(), &deps, move || body(read.value_snapshot()));
        g.record_completion(&node);
        hooks.track(node.clone());
        node
    }
}

/// Combines per-rank partials pairwise up a binary tree whose shape is
/// fixed by rank index (slot `i` joins `i ^ 1`, an unpaired trailing slot
/// passes through), so the allreduce's floating-point result depends only
/// on the rank count, never on arrival order or the transport.
fn tree_combine<T: Reducible>(mut level: Vec<Vec<T>>, op: crate::gbl::ReduceOp) -> Vec<T> {
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => {
                    hpx_rt::static_counter!("op2.reduce.combines").fetch_add(1, Ordering::Relaxed);
                    next.push(
                        a.iter()
                            .zip(b)
                            .map(|(&x, y)| T::combine(op, x, y))
                            .collect(),
                    );
                }
                None => next.push(a),
            }
        }
        level = next;
    }
    level.pop().expect("tree_combine of at least one partial")
}

impl std::fmt::Debug for LocalityGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalityGroup")
            .field("nranks", &self.nranks())
            .field("local_ranks", &self.local_ranks())
            .finish()
    }
}

/// Who sends which local rows to whom, and where received rows land — the
/// runtime-level mirror of the partitioner's import/export lists, in each
/// rank's *local* row numbering.
///
/// `export_rows[r][s]` lists the owned local rows rank `r` gathers and
/// sends to rank `s`; `import_range[s][r]` is the contiguous halo row
/// range on rank `s` those values land in, in the same order. Halo rows
/// are contiguous per peer because the shard builders group imports by
/// owner rank. The spec is *global*: every process carries all ranks'
/// rows, which is what lets SPMD processes agree on traffic without
/// negotiation.
#[derive(Debug, Clone, Default)]
pub struct HaloSpec {
    /// Number of ranks.
    pub nranks: usize,
    /// `export_rows[r][s]`: local rows on rank `r` sent to rank `s`.
    pub export_rows: Vec<Vec<Vec<u32>>>,
    /// `import_range[r][s]`: local halo rows on rank `r` fed by rank `s`.
    pub import_range: Vec<Vec<Range<usize>>>,
}

impl HaloSpec {
    /// A spec with no traffic between `nranks` ranks.
    pub fn empty(nranks: usize) -> Self {
        HaloSpec {
            nranks,
            export_rows: vec![vec![Vec::new(); nranks]; nranks],
            import_range: vec![vec![0..0; nranks]; nranks],
        }
    }

    /// Checks shape and pairwise symmetry: `export_rows[r][s]` must be as
    /// long as `import_range[s][r]`, and the diagonal must be empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.export_rows.len() != self.nranks || self.import_range.len() != self.nranks {
            return Err("spec shape does not match nranks".into());
        }
        for r in 0..self.nranks {
            if self.export_rows[r].len() != self.nranks || self.import_range[r].len() != self.nranks
            {
                return Err(format!("rank {r}: spec row shape does not match nranks"));
            }
            if !self.export_rows[r][r].is_empty() || !self.import_range[r][r].is_empty() {
                return Err(format!("rank {r}: non-empty self exchange"));
            }
            for s in 0..self.nranks {
                let sent = self.export_rows[r][s].len();
                let landed = self.import_range[s][r].len();
                if sent != landed {
                    return Err(format!(
                        "ranks {r}->{s}: {sent} rows exported but {landed} halo rows imported"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The move feeding rank `dst`'s halo rows from rank `src`.
    fn row_move(&self, src: usize, dst: usize) -> RowMove<'_> {
        let landing = Landing::Halo(self.import_range[dst][src].clone());
        (src, dst, &self.export_rows[src][dst], landing)
    }
}

/// Schedules one asynchronous halo refresh of `dats` (one per *locally
/// hosted* rank, all shards of the same logical dat) according to `spec`,
/// returning the receive-completion futures: `result[i][s]` completes when
/// local rank `local_ranks().start + i`'s halo rows from global rank `s`
/// are in place (already-ready for pairs with no traffic).
///
/// Nothing blocks: every nonempty pair with an end hosted here goes to
/// `move_rows`. Values travel through the group's [`Transport`]; only the
/// locally hosted halves are scheduled here, matched with the peer's
/// halves by sequence number (every process must call `exchange` at the
/// same program point — SPMD).
pub fn exchange<T: OpType>(
    group: &LocalityGroup,
    dats: &[Dat<T>],
    spec: &HaloSpec,
) -> Vec<Vec<SharedFuture<()>>> {
    let n = spec.nranks;
    assert_eq!(group.nranks(), n, "spec rank count matches the group");
    let local = group.local_ranks();
    assert_eq!(dats.len(), local.len(), "one dat shard per local rank");
    let moves: Vec<RowMove<'_>> = (0..n)
        .flat_map(|src| (0..n).map(move |dst| (src, dst)))
        .filter(|&(src, dst)| {
            src != dst
                && !spec.export_rows[src][dst].is_empty()
                && (local.contains(&src) || local.contains(&dst))
        })
        .map(|(src, dst)| spec.row_move(src, dst))
        .collect();
    let shard = |r: usize| dats[r - local.start].clone();
    let halves = move_rows(group.comm(), shard, shard, &moves);
    let mut recvs: Vec<Vec<SharedFuture<()>>> = (0..local.len())
        .map(|_| vec![hpx_rt::ready(()); n])
        .collect();
    for (&(src, dst, ..), (_, recv)) in moves.iter().zip(halves) {
        if let Some(recv) = recv {
            recvs[dst - local.start][src] = recv;
        }
    }
    recvs
}

/// Where a row move lands on its destination rank's target shard. The
/// landing fixes the message kind, the receive's footprint and its scatter.
#[derive(Debug, Clone)]
pub(crate) enum Landing {
    /// Contiguous halo mirror rows, fed by a [`MsgKind::Halo`] message.
    Halo(Range<usize>),
    /// Owned rows of a new shard, in any order, fed by a
    /// [`MsgKind::Migrate`] message.
    Rows(Arc<[u32]>),
}

impl Landing {
    fn len(&self) -> usize {
        match self {
            Landing::Halo(range) => range.len(),
            Landing::Rows(rows) => rows.len(),
        }
    }

    fn kind(&self) -> MsgKind {
        match self {
            Landing::Halo(_) => MsgKind::Halo,
            Landing::Rows(_) => MsgKind::Migrate,
        }
    }
}

/// One row move between ranks: `(src, dst, rows of src's source shard,
/// where they land on dst's target shard)`, rows and landing in one order.
pub(crate) type RowMove<'a> = (usize, usize, &'a [u32], Landing);

/// The completion futures of one move's send and receive halves, each
/// present when its end is hosted here.
pub(crate) type MoveHalves = (Option<SharedFuture<()>>, Option<SharedFuture<()>>);

/// The one row mover: schedules `moves` — each with at least one end among
/// `comm`'s local ranks — from the `source` shards into the `target`
/// shards, and returns per move the send half's completion future (local
/// `src`) and the receive half's (local `dst`). Each move is one message
/// opened with `Comm::open`, so a move whose ends share a process,
/// `src == dst` included, crosses the transport too. All sends
/// share one dependency generation and all receives another, like the
/// records one loop leaves: two peers' landings may share a dependency
/// block, and a record of a distinct generation covering it would
/// supersede the sibling's (a lost dependency).
///
/// **Every send half is scheduled before any receive half.** A receive
/// registers as a *writer* of its landing blocks; when a dat's halo rows
/// share a dependency block with its exported owned rows (small shards), a
/// send gather scheduled after a receive would wait on it — and with two
/// SPMD schedulers doing this symmetrically, each rank's send waits its
/// own receive while each receive waits the peer's send: deadlock.
/// Sends-first gives exchange nodes a rank-agnostic topological level
/// (sends below receives within one event), keeping the cross-rank wait
/// graph acyclic.
///
/// The receive node is gated on the transport [`Delivery`] and *takes* the
/// payload non-blockingly. This keeps every node *reactive*: a task that
/// blocked mid-body on a receive would pin its stack frame while
/// help-first execution nests other tasks above it, and a nested task
/// whose sender transitively waits on the pinned node completing
/// deadlocks the pool (observed with ≥ 3 ranks exchanging through one
/// worker group).
pub(crate) fn move_rows<T: OpType>(
    comm: &Comm,
    source: impl Fn(usize) -> Dat<T>,
    target: impl Fn(usize) -> Dat<T>,
    moves: &[RowMove<'_>],
) -> Vec<MoveHalves> {
    let send_gen = next_loop_gen();
    let recv_gen = next_loop_gen();
    let opened: Vec<_> = moves
        .iter()
        .map(|&(src, dst, rows, ref landing)| {
            assert_eq!(
                rows.len(),
                landing.len(),
                "move {src}->{dst}: source rows and landing differ in length"
            );
            let (guard, delivery) = comm.open(landing.kind(), src, dst);
            let send = guard.map(|guard| {
                let hooks = comm.hooks(src);
                schedule_send_half(src, dst, hooks, &source(src), rows, send_gen, guard)
            });
            (send, delivery)
        })
        .collect();
    moves
        .iter()
        .zip(opened)
        .map(|((src, dst, _, landing), (send, delivery))| {
            let recv = delivery.map(|d| {
                let hooks = comm.hooks(*dst);
                schedule_recv_half(*src, *dst, hooks, &target(*dst), landing, recv_gen, d)
            });
            (send, recv)
        })
        .collect()
}

/// The send half of one move on the locally hosted `src`: a gather node
/// after the source rows' pending writers, handing the canonical row-major
/// payload to the transport under `guard` (a skipped or panicking node
/// abandons the move so the receiver never hangs).
fn schedule_send_half<T: OpType>(
    src: usize,
    dst: usize,
    src_hooks: &CommHooks,
    dat_src: &Dat<T>,
    rows: &[u32],
    send_gen: u64,
    guard: SendGuard,
) -> SharedFuture<()> {
    assert!(
        rows.iter().all(|&r| (r as usize) < dat_src.set().size()),
        "move {src}->{dst}: source rows must be owned rows of dat '{}' \
         (halo mirror rows hold possibly-stale copies and are never authoritative)",
        dat_src.name()
    );
    let footprint = Footprint::row_list(rows, dat_src.deps().block_size());
    let mut deps: Vec<SharedFuture<()>> = Vec::new();
    dat_src.deps().collect_for(&footprint, false, &mut deps);
    let gather_rows: Arc<[u32]> = Arc::from(rows);
    let gather_dat = dat_src.clone();
    let send_done = schedule_after(src_hooks.runtime(), &deps, move || {
        let dim = gather_dat.dim();
        let mut vals = Vec::with_capacity(gather_rows.len() * dim);
        for &row in gather_rows.iter() {
            // SAFETY: this node was scheduled after every pending
            // writer of the gathered blocks and is registered as a
            // reader, so the rows are stable while it runs.
            unsafe {
                gather_dat.append_row_to(row as usize, &mut vals);
            }
        }
        guard.send(encode_scalars(&vals));
    });
    dat_src
        .deps()
        .record_node(footprint, false, send_gen, &send_done);
    src_hooks.track(send_done.clone());
    send_done
}

/// The receive half of one move on the locally hosted `dst`: a scatter
/// node gated on the transport [`Delivery`] (plus the landing rows'
/// pending readers/writers), registered as the landing blocks' writer. An
/// abandoned move degrades to a diagnostic no-op: the sender's original
/// failure reaches its fence.
fn schedule_recv_half<T: OpType>(
    src: usize,
    dst: usize,
    dst_hooks: &CommHooks,
    dat_dst: &Dat<T>,
    landing: &Landing,
    recv_gen: u64,
    delivery: Delivery,
) -> SharedFuture<()> {
    dat_dst.assert_writable("a row-move landing");
    let (owned, bs) = (dat_dst.set().size(), dat_dst.deps().block_size());
    let (fits, region, footprint) = match landing {
        Landing::Halo(range) => (
            range.start >= owned && range.end <= dat_dst.total_rows(),
            "halo region",
            Footprint::rows(range, bs),
        ),
        Landing::Rows(rows) => (
            rows.iter().all(|&r| (r as usize) < owned),
            "owned rows",
            Footprint::row_list(rows, bs),
        ),
    };
    assert!(
        fits,
        "move {src}->{dst}: landing outside the {region} of dat '{}'",
        dat_dst.name()
    );
    let mut deps: Vec<SharedFuture<()>> = Vec::new();
    dat_dst.deps().collect_for(&footprint, true, &mut deps);
    deps.push(delivery.ready().clone());
    let scatter_dat = dat_dst.clone();
    let landing = landing.clone();
    let recv_done = schedule_after(dst_hooks.runtime(), &deps, move || {
        let Some(bytes) = delivery.take() else {
            // The sender abandoned the move (its gather was skipped by an
            // upstream panic, or the peer died). Leave the landing rows as
            // they are and let the *original* failure propagate through
            // the sender's fence — panicking here would bury it under a
            // secondary error.
            hpx_rt::static_counter!("op2.transport.recvs_abandoned")
                .fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "op2-transport: {:?} move {src}->{dst} abandoned by the sender; \
                 {} landing rows of '{}' left as they were",
                landing.kind(),
                landing.len(),
                scatter_dat.name()
            );
            return;
        };
        let vals: Vec<T> = decode_scalars(&bytes);
        assert_eq!(
            vals.len(),
            landing.len() * scatter_dat.dim(),
            "row payload size"
        );
        // SAFETY: scheduled after every pending reader and writer of the
        // landing blocks, and registered as their writer, so this node has
        // exclusive access to the rows.
        unsafe { scatter_dat.land_rows(&landing, &vals) };
    });
    dat_dst
        .deps()
        .record_node(footprint, true, recv_gen, &recv_done);
    dst_hooks.track(recv_done.clone());
    recv_done
}

// ---------------------------------------------------------------------------
// Implicit communication: dirty-bit halo rings
// ---------------------------------------------------------------------------

/// Counters of one halo ring's implicit-communication activity (see
/// [`implicit_halo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HaloStats {
    /// (src → dst) pair exchanges actually scheduled (a process counts the
    /// pairs it scheduled at least one half of).
    pub pair_exchanges: u64,
    /// Indirect reads of a linked shard (one per loop argument) that
    /// checked the rank's imports and its exports to other processes for
    /// stale pairs.
    pub refresh_calls: u64,
    /// Per-pair checks that found the import clean and scheduled nothing —
    /// the exchanges a manual schedule would have issued redundantly.
    pub skipped_clean: u64,
}

/// The shared state tying the per-rank shards of one logical dat together
/// for implicit communication: halo spec, per-pair dirty bits and the
/// group's [`Comm`] (see the module-level dirty-bit protocol). Created by
/// [`LocalityGroup::link_halo`]; not user-visible beyond [`HaloStats`].
pub(crate) struct HaloRing<T> {
    spec: HaloSpec,
    /// Weak so ring ↔ dat references cannot leak the payloads; a shard
    /// must outlive the ring's use, which the owning program guarantees by
    /// holding the `Dat` handles it loops over. Indexed by local rank.
    shards: Vec<std::sync::Weak<crate::dat::DatInner<T>>>,
    comm: Arc<Comm>,
    /// `dirty[dst * nranks + src]`: rank `dst`'s import from `src` is
    /// stale.
    dirty: Mutex<Vec<bool>>,
    pair_exchanges: AtomicU64,
    refresh_calls: AtomicU64,
    skipped_clean: AtomicU64,
}

impl<T: OpType> HaloRing<T> {
    fn shard(&self, rank: usize) -> Dat<T> {
        self.shards[rank - self.comm.local_ranks().start]
            .upgrade()
            .map(Dat::from_inner)
            .unwrap_or_else(|| {
                panic!("halo ring: rank {rank}'s dat shard was dropped while the ring is in use")
            })
    }

    /// A mutating loop argument on a shard: every exporting pair is now
    /// stale. Every rank runs this same mutating loop on its own shard,
    /// and a remote mutation is mirrored, not observed.
    pub(crate) fn mark_all_dirty(&self) {
        let n = self.spec.nranks;
        let mut dirty = self.dirty.lock();
        for src in 0..n {
            for dst in 0..n {
                if !self.spec.export_rows[src][dst].is_empty() {
                    dirty[dst * n + src] = true;
                }
            }
        }
    }

    /// An indirect reading loop argument on rank `dst`'s shard: schedule
    /// the exchange of every stale import of `dst` and of every stale
    /// export of `dst` to an importer hosted in another process (whose own
    /// read, at the same program point, posts the receive), then clear
    /// those bits. The pairs of one refresh are scheduled together,
    /// exactly like one [`exchange`] call.
    pub(crate) fn refresh_for_read(&self, dst: usize) {
        self.refresh_calls.fetch_add(1, Ordering::Relaxed);
        let n = self.spec.nranks;
        let local = self.comm.local_ranks();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut dirty = self.dirty.lock();
        for src in 0..n {
            if src == dst || self.spec.import_range[dst][src].is_empty() {
                continue;
            }
            if dirty[dst * n + src] {
                pairs.push((src, dst));
            } else {
                self.skipped_clean.fetch_add(1, Ordering::Relaxed);
                hpx_rt::static_counter!("op2.halo.refresh_skipped").fetch_add(1, Ordering::Relaxed);
            }
        }
        for imp in (0..n).filter(|imp| !local.contains(imp)) {
            if !self.spec.export_rows[dst][imp].is_empty() && dirty[imp * n + dst] {
                pairs.push((dst, imp));
            }
        }
        if pairs.is_empty() {
            return;
        }
        for &(src, to) in &pairs {
            dirty[to * n + src] = false;
        }
        self.pair_exchanges
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        hpx_rt::static_counter!("op2.halo.pairs_fired")
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        // The receives are not waited on here: each is registered as a
        // writer of its halo blocks, so the submitting loop's boundary
        // blocks (and any rank fence) chain behind it.
        let moves: Vec<RowMove<'_>> = pairs
            .iter()
            .map(|&(src, to)| self.spec.row_move(src, to))
            .collect();
        let shard = |r| self.shard(r);
        move_rows(&self.comm, shard, shard, &moves);
    }

    fn stats(&self) -> HaloStats {
        HaloStats {
            pair_exchanges: self.pair_exchanges.load(Ordering::Relaxed),
            refresh_calls: self.refresh_calls.load(Ordering::Relaxed),
            skipped_clean: self.skipped_clean.load(Ordering::Relaxed),
        }
    }
}

/// The implicit-communication counters of the ring `dat` belongs to
/// (`None` for unlinked dats). Every shard of a ring reports the same,
/// ring-wide numbers.
pub fn implicit_halo_stats<T: OpType>(dat: &Dat<T>) -> Option<HaloStats> {
    dat.halo_ring().map(|(_, ring)| ring.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arg::{arg_read_via, arg_write};
    use crate::transport::ProcessTransport;

    fn two_rank_spec(halo: usize, owned: usize) -> HaloSpec {
        let mut spec = HaloSpec::empty(2);
        spec.export_rows[1][0] = (0..halo as u32).collect();
        spec.import_range[0][1] = owned..owned + halo;
        spec
    }

    #[test]
    fn values_cross_ranks() {
        let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
        let c0 = group.rank(0).decl_set(8, "cells");
        let c1 = group.rank(1).decl_set(4, "cells");
        let q0 = group
            .rank(0)
            .decl_dat_halo(&c0, 2, "q", vec![0.0f64; 24], 4);
        let q1 = group
            .rank(1)
            .decl_dat(&c1, 2, "q", (0..8).map(|i| i as f64).collect::<Vec<_>>());
        let spec = two_rank_spec(4, 8);
        spec.validate().unwrap();
        let recvs = exchange(&group, &[q0.clone(), q1], &spec);
        recvs[0][1].wait();
        assert!(recvs[0][0].is_ready(), "no-traffic pairs are ready");
        let snap = q0.snapshot();
        assert_eq!(
            &snap[16..24],
            &(0..8).map(|i| i as f64).collect::<Vec<_>>()[..]
        );
        assert!(snap[..16].iter().all(|&v| v == 0.0), "owned rows untouched");
    }

    #[test]
    fn exchange_waits_for_pending_writer_of_exported_rows() {
        let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
        let c0 = group.rank(0).decl_set(4, "cells");
        let c1 = group.rank(1).decl_set(4, "cells");
        let q0 = group.rank(0).decl_dat_halo(&c0, 1, "q", vec![0.0f64; 8], 4);
        let q1 = group.rank(1).decl_dat(&c1, 1, "q", vec![0.0f64; 4]);
        // The writer is still pending when the exchange is scheduled.
        group
            .rank(1)
            .loop_("w", &c1)
            .arg(arg_write(&q1))
            .run(|q: &mut [f64]| {
                q[0] = 9.0;
            });
        let spec = two_rank_spec(4, 4);
        let recvs = exchange(&group, &[q0.clone(), q1], &spec);
        recvs[0][1].wait();
        assert_eq!(&q0.snapshot()[4..8], &[9.0; 4]);
    }

    #[test]
    fn consumer_loop_after_exchange_reads_fresh_halo() {
        let group = LocalityGroup::new(Op2Config::dataflow(2).with_block_size(2), 2);
        let c0 = group.rank(0).decl_set(4, "cells");
        let c1 = group.rank(1).decl_set(2, "cells");
        let q0 = group.rank(0).decl_dat_halo(&c0, 1, "q", vec![1.0f64; 6], 2);
        let q1 = group.rank(1).decl_dat(&c1, 1, "q", vec![5.0f64, 6.0]);
        let spec = two_rank_spec(2, 4);
        exchange(&group, &[q0.clone(), q1], &spec);
        // Gather through a map that reaches the halo rows.
        let edges = group.rank(0).decl_set(6, "edges");
        let m = group
            .rank(0)
            .decl_map_halo(&edges, &c0, 1, (0..6).collect::<Vec<_>>(), "ident", 2);
        let out = group.rank(0).decl_dat(&edges, 1, "out", vec![0.0f64; 6]);
        let h = group
            .rank(0)
            .loop_("gather", &edges)
            .arg(arg_read_via(&q0, &m, 0))
            .arg(arg_write(&out))
            .run(|q: &[f64], o: &mut [f64]| o[0] = q[0]);
        h.wait();
        assert_eq!(out.snapshot(), vec![1.0, 1.0, 1.0, 1.0, 5.0, 6.0]);
    }

    #[test]
    fn spec_validation_catches_asymmetry() {
        let mut spec = HaloSpec::empty(2);
        spec.export_rows[1][0] = vec![0, 1];
        spec.import_range[0][1] = 4..5; // one row short
        assert!(spec.validate().is_err());
        spec.import_range[0][1] = 4..6;
        assert!(spec.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "outside the halo region")]
    fn import_range_must_lie_in_the_halo() {
        let group = LocalityGroup::new(Op2Config::dataflow(1), 2);
        let c0 = group.rank(0).decl_set(4, "cells");
        let c1 = group.rank(1).decl_set(4, "cells");
        let q0 = group.rank(0).decl_dat_halo(&c0, 1, "q", vec![0.0f64; 8], 4);
        let q1 = group.rank(1).decl_dat(&c1, 1, "q", vec![0.0f64; 4]);
        let mut spec = HaloSpec::empty(2);
        spec.export_rows[1][0] = vec![0];
        spec.import_range[0][1] = 1..2; // owned region, not halo
        let _ = exchange(&group, &[q0, q1], &spec);
    }

    #[test]
    fn exchange_over_sockets_matches_in_process() {
        // The same two-rank exchange as `values_cross_ranks`, but each
        // rank in its own LocalityGroup over a ProcessTransport — real
        // wire bytes, same result.
        let dir = std::env::temp_dir().join(format!("op2-loc-sock-{}", std::process::id()));
        let spec = two_rank_spec(4, 8);
        std::thread::scope(|s| {
            let h0 = s.spawn({
                let dir = dir.clone();
                let spec = spec.clone();
                move || {
                    let t: Arc<dyn Transport> =
                        Arc::new(ProcessTransport::connect_unix(&dir, 0, 2).unwrap());
                    let group = LocalityGroup::with_transport(Op2Config::dataflow(2), t);
                    let c0 = group.rank(0).decl_set(8, "cells");
                    let q0 = group
                        .rank(0)
                        .decl_dat_halo(&c0, 2, "q", vec![0.0f64; 24], 4);
                    let recvs = exchange(&group, std::slice::from_ref(&q0), &spec);
                    recvs[0][1].wait();
                    group.fence();
                    // Both ranks meet at the barrier; the fence after it
                    // panics if the barrier's allreduce failed.
                    group.barrier();
                    group.fence();
                    q0.snapshot()
                }
            });
            s.spawn({
                let dir = dir.clone();
                let spec = spec.clone();
                move || {
                    let t: Arc<dyn Transport> =
                        Arc::new(ProcessTransport::connect_unix(&dir, 1, 2).unwrap());
                    let group = LocalityGroup::with_transport(Op2Config::dataflow(2), t);
                    let c1 = group.rank(1).decl_set(4, "cells");
                    let q1 = group.rank(1).decl_dat(
                        &c1,
                        2,
                        "q",
                        (0..8).map(|i| i as f64).collect::<Vec<_>>(),
                    );
                    let recvs = exchange(&group, &[q1], &spec);
                    assert!(
                        recvs[0].iter().all(|f| f.is_ready()),
                        "rank 1 imports nothing"
                    );
                    group.fence();
                    group.barrier();
                    group.fence();
                }
            });
            let snap = h0.join().unwrap();
            assert_eq!(
                &snap[16..24],
                &(0..8).map(|i| i as f64).collect::<Vec<_>>()[..]
            );
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
