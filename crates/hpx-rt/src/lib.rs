//! # hpx-rt — an HPX-style asynchronous task runtime in Rust
//!
//! This crate is the runtime substrate for the reproduction of *"Redesigning
//! OP2 Compiler to Use HPX Runtime Asynchronous Techniques"* (Khatami,
//! Kaiser, Ramanujam; IPDPSW 2017). It re-implements, from scratch, the HPX
//! facilities the paper builds on:
//!
//! * a **work-stealing scheduler** ([`Runtime`]) with help-first blocking —
//!   a thread blocked on a future executes other ready tasks, the stand-in
//!   for HPX's suspendable user-level threads;
//! * **futures** ([`Future`], [`SharedFuture`], [`Promise`], [`when_all`])
//!   with continuation chaining and panic propagation (§III-A);
//! * the **`dataflow`** LCO ([`dataflow`]) that delays a function until all
//!   future inputs are ready, with `unwrapped` semantics built in (§III-B);
//! * **dataflow frames** for fine-grained task graphs
//!   ([`schedule_after`], [`when_all_shared`], [`when_any_shared`]): one
//!   allocation per node, no allocation per edge — the node scheduling
//!   behind `op2-core`'s block-granular dataflow backend, and what
//!   [`dataflow`] itself is built on;
//! * the LCO catalogue ([`lco`]): latch, event, barrier, semaphore,
//!   spinlock, one-shot channel, reduction-tree collective;
//! * **execution policies** of Table I ([`seq`], [`par`], [`par_vec`],
//!   [`seq_task`], [`par_task`]) and **chunk-size control** (§IV-B)
//!   including the paper's new [`PersistentChunker`]
//!   (`persistent_auto_chunk_size`);
//! * chunked **parallel algorithms** ([`for_each`], [`reduce`],
//!   [`transform`], [`inclusive_scan`], …);
//! * the **prefetching iterator** (§V): [`make_prefetcher_context`] +
//!   [`for_each_prefetch`].
//!
//! ## Quick start
//!
//! ```
//! use hpx_rt::{dataflow, par, Runtime};
//!
//! let rt = Runtime::new(4);
//!
//! // Futures + dataflow: an execution graph without global barriers.
//! let a = rt.spawn_future(|| 2 + 2);
//! let b = dataflow(&rt, |(a,)| a * 10, (a,));
//! assert_eq!(b.get(), 40);
//!
//! // A chunked parallel loop.
//! let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
//! let total = hpx_rt::reduce(&rt, &par(), 0..data.len(), 0.0, |i| data[i], |x, y| x + y);
//! assert_eq!(total, (0..10_000).map(|i| i as f64).sum::<f64>());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod algo;
mod chunk;
mod dataflow;
mod dep;
mod future;
pub mod lco;
mod policy;
pub mod prefetch;
mod runtime;
pub mod stats;
mod task;
pub mod timing;

pub use algo::{
    copy, count_if, fill, for_each, for_each_async, for_each_chunk, for_each_chunk_async,
    inclusive_scan, max_element, min_element, reduce, reduce_async, sort, sum, transform,
};
pub use chunk::{
    ChunkPolicy, FeedbackSlot, GranularityFeedback, KernelCost, PersistentChunker,
    DEFAULT_CHUNK_TARGET,
};
pub use dataflow::{dataflow, dataflow_inline, DataflowArg, FrameRef, FutureTuple, Val};
pub use dep::{schedule_after, schedule_after_counted, when_all_shared, when_any_shared};
pub use future::{channel, ready, when_all, BrokenPromise, Future, Promise, SharedFuture};
pub use policy::{par, par_task, par_vec, seq, seq_task, Exec, ExecutionPolicy, Launch};
pub use prefetch::{
    for_each_prefetch, for_each_prefetch_async, make_prefetcher_context, PrefetchContainers,
    PrefetchSet, PrefetcherContext, CACHE_LINE_BYTES,
};
pub use runtime::{on_worker_thread, spawn_on_current, Runtime};
pub use stats::RuntimeStats;
pub use timing::Clock;
