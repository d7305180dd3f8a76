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
//!   ([`schedule_after`], [`when_all_shared`]): one allocation per node,
//!   no allocation per edge — the node scheduling behind `op2-core`'s
//!   block-granular dataflow backend, and what [`dataflow`] itself is
//!   built on;
//! * the **chunked `par` loop** ([`for_each_chunk`]) — the fork-join
//!   path `op2-core` compares dataflow against. It runs chunks of the
//!   length its caller passes; choosing that length (§IV-B's chunk
//!   policies) is `op2-core`'s decision, made in one place for both of its
//!   parallel backends;
//! * the LCOs OP2 waits on ([`lco`]): latch and event.
//!
//! The paper's fourth technique, the §V prefetching iterator, is not here:
//! it lost or tied on every workload measured on this reproduction's hosts
//! (see `README.md` § Prefetching).
//!
//! ## Quick start
//!
//! ```
//! use hpx_rt::{dataflow, for_each_chunk, Runtime};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let rt = Runtime::new(4);
//!
//! // Futures + dataflow: an execution graph without global barriers.
//! let a = rt.spawn_future(|| 2 + 2);
//! let b = dataflow(&rt, |(a,)| a * 10, (a,));
//! assert_eq!(b.get(), 40);
//!
//! // A chunked parallel loop: the body gets whole index ranges of 1000.
//! let total = AtomicU64::new(0);
//! for_each_chunk(&rt, 1000, 0..10_000, |r| {
//!     total.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
//! });
//! assert_eq!(total.into_inner(), (0..10_000).sum::<u64>());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod algo;
mod dataflow;
mod dep;
mod future;
pub mod lco;
mod runtime;
pub mod stats;
mod task;
pub mod timing;

pub use algo::for_each_chunk;
pub use dataflow::{dataflow, DataflowArg, FrameRef, FutureTuple, Val};
pub use dep::{schedule_after, schedule_after_counted, when_all_shared};
pub use future::{channel, ready, when_all, BrokenPromise, Future, Promise, SharedFuture};
pub use runtime::Runtime;
pub use stats::RuntimeStats;
pub use timing::Clock;
