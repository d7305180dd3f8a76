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
//! * **one future type**, [`SharedFuture`], fulfilled through a
//!   [`Promise`] ([`channel`]) or by a dataflow node, with panic
//!   propagation (§III-A);
//! * the **`dataflow`** LCO ([`dataflow`]) that delays a function until all
//!   its input futures are ready, with `unwrapped` semantics built in
//!   (§III-B);
//! * **dataflow frames** for fine-grained task graphs: every [`dataflow`]
//!   call, [`schedule_after`] node and [`when_all_shared`] join is one
//!   allocation, with none per edge — [`schedule_after`] is the node
//!   `op2-core`'s block-granular dataflow backend builds;
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
//! use hpx_rt::{channel, dataflow, for_each_chunk, Runtime};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let rt = Runtime::new(4);
//!
//! // Futures + dataflow: an execution graph without global barriers.
//! let (promise, a) = channel();
//! let b = dataflow(&rt, |(a,)| a * 10, (a,));
//! promise.set_value(2 + 2);
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
mod dep;
mod future;
pub mod lco;
mod runtime;
pub mod stats;
mod task;
pub mod timing;

pub use algo::for_each_chunk;
pub use dep::{dataflow, schedule_after, schedule_after_counted, when_all_shared};
pub use future::{channel, ready, Promise, SharedFuture};
pub use runtime::Runtime;
pub use stats::RuntimeStats;
pub use timing::Clock;
