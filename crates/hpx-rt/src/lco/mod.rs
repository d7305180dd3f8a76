//! Local Control Objects (paper §III).
//!
//! "LCOs provide traditional concurrency control mechanisms such as various
//! types of mutexes, semaphores, spinlocks, condition variables and
//! barriers [...] they organize the execution flow, omit global barriers,
//! and enable thread execution to proceed as far as possible without
//! waiting."
//!
//! The future and dataflow LCOs live in `crate::future` and `crate::dep`
//! ([`crate::dataflow`]); this module holds the one other LCO OP2 runs on.
//! [`Latch`]: the chunked loop counts its finished chunks on one, and its
//! `wait` help-executes pool tasks instead of sleeping. A gate that one
//! thread opens for others is a `channel::<()>()`: its [`crate::SharedFuture`]
//! waits through the same `block_until`. (`op2-core`'s cross-rank
//! allreduce is not an LCO here: it is a star of messages over its
//! transport, and a reduction result is a plain [`crate::channel`].)

mod latch;

pub use latch::Latch;
