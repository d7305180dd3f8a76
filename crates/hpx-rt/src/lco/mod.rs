//! Local Control Objects (paper §III).
//!
//! "LCOs provide traditional concurrency control mechanisms such as various
//! types of mutexes, semaphores, spinlocks, condition variables and
//! barriers [...] they organize the execution flow, omit global barriers,
//! and enable thread execution to proceed as far as possible without
//! waiting."
//!
//! The future and dataflow LCOs live in `crate::future` and `crate::dep`
//! ([`crate::dataflow`]); this module holds the two others OP2 runs on.
//! [`Latch`] is the workhorse: the chunked loops count their finished
//! chunks on one, and its `wait` help-executes pool tasks instead of
//! sleeping. [`Event`] is a manual-reset gate. (`op2-core`'s cross-rank
//! allreduce is not an LCO here: it is a star of messages over its
//! transport, and a reduction result is a plain [`crate::channel`].)

mod event;
mod latch;

pub use event::Event;
pub use latch::Latch;
