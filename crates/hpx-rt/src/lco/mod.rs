//! Local Control Objects (paper §III).
//!
//! "LCOs provide traditional concurrency control mechanisms such as various
//! types of mutexes, semaphores, spinlocks, condition variables and
//! barriers [...] they organize the execution flow, omit global barriers,
//! and enable thread execution to proceed as far as possible without
//! waiting."
//!
//! The future and dataflow LCOs live in [`crate::future`] and
//! [`crate::dataflow`]; this module provides the synchronization-flavoured
//! ones. [`Latch`] is the workhorse: the parallel algorithms count their
//! finished chunks on one, and its `wait` help-executes pool tasks instead
//! of sleeping. [`collect`] is the collective: a reduction tree over N
//! contributors whose combined result is a future — the building block of
//! `op2-core`'s asynchronous cross-rank allreduce.

mod barrier;
mod channel;
mod collect;
mod event;
mod latch;
mod semaphore;
mod spinlock;

pub use barrier::{Barrier, BarrierWaitResult};
pub use channel::{oneshot, OneshotReceiver, OneshotSender, RecvError, SendError};
pub use collect::{collect, Contribution};
pub use event::Event;
pub use latch::Latch;
pub use semaphore::Semaphore;
pub use spinlock::{SpinLock, SpinLockGuard};
