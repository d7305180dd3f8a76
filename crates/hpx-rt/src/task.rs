//! The unit of work executed by the scheduler.
//!
//! A [`Task`] is a boxed `FnOnce` closure or a dataflow frame whose
//! dependencies are all in (the frame *is* the runnable: firing a node
//! allocates nothing). Closure tasks are normally `'static` (created by
//! [`Runtime::spawn`](crate::Runtime::spawn)); the chunked loop
//! additionally creates *borrowing* tasks through [`Task::new_unchecked`],
//! which is sound because that loop joins on a latch before any
//! borrowed data goes out of scope (the same technique used by
//! structured-concurrency scopes).

use std::sync::Arc;

use crate::dep::Frame;

/// A schedulable unit of work.
pub(crate) enum Task {
    Closure(Box<dyn FnOnce() + Send + 'static>),
    Frame(Arc<dyn Frame>),
}

impl Task {
    /// Creates a task from a `'static` closure.
    pub(crate) fn new<F>(f: F) -> Self
    where
        F: FnOnce() + Send + 'static,
    {
        Task::Closure(Box::new(f))
    }

    /// Creates a task from a closure that borrows data with lifetime `'a`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that the task has finished running (or was
    /// dropped) before any data borrowed by `f` is invalidated. The chunked
    /// loop upholds this by blocking on a completion latch that is
    /// counted down even when the closure panics.
    pub(crate) unsafe fn new_unchecked<'a, F>(f: F) -> Self
    where
        F: FnOnce() + Send + 'a,
    {
        let boxed: Box<dyn FnOnce() + Send + 'a> = Box::new(f);
        // SAFETY: lifetime erasure; contract documented above.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        Task::Closure(boxed)
    }

    /// Consumes and runs the task.
    #[inline]
    pub(crate) fn run(self) {
        match self {
            Task::Closure(f) => f(),
            Task::Frame(frame) => frame.run(),
        }
    }
}
