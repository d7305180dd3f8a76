//! The `dataflow` LCO (paper §III-B, Figs 6-7).
//!
//! `dataflow(rt, f, (a, b, c))` encapsulates a function with future and
//! non-future inputs. Futures delay the invocation; plain values (wrapped in
//! [`Val`]) are passed through. As soon as the last input is ready, `f` is
//! scheduled on the runtime with the *unwrapped* values (the paper's
//! `hpx::util::unwrapped` helper is built in) and the call itself returns a
//! future for `f`'s result — so dataflow nodes chain into a dependency graph
//! that the scheduler executes without global barriers.
//!
//! A call is one frame ([`crate::dep`]): it owns the inputs and `f`, every
//! pending input holds an `Arc` of it, the input that arrives last queues
//! that same `Arc` as the task, and the task takes the values out of the
//! inputs where they already are — no slot per input, no joined future,
//! no continuation hop between "all inputs ready" and "run `f`". It is the
//! machinery `op2-core`'s loop nodes run on ([`crate::schedule_after`]),
//! with typed inputs and a typed result.
//!
//! ```
//! use hpx_rt::{dataflow, Runtime, Val};
//! let rt = Runtime::new(2);
//! let a = rt.spawn_future(|| 2);
//! let b = rt.spawn_future(|| 3);
//! let sum = dataflow(&rt, |(a, b, c)| a + b + c, (a, b, Val(10)));
//! assert_eq!(sum.get(), 15);
//! ```

use parking_lot::Mutex;
use std::sync::Arc;

use crate::dep::{dep_ready, Deps, Frame};
use crate::future::{channel, Future, Outcome, Promise, SharedFuture};
use crate::runtime::Runtime;

/// A non-future input to [`dataflow`], passed through unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Val<T>(pub T);

/// The frame an input reports to (opaque outside the crate).
#[doc(hidden)]
#[derive(Clone, Copy)]
pub struct FrameRef<'a>(&'a Arc<dyn Frame>);

/// An input to a dataflow node: something that eventually delivers a value.
pub trait DataflowArg: Send + 'static {
    /// The unwrapped value type.
    type Output: Send + 'static;
    /// Arranges for `frame` to be counted down exactly once, when the value
    /// is there (at once if it already is).
    #[doc(hidden)]
    fn wire(&self, frame: FrameRef<'_>);
    /// The value, after `frame` was counted down for it.
    #[doc(hidden)]
    fn take(self) -> Outcome<Self::Output>;
}

impl<T: Send + 'static> DataflowArg for Future<T> {
    type Output = T;
    fn wire(&self, frame: FrameRef<'_>) {
        self.attach_frame(frame.0);
    }
    fn take(self) -> Outcome<T> {
        self.take_outcome()
    }
}

impl<T: Clone + Send + Sync + 'static> DataflowArg for SharedFuture<T> {
    type Output = T;
    fn wire(&self, frame: FrameRef<'_>) {
        self.attach_frame(frame.0);
    }
    fn take(self) -> Outcome<T> {
        self.clone_outcome()
    }
}

impl<T: Send + 'static> DataflowArg for Val<T> {
    type Output = T;
    fn wire(&self, frame: FrameRef<'_>) {
        frame.0.deps().arrived_early(1, None);
    }
    fn take(self) -> Outcome<T> {
        Ok(self.0)
    }
}

/// The inputs of a dataflow node: a tuple of [`DataflowArg`]s of arity
/// 1..=8, or a `Vec` of them.
pub trait FutureTuple: Send + 'static {
    /// The unwrapped values, in input order.
    type Values: Send + 'static;
    /// Number of inputs.
    #[doc(hidden)]
    fn count(&self) -> usize;
    /// Wires every input to `frame`.
    #[doc(hidden)]
    fn wire(&self, frame: FrameRef<'_>);
    /// The values, once every input counted `frame` down; the first panic
    /// in input order otherwise.
    #[doc(hidden)]
    fn take(self) -> Outcome<Self::Values>;
}

macro_rules! impl_future_tuple {
    ($n:literal; $($A:ident . $idx:tt),+) => {
        impl<$($A: DataflowArg),+> FutureTuple for ($($A,)+) {
            type Values = ($($A::Output,)+);
            fn count(&self) -> usize {
                $n
            }
            fn wire(&self, frame: FrameRef<'_>) {
                $(self.$idx.wire(frame);)+
            }
            fn take(self) -> Outcome<Self::Values> {
                Ok(($(self.$idx.take()?,)+))
            }
        }
    };
}

impl_future_tuple!(1; A0.0);
impl_future_tuple!(2; A0.0, A1.1);
impl_future_tuple!(3; A0.0, A1.1, A2.2);
impl_future_tuple!(4; A0.0, A1.1, A2.2, A3.3);
impl_future_tuple!(5; A0.0, A1.1, A2.2, A3.3, A4.4);
impl_future_tuple!(6; A0.0, A1.1, A2.2, A3.3, A4.4, A5.5);
impl_future_tuple!(7; A0.0, A1.1, A2.2, A3.3, A4.4, A5.5, A6.6);
impl_future_tuple!(8; A0.0, A1.1, A2.2, A3.3, A4.4, A5.5, A6.6, A7.7);

impl<A: DataflowArg> FutureTuple for Vec<A> {
    type Values = Vec<A::Output>;
    fn count(&self) -> usize {
        self.len()
    }
    fn wire(&self, frame: FrameRef<'_>) {
        self.iter().for_each(|arg| arg.wire(frame));
    }
    fn take(self) -> Outcome<Self::Values> {
        self.into_iter().map(A::take).collect()
    }
}

/// The frame of one dataflow call: the inputs, the function and the write
/// end of the result, handed over together once the inputs are wired.
struct Call<Args, F, R> {
    deps: Deps,
    call: Mutex<Option<(Args, F, Promise<R>)>>,
}

impl<Args, F, R> Frame for Call<Args, F, R>
where
    Args: FutureTuple,
    R: Send + 'static,
    F: FnOnce(Args::Values) -> R + Send + 'static,
{
    fn deps(&self) -> &Deps {
        &self.deps
    }

    fn run(self: Arc<Self>) {
        let (args, f, promise) = self.call.lock().take().expect("a frame runs once");
        match args.take() {
            Ok(values) => {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(values)));
                promise.set_outcome(r);
            }
            Err(p) => promise.set_panic(p),
        }
    }
}

fn call<Args, R, F>(rt: Option<&Runtime>, f: F, args: Args) -> Future<R>
where
    Args: FutureTuple,
    R: Send + 'static,
    F: FnOnce(Args::Values) -> R + Send + 'static,
{
    let (promise, future) = channel();
    let call = Arc::new(Call {
        deps: Deps::new(args.count(), rt),
        call: Mutex::new(None),
    });
    let frame: Arc<dyn Frame> = call.clone();
    // Wired before the frame owns them; the registration's hold keeps an
    // input that completes meanwhile from firing a frame with nothing in it.
    args.wire(FrameRef(&frame));
    *call.call.lock() = Some((args, f, promise));
    dep_ready(frame, None);
    future
}

/// Schedules `f` on `rt` once every input future is ready, passing the
/// unwrapped values as a tuple. Returns the result as a future (see module
/// docs). If any input panicked, `f` is skipped and the result re-panics.
pub fn dataflow<Args, R, F>(rt: &Runtime, f: F, args: Args) -> Future<R>
where
    Args: FutureTuple,
    R: Send + 'static,
    F: FnOnce(Args::Values) -> R + Send + 'static,
{
    call(Some(rt), f, args)
}

/// Like [`dataflow`] but runs `f` inline on the thread that satisfies the
/// last dependency (HPX `dataflow(launch::sync, ...)`).
pub fn dataflow_inline<Args, R, F>(f: F, args: Args) -> Future<R>
where
    Args: FutureTuple,
    R: Send + 'static,
    F: FnOnce(Args::Values) -> R + Send + 'static,
{
    call(None, f, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::ready;

    #[test]
    fn mixed_inputs() {
        let rt = Runtime::new(2);
        let a = rt.spawn_future(|| 1u64);
        let b = ready(2u64);
        let c = rt.spawn_future(|| 3u64).share();
        let out = dataflow(&rt, |(a, b, c, d)| a + b + c + d, (a, b, c, Val(4u64)));
        assert_eq!(out.get(), 10);
    }

    #[test]
    fn diamond_graph() {
        // a -> (b, c) -> d : the classic dependency diamond.
        let rt = Runtime::new(2);
        let a = rt.spawn_future(|| 5i64).share();
        let b = dataflow(&rt, |(x,)| x * 2, (a.clone(),));
        let c = dataflow(&rt, |(x,)| x + 100, (a,));
        let d = dataflow(&rt, |(b, c)| b + c, (b, c));
        assert_eq!(d.get(), 115);
    }

    #[test]
    fn chain_of_dataflows() {
        let rt = Runtime::new(2);
        let mut f = ready(0u64);
        for _ in 0..100 {
            f = dataflow(&rt, |(x,)| x + 1, (f,));
        }
        assert_eq!(f.get(), 100);
    }

    #[test]
    #[should_panic(expected = "input died")]
    fn panic_in_input_skips_function() {
        let rt = Runtime::new(2);
        let bad: Future<u32> = rt.spawn_future(|| panic!("input died"));
        let out = dataflow(
            &rt,
            |(_x, _y)| unreachable!("must not run"),
            (bad, Val(1u32)),
        );
        let _: u32 = out.get();
    }

    #[test]
    fn inline_dataflow_runs_without_runtime_hop() {
        let a = ready(20u32);
        let out = dataflow_inline(|(x,)| x + 2, (a,));
        assert_eq!(out.get(), 22);
    }

    #[test]
    fn eight_arity() {
        let rt = Runtime::new(2);
        let out = dataflow(
            &rt,
            |(a, b, c, d, e, f, g, h)| a + b + c + d + e + f + g + h,
            (
                Val(1u32),
                Val(2u32),
                Val(3u32),
                Val(4u32),
                Val(5u32),
                Val(6u32),
                Val(7u32),
                Val(8u32),
            ),
        );
        assert_eq!(out.get(), 36);
    }
}
