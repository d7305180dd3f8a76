//! Reduction-tree collective LCO: the many-contributor analogue of a
//! promise/future channel.
//!
//! A [`collect`] call creates `n` single-use [`Contribution`] handles and
//! one [`SharedFuture`] carrying the combined result. Contributions may
//! arrive from any thread in any order; values are folded pairwise up a
//! binary tree whose *shape is fixed by slot index*, so the combination
//! order — and therefore the floating-point rounding — is deterministic
//! regardless of arrival order. Each internal combine runs on the thread
//! that delivered the second child, so sibling subtrees reduce in
//! parallel; the root fulfills the future.
//!
//! This is the LCO the paper's reduction redesign needs (Fig 9: reduction
//! results become futures) lifted to collectives: HPX's distributed
//! `all_reduce` is "an LCO whose result is a future" (Heller et al.,
//! arXiv:2401.03353 §LCOs); here each simulated rank holds one
//! contribution and dependent work chains off the shared result future
//! instead of meeting at a host-side barrier.
//!
//! Dropping a contribution without setting it *breaks* the collective:
//! the result future observes a panic ("broken collective"), mirroring
//! the broken-promise semantics of [`crate::Promise`] — consumers never
//! hang on a contributor that died.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::future::{SharedFuture, SharedOutcome, SharedPanic};

type Combine<T> = Box<dyn Fn(T, T) -> T + Send + Sync>;

struct CollectInner<T> {
    /// Leaf count per level: `sizes[0] = n`, halving (rounded up) to 1.
    sizes: Vec<usize>,
    /// `slots[l][i]`: pending child value of node `i` at level `l + 1` —
    /// the first-arriving child parks its value here; the second combines.
    slots: Vec<Vec<Mutex<Option<T>>>>,
    combine: Combine<T>,
    result: SharedFuture<T>,
    /// Guards against a late contribution racing a broken-collective
    /// fulfillment (first outcome wins, like a shared future).
    fulfilled: AtomicBool,
}

impl<T: Send + Sync + 'static> CollectInner<T> {
    fn fulfill(&self, outcome: SharedOutcome<T>) {
        if !self.fulfilled.swap(true, Ordering::AcqRel) {
            self.result.inner.fulfill(outcome);
        }
    }

    /// Walks `value` up the tree from leaf `slot`, combining with parked
    /// siblings in left-to-right order; the value reaching the root
    /// fulfills the result future.
    fn contribute(&self, slot: usize, value: T) {
        let mut level = 0;
        let mut idx = slot;
        let mut val = value;
        loop {
            if self.sizes[level] == 1 {
                self.fulfill(SharedOutcome::Value(val));
                return;
            }
            let parent = idx / 2;
            if (idx ^ 1) >= self.sizes[level] {
                // Unpaired last node of an odd level: passes through.
                level += 1;
                idx = parent;
                continue;
            }
            let parked = {
                let mut guard = self.slots[level][parent].lock();
                match guard.take() {
                    None => {
                        // First child to arrive parks and stops; the
                        // sibling will pick the value up and combine.
                        *guard = Some(val);
                        return;
                    }
                    Some(other) => other,
                }
            };
            // Second child combines (outside the lock), in fixed
            // left-right order. A panicking combine breaks the collective
            // — consumers observe the panic instead of hanging on a result
            // that can never be produced — and then propagates to the
            // combining thread.
            let combined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if idx & 1 == 0 {
                    (self.combine)(val, parked)
                } else {
                    (self.combine)(parked, val)
                }
            }));
            val = match combined {
                Ok(v) => v,
                Err(p) => {
                    self.fulfill(SharedOutcome::Panic(SharedPanic::from_payload(&p)));
                    std::panic::resume_unwind(p);
                }
            };
            level += 1;
            idx = parent;
        }
    }
}

/// One contributor's single-use handle into a [`collect`] tree.
pub struct Contribution<T: Send + Sync + 'static> {
    inner: Arc<CollectInner<T>>,
    slot: usize,
    spent: bool,
}

impl<T: Send + Sync + 'static> Contribution<T> {
    /// This contribution's leaf index — the position its value takes in
    /// the deterministic combination order.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Delivers this contributor's value; the final delivery fulfills the
    /// collective's result future (combining on the way up the tree).
    pub fn set(mut self, value: T) {
        self.spent = true;
        self.inner.contribute(self.slot, value);
    }
}

impl<T: Send + Sync + 'static> Drop for Contribution<T> {
    fn drop(&mut self) {
        if !self.spent {
            // A contributor died without delivering: break the collective
            // so consumers panic instead of hanging forever.
            let payload: Box<dyn std::any::Any + Send> = Box::new(format!(
                "broken collective: contribution {} dropped without a value",
                self.slot
            ));
            self.inner
                .fulfill(SharedOutcome::Panic(SharedPanic::from_payload(&payload)));
        }
    }
}

impl<T: Send + Sync + 'static> std::fmt::Debug for Contribution<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Contribution")
            .field("slot", &self.slot)
            .field("spent", &self.spent)
            .finish()
    }
}

/// Creates a reduction-tree collective over `n` contributors: returns one
/// [`Contribution`] handle per slot and the [`SharedFuture`] of the
/// combined result (see module docs for ordering and breakage semantics).
///
/// ```
/// let (contribs, total) = hpx_rt::lco::collect(4, |a: u64, b: u64| a + b);
/// for (i, c) in contribs.into_iter().enumerate() {
///     c.set(i as u64 + 1);
/// }
/// assert_eq!(total.get(), 10);
/// ```
pub fn collect<T, F>(n: usize, combine: F) -> (Vec<Contribution<T>>, SharedFuture<T>)
where
    T: Send + Sync + 'static,
    F: Fn(T, T) -> T + Send + Sync + 'static,
{
    assert!(n >= 1, "a collective needs at least one contributor");
    let mut sizes = vec![n];
    while *sizes.last().unwrap() > 1 {
        sizes.push(sizes.last().unwrap().div_ceil(2));
    }
    let slots = sizes[1..]
        .iter()
        .map(|&s| (0..s).map(|_| Mutex::new(None)).collect())
        .collect();
    let inner = Arc::new(CollectInner {
        sizes,
        slots,
        combine: Box::new(combine),
        result: SharedFuture::pending(),
        fulfilled: AtomicBool::new(false),
    });
    let result = inner.result.clone();
    let contribs = (0..n)
        .map(|slot| Contribution {
            inner: Arc::clone(&inner),
            slot,
            spent: false,
        })
        .collect();
    (contribs, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_contributor_passes_through() {
        let (mut c, fut) = collect(1, |a: i32, b: i32| a + b);
        assert!(!fut.is_ready());
        c.pop().unwrap().set(7);
        assert_eq!(fut.get(), 7);
    }

    #[test]
    fn sums_all_contributions() {
        let (contribs, fut) = collect(16, |a: u64, b: u64| a + b);
        for (i, c) in contribs.into_iter().enumerate() {
            c.set(i as u64);
        }
        assert_eq!(fut.get(), (0..16).sum());
    }

    #[test]
    fn combination_order_is_slot_deterministic() {
        // A non-commutative combine exposes the tree shape: it must be the
        // same for every arrival order, including odd widths.
        for n in [2usize, 3, 5, 7, 8] {
            let shape = |order: Vec<usize>| {
                let (mut contribs, fut) = collect(n, |a: String, b: String| format!("({a}+{b})"));
                // Deliver in the permuted order.
                let mut by_slot: Vec<Option<Contribution<String>>> =
                    contribs.drain(..).map(Some).collect();
                for &slot in &order {
                    by_slot[slot].take().unwrap().set(slot.to_string());
                }
                fut.get()
            };
            let forward = shape((0..n).collect());
            let backward = shape((0..n).rev().collect());
            let rotated = shape((0..n).map(|i| (i + n / 2) % n).collect());
            assert_eq!(forward, backward, "n={n}");
            assert_eq!(forward, rotated, "n={n}");
        }
        // Spot-check the exact shape for n = 5.
        let (mut contribs, fut) = collect(5, |a: String, b: String| format!("({a}+{b})"));
        for (i, c) in contribs.drain(..).enumerate() {
            c.set(i.to_string());
        }
        assert_eq!(fut.get(), "(((0+1)+(2+3))+4)");
    }

    #[test]
    fn concurrent_contributions_from_many_threads() {
        for _ in 0..50 {
            let (contribs, fut) = collect(8, |a: u64, b: u64| a + b);
            let threads: Vec<_> = contribs
                .into_iter()
                .enumerate()
                .map(|(i, c)| std::thread::spawn(move || c.set(1u64 << i)))
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(fut.get(), 0xFF);
        }
    }

    #[test]
    #[should_panic(expected = "broken collective")]
    fn dropped_contribution_breaks_the_collective() {
        let (mut contribs, fut) = collect(3, |a: i32, b: i32| a + b);
        contribs.pop().unwrap().set(1);
        drop(contribs); // slots 0 and 1 never deliver
        let _ = fut.get();
    }

    #[test]
    fn late_contribution_after_breakage_is_ignored() {
        let (mut contribs, fut) = collect(2, |a: i32, b: i32| a + b);
        let keep = contribs.pop().unwrap();
        drop(contribs); // breaks the collective
        keep.set(5); // must not panic or double-fulfill
        assert!(fut.is_ready());
        assert!(std::panic::catch_unwind(|| fut.get()).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one contributor")]
    fn zero_contributors_rejected() {
        let _ = collect(0, |a: i32, b: i32| a + b);
    }

    #[test]
    fn panicking_combine_breaks_the_collective_instead_of_hanging() {
        let (contribs, fut) = collect(2, |_a: i32, _b: i32| -> i32 { panic!("combine exploded") });
        let mut it = contribs.into_iter();
        it.next().unwrap().set(1);
        // The second delivery triggers the combine; its panic must both
        // propagate to the combining thread and break the result future.
        let second = it.next().unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| second.set(2)));
        assert!(r.is_err(), "combining thread must observe the panic");
        assert!(fut.is_ready(), "result must be broken, not pending");
        let g = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.get()));
        assert!(g.is_err(), "consumers must panic, not hang");
    }
}
