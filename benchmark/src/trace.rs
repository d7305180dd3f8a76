//! Outside-in spans: recorded here, in the benchmark, around calls into
//! the public functions of each layer. Spans are kept in memory and
//! written out when the run ends; spans inside the program are ROADMAP
//! item 1, a later change.
//!
//! All spans are recorded on the submitting (main) thread, so the spans
//! of one parent never overlap and a span's self time is its duration
//! minus the sum of its children's.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use op2_app::{AppInstance, RebalanceReport, StepOutput};
use op2_core::ResidualMap;

use crate::json::Json;

/// One recorded interval. `parent` is the span that was open when this
/// one started; `config` is the backend configuration it ran under (empty
/// outside any).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub config: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Disabled, [`Tracer::span`] only calls its closure.
pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    config: Cell<&'static str>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span on drop, so a panicking operation still leaves a
/// well-formed trace.
struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: usize,
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        let t = self.tracer;
        t.spans.borrow_mut()[self.id].end_ns = t.now_ns();
        t.open.borrow_mut().pop();
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: Cell::new(enabled),
            config: Cell::new(""),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Labels the spans recorded from now on with `config`.
    pub fn set_config(&self, config: &'static str) {
        self.config.set(config);
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span) and returns its result with the span's id.
    pub fn span_id<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        if !self.enabled() {
            return (f(), None);
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let now = self.now_ns();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                name,
                config: self.config.get(),
                start_ns: now,
                end_ns: now,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let _close = OpenSpan { tracer: self, id };
        (f(), Some(id))
    }

    /// [`Tracer::span_id`] without the id.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_id(name, f).0
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span, indexed by span id: its duration minus the
/// part of it its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered = s.end_ns.min(parent.end_ns) - s.start_ns.max(parent.start_ns);
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

/// The spans as JSON rows `{id, parent, name, workload, config, start_ns,
/// end_ns, self_ns}`.
pub fn spans_json(spans: &[Span], workload: &str) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("workload", Json::str(workload)),
                    ("config", Json::str(s.config)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own[s.id] as f64)),
                ])
            })
            .collect(),
    )
}

/// Decorates an [`AppInstance`] so every `step` and `fence` the harness
/// makes is a span under the enclosing `run` span; what remains of `run`
/// as self time is the harness's own work — the backpressure-window
/// waits and collecting the residual history.
pub struct Timed<'a, I: AppInstance + ?Sized> {
    pub inner: &'a mut I,
    pub tracer: &'a Tracer,
}

impl<I: AppInstance + ?Sized> AppInstance for Timed<'_, I> {
    fn step(&mut self, iter: usize) -> StepOutput {
        let inner = &mut *self.inner;
        self.tracer.span("step", || inner.step(iter))
    }

    fn residual_map(&self) -> ResidualMap {
        self.inner.residual_map()
    }

    fn prints_here(&self) -> bool {
        self.inner.prints_here()
    }

    fn fence(&self) {
        self.tracer.span("fence", || self.inner.fence())
    }

    fn rebalance(&mut self) -> Option<RebalanceReport> {
        self.inner.rebalance()
    }

    fn state(&self) -> Vec<f64> {
        self.inner.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            config: "",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // run [0, 100) with step [10, 30), step [30, 45), fence [80, 100);
        // the first step has a child of its own.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(1), 12, 20),
            span(3, Some(0), 30, 45),
            span(4, Some(0), 80, 100),
        ];
        assert_eq!(self_times_ns(&spans), vec![45, 12, 8, 15, 20]);
    }

    #[test]
    fn tracer_nests_spans_and_survives_a_panic() {
        let t = Tracer::new(true);
        t.set_config("seq");
        let ((), outer) = t.span_id("outer", || {
            t.span("inner", || ());
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.span("boom", || panic!("kernel panicked"))
            }));
            assert!(unwound.is_err());
            t.span("after", || ());
        });
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", outer),
                ("boom", outer),
                ("after", outer)
            ]
        );
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.config == "seq"));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span_id("x", || 7), (7, None));
        t.set_enabled(true);
        t.span("y", || ());
        assert_eq!(t.spans().len(), 1);
    }
}
