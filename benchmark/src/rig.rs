//! The rig: set-up, interleaved operations, verification and failure
//! accounting. Closed loop, one client, one process: the next operation
//! starts when the previous one has returned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use airfoil_cfd::verify::max_scaled_diff;

use crate::envinfo;
use crate::json::Json;
use crate::report::{self, Report, Samples, END_TO_END};
use crate::stats::{lower_decile, median};
use crate::trace::Tracer;
use crate::workload::{generate, make_slot, Config, Inputs, Outcome, Rng, Slot, Workload};

/// What an operation is for; also its span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One iteration on the freshly declared instance: plan colouring and
    /// spec construction happen here.
    FirstIter,
    /// Fills the caches and calibrates granularity feedback.
    WarmUp,
    /// A timed repetition.
    Rep,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::FirstIter => "first_iter",
            Phase::WarmUp => "warmup",
            Phase::Rep => "rep",
        }
    }
}

/// Failure messages kept for the report; the count is always exact.
const MAX_MESSAGES: usize = 16;

/// One workload set up under all three configurations.
pub struct Rig {
    pub w: &'static Workload,
    pub seed: u64,
    pub inputs: Rc<Inputs>,
    slots: Vec<Box<dyn Slot>>,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Largest residual `seq` has reported: the scale residual differences
    /// are judged against. Near convergence a residual is rounding noise
    /// relative to the state, so a purely relative comparison of two
    /// correct runs fails.
    residual_scale: f64,
    golden_checked: bool,
}

impl Rig {
    /// Generates the inputs, declares the workload under the three
    /// configurations and runs the cold operations: everything `setup_s`
    /// measures.
    pub fn set_up(w: &'static Workload, seed: u64, tracer: &Tracer) -> Rig {
        let inputs = Rc::new(tracer.span("mesh.generate", || generate(w, seed)));
        let slots = Config::ALL
            .iter()
            .map(|&c| {
                tracer.set_config(c.name());
                make_slot(&inputs, c, tracer)
            })
            .collect();
        let mut rig = Rig {
            w,
            seed,
            inputs,
            slots,
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            residual_scale: 0.0,
            golden_checked: false,
        };
        rig.round(Config::ALL, Phase::FirstIter, tracer);
        rig.round(Config::ALL, Phase::WarmUp, tracer);
        rig
    }

    pub fn slot(&self, c: Config) -> &dyn Slot {
        self.slots[c as usize].as_ref()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(what);
        }
    }

    /// One operation under `c`. A panic inside it is a counted failure,
    /// not an aborted run.
    pub fn operate(&mut self, c: Config, phase: Phase, tracer: &Tracer) -> Option<Outcome> {
        let cfg = self.inputs.run_config(
            self.w,
            match phase {
                Phase::FirstIter => Some(1),
                Phase::WarmUp if self.w.warm_iters > 0 => Some(self.w.warm_iters),
                Phase::WarmUp | Phase::Rep => None,
            },
        );
        tracer.set_config(c.name());
        self.attempted += 1;
        let slot = &mut self.slots[c as usize];
        let result = tracer.span(phase.name(), || {
            catch_unwind(AssertUnwindSafe(|| slot.operate(cfg, tracer)))
        });
        match result {
            Ok(outcome) => Some(outcome),
            Err(_) => {
                self.fail(format!("{} {}: operation panicked", c.name(), phase.name()));
                None
            }
        }
    }

    /// Checks one round's outcomes (indexed by `Config`): residuals are
    /// finite, `seq`'s first timed residual matches the golden at seed 1,
    /// and the threaded configurations match `seq` at the same cumulative
    /// iteration. Each operation fails at most once.
    pub fn verify(&mut self, outs: &[Option<Outcome>; 3], phase: Phase) {
        let tol = self.w.tol;
        let Some(seq) = &outs[Config::Seq as usize] else {
            // `seq` already counted as failed; without the reference the
            // others cannot pass.
            for c in [Config::ForkJoin, Config::Dataflow] {
                if outs[c as usize].is_some() {
                    self.fail(format!("{} {}: no seq reference", c.name(), phase.name()));
                }
            }
            return;
        };
        let seq_res = &seq.run.residuals;
        if let Some(why) = self.check_seq(seq, phase) {
            self.fail(format!("seq {}: {why}", phase.name()));
        }
        self.residual_scale = seq_res.iter().copied().fold(self.residual_scale, f64::max);

        for c in [Config::ForkJoin, Config::Dataflow] {
            let Some(o) = &outs[c as usize] else { continue };
            let res = &o.run.residuals;
            let common = res.len().min(seq_res.len());
            let why = if !res.iter().all(|r| r.is_finite()) {
                Some("non-finite residual".to_owned())
            } else if seq.run.converged.is_some() != o.run.converged.is_some() {
                Some("convergence differs from seq".to_owned())
            } else if max_scaled_diff(&res[..common], &seq_res[..common], self.residual_scale) > tol
            {
                Some(format!(
                    "residuals deviate from seq by {:e} of {:e}",
                    max_scaled_diff(&res[..common], &seq_res[..common], self.residual_scale),
                    self.residual_scale
                ))
            } else if o.state.len() != seq.state.len() {
                Some("state length differs from seq".to_owned())
            } else if max_scaled_diff(&o.state, &seq.state, 1.0) > tol {
                Some(format!(
                    "state deviates from seq by {:e}",
                    max_scaled_diff(&o.state, &seq.state, 1.0)
                ))
            } else {
                None
            };
            if let Some(why) = why {
                self.fail(format!("{} {}: {why}", c.name(), phase.name()));
            }
        }
    }

    fn check_seq(&mut self, seq: &Outcome, phase: Phase) -> Option<String> {
        let res = &seq.run.residuals;
        if res.is_empty() || !res.iter().all(|r| r.is_finite()) {
            return Some("non-finite or missing residual".to_owned());
        }
        if phase == Phase::Rep && !self.golden_checked {
            self.golden_checked = true;
            // Where the exit is data-dependent the run's length is not
            // fixed even under `seq` (the residual futures resolve on the
            // world's worker), so the golden is the residual that crossed
            // the tolerance; otherwise the final one.
            let reported = match seq.run.converged {
                Some((_, crossing)) => crossing,
                None => seq.run.final_residual(),
            };
            // Goldens are recorded for seed 1 only (other seeds generate
            // other meshes).
            if self.seed == 1 && max_scaled_diff(&[reported], &[self.w.golden], 0.0) > 1e-12 {
                return Some(format!(
                    "residual {reported:e} is not the golden {:e}",
                    self.w.golden
                ));
            }
        }
        None
    }

    /// One operation per configuration in `order`, then verification.
    /// Returns the wall times in milliseconds, indexed by `Config`.
    pub fn round(&mut self, order: [Config; 3], phase: Phase, tracer: &Tracer) -> [Option<f64>; 3] {
        let mut outs = [None, None, None];
        for c in order {
            outs[c as usize] = self.operate(c, phase, tracer);
        }
        self.verify(&outs, phase);
        outs.map(|o| o.map(|o| o.wall.as_secs_f64() * 1e3))
    }
}

/// The order of configurations within each round: shuffled by seed, so
/// host drift and cache state left by the predecessor hit all three alike.
pub struct RoundOrder(Rng);

impl RoundOrder {
    /// The order stream of set-up `index` of a run at `seed`.
    pub fn new(seed: u64, index: usize) -> RoundOrder {
        RoundOrder(Rng::new(seed, &format!("round-order-{index}")))
    }

    pub fn next(&mut self) -> [Config; 3] {
        let mut order = Config::ALL;
        self.0.shuffle(&mut order);
        order
    }
}

/// Timed rounds made on one set-up at the least, however short
/// `--seconds` is.
pub const MIN_ROUNDS: usize = 2;

/// True while another round fits a measuring window of `seconds`, going
/// by the mean length of the `rounds` made in `elapsed_s` so far.
pub fn another_round(rounds: usize, elapsed_s: f64, seconds: f64) -> bool {
    rounds < MIN_ROUNDS || elapsed_s + elapsed_s / rounds as f64 <= seconds
}

/// What one set-up and its share of the measuring window produced: the
/// unit a worker process runs, so a crash costs one set-up, not the pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupOutcome {
    pub setup_s: f64,
    /// Wall milliseconds of every timed round, indexed by `Config`; `None`
    /// for an operation that failed.
    pub rounds: Vec<[Option<f64>; 3]>,
    /// `VmHWM` of the process that ran the set-up.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    pub inputs: Vec<(String, f64)>,
}

impl SetupOutcome {
    pub fn to_json(&self) -> Json {
        let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::obj([
            ("setup_s", Json::Num(self.setup_s)),
            (
                "rounds",
                Json::Arr(
                    self.rounds
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(|&v| num(v)).collect()))
                        .collect(),
                ),
            ),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "messages",
                Json::Arr(self.messages.iter().map(Json::str).collect()),
            ),
            (
                "inputs",
                Json::obj(self.inputs.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<SetupOutcome, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number"))
        };
        let list = |key: &str| {
            field(key)?
                .as_arr()
                .ok_or_else(|| format!("`{key}` is not a list"))
        };
        let mut rounds = Vec::new();
        for round in list("rounds")? {
            match round.as_arr() {
                Some([a, b, c]) => rounds.push([a.as_f64(), b.as_f64(), c.as_f64()]),
                _ => return Err("a round is three operations".to_owned()),
            }
        }
        Ok(SetupOutcome {
            setup_s: number("setup_s")?,
            rounds,
            peak_rss_mb: number("peak_rss_mb")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            messages: list("messages")?
                .iter()
                .filter_map(|m| m.as_str().map(str::to_owned))
                .collect(),
            inputs: field("inputs")?
                .as_obj()
                .ok_or("`inputs` is not an object")?
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
        })
    }
}

/// Set-up number `index` of a run: sets up, then times interleaved rounds
/// for `seconds`.
pub fn one_setup(w: &'static Workload, seed: u64, index: usize, seconds: f64) -> SetupOutcome {
    let tracer = Tracer::new(false);
    let t0 = Instant::now();
    let mut rig = Rig::set_up(w, seed, &tracer);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut order = RoundOrder::new(seed, index);
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    while another_round(rounds.len(), t0.elapsed().as_secs_f64(), seconds) {
        rounds.push(rig.round(order.next(), Phase::Rep, &tracer));
    }
    SetupOutcome {
        setup_s,
        rounds,
        peak_rss_mb: envinfo::peak_rss_mb(),
        attempted: rig.attempted,
        failed: rig.failed,
        messages: std::mem::take(&mut rig.messages),
        inputs: rig.inputs.describe(),
    }
}

/// The end-to-end metrics of a run, from its pooled set-ups.
///
/// A run makes `w.setups` independent set-ups and times interleaved
/// rounds on each for its share of the window; the samples are pooled.
/// Dataflow's speed depends on the node granularities its feedback
/// settled on while warming up, which differ from one set-up to the next;
/// pooling set-ups keeps one calibration from deciding a run's numbers.
///
/// What the times report is decided by this host's noise (README,
/// "Noise"): it alternates, for seconds at a time, between a fast mode
/// and one about 1.7x slower, and the slow share of a run is anywhere
/// from none to well over half.
///
/// * `solve_ms_seq` is the **lower decile** of the `seq` operations: the
///   noise only ever adds time, so the lower decile of many short
///   operations stays inside the fast mode where a median flips between
///   the two.
/// * `setup_s` is the lower decile of the set-ups (of so few, the
///   fastest), for the same reason and one more: dataflow's cold first iteration re-plans (re-colours)
///   a timing-dependent number of times, a second each on
///   `airfoil_large`, so the same mesh sets up in 1.4 s or in 17 — time
///   that is only ever added to a floor. Work moved into set-up raises
///   the floor and shows.
/// * `solve_ms_forkjoin` and `solve_ms_dataflow` are `solve_ms_seq` times
///   the **median ratio** of the configuration's operation to the `seq`
///   operation *of the same round*. The three operations of a round run
///   within a fraction of a second of each other, so the host's mode
///   cancels in the ratio; and the threaded configurations have a faster
///   mode of their own (one fork-join operation in five to ten is 1.4x
///   faster), which rules a low quantile out for them. Over ten runs this
///   estimate spread 2-13% where the plain median spread 7-25%.
///
/// The samples, their median, quartiles and lower decile are all filed.
pub fn pool(w: &'static Workload, seed: u64, setups: &[SetupOutcome]) -> Report {
    let mut samples = Samples::default();
    let mut ratios = Samples::default();
    for setup in setups {
        samples.push("setup_s", setup.setup_s);
        // One per worker process; their median is reported, because how
        // much a set-up allocates depends on how often it re-planned, and
        // one in five on `airfoil_large` peaks a third above the rest.
        samples.push("peak_rss_mb", setup.peak_rss_mb);
        for walls in &setup.rounds {
            for c in Config::ALL {
                if let Some(ms) = walls[c as usize] {
                    samples.push(format!("solve_ms_{}", c.name()), ms);
                    if let Some(seq_ms) = walls[Config::Seq as usize] {
                        ratios.push(c.name(), ms / seq_ms);
                    }
                }
            }
        }
    }

    let mut rows = report::rows(END_TO_END.iter().map(|m| (m.name, m.unit)), &samples);
    let mut report_as = |name: &str, value: f64| {
        let row = rows.iter_mut().find(|r| r.name == name);
        row.expect("an end-to-end metric").value = value;
    };
    report_as("setup_s", lower_decile(samples.get("setup_s")));
    let ratio = |c: Config| median(ratios.get(c.name()));
    let seq_ms = lower_decile(samples.get("solve_ms_seq"));
    for c in Config::ALL {
        report_as(&format!("solve_ms_{}", c.name()), seq_ms * ratio(c));
    }

    // The paper's Fig 15/16 numbers, from the same per-round ratios.
    let mut derived = Samples::default();
    derived.push(
        "derived.speedup_dataflow_vs_seq",
        1.0 / ratio(Config::Dataflow),
    );
    derived.push(
        "derived.speedup_dataflow_vs_forkjoin",
        ratio(Config::ForkJoin) / ratio(Config::Dataflow),
    );
    let derived = report::rows(
        [
            ("derived.speedup_dataflow_vs_seq", "ratio"),
            ("derived.speedup_dataflow_vs_forkjoin", "ratio"),
        ],
        &derived,
    );

    Report {
        workload: w.name,
        seed,
        traced: false,
        inputs: setups.last().map_or_else(Vec::new, |s| s.inputs.clone()),
        attempted: setups.iter().map(|s| s.attempted).sum(),
        failed: setups.iter().map(|s| s.failed).sum(),
        messages: setups.iter().flat_map(|s| s.messages.clone()).collect(),
        rows,
        derived,
        spans: None,
    }
}

/// The untraced pass in one process (the supervisor in `main` runs each
/// set-up in a process of its own instead).
#[cfg(test)]
pub fn untraced_pass(w: &'static Workload, seed: u64, seconds: f64) -> Report {
    let share = seconds / w.setups as f64;
    let setups: Vec<SetupOutcome> = (0..w.setups)
        .map(|k| one_setup(w, seed, k, share))
        .collect();
    pool(w, seed, &setups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_outcome_round_trips_through_json() {
        let outcome = SetupOutcome {
            setup_s: 0.8127,
            rounds: vec![
                [Some(1.5), Some(2.25), None],
                [Some(1.0), Some(2.0), Some(3.0)],
            ],
            peak_rss_mb: 8.25,
            attempted: 12,
            failed: 1,
            messages: vec!["dataflow rep: operation panicked".to_owned()],
            inputs: vec![("cells".to_owned(), 4002.0)],
        };
        let text = outcome.to_json().write();
        let back = SetupOutcome::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, outcome);
        assert!(SetupOutcome::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn pooled_solve_times_are_seq_decile_times_median_ratio() {
        // seq is 10 ms with one slow outlier; forkjoin is always 2x the
        // round's seq, dataflow 0.5x: the host's slow round cancels.
        let mut rounds: Vec<[Option<f64>; 3]> = (0..19)
            .map(|_| [Some(10.0), Some(20.0), Some(5.0)])
            .collect();
        rounds.push([Some(17.0), Some(34.0), Some(8.5)]);
        let setup = SetupOutcome {
            setup_s: 1.0,
            rounds,
            peak_rss_mb: 5.0,
            attempted: 66,
            failed: 0,
            messages: Vec::new(),
            inputs: Vec::new(),
        };
        let mut outlier = setup.clone();
        outlier.peak_rss_mb = 50.0;
        let report = pool(
            &crate::workload::WORKLOADS[0],
            1,
            &[setup.clone(), outlier, setup],
        );
        let value = |name: &str| report.rows.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(value("setup_s"), 1.0);
        assert_eq!(value("solve_ms_seq"), 10.0);
        assert_eq!(value("solve_ms_forkjoin"), 20.0);
        assert_eq!(value("solve_ms_dataflow"), 5.0);
        assert_eq!(value("peak_rss_mb"), 5.0);
        assert_eq!((report.attempted, report.failed), (198, 0));
    }
}
