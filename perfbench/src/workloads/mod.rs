//! The three workloads and what they share: command-line arguments,
//! the per-operation record, repeated set-up, and turning a run into
//! end-to-end metrics, failure listings and the result line.

pub mod compiler_apps;
pub mod gen_unique;
pub mod serve_zipf;

use crate::check::Verdict;
use crate::report::{median, peak_rss_mb, percentile, tail_percentile, Metric};
use std::collections::BTreeMap;
use std::time::Instant;

/// Names of the workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["compiler_apps", "gen_unique", "serve_zipf"];

/// Directory (relative to the working directory) the traced run writes
/// its spans to.
pub const SPAN_DIR: &str = ".bench_trace";

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measured seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One measured operation.
#[derive(Clone, Debug)]
pub struct Op {
    /// What was asked (query name, case index, pool entry); operations
    /// with the same key must end the same way.
    pub key: String,
    /// Wall time of the operation.
    pub latency_ms: f64,
    /// The oracle's verdict.
    pub verdict: Verdict,
    /// Failure detail for the listing (formula text, values).
    pub detail: String,
    /// The answer as rendered, compared across repeats of one key.
    pub payload: String,
}

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last result. The
/// first repeat is timed from process start, so `setup_s` covers
/// everything before the measured phase.
pub fn repeated_setup<T>(
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for k in 0..SETUP_REPEATS {
        // Tear the previous set-up down first, untimed, so two never
        // coexist in memory.
        drop(last.take());
        let t = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    println!(
        "set-up: {SETUP_REPEATS} repeats, {:?} s, peak RSS after set-up {:.1} MiB",
        times,
        peak_rss_mb()
    );
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Everything a workload hands back for reporting.
pub struct RunOutput {
    /// Workload name.
    pub workload: &'static str,
    /// Seed of the run.
    pub seed: u64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Wall time of the measured (untraced) phase.
    pub measured_wall_s: f64,
    /// Peak RSS at the end of the measured phase.
    pub peak_rss_mb: f64,
    /// Operations and seconds of each identical round of the measured
    /// phase, when it has such rounds; throughput is then the median
    /// round's.
    pub rounds: Vec<(usize, f64)>,
    /// The measured (untraced) operations, in issue order.
    pub ops: Vec<Op>,
    /// The traced phase's operations (same list, same order).
    pub traced_ops: Vec<Op>,
    /// Faults of the benchmark itself (outcomes that changed between
    /// repeats of one operation, or between traced and untraced runs).
    pub faults: Vec<String>,
    /// Per-layer inputs, in a traced run.
    pub layers: Option<crate::layers::Inputs>,
    /// Keys of operations the program is known to answer wrongly. They
    /// are failed operations like any other; a wrong answer to a key
    /// not listed here makes the run incorrect.
    pub known_wrong: Vec<String>,
}

impl RunOutput {
    /// An empty output for `workload`.
    pub fn new(workload: &'static str, args: &Args, setup_s: f64) -> RunOutput {
        RunOutput {
            workload,
            seed: args.seed,
            setup_s,
            measured_wall_s: 0.0,
            peak_rss_mb: 0.0,
            rounds: Vec::new(),
            ops: Vec::new(),
            traced_ops: Vec::new(),
            faults: Vec::new(),
            layers: None,
            known_wrong: Vec::new(),
        }
    }

    /// Records the end of the measured phase.
    pub fn mark_measured(&mut self, wall_s: f64) {
        self.measured_wall_s = wall_s;
        self.peak_rss_mb = peak_rss_mb();
    }

    /// Compares another run of the same operation list with the
    /// measured one, operation by operation: outcome class and rendered
    /// answer must match.
    pub fn compare_outcomes(&mut self, label: &str, other: &[Op]) {
        if other.len() != self.ops.len() {
            self.faults.push(format!(
                "{label} run made {} operations, measured run {}",
                other.len(),
                self.ops.len()
            ));
        }
        for (k, (a, b)) in self.ops.iter().zip(other).enumerate() {
            if a.key != b.key || a.verdict.class() != b.verdict.class() || a.payload != b.payload {
                self.faults.push(format!(
                    "outcome differs between measured and {label} run at op {k} ({}): {} {:?} vs {} {:?}",
                    a.key,
                    a.verdict.code(),
                    a.payload,
                    b.verdict.code(),
                    b.payload
                ));
            }
        }
    }

    /// Repeats of one key must end the same way.
    fn check_repeats(&mut self) {
        let mut first: BTreeMap<&str, &Op> = BTreeMap::new();
        let mut faults = Vec::new();
        for op in self.ops.iter().chain(&self.traced_ops) {
            match first.get(op.key.as_str()) {
                None => {
                    first.insert(&op.key, op);
                }
                Some(f) => {
                    if f.verdict.class() != op.verdict.class() || f.payload != op.payload {
                        faults.push(format!(
                            "outcome of {} changed between repeats: {} {:?} vs {} {:?}",
                            op.key,
                            f.verdict.code(),
                            f.payload,
                            op.verdict.code(),
                            op.payload
                        ));
                    }
                }
            }
        }
        self.faults.extend(faults);
    }

    /// The end-to-end metrics of the measured phase, printed with their
    /// bases. All eight are printed; the result line carries those
    /// listed in `BENCHMARK.json` (the ones that are never zero).
    fn end_to_end(&self) -> Vec<Metric> {
        let n = self.ops.len();
        let mut lat: Vec<f64> = self.ops.iter().map(|o| o.latency_ms).collect();
        lat.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(n);
        let count = |f: &dyn Fn(Verdict) -> bool| self.ops.iter().filter(|o| f(o.verdict)).count();
        let exact = count(&|v| v == Verdict::Exact);
        let failed = count(&|v| v.failed());
        let wrong = count(&|v| v.disagrees());
        let frac = |k: usize| k as f64 / n.max(1) as f64;
        vec![
            Metric::new("setup_s", self.setup_s, "s"),
            self.throughput(),
            Metric::with_base(
                "latency_p50_ms",
                percentile(&lat, 50.0),
                "ms",
                format!("p50 of {n} samples"),
            ),
            Metric::with_base(
                "latency_tail_ms",
                percentile(&lat, tail_p),
                "ms",
                format!("p{tail_p} of {n} samples"),
            ),
            Metric::with_base("exact_frac", frac(exact), "1", format!("{exact}/{n}")),
            Metric::with_base(
                "ok_frac",
                frac(n - failed),
                "1",
                format!("{}/{n}", n - failed),
            ),
            Metric::with_base("failed_frac", frac(failed), "1", format!("{failed}/{n}")),
            Metric::with_base("wrong_answers", wrong as f64, "count", format!("of {n}")),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }

    fn throughput(&self) -> Metric {
        let n = self.ops.len();
        let total = format!("{n} ops in {:.3} s", self.measured_wall_s);
        if self.rounds.len() < 2 {
            return Metric::with_base(
                "throughput_qps",
                n as f64 / self.measured_wall_s.max(1e-9),
                "1/s",
                total,
            );
        }
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|&(ops, s)| ops as f64 / s.max(1e-9))
            .collect();
        Metric::with_base(
            "throughput_qps",
            median(&per_round),
            "1/s",
            format!("median of {} identical rounds; {total}", per_round.len()),
        )
    }

    /// Prints the report and returns the result line's fields:
    /// `(correct, attempted, failed, metrics)`.
    pub fn finish(mut self, emit: &[&str]) -> (bool, u64, u64, Vec<Metric>) {
        self.check_repeats();
        let header = format!(
            "== {} seed={} ({} ops measured{})",
            self.workload,
            self.seed,
            self.ops.len(),
            if self.traced_ops.is_empty() {
                String::new()
            } else {
                format!(", {} traced", self.traced_ops.len())
            }
        );
        let e2e = self.end_to_end();
        crate::report::print_metrics(&format!("{header}\nend-to-end:"), &e2e);

        // Failures, grouped by key so repeats print once.
        let mut listed: BTreeMap<(&str, Verdict), (usize, &str)> = BTreeMap::new();
        for op in self.ops.iter().chain(&self.traced_ops) {
            if op.verdict.failed() {
                let e = listed
                    .entry((op.key.as_str(), op.verdict))
                    .or_insert((0, op.detail.as_str()));
                e.0 += 1;
            }
        }
        let mut new_wrong = 0;
        for ((key, verdict), (times, detail)) in &listed {
            let known = self.known_wrong.iter().any(|k| k == key);
            if verdict.disagrees() && !known {
                new_wrong += 1;
            }
            println!(
                "FAILED workload={} seed={} case={key} verdict={} times={times} known_defect={known} {detail}",
                self.workload,
                self.seed,
                verdict.code()
            );
        }
        for f in &self.faults {
            println!(
                "BENCHMARK FAULT workload={} seed={}: {f}",
                self.workload, self.seed
            );
        }

        let all: Vec<&Op> = self.ops.iter().chain(&self.traced_ops).collect();
        let attempted = all.len() as u64;
        let failed = all.iter().filter(|o| o.verdict.failed()).count() as u64;
        if new_wrong > 0 {
            println!(
                "INCORRECT workload={} seed={}: {new_wrong} operation(s) answered wrongly outside the known defects",
                self.workload, self.seed
            );
        }
        let correct = self.faults.is_empty() && new_wrong == 0 && attempted > 0;
        let metrics = match self.layers.take() {
            Some(inputs) => {
                let path = std::path::PathBuf::from(format!(
                    "{SPAN_DIR}/{}-seed{}.jsonl",
                    self.workload, self.seed
                ));
                match inputs.spans.write_jsonl(&path) {
                    Ok(()) => println!("spans written to {}", path.display()),
                    Err(e) => println!("spans not written to {}: {e}", path.display()),
                }
                let layers = crate::layers::metrics(&inputs, self.traced_ops.len());
                crate::report::print_metrics("per-layer (traced run):", &layers);
                layers
            }
            None => e2e,
        };
        let metrics = metrics
            .into_iter()
            .filter(|m| emit.contains(&m.name.as_str()))
            .collect();
        (correct, attempted, failed, metrics)
    }
}
