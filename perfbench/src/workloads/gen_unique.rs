//! `gen_unique`: distinct presburger-gen default-grammar cases (∧ ∨ ¬,
//! bounded ∃/∀, strides, up to two symbols; one in five is a `sum`),
//! each rendered to text, parsed, and counted or summed through the
//! library under fixed per-query budgets, one caller, engine
//! `threads=1`, no wall-clock deadline.
//!
//! It bypasses `serve` and every cross-request cache: the thread-local
//! memo is emptied before each query, so a serving or caching change
//! should show no effect here.
//!
//! The cases are the first [`UNIVERSE`] distinct cases of generator
//! stream [`STREAM`]; the seed draws the order they are issued in.
//! Drawing the cases themselves per seed would make throughput swing
//! with the handful of splinter-budget cases that take most of the time
//! (about 1.5% of cases, half the wall time), so the case set is fixed.
//! It includes the cases the engine is known to answer wrongly
//! ([`KNOWN_WRONG`]); they are reported in `wrong_answers` and
//! `failed` in every run, never dropped.

use crate::cases::{bindings, gen_queries, shuffled, GenQuery, MAX_DNF_CLAUSES, MAX_SPLINTERS};
use crate::check::{answer_from_outcome, judge, Answer, Verdict};
use crate::spans::Spans;
use crate::workloads::{Args, Op, RunOutput};
use presburger::arith::{Int, Rat};
use presburger::counting::{
    try_sum_polynomial_governed, Budgets, CountError, CountOptions, Governor, Outcome,
};
use presburger::gen::{oracle, GenConfig, Rng};
use presburger::omega::dnf::{simplify, SimplifyOptions};
use presburger::omega::{parse_affine, parse_formula, Formula, Space, VarId};
use presburger::polyq::QPoly;
use std::time::Instant;

/// Generator stream the cases come from.
pub const STREAM: u64 = 1;
/// Number of distinct cases.
pub const UNIVERSE: usize = 1000;
/// Cases the engine answered wrongly when the benchmark was defined
/// (stream positions). They count as failed, wrong answers in every
/// run; a wrong answer to any other case makes the run incorrect.
pub const KNOWN_WRONG: [usize; 6] = [359, 422, 581, 596, 776, 950];
/// Seconds one pass over the cases takes on a 2-core x86-64 container.
/// A run makes `seconds / PASS_SECONDS` passes, rounded, each in its
/// own seeded order: whole passes, so every run issues the same cases
/// the same number of times.
const PASS_SECONDS: u64 = 11;
/// Queries run once during set-up to warm code and allocator.
const WARM_UP: usize = 50;

/// A case with its check points and oracle values.
pub struct Prepared {
    /// The query.
    pub query: GenQuery,
    /// Parameter points the answer is checked at.
    pub points: Vec<Vec<(String, i64)>>,
    /// Brute-force value at each point.
    pub want: Vec<Rat>,
}

/// The brute-force value of `q` at each point (no engine involved).
fn oracle_values(q: &GenQuery, points: &[Vec<(String, i64)>]) -> Vec<Rat> {
    let case = &q.case;
    let union = case.union();
    let poly = q.summand_poly();
    points
        .iter()
        .map(|bind| {
            let sym = |v: VarId| {
                let name = case.space.name(v);
                Int::from(
                    bind.iter()
                        .find(|(n, _)| n == name)
                        .map_or(0, |(_, val)| *val),
                )
            };
            match &poly {
                None => Rat::from(
                    oracle::brute_force(&union, &case.vars, case.brute_range(), &sym) as i64,
                ),
                Some(p) => oracle::brute_sum(&union, &case.vars, case.brute_range(), &sym, p),
            }
        })
        .collect()
}

/// Pairs each query with its check points and precomputes the oracle,
/// on `threads` threads.
pub fn prepare(queries: Vec<GenQuery>, threads: usize) -> Vec<Prepared> {
    let half = queries.len().div_ceil(threads.max(1));
    let mut parts: Vec<Vec<Prepared>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| {
                            let points = bindings(&q.case);
                            let want = oracle_values(q, &points);
                            Prepared {
                                query: q.clone(),
                                points,
                                want,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("oracle worker panicked"));
        }
    });
    parts.into_iter().flatten().collect()
}

/// A query parsed from its text, as a caller would.
pub(crate) struct Parsed {
    pub(crate) space: Space,
    pub(crate) formula: Formula,
    vars: Vec<VarId>,
    poly: QPoly,
}

pub(crate) fn parse(q: &GenQuery) -> Result<Parsed, String> {
    let mut space = Space::new();
    let vars: Vec<VarId> = q.vars_text.split(',').map(|v| space.var(v)).collect();
    let formula = parse_formula(&q.formula_text, &mut space).map_err(|e| e.to_string())?;
    let poly = match &q.poly_text {
        None => QPoly::one(),
        Some(t) => QPoly::from_affine(&parse_affine(t, &mut space).map_err(|e| e.to_string())?),
    };
    Ok(Parsed {
        space,
        formula,
        vars,
        poly,
    })
}

/// Counts (or sums) a parsed query on this thread under the splinter
/// budget `max_splinters` and the shared DNF budget.
pub(crate) fn count(p: &Parsed, max_splinters: u64) -> Result<Outcome, CountError> {
    let opts = CountOptions {
        threads: 1,
        ..CountOptions::default()
    };
    let gov = Governor::new(Budgets {
        max_splinters: Some(max_splinters),
        max_dnf_clauses: Some(MAX_DNF_CLAUSES),
        ..Budgets::unlimited()
    });
    try_sum_polynomial_governed(&p.space, &p.formula, &p.vars, &p.poly, &opts, &gov)
}

/// Issues `order` (indices into `cases`), returning each op's latency
/// and answer, and the measured time (the sum of the timed regions).
/// With `spans`, each query gets a `query` span with `omega.parse` and
/// `counting` beneath it. Answers are evaluated at the check points
/// right after each query, outside its timed region, so no symbolic
/// result outlives its query.
fn run_list(
    cases: &[Prepared],
    order: &[usize],
    mut spans: Option<&mut Spans>,
) -> (Vec<(usize, f64, Answer)>, f64) {
    let mut out = Vec::with_capacity(order.len());
    for &ci in order {
        let c = &cases[ci];
        presburger::trace::memo::clear_local();
        let t = Instant::now();
        let result = match spans.as_deref_mut() {
            None => parse(&c.query).map(|p| count(&p, MAX_SPLINTERS)),
            Some(sp) => {
                let id = format!("case{}", c.query.index);
                let root = sp.begin("query", &id, None);
                let parsed = sp.time("omega.parse", &id, Some(root), || parse(&c.query));
                let r = parsed
                    .map(|p| sp.time("counting", &id, Some(root), || count(&p, MAX_SPLINTERS)));
                sp.end(root);
                r
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let answer = match &result {
            Err(parse_err) => Answer::Error(format!("parse: {parse_err}")),
            Ok(out) => answer_from_outcome(out, &c.points),
        };
        out.push((ci, ms, answer));
    }
    let wall = out.iter().map(|o| o.1).sum::<f64>() / 1e3;
    (out, wall)
}

fn judge_ops(cases: &[Prepared], ops: &[(usize, f64, Answer)], spans: &mut Spans) -> Vec<Op> {
    ops.iter()
        .map(|(ci, ms, ans)| {
            let c = &cases[*ci];
            let key = format!("case{}", c.query.index);
            let verdict: Verdict = spans.time("oracle", &key, None, || judge(ans, &c.want));
            let detail = if verdict.failed() {
                let got = match ans {
                    Answer::Error(e) => format!("error {e}"),
                    other => format!("{other:?}"),
                };
                format!(
                    "{} {{{} : {}}} got={got} oracle={:?} at {:?}",
                    c.query
                        .poly_text
                        .as_deref()
                        .map_or("count".to_string(), |p| format!("sum {p}")),
                    c.query.vars_text,
                    c.query.formula_text,
                    c.want,
                    c.points
                )
            } else {
                String::new()
            };
            Op {
                key,
                latency_ms: *ms,
                verdict,
                detail,
                payload: format!("{ans:?}"),
            }
        })
        .collect()
}

/// Runs the [`WARM_UP`] shortest formulas once, untimed.
fn warm_up(cases: &[Prepared]) {
    let mut by_len: Vec<&Prepared> = cases.iter().collect();
    by_len.sort_by_key(|c| (c.query.formula_text.len(), c.query.index));
    for c in by_len.into_iter().take(WARM_UP) {
        presburger::trace::memo::clear_local();
        if let Ok(p) = parse(&c.query) {
            let _ = count(&p, MAX_SPLINTERS);
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, process_start: Instant) -> Result<RunOutput, String> {
    let (cases, setup_s) = crate::workloads::repeated_setup(process_start, || {
        let cases = prepare(gen_queries(STREAM, UNIVERSE, &GenConfig::default()), 2);
        warm_up(&cases);
        Ok(cases)
    })?;
    let passes = ((args.seconds + PASS_SECONDS / 2) / PASS_SECONDS).max(1);
    let mut rng = Rng::new(args.seed).fork(0x6E4);
    let order: Vec<usize> = (0..passes)
        .flat_map(|_| shuffled(cases.len(), &mut rng))
        .collect();

    let mut out = RunOutput::new("gen_unique", args, setup_s);
    out.known_wrong = KNOWN_WRONG.iter().map(|i| format!("case{i}")).collect();
    let (ops, wall) = run_list(&cases, &order, None);
    out.mark_measured(wall);
    let mut oracle_spans = Spans::new(Instant::now());
    out.ops = judge_ops(&cases, &ops, &mut oracle_spans);

    if args.trace {
        let baseline = presburger::stats();
        let memo0 = presburger::trace::memo::stats();
        presburger::enable_stats(true);
        let mut spans = Spans::new(Instant::now());
        let (traced_ops, traced_wall) = run_list(&cases, &order, Some(&mut spans));
        let stats = presburger::stats().delta(&baseline);
        presburger::enable_stats(false);
        let memo1 = presburger::trace::memo::stats();
        let traced = judge_ops(&cases, &traced_ops, &mut spans);
        out.compare_outcomes("traced", &traced);
        time_dnf(&cases, &order, &traced, &mut spans);
        spans.absorb(oracle_spans);
        out.traced_ops = traced;
        out.layers = Some(crate::layers::Inputs {
            spans,
            stats,
            memo: (memo0, memo1),
            serve: None,
            untraced_wall_s: wall,
            traced_wall_s: traced_wall,
        });
    }
    Ok(out)
}

/// Times a separate `dnf::simplify(.., SimplifyOptions::disjoint())` on
/// each distinct formula issued. Formulas whose governed run failed are
/// skipped: their conversion tripped a budget, and ungoverned it may not
/// finish.
fn time_dnf(cases: &[Prepared], order: &[usize], ops: &[Op], spans: &mut Spans) {
    let mut done = std::collections::HashSet::new();
    for (&ci, op) in order.iter().zip(ops) {
        if op.verdict.class() == 'e' || !done.insert(ci) {
            continue;
        }
        if let Ok(mut p) = parse(&cases[ci].query) {
            presburger::trace::memo::clear_local();
            let id = format!("case{}", cases[ci].query.index);
            spans.time("omega.dnf", &id, None, || {
                simplify(&p.formula, &mut p.space, &SimplifyOptions::disjoint())
            });
        }
    }
}
