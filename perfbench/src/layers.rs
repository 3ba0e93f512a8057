//! Per-layer metrics of a traced run, measured from outside the
//! program: the benchmark's own spans around each public call, the
//! pipeline counters the program already keeps (`presburger::stats()`,
//! the process-wide memo statistics), and, for `serve_zipf`, the
//! server's `stats` and `metrics` protocol verbs.
//!
//! Every ratio is printed with its numerator and denominator and every
//! timing with its call count. Which end-to-end metric each layer
//! metric should move is listed in `perfbench/README.md`.

use crate::report::Metric;
use crate::spans::Spans;
use presburger::trace::{Counter, MemoStats, PipelineStats};

/// What the `serve` layer reported, client side and through the
/// protocol.
#[derive(Clone, Debug, Default)]
pub struct ServeLayer {
    /// Client round trips: p50, p99 (ms) and sample count.
    pub rtt_ms: (f64, f64, usize),
    /// Queue wait from the `metrics` histogram: p50, p99 (µs), count.
    pub queue_wait_us: (f64, f64, u64),
    /// Worker execution time (pop to reply): p99 (µs) and count.
    pub exec_us: (f64, u64),
    /// Result-cache hits and misses from `stats`.
    pub cache: (u64, u64),
    /// Shed replies from `stats` (queue full or draining).
    pub sheds: u64,
    /// Peak admission-queue depth from `stats`.
    pub queue_depth_peak: u64,
    /// Shared memo tier bytes from `metrics`.
    pub memo_shared_bytes: u64,
}

/// Raw inputs of the per-layer metrics.
pub struct Inputs {
    /// Spans of the traced phase, plus the post-run layer calls and the
    /// oracle checks.
    pub spans: Spans,
    /// Pipeline counters accumulated on the benchmark thread during the
    /// traced phase.
    pub stats: PipelineStats,
    /// Process-wide memo statistics before and after the traced phase.
    pub memo: (MemoStats, MemoStats),
    /// The serve layer's figures, for `serve_zipf`.
    pub serve: Option<ServeLayer>,
    /// Wall time of the untraced phase over the operation list.
    pub untraced_wall_s: f64,
    /// Wall time of the traced phase over the same list.
    pub traced_wall_s: f64,
}

fn ratio(name: &str, num: f64, den: f64, what: (&str, &str)) -> Metric {
    let value = if den > 0.0 { num / den } else { 0.0 };
    Metric::with_base(
        name,
        value,
        "1",
        format!("{} {num} / {} {den}", what.0, what.1),
    )
}

fn timing(name: &str, spans: &Spans, span_names: &[&str]) -> Metric {
    let (mut ms, mut calls) = (0.0, 0u64);
    for s in span_names {
        let (m, c) = spans.total(s);
        ms += m;
        calls += c;
    }
    Metric::with_base(name, ms, "ms", format!("{calls} calls"))
}

fn count(name: &str, v: u64, what: &str) -> Metric {
    Metric::with_base(name, v as f64, "count", what.to_string())
}

/// Computes every per-layer metric, in `BENCHMARK.json` order.
pub fn metrics(inp: &Inputs, traced_ops: usize) -> Vec<Metric> {
    let st = &inp.stats;
    let g = |c: Counter| st.get(c);
    let generated = g(Counter::SplintersGenerated);
    let pruned = g(Counter::SplintersPruned);
    let faulhaber = [
        Counter::FaulhaberDeg0,
        Counter::FaulhaberDeg1,
        Counter::FaulhaberDeg2,
        Counter::FaulhaberDeg3,
        Counter::FaulhaberDegHi,
    ]
    .iter()
    .map(|&c| g(c))
    .sum::<u64>();
    let (m0, m1) = &inp.memo;
    let hits = m1.hits.saturating_sub(m0.hits);
    let probes = hits + m1.misses.saturating_sub(m0.misses);
    let serve = inp.serve.clone().unwrap_or_default();
    let memo_bytes = g(Counter::MemoBytes).max(serve.memo_shared_bytes);
    let (cache_hits, cache_misses) = serve.cache;

    let out = vec![
        timing("omega.parse.ms", &inp.spans, &["omega.parse"]),
        count(
            "omega.parse.calls",
            inp.spans.total("omega.parse").1,
            "parse_formula calls",
        ),
        timing("omega.dnf.ms", &inp.spans, &["omega.dnf"]),
        count(
            "omega.dnf.clauses_in",
            g(Counter::DnfClausesIn),
            "dnf_clauses_in",
        ),
        count(
            "omega.dnf.clauses_disjoint",
            g(Counter::DnfClausesDisjoint),
            "dnf_clauses_disjoint",
        ),
        count(
            "omega.dnf.work_clauses",
            g(Counter::DnfWorkClauses),
            "dnf_work_clauses",
        ),
        count(
            "omega.eliminate.splinters_generated",
            generated,
            "splinters_generated",
        ),
        ratio(
            "omega.eliminate.splinter_yield",
            generated.saturating_sub(pruned) as f64,
            generated as f64,
            ("surviving", "generated"),
        ),
        count(
            "omega.eliminate.exact_disjoint",
            g(Counter::EliminateExactDisjoint),
            "eliminate_exact_disjoint",
        ),
        count(
            "omega.eliminate.dark",
            g(Counter::EliminateDark),
            "eliminate_dark",
        ),
        count(
            "omega.feasible.checks",
            g(Counter::FeasibilityChecks),
            "feasibility_checks",
        ),
        count(
            "omega.normalize_calls",
            g(Counter::NormalizeCalls),
            "normalize_calls",
        ),
        count(
            "omega.redundant.removed",
            g(Counter::RedundantRemovedComplete),
            "redundant_removed_complete",
        ),
        timing(
            "counting.ms",
            &inp.spans,
            &["counting", "apps.hpf", "apps.memory", "apps.loopnest"],
        ),
        count(
            "counting.leaf_pieces",
            g(Counter::ConvexLeafPieces),
            "convex_leaf_pieces",
        ),
        count(
            "counting.split_cases",
            g(Counter::ConvexSplitCases),
            "convex_split_cases",
        ),
        count(
            "counting.governor_trips",
            g(Counter::GovernorTrips),
            "governor_trips",
        ),
        count(
            "counting.clauses_degraded",
            g(Counter::ClausesDegraded),
            "clauses_degraded",
        ),
        count("polyq.faulhaber_calls", faulhaber, "faulhaber_deg0..hi"),
        count(
            "arith.smith_calls",
            g(Counter::SmithNormalFormCalls),
            "smith_normal_form_calls",
        ),
        count(
            "arith.int_promotions",
            g(Counter::IntPromotions),
            "int_promotions",
        ),
        Metric::with_base(
            "arith.max_coeff_bits",
            g(Counter::MaxCoeffBits) as f64,
            "bits",
            "gauge".to_string(),
        ),
        ratio(
            "memo.hit_ratio",
            hits as f64,
            probes as f64,
            ("hits", "probes"),
        ),
        Metric::with_base(
            "memo.bytes",
            memo_bytes as f64,
            "bytes",
            "max(local-tier gauge, shared tier)".to_string(),
        ),
        timing("apps.hpf.ms", &inp.spans, &["apps.hpf"]),
        timing("apps.memory.ms", &inp.spans, &["apps.memory"]),
        timing("apps.loopnest.ms", &inp.spans, &["apps.loopnest"]),
        Metric::with_base(
            "serve.rtt_ms.p50",
            serve.rtt_ms.0,
            "ms",
            format!("{} samples", serve.rtt_ms.2),
        ),
        Metric::with_base(
            "serve.rtt_ms.p99",
            serve.rtt_ms.1,
            "ms",
            format!("{} samples", serve.rtt_ms.2),
        ),
        Metric::with_base(
            "serve.queue_wait_us.p50",
            serve.queue_wait_us.0,
            "us",
            format!("{} samples, histogram buckets", serve.queue_wait_us.2),
        ),
        Metric::with_base(
            "serve.queue_wait_us.p99",
            serve.queue_wait_us.1,
            "us",
            format!("{} samples, histogram buckets", serve.queue_wait_us.2),
        ),
        Metric::with_base(
            "serve.exec_us.p99",
            serve.exec_us.0,
            "us",
            format!("{} samples, histogram buckets", serve.exec_us.1),
        ),
        ratio(
            "serve.cache_hit_ratio",
            cache_hits as f64,
            (cache_hits + cache_misses) as f64,
            ("hits", "lookups"),
        ),
        count("serve.sheds", serve.sheds, "shed replies"),
        count("serve.queue_depth_peak", serve.queue_depth_peak, "gauge"),
        timing("oracle.ms", &inp.spans, &["oracle"]),
        ratio(
            "trace.overhead_frac",
            inp.traced_wall_s - inp.untraced_wall_s,
            inp.untraced_wall_s,
            ("traced-untraced wall s", "untraced wall s"),
        ),
    ];
    // Self time per span name, for finding where a traced op spends it.
    println!("spans (total ms / self ms / count) over {traced_ops} traced ops:");
    for (name, (total, own, n)) in inp.spans.totals() {
        println!("  {name:<20} {total:>12.3} {own:>12.3} {n:>8}");
    }
    out
}
