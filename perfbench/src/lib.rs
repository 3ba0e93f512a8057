//! End-to-end and per-layer benchmark of the presburger-counting
//! workspace.
//!
//! Three workloads (`compiler_apps`, `gen_unique`, `serve_zipf`) call
//! the repository's public API or its text protocol, check every answer
//! against an oracle that does not use the engine, and report the
//! metrics listed in `BENCHMARK.json`. See `perfbench/README.md`.

pub mod cases;
pub mod check;
pub mod layers;
pub mod report;
pub mod spans;
pub mod workloads;

/// End-to-end metrics in the result line of an untraced run, as listed
/// in `BENCHMARK.json` (the ones that are never zero; `failed_frac` and
/// `wrong_answers` are printed in the report and carried by the result
/// line's `failed` count).
pub const END_TO_END: [&str; 7] = [
    "latency_p50_ms",
    "latency_tail_ms",
    "throughput_qps",
    "exact_frac",
    "ok_frac",
    "peak_rss_mb",
    "setup_s",
];

/// Per-layer metrics in the result line of a traced run, as listed in
/// `BENCHMARK.json`.
pub const PER_LAYER: [&str; 37] = [
    "omega.parse.ms",
    "omega.parse.calls",
    "omega.dnf.ms",
    "omega.dnf.clauses_in",
    "omega.dnf.clauses_disjoint",
    "omega.dnf.work_clauses",
    "omega.eliminate.splinters_generated",
    "omega.eliminate.splinter_yield",
    "omega.eliminate.exact_disjoint",
    "omega.eliminate.dark",
    "omega.feasible.checks",
    "omega.normalize_calls",
    "omega.redundant.removed",
    "counting.ms",
    "counting.leaf_pieces",
    "counting.split_cases",
    "counting.governor_trips",
    "counting.clauses_degraded",
    "polyq.faulhaber_calls",
    "arith.smith_calls",
    "arith.int_promotions",
    "arith.max_coeff_bits",
    "memo.hit_ratio",
    "memo.bytes",
    "apps.hpf.ms",
    "apps.memory.ms",
    "apps.loopnest.ms",
    "serve.rtt_ms.p50",
    "serve.rtt_ms.p99",
    "serve.queue_wait_us.p50",
    "serve.queue_wait_us.p99",
    "serve.exec_us.p99",
    "serve.cache_hit_ratio",
    "serve.sheds",
    "serve.queue_depth_peak",
    "oracle.ms",
    "trace.overhead_frac",
];
