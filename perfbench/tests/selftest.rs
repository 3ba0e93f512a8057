//! Self-test of the benchmark's checker and of its seeded inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use presburger::arith::{Int, Rat};
use presburger::gen::{GenConfig, Rng};
use presburger_perfbench::cases::{gen_queries, shuffled, Zipf};
use presburger_perfbench::check::{judge, judge_reply, Answer, Verdict};
use presburger_perfbench::workloads::{Args, Op, RunOutput};
use presburger_perfbench::{END_TO_END, PER_LAYER};

fn r(n: i64) -> Rat {
    Rat::from(n)
}

#[test]
fn off_by_one_exact_answer_is_wrong() {
    assert_eq!(
        judge(&Answer::Exact(vec![r(4), r(7)]), &[r(4), r(7)]),
        Verdict::Exact
    );
    assert_eq!(
        judge(&Answer::Exact(vec![r(4), r(8)]), &[r(4), r(7)]),
        Verdict::Wrong
    );
    assert_eq!(
        judge_reply("OK c0r1 exact 26", "c0r1", &r(25)),
        Verdict::Wrong
    );
    assert_eq!(
        judge_reply("OK c0r1 exact 24", "c0r1", &r(25)),
        Verdict::Wrong
    );
    assert_eq!(
        judge_reply("OK c0r1 exact 25", "c0r1", &r(25)),
        Verdict::Exact
    );
    assert!(Verdict::Wrong.failed() && Verdict::Wrong.disagrees());
}

#[test]
fn bracket_that_misses_the_oracle_is_flagged() {
    let half = |n: i64| Rat::new(Int::from(n), Int::from(2));
    assert_eq!(
        judge(&Answer::Bounded(vec![(r(3), r(5))]), &[r(4)]),
        Verdict::Bounded
    );
    assert_eq!(
        judge(&Answer::Bounded(vec![(r(5), r(7))]), &[r(4)]),
        Verdict::MissedBracket
    );
    assert_eq!(
        judge(&Answer::Bounded(vec![(r(1), r(3))]), &[r(4)]),
        Verdict::MissedBracket
    );
    assert_eq!(
        judge_reply("OK c1r9 bounded budget 7/2 ; 9/2", "c1r9", &r(4)),
        Verdict::Bounded
    );
    assert_eq!(
        judge_reply("OK c1r9 bounded budget 7/2 ; 9/2", "c1r9", &r(5)),
        Verdict::MissedBracket
    );
    assert_eq!(
        judge(&Answer::Bounded(vec![(half(7), half(9))]), &[r(5)]),
        Verdict::MissedBracket
    );
    assert!(Verdict::MissedBracket.failed() && Verdict::MissedBracket.disagrees());
}

#[test]
fn reply_with_the_wrong_id_is_flagged() {
    assert_eq!(
        judge_reply("OK c0r2 exact 25", "c0r1", &r(25)),
        Verdict::BadReply
    );
    assert_eq!(judge_reply("OK c0r1", "c0r1", &r(25)), Verdict::BadReply);
    assert_eq!(judge_reply("garbage", "c0r1", &r(25)), Verdict::BadReply);
    assert!(Verdict::BadReply.failed());
}

#[test]
fn errors_and_sheds_are_failed_operations() {
    let err = "ERR c0r3 budget budget exceeded: splinters_generated limit 4096, spent 4097";
    assert_eq!(judge_reply(err, "c0r3", &r(1)), Verdict::Error);
    let shed = "SHED c0r4 retry_after_ms=50 reason=queue_full";
    assert_eq!(judge_reply(shed, "c0r4", &r(1)), Verdict::Shed);
    assert!(Verdict::Error.failed() && Verdict::Shed.failed());
    assert!(!Verdict::Error.disagrees());
}

#[test]
fn case_generation_reproduces_from_the_seed() {
    let cfg = GenConfig::default();
    let texts = |stream: u64| -> Vec<String> {
        gen_queries(stream, 60, &cfg)
            .iter()
            .map(|q| q.request_line("id", ""))
            .collect()
    };
    let a = texts(1);
    assert_eq!(a, texts(1));
    assert_eq!(a.len(), 60);
    let distinct: std::collections::HashSet<&String> = a.iter().collect();
    assert_eq!(distinct.len(), a.len(), "queries must be distinct");
    assert!(a.iter().any(|l| l.starts_with("sum ")));
    assert_ne!(a, texts(2));
}

#[test]
fn zipf_draw_and_order_reproduce_from_the_seed() {
    let zipf = Zipf::new(1024, 1.0);
    let draw = |seed: u64| -> Vec<usize> { zipf.sample(500, &mut Rng::new(seed).fork(1)) };
    assert_eq!(draw(3), draw(3));
    assert_ne!(draw(3), draw(4));
    let d = draw(3);
    assert!(d.iter().all(|&x| x < 1024));
    let top = d.iter().filter(|&&x| x == 0).count();
    let far = d.iter().filter(|&&x| x == 1000).count();
    assert!(top > far, "rank 0 must be drawn more often than rank 1000");

    let p = shuffled(100, &mut Rng::new(9));
    assert_eq!(p, shuffled(100, &mut Rng::new(9)));
    let mut sorted = p.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..100).collect::<Vec<_>>());
}

fn op(key: &str, verdict: Verdict, payload: &str) -> Op {
    Op {
        key: key.to_string(),
        latency_ms: 1.0,
        verdict,
        detail: String::new(),
        payload: payload.to_string(),
    }
}

#[test]
fn differing_outcome_vectors_are_benchmark_faults() {
    let args = Args {
        workload: "gen_unique".into(),
        seed: 1,
        seconds: 1,
        trace: true,
    };
    let mut out = RunOutput::new("gen_unique", &args, 0.1);
    out.ops = vec![
        op("case1", Verdict::Exact, "4"),
        op("case2", Verdict::Error, "budget"),
    ];
    out.compare_outcomes("traced", &out.ops.clone());
    assert!(out.faults.is_empty());
    out.compare_outcomes(
        "traced",
        &[
            op("case1", Verdict::Bounded, "3..5"),
            op("case2", Verdict::Error, "budget"),
        ],
    );
    assert_eq!(out.faults.len(), 1);
    let (correct, attempted, failed, _) = out.finish(&END_TO_END);
    assert!(!correct);
    assert_eq!((attempted, failed), (2, 1));
}

/// Every metric the result line can carry is the one `BENCHMARK.json`
/// lists, in both modes.
#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    };
    let mut e2e = section("end_to_end");
    let mut want: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
    e2e.sort();
    want.sort();
    assert_eq!(e2e, want);
    let mut layers = section("per_layer");
    let mut want: Vec<String> = PER_LAYER.iter().map(|s| s.to_string()).collect();
    layers.sort();
    want.sort();
    assert_eq!(layers, want);
}
