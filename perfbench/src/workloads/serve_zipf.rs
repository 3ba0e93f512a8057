//! `serve_zipf`: two client connections speak the text protocol over
//! localhost TCP to a default-configured server, each in a closed loop
//! (send, wait for the reply, send the next), as `calculator --connect`
//! does.
//!
//! Requests are drawn zipf-skewed from a pool of distinct symbol-free
//! generated `count`/`sum` queries, each carrying the same count-based
//! budget options, so no outcome depends on the wall clock or the
//! server's default deadline. The pool is four times the server's
//! 256-entry result cache: hits exercise protocol, queue, routing,
//! cache reads and rendering; misses exercise cache inserts and
//! evictions, the shared memo tier and the engine.
//!
//! The pool and its popularity ranking are fixed; the seed draws each
//! connection's request sequence. Every integer reply is checked
//! against a brute-force value computed at set-up.

use crate::cases::{gen_queries, Zipf, MAX_DNF_CLAUSES};
use crate::check::{judge_reply, Verdict};
use crate::layers::ServeLayer;
use crate::report::percentile;
use crate::spans::Spans;
use crate::workloads::gen_unique::{count, parse, prepare, Prepared};
use crate::workloads::{Args, Op, RunOutput};
use presburger::gen::{GenConfig, Rng};
use presburger::omega::dnf::{simplify, SimplifyOptions};
use presburger::serve::{ServeConfig, TcpServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Generator stream of the pool.
const POOL_STREAM: u64 = 2;
/// Distinct queries in the pool (four times the result cache).
const POOL: usize = 1024;
/// Zipf exponent of the request draw.
const ZIPF_S: f64 = 1.0;
/// Client connections.
const CONNECTIONS: usize = 2;
/// Requests per second of `--seconds`, over both connections, sized so
/// a run measures about `--seconds` on a 2-core x86-64 container.
const REQUESTS_PER_SECOND: u64 = 42;
/// Pings per connection during set-up.
const WARM_UP_PINGS: usize = 5;

/// Splinter budget of every request. A quarter of the library
/// workloads' budget: it keeps the costliest pool entry near 0.1 s
/// instead of 0.4 s on a 2-core x86-64 container (same failure count,
/// 20 vs 18 of 1024 entries), so the tail is not set by which few
/// expensive entries a seed happens to draw.
const MAX_SPLINTERS: u64 = 1024;

fn options() -> String {
    format!("max_splinters={MAX_SPLINTERS} max_dnf_clauses={MAX_DNF_CLAUSES} ")
}

/// A running server; shut down when dropped.
struct Server {
    tcp: Option<TcpServer>,
}

impl Server {
    fn start() -> Result<Server, String> {
        TcpServer::bind("127.0.0.1:0", ServeConfig::default())
            .map(|tcp| Server { tcp: Some(tcp) })
            .map_err(|e| format!("server start: {e}"))
    }

    fn connect(&self) -> Result<Conn, String> {
        let addr = self.tcp.as_ref().expect("server is running").addr();
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Conn {
            stream,
            reader,
            ping_ms: Vec::new(),
        };
        for k in 0..WARM_UP_PINGS {
            let t = Instant::now();
            let pong = conn.call(&format!("ping w{k}"))?;
            conn.ping_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if pong != format!("PONG w{k}") {
                return Err(format!("unexpected ping reply {pong:?}"));
            }
        }
        Ok(conn)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(tcp) = self.tcp.take() {
            let _ = tcp.shutdown();
        }
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Round trips of the warm-up pings.
    ping_ms: Vec<f64>,
}

impl Conn {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(reply.trim_end().to_string())
    }

    /// Sends a verb whose reply is a block ending in `# EOF`.
    fn block(&mut self, verb: &str) -> Result<String, String> {
        let mut text = self.call(verb)?;
        while !text.ends_with("# EOF") {
            let mut line = String::new();
            if self
                .reader
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err(format!("{verb}: connection closed"));
            }
            text.push('\n');
            text.push_str(line.trim_end());
        }
        Ok(text)
    }
}

/// Set-up: pool, oracle values, each connection's draw, a started
/// server and connected, warmed-up clients.
struct Setup {
    pool: Vec<Prepared>,
    draws: Vec<Vec<usize>>,
    // Connections close before the server shuts down (field order).
    conns: Vec<Conn>,
    server: Server,
}

fn draws(seed: u64, total: usize) -> Vec<Vec<usize>> {
    let zipf = Zipf::new(POOL, ZIPF_S);
    (0..CONNECTIONS)
        .map(|c| zipf.sample(total / CONNECTIONS, &mut Rng::new(seed).fork(c as u64 + 1)))
        .collect()
}

fn setup(args: &Args) -> Result<Setup, String> {
    let cfg = GenConfig {
        max_symbols: 0,
        ..GenConfig::default()
    };
    // One thread: a second allocator arena would make peak RSS depend
    // on how the oracle work happened to split.
    let pool = prepare(gen_queries(POOL_STREAM, POOL, &cfg), 1);
    let total = (REQUESTS_PER_SECOND * args.seconds).max(CONNECTIONS as u64) as usize;
    let server = Server::start()?;
    let conns = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        pool,
        draws: draws(args.seed, total),
        server,
        conns,
    })
}

/// One reply: pool entry, request id, reply line, round trip (ms).
type Reply = (usize, String, String, f64);

/// Runs every connection's draw in a closed loop. Returns the replies
/// (connection by connection, in order), the wall time, and the spans
/// when `traced`.
fn run_clients(
    s: &mut Setup,
    traced: bool,
    origin: Instant,
) -> Result<(Vec<Reply>, f64, Spans), String> {
    let opts = options();
    let pool = &s.pool;
    let started = Instant::now();
    let results: Vec<Result<(Vec<Reply>, Spans), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .conns
            .iter_mut()
            .zip(&s.draws)
            .enumerate()
            .map(|(c, (conn, draw))| {
                let opts = &opts;
                scope.spawn(move || {
                    let mut spans = Spans::new(origin);
                    let mut out = Vec::with_capacity(draw.len());
                    for (k, &entry) in draw.iter().enumerate() {
                        let id = format!("c{c}r{k}");
                        let line = pool[entry].query.request_line(&id, opts);
                        let span = traced.then(|| spans.begin("request", &id, None));
                        let t = Instant::now();
                        let reply = conn.call(&line)?;
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let Some(sp) = span {
                            spans.end(sp);
                        }
                        out.push((entry, id, reply, ms));
                    }
                    Ok((out, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut replies = Vec::new();
    let mut spans = Spans::new(origin);
    for r in results {
        let (rs, sp) = r?;
        replies.extend(rs);
        spans.absorb(sp);
    }
    Ok((replies, wall, spans))
}

/// The reply with its id removed, compared across repeats of an entry.
fn payload(reply: &str) -> String {
    let mut toks = reply.splitn(3, ' ');
    let head = toks.next().unwrap_or("");
    let _id = toks.next();
    format!("{head} {}", toks.next().unwrap_or(""))
}

fn judge_replies(pool: &[Prepared], replies: &[Reply], spans: &mut Spans) -> Vec<Op> {
    replies
        .iter()
        .map(|(entry, id, reply, ms)| {
            let p = &pool[*entry];
            let verdict: Verdict =
                spans.time("oracle", id, None, || judge_reply(reply, id, &p.want[0]));
            Op {
                key: format!("entry{entry}"),
                latency_ms: *ms,
                verdict,
                detail: if verdict.failed() {
                    format!(
                        "pool case {} reply={reply:?} oracle={} request={}",
                        p.query.index,
                        p.want[0],
                        p.query.request_line(id, &options())
                    )
                } else {
                    String::new()
                },
                payload: payload(reply),
            }
        })
        .collect()
}

/// Quantile `q` (0–1) of the Prometheus histogram family `family`,
/// summed over all label sets, interpolated within the bucket.
fn histogram_quantile(metrics: &str, family: &str, q: f64) -> (f64, u64) {
    let prefix = format!("{family}_bucket{{");
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in metrics.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((labels, value)) = rest.rsplit_once("} ") else {
            continue;
        };
        let Some(le) = labels
            .split("le=\"")
            .nth(1)
            .and_then(|l| l.split('"').next())
        else {
            continue;
        };
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().unwrap_or(f64::INFINITY)
        };
        let v: u64 = value.trim().parse().unwrap_or(0);
        match buckets.iter_mut().find(|(b, _)| *b == le) {
            Some(b) => b.1 += v,
            None => buckets.push((le, v)),
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0, |b| b.1);
    if total == 0 {
        return (0.0, 0);
    }
    let target = q * total as f64;
    let mut prev = (0.0, 0u64);
    for &(le, cum) in &buckets {
        if cum as f64 >= target {
            let hi = if le.is_finite() { le } else { prev.0 };
            let span = (cum - prev.1).max(1) as f64;
            return (
                prev.0 + (hi - prev.0) * (target - prev.1 as f64) / span,
                total,
            );
        }
        prev = (le, cum);
    }
    (prev.0, total)
}

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn gauge(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Reads the server's `stats` and `metrics` after a phase.
fn serve_layer(s: &mut Setup, replies: &[Reply]) -> Result<ServeLayer, String> {
    // Telemetry is recorded just after each reply is sent; let the last
    // observation land before asking.
    std::thread::sleep(Duration::from_millis(50));
    let conn = &mut s.conns[0];
    let stats = conn.call("stats")?;
    let metrics = conn.block("metrics")?;
    let mut rtt: Vec<f64> = replies.iter().map(|r| r.3).collect();
    rtt.sort_by(f64::total_cmp);
    let qw50 = histogram_quantile(&metrics, "presburger_queue_wait_us", 0.5);
    let qw99 = histogram_quantile(&metrics, "presburger_queue_wait_us", 0.99);
    let exec99 = histogram_quantile(&metrics, "presburger_request_duration_us", 0.99);
    Ok(ServeLayer {
        rtt_ms: (percentile(&rtt, 50.0), percentile(&rtt, 99.0), rtt.len()),
        queue_wait_us: (qw50.0, qw99.0, qw50.1),
        exec_us: exec99,
        cache: (stat(&stats, "cache_hits"), stat(&stats, "cache_misses")),
        sheds: stat(&stats, "shed_queue") + stat(&stats, "shed_drain"),
        queue_depth_peak: stat(&stats, "queue_depth_peak"),
        memo_shared_bytes: gauge(&metrics, "presburger_memo_shared_bytes"),
    })
}

/// Runs the workload.
pub fn run(args: &Args, process_start: Instant) -> Result<RunOutput, String> {
    let (mut s, setup_s) = crate::workloads::repeated_setup(process_start, || setup(args))?;
    let pings: Vec<f64> = s
        .conns
        .iter()
        .flat_map(|c| c.ping_ms.iter().copied())
        .collect();
    println!(
        "serve_zipf warm-up ping round trip: median {:.3} ms over {} pings",
        crate::report::median(&pings),
        pings.len()
    );
    let mut out = RunOutput::new("serve_zipf", args, setup_s);
    let origin = Instant::now();
    let (replies, wall, _) = run_clients(&mut s, false, origin)?;
    out.mark_measured(wall);
    let mut oracle_spans = Spans::new(origin);
    out.ops = judge_replies(&s.pool, &replies, &mut oracle_spans);

    if args.trace {
        // A fresh server and an empty shared memo tier, so the traced
        // phase starts from the same state as the measured one.
        s.conns.clear();
        s.server = Server::start()?;
        presburger::trace::memo::clear_shared();
        s.conns = (0..CONNECTIONS)
            .map(|_| s.server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let memo0 = presburger::trace::memo::stats();
        let (traced_replies, traced_wall, mut spans) = run_clients(&mut s, true, origin)?;
        let memo1 = presburger::trace::memo::stats();
        let serve = serve_layer(&mut s, &traced_replies)?;
        let traced = judge_replies(&s.pool, &traced_replies, &mut spans);
        out.compare_outcomes("traced", &traced);

        // The engine work behind the requests, seen from this thread:
        // each distinct requested entry parsed and counted once, cold,
        // through the library, then converted to disjoint DNF on its own
        // (skipped where the served request failed: its conversion
        // tripped a budget and may not finish ungoverned).
        let mut entries: Vec<(usize, bool)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for (op, (entry, ..)) in traced.iter().zip(&traced_replies) {
            if seen.insert(*entry) {
                entries.push((*entry, op.verdict.class() != 'e'));
            }
        }
        let baseline = presburger::stats();
        presburger::enable_stats(true);
        for &(entry, _) in &entries {
            let id = format!("entry{entry}");
            presburger::trace::memo::clear_local();
            presburger::trace::memo::clear_shared();
            if let Ok(p) = spans.time("omega.parse", &id, None, || parse(&s.pool[entry].query)) {
                let _ = spans.time("counting", &id, None, || count(&p, MAX_SPLINTERS));
            }
        }
        presburger::enable_stats(false);
        let stats = presburger::stats().delta(&baseline);
        for &(entry, _) in entries.iter().filter(|e| e.1) {
            if let Ok(mut p) = parse(&s.pool[entry].query) {
                presburger::trace::memo::clear_local();
                spans.time("omega.dnf", &format!("entry{entry}"), None, || {
                    simplify(&p.formula, &mut p.space, &SimplifyOptions::disjoint())
                });
            }
        }
        spans.absorb(oracle_spans);
        out.traced_ops = traced;
        out.layers = Some(crate::layers::Inputs {
            spans,
            stats,
            memo: (memo0, memo1),
            serve: Some(serve),
            untraced_wall_s: wall,
            traced_wall_s: traced_wall,
        });
    }
    Ok(out)
}
