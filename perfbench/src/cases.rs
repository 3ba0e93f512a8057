//! Seeded inputs shared by the workloads: generated Presburger cases,
//! their check points, the serve request pool and the zipf draw.

use presburger::gen::{generate, GenCase, GenConfig, Rng};
use presburger::omega::{Affine, VarId};
use presburger::polyq::QPoly;

/// Per-query budgets every generated query carries. They bound the
/// work of a query by counts only, so no outcome depends on the wall
/// clock.
pub const MAX_SPLINTERS: u64 = 4096;
/// See [`MAX_SPLINTERS`].
pub const MAX_DNF_CLAUSES: u64 = 256;

/// One generated query: a case, whether it counts or sums, and its
/// text as a caller would send it.
#[derive(Clone, Debug)]
pub struct GenQuery {
    /// Position of the case in its generator stream.
    pub index: usize,
    /// The generated case (the oracle works on its formula directly).
    pub case: GenCase,
    /// For a `sum`: the coefficient of each counted variable in the
    /// affine summand, in `case.vars` order.
    pub summand: Option<Vec<i64>>,
    /// Counted variable names, comma separated.
    pub vars_text: String,
    /// The formula `A ∨ B`, rendered as text.
    pub formula_text: String,
    /// The summand rendered as text (`2x + 5y`), for sums.
    pub poly_text: Option<String>,
}

impl GenQuery {
    /// The summand over the generator's own variables (used by the
    /// oracle; the engine gets the parsed text).
    pub fn summand_poly(&self) -> Option<QPoly> {
        self.summand.as_ref().map(|coeffs| {
            let terms: Vec<(VarId, i64)> = self
                .case
                .vars
                .iter()
                .copied()
                .zip(coeffs.iter().copied())
                .collect();
            QPoly::from_affine(&Affine::from_terms(&terms, 0))
        })
    }

    /// The request body (`count {…}` / `sum poly {…}`) with `opts`
    /// inserted after the id.
    pub fn request_line(&self, id: &str, opts: &str) -> String {
        match &self.poly_text {
            None => format!(
                "count {id} {opts}{{{} : {}}}",
                self.vars_text, self.formula_text
            ),
            Some(p) => format!(
                "sum {id} {opts}{p} {{{} : {}}}",
                self.vars_text, self.formula_text
            ),
        }
    }
}

/// Generates `n` distinct queries from the generator stream `stream`
/// (case `i` draws from `Rng::new(stream).fork(i)`, as in the
/// repository's fuzz harness). One in five sums an affine summand with
/// coefficients in `1..=5`, drawn from the same case stream; duplicate
/// queries are skipped, so every query is distinct.
pub fn gen_queries(stream: u64, n: usize, cfg: &GenConfig) -> Vec<GenQuery> {
    let base = Rng::new(stream);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    while out.len() < n {
        let mut rng = base.fork(i as u64);
        let case = generate(&mut rng, cfg);
        let summand = rng.chance(1, 5).then(|| {
            case.vars
                .iter()
                .map(|_| rng.range(1, 5))
                .collect::<Vec<i64>>()
        });
        let formula_text = case.union().to_string(&case.space);
        let vars_text = case
            .vars
            .iter()
            .map(|v| case.space.name(*v).to_string())
            .collect::<Vec<_>>()
            .join(",");
        let index = i;
        i += 1;
        if !seen.insert(format!("{summand:?} {vars_text} {formula_text}")) {
            continue;
        }
        let poly_text = summand.as_ref().map(|c| {
            case.vars
                .iter()
                .zip(c)
                .map(|(v, k)| format!("{k}{}", case.space.name(*v)))
                .collect::<Vec<_>>()
                .join(" + ")
        });
        out.push(GenQuery {
            index,
            case,
            summand,
            vars_text,
            formula_text,
            poly_text,
        });
    }
    out
}

/// The concrete parameter points a case is checked at — the grid of
/// the repository's differential harness: none without symbols,
/// `-3..=4` for one symbol, `-2..=2` squared for two.
pub fn bindings(case: &GenCase) -> Vec<Vec<(String, i64)>> {
    let name = |k: usize| case.space.name(case.symbols[k]).to_string();
    match case.symbols.len() {
        0 => vec![Vec::new()],
        1 => (-3i64..=4).map(|v| vec![(name(0), v)]).collect(),
        _ => {
            let mut out = Vec::new();
            for a in -2i64..=2 {
                for b in -2i64..=2 {
                    let mut bind: Vec<(String, i64)> =
                        (2..case.symbols.len()).map(|k| (name(k), 0)).collect();
                    bind.push((name(0), a));
                    bind.push((name(1), b));
                    out.push(bind);
                }
            }
            out
        }
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// A zipf distribution over ranks `0..n` with exponent `s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative weights `Σ 1/(r+1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draws `n` ranks by systematic sampling — one draw from each of
    /// `n` equal slices of the distribution, at a seeded offset — and
    /// returns them in seeded random order. Every rank appears within
    /// one of its expected count, so the mix of cheap and expensive
    /// requests varies little between seeds while the order and the
    /// rarely drawn ranks do.
    pub fn sample(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        let offset = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let ranks: Vec<usize> = (0..n)
            .map(|k| self.rank((k as f64 + offset) / n as f64))
            .collect();
        shuffled(n, rng).into_iter().map(|i| ranks[i]).collect()
    }
}
