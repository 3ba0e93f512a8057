//! Oracle verdicts: how one operation ended, judged against a value the
//! engine did not compute.
//!
//! Every workload reduces an engine answer to an [`Answer`] (values at
//! the check points, brackets, an error or a shed) and compares it with
//! the oracle's values. Judging happens after the measured phase, so
//! it never sits inside a timed region.

use presburger::arith::{Int, Rat};
use presburger::counting::{CountError, Outcome, Symbolic};

/// How one operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verdict {
    /// An exact answer equal to the oracle at every check point.
    Exact,
    /// A §4.6 bracket containing the oracle value at every check point.
    Bounded,
    /// The engine or the server returned an error.
    Error,
    /// The server shed the request.
    Shed,
    /// An exact answer that disagrees with the oracle somewhere.
    Wrong,
    /// A bracket that misses the oracle value somewhere.
    MissedBracket,
    /// A reply that does not parse, or that answers another request id.
    BadReply,
}

impl Verdict {
    /// Whether the operation counts as failed (anything but a correct
    /// exact answer or a bracket that holds).
    pub fn failed(self) -> bool {
        !matches!(self, Verdict::Exact | Verdict::Bounded)
    }

    /// Whether the answer contradicts the oracle (as opposed to an
    /// error or shed, which answer nothing).
    pub fn disagrees(self) -> bool {
        matches!(self, Verdict::Wrong | Verdict::MissedBracket)
    }

    /// One-letter code used in outcome vectors.
    pub fn code(self) -> char {
        match self {
            Verdict::Exact => 'E',
            Verdict::Bounded => 'B',
            Verdict::Error => 'R',
            Verdict::Shed => 'S',
            Verdict::Wrong => 'W',
            Verdict::MissedBracket => 'M',
            Verdict::BadReply => 'I',
        }
    }

    /// The outcome class compared across runs: what the program said,
    /// before it is judged (exact / bounded / error / shed).
    pub fn class(self) -> char {
        match self {
            Verdict::Exact | Verdict::Wrong => 'x',
            Verdict::Bounded | Verdict::MissedBracket => 'b',
            Verdict::Error | Verdict::BadReply => 'e',
            Verdict::Shed => 's',
        }
    }
}

/// An engine answer reduced to concrete values at the check points.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// One value per check point.
    Exact(Vec<Rat>),
    /// One `(lower, upper)` pair per check point.
    Bounded(Vec<(Rat, Rat)>),
    /// An error, with its kind.
    Error(String),
    /// A shed reply.
    Shed,
    /// A malformed reply or one carrying another id.
    BadReply(String),
}

/// Judges `answer` against the oracle values `want` (one per point).
pub fn judge(answer: &Answer, want: &[Rat]) -> Verdict {
    match answer {
        Answer::Exact(got) => {
            if got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g == w) {
                Verdict::Exact
            } else {
                Verdict::Wrong
            }
        }
        Answer::Bounded(br) => {
            if br.len() == want.len() && br.iter().zip(want).all(|((lo, hi), w)| lo <= w && w <= hi)
            {
                Verdict::Bounded
            } else {
                Verdict::MissedBracket
            }
        }
        Answer::Error(_) => Verdict::Error,
        Answer::Shed => Verdict::Shed,
        Answer::BadReply(_) => Verdict::BadReply,
    }
}

/// Evaluates a symbolic answer at each binding.
pub fn eval_at(sym: &Symbolic, bindings: &[Vec<(String, i64)>]) -> Result<Vec<Rat>, String> {
    bindings
        .iter()
        .map(|b| {
            let refs: Vec<(&str, i64)> = b.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            sym.try_eval_rat(&refs).map_err(|e| format!("eval: {e}"))
        })
        .collect()
}

/// Reduces a governed library outcome to an [`Answer`] by evaluating it
/// at each binding. A symbolic answer that cannot be evaluated at a
/// check point is reported as an error.
pub fn answer_from_outcome(
    out: &Result<Outcome, CountError>,
    bindings: &[Vec<(String, i64)>],
) -> Answer {
    let answer = match out {
        Ok(Outcome::Exact(sym)) => eval_at(sym, bindings).map(Answer::Exact),
        Ok(Outcome::Bounded { lower, upper, .. }) => eval_at(lower, bindings)
            .and_then(|lo| Ok(lo.into_iter().zip(eval_at(upper, bindings)?).collect()))
            .map(Answer::Bounded),
        Err(e) => Ok(Answer::Error(e.kind().to_string())),
    };
    answer.unwrap_or_else(Answer::Error)
}

/// Parses a rational rendered by the server (`7`, `-3`, `15/2`).
pub fn parse_rat(text: &str) -> Option<Rat> {
    let (num, den) = match text.split_once('/') {
        Some((n, d)) => (n.trim().parse::<Int>().ok()?, d.trim().parse::<Int>().ok()?),
        None => (text.trim().parse::<Int>().ok()?, Int::from(1)),
    };
    if den.is_zero() {
        return None;
    }
    Some(Rat::new(num, den))
}

/// Parses one text-protocol reply to a symbol-free query sent with id
/// `id` (see `presburger_serve::protocol` for the grammar).
pub fn parse_reply(line: &str, id: &str) -> Answer {
    let mut toks = line.split_whitespace();
    let head = toks.next().unwrap_or("");
    let reply_id = toks.next().unwrap_or("");
    if reply_id != id {
        return Answer::BadReply(format!(
            "reply for id {reply_id:?}, expected {id:?}: {line}"
        ));
    }
    let rest: Vec<&str> = toks.collect();
    match head {
        "OK" => match rest.as_slice() {
            ["exact", v] => match parse_rat(v) {
                Some(v) => Answer::Exact(vec![v]),
                None => Answer::BadReply(format!("unparsable value: {line}")),
            },
            ["bounded", _why, lo, ";", hi] => match (parse_rat(lo), parse_rat(hi)) {
                (Some(lo), Some(hi)) => Answer::Bounded(vec![(lo, hi)]),
                _ => Answer::BadReply(format!("unparsable bracket: {line}")),
            },
            _ => Answer::BadReply(format!("unexpected OK payload: {line}")),
        },
        "ERR" => Answer::Error(rest.first().copied().unwrap_or("").to_string()),
        "SHED" => Answer::Shed,
        _ => Answer::BadReply(format!("unexpected reply: {line}")),
    }
}

/// Judges one server reply against the oracle value of its query.
pub fn judge_reply(line: &str, id: &str, want: &Rat) -> Verdict {
    judge(&parse_reply(line, id), std::slice::from_ref(want))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rationals() {
        assert_eq!(parse_rat("7"), Some(Rat::from(7)));
        assert_eq!(
            parse_rat("-15/2"),
            Some(Rat::new(Int::from(-15), Int::from(2)))
        );
        assert_eq!(parse_rat("1/0"), None);
        assert_eq!(parse_rat("x"), None);
    }
}
