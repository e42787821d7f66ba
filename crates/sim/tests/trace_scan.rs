//! Agreement of the trace-line fast path with the generic JSON parser:
//! `parse_trace_line` must return the same job, bit for bit, or the same
//! error message as `serde_json::from_str::<Job>` followed by the trace
//! schema's validity checks — for well-formed lines, re-spaced and
//! re-ordered ones, and arbitrary byte mutations of all of them.

use mflb_sim::{parse_trace_line, Job, ServeError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference implementation: the generic `serde_json` path plus the
/// schema checks, exactly as `parse_trace_line` behaved before it grew a
/// scanner.
fn reference(raw: &str, lineno: usize, last_t: f64) -> Result<Option<Job>, ServeError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let job: Job = serde_json::from_str(line)
        .map_err(|source| ServeError::TraceParse { line: lineno, source })?;
    if !(job.t.is_finite() && job.t >= 0.0) {
        return Err(ServeError::ArrivalTime { line: lineno, t: job.t });
    }
    if job.t < last_t {
        return Err(ServeError::ArrivalOrder { line: lineno, t: job.t, last_t });
    }
    if !(job.size > 0.0 && job.size.is_finite()) {
        return Err(ServeError::JobSize { line: lineno, size: job.size });
    }
    Ok(Some(job))
}

/// A comparable rendering of a parse outcome: job bits or error text.
fn outcome(r: Result<Option<Job>, ServeError>) -> Result<Option<(u64, u64)>, String> {
    r.map(|j| j.map(|j| (j.t.to_bits(), j.size.to_bits()))).map_err(|e| e.to_string())
}

fn assert_agrees(line: &str, last_t: f64) {
    assert_eq!(
        outcome(parse_trace_line(line, 7, last_t)),
        outcome(reference(line, 7, last_t)),
        "line {line:?} (last_t {last_t})"
    );
}

/// A finite f64 from one of the shapes a trace holds: ordinary
/// magnitudes, integral values, subnormals, the extremes, signed zeros
/// and raw bit patterns.
fn finite(rng: &mut StdRng) -> f64 {
    let x = match rng.gen_range(0..8) {
        0 => rng.gen_range(0.0f64..100.0),
        1 => rng.gen_range(0u64..1 << 54) as f64,
        2 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
        3 => [0.0, -0.0, f64::MAX, f64::MIN_POSITIVE, 5e-324, 1e21, 1e-7][rng.gen_range(0..7usize)],
        4 => -rng.gen_range(0.0f64..10.0),
        5 => rng.gen_range(0.0f64..1.0).powi(rng.gen_range(1..40)) * 1e-100,
        _ => f64::from_bits(rng.gen()),
    };
    if x.is_finite() {
        x
    } else {
        1.5
    }
}

/// `x` written the way a trace producer might: `Job::to_jsonl`'s shortest
/// round-trip form, plain `{}` (no `.0` on integral values), or an
/// exponent.
fn number_text(x: f64, rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => format!("{x}"),
        1 => format!("{x:e}"),
        2 => format!("{x:E}"),
        _ => format!("{x:?}"),
    }
}

/// JSON whitespace (occasionally a non-JSON space the parser rejects).
fn ws(rng: &mut StdRng) -> String {
    let n = [0, 0, 1, 1, 2, 3][rng.gen_range(0..6usize)];
    (0..n).map(|_| [" ", " ", "\t", "\r", "\n", "\u{a0}"][rng.gen_range(0..6usize)]).collect()
}

/// One trace line for `job`: compact via `to_jsonl`, or re-spaced with
/// either key order and a random number spelling.
fn line_for(job: Job, rng: &mut StdRng) -> String {
    if rng.gen_bool(0.3) {
        return job.to_jsonl();
    }
    let mut fields =
        [("t", number_text(job.t, rng)), ("size", number_text(job.size, rng))].to_vec();
    if rng.gen_bool(0.25) {
        fields.swap(0, 1);
    }
    let mut out = format!("{}{{", ws(rng));
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out += &format!("{},", ws(rng));
        }
        out += &format!("{}\"{key}\"{}:{}{value}", ws(rng), ws(rng), ws(rng));
    }
    out + &format!("{}}}{}", ws(rng), ws(rng))
}

/// Random byte edits — replace, insert, delete — drawn mostly from the
/// schema's own alphabet, then repaired to valid UTF-8.
fn mutate(line: &str, rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"{}\":,.-+eE0123456789tsize \t\r\n#\\u[]ntf";
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4) {
        let b =
            if rng.gen_bool(0.9) { ALPHABET[rng.gen_range(0..ALPHABET.len())] } else { rng.gen() };
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..3) {
            0 if at < bytes.len() => bytes[at] = b,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, b),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fast_path_agrees_with_the_generic_parser(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let job = Job { t: finite(&mut rng), size: finite(&mut rng) };
            let last_t = if rng.gen_bool(0.5) { 0.0 } else { finite(&mut rng).abs() };
            let line = line_for(job, &mut rng);
            assert_agrees(&line, last_t);
            assert_agrees(&mutate(&line, &mut rng), last_t);
        }
    }
}
