//! The load generator: closed-loop clients, each a thread that owns one
//! kept-alive connection, sends its sequence one request at a time and
//! records what it saw. Nothing is checked here (the oracle runs after the
//! window).

use crate::stats::fnv1a;
use crate::workload::{Class, Req};
use olive_serve::client::{Connection, Timeouts};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one request saw. Times are milliseconds.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index into the request list the oracle checks against.
    pub req: usize,
    pub status: u16,
    pub body_hash: u64,
    /// Sent → last byte.
    pub latency_ms: f64,
    /// Sent → first step chunk (streams only).
    pub ttft_ms: Option<f64>,
    /// Gaps between consecutive step chunks.
    pub itl_ms: Vec<f64>,
    pub steps: usize,
    pub agree: usize,
    /// The `mse` field of a `/v1/quantize` answer.
    pub mse: Option<f64>,
    /// Seconds after the window opened at which the last byte arrived.
    pub done_s: f64,
}

/// Step chunks are the fragments `{"token": …, "teacher_token": …,
/// "agree": …}`; the head, scheme head and tails carry no token.
fn is_step_chunk(chunk: &str) -> bool {
    chunk.contains("{\"token\": ")
}

fn field_f64(body: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\": ");
    let start = body.find(&key)? + key.len();
    let rest = &body[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends one request and records it; `window` is when the window opened.
fn send(
    conn: &mut Connection,
    index: usize,
    req: &Req,
    body: &str,
    window: Instant,
) -> Result<Record, String> {
    let mut chunk_at: Vec<Instant> = Vec::new();
    let sent = Instant::now();
    let response = {
        let mut sink = |chunk: &str| {
            if is_step_chunk(chunk) {
                chunk_at.push(Instant::now());
            }
            Ok(())
        };
        conn.request_with_sink("POST", req.payload.path(), Some(body), &mut sink)
    }
    .map_err(|e| format!("{} request {index}: {e}", req.payload.path()))?;
    let done = Instant::now();
    let body = &response.body;
    let (steps, agree) = match &response.chunks {
        Some(chunks) => {
            let steps: Vec<&String> = chunks.iter().filter(|c| is_step_chunk(c)).collect();
            let agree = steps
                .iter()
                .filter(|c| c.contains("\"agree\": true"))
                .count();
            (steps.len(), agree)
        }
        None => (0, 0),
    };
    Ok(Record {
        req: index,
        status: response.status,
        body_hash: fnv1a(body.as_bytes()),
        latency_ms: ms(done - sent),
        ttft_ms: chunk_at.first().map(|&t| ms(t - sent)),
        itl_ms: chunk_at.windows(2).map(|w| ms(w[1] - w[0])).collect(),
        steps,
        agree,
        mse: (req.payload.class() == Class::Quantize)
            .then(|| field_f64(body, "mse"))
            .flatten(),
        done_s: (done - window).as_secs_f64(),
    })
}

fn open(addr: SocketAddr) -> Result<Connection, String> {
    Connection::open_with(addr, Timeouts::uniform(Duration::from_secs(30)))
        .map_err(|e| format!("connecting to {addr}: {e}"))
}

/// Closed loop: client `c` sends `streams[c]` in order, each request after
/// the previous answer. With `seconds`, it starts no request after that
/// many seconds, and running out of requests before then is an error;
/// without, it sends its whole sequence. Request indices are global:
/// client `c`'s `i`-th request is `offsets[c] + i`.
pub fn closed_loop(
    addr: SocketAddr,
    streams: &[Vec<Req>],
    seconds: Option<f64>,
) -> Result<Vec<Record>, String> {
    let window = Instant::now();
    let deadline = seconds.map(|s| window + Duration::from_secs_f64(s));
    let offsets: Vec<usize> = streams
        .iter()
        .scan(0, |acc, s| {
            let start = *acc;
            *acc += s.len();
            Some(start)
        })
        .collect();
    let results: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&offsets)
            .map(|(stream, &offset)| {
                scope.spawn(move || {
                    let mut conn = open(addr)?;
                    let mut records = Vec::new();
                    for (i, req) in stream.iter().enumerate() {
                        let body = req.body();
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            return Ok(records);
                        }
                        records.push(send(&mut conn, offset + i, req, &body, window)?);
                    }
                    match deadline {
                        Some(_) => {
                            Err("a client exhausted its request sequence inside the window"
                                .to_string())
                        }
                        None => Ok(records),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Sends each request to `a` and then to `b`, over one kept-alive
/// connection to each, so the two paths are timed under the same
/// conditions.
pub fn alternate(
    a: SocketAddr,
    b: SocketAddr,
    reqs: &[Req],
) -> Result<(Vec<Record>, Vec<Record>), String> {
    let (mut conn_a, mut conn_b) = (open(a)?, open(b)?);
    let window = Instant::now();
    let mut on_a = Vec::new();
    let mut on_b = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let body = req.body();
        on_a.push(send(&mut conn_a, i, req, &body, window)?);
        on_b.push(send(&mut conn_b, i, req, &body, window)?);
    }
    Ok((on_a, on_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_chunks_and_fields_are_recognised() {
        assert!(is_step_chunk(
            ",\n        {\"token\": 3, \"teacher_token\": 3, \"agree\": true}"
        ));
        assert!(!is_step_chunk("{\n  \"model\": \"OPT\",\n  \"results\": ["));
        let body = "{\n  \"mse\": 0.0125,\n  \"max_abs_err\": 1}";
        assert_eq!(field_f64(body, "mse"), Some(0.0125));
        assert_eq!(field_f64(body, "max_abs_err"), Some(1.0));
        assert_eq!(field_f64(body, "missing"), None);
    }
}
