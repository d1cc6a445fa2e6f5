//! The output oracle: every response body must equal, byte for byte, the
//! direct path the serving determinism contract names —
//!
//! * generate: `Pipeline::generation(GenOptions…).without_wall_times().to_json()`
//! * eval: `Pipeline::run().without_wall_times().to_json()`
//! * quantize: `QuantizeRequest::execute`
//!
//! The pipelines are built from the workload's own parameters, not from the
//! server's request decoder, so a decoder that drifted from the contract
//! fails here too. Bodies are compared by 64-bit FNV-1a hash.

use crate::drive::Record;
use crate::stats::fnv1a;
use crate::workload::{Payload, Req, EVAL_BATCHES, EVAL_SEED, SCHEME, TEACHER_SEED};
use olive_api::{GenOptions, JsonValue, ModelFamily, Pipeline};
use std::collections::{HashMap, HashSet};

/// The direct-path body for one request.
pub fn expected_body(req: &Req) -> String {
    match &req.payload {
        Payload::Gen {
            prompt_tokens,
            max_new_tokens,
            weights_only,
        } => {
            let mut pipeline = Pipeline::new(ModelFamily::Opt.small())
                .task("generate")
                .schemes([SCHEME])
                .seed(TEACHER_SEED);
            if *weights_only {
                pipeline = pipeline.weights_only();
            }
            pipeline
                .generation(
                    GenOptions::new()
                        .prompt_tokens(*prompt_tokens)
                        .max_new_tokens(*max_new_tokens),
                )
                .without_wall_times()
                .to_json()
        }
        Payload::Eval { scheme } => Pipeline::new(ModelFamily::Opt.small())
            .task("eval")
            .schemes([*scheme])
            .seed(EVAL_SEED)
            .batches(EVAL_BATCHES)
            .run()
            .without_wall_times()
            .to_json(),
        Payload::Quantize { .. } => {
            let json = JsonValue::parse(&req.body()).expect("stream bodies are JSON");
            olive_serve::QuantizeRequest::decode(&json)
                .expect("stream quantize bodies are valid")
                .execute()
        }
    }
}

/// Checks every record against the direct path. Identical requests share
/// one direct computation; distinct ones are spread over `threads`.
/// Returns how many records passed (status 200 and the expected bytes).
pub fn check(reqs: &[Req], records: &[Record], threads: usize) -> usize {
    let mut distinct: Vec<usize> = Vec::new();
    let mut seen: HashSet<&Payload> = HashSet::new();
    for r in records {
        if seen.insert(&reqs[r.req].payload) {
            distinct.push(r.req);
        }
    }
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    let expected: HashMap<&Payload, u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let req = &reqs[i];
                            (&req.payload, fnv1a(expected_body(req).as_bytes()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    records
        .iter()
        .filter(|r| r.status == 200 && expected[&reqs[r.req].payload] == r.body_hash)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn record(req: usize, body: &str) -> Record {
        Record {
            req,
            status: 200,
            body_hash: fnv1a(body.as_bytes()),
            latency_ms: 1.0,
            ttft_ms: None,
            itl_ms: Vec::new(),
            steps: 0,
            agree: 0,
            mse: None,
            done_s: 0.0,
        }
    }

    #[test]
    fn oracle_rejects_a_body_with_one_byte_flipped() {
        let reqs = crate::workload::follow_up(Workload::ChatWa, 9);
        let good = expected_body(&reqs[0]);
        let mut flipped = good.clone().into_bytes();
        let at = flipped.len() / 2;
        flipped[at] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("ASCII body");
        assert_eq!(check(&reqs, &[record(0, &good)], 1), 1);
        assert_eq!(check(&reqs, &[record(0, &flipped)], 1), 0);
        let mut refused = record(0, &good);
        refused.status = 503;
        assert_eq!(check(&reqs, &[refused], 1), 0, "a non-200 never passes");
    }

    #[test]
    fn generation_oracle_matches_a_served_stream() {
        let (stack, _) = crate::stack::Stack::start(Workload::ChatWa, false).unwrap();
        let reqs = crate::workload::closed_streams(Workload::ChatWa, 1, 1)
            .into_iter()
            .flatten()
            .take(2)
            .collect::<Vec<_>>();
        let records = crate::drive::closed_loop(stack.target(), &[reqs.clone()], None).unwrap();
        stack.shutdown();
        assert_eq!(check(&reqs, &records, 2), 2);
    }
}
