//! The three workloads and the seeded request streams they send. The
//! servers see only the rendered request bodies; every parameter that is
//! not drawn from the seed is a constant here, so the same seed always
//! yields a byte-identical stream.

use crate::stats::Rng;

/// Teacher/prompt seed of every generation request. Fixed, not drawn from
/// the workload seed: a different teacher changes `token_agreement` and
/// the prompt, and both must stay comparable across seeds.
pub const TEACHER_SEED: u64 = 7;
/// Model seed of the `/v1/eval` configurations.
pub const EVAL_SEED: u64 = 11;
/// Calibration batches of the `/v1/eval` configurations.
pub const EVAL_BATCHES: usize = 2;
/// The handful of `/v1/eval` configurations `unary_routed` repeats. They
/// share one preparation (one routing key) and differ in scheme only.
pub const EVAL_SCHEMES: [&str; 4] = ["olive-4bit", "olive-8bit", "ant:4bit", "uniform:4"];
/// Scheme of every generation and quantize request.
pub const SCHEME: &str = "olive-4bit";
/// Side of the square `/v1/quantize` matrices.
pub const MATRIX: usize = 64;
/// Quantize requests sent after the window of the generation workloads;
/// `quant_mse` is the mean over this many answers on every workload.
pub const PROBE_MATRICES: usize = 600;
/// New tokens of each of `unary_routed`'s routed streams.
const ROUTED_NEW_TOKENS: usize = 16;
/// One block of `unary_routed`'s request sequence: `BLOCK_STREAMS` routed
/// streams, `BLOCK_EVALS` cached evals and `BLOCK_QUANTIZES` fresh matrices
/// (70% / 30% of the unary requests), in a seeded order within the block.
/// Two streams per block give a traced run's half-length phase more than
/// 10 time-to-first-token samples beyond p90 even on a slow host.
const BLOCK_STREAMS: usize = 2;
const BLOCK_EVALS: usize = 14;
const BLOCK_QUANTIZES: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChatWa,
    PrefillLong,
    UnaryRouted,
}

/// The generation shape a workload drives, for the per-layer timings.
#[derive(Debug, Clone, Copy)]
pub struct GenShape {
    pub prompt_tokens: usize,
    pub weights_only: bool,
    /// Rows merged into one decode tick (concurrent streams).
    pub rows: usize,
    /// A representative KV length of a tick (where most ticks run).
    pub context: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ChatWa,
        Workload::PrefillLong,
        Workload::UnaryRouted,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatWa => "chat_wa",
            Workload::PrefillLong => "prefill_long",
            Workload::UnaryRouted => "unary_routed",
        }
    }

    pub fn routed(self) -> bool {
        self == Workload::UnaryRouted
    }

    /// Client threads, each with one kept-alive connection (never more
    /// than the two cores of the reference machine).
    pub fn clients(self) -> usize {
        match self {
            Workload::ChatWa => 2,
            Workload::PrefillLong | Workload::UnaryRouted => 1,
        }
    }

    pub fn gen_shape(self) -> GenShape {
        match self {
            // Prompt 16, 32..96 new tokens: ticks run at ~16 + 32 positions.
            Workload::ChatWa => GenShape {
                prompt_tokens: 16,
                weights_only: false,
                rows: 2,
                context: 48,
            },
            // Ticks are prompt feeds; the middle of the prompt is typical.
            Workload::PrefillLong => GenShape {
                prompt_tokens: 128,
                weights_only: true,
                rows: 1,
                context: 64,
            },
            // The routed streams: 64 prompt feeds, then 16 new tokens.
            Workload::UnaryRouted => GenShape {
                prompt_tokens: 64,
                weights_only: false,
                rows: 1,
                context: 40,
            },
        }
    }

    /// Requests that fill every cache the timed phase hits. The generation
    /// warm-ups decode one token: `max_new_tokens` is not part of any
    /// cache key.
    pub fn warmup(self) -> Vec<Payload> {
        let shape = self.gen_shape();
        let gen = Payload::Gen {
            prompt_tokens: shape.prompt_tokens,
            max_new_tokens: 1,
            weights_only: shape.weights_only,
        };
        match self {
            Workload::ChatWa | Workload::PrefillLong => vec![gen],
            Workload::UnaryRouted => {
                let mut warm: Vec<Payload> = EVAL_SCHEMES
                    .iter()
                    .map(|&scheme| Payload::Eval { scheme })
                    .collect();
                warm.push(gen);
                warm.push(Payload::Quantize {
                    matrix_seed: u64::MAX,
                });
                warm
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Gen,
    Eval,
    Quantize,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    Gen {
        prompt_tokens: usize,
        max_new_tokens: usize,
        weights_only: bool,
    },
    Eval {
        scheme: &'static str,
    },
    Quantize {
        matrix_seed: u64,
    },
}

impl Payload {
    pub fn class(&self) -> Class {
        match self {
            Payload::Gen { .. } => Class::Gen,
            Payload::Eval { .. } => Class::Eval,
            Payload::Quantize { .. } => Class::Quantize,
        }
    }

    pub fn path(&self) -> &'static str {
        match self {
            Payload::Gen { .. } => "/v1/generate",
            Payload::Eval { .. } => "/v1/eval",
            Payload::Quantize { .. } => "/v1/quantize",
        }
    }

    pub fn body(&self) -> String {
        match self {
            Payload::Gen {
                prompt_tokens,
                max_new_tokens,
                weights_only,
            } => format!(
                "{{\"family\": \"opt\", \"size\": \"small\", \"scheme\": \"{SCHEME}\", \
                 \"seed\": {TEACHER_SEED}, \"prompt_tokens\": {prompt_tokens}, \
                 \"max_new_tokens\": {max_new_tokens}, \"weights_only\": {weights_only}, \
                 \"task\": \"generate\"}}"
            ),
            Payload::Eval { scheme } => format!(
                "{{\"family\": \"opt\", \"size\": \"small\", \"scheme\": \"{scheme}\", \
                 \"seed\": {EVAL_SEED}, \"batches\": {EVAL_BATCHES}, \"task\": \"eval\"}}"
            ),
            Payload::Quantize { matrix_seed } => {
                let values: Vec<String> = matrix(*matrix_seed)
                    .iter()
                    .map(|x| format!("{x:.4}"))
                    .collect();
                format!(
                    "{{\"scheme\": \"{SCHEME}\", \"rows\": {MATRIX}, \"cols\": {MATRIX}, \
                     \"data\": [{}]}}",
                    values.join(", ")
                )
            }
        }
    }
}

/// A `MATRIX`×`MATRIX` Gaussian matrix with 1% planted outliers of 20–60σ
/// at seeded positions, the activation statistics OliVe targets. The
/// outlier count is exact: it sets most of the quantization error, so a
/// drawn count would make `quant_mse` swing with the seed.
pub fn matrix(seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    let mut values: Vec<f32> = (0..MATRIX * MATRIX).map(|_| rng.normal() as f32).collect();
    let mut positions: Vec<usize> = (0..values.len()).collect();
    rng.shuffle(&mut positions);
    for &at in &positions[..values.len().div_ceil(100)] {
        let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
        values[at] = (sign * (20.0 + 40.0 * rng.unit())) as f32;
    }
    values
}

/// One request of a stream. The body is rendered just before it is sent:
/// the quantize bodies of a whole window would otherwise sit in memory and
/// dominate `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Req {
    pub payload: Payload,
    /// The client connection that sends it.
    pub conn: usize,
}

impl Req {
    fn new(payload: Payload, conn: usize) -> Req {
        Req { payload, conn }
    }

    pub fn body(&self) -> String {
        self.payload.body()
    }
}

/// The per-client request sequences of a closed-loop workload, long enough
/// that no client can exhaust its sequence within `seconds`.
pub fn closed_streams(workload: Workload, seed: u64, seconds: u64) -> Vec<Vec<Req>> {
    let shape = workload.gen_shape();
    (0..workload.clients())
        .map(|client| match workload {
            Workload::ChatWa => {
                // max_new_tokens in 32..96, stratified: each block of 8
                // requests takes one value from each 8-wide stratum, so the
                // mean output length (and with it the throughput) does not
                // drift with the seed.
                let mut rng = Rng::lane(seed, client as u64);
                let count = seconds as usize * 25 + 16;
                let mut out = Vec::with_capacity(count);
                while out.len() < count {
                    let mut strata: Vec<usize> = (0..8).collect();
                    rng.shuffle(&mut strata);
                    for stratum in strata {
                        let payload = Payload::Gen {
                            prompt_tokens: shape.prompt_tokens,
                            max_new_tokens: 32 + 8 * stratum + rng.below(8),
                            weights_only: false,
                        };
                        out.push(Req::new(payload, client));
                    }
                }
                out
            }
            Workload::PrefillLong => {
                let req = Req::new(
                    Payload::Gen {
                        prompt_tokens: shape.prompt_tokens,
                        max_new_tokens: 4,
                        weights_only: true,
                    },
                    client,
                );
                vec![req; seconds as usize * 60 + 16]
            }
            Workload::UnaryRouted => routed_blocks(seed, seconds),
        })
        .collect()
}

/// The one client sequence of `unary_routed`, in blocks of `BLOCK_STREAMS`
/// routed streams, `BLOCK_EVALS` `/v1/eval` repeats over `EVAL_SCHEMES`
/// (response-cache hits after warm-up) and `BLOCK_QUANTIZES` `/v1/quantize`
/// requests of fresh seeded matrices, shuffled within the block.
///
/// Every class is spread evenly over the whole run, so each samples every
/// speed the host runs at, and the class shares are exact at every block
/// boundary: the unary latency p50 sits inside the eval class and p90
/// inside the quantize class for every seed.
fn routed_blocks(seed: u64, seconds: u64) -> Vec<Req> {
    let shape = Workload::UnaryRouted.gen_shape();
    let stream = Payload::Gen {
        prompt_tokens: shape.prompt_tokens,
        max_new_tokens: ROUTED_NEW_TOKENS,
        weights_only: false,
    };
    let mut rng = Rng::lane(seed, 100);
    // A block takes ~210 ms on the reference machine; 20 blocks per second
    // leave a client on a four times faster machine requests to spare.
    let blocks = seconds as usize * 20 + 16;
    let mut out = Vec::with_capacity(blocks * (BLOCK_STREAMS + BLOCK_EVALS + BLOCK_QUANTIZES));
    for _ in 0..blocks {
        let mut classes = vec![Class::Gen; BLOCK_STREAMS];
        classes.extend([Class::Eval; BLOCK_EVALS]);
        classes.extend([Class::Quantize; BLOCK_QUANTIZES]);
        rng.shuffle(&mut classes);
        for class in classes {
            let payload = match class {
                Class::Gen => stream.clone(),
                Class::Eval => Payload::Eval {
                    scheme: EVAL_SCHEMES[rng.below(EVAL_SCHEMES.len())],
                },
                Class::Quantize => Payload::Quantize {
                    matrix_seed: rng.next_u64(),
                },
            };
            out.push(Req::new(payload, 0));
        }
    }
    out
}

/// What a workload sends after its window, on one connection: the
/// generation workloads send `PROBE_MATRICES` seeded quantize requests back
/// to back, so `quant_mse` is measured on every workload. `unary_routed`
/// sends its quantize requests inside the window and sends nothing after.
pub fn follow_up(workload: Workload, seed: u64) -> Vec<Req> {
    if workload.routed() {
        return Vec::new();
    }
    let mut rng = Rng::lane(seed, 200);
    (0..PROBE_MATRICES)
        .map(|_| {
            Req::new(
                Payload::Quantize {
                    matrix_seed: rng.next_u64(),
                },
                0,
            )
        })
        .collect()
}

/// Every byte a workload sends for `seed`, in order — what the stream
/// tests compare.
#[cfg(test)]
pub fn stream_bytes(workload: Workload, seed: u64, seconds: u64) -> Vec<u8> {
    let reqs = closed_streams(workload, seed, seconds)
        .concat()
        .into_iter()
        .chain(follow_up(workload, seed));
    let mut out = Vec::new();
    for r in reqs {
        out.extend_from_slice(format!("{} {}\n", r.conn, r.payload.path()).as_bytes());
        out.extend_from_slice(r.body().as_bytes());
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = stream_bytes(w, 1, 2);
            assert_eq!(a, stream_bytes(w, 1, 2), "{}: same seed", w.name());
            assert_ne!(a, stream_bytes(w, 2, 2), "{}: other seed", w.name());
        }
    }

    #[test]
    fn chat_lengths_are_stratified() {
        let streams = closed_streams(Workload::ChatWa, 3, 1);
        for stream in streams {
            for block in stream.chunks(8) {
                let mut strata: Vec<usize> = block
                    .iter()
                    .map(|r| match r.payload {
                        Payload::Gen { max_new_tokens, .. } => (max_new_tokens - 32) / 8,
                        _ => unreachable!(),
                    })
                    .collect();
                strata.sort_unstable();
                assert_eq!(strata, (0..8).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn routed_blocks_hold_exact_class_counts() {
        let reqs = routed_blocks(5, 1);
        let block = BLOCK_STREAMS + BLOCK_EVALS + BLOCK_QUANTIZES;
        assert_eq!(reqs.len() % block, 0);
        for chunk in reqs.chunks(block) {
            let count = |class| chunk.iter().filter(|r| r.payload.class() == class).count();
            assert_eq!(count(Class::Gen), BLOCK_STREAMS);
            assert_eq!(count(Class::Eval), BLOCK_EVALS);
            assert_eq!(count(Class::Quantize), BLOCK_QUANTIZES);
        }
    }
}
