//! Per-layer timings of the traced run: each layer's public function timed
//! at the workload's own shapes and inputs, from the benchmark's side of
//! the API. (Layer metrics that come from the daemons' `/metrics` diff are
//! computed in `main.rs`.)

use crate::stats::median;
use crate::workload::{
    Class, Req, Workload, EVAL_BATCHES, EVAL_SCHEMES, EVAL_SEED, SCHEME, TEACHER_SEED,
};
use crate::{metric, Metric};
use olive_api::{JsonValue, ModelFamily, Pipeline, Scheme};
use olive_core::TensorQuantizer;
use olive_models::{KvStore, StepSlot, TinyTransformer};
use olive_serve::http::{read_request, ReadOutcome};
use olive_serve::{EvalRequest, GenerateRequest, QuantizeRequest};
use olive_tensor::Tensor;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in microseconds.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// A KV store that can be cut back to a prefix, so one decode step can be
/// timed repeatedly at the same context length.
struct RewindKv {
    d: usize,
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl RewindKv {
    fn new(layers: usize, d: usize) -> RewindKv {
        RewindKv {
            d,
            k: vec![Vec::new(); layers],
            v: vec![Vec::new(); layers],
        }
    }

    fn truncate(&mut self, positions: usize) {
        for rows in self.k.iter_mut().chain(self.v.iter_mut()) {
            rows.truncate(positions * self.d);
        }
    }
}

impl KvStore for RewindKv {
    fn append(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        self.k[layer].extend_from_slice(k_row);
        self.v[layer].extend_from_slice(v_row);
    }

    fn k_row(&self, layer: usize, pos: usize) -> &[f32] {
        &self.k[layer][pos * self.d..(pos + 1) * self.d]
    }

    fn v_row(&self, layer: usize, pos: usize) -> &[f32] {
        &self.v[layer][pos * self.d..(pos + 1) * self.d]
    }
}

/// Counts `quantize_dequantize` calls on the way to the real quantizer.
struct Counting<'q> {
    inner: &'q dyn TensorQuantizer,
    calls: AtomicU64,
}

impl TensorQuantizer for Counting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn quantize_dequantize(&self, t: &Tensor) -> Tensor {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.quantize_dequantize(t)
    }

    fn bits_per_element(&self) -> f64 {
        self.inner.bits_per_element()
    }

    fn quantizes_activations(&self) -> bool {
        self.inner.quantizes_activations()
    }
}

/// Median time of one `advance_batch` of `rows` streams whose KV already
/// holds `context` positions.
fn step_us(
    model: &TinyTransformer,
    act: Option<&dyn TensorQuantizer>,
    prompt: &[usize],
    rows: usize,
    context: usize,
) -> f64 {
    let cfg = model.config;
    let mut stores: Vec<RewindKv> = (0..rows)
        .map(|_| RewindKv::new(cfg.n_layers, cfg.d_model))
        .collect();
    for kv in &mut stores {
        for pos in 0..context {
            model.advance_one(act, kv, prompt[pos % prompt.len()], pos);
        }
    }
    time_us(40, || {
        let mut slots: Vec<StepSlot<'_>> = stores
            .iter_mut()
            .map(|kv| StepSlot {
                kv: kv as &mut dyn KvStore,
                token: prompt[0],
                pos: context,
            })
            .collect();
        let logits = model.advance_batch(act, &mut slots);
        drop(slots);
        for kv in &mut stores {
            kv.truncate(context);
        }
        logits
    })
}

/// The bytes `olive_serve::client::Connection` writes for `req`.
fn wire_bytes(req: &Req, body: &str) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\nHost: olive\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
        req.payload.path(),
        body.len(),
    )
    .into_bytes()
}

fn decode(class: Class, json: &JsonValue) -> bool {
    match class {
        Class::Gen => GenerateRequest::decode(json).is_ok(),
        Class::Eval => EvalRequest::decode(json).is_ok(),
        Class::Quantize => QuantizeRequest::decode(json).is_ok(),
    }
}

/// Every benchmark-side layer timing for `workload`; `reqs` is the request
/// stream the timed window sent (its first requests are the sample).
pub fn measure(workload: Workload, reqs: &[Req]) -> Vec<Metric> {
    let shape = workload.gen_shape();
    let mut pipeline = Pipeline::new(ModelFamily::Opt.small())
        .task("generate")
        .schemes([SCHEME])
        .seed(TEACHER_SEED);
    if shape.weights_only {
        pipeline = pipeline.weights_only();
    }
    let scheme = Scheme::parse(SCHEME).expect("registry scheme");
    let quantizer = scheme.build();
    let acts = pipeline.quantizes_activations_with(&scheme);

    let prepare_us = time_us(5, || pipeline.prepare_generation(shape.prompt_tokens));
    let prepared = pipeline.prepare_generation(shape.prompt_tokens);
    let teacher = &prepared.teacher;
    let quantize_weights_us = time_us(5, || teacher.quantize_weights(quantizer.as_ref()));
    let student = teacher.quantize_weights(quantizer.as_ref());
    let act = acts.then_some(quantizer.as_ref());
    let prompt = &prepared.prompt;
    let cfg = teacher.config;

    let counting = Counting {
        inner: quantizer.as_ref(),
        calls: AtomicU64::new(0),
    };
    let counted = acts.then_some(&counting as &dyn TensorQuantizer);
    let mut kv = RewindKv::new(cfg.n_layers, cfg.d_model);
    student.advance_one(counted, &mut kv, prompt[0], 0);
    let calls_per_row = counting.calls.load(Ordering::Relaxed) as f64;

    let student_r1 = step_us(&student, act, prompt, 1, shape.context);
    let student_r2 = step_us(&student, act, prompt, 2, shape.context);
    let teacher_r1 = step_us(teacher, None, prompt, 1, shape.context);
    let teacher_r2 = step_us(teacher, None, prompt, 2, shape.context);
    let student_r2_seq =
        olive_runtime::with_threads(1, || step_us(&student, act, prompt, 2, shape.context));

    let act_input = |rows: usize| {
        let data = crate::workload::matrix(TEACHER_SEED);
        Tensor::from_vec(vec![rows, cfg.d_model], data[..rows * cfg.d_model].to_vec())
    };
    let (a1, a2) = (act_input(1), act_input(2));
    let act_r1 = time_us(200, || quantizer.quantize_dequantize(&a1));
    let act_r2 = time_us(200, || quantizer.quantize_dequantize(&a2));

    // Computed from tensor shapes, not measured: per row, the four
    // projections of each layer, the attention over `context` positions
    // (scores and weighted values) and the LM head; student and teacher
    // each run one such row per stream.
    let (d, ff, vocab) = (cfg.d_model as f64, cfg.d_ff as f64, cfg.vocab as f64);
    let layers = cfg.n_layers as f64;
    let per_row = layers
        * (3.0 * d * d + d * d + 2.0 * d * ff + 2.0 * (shape.context as f64 + 1.0) * d)
        + vocab * d;
    let step_macs = 2.0 * shape.rows as f64 * per_row;
    let weights = layers * (4.0 * d * d + 2.0 * d * ff) + vocab * d;
    let step_weight_bytes = 2.0 * 4.0 * weights;

    let quantize: Vec<QuantizeRequest> = reqs
        .iter()
        .filter(|r| r.payload.class() == Class::Quantize)
        .take(16)
        .map(|r| {
            QuantizeRequest::decode(&JsonValue::parse(&r.body()).expect("JSON"))
                .expect("valid quantize body")
        })
        .collect();
    let quantize_matrix_us = median(
        &quantize
            .iter()
            .map(|q| time_us(3, || q.execute()))
            .collect::<Vec<_>>(),
    );

    let sample: Vec<&Req> = reqs.iter().take(64).collect();
    let mut read_us = Vec::new();
    let mut parse_us = Vec::new();
    let mut decode_us = Vec::new();
    for req in &sample {
        let body = req.body();
        let bytes = wire_bytes(req, &body);
        read_us.push(time_us(5, || {
            let outcome = read_request(&mut Cursor::new(&bytes));
            assert!(
                matches!(outcome, ReadOutcome::Request(_)),
                "request bytes parse"
            );
            outcome
        }));
        parse_us.push(time_us(5, || JsonValue::parse(&body).expect("JSON")));
        let json = JsonValue::parse(&body).expect("JSON");
        let class = req.payload.class();
        decode_us.push(time_us(5, || {
            assert!(decode(class, &json), "request decodes");
        }));
    }

    let prepare_eval_ms = if workload.routed() {
        let eval = Pipeline::new(ModelFamily::Opt.small())
            .task("eval")
            .schemes(EVAL_SCHEMES)
            .seed(EVAL_SEED)
            .batches(EVAL_BATCHES);
        time_us(3, || eval.prepare()) / 1e3
    } else {
        0.0
    };

    vec![
        metric("core.act_quant_us.r1", act_r1, "us"),
        metric("core.act_quant_us.r2", act_r2, "us"),
        metric(
            "core.act_quant_calls_per_step",
            calls_per_row * shape.rows as f64,
            "count",
        ),
        metric("core.quantize_matrix_us", quantize_matrix_us, "us"),
        metric("models.step_us.student_r1", student_r1, "us"),
        metric("models.step_us.student_r2", student_r2, "us"),
        metric("models.step_us.teacher_r1", teacher_r1, "us"),
        metric("models.step_us.teacher_r2", teacher_r2, "us"),
        metric("models.step_macs", step_macs, "MAC"),
        metric("models.step_weight_bytes", step_weight_bytes, "B"),
        metric(
            "runtime.step_par_over_seq",
            student_r2 / student_r2_seq,
            "ratio",
        ),
        metric(
            "models.quantize_weights_ms",
            quantize_weights_us / 1e3,
            "ms",
        ),
        metric("api.prepare_generation_ms", prepare_us / 1e3, "ms"),
        metric("api.prepare_eval_ms", prepare_eval_ms, "ms"),
        metric(
            "serve.http.read_request_us",
            crate::stats::mean(&read_us),
            "us",
        ),
        metric("api.json.parse_us", crate::stats::mean(&parse_us), "us"),
        metric(
            "serve.protocol.decode_us",
            crate::stats::mean(&decode_us),
            "us",
        ),
    ]
}
