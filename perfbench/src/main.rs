//! `perfbench`: the serving benchmark of the OliVe workspace.
//!
//! ```text
//! perfbench --workload <chat_wa|prefill_long|unary_routed> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Starts the real `olive-serve` (and, for `unary_routed`, `olive-router`
//! over two workers) in-process, drives it with the workload's seeded
//! closed-loop request sequences for `--seconds`, byte-checks every response against the
//! direct pipeline path, checks that the daemons' own counters add up, and
//! prints its metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `BENCHMARK.md` for the glossary and the layer → metric map.

mod drive;
mod layers;
mod oracle;
mod stack;
mod stats;
mod workload;

use drive::Record;
use stack::{family_sum, router_delta, worker_delta, Scrape, Stack};
use stats::{mean, median, percentile, Pct};
use workload::{Class, Req, Workload};

/// Set-ups per run: at least this many, over at least `SETUP_MIN_SECONDS`;
/// `setup_s` is their median. A fast set-up (`prefill_long`'s ~0.1 s) is
/// repeated until its median samples a few seconds of the host, not one
/// burst that falls into one of its speed states.
const SETUP_REPEATS: usize = 9;
const SETUP_MIN_SECONDS: f64 = 4.0;
/// `token_agreement` is taken over the first this-many generation requests
/// of each connection, which every run completes, so it repeats exactly
/// for a seed however fast the run was. (`quant_mse` likewise takes the
/// first `workload::PROBE_MATRICES` quantize answers.)
const AGREEMENT_REQUESTS: usize = 4;
/// Eval requests sampled (routed and direct, alternating) for the relay cost.
const RELAY_SAMPLES: usize = 60;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: perfbench --workload <chat_wa|prefill_long|unary_routed> \
                 --seed <n> --seconds <n> --trace <0|1>";
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'\n{usage}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => match value.parse() {
                Ok(n) if (1..=600).contains(&n) => seconds = Some(n),
                _ => return Err(format!("--seconds must be in 1..=600, got '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
            },
            other => return Err(format!("unknown argument '{other}'\n{usage}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("missing --workload\n{usage}"))?,
        seed: seed.ok_or_else(|| format!("missing --seed\n{usage}"))?,
        seconds: seconds.ok_or_else(|| format!("missing --seconds\n{usage}"))?,
        trace: trace.ok_or_else(|| format!("missing --trace\n{usage}"))?,
    })
}

/// One reported number.
pub(crate) struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count, for percentiles.
    n: Option<usize>,
}

pub(crate) fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        n: None,
    }
}

fn pct_metric(name: &'static str, pct: Pct, unit: &'static str) -> Metric {
    Metric {
        name,
        value: pct.value,
        unit,
        n: Some(pct.n),
    }
}

/// Everything one measured phase produced.
struct Phase {
    /// Every request of the window's sequences, then the follow-up.
    reqs: Vec<Req>,
    /// The window.
    records: Vec<Record>,
    /// The follow-up requests (see `workload::follow_up`).
    follow_up: Vec<Record>,
    setup_s: Vec<f64>,
    before: Scrape,
    after: Scrape,
    /// Conservation violations of the phase's `/metrics` diff.
    violations: Vec<String>,
    /// VmHWM after the phase's traffic, before any oracle work.
    peak_rss_mb: f64,
    /// Routed minus direct latency of sampled cached evals (traced,
    /// routed phases only).
    relay_us: Option<f64>,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

const SERVED_ENDPOINTS: [&str; 3] = ["/v1/generate", "/v1/eval", "/v1/quantize"];

/// 2xx answers of the three workload endpoints, summed over the workers.
fn workers_2xx(scrape: &Scrape) -> f64 {
    scrape
        .workers
        .iter()
        .flat_map(|m| m.iter())
        .filter(|(series, _)| {
            series.starts_with("olive_http_requests_total{")
                && series.contains("status=\"2xx\"")
                && SERVED_ENDPOINTS
                    .iter()
                    .any(|e| series.contains(&format!("endpoint=\"{e}\"")))
        })
        .map(|(_, v)| v)
        .sum()
}

/// The conservation laws of a phase: what the clients counted is what the
/// daemons counted, and every KV page came back.
fn conservation(
    workload: Workload,
    records: &[Record],
    before: &Scrape,
    after: &Scrape,
) -> Vec<String> {
    let mut violations = Vec::new();
    let attempted = records.len() as f64;
    let ok = records.iter().filter(|r| r.status == 200).count() as f64;
    let served_2xx = workers_2xx(after) - workers_2xx(before);
    if served_2xx != ok {
        violations.push(format!(
            "clients saw {ok} 200s, workers counted {served_2xx} 2xx"
        ));
    }
    let answered = worker_delta(before, after, "olive_batch_jobs_served_total")
        + worker_delta(before, after, "olive_decode_streams_served_total");
    if answered != attempted {
        violations.push(format!(
            "clients sent {attempted} requests, workers served {answered}"
        ));
    }
    if workload.routed() {
        let routed = router_delta(before, after, "olive_router_requests_served_total");
        if routed != attempted {
            violations.push(format!(
                "clients sent {attempted} requests, the router served {routed}"
            ));
        }
    }
    for (i, worker) in after.workers.iter().enumerate() {
        let used = family_sum(worker, "olive_kv_pages_used");
        if used != 0.0 {
            violations.push(format!("worker {i} holds {used} KV pages after the phase"));
        }
    }
    violations
}

/// Scrapes after the window, once the decode scheduler has released every
/// stream's KV pages (released just after the last chunk is written).
fn settled_scrape(stack: &Stack) -> Result<Scrape, String> {
    let mut scrape = stack.scrape()?;
    for _ in 0..100 {
        if scrape
            .workers
            .iter()
            .all(|w| family_sum(w, "olive_kv_pages_used") == 0.0)
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        scrape = stack.scrape()?;
    }
    Ok(scrape)
}

/// Routed minus direct latency over the same cached eval requests, sent
/// alternately on one kept-alive connection to each.
fn relay_us(stack: &Stack, reqs: &[Req]) -> Result<f64, String> {
    stack.warm_evals_everywhere()?;
    let sample: Vec<Req> = reqs
        .iter()
        .filter(|r| r.payload.class() == Class::Eval)
        .take(RELAY_SAMPLES)
        .cloned()
        .collect();
    let (routed, direct) =
        drive::alternate(stack.target(), stack.workers[0].local_addr(), &sample)?;
    if routed.iter().chain(&direct).any(|r| r.status != 200) {
        return Err("a relay sample was not answered 200".into());
    }
    let lat = |rs: &[Record]| median(&rs.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    Ok((lat(&routed) - lat(&direct)) * 1e3)
}

fn run_phase(args: &Args, seconds: u64, traced: bool) -> Result<Phase, String> {
    let workload = args.workload;
    let (stack, first_setup_s) = Stack::start(workload, traced)?;
    let before = stack.scrape()?;
    let streams = workload::closed_streams(workload, args.seed, seconds);
    let records = drive::closed_loop(stack.target(), &streams, Some(seconds as f64))?;
    let mut reqs = streams.concat();
    let offset = reqs.len();
    let follow_reqs = workload::follow_up(workload, args.seed);
    let mut follow_up = if follow_reqs.is_empty() {
        Vec::new()
    } else {
        drive::closed_loop(stack.target(), std::slice::from_ref(&follow_reqs), None)?
    };
    for r in &mut follow_up {
        r.req += offset;
    }
    reqs.extend(follow_reqs);
    let after = settled_scrape(&stack)?;
    let all: Vec<Record> = records.iter().chain(&follow_up).cloned().collect();
    let violations = conservation(workload, &all, &before, &after);
    let peak_rss_mb = peak_rss_mb();

    let relay_us = if traced && workload.routed() {
        Some(relay_us(&stack, &reqs)?)
    } else {
        None
    };
    stack.shutdown();
    // The other set-ups run after `peak_rss_mb` is read, so the peak
    // describes one set-up and the phase's traffic, not the churn of
    // starting and stopping stacks.
    let mut setup_s = vec![first_setup_s];
    while setup_s.len() < SETUP_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        let (extra, secs) = Stack::start(workload, traced)?;
        setup_s.push(secs);
        extra.shutdown();
    }
    Ok(Phase {
        reqs,
        records,
        follow_up,
        setup_s,
        before,
        after,
        violations,
        peak_rss_mb,
        relay_us,
    })
}

/// The end-to-end metrics of a phase.
fn end_to_end(workload: Workload, phase: &Phase, passed: usize) -> Result<Vec<Metric>, String> {
    let records = &phase.records;
    let class = |r: &Record| phase.reqs[r.req].payload.class();
    let streams: Vec<&Record> = records.iter().filter(|r| class(r) == Class::Gen).collect();
    // Latency over the unary requests where the window has them
    // (`unary_routed`), else over the streams.
    let latency: Vec<f64> = records
        .iter()
        .filter(|r| !workload.routed() || class(r) != Class::Gen)
        .map(|r| r.latency_ms)
        .collect();
    let ttft: Vec<f64> = streams.iter().filter_map(|r| r.ttft_ms).collect();
    let itl: Vec<f64> = streams
        .iter()
        .flat_map(|r| r.itl_ms.iter().copied())
        .collect();
    let steps: usize = streams.iter().map(|r| r.steps).sum();
    let stream_s: f64 = streams.iter().map(|r| r.latency_ms / 1e3).sum();
    let window_s = records.iter().map(|r| r.done_s).fold(0.0, f64::max);
    let mut agree = 0;
    let mut agree_steps = 0;
    for conn in 0..workload.clients() {
        for r in streams
            .iter()
            .filter(|r| phase.reqs[r.req].conn == conn)
            .take(AGREEMENT_REQUESTS)
        {
            agree += r.agree;
            agree_steps += r.steps;
        }
    }
    let mse: Vec<f64> = records
        .iter()
        .chain(&phase.follow_up)
        .filter_map(|r| r.mse)
        .take(workload::PROBE_MATRICES)
        .collect();
    let attempted = records.len() + phase.follow_up.len();

    Ok(vec![
        metric("setup_s", median(&phase.setup_s), "s"),
        pct_metric("ttft_p50_ms", percentile(&ttft, 50.0)?, "ms"),
        pct_metric("ttft_p90_ms", percentile(&ttft, 90.0)?, "ms"),
        pct_metric("itl_p50_ms", percentile(&itl, 50.0)?, "ms"),
        pct_metric("itl_p90_ms", percentile(&itl, 90.0)?, "ms"),
        pct_metric("latency_p50_ms", percentile(&latency, 50.0)?, "ms"),
        pct_metric("latency_p90_ms", percentile(&latency, 90.0)?, "ms"),
        metric("tokens_per_s", steps as f64 / stream_s, "1/s"),
        metric("requests_per_s", records.len() as f64 / window_s, "1/s"),
        metric("success_rate", passed as f64 / attempted as f64, "ratio"),
        metric(
            "token_agreement",
            agree as f64 / agree_steps.max(1) as f64,
            "ratio",
        ),
        metric("quant_mse", mean(&mse), "mse"),
        metric("peak_rss_mb", phase.peak_rss_mb, "MB"),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn find(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap_or_else(|| panic!("metric {name} is computed above"))
}

/// The per-layer metrics: benchmark-side timings, the traced phase's
/// `/metrics` diff, and the ledger against the untraced phase.
fn per_layer(
    args: &Args,
    untraced: &[Metric],
    traced_e2e: &[Metric],
    traced: &Phase,
) -> Result<Vec<Metric>, String> {
    let workload = args.workload;
    let mut out = layers::measure(workload, &traced.reqs);

    let (b, a) = (&traced.before, &traced.after);
    let d = |series: &str| worker_delta(b, a, series);
    let flights: f64 = a
        .workers
        .iter()
        .zip(&b.workers)
        .flat_map(|(after, before)| {
            after
                .iter()
                .filter_map(|(series, v)| {
                    let size: f64 = series
                        .strip_prefix("olive_decode_batch_size_total{size=\"")?
                        .strip_suffix("\"}")?
                        .parse()
                        .ok()?;
                    Some(size * (v - before.get(series).unwrap_or(&0.0)))
                })
                .collect::<Vec<_>>()
        })
        .sum();
    let queue_wait_us = ratio(
        d("olive_batch_queue_wait_us_sum"),
        d("olive_batch_queue_wait_us_count"),
    );
    let execute_us = ratio(
        d("olive_batch_execute_us_sum"),
        d("olive_batch_execute_us_count"),
    );
    let ticks = d("olive_decode_ticks_total");
    out.extend([
        metric("serve.batch.queue_wait_us", queue_wait_us, "us"),
        metric("serve.batch.execute_us", execute_us, "us"),
        metric(
            "serve.batch.jobs_per_batch",
            ratio(
                d("olive_batch_jobs_served_total"),
                d("olive_batches_executed_total"),
            ),
            "count",
        ),
        metric(
            "serve.decode_sched.tick_us",
            ratio(
                d("olive_decode_tick_duration_us_sum"),
                d("olive_decode_tick_duration_us_count"),
            ),
            "us",
        ),
        metric(
            "serve.decode_sched.flights_per_tick",
            ratio(flights, ticks),
            "count",
        ),
        metric(
            "serve.decode_sched.ticks_per_stream",
            ratio(ticks, d("olive_decode_streams_served_total")),
            "count",
        ),
        metric(
            "serve.decode_sched.ttfc_us",
            ratio(
                d("olive_decode_time_to_first_chunk_us_sum"),
                d("olive_decode_time_to_first_chunk_us_count"),
            ),
            "us",
        ),
    ]);

    // The router's counters; all 0 where no router is in the path.
    let rd = |series: &str| router_delta(b, a, series);
    let per_worker: Vec<f64> = match (&b.router, &a.router) {
        (Some(before), Some(after)) => after
            .iter()
            .filter(|(s, _)| s.starts_with("olive_router_worker_requests_total{"))
            .map(|(s, v)| v - before.get(s).unwrap_or(&0.0))
            .collect(),
        _ => Vec::new(),
    };
    let relay = traced.relay_us.unwrap_or(0.0);
    out.extend([
        metric("router.relay_us", relay, "us"),
        metric(
            "router.retries",
            rd("olive_router_requests_retried_total"),
            "count",
        ),
        metric(
            "router.failovers",
            rd("olive_router_requests_failed_over_total"),
            "count",
        ),
        metric(
            "router.sheds",
            rd("olive_router_requests_rejected_total"),
            "count",
        ),
        metric(
            "router.owner_share",
            ratio(
                per_worker.iter().copied().fold(0.0, f64::max),
                per_worker.iter().sum(),
            ),
            "ratio",
        ),
    ]);

    // The ledger: the end-to-end time each workload is built around, less
    // the layer times that should account for it (untraced phase).
    let shape = workload.gen_shape();
    let (e2e_ms, accounted_ms) = match workload {
        Workload::ChatWa => (
            find(untraced, "itl_p50_ms"),
            (find(&out, "models.step_us.student_r2") + find(&out, "models.step_us.teacher_r2"))
                / 1e3,
        ),
        Workload::PrefillLong => (
            find(untraced, "ttft_p50_ms"),
            shape.prompt_tokens as f64
                * (find(&out, "models.step_us.student_r1")
                    + find(&out, "models.step_us.teacher_r1"))
                / 1e3,
        ),
        Workload::UnaryRouted => (
            find(untraced, "latency_p50_ms"),
            (find(&out, "serve.http.read_request_us")
                + find(&out, "api.json.parse_us")
                + find(&out, "serve.protocol.decode_us")
                + queue_wait_us
                + execute_us
                + relay)
                / 1e3,
        ),
    };
    let base = find(untraced, "latency_p50_ms");
    out.extend([
        metric(
            "ledger.unassigned_share",
            ratio(e2e_ms - accounted_ms, e2e_ms),
            "ratio",
        ),
        metric(
            "trace.overhead_pct",
            100.0 * ratio(find(traced_e2e, "latency_p50_ms") - base, base),
            "%",
        ),
    ]);
    Ok(out)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers come from (ROADMAP aim 4).
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("OLIVE_THREADS").unwrap_or_else(|_| "unset".into());
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    format!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={nproc} OLIVE_THREADS={threads} \
         simd={} git_rev={} rustc=\"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        olive_core::simd::resolve_path().name(),
        rev.unwrap_or_else(|| "unknown (not a git checkout)".into()),
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    )
}

/// Checks a phase; returns (attempted, passed) and prints what failed.
fn verify(phase: &Phase) -> (usize, usize) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let all: Vec<Record> = phase
        .records
        .iter()
        .chain(&phase.follow_up)
        .cloned()
        .collect();
    let passed = oracle::check(&phase.reqs, &all, threads);
    if passed != all.len() {
        eprintln!(
            "oracle: {} of {} responses differ from the direct path",
            all.len() - passed,
            all.len()
        );
    }
    for v in &phase.violations {
        eprintln!("conservation: {v}");
    }
    (all.len(), passed)
}

fn render(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut entries = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite ({})", m.name, m.value));
        }
        entries.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        entries.join(", ")
    ))
}

fn run(args: &Args) -> Result<bool, String> {
    println!("{}", provenance(args));
    // A traced run splits its time between an untraced and a traced phase,
    // so it takes as long as an untraced one.
    let seconds = if args.trace {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    };
    let untraced = run_phase(args, seconds, false)?;
    let (mut attempted, mut passed) = verify(&untraced);
    let mut violations = untraced.violations.len();
    let e2e = end_to_end(args.workload, &untraced, passed)?;
    let metrics = if args.trace {
        let traced = run_phase(args, seconds, true)?;
        let (a, p) = verify(&traced);
        attempted += a;
        passed += p;
        violations += traced.violations.len();
        let traced_e2e = end_to_end(args.workload, &traced, p)?;
        per_layer(args, &e2e, &traced_e2e, &traced)?
    } else {
        e2e
    };
    for m in &metrics {
        let n = m.n.map(|n| format!(" (n={n})")).unwrap_or_default();
        println!("{:<38} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
    let correct = passed == attempted && violations == 0;
    println!(
        "{}",
        render(correct, attempted, attempted - passed, &metrics)?
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
