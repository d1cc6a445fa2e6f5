//! The router daemon: consistent-hash routing, request proxying with retry
//! and fail-over, and worker health state, on the `olive_serve::daemon`
//! skeleton that also runs the workers.
//!
//! The skeleton owns the connections; the router adds a background probe
//! thread that re-checks unhealthy workers. All shared state is atomics —
//! the request path takes no locks, so a slow worker can never stall an
//! unrelated request through the router itself.

use crate::ring::Ring;
use olive_api::JsonValue;
use olive_runtime::lock_or_recover;
use olive_serve::client::{Connection, HttpResponse, Timeouts};
use olive_serve::daemon::{AfterResponse, Core, Daemon, Endpoint, Exchange, Profile, Service};
use olive_serve::http::{
    write_chunk, write_chunked_head_with, write_last_chunk, Request, Response,
};
use olive_serve::{EvalRequest, GenerateRequest, QuantizeRequest, TRACE_HEADER};
use olive_telemetry::{Counter, Gauge, Registry};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The router's skeleton names: `olive-router-*` threads, `olive_router_*`
/// metrics.
static PROFILE: Profile = Profile {
    name: "olive-router",
    metric_prefix: "olive_router_",
    requests_help: "Requests handled at the front door, by endpoint and status class.",
    duration_help: "Wall-clock request service time at the router, in microseconds.",
    connections_help: "Client TCP connections accepted since startup.",
};

/// Timeout for health probes and `/healthz` aggregation fetches: these hit
/// an endpoint that never computes anything, so a worker that cannot answer
/// within this budget is treated as down.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// The numeric worker gauges summed into the router's `/healthz` under
/// `"upstream"`, in the workers' own key order. `decode_batch_sizes` (an
/// object histogram) is deliberately absent: summing per-size counts across
/// workers is still meaningful, but the router reports fleet totals, not
/// merged histograms.
const WORKER_GAUGES: [&str; 13] = [
    "requests_served",
    "requests_rejected",
    "batches_executed",
    "queue_depth",
    "connections_accepted",
    "cached_models",
    "cached_generators",
    "cached_responses",
    "cached_artifacts",
    "decode_sessions",
    "decode_ticks",
    "kv_pages_used",
    "kv_pages_free",
];

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Router::local_addr`]).
    pub addr: String,
    /// Worker addresses (`host:port`, with or without an `http://` prefix),
    /// in the order that defines their ring identity. Two routers configured
    /// with the same list route identically.
    pub workers: Vec<String>,
    /// Most *distinct* workers tried per request before answering 503.
    pub max_attempts: u32,
    /// Upper bound on honouring a worker's `Retry-After` before the
    /// same-worker retry — a worker advertising a long back-off should not
    /// pin a router connection for that long.
    pub retry_after_cap: Duration,
    /// Consecutive failures after which a worker is marked unhealthy and
    /// only reached again once a probe succeeds (or as a last resort when
    /// every candidate is unhealthy).
    pub unhealthy_after: u32,
    /// How often the probe thread re-checks unhealthy workers.
    pub probe_interval: Duration,
    /// Timeouts for proxied requests to workers. The read timeout bounds
    /// each streamed chunk gap, so a hung worker surfaces as a failure
    /// instead of a stalled client.
    pub timeouts: Timeouts,
    /// Whether `POST /shutdown` stops the *router* (workers are unaffected;
    /// the daemon binary separately stops workers it spawned itself).
    pub allow_shutdown: bool,
    /// Observability switches (latency timing, tracing, `--trace-log`).
    /// Counters and gauges stay live even when `enabled` is off — `/healthz`
    /// and `/metrics` depend on them.
    pub telemetry: olive_telemetry::TelemetryOptions,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: Vec::new(),
            max_attempts: 3,
            retry_after_cap: Duration::from_secs(1),
            unhealthy_after: 3,
            probe_interval: Duration::from_millis(500),
            timeouts: Timeouts::DEFAULT,
            allow_shutdown: false,
            telemetry: olive_telemetry::TelemetryOptions::default(),
        }
    }
}

/// Per-worker health state and routing counters, updated lock-free from
/// request and probe threads. The counters carry a `worker` label so
/// `/metrics` breaks the fleet down per worker.
struct WorkerSlot {
    addr: String,
    sock: SocketAddr,
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
    /// Responses served to clients from this worker.
    routed: Counter,
    /// Same-worker retries after this worker answered 503.
    retries: Counter,
    /// Fail-overs *away* from this worker (it failed or stayed backed up).
    failovers: Counter,
    /// Requests shed with 503 after this worker was the last one tried.
    sheds: Counter,
    /// Health flips, labelled by the state entered. Steady-state probe
    /// successes do not count — only actual transitions.
    became_healthy: Counter,
    became_unhealthy: Counter,
    /// 1 while the worker is considered healthy; refreshed at scrape time.
    healthy_gauge: Gauge,
}

impl WorkerSlot {
    fn new(addr: String, sock: SocketAddr, registry: &Registry) -> WorkerSlot {
        let label = [("worker", addr.as_str())];
        WorkerSlot {
            routed: registry.counter_with(
                "olive_router_worker_requests_total",
                "Responses served to clients from this worker.",
                &label,
            ),
            retries: registry.counter_with(
                "olive_router_worker_retries_total",
                "Same-worker retries after a 503 from this worker.",
                &label,
            ),
            failovers: registry.counter_with(
                "olive_router_worker_failovers_total",
                "Fail-overs away from this worker to the next candidate.",
                &label,
            ),
            sheds: registry.counter_with(
                "olive_router_worker_sheds_total",
                "Requests shed with 503 after this worker was the last one tried.",
                &label,
            ),
            became_healthy: registry.counter_with(
                "olive_router_worker_health_transitions_total",
                "Health-state flips, labelled by the state entered.",
                &[("to", "healthy"), ("worker", addr.as_str())],
            ),
            became_unhealthy: registry.counter_with(
                "olive_router_worker_health_transitions_total",
                "Health-state flips, labelled by the state entered.",
                &[("to", "unhealthy"), ("worker", addr.as_str())],
            ),
            healthy_gauge: registry.gauge_with(
                "olive_router_worker_healthy",
                "1 while the worker is considered healthy, 0 otherwise.",
                &label,
            ),
            addr,
            sock,
            healthy: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
        }
    }
}

/// The router's own request counters (fleet-wide; per-worker breakdowns
/// live on the [`WorkerSlot`]s).
struct RouterCounters {
    served: Counter,
    retried: Counter,
    failed_over: Counter,
    rejected: Counter,
}

impl RouterCounters {
    fn new(registry: &Registry) -> RouterCounters {
        RouterCounters {
            served: registry.counter(
                "olive_router_requests_served_total",
                "Requests answered from a worker (after any retries).",
            ),
            retried: registry.counter(
                "olive_router_requests_retried_total",
                "Same-worker retries after a worker answered 503.",
            ),
            failed_over: registry.counter(
                "olive_router_requests_failed_over_total",
                "Attempts moved to a different worker after a failure or persistent 503.",
            ),
            rejected: registry.counter(
                "olive_router_requests_rejected_total",
                "Requests shed with 503 after every candidate was exhausted.",
            ),
        }
    }
}

struct RouterState {
    core: Core,
    config: RouterConfig,
    ring: Ring,
    workers: Vec<WorkerSlot>,
    counters: RouterCounters,
    probe_handle: Mutex<Option<JoinHandle<()>>>,
}

impl Service for RouterState {
    fn core(&self) -> &Core {
        &self.core
    }

    fn serve(&self, endpoint: Endpoint, exchange: &mut Exchange<'_>) -> AfterResponse {
        let request = exchange.request;
        let key = match endpoint {
            Endpoint::Healthz => return exchange.respond(Response::json(200, healthz_body(self))),
            // The registry is static and identical on every worker; route it
            // like any other key so the load spreads deterministically.
            Endpoint::Schemes => Ok("schemes".to_string()),
            Endpoint::Eval | Endpoint::Generate | Endpoint::Quantize => routing_key(request),
        };
        match key.and_then(|key| forwarded_body(request).map(|body| (key, body))) {
            Ok((key, body)) if endpoint == Endpoint::Generate => {
                let keep_alive = exchange.keep_alive();
                proxy(self, &key, exchange, |worker, exchange| {
                    attempt_stream(self, worker, body, exchange, keep_alive)
                })
            }
            Ok((key, body)) => proxy(self, &key, exchange, |worker, exchange| {
                let trace_headers = exchange.scope.header_refs();
                attempt_unary(self, worker, request, body, &trace_headers)
                    .map_or(Attempt::NotStarted, Attempt::Answered)
            }),
            Err(response) => exchange.respond(response),
        }
    }

    /// Mirrors each worker's health bit onto its gauge.
    fn refresh_gauges(&self) {
        for worker in &self.workers {
            worker
                .healthy_gauge
                .set(u64::from(worker.healthy.load(Ordering::SeqCst)));
        }
    }

    fn stop(&self) {
        if let Some(handle) = lock_or_recover(&self.probe_handle).take() {
            let _ = handle.join();
        }
    }
}

/// A running router. Mirrors `olive_serve::Server`: drop without
/// [`Router::shutdown`] leaves the accept thread running for the life of the
/// process.
pub struct Router {
    daemon: Daemon<RouterState>,
}

impl Router {
    /// Binds the front door and starts the accept and probe threads;
    /// returns once the listener is accepting. Workers are *not* contacted
    /// here — a router can start ahead of its fleet and pick workers up as
    /// probes and requests reach them.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, unresolvable worker addresses and
    /// trace-log open failures.
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        let (core, listener) = Core::bind(
            &PROFILE,
            &config.addr,
            &config.telemetry,
            config.allow_shutdown,
        )?;
        let registry = core.telemetry().registry();
        let mut workers = Vec::with_capacity(config.workers.len());
        for addr in &config.workers {
            let sock = resolve_worker(addr)?;
            workers.push(WorkerSlot::new(addr.clone(), sock, registry));
        }
        let state = RouterState {
            ring: Ring::new(&config.workers),
            workers,
            counters: RouterCounters::new(registry),
            probe_handle: Mutex::new(None),
            config,
            core,
        };
        let daemon = Daemon::start(listener, state)?;
        let probe_state = Arc::clone(daemon.service());
        let probe_handle = std::thread::Builder::new()
            .name("olive-router-probe".into())
            .spawn(move || probe_loop(&probe_state))?;
        *lock_or_recover(&daemon.service().probe_handle) = Some(probe_handle);
        Ok(Router { daemon })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.core().local_addr()
    }

    /// `http://host:port` of the bound address.
    pub fn url(&self) -> String {
        self.daemon.core().url()
    }

    /// True once shutdown has been requested (via [`Router::shutdown`] or
    /// `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.daemon.core().shutdown_requested()
    }

    /// Blocks until shutdown is requested, then joins the background
    /// threads. The daemon binary's main loop.
    pub fn wait(&self) {
        self.daemon.wait();
    }

    /// Requests shutdown and waits for it to complete. Idempotent. Workers
    /// keep running: the router owns only its own process.
    pub fn shutdown(&self) {
        self.daemon.shutdown();
    }
}

/// Resolves a `--worker` address, accepting the `http://host:port` form the
/// workers print at startup as well as a bare `host:port`.
fn resolve_worker(addr: &str) -> io::Result<SocketAddr> {
    let bare = addr.strip_prefix("http://").unwrap_or(addr);
    let bare = bare.trim_end_matches('/');
    bare.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("worker address '{addr}' did not resolve"),
        )
    })
}

/// Re-checks unhealthy workers every `probe_interval`, marking them healthy
/// again as soon as their `/healthz` answers. Sleeps in short ticks so
/// shutdown is observed promptly.
fn probe_loop(state: &RouterState) {
    let tick =
        Duration::from_millis(50).min(state.config.probe_interval.max(Duration::from_millis(1)));
    let mut slept = Duration::ZERO;
    while !state.core.shutdown_requested() {
        std::thread::sleep(tick);
        slept += tick;
        if slept < state.config.probe_interval {
            continue;
        }
        slept = Duration::ZERO;
        for worker in &state.workers {
            if worker.healthy.load(Ordering::SeqCst) {
                continue;
            }
            if fetch_worker_healthz(worker).is_ok() {
                record_success(worker);
            }
        }
    }
}

fn record_success(worker: &WorkerSlot) {
    worker.consecutive_failures.store(0, Ordering::SeqCst);
    if !worker.healthy.swap(true, Ordering::SeqCst) {
        worker.became_healthy.inc();
    }
}

fn record_failure(worker: &WorkerSlot, unhealthy_after: u32) {
    let failures = worker.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
    if failures >= unhealthy_after && worker.healthy.swap(false, Ordering::SeqCst) {
        worker.became_unhealthy.inc();
    }
}

/// The routing key for a request: its model cache key when the body decodes
/// (so a request lands on the worker whose cache already holds its model),
/// the raw body otherwise (an invalid body routes *somewhere* deterministic
/// and the worker answers the same 400 any worker would).
fn routing_key(request: &Request) -> Result<String, Response> {
    let text = match request.body_utf8() {
        Ok(text) => text,
        Err(e) => return Err(Response::error(e.status, &e.message)),
    };
    let decoded = JsonValue::parse(text)
        .ok()
        .and_then(|json| match request.path.as_str() {
            "/v1/eval" => EvalRequest::decode(&json).ok().map(|r| r.prepared_key()),
            "/v1/generate" => GenerateRequest::decode(&json)
                .ok()
                .map(|r| r.prepared_key()),
            "/v1/quantize" => QuantizeRequest::decode(&json)
                .ok()
                .map(|r| format!("quantize;scheme={}", r.scheme)),
            _ => None,
        });
    Ok(decoded.unwrap_or_else(|| text.to_string()))
}

/// The worker indices to try for `key`, in order: the ring's candidate walk
/// with healthy workers first (unhealthy ones stay as a last resort — with
/// the whole fleet marked down, trying is still better than rejecting),
/// truncated to `max_attempts`.
fn plan(state: &RouterState, key: &str) -> Vec<usize> {
    let order = state.ring.candidates(key);
    let mut planned = Vec::with_capacity(order.len());
    for &index in &order {
        if state
            .workers
            .get(index)
            .is_some_and(|w| w.healthy.load(Ordering::SeqCst))
        {
            planned.push(index);
        }
    }
    for &index in &order {
        if !planned.contains(&index) {
            planned.push(index);
        }
    }
    planned.truncate(state.config.max_attempts.max(1) as usize);
    planned
}

/// How long to sleep before the same-worker retry of a 503: the worker's
/// `Retry-After` (defaulting to 1 s when absent or unparseable), capped.
fn retry_delay(response: &HttpResponse, cap: Duration) -> Duration {
    let seconds = response
        .header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(1);
    Duration::from_secs(seconds).min(cap)
}

/// Records one same-worker 503 retry (fleet total + per-worker).
fn count_retry(state: &RouterState, worker: &WorkerSlot) {
    state.counters.retried.inc();
    worker.retries.inc();
}

/// Records one fail-over away from `worker` to the next candidate.
fn count_failover(state: &RouterState, worker: &WorkerSlot) {
    state.counters.failed_over.inc();
    worker.failovers.inc();
}

/// Records a request served to the client from `worker`.
fn count_served(state: &RouterState, worker: &WorkerSlot) {
    state.counters.served.inc();
    worker.routed.inc();
}

/// Records a shed request (every candidate exhausted), attributed to the
/// last worker tried.
fn count_shed(state: &RouterState, planned: &[usize]) {
    state.counters.rejected.inc();
    if let Some(worker) = planned.last().and_then(|&index| state.workers.get(index)) {
        worker.sheds.inc();
    }
}

/// Re-frames a worker response for the client, preserving the body bytes
/// exactly and relaying the headers that carry semantics (`Retry-After` on a
/// 503, `Allow` on a 405, the `x-olive-trace` echo).
fn relay(response: &HttpResponse) -> Response {
    let mut out = Response::json(response.status, response.body.clone());
    for name in ["Retry-After", "Allow", TRACE_HEADER] {
        if let Some(value) = response.header(name) {
            out = out.with_header(name, value);
        }
    }
    out
}

/// One worker attempt for a unary endpoint: a single proxied request, plus
/// one same-worker retry when the worker sheds load with a 503 (honouring
/// its `Retry-After`, capped) — transient back-pressure usually clears
/// within the advertised window.
fn attempt_unary(
    state: &RouterState,
    worker: &WorkerSlot,
    request: &Request,
    body: Option<&str>,
    trace_headers: &[(&str, &str)],
) -> io::Result<HttpResponse> {
    let mut conn = Connection::open_with(worker.sock, state.config.timeouts)?;
    let response =
        conn.request_with_headers(&request.method, &request.path, body, trace_headers)?;
    if response.status != 503 {
        return Ok(response);
    }
    count_retry(state, worker);
    std::thread::sleep(retry_delay(&response, state.config.retry_after_cap));
    conn.request_with_headers(&request.method, &request.path, body, trace_headers)
}

/// The body forwarded to the worker: `None` when empty.
fn forwarded_body(request: &Request) -> Result<Option<&str>, Response> {
    match request.body_utf8() {
        Ok(text) => Ok(Some(text).filter(|text| !text.is_empty())),
        Err(e) => Err(Response::error(e.status, &e.message)),
    }
}

/// The outcome of one attempt against one worker.
enum Attempt {
    /// The worker answered a complete (non-chunked) response — a unary
    /// reply, or an error instead of a stream — and nothing has reached the
    /// client yet.
    Answered(HttpResponse),
    /// The attempt failed before any byte reached the client: safe to fail
    /// over to the next candidate.
    NotStarted,
    /// A stream went out to the client and its telemetry is committed;
    /// nothing is left to do but keep or close the connection.
    Relayed(AfterResponse),
}

/// Proxies a request along the candidate plan, one `attempt` per worker.
/// Responses are relayed byte-for-byte — because every worker computes
/// identical bytes for the same request (the serving determinism contract),
/// failing over can never change the answer, only whether one arrives.
fn proxy(
    state: &RouterState,
    key: &str,
    exchange: &mut Exchange<'_>,
    mut attempt: impl FnMut(&WorkerSlot, &mut Exchange<'_>) -> Attempt,
) -> AfterResponse {
    let planned = plan(state, key);
    let total = planned.len();
    for (n, &index) in planned.iter().enumerate() {
        let Some(worker) = state.workers.get(index) else {
            continue;
        };
        match attempt(worker, exchange) {
            Attempt::Answered(response) => {
                record_success(worker);
                if response.status == 503 && n + 1 < total {
                    // Still backed up after the same-worker retry: any other
                    // worker produces identical bytes, so fail over.
                    count_failover(state, worker);
                    continue;
                }
                count_served(state, worker);
                return exchange.respond(relay(&response));
            }
            Attempt::NotStarted => {
                record_failure(worker, state.config.unhealthy_after);
                if n + 1 < total {
                    count_failover(state, worker);
                }
            }
            Attempt::Relayed(after) => return after,
        }
    }
    count_shed(state, &planned);
    exchange.respond(
        Response::error(503, "no worker available for this request")
            .with_header("Retry-After", "1"),
    )
}

/// One streaming attempt: the worker's chunks are relayed to the client the
/// moment each is decoded (chunk boundaries preserved), so a routed stream
/// is byte- and framing-identical to hitting the worker directly. Includes
/// the same single same-worker 503 retry as the unary path — nothing has
/// been written to the client at that point. Once the chunked head is out,
/// a failure truncates the relay without the terminating chunk — the client
/// sees a hard framing error, never a complete-looking answer — exactly as
/// a worker death would on a direct connection.
fn attempt_stream(
    state: &RouterState,
    worker: &WorkerSlot,
    body: Option<&str>,
    exchange: &mut Exchange<'_>,
    keep_alive: bool,
) -> Attempt {
    let Ok(mut conn) = Connection::open_with(worker.sock, state.config.timeouts) else {
        return Attempt::NotStarted;
    };
    let request = exchange.request;
    let trace_headers = exchange.scope.header_refs();
    let echo_headers = exchange.scope.headers();
    let mut retried_503 = false;
    loop {
        let mut started = false;
        let mut sink_error = false;
        let writer = &mut *exchange.writer;
        let span = exchange.scope.span();
        let result = conn.request_with_sink_and_headers(
            &request.method,
            &request.path,
            body,
            &mut |chunk| {
                let relayed = if started {
                    write_chunk(writer, chunk)
                } else {
                    write_chunked_head_with(writer, 200, keep_alive, &echo_headers).and_then(|()| {
                        started = true;
                        if let Some(span) = span {
                            span.event("first-byte");
                        }
                        write_chunk(writer, chunk)
                    })
                };
                if relayed.is_err() {
                    sink_error = true;
                }
                relayed
            },
            &trace_headers,
        );
        return match result {
            Ok(response) if response.chunks.is_some() => {
                // Telemetry commits before the terminating chunk: a client
                // that saw a complete stream must also see it counted in
                // /metrics and traced in /debug/trace.
                record_success(worker);
                count_served(state, worker);
                exchange.finish(200);
                let finished = if started {
                    write_last_chunk(exchange.writer)
                } else {
                    // A complete but empty stream still frames as chunked.
                    write_chunked_head_with(exchange.writer, 200, keep_alive, &echo_headers)
                        .and_then(|()| write_last_chunk(exchange.writer))
                };
                Attempt::Relayed(AfterResponse::keep_alive_if(finished.is_ok() && keep_alive))
            }
            Ok(response) => {
                if response.status == 503 && !retried_503 {
                    retried_503 = true;
                    count_retry(state, worker);
                    std::thread::sleep(retry_delay(&response, state.config.retry_after_cap));
                    continue;
                }
                Attempt::Answered(response)
            }
            Err(_) if !started && !sink_error => Attempt::NotStarted,
            // Truncated mid-stream: the worker died, or the client went away
            // (which is no fault of the worker's).
            Err(_) => {
                if !sink_error {
                    record_failure(worker, state.config.unhealthy_after);
                }
                exchange.finish(200);
                Attempt::Relayed(AfterResponse::Close)
            }
        };
    }
}

/// Fetches one worker's `/healthz` within [`PROBE_TIMEOUT`].
fn fetch_worker_healthz(worker: &WorkerSlot) -> io::Result<JsonValue> {
    let mut conn = Connection::open_with(worker.sock, Timeouts::uniform(PROBE_TIMEOUT))?;
    let response = conn.request("GET", "/healthz", None)?;
    if response.status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "worker {} healthz answered {}",
                worker.addr, response.status
            ),
        ));
    }
    JsonValue::parse(&response.body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The router's own `/healthz`: fleet status plus router counters plus the
/// workers' numeric gauges summed under `"upstream"`. Fetching every
/// worker's healthz doubles as an active probe — a worker that answers here
/// is immediately healthy again, one that does not records a failure.
fn healthz_body(state: &RouterState) -> String {
    let mut sums = [0u64; WORKER_GAUGES.len()];
    let mut healthy = 0u64;
    for worker in &state.workers {
        match fetch_worker_healthz(worker) {
            Ok(json) => {
                healthy += 1;
                record_success(worker);
                for (key, total) in WORKER_GAUGES.iter().zip(sums.iter_mut()) {
                    if let Some(value) = json.get(key).and_then(JsonValue::as_u64) {
                        *total += value;
                    }
                }
            }
            Err(_) => record_failure(worker, state.config.unhealthy_after),
        }
    }
    let status = if healthy > 0 && healthy == state.workers.len() as u64 {
        "ok"
    } else if healthy > 0 {
        "degraded"
    } else {
        "unavailable"
    };
    let upstream = JsonValue::object(
        WORKER_GAUGES
            .iter()
            .zip(sums.iter())
            .map(|(key, total)| (*key, JsonValue::UInt(*total)))
            .collect::<Vec<_>>(),
    );
    JsonValue::object(vec![
        ("status", JsonValue::Str(status.into())),
        ("workers", JsonValue::UInt(state.workers.len() as u64)),
        ("workers_healthy", JsonValue::UInt(healthy)),
        (
            "requests_served",
            JsonValue::UInt(state.counters.served.get()),
        ),
        (
            "requests_retried",
            JsonValue::UInt(state.counters.retried.get()),
        ),
        (
            "requests_failed_over",
            JsonValue::UInt(state.counters.failed_over.get()),
        ),
        (
            "requests_rejected",
            JsonValue::UInt(state.counters.rejected.get()),
        ),
        (
            "connections_accepted",
            JsonValue::UInt(state.core.connections_accepted()),
        ),
        ("upstream", upstream),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_workers(n: usize, max_attempts: u32) -> RouterState {
        let (core, _listener) = Core::bind(
            &PROFILE,
            "127.0.0.1:0",
            &olive_telemetry::TelemetryOptions::default(),
            false,
        )
        .unwrap();
        let registry = core.telemetry().registry();
        let addrs: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 9100 + i)).collect();
        RouterState {
            ring: Ring::new(&addrs),
            workers: addrs
                .iter()
                .map(|addr| WorkerSlot::new(addr.clone(), addr.parse().unwrap(), registry))
                .collect(),
            counters: RouterCounters::new(registry),
            probe_handle: Mutex::new(None),
            config: RouterConfig {
                workers: addrs,
                max_attempts,
                ..RouterConfig::default()
            },
            core,
        }
    }

    #[test]
    fn plan_prefers_healthy_workers_but_keeps_unhealthy_as_last_resort() {
        let state = state_with_workers(3, 3);
        let key = "family=gpt-tiny;seed=7";
        let ring_order = state.ring.candidates(key);
        assert_eq!(plan(&state, key), ring_order, "all healthy: ring order");

        let owner = ring_order[0];
        state.workers[owner].healthy.store(false, Ordering::SeqCst);
        let reordered = plan(&state, key);
        assert_eq!(reordered.last(), Some(&owner), "unhealthy owner tried last");
        assert_eq!(reordered.len(), 3, "nobody is dropped, only demoted");
        let mut sorted = reordered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn plan_truncates_to_max_attempts() {
        let state = state_with_workers(5, 2);
        assert_eq!(plan(&state, "k").len(), 2);
        let zero = state_with_workers(3, 0);
        assert_eq!(plan(&zero, "k").len(), 1, "max_attempts is clamped to 1");
    }

    #[test]
    fn consecutive_failures_flip_health_and_success_resets() {
        let state = state_with_workers(1, 1);
        let worker = &state.workers[0];
        record_failure(worker, 3);
        record_failure(worker, 3);
        assert!(worker.healthy.load(Ordering::SeqCst), "below threshold");
        record_failure(worker, 3);
        assert!(!worker.healthy.load(Ordering::SeqCst), "threshold reached");
        record_success(worker);
        assert!(worker.healthy.load(Ordering::SeqCst));
        assert_eq!(worker.consecutive_failures.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn health_transitions_count_flips_not_steady_state() {
        let state = state_with_workers(1, 1);
        let worker = &state.workers[0];
        // Repeated successes while already healthy: no transition.
        record_success(worker);
        record_success(worker);
        assert_eq!(worker.became_healthy.get(), 0);
        // Flip down once (threshold 1), then repeated failures stay down.
        record_failure(worker, 1);
        record_failure(worker, 1);
        assert_eq!(worker.became_unhealthy.get(), 1, "one flip, not two");
        // Recovery is one transition back.
        record_success(worker);
        assert_eq!(worker.became_healthy.get(), 1);
    }

    #[test]
    fn retry_delay_honours_the_header_and_the_cap() {
        let response = |headers: Vec<(&str, &str)>| HttpResponse {
            status: 503,
            headers: headers
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: String::new(),
            chunks: None,
        };
        let cap = Duration::from_millis(250);
        assert_eq!(
            retry_delay(&response(vec![("Retry-After", "0")]), cap),
            Duration::ZERO
        );
        assert_eq!(retry_delay(&response(vec![("retry-after", "7")]), cap), cap);
        assert_eq!(
            retry_delay(&response(vec![]), cap),
            cap,
            "default 1 s, capped"
        );
        assert_eq!(
            retry_delay(&response(vec![("Retry-After", "soon")]), cap),
            cap,
            "unparseable value falls back to the 1 s default"
        );
    }

    #[test]
    fn relay_preserves_the_body_and_semantic_headers_only() {
        let worker_response = HttpResponse {
            status: 503,
            headers: vec![
                ("Content-Length".to_string(), "42".to_string()),
                ("Retry-After".to_string(), "1".to_string()),
                ("Connection".to_string(), "close".to_string()),
            ],
            body: "{\"error\": \"service_unavailable\"}\n".to_string(),
            chunks: None,
        };
        let relayed = relay(&worker_response);
        assert_eq!(relayed.status, 503);
        assert_eq!(relayed.body, worker_response.body, "body bytes unchanged");
        assert_eq!(
            relayed.extra_headers,
            vec![("Retry-After".to_string(), "1".to_string())],
            "framing headers are re-derived, not copied"
        );
    }

    #[test]
    fn relay_passes_the_trace_echo_through() {
        let worker_response = HttpResponse {
            status: 200,
            headers: vec![(TRACE_HEADER.to_string(), "00000000deadbeef".to_string())],
            body: "{}\n".to_string(),
            chunks: None,
        };
        let relayed = relay(&worker_response);
        assert_eq!(
            relayed.extra_headers,
            vec![(TRACE_HEADER.to_string(), "00000000deadbeef".to_string())]
        );
    }

    #[test]
    fn routing_keys_use_the_model_cache_key() {
        let request = |path: &str, body: &str| Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let key = routing_key(&request(
            "/v1/eval",
            r#"{"scheme": "olive-4bit", "batches": 2}"#,
        ))
        .unwrap();
        assert!(key.starts_with("family="), "cache key, not raw body: {key}");
        // The key ignores fields that don't feed preparation (the scheme
        // list), so scheme variants of one model share a worker cache.
        let other = routing_key(&request(
            "/v1/eval",
            r#"{"scheme": "uniform:4", "batches": 2}"#,
        ))
        .unwrap();
        assert_eq!(key, other, "same prepared model, same worker");

        let raw = routing_key(&request("/v1/eval", "not json")).unwrap();
        assert_eq!(raw, "not json", "undecodable bodies route by raw bytes");
    }

    #[test]
    fn resolve_worker_accepts_url_and_bare_forms() {
        let bare = resolve_worker("127.0.0.1:8080").unwrap();
        let url = resolve_worker("http://127.0.0.1:8080/").unwrap();
        assert_eq!(bare, url);
        assert!(resolve_worker("not an address").is_err());
    }
}
