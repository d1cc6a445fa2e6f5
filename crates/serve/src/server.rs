//! The worker daemon: the `olive-serve` endpoints on the shared
//! [`daemon`](crate::daemon) skeleton — `/healthz`, `/v1/schemes`, unary
//! jobs submitted to the batcher and `/v1/generate` streams relayed from the
//! decode scheduler.

use crate::batch::{BatchConfig, Batcher, Job};
use crate::cache::ModelCache;
use crate::daemon::{AfterResponse, Core, Daemon, Endpoint, Exchange, Profile, Service};
use crate::decode_sched::{DecodeScheduler, SchedConfig, StreamEvent};
use crate::http::{write_chunk, write_chunked_head_with, write_last_chunk, Request, Response};
use crate::protocol::{
    render_schemes_body, DecodeError, EvalRequest, GenerateRequest, QuantizeRequest,
};
use olive_api::JsonValue;
use olive_telemetry::Gauge;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};

/// The worker's skeleton names: `olive-serve-*` threads, `olive_*` metrics.
static PROFILE: Profile = Profile {
    name: "olive-serve",
    metric_prefix: "olive_",
    requests_help: "Requests served, by endpoint and status class.",
    duration_help: "Wall-clock request service time (read to last byte written), in microseconds.",
    connections_help: "TCP connections accepted since startup.",
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Batching policy for unary requests (see [`BatchConfig`]).
    pub batch: BatchConfig,
    /// Continuous-batching policy for `/v1/generate` (see [`SchedConfig`]).
    pub sched: SchedConfig,
    /// Whether `POST /shutdown` is honoured (the smoke harness uses it; off
    /// by default so a stray request cannot stop a real deployment).
    pub allow_shutdown: bool,
    /// Directory of `olive-prepare` model snapshots. When set, preparation
    /// misses cold-start from disk (bit-identically) instead of quantizing
    /// in-process; see [`crate::cache::ModelCache::with_artifact_dir`].
    pub artifact_dir: Option<std::path::PathBuf>,
    /// Observability switches (latency timing, tracing, `--trace-log`).
    /// Counters and gauges stay live even when `enabled` is off — `/healthz`
    /// and `/metrics` depend on them.
    pub telemetry: olive_telemetry::TelemetryOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch: BatchConfig::default(),
            sched: SchedConfig::default(),
            allow_shutdown: false,
            artifact_dir: None,
            telemetry: olive_telemetry::TelemetryOptions::default(),
        }
    }
}

/// Gauges that are meaningless between scrapes (they mirror live sizes, not
/// monotone counts): refreshed right before `/healthz` and `/metrics`
/// render.
struct ScrapeGauges {
    queue_depth: Gauge,
    cached_models: Gauge,
    cached_generators: Gauge,
    cached_responses: Gauge,
    cached_artifacts: Gauge,
}

struct ServerState {
    core: Core,
    batcher: Batcher,
    scheduler: DecodeScheduler,
    cache: Arc<ModelCache>,
    /// Pre-rendered `/v1/schemes` body (the registry is static).
    schemes_body: String,
    scrape: ScrapeGauges,
}

impl ServerState {
    fn healthz_body(&self) -> String {
        self.refresh_gauges();
        let stats = self.batcher.stats();
        let sched = self.scheduler.stats();
        // Sessions fed per tick, keyed by the batch size as a decimal string
        // (BTreeMap keeps the keys in ascending numeric-by-construction
        // order — sizes only grow by one digit past 9 with max_sessions > 9,
        // where the histogram is still deterministic per run).
        let batch_sizes = JsonValue::object(
            sched
                .batch_size_histogram()
                .iter()
                .map(|(size, count)| (size.to_string(), JsonValue::UInt(*count)))
                .collect::<Vec<_>>(),
        );
        JsonValue::object(vec![
            ("status", JsonValue::Str("ok".into())),
            (
                "requests_served",
                JsonValue::UInt(stats.served.get() + sched.served.get()),
            ),
            (
                "requests_rejected",
                JsonValue::UInt(stats.rejected.get() + sched.rejected.get()),
            ),
            ("batches_executed", JsonValue::UInt(stats.batches.get())),
            (
                "queue_depth",
                JsonValue::Int(self.scrape.queue_depth.get() as i64),
            ),
            (
                "connections_accepted",
                JsonValue::UInt(self.core.connections_accepted()),
            ),
            (
                "cached_models",
                JsonValue::Int(self.scrape.cached_models.get() as i64),
            ),
            (
                "cached_generators",
                JsonValue::Int(self.scrape.cached_generators.get() as i64),
            ),
            (
                "cached_responses",
                JsonValue::Int(self.scrape.cached_responses.get() as i64),
            ),
            (
                "cached_artifacts",
                JsonValue::UInt(self.scrape.cached_artifacts.get()),
            ),
            ("decode_sessions", JsonValue::UInt(sched.sessions.get())),
            ("decode_ticks", JsonValue::UInt(sched.ticks.get())),
            ("kv_pages_used", JsonValue::UInt(sched.kv_pages_used.get())),
            ("kv_pages_free", JsonValue::UInt(sched.kv_pages_free.get())),
            ("decode_batch_sizes", batch_sizes),
        ])
        .render()
    }
}

impl Service for ServerState {
    fn core(&self) -> &Core {
        &self.core
    }

    fn serve(&self, endpoint: Endpoint, exchange: &mut Exchange<'_>) -> AfterResponse {
        let request = exchange.request;
        let span = exchange.scope.span().cloned();
        let response = match endpoint {
            Endpoint::Healthz => Response::json(200, self.healthz_body()),
            Endpoint::Schemes => Response::json(200, self.schemes_body.clone()),
            Endpoint::Eval => match decode_body(request, EvalRequest::decode) {
                Ok(req) => self.batcher.submit(Job::Eval(req), span),
                Err(response) => response,
            },
            Endpoint::Generate => match decode_body(request, GenerateRequest::decode) {
                Ok(req) => match self.scheduler.submit(req, span) {
                    Ok(events) => return stream_response(exchange, &events),
                    Err(response) => response,
                },
                Err(response) => response,
            },
            Endpoint::Quantize => match decode_body(request, QuantizeRequest::decode) {
                Ok(req) => self.batcher.submit(Job::Quantize(req), span),
                Err(response) => response,
            },
        };
        exchange.respond(response)
    }

    /// Mirrors live sizes (queue depth, cache occupancy) onto their gauges.
    fn refresh_gauges(&self) {
        let (prepared, gen_prepared, responses) = self.cache.sizes();
        self.scrape
            .queue_depth
            .set((self.batcher.queue_depth() + self.scheduler.queue_depth()) as u64);
        self.scrape.cached_models.set(prepared as u64);
        self.scrape.cached_generators.set(gen_prepared as u64);
        self.scrape.cached_responses.set(responses as u64);
        self.scrape
            .cached_artifacts
            .set(self.cache.artifacts_loaded());
    }

    fn stop(&self) {
        self.batcher.shutdown();
        self.scheduler.shutdown();
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`] leaves
/// the accept thread running for the life of the process; tests and
/// embedders should shut down explicitly.
pub struct Server {
    daemon: Daemon<ServerState>,
}

impl Server {
    /// Binds and starts serving in background threads; returns once the
    /// listener is accepting.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …) and
    /// trace-log open failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let (core, listener) = Core::bind(
            &PROFILE,
            &config.addr,
            &config.telemetry,
            config.allow_shutdown,
        )?;
        let telemetry = core.telemetry().clone();
        let cache = Arc::new(ModelCache::with_artifact_dir(config.artifact_dir));
        let registry = telemetry.registry();
        let scrape = ScrapeGauges {
            queue_depth: registry.gauge(
                "olive_queue_depth",
                "Queued-but-unserved requests across the batcher and the decode scheduler.",
            ),
            cached_models: registry.gauge(
                "olive_cached_models",
                "Prepared evaluation models resident in the cache.",
            ),
            cached_generators: registry.gauge(
                "olive_cached_generators",
                "Prepared generation pipelines resident in the cache.",
            ),
            cached_responses: registry.gauge(
                "olive_cached_responses",
                "Memoized unary response bodies resident in the cache.",
            ),
            cached_artifacts: registry.gauge(
                "olive_cached_artifacts",
                "Model snapshots cold-started from the artifact directory.",
            ),
        };
        let state = ServerState {
            batcher: Batcher::start(config.batch, Arc::clone(&cache), telemetry.clone()),
            scheduler: DecodeScheduler::start(config.sched, Arc::clone(&cache), telemetry),
            cache,
            schemes_body: render_schemes_body(),
            scrape,
            core,
        };
        Ok(Server {
            daemon: Daemon::start(listener, state)?,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.core().local_addr()
    }

    /// `http://host:port` of the bound address.
    pub fn url(&self) -> String {
        self.daemon.core().url()
    }

    /// True once shutdown has been requested (via [`Server::shutdown`] or
    /// `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.daemon.core().shutdown_requested()
    }

    /// Blocks until shutdown is requested, then tears the server down:
    /// stops accepting, drains queued requests, joins the worker threads.
    /// The daemon binary's main loop.
    pub fn wait(&self) {
        self.daemon.wait();
    }

    /// Requests shutdown and waits for it to complete. Idempotent.
    pub fn shutdown(&self) {
        self.daemon.shutdown();
    }
}

/// Streams a `/v1/generate` reply: the first event decides between a plain
/// error response and a chunked 200; afterwards every fragment is written as
/// its own chunk the moment it arrives. The connection stays open only when
/// the stream terminated cleanly and keep-alive allows it.
///
/// Telemetry (the request counter/latency observation and the span) commits
/// **before** the terminal write of each arm: a client that saw a complete
/// response must also see it counted in /metrics and traced in /debug/trace.
fn stream_response(
    exchange: &mut Exchange<'_>,
    events: &mpsc::Receiver<StreamEvent>,
) -> AfterResponse {
    let keep_alive = exchange.keep_alive();
    let clean = match events.recv() {
        Ok(StreamEvent::Failed(response)) => return exchange.respond(response),
        Ok(first) => relay_chunks(exchange, events, first, keep_alive),
        // A worker that died before any event is a plain 500.
        Err(_) => {
            exchange.finish(500);
            let _ = Response::error(500, "decode worker terminated unexpectedly")
                .write_to(exchange.writer, false);
            return AfterResponse::Close;
        }
    };
    // Backstop for the early-write-error paths, where relay_chunks never
    // reached a terminal event; a no-op when the span was already finished.
    if let Some(span) = exchange.scope.span() {
        span.finish();
    }
    // Framing gone (truncated stream) or client asked to close: the
    // connection cannot be reused.
    AfterResponse::keep_alive_if(keep_alive && matches!(clean, Ok(true)))
}

/// Writes the chunked 200 starting at `first` (a chunk, or `Done` for an
/// empty stream — still a well-formed chunked body) and relays every later
/// fragment as its own chunk. Returns true only when the stream terminated
/// cleanly: the connection's framing is intact.
fn relay_chunks(
    exchange: &mut Exchange<'_>,
    events: &mpsc::Receiver<StreamEvent>,
    first: StreamEvent,
    keep_alive: bool,
) -> std::io::Result<bool> {
    write_chunked_head_with(exchange.writer, 200, keep_alive, &exchange.scope.headers())?;
    if let (StreamEvent::Chunk(_), Some(span)) = (&first, exchange.scope.span()) {
        span.event("first-byte");
    }
    let mut event = Ok(first);
    loop {
        match event {
            Ok(StreamEvent::Chunk(data)) => write_chunk(exchange.writer, &data)?,
            Ok(StreamEvent::Done) => {
                exchange.finish(200);
                write_last_chunk(exchange.writer)?;
                return Ok(true);
            }
            // A mid-stream failure (worker panic) truncates the body without
            // the terminating chunk: the client sees a hard framing error,
            // never a complete-looking answer.
            Ok(StreamEvent::Failed(_)) | Err(_) => {
                exchange.finish(200);
                return Ok(false);
            }
        }
        event = events.recv();
    }
}

/// Parses a request body as JSON and decodes it, mapping failures to 400
/// responses.
fn decode_body<T>(
    request: &Request,
    decode: fn(&JsonValue) -> Result<T, DecodeError>,
) -> Result<T, Response> {
    let text = request
        .body_utf8()
        .map_err(|e| Response::error(e.status, &e.message))?;
    if text.trim().is_empty() {
        return Err(Response::error(400, "expected a JSON request body"));
    }
    let json = JsonValue::parse(text).map_err(|e| Response::error(400, &e.to_string()))?;
    decode(&json).map_err(|e| Response::error(400, &e.0))
}
