//! The daemon skeleton `olive-serve` and `olive-router` both run on.
//!
//! Everything the two daemons do the same way lives here: binding and
//! accepting with one detached thread per connection, the keep-alive loop
//! with idle and shutdown polling, the per-request [`RequestScope`] (trace
//! id, span, stopwatch), the unary write path, the answers that do not
//! depend on the daemon (`/metrics`, `/debug/trace`, `/shutdown`, 405 and
//! 404) and the lifecycle. A daemon plugs in as a [`Service`] that answers
//! its own [`Endpoint`]s and nothing else.
//!
//! What differs between the daemons at this level — thread names and the
//! metric family names — is fixed per daemon in code by a [`Profile`].

use crate::http::{read_request, ReadOutcome, Request, Response, IDLE_TIMEOUT};
use olive_api::JsonValue;
use olive_runtime::lock_or_recover;
use olive_telemetry::{
    latency_buckets_us, Counter, Span, Stopwatch, Telemetry, TelemetryOptions, TraceRecord,
};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// How long a kept-alive connection may sit idle before the daemon closes
/// it, in units of [`IDLE_TIMEOUT`] polling ticks (20 × 500 ms = 10 s).
const MAX_IDLE_TICKS: u32 = 20;

/// The trace-correlation header: stamped by the router, generated by the
/// worker when absent, echoed on every response. Headers are the only place
/// a trace id appears — response *bodies* are byte-identical with tracing
/// on or off.
pub const TRACE_HEADER: &str = "x-olive-trace";

/// The per-daemon names the skeleton uses.
pub struct Profile {
    /// Thread-name stem: threads are named `<name>-accept` and `<name>-conn`.
    pub name: &'static str,
    /// Prefix of the skeleton's metric families (`olive_`, `olive_router_`):
    /// `http_requests_total`, `http_request_duration_us` and
    /// `connections_accepted_total`.
    pub metric_prefix: &'static str,
    /// HELP text of `<prefix>http_requests_total`.
    pub requests_help: &'static str,
    /// HELP text of `<prefix>http_request_duration_us`.
    pub duration_help: &'static str,
    /// HELP text of `<prefix>connections_accepted_total`.
    pub connections_help: &'static str,
}

/// The endpoints a [`Service`] answers itself. Every other path, and every
/// wrong method on these, is answered by the skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /v1/schemes`
    Schemes,
    /// `POST /v1/eval`
    Eval,
    /// `POST /v1/generate`
    Generate,
    /// `POST /v1/quantize`
    Quantize,
}

/// Whether the connection survives the response just written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfterResponse {
    KeepAlive,
    Close,
}

impl AfterResponse {
    /// `KeepAlive` when `reusable`, `Close` otherwise.
    pub fn keep_alive_if(reusable: bool) -> AfterResponse {
        if reusable {
            AfterResponse::KeepAlive
        } else {
            AfterResponse::Close
        }
    }
}

/// What a daemon adds to the skeleton.
pub trait Service: Send + Sync + 'static {
    /// The skeleton state the service was built around.
    fn core(&self) -> &Core;

    /// Answers one request to an endpoint the daemon owns. Must write exactly
    /// one response (or stream) and call [`Exchange::finish`] once, before
    /// the last byte — [`Exchange::respond`] does both.
    fn serve(&self, endpoint: Endpoint, exchange: &mut Exchange<'_>) -> AfterResponse;

    /// Mirrors live sizes onto gauges; called right before `/metrics`
    /// renders.
    fn refresh_gauges(&self) {}

    /// Tears down the daemon's own threads once the accept loop has stopped.
    fn stop(&self) {}
}

/// The skeleton's shared state: telemetry, the bound address, the shutdown
/// flag and the connection counter. Each [`Service`] owns one.
pub struct Core {
    profile: &'static Profile,
    telemetry: Telemetry,
    local_addr: SocketAddr,
    allow_shutdown: bool,
    shutdown: AtomicBool,
    connections: Counter,
    requests_family: String,
    duration_family: String,
}

impl Core {
    /// Opens telemetry and binds `addr`; the listener goes to
    /// [`Daemon::start`] once the service around the core is built.
    ///
    /// # Errors
    ///
    /// Propagates trace-log open failures and bind failures (address in
    /// use, permission, …).
    pub fn bind(
        profile: &'static Profile,
        addr: &str,
        telemetry: &TelemetryOptions,
        allow_shutdown: bool,
    ) -> io::Result<(Core, TcpListener)> {
        let telemetry = Telemetry::new(telemetry)?;
        let listener = TcpListener::bind(addr)?;
        let prefix = profile.metric_prefix;
        let connections = telemetry.registry().counter(
            &format!("{prefix}connections_accepted_total"),
            profile.connections_help,
        );
        let core = Core {
            profile,
            local_addr: listener.local_addr()?,
            allow_shutdown,
            shutdown: AtomicBool::new(false),
            connections,
            requests_family: format!("{prefix}http_requests_total"),
            duration_family: format!("{prefix}http_request_duration_us"),
            telemetry,
        };
        Ok((core, listener))
    }

    /// The daemon's metrics registry and tracer.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// `http://host:port` of the bound address.
    pub fn url(&self) -> String {
        format!("http://{}", self.local_addr)
    }

    /// True once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// TCP connections accepted since startup.
    pub fn connections_accepted(&self) -> u64 {
        self.connections.get()
    }

    /// Flags shutdown and pokes the listener so the accept loop observes it.
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// One per-request observation: a labelled count by endpoint and status
    /// class, and (timing on) the wall-clock service latency. Registration
    /// is idempotent, so the hot path is a registry lookup + atomic bump.
    fn record_request(&self, endpoint: &str, status: u16, served: &Stopwatch) {
        let class = match status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        let registry = self.telemetry.registry();
        registry
            .counter_with(
                &self.requests_family,
                self.profile.requests_help,
                &[("endpoint", endpoint), ("status", class)],
            )
            .inc();
        registry
            .histogram_with(
                &self.duration_family,
                self.profile.duration_help,
                &latency_buckets_us(),
                &[("endpoint", endpoint)],
            )
            .observe_elapsed(served);
    }
}

/// The label value for the `endpoint` dimension: known paths verbatim,
/// everything else collapsed to `other` so scans cannot explode metric
/// cardinality.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/debug/trace" => "/debug/trace",
        "/v1/schemes" => "/v1/schemes",
        "/v1/eval" => "/v1/eval",
        "/v1/generate" => "/v1/generate",
        "/v1/quantize" => "/v1/quantize",
        "/shutdown" => "/shutdown",
        _ => "other",
    }
}

/// Everything observed about one in-flight request: its trace id (honoured
/// from the `x-olive-trace` header or minted when tracing is on), the span
/// it feeds, and the service stopwatch. Purely observational — dropping all
/// of it changes no response byte.
pub struct RequestScope {
    endpoint: &'static str,
    trace_id: Option<String>,
    span: Option<Arc<Span>>,
    served: Stopwatch,
}

impl RequestScope {
    fn begin(core: &Core, request: &Request) -> RequestScope {
        let tracer = core.telemetry.tracer();
        let trace_id = match request.header(TRACE_HEADER) {
            Some(id) => Some(id.to_string()),
            None => tracer.enabled().then(|| tracer.new_trace_id()),
        };
        let endpoint = endpoint_label(&request.path);
        let span = trace_id.as_deref().and_then(|id| tracer.span(id, endpoint));
        if let Some(span) = &span {
            span.event("accepted");
        }
        RequestScope {
            endpoint,
            trace_id,
            span,
            served: core.telemetry.stopwatch(),
        }
    }

    /// The request's span, when tracing follows it.
    pub fn span(&self) -> Option<&Arc<Span>> {
        self.span.as_ref()
    }

    /// The `x-olive-trace` header pair(s) to stamp on outgoing requests and
    /// responses. Empty when tracing is off and the client sent none.
    pub fn headers(&self) -> Vec<(String, String)> {
        self.trace_id
            .iter()
            .map(|id| (TRACE_HEADER.to_string(), id.clone()))
            .collect()
    }

    /// Borrowed form of [`RequestScope::headers`] for the client API.
    pub fn header_refs(&self) -> Vec<(&str, &str)> {
        self.trace_id
            .iter()
            .map(|id| (TRACE_HEADER, id.as_str()))
            .collect()
    }
}

/// One request being answered: the request, the connection to answer on
/// and the request's [`RequestScope`].
pub struct Exchange<'a> {
    pub request: &'a Request,
    pub writer: &'a mut TcpStream,
    pub scope: RequestScope,
    core: &'a Core,
}

impl Exchange<'_> {
    /// Whether a response may keep the connection open: the client asked
    /// for it and the daemon is not shutting down.
    pub fn keep_alive(&self) -> bool {
        self.request.keep_alive() && !self.core.shutdown_requested()
    }

    /// Records the final status and closes the span. Called exactly once
    /// per request, before the response's last byte is on the wire: a
    /// client that saw a complete response must also see it counted in
    /// `/metrics` and traced in `/debug/trace`.
    pub fn finish(&self, status: u16) {
        self.core
            .record_request(self.scope.endpoint, status, &self.scope.served);
        if let Some(span) = &self.scope.span {
            span.finish();
        }
    }

    /// Writes a complete (non-streamed) response, honouring keep-alive.
    pub fn respond(&mut self, response: Response) -> AfterResponse {
        self.write_unary(response, false)
    }

    /// The unary write path: stamps the trace header (unless a relayed
    /// response already carries one), commits telemetry, writes, and — for
    /// `POST /shutdown` — triggers shutdown only after the bytes are on the
    /// wire: once the accept loop unblocks, the process may exit while this
    /// (detached) thread is still writing.
    fn write_unary(&mut self, mut response: Response, shutdown: bool) -> AfterResponse {
        for (name, value) in self.scope.headers() {
            if !response
                .extra_headers
                .iter()
                .any(|(existing, _)| existing.eq_ignore_ascii_case(&name))
            {
                response = response.with_header(&name, value);
            }
        }
        let keep_alive = self.keep_alive() && !shutdown;
        self.finish(response.status);
        let written = response.write_to(self.writer, keep_alive);
        if shutdown {
            self.core.request_shutdown();
        }
        AfterResponse::keep_alive_if(written.is_ok() && keep_alive)
    }
}

/// A started daemon: its service plus the accept thread.
pub struct Daemon<S: Service> {
    service: Arc<S>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
}

impl<S: Service> Daemon<S> {
    /// Starts accepting on `listener` (from [`Core::bind`]), serving every
    /// connection on its own detached thread.
    ///
    /// # Errors
    ///
    /// Propagates a failure to spawn the accept thread.
    pub fn start(listener: TcpListener, service: S) -> io::Result<Daemon<S>> {
        let service = Arc::new(service);
        let accept_service = Arc::clone(&service);
        let accept_handle = std::thread::Builder::new()
            .name(format!("{}-accept", service.core().profile.name))
            .spawn(move || accept_loop(&listener, &accept_service))?;
        Ok(Daemon {
            service,
            accept_handle: Mutex::new(Some(accept_handle)),
        })
    }

    /// The service, shared with the connection threads.
    pub fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// The skeleton state of the service.
    pub fn core(&self) -> &Core {
        self.service.core()
    }

    /// Blocks until shutdown is requested, then stops accepting and runs
    /// [`Service::stop`].
    pub fn wait(&self) {
        if let Some(handle) = lock_or_recover(&self.accept_handle).take() {
            let _ = handle.join();
        }
        self.service.stop();
    }

    /// Requests shutdown and waits for it to complete. Idempotent.
    pub fn shutdown(&self) {
        self.core().request_shutdown();
        self.wait();
    }
}

fn accept_loop<S: Service>(listener: &TcpListener, service: &Arc<S>) {
    let core = service.core();
    for stream in listener.incoming() {
        if core.shutdown_requested() {
            return;
        }
        let Ok(stream) = stream else { continue };
        core.connections.inc();
        let service = Arc::clone(service);
        // Connection threads are detached: they exit on their own via
        // keep-alive idle polling once shutdown is flagged.
        let _ = std::thread::Builder::new()
            .name(format!("{}-conn", core.profile.name))
            .spawn(move || handle_connection(stream, &*service));
    }
}

fn handle_connection<S: Service>(stream: TcpStream, service: &S) {
    // The read timeout doubles as the shutdown-polling tick; NODELAY because
    // request/response exchanges are small and latency-bound.
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let core = service.core();
    let mut idle_ticks = 0u32;
    loop {
        match read_request(&mut reader) {
            ReadOutcome::Disconnected => return,
            ReadOutcome::Idle => {
                idle_ticks += 1;
                if idle_ticks >= MAX_IDLE_TICKS || core.shutdown_requested() {
                    return;
                }
            }
            ReadOutcome::Bad(error) => {
                // Protocol violations close the connection: framing is gone.
                let _ = Response::error(error.status, &error.message).write_to(&mut writer, false);
                return;
            }
            ReadOutcome::Request(request) => {
                idle_ticks = 0;
                let mut exchange = Exchange {
                    scope: RequestScope::begin(core, &request),
                    request: &request,
                    writer: &mut writer,
                    core,
                };
                if dispatch(service, &mut exchange) == AfterResponse::Close {
                    return;
                }
            }
        }
    }
}

/// Routes one request: the service's own endpoints go to
/// [`Service::serve`]; everything else is answered here.
fn dispatch<S: Service>(service: &S, exchange: &mut Exchange<'_>) -> AfterResponse {
    let core = service.core();
    let request = exchange.request;
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => return service.serve(Endpoint::Healthz, exchange),
        ("GET", "/v1/schemes") => return service.serve(Endpoint::Schemes, exchange),
        ("POST", "/v1/eval") => return service.serve(Endpoint::Eval, exchange),
        ("POST", "/v1/generate") => return service.serve(Endpoint::Generate, exchange),
        ("POST", "/v1/quantize") => return service.serve(Endpoint::Quantize, exchange),
        ("GET", "/metrics") => {
            service.refresh_gauges();
            Response::text(200, core.telemetry.registry().render())
        }
        ("GET", "/debug/trace") => {
            let n = request
                .query_param("n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(32);
            let recent = core.telemetry.tracer().recent(n);
            let traces: Vec<String> = recent.iter().map(TraceRecord::to_json).collect();
            Response::json(200, format!("{{\"traces\": [{}]}}", traces.join(", ")))
        }
        ("POST", "/shutdown") if core.allow_shutdown => {
            let body = JsonValue::object(vec![("status", JsonValue::Str("shutting down".into()))]);
            return exchange.write_unary(Response::json(200, body.render()), true);
        }
        ("POST", "/shutdown") => Response::error(
            403,
            "shutdown over HTTP is disabled (start with --allow-shutdown)",
        ),
        // Known path, wrong method.
        (_, "/healthz" | "/metrics" | "/debug/trace" | "/v1/schemes") => {
            Response::error(405, "use GET").with_header("Allow", "GET")
        }
        (_, "/v1/eval" | "/v1/generate" | "/v1/quantize" | "/shutdown") => {
            Response::error(405, "use POST").with_header("Allow", "POST")
        }
        (_, path) => Response::error(
            404,
            &format!(
                "no such endpoint '{path}' (have: GET /healthz, GET /metrics, GET /debug/trace, \
                 GET /v1/schemes, POST /v1/eval, POST /v1/generate, POST /v1/quantize)"
            ),
        ),
    };
    exchange.respond(response)
}
