//! Starting the serving stack in-process through the public
//! `Server::start` / `Router::start`, warming it, and reading each daemon's
//! own `/metrics`.

use crate::workload::{Class, Payload, Workload, EVAL_SCHEMES};
use olive_router::{Ring, Router, RouterConfig};
use olive_serve::{client, ServeConfig, Server, TelemetryOptions};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// The running stack of one phase.
pub struct Stack {
    /// The workers the load reaches (directly or through the router).
    pub workers: Vec<Server>,
    pub router: Option<Router>,
}

/// First port of the scan for the routed workers' port pair.
const FIRST_WORKER_PORT: u16 = 41_000;
/// Ports scanned before set-up gives up.
const WORKER_PORT_SCAN: u16 = 400;

fn serve_config(addr: &str, traced: bool) -> ServeConfig {
    ServeConfig {
        addr: addr.to_string(),
        telemetry: TelemetryOptions {
            enabled: traced,
            ..TelemetryOptions::default()
        },
        ..ServeConfig::default()
    }
}

/// Worker index owning each key class, `[eval, generate, quantize]`.
fn placement(addrs: &[String]) -> [usize; 3] {
    let ring = Ring::new(addrs);
    let key = |payload: &Payload| {
        let json = olive_api::JsonValue::parse(&payload.body()).expect("stream bodies are JSON");
        match payload {
            Payload::Eval { .. } => olive_serve::EvalRequest::decode(&json)
                .expect("valid eval body")
                .prepared_key(),
            Payload::Gen { .. } => olive_serve::GenerateRequest::decode(&json)
                .expect("valid generate body")
                .prepared_key(),
            Payload::Quantize { .. } => {
                let req = olive_serve::QuantizeRequest::decode(&json).expect("valid quantize body");
                format!("quantize;scheme={}", req.scheme)
            }
        }
    };
    let warm = Workload::UnaryRouted.warmup();
    let owner = |class: Class| {
        let payload = warm
            .iter()
            .find(|p| p.class() == class)
            .expect("the routed warm-up sends every class");
        ring.owner(&key(payload)).expect("non-empty ring")
    };
    [
        owner(Class::Eval),
        owner(Class::Gen),
        owner(Class::Quantize),
    ]
}

fn local(port: u16) -> String {
    format!("127.0.0.1:{port}")
}

/// The first port `p ≥ from` such that the ring over workers on ports `p`
/// and `p + 1` places evals and generations on one worker and quantize on
/// the other.
///
/// The ring hashes worker addresses, so with ephemeral ports the key
/// placement — and with it how the load splits — would change from run to
/// run. Fixed ports give every run the one placement this benchmark
/// measures.
fn routed_port(from: u16) -> Option<u16> {
    (from..FIRST_WORKER_PORT + WORKER_PORT_SCAN).find(|&port| {
        let [eval, gen, quantize] = placement(&[local(port), local(port + 1)]);
        eval == gen && eval != quantize
    })
}

impl Stack {
    /// Starts the stack and sends the workload's warm-up requests. Returns
    /// the stack and its set-up time in seconds: server/router start to
    /// the end of the warm-up.
    pub fn start(workload: Workload, traced: bool) -> Result<(Stack, f64), String> {
        fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
            move |e| format!("{what}: {e}")
        }
        if !workload.routed() {
            let started = Instant::now();
            let server = Server::start(serve_config("127.0.0.1:0", traced))
                .map_err(io("starting the server"))?;
            let stack = Stack {
                workers: vec![server],
                router: None,
            };
            stack.warm(workload)?;
            return Ok((stack, started.elapsed().as_secs_f64()));
        }

        // A pair with a port another process holds is skipped.
        let mut from = FIRST_WORKER_PORT;
        let (started, workers) = loop {
            let port = routed_port(from)
                .ok_or("no free worker port pair gives the measured key placement")?;
            let started = Instant::now();
            let first = Server::start(serve_config(&local(port), traced));
            let second = Server::start(serve_config(&local(port + 1), traced));
            match (first, second) {
                (Ok(a), Ok(b)) => break (started, vec![a, b]),
                (a, b) => {
                    for server in [a, b].into_iter().flatten() {
                        server.shutdown();
                    }
                    from = port + 1;
                }
            }
        };
        let router = Router::start(RouterConfig {
            workers: workers.iter().map(|w| w.local_addr().to_string()).collect(),
            telemetry: TelemetryOptions {
                enabled: traced,
                ..TelemetryOptions::default()
            },
            ..RouterConfig::default()
        })
        .map_err(io("starting the router"))?;
        let stack = Stack {
            workers,
            router: Some(router),
        };
        stack.warm(workload)?;
        Ok((stack, started.elapsed().as_secs_f64()))
    }

    /// Where the load is sent: the router when there is one.
    pub fn target(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.local_addr(),
            None => self.workers[0].local_addr(),
        }
    }

    fn warm(&self, workload: Workload) -> Result<(), String> {
        for payload in workload.warmup() {
            let response = client::post_json(self.target(), payload.path(), &payload.body())
                .map_err(|e| format!("warm-up {}: {e}", payload.path()))?;
            if response.status != 200 {
                return Err(format!(
                    "warm-up {} answered {}: {}",
                    payload.path(),
                    response.status,
                    response.body
                ));
            }
        }
        Ok(())
    }

    /// Makes every cached eval answer resident on every worker, so a
    /// request sent straight to either worker is a cache hit (used to time
    /// the router's relay against the direct path).
    pub fn warm_evals_everywhere(&self) -> Result<(), String> {
        for worker in &self.workers {
            for scheme in EVAL_SCHEMES {
                let payload = Payload::Eval { scheme };
                let response =
                    client::post_json(worker.local_addr(), payload.path(), &payload.body())
                        .map_err(|e| format!("direct eval warm-up: {e}"))?;
                if response.status != 200 {
                    return Err(format!("direct eval warm-up answered {}", response.status));
                }
            }
        }
        Ok(())
    }

    /// A snapshot of every daemon's `/metrics`.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let get = |addr: SocketAddr| -> Result<Metrics, String> {
            let response = client::get(addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
            if response.status != 200 {
                return Err(format!("/metrics answered {}", response.status));
            }
            Ok(parse_exposition(&response.body))
        };
        Ok(Scrape {
            workers: self
                .workers
                .iter()
                .map(|w| get(w.local_addr()))
                .collect::<Result<_, _>>()?,
            router: self
                .router
                .as_ref()
                .map(|r| get(r.local_addr()))
                .transpose()?,
        })
    }

    pub fn shutdown(self) {
        if let Some(router) = &self.router {
            router.shutdown();
        }
        for server in &self.workers {
            server.shutdown();
        }
    }
}

/// One daemon's metrics: series (name plus rendered labels) → value.
pub type Metrics = BTreeMap<String, f64>;

/// Every daemon's metrics at one instant.
#[derive(Debug, Clone)]
pub struct Scrape {
    pub workers: Vec<Metrics>,
    pub router: Option<Metrics>,
}

/// Parses Prometheus text exposition; comment lines are skipped.
pub fn parse_exposition(text: &str) -> Metrics {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Sum over `metrics` of every series whose name is `name` (any labels).
pub fn family_sum(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .iter()
        .filter(|(series, _)| {
            series
                .strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// `after − before` of one series, summed over the workers.
pub fn worker_delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    before
        .workers
        .iter()
        .zip(&after.workers)
        .map(|(b, a)| a.get(series).unwrap_or(&0.0) - b.get(series).unwrap_or(&0.0))
        .sum()
}

/// `after − before` of one router series (0 without a router).
pub fn router_delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    match (&before.router, &after.router) {
        (Some(b), Some(a)) => a.get(series).unwrap_or(&0.0) - b.get(series).unwrap_or(&0.0),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_series_with_labels() {
        let text = "# HELP x y\n# TYPE x counter\nx 3\nh_sum 10\n\
                    r{endpoint=\"/v1/eval\",status=\"2xx\"} 7\nrr 1\n";
        let m = parse_exposition(text);
        assert_eq!(m["x"], 3.0);
        assert_eq!(m["r{endpoint=\"/v1/eval\",status=\"2xx\"}"], 7.0);
        assert_eq!(family_sum(&m, "r"), 7.0, "'rr' is another family");
    }

    #[test]
    fn the_routed_port_pair_is_fixed_and_splits_quantize_off() {
        let port = routed_port(FIRST_WORKER_PORT).expect("a pair in the scan range");
        assert_eq!(routed_port(FIRST_WORKER_PORT), Some(port));
        let [eval, gen, quantize] = placement(&[local(port), local(port + 1)]);
        assert_eq!(eval, gen);
        assert_ne!(eval, quantize);
    }
}
