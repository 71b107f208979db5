//! `cold_compile`: a closed loop of pairwise-distinct requests, so the
//! cache only inserts and every answer is a policy rollout.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrc_serve::{CompilationService, ServeRequest, ServiceConfig};

use crate::check::Checker;
use crate::client::{exchange, Exchange, Pacing, Server};
use crate::gen;
use crate::metrics::{cpu_seconds, peak_rss_mb, Report};
use crate::serving::{self, Scored, Setups};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;

/// Requests the client keeps in flight: one, so a request's latency is
/// its own admission and rollout, never a wait behind a batch-mate
/// whose routing takes a hundred times longer.
pub const WINDOW: usize = 1;

/// Latency limit: narrow compiles answer in milliseconds and the
/// slowest routed ones in under a second, so few requests land near it.
pub const SLO_MS: f64 = 2_000.0;

/// Requests per connection. Between connections the run times a block
/// of set-ups, so that set-up samples spread over the whole run.
const CHUNK: usize = 49;

/// One pass: a fresh service (cold cache) answers every request once.
struct Pass {
    log: Vec<Exchange>,
    wall: Duration,
    service: Arc<CompilationService>,
}

/// Serves `requests` on a fresh service, [`CHUNK`] requests per
/// connection, timing a block of `setups` after each connection. The
/// pass's wall time counts only the connections.
fn pass(
    config: &ServiceConfig,
    requests: &[ServeRequest],
    tracer: &mut Tracer,
    setups: &mut Setups<'_, CompilationService>,
) -> Result<Pass, String> {
    let service = Arc::new(CompilationService::start(config).map_err(|e| e.to_string())?);
    let server = Server::start(&service).map_err(|e| e.to_string())?;
    let mut log = Vec::with_capacity(requests.len());
    let mut wall = Duration::ZERO;
    for chunk in requests.chunks(CHUNK) {
        let (offset, start) = (log.len(), Instant::now());
        let part = exchange(server.addr(), chunk, Pacing::Closed(WINDOW), |i, line| {
            if tracer.enabled() {
                let rid = (offset + i) as u64;
                let parsed = tracer.time("serve.protocol.parse", rid, || ServeRequest::parse(line));
                assert!(parsed.is_ok(), "generated request lines parse");
            }
        })
        .map_err(|e| e.to_string())?;
        wall += start.elapsed();
        log.extend(part);
        setups.block()?;
    }
    server.stop().map_err(|e| e.to_string())?;
    Ok(Pass { log, wall, service })
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool, work_dir: &Path) -> Result<Report, String> {
    let requests = gen::cold_compile_requests(seed);
    let config = serving::service_config(work_dir);
    serving::train_models(&config).map_err(|e| e.to_string())?;
    let mut report = Report::new();
    let mut setups = Setups::new(|| CompilationService::start(&config).map_err(|e| e.to_string()));

    let mut checker = Checker::default();
    let mut scored = Scored::default();
    let mut untraced = Tracer::new(false);
    let budget = Duration::from_secs(seconds);
    let (begin, cpu_begin) = (Instant::now(), cpu_seconds());
    let mut walls = Vec::new();
    let mut first: Option<Vec<Exchange>> = None;
    loop {
        let done = pass(&config, &requests, &mut untraced, &mut setups)?;
        scored.add(&mut checker, &requests, &done.log, SLO_MS);
        walls.push(done.wall);
        if let Some(first) = &first {
            report.correct &= same_payloads(first, &done.log);
        } else {
            first = Some(done.log);
        }
        if trace || begin.elapsed() >= budget {
            break;
        }
    }
    report.set("setup_s", setups.estimate());
    report.set("serve.registry.start_ms", setups.estimate() * 1e3);
    let per_pass: Vec<f64> = walls
        .iter()
        .map(|w| requests.len() as f64 / w.as_secs_f64())
        .collect();
    report.set("throughput_per_s", median(&per_pass));
    report.set(
        "proc.cpu_util",
        (cpu_seconds() - cpu_begin) / begin.elapsed().as_secs_f64(),
    );
    if let Some(lag) = tail_percentile(&scored.lags_ms, 99.0) {
        report.set("gen.lag_ms_p99", lag);
    }
    if trace {
        // One untraced pass is the overhead baseline; too few requests
        // for the end-to-end tail, which only untraced runs report.
        scored.report_counts(&mut report);
    } else {
        scored.report(&mut report);
    }
    report.set("peak_rss_mb", peak_rss_mb());

    if trace {
        let mut tracer = Tracer::new(true);
        let traced = pass(&config, &requests, &mut tracer, &mut setups)?;
        report.set(
            "trace.overhead_frac",
            traced.wall.as_secs_f64() / walls[0].as_secs_f64() - 1.0,
        );
        report.correct &= same_payloads(first.as_ref().expect("one pass ran"), &traced.log);
        serving::service_layers(&traced.service, &mut report);
        let stats = serving::replay_misses(
            &mut tracer,
            &traced.service,
            &config,
            &requests,
            &traced.log,
        );
        report.correct &= stats.report(&tracer, &mut report);
        serving::span_layers(&tracer, &mut report);
        tracer
            .write(&work_dir.join("trace.ndjson"))
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}

/// Whether two passes answered every request with the same payload
/// (everything but timing, request ID and cache status).
fn same_payloads(a: &[Exchange], b: &[Exchange]) -> bool {
    let payload = |e: &Exchange| {
        e.reply.as_ref().and_then(|(_, line)| {
            let value = serde_json::from_str(line).ok()?;
            let field = |k: &str| value.get(k).map(serde_json::to_string);
            Some([
                field("id"),
                field("ok"),
                field("qasm"),
                field("actions"),
                field("reward"),
            ])
        })
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| payload(x) == payload(y))
}
