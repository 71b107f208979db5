//! `live_mix`: an open-loop Poisson schedule of the skewed synthetic
//! mix, served after a warm restart from an earlier window's snapshot.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qrc_serve::{CompilationService, ServeRequest, ServiceConfig};

use crate::check::Checker;
use crate::client::{exchange, Exchange, Pacing, Server};
use crate::gen;
use crate::metrics::{cpu_seconds, peak_rss_mb, Report};
use crate::serving::{self, Scored, Setups, SETUPS_PER_BLOCK};
use crate::stats::{mean, median_of_means, tail_percentile};
use crate::trace::Tracer;

/// Requests per batch while serving the earlier window.
const EARLIER_BATCH: usize = 16;

/// Latency limit: hits answer in a few milliseconds and narrow misses
/// in tens, so few requests land near it unless a queue builds.
pub const SLO_MS: f64 = 250.0;

/// Seconds of schedule per connection. Between connections the run
/// times a block of set-ups, so that set-up samples spread over the
/// whole run.
const SEGMENT_S: u64 = 2;

/// Restores a service the way a restarted server does: start over the
/// checkpoints, import the snapshot, seal the warmup.
fn restore(config: &ServiceConfig) -> Result<(CompilationService, f64, f64, u64), String> {
    let (service, start_s) = serving::timed(|| CompilationService::start(config));
    let service = service.map_err(|e| e.to_string())?;
    let (loaded, load_s) = serving::timed(|| service.load_snapshot());
    let loaded = loaded.map_err(|e| e.to_string())?;
    service.finish_warmup();
    Ok((service, start_s, load_s, loaded.loaded))
}

/// What serving the live window produced.
struct Phase {
    log: Vec<Exchange>,
    service: Arc<CompilationService>,
    /// Seconds from each segment's start to its last reply, summed.
    span_s: f64,
    mean_latency_ms: f64,
}

/// Serves the live window on a restored service, `segments`
/// consecutive slices of its schedule over one connection each,
/// timing a block of `setups` (if any) after each connection. Each
/// slice's schedule starts when its connection opens.
fn phase(
    service: CompilationService,
    mix: &gen::LiveMix,
    segments: usize,
    tracer: &mut Tracer,
    mut setups: Option<&mut Setups<'_, CompilationService>>,
) -> Result<Phase, String> {
    let service = Arc::new(service);
    let server = Server::start(&service).map_err(|e| e.to_string())?;
    let (mut log, mut span_s) = (Vec::with_capacity(mix.live.len()), 0.0);
    let per = mix.live.len().div_ceil(segments.max(1));
    for (requests, due_us) in mix.live.chunks(per).zip(mix.due_us.chunks(per)) {
        let base = due_us[0];
        let due: Vec<u64> = due_us.iter().map(|d| d - base).collect();
        let offset = log.len();
        let part = exchange(server.addr(), requests, Pacing::Open(&due), |i, line| {
            if tracer.enabled() {
                let rid = (offset + i) as u64;
                let parsed = tracer.time("serve.protocol.parse", rid, || ServeRequest::parse(line));
                assert!(parsed.is_ok(), "generated request lines parse");
            }
        })
        .map_err(|e| e.to_string())?;
        span_s += part
            .iter()
            .filter_map(|e| e.reply.as_ref().map(|r| r.0.as_secs_f64()))
            .fold(0.0, f64::max);
        log.extend(part);
        if let Some(setups) = setups.as_deref_mut() {
            setups.block()?;
        }
    }
    server.stop().map_err(|e| e.to_string())?;
    let mean_latency_ms = mean(
        &log.iter()
            .filter_map(Exchange::latency_ms)
            .collect::<Vec<_>>(),
    );
    Ok(Phase {
        log,
        service,
        span_s,
        mean_latency_ms,
    })
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool, work_dir: &Path) -> Result<Report, String> {
    let mix = gen::live_mix(seed, seconds);
    let config = serving::service_config(work_dir);
    serving::train_models(&config).map_err(|e| e.to_string())?;
    {
        let earlier = CompilationService::start(&config).map_err(|e| e.to_string())?;
        for batch in mix.earlier.chunks(EARLIER_BATCH) {
            earlier.handle_batch(batch);
        }
        earlier.write_snapshot().map_err(|e| e.to_string())?;
    }
    let mut report = Report::new();
    let (mut starts, mut loads, mut entries) = (Vec::new(), Vec::new(), 0);
    let segments = (seconds / SEGMENT_S).max(1) as usize;
    let untraced = {
        let mut setups = Setups::new(|| {
            let (service, start_s, load_s, loaded) = restore(&config)?;
            starts.push(start_s);
            loads.push(load_s);
            entries = loaded;
            Ok(service)
        });
        let (service, ..) = restore(&config)?;
        let (begin, cpu_begin) = (Instant::now(), cpu_seconds());
        let untraced = phase(
            service,
            &mix,
            segments,
            &mut Tracer::new(false),
            Some(&mut setups),
        )?;
        report.set("setup_s", setups.estimate());
        let wall = begin.elapsed().as_secs_f64();
        report.set("proc.cpu_util", (cpu_seconds() - cpu_begin) / wall);
        untraced
    };
    report.set(
        "serve.registry.start_ms",
        median_of_means(&starts, SETUPS_PER_BLOCK) * 1e3,
    );
    report.set(
        "serve.persist.snapshot_load_ms",
        median_of_means(&loads, SETUPS_PER_BLOCK) * 1e3,
    );
    report.set("serve.persist.snapshot_entries", entries as f64);

    let mut checker = Checker::default();
    let mut scored = Scored::default();
    scored.add(&mut checker, &mix.live, &untraced.log, SLO_MS);
    let answered = scored.latencies_ms.len() as f64;
    report.set("throughput_per_s", answered / untraced.span_s.max(1e-9));
    if let Some(lag) = tail_percentile(&scored.lags_ms, 99.0) {
        report.set("gen.lag_ms_p99", lag);
    }
    scored.report(&mut report);
    report.set("peak_rss_mb", peak_rss_mb());
    let untraced_mean = untraced.mean_latency_ms;
    drop(untraced);

    if trace {
        let mut tracer = Tracer::new(true);
        let (service, ..) = restore(&config)?;
        let traced = phase(service, &mix, segments, &mut tracer, None)?;
        report.set(
            "trace.overhead_frac",
            traced.mean_latency_ms / untraced_mean - 1.0,
        );
        let service = &traced.service;
        serving::service_layers(service, &mut report);
        let stats = serving::replay_misses(&mut tracer, service, &config, &mix.live, &traced.log);
        report.correct &= stats.report(&tracer, &mut report);
        serving::span_layers(&tracer, &mut report);
        tracer
            .write(&work_dir.join("trace.ndjson"))
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}
