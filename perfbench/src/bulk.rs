//! `bulk`: closed-loop over-band sorts on the in-process `ShardedService`.
//!
//! One client submits u32 requests of 4–16× the widest band, one at a
//! time. Each is cut by `split::plan` into in-band sub-requests, sorted
//! by both shards' machines and merged by `merge_parts`; admission waits
//! and the wire play no part.

use crate::gen::{self, PROCS};
use crate::layers;
use crate::report::{self, ms, percentile, us, Report, Sample, Spans};
use crate::Args;
use bitonic_network::Direction;
use obs::TraceConfig;
use sort_service::{Router, ShardedConfig, ShardedService, SortRequest};
use std::time::{Duration, Instant};

/// Distinct generated requests; the client cycles through them.
const POOL: usize = 24;
/// Latency limit of `slo_ok_rate`, milliseconds.
pub const SLO_MS: f64 = 250.0;

pub fn run(args: &Args) -> Report {
    let cfg = ShardedConfig::banded_bulk(PROCS, 2);
    let widest = Router::new(&cfg).max_keys();
    let narrow = cfg.classes[0].pool.max_request_keys;
    let max_batch = cfg.classes[1].pool.max_batch_keys;
    // Partitions run on the wide shard's machines.
    let mode = cfg.classes[1].pool.mode;
    let pool = gen::bulk_requests(args.seed, POOL, widest);
    let mut rep = Report::default();
    rep.note("why_terms", format!("SLO {SLO_MS} ms"));
    if args.digest {
        let mut d = gen::Digest::new();
        d.plain(&pool);
        rep.note("input_digest", d.hex());
        return rep;
    }
    let mut spans = Spans::new(args.trace);

    // Inputs and oracles are resident from here on: `peak_rss_mb` is
    // the program's growth of the peak past them.
    let rss_inputs = report::rss_mb();
    let t_setup = Instant::now();
    local_sorts::dispatch::ensure_calibrated();
    let t_boot = Instant::now();
    let mut cfg = cfg;
    if args.trace {
        cfg.trace = TraceConfig::with_capacity(crate::TRACE_CAPACITY);
    }
    let svc = ShardedService::start(cfg);
    // Warm the narrow shard's batch shapes, then the bulk path with one
    // pass over the workload's requests: splitting is deterministic, so
    // the measured window meets the same partitions, and the wide shard
    // only ever sees partitions.
    let t_warm = Instant::now();
    let submit = |keys| svc.submit(SortRequest::ascending(keys));
    crate::warm_shapes(2 * PROCS, narrow, max_batch, submit, &mut rep);
    for req in &pool {
        match svc
            .submit(SortRequest::new(req.keys.clone(), req.dir))
            .map(|t| t.wait())
        {
            Ok(Ok(got)) if got == req.expected => {}
            _ => rep.error("bulk warm-up: request failed".into()),
        }
    }
    let t_ready = Instant::now();
    crate::setup_times(&mut rep, t_setup, t_boot, t_warm, t_ready);
    if args.setup_only {
        let _ = svc.shutdown();
        return rep;
    }

    let metrics = svc.metrics().expect("metrics are on by default");
    let before = layers::Counts::sharded(&svc.stats());
    let snap_before = metrics.snapshot();

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let sampler = report::StealSampler::start(start, args.seconds);
    let mut samples = Vec::new();
    let (mut late, mut submit_us) = (Vec::new(), Vec::new());
    let (mut sent, mut mismatches) = (0u64, 0u64);
    let mut prev_done = start;
    loop {
        let req = &pool[sent as usize % POOL];
        let request = SortRequest::new(req.keys.clone(), req.dir);
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        late.push(ms(t0.saturating_duration_since(prev_done)));
        let ticket = svc.submit(request);
        let t1 = Instant::now();
        spans.record("admission.submit", 1, t0, t1);
        submit_us.push(us(t1 - t0));
        let reply = ticket.map(|t| t.wait());
        let done = Instant::now();
        spans.record("ticket.wait", 1, t1, done);
        let ok = match reply {
            Ok(Ok(got)) => {
                mismatches += u64::from(got != req.expected);
                got == req.expected
            }
            _ => false,
        };
        samples.push(Sample {
            done_s: (done - start).as_secs_f64(),
            latency_s: (done - t0).as_secs_f64(),
            keys: req.keys.len() as u64,
            ok,
        });
        sent += 1;
        prev_done = done;
    }
    let steal = sampler.finish();
    let after = layers::Counts::sharded(&svc.stats());
    let snap_after = metrics.snapshot();
    report::end_to_end(&mut rep, &samples, sent, SLO_MS, &steal);
    if mismatches > 0 {
        rep.error(format!(
            "{mismatches} merged replies differ from the oracle"
        ));
    }
    rep.set("gen.late_p99_ms", percentile(&mut late, 99.0));
    rep.set("gen.sent", sent as f64);
    rep.set("admission.submit_us_p50", percentile(&mut submit_us, 50.0));

    let report = svc.shutdown();
    let stats = &report.stats;
    let snap = metrics.snapshot();
    rep.reconcile(
        "bulk submitted vs sent",
        stats.bulk_submitted,
        POOL as u64 + sent,
    );
    rep.reconcile(
        "registry bulk submitted",
        snap.counter_total("bitonic_bulk_requests_total"),
        stats.bulk_submitted,
    );
    rep.reconcile(
        "registry bulk completed",
        snap.counter_total("bitonic_bulk_completed_total"),
        stats.bulk_completed,
    );
    rep.reconcile(
        "registry bulk failed",
        snap.counter_total("bitonic_bulk_failed_total"),
        stats.bulk_failed,
    );
    rep.reconcile(
        "bulk completed + failed vs submitted",
        stats.bulk_completed + stats.bulk_failed,
        stats.bulk_submitted,
    );
    for sh in &stats.shards {
        let labeled = |name: &str| snap.counter_labeled(name, "class", &sh.class);
        let c = &sh.class;
        rep.reconcile(
            &format!("{c} submitted"),
            labeled("bitonic_requests_submitted_total"),
            sh.submitted,
        );
        rep.reconcile(
            &format!("{c} completed"),
            labeled("bitonic_requests_completed_total"),
            sh.completed,
        );
        rep.reconcile(
            &format!("{c} shed"),
            labeled("bitonic_requests_shed_total"),
            sh.shed,
        );
        rep.reconcile(
            &format!("{c} failed"),
            labeled("bitonic_requests_failed_total"),
            sh.failed,
        );
        rep.reconcile(
            &format!("{c} batches"),
            labeled("bitonic_batches_total"),
            sh.batches,
        );
    }
    // A stolen request is admitted by one shard and answered by another,
    // so admissions and answers balance across the shards, not per shard.
    let sum = |f: fn(&sort_service::ShardStats) -> u64| stats.shards.iter().map(f).sum::<u64>();
    rep.reconcile(
        "admitted vs answered",
        sum(|s| s.admitted),
        sum(|s| s.completed + s.expired + s.failed),
    );

    if args.trace {
        let window = after.since(&before);
        window.report(&mut rep);
        layers::registry_metrics(&mut rep, &snap_before, &snap_after);
        let classes: Vec<&obs::RankTrace> = report.shard_traces.iter().collect();
        layers::span_metrics(&mut rep, &classes);
        let parts = layers::split_probe(&mut rep, &mut spans, &pool);
        let requests: Vec<(&[u32], Direction)> = parts
            .iter()
            .map(|p| (p.as_slice(), Direction::Ascending))
            .collect();
        let batch_keys = window.mean_batch_keys();
        layers::tagged_probe(&mut rep, &mut spans, &requests, batch_keys);
        let words = layers::machine_words(&requests, batch_keys);
        let core = layers::core_probe(&mut rep, &mut spans, &words, mode);
        let frames = crate::plain_frames(&pool[..4]);
        let pairs: Vec<_> = frames.iter().map(|f| (&f.frame, &f.expected)).collect();
        layers::codec_probe(&mut rep, &mut spans, &pairs);
        layers::wire_probe(&mut rep, &mut spans, &frames, true);
        let mut service = report.shard_traces.clone();
        service.push(report.router_trace.clone());
        crate::write_trace(args, &mut rep, &service, &core, &spans);
    }
    rep.set("peak_rss_mb", report::peak_rss_mb() - rss_inputs);
    rep
}
