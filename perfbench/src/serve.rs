//! `serve`: open-loop load on the in-process `SortService`.
//!
//! One sender thread submits on an absolute schedule (`t0 + i / RATE`),
//! never waiting for replies; one collector thread waits for the tickets
//! in submission order. Each latency runs from the request's *due* time,
//! so a stall charges every request queued behind it.

use crate::gen::{self, PlainReq, PROCS};
use crate::layers;
use crate::report::{self, ms, percentile, us, Report, Sample, Spans};
use crate::Args;
use bitonic_network::Direction;
use obs::TraceConfig;
use sort_service::{Rejection, ServiceConfig, SortRequest, SortService, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rate, requests per second: a quarter of the service's
/// saturation rate on a 2-vCPU host (it sheds from about 34k req/s and
/// answers at most about 37k req/s of this mix), so batches form
/// (about 6 requests each) while queues stay short. The sweep behind
/// these figures is in `perfbench/README.md`.
pub const RATE: f64 = 9000.0;
/// Latency limit of `slo_ok_rate`, milliseconds.
pub const SLO_MS: f64 = 20.0;
/// Distinct generated requests (80 of each cell of the mix); the
/// schedule cycles through them.
const POOL: usize = 4160;

pub fn run(args: &Args) -> Report {
    let pool = gen::serve_requests(args.seed, POOL);
    let mut rep = Report::default();
    rep.note("why_terms", format!("{RATE} req/s|SLO {SLO_MS} ms"));
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
    // Set-up: calibration, service boot, plan-cache warm-up.
    let t_setup = Instant::now();
    local_sorts::dispatch::ensure_calibrated();
    let t_boot = Instant::now();
    let mut cfg = ServiceConfig::new(PROCS);
    if args.trace {
        cfg.trace = TraceConfig::with_capacity(crate::TRACE_CAPACITY);
    }
    let svc = SortService::start(cfg);
    let t_warm = Instant::now();
    let warm_sent = crate::warm_shapes(
        2 * PROCS,
        cfg.max_request_keys,
        cfg.max_batch_keys,
        |keys| svc.submit(SortRequest::ascending(keys)),
        &mut rep,
    );
    // The dispatcher publishes counters after replying; wait for them.
    while svc.stats().completed < warm_sent && t_warm.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let t_ready = Instant::now();
    crate::setup_times(&mut rep, t_setup, t_boot, t_warm, t_ready);
    if args.setup_only {
        let _ = svc.shutdown();
        return rep;
    }

    let metrics = svc.metrics().expect("metrics are on by default");
    let before = layers::Counts::single(&svc.stats());
    let snap_before = metrics.snapshot();

    // The measured window.
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + window;
    let sampler = report::StealSampler::start(start, args.seconds);
    type Sent = (usize, Instant, Result<Ticket, Rejection>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (sent, mut late, mut submit_us, samples, mismatches, sender_spans, collector_spans) =
        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut spans = Spans::new(args.trace);
                let (mut late, mut submit_us) = (Vec::new(), Vec::new());
                let mut i = 0usize;
                loop {
                    let due = start + Duration::from_secs_f64(i as f64 / RATE);
                    if due >= end {
                        break;
                    }
                    report::sleep_until(due);
                    let req = &pool[i % POOL];
                    let request = SortRequest::new(req.keys.clone(), req.dir);
                    let t0 = Instant::now();
                    late.push(ms(t0 - due));
                    let ticket = svc.submit(request);
                    let t1 = Instant::now();
                    spans.record("admission.submit", 1, t0, t1);
                    submit_us.push(us(t1 - t0));
                    tx.send((i, due, ticket)).expect("collector alive");
                    i += 1;
                }
                drop(tx);
                (i as u64, late, submit_us, spans)
            });
            let collector = s.spawn(|| {
                let mut spans = Spans::new(args.trace);
                let mut samples = Vec::new();
                let mut mismatches = 0usize;
                for (i, due, ticket) in rx {
                    let req: &PlainReq = &pool[i % POOL];
                    let Ok(ticket) = ticket else { continue };
                    let t0 = Instant::now();
                    let reply = ticket.wait();
                    let done = Instant::now();
                    spans.record("ticket.wait", 2, t0, done);
                    let ok = match reply {
                        Ok(r) => {
                            mismatches += usize::from(r != req.expected);
                            r == req.expected
                        }
                        Err(_) => false,
                    };
                    samples.push(Sample {
                        done_s: (done - start).as_secs_f64(),
                        latency_s: (done - due).as_secs_f64(),
                        keys: req.keys.len() as u64,
                        ok,
                    });
                }
                (samples, mismatches, spans)
            });
            let (sent, late, submit_us, sender_spans) = sender.join().expect("sender");
            let (samples, mismatches, collector_spans) = collector.join().expect("collector");
            (
                sent,
                late,
                submit_us,
                samples,
                mismatches,
                sender_spans,
                collector_spans,
            )
        });
    spans.absorb(sender_spans);
    spans.absorb(collector_spans);
    let steal = sampler.finish();

    let after = layers::Counts::single(&svc.stats());
    let snap_after = metrics.snapshot();
    report::end_to_end(&mut rep, &samples, sent, SLO_MS, &steal);
    if mismatches > 0 {
        rep.error(format!("{mismatches} replies differ from the oracle"));
    }
    rep.set("gen.late_p99_ms", percentile(&mut late, 99.0));
    rep.set("gen.sent", sent as f64);
    rep.set("admission.submit_us_p50", percentile(&mut submit_us, 50.0));

    let report = svc.shutdown();
    let stats = report.stats;
    let snap = metrics.snapshot();
    crate::reconcile_single(&mut rep, &stats, &snap, warm_sent + sent);

    if args.trace {
        let window = after.since(&before);
        window.report(&mut rep);
        layers::registry_metrics(&mut rep, &snap_before, &snap_after);
        layers::span_metrics(&mut rep, &[&report.trace]);
        let requests: Vec<(&[u32], Direction)> =
            pool.iter().map(|r| (r.keys.as_slice(), r.dir)).collect();
        layers::tagged_probe(&mut rep, &mut spans, &requests, window.mean_batch_keys());
        let words = layers::machine_words(&requests, window.mean_batch_keys());
        let core = layers::core_probe(&mut rep, &mut spans, &words, cfg.mode);
        layers::split_probe(&mut rep, &mut spans, &pool);
        let frames = crate::plain_frames(&pool[..256]);
        let pairs: Vec<_> = frames.iter().map(|f| (&f.frame, &f.expected)).collect();
        layers::codec_probe(&mut rep, &mut spans, &pairs);
        layers::wire_probe(&mut rep, &mut spans, &frames, false);
        crate::write_trace(args, &mut rep, &[report.trace], &core, &spans);
    }
    rep.set("peak_rss_mb", report::peak_rss_mb() - rss_inputs);
    rep
}
