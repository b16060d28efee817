//! `wire`: closed-loop load on a loopback `WireServer`.
//!
//! Two connections, one generator thread each, exchange `SORT_1` frames
//! one at a time: plain u32 frames mixed with u64 and u128 record frames
//! carrying payload strides of 0, 64 and 256 bytes. With only two
//! callers a batch never grows, so the coalescer's `max_wait` is the
//! main stage of every request.

use crate::gen::{self, PlainReq, WireReq, PROCS};
use crate::layers;
use crate::report::{self, ms, percentile, Report, Sample, Spans};
use crate::Args;
use bitonic_network::Direction;
use obs::TraceConfig;
use sort_service::net::REJECTION_LABELS;
use sort_service::{ReplyFrame, RequestFrame, ServiceConfig, WireClient, WireConfig, WireServer};
use std::time::{Duration, Instant};

/// Generator threads, one connection each.
const CONNECTIONS: usize = 2;
/// Distinct generated frames per connection (two of each cell of the
/// mix); each connection cycles through its own.
const POOL: usize = 312;
/// Latency limit of `slo_ok_rate`, milliseconds.
pub const SLO_MS: f64 = 20.0;

/// Warm the plain lane and both record lanes at every padded shape a
/// single request can produce.
fn warm(client: &mut WireClient, max_request_keys: usize, rep: &mut Report) -> u64 {
    let mut rng = gen::Rng::new(7);
    let mut sent = 0;
    let mut per_rank = 2;
    while per_rank * PROCS <= max_request_keys {
        let n = per_rank * PROCS;
        let k32: Vec<u32> = (0..n).map(|_| rng.next() as u32).collect();
        let k64: Vec<u64> = (0..n).map(|_| rng.next()).collect();
        let k128: Vec<u128> = (0..n).map(|_| u128::from(rng.next()) << 64).collect();
        for frame in [
            RequestFrame::from_u32_keys(&k32, Direction::Ascending, None),
            RequestFrame::from_u64_keys(&k64, Direction::Ascending, None),
            RequestFrame::from_u128_keys(&k128, Direction::Ascending, None),
        ] {
            match client.exchange(&frame).map(|r| r.label()) {
                Ok("ok" | "ok_record") => {}
                other => rep.error(format!("wire warm-up: {other:?}")),
            }
            sent += 1;
        }
        per_rank *= 2;
    }
    sent
}

struct ConnResult {
    samples: Vec<Sample>,
    sent: u64,
    mismatches: u64,
    late_ms: Vec<f64>,
    write_us: Vec<f64>,
    wait_us: Vec<f64>,
    spans: Spans,
}

fn drive(
    mut client: WireClient,
    frames: &[WireReq],
    start: Instant,
    end: Instant,
    trace: bool,
    thread: u32,
) -> ConnResult {
    let mut r = ConnResult {
        samples: Vec::new(),
        sent: 0,
        mismatches: 0,
        late_ms: Vec::new(),
        write_us: Vec::new(),
        wait_us: Vec::new(),
        spans: Spans::new(trace),
    };
    let mut prev_done = start;
    let mut i = 0usize;
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let req = &frames[i % frames.len()];
        r.late_ms.push(ms(t0.saturating_duration_since(prev_done)));
        let reply = if trace {
            let (w, wait, reply) = layers::timed_exchange(&mut client, req, &mut r.spans, thread);
            r.write_us.push(w);
            r.wait_us.push(wait);
            reply
        } else {
            client.exchange(&req.frame).ok()
        };
        let ok = reply.as_ref() == Some(&req.expected);
        let answered = reply.as_ref().is_some_and(is_answer);
        let done = Instant::now();
        r.sent += 1;
        r.mismatches += u64::from(answered && !ok);
        r.samples.push(Sample {
            done_s: (done - start).as_secs_f64(),
            latency_s: (done - t0).as_secs_f64(),
            keys: req.keys as u64,
            ok,
        });
        prev_done = done;
        i += 1;
    }
    r
}

/// Whether a reply carries sorted keys (as opposed to a structured
/// refusal or failure, which misses without being wrong).
fn is_answer(reply: &ReplyFrame) -> bool {
    matches!(reply, ReplyFrame::Sorted(_) | ReplyFrame::Record { .. })
}

pub fn run(args: &Args) -> Report {
    let all: Vec<WireReq> = (0..CONNECTIONS as u64)
        .flat_map(|c| gen::wire_requests(args.seed, c, POOL))
        .collect();
    let mut rep = Report::default();
    rep.note("why_terms", format!("SLO {SLO_MS} ms"));
    if args.digest {
        let mut d = gen::Digest::new();
        d.wire(&all);
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
    let mut cfg = ServiceConfig::new(PROCS);
    if args.trace {
        cfg.trace = TraceConfig::with_capacity(crate::TRACE_CAPACITY);
    }
    let server = match WireServer::start(cfg, WireConfig::default(), "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            rep.error(format!("bind: {e}"));
            return rep;
        }
    };
    let mut clients: Vec<WireClient> = Vec::new();
    for _ in 0..CONNECTIONS {
        match WireClient::connect(server.local_addr()) {
            Ok(c) => clients.push(c),
            Err(e) => {
                rep.error(format!("connect: {e}"));
                return rep;
            }
        }
    }
    let t_warm = Instant::now();
    let warm_sent = warm(&mut clients[0], cfg.max_request_keys, &mut rep);
    while server.service_stats().completed < warm_sent && t_warm.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let t_ready = Instant::now();
    crate::setup_times(&mut rep, t_setup, t_boot, t_warm, t_ready);
    if args.setup_only {
        drop(clients);
        let _ = server.shutdown();
        return rep;
    }

    let metrics = server.metrics().expect("metrics are on by default");
    let before = layers::Counts::single(&server.service_stats());
    let wire_before = server.wire_stats();
    let snap_before = metrics.snapshot();

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let sampler = report::StealSampler::start(start, args.seconds);
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(all.chunks(POOL))
            .enumerate()
            .map(|(c, (client, frames))| {
                s.spawn(move || drive(client, frames, start, end, args.trace, c as u32 + 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let steal = sampler.finish();
    // The clients are dropped: wait for the server to see both closes.
    let t = Instant::now();
    loop {
        let w = server.wire_stats();
        if w.connections_closed == w.connections_opened || t.elapsed() > Duration::from_secs(5) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let after = layers::Counts::single(&server.service_stats());
    let wire_after = server.wire_stats();
    let snap_after = metrics.snapshot();

    let mut samples = Vec::new();
    let (mut sent, mut mismatches) = (0, 0);
    let (mut late, mut write, mut wait) = (Vec::new(), Vec::new(), Vec::new());
    for r in results {
        samples.extend(r.samples);
        sent += r.sent;
        mismatches += r.mismatches;
        late.extend(r.late_ms);
        write.extend(r.write_us);
        wait.extend(r.wait_us);
        spans.absorb(r.spans);
    }
    samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    report::end_to_end(&mut rep, &samples, sent, SLO_MS, &steal);
    if mismatches > 0 {
        rep.error(format!("{mismatches} replies differ from the oracle"));
    }
    rep.set("gen.late_p99_ms", percentile(&mut late, 99.0));
    rep.set("gen.sent", sent as f64);

    let report = server.shutdown();
    let stats = report.service.stats;
    let w = &report.wire;
    let snap = metrics.snapshot();
    crate::reconcile_single(&mut rep, &stats, &snap, warm_sent + sent);
    rep.reconcile("wire frames vs submitted", w.frames_read, stats.submitted);
    rep.reconcile(
        "wire ok + ok_record replies vs completed",
        w.replies_ok + w.replies_record,
        stats.completed,
    );
    rep.reconcile("wire expired vs expired", w.expired, stats.expired);
    rep.reconcile("wire failed vs failed", w.failed, stats.failed);
    rep.reconcile("wire rejections vs shed", w.rejected_total(), stats.shed);
    rep.reconcile(
        "connections closed vs opened",
        w.connections_closed,
        w.connections_opened,
    );
    rep.reconcile(
        "clean closes vs opened",
        w.disconnect("clean_eof"),
        w.connections_opened,
    );
    let labeled = |name: &str, key: &str, value: &str| snap.counter_labeled(name, key, value);
    rep.reconcile(
        "registry wire frames",
        snap.counter_total("bitonic_wire_frames_total"),
        w.frames_read,
    );
    rep.reconcile(
        "registry ok replies",
        labeled("bitonic_wire_replies_total", "status", "ok"),
        w.replies_ok,
    );
    rep.reconcile(
        "registry ok_record replies",
        labeled("bitonic_wire_replies_total", "status", "ok_record"),
        w.replies_record,
    );
    rep.reconcile(
        "registry record requests",
        snap.counter_total("bitonic_record_requests_total"),
        w.replies_record,
    );
    rep.reconcile(
        "registry bytes read",
        snap.counter_total("bitonic_wire_bytes_read_total"),
        w.bytes_read,
    );
    rep.reconcile(
        "registry bytes written",
        snap.counter_total("bitonic_wire_bytes_written_total"),
        w.bytes_written,
    );
    for reason in REJECTION_LABELS {
        rep.reconcile(
            &format!("wire rejections[{reason}]"),
            w.rejection(reason),
            labeled("bitonic_requests_shed_total", "reason", reason),
        );
    }

    if args.trace {
        let window = after.since(&before);
        window.report(&mut rep);
        layers::registry_metrics(&mut rep, &snap_before, &snap_after);
        layers::span_metrics(&mut rep, &[&report.service.trace]);
        rep.set("wire.client_write_us", percentile(&mut write, 50.0));
        rep.set("wire.client_wait_us", percentile(&mut wait, 50.0));
        rep.set(
            "wire.bytes_read",
            (wire_after.bytes_read - wire_before.bytes_read) as f64,
        );
        rep.set(
            "wire.bytes_written",
            (wire_after.bytes_written - wire_before.bytes_written) as f64,
        );
        rep.set(
            "wire.frame_errors",
            (wire_after.frame_errors - wire_before.frame_errors) as f64,
        );

        let plain: Vec<PlainReq> = all
            .iter()
            .filter_map(|r| match (&r.expected, r.frame.keys_u32()) {
                (ReplyFrame::Sorted(expected), Some(keys)) if !r.frame.is_record() => {
                    Some(PlainReq {
                        keys,
                        dir: r.frame.dir,
                        expected: expected.clone(),
                    })
                }
                _ => None,
            })
            .collect();
        let records: Vec<(Vec<u64>, Direction)> = all
            .iter()
            .filter_map(|r| r.frame.keys_u64().map(|k| (k, r.frame.dir)))
            .collect();
        let batch_keys = window.mean_batch_keys();
        layers::record_tagged_probe(&mut rep, &mut spans, &records, batch_keys);
        let requests: Vec<(&[u32], Direction)> =
            plain.iter().map(|r| (r.keys.as_slice(), r.dir)).collect();
        let words = layers::machine_words(&requests, batch_keys);
        let core = layers::core_probe(&mut rep, &mut spans, &words, cfg.mode);
        layers::split_probe(&mut rep, &mut spans, &plain);
        let pairs: Vec<_> = all.iter().map(|r| (&r.frame, &r.expected)).collect();
        layers::codec_probe(&mut rep, &mut spans, &pairs);
        layers::admission_probe(&mut rep, &mut spans, &all[..256]);
        crate::write_trace(args, &mut rep, &[report.service.trace], &core, &spans);
    }
    rep.set("peak_rss_mb", report::peak_rss_mb() - rss_inputs);
    rep
}
