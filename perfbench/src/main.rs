//! One benchmark process: build one workload's service, set it up, drive
//! it for the measured window, check every reply, reconcile the
//! program's counters, and print one `RESULT {json}` line.
//!
//! ```text
//! perfbench --workload serve|wire|bulk --seed N --seconds S
//!           [--trace --trace-out FILE] [--setup-only] [--digest]
//! ```
//!
//! `--setup-only` stops after set-up (the driver script starts several
//! fresh processes to take the median set-up time, because local-kernel
//! calibration runs once per process); `--digest` prints a fingerprint of
//! the generated inputs and exits; `--trace` turns on the program's
//! `TraceConfig`, adds the per-layer metrics and writes a Chrome trace.

mod bulk;
mod gen;
mod layers;
mod report;
mod serve;
mod wire;

use bitonic_core::tagged::sorted_independently;
use bitonic_network::Direction;
use gen::{PlainReq, WireReq};
use obs::metrics::Snapshot;
use obs::RankTrace;
use report::{ms, Report, Spans};
use sort_service::{Rejection, ReplyFrame, RequestFrame, ServiceStats, Ticket};
use std::time::Instant;

/// Per-sink event ring of a traced service: large enough to keep every
/// queue span of a measured window.
pub const TRACE_CAPACITY: usize = 1 << 18;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub setup_only: bool,
    pub digest: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        setup_only: false,
        digest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--trace" => args.trace = true,
            "--setup-only" => args.setup_only = true,
            "--digest" => args.digest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (started, steal) = (Instant::now(), report::host_steal_s());
    let mut rep = match args.workload.as_str() {
        "serve" => serve::run(&args),
        "wire" => wire::run(&args),
        "bulk" => bulk::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (serve, wire, bulk)");
            std::process::exit(2);
        }
    };
    // The share of this machine's CPU time the hypervisor gave to other
    // tenants while the process ran: the noise floor of its timings.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let wall = started.elapsed().as_secs_f64();
    rep.set(
        "host.steal_pct",
        100.0 * (report::host_steal_s() - steal) / (wall * cpus),
    );
    rep.note(
        "kernel_table",
        format!("{:?}", local_sorts::dispatch::current()),
    );
    println!("RESULT {}", rep.json());
}

/// Record the set-up phases: calibration, boot (service construction,
/// listener bind, connects) and plan-cache warm-up; `setup_s` spans all
/// three.
pub fn setup_times(rep: &mut Report, t0: Instant, boot: Instant, warm: Instant, ready: Instant) {
    rep.set("setup.calibrate_ms", ms(boot - t0));
    rep.set("setup.boot_ms", ms(warm - boot));
    rep.set("setup.warmup_ms", ms(ready - warm));
    rep.set("setup_s", (ready - t0).as_secs_f64());
}

/// Warm the padded batch shapes a pool meets: one request per
/// power-of-two size from `min_keys` up to `max_request` keys, then the
/// larger batches a backlog forms, up to `max_batch` keys. Every reply is
/// checked; returns the requests sent.
pub fn warm_shapes(
    min_keys: usize,
    max_request: usize,
    max_batch: usize,
    submit: impl Fn(Vec<u32>) -> Result<Ticket, Rejection>,
    rep: &mut Report,
) -> u64 {
    let mut rng = gen::Rng::new(7);
    let mut sent = 0;
    let mut batch = min_keys;
    while batch <= max_batch {
        // Past the request limit, a limit-sized request occupies the
        // machine while small ones queue behind it; the dispatcher then
        // takes them as one batch of `batch` keys.
        let sizes = if batch <= max_request {
            vec![batch]
        } else {
            let small = max_request / 16;
            std::iter::once(max_request)
                .chain(std::iter::repeat_n(small, batch / small))
                .collect()
        };
        let tickets: Vec<_> = sizes
            .into_iter()
            .map(|n| {
                let keys: Vec<u32> = (0..n).map(|_| rng.next() as u32).collect();
                let expected = sorted_independently(&keys, Direction::Ascending);
                (submit(keys), expected)
            })
            .collect();
        for (ticket, expected) in tickets {
            sent += 1;
            match ticket.map(Ticket::wait) {
                Ok(Ok(got)) if got == expected => {}
                _ => rep.error("warm-up: a request failed".into()),
            }
        }
        batch *= 2;
    }
    sent
}

/// `ServiceStats` ≡ registry ≡ the benchmark's own count of submissions.
pub fn reconcile_single(rep: &mut Report, stats: &ServiceStats, snap: &Snapshot, submitted: u64) {
    let pairs = [
        (
            "submitted",
            "bitonic_requests_submitted_total",
            stats.submitted,
        ),
        (
            "admitted",
            "bitonic_requests_admitted_total",
            stats.admitted,
        ),
        ("shed", "bitonic_requests_shed_total", stats.shed),
        ("expired", "bitonic_requests_expired_total", stats.expired),
        ("failed", "bitonic_requests_failed_total", stats.failed),
        (
            "completed",
            "bitonic_requests_completed_total",
            stats.completed,
        ),
        ("batches", "bitonic_batches_total", stats.batches),
        (
            "plan hits",
            "bitonic_plan_cache_hits_total",
            stats.pool.plan_hits,
        ),
        (
            "plan misses",
            "bitonic_plan_cache_misses_total",
            stats.pool.plan_misses,
        ),
    ];
    for (what, name, value) in pairs {
        rep.reconcile(&format!("registry {what}"), snap.counter_total(name), value);
    }
    rep.reconcile(
        "submitted vs sent by the benchmark",
        stats.submitted,
        submitted,
    );
    rep.reconcile(
        "admitted vs answered",
        stats.admitted,
        stats.completed + stats.expired + stats.failed,
    );
}

/// Plain requests as `SORT_1` frames with their oracle replies (the
/// codec and wire probes of workloads that have no wire).
pub fn plain_frames(reqs: &[PlainReq]) -> Vec<WireReq> {
    reqs.iter()
        .map(|r| WireReq {
            frame: RequestFrame::from_u32_keys(&r.keys, r.dir, None),
            expected: ReplyFrame::Sorted(r.expected.clone()),
            keys: r.keys.len(),
        })
        .collect()
}

/// Write the Chrome trace of a traced run: the program's own service
/// traces, the core probe's rank traces, and the benchmark's spans, each
/// as its own process. Timestamps of each process count from its own
/// epoch.
pub fn write_trace(
    args: &Args,
    rep: &mut Report,
    service: &[RankTrace],
    core: &[RankTrace],
    spans: &Spans,
) {
    let Some(path) = &args.trace_out else { return };
    let mut traces: Vec<RankTrace> = Vec::new();
    for (i, t) in service.iter().enumerate() {
        let mut t = t.clone();
        t.rank = i;
        traces.push(t);
    }
    for (i, t) in core.iter().enumerate() {
        let mut t = t.clone();
        t.rank = 100 + i;
        traces.push(t);
    }
    let program = obs::chrome::chrome_trace_json(&traces);
    let body = program
        .trim_end()
        .strip_suffix("]}")
        .map(|head| format!("{head},\n{}\n]}}\n", spans.chrome_events(1000)));
    match body.map(|b| std::fs::write(path, b)) {
        Some(Ok(())) => rep.note("chrome_trace", path.clone()),
        Some(Err(e)) => rep.error(format!("writing {path}: {e}")),
        None => rep.error("chrome trace: unexpected document shape".into()),
    }
}
