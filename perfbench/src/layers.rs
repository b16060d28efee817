//! Per-layer metrics of a traced run. Everything here is measured from
//! outside the program: spans the program already records (its
//! `TraceConfig`), counters it already exposes (stats and the metrics
//! registry), and benchmark-timed calls into each layer's public
//! functions on the workload's own inputs.
//!
//! A workload that bypasses a layer (no wire on `serve`, no split on
//! `serve` or `wire`) still reports that layer: its timed-call metrics
//! come from a probe of the layer's public function on this workload's
//! requests, and its event counts are what the run really did (zero).

use crate::gen::{PlainReq, WireReq, PROCS};
use crate::report::{percentile, us, Report, Spans};
use bitonic_core::algorithms::{run_parallel_sort_traced, Algorithm};
use bitonic_core::tagged::{
    records_sorted_independently, sorted_independently, RecordBatch, TaggedBatch,
};
use bitonic_core::LocalStrategy;
use bitonic_network::Direction;
use obs::metrics::Snapshot;
use obs::{RankTrace, TraceConfig, TracePhase};
use sort_service::coalescer::BatchCost;
use sort_service::{
    split, ReplyFrame, RequestFrame, Router, ServiceConfig, ServiceStats, ShardedConfig,
    ShardedStats, SortService, WireClient,
};
use spmd::MessageMode;
use std::time::Instant;

/// Repetitions of each timed probe call (the median is reported).
const REPS: usize = 9;

/// Local-kernel names, as the registry labels them.
const KERNELS: [&str; 4] = ["radix", "bitonic_net", "circular_merge", "network_merge"];

fn span_durations_us(traces: &[&RankTrace], phase: TracePhase) -> Vec<f64> {
    traces
        .iter()
        .flat_map(|t| t.spans())
        .filter(|s| s.phase == phase)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Queue, run and scatter figures from the program's own spans. `classes`
/// holds one dispatcher trace per size class, narrowest band first (a
/// single pool is both the narrowest and the widest class).
pub fn span_metrics(rep: &mut Report, classes: &[&RankTrace]) {
    let mut queue = span_durations_us(classes, TracePhase::Queue);
    rep.set("queue.wait_us_p50", percentile(&mut queue, 50.0));
    rep.set("queue.wait_us_p99", percentile(&mut queue, 99.0));
    let narrow = &classes[..1];
    let wide = &classes[classes.len() - 1..];
    let mut q = span_durations_us(narrow, TracePhase::Queue);
    rep.set("shard.queue_wait_us_p99.narrow", percentile(&mut q, 99.0));
    let mut q = span_durations_us(wide, TracePhase::Queue);
    rep.set("shard.queue_wait_us_p99.wide", percentile(&mut q, 99.0));
    let mut run = span_durations_us(classes, TracePhase::Run);
    rep.set("run.self_us_p50", percentile(&mut run, 50.0));
    let mut scatter = span_durations_us(classes, TracePhase::Scatter);
    rep.set("scatter.self_us_p50", percentile(&mut scatter, 50.0));
}

fn histogram_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.histograms
        .iter()
        .filter(|h| h.name == name)
        .map(|h| h.sum)
        .sum()
}

/// Registry counters over the measured window (`after - before`).
pub fn registry_metrics(rep: &mut Report, before: &Snapshot, after: &Snapshot) {
    let verdicts = "bitonic_coalescer_verdicts_total";
    let diff = |name: &str, key: &str, value: &str| {
        (after.counter_labeled(name, key, value) - before.counter_labeled(name, key, value)) as f64
    };
    rep.set("coalescer.flushes", diff(verdicts, "verdict", "flush"));
    rep.set("coalescer.waits", diff(verdicts, "verdict", "wait"));
    for k in KERNELS {
        rep.set(
            &format!("kernels.{k}"),
            diff("bitonic_local_kernel_invocations_total", "kernel", k),
        );
    }
    let payload = "bitonic_record_payload_bytes";
    rep.set(
        "records.payload_bytes",
        (histogram_sum(after, payload) - histogram_sum(before, payload)) as f64,
    );
}

/// Pool and admission counters: totals of one snapshot, or (after
/// [`Counts::since`]) what the measured window added.
#[derive(Default)]
pub struct Counts {
    pub shed: u64,
    pub completed: u64,
    pub failed: u64,
    pub batches: u64,
    pub batched_keys: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub batches_failed: u64,
    pub steals: u64,
    pub stolen_requests: u64,
}

impl Counts {
    pub fn single(s: &ServiceStats) -> Self {
        Counts {
            shed: s.shed,
            completed: s.completed,
            failed: s.failed,
            batches: s.batches,
            batched_keys: s.batched_keys,
            plan_hits: s.pool.plan_hits,
            plan_misses: s.pool.plan_misses,
            batches_failed: s.pool.batches_failed,
            ..Counts::default()
        }
    }

    pub fn sharded(s: &ShardedStats) -> Self {
        let mut c = Counts::default();
        for sh in &s.shards {
            c.shed += sh.shed;
            c.completed += sh.completed;
            c.failed += sh.failed;
            c.batches += sh.batches;
            c.batched_keys += sh.batched_keys;
            c.plan_hits += sh.pool.plan_hits;
            c.plan_misses += sh.pool.plan_misses;
            c.batches_failed += sh.pool.batches_failed;
            c.steals += sh.steals;
            c.stolen_requests += sh.stolen_requests;
        }
        c
    }

    /// What was added between `before` and `self`.
    pub fn since(&self, before: &Counts) -> Counts {
        Counts {
            shed: self.shed - before.shed,
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            batches: self.batches - before.batches,
            batched_keys: self.batched_keys - before.batched_keys,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            batches_failed: self.batches_failed - before.batches_failed,
            steals: self.steals - before.steals,
            stolen_requests: self.stolen_requests - before.stolen_requests,
        }
    }

    pub fn report(&self, rep: &mut Report) {
        rep.set("admission.shed", self.shed as f64);
        rep.set(
            "coalescer.requests_per_batch",
            (self.completed + self.failed) as f64 / self.batches.max(1) as f64,
        );
        let lookups = self.plan_hits + self.plan_misses;
        rep.set(
            "pool.plan_hit_rate",
            if lookups == 0 {
                1.0
            } else {
                self.plan_hits as f64 / lookups as f64
            },
        );
        rep.set("pool.steady_plan_misses", self.plan_misses as f64);
        rep.set("pool.batches_failed", self.batches_failed as f64);
        rep.set("shard.steals", self.steals as f64);
        rep.set("shard.stolen_requests", self.stolen_requests as f64);
    }

    /// Mean useful keys per machine batch in the window.
    pub fn mean_batch_keys(&self) -> usize {
        (self.batched_keys / self.batches.max(1)).max(1) as usize
    }
}

/// Cut `requests` (in workload order) into batches of at least
/// `batch_keys` keys, as the coalescer would at the run's mean batch size.
fn batches_of<T>(requests: &[T], len: impl Fn(&T) -> usize, batch_keys: usize) -> Vec<&[T]> {
    let mut out = Vec::new();
    let (mut start, mut keys) = (0, 0);
    for (i, r) in requests.iter().enumerate() {
        keys += len(r);
        if keys >= batch_keys {
            out.push(&requests[start..=i]);
            start = i + 1;
            keys = 0;
        }
    }
    out
}

/// Time one `core::tagged` batch codec on up to 256 `batches`: `encode`
/// coalesces a batch into padded machine words (returning the batch, the
/// words and its useful key count), `split` cuts the sorted words back
/// into per-request replies, each checked against `oracle` after the
/// clock stops. `useful_ratio` is useful keys over the padded words
/// `BatchCost::padded_per_rank` allots them.
fn batch_codec<T, B, W: Ord, R: PartialEq>(
    rep: &mut Report,
    spans: &mut Spans,
    batches: &[&[T]],
    encode: impl Fn(&[T]) -> (B, Vec<W>, usize),
    split: impl Fn(&B, &[W]) -> Vec<R>,
    oracle: impl Fn(&T) -> R,
) {
    let cost = BatchCost::new(PROCS);
    let (mut enc, mut spl) = (Vec::new(), Vec::new());
    let (mut useful, mut padded) = (0usize, 0usize);
    for batch in batches.iter().take(256) {
        let t0 = Instant::now();
        let (encoded, mut words, keys) = encode(batch);
        let t1 = Instant::now();
        spans.record("tagged.encode", 0, t0, t1);
        enc.push(us(t1 - t0));
        useful += keys;
        padded += cost.padded_per_rank(keys) * PROCS;
        words.sort_unstable();
        let t2 = Instant::now();
        let replies = split(&encoded, &words);
        let t3 = Instant::now();
        spans.record("tagged.split", 0, t2, t3);
        spl.push(us(t3 - t2));
        if !replies
            .iter()
            .eq(batch.iter().map(&oracle).collect::<Vec<_>>().iter())
        {
            rep.error("tagged probe: a split reply differs from the oracle".into());
        }
    }
    rep.set("tagged.encode_us", percentile(&mut enc, 50.0));
    rep.set("tagged.split_us", percentile(&mut spl, 50.0));
    rep.set("tagged.useful_ratio", useful as f64 / padded.max(1) as f64);
}

/// `core::tagged` on plain u32 requests (`TaggedBatch`).
pub fn tagged_probe(
    rep: &mut Report,
    spans: &mut Spans,
    requests: &[(&[u32], Direction)],
    batch_keys: usize,
) {
    batch_codec(
        rep,
        spans,
        &batches_of(requests, |r| r.0.len(), batch_keys),
        |batch| {
            let mut tb = TaggedBatch::new();
            for (keys, dir) in batch {
                tb.push(keys, *dir);
            }
            let (words, _) = tb.padded_words(PROCS);
            let keys = tb.total_keys();
            (tb, words, keys)
        },
        |tb, sorted| tb.split(sorted),
        |(keys, dir)| sorted_independently(keys, *dir),
    );
}

/// `core::tagged` on the wire workload's u64 record requests
/// (`RecordBatch<u128>`, the record lane the plain lane does not cover).
pub fn record_tagged_probe(
    rep: &mut Report,
    spans: &mut Spans,
    requests: &[(Vec<u64>, Direction)],
    batch_keys: usize,
) {
    batch_codec(
        rep,
        spans,
        &batches_of(requests, |r| r.0.len(), batch_keys),
        |batch| {
            let mut rb = RecordBatch::<u128>::new();
            for (keys, dir) in batch {
                rb.push(keys, *dir);
            }
            let (words, _) = rb.padded_words(PROCS);
            let keys = rb.total_keys();
            (rb, words, keys)
        },
        |rb, sorted| rb.split(sorted),
        |(keys, dir)| records_sorted_independently(keys, *dir),
    );
}

/// The padded machine words of the first batch of `requests` at the
/// run's mean batch size: the partition-shaped input of [`core_probe`].
pub fn machine_words(requests: &[(&[u32], Direction)], batch_keys: usize) -> Vec<u64> {
    let mut tb = TaggedBatch::new();
    if let Some(batch) = batches_of(requests, |r| r.0.len(), batch_keys).first() {
        for (keys, dir) in *batch {
            tb.push(keys, *dir);
        }
    }
    tb.padded_words(PROCS).0
}

/// The paper's phase split of one partition-shaped batch: critical-path
/// compute/pack/transfer/unpack/barrier (median of [`REPS`] traced
/// runs of `run_parallel_sort_traced`) and the exact R/V/M counters.
/// `mode` is the message mode of the service the workload built.
/// Returns the last run's rank traces for the Chrome trace.
pub fn core_probe(
    rep: &mut Report,
    spans: &mut Spans,
    words: &[u64],
    mode: MessageMode,
) -> Vec<RankTrace> {
    let mut expect = words.to_vec();
    expect.sort_unstable();
    let mut phases: [Vec<f64>; 5] = Default::default();
    let mut traces = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let run = run_parallel_sort_traced(
            words,
            PROCS,
            mode,
            Algorithm::Smart,
            // The warm pool's local strategy, which it does not expose.
            LocalStrategy::Merges,
            TraceConfig::on(),
        );
        spans.record("core.run_parallel_sort_traced", 0, t0, Instant::now());
        if run.output != expect {
            rep.error("core probe: machine output is not sorted".into());
        }
        traces = spmd::traces_of(&run.ranks);
        let crit = obs::aggregate::critical_phase_totals(&traces);
        for (i, p) in TracePhase::CORE.iter().enumerate() {
            phases[i].push(crit.ns[p.index()] as f64 / 1e6);
        }
        let stats = spmd::runtime::critical_path_stats(&run.ranks);
        rep.set("core.remaps", stats.remap_count() as f64);
        rep.set("core.elements_sent", stats.elements_sent as f64);
        rep.set("core.messages", stats.messages_sent as f64);
    }
    for (i, name) in ["compute", "pack", "transfer", "unpack", "barrier"]
        .iter()
        .enumerate()
    {
        rep.set(&format!("core.{name}_ms"), percentile(&mut phases[i], 50.0));
    }
    traces
}

/// `service::split` on this workload's requests, against the bands of
/// `ShardedConfig::banded_bulk(4, 2)`: time `split::plan` and the reply
/// side `merge_parts`, count partitions, and take the worst skew. The
/// merged reply is checked against the oracle. Returns the partitions
/// (the machine-shaped inputs of the bulk path).
pub fn split_probe(rep: &mut Report, spans: &mut Spans, requests: &[PlainReq]) -> Vec<Vec<u32>> {
    let cfg = ShardedConfig::banded_bulk(PROCS, 2);
    let bands = Router::new(&cfg).band_capacities();
    let (mut plan_us, mut merge_us) = (Vec::new(), Vec::new());
    let (mut parts_total, mut max_skew) = (0usize, 0f64);
    let mut all_parts = Vec::new();
    for r in requests.iter().filter(|r| !r.keys.is_empty()).take(64) {
        let t0 = Instant::now();
        let plan = split::plan(&r.keys, &bands, &cfg.bulk);
        let t1 = Instant::now();
        spans.record("split.plan", 0, t0, t1);
        plan_us.push(us(t1 - t0));
        parts_total += plan.parts.len();
        max_skew = max_skew.max(plan.max_skew());
        let sorted: Vec<Vec<u32>> = plan
            .parts
            .iter()
            .map(|p| sorted_independently(&p.keys, r.dir))
            .collect();
        let t2 = Instant::now();
        let merged = split::merge_parts(&sorted, r.dir);
        let t3 = Instant::now();
        spans.record("split.merge_parts", 0, t2, t3);
        merge_us.push(us(t3 - t2));
        if merged != r.expected {
            rep.error("split probe: merged reply differs from the oracle".into());
        }
        all_parts.extend(plan.parts.into_iter().map(|p| p.keys));
    }
    rep.set("split.plan_us", percentile(&mut plan_us, 50.0));
    rep.set("merge.us_p50", percentile(&mut merge_us, 50.0));
    rep.set(
        "split.partitions",
        parts_total as f64 / plan_us.len().max(1) as f64,
    );
    rep.set("split.max_skew", max_skew);
    all_parts
}

/// `service::net` codec on this workload's frames: time
/// `RequestFrame::encode` + `ReplyFrame::encode`, and the two decodes,
/// per exchange; every decode must round-trip.
pub fn codec_probe(rep: &mut Report, spans: &mut Spans, frames: &[(&RequestFrame, &ReplyFrame)]) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for (req, reply) in frames.iter().take(512) {
        let t0 = Instant::now();
        let req_bytes = req.encode();
        let reply_bytes = reply.encode();
        let t1 = Instant::now();
        let req2 = RequestFrame::decode(crate::gen::frame_body(&req_bytes));
        let reply2 = ReplyFrame::decode(crate::gen::frame_body(&reply_bytes));
        let t2 = Instant::now();
        spans.record("frame.encode", 0, t0, t1);
        spans.record("frame.decode", 0, t1, t2);
        enc.push(us(t1 - t0));
        dec.push(us(t2 - t1));
        if req2.as_ref() != Ok(*req) || reply2.as_ref() != Ok(*reply) {
            rep.error("codec probe: a frame did not round-trip".into());
        }
    }
    rep.set("frame.encode_us", percentile(&mut enc, 50.0));
    rep.set("frame.decode_us", percentile(&mut dec, 50.0));
}

/// Client-side wire timings: write the frame, then wait for and decode
/// the reply. Returns `(write_us, wait_us)` and checks the reply.
pub fn timed_exchange(
    client: &mut WireClient,
    req: &WireReq,
    spans: &mut Spans,
    thread: u32,
) -> (f64, f64, Option<ReplyFrame>) {
    let t0 = Instant::now();
    let sent = client.send(&req.frame);
    let t1 = Instant::now();
    let reply = sent.and_then(|()| client.read_reply());
    let t2 = Instant::now();
    spans.record("wire.client_write", thread, t0, t1);
    spans.record("wire.client_wait", thread, t1, t2);
    (us(t1 - t0), us(t2 - t1), reply.ok())
}

/// `service::net` on a workload without a wire: a loopback `WireServer`
/// over the workload's kind of service (`sharded` for bulk) answers the
/// workload's requests on one connection.
pub fn wire_probe(rep: &mut Report, spans: &mut Spans, requests: &[WireReq], sharded: bool) {
    let wire = sort_service::WireConfig::default();
    let server = if sharded {
        sort_service::WireServer::start_sharded(
            ShardedConfig::banded_bulk(PROCS, 2),
            wire,
            "127.0.0.1:0",
        )
    } else {
        sort_service::WireServer::start(ServiceConfig::new(PROCS), wire, "127.0.0.1:0")
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            rep.error(format!("wire probe: bind failed: {e}"));
            return;
        }
    };
    let (mut write, mut wait) = (Vec::new(), Vec::new());
    match WireClient::connect(server.local_addr()) {
        Ok(mut client) => {
            for req in requests {
                let (w, r, reply) = timed_exchange(&mut client, req, spans, 9);
                write.push(w);
                wait.push(r);
                if reply.as_ref() != Some(&req.expected) {
                    rep.error("wire probe: reply differs from the oracle".into());
                }
            }
        }
        Err(e) => rep.error(format!("wire probe: connect failed: {e}")),
    }
    let stats = server.shutdown().wire;
    rep.set("wire.client_write_us", percentile(&mut write, 50.0));
    rep.set("wire.client_wait_us", percentile(&mut wait, 50.0));
    rep.set("wire.bytes_read", stats.bytes_read as f64);
    rep.set("wire.bytes_written", stats.bytes_written as f64);
    rep.set("wire.frame_errors", stats.frame_errors as f64);
}

/// `service::admission` on the wire workload, whose `submit` calls happen
/// inside the server: time the same `submit`/`submit_record` call on a
/// probe `SortService` fed the workload's decoded frames.
pub fn admission_probe(rep: &mut Report, spans: &mut Spans, requests: &[WireReq]) {
    let svc = SortService::start(ServiceConfig::new(PROCS));
    let mut submit = Vec::new();
    for req in requests {
        let frame = req.frame.clone();
        let t0 = Instant::now();
        let answered = if frame.is_record() {
            frame.into_record_request().ok().and_then(|r| {
                let ticket = svc.submit_record(r);
                submit.push(us(t0.elapsed()));
                spans.record("admission.submit", 0, t0, Instant::now());
                let got = ticket.ok()?.wait().ok()?;
                Some(ReplyFrame::Record {
                    keys: got.keys,
                    payload: got.payload,
                    stride: got.stride as u32,
                })
            })
        } else {
            frame.into_request().ok().and_then(|r| {
                let ticket = svc.submit(r);
                submit.push(us(t0.elapsed()));
                spans.record("admission.submit", 0, t0, Instant::now());
                Some(ReplyFrame::Sorted(ticket.ok()?.wait().ok()?))
            })
        };
        if answered.as_ref() != Some(&req.expected) {
            rep.error("admission probe: reply differs from the oracle".into());
        }
    }
    let _ = svc.shutdown();
    rep.set("admission.submit_us_p50", percentile(&mut submit, 50.0));
}
