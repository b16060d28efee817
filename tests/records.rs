//! Record-sorting conformance suite: wide keys + payload carriage.
//!
//! Every test here holds the service to one contract: a record sort is
//! exactly a *stable* `sort_by_key` over `(key, submission index)` —
//! keys come back in the requested direction, payload rows ride their
//! keys byte-for-byte, and equal keys keep submission order in both
//! directions. The oracle is
//! [`bitonic_core::tagged::records_sorted_independently`], shared with
//! the wire benchmark.
//!
//! Layers, bottom-up:
//!
//! 1. property tests over the shared [`proptest::record`] strategies —
//!    all three key widths (4, 8, 16 bytes), both directions, empty
//!    payloads, and a duplicate-heavy corpus where ties are the common
//!    case, against a live [`SortService`];
//! 2. edge shapes — n < P, n = 0, and stride 0 — through the record
//!    path explicitly;
//! 3. a mixed batch: records at every width, both directions, and plain
//!    u32 sorts submitted together so the dispatcher's same-width-only
//!    coalescing lanes are exercised concurrently;
//! 4. bulk records — an over-band record request split across shards by
//!    sampled splitters and merged stably, payload rows intact, via
//!    [`ShardedService`];
//! 5. determinism — the [`ShardEngine`] twin replays a mixed record
//!    script bit-for-bit: identical decision logs and identical record
//!    replies, with fewer flushes than requests (coalescing is real) —
//!    and replays over-band record scatters and merges the same way;
//! 6. lane equivalence — a plain u32 sort and a u32 stride-0 record are
//!    the same request: identical replies on every service and through
//!    the bulk path, and they coalesce into one batch (as do u32 records
//!    with payload and u64 records, which share the 128-bit word).

use bitonic_core::tagged::records_sorted_independently;
use bitonic_network::Direction;
use obs::TraceConfig;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proptest::record::{dup_heavy_record_cases, record_cases, RecordCase};
use sort_service::{
    BulkConfig, ClassConfig, EngineEvent, RecordKeys, RecordReply, RecordRequest, ServiceConfig,
    ShardEngine, ShardedConfig, ShardedService, SortRequest, SortService,
};
use std::time::Duration;

fn dir_of(case: &RecordCase) -> Direction {
    if case.descending {
        Direction::Descending
    } else {
        Direction::Ascending
    }
}

fn keys_of(width: u8, keys: &[u128]) -> RecordKeys {
    match width {
        4 => RecordKeys::U32(keys.iter().map(|&k| k as u32).collect()),
        8 => RecordKeys::U64(keys.iter().map(|&k| k as u64).collect()),
        _ => RecordKeys::U128(keys.to_vec()),
    }
}

fn request_of(case: &RecordCase) -> RecordRequest {
    RecordRequest::new(
        keys_of(case.width, &case.keys),
        case.payload.clone(),
        case.stride,
        dir_of(case),
    )
}

fn widen(keys: &RecordKeys) -> Vec<u128> {
    match keys {
        RecordKeys::U32(v) => v.iter().map(|&k| u128::from(k)).collect(),
        RecordKeys::U64(v) => v.iter().map(|&k| u128::from(k)).collect(),
        RecordKeys::U128(v) => v.clone(),
    }
}

/// The stable oracle: sorted keys plus the payload bytes a correct
/// record sort must return for `(keys, payload, stride, dir)`.
fn oracle(keys: &[u128], payload: &[u8], stride: usize, dir: Direction) -> (Vec<u128>, Vec<u8>) {
    let seg = records_sorted_independently(keys, dir);
    let bytes = seg
        .perm
        .iter()
        .flat_map(|&i| payload[i as usize * stride..(i as usize + 1) * stride].to_vec())
        .collect();
    (seg.keys, bytes)
}

fn assert_matches_oracle(case: &RecordCase, reply: &RecordReply) {
    let (want_keys, want_payload) = oracle(&case.keys, &case.payload, case.stride, dir_of(case));
    assert_eq!(widen(&reply.keys), want_keys, "keys diverged from oracle");
    assert_eq!(reply.keys.width(), case.width, "reply width changed");
    assert_eq!(reply.payload, want_payload, "payload rows left their keys");
    assert_eq!(reply.stride, case.stride, "stride changed in flight");
}

// ---------------------------------------------------------------------
// 1. Property tests against a live service.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every width, both directions, strides 0..=8: the record reply is
    /// exactly the stable oracle's keys and payload bytes.
    #[test]
    fn record_sorts_match_the_stable_oracle(case in record_cases(48, 8)) {
        let service = SortService::start(ServiceConfig::new(2));
        let reply = service
            .submit_record(request_of(&case))
            .expect("admitted")
            .wait()
            .expect("sorted");
        assert_matches_oracle(&case, &reply);
        let report = service.shutdown();
        prop_assert_eq!(report.stats.completed, 1);
        prop_assert_eq!(report.stats.shed + report.stats.expired + report.stats.failed, 0);
    }

    /// Duplicate-heavy corpus: keys drawn from a pool of at most four
    /// distinct values, so nearly every request has ties — a sort that
    /// is unstable on payload order cannot pass byte-identity.
    #[test]
    fn duplicate_heavy_payloads_keep_submission_order(
        case in dup_heavy_record_cases(64, 8),
    ) {
        let service = SortService::start(ServiceConfig::new(2));
        let reply = service
            .submit_record(request_of(&case))
            .expect("admitted")
            .wait()
            .expect("sorted");
        assert_matches_oracle(&case, &reply);
        let _ = service.shutdown();
    }
}

// ---------------------------------------------------------------------
// 2. Edge shapes through the record path.
// ---------------------------------------------------------------------

/// n < P, n = 0, and stride 0 all cross the record path and come back
/// oracle-identical — the padded batch machinery must not invent or
/// drop rows.
#[test]
fn small_empty_and_payload_free_records_sort() {
    let service = SortService::start(ServiceConfig::new(4));
    let cases = [
        // n < P with ties and payload.
        RecordCase {
            width: 8,
            keys: vec![7, 7, 3],
            stride: 4,
            payload: vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3],
            descending: false,
        },
        // n = 1 descending at full width.
        RecordCase {
            width: 16,
            keys: vec![u128::MAX],
            stride: 2,
            payload: vec![0xAA, 0xBB],
            descending: true,
        },
        // n = 0: nothing in, nothing out.
        RecordCase {
            width: 4,
            keys: vec![],
            stride: 8,
            payload: vec![],
            descending: false,
        },
        // stride 0: keys-only records (empty payload, non-empty keys).
        RecordCase {
            width: 8,
            keys: vec![5, 1, 5, 0, u64::MAX as u128],
            stride: 0,
            payload: vec![],
            descending: true,
        },
    ];
    for case in &cases {
        let reply = service
            .submit_record(request_of(case))
            .expect("admitted")
            .wait()
            .expect("sorted");
        assert_matches_oracle(case, &reply);
    }
    let report = service.shutdown();
    assert_eq!(report.stats.completed, cases.len() as u64);
}

// ---------------------------------------------------------------------
// 3. Mixed widths and directions submitted together.
// ---------------------------------------------------------------------

/// Records at every width, both directions, plus plain u32 sorts, all
/// in flight at once: the dispatcher's width lanes must keep each
/// request's keys, payload, and direction straight while coalescing.
#[test]
fn mixed_widths_and_directions_sort_concurrently() {
    let mut cfg = ServiceConfig::new(2);
    // A generous coalescing window so concurrent submissions share
    // batches instead of trickling through one by one.
    cfg.max_wait = Duration::from_millis(20);
    cfg.validate();
    let service = SortService::start(cfg);

    let mut cases = Vec::new();
    for round in 0u32..4 {
        for &width in &[4u8, 8, 16] {
            let max = if width == 16 {
                u128::MAX
            } else {
                (1u128 << (8 * u32::from(width))) - 1
            };
            let stride = usize::from(width) % 3 + 1;
            let n = 6;
            let keys: Vec<u128> = (0..n as u32)
                .map(|i| [0, max, max / 3][(i.wrapping_add(round)) as usize % 3])
                .collect();
            let payload: Vec<u8> = (0..n * stride).map(|b| (b as u8) ^ (round as u8)).collect();
            cases.push(RecordCase {
                width,
                keys,
                stride,
                payload,
                descending: (round + u32::from(width)) % 2 == 0,
            });
        }
    }

    // Submit everything before waiting on anything, with plain sorts
    // interleaved so the plain lane is live too.
    let mut plain_tickets = Vec::new();
    let record_tickets: Vec<_> = cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            if i % 3 == 0 {
                let keys = vec![9u32, 1, 9, 4];
                plain_tickets.push((
                    keys.clone(),
                    service
                        .submit(sort_service::SortRequest::ascending(keys))
                        .expect("plain admitted"),
                ));
            }
            service.submit_record(request_of(case)).expect("admitted")
        })
        .collect();

    for (case, ticket) in cases.iter().zip(record_tickets) {
        let reply = ticket.wait().expect("sorted");
        assert_matches_oracle(case, &reply);
    }
    for (keys, ticket) in plain_tickets {
        let mut want = keys;
        want.sort_unstable();
        assert_eq!(ticket.wait().expect("sorted"), want);
    }

    let report = service.shutdown();
    assert_eq!(report.stats.completed, 16);
    assert_eq!(
        report.stats.shed + report.stats.expired + report.stats.failed,
        0
    );
}

// ---------------------------------------------------------------------
// 4. Bulk records: over-band requests split, sorted, and merged.
// ---------------------------------------------------------------------

/// Two-band bulk-enabled topology (64 / 256 keys); anything larger
/// takes the split path.
fn bulk_config() -> ShardedConfig {
    let base = ServiceConfig::new(2);
    let cfg = ShardedConfig {
        classes: vec![
            ClassConfig::new("small", 64, base),
            ClassConfig::new("large", 256, base),
        ],
        steal_after: None,
        autoscale: None,
        trace: TraceConfig::off(),
        bulk: BulkConfig::on(),
    };
    cfg.validate();
    cfg
}

/// An over-band record request is split by sampled splitters, each
/// partition sorts with its payload rows, and the k-way merge brings
/// everything back in key order with ties still in submission order.
#[test]
fn bulk_record_requests_merge_payload_in_key_order() {
    let sharded = ShardedService::start(bulk_config());
    for (descending, width) in [(false, 8u8), (true, 16u8), (false, 4u8)] {
        let n = 700usize;
        let stride = 4usize;
        let max = if width == 16 {
            u128::MAX
        } else {
            (1u128 << (8 * u32::from(width))) - 1
        };
        // Duplicate-heavy: 16 distinct values over 700 keys, so ties
        // span partition boundaries and the merge must stay stable.
        let keys: Vec<u128> = (0..n as u64)
            .map(|i| {
                let v = i.wrapping_mul(2_654_435_761).rotate_left(9) % 16;
                (u128::from(v) * (max / 15)).min(max)
            })
            .collect();
        let payload: Vec<u8> = (0..n * stride).map(|b| (b % 251) as u8).collect();
        let case = RecordCase {
            width,
            keys,
            stride,
            payload,
            descending,
        };
        let reply = sharded
            .submit_record(request_of(&case))
            .expect("bulk admitted")
            .wait()
            .expect("merged");
        assert_matches_oracle(&case, &reply);
    }
    let report = sharded.shutdown();
    assert_eq!(report.stats.bulk_submitted, 3);
    assert_eq!(report.stats.bulk_completed, 3);
    assert_eq!(report.stats.bulk_failed, 0);
}

// ---------------------------------------------------------------------
// 5. Determinism: the engine twin replays records bit-for-bit.
// ---------------------------------------------------------------------

fn twin_config() -> ShardedConfig {
    let base = ServiceConfig::new(2);
    ShardedConfig {
        classes: vec![
            ClassConfig::new("small", 64, base),
            ClassConfig::new("bulk", 16_384, base),
        ],
        steal_after: None,
        autoscale: None,
        trace: TraceConfig::off(),
        bulk: BulkConfig::default(),
    }
}

/// A fixed mixed-width record script against the virtual-time engine.
fn record_script(engine: &mut ShardEngine) -> Vec<(RecordCase, u64)> {
    let mut out = Vec::new();
    // Lane-contiguous submission order: the coalescer batches runs of
    // same-width neighbors at the queue head, so adjacent pairs share a
    // batch while the width boundaries force a flush.
    for (i, &width) in [4u8, 4, 8, 8, 16, 16].iter().enumerate() {
        let max = if width == 16 {
            u128::MAX
        } else {
            (1u128 << (8 * u32::from(width))) - 1
        };
        let stride = i % 3;
        let n = 8 + i;
        let keys: Vec<u128> = (0..n as u64)
            .map(|k| u128::from(k.wrapping_mul(0x9E37_79B9) % 5) * (max / 4))
            .collect();
        let payload: Vec<u8> = (0..n * stride)
            .map(|b| (b as u8).wrapping_mul(31))
            .collect();
        let case = RecordCase {
            width,
            keys,
            stride,
            payload,
            descending: i % 2 == 1,
        };
        let id = engine.submit_record(request_of(&case)).expect("admitted");
        out.push((case, id));
    }
    engine.advance(Duration::from_millis(2));
    engine.tick();
    engine.run_until_idle();
    out
}

/// Same script, fresh engine → identical decision log and identical
/// record replies; and the log shows real coalescing (fewer flushes
/// than requests) while every reply still matches the stable oracle.
#[test]
fn the_engine_twin_replays_record_batches_bit_for_bit() {
    let cfg = twin_config();
    let mut engine = ShardEngine::new(&cfg);
    let script = record_script(&mut engine);

    for (case, id) in &script {
        let reply = engine
            .record_reply(*id)
            .expect("batch ran")
            .as_ref()
            .expect("sorted");
        assert_matches_oracle(case, reply);
    }
    let flushes = engine
        .events()
        .iter()
        .filter(|e| matches!(e, EngineEvent::Flushed { .. }))
        .count();
    assert!(
        flushes < script.len(),
        "six same-shard requests across three width lanes must coalesce \
         into fewer than six batches, got {flushes}"
    );

    let mut replay = ShardEngine::new(&cfg);
    let replayed = record_script(&mut replay);
    assert_eq!(
        engine.events(),
        replay.events(),
        "the decision log must replay exactly"
    );
    for (case_id, replay_id) in script.iter().zip(&replayed) {
        assert_eq!(
            engine.record_reply(case_id.1),
            replay.record_reply(replay_id.1),
            "record replies must replay bit-for-bit"
        );
    }
}

/// Over-band record requests against a bulk-enabled engine: every
/// width, with and without payload, both directions, duplicate-heavy so
/// ties straddle partitions.
fn record_bulk_script(engine: &mut ShardEngine) -> Vec<(RecordCase, u64)> {
    let mut out = Vec::new();
    for (i, &(width, stride)) in [(4u8, 0usize), (4, 3), (8, 0), (8, 4), (16, 2)]
        .iter()
        .enumerate()
    {
        let max = if width == 16 {
            u128::MAX
        } else {
            (1u128 << (8 * u32::from(width))) - 1
        };
        let n = 600 + 37 * i;
        let keys: Vec<u128> = (0..n as u64)
            .map(|k| u128::from(k.wrapping_mul(2_654_435_761).rotate_left(7) % 12) * (max / 11))
            .collect();
        let payload: Vec<u8> = (0..n * stride).map(|b| (b % 253) as u8).collect();
        let case = RecordCase {
            width,
            keys,
            stride,
            payload,
            descending: i % 2 == 0,
        };
        let id = engine.submit_record(request_of(&case)).expect("scattered");
        out.push((case, id));
        engine.advance(Duration::from_millis(1));
        engine.tick();
    }
    engine.run_until_idle();
    out
}

/// The engine twin takes over-band record requests through the same
/// scatter the threaded service uses: every reply matches the stable
/// oracle, payload included, and a fresh engine replays the scatters,
/// batches and merges bit for bit.
#[test]
fn the_engine_twin_replays_record_bulk_scatters_bit_for_bit() {
    let cfg = bulk_config();
    let mut engine = ShardEngine::new(&cfg);
    let script = record_bulk_script(&mut engine);
    for (case, id) in &script {
        let reply = engine
            .record_reply(*id)
            .expect("merged")
            .as_ref()
            .expect("sorted");
        assert_matches_oracle(case, reply);
    }
    let count = |f: fn(&EngineEvent) -> bool| engine.events().iter().filter(|e| f(e)).count();
    assert_eq!(
        count(|e| matches!(e, EngineEvent::Split { .. })),
        script.len()
    );
    assert_eq!(
        count(|e| matches!(e, EngineEvent::Merged { .. })),
        script.len()
    );

    let mut replay = ShardEngine::new(&cfg);
    let replayed = record_bulk_script(&mut replay);
    assert_eq!(
        engine.events(),
        replay.events(),
        "the decision log must replay exactly"
    );
    for ((_, id), (_, replay_id)) in script.iter().zip(&replayed) {
        assert_eq!(engine.record_reply(*id), replay.record_reply(*replay_id));
    }
}

// ---------------------------------------------------------------------
// 6. Lane equivalence: a plain sort is the u32 stride-0 record.
// ---------------------------------------------------------------------

fn stride0_u32(keys: &[u32], dir: Direction) -> RecordRequest {
    RecordRequest::new(RecordKeys::U32(keys.to_vec()), Vec::new(), 0, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `submit(SortRequest)` and `submit_record(U32, stride 0)` return
    /// identical keys on the single pool, on the sharded service, and for
    /// an over-band request through the bulk path.
    #[test]
    fn plain_and_stride0_u32_records_reply_identically(
        keys in pvec(any::<u32>(), 0..200),
        bulk in pvec(0u32..1_000, 300..700),
        desc: bool,
    ) {
        let dir = if desc { Direction::Descending } else { Direction::Ascending };
        let single = SortService::start(ServiceConfig::new(2));
        let plain = single.submit(SortRequest::new(keys.clone(), dir)).expect("admitted");
        let record = single.submit_record(stride0_u32(&keys, dir)).expect("admitted");
        let plain = plain.wait().expect("sorted");
        prop_assert_eq!(record.wait().expect("sorted").keys, RecordKeys::U32(plain.clone()));
        let _ = single.shutdown();

        let sharded = ShardedService::start(bulk_config());
        for keys in [&keys, &bulk] {
            let record = sharded.submit_record(stride0_u32(keys, dir)).expect("admitted");
            let got = sharded.submit(SortRequest::new(keys.clone(), dir)).expect("admitted");
            let got = got.wait().expect("sorted");
            prop_assert_eq!(&got, &plain_oracle(keys, dir));
            prop_assert_eq!(record.wait().expect("sorted").keys, RecordKeys::U32(got));
        }
        let report = sharded.shutdown();
        prop_assert_eq!(report.stats.bulk_completed, 2);
    }
}

fn plain_oracle(keys: &[u32], dir: Direction) -> Vec<u32> {
    bitonic_core::tagged::sorted_independently(keys, dir)
}

/// Requests share a batch exactly when they share a word shape: a u32
/// stride-0 record coalesces with a plain request (both `u64` words),
/// and a u32 record with payload coalesces with a u64 record (both
/// `u128` words).
#[test]
fn requests_coalesce_by_word_shape_not_entry_point() {
    let mut cfg = ServiceConfig::new(2);
    // A window long enough that both submissions are queued before the
    // dispatcher flushes.
    cfg.max_wait = Duration::from_secs(1);
    let service = SortService::start(cfg);

    let plain = service
        .submit(SortRequest::ascending(vec![3, 1, 2]))
        .expect("admitted");
    let record = service
        .submit_record(stride0_u32(&[9, 7, 8], Direction::Descending))
        .expect("admitted");
    assert_eq!(plain.wait().expect("sorted"), vec![1, 2, 3]);
    assert_eq!(
        record.wait().expect("sorted").keys,
        RecordKeys::U32(vec![9, 8, 7])
    );
    assert_eq!(
        settled(&service, 2).batches,
        1,
        "u64-word requests share a batch"
    );

    let narrow = service
        .submit_record(RecordRequest::new(
            RecordKeys::U32(vec![5, 4]),
            vec![0xA, 0xB],
            1,
            Direction::Ascending,
        ))
        .expect("admitted");
    let wide = service
        .submit_record(RecordRequest::new(
            RecordKeys::U64(vec![u64::MAX, 0]),
            vec![1, 1, 2, 2],
            2,
            Direction::Ascending,
        ))
        .expect("admitted");
    let narrow = narrow.wait().expect("sorted");
    assert_eq!(narrow.keys, RecordKeys::U32(vec![4, 5]));
    assert_eq!(narrow.payload, vec![0xB, 0xA]);
    let wide = wide.wait().expect("sorted");
    assert_eq!(wide.keys, RecordKeys::U64(vec![0, u64::MAX]));
    assert_eq!(wide.payload, vec![2, 2, 1, 1]);
    assert_eq!(
        settled(&service, 4).batches,
        2,
        "u128-word requests share a batch"
    );
    let _ = service.shutdown();
}

/// The service's counters once `completed` requests are accounted (the
/// dispatcher settles a batch's counters just after its replies).
fn settled(service: &SortService, completed: u64) -> sort_service::ServiceStats {
    let start = std::time::Instant::now();
    loop {
        let stats = service.stats();
        if stats.completed >= completed || start.elapsed() > Duration::from_secs(5) {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
