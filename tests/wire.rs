//! Wire-protocol conformance suite for the TCP frontend.
//!
//! Four layers, bottom-up:
//!
//! 1. the `SORT_1` frame codec — property-tested round-trips over every
//!    supported key width, direction, deadline, and length (including
//!    the empty sort and n < P), plus a fuzz corpus of truncated,
//!    oversized, bad-magic, and otherwise malformed frames — payload
//!    sections included — that must yield structured [`FrameError`]s,
//!    never panics, and narrow widths (1 and 2) that decode but are
//!    refused as record requests before admission;
//! 2. structured replies — every [`Rejection`] variant survives a real
//!    socket with its numeric fields and `label()` intact, and live
//!    rejections reconcile counter-for-counter with the service's
//!    shed-reason metrics;
//! 3. deadline propagation — a deadline set on a frame reaches the
//!    admission gate and the queue on the far side of the socket;
//! 4. connection faults — half-open peers, slow-loris writers, mid-frame
//!    disconnects, and malformed-frame floods each close with the
//!    expected structured [`Disconnect`] reason while the pool keeps
//!    serving healthy connections, and a seeded fault plan replays to
//!    identical per-reason disconnect tallies on a fresh server.

use bitonic_network::Direction;
use obs::TraceConfig;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sort_service::net::chaos::{self, ConnFault};
use sort_service::net::{
    parse_text_request, FrameError, ReplyFrame, RequestFrame, WireClient, WireConfig, WireServer,
    DISCONNECT_LABELS, LEN_PREFIX, MAGIC, REJECTION_LABELS, REPLY_HEADER, REQUEST_HEADER,
    SUPPORTED_WIDTHS, VERSION,
};
use sort_service::{BulkConfig, ClassConfig, RecordKeys, Rejection, ServiceConfig, ShardedConfig};
use std::io::Write;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// The service behind every live-socket test: two ranks, one warm
/// machine, metrics on (the default) so registry reconciliation is
/// exercised everywhere.
fn service_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(2);
    cfg.batch_watchdog = Some(Duration::from_millis(500));
    cfg.validate();
    cfg
}

fn server(wire: WireConfig) -> WireServer {
    WireServer::start(service_config(), wire, "127.0.0.1:0").expect("bind loopback")
}

/// A two-band bulk-enabled sharded topology for wire tests: requests up
/// to 64 keys are "small", up to 256 keys are "large", one 2-rank
/// machine each; anything above 256 keys takes the split path.
fn bulk_sharded_config() -> ShardedConfig {
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

/// Poll `done` until it holds or `patience` runs out; returns whether it
/// held. Used to wait for the server side to finish accounting a close.
fn wait_until(patience: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < patience {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
}

fn sorted(keys: &[u32], dir: Direction) -> Vec<u32> {
    let mut out = keys.to_vec();
    out.sort_unstable();
    if dir == Direction::Descending {
        out.reverse();
    }
    out
}

// ---------------------------------------------------------------------
// 1. Frame codec: property round-trips and the malformed-frame corpus.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Request frames round-trip over every supported width: the raw
    /// key bytes, width, direction, and deadline all survive
    /// encode→decode bit-for-bit.
    #[test]
    fn request_frames_round_trip_every_width(
        wi in 0usize..SUPPORTED_WIDTHS.len(),
        desc: bool,
        deadline_us: u64,
        bytes in pvec(any::<u8>(), 0..256),
    ) {
        let width = SUPPORTED_WIDTHS[wi];
        let w = usize::from(width);
        let mut key_bytes = bytes;
        key_bytes.truncate(key_bytes.len() / w * w);
        let frame = RequestFrame {
            dir: if desc { Direction::Descending } else { Direction::Ascending },
            width,
            deadline_us,
            key_bytes,
            payload_stride: 0,
            payload: Vec::new(),
        };
        let encoded = frame.encode();
        prop_assert_eq!(encoded.len(), LEN_PREFIX + REQUEST_HEADER + frame.key_bytes.len());
        let back = RequestFrame::decode(&encoded[LEN_PREFIX..]).expect("round trip");
        prop_assert_eq!(&back, &frame);
        prop_assert_eq!(back.count(), frame.key_bytes.len() / w);
    }

    /// The width-4 path the server actually sorts: keys, direction, and
    /// deadline survive the codec and convert losslessly into the
    /// service's `SortRequest` — including n = 0 and n < P.
    #[test]
    fn width4_frames_reach_the_service_intact(
        keys in pvec(any::<u32>(), 0..130),
        desc: bool,
        deadline_us in 0u64..10_000_000,
    ) {
        let dir = if desc { Direction::Descending } else { Direction::Ascending };
        let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
        let frame = RequestFrame::from_u32_keys(&keys, dir, deadline);
        let back = RequestFrame::decode(&frame.encode()[LEN_PREFIX..]).expect("round trip");
        prop_assert_eq!(back.keys_u32().expect("width 4"), keys.clone());
        prop_assert_eq!(back.deadline(), deadline);
        let req = back.into_request().expect("width 4 converts");
        prop_assert_eq!(req.keys, keys);
        prop_assert_eq!(req.dir, dir);
        prop_assert_eq!(req.deadline, deadline);
    }

    /// Sorted replies round-trip with every key intact.
    #[test]
    fn sorted_replies_round_trip(keys in pvec(any::<u32>(), 0..200)) {
        let reply = ReplyFrame::Sorted(keys);
        let back = ReplyFrame::decode(&reply.encode()[LEN_PREFIX..]).expect("round trip");
        prop_assert_eq!(back, reply);
    }

    /// Decoding arbitrary bytes — request or reply — returns a
    /// structured error or a frame; it must never panic, and every
    /// error's code↔label mapping is self-consistent.
    #[test]
    fn decoding_fuzz_never_panics(payload in pvec(any::<u8>(), 0..200)) {
        if let Err(e) = RequestFrame::decode(&payload) {
            prop_assert_eq!(FrameError::label_of_code(e.code()), e.label());
        }
        if let Err(e) = ReplyFrame::decode(&payload) {
            prop_assert_eq!(FrameError::label_of_code(e.code()), e.label());
        }
    }
}

/// A header figure that is either arbitrary or sits right at an
/// overflow boundary of `count * width` / `count * stride`.
fn header_figure() -> impl Strategy<Value = u64> {
    (0u8..6, any::<u64>()).prop_map(|(pick, x)| match pick {
        0 => x % 64,
        1 => x,
        2 => 1 << 62,
        3 => u64::MAX / 4 + 1,
        4 => u64::MAX / 16 + 1,
        _ => u64::MAX,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile reply headers — any status, width and `a`/`b` figures,
    /// any body — never panic the decoder (overflow included, in debug
    /// builds), and a frame that decodes carries exactly the count its
    /// header declares.
    #[test]
    fn hostile_reply_headers_never_panic_or_misstate_the_count(
        status in 0u8..13,
        width in (0u8..4, any::<u8>()).prop_map(|(i, w)| [4, 8, 16, w][usize::from(i)]),
        a in header_figure(),
        b in header_figure(),
        body in pvec(any::<u8>(), 0..64),
    ) {
        let mut frame = Vec::with_capacity(REPLY_HEADER + body.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&[VERSION, status, width, 0]);
        frame.extend_from_slice(&a.to_le_bytes());
        frame.extend_from_slice(&b.to_le_bytes());
        frame.extend_from_slice(&body);
        match ReplyFrame::decode(&frame) {
            Ok(ReplyFrame::Sorted(keys)) => prop_assert_eq!(keys.len() as u64, a),
            Ok(ReplyFrame::Record { keys, payload, stride }) => {
                prop_assert_eq!(keys.len() as u64, a);
                prop_assert_eq!(u64::from(stride), b);
                prop_assert_eq!(payload.len(), keys.len() * stride as usize);
            }
            Ok(ReplyFrame::Failed(_)) => prop_assert_eq!(body.len() as u64, a),
            Ok(ReplyFrame::BulkFailed { .. }) => prop_assert_eq!(body.len() as u64, b),
            Ok(_) | Err(_) => {}
        }
    }

    /// The request-side twin: any flags, width, count and stride, any
    /// body — no panic, and a decoded frame's count and payload match
    /// its header.
    #[test]
    fn hostile_request_headers_never_panic_or_misstate_the_count(
        flags in 0u8..4,
        width in (0u8..6, any::<u8>()).prop_map(|(i, w)| [1, 2, 4, 8, 16, w][usize::from(i)]),
        count: u32,
        stride: u32,
        small_count in 0u32..8,
        body in pvec(any::<u8>(), 0..64),
    ) {
        for count in [count, small_count] {
            for stride_word in [None, Some(stride)] {
                let mut frame = Vec::with_capacity(REQUEST_HEADER + 4 + body.len());
                frame.extend_from_slice(&MAGIC);
                frame.extend_from_slice(&[VERSION, flags, width, 0]);
                frame.extend_from_slice(&0u64.to_le_bytes());
                frame.extend_from_slice(&count.to_le_bytes());
                if let Some(stride) = stride_word {
                    frame.extend_from_slice(&vec![0u8; count.min(8) as usize * usize::from(width)]);
                    frame.extend_from_slice(&stride.to_le_bytes());
                }
                frame.extend_from_slice(&body);
                if let Ok(req) = RequestFrame::decode(&frame) {
                    prop_assert_eq!(req.count() as u64, u64::from(count));
                    prop_assert_eq!(
                        req.payload.len() as u64,
                        u64::from(count) * u64::from(req.payload_stride)
                    );
                }
            }
        }
    }
}

/// Hand-built malformed frames classify as the *specific* structured
/// error a conforming peer can act on.
#[test]
fn malformed_frame_corpus_yields_structured_errors() {
    let valid = RequestFrame::from_u32_keys(&[3, 1, 2], Direction::Ascending, None).encode();
    let payload = &valid[LEN_PREFIX..];

    assert!(matches!(
        RequestFrame::decode(&[]),
        Err(FrameError::Truncated { have: 0, .. })
    ));
    assert!(matches!(
        RequestFrame::decode(&payload[..REQUEST_HEADER - 1]),
        Err(FrameError::Truncated { .. })
    ));

    let mut bad_magic = payload.to_vec();
    bad_magic[0] = b'X';
    assert!(matches!(
        RequestFrame::decode(&bad_magic),
        Err(FrameError::BadMagic(_))
    ));

    let mut bad_version = payload.to_vec();
    bad_version[4] = VERSION + 9;
    assert_eq!(
        RequestFrame::decode(&bad_version),
        Err(FrameError::BadVersion(VERSION + 9))
    );

    let mut bad_flags = payload.to_vec();
    bad_flags[5] = 0xF0;
    assert_eq!(
        RequestFrame::decode(&bad_flags),
        Err(FrameError::BadFlags(0xF0))
    );

    let mut bad_width = payload.to_vec();
    bad_width[6] = 3;
    assert_eq!(
        RequestFrame::decode(&bad_width),
        Err(FrameError::BadWidth(3))
    );

    // Declared count disagrees with the body length in both directions.
    let mut short_body = payload.to_vec();
    short_body.truncate(payload.len() - 4);
    assert!(matches!(
        RequestFrame::decode(&short_body),
        Err(FrameError::CountMismatch { declared: 3, .. })
    ));
    let mut long_body = payload.to_vec();
    long_body.extend_from_slice(&[0; 4]);
    assert!(matches!(
        RequestFrame::decode(&long_body),
        Err(FrameError::CountMismatch { declared: 3, .. })
    ));

    let mut bad_status = ReplyFrame::ServiceClosed.encode()[LEN_PREFIX..].to_vec();
    bad_status[5] = 77;
    assert_eq!(
        ReplyFrame::decode(&bad_status),
        Err(FrameError::BadStatus(77))
    );
}

/// The stdin frontend's text format parses into the same frame the wire
/// carries: one validation path for both frontends.
#[test]
fn text_requests_and_wire_frames_share_one_parse() {
    let frame = parse_text_request("desc deadline=2500 5 1 9").expect("parses");
    assert_eq!(frame.dir, Direction::Descending);
    assert_eq!(frame.deadline(), Some(Duration::from_micros(2500)));
    assert_eq!(frame.keys_u32().expect("width 4"), vec![5, 1, 9]);
    let back = RequestFrame::decode(&frame.encode()[LEN_PREFIX..]).expect("round trip");
    let req = back.into_request().expect("width 4");
    assert_eq!(req.deadline, Some(Duration::from_micros(2500)));
    assert_eq!(req.keys, vec![5, 1, 9]);

    assert!(
        parse_text_request("1 asc 2").is_err(),
        "direction must lead"
    );
    assert!(parse_text_request("asc deadline=x 1").is_err());
}

// ---------------------------------------------------------------------
// 2. Structured replies over a real socket.
// ---------------------------------------------------------------------

/// Every reply variant — all five rejections included — survives a real
/// TCP hop with its numeric fields and `label()` intact.
#[test]
fn every_reply_variant_round_trips_over_a_socket() {
    let replies = vec![
        ReplyFrame::Sorted(vec![1, 2, 3, u32::MAX]),
        ReplyFrame::Rejected(Rejection::Closed),
        ReplyFrame::Rejected(Rejection::TooLarge {
            keys: 90_000,
            limit: 16_384,
        }),
        ReplyFrame::Rejected(Rejection::QueueFull {
            queued: 4096,
            limit: 4096,
        }),
        ReplyFrame::Rejected(Rejection::QueueOverflow {
            would_hold: 1 << 21,
            limit: 1 << 20,
        }),
        ReplyFrame::Rejected(Rejection::DeadlineUnmeetable {
            predicted_wait: Duration::from_micros(1234),
            deadline: Duration::from_micros(100),
        }),
        ReplyFrame::Expired {
            waited_us: 777,
            deadline_us: 500,
        },
        ReplyFrame::Failed("rank 1 wedged".into()),
        ReplyFrame::BulkFailed {
            shard: 1,
            reason: "bulk partition on shard 1 was shed: queue full".into(),
        },
        ReplyFrame::ServiceClosed,
        ReplyFrame::BadFrame(FrameError::BadWidth(3).code()),
    ];
    let expected_labels = [
        "ok",
        "closed",
        "too_large",
        "queue_full",
        "queue_overflow",
        "deadline_unmeetable",
        "expired",
        "machine_failed",
        "bulk_failed",
        "service_closed",
        "bad_frame",
    ];

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let to_send = replies.clone();
    let writer = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept");
        use std::io::Write;
        for reply in &to_send {
            peer.write_all(&reply.encode()).expect("write reply");
        }
    });

    let mut client = WireClient::connect(addr).expect("connect");
    for (reply, label) in replies.iter().zip(expected_labels) {
        let got = client.read_reply().expect("read reply");
        assert_eq!(&got, reply);
        assert_eq!(got.label(), label);
    }
    writer.join().expect("writer");
}

/// Live rejections: oversized requests are shed as `too_large` on the
/// wire, the connection stays open, and the per-reason wire counters
/// match the service's shed-reason metrics exactly — for every reason,
/// zeros included.
#[test]
fn live_rejections_reconcile_with_shed_reason_counters() {
    let cfg = service_config();
    let srv = server(WireConfig::default());
    let mut client = WireClient::connect(srv.local_addr()).expect("connect");

    let huge = vec![7u32; cfg.max_request_keys + 1];
    for _ in 0..3 {
        match client
            .sort(&huge, Direction::Ascending, None)
            .expect("reply")
        {
            ReplyFrame::Rejected(Rejection::TooLarge { keys, limit }) => {
                assert_eq!(keys, huge.len());
                assert_eq!(limit, cfg.max_request_keys);
            }
            other => panic!("expected too_large, got {other:?}"),
        }
    }
    // The connection survived three rejections: a normal sort still works.
    let keys = [9u32, 4, 6, 1, 8];
    match client
        .sort(&keys, Direction::Descending, None)
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, sorted(&keys, Direction::Descending)),
        other => panic!("expected sorted keys, got {other:?}"),
    }
    drop(client);
    assert!(wait_until(Duration::from_secs(5), || {
        let w = srv.wire_stats();
        w.connections_closed == w.connections_opened
    }));

    let metrics = srv.metrics().expect("metrics on");
    let snap = metrics.snapshot();
    let report = srv.shutdown();
    let wire = report.wire;
    let stats = report.service.stats;

    assert_eq!(wire.rejection("too_large"), 3);
    assert_eq!(wire.rejected_total(), 3);
    assert_eq!(stats.shed, 3);
    assert_eq!(wire.frames_read, stats.submitted);
    assert_eq!(wire.replies_ok, stats.completed);
    for reason in REJECTION_LABELS {
        let on_wire = snap.counter_labeled("bitonic_wire_rejections_total", "reason", reason);
        let shed = snap.counter_labeled("bitonic_requests_shed_total", "reason", reason);
        assert_eq!(on_wire, shed, "reason {reason} diverged");
        assert_eq!(
            on_wire,
            wire.rejection(reason),
            "reason {reason} vs WireStats"
        );
    }
}

/// An over-band request — refused `too_large` at the seed — now
/// round-trips a correct fully-merged bulk reply over a real socket,
/// and the same connection keeps serving in-band sorts.
#[test]
fn over_band_requests_round_trip_a_bulk_reply() {
    let srv =
        WireServer::start_sharded(bulk_sharded_config(), WireConfig::default(), "127.0.0.1:0")
            .expect("bind loopback");
    let mut client = WireClient::connect(srv.local_addr()).expect("connect");

    // Larger than the widest (256-key) band: only the split path answers.
    let keys: Vec<u32> = (0..700u32)
        .rev()
        .map(|k| k.wrapping_mul(2_654_435_761))
        .collect();
    match client
        .sort(&keys, Direction::Ascending, None)
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, sorted(&keys, Direction::Ascending)),
        other => panic!("expected a merged bulk reply, got {other:?}"),
    }
    match client
        .sort(&keys, Direction::Descending, None)
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, sorted(&keys, Direction::Descending)),
        other => panic!("expected a merged bulk reply, got {other:?}"),
    }
    // The same connection still serves in-band requests.
    let small = [9u32, 4, 6];
    match client
        .sort(&small, Direction::Ascending, None)
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, vec![4, 6, 9]),
        other => panic!("expected sorted keys, got {other:?}"),
    }

    drop(client);
    let report = srv.shutdown();
    assert_eq!(report.wire.replies_ok, 3);
    assert_eq!(report.wire.bulk_failed, 0);
    let sharded = report.sharded.expect("sharded backend reports its stats");
    assert_eq!(sharded.stats.bulk_submitted, 2);
    assert_eq!(sharded.stats.bulk_completed, 2);
    assert_eq!(sharded.stats.bulk_failed, 0);
    assert_eq!(sharded.stats.unroutable, 0);
}

/// A bulk sub-request failure surfaces as a structured `bulk_failed`
/// reply naming the shard and reason — not a disconnect — and the
/// connection keeps serving.
#[test]
fn a_failed_partition_surfaces_as_a_structured_bulk_reply() {
    let mut cfg = bulk_sharded_config();
    for c in &mut cfg.classes {
        // Smaller than any partition chunk, so admission must refuse one.
        c.pool.max_queue_keys = 16;
    }
    let srv = WireServer::start_sharded(cfg, WireConfig::default(), "127.0.0.1:0")
        .expect("bind loopback");
    let mut client = WireClient::connect(srv.local_addr()).expect("connect");

    match client
        .sort(&vec![5u32; 700], Direction::Ascending, None)
        .expect("a structured reply, not a disconnect")
    {
        ReplyFrame::BulkFailed { shard, reason } => {
            assert!(shard < 2, "failure names a real shard, got {shard}");
            assert!(reason.contains("shed"), "reason names the cause: {reason}");
        }
        other => panic!("expected bulk_failed, got {other:?}"),
    }
    // The connection survived the failure: a small sort still works.
    match client
        .sort(&[3u32, 1, 2], Direction::Ascending, None)
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, vec![1, 2, 3]),
        other => panic!("expected sorted keys, got {other:?}"),
    }

    drop(client);
    let report = srv.shutdown();
    assert_eq!(report.wire.bulk_failed, 1);
    assert_eq!(report.wire.replies_ok, 1);
    let sharded = report.sharded.expect("sharded backend reports its stats");
    assert_eq!(sharded.stats.bulk_submitted, 1);
    assert_eq!(sharded.stats.bulk_failed, 1);
    assert_eq!(sharded.stats.bulk_completed, 0);
}

/// Satellite regression: with the split path disabled, an over-band
/// request is refused `too_large` whose numeric detail names the
/// *widest* band's limit — the real admission ceiling — in both the
/// frame fields and the rendered detail words.
#[test]
fn sharded_too_large_reports_the_widest_band_limit_on_the_wire() {
    let mut cfg = bulk_sharded_config();
    cfg.bulk = BulkConfig::default();
    let srv = WireServer::start_sharded(cfg, WireConfig::default(), "127.0.0.1:0")
        .expect("bind loopback");
    let mut client = WireClient::connect(srv.local_addr()).expect("connect");

    match client
        .sort(&vec![1u32; 300], Direction::Ascending, None)
        .expect("reply")
    {
        ReplyFrame::Rejected(r @ Rejection::TooLarge { keys, limit }) => {
            assert_eq!(keys, 300);
            assert_eq!(limit, 256, "limit names the widest band, not the first");
            let detail = r.to_string();
            assert!(
                detail.contains("300 keys") && detail.contains("256-key limit"),
                "detail words diverged: {detail}"
            );
        }
        other => panic!("expected too_large, got {other:?}"),
    }
    drop(client);
    let report = srv.shutdown();
    assert_eq!(report.wire.rejection("too_large"), 1);
    let sharded = report.sharded.expect("sharded backend reports its stats");
    assert_eq!(sharded.stats.unroutable, 1);
}

// ---------------------------------------------------------------------
// 3. Deadline propagation through the socket.
// ---------------------------------------------------------------------

/// A deadline set on the frame acts on the far side of the socket: a
/// generous one sorts, a 1 µs one is refused at admission or expires in
/// the queue — and either outcome is a structured reply that reconciles.
#[test]
fn deadlines_propagate_through_the_wire() {
    let srv = server(WireConfig::default());
    let mut client = WireClient::connect(srv.local_addr()).expect("connect");

    let keys = [5u32, 3, 8, 1];
    match client
        .sort(&keys, Direction::Ascending, Some(Duration::from_secs(5)))
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, sorted(&keys, Direction::Ascending)),
        other => panic!("generous deadline should sort, got {other:?}"),
    }

    let reply = client
        .sort(&keys, Direction::Ascending, Some(Duration::from_micros(1)))
        .expect("reply");
    assert!(
        matches!(reply.label(), "expired" | "deadline_unmeetable"),
        "a 1 µs deadline cannot be met, got {reply:?}"
    );

    drop(client);
    let report = srv.shutdown();
    let wire = report.wire;
    let stats = report.service.stats;
    assert_eq!(wire.replies_ok, 1);
    assert_eq!(wire.expired + wire.rejected_total(), 1);
    assert_eq!(wire.expired, stats.expired);
    assert_eq!(wire.rejected_total(), stats.shed);
}

// ---------------------------------------------------------------------
// 4. Connection faults: structured disconnects, isolation, and replay.
// ---------------------------------------------------------------------

const INJECT_PATIENCE: Duration = Duration::from_secs(3);

/// Each connection fault closes with its expected structured reason,
/// and after every fault the pool still serves a fresh connection —
/// isolation asserted through `ServiceStats` (no fault ever reaches
/// `submit`, nothing fails, every healthy sort completes).
#[test]
fn connection_faults_classify_and_leave_the_pool_serving() {
    let faults = [
        ConnFault::HalfOpen,
        ConnFault::SlowLoris {
            byte_gap: Duration::from_millis(10),
        },
        ConnFault::MidFrameCut { keep_bytes: 11 },
        ConnFault::Garbage { len: 32 },
        ConnFault::BadVersion,
        ConnFault::Oversized { declared: u32::MAX },
        ConnFault::TruncatedHeader,
    ];
    let srv = server(WireConfig::fast_faults());
    let addr = srv.local_addr();

    let mut healthy_sorts = 0u64;
    let mut expected: Vec<(&str, u64)> = Vec::new();
    for (round, fault) in faults.iter().enumerate() {
        chaos::inject(addr, fault, INJECT_PATIENCE).expect("inject");
        let label = fault.expected_disconnect();
        let want = 1 + expected
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, n)| *n)
            .sum::<u64>();
        expected.push((label, 1));
        assert!(
            wait_until(INJECT_PATIENCE, || srv.wire_stats().disconnect(label)
                >= want),
            "round {round}: {} never tallied {label} (stats {:?})",
            fault.label(),
            srv.wire_stats()
        );

        // Isolation: a brand-new connection sorts immediately after the
        // fault (fast_faults idle timeouts are too tight to keep one
        // connection parked across rounds).
        let keys: Vec<u32> = (0..16u32).rev().map(|k| k * (round as u32 + 1)).collect();
        let mut client = WireClient::connect(addr).expect("healthy connect");
        match client
            .sort(&keys, Direction::Ascending, None)
            .expect("reply")
        {
            ReplyFrame::Sorted(out) => assert_eq!(out, sorted(&keys, Direction::Ascending)),
            other => panic!("round {round}: healthy sort got {other:?}"),
        }
        healthy_sorts += 1;
        drop(client);
    }

    assert!(wait_until(Duration::from_secs(5), || {
        let w = srv.wire_stats();
        w.connections_closed == w.connections_opened
    }));
    let report = srv.shutdown();
    let wire = report.wire;
    let stats = report.service.stats;

    // Per-reason disconnect tallies: one per fault, plus a clean close
    // per healthy connection.
    assert_eq!(wire.disconnect("idle_timeout"), 1);
    assert_eq!(wire.disconnect("read_stall"), 1);
    assert_eq!(wire.disconnect("mid_frame_eof"), 1);
    assert_eq!(wire.disconnect("bad_frame"), 4);
    assert_eq!(wire.disconnect("clean_eof"), healthy_sorts);
    assert_eq!(wire.frame_errors, 4);
    assert_eq!(wire.connections_opened, faults.len() as u64 + healthy_sorts);

    // Isolation, in the service's own books: only healthy traffic ever
    // reached the admission gate, and all of it completed.
    assert_eq!(stats.submitted, healthy_sorts);
    assert_eq!(stats.completed, healthy_sorts);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(wire.frames_read, stats.submitted);
}

/// A frame the codec accepts but the sorter cannot serve (narrow width
/// 2 — width 8 sorts as a record now) is answered `bad_frame` and never
/// reaches the admission gate.
#[test]
fn unsupported_width_is_refused_before_admission() {
    let srv = server(WireConfig::default());
    let mut client = WireClient::connect(srv.local_addr()).expect("connect");
    let frame = RequestFrame {
        dir: Direction::Ascending,
        width: 2,
        deadline_us: 0,
        key_bytes: vec![0xAB; 16],
        payload_stride: 0,
        payload: Vec::new(),
    };
    client.send(&frame).expect("send");
    match client.read_reply().expect("reply") {
        ReplyFrame::BadFrame(code) => {
            assert_eq!(
                FrameError::label_of_code(code),
                FrameError::BadWidth(2).label()
            );
        }
        other => panic!("expected bad_frame, got {other:?}"),
    }
    let report = srv.shutdown();
    assert_eq!(report.wire.frames_read, 0);
    assert_eq!(report.wire.frame_errors, 1);
    assert_eq!(report.wire.disconnect("bad_frame"), 1);
    assert_eq!(report.service.stats.submitted, 0);
}

/// Send raw bytes as one connection and read the single structured
/// reply the server writes before it disconnects the offender.
fn raw_bad_frame(addr: std::net::SocketAddr, bytes: &[u8]) -> ReplyFrame {
    let mut client = WireClient::connect(addr).expect("connect");
    {
        let mut stream = client.stream();
        stream.write_all(bytes).expect("write raw frame");
        stream.flush().expect("flush");
    }
    match client.read_reply().expect("a structured reply, not a cut") {
        ReplyFrame::BadFrame(code) => ReplyFrame::BadFrame(code),
        other => panic!("expected bad_frame, got {other:?}"),
    }
}

/// Malformed payload sections over a live socket: a truncated payload,
/// a stride that disagrees with the row bytes, and a width-1 record
/// each draw a structured `bad_frame` naming the precise error — the
/// server never panics, and a fresh connection still sorts.
#[test]
fn malformed_payload_frames_draw_structured_bad_frames() {
    let srv = server(WireConfig::default());
    let addr = srv.local_addr();

    let valid = RequestFrame::from_u64_keys(&[5, 1], Direction::Ascending, None)
        .with_payload(4, vec![0xA0, 0xA1, 0xA2, 0xA3, 0xB0, 0xB1, 0xB2, 0xB3])
        .encode();

    // Truncated payload: drop the last three payload bytes and re-state
    // the length prefix so the frame arrives whole but internally short.
    let mut truncated = valid.clone();
    truncated.truncate(valid.len() - 3);
    let body_len = (truncated.len() - LEN_PREFIX) as u32;
    truncated[..LEN_PREFIX].copy_from_slice(&body_len.to_le_bytes());
    let payload_code = FrameError::PayloadMismatch {
        declared: 0,
        body_bytes: 0,
    }
    .code();
    match raw_bad_frame(addr, &truncated) {
        ReplyFrame::BadFrame(code) => assert_eq!(code, payload_code, "truncated payload"),
        other => panic!("{other:?}"),
    }

    // Stride/count mismatch: inflate the stride word so declared rows
    // exceed the bytes on the wire.
    let mut inflated = valid.clone();
    let stride_at = LEN_PREFIX + REQUEST_HEADER + 16;
    inflated[stride_at..stride_at + 4].copy_from_slice(&100u32.to_le_bytes());
    match raw_bad_frame(addr, &inflated) {
        ReplyFrame::BadFrame(code) => assert_eq!(code, payload_code, "inflated stride"),
        other => panic!("{other:?}"),
    }

    // Width 1 decodes (the codec carries it) but no sorter serves it.
    let narrow = RequestFrame {
        dir: Direction::Descending,
        width: 1,
        deadline_us: 0,
        key_bytes: vec![9, 7, 8],
        payload_stride: 0,
        payload: Vec::new(),
    }
    .encode();
    match raw_bad_frame(addr, &narrow) {
        ReplyFrame::BadFrame(code) => {
            assert_eq!(
                FrameError::label_of_code(code),
                FrameError::BadWidth(1).label(),
                "narrow width"
            );
        }
        other => panic!("{other:?}"),
    }

    // The pool outlived all three offenders: a fresh connection sorts.
    let mut client = WireClient::connect(addr).expect("healthy connect");
    match client
        .sort(&[3u32, 1, 2], Direction::Ascending, None)
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, vec![1, 2, 3]),
        other => panic!("expected sorted keys, got {other:?}"),
    }
    drop(client);

    assert!(wait_until(Duration::from_secs(5), || {
        let w = srv.wire_stats();
        w.connections_closed == w.connections_opened
    }));
    let report = srv.shutdown();
    assert_eq!(report.wire.frame_errors, 3);
    assert_eq!(report.wire.disconnect("bad_frame"), 3);
    assert_eq!(report.wire.frames_read, 1, "only the healthy frame counts");
    assert_eq!(report.service.stats.submitted, 1);
    assert_eq!(report.service.stats.completed, 1);
}

/// Record frames over a live socket: payload rows come back in key
/// order as `ok_record` replies, and the record counters reconcile
/// three ways — WireStats, ServiceStats, and the metrics registry,
/// per-width counters included.
#[test]
fn record_replies_reconcile_ok_record_counters_three_ways() {
    let srv = server(WireConfig::default());
    let mut client = WireClient::connect(srv.local_addr()).expect("connect");

    // u64 keys with a tie: rows must follow their keys stably.
    let frame = RequestFrame::from_u64_keys(&[5, 5, 1], Direction::Ascending, None)
        .with_payload(2, vec![10, 11, 20, 21, 30, 31]);
    match client.exchange(&frame).expect("reply") {
        ReplyFrame::Record {
            keys: RecordKeys::U64(keys),
            payload,
            stride,
        } => {
            assert_eq!(keys, vec![1, 5, 5]);
            assert_eq!(payload, vec![30, 31, 10, 11, 20, 21]);
            assert_eq!(stride, 2);
        }
        other => panic!("expected a u64 record reply, got {other:?}"),
    }

    // u128 keys, no payload: still a record reply (width routes it).
    let frame = RequestFrame::from_u128_keys(&[u128::MAX, 0], Direction::Descending, None);
    match client.exchange(&frame).expect("reply") {
        ReplyFrame::Record {
            keys: RecordKeys::U128(keys),
            payload,
            stride,
        } => {
            assert_eq!(keys, vec![u128::MAX, 0]);
            assert!(payload.is_empty());
            assert_eq!(stride, 0);
        }
        other => panic!("expected a u128 record reply, got {other:?}"),
    }

    // Width-4, payload-free frames still ride the legacy plain path.
    match client
        .sort(&[2u32, 1], Direction::Ascending, None)
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, vec![1, 2]),
        other => panic!("expected sorted keys, got {other:?}"),
    }

    drop(client);
    assert!(wait_until(Duration::from_secs(5), || {
        let w = srv.wire_stats();
        w.connections_closed == w.connections_opened
    }));
    let metrics = srv.metrics().expect("metrics on");
    let snap = metrics.snapshot();
    let report = srv.shutdown();
    let wire = report.wire;
    let stats = report.service.stats;

    assert_eq!(wire.frames_read, 3);
    assert_eq!(wire.replies_record, 2);
    assert_eq!(wire.replies_ok, 1);
    assert_eq!(wire.frames_read, stats.submitted);
    assert_eq!(wire.replies_ok + wire.replies_record, stats.completed);
    assert_eq!(
        snap.counter_labeled("bitonic_wire_replies_total", "status", "ok_record"),
        wire.replies_record
    );
    assert_eq!(
        snap.counter_labeled("bitonic_wire_replies_total", "status", "ok"),
        wire.replies_ok
    );
    assert_eq!(
        snap.counter_labeled("bitonic_record_requests_total", "width", "8"),
        1
    );
    assert_eq!(
        snap.counter_labeled("bitonic_record_requests_total", "width", "16"),
        1
    );
    assert_eq!(snap.histogram_count("bitonic_record_payload_bytes"), 2);
}

/// The `width=` and `payload=` text tokens parse through the same codec
/// the socket uses — one validation path for both frontends.
#[test]
fn text_width_and_payload_tokens_share_the_wire_codec() {
    let frame = parse_text_request("desc width=8 payload=0a0b0c0d 300 7").expect("parses");
    assert_eq!(frame.dir, Direction::Descending);
    assert_eq!(frame.width, 8);
    assert_eq!(frame.payload_stride, 2);
    assert_eq!(frame.payload, vec![0x0A, 0x0B, 0x0C, 0x0D]);
    let back = RequestFrame::decode(&frame.encode()[LEN_PREFIX..]).expect("round trip");
    assert_eq!(back, frame);
    let req = back.into_record_request().expect("record request");
    assert_eq!(req.keys, RecordKeys::U64(vec![300, 7]));
    assert_eq!(req.stride, 2);

    // Width bounds the key range; payload hex and divisibility are
    // validated before any frame exists.
    assert!(parse_text_request("width=1 256").is_err(), "key over range");
    assert!(parse_text_request("width=3 1").is_err(), "width 3 invalid");
    assert!(parse_text_request("payload=abc 1 2").is_err(), "odd hex");
    assert!(
        parse_text_request("payload=aabb 1 2 3").is_err(),
        "4 bytes over 3 keys does not divide"
    );
    assert!(
        parse_text_request("payload=aabb").is_err(),
        "payload with no keys"
    );
}

/// Connections still open at shutdown close as `server_closed`.
#[test]
fn shutdown_closes_live_connections_with_server_closed() {
    let srv = server(WireConfig::default());
    let mut client = WireClient::connect(srv.local_addr()).expect("connect");
    let keys = [2u32, 1];
    match client
        .sort(&keys, Direction::Ascending, None)
        .expect("reply")
    {
        ReplyFrame::Sorted(out) => assert_eq!(out, vec![1, 2]),
        other => panic!("expected sorted keys, got {other:?}"),
    }
    // Leave the connection open: shutdown must reclaim it.
    let report = srv.shutdown();
    assert_eq!(report.wire.disconnect("server_closed"), 1);
    assert_eq!(
        report.wire.connections_closed,
        report.wire.connections_opened
    );
    drop(client);
}

/// Run a fault plan serially against a fresh fast-fault server and
/// return the per-reason disconnect tallies.
fn disconnect_tallies(faults: &[ConnFault]) -> Vec<(&'static str, u64)> {
    let srv = server(WireConfig::fast_faults());
    let addr = srv.local_addr();
    for fault in faults {
        chaos::inject(addr, fault, INJECT_PATIENCE).expect("inject");
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            let w = srv.wire_stats();
            w.connections_closed == w.connections_opened
                && w.connections_opened == faults.len() as u64
        }),
        "plan never drained: {:?}",
        srv.wire_stats()
    );
    let wire = srv.shutdown().wire;
    DISCONNECT_LABELS
        .iter()
        .map(|l| (*l, wire.disconnect(l)))
        .collect()
}

/// The seeded fault plan is a pure function of `(seed, conns)`, and
/// replaying the same plan against a fresh server produces identical
/// per-reason disconnect tallies — deterministic fault replay end to
/// end.
#[test]
fn seeded_fault_plans_replay_to_identical_tallies() {
    let seed = 0xC0FF_EE00_BEEF;
    let faults = chaos::plan(seed, 6);
    assert_eq!(
        faults,
        chaos::plan(seed, 6),
        "plan must be pure in the seed"
    );
    assert_eq!(faults.len(), 6);

    // What the plan promises, from the fault values alone.
    let mut promised: Vec<(&str, u64)> = DISCONNECT_LABELS.iter().map(|l| (*l, 0)).collect();
    for fault in &faults {
        let label = fault.expected_disconnect();
        let slot = promised
            .iter_mut()
            .find(|(l, _)| *l == label)
            .expect("label");
        slot.1 += 1;
    }

    let first = disconnect_tallies(&faults);
    let second = disconnect_tallies(&faults);
    assert_eq!(first, second, "same plan, different tallies");
    assert_eq!(first, promised, "tallies diverged from the plan's promise");
}
